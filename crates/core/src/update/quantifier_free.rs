//! The quantifier-free fast path — Theorem 4.7.
//!
//! When the inserted sentence is a Boolean combination of *ground* atomic
//! formulas, only the (fixed number of) ground atoms occurring in the
//! sentence can usefully change: flipping or adding any other fact would only
//! enlarge the symmetric difference without affecting the truth of the
//! sentence.  Enumerating the `2^k` truth assignments of those `k ≤ |φ|`
//! atoms and keeping the Winslett-minimal models therefore takes polynomial
//! time in the size of the database (Theorem 4.7).
//!
//! Unlike the grounding evaluator this path never materialises the
//! candidate-atom universe (`Σ_R |B|^arity(R)` facts): it only needs the
//! result schema and the `k` atoms of the sentence, so it stays cheap on
//! arbitrarily large databases — which is what lets ground `τ_φ` steps ride
//! inside long incremental chains over 10k+ fact databases.

use std::collections::BTreeSet;

use kbt_data::Database;
use kbt_logic::{ground_sentence, is_ground, GroundAtom, Sentence};

use crate::error::CoreError;
use crate::options::EvalOptions;
use crate::update::UpdateOutcome;
use crate::Result;

/// Computes `µ(φ, db)` for a ground (quantifier- and variable-free) sentence.
///
/// A candidate differs from the input database only on the `k` ground atoms
/// of `φ`, and `φ` mentions no other facts — so the truth of `φ` in a
/// candidate depends only on the chosen bit assignment.  The `2^k`
/// assignments are therefore evaluated symbolically (one membership lookup
/// per atom fixes the base truth values), minimality is decided on the
/// assignments' bit differences from `db`, and a candidate database is only
/// materialised for the minimal assignments that satisfy `φ`.
pub fn quantifier_free_update(
    phi: &Sentence,
    db: &Database,
    options: &EvalOptions,
) -> Result<UpdateOutcome> {
    if !is_ground(phi.formula()) {
        return Err(CoreError::StrategyNotApplicable {
            strategy: "QuantifierFree",
            reason: "the sentence contains variables or quantifiers".to_string(),
        });
    }
    // The grounding domain only matters for quantifier expansion, and φ is
    // ground — so the (possibly huge) database constant set is never
    // consulted and must not be collected: τ-chains apply ground steps to
    // databases of 10k+ facts, where a full constant scan per step would
    // dominate the whole update.
    let domain = phi.constants();
    let schema = db.schema().union(&phi.schema())?;
    // Grounding a ground sentence simply rewrites it over ground atoms.
    let ground = ground_sentence(phi, &domain);
    let atoms: Vec<GroundAtom> = ground.atoms().into_iter().collect();
    let k = atoms.len();
    // The enumeration below is 2^k in the *sentence* size (fine for data
    // complexity, Theorem 4.7), but an adversarially wide sentence must not
    // hang the evaluator or overflow the shift: reuse the ground-atom
    // ceiling as the budget for the assignment space.
    let assignments = 1u64
        .checked_shl(k as u32)
        .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
        .unwrap_or(usize::MAX);
    if assignments > options.max_ground_atoms {
        return Err(CoreError::UniverseTooLarge {
            atoms: assignments,
            limit: options.max_ground_atoms,
        });
    }

    // Every candidate is known by its k-bit difference from the input (bit
    // j set = atom j flipped).  Winslett's order (Definition 2.1,
    // `kbt_data::order`) compares the flips on the input's relations
    // first, and the flips on new relations only between candidates whose
    // other flips are equal — so a satisfying difference `d` is minimal
    // unless some satisfying difference flips a strict subset of its
    // stored atoms, or the same stored atoms and a strict subset of its
    // new ones.
    let (mut held, mut stored) = (0u64, 0u64);
    for (j, atom) in atoms.iter().enumerate() {
        if db.relation(atom.rel).is_some() {
            stored |= 1 << j;
            if db.holds(atom.rel, &atom.tuple) {
                held |= 1 << j;
            }
        }
    }
    let fresh = !stored & ((1u64 << k) - 1);
    let mut satisfying = vec![false; 1 << k];
    for bits in 0..(1u64 << k) {
        let true_atoms: BTreeSet<GroundAtom> = atoms
            .iter()
            .enumerate()
            .filter(|(j, _)| bits & (1 << j) != 0)
            .map(|(_, atom)| atom.clone())
            .collect();
        satisfying[(bits ^ held) as usize] = ground.eval(&true_atoms);
    }
    // same_stored[d]: a satisfying difference has d's stored flips and a
    // subset of its new ones; stored_within[s]: a satisfying difference
    // flips a subset of the stored atoms s
    let same_stored = upward_closure(satisfying.clone(), fresh);
    let mut stored_within = vec![false; 1 << k];
    for d in (0..satisfying.len()).filter(|&d| satisfying[d]) {
        stored_within[d & stored as usize] = true;
    }
    let stored_within = upward_closure(stored_within, stored);

    // Only the minimal assignments pay for a database: start from the
    // lifted base and apply the difference as a patch.
    let base = db.extend_schema(&schema)?;
    let mut minimal: Vec<Database> = Vec::new();
    for bits in 0..(1u64 << k) {
        let d = (bits ^ held) as usize;
        if !satisfying[d]
            || one_below(&same_stored, d, fresh)
            || one_below(&stored_within, d & stored as usize, stored)
        {
            continue;
        }
        let mut candidate = base.clone();
        for (j, atom) in atoms.iter().enumerate() {
            if d & (1 << j) == 0 {
                continue;
            }
            if bits & (1 << j) != 0 {
                candidate.insert_fact(atom.rel, atom.tuple.clone())?;
            } else {
                candidate.remove_fact(atom.rel, &atom.tuple);
            }
        }
        minimal.push(candidate);
    }
    Ok(UpdateOutcome {
        databases: minimal,
        candidate_atoms: k,
        fixpoint: None,
    })
}

/// Whether `marks` holds at `d` minus one of its bits in `bits`.
fn one_below(marks: &[bool], d: usize, bits: u64) -> bool {
    let mut rest = d as u64 & bits;
    while rest != 0 {
        let low = rest & rest.wrapping_neg();
        if marks[d ^ low as usize] {
            return true;
        }
        rest ^= low;
    }
    false
}

/// Closes `marks` upwards along `bits`: afterwards `marks[d]` holds when
/// it held at some `d'` that `d` extends by bits of `bits` only.  Each such
/// `d'` is numerically smaller than `d`, so one ascending pass suffices.
fn upward_closure(mut marks: Vec<bool>, bits: u64) -> Vec<bool> {
    for d in 0..marks.len() {
        marks[d] = marks[d] || one_below(&marks, d, bits);
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::exhaustive::exhaustive_update;
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::*;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn agrees_with_exhaustive_on_ground_sentences() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32])
            .fact(r(1), [2u32])
            .fact(r(2), [1u32, 2])
            .build()
            .unwrap();
        let sentences = [
            Sentence::new(atom(1, [cst(3)])).unwrap(),
            Sentence::new(not(atom(2, [cst(1), cst(2)]))).unwrap(),
            Sentence::new(or(
                and(atom(1, [cst(1)]), not(atom(1, [cst(2)]))),
                atom(2, [cst(2), cst(2)]),
            ))
            .unwrap(),
            Sentence::new(implies(atom(1, [cst(1)]), atom(3, [cst(1)]))).unwrap(),
            Sentence::new(iff(atom(1, [cst(1)]), atom(1, [cst(2)]))).unwrap(),
        ];
        let opts = EvalOptions::default();
        for phi in sentences {
            let mut expected = exhaustive_update(&phi, &db, &opts).unwrap().databases;
            let mut got = quantifier_free_update(&phi, &db, &opts).unwrap().databases;
            expected.sort();
            got.sort();
            assert_eq!(expected, got, "mismatch on {phi}");
        }
    }

    #[test]
    fn data_complexity_is_independent_of_database_size() {
        // the candidate-atom count reported equals the number of atoms in φ,
        // not the size of the database.
        let mut b = DatabaseBuilder::new();
        for i in 0..50u32 {
            b = b.fact(r(1), [i]);
        }
        let db = b.build().unwrap();
        let phi = Sentence::new(or(atom(1, [cst(100)]), atom(1, [cst(101)]))).unwrap();
        let out = quantifier_free_update(&phi, &db, &EvalOptions::default()).unwrap();
        assert_eq!(out.candidate_atoms, 2);
        assert_eq!(out.databases.len(), 2);
        for d in &out.databases {
            assert_eq!(d.fact_count(), 51);
        }
    }

    #[test]
    fn large_databases_do_not_hit_the_universe_ceiling() {
        // 600 constants over a binary relation would be a 360k-atom
        // universe; the quantifier-free path must not materialise it.
        let mut b = DatabaseBuilder::new();
        for i in 0..300u32 {
            b = b.fact(r(1), [2 * i, 2 * i + 1]);
        }
        let db = b.build().unwrap();
        let phi = Sentence::new(atom(1, [cst(5000), cst(5001)])).unwrap();
        let out = quantifier_free_update(&phi, &db, &EvalOptions::default()).unwrap();
        assert_eq!(out.databases.len(), 1);
        assert_eq!(out.databases[0].fact_count(), 301);
    }

    #[test]
    fn adversarially_wide_sentences_hit_the_assignment_budget() {
        // 2^k assignments for a k-atom sentence must be bounded by the
        // ground-atom ceiling instead of hanging (or overflowing the shift).
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let mut wide = atom(1, [cst(0)]);
        for i in 1..40u32 {
            wide = or(wide, atom(1, [cst(i)]));
        }
        let phi = Sentence::new(wide).unwrap();
        assert!(matches!(
            quantifier_free_update(&phi, &db, &EvalOptions::default()),
            Err(CoreError::UniverseTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_non_ground_sentences() {
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let phi = Sentence::new(exists([1], atom(1, [var(1)]))).unwrap();
        assert!(matches!(
            quantifier_free_update(&phi, &db, &EvalOptions::default()),
            Err(CoreError::StrategyNotApplicable { .. })
        ));
    }

    #[test]
    fn contradiction_yields_empty_result() {
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let phi = Sentence::new(and(atom(1, [cst(2)]), not(atom(1, [cst(2)])))).unwrap();
        let out = quantifier_free_update(&phi, &db, &EvalOptions::default()).unwrap();
        assert!(out.databases.is_empty());
    }
}
