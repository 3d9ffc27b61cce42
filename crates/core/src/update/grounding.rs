//! The SAT-based evaluator: grounding plus two-stage minimal-model
//! enumeration.
//!
//! The Winslett order is lexicographic: first minimise (by componentwise set
//! inclusion) the symmetric difference with the input database on the
//! relations of `σ(db)`, then — among candidates with the *same* difference —
//! minimise the content of the freshly introduced relations.  After grounding
//! `φ` over the finite domain `B`, both stages become subset-minimal model
//! enumeration over propositional variables:
//!
//! 1. introduce a *flip* variable per old candidate fact, constrained to be
//!    true exactly when the candidate's truth value differs from the input
//!    database, and enumerate the ⊆-minimal satisfiable flip-sets;
//! 2. for each minimal flip-set (which pins down the old relations exactly),
//!    enumerate the ⊆-minimal assignments to the new-relation facts.
//!
//! Every pair (minimal flip-set, minimal new-part) is a Winslett-minimal
//! model, and every Winslett-minimal model arises this way.
//!
//! `EvalOptions::max_worlds` bounds the enumeration itself, not just its
//! answer: distinct flip-sets give distinct worlds and each has at least one
//! new-part, so stage 1 is asked for at most `max_worlds + 1` flip-sets and
//! each stage-2 call for at most as many new-parts as are still missing to
//! exceed the budget.  A sentence with exponentially many minimal models
//! under a small budget is refused after `max_worlds + 1` of them.

use kbt_data::Database;
use kbt_logic::{GroundFormula, Sentence};
use kbt_solver::{enumerate_minimal_models, Bool, BoolVar, Cnf, Lit, Solver};

use crate::error::CoreError;
use crate::options::EvalOptions;
use crate::update::universe::UpdateContext;
use crate::update::UpdateOutcome;
use crate::Result;

/// Computes `µ(φ, db)` via grounding and SAT-based minimal-model enumeration.
pub fn grounding_update(
    phi: &Sentence,
    db: &Database,
    options: &EvalOptions,
) -> Result<UpdateOutcome> {
    // The lazy universe: only atoms `ground(φ)` mentions become SAT
    // variables — unmentioned facts cannot change in a Winslett-minimal
    // model and carry over from the input database when results are
    // materialised.  Large databases with
    // small-footprint sentences thus stop paying the `Σ_R |B|^arity`
    // ceiling; see `universe` for the soundness argument.
    let (ctx, ground) = UpdateContext::grounded(phi, db, options)?;
    let n = ctx.atom_count();

    // Variables 0..n are the candidate facts; flip variables follow.
    let circuit = to_circuit(&ground, &ctx);

    let mut cnf = Cnf::new(n as u32);
    kbt_solver::tseitin::assert_circuit(&circuit, &mut cnf);
    let mut solver = Solver::from_cnf(&cnf);
    // the solver must know about every candidate-fact variable even if the
    // sentence does not mention it (it may still be flipped / minimised).
    while solver.num_vars() < n {
        solver.new_var();
    }

    // Flip variables for old facts: flip ↔ (fact XOR stored-value).
    let old_atoms: Vec<usize> = (0..n).filter(|&i| ctx.is_old_atom(i)).collect();
    let new_atoms: Vec<usize> = (0..n).filter(|&i| !ctx.is_old_atom(i)).collect();
    let mut flip_var_of = vec![None::<BoolVar>; n];
    for &i in &old_atoms {
        let flip = solver.new_var();
        let fact = BoolVar::new(i as u32);
        if ctx.holds_in_input(i) {
            // stored: flip ↔ ¬fact
            solver.add_clause(&[flip.positive(), fact.positive()]);
            solver.add_clause(&[flip.negative(), fact.negative()]);
        } else {
            // not stored: flip ↔ fact
            solver.add_clause(&[flip.positive(), fact.negative()]);
            solver.add_clause(&[flip.negative(), fact.positive()]);
        }
        flip_var_of[i] = Some(flip);
    }
    let flip_vars: Vec<BoolVar> = old_atoms
        .iter()
        .map(|&i| flip_var_of[i].expect("assigned above"))
        .collect();
    let new_vars: Vec<BoolVar> = new_atoms.iter().map(|&i| BoolVar::new(i as u32)).collect();

    // Stage 1: minimal flip-sets — one more than the budget is enough to
    // know it is exceeded (see the module docs).
    let over_budget = options.max_worlds.saturating_add(1);
    let minimal_flip_sets = enumerate_minimal_models(&solver, &flip_vars, &[], Some(over_budget));

    // Stage 2: per flip-set, minimal new-relation contents.  The world
    // limit is enforced against the *deduplicated* set: duplicate databases
    // (however they arise) must not count toward `max_worlds`, and the
    // error reports the number of distinct worlds actually found.
    let mut result: std::collections::BTreeSet<Database> = std::collections::BTreeSet::new();
    for flips in &minimal_flip_sets {
        let mut assumptions: Vec<Lit> = Vec::with_capacity(flip_vars.len());
        for (&atom_idx, &fv) in old_atoms.iter().zip(&flip_vars) {
            let flipped = flips.contains(&fv);
            // value of the old fact = stored XOR flipped
            let value = ctx.holds_in_input(atom_idx) ^ flipped;
            assumptions.push(Lit::new(BoolVar::new(atom_idx as u32), value));
        }
        let missing = over_budget - result.len();
        let minimal_new = enumerate_minimal_models(&solver, &new_vars, &assumptions, Some(missing));
        for new_set in &minimal_new {
            let database = ctx.database_from(|i| {
                if ctx.is_old_atom(i) {
                    let fv = flip_var_of[i].expect("old atoms have flip vars");
                    ctx.holds_in_input(i) ^ flips.contains(&fv)
                } else {
                    new_set.contains(&BoolVar::new(i as u32))
                }
            });
            if result.insert(database) && result.len() > options.max_worlds {
                return Err(CoreError::TooManyWorlds {
                    worlds: result.len(),
                    limit: options.max_worlds,
                });
            }
        }
    }
    Ok(UpdateOutcome {
        databases: result.into_iter().collect(),
        candidate_atoms: n,
        fixpoint: None,
    })
}

/// Maps a grounded formula to a Boolean circuit over the candidate-fact
/// variables of the universe.
fn to_circuit(g: &GroundFormula, ctx: &UpdateContext) -> Bool {
    match g {
        GroundFormula::True => Bool::True,
        GroundFormula::False => Bool::False,
        GroundFormula::Atom(a) => {
            let idx = *ctx
                .atom_index
                .get(a)
                .expect("every ground atom of φ lies in the candidate universe");
            Bool::Var(BoolVar::new(idx as u32))
        }
        GroundFormula::Not(inner) => to_circuit(inner, ctx).negate(),
        GroundFormula::And(parts) => Bool::and(parts.iter().map(|p| to_circuit(p, ctx)).collect()),
        GroundFormula::Or(parts) => Bool::or(parts.iter().map(|p| to_circuit(p, ctx)).collect()),
    }
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

    fn assert_same_as_exhaustive(phi: &Sentence, db: &Database) {
        let opts = EvalOptions::default();
        let mut expected = exhaustive_update(phi, db, &opts).unwrap().databases;
        let mut got = grounding_update(phi, db, &opts).unwrap().databases;
        expected.sort();
        got.sort();
        assert_eq!(
            expected, got,
            "grounding disagrees with exhaustive for {phi}"
        );
    }

    #[test]
    fn matches_exhaustive_on_ground_updates() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32])
            .fact(r(1), [2u32])
            .build()
            .unwrap();
        for phi in [
            Sentence::new(atom(1, [cst(3)])).unwrap(),
            Sentence::new(not(atom(1, [cst(1)]))).unwrap(),
            Sentence::new(or(atom(1, [cst(3)]), not(atom(1, [cst(2)])))).unwrap(),
            Sentence::new(and(atom(1, [cst(1)]), not(atom(1, [cst(1)])))).unwrap(),
            Sentence::new(iff(atom(1, [cst(1)]), atom(1, [cst(3)]))).unwrap(),
        ] {
            assert_same_as_exhaustive(&phi, &db);
        }
    }

    #[test]
    fn matches_exhaustive_on_quantified_updates() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 1])
            .build()
            .unwrap();
        for phi in [
            // make R1 symmetric (already true → no change)
            Sentence::new(forall(
                [1, 2],
                implies(atom(1, [var(1), var(2)]), atom(1, [var(2), var(1)])),
            ))
            .unwrap(),
            // make R1 irreflexive and total on the diagonal — forces changes
            Sentence::new(forall([1], not(atom(1, [var(1), var(1)])))).unwrap(),
            // introduce a fresh unary relation listing sources
            Sentence::new(forall(
                [1, 2],
                implies(atom(1, [var(1), var(2)]), atom(2, [var(1)])),
            ))
            .unwrap(),
            // existential: some self-loop must exist
            Sentence::new(exists([1], atom(1, [var(1), var(1)]))).unwrap(),
        ] {
            assert_same_as_exhaustive(&phi, &db);
        }
    }

    #[test]
    fn matches_exhaustive_when_old_and_new_relations_interact() {
        // R2 fresh, but satisfying φ may also be achieved by shrinking R1:
        // ∀x (R1(x,x) → R2(x)) ∧ ¬R2(a1): either delete R1(1,1) or ... the
        // minimal change keeps R1 and is forced to violate — exercise the
        // flip stage.
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 1])
            .fact(r(1), [2u32, 2])
            .build()
            .unwrap();
        let phi = Sentence::new(and(
            forall([1], implies(atom(1, [var(1), var(1)]), atom(2, [var(1)]))),
            not(atom(2, [cst(1)])),
        ))
        .unwrap();
        assert_same_as_exhaustive(&phi, &db);
    }

    #[test]
    fn empty_database_and_zero_ary_relations() {
        // db empty over R3 (zero-ary); insert R3 ∨ ¬R3 and R3 itself.
        let db = DatabaseBuilder::new().relation(r(3), 0).build().unwrap();
        let taut = Sentence::new(or(atom(3, []), not(atom(3, [])))).unwrap();
        assert_same_as_exhaustive(&taut, &db);
        let force = Sentence::new(atom(3, [])).unwrap();
        assert_same_as_exhaustive(&force, &db);
    }

    #[test]
    fn world_limit_counts_distinct_worlds_only() {
        // (R1(3) ∨ R1(4)) into {R1(1)} has exactly two distinct minimal
        // models; a limit of exactly 2 must succeed (regression: the limit
        // used to be checked against the pre-dedup result vector, so any
        // duplicate database produced along the way counted toward it), and
        // a limit of 1 must fail reporting the true distinct count found.
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let phi = Sentence::new(or(atom(1, [cst(3)]), atom(1, [cst(4)]))).unwrap();

        let fits = EvalOptions {
            max_worlds: 2,
            ..EvalOptions::default()
        };
        let out = grounding_update(&phi, &db, &fits).unwrap();
        assert_eq!(out.databases.len(), 2);
        // results stay sorted and duplicate-free
        let mut sorted = out.databases.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, out.databases);

        let too_small = EvalOptions {
            max_worlds: 1,
            ..EvalOptions::default()
        };
        match grounding_update(&phi, &db, &too_small) {
            Err(crate::error::CoreError::TooManyWorlds { worlds, limit }) => {
                assert_eq!(limit, 1);
                assert_eq!(worlds, 2, "the error must report distinct worlds");
            }
            other => panic!("expected TooManyWorlds, got {other:?}"),
        }
    }

    #[test]
    fn large_databases_no_longer_pay_the_eager_universe_ceiling() {
        // 600 constants over a binary relation: the eager universe would be
        // 600² + … ≈ 360 000 candidate facts > the default 200 000 ceiling
        // (UpdateContext::new refuses).  The lazy SAT path only sees the two
        // atoms φ mentions and must agree with the quantifier-free fast
        // path on the result.
        let mut b = DatabaseBuilder::new();
        for i in 1..=300u32 {
            b = b.fact(r(1), [2 * i - 1, 2 * i]);
        }
        let db = b.build().unwrap();
        let phi = Sentence::new(or(
            atom(1, [cst(1), cst(4)]),
            not(atom(1, [cst(1), cst(2)])),
        ))
        .unwrap();
        let opts = EvalOptions::default();
        assert!(matches!(
            UpdateContext::new(&phi, &db, &opts),
            Err(crate::error::CoreError::UniverseTooLarge { .. })
        ));

        let out = grounding_update(&phi, &db, &opts).unwrap();
        assert_eq!(out.candidate_atoms, 2, "only mentioned atoms are variables");
        let mut got = out.databases;
        let mut want = crate::update::quantifier_free::quantifier_free_update(&phi, &db, &opts)
            .unwrap()
            .databases;
        got.sort();
        want.sort();
        assert_eq!(got, want);
        // unmentioned stored facts carry over verbatim in every world
        for world in &got {
            assert!(world.holds(r(1), &kbt_data::tuple![599, 600]));
        }
    }

    #[test]
    fn deep_quantification_over_large_domains_refuses_before_grounding() {
        // ∀x,y,z over 600 constants would materialise ~600³ grounded nodes;
        // the arithmetic pre-grounding budget must refuse immediately (the
        // eager path refused too — via the universe bound), not OOM.
        let mut b = DatabaseBuilder::new();
        for i in 1..=300u32 {
            b = b.fact(r(1), [2 * i - 1, 2 * i]);
        }
        let db = b.build().unwrap();
        let phi = Sentence::new(forall(
            [1, 2, 3],
            implies(
                and(atom(1, [var(1), var(2)]), atom(1, [var(2), var(3)])),
                atom(1, [var(1), var(3)]),
            ),
        ))
        .unwrap();
        assert!(matches!(
            grounding_update(&phi, &db, &EvalOptions::default()),
            Err(crate::error::CoreError::UniverseTooLarge { .. })
        ));
    }

    #[test]
    fn lazy_ceiling_bounds_mentioned_atoms() {
        // ∀x,y R1(x,y) over 40 constants mentions 1 600 atoms; a ceiling of
        // 1 000 passes the (8×) pre-grounding budget but must be rejected by
        // the mentioned-atom check, reporting the mentioned-atom count.
        let mut b = DatabaseBuilder::new();
        for i in 1..=20u32 {
            b = b.fact(r(1), [2 * i - 1, 2 * i]);
        }
        let db = b.build().unwrap();
        let phi = Sentence::new(forall([1, 2], atom(1, [var(1), var(2)]))).unwrap();
        let tight = EvalOptions {
            max_ground_atoms: 1_000,
            ..EvalOptions::default()
        };
        match grounding_update(&phi, &db, &tight) {
            Err(crate::error::CoreError::UniverseTooLarge { atoms, limit }) => {
                assert_eq!(limit, 1_000);
                assert_eq!(atoms, 40 * 40);
            }
            other => panic!("expected UniverseTooLarge, got {other:?}"),
        }

        // a still-tighter ceiling is caught arithmetically before grounding
        let tighter = EvalOptions {
            max_ground_atoms: 100,
            ..EvalOptions::default()
        };
        match grounding_update(&phi, &db, &tighter) {
            Err(crate::error::CoreError::UniverseTooLarge { atoms, limit }) => {
                assert_eq!(limit, 800, "8× the ceiling guards grounding itself");
                assert!(atoms >= 40 * 40);
            }
            other => panic!("expected UniverseTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn transitive_closure_example_1_of_section_3() {
        // Example 1: ?2 τ_φ([(r)]) is the transitive closure of r.
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .fact(r(1), [3u32, 4])
            .build()
            .unwrap();
        let phi = Sentence::new(forall(
            [1, 2, 3],
            implies(
                or(
                    and(atom(2, [var(1), var(2)]), atom(1, [var(2), var(3)])),
                    atom(1, [var(1), var(3)]),
                ),
                atom(2, [var(1), var(3)]),
            ),
        ))
        .unwrap();
        let out = grounding_update(&phi, &db, &EvalOptions::default()).unwrap();
        assert_eq!(out.databases.len(), 1);
        let result = &out.databases[0];
        // R1 unchanged
        assert_eq!(result.relation(r(1)).unwrap().len(), 3);
        // R2 = transitive closure of the 4-chain: 6 pairs
        let r2 = result.relation(r(2)).unwrap();
        assert_eq!(r2.len(), 6);
        assert!(result.holds(r(2), &kbt_data::tuple![1, 4]));
        assert!(!result.holds(r(2), &kbt_data::tuple![4, 1]));
    }
}
