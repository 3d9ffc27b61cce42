//! The reference evaluator: literal enumeration of definition (9).
//!
//! Every subset of the candidate-fact universe is materialised as a database,
//! the models of `φ` among them are collected, and the Winslett-minimal ones
//! are returned.  Exponential in the size of the universe — usable only for
//! tiny instances, which is exactly its purpose: it is the ground truth the
//! optimised evaluators are tested against.

use kbt_data::{minimal_elements, Database};
use kbt_logic::{satisfies_with_domain, Sentence};

use crate::error::CoreError;
use crate::options::EvalOptions;
use crate::update::universe::UpdateContext;
use crate::update::UpdateOutcome;
use crate::Result;

/// Maximum universe size the exhaustive evaluator accepts (2^22 candidate
/// databases is already ~4 million model checks).
const MAX_EXHAUSTIVE_ATOMS: usize = 22;

/// Computes `µ(φ, db)` by brute force.
pub fn exhaustive_update(
    phi: &Sentence,
    db: &Database,
    options: &EvalOptions,
) -> Result<UpdateOutcome> {
    let ctx = UpdateContext::new(phi, db, options)?;
    let n = ctx.atom_count();
    if n > MAX_EXHAUSTIVE_ATOMS {
        return Err(CoreError::StrategyNotApplicable {
            strategy: "Exhaustive",
            reason: format!(
                "the candidate universe has {n} facts, above the exhaustive ceiling of {MAX_EXHAUSTIVE_ATOMS}"
            ),
        });
    }

    let mut models: Vec<Database> = Vec::new();
    for bits in 0..(1u64 << n) {
        let candidate = ctx.database_from(|i| bits & (1 << i) != 0);
        if satisfies_with_domain(&candidate, phi, &ctx.domain)? {
            models.push(candidate);
        }
    }
    let minimal = minimal_elements(&models, db)?;
    Ok(UpdateOutcome {
        databases: minimal,
        candidate_atoms: n,
        fixpoint: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{DatabaseBuilder, Knowledgebase, RelId};
    use kbt_logic::builder::*;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn space_example_from_section_two() {
        // kb = {({v}), ({w})} over R1; inserting R1(v) must produce
        // {({v}), ({v, w})}  (the paper's worked computation in Section 2).
        // Here v = a1 and w = a2.
        let db_v = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let db_w = DatabaseBuilder::new().fact(r(1), [2u32]).build().unwrap();
        let phi = Sentence::new(atom(1, [cst(1)])).unwrap();

        let out_v = exhaustive_update(&phi, &db_v, &EvalOptions::default()).unwrap();
        assert_eq!(out_v.databases, vec![db_v.clone()]);

        let out_w = exhaustive_update(&phi, &db_w, &EvalOptions::default()).unwrap();
        assert_eq!(out_w.databases.len(), 1);
        let expected = DatabaseBuilder::new()
            .fact(r(1), [1u32])
            .fact(r(1), [2u32])
            .build()
            .unwrap();
        assert_eq!(out_w.databases[0], expected);

        // whole-knowledgebase view
        let kb = Knowledgebase::from_databases([db_v.clone(), db_w]).unwrap();
        let union: Vec<Database> = kb
            .iter()
            .flat_map(|d| {
                exhaustive_update(&phi, d, &EvalOptions::default())
                    .unwrap()
                    .databases
            })
            .collect();
        let result = Knowledgebase::from_databases(union).unwrap();
        assert_eq!(result.len(), 2);
        assert!(result.contains(&db_v));
        assert!(result.contains(&expected));
    }

    #[test]
    fn deleting_a_fact_via_negation() {
        // "delete flight AC902" (Example 1.2): insert the negation of the fact.
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [1u32, 3])
            .build()
            .unwrap();
        let phi = Sentence::new(not(atom(1, [cst(1), cst(2)]))).unwrap();
        let out = exhaustive_update(&phi, &db, &EvalOptions::default()).unwrap();
        assert_eq!(out.databases.len(), 1);
        assert!(!out.databases[0].holds(r(1), &kbt_data::tuple![1, 2]));
        assert!(out.databases[0].holds(r(1), &kbt_data::tuple![1, 3]));
    }

    #[test]
    fn disjunctive_insertion_produces_two_worlds() {
        // inserting R1(a3) ∨ R1(a4) into {R1 = {a1}} gives two minimal models.
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let phi = Sentence::new(or(atom(1, [cst(3)]), atom(1, [cst(4)]))).unwrap();
        let out = exhaustive_update(&phi, &db, &EvalOptions::default()).unwrap();
        assert_eq!(out.databases.len(), 2);
        for d in &out.databases {
            assert!(d.holds(r(1), &kbt_data::tuple![1]));
            assert_eq!(d.fact_count(), 2);
        }
    }

    #[test]
    fn unsatisfiable_sentence_yields_empty_result() {
        let db = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        let phi = Sentence::new(and(atom(1, [cst(1)]), not(atom(1, [cst(1)])))).unwrap();
        let out = exhaustive_update(&phi, &db, &EvalOptions::default()).unwrap();
        assert!(out.databases.is_empty());
    }

    #[test]
    fn refuses_oversized_universes() {
        let mut b = DatabaseBuilder::new();
        for i in 0..6u32 {
            b = b.fact(r(1), [i, i + 1]);
        }
        let db = b.build().unwrap();
        let phi = Sentence::new(forall(
            [1, 2],
            implies(atom(1, [var(1), var(2)]), atom(2, [var(1), var(2)])),
        ))
        .unwrap();
        assert!(matches!(
            exhaustive_update(&phi, &db, &EvalOptions::default()),
            Err(CoreError::StrategyNotApplicable { .. })
        ));
    }
}
