//! Bottom-up least-fixpoint evaluation is the engine's: this module keeps
//! one name for it.
//!
//! Inserting a Datalog program into an extensional database produces the
//! program's unique least fixpoint (the remark before the contributions list
//! in Section 1, made precise by Theorem 4.8).  [`kbt_engine::evaluate`]
//! computes it — delta-aware semi-naive rounds over hash-indexed storage,
//! optionally observed through a [`kbt_engine::View`] — and
//! [`kbt_engine::IncrementalSession`] maintains it across fact deltas;
//! callers use both directly.  [`semi_naive_eval_threads`] is `evaluate`
//! with nothing observed and nothing dropped, under the name the end-to-end
//! benchmark and the allocation gate call.
//!
//! The original nested-loop evaluators are preserved unchanged in
//! [`crate::reference`] as independent oracles; the differential tests
//! assert byte-identical fixpoints between the engine and both of them.

use kbt_data::Database;
use kbt_engine::{EngineError, EngineStats};

use crate::Program;

/// Computes the least fixpoint of `program` over `edb` at an explicit
/// evaluation width (`0` = process default, `1` = every round on the
/// calling thread; results and statistics are identical at every width —
/// the engine's parallel rounds merge private task buffers
/// deterministically).  This is [`kbt_engine::evaluate`] with no view and
/// every relation kept.
pub fn semi_naive_eval_threads(
    program: &Program,
    edb: &Database,
    threads: usize,
) -> Result<(Database, EngineStats), EngineError> {
    kbt_engine::evaluate(program, edb, threads, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{reference_naive_eval, reference_semi_naive_eval};
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::{cst, var};
    use kbt_logic::{Atom, Rule};

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn tc_program() -> Program {
        let edge = |a, b| Atom::new(r(1), vec![a, b]);
        let path = |a, b| Atom::new(r(2), vec![a, b]);
        Program::new(vec![
            Rule::new(path(var(1), var(2)), vec![edge(var(1), var(2))]),
            Rule::new(
                path(var(1), var(3)),
                vec![path(var(1), var(2)), edge(var(2), var(3))],
            ),
        ])
        .unwrap()
    }

    fn chain_db(n: u32) -> Database {
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for i in 1..n {
            b = b.fact(r(1), [i, i + 1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let edb = chain_db(5);
        let (fix, stats) = semi_naive_eval_threads(&tc_program(), &edb, 1).unwrap();
        // closure of a 5-chain has n*(n-1)/2 = 10 pairs
        assert_eq!(fix.relation(r(2)).unwrap().len(), 10);
        assert!(fix.holds(r(2), &kbt_data::tuple![1, 5]));
        assert!(!fix.holds(r(2), &kbt_data::tuple![5, 1]));
        // EDB is preserved
        assert_eq!(fix.relation(r(1)).unwrap().len(), 4);
        assert!(stats.derived_facts >= 10);
    }

    #[test]
    fn engine_matches_both_reference_oracles_byte_for_byte() {
        for n in 2..10 {
            let edb = chain_db(n);
            let (oracle, _) = reference_naive_eval(&tc_program(), &edb).unwrap();
            let (oracle_semi, _) = reference_semi_naive_eval(&tc_program(), &edb).unwrap();
            let (semi, _) = semi_naive_eval_threads(&tc_program(), &edb, 0).unwrap();
            assert_eq!(oracle, oracle_semi);
            assert_eq!(semi, oracle, "the engine diverges on chain {n}");
        }
    }

    #[test]
    fn facts_and_constants_in_rules() {
        // p(x) :- edge(1, x).   q(7).
        let p = Program::new(vec![
            Rule::new(
                Atom::new(r(3), vec![var(1)]),
                vec![Atom::new(r(1), vec![cst(1), var(1)])],
            ),
            Rule::fact(Atom::new(r(4), vec![cst(7)])),
        ])
        .unwrap();
        let edb = chain_db(4);
        let (fix, _) = semi_naive_eval_threads(&p, &edb, 1).unwrap();
        assert!(fix.holds(r(3), &kbt_data::tuple![2]));
        assert!(!fix.holds(r(3), &kbt_data::tuple![3]));
        assert!(fix.holds(r(4), &kbt_data::tuple![7]));
    }

    #[test]
    fn empty_edb_relation_yields_empty_idb() {
        let edb = DatabaseBuilder::new().relation(r(1), 2).build().unwrap();
        let (fix, stats) = semi_naive_eval_threads(&tc_program(), &edb, 1).unwrap();
        assert!(fix.relation(r(2)).unwrap().is_empty());
        assert_eq!(stats.derived_facts, 0);
    }
}
