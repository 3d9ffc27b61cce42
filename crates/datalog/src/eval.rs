//! Bottom-up least-fixpoint evaluation, backed by the indexed engine.
//!
//! Inserting a Datalog program into an extensional database produces the
//! program's unique least fixpoint (the remark before the contributions list
//! in Section 1, made precise by Theorem 4.8).  [`semi_naive_eval_viewed`]
//! computes it by handing the program to the engine's one evaluator —
//! delta-aware
//! semi-naive rounds over hash-indexed storage — optionally observed
//! through a [`View`] (`EXPLAIN` / `PROFILE`); [`semi_naive_eval_threads`]
//! and [`semi_naive_eval`] are that same call with nothing recorded.
//!
//! The original nested-loop evaluators are preserved unchanged in
//! [`crate::reference`] as independent oracles; the differential tests
//! assert byte-identical fixpoints between the engine and both of them.

use kbt_data::{Database, RelId};
use kbt_engine::View;

use crate::{Program, Result};

/// Statistics reported by the evaluators: the engine's own counters
/// ([`kbt_engine::EngineStats`]), under the name `kbt-core`'s update
/// outcomes and the benchmark harness use.
///
/// The engine-backed evaluators and the reference oracle populate
/// `iterations`, `derived_facts` and `tuples_scanned` the same way:
/// iterations count every round including the final empty one (a program
/// with no rules runs none), derived facts count first-time insertions
/// into intensional relations.  `index_probes` is only nonzero
/// for the engine-backed paths — the reference oracle never probes an
/// index — and `reused_facts` / `rederived_facts` only for incremental
/// deltas.
pub use kbt_engine::EngineStats as EvalStats;

/// Computes the least fixpoint of `program` over `edb` using delta-indexed
/// semi-naive evaluation (only facts that are new in the previous round are
/// re-joined, through hash-index probes), at the process-default width.
pub fn semi_naive_eval(program: &Program, edb: &Database) -> Result<(Database, EvalStats)> {
    semi_naive_eval_threads(program, edb, 0)
}

/// [`semi_naive_eval`] at an explicit evaluation width (`0` = process
/// default, `1` = every round on the calling thread; results and
/// statistics are identical at every width — the engine's parallel rounds
/// merge private task buffers deterministically).
pub fn semi_naive_eval_threads(
    program: &Program,
    edb: &Database,
    threads: usize,
) -> Result<(Database, EvalStats)> {
    semi_naive_eval_viewed(program, edb, threads, None, None)
}

/// [`semi_naive_eval_threads`] observed through `view` (see
/// [`kbt_engine::profile`]): a profiling view yields the identical
/// fixpoint and statistics plus one [`kbt_engine::RuleProfile`] per rule,
/// its text rendered through the view's namer; a plan-only view yields the
/// same rows with the join plans only and evaluates nothing (the returned
/// database is `edb` with the program's relations declared).  `keep` restricts
/// the returned database to the kept relations (see [`kbt_engine::evaluate`]).
pub fn semi_naive_eval_viewed(
    program: &Program,
    edb: &Database,
    threads: usize,
    view: Option<&mut View<'_>>,
    keep: Option<&[RelId]>,
) -> Result<(Database, EvalStats)> {
    Ok(kbt_engine::evaluate(program, edb, threads, view, keep)?)
}

/// A persistent incremental evaluation of one Datalog program: the
/// [`kbt_engine::IncrementalSession`] behind it, with this crate's errors.
///
/// Built once from a program and an extensional database (paying one full
/// fixpoint), it then accepts fact deltas and keeps the engine's indexed
/// storage — tuples and hash indexes — alive across them.
/// [`IncrementalEval::current`] is always byte-identical to
/// [`semi_naive_eval`] over the mutated database.  See the engine crate
/// docs for the lifecycle.
#[derive(Clone, Debug)]
pub struct IncrementalEval {
    session: kbt_engine::IncrementalSession,
}

impl IncrementalEval {
    /// Evaluates `program` over `edb` to seed the session
    /// (at the process-default evaluation width).
    pub fn new(program: &Program, edb: &Database) -> Result<Self> {
        IncrementalEval::with_threads(program, edb, 0)
    }

    /// [`Self::new`] at an explicit evaluation width (`0` = process
    /// default, `1` = every round on the calling thread).  Fixpoints and
    /// statistics are identical at every width.
    pub fn with_threads(program: &Program, edb: &Database, threads: usize) -> Result<Self> {
        Ok(IncrementalEval {
            session: kbt_engine::IncrementalSession::with_threads(program, edb, threads)?,
        })
    }

    /// Adopts `fixpoint` as the session's state for `program`
    /// without evaluating it: `fixpoint` must be the least fixpoint of
    /// `program` over its relations other than the program's heads (see
    /// [`kbt_engine::IncrementalSession::from_fixpoint`]).
    pub fn from_fixpoint(program: &Program, fixpoint: &Database, threads: usize) -> Result<Self> {
        Ok(IncrementalEval {
            session: kbt_engine::IncrementalSession::from_fixpoint(program, fixpoint, threads)?,
        })
    }

    /// Statistics of the initial from-scratch evaluation plus every delta
    /// applied since.
    pub fn total_stats(&self) -> EvalStats {
        *self.session.stats()
    }

    /// Applies one delta (deletions retracted before insertions are added)
    /// and restores the least fixpoint; returns this call's statistics.
    ///
    /// Deltas may only touch extensional relations.  A delta is checked
    /// whole before any of it is applied: on error the session is unchanged.
    pub fn apply_delta(
        &mut self,
        insertions: &[(kbt_data::RelId, kbt_data::Tuple)],
        deletions: &[(kbt_data::RelId, kbt_data::Tuple)],
    ) -> Result<EvalStats> {
        Ok(self.session.apply_delta(insertions, deletions)?)
    }

    /// Inserts extensional facts and propagates them.
    pub fn insert_facts(
        &mut self,
        facts: &[(kbt_data::RelId, kbt_data::Tuple)],
    ) -> Result<EvalStats> {
        self.apply_delta(facts, &[])
    }

    /// Removes extensional facts, retracting dependent derivations.
    pub fn remove_facts(
        &mut self,
        facts: &[(kbt_data::RelId, kbt_data::Tuple)],
    ) -> Result<EvalStats> {
        self.apply_delta(&[], facts)
    }

    /// The maintained fixpoint as a plain database.
    pub fn current(&self) -> Database {
        self.session.current()
    }

    /// Materialises one maintained relation (`None` if the session has never
    /// seen it) — cheaper than [`Self::current`] when the caller assembles
    /// its result from a known schema.  The returned relation is a
    /// snapshot later deltas never disturb; a call pays one merge of what
    /// the deltas since the previous call changed, an `O(1)` `Arc` clone if
    /// nothing did.
    pub fn relation(&mut self, rel: kbt_data::RelId) -> Option<kbt_data::Relation> {
        self.session.snapshot_relation(rel)
    }
}

/// Returns only the intensional part of the fixpoint as a database (useful
/// when the caller wants the "answer" relations without the EDB).
pub fn idb_only(program: &Program, fixpoint: &Database) -> Database {
    let idb: Vec<kbt_data::RelId> = program.idb_relations().into_iter().collect();
    fixpoint.project(&idb)
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
        let (fix, stats) = semi_naive_eval(&tc_program(), &edb).unwrap();
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
            let (semi, _) = semi_naive_eval(&tc_program(), &edb).unwrap();
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
        let (fix, _) = semi_naive_eval(&p, &edb).unwrap();
        assert!(fix.holds(r(3), &kbt_data::tuple![2]));
        assert!(!fix.holds(r(3), &kbt_data::tuple![3]));
        assert!(fix.holds(r(4), &kbt_data::tuple![7]));
    }

    #[test]
    fn incremental_eval_tracks_semi_naive_across_deltas() {
        let program = tc_program();
        let mut edb = chain_db(8);
        let mut inc = IncrementalEval::new(&program, &edb).unwrap();
        assert_eq!(inc.current(), semi_naive_eval(&program, &edb).unwrap().0);

        let stats = inc.insert_facts(&[(r(1), kbt_data::tuple![8, 9])]).unwrap();
        edb.insert_fact(r(1), kbt_data::tuple![8, 9]).unwrap();
        assert_eq!(inc.current(), semi_naive_eval(&program, &edb).unwrap().0);
        assert!(stats.reused_facts > 0);

        let stats = inc.remove_facts(&[(r(1), kbt_data::tuple![4, 5])]).unwrap();
        edb.remove_fact(r(1), &kbt_data::tuple![4, 5]);
        assert_eq!(inc.current(), semi_naive_eval(&program, &edb).unwrap().0);
        assert!(stats.reused_facts > 0);
        assert!(inc.total_stats().derived_facts > 0);
    }

    #[test]
    fn idb_only_projects_away_the_edb() {
        let edb = chain_db(3);
        let (fix, _) = semi_naive_eval(&tc_program(), &edb).unwrap();
        let idb = idb_only(&tc_program(), &fix);
        assert!(idb.relation(r(1)).is_none());
        assert!(idb.relation(r(2)).is_some());
    }

    #[test]
    fn empty_edb_relation_yields_empty_idb() {
        let edb = DatabaseBuilder::new().relation(r(1), 2).build().unwrap();
        let (fix, stats) = semi_naive_eval(&tc_program(), &edb).unwrap();
        assert!(fix.relation(r(2)).unwrap().is_empty());
        assert_eq!(stats.derived_facts, 0);
    }
}
