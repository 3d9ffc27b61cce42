//! Incremental fixpoint maintenance: a persistent evaluation session that
//! carries its [`IndexStorage`] (tuples, hash indexes, join plans) across
//! fact deltas instead of re-deriving every fixpoint from a cold start.
//!
//! A transformation expression of the paper applies many sentences to
//! closely related databases: each `τ_φ` step of a `π ∘ ⊔ ∘ τ_φ` chain sees
//! the previous step's output with a small diff.  [`IncrementalSession`]
//! exploits that:
//!
//! * **Insertions** run as a continuation of semi-naive evaluation — the new
//!   extensional facts seed a delta round and only derivations touching the
//!   delta are recomputed.
//! * **Deletions** use DRed-style *overdeletion / rederivation* (the shape
//!   of micro-datalog's `dred.rs`): first every fact transitively supported
//!   by a deleted fact is overdeleted against the *old* state, then the
//!   overdeleted facts with surviving alternative derivations are restored
//!   and a final insertion-propagation sweep runs.  Rederivation is a plan
//!   like any other — `rederive_p(x̄) :- overdel_p(x̄), body` handed to the
//!   ordinary evaluator: each rule's body is planned once more with the
//!   head's slots bound on entry ([`JoinPlan::head_bound`]), and asking
//!   whether an overdeleted fact survives is unifying the head with it and
//!   running that plan through the engine's one step interpreter until the
//!   first witness.  The rederivation plans are made at the session's
//!   **first non-empty overdeletion**, with the cardinalities of that
//!   moment, and their indexes and membership tables are demanded then: a
//!   session that never deletes builds nothing for them.
//!
//! The session's initial closure runs like a one-shot evaluation: every
//! head it derives into keeps its tail's membership in sorted key levels,
//! filtered by a galloping cursor (see [`crate::index`]).  Point lookups,
//! single-row writes and removals begin with the first delta, so
//! [`IncrementalSession::apply_delta`] first switches every non-empty tail
//! the fixpoint left sorted to its chained table — once per tail, counted
//! as a build — and every later delta runs on the tables it always has.
//! Keeping a session sorted past its first delta measured ≈ 10 % slower
//! on a stream of small deltas: the overdeletion and rederivation lookups
//! then search levels instead of hashing.
//! A snapshot that lands on a new run — a fold, or a head's first —
//! re-seats its relation there (see [`crate::index`]), so the session's
//! tables are the run's, found by the readers of the epoch it publishes;
//! a re-seated tail that is not empty switches once more at the next
//! delta.
//!
//! Deltas may only touch *extensional* relations; mutating a relation the
//! program derives returns [`EngineError::IntensionalUpdate`] — intensional
//! content is owned by the fixpoint.

use std::collections::{BTreeMap, BTreeSet};

use kbt_data::{Const, DataError, Database, RelId, Relation, Tuple};

use crate::eval::{
    commit, delta_plans, demand, derives, eval_program, into_runs, relation_sizes, run_round_with,
    Bags, Deltas, RowBag,
};
use crate::index::IndexedRelation;
use crate::ir::Program;
use crate::plan::{JoinPlan, PlannedRule};
use crate::stats::EngineStats;
use crate::storage::IndexStorage;
use crate::{EngineError, Result};

/// A live fixpoint over indexed storage that accepts fact deltas.
///
/// See the [module docs](self) for the algorithm; see `kbt-engine`'s crate
/// docs for the lifecycle contract.
#[derive(Clone, Debug)]
pub struct IncrementalSession {
    /// The program as given, kept for planning rederivation.
    program: Program,
    /// The planned rules (with delta variants for *every* body occurrence,
    /// since between calls the extensional relations change too, not just
    /// the intensional ones).
    rules: Vec<PlannedRule>,
    /// One head-bound plan per rule, same order; empty until the first
    /// non-empty overdeletion (see the module docs).
    rederive: Vec<JoinPlan>,
    /// The head relations — the relations deltas must not touch.
    idb: BTreeSet<RelId>,
    /// Extensional facts the initial EDB stored *in head relations*.  They
    /// hold without needing a rule derivation, so DRed must never retract
    /// them.  Stored as plain sorted-run relations: membership is a binary
    /// search over row slices, and capturing them at session start is an
    /// `O(1)` `Arc` clone.
    protected: BTreeMap<RelId, Relation>,
    storage: IndexStorage,
    totals: EngineStats,
    /// Resolved evaluation width (see [`crate::evaluate`]);
    /// every maintenance call — initial evaluation, propagation rounds,
    /// overdeletion — runs at this width.
    width: usize,
}

impl IncrementalSession {
    /// Builds a session by fully evaluating `program` over `edb` (the same
    /// computation as [`crate::evaluate`]), at the process-default width.
    /// The statistics of this initial evaluation are available through
    /// [`Self::stats`].
    pub fn new(program: &Program, edb: &Database) -> Result<Self> {
        IncrementalSession::with_threads(program, edb, 0)
    }

    /// [`Self::new`] with an explicit thread count (`0` = process default,
    /// `1` = every round on the calling thread).  The maintained fixpoint and all
    /// statistics are identical at every width.
    pub fn with_threads(program: &Program, edb: &Database, threads: usize) -> Result<Self> {
        let metrics = crate::metrics::metrics();
        let _eval_span = metrics.eval_ns.span();
        let width = kbt_par::resolve_threads(threads);
        let mut storage = {
            let _load_span = metrics.load_ns.span();
            let mut storage = IndexStorage::from_database(edb);
            for (rel, arity) in program.relation_arities() {
                storage.ensure_relation(rel, arity)?;
            }
            storage
        };

        let (rules, stats) = eval_program(program, &mut storage, width, None, delta_eligible);
        let idb = program.idb_relations();
        // facts the EDB itself stores in head relations hold unconditionally
        let protected: BTreeMap<RelId, Relation> = (idb.iter())
            .filter_map(|&rel| {
                let base = edb.relation(rel).filter(|base| !base.is_empty())?;
                Some((rel, base.clone()))
            })
            .collect();
        metrics.evals_total.inc();
        metrics.absorb_stats(&stats);
        Ok(IncrementalSession {
            program: program.clone(),
            rules,
            rederive: Vec::new(),
            idb,
            protected,
            storage,
            totals: stats,
            width,
        })
    }

    /// Inserts extensional facts and propagates them through the fixpoint.
    pub fn insert_facts(&mut self, facts: &[(RelId, Tuple)]) -> Result<EngineStats> {
        self.apply_delta(facts, &[])
    }

    /// Removes extensional facts, retracting everything that loses its last
    /// derivation (DRed overdelete / rederive).
    pub fn remove_facts(&mut self, facts: &[(RelId, Tuple)]) -> Result<EngineStats> {
        self.apply_delta(&[], facts)
    }

    /// Applies one combined delta: `deletions` are retracted first, then
    /// `insertions` are added, and the stored fixpoint is maintained so that
    /// [`Self::current`] equals a from-scratch evaluation over the mutated
    /// extensional database.  Returns the statistics of this application
    /// only (lifetime totals accumulate in [`Self::stats`]).
    ///
    /// A delta is checked whole before any of it is applied: on error (an
    /// intensional relation touched, or an insertion whose arity conflicts
    /// with the stored relation or with another insertion of the call) the
    /// session is unchanged.
    pub fn apply_delta(
        &mut self,
        insertions: &[(RelId, Tuple)],
        deletions: &[(RelId, Tuple)],
    ) -> Result<EngineStats> {
        for (rel, _) in insertions.iter().chain(deletions) {
            if self.idb.contains(rel) {
                return Err(EngineError::IntensionalUpdate { rel: *rel });
            }
        }
        let mut new_arities: BTreeMap<RelId, usize> = BTreeMap::new();
        for (rel, t) in insertions {
            let expected = match self.storage.relation(*rel) {
                Some(stored) => stored.arity(),
                None => *new_arities.entry(*rel).or_insert(t.arity()),
            };
            if expected != t.arity() {
                return Err(DataError::ArityMismatch {
                    rel: *rel,
                    expected,
                    found: t.arity(),
                }
                .into());
            }
        }

        let metrics = crate::metrics::metrics();
        let _delta_span = metrics.delta_ns.span();
        let mut stats = EngineStats::default();
        let count_before = self.storage.fact_count();
        // point lookups, writes and removals start here: every tail the
        // fixpoint left sorted switches to its chained table now, once
        self.storage.chain_sorted_tails();

        // The deletions actually present, grouped and deduplicated.
        let mut del_actual = FactSets::new();
        for (rel, t) in deletions {
            if self.storage.holds(*rel, t) {
                set_insert(&mut del_actual, *rel, t.components());
            }
        }
        // Phase A — overdeletion, against the *old* storage (nothing has
        // been removed yet, so joins still see every deleted fact and no
        // joint deletion across body atoms can be missed).  Rounds fan out
        // over the pool exactly like fixpoint rounds: private buffers per
        // task, merged in stable order (see `eval` module docs).
        let mut round: Deltas = del_actual
            .iter()
            .map(|(&rel, set)| (rel, set.to_relation()))
            .collect();
        let mut over = del_actual;
        while !round.is_empty() {
            stats.iterations += 1;
            let plans = delta_plans(&self.rules, &round);
            let storage = &self.storage;
            let over_ref = &over;
            let protected = &self.protected;
            round = run_round_with(&plans, storage, &round, &mut stats, self.width, &|rel| {
                let stored = storage.relation(rel);
                let (over, protected) = (over_ref.get(&rel), protected.get(&rel));
                move |f: &[Const]| {
                    stored.is_some_and(|s| s.contains_row(f))
                        && !over.is_some_and(|o| o.contains_row(f))
                        && !protected.is_some_and(|p| p.contains_row(f))
                }
            });
            // the filter just kept these out of `over`, which has not
            // changed since: the bulk append's disjointness holds
            for (&rel, run) in &round {
                over.entry(rel)
                    .or_insert_with(|| IndexedRelation::new(run.arity()))
                    .append_run(run);
            }
        }

        // Phase B — retract the deleted facts and everything overdeleted.
        let mut removed = 0usize;
        for (rel, facts) in &over {
            for row in facts.iter() {
                if self.storage.remove_row(*rel, row) {
                    removed += 1;
                }
            }
        }

        // Phase C — apply the extensional insertions; `added` accumulates
        // every fact added during this call and seeds the propagation
        // delta.  Each entry is a real absent-to-present step
        // of the storage and nothing is removed from here on, so no fact
        // enters twice.
        let mut added = Bags::new();
        for (rel, arity) in new_arities {
            self.storage
                .ensure_relation(rel, arity)
                .expect("absent from storage when the delta was validated");
        }
        for (rel, t) in insertions {
            if self.storage.insert_fact(*rel, t.clone()) {
                bag(&mut added, *rel, t.arity()).push(t.components());
            }
        }

        // Phase D — rederive overdeleted facts with a surviving alternative
        // derivation, then run semi-naive insertion rounds seeded with
        // everything added so far.
        if self.rederive.is_empty() && self.idb.iter().any(|h| over.contains_key(h)) {
            let sizes = relation_sizes(&self.program, &self.storage);
            self.rederive = (self.program.rules.iter())
                .map(|rule| JoinPlan::head_bound(rule, &sizes))
                .collect();
            demand(
                self.rederive.iter().flat_map(|plan| &plan.steps),
                &mut self.storage,
            );
        }
        for rel in &self.idb {
            let Some(over_rel) = over.get(rel) else {
                continue;
            };
            for fact in over_rel.iter() {
                if self.storage.holds_row(*rel, fact) {
                    continue; // restored by an earlier rederivation
                }
                let derivable = (self.rules.iter().zip(&self.rederive))
                    .filter(|(rule, _)| rule.head.rel == *rel)
                    .any(|(rule, plan)| derives(rule, plan, fact, &self.storage, &mut stats));
                if derivable {
                    self.storage.insert_row(*rel, fact);
                    stats.rederived_facts += 1;
                    bag(&mut added, *rel, fact.len()).push(fact);
                }
            }
        }
        // a program with no rules (`τ_true`'s) runs no round
        let mut delta = if self.rules.is_empty() {
            Deltas::new()
        } else {
            into_runs(added)
        };
        while !delta.is_empty() {
            stats.iterations += 1;
            let plans = delta_plans(&self.rules, &delta);
            delta = commit(
                &plans,
                &mut self.storage,
                &delta,
                &mut stats,
                self.width,
                None,
            );
        }

        stats.reused_facts = count_before.saturating_sub(removed);
        self.totals.absorb(&stats);
        metrics.deltas_total.inc();
        metrics.absorb_stats(&stats);
        Ok(stats)
    }

    /// Materialises the maintained fixpoint as a plain database (extensional
    /// facts unchanged, intensional relations at their least fixpoint).
    pub fn current(&self) -> Database {
        self.storage.to_database()
    }

    /// Direct access to one maintained relation (`None` if the session has
    /// never seen it), letting callers materialise only the relations they
    /// need instead of paying for [`Self::current`].
    pub fn relation(&self, rel: RelId) -> Option<&IndexedRelation> {
        self.storage.relation(rel)
    }

    /// A snapshot of one maintained relation (see
    /// [`IndexedRelation::snapshot`]): one merge of what the deltas changed
    /// since the relation was last re-seated, which the fold rule keeps
    /// small — an `O(1)` `Arc` clone if nothing changed since the previous
    /// call — and never disturbed by later deltas.  The chain evaluator
    /// uses this to assemble each step's output without re-collecting the
    /// (large) intensional relations.
    pub fn snapshot_relation(&mut self, rel: RelId) -> Option<kbt_data::Relation> {
        self.storage.snapshot_relation(rel)
    }

    /// Whether the fact is in the maintained fixpoint.
    pub fn holds(&self, rel: RelId, t: &Tuple) -> bool {
        self.storage.holds(rel, t)
    }

    /// Total number of facts in the maintained fixpoint.
    pub fn fact_count(&self) -> usize {
        self.storage.fact_count()
    }

    /// Lifetime statistics: the initial evaluation plus every delta applied.
    pub fn stats(&self) -> &EngineStats {
        &self.totals
    }
}

/// The relations whose change between calls drives the delta plans: the
/// heads and, since a session's extensional relations change too, every
/// relation the bodies read.
fn delta_eligible(program: &Program) -> BTreeSet<RelId> {
    let mut eligible = program.idb_relations();
    for rule in &program.rules {
        eligible.extend(rule.body.iter().map(|atom| atom.rel));
    }
    eligible
}

/// The bag of `rel`'s rows, created on first use.
fn bag(bags: &mut Bags, rel: RelId, arity: usize) -> &mut RowBag {
    bags.entry(rel).or_insert_with(|| RowBag::new(arity))
}

/// Facts per relation with membership: DRed's deleted and overdeleted sets,
/// which the overdeletion filter looks rows up in.  (A round is never
/// *driven* by one of these — drivers are scan-only [`Deltas`].)
type FactSets = BTreeMap<RelId, IndexedRelation>;

/// Inserts a row into a fact set, creating the relation on first use;
/// returns whether the fact was new.
fn set_insert(sets: &mut FactSets, rel: RelId, row: &[Const]) -> bool {
    sets.entry(rel)
        .or_insert_with(|| IndexedRelation::new(row.len()))
        .insert_row(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::ir::{Atom, Rule, Term};
    use kbt_data::{tuple, DatabaseBuilder};

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn s(i: usize) -> Term {
        Term::Slot(i)
    }

    /// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
    fn tc_program() -> Program {
        Program::new(vec![
            Rule::new(
                Atom::new(r(2), vec![s(0), s(1)]),
                vec![Atom::new(r(1), vec![s(0), s(1)])],
            )
            .unwrap(),
            Rule::new(
                Atom::new(r(2), vec![s(0), s(2)]),
                vec![
                    Atom::new(r(2), vec![s(0), s(1)]),
                    Atom::new(r(1), vec![s(1), s(2)]),
                ],
            )
            .unwrap(),
        ])
    }

    fn chain_db(n: u32) -> Database {
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for i in 1..n {
            b = b.fact(r(1), [i, i + 1]);
        }
        b.build().unwrap()
    }

    /// The from-scratch fixpoint the session must stay byte-identical to.
    fn from_scratch(program: &Program, edb: &Database) -> Database {
        evaluate(program, edb, 0, None, None).unwrap().0
    }

    #[test]
    fn initial_session_matches_from_scratch() {
        let program = tc_program();
        let edb = chain_db(8);
        let session = IncrementalSession::new(&program, &edb).unwrap();
        assert_eq!(session.current(), from_scratch(&program, &edb));
        assert!(session.stats().derived_facts > 0);
    }

    #[test]
    fn insertions_propagate_like_semi_naive() {
        let program = tc_program();
        let mut edb = chain_db(6);
        let mut session = IncrementalSession::new(&program, &edb).unwrap();

        let stats = session
            .insert_facts(&[(r(1), tuple![6, 7]), (r(1), tuple![7, 8])])
            .unwrap();
        edb.insert_fact(r(1), tuple![6, 7]).unwrap();
        edb.insert_fact(r(1), tuple![7, 8]).unwrap();
        assert_eq!(session.current(), from_scratch(&program, &edb));
        assert!(stats.derived_facts > 0);
        assert!(stats.reused_facts > 0, "old closure facts must be reused");
        assert_eq!(stats.rederived_facts, 0);
    }

    #[test]
    fn deletions_run_overdeletion_and_rederivation() {
        // Diamond: 1→2→4 and 1→3→4, plus a tail 4→5.  Deleting edge (2,4)
        // overdeletes path(1,4)/path(2,4)/path(1,5)/path(2,5)…, and
        // rederivation must restore path(1,4) and path(1,5) via 3.
        let program = tc_program();
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for (x, y) in [(1u32, 2u32), (2, 4), (1, 3), (3, 4), (4, 5)] {
            b = b.fact(r(1), [x, y]);
        }
        let mut edb = b.build().unwrap();
        let mut session = IncrementalSession::new(&program, &edb).unwrap();

        let stats = session.remove_facts(&[(r(1), tuple![2, 4])]).unwrap();
        edb.remove_fact(r(1), &tuple![2, 4]);
        assert_eq!(session.current(), from_scratch(&program, &edb));
        assert!(session.holds(r(2), &tuple![1, 4]), "alternative path via 3");
        assert!(!session.holds(r(2), &tuple![2, 4]));
        assert!(stats.rederived_facts > 0, "the diamond must rederive");
        assert!(stats.reused_facts > 0);
    }

    #[test]
    fn retraction_work_follows_what_was_overdeleted_not_what_is_stored() {
        // A braid of 200 disjoint ten-edge chains.  Four of them grow by
        // eight edges, then the 32 edges are retracted again: nothing that
        // is overdeleted has another derivation, and finding that out must
        // cost a probe and a membership check per fact — not a walk over
        // the 11 000 stored path facts for each of them.
        let program = tc_program();
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for c in 0..200u32 {
            for i in 1..=10 {
                b = b.fact(r(1), [c * 32 + i, c * 32 + i + 1]);
            }
        }
        let edb = b.build().unwrap();
        let mut session = IncrementalSession::new(&program, &edb).unwrap();
        let extension: Vec<(RelId, Tuple)> = (0..4u32)
            .flat_map(|c| (11..19).map(move |i| (r(1), tuple![c * 32 + i, c * 32 + i + 1])))
            .collect();
        session.insert_facts(&extension).unwrap();

        let before = session.fact_count();
        let stats = session.remove_facts(&extension).unwrap();
        assert_eq!(session.current(), from_scratch(&program, &edb));
        assert_eq!(stats.rederived_facts, 0);
        let overdeleted = before - stats.reused_facts;
        assert_eq!(overdeleted, 4 * (8 + 171 - 55), "edges plus closure growth");
        assert!(
            stats.tuples_scanned <= 64 * overdeleted,
            "{} tuples scanned to retract {overdeleted} facts",
            stats.tuples_scanned
        );
    }

    #[test]
    fn mixed_deltas_and_repeated_calls_stay_exact() {
        let program = tc_program();
        let mut edb = chain_db(10);
        let mut session = IncrementalSession::new(&program, &edb).unwrap();

        type Edges = Vec<(u32, u32)>;
        let steps: Vec<(Edges, Edges)> = vec![
            (vec![(10, 11)], vec![(3, 4)]),
            (vec![(3, 4), (11, 12)], vec![(1, 2)]),
            (vec![], vec![(5, 6), (6, 7)]),
            (vec![(20, 21), (21, 22)], vec![(20, 21)]),
        ];
        for (ins, del) in steps {
            let ins: Vec<_> = ins.into_iter().map(|(x, y)| (r(1), tuple![x, y])).collect();
            let del: Vec<_> = del.into_iter().map(|(x, y)| (r(1), tuple![x, y])).collect();
            session.apply_delta(&ins, &del).unwrap();
            for (rel, t) in &del {
                edb.remove_fact(*rel, t);
            }
            for (rel, t) in &ins {
                edb.insert_fact(*rel, t.clone()).unwrap();
            }
            assert_eq!(session.current(), from_scratch(&program, &edb));
        }
    }

    #[test]
    fn parallel_sessions_track_sequential_ones_exactly() {
        // a braid wide enough that propagation and overdeletion rounds clear
        // the fan-out threshold
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for c in 0..40u32 {
            let base = c * 18 + 1;
            for i in 0..16 {
                b = b.fact(r(1), [base + i, base + i + 1]);
            }
        }
        let edb = b.build().unwrap();
        let program = tc_program();
        let mut seq = IncrementalSession::with_threads(&program, &edb, 1).unwrap();
        let mut par = IncrementalSession::with_threads(&program, &edb, 4).unwrap();
        assert_eq!(seq.current(), par.current());
        assert_eq!(seq.stats(), par.stats());

        type Edges = Vec<(u32, u32)>;
        let steps: Vec<(Edges, Edges)> = vec![
            (vec![(17, 19), (36, 38)], vec![]),
            (vec![], vec![(5, 6), (23, 24)]),
            (vec![(5, 6)], vec![(17, 19)]),
        ];
        for (ins, del) in steps {
            let ins: Vec<_> = ins.into_iter().map(|(x, y)| (r(1), tuple![x, y])).collect();
            let del: Vec<_> = del.into_iter().map(|(x, y)| (r(1), tuple![x, y])).collect();
            let s = seq.apply_delta(&ins, &del).unwrap();
            let p = par.apply_delta(&ins, &del).unwrap();
            assert_eq!(seq.current(), par.current(), "fixpoints diverge");
            assert_eq!(s, p, "per-delta stats diverge");
        }
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn a_program_with_no_rules_runs_no_round() {
        // `τ_true` lowers to no rules: neither evaluation counts a round
        let (empty, edb) = (Program::default(), chain_db(4));
        let (fix, stats) = evaluate(&empty, &edb, 1, None, None).unwrap();
        assert_eq!((fix, stats), (edb.clone(), EngineStats::default()));
        let mut session = IncrementalSession::new(&empty, &edb).unwrap();
        let stats = session.insert_facts(&[(r(1), tuple![4, 5])]).unwrap();
        assert_eq!(stats.iterations, 0);
        assert!(session.holds(r(1), &tuple![4, 5]));
    }

    #[test]
    fn intensional_mutations_are_rejected() {
        let program = tc_program();
        let mut session = IncrementalSession::new(&program, &chain_db(4)).unwrap();
        assert!(matches!(
            session.insert_facts(&[(r(2), tuple![1, 9])]),
            Err(EngineError::IntensionalUpdate { rel }) if rel == r(2)
        ));
        assert!(matches!(
            session.remove_facts(&[(r(2), tuple![1, 2])]),
            Err(EngineError::IntensionalUpdate { .. })
        ));
    }

    #[test]
    fn deleting_and_reinserting_everything_round_trips() {
        let program = tc_program();
        let edb = chain_db(5);
        let mut session = IncrementalSession::new(&program, &edb).unwrap();
        let all_edges: Vec<(RelId, Tuple)> = (1..5u32).map(|i| (r(1), tuple![i, i + 1])).collect();

        session.remove_facts(&all_edges).unwrap();
        let empty = DatabaseBuilder::new().relation(r(1), 2).build().unwrap();
        assert_eq!(session.current(), from_scratch(&program, &empty));
        assert_eq!(session.fact_count(), 0);

        session.insert_facts(&all_edges).unwrap();
        assert_eq!(session.current(), from_scratch(&program, &edb));
    }

    #[test]
    fn brand_new_relations_are_absorbed() {
        let program = tc_program();
        let mut session = IncrementalSession::new(&program, &chain_db(3)).unwrap();
        session.insert_facts(&[(r(9), tuple![7])]).unwrap();
        assert!(session.holds(r(9), &tuple![7]));
        // arity conflicts surface as errors
        assert!(session.insert_facts(&[(r(9), tuple![1, 2])]).is_err());
    }

    #[test]
    fn a_rejected_delta_leaves_the_session_untouched() {
        let program = tc_program();
        let edb = chain_db(6);
        let mut session = IncrementalSession::new(&program, &edb).unwrap();
        let untouched = from_scratch(&program, &edb);
        let valid_deletion = [(r(1), tuple![2, 3])];

        // against the stored arity …
        let conflicting = [(r(1), tuple![7, 8, 9])];
        assert!(matches!(
            session.apply_delta(&conflicting, &valid_deletion),
            Err(EngineError::Data(DataError::ArityMismatch { rel, expected: 2, found: 3 }))
                if rel == r(1)
        ));
        assert_eq!(session.current(), untouched);
        // … and between two insertions into a relation nobody has seen yet
        let conflicting = [(r(9), tuple![1]), (r(9), tuple![1, 2])];
        assert!(session.apply_delta(&conflicting, &valid_deletion).is_err());
        assert_eq!(session.current(), untouched, "r(9) must not appear");
        assert_eq!(session.stats().rederived_facts, 0);

        // the session goes on as if nothing had been asked
        session.remove_facts(&valid_deletion).unwrap();
        let mut edb = edb;
        edb.remove_fact(r(1), &tuple![2, 3]);
        assert_eq!(session.current(), from_scratch(&program, &edb));
    }

    #[test]
    fn edb_facts_in_head_relations_survive_dred() {
        // path(1,3) is stored extensionally (no rule derives it once
        // edge(2,3) is gone); deleting edge(2,3) must not retract it —
        // from-scratch evaluation keeps EDB facts of IDB relations.
        let program = tc_program();
        let mut edb = chain_db(4);
        edb.insert_fact(r(2), tuple![1, 3]).unwrap();
        let mut session = IncrementalSession::new(&program, &edb).unwrap();
        assert_eq!(session.current(), from_scratch(&program, &edb));

        session.remove_facts(&[(r(1), tuple![2, 3])]).unwrap();
        edb.remove_fact(r(1), &tuple![2, 3]);
        assert_eq!(session.current(), from_scratch(&program, &edb));
        assert!(session.holds(r(2), &tuple![1, 3]), "EDB fact must survive");
    }

    #[test]
    fn rederivation_finds_the_membership_table_of_an_untouched_edb_relation() {
        // p(x,y) :- a(x,y), b(x).   p(x,y) :- a(x,y), c(x).
        // `a` is the smallest relation, so both full plans scan it first,
        // and every delta variant either scans its delta or probes it on
        // x: no Member step of theirs ever names `a`.  But
        // rederiving p(1,5) binds x and y on entry, so the head-bound plan
        // checks `a` for membership — a relation the session loaded and
        // never writes.  Its table exists because the rederivation plan's
        // `Member` step demands it.
        let rule = |other: u32| {
            Rule::new(
                Atom::new(r(9), vec![s(0), s(1)]),
                vec![
                    Atom::new(r(1), vec![s(0), s(1)]),
                    Atom::new(r(other), vec![s(0)]),
                ],
            )
            .unwrap()
        };
        let program = Program::new(vec![rule(2), rule(3)]);
        let mut b = DatabaseBuilder::new()
            .fact(r(1), [1u32, 5])
            .fact(r(1), [2u32, 6]);
        for i in 1..=3u32 {
            b = b.fact(r(2), [i]).fact(r(3), [i]);
        }
        let mut edb = b.build().unwrap();
        let mut session = IncrementalSession::new(&program, &edb).unwrap();

        let stats = session.remove_facts(&[(r(2), tuple![1])]).unwrap();
        edb.remove_fact(r(2), &tuple![1]);
        assert_eq!(session.current(), from_scratch(&program, &edb));
        assert!(session.holds(r(9), &tuple![1, 5]), "derivable through c");
        assert_eq!(stats.rederived_facts, 1);
        // `a` came through it all exactly as loaded
        let a = session.relation(r(1)).unwrap();
        assert!(a.to_relation().shares_rows(edb.relation(r(1)).unwrap()));
    }

    #[test]
    fn program_facts_survive_unrelated_deletions() {
        // q(7). plus TC; deleting an edge must not disturb the fact rule.
        let mut program = tc_program();
        program
            .rules
            .push(Rule::new(Atom::new(r(4), vec![Term::Const(Const::new(7))]), vec![]).unwrap());
        let mut edb = chain_db(4);
        let mut session = IncrementalSession::new(&program, &edb).unwrap();

        session.remove_facts(&[(r(1), tuple![2, 3])]).unwrap();
        edb.remove_fact(r(1), &tuple![2, 3]);
        assert_eq!(session.current(), from_scratch(&program, &edb));
        assert!(session.holds(r(4), &tuple![7]));
    }
}
