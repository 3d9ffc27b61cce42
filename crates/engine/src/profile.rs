//! Views of one evaluation: the plans it runs and each rule's share of the
//! work.
//!
//! [`crate::evaluate`] is the engine's only evaluation path; a [`View`]
//! passed to it selects what that path records on the way.  No view:
//! nothing (the answer).  [`View::profile`]: one [`RuleProfile`] per
//! planned rule — its plan rendering, the rounds it ran in, the new facts,
//! index probes and scanned tuples it accounted for, and its wall-clock
//! time.  [`View::explain`]: the same rows with the plan rendering only,
//! and the fixpoint rounds are skipped.  All three plan the program
//! through the same planner call in the same entry, against the same
//! un-evaluated storage, so what `EXPLAIN` shows is what `QUERY` runs and
//! what `PROFILE` measures.
//!
//! ## Determinism contract
//!
//! Observation must never perturb evaluation.  The observer is called
//! **between plan executions of the one round driver** (`run_round` in
//! [`crate::eval`]), never inside the zero-allocation join loops: an
//! observed round runs the same `(rule, plan)` pairs the unobserved round
//! batches, one pair at a time through the same `run_round_with` with the
//! same keep-filter against unchanged storage, and merges the per-plan
//! pending sets into the same canonical (sorted, deduplicated) union before
//! the single per-round commit.  So the fixpoint, the resulting database
//! and every [`EngineStats`] counter are byte-identical to the unobserved
//! run at every thread width — `tests/profile_differential.rs` pins this.
//! The only additions are `Instant` reads, counter differences and, per
//! plan execution, the count of rows its pending set adds to the round's
//! union.

use std::collections::BTreeSet;
use std::time::Instant;

use kbt_data::RelId;

use crate::eval::Deltas;
use crate::plan::PlannedRule;
use crate::stats::EngineStats;

/// One rule's share of a fixpoint evaluation.
///
/// `rule` is the provenance text carried by [`crate::ir::Rule::name`]
/// (the source `τ_φ` clause, when the lowering attached it) or the head
/// atom rendered through the namer; `plan` is the stable
/// [`PlannedRule::render`] line.  The counters sum over every round the
/// rule participated in; `elapsed_ns` is wall-clock and therefore the
/// only nondeterministic field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleProfile {
    /// The rule in the caller's vocabulary.
    pub rule: String,
    /// Stable rendering of the rule's join plans.
    pub plan: String,
    /// Fixpoint rounds in which at least one of the rule's plans ran.
    pub rounds: usize,
    /// New facts first derived by this rule (a fact derivable by several
    /// rules in the same round is attributed to the earliest one).
    pub derived: usize,
    /// Index probes issued by the rule's plans.
    pub probes: usize,
    /// Tuples scanned by the rule's plans.
    pub scanned: usize,
    /// Wall-clock time spent executing the rule's plans.
    pub elapsed_ns: u64,
}

impl RuleProfile {
    fn new(rule: &PlannedRule, namer: &dyn Fn(RelId) -> String) -> Self {
        let fallback = || {
            let args: Vec<String> = rule.head.terms.iter().map(|t| t.to_string()).collect();
            format!("{}({})", namer(rule.head.rel), args.join(", "))
        };
        RuleProfile {
            rule: rule.name.clone().unwrap_or_else(fallback),
            plan: rule.render(namer),
            rounds: 0,
            derived: 0,
            probes: 0,
            scanned: 0,
            elapsed_ns: 0,
        }
    }
}

/// What an evaluation records besides its answer (see the module docs).
/// Threaded as `Option<&mut View>` from the service's read path down to
/// [`crate::evaluate`]; every layer appends to the same row list.
pub struct View<'a> {
    runs: bool,
    /// Maps relation ids into the caller's vocabulary for the rendered rule
    /// and plan texts.
    pub namer: &'a dyn Fn(RelId) -> String,
    /// The rows recorded so far, in evaluation order (rule order within one
    /// evaluation; layers above the engine append rows for operators
    /// without a rule plan).
    pub rows: Vec<RuleProfile>,
}

impl<'a> View<'a> {
    /// The plan-only view: rows carry plan renderings, nothing is evaluated.
    pub fn explain(namer: &'a dyn Fn(RelId) -> String) -> Self {
        View {
            runs: false,
            namer,
            rows: Vec::new(),
        }
    }

    /// The profiling view: evaluation runs unchanged and every rule's row
    /// is filled in by the round observer.
    pub fn profile(namer: &'a dyn Fn(RelId) -> String) -> Self {
        View {
            runs: true,
            ..View::explain(namer)
        }
    }

    /// Whether evaluation runs under this view (`false`: plan only).
    pub fn runs(&self) -> bool {
        self.runs
    }

    /// An empty view of the same kind rendering through `namer`: for a
    /// layer that evaluates a rewritten program whose invented relations
    /// its caller's namer does not know, and hands the rows back here.
    pub fn renamed<'b>(&self, namer: &'b dyn Fn(RelId) -> String) -> View<'b> {
        View {
            runs: self.runs,
            namer,
            rows: Vec::new(),
        }
    }

    /// Records one row per planned rule and returns the observer that
    /// fills them in while the rounds run.
    pub(crate) fn observe<'s>(&'s mut self, rules: &'s [PlannedRule]) -> RoundObserver<'s> {
        let (first, namer) = (self.rows.len(), self.namer);
        self.rows
            .extend(rules.iter().map(|rule| RuleProfile::new(rule, namer)));
        RoundObserver {
            rules,
            rows: &mut self.rows[first..],
            ran: BTreeSet::new(),
        }
    }
}

/// The round-level observer of one evaluation: called by the round driver
/// around each plan execution, it charges the execution to its rule's row.
pub(crate) struct RoundObserver<'s> {
    rules: &'s [PlannedRule],
    /// One row per rule of `rules`, same order.
    rows: &'s mut [RuleProfile],
    /// Rules that ran in the current round.
    ran: BTreeSet<usize>,
}

impl RoundObserver<'_> {
    pub(crate) fn begin_round(&mut self) {
        self.ran.clear();
    }

    /// Runs one plan execution of `rule` through `run`, charging its time
    /// and its counter differences to the rule's row, and merges its
    /// pending set into the round's union `pending`, charging the rule with
    /// the facts it adds there: new facts (all absent from storage: the
    /// keep-filter saw to that) that no earlier execution of the round
    /// derived — the first deriving rule wins.
    pub(crate) fn observe_plan(
        &mut self,
        rule: &PlannedRule,
        stats: &mut EngineStats,
        pending: &mut Deltas,
        run: impl FnOnce(&mut EngineStats) -> Deltas,
    ) {
        let idx = self
            .rules
            .iter()
            .position(|r| std::ptr::eq(r, rule))
            .expect("the round driver only runs plans of the observed rules");
        let (probes, scanned) = (stats.index_probes, stats.tuples_scanned);
        let start = Instant::now();
        let part = run(stats);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let row = &mut self.rows[idx];
        row.elapsed_ns = row.elapsed_ns.saturating_add(ns);
        row.probes += stats.index_probes - probes;
        row.scanned += stats.tuples_scanned - scanned;
        if self.ran.insert(idx) {
            row.rounds += 1;
        }
        for (rel, run) in part {
            let merged = match pending.remove(&rel) {
                Some(earlier) => {
                    let merged = earlier.union(&run).expect("one relation, one arity");
                    row.derived += merged.len() - earlier.len();
                    merged
                }
                None => {
                    row.derived += run.len();
                    run
                }
            };
            pending.insert(rel, merged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use crate::ir::{Atom, Program, Rule, Term};
    use kbt_data::{Database, DatabaseBuilder};

    fn rel(i: u32) -> RelId {
        RelId::new(i)
    }

    fn s(i: usize) -> Term {
        Term::Slot(i)
    }

    /// Transitive closure: path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
    fn tc_program() -> Program {
        let base = Rule::new(
            Atom::new(rel(2), vec![s(0), s(1)]),
            vec![Atom::new(rel(1), vec![s(0), s(1)])],
        )
        .unwrap()
        .with_name("path(x, y) :- edge(x, y)");
        let step = Rule::new(
            Atom::new(rel(2), vec![s(0), s(2)]),
            vec![
                Atom::new(rel(2), vec![s(0), s(1)]),
                Atom::new(rel(1), vec![s(1), s(2)]),
            ],
        )
        .unwrap()
        .with_name("path(x, z) :- path(x, y), edge(y, z)");
        Program::new(vec![base, step])
    }

    fn chain_edb(n: u32) -> Database {
        let mut b = DatabaseBuilder::new().relation(rel(1), 2);
        for i in 0..n {
            b = b.fact(rel(1), [i, i + 1]);
        }
        b.build().unwrap()
    }

    fn namer(r: RelId) -> String {
        if r == rel(1) { "edge" } else { "path" }.to_string()
    }

    #[test]
    fn profiled_evaluation_matches_plain_evaluation_exactly() {
        let program = tc_program();
        let edb = chain_edb(12);
        for threads in [1, 4] {
            let (plain_db, plain_stats) = evaluate(&program, &edb, threads, None, None).unwrap();
            let mut view = View::profile(&namer);
            let (prof_db, prof_stats) =
                evaluate(&program, &edb, threads, Some(&mut view), None).unwrap();
            assert_eq!(plain_db, prof_db, "x{threads}: databases differ");
            assert_eq!(plain_stats, prof_stats, "x{threads}: stats differ");
            // Attribution is complete: per-rule counts sum to the
            // engine's totals.
            let profiles = &view.rows;
            let derived: usize = profiles.iter().map(|p| p.derived).sum();
            assert_eq!(derived, prof_stats.derived_facts);
            let probes: usize = profiles.iter().map(|p| p.probes).sum();
            assert_eq!(probes, prof_stats.index_probes);
            let scanned: usize = profiles.iter().map(|p| p.scanned).sum();
            assert_eq!(scanned, prof_stats.tuples_scanned);
        }
    }

    #[test]
    fn profiles_carry_provenance_and_plans() {
        let mut view = View::profile(&namer);
        evaluate(&tc_program(), &chain_edb(4), 1, Some(&mut view), None).unwrap();
        let profiles = &view.rows;
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].rule, "path(x, y) :- edge(x, y)");
        assert!(profiles[0].plan.starts_with("path(s0, s1) <- scan edge"));
        // The base rule runs only in the seeding round (no delta variant
        // on an EDB driver); the recursive rule runs every round.
        assert_eq!(profiles[0].rounds, 1);
        assert!(profiles[1].rounds > 1);
        assert!(profiles[1].plan.contains("#delta"));
        // The base rule derived the 4 edges; the rest is the closure.
        assert_eq!(profiles[0].derived, 4);
        assert_eq!(profiles[1].derived, 6);
    }

    #[test]
    fn a_fact_two_rules_derive_in_one_round_counts_for_the_first() {
        // p(x) :- a(x).  p(x) :- b(x).  with a = {1, 2}, b = {2, 3}
        let copy = |from: u32| {
            Rule::new(
                Atom::new(rel(3), vec![s(0)]),
                vec![Atom::new(rel(from), vec![s(0)])],
            )
            .unwrap()
        };
        let program = Program::new(vec![copy(1), copy(2)]);
        let edb = DatabaseBuilder::new()
            .relation(rel(1), 1)
            .relation(rel(2), 1)
            .fact(rel(1), [1])
            .fact(rel(1), [2])
            .fact(rel(2), [2])
            .fact(rel(2), [3])
            .build()
            .unwrap();
        let mut view = View::profile(&namer);
        let (_, stats) = evaluate(&program, &edb, 1, Some(&mut view), None).unwrap();
        assert_eq!(stats.derived_facts, 3);
        let derived: Vec<usize> = view.rows.iter().map(|p| p.derived).collect();
        assert_eq!(derived, [2, 1]);
    }

    #[test]
    fn explain_renders_without_evaluating() {
        let edb = chain_edb(4);
        let mut view = View::explain(&namer);
        let (db, stats) = evaluate(&tc_program(), &edb, 0, Some(&mut view), None).unwrap();
        assert!(db.relation(rel(2)).unwrap().is_empty(), "no round ran");
        assert_eq!(stats, EngineStats::default());
        let profiles = &view.rows;
        assert_eq!(profiles.len(), 2);
        for p in profiles {
            assert_eq!((p.rounds, p.derived, p.probes, p.scanned), (0, 0, 0, 0));
            assert_eq!(p.elapsed_ns, 0);
            assert!(!p.plan.is_empty());
        }
        assert_eq!(
            profiles[1].plan,
            "path(s0, s2) <- scan path(s0, s1); probe edge mask=0b01 key=(s1) \
             | dpath: scan path#delta(s0, s1); probe edge mask=0b01 key=(s1)"
        );
    }
}
