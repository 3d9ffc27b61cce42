//! The read path: one entry for `QUERY`, `EXPLAIN` and `PROFILE`.
//!
//! A read is parsed once against one snapshot ([`Service::read`]) and then
//! evaluated through a single path; the three verbs differ only in the
//! [`kbt_core::View`] threaded down to the engine — none (the answer), a
//! plan-only view (`EXPLAIN`: same planning, rounds skipped) or a
//! profiling view (`PROFILE`: same evaluation, per-rule rows recorded).  A
//! transformation expression, typed ([`Service::query_on`]) or textual,
//! goes through [`Transformer::apply_stored`] with its snapshot's stored
//! fixpoints, so an insertion takes the heads they cover from the snapshot
//! and evaluates only the rest of its rules; a `CERTAIN`/`POSSIBLE` goal is
//! resolved once into a [`GoalPlan`] and run through the one per-world
//! fold, `Service::fold_worlds`.  A read consults only its own snapshot's
//! epoch — its rulebase, its stored fixpoints and its answer table — so no
//! read can meet another epoch's state.  Nothing here touches the writer
//! lock.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use kbt_core::{CoreError, RuleProfile, Transform, TransformResult, Transformer, View};
use kbt_data::{Const, Database, RelId, Relation, Tuple, Vocabulary};
use kbt_datalog::{magic_rewrite, program_from_sentence, Adornment, MagicPlan, Program};
use kbt_engine::table::filter_rows;
use kbt_logic::Term;

use crate::command::{parse_query, render_args_into, render_relation, QueryCmd, QueryGoal};
use crate::error::Result;
use crate::service::{
    FactRows, QueryResult, Response, Service, Snapshot, TransformInfo, WorldRows,
};

/// Which view of a read the client asked for (the verb).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadView {
    /// `QUERY`: the answer, nothing recorded.
    Answer,
    /// `EXPLAIN`: the plans, nothing evaluated (not a served query, no
    /// slow-query span).
    Explain,
    /// `PROFILE`: the answer's summary plus each rule's share of the work.
    Profile,
}

impl ReadView {
    /// The engine-level view this read threads down, rendered through
    /// `namer`.
    fn open<'a>(self, namer: &'a dyn Fn(RelId) -> String) -> Option<View<'a>> {
        match self {
            ReadView::Answer => None,
            ReadView::Explain => Some(View::explain(namer)),
            ReadView::Profile => Some(View::profile(namer)),
        }
    }
}

/// How a goal is answered, resolved once per read from the snapshot's
/// rulebase.
enum GoalPlan {
    /// No rule can derive into the goal's fixpoint (the bare form, or no
    /// rulebase at all): the stored relation is its own fixpoint.
    Stored,
    /// The rulebase rewritten around the goal's binding pattern: only the
    /// facts the goal demands are derived.
    Magic(MagicPlan),
}

impl GoalPlan {
    fn resolve(
        rulebase: Option<&Arc<Program>>,
        rel: RelId,
        terms: &[Term],
        fresh: u32,
    ) -> Result<Self> {
        let Some(program) = rulebase else {
            return Ok(GoalPlan::Stored);
        };
        let plan = magic_rewrite(program, rel, terms, fresh).map_err(CoreError::Engine)?;
        Ok(GoalPlan::Magic(plan))
    }

    /// The strategy name reported for a bound goal this plan answers.
    fn strategy(&self) -> &'static str {
        match self {
            GoalPlan::Magic(_) => "magic",
            GoalPlan::Stored => "materialize",
        }
    }
}

/// The part of a goal the per-world fold needs.
struct Goal {
    rel: RelId,
    /// Intersection across worlds (`CERTAIN`) or union (`POSSIBLE`).
    certain: bool,
    /// The positions bound to constants.
    bound: Vec<(usize, Const)>,
    /// The arity of an empty answer.
    arity: usize,
}

impl Goal {
    /// The all-facts goal behind [`Service::certain`] / [`Service::possible`]
    /// and the bare `CERTAIN rel` form.
    fn bare(snap: &Snapshot, rel: RelId, certain: bool) -> Self {
        let stored = snap.kb().iter().find_map(|db| db.relation(rel));
        Goal {
            rel,
            certain,
            bound: Vec::new(),
            arity: stored.map_or(0, Relation::arity),
        }
    }
}

impl Service {
    /// Evaluates a transformation expression read-only against the current
    /// snapshot (the typed counterpart of `QUERY <texpr>`).
    pub fn query(&self, transform: &Transform) -> Result<QueryResult> {
        let snap = self.snapshot();
        self.query_on(&snap, transform)
    }

    /// Evaluates a transformation expression read-only against a specific
    /// snapshot.
    pub fn query_on(&self, snap: &Snapshot, transform: &Transform) -> Result<QueryResult> {
        self.metrics().queries_total.inc();
        let result = self.hypothetical(snap, transform, None)?;
        Ok(QueryResult {
            epoch: snap.epoch(),
            kb: result.kb,
            stats: result.stats,
        })
    }

    /// The one evaluation of a transformation expression over a snapshot,
    /// typed or textual, under any view: the heads the snapshot's stored
    /// fixpoints cover are read, not derived ([`Transformer::apply_stored`]).
    fn hypothetical(
        &self,
        snap: &Snapshot,
        transform: &Transform,
        view: Option<&mut View<'_>>,
    ) -> Result<TransformResult> {
        let evaluates = view.as_ref().is_none_or(|view| view.runs());
        let transformer = Transformer::with_options(self.config().eval_options());
        let (result, taken) =
            transformer.apply_stored(transform, snap.kb(), snap.stored(), view)?;
        if evaluates && taken > 0 {
            self.metrics().stored_fixpoint_reads_total.inc();
        }
        Ok(result)
    }

    /// The facts of `rel` holding in **every** world of the snapshot.
    pub fn certain(&self, snap: &Snapshot, rel: RelId) -> Relation {
        self.stored(snap, rel, true)
    }

    /// The facts of `rel` holding in **at least one** world of the
    /// snapshot.
    pub fn possible(&self, snap: &Snapshot, rel: RelId) -> Relation {
        self.stored(snap, rel, false)
    }

    fn stored(&self, snap: &Snapshot, rel: RelId, certain: bool) -> Relation {
        self.metrics().queries_total.inc();
        let goal = Goal::bare(snap, rel, certain);
        self.fold_worlds(snap, &GoalPlan::Stored, &goal, None)
            .expect("folding stored relations evaluates nothing")
            .0
    }

    /// The one read entry behind `QUERY` / `EXPLAIN` / `PROFILE`: opens the
    /// slow-query span, takes the snapshot and parses the query — once —
    /// then evaluates it under `view`.
    pub(crate) fn read(&self, view: ReadView, rest: &str, trace: Option<&str>) -> Result<Response> {
        let evaluates = view != ReadView::Explain;
        // the slow-query span: end-to-end latency of the textual command,
        // emitted to the log sink (with the query text) when it crosses
        // the registry's slow-span threshold
        let mut span = evaluates.then(|| self.metrics().query_ns.span_event("slow_query"));
        if let Some(span) = &mut span {
            span.field("query", rest.trim());
            if let Some(id) = trace {
                span.field("id", id);
            }
        }
        let snap = self.snapshot();
        // parse against a handle of our own: a `Vocabulary` clone shares the
        // committed names until this query interns one, and then copies
        // only the open chunk and index level it appends to — query-local
        // names cannot leak into (or wait on) the committed vocabulary, and
        // a query that interns nothing copies nothing
        let mut vocab = snap.vocab().clone();
        let query = parse_query(rest, &mut vocab)?;
        if evaluates {
            self.metrics().queries_total.inc();
        }
        match query {
            QueryCmd::Certain(goal) => self.read_goal(&snap, &vocab, &goal, true, view),
            QueryCmd::Possible(goal) => self.read_goal(&snap, &vocab, &goal, false, view),
            QueryCmd::Transform(t) => {
                let namer = |rel: RelId| render_relation(rel, &vocab);
                let mut recorded = view.open(&namer);
                let result = self.hypothetical(&snap, &t, recorded.as_mut())?;
                let epoch = snap.epoch();
                let rows = recorded.as_ref().map_or(&[][..], |v| &v.rows).iter();
                Ok(match view {
                    ReadView::Answer => Response::Worlds {
                        epoch,
                        worlds: WorldRows::new(result.kb, vocab.clone()),
                    },
                    ReadView::Explain => Response::Explain {
                        epoch,
                        rows: rows.map(render_explain_row).collect(),
                    },
                    ReadView::Profile => Response::Profile {
                        epoch,
                        worlds: result.kb.len(),
                        rows: rows.map(render_profile_row).collect(),
                    },
                })
            }
        }
    }

    /// A `CERTAIN`/`POSSIBLE` goal under any view (the crate docs describe
    /// the strategies).  The bare form folds the **stored** relation; the
    /// bound form answers against the fixpoint of the registered `tau`
    /// rules.  Only `QUERY` consults and fills the snapshot's answer table
    /// ([`Snapshot::table`]) — a memo hit would explain and profile nothing.
    /// Positions bound by repeated variables (`reach(x, x)`) are
    /// equality-filtered after memo retrieval, so the memoized answer stays
    /// reusable for other patterns.
    fn read_goal(
        &self,
        snap: &Snapshot,
        vocab: &Vocabulary,
        query: &QueryGoal,
        certain: bool,
        view: ReadView,
    ) -> Result<Response> {
        let start = Instant::now();
        let epoch = snap.epoch();
        let rel = query.rel;
        let namer = |r: RelId| render_relation(r, vocab);
        let (kind, fold, tag) = if certain {
            ("certain", "intersection", 0u8)
        } else {
            ("possible", "union", 1u8)
        };
        let facts_response = |facts: Relation, strategy| Response::Facts {
            epoch,
            kind,
            relation: namer(rel),
            facts: FactRows::new(rel, facts, vocab.clone()),
            strategy,
        };

        // the row label of the plan-only and profiling views
        let label = || match &query.terms {
            None => format!("{kind}({})", namer(rel)),
            Some(terms) => {
                let pattern = Adornment::from_terms(terms);
                format!("{kind}({}) pattern={pattern}", namer(rel))
            }
        };

        let (goal, plan, groups) = match &query.terms {
            None => (Goal::bare(snap, rel, certain), GoalPlan::Stored, Vec::new()),
            Some(terms) => {
                let bound: Vec<(usize, Const)> = terms
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| t.as_const().map(|c| (i, c)))
                    .collect();
                let groups = var_groups(terms);
                if view == ReadView::Answer {
                    // the table lock drops with this statement: evaluation
                    // runs unlocked
                    let hit = snap.table().lookup(tag, rel.index(), &bound);
                    if let Some(answer) = hit {
                        self.metrics().queries_tabled_total.inc();
                        return Ok(facts_response(
                            filter_equal(&answer, &groups),
                            Some("tabled"),
                        ));
                    }
                }
                let goal = Goal {
                    rel,
                    certain,
                    bound,
                    arity: terms.len(),
                };
                let fresh = vocab.relation_count() as u32;
                let plan = GoalPlan::resolve(snap.rulebase(), rel, terms, fresh)?;
                (goal, plan, groups)
            }
        };
        let strategy = query.terms.as_ref().map(|_| plan.strategy());
        let plan_namer = |r: RelId| match &plan {
            GoalPlan::Magic(magic) => magic.render_relation(r, &namer),
            GoalPlan::Stored => namer(r),
        };

        if view == ReadView::Explain {
            // the binding pattern, the invented magic predicates with
            // their seeds, and the join plans of the rewritten program —
            // in the stable renderings the golden tests pin down
            let how = match &plan {
                GoalPlan::Stored if query.terms.is_none() => {
                    format!("{fold} across worlds (no rule plan)")
                }
                GoalPlan::Stored => {
                    format!("no rulebase, stored facts filtered ({fold} across worlds)")
                }
                GoalPlan::Magic(magic) => {
                    format!("magic plan, answer={}", plan_namer(magic.answer))
                }
            };
            let mut rows = vec![format!("{}: {how}", label())];
            if let GoalPlan::Magic(magic) = &plan {
                for (seed_rel, consts) in &magic.seeds {
                    let mut row = format!("seed {}", plan_namer(*seed_rel));
                    render_args_into(&mut row, consts, vocab);
                    rows.push(row);
                }
                let world = snap.kb().iter().next().cloned().unwrap_or_default();
                let mut recorded = View::explain(&plan_namer);
                self.world_answers(&plan, &goal, &world, Some(&mut recorded))?;
                rows.extend(recorded.rows.iter().map(render_explain_row));
            }
            return Ok(Response::Explain { epoch, rows });
        }

        let mut recorded = view.open(&plan_namer);
        let (answer, profiles) = self.fold_worlds(snap, &plan, &goal, recorded.as_mut())?;
        let facts = filter_equal(&answer, &groups);
        if view == ReadView::Profile {
            let elapsed = start.elapsed().as_nanos() as u64;
            let how = strategy.map_or(String::new(), |s| format!(" strategy={s}"));
            let note = match &plan {
                GoalPlan::Stored => " (no rule plan)",
                GoalPlan::Magic(_) => "",
            };
            let mut rows = vec![format!(
                "{}{how}: facts={} elapsed_ns={elapsed}{note}",
                label(),
                facts.len()
            )];
            rows.extend(profiles.iter().map(render_profile_row));
            return Ok(Response::Profile {
                epoch,
                worlds: snap.kb().len(),
                rows,
            });
        }
        if strategy.is_some() {
            match &plan {
                GoalPlan::Magic(_) => self.metrics().queries_magic_total.inc(),
                GoalPlan::Stored => self.metrics().queries_materialize_total.inc(),
            }
            snap.table().insert(tag, rel.index(), &goal.bound, answer);
        }
        Ok(facts_response(facts, strategy))
    }

    /// The one per-world fold: every world's answers to the resolved goal,
    /// intersected (certain) or united (possible), plus — under a profiling
    /// view — the per-rule rows merged positionally across worlds (the
    /// worlds all evaluate the same program, so index `i` is the
    /// same rule everywhere).
    fn fold_worlds(
        &self,
        snap: &Snapshot,
        plan: &GoalPlan,
        goal: &Goal,
        mut view: Option<&mut View<'_>>,
    ) -> Result<(Relation, Vec<RuleProfile>)> {
        let mut acc: Option<Relation> = None;
        let mut profiles: Vec<RuleProfile> = Vec::new();
        for db in snap.kb().iter() {
            let next = self.world_answers(plan, goal, db, view.as_deref_mut())?;
            acc = Some(match acc {
                None => next,
                Some(prev) if goal.certain => prev
                    .intersection(&next)
                    .expect("one schema per knowledgebase"),
                Some(prev) => prev.union(&next).expect("one schema per knowledgebase"),
            });
            let Some(view) = view.as_deref_mut() else {
                continue;
            };
            let rows = std::mem::take(&mut view.rows);
            if profiles.is_empty() {
                profiles = rows;
            } else {
                for (a, b) in profiles.iter_mut().zip(rows) {
                    a.rounds += b.rounds;
                    a.derived += b.derived;
                    a.probes += b.probes;
                    a.scanned += b.scanned;
                    a.elapsed_ns += b.elapsed_ns;
                }
            }
        }
        let answer = acc.unwrap_or_else(|| Relation::empty(goal.arity));
        Ok((answer, profiles))
    }

    /// One world's answers: the answer relation of the plan's fixpoint over
    /// `db` — the stored relation itself for [`GoalPlan::Stored`] — filtered
    /// to the goal's bound constants (the magic answer predicate may also
    /// carry tuples derived for recursive sub-calls with other bindings).
    fn world_answers(
        &self,
        plan: &GoalPlan,
        goal: &Goal,
        db: &Database,
        view: Option<&mut View<'_>>,
    ) -> Result<Relation> {
        let threads = self.config().threads;
        let fixpoint;
        let (source, answer) = match plan {
            GoalPlan::Stored => (db, goal.rel),
            GoalPlan::Magic(magic) => {
                let mut edb = db.clone();
                for (seed_rel, consts) in &magic.seeds {
                    edb.insert_fact(*seed_rel, Tuple::new(consts.clone()))?;
                }
                fixpoint = kbt_engine::evaluate(&magic.program, &edb, threads, view, None)
                    .map_err(CoreError::Engine)?
                    .0;
                (&fixpoint, magic.answer)
            }
        };
        Ok(source
            .relation(answer)
            .map(|r| filter_rows(r, &goal.bound))
            .unwrap_or_else(|| Relation::empty(goal.arity)))
    }
}

/// One `EXPLAIN` row: rule provenance and the plan rendering — fully
/// deterministic (no counters, no timing).
fn render_explain_row(p: &RuleProfile) -> String {
    format!("{} :: {}", p.rule, p.plan)
}

/// One `PROFILE` row: the `EXPLAIN` row plus the rule's share of the
/// fixpoint work.  `elapsed_ns` is wall-clock and therefore the only
/// nondeterministic field; it lives in data rows, never in status lines.
fn render_profile_row(p: &RuleProfile) -> String {
    format!(
        "{} | rounds={} derived={} probes={} scanned={} elapsed_ns={} :: {}",
        p.rule, p.rounds, p.derived, p.probes, p.scanned, p.elapsed_ns, p.plan
    )
}

/// Position groups the goal binds to one repeated variable (`reach(x, x)`
/// → `[[0, 1]]`): rows must carry equal constants across each group.
fn var_groups(terms: &[Term]) -> Vec<Vec<usize>> {
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, t) in terms.iter().enumerate() {
        if let Term::Var(v) = t {
            groups.entry(v.index()).or_default().push(i);
        }
    }
    groups.into_values().filter(|g| g.len() > 1).collect()
}

/// Keeps the rows whose columns agree across every repeated-variable group.
fn filter_equal(rel: &Relation, groups: &[Vec<usize>]) -> Relation {
    if groups.is_empty() {
        return rel.clone();
    }
    let mut out = Relation::empty(rel.arity());
    for row in rel.iter() {
        if groups
            .iter()
            .all(|g| g.iter().all(|&i| row[i] == row[g[0]]))
        {
            out.insert_row(row);
        }
    }
    out
}

/// Assembles the goal-directed rulebase from a transform registry, at
/// `DEFINE` and when a service opens: every `tau[…]` step whose sentence is
/// a program of Horn rules
/// contributes them.  Steps that are not Horn (disjunctive updates, say)
/// simply contribute nothing — the goal planner only ever speaks for the
/// Datalog-restricted fragment (Theorem 4.8), and relations those steps
/// define fall back to stored-fact materialization.  Returns `None` when
/// no step yields any rule.
pub(crate) fn build_rulebase(transforms: &BTreeMap<String, TransformInfo>) -> Option<Arc<Program>> {
    let mut rules = Vec::new();
    for info in transforms.values() {
        for step in info.transform.steps() {
            if let Transform::Insert(sentence) = step {
                if let Ok(p) = program_from_sentence(sentence) {
                    rules.extend(p.rules().iter().cloned());
                }
            }
        }
    }
    if rules.is_empty() {
        None
    } else {
        Program::new(rules).ok().map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceConfig, ServiceError};
    use kbt_data::EpochId;

    fn service() -> Service {
        Service::new(ServiceConfig::builder().threads(1).build())
    }

    #[test]
    fn queries_run_on_snapshots_and_count() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        let r = s.execute("QUERY lub; project[edge]").unwrap();
        match r {
            Response::Worlds { epoch, worlds } => {
                assert_eq!(epoch, EpochId::new(1));
                assert_eq!(worlds.render(), [["edge(1, 2)"]]);
            }
            other => panic!("expected Worlds, got {other:?}"),
        }
        // the query committed nothing
        assert_eq!(s.epoch(), EpochId::new(1));
        match s.execute("STATS").unwrap() {
            Response::Stats(report) => {
                assert_eq!(report.queries, 1);
                assert_eq!(report.stats.commits, 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn query_transforms_can_split_worlds_without_committing() {
        let s = service();
        s.execute("ASSERT r(1)").unwrap();
        let r = s.execute("QUERY tau[r(2) | r(3)]").unwrap();
        match r {
            Response::Worlds { worlds, .. } => assert_eq!(worlds.len(), 2),
            other => panic!("expected Worlds, got {other:?}"),
        }
        // … and the committed state is untouched
        assert_eq!(s.snapshot().kb().len(), 1);
        assert_eq!(s.snapshot().kb().iter().next().unwrap().fact_count(), 1);
    }

    /// The facts and strategy of a bound goal response.
    fn bound_facts(r: Response) -> (Vec<String>, &'static str) {
        match r {
            Response::Facts {
                facts,
                strategy: Some(strategy),
                ..
            } => (facts.render(), strategy),
            other => panic!("expected bound Facts, got {other:?}"),
        }
    }

    #[test]
    fn bound_goals_derive_goal_directed_then_hit_the_table() {
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(2, 3), edge(3, 4)")
            .unwrap();
        s.execute(
            "DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
             (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]",
        )
        .unwrap();
        // no APPLY: the bound goal derives against the registered rules
        let (facts, strategy) = bound_facts(s.execute("QUERY CERTAIN path(1, x)").unwrap());
        assert_eq!(strategy, "magic");
        assert_eq!(facts, ["path(1, 2)", "path(1, 3)", "path(1, 4)"]);
        // the identical goal on the same snapshot is a table hit
        let (facts, strategy) = bound_facts(s.execute("QUERY CERTAIN path(1, x)").unwrap());
        assert_eq!(strategy, "tabled");
        assert_eq!(facts.len(), 3);
        // … and so is a *more specific* goal (subsumption)
        let (facts, strategy) = bound_facts(s.execute("QUERY CERTAIN path(1, 4)").unwrap());
        assert_eq!(strategy, "tabled");
        assert_eq!(facts, ["path(1, 4)"]);
        // a commit publishes a new epoch and evicts the memo
        s.execute("ASSERT edge(4, 5)").unwrap();
        let (facts, strategy) = bound_facts(s.execute("QUERY CERTAIN path(1, x)").unwrap());
        assert_eq!(strategy, "magic");
        assert_eq!(facts.len(), 4, "the new edge must be visible: {facts:?}");
    }

    #[test]
    fn each_epoch_owns_its_table_and_fact_commits_share_the_rulebase() {
        let s = service();
        s.execute(
            "DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
             (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]",
        )
        .unwrap();
        let older = s.snapshot();
        s.execute("ASSERT edge(1, 2), edge(2, 3)").unwrap();
        let goal = "QUERY CERTAIN path(1, x)";
        let (facts, strategy) = bound_facts(s.execute(goal).unwrap());
        assert_eq!((facts.len(), strategy), (2, "magic"));
        assert_eq!(bound_facts(s.execute(goal).unwrap()).1, "tabled");
        // a reader still holding the older snapshot answers at its own
        // epoch, against its own table …
        let mut vocab = older.vocab().clone();
        let QueryCmd::Certain(query) = parse_query("CERTAIN path(1, x)", &mut vocab).unwrap()
        else {
            panic!("expected a CERTAIN goal");
        };
        let old = s
            .read_goal(&older, &vocab, &query, true, ReadView::Answer)
            .unwrap();
        let Response::Facts { epoch, facts, .. } = old else {
            panic!("expected Facts");
        };
        assert_eq!(epoch, older.epoch());
        assert!(facts.is_empty(), "no edges at the older epoch: {facts:?}");
        // … and leaves the current epoch's memo in place
        let (facts, strategy) = bound_facts(s.execute(goal).unwrap());
        assert_eq!((facts.len(), strategy), (2, "tabled"));

        // fact commits and applications publish the rulebase they found;
        // only a DEFINE builds a new one
        let rulebase = s.snapshot().rulebase().cloned().expect("tc is Horn");
        assert!(Arc::ptr_eq(older.rulebase().unwrap(), &rulebase));
        for command in ["RETRACT edge(2, 3)", "APPLY tc", "ASSERT edge(3, 4)"] {
            s.execute(command).unwrap();
            let current = s.snapshot();
            assert!(
                Arc::ptr_eq(current.rulebase().unwrap(), &rulebase),
                "{command} must not rebuild the rulebase"
            );
        }
        s.execute("DEFINE hop := tau[forall x0 x1. edge(x0, x1) -> hop(x0, x1)]")
            .unwrap();
        let redefined = s.snapshot().rulebase().cloned().unwrap();
        assert!(!Arc::ptr_eq(&redefined, &rulebase));
        assert!(redefined.rules().len() > rulebase.rules().len());
    }

    #[test]
    fn a_redefinition_reaches_the_next_epochs_rulebase() {
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(2, 3), edge(3, 4)")
            .unwrap();
        s.execute(
            "DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
             (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]",
        )
        .unwrap();
        let (facts, strategy) = bound_facts(s.execute("QUERY CERTAIN path(1, x)").unwrap());
        assert_eq!(strategy, "magic");
        assert_eq!(facts, ["path(1, 2)", "path(1, 3)", "path(1, 4)"]);
        // `tc` again, one step only: the next epoch's rulebase is these rules
        s.execute("DEFINE tc := tau[forall x0 x1. edge(x0, x1) -> path(x0, x1)]")
            .unwrap();
        let (facts, strategy) = bound_facts(s.execute("QUERY CERTAIN path(1, x)").unwrap());
        assert_eq!(strategy, "magic");
        assert_eq!(facts, ["path(1, 2)"]);
    }

    #[test]
    fn bound_goals_match_the_materializing_oracle() {
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(2, 3), edge(3, 1), edge(4, 4)")
            .unwrap();
        s.execute(
            "DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
             (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]",
        )
        .unwrap();
        s.execute("APPLY tc").unwrap();
        // after APPLY the derived relation is stored, so the bare query is
        // the oracle: filtering it gives the expected bound answers …
        let Response::Facts { facts: oracle, .. } = s.execute("QUERY CERTAIN path").unwrap() else {
            panic!("expected Facts");
        };
        let (from_one, strategy) = bound_facts(s.execute("QUERY CERTAIN path(1, x)").unwrap());
        assert_eq!(strategy, "magic");
        let oracle = oracle.render();
        let expected: Vec<String> = oracle
            .iter()
            .filter(|f| f.starts_with("path(1,"))
            .cloned()
            .collect();
        assert_eq!(from_one, expected);
        // … and the fully-free goal re-derives the whole oracle
        let (all, strategy) = bound_facts(s.execute("QUERY CERTAIN path(x, y)").unwrap());
        assert_eq!(strategy, "magic");
        assert_eq!(all, oracle);
        // once the all-free call is memoized, it subsumes *every* pattern
        let (from_four, strategy) = bound_facts(s.execute("QUERY CERTAIN path(4, x)").unwrap());
        assert_eq!(strategy, "tabled");
        assert_eq!(from_four, ["path(4, 4)"]);
    }

    #[test]
    fn bound_goals_without_rules_materialize_stored_facts() {
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(1, 3), edge(2, 2)")
            .unwrap();
        let (facts, strategy) = bound_facts(s.execute("QUERY POSSIBLE edge(1, x)").unwrap());
        assert_eq!(strategy, "materialize");
        assert_eq!(facts, ["edge(1, 2)", "edge(1, 3)"]);
        let (facts, strategy) = bound_facts(s.execute("QUERY POSSIBLE edge(1, 2)").unwrap());
        assert_eq!(strategy, "tabled", "the subsuming call must be memoized");
        assert_eq!(facts, ["edge(1, 2)"]);
        // repeated variables constrain positions to be equal
        let (facts, _) = bound_facts(s.execute("QUERY POSSIBLE edge(x, x)").unwrap());
        assert_eq!(facts, ["edge(2, 2)"]);
    }

    #[test]
    fn bound_goals_reject_typos_with_typed_errors() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        assert!(matches!(
            s.execute("QUERY CERTAIN nowhere(1, x)"),
            Err(ServiceError::UnknownRelation(_))
        ));
        assert!(matches!(
            s.execute("QUERY CERTAIN edge(1)"),
            Err(ServiceError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            })
        ));
        // an unknown *constant* over known names is a legal empty answer,
        // not an error (the goal is well-formed; the fact just isn't there)
        let (facts, _) = bound_facts(s.execute("QUERY POSSIBLE edge('ghost', x)").unwrap());
        assert!(facts.is_empty());
    }

    #[test]
    fn bound_goal_metrics_count_strategies_and_table_hits() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        s.execute("DEFINE close := tau[forall x0 x1. edge(x0, x1) -> path(x0, x1)]")
            .unwrap();
        s.execute("QUERY CERTAIN path(1, x)").unwrap();
        s.execute("QUERY CERTAIN path(1, x)").unwrap();
        let text = s.metrics_text();
        assert!(
            text.contains("kbt_service_queries_magic_total 1\n"),
            "{text}"
        );
        assert!(
            text.contains("kbt_service_queries_tabled_total 1\n"),
            "{text}"
        );
        assert!(
            text.contains("kbt_service_queries_materialize_total 0\n"),
            "{text}"
        );
        // the engine-level table counters moved too (global registry, so
        // other tests may have bumped them — nonzero is the assertion)
        let hits: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("kbt_engine_table_hits "))
            .and_then(|v| v.trim().parse().ok())
            .expect("table hit counter must be exposed");
        assert!(hits >= 1);
    }

    #[test]
    fn explain_renders_the_adorned_magic_plan() {
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(2, 3)").unwrap();
        s.execute(
            "DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
             (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]",
        )
        .unwrap();
        let Response::Explain { rows, .. } = s.execute("EXPLAIN CERTAIN path(1, x)").unwrap()
        else {
            panic!("expected Explain");
        };
        assert_eq!(
            rows[0],
            "certain(path) pattern=bf: magic plan, answer=path_bf"
        );
        assert_eq!(rows[1], "seed m_path_bf(1)");
        assert!(
            rows.iter().any(|r| r.contains("m_path_bf(")),
            "magic guards must appear in the plan rows: {rows:?}"
        );
        assert!(
            rows.iter().any(|r| r.contains("path_bf(")),
            "adorned answer predicates must appear: {rows:?}"
        );
        // EXPLAIN never evaluates: rendering the plan twice changes nothing
        let Response::Explain { rows: again, .. } =
            s.execute("EXPLAIN CERTAIN path(1, x)").unwrap()
        else {
            panic!("expected Explain");
        };
        assert_eq!(rows, again, "the rendering must be stable");
        // PROFILE of the same goal carries the strategy and per-rule rows
        let Response::Profile { rows, .. } = s.execute("PROFILE CERTAIN path(1, x)").unwrap()
        else {
            panic!("expected Profile");
        };
        assert!(
            rows[0].starts_with("certain(path) pattern=bf strategy=magic: facts=2"),
            "{rows:?}"
        );
        assert!(rows.len() > 1, "per-rule profile rows must follow");
    }

    #[test]
    fn a_pushed_down_read_names_its_invented_predicates() {
        // `project[hits]` keeps only `hits`, so the insertion is rewritten
        // around it: `reach` is called reach^fb from the seed m_reach_fb(5)
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(2, 3), edge(3, 4), edge(4, 5), edge(7, 8)")
            .unwrap();
        let read = "project[edge]; tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
                    (forall x0 x1 x2. reach(x0, x1) & reach(x1, x2) -> reach(x0, x2)) & \
                    (forall x0. reach(x0, 5) -> hits(x0))]; project[hits]";
        let Response::Explain { rows, .. } = s.execute(&format!("EXPLAIN {read}")).unwrap() else {
            panic!("expected Explain");
        };
        assert!(
            rows.iter()
                .any(|r| r.starts_with("seed m_reach_fb(a5) :: ")),
            "the seed must render with its invented name: {rows:?}"
        );
        assert!(
            rows.iter()
                .any(|r| r.contains("reach_fb(x0, x1) :- m_reach_fb(x1), edge(x0, x1).")),
            "the guarded rule must render with its invented names: {rows:?}"
        );
        assert!(
            rows.iter().all(|r| !r.contains(" R") && !r.contains("(R")),
            "no invented relation may render as R<n>: {rows:?}"
        );
        // PROFILE evaluates the same plan and QUERY answers through it
        let Response::Profile { rows: profiled, .. } =
            s.execute(&format!("PROFILE {read}")).unwrap()
        else {
            panic!("expected Profile");
        };
        assert!(
            profiled.iter().any(|r| r.contains("m_reach_fb")),
            "{profiled:?}"
        );
        let Response::Worlds { worlds, .. } = s.execute(&format!("QUERY {read}")).unwrap() else {
            panic!("expected Worlds");
        };
        assert_eq!(
            worlds.render(),
            [["hits(1)", "hits(2)", "hits(3)", "hits(4)"]]
        );
    }

    #[test]
    fn reads_with_two_insertions_plan_as_they_run() {
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(2, 3), edge(3, 4), edge(4, 5), edge(7, 8)")
            .unwrap();
        let views = |read: &str| {
            let Response::Explain { rows, .. } = s.execute(&format!("EXPLAIN {read}")).unwrap()
            else {
                panic!("expected Explain");
            };
            let Response::Profile { rows: profiled, .. } =
                s.execute(&format!("PROFILE {read}")).unwrap()
            else {
                panic!("expected Profile");
            };
            let Response::Worlds { worlds, .. } = s.execute(&format!("QUERY {read}")).unwrap()
            else {
                panic!("expected Worlds");
            };
            assert_eq!(
                worlds.render(),
                [["hits(1)", "hits(2)", "hits(3)", "hits(4)"]]
            );
            (rows, profiled)
        };
        let closure = |over: &str| {
            format!(
                "tau[(forall x0 x1. {over}(x0, x1) -> reach(x0, x1)) & \
                 (forall x0 x1 x2. reach(x0, x1) & reach(x1, x2) -> reach(x0, x2)) & \
                 (forall x0. reach(x0, 5) -> hits(x0))]"
            )
        };

        // a different Horn insertion first: the closure is still inserted
        // once, so every view pushes `project[hits]` into it
        let read = format!(
            "project[edge]; tau[forall x0 x1. edge(x0, x1) -> link(x0, x1)]; {}; project[hits]",
            closure("link")
        );
        let (rows, profiled) = views(&read);
        for rows in [&rows, &profiled] {
            assert!(
                rows.iter().any(|r| r.contains("seed m_reach_fb(a5)")),
                "{rows:?}"
            );
            assert!(
                (rows.iter())
                    .any(|r| r.contains("reach_fb(x0, x1) :- m_reach_fb(x1), link(x0, x1).")),
                "{rows:?}"
            );
        }

        // the same closure inserted twice: a read keeps no chain session,
        // so every view pushes each projection into the insertion before it
        let read = format!(
            "project[edge]; {0}; project[edge]; {0}; project[hits]",
            closure("edge")
        );
        let (rows, profiled) = views(&read);
        for rows in [&rows, &profiled] {
            assert!(
                rows.iter().any(|r| r.contains("seed m_reach_fb(a5)")),
                "{rows:?}"
            );
        }
    }
}
