//! The fixpoint driver: delta-aware semi-naive evaluation over indexed
//! storage, sequential or parallel, optionally observed through a
//! [`View`].
//!
//! The caller supplies one positive [`Program`] of `kbt-logic` rules, which
//! is planned once and run to its least fixpoint.
//!
//! ## Row-slice evaluation
//!
//! The interpreter never materialises tuples while joining: scans and probes
//! hand out `&[Const]` row slices borrowed straight from the storage's
//! stored runs and tails, probe keys are single `u64`s accumulated in
//! registers (see [`crate::fx`]), and instantiated head facts go into a
//! per-task scratch buffer that the pending-set sink copies out of.  The
//! inner join loops perform **zero heap allocations per probe**.
//!
//! Nor does it keep any bookkeeping of its own.  Which slot each column of
//! a scanned or probed row binds, and which column it checks, is **static**:
//! the planner compiled it into the step ([`crate::plan::Schedule`]), so
//! the registers hold plain constants — a slot is read only after the
//! schedule has bound it — and nothing is undone between rows: the next
//! row simply binds the same slots again.  What each step reads — the
//! scanned run, the probed or checked relation — is looked up once per
//! task, not once per binding that reaches the step.
//!
//! There is one interpreter of plan steps, `run_steps`, generic over the
//! sink it feeds; the sink says whether to go on ([`ControlFlow`]).  A
//! fixpoint round wants every derivation, so its sinks always continue:
//! each task derives into one relation, its rule's head, so it binds its
//! filter to that relation once and collects into one bag.  The incremental
//! session's rederivation wants to know whether *one* derivation exists:
//! it unifies a rule's head with the fact in question (the head-bound
//! plan's entry schedule, [`JoinPlan::head_bound`]), runs the plan and
//! breaks at the first row that arrives (`derives`) — the same steps, the
//! same counters, no second walker.
//!
//! ## The commit contract: canonical, disjoint, moved out as the delta
//!
//! A round derives into per-relation bags and canonicalises each bag once
//! into a sorted, duplicate-free run — a plain [`Relation`].  `commit` is
//! the one place facts derived by a fixpoint enter storage, and it owns
//! both halves of the argument that lets it write without looking:
//!
//! * it runs the round under the **fixpoint filter** (keep a derived row
//!   iff storage does not hold it), so every pending run is *disjoint* from
//!   storage.  Each task binds the filter to its head once, as a
//!   [`MemberCursor`](crate::index::MemberCursor): while the head has only
//!   been appended to in bulk its membership is sorted key levels, and the
//!   cursor gallops a finger through each of them and through the stored
//!   run (see [`crate::index`]);
//! * storage is borrowed shared for the whole round and nothing writes
//!   between the filter's last lookup and the append, so the run is still
//!   disjoint when [`IndexStorage::append_run`] extends the tail with it —
//!   one reserve-then-extend, the run's keys pushed as one sorted level (a
//!   membership insert per row once the tail is chained) and one bucket
//!   push per live index per row, no second lookup;
//! * the pending runs are then **moved out** as the next round's delta.
//!   A delta is only ever scanned ([`crate::plan`] compiles every delta
//!   driver to a scan), so a sorted run is all it needs to be: no arena,
//!   no membership table, no copy.
//!
//! Each derived fact is therefore written twice in all — into its round's
//! run, and from the run into the tail — and because every tail the
//! fixpoint writes is a concatenation of such runs, materialising the
//! result merges them instead of sorting (see [`crate::index`]).
//!
//! ## Parallel rounds
//!
//! Within one fixpoint round every (rule, plan) pair reads the storage and
//! writes only to a pending-facts buffer, so rounds are embarrassingly
//! parallel, and one runner serves every width (`threads`, see
//! [`evaluate`]):
//!
//! 1. the round's plans are decomposed into `RoundTask`s.  Above width 1,
//!    in a round that drives at least `PAR_ROUND_THRESHOLD` tuples, a plan
//!    led by a scan contributes one task per *chunk* of the scanned
//!    relation's tuple range and any other plan a single task.  Otherwise
//!    — at width 1, or in a round too small for the fan-out to pay — every
//!    plan is one whole-plan task and the round runs at width 1;
//! 2. the tasks go through one [`kbt_par::map`], which runs them inline
//!    at width 1 and on scoped helper threads above it, every one joined
//!    before the call returns; every task derives into **private** bags
//!    with private [`EngineStats`] counters — tasks share nothing mutable;
//! 3. the bags are merged **in task order** (rule index first, chunk
//!    offset second), each relation's pending rows are sorted and
//!    deduplicated once, and the per-task counters are summed.
//!
//! Because the canonicalised pending set is an order-insensitive union and
//! commit appends it in sorted order, the storage contents, the resulting
//! [`Database`] *and every statistics counter* are byte-identical at every
//! width, and the differential tests hold them equal.  The merge keeps one
//! bag per task, in task order, on purpose: the canonicalising sort then
//! sees each relation's rows in scan order, chunk after chunk.  One
//! accumulator per worker interleaves the chunks instead, and measured
//! 14 % slower on `closure_scan` (`read_p50_us` 28 242 → 32 225 µs, with
//! 13 % more CPU).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{ControlFlow, Range};

use kbt_data::{Const, Database, RelId, Relation};

use crate::fx::{key_is_exact, KeyAcc};
use crate::index::IndexedRelation;
use crate::plan::{Arg, JoinPlan, PlannedRule, Schedule, Source, Step};
use crate::profile::{RoundObserver, View};
use crate::program::Program;
use crate::stats::EngineStats;
use crate::storage::IndexStorage;
use crate::Result;

/// Computes the least fixpoint of `program` over `edb` — the engine's one
/// evaluation entry.
///
/// Every relation the program mentions is materialised (empty if absent
/// from `edb`); the result contains the EDB unchanged plus the derived
/// facts.  Only the relations the program names are loaded into indexed
/// storage, and loading copies nothing: each stored run is the shared first
/// segment of the relation the rounds read, and the rounds' derivations go
/// into private tails on top of it ([`IndexStorage::load`]).  The indexes
/// and membership tables the plans demand on a stored run are cached on
/// the run, so a second evaluation over an `edb` that shares its runs —
/// every read of one epoch, and of the next for each relation a commit left
/// untouched — builds none of them again.  Every other relation of `edb` —
/// and every named one nothing was derived into — is in the result as the
/// very `Arc` it came in as.
/// `threads` is the evaluation width: `0` uses the process default
/// ([`kbt_par::default_threads`] — the `KBT_THREADS` environment variable,
/// else the machine's available parallelism), `1` is the exact sequential
/// path, anything larger fans the rounds out through `kbt_par::map`;
/// results and statistics are identical at every width.  `view` selects
/// what is recorded on the way (see
/// [`crate::profile`]): `None` records nothing; a profiling view gets one
/// [`crate::RuleProfile`] per planned rule, filled in by the round
/// observer; a plan-only view gets the same rows zeroed and the rounds are
/// **skipped**, along with everything only they need (no index and no
/// membership table is built) — the returned database is then the
/// un-evaluated storage and the statistics are all zero.  `keep` restricts
/// the result to the kept relations (see [`IndexStorage::overlay_on`]): a
/// caller that projects the fixpoint anyway never pays to materialise what
/// it drops.
pub fn evaluate(
    program: &Program,
    edb: &Database,
    threads: usize,
    view: Option<&mut View<'_>>,
    keep: Option<&[RelId]>,
) -> Result<(Database, EngineStats)> {
    let runs = view.as_ref().is_none_or(|v| v.runs());
    let metrics = crate::metrics::metrics();
    let _eval_span = runs.then(|| metrics.eval_ns.span());
    let mut storage = {
        let _load_span = runs.then(|| metrics.load_ns.span());
        IndexStorage::load(edb, program.schema().iter())?
    };
    let (_, stats) = eval_program(
        program,
        &mut storage,
        kbt_par::resolve_threads(threads),
        view,
        Program::idb_relations,
    );
    if runs {
        metrics.evals_total.inc();
        metrics.absorb_stats(&stats);
    }
    let _materialize_span = runs.then(|| metrics.materialize_ns.span());
    Ok((storage.overlay_on(edb, keep), stats))
}

/// The engine's one plan-and-run: plans `program` over the loaded `storage`
/// and, unless `view` is plan-only, demands what its plans look up and runs
/// them to the fixpoint.  A program with no rules — `τ_true`'s, or a
/// push-down's whose projection keeps no head — plans and runs nothing.
/// `eligible` names the relations that get delta-scan variants: the heads
/// for one-shot evaluation, every body relation as well for the incremental
/// session, whose extensional relations change too.  Returns the plans for
/// a caller that goes on running them.
pub(crate) fn eval_program(
    program: &Program,
    storage: &mut IndexStorage,
    width: usize,
    view: Option<&mut View<'_>>,
    eligible: fn(&Program) -> BTreeSet<RelId>,
) -> (Vec<PlannedRule>, EngineStats) {
    let mut stats = EngineStats::default();
    if program.is_empty() {
        return (Vec::new(), stats);
    }
    let runs = view.as_ref().is_none_or(|v| v.runs());
    let planned = plan_program(program, storage, runs, eligible);
    let mut observer = view.map(|v| v.observe(program, &planned));
    if runs {
        run_to_fixpoint(&planned, storage, &mut stats, width, observer.as_mut());
    }
    (planned, stats)
}

/// [`eval_program`]'s planner: plans `program` against the cardinalities
/// `storage` holds now and, when `demanded`, builds what the plans look up.
/// The incremental session's [`from_fixpoint`] plans through it too, and
/// runs no round.
///
/// [`from_fixpoint`]: crate::IncrementalSession::from_fixpoint
pub(crate) fn plan_program(
    program: &Program,
    storage: &mut IndexStorage,
    demanded: bool,
    eligible: fn(&Program) -> BTreeSet<RelId>,
) -> Vec<PlannedRule> {
    let _load_span = demanded.then(|| crate::metrics::metrics().load_ns.span());
    let (sizes, eligible) = (relation_sizes(program, storage), eligible(program));
    let planned: Vec<PlannedRule> = (program.rules().iter())
        .map(|rule| PlannedRule::plan_sized(rule, &eligible, &sizes))
        .collect();
    if demanded {
        demand(planned.iter().flat_map(PlannedRule::steps), storage);
    }
    planned
}

/// The cardinalities of the relations `program` names, as stored right now:
/// what the planner breaks greedy ties with.
pub(crate) fn relation_sizes(program: &Program, storage: &IndexStorage) -> BTreeMap<RelId, usize> {
    (program.schema().relations())
        .map(|rel| (rel, storage.relation_len(rel)))
        .collect()
}

/// Builds what running `steps` will look up: the index of every probed
/// `(relation, mask)` and the membership table of every `Member` target.
pub(crate) fn demand<'a>(steps: impl IntoIterator<Item = &'a Step>, storage: &mut IndexStorage) {
    for step in steps {
        match step {
            Step::Probe { rel, mask, .. } => storage.ensure_index(*rel, *mask),
            Step::Member { rel, .. } => storage.demand_membership(*rel),
            Step::Scan { .. } => {}
        }
    }
}

/// An unsorted bag of derived head rows for one relation: an arity-strided
/// buffer that is canonicalised (sorted, deduplicated) once per round
/// instead of paying a tree insertion per derivation.
#[derive(Clone, Debug)]
pub(crate) struct RowBag {
    arity: usize,
    rows: Vec<Const>,
    count: usize,
}

impl RowBag {
    pub(crate) fn new(arity: usize) -> Self {
        RowBag {
            arity,
            rows: Vec::new(),
            count: 0,
        }
    }

    pub(crate) fn push(&mut self, row: &[Const]) {
        debug_assert_eq!(row.len(), self.arity);
        self.rows.extend_from_slice(row);
        self.count += 1;
    }

    /// Appends another bag (same relation, so same arity).
    fn absorb(&mut self, other: RowBag) {
        debug_assert_eq!(self.arity, other.arity);
        self.rows.extend_from_slice(&other.rows);
        self.count += other.count;
    }

    /// Canonicalises the bag into a sorted, duplicate-free run.
    fn into_run(self) -> Relation {
        Relation::from_rows(self.arity, self.rows, self.count)
            .expect("the bag is arity-strided by construction")
    }
}

/// Uncanonicalised derivations per relation — entries exist only for
/// relations with at least one row.
pub(crate) type Bags = BTreeMap<RelId, RowBag>;

/// Canonical (sorted, duplicate-free) runs of facts per relation, entries
/// only for relations with at least one row: what a round returns as its
/// pending set, what [`commit`] appends, and — moved, not copied — what the
/// next round's delta plans scan.
pub(crate) type Deltas = BTreeMap<RelId, Relation>;

/// Canonicalises every bag.
pub(crate) fn into_runs(bags: Bags) -> Deltas {
    bags.into_iter()
        .map(|(rel, bag)| (rel, bag.into_run()))
        .collect()
}

/// Minimum number of driving tuples in a round before it is fanned out;
/// below this, coordination overhead dominates and the round runs at width
/// 1 (with identical results and counters — see module docs).
const PAR_ROUND_THRESHOLD: usize = 256;

/// Minimum tuples per chunk of a driving scan, so per-task overhead stays
/// negligible.
const PAR_MIN_CHUNK: usize = 64;

/// How many chunks per participating thread a driving scan is cut into:
/// more than one, so a slow chunk does not serialise the round's tail.
const CHUNKS_PER_THREAD: usize = 4;

/// What a scan step walks: a stored relation's slots, tombstones skipped,
/// or a delta run.
#[derive(Clone, Copy)]
enum Scanned<'a> {
    Stored(&'a IndexedRelation),
    Delta(&'a Relation),
}

impl<'a> Scanned<'a> {
    /// The relation a scan of `rel` from `source` walks; `None` when there
    /// is nothing to scan (the plan derives nothing).
    fn of(
        rel: RelId,
        source: Source,
        storage: &'a IndexStorage,
        deltas: &'a Deltas,
    ) -> Option<Self> {
        match source {
            Source::Full => storage.relation(rel).map(Scanned::Stored),
            Source::Delta => deltas.get(&rel).map(Scanned::Delta),
        }
    }

    /// The valid id range is `0..slots()`.
    fn slots(self) -> u32 {
        match self {
            Scanned::Stored(r) => r.slot_count(),
            Scanned::Delta(r) => r.len() as u32,
        }
    }

    /// Number of rows a full walk yields.
    fn len(self) -> usize {
        match self {
            Scanned::Stored(r) => r.len(),
            Scanned::Delta(r) => r.len(),
        }
    }

    /// The row in slot `id`, unless it is a tombstone.
    #[inline]
    fn live_row(self, id: u32) -> Option<&'a [Const]> {
        match self {
            Scanned::Stored(r) => r.is_live(id).then(|| r.row(id)),
            Scanned::Delta(r) => Some(r.row(id as usize)),
        }
    }
}

/// What one step of a plan reads, looked up once per task (or per
/// [`derives`] call) rather than once per binding that reaches the step.
enum Input<'a> {
    /// A scan's relation and the slots it walks: all of them, or the
    /// chunk a ranged task drives.
    Rows(Scanned<'a>, Range<u32>),
    /// The stored relation a probe or a membership check looks into.
    Stored(&'a IndexedRelation),
    /// Nothing to read: the step, and so the plan, yields nothing.
    Absent,
}

/// The inputs of `steps`, one per step, in order.
fn inputs<'a>(steps: &[Step], storage: &'a IndexStorage, deltas: &'a Deltas) -> Vec<Input<'a>> {
    let input = |step: &Step| match step {
        Step::Scan { rel, source, .. } => Scanned::of(*rel, *source, storage, deltas)
            .map(|scanned| Input::Rows(scanned, 0..scanned.slots())),
        Step::Probe { rel, .. } | Step::Member { rel, .. } => {
            storage.relation(*rel).map(Input::Stored)
        }
    };
    steps
        .iter()
        .map(|step| input(step).unwrap_or(Input::Absent))
        .collect()
}

/// One unit of parallel work within a round: a plan, optionally restricted
/// to a slice of its driving scan.
struct RoundTask<'a> {
    rule: &'a PlannedRule,
    plan: &'a JoinPlan,
    /// Tuple-slot range of the driving scan; `None` runs the whole plan.
    range: Option<Range<u32>>,
}

/// Decomposes a round's plans into tasks and picks the width to run them
/// at (see the module docs).  Above width 1 a plan led by a scan
/// contributes one task per chunk of the scanned relation's slots, any
/// other plan a single task; at width 1, or when those drive fewer than
/// [`PAR_ROUND_THRESHOLD`] live tuples, every plan is one whole-plan task
/// and the width is 1.  The chunks depend only on the slot counts and the
/// width, never on scheduling.
fn round_tasks<'a>(
    plans: &[(&'a PlannedRule, &'a JoinPlan)],
    storage: &IndexStorage,
    deltas: &Deltas,
    width: usize,
) -> (Vec<RoundTask<'a>>, usize) {
    let whole = || {
        let tasks = plans.iter().map(|&(rule, plan)| RoundTask {
            rule,
            plan,
            range: None,
        });
        (tasks.collect(), 1)
    };
    if width <= 1 {
        return whole();
    }
    let mut tasks = Vec::new();
    let mut driving = 0usize;
    for &(rule, plan) in plans {
        let Some((Step::Scan { rel, source, .. }, _)) = plan.split_driving_scan() else {
            driving += 1;
            tasks.push(RoundTask {
                rule,
                plan,
                range: None,
            });
            continue;
        };
        let Some(scanned) = Scanned::of(*rel, *source, storage, deltas) else {
            continue; // nothing to scan: the plan derives nothing
        };
        let slots = scanned.slots();
        if slots == 0 {
            continue;
        }
        driving += scanned.len();
        let chunk = (slots as usize)
            .div_ceil(width * CHUNKS_PER_THREAD)
            .max(PAR_MIN_CHUNK) as u32;
        let mut start = 0u32;
        while start < slots {
            let end = slots.min(start + chunk);
            tasks.push(RoundTask {
                rule,
                plan,
                range: Some(start..end),
            });
            start = end;
        }
    }
    if driving < PAR_ROUND_THRESHOLD {
        return whole();
    }
    (tasks, width)
}

/// Per-task scratch space, allocated once per task (or per [`derives`]
/// call) and reused by every derivation, so the join loops themselves never
/// touch the heap: the register file and the head-fact buffer.  The plan's
/// schedule binds every register before anything reads it, so the value a
/// register starts with is never seen.
struct Scratch {
    regs: Vec<Const>,
    head: Vec<Const>,
}

impl Scratch {
    fn for_rule(rule: &PlannedRule) -> Self {
        Scratch {
            regs: vec![Const::new(0); rule.slots],
            head: Vec::with_capacity(rule.head_args.len()),
        }
    }
}

/// Runs one task — its plan, its driving scan restricted to the task's
/// chunk if it has one — feeding instantiated head rows to `sink`.
fn run_task<S>(
    task: &RoundTask<'_>,
    storage: &IndexStorage,
    deltas: &Deltas,
    stats: &mut EngineStats,
    sink: &mut S,
) where
    S: FnMut(&[Const]) -> ControlFlow<()>,
{
    let mut inputs = inputs(&task.plan.steps, storage, deltas);
    if let (Some(chunk), Some(Input::Rows(_, ids))) = (&task.range, inputs.first_mut()) {
        *ids = chunk.clone();
    }
    let mut scratch = Scratch::for_rule(task.rule);
    let _ = run_steps(
        task.rule,
        &task.plan.steps,
        &inputs,
        &mut scratch,
        stats,
        sink,
    );
}

/// Runs one round — every listed plan — and returns the pending head facts
/// that pass their relation's filter, one canonical run per relation.  A
/// task derives into one relation, its rule's head, so it asks `keep` for
/// that relation's filter once, up front, and collects into one bag.
///
/// The round's tasks go through one [`kbt_par::map`] at every width (inline
/// at width 1, above it on helper threads that end with the call); private
/// per-task buffers are merged in task order, so the result and the
/// counters added to `stats` are identical at every width.
pub(crate) fn run_round_with<K, F>(
    plans: &[(&PlannedRule, &JoinPlan)],
    storage: &IndexStorage,
    deltas: &Deltas,
    stats: &mut EngineStats,
    width: usize,
    keep: &K,
) -> Deltas
where
    K: Fn(RelId) -> F + Sync,
    F: FnMut(&[Const]) -> bool,
{
    let metrics = crate::metrics::metrics();
    let join_span = metrics.join_ns.span();
    let (tasks, width) = round_tasks(plans, storage, deltas, width);
    let results = kbt_par::map(width, &tasks, |_, task| {
        let rule = task.rule;
        let (mut keep, mut bag) = (keep(rule.head), RowBag::new(rule.head_args.len()));
        let mut local = EngineStats::default();
        run_task(task, storage, deltas, &mut local, &mut |row: &[Const]| {
            if keep(row) {
                bag.push(row);
            }
            ControlFlow::Continue(())
        });
        (bag, local)
    });
    // Deterministic merge: task order is rule order then chunk offset, and
    // the canonicalisation below erases even that.
    let mut pending = Bags::new();
    for (task, (bag, local)) in tasks.iter().zip(results) {
        stats.absorb(&local);
        if bag.count == 0 {
            continue;
        }
        match pending.entry(task.rule.head) {
            Entry::Vacant(v) => {
                v.insert(bag);
            }
            Entry::Occupied(mut o) => o.get_mut().absorb(bag),
        }
    }
    drop(join_span);
    let _sort_span = metrics.sort_ns.span();
    into_runs(pending)
}

/// One fixpoint round, start to finish — the engine's one commit (see the
/// module docs for the contract): derives `plans` under the fixpoint filter,
/// bulk-appends what came out, and returns it as the next round's delta.
///
/// Unobserved, the plans run as one batch.  Observed, the same plans run
/// one execution at a time against the same unchanged storage with the same
/// filter, the observer reading clock and counters **between** executions,
/// and the parts are merged into the canonical union the batch would have
/// produced — so observation never changes the pending set or the counters
/// (see [`crate::profile`]).
pub(crate) fn commit(
    plans: &[(&PlannedRule, &JoinPlan)],
    storage: &mut IndexStorage,
    deltas: &Deltas,
    stats: &mut EngineStats,
    width: usize,
    observer: Option<&mut RoundObserver<'_>>,
) -> Deltas {
    let pending = {
        let storage = &*storage;
        // the fixpoint filter, a cursor over the head relation per task
        let keep = |rel: RelId| {
            let mut stored = storage.relation(rel).map(IndexedRelation::member_cursor);
            move |row: &[Const]| !stored.as_mut().is_some_and(|r| r.contains(row))
        };
        match observer {
            None => run_round_with(plans, storage, deltas, stats, width, &keep),
            Some(observer) => {
                observer.begin_round();
                let mut pending = Deltas::new();
                for &(rule, plan) in plans {
                    observer.observe_plan(rule, stats, &mut pending, |stats| {
                        run_round_with(&[(rule, plan)], storage, deltas, stats, width, &keep)
                    });
                }
                pending
            }
        }
    };
    let _commit_span = crate::metrics::metrics().commit_ns.span();
    for (&rel, run) in &pending {
        stats.derived_facts += run.len();
        storage.append_run(rel, run);
    }
    pending
}

/// The delta-variant plans whose driving delta is non-empty this round.
pub(crate) fn delta_plans<'a>(
    rules: &'a [PlannedRule],
    delta: &Deltas,
) -> Vec<(&'a PlannedRule, &'a JoinPlan)> {
    rules
        .iter()
        .flat_map(|rule| {
            rule.deltas
                .iter()
                .filter(|(driver, _)| delta.get(driver).is_some_and(|d| !d.is_empty()))
                .map(move |(_, plan)| (rule, plan))
        })
        .collect()
}

/// Runs the planned rules to their least fixpoint — the engine's one
/// commit-until-the-delta-is-empty loop.  The seeding round runs every
/// rule's full plan; each later round runs only the delta variants driven
/// by the facts the previous round committed.
///
/// Kept out of line: inlined into [`eval_program`], its one caller, it made
/// `commit_stream`'s goal reads slower end to end (`stackbench`
/// `read_p50_us` 355 against 295 µs on a 2-core machine, three seeds each).
#[inline(never)]
pub(crate) fn run_to_fixpoint(
    rules: &[PlannedRule],
    storage: &mut IndexStorage,
    stats: &mut EngineStats,
    width: usize,
    mut observer: Option<&mut RoundObserver<'_>>,
) {
    let round_ns = &crate::metrics::metrics().round_ns;
    let mut plans: Vec<(&PlannedRule, &JoinPlan)> = rules.iter().map(|r| (r, &r.full)).collect();
    let mut delta = Deltas::new();
    loop {
        stats.iterations += 1;
        let _round_span = round_ns.span();
        delta = commit(
            &plans,
            storage,
            &delta,
            stats,
            width,
            observer.as_deref_mut(),
        );
        if delta.is_empty() {
            break;
        }
        plans = delta_plans(rules, &delta);
    }
}

/// Whether `rule` derives the head row `fact` from the current storage:
/// unifies the head with the fact per `plan`'s entry schedule and runs
/// `plan` — a head-bound plan of this rule ([`JoinPlan::head_bound`]), whose
/// indexes and membership tables have been [`demand`]ed — through the one
/// interpreter, stopping at the first witness.
pub(crate) fn derives(
    rule: &PlannedRule,
    plan: &JoinPlan,
    fact: &[Const],
    storage: &IndexStorage,
    stats: &mut EngineStats,
) -> bool {
    let mut scratch = Scratch::for_rule(rule);
    if !unify(fact, &plan.entry, &mut scratch.regs) {
        return false;
    }
    let no_deltas = Deltas::new();
    let inputs = inputs(&plan.steps, storage, &no_deltas);
    run_steps(rule, &plan.steps, &inputs, &mut scratch, stats, &mut |_| {
        ControlFlow::Break(())
    })
    .is_break()
}

#[inline]
fn resolve(arg: Arg, regs: &[Const]) -> Const {
    match arg {
        Arg::Const(c) => c,
        Arg::Slot(s) => regs[s],
    }
}

/// Binds and checks `row` per `schedule`; returns whether the row matches.
/// A mismatch leaves the slots it bound holding this row's values, which
/// nothing reads: the next row binds them again, and the steps before this
/// one never read them.
#[inline]
fn unify(row: &[Const], schedule: &Schedule, regs: &mut [Const]) -> bool {
    for &(col, slot) in &schedule.binds {
        regs[slot] = row[col];
    }
    (schedule.checks.iter()).all(|&(col, term)| row[col] == resolve(term, regs))
}

/// Whether `row` matches the resolved key terms on `mask`'s bound columns —
/// the verification pass behind hashed (> 2 column) probe keys, whose
/// buckets may contain false positives.
#[inline]
fn bound_cols_match(row: &[Const], mask: u32, key: &[Arg], regs: &[Const]) -> bool {
    let mut m = mask;
    let mut k = 0;
    while m != 0 {
        let col = m.trailing_zeros() as usize;
        if row[col] != resolve(key[k], regs) {
            return false;
        }
        k += 1;
        m &= m - 1;
    }
    true
}

/// Whether `relation` holds the fully determined row `terms` resolves to —
/// one membership-bucket probe, no tuple materialisation.  The terms cover
/// every column in ascending order, so the accumulated key is exactly the
/// stored row key.
fn member_holds(relation: &IndexedRelation, terms: &[Arg], regs: &[Const]) -> bool {
    debug_assert_eq!(terms.len(), relation.arity());
    let mut acc = KeyAcc::new(terms.len());
    for &t in terms {
        acc.push(resolve(t, regs));
    }
    // packed keys are injective over the full row
    let exact = key_is_exact(terms.len());
    relation.holds_key(acc.finish(), |row| {
        exact || row.iter().zip(terms).all(|(&v, &t)| v == resolve(t, regs))
    })
}

/// The engine's one interpreter of [`Step`]s, behind every round's tasks
/// and [`derives`].  `inputs` holds what each step reads, split level by
/// level alongside `steps`.  Every slot a step reads was bound before it —
/// by an earlier step's schedule, or on entry — so the registers are plain
/// constants and nothing is undone between rows.  `sink` receives every
/// instantiated head row and says whether to go on: a round's always
/// continues, [`derives`]'s breaks at the first row, and so does this.
fn run_steps<S>(
    rule: &PlannedRule,
    steps: &[Step],
    inputs: &[Input<'_>],
    scratch: &mut Scratch,
    stats: &mut EngineStats,
    sink: &mut S,
) -> ControlFlow<()>
where
    S: FnMut(&[Const]) -> ControlFlow<()>,
{
    let (Some((step, rest)), Some((input, rest_inputs))) =
        (steps.split_first(), inputs.split_first())
    else {
        let Scratch { regs, head } = scratch;
        head.clear();
        head.extend(rule.head_args.iter().map(|&t| resolve(t, regs)));
        return sink(head);
    };
    match (step, input) {
        (Step::Scan { schedule, .. }, Input::Rows(scanned, ids)) => {
            for row in ids.clone().filter_map(|id| scanned.live_row(id)) {
                stats.tuples_scanned += 1;
                if unify(row, schedule, &mut scratch.regs) {
                    run_steps(rule, rest, rest_inputs, scratch, stats, sink)?;
                }
            }
        }
        (
            Step::Probe {
                mask,
                key,
                schedule,
                ..
            },
            Input::Stored(relation),
        ) => {
            let mut acc = KeyAcc::new(key.len());
            for &t in key {
                acc.push(resolve(t, &scratch.regs));
            }
            stats.index_probes += 1;
            let exact = key_is_exact(key.len());
            for id in relation.probe_bucket(*mask, acc.finish()) {
                let row = relation.row(id);
                if !exact && !bound_cols_match(row, *mask, key, &scratch.regs) {
                    continue; // hash collision in a wide-key bucket
                }
                stats.tuples_scanned += 1;
                if unify(row, schedule, &mut scratch.regs) {
                    run_steps(rule, rest, rest_inputs, scratch, stats, sink)?;
                }
            }
        }
        (Step::Member { terms, .. }, input) => {
            stats.index_probes += 1;
            if matches!(input, Input::Stored(r) if member_holds(r, terms, &scratch.regs)) {
                run_steps(rule, rest, rest_inputs, scratch, stats, sink)?;
            }
        }
        // a scan or probe of nothing yields nothing
        (Step::Scan { .. } | Step::Probe { .. }, _) => {}
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{tuple, DatabaseBuilder};
    use kbt_logic::{Atom, Rule, Term, Var};

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn x(i: u32) -> Term {
        Term::Var(Var::new(i))
    }

    /// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
    fn tc_program() -> Program {
        Program::new(vec![
            Rule::new(
                Atom::new(r(2), vec![x(0), x(1)]),
                vec![Atom::new(r(1), vec![x(0), x(1)])],
            ),
            Rule::new(
                Atom::new(r(2), vec![x(0), x(2)]),
                vec![
                    Atom::new(r(2), vec![x(0), x(1)]),
                    Atom::new(r(1), vec![x(1), x(2)]),
                ],
            ),
        ])
        .unwrap()
    }

    fn eval(program: &Program, edb: &Database, threads: usize) -> (Database, EngineStats) {
        evaluate(program, edb, threads, None, None).unwrap()
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
        let (fix, stats) = eval(&tc_program(), &chain_db(6), 0);
        assert_eq!(fix.relation(r(2)).unwrap().len(), 15);
        assert!(fix.holds(r(2), &tuple![1, 6]));
        assert!(!fix.holds(r(2), &tuple![6, 1]));
        assert_eq!(stats.derived_facts, 15);
        assert!(stats.index_probes > 0);
    }

    #[test]
    fn fact_rules_and_constants() {
        // p(x) :- edge(1, x).   q(7).
        let program = Program::new(vec![
            Rule::new(
                Atom::new(r(3), vec![x(0)]),
                vec![Atom::new(r(1), vec![Term::Const(Const::new(1)), x(0)])],
            ),
            Rule::fact(Atom::new(r(4), vec![Term::Const(Const::new(7))])),
        ])
        .unwrap();
        let edb = chain_db(4);
        let (fix, _) = eval(&program, &edb, 0);
        assert!(fix.holds(r(3), &tuple![2]));
        assert!(!fix.holds(r(3), &tuple![3]));
        assert!(fix.holds(r(4), &tuple![7]));
    }

    #[test]
    fn repeated_variables_within_an_atom() {
        // loops(x) :- edge(x, x).
        let program = Program::new(vec![Rule::new(
            Atom::new(r(3), vec![x(0)]),
            vec![Atom::new(r(1), vec![x(0), x(0)])],
        )])
        .unwrap();
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        b = b
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 2])
            .fact(r(1), [3u32, 3]);
        let edb = b.build().unwrap();
        let (fix, _) = eval(&program, &edb, 0);
        assert_eq!(fix.relation(r(3)).unwrap().len(), 2);
        assert!(fix.holds(r(3), &tuple![2]));
        assert!(fix.holds(r(3), &tuple![3]));
    }

    /// Wide rows exercise the hashed (> 2 column) key paths: membership
    /// and probes must verify bucket candidates.
    #[test]
    fn wide_relations_join_through_hashed_keys() {
        // w(a,b,c,d) :- e3(a,b,c), f(c,d), g3(a,b,d).
        let program = Program::new(vec![Rule::new(
            Atom::new(r(5), vec![x(0), x(1), x(2), x(3)]),
            vec![
                Atom::new(r(1), vec![x(0), x(1), x(2)]),
                Atom::new(r(2), vec![x(2), x(3)]),
                Atom::new(r(3), vec![x(0), x(1), x(3)]),
            ],
        )])
        .unwrap();
        let edb = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2, 3])
            .fact(r(1), [4u32, 5, 6])
            .fact(r(2), [3u32, 7])
            .fact(r(2), [6u32, 8])
            .fact(r(3), [4u32, 5, 8])
            .build()
            .unwrap();
        let (fix, _) = eval(&program, &edb, 0);
        assert_eq!(fix.relation(r(5)).unwrap().len(), 1);
        assert!(fix.holds(r(5), &tuple![4, 5, 6, 8]));
        assert!(!fix.holds(r(5), &tuple![1, 2, 3, 7]), "no g3(1, 2, 7)");
    }

    /// `chains` disjoint chains of `len` edges each — enough driving tuples
    /// per round to clear the parallel fan-out threshold.
    fn braid_db(chains: u32, len: u32) -> Database {
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        for c in 0..chains {
            let base = c * (len + 2) + 1;
            for i in 0..len {
                b = b.fact(r(1), [base + i, base + i + 1]);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn parallel_widths_match_sequential_bytes_and_stats() {
        let edb = braid_db(40, 16);
        let (seq, seq_stats) = eval(&tc_program(), &edb, 1);
        for threads in [2, 4] {
            let (par, par_stats) = eval(&tc_program(), &edb, threads);
            assert_eq!(seq, par, "fixpoint diverges at width {threads}");
            assert_eq!(seq_stats, par_stats, "stats diverge at width {threads}");
        }
    }

    #[test]
    fn small_rounds_stay_sequential_but_identical() {
        // far below the fan-out threshold: the cutoff must not be observable
        let edb = chain_db(8);
        let (seq, seq_stats) = eval(&tc_program(), &edb, 1);
        let (par, par_stats) = eval(&tc_program(), &edb, 4);
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn empty_edb_yields_empty_idb() {
        let edb = DatabaseBuilder::new().relation(r(1), 2).build().unwrap();
        let (fix, stats) = eval(&tc_program(), &edb, 0);
        assert!(fix.relation(r(2)).unwrap().is_empty());
        assert_eq!(stats.derived_facts, 0);
    }

    /// tri(x,y,z) :- edge(x,y), edge(y,z), edge(z,x): probes `edge` on its
    /// first column and closes with a membership check on it.
    fn triangle_rule() -> Rule {
        let e = |a, b| Atom::new(r(1), vec![a, b]);
        Rule::new(
            Atom::new(r(3), vec![x(0), x(1), x(2)]),
            vec![e(x(0), x(1)), e(x(1), x(2)), e(x(2), x(0))],
        )
    }

    #[test]
    fn plan_only_views_build_no_index_and_no_membership_table() {
        let program = Program::new([tc_program().rules(), &[triangle_rule()]].concat()).unwrap();
        let edb = chain_db(6);
        let namer = |rel: RelId| rel.to_string();
        let load = || IndexStorage::load(&edb, program.schema().iter()).unwrap();

        let mut storage = load();
        let mut planned_only = View::explain(&namer);
        let (_, stats) = eval_program(
            &program,
            &mut storage,
            1,
            Some(&mut planned_only),
            Program::idb_relations,
        );
        assert_eq!(stats, EngineStats::default());
        let edge = storage.relation(r(1)).unwrap();
        assert_eq!(edge.index_count(), 0, "EXPLAIN must not build indexes");
        assert!(!edge.has_membership(), "EXPLAIN must not hash the EDB");
        assert!(storage.relation(r(2)).unwrap().is_empty(), "no round ran");

        // the same rows the public entry explains, and the plans a run runs
        let mut explained = View::explain(&namer);
        evaluate(&program, &edb, 1, Some(&mut explained), None).unwrap();
        assert_eq!(planned_only.rows, explained.rows);
        let mut profiled = View::profile(&namer);
        evaluate(&program, &edb, 1, Some(&mut profiled), None).unwrap();
        let plans = |v: &View<'_>| v.rows.iter().map(|p| p.plan.clone()).collect::<Vec<_>>();
        assert_eq!(plans(&planned_only), plans(&profiled));

        // whereas a run demands exactly what its steps look up
        let mut storage = load();
        eval_program(&program, &mut storage, 1, None, Program::idb_relations);
        let edge = storage.relation(r(1)).unwrap();
        assert_eq!(edge.index_count(), 1, "probed on the first column");
        assert!(edge.has_membership(), "the closing edge is a Member step");
    }

    #[test]
    fn unnamed_and_unwritten_relations_come_back_as_the_arcs_they_went_in_as() {
        // r(7) and r(8) are named by no rule; r(1) is named but only read
        let edb = {
            let mut b = DatabaseBuilder::new().relation(r(8), 3);
            for i in 0..20u32 {
                b = b.fact(r(7), [i, i + 1]);
            }
            let mut edb = b.build().unwrap();
            for (rel, relation) in chain_db(6).iter() {
                edb.set_relation(rel, relation.clone());
            }
            edb
        };
        for threads in [1, 4] {
            let (fix, _) = eval(&tc_program(), &edb, threads);
            for rel in [r(1), r(7), r(8)] {
                assert!(
                    fix.relation(rel)
                        .unwrap()
                        .shares_rows(edb.relation(rel).unwrap()),
                    "{rel} was copied"
                );
            }
            assert_eq!(fix.relation(r(2)).unwrap().len(), 15);
            assert_eq!(fix.schema().relations().count(), 4);
        }
        // a plan-only view hands the whole EDB back the same way
        let namer = |rel: RelId| rel.to_string();
        let mut view = View::explain(&namer);
        let (fix, _) = evaluate(&tc_program(), &edb, 1, Some(&mut view), None).unwrap();
        assert!(fix
            .relation(r(7))
            .unwrap()
            .shares_rows(edb.relation(r(7)).unwrap()));
        assert!(fix.relation(r(2)).unwrap().is_empty());
    }

    #[test]
    fn arity_conflicts_with_the_edb_are_errors() {
        // the EDB stores r(1) as unary; the program reads it as binary
        let edb = DatabaseBuilder::new().fact(r(1), [1u32]).build().unwrap();
        assert!(evaluate(&tc_program(), &edb, 1, None, None).is_err());
    }

    #[test]
    fn cross_product_rules_still_work() {
        // pair(x,y) :- a(x), b(y) — no shared variables, pure product.
        let program = Program::new(vec![Rule::new(
            Atom::new(r(3), vec![x(0), x(1)]),
            vec![Atom::new(r(1), vec![x(0)]), Atom::new(r(2), vec![x(1)])],
        )])
        .unwrap();
        let edb = DatabaseBuilder::new()
            .fact(r(1), [1u32])
            .fact(r(1), [2u32])
            .fact(r(2), [8u32])
            .build()
            .unwrap();
        let (fix, _) = eval(&program, &edb, 0);
        assert_eq!(fix.relation(r(3)).unwrap().len(), 2);
        assert!(fix.holds(r(3), &tuple![2, 8]));
    }
}
