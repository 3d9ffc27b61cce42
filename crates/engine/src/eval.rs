//! The fixpoint driver: delta-aware semi-naive evaluation over indexed
//! storage, sequential or parallel, optionally observed through a
//! [`View`].
//!
//! The caller supplies pre-stratified programs (`kbt-datalog` stratifies and
//! lowers); each stratum is run to its least fixpoint before the next one
//! starts, so negated literals — which stratification confines to relations
//! of earlier strata or the EDB — always read fully computed relations.
//!
//! ## Row-slice evaluation
//!
//! The interpreter never materialises tuples while joining: scans and probes
//! hand out `&[Const]` row slices borrowed straight from the storage's row
//! arenas, probe keys are single `u64`s accumulated in registers (see
//! [`crate::fx`]), and instantiated head facts go into a per-plan scratch
//! buffer that the pending-set sink copies out of.  The inner join loops
//! perform **zero heap allocations per probe**.
//!
//! ## Parallel rounds
//!
//! Within one fixpoint round every (rule, plan) pair reads the storage and
//! writes only to a pending-facts buffer, so rounds are embarrassingly
//! parallel.  A width (`threads`, see [`evaluate`]) above 1 fans a round
//! out over the `kbt-par` pool:
//!
//! 1. the round's plans are decomposed into `RoundTask`s — a plan led by a
//!    scan contributes one task per *chunk* of the scanned relation's tuple
//!    range, any other plan is a single task;
//! 2. every task derives into a **private** `Pending` buffer with private
//!    [`EngineStats`] counters — workers share nothing mutable;
//! 3. the buffers are merged **in stable task order** (rule index first,
//!    chunk offset second) and each relation's pending rows are sorted and
//!    deduplicated once, and the per-worker counters are summed.
//!
//! Because the canonicalised pending set is an order-insensitive union and
//! commit inserts it in sorted order, the storage contents, the resulting
//! [`Database`] *and every statistics counter* are byte-identical to the
//! sequential path — `threads = 1` runs the exact sequential code, and the
//! differential tests hold the two paths equal.  Rounds whose driving
//! relations are small run sequentially even at higher widths (fan-out
//! overhead would dominate); that cutoff cannot be observed in the results
//! either.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use kbt_data::relation::{sort_dedup_rows, RowIter};
use kbt_data::{Const, Database, RelId};
use kbt_par::ThreadPool;

use crate::fx::{key_is_exact, KeyAcc};
use crate::index::IndexedRelation;
use crate::ir::{Program, Term};
use crate::plan::{JoinPlan, PlannedRule, Source, Step};
use crate::profile::{RoundObserver, View};
use crate::stats::EngineStats;
use crate::storage::IndexStorage;
use crate::Result;

/// Computes the least fixpoint of the stratified program over `edb` — the
/// engine's one evaluation entry.
///
/// Every relation mentioned by any stratum is materialised (empty if absent
/// from `edb`); the result contains the EDB unchanged plus the derived
/// facts.  `threads` is the evaluation width: `0` uses the process default
/// ([`kbt_par::default_threads`] — the `KBT_THREADS` environment variable,
/// else the machine's available parallelism), `1` is the exact sequential
/// path, anything larger fans the rounds out over the `kbt-par` pool;
/// results and statistics are identical at every width.  `view` selects
/// what is recorded on the way (see
/// [`crate::profile`]): `None` records nothing; a profiling view gets one
/// [`crate::RuleProfile`] per planned rule, filled in by the round
/// observer; a plan-only view gets the same rows zeroed and the rounds are
/// **skipped** — the returned database is then the un-evaluated storage
/// and the statistics are all zero.
pub fn evaluate(
    strata: &[Program],
    edb: &Database,
    threads: usize,
    mut view: Option<&mut View<'_>>,
) -> Result<(Database, EngineStats)> {
    let runs = view.as_ref().is_none_or(|v| v.runs());
    let metrics = crate::metrics::metrics();
    let _eval_span = runs.then(|| metrics.eval_ns.span());
    let width = kbt_par::resolve_threads(threads);
    let mut storage = IndexStorage::from_database(edb);
    for program in strata {
        for (rel, arity) in program.relation_arities() {
            storage.ensure_relation(rel, arity)?;
        }
    }

    let mut stats = EngineStats::default();
    for (stratum, program) in strata.iter().enumerate() {
        let planned = plan_stratum(program, &mut storage, &program.idb_relations());
        let mut observer = view.as_deref_mut().map(|v| v.observe(stratum, &planned));
        if runs {
            stats.strata += 1;
            eval_stratum(&planned, &mut storage, &mut stats, width, observer.as_mut());
        }
    }
    if runs {
        metrics.evals_total.inc();
        metrics.absorb_stats(&stats);
    }
    Ok((storage.to_database(), stats))
}

/// Plans one stratum against the current storage and demands the indexes
/// the plans need: the planner is fed the relation cardinalities known at
/// this point so greedy ties are broken towards smaller relations, and
/// `eligible` names the relations that get delta-scan variants (the
/// stratum's IDB for one-shot evaluation; every positive body relation for
/// the incremental session, whose extensional relations change too).
pub(crate) fn plan_stratum(
    program: &Program,
    storage: &mut IndexStorage,
    eligible: &BTreeSet<RelId>,
) -> Vec<PlannedRule> {
    let sizes: BTreeMap<RelId, usize> = program
        .relation_arities()
        .keys()
        .map(|&rel| (rel, storage.relation_len(rel)))
        .collect();
    let planned: Vec<PlannedRule> = program
        .rules
        .iter()
        .map(|r| PlannedRule::plan_sized(r, eligible, &sizes))
        .collect();
    for rule in &planned {
        for (rel, mask) in rule.demanded_indexes() {
            storage.ensure_index(rel, mask);
        }
    }
    planned
}

/// An unsorted bag of derived head rows for one relation: an arity-strided
/// buffer that is canonicalised (sorted, deduplicated) once per round
/// instead of paying a tree insertion per derivation.
#[derive(Clone, Debug)]
pub(crate) struct RowSet {
    arity: usize,
    rows: Vec<Const>,
    count: usize,
}

impl RowSet {
    pub(crate) fn new(arity: usize) -> Self {
        RowSet {
            arity,
            rows: Vec::new(),
            count: 0,
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    pub(crate) fn push(&mut self, row: &[Const]) {
        debug_assert_eq!(row.len(), self.arity);
        self.rows.extend_from_slice(row);
        self.count += 1;
    }

    /// Appends another bag (same relation, so same arity).
    pub(crate) fn absorb(&mut self, other: RowSet) {
        debug_assert_eq!(self.arity, other.arity);
        self.rows.extend_from_slice(&other.rows);
        self.count += other.count;
    }

    /// Canonicalises the bag into a sorted, duplicate-free run.
    pub(crate) fn sort_dedup(&mut self) {
        if self.arity == 0 {
            self.count = self.count.min(1);
            return;
        }
        let kept = sort_dedup_rows(&mut self.rows, self.arity);
        self.rows.truncate(kept * self.arity);
        self.count = kept;
    }

    /// Iterates the rows (canonical order once [`Self::sort_dedup`] ran).
    pub(crate) fn iter(&self) -> RowIter<'_> {
        RowIter::over(&self.rows, self.arity, self.count)
    }
}

/// Derived-but-uncommitted head facts per relation.  As returned by
/// [`run_round_with`] the per-relation row sets are canonical (sorted,
/// deduplicated) — entries exist only for relations with at least one row.
pub(crate) type Pending = BTreeMap<RelId, RowSet>;
pub(crate) type Deltas = BTreeMap<RelId, IndexedRelation>;

/// Minimum number of driving tuples in a round before it is fanned out;
/// below this, coordination overhead dominates and the round runs
/// sequentially (with identical results and counters — see module docs).
const PAR_ROUND_THRESHOLD: usize = 256;

/// Minimum tuples per chunk of a driving scan (fed to
/// [`kbt_par::chunk_size`], which supplies the chunks-per-worker policy).
const PAR_MIN_CHUNK: usize = 64;

/// One unit of parallel work within a round: a plan, optionally restricted
/// to a slice of its driving scan.
struct RoundTask<'a> {
    rule: &'a PlannedRule,
    plan: &'a JoinPlan,
    /// Tuple-slot range of the driving scan; `None` runs the whole plan.
    range: Option<Range<u32>>,
}

/// Decomposes a round's plans into tasks; the second component is the total
/// number of live driving tuples (the fan-out worthwhileness measure).
fn round_tasks<'a>(
    plans: &[(&'a PlannedRule, &'a JoinPlan)],
    storage: &IndexStorage,
    deltas: &Deltas,
    width: usize,
) -> (Vec<RoundTask<'a>>, usize) {
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
        let relation = match source {
            Source::Full => storage.relation(*rel),
            Source::Delta => deltas.get(rel),
        };
        let Some(relation) = relation else {
            continue; // nothing to scan: the plan derives nothing
        };
        let slots = relation.slot_count();
        if slots == 0 {
            continue;
        }
        driving += relation.len();
        let chunk = kbt_par::chunk_size(slots as usize, width, PAR_MIN_CHUNK) as u32;
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
    (tasks, driving)
}

/// Per-plan scratch space, allocated once per plan (or task) and reused by
/// every derivation so the join loops themselves never touch the heap: the
/// register file, one undo list per step depth, and the head-fact buffer.
struct Scratch {
    regs: Vec<Option<Const>>,
    undos: Vec<Vec<usize>>,
    head: Vec<Const>,
}

impl Scratch {
    fn for_rule(rule: &PlannedRule, steps: usize) -> Self {
        Scratch {
            regs: vec![None; rule.slots],
            undos: vec![Vec::new(); steps],
            head: Vec::with_capacity(rule.head.terms.len()),
        }
    }
}

/// Runs one task, feeding instantiated head rows to `sink`.
fn run_task(
    task: &RoundTask<'_>,
    storage: &IndexStorage,
    deltas: &Deltas,
    stats: &mut EngineStats,
    sink: &mut dyn FnMut(&[Const]),
) {
    let Some(range) = task.range.clone() else {
        run_plan(task.rule, task.plan, storage, deltas, stats, sink);
        return;
    };
    let Some((Step::Scan { rel, source, cols }, rest)) = task.plan.split_driving_scan() else {
        unreachable!("ranged tasks are built from scan-driven plans only");
    };
    let relation = match source {
        Source::Full => storage.relation(*rel),
        Source::Delta => deltas.get(rel),
    };
    let Some(relation) = relation else {
        return;
    };
    let mut scratch = Scratch::for_rule(task.rule, task.plan.steps.len());
    let (undo, rest_undos) = scratch
        .undos
        .split_first_mut()
        .expect("plans have at least the driving step");
    for id in range {
        if !relation.is_live(id) {
            continue; // tombstone from an incremental removal
        }
        stats.tuples_scanned += 1;
        if match_cols(relation.row(id), cols, &mut scratch.regs, undo) {
            run_steps(
                task.rule,
                rest,
                storage,
                deltas,
                &mut scratch.regs,
                rest_undos,
                &mut scratch.head,
                stats,
                sink,
            );
        }
        for s in undo.drain(..) {
            scratch.regs[s] = None;
        }
    }
}

/// Runs one round — every listed plan — and returns the pending head facts
/// that pass `keep` (called with the head relation and the candidate row).
///
/// `width > 1` distributes the round's tasks over the global pool; private
/// per-task buffers are merged in task order, so the result and the counters
/// added to `stats` are identical at every width.
pub(crate) fn run_round_with<K>(
    plans: &[(&PlannedRule, &JoinPlan)],
    storage: &IndexStorage,
    deltas: &Deltas,
    stats: &mut EngineStats,
    width: usize,
    keep: &K,
) -> Pending
where
    K: Fn(RelId, &[Const]) -> bool + Sync,
{
    let sequential = |stats: &mut EngineStats| {
        let mut pending = Pending::new();
        for &(rule, plan) in plans {
            let head_rel = rule.head.rel;
            let head_arity = rule.head.terms.len();
            run_plan(rule, plan, storage, deltas, stats, &mut |row| {
                if keep(head_rel, row) {
                    pending
                        .entry(head_rel)
                        .or_insert_with(|| RowSet::new(head_arity))
                        .push(row);
                }
            });
        }
        pending
    };
    let mut pending = 'collected: {
        if width <= 1 {
            break 'collected sequential(stats);
        }
        let (tasks, driving) = round_tasks(plans, storage, deltas, width);
        if driving < PAR_ROUND_THRESHOLD {
            break 'collected sequential(stats);
        }
        let results = ThreadPool::global().map(width, &tasks, |_, task| {
            let mut pending = Pending::new();
            let mut local = EngineStats::default();
            let head_rel = task.rule.head.rel;
            let head_arity = task.rule.head.terms.len();
            run_task(task, storage, deltas, &mut local, &mut |row| {
                if keep(head_rel, row) {
                    pending
                        .entry(head_rel)
                        .or_insert_with(|| RowSet::new(head_arity))
                        .push(row);
                }
            });
            (pending, local)
        });
        // Deterministic merge: task order is rule order then chunk offset,
        // and the canonicalisation below erases even that.
        let mut pending = Pending::new();
        for (part, local) in results {
            stats.absorb(&local);
            absorb_pending(&mut pending, part);
        }
        pending
    };
    for rows in pending.values_mut() {
        rows.sort_dedup();
    }
    pending
}

/// Folds one part of a round's derivations into `into` (same relation, so
/// same arity; canonicalise afterwards).
fn absorb_pending(into: &mut Pending, part: Pending) {
    for (rel, rows) in part {
        match into.entry(rel) {
            Entry::Vacant(v) => {
                v.insert(rows);
            }
            Entry::Occupied(mut o) => o.get_mut().absorb(rows),
        }
    }
}

/// One fixpoint round: [`run_round_with`] under the fixpoint filter (keep
/// facts not yet in storage).  Unobserved, the plans run as one batch.
/// Observed, the same plans run one execution at a time against the same
/// unchanged storage with the same filter, the observer reading clock and
/// counters **between** executions, and the parts are merged into the
/// canonical union the batch would have produced — so observation never
/// changes the pending set or the counters (see [`crate::profile`]).
fn run_round(
    plans: &[(&PlannedRule, &JoinPlan)],
    storage: &IndexStorage,
    deltas: &Deltas,
    stats: &mut EngineStats,
    width: usize,
    observer: Option<&mut RoundObserver<'_>>,
) -> Pending {
    let keep = |rel: RelId, row: &[Const]| !storage.holds_row(rel, row);
    let Some(observer) = observer else {
        return run_round_with(plans, storage, deltas, stats, width, &keep);
    };
    observer.begin_round();
    let mut pending = Pending::new();
    for &(rule, plan) in plans {
        let part = observer.observe_plan(rule, stats, |stats| {
            run_round_with(&[(rule, plan)], storage, deltas, stats, width, &keep)
        });
        absorb_pending(&mut pending, part);
    }
    for rows in pending.values_mut() {
        rows.sort_dedup();
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

/// Runs one planned stratum to its least fixpoint — the engine's one
/// commit-until-the-delta-is-empty loop.  The seeding round runs every
/// rule's full plan; each later round runs only the delta variants driven
/// by the facts the previous round committed.
pub(crate) fn eval_stratum(
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
        let pending = run_round(
            &plans,
            storage,
            &delta,
            stats,
            width,
            observer.as_deref_mut(),
        );
        delta = commit(storage, pending, stats);
        if delta.is_empty() {
            break;
        }
        plans = delta_plans(rules, &delta);
    }
}

/// Inserts the pending facts, returning the ones that were actually new as
/// the next delta (in indexed form, ready to be scanned as drivers).  The
/// pending rows are canonical, so each delta relation is populated in
/// sorted order.
pub(crate) fn commit(
    storage: &mut IndexStorage,
    pending: Pending,
    stats: &mut EngineStats,
) -> Deltas {
    let mut delta = Deltas::new();
    for (rel, rows) in &pending {
        let arity = rows.arity();
        for row in rows.iter() {
            if storage.insert_row(*rel, row) {
                stats.derived_facts += 1;
                delta
                    .entry(*rel)
                    .or_insert_with(|| IndexedRelation::new(arity))
                    .insert_row(row);
            }
        }
    }
    delta
}

/// Runs one join plan, feeding every instantiated head row to `sink`
/// (the incremental session's *rederivation* check needs pre-bound
/// registers and early exit instead, which its dedicated `satisfiable`
/// walker handles).
pub(crate) fn run_plan(
    rule: &PlannedRule,
    plan: &JoinPlan,
    storage: &IndexStorage,
    deltas: &Deltas,
    stats: &mut EngineStats,
    sink: &mut dyn FnMut(&[Const]),
) {
    let mut scratch = Scratch::for_rule(rule, plan.steps.len());
    run_steps(
        rule,
        &plan.steps,
        storage,
        deltas,
        &mut scratch.regs,
        &mut scratch.undos,
        &mut scratch.head,
        stats,
        sink,
    );
}

pub(crate) fn resolve(term: Term, regs: &[Option<Const>]) -> Const {
    match term {
        Term::Const(c) => c,
        Term::Slot(s) => regs[s].expect("slot bound by an earlier step (range restriction)"),
    }
}

/// Matches a row against per-column actions, binding unbound slots.
/// Returns `false` (after recording partial bindings in `undo`) on mismatch.
pub(crate) fn match_cols(
    row: &[Const],
    cols: &[(usize, Term)],
    regs: &mut [Option<Const>],
    undo: &mut Vec<usize>,
) -> bool {
    for &(col, term) in cols {
        let value = row[col];
        match term {
            Term::Const(c) => {
                if c != value {
                    return false;
                }
            }
            Term::Slot(s) => match regs[s] {
                Some(existing) => {
                    if existing != value {
                        return false;
                    }
                }
                None => {
                    regs[s] = Some(value);
                    undo.push(s);
                }
            },
        }
    }
    true
}

/// Whether `row` matches the resolved key terms on `mask`'s bound columns —
/// the verification pass behind hashed (> 2 column) probe keys, whose
/// buckets may contain false positives.
#[inline]
pub(crate) fn bound_cols_match(
    row: &[Const],
    mask: u32,
    key: &[Term],
    regs: &[Option<Const>],
) -> bool {
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
pub(crate) fn member_holds(
    relation: &IndexedRelation,
    terms: &[Term],
    regs: &[Option<Const>],
) -> bool {
    debug_assert_eq!(terms.len(), relation.arity());
    let mut acc = KeyAcc::new(terms.len());
    for &t in terms {
        acc.push(resolve(t, regs));
    }
    let bucket = relation.member_bucket(acc.finish());
    if key_is_exact(terms.len()) {
        // packed keys are injective over the full row
        !bucket.is_empty()
    } else {
        bucket.iter().any(|&id| {
            relation
                .row(id)
                .iter()
                .zip(terms)
                .all(|(&v, &t)| v == resolve(t, regs))
        })
    }
}

/// [`member_holds`] for a determined `(column, term)` cover (ascending
/// column order, every column present) — the incremental session's
/// determined-scan degradation.
pub(crate) fn member_holds_cols(
    relation: &IndexedRelation,
    cols: &[(usize, Term)],
    regs: &[Option<Const>],
) -> bool {
    debug_assert_eq!(cols.len(), relation.arity());
    let mut acc = KeyAcc::new(cols.len());
    for &(_, t) in cols {
        acc.push(resolve(t, regs));
    }
    let bucket = relation.member_bucket(acc.finish());
    if key_is_exact(cols.len()) {
        !bucket.is_empty()
    } else {
        bucket.iter().any(|&id| {
            let row = relation.row(id);
            cols.iter().all(|&(col, t)| row[col] == resolve(t, regs))
        })
    }
}

/// Recursive step interpreter behind [`run_plan`]: `undos` carries one
/// reusable undo list per remaining step, split level by level alongside
/// `steps` (capacity sticks across derivations, so binding bookkeeping
/// stops allocating after the first few matches).
#[allow(clippy::too_many_arguments)]
fn run_steps(
    rule: &PlannedRule,
    steps: &[Step],
    storage: &IndexStorage,
    deltas: &Deltas,
    regs: &mut Vec<Option<Const>>,
    undos: &mut [Vec<usize>],
    head: &mut Vec<Const>,
    stats: &mut EngineStats,
    sink: &mut dyn FnMut(&[Const]),
) {
    let Some((step, rest)) = steps.split_first() else {
        head.clear();
        for &t in &rule.head.terms {
            head.push(resolve(t, regs));
        }
        sink(head);
        return;
    };
    let (undo, rest_undos) = undos
        .split_first_mut()
        .expect("one undo list per plan step");
    match step {
        Step::Scan { rel, source, cols } => {
            let relation = match source {
                Source::Full => storage.relation(*rel),
                Source::Delta => deltas.get(rel),
            };
            let Some(relation) = relation else {
                return;
            };
            for row in relation.iter() {
                stats.tuples_scanned += 1;
                if match_cols(row, cols, regs, undo) {
                    run_steps(
                        rule, rest, storage, deltas, regs, rest_undos, head, stats, sink,
                    );
                }
                for s in undo.drain(..) {
                    regs[s] = None;
                }
            }
        }
        Step::Probe {
            rel,
            mask,
            key,
            cols,
        } => {
            let Some(relation) = storage.relation(*rel) else {
                return;
            };
            let mut acc = KeyAcc::new(key.len());
            for &t in key {
                acc.push(resolve(t, regs));
            }
            stats.index_probes += 1;
            let exact = key_is_exact(key.len());
            for &id in relation.probe_bucket(*mask, acc.finish()) {
                if !relation.is_live(id) {
                    continue; // tombstone from an incremental removal
                }
                let row = relation.row(id);
                if !exact && !bound_cols_match(row, *mask, key, regs) {
                    continue; // hash collision in a wide-key bucket
                }
                stats.tuples_scanned += 1;
                if match_cols(row, cols, regs, undo) {
                    run_steps(
                        rule, rest, storage, deltas, regs, rest_undos, head, stats, sink,
                    );
                }
                for s in undo.drain(..) {
                    regs[s] = None;
                }
            }
        }
        Step::Member { rel, terms } => {
            stats.index_probes += 1;
            let holds = storage
                .relation(*rel)
                .is_some_and(|r| member_holds(r, terms, regs));
            if holds {
                run_steps(
                    rule, rest, storage, deltas, regs, rest_undos, head, stats, sink,
                );
            }
        }
        Step::NegCheck { rel, terms } => {
            stats.index_probes += 1;
            let holds = storage
                .relation(*rel)
                .is_some_and(|r| member_holds(r, terms, regs));
            if !holds {
                run_steps(
                    rule, rest, storage, deltas, regs, rest_undos, head, stats, sink,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Atom, Literal, Rule};
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
                vec![Literal::positive(Atom::new(r(1), vec![s(0), s(1)]))],
            )
            .unwrap(),
            Rule::new(
                Atom::new(r(2), vec![s(0), s(2)]),
                vec![
                    Literal::positive(Atom::new(r(2), vec![s(0), s(1)])),
                    Literal::positive(Atom::new(r(1), vec![s(1), s(2)])),
                ],
            )
            .unwrap(),
        ])
    }

    fn eval(strata: &[Program], edb: &Database, threads: usize) -> (Database, EngineStats) {
        evaluate(strata, edb, threads, None).unwrap()
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
        let (fix, stats) = eval(&[tc_program()], &chain_db(6), 0);
        assert_eq!(fix.relation(r(2)).unwrap().len(), 15);
        assert!(fix.holds(r(2), &tuple![1, 6]));
        assert!(!fix.holds(r(2), &tuple![6, 1]));
        assert_eq!(stats.derived_facts, 15);
        assert_eq!(stats.strata, 1);
        assert!(stats.index_probes > 0);
    }

    #[test]
    fn stratified_negation_runs_after_the_lower_stratum() {
        // Stratum 0: reach = TC(edge).  Stratum 1: unreach(x,y) :- node(x),
        // node(y), ~reach(x,y).
        let stratum0 = Program::new(vec![
            Rule::new(
                Atom::new(r(2), vec![s(0), s(1)]),
                vec![Literal::positive(Atom::new(r(1), vec![s(0), s(1)]))],
            )
            .unwrap(),
            Rule::new(
                Atom::new(r(2), vec![s(0), s(2)]),
                vec![
                    Literal::positive(Atom::new(r(2), vec![s(0), s(1)])),
                    Literal::positive(Atom::new(r(1), vec![s(1), s(2)])),
                ],
            )
            .unwrap(),
        ]);
        let stratum1 = Program::new(vec![Rule::new(
            Atom::new(r(4), vec![s(0), s(1)]),
            vec![
                Literal::positive(Atom::new(r(3), vec![s(0)])),
                Literal::positive(Atom::new(r(3), vec![s(1)])),
                Literal::negative(Atom::new(r(2), vec![s(0), s(1)])),
            ],
        )
        .unwrap()]);

        let mut b = DatabaseBuilder::new().relation(r(1), 2).relation(r(3), 1);
        for i in 1..=3u32 {
            b = b.fact(r(3), [i]);
        }
        b = b.fact(r(1), [1u32, 2]).fact(r(1), [2u32, 3]);
        let edb = b.build().unwrap();

        let (fix, stats) = eval(&[stratum0, stratum1], &edb, 0);
        assert_eq!(fix.relation(r(4)).unwrap().len(), 6);
        assert!(fix.holds(r(4), &tuple![3, 1]));
        assert!(!fix.holds(r(4), &tuple![1, 3]));
        assert_eq!(stats.strata, 2);
    }

    #[test]
    fn fact_rules_and_constants() {
        // p(x) :- edge(1, x).   q(7).
        let program = Program::new(vec![
            Rule::new(
                Atom::new(r(3), vec![s(0)]),
                vec![Literal::positive(Atom::new(
                    r(1),
                    vec![Term::Const(Const::new(1)), s(0)],
                ))],
            )
            .unwrap(),
            Rule::new(Atom::new(r(4), vec![Term::Const(Const::new(7))]), vec![]).unwrap(),
        ]);
        let edb = chain_db(4);
        let (fix, _) = eval(&[program], &edb, 0);
        assert!(fix.holds(r(3), &tuple![2]));
        assert!(!fix.holds(r(3), &tuple![3]));
        assert!(fix.holds(r(4), &tuple![7]));
    }

    #[test]
    fn repeated_variables_within_an_atom() {
        // loops(x) :- edge(x, x).
        let program = Program::new(vec![Rule::new(
            Atom::new(r(3), vec![s(0)]),
            vec![Literal::positive(Atom::new(r(1), vec![s(0), s(0)]))],
        )
        .unwrap()]);
        let mut b = DatabaseBuilder::new().relation(r(1), 2);
        b = b
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 2])
            .fact(r(1), [3u32, 3]);
        let edb = b.build().unwrap();
        let (fix, _) = eval(&[program], &edb, 0);
        assert_eq!(fix.relation(r(3)).unwrap().len(), 2);
        assert!(fix.holds(r(3), &tuple![2]));
        assert!(fix.holds(r(3), &tuple![3]));
    }

    /// Wide rows exercise the hashed (> 2 column) key paths: membership,
    /// negation and probes must all verify bucket candidates.
    #[test]
    fn wide_relations_join_through_hashed_keys() {
        // w(a,b,c,d) :- e3(a,b,c), f(c,d), ~g3(a,b,d).
        let program = Program::new(vec![Rule::new(
            Atom::new(r(5), vec![s(0), s(1), s(2), s(3)]),
            vec![
                Literal::positive(Atom::new(r(1), vec![s(0), s(1), s(2)])),
                Literal::positive(Atom::new(r(2), vec![s(2), s(3)])),
                Literal::negative(Atom::new(r(3), vec![s(0), s(1), s(3)])),
            ],
        )
        .unwrap()]);
        let edb = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2, 3])
            .fact(r(1), [4u32, 5, 6])
            .fact(r(2), [3u32, 7])
            .fact(r(2), [6u32, 8])
            .fact(r(3), [4u32, 5, 8])
            .build()
            .unwrap();
        let (fix, _) = eval(&[program], &edb, 0);
        assert_eq!(fix.relation(r(5)).unwrap().len(), 1);
        assert!(fix.holds(r(5), &tuple![1, 2, 3, 7]));
        assert!(!fix.holds(r(5), &tuple![4, 5, 6, 8]), "negated by g3");
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
        let (seq, seq_stats) = eval(&[tc_program()], &edb, 1);
        for threads in [2, 4] {
            let (par, par_stats) = eval(&[tc_program()], &edb, threads);
            assert_eq!(seq, par, "fixpoint diverges at width {threads}");
            assert_eq!(seq_stats, par_stats, "stats diverge at width {threads}");
        }
    }

    #[test]
    fn small_rounds_stay_sequential_but_identical() {
        // far below the fan-out threshold: the cutoff must not be observable
        let edb = chain_db(8);
        let (seq, seq_stats) = eval(&[tc_program()], &edb, 1);
        let (par, par_stats) = eval(&[tc_program()], &edb, 4);
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn empty_edb_yields_empty_idb() {
        let edb = DatabaseBuilder::new().relation(r(1), 2).build().unwrap();
        let (fix, stats) = eval(&[tc_program()], &edb, 0);
        assert!(fix.relation(r(2)).unwrap().is_empty());
        assert_eq!(stats.derived_facts, 0);
    }

    #[test]
    fn cross_product_rules_still_work() {
        // pair(x,y) :- a(x), b(y) — no shared variables, pure product.
        let program = Program::new(vec![Rule::new(
            Atom::new(r(3), vec![s(0), s(1)]),
            vec![
                Literal::positive(Atom::new(r(1), vec![s(0)])),
                Literal::positive(Atom::new(r(2), vec![s(1)])),
            ],
        )
        .unwrap()]);
        let edb = DatabaseBuilder::new()
            .fact(r(1), [1u32])
            .fact(r(1), [2u32])
            .fact(r(2), [8u32])
            .build()
            .unwrap();
        let (fix, _) = eval(&[program], &edb, 0);
        assert_eq!(fix.relation(r(3)).unwrap().len(), 2);
        assert!(fix.holds(r(3), &tuple![2, 8]));
    }
}
