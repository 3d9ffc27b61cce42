//! Engine metrics on the process-wide [`kbt_obs::Registry`].
//!
//! These run *alongside* [`crate::EngineStats`], never instead of it:
//! `EngineStats` is part of the deterministic evaluation contract
//! (byte-identical at every thread width), while these registry series
//! aggregate across every evaluation in the process and add wall-clock
//! timing, which is inherently nondeterministic.  Nothing here is ever
//! read back by the evaluator, so enabling or disabling observability
//! cannot perturb fixpoints or stats.
//!
//! Timing (the `_ns` histograms) is gated on the global registry's
//! enabled flag — one relaxed load per span when off.  The counters
//! always accumulate; the work counters are absorbed from the final
//! `EngineStats` in one batch per evaluation, off the round hot path, and
//! the storage ones (index builds, rows copied, shared index bytes) are
//! recorded where a table is built or freed, never per probe.

use std::sync::OnceLock;

use kbt_obs::{Counter, Gauge, Histogram, Registry};

use crate::stats::EngineStats;

/// Handles onto the engine's series in [`Registry::global`].
pub struct EngineMetrics {
    /// `kbt_engine_evals_total` — completed from-scratch evaluations.
    pub evals_total: Counter,
    /// `kbt_engine_deltas_total` — completed incremental delta applications.
    pub deltas_total: Counter,
    /// `kbt_engine_rounds_total` — fixpoint rounds across all evaluations.
    pub rounds_total: Counter,
    /// `kbt_engine_derived_facts_total` — facts newly derived.
    pub derived_facts_total: Counter,
    /// `kbt_engine_index_probes_total` — hash-index probes issued.
    pub index_probes_total: Counter,
    /// `kbt_engine_tuples_scanned_total` — tuples inspected by scans/probes.
    pub tuples_scanned_total: Counter,
    /// `kbt_engine_table_hits` — subsumptive-table lookups answered from a
    /// memoized (exact or subsuming) call.
    pub table_hits: Counter,
    /// `kbt_engine_table_misses` — subsumptive-table lookups that found no
    /// memoized call.
    pub table_misses: Counter,
    /// `kbt_engine_table_evictions` — memoized calls dropped with their
    /// snapshot.
    pub table_evictions: Counter,
    /// `kbt_engine_index_builds_total` — indexes and membership tables
    /// built over stored rows: once per stored run and mask — once per run
    /// for the first-column offsets, whichever masks they serve — plus
    /// every private table built over a non-empty tail — an evaluation's
    /// own rows or a loaded relation's delta — the chained membership
    /// table a sorted tail switches to included (see [`crate::index`]).
    pub index_builds_total: Counter,
    /// `kbt_engine_shared_index_bytes` — heap bytes of the indexes and
    /// membership tables cached on stored runs, chained tables and
    /// first-column offsets alike; up on each build, down when the run
    /// holding one is freed.
    pub shared_index_bytes: Gauge,
    /// `kbt_engine_eval_ns` — whole-evaluation wall time.
    pub eval_ns: Histogram,
    /// `kbt_engine_round_ns` — per-fixpoint-round wall time (join, sort and
    /// commit).
    pub round_ns: Histogram,
    /// `kbt_engine_load_ns` — getting ready to run: one sample for wrapping
    /// the relations the program names, and one for planning it and
    /// building the indexes and membership tables its plans demand.
    pub load_ns: Histogram,
    /// `kbt_engine_join_ns` — per-round wall time of running the round's
    /// plans into pending bags (the join stage of `round_ns`).
    pub join_ns: Histogram,
    /// `kbt_engine_sort_ns` — per-round wall time of canonicalising the
    /// pending bags into sorted runs (the sort stage of `round_ns`).
    pub sort_ns: Histogram,
    /// `kbt_engine_commit_ns` — per-round wall time of the bulk append
    /// alone (the commit stage of `round_ns`).
    pub commit_ns: Histogram,
    /// `kbt_engine_materialize_ns` — turning the evaluated storage's runs
    /// back into a `Database`, once per from-scratch evaluation.
    pub materialize_ns: Histogram,
    /// `kbt_engine_delta_ns` — per-incremental-delta wall time.
    pub delta_ns: Histogram,
}

impl EngineMetrics {
    /// Records the work counters of one finished evaluation or delta.
    pub fn absorb_stats(&self, stats: &EngineStats) {
        self.rounds_total.add(stats.iterations as u64);
        self.derived_facts_total.add(stats.derived_facts as u64);
        self.index_probes_total.add(stats.index_probes as u64);
        self.tuples_scanned_total.add(stats.tuples_scanned as u64);
    }
}

/// The engine's metric handles, registered once per process.  Calling
/// this eagerly (e.g. at service startup) makes every engine series
/// visible to scrapes before any evaluation has run.
pub fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        for (name, help) in [
            (
                "kbt_engine_evals_total",
                "From-scratch fixpoint evaluations completed.",
            ),
            (
                "kbt_engine_deltas_total",
                "Incremental delta applications completed.",
            ),
            (
                "kbt_engine_rounds_total",
                "Fixpoint rounds across all evaluations.",
            ),
            (
                "kbt_engine_derived_facts_total",
                "Facts newly derived by the engine.",
            ),
            ("kbt_engine_index_probes_total", "Hash-index probes issued."),
            (
                "kbt_engine_tuples_scanned_total",
                "Tuples inspected by scans and probes.",
            ),
            (
                "kbt_engine_table_hits",
                "Subsumptive-table lookups answered from a memoized call.",
            ),
            (
                "kbt_engine_table_misses",
                "Subsumptive-table lookups that found no memoized call.",
            ),
            (
                "kbt_engine_table_evictions",
                "Memoized calls dropped when their snapshot was superseded.",
            ),
            (
                "kbt_engine_index_builds_total",
                "Indexes and membership tables built over stored rows (chained tables, first-column offsets, and sorted tails switched to chained tables).",
            ),
            (
                "kbt_engine_shared_index_bytes",
                "Heap bytes of the indexes cached on stored runs (chained tables and first-column offsets).",
            ),
            (
                "kbt_engine_eval_ns",
                "Whole-evaluation wall time in nanoseconds.",
            ),
            (
                "kbt_engine_round_ns",
                "Per-fixpoint-round wall time in nanoseconds.",
            ),
            (
                "kbt_engine_load_ns",
                "Wall time getting ready to run: wrapping the named relations, and planning and fetching or building the demanded indexes, in nanoseconds.",
            ),
            (
                "kbt_engine_join_ns",
                "Per-fixpoint-round wall time of running the plans in nanoseconds.",
            ),
            (
                "kbt_engine_sort_ns",
                "Per-fixpoint-round wall time of sorting the derived rows into runs in nanoseconds.",
            ),
            (
                "kbt_engine_commit_ns",
                "Per-fixpoint-round wall time of the bulk append in nanoseconds.",
            ),
            (
                "kbt_engine_materialize_ns",
                "Wall time merging evaluated storage back into a database in nanoseconds.",
            ),
            (
                "kbt_engine_delta_ns",
                "Per-incremental-delta wall time in nanoseconds.",
            ),
        ] {
            r.describe(name, help);
        }
        EngineMetrics {
            evals_total: r.counter("kbt_engine_evals_total"),
            deltas_total: r.counter("kbt_engine_deltas_total"),
            rounds_total: r.counter("kbt_engine_rounds_total"),
            derived_facts_total: r.counter("kbt_engine_derived_facts_total"),
            index_probes_total: r.counter("kbt_engine_index_probes_total"),
            tuples_scanned_total: r.counter("kbt_engine_tuples_scanned_total"),
            table_hits: r.counter("kbt_engine_table_hits"),
            table_misses: r.counter("kbt_engine_table_misses"),
            table_evictions: r.counter("kbt_engine_table_evictions"),
            index_builds_total: r.counter("kbt_engine_index_builds_total"),
            shared_index_bytes: r.gauge("kbt_engine_shared_index_bytes"),
            eval_ns: r.histogram("kbt_engine_eval_ns"),
            round_ns: r.histogram("kbt_engine_round_ns"),
            load_ns: r.histogram("kbt_engine_load_ns"),
            join_ns: r.histogram("kbt_engine_join_ns"),
            sort_ns: r.histogram("kbt_engine_sort_ns"),
            commit_ns: r.histogram("kbt_engine_commit_ns"),
            materialize_ns: r.histogram("kbt_engine_materialize_ns"),
            delta_ns: r.histogram("kbt_engine_delta_ns"),
        }
    })
}
