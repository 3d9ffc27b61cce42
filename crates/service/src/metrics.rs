//! The service's metric handles — the one place the whole name catalogue
//! for the serving layers is constructed.
//!
//! A [`crate::Service`] owns a **per-instance** [`kbt_obs::Registry`]
//! (tests and embedded services must not share counters through process
//! globals); the library crates underneath it (`kbt-engine`, `kbt-par`)
//! record into [`Registry::global`].  The `METRICS` command merges both
//! snapshots, so one scrape sees every layer.
//!
//! Two families live here:
//!
//! * [`ServiceMetrics`] — the commit pipeline, the snapshot/query read
//!   path, and the epoch-holder gauges.  Registered by [`crate::Service::new`].
//! * [`NetMetrics`] — the TCP front: per-verb command latency and framing
//!   errors.  Registered when a [`crate::net::NetServer`] starts, so an
//!   in-process service carries no network series.
//!
//! The full catalogue (names, types, semantics) is documented in the
//! crate-level *Observability* section, which the CI doc-drift check
//! asserts against a live `METRICS` scrape.

use kbt_obs::{Counter, Gauge, Histogram, Registry};

use crate::command::{Verb, VERBS};

/// Metric handles for the service core (commit pipeline + read path).
#[derive(Debug)]
pub struct ServiceMetrics {
    /// The per-service registry every handle below records into.
    pub registry: Registry,
    /// Committed epochs — mirrors `ServiceStats::commits` (one truth,
    /// written at publish time).
    pub commits_total: Counter,
    /// `APPLY` commits — mirrors `ServiceStats::applies`.
    pub applies_total: Counter,
    /// `DEFINE` commands — mirrors `ServiceStats::defines`.
    pub defines_total: Counter,
    /// Snapshot reads served (`QUERY CERTAIN/POSSIBLE/<texpr>`, typed or
    /// textual) — the counter `STATS` reports as `queries`.
    pub queries_total: Counter,
    /// Bound goals answered through the magic-set rewrite.
    pub queries_magic_total: Counter,
    /// Bound goals answered from the subsumptive table.
    pub queries_tabled_total: Counter,
    /// Bound goals answered by full materialization plus a filter.
    pub queries_materialize_total: Counter,
    /// MVCC snapshots taken ([`crate::Service::snapshot`]).
    pub snapshots_total: Counter,
    /// The currently committed epoch.
    pub epoch: Gauge,
    /// Past epochs still pinned by at least one outstanding snapshot
    /// (the current epoch is excluded).
    pub held_epochs: Gauge,
    /// Age of the oldest pinned epoch, in epochs behind the current one
    /// (`0` when nothing old is held).
    pub held_epoch_lag: Gauge,
    /// Commit phase: parsing the command payload (under the writer lock).
    pub commit_parse_ns: Histogram,
    /// Commit phase: applying the change to the working state (world
    /// updates / fixpoint evaluation).
    pub commit_apply_ns: Histogram,
    /// Commit phase: publishing the next epoch and pruning holders.
    pub commit_publish_ns: Histogram,
    /// Facts per `ASSERT`/`RETRACT` commit (a size, not a duration).
    pub commit_batch_facts: Histogram,
    /// End-to-end latency of textual `QUERY` commands (parse included);
    /// the span that feeds the slow-query log (`slow_query` events).
    pub query_ns: Histogram,
    /// WAL records appended (one per durable commit).
    pub wal_records_total: Counter,
    /// WAL bytes appended (frames included).
    pub wal_bytes_total: Counter,
    /// WAL fsyncs issued — under group commit this grows slower than
    /// `wal_records_total`; the gap is the batching win.
    pub wal_fsyncs_total: Counter,
    /// Commits made durable per fsync (the group-commit batch size: 1 for
    /// a lone committer, up to the number of concurrent committers).
    pub group_commit_batch: Histogram,
    /// Checkpoint files written (automatic and `CHECKPOINT`-commanded).
    pub checkpoints_total: Counter,
    /// Time one checkpoint takes to render, write and fsync (on the
    /// background thread or under `CHECKPOINT`).
    pub checkpoint_write_ns: Histogram,
    /// Time [`crate::Service::open`] spends reading and decoding the
    /// newest checkpoint (one sample per open that found one).
    pub checkpoint_load_ns: Histogram,
    /// WAL records replayed during crash recovery.
    pub recovery_replayed_total: Counter,
    /// Time [`crate::Service::open`] spends replaying the WAL tail, and
    /// resuming the chain session the checkpoint holds before it (one
    /// sample per durable open).
    pub recovery_replay_ns: Histogram,
    /// Chain sessions [`crate::Service::open`] resumed from the checkpoint
    /// instead of re-deriving them at the first replayed `APPLY` (0 or 1
    /// per open; see [`crate::recover`]).
    pub recovery_chains_seeded_total: Counter,
}

impl ServiceMetrics {
    /// Registers every service-core series in `registry` (idempotent —
    /// re-registration returns the same cells), with `# HELP` descriptions
    /// for the exposition.
    pub fn register(registry: Registry) -> Self {
        for (name, help) in [
            (
                "kbt_service_commits_total",
                "Committed epochs (every successful write command).",
            ),
            ("kbt_service_applies_total", "APPLY commits."),
            ("kbt_service_defines_total", "DEFINE commands processed."),
            ("kbt_service_queries_total", "Snapshot reads served."),
            (
                "kbt_service_queries_magic_total",
                "Bound goals answered through the magic-set rewrite.",
            ),
            (
                "kbt_service_queries_tabled_total",
                "Bound goals answered from the subsumptive table.",
            ),
            (
                "kbt_service_queries_materialize_total",
                "Bound goals answered by full materialization plus a filter.",
            ),
            ("kbt_service_snapshots_total", "MVCC snapshots taken."),
            ("kbt_service_epoch", "The currently committed epoch."),
            (
                "kbt_service_held_epochs",
                "Past epochs still pinned by outstanding snapshots.",
            ),
            (
                "kbt_service_held_epoch_lag",
                "Age of the oldest pinned epoch, in epochs behind current.",
            ),
            (
                "kbt_service_commit_parse_ns",
                "Commit phase: parsing the command payload.",
            ),
            (
                "kbt_service_commit_apply_ns",
                "Commit phase: applying the change to the working state.",
            ),
            (
                "kbt_service_commit_publish_ns",
                "Commit phase: publishing the next epoch.",
            ),
            (
                "kbt_service_commit_batch_facts",
                "Facts per ASSERT/RETRACT commit.",
            ),
            (
                "kbt_service_query_ns",
                "End-to-end latency of textual QUERY/PROFILE commands.",
            ),
            (
                "kbt_service_wal_records_total",
                "WAL records appended (one per durable commit).",
            ),
            (
                "kbt_service_wal_bytes_total",
                "WAL bytes appended (frames included).",
            ),
            ("kbt_service_wal_fsyncs_total", "WAL fsyncs issued."),
            (
                "kbt_service_group_commit_batch",
                "Commits made durable per fsync (group-commit batch size).",
            ),
            ("kbt_service_checkpoints_total", "Checkpoint files written."),
            (
                "kbt_service_checkpoint_write_ns",
                "Time to render, write and fsync one checkpoint.",
            ),
            (
                "kbt_service_checkpoint_load_ns",
                "Time to read and decode the checkpoint a durable service opens from.",
            ),
            (
                "kbt_service_recovery_replayed_total",
                "WAL records replayed during crash recovery.",
            ),
            (
                "kbt_service_recovery_replay_ns",
                "Time spent replaying the WAL tail when a durable service opens.",
            ),
            (
                "kbt_service_recovery_chains_seeded_total",
                "Chain sessions a durable open resumed from the checkpoint instead of re-deriving.",
            ),
            (
                "kbt_net_sessions_accepted_total",
                "Connections accepted over the process lifetime.",
            ),
            (
                "kbt_net_sessions_active",
                "Sessions currently being served.",
            ),
            (
                "kbt_net_sessions_rejected_total",
                "Connections refused at session capacity.",
            ),
            (
                "kbt_net_sessions_idle_closed_total",
                "Sessions closed by the idle timeout.",
            ),
        ] {
            registry.describe(name, help);
        }
        ServiceMetrics {
            commits_total: registry.counter("kbt_service_commits_total"),
            applies_total: registry.counter("kbt_service_applies_total"),
            defines_total: registry.counter("kbt_service_defines_total"),
            queries_total: registry.counter("kbt_service_queries_total"),
            queries_magic_total: registry.counter("kbt_service_queries_magic_total"),
            queries_tabled_total: registry.counter("kbt_service_queries_tabled_total"),
            queries_materialize_total: registry.counter("kbt_service_queries_materialize_total"),
            snapshots_total: registry.counter("kbt_service_snapshots_total"),
            epoch: registry.gauge("kbt_service_epoch"),
            held_epochs: registry.gauge("kbt_service_held_epochs"),
            held_epoch_lag: registry.gauge("kbt_service_held_epoch_lag"),
            commit_parse_ns: registry.histogram("kbt_service_commit_parse_ns"),
            commit_apply_ns: registry.histogram("kbt_service_commit_apply_ns"),
            commit_publish_ns: registry.histogram("kbt_service_commit_publish_ns"),
            commit_batch_facts: registry.histogram("kbt_service_commit_batch_facts"),
            query_ns: registry.histogram("kbt_service_query_ns"),
            wal_records_total: registry.counter("kbt_service_wal_records_total"),
            wal_bytes_total: registry.counter("kbt_service_wal_bytes_total"),
            wal_fsyncs_total: registry.counter("kbt_service_wal_fsyncs_total"),
            group_commit_batch: registry.histogram("kbt_service_group_commit_batch"),
            checkpoints_total: registry.counter("kbt_service_checkpoints_total"),
            checkpoint_write_ns: registry.histogram("kbt_service_checkpoint_write_ns"),
            checkpoint_load_ns: registry.histogram("kbt_service_checkpoint_load_ns"),
            recovery_replayed_total: registry.counter("kbt_service_recovery_replayed_total"),
            recovery_replay_ns: registry.histogram("kbt_service_recovery_replay_ns"),
            recovery_chains_seeded_total: registry
                .counter("kbt_service_recovery_chains_seeded_total"),
            registry,
        }
    }
}

/// The slot of a verb's latency series: its position in [`VERBS`], or one
/// past the end — `verb="error"` — for lines that fail verb parsing (they
/// are timed too).
fn verb_slot(verb: Option<Verb>) -> usize {
    VERBS
        .iter()
        .position(|&(v, _)| Some(v) == verb)
        .unwrap_or(VERBS.len())
}

/// The exposition label value of a series slot.
fn slot_label(slot: usize) -> &'static str {
    VERBS.get(slot).map_or("error", |&(_, name)| name)
}

/// The exposition label value for a verb (`None` = `"error"`).
pub(crate) fn verb_label(verb: Option<Verb>) -> &'static str {
    slot_label(verb_slot(verb))
}

/// Metric handles for the TCP front.
#[derive(Debug)]
pub struct NetMetrics {
    /// Per-verb command latency over the wire, one labelled series per
    /// verb plus `verb="error"` — all pre-registered at server start, so a
    /// scrape sees the full verb taxonomy before any traffic.
    command_ns: [Histogram; VERBS.len() + 1],
    /// Command lines the framer refused (too long / invalid UTF-8).
    pub framing_errors_total: Counter,
}

impl NetMetrics {
    /// Registers every network series in `registry`, with `# HELP`
    /// descriptions for the exposition.
    pub fn register(registry: &Registry) -> Self {
        registry.describe(
            "kbt_net_command_ns",
            "Per-verb command latency over the wire.",
        );
        registry.describe(
            "kbt_net_framing_errors_total",
            "Command lines the framer refused (too long / invalid UTF-8).",
        );
        NetMetrics {
            command_ns: std::array::from_fn(|slot| {
                registry.histogram_labeled("kbt_net_command_ns", "verb", slot_label(slot))
            }),
            framing_errors_total: registry.counter("kbt_net_framing_errors_total"),
        }
    }

    /// The latency histogram for one command verb (`None` = the line
    /// failed verb parsing and is timed under `verb="error"`).
    pub fn command_ns(&self, verb: Option<Verb>) -> &Histogram {
        &self.command_ns[verb_slot(verb)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_metrics_register_the_catalogue() {
        let m = ServiceMetrics::register(Registry::new());
        m.commits_total.inc();
        m.query_ns.record(42);
        let snap = m.registry.snapshot();
        assert_eq!(snap.value("kbt_service_commits_total"), Some(1));
        assert_eq!(snap.histogram("kbt_service_query_ns").unwrap().count, 1);
        // registration is eager: a never-touched series still scrapes
        assert_eq!(snap.value("kbt_service_applies_total"), Some(0));
        assert!(snap.render().contains("kbt_service_commit_publish_ns"));
    }

    #[test]
    fn net_metrics_cover_every_verb_label() {
        let registry = Registry::new();
        let m = NetMetrics::register(&registry);
        m.command_ns(Some(Verb::Query)).record(10);
        m.command_ns(None).record(99);
        let snap = registry.snapshot();
        let labels = VERBS.map(|(_, name)| name);
        for label in labels.iter().chain(&["error"]) {
            let name = format!("kbt_net_command_ns{{verb=\"{label}\"}}");
            assert!(snap.histogram(&name).is_some(), "{name} must pre-register");
        }
        assert_eq!(
            snap.histogram("kbt_net_command_ns{verb=\"query\"}")
                .unwrap()
                .count,
            1
        );
        assert_eq!(
            snap.histogram("kbt_net_command_ns{verb=\"error\"}")
                .unwrap()
                .count,
            1
        );
    }
}
