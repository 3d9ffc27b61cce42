//! The service itself: MVCC snapshots, the serialized commit pipeline, and
//! the command dispatcher.
//!
//! See the crate docs for the epoch/commit/snapshot contract.  The
//! concurrency structure in one paragraph: each committed epoch is one
//! published value in a [`kbt_data::EpochCell`] — the committed state (the
//! knowledgebase, the vocabulary, the transform registry and the
//! cumulative statistics) together with the read state that depends on it
//! alone: the goal-directed rulebase and the epoch's subsumptive answer
//! table, which is dropped with its epoch.  Readers take `O(1)` snapshots
//! of it and never block on evaluation work.  All mutation goes through
//! one writer [`Mutex`]: a commit parses/evaluates under that lock against
//! the writer's working copy of the committed state and then atomically
//! publishes the next epoch.  Registered transformations keep a persistent
//! [`ChainSession`] in the writer state, so re-`APPLY`ing one feeds only
//! the *delta* since its previous application into the live engine
//! fixpoint ([`kbt_engine::IncrementalSession`] underneath).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use kbt_core::{ChainSession, EvalStats, Transform, Transformer};
use kbt_data::{
    Database, EpochCell, EpochId, Knowledgebase, RelId, Relation, Versioned, Vocabulary,
};
use kbt_datalog::Program;
use kbt_engine::table::SubsumptiveTable;
use kbt_obs::{Counter, Gauge, Registry};

use crate::checkpoint::CheckpointManager;
use crate::command::{
    parse_define, parse_fact_list, parse_transform, render_fact, render_fact_into,
    render_transform, split_command, split_lines, Verb,
};
use crate::config::ServiceConfig;
use crate::error::{Result, ServiceError};
use crate::metrics::ServiceMetrics;
use crate::read::{build_rulebase, ReadView};
use crate::recover;
use crate::wal::{Wal, WalMetrics, WAL_FILE};

/// How deep `LOAD`ed scripts may nest before the service assumes a cycle.
const MAX_SCRIPT_DEPTH: usize = 8;

/// Cumulative writer-side counters, published with every epoch (so a
/// snapshot's statistics are consistent with its knowledgebase).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Committed epochs (every successful write command).
    pub commits: u64,
    /// `APPLY` commands among the commits.
    pub applies: u64,
    /// `DEFINE` commands processed.
    pub defines: u64,
    /// Cumulative evaluator statistics over all commits.
    pub eval: EvalStats,
}

/// Shared connection/session counters for a network front serving this
/// service.  The service owns one instance (so `STATS` can always report
/// it — all zeros when no network front is attached) and a server bumps it
/// through [`Service::session_counters`].
///
/// The cells are the service registry's `kbt_net_sessions_*` series —
/// `STATS` and `METRICS` read the **same** storage, never two sets of
/// books that could drift apart.
#[derive(Clone, Debug)]
pub struct SessionCounters {
    /// Connections accepted over the lifetime of the process
    /// (`kbt_net_sessions_accepted_total`).
    pub accepted: Counter,
    /// Sessions currently being served (`kbt_net_sessions_active`).
    pub active: Gauge,
    /// Connections refused because `max_sessions` sessions were active
    /// (`kbt_net_sessions_rejected_total`).
    pub rejected: Counter,
    /// Sessions closed by the idle timeout
    /// (`kbt_net_sessions_idle_closed_total`).
    pub idle_closed: Counter,
}

impl SessionCounters {
    fn register(registry: &Registry) -> Self {
        SessionCounters {
            accepted: registry.counter("kbt_net_sessions_accepted_total"),
            active: registry.gauge("kbt_net_sessions_active"),
            rejected: registry.counter("kbt_net_sessions_rejected_total"),
            idle_closed: registry.counter("kbt_net_sessions_idle_closed_total"),
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            accepted: self.accepted.get(),
            active: self.active.get(),
            rejected: self.rejected.get(),
            idle_closed: self.idle_closed.get(),
        }
    }
}

/// A point-in-time copy of [`SessionCounters`], carried by [`StatsReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Sessions currently active.
    pub active: u64,
    /// Connections rejected at capacity.
    pub rejected: u64,
    /// Sessions closed idle.
    pub idle_closed: u64,
}

/// Registry metadata for one `DEFINE`d transformation, published with the
/// committed state (the live [`ChainSession`] stays writer-private).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransformInfo {
    /// The canonical wire-format rendering of the expression (shared:
    /// registry edits bump a pointer, they do not re-allocate texts).
    pub text: Arc<str>,
    /// The expression `text` renders, parsed once at `DEFINE` (or at
    /// checkpoint recovery): `APPLY` evaluates it and the goal-directed
    /// rulebase reads its steps from here.
    pub transform: Arc<Transform>,
    /// How many times it has been `APPLY`ed.
    pub applications: u64,
}

/// One committed version of the service state.
#[derive(Clone, Debug)]
pub struct CommittedState {
    /// The knowledgebase — the set of possible worlds being served.
    pub kb: Knowledgebase,
    /// The name registry the knowledgebase and transformations speak.
    /// Shared behind an `Arc`: commits that intern no new names publish
    /// it in `O(1)` instead of re-cloning every registered string.
    pub vocab: Arc<Vocabulary>,
    /// Registered transformations (metadata only).  Shared behind an `Arc`
    /// so fact commits — which cannot change the registry — publish it in
    /// `O(1)` instead of re-cloning every wire-text string.
    pub transforms: Arc<BTreeMap<String, TransformInfo>>,
    /// Cumulative statistics as of this epoch.
    pub stats: ServiceStats,
}

/// What one epoch publishes: the committed state and the read state that
/// depends on it alone.  Each epoch owns its answer table, so a memoized
/// answer can never be read against another epoch, and the table is
/// dropped with its epoch — when the epoch is superseded and no reader
/// holds it anymore.
#[derive(Debug)]
struct Published {
    state: CommittedState,
    /// The goal-directed rulebase of `state.transforms` ([`build_rulebase`]),
    /// shared by every epoch since the registry's last `DEFINE`.
    rulebase: Option<Arc<Program>>,
    /// Memoized goal answers over this epoch (tag 0 = certain, tag 1 =
    /// possible).  Readers hold the lock only to consult or fill it.
    table: Mutex<SubsumptiveTable>,
}

impl Published {
    fn new(state: CommittedState, rulebase: Option<Arc<Program>>) -> Self {
        Published {
            state,
            rulebase,
            table: Mutex::new(SubsumptiveTable::new()),
        }
    }
}

impl Drop for Published {
    /// Evicts the epoch's memo, so `kbt_engine_table_evictions` counts the
    /// calls dropped with it.
    fn drop(&mut self) {
        self.table
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .evict();
    }
}

/// An immutable `O(1)` snapshot of the committed state at some epoch.
#[derive(Clone, Debug)]
pub struct Snapshot {
    inner: Arc<Versioned<Published>>,
}

impl Snapshot {
    /// The epoch this snapshot observes.
    pub fn epoch(&self) -> EpochId {
        self.inner.epoch()
    }

    /// The knowledgebase at this epoch.
    pub fn kb(&self) -> &Knowledgebase {
        &self.inner.value().state.kb
    }

    /// The vocabulary at this epoch.
    pub fn vocab(&self) -> &Vocabulary {
        self.inner.value().state.vocab.as_ref()
    }

    /// The transform registry metadata at this epoch.
    pub fn transforms(&self) -> &BTreeMap<String, TransformInfo> {
        self.inner.value().state.transforms.as_ref()
    }

    /// The cumulative statistics as of this epoch.
    pub fn stats(&self) -> &ServiceStats {
        &self.inner.value().state.stats
    }

    /// The goal-directed rulebase of this epoch's registry (`None` when
    /// no registered step is Horn).
    pub(crate) fn rulebase(&self) -> Option<&Arc<Program>> {
        self.inner.value().rulebase.as_ref()
    }

    /// This epoch's subsumptive answer table, locked.
    pub(crate) fn table(&self) -> MutexGuard<'_, SubsumptiveTable> {
        let table = &self.inner.value().table;
        table.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Writer-private state: the working copy of the committed state a commit
/// mutates before publishing it, and what only the writer needs.
struct Writer {
    state: CommittedState,
    /// Persistent incremental engine state per registered name, advanced
    /// per `APPLY` (absent until the first, and after a failed one).
    chains: BTreeMap<String, ChainSession>,
    /// The rulebase of `state.transforms`, rebuilt at `DEFINE` only: every
    /// other commit publishes the same `Arc`.
    rulebase: Option<Arc<Program>>,
}

/// The result of a read-only `QUERY` over a transformation expression.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The epoch the query evaluated against.
    pub epoch: EpochId,
    /// The resulting knowledgebase.
    pub kb: Knowledgebase,
    /// Evaluator statistics for this query.
    pub stats: EvalStats,
}

/// The answer of a `QUERY CERTAIN/POSSIBLE` read: one relation's facts,
/// held as the [`Relation`] they are, with the read's own vocabulary handle
/// to name them.  Nothing is rendered until
/// [`crate::net::proto::write_response`] writes each row straight into its
/// writer; `Debug` prints the rendered rows.
#[derive(Clone)]
pub struct FactRows {
    rel: RelId,
    facts: Relation,
    vocab: Vocabulary,
}

impl FactRows {
    pub(crate) fn new(rel: RelId, facts: Relation, vocab: Vocabulary) -> Self {
        FactRows { rel, facts, vocab }
    }

    /// The relation the facts belong to.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The facts, as the relation they are.
    pub fn relation(&self) -> &Relation {
        &self.facts
    }

    /// The vocabulary that names the facts' relation and constants.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether there are no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Every fact rendered ([`render_fact`]), in canonical order.
    pub fn render(&self) -> Vec<String> {
        self.facts
            .iter()
            .map(|row| render_fact(self.rel, row, &self.vocab))
            .collect()
    }
}

impl std::fmt::Debug for FactRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.render()).finish()
    }
}

/// The answer of a `QUERY <texpr>` read: the result knowledgebase, with the
/// read's own vocabulary handle to name its facts.  Like [`FactRows`], it
/// is rendered only as the reply is written, and `Debug` prints the
/// rendered worlds.
#[derive(Clone)]
pub struct WorldRows {
    kb: Knowledgebase,
    vocab: Vocabulary,
}

impl WorldRows {
    pub(crate) fn new(kb: Knowledgebase, vocab: Vocabulary) -> Self {
        WorldRows { kb, vocab }
    }

    /// The result knowledgebase.
    pub fn kb(&self) -> &Knowledgebase {
        &self.kb
    }

    /// The vocabulary that names the worlds' relations and constants.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The number of worlds.
    pub fn len(&self) -> usize {
        self.kb.len()
    }

    /// Whether there are no worlds.
    pub fn is_empty(&self) -> bool {
        self.kb.is_empty()
    }

    /// One entry per world: its facts rendered ([`render_fact`]), in
    /// canonical order.
    pub fn render(&self) -> Vec<Vec<String>> {
        self.kb
            .iter()
            .map(|db| {
                db.iter()
                    .flat_map(|(rel, facts)| {
                        facts
                            .iter()
                            .map(move |row| render_fact(rel, row, &self.vocab))
                    })
                    .collect()
            })
            .collect()
    }
}

impl std::fmt::Debug for WorldRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.render()).finish()
    }
}

/// The response to one command (see [`Service::execute`]);
/// [`crate::net::proto::write_response`] turns it into text.
#[derive(Clone, Debug)]
pub enum Response {
    /// A blank line or comment.
    Ok,
    /// A fact commit went through.
    Committed {
        /// The newly published epoch.
        epoch: EpochId,
        /// Possible worlds after the commit.
        worlds: usize,
        /// Total facts across all worlds after the commit.
        facts: usize,
        /// Whether the commit was flushed to stable storage before this
        /// response: `Some(true)` under `group-commit`,
        /// `Some(false)` under `never`, `None` without durability.
        durable: Option<bool>,
    },
    /// A transformation was registered.
    Defined {
        /// The published epoch carrying the updated registry.
        epoch: EpochId,
        /// The registered name.
        name: String,
        /// The canonical wire-format text.
        text: String,
        /// Durability of the commit (see [`Response::Committed::durable`]).
        durable: Option<bool>,
    },
    /// A named transformation was applied and committed.
    Applied {
        /// The newly published epoch.
        epoch: EpochId,
        /// The applied name.
        name: String,
        /// Possible worlds after the commit.
        worlds: usize,
        /// Total facts across all worlds after the commit.
        facts: usize,
        /// Facts the persistent chain reused from the previous application.
        reused_facts: usize,
        /// Durability of the commit (see [`Response::Committed::durable`]).
        durable: Option<bool>,
    },
    /// A `QUERY <texpr>` result: the resulting worlds.
    Worlds {
        /// The epoch the query evaluated against.
        epoch: EpochId,
        /// The result knowledgebase, one data line per world; its facts
        /// are rendered only as the reply is written.
        worlds: WorldRows,
    },
    /// A `QUERY CERTAIN/POSSIBLE` result.
    Facts {
        /// The epoch the query evaluated against.
        epoch: EpochId,
        /// `"certain"` or `"possible"`.
        kind: &'static str,
        /// The queried relation's surface name.
        relation: String,
        /// The answer relation, one data line per fact in canonical order;
        /// the facts are rendered only as the reply is written.
        facts: FactRows,
        /// How a *bound* goal was answered (`"magic"`, `"tabled"` or
        /// `"materialize"`); `None` for the bare all-facts form.
        strategy: Option<&'static str>,
    },
    /// An `EXPLAIN <query>` result: the rendered evaluation plan, nothing
    /// evaluated.
    Explain {
        /// The epoch the plan was rendered against.
        epoch: EpochId,
        /// One rendered line per plan row (see the crate-level
        /// *Observability* section for the row format).
        rows: Vec<String>,
    },
    /// A `PROFILE <query>` result: the query ran to completion and every
    /// rule of its fixpoints reports its share of the work.
    Profile {
        /// The epoch the query evaluated against.
        epoch: EpochId,
        /// Possible worlds in the query result.
        worlds: usize,
        /// One rendered line per profiled rule (see the crate-level
        /// *Observability* section for the row format).
        rows: Vec<String>,
    },
    /// A `STATS` report.
    Stats(StatsReport),
    /// A `METRICS` scrape: the text exposition of every metric.
    Metrics {
        /// The committed epoch at scrape time.
        epoch: EpochId,
        /// The Prometheus-style exposition ([`Service::metrics_text`]).
        text: String,
    },
    /// A script ran to completion.
    Loaded {
        /// Commands executed (nops included).
        commands: usize,
    },
    /// A `CHECKPOINT` command wrote an epoch snapshot.
    Checkpointed {
        /// The epoch the checkpoint captured.
        epoch: EpochId,
        /// The checkpoint file name inside the data directory.
        file: String,
    },
    /// A `WALSTAT` report: write-ahead-log state.
    WalStat {
        /// The committed epoch at report time.
        epoch: EpochId,
        /// The configured fsync policy (`group-commit`/`never`).
        policy: &'static str,
        /// Records appended over the log's lifetime.
        records: u64,
        /// Bytes appended over the log's lifetime.
        bytes: u64,
        /// Fsyncs issued over the log's lifetime.
        fsyncs: u64,
        /// Highest epoch known flushed to stable storage.
        durable_epoch: u64,
        /// Epoch of the newest checkpoint (0 = none yet).
        checkpoint_epoch: u64,
    },
}

/// The `STATS` payload.
#[derive(Clone, Debug)]
pub struct StatsReport {
    /// The committed epoch the report describes.
    pub epoch: EpochId,
    /// Possible worlds at that epoch.
    pub worlds: usize,
    /// Total facts across all worlds.
    pub facts: usize,
    /// The explicit evaluation width the service runs at.
    pub threads: usize,
    /// Queries served so far (process lifetime, all epochs).
    pub queries: u64,
    /// Registered transformations: `(name, wire text, applications)`.
    pub transforms: Vec<(String, String, u64)>,
    /// Writer-side cumulative counters as of the epoch.
    pub stats: ServiceStats,
    /// Connection/session counters of the attached network front (all
    /// zeros when the service is used in-process only).
    pub sessions: SessionSnapshot,
    /// Epochs with outstanding snapshot holders, as `(epoch, holders)` —
    /// the report's own snapshot and the cell's reference to the current
    /// epoch are excluded, so an entry means a *reader* is genuinely
    /// holding that version alive.  A racy gauge by nature (snapshots come
    /// and go concurrently), which is all eviction/GC planning needs.
    pub held_epochs: Vec<(u64, u64)>,
}

/// The durability machinery of one durable service: the open write-ahead
/// log and the checkpoint scheduler.  Installed **after** recovery replay
/// ([`Service::open`]), so replayed commands never re-append to the log
/// they are being read from.
struct DurabilityState {
    wal: Wal,
    checkpoints: CheckpointManager,
}

/// Weak handles to published versions, by epoch.
type Holders = Vec<(EpochId, Weak<Versioned<Published>>)>;

/// A concurrent, multi-session knowledgebase service (see crate docs).
pub struct Service {
    config: ServiceConfig,
    committed: EpochCell<Published>,
    writer: Mutex<Writer>,
    /// Per-instance metric handles (and the registry they live in) — see
    /// the crate-level *Observability* section for the catalogue.
    metrics: ServiceMetrics,
    /// Session counters a network front bumps (zeros otherwise).
    sessions: Arc<SessionCounters>,
    /// Weak handles to every published version still alive somewhere:
    /// `STATS` derives per-epoch snapshot holder counts from the strong
    /// counts.  Pruned on every publish, so it holds at most one entry per
    /// epoch a reader is still pinning (plus the current one).
    holders: Mutex<Holders>,
    /// Durability, when configured — empty until [`Service::open`] finishes
    /// recovery replay, and always empty for [`Service::new`] services.
    durability: OnceLock<Arc<DurabilityState>>,
}

impl Default for Service {
    fn default() -> Self {
        Service::new(ServiceConfig::default())
    }
}

impl Service {
    /// A service over the initial knowledgebase `{∅}` — one empty world —
    /// at [`EpochId::ZERO`].  Any durability in `config` is **ignored**
    /// here: the durable entry point is [`Service::open`], which must be
    /// fallible (it touches the filesystem and replays the log).
    pub fn new(config: ServiceConfig) -> Self {
        Service::from_parts(
            config,
            EpochId::ZERO,
            CommittedState {
                kb: Knowledgebase::singleton(Database::new()),
                vocab: Arc::new(Vocabulary::new()),
                transforms: Arc::default(),
                stats: ServiceStats::default(),
            },
        )
    }

    /// Assembles a service around an arbitrary committed state — the shared
    /// constructor behind [`Service::new`] (the empty state at epoch zero)
    /// and [`Service::open`] (a checkpoint-recovered state).
    fn from_parts(config: ServiceConfig, epoch: EpochId, state: CommittedState) -> Self {
        // Touch the library-level registries eagerly: every data/core/
        // engine/datalog/par/solver series must exist from the first scrape,
        // not the first fixpoint or the first non-Horn update.
        kbt_data::metrics();
        kbt_core::metrics();
        kbt_engine::metrics();
        kbt_datalog::metrics();
        kbt_par::metrics();
        kbt_solver::metrics();
        let metrics = ServiceMetrics::register(Registry::new());
        let sessions = Arc::new(SessionCounters::register(&metrics.registry));
        let (stats, rulebase) = (state.stats, build_rulebase(&state.transforms));
        let committed = EpochCell::at(epoch, Published::new(state.clone(), rulebase.clone()));
        let holders = Mutex::new(vec![(epoch, Arc::downgrade(&committed.load()))]);
        let writer = Writer {
            state,
            chains: BTreeMap::new(),
            rulebase,
        };
        let service = Service {
            config,
            committed,
            writer: Mutex::new(writer),
            metrics,
            sessions,
            holders,
            durability: OnceLock::new(),
        };
        service.mirror_stats(epoch, &stats);
        service
    }

    /// Opens a service with the durability described by `config`: loads the
    /// newest valid checkpoint, replays the write-ahead-log tail through
    /// the normal commit pipeline, truncates a torn final record, and
    /// starts logging new commits.  Without a [`crate::DurabilityConfig`]
    /// this is [`Service::new`] (and always succeeds).
    ///
    /// Refuses — with a typed error, never a silent partial state — on a
    /// corrupt checkpoint, a corrupt *interior* WAL record, or any epoch
    /// disagreement between the checkpoint and the log (see the crate-level
    /// *Durability* section).
    pub fn open(config: ServiceConfig) -> Result<Self> {
        let Some(dur_config) = config.durability.clone() else {
            return Ok(Service::new(config));
        };
        let plan = recover::plan(&dur_config.data_dir)?;
        let checkpoint_epoch = plan.checkpoint.as_ref().map_or(0, |c| c.epoch);
        let service =
            match plan.checkpoint {
                None => Service::new(config),
                Some(data) => {
                    let vocab = Arc::new(data.vocab);
                    let mut transforms = BTreeMap::new();
                    for (name, applications, text) in data.transforms {
                        // the text was rendered from this vocabulary, so
                        // re-parsing interns nothing — failure means the file
                        // lies about its own vocabulary
                        let transform = parse_transform(&text, &mut vocab.as_ref().clone())
                            .map_err(|e| ServiceError::CheckpointCorrupt {
                                path: crate::checkpoint::checkpoint_file_name(data.epoch),
                                detail: format!("transform {name:?} does not re-parse: {e}"),
                            })?;
                        transforms.insert(
                            name,
                            TransformInfo {
                                text: text.into(),
                                transform: Arc::new(transform),
                                applications,
                            },
                        );
                    }
                    Service::from_parts(
                        config,
                        EpochId::new(data.epoch),
                        CommittedState {
                            kb: data.kb,
                            vocab,
                            transforms: Arc::new(transforms),
                            stats: data.stats,
                        },
                    )
                }
            };
        if let Some(ns) = plan.checkpoint_load_ns {
            service.metrics.checkpoint_load_ns.record(ns);
        }
        let replay = service.metrics.recovery_replay_ns.span();
        if let Some(record) = &plan.checkpoint_record {
            service.resume_chain(&record.command)?;
        }
        // Replay the tail through the normal pipeline.  Durability is not
        // installed yet, so nothing re-appends to the log; each command
        // must commit exactly the epoch its record claims.
        for record in &plan.tail {
            let response = service.execute(&record.command)?;
            let produced = commit_epoch(&response).ok_or_else(|| ServiceError::WalCorrupt {
                offset: 0,
                detail: format!(
                    "replayed record e{} is not a write command: {:?}",
                    record.epoch, record.command
                ),
            })?;
            if produced.get() != record.epoch {
                return Err(ServiceError::EpochMismatch {
                    expected: record.epoch,
                    found: produced.get(),
                });
            }
            service.metrics.recovery_replayed_total.inc();
        }
        drop(replay);
        let wal = Wal::open(
            dur_config.data_dir.join(WAL_FILE),
            dur_config.fsync_policy,
            plan.wal_valid_len,
            service.epoch().get(),
            WalMetrics {
                records_total: service.metrics.wal_records_total.clone(),
                bytes_total: service.metrics.wal_bytes_total.clone(),
                fsyncs_total: service.metrics.wal_fsyncs_total.clone(),
                batch: service.metrics.group_commit_batch.clone(),
            },
        )?;
        let checkpoints = CheckpointManager::new(
            dur_config.data_dir.clone(),
            dur_config.checkpoint_every_n_commits,
            checkpoint_epoch,
            service.metrics.checkpoints_total.clone(),
            service.metrics.checkpoint_write_ns.clone(),
        );
        let installed = service
            .durability
            .set(Arc::new(DurabilityState { wal, checkpoints }))
            .is_ok();
        debug_assert!(installed, "open() owns the only handle before here");
        Ok(service)
    }

    /// Installs the chain session of the transformation whose `APPLY`
    /// committed the checkpointed state, `command` being that record,
    /// when [`Transformer::resume_chain`] can rebuild it from the state
    /// (see [`crate::recover`]); otherwise the first `APPLY` evaluates in
    /// full, as it always did.
    fn resume_chain(&self, command: &str) -> Result<()> {
        let Ok((Verb::Apply, name)) = split_command(command) else {
            return Ok(());
        };
        let name = name.trim();
        let mut w = self.lock_writer()?;
        let Some(info) = w.state.transforms.get(name) else {
            return Ok(());
        };
        let transformer = Transformer::with_options(self.config.eval_options());
        if let Some(chain) = transformer.resume_chain(&info.transform, &w.state.kb) {
            w.chains.insert(name.to_string(), chain);
            self.metrics.recovery_chains_seeded_total.inc();
        }
        Ok(())
    }

    /// The session counters a network front attached to this service
    /// updates; `STATS` reports them (all zeros without a network front).
    pub fn session_counters(&self) -> Arc<SessionCounters> {
        self.sessions.clone()
    }

    /// This service's metric handles (per-instance — two services never
    /// share a counter).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The per-instance observability registry: the network front
    /// registers its series here, hosts install log sinks / slow-span
    /// thresholds here, and `METRICS` scrapes it (merged with
    /// [`kbt_obs::Registry::global`], where the library crates record).
    pub fn obs_registry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// An `O(1)` MVCC snapshot of the committed state.
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.snapshots_total.inc();
        Snapshot {
            inner: self.committed.load(),
        }
    }

    /// The currently committed epoch.
    pub fn epoch(&self) -> EpochId {
        self.committed.epoch()
    }

    /// Parses and executes one command line (see the grammar in
    /// [`crate::command`]).  Write commands serialize on the commit
    /// pipeline; `QUERY`/`STATS` run against a snapshot without blocking
    /// writers.
    pub fn execute(&self, line: &str) -> Result<Response> {
        self.execute_traced(line, None)
    }

    /// [`Self::execute`] with a trace identifier attached: slow-query log
    /// records carry it as an `id` field, so a wire front's per-command
    /// trace IDs correlate with the log stream (see the crate-level
    /// *Observability* section).  `execute` is `execute_traced(line, None)`.
    pub fn execute_traced(&self, line: &str, trace: Option<&str>) -> Result<Response> {
        self.execute_at_depth(line, 0, trace)
    }

    /// Executes a whole script (one command per line), stopping at the
    /// first error.
    pub fn execute_script(&self, text: &str) -> Result<Vec<Response>> {
        self.script_at_depth(text, 0)
    }

    fn execute_at_depth(&self, line: &str, depth: usize, trace: Option<&str>) -> Result<Response> {
        let (verb, rest) = split_command(line)?;
        match verb {
            Verb::Nop => Ok(Response::Ok),
            Verb::Stats => Ok(Response::Stats(self.stats_report())),
            Verb::Metrics => Ok(Response::Metrics {
                epoch: self.epoch(),
                text: self.metrics_text(),
            }),
            Verb::Query => self.read(ReadView::Answer, rest, trace),
            Verb::Explain => self.read(ReadView::Explain, rest, trace),
            Verb::Profile => self.read(ReadView::Profile, rest, trace),
            Verb::Load => self.load(rest, depth),
            Verb::Checkpoint => self.checkpoint_now(),
            Verb::Walstat => self.walstat(),
            Verb::Assert | Verb::Retract | Verb::Define | Verb::Apply => {
                self.write_command(verb, rest)
            }
        }
    }

    fn script_at_depth(&self, text: &str, depth: usize) -> Result<Vec<Response>> {
        // logical lines, not physical ones: a quoted constant may contain
        // a newline, and the net framer segments its byte stream the same
        // way — scripts mean the same thing locally and over the wire
        split_lines(text)
            .into_iter()
            .map(|line| self.execute_at_depth(line, depth, None))
            .collect()
    }

    fn load(&self, rest: &str, depth: usize) -> Result<Response> {
        if depth >= MAX_SCRIPT_DEPTH {
            return Err(ServiceError::ScriptDepth(MAX_SCRIPT_DEPTH));
        }
        let path = rest.trim();
        if path.is_empty() {
            return Err(ServiceError::Parse {
                message: "expected LOAD <path>".to_string(),
            });
        }
        let text = std::fs::read_to_string(path)?;
        let responses = self.script_at_depth(&text, depth + 1)?;
        Ok(Response::Loaded {
            commands: responses.len(),
        })
    }

    // ------------------------------------------------------------------
    // Write path: the serialized commit pipeline.
    // ------------------------------------------------------------------

    /// The writer, or [`ServiceError::WriterPoisoned`] once a commit has
    /// panicked under the lock: its `Writer` may be half-mutated, so no
    /// later commit may build on it.  Reads never take this lock and keep
    /// serving the last published epoch.
    fn lock_writer(&self) -> Result<std::sync::MutexGuard<'_, Writer>> {
        self.writer.lock().map_err(|_| ServiceError::WriterPoisoned)
    }

    /// Publishes the writer's current state as the next epoch and registers
    /// it in the holder registry.
    fn publish(&self, w: &Writer) -> EpochId {
        let _span = self.metrics.commit_publish_ns.span();
        let published = Published::new(w.state.clone(), w.rulebase.clone());
        let epoch = self.committed.publish(published);
        // Publishes serialize on the writer lock, so this load observes the
        // version published one line above.
        let current = self.committed.load();
        self.holders(epoch).push((epoch, Arc::downgrade(&current)));
        self.mirror_stats(epoch, &w.state.stats);
        epoch
    }

    /// Mirrors the committed cumulative totals into the registry — the
    /// published stats stay the single source of truth; the counters are a
    /// read-only reflection.
    fn mirror_stats(&self, epoch: EpochId, stats: &ServiceStats) {
        self.metrics.commits_total.set(stats.commits);
        self.metrics.applies_total.set(stats.applies);
        self.metrics.defines_total.set(stats.defines);
        self.metrics.epoch.set(epoch.get());
    }

    /// The holder registry, pruned of versions nobody holds anymore, after
    /// recomputing the epoch-holder gauges from it: how many **past**
    /// epochs readers still pin, and how far behind `current` the oldest
    /// of them is.
    fn holders(&self, current: EpochId) -> MutexGuard<'_, Holders> {
        let mut reg = self.holders.lock().unwrap_or_else(PoisonError::into_inner);
        reg.retain(|(_, weak)| weak.strong_count() > 0);
        let current = current.get();
        let past = || {
            reg.iter()
                .map(|(epoch, _)| epoch.get())
                .filter(|&e| e != current)
        };
        self.metrics.held_epochs.set(past().count() as u64);
        // a report's snapshot may be older than a version published since
        let oldest = past().min().unwrap_or(current);
        self.metrics
            .held_epoch_lag
            .set(current.saturating_sub(oldest));
        reg
    }

    /// Appends `command` to the WAL as the record of the epoch the writer
    /// is about to publish.  A no-op without durability — which includes
    /// recovery replay, where durability is installed only *after* the
    /// tail has been replayed (so a replayed command never re-appends to
    /// the log it came from).  Must run under the writer lock: the lock
    /// pins the next epoch to `committed + 1` and makes record order equal
    /// epoch order.
    fn wal_append(&self, command: &str) -> Result<()> {
        if let Some(dur) = self.durability.get() {
            dur.wal
                .append(self.committed.epoch().next().get(), command)?;
        }
        Ok(())
    }

    /// The post-publish durability step, run *outside* the writer lock so
    /// fsync waits never serialize unrelated commits: waits until the
    /// commit's WAL record is durable per the fsync policy, stamps the
    /// response's `durable` field, and hands the committed state to the
    /// checkpoint scheduler when the interval has elapsed.
    fn finish_commit(&self, response: &mut Response) -> Result<()> {
        let Some(dur) = self.durability.get() else {
            return Ok(());
        };
        let (epoch, durable) = match response {
            Response::Committed { epoch, durable, .. }
            | Response::Defined { epoch, durable, .. }
            | Response::Applied { epoch, durable, .. } => (*epoch, durable),
            _ => return Ok(()),
        };
        *durable = Some(dur.wal.sync(epoch.get())?);
        if dur.checkpoints.note_commit() {
            // re-load rather than reuse: another commit may have published
            // since we dropped the writer lock, and the scheduler needs an
            // (epoch, state) pair that actually belong together
            let snap = self.committed.load();
            dur.checkpoints
                .trigger(snap.epoch().get(), snap.value().state.clone());
        }
        Ok(())
    }

    /// `CHECKPOINT`: synchronously writes an epoch snapshot of the current
    /// committed state into the data directory.
    fn checkpoint_now(&self) -> Result<Response> {
        let dur = self
            .durability
            .get()
            .ok_or(ServiceError::DurabilityDisabled)?;
        let snap = self.committed.load();
        let file = dur
            .checkpoints
            .write_now(snap.epoch().get(), &snap.value().state)?;
        Ok(Response::Checkpointed {
            epoch: snap.epoch(),
            file,
        })
    }

    /// `WALSTAT`: reports the write-ahead log's point-in-time counters.
    fn walstat(&self) -> Result<Response> {
        let dur = self
            .durability
            .get()
            .ok_or(ServiceError::DurabilityDisabled)?;
        let stat = dur.wal.stat();
        Ok(Response::WalStat {
            epoch: self.epoch(),
            policy: dur.wal.policy().name(),
            records: stat.records,
            bytes: stat.bytes,
            fsyncs: stat.fsyncs,
            durable_epoch: stat.durable_epoch,
            checkpoint_epoch: dur.checkpoints.last_epoch(),
        })
    }

    fn write_command(&self, verb: Verb, rest: &str) -> Result<Response> {
        let mut response = {
            // enter before queueing on the writer lock, so a flushing
            // leader waits for this commit; declared first, dropped last
            let _in_flight = self.durability.get().map(|dur| dur.wal.enter());
            let mut w = self.lock_writer()?;
            // Parse against a handle of our own on the authoritative
            // vocabulary: a rejected command must leave no trace, and
            // interning is only adopted once the whole commit has
            // succeeded.  (A failed `ASSERT ghost(x)` must not make a
            // later `QUERY CERTAIN ghost` resolve.)  The isolation is the
            // type's — the handle copies the open chunk and index level it
            // appends to when this command first interns a name, and
            // nothing before (`kbt_data::vocabulary`'s module docs).
            let mut vocab = w.state.vocab.as_ref().clone();
            match verb {
                Verb::Assert => {
                    let facts = {
                        let _parse = self.metrics.commit_parse_ns.span();
                        parse_fact_list(rest, &mut vocab)?
                    };
                    self.commit_facts(&mut w, vocab, &facts, true)
                }
                Verb::Retract => {
                    let facts = {
                        let _parse = self.metrics.commit_parse_ns.span();
                        parse_fact_list(rest, &mut vocab)?
                    };
                    // A RETRACT must not *introduce* names: a relation or named
                    // constant first seen here cannot match any stored fact, so
                    // the command is a guaranteed no-op — almost certainly a
                    // typo — and silently committing it (and publishing the
                    // bogus name) would mask the mistake forever.
                    for (rel, _) in &facts {
                        if rel.index() as usize >= w.state.vocab.relation_count() {
                            return Err(ServiceError::UnknownRelation(
                                vocab.relation_name(*rel).unwrap_or_default().to_string(),
                            ));
                        }
                    }
                    let known = w.state.vocab.constant_count();
                    if vocab.constant_count() > known {
                        let first_new = kbt_data::Const::new(known as u32);
                        return Err(ServiceError::UnknownConstant(
                            vocab
                                .constant_name(first_new)
                                .unwrap_or_default()
                                .to_string(),
                        ));
                    }
                    self.commit_facts(&mut w, vocab, &facts, false)
                }
                Verb::Define => {
                    let (name, transform) = {
                        let _parse = self.metrics.commit_parse_ns.span();
                        parse_define(rest, &mut vocab)?
                    };
                    let text: Arc<str> = render_transform(&transform, &vocab).into();
                    // log the *canonical* rendering, not the user's spelling:
                    // replay must re-intern names in exactly this order
                    self.wal_append(&format!("DEFINE {name} := {text}"))?;
                    let w = &mut *w;
                    w.state.vocab = Arc::new(vocab);
                    // Re-registration under an existing name replaces the
                    // expression and drops the stale chain session.
                    let transforms = Arc::make_mut(&mut w.state.transforms);
                    transforms.insert(
                        name.clone(),
                        TransformInfo {
                            text: text.clone(),
                            transform: Arc::new(transform),
                            applications: 0,
                        },
                    );
                    w.chains.remove(&name);
                    w.rulebase = build_rulebase(transforms);
                    w.state.stats.defines += 1;
                    w.state.stats.commits += 1;
                    let epoch = self.publish(w);
                    Ok(Response::Defined {
                        epoch,
                        name,
                        text: text.to_string(),
                        durable: None,
                    })
                }
                Verb::Apply => self.apply_named(&mut w, rest.trim()),
                _ => unreachable!("write_command only receives write verbs"),
            }
            // the writer guard drops here: durability waits below never
            // block the next commit's evaluation work
        }?;
        self.finish_commit(&mut response)?;
        Ok(response)
    }

    /// Applies ground fact deltas to every possible world — the
    /// Winslett-exact fast path for `τ` of a conjunction of ground
    /// positive literals (`ASSERT`) or their retraction (`RETRACT`).
    fn commit_facts(
        &self,
        w: &mut Writer,
        vocab: Vocabulary,
        facts: &[(RelId, kbt_data::Tuple)],
        insert: bool,
    ) -> Result<Response> {
        // batch size is a deterministic input, so it records regardless of
        // the timing toggle (like every counter)
        self.metrics.commit_batch_facts.record(facts.len() as u64);
        let apply_span = self.metrics.commit_apply_ns.span();
        let mut worlds = Vec::with_capacity(w.state.kb.len());
        for db in w.state.kb.iter() {
            let mut db = db.clone();
            db.apply_facts(facts, insert)?;
            worlds.push(db);
        }
        // worlds that differed only in the changed facts may collapse
        let kb = Knowledgebase::from_databases(worlds)?;
        drop(apply_span);
        // every fallible step is behind us: log the commit (canonical
        // rendering against the scratch vocabulary, which has every name
        // this command interned), then adopt the state
        let mut command = String::from(if insert { "ASSERT " } else { "RETRACT " });
        for (i, (rel, t)) in facts.iter().enumerate() {
            if i > 0 {
                command.push_str(", ");
            }
            render_fact_into(&mut command, *rel, t.components(), &vocab);
        }
        self.wal_append(&command)?;
        // publish a new vocabulary only when this command interned a name
        if !vocab.shares_names(&w.state.vocab) {
            w.state.vocab = Arc::new(vocab);
        }
        w.state.kb = kb;
        w.state.stats.commits += 1;
        let epoch = self.publish(w);
        Ok(Response::Committed {
            epoch,
            worlds: w.state.kb.len(),
            facts: total_facts(&w.state.kb),
            durable: None,
        })
    }

    fn apply_named(&self, w: &mut Writer, name: &str) -> Result<Response> {
        let Some(info) = w.state.transforms.get(name) else {
            return Err(ServiceError::UnknownTransform(name.to_string()));
        };
        let transform = info.transform.clone();
        let mut chain = w.chains.remove(name);
        let transformer = Transformer::with_options(self.config.eval_options());
        let apply_span = self.metrics.commit_apply_ns.span();
        let result = transformer.apply_with_chain(&transform, &w.state.kb, &mut chain);
        drop(apply_span);
        // The session goes back only once the commit is certain.  After an
        // evaluation error the walk stopped midway; after a WAL failure it
        // has consumed a delta the committed knowledgebase never saw.
        // Either way it has been advanced towards a state that was never
        // committed, so it stays dropped and the next successful APPLY
        // rebuilds it.
        let result = result?;
        self.wal_append(&format!("APPLY {name}"))?;
        if let Some(chain) = chain {
            w.chains.insert(name.to_string(), chain);
        }
        let transforms = Arc::make_mut(&mut w.state.transforms);
        transforms
            .get_mut(name)
            .expect("present above")
            .applications += 1;
        w.state.kb = result.kb;
        w.state.stats.applies += 1;
        w.state.stats.commits += 1;
        w.state.stats.eval.absorb(&result.stats);
        let epoch = self.publish(w);
        Ok(Response::Applied {
            epoch,
            name: name.to_string(),
            worlds: w.state.kb.len(),
            facts: total_facts(&w.state.kb),
            reused_facts: result.stats.reused_facts,
            durable: None,
        })
    }

    fn stats_report(&self) -> StatsReport {
        let snap = self.snapshot();
        let held_epochs = (self.holders(snap.epoch()).iter())
            .filter_map(|(epoch, weak)| {
                let mut holders = weak.strong_count() as u64;
                if *epoch == snap.epoch() {
                    // exclude the cell's own reference and the snapshot
                    // this report is being built from
                    holders = holders.saturating_sub(2);
                }
                (holders > 0).then_some((epoch.get(), holders))
            })
            .collect();
        StatsReport {
            epoch: snap.epoch(),
            worlds: snap.kb().len(),
            facts: total_facts(snap.kb()),
            threads: self.config.threads,
            queries: self.metrics.queries_total.get(),
            transforms: snap
                .transforms()
                .iter()
                .map(|(name, info)| (name.clone(), info.text.to_string(), info.applications))
                .collect(),
            stats: *snap.stats(),
            sessions: self.sessions.snapshot(),
            held_epochs,
        }
    }

    /// The Prometheus-style text exposition behind the `METRICS` command:
    /// this service's registry merged with the process-global one (where
    /// `kbt-engine` / `kbt-par` record), point-in-time gauges refreshed.
    pub fn metrics_text(&self) -> String {
        // refresh the scrape-time gauges so a scrape between commits still
        // reports current holder state
        let current = self.committed.epoch();
        self.metrics.epoch.set(current.get());
        drop(self.holders(current));
        let mut snap = self.metrics.registry.snapshot();
        snap.merge(&Registry::global().snapshot());
        snap.render()
    }
}

/// Total facts across all worlds.
fn total_facts(kb: &Knowledgebase) -> usize {
    kb.iter().map(Database::fact_count).sum()
}

/// The epoch a *commit* response published (`None` for read responses) —
/// recovery replay uses it to hold each replayed command to the epoch its
/// WAL record claims.
fn commit_epoch(response: &Response) -> Option<EpochId> {
    match response {
        Response::Committed { epoch, .. }
        | Response::Defined { epoch, .. }
        | Response::Applied { epoch, .. } => Some(*epoch),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Service {
        Service::new(ServiceConfig::builder().threads(1).build())
    }

    #[test]
    fn starts_with_one_empty_world_at_epoch_zero() {
        let s = service();
        let snap = s.snapshot();
        assert_eq!(snap.epoch(), EpochId::ZERO);
        assert_eq!(snap.kb().len(), 1);
        assert_eq!(total_facts(snap.kb()), 0);
    }

    #[test]
    fn asserts_commit_new_epochs_and_snapshots_stay_frozen() {
        let s = service();
        let before = s.snapshot();
        let r = s.execute("ASSERT edge(1, 2), edge(2, 3)").unwrap();
        match r {
            Response::Committed {
                epoch,
                worlds,
                facts,
                durable,
            } => {
                assert_eq!(epoch, EpochId::new(1));
                assert_eq!(worlds, 1);
                assert_eq!(facts, 2);
                assert_eq!(durable, None, "no durability configured");
            }
            other => panic!("expected Committed, got {other:?}"),
        }
        assert_eq!(total_facts(before.kb()), 0, "snapshot must be frozen");
        assert_eq!(total_facts(s.snapshot().kb()), 2);

        let r = s.execute("RETRACT edge(1, 2)").unwrap();
        assert!(matches!(r, Response::Committed { facts: 1, .. }));
    }

    #[test]
    fn define_apply_query_round_trip() {
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(2, 3), edge(3, 4)")
            .unwrap();
        s.execute(
            "DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
             (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]",
        )
        .unwrap();
        let r = s.execute("APPLY tc").unwrap();
        match r {
            Response::Applied { worlds, facts, .. } => {
                assert_eq!(worlds, 1);
                // 3 edges + 6 paths
                assert_eq!(facts, 9);
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        let r = s.execute("QUERY CERTAIN path").unwrap();
        match r {
            Response::Facts { kind, facts, .. } => {
                assert_eq!(kind, "certain");
                assert_eq!(facts.len(), 6);
                assert!(facts.render().contains(&"path(1, 4)".to_string()));
            }
            other => panic!("expected Facts, got {other:?}"),
        }
    }

    #[test]
    fn repeated_apply_reuses_the_persistent_chain() {
        let s = service();
        s.execute("ASSERT edge(1, 2), edge(2, 3)").unwrap();
        s.execute(
            "DEFINE tc := tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
             (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]; project[edge]",
        )
        .unwrap();
        let first = s.execute("APPLY tc").unwrap();
        assert!(matches!(
            first,
            Response::Applied {
                reused_facts: 0,
                ..
            }
        ));
        s.execute("ASSERT edge(3, 4)").unwrap();
        let second = s.execute("APPLY tc").unwrap();
        match second {
            Response::Applied { reused_facts, .. } => {
                assert!(reused_facts > 0, "the chain session must be reused");
            }
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_apply_drops_the_chain_session() {
        // at most two worlds: with two marks the last step's four worlds
        // overflow *after* the closure step has advanced the chain session
        let options = kbt_core::EvalOptions {
            max_worlds: 2,
            ..kbt_core::EvalOptions::default()
        };
        let s = Service::new(ServiceConfig::builder().threads(1).options(options).build());
        s.execute("ASSERT edge(1, 2), edge(2, 3), mark(1), mark(2)")
            .unwrap();
        s.execute(
            "DEFINE step := project[edge, mark]; \
             tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
             (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]; \
             tau[forall x0. mark(x0) -> (a(x0) | b(x0))]",
        )
        .unwrap();
        assert!(matches!(
            s.execute("APPLY step"),
            Err(ServiceError::Core(
                kbt_core::CoreError::TooManyWorlds { .. }
            ))
        ));
        assert!(!s.lock_writer().unwrap().chains.contains_key("step"));
        // the next successful APPLY rebuilds the session and equals a
        // from-scratch application
        s.execute("RETRACT mark(2)").unwrap();
        s.execute("ASSERT edge(3, 4)").unwrap();
        let before = s.snapshot();
        let Response::Applied { reused_facts, .. } = s.execute("APPLY step").unwrap() else {
            panic!("expected Applied");
        };
        assert_eq!(reused_facts, 0, "a dropped session cannot be reused");
        let text = &before.transforms()["step"].text;
        let transform = parse_transform(text, &mut before.vocab().clone()).unwrap();
        let scratch = Transformer::new().apply(&transform, before.kb()).unwrap();
        assert_eq!(scratch.kb.len(), 2);
        assert!(s.snapshot().kb() == &scratch.kb);
    }

    #[test]
    fn errors_leave_the_committed_state_unchanged() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        let epoch = s.epoch();
        assert!(s.execute("APPLY missing").is_err());
        assert!(s.execute("ASSERT edge(1, 2, 3)").is_err()); // arity conflict
        assert!(s.execute("QUERY project[nowhere]").is_err());
        assert!(s.execute("NONSENSE").is_err());
        assert_eq!(s.epoch(), epoch);
        assert_eq!(total_facts(s.snapshot().kb()), 1);
    }

    #[test]
    fn failed_commands_leave_no_vocabulary_trace() {
        // a rejected command's interning must not reach the committed
        // state through a later, unrelated successful commit
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        assert!(s.execute("ASSERT ghost(x)").is_err()); // non-ground → rejected
        s.execute("ASSERT edge(2, 3)").unwrap(); // publishes the vocabulary
        assert!(
            matches!(
                s.execute("QUERY CERTAIN ghost"),
                Err(ServiceError::UnknownRelation(_))
            ),
            "the rejected ASSERT must not have interned 'ghost'"
        );
        assert!(s.snapshot().vocab().lookup_relation("ghost").is_none());
    }

    #[test]
    fn interning_reads_leave_the_published_vocabulary_alone() {
        let s = service();
        s.execute("ASSERT isa('a', 'b')").unwrap();
        let before = s.snapshot().vocab().clone();
        // an unknown constant in a bound goal: interned by the read's own
        // handle, a legal empty answer
        match s.execute("QUERY CERTAIN isa('ghost', x)").unwrap() {
            Response::Facts { facts, .. } => assert!(facts.is_empty()),
            other => panic!("expected Facts, got {other:?}"),
        }
        // a fresh relation and a fresh constant in a hypothetical update
        match s.execute("QUERY tau[fresh('n')]; project[fresh]").unwrap() {
            Response::Worlds { worlds, .. } => {
                assert_eq!(worlds.render(), [["fresh('n')"]]);
            }
            other => panic!("expected Worlds, got {other:?}"),
        }
        let snap = s.snapshot();
        assert!(snap.vocab().shares_names(&before));
        assert!(snap.vocab().lookup_constant("ghost").is_none());
        assert!(snap.vocab().lookup_constant("n").is_none());
        assert!(snap.vocab().lookup_relation("fresh").is_none());
    }

    #[test]
    fn only_interning_commits_publish_new_names() {
        let s = service();
        s.execute("ASSERT edge(1, 2), city('Toronto')").unwrap();
        let before = s.snapshot();
        // rejected (arity conflict after interning `ghost`), known names
        // only, and a retraction: the published names are the same object
        assert!(s.execute("ASSERT ghost('g'), edge(1)").is_err());
        assert!(s.snapshot().vocab().shares_names(before.vocab()));
        s.execute("ASSERT edge(2, 3), city('Toronto')").unwrap();
        s.execute("RETRACT edge(1, 2)").unwrap();
        let after = s.snapshot();
        assert_eq!(after.epoch(), EpochId::new(before.epoch().get() + 2));
        assert!(after.vocab().shares_names(before.vocab()));
        // a commit that interns publishes a vocabulary of its own, and the
        // held snapshot still reads the old one
        s.execute("ASSERT city('Ottawa')").unwrap();
        let grown = s.snapshot();
        assert!(!grown.vocab().shares_names(before.vocab()));
        assert!(grown.vocab().lookup_constant("Ottawa").is_some());
        assert!(before.vocab().lookup_constant("Ottawa").is_none());
        assert!(grown.vocab().lookup_relation("ghost").is_none());
    }

    #[test]
    fn retracts_cannot_introduce_names() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        let epoch = s.epoch();
        // a typo'd relation or constant is a guaranteed no-op → rejected
        assert!(matches!(
            s.execute("RETRACT egde(1, 2)"),
            Err(ServiceError::UnknownRelation(_))
        ));
        assert!(matches!(
            s.execute("RETRACT edge('Ghost', 1)"),
            Err(ServiceError::UnknownConstant(_))
        ));
        assert_eq!(s.epoch(), epoch, "rejected retracts must not commit");
        assert!(s.snapshot().vocab().lookup_relation("egde").is_none());
        // retracting an *absent fact* over known names stays a legal no-op
        s.execute("RETRACT edge(2, 1)").unwrap();
        assert_eq!(s.epoch(), EpochId::new(epoch.get() + 1));
    }

    #[test]
    fn named_constants_survive_the_command_round_trip() {
        let s = service();
        s.execute("ASSERT flight('Toronto', 'Ottawa')").unwrap();
        match s.execute("QUERY POSSIBLE flight").unwrap() {
            Response::Facts { facts, .. } => {
                assert_eq!(facts.render(), ["flight('Toronto', 'Ottawa')"]);
            }
            other => panic!("expected Facts, got {other:?}"),
        }
    }

    #[test]
    fn stats_reports_held_epochs_and_session_counters() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        let held = s.snapshot(); // pin epoch 1
        s.execute("ASSERT edge(2, 3)").unwrap(); // epoch 2
        match s.execute("STATS").unwrap() {
            Response::Stats(report) => {
                assert_eq!(report.sessions, SessionSnapshot::default());
                assert_eq!(
                    report.held_epochs,
                    vec![(1, 1)],
                    "the pinned epoch-1 snapshot must show up as a holder"
                );
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        drop(held);
        match s.execute("STATS").unwrap() {
            Response::Stats(report) => {
                assert!(
                    report.held_epochs.is_empty(),
                    "nothing outstanding once the snapshot is dropped: {:?}",
                    report.held_epochs
                );
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        // the counters the network front bumps are visible through STATS
        s.session_counters().accepted.add(3);
        match s.execute("STATS").unwrap() {
            Response::Stats(report) => assert_eq!(report.sessions.accepted, 3),
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn metrics_exposition_reflects_commits_and_queries() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        s.execute("QUERY CERTAIN edge").unwrap();
        let r = s.execute("METRICS").unwrap();
        let Response::Metrics { epoch, text } = r else {
            panic!("expected Metrics");
        };
        assert_eq!(epoch, EpochId::new(1));
        assert!(text.contains("# TYPE kbt_service_commits_total counter"));
        assert!(text.contains("kbt_service_commits_total 1\n"));
        assert!(text.contains("kbt_service_queries_total 1\n"));
        assert!(text.contains("kbt_service_epoch 1\n"));
        assert!(text.contains("kbt_service_commit_batch_facts_count 1\n"));
        // the global registry (engine/par series) is merged into the scrape
        assert!(text.contains("kbt_engine_evals_total"));
        assert!(text.contains("kbt_par_scopes_total"));
        // … and registries are per-service: a fresh instance starts at zero
        let other = service();
        assert!(other
            .metrics_text()
            .contains("kbt_service_commits_total 0\n"));
    }

    #[test]
    fn metrics_report_held_epoch_gauges() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        let held = s.snapshot(); // pin epoch 1
        s.execute("ASSERT edge(2, 3)").unwrap(); // epoch 2
        let text = s.metrics_text();
        assert!(text.contains("kbt_service_held_epochs 1\n"), "{text}");
        assert!(text.contains("kbt_service_held_epoch_lag 1\n"), "{text}");
        drop(held);
        let text = s.metrics_text();
        assert!(text.contains("kbt_service_held_epochs 0\n"), "{text}");
        assert!(text.contains("kbt_service_held_epoch_lag 0\n"), "{text}");
    }

    #[test]
    fn stats_and_metrics_share_one_set_of_books() {
        let s = service();
        s.session_counters().accepted.add(2);
        s.session_counters().idle_closed.inc();
        let Response::Stats(report) = s.execute("STATS").unwrap() else {
            panic!("expected Stats");
        };
        assert_eq!(report.sessions.accepted, 2);
        assert_eq!(report.sessions.idle_closed, 1);
        let text = s.metrics_text();
        assert!(
            text.contains("kbt_net_sessions_accepted_total 2\n"),
            "{text}"
        );
        assert!(
            text.contains("kbt_net_sessions_idle_closed_total 1\n"),
            "{text}"
        );
    }

    #[test]
    fn scripts_split_on_logical_lines() {
        // a quoted constant containing a newline is one command
        let s = service();
        let responses = s
            .execute_script("ASSERT note('line one\nline two')\nQUERY POSSIBLE note")
            .unwrap();
        assert_eq!(responses.len(), 2);
        match &responses[1] {
            Response::Facts { facts, .. } => {
                assert_eq!(facts.render(), ["note('line one\nline two')"]);
            }
            other => panic!("expected Facts, got {other:?}"),
        }
    }

    #[test]
    fn define_publishes_registry_metadata() {
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        s.execute("DEFINE close := tau[forall x0 x1. edge(x0, x1) -> path(x0, x1)]")
            .unwrap();
        let snap = s.snapshot();
        let info = snap.transforms().get("close").expect("registered");
        assert_eq!(info.applications, 0);
        // the wire text re-parses to the same transform
        let mut vocab = snap.vocab().clone();
        let again = crate::command::parse_transform(&info.text, &mut vocab).unwrap();
        assert!(matches!(again, Transform::Insert(_)));
    }

    // ------------------------------------------------------------------
    // Durability.
    // ------------------------------------------------------------------

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kbt-service-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig::builder()
            .threads(1)
            .durable(dir)
            .checkpoint_every_n_commits(0)
            .build()
    }

    #[test]
    fn commits_survive_a_reopen_via_wal_replay() {
        let dir = scratch_dir("reopen");
        {
            let s = Service::open(durable_config(&dir)).unwrap();
            let r = s.execute("ASSERT edge(1, 2), edge(2, 3)").unwrap();
            assert!(
                matches!(
                    r,
                    Response::Committed {
                        durable: Some(true),
                        ..
                    }
                ),
                "group commit must flush before responding: {r:?}"
            );
            // `project[edge]` keeps `path` fresh, so every APPLY chains
            s.execute(
                "DEFINE close := project[edge]; tau[forall x0 x1. edge(x0, x1) -> path(x0, x1)]",
            )
            .unwrap();
            s.execute("APPLY close").unwrap();
            s.execute("RETRACT edge(2, 3)").unwrap();
        }
        let s = Service::open(durable_config(&dir)).unwrap();
        assert_eq!(s.epoch(), EpochId::new(4));
        assert_eq!(s.metrics().recovery_replayed_total.get(), 4);
        let snap = s.snapshot();
        let (path, _) = snap.vocab().lookup_relation("path").expect("replayed");
        assert_eq!(self::total_facts(snap.kb()), 3, "edge(1,2) + 2 paths");
        assert_eq!(s.certain(&snap, path).len(), 2);
        assert_eq!(snap.stats().commits, 4);
        // with no checkpoint, the replay re-ran `APPLY close` through the
        // commit pipeline, which rebuilt its chain session; the APPLY
        // after recovery advances that session by its delta
        s.execute("ASSERT edge(5, 6)").unwrap();
        let r = s.execute("APPLY close").unwrap();
        assert!(
            matches!(r, Response::Applied { reused_facts, .. } if reused_facts > 0),
            "{r:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_shorten_replay_and_walstat_reports() {
        let dir = scratch_dir("checkpoint");
        {
            let s = Service::open(durable_config(&dir)).unwrap();
            s.execute("ASSERT edge(1, 2)").unwrap();
            s.execute("ASSERT edge(2, 3)").unwrap();
            let r = s.execute("CHECKPOINT").unwrap();
            match r {
                Response::Checkpointed { epoch, ref file } => {
                    assert_eq!(epoch, EpochId::new(2));
                    assert!(file.starts_with("checkpoint-"), "{file}");
                }
                ref other => panic!("expected Checkpointed, got {other:?}"),
            }
            s.execute("ASSERT edge(3, 4)").unwrap();
            match s.execute("WALSTAT").unwrap() {
                Response::WalStat {
                    policy,
                    records,
                    durable_epoch,
                    checkpoint_epoch,
                    ..
                } => {
                    assert_eq!(policy, "group-commit");
                    assert_eq!(records, 3);
                    assert_eq!(durable_epoch, 3);
                    assert_eq!(checkpoint_epoch, 2);
                }
                other => panic!("expected WalStat, got {other:?}"),
            }
        }
        let s = Service::open(durable_config(&dir)).unwrap();
        assert_eq!(s.epoch(), EpochId::new(3));
        // only the post-checkpoint tail replays
        assert_eq!(s.metrics().recovery_replayed_total.get(), 1);
        assert_eq!(total_facts(s.snapshot().kb()), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn walstat_names_no_checkpoint_a_failed_write_left_unwritten() {
        let dir = scratch_dir("failed-checkpoint");
        let config = ServiceConfig::builder()
            .threads(1)
            .durable(&dir)
            .checkpoint_every_n_commits(2)
            .build();
        let s = Service::open(config).unwrap();
        s.execute("ASSERT edge(1, 2)").unwrap();
        s.execute("ASSERT edge(2, 3)").unwrap(); // the background write of epoch 2
        let dur = s.durability.get().expect("a durable service");
        dur.checkpoints.join();
        assert_eq!(dur.checkpoints.last_epoch(), 2);
        // every later write fails: its directory is gone
        std::fs::remove_dir_all(&dir).unwrap();
        s.execute("ASSERT edge(3, 4)").unwrap();
        s.execute("ASSERT edge(4, 5)").unwrap(); // triggers epoch 4, which fails
        dur.checkpoints.join();
        match s.execute("WALSTAT").unwrap() {
            Response::WalStat {
                checkpoint_epoch, ..
            } => assert_eq!(checkpoint_epoch, 2, "epoch 4's checkpoint is not on disk"),
            other => panic!("expected WalStat, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_horn_read_wider_than_the_engine_is_refused_not_grounded() {
        let s = service();
        s.execute("ASSERT e(1)").unwrap();
        let wide = |n: usize| {
            format!(
                "QUERY tau[forall x0. e(x0) -> wide({})]",
                vec!["x0"; n].join(", ")
            )
        };
        assert!(s.execute(&wide(32)).is_ok());
        let err = s.execute(&wide(33)).unwrap_err();
        assert_eq!(err.code(), "eval");
        assert_eq!(
            err.to_string(),
            "evaluation error: engine limit: relation R1 has arity 33, above the engine maximum of 32"
        );
    }

    #[test]
    fn durability_commands_refuse_on_an_in_memory_service() {
        let s = service();
        for cmd in ["CHECKPOINT", "WALSTAT"] {
            match s.execute(cmd) {
                Err(ServiceError::DurabilityDisabled) => {}
                other => panic!("{cmd}: expected DurabilityDisabled, got {other:?}"),
            }
        }
        // and in-memory commits carry no durability claim
        let r = s.execute("ASSERT edge(1, 2)").unwrap();
        assert!(matches!(r, Response::Committed { durable: None, .. }));
    }

    #[test]
    fn never_policy_reports_not_durable_but_still_replays() {
        let dir = scratch_dir("never");
        let config = || {
            ServiceConfig::builder()
                .threads(1)
                .durable(&dir)
                .fsync_policy(crate::config::FsyncPolicy::Never)
                .build()
        };
        {
            let s = Service::open(config()).unwrap();
            let r = s.execute("ASSERT edge(1, 2)").unwrap();
            assert!(matches!(
                r,
                Response::Committed {
                    durable: Some(false),
                    ..
                }
            ));
        }
        let s = Service::open(config()).unwrap();
        assert_eq!(s.epoch(), EpochId::new(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs 100 `ASSERT`s split over `threads` committers (started together)
    /// on a fresh durable service under group commit; returns the fsync
    /// count and the mean batch.
    fn commit_concurrently(threads: usize) -> (u64, f64) {
        let dir = scratch_dir(&format!("batch-{threads}"));
        let s = Arc::new(Service::open(durable_config(&dir)).unwrap());
        let start = Arc::new(std::sync::Barrier::new(threads));
        let committers: Vec<_> = (0..threads)
            .map(|t| {
                let (s, start) = (s.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..100 / threads {
                        let r = s.execute(&format!("ASSERT probe({t}, {i})")).unwrap();
                        assert!(
                            matches!(
                                r,
                                Response::Committed {
                                    durable: Some(true),
                                    ..
                                }
                            ),
                            "every commit is flushed before its reply: {r:?}"
                        );
                    }
                })
            })
            .collect();
        for c in committers {
            c.join().unwrap();
        }
        assert_eq!(s.epoch(), EpochId::new(100));
        let fsyncs = s.metrics().wal_fsyncs_total.get();
        let batch = s.metrics().group_commit_batch.snapshot();
        assert_eq!(batch.count, fsyncs);
        let _ = std::fs::remove_dir_all(&dir);
        (fsyncs, batch.sum as f64 / fsyncs as f64)
    }

    #[test]
    fn concurrent_commits_share_fsyncs() {
        // through the real writer lock: a guard entered after it (or not
        // at all) leaves the leader little or nothing to wait for
        let (fsyncs, mean) = commit_concurrently(4);
        println!("4 committers: {fsyncs} fsyncs for 100 commits, batch mean {mean:.2}");
        assert!(
            fsyncs < 100,
            "group commit must batch: {fsyncs} fsyncs for 100 commits"
        );
        // a lone committer has nobody to wait for: one flush per commit
        assert_eq!(commit_concurrently(1), (100, 1.0));
    }

    /// A log sink that panics on one record name: host code that panics
    /// while a commit holds the writer lock.
    struct PanicOn(&'static str);

    impl kbt_obs::LogSink for PanicOn {
        fn emit(&self, record: &kbt_obs::Record<'_>) {
            if record.name == self.0 {
                panic!("sink refuses {}", self.0);
            }
        }
    }

    #[test]
    fn refused_commits_leave_the_wal_pipeline() {
        let dir = scratch_dir("leave");
        let s = Arc::new(Service::open(durable_config(&dir)).unwrap());
        let in_flight = || s.durability.get().unwrap().wal.in_flight();
        s.execute("ASSERT edge(1, 2)").unwrap();
        assert_eq!(in_flight(), 0);
        assert!(matches!(
            s.execute("ASSERT edge(1,"),
            Err(ServiceError::Logic(_))
        ));
        assert_eq!(in_flight(), 0, "after a parse error");
        assert!(matches!(
            s.execute("RETRACT edge('Ghost', 1)"),
            Err(ServiceError::UnknownConstant(_))
        ));
        assert_eq!(in_flight(), 0, "after an unknown name");
        // the commit-apply span closes under the writer lock: a sink that
        // panics on it unwinds through the lock
        let registry = s.obs_registry();
        registry.set_slow_span_ns(1);
        registry.set_sink(Some(Arc::new(PanicOn("kbt_service_commit_apply_ns"))));
        let committer = {
            let s = s.clone();
            std::thread::spawn(move || s.execute("ASSERT edge(3, 4)"))
        };
        assert!(committer.join().is_err(), "the commit must have panicked");
        registry.set_sink(None);
        assert_eq!(in_flight(), 0, "after a panic under the writer lock");
        assert!(matches!(
            s.execute("ASSERT edge(3, 4)"),
            Err(ServiceError::WriterPoisoned)
        ));
        assert_eq!(in_flight(), 0, "after a refusal of the poisoned writer");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
