//! Service configuration: the **explicit** evaluation width, observability
//! switches, and the durability options, assembled through
//! [`ServiceConfig::builder`].
//!
//! `kbt_par::default_threads` freezes the `KBT_THREADS` environment
//! variable on first read for the lifetime of the process — fine for a
//! one-shot CLI, wrong for a long-lived service that must be
//! reconfigurable.  The service therefore carries its width here: it is
//! resolved **once, at configuration time**, from an explicit setting or a
//! fresh (uncached) environment read, and every evaluation triggered
//! through the service passes it down as a concrete positive number.
//! Nothing on the serving path ever consults the frozen process default.
//!
//! Durability is opt-in: a config without a [`DurabilityConfig`] describes
//! the classic in-memory service.  With one, every commit appends its
//! canonical wire text to a write-ahead log under `data_dir` and the
//! service checkpoints / recovers as described in the crate-level
//! *Durability* section.

use std::path::PathBuf;

use kbt_core::EvalOptions;

/// When the WAL is flushed to stable storage relative to commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Commits are acknowledged durable, and concurrent committers share
    /// fsyncs: one leader flushes the whole appended tail while followers
    /// wait for their record to become durable.  A commit alone flushes at
    /// once; a leader waits only while another commit is in flight, for it
    /// to append (see the `wal` module docs), so `N` concurrent committers
    /// pay fewer than `N` fsyncs.
    GroupCommit,
    /// Append to the WAL but never fsync (the OS flushes eventually).
    /// Commits report `durable=false`; a crash may lose the recent tail
    /// but recovery still replays everything that reached the disk.
    Never,
}

impl FsyncPolicy {
    /// The durable policy, [`FsyncPolicy::GroupCommit`].
    pub const fn group_commit() -> Self {
        FsyncPolicy::GroupCommit
    }

    /// Short lowercase name used in `WALSTAT` output and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FsyncPolicy::GroupCommit => "group-commit",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Durability options: where the WAL and checkpoints live and how they are
/// flushed.  See the crate-level *Durability* section for the on-disk
/// formats and the recovery procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding `wal.kbtl` and `checkpoint-*.kbtc`; created on
    /// open when missing.
    pub data_dir: PathBuf,
    /// When commits are flushed to stable storage.
    pub fsync_policy: FsyncPolicy,
    /// Write a checkpoint every this many commits (`0` disables automatic
    /// checkpoints; the `CHECKPOINT` command always works).
    pub checkpoint_every_n_commits: u64,
}

impl DurabilityConfig {
    /// Durability under `data_dir` with the default group-commit policy
    /// and a checkpoint every 1024 commits.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync_policy: FsyncPolicy::group_commit(),
            checkpoint_every_n_commits: 1024,
        }
    }
}

/// Configuration of a [`crate::Service`], assembled via [`Self::builder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Evaluation width used for every query and commit evaluation:
    /// always an explicit positive number (`1` = every round on the
    /// calling thread).  Defaults to a *fresh* read of `KBT_THREADS`, falling back
    /// to the machine's available parallelism — deliberately not
    /// `kbt_par::default_threads`, which is frozen on first read.
    pub threads: usize,
    /// Evaluation options for `τ_φ` (strategy selection, world and
    /// grounding limits, chain reuse).  The `threads` field in here is
    /// overridden by [`Self::threads`] — see [`Self::eval_options`].
    pub options: EvalOptions,
    /// Whether span *timing* records (clock reads feeding the `_ns`
    /// histograms and the slow-query log) are enabled on the service's
    /// registry.  Counters and gauges always record.
    pub metrics_timing: bool,
    /// Durability options; `None` (the default) is the in-memory service.
    pub durability: Option<DurabilityConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            // same policy as the process default, but resolved freshly
            threads: kbt_par::fresh_threads(),
            options: EvalOptions::default(),
            metrics_timing: true,
            durability: None,
        }
    }
}

impl ServiceConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }

    /// The options handed to every [`kbt_core::Transformer`] the service
    /// builds: [`Self::options`] with the width forced to the explicit
    /// [`Self::threads`] (never `0`, so the evaluator can never fall back
    /// to the frozen process default).
    pub fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            threads: self.threads.max(1),
            ..self.options
        }
    }
}

/// Builder for [`ServiceConfig`] — the one place every knob is set.
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the evaluation width (`0` = resolve the default freshly).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = if threads == 0 {
            kbt_par::fresh_threads()
        } else {
            threads
        };
        self
    }

    /// Sets the evaluator options (the width inside is still overridden by
    /// [`Self::threads`] at use time).
    pub fn options(mut self, options: EvalOptions) -> Self {
        self.config.options = options;
        self
    }

    /// Enables or disables span timing on the service registry (counters
    /// always record).
    pub fn metrics_timing(mut self, enabled: bool) -> Self {
        self.config.metrics_timing = enabled;
        self
    }

    /// Enables durability under `data_dir` with the default group-commit
    /// policy (see [`DurabilityConfig::new`]).
    pub fn durable(mut self, data_dir: impl Into<PathBuf>) -> Self {
        self.config.durability = Some(DurabilityConfig::new(data_dir));
        self
    }

    /// Sets the full durability configuration (or `None` to disable).
    pub fn durability(mut self, durability: Option<DurabilityConfig>) -> Self {
        self.config.durability = durability;
        self
    }

    /// Sets the fsync policy; enables durability under `data_dir` first
    /// via [`Self::durable`] — panics when durability is not configured.
    pub fn fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.config
            .durability
            .as_mut()
            .expect("set a data_dir (durable(..)) before the fsync policy")
            .fsync_policy = policy;
        self
    }

    /// Sets the automatic-checkpoint interval (`0` disables automatic
    /// checkpoints); requires durability to be configured first.
    pub fn checkpoint_every_n_commits(mut self, n: u64) -> Self {
        self.config
            .durability
            .as_mut()
            .expect("set a data_dir (durable(..)) before the checkpoint interval")
            .checkpoint_every_n_commits = n;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ServiceConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_width_is_positive_and_explicit() {
        let c = ServiceConfig::default();
        assert!(c.threads >= 1);
        assert!(
            c.eval_options().threads >= 1,
            "0 would mean 'frozen default'"
        );
        assert!(c.metrics_timing);
        assert!(c.durability.is_none());
    }

    #[test]
    fn explicit_width_overrides_the_options_field() {
        let c = ServiceConfig::builder().threads(3).build();
        assert_eq!(c.threads, 3);
        assert_eq!(c.eval_options().threads, 3);
        // 0 = "use the default", per the workspace convention
        assert_eq!(
            ServiceConfig::builder().threads(0).build().threads,
            kbt_par::fresh_threads()
        );
    }

    #[test]
    fn builder_assembles_durability() {
        let c = ServiceConfig::builder()
            .threads(2)
            .durable("/tmp/kbt-data")
            .fsync_policy(FsyncPolicy::Never)
            .checkpoint_every_n_commits(10)
            .build();
        let d = c.durability.expect("durability configured");
        assert_eq!(d.data_dir, PathBuf::from("/tmp/kbt-data"));
        assert_eq!(d.fsync_policy, FsyncPolicy::Never);
        assert_eq!(d.checkpoint_every_n_commits, 10);
        assert_eq!(FsyncPolicy::group_commit().name(), "group-commit");
    }
}
