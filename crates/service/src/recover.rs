//! Crash recovery: turn a data directory back into the exact committed
//! state the last durable commit left behind.
//!
//! Recovery is `checkpoint + WAL tail`:
//!
//! 1. Load the **newest valid checkpoint** (if any) — a full state at some
//!    epoch `c` (a checkpoint that fails its checksum or its decoding, or
//!    was written in another format version, is refused with
//!    [`ServiceError::CheckpointCorrupt`]; it is never silently skipped,
//!    because a half-trusted base state could replay into garbage).
//! 2. Scan the WAL.  Records with `epoch ≤ c` are already inside the
//!    checkpoint and are skipped; the remainder is the **tail** the
//!    service replays through its normal commit pipeline.
//! 3. A torn *final* record (the crash hit mid-write) is normal debris:
//!    the scan stops before it and [`crate::wal::Wal::open`] truncates it.
//!    A corrupt *interior* record or an epoch gap — including a tail whose
//!    first record is not `c + 1` — is refused with a typed error instead,
//!    because replaying past damage would serve state that never existed.
//!
//! 4. The log is never truncated below its torn end, so it still holds the
//!    record that committed `c` itself.  The plan keeps it
//!    ([`RecoveryPlan::checkpoint_record`]) next to the tail: it names
//!    what produced the checkpointed state.
//!
//! This module only plans; the replay itself runs in
//! [`crate::Service::open`], which owns the commit pipeline.  Before the
//! replay, `open` **resumes a chain session** from the checkpoint when
//! the record at `c` is `APPLY <name>` and
//! [`kbt_core::Transformer::resume_chain`] accepts `<name>` over the
//! checkpointed knowledgebase `K`:
//!
//! * `<name>`'s flattened steps end in `Project(R), Insert(φ)`;
//! * `φ` takes the Datalog fast path `APPLY` chains under the configured
//!   strategy (`Auto` or `Datalog`, and a conjunction of safe Horn
//!   clauses over heads absent from `project[R](K)`);
//! * no head of `φ` is in `R`;
//! * `K` is a singleton.
//!
//! Then Theorem 4.8 puts the session's state in `K` already: its input is
//! `project[R](K)` and its fixpoint `K`'s head relations, so the session is
//! installed without evaluating, and the tail's first `APPLY <name>`
//! advances it by its delta, as the `APPLY` after `c` did before the
//! restart.  A state that fails any condition — a checkpoint at another
//! verb's epoch, or a log that no longer holds the record at `c` — replays
//! exactly as before, and its first `APPLY` evaluates in full.

use std::fs;
use std::path::Path;
use std::time::Instant;

use crate::checkpoint::{self, CheckpointData};
use crate::error::{Result, ServiceError};
use crate::wal::{Wal, WalRecord, WAL_FILE};

/// Everything [`crate::Service::open`] needs to rebuild state and then
/// open the WAL for appending.
#[derive(Debug)]
pub struct RecoveryPlan {
    /// The newest valid checkpoint, when one exists.
    pub checkpoint: Option<CheckpointData>,
    /// How long reading and decoding that checkpoint took, in
    /// nanoseconds (`None` without one).
    pub checkpoint_load_ns: Option<u64>,
    /// The WAL record that committed the checkpoint's epoch, when the log
    /// still holds it (see the module docs).
    pub checkpoint_record: Option<WalRecord>,
    /// WAL records newer than the checkpoint, in commit order, each
    /// verified (length, checksum, epoch contiguity).
    pub tail: Vec<WalRecord>,
    /// Byte length of the valid WAL prefix — [`crate::wal::Wal::open`]
    /// truncates a torn tail down to this.
    pub wal_valid_len: u64,
    /// Whether the scan found (and the open will drop) a torn final record.
    pub torn_tail: bool,
    /// The epoch the recovered state ends at (`0` for a fresh directory).
    pub epoch: u64,
}

/// Reads `data_dir` (creating it when missing) and plans the recovery.
pub fn plan(data_dir: &Path) -> Result<RecoveryPlan> {
    fs::create_dir_all(data_dir)?;

    let (checkpoint, checkpoint_load_ns) = match checkpoint::newest_checkpoint(data_dir)? {
        Some((_, path)) => {
            let started = Instant::now();
            let data = checkpoint::load(&path)?;
            (Some(data), Some(started.elapsed().as_nanos() as u64))
        }
        None => (None, None),
    };
    let base_epoch = checkpoint.as_ref().map_or(0, |c| c.epoch);

    let scan = Wal::scan(&data_dir.join(WAL_FILE))?;
    // the scan proved the log contiguous, so it is ascending: what the
    // checkpoint holds, then the record that committed its epoch, then
    // the tail
    let mut records = scan.records.into_iter().peekable();
    while records.next_if(|r| r.epoch < base_epoch).is_some() {}
    let checkpoint_record = records.next_if(|r| base_epoch > 0 && r.epoch == base_epoch);
    let tail: Vec<WalRecord> = records.collect();
    if let Some(first) = tail.first() {
        // the scan already proved the tail internally contiguous; it must
        // also pick up exactly where the checkpoint stops
        if first.epoch != base_epoch + 1 {
            return Err(ServiceError::EpochMismatch {
                expected: base_epoch + 1,
                found: first.epoch,
            });
        }
    }
    // records *older* than the checkpoint in the middle of the log would
    // mean epochs went backwards — the scan's contiguity check already
    // refused that; assert the invariant anyway.
    debug_assert!(tail.windows(2).all(|w| w[1].epoch == w[0].epoch + 1));

    let epoch = tail.last().map_or(base_epoch, |r| r.epoch);
    Ok(RecoveryPlan {
        checkpoint,
        checkpoint_load_ns,
        checkpoint_record,
        tail,
        wal_valid_len: scan.valid_len,
        torn_tail: scan.torn_tail,
        epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kbt-recover-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_fresh_directory_plans_to_epoch_zero() {
        let dir = scratch("fresh");
        let plan = plan(&dir).expect("plan");
        assert!(plan.checkpoint.is_none());
        assert!(plan.tail.is_empty());
        assert_eq!(plan.epoch, 0);
        assert!(!plan.torn_tail);
        assert!(dir.is_dir(), "the data dir is created");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wal_gap_after_the_checkpoint_is_refused() {
        let dir = scratch("gap");
        fs::create_dir_all(&dir).unwrap();
        // WAL holding epochs 3,4 with no checkpoint: expected first is 1
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&Wal::encode(3, "ASSERT edge(1, 2)"));
        bytes.extend_from_slice(&Wal::encode(4, "ASSERT edge(2, 3)"));
        fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        match plan(&dir) {
            Err(ServiceError::EpochMismatch { expected, found }) => {
                assert_eq!((expected, found), (1, 3));
            }
            other => panic!("wanted EpochMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
