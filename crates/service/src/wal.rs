//! The write-ahead log: append-only, length-and-checksum-framed records of
//! committed commands, with group-commit fsync batching.
//!
//! # Record framing
//!
//! ```text
//! record  := len:u32le  crc:u32le  body
//! body    := epoch:u64le  command-utf8-bytes
//! ```
//!
//! `len` is the body length (so `len >= 8`); `crc` is the IEEE CRC-32 of
//! the body.  The command bytes are the committed command's **canonical
//! wire text** — the same bytes a follower would replay over TCP — so the
//! log is replayed through the ordinary command pipeline and the enforced
//! `parse(pretty(φ)) == φ` identity makes the round trip exact.
//!
//! # Ordering and group commit
//!
//! Appends happen inside the commit pipeline **under the writer lock**, so
//! record order is exactly epoch order and each record's epoch is the
//! epoch its commit published.  Durability waits happen *after* the lock
//! is released: under [`FsyncPolicy::GroupCommit`] one committer becomes
//! the **leader**, issues one fsync covering the whole appended tail, and
//! wakes every follower whose record it covered.  A commit counts as *in
//! flight* from [`Wal::enter`], before it queues for the writer lock,
//! until its [`InFlight`] guard drops after the append (or on a refusal
//! or panic).  A leader flushes at once when nothing is in flight, so a
//! lone committer never waits, and otherwise waits for every in-flight
//! commit to append (at most `GATHER_CAP`, against a slow `APPLY`): `N`
//! concurrent committers share one fsync instead of paying `N`.  A caller
//! that never enters (a replay, a benchmark's shadow log) counts as alone.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a torn final record: a partial header, a
//! body shorter than `len`, or a checksum mismatch ending exactly at EOF.
//! [`Wal::scan`] reports these as a truncation point — normal crash
//! debris.  A framing or checksum failure **before** the final record is
//! real corruption and surfaces as [`ServiceError::WalCorrupt`]; recovery
//! refuses rather than serve a silently wrong state.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use kbt_obs::{Counter, Histogram};

use crate::config::FsyncPolicy;
use crate::error::{Result, ServiceError};

/// File name of the log inside the data dir.
pub const WAL_FILE: &str = "wal.kbtl";

/// Bytes of framing per record (`len` + `crc`).
const HEADER_BYTES: usize = 8;
/// Bytes of the `epoch` field inside the body.
const EPOCH_BYTES: usize = 8;
/// The longest a leader waits for in-flight commits to append before it
/// flushes what it has (see module docs).
const GATHER_CAP: Duration = Duration::from_micros(100);

/// IEEE CRC-32 (the polynomial Ethernet, gzip and PNG use), computed one
/// bit at a time with no table — small, std-only, and fast enough for
/// commit-sized payloads.
pub fn crc32(bytes: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The epoch the command committed.
    pub epoch: u64,
    /// The committed command's canonical wire text.
    pub command: String,
}

/// The result of scanning a WAL file: the valid records, the byte length
/// of the valid prefix, and whether a torn final record was dropped.
#[derive(Debug)]
pub struct WalScan {
    /// Every record of the valid prefix, in append (= epoch) order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (the truncation point when torn).
    pub valid_len: u64,
    /// Whether bytes past `valid_len` were recognised as a torn final
    /// record (to be truncated before the log is appended to again).
    pub torn_tail: bool,
}

/// Counter/histogram handles the WAL records into (registered by
/// [`crate::metrics::ServiceMetrics`]).
#[derive(Clone, Debug)]
pub struct WalMetrics {
    /// `kbt_service_wal_records_total`.
    pub records_total: Counter,
    /// `kbt_service_wal_bytes_total`.
    pub bytes_total: Counter,
    /// `kbt_service_wal_fsyncs_total`.
    pub fsyncs_total: Counter,
    /// `kbt_service_group_commit_batch` — commits covered per fsync.
    pub batch: Histogram,
}

/// Group-commit bookkeeping, shared by every committer.
#[derive(Debug, Default)]
struct SyncState {
    /// Highest epoch appended to the file.
    appended: u64,
    /// Highest epoch known flushed to stable storage.
    durable: u64,
    /// Whether a leader currently owns the fsync.
    leader_busy: bool,
    /// Commits that entered ([`Wal::enter`]) and have not left.
    in_flight: usize,
}

/// The open write-ahead log (see module docs).
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Mutex<File>,
    policy: FsyncPolicy,
    sync: Mutex<SyncState>,
    synced: Condvar,
    metrics: WalMetrics,
}

impl Wal {
    /// Encodes one record frame.
    pub(crate) fn encode(epoch: u64, command: &str) -> Vec<u8> {
        let body_len = EPOCH_BYTES + command.len();
        let mut frame = Vec::with_capacity(HEADER_BYTES + body_len);
        frame.extend_from_slice(&(body_len as u32).to_le_bytes());
        frame.extend_from_slice(&[0; 4]); // crc placeholder
        frame.extend_from_slice(&epoch.to_le_bytes());
        frame.extend_from_slice(command.as_bytes());
        let crc = crc32(&frame[HEADER_BYTES..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    /// Scans `bytes` (a whole WAL file), decoding the valid prefix and
    /// classifying what follows it: nothing, a torn final record, or
    /// interior corruption (see module docs).
    pub fn scan_bytes(bytes: &[u8]) -> Result<WalScan> {
        let mut records = Vec::new();
        let mut offset = 0usize;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if rest.len() < HEADER_BYTES {
                // partial header at EOF: torn tail
                return Ok(WalScan {
                    records,
                    valid_len: offset as u64,
                    torn_tail: true,
                });
            }
            let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
            let frame_end = HEADER_BYTES.saturating_add(len);
            if rest.len() < frame_end {
                // body shorter than its header claims, ending at EOF:
                // torn tail
                return Ok(WalScan {
                    records,
                    valid_len: offset as u64,
                    torn_tail: true,
                });
            }
            let body = &rest[HEADER_BYTES..frame_end];
            let at_eof = offset + frame_end == bytes.len();
            let fail = |detail: String| -> Result<WalScan> {
                if at_eof {
                    // the damage is the final record: crash debris
                    Ok(WalScan {
                        records: Vec::new(), // replaced below
                        valid_len: offset as u64,
                        torn_tail: true,
                    })
                } else {
                    Err(ServiceError::WalCorrupt {
                        offset: offset as u64,
                        detail,
                    })
                }
            };
            if crc32(body) != crc {
                let mut scan = fail("checksum mismatch".to_string())?;
                scan.records = records;
                return Ok(scan);
            }
            if len < EPOCH_BYTES {
                let mut scan = fail(format!("body too short ({len} bytes)"))?;
                scan.records = records;
                return Ok(scan);
            }
            let epoch = u64::from_le_bytes(body[0..EPOCH_BYTES].try_into().expect("8 bytes"));
            let command = match std::str::from_utf8(&body[EPOCH_BYTES..]) {
                Ok(s) => s.to_string(),
                Err(_) => {
                    let mut scan = fail("command bytes are not UTF-8".to_string())?;
                    scan.records = records;
                    return Ok(scan);
                }
            };
            if let Some(last) = records.last() {
                if epoch != last.epoch + 1 {
                    // a checksum-valid record with a wrong epoch is never
                    // crash debris — refuse even at the tail
                    return Err(ServiceError::EpochMismatch {
                        expected: last.epoch + 1,
                        found: epoch,
                    });
                }
            }
            records.push(WalRecord { epoch, command });
            offset += frame_end;
        }
        Ok(WalScan {
            records,
            valid_len: offset as u64,
            torn_tail: false,
        })
    }

    /// Reads and scans the log at `path` (empty scan when absent).
    pub fn scan(path: &Path) -> Result<WalScan> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Self::scan_bytes(&bytes)
    }

    /// Opens the log at `path` for appending, truncating it to
    /// `valid_len` first (dropping a torn tail found by [`Wal::scan`]).
    /// `last_epoch` is the epoch of the last valid record (or the
    /// recovered epoch when the log starts beyond a checkpoint).
    pub fn open(
        path: PathBuf,
        policy: FsyncPolicy,
        valid_len: u64,
        last_epoch: u64,
        metrics: WalMetrics,
    ) -> Result<Wal> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() > valid_len {
            // a torn tail survives until here; drop it so the next append
            // starts at a record boundary
            file.set_len(valid_len)?;
        }
        Ok(Wal {
            path,
            file: Mutex::new(file),
            policy,
            sync: Mutex::new(SyncState {
                appended: last_epoch,
                durable: last_epoch,
                leader_busy: false,
                in_flight: 0,
            }),
            synced: Condvar::new(),
            metrics,
        })
    }

    /// The log's path (reported by `WALSTAT`).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> &FsyncPolicy {
        &self.policy
    }

    /// Enters one commit into the pipeline: a leader flushing before the
    /// returned guard drops waits for it (see module docs).
    pub fn enter(&self) -> InFlight<'_> {
        let mut st = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
        st.in_flight += 1;
        InFlight { wal: self }
    }

    /// Appends one record.  Must be called with commit order pinned (the
    /// service calls it under the writer lock), so the log's record order
    /// is exactly epoch order.
    pub fn append(&self, epoch: u64, command: &str) -> Result<()> {
        let frame = Self::encode(epoch, command);
        {
            let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
            file.write_all(&frame)?;
        }
        self.metrics.records_total.inc();
        self.metrics.bytes_total.add(frame.len() as u64);
        let mut st = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
        st.appended = st.appended.max(epoch);
        Ok(())
    }

    /// Waits until the record for `epoch` is durable per the configured
    /// policy.  Returns whether the record was actually flushed (`false`
    /// under [`FsyncPolicy::Never`]).  Called *outside* the writer lock.
    pub fn sync(&self, epoch: u64) -> Result<bool> {
        if self.policy == FsyncPolicy::Never {
            return Ok(false);
        }
        let mut st = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if st.durable >= epoch {
                return Ok(true); // someone else's fsync covered us
            }
            if !st.leader_busy {
                st.leader_busy = true;
                break;
            }
            st = self.synced.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // Leader: let every commit in flight append (no wait when none
        // is), then flush the whole appended tail with one fsync.
        let (st, _) = self
            .synced
            .wait_timeout_while(st, GATHER_CAP, |st| st.in_flight > 0)
            .unwrap_or_else(PoisonError::into_inner);
        let target = st.appended;
        let batch = target - st.durable;
        drop(st);
        let sync_result = {
            let file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
            file.sync_data()
        };
        let mut st = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
        st.leader_busy = false;
        match sync_result {
            Ok(()) => {
                st.durable = st.durable.max(target);
                self.metrics.fsyncs_total.inc();
                self.metrics.batch.record(batch);
                drop(st);
                self.synced.notify_all();
                Ok(true)
            }
            Err(e) => {
                drop(st);
                // wake followers so they can elect a new leader and retry
                self.synced.notify_all();
                Err(e.into())
            }
        }
    }

    /// Commits entered and not yet left.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.sync
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight
    }

    /// Point-in-time counters for `WALSTAT`.
    pub fn stat(&self) -> WalStat {
        let st = self.sync.lock().unwrap_or_else(PoisonError::into_inner);
        WalStat {
            records: self.metrics.records_total.get(),
            bytes: self.metrics.bytes_total.get(),
            fsyncs: self.metrics.fsyncs_total.get(),
            appended_epoch: st.appended,
            durable_epoch: st.durable,
        }
    }
}

/// One commit in the pipeline, from [`Wal::enter`] until the guard drops:
/// after the commit has appended its record, or on any exit without one.
#[derive(Debug)]
#[must_use = "a commit counts as in flight only while its guard lives"]
pub struct InFlight<'a> {
    wal: &'a Wal,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut st = self.wal.sync.lock().unwrap_or_else(PoisonError::into_inner);
        st.in_flight -= 1;
        if st.in_flight == 0 {
            // a leader may be waiting for the last commit in flight
            self.wal.synced.notify_all();
        }
    }
}

/// A point-in-time `WALSTAT` report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalStat {
    /// Records appended since this process opened the log.
    pub records: u64,
    /// Bytes appended since this process opened the log (framing included).
    pub bytes: u64,
    /// fsyncs issued since this process opened the log.
    pub fsyncs: u64,
    /// Highest epoch appended.
    pub appended_epoch: u64,
    /// Highest epoch known durable (equals appended under group commit
    /// once every commit has returned; trails it under `Never`).
    pub durable_epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_obs::Registry;

    fn metrics() -> WalMetrics {
        let r = Registry::new();
        WalMetrics {
            records_total: r.counter("w_records"),
            bytes_total: r.counter("w_bytes"),
            fsyncs_total: r.counter("w_fsyncs"),
            batch: r.histogram("w_batch"),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kbt-wal-test-{}-{tag}.kbtl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // the standard IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_scan_round_trip() {
        let path = temp_path("roundtrip");
        let wal = Wal::open(path.clone(), FsyncPolicy::group_commit(), 0, 0, metrics()).unwrap();
        wal.append(1, "ASSERT edge(1, 2)").unwrap();
        assert!(wal.sync(1).unwrap());
        wal.append(2, "RETRACT edge(1, 2)").unwrap();
        assert!(wal.sync(2).unwrap());
        let stat = wal.stat();
        assert_eq!(stat.records, 2);
        assert_eq!(stat.durable_epoch, 2);
        assert!(stat.fsyncs >= 2);
        drop(wal);

        let scan = Wal::scan(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(
            scan.records,
            vec![
                WalRecord {
                    epoch: 1,
                    command: "ASSERT edge(1, 2)".into()
                },
                WalRecord {
                    epoch: 2,
                    command: "RETRACT edge(1, 2)".into()
                },
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tails_truncate_interior_corruption_refuses() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&Wal::encode(1, "ASSERT a(1)"));
        bytes.extend_from_slice(&Wal::encode(2, "ASSERT a(2)"));
        let full = bytes.len();

        // torn: partial header
        let scan =
            Wal::scan_bytes(&bytes[..full - Wal::encode(2, "ASSERT a(2)").len() + 3]).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1);

        // torn: body shorter than its header claims
        let scan = Wal::scan_bytes(&bytes[..full - 2]).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, Wal::encode(1, "ASSERT a(1)").len() as u64);

        // torn: flipped byte in the *final* record
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        let scan = Wal::scan_bytes(&flipped).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1);

        // interior: flipped byte in the *first* record with a valid record
        // following — refuse with the typed error
        let mut interior = bytes.clone();
        interior[HEADER_BYTES + EPOCH_BYTES] ^= 0xFF;
        match Wal::scan_bytes(&interior) {
            Err(ServiceError::WalCorrupt { offset: 0, .. }) => {}
            other => panic!("expected WalCorrupt at offset 0, got {other:?}"),
        }
    }

    #[test]
    fn epoch_gaps_refuse_even_at_the_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&Wal::encode(1, "ASSERT a(1)"));
        bytes.extend_from_slice(&Wal::encode(5, "ASSERT a(2)"));
        match Wal::scan_bytes(&bytes) {
            Err(ServiceError::EpochMismatch {
                expected: 2,
                found: 5,
            }) => {}
            other => panic!("expected EpochMismatch, got {other:?}"),
        }
    }

    #[test]
    fn open_truncates_a_torn_tail_for_appending() {
        let path = temp_path("truncate");
        let good = Wal::encode(1, "ASSERT a(1)");
        let mut bytes = good.clone();
        bytes.extend_from_slice(&Wal::encode(2, "ASSERT a(2)")[..5]);
        std::fs::write(&path, &bytes).unwrap();

        let scan = Wal::scan(&path).unwrap();
        assert!(scan.torn_tail);
        let wal = Wal::open(
            path.clone(),
            FsyncPolicy::Never,
            scan.valid_len,
            1,
            metrics(),
        )
        .unwrap();
        wal.append(2, "ASSERT a(2)").unwrap();
        assert!(!wal.sync(2).unwrap(), "Never policy reports not-flushed");
        drop(wal);
        let scan = Wal::scan(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].epoch, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_wakes_every_follower() {
        let path = temp_path("group");
        let wal = std::sync::Arc::new(
            Wal::open(path.clone(), FsyncPolicy::group_commit(), 0, 0, metrics()).unwrap(),
        );
        let epoch = std::sync::Arc::new(std::sync::Mutex::new(0u64));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let wal = wal.clone();
                let epoch = epoch.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        // simulate the writer lock: appends are serialized
                        let e = {
                            let _in_flight = wal.enter();
                            let mut guard = epoch.lock().unwrap();
                            *guard += 1;
                            let e = *guard;
                            wal.append(e, "ASSERT probe(1)").unwrap();
                            e
                        };
                        assert!(wal.sync(e).unwrap());
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let stat = wal.stat();
        assert_eq!(stat.records, 100);
        assert_eq!(stat.durable_epoch, 100);
        assert!(
            stat.fsyncs < 100,
            "group commit must batch: {} fsyncs for 100 commits",
            stat.fsyncs
        );
        let _ = std::fs::remove_file(&path);
    }
}
