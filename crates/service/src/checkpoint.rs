//! Epoch-snapshot checkpoints: a whole committed state serialized to one
//! checksummed binary file, so recovery replays only the WAL *tail*.
//!
//! # Capture vs. serialization
//!
//! Capture is `O(1)`: the committed state is copy-on-write underneath
//! (`Arc`-backed relations, vocabulary and registry), so cloning the
//! [`CommittedState`] out of the epoch cell costs a handful of `Arc`
//! bumps and **never blocks the commit pipeline**.  Serialization — the
//! expensive part — runs on a background thread against that frozen
//! snapshot ([`CheckpointManager::trigger`]); at most one serialization is
//! in flight, later triggers are skipped until it finishes.
//!
//! # File format (`checkpoint-<epoch>.kbtc`, version 2)
//!
//! Stored facts are the unit that persists: each relation is written as
//! the one sorted run of `u32` rows it already is in memory, and loading
//! adopts that run as it stands ([`Relation::from_sorted_rows`]: one
//! order check, no sort, no per-row tuple).  Indexes are never written;
//! they rebuild lazily on first probe.  Every integer is little-endian;
//! a *count* is a `u64`, and a *string* is a `u32` byte length followed by
//! that many bytes of UTF-8.
//!
//! ```text
//! header      "kbt-checkpoint v2\n"
//! epoch       u64
//! stats       u64 × 12: commits applies defines, then the nine eval
//!             counters (updates candidates models ops rounds probes
//!             scanned reused rederived)
//! constants   count, then per constant:  name string
//! relations   count, then per relation:  arity u32, name string
//! transforms  count, then per transform: applications u64, name string,
//!                                        wire-text string
//! worlds      count, then per world:     relation count, then per
//!             relation: id u32, arity u32, rows u64, then rows × arity
//!             u32 cells, the rows sorted and distinct (a zero-arity flag
//!             has 0 or 1 rows and no cells)
//! checksum    u32: IEEE CRC-32 ([`crate::wal::crc32`]) of every byte above
//! ```
//!
//! Interning is append-only and Vec-ordered in [`kbt_data::Vocabulary`],
//! so writing constants and relations **in id order** and re-interning
//! them on load reproduces identical `Const`/`RelId` assignments — cells
//! are raw indices.  The writer emits everything in one canonical order
//! (transforms by name, a world's relations by id, worlds in the
//! knowledgebase's set order), so a file the decoder accepts re-renders to
//! the same bytes.
//!
//! The decoder refuses, as [`ServiceError::CheckpointCorrupt`], anything
//! but such a file: a wrong header or checksum, a count the remaining
//! bytes cannot back (refused before anything is sized by it), a name
//! listed twice, rows out of order or repeated, transforms, relations or
//! worlds out of order or repeated, a world relation whose id or arity
//! disagrees with the restored vocabulary, worlds of different schemas,
//! and trailing bytes.  The vocabulary is interned only once every section
//! has parsed, so a refused file sizes nothing by its names.
//!
//! There is one format.  A file of an earlier version (the text format v1)
//! is refused with "unsupported checkpoint version", never skipped.  The
//! WAL alone is a complete history, so such a file can be deleted and the
//! state rebuilt from the log.
//!
//! The file is written to a `.tmp` sibling, fsynced, and atomically
//! renamed into place (then the directory is fsynced), so a crash never
//! leaves a half-written checkpoint under the real name.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use kbt_core::EvalStats;
use kbt_data::{Const, Database, Knowledgebase, RelId, Relation, Vocabulary};
use kbt_obs::{Counter, Histogram};

use crate::error::{Result, ServiceError};
use crate::service::{CommittedState, ServiceStats};
use crate::wal::crc32;

/// File-name prefix of checkpoints inside the data dir.
pub const CHECKPOINT_PREFIX: &str = "checkpoint-";
/// File-name suffix of checkpoints inside the data dir.
pub const CHECKPOINT_SUFFIX: &str = ".kbtc";
/// How many finished checkpoints are retained (older ones are deleted
/// after a newer one lands).
pub const KEEP_CHECKPOINTS: usize = 2;

/// What every checkpoint file starts with, whatever its version.
const MAGIC: &[u8] = b"kbt-checkpoint v";
/// The format version this module writes and reads.
const VERSION: u32 = 2;
/// The whole header line of a current file: [`MAGIC`], [`VERSION`], `\n`.
const HEADER: &[u8] = b"kbt-checkpoint v2\n";
/// Bytes of the trailing checksum.
const CRC_BYTES: usize = 4;

/// The canonical file name of the checkpoint for `epoch` (zero-padded so
/// lexical order is epoch order).
pub fn checkpoint_file_name(epoch: u64) -> String {
    format!("{CHECKPOINT_PREFIX}{epoch:012}{CHECKPOINT_SUFFIX}")
}

/// The epoch a checkpoint file name encodes, when it is one.
fn parse_file_name(name: &str) -> Option<u64> {
    name.strip_prefix(CHECKPOINT_PREFIX)?
        .strip_suffix(CHECKPOINT_SUFFIX)?
        .parse()
        .ok()
}

/// A deserialized checkpoint, ready for the recovery path to rebuild a
/// service around (transform texts still need re-parsing against the
/// restored vocabulary).
#[derive(Debug)]
pub struct CheckpointData {
    /// The epoch the checkpoint captured.
    pub epoch: u64,
    /// Writer-side cumulative counters at that epoch.
    pub stats: ServiceStats,
    /// The restored vocabulary (identical id assignments — see module
    /// docs).
    pub vocab: Vocabulary,
    /// Registered transformations: `(name, applications, wire text)`, in
    /// name order.
    pub transforms: Vec<(String, u64, String)>,
    /// The possible worlds, each relation one adopted sorted run.
    pub kb: Knowledgebase,
}

/// The twelve stats counters in file order.
fn stats_counters(s: &ServiceStats) -> [u64; 12] {
    let e = &s.eval;
    [
        s.commits,
        s.applies,
        s.defines,
        e.updates as u64,
        e.candidate_atoms as u64,
        e.minimal_models as u64,
        e.operators as u64,
        e.fixpoint_iterations as u64,
        e.index_probes as u64,
        e.tuples_scanned as u64,
        e.reused_facts as u64,
        e.rederived_facts as u64,
    ]
}

/// The inverse of [`stats_counters`].
fn stats_from(counters: [u64; 12]) -> ServiceStats {
    let [commits, applies, defines, eval @ ..] = counters;
    let [updates, candidate_atoms, minimal_models, operators, fixpoint_iterations, index_probes, tuples_scanned, reused_facts, rederived_facts] =
        eval.map(|c| c as usize);
    ServiceStats {
        commits,
        applies,
        defines,
        eval: EvalStats {
            updates,
            candidate_atoms,
            minimal_models,
            operators,
            fixpoint_iterations,
            index_probes,
            tuples_scanned,
            reused_facts,
            rederived_facts,
        },
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(
        out,
        u32::try_from(s.len()).expect("names and texts are under 4 GiB"),
    );
    out.extend_from_slice(s.as_bytes());
}

/// Serializes one committed state (see the module-level format).
pub fn render(epoch: u64, state: &CommittedState) -> Vec<u8> {
    let cells: usize = state
        .kb
        .iter()
        .flat_map(|db| db.iter())
        .map(|(_, relation)| relation.len() * relation.arity())
        .sum();
    let mut out = Vec::with_capacity(4 * cells + 4096);
    out.extend_from_slice(HEADER);
    put_u64(&mut out, epoch);
    for counter in stats_counters(&state.stats) {
        put_u64(&mut out, counter);
    }
    let vocab = state.vocab.as_ref();
    put_u64(&mut out, vocab.constant_count() as u64);
    for i in 0..vocab.constant_count() {
        let name = vocab
            .constant_name(Const::new(i as u32))
            .expect("interned constants are dense");
        put_str(&mut out, name);
    }
    put_u64(&mut out, vocab.relation_count() as u64);
    for i in 0..vocab.relation_count() {
        let rel = RelId::new(i as u32);
        let arity = vocab
            .relation_arity(rel)
            .expect("interned relations are dense");
        put_u32(&mut out, arity as u32);
        put_str(
            &mut out,
            vocab.relation_name(rel).expect("registered above"),
        );
    }
    put_u64(&mut out, state.transforms.len() as u64);
    for (name, info) in state.transforms.iter() {
        put_u64(&mut out, info.applications);
        put_str(&mut out, name);
        put_str(&mut out, &info.text);
    }
    put_u64(&mut out, state.kb.len() as u64);
    for db in state.kb.iter() {
        put_u64(&mut out, db.iter().count() as u64);
        for (rel, relation) in db.iter() {
            put_u32(&mut out, rel.index());
            put_u32(&mut out, relation.arity() as u32);
            put_u64(&mut out, relation.len() as u64);
            // a layered relation is written folded: base and delta merged
            // into the one sorted run it reads as
            for c in relation.iter().flatten() {
                put_u32(&mut out, c.index());
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Why a file was refused: the `detail` of its
/// [`ServiceError::CheckpointCorrupt`].
type Decode<T> = std::result::Result<T, String>;

/// The refusal of a count the remaining bytes cannot back.
const UNBACKED: &str = "a declared count the file cannot back";

/// A cursor over a checkpoint's body: every read is bounds-checked, and
/// running out of bytes is a refusal.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Decode<&'a [u8]> {
        if n > self.remaining() {
            return Err("truncated".into());
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Decode<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Decode<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Decode<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| "a name or text is not UTF-8".into())
    }

    /// A count of items that take at least `min_bytes` each, refused
    /// before anything is sized by it when the rest of the file is too
    /// short to hold them.
    fn count(&mut self, min_bytes: usize) -> Decode<usize> {
        usize::try_from(self.u64()?)
            .ok()
            .filter(|n| {
                n.checked_mul(min_bytes)
                    .is_some_and(|need| need <= self.remaining())
            })
            .ok_or_else(|| UNBACKED.into())
    }
}

/// Decodes a checkpoint file's bytes (see the module-level format),
/// verifying the header and checksum first.
pub fn parse(path_for_errors: &str, bytes: &[u8]) -> Result<CheckpointData> {
    decode(bytes).map_err(|detail| ServiceError::CheckpointCorrupt {
        path: path_for_errors.to_string(),
        detail,
    })
}

fn decode(bytes: &[u8]) -> Decode<CheckpointData> {
    // the version is read before the checksum, so a file of another
    // version is named as such rather than failing a checksum it never had
    if !bytes.starts_with(HEADER) {
        if HEADER.starts_with(bytes) {
            return Err("truncated".into());
        }
        let after_magic = bytes
            .strip_prefix(MAGIC)
            .ok_or("not a checkpoint file (bad magic)")?;
        let line = after_magic
            .split(|&b| b == b'\n')
            .next()
            .unwrap_or_default();
        let shown = String::from_utf8_lossy(&line[..line.len().min(16)]);
        return Err(format!(
            "unsupported checkpoint version {shown:?} (this build reads version {VERSION})"
        ));
    }
    let body_len = bytes
        .len()
        .checked_sub(CRC_BYTES)
        .filter(|&n| n >= HEADER.len())
        .ok_or("truncated")?;
    let (body, crc) = bytes.split_at(body_len);
    if crc32(body) != u32::from_le_bytes(crc.try_into().expect("4 bytes")) {
        return Err("checksum mismatch".into());
    }

    let mut r = Reader {
        bytes: body,
        pos: HEADER.len(),
    };
    let epoch = r.u64()?;
    let mut counters = [0u64; 12];
    for counter in &mut counters {
        *counter = r.u64()?;
    }
    let stats = stats_from(counters);

    // the names are checked here and interned at the end, once every
    // section has parsed
    let n_constants = r.count(4)?;
    let constants_at = r.pos;
    for _ in 0..n_constants {
        r.str()?;
    }
    let n_relations = r.count(8)?;
    let relations_at = r.pos;
    let mut arities = Vec::with_capacity(n_relations);
    for _ in 0..n_relations {
        arities.push(r.u32()? as usize);
        r.str()?;
    }

    let n_transforms = r.count(16)?;
    let mut transforms: Vec<(String, u64, String)> = Vec::new();
    for _ in 0..n_transforms {
        let applications = r.u64()?;
        let name = r.str()?;
        let text = r.str()?;
        if transforms
            .last()
            .is_some_and(|(prev, ..)| prev.as_str() >= name)
        {
            return Err("transforms out of order or repeated".into());
        }
        transforms.push((name.to_string(), applications, text.to_string()));
    }

    let n_worlds = r.count(8)?;
    let mut worlds: Vec<Database> = Vec::new();
    for _ in 0..n_worlds {
        let n_rels = r.count(16)?;
        let mut db = Database::new();
        let mut last: Option<u32> = None;
        for _ in 0..n_rels {
            let id = r.u32()?;
            let arity = r.u32()? as usize;
            let rows = r.u64()?;
            if last.is_some_and(|last| last >= id) {
                return Err("world relations out of order or repeated".into());
            }
            last = Some(id);
            match arities.get(id as usize) {
                None => return Err(format!("world relation {id} is not in the vocabulary")),
                Some(&known) if known != arity => {
                    return Err(format!(
                        "world relation {id} has arity {arity}, the vocabulary says {known}"
                    ))
                }
                Some(_) => {}
            }
            let relation = if arity == 0 {
                // a flag: present or absent, no cells
                match rows {
                    0 => Relation::empty(0),
                    1 => Relation::from_rows(0, Vec::new(), 1).expect("one empty row"),
                    _ => return Err(format!("flag {id} declares {rows} rows")),
                }
            } else {
                let len = usize::try_from(rows)
                    .ok()
                    .and_then(|rows| rows.checked_mul(arity)?.checked_mul(4))
                    .filter(|&len| len <= r.remaining())
                    .ok_or(UNBACKED)?;
                let run = r
                    .take(len)?
                    .chunks_exact(4)
                    .map(|b| Const::new(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
                    .collect();
                Relation::from_sorted_rows(arity, run).map_err(|e| format!("relation {id}: {e}"))?
            };
            db.set_relation(RelId::new(id), relation);
        }
        if worlds.last().is_some_and(|prev| *prev >= db) {
            return Err("worlds out of order or repeated".into());
        }
        worlds.push(db);
    }
    if r.remaining() != 0 {
        return Err("trailing bytes after the worlds".into());
    }
    let kb = Knowledgebase::from_databases(worlds)
        .map_err(|_| "worlds of different schemas".to_string())?;

    // a name listed twice would intern once and shift every later id, so
    // each must add exactly one
    let mut vocab = Vocabulary::new();
    r.pos = constants_at;
    for i in 0..n_constants {
        vocab.constant(r.str()?);
        if vocab.constant_count() != i + 1 {
            return Err("duplicate constant name".into());
        }
    }
    r.pos = relations_at;
    for _ in 0..n_relations {
        let arity = r.u32()? as usize;
        let name = r.str()?;
        if vocab.lookup_relation(name).is_some() {
            return Err("duplicate relation name".into());
        }
        vocab
            .relation(name, arity)
            .expect("a new name takes any arity");
    }
    Ok(CheckpointData {
        epoch,
        stats,
        vocab,
        transforms,
        kb,
    })
}

/// Writes `bytes` to `dir/name` via a fsynced temp file and an atomic
/// rename, then fsyncs the directory.
fn write_atomically(dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &target)?;
    // make the rename itself durable
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The newest checkpoint file in `dir`, as `(epoch, path)`.
pub fn newest_checkpoint(dir: &Path) -> Result<Option<(u64, PathBuf)>> {
    let mut best: Option<(u64, PathBuf)> = None;
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(epoch) = parse_file_name(name) {
            if best.as_ref().is_none_or(|(b, _)| epoch > *b) {
                best = Some((epoch, entry.path()));
            }
        }
    }
    Ok(best)
}

/// Loads and verifies the checkpoint at `path`.
pub fn load(path: &Path) -> Result<CheckpointData> {
    let bytes = fs::read(path)?;
    parse(&path.display().to_string(), &bytes)
}

/// Deletes all but the newest [`KEEP_CHECKPOINTS`] checkpoint files.
fn prune(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut found: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            parse_file_name(name.to_str()?).map(|epoch| (epoch, e.path()))
        })
        .collect();
    found.sort_by_key(|(epoch, _)| *epoch);
    let excess = found.len().saturating_sub(KEEP_CHECKPOINTS);
    for (_, path) in found.into_iter().take(excess) {
        let _ = fs::remove_file(path);
    }
}

/// Renders the checkpoint of `state` at `epoch` and writes it into `dir`
/// under its canonical name, timed into `write_ns`.
fn write_checkpoint(
    dir: &Path,
    epoch: u64,
    state: &CommittedState,
    write_ns: &Histogram,
) -> Result<String> {
    let _span = write_ns.span();
    let name = checkpoint_file_name(epoch);
    write_atomically(dir, &name, &render(epoch, state))?;
    Ok(name)
}

/// Owns checkpoint scheduling for one service: the commit counter that
/// triggers automatic checkpoints, the in-flight guard, and the background
/// serialization thread.
#[derive(Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    /// Automatic checkpoint interval in commits (`0` = manual only).
    every: u64,
    /// Commits since the last (triggered) checkpoint.
    commits_since: AtomicU64,
    /// Epoch of the newest checkpoint known written: a background write
    /// records its epoch here only once the file is on disk.
    last_epoch: Arc<AtomicU64>,
    /// Guard: at most one serialization in flight.
    in_flight: Arc<AtomicBool>,
    /// The current/most recent background writer, joined before the next
    /// one starts (and on drop) so threads never accumulate.
    worker: Mutex<Option<JoinHandle<()>>>,
    /// `kbt_service_checkpoints_total`.
    written_total: Counter,
    /// `kbt_service_checkpoint_write_ns`: render, write and fsync.
    write_ns: Histogram,
}

impl CheckpointManager {
    /// A manager writing into `dir` every `every` commits.
    pub fn new(
        dir: PathBuf,
        every: u64,
        last_epoch: u64,
        written_total: Counter,
        write_ns: Histogram,
    ) -> Self {
        CheckpointManager {
            dir,
            every,
            commits_since: AtomicU64::new(0),
            last_epoch: Arc::new(AtomicU64::new(last_epoch)),
            in_flight: Arc::new(AtomicBool::new(false)),
            worker: Mutex::new(None),
            written_total,
            write_ns,
        }
    }

    /// The epoch of the newest checkpoint written (or recovered from).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch.load(Ordering::Acquire)
    }

    /// Counts one commit; returns whether the automatic interval is due.
    pub fn note_commit(&self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.commits_since.fetch_add(1, Ordering::Relaxed) + 1 >= self.every
    }

    /// Triggers a background checkpoint of `state` at `epoch` — `O(1)` on
    /// the caller: serialization runs on a spawned thread.  Skipped (false)
    /// when a serialization is already in flight or `epoch` is not newer
    /// than the last checkpoint.
    pub fn trigger(&self, epoch: u64, state: CommittedState) -> bool {
        if epoch <= self.last_epoch.load(Ordering::Acquire) {
            return false;
        }
        if self.in_flight.swap(true, Ordering::AcqRel) {
            return false;
        }
        // The interval restarts now, whatever the write's outcome: a disk
        // that keeps failing gets one attempt per interval, not one per
        // commit.
        self.commits_since.store(0, Ordering::Relaxed);
        let dir = self.dir.clone();
        let last_epoch = self.last_epoch.clone();
        let in_flight = self.in_flight.clone();
        let written_total = self.written_total.clone();
        let write_ns = self.write_ns.clone();
        let handle = std::thread::Builder::new()
            .name("kbt-checkpoint".to_string())
            .spawn(move || {
                // rendering happens here, off the commit path
                if write_checkpoint(&dir, epoch, &state, &write_ns).is_ok() {
                    last_epoch.fetch_max(epoch, Ordering::AcqRel);
                    written_total.inc();
                    prune(&dir);
                }
                in_flight.store(false, Ordering::Release);
            });
        match handle {
            Ok(handle) => {
                let mut worker = self.worker.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(prev) = worker.replace(handle) {
                    let _ = prev.join();
                }
                true
            }
            Err(_) => {
                self.in_flight.store(false, Ordering::Release);
                false
            }
        }
    }

    /// Writes a checkpoint of `state` at `epoch` synchronously (the
    /// `CHECKPOINT` command), returning the file name.
    pub fn write_now(&self, epoch: u64, state: &CommittedState) -> Result<String> {
        self.join();
        let name = write_checkpoint(&self.dir, epoch, state, &self.write_ns)?;
        self.written_total.inc();
        self.commits_since.store(0, Ordering::Relaxed);
        self.last_epoch.fetch_max(epoch, Ordering::AcqRel);
        prune(&self.dir);
        Ok(name)
    }

    /// Waits for an in-flight background checkpoint to finish.
    pub fn join(&self) {
        let handle = {
            let mut worker = self.worker.lock().unwrap_or_else(PoisonError::into_inner);
            worker.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for CheckpointManager {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::Tuple;

    #[test]
    fn file_names_sort_by_epoch() {
        assert_eq!(checkpoint_file_name(7), "checkpoint-000000000007.kbtc");
        assert!(checkpoint_file_name(9) < checkpoint_file_name(10));
        assert_eq!(parse_file_name("checkpoint-000000000042.kbtc"), Some(42));
        assert_eq!(parse_file_name("wal.kbtl"), None);
    }

    /// A file's body through its names: the header, epoch 3, zeroed
    /// stats, then the given constants and `(arity, name)` relations.
    fn head(constants: &[&str], relations: &[(u32, &str)]) -> Vec<u8> {
        let mut out = HEADER.to_vec();
        for _ in 0..13 {
            put_u64(&mut out, 3);
        }
        put_u64(&mut out, constants.len() as u64);
        for name in constants {
            put_str(&mut out, name);
        }
        put_u64(&mut out, relations.len() as u64);
        for &(arity, name) in relations {
            put_u32(&mut out, arity);
            put_str(&mut out, name);
        }
        out
    }

    /// `body` with its checksum appended.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// One world's relations: `(id, arity, rows, cells)`.
    type World<'a> = &'a [(u32, u32, u64, &'a [u32])];

    /// The body of a file with no transforms and one world.
    fn body_with(constants: &[&str], relations: &[(u32, &str)], world: World) -> Vec<u8> {
        let mut out = head(constants, relations);
        put_u64(&mut out, 0);
        put_u64(&mut out, 1);
        put_u64(&mut out, world.len() as u64);
        for &(id, arity, rows, cells) in world {
            put_u32(&mut out, id);
            put_u32(&mut out, arity);
            put_u64(&mut out, rows);
            for &c in cells {
                put_u32(&mut out, c);
            }
        }
        out
    }

    fn file_with(constants: &[&str], relations: &[(u32, &str)], world: World) -> Vec<u8> {
        sealed(body_with(constants, relations, world))
    }

    fn refusal(bytes: &[u8]) -> String {
        match parse("cp", bytes) {
            Err(ServiceError::CheckpointCorrupt { detail, .. }) => detail,
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_well_formed_file_decodes() {
        let bytes = file_with(
            &["a", "b"],
            &[(1, "p"), (0, "f")],
            &[(0, 1, 2, &[0, 7]), (1, 0, 1, &[])],
        );
        let data = parse("cp", &bytes).unwrap();
        assert_eq!(data.epoch, 3);
        assert_eq!(data.stats.commits, 3);
        assert_eq!(data.stats.eval.rederived_facts, 3);
        assert_eq!(data.vocab.constant_name(Const::new(1)), Some("b"));
        assert_eq!(data.vocab.lookup_relation("f"), Some((RelId::new(1), 0)));
        let world = data.kb.as_singleton().unwrap();
        // cells are raw ids: 7 is a numeral the vocabulary does not name
        assert!(world.holds(RelId::new(0), &Tuple::new(vec![Const::new(7)])));
        assert!(world.holds(RelId::new(1), &Tuple::new(vec![])));
    }

    #[test]
    fn duplicate_names_are_refused() {
        // at face value the second `a` would intern nothing and `b` would
        // take id 1, where rows written against id 2 expect it
        assert_eq!(
            refusal(&file_with(&["a", "a", "b"], &[(1, "p")], &[])),
            "duplicate constant name"
        );
        assert_eq!(
            refusal(&file_with(&["a"], &[(1, "p"), (1, "q"), (2, "p")], &[])),
            "duplicate relation name"
        );
    }

    #[test]
    fn a_declared_count_sizes_nothing() {
        let huge = |count_at: fn(&mut Vec<u8>, u64)| {
            let mut body = head(&["a"], &[(1, "p")]);
            count_at(&mut body, u64::MAX);
            refusal(&sealed(body))
        };
        // the transforms' count, and the worlds' behind no transforms
        assert_eq!(huge(put_u64), UNBACKED);
        assert_eq!(
            huge(|body, n| {
                put_u64(body, 0);
                put_u64(body, n);
            }),
            UNBACKED
        );
        // a world's relation count, and a relation's rows: 2^62 rows of
        // one cell would need 2^64 bytes
        for rows in [u64::MAX, 1 << 62, 3] {
            let body = body_with(&["a"], &[(1, "p")], &[(0, 1, rows, &[0, 1])]);
            assert_eq!(refusal(&sealed(body)), UNBACKED, "{rows} rows");
        }
        let mut body = head(&["a"], &[(1, "p")]);
        for n in [0, 1, u64::MAX] {
            put_u64(&mut body, n);
        }
        assert_eq!(refusal(&sealed(body)), UNBACKED);
    }

    #[test]
    fn rows_out_of_order_or_repeated_are_refused() {
        let ok = file_with(&[], &[(2, "e")], &[(0, 2, 2, &[1, 2, 1, 3])]);
        assert_eq!(
            parse("cp", &ok)
                .unwrap()
                .kb
                .as_singleton()
                .unwrap()
                .fact_count(),
            2
        );
        for cells in [[1, 3, 1, 2], [1, 2, 1, 2]] {
            let detail = refusal(&file_with(&[], &[(2, "e")], &[(0, 2, 2, &cells)]));
            assert!(
                detail.starts_with("relation 0: row buffer is not a strictly ascending"),
                "{detail}"
            );
        }
        let detail = refusal(&file_with(&[], &[(0, "f")], &[(0, 0, 2, &[])]));
        assert_eq!(detail, "flag 0 declares 2 rows");
    }

    #[test]
    fn repeated_transforms_relations_and_worlds_are_refused() {
        let mut body = head(&[], &[(1, "p")]);
        put_u64(&mut body, 2);
        for _ in 0..2 {
            put_u64(&mut body, 0);
            put_str(&mut body, "t");
            put_str(&mut body, "lub");
        }
        put_u64(&mut body, 0);
        assert_eq!(
            refusal(&sealed(body)),
            "transforms out of order or repeated"
        );

        let world = &[(0, 1, 0, &[][..]), (0, 1, 0, &[][..])];
        assert_eq!(
            refusal(&file_with(&[], &[(1, "p")], world)),
            "world relations out of order or repeated"
        );

        let mut body = head(&[], &[(1, "p")]);
        put_u64(&mut body, 0);
        put_u64(&mut body, 2);
        for _ in 0..2 {
            put_u64(&mut body, 1);
            put_u32(&mut body, 0);
            put_u32(&mut body, 1);
            put_u64(&mut body, 0);
        }
        assert_eq!(refusal(&sealed(body)), "worlds out of order or repeated");
    }

    #[test]
    fn a_world_relation_must_agree_with_the_vocabulary() {
        assert_eq!(
            refusal(&file_with(&[], &[(1, "p")], &[(1, 1, 0, &[])])),
            "world relation 1 is not in the vocabulary"
        );
        assert_eq!(
            refusal(&file_with(&[], &[(1, "p")], &[(0, 2, 1, &[4, 5])])),
            "world relation 0 has arity 2, the vocabulary says 1"
        );
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut body = body_with(&["a"], &[(1, "p")], &[]);
        body.push(0);
        assert_eq!(refusal(&sealed(body)), "trailing bytes after the worlds");
    }

    #[test]
    fn damage_and_other_versions_are_refused_before_decoding() {
        assert_eq!(HEADER, [MAGIC, format!("{VERSION}\n").as_bytes()].concat());
        let ok = file_with(&["a"], &[(1, "p")], &[(0, 1, 1, &[0])]);
        let mut flipped = ok.clone();
        flipped[HEADER.len() + 2] ^= 0x10;
        assert_eq!(refusal(&flipped), "checksum mismatch");
        assert_eq!(refusal(&ok[..ok.len() - 1]), "checksum mismatch");
        assert_eq!(refusal(&ok[..HEADER.len() - 3]), "truncated");
        assert_eq!(refusal(b""), "truncated");
        assert_eq!(refusal(b"wal"), "not a checkpoint file (bad magic)");
        // the text format of version 1
        let v1 = b"kbt-checkpoint v1\nepoch 3\nstats 3 0 0\n";
        let detail = refusal(v1);
        assert!(
            detail.starts_with("unsupported checkpoint version \"1\""),
            "{detail}"
        );
    }
}
