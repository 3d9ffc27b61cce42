//! Epoch-snapshot checkpoints: a whole committed state serialized to one
//! checksummed text file, so recovery replays only the WAL *tail*.
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
//! # File format (`checkpoint-<epoch>.kbtc`)
//!
//! Line-oriented text; every name/text field is escaped to one physical
//! line by the wire's rule ([`crate::net::proto::escape_line`]: `\\`,
//! `\n`, `\r`).  Interning is append-only and Vec-ordered in
//! [`kbt_data::Vocabulary`], so writing constants and relations **in id
//! order** and re-interning them on load reproduces identical
//! `Const`/`RelId` assignments — fact rows serialize as raw indices.
//!
//! ```text
//! kbt-checkpoint v1
//! epoch <n>
//! stats <commits> <applies> <defines>
//! eval <updates> <candidates> <models> <ops> <rounds> <probes> <scanned> <reused> <rederived>
//! constants <n>      then per constant:   c <name>
//! relations <n>      then per relation:   r <arity> <name>
//! transforms <n>     then per transform:  t <applications> <name> <text>
//! worlds <n>         then per world:      world <n-relations>
//!                    then per relation:   rel <id> <arity> <n-rows>
//!                    then per row:        w <c0> <c1> …
//! checksum <crc32-hex-of-everything-above>
//! ```
//!
//! The file is written to a `.tmp` sibling, fsynced, and atomically
//! renamed into place (then the directory is fsynced), so a crash never
//! leaves a half-written checkpoint under the real name.  A file that
//! fails its header, shape, or checksum check surfaces as
//! [`ServiceError::CheckpointCorrupt`].

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use kbt_core::EvalStats;
use kbt_data::{Const, Database, RelId, Tuple, Vocabulary};
use kbt_obs::Counter;

use crate::error::{Result, ServiceError};
use crate::net::proto::{escape_line, unescape_line};
use crate::service::{CommittedState, ServiceStats};

/// File-name prefix of checkpoints inside the data dir.
pub const CHECKPOINT_PREFIX: &str = "checkpoint-";
/// File-name suffix of checkpoints inside the data dir.
pub const CHECKPOINT_SUFFIX: &str = ".kbtc";
/// How many finished checkpoints are retained (older ones are deleted
/// after a newer one lands).
pub const KEEP_CHECKPOINTS: usize = 2;

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
    /// Registered transformations: `(name, applications, wire text)`.
    pub transforms: Vec<(String, u64, String)>,
    /// The possible worlds, fully materialized.
    pub worlds: Vec<Database>,
}

/// Serializes one committed state (see the module-level format).
pub fn render(epoch: u64, state: &CommittedState) -> String {
    let mut out = String::new();
    out.push_str("kbt-checkpoint v1\n");
    out.push_str(&format!("epoch {epoch}\n"));
    let s = &state.stats;
    out.push_str(&format!(
        "stats {} {} {}\n",
        s.commits, s.applies, s.defines
    ));
    let e = &s.eval;
    out.push_str(&format!(
        "eval {} {} {} {} {} {} {} {} {}\n",
        e.updates,
        e.candidate_atoms,
        e.minimal_models,
        e.operators,
        e.fixpoint_iterations,
        e.index_probes,
        e.tuples_scanned,
        e.reused_facts,
        e.rederived_facts
    ));
    let vocab = state.vocab.as_ref();
    out.push_str(&format!("constants {}\n", vocab.constant_count()));
    for i in 0..vocab.constant_count() {
        let name = vocab
            .constant_name(Const::new(i as u32))
            .expect("interned constants are dense");
        out.push_str(&format!("c {}\n", escape_line(name)));
    }
    out.push_str(&format!("relations {}\n", vocab.relation_count()));
    for i in 0..vocab.relation_count() {
        let rel = RelId::new(i as u32);
        let name = vocab
            .relation_name(rel)
            .expect("interned relations are dense");
        let arity = vocab.relation_arity(rel).expect("registered above");
        out.push_str(&format!("r {arity} {}\n", escape_line(name)));
    }
    out.push_str(&format!("transforms {}\n", state.transforms.len()));
    for (name, info) in state.transforms.iter() {
        out.push_str(&format!(
            "t {} {name} {}\n",
            info.applications,
            escape_line(&info.text)
        ));
    }
    out.push_str(&format!("worlds {}\n", state.kb.len()));
    for db in state.kb.iter() {
        let rels: Vec<(RelId, &kbt_data::Relation)> = db.iter().collect();
        out.push_str(&format!("world {}\n", rels.len()));
        for (rel, relation) in rels {
            out.push_str(&format!(
                "rel {} {} {}\n",
                rel.index(),
                relation.arity(),
                relation.len()
            ));
            for row in relation.iter() {
                out.push('w');
                for c in row {
                    out.push_str(&format!(" {}", c.index()));
                }
                out.push('\n');
            }
        }
    }
    let crc = crate::wal::crc32(out.as_bytes());
    out.push_str(&format!("checksum {crc:08x}\n"));
    out
}

/// Parses a checkpoint file's text (see the module-level format),
/// verifying the checksum first.
pub fn parse(path_for_errors: &str, text: &str) -> Result<CheckpointData> {
    let corrupt = |detail: &str| ServiceError::CheckpointCorrupt {
        path: path_for_errors.to_string(),
        detail: detail.to_string(),
    };
    // the checksum line covers every byte before it
    let body_end = text
        .trim_end_matches('\n')
        .rfind('\n')
        .ok_or_else(|| corrupt("missing checksum line"))?
        + 1;
    let (body, tail) = text.split_at(body_end);
    let declared = tail
        .trim()
        .strip_prefix("checksum ")
        .ok_or_else(|| corrupt("missing checksum line"))?;
    let declared = u32::from_str_radix(declared, 16).map_err(|_| corrupt("bad checksum field"))?;
    if crate::wal::crc32(body.as_bytes()) != declared {
        return Err(corrupt("checksum mismatch"));
    }

    let mut lines = body.lines();
    let mut expect = |prefix: &str| -> Result<String> {
        let line = lines
            .next()
            .ok_or_else(|| corrupt(&format!("unexpected EOF, wanted {prefix:?}")))?;
        line.strip_prefix(prefix)
            .map(str::to_string)
            .ok_or_else(|| corrupt(&format!("expected {prefix:?}, found {line:?}")))
    };
    let field = |s: &str| -> Result<u64> { s.trim().parse().map_err(|_| corrupt("bad number")) };

    expect("kbt-checkpoint v1")?;
    let epoch = field(&expect("epoch ")?)?;
    let stats_line = expect("stats ")?;
    let nums: Vec<u64> = stats_line
        .split_whitespace()
        .map(field)
        .collect::<Result<_>>()?;
    let [commits, applies, defines] = nums[..] else {
        return Err(corrupt("stats line needs 3 fields"));
    };
    let eval_line = expect("eval ")?;
    let nums: Vec<u64> = eval_line
        .split_whitespace()
        .map(field)
        .collect::<Result<_>>()?;
    let [updates, candidate_atoms, minimal_models, operators, fixpoint_iterations, index_probes, tuples_scanned, reused_facts, rederived_facts] =
        nums[..]
    else {
        return Err(corrupt("eval line needs 9 fields"));
    };
    let stats = ServiceStats {
        commits,
        applies,
        defines,
        eval: EvalStats {
            updates: updates as usize,
            candidate_atoms: candidate_atoms as usize,
            minimal_models: minimal_models as usize,
            operators: operators as usize,
            fixpoint_iterations: fixpoint_iterations as usize,
            index_probes: index_probes as usize,
            tuples_scanned: tuples_scanned as usize,
            reused_facts: reused_facts as usize,
            rederived_facts: rederived_facts as usize,
        },
    };

    let mut vocab = Vocabulary::new();
    let n_constants = field(&expect("constants ")?)?;
    // a name listed twice would intern once and shift every later id, so
    // each line must add exactly one name
    for i in 0..n_constants {
        vocab.constant(&unescape_line(&expect("c ")?));
        if vocab.constant_count() as u64 != i + 1 {
            return Err(corrupt("duplicate constant name"));
        }
    }
    let n_relations = field(&expect("relations ")?)?;
    for _ in 0..n_relations {
        let line = expect("r ")?;
        let (arity, name) = line
            .split_once(' ')
            .ok_or_else(|| corrupt("relation line needs arity and name"))?;
        let name = unescape_line(name);
        if vocab.lookup_relation(&name).is_some() {
            return Err(corrupt("duplicate relation name"));
        }
        vocab
            .relation(&name, field(arity)? as usize)
            .map_err(|_| corrupt("conflicting relation arity"))?;
    }

    // the declared counts size nothing up front: the vectors grow as lines
    // arrive, so a count the lines do not back is a refusal, not an
    // allocation
    let n_transforms = field(&expect("transforms ")?)?;
    let mut transforms = Vec::new();
    for _ in 0..n_transforms {
        let line = expect("t ")?;
        let mut parts = line.splitn(3, ' ');
        let applications = field(parts.next().unwrap_or_default())?;
        let name = parts
            .next()
            .ok_or_else(|| corrupt("transform line needs a name"))?
            .to_string();
        let text = unescape_line(parts.next().unwrap_or_default());
        transforms.push((name, applications, text));
    }

    let n_worlds = field(&expect("worlds ")?)?;
    let mut worlds = Vec::new();
    for _ in 0..n_worlds {
        let n_rels = field(&expect("world ")?)?;
        let mut db = Database::new();
        for _ in 0..n_rels {
            let line = expect("rel ")?;
            let nums: Vec<u64> = line.split_whitespace().map(field).collect::<Result<_>>()?;
            let [rel, arity, rows] = nums[..] else {
                return Err(corrupt("rel line needs id, arity, rows"));
            };
            // relation ids and constants are `u32`s: a wider one is
            // refused, never narrowed
            let rel_id = RelId::new(u32::try_from(rel).map_err(|_| corrupt("bad id"))?);
            db.ensure_relation(rel_id, arity as usize)
                .map_err(|_| corrupt("conflicting world schema"))?;
            for _ in 0..rows {
                // `"w"` not `"w "`: an arity-0 row is the bare line `w`
                let row = expect("w")?;
                let consts: Vec<Const> = row
                    .split_whitespace()
                    .map(|c| c.parse().map(Const::new).map_err(|_| corrupt("bad id")))
                    .collect::<Result<_>>()?;
                if consts.len() != arity as usize {
                    return Err(corrupt("row arity mismatch"));
                }
                db.insert_fact(rel_id, Tuple::new(consts))
                    .map_err(|_| corrupt("row rejected"))?;
            }
        }
        worlds.push(db);
    }
    if lines.next().is_some() {
        return Err(corrupt("trailing content after worlds"));
    }
    Ok(CheckpointData {
        epoch,
        stats,
        vocab,
        transforms,
        worlds,
    })
}

/// Writes `text` to `dir/name` via a fsynced temp file and an atomic
/// rename, then fsyncs the directory.
fn write_atomically(dir: &Path, name: &str, text: &str) -> Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
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
    let text = fs::read_to_string(path)?;
    parse(&path.display().to_string(), &text)
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
    /// Epoch of the newest checkpoint known written.
    last_epoch: AtomicU64,
    /// Guard: at most one serialization in flight.
    in_flight: Arc<AtomicBool>,
    /// The current/most recent background writer, joined before the next
    /// one starts (and on drop) so threads never accumulate.
    worker: Mutex<Option<JoinHandle<()>>>,
    /// `kbt_service_checkpoints_total`.
    written_total: Counter,
}

impl CheckpointManager {
    /// A manager writing into `dir` every `every` commits.
    pub fn new(dir: PathBuf, every: u64, last_epoch: u64, written_total: Counter) -> Self {
        CheckpointManager {
            dir,
            every,
            commits_since: AtomicU64::new(0),
            last_epoch: AtomicU64::new(last_epoch),
            in_flight: Arc::new(AtomicBool::new(false)),
            worker: Mutex::new(None),
            written_total,
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
        self.commits_since.store(0, Ordering::Relaxed);
        let dir = self.dir.clone();
        let in_flight = self.in_flight.clone();
        let written_total = self.written_total.clone();
        let handle = std::thread::Builder::new()
            .name("kbt-checkpoint".to_string())
            .spawn(move || {
                // rendering happens here, off the commit path
                let rendered = render(epoch, &state);
                if write_atomically(&dir, &checkpoint_file_name(epoch), &rendered).is_ok() {
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
                // the epoch is recorded optimistically; a failed write
                // simply means the next recovery replays a longer tail
                self.last_epoch.store(epoch, Ordering::Release);
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
        let name = checkpoint_file_name(epoch);
        write_atomically(&self.dir, &name, &render(epoch, state))?;
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

    #[test]
    fn file_names_sort_by_epoch() {
        assert_eq!(checkpoint_file_name(7), "checkpoint-000000000007.kbtc");
        assert!(checkpoint_file_name(9) < checkpoint_file_name(10));
        assert_eq!(parse_file_name("checkpoint-000000000042.kbtc"), Some(42));
        assert_eq!(parse_file_name("wal.kbtl"), None);
    }

    /// A well-formed file, checksum included, around the given name lines.
    fn file_with(constants: &[&str], relations: &[&str]) -> String {
        let mut body =
            String::from("kbt-checkpoint v1\nepoch 3\nstats 3 0 0\neval 0 0 0 0 0 0 0 0 0\n");
        body.push_str(&format!("constants {}\n", constants.len()));
        for name in constants {
            body.push_str(&format!("c {name}\n"));
        }
        body.push_str(&format!("relations {}\n", relations.len()));
        for name in relations {
            body.push_str(&format!("r 1 {name}\n"));
        }
        body.push_str("transforms 0\nworlds 1\nworld 0\n");
        let crc = crate::wal::crc32(body.as_bytes());
        body + &format!("checksum {crc:08x}\n")
    }

    /// `text` with the first `from` replaced by `to`, checksum recomputed.
    fn edited(text: &str, from: &str, to: &str) -> String {
        let body = text[..text.rfind("checksum ").unwrap()].replacen(from, to, 1);
        let crc = crate::wal::crc32(body.as_bytes());
        body + &format!("checksum {crc:08x}\n")
    }

    fn refusal(text: &str) -> String {
        match parse("cp", text) {
            Err(ServiceError::CheckpointCorrupt { detail, .. }) => detail,
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_are_refused() {
        let ok = parse("cp", &file_with(&["a", "b"], &["p", "q"])).unwrap();
        assert_eq!(ok.vocab.constant_count(), 2);
        assert_eq!(ok.vocab.relation_count(), 2);
        // at face value the second `a` would intern nothing and `b` would
        // take id 1, where rows written against id 2 expect it
        assert_eq!(
            refusal(&file_with(&["a", "a", "b"], &["p"])),
            "duplicate constant name"
        );
        assert_eq!(
            refusal(&file_with(&["a"], &["p", "q", "p"])),
            "duplicate relation name"
        );
    }

    #[test]
    fn a_declared_count_sizes_nothing() {
        let ok = file_with(&["a"], &["p"]);
        for (from, to) in [
            ("transforms 0\n", "transforms 18446744073709551615\n"),
            ("worlds 1\n", "worlds 18446744073709551615\n"),
        ] {
            let detail = refusal(&edited(&ok, from, to));
            assert!(detail.starts_with("unexpected EOF") || detail.starts_with("expected"));
        }
    }

    #[test]
    fn an_id_wider_than_u32_is_refused_not_wrapped() {
        let ok = file_with(&["a", "b"], &["p"]);
        let world = |rel: &str, cell: &str| format!("worlds 1\nworld 1\nrel {rel} 1 1\nw {cell}\n");
        let read = parse("cp", &edited(&ok, "worlds 1\nworld 0\n", &world("0", "1"))).unwrap();
        assert!(read.worlds[0].holds(RelId::new(0), &Tuple::new(vec![Const::new(1)])));
        // 2^32 + 1 would read back as constant 1, 2^32 as relation 0
        for (rel, cell) in [("0", "4294967297"), ("4294967296", "1")] {
            let text = edited(&ok, "worlds 1\nworld 0\n", &world(rel, cell));
            assert_eq!(refusal(&text), "bad id");
        }
    }
}
