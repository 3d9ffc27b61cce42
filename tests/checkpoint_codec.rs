//! Properties of the checkpoint codec (`kbt::service::checkpoint`):
//!
//! * **Round trip.**  Random multi-world knowledgebases — layered relations
//!   (a base of 64 rows and more under a delta), zero-arity flags present
//!   and absent, empty relations, names with spaces, newlines and
//!   backslashes, registered transforms — decode from their rendering to
//!   the same epoch, stats, vocabulary ids, transforms and worlds, and
//!   rendering is byte-deterministic.
//! * **Hostile bytes.**  Every truncation of a rendered file, with its
//!   checksum left stale and with it recomputed (so the structure decoder
//!   is reached), and random byte flips, are refused with the typed
//!   `CheckpointCorrupt`: never a panic, and never an allocation larger
//!   than the file (or than the fixed 2 KiB a restored vocabulary's first
//!   name index takes).  A file whose flips leave it well-formed is
//!   canonical: it re-renders to the same bytes.
//!
//! The allocation bound is measured by this binary's global allocator,
//! per thread, around each decode.  The `#[ignore]`d variants run more and
//! larger cases (seconds in a release build).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::prelude::*;

use kbt::core::EvalStats;
use kbt::data::{Const, Database, Knowledgebase, RelId, Relation, Vocabulary};
use kbt::service::checkpoint::{parse, render, CheckpointData};
use kbt::service::wal::crc32;
use kbt::service::{CommittedState, ServiceError, ServiceStats, TransformInfo};

/// The global allocator: the system one, noting the largest single
/// request on threads that are watching.
struct Watch;

thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

// SAFETY: every request is passed to `System` unchanged; the wrapper only
// reads its size into a thread-local cell, which allocates nothing.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Watch = Watch;

/// The largest allocation a decode may make whatever the file's length:
/// the first name index of a restored vocabulary (64 entries at a load of
/// one half, 16 B each).  A refusal's message (a version refusal quotes
/// up to 16 bytes of the file) stays under it too.
const FIXED_BYTES: usize = 2048;

/// Name fragments: spaces, escapes, multi-byte UTF-8, and the empty name.
const ODD: &[&str] = &[
    "",
    "a",
    "b c",
    "line\nbreak",
    "back\\slash",
    "tab\there",
    "Montréal",
    "\\n",
];

fn odd_name(rng: &mut StdRng, i: usize) -> String {
    format!("{}{i}", ODD[rng.random_range(0..ODD.len())])
}

/// `count` distinct random rows of `arity` cells (`arity > 0`).
fn rows(rng: &mut StdRng, arity: usize, count: usize) -> Relation {
    let mut relation = Relation::empty(arity);
    while relation.len() < count {
        let row: Vec<Const> = (0..arity)
            .map(|_| Const::new(rng.random_range(0..1000)))
            .collect();
        relation.insert_row(&row);
    }
    relation.folded()
}

/// `base` under a delta: one row inserted, and one removed when the base
/// is large enough that two rows of delta stay unfolded.
fn layered(rng: &mut StdRng, base: &Relation) -> Relation {
    let mut relation = base.clone();
    loop {
        let row: Vec<Const> = (0..base.arity())
            .map(|_| Const::new(rng.random_range(0..1000)))
            .collect();
        if relation.insert_row(&row) {
            break;
        }
    }
    if base.len() >= 128 {
        let row = base.row(rng.random_range(0..base.len())).to_vec();
        assert!(relation.remove_row(&row));
    }
    assert!(
        !relation.is_flat(),
        "a base of {} rows keeps its delta",
        base.len()
    );
    relation
}

/// A random committed state: `scale` grows the vocabulary and the worlds.
fn random_state(rng: &mut StdRng, scale: usize) -> (u64, CommittedState) {
    let mut vocab = Vocabulary::new();
    for i in 0..rng.random_range(0..8 * scale + 1) {
        let name = odd_name(rng, i);
        vocab.constant(&name);
    }
    let schema: Vec<(RelId, usize)> = (0..rng.random_range(1..6usize))
        .map(|i| {
            let arity = rng.random_range(0..4usize);
            let name = odd_name(rng, i);
            (vocab.relation(&name, arity).unwrap(), arity)
        })
        .collect();
    // relations the vocabulary names but no world holds
    for i in 0..rng.random_range(0..3usize) {
        let name = format!("unused {i}");
        vocab.relation(&name, i).unwrap();
    }
    // one shared base per relation, so layered worlds share a run
    let bases: Vec<Relation> = schema
        .iter()
        .map(|&(_, arity)| {
            let count = rng.random_range(64..64 + 100 * scale);
            rows(rng, arity.max(1), count)
        })
        .collect();
    let worlds: Vec<Database> = (0..rng.random_range(1..4usize))
        .map(|_| {
            let mut db = Database::new();
            for (&(rel, arity), base) in schema.iter().zip(&bases) {
                let relation = match (arity, rng.random_range(0..4u32)) {
                    (0, pick) => Relation::from_rows(0, Vec::new(), (pick % 2) as usize).unwrap(),
                    (_, 0) => Relation::empty(arity),
                    (_, 1) => {
                        let count = rng.random_range(1..20);
                        rows(rng, arity, count)
                    }
                    _ => layered(rng, base),
                };
                db.set_relation(rel, relation);
            }
            db
        })
        .collect();
    let transforms: BTreeMap<String, TransformInfo> = (0..rng.random_range(0..4usize))
        .map(|i| {
            let info = TransformInfo {
                text: odd_name(rng, i).into(),
                applications: rng.next_u64(),
            };
            (odd_name(rng, i), info)
        })
        .collect();
    let stats = ServiceStats {
        commits: rng.next_u64(),
        applies: rng.next_u64(),
        defines: rng.next_u64(),
        eval: EvalStats {
            updates: rng.next_u64() as usize,
            candidate_atoms: rng.next_u64() as usize,
            minimal_models: rng.next_u64() as usize,
            operators: rng.next_u64() as usize,
            fixpoint_iterations: rng.next_u64() as usize,
            index_probes: rng.next_u64() as usize,
            tuples_scanned: rng.next_u64() as usize,
            reused_facts: rng.next_u64() as usize,
            rederived_facts: rng.next_u64() as usize,
        },
    };
    let state = CommittedState {
        kb: Knowledgebase::from_databases(worlds).unwrap(),
        vocab: Arc::new(vocab),
        transforms: Arc::new(transforms),
        stats,
    };
    (rng.next_u64(), state)
}

/// The committed state a decoded checkpoint describes.
fn restored(data: CheckpointData) -> CommittedState {
    let transforms = data
        .transforms
        .into_iter()
        .map(|(name, applications, text)| {
            let info = TransformInfo {
                text: text.into(),
                applications,
            };
            (name, info)
        })
        .collect();
    CommittedState {
        kb: data.kb,
        vocab: Arc::new(data.vocab),
        transforms: Arc::new(transforms),
        stats: data.stats,
    }
}

fn assert_round_trip(epoch: u64, state: &CommittedState) {
    let bytes = render(epoch, state);
    assert_eq!(
        render(epoch, state),
        bytes,
        "rendering is byte-deterministic"
    );
    let data = parse("round-trip", &bytes).unwrap();
    assert_eq!(data.epoch, epoch);
    assert_eq!(data.stats, state.stats);
    let (ours, theirs) = (&data.vocab, state.vocab.as_ref());
    assert_eq!(ours.constant_count(), theirs.constant_count());
    for i in 0..theirs.constant_count() as u32 {
        let c = Const::new(i);
        assert_eq!(
            ours.constant_name(c),
            theirs.constant_name(c),
            "constant {i}"
        );
    }
    assert_eq!(ours.relation_count(), theirs.relation_count());
    for i in 0..theirs.relation_count() as u32 {
        let r = RelId::new(i);
        assert_eq!(
            ours.relation_name(r),
            theirs.relation_name(r),
            "relation {i}"
        );
        assert_eq!(
            ours.relation_arity(r),
            theirs.relation_arity(r),
            "relation {i}"
        );
    }
    let transforms: Vec<(String, u64, String)> = state
        .transforms
        .iter()
        .map(|(name, info)| (name.clone(), info.applications, info.text.to_string()))
        .collect();
    assert_eq!(data.transforms, transforms);
    assert_eq!(data.kb, state.kb);
    assert_eq!(
        render(epoch, &restored(data)),
        bytes,
        "the decoded state re-renders"
    );
}

/// Decodes `bytes`, checking the allocation bound: `Some` when they are a
/// well-formed checkpoint, `None` when refused as corrupt.
fn decode_watched(bytes: &[u8], context: &str) -> Option<CheckpointData> {
    LARGEST.with(|largest| largest.set(Some(0)));
    let result = parse("hostile", bytes);
    let largest = LARGEST.with(Cell::take).unwrap_or_default();
    assert!(
        largest <= bytes.len().max(FIXED_BYTES),
        "{context}: a {largest} B allocation decoding a {} B file",
        bytes.len()
    );
    match result {
        Ok(data) => Some(data),
        Err(ServiceError::CheckpointCorrupt { .. }) => None,
        Err(other) => panic!("{context}: expected CheckpointCorrupt, got {other}"),
    }
}

/// `body` with its checksum recomputed.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut bytes = body.to_vec();
    bytes.extend_from_slice(&crc32(body).to_le_bytes());
    bytes
}

/// Every strict prefix of `bytes` is refused, as it stands and resealed.
fn assert_truncations_refused(bytes: &[u8]) {
    let body = &bytes[..bytes.len() - 4];
    for len in 0..bytes.len() {
        let context = format!("prefix of {len} of {} bytes", bytes.len());
        assert!(
            decode_watched(&bytes[..len], &context).is_none(),
            "{context}"
        );
        if len < body.len() {
            let resealed = sealed(&body[..len]);
            let context = format!("{context}, resealed");
            assert!(decode_watched(&resealed, &context).is_none(), "{context}");
        }
    }
}

/// Flips at `(position, mask)` are refused against the stale checksum;
/// resealed, they are refused or decode to a state that re-renders to the
/// same bytes.
fn assert_flips_refused_or_canonical(bytes: &[u8], flips: &[(usize, u8)]) {
    let mut flipped = bytes.to_vec();
    for &(at, mask) in flips {
        flipped[at % bytes.len()] ^= mask;
    }
    if flipped == bytes {
        return; // two flips cancelled out
    }
    // CRC-32 catches every error burst of 32 bits or fewer: one flip
    if let [(at, mask)] = flips {
        let mut one = bytes.to_vec();
        one[at % bytes.len()] ^= mask;
        assert!(decode_watched(&one, "one flip, stale checksum").is_none());
    }
    let body = sealed(&flipped[..flipped.len() - 4]);
    if let Some(data) = decode_watched(&body, "flips, resealed") {
        assert_eq!(
            render(data.epoch, &restored(data)),
            body,
            "a well-formed file is canonical"
        );
    }
}

/// A fixed state with every shape the codec distinguishes: a layered
/// binary relation in two worlds over one base, a flag present in one
/// world and absent in the other, an empty relation, a ternary one, odd
/// names and two transforms.
fn fixture() -> (u64, CommittedState) {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let mut vocab = Vocabulary::new();
    for (i, fragment) in ODD.iter().enumerate() {
        vocab.constant(&format!("{fragment}{i}"));
    }
    let e = vocab.relation("e dge", 2).unwrap();
    let f = vocab.relation("flag\n", 0).unwrap();
    let g = vocab.relation("g\\", 1).unwrap();
    let h = vocab.relation("h", 3).unwrap();
    let base = rows(&mut rng, 2, 140);
    let worlds = (0..2).map(|w| {
        let mut db = Database::new();
        db.set_relation(e, layered(&mut rng, &base));
        db.set_relation(f, Relation::from_rows(0, Vec::new(), w).unwrap());
        db.set_relation(g, Relation::empty(1));
        db.set_relation(h, rows(&mut rng, 3, 5));
        db
    });
    let transforms = [("closure", "tau[x]"), ("p q", "project[e dge];\nlub")]
        .into_iter()
        .map(|(name, text)| {
            let info = TransformInfo {
                text: text.into(),
                applications: 7,
            };
            (name.to_string(), info)
        })
        .collect();
    let state = CommittedState {
        kb: Knowledgebase::from_databases(worlds).unwrap(),
        vocab: Arc::new(vocab),
        transforms: Arc::new(transforms),
        stats: ServiceStats::default(),
    };
    assert_eq!(state.kb.len(), 2);
    (41, state)
}

#[test]
fn the_fixture_round_trips_and_refuses_every_truncation() {
    // the data crate's process-global metrics allocate once, on first use
    kbt::data::metrics();
    let (epoch, state) = fixture();
    assert_round_trip(epoch, &state);
    assert_truncations_refused(&render(epoch, &state));
}

#[test]
#[ignore = "long variant: every truncation of larger random files"]
fn random_files_refuse_every_truncation() {
    kbt::data::metrics();
    for seed in 0..24 {
        let (epoch, state) = random_state(&mut StdRng::seed_from_u64(seed), 4);
        assert_truncations_refused(&render(epoch, &state));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_knowledgebases_round_trip(seed in any::<u64>()) {
        let (epoch, state) = random_state(&mut StdRng::seed_from_u64(seed), 1);
        assert_round_trip(epoch, &state);
    }

    #[test]
    fn flipped_bytes_are_refused_or_canonical(
        seed in any::<u64>(),
        flips in vec((any::<usize>(), 1u8..255), 1..4),
    ) {
        kbt::data::metrics();
        let (epoch, state) = random_state(&mut StdRng::seed_from_u64(seed), 1);
        assert_flips_refused_or_canonical(&render(epoch, &state), &flips);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5000, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "long variant: more and larger random knowledgebases"]
    fn random_knowledgebases_round_trip_long(seed in any::<u64>(), scale in 1usize..6) {
        let (epoch, state) = random_state(&mut StdRng::seed_from_u64(seed), scale);
        assert_round_trip(epoch, &state);
    }

    #[test]
    #[ignore = "long variant: more flips over larger files"]
    fn flipped_bytes_are_refused_or_canonical_long(
        seed in any::<u64>(),
        scale in 1usize..6,
        flips in vec((any::<usize>(), 1u8..255), 1..4),
    ) {
        kbt::data::metrics();
        let (epoch, state) = random_state(&mut StdRng::seed_from_u64(seed), scale);
        assert_flips_refused_or_canonical(&render(epoch, &state), &flips);
    }
}
