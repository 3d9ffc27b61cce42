//! Indexed relations: a shared stored run plus a private row arena, with
//! indexes keyed by bound-column masks — the run's own first-column
//! offsets where they serve, chained hash tables elsewhere.
//!
//! # Storage layout: a relation it sits on, plus what was written since
//!
//! A relation's slots are numbered `0..slot_count()`, and every row is one
//! arity-strided `&[Const]` slice — no per-tuple allocation anywhere.  An
//! indexed relation always **sits on** a data-crate [`Relation`] — the one
//! it was loaded from ([`IndexedRelation::from_relation`]) or last re-seated
//! on — which is itself a shared base run plus a small sorted delta (see
//! [`kbt_data::relation`]), and takes it apart along that line:
//!
//! * the **first segment**, slots `0..n`, is that relation's base run
//!   ([`Relation::base`]), held by `Arc` and never copied.  A relation that
//!   starts empty has an empty first segment;
//! * the **tail**, slots `n..`, is a private `Vec<Const>` arena: the
//!   delta's adds as its first run, then every write since, appended —
//!   each [`IndexedRelation::append_run`] (one per fixpoint round, see the
//!   commit contract in [`crate::eval`]) adds a sorted, duplicate-free run
//!   that is disjoint from everything live, and a single-row
//!   [`IndexedRelation::insert_row`] adds a run of one;
//! * the **tombstones** are the delta's dels, found in the first segment by
//!   binary search, plus every removal since, in either segment.
//!
//! So a load costs two reference counts and `O(delta)`, and a commit that
//! changed a few rows of a relation leaves the next read the very first
//! segment — with the indexes cached on it — that the previous read had.
//! Tombstones are a private bitset, allocated by the first removal (or by
//! a load whose delta deletes), so a load never pays for liveness it does
//! not use, and every slot past its end is live.
//!
//! # Contents: one merge into the first segment
//!
//! The relation knows its contents in canonical order exactly one way.
//! While nothing has been written since it was seated or handed out, they
//! are the relation it keeps for that: a relation that was loaded and
//! never written comes back as the very relation it was loaded from.
//! Otherwise materialising ([`IndexedRelation::to_relation`]) is one
//! [`Relation::merge_run`] into the first segment: the additions are the
//! live rows of the tail's runs, k-way merged into one sorted run, and the
//! deletions are the dead first-segment slots, read off the tombstones in
//! slot order — which is row order — so neither is sorted again.  A
//! segment row that died and was appended again is in both, and the merge
//! keeps it.  The merge composes a delta over the same base run — the run
//! a read loads as its first segment, indexes and all — until the delta
//! passes the data crate's fold rule (more than 1/64 of the base) and the
//! merge writes a fresh run; over an empty first segment the additions
//! become the run as they are.
//!
//! **Re-seating.**  [`IndexedRelation::snapshot`] is the same
//! materialisation, remembered until the next write; when it landed on a
//! new base run — a fold, or the first snapshot of a relation derived from
//! scratch — the relation **re-seats** on it: the first segment becomes
//! the new run, its delta the tail and the tombstones, and each demanded
//! table is fetched from the new run, built there by the first holder that
//! asks.  So an incremental session and the readers of the epochs it
//! publishes probe one index per run and mask, and a session's tail stays
//! bounded: at each snapshot its live rows are a delta within the fold
//! rule, and its dead ones are fewer than half the slots, or the relation
//! compacts.  A load, a re-seat and a compaction are one code path.
//! Outstanding snapshots are never disturbed: every merge builds a fresh
//! delta or a fresh run.
//!
//! A materialisation whose length differs from the live count is never
//! served.  The comparison is `O(1)` and runs in every build; on a mismatch
//! debug builds panic — so a bookkeeping bug fails the suite — and release
//! builds fall back to sorting the live rows, which needs none of the
//! bookkeeping.
//!
//! # Indexes and the membership table
//!
//! A *binding pattern* for the relation is the set of argument positions
//! bound when a rule body reaches the corresponding atom, represented as a
//! bitmask ([`Mask`], bit `i` = column `i` bound).  For every pattern a rule
//! body demands, the relation keeps a hash map from a **`u64` row key** (the
//! bound column values packed exactly for ≤ 2 columns, FxHash-folded beyond
//! — see [`crate::fx`]) to the matching tuple ids, so a join step is one
//! hash probe plus a walk over the matching ids with **zero allocations per
//! probe**.  Hashed (≥ 3 column) buckets may contain collisions; consumers
//! verify candidates against the row (the evaluator's bound-column check).
//!
//! Every such table is a chained id table: a hash map from key to the
//! first and last id of its bucket, and one `next: Vec<u32>` indexed by id
//! that links each id to the next one with the same key.  No key owns a
//! heap allocation, and a probe walks a borrowed chain ([`Bucket`]).
//!
//! **Indexes belong to the run they index.**  The first segment's table for
//! a mask is built once per *run*, lazily, and cached on the run's shared
//! `Arc` ([`Relation::cached`], `RunIndex`): every evaluation over every
//! epoch that still holds the run probes that one table, a commit that
//! leaves a relation untouched hands the next epoch the same run — indexes
//! included — and the table is freed with the last holder of the run.
//! Nothing is evicted and nothing is sized.  The tail has a private table
//! per demanded mask, over tail-local ids, extended as runs are appended.
//! A probe ([`IndexedRelation::probe_bucket`]) walks the segment's bucket,
//! then the tail's — every segment id is below every tail id, and within a
//! table ids are pushed in ascending order, so every bucket walks **first
//! stored first**: join derivations come out in the order they always have,
//! the first witness a head-bound plan finds is the same, and every
//! statistics counter stays put.  A relation with no tail rows pays one
//! lookup.  Tombstones stay in the tables until compaction; a bucket walk
//! skips them, so every bucket yields live ids only.
//!
//! **A sorted run is its own index on its leading columns.**  The rows of
//! a stored run that share their first column — or their first two — fill
//! one contiguous range of its slots, so for those masks the first
//! segment's table is not a hash table but the run's **first-column
//! offsets** (a `RunIndex` of its own): one `Vec<u32>` in which
//! `starts[c - lo] .. starts[c - lo + 1]` are the slots whose column 0 is
//! `c`, built in one pass.  They answer
//!
//! * a probe on mask `0b1`: the range is the bucket;
//! * a probe on mask `0b11`: a binary search on column 1 inside the range;
//! * full-row membership at arity 1 and 2, which is one of those two masks
//!   — so the one array a binary relation is probed through is also its
//!   membership table.
//!
//! A bucket walks the range, in slot order, and then the tail's chain, so
//! it yields the ids a chained table would, in the same order.
//! Offsets are taken only where the first column is **dense**: its span
//! `hi − lo + 1` is at most `4 ×` the run's rows, plus 16 so that tiny runs
//! qualify.  That bounds them at 16 B per row (plus 68 B), against at least
//! 21 B per row for a chained full-row table (a 16 B map slot and a
//! control byte per key, one key per row, and a 4 B link) — so where they
//! replace a membership table, memory never rises.  A chained prefix table
//! costs 4 B per row plus 17 B per distinct first value, so offsets serving
//! only a probe can cost more than it when the span holds several times
//! more values than the run has distinct ones.  The rule is a constant,
//! not a knob: which table a mask gets is a function of the run (its
//! arity, and the span of its first column) alone.  Every other mask, a
//! run whose first column is sparse, full-row membership at arity ≥ 3 and
//! every index on a tail keep chained tables.  Offsets are cached on the
//! run like any of its tables (one cache entry serves every mask they
//! answer), and counted in `kbt_engine_index_builds_total` and
//! `kbt_engine_shared_index_bytes` alike.
//!
//! The *membership table* is the same thing for the full row: full-row key
//! → id, the first segment's cached on its run like any index (it *is* the
//! full-mask index — the offsets at arity ≤ 2 on a dense run), the tail's
//! private.  The segment's is **deferred**: hashing every stored fact of a
//! relation that is only ever scanned or probed is wasted work, and the
//! sorted run answers [`IndexedRelation::contains_row`] by binary search,
//! checked against the tombstones a load set, until the first point write
//! or removal.  The segment's table is fetched — built, the first time any
//! holder of the run asks — by
//! [`IndexedRelation::demand_membership`], demanded for the targets of the
//! `Member` steps of every plan about to run exactly as
//! [`IndexedRelation::ensure_index`] is for probe masks, and by the first
//! point write or removal.
//!
//! **Derived facts stay sorted until something asks for one by key.**  A
//! fixpoint writes its head's tail only in bulk, one sorted run per round
//! ([`IndexedRelation::append_run`]), and reads its membership only
//! through the fixpoint filter, once per candidate.  So while a relation is
//! only appended to in bulk, at arity 1 and 2 — where a row's packed key is
//! exact and sorts like the row — the tail's membership is not a hash
//! table but a stack of **sorted key levels**, as in datafrog's relations:
//! each append pushes its run's keys as one `Vec<u64>`, merged with the
//! level below while that one is at most twice what has been merged (so a
//! level is more than twice the size of the one above it, and there are at
//! most `log₂ n` of them).  No tail row can have died while the tail is
//! sorted — the first removal switches it — so the levels hold keys only
//! (a first-segment row found by binary search is checked against the
//! tombstones a load set): 8 B per tail row, against at least 21 B for a
//! chained full-row table.  The fixpoint filter looks rows up through a
//! [`MemberCursor`], one per task:
//! a finger on the first segment and one per level, each galloping forward
//! from the last key looked up and falling back to a binary search when a
//! key steps backwards.  Where a head's first column comes from the
//! scanned delta, its candidates arrive in near-key order and a lookup
//! touches about one cache line per level.  `Member` steps and
//! [`IndexedRelation::contains_row`] search the levels outright: the
//! relation a `Member` step checks is often a head the same fixpoint is
//! still appending to in bulk, and hashing it would cost one more build on
//! every read.
//!
//! The chained table is built in one pass over the arena, with an exact
//! reserve, only when something first asks for a row by key: a single-row
//! [`IndexedRelation::insert_row`] or [`IndexedRelation::remove_row`],
//! [`IndexedRelation::ensure_membership`], or the incremental session
//! before its first delta, where point lookups begin (the session switches
//! only non-empty tails; first segments keep their tables deferred).  It
//! is counted in
//! `kbt_engine_index_builds_total` when the tail is not empty, and from
//! then on each bulk append inserts its rows into it, as a single-row write
//! does.  Arity 0 and arity ≥ 3 (hashed keys, which do not sort like the
//! row) keep the chained tail from the start: the kind is a function of the
//! arity and of the first point write, removal or session delta, not a
//! knob.  [`IndexedRelation::member_bucket`], which walks ids, wants the
//! whole table demanded first — the first segment's and a chained tail —
//! so it is complete or absent, never partial.
//!
//! Once more than half the slots are dead the relation compacts itself: it
//! re-seats on its own contents, so the dead slots go and the live ones
//! are renumbered — the first segment's rows in order, then the delta's.
//! A first segment the contents still lie on keeps its tables, and
//! contents that fold are a fresh run the data crate writes (and counts
//! in its `kbt_data_rows_copied_total`); the engine itself never copies a
//! stored row.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::sync::Arc;

use kbt_data::relation::RowIter;
use kbt_data::{Const, Relation, Tuple};

use crate::fx::{self, FxBuild, KeyAcc};
use crate::metrics::metrics;

/// A set of bound columns: bit `i` set ⇔ column `i` is bound.
pub type Mask = u32;

/// The `u64` key of `row` projected onto the columns of `mask` (ascending
/// column order; packed or hashed per [`crate::fx`]).
#[inline]
pub fn mask_key(row: &[Const], mask: Mask) -> u64 {
    let mut acc = KeyAcc::new(mask.count_ones() as usize);
    let mut m = mask;
    while m != 0 {
        let col = m.trailing_zeros() as usize;
        acc.push(row[col]);
        m &= m - 1;
    }
    acc.finish()
}

/// The mask binding every column of an `arity`-ary row: its index is the
/// membership table.
fn full_mask(arity: usize) -> Mask {
    let unbound = Mask::BITS - arity.min(Mask::BITS as usize) as u32;
    Mask::MAX.checked_shr(unbound).unwrap_or(0)
}

/// The end of a chain in [`Chains::next`].
const NIL: u32 = u32::MAX;

/// Tuple ids bucketed by `u64` row key, every bucket a chain through one
/// id-indexed link array (see the module docs): the membership table and
/// every index are one of these, and no key owns a heap allocation.
#[derive(Clone, Debug)]
struct Chains {
    /// Key → the first and the last id of its bucket.
    heads: HashMap<u64, (u32, u32), FxBuild>,
    /// `next[id]` is the id after `id` in its bucket, or [`NIL`]; ids never
    /// pushed hold [`NIL`] too.
    next: Vec<u32>,
    /// The smallest and the largest key pushed (`lo > hi` while empty).
    lo: u64,
    hi: u64,
}

impl Default for Chains {
    fn default() -> Self {
        Chains {
            heads: HashMap::default(),
            next: Vec::new(),
            lo: u64::MAX,
            hi: 0,
        }
    }
}

impl Chains {
    /// Room for `keys` more keys and `ids` more ids.
    fn reserve(&mut self, keys: usize, ids: usize) {
        self.heads.reserve(keys);
        self.next.reserve(ids);
    }

    /// Appends `id` to the bucket of `key`.  Ids are pushed in ascending
    /// order, each at most once, so every bucket walks in ascending order.
    #[inline]
    fn push(&mut self, key: u64, id: u32) {
        debug_assert!(
            id as usize >= self.next.len(),
            "ids are pushed in ascending order"
        );
        self.next.resize(id as usize + 1, NIL);
        (self.lo, self.hi) = (self.lo.min(key), self.hi.max(key));
        match self.heads.entry(key) {
            Entry::Occupied(mut bucket) => {
                let (_, last) = bucket.get_mut();
                self.next[*last as usize] = id;
                *last = id;
            }
            Entry::Vacant(bucket) => {
                bucket.insert((id, id));
            }
        }
    }

    /// The ids of `key`'s bucket, first pushed first; a key outside the
    /// range of the keys pushed — any key, in a table with none — costs no
    /// lookup.  (A tail loaded from a stored relation's delta holds a few
    /// rows, often of one neighbourhood of the keys.)
    #[inline]
    fn walk(&self, key: u64) -> Walk<'_> {
        if key < self.lo || key > self.hi {
            return Walk::EMPTY;
        }
        Walk {
            next: &self.next,
            at: self.heads.get(&key).map_or(NIL, |&(first, _)| first),
        }
    }

    /// The heap bytes the table holds (the map's slots and control bytes,
    /// and the links).
    fn bytes(&self) -> u64 {
        let slot = std::mem::size_of::<(u64, (u32, u32))>() + 1;
        (self.heads.capacity() * slot + self.next.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// One chain of a [`Chains`] table being walked.
#[derive(Clone, Copy, Debug)]
struct Walk<'a> {
    next: &'a [u32],
    at: u32,
}

impl Walk<'_> {
    const EMPTY: Walk<'static> = Walk { next: &[], at: NIL };

    #[inline]
    fn step(&mut self) -> Option<u32> {
        let id = self.at;
        if id == NIL {
            return None;
        }
        self.at = self.next[id as usize];
        Some(id)
    }
}

/// The tail's membership while the relation is only appended to in bulk, at
/// an arity whose packed key is exact and sorts like the row (see the
/// module docs): the appended rows' keys as a stack of sorted, disjoint
/// levels, each more than twice the size of the one above it.
#[derive(Clone, Debug, Default)]
struct Levels {
    levels: Vec<Vec<u64>>,
}

/// An upper bound on the number of [`Levels`]: each level is more than
/// twice the size of the one above it, and a relation holds fewer than
/// 2³² slots.
const MAX_LEVELS: usize = 33;

impl Levels {
    /// Pushes the sorted keys of an appended run as a level, merging it
    /// with the level below while that one is at most twice what has been
    /// merged so far.
    fn push(&mut self, mut keys: Vec<u64>) {
        while let Some(below) = self.levels.last() {
            if below.len() > 2 * keys.len() {
                break;
            }
            let below = self.levels.pop().expect("just looked at");
            keys = merge_disjoint(below, keys);
        }
        self.levels.push(keys);
        assert!(
            self.levels.len() <= MAX_LEVELS,
            "a cursor has a finger per level"
        );
    }

    /// Whether some level holds `key` (a binary search per level).
    fn contains(&self, key: u64) -> bool {
        self.levels
            .iter()
            .any(|level| level.binary_search(&key).is_ok())
    }
}

/// Merges two sorted, disjoint key vectors into one, in place in `a`.
fn merge_disjoint(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    let (mut i, mut j) = (a.len(), b.len());
    a.reserve_exact(j);
    a.resize(i + j, 0);
    // fill from the back: the slots past `i + j` are already final
    while j > 0 {
        if i > 0 && a[i - 1] > b[j - 1] {
            a[i + j - 1] = a[i - 1];
            i -= 1;
        } else {
            a[i + j - 1] = b[j - 1];
            j -= 1;
        }
    }
    a
}

/// The tail's membership table (see the module docs).
#[derive(Clone, Debug)]
enum TailMembership {
    /// Sorted levels of packed keys: at arity 1 and 2, until the first
    /// point write or removal, [`IndexedRelation::ensure_membership`] or
    /// session delta.
    Levels(Levels),
    /// A chained table by tail-local id: every other arity, and every
    /// relation once something asked for a row by key.
    Chains(Chains),
}

impl TailMembership {
    /// The empty table a relation of `arity` starts with.
    fn for_arity(arity: usize) -> Self {
        if arity > 0 && fx::key_is_exact(arity) {
            TailMembership::Levels(Levels::default())
        } else {
            TailMembership::Chains(Chains::default())
        }
    }
}

/// The first position at or after `from` in `0..len` whose key is not
/// below `key`, where every position before `from` holds a key below it:
/// a gallop forward in doubling steps, then a binary search of the last
/// step.
#[inline]
fn gallop(len: usize, from: usize, key: u64, at: &impl Fn(usize) -> u64) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < len && at(hi) < key {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(len);
    lo + partition(0, (hi - lo) as u32, |i| at(lo + i as usize) < key) as usize
}

/// A per-task membership lookup over one relation — what the fixpoint
/// filter asks (see the module docs).  While the relation is sorted it
/// keeps one finger on the first segment and one per tail level, each at
/// the first key not below the last one looked up: a key at or above it
/// gallops forward from there, a smaller one binary-searches back.  Once
/// the relation is chained it is [`IndexedRelation::contains_row`].
#[derive(Debug)]
pub struct MemberCursor<'a> {
    relation: &'a IndexedRelation,
    /// The levels to search, `None` once the tail is chained.
    levels: Option<&'a [Vec<u64>]>,
    /// The last key looked up.
    last: u64,
    /// The first segment's finger.
    seg: usize,
    /// One finger per level.
    fingers: [usize; MAX_LEVELS],
}

impl MemberCursor<'_> {
    /// Whether the relation holds `row` (of the relation's arity).
    #[inline]
    pub fn contains(&mut self, row: &[Const]) -> bool {
        let Some(levels) = self.levels else {
            return self.relation.contains_row(row);
        };
        let key = fx::row_key(row);
        let forward = key >= self.last;
        self.last = key;
        // the keys are disjoint, but every finger moves to the new key; a
        // first-segment row a load tombstoned is not found
        let seg = &self.relation.seg;
        let mut found = seek(&mut self.seg, seg.len(), key, forward, |i| {
            fx::row_key(seg.row(i))
        }) && self.relation.is_live(self.seg as u32);
        for (level, finger) in levels.iter().zip(&mut self.fingers) {
            found |= seek(finger, level.len(), key, forward, |i| level[i]);
        }
        found
    }
}

/// Moves `finger` — the first position in `0..len` whose key is not below
/// the previous key looked up — to the first one not below `key`, by a
/// gallop forward or, when `key` is smaller, a binary search back; returns
/// whether the key there is `key`.
#[inline]
fn seek(
    finger: &mut usize,
    len: usize,
    key: u64,
    forward: bool,
    at: impl Fn(usize) -> u64,
) -> bool {
    *finger = if forward {
        gallop(len, *finger, key, &at)
    } else {
        partition(0, *finger as u32, |i| at(i as usize) < key) as usize
    };
    *finger < len && at(*finger) == key
}

/// The table of one mask over one stored run, cached on the run (see the
/// module docs): built once by whichever holder of the run asks first,
/// freed with the run.  While it lives its bytes are counted in
/// `kbt_engine_shared_index_bytes`.
#[derive(Debug)]
struct RunIndex {
    table: RunTable,
    bytes: u64,
}

/// What a [`RunIndex`] holds.
#[derive(Debug)]
enum RunTable {
    /// A chained table of one mask.
    Chains(Chains),
    /// The run's first-column offsets (see the module docs), serving every
    /// mask [`RunIndex::offsets_serve`] admits: `starts[c - lo] ..
    /// starts[c - lo + 1]` are the slots whose column 0 is `c`.
    Offsets {
        /// The smallest first-column value.
        lo: u32,
        /// One start slot per first-column value in `lo..=hi`, then the
        /// run's length.
        starts: Vec<u32>,
    },
}

/// How far a run's first column may spread before offsets stop paying:
/// its span is at most this many times the run's rows (see the module
/// docs)…
const DENSE_SPAN_PER_ROW: u64 = 4;
/// …plus this much, so that tiny runs always qualify.
const DENSE_SPAN_SLACK: u64 = 16;

/// The cache key of a run's offsets: the empty mask, which is a scan and
/// never has a table of its own.
const OFFSETS_KEY: Mask = 0;

impl RunIndex {
    /// The table of `mask` over the first segment `run` (`None` while it
    /// is empty), fetched from the run — built there now if no holder of
    /// the run has asked for it before.  Where they serve the mask, that is
    /// the run's offsets, one table for all of their masks.
    fn of(run: &Relation, mask: Mask) -> Option<Arc<RunIndex>> {
        if run.is_empty() {
            None
        } else if RunIndex::offsets_serve(run, mask) {
            Some(run.cached(OFFSETS_KEY, RunIndex::offsets))
        } else {
            Some(run.cached(mask, |run| RunIndex::chains(run, mask)))
        }
    }

    /// Whether the offsets of `run`, a non-empty run, answer `mask`: a
    /// prefix of one or two columns, over a dense first column.
    fn offsets_serve(run: &Relation, mask: Mask) -> bool {
        let prefix = mask == 0b1 || (mask == 0b11 && run.arity() >= 2);
        prefix && {
            let (lo, hi) = (run.row(0)[0].index(), run.row(run.len() - 1)[0].index());
            u64::from(hi - lo) < DENSE_SPAN_PER_ROW * run.len() as u64 + DENSE_SPAN_SLACK
        }
    }

    /// Builds the chained table of `mask` over `run`, a non-empty run and
    /// not a flag: a zero-arity run has no rows to key its cache by.
    fn chains(run: &Relation, mask: Mask) -> RunIndex {
        debug_assert!(run.arity() > 0 && !run.is_empty());
        let keys = if mask == full_mask(run.arity()) {
            run.len()
        } else {
            0
        };
        let mut chains = Chains::default();
        chains.reserve(keys, run.len());
        for (id, row) in (0..).zip(run.iter()) {
            chains.push(mask_key(row, mask), id);
        }
        let bytes = chains.bytes();
        RunIndex::counted(RunTable::Chains(chains), bytes)
    }

    /// Builds `run`'s offsets, in one pass over its first column.
    fn offsets(run: &Relation) -> RunIndex {
        let lo = run.row(0)[0].index();
        let span = (run.row(run.len() - 1)[0].index() - lo) as usize + 1;
        let mut starts = Vec::with_capacity(span + 1);
        for (slot, row) in (0..).zip(run.iter()) {
            let value = (row[0].index() - lo) as usize;
            while starts.len() <= value {
                starts.push(slot);
            }
        }
        starts.push(run.len() as u32);
        let bytes = (starts.capacity() * std::mem::size_of::<u32>()) as u64;
        RunIndex::counted(RunTable::Offsets { lo, starts }, bytes)
    }

    /// `table`, counted as one build holding `bytes`.
    fn counted(table: RunTable, bytes: u64) -> RunIndex {
        let metrics = metrics();
        metrics.index_builds_total.inc();
        metrics.shared_index_bytes.add(bytes);
        RunIndex { table, bytes }
    }

    /// The segment's share of a bucket of `key` on `mask`: the slots of
    /// `run` — the run this table was built over — that the offsets hold
    /// for it (the first column's range, narrowed by binary search on the
    /// second for `0b11`), or the chain a chained table holds.
    #[inline]
    fn bucket<'a>(&'a self, run: &Relation, mask: Mask, key: u64) -> (Range<u32>, Walk<'a>) {
        let (lo, starts) = match &self.table {
            RunTable::Chains(chains) => return (0..0, chains.walk(key)),
            RunTable::Offsets { lo, starts } => (*lo, starts),
        };
        let (c0, c1) = match Const::unpack_from(key) {
            (c0, _) if mask == 0b1 => (c0, None),
            (c1, rest) => (Const::unpack_from(rest).0, Some(c1)),
        };
        let Some(&[start, end]) = (c0.index().checked_sub(lo))
            .and_then(|value| starts.get(value as usize..value as usize + 2))
        else {
            return (0..0, Walk::EMPTY);
        };
        let slots = match c1 {
            None => start..end,
            Some(c1) => narrow(run, start..end, c1),
        };
        (slots, Walk::EMPTY)
    }
}

/// The slots of `range` — rows of `run` that agree on their first column,
/// and so are sorted on their second — whose second column is `c1`.
fn narrow(run: &Relation, range: Range<u32>, c1: Const) -> Range<u32> {
    let first = partition(range.start, range.end, |slot| {
        run.row(slot as usize)[1] < c1
    });
    first..partition(first, range.end, |slot| run.row(slot as usize)[1] <= c1)
}

impl Drop for RunIndex {
    fn drop(&mut self) {
        metrics().shared_index_bytes.sub(self.bytes);
    }
}

/// The first slot in `lo..hi` at which `below` turns false (`below` holds
/// on a prefix of the range).
#[inline]
fn partition(mut lo: u32, mut hi: u32, below: impl Fn(u32) -> bool) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A demanded index: the first segment's table (`None` while the segment
/// is empty) and the tail's, keyed by tail-local ids.
#[derive(Clone, Debug)]
struct Index {
    mask: Mask,
    seg: Option<Arc<RunIndex>>,
    tail: Chains,
}

/// The first segment's membership table.
#[derive(Clone, Debug)]
enum SegMembership {
    /// Not fetched: an unwritten load, whose first segment answers
    /// membership by binary search (and its tombstones, for the rows the
    /// loaded relation's delta deletes).
    Deferred,
    /// Fetched (`None`: the segment is empty).
    Ready(Option<Arc<RunIndex>>),
}

/// A borrowed walk over one bucket of a relation's membership table or of
/// one of its indexes: the first segment's slot range or chain, then the
/// tail's chain, in ascending id order, skipping tombstones; it allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct Bucket<'a> {
    /// The first segment's slots, where its offsets answer the bucket.
    slots: Range<u32>,
    seg: Walk<'a>,
    tail: Walk<'a>,
    /// The first tail id (tail chains hold tail-local ids).
    offset: u32,
    dead: &'a [u64],
}

impl Iterator for Bucket<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            let id = match self.slots.next().or_else(|| self.seg.step()) {
                Some(id) => id,
                None => self.tail.step()? + self.offset,
            };
            if is_live_in(self.dead, id) {
                return Some(id);
            }
        }
    }
}

/// Whether `id` is live under the tombstone bitset `dead` (ids past its end
/// are).
#[inline]
fn is_live_in(dead: &[u64], id: u32) -> bool {
    dead.get(id as usize / 64)
        .is_none_or(|word| word & (1 << (id % 64)) == 0)
}

/// A relation stored as a shared first segment and a private tail, with
/// an index per demanded binding pattern (see the module docs for the
/// layout, how it knows its contents in order, and where its indexes and
/// membership table live).
#[derive(Clone, Debug)]
pub struct IndexedRelation {
    arity: usize,
    /// The first segment: slot `i < seg.len()` is `seg.row(i)` — the base
    /// run of the relation last seated.  Always empty at arity 0, whose
    /// slots all live in the tail.
    seg: Relation,
    /// The tail arena: slot `seg.len() + i` occupies
    /// `tail[i*arity..][..arity]` (always empty for arity 0).
    tail: Vec<Const>,
    /// Number of slots, live and tombstoned, in both segments.
    slots: u32,
    /// One bit per slot, set = tombstone; empty until the first removal,
    /// and slots past its end are live.
    dead_bits: Vec<u64>,
    /// Number of tombstones.
    dead: usize,
    /// Number of live tuples (`slots - dead`).
    live_count: usize,
    /// The first segment's membership table.
    seg_ids: SegMembership,
    /// The tail's membership table: sorted key levels or, once something
    /// asked for a row by key, a chained table by tail-local id.
    tail_ids: TailMembership,
    /// One index per demanded mask.
    indexes: Vec<Index>,
    /// The slots of every sorted run in the tail that may still hold a
    /// live row — a single-row insert is a run of one, and rows in them
    /// may have been tombstoned again.
    runs: Vec<Range<u32>>,
    /// The relation last seated on or handed out, while nothing has been
    /// written since.
    current: Option<Relation>,
}

impl IndexedRelation {
    /// An empty indexed relation of the given arity.
    pub fn new(arity: usize) -> Self {
        IndexedRelation::from_relation(&Relation::empty(arity))
    }

    /// Wraps a stored relation — a load, seated as a snapshot re-seats (see
    /// the module docs): the relation's base run becomes the first segment
    /// (an `Arc` clone, nothing copied), its delta's adds the tail and its
    /// dels tombstones in the segment; nothing is hashed.  Until the first
    /// write the segment answers membership by binary search, and
    /// [`Self::to_relation`] hands the relation back.
    pub fn from_relation(relation: &Relation) -> Self {
        IndexedRelation::seated(relation.clone(), Vec::new(), false)
    }

    /// Re-seats the relation on `relation`, keeping what it demanded: its
    /// own live rows for a snapshot or a compaction (see the module docs),
    /// or the contents a resumed incremental session already derived
    /// ([`crate::IncrementalSession::from_fixpoint`]).
    pub(crate) fn seat(&mut self, relation: Relation) {
        let indexes = std::mem::take(&mut self.indexes);
        *self = IndexedRelation::seated(relation, indexes, self.has_membership());
    }

    /// `relation` taken apart (see the module docs): its base run the
    /// first segment, its delta the tail and the tombstones, and the
    /// segment tables of `indexes` — and of the full row if `membership`,
    /// deferred otherwise — fetched from the run.  A flag relation has no
    /// rows to share, so its slot goes in the tail.
    fn seated(relation: Relation, indexes: Vec<Index>, membership: bool) -> Self {
        let arity = relation.arity();
        let seg = if arity > 0 {
            relation.base()
        } else {
            Relation::empty(0)
        };
        let mut seated = IndexedRelation {
            arity,
            tail: Vec::new(),
            slots: seg.len() as u32,
            dead_bits: Vec::new(),
            dead: 0,
            live_count: seg.len(),
            seg_ids: if membership {
                SegMembership::Ready(RunIndex::of(&seg, full_mask(arity)))
            } else {
                SegMembership::Deferred
            },
            tail_ids: TailMembership::for_arity(arity),
            indexes: (indexes.into_iter())
                .map(|Index { mask, .. }| Index {
                    mask,
                    seg: RunIndex::of(&seg, mask),
                    tail: Chains::default(),
                })
                .collect(),
            runs: Vec::new(),
            current: None,
            seg,
        };
        // (a flag's delta is empty)
        let (adds, dels) = relation.delta();
        for row in dels.chunks_exact(arity.max(1)) {
            let id = (seated.seg.position(row)).expect("a delta deletes rows of its base");
            seated.tombstone(id as u32);
        }
        // what is left are the adds (or a flag's row, which has none)
        seated.append_rows(adds, relation.len() - seated.live_count);
        seated.current = Some(relation);
        seated
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (live) tuples.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Whether the tuple is present (one hash probe per segment plus
    /// verification, or binary searches while the relation is sorted — its
    /// first segment's membership table deferred, its tail in levels).
    pub fn contains(&self, t: &Tuple) -> bool {
        t.arity() == self.arity && self.contains_row(t.components())
    }

    /// [`Self::contains`] for a raw row slice.
    #[inline]
    pub fn contains_row(&self, row: &[Const]) -> bool {
        match &self.tail_ids {
            // sorted: no table on the first segment, and no tombstone but
            // those a load set there
            TailMembership::Levels(levels) => {
                self.seg_holds(row) || levels.contains(fx::row_key(row))
            }
            TailMembership::Chains(_) => self.find_live_id(row).is_some(),
        }
    }

    /// Whether a live first-segment slot holds `row`, by binary search.
    #[inline]
    fn seg_holds(&self, row: &[Const]) -> bool {
        self.seg
            .position(row)
            .is_some_and(|id| self.is_live(id as u32))
    }

    /// A membership cursor for a run of lookups from one task (see
    /// [`MemberCursor`]): the fixpoint filter's.
    pub fn member_cursor(&self) -> MemberCursor<'_> {
        let levels = match &self.tail_ids {
            TailMembership::Levels(levels) => Some(&levels.levels[..]),
            TailMembership::Chains(_) => None,
        };
        MemberCursor {
            relation: self,
            levels,
            last: 0,
            seg: 0,
            fingers: [0; MAX_LEVELS],
        }
    }

    /// The live id holding `row`, once the tail is chained.
    #[inline]
    fn find_live_id(&self, row: &[Const]) -> Option<u32> {
        debug_assert_eq!(row.len(), self.arity);
        let key = fx::row_key(row);
        let mut bucket = match (&self.seg_ids, &self.tail_ids) {
            // a deferred first segment has no table: a binary search, then
            // the tail's chain
            (SegMembership::Deferred, TailMembership::Chains(tail)) => {
                match self.seg.position(row).map(|id| id as u32) {
                    Some(id) if self.is_live(id) => return Some(id),
                    _ => self.bucket(None, full_mask(self.arity), tail.walk(key), key),
                }
            }
            _ => self.member_bucket(key),
        };
        if fx::key_is_exact(self.arity) {
            // packed keys are injective over the full row: any live
            // occupant is a true match
            bucket.next()
        } else {
            bucket.find(|&id| self.row(id) == row)
        }
    }

    /// Iterates over the live rows in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &[Const]> + '_ {
        (0..self.slots)
            .filter(|&id| self.is_live(id))
            .map(|id| self.row(id))
    }

    /// Iterates over the live rows as owned [`Tuple`]s — boundary
    /// convenience; hot paths use [`Self::iter`] row slices.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.iter().map(Tuple::from_row)
    }

    /// The number of first-segment slots (the first tail id).
    #[inline]
    pub(crate) fn seg_slots(&self) -> u32 {
        self.seg.len() as u32
    }

    /// The row with the given id (a position returned by a probe); ids of
    /// tombstoned slots still resolve until the next compaction.
    #[inline]
    pub fn row(&self, id: u32) -> &[Const] {
        let seg_slots = self.seg_slots();
        if id < seg_slots {
            self.seg.row(id as usize)
        } else {
            let start = (id - seg_slots) as usize * self.arity;
            &self.tail[start..start + self.arity]
        }
    }

    /// Number of tuple slots, live and tombstoned (the valid id range is
    /// `0..slot_count()`).  The parallel evaluator chunks a driving scan by
    /// splitting this range; iterating a subrange with [`Self::is_live`]
    /// filtering visits exactly the rows [`Self::iter`] would, in the same
    /// order.
    pub fn slot_count(&self) -> u32 {
        self.slots
    }

    /// Whether the tuple with the given id is still live.  Scans filter
    /// through this; bucket walks already do.
    #[inline]
    pub fn is_live(&self, id: u32) -> bool {
        is_live_in(&self.dead_bits, id)
    }

    /// Inserts a tuple; returns `true` if it was not already present.  The
    /// tuple's arity must match.
    pub fn insert(&mut self, t: Tuple) -> bool {
        debug_assert_eq!(t.arity(), self.arity, "arity checked by the caller");
        self.insert_row(t.components())
    }

    /// [`Self::insert`] for a raw row slice: the checked single-row write
    /// (extensional deltas, rederivation).  Appends a run of one to the
    /// tail and updates every index, with no per-tuple boxing.
    pub fn insert_row(&mut self, row: &[Const]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        if self.contains_row(row) {
            return false;
        }
        let local = self.slots - self.seg_slots();
        self.chains_mut().push(fx::row_key(row), local);
        self.tail.extend_from_slice(row);
        self.slots += 1;
        self.live_count += 1;
        for index in &mut self.indexes {
            index.tail.push(mask_key(row, index.mask), local);
        }
        self.runs.push(self.slots - 1..self.slots);
        self.current = None;
        true
    }

    /// Appends a whole run in one go — the unchecked bulk write behind the
    /// fixpoint's commit.  `run` is sorted and duplicate-free by type; the
    /// caller guarantees that **none of its rows is present** (the commit
    /// filters the round's derivations against this very relation, and
    /// nothing writes in between — see [`crate::eval`]).  One tail extend,
    /// then the run's keys pushed as one sorted level while the tail is
    /// sorted (a membership insert per row once it is chained), and one
    /// bucket push per index per row; no second lookup.  The run's end is
    /// recorded for the merge that materialises the relation.
    ///
    /// Appending a row that is present is a caller bug: debug builds assert,
    /// release builds find out in [`Self::to_relation`], whose merged run
    /// fails verification or comes out shorter than the live count.
    pub fn append_run(&mut self, run: &Relation) {
        debug_assert_eq!(run.arity(), self.arity);
        debug_assert!(run.is_flat(), "a round's run is one sorted run");
        self.append_rows(run.as_rows(), run.len());
    }

    /// [`Self::append_run`] for a raw sorted run of `len` rows (empty for
    /// arity 0, where `len` counts empty tuples).
    fn append_rows(&mut self, rows: &[Const], len: usize) {
        let run = || RowIter::over(rows, self.arity, len);
        debug_assert!(
            // `contains_row` compares rows, so a hashed-key collision with a
            // stored row does not read as "present"
            run().all(|row| !self.contains_row(row)),
            "bulk-appended rows must be absent from the relation"
        );
        if len == 0 {
            return;
        }
        let first = self.slots - self.seg_slots();
        match &mut self.tail_ids {
            // packed keys sort like the rows: the run's keys are a level
            TailMembership::Levels(levels) => levels.push(run().map(fx::row_key).collect()),
            TailMembership::Chains(chains) => {
                chains.reserve(len, len);
                for (local, row) in (first..).zip(run()) {
                    chains.push(fx::row_key(row), local);
                }
            }
        }
        self.tail.extend_from_slice(rows);
        self.runs.push(self.slots..self.slots + len as u32);
        self.slots += len as u32;
        self.live_count += len;
        for index in &mut self.indexes {
            index.tail.reserve(0, len);
            for (local, row) in (first..).zip(run()) {
                index.tail.push(mask_key(row, index.mask), local);
            }
        }
        self.current = None;
    }

    /// Removes a tuple, returning `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if t.arity() != self.arity {
            return false;
        }
        self.remove_row(t.components())
    }

    /// [`Self::remove`] for a raw row slice.  The slot becomes a tombstone,
    /// in either segment; the tables keep it until compaction, which runs
    /// automatically once tombstones outnumber live rows.
    pub fn remove_row(&mut self, row: &[Const]) -> bool {
        // a miss is not a write: a sorted tail switches only for a hit
        if self.is_sorted() && !self.contains_row(row) {
            return false;
        }
        self.chain_tail();
        let Some(id) = self.find_live_id(row) else {
            return false;
        };
        self.demand_membership();
        self.tombstone(id);
        if self.dead * 2 > self.slots as usize {
            self.compact();
        }
        true
    }

    /// Marks the live slot `id` dead.
    fn tombstone(&mut self, id: u32) {
        let word = id as usize / 64;
        if self.dead_bits.len() <= word {
            self.dead_bits.resize(word + 1, 0);
        }
        self.dead_bits[word] |= 1 << (id % 64);
        self.dead += 1;
        self.live_count -= 1;
        self.current = None;
    }

    /// Re-seats the relation on its own contents (see the module docs):
    /// slots are renumbered, the dead ones dropped, and a first segment
    /// the contents still lie on keeps its tables.
    fn compact(&mut self) {
        let contents = self.materialise();
        self.seat(contents);
    }

    /// A table of `mask` over the live tail rows — one build, counted as
    /// such unless the tail is empty.  The full mask reserves a key per
    /// slot: live rows are distinct, and the tail it is built over — a
    /// sorted one switching — holds no tombstone.
    fn tail_chains(&self, mask: Mask) -> Chains {
        let (seg_slots, tail_slots) = (self.seg_slots(), self.slots - self.seg_slots());
        let mut chains = Chains::default();
        if tail_slots == 0 {
            return chains;
        }
        let keys = if mask == full_mask(self.arity) {
            tail_slots as usize
        } else {
            0
        };
        chains.reserve(keys, tail_slots as usize);
        for local in 0..tail_slots {
            let id = seg_slots + local;
            if self.is_live(id) {
                chains.push(mask_key(self.row(id), mask), local);
            }
        }
        metrics().index_builds_total.inc();
        chains
    }

    /// Fetches the first segment's membership table if a load deferred it
    /// (see the module docs) — built now if no holder of the run has built
    /// it before.  Called by the demand pass for every relation a
    /// `Member` step targets, and by
    /// [`Self::ensure_membership`].
    pub fn demand_membership(&mut self) {
        if let SegMembership::Deferred = self.seg_ids {
            self.seg_ids = SegMembership::Ready(RunIndex::of(&self.seg, full_mask(self.arity)));
        }
    }

    /// Makes the membership table complete, so that rows can be found by
    /// id (see the module docs): demands the first segment's
    /// ([`Self::demand_membership`]) and switches a sorted tail to its
    /// chained table.  Called by every point write; a removal does the
    /// same around its lookup.
    pub fn ensure_membership(&mut self) {
        self.demand_membership();
        self.chain_tail();
    }

    /// Switches a sorted tail to its chained table, built in one pass over
    /// the arena and counted as a build unless the tail is empty; the first
    /// segment's table stays as it is.  Called by
    /// [`Self::ensure_membership`], by a removal that hits, and by the
    /// incremental session before a delta for every tail the fixpoint left
    /// sorted.
    pub(crate) fn chain_tail(&mut self) {
        if let TailMembership::Levels(_) = self.tail_ids {
            self.tail_ids = TailMembership::Chains(self.tail_chains(full_mask(self.arity)));
        }
    }

    /// The tail's chained membership table, switched to first.
    fn chains_mut(&mut self) -> &mut Chains {
        self.ensure_membership();
        match &mut self.tail_ids {
            TailMembership::Chains(chains) => chains,
            TailMembership::Levels(_) => unreachable!("ensure_membership chains the tail"),
        }
    }

    /// Whether the first segment's membership table has been fetched — not
    /// deferred (for tests and diagnostics).  [`Self::member_bucket`] also
    /// wants the tail chained: not [`Self::is_sorted`].
    pub fn has_membership(&self) -> bool {
        matches!(self.seg_ids, SegMembership::Ready(_))
    }

    /// Whether the tail keeps its membership in sorted levels — the
    /// relation has only been appended to in bulk (for tests and
    /// diagnostics).
    pub fn is_sorted(&self) -> bool {
        matches!(self.tail_ids, TailMembership::Levels(_))
    }

    /// Demands the index for `mask`: the first segment's is fetched from
    /// its run (built there if no holder of the run has built it before),
    /// the tail's is built over the tail rows.
    pub fn ensure_index(&mut self, mask: Mask) {
        if mask == 0 || self.indexes.iter().any(|index| index.mask == mask) {
            return;
        }
        let seg = RunIndex::of(&self.seg, mask);
        let tail = self.tail_chains(mask);
        self.indexes.push(Index { mask, seg, tail });
    }

    /// A bucket of `key` on `mask` over the first segment's table `seg`,
    /// then the tail's chain `tail` of the same key.
    #[inline]
    fn bucket<'a>(
        &'a self,
        seg: Option<&'a RunIndex>,
        mask: Mask,
        tail: Walk<'a>,
        key: u64,
    ) -> Bucket<'a> {
        let (slots, seg) = match seg {
            Some(index) => index.bucket(&self.seg, mask, key),
            None => (0..0, Walk::EMPTY),
        };
        Bucket {
            slots,
            seg,
            tail,
            offset: self.seg_slots(),
            dead: &self.dead_bits,
        }
    }

    /// The live ids of a probe key on `mask` (compute the key with
    /// [`KeyAcc`] / [`mask_key`]), in ascending id order — the order the
    /// rows were stored in.  For hashed (> 2 column) keys the bucket may
    /// hold false positives: verify the bound columns against
    /// [`Self::row`].  The index for `mask` must have been demanded with
    /// [`Self::ensure_index`] beforehand — the planner collects every mask a
    /// plan needs, so a missing index is an engine bug, not a user error.
    #[inline]
    pub fn probe_bucket(&self, mask: Mask, key: u64) -> Bucket<'_> {
        let index = self
            .indexes
            .iter()
            .find(|index| index.mask == mask)
            .expect("index demanded by the planner before evaluation");
        self.bucket(index.seg.as_deref(), mask, index.tail.walk(key), key)
    }

    /// The live ids of a full-row key (for hashed keys — arity > 2 — verify
    /// candidates against [`Self::row`]).  The complete membership table
    /// must have been demanded first — with [`Self::ensure_membership`] or
    /// by a point write or removal — for the first segment of a load and
    /// for a tail that was only bulk-appended to alike.
    #[inline]
    pub fn member_bucket(&self, key: u64) -> Bucket<'_> {
        let (SegMembership::Ready(seg), TailMembership::Chains(tail)) =
            (&self.seg_ids, &self.tail_ids)
        else {
            panic!("membership table demanded by ensure_membership or a point write");
        };
        self.bucket(seg.as_deref(), full_mask(self.arity), tail.walk(key), key)
    }

    /// Whether a live row has the full-row key `key` and passes `matches`
    /// (which verifies the candidates of a hashed key) — the lookup behind
    /// a plan's `Member` steps.  The first segment's table
    /// must have been demanded with [`Self::demand_membership`]; the tail
    /// answers from its chained table, or from its sorted levels, which
    /// only exist where keys are exact.
    #[inline]
    pub fn holds_key(&self, key: u64, mut matches: impl FnMut(&[Const]) -> bool) -> bool {
        let SegMembership::Ready(seg) = &self.seg_ids else {
            panic!("membership table demanded by the plan's demand pass");
        };
        let tail = match &self.tail_ids {
            TailMembership::Chains(chains) => chains.walk(key),
            TailMembership::Levels(levels) if levels.contains(key) => return true,
            TailMembership::Levels(_) => Walk::EMPTY,
        };
        self.bucket(seg.as_deref(), full_mask(self.arity), tail, key)
            .any(|id| matches(self.row(id)))
    }

    /// Diagnostic probe: the live ids whose projection onto `mask` equals
    /// `key`, verified against the rows.  Tests and one-off lookups only —
    /// the evaluator uses [`Self::probe_bucket`] with an incrementally
    /// computed key and allocates nothing.
    pub fn probe(&self, mask: Mask, key: &[Const]) -> Vec<u32> {
        let mut acc = KeyAcc::new(key.len());
        for &c in key {
            acc.push(c);
        }
        self.probe_bucket(mask, acc.finish())
            .filter(|&id| {
                let row = self.row(id);
                let mut m = mask;
                let mut k = 0;
                while m != 0 {
                    let col = m.trailing_zeros() as usize;
                    if row[col] != key[k] {
                        return false;
                    }
                    k += 1;
                    m &= m - 1;
                }
                true
            })
            .collect()
    }

    /// Number of demanded indexes (for tests and diagnostics).
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Number of tombstoned slots (for tests and diagnostics).
    pub fn tombstone_count(&self) -> usize {
        self.dead
    }

    /// The `len` live rows of the tail's runs, merged into one sorted,
    /// arity-strided buffer (live rows are distinct, so it is
    /// duplicate-free).
    fn merged_tail(&self, len: usize) -> Vec<Const> {
        let next_live = |slot: u32, end: u32| (slot..end).find(|&s| self.is_live(s));
        // (next live slot, end slot) per run that has a live row left
        let mut cursors: Vec<(u32, u32)> = (self.runs.iter())
            .filter_map(|run| Some((next_live(run.start, run.end)?, run.end)))
            .collect();
        let mut heap: BinaryHeap<Reverse<(&[Const], usize)>> = cursors
            .iter()
            .enumerate()
            .map(|(run, &(next, _))| Reverse((self.row(next), run)))
            .collect();
        let mut merged = Vec::with_capacity(len * self.arity);
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((row, run)) = *top;
            merged.extend_from_slice(row);
            let (next, end) = &mut cursors[run];
            match next_live(*next + 1, *end) {
                Some(slot) => {
                    *next = slot;
                    *top = Reverse((self.row(slot), run));
                }
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        merged
    }

    /// The tombstoned first-segment slots, in slot order — which is row
    /// order, the segment being a sorted run.
    fn seg_dead(&self) -> impl Iterator<Item = u32> + '_ {
        let seg_slots = self.seg_slots();
        (0u32..)
            .zip(&self.dead_bits)
            .take(seg_slots.div_ceil(64) as usize)
            .filter(|&(_, &bits)| bits != 0)
            .flat_map(|(word, &bits)| {
                (0..64)
                    .filter(move |bit| bits >> bit & 1 != 0)
                    .map(move |bit| word * 64 + bit)
            })
            .take_while(move |&id| id < seg_slots)
    }

    /// The one way the relation becomes a [`Relation`] (see the module
    /// docs): the relation last seated on or handed out while nothing was
    /// written since, and otherwise the first segment with the tail's
    /// live rows added and its own dead rows deleted, in one merge.
    fn materialise(&self) -> Relation {
        if let Some(current) = &self.current {
            return current.clone();
        }
        if self.arity == 0 {
            return Relation::from_rows(0, Vec::new(), self.live_count).expect("flag relation");
        }
        let arity = self.arity;
        let dels: Vec<Const> = (self.seg_dead())
            .flat_map(|id| self.row(id))
            .copied()
            .collect();
        let tail_live = self.live_count + dels.len() / arity - self.seg.len();
        let contents = self
            .seg
            .merge_run(self.merged_tail(tail_live), &dels)
            .expect("every tail run is sorted and disjoint from the live rows before it");
        debug_assert_eq!(
            contents.len(),
            self.live_count,
            "the first segment and the tail do not add up to the live rows"
        );
        if contents.len() == self.live_count {
            return contents;
        }
        // never serve a mismatch: sort the live rows, which needs no
        // bookkeeping at all
        let mut buf = Vec::with_capacity(self.live_count * arity);
        for row in self.iter() {
            buf.extend_from_slice(row);
        }
        Relation::from_rows(arity, buf, self.live_count)
            .expect("the rows are arity-strided by construction")
    }

    /// The live contents as a plain relation, in canonical order: `O(1)`
    /// when nothing was written since the load or the last
    /// [`Self::snapshot`], otherwise one merge of the tail and the first
    /// segment's tombstones into it (see the module docs).  (Callers
    /// holding `&mut self` and coming back for more should prefer
    /// [`Self::snapshot`], which remembers the result.)
    pub fn to_relation(&self) -> Relation {
        self.materialise()
    }

    /// [`Self::to_relation`], remembered until the next write — and, when
    /// the merge landed on a new base run (a fold, or the first snapshot
    /// of a relation derived from scratch), re-seated on: the first
    /// segment becomes that run, with the tables the relation demanded
    /// fetched from it, so the relation and every reader of the snapshot
    /// share them, and the tail shrinks to the snapshot's delta.  The
    /// snapshot handed out is never disturbed by later mutations.
    pub fn snapshot(&mut self) -> Relation {
        let contents = self.materialise();
        if contents.base().shares_rows(&self.seg) {
            self.current = Some(contents.clone());
            // the next merge walks only runs that add something
            let dead = &self.dead_bits;
            self.runs
                .retain(|run| run.clone().any(|slot| is_live_in(dead, slot)));
        } else {
            self.seat(contents.clone());
        }
        contents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::tuple;

    fn sample() -> IndexedRelation {
        let mut r = IndexedRelation::new(2);
        r.insert(tuple![1, 2]);
        r.insert(tuple![1, 3]);
        r.insert(tuple![2, 3]);
        r
    }

    #[test]
    fn insert_deduplicates_and_tracks_membership() {
        let mut r = sample();
        assert!(!r.insert(tuple![1, 2]));
        assert_eq!(r.len(), 3);
        assert!(r.contains(&tuple![2, 3]));
        assert!(!r.contains(&tuple![3, 2]));
    }

    #[test]
    fn probe_by_first_column() {
        let mut r = sample();
        r.ensure_index(0b01);
        let hits = r.probe(0b01, &[Const::new(1)]);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|&id| r.row(id)[0] == Const::new(1)));
        assert!(r.probe(0b01, &[Const::new(9)]).is_empty());
    }

    #[test]
    fn probe_by_second_column() {
        let mut r = sample();
        r.ensure_index(0b10);
        assert_eq!(r.probe(0b10, &[Const::new(3)]).len(), 2);
        assert_eq!(r.probe(0b10, &[Const::new(2)]).len(), 1);
    }

    #[test]
    fn indexes_are_maintained_across_inserts() {
        let mut r = sample();
        r.ensure_index(0b01);
        r.insert(tuple![1, 9]);
        assert_eq!(r.probe(0b01, &[Const::new(1)]).len(), 3);
    }

    #[test]
    fn ensure_index_is_lazy_and_idempotent() {
        let mut r = sample();
        assert_eq!(r.index_count(), 0);
        r.ensure_index(0b01);
        r.ensure_index(0b01);
        r.ensure_index(0); // the empty mask is a scan, never an index
        assert_eq!(r.index_count(), 1);
    }

    #[test]
    fn rows_live_in_one_arena() {
        let r = sample();
        assert_eq!(r.slot_count(), 3);
        assert_eq!(r.row(1), &[Const::new(1), Const::new(3)]);
        let rows: Vec<&[Const]> = r.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[Const::new(2), Const::new(3)]);
    }

    #[test]
    fn round_trips_through_plain_relations() {
        let r = sample();
        let plain = r.to_relation();
        assert_eq!(plain.len(), 3);
        let back = IndexedRelation::from_relation(&plain);
        assert_eq!(back.len(), 3);
        assert_eq!(back.arity(), 2);
        assert!(back.contains(&tuple![1, 3]));
    }

    #[test]
    fn remove_tombstones_and_reports_presence() {
        let mut r = sample();
        r.ensure_index(0b01);
        assert!(r.remove(&tuple![1, 2]));
        assert!(!r.remove(&tuple![1, 2]));
        assert!(!r.contains(&tuple![1, 2]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.probe(0b01, &[Const::new(1)]), vec![1]);
        assert_eq!(r.iter().count(), 2);
        assert_eq!(r.to_relation().len(), 2);
    }

    #[test]
    fn removed_tuples_can_be_reinserted() {
        let mut r = sample();
        r.ensure_index(0b01);
        r.remove(&tuple![1, 2]);
        assert!(r.insert(tuple![1, 2]));
        assert!(r.contains(&tuple![1, 2]));
        assert_eq!(r.len(), 3);
        assert_eq!(r.probe(0b01, &[Const::new(1)]).len(), 2);
    }

    #[test]
    fn compaction_rebuilds_indexes_when_tombstones_dominate() {
        let mut r = sample();
        r.ensure_index(0b01);
        r.remove(&tuple![1, 2]);
        r.remove(&tuple![1, 3]); // 2 dead of 3 slots → compaction
        assert_eq!(r.tombstone_count(), 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.probe(0b01, &[Const::new(2)]).len(), 1);
        assert!(r.probe(0b01, &[Const::new(1)]).is_empty());
        assert!(r.contains(&tuple![2, 3]));
    }

    #[test]
    fn wide_rows_use_hashed_membership() {
        let mut r = IndexedRelation::new(4);
        assert!(r.insert(tuple![1, 2, 3, 4]));
        assert!(!r.insert(tuple![1, 2, 3, 4]));
        assert!(r.insert(tuple![1, 2, 3, 5]));
        assert!(r.contains(&tuple![1, 2, 3, 4]));
        assert!(!r.contains(&tuple![4, 3, 2, 1]));
        assert!(r.remove(&tuple![1, 2, 3, 4]));
        assert!(!r.contains(&tuple![1, 2, 3, 4]));
        assert!(r.contains(&tuple![1, 2, 3, 5]));
    }

    #[test]
    fn zero_arity_relations_store_the_flag() {
        let mut r = IndexedRelation::new(0);
        assert!(r.insert(Tuple::empty()));
        assert!(!r.insert(Tuple::empty()));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::empty()));
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(r.remove(&Tuple::empty()));
        assert!(r.is_empty());
        assert_eq!(r.snapshot().len(), 0);
    }

    #[test]
    fn snapshots_stay_in_sync_across_mutations() {
        let mut r = sample();
        let snap1 = r.snapshot();
        assert_eq!(snap1.len(), 3);
        // mutations after a snapshot: the snapshot is frozen, the next one
        // reflects them
        r.insert(tuple![9, 9]);
        r.remove(&tuple![1, 2]);
        assert_eq!(snap1.len(), 3, "outstanding snapshot must be frozen");
        let snap2 = r.snapshot();
        assert_eq!(snap2.len(), 3);
        assert!(snap2.contains(&tuple![9, 9]));
        assert!(!snap2.contains(&tuple![1, 2]));
        assert_eq!(snap2, r.to_relation());
        // and it agrees with a from-scratch rebuild
        let rebuilt = kbt_data::Relation::from_tuples(r.arity(), r.tuples()).unwrap();
        assert_eq!(snap2, rebuilt);
    }

    #[test]
    fn insert_remove_cycles_between_snapshots_cancel() {
        // a tail row added and removed again is a no-op, and so is a base
        // row removed and re-inserted
        let mut r = sample();
        let snap1 = r.snapshot();
        r.insert(tuple![9, 9]);
        r.remove(&tuple![9, 9]);
        r.remove(&tuple![1, 2]);
        r.insert(tuple![1, 2]);
        assert_eq!(r.to_relation(), snap1);
        let snap2 = r.snapshot();
        assert_eq!(snap1, snap2);
        // the base row may go round more than once, and end up gone
        r.remove(&tuple![1, 2]);
        r.insert(tuple![1, 2]);
        r.remove(&tuple![1, 2]);
        assert_eq!(r.to_relation(), run2(&[(1, 3), (2, 3)]));
        r.insert(tuple![1, 2]);
        assert_eq!(r.snapshot(), snap1);
        // an odd number of flips of a new row leaves it in
        r.insert(tuple![5, 5]);
        r.remove(&tuple![5, 5]);
        r.insert(tuple![5, 5]);
        assert!(r.snapshot().contains(&tuple![5, 5]));
    }

    #[test]
    fn a_load_hands_its_source_back_until_it_is_written() {
        let plain = sample().to_relation();
        let mut r = IndexedRelation::from_relation(&plain);
        assert!(r.to_relation().shares_rows(&plain));
        // reading, indexing and demanding membership are not writes
        r.ensure_index(0b01);
        r.ensure_membership();
        assert!(r.contains(&tuple![1, 3]));
        assert!(!r.insert(tuple![1, 3]), "a redundant insert is not a write");
        assert!(!r.remove(&tuple![7, 7]), "nor is a removal that misses");
        assert!(r.to_relation().shares_rows(&plain));
        // a write is
        assert!(r.insert(tuple![4, 4]));
        assert!(!r.to_relation().shares_rows(&plain));
        assert_eq!(r.snapshot().len(), plain.len() + 1);
    }

    #[test]
    fn a_load_defers_its_membership_table() {
        let plain = sample().to_relation();
        let mut r = IndexedRelation::from_relation(&plain);
        assert!(!r.has_membership());
        // membership is answered from the sorted source meanwhile
        assert!(r.contains(&tuple![2, 3]));
        assert!(!r.contains(&tuple![3, 2]));
        assert!(!r.contains(&tuple![1]), "wrong arity is simply absent");
        // the first write builds the table before it changes anything
        assert!(r.insert(tuple![3, 2]));
        assert!(r.has_membership());
        for t in [tuple![1, 2], tuple![1, 3], tuple![2, 3], tuple![3, 2]] {
            assert!(r.contains(&t), "{t:?}");
        }
        assert_eq!(r.to_relation().len(), 4);
    }

    /// A run over binary rows, in whatever order they are given.
    fn run2(rows: &[(u32, u32)]) -> Relation {
        Relation::from_tuples(2, rows.iter().map(|&(a, b)| tuple![a, b])).unwrap()
    }

    #[test]
    fn bulk_appends_are_indexed_and_merged_back_in_order() {
        let mut r = IndexedRelation::from_relation(&Relation::empty(2));
        r.ensure_index(0b01);
        r.append_run(&run2(&[(1, 5), (3, 1), (2, 2)]));
        r.append_run(&Relation::empty(2));
        r.append_run(&run2(&[(1, 1), (9, 9)]));
        r.append_run(&run2(&[(2, 1)]));
        // bulk appends alone keep the tail's membership in sorted levels
        assert!(r.is_sorted() && !r.has_membership());
        assert_eq!(r.len(), 6);
        assert_eq!(r.slot_count(), 6);
        // arena order is append order; the indexes cover every run
        assert_eq!(r.row(0), &[Const::new(1), Const::new(5)]);
        assert_eq!(r.row(3), &[Const::new(1), Const::new(1)]);
        assert_eq!(r.probe(0b01, &[Const::new(1)]), vec![0, 3]);
        assert_eq!(r.probe(0b01, &[Const::new(2)]), vec![1, 5]);
        assert!(r.contains(&tuple![9, 9]));
        assert!(!r.contains(&tuple![9, 1]));
        // materialising merges the runs into one canonical run
        let expected = run2(&[(1, 1), (1, 5), (2, 1), (2, 2), (3, 1), (9, 9)]);
        assert_eq!(r.to_relation(), expected);
        assert_eq!(r.snapshot(), expected);
        // a run appended after a snapshot is merged into it
        r.append_run(&run2(&[(0, 0)]));
        assert_eq!(r.snapshot().len(), 7);
        assert_eq!(r.snapshot().row(0), &[Const::new(0), Const::new(0)]);
        // single-row writes between bulk appends merge like any other run
        let mut s = r.clone();
        s.remove(&tuple![1, 5]);
        assert!(!s.is_sorted() && s.has_membership(), "a removal switches");
        s.append_run(&run2(&[(1, 5), (4, 4)]));
        assert_eq!(s.to_relation().len(), 8);
        assert_eq!(s.to_relation(), s.snapshot());
    }

    #[test]
    fn zero_arity_relations_take_bulk_appends() {
        let on = Relation::from_tuples(0, [Tuple::empty()]).unwrap();
        let mut r = IndexedRelation::from_relation(&Relation::empty(0));
        assert!(!r.contains(&Tuple::empty()));
        r.append_run(&Relation::empty(0));
        assert!(r.to_relation().is_empty());
        r.append_run(&on);
        assert!(r.contains(&Tuple::empty()));
        assert_eq!(r.to_relation(), on);
        assert!(IndexedRelation::from_relation(&on).contains(&Tuple::empty()));
    }

    #[test]
    fn a_compaction_between_two_snapshots_reseats() {
        let mut r = sample();
        r.ensure_index(0b01);
        let before = r.snapshot();
        r.insert(tuple![0, 7]);
        r.remove(&tuple![1, 2]);
        r.remove(&tuple![0, 7]);
        assert_eq!(r.tombstone_count(), 2);
        r.remove(&tuple![1, 3]); // 3 dead of 4 slots → compaction
        assert_eq!(r.tombstone_count(), 0);
        assert_eq!(r.slot_count(), 1);
        // the re-seated relation goes on taking writes
        r.insert(tuple![0, 1]);
        r.remove(&tuple![2, 3]);
        r.insert(tuple![2, 3]);
        assert_eq!(r.to_relation(), run2(&[(0, 1), (2, 3)]));
        assert_eq!(r.snapshot(), run2(&[(0, 1), (2, 3)]));
        assert_eq!(before.len(), 3, "outstanding snapshot must be frozen");
    }

    #[test]
    fn arity_zero_goes_through_every_materialisation() {
        let on = Relation::from_tuples(0, [Tuple::empty()]).unwrap();
        let off = Relation::empty(0);
        // loaded set: removed and re-inserted between two snapshots
        let mut r = IndexedRelation::from_relation(&on);
        assert_eq!(r.snapshot(), on);
        assert!(r.remove(&Tuple::empty())); // the only slot dies → compaction
        assert_eq!(r.slot_count(), 0);
        assert_eq!(r.to_relation(), off);
        assert!(r.insert(Tuple::empty()));
        assert_eq!(r.snapshot(), on);
        // starting unset: added and removed between two snapshots
        let mut r = IndexedRelation::new(0);
        assert_eq!(r.snapshot(), off);
        assert!(r.insert(Tuple::empty()));
        assert_eq!(r.to_relation(), on);
        assert!(r.remove(&Tuple::empty()));
        assert_eq!(r.snapshot(), off);
        assert!(!r.contains(&Tuple::empty()));
    }

    /// Both halves of the safety contract in one test: a merge that does
    /// not add up to the live rows is never served.  Under `cargo test`
    /// the assertion fires (a fast path that silently always fell back
    /// would fail the suite, not slow it down); under `cargo test
    /// --release` the contents are rebuilt from the arena's live rows.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "do not add up"))]
    fn a_corrupted_tail_is_rebuilt_not_served() {
        let mut r = sample();
        let _ = r.snapshot();
        r.insert(tuple![7, 7]);
        // lose the tail's run boundaries behind the arena's back
        r.runs.clear();
        let expected = Relation::from_tuples(r.arity(), r.tuples()).unwrap();
        assert_eq!(r.to_relation(), expected, "never serve the mismatch");
        assert_eq!(r.snapshot(), expected);
        // and the rebuilt relation is merged into again from here on
        r.insert(tuple![8, 8]);
        r.remove(&tuple![2, 3]);
        assert_eq!(r.snapshot(), run2(&[(1, 2), (1, 3), (7, 7), (8, 8)]));
    }

    proptest::proptest! {
        /// `Chains` against a model of one `Vec` per key: random pushes of
        /// ascending ids onto four keys (some ids skipped, as a rebuild
        /// skips tombstones), every bucket walked after every step.
        #[test]
        fn chains_walk_like_a_vec_per_key(
            script in proptest::collection::vec((0u64..4, 1u32..3), 1..120),
        ) {
            let mut chains = Chains::default();
            let mut model: Vec<Vec<u32>> = vec![Vec::new(); 4];
            let mut next_id = 0u32;
            for (key, gap) in script {
                chains.push(key, next_id);
                model[key as usize].push(next_id);
                next_id += gap;
                for (key, ids) in model.iter().enumerate() {
                    let mut walk = chains.walk(key as u64);
                    let walked: Vec<u32> = std::iter::from_fn(|| walk.step()).collect();
                    proptest::prop_assert_eq!(&walked, ids);
                }
            }
        }
    }

    /// The first-column value `a` stands for: dense values sit next to
    /// each other, sparse ones a thousand apart.
    fn first_value(a: u32, dense: bool) -> u32 {
        if dense {
            a + 3
        } else {
            a * 1_000 + 5
        }
    }

    /// A row of `arity` columns over `(a, b, c)`.
    fn offsets_row(arity: usize, dense: bool, (a, b, c): (u32, u32, u32)) -> Vec<Const> {
        [first_value(a, dense), b, c][..arity]
            .iter()
            .map(|&v| Const::new(v))
            .collect()
    }

    /// The first segment's table for `mask`.
    fn seg_table(r: &IndexedRelation, mask: Mask) -> Option<&Arc<RunIndex>> {
        let index = r.indexes.iter().find(|index| index.mask == mask)?;
        index.seg.as_ref()
    }

    fn is_offsets(table: Option<&Arc<RunIndex>>) -> bool {
        table.is_some_and(|index| matches!(index.table, RunTable::Offsets { .. }))
    }

    #[test]
    fn a_dense_run_answers_prefix_probes_and_small_membership_from_its_offsets() {
        let rows = |arity, dense| {
            let rows = (0..6).flat_map(|a| (0..3).map(move |b| (a, b, a + b)));
            Relation::from_tuples(
                arity,
                rows.map(|row| Tuple::from_row(&offsets_row(arity, dense, row))),
            )
            .unwrap()
        };
        for arity in 1..=3 {
            for dense in [true, false] {
                let mut r = IndexedRelation::from_relation(&rows(arity, dense));
                let masks: &[Mask] = if arity == 1 {
                    &[0b1]
                } else {
                    &[0b1, 0b11, 0b10]
                };
                for &mask in masks {
                    r.ensure_index(mask);
                }
                r.ensure_membership();
                assert_eq!(is_offsets(seg_table(&r, 0b1)), dense, "arity {arity}");
                if arity > 1 {
                    assert_eq!(is_offsets(seg_table(&r, 0b11)), dense);
                    assert!(!is_offsets(seg_table(&r, 0b10)), "not a prefix");
                }
                let SegMembership::Ready(member) = &r.seg_ids else {
                    panic!("membership demanded");
                };
                assert_eq!(is_offsets(member.as_ref()), dense && arity <= 2);
                if let (Some(probe), Some(member)) = (seg_table(&r, 0b1), member) {
                    // at arity 1 the probe mask is the full mask anyway
                    assert_eq!(
                        Arc::ptr_eq(probe, member),
                        arity == 1 || (dense && arity == 2),
                        "one array serves both"
                    );
                }
                // a compaction re-seats on the same run: its tables stay
                let tables: Vec<Option<Arc<RunIndex>>> = (r.indexes.iter())
                    .map(|index| index.seg.clone())
                    .chain([member.clone()])
                    .collect();
                r.compact();
                let SegMembership::Ready(member) = &r.seg_ids else {
                    panic!("membership was demanded");
                };
                let seated = (r.indexes.iter().map(|index| &index.seg)).chain([member]);
                for (table, before) in seated.zip(tables) {
                    assert!(Arc::ptr_eq(table.as_ref().unwrap(), &before.unwrap()));
                }
            }
        }
    }

    proptest::proptest! {
        /// The first segment's offsets against a model of one `Vec` per
        /// key: random sorted runs at arity 1, 2 and 3 with a dense or a
        /// sparse first column (offsets or chains), then random removals,
        /// inserts, appended tail runs and compaction.  After
        /// every step each probe on `0b1` and on `0b11`, each membership
        /// bucket and each `contains_row` yields exactly the live ids the
        /// model holds for its key, in ascending order.
        #[test]
        fn offsets_walk_like_a_vec_per_key(
            arity in 1usize..4,
            dense in proptest::arbitrary::any::<bool>(),
            stored in proptest::collection::btree_set((0u32..6, 0u32..3, 0u32..3), 0..30),
            script in proptest::collection::vec((0u8..12, (0u32..7, 0u32..3, 0u32..3)), 0..40),
        ) {
            let rows: Vec<Vec<Const>> =
                stored.iter().map(|&row| offsets_row(arity, dense, row)).collect();
            let run = Relation::from_tuples(arity, rows.iter().map(|row| Tuple::from_row(row)))
                .unwrap();
            let mut r = IndexedRelation::from_relation(&run);
            let masks: &[Mask] = if arity == 1 { &[0b1] } else { &[0b1, 0b11] };
            for &mask in masks {
                r.ensure_index(mask);
            }
            // the model: every slot's row and whether it is live
            let mut model: Vec<(Vec<Const>, bool)> =
                run.iter().map(|row| (row.to_vec(), true)).collect();
            let domain: Vec<Vec<Const>> = (0..7)
                .flat_map(|a| (0..3).flat_map(move |b| (0..3).map(move |c| (a, b, c))))
                .map(|row| offsets_row(arity, dense, row))
                .collect();
            for (op, row) in script {
                let row = offsets_row(arity, dense, row);
                let present = model.iter().any(|(r, live)| *live && *r == row);
                match op {
                    0..=3 => {
                        proptest::prop_assert_eq!(r.remove_row(&row), present);
                        if let Some(slot) = model.iter_mut().find(|(r, live)| *live && *r == row) {
                            slot.1 = false;
                        }
                    }
                    4..=6 => {
                        proptest::prop_assert_eq!(r.insert_row(&row), !present);
                        if !present {
                            model.push((row, true));
                        }
                    }
                    7..=9 => {
                        // the absent rows of a small cross through `row`
                        let cross = (0..3).map(|b| {
                            let mut cell = row.clone();
                            if arity > 1 {
                                cell[1] = Const::new(b);
                            }
                            cell
                        });
                        let absent: Vec<Tuple> = cross
                            .filter(|cell| !model.iter().any(|(r, live)| *live && r == cell))
                            .map(|cell| Tuple::from_row(&cell))
                            .collect();
                        let appended = Relation::from_tuples(arity, absent).unwrap();
                        r.append_run(&appended);
                        model.extend(appended.iter().map(|row| (row.to_vec(), true)));
                    }
                    _ => {
                        r.compact();
                        model.retain(|(_, live)| *live);
                    }
                }
                if r.slot_count() as usize != model.len() || op >= 10 {
                    // a compaction re-seated the relation on its contents,
                    // which fold into one sorted run at this size: the live
                    // rows, renumbered in row order
                    model.retain(|(_, live)| *live);
                    model.sort();
                }
                proptest::prop_assert_eq!(r.slot_count() as usize, model.len());
                let expected = |mask: Mask, key: &[Const]| -> Vec<u32> {
                    (0..).zip(&model)
                        .filter(|(_, (row, live))| *live && mask_key(row, mask) == mask_key(key, mask))
                        .map(|(id, _)| id)
                        .collect()
                };
                for key in &domain {
                    for &mask in masks {
                        let probed: Vec<u32> = r.probe_bucket(mask, mask_key(key, mask)).collect();
                        proptest::prop_assert_eq!(probed, expected(mask, key));
                    }
                    let member = expected(full_mask(arity), key);
                    proptest::prop_assert_eq!(r.contains_row(key), !member.is_empty());
                    r.ensure_membership();
                    let walked: Vec<u32> = r
                        .member_bucket(fx::row_key(key))
                        .filter(|&id| fx::key_is_exact(arity) || r.row(id) == key.as_slice())
                        .collect();
                    proptest::prop_assert_eq!(walked, member);
                }
            }
        }
    }

    /// A row of `arity` columns over `(a, b)`.
    fn sorted_row(arity: usize, (a, b): (u32, u32)) -> Vec<Const> {
        [a, b][..arity].iter().map(|&v| Const::new(v)).collect()
    }

    proptest::proptest! {
        /// Sorted membership against a `BTreeSet` model: random sorted runs
        /// appended at arity 1 and 2 over an empty or a stored first
        /// segment, single-row writes, removals and explicit demands that
        /// switch the tail to its chained table, and compactions and
        /// snapshots, whose re-seat leaves it sorted again.
        /// After every step, `contains_row` and three cursors — one walking
        /// the domain in ascending order, then descending, then in a random
        /// order, and a fresh one in that random order — answer every row
        /// as the model does; while the tail is sorted its levels hold
        /// exactly its keys, each level more than twice the one above.
        #[test]
        fn sorted_membership_answers_like_a_set(
            arity in 1usize..3,
            stored in proptest::collection::btree_set((0u32..8, 0u32..8), 0..20),
            script in proptest::collection::vec(
                (0u8..13, proptest::collection::btree_set((0u32..8, 0u32..8), 0..12), (0u32..8, 0u32..8)),
                0..24,
            ),
            order in proptest::collection::vec(0usize..64, 0..64),
        ) {
            let rows = |set: &std::collections::BTreeSet<(u32, u32)>| -> std::collections::BTreeSet<Vec<Const>> {
                set.iter().map(|&row| sorted_row(arity, row)).collect()
            };
            let run_of = |rows: &std::collections::BTreeSet<Vec<Const>>| {
                Relation::from_tuples(arity, rows.iter().map(|row| Tuple::from_row(row))).unwrap()
            };
            let mut model = rows(&stored);
            let mut r = IndexedRelation::from_relation(&run_of(&model));
            let mut sorted = true;
            let domain: Vec<Vec<Const>> = (0..8)
                .flat_map(|a| (0..8).map(move |b| (a, b)))
                .map(|row| sorted_row(arity, row))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            for (op, set, row) in script {
                let row = sorted_row(arity, row);
                match op {
                    0..=5 => {
                        let absent: std::collections::BTreeSet<Vec<Const>> =
                            rows(&set).difference(&model).cloned().collect();
                        r.append_run(&run_of(&absent));
                        model.extend(absent);
                    }
                    6 => {
                        let added = model.insert(row.clone());
                        proptest::prop_assert_eq!(r.insert_row(&row), added);
                        sorted &= !added;
                    }
                    7 => {
                        let (removed, slots) = (model.remove(&row), r.slot_count());
                        proptest::prop_assert_eq!(r.remove_row(&row), removed);
                        // a removal that compacted re-seated the relation
                        sorted = r.slot_count() < slots || (sorted && !removed);
                    }
                    8 => {
                        r.ensure_membership();
                        sorted = false;
                    }
                    9 | 10 => {
                        r.compact();
                        sorted = true;
                    }
                    _ => {
                        // a snapshot that landed on a new run re-seated
                        let seg = r.seg.clone();
                        let _ = r.snapshot();
                        sorted |= !r.seg.shares_rows(&seg);
                    }
                }
                proptest::prop_assert_eq!(r.is_sorted(), sorted);
                proptest::prop_assert_eq!(r.len(), model.len());
                if let TailMembership::Levels(levels) = &r.tail_ids {
                    let keys: Vec<u64> = (r.seg_slots()..r.slot_count())
                        .map(|id| fx::row_key(r.row(id)))
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    let mut held: Vec<u64> = levels.levels.concat();
                    held.sort_unstable();
                    proptest::prop_assert_eq!(held, keys);
                    for pair in levels.levels.windows(2) {
                        proptest::prop_assert!(pair[0].len() > 2 * pair[1].len());
                    }
                    for level in &levels.levels {
                        proptest::prop_assert!(level.windows(2).all(|w| w[0] < w[1]));
                    }
                }
                let random: Vec<&Vec<Const>> = order.iter().map(|&i| &domain[i % domain.len()]).collect();
                let mut cursor = r.member_cursor();
                for key in domain.iter().chain(domain.iter().rev()).chain(random.iter().copied()) {
                    proptest::prop_assert_eq!(cursor.contains(key), model.contains(key));
                    proptest::prop_assert_eq!(r.contains_row(key), model.contains(key));
                }
                let mut fresh = r.member_cursor();
                for key in random {
                    proptest::prop_assert_eq!(fresh.contains(key), model.contains(key));
                }
            }
        }
    }
}
