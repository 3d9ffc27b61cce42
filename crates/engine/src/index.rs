//! Indexed relations: a shared stored run plus a private row arena, with
//! indexes keyed by bound-column masks — the run's own first-column
//! offsets where they serve, chained hash tables elsewhere.
//!
//! # Storage layout: a shared first segment and a private tail
//!
//! A relation's slots are numbered `0..slot_count()`, and every row is one
//! arity-strided `&[Const]` slice — no per-tuple allocation anywhere.  They
//! come in two segments:
//!
//! * the **first segment**, slots `0..n`, is a stored sorted run — the
//!   plain [`Relation`] the relation was loaded from
//!   ([`IndexedRelation::from_relation`]), held by `Arc` and never copied.
//!   Loading a stored relation costs one reference count; a relation that
//!   starts empty has an empty first segment;
//! * the **tail**, slots `n..`, is a private `Vec<Const>` arena that every
//!   write appends to: each [`IndexedRelation::append_run`] — one per
//!   fixpoint round, see the commit contract in [`crate::eval`] — adds a
//!   sorted, duplicate-free run that is disjoint from everything live, and
//!   a single-row [`IndexedRelation::insert_row`] adds a run of one.
//!
//! Removal only tombstones a slot, in either segment.  Tombstones are
//! private: a bitset allocated by the first removal, so a load never pays
//! for liveness it does not use, and every slot past its end is live.
//!
//! # Contents: a base run plus what the relation records since
//!
//! The relation knows its contents in canonical order exactly one way.  It
//! keeps the last canonical run it handed out — the **base**, a plain
//! [`Relation`] — and a watermark: the base holds exactly the rows that
//! were live in the slots below the watermark when it was taken.  Since
//! then the relation itself has recorded everything that changed: where
//! each appended run ends, and the ids below the watermark that were
//! tombstoned.  Materialising ([`IndexedRelation::to_relation`]) k-way
//! merges the live rows of the runs above the watermark, sorts the rows
//! that died below it (less those that were appended again), and applies
//! both to the base in one linear merge ([`Relation::merge_rows`]) — or,
//! while the base is empty, hands the merged run to the verifying
//! [`Relation::from_sorted_rows`] as it is.  With nothing recorded the
//! merge returns the base itself, so a relation that was loaded and never
//! written comes back as the very `Arc` it was loaded from (the load is its
//! first segment *and* its base).  [`IndexedRelation::snapshot`] is the same
//! materialisation followed by moving base and watermark up to it, so the
//! next one pays only for what changes in between — one `Arc` clone if
//! nothing does; `clear` and compaction (which renumbers the slots, and
//! therefore materialises first) move them too.  Outstanding snapshots are
//! never disturbed: every merge builds a fresh run.
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
//! every tail keep chained tables.  Offsets are cached on the run like any
//! of its tables (one cache entry serves every mask they answer), counted
//! in `kbt_engine_index_builds_total` and `kbt_engine_shared_index_bytes`
//! alike, and dropped with the first segment — by `clear` and by
//! compaction, which leave the relation with no first segment to index.
//!
//! The *membership table* is the same thing for the full row: full-row key
//! → id, the first segment's cached on its run like any index (it *is* the
//! full-mask index — the offsets at arity ≤ 2 on a dense run), the tail's
//! private.  The tail's exists from the start.
//! The segment's is **deferred**: hashing every stored fact of a relation
//! that is only ever scanned or probed is wasted work, and a loaded
//! relation that has not been written since answers
//! [`IndexedRelation::contains_row`] by binary search on its first segment,
//! which is still all of it.  The segment's table is fetched — built, the
//! first time any holder of the run asks — by
//! [`IndexedRelation::ensure_membership`], demanded for the targets of the
//! `Member` / `NegCheck` steps of every plan about to run exactly as
//! [`IndexedRelation::ensure_index`] is for probe masks, and by the first
//! mutation of any kind, so that [`IndexedRelation::member_bucket`] is
//! either complete or absent, never partial.
//!
//! Once more than half the slots are dead the relation compacts itself: the
//! live rows of both segments move, in slot order, into a fresh private
//! tail (the first segment is dropped, the only time stored rows are ever
//! copied), and the tail's tables are rebuilt without garbage.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::sync::Arc;

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
#[derive(Clone, Debug, Default)]
struct Chains {
    /// Key → the first and the last id of its bucket.
    heads: HashMap<u64, (u32, u32), FxBuild>,
    /// `next[id]` is the id after `id` in its bucket, or [`NIL`]; ids never
    /// pushed hold [`NIL`] too.
    next: Vec<u32>,
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

    /// The ids of `key`'s bucket, first pushed first; a table with no key
    /// at all costs no lookup.
    #[inline]
    fn walk(&self, key: u64) -> Walk<'_> {
        if self.heads.is_empty() {
            return Walk::EMPTY;
        }
        Walk {
            next: &self.next,
            at: self.heads.get(&key).map_or(NIL, |&(first, _)| first),
        }
    }

    /// Forgets every key and id.
    fn clear(&mut self) {
        self.heads.clear();
        self.next.clear();
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
    /// Not fetched: an unwritten load, whose first segment is all of it and
    /// answers membership by binary search.
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
    /// The first segment: slot `i < seg.len()` is `seg.row(i)`.  Always
    /// empty at arity 0, whose slots all live in the tail.
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
    /// The tail's membership table, by tail-local id.
    tail_ids: Chains,
    /// One index per demanded mask.
    indexes: Vec<Index>,
    /// The last canonical run handed out (or loaded): exactly the rows that
    /// were live in slots `..base_slots` when it was taken.
    base: Relation,
    /// The watermark `base` covers the slots up to.
    base_slots: u32,
    /// Ids below the watermark tombstoned since `base` was taken.
    died: Vec<u32>,
    /// The end slot of every sorted run appended since `base` was taken —
    /// the first starts at the watermark, a single-row insert is a run of
    /// one, and rows in them may have been tombstoned again.
    runs: Vec<u32>,
}

impl IndexedRelation {
    /// An empty indexed relation of the given arity.
    pub fn new(arity: usize) -> Self {
        IndexedRelation::over(Relation::empty(arity), SegMembership::Ready(None))
    }

    /// Wraps a stored relation — a load: the relation becomes the first
    /// segment (an `Arc` clone, nothing copied) and the base covering all
    /// of it, and nothing is hashed.  Until the first mutation the segment
    /// answers membership and is handed back by [`Self::to_relation`].  A
    /// flag relation has no rows to share, so its slot goes in the tail.
    pub fn from_relation(relation: &Relation) -> Self {
        if relation.arity() > 0 {
            return IndexedRelation::over(relation.clone(), SegMembership::Deferred);
        }
        let mut flag = IndexedRelation::new(0);
        if !relation.is_empty() {
            flag.tail_ids.push(fx::row_key(&[]), 0);
            flag.slots = 1;
            flag.live_count = 1;
            flag.rebase(relation.clone());
        }
        flag
    }

    /// `seg` as the first segment and the base, with nothing in the tail.
    fn over(seg: Relation, seg_ids: SegMembership) -> Self {
        let slots = seg.len() as u32;
        IndexedRelation {
            arity: seg.arity(),
            tail: Vec::new(),
            slots,
            dead_bits: Vec::new(),
            dead: 0,
            live_count: seg.len(),
            seg_ids,
            tail_ids: Chains::default(),
            indexes: Vec::new(),
            base: seg.clone(),
            base_slots: slots,
            died: Vec::new(),
            runs: Vec::new(),
            seg,
        }
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
    /// verification, or a binary search while the first segment's
    /// membership table is deferred).
    pub fn contains(&self, t: &Tuple) -> bool {
        t.arity() == self.arity && self.contains_row(t.components())
    }

    /// [`Self::contains`] for a raw row slice.
    #[inline]
    pub fn contains_row(&self, row: &[Const]) -> bool {
        self.find_live_id(row).is_some()
    }

    #[inline]
    fn find_live_id(&self, row: &[Const]) -> Option<u32> {
        debug_assert_eq!(row.len(), self.arity);
        if let SegMembership::Deferred = self.seg_ids {
            // an unwritten load: the first segment is all of it
            return self.seg.position(row).map(|id| id as u32);
        }
        let mut bucket = self.member_bucket(fx::row_key(row));
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
    fn seg_slots(&self) -> u32 {
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
        self.ensure_membership();
        let local = self.slots - self.seg_slots();
        self.tail.extend_from_slice(row);
        self.slots += 1;
        self.live_count += 1;
        self.tail_ids.push(fx::row_key(row), local);
        for index in &mut self.indexes {
            index.tail.push(mask_key(row, index.mask), local);
        }
        self.runs.push(self.slots);
        true
    }

    /// Appends a whole run in one go — the unchecked bulk write behind the
    /// fixpoint's commit.  `run` is sorted and duplicate-free by type; the
    /// caller guarantees that **none of its rows is present** (the commit
    /// filters the round's derivations against this very relation, and
    /// nothing writes in between — see [`crate::eval`]).  One tail extend,
    /// then one membership insert and one bucket push per index per row; no
    /// second lookup.  The run's end is recorded for the merge that
    /// materialises the relation.
    ///
    /// Appending a row that is present is a caller bug: debug builds assert,
    /// release builds find out in [`Self::to_relation`], whose merged run
    /// fails verification or comes out shorter than the live count.
    pub fn append_run(&mut self, run: &Relation) {
        debug_assert_eq!(run.arity(), self.arity);
        debug_assert!(
            // `contains_row` compares rows, so a hashed-key collision with a
            // stored row does not read as "present"
            run.iter().all(|row| !self.contains_row(row)),
            "bulk-appended rows must be absent from the relation"
        );
        if run.is_empty() {
            return;
        }
        self.ensure_membership();
        let first = self.slots - self.seg_slots();
        self.tail.extend_from_slice(run.as_rows());
        self.slots += run.len() as u32;
        self.live_count += run.len();
        self.tail_ids.reserve(run.len(), run.len());
        for (local, row) in (first..).zip(run.iter()) {
            self.tail_ids.push(fx::row_key(row), local);
        }
        for index in &mut self.indexes {
            index.tail.reserve(0, run.len());
            for (local, row) in (first..).zip(run.iter()) {
                index.tail.push(mask_key(row, index.mask), local);
            }
        }
        self.runs.push(self.slots);
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
        let Some(id) = self.find_live_id(row) else {
            return false;
        };
        self.ensure_membership();
        let word = id as usize / 64;
        if self.dead_bits.len() <= word {
            self.dead_bits.resize(word + 1, 0);
        }
        self.dead_bits[word] |= 1 << (id % 64);
        self.dead += 1;
        self.live_count -= 1;
        if id < self.base_slots {
            self.died.push(id);
        }
        if self.dead * 2 > self.slots as usize {
            self.compact();
        }
        true
    }

    /// Drops every tuple while keeping the demanded index masks alive (with
    /// empty buckets), so existing plans can still probe after a reset.
    pub fn clear(&mut self) {
        let empty = Relation::empty(self.arity);
        self.seg = empty.clone();
        self.tail.clear();
        self.slots = 0;
        self.dead_bits.clear();
        self.dead = 0;
        self.live_count = 0;
        self.seg_ids = SegMembership::Ready(None);
        self.tail_ids.clear();
        for index in &mut self.indexes {
            index.seg = None;
            index.tail.clear();
        }
        self.rebase(empty);
    }

    /// Makes `contents` — the live rows in canonical order — the base,
    /// covering every slot there is.
    fn rebase(&mut self, contents: Relation) {
        self.base = contents;
        self.base_slots = self.slots;
        self.died.clear();
        self.runs.clear();
    }

    /// Moves the live rows of both segments, in slot order, into a fresh
    /// tail and rebuilds its tables (so scan order is unchanged).  Slots
    /// are renumbered, so what was recorded against the old numbers is
    /// folded into a new base first.
    fn compact(&mut self) {
        let contents = self.materialise();
        let mut tail = Vec::with_capacity(self.live_count * self.arity);
        for row in self.iter() {
            tail.extend_from_slice(row);
        }
        let copied = (0..self.seg_slots()).filter(|&id| self.is_live(id)).count();
        if copied > 0 {
            metrics().rows_copied_total.add(copied as u64);
        }
        self.seg = Relation::empty(self.arity);
        self.tail = tail;
        self.slots = self.live_count as u32;
        self.dead_bits.clear();
        self.dead = 0;
        self.seg_ids = SegMembership::Ready(None);
        self.tail_ids = self.tail_chains(fx::row_key);
        self.indexes = (self.indexes.iter())
            .map(|&Index { mask, .. }| Index {
                mask,
                seg: None,
                tail: self.tail_chains(|row| mask_key(row, mask)),
            })
            .collect();
        self.rebase(contents);
    }

    /// A table over the live tail rows, keyed by `key` — one build, counted
    /// as such unless the tail is empty.
    fn tail_chains(&self, key: impl Fn(&[Const]) -> u64) -> Chains {
        let (seg_slots, tail_slots) = (self.seg_slots(), self.slots - self.seg_slots());
        let mut chains = Chains::default();
        if tail_slots == 0 {
            return chains;
        }
        chains.reserve(0, tail_slots as usize);
        for local in 0..tail_slots {
            let id = seg_slots + local;
            if self.is_live(id) {
                chains.push(key(self.row(id)), local);
            }
        }
        metrics().index_builds_total.inc();
        chains
    }

    /// Fetches the first segment's membership table if a load deferred it
    /// (see the module docs) — built now if no holder of the run has built
    /// it before.  Called by the demand pass for every relation a
    /// `Member` / `NegCheck` step targets, and by every mutation.
    pub fn ensure_membership(&mut self) {
        if let SegMembership::Deferred = self.seg_ids {
            self.seg_ids = SegMembership::Ready(RunIndex::of(&self.seg, full_mask(self.arity)));
        }
    }

    /// Whether the membership table is complete — not deferred (for tests
    /// and diagnostics).
    pub fn has_membership(&self) -> bool {
        matches!(self.seg_ids, SegMembership::Ready(_))
    }

    /// Demands the index for `mask`: the first segment's is fetched from
    /// its run (built there if no holder of the run has built it before),
    /// the tail's is built over the tail rows.
    pub fn ensure_index(&mut self, mask: Mask) {
        if mask == 0 || self.indexes.iter().any(|index| index.mask == mask) {
            return;
        }
        let seg = RunIndex::of(&self.seg, mask);
        let tail = self.tail_chains(|row| mask_key(row, mask));
        self.indexes.push(Index { mask, seg, tail });
    }

    /// A bucket of `key` on `mask` over the first segment's table `seg`
    /// and the tail's `tail`.
    #[inline]
    fn bucket<'a>(
        &'a self,
        seg: Option<&'a RunIndex>,
        mask: Mask,
        tail: &'a Chains,
        key: u64,
    ) -> Bucket<'a> {
        let (slots, seg) = match seg {
            Some(index) => index.bucket(&self.seg, mask, key),
            None => (0..0, Walk::EMPTY),
        };
        Bucket {
            slots,
            seg,
            tail: tail.walk(key),
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
        self.bucket(index.seg.as_deref(), mask, &index.tail, key)
    }

    /// The live ids of a full-row key (for hashed keys — arity > 2 — verify
    /// candidates against [`Self::row`]).  Like a probe index, the
    /// membership table of a loaded relation must have been demanded with
    /// [`Self::ensure_membership`] beforehand.
    #[inline]
    pub fn member_bucket(&self, key: u64) -> Bucket<'_> {
        let SegMembership::Ready(seg) = &self.seg_ids else {
            panic!("membership table demanded by ensure_membership or the first mutation");
        };
        self.bucket(seg.as_deref(), full_mask(self.arity), &self.tail_ids, key)
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

    /// The live rows of the runs appended since the base was taken, merged
    /// into one sorted, arity-strided buffer (live rows are distinct, so it
    /// is duplicate-free).
    fn merged_tail(&self) -> Vec<Const> {
        let next_live = |slot: u32, end: u32| (slot..end).find(|&s| self.is_live(s));
        // (next live slot, end slot) per run that has a live row left
        let mut cursors: Vec<(u32, u32)> = std::iter::once(self.base_slots)
            .chain(self.runs.iter().copied())
            .zip(self.runs.iter().copied())
            .filter_map(|(start, end)| Some((next_live(start, end)?, end)))
            .collect();
        let mut heap: BinaryHeap<Reverse<(&[Const], usize)>> = cursors
            .iter()
            .enumerate()
            .map(|(run, &(next, _))| Reverse((self.row(next), run)))
            .collect();
        let mut merged = Vec::with_capacity((self.slots - self.base_slots) as usize * self.arity);
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

    /// The one way the relation becomes a [`Relation`] (see the module
    /// docs): the base with everything recorded since applied in one merge.
    /// A base row that died and was appended again is live, so it is not
    /// among the deletions, and [`Relation::merge_rows`] skips it among the
    /// additions as already there.
    fn materialise(&self) -> Relation {
        if self.arity == 0 {
            return Relation::from_rows(0, Vec::new(), self.live_count).expect("flag relation");
        }
        let arity = self.arity;
        let adds = self.merged_tail();
        let mut died: Vec<u32> = (self.died.iter().copied())
            .filter(|&id| !self.contains_row(self.row(id)))
            .collect();
        died.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        let dels: Vec<Const> = died.iter().flat_map(|&id| self.row(id)).copied().collect();
        let contents = if self.base.is_empty() && !adds.is_empty() {
            // nothing to merge into (and so nothing died): the verifying
            // constructor takes the run as it is
            Relation::from_sorted_rows(arity, adds)
                .expect("every appended run is sorted and disjoint from the live rows before it")
        } else {
            self.base
                .merge_rows(&adds, &dels)
                .expect("the rows are arity-strided by construction")
        };
        debug_assert_eq!(
            contents.len(),
            self.live_count,
            "the base and what was recorded since do not add up to the live rows"
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
    /// [`Self::snapshot`], otherwise one merge of what was (see the module
    /// docs).  (Callers holding `&mut self` and coming back for more should
    /// prefer [`Self::snapshot`], which remembers the result.)
    pub fn to_relation(&self) -> Relation {
        self.materialise()
    }

    /// [`Self::to_relation`], remembered: the result becomes the base, so
    /// the next materialisation merges only the mutations in between — and
    /// costs one `Arc` clone when there were none.  The snapshot handed out
    /// is never disturbed by later mutations.
    pub fn snapshot(&mut self) -> Relation {
        let contents = self.materialise();
        self.rebase(contents.clone());
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
        r.clear();
        assert!(r.to_relation().is_empty());
        r.insert(tuple![4, 4]);
        assert_eq!(r.snapshot().len(), 1);
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
        assert!(r.has_membership());
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
    fn a_compaction_between_two_snapshots_rebases() {
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
        // the renumbered arena keeps recording against the new base
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

    /// Both halves of the safety contract in one test: a base that does not
    /// add up to the arena is never served.  Under `cargo test` the
    /// assertion fires (a fast path that silently always fell back would
    /// fail the suite, not slow it down); under `cargo test --release` the
    /// contents are rebuilt from the arena's live rows.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "do not add up"))]
    fn a_corrupted_base_is_rebuilt_not_served() {
        let mut r = sample();
        let _ = r.snapshot();
        // drop one base row behind the arena's back
        let victim = r.base.row(0).to_vec();
        r.base.remove_row(&victim);
        let expected = Relation::from_tuples(r.arity(), r.tuples()).unwrap();
        assert_eq!(r.to_relation(), expected, "never serve the mismatch");
        assert_eq!(r.snapshot(), expected);
        // and the rebuilt base is merged into again from here on
        r.insert(tuple![7, 7]);
        r.remove(&tuple![2, 3]);
        assert_eq!(r.snapshot(), run2(&[(1, 2), (1, 3), (7, 7)]));
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
            chains.clear();
            proptest::prop_assert!((0..4).all(|key| chains.walk(key).step().is_none()));
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
                r.clear();
                assert!(r.indexes.iter().all(|index| index.seg.is_none()));
                assert!(matches!(r.seg_ids, SegMembership::Ready(None)));
            }
        }
    }

    proptest::proptest! {
        /// The first segment's offsets against a model of one `Vec` per
        /// key: random sorted runs at arity 1, 2 and 3 with a dense or a
        /// sparse first column (offsets or chains), then random removals,
        /// inserts, appended tail runs, `clear` and compaction.  After
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
                    10 => {
                        r.clear();
                        model.clear();
                    }
                    _ => {
                        r.compact();
                        model.retain(|(_, live)| *live);
                    }
                }
                if r.slot_count() as usize != model.len() {
                    // a removal compacted: the live slots, renumbered in order
                    model.retain(|(_, live)| *live);
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

    #[test]
    fn clear_keeps_demanded_indexes_probe_ready() {
        let mut r = sample();
        r.ensure_index(0b01);
        r.clear();
        assert!(r.is_empty());
        assert!(r.probe(0b01, &[Const::new(1)]).is_empty());
        r.insert(tuple![1, 7]);
        assert_eq!(r.probe(0b01, &[Const::new(1)]).len(), 1);
    }
}
