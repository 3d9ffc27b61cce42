//! Indexed relations: an arity-strided row arena with lazily built hash
//! indexes keyed by bound-column masks.
//!
//! # Storage layout
//!
//! All tuples of a `k`-ary relation live in **one flat `Vec<Const>` arena**:
//! the tuple with id `i` occupies `rows[i*k .. (i+1)*k]`.  There is no
//! per-tuple allocation; scans walk one contiguous buffer and join steps
//! hand out `&[Const]` row slices straight from the arena.
//!
//! The arena is written in bulk.  [`IndexedRelation::from_relation`] copies
//! a plain relation's sorted run in, and every later
//! [`IndexedRelation::append_run`] — one per fixpoint round, see the commit
//! contract in [`crate::eval`] — appends another sorted, duplicate-free run
//! that is disjoint from everything already stored.  So as long as nothing
//! else has happened the arena **is a concatenation of sorted runs**, and
//! the relation records where each one ends: materialising it
//! ([`IndexedRelation::to_relation`]) is then a k-way *merge* of the runs,
//! handed to the verifying `Relation::from_sorted_rows`, not a sort.  A
//! relation that was loaded and never written is returned as the very
//! `Arc` it was loaded from.  The first single-row mutation
//! ([`IndexedRelation::insert_row`] / [`IndexedRelation::remove_row`])
//! puts a row where the order does not say, so it forgets the run
//! boundaries; from then on materialising sorts, unless a mirror (below)
//! is kept.
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
//! verify candidates against the arena (the evaluator's bound-column check).
//!
//! The *membership table* is the same thing for the full row: full-row key
//! → live id.  A relation that starts empty has it from the start.  A bulk
//! load **defers** it: hashing every stored fact of a relation that is only
//! ever scanned or probed is the single largest cost of loading it, and a
//! loaded relation that has not been written since can answer
//! [`IndexedRelation::contains_row`] by binary search on the sorted run it
//! came from.  The table is built when someone needs it —
//! [`IndexedRelation::ensure_membership`], which the planner calls for the
//! targets of `Member` / `NegCheck` steps exactly as it calls
//! [`IndexedRelation::ensure_index`] for probe masks — and before the first
//! mutation of any kind, so that [`IndexedRelation::member_bucket`] is
//! either complete or absent, never partial.
//!
//! Indexes are built lazily (first demand pays the build) and maintained
//! on every append and insertion.  Removal — needed by the incremental
//! session's DRed deletion path — is tombstone-based: the slot is marked
//! dead and left in the index buckets, and readers filter by
//! [`IndexedRelation::is_live`]; once more than half the slots are dead the
//! relation compacts itself, rebuilding arena and indexes without garbage.
//!
//! # The mirror (a session concern)
//!
//! One-shot evaluation never creates one.  The incremental session
//! mutates row by row *and* hands its intensional relations out after
//! every step, so it asks for [`IndexedRelation::snapshot`], which keeps a
//! **mirror** — a copy-on-write [`Relation`] — beside the arena so the next
//! snapshot is an `O(1)` `Arc` clone plus whatever changed in between.
//! While a mirror exists, mutations do **not** touch its sorted run per
//! fact (that would cost `O(n)` each against a flat run): they are buffered
//! as pending add/delete rows and *flushed in one batched linear merge*
//! ([`Relation::merge_rows`]) the next time a snapshot is taken.  Because
//! inserts and removes record only real membership changes, the events for
//! one row strictly alternate, so a row's final membership flips exactly
//! when its event count is odd — the flush sorts the event buffer once and
//! applies the odd-parity rows.

use kbt_data::{Const, Relation, Tuple};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::HashMap;
use std::collections::HashSet;

use crate::fx::{self, FxBuild, KeyAcc};

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

/// A hash bucket of tuple ids, inlining the overwhelmingly common
/// single-occupant case (exact membership keys collide only on true
/// duplicates, which are rejected) so bucket creation does not allocate.
#[derive(Clone, Debug)]
enum IdList {
    One(u32),
    Many(Vec<u32>),
}

impl IdList {
    #[inline]
    fn push(&mut self, id: u32) {
        match self {
            IdList::One(a) => *self = IdList::Many(vec![*a, id]),
            IdList::Many(v) => v.push(id),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            IdList::One(a) => std::slice::from_ref(a),
            IdList::Many(v) => v,
        }
    }

    /// Removes one occurrence of `id`; returns `true` when the bucket is now
    /// empty (the caller drops the map entry).  Bucket order is not
    /// significant — only index buckets (which never remove) are walked in
    /// order.
    fn remove_id(&mut self, id: u32) -> bool {
        match self {
            IdList::One(a) => {
                debug_assert_eq!(*a, id);
                true
            }
            IdList::Many(v) => {
                let pos = v.iter().position(|&x| x == id).expect("id in bucket");
                v.swap_remove(pos);
                v.is_empty()
            }
        }
    }
}

type Buckets = HashMap<u64, IdList, FxBuild>;

/// A relation stored as a flat row arena with hash indexes per demanded
/// binding pattern (see the module docs for layout, the deferred membership
/// table and mirror semantics).
#[derive(Clone, Debug)]
pub struct IndexedRelation {
    arity: usize,
    /// The arity-strided row arena; id `i` occupies `rows[i*arity..][..arity]`
    /// (always empty for arity 0 — the slot count lives in `live`).
    /// Removed rows stay as tombstones until the next compaction.
    rows: Vec<Const>,
    /// Liveness per tuple id (`false` = tombstone).
    live: Vec<bool>,
    /// Number of tombstones.
    dead: usize,
    /// Number of live tuples (`live.len() - dead`).
    live_count: usize,
    /// The membership table: full-row keys to live ids only (doubles as
    /// the full-binding-pattern index).  `None` only on a bulk load nobody
    /// has written to or demanded membership of — see `source`.
    ids: Option<Buckets>,
    /// One hash index per demanded mask (buckets may contain tombstones).
    indexes: Vec<(Mask, Buckets)>,
    /// The end slot of every sorted run the arena is a concatenation of,
    /// while that is all it is: bulk loads and bulk appends push here, the
    /// first single-row mutation sets `None` (see the module docs).  A
    /// recorded run may be empty.
    runs: Option<Vec<u32>>,
    /// The relation a bulk load copied, kept until the first mutation: it
    /// *is* the contents, so it answers membership while `ids` is deferred
    /// and is what [`Self::to_relation`] returns.
    source: Option<Relation>,
    /// Copy-on-write materialised view (see the module docs).
    mirror: Option<Relation>,
    /// Buffered mirror mutations: arity-strided rows actually inserted /
    /// removed since the last flush, with their row counts (the counts carry
    /// the information for arity 0, where rows are empty).
    pending_adds: Vec<Const>,
    pending_add_count: usize,
    pending_dels: Vec<Const>,
    pending_del_count: usize,
    /// Number of times a desynchronised mirror was detected and rebuilt
    /// (see [`Self::snapshot`]).  Always `0` unless a maintenance bug slips
    /// in — the counter exists so a slip is *observable* instead of
    /// silently serving wrong snapshots forever.
    mirror_rebuilds: usize,
}

impl IndexedRelation {
    /// An empty indexed relation of the given arity.
    pub fn new(arity: usize) -> Self {
        IndexedRelation {
            arity,
            rows: Vec::new(),
            live: Vec::new(),
            dead: 0,
            live_count: 0,
            ids: Some(Buckets::default()),
            indexes: Vec::new(),
            runs: Some(Vec::new()),
            source: None,
            mirror: None,
            pending_adds: Vec::new(),
            pending_add_count: 0,
            pending_dels: Vec::new(),
            pending_del_count: 0,
            mirror_rebuilds: 0,
        }
    }

    /// Copies a plain relation into indexed form — a bulk load: the source's
    /// sorted run is copied into the arena in one `memcpy`-shaped move and
    /// recorded as the arena's first run, and nothing is hashed.  Until the
    /// first mutation the source itself (an `Arc` clone) answers membership
    /// and is handed back by [`Self::to_relation`].
    pub fn from_relation(relation: &Relation) -> Self {
        IndexedRelation {
            rows: relation.as_rows().to_vec(),
            live: vec![true; relation.len()],
            live_count: relation.len(),
            ids: None,
            runs: Some(vec![relation.len() as u32]),
            source: Some(relation.clone()),
            ..IndexedRelation::new(relation.arity())
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

    /// Whether the tuple is present (one hash probe plus verification, or a
    /// binary search while the membership table is deferred).
    pub fn contains(&self, t: &Tuple) -> bool {
        t.arity() == self.arity && self.contains_row(t.components())
    }

    /// [`Self::contains`] for a raw row slice.
    pub fn contains_row(&self, row: &[Const]) -> bool {
        match &self.ids {
            Some(_) => self.find_live_id(row).is_some(),
            None => self
                .source
                .as_ref()
                .expect("a deferred membership table implies an unwritten load")
                .contains_row(row),
        }
    }

    /// The membership table; every caller sits behind a mutation or a
    /// demand, both of which build it.
    #[inline]
    fn ids(&self) -> &Buckets {
        self.ids
            .as_ref()
            .expect("membership table built by ensure_membership or the first mutation")
    }

    /// [`Self::ids`] for writing, after [`Self::begin_mutation`].
    fn ids_mut(&mut self) -> &mut Buckets {
        self.ids.as_mut().expect("built by begin_mutation")
    }

    fn find_live_id(&self, row: &[Const]) -> Option<u32> {
        debug_assert_eq!(row.len(), self.arity);
        let bucket = self.ids().get(&fx::row_key(row))?;
        if fx::key_is_exact(self.arity) {
            // packed keys are injective over the full row: any occupant is a
            // true match (membership buckets hold live ids only)
            bucket.as_slice().first().copied()
        } else {
            bucket
                .as_slice()
                .iter()
                .copied()
                .find(|&id| self.row(id) == row)
        }
    }

    /// Iterates over the live rows in insertion (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = &[Const]> + '_ {
        let arity = self.arity;
        self.live
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l)
            .map(move |(id, _)| {
                if arity == 0 {
                    &[]
                } else {
                    &self.rows[id * arity..(id + 1) * arity]
                }
            })
    }

    /// Iterates over the live rows as owned [`Tuple`]s — boundary
    /// convenience; hot paths use [`Self::iter`] row slices.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.iter().map(Tuple::from_row)
    }

    /// The row with the given id (a position returned by a probe); ids of
    /// tombstoned slots still resolve until the next compaction.
    #[inline]
    pub fn row(&self, id: u32) -> &[Const] {
        if self.arity == 0 {
            &[]
        } else {
            let start = id as usize * self.arity;
            &self.rows[start..start + self.arity]
        }
    }

    /// Number of tuple slots, live and tombstoned (the valid id range is
    /// `0..slot_count()`).  The parallel evaluator chunks a driving scan by
    /// splitting this range; iterating a subrange with [`Self::is_live`]
    /// filtering visits exactly the rows [`Self::iter`] would, in the same
    /// order.
    pub fn slot_count(&self) -> u32 {
        self.live.len() as u32
    }

    /// Whether the tuple with the given id is still live.  Index buckets may
    /// contain tombstoned ids until the next compaction, so every consumer of
    /// [`Self::probe_bucket`] must filter through this.
    #[inline]
    pub fn is_live(&self, id: u32) -> bool {
        self.live[id as usize]
    }

    /// Inserts a tuple; returns `true` if it was not already present.  The
    /// tuple's arity must match.
    pub fn insert(&mut self, t: Tuple) -> bool {
        debug_assert_eq!(t.arity(), self.arity, "arity checked by the caller");
        self.insert_row(t.components())
    }

    /// [`Self::insert`] for a raw row slice: the checked single-row write
    /// (extensional deltas, rederivation).  Appends to the arena and updates
    /// every existing index, with no per-tuple boxing; the arena stops being
    /// a concatenation of sorted runs.
    pub fn insert_row(&mut self, row: &[Const]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        if self.contains_row(row) {
            return false;
        }
        self.begin_mutation();
        self.runs = None;
        let id = self.live.len() as u32;
        self.rows.extend_from_slice(row);
        self.live.push(true);
        self.live_count += 1;
        bucket_push(self.ids_mut(), fx::row_key(row), id);
        for (mask, index) in &mut self.indexes {
            bucket_push(index, mask_key(row, *mask), id);
        }
        if self.mirror.is_some() {
            self.pending_adds.extend_from_slice(row);
            self.pending_add_count += 1;
        }
        true
    }

    /// Appends a whole run in one go — the unchecked bulk write behind the
    /// fixpoint's commit.  `run` is sorted and duplicate-free by type; the
    /// caller guarantees that **none of its rows is present** (the commit
    /// filters the round's derivations against this very relation, and
    /// nothing writes in between — see [`crate::eval`]).  One arena extend,
    /// then one membership insert and one bucket push per live index per
    /// row; no second lookup.  The run's end is recorded, so a relation
    /// written only this way materialises by merging.
    ///
    /// Appending a row that is present is a caller bug: debug builds assert,
    /// release builds find out in [`Self::to_relation`], whose merged run
    /// fails verification.
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
        self.begin_mutation();
        let first = self.live.len() as u32;
        self.rows.extend_from_slice(run.as_rows());
        self.live.resize(self.live.len() + run.len(), true);
        self.live_count += run.len();
        let ids = self.ids_mut();
        ids.reserve(run.len());
        for (id, row) in (first..).zip(run.iter()) {
            bucket_push(ids, fx::row_key(row), id);
        }
        for (mask, index) in &mut self.indexes {
            for (id, row) in (first..).zip(run.iter()) {
                bucket_push(index, mask_key(row, *mask), id);
            }
        }
        if let Some(runs) = &mut self.runs {
            runs.push(self.live.len() as u32);
        }
        if self.mirror.is_some() {
            self.pending_adds.extend_from_slice(run.as_rows());
            self.pending_add_count += run.len();
        }
    }

    /// What every mutation does first: the contents are about to stop being
    /// the load's source, so the membership table must exist and the source
    /// must go.
    fn begin_mutation(&mut self) {
        self.ensure_membership();
        self.source = None;
    }

    /// Removes a tuple, returning `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if t.arity() != self.arity {
            return false;
        }
        self.remove_row(t.components())
    }

    /// [`Self::remove`] for a raw row slice.  The slot becomes a tombstone;
    /// index buckets are cleaned up lazily by compaction, which runs
    /// automatically once tombstones outnumber live rows.
    pub fn remove_row(&mut self, row: &[Const]) -> bool {
        if !self.contains_row(row) {
            return false;
        }
        self.begin_mutation();
        self.runs = None;
        let id = self.find_live_id(row).expect("present, checked above");
        let key = fx::row_key(row);
        let ids = self.ids_mut();
        if ids.get_mut(&key).expect("bucket found above").remove_id(id) {
            ids.remove(&key);
        }
        self.live[id as usize] = false;
        self.dead += 1;
        self.live_count -= 1;
        if self.mirror.is_some() {
            self.pending_dels.extend_from_slice(row);
            self.pending_del_count += 1;
        }
        if self.dead * 2 > self.live.len() {
            self.compact();
        }
        true
    }

    /// Drops every tuple while keeping the demanded index masks alive (with
    /// empty buckets), so existing plans can still probe after a reset.  An
    /// empty arena is a concatenation of zero runs, so bulk appends after a
    /// clear are merged again.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.live.clear();
        self.dead = 0;
        self.live_count = 0;
        self.ids.get_or_insert_default().clear();
        for (_, index) in &mut self.indexes {
            index.clear();
        }
        self.runs = Some(Vec::new());
        self.source = None;
        // the mirror is set to the true (empty) contents directly, so any
        // buffered events are obsolete
        self.pending_adds.clear();
        self.pending_add_count = 0;
        self.pending_dels.clear();
        self.pending_del_count = 0;
        if let Some(mirror) = &mut self.mirror {
            *mirror = Relation::empty(self.arity);
        }
    }

    /// Rebuilds the arena and all indexes without tombstones (live rows keep
    /// their relative order, so scan order is unchanged).
    fn compact(&mut self) {
        let arity = self.arity;
        let old_rows = std::mem::take(&mut self.rows);
        let old_live = std::mem::take(&mut self.live);
        self.rows = Vec::with_capacity(self.live_count * arity);
        for (id, alive) in old_live.iter().enumerate() {
            if *alive && arity > 0 {
                self.rows
                    .extend_from_slice(&old_rows[id * arity..(id + 1) * arity]);
            }
        }
        self.live = vec![true; self.live_count];
        self.dead = 0;
        self.ids = Some(self.build_membership());
        for (_, index) in &mut self.indexes {
            index.clear();
        }
        for i in 0..self.indexes.len() {
            let mask = self.indexes[i].0;
            for id in 0..self.live_count as u32 {
                let key = mask_key(self.row_raw(id), mask);
                bucket_push(&mut self.indexes[i].1, key, id);
            }
        }
    }

    /// `row()` without the borrow of `self.indexes` (compaction helper).
    #[inline]
    fn row_raw(&self, id: u32) -> &[Const] {
        if self.arity == 0 {
            &[]
        } else {
            &self.rows[id as usize * self.arity..(id as usize + 1) * self.arity]
        }
    }

    /// Builds the membership table if a bulk load deferred it (see the
    /// module docs).  Called by the planner's demand pass for every relation
    /// a `Member` / `NegCheck` step targets, by sessions for every relation
    /// their plans read, and by every mutation.
    pub fn ensure_membership(&mut self) {
        if self.ids.is_none() {
            self.ids = Some(self.build_membership());
        }
    }

    /// The membership table of an arena without tombstones (a load nobody
    /// has written to, or one just compacted).
    fn build_membership(&self) -> Buckets {
        debug_assert_eq!(self.dead, 0);
        let mut ids = Buckets::with_capacity_and_hasher(self.live.len(), FxBuild::default());
        for id in 0..self.live.len() as u32 {
            bucket_push(&mut ids, fx::row_key(self.row_raw(id)), id);
        }
        ids
    }

    /// Whether the membership table exists (for tests and diagnostics).
    pub fn has_membership(&self) -> bool {
        self.ids.is_some()
    }

    /// Builds the index for `mask` if it does not exist yet.
    pub fn ensure_index(&mut self, mask: Mask) {
        if mask == 0 || self.indexes.iter().any(|(m, _)| *m == mask) {
            return;
        }
        let mut index = Buckets::default();
        for id in 0..self.live.len() as u32 {
            if self.live[id as usize] {
                bucket_push(&mut index, mask_key(self.row_raw(id), mask), id);
            }
        }
        self.indexes.push((mask, index));
    }

    /// The raw id bucket for a probe key on `mask` (compute the key with
    /// [`KeyAcc`] / [`mask_key`]).  The bucket may contain tombstoned ids —
    /// filter with [`Self::is_live`] — and, for hashed (> 2 column) keys,
    /// false positives — verify the bound columns against [`Self::row`].
    /// The index for `mask` must have been demanded with
    /// [`Self::ensure_index`] beforehand — the planner collects every mask a
    /// plan needs, so a missing index is an engine bug, not a user error.
    #[inline]
    pub fn probe_bucket(&self, mask: Mask, key: u64) -> &[u32] {
        let index = self
            .indexes
            .iter()
            .find(|(m, _)| *m == mask)
            .map(|(_, idx)| idx)
            .expect("index demanded by the planner before evaluation");
        index.get(&key).map_or(&[], IdList::as_slice)
    }

    /// The raw membership bucket for a full-row key (live ids only; for
    /// hashed keys — arity > 2 — verify candidates against [`Self::row`]).
    /// Like a probe index, the membership table of a loaded relation must
    /// have been demanded with [`Self::ensure_membership`] beforehand.
    #[inline]
    pub fn member_bucket(&self, key: u64) -> &[u32] {
        self.ids().get(&key).map_or(&[], IdList::as_slice)
    }

    /// Diagnostic probe: the live ids whose projection onto `mask` equals
    /// `key`, verified against the arena.  Tests and one-off lookups only —
    /// the evaluator uses [`Self::probe_bucket`] with an incrementally
    /// computed key and allocates nothing.
    pub fn probe(&self, mask: Mask, key: &[Const]) -> Vec<u32> {
        let mut acc = KeyAcc::new(key.len());
        for &c in key {
            acc.push(c);
        }
        self.probe_bucket(mask, acc.finish())
            .iter()
            .copied()
            .filter(|&id| {
                self.is_live(id) && {
                    let row = self.row(id);
                    let mut m = mask;
                    let mut k = 0;
                    let mut ok = true;
                    while m != 0 {
                        let col = m.trailing_zeros() as usize;
                        if row[col] != key[k] {
                            ok = false;
                            break;
                        }
                        k += 1;
                        m &= m - 1;
                    }
                    ok
                }
            })
            .collect()
    }

    /// Number of materialised indexes (for tests and diagnostics).
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Number of tombstoned slots (for tests and diagnostics).
    pub fn tombstone_count(&self) -> usize {
        self.dead
    }

    fn pending_empty(&self) -> bool {
        self.pending_add_count == 0 && self.pending_del_count == 0
    }

    /// Applies the buffered mirror mutations in one batched merge (see the
    /// module docs for the parity argument).
    fn flush_mirror(&mut self) {
        if self.pending_empty() {
            return;
        }
        let mut events = std::mem::take(&mut self.pending_adds);
        let dels = std::mem::take(&mut self.pending_dels);
        let total = self.pending_add_count + self.pending_del_count;
        self.pending_add_count = 0;
        self.pending_del_count = 0;
        let Some(mirror) = &self.mirror else {
            return; // pending is only recorded while a mirror exists
        };
        if self.arity == 0 {
            self.mirror =
                Some(Relation::from_rows(0, Vec::new(), self.live_count).expect("flag relation"));
            return;
        }
        events.extend_from_slice(&dels);
        let arity = self.arity;
        let row_at = |i: u32| &events[i as usize * arity..(i as usize + 1) * arity];
        let mut order: Vec<u32> = (0..total as u32).collect();
        order.sort_unstable_by(|&a, &b| row_at(a).cmp(row_at(b)));
        let mut adds: Vec<Const> = Vec::new();
        let mut del_run: Vec<Const> = Vec::new();
        let mut i = 0usize;
        while i < total {
            let row = row_at(order[i]);
            let mut j = i + 1;
            while j < total && row_at(order[j]) == row {
                j += 1;
            }
            // events per row strictly alternate insert/remove, so odd count
            // ⇔ final membership differs from the mirror's current state
            if (j - i) % 2 == 1 {
                if mirror.contains_row(row) {
                    del_run.extend_from_slice(row);
                } else {
                    adds.extend_from_slice(row);
                }
            }
            i = j;
        }
        self.mirror = Some(
            mirror
                .merge_rows(&adds, &del_run)
                .expect("pending rows share the relation's arity"),
        );
    }

    /// Whether the maintained mirror can be trusted.  A full content
    /// comparison would cost `O(n)` per snapshot, so this is the cheap
    /// necessary condition — no unflushed events and a matching live count —
    /// checked **in release builds too**: every mirror update path changes
    /// the live count in lockstep, so any maintenance bug that adds, drops
    /// or duplicates a mirror row shows up here.
    fn mirror_in_sync(&self) -> bool {
        self.pending_empty()
            && self
                .mirror
                .as_ref()
                .is_some_and(|m| m.len() == self.live_count)
    }

    /// Materialises the live contents from the arena, mirror or no mirror
    /// (it is also the reference the mirror is resynced from): a merge of
    /// the recorded runs while the arena is nothing but runs, a full sort
    /// once a single-row mutation has forgotten them.
    fn rebuild_relation(&self) -> Relation {
        if self.arity == 0 {
            return Relation::from_rows(0, Vec::new(), self.live_count).expect("flag relation");
        }
        let Some(ends) = &self.runs else {
            let mut buf = Vec::with_capacity(self.live_count * self.arity);
            for row in self.iter() {
                buf.extend_from_slice(row);
            }
            return Relation::from_rows(self.arity, buf, self.live_count)
                .expect("the arena is arity-strided by construction");
        };
        // runs ⇒ no removal ever happened ⇒ every slot is live
        debug_assert_eq!(self.dead, 0);
        let arity = self.arity;
        let row_at = |slot: u32| &self.rows[slot as usize * arity..][..arity];
        // (next slot, end slot) per non-empty run
        let mut cursors: Vec<(u32, u32)> = std::iter::once(0)
            .chain(ends.iter().copied())
            .zip(ends.iter().copied())
            .filter(|(start, end)| start < end)
            .collect();
        let merged = if cursors.len() <= 1 {
            self.rows.clone()
        } else {
            let mut heap: BinaryHeap<Reverse<(&[Const], usize)>> = cursors
                .iter()
                .enumerate()
                .map(|(run, &(start, _))| Reverse((row_at(start), run)))
                .collect();
            let mut merged = Vec::with_capacity(self.rows.len());
            while let Some(mut top) = heap.peek_mut() {
                let Reverse((row, run)) = *top;
                merged.extend_from_slice(row);
                let (next, end) = &mut cursors[run];
                *next += 1;
                if *next < *end {
                    *top = Reverse((row_at(*next), run));
                } else {
                    PeekMut::pop(top);
                }
            }
            merged
        };
        Relation::from_sorted_rows(arity, merged)
            .expect("every appended run is sorted and disjoint from the runs before it")
    }

    /// The live contents as a plain relation: the load's source while
    /// nothing has been written, an `O(1)` clone of the mirror when one is
    /// maintained, fully flushed *and in sync*, otherwise a rebuild from the
    /// arena (`rebuild_relation`: a merge while the arena is
    /// all runs).  A desynchronised mirror is never served — in debug
    /// builds it also trips an assertion so the maintenance bug gets fixed
    /// rather than papered over.  (Callers holding `&mut self` and coming
    /// back for more should prefer [`Self::snapshot`], which keeps the
    /// result as the mirror.)
    pub fn to_relation(&self) -> Relation {
        if let Some(source) = &self.source {
            return source.clone();
        }
        if self.pending_empty() {
            if let Some(mirror) = &self.mirror {
                debug_assert_eq!(mirror.len(), self.live_count, "mirror out of sync");
                if mirror.len() == self.live_count {
                    return mirror.clone();
                }
            }
        }
        self.rebuild_relation()
    }

    /// Like [`Self::to_relation`], but flushes buffered mirror events and
    /// enables the mirror first, so *every* later snapshot of this relation
    /// (until its contents are rebuilt wholesale) costs one batched merge
    /// over the mutations since the previous snapshot — `O(1)` when there
    /// were none.
    ///
    /// If an existing mirror fails the release-mode sync check it is
    /// rebuilt from the arena here and the event is counted in
    /// [`Self::mirror_rebuilds`] — readers can never be handed a stale
    /// snapshot, and operators can see that the invariant tripped.
    pub fn snapshot(&mut self) -> Relation {
        self.flush_mirror();
        if self.mirror.is_some() && !self.mirror_in_sync() {
            self.mirror = None;
            self.mirror_rebuilds += 1;
        }
        if self.mirror.is_none() {
            self.mirror = Some(self.to_relation());
        }
        self.mirror.clone().expect("just ensured")
    }

    /// Number of times [`Self::snapshot`] found the mirror desynchronised
    /// and rebuilt it (zero in a correct engine).
    pub fn mirror_rebuilds(&self) -> usize {
        self.mirror_rebuilds
    }

    /// The live tuples as a hash set (boundary convenience for differential
    /// tests; hot paths stay on row slices).
    pub fn to_set(&self) -> HashSet<Tuple> {
        self.tuples().collect()
    }

    /// Test-only: forcibly desynchronises the mirror (drops one mirror
    /// row behind the store's back) so the release-mode recovery path of
    /// [`Self::snapshot`] can be exercised.
    #[cfg(test)]
    fn corrupt_mirror_for_test(&mut self) {
        let mirror = self.mirror.as_mut().expect("mirror must exist");
        let victim: Vec<Const> = mirror
            .iter()
            .next()
            .expect("mirror must be non-empty")
            .to_vec();
        mirror.remove_row(&victim);
    }
}

#[inline]
fn bucket_push(buckets: &mut Buckets, key: u64, id: u32) {
    buckets
        .entry(key)
        .and_modify(|b| b.push(id))
        .or_insert(IdList::One(id));
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
        // reflects them — and both come from the maintained mirror.
        r.insert(tuple![9, 9]);
        r.remove(&tuple![1, 2]);
        assert_eq!(snap1.len(), 3, "outstanding snapshot must be frozen");
        let snap2 = r.snapshot();
        assert_eq!(snap2.len(), 3);
        assert!(snap2.contains(&tuple![9, 9]));
        assert!(!snap2.contains(&tuple![1, 2]));
        assert_eq!(snap2, r.to_relation());
        // and the mirror agrees with a from-scratch rebuild
        let rebuilt = kbt_data::Relation::from_tuples(r.arity(), r.tuples()).unwrap();
        assert_eq!(snap2, rebuilt);
    }

    #[test]
    fn batched_mirror_handles_insert_remove_cycles() {
        // parity bookkeeping: insert+remove (even) is a no-op, and
        // remove+insert of a pre-existing row is too
        let mut r = sample();
        let snap1 = r.snapshot();
        r.insert(tuple![9, 9]);
        r.remove(&tuple![9, 9]);
        r.remove(&tuple![1, 2]);
        r.insert(tuple![1, 2]);
        let snap2 = r.snapshot();
        assert_eq!(snap1, snap2);
        // odd parity flips
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
        // with a mirror kept, a later run is flushed into it
        r.append_run(&run2(&[(0, 0)]));
        assert_eq!(r.snapshot().len(), 7);
        assert_eq!(r.snapshot().row(0), &[Const::new(0), Const::new(0)]);
        assert_eq!(r.mirror_rebuilds(), 0);
        // a single-row write ends the merging, not the correctness
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
    fn compaction_preserves_the_mirror() {
        let mut r = sample();
        r.ensure_index(0b01);
        let _ = r.snapshot();
        r.remove(&tuple![1, 2]);
        r.remove(&tuple![1, 3]); // triggers compaction
        assert_eq!(r.tombstone_count(), 0);
        assert_eq!(r.snapshot().len(), 1);
        assert!(r.snapshot().contains(&tuple![2, 3]));
    }

    #[test]
    fn desynced_mirror_is_rebuilt_not_served() {
        // A maintenance bug that desynchronises the mirror must never reach
        // readers: `snapshot` detects the length mismatch (release-mode
        // check), rebuilds the mirror from the arena, and counts the event
        // so it is observable.
        let mut r = sample();
        let _ = r.snapshot();
        assert_eq!(r.mirror_rebuilds(), 0);
        r.corrupt_mirror_for_test();
        let snap = r.snapshot();
        assert_eq!(r.mirror_rebuilds(), 1);
        let rebuilt = Relation::from_tuples(r.arity(), r.tuples()).unwrap();
        assert_eq!(snap, rebuilt, "recovered snapshot must match the store");
        // and the rebuilt mirror is maintained again from here on
        r.insert(tuple![7, 7]);
        assert_eq!(r.snapshot().len(), 4);
        assert_eq!(r.mirror_rebuilds(), 1);
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
