//! Finite relations: sets of tuples of a fixed arity, stored as flat
//! sorted runs.
//!
//! # Storage layout
//!
//! A relation of arity `k` keeps its tuples as one arity-strided
//! `Vec<Const>` behind an `Arc`: row `i` occupies `rows[i*k .. (i+1)*k]`,
//! rows are sorted lexicographically and deduplicated (a *sorted run*).  There is no
//! per-tuple allocation and no tree of pointers — scans are linear walks
//! over one contiguous buffer, membership is a binary search over row
//! chunks, and the set algebra (union, intersection, difference, symmetric
//! difference) runs as linear merges of two sorted runs.
//!
//! Zero-arity "flag" relations (the paper's boolean relations, e.g. `R4`
//! in Example 3) store no row data at all: `rows` stays empty and the
//! separate `len` field (0 or 1) says whether the empty tuple is present.
//!
//! # Copy-on-write and unsharing
//!
//! Cloning a relation bumps the `Arc`'s reference count; equality,
//! ordering and hashing compare *contents*, so sharing is unobservable.
//! Mutations unshare lazily:
//!
//! * no-op mutations (inserting a present row, removing an absent one)
//!   never copy;
//! * `insert`/`remove` on a shared run copy it once (`Arc::make_mut`) and
//!   then splice in place;
//! * the bulk merge operations always build a fresh run, so outstanding
//!   clones are never disturbed.
//!
//! # What a run owns besides its rows
//!
//! A run never changes once it is shared, so whatever another layer
//! builds over its rows holds for as long as the run lives.  Each run
//! therefore carries a small cache of such values ([`Relation::cached`]):
//! the query engine keeps the hash indexes of a stored relation there, so
//! every read of every epoch that still holds the run — a commit that
//! leaves a relation untouched hands the next epoch the very same `Arc` —
//! probes one index built once.  The cache lives and dies with the run:
//! there is nothing to evict and no size to set.  An `insert`/`remove`
//! that writes a uniquely owned run in place drops its cache, and the copy
//! a shared run is unshared into starts with none.  Equality, ordering and
//! hashing ignore the cache.
//!
//! [`Tuple`] survives as the boundary/view type: parsing, rendering and
//! the public fact APIs still speak tuples, while the engine's hot paths
//! consume `&[Const]` row slices straight out of the run.

use std::any::{Any, TypeId};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::error::DataError;
use crate::tuple::Tuple;
use crate::value::Const;
use crate::Result;

/// A finite relation `r ⊆ A^k`, stored as an arity-strided sorted run.
///
/// The arity is fixed at construction time so that empty relations still know
/// their arity (the paper's zero-ary "flag" relations rely on this).  See the
/// [module docs](self) for the storage layout and copy-on-write rules.
// Field order is load-bearing: the derived `Ord` compares `arity`, then the
// concatenated sorted rows, then `len`.  For equal arities the flat rows
// compare exactly like the old lexicographic sequence-of-tuples order (rows
// are fixed-width, so the element-wise walk hits the first differing tuple
// at the same position, and a strict prefix is shorter); `len` only breaks
// the zero-arity tie, where `rows` is empty for both operands.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Relation {
    arity: usize,
    rows: Arc<Run>,
    len: usize,
}

/// A sorted run's row buffer and what was built over it (see the module
/// docs).  Equality, ordering and hashing see the rows alone, and a clone
/// — the copy-on-write copy — starts with nothing cached.
#[derive(Default)]
struct Run {
    rows: Vec<Const>,
    cache: Mutex<Vec<CacheSlot>>,
}

/// One value cached on a run: its type, its key, and the cell it is built
/// into once.  The cell holds a `OnceLock<Arc<T>>`; it is shared so that a
/// build runs outside the lock that finds the cell.
struct CacheSlot {
    type_id: TypeId,
    key: u32,
    cell: Arc<dyn Any + Send + Sync>,
}

impl Run {
    fn new(rows: Vec<Const>) -> Self {
        Run {
            rows,
            cache: Mutex::default(),
        }
    }
}

impl std::ops::Deref for Run {
    type Target = [Const];

    fn deref(&self) -> &[Const] {
        &self.rows
    }
}

impl Clone for Run {
    fn clone(&self) -> Self {
        Run::new(self.rows.clone())
    }
}

impl PartialEq for Run {
    fn eq(&self, other: &Run) -> bool {
        self.rows == other.rows
    }
}

impl Eq for Run {}

impl PartialOrd for Run {
    fn partial_cmp(&self, other: &Run) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Run {
    fn cmp(&self, other: &Run) -> Ordering {
        self.rows.cmp(&other.rows)
    }
}

impl Hash for Run {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rows.hash(state);
    }
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation {
            arity,
            rows: Arc::new(Run::new(Vec::new())),
            len: 0,
        }
    }

    /// Creates a relation of the given arity from an iterator of tuples.
    ///
    /// Fails if any tuple has the wrong arity.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Result<Self> {
        let mut rows = Vec::new();
        let mut count = 0usize;
        for t in tuples {
            if t.arity() != arity {
                return Err(DataError::TupleArityMismatch {
                    expected: arity,
                    found: t.arity(),
                });
            }
            rows.extend_from_slice(t.components());
            count += 1;
        }
        Ok(Relation::from_row_buf(arity, rows, count))
    }

    /// Bulk constructor from a flat, arity-strided row buffer in **any**
    /// order, possibly with duplicates: sorts and deduplicates once.  Fails
    /// if the buffer length is not a multiple of the arity (for arity 0 the
    /// buffer must be empty and `rows_len` gives the number of empty-tuple
    /// insertions).
    pub fn from_rows(arity: usize, rows: Vec<Const>, rows_len: usize) -> Result<Self> {
        if arity == 0 {
            if !rows.is_empty() {
                return Err(DataError::TupleArityMismatch {
                    expected: 0,
                    found: 1,
                });
            }
        } else if rows.len() != arity * rows_len {
            return Err(DataError::TupleArityMismatch {
                expected: arity,
                found: rows.len() % arity,
            });
        }
        Ok(Relation::from_row_buf(arity, rows, rows_len))
    }

    /// Trusted bulk constructor: `rows` must already be a sorted,
    /// deduplicated, arity-strided run.  This is the loaders' fast path —
    /// the invariant is verified (cheaply, one linear scan) and violations
    /// are reported as [`DataError::UnsortedRows`] instead of silently
    /// corrupting the relation.
    pub fn from_sorted_rows(arity: usize, rows: Vec<Const>) -> Result<Self> {
        if arity == 0 {
            if !rows.is_empty() {
                return Err(DataError::TupleArityMismatch {
                    expected: 0,
                    found: 1,
                });
            }
            return Ok(Relation::empty(0));
        }
        if !rows.len().is_multiple_of(arity) {
            return Err(DataError::TupleArityMismatch {
                expected: arity,
                found: rows.len() % arity,
            });
        }
        let len = rows.len() / arity;
        for w in 1..len {
            let prev = &rows[(w - 1) * arity..w * arity];
            let next = &rows[w * arity..(w + 1) * arity];
            if prev >= next {
                return Err(DataError::UnsortedRows { position: w });
            }
        }
        Ok(Relation {
            arity,
            rows: Arc::new(Run::new(rows)),
            len,
        })
    }

    /// Builds from an unsorted (possibly duplicated) row buffer: sort rows
    /// as fixed-width chunks, dedup, done.
    fn from_row_buf(arity: usize, mut rows: Vec<Const>, count: usize) -> Self {
        if arity == 0 {
            return Relation {
                arity,
                rows: Arc::new(Run::new(Vec::new())),
                len: usize::from(count > 0),
            };
        }
        debug_assert_eq!(rows.len(), arity * count);
        let sorted = sort_dedup_rows(&mut rows, arity);
        rows.truncate(sorted * arity);
        Relation {
            arity,
            rows: Arc::new(Run::new(rows)),
            len: sorted,
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw sorted run: `len() * arity()` constants, row-major.  Empty
    /// for zero-arity relations regardless of [`Self::len`].
    pub fn as_rows(&self) -> &[Const] {
        &self.rows
    }

    /// Row `i` of the sorted run (`i < len()`); the empty slice for
    /// zero-arity relations.
    pub fn row(&self, i: usize) -> &[Const] {
        if self.arity == 0 {
            debug_assert!(i < self.len);
            &[]
        } else {
            &self.rows[i * self.arity..(i + 1) * self.arity]
        }
    }

    /// Binary search for a row: `Ok(index)` if present, `Err(insertion)` if
    /// absent.  Zero-arity relations treat the empty row as index 0.
    fn find_row(&self, row: &[Const]) -> std::result::Result<usize, usize> {
        if self.arity == 0 {
            return if self.len == 1 { Ok(0) } else { Err(0) };
        }
        let arity = self.arity;
        let rows = &self.rows[..];
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match rows[mid * arity..(mid + 1) * arity].cmp(row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// The position of `row` in the sorted run (`Some(i)` iff
    /// [`Self::row`]`(i) == row`), by binary search.  A row of the wrong
    /// length is absent.
    pub fn position(&self, row: &[Const]) -> Option<usize> {
        if row.len() != self.arity {
            return None;
        }
        self.find_row(row).ok()
    }

    /// The rows for writing: a shared run is copied once
    /// (`Arc::make_mut`), and a run written in place drops what was cached
    /// on it.
    fn rows_mut(&mut self) -> &mut Vec<Const> {
        let run = Arc::make_mut(&mut self.rows);
        run.cache = Mutex::default();
        &mut run.rows
    }

    /// The value of type `T` cached on this relation's run under `key`,
    /// built by `build` the first time a holder of the run asks for it (see
    /// the module docs).  Concurrent first demands build it once: the
    /// others wait for that build.  `build` must depend on the run's rows
    /// alone — [`Self::as_rows`] — since every clone sharing the run gets
    /// the same value; a zero-arity relation's run has no rows, so nothing
    /// about its contents belongs in its cache.
    pub fn cached<T: Any + Send + Sync>(
        &self,
        key: u32,
        build: impl FnOnce(&Relation) -> T,
    ) -> Arc<T> {
        let type_id = TypeId::of::<T>();
        let cell = {
            let mut slots = self
                .rows
                .cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match slots.iter().find(|s| s.type_id == type_id && s.key == key) {
                Some(slot) => slot.cell.clone(),
                None => {
                    let cell: Arc<dyn Any + Send + Sync> = Arc::new(OnceLock::<Arc<T>>::new());
                    slots.push(CacheSlot {
                        type_id,
                        key,
                        cell: cell.clone(),
                    });
                    cell
                }
            }
        };
        let cell = cell
            .downcast::<OnceLock<Arc<T>>>()
            .expect("a slot holds the type it is keyed by");
        cell.get_or_init(|| Arc::new(build(self))).clone()
    }

    /// Inserts a tuple; returns `true` if it was not already present.
    ///
    /// Copy-on-write: a redundant insertion never copies a shared run; a
    /// real insertion into a shared run copies it once, then splices.  Note
    /// the splice is `O(n)` — bulk loads should use [`Self::from_rows`] /
    /// [`Self::from_sorted_rows`] or the merge operations instead of a loop
    /// of single inserts.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.arity {
            return Err(DataError::TupleArityMismatch {
                expected: self.arity,
                found: t.arity(),
            });
        }
        Ok(self.insert_row(t.components()))
    }

    /// [`Self::insert`] for a raw row slice (length must equal the arity,
    /// which the caller has already checked).
    pub fn insert_row(&mut self, row: &[Const]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        match self.find_row(row) {
            Ok(_) => false,
            Err(at) => {
                if self.arity > 0 {
                    let insert_at = at * self.arity;
                    let rows = self.rows_mut();
                    rows.splice(insert_at..insert_at, row.iter().copied());
                }
                self.len += 1;
                true
            }
        }
    }

    /// Removes a tuple; returns `true` if it was present.  Copy-on-write
    /// like [`Self::insert`]: removing an absent tuple never copies.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if t.arity() != self.arity {
            return false;
        }
        self.remove_row(t.components())
    }

    /// [`Self::remove`] for a raw row slice.
    pub fn remove_row(&mut self, row: &[Const]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        match self.find_row(row) {
            Err(_) => false,
            Ok(at) => {
                if self.arity > 0 {
                    let (start, arity) = (at * self.arity, self.arity);
                    self.rows_mut().drain(start..start + arity);
                }
                self.len -= 1;
                true
            }
        }
    }

    /// Whether the tuple is present (galloping/binary search over the run).
    pub fn contains(&self, t: &Tuple) -> bool {
        t.arity() == self.arity && self.find_row(t.components()).is_ok()
    }

    /// Whether the raw row is present.  A row of the wrong length is
    /// simply absent (mirroring [`Relation::contains`]).
    pub fn contains_row(&self, row: &[Const]) -> bool {
        row.len() == self.arity && self.find_row(row).is_ok()
    }

    /// Iterates over the rows in canonical (sorted) order as `&[Const]`
    /// slices.  Zero-arity relations yield `len()` empty slices.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            rows: &self.rows,
            arity: self.arity,
            remaining: self.len,
        }
    }

    /// Iterates over the rows as owned [`Tuple`]s — the boundary
    /// convenience for callers that render or store facts; hot paths should
    /// iterate [`Self::iter`] rows instead.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.iter().map(Tuple::from_row)
    }

    /// All constants occurring in the relation.
    pub fn constants(&self) -> BTreeSet<Const> {
        self.rows.iter().copied().collect()
    }

    /// Set union (same arity assumed; checked).  `O(n + m)` merge of the
    /// two sorted runs; when one side is empty the other's run is shared,
    /// not copied.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        self.check_same_arity(other)?;
        if self.arity == 0 {
            return Ok(Relation::flag(self.len.max(other.len)));
        }
        if self.is_empty() || Arc::ptr_eq(&self.rows, &other.rows) {
            return Ok(other.clone());
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        let arity = self.arity;
        let mut out = Vec::with_capacity(self.rows.len().max(other.rows.len()));
        let mut count = 0usize;
        let mut merge = MergeRows::new(&self.rows, &other.rows, arity);
        while let Some((row, _)) = merge.next() {
            out.extend_from_slice(row);
            count += 1;
        }
        Ok(Relation {
            arity,
            rows: Arc::new(Run::new(out)),
            len: count,
        })
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Relation) -> Result<Relation> {
        self.check_same_arity(other)?;
        if self.arity == 0 {
            return Ok(Relation::flag(self.len.min(other.len)));
        }
        if Arc::ptr_eq(&self.rows, &other.rows) {
            return Ok(self.clone());
        }
        if self.is_empty() || other.is_empty() {
            return Ok(Relation::empty(self.arity));
        }
        let arity = self.arity;
        let mut out = Vec::new();
        let mut count = 0usize;
        let mut merge = MergeRows::new(&self.rows, &other.rows, arity);
        while let Some((row, from)) = merge.next() {
            if from == MergeSide::Both {
                out.extend_from_slice(row);
                count += 1;
            }
        }
        Ok(Relation {
            arity,
            rows: Arc::new(Run::new(out)),
            len: count,
        })
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        self.check_same_arity(other)?;
        if self.arity == 0 {
            return Ok(Relation::flag(if other.len == 0 { self.len } else { 0 }));
        }
        if Arc::ptr_eq(&self.rows, &other.rows) {
            return Ok(Relation::empty(self.arity));
        }
        if self.is_empty() || other.is_empty() {
            return Ok(self.clone());
        }
        let arity = self.arity;
        let mut out = Vec::new();
        let mut count = 0usize;
        let mut merge = MergeRows::new(&self.rows, &other.rows, arity);
        while let Some((row, from)) = merge.next() {
            if from == MergeSide::Left {
                out.extend_from_slice(row);
                count += 1;
            }
        }
        Ok(Relation {
            arity,
            rows: Arc::new(Run::new(out)),
            len: count,
        })
    }

    /// Symmetric difference `self Δ other = (self \ other) ∪ (other \ self)`,
    /// the building block of the Winslett order (Definition 2.1).
    pub fn symmetric_difference(&self, other: &Relation) -> Result<Relation> {
        self.check_same_arity(other)?;
        if self.arity == 0 {
            return Ok(Relation::flag(self.len ^ other.len));
        }
        if Arc::ptr_eq(&self.rows, &other.rows) {
            return Ok(Relation::empty(self.arity));
        }
        let arity = self.arity;
        let mut out = Vec::new();
        let mut count = 0usize;
        let mut merge = MergeRows::new(&self.rows, &other.rows, arity);
        while let Some((row, from)) = merge.next() {
            if from != MergeSide::Both {
                out.extend_from_slice(row);
                count += 1;
            }
        }
        Ok(Relation {
            arity,
            rows: Arc::new(Run::new(out)),
            len: count,
        })
    }

    /// Applies a batch update in one linear merge: returns
    /// `(self \ dels) ∪ adds`.  Both `adds` and `dels` must be sorted,
    /// deduplicated, arity-strided runs, and they must be disjoint from each
    /// other; `adds ∩ self` and `dels \ self` are tolerated (redundant adds
    /// and misses are skipped).  This is how the engine's indexed relations
    /// materialise — the last run handed out, plus the rows appended and
    /// minus the rows tombstoned since: a whole delta's worth of mutations
    /// costs one `O(n + a + d)` pass instead of `O(n)` per fact, and the
    /// fresh run never disturbs outstanding copy-on-write snapshots.
    pub fn merge_rows(&self, adds: &[Const], dels: &[Const]) -> Result<Relation> {
        if self.arity == 0 {
            // adds/dels are disjoint runs of the empty row: at most one of
            // them is non-empty (receiving both would be a caller bug).
            debug_assert!(adds.is_empty() || dels.is_empty());
            let len = if !adds.is_empty() {
                1
            } else if !dels.is_empty() {
                0
            } else {
                self.len
            };
            return Ok(Relation::flag(len));
        }
        if !adds.len().is_multiple_of(self.arity) || !dels.len().is_multiple_of(self.arity) {
            return Err(DataError::TupleArityMismatch {
                expected: self.arity,
                found: (adds.len().max(dels.len())) % self.arity,
            });
        }
        if adds.is_empty() && dels.is_empty() {
            return Ok(self.clone());
        }
        let arity = self.arity;
        let mut out = Vec::with_capacity(self.rows.len() + adds.len());
        let mut count = 0usize;
        let mut dels = RowCursor::new(dels, arity);
        // 3-way merge: walk (self ∪ adds) in order, dropping rows matched
        // by the deletion cursor.
        let mut merge = MergeRows::new(&self.rows, adds, arity);
        while let Some((row, _from)) = merge.next() {
            if dels.skip_to(row) {
                continue;
            }
            out.extend_from_slice(row);
            count += 1;
        }
        Ok(Relation {
            arity,
            rows: Arc::new(Run::new(out)),
            len: count,
        })
    }

    /// Whether both relations share the same underlying run — an `O(1)`
    /// pointer check proving identical contents without comparing a single
    /// row.  Copy-on-write keeps untouched relations on the same `Arc`
    /// across database clones, so diff-style callers use this to skip
    /// whole relations; `false` only means "unknown", never "different".
    pub fn shares_rows(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.len == other.len && Arc::ptr_eq(&self.rows, &other.rows)
    }

    /// Whether `self ⊆ other`.  Gallops (binary-searches each of this
    /// relation's rows) when this side is much smaller, otherwise runs a
    /// linear merge walk.
    pub fn is_subset(&self, other: &Relation) -> bool {
        if self.arity != other.arity || self.len > other.len {
            return false;
        }
        if self.arity == 0 || self.is_empty() {
            return true;
        }
        if Arc::ptr_eq(&self.rows, &other.rows) {
            return true;
        }
        // galloping pays off when |self| * log|other| < |self| + |other|
        let log_other = (usize::BITS - other.len.leading_zeros()) as usize;
        if self.len * log_other < self.len + other.len {
            return self.iter().all(|row| other.contains_row(row));
        }
        let mut merge = MergeRows::new(&self.rows, &other.rows, self.arity);
        while let Some((_, from)) = merge.next() {
            if from == MergeSide::Left {
                return false;
            }
        }
        true
    }

    /// Whether `self ⊊ other`.
    pub fn is_proper_subset(&self, other: &Relation) -> bool {
        self.len < other.len && self.is_subset(other)
    }

    /// A zero-arity relation holding the empty tuple iff `len > 0`.
    fn flag(len: usize) -> Relation {
        Relation {
            arity: 0,
            rows: Arc::new(Run::new(Vec::new())),
            len: usize::from(len > 0),
        }
    }

    fn check_same_arity(&self, other: &Relation) -> Result<()> {
        if self.arity != other.arity {
            Err(DataError::TupleArityMismatch {
                expected: self.arity,
                found: other.arity,
            })
        } else {
            Ok(())
        }
    }
}

/// Sorts an arity-strided row buffer in place (as fixed-width chunks) and
/// compacts duplicates to the front; returns the deduplicated row count
/// (the caller truncates to `count * arity`).  `arity` must be positive.
///
/// This is the low-level primitive behind [`Relation::from_rows`], exposed
/// so engines batching derived rows into strided buffers can canonicalise
/// them without round-tripping through `Relation`.
///
/// At arity 1 and 2 each row packs into one `u64` ([`Const::pack_onto`]),
/// which orders exactly like the row: the keys are sorted and deduplicated
/// as plain integers and unpacked in place.  Wider rows sort an index
/// permutation by row comparison and apply it.
pub fn sort_dedup_rows(rows: &mut [Const], arity: usize) -> usize {
    debug_assert!(arity > 0);
    let count = rows.len() / arity;
    if count <= 1 {
        return count;
    }
    if arity <= Const::PACK_MAX {
        let mut keys: Vec<u64> = (rows.chunks_exact(arity))
            .map(|row| row.iter().fold(0, |key, c| c.pack_onto(key)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for (row, &key) in rows.chunks_exact_mut(arity).zip(&keys) {
            let mut key = key;
            for slot in row.iter_mut().rev() {
                (*slot, key) = Const::unpack_from(key);
            }
        }
        return keys.len();
    }
    // Sort an index permutation, then apply it — avoids a chunked sort's
    // per-comparison bounds checks and keeps the row moves to one pass.
    let mut order: Vec<u32> = (0..count as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        rows[a as usize * arity..(a as usize + 1) * arity]
            .cmp(&rows[b as usize * arity..(b as usize + 1) * arity])
    });
    let mut out: Vec<Const> = Vec::with_capacity(rows.len());
    let mut kept = 0usize;
    for &idx in &order {
        let row = &rows[idx as usize * arity..(idx as usize + 1) * arity];
        if kept > 0 && &out[(kept - 1) * arity..kept * arity] == row {
            continue;
        }
        out.extend_from_slice(row);
        kept += 1;
    }
    rows[..out.len()].copy_from_slice(&out);
    kept
}

/// Iterator over the rows of a sorted run as `&[Const]` slices.
#[derive(Clone, Debug)]
pub struct RowIter<'a> {
    rows: &'a [Const],
    arity: usize,
    remaining: usize,
}

impl<'a> RowIter<'a> {
    /// Iterates `len` rows of width `arity` out of a raw strided buffer:
    /// `rows` must hold exactly `len * arity` constants (empty for arity 0,
    /// where `len` counts empty tuples).  Companion to
    /// [`sort_dedup_rows`] for engines working on raw row buffers.
    pub fn over(rows: &'a [Const], arity: usize, len: usize) -> Self {
        debug_assert_eq!(rows.len(), arity * len);
        RowIter {
            rows,
            arity,
            remaining: len,
        }
    }
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Const];

    fn next(&mut self) -> Option<&'a [Const]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.arity == 0 {
            return Some(&[]);
        }
        let (row, rest) = self.rows.split_at(self.arity);
        self.rows = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// Which side(s) of a two-run merge produced the current row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MergeSide {
    Left,
    Right,
    Both,
}

/// Linear merge over two sorted runs of the same arity, yielding each
/// distinct row once together with the side(s) it came from.
struct MergeRows<'a> {
    left: RowCursor<'a>,
    right: RowCursor<'a>,
}

impl<'a> MergeRows<'a> {
    fn new(left: &'a [Const], right: &'a [Const], arity: usize) -> Self {
        MergeRows {
            left: RowCursor::new(left, arity),
            right: RowCursor::new(right, arity),
        }
    }

    #[allow(clippy::should_implement_trait)] // lending iterator shape
    fn next(&mut self) -> Option<(&'a [Const], MergeSide)> {
        match (self.left.current(), self.right.current()) {
            (None, None) => None,
            (Some(l), None) => {
                self.left.advance();
                Some((l, MergeSide::Left))
            }
            (None, Some(r)) => {
                self.right.advance();
                Some((r, MergeSide::Right))
            }
            (Some(l), Some(r)) => match l.cmp(r) {
                Ordering::Less => {
                    self.left.advance();
                    Some((l, MergeSide::Left))
                }
                Ordering::Greater => {
                    self.right.advance();
                    Some((r, MergeSide::Right))
                }
                Ordering::Equal => {
                    self.left.advance();
                    self.right.advance();
                    Some((l, MergeSide::Both))
                }
            },
        }
    }
}

/// A cursor over one sorted run.
struct RowCursor<'a> {
    rows: &'a [Const],
    arity: usize,
}

impl<'a> RowCursor<'a> {
    fn new(rows: &'a [Const], arity: usize) -> Self {
        RowCursor { rows, arity }
    }

    fn current(&self) -> Option<&'a [Const]> {
        if self.rows.is_empty() {
            None
        } else {
            Some(&self.rows[..self.arity])
        }
    }

    fn advance(&mut self) {
        self.rows = &self.rows[self.arity..];
    }

    /// Advances past every row `< row`; returns `true` if the cursor now
    /// sits exactly on `row`.
    fn skip_to(&mut self, row: &[Const]) -> bool {
        while let Some(cur) = self.current() {
            match cur.cmp(row) {
                Ordering::Less => self.advance(),
                Ordering::Equal => return true,
                Ordering::Greater => return false,
            }
        }
        false
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, row) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, c) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel(arity: usize, ts: &[Tuple]) -> Relation {
        Relation::from_tuples(arity, ts.iter().cloned()).unwrap()
    }

    #[test]
    fn insert_and_contains() {
        let mut r = Relation::empty(2);
        assert!(r.insert(tuple![1, 2]).unwrap());
        assert!(!r.insert(tuple![1, 2]).unwrap());
        assert!(r.contains(&tuple![1, 2]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn arity_is_enforced() {
        let mut r = Relation::empty(2);
        assert!(r.insert(tuple![1]).is_err());
        assert!(Relation::from_tuples(1, [tuple![1, 2]]).is_err());
    }

    #[test]
    fn zero_ary_relation_holds_at_most_the_empty_tuple() {
        let mut r = Relation::empty(0);
        assert!(r.insert(Tuple::empty()).unwrap());
        assert!(!r.insert(Tuple::empty()).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::empty()));
        assert!(r.remove(&Tuple::empty()));
        assert!(r.is_empty());
    }

    #[test]
    fn rows_stay_sorted_and_deduplicated() {
        let mut r = Relation::empty(2);
        for t in [tuple![3, 1], tuple![1, 2], tuple![2, 9], tuple![1, 2]] {
            r.insert(t).unwrap();
        }
        let rows: Vec<Vec<u32>> = r
            .iter()
            .map(|row| row.iter().map(|c| c.index()).collect())
            .collect();
        assert_eq!(rows, vec![vec![1, 2], vec![2, 9], vec![3, 1]]);
        assert_eq!(r.as_rows().len(), 6);
        assert_eq!(r.row(1), &[Const::new(2), Const::new(9)]);
    }

    #[test]
    fn set_operations() {
        let a = rel(2, &[tuple![1, 2], tuple![1, 4]]);
        let b = rel(2, &[tuple![1, 4], tuple![2, 3]]);
        assert_eq!(a.union(&b).unwrap().len(), 3);
        assert_eq!(a.intersection(&b).unwrap().len(), 1);
        assert_eq!(a.difference(&b).unwrap().len(), 1);
        let d = a.symmetric_difference(&b).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.contains(&tuple![1, 2]));
        assert!(d.contains(&tuple![2, 3]));
    }

    #[test]
    fn zero_ary_set_operations() {
        let on = rel(0, &[Tuple::empty()]);
        let off = Relation::empty(0);
        assert_eq!(on.union(&off).unwrap().len(), 1);
        assert_eq!(on.intersection(&off).unwrap().len(), 0);
        assert_eq!(on.difference(&off).unwrap().len(), 1);
        assert_eq!(on.symmetric_difference(&off).unwrap().len(), 1);
        assert_eq!(on.symmetric_difference(&on).unwrap().len(), 0);
        assert!(off.is_subset(&on));
        assert!(!on.is_subset(&off));
    }

    #[test]
    fn clones_share_storage_until_mutated() {
        let mut a = rel(2, &[tuple![1, 2], tuple![3, 4]]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.rows, &b.rows), "clone must share");
        // no-op mutations keep sharing
        assert!(!a.insert(tuple![1, 2]).unwrap());
        assert!(!a.remove(&tuple![9, 9]));
        assert!(Arc::ptr_eq(&a.rows, &b.rows));
        // a real mutation unshares and leaves the clone untouched
        assert!(a.insert(tuple![5, 6]).unwrap());
        assert!(!Arc::ptr_eq(&a.rows, &b.rows));
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 2);
        assert!(!b.contains(&tuple![5, 6]));
    }

    #[test]
    fn symmetric_difference_with_self_is_empty() {
        let a = rel(2, &[tuple![1, 2], tuple![1, 4]]);
        assert!(a.symmetric_difference(&a).unwrap().is_empty());
    }

    #[test]
    fn subset_checks() {
        let small = rel(2, &[tuple![1, 2]]);
        let big = rel(2, &[tuple![1, 2], tuple![1, 4]]);
        assert!(small.is_subset(&big));
        assert!(small.is_proper_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(!big.is_proper_subset(&big));
    }

    #[test]
    fn constants_are_collected() {
        let a = rel(2, &[tuple![1, 2], tuple![1, 4]]);
        let consts: Vec<_> = a.constants().into_iter().collect();
        assert_eq!(consts, vec![Const::new(1), Const::new(2), Const::new(4)]);
    }

    #[test]
    fn mixed_arity_set_operations_fail() {
        let a = rel(2, &[tuple![1, 2]]);
        let b = rel(1, &[tuple![1]]);
        assert!(a.union(&b).is_err());
        assert!(a.symmetric_difference(&b).is_err());
    }

    #[test]
    fn ordering_matches_sequence_of_tuples() {
        // {(5,5)} vs {(1,2),(3,4)}: the first differing row decides before
        // the lengths do — exactly like comparing the tuple sequences.
        let single = rel(2, &[tuple![5, 5]]);
        let double = rel(2, &[tuple![1, 2], tuple![3, 4]]);
        assert!(double < single);
        // a strict prefix is smaller
        let prefix = rel(2, &[tuple![1, 2]]);
        assert!(prefix < double);
        // arity dominates
        assert!(rel(1, &[tuple![9]]) < rel(2, &[tuple![1, 1]]));
        // zero-arity: {} < {()}
        assert!(Relation::empty(0) < rel(0, &[Tuple::empty()]));
    }

    #[test]
    fn a_cached_value_is_built_once_per_run_and_shared_by_clones() {
        let a = rel(2, &[tuple![1, 2], tuple![3, 4]]);
        let builds = std::cell::Cell::new(0);
        let count = |r: &Relation| {
            builds.set(builds.get() + 1);
            r.len()
        };
        assert_eq!(*a.cached(7, count), 2);
        let b = a.clone();
        assert_eq!(*b.cached(7, count), 2);
        assert_eq!(builds.get(), 1, "a clone shares the run and its cache");
        // another key, or another type under the same key, is another slot
        assert_eq!(*a.cached(8, count), 2);
        assert_eq!(
            *a.cached(7, |r| r.row(0).to_vec()),
            vec![Const::new(1), Const::new(2)]
        );
        assert_eq!(builds.get(), 2);
        // an equal relation on another run has a cache of its own
        let c = rel(2, &[tuple![1, 2], tuple![3, 4]]);
        assert_eq!(a, c, "the cache is not part of the contents");
        c.cached(7, count);
        assert_eq!(builds.get(), 3);
    }

    #[test]
    fn writing_a_run_never_serves_what_was_cached_on_it() {
        let mut a = rel(2, &[tuple![1, 2]]);
        let len = |r: &Relation| r.len();
        assert_eq!(*a.cached(0, len), 1);
        // unshared: the writer's copy starts empty, the clone keeps its own
        let b = a.clone();
        assert!(a.insert(tuple![5, 6]).unwrap());
        assert_eq!(*a.cached(0, len), 2);
        assert_eq!(*b.cached(0, len), 1);
        // uniquely owned: written in place, and the cache goes with it
        let held = a.cached(0, len);
        assert!(a.remove(&tuple![1, 2]));
        assert_eq!(*a.cached(0, len), 1);
        assert_eq!(*held, 2, "a value handed out before the write is its own");
        // a no-op write changes nothing, so it keeps the cache
        let before = a.cached(0, len);
        assert!(!a.insert(tuple![5, 6]).unwrap());
        assert!(Arc::ptr_eq(&before, &a.cached(0, len)));
    }

    #[test]
    fn position_finds_rows_by_binary_search() {
        let a = rel(2, &[tuple![1, 2], tuple![3, 4], tuple![5, 6]]);
        assert_eq!(a.position(&[Const::new(3), Const::new(4)]), Some(1));
        assert_eq!(a.position(&[Const::new(3), Const::new(5)]), None);
        assert_eq!(a.position(&[Const::new(3)]), None, "wrong length is absent");
    }

    #[test]
    fn from_sorted_rows_verifies_the_run() {
        let c = Const::new;
        let ok = Relation::from_sorted_rows(2, vec![c(1), c(2), c(3), c(4)]).unwrap();
        assert_eq!(ok.len(), 2);
        assert!(Relation::from_sorted_rows(2, vec![c(3), c(4), c(1), c(2)]).is_err());
        assert!(Relation::from_sorted_rows(2, vec![c(1), c(2), c(1), c(2)]).is_err());
        assert!(Relation::from_sorted_rows(2, vec![c(1), c(2), c(3)]).is_err());
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let c = Const::new;
        let r = Relation::from_rows(2, vec![c(3), c(4), c(1), c(2), c(3), c(4)], 3).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), &[c(1), c(2)]);
        assert!(Relation::from_rows(2, vec![c(1)], 1).is_err());
    }

    #[test]
    fn merge_rows_applies_batched_updates() {
        let c = Const::new;
        let base = rel(2, &[tuple![1, 2], tuple![3, 4], tuple![5, 6]]);
        let adds = vec![c(2), c(2), c(4), c(4)];
        let dels = vec![c(3), c(4)];
        let out = base.merge_rows(&adds, &dels).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out.contains(&tuple![2, 2]));
        assert!(out.contains(&tuple![4, 4]));
        assert!(!out.contains(&tuple![3, 4]));
        // no-op merge shares storage
        let same = base.merge_rows(&[], &[]).unwrap();
        assert!(Arc::ptr_eq(&base.rows, &same.rows));
        // an outstanding clone is never disturbed
        let snapshot = base.clone();
        let _ = base.merge_rows(&adds, &dels).unwrap();
        assert_eq!(snapshot, base);
    }
}
