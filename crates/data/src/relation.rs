//! Finite relations: sets of tuples of a fixed arity, stored as a shared
//! sorted base run plus one small sorted delta.
//!
//! # Storage layout: a base run and a delta
//!
//! A relation of arity `k` keeps its tuples in flat, arity-strided sorted
//! runs of `Const`s: row `i` of a run occupies `rows[i*k .. (i+1)*k]`, and
//! rows are sorted lexicographically and deduplicated.  There is no
//! per-tuple allocation and no tree of pointers.  A relation is
//!
//! * a **base** run behind an `Arc`, shared by every clone and by every
//!   relation derived from this one by a small change, plus
//! * a **delta** against it, also behind an `Arc`: the **adds**, a sorted
//!   run disjoint from the base, and the **dels**, a sorted run that is a
//!   subset of the base.  The contents are `(base \ dels) ∪ adds`.
//!
//! A relation with no delta is **flat**: its base is all of it.  Every
//! constructor builds a flat relation; a write makes a delta.  `insert`,
//! `remove` and [`Relation::merge_rows`] compose into the delta in
//! `O(delta)` plus a binary search of the base per row, and leave the base
//! — and whatever is cached on it — untouched.  The delta is **folded**
//! into a fresh flat base once it holds more than `1/64` of the base's rows
//! (a one-level LSM: a constant rule, like the engine's key levels, not a
//! knob), so a delta stays small and reads stay one merge walk.  A
//! relation under 64 rows has no room for a delta, and a flat run nothing
//! else holds has no reader to keep, so a write to either lands in the run
//! as it always has.
//!
//! `len` is `O(1)`.  Iteration is a merge walk of the base and the adds
//! that skips the dels — a plain walk over one buffer while the delta is
//! empty.  Membership is a binary search of the base (and of the dels on a
//! hit, of the adds on a miss).  The set algebra (union, intersection,
//! difference, symmetric difference, inclusion) runs as linear merges of
//! the two relations' rows — except between two relations that share a
//! base, where it compares only the deltas: a chain step's diff against
//! the previous step costs what changed, not what is stored.
//!
//! Equality, ordering and hashing are defined over the rows alone: a
//! layered relation and a flat one with the same rows are equal and hash
//! equal.  [`Relation::as_rows`], [`Relation::row`] and
//! [`Relation::position`] read the **base run only**; the query engine,
//! which loads the base as its first segment and the delta as its tail and
//! tombstones ([`Relation::base`], [`Relation::delta`]), is their reader.
//!
//! Zero-arity "flag" relations (the paper's boolean relations, e.g. `R4`
//! in Example 3) store no row data and no delta: the run stays empty and
//! the separate `len` field (0 or 1) says whether the empty tuple is
//! present.
//!
//! # Copy-on-write and unsharing
//!
//! Cloning a relation bumps two reference counts; equality, ordering and
//! hashing compare *contents*, so sharing is unobservable.  Mutations
//! unshare lazily:
//!
//! * no-op mutations (inserting a present row, removing an absent one)
//!   never copy;
//! * a write into the delta copies a shared delta once, never the base;
//! * a write into a small flat run copies a shared run once
//!   (`Arc::make_mut`) and then splices in place;
//! * the bulk merge operations build a fresh delta or a fresh run, so
//!   outstanding clones are never disturbed.
//!
//! Every row a fold writes into a fresh base, and every row of a shared
//! run a write unshares, is counted in `kbt_data_rows_copied_total`
//! ([`mod@crate::metrics`]); composing a delta copies no stored row.
//!
//! # What a run owns besides its rows
//!
//! A run never changes once it is shared, so whatever another layer
//! builds over its rows holds for as long as the run lives.  Each run
//! therefore carries a small cache of such values ([`Relation::cached`]):
//! the query engine keeps the indexes of a stored relation's base there, so
//! every read of every epoch that still holds the run — a commit that
//! leaves a relation untouched hands the next epoch the very same `Arc`,
//! and one that changes a few of its rows hands it the same base under a
//! new delta — probes one index built once.  The cache lives and dies with
//! the run: there is nothing to evict and no size to set.  A write that
//! splices a uniquely owned run in place drops its cache, and the copy a
//! shared run is unshared into starts with none.  Equality, ordering and
//! hashing ignore the cache.
//!
//! [`Tuple`] survives as the boundary/view type: parsing, rendering and
//! the public fact APIs still speak tuples, while the engine's hot paths
//! consume `&[Const]` row slices straight out of the runs.

use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::error::DataError;
use crate::metrics::metrics;
use crate::tuple::Tuple;
use crate::value::Const;
use crate::Result;

/// A delta is folded into a fresh base once it holds more than
/// `1 / FOLD_FRACTION` of the base's rows (see the module docs).
const FOLD_FRACTION: usize = 64;

/// Whether a delta of `delta` constants over a base of `base` constants
/// (rows of one arity) is folded.
#[inline]
fn folds(delta: usize, base: usize) -> bool {
    delta * FOLD_FRACTION > base
}

/// A finite relation `r ⊆ A^k`: a shared sorted base run plus a small
/// sorted delta.
///
/// The arity is fixed at construction time so that empty relations still know
/// their arity (the paper's zero-ary "flag" relations rely on this).  See the
/// [module docs](self) for the storage layout and copy-on-write rules.
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    base: Arc<Run>,
    /// The delta against `base`; `None` while the relation is flat, never
    /// an empty one.
    delta: Option<Arc<Delta>>,
    len: usize,
}

/// What a layered relation holds on top of its base: `adds`, disjoint from
/// the base, and `dels`, a subset of it — sorted, deduplicated,
/// arity-strided runs, not both empty.
#[derive(Clone, Debug, Default)]
struct Delta {
    adds: Vec<Const>,
    dels: Vec<Const>,
}

/// A sorted run's row buffer and what was built over it (see the module
/// docs).  A clone — the copy-on-write copy — starts with nothing cached.
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

impl Clone for Run {
    fn clone(&self) -> Self {
        Run::new(self.rows.clone())
    }
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation::flat(arity, Vec::new(), 0)
    }

    /// A flat relation over `rows`, a sorted, deduplicated run of `len`
    /// rows (empty for a flag, whose `len` is 0 or 1).
    fn flat(arity: usize, rows: Vec<Const>, len: usize) -> Self {
        Relation {
            arity,
            base: Arc::new(Run::new(rows)),
            delta: None,
            len,
        }
    }

    /// A flat relation over `rows`, a sorted, deduplicated run (arity > 0).
    fn from_run(arity: usize, rows: Vec<Const>) -> Self {
        let len = rows.len() / arity;
        Relation::flat(arity, rows, len)
    }

    /// `base` under the delta `adds` / `dels` (arity > 0; `adds` disjoint
    /// from the base, `dels` a subset of it): flat when both are empty,
    /// folded into a fresh run when they pass the fold rule.
    fn layered(arity: usize, base: Arc<Run>, adds: Vec<Const>, dels: Vec<Const>) -> Self {
        let base_rows = base.rows.len() / arity;
        let (add_rows, del_rows) = (adds.len() / arity, dels.len() / arity);
        let mut relation = Relation {
            arity,
            base,
            delta: None,
            len: base_rows + add_rows - del_rows,
        };
        if add_rows + del_rows > 0 {
            let folded = folds(adds.len() + dels.len(), relation.base.rows.len());
            relation.delta = Some(Arc::new(Delta { adds, dels }));
            if folded {
                return relation.folded();
            }
        }
        relation
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
        Ok(Relation::flat(arity, rows, len))
    }

    /// Builds from an unsorted (possibly duplicated) row buffer: sort rows
    /// as fixed-width chunks, dedup, done.
    fn from_row_buf(arity: usize, mut rows: Vec<Const>, count: usize) -> Self {
        if arity == 0 {
            return Relation::flag(count);
        }
        debug_assert_eq!(rows.len(), arity * count);
        let sorted = sort_dedup_rows(&mut rows, arity);
        rows.truncate(sorted * arity);
        Relation::flat(arity, rows, sorted)
    }

    /// The arity of the relation.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation contains no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the relation has no delta: its base run is all of it.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.delta.is_none()
    }

    /// The number of rows in the base run.
    #[inline]
    fn base_len(&self) -> usize {
        match self.delta {
            None => self.len,
            Some(_) => self.base.rows.len() / self.arity,
        }
    }

    /// [`find`] in the base run (arity > 0).
    #[inline]
    fn find_in_base(&self, row: &[Const]) -> std::result::Result<usize, usize> {
        search(&self.base.rows, self.base_len(), row)
    }

    /// The delta's adds (empty while flat).
    #[inline]
    fn adds(&self) -> &[Const] {
        self.delta.as_deref().map_or(&[], |delta| &delta.adds)
    }

    /// The delta's dels (empty while flat).
    #[inline]
    fn dels(&self) -> &[Const] {
        self.delta.as_deref().map_or(&[], |delta| &delta.dels)
    }

    /// The base run as a flat relation of its own, sharing the run (and
    /// what is cached on it): the relation itself when it is flat.
    pub fn base(&self) -> Relation {
        Relation {
            arity: self.arity,
            base: self.base.clone(),
            delta: None,
            len: self.base_len(),
        }
    }

    /// The delta against [`Self::base`]: the added rows, disjoint from the
    /// base, and the deleted rows, a subset of it — sorted, arity-strided
    /// runs, both empty while the relation is flat.
    pub fn delta(&self) -> (&[Const], &[Const]) {
        (self.adds(), self.dels())
    }

    /// The same rows as one flat run: the relation itself when it is flat,
    /// otherwise a fresh run (a fold, counted in
    /// `kbt_data_rows_copied_total`).  The base is copied in blocks between
    /// the delta's rows, each found by galloping from the last: a fold
    /// costs a copy of the base plus `O(d log(n / d))` row comparisons for
    /// a delta of `d` rows.
    pub fn folded(&self) -> Relation {
        if self.is_flat() {
            return self.clone();
        }
        let arity = self.arity;
        let (mut rest, mut adds, mut dels) = (&self.base.rows[..], self.adds(), self.dels());
        let mut rows = Vec::with_capacity(self.len * arity);
        while !adds.is_empty() || !dels.is_empty() {
            // the base rows before the next add, or before the next del
            let add = (!adds.is_empty()).then(|| seek(rest, &adds[..arity]).unwrap_err());
            let del = (!dels.is_empty()).then(|| seek(rest, &dels[..arity]));
            let (copy, skip, row) = match (add, del) {
                (Some(add), Some(Ok(del))) if del < add => (del, 1, None),
                (None, Some(Ok(del))) => (del, 1, None),
                (Some(add), _) => (add, 0, Some(&adds[..arity])),
                (_, _) => unreachable!("a delta deletes rows of its base"),
            };
            rows.extend_from_slice(&rest[..copy * arity]);
            rest = &rest[(copy + skip) * arity..];
            match row {
                Some(row) => {
                    rows.extend_from_slice(row);
                    adds = &adds[arity..];
                }
                None => dels = &dels[arity..],
            }
        }
        rows.extend_from_slice(rest);
        metrics().rows_copied_total.add(self.len as u64);
        Relation::from_run(arity, rows)
    }

    /// The base run: `base().len() * arity()` constants, row-major — all
    /// of the relation's rows while it [`Self::is_flat`].  Empty for
    /// zero-arity relations regardless of [`Self::len`].
    #[inline]
    pub fn as_rows(&self) -> &[Const] {
        &self.base.rows
    }

    /// Row `i` of the base run (`i < base().len()`); the empty slice for
    /// zero-arity relations.
    #[inline]
    pub fn row(&self, i: usize) -> &[Const] {
        if self.arity == 0 {
            debug_assert!(i < self.len);
            &[]
        } else {
            &self.base.rows[i * self.arity..(i + 1) * self.arity]
        }
    }

    /// The position of `row` in the base run (`Some(i)` iff
    /// [`Self::row`]`(i) == row`), by binary search.  A row of the wrong
    /// length is absent.
    #[inline]
    pub fn position(&self, row: &[Const]) -> Option<usize> {
        if row.len() != self.arity || self.arity == 0 {
            return (row.len() == self.arity && self.len == 1).then_some(0);
        }
        self.find_in_base(row).ok()
    }

    /// The rows of a flat run for splicing in place: a shared run is copied
    /// once (`Arc::make_mut`, counted as copied rows), and a run written in
    /// place drops what was cached on it.
    fn rows_mut(&mut self) -> &mut Vec<Const> {
        debug_assert!(self.is_flat());
        if !self.holds_run_alone() {
            // flat: the run holds all `len` rows
            metrics().rows_copied_total.add(self.len as u64);
        }
        let run = Arc::make_mut(&mut self.base);
        run.cache = Mutex::default();
        &mut run.rows
    }

    /// The delta for writing, copied first if shared.
    fn delta_mut(&mut self) -> &mut Delta {
        Arc::make_mut(self.delta.get_or_insert_with(Arc::default))
    }

    /// After a write into the delta: drops it if it emptied, folds it if it
    /// passed the fold rule.
    #[inline]
    fn settle(&mut self) {
        let Some(delta) = &self.delta else {
            return;
        };
        let consts = delta.adds.len() + delta.dels.len();
        if consts == 0 {
            self.delta = None;
        } else if folds(consts, self.base.rows.len()) {
            *self = self.folded();
        }
    }

    /// Whether a write of one row goes into the run itself: the relation is
    /// flat, and a delta of one row would fold at once or nothing else
    /// holds the run (a loader building it row by row).
    fn splices(&self) -> bool {
        self.is_flat() && (folds(self.arity, self.base.rows.len()) || self.holds_run_alone())
    }

    /// Whether no other relation holds the base run.  (Nothing takes a
    /// weak reference to a run, and another holder could only clone it
    /// from a clone of its own, so one holder stays one while `self` is
    /// borrowed.)
    fn holds_run_alone(&self) -> bool {
        Arc::strong_count(&self.base) == 1
    }

    /// The value of type `T` cached on this relation's base run under
    /// `key`, built by `build` the first time a holder of the run asks for
    /// it (see the module docs).  Concurrent first demands build it once:
    /// the others wait for that build.  `build` is handed the base run as a
    /// flat relation ([`Self::base`]) and must depend on its rows alone,
    /// since every relation sharing the run gets the same value; a
    /// zero-arity relation's run has no rows, so nothing about its contents
    /// belongs in its cache.
    pub fn cached<T: Any + Send + Sync>(
        &self,
        key: u32,
        build: impl FnOnce(&Relation) -> T,
    ) -> Arc<T> {
        let type_id = TypeId::of::<T>();
        let cell = {
            let mut slots = self
                .base
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
        cell.get_or_init(|| {
            Arc::new(if self.is_flat() {
                build(self)
            } else {
                build(&self.base())
            })
        })
        .clone()
    }

    /// Inserts a tuple; returns `true` if it was not already present.
    ///
    /// Copy-on-write: a redundant insertion never copies.  A real one
    /// composes into the delta (`O(delta)`, folding it if it passes the
    /// fold rule), or splices a small flat run in place.  Bulk loads should
    /// use [`Self::from_rows`] / [`Self::from_sorted_rows`] or
    /// [`Self::merge_rows`] instead of a loop of single inserts.
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
        if self.arity == 0 {
            let added = self.len == 0;
            self.len = 1;
            return added;
        }
        let arity = self.arity;
        match self.find_in_base(row) {
            // in the base: present unless deleted
            Ok(_) => {
                let Ok(at) = find(self.dels(), row) else {
                    return false;
                };
                self.delta_mut().dels.drain(at * arity..(at + 1) * arity);
            }
            Err(at) if self.splices() => {
                let at = at * arity;
                self.rows_mut().splice(at..at, row.iter().copied());
            }
            Err(_) => {
                let Err(at) = find(self.adds(), row) else {
                    return false;
                };
                let at = at * arity;
                self.delta_mut().adds.splice(at..at, row.iter().copied());
            }
        }
        self.len += 1;
        self.settle();
        true
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
        if self.arity == 0 {
            let removed = self.len == 1;
            self.len = 0;
            return removed;
        }
        let arity = self.arity;
        match self.find_in_base(row) {
            // not in the base: present if added
            Err(_) => {
                let Ok(at) = find(self.adds(), row) else {
                    return false;
                };
                self.delta_mut().adds.drain(at * arity..(at + 1) * arity);
            }
            Ok(at) if self.splices() => {
                let at = at * arity;
                self.rows_mut().drain(at..at + arity);
            }
            Ok(_) => {
                let Err(at) = find(self.dels(), row) else {
                    return false;
                };
                let at = at * arity;
                self.delta_mut().dels.splice(at..at, row.iter().copied());
            }
        }
        self.len -= 1;
        self.settle();
        true
    }

    /// Whether the tuple is present (binary searches over the runs).
    #[inline]
    pub fn contains(&self, t: &Tuple) -> bool {
        self.contains_row(t.components())
    }

    /// Whether the raw row is present.  A row of the wrong length is
    /// simply absent (mirroring [`Relation::contains`]).
    #[inline]
    pub fn contains_row(&self, row: &[Const]) -> bool {
        if row.len() != self.arity {
            return false;
        }
        if self.arity == 0 {
            return self.len == 1;
        }
        match self.find_in_base(row) {
            Ok(_) => find(self.dels(), row).is_err(),
            Err(_) => find(self.adds(), row).is_ok(),
        }
    }

    /// Iterates over the rows in canonical (sorted) order as `&[Const]`
    /// slices.  Zero-arity relations yield `len()` empty slices.
    #[inline]
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            base: &self.base.rows,
            adds: self.adds(),
            dels: self.dels(),
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
        self.iter().flatten().copied().collect()
    }

    /// Whether both relations are non-flags of one arity over the same
    /// base run: their set algebra compares only their deltas.
    fn shares_base(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.arity > 0 && Arc::ptr_eq(&self.base, &other.base)
    }

    /// The rows as one sorted buffer: the base run itself while the
    /// relation is flat, a transient copy otherwise.
    fn flat_rows(&self) -> Cow<'_, [Const]> {
        if self.is_flat() {
            Cow::Borrowed(&self.base.rows)
        } else {
            Cow::Owned(self.iter().flatten().copied().collect())
        }
    }

    /// A fresh flat run of the rows of `self` and `other` that `keep`
    /// admits by the side(s) they come from: one linear merge walk.
    fn merged(&self, other: &Relation, keep: impl Fn(MergeSide) -> bool) -> Relation {
        let rows = merge(&self.flat_rows(), &other.flat_rows(), self.arity, keep);
        Relation::from_run(self.arity, rows)
    }

    /// Set union (same arity assumed; checked).  `O(n + m)` merge of the
    /// two relations, `O(delta)` when they share a base; when one side is
    /// empty the other is shared, not copied.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        self.check_same_arity(other)?;
        if self.arity == 0 {
            return Ok(Relation::flag(self.len.max(other.len)));
        }
        if self.shares_base(other) {
            let adds = merge(self.adds(), other.adds(), self.arity, |_| true);
            let dels = merge(self.dels(), other.dels(), self.arity, |side| {
                side == MergeSide::Both
            });
            return Ok(Relation::layered(self.arity, self.base.clone(), adds, dels));
        }
        if self.is_empty() {
            return Ok(other.clone());
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        Ok(self.merged(other, |_| true))
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Relation) -> Result<Relation> {
        self.check_same_arity(other)?;
        if self.arity == 0 {
            return Ok(Relation::flag(self.len.min(other.len)));
        }
        if self.shares_base(other) {
            let adds = merge(self.adds(), other.adds(), self.arity, |side| {
                side == MergeSide::Both
            });
            let dels = merge(self.dels(), other.dels(), self.arity, |_| true);
            return Ok(Relation::layered(self.arity, self.base.clone(), adds, dels));
        }
        if self.is_empty() || other.is_empty() {
            return Ok(Relation::empty(self.arity));
        }
        Ok(self.merged(other, |side| side == MergeSide::Both))
    }

    /// Set difference `self \ other`.  Between relations that share a base
    /// it is `(adds \ other's adds) ∪ (other's dels \ dels)`, a merge of
    /// the deltas alone.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        self.check_same_arity(other)?;
        if self.arity == 0 {
            return Ok(Relation::flag(if other.len == 0 { self.len } else { 0 }));
        }
        if self.shares_base(other) {
            let left = |side| side == MergeSide::Left;
            let added = merge(self.adds(), other.adds(), self.arity, left);
            let removed = merge(other.dels(), self.dels(), self.arity, left);
            return Ok(self.delta_run(&added, &removed));
        }
        if self.is_empty() || other.is_empty() {
            return Ok(self.clone());
        }
        Ok(self.merged(other, |side| side == MergeSide::Left))
    }

    /// Symmetric difference `self Δ other = (self \ other) ∪ (other \ self)`,
    /// the building block of the Winslett order (Definition 2.1).
    pub fn symmetric_difference(&self, other: &Relation) -> Result<Relation> {
        self.check_same_arity(other)?;
        if self.arity == 0 {
            return Ok(Relation::flag(self.len ^ other.len));
        }
        if self.shares_base(other) {
            let either = |side| side != MergeSide::Both;
            let added = merge(self.adds(), other.adds(), self.arity, either);
            let removed = merge(self.dels(), other.dels(), self.arity, either);
            return Ok(self.delta_run(&added, &removed));
        }
        Ok(self.merged(other, |side| side != MergeSide::Both))
    }

    /// The fresh run of `outside ∪ inside`, two runs of which the first is
    /// disjoint from the shared base and the second inside it.
    fn delta_run(&self, outside: &[Const], inside: &[Const]) -> Relation {
        Relation::from_run(self.arity, merge(outside, inside, self.arity, |_| true))
    }

    /// Applies a batch update: returns `(self \ dels) ∪ adds`.  Both `adds`
    /// and `dels` must be sorted, deduplicated, arity-strided runs; a row
    /// in both is kept (the adds apply after the dels), and `adds ∩ self`
    /// and `dels \ self` are tolerated (redundant adds and misses are
    /// skipped).  This is how a fact commit writes a relation.  The batch
    /// composes into the delta — `O(delta + batch)` plus a gallop through
    /// the base per batch row, the base shared and untouched — and a delta
    /// that passes the fold rule is folded into a fresh base
    /// ([`Self::folded`]).  Outstanding copy-on-write snapshots are never
    /// disturbed.
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
        let arity = self.arity;
        if !adds.len().is_multiple_of(arity) || !dels.len().is_multiple_of(arity) {
            return Err(DataError::TupleArityMismatch {
                expected: arity,
                found: (adds.len().max(dels.len())) % arity,
            });
        }
        if adds.is_empty() && dels.is_empty() {
            return Ok(self.clone());
        }
        // split the sorted batch by the base, galloping through it: an add
        // found there revives a deleted row, a del found there deletes one,
        // and the rest touch the adds
        let split = |rows: &[Const]| {
            let (mut inside, mut outside) = (Vec::new(), Vec::new());
            let mut rest = &self.base.rows[..];
            for row in rows.chunks_exact(arity) {
                let (at, side) = match seek(rest, row) {
                    Ok(at) => (at + 1, &mut inside),
                    Err(at) => (at, &mut outside),
                };
                rest = &rest[at * arity..];
                side.extend_from_slice(row);
            }
            (inside, outside)
        };
        let (revived, added) = split(adds);
        let (deleted, dropped) = split(dels);
        let left = |side| side == MergeSide::Left;
        let kept = merge(self.adds(), &dropped, self.arity, left);
        let new_adds = merge(&kept, &added, self.arity, |_| true);
        let dead = merge(self.dels(), &deleted, self.arity, |_| true);
        let new_dels = merge(&dead, &revived, self.arity, left);
        Ok(Relation::layered(
            arity,
            self.base.clone(),
            new_adds,
            new_dels,
        ))
    }

    /// [`Self::merge_rows`] with the adds handed over as an owned run: how
    /// the engine's indexed relations materialise.  Over an empty base
    /// there is nothing to merge into, so the adds become the run as they
    /// are, verified as [`Self::from_sorted_rows`] verifies them.
    pub fn merge_run(&self, adds: Vec<Const>, dels: &[Const]) -> Result<Relation> {
        if self.arity > 0 && self.base.rows.is_empty() {
            return Relation::from_sorted_rows(self.arity, adds);
        }
        self.merge_rows(&adds, dels)
    }

    /// Whether both relations hold the same base run under the same delta
    /// — an `O(1)` pointer check proving identical contents without
    /// comparing a single row.  Copy-on-write keeps untouched relations on
    /// the same `Arc`s across database clones, so diff-style callers use
    /// this to skip whole relations; `false` only means "unknown", never
    /// "different".
    pub fn shares_rows(&self, other: &Relation) -> bool {
        let same_delta = match (&self.delta, &other.delta) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.arity == other.arity
            && self.len == other.len
            && Arc::ptr_eq(&self.base, &other.base)
            && same_delta
    }

    /// Whether `self ⊆ other`.  Compares the deltas alone when both share
    /// a base; otherwise gallops (binary-searches each of this relation's
    /// rows) when this side is much smaller, or runs a linear merge walk.
    pub fn is_subset(&self, other: &Relation) -> bool {
        if self.arity != other.arity || self.len > other.len {
            return false;
        }
        if self.arity == 0 || self.is_empty() {
            return true;
        }
        if self.shares_base(other) {
            let left = |side| side == MergeSide::Left;
            return merge(self.adds(), other.adds(), self.arity, left).is_empty()
                && merge(other.dels(), self.dels(), self.arity, left).is_empty();
        }
        // galloping pays off when |self| * log|other| < |self| + |other|
        let log_other = (usize::BITS - other.len.leading_zeros()) as usize;
        if self.len * log_other < self.len + other.len {
            return self.iter().all(|row| other.contains_row(row));
        }
        let (rows, others) = (self.flat_rows(), other.flat_rows());
        let mut walk = MergeRows::new(&rows, &others, self.arity);
        while let Some((_, from)) = walk.next() {
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
        Relation::flat(0, Vec::new(), usize::from(len > 0))
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

/// Equality over the rows: `O(delta)` between relations that share a base
/// (a set has one delta against a given base), a row walk otherwise.
impl PartialEq for Relation {
    #[inline]
    fn eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.len == other.len
            && match (&self.delta, &other.delta) {
                (None, None) => {
                    Arc::ptr_eq(&self.base, &other.base) || self.base.rows == other.base.rows
                }
                _ if Arc::ptr_eq(&self.base, &other.base) => {
                    self.adds() == other.adds() && self.dels() == other.dels()
                }
                _ => self.iter().eq(other.iter()),
            }
    }
}

impl Eq for Relation {}

impl PartialOrd for Relation {
    #[inline]
    fn partial_cmp(&self, other: &Relation) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Ordering by arity, then by the rows in order, then by `len` (which only
/// breaks the zero-arity tie, where both have no rows).  Rows are
/// fixed-width, so comparing the row sequences is comparing their
/// concatenations: the old lexicographic sequence-of-tuples order.
impl Ord for Relation {
    #[inline]
    fn cmp(&self, other: &Relation) -> Ordering {
        if self.arity != other.arity {
            return self.arity.cmp(&other.arity);
        }
        let rows = match (&self.delta, &other.delta) {
            (None, None) if Arc::ptr_eq(&self.base, &other.base) => Ordering::Equal,
            (None, None) => self.base.rows.cmp(&other.base.rows),
            _ => self.iter().cmp(other.iter()),
        };
        rows.then(self.len.cmp(&other.len))
    }
}

/// Hashing over the rows: a layered relation hashes like the flat one with
/// the same rows.
impl Hash for Relation {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.arity.hash(state);
        self.len.hash(state);
        if self.is_flat() {
            self.base.rows.iter().for_each(|c| c.hash(state));
        } else {
            self.iter().flatten().for_each(|c| c.hash(state));
        }
    }
}

/// Binary search for `row` in a sorted, arity-strided run of rows of its
/// width: `Ok(index)` if present, `Err(insertion)` if absent.
#[inline]
fn find(rows: &[Const], row: &[Const]) -> std::result::Result<usize, usize> {
    if rows.is_empty() {
        return Err(0);
    }
    search(rows, rows.len() / row.len(), row)
}

/// [`find`] in a run known to hold `len` rows.
#[inline]
fn search(rows: &[Const], len: usize, row: &[Const]) -> std::result::Result<usize, usize> {
    let arity = row.len();
    debug_assert!(arity > 0 && rows.len() == len * arity);
    let (mut lo, mut hi) = (0usize, len);
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

/// [`find`] by galloping from the front: `O(log i)` row comparisons for a
/// row that belongs at row `i`.
fn seek(rows: &[Const], row: &[Const]) -> std::result::Result<usize, usize> {
    let arity = row.len();
    let len = rows.len() / arity;
    let below = |i: usize| &rows[i * arity..(i + 1) * arity] < row;
    let (mut lo, mut hi) = (0, 1);
    while hi <= len && below(hi - 1) {
        lo = hi;
        hi *= 2;
    }
    let hi = hi.min(len);
    let at = lo + find(&rows[lo * arity..hi * arity], row).unwrap_or_else(|at| at);
    match rows.get(at * arity..(at + 1) * arity) {
        Some(found) if found == row => Ok(at),
        _ => Err(at),
    }
}

/// The rows of two sorted runs of one arity that `keep` admits by the
/// side(s) they come from, in order, as one arity-strided buffer.
fn merge(
    left: &[Const],
    right: &[Const],
    arity: usize,
    keep: impl Fn(MergeSide) -> bool,
) -> Vec<Const> {
    let mut out = Vec::new();
    let mut walk = MergeRows::new(left, right, arity);
    while let Some((row, side)) = walk.next() {
        if keep(side) {
            out.extend_from_slice(row);
        }
    }
    out
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
/// as plain integers and unpacked in place.  Keys that arrive as a few
/// sorted runs — an engine's derived rows, where a probe walks a stored
/// base before the tail loaded from its delta — are merged by the stable,
/// run-adaptive sort in linear time (the unstable one falls back to a full
/// sort at the first descent); any other order takes the unstable sort,
/// which needs no scratch buffer.  Wider rows sort an index permutation by
/// row comparison and apply it.
pub fn sort_dedup_rows(rows: &mut [Const], arity: usize) -> usize {
    /// At most this many sorted runs are merged rather than sorted afresh.
    const FEW_RUNS: usize = 16;
    debug_assert!(arity > 0);
    let count = rows.len() / arity;
    if count <= 1 {
        return count;
    }
    if arity <= Const::PACK_MAX {
        let mut keys: Vec<u64> = (rows.chunks_exact(arity))
            .map(|row| row.iter().fold(0, |key, c| c.pack_onto(key)))
            .collect();
        let runs = 1 + keys.windows(2).filter(|w| w[1] < w[0]).count();
        if runs > FEW_RUNS {
            keys.sort_unstable();
        } else if runs > 1 {
            keys.sort();
        }
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

/// Iterator over the rows of a relation, in order, as `&[Const]` slices:
/// a plain walk over the base run while the delta is empty, a merge walk
/// of the base and the adds that skips the dels otherwise.
#[derive(Clone, Debug)]
pub struct RowIter<'a> {
    base: &'a [Const],
    adds: &'a [Const],
    dels: &'a [Const],
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
            base: rows,
            adds: &[],
            dels: &[],
            arity,
            remaining: len,
        }
    }

    /// The next row of a merge walk: base rows the dels delete are
    /// skipped (the dels are a subset of the base, so each is met there),
    /// then the smaller of the base's and the adds' next row is taken.
    fn next_layered(&mut self) -> &'a [Const] {
        let arity = self.arity;
        while !self.dels.is_empty() && self.base[..arity] == self.dels[..arity] {
            self.base = &self.base[arity..];
            self.dels = &self.dels[arity..];
        }
        let from_base = !self.base.is_empty()
            && (self.adds.is_empty() || self.base[..arity] < self.adds[..arity]);
        let run = if from_base {
            &mut self.base
        } else {
            &mut self.adds
        };
        let (row, rest) = run.split_at(arity);
        *run = rest;
        row
    }
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Const];

    #[inline]
    fn next(&mut self) -> Option<&'a [Const]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.arity == 0 {
            return Some(&[]);
        }
        if self.adds.is_empty() && self.dels.is_empty() {
            let (row, rest) = self.base.split_at(self.arity);
            self.base = rest;
            return Some(row);
        }
        Some(self.next_layered())
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
    left: &'a [Const],
    right: &'a [Const],
    arity: usize,
}

impl<'a> MergeRows<'a> {
    fn new(left: &'a [Const], right: &'a [Const], arity: usize) -> Self {
        MergeRows { left, right, arity }
    }

    #[allow(clippy::should_implement_trait)] // lending iterator shape
    fn next(&mut self) -> Option<(&'a [Const], MergeSide)> {
        let arity = self.arity;
        let side = match (self.left.get(..arity), self.right.get(..arity)) {
            (None, None) => return None,
            (Some(_), None) => MergeSide::Left,
            (None, Some(_)) => MergeSide::Right,
            (Some(l), Some(r)) => match l.cmp(r) {
                Ordering::Less => MergeSide::Left,
                Ordering::Greater => MergeSide::Right,
                Ordering::Equal => MergeSide::Both,
            },
        };
        let row = if side == MergeSide::Right {
            &self.right[..arity]
        } else {
            &self.left[..arity]
        };
        if side != MergeSide::Right {
            self.left = &self.left[arity..];
        }
        if side != MergeSide::Left {
            self.right = &self.right[arity..];
        }
        Some((row, side))
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
        assert!(Arc::ptr_eq(&a.base, &b.base), "clone must share");
        // no-op mutations keep sharing
        assert!(!a.insert(tuple![1, 2]).unwrap());
        assert!(!a.remove(&tuple![9, 9]));
        assert!(Arc::ptr_eq(&a.base, &b.base));
        // a real mutation unshares and leaves the clone untouched
        assert!(a.insert(tuple![5, 6]).unwrap());
        assert!(!Arc::ptr_eq(&a.base, &b.base));
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
        assert!(Arc::ptr_eq(&base.base, &same.base));
        // an outstanding clone is never disturbed
        let snapshot = base.clone();
        let _ = base.merge_rows(&adds, &dels).unwrap();
        assert_eq!(snapshot, base);
    }

    /// `n` rows `(i, i)` for `i` in `0..n`, doubled so `n..2n` stays free.
    fn diagonal(n: u32) -> Relation {
        Relation::from_tuples(2, (0..n).map(|i| tuple![2 * i, 2 * i])).unwrap()
    }

    #[test]
    fn writes_to_a_large_relation_compose_into_a_delta_over_the_shared_base() {
        let stored = diagonal(640);
        let index = stored.cached(0, |r| r.len());
        let mut written = stored.clone();
        assert!(written.insert(tuple![1, 1]).unwrap());
        assert!(written.remove(&tuple![4, 4]));
        assert!(!written.remove(&tuple![4, 4]), "already deleted");
        assert!(!written.insert(tuple![1, 1]).unwrap(), "already added");
        assert!(!written.is_flat());
        assert!(
            Arc::ptr_eq(&written.base, &stored.base),
            "the base is shared"
        );
        assert!(Arc::ptr_eq(&written.cached(0, |r| r.len()), &index));
        assert_eq!(written.len(), 640);
        assert_eq!(written.delta().0, &[Const::new(1), Const::new(1)]);
        assert_eq!(written.delta().1, &[Const::new(4), Const::new(4)]);
        assert!(written.contains(&tuple![1, 1]) && !written.contains(&tuple![4, 4]));
        // a revived row leaves the dels, a removed add leaves the adds
        assert!(written.insert(tuple![4, 4]).unwrap());
        assert!(written.remove(&tuple![1, 1]));
        assert!(written.is_flat(), "an emptied delta is dropped");
        assert_eq!(written, stored);
        assert!(written.shares_rows(&stored));
    }

    #[test]
    fn a_delta_past_a_sixty_fourth_of_the_base_folds_into_a_fresh_run() {
        let stored = diagonal(640);
        let mut written = stored.clone();
        for i in 0..10 {
            assert!(written.insert(tuple![2 * i + 1, 0]).unwrap());
            assert!(Arc::ptr_eq(&written.base, &stored.base));
        }
        assert!(written.insert(tuple![21, 0]).unwrap());
        assert!(written.is_flat(), "11 rows over a base of 640 fold");
        assert!(!Arc::ptr_eq(&written.base, &stored.base));
        assert_eq!(written.len(), 651);
        assert_eq!(stored.len(), 640, "the snapshot is untouched");
        // a batch that would pass the rule writes a fresh base at once
        let adds: Vec<Const> = (0..11)
            .flat_map(|i| [Const::new(2 * i + 1), Const::new(1)])
            .collect();
        assert!(stored.merge_rows(&adds, &[]).unwrap().is_flat());
        assert!(!stored.merge_rows(&adds[..20], &[]).unwrap().is_flat());
    }

    #[test]
    fn relations_sharing_a_base_compare_their_deltas() {
        let stored = diagonal(640);
        let c = Const::new;
        let a = stored
            .merge_rows(&[c(1), c(1), c(3), c(3)], &[c(0), c(0)])
            .unwrap();
        let b = stored
            .merge_rows(&[c(3), c(3), c(5), c(5)], &[c(2), c(2)])
            .unwrap();
        let flat = |r: &Relation| Relation::from_tuples(2, r.tuples()).unwrap();
        let (fa, fb) = (flat(&a), flat(&b));
        assert_eq!(a.difference(&b).unwrap(), fa.difference(&fb).unwrap());
        assert_eq!(a.difference(&b).unwrap().len(), 2, "(1,1) and (2,2)");
        assert_eq!(
            a.symmetric_difference(&b).unwrap(),
            fa.symmetric_difference(&fb).unwrap()
        );
        assert_eq!(a.union(&b).unwrap(), fa.union(&fb).unwrap());
        assert_eq!(a.intersection(&b).unwrap(), fa.intersection(&fb).unwrap());
        assert!(Arc::ptr_eq(&a.union(&b).unwrap().base, &stored.base));
        assert!(!a.is_subset(&b));
        assert!(a.intersection(&b).unwrap().is_subset(&b));
        // equal rows are equal, ordered and hashed alike, layered or flat
        assert_eq!(a, fa);
        assert_eq!(a.cmp(&fb), fa.cmp(&fb));
        let hash = |r: &Relation| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            r.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&fa));
        assert_eq!(a.to_string(), fa.to_string());
    }
}
