//! Subsumptive call-pattern memoization for goal-directed queries.
//!
//! A [`SubsumptiveTable`] memoizes the answers of point queries on one
//! immutable snapshot: the key is the *call pattern* — relation, the mask
//! of bound argument positions, and the bound values packed into a `u64`
//! through the same [`crate::fx::KeyAcc`] scheme the join indexes use —
//! and the value is the exact answer set for that call.
//!
//! Lookups are **subsumptive** (Tekle & Liu, *More Efficient Datalog
//! Queries: Subsumptive Tabling Beats Magic Sets*): a call
//! `reach('a', 'b')` is answered from a memoized more-general call
//! `reach('a', x)` by filtering the memoized answers on the extra bound
//! column — no evaluation at all.  Concretely, a stored entry subsumes a
//! lookup when its bound-position mask is a subset of the lookup's mask
//! and the shared positions carry the same constants.
//!
//! The table never invalidates individual entries: it caches answers over
//! one immutable epoch snapshot, so its owner (in the service, the epoch's
//! published version) drops the whole table with that epoch.
//! Hit/miss/eviction counts feed the `kbt_engine_table_*` counters on the
//! global registry.

use std::collections::HashMap;

use kbt_data::{Const, Relation};

use crate::fx::{FxBuild, KeyAcc};
use crate::metrics::metrics;

/// Widest relation a call-pattern mask can express.
const MAX_MASK_ARITY: usize = 32;

/// One memoized call: the verified bound values (packed keys over > 2
/// columns can collide) and the exact answer set.
#[derive(Clone, Debug)]
struct Entry {
    /// Bound values in ascending position order.
    bound: Vec<Const>,
    /// The memoized answers (all columns, already filtered to the call).
    answer: Relation,
}

/// A memo of goal-directed query answers over one immutable snapshot,
/// keyed by packed call patterns and consulted subsumptively.
///
/// The `tag` argument on every method lets one table serve several answer
/// spaces (the service uses it to separate certain from possible answers);
/// entries never mix across tags.
#[derive(Clone, Debug, Default)]
pub struct SubsumptiveTable {
    /// `(tag, rel, mask, packed bound values)` → collision bucket.
    entries: HashMap<(u8, u32, u32, u64), Vec<Entry>, FxBuild>,
    /// Masks present per `(tag, rel)`, for the subsumption walk.
    masks: HashMap<(u8, u32), Vec<u32>, FxBuild>,
}

impl SubsumptiveTable {
    /// An empty table.
    pub fn new() -> Self {
        SubsumptiveTable::default()
    }

    /// Number of memoized calls.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether the table memoizes nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the answers for a call on `rel` with the given bound
    /// positions (ascending position order).  Returns the exact answer
    /// set on an exact or subsuming hit, `None` on a miss.  Bumps the
    /// `kbt_engine_table_{hits,misses}` counters.
    pub fn lookup(&self, tag: u8, rel: u32, bound: &[(usize, Const)]) -> Option<Relation> {
        let m = metrics();
        match self.lookup_inner(tag, rel, bound) {
            Some(answer) => {
                m.table_hits.inc();
                Some(answer)
            }
            None => {
                m.table_misses.inc();
                None
            }
        }
    }

    fn lookup_inner(&self, tag: u8, rel: u32, bound: &[(usize, Const)]) -> Option<Relation> {
        let mask = pattern_mask(bound)?;
        // Exact hit first.
        if let Some(entry) = self.find(tag, rel, mask, bound) {
            return Some(entry.answer.clone());
        }
        // Subsuming entries: a strict subset mask agreeing on the shared
        // positions; prefer the most-bound one (least residual filtering).
        let mut cands: Vec<u32> = self
            .masks
            .get(&(tag, rel))?
            .iter()
            .copied()
            .filter(|m| m & mask == *m && *m != mask)
            .collect();
        cands.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
        for sub in cands {
            let shared: Vec<(usize, Const)> = bound
                .iter()
                .copied()
                .filter(|(i, _)| sub & (1 << *i) != 0)
                .collect();
            if let Some(entry) = self.find(tag, rel, sub, &shared) {
                let residual: Vec<(usize, Const)> = bound
                    .iter()
                    .copied()
                    .filter(|(i, _)| sub & (1 << *i) == 0)
                    .collect();
                return Some(filter_rows(&entry.answer, &residual));
            }
        }
        None
    }

    /// Memoizes the answers of one call.  Overwrites an existing entry for
    /// the same pattern.
    pub fn insert(&mut self, tag: u8, rel: u32, bound: &[(usize, Const)], answer: Relation) {
        let Some(mask) = pattern_mask(bound) else {
            return;
        };
        let key = (tag, rel, mask, pack_bound(bound));
        let values: Vec<Const> = bound.iter().map(|(_, c)| *c).collect();
        let bucket = self.entries.entry(key).or_default();
        match bucket.iter_mut().find(|e| e.bound == values) {
            Some(entry) => entry.answer = answer,
            None => {
                bucket.push(Entry {
                    bound: values,
                    answer,
                });
                let masks = self.masks.entry((tag, rel)).or_default();
                if !masks.contains(&mask) {
                    masks.push(mask);
                }
            }
        }
    }

    /// Drops every memoized call (the snapshot the answers were computed
    /// over is being dropped).  Returns the number of entries dropped
    /// and adds it to the `kbt_engine_table_evictions` counter.
    pub fn evict(&mut self) -> usize {
        let dropped = self.len();
        self.entries.clear();
        self.masks.clear();
        if dropped > 0 {
            metrics().table_evictions.add(dropped as u64);
        }
        dropped
    }

    fn find(&self, tag: u8, rel: u32, mask: u32, bound: &[(usize, Const)]) -> Option<&Entry> {
        let key = (tag, rel, mask, pack_bound(bound));
        self.entries.get(&key)?.iter().find(|e| {
            e.bound.len() == bound.len() && e.bound.iter().zip(bound).all(|(a, (_, b))| a == b)
        })
    }
}

/// The bound-position mask of a call pattern, or `None` when a position is
/// too wide to index (callers simply skip tabling then).
fn pattern_mask(bound: &[(usize, Const)]) -> Option<u32> {
    let mut mask = 0u32;
    for (i, _) in bound {
        if *i >= MAX_MASK_ARITY {
            return None;
        }
        mask |= 1 << *i;
    }
    Some(mask)
}

/// Packs the bound values (ascending position order) into a `u64` key.
fn pack_bound(bound: &[(usize, Const)]) -> u64 {
    let mut acc = KeyAcc::new(bound.len());
    for (_, c) in bound {
        acc.push(*c);
    }
    acc.finish()
}

/// Keeps the rows of `rel` whose columns match every `(position, value)`
/// constraint.
pub fn filter_rows(rel: &Relation, bound: &[(usize, Const)]) -> Relation {
    if bound.is_empty() {
        return rel.clone();
    }
    let mut out = Relation::empty(rel.arity());
    for row in rel.iter() {
        if bound.iter().all(|(i, c)| row[*i] == *c) {
            out.insert_row(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_of(rows: &[[u32; 2]]) -> Relation {
        let mut r = Relation::empty(2);
        for row in rows {
            r.insert_row(&[Const::new(row[0]), Const::new(row[1])]);
        }
        r
    }

    #[test]
    fn exact_hits_return_the_memoized_answer() {
        let mut t = SubsumptiveTable::new();
        let call = [(0usize, Const::new(5))];
        assert!(t.lookup(0, 7, &call).is_none());
        let ans = rel_of(&[[5, 1], [5, 2]]);
        t.insert(0, 7, &call, ans.clone());
        assert_eq!(t.lookup(0, 7, &call), Some(ans));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn more_general_calls_subsume_specific_ones() {
        let mut t = SubsumptiveTable::new();
        let general = [(0usize, Const::new(5))];
        t.insert(0, 7, &general, rel_of(&[[5, 1], [5, 2]]));
        // reach(5, 2) is answered from the memoized reach(5, x).
        let specific = [(0usize, Const::new(5)), (1usize, Const::new(2))];
        let got = t.lookup(0, 7, &specific).expect("subsumptive hit");
        assert_eq!(got, rel_of(&[[5, 2]]));
        // A disagreeing shared position is not subsumed.
        let other = [(0usize, Const::new(6)), (1usize, Const::new(2))];
        assert!(t.lookup(0, 7, &other).is_none());
    }

    #[test]
    fn the_all_free_entry_subsumes_everything() {
        let mut t = SubsumptiveTable::new();
        t.insert(1, 3, &[], rel_of(&[[1, 2], [3, 4]]));
        let got = t.lookup(1, 3, &[(1usize, Const::new(4))]).unwrap();
        assert_eq!(got, rel_of(&[[3, 4]]));
    }

    #[test]
    fn tags_and_relations_do_not_mix() {
        let mut t = SubsumptiveTable::new();
        let call = [(0usize, Const::new(5))];
        t.insert(0, 7, &call, rel_of(&[[5, 1]]));
        assert!(t.lookup(1, 7, &call).is_none());
        assert!(t.lookup(0, 8, &call).is_none());
    }

    #[test]
    fn eviction_empties_the_table() {
        let mut t = SubsumptiveTable::new();
        t.insert(0, 7, &[(0usize, Const::new(5))], rel_of(&[[5, 1]]));
        t.insert(0, 7, &[(0usize, Const::new(6))], rel_of(&[[6, 1]]));
        assert_eq!(t.evict(), 2);
        assert!(t.is_empty());
        assert!(t.lookup(0, 7, &[(0usize, Const::new(5))]).is_none());
    }

    #[test]
    fn wide_collision_prone_keys_verify_bound_values() {
        // Three bound columns fall back to hash-with-verify; a lookup with
        // different values must not alias even if keys collided.
        let mut t = SubsumptiveTable::new();
        let mut r3 = Relation::empty(3);
        r3.insert_row(&[Const::new(1), Const::new(2), Const::new(3)]);
        let call = [
            (0usize, Const::new(1)),
            (1usize, Const::new(2)),
            (2usize, Const::new(3)),
        ];
        t.insert(0, 9, &call, r3.clone());
        assert_eq!(t.lookup(0, 9, &call), Some(r3));
        let other = [
            (0usize, Const::new(3)),
            (1usize, Const::new(2)),
            (2usize, Const::new(1)),
        ];
        assert!(t.lookup(0, 9, &other).is_none());
    }
}
