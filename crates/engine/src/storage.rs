//! Storage of whole databases in indexed form.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use kbt_data::{Const, DataError, Database, RelId, Relation, Tuple};

use crate::index::{IndexedRelation, Mask};

/// A database whose relations are [`IndexedRelation`]s: the engine's working
/// set during fixpoint evaluation — stored runs shared, with private tails
/// on top (see [`crate::index`]).
#[derive(Clone, Debug, Default)]
pub struct IndexStorage {
    relations: BTreeMap<RelId, IndexedRelation>,
}

impl IndexStorage {
    /// Empty storage.
    pub fn new() -> Self {
        IndexStorage::default()
    }

    /// Wraps a whole database — what a session does, since later deltas
    /// may touch any relation.  Each relation is loaded the one way
    /// [`IndexedRelation::from_relation`] loads: its stored run becomes
    /// the shared first segment (nothing is copied), the indexes the
    /// session demands on it are the ones cached on the run, and the
    /// session's own writes go into private tails, until a snapshot
    /// re-seats the relation ([`Self::snapshot_relation`]).  One-shot
    /// evaluation uses [`Self::load`] instead.
    pub fn from_database(db: &Database) -> Self {
        IndexStorage {
            relations: db
                .iter()
                .map(|(rel, r)| (rel, IndexedRelation::from_relation(r)))
                .collect(),
        }
    }

    /// Wraps only the `named` relations of `edb` (each with the arity its
    /// user expects; empty where `edb` has none) — the one-shot path's
    /// load, through the same [`IndexedRelation::from_relation`] as
    /// [`Self::from_database`]: each stored run becomes the shared first
    /// segment of its relation, so a load copies no row and hashes
    /// nothing, and an index a plan demands on it is built once per run
    /// and found there by every later read of an epoch that holds the same
    /// run.  A relation no rule names is not wrapped at all.  Every stored
    /// relation nothing is written to comes back through
    /// [`Self::overlay_on`] as the `Arc` it went in as.  Fails on an arity
    /// conflict, between `edb` and a name or between two names.
    pub fn load(
        edb: &Database,
        named: impl IntoIterator<Item = (RelId, usize)>,
    ) -> Result<Self, DataError> {
        let mut storage = IndexStorage::new();
        for (rel, arity) in named {
            if let (Entry::Vacant(slot), Some(r)) =
                (storage.relations.entry(rel), edb.relation(rel))
            {
                slot.insert(IndexedRelation::from_relation(r));
            }
            storage.ensure_relation(rel, arity)?;
        }
        Ok(storage)
    }

    /// Ensures `rel` exists with the given arity (empty if absent); fails on
    /// an arity conflict.
    pub fn ensure_relation(&mut self, rel: RelId, arity: usize) -> Result<(), DataError> {
        match self.relations.get(&rel) {
            Some(existing) if existing.arity() != arity => Err(DataError::ArityMismatch {
                rel,
                expected: existing.arity(),
                found: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.relations.insert(rel, IndexedRelation::new(arity));
                Ok(())
            }
        }
    }

    /// The indexed relation stored under `rel`, if any.
    pub fn relation(&self, rel: RelId) -> Option<&IndexedRelation> {
        self.relations.get(&rel)
    }

    /// A snapshot of the relation stored under `rel` (see
    /// [`IndexedRelation::snapshot`]): `O(1)` when nothing changed since the
    /// last one, never disturbed by later mutations of the storage, and —
    /// when it lands on a new base run — re-seating the relation there.
    pub fn snapshot_relation(&mut self, rel: RelId) -> Option<kbt_data::Relation> {
        self.relations.get_mut(&rel).map(IndexedRelation::snapshot)
    }

    /// Whether the fact `rel(t)` is stored.
    pub fn holds(&self, rel: RelId, t: &Tuple) -> bool {
        self.relations.get(&rel).is_some_and(|r| r.contains(t))
    }

    /// [`Self::holds`] for a raw row slice (the row's length must match the
    /// relation's arity — derived head rows always do).
    pub fn holds_row(&self, rel: RelId, row: &[Const]) -> bool {
        self.relations
            .get(&rel)
            .is_some_and(|r| r.contains_row(row))
    }

    /// Inserts a fact into an existing relation; returns `true` if new.
    pub fn insert_fact(&mut self, rel: RelId, t: Tuple) -> bool {
        self.relations
            .get_mut(&rel)
            .expect("relation ensured before evaluation")
            .insert(t)
    }

    /// [`Self::insert_fact`] for a raw row slice.
    pub fn insert_row(&mut self, rel: RelId, row: &[Const]) -> bool {
        self.relations
            .get_mut(&rel)
            .expect("relation ensured before evaluation")
            .insert_row(row)
    }

    /// Bulk-appends a run of facts none of which is stored yet (see
    /// [`IndexedRelation::append_run`] for the contract).
    pub fn append_run(&mut self, rel: RelId, run: &Relation) {
        self.relations
            .get_mut(&rel)
            .expect("relation ensured before evaluation")
            .append_run(run);
    }

    /// Removes a fact, returning `true` if it was present.  Unknown
    /// relations simply report `false`.
    pub fn remove_fact(&mut self, rel: RelId, t: &Tuple) -> bool {
        self.relations.get_mut(&rel).is_some_and(|r| r.remove(t))
    }

    /// [`Self::remove_fact`] for a raw row slice.
    pub fn remove_row(&mut self, rel: RelId, row: &[Const]) -> bool {
        self.relations
            .get_mut(&rel)
            .is_some_and(|r| r.remove_row(row))
    }

    /// Demands the index for `(rel, mask)`; a no-op for unknown relations.
    pub fn ensure_index(&mut self, rel: RelId, mask: Mask) {
        if let Some(r) = self.relations.get_mut(&rel) {
            r.ensure_index(mask);
        }
    }

    /// Demands the first segment's membership table of `rel` (see
    /// [`IndexedRelation::demand_membership`]); a no-op for unknown
    /// relations.
    pub fn demand_membership(&mut self, rel: RelId) {
        if let Some(r) = self.relations.get_mut(&rel) {
            r.demand_membership();
        }
    }

    /// Switches every relation whose tail is sorted and non-empty to its
    /// chained membership table ([`IndexedRelation::chain_tail`]): what
    /// the incremental session does before a delta, whose point lookups,
    /// writes and removals want the tables.  First segments keep their
    /// tables deferred, and empty tails stay sorted, until something asks
    /// for a row by key.
    pub(crate) fn chain_sorted_tails(&mut self) {
        for r in self.relations.values_mut() {
            if r.slot_count() > r.seg_slots() {
                r.chain_tail();
            }
        }
    }

    /// The number of facts stored under `rel` (0 when absent); the
    /// cardinality source for the join planner's tie-breaking.
    pub fn relation_len(&self, rel: RelId) -> usize {
        self.relations.get(&rel).map_or(0, IndexedRelation::len)
    }

    /// Total number of stored facts.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(IndexedRelation::len).sum()
    }

    /// Copies the storage back into a plain database.
    pub fn to_database(&self) -> Database {
        self.overlay_on(&Database::new(), None)
    }

    /// `edb` with every stored relation set to its current contents: the
    /// relations [`Self::load`] left out pass through as `Arc` clones, and
    /// so does every stored one nothing was written to.  Given `keep`, only
    /// the kept relations, each from storage where stored and from `edb`
    /// otherwise (absent where neither has it): no other relation is
    /// materialised.
    pub fn overlay_on(&self, edb: &Database, keep: Option<&[RelId]>) -> Database {
        let Some(keep) = keep else {
            let mut db = edb.clone();
            for (&rel, r) in &self.relations {
                db.set_relation(rel, r.to_relation());
            }
            return db;
        };
        let mut db = Database::new();
        for &rel in keep {
            match (self.relations.get(&rel), edb.relation(rel)) {
                (Some(r), _) => db.set_relation(rel, r.to_relation()),
                (None, Some(r)) => db.set_relation(rel, r.clone()),
                (None, None) => {}
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{tuple, DatabaseBuilder};

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn db() -> Database {
        DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .fact(r(2), [7u32])
            .build()
            .unwrap()
    }

    #[test]
    fn database_round_trip() {
        let storage = IndexStorage::from_database(&db());
        assert_eq!(storage.fact_count(), 3);
        assert!(storage.holds(r(1), &tuple![1, 2]));
        assert!(!storage.holds(r(1), &tuple![2, 1]));
        assert_eq!(storage.to_database(), db());
    }

    #[test]
    fn a_kept_overlay_materialises_only_the_kept_relations() {
        let mut storage = IndexStorage::load(&db(), [(r(1), 2), (r(3), 1)]).unwrap();
        storage.insert_fact(r(3), tuple![9]);
        let kept = storage.overlay_on(&db(), Some(&[r(2), r(3), r(4)]));
        let want = DatabaseBuilder::new()
            .fact(r(2), [7u32])
            .fact(r(3), [9u32])
            .build()
            .unwrap();
        assert_eq!(kept, want);
    }

    #[test]
    fn ensure_relation_enforces_arity() {
        let mut storage = IndexStorage::from_database(&db());
        assert!(storage.ensure_relation(r(1), 2).is_ok());
        assert!(storage.ensure_relation(r(1), 3).is_err());
        assert!(storage.ensure_relation(r(9), 1).is_ok());
        assert!(storage.relation(r(9)).unwrap().is_empty());
    }

    #[test]
    fn insert_fact_reports_novelty() {
        let mut storage = IndexStorage::from_database(&db());
        assert!(storage.insert_fact(r(2), tuple![8]));
        assert!(!storage.insert_fact(r(2), tuple![8]));
        assert_eq!(storage.fact_count(), 4);
    }

    #[test]
    fn remove_fact_reports_presence() {
        let mut storage = IndexStorage::from_database(&db());
        assert!(storage.remove_fact(r(1), &tuple![1, 2]));
        assert!(!storage.remove_fact(r(1), &tuple![1, 2]));
        assert!(!storage.remove_fact(r(9), &tuple![1]));
        assert_eq!(storage.fact_count(), 2);
        assert!(!storage.holds(r(1), &tuple![1, 2]));
        assert_eq!(storage.relation_len(r(1)), 1);
        assert_eq!(storage.relation_len(r(9)), 0);
    }
}
