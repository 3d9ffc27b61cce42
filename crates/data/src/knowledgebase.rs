//! Knowledgebases: finite sets of databases over one schema.

use std::collections::BTreeSet;
use std::fmt;

use crate::database::Database;
use crate::error::DataError;
use crate::schema::{RelId, Schema};
use crate::value::Const;
use crate::Result;

/// A knowledgebase `kb`: a finite set of databases with the same schema
/// (Section 2).  The set of databases is the set of "possible worlds"; a
/// fact is *certain* if it holds in every database and *possible* if it holds
/// in at least one.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Knowledgebase {
    databases: BTreeSet<Database>,
}

impl Knowledgebase {
    /// The empty (inconsistent) knowledgebase — no possible worlds.
    pub fn empty() -> Self {
        Knowledgebase::default()
    }

    /// The knowledgebase containing a single database.
    pub fn singleton(db: Database) -> Self {
        let mut databases = BTreeSet::new();
        databases.insert(db);
        Knowledgebase { databases }
    }

    /// Builds a knowledgebase from databases, checking that they all share
    /// one schema.
    pub fn from_databases(dbs: impl IntoIterator<Item = Database>) -> Result<Self> {
        let mut kb = Knowledgebase::empty();
        for db in dbs {
            kb.insert(db)?;
        }
        Ok(kb)
    }

    /// Inserts a database; fails if its schema differs from the knowledge-
    /// base's schema (compared in place: neither schema is built unless
    /// they differ).  Returns whether the database was new.
    pub fn insert(&mut self, db: Database) -> Result<bool> {
        if let Some(existing) = self.databases.iter().next() {
            if !existing.same_schema(&db) {
                return Err(DataError::SchemaMismatch {
                    left: existing.schema(),
                    right: db.schema(),
                });
            }
        }
        Ok(self.databases.insert(db))
    }

    /// Number of possible worlds.
    pub fn len(&self) -> usize {
        self.databases.len()
    }

    /// Whether the knowledgebase has no possible worlds.
    pub fn is_empty(&self) -> bool {
        self.databases.is_empty()
    }

    /// Whether the knowledgebase consists of exactly one database.
    pub fn is_singleton(&self) -> bool {
        self.databases.len() == 1
    }

    /// The schema shared by all databases (empty schema if the kb is empty).
    pub fn schema(&self) -> Schema {
        self.databases
            .iter()
            .next()
            .map(Database::schema)
            .unwrap_or_default()
    }

    /// Whether the given database is one of the possible worlds.
    pub fn contains(&self, db: &Database) -> bool {
        self.databases.contains(db)
    }

    /// Iterates over the possible worlds in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Database> + '_ {
        self.databases.iter()
    }

    /// The only database, if the knowledgebase is a singleton.
    pub fn as_singleton(&self) -> Option<&Database> {
        if self.is_singleton() {
            self.databases.iter().next()
        } else {
            None
        }
    }

    /// Set union of two knowledgebases over the same schema (used by KM
    /// postulate (viii): `τ_φ(kb1 ∪ kb2) = τ_φ(kb1) ∪ τ_φ(kb2)`).
    pub fn union(&self, other: &Knowledgebase) -> Result<Knowledgebase> {
        let mut out = self.clone();
        for db in other.iter() {
            out.insert(db.clone())?;
        }
        Ok(out)
    }

    /// Set intersection of two knowledgebases.
    pub fn intersection(&self, other: &Knowledgebase) -> Knowledgebase {
        Knowledgebase {
            databases: self
                .databases
                .intersection(&other.databases)
                .cloned()
                .collect(),
        }
    }

    /// Whether `self ⊆ other` as sets of databases.
    pub fn is_subset(&self, other: &Knowledgebase) -> bool {
        self.databases.is_subset(&other.databases)
    }

    /// The glb operator `⊓(kb)`: the singleton knowledgebase holding the
    /// componentwise intersection of all possible worlds.  Returns the empty
    /// knowledgebase when `kb` is empty.
    pub fn glb(&self) -> Result<Knowledgebase> {
        self.fold_componentwise(Database::componentwise_intersection)
    }

    /// The lub operator `⊔(kb)`: the singleton knowledgebase holding the
    /// componentwise union of all possible worlds.
    pub fn lub(&self) -> Result<Knowledgebase> {
        self.fold_componentwise(Database::componentwise_union)
    }

    fn fold_componentwise(
        &self,
        op: impl Fn(&Database, &Database) -> Result<Database>,
    ) -> Result<Knowledgebase> {
        let mut iter = self.databases.iter();
        let Some(first) = iter.next() else {
            return Ok(Knowledgebase::empty());
        };
        let mut acc = first.clone();
        for db in iter {
            acc = op(&acc, db)?;
        }
        Ok(Knowledgebase::singleton(acc))
    }

    /// The projection operator `π_{i1,…,ik}(kb)`: project every possible
    /// world onto the listed relation symbols.
    pub fn project(&self, rels: &[RelId]) -> Knowledgebase {
        Knowledgebase {
            databases: self.databases.iter().map(|db| db.project(rels)).collect(),
        }
    }

    /// All constants occurring in any possible world.
    pub fn constants(&self) -> BTreeSet<Const> {
        self.databases
            .iter()
            .flat_map(|db| db.constants())
            .collect()
    }

    /// A fact is certain if it holds in every possible world (and the kb is
    /// non-empty).
    pub fn certainly_holds(&self, rel: RelId, t: &crate::Tuple) -> bool {
        !self.is_empty() && self.databases.iter().all(|db| db.holds(rel, t))
    }

    /// A fact is possible if it holds in at least one possible world.
    pub fn possibly_holds(&self, rel: RelId, t: &crate::Tuple) -> bool {
        self.databases.iter().any(|db| db.holds(rel, t))
    }
}

impl fmt::Debug for Knowledgebase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Knowledgebase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, db) in self.databases.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{db}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Database> for Knowledgebase {
    /// Collects databases into a knowledgebase, panicking on schema mismatch;
    /// use [`Knowledgebase::from_databases`] for fallible construction.
    fn from_iter<T: IntoIterator<Item = Database>>(iter: T) -> Self {
        Knowledgebase::from_databases(iter).expect("databases share a schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn db_with(facts: &[crate::Tuple]) -> Database {
        let mut d = Database::new();
        d.ensure_relation(r(1), 2).unwrap();
        for t in facts {
            d.insert_fact(r(1), t.clone()).unwrap();
        }
        d
    }

    #[test]
    fn glb_and_lub_match_paper_example() {
        // kb = {({a1a2, a1a4}), ({a1a4, a2a3})}; ⊓ = {a1a4}, ⊔ = all three.
        let kb = Knowledgebase::from_databases([
            db_with(&[tuple![1, 2], tuple![1, 4]]),
            db_with(&[tuple![1, 4], tuple![2, 3]]),
        ])
        .unwrap();

        let glb = kb.glb().unwrap();
        let glb_db = glb.as_singleton().unwrap();
        assert_eq!(glb_db.fact_count(), 1);
        assert!(glb_db.holds(r(1), &tuple![1, 4]));

        let lub = kb.lub().unwrap();
        let lub_db = lub.as_singleton().unwrap();
        assert_eq!(lub_db.fact_count(), 3);
    }

    #[test]
    fn schema_uniformity_is_enforced() {
        let mut kb = Knowledgebase::singleton(db_with(&[tuple![1, 2]]));
        let mut other = Database::new();
        other.insert_fact(r(2), tuple![1]).unwrap();
        assert!(kb.insert(other).is_err());

        // the same relation ids with another arity
        let mut other_arity = Database::new();
        other_arity.insert_fact(r(1), tuple![1]).unwrap();
        match kb.insert(other_arity) {
            Err(DataError::SchemaMismatch { left, right }) => {
                assert_eq!(left.arity(r(1)), Some(2));
                assert_eq!(right.arity(r(1)), Some(1));
            }
            other => panic!("expected a schema mismatch, got {other:?}"),
        }
        // one extra relation, empty or not
        for extra in [0, 1] {
            let mut wider = db_with(&[tuple![1, 2]]);
            wider.ensure_relation(r(2), 1).unwrap();
            if extra == 1 {
                wider.insert_fact(r(2), tuple![5]).unwrap();
            }
            assert!(kb.insert(wider).is_err());
        }
        assert_eq!(kb.len(), 1);
        // and the same schema is accepted
        assert!(kb.insert(db_with(&[tuple![3, 4]])).unwrap());
    }

    #[test]
    fn duplicate_databases_collapse() {
        let kb =
            Knowledgebase::from_databases([db_with(&[tuple![1, 2]]), db_with(&[tuple![1, 2]])])
                .unwrap();
        assert_eq!(kb.len(), 1);
        assert!(kb.is_singleton());
    }

    #[test]
    fn certain_and_possible_facts() {
        let kb = Knowledgebase::from_databases([
            db_with(&[tuple![1, 2], tuple![1, 4]]),
            db_with(&[tuple![1, 4]]),
        ])
        .unwrap();
        assert!(kb.certainly_holds(r(1), &tuple![1, 4]));
        assert!(!kb.certainly_holds(r(1), &tuple![1, 2]));
        assert!(kb.possibly_holds(r(1), &tuple![1, 2]));
        assert!(!kb.possibly_holds(r(1), &tuple![9, 9]));
        assert!(!Knowledgebase::empty().certainly_holds(r(1), &tuple![1, 4]));
    }

    #[test]
    fn glb_lub_of_empty_kb_is_empty() {
        assert!(Knowledgebase::empty().glb().unwrap().is_empty());
        assert!(Knowledgebase::empty().lub().unwrap().is_empty());
    }

    #[test]
    fn projection_applies_to_every_world() {
        let mut d1 = db_with(&[tuple![1, 2]]);
        d1.insert_fact(r(2), tuple![7]).unwrap();
        let mut d2 = db_with(&[tuple![3, 4]]);
        d2.insert_fact(r(2), tuple![8]).unwrap();
        let kb = Knowledgebase::from_databases([d1, d2]).unwrap();
        let p = kb.project(&[r(2)]);
        assert_eq!(p.len(), 2);
        for dbp in p.iter() {
            assert!(dbp.relation(r(1)).is_none());
            assert!(dbp.relation(r(2)).is_some());
        }
    }

    #[test]
    fn union_and_subset() {
        let a = Knowledgebase::singleton(db_with(&[tuple![1, 2]]));
        let b = Knowledgebase::singleton(db_with(&[tuple![3, 4]]));
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
        assert_eq!(u.intersection(&a), a);
    }
}
