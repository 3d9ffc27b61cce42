//! Databases: finite relational structures under the closed world assumption.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::DataError;
use crate::relation::Relation;
use crate::schema::{RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Const;
use crate::Result;

/// A database `db = (r_{i1}, …, r_{in})`: a finite relation for each relation
/// symbol of its schema.
///
/// Only the facts explicitly stored are true (closed world assumption,
/// Section 2 of the paper).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Database {
    relations: BTreeMap<RelId, Relation>,
}

impl Database {
    /// The empty database over the empty schema.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a database with every relation of `schema` empty.
    pub fn empty_over(schema: &Schema) -> Self {
        Database {
            relations: schema
                .iter()
                .map(|(r, a)| (r, Relation::empty(a)))
                .collect(),
        }
    }

    /// The schema `σ(db)` of the database.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for (&r, rel) in &self.relations {
            // arities inside one database are consistent by construction
            s.add(r, rel.arity()).expect("consistent arities");
        }
        s
    }

    /// Adds (or replaces) a whole relation.
    pub fn set_relation(&mut self, rel: RelId, relation: Relation) {
        self.relations.insert(rel, relation);
    }

    /// Ensures `rel` exists with the given arity (empty if absent).
    ///
    /// Fails if `rel` is already present with a different arity.
    pub fn ensure_relation(&mut self, rel: RelId, arity: usize) -> Result<()> {
        match self.relations.get(&rel) {
            Some(existing) if existing.arity() != arity => Err(DataError::ArityMismatch {
                rel,
                expected: existing.arity(),
                found: arity,
            }),
            Some(_) => Ok(()),
            None => {
                self.relations.insert(rel, Relation::empty(arity));
                Ok(())
            }
        }
    }

    /// The relation stored under `rel`, if any.
    pub fn relation(&self, rel: RelId) -> Option<&Relation> {
        self.relations.get(&rel)
    }

    /// Whether the fact `rel(t)` holds (closed world: absent ⇒ false).
    pub fn holds(&self, rel: RelId, t: &Tuple) -> bool {
        self.relations.get(&rel).is_some_and(|r| r.contains(t))
    }

    /// Inserts the fact `rel(t)`, creating the relation if needed.
    pub fn insert_fact(&mut self, rel: RelId, t: Tuple) -> Result<bool> {
        self.ensure_relation(rel, t.arity())?;
        self.relations
            .get_mut(&rel)
            .expect("just ensured")
            .insert(t)
    }

    /// Removes the fact `rel(t)`; returns whether it was present.
    pub fn remove_fact(&mut self, rel: RelId, t: &Tuple) -> bool {
        self.relations.get_mut(&rel).is_some_and(|r| r.remove(t))
    }

    /// Number of facts across all relations.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Iterates over `(relation symbol, relation)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &Relation)> + '_ {
        self.relations.iter().map(|(&r, rel)| (r, rel))
    }

    /// Iterates over every fact `(relation symbol, tuple)`.
    ///
    /// Tuples are materialized from the flat row storage on the fly; hot
    /// paths should iterate [`Relation::iter`] row slices via [`Self::iter`]
    /// instead.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, Tuple)> + '_ {
        self.relations
            .iter()
            .flat_map(|(&r, rel)| rel.tuples().map(move |t| (r, t)))
    }

    /// The active domain: every constant appearing in some fact.
    pub fn constants(&self) -> BTreeSet<Const> {
        self.relations
            .values()
            .flat_map(|r| r.constants())
            .collect()
    }

    /// Projects the database onto the listed relation symbols (the paper's
    /// `π_{i1,…,ik}` applied to a single database).  Symbols not present are
    /// silently ignored.
    pub fn project(&self, rels: &[RelId]) -> Database {
        Database {
            relations: self
                .relations
                .iter()
                .filter(|(r, _)| rels.contains(r))
                .map(|(&r, rel)| (r, rel.clone()))
                .collect(),
        }
    }

    /// Extends the schema of the database with empty relations so that it
    /// covers `schema` (used when lifting `db` into the candidate space
    /// `DB_s` with `s ⊇ σ(db)`).
    pub fn extend_schema(&self, schema: &Schema) -> Result<Database> {
        let mut out = self.clone();
        for (r, a) in schema.iter() {
            out.ensure_relation(r, a)?;
        }
        Ok(out)
    }

    /// Componentwise intersection with another database over the same schema.
    pub fn componentwise_intersection(&self, other: &Database) -> Result<Database> {
        self.componentwise(other, Relation::intersection)
    }

    /// Componentwise union with another database over the same schema.
    pub fn componentwise_union(&self, other: &Database) -> Result<Database> {
        self.componentwise(other, Relation::union)
    }

    fn componentwise(
        &self,
        other: &Database,
        op: impl Fn(&Relation, &Relation) -> Result<Relation>,
    ) -> Result<Database> {
        if self.schema() != other.schema() {
            return Err(DataError::SchemaMismatch {
                left: self.schema(),
                right: other.schema(),
            });
        }
        let mut out = Database::new();
        for (r, rel) in self.iter() {
            let other_rel = other.relation(r).expect("same schema");
            out.set_relation(r, op(rel, other_rel)?);
        }
        Ok(out)
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (r, rel)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}={rel}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn facts_and_closed_world() {
        let mut db = Database::new();
        db.insert_fact(r(1), tuple![1, 2]).unwrap();
        db.insert_fact(r(1), tuple![1, 4]).unwrap();
        assert!(db.holds(r(1), &tuple![1, 2]));
        assert!(!db.holds(r(1), &tuple![2, 1]));
        assert!(!db.holds(r(9), &tuple![1, 2]));
        assert_eq!(db.fact_count(), 2);
    }

    #[test]
    fn schema_reflects_relations() {
        let mut db = Database::new();
        db.insert_fact(r(1), tuple![1, 2]).unwrap();
        db.ensure_relation(r(2), 1).unwrap();
        let s = db.schema();
        assert_eq!(s.arity(r(1)), Some(2));
        assert_eq!(s.arity(r(2)), Some(1));
    }

    #[test]
    fn arity_conflicts_rejected() {
        let mut db = Database::new();
        db.insert_fact(r(1), tuple![1, 2]).unwrap();
        assert!(db.insert_fact(r(1), tuple![1]).is_err());
        assert!(db.ensure_relation(r(1), 3).is_err());
    }

    #[test]
    fn projection_keeps_selected_relations() {
        let mut db = Database::new();
        db.insert_fact(r(1), tuple![1, 2]).unwrap();
        db.insert_fact(r(2), tuple![3]).unwrap();
        let p = db.project(&[r(2)]);
        assert!(p.relation(r(1)).is_none());
        assert!(p.holds(r(2), &tuple![3]));
    }

    #[test]
    fn extend_schema_adds_empty_relations() {
        let mut db = Database::new();
        db.insert_fact(r(1), tuple![1, 2]).unwrap();
        let s = Schema::from_pairs([(r(1), 2), (r(2), 1)]).unwrap();
        let ext = db.extend_schema(&s).unwrap();
        assert!(ext.relation(r(2)).unwrap().is_empty());
        assert!(ext.holds(r(1), &tuple![1, 2]));
    }

    #[test]
    fn componentwise_glb_lub_from_paper_example() {
        // kb = {({a1a2, a1a4}), ({a1a4, a2a3})} over a single binary relation.
        // ⊓(kb) = {a1a4}, ⊔(kb) = {a1a2, a2a3, a1a4}   (Section 2).
        let mut d1 = Database::new();
        d1.insert_fact(r(1), tuple![1, 2]).unwrap();
        d1.insert_fact(r(1), tuple![1, 4]).unwrap();
        let mut d2 = Database::new();
        d2.insert_fact(r(1), tuple![1, 4]).unwrap();
        d2.insert_fact(r(1), tuple![2, 3]).unwrap();

        let glb = d1.componentwise_intersection(&d2).unwrap();
        assert_eq!(glb.fact_count(), 1);
        assert!(glb.holds(r(1), &tuple![1, 4]));

        let lub = d1.componentwise_union(&d2).unwrap();
        assert_eq!(lub.fact_count(), 3);
    }

    #[test]
    fn componentwise_requires_identical_schema() {
        let mut d1 = Database::new();
        d1.insert_fact(r(1), tuple![1, 2]).unwrap();
        let mut d2 = Database::new();
        d2.insert_fact(r(2), tuple![1, 2]).unwrap();
        assert!(d1.componentwise_union(&d2).is_err());
    }

    #[test]
    fn active_domain() {
        let mut db = Database::new();
        db.insert_fact(r(1), tuple![1, 2]).unwrap();
        db.insert_fact(r(2), tuple![5]).unwrap();
        let dom: Vec<_> = db.constants().into_iter().collect();
        assert_eq!(dom, vec![Const::new(1), Const::new(2), Const::new(5)]);
    }
}
