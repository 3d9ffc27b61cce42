//! Databases: finite relational structures under the closed world assumption.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::DataError;
use crate::relation::{sort_dedup_rows, Relation};
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

    /// Whether `other` has the same schema: the same relation symbols with
    /// the same arities.  Compares the two in place, building neither
    /// [`Schema`].
    pub(crate) fn same_schema(&self, other: &Database) -> bool {
        self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(&other.relations)
                .all(|((r, a), (s, b))| r == s && a.arity() == b.arity())
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

    /// Inserts a batch of facts (`insert`) or removes one: each relation's
    /// rows are sorted once and written by one [`Relation::merge_rows`], so
    /// a batch costs its own size and the relation's delta, not a splice of
    /// the relation per fact.  The outcome, errors included, is that of
    /// [`Self::insert_fact`] / [`Self::remove_fact`] fact by fact.
    pub fn apply_facts(&mut self, facts: &[(RelId, Tuple)], insert: bool) -> Result<()> {
        let mut batches: BTreeMap<RelId, Vec<Const>> = BTreeMap::new();
        for (rel, t) in facts {
            if insert {
                self.ensure_relation(*rel, t.arity())?;
            }
            match self.relations.get_mut(rel) {
                // a flag has no rows to batch
                Some(flag) if t.arity() == 0 && flag.arity() == 0 => {
                    if insert {
                        flag.insert_row(&[]);
                    } else {
                        flag.remove_row(&[]);
                    }
                }
                Some(relation) if relation.arity() == t.arity() => {
                    batches.entry(*rel).or_default().extend(t.components());
                }
                // removing from a relation of another arity, or none, misses
                _ => {}
            }
        }
        for (rel, mut rows) in batches {
            let relation = self.relations.get_mut(&rel).expect("batched above");
            let arity = relation.arity();
            let kept = sort_dedup_rows(&mut rows, arity);
            rows.truncate(kept * arity);
            *relation = if insert {
                relation.merge_rows(&rows, &[])?
            } else {
                relation.merge_rows(&[], &rows)?
            };
        }
        Ok(())
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

    /// The active domain: every constant appearing in some fact.  One
    /// buffer of every relation's components — runs of one constant, as a
    /// sorted column has them, pushed once — sorted, deduplicated and
    /// bulk-loaded into the set: no set per relation, no merge of sets.
    pub fn constants(&self) -> BTreeSet<Const> {
        let size = self.relations.values().map(|r| r.len() * r.arity()).sum();
        let mut all: Vec<Const> = Vec::with_capacity(size);
        for relation in self.relations.values() {
            for &c in relation.iter().flatten() {
                if all.last() != Some(&c) {
                    all.push(c);
                }
            }
        }
        all.sort_unstable();
        all.dedup();
        all.into_iter().collect()
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
        if !self.same_schema(other) {
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

        // the same relation ids with another arity
        let mut narrower = Database::new();
        narrower.insert_fact(r(1), tuple![1]).unwrap();
        assert!(!d1.same_schema(&narrower));
        assert!(d1.componentwise_union(&narrower).is_err());
        assert!(d1.componentwise_intersection(&narrower).is_err());
        // one extra relation, on either side
        let mut wider = d1.clone();
        wider.ensure_relation(r(2), 2).unwrap();
        assert!(!d1.same_schema(&wider) && !wider.same_schema(&d1));
        assert!(d1.componentwise_union(&wider).is_err());
        assert!(wider.componentwise_intersection(&d1).is_err());
        // the same schema, other facts
        let mut same = Database::new();
        same.insert_fact(r(1), tuple![7, 8]).unwrap();
        assert!(d1.same_schema(&same));
        assert_eq!(d1.componentwise_union(&same).unwrap().fact_count(), 2);
    }

    #[test]
    fn active_domain() {
        let mut db = Database::new();
        db.insert_fact(r(1), tuple![1, 2]).unwrap();
        db.insert_fact(r(2), tuple![5]).unwrap();
        let dom: Vec<_> = db.constants().into_iter().collect();
        assert_eq!(dom, vec![Const::new(1), Const::new(2), Const::new(5)]);
    }

    /// The active domain equals the union of the per-relation constant
    /// sets on random databases, flags and layered relations (a shared
    /// base plus a delta of adds and deletes) included.
    #[test]
    fn active_domain_is_the_union_of_the_relations_constants() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % u64::from(bound)) as u32
        };
        let mut layered = 0;
        for _ in 0..200 {
            let mut db = Database::new();
            for rel in 0..next(5) {
                let arity = next(4) as usize;
                let span = 1 + next(300);
                let mut rows: Vec<Const> = (0..arity * next(400) as usize)
                    .map(|_| Const::new(next(span)))
                    .collect();
                let kept = sort_dedup_rows(&mut rows, arity.max(1));
                rows.truncate(kept * arity);
                let mut relation = if arity == 0 {
                    let mut flag = Relation::empty(0);
                    if next(2) == 1 {
                        flag.insert_row(&[]);
                    }
                    flag
                } else {
                    Relation::from_sorted_rows(arity, rows).unwrap()
                };
                if arity > 0 && next(2) == 1 {
                    // a small batch against a shared base: a layered relation
                    let mut adds: Vec<Const> = (0..arity * 3)
                        .map(|_| Const::new(span + next(20)))
                        .collect();
                    let kept = sort_dedup_rows(&mut adds, arity);
                    adds.truncate(kept * arity);
                    let dels: Vec<Const> = relation.iter().take(2).flatten().copied().collect();
                    relation = relation.merge_rows(&adds, &dels).unwrap();
                    layered += usize::from(!relation.is_flat());
                }
                db.set_relation(r(rel), relation);
            }
            let expected: BTreeSet<Const> =
                db.iter().flat_map(|(_, rel)| rel.constants()).collect();
            assert_eq!(db.constants(), expected, "{db:?}");
        }
        assert!(layered > 20, "only {layered} layered relations were drawn");
    }
}
