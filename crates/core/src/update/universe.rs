//! The candidate universe of an update: the finite domain `B`, the result
//! schema `s = σ(db) ∪ σ(φ)`, and the set of ground facts a candidate
//! database may contain.
//!
//! Two constructions exist:
//!
//! * [`UpdateContext::new`] — the **eager** universe of definition (9):
//!   every ground fact over `schema` and `domain`.  The exhaustive oracle
//!   needs exactly this set (it enumerates candidate databases literally).
//! * [`UpdateContext::grounded`] — the **lazy** universe used by the SAT
//!   path: only the atoms the grounded sentence actually mentions become
//!   candidates, and the output database is assembled from the *input
//!   database* plus the per-atom model values.  This is sound for Winslett
//!   minimisation because an atom `ground(φ)` never mentions cannot change
//!   in any minimal model: flipping a stored old fact (or asserting an
//!   absent one, old or new) that `φ` does not constrain only grows the
//!   symmetric difference / the new-part, and reverting it to its input
//!   value preserves `φ` — so stage one (respectively stage two) of the
//!   order always prefers the reverted model.  The `max_ground_atoms`
//!   ceiling then bounds the *mentioned* atoms instead of
//!   `Σ_R |B|^arity(R)`, which frees ground or small-footprint sentences
//!   from paying for the database's whole active-domain universe.

use std::collections::{BTreeMap, BTreeSet};

use kbt_data::{Const, Database, Schema, Tuple};
use kbt_logic::{ground_sentence, GroundAtom, GroundFormula, Sentence};

use crate::error::CoreError;
use crate::options::EvalOptions;
use crate::Result;

/// Precomputed context shared by the update evaluators.
#[derive(Clone, Debug)]
pub struct UpdateContext {
    /// The finite domain `B`: constants of the database and of the sentence.
    pub domain: BTreeSet<Const>,
    /// The result schema `s = σ(db) ∪ σ(φ)`.
    pub schema: Schema,
    /// The schema of the input database, `σ(db)`.
    pub old_schema: Schema,
    /// The candidate ground facts, in a fixed order: the full universe for
    /// [`Self::new`], the mentioned atoms for [`Self::grounded`].
    pub atoms: Vec<GroundAtom>,
    /// Index of each atom within [`UpdateContext::atoms`].
    pub atom_index: BTreeMap<GroundAtom, usize>,
    /// Per atom of [`UpdateContext::atoms`], whether the input database
    /// stores it: looked up once per candidate here, so the context never
    /// touches the facts `φ` does not mention.
    stored: Vec<bool>,
    /// For lazy contexts: the input database lifted to `schema`, the base
    /// every output database starts from (facts outside [`Self::atoms`]
    /// carry over verbatim).  `None` for the eager universe.
    base: Option<Database>,
}

impl UpdateContext {
    /// Builds the eager context for `µ(φ, db)`, enforcing the configured
    /// ceiling on the number of candidate facts.
    pub fn new(phi: &Sentence, db: &Database, options: &EvalOptions) -> Result<Self> {
        let mut domain = db.constants();
        domain.extend(phi.constants());
        let old_schema = db.schema();
        let schema = old_schema.union(&phi.schema())?;

        // number of candidate facts = Σ_{R ∈ s} |B|^{arity(R)}
        let mut expected: usize = 0;
        for (_, arity) in schema.iter() {
            let count = domain.len().checked_pow(arity as u32).unwrap_or(usize::MAX);
            expected = expected.saturating_add(count);
        }
        if expected > options.max_ground_atoms {
            return Err(CoreError::UniverseTooLarge {
                atoms: expected,
                limit: options.max_ground_atoms,
            });
        }

        let mut atoms = Vec::with_capacity(expected);
        for (rel, arity) in schema.iter() {
            for tuple in all_tuples(&domain, arity) {
                atoms.push(GroundAtom::new(rel, tuple));
            }
        }
        let atom_index = atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), i))
            .collect();
        let stored = atoms.iter().map(|a| db.holds(a.rel, &a.tuple)).collect();
        Ok(UpdateContext {
            domain,
            schema,
            old_schema,
            atoms,
            atom_index,
            stored,
            base: None,
        })
    }

    /// Builds the lazy context for `µ(φ, db)`: grounds `φ` over the domain
    /// and admits only the mentioned atoms as candidates (see the module
    /// docs for why that is sound).  Returns the grounded sentence alongside
    /// so the caller does not ground twice.
    ///
    /// Grounding itself is budgeted *before* it runs: every quantifier
    /// multiplies the grounded formula's size by `|B|`, so
    /// `grounding_cost` — an exact upper bound on the node count,
    /// computed arithmetically — is checked against a generous multiple of
    /// `max_ground_atoms` first.  Without this, a deeply quantified
    /// sentence over a large database would materialise the blown-up
    /// formula in memory before the mentioned-atom ceiling could fire.
    pub fn grounded(
        phi: &Sentence,
        db: &Database,
        options: &EvalOptions,
    ) -> Result<(Self, GroundFormula)> {
        let mut domain = db.constants();
        domain.extend(phi.constants());
        let old_schema = db.schema();
        let schema = old_schema.union(&phi.schema())?;

        // The grounded node count can never exceed the mentioned-atom
        // ceiling by more than constant folding can shrink; allow 8× for
        // connectives and folded subtrees before refusing to ground at all.
        let cost_ceiling = options.max_ground_atoms.saturating_mul(8);
        let cost = grounding_cost(phi.formula(), domain.len().max(1));
        if cost > cost_ceiling {
            return Err(CoreError::UniverseTooLarge {
                atoms: cost,
                limit: cost_ceiling,
            });
        }

        let ground = ground_sentence(phi, &domain);
        let mentioned = ground.atoms();
        if mentioned.len() > options.max_ground_atoms {
            return Err(CoreError::UniverseTooLarge {
                atoms: mentioned.len(),
                limit: options.max_ground_atoms,
            });
        }
        let atoms: Vec<GroundAtom> = mentioned.into_iter().collect();
        let atom_index = atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), i))
            .collect();
        let stored = atoms.iter().map(|a| db.holds(a.rel, &a.tuple)).collect();
        let base = db.extend_schema(&schema)?;
        let ctx = UpdateContext {
            domain,
            schema,
            old_schema,
            atoms,
            atom_index,
            stored,
            base: Some(base),
        };
        Ok((ctx, ground))
    }

    /// Number of candidate facts.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Whether candidate fact `i` belongs to a relation of the input
    /// database's schema (an "old" fact, subject to stage one of the
    /// Winslett order).
    pub fn is_old_atom(&self, i: usize) -> bool {
        self.old_schema.contains(self.atoms[i].rel)
    }

    /// Whether candidate fact `i` is stored in the input database the
    /// context was built from.
    pub fn holds_in_input(&self, i: usize) -> bool {
        self.stored[i]
    }

    /// Materialises a candidate database over the result schema from a
    /// membership predicate on candidate facts.
    ///
    /// For the eager universe the database is built from scratch; for the
    /// lazy one it starts as the (lifted) input database, and only the
    /// mentioned atoms are set to their model values — every unmentioned
    /// stored fact carries over, matching definition (9) restricted to the
    /// atoms that can actually change.
    pub fn database_from(&self, mut member: impl FnMut(usize) -> bool) -> Database {
        let mut db = match &self.base {
            Some(base) => base.clone(),
            None => Database::empty_over(&self.schema),
        };
        for (i, a) in self.atoms.iter().enumerate() {
            if member(i) {
                db.insert_fact(a.rel, a.tuple.clone())
                    .expect("atom arity matches schema");
            } else if self.base.is_some() {
                db.remove_fact(a.rel, &a.tuple);
            }
        }
        db
    }

    /// The input database lifted to the result schema (new relations empty).
    pub fn lift(&self, db: &Database) -> Result<Database> {
        Ok(db.extend_schema(&self.schema)?)
    }
}

/// An upper bound on the number of nodes `ground(f)` materialises over a
/// domain of `domain_size` constants: each quantifier multiplies its body by
/// the domain size, everything else is structural.  Saturating, so
/// pathological nesting reports `usize::MAX` instead of overflowing.
fn grounding_cost(f: &kbt_logic::Formula, domain_size: usize) -> usize {
    use kbt_logic::Formula;
    match f {
        Formula::True | Formula::False | Formula::Atom(..) | Formula::Eq(..) => 1,
        Formula::Not(inner) => grounding_cost(inner, domain_size).saturating_add(1),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            grounding_cost(a, domain_size)
                .saturating_add(grounding_cost(b, domain_size))
                .saturating_add(1)
        }
        Formula::Exists(_, inner) | Formula::Forall(_, inner) => {
            grounding_cost(inner, domain_size).saturating_mul(domain_size)
        }
    }
}

/// All tuples of the given arity over a finite domain, in lexicographic
/// order.  The zero-ary case yields exactly the empty tuple.
pub fn all_tuples(domain: &BTreeSet<Const>, arity: usize) -> Vec<Tuple> {
    let values: Vec<Const> = domain.iter().copied().collect();
    let mut out = Vec::new();
    let mut current = vec![0usize; arity];
    if arity == 0 {
        return vec![Tuple::empty()];
    }
    if values.is_empty() {
        return out;
    }
    loop {
        out.push(Tuple::new(
            current.iter().map(|&i| values[i]).collect::<Vec<_>>(),
        ));
        // increment the counter
        let mut pos = arity;
        loop {
            if pos == 0 {
                return out;
            }
            pos -= 1;
            current[pos] += 1;
            if current[pos] < values.len() {
                break;
            }
            current[pos] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::{DatabaseBuilder, RelId};
    use kbt_logic::builder::*;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn all_tuples_counts() {
        let dom: BTreeSet<Const> = [1u32, 2, 3].into_iter().map(Const::new).collect();
        assert_eq!(all_tuples(&dom, 0).len(), 1);
        assert_eq!(all_tuples(&dom, 1).len(), 3);
        assert_eq!(all_tuples(&dom, 2).len(), 9);
        let empty: BTreeSet<Const> = BTreeSet::new();
        assert_eq!(all_tuples(&empty, 2).len(), 0);
        assert_eq!(all_tuples(&empty, 0).len(), 1);
    }

    #[test]
    fn context_collects_domain_schema_and_atoms() {
        // db: R1 = {(1,2)}, φ mentions R2 (unary) and constant 3.
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .build()
            .unwrap();
        let phi = Sentence::new(exists([1], and(atom(2, [var(1)]), eq(var(1), cst(3))))).unwrap();
        let ctx = UpdateContext::new(&phi, &db, &EvalOptions::default()).unwrap();
        assert_eq!(ctx.domain.len(), 3); // {1, 2, 3}
        assert_eq!(ctx.schema.len(), 2);
        // R1 is binary over 3 constants (9 facts) + R2 unary (3 facts)
        assert_eq!(ctx.atom_count(), 12);
        let old_count = (0..ctx.atom_count())
            .filter(|&i| ctx.is_old_atom(i))
            .count();
        assert_eq!(old_count, 9);
    }

    #[test]
    fn grounded_context_only_admits_mentioned_atoms() {
        // db: R1 = {(1,2)}, φ = R1(1,3) ∨ ¬R1(1,2): two mentioned atoms out
        // of an eager universe of 9 (+ nothing new).
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .build()
            .unwrap();
        let phi = Sentence::new(or(
            atom(1, [cst(1), cst(3)]),
            not(atom(1, [cst(1), cst(2)])),
        ))
        .unwrap();
        let (ctx, ground) = UpdateContext::grounded(&phi, &db, &EvalOptions::default()).unwrap();
        assert_eq!(ctx.atom_count(), 2);
        assert_eq!(ground.atoms().len(), 2);
        assert!((0..2).all(|i| ctx.is_old_atom(i)));

        // database_from starts from the input: unmentioned facts carry over
        let all = ctx.database_from(|_| true);
        assert!(all.holds(r(1), &kbt_data::tuple![1, 2]));
        assert!(all.holds(r(1), &kbt_data::tuple![1, 3]));
        let none = ctx.database_from(|_| false);
        assert!(!none.holds(r(1), &kbt_data::tuple![1, 2]));
        assert!(!none.holds(r(1), &kbt_data::tuple![1, 3]));
        assert_eq!(none.schema(), ctx.schema);
    }

    #[test]
    fn universe_limit_is_enforced() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .build()
            .unwrap();
        let phi = Sentence::new(forall([1, 2], atom(1, [var(1), var(2)]))).unwrap();
        let tight = EvalOptions {
            max_ground_atoms: 3,
            ..EvalOptions::default()
        };
        assert!(matches!(
            UpdateContext::new(&phi, &db, &tight),
            Err(CoreError::UniverseTooLarge { .. })
        ));
    }

    #[test]
    fn database_from_membership_and_lift() {
        let db = DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .build()
            .unwrap();
        let phi =
            Sentence::new(forall([1], implies(atom(2, [var(1)]), atom(2, [var(1)])))).unwrap();
        let ctx = UpdateContext::new(&phi, &db, &EvalOptions::default()).unwrap();
        let lifted = ctx.lift(&db).unwrap();
        assert!(lifted.relation(r(2)).unwrap().is_empty());
        assert!(lifted.holds(r(1), &kbt_data::tuple![1, 2]));

        let all = ctx.database_from(|_| true);
        assert_eq!(all.fact_count(), ctx.atom_count());
        let none = ctx.database_from(|_| false);
        assert_eq!(none.fact_count(), 0);
        assert_eq!(none.schema(), ctx.schema);
    }
}
