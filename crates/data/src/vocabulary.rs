//! Named vocabularies: a bridge between human-readable names and the interned
//! [`Const`] / [`RelId`] indices used everywhere else.
//!
//! Databases, formulas and transformations only carry indices; a
//! [`Vocabulary`] maps names such as `"Toronto"` or `"flight"` to those
//! indices, and back again for pretty-printing.  The parser in `kbt-logic`
//! and the example applications all share this type.
//!
//! # A handle on shared names
//!
//! A [`Vocabulary`] is a handle: the names themselves (two name tables and
//! their two indexes) live in one private `Names` behind an [`Arc`].
//! Cloning a vocabulary bumps a reference count, every lookup reads through
//! the `Arc`, and the two interning methods ([`Vocabulary::constant`],
//! [`Vocabulary::relation`]) go through [`Arc::make_mut`] **on a miss only**.
//! So the names are copied exactly when a name is *added* to a vocabulary
//! some other handle still shares, and never by a caller that interns
//! nothing: re-interning a known name is a lookup.  A handle is never
//! changed by interning through another one, which is what lets a service
//! parse every command against a clone of the committed vocabulary and
//! throw the clone away when the command is rejected — the isolation is
//! this type's, not a copy's.  [`Vocabulary::shares_names`] says whether
//! two handles still read the same names.
//!
//! There is deliberately no overlay (a small table of query-local names in
//! front of the shared one): interning one new name into a shared vocabulary
//! of *n* entries costs one copy of all *n* — about 3 ms at 20 000 names —
//! and a second representation would have to be consulted by every lookup
//! and every rendering to save it.  No measured workload has such a read
//! (reads over large vocabularies intern nothing; reads that intern do so
//! into a dozen entries), so the copy stays the one known cliff.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::DataError;
use crate::schema::RelId;
use crate::value::Const;
use crate::Result;

/// The names a [`Vocabulary`] handle reads: immutable while shared.
#[derive(Clone, Debug, Default)]
struct Names {
    const_names: Vec<String>,
    const_index: BTreeMap<String, Const>,
    rel_names: Vec<String>,
    rel_arities: Vec<usize>,
    rel_index: BTreeMap<String, RelId>,
}

/// A mutable registry of constant names and relation names (with arities).
///
/// Cheap to clone (see the module docs): clones share their names until one
/// of them interns a name the other does not have.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    names: Arc<Names>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Interns a constant name, returning the same [`Const`] on repeated
    /// calls with the same name.
    pub fn constant(&mut self, name: &str) -> Const {
        if let Some(c) = self.lookup_constant(name) {
            return c;
        }
        let names = Arc::make_mut(&mut self.names);
        let c = Const::new(names.const_names.len() as u32);
        names.const_names.push(name.to_string());
        names.const_index.insert(name.to_string(), c);
        c
    }

    /// Interns a relation name with its arity.
    ///
    /// Fails if the name was already registered with a different arity.
    pub fn relation(&mut self, name: &str, arity: usize) -> Result<RelId> {
        if let Some((r, known)) = self.lookup_relation(name) {
            if known != arity {
                return Err(DataError::NameConflict {
                    name: name.to_string(),
                });
            }
            return Ok(r);
        }
        let names = Arc::make_mut(&mut self.names);
        let r = RelId::new(names.rel_names.len() as u32);
        names.rel_names.push(name.to_string());
        names.rel_arities.push(arity);
        names.rel_index.insert(name.to_string(), r);
        Ok(r)
    }

    /// Whether `self` and `other` read the very same shared names: one is a
    /// clone of the other (or both of a third) and neither has interned a
    /// new name since.  Pointer identity, so `false` for two vocabularies
    /// built separately, equal content or not.
    pub fn shares_names(&self, other: &Vocabulary) -> bool {
        Arc::ptr_eq(&self.names, &other.names)
    }

    /// Looks up an already-registered constant by name.
    pub fn lookup_constant(&self, name: &str) -> Option<Const> {
        self.names.const_index.get(name).copied()
    }

    /// Looks up an already-registered relation by name.
    pub fn lookup_relation(&self, name: &str) -> Option<(RelId, usize)> {
        self.names
            .rel_index
            .get(name)
            .map(|&r| (r, self.names.rel_arities[r.index() as usize]))
    }

    /// The name of a constant, if it was registered through this vocabulary.
    pub fn constant_name(&self, c: Const) -> Option<&str> {
        self.names
            .const_names
            .get(c.index() as usize)
            .map(String::as_str)
    }

    /// The name of a relation, if it was registered through this vocabulary.
    pub fn relation_name(&self, r: RelId) -> Option<&str> {
        self.names
            .rel_names
            .get(r.index() as usize)
            .map(String::as_str)
    }

    /// The arity of a registered relation.
    pub fn relation_arity(&self, r: RelId) -> Option<usize> {
        self.names.rel_arities.get(r.index() as usize).copied()
    }

    /// Number of registered constants.
    pub fn constant_count(&self) -> usize {
        self.names.const_names.len()
    }

    /// Number of registered relations.
    pub fn relation_count(&self) -> usize {
        self.names.rel_names.len()
    }

    /// Renders a constant: its registered name, or the `a_i` fallback.
    pub fn render_constant(&self, c: Const) -> String {
        self.constant_name(c)
            .map(str::to_string)
            .unwrap_or_else(|| c.to_string())
    }

    /// Renders a relation symbol: its registered name, or the `R_i` fallback.
    pub fn render_relation(&self, r: RelId) -> String {
        self.relation_name(r)
            .map(str::to_string)
            .unwrap_or_else(|| r.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned() {
        let mut v = Vocabulary::new();
        let toronto = v.constant("Toronto");
        let ottawa = v.constant("Ottawa");
        assert_ne!(toronto, ottawa);
        assert_eq!(v.constant("Toronto"), toronto);
        assert_eq!(v.constant_name(toronto), Some("Toronto"));
        assert_eq!(v.lookup_constant("Ottawa"), Some(ottawa));
        assert_eq!(v.constant_count(), 2);
    }

    #[test]
    fn relations_carry_arities() {
        let mut v = Vocabulary::new();
        let flight = v.relation("flight", 2).unwrap();
        assert_eq!(v.relation("flight", 2).unwrap(), flight);
        assert!(v.relation("flight", 3).is_err());
        assert_eq!(v.relation_arity(flight), Some(2));
        assert_eq!(v.lookup_relation("flight"), Some((flight, 2)));
        assert_eq!(v.relation_name(flight), Some("flight"));
    }

    #[test]
    fn rendering_falls_back_to_indices() {
        let v = Vocabulary::new();
        assert_eq!(v.render_constant(Const::new(7)), "a7");
        assert_eq!(v.render_relation(RelId::new(3)), "R3");
    }
}
