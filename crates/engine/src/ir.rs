//! The engine's rule IR: variables resolved to dense register slots.
//!
//! Frontends (today `kbt-datalog`, potentially others) lower their surface
//! syntax into this IR before evaluation.  The only difference from a
//! surface AST is that variables are *slots* — consecutive indices `0..n`
//! local to one rule — so the runtime can keep bindings in a flat register
//! file instead of a map keyed by variable names.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use kbt_data::RelId;

use crate::error::EngineError;
use crate::Result;

/// Maximum relation arity the engine supports (bound-column masks are `u32`).
pub const MAX_ARITY: usize = 32;

/// One argument position of an atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// A register slot (a rule-local variable).
    Slot(usize),
    /// A constant.
    Const(kbt_data::Const),
}

impl Term {
    /// The slot index, if this term is a slot.
    pub fn slot(self) -> Option<usize> {
        match self {
            Term::Slot(s) => Some(s),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Slot(s) => write!(f, "s{s}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An atom `R(t̄)` over slots and constants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// The relation symbol.
    pub rel: RelId,
    /// The argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(rel: RelId, terms: impl Into<Vec<Term>>) -> Self {
        Atom {
            rel,
            terms: terms.into(),
        }
    }

    /// The arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// The slots occurring in the atom.
    pub fn slots(&self) -> BTreeSet<usize> {
        self.terms.iter().filter_map(|t| t.slot()).collect()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A rule `head :- body` with `slots` registers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body atoms.
    pub body: Vec<Atom>,
    /// Number of register slots the rule uses (`0..slots` all occur).
    pub slots: usize,
    /// Provenance: the rule's source text in the caller's vocabulary
    /// (e.g. the `τ_φ` clause it was lowered from).  Carried into plans
    /// and profiles so they name rules as the user wrote them; never
    /// consulted by evaluation.
    pub name: Option<String>,
}

impl Rule {
    /// Builds a rule, checking range restriction (every head slot occurs
    /// in the body) and the engine's arity ceiling.
    pub fn new(head: Atom, body: impl Into<Vec<Atom>>) -> Result<Self> {
        let body = body.into();
        for atom in std::iter::once(&head).chain(&body) {
            if atom.arity() > MAX_ARITY {
                return Err(EngineError::ArityTooLarge {
                    rel: atom.rel,
                    arity: atom.arity(),
                });
            }
        }
        let bound: BTreeSet<usize> = body.iter().flat_map(Atom::slots).collect();
        if !head.slots().is_subset(&bound) {
            let rule = Rule {
                head,
                body,
                slots: 0,
                name: None,
            };
            return Err(EngineError::UnsafeRule {
                rule: rule.to_string(),
            });
        }
        let slots = bound.last().map_or(0, |&m| m + 1);
        Ok(Rule {
            head,
            body,
            slots,
            name: None,
        })
    }

    /// Attaches a provenance name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, atom) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{atom}")?;
            }
        }
        write!(f, ".")
    }
}

/// A set of rules evaluated together to their least fixpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Builds a program from rules.
    pub fn new(rules: impl Into<Vec<Rule>>) -> Self {
        Program {
            rules: rules.into(),
        }
    }

    /// The intensional relations: those occurring in some rule head.
    pub fn idb_relations(&self) -> BTreeSet<RelId> {
        self.rules.iter().map(|r| r.head.rel).collect()
    }

    /// Every relation mentioned, with its arity.
    pub fn relation_arities(&self) -> BTreeMap<RelId, usize> {
        let mut out = BTreeMap::new();
        for rule in &self.rules {
            out.insert(rule.head.rel, rule.head.arity());
            for atom in &rule.body {
                out.insert(atom.rel, atom.arity());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_data::Const;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn s(i: usize) -> Term {
        Term::Slot(i)
    }

    #[test]
    fn safe_rules_compute_their_slot_count() {
        // head uses slots 0 and 2; body binds 0, 1, 2.
        let rule = Rule::new(
            Atom::new(r(2), vec![s(0), s(2)]),
            vec![
                Atom::new(r(1), vec![s(0), s(1)]),
                Atom::new(r(1), vec![s(1), s(2)]),
            ],
        )
        .unwrap();
        assert_eq!(rule.slots, 3);
    }

    #[test]
    fn unsafe_rules_are_rejected() {
        let bad = Rule::new(
            Atom::new(r(2), vec![s(0), s(1)]),
            vec![Atom::new(r(1), vec![s(0)])],
        );
        assert!(matches!(bad, Err(EngineError::UnsafeRule { .. })));
    }

    #[test]
    fn ground_facts_are_safe_and_slotless() {
        let fact = Rule::new(
            Atom::new(r(1), vec![Term::Const(Const::new(7))]),
            Vec::new(),
        )
        .unwrap();
        assert_eq!(fact.slots, 0);
    }

    #[test]
    fn oversized_arities_are_rejected() {
        let wide = Atom::new(r(1), vec![Term::Const(Const::new(1)); 33]);
        assert!(matches!(
            Rule::new(wide, Vec::new()),
            Err(EngineError::ArityTooLarge { .. })
        ));
    }

    #[test]
    fn program_classification() {
        let p = Program::new(vec![Rule::new(
            Atom::new(r(2), vec![s(0)]),
            vec![Atom::new(r(1), vec![s(0)])],
        )
        .unwrap()]);
        assert_eq!(
            p.idb_relations().into_iter().collect::<Vec<_>>(),
            vec![r(2)]
        );
        let arities = p.relation_arities();
        assert_eq!(arities[&r(1)], 1);
        assert_eq!(arities[&r(2)], 1);
    }
}
