//! The engine's one rule input: a checked set of [`Rule`]s.
//!
//! Rules are `kbt-logic`'s Horn clauses as written, over variables and
//! constants; the planner numbers each rule's variables into register
//! slots itself ([`crate::plan`]).  [`Program::new`] is the only check a
//! rule passes before evaluation.

use std::collections::BTreeSet;
use std::fmt;

use kbt_data::{RelId, Schema};
use kbt_logic::Rule;

use crate::error::EngineError;
use crate::Result;

/// Maximum relation arity the engine supports (bound-column masks are `u32`).
pub const MAX_ARITY: usize = 32;

/// A set of rules evaluated together to their least fixpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    rules: Vec<Rule>,
    /// Every relation the rules mention, with its one arity.
    schema: Schema,
}

impl Program {
    /// Builds a program, checking that every rule is range-restricted
    /// (each head variable occurs in the body) and every relation has one
    /// arity, and then that no atom is wider than [`MAX_ARITY`].
    pub fn new(rules: impl Into<Vec<Rule>>) -> Result<Self> {
        let rules = rules.into();
        let mut schema = Schema::new();
        for rule in &rules {
            if !rule.is_safe() {
                return Err(EngineError::UnsafeRule {
                    rule: rule.to_string(),
                });
            }
            for atom in std::iter::once(&rule.head).chain(&rule.body) {
                schema.add(atom.rel, atom.arity())?;
            }
        }
        let mut atoms =
            (rules.iter()).flat_map(|rule| std::iter::once(&rule.head).chain(&rule.body));
        if let Some(atom) = atoms.find(|atom| atom.arity() > MAX_ARITY) {
            return Err(EngineError::ArityTooLarge {
                rel: atom.rel,
                arity: atom.arity(),
            });
        }
        Ok(Program { rules, schema })
    }

    /// The rules of the program.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Every relation the program mentions, with its arity.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The intensional relations: those occurring in some rule head.
    pub fn idb_relations(&self) -> BTreeSet<RelId> {
        self.rules.iter().map(|r| r.head.rel).collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_logic::builder::{cst, var};
    use kbt_logic::Atom;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn a_head_variable_missing_from_the_body_is_refused() {
        let bad = Rule::new(
            Atom::new(r(2), vec![var(1), var(2)]),
            vec![Atom::new(r(1), vec![var(1), var(1)])],
        );
        assert_eq!(
            Program::new(vec![bad]),
            Err(EngineError::UnsafeRule {
                rule: "R2(x1, x2) :- R1(x1, x1).".into()
            })
        );
    }

    #[test]
    fn an_atom_wider_than_max_arity_is_refused() {
        let wide = |n: usize| Rule::fact(Atom::new(r(1), vec![cst(1); n]));
        assert!(Program::new(vec![wide(MAX_ARITY)]).is_ok());
        assert_eq!(
            Program::new(vec![wide(MAX_ARITY + 1)]),
            Err(EngineError::ArityTooLarge {
                rel: r(1),
                arity: 33
            })
        );
        // a body atom counts as much as a head
        let body = Rule::new(
            Atom::new(r(2), vec![var(1)]),
            vec![Atom::new(r(3), [vec![var(1)], vec![cst(1); 32]].concat())],
        );
        assert!(matches!(
            Program::new(vec![body]),
            Err(EngineError::ArityTooLarge { arity: 33, .. })
        ));
    }

    #[test]
    fn one_relation_at_two_arities_is_refused() {
        let p = Program::new(vec![
            Rule::fact(Atom::new(r(1), vec![cst(1)])),
            Rule::fact(Atom::new(r(1), vec![cst(1), cst(2)])),
        ]);
        assert!(matches!(p, Err(EngineError::Data(_))));
    }

    #[test]
    fn width_is_checked_after_safety_and_arities() {
        // the unsafe rule comes second, the wide fact first: safety wins
        let p = Program::new(vec![
            Rule::fact(Atom::new(r(1), vec![cst(1); 33])),
            Rule::fact(Atom::new(r(2), vec![var(1)])),
        ]);
        assert!(matches!(p, Err(EngineError::UnsafeRule { .. })));
    }

    #[test]
    fn classification_and_display() {
        // path(x,y) :- edge(x,y).   path(x,z) :- path(x,y), edge(y,z).
        let edge = |a, b| Atom::new(r(1), vec![a, b]);
        let path = |a, b| Atom::new(r(2), vec![a, b]);
        let p = Program::new(vec![
            Rule::new(path(var(1), var(2)), vec![edge(var(1), var(2))]),
            Rule::new(
                path(var(1), var(3)),
                vec![path(var(1), var(2)), edge(var(2), var(3))],
            ),
        ])
        .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.idb_relations().into_iter().collect::<Vec<_>>(), [r(2)]);
        assert_eq!(
            p.schema().iter().collect::<Vec<_>>(),
            [(r(1), 2), (r(2), 2)]
        );
        assert_eq!(
            p.to_string(),
            "R2(x1, x2) :- R1(x1, x2).\nR2(x1, x3) :- R2(x1, x2), R1(x2, x3).\n"
        );
    }
}
