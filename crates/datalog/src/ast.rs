//! Datalog atoms, rules and programs: positive Datalog, whose rule bodies
//! are lists of atoms.

use std::collections::BTreeSet;
use std::fmt;

use kbt_data::{RelId, Schema};
use kbt_logic::{Term, Var};

use crate::error::DatalogError;
use crate::Result;

/// A Datalog atom `R(t̄)` whose arguments are variables or constants.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DlAtom {
    /// The relation symbol.
    pub rel: RelId,
    /// The argument terms.
    pub terms: Vec<Term>,
}

impl DlAtom {
    /// Builds an atom.
    pub fn new(rel: RelId, terms: impl Into<Vec<Term>>) -> Self {
        DlAtom {
            rel,
            terms: terms.into(),
        }
    }

    /// The variables occurring in the atom.
    pub fn variables(&self) -> BTreeSet<Var> {
        self.terms.iter().filter_map(|t| t.as_var()).collect()
    }

    /// Whether every argument is a constant.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| t.is_ground())
    }

    /// The arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }
}

impl fmt::Display for DlAtom {
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

/// A rule `head :- body`.  An empty body makes the rule a fact.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rule {
    /// The head atom.
    pub head: DlAtom,
    /// The body atoms.
    pub body: Vec<DlAtom>,
}

impl Rule {
    /// Builds a rule.
    pub fn new(head: DlAtom, body: impl Into<Vec<DlAtom>>) -> Self {
        Rule {
            head,
            body: body.into(),
        }
    }

    /// A fact (rule with an empty body).
    pub fn fact(head: DlAtom) -> Self {
        Rule {
            head,
            body: Vec::new(),
        }
    }

    /// Whether the rule is *safe* (range-restricted): every variable of the
    /// head occurs in the body.
    pub fn is_safe(&self) -> bool {
        let body_vars: BTreeSet<Var> = self.body.iter().flat_map(DlAtom::variables).collect();
        self.head.variables().is_subset(&body_vars)
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

/// A Datalog program: a finite set of rules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    rules: Vec<Rule>,
}

impl Program {
    /// Builds a program, checking safety and arity consistency.
    pub fn new(rules: impl Into<Vec<Rule>>) -> Result<Self> {
        let rules = rules.into();
        let mut schema = Schema::new();
        for rule in &rules {
            if !rule.is_safe() {
                return Err(DatalogError::UnsafeRule {
                    rule: rule.to_string(),
                });
            }
            schema
                .add(rule.head.rel, rule.head.arity())
                .map_err(DatalogError::Data)?;
            for atom in &rule.body {
                schema
                    .add(atom.rel, atom.arity())
                    .map_err(DatalogError::Data)?;
            }
        }
        Ok(Program { rules })
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

    /// The intensional relations: those occurring in some rule head.
    pub fn idb_relations(&self) -> BTreeSet<RelId> {
        self.rules.iter().map(|r| r.head.rel).collect()
    }

    /// The extensional relations: those occurring only in rule bodies.
    pub fn edb_relations(&self) -> BTreeSet<RelId> {
        let idb = self.idb_relations();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter().map(|atom| atom.rel))
            .filter(|r| !idb.contains(r))
            .collect()
    }

    /// The full schema of the program (every relation with its arity).
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for rule in &self.rules {
            let _ = s.add(rule.head.rel, rule.head.arity());
            for atom in &rule.body {
                let _ = s.add(atom.rel, atom.arity());
            }
        }
        s
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

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    /// edge/path transitive closure program used across the test suite.
    pub fn tc_program() -> Program {
        // path(x,y) :- edge(x,y).   path(x,z) :- path(x,y), edge(y,z).
        let edge = |a, b| DlAtom::new(r(1), vec![a, b]);
        let path = |a, b| DlAtom::new(r(2), vec![a, b]);
        Program::new(vec![
            Rule::new(path(var(1), var(2)), vec![edge(var(1), var(2))]),
            Rule::new(
                path(var(1), var(3)),
                vec![path(var(1), var(2)), edge(var(2), var(3))],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn program_classification() {
        let p = tc_program();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.idb_relations().into_iter().collect::<Vec<_>>(),
            vec![r(2)]
        );
        assert_eq!(
            p.edb_relations().into_iter().collect::<Vec<_>>(),
            vec![r(1)]
        );
        assert_eq!(p.schema().len(), 2);
    }

    #[test]
    fn unsafe_rules_are_rejected() {
        // head variable x2 does not occur in the body
        let bad = Rule::new(
            DlAtom::new(r(2), vec![var(1), var(2)]),
            vec![DlAtom::new(r(1), vec![var(1), var(1)])],
        );
        assert!(!bad.is_safe());
        assert!(matches!(
            Program::new(vec![bad]),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn ground_facts_are_safe() {
        let fact = Rule::fact(DlAtom::new(r(1), vec![cst(1), cst(2)]));
        assert!(fact.is_safe());
        assert!(Program::new(vec![fact]).is_ok());
    }

    #[test]
    fn arity_conflicts_are_rejected() {
        let p = Program::new(vec![
            Rule::fact(DlAtom::new(r(1), vec![cst(1)])),
            Rule::fact(DlAtom::new(r(1), vec![cst(1), cst(2)])),
        ]);
        assert!(matches!(p, Err(DatalogError::Data(_))));
    }

    #[test]
    fn display_is_readable() {
        let p = tc_program();
        let text = p.to_string();
        assert!(text.contains("R2(x1, x2) :- R1(x1, x2)."));
        assert!(text.contains("R2(x1, x3) :- R2(x1, x2), R1(x2, x3)."));
    }
}
