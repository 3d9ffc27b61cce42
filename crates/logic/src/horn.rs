//! Function-free Horn clauses — Datalog rules — and their extraction from
//! sentences.
//!
//! A sentence is *Datalog-restricted* in the sense of Theorem 4.8 if it is a
//! conjunction of universally quantified function-free Horn clauses
//! `∀x̄ (B₁ ∧ … ∧ Bₙ → H)` with positive atomic body literals and a positive
//! atomic head.  Inserting such a sentence into a database yields its unique
//! least fixpoint, which `kbt-engine` computes in polynomial time.
//!
//! [`Rule`] is the one representation of such a clause: [`horn_clauses`]
//! returns it, `kbt-datalog`'s adornment and magic rewrite transform it, and
//! `kbt-engine` checks a set of them into its `Program` and plans them
//! directly, numbering each rule's variables into register slots itself.

use std::collections::BTreeSet;
use std::fmt;

use kbt_data::RelId;

use crate::formula::Formula;
use crate::sentence::Sentence;
use crate::term::{Term, Var};

/// An atom `R(t̄)` whose arguments are variables or constants.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

    /// The variables occurring in the atom.
    pub fn variables(&self) -> BTreeSet<Var> {
        self.terms.iter().filter_map(|t| t.as_var()).collect()
    }

    /// The arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    fn write(&self, out: &mut impl fmt::Write, namer: &dyn Fn(RelId) -> String) -> fmt::Result {
        write!(out, "{}(", namer(self.rel))?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            write!(out, "{t}")?;
        }
        out.write_str(")")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, &|rel| rel.to_string())
    }
}

/// A Horn clause `head :- body` with positive atoms (a Datalog rule).  An
/// empty body makes the rule a fact.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body atoms.
    pub body: Vec<Atom>,
}

impl Rule {
    /// Builds a rule.
    pub fn new(head: Atom, body: impl Into<Vec<Atom>>) -> Self {
        Rule {
            head,
            body: body.into(),
        }
    }

    /// A fact (rule with an empty body).
    pub fn fact(head: Atom) -> Self {
        Rule::new(head, Vec::new())
    }

    /// Whether the rule is *safe* (range-restricted): every variable of the
    /// head occurs in the body.
    pub fn is_safe(&self) -> bool {
        let body_vars: BTreeSet<Var> = self.body.iter().flat_map(Atom::variables).collect();
        self.head.variables().is_subset(&body_vars)
    }

    /// The rule's text with relation names from `namer` — what plans and
    /// profiles show as the rule the user wrote.
    pub fn render(&self, namer: &dyn Fn(RelId) -> String) -> String {
        let mut out = String::new();
        self.write(&mut out, namer)
            .expect("writing to a String cannot fail");
        out
    }

    fn write(&self, out: &mut impl fmt::Write, namer: &dyn Fn(RelId) -> String) -> fmt::Result {
        self.head.write(out, namer)?;
        for (i, atom) in self.body.iter().enumerate() {
            out.write_str(if i == 0 { " :- " } else { ", " })?;
            atom.write(out, namer)?;
        }
        out.write_str(".")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, &|rel| rel.to_string())
    }
}

/// If the sentence is a conjunction of universally quantified Horn clauses,
/// returns them; otherwise returns `None`.
pub fn horn_clauses(sentence: &Sentence) -> Option<Vec<Rule>> {
    let mut clauses = Vec::new();
    if collect_conjuncts(sentence.formula(), &mut clauses) {
        Some(clauses)
    } else {
        None
    }
}

fn collect_conjuncts(f: &Formula, out: &mut Vec<Rule>) -> bool {
    match f {
        Formula::And(a, b) => collect_conjuncts(a, out) && collect_conjuncts(b, out),
        Formula::True => true,
        other => match as_clause(other) {
            Some(c) => {
                out.push(c);
                true
            }
            None => false,
        },
    }
}

/// Strips the leading block of universal quantifiers and parses the matrix as
/// `body → head` or a bare head atom.
fn as_clause(f: &Formula) -> Option<Rule> {
    let mut inner = f;
    while let Formula::Forall(_, next) = inner {
        inner = next;
    }
    match inner {
        Formula::Atom(rel, args) => Some(Rule::fact(Atom::new(*rel, args.clone()))),
        Formula::Implies(body, head) => {
            let head = match head.as_ref() {
                Formula::Atom(rel, args) => Atom::new(*rel, args.clone()),
                _ => return None,
            };
            let mut body_atoms = Vec::new();
            if !collect_body(body, &mut body_atoms) {
                return None;
            }
            Some(Rule::new(head, body_atoms))
        }
        _ => None,
    }
}

fn collect_body(f: &Formula, out: &mut Vec<Atom>) -> bool {
    match f {
        Formula::And(a, b) => collect_body(a, out) && collect_body(b, out),
        Formula::Atom(rel, args) => {
            out.push(Atom::new(*rel, args.clone()));
            true
        }
        Formula::True => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn transitive_closure_program_is_horn() {
        // ∀x,y (R1(x,y) → R2(x,y)) ∧ ∀x,y,z (R2(x,y) ∧ R1(y,z) → R2(x,z))
        let s = Sentence::new(and(
            forall(
                [1, 2],
                implies(atom(1, [var(1), var(2)]), atom(2, [var(1), var(2)])),
            ),
            forall(
                [1, 2, 3],
                implies(
                    and(atom(2, [var(1), var(2)]), atom(1, [var(2), var(3)])),
                    atom(2, [var(1), var(3)]),
                ),
            ),
        ))
        .unwrap();
        let clauses = horn_clauses(&s).expect("is Horn");
        assert_eq!(clauses.len(), 2);
        assert_eq!(clauses[0].body.len(), 1);
        assert_eq!(clauses[1].body.len(), 2);
        assert_eq!(clauses[1].head.rel, RelId::new(2));
    }

    #[test]
    fn facts_and_empty_bodies_are_allowed() {
        let s = Sentence::new(and(
            atom(1, [cst(1), cst(2)]),
            forall([1], implies(Formula::True, atom(2, [var(1), var(1)]))),
        ))
        .unwrap();
        let clauses = horn_clauses(&s).expect("is Horn");
        assert_eq!(clauses.len(), 2);
        assert!(clauses[0].body.is_empty());
        assert!(clauses[1].body.is_empty());
    }

    #[test]
    fn negation_disjunction_and_iff_are_rejected() {
        let neg = Sentence::new(forall(
            [1, 2],
            implies(not(atom(1, [var(1), var(2)])), atom(2, [var(1), var(2)])),
        ))
        .unwrap();
        assert!(horn_clauses(&neg).is_none());

        let disj_head = Sentence::new(forall(
            [1],
            implies(atom(1, [var(1)]), or(atom(2, [var(1)]), atom(3, [var(1)]))),
        ))
        .unwrap();
        assert!(horn_clauses(&disj_head).is_none());

        let bidir = Sentence::new(forall(
            [1, 2],
            iff(atom(1, [var(1), var(2)]), atom(2, [var(1), var(2)])),
        ))
        .unwrap();
        assert!(horn_clauses(&bidir).is_none());
    }

    #[test]
    fn safety_is_range_restriction() {
        let r = RelId::new;
        // head variable x2 does not occur in the body
        let bad = Rule::new(
            Atom::new(r(2), vec![var(1), var(2)]),
            vec![Atom::new(r(1), vec![var(1), var(1)])],
        );
        assert!(!bad.is_safe());
        assert!(Rule::fact(Atom::new(r(1), vec![cst(1), cst(2)])).is_safe());
    }

    #[test]
    fn rules_render_with_ids_or_names() {
        let r = RelId::new;
        let rule = Rule::new(
            Atom::new(r(4), vec![var(1)]),
            vec![
                Atom::new(r(3), vec![var(1)]),
                Atom::new(r(2), vec![var(1), cst(5)]),
            ],
        );
        assert_eq!(rule.to_string(), "R4(x1) :- R3(x1), R2(x1, a5).");
        let named = rule.render(&|rel| format!("r{}", rel.index()));
        assert_eq!(named, "r4(x1) :- r3(x1), r2(x1, a5).");
        assert_eq!(Rule::fact(Atom::new(r(1), vec![])).to_string(), "R1().");
    }
}
