//! Adornments: bound/free binding patterns for goal-directed evaluation.
//!
//! A query `reach('a', x)` demands only the tuples of `reach` whose first
//! column is `'a'`.  The classical way to exploit that demand in a bottom-up
//! engine (Bancilhon et al., *Magic Sets and Other Strange Ways to Implement
//! Logic Programs*) starts by **adorning** the program: annotate every
//! intensional predicate reachable from the query with the binding pattern
//! (`b` = bound, `f` = free) under which it is called, propagating bindings
//! sideways through each rule body.
//!
//! The sideways order is **bound-first**: at each step the body atom with
//! the most bound positions goes next (ties in textual order).  Textual
//! left-to-right order calls the
//! non-linear closure's `reach(x0, x1) & reach(x1, x2) -> reach(x0, x2)`
//! under `reach^fb` as `reach(x0, x1)` first, all free: the rewrite then
//! derives the whole closure *and* the demanded slice, 164–227 ms on
//! `closure_scan`'s 40 005-edge braid against 36–66 ms for no rewrite at
//! all.  Bound-first takes `reach(x1, x2)` first, bound, and the demand
//! stays a slice (1.3 ms).  Where the textual order already puts the most
//! bound atom first — every left-linear `bf` goal — the two agree.
//!
//! This module computes that adorned program.  [`crate::magic`] turns it
//! into the rewritten (magic) program.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use kbt_data::RelId;
use kbt_logic::{Atom, Rule, Term, Var};

use crate::Program;

/// A binding pattern over the argument positions of one predicate:
/// `true` = bound, `false` = free.  Displays as the classical `bf…` string.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Adornment(Vec<bool>);

impl Adornment {
    /// Builds an adornment from explicit per-position flags.
    pub fn new(bound: impl Into<Vec<bool>>) -> Self {
        Adornment(bound.into())
    }

    /// The adornment of a call with the given argument terms: constant
    /// positions are bound, variable positions are free.
    pub fn from_terms(terms: &[Term]) -> Self {
        Adornment(terms.iter().map(|t| t.is_ground()).collect())
    }

    /// Number of argument positions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the adornment covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether position `i` is bound.
    pub fn is_bound(&self, i: usize) -> bool {
        self.0[i]
    }

    /// Number of bound positions.
    pub fn bound_count(&self) -> usize {
        self.0.iter().filter(|b| **b).count()
    }

    /// Whether every position is free (the pattern of a bare query).
    pub fn is_all_free(&self) -> bool {
        self.bound_count() == 0
    }

    /// The per-position flags.
    pub fn flags(&self) -> &[bool] {
        &self.0
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            f.write_str(if *b { "b" } else { "f" })?;
        }
        Ok(())
    }
}

/// An intensional predicate together with the binding pattern under which
/// it is called.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdornedPred {
    /// The relation symbol.
    pub rel: RelId,
    /// Its call pattern.
    pub adornment: Adornment,
}

/// One body atom of an adorned rule.  `call` is `Some` exactly when the
/// atom is an intensional subgoal (and therefore subject to renaming by the
/// magic rewrite).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdornedAtom {
    /// The original atom.
    pub atom: Atom,
    /// The adornment under which an intensional subgoal is called.
    pub call: Option<Adornment>,
}

/// One rule of the adorned program: the original rule, the adornment of its
/// head, and the per-atom call patterns derived in sideways order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdornedRule {
    /// The head predicate with its adornment.
    pub head: AdornedPred,
    /// The original rule.
    pub rule: Rule,
    /// Body atoms in sideways order (bound-first), each with its call
    /// pattern.
    pub body: Vec<AdornedAtom>,
}

/// The adorned slice of a program around its goals: exactly the rules
/// reachable from them, each annotated with binding patterns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdornedProgram {
    /// Adorned rules in deterministic (worklist × source) order.
    pub rules: Vec<AdornedRule>,
    /// Every distinct adorned predicate, in first-reached order.
    pub preds: Vec<AdornedPred>,
}

/// Adorns `program` around calls of `goals`, the worklist seeded with all
/// of them.
///
/// Propagation is bound-first (see the module docs): a body position is
/// bound if it is a constant, a bound head variable, or a variable of a
/// body atom placed before it.
pub fn adorn_program(program: &Program, goals: &[AdornedPred]) -> AdornedProgram {
    let idb = program.idb_relations();
    let mut seen: BTreeSet<AdornedPred> = BTreeSet::new();
    let mut preds: Vec<AdornedPred> = Vec::new();
    let mut queue: VecDeque<AdornedPred> = VecDeque::new();
    for goal in goals {
        if seen.insert(goal.clone()) {
            preds.push(goal.clone());
            queue.push_back(goal.clone());
        }
    }
    let mut rules = Vec::new();

    while let Some(pred) = queue.pop_front() {
        for rule in program.rules() {
            if rule.head.rel != pred.rel {
                continue;
            }
            let adorned = adorn_rule(rule, &pred, &idb);
            for sub in &adorned.body {
                if let Some(call) = &sub.call {
                    let callee = AdornedPred {
                        rel: sub.atom.rel,
                        adornment: call.clone(),
                    };
                    if seen.insert(callee.clone()) {
                        preds.push(callee.clone());
                        queue.push_back(callee);
                    }
                }
            }
            rules.push(adorned);
        }
    }

    AdornedProgram { rules, preds }
}

/// Adorns one rule called under `pred`, ordering its body bound-first.
fn adorn_rule(rule: &Rule, pred: &AdornedPred, idb: &BTreeSet<RelId>) -> AdornedRule {
    debug_assert_eq!(rule.head.arity(), pred.adornment.len());
    let mut bound: BTreeSet<Var> = rule
        .head
        .terms
        .iter()
        .enumerate()
        .filter(|(i, _)| pred.adornment.is_bound(*i))
        .filter_map(|(_, t)| t.as_var())
        .collect();
    let pattern = |terms: &[Term], bound: &BTreeSet<Var>| {
        Adornment(
            (terms.iter())
                .map(|t| t.as_var().is_none_or(|v| bound.contains(&v)))
                .collect(),
        )
    };
    let mut pending: Vec<&Atom> = rule.body.iter().collect();
    let mut body = Vec::with_capacity(rule.body.len());
    while !pending.is_empty() {
        // the most bound positions wins; `max_by_key` keeps the last of
        // equals, so scan in reverse to keep the textually first
        let (next, _) = (pending.iter().enumerate().rev())
            .max_by_key(|(_, atom)| pattern(&atom.terms, &bound).bound_count())
            .expect("pending is non-empty");
        let atom = pending.remove(next);
        let call = idb
            .contains(&atom.rel)
            .then(|| pattern(&atom.terms, &bound));
        bound.extend(atom.variables());
        body.push(AdornedAtom {
            atom: atom.clone(),
            call,
        });
    }
    AdornedRule {
        head: pred.clone(),
        rule: rule.clone(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_logic::builder::{cst, var};

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    fn goal(i: u32, bound: &[bool]) -> [AdornedPred; 1] {
        [AdornedPred {
            rel: r(i),
            adornment: Adornment::new(bound),
        }]
    }

    fn tc_program() -> Program {
        let edge = |a, b| Atom::new(r(1), vec![a, b]);
        let path = |a, b| Atom::new(r(2), vec![a, b]);
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
    fn adornment_displays_and_classifies() {
        let a = Adornment::from_terms(&[cst(7), var(1)]);
        assert_eq!(a.to_string(), "bf");
        assert_eq!(a.bound_count(), 1);
        assert!(a.is_bound(0) && !a.is_bound(1));
        assert!(!a.is_all_free());
        assert!(Adornment::from_terms(&[var(1), var(2)]).is_all_free());
    }

    #[test]
    fn tc_bf_adorns_recursively() {
        let p = tc_program();
        let adorned = adorn_program(&p, &goal(2, &[true, false]));
        // Only path^bf is reached: the recursive call keeps the first
        // argument bound (it is a bound head variable).
        assert_eq!(adorned.preds.len(), 1);
        assert_eq!(adorned.preds[0].adornment.to_string(), "bf");
        assert_eq!(adorned.rules.len(), 2);
        let rec = &adorned.rules[1];
        assert_eq!(
            rec.body[0].call.as_ref().unwrap().to_string(),
            "bf",
            "recursive path call keeps x1 bound"
        );
        assert!(rec.body[1].call.is_none(), "edge is extensional");
    }

    #[test]
    fn the_most_bound_atom_goes_first() {
        // path(x, z) :- path(x, y), path(y, z) under path^fb: textually
        // path(x, y) would be called all free; bound-first calls path(y, z)
        // first, and path(x, y) is then bound too
        let path = |a, b| Atom::new(r(2), vec![a, b]);
        let prog = Program::new(vec![
            Rule::new(
                path(var(1), var(2)),
                vec![Atom::new(r(1), vec![var(1), var(2)])],
            ),
            Rule::new(
                path(var(1), var(3)),
                vec![path(var(1), var(2)), path(var(2), var(3))],
            ),
        ])
        .unwrap();
        let adorned = adorn_program(&prog, &goal(2, &[false, true]));
        assert_eq!(adorned.preds.len(), 1, "only path^fb is reached");
        let rec = &adorned.rules[1];
        assert_eq!(rec.body[0].atom, path(var(2), var(3)));
        let calls: Vec<String> = (rec.body.iter())
            .map(|l| l.call.as_ref().unwrap().to_string())
            .collect();
        assert_eq!(calls, ["fb", "fb"]);
    }

    #[test]
    fn free_patterns_propagate_bindings_sideways() {
        // q(x, y) :- e(x, z), p(z, y): under q^ff the call to p is p^bf,
        // because z flows in sideways from e.
        let e = |a, b| Atom::new(r(1), vec![a, b]);
        let p = |a, b| Atom::new(r(2), vec![a, b]);
        let q = |a, b| Atom::new(r(3), vec![a, b]);
        let prog = Program::new(vec![
            Rule::new(p(var(1), var(2)), vec![e(var(1), var(2))]),
            Rule::new(
                q(var(1), var(2)),
                vec![e(var(1), var(3)), p(var(3), var(2))],
            ),
        ])
        .unwrap();
        let adorned = adorn_program(&prog, &goal(3, &[false, false]));
        let call = adorned.rules[0].body[1].call.as_ref().unwrap();
        assert_eq!(call.to_string(), "bf", "z is bound sideways by e(x, z)");
    }
}
