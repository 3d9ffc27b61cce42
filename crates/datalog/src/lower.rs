//! Lowering of the Datalog AST into the engine IR.
//!
//! The engine ([`kbt_engine`]) works on rules whose variables are dense
//! register slots.  This module maps each rule's variables to slots in order
//! of first occurrence and hands the result to the engine, which re-checks
//! range restriction as a defence in depth (the `Program` constructor
//! already guarantees it).
//!
//! Every lowering takes an optional *namer*: with one, each lowered rule
//! carries [`render_rule`]'s text as its [`ir::Rule::name`], so engine
//! plans and profiles speak the user's vocabulary; without one the rules
//! are anonymous.  Provenance is never consulted by evaluation.

use std::collections::BTreeMap;

use kbt_data::RelId;
use kbt_engine::ir;
use kbt_logic::{Term, Var};

use crate::ast::{DlAtom, Program, Rule};
use crate::Result;

/// Lowers a single rule, assigning slots by first occurrence.
pub fn lower_rule(rule: &Rule, namer: Option<&dyn Fn(RelId) -> String>) -> Result<ir::Rule> {
    let mut slots: BTreeMap<Var, usize> = BTreeMap::new();
    let mut slot_of = |v: Var| {
        let next = slots.len();
        *slots.entry(v).or_insert(next)
    };
    let lower_terms = |terms: &[Term], slot_of: &mut dyn FnMut(Var) -> usize| {
        terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => ir::Term::Const(*c),
                Term::Var(v) => ir::Term::Slot(slot_of(*v)),
            })
            .collect::<Vec<_>>()
    };

    // Body first so positive literals claim the early slots; the head can
    // only mention variables the body binds (range restriction).
    let body: Vec<ir::Literal> = rule
        .body
        .iter()
        .map(|l| {
            let atom = ir::Atom::new(l.atom.rel, lower_terms(&l.atom.terms, &mut slot_of));
            if l.positive {
                ir::Literal::positive(atom)
            } else {
                ir::Literal::negative(atom)
            }
        })
        .collect();
    let head = ir::Atom::new(rule.head.rel, lower_terms(&rule.head.terms, &mut slot_of));
    let lowered = ir::Rule::new(head, body)?;
    Ok(match namer {
        Some(namer) => lowered.with_name(render_rule(rule, namer)),
        None => lowered,
    })
}

/// Renders `rule` with relation names from `namer` — the source text a
/// lowering with a namer attaches as provenance.
pub fn render_rule(rule: &Rule, namer: &dyn Fn(RelId) -> String) -> String {
    let app = |atom: &DlAtom| {
        let args: Vec<String> = atom.terms.iter().map(|t| t.to_string()).collect();
        format!("{}({})", namer(atom.rel), args.join(", "))
    };
    let mut out = app(&rule.head);
    if !rule.body.is_empty() {
        out.push_str(" :- ");
        for (i, l) in rule.body.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if !l.positive {
                out.push('~');
            }
            out.push_str(&app(&l.atom));
        }
    }
    out.push('.');
    out
}

/// Lowers a whole program (typically one stratum).
pub fn lower_program(
    program: &Program,
    namer: Option<&dyn Fn(RelId) -> String>,
) -> Result<ir::Program> {
    Ok(ir::Program::new(
        program
            .rules()
            .iter()
            .map(|rule| lower_rule(rule, namer))
            .collect::<Result<Vec<_>>>()?,
    ))
}

/// Stratifies `program` and lowers every stratum: the entry point shared by
/// the one-shot evaluator and the delta-driven
/// [`IncrementalEval`](crate::eval::IncrementalEval) session, which hands
/// the result straight to [`kbt_engine::IncrementalSession`].
pub fn lower_strata(
    program: &Program,
    namer: Option<&dyn Fn(RelId) -> String>,
) -> Result<Vec<ir::Program>> {
    crate::stratify::stratify(program)?
        .iter()
        .map(|stratum| lower_program(stratum, namer))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DlAtom, Literal};
    use kbt_data::RelId;
    use kbt_logic::builder::{cst, var};

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn variables_become_dense_slots_in_first_occurrence_order() {
        // path(x7, x3) :- path(x7, x5), edge(x5, x3): slots 0, 1, 2.
        let rule = Rule::new(
            DlAtom::new(r(2), vec![var(7), var(3)]),
            vec![
                Literal::positive(DlAtom::new(r(2), vec![var(7), var(5)])),
                Literal::positive(DlAtom::new(r(1), vec![var(5), var(3)])),
            ],
        );
        let lowered = lower_rule(&rule, None).unwrap();
        assert_eq!(lowered.slots, 3);
        assert_eq!(
            lowered.body[0].atom.terms,
            vec![ir::Term::Slot(0), ir::Term::Slot(1)]
        );
        assert_eq!(
            lowered.body[1].atom.terms,
            vec![ir::Term::Slot(1), ir::Term::Slot(2)]
        );
        assert_eq!(
            lowered.head.terms,
            vec![ir::Term::Slot(0), ir::Term::Slot(2)]
        );
    }

    #[test]
    fn constants_survive_lowering() {
        let rule = Rule::new(
            DlAtom::new(r(3), vec![var(1)]),
            vec![Literal::positive(DlAtom::new(r(1), vec![cst(1), var(1)]))],
        );
        let lowered = lower_rule(&rule, None).unwrap();
        assert_eq!(
            lowered.body[0].atom.terms,
            vec![ir::Term::Const(kbt_data::Const::new(1)), ir::Term::Slot(0)]
        );
    }

    #[test]
    fn negation_polarity_is_preserved() {
        let rule = Rule::new(
            DlAtom::new(r(4), vec![var(1)]),
            vec![
                Literal::positive(DlAtom::new(r(3), vec![var(1)])),
                Literal::negative(DlAtom::new(r(2), vec![var(1)])),
            ],
        );
        let lowered = lower_rule(&rule, None).unwrap();
        assert!(lowered.body[0].positive);
        assert!(!lowered.body[1].positive);
        assert_eq!(lowered.name, None);
        let named = lower_rule(&rule, Some(&|rel| format!("r{}", rel.index()))).unwrap();
        assert_eq!(named.name.as_deref(), Some("r4(x1) :- r3(x1), ~r2(x1)."));
    }
}
