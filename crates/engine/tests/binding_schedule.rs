//! Every plan carries its binding schedule: which slots each step binds
//! and which it only reads is fixed when the plan is made, and the
//! interpreter trusts it — its registers are plain constants, with no
//! "bound yet?" state to consult.  These tests pin the schedule's shape on
//! random rules, and pin what it must get right by result:
//!
//! * a property over random safe rules — full plans, every delta variant
//!   and head-bound plans: every step is its body atom, a key or check
//!   slot is bound on entry or by an earlier step (or earlier in the same
//!   atom), no slot is bound twice, and the head's slots are all bound
//!   once the last step has run;
//! * a repeated head slot: asking a head-bound plan about a fact whose two
//!   columns differ finds no derivation, however the body would bind;
//! * a repeated body slot, `oncycle(x) :- reach(x, x)` — a check inside a
//!   delta driver — against the reference evaluator, with identical
//!   counters at widths 1 and 2.

use std::collections::{BTreeMap, BTreeSet};

use kbt_data::{Const, Database, DatabaseBuilder, RelId, Tuple};
use kbt_datalog::{lower_strata, reference_semi_naive_eval, DlAtom};
use kbt_engine::ir::{Atom, Literal, Program, Rule, Term};
use kbt_engine::plan::{JoinPlan, PlannedRule, Schedule, Step};
use kbt_engine::{evaluate, IncrementalSession};
use kbt_logic::builder::var;
use proptest::prelude::*;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// The arity of relation `i` in the random rules: 1, 2, 3, 1, …
fn arity(i: u32) -> usize {
    i as usize % 3 + 1
}

/// A term code: slots `0..5`, constants above.
fn term(code: u32) -> Term {
    match code {
        0..=4 => Term::Slot(code as usize),
        c => Term::Const(Const::new(c)),
    }
}

/// A safe rule from raw draws: each literal is `(relation, positive?,
/// term codes)`, the first literal is always positive, a negated literal's
/// slots that no positive literal binds become constants, and the head
/// takes its terms from the positive literals' slots (or constants).
fn safe_rule(head: (u32, Vec<u32>), body: Vec<(u32, bool, Vec<u32>)>) -> Rule {
    let atom = |rel: u32, codes: &[u32]| {
        Atom::new(
            r(rel),
            codes
                .iter()
                .take(arity(rel))
                .map(|&c| term(c))
                .collect::<Vec<_>>(),
        )
    };
    let positive: Vec<Atom> = body
        .iter()
        .enumerate()
        .filter(|(i, (_, pos, _))| *i == 0 || *pos)
        .map(|(_, (rel, _, codes))| atom(*rel, codes))
        .collect();
    let bound: Vec<usize> = positive
        .iter()
        .flat_map(Atom::slots)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let ground = |t: Term| match t {
        Term::Slot(s) if !bound.contains(&s) => Term::Const(Const::new(s as u32 + 10)),
        t => t,
    };
    let negative = (body.iter().enumerate())
        .filter(|(i, (_, pos, _))| *i > 0 && !*pos)
        .map(|(_, (rel, _, codes))| {
            let Atom { rel, terms } = atom(*rel, codes);
            Literal::negative(Atom::new(
                rel,
                terms.into_iter().map(ground).collect::<Vec<_>>(),
            ))
        });
    let (head_rel, head_codes) = head;
    let head_terms: Vec<Term> = (head_codes.iter().take(arity(head_rel)))
        .map(|&c| match bound.get(c as usize % 8) {
            Some(&s) => Term::Slot(s),
            None => Term::Const(Const::new(c)),
        })
        .collect();
    let body: Vec<Literal> = positive
        .into_iter()
        .map(Literal::positive)
        .chain(negative)
        .collect();
    Rule::new(Atom::new(r(head_rel), head_terms), body).expect("safe by construction")
}

/// The atom a step stands for, rebuilt from its key, its schedule or its
/// terms, with whether it is positive.
fn step_atom(step: &Step) -> (Atom, bool) {
    let rebuilt = |rel: RelId, cols: Vec<(usize, Term)>| {
        let mut cols = cols;
        cols.sort_by_key(|&(c, _)| c);
        let columns: Vec<usize> = cols.iter().map(|&(c, _)| c).collect();
        assert_eq!(
            columns,
            (0..cols.len()).collect::<Vec<_>>(),
            "every column once: {step:?}"
        );
        Atom::new(rel, cols.into_iter().map(|(_, t)| t).collect::<Vec<_>>())
    };
    match step {
        Step::Scan { rel, schedule, .. } => (rebuilt(*rel, schedule.columns()), true),
        Step::Probe {
            rel,
            mask,
            key,
            schedule,
        } => {
            let key_cols = (0..32).filter(|c| mask >> c & 1 == 1);
            let mut cols: Vec<(usize, Term)> = key_cols.zip(key.iter().copied()).collect();
            assert_eq!(cols.len(), key.len(), "one key part per mask bit: {step:?}");
            cols.extend(schedule.columns());
            (rebuilt(*rel, cols), true)
        }
        Step::Member { rel, terms } => (Atom::new(*rel, terms.clone()), true),
        Step::NegCheck { rel, terms } => (Atom::new(*rel, terms.clone()), false),
    }
}

/// Runs `schedule` over `bound`: binds first — each into a slot no one has
/// bound — then checks, which read only bound slots.
fn run_schedule(schedule: &Schedule, bound: &mut [bool]) -> Result<(), String> {
    for &(col, slot) in &schedule.binds {
        if std::mem::replace(&mut bound[slot], true) {
            return Err(format!("column {col} binds s{slot} a second time"));
        }
    }
    reads(schedule.checks.iter().map(|&(_, t)| t), bound)
}

fn reads(terms: impl IntoIterator<Item = Term>, bound: &[bool]) -> Result<(), String> {
    match terms
        .into_iter()
        .find_map(|t| t.slot().filter(|&s| !bound[s]))
    {
        Some(s) => Err(format!("s{s} is read before it is bound")),
        None => Ok(()),
    }
}

/// Checks one plan of `rule` against the schedule's invariants.  `entry`
/// says whether the head is unified on entry (a head-bound plan).
fn check_plan(rule: &Rule, plan: &JoinPlan, entry: bool) -> Result<(), String> {
    let mut bound = vec![false; rule.slots];
    if entry {
        let head = Atom::new(
            rule.head.rel,
            plan.entry
                .columns()
                .into_iter()
                .map(|(_, t)| t)
                .collect::<Vec<_>>(),
        );
        if head != rule.head {
            return Err(format!(
                "the entry schedule is not the head: {:?}",
                plan.entry
            ));
        }
    } else if plan.entry != Schedule::default() {
        return Err("only head-bound plans unify on entry".into());
    }
    run_schedule(&plan.entry, &mut bound)?;
    let mut atoms = Vec::new();
    for step in &plan.steps {
        match step {
            Step::Scan { schedule, .. } => run_schedule(schedule, &mut bound),
            Step::Probe { key, schedule, .. } => {
                reads(key.iter().copied(), &bound).and_then(|()| run_schedule(schedule, &mut bound))
            }
            Step::Member { terms, .. } | Step::NegCheck { terms, .. } => {
                reads(terms.iter().copied(), &bound)
            }
        }
        .map_err(|e| format!("{step:?}: {e}"))?;
        atoms.push(step_atom(step));
    }
    reads(rule.head.terms.iter().copied(), &bound).map_err(|e| format!("head: {e}"))?;
    let mut body: Vec<(Atom, bool)> = rule
        .body
        .iter()
        .map(|l| (l.atom.clone(), l.positive))
        .collect();
    let key = |(atom, positive): &(Atom, bool)| (atom.to_string(), *positive);
    body.sort_by_key(key);
    atoms.sort_by_key(key);
    if atoms != body {
        return Err(format!("the steps are not the body: {atoms:?}"));
    }
    Ok(())
}

fn literal() -> impl Strategy<Value = (u32, bool, Vec<u32>)> {
    (
        0u32..5,
        any::<bool>(),
        proptest::collection::vec(0u32..8, 3..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Full plans, every delta variant and head-bound plans of random safe
    /// rules — repeated slots, constants, negations, sizes that reorder the
    /// greedy — all keep the schedule's invariants.
    #[test]
    fn every_plan_binds_each_slot_once_before_reading_it(
        head in (0u32..5, proptest::collection::vec(0u32..16, 3..4)),
        body in proptest::collection::vec(literal(), 1..5),
        sizes in proptest::collection::vec(0usize..4, 5..6),
        idb in proptest::collection::vec(any::<bool>(), 5..6),
    ) {
        let rule = safe_rule(head, body);
        let sizes: BTreeMap<RelId, usize> = (0..5).map(|i| (r(i), sizes[i as usize])).collect();
        let idb: BTreeSet<RelId> = (0..5).filter(|&i| idb[i as usize]).map(r).collect();
        let planned = PlannedRule::plan_sized(&rule, &idb, &sizes);
        let plans = std::iter::once(&planned.full).chain(planned.deltas.iter().map(|(_, p)| p));
        for plan in plans {
            let checked = check_plan(&rule, plan, false);
            prop_assert!(checked.is_ok(), "{rule}: {checked:?}");
        }
        let checked = check_plan(&rule, &JoinPlan::head_bound(&rule, &sizes), true);
        prop_assert!(checked.is_ok(), "{rule} head-bound: {checked:?}");
    }
}

#[test]
fn a_repeated_head_slot_rederives_no_fact_whose_columns_differ() {
    // p(x, y) :- e(x, y).   p(x, x) :- f(x).
    let (e, f, p) = (r(1), r(2), r(3));
    let s = Term::Slot;
    let strata = [Program::new(vec![
        Rule::new(
            Atom::new(p, vec![s(0), s(1)]),
            vec![Literal::positive(Atom::new(e, vec![s(0), s(1)]))],
        )
        .unwrap(),
        Rule::new(
            Atom::new(p, vec![s(0), s(0)]),
            vec![Literal::positive(Atom::new(f, vec![s(0)]))],
        )
        .unwrap(),
    ])];
    // f holds both columns of p(1, 2), so binding s0 from either one and
    // not checking the other would rederive it
    let edb = DatabaseBuilder::new()
        .fact(e, [1u32, 2])
        .fact(f, [1u32])
        .fact(f, [2u32])
        .build()
        .unwrap();
    for threads in [1, 2] {
        let mut session = IncrementalSession::with_threads(&strata, &edb, threads).unwrap();
        assert!(session.holds(p, &Tuple::from([1u32, 2])));
        let stats = session
            .remove_facts(&[(e, Tuple::from([1u32, 2]))])
            .unwrap();
        assert!(
            !session.holds(p, &Tuple::from([1u32, 2])),
            "p(1, 2) lost its only derivation"
        );
        assert_eq!(stats.rederived_facts, 0);
        let mut after = edb.clone();
        after.remove_fact(e, &Tuple::from([1u32, 2]));
        let (scratch, _) = evaluate(&strata, &after, threads, None, None).unwrap();
        assert_eq!(session.current(), scratch);
    }
}

/// `units` braid units of two five-edge strands each — closure_scan's
/// shape — every fifth closed into a cycle.
fn braid(units: u32) -> Database {
    let mut b = DatabaseBuilder::new().relation(r(1), 2);
    for u in 0..units {
        let base = u * 16;
        b = b.fact(r(1), [base, base + 1]).fact(r(1), [base, base + 6]);
        for i in 1..5 {
            b = b
                .fact(r(1), [base + i, base + i + 1])
                .fact(r(1), [base + 5 + i, base + 6 + i]);
        }
        if u % 5 == 2 {
            b = b.fact(r(1), [base + 5, base]);
        }
    }
    b.build().unwrap()
}

#[test]
fn on_cycle_matches_the_reference_with_identical_counters_at_every_width() {
    // reach = TC(edge); oncycle(x) :- reach(x, x): the delta driver scans
    // reach#delta(s0, s0), binding s0 from column 0 and checking column 1
    let (edge, reach, oncycle) = (r(1), r(2), r(3));
    let atom = |rel, a, b| DlAtom::new(rel, vec![var(a), var(b)]);
    let program = kbt_datalog::Program::new(vec![
        kbt_datalog::Rule::new(
            atom(reach, 1, 2),
            vec![kbt_datalog::Literal::positive(atom(edge, 1, 2))],
        ),
        kbt_datalog::Rule::new(
            atom(reach, 1, 3),
            vec![
                kbt_datalog::Literal::positive(atom(reach, 1, 2)),
                kbt_datalog::Literal::positive(atom(edge, 2, 3)),
            ],
        ),
        kbt_datalog::Rule::new(
            DlAtom::new(oncycle, vec![var(1)]),
            vec![kbt_datalog::Literal::positive(atom(reach, 1, 1))],
        ),
    ])
    .unwrap();
    let strata = lower_strata(&program, None).unwrap();
    let edb = braid(60);
    let (reference, _) = reference_semi_naive_eval(&program, &edb).unwrap();
    let (fix, stats) = evaluate(&strata, &edb, 1, None, None).unwrap();
    assert_eq!(fix, reference);
    assert_eq!(
        fix.relation(oncycle).unwrap().len(),
        12 * 6,
        "six nodes on each of twelve cycles"
    );
    let (wide, wide_stats) = evaluate(&strata, &edb, 2, None, None).unwrap();
    assert_eq!(wide, reference);
    assert_eq!(wide_stats, stats);
}
