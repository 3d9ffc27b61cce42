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
//!   once the last step has run — with the slots numbered as the planner
//!   promises, the body's variables by first occurrence;
//! * a repeated head slot: asking a head-bound plan about a fact whose two
//!   columns differ finds no derivation, however the body would bind;
//! * a repeated body slot, `oncycle(x) :- reach(x, x)` — a check inside a
//!   delta driver — against the reference evaluator, with identical
//!   counters at widths 1 and 2.

use std::collections::{BTreeMap, BTreeSet};

use kbt_data::{Const, Database, DatabaseBuilder, RelId, Tuple};
use kbt_datalog::reference_semi_naive_eval;
use kbt_engine::plan::{Arg, JoinPlan, PlannedRule, Schedule, Step};
use kbt_engine::{evaluate, IncrementalSession, Program};
use kbt_logic::builder::var;
use kbt_logic::{Atom, Rule, Term, Var};
use proptest::prelude::*;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// The arity of relation `i` in the random rules: 1, 2, 3, 1, …
fn arity(i: u32) -> usize {
    i as usize % 3 + 1
}

/// A term code: variables `0..5`, constants above.
fn term(code: u32) -> Term {
    match code {
        0..=4 => Term::Var(Var::new(code)),
        c => Term::Const(Const::new(c)),
    }
}

/// A safe rule from raw draws: each atom is `(relation, term codes)`, and
/// the head takes its terms from the body's variables (or constants).
fn safe_rule(head: (u32, Vec<u32>), body: Vec<(u32, Vec<u32>)>) -> Rule {
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
    let body: Vec<Atom> = body.iter().map(|(rel, codes)| atom(*rel, codes)).collect();
    let bound: Vec<Var> = body
        .iter()
        .flat_map(Atom::variables)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let (head_rel, head_codes) = head;
    let head_terms: Vec<Term> = (head_codes.iter().take(arity(head_rel)))
        .map(|&c| match bound.get(c as usize % 8) {
            Some(&v) => Term::Var(v),
            None => Term::Const(Const::new(c)),
        })
        .collect();
    Rule::new(Atom::new(r(head_rel), head_terms), body)
}

/// An atom over register slots: what a plan's steps stand for.
type SlotAtom = (RelId, Vec<Arg>);

/// `rule` over register slots, numbered as the planner promises: the
/// body's variables by first occurrence, then the head's.  Returns the
/// head, the body and the number of slots.
fn slotted(rule: &Rule) -> (SlotAtom, Vec<SlotAtom>, usize) {
    let mut vars: Vec<Var> = Vec::new();
    let mut atom = |a: &Atom| -> SlotAtom {
        let args = (a.terms.iter()).map(|t| match *t {
            Term::Const(c) => Arg::Const(c),
            Term::Var(v) => Arg::Slot(vars.iter().position(|&w| w == v).unwrap_or_else(|| {
                vars.push(v);
                vars.len() - 1
            })),
        });
        (a.rel, args.collect())
    };
    let body: Vec<SlotAtom> = rule.body.iter().map(&mut atom).collect();
    let head = atom(&rule.head);
    let slots = vars.len();
    (head, body, slots)
}

/// The atom a step stands for, rebuilt from its key, its schedule or its
/// terms.
fn step_atom(step: &Step) -> SlotAtom {
    let rebuilt = |rel: RelId, cols: Vec<(usize, Arg)>| {
        let mut cols = cols;
        cols.sort_by_key(|&(c, _)| c);
        let columns: Vec<usize> = cols.iter().map(|&(c, _)| c).collect();
        assert_eq!(
            columns,
            (0..cols.len()).collect::<Vec<_>>(),
            "every column once: {step:?}"
        );
        (rel, cols.into_iter().map(|(_, t)| t).collect::<Vec<_>>())
    };
    match step {
        Step::Scan { rel, schedule, .. } => rebuilt(*rel, schedule.columns()),
        Step::Probe {
            rel,
            mask,
            key,
            schedule,
        } => {
            let key_cols = (0..32).filter(|c| mask >> c & 1 == 1);
            let mut cols: Vec<(usize, Arg)> = key_cols.zip(key.iter().copied()).collect();
            assert_eq!(cols.len(), key.len(), "one key part per mask bit: {step:?}");
            cols.extend(schedule.columns());
            rebuilt(*rel, cols)
        }
        Step::Member { rel, terms } => (*rel, terms.clone()),
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

fn reads(args: impl IntoIterator<Item = Arg>, bound: &[bool]) -> Result<(), String> {
    let unbound = |arg| match arg {
        Arg::Slot(s) if !bound[s] => Some(s),
        _ => None,
    };
    match args.into_iter().find_map(unbound) {
        Some(s) => Err(format!("s{s} is read before it is bound")),
        None => Ok(()),
    }
}

/// Checks one plan of `rule` against the schedule's invariants.  `entry`
/// says whether the head is unified on entry (a head-bound plan).
fn check_plan(rule: &Rule, plan: &JoinPlan, entry: bool) -> Result<(), String> {
    let (head, mut body, slots) = slotted(rule);
    let mut bound = vec![false; slots];
    if entry {
        let unified = plan.entry.columns().into_iter().map(|(_, t)| t);
        if (head.0, unified.collect()) != head {
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
            Step::Member { terms, .. } => reads(terms.iter().copied(), &bound),
        }
        .map_err(|e| format!("{step:?}: {e}"))?;
        atoms.push(step_atom(step));
    }
    reads(head.1.iter().copied(), &bound).map_err(|e| format!("head: {e}"))?;
    body.sort();
    atoms.sort();
    if atoms != body {
        return Err(format!("the steps are not the body: {atoms:?}"));
    }
    Ok(())
}

fn body_atom() -> impl Strategy<Value = (u32, Vec<u32>)> {
    (0u32..5, proptest::collection::vec(0u32..8, 3..4))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Full plans, every delta variant and head-bound plans of random safe
    /// rules — repeated slots, constants, sizes that reorder the greedy —
    /// all keep the schedule's invariants.
    #[test]
    fn every_plan_binds_each_slot_once_before_reading_it(
        head in (0u32..5, proptest::collection::vec(0u32..16, 3..4)),
        body in proptest::collection::vec(body_atom(), 1..5),
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
    let program = Program::new(vec![
        Rule::new(
            Atom::new(p, vec![var(0), var(1)]),
            vec![Atom::new(e, vec![var(0), var(1)])],
        ),
        Rule::new(
            Atom::new(p, vec![var(0), var(0)]),
            vec![Atom::new(f, vec![var(0)])],
        ),
    ])
    .unwrap();
    // f holds both columns of p(1, 2), so binding s0 from either one and
    // not checking the other would rederive it
    let edb = DatabaseBuilder::new()
        .fact(e, [1u32, 2])
        .fact(f, [1u32])
        .fact(f, [2u32])
        .build()
        .unwrap();
    for threads in [1, 2] {
        let mut session = IncrementalSession::with_threads(&program, &edb, threads).unwrap();
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
        let (scratch, _) = evaluate(&program, &after, threads, None, None).unwrap();
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
    let atom = |rel, a, b| Atom::new(rel, vec![var(a), var(b)]);
    let program = Program::new(vec![
        Rule::new(atom(reach, 1, 2), vec![atom(edge, 1, 2)]),
        Rule::new(atom(reach, 1, 3), vec![atom(reach, 1, 2), atom(edge, 2, 3)]),
        Rule::new(Atom::new(oncycle, vec![var(1)]), vec![atom(reach, 1, 1)]),
    ])
    .unwrap();
    let edb = braid(60);
    let (reference, _) = reference_semi_naive_eval(&program, &edb).unwrap();
    let (fix, stats) = evaluate(&program, &edb, 1, None, None).unwrap();
    assert_eq!(fix, reference);
    assert_eq!(
        fix.relation(oncycle).unwrap().len(),
        12 * 6,
        "six nodes on each of twelve cycles"
    );
    let (wide, wide_stats) = evaluate(&program, &edb, 2, None, None).unwrap();
    assert_eq!(wide, reference);
    assert_eq!(wide_stats, stats);
}
