//! The SAT core against a truth table.
//!
//! `kbt-solver` answers two questions — is `clauses ∧ assumptions`
//! satisfiable, and what are the ⊆-minimal projections of its models onto a
//! set of variables — and every non-Horn update is built from them.  Here
//! both are checked against brute force over all assignments, on random
//! instances that include everything a caller may legally pass: unit,
//! duplicate-literal, tautological and empty clauses; projection sets that
//! are proper subsets (the rest is existential), repeat variables, and name
//! variables no clause mentions or the solver has never heard of;
//! assumptions that contradict each other or name such variables; and every
//! kind of `limit`.
//!
//! Two structured instances ride along because they fail by *timing out*
//! on the two search orders the solver's docs reject: the pigeonhole
//! principle, and Example 7's clique sentence whose remainder has that
//! shape.

use std::collections::BTreeSet;

use kbt::core::examples::max_clique;
use kbt::core::Transformer;
use kbt::solver::{enumerate_minimal_models, BoolVar, Lit, SolveResult, Solver};
use rand::prelude::*;

/// A clause as the literals it was built from.
type RawClause = Vec<Lit>;

struct Instance {
    solver: Solver,
    clauses: Vec<RawClause>,
    /// Variables `0..universe` are the ones anything below may name; the
    /// last two lie beyond `solver.num_vars()` at construction.
    universe: u32,
}

fn random_lit(rng: &mut StdRng, vars: u32) -> Lit {
    Lit::new(
        BoolVar::new(rng.random_range(0..vars)),
        rng.random_bool(0.5),
    )
}

fn random_instance(rng: &mut StdRng, max_vars: u32) -> Instance {
    let num_vars = rng.random_range(1..max_vars + 1);
    let mut solver = Solver::new(num_vars as usize);
    let mut clauses = Vec::new();
    for _ in 0..rng.random_range(0..3 * num_vars + 1) {
        let mut clause: RawClause = match rng.random_range(0..40u32) {
            // rare: the empty clause
            0 => Vec::new(),
            1..=6 => vec![random_lit(rng, num_vars)],
            _ => (0..rng.random_range(2..5u32))
                .map(|_| random_lit(rng, num_vars))
                .collect(),
        };
        if let Some(&first) = clause.first() {
            match rng.random_range(0..12u32) {
                0 => clause.push(first),           // a repeated literal
                1 => clause.push(first.negated()), // a tautology
                _ => {}
            }
        }
        solver.add_clause(&clause);
        clauses.push(clause);
    }
    Instance {
        solver,
        clauses,
        universe: num_vars + 2,
    }
}

/// Every assignment to `0..universe` (as a bit mask) that satisfies the
/// clauses and the assumptions.
fn models(instance: &Instance, assumptions: &[Lit]) -> Vec<u32> {
    let holds = |bits: u32, l: &Lit| l.satisfied_by(bits & (1 << l.var.index()) != 0);
    (0..1u32 << instance.universe)
        .filter(|&bits| {
            instance
                .clauses
                .iter()
                .all(|c| c.iter().any(|l| holds(bits, l)))
                && assumptions.iter().all(|l| holds(bits, l))
        })
        .collect()
}

/// The ⊆-minimal elements of `{m ∩ projection | m ∈ models}`.
fn minimal_projections(models: &[u32], projection: u32) -> BTreeSet<BTreeSet<BoolVar>> {
    let mut projected: Vec<u32> = models.iter().map(|m| m & projection).collect();
    projected.sort_by_key(|p| (p.count_ones(), *p));
    projected.dedup();
    // by size: a set is minimal iff no minimal set found before it is inside it
    let mut minimal: Vec<u32> = Vec::new();
    for p in projected {
        if !minimal.iter().any(|m| m & p == *m) {
            minimal.push(p);
        }
    }
    minimal
        .into_iter()
        .map(|p| {
            (0..32)
                .filter(|i| p & (1 << i) != 0)
                .map(BoolVar::new)
                .collect()
        })
        .collect()
}

fn check_one(rng: &mut StdRng, max_vars: u32) {
    let instance = random_instance(rng, max_vars);
    let universe = instance.universe;

    // a proper subset of the universe, sometimes with a variable repeated
    let mut projection: Vec<BoolVar> = (0..universe)
        .filter(|_| rng.random_bool(0.5))
        .map(BoolVar::new)
        .collect();
    if projection.len() == universe as usize {
        projection.swap_remove(rng.random_range(0..universe as usize));
    }
    if let (Some(&again), true) = (projection.first(), rng.random_bool(0.3)) {
        projection.push(again);
    }
    let projection_mask = projection.iter().fold(0u32, |m, v| m | 1 << v.index());

    let mut assumptions: Vec<Lit> = (0..rng.random_range(0..4u32))
        .map(|_| random_lit(rng, universe))
        .collect();
    if let (Some(&first), true) = (assumptions.first(), rng.random_bool(0.1)) {
        assumptions.push(first.negated());
    }

    let clauses_before = instance.solver.num_clauses();
    let truth = models(&instance, &assumptions);

    // satisfiability, and the model offered
    match instance.solver.solve(&assumptions) {
        SolveResult::Unsat => assert!(truth.is_empty(), "UNSAT, but {:?} is a model", truth[0]),
        SolveResult::Sat(model) => {
            assert!(!truth.is_empty(), "SAT, but the truth table has no model");
            let holds = |l: &Lit| l.satisfied_by(model[l.var.index()]);
            for clause in &instance.clauses {
                assert!(clause.iter().any(holds), "{clause:?} is false in the model");
            }
            assert!(assumptions.iter().all(holds), "an assumption is false");
        }
    }

    // the minimal projections, under every kind of limit
    let expected = minimal_projections(&truth, projection_mask);
    for limit in [None, Some(0), Some(1), Some(2)] {
        let found = enumerate_minimal_models(&instance.solver, &projection, &assumptions, limit);
        let as_set: BTreeSet<BTreeSet<BoolVar>> = found.iter().cloned().collect();
        assert_eq!(
            as_set.len(),
            found.len(),
            "a minimal set was returned twice"
        );
        match limit {
            None => assert_eq!(as_set, expected),
            Some(l) => {
                assert!(as_set.is_subset(&expected), "{as_set:?} ⊄ {expected:?}");
                assert_eq!(found.len(), l.min(expected.len()));
            }
        }
        // blocking clauses never reach the caller's solver
        assert_eq!(instance.solver.num_clauses(), clauses_before);
        assert_eq!(
            enumerate_minimal_models(&instance.solver, &projection, &assumptions, limit),
            found,
            "the same question, a different answer"
        );
    }
}

#[test]
fn solve_and_minimal_models_agree_with_the_truth_table() {
    let mut rng = StdRng::seed_from_u64(0x05A7_C02E);
    for _ in 0..1_000 {
        check_one(&mut rng, 12);
    }
}

/// The same property on wider instances and twenty times the cases:
/// seconds in a release build, minutes in a debug one (CI runs it in
/// release with `--include-ignored`).
#[test]
#[ignore = "long; run in release"]
fn solve_and_minimal_models_agree_with_the_truth_table_long() {
    let mut rng = StdRng::seed_from_u64(0x05A7_C02E_0016);
    for _ in 0..8_000 {
        check_one(&mut rng, 16);
    }
}

/// Every pigeon sits in some hole and no two share one.
fn pigeonhole(pigeons: u32, holes: u32) -> Solver {
    let var = |p: u32, h: u32| BoolVar::new(p * holes + h);
    let mut solver = Solver::new((pigeons * holes) as usize);
    for p in 0..pigeons {
        let somewhere: Vec<Lit> = (0..holes).map(|h| var(p, h).positive()).collect();
        solver.add_clause(&somewhere);
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                solver.add_clause(&[var(p, h).negative(), var(q, h).negative()]);
            }
        }
    }
    solver
}

/// PHP(6, 5): six pigeons do not fit five holes.  Chronological DPLL in
/// clause order refutes it in milliseconds; the same search in
/// variable-index order does not come back.
#[test]
fn six_pigeons_do_not_fit_five_holes() {
    assert!(!pigeonhole(6, 5).is_satisfiable());
    assert!(pigeonhole(5, 5).is_satisfiable());
}

/// Example 7 on the triangle with a pendant vertex: cliques of two and
/// three exist, of four not — and saying so means refuting a
/// pigeonhole-shaped remainder, which a search that decides the minimised
/// variables first cannot do in reasonable time.
#[test]
fn example_7_finds_the_triangle_and_refutes_a_four_clique() {
    let edges = [(1, 2), (2, 3), (1, 3), (3, 4)];
    let t = Transformer::new();
    assert!(max_clique::has_clique_of_size(&t, &edges, 2).unwrap());
    assert!(max_clique::has_clique_of_size(&t, &edges, 3).unwrap());
    assert!(!max_clique::has_clique_of_size(&t, &edges, 4).unwrap());
}
