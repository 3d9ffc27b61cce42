//! The data-complexity column of the paper's Section 4 table, pinned by
//! counts.
//!
//! Each row holds the sentence fixed and climbs a ladder of databases
//! under `Strategy::Auto`, so the counts are those of the evaluator that
//! `minimal_update_over` routes the sentence to.  They are read off the
//! per-call [`EvalStats`] and, for the rows that search, off
//! `kbt_solver::metrics()`.  The counts are a function of the input alone,
//! so they repeat on any machine.
//!
//! * **Theorem 4.7, quantifier-free (PTIME).**  A ground sentence over a
//!   random unary set of n/2 of the numbers 1..n, n = 50 to 400.  The
//!   quantifier-free path enumerates the 2^k assignments of the sentence's
//!   own k = 3 atoms, without a search, so `candidate_atoms` is 3 on every
//!   rung: its growth exponent is 0.
//! * **Theorem 4.9, the expression column.**  The database is held empty
//!   and the ground sentence grows: `⋀_{i<k} (R1(2i) ∨ R1(2i + 1))` has
//!   2k candidate atoms, all of them the sentence's, and 2^k minimal
//!   models, k = 1 to 5.
//! * **Theorem 4.8, Datalog (PTIME).**  The Horn transitive closure of a
//!   chain of n = 8, 16, 32 nodes.  The fixpoint runs n rounds and
//!   n(n−1)/2 index probes (28, 120, 496), with no candidate atom: growth
//!   exponents 1 and about 2.1 (n(n−1)/2 grows a little faster than n²
//!   between small rungs).
//! * **Theorem 4.2, a general `τ` (co-NP-hard).**  The reduction
//!   `π_{R3} ∘ τ_ψ` on random 3CNF instances of 3 to 6 variables has one
//!   minimal model per truth assignment, 2^v, and the enumeration spends
//!   one search per model plus the one that finds none.  A direct DPLL
//!   solve of the same clauses is one search of a few decisions.
//! * **A general `τ` that searches.**  The cover update
//!   `∀x y. e(x, y) → c(x) ∨ c(y)` on an n-cycle, n = 4 to 12: its minimal
//!   models are the cycle's minimal vertex covers, the Perrin numbers
//!   2, 5, 10, 17, 29, and again one search each.  (An irreflexivity
//!   update, `∀x. ¬R1(x, x)` on a chain with loops, is solved without a
//!   single decision at every size, so it would show no search.)
//!
//! The PTIME rows assert their growth exponents under recorded bounds.  The
//! general rows assert their model counts exactly and their propagations
//! (and DPLL's decisions) within 10 % of the recorded figures, as
//! `crates/bench/tests/solver_work_bound.rs` does; a figure is re-recorded
//! only downward.  Each row first asserts its routing marker on its
//! smallest rung, so a mis-routed sentence fails there instead of paying
//! for the larger rungs: a ground sentence sent to the exhaustive
//! evaluator exceeds its 22-atom ceiling at once, one sent to grounding
//! searches (its candidates are still the sentence's 3 atoms), and a Horn
//! one sent to grounding shows 128 candidate atoms at n = 8.
//!
//! Whether the two routes of Theorem 4.2 agree is `threecnf.rs`'s
//! `transformation_and_dpll_agree_on_small_random_instances`; Theorem 4.5's
//! encoding size, Section 5, the Section 3 examples and the postulates have
//! tests of their own (`turing.rs`, `expressiveness.rs`, `section3.rs`,
//! `postulates.rs`).  This file only pins the shape of the counts.
//!
//! The `#[ignore]`d `longer_ladders_keep_their_shapes` climbs further
//! (seconds in a release build):
//!
//! ```text
//! cargo test --release --test complexity_shape -- --include-ignored --nocapture
//! ```

use std::sync::{Mutex, MutexGuard};

use kbt::core::EvalStats;
use kbt::logic::builder::*;
use kbt::prelude::*;
use kbt::reductions::threecnf::{
    clause_database, reduction_transform, satisfiable_via_dpll, ThreeCnf,
};
use kbt::reductions::workload::{chain_graph, random_set};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest growth exponent of `candidate_atoms` between two rungs of the
/// Theorem 4.7 row: the candidates come from the sentence alone.
const QUANTIFIER_FREE_ATOMS_EXPONENT: f64 = 0.0;
/// Largest growth exponents of the Theorem 4.8 row's fixpoint rounds and
/// index probes between two rungs (measured 1.0, and 2.10 / 2.05).
const DATALOG_ROUNDS_EXPONENT: f64 = 1.05;
const DATALOG_PROBES_EXPONENT: f64 = 2.2;

/// The Theorem 4.2 row's rungs: variables (as many clauses), and the
/// propagations of the reduction's update and the decisions of the direct
/// DPLL solve when the figures were recorded.
const THREECNF_RECORDED: [(u32, u64, u64); 4] = [
    (3, 4_895, 1),
    (4, 10_202, 2),
    (5, 19_743, 2),
    (6, 37_571, 2),
];
/// The cover row's rungs: cycle length, and the update's propagations when
/// the figures were recorded.
const COVER_RECORDED: [(u32, u64); 5] = [(4, 113), (6, 260), (8, 484), (10, 806), (12, 1_268)];

/// The solver's counters are process-global, so the rows run one at a
/// time: a row that reads them must not be billed another's searches, even
/// when a PTIME row is mis-routed to an evaluator that searches.
static SOLVER: Mutex<()> = Mutex::new(());

/// Takes [`SOLVER`]; it guards no data, so a row that panicked holding it
/// leaves nothing to repair and the next row goes on.
fn solver_lock() -> MutexGuard<'static, ()> {
    SOLVER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// Statistics of `expr` applied to `db` under `Strategy::Auto`.
fn apply(row: &str, n: u32, expr: &Transform, db: Database) -> EvalStats {
    Transformer::with_options(EvalOptions::with_strategy(Strategy::Auto))
        .apply(expr, &Knowledgebase::singleton(db))
        .unwrap_or_else(|e| panic!("{row} at n = {n}: {e}"))
        .stats
}

/// Solver work so far: (searches, decisions, propagations).
fn solver_work() -> [u64; 3] {
    let m = kbt::solver::metrics();
    [
        m.solves_total.get(),
        m.decisions_total.get(),
        m.propagations_total.get(),
    ]
}

/// Solver work `f` did, and what it returned.
fn searched<T>(f: impl FnOnce() -> T) -> ([u64; 3], T) {
    let before = solver_work();
    let out = f();
    let after = solver_work();
    (std::array::from_fn(|i| after[i] - before[i]), out)
}

/// The largest growth exponent between consecutive rungs,
/// log(c₂ / c₁) / log(n₂ / n₁).
fn exponent(ns: &[u32], counts: &[usize]) -> f64 {
    ns.windows(2)
        .zip(counts.windows(2))
        .map(|(n, c)| (c[1] as f64 / c[0] as f64).ln() / (f64::from(n[1]) / f64::from(n[0])).ln())
        .fold(f64::NEG_INFINITY, f64::max)
}

fn assert_exponent(what: &str, ns: &[u32], counts: &[usize], bound: f64) {
    let e = exponent(ns, counts);
    println!("{what}: {counts:?} at n = {ns:?}, growth exponent {e:.3}");
    assert!(
        e <= bound,
        "{what} grew with exponent {e:.3} over n = {ns:?} ({counts:?}); the bound is {bound}"
    );
}

/// `figure` within 10 % of `recorded`.
fn assert_recorded(what: &str, figure: u64, recorded: u64) {
    assert!(
        figure <= recorded + recorded / 10,
        "{what}: {figure}; the bound is 10 % over {recorded}"
    );
}

/// A grounding-evaluator row's marker: candidate atoms, no fixpoint, and
/// at least one search.
fn assert_grounded(row: &str, n: u32, stats: &EvalStats, searches: u64) {
    assert!(
        stats.candidate_atoms > 0 && stats.fixpoint_iterations == 0 && searches > 0,
        "{row} at n = {n} must be routed to grounding: {stats:?}, {searches} searches"
    );
}

/// Theorem 4.7: a ground sentence over random unary sets of `ns` elements.
fn quantifier_free_row(ns: &[u32]) {
    let row = "Theorem 4.7 (quantifier-free)";
    let _solver = solver_lock();
    let phi = Sentence::new(or(
        and(atom(1, [cst(1001)]), not(atom(1, [cst(1002)]))),
        atom(1, [cst(1003)]),
    ))
    .unwrap();
    let insert = Transform::insert(phi);
    let mut rng = StdRng::seed_from_u64(42);
    let mut atoms = Vec::new();
    for &n in ns {
        let db = random_set(r(1), n, n as usize / 2, &mut rng);
        let ([searches, _, _], stats) = searched(|| apply(row, n, &insert, db));
        if atoms.is_empty() {
            assert!(
                stats.candidate_atoms == 3 && stats.fixpoint_iterations == 0 && searches == 0,
                "{row} at n = {n} must enumerate the sentence's 3 atoms without a search: \
                 {stats:?}, {searches} searches"
            );
        }
        atoms.push(stats.candidate_atoms);
    }
    assert_exponent(
        &format!("{row} candidate atoms"),
        ns,
        &atoms,
        QUANTIFIER_FREE_ATOMS_EXPONENT,
    );
}

/// Theorem 4.9, the expression column: the ground sentence
/// `⋀_{i<k} (R1(2i) ∨ R1(2i + 1))` on an empty database, for each `k` in
/// `ks`.
fn expression_row(ks: &[u32]) {
    let row = "Theorem 4.9 (sentence size)";
    let _solver = solver_lock();
    for &k in ks {
        let pairs = (0..k).map(|i| or(atom(1, [cst(2 * i)]), atom(1, [cst(2 * i + 1)])));
        let insert = Transform::insert(Sentence::new(and_all(pairs)).unwrap());
        let empty = DatabaseBuilder::new().relation(r(1), 1).build().unwrap();
        let ([searches, _, _], stats) = searched(|| apply(row, k, &insert, empty));
        println!(
            "{row} k = {k}: {} candidate atoms, {} minimal models",
            stats.candidate_atoms, stats.minimal_models
        );
        assert!(
            stats.candidate_atoms == 2 * k as usize
                && stats.fixpoint_iterations == 0
                && searches == 0,
            "{row} at k = {k} must enumerate the sentence's {} atoms without a search: \
             {stats:?}, {searches} searches",
            2 * k
        );
        assert_eq!(
            stats.minimal_models,
            1 << k,
            "{row} at k = {k}: one minimal model per choice of one atom from each pair"
        );
    }
}

/// Theorem 4.8: the Horn transitive closure of chains of `ns` nodes.
fn datalog_row(ns: &[u32]) {
    let row = "Theorem 4.8 (Datalog)";
    let _solver = solver_lock();
    let insert = Transform::insert(kbt::core::examples::transitive_closure::sentence_horn());
    let (mut rounds, mut probes) = (Vec::new(), Vec::new());
    for &n in ns {
        let stats = apply(row, n, &insert, chain_graph(r(1), n));
        if rounds.is_empty() {
            assert!(
                stats.candidate_atoms == 0 && stats.fixpoint_iterations > 0,
                "{row} at n = {n} must run the fixpoint, not ground: {stats:?}"
            );
        }
        rounds.push(stats.fixpoint_iterations);
        probes.push(stats.index_probes);
    }
    assert_exponent(
        &format!("{row} rounds"),
        ns,
        &rounds,
        DATALOG_ROUNDS_EXPONENT,
    );
    assert_exponent(
        &format!("{row} index probes"),
        ns,
        &probes,
        DATALOG_PROBES_EXPONENT,
    );
}

/// Theorem 4.2: the 3CNF reduction on one random instance per variable
/// count in `vars` (as many clauses as variables).  Returns each rung's
/// (update propagations, DPLL decisions).
fn threecnf_row(vars: &[u32]) -> Vec<(u64, u64)> {
    let row = "Theorem 4.2 (3CNF reduction)";
    let _solver = solver_lock();
    let mut rng = StdRng::seed_from_u64(42);
    let mut figures = Vec::new();
    for &v in vars {
        let cnf = ThreeCnf::random(v, v as usize, &mut rng);
        let ([searches, _, propagations], stats) =
            searched(|| apply(row, v, &reduction_transform(), clause_database(&cnf)));
        if figures.is_empty() {
            assert_grounded(row, v, &stats, searches);
        }
        let ([dpll_searches, dpll_decisions, _], _) = searched(|| satisfiable_via_dpll(&cnf));
        println!(
            "{row} v = {v}: {} minimal models, {searches} searches, {propagations} \
             propagations; DPLL {dpll_searches} search, {dpll_decisions} decisions",
            stats.minimal_models
        );
        assert_eq!(
            stats.minimal_models,
            1 << v,
            "{row} at v = {v}: one minimal model per assignment"
        );
        assert!(
            searches <= stats.minimal_models as u64 + 1,
            "{row} at v = {v}: {searches} searches for {} models",
            stats.minimal_models
        );
        assert_eq!(dpll_searches, 1, "{row} at v = {v}: DPLL is one search");
        figures.push((propagations, dpll_decisions));
    }
    figures
}

/// Minimal vertex covers of an n-cycle, n ≥ 3: the Perrin numbers,
/// P(n) = P(n − 2) + P(n − 3) from P(0..3) = 3, 0, 2.
fn cycle_covers(n: u32) -> usize {
    let mut p = [3, 0, 2];
    for _ in 0..n {
        p = [p[1], p[2], p[0] + p[1]];
    }
    p[0]
}

/// The cover update on cycles of `ns` nodes.  Returns each rung's
/// propagations.
fn cover_row(ns: &[u32]) -> Vec<u64> {
    let row = "general τ (cycle cover)";
    let _solver = solver_lock();
    let covered = or(atom(2, [var(1)]), atom(2, [var(2)]));
    let phi = Sentence::new(forall([1, 2], implies(atom(1, [var(1), var(2)]), covered))).unwrap();
    let insert = Transform::insert(phi);
    let mut figures = Vec::new();
    for &n in ns {
        let cycle = DatabaseBuilder::new()
            .facts(r(1), (1..=n).map(|i| [i, i % n + 1]))
            .build()
            .unwrap();
        let ([searches, _, propagations], stats) = searched(|| apply(row, n, &insert, cycle));
        if figures.is_empty() {
            assert_grounded(row, n, &stats, searches);
        }
        println!(
            "{row} n = {n}: {} minimal models, {searches} searches, {propagations} propagations",
            stats.minimal_models
        );
        assert_eq!(
            stats.minimal_models,
            cycle_covers(n),
            "{row} at n = {n}: one minimal model per minimal vertex cover"
        );
        assert!(
            searches <= stats.minimal_models as u64 + 1,
            "{row} at n = {n}: {searches} searches for {} models",
            stats.minimal_models
        );
        figures.push(propagations);
    }
    figures
}

#[test]
fn theorem_4_7_ground_updates_consider_only_the_sentences_atoms() {
    quantifier_free_row(&[50, 100, 200, 400]);
}

#[test]
fn theorem_4_9_ground_updates_grow_with_the_sentence_not_the_database() {
    expression_row(&[1, 2, 3, 4, 5]);
}

#[test]
fn theorem_4_8_horn_updates_run_a_quadratic_fixpoint() {
    datalog_row(&[8, 16, 32]);
}

#[test]
fn theorem_4_2_the_3cnf_reduction_has_one_minimal_model_per_assignment() {
    let vars = THREECNF_RECORDED.map(|(v, _, _)| v);
    for ((v, propagations, decisions), (p, d)) in
        THREECNF_RECORDED.into_iter().zip(threecnf_row(&vars))
    {
        assert_recorded(
            &format!("3CNF update propagations at v = {v}"),
            p,
            propagations,
        );
        assert_recorded(&format!("3CNF DPLL decisions at v = {v}"), d, decisions);
    }
}

#[test]
fn a_cycle_cover_update_searches_once_per_minimal_cover() {
    let ns = COVER_RECORDED.map(|(n, _)| n);
    for ((n, propagations), p) in COVER_RECORDED.into_iter().zip(cover_row(&ns)) {
        assert_recorded(
            &format!("cover update propagations at n = {n}"),
            p,
            propagations,
        );
    }
}

#[test]
#[ignore = "longer ladders: seconds in a release build"]
fn longer_ladders_keep_their_shapes() {
    quantifier_free_row(&[400, 800, 1_600, 3_200, 6_400]);
    expression_row(&[6, 7, 8]);
    datalog_row(&[32, 64, 128, 256]);
    threecnf_row(&[7, 8]);
    cover_row(&[14, 16, 18, 20]);
}
