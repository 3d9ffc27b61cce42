//! Differential tests for the indexed evaluation engine.
//!
//! Three layers of cross-checking:
//!
//! 1. **Datalog-level**: the engine's indexed semi-naive evaluation must
//!    produce byte-identical fixpoints to both original nested-loop
//!    oracles (`reference_*_eval`) on the worked-example programs and on
//!    randomized programs, with and without rules over derived heads.
//! 2. **Transformation-level**: the seven worked examples of Section 3 must
//!    give identical answers whichever `µ` strategy evaluates them (the
//!    Datalog fast path now runs on the engine).
//! 3. **Statistics**: the engine must do strictly less scanning than the
//!    oracle on workloads where indexes pay off.

use kbt::core::examples::{
    lemma21, max_clique, monochromatic_triangle, parity, robots, transitive_closure,
    transitive_reduction,
};
use kbt::core::{EvalOptions, Strategy, Transform, Transformer};
use kbt::data::{Database, DatabaseBuilder, RelId};
use kbt::datalog::{
    program_from_sentence, reference_naive_eval, reference_semi_naive_eval, DlAtom, Program, Rule,
};
use kbt::engine::evaluate;
use kbt::logic::builder::{cst, var};
use rand::prelude::*;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// Asserts the engine and both reference oracles agree byte-for-byte on
/// `program`/`edb`.
fn assert_engine_matches_oracles(program: &Program, edb: &Database, label: &str) {
    let (oracle, _) = reference_naive_eval(program, edb).expect(label);
    let (oracle_semi, _) = reference_semi_naive_eval(program, edb).expect(label);
    let (engine_semi, _) = evaluate(program, edb, 0, None, None).expect(label);
    assert_eq!(oracle, oracle_semi, "oracle modes disagree on {label}");
    assert_eq!(engine_semi, oracle, "engine semi-naive diverges on {label}");
}

fn graph(edges: &[(u32, u32)]) -> Database {
    let mut b = DatabaseBuilder::new().relation(r(1), 2);
    for &(x, y) in edges {
        b = b.fact(r(1), [x, y]);
    }
    b.build().unwrap()
}

#[test]
fn transitive_closure_program_agrees_on_varied_graphs() {
    let program = program_from_sentence(&transitive_closure::sentence_horn()).unwrap();
    let graphs: Vec<Vec<(u32, u32)>> = vec![
        vec![],
        vec![(1, 1)],
        vec![(1, 2), (2, 3), (3, 4), (4, 5)],
        vec![(1, 2), (2, 3), (3, 1)],
        vec![(1, 2), (3, 4), (5, 6)],
        vec![(1, 2), (2, 1), (2, 3), (3, 3)],
    ];
    for edges in graphs {
        assert_engine_matches_oracles(&program, &graph(&edges), &format!("graph {edges:?}"));
    }
}

#[test]
fn randomized_positive_programs_agree() {
    randomized_positive_programs(0xFEED, 40, 8);
}

#[test]
fn randomized_stratified_programs_with_negation_agree() {
    randomized_stratified_programs(0xBEEF, 40, 8);
}

/// The long variant: more and larger random cases than a debug build can
/// afford (run it in release with `--include-ignored`).
#[test]
#[ignore = "long; run in release with --include-ignored"]
fn randomized_programs_agree_long() {
    randomized_positive_programs(0xFEED_0001, 4000, 24);
    randomized_stratified_programs(0xBEEF_0001, 4000, 24);
}

fn randomized_positive_programs(seed: u64, cases: usize, facts: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let pool = Pool::of_case(case);
        let program = random_positive_program(pool, &mut rng);
        let edb = random_edb(pool, &mut rng, facts);
        assert_engine_matches_oracles(&program, &edb, &format!("positive case {case}"));
    }
}

fn randomized_stratified_programs(seed: u64, cases: usize, facts: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let pool = Pool::of_case(case);
        let program = random_stratified_program(pool, &mut rng);
        let edb = random_edb(pool, &mut rng, facts);
        assert_engine_matches_oracles(&program, &edb, &format!("stratified case {case}"));
    }
}

/// Relations: R1 binary, R2 unary, R3 ternary and R4 4-ary EDB; R11 binary
/// IDB, R12 unary IDB; R21 unary IDB, derived from R12 and the EDB.  R3's fully bound atoms are membership checks on hashed
/// (> 2 column) row keys, and R4 probed on three bound columns is a hashed
/// probe key, whose bucket candidates are verified against the row.
const EDB_BIN: u32 = 1;
const EDB_UN: u32 = 2;
const EDB_TER: u32 = 3;
const EDB_WIDE: u32 = 4;
const IDB_BIN: u32 = 11;
const IDB_UN: u32 = 12;
const TOP_UN: u32 = 21;

fn arity_of(rel: u32) -> usize {
    match rel {
        EDB_BIN | IDB_BIN => 2,
        EDB_TER => 3,
        EDB_WIDE => 4,
        _ => 1,
    }
}

/// A random safe positive rule with the given head relation.  One term in
/// four is a constant, in the body and in the head, so constant checks,
/// constant probe keys and atoms with no variable at all occur.
fn random_rule(pool: Pool, head_rel: u32, body_pool: &[u32], rng: &mut impl Rng) -> Rule {
    let num_atoms = rng.random_range(1..4usize);
    let mut body: Vec<DlAtom> = Vec::new();
    for _ in 0..num_atoms {
        let rel = *body_pool.choose(rng).expect("non-empty pool");
        let terms: Vec<_> = (0..arity_of(rel))
            .map(|_| match rng.random_range(0..4u32) {
                0 => pool.constant(rng),
                _ => var(rng.random_range(1..4u32)),
            })
            .collect();
        body.push(DlAtom::new(r(rel), terms));
    }
    // the head draws its variables from the body, so the rule is safe
    let body_vars: Vec<u32> = body
        .iter()
        .flat_map(DlAtom::variables)
        .map(|v| v.index())
        .collect();
    let head_terms: Vec<_> = (0..arity_of(head_rel))
        .map(|_| match body_vars.choose(rng) {
            Some(&v) if rng.random_range(0..4u32) > 0 => var(v),
            _ => pool.constant(rng),
        })
        .collect();
    Rule::new(DlAtom::new(r(head_rel), head_terms), body)
}

/// A constant far from the others: a stored run whose first column holds
/// it is sparse, so its prefix probes and its membership checks go through
/// the chained tables instead of the run's first-column offsets.
const FAR: u32 = 1_000_000;

/// The constants one case draws from, in its rules and in its facts, and
/// whether its stored database holds facts of the rules' heads too.
#[derive(Clone, Copy, Debug)]
struct Pool {
    /// Whether [`FAR`] is among them (one case in four).
    far: bool,
    /// Whether `IDB_BIN` and `IDB_UN` start with stored facts (one case in
    /// three): the fixpoint filter then meets a head whose first segment
    /// is not empty, and the rounds append behind it.
    stored_heads: bool,
}

impl Pool {
    fn of_case(case: usize) -> Pool {
        Pool {
            far: case % 4 == 3,
            stored_heads: case % 3 == 1,
        }
    }

    /// A value from `values`, or [`FAR`] as one more in a far case.
    fn draw(self, values: std::ops::Range<u32>, rng: &mut impl Rng) -> u32 {
        if !self.far {
            return rng.random_range(values);
        }
        match rng.random_range(values.start..values.end + 1) {
            v if v == values.end => FAR,
            v => v,
        }
    }

    fn constant(self, rng: &mut impl Rng) -> kbt::logic::Term {
        cst(self.draw(1..5, rng))
    }
}

const BODY_POOL: [u32; 6] = [EDB_BIN, EDB_UN, EDB_TER, EDB_WIDE, IDB_BIN, IDB_UN];

fn random_positive_program(pool: Pool, rng: &mut impl Rng) -> Program {
    let mut rules = Vec::new();
    let num_rules = rng.random_range(2..5usize);
    for _ in 0..num_rules {
        let head = *[IDB_BIN, IDB_UN].choose(rng).expect("non-empty");
        rules.push(random_rule(pool, head, &BODY_POOL, rng));
    }
    Program::new(rules).expect("generated rules are safe")
}

fn random_stratified_program(pool: Pool, rng: &mut impl Rng) -> Program {
    let mut rules = random_positive_program(pool, rng).rules().to_vec();
    // one or two rules over a derived head and the EDB
    for _ in 0..rng.random_range(1..3usize) {
        rules.push(random_rule(
            pool,
            TOP_UN,
            &[EDB_UN, IDB_UN, EDB_BIN, EDB_TER],
            rng,
        ));
    }
    Program::new(rules).expect("generated rules are safe")
}

/// Fewer than `facts` random facts per EDB relation, over the constants
/// the rules use (the 4-ary relation over two of them, so that its probes
/// find rows) — and per head relation too, where the pool stores heads.
fn random_edb(pool: Pool, rng: &mut impl Rng, facts: usize) -> Database {
    let mut b = DatabaseBuilder::new()
        .relation(r(EDB_BIN), 2)
        .relation(r(EDB_UN), 1)
        .relation(r(EDB_TER), 3)
        .relation(r(EDB_WIDE), 4);
    let heads: &[u32] = if pool.stored_heads {
        &[IDB_BIN, IDB_UN]
    } else {
        &[]
    };
    for &rel in [EDB_BIN, EDB_UN, EDB_TER, EDB_WIDE].iter().chain(heads) {
        let values = if rel == EDB_WIDE { 1..3u32 } else { 1..5u32 };
        for _ in 0..rng.random_range(0..facts) {
            let row: Vec<u32> = (0..arity_of(rel))
                .map(|_| pool.draw(values.clone(), rng))
                .collect();
            b = b.fact(r(rel), row.as_slice());
        }
    }
    b.build().unwrap()
}

// ---------------------------------------------------------------------------
// Transformation-level: the seven worked examples across µ strategies.
// ---------------------------------------------------------------------------

fn transformers() -> Vec<(&'static str, Transformer)> {
    vec![
        ("Auto", Transformer::new()),
        (
            "Grounding",
            Transformer::with_options(EvalOptions::with_strategy(Strategy::Grounding)),
        ),
    ]
}

#[test]
fn example_1_transitive_closure_strategies_agree() {
    let edges = vec![(1, 2), (2, 3), (3, 1), (3, 4)];
    let expected = transitive_closure::baseline_transitive_closure(&edges);
    for (name, t) in transformers() {
        let got = transitive_closure::transitive_closure(&t, &edges).unwrap();
        assert_eq!(got, expected, "strategy {name}");
    }
    // the Horn variant additionally runs on the engine-backed Datalog path
    let datalog = Transformer::with_options(EvalOptions::with_strategy(Strategy::Datalog));
    let got = transitive_closure::transitive_closure_horn(&datalog, &edges).unwrap();
    assert_eq!(got, expected, "engine-backed Datalog fast path");
}

#[test]
fn examples_2_and_3_transitive_reductions_strategies_agree() {
    let edges = vec![(1, 2), (2, 3), (1, 3)];
    let mut results = Vec::new();
    for (_, t) in transformers() {
        let mut reductions = transitive_reduction::transitive_reductions(&t, &edges).unwrap();
        reductions.sort();
        results.push(reductions);
    }
    assert_eq!(results[0], results[1]);
    assert!(!results[0].is_empty());
}

#[test]
fn example_4_robots_counterfactual_strategies_agree() {
    // The paper's answer to "would W still be orbiting?" is *no* (Example 4).
    for (name, t) in transformers() {
        assert!(
            !robots::would_w_still_be_orbiting(&t).unwrap(),
            "strategy {name}"
        );
        let updated = robots::learn_v_landed(&t).unwrap();
        assert_eq!(updated.len(), 2, "strategy {name}");
    }
}

#[test]
fn example_5_monochromatic_triangle_strategies_agree() {
    // a 4-cycle is 2-partitionable without a monochromatic triangle
    let edges = vec![(1, 2), (2, 3), (3, 4), (4, 1)];
    for (name, t) in transformers() {
        assert_eq!(
            monochromatic_triangle::has_monochromatic_triangle_free_partition(&t, &edges).unwrap(),
            monochromatic_triangle::baseline_partition_exists(&edges),
            "strategy {name}"
        );
    }
}

#[test]
fn example_6_parity_strategies_agree() {
    for set in [&[1u32][..], &[1, 2], &[1, 2, 3]] {
        for (name, t) in transformers() {
            assert_eq!(
                parity::is_even(&t, set).unwrap(),
                set.len() % 2 == 0,
                "strategy {name} on {set:?}"
            );
        }
    }
}

#[test]
fn example_7_max_clique_strategies_agree() {
    // Example 7's sentence is neither Horn nor ground, so `Auto` resolves to
    // `Grounding` — there is exactly one applicable strategy, and the
    // (expensive) negative cases are already exercised by the kbt-core unit
    // tests.  Here we only confirm both spellings take the same path.
    let edges = vec![(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)];
    assert_eq!(max_clique::baseline_max_clique(&edges), 3);
    for (name, t) in transformers() {
        assert!(
            max_clique::has_clique_of_size(&t, &edges, 3).unwrap(),
            "strategy {name}"
        );
    }
}

#[test]
fn lemma_21_counterexamples_strategies_agree() {
    for (name, t) in transformers() {
        let (glb_of_tau, tau_of_glb) = lemma21::both_orders(
            &t,
            &lemma21::glb_sentence(),
            &lemma21::glb_knowledgebase(),
            Transform::Glb,
        )
        .unwrap();
        assert_ne!(glb_of_tau, tau_of_glb, "strategy {name}");
    }
}

// ---------------------------------------------------------------------------
// Statistics: the engine must beat the oracle where indexing pays off.
// ---------------------------------------------------------------------------

#[test]
fn indexed_evaluation_scans_fewer_tuples_than_the_oracle() {
    let program = program_from_sentence(&transitive_closure::sentence_horn()).unwrap();
    let edges: Vec<(u32, u32)> = (1..60).map(|i| (i, i + 1)).collect();
    let edb = graph(&edges);
    let (fix_engine, engine_stats) = evaluate(&program, &edb, 0, None, None).unwrap();
    let (fix_oracle, oracle_stats) = reference_semi_naive_eval(&program, &edb).unwrap();
    assert_eq!(fix_engine, fix_oracle);
    assert!(engine_stats.index_probes > 0);
    assert!(
        engine_stats.tuples_scanned * 5 < oracle_stats.tuples_scanned,
        "indexed semi-naive ({}) should scan at least 5x fewer tuples than the oracle ({})",
        engine_stats.tuples_scanned,
        oracle_stats.tuples_scanned
    );
}
