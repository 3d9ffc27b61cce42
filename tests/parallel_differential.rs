//! Differential tests for parallel evaluation: every thread width must be
//! *observationally identical* to width 1.
//!
//! Three layers:
//!
//! 1. **Vendored-proptest property**: randomized programs over randomized
//!    extensional databases, followed by random insert/delete delta
//!    batches, evaluated at `threads = 1` and `threads = 4` — one-shot
//!    fixpoints must be byte-identical with equal derived-fact counts (all
//!    statistics, in fact), and incremental sessions over the same program
//!    must stay byte-identical to each other *and* to the from-scratch
//!    oracle after every batch.
//! 2. **Above-threshold workload**: a braid graph large enough that the
//!    parallel rounds genuinely fan out (the random instances above are
//!    often below the engine's fan-out cutoff, which must itself be
//!    unobservable).
//! 3. **Transformation level**: a 20-step incremental `τ_φ` chain through
//!    `EvalOptions::threads`, widths 1 vs 4, byte-identical knowledgebases
//!    and statistics.

use kbt::core::{EvalOptions, Transform, Transformer};
use kbt::data::{Database, DatabaseBuilder, Knowledgebase, RelId, Tuple};
use kbt::datalog::{semi_naive_eval_threads, DlAtom, Program, Rule};
use kbt::engine::IncrementalSession;
use kbt::logic::builder::*;
use kbt::logic::Sentence;
use proptest::prelude::*;
use rand::prelude::*;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// Relations: R1 binary EDB, R2 unary EDB; R11 binary IDB, R12 unary IDB;
/// R21 unary IDB, derived from R12 and the EDB.
const EDB_BIN: u32 = 1;
const EDB_UN: u32 = 2;
const IDB_BIN: u32 = 11;
const IDB_UN: u32 = 12;
const TOP_UN: u32 = 21;

fn arity_of(rel: u32) -> usize {
    match rel {
        EDB_BIN | IDB_BIN => 2,
        _ => 1,
    }
}

/// A random safe positive rule with the given head relation.
fn random_rule(head_rel: u32, body_pool: &[u32], rng: &mut impl Rng) -> Rule {
    let num_atoms = rng.random_range(1..4usize);
    let mut body: Vec<DlAtom> = Vec::new();
    for _ in 0..num_atoms {
        let rel = *body_pool.choose(rng).expect("non-empty pool");
        let terms: Vec<_> = (0..arity_of(rel))
            .map(|_| var(rng.random_range(1..4u32)))
            .collect();
        body.push(DlAtom::new(r(rel), terms));
    }
    let body_vars: Vec<u32> = body
        .iter()
        .flat_map(DlAtom::variables)
        .map(|v| v.index())
        .collect();
    let head_terms: Vec<_> = (0..arity_of(head_rel))
        .map(|_| var(*body_vars.choose(rng).expect("positive body")))
        .collect();
    Rule::new(DlAtom::new(r(head_rel), head_terms), body)
}

fn random_stratified_program(rng: &mut impl Rng) -> Program {
    let mut rules = Vec::new();
    for _ in 0..rng.random_range(2..5usize) {
        let head = *[IDB_BIN, IDB_UN].choose(rng).expect("non-empty");
        rules.push(random_rule(head, &[EDB_BIN, EDB_UN, IDB_BIN, IDB_UN], rng));
    }
    for _ in 0..rng.random_range(1..3usize) {
        rules.push(random_rule(TOP_UN, &[EDB_UN, IDB_UN, EDB_BIN], rng));
    }
    Program::new(rules).expect("generated rules are safe")
}

fn random_edb(rng: &mut impl Rng) -> Database {
    let mut b = DatabaseBuilder::new()
        .relation(r(EDB_BIN), 2)
        .relation(r(EDB_UN), 1);
    for _ in 0..rng.random_range(0..14usize) {
        b = b.fact(
            r(EDB_BIN),
            [rng.random_range(1..6u32), rng.random_range(1..6u32)],
        );
    }
    for _ in 0..rng.random_range(0..5usize) {
        b = b.fact(r(EDB_UN), [rng.random_range(1..6u32)]);
    }
    b.build().unwrap()
}

/// A list of facts, as the incremental delta entry points accept them.
type FactList = Vec<(RelId, Tuple)>;

/// A random delta batch over the extensional relations, biased so deletions
/// frequently hit stored facts (DRed must get real work).
fn random_delta(edb: &Database, rng: &mut impl Rng) -> (FactList, FactList) {
    let mut insertions = Vec::new();
    let mut deletions = Vec::new();
    for _ in 0..rng.random_range(0..4usize) {
        insertions.push((
            r(EDB_BIN),
            kbt::data::tuple![rng.random_range(1..6u32), rng.random_range(1..6u32)],
        ));
    }
    if rng.random_bool(0.5) {
        insertions.push((r(EDB_UN), kbt::data::tuple![rng.random_range(1..6u32)]));
    }
    let stored: Vec<(RelId, Tuple)> = edb.facts().map(|(rel, t)| (rel, t.clone())).collect();
    for _ in 0..rng.random_range(0..3usize) {
        if let Some((rel, t)) = stored.choose(rng) {
            deletions.push((*rel, t.clone()));
        }
    }
    (insertions, deletions)
}

fn apply_to_edb(edb: &mut Database, ins: &[(RelId, Tuple)], del: &[(RelId, Tuple)]) {
    for (rel, t) in del {
        edb.remove_fact(*rel, t);
    }
    for (rel, t) in ins {
        edb.insert_fact(*rel, t.clone()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn widths_one_and_four_are_observationally_identical(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_stratified_program(&mut rng);
        let mut edb = random_edb(&mut rng);

        // one-shot: byte-identical fixpoints, identical statistics
        let (seq, seq_stats) = semi_naive_eval_threads(&program, &edb, 1).unwrap();
        let (par, par_stats) = semi_naive_eval_threads(&program, &edb, 4).unwrap();
        prop_assert!(seq == par, "one-shot fixpoints diverge (seed {seed})");
        prop_assert_eq!(seq_stats.derived_facts, par_stats.derived_facts);
        prop_assert_eq!(seq_stats, par_stats);

        // incremental: both widths track each other and the oracle across
        // random insert/delete batches
        let mut inc_seq = IncrementalSession::with_threads(&program, &edb, 1).unwrap();
        let mut inc_par = IncrementalSession::with_threads(&program, &edb, 4).unwrap();
        for step in 0..4 {
            let (ins, del) = random_delta(&edb, &mut rng);
            let s = inc_seq.apply_delta(&ins, &del).unwrap();
            let p = inc_par.apply_delta(&ins, &del).unwrap();
            prop_assert_eq!(s.derived_facts, p.derived_facts);
            prop_assert!(s == p, "per-delta stats diverge at step {}", step);
            apply_to_edb(&mut edb, &ins, &del);
            let current = inc_seq.current();
            prop_assert!(current == inc_par.current(), "sessions diverge at step {}", step);
            let (oracle, _) = semi_naive_eval_threads(&program, &edb, 1).unwrap();
            prop_assert!(current == oracle, "sessions diverge from the oracle at step {}", step);
        }
    }
}

// ---------------------------------------------------------------------------
// Above-threshold workload: the parallel rounds must actually fan out.
// ---------------------------------------------------------------------------

/// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
fn tc_datalog() -> Program {
    let edge = |a, b| DlAtom::new(r(1), vec![a, b]);
    let path = |a, b| DlAtom::new(r(9), vec![a, b]);
    Program::new(vec![
        Rule::new(path(var(1), var(2)), vec![edge(var(1), var(2))]),
        Rule::new(
            path(var(1), var(3)),
            vec![path(var(1), var(2)), edge(var(2), var(3))],
        ),
    ])
    .unwrap()
}

fn braid(chains: u32) -> Database {
    let mut b = DatabaseBuilder::new().relation(r(1), 2);
    for c in 0..chains {
        let base = c * 11 + 1;
        for i in 0..10 {
            b = b.fact(r(1), [base + i, base + i + 1]);
        }
    }
    b.build().unwrap()
}

#[test]
fn large_fixpoints_fan_out_identically() {
    let program = tc_datalog();
    let edb = braid(120); // 1 200 edges: every delta round clears the cutoff
    let (seq, seq_stats) = semi_naive_eval_threads(&program, &edb, 1).unwrap();
    for threads in [2, 4] {
        let (par, par_stats) = semi_naive_eval_threads(&program, &edb, threads).unwrap();
        assert_eq!(seq, par, "fixpoint diverges at width {threads}");
        assert_eq!(seq_stats, par_stats, "stats diverge at width {threads}");
    }
    assert_eq!(seq_stats.derived_facts, 120 * 55);
}

#[test]
fn large_incremental_deltas_fan_out_identically() {
    let program = tc_datalog();
    let edb = braid(120);
    let mut seq = IncrementalSession::with_threads(&program, &edb, 1).unwrap();
    let mut par = IncrementalSession::with_threads(&program, &edb, 4).unwrap();
    // link the first ten chains end-to-start (a ~110-edge merged chain, so
    // the insertion cascade and the later DRed overdeletion both clear the
    // engine's fan-out cutoff without the closure exploding quadratically)
    let link: Vec<(RelId, Tuple)> = (0..10u32)
        .map(|c| (r(1), kbt::data::tuple![c * 11 + 11, c * 11 + 12]))
        .collect();
    let s = seq.insert_facts(&link).unwrap();
    let p = par.insert_facts(&link).unwrap();
    assert_eq!(s, p);
    assert_eq!(seq.current(), par.current());

    let s = seq.remove_facts(&link).unwrap();
    let p = par.remove_facts(&link).unwrap();
    assert_eq!(s, p);
    assert!(s.rederived_facts > 0 || s.reused_facts > 0);
    assert_eq!(seq.current(), par.current());
    assert_eq!(seq.stats(), par.stats());
}

// ---------------------------------------------------------------------------
// Transformation level: EvalOptions::threads through the full chain.
// ---------------------------------------------------------------------------

fn tc_sentence() -> Sentence {
    Sentence::new(and(
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
    .unwrap()
}

#[test]
fn transformer_chains_are_width_independent() {
    let mut expr = Transform::Identity;
    for i in 0..20u32 {
        let grow = Sentence::new(atom(1, [cst(1_000_000 + i), cst(1_000_001 + i)])).unwrap();
        expr = expr
            .then(Transform::insert(grow))
            .then(Transform::insert(tc_sentence()))
            .then(Transform::project([r(1)]));
    }
    let kb = Knowledgebase::singleton(braid(60));

    let seq = Transformer::with_options(EvalOptions::with_threads(1))
        .apply_with_chain(&expr, &kb, &mut None)
        .unwrap();
    let par = Transformer::with_options(EvalOptions::with_threads(4))
        .apply_with_chain(&expr, &kb, &mut None)
        .unwrap();
    assert_eq!(seq.kb, par.kb, "knowledgebases diverge across widths");
    assert_eq!(seq.stats, par.stats, "statistics diverge across widths");
    assert!(
        seq.stats.reused_facts > 0,
        "the chain must run incrementally"
    );
}
