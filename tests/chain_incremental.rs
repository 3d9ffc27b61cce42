//! Differential tests for incremental `τ_φ`-chain evaluation.
//!
//! Three layers:
//!
//! 1. **Transformation-level property** (vendored proptest): randomized
//!    `Seq` expressions mixing `τ_φ` (Horn fast-path sentences, ground
//!    insertions, ground *deletions*, world-splitting disjunctions) with
//!    `⊓` / `⊔` / `π` over random databases, a zero-arity flag toggled on
//!    and off, and a relation that comes back at another arity — walked
//!    through a fresh caller-owned chain slot, must evaluate, at every
//!    prefix, to the knowledgebase of the step-by-step fold, which applies
//!    each step on its own and so can neither chain nor push down.
//! 2. **Engine-level differential**: `IncrementalEval` under random
//!    insert/delete batches — including delete-heavy ones that exercise the
//!    DRed overdelete/rederive path — must match from-scratch
//!    `semi_naive_eval` after every batch.  A program with negation is
//!    refused when the session is built.
//! 3. **Chain shape**: a long `(π ∘ τ_φ ∘ τ_fact)*` chain must produce the
//!    fold's knowledgebase while reusing most of the engine's facts.

use kbt::core::{EvalStats, Transform, TransformResult, Transformer};
use kbt::data::{DatabaseBuilder, Knowledgebase, RelId, Tuple};
use kbt::datalog::{semi_naive_eval, DatalogError, IncrementalEval};
use kbt::logic::builder::*;
use kbt::logic::Sentence;
use proptest::prelude::*;
use rand::prelude::*;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// The step-by-step oracle: each of `expr`'s steps through its own
/// [`Transformer::apply`], which can neither chain nor push down.
fn fold(expr: &Transform, kb: &Knowledgebase) -> kbt::core::Result<TransformResult> {
    let mut folded = TransformResult {
        kb: kb.clone(),
        stats: EvalStats::default(),
    };
    for step in expr.steps() {
        let result = Transformer::new().apply(step, &folded.kb)?;
        folded.kb = result.kb;
        folded.stats.absorb(&result.stats);
    }
    Ok(folded)
}

/// The Horn fast-path sentence: R2 := transitive closure of R1.
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

/// [`tc_sentence`] plus R5 := R2 while the zero-arity flag R4 is set, so
/// what the flag does to a chained step shows in its output.
fn gated_tc_sentence() -> Sentence {
    let gate = forall(
        [1, 2],
        implies(
            and(atom(4, []), atom(2, [var(1), var(2)])),
            atom(5, [var(1), var(2)]),
        ),
    );
    Sentence::new(and(tc_sentence().formula().clone(), gate)).unwrap()
}

/// One random chain element; `a`, `b` are drawn from the constant domain.
fn chain_element(code: u8, a: u32, b: u32) -> Vec<Transform> {
    match code % 12 {
        // τ_TC then π: compute the closure, use it, drop it — keeps the
        // next τ_TC on the Horn fast path.
        0 => vec![
            Transform::insert(gated_tc_sentence()),
            Transform::project([r(1), r(3), r(4)]),
        ],
        1 => vec![
            Transform::insert(gated_tc_sentence()),
            Transform::Lub,
            Transform::project([r(1), r(3), r(4)]),
        ],
        // ground edge insertion / deletion (deletions feed the DRed path of
        // the next incremental τ_TC step)
        2 => vec![Transform::insert(
            Sentence::new(atom(1, [cst(a), cst(b)])).unwrap(),
        )],
        3 => vec![Transform::insert(
            Sentence::new(not(atom(1, [cst(a), cst(b)]))).unwrap(),
        )],
        // a world-splitting disjunction over the unary relation R3: the
        // knowledgebase stops being a singleton, so chain reuse must
        // correctly disengage and re-engage.
        4 => vec![Transform::insert(
            Sentence::new(or(atom(3, [cst(a)]), atom(3, [cst(b)]))).unwrap(),
        )],
        5 => vec![Transform::Glb],
        6 => vec![Transform::Lub],
        7 => vec![Transform::project([r(1), r(3), r(4)])],
        // ground node deletion
        8 => vec![Transform::insert(
            Sentence::new(not(atom(3, [cst(a)]))).unwrap(),
        )],
        // the zero-arity flag R4 switched on and off
        9 => vec![Transform::insert(Sentence::new(atom(4, [])).unwrap())],
        10 => vec![Transform::insert(Sentence::new(not(atom(4, []))).unwrap())],
        // R3 (and R4) dropped, then R3 back as a *binary* relation: the
        // next chained τ_TC sees it at another arity
        _ => vec![
            Transform::project([r(1)]),
            Transform::insert(Sentence::new(atom(3, [cst(a), cst(b)])).unwrap()),
        ],
    }
}

fn arb_expression() -> impl proptest::strategy::Strategy<Value = Transform> {
    proptest::collection::vec((0u8..12, 1u32..6, 1u32..6), 1..10).prop_map(|codes| {
        let mut expr = Transform::Identity;
        for (code, a, b) in codes {
            for part in chain_element(code, a, b) {
                expr = expr.then(part);
            }
        }
        expr
    })
}

fn arb_knowledgebase() -> impl proptest::strategy::Strategy<Value = Knowledgebase> {
    (
        proptest::collection::btree_set((1u32..6, 1u32..6), 0..7),
        proptest::collection::btree_set(1u32..6, 0..3),
    )
        .prop_map(|(edges, nodes)| {
            let mut b = DatabaseBuilder::new().relation(r(1), 2).relation(r(3), 1);
            for (x, y) in edges {
                b = b.fact(r(1), [x, y]);
            }
            for n in nodes {
                b = b.fact(r(3), [n]);
            }
            Knowledgebase::singleton(b.build().unwrap())
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn incremental_chains_are_byte_identical_to_from_scratch(
        expr in arb_expression(),
        kb in arb_knowledgebase(),
    ) {
        let divergence = first_divergence(&expr, &kb);
        prop_assert!(divergence.is_none(), "{}", divergence.unwrap_or_default());
    }
}

/// Every prefix of `expr` through [`Transformer::apply_with_chain`] with a
/// fresh slot, which chains, against the fold: the first prefix on which the two disagree — in the
/// knowledgebase, in the counts they share, or in whether they fail.
/// Prefixes, because a chained step's output is usually projected away by
/// the step after it.
fn first_divergence(expr: &Transform, kb: &Knowledgebase) -> Option<String> {
    let mut prefix = Transform::Identity;
    for step in expr.steps() {
        prefix = prefix.then(step.clone());
        let chained = Transformer::new().apply_with_chain(&prefix, kb, &mut None);
        match (chained, fold(&prefix, kb)) {
            (Ok(chained), Ok(folded)) => {
                let counts = |s: &EvalStats| (s.updates, s.operators, s.minimal_models);
                if chained.kb != folded.kb || counts(&chained.stats) != counts(&folded.stats) {
                    return Some(format!("{prefix}: {chained:?} != {folded:?}"));
                }
            }
            (Err(_), Err(_)) => return None,
            (chained, folded) => {
                return Some(format!(
                    "only one path failed for {prefix}: chained={chained:?} fold={folded:?}"
                ));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Engine-level: IncrementalEval vs from-scratch semi-naive under random
// insert/delete batches.
// ---------------------------------------------------------------------------

fn tc_program() -> kbt::datalog::Program {
    kbt::datalog::program_from_sentence(&tc_sentence()).unwrap()
}

/// reach = TC(edge); unreach(x,y) :- node(x), node(y), ~reach(x,y).
fn negation_program() -> kbt::datalog::Program {
    use kbt::datalog::{DlAtom, Literal, Program, Rule};
    let edge = |a, b| DlAtom::new(r(1), vec![a, b]);
    let reach = |a, b| DlAtom::new(r(2), vec![a, b]);
    let node = |a| DlAtom::new(r(3), vec![a]);
    let unreach = |a, b| DlAtom::new(r(4), vec![a, b]);
    Program::new(vec![
        Rule::new(
            reach(var(1), var(2)),
            vec![Literal::positive(edge(var(1), var(2)))],
        ),
        Rule::new(
            reach(var(1), var(3)),
            vec![
                Literal::positive(reach(var(1), var(2))),
                Literal::positive(edge(var(2), var(3))),
            ],
        ),
        Rule::new(
            unreach(var(1), var(2)),
            vec![
                Literal::positive(node(var(1))),
                Literal::positive(node(var(2))),
                Literal::negative(reach(var(1), var(2))),
            ],
        ),
    ])
    .unwrap()
}

/// A random edge over the nodes `1..=nodes`.
fn random_edge(nodes: u32, rng: &mut impl Rng) -> (u32, u32) {
    (
        rng.random_range(1..nodes + 1),
        rng.random_range(1..nodes + 1),
    )
}

/// `batches` random delta batches over the edge relation of a graph on
/// `nodes` nodes; `delete_bias` skews towards deletions of currently stored
/// edges so DRed gets real work.
fn run_random_deltas(
    program: &kbt::datalog::Program,
    delete_bias: bool,
    (nodes, batches): (u32, usize),
    rng: &mut impl Rng,
) -> (usize, usize) {
    let mut b = DatabaseBuilder::new().relation(r(1), 2);
    for _ in 0..rng.random_range(3..nodes as usize + 4) {
        let (x, y) = random_edge(nodes, rng);
        b = b.fact(r(1), [x, y]);
    }
    let mut edb = b.build().unwrap();

    let mut inc = IncrementalEval::new(program, &edb).unwrap();
    let (mut reused, mut rederived) = (0usize, 0usize);
    for _ in 0..batches {
        let mut ins: Vec<(RelId, Tuple)> = Vec::new();
        let mut del: Vec<(RelId, Tuple)> = Vec::new();
        let stored: Vec<Tuple> = edb.relation(r(1)).unwrap().tuples().collect();
        for _ in 0..rng.random_range(1..4usize) {
            let delete = !stored.is_empty() && (delete_bias || rng.random_range(0..2u32) == 0);
            if delete {
                let t = stored[rng.random_range(0..stored.len())].clone();
                del.push((r(1), t));
            } else {
                let (x, y) = random_edge(nodes, rng);
                ins.push((r(1), kbt::data::tuple![x, y]));
            }
        }
        for (rel, t) in &del {
            edb.remove_fact(*rel, t);
        }
        for (rel, t) in &ins {
            edb.insert_fact(*rel, t.clone()).unwrap();
        }
        let stats = inc.apply_delta(&ins, &del).unwrap();
        reused += stats.reused_facts;
        rederived += stats.rederived_facts;

        let (want, _) = semi_naive_eval(program, &edb).unwrap();
        assert_eq!(
            inc.current(),
            want,
            "incremental diverges after ins={ins:?} del={del:?}"
        );
    }
    (reused, rederived)
}

#[test]
fn engine_incremental_matches_from_scratch_on_random_positive_deltas() {
    let mut rng = StdRng::seed_from_u64(0x17C1);
    let program = tc_program();
    let mut total_reused = 0;
    for _ in 0..20 {
        let (reused, _) = run_random_deltas(&program, false, (6, 6), &mut rng);
        total_reused += reused;
    }
    assert!(total_reused > 0, "chains must reuse facts");
}

#[test]
fn engine_incremental_survives_delete_heavy_workloads() {
    let mut rng = StdRng::seed_from_u64(0xD3ED);
    let program = tc_program();
    let mut total_rederived = 0;
    for _ in 0..20 {
        let (_, rederived) = run_random_deltas(&program, true, (6, 6), &mut rng);
        total_rederived += rederived;
    }
    assert!(
        total_rederived > 0,
        "delete-heavy graphs must hit the DRed rederivation path"
    );
}

/// The long variant of the two tests above: 400 batches in streams of a
/// hundred, half of them delete-heavy, over a 48-node graph, so a session
/// lives through many rounds of tombstones and compaction.  CI runs it in
/// a release build with `--include-ignored`.
#[test]
#[ignore]
fn engine_incremental_matches_from_scratch_on_long_random_delta_streams() {
    let mut rng = StdRng::seed_from_u64(0x4000);
    let program = tc_program();
    let (mut total_reused, mut total_rederived) = (0, 0);
    for delete_bias in [false, true] {
        for _ in 0..2 {
            let (reused, rederived) = run_random_deltas(&program, delete_bias, (48, 100), &mut rng);
            total_reused += reused;
            total_rederived += rederived;
        }
    }
    assert!(total_reused > 0 && total_rederived > 0);
}

#[test]
fn engine_incremental_handles_stratified_negation_deltas() {
    // a session maintains positive programs only: the negated stratum is
    // refused when the session is built, at every width
    let edb = DatabaseBuilder::new()
        .fact(r(1), [1u32, 2])
        .fact(r(3), [1u32])
        .fact(r(3), [2u32])
        .build()
        .unwrap();
    for threads in [1, 2] {
        let refused = IncrementalEval::with_threads(&negation_program(), &edb, threads);
        assert!(
            matches!(refused, Err(DatalogError::NegationInSession { ref rule }) if rule.contains('~')),
            "{refused:?}"
        );
    }
    // one-shot evaluation keeps stratified negation
    let (fixpoint, _) = semi_naive_eval(&negation_program(), &edb).unwrap();
    assert!(fixpoint.holds(r(4), &kbt::data::tuple![2, 1]));
    assert!(!fixpoint.holds(r(4), &kbt::data::tuple![1, 2]));
}

// ---------------------------------------------------------------------------
// Chain shape: long (π ∘ τ_TC ∘ τ_fact)* chains.
// ---------------------------------------------------------------------------

#[test]
fn long_chain_reuses_most_of_the_engine_state() {
    let mut b = DatabaseBuilder::new().relation(r(1), 2);
    for c in 0..40u32 {
        let base = c * 11 + 1;
        for i in 0..10 {
            b = b.fact(r(1), [base + i, base + i + 1]);
        }
    }
    let kb = Knowledgebase::singleton(b.build().unwrap());

    let mut expr = Transform::Identity;
    for i in 0..12u32 {
        let grow = Sentence::new(atom(1, [cst(1000 + i), cst(1001 + i)])).unwrap();
        expr = expr
            .then(Transform::insert(grow))
            .then(Transform::insert(tc_sentence()))
            .then(Transform::project([r(1)]));
    }

    let incremental = Transformer::new()
        .apply_with_chain(&expr, &kb, &mut None)
        .unwrap();
    let from_scratch = fold(&expr, &kb).unwrap();

    assert_eq!(incremental.kb, from_scratch.kb);
    assert!(incremental.stats.reused_facts > 0);
    assert!(
        incremental.stats.tuples_scanned * 4 < from_scratch.stats.tuples_scanned,
        "incremental ({}) must scan far fewer tuples than from-scratch ({})",
        incremental.stats.tuples_scanned,
        from_scratch.stats.tuples_scanned
    );
}

/// The projected-away relation must not leak back into later steps when the
/// chain session keeps it alive internally.
#[test]
fn chain_results_respect_projection_schemas() {
    let db = DatabaseBuilder::new()
        .fact(r(1), [1u32, 2])
        .fact(r(1), [2u32, 3])
        .build()
        .unwrap();
    let kb = Knowledgebase::singleton(db);
    let expr = Transform::insert(tc_sentence())
        .then(Transform::project([r(1)]))
        .then(Transform::insert(tc_sentence()))
        .then(Transform::project([r(2)]));
    let result = Transformer::new()
        .apply_with_chain(&expr, &kb, &mut None)
        .unwrap();
    let world = result.kb.as_singleton().unwrap();
    assert!(world.relation(r(1)).is_none());
    assert_eq!(world.relation(r(2)).unwrap().len(), 3);
}

/// A chain whose inputs toggle a zero-arity flag, drop it, and bring a
/// relation back at another arity: the chained `τ_TC` steps meet every arm
/// of the diff — the flag's insertion, deletion and disappearance, each
/// visible in R5, and an arity conflict, through the session's rebuild.
#[test]
fn chains_track_the_fold_through_flags_and_arity_changes() {
    let kb = Knowledgebase::singleton(
        DatabaseBuilder::new()
            .fact(r(1), [1u32, 2])
            .fact(r(1), [2u32, 3])
            .fact(r(3), [1u32])
            .build()
            .unwrap(),
    );
    let tc = || Transform::insert(gated_tc_sentence());
    let keep = |rels: &[u32]| Transform::project(rels.iter().map(|&i| r(i)).collect::<Vec<_>>());
    let ground = |f| Transform::insert(Sentence::new(f).unwrap());
    let expr = tc()
        .then(keep(&[1, 3, 4]))
        .then(ground(atom(4, [])))
        .then(tc())
        .then(keep(&[1, 3, 4]))
        .then(ground(not(atom(4, []))))
        .then(ground(atom(1, [cst(3), cst(4)])))
        .then(tc())
        .then(keep(&[1, 3, 4]))
        .then(ground(atom(4, [])))
        .then(tc())
        .then(keep(&[1, 3]))
        .then(tc())
        .then(keep(&[1]))
        .then(ground(atom(3, [cst(5), cst(6)])))
        .then(tc())
        .then(keep(&[1, 3]))
        .then(ground(atom(4, [])))
        .then(ground(atom(1, [cst(4), cst(5)])))
        .then(tc());
    assert_eq!(first_divergence(&expr, &kb), None);
    let chained = Transformer::new()
        .apply_with_chain(&expr, &kb, &mut None)
        .unwrap();
    assert!(chained.stats.reused_facts > 0, "{:?}", chained.stats);
    let world = chained.kb.as_singleton().unwrap();
    assert_eq!(world.relation(r(3)).unwrap().arity(), 2);
    assert_eq!(world.relation(r(2)).unwrap().len(), 10);
    assert_eq!(world.relation(r(5)).unwrap().len(), 10);
}
