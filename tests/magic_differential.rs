//! Differential tests for goal-directed evaluation: the magic-set rewrite
//! must be *observationally identical* to the materializing oracle.
//!
//! Three layers:
//!
//! 1. **Vendored-proptest property**: randomized stratified positive
//!    programs over randomized extensional databases × random binding
//!    patterns on a random intensional goal.  The rewritten program — seed
//!    facts inserted, fixpoint run, answer predicate read, bound columns
//!    filtered — must be byte-identical to the full fixpoint filtered the
//!    same way, at widths 1 **and** 4 (and the two widths identical to
//!    each other, so goal-directed evaluation preserves the engine's
//!    width-independence contract).
//! 2. **Negation refusal**: programs whose top stratum negates a derived
//!    predicate make the rewrite refuse with the *typed*
//!    [`DatalogError::GoalDirected`] error — never a wrong answer — while
//!    the materializing oracle still answers the goal.  (The service never
//!    meets one: its rulebase is positive Horn, and a refusal there would
//!    be a typed `ERR`.)  Negation confined below the goal's reachable
//!    slice must *not* trigger the refusal.
//! 3. **Subsumptive-table layer**: a memoized less-bound call re-filtered
//!    for a more-bound pattern must equal evaluating the more-bound goal
//!    directly.
//! 4. **Goal-directedness, by counts**: a point goal over a thousand
//!    disjoint chains derives one chain's answers and scans about as many
//!    tuples, where materialization derives all 55 000 — work counters,
//!    so the gap is the same on any machine.  A goal bound in its *second*
//!    argument stays a slice too (bound-first binding propagation), and so
//!    does a hypothetical `tau[…]; project[hits]` read through the
//!    transformer (the projection push-down).

use kbt::core::{Transform, Transformer};
use kbt::data::{Const, Database, DatabaseBuilder, Knowledgebase, RelId, Relation, Tuple};
use kbt::datalog::{
    magic_rewrite, semi_naive_eval_threads, DatalogError, DlAtom, Literal, Program, Rule,
};
use kbt::engine::table::{filter_rows, SubsumptiveTable};
use kbt::logic::builder::{and, atom, cst, forall, implies, var};
use kbt::logic::{Sentence, Term};
use proptest::prelude::*;
use rand::prelude::*;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// Relations: R1 binary EDB, R2 unary EDB; R11 binary IDB, R12 unary IDB
/// (stratum 0); R21 unary IDB (top stratum, negating in the fallback test).
const EDB_BIN: u32 = 1;
const EDB_UN: u32 = 2;
const IDB_BIN: u32 = 11;
const IDB_UN: u32 = 12;
const TOP_UN: u32 = 21;

/// First relation index free for the rewrite's invented predicates.
const FIRST_FREE: u32 = 100;

fn arity_of(rel: u32) -> usize {
    match rel {
        EDB_BIN | IDB_BIN => 2,
        _ => 1,
    }
}

/// A random safe positive rule with the given head relation.
fn random_rule(head_rel: u32, body_pool: &[u32], rng: &mut impl Rng) -> Rule {
    let num_atoms = rng.random_range(1..4usize);
    let mut body: Vec<Literal> = Vec::new();
    for _ in 0..num_atoms {
        let rel = *body_pool.choose(rng).expect("non-empty pool");
        let terms: Vec<_> = (0..arity_of(rel))
            .map(|_| var(rng.random_range(1..4u32)))
            .collect();
        body.push(Literal::positive(DlAtom::new(r(rel), terms)));
    }
    let body_vars: Vec<u32> = body
        .iter()
        .flat_map(|l| l.atom.variables())
        .map(|v| v.index())
        .collect();
    let head_terms: Vec<_> = (0..arity_of(head_rel))
        .map(|_| var(*body_vars.choose(rng).expect("positive body")))
        .collect();
    Rule::new(DlAtom::new(r(head_rel), head_terms), body)
}

/// A random stratified *positive* program over the fixed schema, with the
/// top predicate derived from the lower strata (so every goal relation has
/// rules to rewrite).
fn random_positive_program(rng: &mut impl Rng) -> Program {
    let mut rules = Vec::new();
    for _ in 0..rng.random_range(2..5usize) {
        let head = *[IDB_BIN, IDB_UN].choose(rng).expect("non-empty");
        rules.push(random_rule(head, &[EDB_BIN, EDB_UN, IDB_BIN, IDB_UN], rng));
    }
    for _ in 0..rng.random_range(1..3usize) {
        rules.push(random_rule(TOP_UN, &[EDB_UN, IDB_UN, EDB_BIN], rng));
    }
    Program::new(rules).expect("generated rules are safe and stratified")
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

/// A random binding pattern over `arity` positions: each position is
/// independently a constant (bound) or a fresh variable (free).  Returns
/// the goal terms plus the `(position, constant)` pairs for filtering.
fn random_pattern(arity: usize, rng: &mut impl Rng) -> (Vec<Term>, Vec<(usize, Const)>) {
    let mut terms = Vec::with_capacity(arity);
    let mut bound = Vec::new();
    for i in 0..arity {
        if rng.random_bool(0.5) {
            let c = rng.random_range(1..6u32);
            terms.push(cst(c));
            bound.push((i, Const::new(c)));
        } else {
            // distinct variables: repeated-variable equality is a
            // service-level residual filter, not part of the rewrite
            terms.push(var(50 + i as u32));
        }
    }
    (terms, bound)
}

/// The materializing oracle: full fixpoint, goal relation, bound filter.
fn oracle(
    program: &Program,
    edb: &Database,
    rel: RelId,
    arity: usize,
    bound: &[(usize, Const)],
) -> Relation {
    let (db, _) = semi_naive_eval_threads(program, edb, 1).unwrap();
    match db.relation(rel) {
        Some(r) => filter_rows(r, bound),
        None => Relation::empty(arity),
    }
}

/// Goal-directed evaluation at one width: rewrite, seed, fixpoint, read the
/// answer predicate, filter the goal's own bound columns (the answer
/// predicate also carries tuples demanded by recursive sub-calls).
fn goal_directed(
    program: &Program,
    edb: &Database,
    rel: RelId,
    terms: &[Term],
    bound: &[(usize, Const)],
    threads: usize,
) -> Result<Relation, DatalogError> {
    let plan = magic_rewrite(program, rel, terms, FIRST_FREE)?;
    let mut seeded = edb.clone();
    for (seed_rel, consts) in &plan.seeds {
        seeded
            .insert_fact(*seed_rel, Tuple::new(consts.clone()))
            .unwrap();
    }
    let (db, _) = semi_naive_eval_threads(&plan.program, &seeded, threads)?;
    Ok(match db.relation(plan.answer) {
        Some(r) => filter_rows(r, bound),
        None => Relation::empty(terms.len()),
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn magic_rewrite_matches_the_materializing_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_positive_program(&mut rng);
        let edb = random_edb(&mut rng);
        let goal = *[IDB_BIN, IDB_UN, TOP_UN].choose(&mut rng).expect("non-empty");
        let (terms, bound) = random_pattern(arity_of(goal), &mut rng);

        let expect = oracle(&program, &edb, r(goal), arity_of(goal), &bound);
        let seq = goal_directed(&program, &edb, r(goal), &terms, &bound, 1)
            .expect("positive programs always rewrite");
        let par = goal_directed(&program, &edb, r(goal), &terms, &bound, 4)
            .expect("positive programs always rewrite");
        prop_assert!(seq == expect, "goal-directed diverges from the oracle (seed {seed})");
        prop_assert!(par == expect, "goal-directed diverges at width 4 (seed {seed})");
    }

    #[test]
    fn negated_goals_refuse_with_a_typed_error_and_fall_back(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // lower strata as before, but the top predicate negates a derived
        // predicate — binding the goal would have to push demand through
        // the negation, which the rewrite refuses rather than risks
        let mut rules = Vec::new();
        // at least one rule derives IDB_UN, so negating it is genuinely a
        // negated *intensional* subgoal (the refusal condition)
        rules.push(random_rule(IDB_UN, &[EDB_BIN, EDB_UN], &mut rng));
        for _ in 0..rng.random_range(2..5usize) {
            let head = *[IDB_BIN, IDB_UN].choose(&mut rng).expect("non-empty");
            rules.push(random_rule(head, &[EDB_BIN, EDB_UN, IDB_BIN, IDB_UN], &mut rng));
        }
        let mut top = random_rule(TOP_UN, &[EDB_UN, EDB_BIN], &mut rng);
        let guard = *top.body[0]
            .atom
            .variables()
            .iter()
            .next()
            .expect("at least one variable");
        top.body.push(Literal::negative(DlAtom::new(
            r(IDB_UN),
            vec![Term::Var(guard)],
        )));
        rules.push(top);
        let program = Program::new(rules).expect("stratified");
        let edb = random_edb(&mut rng);

        // bound goal on the negating stratum: typed refusal, never a wrong answer
        let terms = vec![cst(rng.random_range(1..6u32))];
        let bound = vec![(0usize, terms[0].as_const().unwrap())];
        let err = goal_directed(&program, &edb, r(TOP_UN), &terms, &bound, 1)
            .expect_err("demand through negation must refuse");
        prop_assert!(
            matches!(err, DatalogError::GoalDirected { .. }),
            "refusal must be the typed GoalDirected error, got {err:?}"
        );

        // ... and the materializing oracle still answers the goal;
        // sanity-check it against a by-hand filter
        let full = oracle(&program, &edb, r(TOP_UN), 1, &[]);
        let fallback = oracle(&program, &edb, r(TOP_UN), 1, &bound);
        for row in fallback.iter() {
            prop_assert!(full.contains_row(row));
            prop_assert_eq!(row[0], bound[0].1);
        }

        // a goal *below* the negation never sees it: the reachable slice
        // excludes the top stratum, so the rewrite still succeeds
        let (low_terms, low_bound) = random_pattern(arity_of(IDB_UN), &mut rng);
        let got = goal_directed(&program, &edb, r(IDB_UN), &low_terms, &low_bound, 4)
            .expect("negation above the goal is out of the reachable slice");
        prop_assert!(got == oracle(&program, &edb, r(IDB_UN), 1, &low_bound));
    }

    #[test]
    fn subsumed_table_answers_equal_direct_evaluation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = random_positive_program(&mut rng);
        let edb = random_edb(&mut rng);
        let goal = *[IDB_BIN, TOP_UN].choose(&mut rng).expect("non-empty");
        let arity = arity_of(goal);

        // memoize a *less*-bound call (drop one bound column at random)...
        let (terms, bound) = random_pattern(arity, &mut rng);
        let mut wide_terms = terms.clone();
        let mut wide_bound = bound.clone();
        if !wide_bound.is_empty() {
            let drop = rng.random_range(0..wide_bound.len());
            let (pos, _) = wide_bound.remove(drop);
            wide_terms[pos] = var(90);
        }
        let wide = goal_directed(&program, &edb, r(goal), &wide_terms, &wide_bound, 1)
            .expect("positive programs always rewrite");
        let mut table = SubsumptiveTable::new();
        table.insert(0, goal, &wide_bound, wide);

        // ... then the more-bound goal must be answered by subsumption,
        // byte-identical to evaluating it directly
        let direct = goal_directed(&program, &edb, r(goal), &terms, &bound, 1).unwrap();
        let via_table = table
            .lookup(0, goal, &bound)
            .expect("a less-bound memoized call subsumes");
        prop_assert!(via_table == direct, "subsumed answer diverges (seed {seed})");
    }
}

/// path(x, y) :- edge(x, y).  path(x, z) :- path(x, y), edge(y, z).
fn tc_program() -> Program {
    let edge = |a, b| DlAtom::new(r(EDB_BIN), vec![a, b]);
    let path = |a, b| DlAtom::new(r(IDB_BIN), vec![a, b]);
    Program::new(vec![
        Rule::new(
            path(var(1), var(2)),
            vec![Literal::positive(edge(var(1), var(2)))],
        ),
        Rule::new(
            path(var(1), var(3)),
            vec![
                Literal::positive(path(var(1), var(2))),
                Literal::positive(edge(var(2), var(3))),
            ],
        ),
    ])
    .unwrap()
}

/// `chains` disjoint chains of 10 edges each; the first starts at 1.
fn braid(chains: u32) -> Database {
    let mut b = DatabaseBuilder::new().relation(r(EDB_BIN), 2);
    for c in 0..chains {
        let base = c * 11 + 1;
        for i in 0..10 {
            b = b.fact(r(EDB_BIN), [base + i, base + i + 1]);
        }
    }
    b.build().unwrap()
}

#[test]
fn a_point_goal_scans_its_answers_not_the_closure() {
    // 10 000 edges; the goal path(1, x) reaches one chain: 10 answers out
    // of 55 000 closure facts
    let program = tc_program();
    let edb = braid(1_000);
    let path = r(IDB_BIN);
    let terms = [cst(1), var(50)];
    let bound = [(0usize, Const::new(1))];
    let plan = magic_rewrite(&program, path, &terms, FIRST_FREE).unwrap();
    let mut seeded = edb.clone();
    for (seed_rel, consts) in &plan.seeds {
        seeded
            .insert_fact(*seed_rel, Tuple::new(consts.clone()))
            .unwrap();
    }
    for threads in [1, 2] {
        let (full, materialize) = semi_naive_eval_threads(&program, &edb, threads).unwrap();
        let (db, magic) = semi_naive_eval_threads(&plan.program, &seeded, threads).unwrap();
        let expect = filter_rows(full.relation(path).unwrap(), &bound);
        let answers = filter_rows(db.relation(plan.answer).unwrap(), &bound);
        assert_eq!(answers, expect, "width {threads}");
        assert_eq!(answers.len(), 10, "width {threads}");
        assert_eq!(materialize.derived_facts, 55_000, "width {threads}");
        assert_eq!(
            magic.derived_facts, 10,
            "width {threads}: magic must derive exactly the answers ({magic:?})"
        );
        assert!(
            magic.tuples_scanned <= 2 * (answers.len() + 1),
            "width {threads}: magic scanned {} tuples for {} answers \
             (materialize: {}) — the rewrite stopped being goal-directed",
            magic.tuples_scanned,
            answers.len(),
            materialize.tuples_scanned
        );
    }
}

/// The closure facts of one braid chain: 10 edges, 55 pairs.
const CHAIN_CLOSURE: usize = 55;

#[test]
fn a_second_argument_goal_derives_one_chain_not_the_closure() {
    // path(x, 11) asks who reaches the end of the first chain: bound-first
    // propagation calls path(x, y) under the recursive rule as path^fb
    // (edge(y, 11) binds y first), so only that chain's closure and its
    // demand are derived — textual order would call path^ff, all 55 000
    let program = tc_program();
    let edb = braid(1_000);
    let path = r(IDB_BIN);
    let terms = [var(50), cst(11)];
    let bound = [(1usize, Const::new(11))];
    let plan = magic_rewrite(&program, path, &terms, FIRST_FREE).unwrap();
    let mut seeded = edb.clone();
    for (seed_rel, consts) in &plan.seeds {
        seeded
            .insert_fact(*seed_rel, Tuple::new(consts.clone()))
            .unwrap();
    }
    for threads in [1, 2] {
        let (db, magic) = semi_naive_eval_threads(&plan.program, &seeded, threads).unwrap();
        let answers = filter_rows(db.relation(plan.answer).unwrap(), &bound);
        assert_eq!(
            answers,
            oracle(&program, &edb, path, 2, &bound),
            "width {threads}"
        );
        assert_eq!(answers.len(), 10, "width {threads}");
        assert!(
            magic.derived_facts <= 2 * CHAIN_CLOSURE,
            "width {threads}: derived {} facts for one chain ({magic:?})",
            magic.derived_facts
        );
    }
}

#[test]
fn a_hypothetical_point_read_derives_one_chain_not_the_closure() {
    // tau[non-linear TC & (forall x. path(x, 11) -> hits(x))]; project[hits]
    // through the transformer: the projection keeps only `hits`, so the
    // insertion is rewritten around it and `path` is called path^fb
    let (edge, path, hits) = (EDB_BIN, IDB_BIN, IDB_UN);
    let phi = Sentence::new(and(
        and(
            forall(
                [1, 2],
                implies(atom(edge, [var(1), var(2)]), atom(path, [var(1), var(2)])),
            ),
            forall(
                [1, 2, 3],
                implies(
                    and(atom(path, [var(1), var(2)]), atom(path, [var(2), var(3)])),
                    atom(path, [var(1), var(3)]),
                ),
            ),
        ),
        forall(
            [1],
            implies(atom(path, [var(1), cst(11)]), atom(hits, [var(1)])),
        ),
    ))
    .unwrap();
    let expr = Transform::insert(phi.clone()).then(Transform::project([r(hits)]));
    let result = Transformer::new()
        .apply(&expr, &Knowledgebase::singleton(braid(1_000)))
        .unwrap();
    // the yardstick: one chain's closure materialised in full (the `lub`
    // keeps the projection from being pushed down)
    let full = Transform::insert(phi)
        .then(Transform::Lub)
        .then(Transform::project([r(hits)]));
    let one_chain = Transformer::new()
        .apply(&full, &Knowledgebase::singleton(braid(1)))
        .unwrap();
    let want: Vec<Tuple> = (1..11u32)
        .map(|x| Tuple::new(vec![Const::new(x)]))
        .collect();
    let world = result.kb.as_singleton().unwrap();
    assert_eq!(
        world
            .relation(r(hits))
            .unwrap()
            .tuples()
            .collect::<Vec<_>>(),
        want
    );
    assert!(world.relation(r(path)).is_none());
    assert!(
        result.stats.tuples_scanned <= 2 * one_chain.stats.tuples_scanned,
        "scanned {} tuples over a thousand chains, {} to close one in full",
        result.stats.tuples_scanned,
        one_chain.stats.tuples_scanned
    );
}
