//! Differential test for the projection push-down: a Datalog-fast-path
//! `tau[φ]` followed by `project[K]` derives only what `K` keeps (a
//! magic-set rewrite with every head of φ in `K` as an all-free goal, or the
//! plain reachable slice when a predicate is called both all-free and
//! bound), and must still answer exactly `project(µ(φ, db), K)`.
//!
//! Random safe Horn sentences with fresh heads — recursive, non-linear,
//! with constants in rule bodies and with body-only fresh relations — are
//! crossed with random `K` sets that keep heads, stored relations,
//! body-only relations and names absent from both, over random one-world
//! knowledgebases, at widths 1 and 4 and under `Strategy::Auto` and
//! `Strategy::Datalog`.  `apply(insert(φ).then(project(K)))` must equal
//! `apply(insert(φ))` projected onto `K` afterwards, and a `PROFILE` view
//! must return the same knowledgebase and statistics.  The run also counts
//! which plan each case took and fails unless guarded rewrites, fallbacks
//! to the plain slice and goal-free projections all occurred.

use kbt::core::{EvalOptions, Strategy, Transform, Transformer, View};
use kbt::data::{DatabaseBuilder, Knowledgebase, RelId};
use kbt::datalog::{demand_rewrite, magic_rewrite, program_from_sentence, Program};
use kbt::logic::builder::{and_all, atom, cst, forall, implies, var};
use kbt::logic::{Formula, Sentence, Term};
use rand::prelude::*;

/// Stored relations: `EDGE` binary, `NODE` unary (sometimes absent, and then
/// a body-only fresh relation like `AUX`).
const EDGE: u32 = 1;
const NODE: u32 = 2;
/// Fresh heads.
const REACH: u32 = 10;
const HITS: u32 = 11;
const SG: u32 = 12;
/// A fresh relation that only ever occurs in rule bodies.
const AUX: u32 = 20;
/// A relation neither the world nor the sentence names.
const ABSENT: u32 = 30;

const HEADS: [u32; 3] = [REACH, HITS, SG];

fn arity_of(rel: u32) -> usize {
    match rel {
        EDGE | REACH | SG => 2,
        _ => 1,
    }
}

fn namer(rel: RelId) -> String {
    format!("r{}", rel.index())
}

/// One Horn clause `∀x̄. body → head` over the given atoms.
fn clause(head: (u32, Vec<Term>), body: Vec<(u32, Vec<Term>)>) -> Formula {
    let mut vars: Vec<u32> = (body.iter().flat_map(|(_, terms)| terms))
        .filter_map(|t| t.as_var().map(|v| v.index()))
        .collect();
    vars.sort_unstable();
    vars.dedup();
    let body = and_all(body.into_iter().map(|(rel, terms)| atom(rel, terms)));
    forall(vars, implies(body, atom(head.0, head.1)))
}

/// A random safe clause deriving into `head`: one to three body atoms over
/// the stored, fresh and body-only relations, each position a variable or
/// (one time in five) a constant; head positions take body variables.
fn random_clause(head: u32, nodes: u32, rng: &mut StdRng) -> Formula {
    let pool = [EDGE, EDGE, NODE, REACH, HITS, SG, AUX];
    let mut body = Vec::new();
    for _ in 0..rng.random_range(1..4usize) {
        let rel = *pool.choose(rng).expect("non-empty pool");
        let terms = (0..arity_of(rel))
            .map(|_| match rng.random_range(0..5u32) {
                0 => cst(rng.random_range(1..nodes + 1)),
                _ => var(rng.random_range(1..5u32)),
            })
            .collect();
        body.push((rel, terms));
    }
    let body_vars: Vec<Term> = (body.iter().flat_map(|(_, terms): &(u32, Vec<Term>)| terms))
        .filter(|t| t.as_var().is_some())
        .copied()
        .collect();
    let head_terms = (0..arity_of(head))
        .map(|_| match body_vars.choose(rng) {
            Some(v) => *v,
            None => cst(rng.random_range(1..nodes + 1)),
        })
        .collect();
    clause((head, head_terms), body)
}

/// A random sentence: random clauses, plus — each with even odds — the
/// non-linear closure of `EDGE` into `REACH` and a point read
/// `REACH(x, c) → HITS(x)`, so bound calls and free-and-bound mixes occur
/// often.
fn random_sentence(nodes: u32, clauses: usize, rng: &mut StdRng) -> Sentence {
    let mut parts = Vec::new();
    if rng.random_bool(0.5) {
        parts.push(clause(
            (REACH, vec![var(1), var(2)]),
            vec![(EDGE, vec![var(1), var(2)])],
        ));
        parts.push(clause(
            (REACH, vec![var(1), var(3)]),
            vec![(REACH, vec![var(1), var(2)]), (REACH, vec![var(2), var(3)])],
        ));
    }
    if rng.random_bool(0.5) {
        let c = cst(rng.random_range(1..nodes + 1));
        parts.push(clause((HITS, vec![var(1)]), vec![(REACH, vec![var(1), c])]));
    }
    for _ in 0..rng.random_range(1..clauses + 1) {
        let head = *HEADS.choose(rng).expect("non-empty");
        parts.push(random_clause(head, nodes, rng));
    }
    Sentence::new(and_all(parts)).expect("closed by construction")
}

/// A random world over `EDGE` and, usually, `NODE`.
fn random_world(nodes: u32, edges: usize, rng: &mut StdRng) -> Knowledgebase {
    let mut b = DatabaseBuilder::new().relation(RelId::new(EDGE), 2);
    for _ in 0..rng.random_range(0..edges + 1) {
        b = b.fact(
            RelId::new(EDGE),
            [
                rng.random_range(1..nodes + 1),
                rng.random_range(1..nodes + 1),
            ],
        );
    }
    if rng.random_bool(0.75) {
        b = b.relation(RelId::new(NODE), 1);
        for _ in 0..rng.random_range(0..nodes as usize + 1) {
            b = b.fact(RelId::new(NODE), [rng.random_range(1..nodes + 1)]);
        }
    }
    Knowledgebase::singleton(b.build().expect("consistent arities"))
}

/// A random projection: any mix of heads, stored relations, the body-only
/// relation and the absent name.
fn random_keep(rng: &mut StdRng) -> Vec<RelId> {
    let candidates = [REACH, HITS, SG, EDGE, NODE, AUX, ABSENT];
    let mut keep: Vec<RelId> = (candidates.iter())
        .filter(|_| rng.random_bool(0.4))
        .map(|&rel| RelId::new(rel))
        .collect();
    if !keep.is_empty() {
        let k = rng.random_range(0..keep.len());
        keep.rotate_left(k);
    }
    keep
}

/// Which plan the push-down takes for `program` and `keep`.
#[derive(Debug, Default)]
struct Plans {
    /// Some kept head makes a bound call: invented predicates, seeds.
    guarded: usize,
    /// A bound call, but some predicate is also called all-free.
    fallback: usize,
    /// No kept head at all: nothing to derive.
    goal_free: usize,
}

impl Plans {
    fn classify(&mut self, program: &Program, keep: &[RelId]) {
        let idb = program.idb_relations();
        let goals: Vec<RelId> = keep.iter().copied().filter(|r| idb.contains(r)).collect();
        let plan = demand_rewrite(program, keep, 100).expect("Horn programs rewrite");
        let bound_somewhere = goals.iter().any(|&goal| {
            let free: Vec<Term> = (0..arity_of(goal.index())).map(|i| var(i as u32)).collect();
            let single = magic_rewrite(program, goal, &free, 100).expect("Horn programs rewrite");
            !single.names.is_empty()
        });
        if goals.is_empty() {
            self.goal_free += 1;
        } else if !plan.names.is_empty() {
            self.guarded += 1;
        } else if bound_somewhere {
            self.fallback += 1;
        }
    }
}

/// Runs `cases` random cases and checks the push-down against the full
/// fixpoint projected afterwards.
fn check(cases: u64, nodes: u32, edges: usize, clauses: usize) {
    let mut plans = Plans::default();
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let phi = random_sentence(nodes, clauses, &mut rng);
        let kb = random_world(nodes, edges, &mut rng);
        let keep = random_keep(&mut rng);
        let program = program_from_sentence(&phi).expect("a Horn sentence");
        plans.classify(&program, &keep);
        let pushed = Transform::insert(phi.clone()).then(Transform::project(keep.clone()));
        let mut first = None;
        for strategy in [Strategy::Auto, Strategy::Datalog] {
            for threads in [1, 4] {
                let t = Transformer::with_options(EvalOptions {
                    strategy,
                    threads,
                    ..EvalOptions::default()
                });
                let want = t
                    .apply(&Transform::insert(phi.clone()), &kb)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
                    .kb
                    .project(&keep);
                let got = t.apply(&pushed, &kb).unwrap();
                assert!(
                    got.kb == want,
                    "seed {seed}, {strategy:?} x{threads}: {phi} then project {keep:?}\n\
                     pushed: {:?}\nfull:   {want:?}",
                    got.kb
                );
                let mut view = View::profile(&namer);
                let profiled = t.apply_viewed(&pushed, &kb, Some(&mut view)).unwrap();
                assert!(profiled.kb == got.kb, "seed {seed}: PROFILE diverges");
                assert_eq!(profiled.stats, got.stats, "seed {seed}: PROFILE stats");
                // the work is width- and strategy-independent
                match &first {
                    None => first = Some(got.stats),
                    Some(stats) => assert_eq!(*stats, got.stats, "seed {seed}"),
                }
            }
        }
    }
    assert!(
        plans.guarded > 0 && plans.fallback > 0 && plans.goal_free > 0,
        "every plan shape must be exercised: {plans:?}"
    );
}

#[test]
fn pushed_down_projections_equal_the_projected_fixpoint() {
    check(160, 6, 12, 3);
}

#[test]
#[ignore = "a larger variant; CI runs it in release"]
fn pushed_down_projections_equal_the_projected_fixpoint_at_scale() {
    check(1_500, 12, 40, 5);
}
