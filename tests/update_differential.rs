//! `Strategy::Grounding` against `Strategy::Exhaustive` on generated
//! sentences.
//!
//! The SAT path (ground, Tseitin-encode, two stages of minimal-model
//! enumeration) and the literal enumeration of definition (9) share the
//! candidate universe's bookkeeping and nothing else, so the second is the
//! oracle for the first.  `tests/framework.rs` compares them on two
//! hand-written expressions; here the sentences are random — every
//! connective, equality, up to two quantified variables, atoms over two
//! stored relations and one fresh one, constants inside and outside a
//! world's active domain — over knowledgebases of one to three small
//! worlds.  The candidate universe is kept to nine facts, which is what
//! the oracle can enumerate a few hundred times.

use kbt::core::{CoreError, EvalOptions, Strategy, Transformer};
use kbt::data::{Database, DatabaseBuilder, Knowledgebase, RelId};
use kbt::logic::builder::*;
use kbt::logic::{Formula, Sentence, Term};
use rand::prelude::*;

/// `R1`, `R2` are stored in every world, `R3` is fresh.
const RELATIONS: [u32; 3] = [1, 2, 3];
/// The largest candidate universe handed to the exhaustive oracle.
const MAX_UNIVERSE: usize = 9;

struct Shape {
    /// Constants are `1..=constants`.
    constants: u32,
    /// Arity of each of [`RELATIONS`].
    arities: [usize; 3],
}

fn random_shape(rng: &mut StdRng) -> Shape {
    loop {
        let constants = rng.random_range(1..4u32);
        let arities = [0; 3].map(|_| rng.random_range(0..3usize));
        let universe: usize = arities
            .iter()
            .map(|&a| (constants as usize).pow(a as u32))
            .sum();
        if universe <= MAX_UNIVERSE {
            return Shape { constants, arities };
        }
    }
}

fn random_tuple(rng: &mut StdRng, shape: &Shape, arity: usize) -> Vec<u32> {
    (0..arity)
        .map(|_| rng.random_range(1..shape.constants + 1))
        .collect()
}

/// A world over the two stored relations; it need not mention every
/// constant of the shape, so a sentence's constants may lie outside its
/// active domain.
fn random_world(rng: &mut StdRng, shape: &Shape) -> Database {
    let mut builder = DatabaseBuilder::new();
    for (&rel, &arity) in RELATIONS.iter().zip(&shape.arities).take(2) {
        builder = builder.relation(RelId::new(rel), arity);
        for _ in 0..rng.random_range(0..3u32) {
            builder = builder.fact(RelId::new(rel), &random_tuple(rng, shape, arity)[..]);
        }
    }
    builder.build().unwrap()
}

fn random_term(rng: &mut StdRng, shape: &Shape, scope: u32) -> Term {
    if scope > 0 && rng.random_bool(0.6) {
        var(rng.random_range(1..scope + 1))
    } else {
        cst(rng.random_range(1..shape.constants + 1))
    }
}

/// A formula whose free variables are among `1..=scope`.
fn random_formula(rng: &mut StdRng, shape: &Shape, depth: u32, scope: u32) -> Formula {
    let leaf = depth == 0 || rng.random_bool(0.2);
    if leaf {
        if rng.random_bool(0.15) {
            return eq(
                random_term(rng, shape, scope),
                random_term(rng, shape, scope),
            );
        }
        let which = rng.random_range(0..3usize);
        let args: Vec<Term> = (0..shape.arities[which])
            .map(|_| random_term(rng, shape, scope))
            .collect();
        return atom(RELATIONS[which], args);
    }
    let connective = rng.random_range(0..7u32);
    let mut sub = |scope| random_formula(rng, shape, depth - 1, scope);
    match connective {
        0 => not(sub(scope)),
        1 => and(sub(scope), sub(scope)),
        2 => or(sub(scope), sub(scope)),
        3 => implies(sub(scope), sub(scope)),
        4 => iff(sub(scope), sub(scope)),
        // a quantifier while a variable is left, else a negation
        _ if scope == 2 => not(sub(scope)),
        5 => exists([scope + 1], sub(scope + 1)),
        _ => forall([scope + 1], sub(scope + 1)),
    }
}

#[test]
fn grounding_agrees_with_the_exhaustive_oracle_on_random_sentences() {
    let mut rng = StdRng::seed_from_u64(0x0D1F_F5A7);
    let (mut changed, mut refused) = (0, 0);
    for case in 0..600 {
        let shape = random_shape(&mut rng);
        let worlds: Vec<Database> = (0..rng.random_range(1..4u32))
            .map(|_| random_world(&mut rng, &shape))
            .collect();
        let kb = Knowledgebase::from_databases(worlds).unwrap();
        let phi = Sentence::new(random_formula(&mut rng, &shape, 4, 0)).unwrap();
        // every third case under a budget small enough to be hit
        let max_worlds = if case % 3 == 0 { 2 } else { 100_000 };

        let run = |strategy| {
            let options = EvalOptions {
                max_worlds,
                ..EvalOptions::with_strategy(strategy)
            };
            Transformer::with_options(options).insert(&phi, &kb)
        };
        match (run(Strategy::Exhaustive), run(Strategy::Grounding)) {
            (Ok(oracle), Ok(got)) => {
                assert_eq!(oracle.kb, got.kb, "case {case}: τ[{phi}] on {kb:?}");
                assert_eq!(
                    oracle.stats.minimal_models, got.stats.minimal_models,
                    "case {case}: minimal models of τ[{phi}] on {kb:?}"
                );
                changed += usize::from(got.kb != kb);
            }
            (Err(CoreError::TooManyWorlds { .. }), Err(CoreError::TooManyWorlds { limit, .. })) => {
                assert_eq!(limit, max_worlds);
                refused += 1;
            }
            (oracle, got) => panic!(
                "case {case}: τ[{phi}] on {kb:?}: exhaustive gave {oracle:?}, grounding {got:?}"
            ),
        }
    }
    // the generator must not have degenerated into no-ops or refusals
    println!("{changed} of 600 updates changed the knowledgebase, {refused} were refused");
    assert!(
        changed >= 200,
        "only {changed} of 600 updates changed anything"
    );
    assert!(
        refused >= 10,
        "only {refused} of 600 updates hit the world budget"
    );
}
