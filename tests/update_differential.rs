//! `Strategy::Grounding` against `Strategy::Exhaustive` on generated
//! sentences, and every strategy's grouped `τ_φ` against a world-by-world
//! fold of `µ`.
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
//!
//! `Transformer` solves `µ` once per group of worlds that agree on the
//! domain and on `σ(φ)`, and replays the answers onto the group's other
//! worlds.  Comparing two strategies through `Transformer` would hide a
//! grouping bug on both sides, so the second oracle folds `minimal_update`
//! over every world itself.  It covers worlds that agree on `σ(φ)` and
//! differ elsewhere, agree on `σ(φ)`'s facts but not on the domain, and
//! lack φ's relation against hold it empty; results and the
//! `TooManyWorlds`/`UniverseTooLarge` errors must match under every
//! strategy.

use kbt::core::{minimal_update, CoreError, EvalOptions, Strategy, Transformer};
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

// ---------------------------------------------------------------------
// Grouped worlds against the world-by-world fold
// ---------------------------------------------------------------------

/// The five strategy choices, each run on both sides.
const STRATEGIES: [Strategy; 5] = [
    Strategy::Auto,
    Strategy::Exhaustive,
    Strategy::Grounding,
    Strategy::QuantifierFree,
    Strategy::Datalog,
];

/// Definition (10) literally: `µ(φ, db)` on every world, folded into one
/// knowledgebase with the world budget checked after each insertion.  No
/// two worlds share a solve.
fn world_by_world(
    phi: &Sentence,
    kb: &Knowledgebase,
    options: &EvalOptions,
) -> Result<Knowledgebase, CoreError> {
    let mut out = Knowledgebase::empty();
    for db in kb.iter() {
        for world in minimal_update(phi, db, options, None)?.databases {
            out.insert(world)?;
            if out.len() > options.max_worlds {
                return Err(CoreError::TooManyWorlds {
                    worlds: out.len(),
                    limit: options.max_worlds,
                });
            }
        }
    }
    Ok(out)
}

/// Runs `τ_φ` on `kb` under every strategy of [`STRATEGIES`], grouped and
/// world by world, and requires the same knowledgebase or the same error.
/// Returns the grouped side's `updates` (or its error) per strategy.
fn assert_grouping_agrees(
    what: &str,
    phi: &Sentence,
    kb: &Knowledgebase,
    options: &EvalOptions,
) -> Vec<Result<usize, CoreError>> {
    STRATEGIES
        .iter()
        .map(|&strategy| {
            let options = EvalOptions {
                strategy,
                ..*options
            };
            let grouped = Transformer::with_options(options).insert(phi, kb);
            let oracle = world_by_world(phi, kb, &options);
            assert_eq!(
                grouped.as_ref().map(|r| &r.kb),
                oracle.as_ref(),
                "{what}, {strategy:?}: τ[{phi}] on {kb:?}"
            );
            grouped.map(|r| r.stats.updates)
        })
        .collect()
}

fn world(facts: &[(u32, &[u32])]) -> Database {
    facts
        .iter()
        .fold(DatabaseBuilder::new(), |b, &(rel, t)| {
            b.fact(RelId::new(rel), t)
        })
        .build()
        .unwrap()
}

#[test]
fn grouping_agrees_with_the_world_by_world_oracle_on_each_kind_of_group() {
    let options = EvalOptions::default();
    // (a) both worlds store the same R1 and the same constants, and differ
    // in R2, which φ does not mention: one group, one solve
    let kb = Knowledgebase::from_databases([
        world(&[(1, &[1, 2]), (1, &[2, 1]), (2, &[1])]),
        world(&[(1, &[1, 2]), (1, &[2, 1]), (2, &[2])]),
    ])
    .unwrap();
    let cover = Sentence::new(forall(
        [1, 2],
        implies(
            atom(1, [var(1), var(2)]),
            or(atom(3, [var(1)]), atom(3, [var(2)])),
        ),
    ))
    .unwrap();
    let horn = Sentence::new(forall(
        [1, 2],
        implies(atom(1, [var(1), var(2)]), atom(3, [var(2)])),
    ))
    .unwrap();
    let ground = Sentence::new(or(
        atom(1, [cst(1), cst(1)]),
        not(atom(1, [cst(1), cst(2)])),
    ))
    .unwrap();
    for phi in [&cover, &horn, &ground] {
        let updates = assert_grouping_agrees("(a)", phi, &kb, &options);
        assert!(
            updates.iter().flatten().all(|&u| u == 1),
            "(a) τ[{phi}]: one solve per strategy, got {updates:?}"
        );
    }

    // (b) the same R1 but different active domains (R2 brings constant 4
    // into one world only): `∀x R3(x)` fills each world's own domain
    let kb = Knowledgebase::from_databases([
        world(&[(1, &[1]), (1, &[2]), (2, &[1])]),
        world(&[(1, &[1]), (1, &[2]), (2, &[4])]),
    ])
    .unwrap();
    let everything = Sentence::new(forall([1], atom(3, [var(1)]))).unwrap();
    let updates = assert_grouping_agrees("(b)", &everything, &kb, &options);
    assert_eq!(updates[0], Ok(2), "(b): the domains differ");
    let got = Transformer::new().insert(&everything, &kb).unwrap().kb;
    let mut sizes: Vec<usize> = got
        .iter()
        .map(|db| db.relation(RelId::new(3)).unwrap().len())
        .collect();
    sizes.sort_unstable();
    assert_eq!(sizes, [2, 3], "R3 over {{1, 2}} and over {{1, 2, 4}}");

    // (c) φ's relation R2 absent from the worlds against held empty.  The
    // worlds of one knowledgebase share a schema, so these are two
    // knowledgebases, and µ must tell them apart: a fresh R2 is minimised
    // after the stored relations, a stored one is flipped like them.
    let without =
        Knowledgebase::from_databases([world(&[(1, &[1, 2])]), world(&[(1, &[2, 1])])]).unwrap();
    let with_empty = Knowledgebase::from_databases(without.iter().map(|db| {
        let mut db = db.clone();
        db.ensure_relation(RelId::new(2), 1).unwrap();
        db
    }))
    .unwrap();
    let mixed = [without.iter().next(), with_empty.iter().next()];
    assert!(Knowledgebase::from_databases(mixed.into_iter().flatten().cloned()).is_err());
    let either = Sentence::new(or(atom(1, [cst(1), cst(1)]), atom(2, [cst(1)]))).unwrap();
    assert_grouping_agrees("(c) absent", &either, &without, &options);
    assert_grouping_agrees("(c) empty", &either, &with_empty, &options);
    let absent = Transformer::new().insert(&either, &without).unwrap().kb;
    let empty = Transformer::new().insert(&either, &with_empty).unwrap().kb;
    assert_eq!((absent.len(), empty.len()), (2, 4));
}

#[test]
fn every_strategy_agrees_with_the_world_by_world_oracle_on_random_groups() {
    // Worlds draw R1/R2 from two cores, so several share what φ mentions,
    // and add unary R4 facts φ never mentions, which sometimes widen the
    // active domain.
    let mut rng = StdRng::seed_from_u64(0x6E0_0F5);
    let (mut shared, mut too_many, mut too_large) = (0, 0, 0);
    for case in 0..200 {
        let shape = loop {
            let shape = random_shape(&mut rng);
            let universe: usize = shape
                .arities
                .iter()
                .map(|&a| (shape.constants as usize).pow(a as u32))
                .sum();
            if universe + shape.constants as usize <= MAX_UNIVERSE {
                break shape;
            }
        };
        let cores = [0; 2].map(|_| random_world(&mut rng, &shape));
        let worlds: Vec<Database> = (0..rng.random_range(2..5u32))
            .map(|_| {
                let mut db = cores[rng.random_range(0..2usize)].clone();
                db.ensure_relation(RelId::new(4), 1).unwrap();
                if rng.random_bool(0.5) {
                    db.insert_fact(
                        RelId::new(4),
                        kbt::data::tuple![rng.random_range(1..shape.constants + 1)],
                    )
                    .unwrap();
                }
                db
            })
            .collect();
        let kb = Knowledgebase::from_databases(worlds).unwrap();
        let phi = Sentence::new(random_formula(&mut rng, &shape, 4, 0)).unwrap();
        // budgets small enough to be hit: worlds every third case, ground
        // atoms every fifth
        let mut options = EvalOptions::default();
        if case % 3 == 0 {
            options.max_worlds = 2;
        }
        if case % 5 == 0 {
            options.max_ground_atoms = 4;
        }
        for result in assert_grouping_agrees(&format!("case {case}"), &phi, &kb, &options) {
            match result {
                Ok(updates) => shared += usize::from(updates < kb.len()),
                Err(CoreError::TooManyWorlds { .. }) => too_many += 1,
                Err(CoreError::UniverseTooLarge { .. }) => too_large += 1,
                Err(_) => {}
            }
        }
    }
    println!("{shared} grouped runs shared a solve, {too_many} + {too_large} refused");
    assert!(shared >= 200, "only {shared} runs shared a solve");
    assert!(too_many >= 20, "only {too_many} runs hit the world budget");
    assert!(too_large >= 20, "only {too_large} runs hit the atom budget");
}
