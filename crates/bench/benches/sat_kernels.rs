//! `sat_kernels` — `update_sat`'s non-Horn reads, in process.
//!
//! `bench/stackbench`'s `update_sat` workload stores twelve small cover
//! graphs over the nodes 1..9, splits the knowledgebase into four worlds
//! with one disjunctive `APPLY`, and reads it with hypothetical non-Horn
//! updates, two of every three a cover update.  This target builds the
//! same shape — twelve 9-cycles with 0–3 chords, their node sets, four
//! worlds that differ in `marked`, 212 facts each — in one in-process
//! [`Service`] (no socket, no WAL) and times two reads of graph 3 (twelve
//! edges):
//!
//! * `cover` — `tau[∀x y. e3(x, y) → c3(x) ∨ c3(y)]; project[c3]`: the
//!   four worlds agree on the domain and on `e3`, so the step solves `µ`
//!   once and replays its twelve minimal covers onto the other three
//!   worlds;
//! * `existential` — `tau[∃x. n3(x) ∧ marked(x)]; project[marked]`: the
//!   worlds differ in `marked`, so the step solves once per world.
//!
//! It prints the median, min and max of each command, and then the median
//! split of the `τ` step itself into its stages, timed on a shadow of the
//! step run over the service's own worlds with the pieces the product
//! composes (`UpdateContext::grounded_over`, the Tseitin encoding plus the
//! flip clauses, the two `enumerate_minimal_models` stages,
//! `UpdateContext::database_from`, the world key and `Knowledgebase::insert`):
//! `ground`, `encode`, `stage1`, `stage2`, `materialise` (the group's
//! answers built, and replayed onto its other worlds), `free` (the
//! grounding's formula, context and clauses dropped), `key` and `collect`.
//! The shadow follows `grounding_update` and the transformer's multi-world
//! step; a change to either should change it too.  Next to the split it
//! prints the median of the whole step through `Transformer::apply`.
//!
//! Run it with the allocator pinned as `stackbench` pins its server, and
//! alternate it with the build it is compared against:
//!
//! ```text
//! MALLOC_MMAP_THRESHOLD_=67108864 MALLOC_TRIM_THRESHOLD_=268435456 \
//!   MALLOC_TOP_PAD_=16777216 cargo bench -p kbt-bench --bench sat_kernels
//! ```

use std::collections::BTreeSet;
use std::time::Instant;

use kbt_core::update::universe::{domain_of, UpdateContext};
use kbt_core::{EvalOptions, Transform, Transformer};
use kbt_data::{Const, Database, Knowledgebase, RelId};
use kbt_logic::{GroundFormula, Sentence};
use kbt_service::{parse_transform, Service, ServiceConfig};
use kbt_solver::{enumerate_minimal_models, tseitin, Bool, BoolVar, Cnf, Lit, Solver};

const GRAPHS: u32 = 12;
const NODES: u32 = 9;
/// The graph both reads update: a 9-cycle with three chords.
const UPDATED: u32 = 3;
/// Reads run before timing, and reads timed, per command.
const WARMUP: usize = 50;
const READS: usize = 400;

/// Graph `g`'s facts: a 9-cycle rotated by `g` with `g % 4` chords, and
/// seven of its nodes.
fn graph_facts(g: u32) -> String {
    let node = |i: u32| (i + g) % NODES + 1;
    let mut facts: Vec<String> = (0..NODES)
        .map(|i| format!("e{g}({}, {})", node(i), node(i + 1)))
        .collect();
    let chords = [(0, 3), (1, 5), (2, 7)];
    for &(a, b) in chords.iter().take(g as usize % 4) {
        facts.push(format!("e{g}({}, {})", node(a), node(b)));
    }
    facts.extend((0..NODES - 2).map(|i| format!("n{g}({})", node(i))));
    facts.join(", ")
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Times `command` through the service and prints median, min and max.
fn time_reads(s: &Service, name: &str, command: &str) {
    for _ in 0..WARMUP {
        s.execute(command).unwrap();
    }
    let mut ms: Vec<f64> = (0..READS)
        .map(|_| {
            let start = Instant::now();
            s.execute(command).unwrap();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let m = median(&mut ms);
    let (min, max) = (ms[0], ms[ms.len() - 1]);
    println!(
        "{:<32} median {m:.3} ms  min {min:.3} ms  max {max:.3} ms",
        format!("sat_kernels/{name}")
    );
}

/// A grounded formula as a circuit over the context's atom variables.
fn to_circuit(g: &GroundFormula, ctx: &UpdateContext) -> Bool {
    match g {
        GroundFormula::True => Bool::True,
        GroundFormula::False => Bool::False,
        GroundFormula::Atom(a) => Bool::Var(BoolVar::new(ctx.atom_index[a] as u32)),
        GroundFormula::Not(inner) => to_circuit(inner, ctx).negate(),
        GroundFormula::And(parts) => Bool::and(parts.iter().map(|p| to_circuit(p, ctx)).collect()),
        GroundFormula::Or(parts) => Bool::or(parts.iter().map(|p| to_circuit(p, ctx)).collect()),
    }
}

/// The stages of one step, in the order they are printed.
#[derive(Clone, Copy)]
enum Stage {
    Ground,
    Encode,
    First,
    Second,
    Materialise,
    Free,
    Key,
    Collect,
}

const STAGES: [&str; 8] = [
    "ground",
    "encode",
    "stage1",
    "stage2",
    "materialise",
    "free",
    "key",
    "collect",
];

/// Stage timer: adds the time since the last mark to one stage's total.
struct Clock {
    last: Instant,
    ns: [u64; STAGES.len()],
}

impl Clock {
    fn mark(&mut self, stage: Stage) {
        let now = Instant::now();
        self.ns[stage as usize] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }
}

/// `µ(φ, db)` over `domain`, as `grounding_update` composes it, with each
/// stage's time added to `clock`.
fn shadow_update(
    phi: &Sentence,
    db: &Database,
    domain: BTreeSet<Const>,
    clock: &mut Clock,
) -> Vec<Database> {
    let (ctx, ground) =
        UpdateContext::grounded_over(phi, db, domain, &EvalOptions::default()).unwrap();
    clock.mark(Stage::Ground);
    let n = ctx.atom_count();
    let mut cnf = Cnf::new(n as u32);
    tseitin::assert_circuit(&to_circuit(&ground, &ctx), &mut cnf);
    let mut solver = Solver::from_cnf(&cnf);
    while solver.num_vars() < n {
        solver.new_var();
    }
    let old: Vec<usize> = (0..n).filter(|&i| ctx.is_old_atom(i)).collect();
    let new_vars: Vec<BoolVar> = (0..n)
        .filter(|&i| !ctx.is_old_atom(i))
        .map(|i| BoolVar::new(i as u32))
        .collect();
    let mut flip_of = vec![None; n];
    for &i in &old {
        let flip = solver.new_var();
        let stored = ctx.holds_in_input(i);
        solver.add_clause(&[flip.positive(), Lit::new(BoolVar::new(i as u32), stored)]);
        solver.add_clause(&[flip.negative(), Lit::new(BoolVar::new(i as u32), !stored)]);
        flip_of[i] = Some(flip);
    }
    let flips: Vec<BoolVar> = old.iter().map(|&i| flip_of[i].unwrap()).collect();
    clock.mark(Stage::Encode);
    let flip_sets = enumerate_minimal_models(&solver, &flips, &[], None);
    clock.mark(Stage::First);
    let mut out = Vec::new();
    for set in &flip_sets {
        let value = |i: usize| ctx.holds_in_input(i) ^ set.contains(&flip_of[i].unwrap());
        let assumptions: Vec<Lit> = old
            .iter()
            .map(|&i| Lit::new(BoolVar::new(i as u32), value(i)))
            .collect();
        let new_parts = enumerate_minimal_models(&solver, &new_vars, &assumptions, None);
        clock.mark(Stage::Second);
        for new in &new_parts {
            out.push(ctx.database_from(|i| match flip_of[i] {
                Some(_) => value(i),
                None => new.contains(&BoolVar::new(i as u32)),
            }));
        }
        clock.mark(Stage::Materialise);
    }
    drop((ctx, ground, solver, flip_sets));
    clock.mark(Stage::Free);
    out
}

/// What the step groups worlds by: the domain and the `σ(φ)` relations.
type WorldKey = (BTreeSet<Const>, Database);

/// One multi-world `τ_φ` step, as the transformer runs it, stage by stage.
fn shadow_step(phi: &Sentence, kb: &Knowledgebase) -> ([u64; STAGES.len()], usize) {
    let mut clock = Clock {
        last: Instant::now(),
        ns: [0; STAGES.len()],
    };
    let mentioned: Vec<RelId> = phi.schema().relations().collect();
    let phi_constants = phi.constants();
    let mut groups: Vec<(WorldKey, Vec<Database>)> = Vec::new();
    let mut out = Knowledgebase::empty();
    for db in kb.iter() {
        let key = (domain_of(db, &phi_constants), db.project(&mentioned));
        let group = groups.iter().position(|(k, _)| *k == key);
        clock.mark(Stage::Key);
        let worlds = match group {
            Some(g) => {
                let worlds: Vec<Database> = groups[g]
                    .1
                    .iter()
                    .map(|a| {
                        let mut world = db.clone();
                        for (rel, relation) in a.iter() {
                            world.set_relation(rel, relation.clone());
                        }
                        world
                    })
                    .collect();
                clock.mark(Stage::Materialise);
                worlds
            }
            None => {
                let worlds = shadow_update(phi, db, key.0.clone(), &mut clock);
                let answers = worlds.iter().map(|w| w.project(&mentioned)).collect();
                groups.push((key, answers));
                clock.mark(Stage::Key);
                worlds
            }
        };
        for world in worlds {
            out.insert(world).unwrap();
        }
        clock.mark(Stage::Collect);
    }
    (clock.ns, out.len())
}

/// Prints the median stage split of `read`'s `τ` step over the service's
/// worlds, and the median of the whole step through the transformer.
fn split(s: &Service, name: &str, read: &str) {
    let snapshot = s.snapshot();
    let mut vocab = snapshot.vocab().clone();
    let transform = parse_transform(read, &mut vocab).unwrap();
    let Some(Transform::Insert(phi)) = transform.steps().first().copied() else {
        panic!("{read} starts with an insertion");
    };
    let step = Transform::Insert(phi.clone());
    let kb = snapshot.kb();
    let transformer = Transformer::new();
    let mut per_stage: [Vec<f64>; STAGES.len()] = Default::default();
    let mut whole = Vec::new();
    let mut worlds = 0;
    for rep in 0..WARMUP + READS {
        let (ns, n) = shadow_step(phi, kb);
        let start = Instant::now();
        let applied = transformer.apply(&step, kb).unwrap();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(applied.kb.len(), n, "the shadow and the step disagree");
        worlds = n;
        if rep >= WARMUP {
            whole.push(elapsed);
            for (samples, ns) in per_stage.iter_mut().zip(ns) {
                samples.push(ns as f64 / 1e6);
            }
        }
    }
    let parts: Vec<String> = STAGES
        .iter()
        .zip(per_stage.iter_mut())
        .map(|(stage, samples)| format!("{stage} {:.3}", median(samples)))
        .collect();
    println!(
        "{:<32} step median {:.3} ms, {worlds} worlds  ({} ms)",
        format!("sat_kernels/{name}_split"),
        median(&mut whole),
        parts.join(", ")
    );
}

fn main() {
    let s = Service::new(ServiceConfig::builder().threads(1).build());
    for g in 0..GRAPHS {
        s.execute(&format!("ASSERT {}", graph_facts(g))).unwrap();
    }
    s.execute("DEFINE split := tau[(marked(2) | marked(6)) & (marked(4) | marked(8))]")
        .unwrap();
    s.execute("APPLY split").unwrap();
    assert_eq!(s.snapshot().kb().len(), 4);
    assert_eq!(s.snapshot().kb().iter().next().unwrap().fact_count(), 212);

    let u = UPDATED;
    let cover = format!("tau[forall x y. e{u}(x, y) -> (c{u}(x) | c{u}(y))]; project[c{u}]");
    let existential = format!("tau[exists x. n{u}(x) & marked(x)]; project[marked]");
    time_reads(&s, "cover", &format!("QUERY {cover}"));
    time_reads(&s, "existential", &format!("QUERY {existential}"));
    split(&s, "cover", &cover);
    split(&s, "existential", &existential);
}
