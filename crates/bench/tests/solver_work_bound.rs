//! An upper bound on the search work of one non-Horn update.
//!
//! `update_sat`'s median read, in process: the cover update
//! `τ[∀x y. e0(x, y) → (c0(x) ∨ c0(y))]` on one world of 25 stored
//! relations — twelve cover graphs over the shared nodes 1..9, their node
//! sets, `marked` — where `e0` is a 9-cycle with three chords and the cover
//! relation `c0` is the 26th, new to the world.  `ground(φ)` mentions 90
//! atoms; with the Tseitin gates and the 81 flip variables that is 253
//! variables and 569 clauses, and the answer is the graph's minimal vertex
//! covers.
//!
//! The work is read off `kbt_solver::metrics()`: searches run
//! (`solves`) and assigned literals whose watch lists were walked
//! (`propagations`).  They are a function of the clauses alone, so three
//! calls must report the same figures exactly, and the test holds them to
//! `MEASURED_SOLVES` and 10 % over `MEASURED_PROPAGATIONS`.
//!
//! What the bound pins is that each minimal model costs one search and a
//! step of that search costs the watch lists it touches: the enumeration
//! decides the minimised variables first, false first, and learns from
//! its conflicts, so it lands on a minimal model and never shrinks one —
//! 13 searches (one for stage one's empty flip-set, twelve for the twelve
//! covers; the last blocking clause leaves the root contradictory, so no
//! search is needed to find that nothing is left), 627 propagations, 119
//! decisions and 7 conflicts, each of them learned.  History of the
//! recorded figures:
//!
//! * **94** from-scratch `solve` calls whose unit propagation made 812
//!   passes over the whole clause list (465 076 clause visits), before the
//!   309 branching scans from clause 0: a shrink loop that restarted after
//!   every success and re-tested candidates already proven necessary, and
//!   a `propagate` that re-read every clause until nothing changed;
//! * **26** searches and **1 411** propagations (9 906 watched-clause
//!   visits): watched literals, and a shrink loop that tests each candidate
//!   once on a level of its own;
//! * **13** searches and **627** propagations: clause learning and a search
//!   that lands on minimal models, no shrink loop.
//!
//! The figures are printed on every run.
//!
//! The second half pins that an enumeration allocates per *call* and per
//! returned set, never per search: on `k` independent binary clauses
//! (2^k minimal models, one search each) asking for 33 models instead of
//! one may cost the 32 extra sets and the amortised growth of the vectors
//! blocking and learned clauses are added to, nothing else (17 → 63
//! allocations when the search learned; a learned clause goes into the
//! same arena as the blocking clauses, and conflict analysis works in
//! buffers the search keeps).  The replaced solver cloned the clause database
//! per enumeration and allocated an assignment, a model and an assumption
//! vector per search.
//!
//! Like `read_alloc_bound.rs`, this binary runs without the test harness,
//! on its `main` thread alone: the solver's counters and
//! `kbt_bench::alloc_counter` are process-global.

use kbt_bench::alloc_counter;
use kbt_core::update::grounding::grounding_update;
use kbt_core::EvalOptions;
use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_logic::builder::*;
use kbt_logic::Sentence;
use kbt_solver::{enumerate_minimal_models, BoolVar, Solver};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Searches one cover update ran when the bound was set.
const MEASURED_SOLVES: u64 = 13;
/// Propagations one cover update made when the bound was set.
const MEASURED_PROPAGATIONS: u64 = 627;

const NODES: u32 = 9;
const GRAPHS: u32 = 12;

/// Graph `g`'s edge relation, its node relation, `marked`, and the fresh
/// cover relation.
fn edge_rel(g: u32) -> RelId {
    RelId::new(1 + g)
}
fn node_rel(g: u32) -> RelId {
    RelId::new(1 + GRAPHS + g)
}
const MARKED: u32 = 1 + 2 * GRAPHS;
const COVER: u32 = 2 + 2 * GRAPHS;

/// Twelve 9-cycles with `g % 4` chords each, rotated so that no two are
/// the same graph; graph 3 — three chords, twelve edges — is the one
/// updated.
fn world() -> Database {
    let mut b = DatabaseBuilder::new();
    for g in 0..GRAPHS {
        let node = |i: u32| (i + g) % NODES + 1;
        let cycle = (0..NODES).map(|i| [node(i), node(i + 1)]);
        let chords = [[node(0), node(3)], [node(1), node(5)], [node(2), node(7)]];
        b = b
            .facts(edge_rel(g), cycle)
            .facts(edge_rel(g), chords.into_iter().take(g as usize % 4))
            .facts(node_rel(g), (0..NODES - 2).map(|i| [node(i)]));
    }
    b.facts(RelId::new(MARKED), [[2u32], [6]]).build().unwrap()
}

const UPDATED: u32 = 3;

fn cover_sentence() -> Sentence {
    let covered = or(atom(COVER, [var(1)]), atom(COVER, [var(2)]));
    let edge = atom(edge_rel(UPDATED).index(), [var(1), var(2)]);
    Sentence::new(forall([1, 2], implies(edge, covered))).unwrap()
}

/// (solves, propagations) so far.
fn work() -> (u64, u64) {
    let m = kbt_solver::metrics();
    (m.solves_total.get(), m.propagations_total.get())
}

/// Allocations of one enumeration of at most `limit` minimal models.
fn enumeration_allocs(solver: &Solver, vars: &[BoolVar], limit: usize) -> u64 {
    alloc_counter::reset();
    let found = enumerate_minimal_models(solver, vars, &[], Some(limit));
    let (allocs, _) = alloc_counter::snapshot();
    assert_eq!(found.len(), limit);
    allocs
}

fn main() {
    let (db, phi, options) = (world(), cover_sentence(), EvalOptions::default());
    assert_eq!(db.schema().len(), 25);
    assert_eq!(db.relation(edge_rel(UPDATED)).unwrap().len(), 12);

    let mut figures = Vec::new();
    for _ in 0..3 {
        let before = work();
        let out = grounding_update(&phi, &db, &options).unwrap();
        let after = work();
        assert_eq!(out.candidate_atoms, 90);
        figures.push((out.databases.len(), after.0 - before.0, after.1 - before.1));
    }
    let (covers, solves, propagations) = figures[0];
    println!("minimal covers {covers}  solves {solves}  propagations {propagations}");
    assert!(
        figures.iter().all(|f| *f == figures[0]),
        "the work of one update must repeat exactly: {figures:?}"
    );
    assert!(
        solves <= MEASURED_SOLVES,
        "the update ran {solves} searches; the bound is {MEASURED_SOLVES}"
    );
    assert!(
        propagations <= MEASURED_PROPAGATIONS + MEASURED_PROPAGATIONS / 10,
        "the update made {propagations} propagations; the bound is 10 % over {MEASURED_PROPAGATIONS}"
    );

    // allocation: per call and per returned set, not per search
    let pairs = 8u32;
    let vars: Vec<BoolVar> = (0..2 * pairs).map(BoolVar::new).collect();
    let mut solver = Solver::new(vars.len());
    for pair in vars.chunks(2) {
        solver.add_clause(&[pair[0].positive(), pair[1].positive()]);
    }
    let (one, many) = (
        enumeration_allocs(&solver, &vars, 1),
        enumeration_allocs(&solver, &vars, 33),
    );
    println!("allocations: {one} for one minimal model, {many} for 33");
    // 32 more sets of 8 (one B-tree leaf each), and the doublings of the
    // result vector and of the three arenas blocking and learned clauses
    // are added to
    assert!(
        many <= one + 32 + 24,
        "33 minimal models took {many} allocations against {one} for one"
    );
}
