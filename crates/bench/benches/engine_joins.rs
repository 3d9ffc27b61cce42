//! Engine ablation — the reference oracles vs indexed fixpoint evaluation.
//!
//! Transitive closure over "braid" graphs (disjoint chains of length 10, so
//! the closure grows linearly with the edge count and the interesting signal
//! is join cost, not output size) at 100 / 1 000 / 10 000 edges:
//!
//! * `reference_naive` — the seed's nested-loop naive evaluator (oracle);
//! * `reference_semi_naive` — the seed's nested-loop semi-naive evaluator,
//!   the baseline the indexed engine is measured against;
//! * `engine_indexed` — the production path: delta-driven semi-naive rounds
//!   over hash-indexed storage.
//!
//! The slower configurations are capped at the sizes where a sample still
//! finishes in seconds; the indexed path runs everywhere.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kbt_bench::{alloc_counter, quick_criterion, record_alloc};
use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_datalog::{
    reference_naive_eval, reference_semi_naive_eval, semi_naive_eval, DlAtom, Literal, Program,
    Rule,
};
use kbt_logic::builder::var;

/// Counts heap traffic alongside the timings (see [`bench_alloc_counts`]).
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
fn tc_program() -> Program {
    let edge = |a, b| DlAtom::new(r(1), vec![a, b]);
    let path = |a, b| DlAtom::new(r(2), vec![a, b]);
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

/// `chains` disjoint chains of 10 edges each: `10 * chains` edges total,
/// closure of size `55 * chains`.
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

fn edge_counts() -> [(u32, u32); 3] {
    // (chains, edges)
    [(10, 100), (100, 1_000), (1_000, 10_000)]
}

fn bench_reference_naive(c: &mut Criterion) {
    let program = tc_program();
    let mut group = c.benchmark_group("engine_joins/reference_naive");
    for (chains, edges) in edge_counts() {
        if edges > 100 {
            continue; // quadratic rescans per round: a single sample takes minutes
        }
        let edb = braid(chains);
        group.bench_with_input(BenchmarkId::from_parameter(edges), &edges, |b, _| {
            b.iter(|| reference_naive_eval(&program, &edb).unwrap());
        });
    }
    group.finish();
}

fn bench_reference_semi_naive(c: &mut Criterion) {
    let program = tc_program();
    let mut group = c.benchmark_group("engine_joins/reference_semi_naive");
    for (chains, edges) in edge_counts() {
        let edb = braid(chains);
        group.bench_with_input(BenchmarkId::from_parameter(edges), &edges, |b, _| {
            b.iter(|| reference_semi_naive_eval(&program, &edb).unwrap());
        });
    }
    group.finish();
}

fn bench_engine_indexed(c: &mut Criterion) {
    let program = tc_program();
    let mut group = c.benchmark_group("engine_joins/engine_indexed");
    for (chains, edges) in edge_counts() {
        let edb = braid(chains);
        group.bench_with_input(BenchmarkId::from_parameter(edges), &edges, |b, _| {
            b.iter(|| semi_naive_eval(&program, &edb).unwrap());
        });
    }
    group.finish();
}

/// Records the allocation count/volume of one indexed fixpoint run per size
/// as `engine_joins/alloc/engine_indexed/{edges}/{allocs,bytes}`.  With the
/// flat row arenas the join inner loop allocates nothing per probe, so
/// these counts scale with the *output* (derived facts), not with probes —
/// a regression back to per-tuple boxing multiplies them and warns in the
/// baseline comparison.
fn bench_alloc_counts(_c: &mut Criterion) {
    let program = tc_program();
    for (chains, edges) in edge_counts() {
        let edb = braid(chains);
        let _ = semi_naive_eval(&program, &edb).unwrap();
        alloc_counter::reset();
        let result = semi_naive_eval(&program, &edb).unwrap();
        let (allocs, bytes) = alloc_counter::snapshot();
        criterion::black_box(result);
        let name = format!("engine_joins/alloc/engine_indexed/{edges}");
        println!("{name:<60} allocs: {allocs}  bytes: {bytes}");
        record_alloc(&name, allocs, bytes);
    }
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets =
        bench_reference_naive,
        bench_reference_semi_naive,
        bench_engine_indexed,
        bench_alloc_counts,
}
criterion_main!(benches);
