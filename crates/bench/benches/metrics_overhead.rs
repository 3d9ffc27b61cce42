//! `metrics_overhead` — what the observability layer costs on the serving
//! read path, and what its primitives cost in isolation.
//!
//! The acceptance bar is that instrumentation stays under 5 % on the
//! serving read path, and this bench is the gate: it fails unless the
//! median paired ratio of each comparison below is at most [`BUDGET`].
//! The comparisons are **paired**: each round times both variants back to
//! back (alternating which goes first), so clock drift, cache warm-up and
//! frequency scaling hit both sides equally, and the gated number is the
//! median over the rounds of each round's own ratio — a ratio of two
//! timings taken on the same machine a millisecond apart, so the bound
//! does not depend on how fast the machine is.
//!
//! * `QUERY CERTAIN edge` with spans enabled ÷ disabled;
//! * a hypothetical transitive closure — the read that runs the engine's
//!   per-evaluation and per-round spans (load, round, commit,
//!   materialize), a hundred rounds of them — with spans enabled ÷
//!   disabled;
//! * `PROFILE` ÷ `QUERY` on that closure (per-rule rows recorded vs none).
//!
//! Counters record in both settings by design — only clock reads are
//! gated — which is why the disabled variants are not a zero-instrumentation
//! baseline but the documented "disabled" cost model (one relaxed load per
//! span site).
//!
//! The primitive benches (`counter_inc`, `histogram_record`,
//! `span_enabled`, `span_disabled`) pin the per-operation costs the crate
//! docs of `kbt-obs` promise; they are printed, not gated.

use std::time::Instant;

use kbt_bench::criterion::{black_box, criterion_group, criterion_main, Criterion};
use kbt_bench::quick_criterion;
use kbt_obs::Registry;
use kbt_service::{Service, ServiceConfig};

/// Chain length of the seeded graph.
const EDGES: u32 = 100;

/// Paired rounds per comparison (each round times both variants).
const ROUNDS: usize = 20;

/// The documented instrumentation budget: the largest median paired ratio
/// (instrumented ÷ plain) a comparison may read.
const BUDGET: f64 = 1.05;

/// The hypothetical transitive-closure read the last two comparisons time.
const TC: &str = "tau[(forall x0 x1. edge(x0, x1) -> path(x0, x1)) & \
                  (forall x0 x1 x2. path(x0, x1) & edge(x1, x2) -> path(x0, x2))]; lub";

fn seeded_service() -> Service {
    let service = Service::new(ServiceConfig::default());
    for i in 0..EDGES {
        service
            .execute(&format!("ASSERT edge({i}, {})", i + 1))
            .expect("assert");
    }
    service
}

fn set_enabled(service: &Service, enabled: bool) {
    service.obs_registry().set_enabled(enabled);
    Registry::global().set_enabled(enabled);
}

/// Times `iters` calls of `f`, returning ns per call.
fn sample(iters: u32, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Interleaved paired sampling: every round times `plain` and
/// `instrumented` back to back, swapping which goes first between rounds.
/// Returns the median of the per-round ratios instrumented ÷ plain.
fn paired_ratio(plain: &mut impl FnMut() -> f64, instrumented: &mut impl FnMut() -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            let (p, i) = if round % 2 == 0 {
                let p = plain();
                (p, instrumented())
            } else {
                let i = instrumented();
                (plain(), i)
            };
            i / p
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    (ratios[mid - 1] + ratios[mid]) / 2.0
}

/// Spans enabled ÷ disabled on `iters` executions of `command`.
fn spans_ratio(service: &Service, command: &str, iters: u32) -> f64 {
    let run = |enabled: bool| {
        set_enabled(service, enabled);
        sample(iters, &mut || {
            black_box(service.execute(command).expect("read"));
        })
    };
    let ratio = paired_ratio(&mut || run(false), &mut || run(true));
    set_enabled(service, true);
    ratio
}

fn benches(c: &mut Criterion) {
    let service = seeded_service();
    let query_tc = format!("QUERY {TC}");
    let profile_tc = format!("PROFILE {TC}");
    let timed = |command: &str| {
        sample(4, &mut || {
            black_box(service.execute(command).expect("read"));
        })
    };
    let comparisons = [
        (
            "query_certain_edge spans on/off",
            spans_ratio(&service, "QUERY CERTAIN edge", 100),
        ),
        ("closure spans on/off", spans_ratio(&service, &query_tc, 4)),
        (
            "closure PROFILE/QUERY",
            paired_ratio(&mut || timed(&query_tc), &mut || timed(&profile_tc)),
        ),
    ];
    for (name, ratio) in &comparisons {
        println!(
            "{:<60} median paired ratio: {ratio:.3}",
            format!("metrics_overhead/{name}")
        );
    }

    // primitive costs, on a private registry
    let mut group = c.benchmark_group("metrics_overhead");
    let registry = Registry::new();
    let counter = registry.counter("bench_counter");
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    let hist = registry.histogram("bench_hist_ns");
    group.bench_function("histogram_record", |b| {
        b.iter(|| hist.record(black_box(1234)))
    });
    group.bench_function("span_enabled", |b| b.iter(|| drop(hist.span())));
    registry.set_enabled(false);
    group.bench_function("span_disabled", |b| b.iter(|| drop(hist.span())));
    group.finish();

    let over: Vec<_> = comparisons
        .iter()
        .filter(|(_, ratio)| *ratio > BUDGET)
        .collect();
    assert!(
        over.is_empty(),
        "instrumentation over its {BUDGET} paired budget: {over:?}"
    );
}

criterion_group!(name = metrics; config = quick_criterion(); targets = benches);
criterion_main!(metrics);
