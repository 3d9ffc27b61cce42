//! `metrics_overhead` — what the observability layer costs on the serving
//! read path, and what its primitives cost in isolation.
//!
//! The acceptance bar is that instrumentation stays under 5% on the
//! serving read path.  The on/off comparisons here are **paired**: each
//! round times both variants back to back (alternating which goes first),
//! so clock drift, cache warm-up and frequency scaling hit both sides of
//! the comparison equally.  The published `_on`/`_off` records come from
//! the same interleaved run — unlike two sequential `bench_function`
//! blocks, whose medians are separated by seconds of unrelated drift —
//! and the `profile_overhead` record is the paired per-round delta
//! itself, in percent, which CI gates directly.
//!
//! Counters record in both settings by design — only clock reads are
//! gated — which is why the `_off` variants are not a zero-instrumentation
//! baseline but the documented "disabled" cost model (one relaxed load per
//! span site).
//!
//! The primitive benches (`counter_inc`, `histogram_record`,
//! `span_enabled`, `span_disabled`) pin the per-operation costs the crate
//! docs of `kbt-obs` promise.
//!
//! Run with `KBT_BENCH_JSON=BENCH_service.json` to record the medians.

use std::time::Instant;

use kbt_bench::criterion::{
    black_box, criterion_group, criterion_main, record_external, BenchRecord, Criterion,
};
use kbt_bench::quick_criterion;
use kbt_obs::Registry;
use kbt_service::{Service, ServiceConfig};

/// Chain length of the seeded graph (same shape as `service_throughput`).
const EDGES: u32 = 100;

/// Paired rounds per comparison (each round times both variants).
const ROUNDS: usize = 20;

/// The hypothetical transitive-closure read `profile_overhead` compares
/// under `QUERY` and `PROFILE` (the `service_throughput` refresh shape).
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

/// Interleaved paired sampling: every round produces one sample of each
/// variant, taken back to back, with the order swapped between rounds.
/// Returns the per-round samples of both plus the per-round ratio b/a.
fn paired_run(
    rounds: usize,
    a: &mut impl FnMut() -> f64,
    b: &mut impl FnMut() -> f64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut a_ns, mut b_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (ta, tb) = if round % 2 == 0 {
            let ta = a();
            (ta, b())
        } else {
            let tb = b();
            (a(), tb)
        };
        a_ns.push(ta);
        b_ns.push(tb);
        ratios.push(tb / ta);
    }
    (a_ns, b_ns, ratios)
}

/// Publishes one sample vector under `metrics_overhead/<name>`.
fn record(name: &str, samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    record_external(
        &format!("metrics_overhead/{name}"),
        BenchRecord {
            median_ns: samples[samples.len() / 2],
            mean_ns: mean,
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
        },
    );
}

/// Converts paired ratios into overhead percentages, floored at 1% so the
/// baseline-ratio gate in CI stays stable when the true overhead is near
/// (or below) zero — a 0.1% → 0.4% swing is runner noise, not a
/// regression, and must not trip a 3× ratio check.
fn overhead_pct(ratios: &[f64]) -> Vec<f64> {
    ratios
        .iter()
        .map(|r| ((r - 1.0) * 100.0).max(1.0))
        .collect()
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_overhead");
    let service = seeded_service();
    const QUERY: &str = "QUERY CERTAIN edge";

    // read path, spans enabled vs disabled — paired, interleaved
    let (mut on, mut off, _) = paired_run(
        ROUNDS,
        &mut || {
            set_enabled(&service, true);
            sample(100, &mut || {
                black_box(service.execute(QUERY).expect("query"));
            })
        },
        &mut || {
            set_enabled(&service, false);
            sample(100, &mut || {
                black_box(service.execute(QUERY).expect("query"));
            })
        },
    );
    record("query_on", &mut on);
    record("query_off", &mut off);

    let (mut on, mut off, _) = paired_run(
        ROUNDS,
        &mut || {
            set_enabled(&service, true);
            sample(10_000, &mut || {
                black_box(service.snapshot().epoch());
            })
        },
        &mut || {
            set_enabled(&service, false);
            sample(10_000, &mut || {
                black_box(service.snapshot().epoch());
            })
        },
    );
    record("snapshot_on", &mut on);
    record("snapshot_off", &mut off);
    set_enabled(&service, true);

    // PROFILE vs QUERY on the same hypothetical closure — the paired
    // per-round delta is the record CI gates (<5% acceptance, published
    // as a percentage)
    let query_tc = format!("QUERY {TC}");
    let profile_tc = format!("PROFILE {TC}");
    let (mut q, mut p, ratios) = paired_run(
        ROUNDS,
        &mut || {
            sample(4, &mut || {
                black_box(service.execute(&query_tc).expect("query"));
            })
        },
        &mut || {
            sample(4, &mut || {
                black_box(service.execute(&profile_tc).expect("profile"));
            })
        },
    );
    record("query_transform", &mut q);
    record("profile_transform", &mut p);
    record("profile_overhead", &mut overhead_pct(&ratios));

    // the same closure with spans enabled vs disabled: the read that runs
    // the engine's per-evaluation and per-round spans (load, round, commit,
    // materialize), a hundred rounds of them — paired like the rest
    let (mut on, mut off, _) = paired_run(
        ROUNDS,
        &mut || {
            set_enabled(&service, true);
            sample(4, &mut || {
                black_box(service.execute(&query_tc).expect("query"));
            })
        },
        &mut || {
            set_enabled(&service, false);
            sample(4, &mut || {
                black_box(service.execute(&query_tc).expect("query"));
            })
        },
    );
    record("transform_on", &mut on);
    record("transform_off", &mut off);
    set_enabled(&service, true);

    // primitive costs, on a private registry
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
}

criterion_group!(name = metrics; config = quick_criterion(); targets = benches);
criterion_main!(metrics);
