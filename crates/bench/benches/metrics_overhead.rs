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
//! does not depend on how fast the machine is.  Each comparison prints its
//! lower and upper quartile beside the median, so a run over the budget
//! shows whether the rounds spread across it (noise) or sit above it (a
//! level).
//!
//! * `QUERY CERTAIN edge` with spans enabled ÷ disabled;
//! * a hypothetical transitive closure — the read that runs the engine's
//!   per-evaluation and per-round spans (load, round, commit,
//!   materialize), a hundred rounds of them — with spans enabled ÷
//!   disabled;
//! * `PROFILE` ÷ `QUERY` on that closure (per-rule rows recorded vs none).
//!
//! The spans comparisons time each command as a session serves it:
//! `execute`, then `proto::write_response` into a reused buffer.  A read's
//! reply holds its answer and its rows are rendered in the write, so
//! timing `execute` alone would leave the rendering out of the read path.
//! `PROFILE` ÷ `QUERY` times `execute` alone on both sides, so that both
//! do the same work but the profiling: written out, the `QUERY` reply
//! renders the closure's ≈ 5 150 facts where the `PROFILE` reply has two
//! rule rows, and the ratio would compare rendering instead.
//!
//! A closure read takes about a millisecond, and one round's ratio of two
//! such timings spreads by several percent, so the closure comparisons take
//! [`CLOSURE_ROUNDS`] rounds, many more than the stored read's
//! [`ROUNDS`]: with twenty, the median of `closure spans on/off` read above
//! the budget by chance about one run in twenty on unchanged code.
//!
//! Counters record in both settings by design — only clock reads are
//! gated — which is why the disabled variants are not a zero-instrumentation
//! baseline but the documented "disabled" cost model (one relaxed load per
//! span site).
//!
//! The primitive timings (`counter_inc`, `histogram_record`,
//! `span_enabled`, `span_disabled`: the median over `PRIMITIVE_SAMPLES`
//! samples of `PRIMITIVE_CALLS` calls) show the per-operation costs the
//! crate docs of `kbt-obs` promise; they are printed, not gated.

use std::hint::black_box;
use std::time::Instant;

use kbt_obs::Registry;
use kbt_service::net::proto;
use kbt_service::{Service, ServiceConfig};

/// Chain length of the seeded graph.
const EDGES: u32 = 100;

/// Paired rounds of the stored-read comparison (each round times both
/// variants); a multiple of 4, so the quartiles fall between two rounds.
const ROUNDS: usize = 20;

/// Paired rounds of each closure comparison, a multiple of 4 as well.
const CLOSURE_ROUNDS: usize = 200;

/// Calls per sample, and samples, of each primitive's timing.
const PRIMITIVE_CALLS: u32 = 100_000;
const PRIMITIVE_SAMPLES: usize = 10;

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

/// Prints the median ns per call of `f` over `PRIMITIVE_SAMPLES` samples.
fn primitive(name: &str, mut f: impl FnMut()) {
    let mut ns: Vec<f64> = (0..PRIMITIVE_SAMPLES)
        .map(|_| sample(PRIMITIVE_CALLS, &mut f))
        .collect();
    ns.sort_by(f64::total_cmp);
    println!(
        "{:<60} median {:.2} ns per call",
        format!("metrics_overhead/{name}"),
        ns[PRIMITIVE_SAMPLES / 2]
    );
}

/// The lower quartile, the median and the upper quartile of a
/// comparison's per-round ratios: the gate reads the median, and the
/// spread beside it shows whether a red run is noise or a level.
#[derive(Clone, Copy, Debug)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

/// Interleaved paired sampling: each of `rounds` rounds (a multiple of 4)
/// times `plain` and `instrumented` back to back, swapping which goes first
/// between rounds.  Returns the quartiles of the per-round ratios
/// instrumented ÷ plain.
fn paired_ratio(
    rounds: usize,
    plain: &mut impl FnMut() -> f64,
    instrumented: &mut impl FnMut() -> f64,
) -> Quartiles {
    let mut ratios: Vec<f64> = (0..rounds)
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
    // the k-th quartile of the sorted ratios
    let at = |k: usize| {
        let i = k * ratios.len() / 4;
        (ratios[i - 1] + ratios[i]) / 2.0
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
    }
}

/// Serves `command` as a session does: executes it and writes the reply
/// into a reused buffer (a read's rows are rendered in the write).
fn serve(service: &Service, command: &str, wire: &mut Vec<u8>) {
    wire.clear();
    let response = service.execute(command).expect("read");
    proto::write_response(wire, &response, None).expect("writing to a Vec cannot fail");
    black_box(wire);
}

/// Spans enabled ÷ disabled on `iters` executions of `command` per
/// sample, over `rounds` paired rounds.
fn spans_ratio(service: &Service, command: &str, iters: u32, rounds: usize) -> Quartiles {
    let run = |enabled: bool, wire: &mut Vec<u8>| {
        set_enabled(service, enabled);
        sample(iters, &mut || serve(service, command, wire))
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let ratio = paired_ratio(rounds, &mut || run(false, &mut off), &mut || {
        run(true, &mut on)
    });
    set_enabled(service, true);
    ratio
}

fn main() {
    let service = seeded_service();
    let query_tc = format!("QUERY {TC}");
    let profile_tc = format!("PROFILE {TC}");
    // `execute` alone: the reply is dropped unwritten (see the module docs)
    let executed = |command: &str| {
        sample(4, &mut || {
            black_box(service.execute(command).expect("read"));
        })
    };
    let comparisons = [
        (
            "query_certain_edge spans on/off",
            spans_ratio(&service, "QUERY CERTAIN edge", 100, ROUNDS),
        ),
        (
            "closure spans on/off",
            spans_ratio(&service, &query_tc, 4, CLOSURE_ROUNDS),
        ),
        (
            "closure PROFILE/QUERY",
            paired_ratio(CLOSURE_ROUNDS, &mut || executed(&query_tc), &mut || {
                executed(&profile_tc)
            }),
        ),
    ];
    for (name, Quartiles { q1, median, q3 }) in &comparisons {
        println!(
            "{:<60} median paired ratio: {median:.3}  (quartiles {q1:.3} .. {q3:.3})",
            format!("metrics_overhead/{name}")
        );
    }

    // primitive costs, on a private registry
    let registry = Registry::new();
    let counter = registry.counter("bench_counter");
    primitive("counter_inc", || counter.inc());
    let hist = registry.histogram("bench_hist_ns");
    primitive("histogram_record", || hist.record(black_box(1234)));
    primitive("span_enabled", || drop(hist.span()));
    registry.set_enabled(false);
    primitive("span_disabled", || drop(hist.span()));

    let over: Vec<_> = comparisons
        .iter()
        .filter(|(_, ratio)| ratio.median > BUDGET)
        .collect();
    assert!(
        over.is_empty(),
        "instrumentation over its {BUDGET} paired budget: {over:?}"
    );
}
