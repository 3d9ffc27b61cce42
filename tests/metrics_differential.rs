//! Observability must be invisible to evaluation: fixpoints and
//! `EngineStats` are byte-identical at every thread width whether the
//! metrics layer is enabled or disabled.
//!
//! This file deliberately holds a single `#[test]`: it toggles the
//! process-global registry's enabled flag, which would race any sibling
//! test running on another thread of the same test binary.

use kbt::data::{Database, DatabaseBuilder, RelId, Tuple};
use kbt::datalog::{semi_naive_eval_threads, DlAtom, Program, Rule};
use kbt::engine::{EngineStats, IncrementalSession};
use kbt::logic::builder::var;
use kbt::obs::Registry;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
fn tc_datalog() -> Program {
    let edge = |a, b| DlAtom::new(r(1), vec![a, b]);
    let path = |a, b| DlAtom::new(r(9), vec![a, b]);
    Program::new(vec![
        Rule::new(path(var(1), var(2)), vec![edge(var(1), var(2))]),
        Rule::new(
            path(var(1), var(3)),
            vec![path(var(1), var(2)), edge(var(2), var(3))],
        ),
    ])
    .unwrap()
}

/// Chains long enough that parallel rounds genuinely fan out.
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

/// One full workload — a from-scratch fixpoint plus an incremental
/// insert/remove cycle — at the given width, returning everything an
/// observer could compare.
fn run_workload(width: usize) -> (Database, EngineStats, Vec<EngineStats>, Database) {
    let program = tc_datalog();
    let edb = braid(60);
    let (db, stats) = semi_naive_eval_threads(&program, &edb, width).unwrap();

    let mut session = IncrementalSession::with_threads(&program, &edb, width).unwrap();
    let link: Vec<(RelId, Tuple)> = (0..6u32)
        .map(|c| (r(1), kbt::data::tuple![c * 11 + 11, c * 11 + 12]))
        .collect();
    let delta_stats = vec![
        session.insert_facts(&link).unwrap(),
        session.remove_facts(&link).unwrap(),
    ];
    (db, stats, delta_stats, session.current())
}

#[test]
fn metrics_on_and_off_are_observationally_identical() {
    let registry = Registry::global();

    // Baseline: metrics enabled (the default), widths 1 and 4.
    assert!(registry.enabled());
    let on_w1 = run_workload(1);
    let on_w4 = run_workload(4);

    // With timing enabled the engine series must actually have recorded.
    let snap = registry.snapshot();
    assert!(snap.value("kbt_engine_evals_total").unwrap() >= 2);
    assert!(snap.value("kbt_engine_rounds_total").unwrap() > 0);
    assert!(snap.value("kbt_engine_derived_facts_total").unwrap() > 0);
    let rounds_timed = snap.histogram("kbt_engine_round_ns").unwrap().count;
    assert!(rounds_timed > 0, "round spans must record when enabled");
    assert!(snap.histogram("kbt_engine_eval_ns").unwrap().count > 0);
    assert!(snap.histogram("kbt_engine_delta_ns").unwrap().count > 0);

    // Same workloads with metrics disabled.
    registry.set_enabled(false);
    let off_w1 = run_workload(1);
    let off_w4 = run_workload(4);
    registry.set_enabled(true);

    // Fixpoints and statistics: byte-identical across the toggle, at both
    // widths, and across widths within each setting.
    assert!(on_w1 == off_w1, "width 1 diverges when metrics toggle");
    assert!(on_w4 == off_w4, "width 4 diverges when metrics toggle");
    assert_eq!(on_w1.1, on_w4.1, "stats diverge across widths (metrics on)");
    assert_eq!(
        off_w1.1, off_w4.1,
        "stats diverge across widths (metrics off)"
    );
    assert!(on_w1.0 == on_w4.0 && off_w1.0 == off_w4.0);
    assert!(on_w1.3 == on_w4.3 && off_w1.3 == off_w4.3);

    // Disabled means disabled: no new timing samples were taken (work
    // counters keep counting by design).
    let after = registry.snapshot();
    assert_eq!(
        after.histogram("kbt_engine_round_ns").unwrap().count,
        rounds_timed,
        "round spans must not record while disabled"
    );
}
