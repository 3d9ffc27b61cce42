//! A commit costs its delta, and so does the first read after it.
//!
//! The commit pipeline stores relations as a shared base run plus a small
//! sorted delta (`kbt_data::relation`), and a read loads the base as its
//! first segment — whose indexes are cached on the run — and the delta as
//! its tail and tombstones (`kbt_engine::index`).  So on a braid of 2 000
//! chains whose closure `reach` is kept by a registered chain:
//!
//! * an `ASSERT` of 8 edges writes no stored row into a fresh run
//!   (`kbt_data_rows_copied_total`);
//! * the first goal read after the `APPLY` that follows builds exactly as
//!   many indexes as a second read at another binding — none of them over
//!   the stored runs again, only over the small tails — and
//!   `kbt_engine_shared_index_bytes` does not grow.
//!
//! When a commit wrote fresh runs instead, the first read rebuilt the
//! indexes of `edge` and `reach` (3 builds against 1, and +512 KB).
//!
//! The chain's engine session re-seats each relation it hands out on the
//! run it lands on (`kbt_engine::index`), so its tables and the readers'
//! are one index per run and mask: after the first `APPLY`, a goal read
//! bound on `reach`'s second column — the mask the session's delta plan
//! probes `reach` by — builds no index over `reach`'s run.  When the
//! session's tables were private to its tail, that read built one
//! (2 builds against 1).
//!
//! The counters are process-global, so this file holds one test.

use kbt_service::{Response, Service, ServiceConfig};

const CHAINS: u32 = 2_000;
const STRIDE: u32 = 32;

fn edges(chain: u32, from: u32, to: u32) -> String {
    (from..to)
        .map(|i| format!("edge({}, {})", chain * STRIDE + i, chain * STRIDE + i + 1))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `(index builds, shared index bytes, rows copied)` so far.
fn counters() -> (u64, u64, u64) {
    let engine = kbt_engine::metrics();
    (
        engine.index_builds_total.get(),
        engine.shared_index_bytes.get(),
        kbt_data::metrics().rows_copied_total.get(),
    )
}

fn facts(s: &Service, query: &str) -> usize {
    match s.execute(query).unwrap() {
        Response::Facts { facts, .. } => facts.len(),
        other => panic!("expected facts, got {other:?}"),
    }
}

/// The nodes `node` reaches.
fn read(s: &Service, node: u32) -> usize {
    facts(s, &format!("QUERY CERTAIN reach({node}, x)"))
}

/// The nodes that reach `node`.
fn read_to(s: &Service, node: u32) -> usize {
    facts(s, &format!("QUERY CERTAIN reach(x, {node})"))
}

#[test]
fn the_first_read_after_a_commit_builds_what_a_second_read_builds() {
    let s = Service::new(ServiceConfig::builder().threads(1).build());
    for batch in (0..CHAINS).collect::<Vec<_>>().chunks(12) {
        let facts: Vec<String> = batch.iter().map(|&c| edges(c, 0, 10)).collect();
        s.execute(&format!("ASSERT {}", facts.join(", "))).unwrap();
    }
    s.execute(
        "DEFINE refresh := project[edge]; tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
         (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]",
    )
    .unwrap();
    // a goal bound on the second column indexes `edge` by it, once
    assert_eq!(read_to(&s, 3 * STRIDE + 5), 5);
    s.execute("APPLY refresh").unwrap();
    let applied = counters();
    assert_eq!(read_to(&s, 4 * STRIDE + 5), 5);
    let first = counters();
    assert_eq!(read_to(&s, 5 * STRIDE + 7), 7);
    let second = counters();
    assert_eq!(
        first.0 - applied.0,
        second.0 - first.0,
        "the first read of the published reach builds what a second read builds"
    );
    assert_eq!(
        first.1, applied.1,
        "the session built the read's index over reach's run"
    );
    // one step of the chain, and a read that indexes the stored runs
    s.execute(&format!("ASSERT {}", edges(7, 10, 18))).unwrap();
    s.execute("APPLY refresh").unwrap();
    assert_eq!(read(&s, 7 * STRIDE), 18);

    let before = counters();
    s.execute(&format!("ASSERT {}", edges(11, 10, 18))).unwrap();
    let asserted = counters();
    assert_eq!(
        asserted.2, before.2,
        "an ASSERT of 8 edges copies no stored row"
    );

    s.execute("APPLY refresh").unwrap();
    let applied = counters();
    assert_eq!(read(&s, 11 * STRIDE + 3), 15);
    let first = counters();
    assert_eq!(read(&s, 11 * STRIDE + 5), 13);
    let second = counters();
    assert_eq!(
        first.0 - applied.0,
        second.0 - first.0,
        "the first read after the commit builds what a second read builds"
    );
    assert_eq!(
        second.1, applied.1,
        "neither read builds an index over a stored run"
    );
}
