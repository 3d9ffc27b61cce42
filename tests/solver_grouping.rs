//! One solve per group of worlds, by count.
//!
//! A `τ_φ` step on a multi-world knowledgebase solves `µ` once per group of
//! worlds that agree on the domain and on `σ(φ)`.  The non-Horn cover
//! query below mentions only `e` and the fresh cover relation `c`, so on
//! four worlds that differ only in `marked` it must move the solver's
//! counters exactly as much as on one of those worlds alone.  On four
//! worlds that differ in `e`, each by one pendant edge at node 1 that costs
//! the search the same, it must move them 4× as much.
//!
//! The counters are `kbt_solver::metrics()`, which are process-global, so
//! this binary holds exactly one `#[test]`.

use kbt::service::{Service, ServiceConfig};

/// A 9-cycle with three chords: 90 mentioned atoms, 12 minimal covers.
const EDGES: &str = "ASSERT e(1, 2), e(2, 3), e(3, 4), e(4, 5), e(5, 6), e(6, 7), e(7, 8), \
     e(8, 9), e(9, 1), e(1, 4), e(2, 6), e(3, 8)";
const NODES: &str = "ASSERT n(1), n(2), n(3), n(4), n(5), n(6), n(7), n(8), n(9)";
const COVER: &str = "QUERY tau[forall x y. e(x, y) -> (c(x) | c(y))]; project[c]";

/// `(solves, minimal models)` the cover query adds to the solver counters
/// on a service set up by `setup`.
fn cover_work(setup: &[&str]) -> (u64, u64) {
    let service = Service::new(ServiceConfig::builder().threads(1).build());
    for command in setup {
        service.execute(command).unwrap();
    }
    let metrics = kbt::solver::metrics();
    let before = (
        metrics.solves_total.get(),
        metrics.minimal_models_total.get(),
    );
    service.execute(COVER).unwrap();
    (
        metrics.solves_total.get() - before.0,
        metrics.minimal_models_total.get() - before.1,
    )
}

#[test]
fn four_worlds_that_share_e_cost_one_solve() {
    let split = "DEFINE split := tau[(marked(1) | marked(2)) & (marked(5) | marked(6))]";
    let four = cover_work(&[EDGES, NODES, split, "APPLY split"]);
    let one = cover_work(&[EDGES, NODES, "ASSERT marked(1), marked(5)"]);
    println!("four worlds sharing e: {four:?}, one of them alone: {one:?}");
    // stage one finds the one minimal flip set (flip nothing), stage two
    // the twelve covers
    assert!(one.0 > 0 && one.1 == 13, "one world: {one:?}");
    assert_eq!(four, one, "four worlds that share e must share one solve");

    // four worlds that each add one pendant edge at node 1, to 10 or to 11
    // in either direction: no two agree on e, so each is solved, and each
    // costs what it costs alone — the same for all four
    let pendants = ["e(10, 1)", "e(11, 1)", "e(1, 10)", "e(1, 11)"];
    let spare = "ASSERT n(10), n(11)";
    let differ = format!("DEFINE differ := tau[{}]", pendants.join(" | "));
    let four = cover_work(&[EDGES, NODES, spare, &differ, "APPLY differ"]);
    let alone: Vec<(u64, u64)> = pendants
        .iter()
        .map(|edge| cover_work(&[EDGES, NODES, spare, &format!("ASSERT {edge}")]))
        .collect();
    println!("four worlds differing on e: {four:?}, each alone: {alone:?}");
    assert!(alone.iter().all(|&w| w == alone[0]), "{alone:?}");
    assert_eq!(
        four,
        (4 * alone[0].0, 4 * alone[0].1),
        "worlds that differ on e are solved one by one"
    );
}
