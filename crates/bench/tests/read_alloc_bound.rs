//! An upper bound on what one read over a large vocabulary allocates.
//!
//! A service holding 20 000 named individuals in one unary relation plus a
//! 200-row view — `abox_read`'s shape: a dictionary far larger than any
//! answer.  Two reads are measured end to end, `Service::execute_traced`
//! then `proto::write_response` into a reused buffer (what a session does
//! for every command): the bare `QUERY CERTAIN view` (200 rows rendered)
//! and a bound `QUERY CERTAIN view('ind7')` answered from the table (one
//! row).  Neither interns a name.
//!
//! The bound pins two things.  A read parses against a *handle* on the
//! snapshot's vocabulary, not a copy of it: when `Vocabulary` was five
//! owned collections, each of these reads opened with a deep copy of all
//! 20 002 entries and allocated 1 836 244 bytes in 45 113 allocations
//! (bare) and 1 809 478 in 43 132 (bound), of which the answer was a
//! hundredth.  And a fact is rendered with one allocation and a data line
//! with none.  They now allocate `MEASURED_BARE` (208 allocations: one per
//! fact and eight around them) and `MEASURED_BOUND` (18); the test allows
//! 10 % on top, more than two orders of magnitude short of what going back
//! would cost.
//!
//! Like `eval_alloc_bound.rs`, this binary holds exactly one `#[test]`:
//! `kbt_bench::alloc_counter` is process-global.

use kbt_bench::alloc_counter;
use kbt_service::net::proto;
use kbt_service::{Service, ServiceConfig};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Bytes allocated by the bare 200-row read when the bound was set.
const MEASURED_BARE: u64 = 7_569;
/// Bytes allocated by the tabled one-row read when the bound was set.
const MEASURED_BOUND: u64 = 587;

/// Executes `line` and encodes the reply into `wire` (cleared first), as a
/// session would; returns the allocation counter's reading for just that.
fn read(service: &Service, line: &str, wire: &mut Vec<u8>) -> (u64, u64) {
    wire.clear();
    alloc_counter::reset();
    let response = service.execute_traced(line, Some("t1")).unwrap();
    proto::write_response(wire, &response, Some("t1")).unwrap();
    drop(response);
    alloc_counter::snapshot()
}

#[test]
fn reads_over_a_large_vocabulary_allocate_within_their_bound() {
    let service = Service::new(ServiceConfig::builder().threads(1).build());
    for batch in 0..40 {
        let facts: Vec<String> = (batch * 500..(batch + 1) * 500)
            .map(|k| format!("ind('ind{k}')"))
            .collect();
        service
            .execute(&format!("ASSERT {}", facts.join(", ")))
            .unwrap();
    }
    let view: Vec<String> = (0..200).map(|k| format!("view('ind{k}')")).collect();
    service
        .execute(&format!("ASSERT {}", view.join(", ")))
        .unwrap();
    assert_eq!(service.snapshot().vocab().constant_count(), 20_000);

    let (bare, bound) = ("QUERY CERTAIN view", "QUERY CERTAIN view('ind7')");
    // first calls: the buffer grows to the reply's size, the bound goal is
    // materialized and tabled, metrics register
    let mut wire = Vec::new();
    read(&service, bare, &mut wire);
    read(&service, bound, &mut wire);

    let (bare_allocs, bare_bytes) = read(&service, bare, &mut wire);
    assert_eq!(wire.iter().filter(|b| **b == b'\n').count(), 201);
    let (bound_allocs, bound_bytes) = read(&service, bound, &mut wire);
    assert!(
        wire.starts_with(b"= view('ind7')\nOK id=t1 epoch=41 strategy=tabled "),
        "{}",
        String::from_utf8_lossy(&wire)
    );
    println!("bare 200-row read: allocs {bare_allocs}  bytes {bare_bytes}");
    println!("tabled 1-row read: allocs {bound_allocs}  bytes {bound_bytes}");
    assert!(
        bare_bytes <= MEASURED_BARE + MEASURED_BARE / 10,
        "the bare read allocated {bare_bytes} bytes; the bound is 10 % over {MEASURED_BARE}"
    );
    assert!(
        bound_bytes <= MEASURED_BOUND + MEASURED_BOUND / 10,
        "the tabled read allocated {bound_bytes} bytes; the bound is 10 % over {MEASURED_BOUND}"
    );
}
