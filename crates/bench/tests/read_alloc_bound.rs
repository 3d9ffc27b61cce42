//! An upper bound on what one read over a large vocabulary allocates.
//!
//! A service holding 20 000 named individuals in one unary relation plus a
//! 200-row view — `abox_read`'s shape: a dictionary far larger than any
//! answer.  Three reads are measured end to end, `Service::execute_traced`
//! then `proto::write_response` into a reused buffer (what a session does
//! for every command): the bare `QUERY CERTAIN view` (200 rows rendered),
//! a bound `QUERY CERTAIN view('ind7')` answered from the table (one row),
//! and `QUERY CERTAIN view('ghost')`, whose goal names an individual the
//! vocabulary does not hold (no row).  The first two intern no name; the
//! third interns `'ghost'` into the read's own handle.
//!
//! The bound pins three things.  A read parses against a *handle* on the
//! snapshot's vocabulary, not a copy of it: when `Vocabulary` was five
//! owned collections, each of the first two reads opened with a deep copy
//! of all 20 002 entries and allocated 1 836 244 bytes in 45 113
//! allocations (bare) and 1 809 478 in 43 132 (bound), of which the answer
//! was a hundredth.  A reply holds its answer, not its text: the facts are
//! rendered as the reply is written, each into one scratch line the whole
//! reply reuses, so the rows cost no allocation at all — while every fact
//! was rendered into a `String` of its own, the bare read allocated
//! 7 569 bytes in 208 allocations, one per fact and eight around them.
//! And a read that interns a name copies only the pieces of the vocabulary
//! it appends to (the open chunk of names and the open index level,
//! `kbt_data::vocabulary`'s module docs): while the handle copied every
//! name on its first miss, the third read allocated 2 289 237 bytes in
//! 43 120 allocations.  They now allocate `MEASURED_BARE` (9 allocations),
//! `MEASURED_BOUND` (18) and `MEASURED_GHOST` (26); the test allows 10 % on
//! top, more than two orders of magnitude short of what going back would
//! cost.
//!
//! Bytes depend on name lengths; the number of allocations does not.  So
//! the test also holds the 200-row read to the *count* of the one-row read
//! plus `ROW_FREE_SLACK`: a read allocates O(1), not O(rows), and a
//! `String` per row again would miss that by some 190 allocations.
//!
//! Like `eval_alloc_bound.rs`, this binary runs without the test harness,
//! on its `main` thread alone: `kbt_bench::alloc_counter` is
//! process-global.

use kbt_bench::alloc_counter;
use kbt_service::net::proto;
use kbt_service::{Service, ServiceConfig};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Bytes allocated by the bare 200-row read when the bound was set.
const MEASURED_BARE: u64 = 95;
/// Bytes allocated by the tabled one-row read when the bound was set.
const MEASURED_BOUND: u64 = 495;
/// Allocations the bare 200-row read may make beyond the tabled one-row
/// read's: the two differ in how they find their answer, not in what
/// writing a row costs.
const ROW_FREE_SLACK: u64 = 4;
/// Bytes allocated by the read that interns an unknown name when the bound
/// was set.
const MEASURED_GHOST: u64 = 15_977;

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

fn main() {
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

    let (bare, bound, ghost) = (
        "QUERY CERTAIN view",
        "QUERY CERTAIN view('ind7')",
        "QUERY CERTAIN view('ghost')",
    );
    // first calls: the buffer grows to the reply's size, the bound goals
    // are materialized and tabled, metrics register
    let mut wire = Vec::new();
    read(&service, bare, &mut wire);
    read(&service, bound, &mut wire);
    read(&service, ghost, &mut wire);

    let (bare_allocs, bare_bytes) = read(&service, bare, &mut wire);
    assert_eq!(wire.iter().filter(|b| **b == b'\n').count(), 201);
    let (bound_allocs, bound_bytes) = read(&service, bound, &mut wire);
    assert!(
        wire.starts_with(b"= view('ind7')\nOK id=t1 epoch=41 strategy=tabled "),
        "{}",
        String::from_utf8_lossy(&wire)
    );
    let (ghost_allocs, ghost_bytes) = read(&service, ghost, &mut wire);
    assert!(
        wire.starts_with(b"OK id=t1 epoch=41 "),
        "{}",
        String::from_utf8_lossy(&wire)
    );
    // the read's own handle interned the name; the snapshot never sees it
    assert_eq!(service.snapshot().vocab().lookup_constant("ghost"), None);
    println!("bare 200-row read: allocs {bare_allocs}  bytes {bare_bytes}");
    println!("tabled 1-row read: allocs {bound_allocs}  bytes {bound_bytes}");
    println!("interning 0-row read: allocs {ghost_allocs}  bytes {ghost_bytes}");
    assert!(
        bare_allocs <= bound_allocs + ROW_FREE_SLACK,
        "the 200-row read made {bare_allocs} allocations, the one-row read \
         {bound_allocs}: rows must not allocate"
    );
    assert!(
        bare_bytes <= MEASURED_BARE + MEASURED_BARE / 10,
        "the bare read allocated {bare_bytes} bytes; the bound is 10 % over {MEASURED_BARE}"
    );
    assert!(
        bound_bytes <= MEASURED_BOUND + MEASURED_BOUND / 10,
        "the tabled read allocated {bound_bytes} bytes; the bound is 10 % over {MEASURED_BOUND}"
    );
    assert!(
        ghost_bytes <= MEASURED_GHOST + MEASURED_GHOST / 10,
        "the interning read allocated {ghost_bytes} bytes; the bound is 10 % over {MEASURED_GHOST}"
    );
}
