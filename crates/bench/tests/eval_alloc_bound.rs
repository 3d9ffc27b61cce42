//! An upper bound on what one from-scratch evaluation allocates.
//!
//! Two transitive closures over a 1 000-edge braid (100 disjoint chains
//! of 10 edges, closure of 5 500 pairs), each evaluated once at
//! **width 1** — the counts depend on the width (per-task buffers), so the
//! default width would make the bounds machine-dependent.  At width 1 they
//! are exact and repeat.
//!
//! The linear closure (`path ⋈ edge`) pins the engine's write path by
//! bytes: every derived fact is written into its round's run and from
//! there into the tail arena, the run is moved out as the next delta, the
//! stored `edge` relation is never copied (it is the first segment of the
//! relation the engine reads, and its one index is built on its run), and
//! the result is merged from runs.  Before that (row-by-row commit into storage *and* a
//! throw-away indexed delta, a mirror-event copy, a copy-and-sort
//! materialisation, a membership table over every stored fact) the same
//! evaluation allocated 1 864 713 bytes, and 882 241 while every index key
//! still owned a heap `Vec` of ids, 601 753 while a load copied
//! `edge` into a private arena, 511 845 while the interpreter kept an
//! undo list per step and a bag per head relation per task, and 506 689
//! while the head's tail hashed every derived fact into a chained
//! membership table (its keys now sit in sorted levels, 8 B a row, until
//! something asks for a row by key); it now allocates `MEASURED`, and the
//! test allows 10 % on top — well short of what going back would cost.
//!
//! The non-linear closure (`path ⋈ path`) pins the buckets of a probed head
//! relation by allocation count: `path` grows every round under two
//! indexes (first column and second column bound) and its membership:
//! once a chained table, now sorted key levels that the fixpoint filter
//! gallops through.
//! When every key of those owned a heap `Vec` of ids it took 5 361
//! allocations (1 356 450 bytes); with one chained id table per index it
//! took 361, and with static binding schedules (no undo lists) 331 —
//! `MEASURED_NONLINEAR_ALLOCS`; the test allows 10 % on top.  With sorted
//! key levels it takes 333, within that bound, which stays where it was.
//!
//! Like `zero_alloc.rs`, this binary runs without the test harness, on its
//! `main` thread alone: `kbt_bench::alloc_counter` is process-global.

use kbt_bench::alloc_counter;
use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_datalog::{semi_naive_eval_threads, DlAtom, Program, Rule};
use kbt_logic::builder::var;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Bytes allocated by the measured linear closure when the bound was set.
const MEASURED: u64 = 327_025;

/// Allocations made by the measured non-linear closure when the bound was
/// set.
const MEASURED_NONLINEAR_ALLOCS: u64 = 331;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), `second`(y,z) — with
/// `second` = edge the linear closure, with `second` = path the non-linear
/// one.
fn tc_program(second: RelId) -> Program {
    let edge = |a, b| DlAtom::new(r(1), vec![a, b]);
    let path = |a, b| DlAtom::new(r(2), vec![a, b]);
    Program::new(vec![
        Rule::new(path(var(1), var(2)), vec![edge(var(1), var(2))]),
        Rule::new(
            path(var(1), var(3)),
            vec![
                path(var(1), var(2)),
                DlAtom::new(second, vec![var(2), var(3)]),
            ],
        ),
    ])
    .unwrap()
}

/// `chains` disjoint chains of 10 edges each, 11 constants apart.
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

/// `(allocations, bytes)` of one evaluation of `program`, after a first
/// one that pays for metric registration and anything else done once.
fn measure(program: &Program, edb: &Database) -> (u64, u64) {
    let (warm, _) = semi_naive_eval_threads(program, edb, 1).unwrap();
    assert_eq!(warm.relation(r(2)).unwrap().len(), 5_500);
    alloc_counter::reset();
    let result = semi_naive_eval_threads(program, edb, 1).unwrap();
    let counts = alloc_counter::snapshot();
    std::hint::black_box(result);
    counts
}

fn main() {
    let edb = braid(100);
    let (allocs, bytes) = measure(&tc_program(r(1)), &edb);
    println!("one-shot linear TC, 1000 edges, width 1: allocs {allocs}  bytes {bytes}");
    let (nl_allocs, nl_bytes) = measure(&tc_program(r(2)), &edb);
    println!("one-shot non-linear TC, 1000 edges, width 1: allocs {nl_allocs}  bytes {nl_bytes}");
    assert!(
        bytes <= MEASURED + MEASURED / 10,
        "the linear closure allocated {bytes} bytes; the bound is 10 % over {MEASURED}"
    );
    assert!(
        nl_allocs <= MEASURED_NONLINEAR_ALLOCS + MEASURED_NONLINEAR_ALLOCS / 10,
        "the non-linear closure made {nl_allocs} allocations; the bound is 10 % over \
         {MEASURED_NONLINEAR_ALLOCS}"
    );
}
