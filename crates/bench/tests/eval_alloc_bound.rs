//! An upper bound on what one from-scratch evaluation allocates.
//!
//! Linear transitive closure over a 1 000-edge braid (100 disjoint chains
//! of 10 edges, closure of 5 500 pairs), evaluated once at
//! **width 1** — the count depends on the width (per-task buffers), so the
//! default width would make the bound machine-dependent.  At width 1 it is
//! exact and repeats.
//!
//! The bound pins the engine's write path: every derived fact is written
//! into its round's run and from there into the arena, the run is moved
//! out as the next delta, the stored `edge` relation is copied once and
//! never hashed, and the result is merged from runs.  Before that (row-by-row
//! commit into storage *and* a throw-away indexed delta, a mirror-event
//! copy, a copy-and-sort materialisation, a membership table over every
//! stored fact) the same evaluation allocated 1 864 713 bytes; it now
//! allocates `MEASURED` (0.47 ×), and the test allows 10 % on top — well
//! short of what going back would cost.
//!
//! Like `zero_alloc.rs`, this binary holds exactly one `#[test]`:
//! `kbt_bench::alloc_counter` is process-global.

use kbt_bench::alloc_counter;
use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_datalog::{semi_naive_eval_threads, DlAtom, Literal, Program, Rule};
use kbt_logic::builder::var;

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Bytes allocated by the measured evaluation when the bound was set.
const MEASURED: u64 = 876_677;

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

#[test]
fn one_shot_closure_allocates_within_its_bound() {
    let program = tc_program();
    let edb = braid(100);
    // first call: metric registration and anything else that happens once
    let (warm, _) = semi_naive_eval_threads(&program, &edb, 1).unwrap();
    assert_eq!(warm.relation(r(2)).unwrap().len(), 5_500);

    alloc_counter::reset();
    let result = semi_naive_eval_threads(&program, &edb, 1).unwrap();
    let (allocs, bytes) = alloc_counter::snapshot();
    std::hint::black_box(result);
    println!("one-shot TC, 1000 edges, width 1: allocs {allocs}  bytes {bytes}");
    assert!(
        bytes <= MEASURED + MEASURED / 10,
        "one from-scratch evaluation allocated {bytes} bytes; the bound is 10 % over {MEASURED}"
    );
}
