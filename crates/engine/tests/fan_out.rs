//! The fan-out of a fixpoint round, pinned by count.
//!
//! A round whose driving scans clear the engine's threshold is split into
//! chunk tasks and handed to `kbt_par::map`, which runs them on scoped
//! helper threads at widths above 1; losing that fan-out costs
//! `closure_scan` about 11 % of its read latency and changes no byte of
//! any result, so no differential would notice.  This test does: it
//! counts the fanned-out `map` calls (`kbt_par_scopes_total`) around one
//! braid closure at width 1 and at width 2.  The count depends only on
//! the driving-tuple counts of the rounds, so it is exact on any machine.
//! It is a binary of its own because the counters are process-global.

use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_engine::evaluate;
use kbt_engine::ir::{Atom, Program, Rule, Term};

/// `kbt_par_scopes_total` over one width-2 evaluation of the braid closure
/// below, recorded at the parent of the change that reduced the pool to
/// one `map`.
const SCOPES_AT_WIDTH_2: u64 = 14;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// path(x,y) :- edge(x,y).  path(x,z) :- path(x,y), edge(y,z).
fn tc_program() -> Program {
    let s = Term::Slot;
    Program::new(vec![
        Rule::new(
            Atom::new(r(2), vec![s(0), s(1)]),
            vec![Atom::new(r(1), vec![s(0), s(1)])],
        )
        .unwrap(),
        Rule::new(
            Atom::new(r(2), vec![s(0), s(2)]),
            vec![
                Atom::new(r(2), vec![s(0), s(1)]),
                Atom::new(r(1), vec![s(1), s(2)]),
            ],
        )
        .unwrap(),
    ])
}

/// `chains` disjoint chains of `len` edges each: the early rounds drive
/// well over the fan-out threshold, the late ones fall below it.
fn braid_db(chains: u32, len: u32) -> Database {
    let mut b = DatabaseBuilder::new().relation(r(1), 2);
    for c in 0..chains {
        let base = c * (len + 2) + 1;
        for i in 0..len {
            b = b.fact(r(1), [base + i, base + i + 1]);
        }
    }
    b.build().unwrap()
}

/// (`kbt_par_scopes_total`, `kbt_par_contended_scopes_total`) right now.
fn pool_counts() -> (u64, u64) {
    let m = kbt_par::metrics();
    (m.scopes_total.get(), m.contended_scopes_total.get())
}

#[test]
fn braid_closure_rounds_fan_out_at_width_2_and_run_inline_at_width_1() {
    let program = tc_program();
    let edb = braid_db(64, 16);

    let start = pool_counts();
    let (seq, seq_stats) = evaluate(&program, &edb, 1, None, None).unwrap();
    let inline = pool_counts();
    let (par, par_stats) = evaluate(&program, &edb, 2, None, None).unwrap();
    let end = pool_counts();
    println!(
        "scopes: width 1 {}, width 2 {}; contended {}",
        inline.0 - start.0,
        end.0 - inline.0,
        end.1 - start.1
    );

    assert_eq!(seq, par, "the fixpoint differs between widths 1 and 2");
    assert_eq!(seq_stats, par_stats, "the counters differ between widths");
    assert_eq!(inline.0 - start.0, 0, "width 1 must never reach the pool");
    assert_eq!(
        end.0 - inline.0,
        SCOPES_AT_WIDTH_2,
        "the width-2 rounds stopped fanning out as they did"
    );
    assert_eq!(end.1 - start.1, 0, "nothing else holds the pool here");
}
