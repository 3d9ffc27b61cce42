//! Which index a stored run gets, pinned by count.
//!
//! A stored run whose first column is dense answers its first-column
//! probes and its membership checks from one offsets array (see
//! `kbt_engine::index`); a sparse one keeps a chained hash table per mask.
//! The kind changes what a read builds, never what it answers: these tests
//! read the build counter around one evaluation of each, and check both
//! against `kbt_datalog::reference_semi_naive_eval` and against each other,
//! every `EngineStats` counter included.  A change that quietly goes back
//! to hashing a dense run fails the count.
//!
//! The build counter is process-global, so every test holds `SERIAL` while
//! it reads it.

use std::sync::{Mutex, MutexGuard};

use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_datalog::{reference_semi_naive_eval, DlAtom, Program, Rule};
use kbt_engine::{evaluate, metrics, EngineStats};
use kbt_logic::builder::var;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const EDGE: u32 = 1;
const TWO_STEP: u32 = 2;
const MUTUAL: u32 = 3;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// `two_step(x, z) :- edge(x, y), edge(y, z)` probes `edge` on its first
/// column; `mutual(x, y) :- edge(x, y), edge(y, x)` checks `edge`'s
/// membership.  `edge` is the only stored relation the rules read.
fn program() -> Program {
    let edge = |a, b| DlAtom::new(r(EDGE), vec![var(a), var(b)]);
    Program::new(vec![
        Rule::new(
            DlAtom::new(r(TWO_STEP), vec![var(1), var(3)]),
            vec![edge(1, 2), edge(2, 3)],
        ),
        Rule::new(
            DlAtom::new(r(MUTUAL), vec![var(1), var(2)]),
            vec![edge(1, 2), edge(2, 1)],
        ),
    ])
    .unwrap()
}

/// Chains of five edges with every other one closed into a cycle, and a
/// few two-cycles — every node numbered `scale` times its dense number, so
/// `scale = 1` is dense and a large scale is sparse, with the rows in the
/// same order either way.
fn graph(scale: u32) -> Database {
    let mut b = DatabaseBuilder::new().relation(r(EDGE), 2);
    let mut edge =
        |a: u32, c: u32| b = std::mem::take(&mut b).fact(r(EDGE), [a * scale, c * scale]);
    for chain in 0..40 {
        let base = chain * 6;
        for i in 0..5 {
            edge(base + i, base + i + 1);
        }
        if chain % 2 == 0 {
            edge(base + 5, base);
        }
        if chain % 5 == 0 {
            edge(base + 1, base);
        }
    }
    b.build().unwrap()
}

/// One evaluation over fresh runs: its result, its counters, and the
/// indexes it built.
fn read(edb: &Database) -> (Database, EngineStats, u64) {
    let before = metrics().index_builds_total.get();
    let (fix, stats) = evaluate(&program(), edb, 1, None, None).unwrap();
    (fix, stats, metrics().index_builds_total.get() - before)
}

#[test]
fn a_dense_stored_run_builds_one_offsets_array_for_probes_and_membership() {
    let _serial = serial();
    let edb = graph(1);
    let (fix, stats, built) = read(&edb);
    assert_eq!(
        built, 1,
        "edge's offsets serve its probe and its membership"
    );
    assert_eq!(fix, reference_semi_naive_eval(&program(), &edb).unwrap().0);
    assert!(stats.index_probes > 0);
    assert_eq!(read(&edb).2, 0, "cached on the run");
}

#[test]
fn a_sparse_stored_run_keeps_its_chained_tables_and_answers_the_same() {
    let _serial = serial();
    let (dense, sparse) = (graph(1), graph(1_000));
    let (_, dense_stats, _) = read(&dense);
    let (fix, stats, built) = read(&sparse);
    assert_eq!(built, 2, "edge's probe index and its membership table");
    assert_eq!(
        fix,
        reference_semi_naive_eval(&program(), &sparse).unwrap().0
    );
    assert_eq!(stats, dense_stats, "the same rows in the same order");
}
