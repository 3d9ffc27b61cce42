//! A stored run owns its indexes: what reading it costs, and what it must
//! never change.
//!
//! Evaluation reads each stored relation in place — the relation's sorted
//! run is the first segment of the relation the engine reads, and the
//! indexes and membership tables a plan demands on it are built once per
//! run and cached there (see `kbt_engine::index`).  These tests pin both
//! halves of that:
//!
//! * the cost, by the storage counters: a second evaluation over an
//!   `Arc`-identical EDB builds no index and copies no row, and two
//!   threads that demand the same index at once build it once;
//! * the contract, by oracles: a run written in place never serves an
//!   index of its old rows; and the fixpoint and every `EngineStats`
//!   counter are those of an evaluation that shares nothing — fresh runs
//!   with cold caches — at widths 1 and 2, through an incremental
//!   session's tail appends, tombstones and compaction, with the database
//!   checked against `kbt_datalog::reference_semi_naive_eval` after every
//!   step.
//!
//! The storage counters are process-global, so every test holds `SERIAL`
//! while it reads them.

use std::sync::{Barrier, Mutex, MutexGuard};

use kbt_data::{Database, DatabaseBuilder, RelId, Relation, Tuple};
use kbt_datalog::{reference_semi_naive_eval, DlAtom, Program, Rule};
use kbt_engine::{evaluate, metrics, EngineStats, IncrementalSession, IndexedRelation};
use kbt_logic::builder::var;
use proptest::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const EDGE: u32 = 1;
const PATH: u32 = 2;
const NODE: u32 = 3;
const TRI: u32 = 4;
const LOOSE: u32 = 5;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// The storage counters: `(index builds, stored rows copied)` so far — a
/// compaction re-seats a relation on its contents, and the fold that may
/// take is the data crate's.
fn counters() -> (u64, u64) {
    (
        metrics().index_builds_total.get(),
        kbt_data::metrics().rows_copied_total.get(),
    )
}

/// path = TC(edge), probing `edge` on its first column; tri(x,y,z) closes
/// a triangle with a membership check on `edge`; loose(x) :- node(x).
fn program() -> Program {
    let edge = |a, b| DlAtom::new(r(EDGE), vec![var(a), var(b)]);
    let path = |a, b| DlAtom::new(r(PATH), vec![var(a), var(b)]);
    Program::new(vec![
        Rule::new(path(1, 2), vec![edge(1, 2)]),
        Rule::new(path(1, 3), vec![path(1, 2), edge(2, 3)]),
        Rule::new(
            DlAtom::new(r(TRI), vec![var(1), var(2), var(3)]),
            vec![edge(1, 2), edge(2, 3), edge(3, 1)],
        ),
        Rule::new(
            DlAtom::new(r(LOOSE), vec![var(1)]),
            vec![DlAtom::new(r(NODE), vec![var(1)])],
        ),
    ])
    .unwrap()
}

/// `chains` chains of six nodes, every third one closed into a cycle,
/// with one triangle; every node in `node`.
fn graph(chains: u32) -> Database {
    let mut b = DatabaseBuilder::new()
        .relation(r(EDGE), 2)
        .relation(r(NODE), 1);
    for c in 0..chains {
        let base = c * 10;
        for i in 0..5 {
            b = b.fact(r(EDGE), [base + i, base + i + 1]);
        }
        if c % 3 == 0 {
            b = b.fact(r(EDGE), [base + 5, base]);
        }
        for i in 0..6 {
            b = b.fact(r(NODE), [base + i]);
        }
    }
    b.fact(r(EDGE), [7u32, 8])
        .fact(r(EDGE), [8u32, 7])
        .build()
        .unwrap()
}

/// The same contents on fresh runs: nothing shared, nothing cached.
fn fresh(db: &Database) -> Database {
    let mut copy = Database::new();
    for (rel, relation) in db.iter() {
        let rows = relation.as_rows().to_vec();
        let run = Relation::from_rows(relation.arity(), rows, relation.len()).unwrap();
        assert!(!run.shares_rows(relation));
        copy.set_relation(rel, run);
    }
    copy
}

fn reference(edb: &Database) -> Database {
    reference_semi_naive_eval(&program(), edb).unwrap().0
}

#[test]
fn a_second_read_of_the_same_runs_builds_nothing_and_copies_nothing() {
    let _serial = serial();
    let edb = graph(40);
    let before = counters();
    let (first, first_stats) = evaluate(&program(), &edb, 1, None, None).unwrap();
    let built = counters().0 - before.0;
    assert_eq!(
        built, 1,
        "edge's first-column offsets: its probe index and its membership table"
    );
    assert_eq!(counters().1, before.1, "a read copies no stored row");

    let before = counters();
    for threads in [1, 2] {
        let (again, stats) = evaluate(&program(), &edb, threads, None, None).unwrap();
        assert_eq!(again, first);
        assert_eq!(stats, first_stats);
    }
    // a database that shares the runs (what the next epoch holds for a
    // relation a commit left untouched) is the same runs
    let (_, stats) = evaluate(&program(), &edb.clone(), 1, None, None).unwrap();
    assert_eq!(stats, first_stats);
    assert_eq!(counters(), before, "nothing built, nothing copied");

    // fresh runs pay again, and answer the same
    let (cold, cold_stats) = evaluate(&program(), &fresh(&edb), 1, None, None).unwrap();
    assert_eq!(counters().0 - before.0, built);
    assert_eq!(first, reference(&edb));
    assert_eq!((cold, cold_stats), (first, first_stats));
}

#[test]
fn indexes_live_as_long_as_their_run() {
    let _serial = serial();
    let gauge = || metrics().shared_index_bytes.get();
    let edb = fresh(&graph(40));
    let before = gauge();
    evaluate(&program(), &edb, 1, None, None).unwrap();
    let held = gauge() - before;
    assert!(held > 0, "the runs keep their indexes after the read");
    let copy = edb.clone();
    drop(edb);
    assert_eq!(gauge() - before, held, "a clone still holds the runs");
    drop(copy);
    assert_eq!(gauge(), before, "freed with the last holder of the runs");
}

#[test]
fn a_run_written_in_place_never_serves_its_old_index() {
    let _serial = serial();
    let mut edb = fresh(&graph(12));
    let (first, _) = evaluate(&program(), &edb, 1, None, None).unwrap();
    assert_eq!(first, reference(&edb));
    drop(first); // the result shared `edge`'s run: `edb` owns it alone now
                 // each write lands in place, on a run whose index was built above or
                 // by the previous read
    for (a, b) in [(5u32, 10u32), (15, 20), (20, 23), (33, 30)] {
        let before = counters().0;
        assert!(edb.insert_fact(r(EDGE), Tuple::from([a, b])).unwrap());
        let (fix, _) = evaluate(&program(), &edb, 1, None, None).unwrap();
        assert_eq!(fix, reference(&edb), "after inserting edge({a}, {b})");
        assert!(
            counters().0 > before,
            "the written run indexes itself again"
        );
    }
    assert!(edb.remove_fact(r(EDGE), &Tuple::from([7u32, 8])));
    let (fix, _) = evaluate(&program(), &edb, 1, None, None).unwrap();
    assert_eq!(fix, reference(&edb));
}

#[test]
fn two_threads_reading_one_run_build_its_indexes_once() {
    let _serial = serial();
    let solo = fresh(&graph(60));
    let before = counters().0;
    let (expected, expected_stats) = evaluate(&program(), &solo, 1, None, None).unwrap();
    let once = counters().0 - before;

    let shared = fresh(&graph(60));
    let barrier = Barrier::new(2);
    let before = counters().0;
    let results: Vec<(Database, EngineStats)> = std::thread::scope(|scope| {
        let read = |threads| {
            let (shared, barrier) = (&shared, &barrier);
            scope.spawn(move || {
                barrier.wait();
                evaluate(&program(), shared, threads, None, None).unwrap()
            })
        };
        let handles = [read(1), read(2)];
        handles.map(|h| h.join().unwrap()).into()
    });
    assert_eq!(
        counters().0 - before,
        once,
        "each index built once, not twice"
    );
    for (fix, stats) in results {
        assert_eq!(fix, expected);
        assert_eq!(stats, expected_stats);
    }
}

/// One session step: edges inserted, edges removed.
type Step = (Vec<(u32, u32)>, Vec<(u32, u32)>);

fn edge_facts(edges: &[(u32, u32)]) -> Vec<(RelId, Tuple)> {
    edges
        .iter()
        .map(|&(a, b)| (r(EDGE), Tuple::from([a, b])))
        .collect()
}

/// Drives a session over shared, warm runs next to one over fresh runs at
/// each width, checking every step against the reference evaluator.
fn sessions_agree(edb: &Database, steps: &[Step]) {
    let program = program();
    // warm the runs: every index a session demands on them is cached
    drop(IncrementalSession::with_threads(&program, edb, 1).unwrap());
    let before = counters();
    let mut warm = IncrementalSession::with_threads(&program, edb, 1).unwrap();
    assert_eq!(
        counters(),
        before,
        "a session over warm runs builds and copies nothing"
    );
    let mut others = vec![
        IncrementalSession::with_threads(&program, &fresh(edb), 1).unwrap(),
        IncrementalSession::with_threads(&program, edb, 2).unwrap(),
        IncrementalSession::with_threads(&program, &fresh(edb), 2).unwrap(),
    ];
    for other in &others {
        assert_eq!(other.stats(), warm.stats());
    }
    let mut oracle = edb.clone();
    for (ins, del) in steps {
        let (ins, del) = (edge_facts(ins), edge_facts(del));
        let stats = warm.apply_delta(&ins, &del).unwrap();
        for (rel, t) in &del {
            oracle.remove_fact(*rel, t);
        }
        for (rel, t) in &ins {
            oracle.insert_fact(*rel, t.clone()).unwrap();
        }
        let current = warm.current();
        let expected = reference(&oracle);
        assert_eq!(current, expected);
        for other in &mut others {
            assert_eq!(other.apply_delta(&ins, &del).unwrap(), stats);
            assert_eq!(other.current(), current);
        }
    }
    for other in &others {
        assert_eq!(other.stats(), warm.stats());
    }
}

#[test]
fn sessions_over_shared_runs_match_fresh_ones_through_appends_tombstones_and_compaction() {
    let _serial = serial();
    let edb = graph(30);
    let all: Vec<(u32, u32)> = edb
        .relation(r(EDGE))
        .unwrap()
        .iter()
        .map(|row| (row[0].index(), row[1].index()))
        .collect();
    let steps: Vec<Step> = vec![
        // tail appends: two chains joined, a new cycle
        (vec![(5, 10), (15, 20), (100, 101), (101, 100)], vec![]),
        // tombstones in the shared segment and in the tail
        (vec![], vec![(0, 1), (101, 100), (7, 8)]),
        // a removed stored row comes back, in the tail
        (vec![(0, 1), (7, 8)], vec![(22, 23)]),
        // more than half of everything dies: compaction re-seats the
        // relation on its contents, which fold into a fresh run
        (vec![(200, 201)], all[..all.len() * 2 / 3].to_vec()),
        // and the compacted relation goes on taking writes
        (all[..10].to_vec(), vec![(200, 201), (290, 291)]),
    ];
    let copied = counters().1;
    sessions_agree(&edb, &steps);
    assert!(counters().1 > copied, "the compaction copied stored rows");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random graphs and random delta scripts: the warm, shared session, a
    /// fresh one and both at width 2 agree on every fixpoint and every
    /// counter, and the fixpoint is the reference evaluator's.
    #[test]
    fn random_sessions_agree(
        stored in proptest::collection::btree_set((0u32..12, 0u32..12), 1..40),
        steps in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..12, 0u32..12), 0..6),
                proptest::collection::vec((0u32..12, 0u32..12), 0..12),
            ),
            1..5,
        ),
    ) {
        let _serial = serial();
        let mut b = DatabaseBuilder::new().relation(r(EDGE), 2);
        for &(x, y) in &stored {
            b = b.fact(r(EDGE), [x, y]);
        }
        for x in 0..12u32 {
            b = b.fact(r(NODE), [x]);
        }
        let edb = b.build().unwrap();
        // half of each step's removals hit stored edges
        let stored: Vec<(u32, u32)> = stored.into_iter().collect();
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|(ins, del)| {
                let del = del
                    .into_iter()
                    .enumerate()
                    .map(|(i, (x, y))| if i % 2 == 0 { stored[(x * 12 + y) as usize % stored.len()] } else { (x, y) })
                    .collect();
                (ins, del)
            })
            .collect();
        sessions_agree(&edb, &steps);
    }

    /// Every bucket of a loaded relation with a tail walks the live ids
    /// the all-private layout walks, in the same order: the stored rows
    /// first (its first segment), then every appended or re-inserted row
    /// in the order it arrived.
    #[test]
    fn shared_and_private_layouts_walk_alike(
        stored in proptest::collection::btree_set((0u32..6, 0u32..6), 0..20),
        script in proptest::collection::vec((0u8..3, 0u32..6, 0u32..6), 0..40),
    ) {
        let _serial = serial();
        let run = Relation::from_tuples(2, stored.iter().map(|&(a, b)| Tuple::from([a, b]))).unwrap();
        let mut shared = IndexedRelation::from_relation(&run);
        let mut private = IndexedRelation::new(2);
        private.append_run(&run);
        for relation in [&mut shared, &mut private] {
            relation.ensure_index(0b01);
            relation.ensure_index(0b10);
            relation.ensure_membership();
        }
        for (op, a, b) in script {
            let row = [kbt_data::Const::new(a), kbt_data::Const::new(b)];
            if op == 0 {
                prop_assert_eq!(shared.remove_row(&row), private.remove_row(&row));
            } else {
                prop_assert_eq!(shared.insert_row(&row), private.insert_row(&row));
            }
            prop_assert_eq!(shared.slot_count(), private.slot_count());
            for key in 0..6u32 {
                let c = [kbt_data::Const::new(key)];
                prop_assert_eq!(shared.probe(0b01, &c), private.probe(0b01, &c));
                prop_assert_eq!(shared.probe(0b10, &c), private.probe(0b10, &c));
            }
            prop_assert_eq!(shared.iter().collect::<Vec<_>>(), private.iter().collect::<Vec<_>>());
            prop_assert_eq!(shared.to_relation(), private.to_relation());
        }
    }
}
