//! Derived facts stay sorted until something asks for one by key, pinned
//! by state and by count.
//!
//! While a relation is only appended to in bulk, its tail keeps its
//! membership as sorted key levels and the fixpoint filter gallops a
//! cursor through them; the chained table is built in one pass at the
//! first point write, removal or session delta (see `kbt_engine::index`).
//! The representation changes what an evaluation builds, never what it
//! answers: these tests read the build counter around one-shot closures
//! and around an incremental session's first delta, look at the session's
//! relations directly, and check every result against
//! `kbt_datalog::reference_semi_naive_eval` and every `EngineStats`
//! counter across widths 1 and 2.
//!
//! The build counter is process-global, so every test holds `SERIAL`
//! while it reads it.

use std::sync::{Mutex, MutexGuard};

use kbt_data::{Database, DatabaseBuilder, RelId, Relation, Tuple};
use kbt_datalog::{reference_semi_naive_eval, DlAtom, Program, Rule};
use kbt_engine::{evaluate, metrics, EngineStats, IncrementalSession};
use kbt_logic::builder::var;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const EDGE: u32 = 1;
const REACH: u32 = 2;
const ONCYCLE: u32 = 3;
const LOOP: u32 = 4;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// `reach` = TC(`edge`), `oncycle(x) :- reach(x, x)` and
/// `loop(x) :- edge(x, x)` — a head that stays empty on a graph without
/// self-loops.  No rule checks a head's membership: only the fixpoint
/// filter asks for its rows.
fn program() -> Program {
    let edge = |a, b| DlAtom::new(r(EDGE), vec![var(a), var(b)]);
    let reach = |a, b| DlAtom::new(r(REACH), vec![var(a), var(b)]);
    Program::new(vec![
        Rule::new(reach(0, 1), vec![edge(0, 1)]),
        Rule::new(reach(0, 2), vec![reach(0, 1), edge(1, 2)]),
        Rule::new(DlAtom::new(r(ONCYCLE), vec![var(0)]), vec![reach(0, 0)]),
        Rule::new(DlAtom::new(r(LOOP), vec![var(0)]), vec![edge(0, 0)]),
    ])
    .unwrap()
}

/// Forty chains of five edges, every fourth closed into a cycle, on fresh
/// runs; with `stored_heads`, a few `reach` and `oncycle` facts are stored
/// too, some of which the closure derives again and some not.
fn graph(stored_heads: bool) -> Database {
    let mut b = DatabaseBuilder::new()
        .relation(r(EDGE), 2)
        .relation(r(LOOP), 1);
    for chain in 0..40u32 {
        let base = chain * 8;
        for i in 0..5 {
            b = b.fact(r(EDGE), [base + i, base + i + 1]);
        }
        if chain % 4 == 1 {
            b = b.fact(r(EDGE), [base + 5, base]);
        }
        if stored_heads && chain % 3 == 0 {
            b = b
                .fact(r(REACH), [base, base + 3])
                .fact(r(REACH), [base + 6, base + 1])
                .fact(r(ONCYCLE), [base + 7]);
        }
    }
    b.build().unwrap()
}

fn builds() -> u64 {
    metrics().index_builds_total.get()
}

fn reference(edb: &Database) -> (Database, usize) {
    let (fix, stats) = reference_semi_naive_eval(&program(), edb).unwrap();
    (fix, stats.derived_facts)
}

/// One-shot evaluations at widths 1 and 2 over `edb`: the fixpoint, its
/// counters (equal at both widths), and the builds of the first.
fn read(edb: &Database) -> (Database, EngineStats, u64) {
    let before = builds();
    let (fix, stats) = evaluate(&program(), edb, 1, None, None).unwrap();
    let built = builds() - before;
    let (wide, wide_stats) = evaluate(&program(), edb, 2, None, None).unwrap();
    assert_eq!((&wide, wide_stats), (&fix, stats), "width 2 differs");
    (fix, stats, built)
}

#[test]
fn a_one_shot_closure_builds_nothing_for_its_heads() {
    let _serial = serial();
    for stored_heads in [false, true] {
        let edb = graph(stored_heads);
        let (fix, stats, built) = read(&edb);
        // edge's offsets serve its probe on the first column; the heads'
        // tails stay sorted, and a stored head is searched in place
        assert_eq!(built, 1, "stored heads: {stored_heads}");
        let (expected, derived) = reference(&edb);
        assert_eq!(fix, expected);
        assert_eq!(stats.derived_facts, derived);
        assert!(stats.derived_facts > 500);
        assert_eq!(read(&edb).2, 0, "cached on the run");
    }
}

/// The session's heads that derived something, and the one that did not.
const GROWN: [u32; 2] = [REACH, ONCYCLE];

#[test]
fn a_session_is_sorted_until_its_first_delta_and_switches_each_tail_once() {
    let _serial = serial();
    for stored_heads in [false, true] {
        let edb = graph(stored_heads);
        let mut sessions: Vec<IncrementalSession> = [1, 2]
            .map(|width| IncrementalSession::with_threads(&program(), &edb, width).unwrap())
            .into();
        assert_eq!(sessions[0].stats(), sessions[1].stats());
        let (expected, derived) = reference(&edb);
        assert_eq!(sessions[0].current(), expected);
        assert_eq!(sessions[0].stats().derived_facts, derived);
        for session in &sessions {
            for rel in GROWN.into_iter().chain([LOOP, EDGE]) {
                let relation = session.relation(r(rel)).unwrap();
                assert!(relation.is_sorted(), "{rel} after the session's closure");
            }
        }

        // the first delta switches every non-empty tail — one counted
        // build each — and nothing else: edge's membership is the offsets
        // its probe already built, and its tail is empty
        let mut oracle = edb.clone();
        let closing = Tuple::from([8 * 2 + 5, 8 * 2]);
        oracle.insert_fact(r(EDGE), closing.clone()).unwrap();
        let mut stats = Vec::new();
        for session in &mut sessions {
            let before = builds();
            stats.push(session.insert_facts(&[(r(EDGE), closing.clone())]).unwrap());
            assert_eq!(builds() - before, GROWN.len() as u64);
            for rel in GROWN.into_iter().chain([EDGE]) {
                assert!(!session.relation(r(rel)).unwrap().is_sorted(), "{rel}");
            }
            assert!(
                session.relation(r(LOOP)).unwrap().is_sorted(),
                "an empty tail waits for its first point write"
            );
            assert_eq!(session.current(), reference(&oracle).0);
        }
        assert_eq!(stats[0], stats[1]);
        assert!(stats[0].derived_facts > 0);

        // later deltas run on the chained tables, removals included
        let opened = Tuple::from([8u32, 9]);
        oracle.remove_fact(r(EDGE), &opened);
        let stats: Vec<EngineStats> = (sessions.iter_mut())
            .map(|session| session.remove_facts(&[(r(EDGE), opened.clone())]).unwrap())
            .collect();
        assert_eq!(stats[0], stats[1]);
        for session in &sessions {
            assert_eq!(session.current(), reference(&oracle).0);
        }
        assert_eq!(sessions[0].stats(), sessions[1].stats());
    }
}

#[test]
fn a_stored_head_is_filtered_in_place_and_kept_whole() {
    let _serial = serial();
    let edb = graph(true);
    let stored: &Relation = edb.relation(r(REACH)).unwrap();
    let (fix, _, _) = read(&edb);
    let reach = fix.relation(r(REACH)).unwrap();
    assert!(stored.iter().all(|row| reach.contains_row(row)));
    assert_eq!(fix, reference(&edb).0);
}
