//! Concurrent differential test for `kbt-service`: N reader threads
//! snapshotting in the middle of a commit stream must each observe some
//! committed epoch whose knowledgebase is **identical to a sequential
//! oracle replay** of the same command prefix — no torn reads, no partial
//! commits, no epoch ever observed with the wrong contents.
//!
//! The commit stream mixes fact insertions, retractions (exercising the
//! engine's DRed deletion path through the persistent chain sessions) and
//! incremental `APPLY`s of a registered transitive-closure refresh.  The
//! readers also issue bound goals (`QUERY CERTAIN reach(<c>, x)`), which
//! run the registry's rulebase through the magic rewrite and fill each
//! epoch's answer table; every reply must equal the oracle's answer to the
//! same goal at the reply's epoch.  The differential runs at evaluation
//! widths 1 and 4 explicitly, pinned in process: CI runs the suite with
//! `KBT_THREADS=4` as the environment default, which the service
//! deliberately ignores in favour of its explicit width.
//!
//! A commit that panics under the writer lock poisons it: every later
//! commit is refused with `writer-poisoned`, and readers on other threads
//! keep observing the last published epoch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kbt::data::Knowledgebase;
use kbt::obs::{LogSink, Record};
use kbt::service::{Response, Service, ServiceConfig, ServiceError};

const READERS: usize = 4;

/// The constants the readers' bound goals start from: the whole domain.
const GOAL_CONSTANTS: u32 = 10;

/// The registered refresh: drop the derived closure, re-derive it from the
/// current edges (incrementally, through the persistent chain session).
const DEFINE: &str = "DEFINE refresh := project[edge]; \
     tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
         (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]";

/// The deterministic commit stream (after `DEFINE`): inserts, deletes and
/// incremental applications over a 10-constant domain, dense enough that
/// retractions hit existing edges and the closure keeps changing shape.
fn commit_ops() -> Vec<String> {
    let mut ops = Vec::new();
    for i in 0..36u32 {
        let a = (i * 7) % 9;
        let b = (i * 5) % 9 + 1;
        ops.push(format!("ASSERT edge({a}, {b})"));
        if i % 3 == 2 {
            let j = i / 2;
            ops.push(format!(
                "RETRACT edge({}, {})",
                (j * 7) % 9,
                (j * 5) % 9 + 1
            ));
        }
        if i % 2 == 1 {
            ops.push("APPLY refresh".to_string());
        }
    }
    ops
}

/// The bound goal a reader issues from constant `c`.
fn goal(c: u32) -> String {
    format!("QUERY CERTAIN reach({c}, x)")
}

/// A bound goal's reply: its epoch and its rendered facts.
fn goal_answer(response: Response) -> (u64, Vec<String>) {
    match response {
        Response::Facts {
            epoch,
            facts,
            strategy: Some("magic" | "tabled"),
            ..
        } => (epoch.get(), facts.render()),
        other => panic!("expected a goal-directed answer, got {other:?}"),
    }
}

/// One epoch of the sequential oracle: the knowledgebase, and the answer
/// to [`goal`] from every constant (`None` before `DEFINE` names `reach`).
struct OracleEpoch {
    kb: Knowledgebase,
    goals: Option<Vec<Vec<String>>>,
}

/// Sequential oracle: replay `DEFINE` + the ops on a fresh service,
/// recording every epoch (index = epoch number).
fn oracle(threads: usize) -> Vec<OracleEpoch> {
    let service = Service::new(ServiceConfig::builder().threads(threads).build());
    let record = |service: &Service| OracleEpoch {
        kb: service.snapshot().kb().clone(),
        goals: service
            .snapshot()
            .vocab()
            .lookup_relation("reach")
            .map(|_| {
                (0..GOAL_CONSTANTS)
                    .map(|c| goal_answer(service.execute(&goal(c)).unwrap()).1)
                    .collect()
            }),
    };
    let mut by_epoch = vec![record(&service)];
    service.execute(DEFINE).unwrap();
    by_epoch.push(record(&service));
    for op in commit_ops() {
        service.execute(&op).unwrap();
        assert_eq!(
            service.snapshot().epoch().get() as usize,
            by_epoch.len(),
            "each command must commit exactly one epoch"
        );
        by_epoch.push(record(&service));
    }
    by_epoch
}

fn run_differential(threads: usize) {
    let by_epoch = oracle(threads);

    let service = Arc::new(Service::new(
        ServiceConfig::builder().threads(threads).build(),
    ));
    let done = Arc::new(AtomicBool::new(false));
    let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|reader| {
            let service = service.clone();
            let done = done.clone();
            let started = started.clone();
            std::thread::spawn(move || {
                let mut observed: Vec<(u64, Knowledgebase)> = Vec::new();
                let mut answers: Vec<(u64, u32, Vec<String>)> = Vec::new();
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    let epoch = snap.epoch().get();
                    assert!(epoch >= last_epoch, "epochs must be monotonic per reader");
                    last_epoch = epoch;
                    // exercise read-path evaluation against the snapshot
                    // while the writer keeps committing
                    if let Some((rel, _)) = snap.vocab().lookup_relation("reach") {
                        let certain = service.certain(&snap, rel);
                        let possible = service.possible(&snap, rel);
                        assert!(certain.is_subset(&possible));
                        // a bound goal reads at the service's current epoch,
                        // which `reach` cannot have left
                        let c = (reader as u32 + observed.len() as u32) % GOAL_CONSTANTS;
                        let (epoch, facts) = goal_answer(service.execute(&goal(c)).unwrap());
                        answers.push((epoch, c, facts));
                        if answers.len() == 1 {
                            started.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    observed.push((epoch, snap.kb().clone()));
                }
                (observed, answers)
            })
        })
        .collect();

    service.execute(DEFINE).unwrap();
    for op in commit_ops() {
        service.execute(&op).unwrap();
    }
    // On a loaded single-core machine the readers may not have had a
    // single slice yet; hold the "done" signal until each has answered at
    // least one bound goal (every epoch after `DEFINE` names `reach`), so
    // the assertions below are never vacuous.
    // A reader that dies early exits the wait too — its panic surfaces at
    // the join below instead of hanging this loop forever.
    while started.load(Ordering::Relaxed) < READERS
        && !readers.iter().any(std::thread::JoinHandle::is_finished)
    {
        std::thread::yield_now();
    }
    done.store(true, Ordering::Relaxed);

    let mut total = 0usize;
    let mut distinct = std::collections::BTreeSet::new();
    let mut goals = 0usize;
    for reader in readers {
        let (observed, answers) = reader.join().expect("reader must not panic");
        for (epoch, kb) in observed {
            let expected = &by_epoch[epoch as usize].kb;
            assert_eq!(
                &kb, expected,
                "snapshot at epoch {epoch} differs from the sequential oracle (width {threads})"
            );
            distinct.insert(epoch);
            total += 1;
        }
        for (epoch, c, facts) in answers {
            let expected = by_epoch[epoch as usize]
                .goals
                .as_ref()
                .expect("reach is named");
            assert_eq!(
                facts,
                expected[c as usize],
                "{} at epoch {epoch} differs from the sequential oracle (width {threads})",
                goal(c)
            );
            goals += 1;
        }
    }
    assert!(total > 0, "readers must have observed snapshots");
    assert!(goals > 0, "readers must have answered bound goals");
    // sanity: the final epoch was observable and matches the oracle's tail
    let final_epoch = service.snapshot().epoch().get() as usize;
    assert_eq!(final_epoch + 1, by_epoch.len());
    assert_eq!(service.snapshot().kb(), &by_epoch[final_epoch].kb);
}

#[test]
fn concurrent_readers_observe_oracle_epochs_width_1() {
    run_differential(1);
}

#[test]
fn concurrent_readers_observe_oracle_epochs_width_4() {
    run_differential(4);
}

#[test]
fn wire_format_round_trip_preserves_service_behaviour() {
    // A transformation DEFINEd from hand-written text is published in its
    // canonical rendered wire format; re-DEFINEing a second service from
    // *that* rendering (one full parse → pretty → parse cycle) must drive
    // it to byte-identical committed states.  This is the service-level
    // consequence of the `parse(pretty(φ)) == φ` identity.
    let original = Service::new(ServiceConfig::builder().threads(1).build());
    original.execute(DEFINE).unwrap();
    let wire_text = original.snapshot().transforms()["refresh"].text.clone();

    let replayed = Service::new(ServiceConfig::builder().threads(1).build());
    replayed
        .execute(&format!("DEFINE refresh := {wire_text}"))
        .unwrap();
    // the canonical rendering is a fixed point of render ∘ parse
    assert_eq!(
        replayed.snapshot().transforms()["refresh"].text,
        wire_text,
        "re-parsing the wire format must not change the rendering"
    );

    for op in commit_ops() {
        original.execute(&op).unwrap();
        replayed.execute(&op).unwrap();
    }
    assert_eq!(original.snapshot().kb(), replayed.snapshot().kb());
    assert_eq!(
        format!("{:?}", original.snapshot().kb()),
        format!("{:?}", replayed.snapshot().kb()),
        "rendered states must be byte-identical"
    );
}

/// A log sink that panics on one record name: host code that panics while
/// a commit holds the writer lock.
struct PanicOn(&'static str);

impl LogSink for PanicOn {
    fn emit(&self, record: &Record<'_>) {
        if record.name == self.0 {
            panic!("sink refuses {}", self.0);
        }
    }
}

#[test]
fn a_commit_that_panics_poisons_the_writer_and_reads_keep_serving() {
    let service = Arc::new(Service::new(ServiceConfig::builder().threads(1).build()));
    service.execute(DEFINE).unwrap();
    service.execute("ASSERT edge(1, 2), edge(2, 3)").unwrap();
    service.execute("APPLY refresh").unwrap();
    let (epoch, kb) = (service.snapshot().epoch(), service.snapshot().kb().clone());

    // the commit-apply span closes under the writer lock; a sink that
    // panics on it unwinds through the lock on a session's thread
    let registry = service.obs_registry();
    registry.set_slow_span_ns(1);
    registry.set_sink(Some(Arc::new(PanicOn("kbt_service_commit_apply_ns"))));
    let committer = {
        let service = service.clone();
        std::thread::spawn(move || service.execute("ASSERT edge(3, 4)"))
    };
    assert!(committer.join().is_err(), "the commit must have panicked");
    registry.set_sink(None);

    // the refusal is the poisoned lock's, not the sink's: every later
    // commit gets the typed error and publishes nothing
    for command in [
        "ASSERT edge(3, 4)",
        "RETRACT edge(1, 2)",
        "DEFINE other := project[edge]",
        "APPLY refresh",
    ] {
        match service.execute(command) {
            Err(e @ ServiceError::WriterPoisoned) => assert_eq!(e.code(), "writer-poisoned"),
            other => panic!("{command}: expected WriterPoisoned, got {other:?}"),
        }
    }
    assert_eq!(service.snapshot().epoch(), epoch);
    assert_eq!(service.snapshot().kb(), &kb);

    // reads, from any thread, keep serving the last published epoch
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let service = service.clone();
            std::thread::spawn(move || {
                let snap = service.snapshot();
                service.execute("QUERY CERTAIN reach").unwrap();
                (snap.epoch(), snap.kb().clone())
            })
        })
        .collect();
    for reader in readers {
        assert_eq!(reader.join().unwrap(), (epoch, kb.clone()));
    }
}
