//! Concurrent differential test for the network front: ≥4 concurrent TCP
//! clients — three pipelining readers plus one writer — against a live
//! `kbt-serve`-equivalent server must observe **only** responses
//! byte-identical to a sequential oracle replay of the same commit stream,
//! keyed by the epoch every response names.  No torn reads, no partial
//! commits, no epoch ever served with the wrong contents — now across a
//! real socket, framing layer and session supervisor instead of
//! in-process calls (`tests/service_concurrent.rs` covers those).
//!
//! The commit stream mixes fact insertions, retractions and incremental
//! `APPLY`s of a registered transitive-closure refresh, as in the
//! in-process differential; the probe the readers hammer is
//! `QUERY CERTAIN reach`.  Runs at evaluation widths 1 and 4 explicitly,
//! pinned in process: CI runs the suite once, with `KBT_THREADS=4` as the
//! environment default, which the service deliberately ignores in favour
//! of its explicit width.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kbt::service::net::{proto, Client, NetConfig, NetServer};
use kbt::service::{Service, ServiceConfig};

const READERS: usize = 3;
const PIPELINE: usize = 8;
const PROBE: &str = "QUERY CERTAIN reach";

/// Every status line a live server emits carries a per-session trace-ID
/// field (` id=<token>` — leading on `OK` lines per the fixed key order,
/// trailing on `ERR` lines), which the in-process oracle encoding lacks
/// and whose sequence number depends on how many commands the session has
/// issued.  Asserts the field is present and well-formed, then returns
/// the status without it for oracle comparison.
fn strip_trace_id(status: &str) -> String {
    let (head, rest) = status
        .split_once(" id=")
        .unwrap_or_else(|| panic!("status line lacks a trace ID: {status}"));
    let (id, tail) = match rest.split_once(' ') {
        Some((id, tail)) => (id, format!(" {tail}")),
        None => (rest, String::new()),
    };
    assert!(!id.is_empty(), "malformed trace ID in: {status}");
    format!("{head}{tail}")
}

const DEFINE: &str = "DEFINE refresh := project[edge]; \
     tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
         (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]";

/// The deterministic commit stream (after `DEFINE`): inserts, deletes and
/// incremental applications over a 10-constant domain, dense enough that
/// retractions hit existing edges and the closure keeps changing shape.
fn commit_ops() -> Vec<String> {
    let mut ops = Vec::new();
    for i in 0..30u32 {
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

/// Sequential oracle: replay the commands on a fresh in-process service
/// and record, per epoch, the **exact wire encoding** the probe query
/// must produce at that epoch (data lines + status line).
fn oracle(threads: usize) -> BTreeMap<u64, (Vec<String>, String)> {
    let service = Service::new(ServiceConfig::builder().threads(threads).build());
    let mut by_epoch = BTreeMap::new();
    let mut probe = |service: &Service| {
        let response = service.execute(PROBE).expect("probe after DEFINE");
        let (data, status) = proto::encode_response(&response, None);
        let epoch = service.epoch().get();
        by_epoch.insert(epoch, (data, status));
    };
    service.execute(DEFINE).unwrap();
    probe(&service);
    for op in commit_ops() {
        service.execute(&op).unwrap();
        probe(&service);
    }
    by_epoch
}

fn run_differential(threads: usize) {
    let by_epoch = oracle(threads);
    let final_epoch = *by_epoch.keys().last().unwrap();

    let service = Arc::new(Service::new(
        ServiceConfig::builder().threads(threads).build(),
    ));
    let server = NetServer::start(service.clone(), NetConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    // the writer registers the refresh first, so every reader-visible
    // epoch (>= 1) can resolve `reach`
    let mut writer = Client::connect(addr).expect("writer connects");
    let defined = writer.roundtrip(DEFINE).expect("DEFINE round-trip");
    assert_eq!(defined.epoch(), Some(1), "{}", defined.status);

    let done = Arc::new(AtomicBool::new(false));
    let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let done = done.clone();
            let started = started.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                let mut observed: Vec<(u64, Vec<String>, String)> = Vec::new();
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let first_batch = observed.is_empty();
                    // pipeline a whole batch per round-trip
                    for _ in 0..PIPELINE {
                        client.send(PROBE).expect("send");
                    }
                    for _ in 0..PIPELINE {
                        let r = client.recv().expect("recv");
                        assert!(r.is_ok(), "probe must succeed: {}", r.status);
                        let epoch = r.epoch().expect("snapshot responses name epochs");
                        assert!(epoch >= last_epoch, "epochs must be monotonic per reader");
                        last_epoch = epoch;
                        observed.push((epoch, r.data, strip_trace_id(&r.status)));
                    }
                    if first_batch {
                        started.fetch_add(1, Ordering::Relaxed);
                    }
                }
                observed
            })
        })
        .collect();

    for op in commit_ops() {
        let r = writer.roundtrip(&op).expect("writer round-trip");
        assert!(r.is_ok(), "write must succeed: {}", r.status);
    }
    // On a loaded single-core machine a reader may not have had a slice
    // yet; hold the "done" signal until every reader has completed at
    // least one pipelined batch, so the assertions below never go vacuous.
    // A reader that dies early exits the wait too — its panic surfaces at
    // the join below instead of hanging this loop forever.
    while started.load(Ordering::Relaxed) < READERS
        && !readers.iter().any(std::thread::JoinHandle::is_finished)
    {
        std::thread::yield_now();
    }
    done.store(true, Ordering::Relaxed);

    let mut total = 0usize;
    for reader in readers {
        for (epoch, data, status) in reader.join().expect("reader must not panic") {
            let (expected_data, expected_status) = by_epoch
                .get(&epoch)
                .unwrap_or_else(|| panic!("reader observed unknown epoch {epoch}"));
            assert_eq!(
                (&data, &status),
                (expected_data, expected_status),
                "epoch {epoch} over the wire differs from the sequential oracle (width {threads})"
            );
            total += 1;
        }
    }
    assert!(total > 0, "readers must have observed responses");

    // the final committed state is observable and matches the oracle tail
    let tail = writer.roundtrip(PROBE).expect("final probe");
    assert_eq!(tail.epoch(), Some(final_epoch));
    let (expected_data, expected_status) = &by_epoch[&final_epoch];
    assert_eq!(
        (&tail.data, &strip_trace_id(&tail.status)),
        (expected_data, expected_status)
    );

    // session accounting: 1 writer + READERS clients, nothing rejected
    let stats = writer.roundtrip("STATS").expect("stats");
    assert!(stats.is_ok());
    let sessions = service.session_counters();
    assert_eq!(sessions.accepted.get() as usize, 1 + READERS);
    assert_eq!(sessions.rejected.get(), 0);

    server.shutdown();
}

#[test]
fn concurrent_tcp_clients_observe_oracle_epochs_width_1() {
    run_differential(1);
}

#[test]
fn concurrent_tcp_clients_observe_oracle_epochs_width_4() {
    run_differential(4);
}
