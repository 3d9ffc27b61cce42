//! Concurrent MVCC serving in ~60 lines: one writer keeps committing a
//! growing flight network and re-applying the registered reachability
//! refresh, while reader threads take `O(1)` snapshots and answer
//! certain-reachability queries against them — without ever blocking the
//! writer or seeing a torn epoch.
//!
//! ```text
//! cargo run --release --example service_session
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kbt::service::net::proto::encode_response;
use kbt::service::{Response, Service, ServiceConfig};

fn main() {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    println!(
        "service up: width {} thread(s), epoch {}",
        service.config().threads,
        service.epoch()
    );

    service
        .execute(
            "DEFINE refresh := project[edge]; \
             tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
                 (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]",
        )
        .unwrap();

    let done = Arc::new(AtomicBool::new(false));

    // Readers: hammer snapshots while the writer below keeps committing.
    let readers: Vec<_> = (0..3)
        .map(|id| {
            let service = service.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let certain_reach = |snap: &kbt::service::Snapshot| {
                    snap.vocab()
                        .lookup_relation("reach")
                        .map(|(rel, _)| service.certain(snap, rel).len())
                        .unwrap_or(0)
                };
                let mut served = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    let _ = certain_reach(&snap);
                    served += 1;
                }
                let snap = service.snapshot();
                let reach = certain_reach(&snap);
                println!(
                    "reader {id}: {served} queries, last saw {reach} reach fact(s) at {}",
                    snap.epoch()
                );
            })
        })
        .collect();

    // Writer: grow a chain graph, refreshing the closure incrementally.
    for i in 0..40u32 {
        service
            .execute(&format!("ASSERT edge({i}, {})", i + 1))
            .unwrap();
        match service.execute("APPLY refresh").unwrap() {
            Response::Applied {
                epoch,
                facts,
                reused_facts,
                ..
            } if i % 10 == 9 => {
                println!(
                    "writer: {epoch} holds {facts} fact(s), {reused_facts} reused by the chain"
                )
            }
            _ => {}
        }
    }

    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    let (rows, status) = encode_response(&service.execute("STATS").unwrap(), None);
    for row in rows {
        println!("{row}");
    }
    println!("{status}");
}
