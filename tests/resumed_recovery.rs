//! A restart pays for its log tail, not for the closure its checkpoint
//! already holds: the count gate of the chain session a durable open
//! resumes (see `kbt_service::recover`'s module docs).
//!
//! The state is `stackbench`'s `commit_stream` set-up: a braid of 2 000
//! disjoint ten-edge chains (20 000 edges, 110 000 `reach` facts), the
//! registered closure `refresh` applied, and a checkpoint taken right
//! after that `APPLY`.  The log then holds the benchmark's ten-record
//! recovery tail: four units that each grow one chain by eight edges and
//! re-apply `refresh`, then one `RETRACT` of the 32 new edges and a last
//! `APPLY`.  Reopening the directory must run **no** full evaluation and
//! derive only the tail's own facts — 4 × 116 = 464 — where rebuilding the
//! chain session at the first replayed `APPLY` runs one evaluation and
//! derives 110 464.  Counts, not times, so the gate holds on any machine.
//!
//! The engine's counters are process-global, so this binary holds this one
//! test and nothing else may evaluate while it reads them.

use std::path::Path;

use kbt::service::{FsyncPolicy, Service, ServiceConfig};

const CHAINS: usize = 2_000;
const CHAIN_EDGES: usize = 10;
const CHAIN_STRIDE: usize = 32;
const EXTENSION: usize = 8;
const LOAD_BATCH: usize = 500;

const DEFINE: &str = "DEFINE refresh := project[edge]; \
     tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
         (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]";

fn edge(chain: usize, i: usize) -> String {
    let node = |i: usize| chain * CHAIN_STRIDE + i;
    format!("edge({}, {})", node(i), node(i + 1))
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig::builder()
        .threads(1)
        .durable(dir)
        .fsync_policy(FsyncPolicy::Never)
        .checkpoint_every_n_commits(0)
        .build()
}

#[test]
fn a_restart_derives_only_what_its_tail_adds() {
    let dir = std::env::temp_dir().join(format!("kbt-resumed-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let s = Service::open(config(&dir)).unwrap();
        let base: Vec<String> = (0..CHAINS)
            .flat_map(|c| (0..CHAIN_EDGES).map(move |i| edge(c, i)))
            .collect();
        for batch in base.chunks(LOAD_BATCH) {
            s.execute(&format!("ASSERT {}", batch.join(", "))).unwrap();
        }
        s.execute(DEFINE).unwrap();
        s.execute("APPLY refresh").unwrap();
        s.execute("CHECKPOINT").unwrap();
        let mut grown = Vec::new();
        for c in [3, 501, 1_002, 1_999] {
            let ext: Vec<String> = (CHAIN_EDGES..CHAIN_EDGES + EXTENSION)
                .map(|i| edge(c, i))
                .collect();
            s.execute(&format!("ASSERT {}", ext.join(", "))).unwrap();
            s.execute("APPLY refresh").unwrap();
            grown.extend(ext);
        }
        s.execute(&format!("RETRACT {}", grown.join(", "))).unwrap();
        s.execute("APPLY refresh").unwrap();
        // crash: dropped without any shutdown step
    }

    let engine = kbt::engine::metrics();
    let (evals, derived) = (engine.evals_total.get(), engine.derived_facts_total.get());
    let recovered = Service::open(config(&dir)).unwrap();
    let evals = engine.evals_total.get() - evals;
    let derived = engine.derived_facts_total.get() - derived;
    eprintln!("recovery: {evals} full evaluation(s), {derived} facts derived");

    assert_eq!(recovered.metrics().recovery_replayed_total.get(), 10);
    assert_eq!(recovered.metrics().recovery_chains_seeded_total.get(), 1);
    assert_eq!(
        evals, 0,
        "the first replayed APPLY must advance, not rebuild"
    );
    assert_eq!(derived, 4 * 116, "each unit's chain gains 116 reach facts");
    let snap = recovered.snapshot();
    let facts: usize = snap.kb().iter().map(|db| db.fact_count()).sum();
    assert_eq!(
        facts,
        20_000 + 110_000,
        "the tail returns to the set-up state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
