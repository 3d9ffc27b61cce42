//! `commit_kernels` — `commit_stream`'s commit cycle, in process.
//!
//! `bench/stackbench`'s `commit_stream` workload keeps the closure `reach`
//! of a braid of 2 000 ten-edge chains current through a registered
//! `refresh` chain, and cycles: `ASSERT` eight edges that grow one chain,
//! `APPLY refresh` (the chain session's delta), a goal read of the grown
//! chain, and — here once per cycle — `RETRACT` of the eight edges and a
//! DRed `APPLY`.  This target drives the same cycle through one in-process
//! [`Service`] — no socket, no WAL — and prints the median, min and max of
//! each command, and for both kinds of `APPLY` the median split into its
//! three stages, read off the product's histograms: the chain's input
//! diff (`kbt_core_chain_diff_ns`), the engine's delta
//! (`kbt_engine_delta_ns`) and the result assembly
//! (`kbt_core_chain_assemble_ns`).
//!
//! A commit costs its delta: the stored relations are a shared base run
//! plus a small sorted delta, so neither the `ASSERT` nor the `APPLY`
//! writes a 110 000-row run, and the first read after them finds the
//! indexes of the stored bases where the previous read left them.  The
//! bar is an `APPLY` of ≤ 0.15 ms, most of it the engine's delta.
//!
//! Run it with the allocator pinned as `stackbench` pins its server, and
//! alternate it with the build it is compared against:
//!
//! ```text
//! MALLOC_MMAP_THRESHOLD_=67108864 MALLOC_TRIM_THRESHOLD_=268435456 \
//!   MALLOC_TOP_PAD_=16777216 cargo bench -p kbt-bench --bench commit_kernels
//! ```

use std::time::Instant;

use kbt_obs::Histogram;
use kbt_service::{Service, ServiceConfig};

/// Chains in the braid, edges per chain, and node ids per chain
/// (`commit_stream`'s shape).
const CHAINS: u32 = 2_000;
const CHAIN_EDGES: u32 = 10;
const STRIDE: u32 = 32;
/// Edges an `ASSERT` grows a chain by.
const EXTENSION: u32 = 8;
/// Cycles run before timing, and cycles timed.
const WARMUP: u32 = 5;
const CYCLES: u32 = 60;

/// The edges `from..to` of chain `c`, as a fact list.
fn edges(c: u32, from: u32, to: u32) -> String {
    (from..to)
        .map(|i| format!("edge({}, {})", c * STRIDE + i, c * STRIDE + i + 1))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Wall time of one command in ms.
fn timed(s: &Service, command: &str) -> f64 {
    let start = Instant::now();
    s.execute(command).unwrap();
    start.elapsed().as_secs_f64() * 1e3
}

/// One command's wall time and its `APPLY` stages, in ms.
#[derive(Default)]
struct Samples {
    total: Vec<f64>,
    stages: [Vec<f64>; 3],
}

impl Samples {
    /// Times `command`, with the stage histograms' growth over it.
    fn record(&mut self, s: &Service, command: &str, stages: &[&Histogram; 3]) {
        let sums = stages.map(|h| h.snapshot().sum);
        self.total.push(timed(s, command));
        for ((samples, h), before) in self.stages.iter_mut().zip(stages).zip(sums) {
            samples.push((h.snapshot().sum - before) as f64 / 1e6);
        }
    }

    fn print(&mut self, name: &str, split: bool) {
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let m = median(&mut self.total);
        let (min, max) = (self.total[0], self.total[self.total.len() - 1]);
        let mut line = format!(
            "{:<32} median {m:.3} ms  min {min:.3} ms  max {max:.3} ms",
            format!("commit_kernels/{name}")
        );
        if split {
            let [diff, delta, assemble] = self.stages.each_mut().map(median);
            line += &format!("  (diff {diff:.3}, delta {delta:.3}, assemble {assemble:.3} ms)");
        }
        println!("{line}");
    }
}

fn main() {
    let s = Service::new(ServiceConfig::builder().threads(1).build());
    let chains: Vec<u32> = (0..CHAINS).collect();
    for batch in chains.chunks(12) {
        let facts: Vec<String> = batch.iter().map(|&c| edges(c, 0, CHAIN_EDGES)).collect();
        s.execute(&format!("ASSERT {}", facts.join(", "))).unwrap();
    }
    s.execute(
        "DEFINE refresh := project[edge]; tau[(forall x0 x1. edge(x0, x1) -> reach(x0, x1)) & \
         (forall x0 x1 x2. reach(x0, x1) & edge(x1, x2) -> reach(x0, x2))]",
    )
    .unwrap();
    s.execute("APPLY refresh").unwrap();

    let (core, engine) = (kbt_core::metrics(), kbt_engine::metrics());
    let stages = [
        &core.chain_diff_ns,
        &engine.delta_ns,
        &core.chain_assemble_ns,
    ];
    let [mut assert, mut apply, mut read, mut retract, mut dred]: [Samples; 5] = Default::default();
    for cycle in 0..WARMUP + CYCLES {
        let c = cycle * 97 % CHAINS;
        let ext = edges(c, CHAIN_EDGES, CHAIN_EDGES + EXTENSION);
        let goal = format!(
            "QUERY CERTAIN reach({}, x)",
            c * STRIDE + cycle % CHAIN_EDGES
        );
        let timed = [
            (&mut assert, format!("ASSERT {ext}")),
            (&mut apply, "APPLY refresh".to_string()),
            (&mut read, goal),
            (&mut retract, format!("RETRACT {ext}")),
            (&mut dred, "APPLY refresh".to_string()),
        ];
        for (samples, command) in timed {
            if cycle < WARMUP {
                s.execute(&command).unwrap();
            } else {
                samples.record(&s, &command, &stages);
            }
        }
    }
    assert.print("assert", false);
    apply.print("apply", true);
    read.print("first_read", false);
    retract.print("retract", false);
    dred.print("apply_dred", true);
}
