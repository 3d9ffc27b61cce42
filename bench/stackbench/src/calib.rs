//! The reference-speed calibration kernel.
//!
//! This shared two-vCPU VM has two speeds.  A slice of the kernel below
//! takes 0.19 ms or 0.27 ms (a busy sibling hyperthread on the host, by the
//! look of it), and the machine sits in one state for hours or flips
//! between them every few milliseconds; on top of that it stalls in
//! *plateaus* of 50 ms to a few seconds in which everything runs up to 2×
//! slower, some of them visible only to code with a large working set.
//! The kernel is a fixed, deterministic quarter of a millisecond of work —
//! a *slice* — in the product's three memory behaviours: dependent probes
//! into a table larger than the cache, sort + dedup of a few thousand
//! values, and deep clones of a string-keyed `BTreeMap`.  The load
//! generator runs a block of slices before and after every timed interval
//! (set-up, window, restart), while the server is idle, and keeps every
//! slice time.
//!
//! The run's *base slice time* is the first quartile of all of them: the
//! level of the machine when no plateau is in progress.  Noise here only
//! ever slows things down, so a low quantile repeats where a mean follows
//! however much of the run the plateaus covered.  Every time-derived
//! metric is reported *at reference speed*: divided by how much slower
//! than [`SLICE_REF_MS`] the base slice time is.  The workload side of the
//! ratio is taken the same way (the best quartile of the windows, see
//! `run`), so that both sides describe the same state of the machine: the
//! faster one whenever the run spent a quarter of its time there.
//!
//! An earlier version normalised window by window, with slices between the
//! commands too.  Measured on this machine, that *added* spread: the slow
//! state slows the kernel (tight loops) by 1.4× and the server (pointer
//! chasing) by 1.2×, and some plateaus slow the server and not the kernel
//! at all, so a window that straddled a change was over- or
//! under-corrected.  The same mismatch remains between whole runs — one
//! that never saw the fast state reads up to a sixth faster than one that
//! did — which is why the bounds in `BENCHMARK.json` are not tighter.
//!
//! The kernel is frozen: changing it, or the constant, re-bases every
//! reference-speed number, so it must only change together with a fresh
//! A/A report and fresh bounds in `BENCHMARK.json`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::mix;

/// What one slice costs on the machine the bounds were measured on when
/// nothing disturbs it (`stackbench --calib` prints this machine's value).
pub const SLICE_REF_MS: f64 = 0.25;
/// Slices in the block before and after every timed interval.
pub const BLOCK_SLICES: usize = 32;
/// The quantile of the run's slice times that is its base slice time.
pub const BASE_QUANTILE: f64 = 0.25;
/// A window whose two blocks differ by more than this straddled a plateau;
/// such windows are counted, not dropped (see `bench/README.md`).
pub const DISTURBED: f64 = 0.15;

// A slice touches ~40 KiB: the load generator shares caches with the
// server, and a slice that swept megabytes would slow the commands that
// follow it.
const TABLE_SLOTS: usize = 1 << 19; // 4 MiB of u64
const PROBES: usize = 192;
const SORTED: usize = 2_048;
const SORTS: usize = 5;
const MAP_ENTRIES: usize = 96;
const MAP_CLONES: usize = 6;

/// The kernel's inputs, built once and reused by every slice.
pub struct Kernel {
    table: Vec<u64>,
    names: BTreeMap<String, u32>,
    hits: RefCell<Vec<u32>>,
    /// The time of every slice run in a block, in milliseconds.
    samples: RefCell<Vec<f64>>,
    /// Slices run so far: each starts its probe chain somewhere else, so
    /// the probes miss the cache whether or not the last slice was recent.
    round: Cell<u64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            table: (0..TABLE_SLOTS as u64).map(|i| mix(i + 1)).collect(),
            names: (0..MAP_ENTRIES as u32)
                .map(|i| (format!("ind{}", mix(u64::from(i)) % 1_000_000), i))
                .collect(),
            hits: RefCell::new(Vec::with_capacity(PROBES + SORTED)),
            samples: RefCell::new(Vec::with_capacity(8_192)),
            round: Cell::new(0),
        }
    }

    /// Runs one slice; returns its wall time in milliseconds and a checksum
    /// (a function of how many slices ran before — the selftest checks
    /// that two kernels agree).
    pub fn slice(&self) -> (f64, u64) {
        let start = Instant::now();
        let round = self.round.get();
        self.round.set(round + 1);
        let mask = TABLE_SLOTS - 1;
        let mut hits = self.hits.borrow_mut();
        hits.clear();
        // dependent random probes: each slot read picks the next slot
        let mut at = mix(round) as usize & mask;
        for i in 0..PROBES {
            let v = self.table[at];
            hits.push((v >> 40) as u32);
            at = (v as usize ^ i) & mask;
        }
        let mut sum = at as u64;
        for pass in 0..SORTS as u64 {
            hits.truncate(PROBES);
            for i in 0..SORTED as u64 {
                hits.push((mix(i ^ pass ^ at as u64) >> 40) as u32);
            }
            hits.sort_unstable();
            hits.dedup();
            sum += hits.len() as u64;
        }
        for _ in 0..MAP_CLONES {
            sum += black_box(&self.names).clone().len() as u64;
        }
        (start.elapsed().as_secs_f64() * 1e3, black_box(sum))
    }

    /// A block of [`BLOCK_SLICES`] slices, each kept for
    /// [`Kernel::base_slice_ms`]; returns the block's median slice time in
    /// milliseconds.
    pub fn block(&self) -> f64 {
        let times: Vec<f64> = (0..BLOCK_SLICES).map(|_| self.slice().0).collect();
        self.samples.borrow_mut().extend_from_slice(&times);
        crate::run::median(&times)
    }

    /// The base slice time of the run so far (see the module docs).
    pub fn base_slice_ms(&self) -> f64 {
        crate::run::quantile(&self.samples.borrow(), BASE_QUANTILE)
    }

    /// How much slower than the reference the machine ran between plateaus
    /// (`1.0` = reference speed).
    pub fn slowdown(&self) -> f64 {
        self.base_slice_ms() / SLICE_REF_MS
    }
}

/// Relative gap between the blocks before and after an interval.
pub fn drift(before_ms: f64, after_ms: f64) -> f64 {
    (before_ms - after_ms).abs() / before_ms.min(after_ms)
}
