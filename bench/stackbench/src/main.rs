//! `stackbench` — one end-to-end benchmark of the kbt stack.
//!
//! ```text
//! stackbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!            [--trace-file <path>]
//! stackbench --selftest
//! stackbench --calib
//! ```
//!
//! Run from the repository root.  `--trace 0` (the default) spawns
//! `kbt-serve` and reports the end-to-end metrics; `--trace 1` runs a
//! shorter wire pass plus an in-process replay of the same command stream
//! and reports the per-layer metrics, writing the spans to `--trace-file`
//! (default: `stackbench-trace-<workload>-<seed>.json` beside the build's
//! scratch directories).  Every metric is printed by name and unit; the
//! last line of standard output is the result object of `BENCHMARK.json`'s
//! contract.  See `bench/README.md`.

mod calib;
mod gen;
mod metrics;
mod proc;
mod run;
mod trace;
mod wire;

use std::process::ExitCode;
use std::time::Instant;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use kbt_bench::alloc_counter::CountingAlloc;

use crate::metrics::Values;
use crate::run::{median, WireRun};

/// The system allocator, with `kbt_bench`'s counting allocator switched in
/// while [`GatedAlloc::count`] is on.  Counting costs two atomic adds per
/// allocation — a millisecond on a command that clones a 20 000-name
/// vocabulary — so it is on only for the traced run's one untimed counting
/// window.  The server process is never affected.
struct GatedAlloc {
    counting: AtomicBool,
}

impl GatedAlloc {
    fn count(&self, on: bool) {
        self.counting.store(on, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System` or to
// `CountingAlloc` (itself a forwarder to `System`), so blocks allocated
// under one setting may be freed or resized under the other.
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if self.counting.load(Ordering::Relaxed) {
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { CountingAlloc.alloc(layout) }
        } else {
            // SAFETY: as above.
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` under `layout` (see the impl note).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if self.counting.load(Ordering::Relaxed) {
            // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
            unsafe { CountingAlloc.realloc(ptr, layout, new_size) }
        } else {
            // SAFETY: as above.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static ALLOC: GatedAlloc = GatedAlloc {
    counting: AtomicBool::new(false),
};

type Result<T> = std::result::Result<T, String>;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_file: Option<String>,
}

const USAGE: &str =
    "usage: stackbench --workload <abox_read|commit_stream|update_sat|closure_scan> \
     --seed <n> [--seconds <s>] [--trace 0|1] [--trace-file <path>] | --selftest | --calib";

enum Mode {
    Run(Args),
    Selftest,
    Calib,
}

fn parse_args() -> Result<Mode> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
        trace_file: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--selftest" => return Ok(Mode::Selftest),
            "--calib" => return Ok(Mode::Calib),
            _ => {}
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--trace-file" => args.trace_file = Some(value),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(Mode::Run(args))
}

fn selftest() -> Result<()> {
    let start = Instant::now();
    gen::selftest()?;
    wire::selftest()?;
    metrics::selftest()?;
    trace::selftest()?;
    let ((_, first), (_, second)) = (calib::Kernel::new().slice(), calib::Kernel::new().slice());
    if first != second {
        return Err("the calibration kernel is not deterministic".to_string());
    }
    let manifest = [
        "BENCHMARK.json",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"),
    ]
    .iter()
    .find_map(|path| std::fs::read_to_string(path).ok())
    .ok_or("BENCHMARK.json not found (run from the repository root)")?;
    metrics::check_manifest(&manifest, &gen::WORKLOADS)?;
    println!(
        "selftest ok: generators, oracles, status parsing, catalogue = BENCHMARK.json ({:.2} s)",
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

/// What `SLICE_REF_MS` should be on this machine.
fn calib() {
    let kernel = calib::Kernel::new();
    let times: Vec<f64> = (0..2000).map(|_| kernel.slice().0).collect();
    println!(
        "slice ms: min {:.3} p10 {:.3} median {:.3} p90 {:.3}",
        run::quantile(&times, 0.0),
        run::quantile(&times, 0.1),
        median(&times),
        run::quantile(&times, 0.9)
    );
}

fn percent(share: f64) -> f64 {
    share * 100.0
}

/// The values both reports derive from the wire pass's windows, set-ups
/// and recoveries: the end-to-end metrics and the `proc.*` diagnostics.
fn wire_values(run: &WireRun, values: &mut Values) {
    let raw = run::series(&run.windows);
    let raw_s = |timed: &[run::Timed]| timed.iter().map(|t| t.raw_s).collect::<Vec<_>>();
    let raw_setup_s = median(&raw_s(&run.setups));
    let raw_ops_per_s = run::best_quartile(&raw.ops_per_s, false);
    let raw_read_p50_us = run::best_quartile(&raw.read_p50_us, true);
    let raw_cpu_ms_per_op = run::best_quartile(&raw.cpu_ms_per_op, true);
    let raw_recover_s = run::best_quartile(&raw_s(&run.recoveries), true);
    // at reference speed: times divide by the slowdown, rates multiply
    values.set("setup_s", raw_setup_s / run.slowdown);
    values.set("ops_per_s", raw_ops_per_s * run.slowdown);
    values.set("read_p50_us", raw_read_p50_us / run.slowdown);
    values.set("server_cpu_ms_per_op", raw_cpu_ms_per_op / run.slowdown);
    values.set("server_rss_peak_mb", run.rss_peak_mib);
    values.set(
        "wal_bytes_per_user_byte",
        run.wal_bytes as f64 / run.user_bytes as f64,
    );
    values.set("recover_s", raw_recover_s / run.slowdown);

    values.set("proc.raw_setup_s", raw_setup_s);
    values.set("proc.raw_ops_per_s", raw_ops_per_s);
    values.set("proc.raw_read_p50_us", raw_read_p50_us);
    values.set("proc.raw_server_cpu_ms_per_op", raw_cpu_ms_per_op);
    values.set("proc.raw_recover_s", raw_recover_s);

    values.set("proc.calib_ms", run.slowdown * calib::SLICE_REF_MS);
    values.set(
        "proc.calib_drift_max",
        percent(
            run.windows
                .iter()
                .map(|w| w.timed.drift())
                .fold(0.0, f64::max),
        ),
    );
    values.set(
        "proc.disturbed_windows",
        run.windows.iter().filter(|w| w.disturbed()).count() as f64,
    );
    let ticks: u64 = run.windows.iter().map(|w| w.machine.total).sum();
    let steal: u64 = run.windows.iter().map(|w| w.machine.steal).sum();
    let busy: u64 = run.windows.iter().map(|w| w.machine.busy).sum();
    let ours: u64 = run
        .windows
        .iter()
        .map(|w| w.server_cpu_ns + w.harness_cpu_ns)
        .sum();
    let ours_ticks = ours as f64 / 1e9 * proc::TICKS_PER_S;
    values.set(
        "proc.steal_share",
        percent(steal as f64 / ticks.max(1) as f64),
    );
    values.set(
        "proc.foreign_cpu_share",
        percent((busy as f64 - ours_ticks).max(0.0) / ticks.max(1) as f64),
    );
    let ops: usize = run.windows.iter().map(|w| w.ops).sum();
    let faults: u64 = run.windows.iter().map(|w| w.minor_faults).sum();
    values.set(
        "proc.server_minflt_per_op",
        faults as f64 / ops.max(1) as f64,
    );
    values.set("proc.server_ctx_invol", run.ctx_involuntary as f64);
    // stationarity: how far the first window's rate is from the median's
    let typical = median(&raw.ops_per_s);
    values.set(
        "proc.first_window_gap",
        percent((raw.ops_per_s[0] - typical).abs() / typical),
    );
}

fn print_wire_details(run: &WireRun) {
    println!(
        "windows: {} of {} ops each ({} queries, {} commits per window); \
         set-ups: {}; recoveries: {}",
        run.windows.len(),
        run.windows[0].ops,
        run.windows[0].query_us.len(),
        run.windows[0].commit_us.len(),
        run.setups.len(),
        run.recoveries.len()
    );
    println!(
        "slowdown against the reference machine: {:.4} (base slice {:.4} ms)",
        run.slowdown,
        run.slowdown * calib::SLICE_REF_MS
    );
    println!("window  raw_s  calib_before_ms  calib_after_ms  drift%  raw_ops/s  raw_p50_us  raw_cpu_ms/op");
    let raw = run::series(&run.windows);
    for (i, w) in run.windows.iter().enumerate() {
        println!(
            "{i:>6}  {:.3}  {:>15.3}  {:>14.3}  {:>6.1}  {:>9.1}  {:>10.1}  {:>13.4}{}",
            w.timed.raw_s,
            w.timed.calib_before_ms,
            w.timed.calib_after_ms,
            percent(w.timed.drift()),
            raw.ops_per_s[i],
            raw.read_p50_us[i],
            raw.cpu_ms_per_op[i],
            if w.disturbed() { "  disturbed" } else { "" }
        );
    }
    for failure in &run.tally.examples {
        println!("FAILED {failure}");
    }
}

fn main_inner() -> Result<()> {
    let args = match parse_args()? {
        Mode::Run(args) => args,
        Mode::Selftest => return selftest(),
        Mode::Calib => {
            calib();
            return Ok(());
        }
    };
    let workload = gen::generate(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    proc::install_signal_flag();
    let bin = proc::build_server()?;
    let kernel = calib::Kernel::new();
    // the first block pages the table in; it is not used
    kernel.block();
    let windows = run::windows_for(args.seconds, &workload);
    println!(
        "stackbench workload={} seed={} trace={} slice_ref_ms={} \
         server_env={:?} available_parallelism={}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        calib::SLICE_REF_MS,
        proc::MALLOC_ENV,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut values = Values::default();
    if args.trace {
        let traced = trace::traced_run(&kernel, &bin, &workload, &args, &mut values)?;
        wire_values(&traced.wire, &mut values);
        print_wire_details(&traced.wire);
        trace::print_layer_shares(&traced, workload.name);
        let tally = &traced.wire.tally;
        metrics::report(
            &metrics::PER_LAYER,
            &values,
            tally.attempted + traced.replayed,
            tally.failed + traced.mismatched,
        )
    } else {
        let wire = run::wire_run(&kernel, &bin, &workload, windows)?;
        wire_values(&wire, &mut values);
        print_wire_details(&wire);
        for (name, _) in metrics::PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("proc."))
        {
            if let Some(v) = values.get(name) {
                println!("{name:<34} {v:>18.6}");
            }
        }
        metrics::report(
            &metrics::END_TO_END,
            &values,
            wire.tally.attempted,
            wire.tally.failed,
        )
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("stackbench: {why}");
            ExitCode::FAILURE
        }
    }
}
