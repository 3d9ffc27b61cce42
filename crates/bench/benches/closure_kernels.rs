//! `closure_kernels` — the engine kernels behind `closure_scan`'s closures,
//! in process.
//!
//! The `oncycle` read of `bench/stackbench`'s `closure_scan` workload asks
//! `reach(x0, x0)` with every argument free, so it derives the whole linear
//! closure of the stored braid on every call: 120 260 facts over 11
//! rounds, from 120 230 probes of the stored `edge` on its first column.
//! This target evaluates the same program over the same 4 000-unit braid
//! straight through [`kbt_engine::evaluate`] at widths 1 and 2 — no
//! service, no parsing, no rendering — and prints the median, min and max
//! of `EVALS` timed evaluations, and the mean join / sort / commit split of
//! the evaluations it timed, read off [`kbt_engine::metrics`].  The
//! stored `edge` is one run for the whole target, so its indexes are built
//! by the warm-up and every timed evaluation reads them in place, as every
//! read of one epoch does in the service.
//!
//! Next to it, `nonlinear` derives the same closure by `reach ⋈ reach`
//! (`closure_scan`'s `hits` shape without the push-down that `QUERY`
//! applies): the head is probed through two indexes as it grows, and its
//! second delta variant — the delta scanned as `reach(x1, x2)`, `reach`
//! probed on its second column — hands the fixpoint filter its candidates
//! ordered by the joined column, not by their own first one: the worst
//! case for the filter's cursor, which gallops forward through sorted key
//! levels and searches back when a key is smaller than the last.
//!
//! Run it with the allocator pinned as `stackbench` pins its server —
//! without the three `MALLOC_*` variables glibc's adaptive mmap threshold
//! moves the commit stage by several milliseconds from one process to the
//! next — and alternate it with the build it is compared against:
//!
//! ```text
//! MALLOC_MMAP_THRESHOLD_=67108864 MALLOC_TRIM_THRESHOLD_=268435456 \
//!   MALLOC_TOP_PAD_=16777216 cargo bench -p kbt-bench --bench closure_kernels
//! ```
//!
//! A name filter after `--` (`width1`, `nonlinear`, …) times only the
//! lines whose name contains it.

use std::hint::black_box;
use std::time::Instant;

use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_datalog::{lower_program, DlAtom, Program, Rule};
use kbt_engine::{evaluate, ir, metrics};
use kbt_logic::builder::var;

const EDGE: u32 = 1;
const REACH: u32 = 2;
const ONCYCLE: u32 = 3;

/// Units in the braid (`closure_scan`'s default size).
const UNITS: u32 = 4_000;
/// Evaluations run before timing, and evaluations timed, per width.
const WARMUP: usize = 3;
const EVALS: usize = 30;

fn r(i: u32) -> RelId {
    RelId::new(i)
}

/// `closure_scan`'s stored graph: `UNITS` units of two five-edge strands
/// from a common root, every 800th unit (from the 7th) closed into a cycle.
fn braid() -> Database {
    let mut b = DatabaseBuilder::new().relation(r(EDGE), 2);
    for u in 0..UNITS {
        let root = u * 16;
        b = b
            .fact(r(EDGE), [root, root + 1])
            .fact(r(EDGE), [root, root + 6]);
        for i in 1..5 {
            b = b
                .fact(r(EDGE), [root + i, root + i + 1])
                .fact(r(EDGE), [root + 5 + i, root + 6 + i]);
        }
        if u % 800 == 7 {
            b = b.fact(r(EDGE), [root + 5, root]);
        }
    }
    b.build().expect("a binary edge relation")
}

/// The closure of `edge` joined on `second` — `edge` for the linear
/// closure, `reach` for the non-linear one — and the nodes it leads back
/// to.
fn closure(second: u32) -> ir::Program {
    let edge = |a, b| DlAtom::new(r(EDGE), vec![var(a), var(b)]);
    let reach = |a, b| DlAtom::new(r(REACH), vec![var(a), var(b)]);
    let program = Program::new(vec![
        Rule::new(reach(0, 1), vec![edge(0, 1)]),
        Rule::new(
            reach(0, 2),
            vec![reach(0, 1), DlAtom::new(r(second), vec![var(1), var(2)])],
        ),
        Rule::new(DlAtom::new(r(ONCYCLE), vec![var(0)]), vec![reach(0, 0)]),
    ])
    .expect("a positive program");
    lower_program(&program, None).expect("a safe program lowers")
}

/// The round stages' summed wall time in ns: join, sort, commit.
fn stages() -> [u64; 3] {
    let m = metrics();
    [
        m.join_ns.snapshot().sum,
        m.sort_ns.snapshot().sum,
        m.commit_ns.snapshot().sum,
    ]
}

/// Times one closure at widths 1 and 2 and prints its split.
fn kernels(filter: Option<&str>, name: &str, program: &ir::Program, edb: &Database) {
    let keep = [r(ONCYCLE)];
    let (_, stats) = evaluate(program, edb, 1, None, Some(&keep)).unwrap();
    println!(
        "closure_kernels/{name}: {} facts derived over {} rounds from {} probes",
        stats.derived_facts, stats.iterations, stats.index_probes
    );
    for width in [1, 2] {
        let line = format!("closure_kernels/{name}/width{width}");
        if filter.is_some_and(|f| !line.contains(f)) {
            continue;
        }
        let run = || black_box(evaluate(program, edb, width, None, Some(&keep)).unwrap());
        for _ in 0..WARMUP {
            run();
        }
        let before = stages();
        let mut ms: Vec<f64> = (0..EVALS)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let after = stages();
        ms.sort_by(f64::total_cmp);
        let stage = |i: usize| (after[i] - before[i]) as f64 / EVALS as f64 / 1e6;
        println!(
            "{line:<40} median {:.2} ms  min {:.2} ms  max {:.2} ms  \
             (join {:.2} ms  sort {:.2} ms  commit {:.2} ms, mean of {EVALS})",
            ms[EVALS / 2],
            ms[0],
            ms[EVALS - 1],
            stage(0),
            stage(1),
            stage(2),
        );
    }
}

fn main() {
    // `cargo bench` passes `--bench`; the first other argument filters
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let edb = braid();
    for (name, second) in [("oncycle", EDGE), ("nonlinear", REACH)] {
        kernels(filter.as_deref(), name, &closure(second), &edb);
    }
}
