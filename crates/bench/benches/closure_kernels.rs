//! `closure_kernels` — the engine kernels behind `closure_scan`'s closures,
//! in process.
//!
//! The `oncycle` read of `bench/stackbench`'s `closure_scan` workload asks
//! `reach(x0, x0)` with every argument free, so it derives the whole linear
//! closure of the stored braid on every call: 120 260 facts over 11
//! rounds, from 120 230 probes of the stored `edge` on its first column.
//! This target evaluates the same program over the same 4 000-unit braid
//! straight through [`kbt_engine::evaluate`] at widths 1 and 2 — no
//! service, no parsing, no rendering — and prints, next to the shim's
//! min / median / max per evaluation, the mean join / sort / commit split
//! of the evaluations it timed, read off [`kbt_engine::metrics`].  The
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

use kbt_bench::criterion::{black_box, criterion_group, criterion_main, Criterion};
use kbt_bench::quick_criterion;
use kbt_data::{Database, DatabaseBuilder, RelId};
use kbt_datalog::{lower_strata, DlAtom, Literal, Program, Rule};
use kbt_engine::{evaluate, ir, metrics};
use kbt_logic::builder::var;

const EDGE: u32 = 1;
const REACH: u32 = 2;
const ONCYCLE: u32 = 3;

/// Units in the braid (`closure_scan`'s default size).
const UNITS: u32 = 4_000;

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
fn closure(second: u32) -> Vec<ir::Program> {
    let edge = |a, b| DlAtom::new(r(EDGE), vec![var(a), var(b)]);
    let reach = |a, b| DlAtom::new(r(REACH), vec![var(a), var(b)]);
    let program = Program::new(vec![
        Rule::new(reach(0, 1), vec![Literal::positive(edge(0, 1))]),
        Rule::new(
            reach(0, 2),
            vec![
                Literal::positive(reach(0, 1)),
                Literal::positive(DlAtom::new(r(second), vec![var(1), var(2)])),
            ],
        ),
        Rule::new(
            DlAtom::new(r(ONCYCLE), vec![var(0)]),
            vec![Literal::positive(reach(0, 0))],
        ),
    ])
    .expect("a positive program");
    lower_strata(&program, None).expect("a positive program stratifies")
}

/// The round stages' summed wall time in ns, and the evaluations run.
fn stages() -> [u64; 4] {
    let m = metrics();
    [
        m.join_ns.snapshot().sum,
        m.sort_ns.snapshot().sum,
        m.commit_ns.snapshot().sum,
        m.eval_ns.snapshot().count,
    ]
}

fn closures(c: &mut Criterion) {
    let edb = braid();
    for (name, second) in [("oncycle", EDGE), ("nonlinear", REACH)] {
        kernels(c, name, &closure(second), &edb);
    }
}

/// Times one closure at widths 1 and 2 and prints its split.
fn kernels(c: &mut Criterion, name: &str, strata: &[ir::Program], edb: &Database) {
    let keep = [r(ONCYCLE)];
    let (_, stats) = evaluate(strata, edb, 1, None, Some(&keep)).unwrap();
    println!(
        "closure_kernels/{name}: {} facts derived over {} rounds from {} probes",
        stats.derived_facts, stats.iterations, stats.index_probes
    );
    for width in [1, 2] {
        let before = stages();
        c.bench_function(format!("closure_kernels/{name}/width{width}"), |b| {
            b.iter(|| black_box(evaluate(strata, edb, width, None, Some(&keep)).unwrap()));
        });
        let after = stages();
        if after[3] == before[3] {
            continue; // filtered out
        }
        let evals = (after[3] - before[3]) as f64;
        let ms = |stage: usize| (after[stage] - before[stage]) as f64 / evals / 1e6;
        println!(
            "{:<60} join {:.2} ms  sort {:.2} ms  commit {:.2} ms  (mean of {evals} evaluations)",
            format!("closure_kernels/{name}/width{width} split"),
            ms(0),
            ms(1),
            ms(2),
        );
    }
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = closures
}
criterion_main!(benches);
