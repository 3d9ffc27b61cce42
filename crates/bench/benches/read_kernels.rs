//! `read_kernels` — `abox_read`'s reads, in process.
//!
//! `bench/stackbench`'s `abox_read` workload reads named-constant answers
//! out of an ABox whose vocabulary holds 20 000 individuals: half its reads
//! are bare `QUERY CERTAIN cls<j>` over 24 class views of 100–400 rows, and
//! most of the rest are bound goals the answer table holds.  This target
//! builds the same shape in one in-process [`Service`] — no socket, no WAL
//! — and times what a session does for each command: `execute_traced`,
//! then `proto::write_response` into a reused buffer, then dropping the
//! reply.  It prints, per kind of read, the median, min and max of the
//! whole, the medians of its two stages (execute, write) and, for the bare
//! reads, the median cost per row.
//!
//! The bare reads rotate through the 24 views; the bound read
//! `QUERY CERTAIN type('ind<k>', x)` is answered from the table after its
//! first call (one row).  Since a reply holds its answer rather than its
//! text, rendering runs in the write stage, not in the execute stage.
//!
//! Run it with the allocator pinned as `stackbench` pins its server, and
//! alternate it with the build it is compared against:
//!
//! ```text
//! MALLOC_MMAP_THRESHOLD_=67108864 MALLOC_TRIM_THRESHOLD_=268435456 \
//!   MALLOC_TOP_PAD_=16777216 cargo bench -p kbt-bench --bench read_kernels
//! ```

use std::hint::black_box;
use std::time::Instant;

use kbt_service::net::proto;
use kbt_service::{Service, ServiceConfig};

/// Named individuals, and how many of them one `ASSERT` loads.
const INDIVIDUALS: usize = 20_000;
const BATCH: usize = 500;
/// Class views, sized on the ramp 100..=400 rows.
const VIEWS: usize = 24;
/// Hot individuals the bound read rotates through.
const HOT: usize = 8;
/// Rounds over every read run before timing, and rounds timed.
const WARMUP: usize = 3;
const ROUNDS: usize = 40;

/// The rows of view `j`.
fn view_rows(j: usize) -> usize {
    100 + j * 300 / (VIEWS - 1)
}

/// One read's wall time and its two stages, in µs.
#[derive(Default)]
struct Samples {
    total: Vec<f64>,
    execute: Vec<f64>,
    write: Vec<f64>,
    rows: usize,
}

impl Samples {
    /// Runs `line` as a session would, into the reused buffer `wire`.
    fn record(&mut self, s: &Service, line: &str, wire: &mut Vec<u8>) {
        wire.clear();
        let t0 = Instant::now();
        let response = s.execute_traced(line, Some("t1")).unwrap();
        let t1 = Instant::now();
        proto::write_response(wire, &response, Some("t1")).unwrap();
        drop(black_box(response));
        let t2 = Instant::now();
        black_box(&wire);
        let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
        self.total.push(us(t0, t2));
        self.execute.push(us(t0, t1));
        self.write.push(us(t1, t2));
        // every data line ends in a newline, and so does the status line
        self.rows += wire.iter().filter(|&&b| b == b'\n').count() - 1;
    }

    fn print(&mut self, name: &str) {
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let reads = self.total.len();
        let m = median(&mut self.total);
        let (min, max) = (self.total[0], self.total[reads - 1]);
        let (execute, write) = (median(&mut self.execute), median(&mut self.write));
        let rows = self.rows as f64 / reads as f64;
        let per_row = if rows > 1.0 {
            format!(", {:.1} ns/row", m * 1e3 / rows)
        } else {
            String::new()
        };
        println!(
            "{:<24} median {m:.2} µs  min {min:.2} µs  max {max:.2} µs  \
             (execute {execute:.2}, write {write:.2} µs; {rows:.1} rows/read{per_row})",
            format!("read_kernels/{name}"),
        );
    }
}

fn main() {
    let s = Service::new(ServiceConfig::builder().threads(1).build());
    for batch in (0..INDIVIDUALS).step_by(BATCH) {
        let facts: Vec<String> = (batch..batch + BATCH)
            .map(|k| format!("type('ind{k}', 'l{}')", k % 80))
            .collect();
        s.execute(&format!("ASSERT {}", facts.join(", "))).unwrap();
    }
    // view j takes its rows from a stretch of individuals of its own
    let mut first = 0;
    for j in 0..VIEWS {
        let facts: Vec<String> = (first..first + view_rows(j))
            .map(|k| format!("cls{j}('ind{k}')"))
            .collect();
        first += view_rows(j);
        s.execute(&format!("ASSERT {}", facts.join(", "))).unwrap();
    }
    assert_eq!(s.snapshot().vocab().constant_count(), INDIVIDUALS + 80);

    let bare: Vec<String> = (0..VIEWS)
        .map(|j| format!("QUERY CERTAIN cls{j}"))
        .collect();
    let bound: Vec<String> = (0..HOT)
        .map(|i| format!("QUERY CERTAIN type('ind{}', x)", i * 997))
        .collect();
    let mut wire = Vec::new();
    let [mut bare_samples, mut bound_samples]: [Samples; 2] = Default::default();
    for round in 0..WARMUP + ROUNDS {
        for (j, line) in bare.iter().enumerate() {
            let hot = &bound[j % HOT];
            if round < WARMUP {
                s.execute(line).unwrap();
                s.execute(hot).unwrap();
            } else {
                bare_samples.record(&s, line, &mut wire);
                bound_samples.record(&s, hot, &mut wire);
            }
        }
    }
    bare_samples.print("bare_100_400");
    bound_samples.print("tabled_bound");
}
