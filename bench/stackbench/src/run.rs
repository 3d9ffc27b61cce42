//! The wire pass: a spawned `kbt-serve`, one TCP session, closed loop,
//! one command in flight, one load-generator thread.
//!
//! Repeatability comes from the shape of the run: every run plays the same
//! fixed command sequences (set-up, warm-up, then the same short window
//! sequence once per window), so counts repeat exactly and a slow machine
//! cannot change *which* commands are measured.  The machine stalls in
//! plateaus that only ever slow a window down (see `calib`), so a window
//! metric is reported as its *best quartile* over the run's many windows —
//! the value between plateaus — divided by the run's slowdown, which
//! `calib` takes from its slices the same way.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::calib::{self, Kernel};
use crate::gen::{Kind, Op, Workload};
use crate::proc::{self, CpuTracker, MachineCpu, Server, TmpDir};
use crate::wire::{self, Client};

type Result<T> = std::result::Result<T, String>;

/// The quantile of the windows (counted from the better end) that a window
/// metric reports.
pub const BEST_QUANTILE: f64 = 0.25;
/// The server's CPU clock is read at least this often inside a window, so
/// that a thread that lives for less than a window (the checkpoint writer)
/// is seen before it exits.
const CPU_SAMPLE_EVERY: Duration = Duration::from_millis(10);
/// Fresh set-ups per run (`setup_s` is their median).
pub const SETUPS: usize = 3;
/// SIGKILL-and-restart cycles per run: each gives one `recover_s` sample
/// and a fresh server process for its share of the windows.
pub const RECOVERIES: usize = 6;

/// How many windows `--seconds` buys: windows are short (see
/// [`Workload::window_s`]), so that many of them fall between two plateaus.
pub fn windows_for(seconds: u64, workload: &Workload) -> usize {
    ((seconds as f64 / workload.window_s).round() as usize).max(RECOVERIES)
}

/// An interval timed between two kernel blocks (their median slice times).
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub raw_s: f64,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
}

impl Timed {
    pub fn drift(&self) -> f64 {
        calib::drift(self.calib_before_ms, self.calib_after_ms)
    }
}

/// What one measured window recorded.
#[derive(Clone, Debug)]
pub struct Window {
    pub timed: Timed,
    pub ops: usize,
    pub query_us: Vec<f64>,
    pub commit_us: Vec<f64>,
    pub server_cpu_ns: u64,
    pub harness_cpu_ns: u64,
    pub machine: MachineCpu,
    pub minor_faults: u64,
    pub bytes_in: u64,
}

impl Window {
    pub fn disturbed(&self) -> bool {
        self.timed.drift() > calib::DISTURBED
    }
}

/// Attempt and failure counts of the whole run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human-readable report.
    pub examples: Vec<String>,
}

impl Tally {
    fn record(&mut self, op: &Op, outcome: Result<()>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.examples.len() < 5 {
                let head: String = op.cmd.chars().take(80).collect();
                self.examples.push(format!("{head}: {why}"));
            }
        }
    }
}

/// A live server with its session and the state the checks track.
pub struct Session {
    pub server: Server,
    pub client: Client,
    /// The epoch every reply must name: one more per commit.
    pub epoch: u64,
    /// Bytes of committed command text sent so far.
    pub user_bytes: u64,
    cpu: CpuTracker,
    cpu_sampled: Instant,
}

impl Session {
    fn open(bin: &Path, dir: &Path, workload: &Workload, epoch: u64) -> Result<Session> {
        let server = Server::spawn(bin, dir, workload.checkpoint_every)?;
        if server.recovered_epoch != epoch {
            return Err(format!(
                "server recovered epoch {}, expected {epoch}",
                server.recovered_epoch
            ));
        }
        let client = Client::connect(&server.addr)?;
        let cpu = CpuTracker::new(server.pid());
        Ok(Session {
            server,
            client,
            epoch,
            user_bytes: 0,
            cpu,
            cpu_sampled: Instant::now(),
        })
    }

    /// Plays `ops` in order, checking every reply.  `window` receives the
    /// latencies and byte counts, `capture` the raw reply bytes.
    pub fn play(
        &mut self,
        ops: &[Op],
        tally: &mut Tally,
        mut window: Option<&mut Window>,
        mut capture: Option<&mut Vec<Vec<u8>>>,
    ) -> Result<()> {
        for op in ops {
            if proc::interrupted() {
                return Err("interrupted".to_string());
            }
            let mut raw = capture.as_ref().map(|_| Vec::new());
            let start = Instant::now();
            let reply = self.client.roundtrip(&op.cmd, raw.as_mut())?;
            let micros = start.elapsed().as_secs_f64() * 1e6;
            if op.kind == Kind::Commit {
                self.epoch += 1;
                self.user_bytes += op.cmd.len() as u64;
            }
            let outcome = wire::check(&reply.status, reply.rows, &op.expect, self.epoch);
            if outcome.is_err() && op.kind == Kind::Commit {
                // a refused commit published nothing
                self.epoch -= 1;
            }
            tally.record(op, outcome);
            if let (Some(all), Some(raw)) = (capture.as_deref_mut(), raw) {
                all.push(raw);
            }
            if let Some(w) = window.as_deref_mut() {
                match op.kind {
                    Kind::Query => w.query_us.push(micros),
                    Kind::Commit => w.commit_us.push(micros),
                }
                w.bytes_in += reply.bytes;
            }
            if window.is_some() && self.cpu_sampled.elapsed() >= CPU_SAMPLE_EVERY {
                self.cpu.sample();
                self.cpu_sampled = Instant::now();
            }
        }
        Ok(())
    }

    /// One admin command (`STATS`, `METRICS`, `WALSTAT`): data lines and
    /// status line, unchecked beyond `OK`.
    pub fn admin(&mut self, command: &str) -> Result<(Vec<String>, String)> {
        let mut raw = Vec::new();
        let reply = self.client.roundtrip(command, Some(&mut raw))?;
        if !reply.status.starts_with("OK") {
            return Err(format!("{command}: {}", reply.status));
        }
        let text = String::from_utf8_lossy(&raw);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.pop();
        Ok((lines, reply.status))
    }

    /// WAL bytes this server process has appended (`WALSTAT`).
    pub fn wal_bytes(&mut self) -> Result<u64> {
        let (_, walstat) = self.admin("WALSTAT")?;
        wire::status_field(&walstat, "bytes")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("WALSTAT without bytes: {walstat}"))
    }

    /// The `METRICS` exposition as `series → value`.
    pub fn scrape(&mut self) -> Result<std::collections::BTreeMap<String, f64>> {
        let (lines, _) = self.admin("METRICS")?;
        Ok(lines
            .iter()
            .filter_map(|line| line.strip_prefix("= "))
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (name, value) = line.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }
}

/// One fresh set-up: spawn on an empty directory, load the data over the
/// wire, register and apply the rulebase, warm up — timed from just before
/// `exec` to the last warm-up reply.
pub fn setup(
    kernel: &Kernel,
    bin: &Path,
    dir: &Path,
    workload: &Workload,
    tally: &mut Tally,
) -> Result<(Session, Timed)> {
    let calib_before_ms = kernel.block();
    let start = Instant::now();
    let mut session = Session::open(bin, dir, workload, 0)?;
    session.play(&workload.setup, tally, None, None)?;
    session.play(&workload.warmup, tally, None, None)?;
    let raw_s = start.elapsed().as_secs_f64();
    let calib_after_ms = kernel.block();
    Ok((
        session,
        Timed {
            raw_s,
            calib_before_ms,
            calib_after_ms,
        },
    ))
}

/// Plays the window sequence `count` times.  Consecutive windows share a
/// kernel block: the one after window `i` is the one before window `i + 1`.
pub fn measure(
    kernel: &Kernel,
    session: &mut Session,
    workload: &Workload,
    count: usize,
    tally: &mut Tally,
    mut capture_first: Option<&mut Vec<Vec<u8>>>,
) -> Result<Vec<Window>> {
    let pid = session.server.pid();
    let mut harness_cpu = CpuTracker::new(std::process::id());
    let mut windows = Vec::with_capacity(count);
    let mut calib_before_ms = kernel.block();
    for i in 0..count {
        let cpu0 = session.cpu.sample();
        let self0 = harness_cpu.sample();
        let machine0 = proc::machine_cpu()?;
        let faults0 = proc::minor_faults(pid)?;
        let mut window = Window {
            timed: Timed {
                raw_s: 0.0,
                calib_before_ms,
                calib_after_ms: 0.0,
            },
            ops: workload.window.len(),
            query_us: Vec::with_capacity(workload.window.len()),
            commit_us: Vec::with_capacity(workload.window.len()),
            server_cpu_ns: 0,
            harness_cpu_ns: 0,
            machine: MachineCpu::default(),
            minor_faults: 0,
            bytes_in: 0,
        };
        let capture = if i == 0 {
            capture_first.as_deref_mut()
        } else {
            None
        };
        let start = Instant::now();
        session.play(&workload.window, tally, Some(&mut window), capture)?;
        window.timed.raw_s = start.elapsed().as_secs_f64();
        window.server_cpu_ns = session.cpu.sample() - cpu0;
        window.harness_cpu_ns = harness_cpu.sample() - self0;
        let machine1 = proc::machine_cpu()?;
        window.machine = MachineCpu {
            busy: machine1.busy - machine0.busy,
            steal: machine1.steal - machine0.steal,
            total: machine1.total - machine0.total,
        };
        window.minor_faults = proc::minor_faults(pid)? - faults0;
        let calib_after_ms = kernel.block();
        window.timed.calib_after_ms = calib_after_ms;
        calib_before_ms = calib_after_ms;
        windows.push(window);
    }
    Ok(windows)
}

/// One SIGKILL-and-restart on the session's data directory: the restart
/// is timed by the server's own readiness line, from `exec` to `listening
/// on` (a connect would add the acceptor's 25 ms poll tick).
pub fn recover(
    kernel: &Kernel,
    bin: &Path,
    dir: &Path,
    workload: &Workload,
    session: Session,
) -> Result<(Session, Timed)> {
    let (epoch, user_bytes) = (session.epoch, session.user_bytes);
    let calib_before_ms = kernel.block();
    session.server.kill();
    let mut next = Session::open(bin, dir, workload, epoch)?;
    next.user_bytes = user_bytes;
    let raw_s = next.server.ready_s;
    let calib_after_ms = kernel.block();
    Ok((
        next,
        Timed {
            raw_s,
            calib_before_ms,
            calib_after_ms,
        },
    ))
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The quartile of `values` at the better end: the value a window metric
/// reports for a run (see the module docs).
pub fn best_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    if lower_is_better {
        quantile(values, BEST_QUANTILE)
    } else {
        -quantile(
            &values.iter().map(|v| -v).collect::<Vec<_>>(),
            BEST_QUANTILE,
        )
    }
}

/// Per-window raw values of the three window metrics; the caller takes
/// their [`best_quartile`] and divides by the run's slowdown.
pub struct WindowSeries {
    pub ops_per_s: Vec<f64>,
    pub read_p50_us: Vec<f64>,
    pub cpu_ms_per_op: Vec<f64>,
}

pub fn series(windows: &[Window]) -> WindowSeries {
    WindowSeries {
        ops_per_s: windows
            .iter()
            .map(|w| w.ops as f64 / w.timed.raw_s)
            .collect(),
        read_p50_us: windows.iter().map(|w| median(&w.query_us)).collect(),
        cpu_ms_per_op: windows
            .iter()
            .map(|w| w.server_cpu_ns as f64 / 1e6 / w.ops as f64)
            .collect(),
    }
}

/// Everything the end-to-end report needs from one untraced run.
pub struct WireRun {
    pub setups: Vec<Timed>,
    pub windows: Vec<Window>,
    pub recoveries: Vec<Timed>,
    /// The run's slowdown against the reference machine, from every kernel
    /// block of the run.
    pub slowdown: f64,
    pub rss_peak_mib: f64,
    pub wal_bytes: u64,
    pub user_bytes: u64,
    pub ctx_involuntary: u64,
    pub tally: Tally,
}

/// The untraced run: [`SETUPS`] set-ups, then [`RECOVERIES`] cycles on the
/// last one's data directory — SIGKILL, restart (timed: a `recover_s`
/// sample), warm-up, and that cycle's share of the `windows` windows.
///
/// The windows are spread over the restarted servers because one server
/// process can be 20 % slower than the next for as long as it lives (where
/// its memory landed, it seems), and a restart is the cheap way to a new
/// process in the same state; the best quantile of the pooled windows then
/// does not hang on the luck of a single process.  Every cycle's warm-up
/// and windows also check that the recovered server answers correctly.
pub fn wire_run(
    kernel: &Kernel,
    bin: &Path,
    workload: &Workload,
    windows: usize,
) -> Result<WireRun> {
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        // the previous set-up's server and directory go first
        drop(live.take());
        let dir = TmpDir::new(bin, workload.name)?;
        let (session, timed) = setup(kernel, bin, dir.path(), workload, &mut tally)?;
        eprintln!(
            "stackbench: set-up {}/{SETUPS}: {:.3} s raw",
            i + 1,
            timed.raw_s
        );
        setups.push(timed);
        live = Some((session, dir));
    }
    let (mut session, dir) = live.expect("SETUPS is positive");
    let mut rss_peak_mib = proc::rss_peak_mib(session.server.pid())?;

    let share = windows.div_ceil(RECOVERIES);
    let mut recoveries = Vec::with_capacity(RECOVERIES);
    let mut measured = Vec::with_capacity(share * RECOVERIES);
    let mut ctx_involuntary = 0;
    // `WALSTAT` counts from when its process opened the log, so every
    // server's count is taken before it goes
    let mut wal_bytes = 0;
    for _ in 0..RECOVERIES {
        if workload.checkpoint_every > 0 {
            // a workload that checkpoints recovers from a checkpoint plus a
            // log tail; a manual checkpoint followed by a fixed command
            // sequence makes every cycle's tail the same length
            session.admin("CHECKPOINT")?;
            session.play(&workload.recovery_tail, &mut tally, None, None)?;
        }
        wal_bytes += session.wal_bytes()?;
        let (next, timed) = recover(kernel, bin, dir.path(), workload, session)?;
        session = next;
        recoveries.push(timed);
        session.play(&workload.warmup, &mut tally, None, None)?;
        let ctx0 = proc::involuntary_switches(session.server.pid());
        measured.extend(measure(
            kernel,
            &mut session,
            workload,
            share,
            &mut tally,
            None,
        )?);
        ctx_involuntary += proc::involuntary_switches(session.server.pid()).saturating_sub(ctx0);
        rss_peak_mib = rss_peak_mib.max(proc::rss_peak_mib(session.server.pid())?);
    }
    wal_bytes += session.wal_bytes()?;
    let user_bytes = session.user_bytes;
    // the server goes before the directory it writes to
    drop(session);
    drop(dir);

    Ok(WireRun {
        setups,
        windows: measured,
        recoveries,
        slowdown: kernel.slowdown(),
        rss_peak_mib,
        wal_bytes,
        user_bytes,
        ctx_involuntary,
        tally,
    })
}
