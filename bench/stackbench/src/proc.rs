//! Process hygiene: building and spawning `kbt-serve`, reaping it on every
//! exit path, scratch directories, and `/proc` sampling.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Instant;

/// glibc malloc tunables the server is spawned with.  Left adaptive, the
/// mmap threshold flips a closure query between 0 and ~1 000 minor faults
/// from one run to the next; pinned, the page-fault regime is the same in
/// every run.  (Also listed in `bench/README.md`.)
pub const MALLOC_ENV: [(&str, &str); 3] = [
    ("MALLOC_MMAP_THRESHOLD_", "67108864"),
    ("MALLOC_TRIM_THRESHOLD_", "268435456"),
    ("MALLOC_TOP_PAD_", "16777216"),
];

type Result<T> = std::result::Result<T, String>;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SIGINT: i32 = 2;
const SIGKILL: u64 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

/// SIGINT/SIGTERM set a flag the op loop polls, so an interrupted run
/// unwinds normally and its guards kill the server and remove its files.
pub fn install_signal_flag() {
    // SAFETY: `signal` is the C library function; the handler only stores
    // to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Builds `kbt-serve` from the checkout root (the working directory) and
/// returns the executable cargo reports.
pub fn build_server() -> Result<PathBuf> {
    if !Path::new("crates/service/Cargo.toml").exists() {
        return Err(
            "run from the repository root: crates/service/Cargo.toml not found".to_string(),
        );
    }
    let output = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "kbt-service",
            "--bin",
            "kbt-serve",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "cargo build of kbt-serve failed: {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .filter(|line| line.contains("\"name\":\"kbt-serve\""))
        .filter_map(|line| {
            let rest = line.split("\"executable\":\"").nth(1)?;
            Some(PathBuf::from(rest.split('"').next()?))
        })
        .next_back()
        .ok_or_else(|| "cargo reported no kbt-serve executable".to_string())
}

/// A scratch directory under the build's target directory, removed on
/// drop.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn new(server_bin: &Path, label: &str) -> Result<TmpDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let base = server_bin
            .parent()
            .and_then(Path::parent)
            .ok_or("server binary has no target directory")?;
        let dir = base.join("stackbench-tmp").join(format!(
            "{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `kbt-serve`, SIGKILLed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Seconds from `exec` to the `listening on` line — recovery included.
    pub ready_s: f64,
    /// The epoch the `recovered epoch` line reported.
    pub recovered_epoch: u64,
}

impl Server {
    pub fn spawn(bin: &Path, data_dir: &Path, checkpoint_every: u32) -> Result<Server> {
        let mut command = Command::new(bin);
        command
            .args(["--addr", "127.0.0.1:0", "--fsync", "group"])
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--checkpoint-every", &checkpoint_every.to_string()])
            .envs(MALLOC_ENV)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // SAFETY: the closure runs between fork and exec and makes one
        // async-signal-safe syscall; it asks the kernel to SIGKILL the
        // server if this process dies, so not even a SIGKILLed harness
        // leaves a server behind.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let start = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: String::new(),
            ready_s: 0.0,
            recovered_epoch: 0,
        };
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading the server's stdout: {e}"))?;
            if let Some(rest) = line.split("recovered epoch e").nth(1) {
                server.recovered_epoch = rest
                    .split_whitespace()
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("unparsable recovery line: {line}"))?;
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.ready_s = start.elapsed().as_secs_f64();
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .ok_or_else(|| format!("unparsable readiness line: {line}"))?
                    .to_string();
                return Ok(server);
            }
        }
        Err("kbt-serve exited before its readiness line".to_string())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then wait: the crash of the kill-and-restart cycles.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

fn read(path: &str) -> Result<String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// On-CPU nanoseconds of a process from `/proc/<pid>/task/*/schedstat`
/// (nanosecond resolution, unlike the 10 ms `utime` ticks).  A thread that
/// has exited keeps its last sampled value, so sampling every few
/// operations also captures short-lived threads such as the checkpoint
/// writer.
pub struct CpuTracker {
    pid: u32,
    seen: BTreeMap<u32, u64>,
}

impl CpuTracker {
    pub fn new(pid: u32) -> CpuTracker {
        CpuTracker {
            pid,
            seen: BTreeMap::new(),
        }
    }

    pub fn sample(&mut self) -> u64 {
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid)) {
            for task in tasks.flatten() {
                let Some(tid) = task
                    .file_name()
                    .to_str()
                    .and_then(|s| s.parse::<u32>().ok())
                else {
                    continue;
                };
                // a thread may exit between readdir and read: keep its last value
                if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
                    if let Some(ns) = text.split_whitespace().next().and_then(|n| n.parse().ok()) {
                        self.seen.insert(tid, ns);
                    }
                }
            }
        }
        self.seen.values().sum()
    }
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineCpu {
    pub busy: u64,
    pub steal: u64,
    pub total: u64,
}

pub fn machine_cpu() -> Result<MachineCpu> {
    let text = read("/proc/stat")?;
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|n| n.parse().ok())
        .collect();
    if fields.len() < 8 {
        return Err("/proc/stat: short cpu line".to_string());
    }
    // user nice system idle iowait irq softirq steal
    let busy = fields[0] + fields[1] + fields[2] + fields[5] + fields[6];
    Ok(MachineCpu {
        busy,
        steal: fields[7],
        total: fields[..8].iter().sum(),
    })
}

/// Clock ticks per second of `/proc/stat` (USER_HZ is 100 on Linux).
pub const TICKS_PER_S: f64 = 100.0;

/// Peak resident set of a process in MiB (`VmHWM`).
pub fn rss_peak_mib(pid: u32) -> Result<f64> {
    let text = read(&format!("/proc/{pid}/status"))?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}

/// Minor page faults of a process so far (`/proc/<pid>/stat` field 10).
pub fn minor_faults(pid: u32) -> Result<u64> {
    let text = read(&format!("/proc/{pid}/stat"))?;
    // the command name may contain spaces: fields count from the last ')'
    text.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/stat: no minflt"))
}

/// Involuntary context switches summed over the live threads of a process.
pub fn involuntary_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .filter_map(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("nonvoluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse::<u64>().ok())
        })
        .sum()
}
