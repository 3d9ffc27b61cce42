//! `kbt-serve` — the network front of the knowledgebase service.
//!
//! Binds a TCP listener and serves the line-oriented command language to
//! concurrent connections, one session per connection, all multiplexed on
//! one shared MVCC [`kbt_service::Service`] (see the wire-protocol section
//! of the `kbt_service` crate docs).
//!
//! ```text
//! kbt-serve [--addr HOST:PORT] [--threads N] [--max-sessions N]
//!           [--idle-timeout-ms N] [--preload script.kbt]
//!           [--data-dir DIR] [--fsync group|never]
//!           [--checkpoint-every N]
//!           [--log-format text|json] [--slow-query-ms N]
//! ```
//!
//! * `--addr` defaults to `127.0.0.1:7341`; port `0` picks an ephemeral
//!   port (the `listening on` line names the actual one).
//! * `--preload` runs a script server-side before accepting connections —
//!   initial state, not a client session.
//! * `--data-dir` makes the service durable: commits append to a
//!   write-ahead log under the directory, `CHECKPOINT`/`WALSTAT` work,
//!   and startup recovers the committed state (newest checkpoint + WAL
//!   replay; the `recovered` line reports the epoch).  `--fsync` picks
//!   the flush policy (default `group`: every commit is flushed before
//!   its reply, concurrent commits sharing fsyncs; `never`: no flush) and
//!   `--checkpoint-every` the automatic checkpoint interval in commits
//!   (`0` = manual checkpoints only); both require `--data-dir`.
//! * `--log-format` installs a structured stderr log sink (`text` =
//!   `key=value` lines, `json` = one object per line) for session
//!   lifecycle events and slow spans.
//! * `--slow-query-ms` sets the slow-span threshold: any timed span at or
//!   over it (`slow_query` with the query text, commit phases, per-verb
//!   command spans) is logged.  Implies `--log-format text` unless
//!   `--log-format` says otherwise; `0` is rejected — it would log every
//!   span and means "off" in no convention this workspace uses.
//! * SIGINT / SIGTERM shut down gracefully: the acceptor stops, live
//!   sessions are told `ERR shutting-down` at their next poll tick, every
//!   thread is joined, and the process exits 0.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use kbt_obs::{LogFormat, StderrSink};
use kbt_service::net::{NetConfig, NetServer};
use kbt_service::{DurabilityConfig, FsyncPolicy, Service, ServiceConfig};

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut fsync: Option<FsyncPolicy> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut net = NetConfig {
        addr: "127.0.0.1:7341".to_string(),
        ..NetConfig::default()
    };
    let mut preload: Option<String> = None;
    let mut log_format: Option<LogFormat> = None;
    let mut slow_query_ms: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(addr) = args.next() else {
                    eprintln!("--addr needs HOST:PORT");
                    return ExitCode::FAILURE;
                };
                net.addr = addr;
            }
            "--threads" => {
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                };
                config.threads = n;
            }
            "--max-sessions" => {
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--max-sessions needs a positive integer");
                    return ExitCode::FAILURE;
                };
                net.max_sessions = n;
            }
            "--idle-timeout-ms" => {
                // 0 is rejected: a zero read timeout is invalid at the
                // socket layer and would silently kill every session
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--idle-timeout-ms needs a positive integer");
                    return ExitCode::FAILURE;
                };
                net.idle_timeout = Duration::from_millis(n);
            }
            "--preload" => {
                let Some(path) = args.next() else {
                    eprintln!("--preload needs a script path");
                    return ExitCode::FAILURE;
                };
                preload = Some(path);
            }
            "--data-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("--data-dir needs a directory path");
                    return ExitCode::FAILURE;
                };
                config.durability = Some(DurabilityConfig::new(dir));
            }
            "--fsync" => {
                let policy = match args.next().as_deref() {
                    Some("group") => FsyncPolicy::group_commit(),
                    Some("never") => FsyncPolicy::Never,
                    _ => {
                        eprintln!("--fsync needs 'group' or 'never'");
                        return ExitCode::FAILURE;
                    }
                };
                fsync = Some(policy);
            }
            "--checkpoint-every" => {
                // 0 is allowed here: it means "manual checkpoints only"
                let Some(n) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--checkpoint-every needs a non-negative integer");
                    return ExitCode::FAILURE;
                };
                checkpoint_every = Some(n);
            }
            "--log-format" => {
                let Some(format) = args.next().as_deref().and_then(LogFormat::parse) else {
                    eprintln!("--log-format needs 'text' or 'json'");
                    return ExitCode::FAILURE;
                };
                log_format = Some(format);
            }
            "--slow-query-ms" => {
                // 0 is rejected: it would log *every* span, and `0 = off`
                // is a convention nothing else in this workspace uses —
                // same footgun policy as --idle-timeout-ms
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--slow-query-ms needs a positive integer");
                    return ExitCode::FAILURE;
                };
                slow_query_ms = Some(n);
            }
            "--help" | "-h" => {
                println!(
                    "usage: kbt-serve [--addr HOST:PORT] [--threads N] [--max-sessions N] \
                     [--idle-timeout-ms N] [--preload script.kbt] \
                     [--data-dir DIR] [--fsync group|never] [--checkpoint-every N] \
                     [--log-format text|json] [--slow-query-ms N]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    match (&mut config.durability, fsync, checkpoint_every) {
        (Some(d), fsync, every) => {
            if let Some(policy) = fsync {
                d.fsync_policy = policy;
            }
            if let Some(n) = every {
                d.checkpoint_every_n_commits = n;
            }
        }
        (None, Some(_), _) | (None, _, Some(_)) => {
            eprintln!("--fsync / --checkpoint-every require --data-dir");
            return ExitCode::FAILURE;
        }
        (None, None, None) => {}
    }

    let durability = config.durability.clone();
    let service = match Service::open(config) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("cannot open service state: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(d) = durability {
        println!(
            "kbt-serve recovered epoch {} from {} (fsync {}, checkpoint every {})",
            service.epoch(),
            d.data_dir.display(),
            d.fsync_policy.name(),
            d.checkpoint_every_n_commits
        );
    }
    if log_format.is_some() || slow_query_ms.is_some() {
        service
            .obs_registry()
            .set_sink(Some(Arc::new(StderrSink::new(
                log_format.unwrap_or(LogFormat::Text),
            ))));
    }
    if let Some(ms) = slow_query_ms {
        service
            .obs_registry()
            .set_slow_span_ns(ms.saturating_mul(1_000_000));
    }
    if let Some(path) = preload {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = service.execute_script(&text) {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("kbt-serve preloaded {path} (epoch {})", service.epoch());
    }

    let server = match NetServer::start(service.clone(), net.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", net.addr);
            return ExitCode::FAILURE;
        }
    };
    // the readiness line: supervisors (the CI e2e job) wait for it before
    // connecting, so readiness probes never inflate the session counters
    println!(
        "kbt-serve listening on {} (threads {}, max sessions {}, idle timeout {} ms)",
        server.local_addr(),
        service.config().threads,
        net.max_sessions,
        net.idle_timeout.as_millis()
    );

    signals::install();
    while !signals::requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let counters = service.session_counters();
    server.shutdown();
    println!(
        "kbt-serve shut down at epoch {} ({} session(s) accepted, {} rejected, {} idle-closed)",
        service.epoch(),
        counters.accepted.get(),
        counters.rejected.get(),
        counters.idle_closed.get()
    );
    ExitCode::SUCCESS
}

/// Async-signal-safe shutdown request: the handler only stores a flag the
/// main loop polls.  `std` exposes no signal API, so the registration goes
/// through libc's `signal(2)` directly (libc is always linked on the unix
/// targets this gate covers).
#[cfg(unix)]
mod signals {
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: c_int) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal` is the C standard library function; the handler
        // only performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Non-unix fallback: no signal handling; the process runs until killed.
#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}
