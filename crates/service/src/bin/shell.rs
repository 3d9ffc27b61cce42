//! `kbt-shell` — the service's textual frontend, local or remote.
//!
//! * `kbt-shell script.kbt …` — batch mode: run each script through one
//!   in-process service instance, print every response, exit non-zero on
//!   the first error (CI smoke-runs this on `examples/service_demo.kbt`).
//! * `kbt-shell --connect HOST:PORT [script.kbt …]` — the same, but every
//!   command goes to a running `kbt-serve` over TCP.
//! * `kbt-shell` — REPL mode: read commands from stdin (with a prompt when
//!   stdin is a terminal); errors are printed and the session continues.
//!   A line ending inside an open `'…'` quote continues onto the next one.
//! * `--threads N` — set the evaluation width explicitly (local mode only;
//!   a server's width is fixed server-side).
//! * `--data-dir DIR` — local mode only: open the service durably over the
//!   directory (recovering any existing state), so shell sessions and
//!   `kbt-serve` runs can share one committed history.  `CHECKPOINT` and
//!   `WALSTAT` work; commits append to the write-ahead log.
//! * `--time` — print each command's client-observed latency to **stderr**
//!   (stdout transcripts stay byte-identical), and a p50/p95/p99 summary at
//!   exit from the same log-scale histogram the server-side metrics use.
//!   With `--connect` that is the full round trip over the wire.
//! * `--profile` — after every successful `QUERY`, re-run it as `PROFILE`
//!   and print the per-rule breakdown to **stderr** (stdout transcripts
//!   stay byte-identical; `PROFILE` never commits, so state is untouched).
//!   Implies the `--time` exit summary so the breakdown comes with
//!   end-to-end quantiles.
//!
//! Both modes print each reply in its wire form — `= ` data lines, then
//! one `OK …`/`ERR …` status line — written by the one encoder,
//! [`kbt_service::net::proto::write_response`].  The same script prints
//! the same transcript in both modes, except that a server adds an `id=`
//! trace key to every status line, and `STATS` reports the server's own
//! width and session counts.
//!
//! Scripts are segmented into **logical** command lines (a quoted constant
//! may contain newlines) by the same scanner the service and the network
//! framer use, so a script means the same thing in every mode.

use std::io::{BufRead, IsTerminal, Write};
use std::process::ExitCode;
use std::time::Instant;

use kbt_obs::HistogramCell;
use kbt_service::command::{quote_open, split_command, split_lines};
use kbt_service::net::proto::{encode_response, encode_service_error};
use kbt_service::net::{Client, WireResponse};
use kbt_service::{Service, ServiceConfig, Verb};

fn main() -> ExitCode {
    let mut scripts = Vec::new();
    let mut config = ServiceConfig::default();
    let mut connect: Option<String> = None;
    let mut time = false;
    let mut profile = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                // 0 is rejected rather than coerced: everywhere else in the
                // workspace 0 means "use the default", and silently running
                // sequentially would contradict the operator's intent
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
            "--connect" => {
                let Some(addr) = args.next() else {
                    eprintln!("--connect needs HOST:PORT");
                    return ExitCode::FAILURE;
                };
                connect = Some(addr);
            }
            "--data-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("--data-dir needs a directory path");
                    return ExitCode::FAILURE;
                };
                config.durability = Some(kbt_service::DurabilityConfig::new(dir));
            }
            "--time" => time = true,
            "--profile" => profile = true,
            "--help" | "-h" => {
                println!(
                    "usage: kbt-shell [--threads N] [--connect HOST:PORT] [--data-dir DIR] \
                     [--time] [--profile] [script …]"
                );
                println!("       (no scripts: interactive REPL on stdin)");
                return ExitCode::SUCCESS;
            }
            _ => scripts.push(arg),
        }
    }

    let backend = match connect {
        Some(addr) => {
            if config.durability.is_some() {
                eprintln!("--data-dir is local-mode only (the server owns its own data dir)");
                return ExitCode::FAILURE;
            }
            match Client::connect(addr.as_str()) {
                Ok(client) => Backend::Remote(client),
                Err(e) => {
                    eprintln!("cannot connect to {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => match Service::open(config) {
            Ok(service) => Backend::Local(Box::new(service)),
            Err(e) => {
                eprintln!("cannot open service state: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut shell = Shell {
        backend,
        timing: (time || profile).then(|| Box::new(HistogramCell::new())),
        show_time: time,
        profile,
    };
    let code = if scripts.is_empty() {
        repl(&mut shell)
    } else {
        batch(&mut shell, &scripts)
    };
    shell.report_timing();
    code
}

/// The backend plus the optional `--time` instrumentation around it.
struct Shell {
    backend: Backend,
    /// When `--time` or `--profile` is set: the latency histogram every
    /// command records into (the same log-scale cell the server-side
    /// metrics use).
    timing: Option<Box<HistogramCell>>,
    /// `--time`: print each command's latency line (the exit summary is
    /// printed whenever `timing` is live).
    show_time: bool,
    /// `--profile`: re-run each successful `QUERY` as `PROFILE` and print
    /// the per-rule breakdown to stderr.
    profile: bool,
}

impl Shell {
    /// Runs one command and prints its reply in wire form, timing it when
    /// `--time` is set.  The latency and profile lines go to stderr so
    /// stdout transcripts stay byte-identical with and without the flags.
    /// Returns whether the command succeeded (errors are also reported on
    /// stderr, prefixed with `at`).
    fn run(&mut self, command: &str, at: impl FnOnce() -> String) -> bool {
        // never put an unterminated quote on the wire: the server's framer
        // would buffer waiting for the continuation while we block waiting
        // for a response — a deadlock until its idle timeout
        if quote_open(command) {
            eprintln!("{}: unterminated quoted constant (command not sent)", at());
            return false;
        }
        let start = Instant::now();
        let reply = self.backend.call(command);
        if let Some(cell) = &self.timing {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            cell.record(ns);
            if self.show_time {
                let verb = command.split_whitespace().next().unwrap_or("");
                eprintln!("time: {:.3} ms  {verb}", ns as f64 / 1e6);
            }
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("{}: connection error: {e}", at());
                return false;
            }
        };
        for line in &reply.data {
            println!("{line}");
        }
        println!("{}", reply.status);
        if !reply.is_ok() {
            eprintln!("{}: {}", at(), reply.status);
            return false;
        }
        // the PROFILE re-run happens outside the timed window: the --time
        // histogram keeps measuring exactly what ran without --profile; a
        // profile failure is reported but never fails the command
        if let (true, Ok((Verb::Query, rest))) = (self.profile, split_command(command)) {
            match self.backend.call(&format!("PROFILE {rest}")) {
                Ok(profile) => {
                    eprintln!("profile: {}", profile.status);
                    for line in &profile.data {
                        eprintln!("profile: {line}");
                    }
                }
                Err(e) => eprintln!("profile: connection error: {e}"),
            }
        }
        true
    }

    /// The timing exit summary (quantiles are log-bucket upper bounds,
    /// hence the `<=`).
    fn report_timing(&self) {
        let Some(cell) = &self.timing else { return };
        let snap = cell.snapshot();
        if snap.count == 0 {
            return;
        }
        let q = |q: f64| snap.quantile(q).unwrap_or(0);
        eprintln!(
            "time: {} command(s), p50<={}ns p95<={}ns p99<={}ns",
            snap.count,
            q(0.5),
            q(0.95),
            q(0.99)
        );
    }
}

/// Where commands go: an in-process service or a remote `kbt-serve`.
enum Backend {
    Local(Box<Service>),
    Remote(Client),
}

impl Backend {
    /// Executes one command and returns its reply in wire form: the
    /// in-process service's through the encoder the server streams with,
    /// a remote server's as received.
    fn call(&mut self, command: &str) -> std::io::Result<WireResponse> {
        match self {
            Backend::Local(service) => Ok(match service.execute(command) {
                Ok(response) => {
                    let (data, status) = encode_response(&response, None);
                    WireResponse { data, status }
                }
                Err(e) => WireResponse {
                    data: Vec::new(),
                    status: encode_service_error(&e),
                },
            }),
            Backend::Remote(client) => client.roundtrip(command),
        }
    }
}

/// Is this line nothing but whitespace or a comment (not worth a network
/// round-trip — and, remotely, not worth an `OK` line in the transcript)?
fn is_nop(line: &str) -> bool {
    matches!(split_command(line), Ok((Verb::Nop, _)))
}

/// Runs every script, one logical command line at a time, printing each
/// response and stopping at the first error.
fn batch(shell: &mut Shell, scripts: &[String]) -> ExitCode {
    for path in scripts {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut lineno = 1usize;
        for command in split_lines(&text) {
            let at = format!("{path}:{lineno}");
            lineno += 1 + command.matches('\n').count();
            if is_nop(command) {
                continue;
            }
            if !shell.run(command, || at) {
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Interactive loop: one command per line (continued while a quote stays
/// open), errors do not end the session.
fn repl(shell: &mut Shell) -> ExitCode {
    let interactive = std::io::stdin().is_terminal();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    if interactive {
        println!(
            "kbt-service shell — commands: LOAD, ASSERT, RETRACT, DEFINE, APPLY, QUERY, EXPLAIN, \
             PROFILE, STATS, METRICS"
        );
    }
    let mut pending = String::new();
    loop {
        if interactive {
            print!("{}", if pending.is_empty() { "kbt> " } else { "...> " });
            let _ = out.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => {
                // EOF with input pending: run it as-is (an open-quoted
                // trailer fails the unterminated-quote check)
                if !pending.is_empty() && !is_nop(&pending) {
                    shell.run(&pending, || "stdin".to_string());
                }
                return ExitCode::SUCCESS;
            }
            Ok(_) => {
                pending.push_str(&line);
                if quote_open(&pending) {
                    continue; // the quoted constant continues on the next line
                }
                let command = std::mem::take(&mut pending);
                let command = command.strip_suffix('\n').unwrap_or(&command);
                if !is_nop(command) {
                    shell.run(command, || "error".to_string());
                }
            }
            Err(e) => {
                eprintln!("stdin: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
}
