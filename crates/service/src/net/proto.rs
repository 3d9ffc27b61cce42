//! The response encoding: data lines plus one status line.
//!
//! Every command receives exactly one response:
//!
//! ```text
//! response := ("= " data-line "\n")* status-line "\n"
//! status   := "OK" (" " key "=" value)*          -- success
//!           | "ERR " code " " message (" id=" trace)?   -- failure
//! ```
//!
//! Data lines carry the payload (one fact, one world, one stats row per
//! line); the status line both terminates the response — a client reads
//! lines until it sees one — and names the epoch a committed or snapshot
//! response speaks for.  Because payloads may legally contain newlines
//! (quoted constants admit them), every emitted line goes out under
//! [`escape_line`]'s rule, so one response line is always exactly one
//! physical line on the wire.
//!
//! # Status key order
//!
//! `OK` keys appear in one **fixed order**, produced by a single builder
//! (there is no second place that formats a status line):
//!
//! 1. `id=<trace>` — the command's trace ID, when the front attached one;
//! 2. `epoch=<n>` — the epoch the response speaks for;
//! 3. `strategy=<s>` — how a bound goal was answered;
//! 4. `durable=<true|false>` — whether a commit was flushed to stable
//!    storage before this status (present only on durable services:
//!    `true` under `group-commit`, `false` under `never`);
//! 5. the command-specific keys (`worlds=`, `facts=`, `applied=`, …).
//!
//! Keys a response does not carry are simply absent — clients parse by
//! key, never by position, but the fixed order keeps statuses stable for
//! golden tests and log diffing.  `ERR` lines instead carry a trailing
//! ` id=<trace>` after the human-readable message (the message itself
//! never contains a newline, so the last field is unambiguous).
//!
//! # One encoder
//!
//! [`write_response`] is the only function that turns a [`Response`] into
//! text: the server streams it, and `kbt-shell` prints it in both its
//! local and its remote mode.  It streams: each data line goes to the
//! writer as its prefix followed by the payload's slices with the escaping
//! rule applied on the way (the session's `BufWriter` collects them), so
//! no line is ever built as a `String`, whatever the number of facts or
//! worlds.
//! [`encode_response`] is its line-splitting view — the same encoder run
//! into a `Vec<u8>` and cut at the newlines — for callers that want lines.
//!
//! Error codes: [`crate::ServiceError::code`] defines the service-level
//! codes (`parse`, `unknown-relation`, …); the net layer adds
//! [`CODE_LINE_TOO_LONG`], [`CODE_INVALID_UTF8`], [`CODE_IDLE_TIMEOUT`],
//! [`CODE_UNAVAILABLE`] and [`CODE_SHUTTING_DOWN`] for conditions that
//! never pass through a [`crate::ServiceError`].  The full code table
//! lives in [`crate::error`] (`CODE_TABLE`), with an exhaustiveness test
//! holding it to the error enum.

use std::io::{self, Write};

use crate::error::ServiceError;
use crate::service::{Response, StatsReport};

/// Prefix of every data line.
pub const DATA_PREFIX: &str = "= ";

/// The framer's length cap was exceeded (connection closes).
pub const CODE_LINE_TOO_LONG: &str = "line-too-long";
/// A command line was not valid UTF-8 (connection closes).
pub const CODE_INVALID_UTF8: &str = "invalid-utf8";
/// The session sat idle past the configured timeout (connection closes).
pub const CODE_IDLE_TIMEOUT: &str = "idle-timeout";
/// `max_sessions` sessions are already active; the connection was refused.
pub const CODE_UNAVAILABLE: &str = "unavailable";
/// The server is shutting down; the session is being closed.
pub const CODE_SHUTTING_DOWN: &str = "shutting-down";

/// Escapes a payload so it occupies exactly one physical line: `\` → `\\`,
/// newline → `\n`, carriage return → `\r`.
pub fn escape_line(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    write_escaped(&mut out, s).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("escaping ASCII bytes keeps UTF-8 valid")
}

/// [`escape_line`]'s rule, applied while writing: the stretches between
/// escaped bytes go out as the slices they are.
fn write_escaped(w: &mut impl Write, s: &str) -> io::Result<()> {
    // the three escaped characters are ASCII, so cutting at their bytes
    // never splits a UTF-8 sequence
    let mut rest = s.as_bytes();
    while let Some(i) = rest.iter().position(|b| matches!(b, b'\\' | b'\n' | b'\r')) {
        w.write_all(&rest[..i])?;
        w.write_all(match rest[i] {
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            _ => b"\\r",
        })?;
        rest = &rest[i + 1..];
    }
    w.write_all(rest)
}

/// Writes one data line per payload: prefix, escaped payload, newline.
fn write_data_lines<'a>(
    w: &mut impl Write,
    payloads: impl IntoIterator<Item = &'a str>,
) -> io::Result<()> {
    for payload in payloads {
        w.write_all(DATA_PREFIX.as_bytes())?;
        write_escaped(w, payload)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// The single producer of `OK` status lines, enforcing the module-level
/// fixed key order: `id=`, `epoch=`, `strategy=`, `durable=`, then the
/// command-specific keys in the order [`key`](StatusBuilder::key) is
/// called.
struct StatusBuilder {
    line: String,
}

impl StatusBuilder {
    fn new(trace: Option<&str>) -> Self {
        let mut line = String::from("OK");
        if let Some(id) = trace {
            line.push_str(" id=");
            line.push_str(id);
        }
        StatusBuilder { line }
    }

    /// Appends one `key=value` field.
    fn key(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        use std::fmt::Write;
        write!(self.line, " {key}={value}").expect("writing to a String cannot fail");
        self
    }

    fn epoch(self, epoch: kbt_data::EpochId) -> Self {
        self.key("epoch", epoch.get())
    }

    fn strategy(self, strategy: Option<&'static str>) -> Self {
        match strategy {
            Some(s) => self.key("strategy", s),
            None => self,
        }
    }

    fn durable(self, durable: Option<bool>) -> Self {
        match durable {
            Some(d) => self.key("durable", d),
            None => self,
        }
    }

    fn finish(self) -> String {
        self.line
    }
}

/// Writes one successful response — every data line under [`DATA_PREFIX`]
/// and escaped, then the status line carrying `trace` as its leading `id=`
/// key (when given) per the module-level fixed key order — each line
/// newline-terminated.  The one encoder (see the module docs).
pub fn write_response(
    w: &mut impl Write,
    response: &Response,
    trace: Option<&str>,
) -> io::Result<()> {
    let status = StatusBuilder::new(trace);
    let status = match response {
        Response::Ok => status,
        Response::Committed {
            epoch,
            worlds,
            facts,
            durable,
        } => status
            .epoch(*epoch)
            .durable(*durable)
            .key("worlds", worlds)
            .key("facts", facts),
        Response::Defined {
            epoch,
            name,
            text,
            durable,
        } => {
            write_data_lines(w, [text.as_str()])?;
            status.epoch(*epoch).durable(*durable).key("defined", name)
        }
        Response::Applied {
            epoch,
            name,
            worlds,
            facts,
            reused_facts,
            durable,
        } => status
            .epoch(*epoch)
            .durable(*durable)
            .key("applied", name)
            .key("worlds", worlds)
            .key("facts", facts)
            .key("reused", reused_facts),
        Response::Worlds { epoch, worlds } => {
            for (i, world) in worlds.iter().enumerate() {
                write!(w, "{DATA_PREFIX}world {i}: {{")?;
                for (j, fact) in world.iter().enumerate() {
                    if j > 0 {
                        w.write_all(b", ")?;
                    }
                    write_escaped(w, fact)?;
                }
                w.write_all(b"}\n")?;
            }
            status.epoch(*epoch).key("worlds", worlds.len())
        }
        Response::Facts {
            epoch,
            kind,
            relation,
            facts,
            strategy,
        } => {
            write_data_lines(w, facts.iter().map(String::as_str))?;
            status
                .epoch(*epoch)
                // only bound goals carry a strategy; the bare form's
                // status line has no strategy key
                .strategy(*strategy)
                .key("kind", kind)
                .key("relation", relation)
                .key("count", facts.len())
        }
        Response::Explain { epoch, rows } => {
            write_data_lines(w, rows.iter().map(String::as_str))?;
            status.epoch(*epoch).key("rows", rows.len())
        }
        Response::Profile {
            epoch,
            worlds,
            rows,
        } => {
            write_data_lines(w, rows.iter().map(String::as_str))?;
            status
                .epoch(*epoch)
                .key("worlds", worlds)
                .key("rows", rows.len())
        }
        Response::Stats(report) => {
            write_data_lines(w, stats_rows(report).iter().map(String::as_str))?;
            status.epoch(report.epoch)
        }
        Response::Metrics { epoch, text } => {
            write_data_lines(w, text.lines())?;
            status.epoch(*epoch).key("lines", text.lines().count())
        }
        Response::Loaded { commands } => status.key("commands", commands),
        Response::Checkpointed { epoch, file } => status.epoch(*epoch).key("file", file),
        Response::WalStat {
            epoch,
            policy,
            records,
            bytes,
            fsyncs,
            durable_epoch,
            checkpoint_epoch,
        } => status
            .epoch(*epoch)
            .key("policy", policy)
            .key("records", records)
            .key("bytes", bytes)
            .key("fsyncs", fsyncs)
            .key("synced", durable_epoch)
            .key("checkpoint", checkpoint_epoch),
    };
    w.write_all(status.finish().as_bytes())?;
    w.write_all(b"\n")
}

/// The `STATS` payload, one row per data line.
fn stats_rows(report: &StatsReport) -> Vec<String> {
    let (stats, eval, sessions) = (&report.stats, &report.stats.eval, &report.sessions);
    let mut rows = vec![
        format!(
            "epoch {} | {} world(s), {} fact(s) | threads {} | commits {} (applies {}, defines {}) | queries {}",
            report.epoch,
            report.worlds,
            report.facts,
            report.threads,
            stats.commits,
            stats.applies,
            stats.defines,
            report.queries
        ),
        format!(
            "eval: {} update(s), {} fixpoint round(s), {} reused, {} rederived",
            eval.updates, eval.fixpoint_iterations, eval.reused_facts, eval.rederived_facts
        ),
        format!(
            "sessions: accepted {}, active {}, rejected-at-capacity {}, idle-closed {}",
            sessions.accepted, sessions.active, sessions.rejected, sessions.idle_closed
        ),
    ];
    if !report.held_epochs.is_empty() {
        let held: Vec<String> = report
            .held_epochs
            .iter()
            .map(|(epoch, holders)| format!("e{epoch} x{holders}"))
            .collect();
        rows.push(format!("held epochs: {}", held.join(", ")));
    }
    rows.extend(report.transforms.iter().map(|(name, text, applications)| {
        format!("transform {name} := {text} (applied {applications}x)")
    }));
    rows
}

/// [`write_response`]'s output as `(data_lines, status_line)`, newlines
/// dropped: the encoder run into a buffer and cut into its lines (escaping
/// leaves exactly one newline per line, so the cut is unambiguous).
pub fn encode_response(response: &Response, trace: Option<&str>) -> (Vec<String>, String) {
    let mut bytes = Vec::new();
    write_response(&mut bytes, response, trace).expect("writing to a Vec cannot fail");
    let text = String::from_utf8(bytes).expect("responses are rendered from strings");
    let text = text.strip_suffix('\n').expect("every line is terminated");
    let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
    let status = lines.pop().expect("every response ends in a status line");
    (lines, status)
}

/// Encodes a service error as its `ERR code message` status line.
pub fn encode_service_error(e: &ServiceError) -> String {
    encode_error(e.code(), &e.to_string())
}

/// Encodes an `ERR code message` status line (message escaped to one
/// physical line).
pub fn encode_error(code: &str, message: &str) -> String {
    format!("ERR {code} {}", escape_line(message))
}

/// Whether a received line is a status line (terminates a response).
pub fn is_status_line(line: &str) -> bool {
    line == "OK" || line.starts_with("OK ") || line.starts_with("ERR ")
}

/// One decoded response: the data lines (prefix intact) and the status
/// line, as received.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireResponse {
    /// The `= `-prefixed data lines, in order.
    pub data: Vec<String>,
    /// The terminating `OK …` / `ERR …` line.
    pub status: String,
}

impl WireResponse {
    /// Whether the status line reports success.
    pub fn is_ok(&self) -> bool {
        self.status == "OK" || self.status.starts_with("OK ")
    }

    /// The `epoch=N` field of an `OK` status line, when present.
    pub fn epoch(&self) -> Option<u64> {
        self.status
            .split_whitespace()
            .find_map(|field| field.strip_prefix("epoch="))
            .and_then(|v| v.parse().ok())
    }

    /// The error code of an `ERR` status line, when this is one.
    pub fn err_code(&self) -> Option<&str> {
        self.status
            .strip_prefix("ERR ")
            .and_then(|rest| rest.split_whitespace().next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::service::Service;

    #[test]
    fn escaping_keeps_every_line_physical() {
        assert_eq!(escape_line("plain"), "plain");
        assert_eq!(escape_line("a\nb\r\\c"), "a\\nb\\r\\\\c");
    }

    fn service() -> Service {
        Service::new(ServiceConfig::builder().threads(1).build())
    }

    #[test]
    fn responses_encode_with_epoch_and_terminating_status() {
        let s = service();
        let r = s.execute("ASSERT edge(1, 2), edge(2, 3)").unwrap();
        let (data, status) = encode_response(&r, None);
        assert!(data.is_empty());
        assert_eq!(status, "OK epoch=1 worlds=1 facts=2");

        let r = s.execute("QUERY CERTAIN edge").unwrap();
        let (data, status) = encode_response(&r, None);
        assert_eq!(data, ["= edge(1, 2)", "= edge(2, 3)"]);
        assert_eq!(status, "OK epoch=1 kind=certain relation=edge count=2");

        let r = s.execute("QUERY lub").unwrap();
        let (data, status) = encode_response(&r, None);
        assert_eq!(data, ["= world 0: {edge(1, 2), edge(2, 3)}"]);
        assert_eq!(status, "OK epoch=1 worlds=1");
    }

    #[test]
    fn status_keys_appear_in_the_fixed_order() {
        // id before epoch, durable before command keys — straight from
        // the builder, for every commit shape
        let r = Response::Committed {
            epoch: kbt_data::EpochId::new(7),
            worlds: 2,
            facts: 5,
            durable: Some(true),
        };
        let (_, status) = encode_response(&r, Some("req-9"));
        assert_eq!(status, "OK id=req-9 epoch=7 durable=true worlds=2 facts=5");

        let r = Response::Applied {
            epoch: kbt_data::EpochId::new(8),
            name: "tc".into(),
            worlds: 1,
            facts: 3,
            reused_facts: 2,
            durable: Some(false),
        };
        let (_, status) = encode_response(&r, Some("t4"));
        assert_eq!(
            status,
            "OK id=t4 epoch=8 durable=false applied=tc worlds=1 facts=3 reused=2"
        );

        // strategy slots between epoch and the command keys
        let s = service();
        s.execute("ASSERT edge(1, 2)").unwrap();
        let r = s.execute("QUERY CERTAIN edge(1, x)").unwrap();
        let (_, status) = encode_response(&r, Some("t2"));
        assert_eq!(
            status,
            "OK id=t2 epoch=1 strategy=materialize kind=certain relation=edge count=1"
        );
    }

    #[test]
    fn facts_with_newlines_stay_one_wire_line() {
        let s = service();
        s.execute("ASSERT note('one\ntwo')").unwrap();
        let r = s.execute("QUERY POSSIBLE note").unwrap();
        let (data, _) = encode_response(&r, None);
        assert_eq!(data, ["= note('one\\ntwo')"]);
    }

    /// One response of every variant, with everything the escaping rule
    /// and the line splitting can trip over.
    fn corpus() -> Vec<(Response, Option<&'static str>)> {
        use crate::service::{ServiceStats, SessionSnapshot, StatsReport};
        let epoch = kbt_data::EpochId::new(3);
        let facts = |facts: &[&str]| Response::Facts {
            epoch,
            kind: "possible",
            relation: "note".into(),
            facts: facts.iter().map(|f| f.to_string()).collect(),
            strategy: None,
        };
        let stats = StatsReport {
            epoch,
            worlds: 2,
            facts: 5,
            threads: 1,
            queries: 7,
            transforms: vec![("tc".into(), "tau[p('a\nb')]; lub".into(), 4)],
            stats: ServiceStats::default(),
            sessions: SessionSnapshot::default(),
            held_epochs: vec![(1, 2)],
        };
        vec![
            (Response::Ok, None),
            (Response::Ok, Some("t1")),
            (
                Response::Committed {
                    epoch,
                    worlds: 1,
                    facts: 2,
                    durable: Some(true),
                },
                Some("t2"),
            ),
            (
                Response::Defined {
                    epoch,
                    name: "tc".into(),
                    text: "tau[p('a\nb\\c')]".into(),
                    durable: None,
                },
                None,
            ),
            (
                Response::Applied {
                    epoch,
                    name: "tc".into(),
                    worlds: 1,
                    facts: 9,
                    reused_facts: 3,
                    durable: Some(false),
                },
                None,
            ),
            (
                Response::Worlds {
                    epoch,
                    worlds: vec![
                        vec!["r(1)".into(), "note('x\ny')".into()],
                        vec![],
                        vec!["r(2)".into()],
                    ],
                },
                Some("w"),
            ),
            (
                Response::Worlds {
                    epoch,
                    worlds: vec![],
                },
                None,
            ),
            (
                facts(&[
                    "note('one\ntwo')",
                    "note('cr\rlf\r\n')",
                    "note('back\\slash\\')",
                    "note('')",
                    "note(7)",
                ]),
                Some("req-9"),
            ),
            (facts(&[]), None),
            (
                Response::Facts {
                    epoch,
                    kind: "certain",
                    relation: "edge".into(),
                    facts: vec!["edge(1, 2)".into()],
                    strategy: Some("tabled"),
                },
                None,
            ),
            (
                Response::Explain {
                    epoch,
                    rows: vec![
                        "certain(p) pattern=bf: magic plan".into(),
                        "seed m_p_bf('a\nb')".into(),
                    ],
                },
                None,
            ),
            (
                Response::Profile {
                    epoch,
                    worlds: 2,
                    rows: vec![
                        "r1 | rounds=1 derived=2 probes=3 scanned=4 elapsed_ns=5 :: scan".into(),
                    ],
                },
                Some("p"),
            ),
            (Response::Stats(stats), None),
            (
                Response::Metrics {
                    epoch,
                    text: "# TYPE a counter\na 1\n\nb{l=\"x\\y\"} 2\n".into(),
                },
                None,
            ),
            (
                Response::Metrics {
                    epoch,
                    text: String::new(),
                },
                None,
            ),
            (Response::Loaded { commands: 4 }, None),
            (
                Response::Checkpointed {
                    epoch,
                    file: "checkpoint-3.kbt".into(),
                },
                Some("c"),
            ),
            (
                Response::WalStat {
                    epoch,
                    policy: "group-commit",
                    records: 3,
                    bytes: 120,
                    fsyncs: 2,
                    durable_epoch: 3,
                    checkpoint_epoch: 0,
                },
                None,
            ),
        ]
    }

    /// What the encoder before the streaming one (a `String` per data
    /// line, `join` + `format!` per world) produced for [`corpus`] — but
    /// for the `STATS` transform row, which that encoder split at its
    /// quoted newline instead of escaping it.
    const CORPUS_BYTES: &str = r#"OK
OK id=t1
OK id=t2 epoch=3 durable=true worlds=1 facts=2
= tau[p('a\nb\\c')]
OK epoch=3 defined=tc
OK epoch=3 durable=false applied=tc worlds=1 facts=9 reused=3
= world 0: {r(1), note('x\ny')}
= world 1: {}
= world 2: {r(2)}
OK id=w epoch=3 worlds=3
OK epoch=3 worlds=0
= note('one\ntwo')
= note('cr\rlf\r\n')
= note('back\\slash\\')
= note('')
= note(7)
OK id=req-9 epoch=3 kind=possible relation=note count=5
OK epoch=3 kind=possible relation=note count=0
= edge(1, 2)
OK epoch=3 strategy=tabled kind=certain relation=edge count=1
= certain(p) pattern=bf: magic plan
= seed m_p_bf('a\nb')
OK epoch=3 rows=2
= r1 | rounds=1 derived=2 probes=3 scanned=4 elapsed_ns=5 :: scan
OK id=p epoch=3 worlds=2 rows=1
= epoch e3 | 2 world(s), 5 fact(s) | threads 1 | commits 0 (applies 0, defines 0) | queries 7
= eval: 0 update(s), 0 fixpoint round(s), 0 reused, 0 rederived
= sessions: accepted 0, active 0, rejected-at-capacity 0, idle-closed 0
= held epochs: e1 x2
= transform tc := tau[p('a\nb')]; lub (applied 4x)
OK epoch=3
= # TYPE a counter
= a 1
= 
= b{l="x\\y"} 2
OK epoch=3 lines=4
OK epoch=3 lines=0
OK commands=4
OK id=c epoch=3 file=checkpoint-3.kbt
OK epoch=3 policy=group-commit records=3 bytes=120 fsyncs=2 synced=3 checkpoint=0
"#;

    #[test]
    fn one_encoder_same_bytes() {
        let mut wire = Vec::new();
        let mut from_lines = String::new();
        for (response, trace) in corpus() {
            let start = wire.len();
            write_response(&mut wire, &response, trace).unwrap();
            let (data, status) = encode_response(&response, trace);
            let mut joined = data;
            joined.push(status);
            assert_eq!(
                std::str::from_utf8(&wire[start..]).unwrap(),
                joined.join("\n") + "\n",
                "{response:?}"
            );
            from_lines.push_str(&joined.join("\n"));
            from_lines.push('\n');
        }
        assert_eq!(std::str::from_utf8(&wire).unwrap(), CORPUS_BYTES);
        assert_eq!(from_lines, CORPUS_BYTES);
    }

    #[test]
    fn errors_carry_stable_codes() {
        let s = service();
        let e = s.execute("QUERY CERTAIN nowhere").unwrap_err();
        let status = encode_service_error(&e);
        assert!(status.starts_with("ERR unknown-relation "), "{status}");
        let wire = WireResponse {
            data: vec![],
            status,
        };
        assert!(!wire.is_ok());
        assert_eq!(wire.err_code(), Some("unknown-relation"));
    }

    #[test]
    fn status_lines_are_recognised() {
        assert!(is_status_line("OK"));
        assert!(is_status_line("OK epoch=3"));
        assert!(is_status_line("ERR parse bad"));
        assert!(!is_status_line("= edge(1, 2)"));
        assert!(!is_status_line("OKepoch=3"));
        let wire = WireResponse {
            data: vec![],
            status: "OK epoch=12 worlds=1".into(),
        };
        assert_eq!(wire.epoch(), Some(12));
        assert!(wire.is_ok());
    }
}
