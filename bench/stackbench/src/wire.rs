//! The load generator's protocol client: one TCP session, one command in
//! flight, a deadline on every reply, and reply checking that allocates
//! nothing per data line.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use kbt_service::net::proto::is_status_line;

use crate::gen::{Expect, Rows};

/// No command of any workload comes near this; a reply that takes longer
/// counts as failed and ends the run (the session cannot be resynchronised).
pub const DEADLINE: Duration = Duration::from_secs(20);

pub struct Client {
    reader: BufReader<TcpStream>,
    line: String,
    out: Vec<u8>,
}

/// One decoded reply.
pub struct Reply {
    pub status: String,
    pub rows: Rows,
    /// Bytes received, line terminators included.
    pub bytes: u64,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(DEADLINE)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: String::new(),
            out: Vec::new(),
        })
    }

    /// Sends one command and reads its reply.  With `capture`, the raw
    /// reply bytes are appended to it (the traced run compares them with
    /// the in-process replay).
    pub fn roundtrip(
        &mut self,
        command: &str,
        mut capture: Option<&mut Vec<u8>>,
    ) -> Result<Reply, String> {
        // one write per command, so the server frames it from one read
        self.out.clear();
        self.out.extend_from_slice(command.as_bytes());
        self.out.push(b'\n');
        self.reader
            .get_mut()
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        let mut rows = Rows::default();
        let mut bytes = 0u64;
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("no reply within the deadline: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            bytes += n as u64;
            if let Some(raw) = capture.as_deref_mut() {
                raw.extend_from_slice(self.line.as_bytes());
            }
            let line = self.line.trim_end_matches(['\n', '\r']);
            if is_status_line(line) {
                return Ok(Reply {
                    status: line.to_string(),
                    rows,
                    bytes,
                });
            }
            rows.add(line);
        }
    }
}

/// The value of `key=` in a status line.
pub fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .split(' ')
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
}

/// Checks a reply against the oracle's expectation and the tracked epoch;
/// `Err` says what differs.
pub fn check(status: &str, rows: Rows, expect: &Expect, epoch: u64) -> Result<(), String> {
    if !(status == "OK" || status.starts_with("OK ")) {
        return Err(format!("not OK: {status}"));
    }
    if status_field(status, "epoch") != Some(epoch.to_string().as_str()) {
        return Err(format!("expected epoch={epoch}: {status}"));
    }
    for (key, value) in &expect.fields {
        if status_field(status, key) != Some(value.as_str()) {
            return Err(format!("expected {key}={value}: {status}"));
        }
    }
    match expect.rows {
        Some(want) if want != rows => Err(format!(
            "rows differ: expected {} (digest {:016x}), got {} (digest {:016x})",
            want.count, want.hash, rows.count, rows.hash
        )),
        _ => Ok(()),
    }
}

pub fn selftest() -> Result<(), String> {
    let check_that = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    let status = "OK id=t7 epoch=12 strategy=tabled kind=certain relation=isa count=3";
    check_that(is_status_line(status), "OK line is a status line")?;
    check_that(
        is_status_line("ERR parse bad id=t1"),
        "ERR line is a status line",
    )?;
    check_that(
        !is_status_line("= edge(1, 2)"),
        "data line is not a status line",
    )?;
    check_that(!is_status_line("OKAY"), "OK needs a word boundary")?;
    check_that(status_field(status, "epoch") == Some("12"), "epoch field")?;
    check_that(status_field(status, "count") == Some("3"), "count field")?;
    check_that(status_field(status, "id") == Some("t7"), "id field")?;
    check_that(status_field(status, "poch").is_none(), "keys match whole")?;
    let expect = Expect {
        fields: vec![
            ("strategy", "tabled".to_string()),
            ("count", "3".to_string()),
        ],
        rows: Some(Rows::of(["= isa('a', 'b')"])),
    };
    let rows = Rows::of(["= isa('a', 'b')"]);
    check_that(
        check(status, rows, &expect, 12).is_ok(),
        "matching reply passes",
    )?;
    check_that(
        check(status, rows, &expect, 13).is_err(),
        "wrong epoch fails",
    )?;
    check_that(
        check(status, Rows::default(), &expect, 12).is_err(),
        "missing rows fail",
    )?;
    check_that(
        check("ERR eval boom id=t7", rows, &expect, 12).is_err(),
        "ERR fails",
    )?;
    Ok(())
}
