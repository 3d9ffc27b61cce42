//! Pluggable structured-log sinks.
//!
//! Spans and events turn into [`Record`]s; a [`LogSink`] renders them
//! somewhere.  The two built-ins write one line per record to stderr,
//! either `key=value` text or JSON — the formats behind
//! `kbt-serve --log-format {text,json}`.  Sinks must be `Send + Sync`;
//! they are called from session threads.

use std::fmt::Write as _;
use std::sync::Mutex;

/// One structured log record: an event name, optional elapsed time (set
/// for span records), and ordered key=value fields.
#[derive(Clone, Debug)]
pub struct Record<'a> {
    /// Event or span name, e.g. `slow_query` or `session_open`.
    pub name: &'a str,
    /// Elapsed nanoseconds, when the record came from a span.
    pub elapsed_ns: Option<u64>,
    /// Ordered fields.
    pub fields: &'a [(&'static str, String)],
}

/// Where records go.  Implementations must tolerate concurrent calls.
pub trait LogSink: Send + Sync {
    fn emit(&self, record: &Record<'_>);
}

/// Output encoding for [`StderrSink`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `event=name elapsed_ns=123 key=value …` (values quoted as needed).
    #[default]
    Text,
    /// One JSON object per line: `{"event":"name","elapsed_ns":123,…}`.
    Json,
}

impl LogFormat {
    /// Parses the `--log-format` flag value.
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// Renders a record as one line in the given format (no trailing newline).
pub fn format_record(format: LogFormat, record: &Record<'_>) -> String {
    match format {
        LogFormat::Text => {
            let mut line = String::new();
            let _ = write!(line, "event={}", text_value(record.name));
            if let Some(ns) = record.elapsed_ns {
                let _ = write!(line, " elapsed_ns={ns}");
            }
            for (k, v) in record.fields {
                let _ = write!(line, " {k}={}", text_value(v));
            }
            line
        }
        LogFormat::Json => {
            let mut line = String::from("{");
            let _ = write!(line, "\"event\":{}", json_string(record.name));
            if let Some(ns) = record.elapsed_ns {
                let _ = write!(line, ",\"elapsed_ns\":{ns}");
            }
            for (k, v) in record.fields {
                let _ = write!(line, ",{}:{}", json_string(k), json_string(v));
            }
            line.push('}');
            line
        }
    }
}

/// Quotes a text-format value when it contains whitespace, `"` or `=`.
fn text_value(v: &str) -> String {
    let needs_quoting =
        v.is_empty() || v.chars().any(|c| c.is_whitespace() || c == '"' || c == '=');
    if !needs_quoting {
        return v.to_string();
    }
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON string encoder (std-only; enough for log lines).
fn json_string(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes one formatted line per record to stderr.
#[derive(Debug, Default)]
pub struct StderrSink {
    format: LogFormat,
}

impl StderrSink {
    pub fn new(format: LogFormat) -> Self {
        Self { format }
    }
}

impl LogSink for StderrSink {
    fn emit(&self, record: &Record<'_>) {
        eprintln!("{}", format_record(self.format, record));
    }
}

/// Captures formatted lines in memory — for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    format: LogFormat,
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    pub fn new(format: LogFormat) -> Self {
        Self {
            format,
            lines: Mutex::new(Vec::new()),
        }
    }

    /// The lines captured so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }
}

impl LogSink for MemorySink {
    fn emit(&self, record: &Record<'_>) {
        self.lines
            .lock()
            .unwrap()
            .push(format_record(self.format, record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_quotes_only_when_needed() {
        let fields = [
            ("verb", "query".to_string()),
            ("cmd", "QUERY lub".to_string()),
        ];
        let r = Record {
            name: "slow_query",
            elapsed_ns: Some(1500),
            fields: &fields,
        };
        assert_eq!(
            format_record(LogFormat::Text, &r),
            "event=slow_query elapsed_ns=1500 verb=query cmd=\"QUERY lub\""
        );
    }

    #[test]
    fn json_format_escapes_strings() {
        let fields = [("msg", "a\"b\nc".to_string())];
        let r = Record {
            name: "note",
            elapsed_ns: None,
            fields: &fields,
        };
        assert_eq!(
            format_record(LogFormat::Json, &r),
            "{\"event\":\"note\",\"msg\":\"a\\\"b\\nc\"}"
        );
    }

    #[test]
    fn log_format_parses_flag_values() {
        assert_eq!(LogFormat::parse("text"), Some(LogFormat::Text));
        assert_eq!(LogFormat::parse("json"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("yaml"), None);
    }
}
