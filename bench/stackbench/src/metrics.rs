//! The metric catalogue — the names and units `BENCHMARK.json` lists — and
//! the result line the contract asks for.
//!
//! The catalogue is the single list in the code: reports are built by
//! looking values up by name, `--selftest` holds it to `BENCHMARK.json`,
//! and a metric a run did not produce is a hard error rather than a
//! silently missing key.

use std::collections::BTreeMap;
use std::fmt::Write;

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_rss_peak_mb", "MiB"),
    ("wal_bytes_per_user_byte", "B/B"),
    ("recover_s", "s"),
];

/// `(name, unit)` of every per-layer metric; the part before the first
/// `.` is the layer (a crate, or a `kbt-service` module).
pub const PER_LAYER: [(&str, &str); 86] = [
    ("net.frame_ns_per_op", "ns"),
    ("net.encode_ns_per_op", "ns"),
    ("net.bytes_out_per_op", "B"),
    ("net.wire_overhead_us", "us"),
    ("net.framing_errors", "count"),
    ("net.sessions_rejected", "count"),
    ("command.parse_ns_per_op", "ns"),
    ("command.render_ns_per_row", "ns"),
    ("command.rows_per_op", "count"),
    ("data.vocab_entries", "count"),
    ("data.vocab_clone_ns", "ns"),
    ("data.vocab_lookup_ns", "ns"),
    ("data.relation_merge_ns", "ns"),
    ("service.snapshot_ns", "ns"),
    ("service.execute_read_ns", "ns"),
    ("service.execute_commit_ns", "ns"),
    ("service.read_typed_ns", "ns"),
    ("service.allocs_per_read", "count"),
    ("service.alloc_bytes_per_read", "B"),
    ("service.unattributed_share", "%"),
    ("service.queries_tabled", "count"),
    ("service.queries_magic", "count"),
    ("service.queries_materialize", "count"),
    ("service.table_hit_ratio", "%"),
    ("service.table_evictions", "count"),
    ("service.commit_parse_ns", "ns"),
    ("service.commit_apply_ns", "ns"),
    ("service.commit_publish_ns", "ns"),
    ("service.commit_p50_us", "us"),
    ("service.commit_p99_us", "us"),
    ("service.read_p99_us", "us"),
    ("service.held_epochs_max", "count"),
    ("wal.append_ns", "ns"),
    ("wal.sync_ns", "ns"),
    ("wal.bytes_per_commit", "B"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.group_batch_mean", "count"),
    ("checkpoint.render_ns", "ns"),
    ("checkpoint.parse_ns", "ns"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.count", "count"),
    ("recover.plan_ns", "ns"),
    ("recover.open_ns", "ns"),
    ("recover.replayed_records", "count"),
    ("logic.parse_sentence_ns", "ns"),
    ("logic.ground_ns", "ns"),
    ("logic.ground_atoms", "count"),
    ("solver.cnf_clauses", "count"),
    ("solver.minimal_models_ns", "ns"),
    ("solver.models_found", "count"),
    ("core.transform_ns", "ns"),
    ("core.worlds_in", "count"),
    ("core.worlds_out", "count"),
    ("core.strategy_grounding", "count"),
    ("core.strategy_quantifier_free", "count"),
    ("core.strategy_datalog", "count"),
    ("datalog.from_logic_ns", "ns"),
    ("datalog.stratify_ns", "ns"),
    ("datalog.magic_rewrite_ns", "ns"),
    ("engine.eval_ns", "ns"),
    ("engine.rounds", "count"),
    ("engine.derived_facts", "count"),
    ("engine.index_probes", "count"),
    ("engine.tuples_scanned", "count"),
    ("engine.probes_per_derived", "count"),
    ("engine.eval_width2_ratio", "%"),
    ("engine.delta_ns", "ns"),
    ("engine.reused_facts", "count"),
    ("engine.rederived_facts", "count"),
    ("engine.table_lookup_ns", "ns"),
    ("par.scopes_per_op", "count"),
    ("par.contended_scopes", "count"),
    ("obs.trace_overhead_share", "%"),
    ("proc.calib_ms", "ms"),
    ("proc.calib_drift_max", "%"),
    ("proc.disturbed_windows", "count"),
    ("proc.steal_share", "%"),
    ("proc.foreign_cpu_share", "%"),
    ("proc.server_minflt_per_op", "count"),
    ("proc.server_ctx_invol", "count"),
    ("proc.raw_setup_s", "s"),
    ("proc.raw_ops_per_s", "1/s"),
    ("proc.raw_read_p50_us", "us"),
    ("proc.raw_server_cpu_ms_per_op", "ms"),
    ("proc.raw_recover_s", "s"),
    ("proc.first_window_gap", "%"),
];

/// Metric values by name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Prints the catalogue's metrics by name and unit, then — last line of
/// standard output — the contract's result object.
pub fn report(
    catalogue: &[(&'static str, &'static str)],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<(), String> {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        println!("{name:<34} {value:>18.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// A JSON value, as much of one as `BENCHMARK.json` needs.
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.space();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.at));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let found = self.bytes[self.at..].starts_with(token.as_bytes());
        if found {
            self.at += token.len();
        }
        found
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                loop {
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Object(fields));
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(format!("expected , or }} at byte {}", self.at));
                    }
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(format!("expected : at byte {}", self.at));
                    }
                    fields.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Array(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected , or ] at byte {}", self.at));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::String),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|n| n.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("unexpected input at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// A string without `\u` escapes (the file has none).
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    };
                    out.push(escaped);
                    self.at += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// Holds the catalogue and the workload list to `BENCHMARK.json`.
pub fn check_manifest(text: &str, workloads: &[&str]) -> Result<(), String> {
    let manifest = Json::parse(text)?;
    let names = |key: &str| -> Vec<(String, String)> {
        manifest
            .get(key)
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|entry| {
                let field = |k: &str| {
                    entry
                        .get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if names("end_to_end") != owned(&END_TO_END) {
        return Err("end_to_end differs from the code's catalogue".to_string());
    }
    if names("per_layer") != owned(&PER_LAYER) {
        return Err("per_layer differs from the code's catalogue".to_string());
    }
    let listed: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    if listed != workloads {
        return Err("workloads differ from the code's list".to_string());
    }
    Ok(())
}

pub fn selftest() -> Result<(), String> {
    let parsed = Json::parse(r#"{"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}}"#)?;
    let expected = Json::Object(vec![
        (
            "a".to_string(),
            Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.5),
                Json::String("x\"y".to_string()),
            ]),
        ),
        (
            "b".to_string(),
            Json::Object(vec![
                ("c".to_string(), Json::Bool(true)),
                ("d".to_string(), Json::Null),
            ]),
        ),
    ]);
    if parsed != expected {
        return Err("JSON parser misreads a nested document".to_string());
    }
    if Json::parse("{\"a\": 1} x").is_ok() || Json::parse("[1, 2").is_ok() {
        return Err("JSON parser accepts malformed input".to_string());
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        return Err("a metric name is used twice".to_string());
    }
    Ok(())
}
