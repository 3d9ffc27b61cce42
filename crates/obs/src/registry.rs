//! The metric registry: named counters, gauges and histograms, plus the
//! per-registry switches (enabled flag, slow-span threshold, log sink).
//!
//! A [`Registry`] is a cheaply clonable handle (`Arc` inside).  Two
//! scopes are used across the workspace:
//!
//! * [`Registry::global`] — one per process; library crates (engine, par)
//!   register here because they have no natural owner.
//! * `Registry::new()` — per-instance; the service layer gives every
//!   `Service` its own registry so concurrent services (tests!) never
//!   share counters.
//!
//! Registration is get-or-create by name and idempotent: asking twice for
//! the same name returns handles onto the same storage.  Handles are
//! lock-free on the hot path; the registry's internal map is only locked
//! at registration and snapshot time.
//!
//! The **enabled** flag gates *timing* (span clock reads) only.  Counters
//! and gauges always record: they back `STATS`-style bookkeeping whose
//! truth must not depend on whether latency profiling is switched on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::{bucket_upper_bound, HistogramCell, HistogramSnapshot};
use crate::sink::{LogSink, Record};

/// One scalar metric on its own cache line.  Counters and gauges are
/// small sequential heap allocations; without the alignment two hot
/// cells — one incremented by the commit writer, one by snapshot
/// readers — can share a 64-byte line, and the resulting false sharing
/// measured ~1.5× on the MVCC snapshot read path under commit churn.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct ScalarCell(AtomicU64);

impl std::ops::Deref for ScalarCell {
    type Target = AtomicU64;

    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<ScalarCell>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value.  Only for mirroring an external monotonic
    /// total (e.g. syncing a commit counter from the writer's stats);
    /// callers must preserve monotonicity themselves.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up-and-down instantaneous value.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<ScalarCell>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement (never wraps below zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle onto one histogram series.  Recording is always allowed;
/// [`Histogram::span`] (which must read the clock) is gated on the owning
/// registry's enabled flag.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub(crate) cell: Arc<HistogramCell>,
    pub(crate) name: Arc<str>,
    pub(crate) registry: Arc<RegistryInner>,
}

impl Histogram {
    /// Records one raw sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.cell.record(value);
    }

    /// The full series name this handle records into.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current snapshot of just this series.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<ScalarCell>),
    Gauge(Arc<ScalarCell>),
    Histogram(Arc<HistogramCell>),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// The kind of a registered series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
pub(crate) struct RegistryInner {
    pub(crate) enabled: AtomicBool,
    pub(crate) slow_ns: AtomicU64,
    pub(crate) has_sink: AtomicBool,
    pub(crate) sink: Mutex<Option<Arc<dyn LogSink>>>,
    metrics: Mutex<BTreeMap<String, Metric>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl std::fmt::Debug for dyn LogSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LogSink")
    }
}

/// A named-metric registry.  Clone freely: clones share storage.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, empty registry with timing **enabled** and no sink.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                enabled: AtomicBool::new(true),
                slow_ns: AtomicU64::new(0),
                has_sink: AtomicBool::new(false),
                sink: Mutex::new(None),
                metrics: Mutex::new(BTreeMap::new()),
                help: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The process-wide registry used by library crates.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Switches span timing on or off.  Off means [`Histogram::span`]
    /// costs one relaxed load and never touches the clock.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether span timing is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Spans at least this many nanoseconds long are also emitted to the
    /// sink as structured records; `0` (the default) disables emission.
    pub fn set_slow_span_ns(&self, ns: u64) {
        self.inner.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// Installs (or removes) the structured-log sink.
    pub fn set_sink(&self, sink: Option<Arc<dyn LogSink>>) {
        let mut slot = self.inner.sink.lock().unwrap();
        self.inner.has_sink.store(sink.is_some(), Ordering::Relaxed);
        *slot = sink;
    }

    /// Whether a structured-log sink is installed (one relaxed load).  A hot
    /// path checks this before it *builds* the fields of an
    /// [`event`](Registry::event) nobody would receive.
    #[inline]
    pub fn has_sink(&self) -> bool {
        self.inner.has_sink.load(Ordering::Relaxed)
    }

    /// Emits an event record to the sink, if one is installed.
    pub fn event(&self, name: &str, fields: &[(&'static str, String)]) {
        if !self.has_sink() {
            return;
        }
        let sink = self.inner.sink.lock().unwrap().clone();
        if let Some(sink) = sink {
            sink.emit(&Record {
                name,
                elapsed_ns: None,
                fields,
            });
        }
    }

    /// Attaches a one-line help text to a metric family, rendered as a
    /// `# HELP` line in the text exposition.  Keyed by the **base** name
    /// (labels stripped), so one call covers every series of a labelled
    /// family.  Idempotent; a later call overwrites the text.
    pub fn describe(&self, name: &str, help: &str) {
        self.inner
            .help
            .lock()
            .unwrap()
            .insert(name.to_string(), help.to_string());
    }

    /// Gets or registers a counter.  Panics if `name` is already
    /// registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.inner.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(ScalarCell::default())));
        match metric {
            Metric::Counter(cell) => Counter(Arc::clone(cell)),
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Gets or registers a gauge.  Panics on kind mismatch.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.inner.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(ScalarCell::default())));
        match metric {
            Metric::Gauge(cell) => Gauge(Arc::clone(cell)),
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Gets or registers a histogram.  Panics on kind mismatch.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.inner.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCell::new())));
        match metric {
            Metric::Histogram(cell) => Histogram {
                cell: Arc::clone(cell),
                name: Arc::from(name),
                registry: Arc::clone(&self.inner),
            },
            other => panic!("metric {name:?} already registered as {:?}", other.kind()),
        }
    }

    /// Gets or registers a histogram series with one static label, e.g.
    /// `histogram_labeled("kbt_net_command_ns", "verb", "query")` records
    /// into the series `kbt_net_command_ns{verb="query"}`.
    pub fn histogram_labeled(&self, base: &str, key: &str, value: &str) -> Histogram {
        self.histogram(&format!("{base}{{{key}=\"{value}\"}}"))
    }

    /// Freezes every series into a [`RegistrySnapshot`].
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.inner.metrics.lock().unwrap();
        let series = metrics
            .iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.load(Ordering::Relaxed)),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(Box::new(h.snapshot())),
                };
                (name.clone(), snap)
            })
            .collect();
        let help = self.inner.help.lock().unwrap().clone();
        RegistrySnapshot { series, help }
    }
}

/// One frozen series.  The histogram payload is boxed: a snapshot map
/// holds many more counters than histograms, and the 520-byte bucket
/// array would otherwise size every entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricSnapshot {
    Counter(u64),
    Gauge(u64),
    Histogram(Box<HistogramSnapshot>),
}

impl MetricSnapshot {
    fn kind(&self) -> MetricKind {
        match self {
            MetricSnapshot::Counter(_) => MetricKind::Counter,
            MetricSnapshot::Gauge(_) => MetricKind::Gauge,
            MetricSnapshot::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// A frozen registry: every series by full name, mergeable and renderable
/// as Prometheus-style text exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    series: BTreeMap<String, MetricSnapshot>,
    /// Help texts by base name, rendered as `# HELP` lines.
    help: BTreeMap<String, String>,
}

impl RegistrySnapshot {
    /// The frozen series, by full name.
    pub fn series(&self) -> &BTreeMap<String, MetricSnapshot> {
        &self.series
    }

    /// The counter/gauge value of a series, when it is one.
    pub fn value(&self, name: &str) -> Option<u64> {
        match self.series.get(name)? {
            MetricSnapshot::Counter(v) | MetricSnapshot::Gauge(v) => Some(*v),
            MetricSnapshot::Histogram(_) => None,
        }
    }

    /// The histogram snapshot of a series, when it is one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.series.get(name)? {
            MetricSnapshot::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Merges another snapshot in: same-name counters and gauges add,
    /// histograms merge element-wise.  Addition makes the operation
    /// associative and commutative, so sharded snapshots combine in any
    /// order.  A same-name kind mismatch keeps `self`'s series (it cannot
    /// occur between registries built from this crate's catalogues).
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, help) in &other.help {
            self.help
                .entry(name.clone())
                .or_insert_with(|| help.clone());
        }
        for (name, theirs) in &other.series {
            match self.series.get_mut(name) {
                None => {
                    self.series.insert(name.clone(), theirs.clone());
                }
                Some(ours) if ours.kind() != theirs.kind() => {}
                Some(MetricSnapshot::Counter(v)) => {
                    if let MetricSnapshot::Counter(o) = theirs {
                        *v = v.wrapping_add(*o);
                    }
                }
                Some(MetricSnapshot::Gauge(v)) => {
                    if let MetricSnapshot::Gauge(o) = theirs {
                        *v = v.wrapping_add(*o);
                    }
                }
                Some(MetricSnapshot::Histogram(h)) => {
                    if let MetricSnapshot::Histogram(o) = theirs {
                        h.merge(o);
                    }
                }
            }
        }
    }

    /// Renders Prometheus-style text exposition:
    ///
    /// ```text
    /// exposition := family*
    /// family     := help? "# TYPE " base-name " " kind "\n" sample*
    /// help       := "# HELP " base-name " " text "\n"
    /// sample     := series-name " " integer "\n"
    /// ```
    ///
    /// The `# HELP` line appears when the family was described via
    /// [`Registry::describe`], immediately before its `# TYPE` line.
    ///
    /// Histograms expand into cumulative `<base>_bucket{le="…"}` samples
    /// (bounds are exact `2^i - 1` integers, nanoseconds for `_ns`
    /// series), a final `le="+Inf"` bucket, and `<base>_sum` /
    /// `<base>_count` samples.  Values are plain integers throughout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_base: Option<String> = None;
        for (name, snap) in &self.series {
            // "base{label}" → ("base", "{label}"); "base" → ("base", "").
            let (base, labels) = match name.find('{') {
                Some(i) => name.split_at(i),
                None => (name.as_str(), ""),
            };
            if last_base.as_deref() != Some(base) {
                if let Some(help) = self.help.get(base) {
                    out.push_str("# HELP ");
                    out.push_str(base);
                    out.push(' ');
                    out.push_str(help);
                    out.push('\n');
                }
                out.push_str("# TYPE ");
                out.push_str(base);
                out.push(' ');
                out.push_str(snap.kind().exposition_name());
                out.push('\n');
                last_base = Some(base.to_string());
            }
            match snap {
                MetricSnapshot::Counter(v) | MetricSnapshot::Gauge(v) => {
                    out.push_str(name);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                MetricSnapshot::Histogram(h) => {
                    // Inner labels of the series, "" or `verb="query"`.
                    let inner = labels
                        .strip_prefix('{')
                        .and_then(|l| l.strip_suffix('}'))
                        .unwrap_or("");
                    let bucket_labels = |le: &str| -> String {
                        if inner.is_empty() {
                            format!("{{le=\"{le}\"}}")
                        } else {
                            format!("{{{inner},le=\"{le}\"}}")
                        }
                    };
                    let mut cumulative = 0u64;
                    let top = h.max_bucket().map_or(0, |m| m.min(62));
                    for (i, &b) in h.buckets.iter().enumerate().take(top + 1) {
                        cumulative += b;
                        out.push_str(base);
                        out.push_str("_bucket");
                        out.push_str(&bucket_labels(&bucket_upper_bound(i).to_string()));
                        out.push(' ');
                        out.push_str(&cumulative.to_string());
                        out.push('\n');
                    }
                    out.push_str(base);
                    out.push_str("_bucket");
                    out.push_str(&bucket_labels("+Inf"));
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                    out.push_str(base);
                    out.push_str("_sum");
                    out.push_str(labels);
                    out.push(' ');
                    out.push_str(&h.sum.to_string());
                    out.push('\n');
                    out.push_str(base);
                    out.push_str("_count");
                    out.push_str(labels);
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{LogFormat, MemorySink};

    #[test]
    fn registration_is_idempotent_and_shares_storage() {
        let r = Registry::new();
        let a = r.counter("kbt_test_total");
        let b = r.counter("kbt_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().value("kbt_test_total"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("kbt_test_total");
        r.gauge("kbt_test_total");
    }

    #[test]
    fn gauges_saturate_at_zero() {
        let r = Registry::new();
        let g = r.gauge("kbt_test_active");
        g.add(2);
        g.sub(5);
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn snapshot_merge_adds_and_is_associative() {
        let mk = |c: u64, g: u64, h: &[u64]| {
            let r = Registry::new();
            r.counter("c").add(c);
            r.gauge("g").add(g);
            let hist = r.histogram("h");
            for &v in h {
                hist.record(v);
            }
            r.snapshot()
        };
        let a = mk(1, 10, &[1, 2]);
        let b = mk(2, 20, &[100]);
        let c = mk(3, 30, &[]);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.value("c"), Some(6));
        assert_eq!(left.value("g"), Some(60));
        assert_eq!(left.histogram("h").unwrap().count, 3);
    }

    #[test]
    fn exposition_renders_types_buckets_and_labels() {
        let r = Registry::new();
        r.counter("kbt_a_total").add(5);
        r.gauge("kbt_b").set(2);
        r.histogram_labeled("kbt_c_ns", "verb", "query").record(3);
        r.histogram_labeled("kbt_c_ns", "verb", "stats").record(0);
        let text = r.snapshot().render();
        assert!(text.contains("# TYPE kbt_a_total counter\nkbt_a_total 5\n"));
        assert!(text.contains("# TYPE kbt_b gauge\nkbt_b 2\n"));
        // One TYPE line for the whole labeled family.
        assert_eq!(text.matches("# TYPE kbt_c_ns histogram").count(), 1);
        assert!(text.contains("kbt_c_ns_bucket{verb=\"query\",le=\"3\"} 1\n"));
        assert!(text.contains("kbt_c_ns_bucket{verb=\"query\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("kbt_c_ns_sum{verb=\"query\"} 3\n"));
        assert!(text.contains("kbt_c_ns_count{verb=\"stats\"} 1\n"));
        // Cumulative buckets: le="0" already counts the 0 sample.
        assert!(text.contains("kbt_c_ns_bucket{verb=\"stats\",le=\"0\"} 1\n"));
    }

    #[test]
    fn described_families_render_help_before_type() {
        let r = Registry::new();
        r.counter("kbt_a_total").add(5);
        r.describe("kbt_a_total", "things counted.");
        r.histogram_labeled("kbt_c_ns", "verb", "query").record(3);
        r.describe("kbt_c_ns", "latency per verb.");
        let text = r.snapshot().render();
        assert!(text.contains(
            "# HELP kbt_a_total things counted.\n# TYPE kbt_a_total counter\nkbt_a_total 5\n"
        ));
        // One HELP line for the whole labelled family, directly above TYPE.
        assert_eq!(text.matches("# HELP kbt_c_ns ").count(), 1);
        assert!(text.contains("# HELP kbt_c_ns latency per verb.\n# TYPE kbt_c_ns histogram\n"));
        // Help survives a merge into an undescribed snapshot.
        let mut merged = Registry::new().snapshot();
        merged.merge(&r.snapshot());
        assert!(merged
            .render()
            .contains("# HELP kbt_a_total things counted.\n"));
    }

    #[test]
    fn events_reach_the_sink() {
        let r = Registry::new();
        let sink = Arc::new(MemorySink::new(LogFormat::Text));
        r.event("ignored", &[]); // no sink yet
        r.set_sink(Some(sink.clone()));
        r.event("session_open", &[("peer", "127.0.0.1".to_string())]);
        r.set_sink(None);
        r.event("ignored", &[]);
        assert_eq!(sink.lines(), ["event=session_open peer=127.0.0.1"]);
    }
}
