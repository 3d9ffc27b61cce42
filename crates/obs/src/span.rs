//! Drop-timed spans.
//!
//! A [`Span`] reads the clock when created and records the elapsed
//! nanoseconds into its histogram when dropped.  Creation through
//! [`Histogram::span`] checks the owning registry's enabled flag first —
//! when timing is off a span costs one relaxed load, touches no clock,
//! and records nothing, which is what keeps instrumented hot paths free
//! when observability is disabled.
//!
//! If the registry has a log sink installed and a slow-span threshold
//! set, spans at least that long are additionally emitted as structured
//! records (the slow-query log).  Fields attached via [`Span::field`] ride
//! along on that record.  A span only *borrows* them: they become owned
//! strings in the slow branch of drop, so the fast path — every span that
//! stays under the threshold — allocates nothing for them.

use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::registry::Histogram;
use crate::sink::Record;

/// A timed scope; drop records elapsed nanoseconds into the histogram.
#[must_use = "a span records on drop; binding it to _ discards the timing immediately"]
#[derive(Debug)]
pub struct Span<'a> {
    /// `None` when the registry had timing disabled at creation.
    active: Option<ActiveSpan<'a>>,
}

/// How many fields one span can carry.
const MAX_FIELDS: usize = 4;

#[derive(Debug)]
struct ActiveSpan<'a> {
    histogram: &'a Histogram,
    event: &'static str,
    start: Instant,
    /// The first `field_count` entries are attached fields, in order.
    fields: [(&'static str, &'a str); MAX_FIELDS],
    field_count: usize,
}

impl Histogram {
    /// Starts a span that records into this histogram, or an inert span
    /// when the registry's timing is disabled (one relaxed load).
    #[inline]
    pub fn span(&self) -> Span<'_> {
        self.span_event("")
    }

    /// Like [`Histogram::span`], with an event name used if the span is
    /// emitted to the log sink (otherwise the series name is used).
    #[inline]
    pub fn span_event(&self, event: &'static str) -> Span<'_> {
        if !self.registry.enabled.load(Ordering::Relaxed) {
            return Span { active: None };
        }
        Span {
            active: Some(ActiveSpan {
                histogram: self,
                event,
                start: Instant::now(),
                fields: [("", ""); MAX_FIELDS],
                field_count: 0,
            }),
        }
    }
}

impl<'a> Span<'a> {
    /// Whether this span is live (timing was enabled at creation).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a field carried on the slow-span log record: borrowed for
    /// the span's lifetime, copied only if the record is emitted.  No-op on
    /// a disabled span.  A span carries at most four fields; further ones
    /// are dropped.
    pub fn field(&mut self, key: &'static str, value: &'a str) {
        if let Some(active) = &mut self.active {
            debug_assert!(active.field_count < MAX_FIELDS, "span field {key} dropped");
            if let Some(slot) = active.fields.get_mut(active.field_count) {
                *slot = (key, value);
                active.field_count += 1;
            }
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        // nothing in an active span owns anything: read it in place
        let Some(active) = &self.active else {
            return;
        };
        let elapsed = active.start.elapsed();
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        active.histogram.cell.record(ns);
        let registry = &active.histogram.registry;
        let slow_ns = registry.slow_ns.load(Ordering::Relaxed);
        if slow_ns == 0 || ns < slow_ns || !registry.has_sink.load(Ordering::Relaxed) {
            return;
        }
        let sink = registry.sink.lock().unwrap().clone();
        if let Some(sink) = sink {
            let name = if active.event.is_empty() {
                active.histogram.name()
            } else {
                active.event
            };
            let fields: Vec<(&'static str, String)> = active.fields[..active.field_count]
                .iter()
                .map(|(key, value)| (*key, value.to_string()))
                .collect();
            sink.emit(&Record {
                name,
                elapsed_ns: Some(ns),
                fields: &fields,
            });
        }
    }
}

/// Times a scope against a histogram on the **global** registry.
///
/// ```
/// # use kbt_obs::span;
/// {
///     let _span = span!("kbt_example_commit_ns");
///     // … work …
/// } // drop records elapsed ns into kbt_example_commit_ns
/// ```
///
/// The histogram handle is registered once per call site (a `OnceLock`),
/// so steady-state cost is the span itself.  For per-instance registries,
/// hold a [`Histogram`] handle and call [`Histogram::span`] directly.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HISTOGRAM: std::sync::OnceLock<$crate::Histogram> = std::sync::OnceLock::new();
        HISTOGRAM
            .get_or_init(|| $crate::Registry::global().histogram($name))
            .span()
    }};
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;
    use crate::sink::{LogFormat, MemorySink};
    use std::sync::Arc;

    #[test]
    fn span_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("kbt_test_ns");
        {
            let _span = h.span();
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.set_enabled(false);
        let h = r.histogram("kbt_test_ns");
        {
            let mut span = h.span();
            assert!(!span.enabled());
            span.field("k", "v");
        }
        assert_eq!(h.snapshot().count, 0);
        // Counters and gauges keep recording regardless.
        r.counter("kbt_test_total").inc();
        assert_eq!(r.snapshot().value("kbt_test_total"), Some(1));
    }

    #[test]
    fn slow_spans_reach_the_sink_with_fields() {
        let r = Registry::new();
        let sink = Arc::new(MemorySink::new(LogFormat::Text));
        r.set_sink(Some(sink.clone()));
        r.set_slow_span_ns(1); // everything is "slow"
        let h = r.histogram("kbt_test_query_ns");
        {
            let mut span = h.span_event("slow_query");
            span.field("cmd", "QUERY lub");
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("event=slow_query elapsed_ns="),
            "{lines:?}"
        );
        assert!(lines[0].ends_with("cmd=\"QUERY lub\""), "{lines:?}");
        assert_eq!(h.snapshot().count, 1);

        // Below the threshold nothing is emitted (still recorded).
        r.set_slow_span_ns(u64::MAX);
        {
            let _span = h.span_event("slow_query");
        }
        assert_eq!(sink.lines().len(), 1);
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn span_macro_hits_the_global_registry() {
        {
            let _span = span!("kbt_obs_selftest_macro_ns");
        }
        let snap = Registry::global().snapshot();
        assert!(snap.histogram("kbt_obs_selftest_macro_ns").unwrap().count >= 1);
    }
}
