//! Datalog metrics on the process-wide [`kbt_obs::Registry`], kept the
//! engine's way (`kbt_engine::metrics`): registered once per process,
//! never read back by the rewrite or the evaluator.  The counter always
//! accumulates; the `_ns` histogram is a timing span, gated on the
//! registry's enabled flag.

use std::sync::OnceLock;

use kbt_obs::{Counter, Histogram, Registry};

/// Handles onto the Datalog layer's series in [`Registry::global`].
pub struct DatalogMetrics {
    /// `kbt_datalog_demand_rewrites_total` — [`crate::demand_rewrite`]
    /// calls: hypothetical `tau[φ]; project[K]` reads pushed down.
    pub demand_rewrites_total: Counter,
    /// `kbt_datalog_demand_rewrite_ns` — wall time of one
    /// [`crate::demand_rewrite`].
    pub demand_rewrite_ns: Histogram,
}

/// The Datalog layer's metric handles, registered once per process.
/// Calling this eagerly (e.g. at service startup) makes every series
/// visible to scrapes before any rewrite has run.
pub fn metrics() -> &'static DatalogMetrics {
    static METRICS: OnceLock<DatalogMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        for (name, help) in [
            (
                "kbt_datalog_demand_rewrites_total",
                "Projection push-down rewrites of hypothetical reads.",
            ),
            (
                "kbt_datalog_demand_rewrite_ns",
                "Wall time of one projection push-down rewrite in nanoseconds.",
            ),
        ] {
            r.describe(name, help);
        }
        DatalogMetrics {
            demand_rewrites_total: r.counter("kbt_datalog_demand_rewrites_total"),
            demand_rewrite_ns: r.histogram("kbt_datalog_demand_rewrite_ns"),
        }
    })
}
