//! Pool metrics on the process-wide [`kbt_obs::Registry`].
//!
//! Counters only — the pool adds no spans of its own (scope latency is
//! visible through the engine's round histograms).  Counting is one
//! relaxed `fetch_add` per event and never influences scheduling, so the
//! callers' determinism contract is untouched.

use std::sync::OnceLock;

use kbt_obs::{Counter, Registry};

/// Handles onto the pool's series in [`Registry::global`].
pub struct ParMetrics {
    /// `kbt_par_scopes_total` — scopes opened on the shared pool: one per
    /// [`crate::ThreadPool::map`] that fans out (width above 1, more than
    /// one item).
    pub scopes_total: Counter,
    /// `kbt_par_contended_scopes_total` — scopes that wanted helpers while
    /// another `map` held the pool and therefore ran caller-only.
    pub contended_scopes_total: Counter,
}

/// The pool's metric handles, registered once per process.  Call eagerly
/// (e.g. at service startup) to make the series visible to scrapes before
/// any parallel work has run.
pub fn metrics() -> &'static ParMetrics {
    static METRICS: OnceLock<ParMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        for (name, help) in [
            ("kbt_par_scopes_total", "Scopes opened on the shared pool."),
            (
                "kbt_par_contended_scopes_total",
                "Scopes that ran caller-only because the pool was held.",
            ),
        ] {
            r.describe(name, help);
        }
        ParMetrics {
            scopes_total: r.counter("kbt_par_scopes_total"),
            contended_scopes_total: r.counter("kbt_par_contended_scopes_total"),
        }
    })
}
