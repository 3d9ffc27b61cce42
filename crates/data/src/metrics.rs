//! The data crate's metrics on the process-wide [`kbt_obs::Registry`].
//!
//! One counter, recorded where a relation copies stored rows into a fresh
//! base run (see [`crate::relation`]): the cost a commit pays for the size
//! of what it touches rather than for what it changes.

use std::sync::OnceLock;

use kbt_obs::{Counter, Registry};

/// Handles onto the data crate's series in [`Registry::global`].
pub struct DataMetrics {
    /// `kbt_data_rows_copied_total` — rows written into fresh base runs by
    /// folds (a delta past the fold rule, from `merge_rows` or a point
    /// write) and by copy-on-write unsharing.  Composing a delta over a
    /// shared base copies none.
    pub rows_copied_total: Counter,
}

/// The data crate's metric handles, registered once per process.  Calling
/// this eagerly (e.g. at service startup) makes the series visible to
/// scrapes before any relation has been merged.
pub fn metrics() -> &'static DataMetrics {
    static METRICS: OnceLock<DataMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        r.describe(
            "kbt_data_rows_copied_total",
            "Rows written into fresh base runs by delta folds and copy-on-write unsharing.",
        );
        DataMetrics {
            rows_copied_total: r.counter("kbt_data_rows_copied_total"),
        }
    })
}
