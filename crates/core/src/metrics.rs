//! Core metrics on the process-wide [`kbt_obs::Registry`], kept the
//! engine's way (`kbt_engine::metrics`): registered once per process,
//! never read back by the transformer.  Both series are timing spans,
//! gated on the registry's enabled flag.

use std::sync::OnceLock;

use kbt_obs::{Histogram, Registry};

/// Handles onto the core layer's series in [`Registry::global`].
pub struct CoreMetrics {
    /// `kbt_core_chain_diff_ns` — wall time of one chain step's diff of
    /// its input against the previous step's
    /// ([`crate::ChainSession::advance`]).
    pub chain_diff_ns: Histogram,
    /// `kbt_core_chain_assemble_ns` — wall time of one chain step's
    /// result assembly: the engine's relations handed out and set on the
    /// input.
    pub chain_assemble_ns: Histogram,
}

/// The core layer's metric handles, registered once per process.  Calling
/// this eagerly (e.g. at service startup) makes every series visible to
/// scrapes before any chain has advanced.
pub fn metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        for (name, help) in [
            (
                "kbt_core_chain_diff_ns",
                "Wall time of one chain step's input diff in nanoseconds.",
            ),
            (
                "kbt_core_chain_assemble_ns",
                "Wall time of one chain step's result assembly in nanoseconds.",
            ),
        ] {
            r.describe(name, help);
        }
        CoreMetrics {
            chain_diff_ns: r.histogram("kbt_core_chain_diff_ns"),
            chain_assemble_ns: r.histogram("kbt_core_chain_assemble_ns"),
        }
    })
}
