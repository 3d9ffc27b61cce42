//! # kbt-par — a std-only ordered parallel `map`
//!
//! The fixpoint engine fans the independent derivations of a semi-naive
//! round out across cores, and it asks for exactly one shape to do it: an
//! ordered map over the round's tasks, what `rayon` spells
//! `into_par_iter().map().collect()`.  This repository builds offline (no
//! crates.io), so — like `vendor/rand` and `vendor/proptest` — that one
//! shape is implemented in-workspace, and nothing else is: no job queue, no
//! nested spawns, no work *stealing*.
//!
//! ## Design
//!
//! * **Pool** — [`ThreadPool`] owns helper threads that sleep on a condvar
//!   until a `map` is installed.  [`ThreadPool::global`] is the process-wide
//!   instance the engine uses; it grows its worker set on demand so an
//!   explicit `threads = 4` request is honoured even when
//!   `available_parallelism` reports fewer cores (the OS timeslices — the
//!   callers' *determinism* never depends on the physical core count).
//! * **The one `map`** — [`ThreadPool::map`]`(width, items, f)` runs `f`
//!   on the calling thread plus at most `width - 1` helpers, each claiming
//!   the next unclaimed item by one atomic increment, and may borrow from
//!   the caller's stack, because it does not return until every helper has
//!   left.  A `width` of 1 or a single item runs inline and never touches
//!   the pool.  The pool serves one `map` at a time; one that finds it held
//!   runs caller-only and is counted (`kbt_par_contended_scopes_total`).
//! * **Panic propagation** — an item that panics does not tear down the
//!   pool: the first payload is captured, the remaining items still run,
//!   and the payload is re-raised on the calling thread once every helper
//!   has left.
//!
//! ## Determinism contract
//!
//! `map` returns its results **in item order**, whichever thread computed
//! which.  That is all the pool guarantees, and all the engine needs: it
//! builds byte-identical fixpoints on top by giving every task a *private*
//! derivation buffer and merging the buffers in stable task order — thread
//! interleaving can then never reach the output.  See `kbt_engine::eval`
//! for that merge.
//!
//! ## Thread-count configuration
//!
//! [`default_threads`] is the process-wide default width: the
//! `KBT_THREADS` environment variable when set, otherwise
//! [`std::thread::available_parallelism`].
//!
//! ## Beyond `map`: bounded long-lived workers
//!
//! [`WorkerSet`] is the second shape this crate offers: a fixed set of
//! named worker threads pulling independent `'static` jobs from a bounded
//! queue, with admission control ([`WorkerSet::try_submit`] refuses work at
//! capacity instead of growing).  `map` serves the evaluation engine; the
//! worker set serves connection supervision in the network front, where a
//! session outlives any one call stack and "reject at capacity" is the
//! correct overload behaviour.

pub mod metrics;
mod pool;
mod worker_set;

pub use metrics::{metrics, ParMetrics};
pub use pool::ThreadPool;
pub use worker_set::WorkerSet;

use std::sync::OnceLock;

/// Parses a width setting: a positive integer (surrounding whitespace
/// ignored); anything else — including `0` — is "unset".
fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// An **uncached** resolution of the default-width policy: `KBT_THREADS`
/// when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`], otherwise `1`.
///
/// This is exactly what [`default_threads`] computes on its first call —
/// factored out so long-lived hosts (service configuration) can apply the
/// same policy *freshly*, observing environment changes, instead of copying
/// it; a future change to the fallback then cannot diverge between the two.
pub fn fresh_threads() -> usize {
    std::env::var("KBT_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_threads)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide default evaluation width: `KBT_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`] (and
/// `1` if even that is unavailable).
///
/// **Frozen on first read.**  The value is computed once and cached in a
/// `OnceLock` for the lifetime of the process; later changes to
/// `KBT_THREADS` (by a test harness or a long-lived host application) are
/// deliberately *not* observed, so that every evaluation in one process run
/// agrees on what "the default width" means.  Callers that need a
/// reconfigurable width must plumb an explicit `threads` value through their
/// own configuration (as `kbt-service` does) or call [`fresh_threads`]
/// themselves — nothing forces them through this cache.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(fresh_threads)
}

/// Resolves a caller-supplied thread count: `0` means "use the default"
/// ([`default_threads`]), anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive_and_stable() {
        let d = default_threads();
        assert!(d >= 1);
        assert_eq!(d, default_threads());
    }

    #[test]
    fn resolve_threads_maps_zero_to_default() {
        assert_eq!(resolve_threads(0), default_threads());
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn parse_threads_accepts_only_positive_integers() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads("  2 \n"), Some(2));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads("four"), None);
    }
}
