//! # kbt-par — a std-only ordered parallel `map`
//!
//! The fixpoint engine fans the independent derivations of a semi-naive
//! round out across cores, and it asks for exactly one shape to do it: an
//! ordered map over the round's tasks, what `rayon` spells
//! `into_par_iter().map().collect()`.  This repository builds offline (no
//! crates.io), so — like `vendor/rand` and `vendor/proptest` — that one
//! shape is implemented in-workspace, and nothing else is: no job queue, no
//! nested spawns, no work *stealing*, no long-lived job threads (the
//! network front spawns one scoped thread per session itself).
//!
//! ## Design
//!
//! * **The one `map`** — [`map`]`(width, items, f)` runs `f` on the
//!   calling thread plus at most `width - 1` helpers spawned inside
//!   [`std::thread::scope`], each claiming the next unclaimed item by one
//!   atomic increment.  The scope lets `f` borrow from the caller's stack
//!   and joins every helper before `map` returns, so no helper outlives
//!   the `map` that spawned it, and the borrow checker, not a hand-kept
//!   protocol, proves it.  A `width` of 1 or a single item runs inline and
//!   spawns nothing.  Helpers are named `kbt-par-N`; one the OS refuses
//!   to start is done without, as its items go to the threads that did
//!   start.  An explicit `threads = 4` is honoured even when
//!   `available_parallelism` reports fewer cores (the OS timeslices — the
//!   callers' *determinism* never depends on the physical core count).
//! * **One fan-out at a time** — a process-wide mutex, taken by
//!   `try_lock`, admits one `map` with helpers out; one that finds it held
//!   runs caller-only and is counted (`kbt_par_contended_scopes_total`),
//!   so the process never runs more than 64 helpers.
//! * **Panic propagation** — the thread whose item panics stops, the
//!   others finish the items, and the first payload is re-raised on the
//!   calling thread once every helper has been joined.
//!
//! ## Determinism contract
//!
//! `map` returns its results **in item order**, whichever thread computed
//! which.  That is all `map` guarantees, and all the engine needs: it
//! builds byte-identical fixpoints on top by giving every task a *private*
//! derivation buffer and merging the buffers in stable task order — thread
//! interleaving can then never reach the output.  See `kbt_engine::eval`
//! for that merge.
//!
//! ## Thread-count configuration
//!
//! [`default_threads`] is the process-wide default width: the
//! `KBT_THREADS` environment variable when set, otherwise
//! [`std::thread::available_parallelism`].  Nothing is sized from it up
//! front: each [`map`] spawns the helpers its own `width` asks for.

mod map;
pub mod metrics;

pub use map::map;
pub use metrics::{metrics, ParMetrics};

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
