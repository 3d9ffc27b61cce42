//! # kbt-bench — shared helpers for the benchmark harness
//!
//! Each Criterion bench target under `benches/` regenerates one of the
//! paper's experiments (one row-group of the Section 4 complexity table, a
//! Section 3 example, a Section 4/5 reduction, the KM postulates), except
//! `metrics_overhead`, which asserts the observability layer's paired
//! <5 % budget.  The serving stack's performance is measured end to end by
//! `bench/stackbench` (`BENCHMARK.json`), not here.  The integration tests
//! under `tests/` pin work by counts (allocations, solver searches), which
//! repeat on any machine.  This library crate only hosts the small helpers
//! the targets and tests share, so that the benchmark code itself stays
//! focused on the experiment being reproduced.

use std::time::Duration;

use criterion::Criterion;

/// A Criterion configuration tuned for repository-sized runs: small sample
/// counts and short measurement windows, because the interesting signal here
/// is asymptotic shape (polynomial versus exponential growth), not
/// microsecond-level precision.
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
        .configure_from_args()
}

pub use criterion;

pub mod alloc_counter {
    //! A counting global allocator for allocation-budget assertions.
    //!
    //! Install [`CountingAlloc`] as the `#[global_allocator]` of a bench or
    //! test binary, then bracket the region of interest with [`reset`] /
    //! [`snapshot`].  Counting is process-global and relaxed-atomic, so
    //! keep measured regions single-threaded (the engine's sequential inner
    //! loops, which is exactly what the zero-allocation probe assertions
    //! target).  `dealloc` is deliberately not counted: the interesting
    //! budget is *new* heap traffic per operation.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocations and allocated bytes
    /// (`alloc`, `alloc_zeroed` and growth via `realloc`).
    pub struct CountingAlloc;

    // SAFETY: defers all allocation to `System`; the wrapper only touches
    // two atomics.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Zeroes both counters.
    pub fn reset() {
        ALLOCS.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
    }

    /// `(allocations, bytes)` since the last [`reset`].
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_criterion_is_constructible() {
        let _ = super::quick_criterion();
    }

    #[test]
    fn alloc_counter_observes_heap_traffic() {
        // The counter is attached per *binary*; in this test binary the
        // global allocator is the plain system one, so only the counter
        // arithmetic is checked here (the end-to-end wiring is asserted by
        // the `zero_alloc` integration test, which installs the allocator).
        super::alloc_counter::reset();
        assert_eq!(super::alloc_counter::snapshot(), (0, 0));
    }
}
