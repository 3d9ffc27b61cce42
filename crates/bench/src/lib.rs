//! # kbt-bench — in-process harnesses and machine-independent bounds
//!
//! The targets under `benches/` time one layer's kernels in process with
//! plain `std::time` — `closure_kernels` (the engine under
//! `closure_scan`'s closures), `commit_kernels` (`commit_stream`'s commit
//! cycle), `sat_kernels` (`update_sat`'s non-Horn reads) and
//! `read_kernels` (`abox_read`'s stored reads) — for a before/after on one
//! machine; they print and assert nothing.
//! `metrics_overhead` is the exception: it fails unless the observability
//! layer stays within its paired 5 % budget.  The serving stack's
//! performance is measured end to end by `bench/stackbench`
//! (`BENCHMARK.json`), not here.  The integration tests under `tests/` pin
//! work by counts (allocations, solver searches, copied names), which
//! repeat on any machine; the paper's complexity shapes are pinned the same
//! way by the root package's `tests/complexity_shape.rs`.  This library
//! crate only hosts the counting allocator those tests share.

pub mod alloc_counter {
    //! A counting global allocator for allocation-budget assertions.
    //!
    //! Install [`CountingAlloc`] as the `#[global_allocator]` of a bench or
    //! test binary, then bracket the region of interest with [`reset`] /
    //! [`snapshot`].  Counting is process-global and relaxed-atomic, so a
    //! measured window must be the only thread running: the test binaries
    //! that bracket it are built with `harness = false` and measure on
    //! their `main` thread.  Under libtest the test runs on a thread of its
    //! own while the harness's main thread keeps allocating beside it, and
    //! `zero_alloc`'s window was billed those allocations (4 of them,
    //! 900 bytes) whenever the two overlapped.  `dealloc` is deliberately
    //! not counted: the interesting budget is *new* heap traffic per
    //! operation.

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
    fn alloc_counter_observes_heap_traffic() {
        // The counter is attached per *binary*; in this test binary the
        // global allocator is the plain system one, so only the counter
        // arithmetic is checked here (the end-to-end wiring is asserted by
        // the `zero_alloc` integration test, which installs the allocator).
        super::alloc_counter::reset();
        assert_eq!(super::alloc_counter::snapshot(), (0, 0));
    }
}
