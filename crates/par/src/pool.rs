//! The thread pool: persistent helper threads and the one call the engine
//! makes of them, an ordered [`ThreadPool::map`].
//!
//! See the crate docs for the design overview.  The one `unsafe` block —
//! handing the helpers a lifetime-erased reference to a `map`'s work loop —
//! has its argument in [`ThreadPool::map`].

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Upper bound on helper threads the pool will ever spawn, however wide a
/// caller asks to go (a runaway `threads` request must not fork-bomb).
const MAX_HELPERS: usize = 64;

/// A `map`'s work loop — claim the next item, run it, until none is left —
/// with its lifetime erased (see [`ThreadPool::map`]).
type Work = &'static (dyn Fn() + Sync);

/// Pool-level state, shared between the callers and the helper threads.
struct PoolState {
    /// The work loop of the `map` holding the pool, if any.
    work: Option<Work>,
    /// Bumped per installation, so a helper joins each `map` at most once.
    epoch: u64,
    /// Helpers the installed `map` may still take on (`width - 1` at first).
    seats: usize,
    /// Helpers currently running the installed work loop.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// Locks one of the pool's mutexes.  Nothing panics while holding one —
/// item panics are caught outside them — and every update under them is a
/// single assignment, so a poisoned guard still holds valid data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pool of persistent helper threads.  See the crate docs for the design.
///
/// The pool serves **one `map` at a time**: a `map` that arrives while
/// another holds the pool runs correctly but unassisted (the calling thread
/// works through its items alone, at effective width 1).  That degradation
/// is deliberate — helpers never interleave two callers' borrowed stacks —
/// but it must be *observable*, so it is counted in
/// `kbt_par_contended_scopes_total` ([`crate::ParMetrics`]); a serving
/// layer that fans out many concurrent wide evaluations can watch the
/// counter to see how often its configured width was not actually honoured.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadPool {
    /// A pool with `helpers` pre-spawned helper threads (the pool grows on
    /// demand up to an internal cap when a wider `map` is requested, so `0`
    /// is a fine starting point).
    pub fn new(helpers: usize) -> Self {
        let pool = ThreadPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    work: None,
                    epoch: 0,
                    seats: 0,
                    active: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(helpers);
        pool
    }

    /// The process-wide pool used by the evaluation engine, initially sized
    /// to [`crate::default_threads`]` - 1` helpers.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(crate::default_threads().saturating_sub(1)))
    }

    /// Number of helper threads currently alive.
    pub fn helpers(&self) -> usize {
        lock(&self.workers).len()
    }

    fn ensure_workers(&self, n: usize) {
        let n = n.min(MAX_HELPERS);
        let mut workers = lock(&self.workers);
        while workers.len() < n {
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("kbt-par-{}", workers.len()))
                .spawn(move || worker_main(&shared))
                .expect("spawning a pool worker thread");
            workers.push(handle);
        }
    }

    /// Applies `f` to every item, at most `width` threads wide — the
    /// calling thread plus up to `width - 1` helpers, each claiming the next
    /// unclaimed item — and returns the results **in item order**
    /// regardless of which thread computed what.  `width <= 1` (or a single
    /// item) runs inline with no pool involvement at all.
    ///
    /// If `f` panics, the remaining items still run and the first payload
    /// is re-raised here once every helper has left; the pool stays usable.
    pub fn map<T, R, F>(&self, width: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if width <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let metrics = crate::metrics::metrics();
        metrics.scopes_total.inc();
        // `Relaxed` suffices: the increment alone hands each index to one
        // thread, and results travel through the slot mutexes and the join
        // in `retire`.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return;
            };
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(result) => *lock(&slots[i]) = Some(result),
                Err(payload) => {
                    lock(&first_panic).get_or_insert(payload);
                }
            }
        };
        let helpers = (width - 1).min(MAX_HELPERS);
        self.ensure_workers(helpers);
        let installed = {
            let mut st = lock(&self.shared.state);
            let free = st.work.is_none();
            if free {
                // SAFETY: only the lifetime is erased.  A helper takes the
                // reference and counts itself `active` in one critical
                // section, and only while it is installed.  This function
                // does not return before `retire` has closed the seats,
                // waited until no helper is active and uninstalled it, and
                // it cannot unwind before that either: `work` catches `f`'s
                // panics item by item.  So no helper calls `work` after the
                // borrows it captures have ended.
                let work = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Work>(&work) };
                st.work = Some(work);
                st.epoch += 1;
                st.seats = helpers;
                self.shared.cv.notify_all();
            }
            free
        };
        if !installed {
            metrics.contended_scopes_total.inc();
        }
        work();
        if installed {
            self.retire();
        }
        let panicked = lock(&first_panic).take();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        (slots.iter())
            .map(|slot| lock(slot).take().expect("every item ran once"))
            .collect()
    }

    /// Waits for every helper still running the installed work loop, then
    /// frees the pool for the next `map`.
    fn retire(&self) {
        let mut st = lock(&self.shared.state);
        st.seats = 0;
        while st.active > 0 {
            st = self
                .shared
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.work = None;
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(shared: &PoolShared) {
    let mut served = 0u64;
    let mut st = lock(&shared.state);
    loop {
        if st.shutdown {
            return;
        }
        match st.work {
            Some(work) if st.epoch != served && st.seats > 0 => {
                served = st.epoch;
                st.seats -= 1;
                st.active += 1;
                drop(st);
                work();
                st = lock(&shared.state);
                st.active -= 1;
                shared.cv.notify_all();
            }
            _ => st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn map_returns_results_in_item_order() {
        let pool = ThreadPool::new(3);
        let items: Vec<usize> = (0..200).collect();
        let got = pool.map(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(got, (0..200).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn width_one_runs_inline_without_helpers() {
        let pool = ThreadPool::new(0);
        let main_id = std::thread::current().id();
        let got = pool.map(1, &[1u32, 2, 3], |_, &x| {
            assert_eq!(std::thread::current().id(), main_id);
            x + 1
        });
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(pool.helpers(), 0);
    }

    #[test]
    fn item_panics_propagate_and_the_pool_survives() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(4, &[1u32, 2, 3, 4], |_, &x| {
                if x == 3 {
                    panic!("item {x} failed");
                }
                x
            });
        }));
        assert!(caught.is_err(), "the item's panic must surface");
        // the pool remains usable
        let got = pool.map(4, &[10u32, 20], |_, &x| x + 1);
        assert_eq!(got, vec![11, 21]);
    }

    #[test]
    fn a_map_over_a_held_pool_runs_caller_only_and_is_counted() {
        // the pool serves one map at a time; a second, overlapping map must
        // still compute correctly (its caller works alone) and the
        // degradation must show up in the contention counter (no other test
        // here overlaps two maps on one pool, so the delta is exact)
        let contended = || crate::metrics::metrics().contended_scopes_total.get();
        let before = contended();
        let pool = Arc::new(ThreadPool::new(2));
        let barrier = Arc::new(Barrier::new(2));
        let holder = {
            let (pool, barrier) = (pool.clone(), barrier.clone());
            std::thread::spawn(move || {
                pool.map(2, &[0, 1], |i, _: &i32| {
                    if i == 0 {
                        barrier.wait(); // 1: map A holds the pool
                        barrier.wait(); // 2: and keeps it until B is done
                    }
                });
            })
        };
        barrier.wait(); // 1
        let got = pool.map(4, &[1, 2, 3], |_, &x: &i32| x * 2);
        assert_eq!(got, vec![2, 4, 6], "a contended map must still be correct");
        assert_eq!(contended() - before, 1);
        barrier.wait(); // 2
        holder.join().unwrap();
        assert_eq!(pool.map(2, &[5, 6], |_, &x: &i32| x), vec![5, 6]);
        assert_eq!(contended() - before, 1, "the pool is free again");
    }

    #[test]
    fn global_pool_is_shared() {
        let a = ThreadPool::global() as *const _;
        let b = ThreadPool::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn wide_maps_grow_the_helpers_up_to_the_cap() {
        let pool = ThreadPool::new(0);
        pool.map(3, &(0..64).collect::<Vec<_>>(), |_, &x: &i32| x);
        assert!(pool.helpers() >= 2);
        pool.map(100_000, &[1, 2], |_, &x: &i32| x);
        assert!(pool.helpers() <= MAX_HELPERS);
    }
}
