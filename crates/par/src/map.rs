//! The one call the engine makes of this crate: an ordered [`map`] over
//! scoped helper threads.  See the crate docs for the design overview.

use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, TryLockError};
use std::thread::Builder;

/// Upper bound on the helpers one `map` spawns, however wide a caller asks
/// to go (a runaway `threads` request must not fork-bomb).
const MAX_HELPERS: usize = 64;

/// Held while a `map` has helpers out; see [`map`].  It guards no data:
/// it only bounds how many helpers run at once, so a guard poisoned by an
/// item's panic is taken as it is.
static FANNED_OUT: Mutex<()> = Mutex::new(());

/// Helpers a fanned-out `map` of `width` over `items` items spawns: one
/// per thread beyond the caller, no more than could each claim an item,
/// and never more than [`MAX_HELPERS`].
fn helpers(width: usize, items: usize) -> usize {
    (width - 1).min(items - 1).min(MAX_HELPERS)
}

/// Applies `f` to every item, at most `width` threads wide — the calling
/// thread plus up to `width - 1` scoped helpers, each claiming the next
/// unclaimed item — and returns the results **in item order** regardless
/// of which thread computed what.  `width <= 1` (or a single item) runs
/// inline and spawns nothing.
///
/// One `map` at a time fans out, process-wide, so no more than 64 helpers
/// ever run: a `map` that arrives while another has helpers out runs
/// correctly but caller-only, at effective width 1.  That degradation is
/// counted in `kbt_par_contended_scopes_total` ([`crate::ParMetrics`]), so
/// a serving layer that fans out many concurrent wide evaluations can see
/// how often its width was not honoured.  A helper the OS refuses to start
/// is done without: the items go to the threads that did start, the caller
/// alone if none did.  Every helper has exited when `map` returns.
///
/// If `f` panics, the panicking thread stops claiming items, the others
/// finish theirs, and the first payload — the caller's own, else the
/// earliest-spawned helper's — is re-raised here once every helper has
/// been joined.
pub fn map<T, R, F>(width: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let inline = || items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    if width <= 1 || items.len() <= 1 {
        return inline();
    }
    let metrics = crate::metrics::metrics();
    metrics.scopes_total.inc();
    let _fanned_out = match FANNED_OUT.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            metrics.contended_scopes_total.inc();
            return inline();
        }
    };
    let named = |k| Ok(Builder::new().name(format!("kbt-par-{k}")));
    fan_out(helpers(width, items.len()), items, &f, named)
}

/// Runs `items` on the caller and on up to `helpers` threads built by
/// `builder` (helper `k` from `builder(k)`), stopping at the first helper
/// that fails to build or to start.
fn fan_out<T: Sync, R: Send>(
    helpers: usize,
    items: &[T],
    f: &(impl Fn(usize, &T) -> R + Sync),
    builder: impl Fn(usize) -> io::Result<Builder>,
) -> Vec<R> {
    // `Relaxed` suffices: the increment alone hands each index to one
    // thread, and results travel back through the joins.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(i, item)));
        }
    };
    let runs = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..helpers)
            .map_while(|k| builder(k).and_then(|b| b.spawn_scoped(s, work)).ok())
            .collect();
        let mine = catch_unwind(AssertUnwindSafe(work));
        let theirs: Vec<_> = spawned.into_iter().map(|h| h.join()).collect();
        std::iter::once(mine).chain(theirs).collect::<Vec<_>>()
    });
    let mut done: Vec<_> = (runs.into_iter())
        .flat_map(|run| run.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
    use std::thread::{self, ThreadId};

    /// The fan-out flag and the counters are process-wide, so the tests
    /// that fan out take turns: an overlapping map from a neighbouring test
    /// would run caller-only and shift the counts these tests read.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn scopes() -> u64 {
        crate::metrics::metrics().scopes_total.get()
    }

    fn contended() -> u64 {
        crate::metrics::metrics().contended_scopes_total.get()
    }

    #[test]
    fn map_returns_results_in_item_order() {
        let _serial = serial();
        let items: Vec<usize> = (0..200).collect();
        let got = map(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(got, (0..200).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn width_one_runs_on_the_calling_thread_and_spawns_nothing() {
        let _serial = serial();
        let before = scopes();
        let caller = thread::current().id();
        let got = map(1, &[1u32, 2, 3], |_, &x| {
            assert_eq!(thread::current().id(), caller);
            x + 1
        });
        assert_eq!(got, vec![2, 3, 4]);
        let got = map(4, &[7u32], |_, &x| {
            assert_eq!(thread::current().id(), caller);
            x
        });
        assert_eq!(got, vec![7]);
        assert_eq!(scopes(), before, "neither map fanned out");
    }

    #[test]
    fn an_item_panic_reaches_the_caller_and_the_next_map_fans_out() {
        let _serial = serial();
        let caught = catch_unwind(|| {
            map(4, &[1u32, 2, 3, 4], |_, &x| {
                if x == 3 {
                    panic!("item {x} failed");
                }
                x
            })
        });
        let payload = caught.expect_err("the item's panic must surface");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 3 failed"),
            "the caller sees the item's own payload"
        );
        // the flag was released: the next map fans out, uncontended
        let before = contended();
        assert_eq!(map(4, &[10u32, 20], |_, &x| x + 1), vec![11, 21]);
        assert_eq!(contended(), before);
    }

    #[test]
    fn overlapping_maps_are_both_correct_and_one_is_contended() {
        let _serial = serial();
        let before = contended();
        let barrier = Arc::new(Barrier::new(2));
        let holder = {
            let barrier = barrier.clone();
            thread::spawn(move || {
                map(2, &[0, 1], |i, &x: &i32| {
                    if i == 0 {
                        barrier.wait(); // 1: map A has its helper out
                        barrier.wait(); // 2: and keeps it until B is done
                    }
                    x + 1
                })
            })
        };
        barrier.wait(); // 1
        let got = map(4, &[1, 2, 3], |_, &x: &i32| x * 2);
        assert_eq!(got, vec![2, 4, 6], "a contended map must still be correct");
        assert_eq!(contended() - before, 1);
        barrier.wait(); // 2
        assert_eq!(holder.join().unwrap(), vec![1, 2]);
        assert_eq!(map(2, &[5, 6], |_, &x: &i32| x), vec![5, 6]);
        assert_eq!(contended() - before, 1, "the flag is free again");
    }

    #[test]
    fn helpers_are_capped_by_width_items_and_max_helpers() {
        assert_eq!(helpers(2, 1000), 1);
        assert_eq!(helpers(4, 1000), 3);
        assert_eq!(helpers(4, 2), 1);
        assert_eq!(helpers(100_000, 1000), MAX_HELPERS);
        // a huge width over two items starts one helper, not 64
        let _serial = serial();
        let names = Mutex::new(HashSet::new());
        map(100_000, &[1, 2], |_, _: &i32| {
            let name = thread::current().name().map(String::from);
            names.lock().unwrap().insert(name);
        });
        let caller = thread::current().name().map(String::from);
        let names = names.into_inner().unwrap();
        assert!(
            (names.iter()).all(|n| *n == caller || n.as_deref() == Some("kbt-par-0")),
            "only the caller and helper kbt-par-0 ran items: {names:?}"
        );
    }

    #[test]
    fn a_helper_that_fails_to_start_leaves_its_items_to_the_others() {
        let items: Vec<usize> = (0..50).collect();
        let caller = thread::current().id();
        let run = |_, &x: &usize| (x * 2, thread::current().id());
        let doubled =
            |got: &[(usize, ThreadId)]| (got.iter().map(|r| r.0)).eq(items.iter().map(|x| x * 2));
        let refuse = |_| Err(io::Error::other("no more threads"));
        // no helper starts: the caller runs every item
        let got = fan_out(3, &items, &run, refuse);
        assert!(doubled(&got));
        assert!(got.iter().all(|r| r.1 == caller));
        // helper 0 starts and helper 1 does not, so helper 2 is not tried
        let tried = AtomicUsize::new(0);
        let first_only = |k| {
            tried.fetch_add(1, Ordering::Relaxed);
            if k == 0 {
                Ok(Builder::new())
            } else {
                refuse(k)
            }
        };
        assert!(doubled(&fan_out(3, &items, &run, first_only)));
        assert_eq!(tried.into_inner(), 2);
    }
}
