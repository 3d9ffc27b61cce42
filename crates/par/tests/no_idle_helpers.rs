//! No helper thread outlives the `map` that spawned it.
//!
//! Counts this process's threads (`/proc/self/task`) before any `map`,
//! after a width-4 `map` over a few hundred items, and after a width-4
//! `map` whose item panics; all three counts must be equal.  A pool that
//! parked its helpers between calls would leave them counted.  This is a
//! `harness = false` binary because libtest's own threads would blur the
//! count.

#[cfg(target_os = "linux")]
fn main() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    fn threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("reading /proc/self/task")
            .count()
    }

    /// The thread count once it has settled back to `want`, or whatever it
    /// reads after a second.  `join` returns when a helper has finished,
    /// which can be a moment before the kernel drops its task entry.
    fn settled(want: usize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            let n = threads();
            if n == want || Instant::now() > deadline {
                return n;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    kbt_par::metrics();
    let before = threads();
    let scopes = || kbt_par::metrics().scopes_total.get();

    let items: Vec<u64> = (0..300).collect();
    let got = kbt_par::map(4, &items, |_, &x| {
        std::thread::sleep(Duration::from_micros(20));
        x * x
    });
    assert_eq!(got, items.iter().map(|x| x * x).collect::<Vec<_>>());
    assert_eq!(scopes(), 1, "the map fanned out");
    let after_map = settled(before);

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = catch_unwind(AssertUnwindSafe(|| {
        kbt_par::map(4, &items, |i, _| {
            if i == 150 {
                panic!("item {i} failed");
            }
            std::thread::sleep(Duration::from_micros(20));
        })
    }));
    std::panic::set_hook(hook);
    assert!(caught.is_err(), "the item's panic reaches the caller");
    assert_eq!(scopes(), 2, "the panicking map fanned out too");
    let after_panic = settled(before);

    println!(
        "threads: {before} before, {after_map} after a map, {after_panic} after a panicking map"
    );
    assert_eq!(after_map, before, "a helper outlived its map");
    assert_eq!(after_panic, before, "a helper outlived its panicking map");
}

#[cfg(not(target_os = "linux"))]
fn main() {}
