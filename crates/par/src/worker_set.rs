//! A bounded set of long-lived worker threads with admission control.
//!
//! [`ThreadPool::map`](crate::ThreadPool::map) serves *ordered* fan-outs:
//! the caller blocks until every item is done, which is exactly right for a
//! fixpoint round and exactly wrong for a server dispatching independent,
//! long-lived sessions.  [`WorkerSet`] is the complementary shape: a fixed number of
//! named worker threads pulling `'static` jobs from a bounded queue, with
//! **admission control instead of unbounded growth** — when every worker is
//! busy and the backlog allowance is exhausted, [`WorkerSet::try_submit`]
//! refuses the job and the caller decides what rejection means (the network
//! front answers `ERR unavailable` and closes the connection).
//!
//! Contracts:
//!
//! * **Bounded concurrency.**  At most `workers` jobs run at once and at
//!   most `queue_cap` wait; a submission beyond `workers + queue_cap`
//!   in-flight jobs is refused, never silently queued.
//! * **Panic containment.**  A panicking job never takes its worker thread
//!   down; the panic is swallowed (the payload dropped) and counted in
//!   [`WorkerSet::job_panics`] so the degradation stays observable.
//! * **Graceful drop.**  Dropping the set stops the workers after their
//!   current job; queued-but-unstarted jobs are dropped (their destructors
//!   run, so e.g. a queued connection is closed, not leaked).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct SetState {
    queue: VecDeque<Job>,
    /// Jobs currently executing on a worker.
    busy: usize,
    shutdown: bool,
}

struct SetShared {
    state: Mutex<SetState>,
    cv: Condvar,
    /// Jobs that panicked (contained, worker survived).
    panics: AtomicUsize,
}

impl SetShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, SetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded, long-lived worker set (see module docs).
pub struct WorkerSet {
    shared: Arc<SetShared>,
    workers: Vec<JoinHandle<()>>,
    queue_cap: usize,
}

impl WorkerSet {
    /// A set of `workers` threads (named `<name>-<i>`) admitting up to
    /// `queue_cap` queued jobs beyond the ones running.  `workers` is
    /// clamped to at least 1.
    pub fn new(name: &str, workers: usize, queue_cap: usize) -> Self {
        let shared = Arc::new(SetShared {
            state: Mutex::new(SetState {
                queue: VecDeque::new(),
                busy: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            panics: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawning a worker-set thread")
            })
            .collect();
        WorkerSet {
            shared,
            workers,
            queue_cap,
        }
    }

    /// Submits a job unless the set is at capacity (every worker busy and
    /// the queue allowance exhausted) or shutting down; returns whether the
    /// job was admitted.  Admitted jobs run FIFO.
    pub fn try_submit<F>(&self, job: F) -> bool
    where
        F: FnOnce() + Send + 'static,
    {
        let mut st = self.shared.lock();
        if st.shutdown || st.busy + st.queue.len() >= self.workers.len() + self.queue_cap {
            crate::metrics::metrics().workerset_rejected_total.inc();
            return false;
        }
        crate::metrics::metrics().workerset_jobs_total.inc();
        st.queue.push_back(Box::new(job));
        // notify_all, not notify_one: the condvar is shared with
        // `wait_idle`, and a single wakeup could land on that waiter (which
        // just goes back to sleep) instead of an idle worker, stalling the
        // admitted job until some other notification arrives
        self.shared.cv.notify_all();
        true
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently executing.
    pub fn busy(&self) -> usize {
        self.shared.lock().busy
    }

    /// Jobs admitted but not yet started.
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Jobs that panicked (the workers survived; see module docs).
    pub fn job_panics(&self) -> usize {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Blocks until no job is running or queued (a test/shutdown helper;
    /// racy as a steady-state predicate, exact once submissions stopped).
    pub fn wait_idle(&self) {
        let mut st = self.shared.lock();
        while st.busy > 0 || !st.queue.is_empty() {
            st = self
                .shared
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        let dropped: Vec<Job> = {
            let mut st = self.shared.lock();
            st.shutdown = true;
            st.queue.drain(..).collect()
        };
        drop(dropped); // run queued jobs' destructors outside the lock
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(shared: &SetShared) {
    let mut st = shared.lock();
    loop {
        if st.shutdown {
            return;
        }
        if let Some(job) = st.queue.pop_front() {
            st.busy += 1;
            drop(st);
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                shared.panics.fetch_add(1, Ordering::Relaxed);
            }
            st = shared.lock();
            st.busy -= 1;
            shared.cv.notify_all();
            continue;
        }
        st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_the_set_drains() {
        let set = WorkerSet::new("ws-test", 3, 8);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let count = count.clone();
            assert!(set.try_submit(move || {
                count.fetch_add(1, Ordering::Relaxed);
            }));
        }
        set.wait_idle();
        assert_eq!(count.load(Ordering::Relaxed), 8);
        assert_eq!(set.busy(), 0);
        assert_eq!(set.queued(), 0);
    }

    #[test]
    fn submissions_beyond_capacity_are_refused() {
        // 2 workers, no queue allowance: with both workers held on a
        // barrier, a third submission must be refused.
        let set = WorkerSet::new("ws-cap", 2, 0);
        let gate = Arc::new(Barrier::new(3));
        for _ in 0..2 {
            let gate = gate.clone();
            assert!(set.try_submit(move || {
                gate.wait();
            }));
        }
        // wait until both jobs actually occupy their workers
        while set.busy() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!set.try_submit(|| {}), "third job must be rejected");
        gate.wait();
        set.wait_idle();
        assert!(
            set.try_submit(|| {}),
            "capacity frees up after the jobs end"
        );
        set.wait_idle();
    }

    #[test]
    fn queue_allowance_admits_waiting_jobs() {
        let set = WorkerSet::new("ws-queue", 1, 2);
        let gate = Arc::new(Barrier::new(2));
        {
            let gate = gate.clone();
            assert!(set.try_submit(move || {
                gate.wait();
            }));
        }
        while set.busy() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(set.try_submit(|| {}), "first queued job fits the allowance");
        assert!(
            set.try_submit(|| {}),
            "second queued job fits the allowance"
        );
        assert!(!set.try_submit(|| {}), "beyond busy + queue_cap is refused");
        gate.wait();
        set.wait_idle();
    }

    #[test]
    fn panicking_jobs_are_contained_and_counted() {
        let set = WorkerSet::new("ws-panic", 1, 4);
        assert!(set.try_submit(|| panic!("job failed")));
        set.wait_idle();
        assert_eq!(set.job_panics(), 1);
        // the worker survived and keeps serving
        let ran = Arc::new(AtomicUsize::new(0));
        let flag = ran.clone();
        assert!(set.try_submit(move || {
            flag.fetch_add(1, Ordering::Relaxed);
        }));
        set.wait_idle();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_runs_queued_destructors_and_joins() {
        struct Marker(Arc<AtomicUsize>);
        impl Drop for Marker {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(2));
        let set = WorkerSet::new("ws-drop", 1, 8);
        {
            let gate = gate.clone();
            assert!(set.try_submit(move || {
                gate.wait();
            }));
        }
        while set.busy() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // queued behind the running job; must be dropped, not run
        let marker = Marker(dropped.clone());
        assert!(set.try_submit(move || {
            let _hold = &marker;
            unreachable!("queued job must be dropped at shutdown, not run");
        }));
        // Release the in-flight job only *after* drop has begun: Drop
        // drains the queue (dropping the marker) before joining, so the
        // worker can never reach the queued job.
        let releaser = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                gate.wait();
            })
        };
        drop(set);
        releaser.join().unwrap();
        assert_eq!(dropped.load(Ordering::Relaxed), 1);
    }
}
