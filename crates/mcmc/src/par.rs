//! Persistent scoped worker pool for data-parallel shard evaluation.
//!
//! Each chain thread that samples a sharded model keeps one
//! [`WorkerPool`] alive for its whole run (thread-local, see
//! [`with_pool`]) instead of spawning OS threads per gradient
//! evaluation — NUTS calls the gradient thousands of times per chain,
//! so per-call spawn cost would swamp the win from parallelism.
//!
//! The pool is deliberately minimal: one job at a time, dispatched to
//! `threads - 1` workers plus the calling thread itself. Work items are
//! claimed by ticket (`next` index under a mutex), which keeps the
//! *assignment* of shards to threads dynamic while the *combination* of
//! results stays with the caller in fixed shard order — the pool never
//! reduces anything, so determinism is decided entirely by the caller.
//!
//! # Soundness
//!
//! [`WorkerPool::run`] erases the job closure's lifetime to hand it to
//! the long-lived workers (a `&dyn Fn` cannot be sent to a thread that
//! outlives the borrow). This is sound because `run` does not return
//! until every item has completed: the borrow is live for the entire
//! window in which any worker can dereference the pointer, and the job
//! slot is cleared before `run` returns. Workers that wake late see a
//! bumped epoch or an exhausted ticket counter and go back to sleep
//! without touching the pointer.

use crate::lock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

/// Type-erased pointer to the current job closure. Only dereferenced by
/// a worker holding a valid ticket for the matching epoch, while the
/// caller is blocked inside [`WorkerPool::run`].
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, and the pointer is only dereferenced
// while the closure it points to is kept alive by the blocked caller.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per `run` call so stale wake-ups can tell the current
    /// job from the one they were parked on.
    epoch: u64,
    /// Next unclaimed item index (ticket dispenser).
    next: usize,
    n_items: usize,
    done: usize,
    /// First panic message observed among workers for this job, if any.
    panic: Option<String>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A persistent pool of `threads - 1` worker threads (the caller is the
/// remaining participant). `threads == 1` builds a pool with no workers
/// that simply runs jobs inline.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Spawns a pool that evaluates jobs on `threads` OS threads total
    /// (including the caller of [`WorkerPool::run`]).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                next: 0,
                n_items: 0,
                done: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("bayes-shard-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn shard worker thread")
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// Total participating threads (workers + caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..n_items` across the pool, blocking
    /// until all items are done. Item *assignment* to threads is
    /// dynamic; completion order is unspecified — callers needing
    /// determinism must write results into per-item slots and combine
    /// them in index order afterwards.
    ///
    /// # Panics
    ///
    /// If any item panics, the panic message is captured, the remaining
    /// items still complete (workers keep draining tickets), and `run`
    /// re-panics on the calling thread with the first captured message.
    pub fn run(&self, n_items: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_items == 0 {
            return;
        }
        // SAFETY: lifetime erasure only — see the module-level soundness
        // note. `run` blocks until `done == n_items`, keeping `f` alive
        // for every dereference, and clears the job slot before return.
        let f_static = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let job = Job(f_static);
        let epoch = {
            let mut st = lock(&self.shared.state);
            st.job = Some(job);
            st.epoch += 1;
            st.next = 0;
            st.n_items = n_items;
            st.done = 0;
            st.panic = None;
            let epoch = st.epoch;
            self.shared.work_cv.notify_all();
            epoch
        };

        // The caller participates: with a single-thread pool this is the
        // entire execution path.
        participate(&self.shared, job, epoch);

        let panic_msg = {
            let mut st = lock(&self.shared.state);
            while st.done < st.n_items {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(msg) = panic_msg {
            panic!("worker shard panicked: {msg}");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, epoch) = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job {
                    if st.epoch != seen_epoch && st.next < st.n_items {
                        break (job, st.epoch);
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        participate(shared, job, epoch);
        seen_epoch = epoch;
    }
}

/// Claims tickets for job `epoch` until none remain, running the closure
/// for each. Shared by workers and the calling thread.
fn participate(shared: &Shared, job: Job, epoch: u64) {
    loop {
        let idx = {
            let mut st = lock(&shared.state);
            if st.epoch != epoch || st.next >= st.n_items {
                return;
            }
            let idx = st.next;
            st.next += 1;
            idx
        };
        // SAFETY: we hold a ticket for the current epoch, so the caller
        // of `run` is still blocked and the closure is alive.
        let f = unsafe { &*job.0 };
        let result = catch_unwind(AssertUnwindSafe(|| f(idx)));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(crate::chain::panic_message(payload.as_ref()).to_string());
            }
        }
        st.done += 1;
        if st.done == st.n_items {
            shared.done_cv.notify_all();
        }
    }
}

thread_local! {
    static POOL: std::cell::RefCell<Option<WorkerPool>> = const { std::cell::RefCell::new(None) };
}

/// Runs `f` with this OS thread's cached [`WorkerPool`], (re)building it
/// if the requested size changed. Each chain thread therefore owns an
/// independent pool, so `chains × inner_threads` OS threads are active
/// at full load — the split the scheduler reasons about.
///
/// Not reentrant: `f` must not itself call `with_pool` on the same
/// thread (the pool is single-job).
pub fn with_pool<R>(threads: usize, f: impl FnOnce(&WorkerPool) -> R) -> R {
    POOL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let rebuild = match slot.as_ref() {
            Some(pool) => pool.threads() != threads,
            None => true,
        };
        if rebuild {
            *slot = Some(WorkerPool::new(threads));
        }
        f(slot.as_ref().expect("pool just installed"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(5, &|_i| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn all_items_run_exactly_once() {
        let pool = WorkerPool::new(4);
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            pool.run(counts.len(), &|i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            });
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 10, "item {i} miscounted");
        }
    }

    #[test]
    fn results_land_in_per_item_slots() {
        let pool = WorkerPool::new(3);
        let slots: Vec<Mutex<Option<usize>>> = (0..17).map(|_| Mutex::new(None)).collect();
        pool.run(slots.len(), &|i| {
            *lock(&slots[i]) = Some(i * i);
        });
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(*lock(s), Some(i * i));
        }
    }

    #[test]
    fn zero_items_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("must not be called"));
    }

    #[test]
    fn item_panic_is_resurfaced_with_message() {
        let pool = WorkerPool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("shard 3 exploded");
                }
            });
        }))
        .expect_err("run must re-panic");
        let msg = crate::chain::panic_message(err.as_ref());
        assert!(msg.contains("shard 3 exploded"), "got: {msg}");
        // The pool must still be usable after a panicking job.
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn with_pool_caches_per_thread_and_rebuilds_on_resize() {
        let a = with_pool(2, |p| p.threads());
        let b = with_pool(2, |p| p.threads());
        let c = with_pool(4, |p| p.threads());
        assert_eq!((a, b, c), (2, 2, 4));
    }
}
