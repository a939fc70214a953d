//! A persistent worker pool for the data-parallel hot paths.
//!
//! Every SGLA run performs thousands of short data-parallel regions
//! (Lanczos matvecs, reorthogonalization sweeps, KNN tiles, blocked
//! top-k scoring). Spawning OS threads per region via
//! `std::thread::scope` costs tens of microseconds *per spawn* — often
//! more than the region's arithmetic. This module keeps a fixed set of
//! parked workers alive for the process lifetime and hands them work
//! through a single condvar-guarded slot:
//!
//! * **lazily-initialized global pool** ([`WorkerPool::global`]) sized by
//!   [`crate::parallel::default_threads`] (≤ 16 per the paper's setup,
//!   overridable with the `SGLA_THREADS` environment variable), plus
//!   injectable private pools ([`WorkerPool::new`]) for tests and
//!   benchmarks;
//! * **contiguous row-range partitioning with atomic chunk stealing**
//!   ([`WorkerPool::for_each_chunk`]): participants repeatedly claim the
//!   next contiguous index range from an atomic cursor, so skewed CSR
//!   rows cannot stall a statically-partitioned worker. On an
//!   *oversubscribed* pool (more participants than hardware threads —
//!   e.g. `SGLA_THREADS=4` on a 1-CPU box) the pool switches to static
//!   contiguous assignment instead: time-shared participants cannot
//!   usefully steal, and the cursor traffic measurably taxed
//!   bandwidth-bound SpMV (the n ≥ 20k plain-SpMV regression tracked
//!   in `BENCH_kernels.json`);
//! * **panic safety**: a panicking task is caught on the worker, carried
//!   back, and re-raised on the submitting thread; the workers stay
//!   parked and healthy for subsequent submits;
//! * **reentrancy**: a task that (transitively) re-enters the pool runs
//!   its nested region inline instead of deadlocking on the submit lock.
//!
//! # Safety
//!
//! This is the one module in the crate that uses `unsafe`. Both uses are
//! narrow and carry the same invariant — a borrow handed to the workers
//! never outlives the submitting call:
//!
//! 1. [`WorkerPool::broadcast`] erases the lifetime of a `&dyn Fn` so it
//!    can sit in the shared job slot. The submitter blocks until every
//!    worker has finished the job and the slot is cleared, so no worker
//!    can observe the pointer after `broadcast` returns.
//! 2. [`WorkerPool::for_each_slice_chunk`] reconstructs disjoint
//!    `&mut [T]` sub-slices from a raw base pointer. Disjointness is
//!    guaranteed by the monotone atomic cursor: each index range is
//!    claimed exactly once.

use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lifetime-erased pointer to the active task. Only ever dereferenced
/// while the submitting `broadcast` call is blocked waiting for it.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointee is `Sync` (shared calls are fine) and the pointer
// is only dereferenced between publication and the completion handshake,
// during which the submitter keeps the underlying closure alive.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

struct State {
    /// The active job, `Some` only between publication and the last
    /// worker's completion signal.
    job: Option<Job>,
    /// Bumped once per broadcast; workers use it to run each job once.
    epoch: u64,
    /// Workers still running the active job.
    remaining: usize,
    /// First panic payload raised by a worker during the active job.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop`; workers exit their loop when they observe it.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The submitter parks here until `remaining` reaches zero.
    done: Condvar,
    /// Lock-free mirror of `State::epoch`, published before `work` is
    /// notified. Workers spin on it briefly before parking, so
    /// back-to-back dispatches (a Lanczos solve issues thousands) skip
    /// the futex wake latency entirely.
    epoch_hint: AtomicU64,
    /// Lock-free mirror of `State::remaining` for the submitter's
    /// symmetric spin on job completion.
    remaining_hint: AtomicUsize,
    /// Spin iterations before parking. Nonzero only when every pool
    /// participant can own a hardware thread — spinning on an
    /// oversubscribed CPU wastes whole scheduler quanta and *adds*
    /// latency, so oversubscribed pools go straight to the condvar.
    spin_limit: u32,
    /// Observability counters (relaxed atomics, touched only on paths
    /// that already pay a lock or a futex — never in task bodies).
    counters: Counters,
}

/// Relaxed-atomic observability counters for one pool. All monotone;
/// read out as gauges by [`WorkerPool::stats`].
#[derive(Default)]
struct Counters {
    /// Broadcasts dispatched to parked workers.
    jobs: AtomicU64,
    /// Broadcasts that ran inline (width-1 pool or nested submit).
    inline_jobs: AtomicU64,
    /// Total nanoseconds submitters spent in the completion handshake
    /// (spin + condvar wait) after finishing their own share — the
    /// pool's dispatch/synchronization overhead, excluding task time.
    dispatch_wait_ns: AtomicU64,
    /// Times a worker gave up spinning and parked on the condvar.
    parks: AtomicU64,
    /// Times a parked worker returned from a condvar wait.
    unparks: AtomicU64,
}

impl Shared {
    /// The state mutex is never held across user code, so poisoning can
    /// only arrive through a panic in this module's own bookkeeping;
    /// recover the guard rather than compounding the failure.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

thread_local! {
    /// True while the current thread is executing a pool task (worker
    /// threads permanently; the submitter during its own participation).
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Point-in-time copy of a pool's observability counters, suitable for
/// rendering as metrics gauges. All counts are cumulative since pool
/// creation; see [`WorkerPool::stats`].
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Logical parallel width (participants per broadcast).
    pub threads: usize,
    /// Scheduling strategy label (see [`WorkerPool::kind`]).
    pub kind: &'static str,
    /// Broadcasts dispatched to parked workers.
    pub jobs: u64,
    /// Broadcasts that ran inline (width-1 pool or nested submit).
    pub inline_jobs: u64,
    /// Total nanoseconds submitters spent waiting for workers to finish
    /// after completing their own share (dispatch/sync overhead).
    pub dispatch_wait_ns: u64,
    /// Times a worker parked on the condvar after spinning out.
    pub parks: u64,
    /// Times a parked worker returned from a condvar wait.
    pub unparks: u64,
}

/// A persistent pool of parked worker threads. See the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes broadcasts: one job occupies the slot at a time.
    submit: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    /// Logical width: spawned workers + the participating submitter.
    threads: usize,
    /// More participants than hardware threads. Chunk stealing is
    /// counterproductive here: participants time-share cores, so
    /// "idle worker steals from busy worker" never happens — the
    /// atomic cursor traffic is pure overhead on bandwidth-bound
    /// kernels (measured 10–14% p50 on plain SpMV at n ≥ 20k with 4
    /// threads on 1 CPU). Oversubscribed pools use static contiguous
    /// partitioning instead.
    oversubscribed: bool,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a private pool of logical width `threads` (spawns
    /// `threads - 1` OS workers; the submitting thread is the remaining
    /// participant). `threads <= 1` spawns nothing and runs everything
    /// inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch_hint: AtomicU64::new(0),
            remaining_hint: AtomicUsize::new(0),
            spin_limit: if threads <= hw { 4096 } else { 0 },
            counters: Counters::default(),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for i in 0..threads - 1 {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sgla-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i + 1))
                    .expect("spawn pool worker"),
            );
        }
        WorkerPool {
            shared,
            submit: Mutex::new(()),
            handles,
            threads,
            oversubscribed: threads > hw,
        }
    }

    /// The process-wide pool, created on first use and sized by
    /// [`crate::parallel::default_threads`] (honours `SGLA_THREADS`).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(crate::parallel::default_threads()))
    }

    /// Logical parallel width (participants per broadcast).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Short label for the pool's scheduling strategy: `"inline"`
    /// (width 1, no workers), `"static"` (oversubscribed, static
    /// contiguous partitioning), or `"steal"` (atomic chunk stealing).
    pub fn kind(&self) -> &'static str {
        if self.handles.is_empty() {
            "inline"
        } else if self.oversubscribed {
            "static"
        } else {
            "steal"
        }
    }

    /// Snapshot of the pool's observability counters (cumulative since
    /// pool creation).
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            threads: self.threads,
            kind: self.kind(),
            jobs: c.jobs.load(Ordering::Relaxed),
            inline_jobs: c.inline_jobs.load(Ordering::Relaxed),
            dispatch_wait_ns: c.dispatch_wait_ns.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            unparks: c.unparks.load(Ordering::Relaxed),
        }
    }

    /// Runs `task(participant)` once on every participant (the submitter
    /// is participant 0, workers are `1..threads`) and returns when all
    /// are done. A panic in any participant is re-raised here after the
    /// region completes; the pool stays usable.
    ///
    /// Called from inside a pool task (nested parallelism), or on a pool
    /// of width 1, the task runs inline on the current thread only.
    pub fn broadcast(&self, task: &(dyn Fn(usize) + Sync)) {
        if self.handles.is_empty() || IN_POOL.with(|f| f.get()) {
            self.shared
                .counters
                .inline_jobs
                .fetch_add(1, Ordering::Relaxed);
            task(0);
            return;
        }
        let guard = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the erased borrow is only reachable through the job
        // slot, which this call clears (via the last worker) before
        // returning; `task` therefore outlives every dereference.
        #[allow(unsafe_code)]
        let job = Job {
            task: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(task as *const _)
            },
        };
        {
            let mut st = self.shared.lock();
            st.job = Some(job);
            st.epoch = st.epoch.wrapping_add(1);
            st.remaining = self.handles.len();
            st.panic = None;
            self.shared
                .remaining_hint
                .store(st.remaining, Ordering::Release);
            self.shared.epoch_hint.store(st.epoch, Ordering::Release);
            self.shared.work.notify_all();
        }
        // Participate instead of idling while the workers run.
        IN_POOL.with(|f| f.set(true));
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(0)));
        IN_POOL.with(|f| f.set(false));
        // Workers usually finish within the tail of one chunk; spin
        // briefly before sleeping on the condvar so the common case
        // skips a futex round-trip (skipped on oversubscribed CPUs).
        let wait_started = Instant::now();
        let mut spins = 0u32;
        while spins < self.shared.spin_limit
            && self.shared.remaining_hint.load(Ordering::Acquire) > 0
        {
            std::hint::spin_loop();
            spins += 1;
        }
        let worker_panic = {
            let mut st = self.shared.lock();
            while st.remaining > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.panic.take()
        };
        self.shared
            .counters
            .dispatch_wait_ns
            .fetch_add(wait_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.shared.counters.jobs.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        if let Err(payload) = own {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Data-parallel loop over `0..total` in contiguous chunks claimed
    /// from an atomic cursor (chunk stealing). At most `width`
    /// participants execute `f` concurrently (callers pass their
    /// `threads` knob; excess workers wake and immediately go back to
    /// sleep); `grain` is the minimum chunk length — raise it when
    /// per-index work is tiny so stealing overhead cannot dominate.
    pub fn for_each_chunk<F>(&self, total: usize, width: usize, grain: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if total == 0 {
            return;
        }
        if width <= 1 || self.handles.is_empty() || IN_POOL.with(|c| c.get()) {
            f(0..total);
            return;
        }
        let parts = width.min(self.threads);
        if self.oversubscribed {
            // Static contiguous assignment — one chunk per
            // participant. With the pool oversubscribed onto fewer
            // hardware threads, stealing cannot rebalance anything
            // (every participant is time-sliced on the same cores),
            // while its shared-cursor traffic taxes bandwidth-bound
            // kernels. `grain` still bounds how small a chunk may get.
            let chunk = total.div_ceil(parts).max(grain.max(1));
            self.broadcast(&|participant| {
                if participant >= parts {
                    return;
                }
                let start = participant * chunk;
                if start < total {
                    f(start..(start + chunk).min(total));
                }
            });
            return;
        }
        // Aim for ~4 chunks per participant so stealing can rebalance
        // skew without excessive cursor traffic.
        let chunk = total.div_ceil(parts * 4).max(grain.max(1));
        let cursor = AtomicUsize::new(0);
        self.broadcast(&|participant| {
            // Honour the caller's concurrency cap: participant 0 is the
            // submitter (always works), higher indices sit this one out.
            if participant >= parts {
                return;
            }
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= total {
                    break;
                }
                f(start..(start + chunk).min(total));
            }
        });
    }

    /// [`Self::for_each_chunk`] over a mutable slice: `f(start, chunk)`
    /// receives disjoint contiguous sub-slices covering `data` exactly
    /// once, with `start` the chunk's offset in `data`.
    pub fn for_each_slice_chunk<T, F>(&self, data: &mut [T], width: usize, grain: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let total = data.len();
        if total == 0 {
            return;
        }
        if width <= 1 || self.handles.is_empty() || IN_POOL.with(|c| c.get()) {
            f(0, data);
            return;
        }
        let base = SlicePtr(data.as_mut_ptr());
        self.for_each_chunk(total, width, grain, |range| {
            // SAFETY: ranges from the atomic cursor are pairwise
            // disjoint and within `0..total`, and `data`'s mutable
            // borrow is held for the whole (blocking) call, so each
            // reconstructed sub-slice is uniquely borrowed.
            #[allow(unsafe_code)]
            let chunk = unsafe { base.subslice(range.start, range.end - range.start) };
            f(range.start, chunk);
        });
    }
}

/// Raw base pointer of the slice being partitioned; shared read-only
/// across workers, each of which carves a disjoint `&mut` range from it.
/// (A struct rather than a bare pointer so closures capture the `Sync`
/// wrapper, not the non-`Sync` field.)
struct SlicePtr<T>(*mut T);

impl<T> SlicePtr<T> {
    /// # Safety
    /// `start..start + len` must be in bounds of the original slice and
    /// disjoint from every other `subslice` call on this base pointer
    /// while the returned borrow lives.
    // The `&mut`-from-`&self` shape is the point: `self` is the shared
    // base-pointer token, and uniqueness of each returned borrow is
    // guaranteed by the disjoint-range contract above, not by `&mut self`.
    #[allow(unsafe_code, clippy::mut_from_ref)]
    unsafe fn subslice(&self, start: usize, len: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(start), len)
    }
}

// SAFETY: the pointer is only used to manufacture disjoint sub-slices
// (see `for_each_slice_chunk`); `T: Send` is required at the API edge.
#[allow(unsafe_code)]
unsafe impl<T> Sync for SlicePtr<T> {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, participant: usize) {
    IN_POOL.with(|f| f.set(true));
    let mut last_epoch = 0u64;
    loop {
        // Spin briefly on the lock-free epoch mirror before parking:
        // hot submit loops (one dispatch per matvec) then hand work to
        // an already-running worker instead of paying a futex wake
        // (skipped on oversubscribed CPUs, where spinning steals the
        // quantum the submitter needs).
        let mut spins = 0u32;
        while spins < shared.spin_limit && shared.epoch_hint.load(Ordering::Acquire) == last_epoch {
            std::hint::spin_loop();
            spins += 1;
        }
        let (job, epoch) = {
            let mut st = shared.lock();
            let mut parked = false;
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    if let Some(job) = st.job {
                        break (job, st.epoch);
                    }
                }
                // One park per idle period, however many spurious wakes
                // the condvar delivers; every wait return is an unpark.
                if !parked {
                    parked = true;
                    shared.counters.parks.fetch_add(1, Ordering::Relaxed);
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
                shared.counters.unparks.fetch_add(1, Ordering::Relaxed);
            }
        };
        last_epoch = epoch;
        // SAFETY: `job.task` stays valid until this worker's decrement
        // below — the submitter cannot return (and the borrow cannot
        // end) while `remaining > 0`.
        #[allow(unsafe_code)]
        let task = unsafe { &*job.task };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(participant)));
        let mut st = shared.lock();
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.remaining -= 1;
        shared.remaining_hint.store(st.remaining, Ordering::Release);
        if st.remaining == 0 {
            st.job = None;
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_participant() {
        let pool = WorkerPool::new(4);
        let count = AtomicUsize::new(0);
        pool.broadcast(&|_p| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn width_one_runs_inline() {
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.broadcast(&|p| {
            assert_eq!(p, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn for_each_chunk_covers_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1013).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_chunk(hits.len(), 8, 1, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// A pool wider than the hardware must take the static-assignment
    /// path; coverage and disjointness must hold there too (both
    /// `for_each_chunk` and the unsafe slice variant lean on it).
    #[test]
    fn oversubscribed_static_partition_covers_exactly_once() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pool = WorkerPool::new(hw * 2 + 1);
        assert!(pool.oversubscribed);
        for total in [1usize, 7, 97, 1013] {
            let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each_chunk(total, pool.threads(), 1, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "total {total}: some index not covered exactly once"
            );
        }
        // Slice variant over the static path.
        let mut data = vec![0usize; 517];
        pool.for_each_slice_chunk(&mut data, pool.threads(), 1, |start, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = start + off + 1;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i + 1);
        }
        // A raised grain must not lose coverage either.
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_chunk(100, pool.threads(), 64, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn slice_chunks_disjoint_and_complete() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0usize; 517];
        pool.for_each_slice_chunk(&mut data, 4, 1, |start, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = start + off + 1;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i + 1);
        }
    }

    #[test]
    fn width_caps_active_participants() {
        let pool = WorkerPool::new(4);
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.for_each_chunk(64, 2, 1, |_range| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            active.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "width=2 must admit at most 2 concurrent participants"
        );
    }

    #[test]
    fn panic_is_contained_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_chunk(100, 4, 1, |range| {
                if range.contains(&37) {
                    panic!("boom in chunk");
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the submitter");
        // Subsequent submits must work: the pool is not poisoned.
        let count = AtomicUsize::new(0);
        pool.for_each_chunk(64, 4, 1, |range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_submit_runs_inline() {
        let pool = WorkerPool::global();
        let count = AtomicUsize::new(0);
        pool.for_each_chunk(8, 8, 1, |outer| {
            // Re-entering the pool from a task must not deadlock.
            WorkerPool::global().for_each_chunk(4, 8, 1, |inner| {
                count.fetch_add(outer.len() * inner.len(), Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn concurrent_submitters_serialize_safely() {
        let pool = Arc::new(WorkerPool::new(3));
        let total = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    pool.for_each_chunk(97, 3, 1, |range| {
                        total.fetch_add(range.len(), Ordering::Relaxed);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 97);
    }

    #[test]
    fn stats_count_jobs_and_parks() {
        let pool = WorkerPool::new(3);
        let before = pool.stats();
        assert_eq!(before.threads, 3);
        assert_eq!(before.kind, pool.kind());
        for _ in 0..10 {
            pool.broadcast(&|_p| {});
        }
        // Let the workers spin out and park, then dispatch once more.
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.broadcast(&|_p| {});
        let after = pool.stats();
        assert_eq!(after.jobs, before.jobs + 11);
        assert!(after.parks >= before.parks);
        assert!(after.unparks >= after.parks.saturating_sub(2));
        // Width-1 pools only ever run inline.
        let inline_pool = WorkerPool::new(1);
        inline_pool.broadcast(&|_p| {});
        let s = inline_pool.stats();
        assert_eq!(s.kind, "inline");
        assert_eq!(s.jobs, 0);
        assert_eq!(s.inline_jobs, 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(5);
        let count = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // must not hang
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }
}
