//! The persistent work-chunking thread pool.
//!
//! Workers are spawned once, when the pool is built, and park on a
//! condition variable between jobs — a job submission is a lock, a
//! generation bump and a `notify_all`, never an OS thread spawn. A job is
//! a type-erased `Fn(usize)` over a fixed number of chunks; every
//! participating thread (the submitting caller included) claims chunk
//! indices from a shared atomic counter until the job is drained, so load
//! balances automatically without any per-chunk allocation.
//!
//! # Determinism
//!
//! The pool never decides *what* is computed, only *where*: chunk
//! boundaries are fixed by the caller before submission, each chunk runs
//! exactly once, and reductions (see
//! [`ParallelContext::par_map_reduce`](crate::ParallelContext::par_map_reduce))
//! merge chunk results in chunk-index order. Results are therefore
//! bit-identical for every worker count, including zero.
//!
//! # Re-entrancy
//!
//! A task that itself calls into the pool (e.g. a per-kernel fold whose
//! body runs an FFT whose row pass is also parallel) would deadlock a
//! naive pool. Here every thread executing a pool task sets a
//! thread-local flag, and [`ThreadPool::execute`] runs inline — serially,
//! on the calling thread — whenever the flag is set. Outer parallelism
//! wins; inner levels degrade to the exact same serial arithmetic.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-job observability counters, allocated only when tracing is
/// enabled at submission. Purely observational: lanes update them with
/// relaxed atomics after claiming chunks, and the submitting caller
/// folds them into gauges once the job drains.
#[derive(Default)]
struct JobStats {
    /// Lanes (caller + seated workers) that claimed at least one chunk.
    participants: AtomicUsize,
    /// Largest number of chunks any single lane claimed.
    max_claimed: AtomicU64,
}

thread_local! {
    /// Set while the current thread executes a pool task; makes nested
    /// `execute` calls run inline instead of deadlocking on the pool.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the re-entrancy flag set, restoring it afterwards.
fn with_task_flag<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL_TASK.with(|flag| {
        let prev = flag.replace(true);
        let r = f();
        flag.set(prev);
        r
    })
}

/// Lifetime-erased pointer to the job closure. The submitting caller
/// blocks inside [`ThreadPool::execute`] until every chunk has finished,
/// so the pointee outlives every dereference.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and `execute` keeps it alive until the job drains, so sending the
// pointer to worker threads is sound.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One submitted job: a closure over `0..chunks` plus its progress state.
#[derive(Clone)]
struct Job {
    task: TaskPtr,
    /// Next chunk index to claim.
    next: Arc<AtomicUsize>,
    /// Total number of chunks.
    chunks: usize,
    /// Worker seats left (the caller occupies its own, uncounted seat).
    seats: Arc<AtomicUsize>,
    /// Chunks not yet finished executing.
    remaining: Arc<AtomicUsize>,
    /// First panic payload raised by any chunk, re-thrown by the caller.
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    /// Trace scope of the submitting caller at dispatch time — span
    /// path plus any scoped sink — so worker threads report into the
    /// caller's scope (`None` when tracing is disabled and no scope is
    /// active).
    trace_scope: Option<lsopc_trace::TaskScope>,
    /// Observability counters; `None` when tracing was disabled at
    /// submission, so the hot path pays nothing extra.
    stats: Option<Arc<JobStats>>,
}

impl Job {
    /// Claims and runs chunks until the job is drained. Returns once no
    /// unclaimed chunk remains (other threads may still be finishing
    /// theirs).
    fn run_chunks(&self, shared: &Shared) {
        let mut claimed = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                break;
            }
            claimed += 1;
            // Update stats *before* this chunk's `remaining` decrement:
            // the submitting caller reads them as soon as `remaining`
            // hits 0, and by then every claimed chunk has already
            // folded its lane's running total in.
            if let Some(stats) = &self.stats {
                if claimed == 1 {
                    stats.participants.fetch_add(1, Ordering::Relaxed);
                }
                stats.max_claimed.fetch_max(claimed, Ordering::Relaxed);
            }
            // SAFETY: `remaining > 0` until this chunk's call returns, and
            // the submitting caller blocks until `remaining == 0`, so the
            // erased closure is alive for the whole call.
            let task = unsafe { &*self.task.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last chunk: wake the submitting caller. Taking the state
                // lock orders the notify after the caller's re-check.
                let _guard = shared.state.lock();
                shared.job_done.notify_all();
            }
        }
        if claimed > 0 {
            lsopc_trace::count("pool.chunks", claimed);
        }
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_ready: Condvar,
    /// The submitting caller parks here while chunks finish.
    job_done: Condvar,
    /// OS threads ever spawned by this pool (monotonic; pinned by tests
    /// to prove hot paths never spawn).
    os_threads_spawned: AtomicUsize,
}

struct PoolState {
    /// Current job, if any. Stale jobs (fully claimed) may linger here
    /// until the next submission; workers ignore them via `generation`.
    job: Option<Job>,
    /// Bumped once per submission so each worker joins a job at most once.
    generation: u64,
    shutdown: bool,
}

/// A persistent scoped thread pool.
///
/// The pool owns `threads - 1` parked worker threads; the thread calling
/// [`ThreadPool::execute`] is the remaining execution lane. `threads <= 1`
/// therefore spawns nothing and `execute` degenerates to an inline serial
/// loop.
///
/// # Example
///
/// ```
/// use lsopc_parallel::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.execute(10, usize::MAX, &|i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 45);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &(self.workers.len() + 1))
            .finish_non_exhaustive()
    }
}

impl ThreadPool {
    /// Builds a pool with `threads` execution lanes (the caller plus
    /// `threads - 1` spawned workers). `threads == 0` is treated as 1.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            os_threads_spawned: AtomicUsize::new(0),
        });
        let workers = (1..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// Execution lanes (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// OS threads this pool has ever spawned. Constant after
    /// construction — the acceptance test for "no per-call spawning" pins
    /// exactly this.
    pub fn os_threads_spawned(&self) -> usize {
        self.shared.os_threads_spawned.load(Ordering::Acquire)
    }

    /// Runs `task(i)` for every `i in 0..chunks`, distributing chunks over
    /// at most `max_threads` lanes (capped by the pool size), and returns
    /// when all chunks have finished.
    ///
    /// Runs inline — serially, in chunk order, on the calling thread —
    /// when the pool has no workers, `max_threads <= 1`, there is a single
    /// chunk, or the calling thread is itself executing a pool task (see
    /// the module docs on re-entrancy). Results never depend on which of
    /// these paths ran.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by any chunk after the job drains.
    pub fn execute(&self, chunks: usize, max_threads: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        let nested = IN_POOL_TASK.with(Cell::get);
        if self.workers.is_empty() || max_threads <= 1 || chunks == 1 || nested {
            lsopc_trace::count("pool.jobs_inline", 1);
            with_task_flag(|| {
                for i in 0..chunks {
                    task(i);
                }
            });
            return;
        }
        lsopc_trace::count("pool.jobs", 1);

        // SAFETY: the fat reference only needs to outlive this call, and
        // we block below until every chunk has finished; the 'static
        // transmute never escapes the function.
        let erased: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        let lanes = max_threads.min(self.threads()).min(chunks);
        let job = Job {
            task: TaskPtr(erased),
            next: Arc::new(AtomicUsize::new(0)),
            chunks,
            seats: Arc::new(AtomicUsize::new(lanes - 1)),
            remaining: Arc::new(AtomicUsize::new(chunks)),
            panic: Arc::new(Mutex::new(None)),
            trace_scope: lsopc_trace::task_scope(),
            stats: if lsopc_trace::enabled() {
                Some(Arc::new(JobStats::default()))
            } else {
                None
            },
        };

        {
            let mut state = self.shared.state.lock();
            state.generation += 1;
            state.job = Some(job.clone());
            self.shared.work_ready.notify_all();
        }

        // The caller is an execution lane too.
        with_task_flag(|| job.run_chunks(&self.shared));

        // Park until the last straggler chunk finishes.
        {
            let mut state = self.shared.state.lock();
            while job.remaining.load(Ordering::Acquire) > 0 {
                self.shared.job_done.wait(&mut state);
            }
            state.job = None;
        }

        // Job drained: fold the per-job stats into gauges (observation
        // only, emitted on the submitting thread so they reach its
        // scoped sink). `imbalance` is max-chunks-per-lane normalized
        // by the fair share `chunks / participants` — 1.0 means every
        // lane claimed the same number of chunks.
        if let Some(stats) = &job.stats {
            let participants = stats.participants.load(Ordering::Relaxed);
            let max_claimed = stats.max_claimed.load(Ordering::Relaxed);
            lsopc_trace::gauge("pool.job.participants", participants as f64);
            lsopc_trace::gauge(
                "pool.job.occupancy",
                participants as f64 / lanes.max(1) as f64,
            );
            if participants > 0 {
                let fair = chunks as f64 / participants as f64;
                lsopc_trace::gauge("pool.job.imbalance", max_claimed as f64 / fair);
            }
        }

        let payload = job.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    shared.os_threads_spawned.fetch_add(1, Ordering::AcqRel);
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    seen_generation = state.generation;
                    if let Some(job) = state.job.clone() {
                        break job;
                    }
                }
                shared.work_ready.wait(&mut state);
            }
        };
        // Claim a seat; jobs cap their fan-out so a backend asked for N
        // threads never runs wider even on a bigger shared pool.
        let seated = job
            .seats
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| s.checked_sub(1))
            .is_ok();
        if seated {
            // Re-enter the submitting caller's trace scope so pool-side
            // spans nest under its path and reach its scoped sink.
            lsopc_trace::with_task_scope(job.trace_scope.clone(), || {
                with_task_flag(|| job.run_chunks(shared));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_chunks_run_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.execute(100, usize::MAX, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let pool = ThreadPool::new(2);
        pool.execute(0, usize::MAX, &|_| panic!("must not run"));
    }

    #[test]
    fn single_lane_pool_spawns_nothing() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.os_threads_spawned(), 0);
        let sum = AtomicUsize::new(0);
        pool.execute(7, usize::MAX, &|i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 28);
    }

    #[test]
    fn spawn_count_is_constant_across_jobs() {
        let pool = ThreadPool::new(3);
        // Workers start asynchronously; the count settles at 2 and must
        // never move past it no matter how many jobs run.
        for _ in 0..50 {
            pool.execute(16, usize::MAX, &|_| {});
        }
        let after = pool.os_threads_spawned();
        assert!(after <= 2, "spawned {after} > worker count");
        for _ in 0..50 {
            pool.execute(16, usize::MAX, &|_| {});
        }
        assert!(pool.os_threads_spawned() <= 2);
    }

    #[test]
    fn nested_execute_runs_inline_without_deadlock() {
        let pool = ThreadPool::new(4);
        let sum = AtomicUsize::new(0);
        pool.execute(4, usize::MAX, &|_| {
            pool.execute(8, usize::MAX, &|j| {
                sum.fetch_add(j, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.into_inner(), 4 * 28);
    }

    #[test]
    fn chunk_panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.execute(8, usize::MAX, &|i| {
                if i == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps executing.
        let sum = AtomicUsize::new(0);
        pool.execute(4, usize::MAX, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 6);
    }

    #[test]
    fn fanned_out_jobs_emit_occupancy_gauges() {
        let pool = ThreadPool::new(4);
        let sink = Arc::new(lsopc_trace::MetricsRegistry::new());
        lsopc_trace::with_scoped_sink(sink.clone(), || {
            pool.execute(64, usize::MAX, &|_| {
                std::thread::sleep(std::time::Duration::from_micros(50));
            });
        });
        let report = sink.report();
        let participants = report.gauges["pool.job.participants"];
        assert!(
            (1.0..=4.0).contains(&participants),
            "participants: {participants}"
        );
        let occupancy = report.gauges["pool.job.occupancy"];
        assert!((0.0..=1.0).contains(&occupancy), "occupancy: {occupancy}");
        // Perfect balance is 1.0; a lone lane claiming everything is
        // `participants`. Anything in between is legal.
        let imbalance = report.gauges["pool.job.imbalance"];
        assert!(
            imbalance >= 1.0 - 1e-9 && imbalance <= participants + 1e-9,
            "imbalance: {imbalance}"
        );
        assert_eq!(sink.counter("pool.jobs"), 1);
    }

    #[test]
    fn inline_jobs_emit_no_job_gauges() {
        let pool = ThreadPool::new(1);
        let sink = Arc::new(lsopc_trace::MetricsRegistry::new());
        lsopc_trace::with_scoped_sink(sink.clone(), || {
            pool.execute(8, usize::MAX, &|_| {});
        });
        assert_eq!(sink.counter("pool.jobs_inline"), 1);
        assert_eq!(sink.gauge("pool.job.participants"), None);
    }

    #[test]
    fn max_threads_caps_concurrency() {
        let pool = ThreadPool::new(8);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.execute(64, 2, &|_| {
            let now = live.fetch_add(1, Ordering::AcqRel) + 1;
            peak.fetch_max(now, Ordering::AcqRel);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::AcqRel);
        });
        assert!(peak.load(Ordering::Acquire) <= 2);
    }
}
