//! [`ParallelContext`]: the handle hot paths hold to run work on the
//! shared pool, plus the process-global default and `LSOPC_THREADS`
//! resolution.
//!
//! Every primitive here is deterministic by construction:
//!
//! * [`par_chunks_mut`](ParallelContext::par_chunks_mut) only hands out
//!   disjoint subslices — whichever thread runs a chunk, the bytes
//!   written are the same.
//! * [`par_map`](ParallelContext::par_map) writes each result into its
//!   own slot, so output order is index order regardless of scheduling.
//! * [`par_map_reduce`](ParallelContext::par_map_reduce) splits the item
//!   range into [`REDUCE_CHUNKS`] chunks — a constant, **not** a function
//!   of the thread count — and folds the per-chunk partials in chunk-index
//!   order. Floating-point reductions are therefore bit-identical for any
//!   thread count, including the inline serial path.

use crate::cancel::CancelToken;
use crate::pool::ThreadPool;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Number of chunks a `par_map_reduce` splits its items into.
///
/// Fixed (rather than derived from the thread count) so the reduction
/// tree — and with it every floating-point rounding — is the same no
/// matter how many threads execute it. Eight chunks keep all lanes of
/// any plausible CPU busy while bounding the partial-state memory to 8×.
pub const REDUCE_CHUNKS: usize = 8;

/// Splits `0..items` into `chunks` contiguous ranges as evenly as
/// possible (the first `items % chunks` ranges are one longer).
fn chunk_bounds(items: usize, chunks: usize, i: usize) -> Range<usize> {
    debug_assert!(i < chunks);
    let base = items / chunks;
    let rem = items % chunks;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    start..start + len
}

/// Raw pointer wrapper so disjoint-write closures can be shared across
/// threads. Callers guarantee every index is written by at most one chunk.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// A handle to a (possibly shared) [`ThreadPool`] with a fan-out cap.
///
/// Cloning is cheap and shares the underlying pool. Most code uses
/// [`ParallelContext::global`]; tests and benchmarks build private
/// contexts with [`ParallelContext::new`] to pin exact thread counts
/// without touching process state.
#[derive(Clone, Debug)]
pub struct ParallelContext {
    pool: Arc<ThreadPool>,
    max_threads: usize,
}

impl ParallelContext {
    /// Builds a context with its own pool of `threads` execution lanes.
    /// `0` is sanitized to 1 with a logged warning rather than panicking.
    pub fn new(threads: usize) -> Self {
        let threads = sanitize_thread_count(threads, "ParallelContext::new");
        Self {
            pool: Arc::new(ThreadPool::new(threads)),
            max_threads: threads,
        }
    }

    /// A strictly serial context: no workers, every primitive runs inline
    /// on the calling thread. Shares code (and chunking) with the
    /// parallel path, so results are identical by construction.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A context sharing this one's pool but fanning out over at most
    /// `max_threads` lanes. Useful to honor a user-requested thread count
    /// smaller than the global pool.
    pub fn with_max_threads(&self, max_threads: usize) -> Self {
        let max_threads = sanitize_thread_count(max_threads, "with_max_threads");
        Self {
            pool: Arc::clone(&self.pool),
            max_threads,
        }
    }

    /// The process-global default context.
    ///
    /// Sized, on first use, from `LSOPC_THREADS` if set (invalid values
    /// degrade to 1 with a warning on stderr) or from
    /// [`std::thread::available_parallelism`] otherwise. Call
    /// [`init_global_threads`] before first use to override in code.
    pub fn global() -> &'static ParallelContext {
        global_cell().get_or_init(|| {
            let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
            let env = std::env::var("LSOPC_THREADS").ok();
            let (threads, warning) = resolve_threads(env.as_deref(), hardware);
            if let Some(msg) = warning {
                lsopc_trace::warn("parallel", &msg);
            }
            ParallelContext::new(threads)
        })
    }

    /// Effective maximum number of execution lanes for this context.
    pub fn threads(&self) -> usize {
        self.max_threads.min(self.pool.threads())
    }

    /// OS threads ever spawned by the underlying pool (constant after
    /// construction; see [`ThreadPool::os_threads_spawned`]).
    pub fn os_threads_spawned(&self) -> usize {
        self.pool.os_threads_spawned()
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and runs `f(chunk_index, chunk)` on each in
    /// parallel. Chunks are disjoint, so results are scheduling-invariant.
    pub fn par_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let items = data.len();
        if items == 0 {
            return;
        }
        let chunks = items.div_ceil(chunk_len);
        let ptr = SendPtr(data.as_mut_ptr());
        // Borrow the wrapper (not its raw-pointer field) so the closure
        // captures a `&SendPtr<T>`, which is `Sync`.
        let ptr = &ptr;
        self.pool.execute(chunks, self.max_threads, &|i| {
            let start = i * chunk_len;
            let len = chunk_len.min(items - start);
            // SAFETY: chunk `i` covers exactly `start..start + len`;
            // chunks are disjoint and in-bounds, and the borrow of `data`
            // outlives `execute` (which blocks until all chunks finish).
            let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(start), len) };
            f(i, chunk);
        });
    }

    /// Computes `f(i)` for every `i in 0..n` in parallel and returns the
    /// results in index order.
    pub fn par_map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let ptr = SendPtr(slots.as_mut_ptr());
        let ptr = &ptr;
        self.pool.execute(n, self.max_threads, &|i| {
            // SAFETY: each index is claimed by exactly one chunk and the
            // slot vector outlives `execute`.
            unsafe { ptr.0.add(i).write(Some(f(i))) };
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index produced a value"))
            .collect()
    }

    /// [`ParallelContext::par_map`] with a cooperative cancellation
    /// point at every chunk claim.
    ///
    /// Each index checks `token` immediately after being claimed; once
    /// the token is cancelled, remaining indices return `None` without
    /// calling `f`, so a long fan-out drains within one in-flight item
    /// per worker instead of finishing all queued work. Indices that did
    /// run hold `Some` in index order with exactly the values `par_map`
    /// would have produced — an uncancelled call is bit-identical to
    /// `par_map` at any thread count.
    ///
    /// Which indices ran when a cancellation races the fan-out is
    /// inherently timing-dependent; callers that need determinism must
    /// only rely on the uncancelled path (or cancel before submitting).
    pub fn par_map_cancellable<T: Send>(
        &self,
        n: usize,
        token: &CancelToken,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<Option<T>> {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let ptr = SendPtr(slots.as_mut_ptr());
        let ptr = &ptr;
        self.pool.execute(n, self.max_threads, &|i| {
            if token.is_cancelled() {
                return;
            }
            // SAFETY: each index is claimed by exactly one chunk and the
            // slot vector outlives `execute`.
            unsafe { ptr.0.add(i).write(Some(f(i))) };
        });
        slots
    }

    /// Maps contiguous subranges of `0..items` to partial values and
    /// folds them **in chunk-index order**.
    ///
    /// The range is split into [`REDUCE_CHUNKS`] chunks regardless of the
    /// thread count, so both the per-chunk accumulation order and the
    /// merge order are fixed — floating-point results are bit-identical
    /// for 1 thread, 8 threads, or the inline serial path. Returns `None`
    /// when `items == 0`.
    pub fn par_map_reduce<A: Send>(
        &self,
        items: usize,
        map: impl Fn(Range<usize>) -> A + Sync,
        reduce: impl FnMut(A, A) -> A,
    ) -> Option<A> {
        if items == 0 {
            return None;
        }
        let chunks = REDUCE_CHUNKS.min(items);
        let partials = self.par_map(chunks, |i| map(chunk_bounds(items, chunks, i)));
        partials.into_iter().reduce(reduce)
    }
}

fn global_cell() -> &'static OnceLock<ParallelContext> {
    static GLOBAL: OnceLock<ParallelContext> = OnceLock::new();
    &GLOBAL
}

/// Sets the process-global context to `threads` lanes if it has not been
/// built yet. Returns `false` (leaving the existing context in place)
/// when the global was already initialized.
pub fn init_global_threads(threads: usize) -> bool {
    let threads = sanitize_thread_count(threads, "init_global_threads");
    global_cell().set(ParallelContext::new(threads)).is_ok()
}

/// Clamps a requested thread count to at least 1, warning (through the
/// active trace sink, stderr otherwise) when a caller asked for 0
/// instead of panicking.
pub fn sanitize_thread_count(requested: usize, origin: &str) -> usize {
    if requested == 0 {
        lsopc_trace::warn(
            "parallel",
            &format!("{origin} requested 0 threads; degrading to 1"),
        );
        1
    } else {
        requested
    }
}

/// Resolves a thread count from an `LSOPC_THREADS` value and the hardware
/// lane count. Returns the count plus an optional warning to log.
///
/// * unset / empty → hardware count, no warning;
/// * a positive integer → that count;
/// * `0` or non-numeric → 1 thread, with a warning (never a panic).
pub fn resolve_threads(env: Option<&str>, hardware: usize) -> (usize, Option<String>) {
    let hardware = hardware.max(1);
    match env.map(str::trim) {
        None | Some("") => (hardware, None),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            Ok(_) => (
                1,
                Some("LSOPC_THREADS=0 is invalid; degrading to 1 thread".to_string()),
            ),
            Err(_) => (
                1,
                Some(format!(
                    "LSOPC_THREADS={raw:?} is not a number; degrading to 1 thread"
                )),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_range_exactly() {
        for items in [1usize, 7, 8, 9, 100] {
            for chunks in 1..=items.min(12) {
                let mut next = 0;
                for i in 0..chunks {
                    let r = chunk_bounds(items, chunks, i);
                    assert_eq!(r.start, next, "gap at chunk {i} ({items}/{chunks})");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, items);
            }
        }
    }

    #[test]
    fn par_chunks_mut_writes_are_disjoint_and_complete() {
        for threads in [1usize, 2, 3, 8] {
            let ctx = ParallelContext::new(threads);
            let mut data = vec![0usize; 103];
            ctx.par_chunks_mut(&mut data, 10, |ci, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = ci * 10 + j + 1;
                }
            });
            let expect: Vec<usize> = (1..=103).collect();
            assert_eq!(data, expect);
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        for threads in [1usize, 2, 3, 8] {
            let ctx = ParallelContext::new(threads);
            // More threads than items exercises the over-subscribed path.
            let out = ctx.par_map(3, |i| i * i);
            assert_eq!(out, vec![0, 1, 4]);
            let out = ctx.par_map(40, |i| i as i64 - 7);
            assert_eq!(out, (0..40).map(|i| i - 7).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn par_map_reduce_is_bit_identical_across_thread_counts() {
        // A sum whose value depends on association order: if chunking
        // varied with the thread count, these would differ in the last ulp.
        let values: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.7391).sin() * 1e3 + 1e-3 / (i + 1) as f64)
            .collect();
        let sum_with = |threads: usize| {
            let ctx = ParallelContext::new(threads);
            ctx.par_map_reduce(
                values.len(),
                |r| r.fold(0.0f64, |acc, i| acc + values[i]),
                |a, b| a + b,
            )
            .unwrap()
        };
        let reference = sum_with(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(sum_with(threads).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn par_map_reduce_empty_is_none() {
        let ctx = ParallelContext::serial();
        assert!(ctx.par_map_reduce(0, |_| 1.0f64, |a, b| a + b).is_none());
    }

    #[test]
    fn zero_threads_degrades_to_one() {
        let ctx = ParallelContext::new(0);
        assert_eq!(ctx.threads(), 1);
        assert_eq!(ctx.os_threads_spawned(), 0);
    }

    #[test]
    fn resolve_threads_handles_bad_values() {
        assert_eq!(resolve_threads(None, 6), (6, None));
        assert_eq!(resolve_threads(Some(""), 6), (6, None));
        assert_eq!(resolve_threads(Some("4"), 6), (4, None));
        assert_eq!(resolve_threads(Some(" 2 "), 6), (2, None));
        let (n, warn) = resolve_threads(Some("0"), 6);
        assert_eq!(n, 1);
        assert!(warn.is_some());
        let (n, warn) = resolve_threads(Some("lots"), 6);
        assert_eq!(n, 1);
        assert!(warn.is_some());
        // Hardware count of 0 (should never happen) still yields 1.
        assert_eq!(resolve_threads(None, 0), (1, None));
    }

    #[test]
    fn with_max_threads_shares_pool_and_caps_fanout() {
        let ctx = ParallelContext::new(4);
        let capped = ctx.with_max_threads(2);
        assert_eq!(capped.threads(), 2);
        assert_eq!(capped.os_threads_spawned(), ctx.os_threads_spawned());
        let out = capped.par_map(10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<usize>>());
    }
}
