//! Workspace-wide parallel execution layer.
//!
//! A persistent, work-chunking thread pool ([`ThreadPool`]) plus the
//! deterministic primitives every lsopc hot path uses to run on it
//! ([`ParallelContext::par_chunks_mut`], [`ParallelContext::par_map`],
//! [`ParallelContext::par_map_reduce`]).
//!
//! Two properties are load-bearing for the rest of the workspace:
//!
//! 1. **No per-call OS thread spawning.** Workers are spawned once per
//!    pool and park between jobs; submitting work is a condvar notify.
//!    [`ThreadPool::os_threads_spawned`] exposes the (constant) spawn
//!    count so tests can pin this.
//! 2. **Bit-identical results at any thread count.** Chunk boundaries
//!    are fixed by the work size — never by the thread count — and
//!    reductions merge partials in chunk-index order, so the serial and
//!    parallel paths produce the same bits. See [`REDUCE_CHUNKS`] and
//!    DESIGN.md §9.
//!
//! The process-global default context ([`ParallelContext::global`]) is
//! sized from `LSOPC_THREADS` (invalid values degrade to 1 thread with a
//! warning, never a panic) or from the machine's available parallelism,
//! and can be pinned programmatically with [`init_global_threads`]
//! (e.g. by the CLI's `--threads` flag) before first use.

#![warn(missing_docs)]

mod cancel;
mod context;
mod pool;

pub use cancel::{CancelToken, StopReason};
pub use context::{
    init_global_threads, resolve_threads, sanitize_thread_count, ParallelContext, REDUCE_CHUNKS,
};
pub use pool::ThreadPool;
