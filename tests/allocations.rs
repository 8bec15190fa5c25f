//! Allocation gate of the production loop: past its first iterations,
//! an iteration of `Engine::submit`'s flat loop allocates nothing
//! grid-sized.
//!
//! A counting global allocator counts the allocations (and reallocations)
//! of at least half a grid of the job's precision while one job runs on a
//! warm engine. A job of N iterations and one of N + 2 must count the
//! same: every grid an iteration touches has one owner that keeps it
//! across iterations (the loop state and the loop's scratch buffers, the
//! evaluation's image buffer, band-stored spectra), so the extra
//! iterations add nothing. The flat 256² job runs with the default spec
//! (K = 24, the health guard on) at f64 and at f32, on B1, which neither
//! converges nor rolls back in that many iterations. N + 2 stays below
//! the reinitialization interval of 10, whose signed-distance transform
//! allocates. `scripts/check.sh` runs this at `LSOPC_THREADS=1` and `=4`.
//!
//! This file holds a single test on purpose: the allocator counts the
//! whole process, so a second test running alongside would add its
//! allocations to the count.

use lsopc::benchsuite::{generate_layout, CaseSpec};
use lsopc::engine::{pixel_nm, Engine, JobDetail, JobSpec, Precision};
use lsopc::geometry::rasterize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

const GRID: usize = 256;
/// Iterations of the shorter job; the longer runs two more.
const N: usize = 3;

/// Allocations at or above this many bytes are counted.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Allocations counted since the last reset.
static LARGE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the allocations at or above
/// [`THRESHOLD`].
struct Counting;

fn note(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a side effect on an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations of at least half a grid of `precision` that one
/// submission of `spec` with `iterations` iterations makes on `engine`.
/// The job must run every iteration without converging or rolling back.
fn grid_sized_allocations(
    engine: &Engine,
    spec: &JobSpec,
    precision: Precision,
    iterations: usize,
) -> usize {
    let scalar_bytes = match precision {
        Precision::F64 => 8,
        Precision::F32 => 4,
    };
    let mut spec = spec.clone();
    spec.precision = precision;
    spec.iterations = iterations;
    LARGE.store(0, Ordering::SeqCst);
    THRESHOLD.store(GRID * GRID * scalar_bytes / 2, Ordering::SeqCst);
    let outcome = engine.submit(&spec);
    THRESHOLD.store(usize::MAX, Ordering::SeqCst);
    let count = LARGE.load(Ordering::SeqCst);
    let outcome = outcome.expect("the job runs");
    let JobDetail::Flat(result) = &outcome.detail else {
        panic!("a job without tiling runs flat");
    };
    assert_eq!(
        result.iterations, iterations,
        "{precision:?}: every iteration runs"
    );
    assert!(!result.converged, "{precision:?}: the job converged");
    assert_eq!(
        result.diagnostics.backoffs, 0,
        "{precision:?}: the guard rolled back"
    );
    count
}

#[test]
fn steady_state_iterations_allocate_nothing_grid_sized() {
    let layout = generate_layout(&CaseSpec::all()[0]);
    let spec = JobSpec::new(rasterize(&layout, GRID, GRID, pixel_nm(GRID)));
    assert_eq!(spec.kernels, 24);
    let engine = Engine::builder().build();
    for precision in [Precision::F64, Precision::F32] {
        // Warm the engine: its simulator, kernel sets and FFT plans are
        // built once, by the first job of each precision.
        grid_sized_allocations(&engine, &spec, precision, 1);
        let short = grid_sized_allocations(&engine, &spec, precision, N);
        let long = grid_sized_allocations(&engine, &spec, precision, N + 2);
        println!(
            "{precision:?}: {short} grid-sized allocations at {N} iterations, {long} at {}",
            N + 2
        );
        assert_eq!(
            long,
            short,
            "{precision:?}: {} more grid-sized allocations in 2 more iterations",
            long as i64 - short as i64
        );
    }
}
