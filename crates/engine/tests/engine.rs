//! Integration tests for the engine's cache-sharing and trace-scope
//! contracts: repeated submissions amortize the shared caches, and
//! concurrent submissions stay bit-identical with cleanly separated
//! scoped trace streams.

use lsopc_engine::{Caches, Engine, JobOutcome, JobSpec, Precision};
use lsopc_grid::Grid;
use lsopc_trace::MetricsRegistry;
use std::sync::Arc;

/// A 128px vertical wire; 128px is the smallest power of two whose
/// pixel pitch resolves the optical band of the fixed 2048nm field.
fn target() -> Grid<f64> {
    Grid::from_fn(128, 128, |x, y| {
        if (52..76).contains(&x) && (30..98).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

fn small_spec() -> JobSpec {
    let mut spec = JobSpec::new(target());
    spec.kernels = 4;
    spec.iterations = 2;
    spec
}

/// The total of counter `name` in the job's own metrics.
fn counter(outcome: &JobOutcome, name: &str) -> u64 {
    let metrics = outcome.metrics.as_ref().expect("metrics collected");
    metrics.report.counters.get(name).copied().unwrap_or(0)
}

/// Two sequential submissions of the same optics: the first job pays
/// the FFT-plan and kernel-set construction misses, the second runs
/// entirely out of the engine's shared plan cache and cached simulator —
/// and produces the same mask bit for bit. (Kernel spectra have no cache
/// of their own: every backend reads each kernel's window from the
/// cached kernel set.)
#[test]
fn second_submission_runs_out_of_the_shared_caches() {
    // Private caches so counters reflect only this engine's jobs, not
    // whatever else ran in this test process.
    let engine = Engine::builder().caches(Caches::private()).build();
    let spec = small_spec();

    let first = engine.submit(&spec).expect("first job runs");
    assert!(
        counter(&first, "cache.plan.miss") > 0,
        "first job builds FFT plans"
    );
    assert!(
        counter(&first, "cache.rplan.miss") > 0,
        "first job builds the real-input FFT plan"
    );
    assert!(
        counter(&first, "cache.kernels.miss") > 0,
        "first job generates the corner kernel sets"
    );

    let second = engine.submit(&spec).expect("second job runs");
    assert_eq!(
        counter(&second, "cache.plan.miss") + counter(&second, "cache.rplan.miss"),
        0,
        "second job builds no FFT plans"
    );
    assert_eq!(
        counter(&second, "cache.kernels.miss"),
        0,
        "second job generates no kernel sets"
    );
    assert!(counter(&second, "cache.plan.hit") > 0);
    assert!(counter(&second, "cache.kernels.hit") > 0);

    let (a, b) = (first.mask().as_slice(), second.mask().as_slice());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "cache reuse changed the mask");
    }
}

/// One engine keeps one simulator per precision of a geometry: an f64
/// job and then an f32 job of the same grid and kernel count each match,
/// bit for bit, the same job on a fresh engine, and a second f64 job
/// still finds its simulator (no kernel set is generated again).
#[test]
fn one_engine_keeps_a_simulator_per_precision() {
    let spec_at = |precision| {
        let mut spec = small_spec();
        spec.precision = precision;
        spec
    };
    let engine = Engine::builder().caches(Caches::private()).build();
    for precision in [Precision::F64, Precision::F32] {
        let spec = spec_at(precision);
        let served = engine.submit(&spec).expect("shared engine runs");
        let fresh = Engine::builder()
            .caches(Caches::private())
            .build()
            .submit(&spec)
            .expect("fresh engine runs");
        let (a, b) = (served.mask().as_slice(), fresh.mask().as_slice());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{precision:?} job on a shared engine diverged"
            );
        }
    }
    let again = engine.submit(&spec_at(Precision::F64)).expect("f64 again");
    assert_eq!(
        counter(&again, "cache.kernels.miss"),
        0,
        "the f32 job displaced the f64 simulator"
    );
}

/// Two threads submitting the same spec through one engine, each under
/// its own scoped registry: both jobs share the simulator and caches yet
/// produce bit-identical masks, and each registry sees only its own
/// thread's events.
#[test]
fn concurrent_scoped_submissions_are_bit_identical_with_separate_streams() {
    let engine = Engine::builder().caches(Caches::private()).build();
    // Warm the shared caches once so both threads race on the hit path.
    engine.submit(&small_spec()).expect("warm-up job runs");

    let run = |marker: &'static str| {
        let engine = engine.clone();
        move || {
            let sink = Arc::new(MetricsRegistry::new());
            let outcome = lsopc_trace::with_scoped_sink(sink.clone(), || {
                lsopc_trace::count(marker, 1);
                engine.submit(&small_spec())
            });
            (outcome.expect("concurrent job runs"), sink)
        }
    };
    let a = std::thread::spawn(run("test.marker.a"));
    let b = std::thread::spawn(run("test.marker.b"));
    let (outcome_a, sink_a) = a.join().expect("thread a");
    let (outcome_b, sink_b) = b.join().expect("thread b");

    for (x, y) in outcome_a
        .mask()
        .as_slice()
        .iter()
        .zip(outcome_b.mask().as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "concurrent jobs diverged");
    }

    // Each scoped stream carries its own marker and its own job's
    // events, not the sibling's.
    assert_eq!(sink_a.counter("test.marker.a"), 1);
    assert_eq!(sink_a.counter("test.marker.b"), 0);
    assert_eq!(sink_b.counter("test.marker.b"), 1);
    assert_eq!(sink_b.counter("test.marker.a"), 0);
    assert!(
        sink_a.counter("cache.plan.hit") > 0,
        "scope a saw its job's cache traffic"
    );
    assert!(
        sink_b.counter("cache.plan.hit") > 0,
        "scope b saw its job's cache traffic"
    );
}

/// A scoped sink only observes work submitted inside its scope: nothing
/// leaks in from jobs run after the scope has ended.
#[test]
fn scoped_sinks_do_not_leak_across_scopes() {
    let engine = Engine::builder().caches(Caches::private()).build();
    let sink = Arc::new(MetricsRegistry::new());

    lsopc_trace::with_scoped_sink(sink.clone(), || engine.submit(&small_spec()))
        .expect("scoped job runs");
    let seen = sink.counter("cache.plan.miss") + sink.counter("cache.plan.hit");
    assert!(seen > 0, "scoped job was observed");

    // The same engine run *outside* the scope must not reach its sink.
    engine.submit(&small_spec()).expect("unscoped job runs");
    let after = sink.counter("cache.plan.miss") + sink.counter("cache.plan.hit");
    assert_eq!(seen, after, "unscoped job leaked into the scoped sink");
}

/// Engines built with private caches are isolated from each other: one
/// engine's warm cache does not serve another's first job.
#[test]
fn private_caches_isolate_engines() {
    let first = Engine::builder().caches(Caches::private()).build();
    first.submit(&small_spec()).expect("first engine runs");

    let second = Engine::builder().caches(Caches::private()).build();
    let outcome = second.submit(&small_spec()).expect("second engine runs");
    assert!(
        counter(&outcome, "cache.plan.miss") > 0,
        "a fresh engine pays its own cache misses"
    );
}
