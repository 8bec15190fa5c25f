//! Work-count gate of the production path: `Engine::submit` on the
//! accelerated backend must run an exact number of backend passes,
//! full-size transforms and coarse transforms per optimizer evaluation.
//!
//! Each job runs under a scoped `MetricsRegistry`; every span inside a
//! `litho.cost_and_gradient` span is counted by its leaf name and
//! compared, as a formula in the kernel count K, with the number of
//! evaluations times the work of one. An evaluation prints three process
//! corners, and each corner runs one aerial and one gradient pass:
//!
//! - aerial: one full-size forward (`fft2d.rfft.forward`, the mask), K
//!   coarse inverses (`fft2d.inverse`, the kernel fields), one coarse
//!   forward (`fft2d.forward`, the intensity) and one full-size inverse
//!   (`fft2d.rfft.inverse`);
//! - gradient: two full-size forwards (mask and sensitivity) and one
//!   full-size inverse. On the FFT-product side of the window-product
//!   rule (`DESIGN.md` §13) it adds K + 1 coarse inverses (the
//!   sensitivity and each kernel's field) and K coarse forwards; on the
//!   direct-fold side, none.
//!
//! An accidental extra transform therefore fails tier-1. Timing
//! verdicts stay with the benchmark (`examples/lsopc_bench`).

use lsopc::benchsuite::{generate_layout, CaseSpec, RepeatedTileSpec};
use lsopc::engine::{pixel_nm, Engine, JobSpec, Precision, Tiling, WarmStart};
use lsopc::geometry::{rasterize, Layout};
use lsopc::grid::Grid;
use lsopc_trace::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::Arc;

const GRID: usize = 256;
const EVALUATION: &str = "litho.cost_and_gradient";

fn target(layout: &Layout) -> Grid<f64> {
    rasterize(layout, GRID, GRID, pixel_nm(GRID))
}

/// Runs `spec` and returns the number of evaluations and, by leaf
/// name, how often each span ran inside one.
fn work(spec: &JobSpec) -> (u64, BTreeMap<String, u64>) {
    let registry = Arc::new(MetricsRegistry::new());
    lsopc_trace::with_scoped_sink(registry.clone(), || {
        Engine::builder()
            .build()
            .submit(spec)
            .expect("the job runs")
    });
    let mut evaluations = 0;
    let mut inside = BTreeMap::new();
    for path in registry.span_paths() {
        let calls = registry
            .span_histogram(&path)
            .map_or(0, |hist| hist.count());
        let leaf = path.rsplit('/').next().unwrap_or(&path);
        if leaf == EVALUATION {
            evaluations += calls;
        } else if path.contains(&format!("{EVALUATION}/")) {
            *inside.entry(leaf.to_string()).or_insert(0) += calls;
        }
    }
    (evaluations, inside)
}

/// The work of one evaluation with `k` kernels per corner.
fn per_evaluation(k: u64, fft_product: bool) -> [(&'static str, u64); 6] {
    let corners = 3;
    let (extra_inverses, extra_forwards) = if fft_product { (k + 1, k) } else { (0, 0) };
    [
        ("backend.accel.aerial", corners),
        ("backend.accel.gradient", corners),
        ("fft2d.rfft.forward", corners * (1 + 2)),
        ("fft2d.rfft.inverse", corners * (1 + 1)),
        ("fft2d.inverse", corners * (k + extra_inverses)),
        ("fft2d.forward", corners * (1 + extra_forwards)),
    ]
}

fn assert_work(what: &str, spec: &JobSpec, fft_product: bool) {
    let (evaluations, inside) = work(spec);
    assert!(evaluations > 0, "{what}: no evaluation ran");
    for (span, each) in per_evaluation(spec.kernels as u64, fft_product) {
        let counted = inside.get(span).copied().unwrap_or(0);
        assert_eq!(
            counted,
            evaluations * each,
            "{what}: `{span}` ran {counted} times in {evaluations} evaluations, \
             expected {each} per evaluation"
        );
    }
}

/// Flat 256² jobs on the 2048 nm field: one kernel spans D = 28 of the
/// S = 59 window with 651 samples, so the gradient takes the FFT
/// product on the 64² coarse grid.
#[test]
fn flat_jobs_run_the_fft_product_work_per_evaluation() {
    for precision in [Precision::F64, Precision::F32] {
        let mut spec = JobSpec::new(target(&generate_layout(&CaseSpec::all()[0])));
        spec.iterations = 3;
        spec.precision = precision;
        spec.collect_metrics = false;
        assert_eq!(spec.kernels, 24);
        assert_work(&format!("flat {precision:?}"), &spec, true);
    }
}

/// The tiled job of `golden_engine`: 64 px tiles at 8 nm/px are 512 nm
/// fields, where one kernel has 41 samples, so the gradient folds
/// directly.
#[test]
fn tiled_job_runs_the_direct_fold_work_per_evaluation() {
    let mut spec = JobSpec::new(target(&RepeatedTileSpec::default_repeated().generate()));
    spec.iterations = 3;
    spec.tiling = Some(Tiling::new(64, 0).expect("power-of-two core, no halo"));
    spec.warm_start = Some(WarmStart::Memory);
    spec.warm_iterations = 1;
    spec.collect_metrics = false;
    assert_work("tiled", &spec, false);
}
