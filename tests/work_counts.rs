//! Work-count gate of the production path: `Engine::submit` on the
//! accelerated backend must run an exact number of backend passes,
//! full-size transforms and coarse transforms per cost evaluation, and
//! scoring its mask must run an exact number of aerial passes.
//!
//! Each job runs, and its mask is scored, under a scoped
//! `MetricsRegistry`. Every span inside a `litho.cost_and_gradient`,
//! `litho.cost_only` or `litho.print_corners` span is counted by its
//! leaf name and compared, as a formula in the kernel count K, with the
//! number of those spans times the work of one. Corners at one focus
//! share an aerial image and one gradient pass, so the three ICCAD
//! corners cost two passes of each (the outer corner is in focus), and
//! an evaluation runs each focus inside one `litho.focus` span. Per
//! pass:
//!
//! - aerial: K coarse inverses (`fft2d.inverse`, the kernel fields), one
//!   coarse forward (`fft2d.forward`, the intensity) and one full-size
//!   inverse (`fft2d.rfft.inverse`);
//! - gradient: one full-size forward (`fft2d.rfft.forward`, the
//!   sensitivity) and one full-size inverse. On the FFT-product side of
//!   the window-product rule (`DESIGN.md` §13) it adds one coarse
//!   inverse (the sensitivity) and K coarse forwards, and reuses the
//!   kernel fields of its focus's aerial pass; on the direct-fold side,
//!   none.
//!
//! Every enclosing span runs its passes as one evaluation
//! (`SimBackend::evaluate`), which runs one mask forward for all its
//! foci; the scorer's prints are one such evaluation without a gradient. A
//! cost-and-gradient evaluation therefore runs 7 full-size transforms
//! (3 forwards, 4 inverses) and, on the FFT-product side, 2K + 2 coarse
//! inverses; the final iterate's cost-only evaluation and the scorer's
//! prints each run 3 (1 forward, 2 inverses) and no gradient pass. An
//! accidental extra transform fails tier-1. Timing verdicts stay with
//! the benchmark (`examples/lsopc_bench`).

use lsopc::benchsuite::{generate_layout, CaseSpec, RepeatedTileSpec};
use lsopc::engine::{pixel_nm, Engine, JobSpec, Precision, Tiling, WarmStart};
use lsopc::geometry::{rasterize, Layout};
use lsopc::grid::Grid;
use lsopc_trace::MetricsRegistry;
use std::collections::BTreeMap;
use std::sync::Arc;

const GRID: usize = 256;
/// Distinct foci among the ICCAD process corners.
const FOCI: u64 = 2;
/// The spans whose inner work is counted, with the aerial and gradient
/// passes one of them runs.
const ENCLOSING: [(&str, u64, u64); 3] = [
    ("litho.cost_and_gradient", FOCI, FOCI),
    ("litho.cost_only", FOCI, 0),
    ("litho.print_corners", FOCI, 0),
];

fn target(layout: &Layout) -> Grid<f64> {
    rasterize(layout, GRID, GRID, pixel_nm(GRID))
}

/// Runs `spec`, scores its mask against `layout`, and returns for each
/// enclosing span how often it ran and, by leaf name, how often each
/// span ran inside it.
fn work(spec: &JobSpec, layout: &Layout) -> BTreeMap<&'static str, (u64, BTreeMap<String, u64>)> {
    let registry = Arc::new(MetricsRegistry::new());
    lsopc_trace::with_scoped_sink(registry.clone(), || {
        let engine = Engine::builder().build();
        let outcome = engine.submit(spec).expect("the job runs");
        engine
            .scorer(GRID, spec.kernels, None)
            .expect("the scorer builds")
            .evaluate(outcome.mask(), layout, &spec.target);
    });
    let mut counted = BTreeMap::new();
    for (enclosing, ..) in ENCLOSING {
        let (runs, inside): &mut (u64, BTreeMap<String, u64>) =
            counted.entry(enclosing).or_default();
        for path in registry.span_paths() {
            let calls = registry
                .span_histogram(&path)
                .map_or(0, |hist| hist.count());
            let leaf = path.rsplit('/').next().unwrap_or(&path);
            if leaf == enclosing {
                *runs += calls;
            } else if path.contains(&format!("{enclosing}/")) {
                *inside.entry(leaf.to_string()).or_insert(0) += calls;
            }
        }
    }
    counted
}

/// The work of one evaluation of `aerial` aerial and `gradient` gradient
/// passes with `k` kernels each: one mask forward, and each focus in a
/// `litho.focus` span.
fn passes(k: u64, aerial: u64, gradient: u64, fft_product: bool) -> [(&'static str, u64); 7] {
    let (extra_inverses, extra_forwards) = if fft_product { (1, k) } else { (0, 0) };
    [
        ("litho.focus", aerial),
        ("backend.accel.aerial", aerial),
        ("backend.accel.gradient", gradient),
        ("fft2d.rfft.forward", 1 + gradient),
        ("fft2d.rfft.inverse", aerial + gradient),
        ("fft2d.inverse", aerial * k + gradient * extra_inverses),
        ("fft2d.forward", aerial + gradient * extra_forwards),
    ]
}

fn assert_work(what: &str, spec: &JobSpec, layout: &Layout, fft_product: bool) {
    let counted = work(spec, layout);
    for (enclosing, aerial, gradient) in ENCLOSING {
        let (runs, inside) = &counted[enclosing];
        assert!(*runs > 0, "{what}: no `{enclosing}` ran");
        let k = spec.kernels as u64;
        for (span, each) in passes(k, aerial, gradient, fft_product) {
            let got = inside.get(span).copied().unwrap_or(0);
            assert_eq!(
                got,
                runs * each,
                "{what}: `{span}` ran {got} times in {runs} `{enclosing}` spans, \
                 expected {each} per span"
            );
        }
    }
}

/// Flat 256² jobs on the 2048 nm field: one kernel spans D = 28 of the
/// S = 59 window with 651 samples, so the gradient takes the FFT
/// product on the 64² coarse grid.
#[test]
fn flat_jobs_run_the_fft_product_work_per_evaluation() {
    for precision in [Precision::F64, Precision::F32] {
        let layout = generate_layout(&CaseSpec::all()[0]);
        let mut spec = JobSpec::new(target(&layout));
        spec.iterations = 3;
        spec.precision = precision;
        spec.collect_metrics = false;
        assert_eq!(spec.kernels, 24);
        assert_work(&format!("flat {precision:?}"), &spec, &layout, true);
    }
}

/// The tiled job of `golden_engine`: 64 px tiles at 8 nm/px are 512 nm
/// fields, where one kernel has 41 samples, so the gradient folds
/// directly.
#[test]
fn tiled_job_runs_the_direct_fold_work_per_evaluation() {
    let layout = RepeatedTileSpec::default_repeated().generate();
    let mut spec = JobSpec::new(target(&layout));
    spec.iterations = 3;
    spec.tiling = Some(Tiling::new(64, 0).expect("power-of-two core, no halo"));
    spec.warm_start = Some(WarmStart::Memory);
    spec.warm_iterations = 1;
    spec.collect_metrics = false;
    assert_work("tiled", &spec, &layout, false);
}
