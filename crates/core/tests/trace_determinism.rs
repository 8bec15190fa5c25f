//! Tracing must only observe, never perturb: with a sink in scope the
//! optimizer's output is bit-identical (`f64::to_bits`) to an untraced
//! run. `scripts/check.sh` runs this binary under both `LSOPC_THREADS=1`
//! and `LSOPC_THREADS=4` to pin the property at both pool sizes.

use lsopc_core::{IltResult, LevelSetIlt};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;
use lsopc_optics::OpticsConfig;
use lsopc_parallel::ParallelContext;
use std::sync::Arc;

fn wire_target() -> Grid<f64> {
    Grid::from_fn(64, 64, |x, y| {
        if (26..38).contains(&x) && (12..52).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

fn run() -> IltResult {
    // The accelerated backend exercises the pool-worker span-merge path
    // on top of the FFT pool dispatch.
    let sim = LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
        .expect("valid configuration")
        .with_accelerated_backend(ParallelContext::global().threads());
    LevelSetIlt::builder()
        .max_iterations(5)
        .build()
        .optimize(&sim, &wire_target())
        .expect("optimize runs")
}

fn bits(g: &Grid<f64>) -> Vec<u64> {
    g.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn tracing_leaves_optimizer_output_bit_identical() {
    let baseline = run();

    let sink = Arc::new(lsopc_trace::MetricsRegistry::new());
    let traced = lsopc_trace::with_scoped_sink(sink.clone(), run);

    // Sanity: the traced run actually went through the instrumentation.
    let report = sink.report();
    assert!(
        report
            .spans
            .iter()
            .any(|s| s.path.contains("optimize.iter")),
        "sink saw optimizer spans"
    );
    assert_eq!(
        report.convergence.map(|c| c.iterations),
        Some(traced.iterations)
    );

    assert_eq!(baseline.iterations, traced.iterations);
    assert_eq!(bits(&baseline.mask), bits(&traced.mask));
    assert_eq!(bits(&baseline.levelset), bits(&traced.levelset));
    assert_eq!(baseline.history.len(), traced.history.len());
    for (a, b) in baseline.history.iter().zip(&traced.history) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.rolled_back, b.rolled_back);
        for (name, x, y) in [
            ("cost_total", a.cost_total, b.cost_total),
            ("cost_nominal", a.cost_nominal, b.cost_nominal),
            ("cost_pvb", a.cost_pvb, b.cost_pvb),
            ("max_velocity", a.max_velocity, b.max_velocity),
            ("time_step", a.time_step, b.time_step),
            ("cg_beta", a.cg_beta, b.cg_beta),
            ("lambda_scale", a.lambda_scale, b.lambda_scale),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "iteration {} {name}: {x} != {y}",
                a.iteration
            );
        }
    }
}
