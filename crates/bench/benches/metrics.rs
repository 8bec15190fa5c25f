//! Metric-suite and mask-vectorization benchmarks (the non-simulation
//! part of a contest evaluation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsopc_benchsuite::Iccad2013Suite;
use lsopc_geometry::{mask_to_polygons, rasterize};
use lsopc_levelset::signed_distance;
use lsopc_metrics::{EpeChecker, MaskComplexity, PvBand, ShapeViolations};

fn bench_metrics(c: &mut Criterion) {
    let suite = Iccad2013Suite::new();
    let case = &suite.cases()[0];
    let layout = suite.layout(case);
    for &grid in &[256usize, 512] {
        let px = 2048.0 / grid as f64;
        let target = rasterize(&layout, grid, grid, px);
        // A plausible "printed" image: the target eroded by one pixel
        // (cheap stand-in so the benchmark has no simulator dependency).
        let psi = signed_distance(&target);
        let printed = psi.map(|&d| if d <= -1.0 { 1.0 } else { 0.0 });

        let mut group = c.benchmark_group(format!("metrics_{grid}px"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("epe_check", grid), |b| {
            let checker = EpeChecker::iccad2013();
            b.iter(|| checker.check(&layout, &printed, px));
        });
        group.bench_function(BenchmarkId::new("pv_band", grid), |b| {
            b.iter(|| PvBand::measure(&printed, &target, px));
        });
        group.bench_function(BenchmarkId::new("shape_violations", grid), |b| {
            b.iter(|| ShapeViolations::count(&printed, &target));
        });
        group.bench_function(BenchmarkId::new("mask_complexity", grid), |b| {
            b.iter(|| MaskComplexity::measure(&printed));
        });
        group.bench_function(BenchmarkId::new("vectorize", grid), |b| {
            b.iter(|| mask_to_polygons(&target, px));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
