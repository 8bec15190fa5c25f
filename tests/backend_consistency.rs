//! The CPU and accelerated ("GPU") backends must be interchangeable: the
//! whole optimizer, not just single passes, must produce identical masks.
//! Single passes are also pinned against the direct-convolution
//! `ReferenceBackend`, the dense oracle that needs no FFT at all.

use lsopc::prelude::*;
use lsopc_grid::Scalar;
use lsopc_litho::{AcceleratedBackend, FftBackend, ReferenceBackend, SimBackend};
use lsopc_optics::KernelSet;

fn target() -> Grid<f64> {
    Grid::from_fn(128, 128, |x, y| {
        let wire = (52..76).contains(&x) && (24..104).contains(&y);
        let pad = (24..48).contains(&x) && (24..48).contains(&y);
        if wire || pad {
            1.0
        } else {
            0.0
        }
    })
}

fn run(sim: &LithoSimulator) -> lsopc_core::IltResult {
    LevelSetIlt::builder()
        .max_iterations(8)
        .build()
        .optimize(sim, &target())
        .expect("optimization runs")
}

#[test]
fn optimizer_masks_match_across_backends() {
    let optics = OpticsConfig::iccad2013().with_kernel_count(8);
    let cpu = LithoSimulator::from_optics(&optics, 128, 4.0).expect("valid");
    let gpu = LithoSimulator::from_optics(&optics, 128, 4.0)
        .expect("valid")
        .with_accelerated_backend(1);

    let a = run(&cpu);
    let b = run(&gpu);
    assert_eq!(a.mask, b.mask, "backends must agree on the final mask");
    for (x, y) in a.history.iter().zip(&b.history) {
        assert!(
            (x.cost_total - y.cost_total).abs() < 1e-6 * (1.0 + x.cost_total),
            "iteration {} cost diverged: {} vs {}",
            x.iteration,
            x.cost_total,
            y.cost_total
        );
    }
}

#[test]
fn threaded_accelerated_backend_matches_serial() {
    let optics = OpticsConfig::iccad2013().with_kernel_count(8);
    let serial = LithoSimulator::from_optics(&optics, 128, 4.0)
        .expect("valid")
        .with_accelerated_backend(1);
    let threaded = LithoSimulator::from_optics(&optics, 128, 4.0)
        .expect("valid")
        .with_accelerated_backend(4);
    assert_eq!(run(&serial).mask, run(&threaded).mask);
}

#[test]
fn prints_are_identical_across_backends_at_all_corners() {
    let optics = OpticsConfig::iccad2013().with_kernel_count(8);
    let cpu = LithoSimulator::from_optics(&optics, 128, 4.0).expect("valid");
    let gpu = LithoSimulator::from_optics(&optics, 128, 4.0)
        .expect("valid")
        .with_accelerated_backend(1);
    let mask = target();
    let a = cpu.print_corners(&mask);
    let b = gpu.print_corners(&mask);
    assert_eq!(a.nominal, b.nominal);
    assert_eq!(a.inner, b.inner);
    assert_eq!(a.outer, b.outer);
}

/// Max |a − b| over two equally sized grids, widened to f64.
fn max_dev<A: Scalar, B: Scalar>(a: &Grid<A>, b: &Grid<B>) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
        .fold(0.0, f64::max)
}

/// Aerial image and gradient of one pass on `backend` at precision `T`.
fn pass<T: Scalar>(
    backend: &dyn SimBackend<T>,
    kernels: &KernelSet,
    mask: &Grid<f64>,
    z: &Grid<f64>,
) -> (Grid<T>, Grid<T>) {
    let kernels = kernels.cast::<T>();
    let mask = mask.map(|&v| T::from_f64(v));
    let z = z.map(|&v| T::from_f64(v));
    (
        backend.aerial_image(&kernels, &mask),
        backend.gradient(&kernels, &mask, &z),
    )
}

/// Largest deviation of an f32 pass (any backend) from the f64
/// direct-convolution oracle on the 32² grid below (DESIGN.md §11).
/// Aerial intensity is O(1) and the gradient peaks near 0.015 here; the
/// measured worst cases are 1.6e-7 and 1.1e-8 (both from the f32 direct
/// sum), so each bound leaves a 6–9× margin.
const F32_AERIAL_TOL: f64 = 1e-6;
const F32_GRADIENT_TOL: f64 = 1e-7;

#[test]
fn single_passes_agree_with_the_direct_convolution_oracle() {
    // 32² at 8 nm/px: small enough for the O(N⁴) reference, large enough
    // for the accelerated backend's doubled band.
    let kernels = OpticsConfig::iccad2013()
        .with_field_nm(256.0)
        .with_kernel_count(6)
        .kernels(0.0);
    let mask = Grid::from_fn(32, 32, |x, y| {
        let wire = (12..18).contains(&x) && (4..28).contains(&y);
        let pad = (20..28).contains(&x) && (6..12).contains(&y);
        if wire || pad {
            1.0
        } else {
            0.0
        }
    });
    let z = Grid::from_fn(32, 32, |x, y| {
        0.05 * ((x as f64 * 0.4).sin() + (y as f64 * 0.7).cos())
    });
    let (oracle_aerial, oracle_gradient) =
        pass::<f64>(&ReferenceBackend::new(), &kernels, &mask, &z);

    let fast64: [(&str, Box<dyn SimBackend<f64>>); 2] = [
        ("fft", Box::new(FftBackend::new())),
        ("accelerated", Box::new(AcceleratedBackend::new(1))),
    ];
    for (name, backend) in &fast64 {
        let (aerial, gradient) = pass(backend.as_ref(), &kernels, &mask, &z);
        let (da, dg) = (
            max_dev(&aerial, &oracle_aerial),
            max_dev(&gradient, &oracle_gradient),
        );
        assert!(da < 1e-10, "{name} f64 aerial deviates by {da:e}");
        assert!(dg < 1e-10, "{name} f64 gradient deviates by {dg:e}");
    }

    let all32: [(&str, Box<dyn SimBackend<f32>>); 3] = [
        ("reference", Box::new(ReferenceBackend::new())),
        ("fft", Box::new(FftBackend::new())),
        ("accelerated", Box::new(AcceleratedBackend::new(1))),
    ];
    for (name, backend) in &all32 {
        let (aerial, gradient) = pass(backend.as_ref(), &kernels, &mask, &z);
        let (da, dg) = (
            max_dev(&aerial, &oracle_aerial),
            max_dev(&gradient, &oracle_gradient),
        );
        assert!(da < F32_AERIAL_TOL, "{name} f32 aerial deviates by {da:e}");
        assert!(
            dg < F32_GRADIENT_TOL,
            "{name} f32 gradient deviates by {dg:e}"
        );
    }
}
