//! The CPU and accelerated ("GPU") backends must be interchangeable: the
//! whole optimizer, not just single passes, must produce identical masks.
//! Single passes are also pinned against the direct-convolution
//! `ReferenceBackend`, the dense oracle that needs no FFT at all, and
//! every backend at both precisions must keep the imaging model's
//! invariants: the adjoint identity, cyclic-shift equivariance and the
//! clear-field intensity.

use lsopc::prelude::*;
use lsopc_grid::Scalar;
use lsopc_litho::{AcceleratedBackend, FftBackend, ReferenceBackend, SimBackend};
use lsopc_optics::KernelSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The 32² fixture at 8 nm/px: small enough for the O(N⁴) reference,
/// large enough for the accelerated backend's doubled band. Returns the
/// kernels, a wire-and-pad mask and a smooth sensitivity `z`.
fn fixture32() -> (KernelSet, Grid<f64>, Grid<f64>) {
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
    (kernels, mask, z)
}

/// Reference, Fft and Accelerated at precision `T`.
fn all_backends<T: Scalar>() -> [(&'static str, Box<dyn SimBackend<T>>); 3]
where
    ReferenceBackend: SimBackend<T>,
    FftBackend: SimBackend<T>,
    AcceleratedBackend: SimBackend<T>,
{
    [
        ("reference", Box::new(ReferenceBackend::new())),
        ("fft", Box::new(FftBackend::new())),
        ("accelerated", Box::new(AcceleratedBackend::new(1))),
    ]
}

#[test]
fn single_passes_agree_with_the_direct_convolution_oracle() {
    let (kernels, mask, z) = fixture32();
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

    for (name, backend) in &all_backends::<f32>() {
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

/// ⟨a, b⟩ over two equally sized grids, summed in f64.
fn dot<T: Scalar>(a: &Grid<T>, b: &Grid<T>) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x.to_f64() * y.to_f64())
        .sum()
}

/// Relative gap between the two sides of the adjoint identity
/// `⟨I(m+d) − I(m−d), y⟩/2 = ⟨d, gradient(m, y)⟩` on `backend` at
/// precision `T`. The Hopkins map is quadratic in the mask, so the
/// symmetric difference is its exact linearization and only round-off
/// separates the two sides.
fn adjoint_gap<T: Scalar>(
    backend: &dyn SimBackend<T>,
    kernels: &KernelSet,
    m: &Grid<f64>,
    d: &Grid<f64>,
    y: &Grid<f64>,
) -> f64 {
    let kernels = kernels.cast::<T>();
    let cast = |g: &Grid<f64>| g.map(|&v| T::from_f64(v));
    let (m, d, y) = (cast(m), cast(d), cast(y));
    let shifted = |sign: T| {
        Grid::from_fn(m.width(), m.height(), |px, py| {
            m[(px, py)] + sign * d[(px, py)]
        })
    };
    let plus = backend.aerial_image(&kernels, &shifted(T::ONE));
    let minus = backend.aerial_image(&kernels, &shifted(-T::ONE));
    let lhs = (dot(&plus, &y) - dot(&minus, &y)) / 2.0;
    let rhs = dot(&d, &backend.gradient(&kernels, &m, &y));
    (lhs - rhs).abs() / rhs.abs()
}

/// Random `m`, `d`, `y` on an `n`² grid, on a 1/256 lattice so `m ± d`
/// is exact at f32 too.
fn adjoint_inputs(n: usize) -> (Grid<f64>, Grid<f64>, Grid<f64>) {
    let mut rng = StdRng::seed_from_u64(15);
    let mut lattice =
        |lo: i32, hi: i32| Grid::from_fn(n, n, |_, _| f64::from(rng.gen_range(lo..=hi)) / 256.0);
    let m = lattice(0, 256);
    let d = lattice(-128, 128);
    let y = lattice(-256, 256);
    (m, d, y)
}

#[test]
fn gradient_is_the_adjoint_of_the_aerial_linearization() {
    // 128² at 4 nm/px: the kernel support S = 17, so every band the
    // real transforms run on (S/2 + 1, S and the aerial window's
    // columns) is a strict subset of the 65 stored columns.
    let n = 128;
    let kernels = OpticsConfig::iccad2013()
        .with_field_nm(512.0)
        .with_kernel_count(8)
        .kernels(0.0);
    let s = kernels.support();
    assert!(
        s < n / 2 + 1,
        "premise: the widest band (S = {s}) must leave columns out"
    );
    let (m, d, y) = adjoint_inputs(n);

    let backends64: [(&str, Box<dyn SimBackend<f64>>); 2] = [
        ("fft", Box::new(FftBackend::new())),
        ("accelerated", Box::new(AcceleratedBackend::new(1))),
    ];
    for (name, backend) in &backends64 {
        let gap = adjoint_gap(backend.as_ref(), &kernels, &m, &d, &y);
        assert!(gap < 1e-12, "{name} f64 adjoint gap {gap:e}");
    }
    let backends32: [(&str, Box<dyn SimBackend<f32>>); 2] = [
        ("fft", Box::new(FftBackend::new())),
        ("accelerated", Box::new(AcceleratedBackend::new(1))),
    ];
    for (name, backend) in &backends32 {
        let gap = adjoint_gap(backend.as_ref(), &kernels, &m, &d, &y);
        assert!(gap < 1e-4, "{name} f32 adjoint gap {gap:e}");
    }

    // The direct-convolution reference is O(N⁴), so it joins at the 32²
    // fixture, with the same bounds. Measured worst cases there: 1.1e-14
    // at f64 and 2.2e-5 at f32, both on the reference (its f32 direct
    // sums); the FFT backends stay below 8e-15 and 2.8e-6.
    let (kernels, _, _) = fixture32();
    let (m, d, y) = adjoint_inputs(32);
    for (name, backend) in &all_backends::<f64>() {
        let gap = adjoint_gap(backend.as_ref(), &kernels, &m, &d, &y);
        assert!(gap < 1e-12, "{name} f64 adjoint gap at 32² {gap:e}");
    }
    for (name, backend) in &all_backends::<f32>() {
        let gap = adjoint_gap(backend.as_ref(), &kernels, &m, &d, &y);
        assert!(gap < 1e-4, "{name} f32 adjoint gap at 32² {gap:e}");
    }
}

/// `g` cyclically shifted by `(dx, dy)`: `out(x, y) = g(x − dx, y − dy)`.
fn cyclic_shift<T: Copy>(g: &Grid<T>, dx: usize, dy: usize) -> Grid<T> {
    let (w, h) = g.dims();
    Grid::from_fn(w, h, |x, y| g[((x + w - dx) % w, (y + h - dy) % h)])
}

/// Largest deviation from shift equivariance on `backend`, as
/// (aerial, gradient): the pass on inputs shifted by (5, 11) against the
/// same shift of the pass on the unshifted inputs.
fn shift_gap<T: Scalar>(
    backend: &dyn SimBackend<T>,
    kernels: &KernelSet,
    mask: &Grid<f64>,
    z: &Grid<f64>,
) -> (f64, f64) {
    let (dx, dy) = (5, 11);
    let (aerial, gradient) = pass(backend, kernels, mask, z);
    let (moved_aerial, moved_gradient) = pass(
        backend,
        kernels,
        &cyclic_shift(mask, dx, dy),
        &cyclic_shift(z, dx, dy),
    );
    (
        max_dev(&moved_aerial, &cyclic_shift(&aerial, dx, dy)),
        max_dev(&moved_gradient, &cyclic_shift(&gradient, dx, dy)),
    )
}

/// The imaging model is a sum of circular convolutions, so shifting the
/// mask (and the sensitivity) cyclically shifts the aerial image and
/// the gradient; only round-off may differ. Measured worst cases on the
/// 32² fixture: aerial 1.9e-16 and gradient 2.1e-17 at f64, aerial
/// 2.1e-7 and gradient 9.3e-9 at f32 (all on the reference backend's
/// direct sums), against aerial values of O(1) and gradients peaking
/// near 0.015. The bounds leave 5–50× margin.
#[test]
fn aerial_image_and_gradient_commute_with_cyclic_shifts() {
    let (kernels, mask, z) = fixture32();
    for (name, backend) in &all_backends::<f64>() {
        let (da, dg) = shift_gap(backend.as_ref(), &kernels, &mask, &z);
        assert!(da < 1e-14, "{name} f64 shifted aerial deviates by {da:e}");
        assert!(dg < 1e-15, "{name} f64 shifted gradient deviates by {dg:e}");
    }
    for (name, backend) in &all_backends::<f32>() {
        let (da, dg) = shift_gap(backend.as_ref(), &kernels, &mask, &z);
        assert!(da < 1e-6, "{name} f32 shifted aerial deviates by {da:e}");
        assert!(dg < 1e-7, "{name} f32 shifted gradient deviates by {dg:e}");
    }
}

/// A clear mask has only a DC component, so each kernel passes
/// `ĥ_k(0)` and every pixel prints `Σ μ_k |ĥ_k(0)|²`. Measured worst
/// cases on the 32² fixture: 1.8e-15 at f64 and 1.6e-6 at f32, both on
/// the reference backend's direct sums (the FFT backends are exact to
/// the last bit of the f32 result). Bounds 1e-12 and 1e-5.
#[test]
fn clear_field_prints_the_kernel_dc_energy() {
    let (kernels, _, _) = fixture32();
    let c = kernels.center();
    let expected: f64 = (0..kernels.len())
        .map(|k| kernels.weight(k) * kernels.spectrum(k)[(c, c)].norm_sqr())
        .sum();
    let uniform = Grid::from_fn(32, 32, |_, _| expected);
    let clear = Grid::from_fn(32, 32, |_, _| 1.0);
    for (name, backend) in &all_backends::<f64>() {
        let dev = max_dev(&backend.aerial_image(&kernels, &clear), &uniform);
        assert!(dev < 1e-12, "{name} f64 clear field deviates by {dev:e}");
    }
    let (kernels32, clear32) = (kernels.cast::<f32>(), clear.map(|_| 1.0f32));
    for (name, backend) in &all_backends::<f32>() {
        let dev = max_dev(&backend.aerial_image(&kernels32, &clear32), &uniform);
        assert!(dev < 1e-5, "{name} f32 clear field deviates by {dev:e}");
    }
}
