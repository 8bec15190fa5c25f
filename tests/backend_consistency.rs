//! The CPU and accelerated ("GPU") backends must be interchangeable: the
//! whole optimizer, not just single passes, must produce identical masks.
//! Single passes are also pinned against the direct-convolution
//! `ReferenceBackend`, the dense oracle that needs no FFT at all, and
//! every backend at both precisions must keep the imaging model's
//! invariants: the adjoint identity, cyclic-shift equivariance and the
//! clear-field intensity. The accelerated backend's one-call evaluation
//! must keep the bits of its separate passes.

use lsopc::prelude::*;
use lsopc_grid::Scalar;
use lsopc_litho::{AcceleratedBackend, FftBackend, ProcessCorners, ReferenceBackend, SimBackend};
use lsopc_optics::KernelSet;
use lsopc_parallel::ParallelContext;
use lsopc_trace::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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

/// Whether the accelerated gradient forms its window products as FFT
/// products on the coarse grid for `kernels` on an `n`² grid: that side
/// runs coarse forward transforms (`fft2d.forward`), the direct fold
/// none.
fn takes_fft_product(kernels: &KernelSet, n: usize) -> bool {
    let registry = Arc::new(MetricsRegistry::new());
    let zero = Grid::new(n, n, 0.0);
    lsopc_trace::with_scoped_sink(registry.clone(), || {
        AcceleratedBackend::new(1).gradient(kernels, &zero, &zero)
    });
    registry
        .span_paths()
        .iter()
        .any(|path| path.rsplit('/').next() == Some("fft2d.forward"))
}

/// Kernel sets on which one kernel's span `D` is large enough for the
/// accelerated gradient's FFT window product, on the 128² grid of
/// [`target`]: the production Abbe set on its 2048 nm field (16 nm/px,
/// S = 59 so 2S − 1 = 117 fits; D = 28, coarse grid 64²) at both foci,
/// and a TCC/SOCS set, whose kernels each span the union band (1024 nm,
/// K = 8: S = 31, D = 26).
fn fft_product_sets() -> [(&'static str, KernelSet); 3] {
    let abbe = OpticsConfig::iccad2013().with_kernel_count(24);
    let tcc = OpticsConfig::iccad2013()
        .with_field_nm(1024.0)
        .with_kernel_count(8);
    [
        ("abbe 2048 nm in focus", abbe.kernels(0.0)),
        ("abbe 2048 nm at 25 nm", abbe.kernels(25.0)),
        ("tcc 1024 nm", tcc.kernels_tcc(0.0)),
    ]
}

/// A smooth sensitivity field on an `n`² grid.
fn smooth_z(n: usize) -> Grid<f64> {
    Grid::from_fn(n, n, |x, y| {
        0.05 * ((x as f64 * 0.21).sin() + (y as f64 * 0.13).cos())
    })
}

#[test]
fn window_product_side_follows_the_cost_rule() {
    for (name, kernels) in fft_product_sets() {
        assert!(takes_fft_product(&kernels, 128), "{name}: FFT product");
    }
    // The 512 nm set of the adjoint test and the 256 nm set of the 32²
    // fixture: a few dozen samples per kernel, so the direct fold.
    let k512 = OpticsConfig::iccad2013()
        .with_field_nm(512.0)
        .with_kernel_count(8)
        .kernels(0.0);
    assert!(!takes_fft_product(&k512, 128), "512 nm: direct fold");
    let (k256, _, _) = fixture32();
    assert!(!takes_fft_product(&k256, 32), "256 nm: direct fold");
}

/// The FFT-product side against the per-kernel `FftBackend`: the f64
/// passes agree to 1e-10, and the f32 passes of both backends stay
/// within the f32 bounds of the f64 `FftBackend`, which itself matches
/// the direct-convolution oracle (above) at f64. Measured worst cases:
/// 1.1e-15 (aerial) and 1.7e-16 (gradient) at f64; at f32 5.1e-7 and
/// 4.3e-8, both on the accelerated backend (the `FftBackend`: 3.7e-7
/// and 4.1e-8).
#[test]
fn fft_product_passes_agree_with_the_fft_backend() {
    let (mask, z) = (target(), smooth_z(128));
    for (name, kernels) in fft_product_sets() {
        assert!(takes_fft_product(&kernels, 128), "premise: {name}");
        let (oracle_aerial, oracle_gradient) = pass::<f64>(&FftBackend::new(), &kernels, &mask, &z);
        let (aerial, gradient) = pass::<f64>(&AcceleratedBackend::new(1), &kernels, &mask, &z);
        let (da, dg) = (
            max_dev(&aerial, &oracle_aerial),
            max_dev(&gradient, &oracle_gradient),
        );
        assert!(da < 1e-10, "{name}: f64 aerial deviates by {da:e}");
        assert!(dg < 1e-10, "{name}: f64 gradient deviates by {dg:e}");
        let fast32: [(&str, Box<dyn SimBackend<f32>>); 2] = [
            ("fft", Box::new(FftBackend::new())),
            ("accelerated", Box::new(AcceleratedBackend::new(1))),
        ];
        for (backend_name, backend) in &fast32 {
            let (aerial, gradient) = pass(backend.as_ref(), &kernels, &mask, &z);
            let (da, dg) = (
                max_dev(&aerial, &oracle_aerial),
                max_dev(&gradient, &oracle_gradient),
            );
            assert!(
                da < F32_AERIAL_TOL,
                "{name}: {backend_name} f32 aerial deviates by {da:e}"
            );
            assert!(
                dg < F32_GRADIENT_TOL,
                "{name}: {backend_name} f32 gradient deviates by {dg:e}"
            );
        }
    }
}

/// The adjoint identity and cyclic-shift equivariance on the
/// FFT-product side, with the bounds of the 32² tests above. Measured
/// worst cases: adjoint gaps 2.0e-14 (f64) and 1.9e-6 (f32); shifted
/// aerial and gradient 1.3e-15 and 1.7e-16 at f64, 6.0e-7 and 6.0e-8 at
/// f32, against aerial values of O(1) and gradients peaking near 0.17.
#[test]
fn fft_product_side_keeps_the_adjoint_identity_and_shift_equivariance() {
    let (m, d, y) = adjoint_inputs(128);
    let (mask, z) = (target(), smooth_z(128));
    let accelerated = AcceleratedBackend::new(1);
    for (name, kernels) in fft_product_sets() {
        assert!(takes_fft_product(&kernels, 128), "premise: {name}");
        let gap64 = adjoint_gap::<f64>(&accelerated, &kernels, &m, &d, &y);
        let gap32 = adjoint_gap::<f32>(&accelerated, &kernels, &m, &d, &y);
        let (da64, dg64) = shift_gap::<f64>(&accelerated, &kernels, &mask, &z);
        let (da32, dg32) = shift_gap::<f32>(&accelerated, &kernels, &mask, &z);
        assert!(gap64 < 1e-12, "{name}: f64 adjoint gap {gap64:e}");
        assert!(gap32 < 1e-4, "{name}: f32 adjoint gap {gap32:e}");
        assert!(
            da64 < 1e-14,
            "{name}: f64 shifted aerial deviates by {da64:e}"
        );
        assert!(
            dg64 < 1e-15,
            "{name}: f64 shifted gradient deviates by {dg64:e}"
        );
        assert!(
            da32 < 1e-6,
            "{name}: f32 shifted aerial deviates by {da32:e}"
        );
        assert!(
            dg32 < 1e-7,
            "{name}: f32 shifted gradient deviates by {dg32:e}"
        );
    }
}

/// Forwards only the two passes to the accelerated backend, as the
/// benchmark's timing wrapper does, so its `evaluate` is the trait's
/// default: one `aerial_image` and one `gradient` call per focus.
#[derive(Debug)]
struct PassesOnly(AcceleratedBackend);

impl<T: Scalar> SimBackend<T> for PassesOnly
where
    AcceleratedBackend: SimBackend<T>,
{
    fn name(&self) -> &'static str {
        "passes-only"
    }

    fn aerial_image(&self, kernels: &KernelSet<T>, mask: &Grid<T>) -> Grid<T> {
        self.0.aerial_image(kernels, mask)
    }

    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T> {
        self.0.gradient(kernels, mask, z)
    }
}

/// The images `backend.evaluate` hands to its callback and, with
/// `with_gradient`, the gradient it returns. The callback derives each
/// focus's sensitivity from its image (as the cost's resist pass does)
/// and writes it over the image buffer, except at the second focus of
/// three, where it asks for no gradient pass. The image buffer starts
/// as NaN, so an image that is not fully written shows.
fn evaluation<T: Scalar>(
    backend: &dyn SimBackend<T>,
    foci: &[&KernelSet<T>],
    mask: &Grid<T>,
    with_gradient: bool,
) -> (Vec<Grid<T>>, Option<Grid<T>>) {
    let (w, h) = mask.dims();
    let mut images = Vec::new();
    let mut gradient = with_gradient.then(|| Grid::new(w, h, T::ZERO));
    let mut image = Grid::new(w, h, T::from_f64(f64::NAN));
    let threshold = T::from_f64(0.225);
    let skip = (foci.len() == 3).then_some(1);
    let mut on_image = |f: usize, image: &mut Grid<T>| {
        images.push(image.clone());
        if skip == Some(f) {
            return false;
        }
        image.apply(|v| *v = (*v - threshold) * *v);
        true
    };
    backend.evaluate(foci, mask, &mut image, &mut on_image, gradient.as_mut());
    (images, gradient)
}

/// Bit patterns of a grid, widened exactly to f64.
fn bits<T: Scalar>(g: &Grid<T>) -> Vec<u64> {
    g.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// `AcceleratedBackend::evaluate` (one mask forward, coarse fields shared
/// by image and gradient) against the default path over the same
/// backend's separate passes, at precision `T` on the global pool.
fn assert_evaluation_bits<T: Scalar>(what: &str, foci: &[KernelSet], mask: &Grid<f64>)
where
    AcceleratedBackend: SimBackend<T>,
{
    let foci: Vec<KernelSet<T>> = foci.iter().map(KernelSet::cast::<T>).collect();
    let foci: Vec<&KernelSet<T>> = foci.iter().collect();
    let mask = mask.map(|&v| T::from_f64(v));
    let backend = || AcceleratedBackend::with_context(ParallelContext::global().clone());
    for with_gradient in [true, false] {
        let (images, gradient) = evaluation(&backend(), &foci, &mask, with_gradient);
        let (separate_images, separate_gradient) =
            evaluation(&PassesOnly(backend()), &foci, &mask, with_gradient);
        assert_eq!(images.len(), foci.len(), "{what}: one image per focus");
        for (f, (image, separate)) in images.iter().zip(&separate_images).enumerate() {
            assert!(
                bits(image) == bits(separate),
                "{what}: image {f} differs (gradient: {with_gradient})"
            );
        }
        assert_eq!(gradient.is_some(), with_gradient);
        if let (Some(gradient), Some(separate)) = (gradient, separate_gradient) {
            assert!(
                lsopc_grid::max_abs(&gradient) > T::ZERO,
                "{what}: zero gradient"
            );
            assert!(
                bits(&gradient) == bits(&separate),
                "{what}: gradient differs"
            );
        }
    }
}

/// The engine's one-call evaluation must give exactly what a backend
/// wrapper that implements only the two passes gives (the benchmark's
/// traced solves take that path and must reproduce `Engine::submit`'s
/// masks): the same image bits to the callback and the same gradient
/// bits, at both precisions and on both sides of the window-product
/// rule, for the ICCAD corners (two foci) and for three foci. `check.sh`
/// runs the workspace at `LSOPC_THREADS=1` and `=4`.
#[test]
fn one_call_evaluation_keeps_the_bits_of_separate_passes() {
    let mut iccad = Vec::new();
    for corner in ProcessCorners::iccad2013().as_array() {
        if !iccad.contains(&corner.defocus_nm) {
            iccad.push(corner.defocus_nm);
        }
    }
    assert_eq!(iccad.len(), 2, "premise: the ICCAD corners have two foci");
    let mask = target();
    // 2048 nm on 128²: the FFT product; 512 nm: the direct fold.
    for (field_nm, count, fft_product) in [(2048.0, 24, true), (512.0, 8, false)] {
        let optics = OpticsConfig::iccad2013()
            .with_field_nm(field_nm)
            .with_kernel_count(count);
        for defoci in [iccad.clone(), vec![0.0, 25.0, 10.0]] {
            let foci: Vec<KernelSet> = defoci.iter().map(|&df| optics.kernels(df)).collect();
            for kernels in &foci {
                assert_eq!(
                    takes_fft_product(kernels, 128),
                    fft_product,
                    "premise: window-product side at {field_nm} nm"
                );
            }
            let what = format!("{field_nm} nm, foci {defoci:?}");
            assert_evaluation_bits::<f64>(&format!("{what}, f64"), &foci, &mask);
            assert_evaluation_bits::<f32>(&format!("{what}, f32"), &foci, &mask);
        }
    }
}

/// A symmetry of the square lattice that fixes the origin, applied to a
/// periodic `n`² grid.
#[derive(Clone, Copy, Debug)]
enum Symmetry {
    Rotate90,
    Transpose,
    MirrorX,
    MirrorY,
}

impl Symmetry {
    /// `out(x, y) = g(σ(x, y))`.
    fn apply<V: Copy>(self, g: &Grid<V>) -> Grid<V> {
        let n = g.width();
        let flip = |v: usize| (n - v) % n;
        Grid::from_fn(n, n, |x, y| match self {
            Symmetry::Rotate90 => g[(y, flip(x))],
            Symmetry::Transpose => g[(y, x)],
            Symmetry::MirrorX => g[(flip(x), y)],
            Symmetry::MirrorY => g[(x, flip(y))],
        })
    }
}

/// Largest deviation from equivariance under `sym` on `backend`, as
/// (aerial, gradient): the pass on mapped inputs against the mapped pass.
fn symmetry_gap<T: Scalar>(
    backend: &dyn SimBackend<T>,
    kernels: &KernelSet,
    mask: &Grid<f64>,
    z: &Grid<f64>,
    sym: Symmetry,
) -> (f64, f64) {
    let (aerial, gradient) = pass(backend, kernels, mask, z);
    let (mapped_aerial, mapped_gradient) = pass(backend, kernels, &sym.apply(mask), &sym.apply(z));
    (
        max_dev(&mapped_aerial, &sym.apply(&aerial)),
        max_dev(&mapped_gradient, &sym.apply(&gradient)),
    )
}

/// The 32² fixture's mask and sensitivity with the 256 nm kernel set of
/// `count` source points at `defocus_nm`.
fn symmetry_fixture(count: usize, defocus_nm: f64) -> (KernelSet, Grid<f64>, Grid<f64>) {
    let (_, mask, z) = fixture32();
    let kernels = OpticsConfig::iccad2013()
        .with_field_nm(256.0)
        .with_kernel_count(count)
        .kernels(defocus_nm);
    (kernels, mask, z)
}

/// Largest deviations over all three backends at f64 and f32, as
/// (f64 aerial, f64 gradient, f32 aerial, f32 gradient).
fn worst_symmetry_gaps(count: usize, defocus_nm: f64, sym: Symmetry) -> [f64; 4] {
    let (kernels, mask, z) = symmetry_fixture(count, defocus_nm);
    let mut worst = [0.0_f64; 4];
    for (_, backend) in &all_backends::<f64>() {
        let (da, dg) = symmetry_gap(backend.as_ref(), &kernels, &mask, &z, sym);
        worst[0] = worst[0].max(da);
        worst[1] = worst[1].max(dg);
    }
    for (_, backend) in &all_backends::<f32>() {
        let (da, dg) = symmetry_gap(backend.as_ref(), &kernels, &mask, &z, sym);
        worst[2] = worst[2].max(da);
        worst[3] = worst[3].max(dg);
    }
    worst
}

/// With K = 8 the sampler places two rings of four source points, one
/// on the axes and one on the diagonals, so the source, and with it the
/// imaging model, is symmetric under all eight symmetries of the square
/// (the pupil is radial). Every backend must commute with them, in focus
/// and defocused; the four maps below generate the group. Measured
/// worst cases over the three backends: 2.8e-16 (aerial) and 3.6e-17
/// (gradient) at f64, 2.1e-7 and 1.7e-8 at f32. The bounds are those of
/// the shift test.
#[test]
fn aerial_image_and_gradient_commute_with_the_square_symmetries() {
    for defocus in [0.0, 25.0] {
        for sym in [
            Symmetry::Rotate90,
            Symmetry::Transpose,
            Symmetry::MirrorX,
            Symmetry::MirrorY,
        ] {
            let [da64, dg64, da32, dg32] = worst_symmetry_gaps(8, defocus, sym);
            assert!(da64 < 1e-14, "{sym:?} at {defocus} nm: f64 aerial {da64:e}");
            assert!(
                dg64 < 1e-15,
                "{sym:?} at {defocus} nm: f64 gradient {dg64:e}"
            );
            assert!(da32 < 1e-6, "{sym:?} at {defocus} nm: f32 aerial {da32:e}");
            assert!(
                dg32 < 1e-7,
                "{sym:?} at {defocus} nm: f32 gradient {dg32:e}"
            );
        }
    }
}

/// Every ring the sampler places is symmetric under θ → −θ, so the
/// y-mirror holds at any source point count. At K = 24 the rings hold
/// 7, 8 and 9 points, which breaks the rotations, the transpose and the
/// x-mirror (ROADMAP item 4), so only the y-mirror is asserted here.
/// Measured worst cases: 2.2e-16 and 1.4e-17 at f64, 1.2e-7 and 7.5e-9
/// at f32.
#[test]
fn y_mirror_holds_for_the_production_source() {
    for defocus in [0.0, 25.0] {
        let [da64, dg64, da32, dg32] = worst_symmetry_gaps(24, defocus, Symmetry::MirrorY);
        assert!(
            da64 < 1e-14,
            "y-mirror at {defocus} nm: f64 aerial {da64:e}"
        );
        assert!(
            dg64 < 1e-15,
            "y-mirror at {defocus} nm: f64 gradient {dg64:e}"
        );
        assert!(da32 < 1e-6, "y-mirror at {defocus} nm: f32 aerial {da32:e}");
        assert!(
            dg32 < 1e-7,
            "y-mirror at {defocus} nm: f32 gradient {dg32:e}"
        );
    }
}
