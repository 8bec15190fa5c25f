//! Property tests pinning the band-limited FFT backend, with its cached
//! plans, to a cache-free dense reference — bit for bit, not just to a
//! tolerance.
//!
//! The dense reference below rebuilds its plans per call (`Fft2d::new`,
//! `RfftPlan::new`), embeds each kernel spectrum densely
//! (`KernelSet::embed_full`) and runs full transforms. It takes the mask
//! spectrum from the same real-input transform the backend uses,
//! expanded to the full layout sample by sample with `HalfSpectrum::at`.
//! The backend reuses the plans of its cache, wraps only each kernel
//! window's non-zero samples onto the grid, reading the mask spectrum
//! straight from the half layout, and skips provably-zero spectrum
//! columns — every one of which is an exact-arithmetic rewrite, so the
//! outputs must be identical floats.

use lsopc_fft::{wrap_index, Fft2d, RfftPlan};
use lsopc_grid::{Grid, C64};
use lsopc_litho::{FftBackend, SimBackend};
use lsopc_optics::{KernelSet, OpticsConfig};
use proptest::prelude::*;

fn kernels(count: usize) -> KernelSet {
    OpticsConfig::iccad2013()
        .with_field_nm(128.0)
        .with_kernel_count(count)
        .kernels(0.0)
}

/// The mask spectrum in full DFT layout: a fresh real-input transform,
/// each sample read through the Hermitian accessor.
fn mask_spectrum(mask: &Grid<f64>) -> Grid<C64> {
    let (w, h) = mask.dims();
    let half = RfftPlan::<f64>::new(w, h).forward(mask);
    Grid::from_fn(w, h, |kx, ky| half.at(kx, ky))
}

/// Uncached dense aerial image: fresh plans, dense embeddings, full FFTs.
fn dense_aerial(kernels: &KernelSet, mask: &Grid<f64>) -> Grid<f64> {
    let (w, h) = mask.dims();
    let fft = Fft2d::<f64>::new(w, h);
    let mhat = mask_spectrum(mask);
    let mut intensity = Grid::new(w, h, 0.0);
    for k in 0..kernels.len() {
        let mut field = kernels.embed_full(k, w, h).zip_map(&mhat, |&s, &m| s * m);
        fft.inverse(&mut field);
        let wk = kernels.weight(k);
        for (dst, e) in intensity.as_mut_slice().iter_mut().zip(field.as_slice()) {
            *dst += wk * e.norm_sqr();
        }
    }
    intensity
}

/// Uncached dense gradient: fresh plans, dense embeddings, full FFTs.
fn dense_gradient(kernels: &KernelSet, mask: &Grid<f64>, z: &Grid<f64>) -> Grid<f64> {
    let (w, h) = mask.dims();
    let fft = Fft2d::<f64>::new(w, h);
    let mhat = mask_spectrum(mask);
    let mut acc: Grid<C64> = Grid::new(w, h, C64::ZERO);
    let c = kernels.center() as i64;
    for k in 0..kernels.len() {
        let mut field = kernels.embed_full(k, w, h).zip_map(&mhat, |&s, &m| s * m);
        fft.inverse(&mut field);
        for (fv, &zv) in field.as_mut_slice().iter_mut().zip(z.as_slice()) {
            *fv = fv.scale(zv);
        }
        fft.forward(&mut field);
        let window = kernels.spectrum(k);
        let wk = kernels.weight(k);
        for (i, j, &s) in window.iter_coords() {
            if s == C64::ZERO {
                continue;
            }
            let idx = (wrap_index(i as i64 - c, w), wrap_index(j as i64 - c, h));
            acc[idx] += s.conj() * field[idx].scale(wk);
        }
    }
    fft.inverse(&mut acc);
    acc.map(|v| 2.0 * v.re)
}

fn rect_mask(n: usize, x0: usize, y0: usize, dx: usize, dy: usize) -> Grid<f64> {
    Grid::from_fn(n, n, |x, y| {
        if (x0..x0 + dx).contains(&x) && (y0..y0 + dy).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

proptest! {
    /// Cached + banded aerial image is bit-identical to the dense
    /// uncached reference for arbitrary rectangle masks and kernel
    /// counts.
    #[test]
    fn cached_aerial_is_bit_identical_to_uncached(
        count in 1usize..=6,
        x0 in 0usize..24,
        y0 in 0usize..24,
        dx in 1usize..=8,
        dy in 1usize..=8,
    ) {
        let ks = kernels(count);
        let mask = rect_mask(32, x0, y0, dx, dy);
        let cached = FftBackend::new().aerial_image(&ks, &mask);
        let dense = dense_aerial(&ks, &mask);
        prop_assert_eq!(cached, dense);
    }

    /// Cached + banded gradient is bit-identical to the dense uncached
    /// reference, including the sparse adjoint accumulation order.
    #[test]
    fn cached_gradient_is_bit_identical_to_uncached(
        count in 1usize..=6,
        x0 in 0usize..24,
        y0 in 0usize..24,
        dx in 1usize..=8,
        dy in 1usize..=8,
        phase in 0.0f64..6.0,
    ) {
        let ks = kernels(count);
        let mask = rect_mask(32, x0, y0, dx, dy);
        let z = Grid::from_fn(32, 32, |x, y| {
            0.05 * ((x as f64 * 0.4 + phase).sin() + (y as f64 * 0.7).cos())
        });
        let cached = FftBackend::new().gradient(&ks, &mask, &z);
        let dense = dense_gradient(&ks, &mask, &z);
        prop_assert_eq!(cached, dense);
    }

    /// Repeated cached calls are deterministic: the cache introduces no
    /// state that changes results between the first (cold) and later
    /// (warm) invocations.
    #[test]
    fn warm_cache_reproduces_cold_results(
        count in 1usize..=4,
        x0 in 0usize..24,
        y0 in 0usize..24,
    ) {
        let ks = kernels(count);
        let mask = rect_mask(32, x0, y0, 6, 6);
        let backend = FftBackend::new();
        let first = backend.aerial_image(&ks, &mask);
        let second = backend.aerial_image(&ks, &mask);
        prop_assert_eq!(first, second);
    }
}
