//! The paper's Eq. (17) "general kernel" fusion — implemented as the
//! documented approximation it is.
//!
//! Eq. (17) proposes precomputing `H = Σ_k μ_k·h_k` and convolving once:
//! `M ⊗ H = Σ_k μ_k (M ⊗ h_k)`. That identity holds for the *linear*
//! combination of convolutions, but the aerial image is quadratic:
//! `Σ_k μ_k |h_k ⊗ M|² ≠ |Σ_k μ_k h_k ⊗ M|²` for a partially coherent
//! system (the cross terms differ). The fused image is the fully coherent
//! approximation of the partially coherent one; [`fused_aerial_image`]
//! exposes it and the tests quantify its error. The production simulation
//! paths always use the exact SOCS sum — see `DESIGN.md` §7 for the
//! deviation note.

use crate::backend::window_samples;
use lsopc_fft::Fft2d;
use lsopc_grid::{Grid, C64};
use lsopc_optics::KernelSet;

/// Builds the single fused kernel `H = Σ_k μ_k·h_k` of paper Eq. (17),
/// normalized to unit clear-field intensity.
///
/// # Example
///
/// ```
/// use lsopc_litho::fused_kernel;
/// use lsopc_optics::OpticsConfig;
///
/// let kernels = OpticsConfig::iccad2013()
///     .with_field_nm(256.0)
///     .with_kernel_count(8)
///     .kernels(0.0);
/// let fused = fused_kernel(&kernels);
/// assert_eq!(fused.len(), 1);
/// ```
pub fn fused_kernel(kernels: &KernelSet) -> KernelSet {
    let s = kernels.support();
    let mut spectrum = Grid::new(s, s, C64::ZERO);
    for k in 0..kernels.len() {
        let wk = kernels.weight(k);
        for (dst, &v) in spectrum
            .as_mut_slice()
            .iter_mut()
            .zip(kernels.spectrum(k).as_slice())
        {
            *dst += v.scale(wk);
        }
    }
    KernelSet::new(
        vec![spectrum],
        vec![1.0],
        kernels.period_nm(),
        kernels.defocus_nm(),
    )
    .normalized()
}

/// Aerial image under the fused single-kernel approximation,
/// `I ≈ |H ⊗ M|²`.
///
/// # Panics
///
/// Panics if the mask is smaller than the kernel band or not a power of
/// two.
pub fn fused_aerial_image(kernels: &KernelSet, mask: &Grid<f64>) -> Grid<f64> {
    let fused = fused_kernel(kernels);
    let (w, h) = mask.dims();
    let fft = Fft2d::<f64>::new(w, h);
    let mhat = fft.forward_real(mask);
    let mut field = Grid::new(w, h, C64::ZERO);
    for (fx, fy, s) in window_samples(&fused, 0, (w, h)) {
        field[(fx, fy)] = s * mhat[(fx, fy)];
    }
    fft.inverse(&mut field);
    field.map(|e| e.norm_sqr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FftBackend, SimBackend};
    use lsopc_optics::OpticsConfig;

    fn kernels() -> KernelSet {
        OpticsConfig::iccad2013()
            .with_field_nm(256.0)
            .with_kernel_count(12)
            .kernels(0.0)
    }

    fn mask() -> Grid<f64> {
        Grid::from_fn(64, 64, |x, y| {
            if (24..40).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn fused_clear_field_is_unity() {
        let fused = fused_kernel(&kernels());
        assert!((fused.clear_field_intensity() - 1.0).abs() < 1e-12);
        let clear = Grid::new(64, 64, 1.0);
        let img = fused_aerial_image(&kernels(), &clear);
        for (_, _, &v) in img.iter_coords() {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fusion_is_an_approximation_not_an_identity() {
        // The fused (coherent) image must differ measurably from the exact
        // partially coherent SOCS image — this pins the deviation note in
        // DESIGN.md §7.
        let ks = kernels();
        let m = mask();
        let exact = FftBackend::new().aerial_image(&ks, &m);
        let fused = fused_aerial_image(&ks, &m);
        let max_err = exact
            .as_slice()
            .iter()
            .zip(fused.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_err > 1e-3, "fusion unexpectedly exact, err={max_err}");
    }

    #[test]
    fn fusion_error_is_bounded_for_large_features() {
        // For features well above the resolution limit the approximation
        // tracks the exact image to within tens of percent — usable as a
        // fast preview, not for sign-off.
        let ks = kernels();
        let m = mask();
        let exact = FftBackend::new().aerial_image(&ks, &m);
        let fused = fused_aerial_image(&ks, &m);
        let (mut num, mut den) = (0.0, 0.0);
        for (a, b) in exact.as_slice().iter().zip(fused.as_slice()) {
            num += (a - b) * (a - b);
            den += a * a;
        }
        let rel = (num / den).sqrt();
        assert!(rel < 0.8, "relative L2 error {rel}");
    }

    #[test]
    fn fused_image_is_nonnegative() {
        let img = fused_aerial_image(&kernels(), &mask());
        assert!(img.as_slice().iter().all(|&v| v >= 0.0));
    }
}
