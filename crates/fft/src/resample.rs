//! Spectral (Fourier) resampling of periodic fields.
//!
//! Aerial images are band-limited, so a simulation computed on a coarse
//! grid can be rendered at any finer resolution *exactly* by zero-padding
//! its spectrum — the same identity the accelerated backend exploits
//! internally. [`upsample_spectral`] exposes it as a utility (e.g. for
//! writing 1 nm/px figures from an 8 nm/px simulation).

use crate::{wrap_index, Fft2d};
use lsopc_grid::{Complex, Grid, Scalar};

/// Upsamples a real periodic field by an integer factor via spectral
/// zero-padding.
///
/// Exact for band-limited fields (the output interpolates the input at
/// the original sample points); fields with content at the Nyquist
/// frequency have that bin split symmetrically so the output stays real.
/// Non-band-limited inputs (e.g. binary masks) will show Gibbs ringing —
/// that is the correct spectral interpolation, not an error.
///
/// Generic over the scalar precision `T` (`f32`/`f64`); both the small
/// and the upsampled transform run at `T` on plans built for the call.
/// The dense complex path is used deliberately — this is a one-shot
/// utility, not a hot loop — so the `f64` instantiation is bit-identical
/// to what it produced before the precision genericization.
///
/// # Panics
///
/// Panics if `factor` is zero, a dimension is not a power of two (FFT
/// requirement), or `dimension * factor` overflows `usize`.
///
/// # Example
///
/// ```
/// use lsopc_fft::upsample_spectral;
/// use lsopc_grid::Grid;
///
/// // A smooth band-limited field: one cosine period across the grid.
/// let n = 16;
/// let g = Grid::from_fn(n, n, |x, _| {
///     (2.0 * std::f64::consts::PI * x as f64 / n as f64).cos()
/// });
/// let up = upsample_spectral(&g, 4);
/// assert_eq!(up.dims(), (64, 64));
/// // The original samples are reproduced exactly.
/// assert!((up[(4 * 3, 0)] - g[(3, 0)]).abs() < 1e-12);
/// ```
pub fn upsample_spectral<T: Scalar>(g: &Grid<T>, factor: usize) -> Grid<T> {
    assert!(factor > 0, "factor must be positive");
    if factor == 1 {
        return g.clone();
    }
    let (w, h) = g.dims();
    let big_w = w
        .checked_mul(factor)
        .unwrap_or_else(|| panic!("upsampled width {w} * {factor} overflows usize"));
    let big_h = h
        .checked_mul(factor)
        .unwrap_or_else(|| panic!("upsampled height {h} * {factor} overflows usize"));
    let fft_small = Fft2d::<T>::new(w, h);
    let fft_big = Fft2d::<T>::new(big_w, big_h);
    let spectrum = fft_small.forward_real(g);

    let mut big = Grid::new(big_w, big_h, Complex::<T>::ZERO);
    // Copy centred frequencies; split the Nyquist row/column so the
    // padded spectrum keeps Hermitian symmetry (real output).
    let half_w = w as i64 / 2;
    let half_h = h as i64 / 2;
    let half = T::from_f64(0.5);
    for ky in -half_h..=half_h {
        for kx in -half_w..=half_w {
            let src = (wrap_index(kx, w), wrap_index(ky, h));
            let mut v = spectrum[src];
            let mut weight = T::ONE;
            if kx.abs() == half_w && w % 2 == 0 {
                weight *= half;
            }
            if ky.abs() == half_h && h % 2 == 0 {
                weight *= half;
            }
            if weight != T::ONE {
                v = v.scale(weight);
            }
            let dst = (wrap_index(kx, big_w), wrap_index(ky, big_h));
            big[dst] += v;
        }
    }
    let scale = T::from_usize(factor * factor);
    for v in big.as_mut_slice() {
        *v = v.scale(scale);
    }
    fft_big.inverse(&mut big);
    big.map(|v| v.re)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_field_stays_constant() {
        let g = Grid::new(8, 8, 2.5);
        let up = upsample_spectral(&g, 4);
        for (_, _, &v) in up.iter_coords() {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn factor_one_is_identity() {
        let g = Grid::from_fn(8, 8, |x, y| (x * 3 + y) as f64);
        assert_eq!(upsample_spectral(&g, 1), g);
    }

    #[test]
    fn band_limited_field_interpolates_exactly() {
        // Two low-frequency modes, well below Nyquist.
        let n = 16;
        let f = |x: f64, y: f64| {
            (2.0 * std::f64::consts::PI * 2.0 * x).cos()
                + 0.5 * (2.0 * std::f64::consts::PI * 3.0 * y).sin()
        };
        let g = Grid::from_fn(n, n, |x, y| f(x as f64 / n as f64, y as f64 / n as f64));
        let factor = 4;
        let up = upsample_spectral(&g, factor);
        // At every fine sample, the analytic value is reproduced.
        let big = n * factor;
        for y in 0..big {
            for x in 0..big {
                let expected = f(x as f64 / big as f64, y as f64 / big as f64);
                assert!(
                    (up[(x, y)] - expected).abs() < 1e-10,
                    "({x},{y}): {} vs {expected}",
                    up[(x, y)]
                );
            }
        }
    }

    #[test]
    fn output_is_real_even_with_nyquist_content() {
        // Alternating field = pure Nyquist mode; the split keeps the
        // upsampled output real and symmetric.
        let g = Grid::from_fn(8, 8, |x, y| if (x + y) % 2 == 0 { 1.0 } else { -1.0 });
        let up = upsample_spectral(&g, 2);
        // Original samples preserved.
        for y in 0..8 {
            for x in 0..8 {
                assert!((up[(2 * x, 2 * y)] - g[(x, y)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn mean_is_preserved() {
        let g = Grid::from_fn(16, 16, |x, y| ((x * 7 + y * 13) % 5) as f64);
        let up = upsample_spectral(&g, 4);
        let mean_in = g.sum() / g.len() as f64;
        let mean_out = up.sum() / up.len() as f64;
        assert!((mean_in - mean_out).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_panics() {
        let _ = upsample_spectral(&Grid::new(4, 4, 0.0), 0);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn pathological_factor_overflow_panics_cleanly() {
        let _ = upsample_spectral(&Grid::new(8, 8, 0.0), usize::MAX / 2);
    }

    #[test]
    fn f32_instantiation_tracks_f64() {
        let n = 16;
        let g64 = Grid::from_fn(n, n, |x, _| {
            (2.0 * std::f64::consts::PI * x as f64 / n as f64).cos()
        });
        let g32 = g64.map(|&v| v as f32);
        let up64 = upsample_spectral(&g64, 2);
        let up32 = upsample_spectral(&g32, 2);
        assert_eq!(up32.dims(), up64.dims());
        for (a, b) in up64.as_slice().iter().zip(up32.as_slice()) {
            assert!((a - f64::from(*b)).abs() < 1e-5);
        }
    }
}
