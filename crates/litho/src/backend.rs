//! Simulation backends: the pluggable convolution engines.

use crate::caches::SimCaches;
use crate::spectra::EmbeddedSpectra;
use lsopc_fft::HalfSpectrum;
use lsopc_grid::{Complex, Grid, Scalar};
use lsopc_optics::KernelSet;
use lsopc_parallel::ParallelContext;
use std::ops::Range;

/// Folds per-kernel partial grids over the shared pool.
///
/// The kernel range is split into [`lsopc_parallel::REDUCE_CHUNKS`]
/// contiguous chunks (a constant — never the thread count); `chunk_fold`
/// accumulates each chunk's kernels into a fresh clone of `empty`, and
/// the partials are summed elementwise **in chunk order**. Serial and
/// parallel execution therefore run the exact same reduction tree and
/// produce bit-identical grids — this one routine is the accumulation
/// loop of every backend, so the paths cannot drift.
pub(crate) fn fold_kernel_grids<V>(
    ctx: &ParallelContext,
    count: usize,
    empty: &Grid<V>,
    chunk_fold: impl Fn(Range<usize>, &mut Grid<V>) + Sync,
) -> Grid<V>
where
    V: Copy + std::ops::AddAssign + Send + Sync,
{
    let _span = lsopc_trace::span!("litho.kernel_fold");
    ctx.par_map_reduce(
        count,
        |range| {
            let mut partial = empty.clone();
            chunk_fold(range, &mut partial);
            partial
        },
        |mut a, b| {
            for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
                *x += *y;
            }
            a
        },
    )
    .unwrap_or_else(|| empty.clone())
}

/// `dst += wk · |field|²` — the aerial-image accumulation shared by the
/// reference and FFT backends, at any scalar precision.
pub(crate) fn add_weighted_intensity<T: Scalar>(
    dst: &mut Grid<T>,
    field: &Grid<Complex<T>>,
    wk: T,
) {
    for (d, e) in dst.as_mut_slice().iter_mut().zip(field.as_slice()) {
        *d += wk * e.norm_sqr();
    }
}

/// Stored half-spectrum columns that a centred `size`-wide spectrum
/// window reaches. Its offsets `−size/2 ..= size/2` fold onto columns
/// `0..=size/2` by conjugate symmetry, on any grid at least `size` wide.
pub(crate) fn window_band(size: usize) -> usize {
    size / 2 + 1
}

/// The Hermitian half spectrum of a real mask on its leading `band`
/// stored columns (exactly zero beyond them), through the real-input
/// fast path ([`lsopc_fft::RfftPlan::forward_band_with`], the plan from
/// the backend's injected plan cache).
pub(crate) fn mask_spectrum<T: Scalar>(
    caches: &SimCaches,
    ctx: &ParallelContext,
    mask: &Grid<T>,
    band: usize,
) -> HalfSpectrum<T> {
    let (w, h) = mask.dims();
    caches.rplan_t::<T>(w, h).forward_band_with(ctx, mask, band)
}

/// `fields[i] ← h_{k_i} ⊗ M` for one chunk of kernels: per-kernel window
/// application from the half spectrum followed by **one** batched band
/// inverse over the whole chunk, so the pool sees every column FFT of
/// the chunk at once instead of one narrow fan-out per kernel.
/// Bit-identical to the sequential per-kernel transforms (see
/// [`lsopc_fft::Fft2d::inverse_band_batch`]).
///
/// Returns the chunk's kernel indices with their fields, in ascending
/// kernel order — callers accumulate in that order, preserving the
/// [`fold_kernel_grids`] determinism contract.
pub(crate) fn batched_kernel_fields<T: Scalar>(
    ctx: &ParallelContext,
    fft: &lsopc_fft::Fft2d<T>,
    spectra: &EmbeddedSpectra<T>,
    range: Range<usize>,
    mhat: &HalfSpectrum<T>,
) -> (Vec<usize>, Vec<Grid<Complex<T>>>) {
    let (w, h) = spectra.dims();
    let ks: Vec<usize> = range.collect();
    let mut fields: Vec<Grid<Complex<T>>> = ks
        .iter()
        .map(|&k| {
            let mut f = Grid::new(w, h, Complex::<T>::ZERO);
            spectra.apply_window_into_half(k, mhat, &mut f);
            f
        })
        .collect();
    let cols: Vec<&[usize]> = ks.iter().map(|&k| spectra.cols(k)).collect();
    fft.inverse_band_batch_with(ctx, &mut fields, &cols);
    (ks, fields)
}

/// A compute backend for the Hopkins imaging sum and its adjoint.
///
/// Implementations must produce identical results up to floating-point
/// rounding; they differ only in speed:
///
/// * [`ReferenceBackend`] — direct spatial convolution (tests only);
/// * [`FftBackend`] — per-kernel FFT convolution (the paper's CPU path);
/// * [`crate::AcceleratedBackend`] — band-limit-aware batched path (the
///   paper's GPU path, reproduced on CPU).
///
/// The trait is generic over the scalar precision `T` the convolutions
/// run at (`f64` default); every backend here implements it at both
/// `f32` and `f64`.
pub trait SimBackend<T: Scalar = f64>: Send + Sync + std::fmt::Debug {
    /// Human-readable backend name for reports.
    fn name(&self) -> &'static str;

    /// The aerial image `I = Σ_k μ_k |h_k ⊗ M|²` (paper Eq. (1)).
    ///
    /// # Panics
    ///
    /// Implementations panic if the mask dimensions are not powers of two
    /// or are too small for the kernel band.
    fn aerial_image(&self, kernels: &KernelSet<T>, mask: &Grid<T>) -> Grid<T>;

    /// The adjoint (gradient) map of the aerial image: given the
    /// sensitivity field `z = ∂L/∂I`, returns
    ///
    /// ```text
    /// ∂L/∂M = 2 Σ_k μ_k · Re{ h_k† ⊗ (z ⊙ (h_k ⊗ M)) }
    /// ```
    ///
    /// which is the inner structure of paper Eq. (11) (`h†` is the
    /// conjugate-flipped kernel; its spectrum is `conj(ĥ)`).
    ///
    /// # Panics
    ///
    /// Implementations panic if `mask` and `z` dimensions differ or are
    /// unsupported.
    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T>;

    /// Injects shared cache handles (FFT plans, embedded spectra).
    /// Backends that consult caches store the bundle and route every
    /// lookup through it; the default no-op suits cache-free backends
    /// such as [`ReferenceBackend`].
    fn set_caches(&mut self, caches: &SimCaches) {
        let _ = caches;
    }
}

/// Direct spatial-domain convolution, O(N⁴) per kernel.
///
/// Only useful to pin the correctness of the fast backends on tiny grids;
/// never use it in real optimization runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReferenceBackend;

impl ReferenceBackend {
    /// Creates the reference backend.
    pub fn new() -> Self {
        Self
    }
}

impl<T: Scalar> SimBackend<T> for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn aerial_image(&self, kernels: &KernelSet<T>, mask: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.reference.aerial");
        let (w, h) = mask.dims();
        let empty = Grid::new(w, h, T::ZERO);
        fold_kernel_grids(
            ParallelContext::global(),
            kernels.len(),
            &empty,
            |range, intensity| {
                for k in range {
                    let hk = kernels.spatial_kernel(k, w, h);
                    let field = convolve_direct(&hk, mask);
                    add_weighted_intensity(intensity, &field, kernels.weight(k));
                }
            },
        )
    }

    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.reference.gradient");
        assert_eq!(mask.dims(), z.dims(), "mask and z dimensions must match");
        let (w, h) = mask.dims();
        let empty = Grid::new(w, h, T::ZERO);
        let two = T::from_f64(2.0);
        fold_kernel_grids(
            ParallelContext::global(),
            kernels.len(),
            &empty,
            |range, grad| {
                for k in range {
                    let hk = kernels.spatial_kernel(k, w, h);
                    let e = convolve_direct(&hk, mask);
                    let wk = kernels.weight(k);
                    // G(u) += 2 μ_k Re{ Σ_x conj(h_k(x−u)) z(x) e_k(x) }.
                    for v in 0..h {
                        for u in 0..w {
                            let mut acc = Complex::<T>::ZERO;
                            for y in 0..h {
                                for x in 0..w {
                                    let hx = (x + w - u) % w;
                                    let hy = (y + h - v) % h;
                                    acc += hk[(hx, hy)].conj() * e[(x, y)].scale(z[(x, y)]);
                                }
                            }
                            grad[(u, v)] += two * wk * acc.re;
                        }
                    }
                }
            },
        )
    }
}

/// Cyclic convolution of a complex kernel with a real mask, direct sum.
fn convolve_direct<T: Scalar>(kernel: &Grid<Complex<T>>, mask: &Grid<T>) -> Grid<Complex<T>> {
    let (w, h) = mask.dims();
    Grid::from_fn(w, h, |x, y| {
        let mut acc = Complex::<T>::ZERO;
        for v in 0..h {
            for u in 0..w {
                let m = mask[(u, v)];
                if m != T::ZERO {
                    let kx = (x + w - u) % w;
                    let ky = (y + h - v) % h;
                    acc += kernel[(kx, ky)].scale(m);
                }
            }
        }
        acc
    })
}

/// Per-kernel FFT convolution — the paper's CPU implementation.
///
/// Each pass performs one real-input FFT of the mask (on the kernel
/// band's columns only) plus, per kernel,
/// one inverse FFT (aerial) or one inverse and one forward FFT
/// (gradient). All plans come from the process-wide plan cache
/// ([`lsopc_fft::plan`], [`lsopc_fft::rplan`]) and the embedded kernel
/// spectra from the per-`(KernelSet, grid size)` [`crate::SpectrumCache`], so
/// repeated calls (the optimizer loop) never rebuild twiddle tables or
/// re-embed spectra. The per-kernel transforms use the band-limited
/// variants ([`lsopc_fft::Fft2d::inverse_band`] /
/// [`lsopc_fft::Fft2d::forward_band`]), which skip the spectrum columns
/// the band provably leaves zero — bit-identical to the dense transforms
/// on these inputs, just cheaper.
///
/// The per-kernel accumulation fans out over the shared
/// [`ParallelContext`] pool, in a fixed chunk order; results are
/// bit-identical at every thread count.
#[derive(Debug, Default, Clone)]
pub struct FftBackend {
    /// `None` → [`ParallelContext::global`].
    ctx: Option<ParallelContext>,
    /// Cache handles; defaults to the process globals.
    caches: SimCaches,
}

impl FftBackend {
    /// Creates the FFT backend on the process-global [`ParallelContext`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the FFT backend on an explicit context (tests and
    /// thread-count sweeps).
    pub fn with_context(ctx: ParallelContext) -> Self {
        Self {
            ctx: Some(ctx),
            ..Self::default()
        }
    }

    fn ctx(&self) -> &ParallelContext {
        self.ctx
            .as_ref()
            .unwrap_or_else(|| ParallelContext::global())
    }
}

impl<T: Scalar> SimBackend<T> for FftBackend {
    fn name(&self) -> &'static str {
        "fft-cpu"
    }

    fn aerial_image(&self, kernels: &KernelSet<T>, mask: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.fft.aerial");
        let (w, h) = mask.dims();
        let fft = self.caches.plan_t::<T>(w, h);
        let spectra = self.caches.embedded(kernels, w, h);
        let ctx = self.ctx();
        let mhat = mask_spectrum(&self.caches, ctx, mask, window_band(kernels.support()));
        let empty = Grid::new(w, h, T::ZERO);
        fold_kernel_grids(ctx, kernels.len(), &empty, |range, intensity| {
            // The chunk's fields come from one batched band inverse;
            // accumulation stays in ascending-k order (bit-identical to
            // the sequential per-kernel path).
            let (ks, fields) = batched_kernel_fields(ctx, &fft, &spectra, range, &mhat);
            for (&k, field) in ks.iter().zip(&fields) {
                add_weighted_intensity(intensity, field, kernels.weight(k));
            }
        })
    }

    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.fft.gradient");
        assert_eq!(mask.dims(), z.dims(), "mask and z dimensions must match");
        let (w, h) = mask.dims();
        let fft = self.caches.plan_t::<T>(w, h);
        let spectra = self.caches.embedded(kernels, w, h);
        let ctx = self.ctx();
        let mhat = mask_spectrum(&self.caches, ctx, mask, window_band(kernels.support()));
        let empty: Grid<Complex<T>> = Grid::new(w, h, Complex::<T>::ZERO);
        let mut acc = fold_kernel_grids(ctx, kernels.len(), &empty, |range, acc| {
            // e_k = h_k ⊗ M for the whole chunk, one batched inverse.
            let (ks, mut fields) = batched_kernel_fields(ctx, &fft, &spectra, range, &mhat);
            // W = z ⊙ e_k, then Ŵ (needed only on the band columns) —
            // again one batched forward across the chunk.
            for field in fields.iter_mut() {
                for (fv, &zv) in field.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    *fv = fv.scale(zv);
                }
            }
            let cols: Vec<&[usize]> = ks.iter().map(|&k| spectra.cols(k)).collect();
            fft.forward_band_batch_with(ctx, &mut fields, &cols);
            // acc += μ_k · conj(Ŝ_k) ⊙ Ŵ (only the band is non-zero).
            for (&k, field) in ks.iter().zip(&fields) {
                spectra.accumulate_adjoint(k, field, kernels.weight(k), acc);
            }
        });
        fft.inverse_band_with(ctx, &mut acc, spectra.all_cols());
        let two = T::from_f64(2.0);
        acc.map(|v| two * v.re)
    }

    fn set_caches(&mut self, caches: &SimCaches) {
        self.caches = caches.clone();
    }
}

/// `Ŝ_k ⊙ M̂` with the sparse band-limited window (full grid elsewhere
/// zero), as a freshly allocated dense grid.
///
/// Builds the embedding uncached — for one-shot kernel sets (e.g. the
/// fused kernel of [`crate::fused_aerial_image`]) whose ids would only
/// churn the [`SpectrumCache`]. Hot paths use the cache directly.
pub(crate) fn apply_kernel_window<T: Scalar>(
    kernels: &KernelSet<T>,
    k: usize,
    mhat: &Grid<Complex<T>>,
) -> Grid<Complex<T>> {
    let (w, h) = mhat.dims();
    let spectra = EmbeddedSpectra::new(kernels, w, h);
    let mut out = Grid::new(w, h, Complex::<T>::ZERO);
    spectra.apply_window_into(k, mhat, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    fn tiny_kernels() -> KernelSet {
        OpticsConfig::iccad2013()
            .with_field_nm(128.0)
            .with_kernel_count(4)
            .kernels(0.0)
    }

    fn test_mask(n: usize) -> Grid<f64> {
        Grid::from_fn(n, n, |x, y| {
            if (n / 4..n / 2).contains(&x) && (n / 4..3 * n / 4).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    fn max_diff(a: &Grid<f64>, b: &Grid<f64>) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fft_matches_reference_aerial() {
        let kernels = tiny_kernels();
        let mask = test_mask(16);
        let ia = ReferenceBackend::new().aerial_image(&kernels, &mask);
        let ib = FftBackend::new().aerial_image(&kernels, &mask);
        assert!(max_diff(&ia, &ib) < 1e-10, "diff {}", max_diff(&ia, &ib));
    }

    #[test]
    fn fft_matches_reference_gradient() {
        let kernels = tiny_kernels();
        let mask = test_mask(16);
        // Arbitrary smooth sensitivity field.
        let z = Grid::from_fn(16, 16, |x, y| {
            ((x as f64 * 0.7).sin() + (y as f64 * 0.3).cos()) * 0.1
        });
        let ga = ReferenceBackend::new().gradient(&kernels, &mask, &z);
        let gb = FftBackend::new().gradient(&kernels, &mask, &z);
        assert!(max_diff(&ga, &gb) < 1e-10, "diff {}", max_diff(&ga, &gb));
    }

    #[test]
    fn gradient_matches_finite_difference_of_linear_functional() {
        // L(M) = Σ c(x)·I(x) has dL/dI = c, so backend.gradient(·, ·, c)
        // must equal the finite difference of L under pixel perturbations.
        let kernels = tiny_kernels();
        let n = 16;
        let mask = test_mask(n);
        let c = Grid::from_fn(n, n, |x, y| 0.05 + 0.01 * ((x * 3 + y * 5) % 7) as f64);
        let backend = FftBackend::new();
        let grad = backend.gradient(&kernels, &mask, &c);

        let functional = |m: &Grid<f64>| -> f64 {
            let i = backend.aerial_image(&kernels, m);
            i.as_slice()
                .iter()
                .zip(c.as_slice())
                .map(|(iv, cv)| iv * cv)
                .sum()
        };
        let h = 1e-5;
        for &(px, py) in &[(4usize, 4usize), (8, 8), (12, 3), (0, 0)] {
            let mut plus = mask.clone();
            plus[(px, py)] += h;
            let mut minus = mask.clone();
            minus[(px, py)] -= h;
            let fd = (functional(&plus) - functional(&minus)) / (2.0 * h);
            let an = grad[(px, py)];
            assert!(
                (fd - an).abs() < 1e-6 * (1.0 + fd.abs()),
                "pixel ({px},{py}): fd={fd}, analytic={an}"
            );
        }
    }

    #[test]
    fn aerial_of_clear_mask_is_unity() {
        let kernels = tiny_kernels();
        let mask = Grid::new(16, 16, 1.0);
        let i = FftBackend::new().aerial_image(&kernels, &mask);
        for (_, _, &v) in i.iter_coords() {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn aerial_intensity_is_nonnegative() {
        let kernels = tiny_kernels();
        let mask = test_mask(32);
        let i = FftBackend::new().aerial_image(&kernels, &mask);
        assert!(i.as_slice().iter().all(|&v| v >= -1e-12));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn gradient_shape_mismatch_panics() {
        let kernels = tiny_kernels();
        let mask = Grid::new(16, 16, 0.0);
        let z = Grid::new(32, 32, 0.0);
        let _ = FftBackend::new().gradient(&kernels, &mask, &z);
    }

    #[test]
    fn fft_backend_is_deterministic_across_thread_counts() {
        let kernels = tiny_kernels();
        let mask = test_mask(32);
        let serial = FftBackend::with_context(ParallelContext::new(1));
        let threaded = FftBackend::with_context(ParallelContext::new(4));
        assert_eq!(
            serial.aerial_image(&kernels, &mask).as_slice(),
            threaded.aerial_image(&kernels, &mask).as_slice(),
        );
        let z = Grid::from_fn(32, 32, |x, _| 0.01 * x as f64);
        assert_eq!(
            serial.gradient(&kernels, &mask, &z).as_slice(),
            threaded.gradient(&kernels, &mask, &z).as_slice(),
        );
    }
}
