//! The accelerated backend — this repository's substitute for the paper's
//! GPU implementation.
//!
//! The paper's GPU speedup (Section III-E) comes from three ingredients:
//! FFT-based convolution, precomputation across the kernel sum, and massive
//! parallelism. The first two are algorithmic and are reproduced exactly
//! here; the third is emulated with threads (see `DESIGN.md` for the full
//! substitution note).
//!
//! The algorithmic core exploits the band limit of the optical system.
//! Every kernel spectrum lives on an `S x S` window, and one kernel's
//! non-zero samples span at most `D + 1` of them per axis
//! ([`KernelSet::kernel_span`]): an Abbe kernel is the pupil shifted by
//! its source point, so at 2048 nm `D = 28` inside `S = 59`. Each
//! coherent field `e_k = h_k ⊗ M` is therefore *exactly* represented by
//! its samples on a coarse `n x n` grid with `n > D` (its band lands on
//! distinct bins), and its intensity `|e_k|²`, whose spectrum is the
//! autocorrelation of the kernel's support and so lies in `[−D, D]`
//! wherever the kernel sits, by those with `n ≥ 2D + 1`. The backend
//! sizes `n` as the smallest power of two `≥ 2D + 1` (at least 16,
//! clamped to the full grid) and:
//!
//! * computes all per-kernel fields and the aerial image on the coarse
//!   grid (K small IFFTs instead of K full-size ones), then upsamples the
//!   `2D + 1`-wide intensity window spectrally with **one** full-size
//!   inverse FFT — this is exact, not an approximation;
//! * assembles the gradient's band-limited spectrum from each kernel's
//!   window product `Σ_ν ê_k(ν)·Ẑ(κ − ν)`, which reads the sensitivity
//!   spectrum `Ẑ` only on `[−D, D]`, again finishing with a single
//!   full-size inverse FFT. The product is a direct fold over the
//!   kernel's non-zero samples or an FFT product on the coarse grid,
//!   whichever a cost rule on the per-kernel non-zero count and `n`
//!   picks for the kernel set (`DESIGN.md` §13).
//!
//! An evaluation is one [`SimBackend::evaluate`] call
//! ([`crate::evaluate_corners`]): it transforms the mask once for all its
//! foci, and per focus builds the K coarse fields once, for the aerial
//! image and for an FFT-product gradient alike. A focus then costs one
//! full-size inverse for its image and, with a gradient, one sensitivity
//! forward and one finishing inverse, where [`FftBackend`] runs
//! `3K + 3`. An evaluation of the three ICCAD corners, at two foci, runs
//! seven full-size transforms, and three without the gradient.
//! [`SimBackend::aerial_image`] and [`SimBackend::gradient`] are
//! one-focus uses of the same steps, each with its own mask forward.
//! This mirrors the paper's measured 71 % runtime reduction in structure
//! (Table II). Every transform has real input or real output, so all
//! run through the half-spectrum [`RfftPlan`], and each is a full row
//! pass plus a column pass over only the columns its window reaches, on
//! a spectrum that stores just those ([`RfftPlan::forward_band_with`],
//! [`RfftPlan::inverse_into`]; `DESIGN.md` §13): at 1024² and 2048 nm,
//! 30 (the mask and gradient windows, `S/2 + 1`) or 29 (the intensity
//! and sensitivity windows, `D + 1`) of 513. Both finishing inverses of
//! a focus land in the caller's image buffer, so an evaluation allocates
//! no full-size grid. Results match [`FftBackend`] to rounding, which
//! the test-suite pins.
//!
//! [`FftBackend`]: crate::FftBackend
//! [`RfftPlan`]: lsopc_fft::RfftPlan
//! [`RfftPlan::forward_band_with`]: lsopc_fft::RfftPlan::forward_band_with
//! [`RfftPlan::inverse_into`]: lsopc_fft::RfftPlan::inverse_into

use crate::backend::{
    add_into, fold_kernel_grids, mask_spectrum, window_band, OnImage, SimBackend,
};
use crate::caches::SimCaches;
use lsopc_fft::{wrap_index, Fft2d, HalfSpectrum};
use lsopc_grid::{Complex, Grid, Scalar};
use lsopc_optics::KernelSet;
use lsopc_parallel::ParallelContext;

/// Band-limit-aware batched simulation backend (the "GPU" path).
///
/// `threads` > 1 fans the per-kernel work out over the shared persistent
/// [`ParallelContext`] pool (no OS threads are spawned per call); on a
/// single-core host the algorithmic savings dominate.
///
/// # Example
///
/// ```
/// use lsopc_litho::{AcceleratedBackend, FftBackend, SimBackend};
/// use lsopc_grid::Grid;
/// use lsopc_optics::OpticsConfig;
///
/// let kernels = OpticsConfig::iccad2013()
///     .with_field_nm(256.0)
///     .with_kernel_count(6)
///     .kernels(0.0);
/// let mask = Grid::from_fn(64, 64, |x, y| if x > 20 && y > 30 { 1.0 } else { 0.0 });
/// let fast = AcceleratedBackend::new(1).aerial_image(&kernels, &mask);
/// let slow = FftBackend::new().aerial_image(&kernels, &mask);
/// let diff = fast
///     .as_slice()
///     .iter()
///     .zip(slow.as_slice())
///     .map(|(a, b)| (a - b).abs())
///     .fold(0.0, f64::max);
/// assert!(diff < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratedBackend {
    ctx: ParallelContext,
    /// The plan cache; a fresh one until a simulator injects its own.
    caches: SimCaches,
}

impl AcceleratedBackend {
    /// Creates the backend with the given thread fan-out (1 = serial),
    /// capping the shared global pool at `threads` lanes. A request for 0
    /// threads degrades to 1 with a logged warning instead of panicking.
    pub fn new(threads: usize) -> Self {
        let threads = lsopc_parallel::sanitize_thread_count(threads, "AcceleratedBackend::new");
        Self {
            ctx: ParallelContext::global().with_max_threads(threads),
            caches: SimCaches::default(),
        }
    }

    /// Creates the backend on an explicit context (tests and thread-count
    /// sweeps), fanning out over up to `ctx.threads()` lanes.
    pub fn with_context(ctx: ParallelContext) -> Self {
        Self {
            ctx,
            caches: SimCaches::default(),
        }
    }
}

impl Default for AcceleratedBackend {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Extracts the centred `size x size` window of a full DFT-layout spectrum
/// (offset 0 at the window centre).
fn centered_window<T: Scalar>(full: &Grid<Complex<T>>, size: usize) -> Grid<Complex<T>> {
    let (w, h) = full.dims();
    let c = (size / 2) as i64;
    Grid::from_fn(size, size, |i, j| {
        full[(wrap_index(i as i64 - c, w), wrap_index(j as i64 - c, h))]
    })
}

/// [`centered_window`] of the full spectrum a Hermitian half stores,
/// reconstructing mirrored samples through [`HalfSpectrum::at`]'s
/// conjugate symmetry.
fn centered_window_half<T: Scalar>(half: &HalfSpectrum<T>, size: usize) -> Grid<Complex<T>> {
    let (w, h) = half.dims();
    let c = (size / 2) as i64;
    Grid::from_fn(size, size, |i, j| {
        half.at(wrap_index(i as i64 - c, w), wrap_index(j as i64 - c, h))
    })
}

/// Embeds a centred window into a `w x h` spectrum in the Hermitian half
/// layout, stored on the `size/2 + 1` columns the window reaches: each
/// window sample is accumulated as its Hermitian projection, so the rfft
/// inverse of the result equals the real part a dense inverse of the
/// full embedding would produce (see
/// [`HalfSpectrum::accumulate_hermitian`]).
fn embed_window_half<T: Scalar>(window: &Grid<Complex<T>>, w: usize, h: usize) -> HalfSpectrum<T> {
    let size = window.width();
    let c = (size / 2) as i64;
    let mut half = HalfSpectrum::with_band(w, h, window_band(size));
    for (i, j, &v) in window.iter_coords() {
        half.accumulate_hermitian(wrap_index(i as i64 - c, w), wrap_index(j as i64 - c, h), v);
    }
    half
}

/// Coarse grid side for a kernel set of span `D` on a grid `full`
/// samples wide: the smallest power of two holding `2D + 1`, at least 16,
/// clamped to the full grid.
///
/// The clamp handles the degenerate small-grid case: when the full grid
/// cannot hold `2D + 1` samples, the "coarse" grid is the full grid and
/// the band computation degenerates to the exact full-size one — the
/// same aliasing [`FftBackend`] produces. One kernel's `D + 1` samples
/// still land on distinct bins there, since the grid holds the `S`-wide
/// window.
///
/// [`FftBackend`]: crate::FftBackend
fn coarse_side(span: usize, full: usize) -> usize {
    (2 * span + 1).next_power_of_two().max(16).min(full)
}

/// One kernel's field `e_k = IFFT(ĥ_k·M̂)` on the `n x n` coarse grid,
/// from its centred spectrum `window` and the mask spectrum's window.
///
/// Each non-zero sample goes to its wrapped bin. One kernel's samples
/// span at most `D + 1 ≤ n` per axis, so no two share a bin, and the
/// result is `n²/(w·h)` times the exact field at every `(w/n)`-th
/// sample of the `w x h` grid.
fn coarse_field<T: Scalar>(
    fft: &Fft2d<T>,
    window: &Grid<Complex<T>>,
    m_window: &Grid<Complex<T>>,
    n: usize,
) -> Grid<Complex<T>> {
    let c = (window.width() / 2) as i64;
    let mut ehat = Grid::new(n, n, Complex::<T>::ZERO);
    for (i, j, &sv) in window.iter_coords() {
        if sv != Complex::<T>::ZERO {
            ehat[(wrap_index(i as i64 - c, n), wrap_index(j as i64 - c, n))] =
                sv * m_window[(i, j)];
        }
    }
    fft.inverse(&mut ehat);
    ehat
}

/// Whether the gradient forms each kernel's window product
/// `X̂(κ) = Σ_ν ê_k(ν)·Ẑ(κ − ν)` as an FFT product on the `n x n` coarse
/// grid rather than by the direct fold.
///
/// The direct fold costs `nnz²` complex multiply-adds per kernel, with
/// `nnz` = [`KernelSet::max_nonzeros`]; the FFT product costs two `n²`
/// transforms and a pointwise product, modelled as `3·n²·log₂(n²)`. The
/// factor 3 puts the switch at the measured crossover for `n = 64`
/// (`DESIGN.md` §13). At 2048 nm (`nnz` = 651, `n` = 64) the rule takes
/// the FFT product; at 512 nm (`nnz` = 41, `n` = 16) the direct fold.
fn fft_window_product(nonzeros: usize, n: usize) -> bool {
    let log2_n2 = 2 * n.trailing_zeros() as usize;
    nonzeros * nonzeros > 3 * n * n * log2_n2
}

/// One kernel set's sizes on a `w x h` grid: the kernel window `S`, one
/// kernel's span `D`, the coarse side `n` and the side of the gradient's
/// window product.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    w: usize,
    h: usize,
    s: usize,
    d: usize,
    n: usize,
    fft_product: bool,
}

impl Sizes {
    /// The sizes of an aerial pass; with `gradient`, also checks that the
    /// grid holds the doubled band `2S − 1` the gradient needs.
    fn new<T: Scalar>(kernels: &KernelSet<T>, (w, h): (usize, usize), gradient: bool) -> Self {
        let s = kernels.support();
        assert!(
            w >= s && h >= s,
            "grid {w}x{h} too small for kernel support {s}"
        );
        if gradient {
            assert!(
                w >= 2 * s - 1 && h >= 2 * s - 1,
                "grid {w}x{h} too small for doubled band {}",
                2 * s - 1
            );
        }
        let d = kernels.kernel_span();
        // With the doubled band, the grid holds 2S − 1 ≥ 2D + 1 samples,
        // so n ≥ 2D + 1.
        let n = coarse_side(d, w.min(h));
        Self {
            w,
            h,
            s,
            d,
            n,
            fft_product: fft_window_product(kernels.max_nonzeros(), n),
        }
    }
}

impl AcceleratedBackend {
    /// The centred `S`-window of the mask spectrum for each kernel set,
    /// from **one** full-size forward FFT over the widest band's columns
    /// (each stored column is transformed on its own, so a narrower
    /// window reads the same bits). The full spectrum is dropped once the
    /// windows are cut.
    fn mask_windows<T: Scalar>(
        &self,
        foci: &[&KernelSet<T>],
        mask: &Grid<T>,
    ) -> Vec<Grid<Complex<T>>> {
        let Some(band) = foci.iter().map(|k| window_band(k.support())).max() else {
            return Vec::new();
        };
        let mhat = mask_spectrum(&self.caches, &self.ctx, mask, band);
        foci.iter()
            .map(|k| centered_window_half(&mhat, k.support()))
            .collect()
    }

    /// Every kernel's coarse field `e_k` ([`coarse_field`]), in kernel
    /// order: K coarse inverse FFTs. The aerial image reads their
    /// intensities, and the FFT-product gradient reuses them.
    fn coarse_fields<T: Scalar>(
        &self,
        kernels: &KernelSet<T>,
        m_window: &Grid<Complex<T>>,
        n: usize,
    ) -> Vec<Grid<Complex<T>>> {
        let fft_coarse = self.caches.plan_t::<T>(n, n);
        self.ctx.par_map(kernels.len(), |k| {
            coarse_field(&fft_coarse, kernels.spectrum(k), m_window, n)
        })
    }

    /// The aerial image's spectrum window from the kernels' coarse
    /// fields, ready for [`Self::finish_into`].
    fn image_window<T: Scalar>(
        &self,
        kernels: &KernelSet<T>,
        fields: &[Grid<Complex<T>>],
        sizes: Sizes,
    ) -> Grid<Complex<T>> {
        let Sizes { w, h, d, n, .. } = sizes;
        // e at full-grid sample points equals the coarse IFFT scaled by
        // n²/(w·h).
        let scale = T::from_f64((n * n) as f64 / (w * h) as f64);
        let empty = Grid::new(n, n, T::ZERO);
        let accumulate = |range: std::ops::Range<usize>, partial: &mut Grid<T>| {
            for k in range {
                let wk = kernels.weight(k) * scale * scale;
                for (dst, e) in partial.as_mut_slice().iter_mut().zip(fields[k].as_slice()) {
                    *dst += wk * e.norm_sqr();
                }
            }
        };
        let coarse_intensity = fold_kernel_grids(&self.ctx, kernels.len(), &empty, accumulate);

        // Exact spectral upsampling: each |e_k|² is band-limited to
        // [−D, D], and n ≥ 2D + 1 unless n is the full grid.
        let mut ihat_c = coarse_intensity.map(|&v| Complex::from_real(v));
        self.caches.plan_t::<T>(n, n).forward(&mut ihat_c);
        let size = n.min(2 * d + 1);
        let mut window = centered_window(&ihat_c, size);
        // A power of two, so scaling the window is exact.
        let up = T::from_f64((w * h) as f64 / (n * n) as f64);
        window.apply(|v| *v = v.scale(up));
        window
    }

    /// The gradient's spectrum window from the mask's `S`-window and the
    /// sensitivity `z`, ready for [`Self::finish_into`]. `fields`, the
    /// kernels' coarse fields, must be given exactly when
    /// `sizes.fft_product` picks the FFT product.
    fn gradient_window<T: Scalar>(
        &self,
        kernels: &KernelSet<T>,
        m_window: &Grid<Complex<T>>,
        fields: Option<&[Grid<Complex<T>>]>,
        z: &Grid<T>,
        sizes: Sizes,
    ) -> Grid<Complex<T>> {
        let Sizes { w, h, s, d, n, .. } = sizes;
        // One full-size forward FFT, on the columns its window reads.
        // Ẑ on [−D, D]²: κ − ν for two samples of one kernel stays there.
        let zw = 2 * d + 1;
        let z_window = centered_window_half(
            &mask_spectrum(&self.caches, &self.ctx, z, window_band(zw)),
            zw,
        );
        let cd = d as i64;
        let c = (s / 2) as i64;
        let inv_wh = T::from_f64(1.0 / (w * h) as f64);

        // The FFT product's coarse plan and sensitivity: Ẑ on [−D, D]²
        // sampled on the coarse grid and scaled by n², so the forward
        // transform of e_k·z_c is Σ_ν ê_k(ν)·Ẑ(κ − ν) on n-periodic bins.
        // That product spans [x0 − D, x1 + D] for a kernel on [x0, x1], so
        // it folds onto the kernel's own bins only if n ≤ 2D: it is
        // alias-free.
        let fft_product = fields.map(|fields| {
            let fft_coarse = self.caches.plan_t::<T>(n, n);
            let mut zc = Grid::new(n, n, Complex::<T>::ZERO);
            for (i, j, &v) in z_window.iter_coords() {
                zc[(wrap_index(i as i64 - cd, n), wrap_index(j as i64 - cd, n))] = v;
            }
            fft_coarse.inverse(&mut zc);
            // A power of two, so the scaling is exact.
            let n2 = T::from_f64((n * n) as f64);
            zc.apply(|v| *v = v.scale(n2));
            (fft_coarse, zc, fields)
        });

        // Per kernel: X̂(κ) = (1/WH)·Σ_ν ê_k(ν)·Ẑ(κ−ν) on the S-window,
        // then acc(κ) += μ_k·conj(Ŝ_k(κ))·X̂(κ).
        let empty = Grid::new(s, s, Complex::<T>::ZERO);
        let accumulate = |range: std::ops::Range<usize>, acc: &mut Grid<Complex<T>>| {
            for k in range {
                let window = kernels.spectrum(k);
                let wk = kernels.weight(k);
                let bins = || {
                    window
                        .iter_coords()
                        .filter(|&(_, _, &sv)| sv != Complex::<T>::ZERO)
                };
                match &fft_product {
                    // FFT product: e_k·z_c on the coarse grid, read back at
                    // the kernel's own bins.
                    Some((fft_coarse, zc, fields)) => {
                        let mut field = fields[k].zip_map(zc, |&e, &zv| e * zv);
                        fft_coarse.forward(&mut field);
                        for (i, j, &sk) in bins() {
                            let x =
                                field[(wrap_index(i as i64 - c, n), wrap_index(j as i64 - c, n))];
                            acc[(i, j)] += sk.conj() * x.scale(wk * inv_wh);
                        }
                    }
                    // Direct fold over the sparse list of the kernel's
                    // non-zero band samples.
                    None => {
                        let ehat: Vec<(i64, i64, Complex<T>)> = bins()
                            .map(|(i, j, &sv)| (i as i64 - c, j as i64 - c, sv * m_window[(i, j)]))
                            .collect();
                        for (i, j, &sk) in bins() {
                            let kx = i as i64 - c;
                            let ky = j as i64 - c;
                            let mut x = Complex::<T>::ZERO;
                            for &(nx, ny, ev) in &ehat {
                                let zx = (kx - nx + cd) as usize;
                                let zy = (ky - ny + cd) as usize;
                                x += ev * z_window[(zx, zy)];
                            }
                            acc[(i, j)] += sk.conj() * x.scale(wk * inv_wh);
                        }
                    }
                }
            }
        };
        let mut acc_window = fold_kernel_grids(&self.ctx, kernels.len(), &empty, accumulate);
        // The gradient is 2·Re(IFFT(acc)); the Hermitian projection of
        // the finishing inverse computes exactly that real part, and
        // doubling the window instead of the output is exact.
        let two = T::from_f64(2.0);
        acc_window.apply(|v| *v = v.scale(two));
        acc_window
    }

    /// One full-size real-output inverse FFT of a centred spectrum
    /// `window` into `out`, straight from the half layout and over the
    /// window's columns only: the finishing step of every pass.
    fn finish_into<T: Scalar>(&self, window: &Grid<Complex<T>>, out: &mut Grid<T>) {
        let (w, h) = out.dims();
        let half = embed_window_half(window, w, h);
        self.caches
            .rplan_t::<T>(w, h)
            .inverse_into(&self.ctx, half, out);
    }

    /// [`Self::finish_into`] a fresh grid.
    fn finish<T: Scalar>(&self, window: &Grid<Complex<T>>, sizes: Sizes) -> Grid<T> {
        let mut out = Grid::new(sizes.w, sizes.h, T::ZERO);
        self.finish_into(window, &mut out);
        out
    }
}

impl<T: Scalar> SimBackend<T> for AcceleratedBackend {
    fn name(&self) -> &'static str {
        "accelerated"
    }

    fn aerial_image(&self, kernels: &KernelSet<T>, mask: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.accel.aerial");
        let sizes = Sizes::new(kernels, mask.dims(), false);
        let m_window = &self.mask_windows(&[kernels], mask)[0];
        let fields = self.coarse_fields(kernels, m_window, sizes.n);
        self.finish(&self.image_window(kernels, &fields, sizes), sizes)
    }

    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.accel.gradient");
        assert_eq!(mask.dims(), z.dims(), "mask and z dimensions must match");
        let sizes = Sizes::new(kernels, mask.dims(), true);
        let m_window = &self.mask_windows(&[kernels], mask)[0];
        let fields = sizes
            .fft_product
            .then(|| self.coarse_fields(kernels, m_window, sizes.n));
        let window = self.gradient_window(kernels, m_window, fields.as_deref(), z, sizes);
        self.finish(&window, sizes)
    }

    /// One mask forward for every focus; per focus, the coarse fields of
    /// the aerial image feed the FFT-product gradient too. Both finishing
    /// inverses land in `image`: the aerial image, then, once the
    /// sensitivity written over it has been transformed, the focus's
    /// gradient, which is added into `gradient`. Every image and the
    /// gradient keep the bits of the default's separate passes.
    fn evaluate(
        &self,
        foci: &[&KernelSet<T>],
        mask: &Grid<T>,
        image: &mut Grid<T>,
        on_image: &mut OnImage<'_, T>,
        mut gradient: Option<&mut Grid<T>>,
    ) {
        assert_eq!(
            image.dims(),
            mask.dims(),
            "image and mask dimensions must match"
        );
        let with_gradient = gradient.is_some();
        let sizes: Vec<Sizes> = foci
            .iter()
            .map(|k| Sizes::new(k, mask.dims(), with_gradient))
            .collect();
        let m_windows = self.mask_windows(foci, mask);
        for (f, &kernels) in foci.iter().enumerate() {
            let _focus = lsopc_trace::span!("litho.focus");
            let (m_window, sizes) = (&m_windows[f], sizes[f]);
            let fields = {
                let _span = lsopc_trace::span!("backend.accel.aerial");
                let fields = self.coarse_fields(kernels, m_window, sizes.n);
                self.finish_into(&self.image_window(kernels, &fields, sizes), image);
                fields
            };
            if !on_image(f, image) {
                continue;
            }
            if let Some(gradient) = gradient.as_deref_mut() {
                let _span = lsopc_trace::span!("backend.accel.gradient");
                let fields = sizes.fft_product.then_some(fields.as_slice());
                let window = self.gradient_window(kernels, m_window, fields, image, sizes);
                self.finish_into(&window, image);
                add_into(gradient, image);
            }
        }
    }

    fn set_caches(&mut self, caches: &SimCaches) {
        self.caches = caches.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FftBackend;
    use lsopc_optics::OpticsConfig;

    fn kernels(field: f64, count: usize) -> KernelSet {
        OpticsConfig::iccad2013()
            .with_field_nm(field)
            .with_kernel_count(count)
            .kernels(0.0)
    }

    fn test_mask(n: usize) -> Grid<f64> {
        Grid::from_fn(n, n, |x, y| {
            let a = (n / 8..n / 2).contains(&x) && (n / 4..n / 2).contains(&y);
            let b = (5 * n / 8..7 * n / 8).contains(&x) && (n / 8..7 * n / 8).contains(&y);
            if a || b {
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
    fn aerial_matches_fft_backend_exactly() {
        let ks = kernels(512.0, 8);
        let mask = test_mask(128);
        let fast = AcceleratedBackend::new(1).aerial_image(&ks, &mask);
        let slow = FftBackend::new().aerial_image(&ks, &mask);
        let d = max_diff(&fast, &slow);
        assert!(d < 1e-11, "aerial image diff {d}");
    }

    #[test]
    fn gradient_matches_fft_backend_exactly() {
        let ks = kernels(512.0, 8);
        let mask = test_mask(128);
        let z = Grid::from_fn(128, 128, |x, y| {
            0.02 * ((x as f64 * 0.21).sin() + (y as f64 * 0.13).cos())
        });
        let fast = AcceleratedBackend::new(1).gradient(&ks, &mask, &z);
        let slow = FftBackend::new().gradient(&ks, &mask, &z);
        let d = max_diff(&fast, &slow);
        assert!(d < 1e-11, "gradient diff {d}");
    }

    #[test]
    fn threaded_results_are_identical_to_serial() {
        let ks = kernels(512.0, 9);
        let mask = test_mask(64);
        let serial = AcceleratedBackend::new(1);
        let threaded = AcceleratedBackend::new(3);
        let d1 = max_diff(
            &serial.aerial_image(&ks, &mask),
            &threaded.aerial_image(&ks, &mask),
        );
        let z = Grid::from_fn(64, 64, |x, _| 0.01 * x as f64);
        let d2 = max_diff(
            &serial.gradient(&ks, &mask, &z),
            &threaded.gradient(&ks, &mask, &z),
        );
        assert!(d1 < 1e-12 && d2 < 1e-12, "d1={d1}, d2={d2}");
    }

    #[test]
    fn clear_field_is_unity() {
        let ks = kernels(512.0, 8);
        let mask = Grid::new(128, 128, 1.0);
        let i = AcceleratedBackend::new(1).aerial_image(&ks, &mask);
        for (_, _, &v) in i.iter_coords() {
            assert!((v - 1.0).abs() < 1e-9, "intensity {v}");
        }
    }

    #[test]
    fn small_grid_aerial_matches_fft_backend() {
        // 16×16 grids that hold the kernel window S but not the doubled
        // band 2S − 1. The coarse side (the smallest power of two
        // ≥ 2D + 1, at least 16, clamped to the grid) is then the full
        // grid, and the backend degenerates to the exact full-size path
        // (including the same aliasing as FftBackend) instead of
        // panicking while embedding an oversized window. The Abbe set
        // reaches the full grid through the floor of 16; each TCC kernel
        // spans the union band, so at 320 nm 2D + 1 > 16 and the clamp
        // engages.
        let tcc = OpticsConfig::iccad2013()
            .with_field_nm(320.0)
            .with_kernel_count(8)
            .kernels_tcc(0.0);
        assert!(
            2 * tcc.kernel_span() + 1 > 16,
            "premise: the clamp must engage (D = {})",
            tcc.kernel_span()
        );
        let mask = test_mask(16);
        for ks in [kernels(256.0, 24), tcc] {
            let s = ks.support();
            assert!(
                s <= 16 && 2 * s - 1 > 16,
                "premise: the grid holds S but not 2S − 1 (S = {s})"
            );
            assert_eq!(coarse_side(ks.kernel_span(), 16), 16);
            let fast = AcceleratedBackend::new(2).aerial_image(&ks, &mask);
            let slow = FftBackend::new().aerial_image(&ks, &mask);
            let d = max_diff(&fast, &slow);
            assert!(d < 1e-11, "aerial image diff {d} (S = {s})");
        }
    }

    #[test]
    fn coarse_grid_and_window_product_follow_one_kernels_span() {
        // 2048 nm: D = 28, so n = 64 (not 128 for 2S − 1 = 117) at any
        // grid that holds it, and 651 samples per kernel take the FFT
        // product. 512 nm: D = 7, so n = 16, and 41 samples fold
        // directly.
        let wide = kernels(2048.0, 24);
        assert_eq!((wide.kernel_span(), wide.max_nonzeros()), (28, 651));
        for full in [128, 512, 1024] {
            assert_eq!(coarse_side(wide.kernel_span(), full), 64);
        }
        assert!(fft_window_product(wide.max_nonzeros(), 64));
        let tile = kernels(512.0, 24);
        assert_eq!((tile.kernel_span(), tile.max_nonzeros()), (7, 41));
        assert_eq!(coarse_side(tile.kernel_span(), 256), 16);
        assert!(!fft_window_product(tile.max_nonzeros(), 16));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_undersized_grid() {
        let ks = kernels(2048.0, 4); // support 59 > 32
        let mask = Grid::new(32, 32, 0.0);
        let _ = AcceleratedBackend::new(1).aerial_image(&ks, &mask);
    }

    #[test]
    fn zero_threads_degrades_to_one() {
        let backend = AcceleratedBackend::new(0);
        assert_eq!(backend.ctx.threads(), 1);
        // The degraded backend still computes correctly.
        let ks = kernels(512.0, 4);
        let mask = test_mask(64);
        let a = backend.aerial_image(&ks, &mask);
        let b = AcceleratedBackend::new(1).aerial_image(&ks, &mask);
        assert_eq!(a, b);
    }

    #[test]
    fn hot_paths_spawn_no_threads_after_construction() {
        // The pool spawns its workers once, at construction; repeated
        // aerial/gradient calls must never spawn again.
        let ctx = lsopc_parallel::ParallelContext::new(3);
        let backend = AcceleratedBackend::with_context(ctx.clone());
        let baseline = ctx.os_threads_spawned();
        assert!(baseline <= 2, "pool spawned {baseline} > workers");
        let ks = kernels(512.0, 8);
        let mask = test_mask(64);
        let z = Grid::from_fn(64, 64, |x, _| 0.01 * x as f64);
        for _ in 0..5 {
            let _ = backend.aerial_image(&ks, &mask);
            let _ = backend.gradient(&ks, &mask, &z);
        }
        assert!(
            ctx.os_threads_spawned() <= 2,
            "hot path spawned OS threads: {}",
            ctx.os_threads_spawned()
        );
    }
}
