//! Simulation backends: the pluggable convolution engines.

use crate::caches::SimCaches;
use lsopc_fft::{Fft2d, HalfSpectrum};
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

/// `dst += src`, elementwise.
pub(crate) fn add_into<T: Scalar>(dst: &mut Grid<T>, src: &Grid<T>) {
    for (d, &s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += s;
    }
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

/// Kernel `k`'s non-zero spectrum samples, each wrapped onto a `w x h`
/// grid in DFT layout (DC at index 0, negative frequencies wrapped), as
/// `(fx, fy, sample)` in window order.
///
/// # Panics
///
/// Panics if the grid cannot hold the `S x S` window: the wrap would
/// alias samples onto one bin.
pub(crate) fn window_samples<T: Scalar>(
    kernels: &KernelSet<T>,
    k: usize,
    (w, h): (usize, usize),
) -> impl Iterator<Item = (usize, usize, Complex<T>)> + '_ {
    let s = kernels.support();
    assert!(
        w >= s && h >= s,
        "grid {w}x{h} too small for kernel support {s}"
    );
    // Window index i sits at offset i − c, which wraps onto index
    // i − c, or i − c + n when negative (|i − c| ≤ c < n).
    let c = kernels.center();
    let wrap = move |i: usize, n: usize| if i >= c { i - c } else { i + n - c };
    kernels
        .spectrum(k)
        .as_slice()
        .chunks_exact(s)
        .enumerate()
        .flat_map(move |(j, row)| {
            let fy = wrap(j, h);
            row.iter()
                .enumerate()
                .filter(|&(_, &v)| v != Complex::<T>::ZERO)
                .map(move |(i, &v)| (wrap(i, w), fy, v))
        })
}

/// The grid columns the bands of kernels `ks` occupy: the distinct `fx`
/// of their [`window_samples`], in ascending order.
fn band_columns<T: Scalar>(
    kernels: &KernelSet<T>,
    ks: Range<usize>,
    dims: (usize, usize),
) -> Vec<usize> {
    let mut occupied = vec![false; dims.0];
    for k in ks {
        for (fx, _, _) in window_samples(kernels, k, dims) {
            occupied[fx] = true;
        }
    }
    (0..dims.0).filter(|&fx| occupied[fx]).collect()
}

/// `fields[i] ← h_k ⊗ M` for the kernels `k` of one chunk, with each
/// kernel's band columns: per-kernel window products with the half
/// spectrum followed by **one** batched band inverse over the whole
/// chunk, so the pool sees every column FFT of the chunk at once instead
/// of one narrow fan-out per kernel. Bit-identical to the sequential
/// per-kernel transforms (see
/// [`lsopc_fft::Fft2d::inverse_band_batch_with`]).
///
/// Fields come in ascending kernel order — callers accumulate in that
/// order, preserving the [`fold_kernel_grids`] determinism contract.
fn kernel_fields<T: Scalar>(
    ctx: &ParallelContext,
    fft: &Fft2d<T>,
    kernels: &KernelSet<T>,
    range: Range<usize>,
    mhat: &HalfSpectrum<T>,
) -> (Vec<Vec<usize>>, Vec<Grid<Complex<T>>>) {
    let dims = mhat.dims();
    let cols: Vec<Vec<usize>> = range
        .clone()
        .map(|k| band_columns(kernels, k..k + 1, dims))
        .collect();
    let mut fields: Vec<Grid<Complex<T>>> = range
        .map(|k| {
            let mut f = Grid::new(dims.0, dims.1, Complex::<T>::ZERO);
            for (fx, fy, s) in window_samples(kernels, k, dims) {
                f[(fx, fy)] = s * mhat.at(fx, fy);
            }
            f
        })
        .collect();
    let col_lists: Vec<&[usize]> = cols.iter().map(Vec::as_slice).collect();
    fft.inverse_band_batch_with(ctx, &mut fields, &col_lists);
    (cols, fields)
}

/// The per-focus callback of [`SimBackend::evaluate`]: given a focus's
/// index and the image buffer holding its aerial image, it either writes
/// the sensitivity `z = ∂L/∂I` over the buffer and returns `true`, for a
/// gradient pass at that focus, or returns `false`.
pub type OnImage<'a, T> = dyn FnMut(usize, &mut Grid<T>) -> bool + 'a;

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

    /// One cost evaluation of `mask` at several foci, each given by its
    /// kernel set, in buffers the caller owns: per focus, in order, the
    /// aerial image is written into `image` and handed to `on_image`; if
    /// the callback writes a sensitivity over it and asks for a gradient
    /// pass, the adjoint maps it back and the result is added into
    /// `gradient` (a zeroed grid; `None` for a cost-only evaluation).
    /// Each focus runs inside a `litho.focus` span.
    ///
    /// The default runs [`Self::aerial_image`] and then [`Self::gradient`]
    /// per focus. A backend may override it to share work between the
    /// passes of one evaluation, such as the mask spectrum, and to run in
    /// the caller's buffers, as long as every image and the gradient keep
    /// the default's bits.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`Self::aerial_image`] and
    /// [`Self::gradient`], or if `image` does not match the mask.
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
        for (f, kernels) in foci.iter().enumerate() {
            let _focus = lsopc_trace::span!("litho.focus");
            *image = self.aerial_image(kernels, mask);
            if on_image(f, image) {
                if let Some(gradient) = gradient.as_deref_mut() {
                    add_into(gradient, &self.gradient(kernels, mask, image));
                }
            }
        }
    }

    /// Injects the shared FFT plan cache. Backends that plan transforms
    /// store the handle and look every plan up through it; the default
    /// no-op suits cache-free backends such as [`ReferenceBackend`].
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
/// band's columns only) plus, per kernel, one inverse FFT (aerial) or one
/// inverse and one forward FFT (gradient). Each kernel's band is read
/// from its centred window ([`KernelSet::spectrum`]), the way
/// [`crate::AcceleratedBackend`] reads it: its non-zero samples are
/// wrapped onto the grid, and the per-kernel transforms run only over
/// the columns those samples occupy
/// ([`lsopc_fft::Fft2d::inverse_band_batch_with`] /
/// [`lsopc_fft::Fft2d::forward_band_batch_with`]) — bit-identical to the
/// dense transforms on these inputs, just cheaper. Plans come from the
/// injected [`SimCaches`] (a simulator's own, see
/// [`crate::LithoSimulator::with_caches`]), so repeated calls (the
/// optimizer loop) never rebuild twiddle tables.
///
/// The per-kernel accumulation fans out over the shared
/// [`ParallelContext`] pool, in a fixed chunk order; results are
/// bit-identical at every thread count.
#[derive(Debug, Default, Clone)]
pub struct FftBackend {
    /// `None` → [`ParallelContext::global`].
    ctx: Option<ParallelContext>,
    /// The plan cache; a fresh one until a simulator injects its own.
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
        let ctx = self.ctx();
        let mhat = mask_spectrum(&self.caches, ctx, mask, window_band(kernels.support()));
        let empty = Grid::new(w, h, T::ZERO);
        fold_kernel_grids(ctx, kernels.len(), &empty, |range, intensity| {
            // The chunk's fields come from one batched band inverse;
            // accumulation stays in ascending-k order (bit-identical to
            // the sequential per-kernel path).
            let (_, fields) = kernel_fields(ctx, &fft, kernels, range.clone(), &mhat);
            for (k, field) in range.zip(&fields) {
                add_weighted_intensity(intensity, field, kernels.weight(k));
            }
        })
    }

    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.fft.gradient");
        assert_eq!(mask.dims(), z.dims(), "mask and z dimensions must match");
        let dims = mask.dims();
        let all_cols = band_columns(kernels, 0..kernels.len(), dims);
        let fft = self.caches.plan_t::<T>(dims.0, dims.1);
        let ctx = self.ctx();
        let mhat = mask_spectrum(&self.caches, ctx, mask, window_band(kernels.support()));
        let empty: Grid<Complex<T>> = Grid::new(dims.0, dims.1, Complex::<T>::ZERO);
        let mut acc = fold_kernel_grids(ctx, kernels.len(), &empty, |range, acc| {
            // e_k = h_k ⊗ M for the whole chunk, one batched inverse.
            let (cols, mut fields) = kernel_fields(ctx, &fft, kernels, range.clone(), &mhat);
            // W = z ⊙ e_k, then Ŵ (needed only on the band columns) —
            // again one batched forward across the chunk.
            for field in fields.iter_mut() {
                for (fv, &zv) in field.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    *fv = fv.scale(zv);
                }
            }
            let cols: Vec<&[usize]> = cols.iter().map(Vec::as_slice).collect();
            fft.forward_band_batch_with(ctx, &mut fields, &cols);
            // acc += μ_k · conj(Ŝ_k) ⊙ Ŵ (only the band is non-zero).
            for (k, field) in range.zip(&fields) {
                let wk = kernels.weight(k);
                for (fx, fy, s) in window_samples(kernels, k, dims) {
                    acc[(fx, fy)] += s.conj() * field[(fx, fy)].scale(wk);
                }
            }
        });
        fft.inverse_band_with(ctx, &mut acc, &all_cols);
        let two = T::from_f64(2.0);
        acc.map(|v| two * v.re)
    }

    fn set_caches(&mut self, caches: &SimCaches) {
        self.caches = caches.clone();
    }
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
    #[should_panic(expected = "too small")]
    fn rejects_a_grid_narrower_than_the_kernel_window() {
        // The window is wider than the grid, so wrapping it onto the
        // grid would alias its samples.
        let kernels = tiny_kernels();
        assert!(kernels.support() > 4, "premise: S = {}", kernels.support());
        let _ = FftBackend::new().aerial_image(&kernels, &Grid::new(4, 4, 0.0));
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
