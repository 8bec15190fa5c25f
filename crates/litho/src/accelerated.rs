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
//! Every kernel spectrum lives on an `S x S` window, so each coherent field
//! `e_k = h_k ⊗ M` is a band-limited function that is *exactly* represented
//! by its samples on a coarse `n_c x n_c` grid with `n_c ≥ 2S` — and the
//! aerial image `Σ μ_k |e_k|²`, band-limited to `2S − 1`, is too. The
//! backend therefore:
//!
//! * computes all per-kernel fields and the aerial image on the tiny
//!   coarse grid (K small IFFTs instead of K full-size ones), then
//!   upsamples the result spectrally with **one** full-size inverse FFT —
//!   this is exact, not an approximation;
//! * assembles the gradient's band-limited spectrum from small windowed
//!   convolutions, again finishing with a single full-size inverse FFT.
//!
//! A corner pass therefore runs five full-size transforms where
//! [`FftBackend`] runs `3K + 3`: two in the aerial image (the mask
//! forward and the finishing inverse) and three in the gradient (the
//! mask and sensitivity forwards and the finishing inverse). This
//! mirrors the paper's measured 71 % runtime reduction in structure
//! (Table II). Every one of them has real input or real output, so all
//! run through the half-spectrum [`RfftPlan`], and each is a full row
//! pass plus a column pass over only the stored columns its window
//! reaches ([`RfftPlan::forward_band_with`],
//! [`RfftPlan::inverse_band_with`]; `DESIGN.md` §13): 30 or 59 of 513
//! at 1024². Results match [`FftBackend`] to rounding, which the
//! test-suite pins.
//!
//! [`FftBackend`]: crate::FftBackend
//! [`RfftPlan`]: lsopc_fft::RfftPlan
//! [`RfftPlan::forward_band_with`]: lsopc_fft::RfftPlan::forward_band_with
//! [`RfftPlan::inverse_band_with`]: lsopc_fft::RfftPlan::inverse_band_with

use crate::backend::{fold_kernel_grids, mask_spectrum, window_band, SimBackend};
use crate::caches::SimCaches;
use lsopc_fft::{wrap_index, HalfSpectrum};
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
    threads: usize,
    ctx: ParallelContext,
    /// Cache handles; defaults to the process globals.
    caches: SimCaches,
}

impl AcceleratedBackend {
    /// Creates the backend with the given thread fan-out (1 = serial),
    /// capping the shared global pool at `threads` lanes. A request for 0
    /// threads degrades to 1 with a logged warning instead of panicking.
    pub fn new(threads: usize) -> Self {
        let threads = lsopc_parallel::sanitize_thread_count(threads, "AcceleratedBackend::new");
        Self {
            threads,
            ctx: ParallelContext::global().with_max_threads(threads),
            caches: SimCaches::default(),
        }
    }

    /// Creates the backend on an explicit context (tests and thread-count
    /// sweeps), fanning out over up to `ctx.threads()` lanes.
    pub fn with_context(ctx: ParallelContext) -> Self {
        Self {
            threads: ctx.threads(),
            ctx,
            caches: SimCaches::default(),
        }
    }

    /// Requested thread fan-out.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Coarse grid size for a kernel support `S`: the smallest power of
    /// two holding the doubled band, clamped to the full grid size.
    ///
    /// The clamp handles the degenerate small-grid case: when the full
    /// grid cannot hold the doubled band (`full < 2S − 1`), the "coarse"
    /// grid is the full grid and the band computation degenerates to the
    /// exact full-size one — the same aliasing [`FftBackend`] produces —
    /// instead of panicking while embedding an oversized window.
    ///
    /// [`FftBackend`]: crate::FftBackend
    fn coarse_size(support: usize, full: usize) -> usize {
        (2 * support).next_power_of_two().max(16).min(full)
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
/// layout: each window sample is accumulated as its Hermitian projection,
/// so the rfft inverse of the result equals the real part a dense
/// inverse of the full embedding would produce (see
/// [`HalfSpectrum::accumulate_hermitian`]).
fn embed_window_half<T: Scalar>(window: &Grid<Complex<T>>, w: usize, h: usize) -> HalfSpectrum<T> {
    let size = window.width();
    let c = (size / 2) as i64;
    let mut half = HalfSpectrum::new(w, h);
    for (i, j, &v) in window.iter_coords() {
        half.accumulate_hermitian(wrap_index(i as i64 - c, w), wrap_index(j as i64 - c, h), v);
    }
    half
}

impl<T: Scalar> SimBackend<T> for AcceleratedBackend {
    fn name(&self) -> &'static str {
        "accelerated"
    }

    fn aerial_image(&self, kernels: &KernelSet<T>, mask: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.accel.aerial");
        let (w, h) = mask.dims();
        let s = kernels.support();
        assert!(
            w >= s && h >= s,
            "grid {w}x{h} too small for kernel support {s}"
        );
        let nc = Self::coarse_size(s, w.min(h));
        let fft_coarse = self.caches.plan_t::<T>(nc, nc);

        // One full-size forward FFT, on the band's columns only.
        let mhat = mask_spectrum(&self.caches, &self.ctx, mask, window_band(s));
        let m_window = centered_window_half(&mhat, s);

        // Per-kernel coarse fields; e at full-grid sample points equals the
        // coarse IFFT scaled by nc²/(w·h).
        let scale = T::from_f64((nc * nc) as f64 / (w * h) as f64);
        let c = (s / 2) as i64;
        let empty = Grid::new(nc, nc, T::ZERO);
        let accumulate = |range: std::ops::Range<usize>, partial: &mut Grid<T>| {
            for k in range {
                let window = kernels.spectrum(k);
                let mut ehat = Grid::new(nc, nc, Complex::<T>::ZERO);
                for (i, j, &sv) in window.iter_coords() {
                    if sv == Complex::<T>::ZERO {
                        continue;
                    }
                    let fx = wrap_index(i as i64 - c, nc);
                    let fy = wrap_index(j as i64 - c, nc);
                    ehat[(fx, fy)] = sv * m_window[(i, j)];
                }
                fft_coarse.inverse(&mut ehat);
                let wk = kernels.weight(k) * scale * scale;
                for (dst, e) in partial.as_mut_slice().iter_mut().zip(ehat.as_slice()) {
                    *dst += wk * e.norm_sqr();
                }
            }
        };
        let coarse_intensity = fold_kernel_grids(&self.ctx, kernels.len(), &empty, accumulate);

        // Exact spectral upsampling: I is band-limited to 2S−1 < nc.
        let mut ihat_c = coarse_intensity.map(|&v| Complex::from_real(v));
        fft_coarse.forward(&mut ihat_c);
        let size = nc.min(2 * s - 1);
        let mut window = centered_window(&ihat_c, size);
        // A power of two, so scaling the window is exact.
        let up = T::from_f64((w * h) as f64 / (nc * nc) as f64);
        window.apply(|v| *v = v.scale(up));
        // Real-output finishing inverse straight from the half layout,
        // over the window's columns only.
        let half = embed_window_half(&window, w, h);
        self.caches
            .rplan_t::<T>(w, h)
            .inverse_band_with(&self.ctx, half, window_band(size))
    }

    fn gradient(&self, kernels: &KernelSet<T>, mask: &Grid<T>, z: &Grid<T>) -> Grid<T> {
        let _span = lsopc_trace::span!("backend.accel.gradient");
        assert_eq!(mask.dims(), z.dims(), "mask and z dimensions must match");
        let (w, h) = mask.dims();
        let s = kernels.support();
        assert!(
            w >= 2 * s - 1 && h >= 2 * s - 1,
            "grid {w}x{h} too small for doubled band {}",
            2 * s - 1
        );

        // Two full-size forward FFTs, each on the columns its window
        // reads: the mask and the sensitivity field.
        let mhat = mask_spectrum(&self.caches, &self.ctx, mask, window_band(s));
        let m_window = centered_window_half(&mhat, s);
        // Ẑ on the doubled band (κ − ν reaches offsets up to 2(S/2)·2).
        let big = 2 * s - 1;
        let zhat = mask_spectrum(&self.caches, &self.ctx, z, window_band(big));
        let z_big = centered_window_half(&zhat, big);
        let cb = (big / 2) as i64;
        let c = (s / 2) as i64;
        let inv_wh = T::from_f64(1.0 / (w * h) as f64);

        // Per kernel: X̂(κ) = (1/WH)·Σ_ν ê_k(ν)·Ẑ(κ−ν) on the S-window,
        // then acc(κ) += μ_k·conj(Ŝ_k(κ))·X̂(κ).
        let empty = Grid::new(s, s, Complex::<T>::ZERO);
        let accumulate = |range: std::ops::Range<usize>, acc: &mut Grid<Complex<T>>| {
            for k in range {
                let window = kernels.spectrum(k);
                // Sparse list of the kernel's non-zero band samples.
                let mut ehat: Vec<(i64, i64, Complex<T>)> = Vec::new();
                for (i, j, &sv) in window.iter_coords() {
                    if sv == Complex::<T>::ZERO {
                        continue;
                    }
                    ehat.push((i as i64 - c, j as i64 - c, sv * m_window[(i, j)]));
                }
                let wk = kernels.weight(k);
                for (i, j, &sk) in window.iter_coords() {
                    if sk == Complex::<T>::ZERO {
                        continue;
                    }
                    let kx = i as i64 - c;
                    let ky = j as i64 - c;
                    let mut x = Complex::<T>::ZERO;
                    for &(nx, ny, ev) in &ehat {
                        let zx = (kx - nx + cb) as usize;
                        let zy = (ky - ny + cb) as usize;
                        x += ev * z_big[(zx, zy)];
                    }
                    acc[(i, j)] += sk.conj() * x.scale(wk * inv_wh);
                }
            }
        };
        let mut acc_window = fold_kernel_grids(&self.ctx, kernels.len(), &empty, accumulate);

        // One full-size inverse FFT, over the window's columns, finishes
        // the pass. The gradient is 2·Re(IFFT(acc)); the Hermitian
        // projection inside `embed_window_half` computes exactly that real
        // part, and doubling the window instead of the output is exact.
        let two = T::from_f64(2.0);
        acc_window.apply(|v| *v = v.scale(two));
        let half = embed_window_half(&acc_window, w, h);
        self.caches
            .rplan_t::<T>(w, h)
            .inverse_band_with(&self.ctx, half, window_band(s))
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
        // 16×16 grid with the full 24-kernel set: the doubled band
        // (2S − 1) exceeds the grid, so `coarse_size` clamps to the full
        // grid and the backend degenerates to the exact full-size path
        // (including the same aliasing as FftBackend) instead of
        // panicking while embedding an oversized window.
        let ks = kernels(256.0, 24);
        let s = ks.support();
        assert!(
            s <= 16 && 2 * s - 1 > 16,
            "premise: the clamp must engage (S = {s})"
        );
        let mask = test_mask(16);
        let fast = AcceleratedBackend::new(2).aerial_image(&ks, &mask);
        let slow = FftBackend::new().aerial_image(&ks, &mask);
        let d = max_diff(&fast, &slow);
        assert!(d < 1e-11, "aerial image diff {d}");
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
        assert_eq!(backend.threads(), 1);
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
