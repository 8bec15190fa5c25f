//! Real-input 2-D FFT with half-spectrum (Hermitian) storage.
//!
//! A real field's DFT is Hermitian-symmetric, `X[−κ] = conj(X[κ])`, so
//! only the columns `kx ≤ w/2` carry information. [`RfftPlan`] exploits
//! that with the classic N/2-point complex trick: each real row of length
//! `w` is packed into a complex vector of length `w/2`
//! (`z[j] = x[2j] + i·x[2j+1]`), transformed with one half-length complex
//! FFT, and untangled into the `w/2 + 1` unique spectrum samples. The
//! column pass then only transforms those `w/2 + 1` columns. Relative to
//! [`crate::Fft2d::forward_real`] — which widens to complex and runs the
//! dense transform — the row pass does half-length FFTs and the column
//! pass touches roughly half the columns.
//!
//! The half spectrum lives in an explicit [`HalfSpectrum`] container
//! (`(w/2 + 1) × h`, row-major); the redundant mirror half is never
//! materialized. [`RfftPlan::inverse`] reconstructs the real field
//! directly from the half layout (inverse column pass, re-tangle, one
//! half-length inverse FFT per row) with the same `1/(W·H)` overall
//! normalization as [`crate::Fft2d::inverse`].
//!
//! Band-limited fields need even less. [`RfftPlan::forward_band_with`]
//! still runs every row's half-length FFT, but untangles and
//! column-transforms only the leading `band` stored columns;
//! [`RfftPlan::inverse_band_with`] column-transforms only those columns
//! of a spectrum that is zero beyond them. Both are bit-identical to the
//! full transforms on what they compute: every untangled sample and every
//! column FFT is independent of the others, and a zero column's inverse
//! FFT is exactly `+0.0`. The full transforms are the `band = w/2 + 1`
//! case of the same code.
//!
//! Like every transform in this crate, both passes fan out over the
//! shared [`ParallelContext`] pool with disjoint writes and identical
//! per-row arithmetic, so results are bit-identical at any thread count.
//! The rfft path is *not* bit-identical to the dense complex path — the
//! untangling performs the final butterfly stage in a different order —
//! so results agree with [`crate::Fft2d::forward_real`] to round-off
//! only. The simulation backends route every full-size real transform
//! through this path; the dense transform remains the test oracle.

use crate::fft2d::rows_per_chunk;
use crate::FftPlan;
use lsopc_grid::{Complex, Grid, Scalar};
use lsopc_parallel::ParallelContext;

/// The non-redundant half of a Hermitian 2-D spectrum.
///
/// Stores the `(w/2 + 1) × h` columns `kx ≤ w/2` of the full `w × h` DFT
/// layout, row-major (`ky` outer, `kx` inner). The mirrored half is
/// implied: [`HalfSpectrum::at`] reconstructs any full-layout sample via
/// `X[kx, ky] = conj(X[(w−kx) mod w, (h−ky) mod h])`.
#[derive(Debug, Clone, PartialEq)]
pub struct HalfSpectrum<T: Scalar = f64> {
    width: usize,
    height: usize,
    data: Vec<Complex<T>>,
}

impl<T: Scalar> HalfSpectrum<T> {
    /// Creates an all-zero half spectrum for a full `width x height` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "dimensions must be positive");
        Self {
            width,
            height,
            data: vec![Complex::ZERO; (width / 2 + 1) * height],
        }
    }

    /// Full-grid dimensions `(w, h)` this half spectrum represents.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Stored columns per row: `w/2 + 1`.
    pub fn half_width(&self) -> usize {
        self.width / 2 + 1
    }

    /// The stored samples, row-major over `(w/2 + 1) × h`.
    pub fn as_slice(&self) -> &[Complex<T>] {
        &self.data
    }

    /// Mutable access to the stored samples.
    pub fn as_mut_slice(&mut self) -> &mut [Complex<T>] {
        &mut self.data
    }

    /// The full-layout sample at `(kx, ky)`, reconstructing the mirrored
    /// half by conjugate symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `kx ≥ w` or `ky ≥ h`.
    pub fn at(&self, kx: usize, ky: usize) -> Complex<T> {
        assert!(
            kx < self.width && ky < self.height,
            "({kx},{ky}) out of range for {}x{}",
            self.width,
            self.height
        );
        let hw = self.half_width();
        if kx <= self.width / 2 {
            self.data[ky * hw + kx]
        } else {
            let mx = self.width - kx;
            let my = (self.height - ky) % self.height;
            self.data[my * hw + mx].conj()
        }
    }

    /// Sets the stored sample at `(kx, ky)`, `kx ≤ w/2`.
    ///
    /// # Panics
    ///
    /// Panics if `kx > w/2` or `ky ≥ h`.
    pub fn set(&mut self, kx: usize, ky: usize, v: Complex<T>) {
        assert!(
            kx <= self.width / 2 && ky < self.height,
            "({kx},{ky}) not a stored sample of {}x{}",
            self.width,
            self.height
        );
        let hw = self.half_width();
        self.data[ky * hw + kx] = v;
    }

    /// Adds a full-layout spectrum contribution `F[kx, ky] += v` as its
    /// Hermitian projection `H[κ] = (F[κ] + conj(F[−κ]))/2`.
    ///
    /// Because `Re(IFFT(F)) = IFFT(H(F))` for any `F`, accumulating every
    /// sample of a full spectrum this way and running [`RfftPlan::inverse`]
    /// yields exactly the real part the dense inverse would produce —
    /// without materializing the full grid. Self-conjugate bins (e.g.
    /// `(0,0)`, `(w/2, 0)`) land on one entry twice and sum to `Re(v)`,
    /// which is the correct projection.
    ///
    /// # Panics
    ///
    /// Panics if `kx ≥ w` or `ky ≥ h`.
    pub fn accumulate_hermitian(&mut self, kx: usize, ky: usize, v: Complex<T>) {
        assert!(
            kx < self.width && ky < self.height,
            "({kx},{ky}) out of range for {}x{}",
            self.width,
            self.height
        );
        let hw = self.half_width();
        let half = T::from_f64(0.5);
        if kx <= self.width / 2 {
            self.data[ky * hw + kx] += v.scale(half);
        }
        let mx = (self.width - kx) % self.width;
        let my = (self.height - ky) % self.height;
        if mx <= self.width / 2 {
            self.data[my * hw + mx] += v.conj().scale(half);
        }
    }

    /// Expands to the full `w × h` dense layout via conjugate symmetry.
    pub fn to_full(&self) -> Grid<Complex<T>> {
        Grid::from_fn(self.width, self.height, |kx, ky| self.at(kx, ky))
    }

    /// Projects a full spectrum onto its Hermitian half,
    /// `H[κ] = (F[κ] + conj(F[−κ]))/2`. For an already-Hermitian `F`
    /// (e.g. the forward transform of a real field) this is the exact
    /// half-layout restriction.
    pub fn from_full_hermitian(full: &Grid<Complex<T>>) -> Self {
        let (w, h) = full.dims();
        let mut s = Self::new(w, h);
        let hw = s.half_width();
        let half = T::from_f64(0.5);
        for ky in 0..h {
            for (kx, out) in s.data[ky * hw..(ky + 1) * hw].iter_mut().enumerate() {
                let a = full[(kx, ky)];
                let b = full[((w - kx) % w, (h - ky) % h)].conj();
                *out = (a + b).scale(half);
            }
        }
        s
    }
}

/// A reusable real-input 2-D FFT for grids of a fixed power-of-two size.
///
/// Each real row is packed into a half-length complex vector, transformed
/// and untangled into its `w/2 + 1` unique samples; the column pass then
/// transforms only those stored columns, or just a leading band of them
/// ([`Self::forward_band_with`], [`Self::inverse_band_with`]). The
/// forward transform is unnormalized (matching [`crate::Fft2d::forward`]);
/// the inverse carries the full `1/(W·H)` normalization so that
/// `inverse(forward(x)) == x`.
///
/// # Example
///
/// ```
/// use lsopc_fft::RfftPlan;
/// use lsopc_grid::Grid;
///
/// let plan = RfftPlan::<f64>::new(8, 8);
/// let g = Grid::from_fn(8, 8, |x, y| (x * 3 + y) as f64);
/// let spec = plan.forward(&g);
/// assert_eq!(spec.half_width(), 5); // only kx <= 4 is stored
/// let back = plan.inverse(&spec);
/// for (a, b) in g.as_slice().iter().zip(back.as_slice()) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RfftPlan<T> {
    width: usize,
    height: usize,
    /// Half-length row plan (`w/2` points); `None` when `w == 1` and the
    /// row pass is the identity.
    half_plan: Option<FftPlan<T>>,
    col_plan: FftPlan<T>,
    /// `exp(-2πi·k/w)` for `k = 0..=w/2` — the untangling twiddles.
    twiddles: Vec<Complex<T>>,
}

impl<T: Scalar> RfftPlan<T> {
    /// Creates a real-input 2-D plan for `width x height` grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width > 0 && width.is_power_of_two(),
            "width must be a power of two, got {width}"
        );
        let twiddles = (0..=width / 2)
            .map(|k| {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / width as f64;
                Complex::cis(T::from_f64(angle))
            })
            .collect();
        Self {
            width,
            height,
            half_plan: (width > 1).then(|| FftPlan::new(width / 2)),
            col_plan: FftPlan::new(height),
            twiddles,
        }
    }

    /// Planned grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Planned grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Forward transform of a real grid into the half-spectrum layout.
    ///
    /// # Panics
    ///
    /// Panics if the grid dimensions differ from the planned size.
    pub fn forward(&self, g: &Grid<T>) -> HalfSpectrum<T> {
        self.forward_with(ParallelContext::global(), g)
    }

    /// [`Self::forward`] on an explicit [`ParallelContext`]. Bit-identical
    /// to the default path at every thread count.
    pub fn forward_with(&self, ctx: &ParallelContext, g: &Grid<T>) -> HalfSpectrum<T> {
        self.forward_band_with(ctx, g, self.width / 2 + 1)
    }

    /// The forward transform on the leading `band` stored columns only.
    ///
    /// Every row still runs its half-length FFT, but only the samples
    /// `kx < band` are untangled and column-transformed. On those columns
    /// the result equals [`Self::forward_with`] bit for bit; every other
    /// stored sample is exactly `0.0`. A `band` above the half width
    /// `w/2 + 1` is clamped to it (the full transform).
    ///
    /// # Panics
    ///
    /// Panics if the grid dimensions differ from the planned size.
    pub fn forward_band_with(
        &self,
        ctx: &ParallelContext,
        g: &Grid<T>,
        band: usize,
    ) -> HalfSpectrum<T> {
        assert_eq!(
            g.dims(),
            (self.width, self.height),
            "grid dimensions must match plan ({}x{})",
            self.width,
            self.height
        );
        let _span = lsopc_trace::span!("fft2d.rfft.forward");
        let mut spec = HalfSpectrum::new(self.width, self.height);
        let band = band.min(spec.half_width());
        self.real_row_pass(ctx, g, &mut spec, band);
        self.column_pass(ctx, &mut spec, band, false);
        spec
    }

    /// Inverse transform back to a real grid, scaled by `1/(W·H)`.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum dimensions differ from the planned size.
    pub fn inverse(&self, spec: &HalfSpectrum<T>) -> Grid<T> {
        self.inverse_with(ParallelContext::global(), spec)
    }

    /// [`Self::inverse`] on an explicit [`ParallelContext`]. Bit-identical
    /// to the default path at every thread count.
    pub fn inverse_with(&self, ctx: &ParallelContext, spec: &HalfSpectrum<T>) -> Grid<T> {
        self.inverse_band_with(ctx, spec.clone(), self.width / 2 + 1)
    }

    /// The inverse transform of a spectrum that is zero on every stored
    /// column `kx ≥ band`, column-transforming only the leading `band`
    /// columns before the full row inverse.
    ///
    /// On such input the result equals [`Self::inverse_with`] bit for bit:
    /// the inverse FFT of an all-zero column is exactly `+0.0`, so the
    /// skipped columns already hold what the full column pass would write.
    /// The spectrum is taken by value and transformed in place. A `band`
    /// above the half width `w/2 + 1` is clamped to it (the full
    /// transform).
    ///
    /// # Panics
    ///
    /// Panics if the spectrum dimensions differ from the planned size.
    pub fn inverse_band_with(
        &self,
        ctx: &ParallelContext,
        mut spec: HalfSpectrum<T>,
        band: usize,
    ) -> Grid<T> {
        assert_eq!(
            spec.dims(),
            (self.width, self.height),
            "spectrum dimensions must match plan ({}x{})",
            self.width,
            self.height
        );
        let _span = lsopc_trace::span!("fft2d.rfft.inverse");
        let band = band.min(spec.half_width());
        self.column_pass(ctx, &mut spec, band, true);
        let mut out = Grid::new(self.width, self.height, T::ZERO);
        self.real_row_inverse_pass(ctx, &spec, &mut out);
        out
    }

    /// Forward row pass: every real row packed, half-length transformed
    /// and untangled into its leading `band` samples. Rows are disjoint
    /// output slices, so scheduling never affects the result.
    fn real_row_pass(
        &self,
        ctx: &ParallelContext,
        g: &Grid<T>,
        spec: &mut HalfSpectrum<T>,
        band: usize,
    ) {
        let _span = lsopc_trace::span!("fft2d.rfft.row_pass");
        let (w, hw) = (self.width, spec.half_width());
        let rpc = rows_per_chunk(self.height, ctx.threads());
        let src = g.as_slice();
        ctx.par_chunks_mut(spec.as_mut_slice(), hw * rpc, |ci, rows| {
            let mut scratch = vec![Complex::<T>::ZERO; w / 2];
            for (dy, out_row) in rows.chunks_exact_mut(hw).enumerate() {
                let y = ci * rpc + dy;
                self.untangle_row(&src[y * w..(y + 1) * w], &mut out_row[..band], &mut scratch);
            }
        });
    }

    /// One row: pack `z[j] = x[2j] + i·x[2j+1]`, transform at `w/2`
    /// points, untangle even/odd sub-spectra into `X[0..out.len()]`.
    fn untangle_row(&self, row: &[T], out: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        if self.width == 1 {
            if let Some(dc) = out.first_mut() {
                *dc = Complex::from_real(row[0]);
            }
            return;
        }
        let m = self.width / 2;
        for (z, pair) in scratch.iter_mut().zip(row.chunks_exact(2)) {
            *z = Complex::new(pair[0], pair[1]);
        }
        let plan = self
            .half_plan
            .as_ref()
            .unwrap_or_else(|| unreachable!("half plan exists whenever width > 1"));
        plan.forward(scratch);
        let half = T::from_f64(0.5);
        for (k, out_k) in out.iter_mut().enumerate() {
            // Z[k] mixes the even (E) and odd (O) sub-spectra:
            // E[k] = (Z[k] + conj(Z[M−k]))/2, O[k] = −i(Z[k] − conj(Z[M−k]))/2,
            // X[k] = E[k] + e^{−2πik/w}·O[k]  (indices mod M).
            let a = scratch[k % m];
            let b = scratch[(m - k % m) % m].conj();
            let e = (a + b).scale(half);
            let d = a - b;
            let o = Complex::new(d.im, -d.re).scale(half);
            *out_k = e + self.twiddles[k] * o;
        }
    }

    /// Inverse row pass: re-tangle each half row into the `w/2`-point
    /// packed spectrum and inverse-transform it straight into the real
    /// output row.
    fn real_row_inverse_pass(
        &self,
        ctx: &ParallelContext,
        spec: &HalfSpectrum<T>,
        out: &mut Grid<T>,
    ) {
        let _span = lsopc_trace::span!("fft2d.rfft.row_pass");
        let (w, hw) = (self.width, spec.half_width());
        let rpc = rows_per_chunk(self.height, ctx.threads());
        let src = spec.as_slice();
        ctx.par_chunks_mut(out.as_mut_slice(), w * rpc, |ci, band| {
            let mut scratch = vec![Complex::<T>::ZERO; w / 2];
            for (dy, out_row) in band.chunks_exact_mut(w).enumerate() {
                let y = ci * rpc + dy;
                self.retangle_row(&src[y * hw..(y + 1) * hw], out_row, &mut scratch);
            }
        });
    }

    /// One inverse row: rebuild `Z[k] = E[k] + i·O[k]` from the half
    /// spectrum and run the half-length inverse (its `1/M` scaling is the
    /// exact row normalization — `Z` is the true `M`-point spectrum of the
    /// packed row).
    fn retangle_row(&self, spec_row: &[Complex<T>], out: &mut [T], scratch: &mut [Complex<T>]) {
        if self.width == 1 {
            out[0] = spec_row[0].re;
            return;
        }
        let m = self.width / 2;
        let half = T::from_f64(0.5);
        for (k, z) in scratch.iter_mut().enumerate() {
            let a = spec_row[k];
            let b = spec_row[m - k].conj();
            let e = (a + b).scale(half);
            let d = (a - b).scale(half);
            let o = self.twiddles[k].conj() * d;
            *z = e + Complex::new(-o.im, o.re);
        }
        let plan = self
            .half_plan
            .as_ref()
            .unwrap_or_else(|| unreachable!("half plan exists whenever width > 1"));
        plan.inverse(scratch);
        for (pair, z) in out.chunks_exact_mut(2).zip(scratch.iter()) {
            pair[0] = z.re;
            pair[1] = z.im;
        }
    }

    /// Column pass over the leading `band` stored columns: gather each
    /// into a contiguous buffer, transform all in parallel, scatter back —
    /// the same scheme as the dense plan's band column pass. Columns at
    /// and beyond `band` are left as they are.
    fn column_pass(
        &self,
        ctx: &ParallelContext,
        spec: &mut HalfSpectrum<T>,
        band: usize,
        inverse: bool,
    ) {
        let _span = lsopc_trace::span!("fft2d.rfft.col_pass");
        let hw = spec.half_width();
        let h = self.height;
        let mut buf = vec![Complex::<T>::ZERO; band * h];
        {
            let src = spec.as_slice();
            ctx.par_chunks_mut(&mut buf, h, |x, col| {
                for (y, c) in col.iter_mut().enumerate() {
                    *c = src[y * hw + x];
                }
                if inverse {
                    self.col_plan.inverse(col);
                } else {
                    self.col_plan.forward(col);
                }
            });
        }
        let dst = spec.as_mut_slice();
        for (x, col) in buf.chunks_exact(h).enumerate() {
            for (y, c) in col.iter().enumerate() {
                dst[y * hw + x] = *c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive_dft2d, Fft2d};
    use lsopc_grid::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_real(w: usize, h: usize, seed: u64) -> Grid<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn max_cerr(a: &Grid<C64>, b: &Grid<C64>) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (*x - *y).norm())
            .fold(0.0, f64::max)
    }

    #[test]
    fn forward_matches_naive_dft() {
        for &(w, h) in &[(4usize, 4usize), (8, 4), (16, 32), (2, 8), (64, 2)] {
            let plan = RfftPlan::<f64>::new(w, h);
            let g = rand_real(w, h, (w * 31 + h) as u64);
            let spec = plan.forward(&g).to_full();
            let expected = naive_dft2d(&g.map(|&v| C64::from_real(v)), false);
            assert!(
                max_cerr(&spec, &expected) < 1e-9,
                "mismatch at {w}x{h}: {}",
                max_cerr(&spec, &expected)
            );
        }
    }

    #[test]
    fn roundtrip_recovers_input() {
        for &(w, h) in &[(4usize, 4usize), (32, 8), (8, 32), (128, 128)] {
            let plan = RfftPlan::<f64>::new(w, h);
            let g = rand_real(w, h, (w + h * 7) as u64);
            let back = plan.inverse(&plan.forward(&g));
            let err = g
                .as_slice()
                .iter()
                .zip(back.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-11, "roundtrip error {err} at {w}x{h}");
        }
    }

    #[test]
    fn degenerate_sizes_transform_correctly() {
        // 1×N, N×1 and 1×1 all exercise the w == 1 / h == 1 special
        // cases; each must still match the dense complex transform.
        for &(w, h) in &[(1usize, 8usize), (8, 1), (1, 1), (2, 1), (1, 2)] {
            let plan = RfftPlan::<f64>::new(w, h);
            let fft = Fft2d::<f64>::new(w, h);
            let g = rand_real(w, h, (w * 13 + h * 5) as u64);
            let spec = plan.forward(&g).to_full();
            let mut dense = g.map(|&v| C64::from_real(v));
            fft.forward(&mut dense);
            assert!(max_cerr(&spec, &dense) < 1e-12, "forward at {w}x{h}");
            let back = plan.inverse(&plan.forward(&g));
            for (a, b) in g.as_slice().iter().zip(back.as_slice()) {
                assert!((a - b).abs() < 1e-12, "roundtrip at {w}x{h}");
            }
        }
    }

    #[test]
    fn inverse_of_hermitian_projection_is_real_part() {
        // For an arbitrary (non-Hermitian) full spectrum F,
        // IFFT(project(F)) == Re(IFFT(F)).
        let (w, h) = (16, 8);
        let mut rng = StdRng::seed_from_u64(99);
        let full = Grid::from_fn(w, h, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let plan = RfftPlan::<f64>::new(w, h);
        let fft = Fft2d::<f64>::new(w, h);
        let via_half = plan.inverse(&HalfSpectrum::from_full_hermitian(&full));
        let mut dense = full.clone();
        fft.inverse(&mut dense);
        for (a, b) in via_half.as_slice().iter().zip(dense.as_slice()) {
            assert!((a - b.re).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulate_hermitian_matches_projection() {
        let (w, h) = (8, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let full = Grid::from_fn(w, h, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let mut acc = HalfSpectrum::<f64>::new(w, h);
        for (kx, ky, &v) in full.iter_coords() {
            acc.accumulate_hermitian(kx, ky, v);
        }
        let proj = HalfSpectrum::from_full_hermitian(&full);
        for (a, b) in acc.as_slice().iter().zip(proj.as_slice()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn at_reconstructs_mirror_samples() {
        let (w, h) = (8, 4);
        let plan = RfftPlan::<f64>::new(w, h);
        let spec = plan.forward(&rand_real(w, h, 3));
        let full = spec.to_full();
        for ky in 0..h {
            for kx in 0..w {
                let mirror = full[((w - kx) % w, (h - ky) % h)].conj();
                assert!((full[(kx, ky)] - mirror).norm() < 1e-12, "not Hermitian");
                assert_eq!(spec.at(kx, ky), full[(kx, ky)]);
            }
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let (w, h) = (64, 32);
        let plan = RfftPlan::<f64>::new(w, h);
        let g = rand_real(w, h, 42);
        let ctx1 = ParallelContext::new(1);
        let ctx4 = ParallelContext::new(4);
        let s1 = plan.forward_with(&ctx1, &g);
        let s4 = plan.forward_with(&ctx4, &g);
        assert_eq!(s1.as_slice(), s4.as_slice());
        let b1 = plan.inverse_with(&ctx1, &s1);
        let b4 = plan.inverse_with(&ctx4, &s4);
        assert_eq!(b1.as_slice(), b4.as_slice());
    }

    #[test]
    #[should_panic(expected = "must match plan")]
    fn wrong_size_panics() {
        let plan = RfftPlan::<f64>::new(8, 8);
        let _ = plan.forward(&Grid::new(4, 4, 0.0));
    }

    #[test]
    fn f32_forward_tracks_f64() {
        let (w, h) = (32, 32);
        let g = rand_real(w, h, 17);
        let g32 = g.map(|&v| v as f32);
        let s64 = RfftPlan::<f64>::new(w, h).forward(&g);
        let s32 = RfftPlan::<f32>::new(w, h).forward(&g32);
        for (a, b) in s64.as_slice().iter().zip(s32.as_slice()) {
            assert!((a.re - f64::from(b.re)).abs() < 1e-3);
            assert!((a.im - f64::from(b.im)).abs() < 1e-3);
        }
    }
}
