//! 2-D FFT over [`Grid`] via the row-column algorithm.
//!
//! Every pass is parallel: rows (and transposed columns) are independent
//! 1-D FFTs distributed over the shared [`ParallelContext`] pool, and the
//! blocked transposes split the output grid into disjoint row bands. All
//! writes are disjoint and each 1-D transform runs the exact same
//! arithmetic wherever it is scheduled, so results are bit-identical to
//! the serial path for any thread count. The default entry points
//! ([`Fft2d::forward`] etc.) use [`ParallelContext::global`]; the `*_with`
//! variants take an explicit context for tests and thread-count sweeps.

use crate::FftPlan;
use lsopc_grid::{Complex, Grid, Scalar};
use lsopc_parallel::ParallelContext;

/// A reusable 2-D FFT for grids of a fixed power-of-two size.
///
/// The transform is separable: all rows are transformed with the width plan,
/// the grid is transposed, all (former) columns are transformed with the
/// height plan, and the grid is transposed back. The transpose keeps the
/// inner loops on contiguous memory, which on large grids is substantially
/// faster than strided column access.
///
/// # Example
///
/// ```
/// use lsopc_fft::Fft2d;
/// use lsopc_grid::{Grid, C64};
///
/// let fft = Fft2d::<f64>::new(8, 8);
/// let mut g = Grid::new(8, 8, C64::ZERO);
/// g[(0, 0)] = C64::ONE;
/// fft.forward(&mut g);
/// // The spectrum of an impulse at the origin is flat.
/// assert!((g[(5, 3)] - C64::ONE).norm() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Fft2d<T> {
    width: usize,
    height: usize,
    row_plan: FftPlan<T>,
    col_plan: FftPlan<T>,
}

impl<T: Scalar> Fft2d<T> {
    /// Creates a 2-D plan for `width` x `height` grids.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            row_plan: FftPlan::new(width),
            col_plan: FftPlan::new(height),
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

    /// In-place forward 2-D transform.
    ///
    /// # Panics
    ///
    /// Panics if the grid dimensions differ from the planned size.
    pub fn forward(&self, g: &mut Grid<Complex<T>>) {
        self.transform(ParallelContext::global(), g, false);
    }

    /// In-place inverse 2-D transform, scaled by `1/(W·H)`.
    ///
    /// # Panics
    ///
    /// Panics if the grid dimensions differ from the planned size.
    pub fn inverse(&self, g: &mut Grid<Complex<T>>) {
        self.transform(ParallelContext::global(), g, true);
    }

    /// [`Self::forward`] on an explicit [`ParallelContext`]. Bit-identical
    /// to the default path at every thread count.
    pub fn forward_with(&self, ctx: &ParallelContext, g: &mut Grid<Complex<T>>) {
        self.transform(ctx, g, false);
    }

    /// [`Self::inverse`] on an explicit [`ParallelContext`]. Bit-identical
    /// to the default path at every thread count.
    pub fn inverse_with(&self, ctx: &ParallelContext, g: &mut Grid<Complex<T>>) {
        self.transform(ctx, g, true);
    }

    fn transform(&self, ctx: &ParallelContext, g: &mut Grid<Complex<T>>, inverse: bool) {
        assert_eq!(
            g.dims(),
            (self.width, self.height),
            "grid dimensions must match plan ({}x{})",
            self.width,
            self.height
        );
        let _span = lsopc_trace::span!(if inverse {
            "fft2d.inverse"
        } else {
            "fft2d.forward"
        });
        // The separable transform runs rows-then-columns forward and
        // columns-then-rows inverse. The order is load-bearing: the
        // band-limited paths ([`Self::inverse_band_with`],
        // [`Self::forward_band_with`]) skip zero columns, and skipping is
        // exactly equivalent to the dense transform only when the dense
        // column pass sees the original (still banded) spectrum, not an
        // intermediate.
        if inverse {
            self.column_pass(ctx, g, true);
            self.row_pass(ctx, g, true);
        } else {
            self.row_pass(ctx, g, false);
            self.column_pass(ctx, g, false);
        }
    }

    /// Transforms every row in parallel. Rows are disjoint slices of the
    /// row-major storage, so scheduling never affects the result.
    fn row_pass(&self, ctx: &ParallelContext, g: &mut Grid<Complex<T>>, inverse: bool) {
        let _span = lsopc_trace::span!("fft2d.row_pass");
        let plan = &self.row_plan;
        let rows_per_chunk = rows_per_chunk(self.height, ctx.threads());
        ctx.par_chunks_mut(g.as_mut_slice(), self.width * rows_per_chunk, |_, band| {
            for row in band.chunks_exact_mut(self.width) {
                if inverse {
                    plan.inverse(row);
                } else {
                    plan.forward(row);
                }
            }
        });
    }

    /// Column pass via transpose so each 1-D FFT is contiguous.
    fn column_pass(&self, ctx: &ParallelContext, g: &mut Grid<Complex<T>>, inverse: bool) {
        let _span = lsopc_trace::span!("fft2d.col_pass");
        let mut t = transpose(ctx, g);
        let plan = &self.col_plan;
        let rows_per_chunk = rows_per_chunk(self.width, ctx.threads());
        ctx.par_chunks_mut(t.as_mut_slice(), self.height * rows_per_chunk, |_, band| {
            for row in band.chunks_exact_mut(self.height) {
                if inverse {
                    plan.inverse(row);
                } else {
                    plan.forward(row);
                }
            }
        });
        transpose_into(ctx, &t, g);
    }

    /// In-place inverse transform, on `ctx`, of a spectrum that is
    /// nonzero only on the columns listed in `cols` (deduplicated, each
    /// `< width`): a one-grid [`Self::inverse_band_batch_with`].
    ///
    /// Produces the same result as [`Self::inverse`]: the inverse runs
    /// columns first, a zero column's inverse FFT is identically zero, so
    /// skipping the columns outside `cols` changes nothing. Cost drops
    /// from `W` column FFTs to `|cols|`, and the transpose pair is
    /// replaced by gather/scatter of just those columns — for
    /// band-limited kernel spectra this roughly halves the transform.
    ///
    /// # Panics
    ///
    /// Panics if the grid dimensions differ from the planned size or any
    /// column index is out of range.
    pub fn inverse_band_with(
        &self,
        ctx: &ParallelContext,
        g: &mut Grid<Complex<T>>,
        cols: &[usize],
    ) {
        self.inverse_band_batch_with(ctx, std::slice::from_mut(g), &[cols]);
    }

    /// In-place forward transform, on `ctx`, evaluated only on the
    /// spectrum columns listed in `cols` (deduplicated, each `< width`):
    /// a one-grid [`Self::forward_band_batch_with`].
    ///
    /// On the listed columns the result is identical to [`Self::forward`];
    /// entries in all other columns are **unspecified** (they hold the
    /// row-pass intermediate). Callers that only read a band of the
    /// spectrum — e.g. the sparse kernel-window accumulation in the
    /// gradient — skip `W - |cols|` column FFTs this way.
    ///
    /// # Panics
    ///
    /// Panics if the grid dimensions differ from the planned size or any
    /// column index is out of range.
    pub fn forward_band_with(
        &self,
        ctx: &ParallelContext,
        g: &mut Grid<Complex<T>>,
        cols: &[usize],
    ) {
        self.forward_band_batch_with(ctx, std::slice::from_mut(g), &[cols]);
    }

    /// Widens a real grid to complex and runs the **dense** forward
    /// transform, returning a fresh full-layout complex grid.
    ///
    /// This is a convenience wrapper, *not* a real-input fast path: it
    /// performs exactly the arithmetic of [`Self::forward`] and is
    /// bit-identical to widening manually. Callers that want the ~2×
    /// Hermitian-symmetry saving should use [`crate::RfftPlan`], which
    /// returns a [`crate::HalfSpectrum`] and never materializes the
    /// redundant mirror half (close to, but not bit-identical with, this
    /// path).
    ///
    /// # Panics
    ///
    /// Panics if the grid dimensions differ from the planned size.
    pub fn forward_real(&self, g: &Grid<T>) -> Grid<Complex<T>> {
        let mut c = g.map(|&v| Complex::from_real(v));
        self.forward(&mut c);
        c
    }

    /// Batched [`Self::inverse_band_with`] over several spectra at once:
    /// `grids[i]` is inverse-transformed assuming it is nonzero only on
    /// `cols[i]`. All listed columns across all grids are gathered into
    /// one buffer and transformed in a single parallel pass, so the pool
    /// is fed `Σ|cols[i]|` independent column FFTs instead of `len(grids)`
    /// separate fan-outs — better load balancing when each kernel's band
    /// alone is narrower than the pool.
    ///
    /// **Bit-identical** to transforming each grid on its own, as
    /// [`Self::inverse_band_with`] does: every column FFT runs the same
    /// arithmetic on the same values, and writes stay per-grid disjoint.
    ///
    /// # Panics
    ///
    /// Panics if `grids` and `cols` lengths differ, any grid's dimensions
    /// differ from the planned size, or any column index is out of range.
    pub fn inverse_band_batch_with(
        &self,
        ctx: &ParallelContext,
        grids: &mut [Grid<Complex<T>>],
        cols: &[&[usize]],
    ) {
        self.check_batch(grids, cols);
        let _span = lsopc_trace::span!("fft2d.inverse_band_batch");
        self.batched_band_column_pass(ctx, grids, cols, true);
        for g in grids.iter_mut() {
            self.row_pass(ctx, g, true);
        }
    }

    /// Batched [`Self::forward_band_with`] over several grids at once:
    /// `grids[i]` gets its dense row pass, then only the spectrum columns
    /// in `cols[i]` get the column pass (off-band columns are left
    /// **unspecified**, exactly as in [`Self::forward_band_with`]).
    ///
    /// **Bit-identical** to transforming each grid on its own, as
    /// [`Self::forward_band_with`] does, for the same reason as
    /// [`Self::inverse_band_batch_with`].
    ///
    /// # Panics
    ///
    /// Panics if `grids` and `cols` lengths differ, any grid's dimensions
    /// differ from the planned size, or any column index is out of range.
    pub fn forward_band_batch_with(
        &self,
        ctx: &ParallelContext,
        grids: &mut [Grid<Complex<T>>],
        cols: &[&[usize]],
    ) {
        self.check_batch(grids, cols);
        let _span = lsopc_trace::span!("fft2d.forward_band_batch");
        for g in grids.iter_mut() {
            self.row_pass(ctx, g, false);
        }
        self.batched_band_column_pass(ctx, grids, cols, false);
    }

    fn check_batch(&self, grids: &[Grid<Complex<T>>], cols: &[&[usize]]) {
        assert_eq!(
            grids.len(),
            cols.len(),
            "one column list per grid ({} grids, {} lists)",
            grids.len(),
            cols.len()
        );
        for g in grids {
            assert_eq!(
                g.dims(),
                (self.width, self.height),
                "grid dimensions must match plan ({}x{})",
                self.width,
                self.height
            );
        }
    }

    /// The strided column pass behind every band transform: flatten each
    /// `(grid, column)` pair into one work list, gather/transform the
    /// columns in a single parallel pass, and scatter each back to its
    /// grid. Each column's arithmetic does not depend on the batch it
    /// runs in, so batching never changes a bit, at any thread count.
    fn batched_band_column_pass(
        &self,
        ctx: &ParallelContext,
        grids: &mut [Grid<Complex<T>>],
        cols: &[&[usize]],
        inverse: bool,
    ) {
        let pairs: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .flat_map(|(gi, cs)| cs.iter().map(move |&x| (gi, x)))
            .collect();
        if pairs.is_empty() {
            return;
        }
        let _span = lsopc_trace::span!("fft2d.band_col_pass");
        for &(_, x) in &pairs {
            assert!(x < self.width, "band column {x} out of range");
        }
        let w = self.width;
        let h = self.height;
        let mut buf = vec![Complex::ZERO; pairs.len() * h];
        {
            let srcs: Vec<&[Complex<T>]> = grids.iter().map(|g| g.as_slice()).collect();
            ctx.par_chunks_mut(&mut buf, h, |i, col| {
                let (gi, x) = pairs[i];
                let src = srcs[gi];
                for (y, c) in col.iter_mut().enumerate() {
                    *c = src[y * w + x];
                }
                if inverse {
                    self.col_plan.inverse(col);
                } else {
                    self.col_plan.forward(col);
                }
            });
        }
        for (i, col) in buf.chunks_exact(h).enumerate() {
            let (gi, x) = pairs[i];
            let dst = grids[gi].as_mut_slice();
            for (y, c) in col.iter().enumerate() {
                dst[y * w + x] = *c;
            }
        }
    }
}

/// Rows of work per pool chunk: over-decompose ~4× the lane count for
/// load balancing. Chunk size only partitions disjoint writes, so it can
/// depend on the thread count without affecting results.
pub(crate) fn rows_per_chunk(rows: usize, threads: usize) -> usize {
    rows.div_ceil((threads * 4).max(1)).max(1)
}

/// Blocked transpose block size, for cache friendliness on large grids.
const B: usize = 32;

fn transpose<T: Scalar>(ctx: &ParallelContext, g: &Grid<Complex<T>>) -> Grid<Complex<T>> {
    let _span = lsopc_trace::span!("fft2d.transpose");
    let (w, h) = g.dims();
    let mut t = Grid::new(h, w, Complex::ZERO);
    let src = g.as_slice();
    // Each chunk owns a band of B consecutive output rows (input columns);
    // writes are disjoint so the transpose parallelizes freely.
    ctx.par_chunks_mut(t.as_mut_slice(), h * B, |ci, band| {
        let x0 = ci * B;
        let band_rows = band.len() / h;
        for by in (0..h).step_by(B) {
            for (dx, row) in band.chunks_exact_mut(h).enumerate().take(band_rows) {
                let x = x0 + dx;
                for (y, out) in row.iter_mut().enumerate().take((by + B).min(h)).skip(by) {
                    *out = src[y * w + x];
                }
            }
        }
    });
    t
}

fn transpose_into<T: Scalar>(
    ctx: &ParallelContext,
    t: &Grid<Complex<T>>,
    g: &mut Grid<Complex<T>>,
) {
    let _span = lsopc_trace::span!("fft2d.transpose");
    let (w, h) = g.dims();
    let src = t.as_slice();
    ctx.par_chunks_mut(g.as_mut_slice(), w * B, |ci, band| {
        let y0 = ci * B;
        let band_rows = band.len() / w;
        for bx in (0..w).step_by(B) {
            for (dy, row) in band.chunks_exact_mut(w).enumerate().take(band_rows) {
                let y = y0 + dy;
                for (x, out) in row.iter_mut().enumerate().take((bx + B).min(w)).skip(bx) {
                    *out = src[x * h + y];
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_dft2d;
    use lsopc_grid::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx() -> &'static ParallelContext {
        ParallelContext::global()
    }

    fn rand_grid(w: usize, h: usize, seed: u64) -> Grid<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    fn max_err(a: &Grid<C64>, b: &Grid<C64>) -> f64 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (*x - *y).norm())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_2d() {
        for &(w, h) in &[(4usize, 4usize), (8, 4), (16, 32)] {
            let fft = Fft2d::<f64>::new(w, h);
            let g = rand_grid(w, h, (w * h) as u64);
            let expected = naive_dft2d(&g, false);
            let mut got = g.clone();
            fft.forward(&mut got);
            assert!(max_err(&got, &expected) < 1e-9, "mismatch at {w}x{h}");
        }
    }

    #[test]
    fn rectangular_roundtrip() {
        let fft = Fft2d::<f64>::new(32, 8);
        let g = rand_grid(32, 8, 9);
        let mut r = g.clone();
        fft.forward(&mut r);
        fft.inverse(&mut r);
        assert!(max_err(&g, &r) < 1e-11);
    }

    #[test]
    fn forward_real_matches_complex_path() {
        let fft = Fft2d::<f64>::new(16, 16);
        let real = Grid::from_fn(16, 16, |x, y| ((x * 7 + y * 3) % 5) as f64);
        let via_real = fft.forward_real(&real);
        let mut via_complex = real.map(|&v| C64::from_real(v));
        fft.forward(&mut via_complex);
        assert!(max_err(&via_real, &via_complex) < 1e-12);
    }

    #[test]
    fn real_input_spectrum_is_hermitian() {
        let fft = Fft2d::<f64>::new(8, 8);
        let real = Grid::from_fn(8, 8, |x, y| (x as f64).sin() + (y as f64).cos());
        let f = fft.forward_real(&real);
        for ky in 0..8 {
            for kx in 0..8 {
                let conj_idx = ((8 - kx) % 8, (8 - ky) % 8);
                assert!((f[(kx, ky)] - f[conj_idx].conj()).norm() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match plan")]
    fn wrong_size_panics() {
        let fft = Fft2d::<f64>::new(8, 8);
        let mut g = Grid::new(4, 4, C64::ZERO);
        fft.forward(&mut g);
    }

    #[test]
    fn inverse_band_is_exact_on_banded_spectra() {
        let (w, h) = (32, 16);
        let fft = Fft2d::<f64>::new(w, h);
        // Spectrum nonzero only on a wrapped set of columns.
        let cols = [0usize, 1, 2, 30, 31, 7];
        let dense = {
            let noise = rand_grid(w, h, 11);
            Grid::from_fn(w, h, |x, y| {
                if cols.contains(&x) {
                    noise[(x, y)]
                } else {
                    C64::ZERO
                }
            })
        };
        let mut full = dense.clone();
        fft.inverse(&mut full);
        let mut banded = dense;
        fft.inverse_band_with(ctx(), &mut banded, &cols);
        // Exactly equal, not merely close: the band path runs the same
        // arithmetic on the same values and skips only zero columns.
        for (a, b) in full.as_slice().iter().zip(banded.as_slice()) {
            assert_eq!(a.re, b.re);
            assert_eq!(a.im, b.im);
        }
    }

    #[test]
    fn forward_band_matches_dense_on_listed_columns() {
        let (w, h) = (16, 32);
        let fft = Fft2d::<f64>::new(w, h);
        let g = rand_grid(w, h, 23);
        let cols = [0usize, 3, 8, 15];
        let mut dense = g.clone();
        fft.forward(&mut dense);
        let mut banded = g;
        fft.forward_band_with(ctx(), &mut banded, &cols);
        for &x in &cols {
            for y in 0..h {
                assert_eq!(dense[(x, y)].re, banded[(x, y)].re);
                assert_eq!(dense[(x, y)].im, banded[(x, y)].im);
            }
        }
    }

    #[test]
    fn banded_roundtrip_recovers_band_limited_signal() {
        // forward_band ∘ inverse_band on a band-limited spectrum is the
        // identity on the band.
        let (w, h) = (16, 16);
        let fft = Fft2d::<f64>::new(w, h);
        let cols = [0usize, 1, 14, 15];
        let noise = rand_grid(w, h, 5);
        let spectrum = Grid::from_fn(w, h, |x, y| {
            if cols.contains(&x) {
                noise[(x, y)]
            } else {
                C64::ZERO
            }
        });
        let mut field = spectrum.clone();
        fft.inverse_band_with(ctx(), &mut field, &cols);
        fft.forward_band_with(ctx(), &mut field, &cols);
        for &x in &cols {
            for y in 0..h {
                assert!((field[(x, y)] - spectrum[(x, y)]).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn degenerate_sizes_roundtrip() {
        // 1×N and N×1 grids: rows_per_chunk and both passes must neither
        // panic nor skip work. Pins the current (correct) behavior.
        for &(w, h) in &[(1usize, 16usize), (16, 1), (1, 1), (2, 1), (1, 2)] {
            let fft = Fft2d::<f64>::new(w, h);
            let g = rand_grid(w, h, (w * 17 + h) as u64);
            let expected = naive_dft2d(&g, false);
            let mut got = g.clone();
            fft.forward(&mut got);
            assert!(max_err(&got, &expected) < 1e-12, "forward at {w}x{h}");
            fft.inverse(&mut got);
            assert!(max_err(&got, &g) < 1e-12, "roundtrip at {w}x{h}");
        }
    }

    #[test]
    fn band_passes_handle_degenerate_inputs() {
        // Empty column list: the column pass is a no-op (the caller
        // asserts the spectrum is zero on unlisted columns), but the row
        // pass must still run — the pinned contract, not a silent skip of
        // the whole transform.
        let fft = Fft2d::<f64>::new(8, 8);
        let mut g = rand_grid(8, 8, 3);
        fft.inverse_band_with(ctx(), &mut g, &[]);
        // Row pass ran: rows are transformed even with no columns listed.
        let mut rows_only = rand_grid(8, 8, 3);
        fft.row_pass(ctx(), &mut rows_only, true);
        for (a, b) in g.as_slice().iter().zip(rows_only.as_slice()) {
            assert_eq!(a.re, b.re);
            assert_eq!(a.im, b.im);
        }

        // Single column on a 1-wide grid: the only column is 0.
        let fft = Fft2d::<f64>::new(1, 8);
        let spectrum = rand_grid(1, 8, 5);
        let mut full = spectrum.clone();
        fft.inverse(&mut full);
        let mut banded = spectrum;
        fft.inverse_band_with(ctx(), &mut banded, &[0]);
        for (a, b) in full.as_slice().iter().zip(banded.as_slice()) {
            assert_eq!(a.re, b.re);
            assert_eq!(a.im, b.im);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn band_column_out_of_range_panics() {
        let fft = Fft2d::<f64>::new(8, 8);
        let mut g = rand_grid(8, 8, 1);
        fft.inverse_band_with(ctx(), &mut g, &[8]);
    }

    #[test]
    fn batched_band_passes_are_bit_identical_to_sequential() {
        let (w, h) = (32, 16);
        let fft = Fft2d::<f64>::new(w, h);
        let col_sets: [&[usize]; 4] = [&[0, 1, 30, 31], &[2, 7], &[], &[0, 15, 16]];
        let grids: Vec<Grid<C64>> = (0..4).map(|i| rand_grid(w, h, 100 + i)).collect();

        let mut seq = grids.clone();
        for (g, cols) in seq.iter_mut().zip(&col_sets) {
            fft.inverse_band_with(ctx(), g, cols);
        }
        let mut batch = grids.clone();
        fft.inverse_band_batch_with(ctx(), &mut batch, &col_sets);
        for (a, b) in seq.iter().zip(&batch) {
            assert_eq!(a.as_slice(), b.as_slice(), "inverse batch differs");
        }

        let mut seq = grids.clone();
        for (g, cols) in seq.iter_mut().zip(&col_sets) {
            fft.forward_band_with(ctx(), g, cols);
        }
        let mut batch = grids;
        fft.forward_band_batch_with(ctx(), &mut batch, &col_sets);
        // Compare only the specified (listed) columns plus the row-pass
        // intermediate — which is also deterministic, so full equality
        // holds here too.
        for (a, b) in seq.iter().zip(&batch) {
            assert_eq!(a.as_slice(), b.as_slice(), "forward batch differs");
        }
    }

    #[test]
    fn batched_band_pass_with_empty_batch_is_noop() {
        let fft = Fft2d::<f64>::new(8, 8);
        let mut grids: Vec<Grid<C64>> = Vec::new();
        fft.inverse_band_batch_with(ctx(), &mut grids, &[]);
        fft.forward_band_batch_with(ctx(), &mut grids, &[]);
    }

    #[test]
    #[should_panic(expected = "one column list per grid")]
    fn batched_band_pass_length_mismatch_panics() {
        let fft = Fft2d::<f64>::new(8, 8);
        let mut grids = vec![rand_grid(8, 8, 1)];
        fft.inverse_band_batch_with(ctx(), &mut grids, &[]);
    }
}
