//! Band-limited optical kernel sets (the `h_k`, `μ_k` of paper Eq. (1)).

use lsopc_fft::{wrap_index, Fft2d};
use lsopc_grid::{Complex, Grid, Scalar};

/// A set of optical kernels stored as centred frequency-domain spectra.
///
/// The lithography system is band-limited: every kernel spectrum `ĥ_k` is
/// non-zero only on a small `S x S` window around DC, where `S` depends on
/// the optics (`(1 + σ_max)·NA/λ` in physical frequency times the field
/// period). Storing just that window makes kernel generation cheap and lets
/// the accelerated simulation backend exploit the band limit.
///
/// Index `(i, j)` of a spectrum corresponds to the spatial frequency
/// `((i − S/2)/L, (j − S/2)/L)` cycles/nm, with `L` the field period.
///
/// The set is generic over the scalar precision of its spectra and
/// weights; `f64` is the default and the precision kernels are generated
/// at ([`crate::OpticsConfig::kernels`] always computes in `f64` and
/// casts down via [`KernelSet::cast`], so an `f32` set is the rounded
/// image of the reference set, not an independently generated one).
#[derive(Clone, Debug)]
pub struct KernelSet<T: Scalar = f64> {
    support: usize,
    span: usize,
    max_nonzeros: usize,
    period_nm: f64,
    defocus_nm: f64,
    spectra: Vec<Grid<Complex<T>>>,
    weights: Vec<T>,
}

impl<T: Scalar> KernelSet<T> {
    /// Creates a kernel set.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, the support is even or does not match
    /// the spectra dimensions, weights and spectra differ in length, a
    /// weight is negative, or the period is not positive.
    pub fn new(
        spectra: Vec<Grid<Complex<T>>>,
        weights: Vec<T>,
        period_nm: f64,
        defocus_nm: f64,
    ) -> Self {
        assert!(!spectra.is_empty(), "kernel set must not be empty");
        assert_eq!(
            spectra.len(),
            weights.len(),
            "spectra and weights must have equal length"
        );
        assert!(period_nm > 0.0, "period must be positive");
        let support = spectra[0].width();
        assert!(
            support % 2 == 1,
            "kernel support must be odd, got {support}"
        );
        for s in &spectra {
            assert_eq!(s.dims(), (support, support), "all spectra must be S x S");
        }
        assert!(
            weights.iter().all(|&w| w >= T::ZERO),
            "kernel weights must be non-negative"
        );
        let (span, max_nonzeros) = spectra
            .iter()
            .map(nonzero_extent)
            .fold((0, 0), |(span, count), (s, c)| (span.max(s), count.max(c)));
        Self {
            support,
            span,
            max_nonzeros,
            period_nm,
            defocus_nm,
            spectra,
            weights,
        }
    }

    /// Number of kernels `K`.
    pub fn len(&self) -> usize {
        self.spectra.len()
    }

    /// Always false: kernel sets are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Spectral support `S` (side of the centred window, odd).
    pub fn support(&self) -> usize {
        self.support
    }

    /// Index of the DC sample inside a spectrum window (`S/2`).
    pub fn center(&self) -> usize {
        self.support / 2
    }

    /// Spectral span `D` of one kernel: the largest extent `max − min`,
    /// along either axis, of a single kernel's non-zero window samples,
    /// so one kernel's band fits in `D + 1` samples per axis.
    ///
    /// An Abbe kernel is the pupil shifted by its source point, so `D`
    /// is the pupil's diameter, not the union band: at the ICCAD 2013
    /// optics on a 2048 nm field `D = 28` inside `S = 59`. The intensity
    /// `|h_k ⊗ M|²` of any one kernel is band-limited to offsets
    /// `[−D, D]`, wherever the kernel sits in the window.
    pub fn kernel_span(&self) -> usize {
        self.span
    }

    /// Largest number of non-zero window samples of any one kernel.
    pub fn max_nonzeros(&self) -> usize {
        self.max_nonzeros
    }

    /// The field period `L` in nm (kernels assume `L`-periodic masks).
    pub fn period_nm(&self) -> f64 {
        self.period_nm
    }

    /// The defocus these kernels were generated at, in nm.
    pub fn defocus_nm(&self) -> f64 {
        self.defocus_nm
    }

    /// Weight `μ_k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn weight(&self, k: usize) -> T {
        self.weights[k]
    }

    /// Centred spectrum window of kernel `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn spectrum(&self, k: usize) -> &Grid<Complex<T>> {
        &self.spectra[k]
    }

    /// Embeds kernel `k`'s centred spectrum into a full `w x h` DFT-layout
    /// spectrum (DC at index 0, negative frequencies wrapped).
    ///
    /// # Panics
    ///
    /// Panics if the grid is too small to hold the band (`min(w, h) <
    /// support`) or `k` is out of range.
    pub fn embed_full(&self, k: usize, w: usize, h: usize) -> Grid<Complex<T>> {
        assert!(
            w >= self.support && h >= self.support,
            "grid {w}x{h} too small for kernel support {}",
            self.support
        );
        let window = &self.spectra[k];
        let c = self.center() as i64;
        let mut full = Grid::new(w, h, Complex::<T>::ZERO);
        for (i, j, &v) in window.iter_coords() {
            let fx = i as i64 - c;
            let fy = j as i64 - c;
            full[(wrap_index(fx, w), wrap_index(fy, h))] = v;
        }
        full
    }

    /// Spatial-domain kernel `h_k` on a `w x h` grid (inverse FFT of the
    /// embedded spectrum). Mainly for visualization and the reference
    /// simulation backend.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`KernelSet::embed_full`], or if
    /// `w`/`h` is not a power of two.
    pub fn spatial_kernel(&self, k: usize, w: usize, h: usize) -> Grid<Complex<T>> {
        let mut full = self.embed_full(k, w, h);
        Fft2d::<T>::new(w, h).inverse(&mut full);
        full
    }

    /// Intensity a fully transparent mask would print (`Σ μ_k |ĥ_k(0)|²`
    /// for unit-DC masks). Used for normalization.
    pub fn clear_field_intensity(&self) -> T {
        let c = self.center();
        self.spectra
            .iter()
            .zip(&self.weights)
            .map(|(s, &w)| w * s[(c, c)].norm_sqr())
            .sum()
    }

    /// Rescales all weights by `scale`.
    pub fn scale_weights(&mut self, scale: T) {
        for w in &mut self.weights {
            *w *= scale;
        }
    }

    /// Returns the set normalized so that a clear mask prints intensity 1.
    ///
    /// # Panics
    ///
    /// Panics if the clear-field intensity is zero (degenerate kernels).
    pub fn normalized(mut self) -> Self {
        let clear = self.clear_field_intensity();
        assert!(
            clear > T::ZERO,
            "cannot normalize: zero clear-field intensity"
        );
        self.scale_weights(T::ONE / clear);
        self
    }

    /// Keeps only the `rank` heaviest kernels (by weight), renormalizing so
    /// the clear-field intensity is preserved. This is the standard
    /// reduced-rank SOCS speed/accuracy knob.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`.
    pub fn truncated(&self, rank: usize) -> KernelSet<T> {
        assert!(rank > 0, "rank must be positive");
        let rank = rank.min(self.len());
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            self.weights[b]
                .partial_cmp(&self.weights[a])
                .expect("finite weights")
        });
        let kept: Vec<usize> = order.into_iter().take(rank).collect();
        let set = KernelSet::new(
            kept.iter().map(|&k| self.spectra[k].clone()).collect(),
            kept.iter().map(|&k| self.weights[k]).collect(),
            self.period_nm,
            self.defocus_nm,
        );
        set.normalized()
    }

    /// Converts the set to another scalar precision: each spectrum sample
    /// and weight is rounded once. Casting to the same precision is the
    /// identity on every value. The [`kernel_span`] and
    /// [`max_nonzeros`] are copied: rounding never turns a zero sample
    /// non-zero, so the source's values bound the cast set's.
    ///
    /// [`kernel_span`]: KernelSet::kernel_span
    /// [`max_nonzeros`]: KernelSet::max_nonzeros
    pub fn cast<U: Scalar>(&self) -> KernelSet<U> {
        KernelSet {
            support: self.support,
            span: self.span,
            max_nonzeros: self.max_nonzeros,
            period_nm: self.period_nm,
            defocus_nm: self.defocus_nm,
            spectra: self.spectra.iter().map(|s| s.map(|v| v.cast())).collect(),
            weights: self
                .weights
                .iter()
                .map(|w| U::from_f64(w.to_f64()))
                .collect(),
        }
    }
}

/// Span (largest `max − min` along either axis) and count of a window's
/// non-zero samples; `(0, 0)` for an all-zero window.
fn nonzero_extent<T: Scalar>(window: &Grid<Complex<T>>) -> (usize, usize) {
    let mut count = 0;
    let (mut x0, mut x1, mut y0, mut y1) = (usize::MAX, 0, usize::MAX, 0);
    for (i, j, &v) in window.iter_coords() {
        if v != Complex::<T>::ZERO {
            count += 1;
            (x0, x1, y0, y1) = (x0.min(i), x1.max(i), y0.min(j), y1.max(j));
        }
    }
    if count == 0 {
        return (0, 0);
    }
    ((x1 - x0).max(y1 - y0), count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_grid::C64;

    fn delta_set(support: usize, weight: f64) -> KernelSet {
        // A single kernel passing only DC.
        let mut s = Grid::new(support, support, C64::ZERO);
        s[(support / 2, support / 2)] = C64::ONE;
        KernelSet::new(vec![s], vec![weight], 256.0, 0.0)
    }

    #[test]
    fn accessors() {
        let set = delta_set(5, 2.0);
        assert_eq!(set.len(), 1);
        assert_eq!(set.support(), 5);
        assert_eq!(set.center(), 2);
        assert_eq!(set.weight(0), 2.0);
        assert_eq!(set.period_nm(), 256.0);
    }

    #[test]
    fn clear_field_and_normalization() {
        let set = delta_set(5, 4.0);
        assert_eq!(set.clear_field_intensity(), 4.0);
        let norm = set.normalized();
        assert!((norm.clear_field_intensity() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn embed_full_places_dc_at_origin() {
        let mut s = Grid::new(3, 3, C64::ZERO);
        s[(1, 1)] = C64::from_real(2.0); // DC
        s[(2, 1)] = C64::from_real(3.0); // +1 in x
        s[(0, 1)] = C64::from_real(4.0); // -1 in x
        let set = KernelSet::new(vec![s], vec![1.0], 64.0, 0.0);
        let full = set.embed_full(0, 8, 8);
        assert_eq!(full[(0, 0)].re, 2.0);
        assert_eq!(full[(1, 0)].re, 3.0);
        assert_eq!(full[(7, 0)].re, 4.0);
        assert_eq!(full[(4, 4)], C64::ZERO);
    }

    #[test]
    fn spatial_kernel_of_dc_only_is_constant() {
        let set = delta_set(3, 1.0);
        let h = set.spatial_kernel(0, 8, 8);
        let expected = 1.0 / 64.0; // IFFT normalization
        for (_, _, v) in h.iter_coords() {
            assert!((v.re - expected).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn truncation_keeps_heaviest_and_renormalizes() {
        let mut s1 = Grid::new(3, 3, C64::ZERO);
        s1[(1, 1)] = C64::ONE;
        let mut s2 = Grid::new(3, 3, C64::ZERO);
        s2[(1, 1)] = C64::ONE;
        let set = KernelSet::new(vec![s1, s2], vec![0.25, 0.75], 64.0, 0.0).normalized();
        let t = set.truncated(1);
        assert_eq!(t.len(), 1);
        assert!((t.clear_field_intensity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cast_is_identity_at_same_precision() {
        let set = delta_set(5, 2.0);
        let same = set.cast::<f64>();
        assert_eq!(same.weight(0).to_bits(), set.weight(0).to_bits());
        for (a, b) in same
            .spectrum(0)
            .as_slice()
            .iter()
            .zip(set.spectrum(0).as_slice())
        {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        let low = set.cast::<f32>();
        assert_eq!(low.support(), 5);
        assert_eq!(low.weight(0), 2.0_f32);
        // Round-tripping f64 → f32 → f64 rounds to f32 precision.
        let back = low.cast::<f64>();
        assert_eq!(back.weight(0), 2.0);
    }

    #[test]
    fn kernel_span_is_one_pupil_not_the_union_band() {
        // An Abbe kernel is the pupil shifted by its source point, so one
        // kernel spans the pupil's diameter, at any focus.
        for (field, defocus, support, span) in [
            (2048.0, 0.0, 59, 28),
            (2048.0, 25.0, 59, 28),
            (512.0, 0.0, 17, 7),
        ] {
            let set = crate::OpticsConfig::iccad2013()
                .with_field_nm(field)
                .with_kernel_count(24)
                .kernels(defocus);
            assert_eq!(set.support(), support, "S at {field} nm");
            assert_eq!(set.kernel_span(), span, "D at {field} nm, {defocus} nm");
            let widest = (0..set.len())
                .map(|k| {
                    set.spectrum(k)
                        .as_slice()
                        .iter()
                        .filter(|v| **v != C64::ZERO)
                        .count()
                })
                .max();
            assert_eq!(Some(set.max_nonzeros()), widest);
        }
    }

    #[test]
    fn span_and_nonzeros_follow_the_spectra() {
        // A 3-sample kernel spanning offsets −1..=1 in x next to a
        // DC-only kernel.
        let mut wide = Grid::new(5, 5, C64::ZERO);
        for i in 1..=3 {
            wide[(i, 2)] = C64::ONE;
        }
        let mut dc = Grid::new(5, 5, C64::ZERO);
        dc[(2, 2)] = C64::ONE;
        let set = KernelSet::new(vec![wide, dc], vec![0.25, 0.75], 64.0, 0.0);
        assert_eq!((set.kernel_span(), set.max_nonzeros()), (2, 3));
        // `cast` copies both numbers with the spectra.
        let low = set.cast::<f32>();
        assert_eq!((low.kernel_span(), low.max_nonzeros()), (2, 3));
        // `truncated` builds a new set, so it recomputes them: the
        // heavier DC kernel alone spans nothing.
        let heaviest = set.truncated(1);
        assert_eq!((heaviest.kernel_span(), heaviest.max_nonzeros()), (0, 1));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn embed_rejects_small_grid() {
        let set = delta_set(5, 1.0);
        let _ = set.embed_full(0, 4, 4);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_support_panics() {
        let s = Grid::new(4, 4, C64::ZERO);
        let _ = KernelSet::new(vec![s], vec![1.0], 64.0, 0.0);
    }
}
