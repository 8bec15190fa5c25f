//! Cached sparse embedded kernel spectra.
//!
//! Every FFT-based backend needs each kernel's centred `S x S` spectrum
//! window embedded into full `w x h` DFT layout. Doing that per call
//! allocates a dense full-size grid per kernel and re-derives the same
//! wrap/centre arithmetic in several places. This module computes the
//! embedding once per `(KernelSet, grid size)` and stores it sparsely:
//!
//! * [`EmbeddedSpectra`] — per kernel, the non-zero band samples as
//!   `(linear index, value)` pairs plus the sorted list of full-grid
//!   columns the band touches (the input to [`Fft2d::inverse_band`] /
//!   [`Fft2d::forward_band`]);
//! * [`SpectrumCache`] — a process-global map keyed by
//!   `(KernelSet::id(), w, h, scalar type)`. Kernel spectra are immutable
//!   after construction (see [`KernelSet::id`]), so the id is a sound
//!   key; the scalar `TypeId` keeps f32 and f64 embeddings apart —
//!   [`KernelSet::cast`] preserves the id, so without the type in the
//!   key a cache warmed at f64 could serve an f32 run.
//!
//! [`KernelSet::cast`]: lsopc_optics::KernelSet::cast
//!
//! All band-window application and adjoint accumulation in this crate
//! goes through [`EmbeddedSpectra::apply_window_into_half`] (the
//! backends, reading the rfft half spectrum of the mask),
//! [`EmbeddedSpectra::apply_window_into`] (one-shot dense callers) and
//! [`EmbeddedSpectra::accumulate_adjoint`], so the wrap/centre logic
//! exists in exactly one place: [`EmbeddedSpectra::new`].
//!
//! [`Fft2d::inverse_band`]: lsopc_fft::Fft2d::inverse_band
//! [`Fft2d::forward_band`]: lsopc_fft::Fft2d::forward_band
//! [`KernelSet::id`]: lsopc_optics::KernelSet::id

use std::any::{Any, TypeId};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, PoisonError, RwLock};

use lsopc_fft::{wrap_index, HalfSpectrum};
use lsopc_grid::{Complex, Grid, Scalar};
use lsopc_optics::KernelSet;

/// One kernel's band window in full DFT layout, stored sparsely.
#[derive(Debug)]
struct SparseKernel<T: Scalar> {
    /// `(y * width + x, value)` for every non-zero window sample.
    entries: Vec<(usize, Complex<T>)>,
    /// Per entry: the linear index into a `(w/2 + 1) × h` half-spectrum
    /// layout ([`lsopc_fft::HalfSpectrum`]) holding that sample's mask
    /// value, and whether the stored value must be conjugated (the entry
    /// sits in the mirrored half). Precomputed so the backends pay no
    /// per-call wrap arithmetic.
    half_entries: Vec<(usize, bool)>,
    /// Sorted, deduplicated full-grid columns holding those samples.
    cols: Vec<usize>,
}

/// The spectra of one [`KernelSet`] embedded on one grid size.
#[derive(Debug)]
pub(crate) struct EmbeddedSpectra<T: Scalar = f64> {
    width: usize,
    height: usize,
    kernels: Vec<SparseKernel<T>>,
    /// Union of all kernels' columns (for band transforms of accumulated
    /// spectra such as the gradient's).
    all_cols: Vec<usize>,
}

impl<T: Scalar> EmbeddedSpectra<T> {
    /// Embeds every kernel of `kernels` into `width x height` DFT layout.
    ///
    /// # Panics
    ///
    /// Panics if the grid is too small to hold the band
    /// (`min(width, height) < kernels.support()`).
    pub(crate) fn new(kernels: &KernelSet<T>, width: usize, height: usize) -> Self {
        let s = kernels.support();
        assert!(
            width >= s && height >= s,
            "grid {width}x{height} too small for kernel support {s}"
        );
        let c = kernels.center() as i64;
        let hw = width / 2 + 1;
        let mut all_cols = BTreeSet::new();
        let sparse: Vec<SparseKernel<T>> = (0..kernels.len())
            .map(|k| {
                let window = kernels.spectrum(k);
                let mut entries = Vec::new();
                let mut half_entries = Vec::new();
                let mut cols = BTreeSet::new();
                for (i, j, &v) in window.iter_coords() {
                    if v == Complex::<T>::ZERO {
                        continue;
                    }
                    let fx = wrap_index(i as i64 - c, width);
                    let fy = wrap_index(j as i64 - c, height);
                    entries.push((fy * width + fx, v));
                    // The half layout stores kx ≤ w/2; mirrored entries
                    // read the conjugate of the stored sample.
                    let (hx, hy, conj) = if fx <= width / 2 {
                        (fx, fy, false)
                    } else {
                        (width - fx, (height - fy) % height, true)
                    };
                    half_entries.push((hy * hw + hx, conj));
                    cols.insert(fx);
                }
                all_cols.extend(cols.iter().copied());
                SparseKernel {
                    entries,
                    half_entries,
                    cols: cols.into_iter().collect(),
                }
            })
            .collect();
        Self {
            width,
            height,
            kernels: sparse,
            all_cols: all_cols.into_iter().collect(),
        }
    }

    /// Grid size these spectra are embedded on.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Full-grid columns touched by kernel `k`'s band.
    pub(crate) fn cols(&self, k: usize) -> &[usize] {
        &self.kernels[k].cols
    }

    /// Full-grid columns touched by any kernel's band.
    pub(crate) fn all_cols(&self) -> &[usize] {
        &self.all_cols
    }

    /// Writes `out := Ŝ_k ⊙ mhat`: the band samples get the product, the
    /// rest of `out` is zeroed (so `out` may be a reused scratch grid).
    ///
    /// # Panics
    ///
    /// Panics if `mhat` or `out` does not match the embedded grid size.
    pub(crate) fn apply_window_into(
        &self,
        k: usize,
        mhat: &Grid<Complex<T>>,
        out: &mut Grid<Complex<T>>,
    ) {
        assert_eq!(mhat.dims(), self.dims(), "spectrum dimensions must match");
        assert_eq!(out.dims(), self.dims(), "output dimensions must match");
        out.as_mut_slice().fill(Complex::<T>::ZERO);
        let m = mhat.as_slice();
        let o = out.as_mut_slice();
        for &(idx, s) in &self.kernels[k].entries {
            o[idx] = s * m[idx];
        }
    }

    /// [`Self::apply_window_into`] reading the mask spectrum from the
    /// rfft half layout: `out := Ŝ_k ⊙ mhat` with mirrored samples
    /// reconstructed by conjugate symmetry through the precomputed
    /// `half_entries` table. `out` is still a full dense grid (the band
    /// inverse transform wants full layout); only the *input* spectrum is
    /// halved.
    ///
    /// # Panics
    ///
    /// Panics if `mhat` or `out` does not match the embedded grid size.
    pub(crate) fn apply_window_into_half(
        &self,
        k: usize,
        mhat: &HalfSpectrum<T>,
        out: &mut Grid<Complex<T>>,
    ) {
        assert_eq!(mhat.dims(), self.dims(), "spectrum dimensions must match");
        assert_eq!(out.dims(), self.dims(), "output dimensions must match");
        out.as_mut_slice().fill(Complex::<T>::ZERO);
        let m = mhat.as_slice();
        let o = out.as_mut_slice();
        let kern = &self.kernels[k];
        for (&(idx, s), &(hidx, conj)) in kern.entries.iter().zip(&kern.half_entries) {
            let mv = if conj { m[hidx].conj() } else { m[hidx] };
            o[idx] = s * mv;
        }
    }

    /// Accumulates the adjoint contribution of kernel `k`:
    /// `acc[κ] += conj(Ŝ_k[κ]) · weight · field[κ]` over the band samples.
    /// `field` is only read at band samples, so it may come out of
    /// [`Fft2d::forward_band`] (whose off-band columns are unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `field` or `acc` does not match the embedded grid size.
    ///
    /// [`Fft2d::forward_band`]: lsopc_fft::Fft2d::forward_band
    pub(crate) fn accumulate_adjoint(
        &self,
        k: usize,
        field: &Grid<Complex<T>>,
        weight: T,
        acc: &mut Grid<Complex<T>>,
    ) {
        assert_eq!(field.dims(), self.dims(), "field dimensions must match");
        assert_eq!(acc.dims(), self.dims(), "accumulator dimensions must match");
        let f = field.as_slice();
        let a = acc.as_mut_slice();
        for &(idx, s) in &self.kernels[k].entries {
            a[idx] += s.conj() * f[idx].scale(weight);
        }
    }
}

/// Largest number of `(kernel set, grid size)` combinations kept before
/// the cache is wiped. Kernel-set ids are never reused, so long-running
/// processes that keep generating sets (e.g. per-defocus sweeps in tests)
/// would otherwise grow the map without bound. Rebuilding an entry is
/// cheap — O(K·S²) integer arithmetic, no transforms.
const SPECTRUM_CACHE_CAPACITY: usize = 64;

/// Cache of embedded kernel spectra keyed by
/// `(KernelSet::id(), width, height, scalar type)`.
///
/// Values are type-erased (`Arc<dyn Any>`) because one map serves every
/// scalar precision; the `TypeId` in the key guarantees each entry
/// downcasts back to the precision it was built at.
///
/// Backends default to the process-global instance ([`Self::global`]);
/// callers that want isolation or explicit sharing across simulators
/// (the `lsopc-engine` crate) build their own with [`Self::new`] and
/// inject it via `SimCaches`.
///
/// A build that panics (a grid too small for the band) poisons the lock
/// but leaves the map valid, so lookups recover it from the
/// `PoisonError`.
///
/// [`KernelSet::id`]: lsopc_optics::KernelSet::id
#[derive(Debug, Default)]
pub struct SpectrumCache {
    #[allow(clippy::type_complexity)]
    map: RwLock<HashMap<(u64, usize, usize, TypeId), Arc<dyn Any + Send + Sync>>>,
}

impl SpectrumCache {
    /// An empty cache, independent of the process-global one.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global instance shared by the simulation backends.
    pub fn global() -> &'static SpectrumCache {
        static GLOBAL: std::sync::LazyLock<SpectrumCache> =
            std::sync::LazyLock::new(SpectrumCache::default);
        &GLOBAL
    }

    /// Returns the embedded spectra of `kernels` on a `width x height`
    /// grid, building them on first use.
    ///
    /// # Panics
    ///
    /// Panics if the grid is too small for the kernel band.
    pub(crate) fn embedded<T: Scalar>(
        &self,
        kernels: &KernelSet<T>,
        width: usize,
        height: usize,
    ) -> Arc<EmbeddedSpectra<T>> {
        let key = (kernels.id(), width, height, TypeId::of::<T>());
        if let Some(spectra) = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            lsopc_trace::count("cache.spectra.hit", 1);
            return downcast_spectra(spectra);
        }
        lsopc_trace::count("cache.spectra.miss", 1);
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        if !map.contains_key(&key) && map.len() >= SPECTRUM_CACHE_CAPACITY {
            map.clear();
        }
        let erased = map
            .entry(key)
            .or_insert_with(|| Arc::new(EmbeddedSpectra::new(kernels, width, height)));
        downcast_spectra(erased)
    }

    /// Number of cached `(kernel set, grid size, precision)` combinations.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// Recovers the typed `Arc<EmbeddedSpectra<T>>` from a cache entry. The
/// key's `TypeId` guarantees the downcast succeeds.
fn downcast_spectra<T: Scalar>(erased: &Arc<dyn Any + Send + Sync>) -> Arc<EmbeddedSpectra<T>> {
    Arc::clone(erased)
        .downcast::<EmbeddedSpectra<T>>()
        .unwrap_or_else(|_| unreachable!("spectrum cache entry keyed by TypeId has that type"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_grid::C64;
    use lsopc_optics::OpticsConfig;

    fn kernels() -> KernelSet {
        OpticsConfig::iccad2013()
            .with_field_nm(256.0)
            .with_kernel_count(4)
            .kernels(0.0)
    }

    #[test]
    fn sparse_application_matches_dense_embedding() {
        let ks = kernels();
        let (w, h) = (32, 32);
        let spectra = EmbeddedSpectra::new(&ks, w, h);
        let mhat = Grid::from_fn(w, h, |x, y| C64::new(x as f64 + 0.5, y as f64 - 3.0));
        let mut sparse = Grid::new(w, h, C64::new(7.0, 7.0)); // scratch garbage
        for k in 0..ks.len() {
            spectra.apply_window_into(k, &mhat, &mut sparse);
            let dense = ks.embed_full(k, w, h).zip_map(&mhat, |&s, &m| s * m);
            assert_eq!(sparse.as_slice(), dense.as_slice());
        }
    }

    #[test]
    fn cols_cover_every_nonzero_column() {
        let ks = kernels();
        let spectra = EmbeddedSpectra::new(&ks, 64, 64);
        for k in 0..ks.len() {
            let dense = ks.embed_full(k, 64, 64);
            for x in 0..64 {
                let nonzero = (0..64).any(|y| dense[(x, y)] != C64::ZERO);
                let listed = spectra.cols(k).contains(&x);
                assert!(!nonzero || listed, "kernel {k}: column {x} missing");
                assert!(spectra.all_cols().contains(&x) || !listed);
            }
            // Sorted and deduplicated.
            assert!(spectra.cols(k).windows(2).all(|p| p[0] < p[1]));
        }
        assert!(spectra.all_cols().windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn half_window_application_matches_dense_on_real_masks() {
        // The rfft path feeds apply_window_into_half a HalfSpectrum of a
        // real mask; the result must match the dense-path application of
        // the same spectrum to FFT rounding.
        let ks = kernels();
        let (w, h) = (32, 32);
        let spectra = EmbeddedSpectra::new(&ks, w, h);
        let mask = Grid::from_fn(w, h, |x, y| {
            if (8..20).contains(&x) && (4..28).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let dense = lsopc_fft::plan(w, h).forward_real(&mask);
        let half = lsopc_fft::rplan(w, h).forward(&mask);
        let mut out_dense = Grid::new(w, h, C64::ZERO);
        let mut out_half = Grid::new(w, h, C64::new(9.0, 9.0)); // scratch garbage
        for k in 0..ks.len() {
            spectra.apply_window_into(k, &dense, &mut out_dense);
            spectra.apply_window_into_half(k, &half, &mut out_half);
            let err = out_dense
                .as_slice()
                .iter()
                .zip(out_half.as_slice())
                .map(|(a, b)| (*a - *b).norm())
                .fold(0.0, f64::max);
            assert!(err < 1e-12, "kernel {k}: dense vs half diff {err}");
        }
    }

    #[test]
    fn half_entries_mirror_positions_agree_with_hermitian_accessor() {
        // Bit-exact check of the precomputed table: applying the window
        // to a synthetic Hermitian-projected spectrum must equal applying
        // the dense window to its full expansion, sample for sample.
        let ks = kernels();
        let (w, h) = (32, 32);
        let spectra = EmbeddedSpectra::new(&ks, w, h);
        let arbitrary = Grid::from_fn(w, h, |x, y| C64::new(x as f64 - 3.5, 0.25 * y as f64));
        let half = lsopc_fft::HalfSpectrum::from_full_hermitian(&arbitrary);
        let full = half.to_full();
        let mut via_half = Grid::new(w, h, C64::ZERO);
        let mut via_dense = Grid::new(w, h, C64::ZERO);
        for k in 0..ks.len() {
            spectra.apply_window_into_half(k, &half, &mut via_half);
            spectra.apply_window_into(k, &full, &mut via_dense);
            assert_eq!(via_half.as_slice(), via_dense.as_slice(), "kernel {k}");
        }
    }

    #[test]
    fn adjoint_accumulation_matches_dense_formula() {
        let ks = kernels();
        let (w, h) = (32, 32);
        let spectra = EmbeddedSpectra::new(&ks, w, h);
        let field = Grid::from_fn(w, h, |x, y| C64::new(y as f64, x as f64 * 0.25));
        let mut acc = Grid::new(w, h, C64::ZERO);
        spectra.accumulate_adjoint(1, &field, 0.75, &mut acc);
        let dense = ks.embed_full(1, w, h);
        for (i, j, &s) in dense.iter_coords() {
            let expected = s.conj() * field[(i, j)].scale(0.75);
            assert_eq!(acc[(i, j)], expected);
        }
    }

    #[test]
    fn cache_returns_same_arc_per_set_and_size() {
        let ks = kernels();
        let cache = SpectrumCache::default();
        let a = cache.embedded(&ks, 32, 32);
        let b = cache.embedded(&ks, 32, 32);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.embedded(&ks, 64, 64);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // A clone shares spectra, hence the cache entry.
        let d = cache.embedded(&ks.clone(), 32, 32);
        assert!(Arc::ptr_eq(&a, &d));
        // A truncated set has fresh spectra, hence a fresh entry.
        let e = cache.embedded(&ks.truncated(2), 32, 32);
        assert!(!Arc::ptr_eq(&a, &e));
    }

    #[test]
    fn cache_keys_on_precision_so_f64_never_serves_f32() {
        // Regression: `KernelSet::cast` keeps the id, so an f32 run on a
        // cast of an f64-warmed set must get its own embedding, not a
        // type-confused reuse of the f64 one.
        let ks = kernels();
        let ks32 = ks.cast::<f32>();
        assert_eq!(ks.id(), ks32.id(), "cast keeps the id (premise)");
        let cache = SpectrumCache::default();
        let warm64 = cache.embedded(&ks, 32, 32);
        let cold32 = cache.embedded(&ks32, 32, 32);
        assert_eq!(cache.len(), 2, "one entry per precision");
        // Back-to-back lookups at both precisions keep returning their
        // own entries.
        assert!(Arc::ptr_eq(&warm64, &cache.embedded(&ks, 32, 32)));
        assert!(Arc::ptr_eq(&cold32, &cache.embedded(&ks32, 32, 32)));
        assert_eq!(cache.len(), 2);
        // The f32 embedding is the rounded image of the f64 one.
        for k in 0..ks.len() {
            assert_eq!(warm64.cols(k), cold32.cols(k));
            for (a, b) in warm64.kernels[k]
                .entries
                .iter()
                .zip(&cold32.kernels[k].entries)
            {
                assert_eq!(a.0, b.0, "same sparse layout");
                assert_eq!(a.1.re as f32, b.1.re);
                assert_eq!(a.1.im as f32, b.1.im);
            }
        }
    }

    #[test]
    fn cache_eviction_keeps_outstanding_arcs_usable() {
        let cache = SpectrumCache::default();
        let first = kernels();
        let held = cache.embedded(&first, 32, 32);
        for _ in 0..SPECTRUM_CACHE_CAPACITY {
            cache.embedded(&kernels(), 32, 32);
        }
        assert!(cache.len() <= SPECTRUM_CACHE_CAPACITY);
        // The wiped entry is rebuilt as a distinct allocation; the held
        // Arc keeps working.
        let rebuilt = cache.embedded(&first, 32, 32);
        assert!(!Arc::ptr_eq(&held, &rebuilt));
        assert_eq!(held.cols(0), rebuilt.cols(0));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_undersized_grid() {
        let _ = EmbeddedSpectra::new(&kernels(), 4, 4);
    }
}
