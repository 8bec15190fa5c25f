//! Kernel generation: Abbe source-point discretization and Hopkins
//! TCC + SOCS eigendecomposition.
//!
//! Both constructions produce a [`KernelSet`] for the Hopkins aerial-image
//! sum `I = Σ μ_k |h_k ⊗ M|²` (paper Eq. (1)):
//!
//! * **Abbe** ([`abbe_kernels`]): each discretized source point `s`
//!   contributes a coherent kernel `ĥ_s(f) = P(f + s)` with weight `J(s)`.
//!   This is exact for the discretized source and costs almost nothing.
//! * **TCC/SOCS** ([`tcc_kernels`]): the transmission cross-coefficient
//!   matrix `T(f₁, f₂) = Σ_s J(s)·P(f₁+s)·P*(f₂+s)` is built on the
//!   band-limited frequency support and its top-K eigenpairs become the
//!   kernels — the classical construction the ICCAD 2013 kernels came from.

use crate::eig::top_eigenpairs;
use crate::{CMatrix, KernelSet, OpticsConfig, Pupil};
use lsopc_grid::{Grid, C64};

/// Generates kernels by Abbe source-point discretization.
///
/// The source is discretized into `cfg.kernel_count()` points, so the
/// returned set has exactly that many kernels. The set is normalized to
/// unit clear-field intensity.
pub fn abbe_kernels(cfg: &OpticsConfig, defocus_nm: f64) -> KernelSet {
    let support = cfg.support_size();
    let c = (support / 2) as i64;
    let pupil = Pupil::new(cfg.wavelength_nm(), cfg.na(), defocus_nm);
    let fc = pupil.cutoff();
    let df = 1.0 / cfg.field_nm();
    let points = cfg.source().sample(cfg.kernel_count());

    let mut spectra = Vec::with_capacity(points.len());
    let mut weights = Vec::with_capacity(points.len());
    for p in &points {
        let (sx, sy) = (p.sx * fc, p.sy * fc);
        let spec = Grid::from_fn(support, support, |i, j| {
            let fx = (i as i64 - c) as f64 * df;
            let fy = (j as i64 - c) as f64 * df;
            pupil.eval(fx + sx, fy + sy)
        });
        spectra.push(spec);
        weights.push(p.weight);
    }
    KernelSet::new(spectra, weights, cfg.field_nm(), defocus_nm).normalized()
}

/// Generates kernels via the Hopkins TCC matrix and its top-K
/// eigendecomposition (SOCS).
///
/// The TCC is assembled on the disc of frequency samples inside the band
/// limit `(1 + σ_max)·NA/λ`, using `source_points` source samples for the
/// source integral, then reduced to `cfg.kernel_count()` kernels by
/// `iterations` rounds of orthogonal iteration. The set is normalized to
/// unit clear-field intensity.
///
/// This path is O(dim²·source_points) in time and O(dim²) in memory with
/// `dim ≈ π/4·S²`; prefer [`abbe_kernels`] for large fields unless the true
/// SOCS construction is required.
pub fn tcc_kernels(
    cfg: &OpticsConfig,
    defocus_nm: f64,
    source_points: usize,
    iterations: usize,
) -> KernelSet {
    let support = cfg.support_size();
    let c = (support / 2) as i64;
    let pupil = Pupil::new(cfg.wavelength_nm(), cfg.na(), defocus_nm);
    let fc = pupil.cutoff();
    let df = 1.0 / cfg.field_nm();
    let f_limit = (1.0 + cfg.source().sigma_max()) * fc + df;

    // Frequency samples within the band disc.
    let mut freqs: Vec<(i64, i64)> = Vec::new();
    for j in -c..=c {
        for i in -c..=c {
            let fx = i as f64 * df;
            let fy = j as f64 * df;
            if fx * fx + fy * fy <= f_limit * f_limit {
                freqs.push((i, j));
            }
        }
    }
    let dim = freqs.len();

    // Pupil samples per source point: column s → vector over freqs.
    let points = cfg.source().sample(source_points);
    let fields: Vec<Vec<C64>> = points
        .iter()
        .map(|p| {
            let (sx, sy) = (p.sx * fc, p.sy * fc);
            freqs
                .iter()
                .map(|&(i, j)| pupil.eval(i as f64 * df + sx, j as f64 * df + sy))
                .collect()
        })
        .collect();

    // T = Σ_s w_s · field_s · field_s† (Hermitian PSD by construction).
    let mut t = CMatrix::zeros(dim);
    for (p, field) in points.iter().zip(&fields) {
        for (a, &fa) in field.iter().enumerate() {
            if fa == C64::ZERO {
                continue;
            }
            let wfa = fa.scale(p.weight);
            for (b, &fb) in field.iter().enumerate() {
                t[(a, b)] += wfa * fb.conj();
            }
        }
    }

    let rank = cfg.kernel_count().min(dim);
    let eig = top_eigenpairs(&t, rank, iterations);

    let mut spectra = Vec::with_capacity(rank);
    let mut weights = Vec::with_capacity(rank);
    for (lam, vec) in eig.values.iter().zip(&eig.vectors) {
        let mut spec = Grid::new(support, support, C64::ZERO);
        for (&(i, j), &v) in freqs.iter().zip(vec) {
            spec[((i + c) as usize, (j + c) as usize)] = v;
        }
        spectra.push(spec);
        // TCC eigenvalues are non-negative up to rounding.
        weights.push(lam.max(0.0));
    }
    KernelSet::new(spectra, weights, cfg.field_nm(), defocus_nm).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_fft::Fft2d;

    fn small_cfg() -> OpticsConfig {
        OpticsConfig::iccad2013()
            .with_field_nm(256.0)
            .with_kernel_count(8)
    }

    /// Aerial image of a mask under a kernel set, computed directly.
    fn aerial(set: &KernelSet, mask: &Grid<f64>) -> Grid<f64> {
        let (w, h) = mask.dims();
        let fft = Fft2d::<f64>::new(w, h);
        let mhat = fft.forward_real(mask);
        let mut intensity = Grid::new(w, h, 0.0);
        for k in 0..set.len() {
            let mut field = set.embed_full(k, w, h).zip_map(&mhat, |&s, &m| s * m);
            fft.inverse(&mut field);
            let wk = set.weight(k);
            for (dst, &e) in intensity.as_mut_slice().iter_mut().zip(field.as_slice()) {
                *dst += wk * e.norm_sqr();
            }
        }
        intensity
    }

    #[test]
    fn abbe_kernel_count_and_normalization() {
        let set = abbe_kernels(&small_cfg(), 0.0);
        assert_eq!(set.len(), 8);
        assert!((set.clear_field_intensity() - 1.0).abs() < 1e-12);
        assert_eq!(set.defocus_nm(), 0.0);
    }

    #[test]
    fn abbe_clear_mask_prints_unit_intensity() {
        let set = abbe_kernels(&small_cfg(), 0.0);
        let mask = Grid::new(64, 64, 1.0);
        let img = aerial(&set, &mask);
        for (_, _, &v) in img.iter_coords() {
            assert!((v - 1.0).abs() < 1e-9, "intensity {v}");
        }
    }

    #[test]
    fn abbe_dark_mask_prints_zero() {
        let set = abbe_kernels(&small_cfg(), 0.0);
        let mask = Grid::new(64, 64, 0.0);
        let img = aerial(&set, &mask);
        assert!(img.sum() < 1e-12);
    }

    #[test]
    fn isolated_feature_blurs_and_dims() {
        // A sub-resolution 16nm slot prints with intensity below clear field
        // and spreads beyond its footprint — the low-pass behaviour that
        // motivates OPC.
        let cfg = small_cfg();
        let set = abbe_kernels(&cfg, 0.0);
        let px = 4.0; // nm per pixel on a 64-px grid over 256nm
        let mask = Grid::from_fn(64, 64, |x, y| {
            let (xn, yn) = (x as f64 * px, y as f64 * px);
            if (112.0..128.0).contains(&xn) && (64.0..192.0).contains(&yn) {
                1.0
            } else {
                0.0
            }
        });
        let img = aerial(&set, &mask);
        let peak = img.as_slice().iter().cloned().fold(0.0, f64::max);
        assert!(peak < 0.8, "16nm slot should print dim, peak={peak}");
        assert!(peak > 0.01, "some light must get through, peak={peak}");
        // Light spreads outside the geometric image.
        assert!(img[(24, 32)] > 1e-4);
    }

    #[test]
    fn tcc_matches_abbe_on_dense_source() {
        // With the same dense source sampling and full rank, the TCC/SOCS
        // image must match the Abbe image (same operator, different basis).
        let cfg = OpticsConfig::iccad2013()
            .with_field_nm(128.0)
            .with_kernel_count(24);
        let abbe = abbe_kernels(&cfg, 0.0);
        let tcc = tcc_kernels(&cfg, 0.0, 24, 120);
        let mask = Grid::from_fn(32, 32, |x, y| {
            if (10..22).contains(&x) && (12..20).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let ia = aerial(&abbe, &mask);
        let it = aerial(&tcc, &mask);
        let err = ia
            .as_slice()
            .iter()
            .zip(it.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 5e-3, "TCC vs Abbe max image error {err}");
    }

    #[test]
    fn tcc_weights_decay() {
        let set = tcc_kernels(&small_cfg(), 0.0, 48, 60);
        for k in 1..set.len() {
            assert!(
                set.weight(k) <= set.weight(k - 1) + 1e-12,
                "weights must be sorted descending"
            );
        }
        assert!(set.weight(0) > set.weight(set.len() - 1));
    }

    #[test]
    fn defocus_changes_image() {
        let cfg = small_cfg();
        let nominal = abbe_kernels(&cfg, 0.0);
        let defocused = abbe_kernels(&cfg, 50.0);
        let mask = Grid::from_fn(64, 64, |x, y| {
            if (24..40).contains(&x) && (16..48).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let i0 = aerial(&nominal, &mask);
        let i1 = aerial(&defocused, &mask);
        let diff: f64 = i0
            .as_slice()
            .iter()
            .zip(i1.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 0.1, "defocus must perturb the image, diff={diff}");
        // Defocus reduces peak contrast.
        let p0 = i0.as_slice().iter().cloned().fold(0.0, f64::max);
        let p1 = i1.as_slice().iter().cloned().fold(0.0, f64::max);
        assert!(p1 < p0 + 1e-9);
    }
}
