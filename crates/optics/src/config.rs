//! Top-level optical system configuration.

use crate::tcc::{abbe_kernels, tcc_kernels};
use crate::{KernelSet, SourceModel, ZernikeSet};

/// Configuration of the lithography optical system.
///
/// The defaults follow the ICCAD 2013 contest setup used in the paper:
/// 193 nm immersion lithography (NA 1.35) with annular illumination over a
/// 2048 nm tile, decomposed into 24 kernels.
///
/// # Example
///
/// ```
/// use lsopc_optics::OpticsConfig;
///
/// let cfg = OpticsConfig::iccad2013();
/// assert_eq!(cfg.wavelength_nm(), 193.0);
/// assert_eq!(cfg.kernel_count(), 24);
/// let kernels = cfg.with_field_nm(256.0).kernels(0.0);
/// assert_eq!(kernels.len(), 24);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OpticsConfig {
    wavelength_nm: f64,
    na: f64,
    source: SourceModel,
    field_nm: f64,
    kernel_count: usize,
    tcc_source_points: usize,
    tcc_iterations: usize,
    aberrations: ZernikeSet,
}

impl OpticsConfig {
    /// The ICCAD 2013 contest optical system: λ = 193 nm, NA = 1.35,
    /// annular 0.6/0.9 illumination, 2048 nm field, 24 kernels.
    pub fn iccad2013() -> Self {
        Self {
            wavelength_nm: 193.0,
            na: 1.35,
            source: SourceModel::Annular {
                sigma_in: 0.6,
                sigma_out: 0.9,
            },
            field_nm: 2048.0,
            kernel_count: 24,
            tcc_source_points: 120,
            tcc_iterations: 60,
            aberrations: ZernikeSet::NONE,
        }
    }

    /// Sets the source wavelength in nm.
    ///
    /// # Panics
    ///
    /// Panics if not positive.
    pub fn with_wavelength_nm(mut self, wavelength_nm: f64) -> Self {
        assert!(wavelength_nm > 0.0, "wavelength must be positive");
        self.wavelength_nm = wavelength_nm;
        self
    }

    /// Sets the numerical aperture.
    ///
    /// # Panics
    ///
    /// Panics if not positive.
    pub fn with_na(mut self, na: f64) -> Self {
        assert!(na > 0.0, "NA must be positive");
        self.na = na;
        self
    }

    /// Sets the (periodic) field size in nm.
    ///
    /// # Panics
    ///
    /// Panics if not positive.
    pub fn with_field_nm(mut self, field_nm: f64) -> Self {
        assert!(field_nm > 0.0, "field size must be positive");
        self.field_nm = field_nm;
        self
    }

    /// Sets the number of kernels `K` (paper: 24).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_kernel_count(mut self, kernel_count: usize) -> Self {
        assert!(kernel_count > 0, "kernel count must be positive");
        self.kernel_count = kernel_count;
        self
    }

    /// Sets the source discretization density for the TCC path.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_tcc_source_points(mut self, n: usize) -> Self {
        assert!(n > 0, "source point count must be positive");
        self.tcc_source_points = n;
        self
    }

    /// Sets the subspace-iteration count for the TCC eigendecomposition.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_tcc_iterations(mut self, n: usize) -> Self {
        assert!(n > 0, "iteration count must be positive");
        self.tcc_iterations = n;
        self
    }

    /// Sets Zernike lens aberrations applied to the pupil (an extension
    /// beyond the paper's defocus-only process model).
    pub fn with_aberrations(mut self, aberrations: ZernikeSet) -> Self {
        self.aberrations = aberrations;
        self
    }

    /// Zernike lens aberrations.
    pub fn aberrations(&self) -> ZernikeSet {
        self.aberrations
    }

    /// Wavelength in nm.
    pub fn wavelength_nm(&self) -> f64 {
        self.wavelength_nm
    }

    /// Numerical aperture.
    pub fn na(&self) -> f64 {
        self.na
    }

    /// Illumination shape.
    pub fn source(&self) -> SourceModel {
        self.source
    }

    /// Field period in nm.
    pub fn field_nm(&self) -> f64 {
        self.field_nm
    }

    /// Number of kernels `K`.
    pub fn kernel_count(&self) -> usize {
        self.kernel_count
    }

    /// Source samples used when assembling the TCC.
    pub fn tcc_source_points(&self) -> usize {
        self.tcc_source_points
    }

    /// Subspace iterations used by the TCC eigendecomposition.
    pub fn tcc_iterations(&self) -> usize {
        self.tcc_iterations
    }

    /// Coherent cutoff `NA/λ` in cycles/nm.
    pub fn cutoff(&self) -> f64 {
        self.na / self.wavelength_nm
    }

    /// Side length `S` (odd) of the centred spectral support window: all
    /// frequencies up to `(1 + σ_max)·NA/λ` plus one sample of margin.
    pub fn support_size(&self) -> usize {
        let f_limit = (1.0 + self.source.sigma_max()) * self.cutoff();
        let half = (f_limit * self.field_nm).ceil() as usize + 1;
        2 * half + 1
    }

    /// Generates the kernel set at `defocus_nm` via Abbe source-point
    /// discretization (the default path; exact for the discretized source).
    pub fn kernels(&self, defocus_nm: f64) -> KernelSet {
        abbe_kernels(self, defocus_nm)
    }

    /// Generates the kernel set at `defocus_nm` via the Hopkins TCC matrix
    /// and SOCS eigendecomposition (the classical construction; slower).
    pub fn kernels_tcc(&self, defocus_nm: f64) -> KernelSet {
        tcc_kernels(self, defocus_nm)
    }

    /// Generates the kernel set at `defocus_nm` in scalar precision `T`.
    ///
    /// Generation itself (source discretization, pupil sampling, SOCS
    /// decomposition) always runs in `f64` — the decomposition is
    /// numerically delicate and cheap relative to simulation — and the
    /// result is rounded once at this seam via [`KernelSet::cast`]. At
    /// `T = f64` the cast is the identity on every value.
    pub fn kernels_t<T: lsopc_grid::Scalar>(&self, defocus_nm: f64) -> KernelSet<T> {
        abbe_kernels(self, defocus_nm).cast()
    }
}

impl Default for OpticsConfig {
    fn default() -> Self {
        Self::iccad2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iccad_defaults() {
        let cfg = OpticsConfig::iccad2013();
        assert_eq!(cfg.na(), 1.35);
        assert_eq!(cfg.field_nm(), 2048.0);
        assert!((cfg.cutoff() - 1.35 / 193.0).abs() < 1e-15);
        assert_eq!(cfg, OpticsConfig::default());
    }

    #[test]
    fn support_size_is_odd_and_scales_with_field() {
        let small = OpticsConfig::iccad2013().with_field_nm(256.0);
        let large = OpticsConfig::iccad2013().with_field_nm(2048.0);
        assert_eq!(small.support_size() % 2, 1);
        assert_eq!(large.support_size() % 2, 1);
        assert!(large.support_size() > small.support_size());
        // 2048nm field: (1+0.9)·1.35/193·2048 ≈ 27.2 → half 29 → S = 59.
        assert_eq!(large.support_size(), 59);
    }

    #[test]
    fn builder_chain() {
        let cfg = OpticsConfig::iccad2013()
            .with_wavelength_nm(248.0)
            .with_na(0.93)
            .with_kernel_count(12)
            .with_field_nm(1024.0);
        assert_eq!(cfg.wavelength_nm(), 248.0);
        assert_eq!(cfg.na(), 0.93);
        assert_eq!(cfg.kernel_count(), 12);
        assert_eq!(cfg.field_nm(), 1024.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_field_panics() {
        let _ = OpticsConfig::iccad2013().with_field_nm(-1.0);
    }

    #[test]
    fn debug_output_shows_the_kernel_count() {
        let cfg = OpticsConfig::iccad2013().with_kernel_count(10);
        assert!(format!("{cfg:?}").contains("10"));
    }
}
