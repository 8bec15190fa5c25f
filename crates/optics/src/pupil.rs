//! The projection-lens pupil function.

use lsopc_grid::C64;

/// The (circular, unapodized) pupil of the projection lens, with an exact
/// (non-paraxial) defocus phase term.
///
/// Spatial frequencies are physical, in cycles/nm. The pupil passes
/// `|f| <= NA/λ` and a defocus `δz` multiplies the passband by
/// `exp(i·2π·δz·(sqrt(1/λ² − |f|²) − 1/λ))`, the difference in axial
/// propagation constant — the standard scalar defocus model.
///
/// # Example
///
/// ```
/// use lsopc_optics::Pupil;
///
/// let pupil = Pupil::new(193.0, 1.35, 0.0);
/// assert_eq!(pupil.eval(0.0, 0.0).re, 1.0);          // DC passes
/// assert_eq!(pupil.eval(0.01, 0.0).norm_sqr(), 0.0); // beyond cutoff
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Pupil {
    wavelength_nm: f64,
    na: f64,
    defocus_nm: f64,
    cutoff: f64,
}

impl Pupil {
    /// Creates a pupil for the given wavelength (nm), numerical aperture
    /// and defocus (nm).
    ///
    /// # Panics
    ///
    /// Panics if the wavelength or NA is not positive.
    pub fn new(wavelength_nm: f64, na: f64, defocus_nm: f64) -> Self {
        assert!(wavelength_nm > 0.0, "wavelength must be positive");
        assert!(na > 0.0, "numerical aperture must be positive");
        Self {
            wavelength_nm,
            na,
            defocus_nm,
            cutoff: na / wavelength_nm,
        }
    }

    /// The coherent cutoff frequency `NA/λ` in cycles/nm.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Defocus in nanometres.
    pub fn defocus_nm(&self) -> f64 {
        self.defocus_nm
    }

    /// Evaluates the pupil at physical frequency `(fx, fy)` cycles/nm.
    pub fn eval(&self, fx: f64, fy: f64) -> C64 {
        let f2 = fx * fx + fy * fy;
        if f2 > self.cutoff * self.cutoff {
            return C64::ZERO;
        }
        if self.defocus_nm == 0.0 {
            return C64::ONE;
        }
        let inv_lambda = 1.0 / self.wavelength_nm;
        // kz/2π = sqrt(1/λ² − f²); guard tiny negatives from rounding.
        let kz = (inv_lambda * inv_lambda - f2).max(0.0).sqrt();
        let phase = 2.0 * std::f64::consts::PI * self.defocus_nm * (kz - inv_lambda);
        if phase == 0.0 {
            C64::ONE
        } else {
            C64::cis(phase)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passband_and_stopband() {
        let p = Pupil::new(193.0, 1.35, 0.0);
        let fc = 1.35 / 193.0;
        assert_eq!(p.eval(fc * 0.99, 0.0), C64::ONE);
        assert_eq!(p.eval(fc * 1.01, 0.0), C64::ZERO);
        assert!((p.cutoff() - fc).abs() < 1e-15);
    }

    #[test]
    fn defocus_is_pure_phase() {
        let p = Pupil::new(193.0, 1.35, 25.0);
        let v = p.eval(0.004, 0.002);
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn defocus_phase_is_zero_at_dc() {
        let p = Pupil::new(193.0, 1.35, 25.0);
        assert!((p.eval(0.0, 0.0) - C64::ONE).norm() < 1e-12);
    }

    #[test]
    fn defocus_phase_grows_with_frequency() {
        let p = Pupil::new(193.0, 1.35, 25.0);
        // Phase magnitude increases monotonically with |f|.
        let phase_at = |f: f64| {
            let v = p.eval(f, 0.0);
            v.im.atan2(v.re).abs()
        };
        assert!(phase_at(0.002) < phase_at(0.004));
        assert!(phase_at(0.004) < phase_at(0.006));
    }

    #[test]
    fn opposite_defocus_conjugates() {
        let plus = Pupil::new(193.0, 1.35, 25.0);
        let minus = Pupil::new(193.0, 1.35, -25.0);
        let a = plus.eval(0.005, 0.001);
        let b = minus.eval(0.005, 0.001);
        assert!((a - b.conj()).norm() < 1e-12);
    }

    #[test]
    fn radially_symmetric() {
        let p = Pupil::new(193.0, 1.35, 30.0);
        let a = p.eval(0.003, 0.004);
        let b = p.eval(0.005, 0.0);
        assert!((a - b).norm() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_na_panics() {
        let _ = Pupil::new(193.0, 0.0, 0.0);
    }
}
