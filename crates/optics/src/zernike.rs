//! Zernike aberration polynomials for the pupil.
//!
//! The paper's optical model only varies defocus; real scanners also
//! suffer astigmatism, coma and spherical aberration, conventionally
//! expressed as Zernike terms on the unit pupil. This module provides the
//! low-order fringe-Zernike set so process-window experiments can go
//! beyond the paper (see the ablation benches).
//!
//! Polynomials are evaluated in normalized pupil coordinates
//! `ρ ∈ [0, 1]`, `θ`; coefficients are in waves (multiples of `2π` phase).

/// Low-order fringe Zernike aberration coefficients, in waves.
///
/// # Example
///
/// ```
/// use lsopc_optics::ZernikeSet;
///
/// let aberrations = ZernikeSet {
///     defocus: 0.05,
///     ..ZernikeSet::NONE
/// };
/// // Defocus phase peaks at the pupil edge.
/// let edge = aberrations.phase_waves(1.0, 0.0);
/// let center = aberrations.phase_waves(0.0, 0.0);
/// assert!(edge > center);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ZernikeSet {
    /// Z4 defocus: `2ρ² − 1`.
    pub defocus: f64,
    /// Z5 astigmatism 0°: `ρ²·cos 2θ`.
    pub astigmatism_0: f64,
    /// Z6 astigmatism 45°: `ρ²·sin 2θ`.
    pub astigmatism_45: f64,
    /// Z7 coma x: `(3ρ³ − 2ρ)·cos θ`.
    pub coma_x: f64,
    /// Z8 coma y: `(3ρ³ − 2ρ)·sin θ`.
    pub coma_y: f64,
    /// Z9 primary spherical: `6ρ⁴ − 6ρ² + 1`.
    pub spherical: f64,
}

impl ZernikeSet {
    /// No aberrations.
    pub const NONE: Self = Self {
        defocus: 0.0,
        astigmatism_0: 0.0,
        astigmatism_45: 0.0,
        coma_x: 0.0,
        coma_y: 0.0,
        spherical: 0.0,
    };

    /// True when every coefficient is zero.
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }

    /// Total wavefront phase in waves at pupil position `(ρ, θ)`.
    ///
    /// Positions with `ρ > 1` are outside the pupil; the value is still
    /// the polynomial continuation (the caller applies the aperture).
    pub fn phase_waves(&self, rho: f64, theta: f64) -> f64 {
        let r2 = rho * rho;
        let r3 = r2 * rho;
        let r4 = r2 * r2;
        self.defocus * (2.0 * r2 - 1.0)
            + self.astigmatism_0 * r2 * (2.0 * theta).cos()
            + self.astigmatism_45 * r2 * (2.0 * theta).sin()
            + self.coma_x * (3.0 * r3 - 2.0 * rho) * theta.cos()
            + self.coma_y * (3.0 * r3 - 2.0 * rho) * theta.sin()
            + self.spherical * (6.0 * r4 - 6.0 * r2 + 1.0)
    }

    /// Phase in radians at normalized pupil coordinates `(px, py)`
    /// (Cartesian, `px² + py² = ρ²`).
    pub fn phase_radians(&self, px: f64, py: f64) -> f64 {
        let rho = (px * px + py * py).sqrt();
        let theta = py.atan2(px);
        2.0 * std::f64::consts::PI * self.phase_waves(rho, theta)
    }

    /// Root-mean-square wavefront error in waves over the unit pupil,
    /// using the Zernike orthogonality relations (each term contributes
    /// `c²/(2(n+1))`-style normalization factors; fringe convention).
    pub fn rms_waves(&self) -> f64 {
        // Normalization integrals of the un-normalized fringe polynomials
        // over the unit disc, ⟨Z²⟩: Z4 → 1/3, Z5/Z6 → 1/6, Z7/Z8 → 1/8,
        // Z9 → 1/5. Mean of Z4 and Z9 is 0, of the others is 0 too.
        let var = self.defocus * self.defocus / 3.0
            + self.astigmatism_0 * self.astigmatism_0 / 6.0
            + self.astigmatism_45 * self.astigmatism_45 / 6.0
            + self.coma_x * self.coma_x / 8.0
            + self.coma_y * self.coma_y / 8.0
            + self.spherical * self.spherical / 5.0;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical integral of f over the unit disc.
    fn disc_integral(f: impl Fn(f64, f64) -> f64) -> f64 {
        let n = 400;
        let mut acc = 0.0;
        let step = 2.0 / n as f64;
        for i in 0..n {
            for j in 0..n {
                let x = -1.0 + (i as f64 + 0.5) * step;
                let y = -1.0 + (j as f64 + 0.5) * step;
                if x * x + y * y <= 1.0 {
                    let rho = (x * x + y * y).sqrt();
                    let theta = y.atan2(x);
                    acc += f(rho, theta) * step * step;
                }
            }
        }
        acc
    }

    #[test]
    fn none_has_zero_phase() {
        assert!(ZernikeSet::NONE.is_none());
        assert_eq!(ZernikeSet::NONE.phase_waves(0.7, 1.3), 0.0);
        assert_eq!(ZernikeSet::NONE.rms_waves(), 0.0);
    }

    #[test]
    fn polynomials_are_orthogonal_on_disc() {
        // ∫ Z4·Z9 over the disc vanishes.
        let z4 = ZernikeSet {
            defocus: 1.0,
            ..ZernikeSet::NONE
        };
        let z9 = ZernikeSet {
            spherical: 1.0,
            ..ZernikeSet::NONE
        };
        let dot = disc_integral(|r, t| z4.phase_waves(r, t) * z9.phase_waves(r, t));
        assert!(dot.abs() < 1e-2, "Z4·Z9 = {dot}");
    }

    #[test]
    fn rms_matches_numeric_integral() {
        let set = ZernikeSet {
            defocus: 0.1,
            coma_x: 0.05,
            spherical: 0.02,
            ..ZernikeSet::NONE
        };
        let area = std::f64::consts::PI;
        let mean = disc_integral(|r, t| set.phase_waves(r, t)) / area;
        let var = disc_integral(|r, t| {
            let v = set.phase_waves(r, t) - mean;
            v * v
        }) / area;
        assert!(
            (var.sqrt() - set.rms_waves()).abs() < 2e-3,
            "numeric {} vs analytic {}",
            var.sqrt(),
            set.rms_waves()
        );
    }

    #[test]
    fn astigmatism_has_fourfold_symmetry() {
        let set = ZernikeSet {
            astigmatism_0: 1.0,
            ..ZernikeSet::NONE
        };
        let a = set.phase_waves(0.8, 0.0);
        let b = set.phase_waves(0.8, std::f64::consts::FRAC_PI_2);
        assert!((a + b).abs() < 1e-12, "cos2θ antisymmetry");
    }

    #[test]
    fn coma_is_odd_in_rho_direction() {
        let set = ZernikeSet {
            coma_x: 1.0,
            ..ZernikeSet::NONE
        };
        let plus = set.phase_radians(0.6, 0.0);
        let minus = set.phase_radians(-0.6, 0.0);
        assert!((plus + minus).abs() < 1e-12);
    }

    #[test]
    fn cartesian_matches_polar() {
        let set = ZernikeSet {
            defocus: 0.3,
            astigmatism_45: 0.2,
            ..ZernikeSet::NONE
        };
        let (px, py) = (0.3f64, 0.4f64);
        let rho = 0.5;
        let theta = py.atan2(px);
        let polar = 2.0 * std::f64::consts::PI * set.phase_waves(rho, theta);
        assert!((set.phase_radians(px, py) - polar).abs() < 1e-12);
    }
}
