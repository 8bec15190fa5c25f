//! Level-set evolution step, CFL time step and reinitialization.

use crate::{mask_from_levelset, signed_distance};
use lsopc_grid::{Grid, Scalar};

/// The paper's time-step rule `Δt = λ_t / max|v|` (Algorithm 1, line 5).
///
/// Returns 0 when the velocity field is identically zero (the evolution
/// has converged) **or contains any non-finite value**. A corrupted
/// velocity must never move the front: `λ_t / ∞` would silently freeze
/// the run at `Δt = 0` anyway, while a NaN cell is invisible to a
/// `max`-fold (`f64::max` ignores NaN) and would otherwise propagate
/// into `ψ` on the next [`evolve`]. Callers that need to distinguish
/// "converged" from "corrupted" (the solver health guard does) should
/// read [`SpeedScan::finite`]; this function only promises a finite,
/// non-negative `Δt`. The same as `SpeedScan::of(velocity).time_step(λ_t)`.
///
/// # Panics
///
/// Panics if `lambda_t` is not positive.
///
/// # Example
///
/// ```
/// use lsopc_grid::{Grid, Scalar};
/// use lsopc_levelset::cfl_time_step;
///
/// let v = Grid::from_vec(2, 1, vec![0.5, -2.0]);
/// assert_eq!(cfl_time_step(&v, 1.0), 0.5);
/// ```
pub fn cfl_time_step<T: Scalar>(velocity: &Grid<T>, lambda_t: f64) -> f64 {
    SpeedScan::of(velocity).time_step(lambda_t)
}

/// What one scan of a velocity field gives the time-step rule and the
/// health guard: the peak speed and whether every cell is finite.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SpeedScan<T> {
    /// `max|v|` over the cells, folded from zero with `max`, which skips
    /// a NaN cell as `f64::max` does (an infinite cell counts).
    pub peak: T,
    /// Whether every cell is finite.
    pub finite: bool,
}

impl<T: Scalar> SpeedScan<T> {
    /// Scans `velocity` once.
    pub fn of(velocity: &Grid<T>) -> Self {
        let _span = lsopc_trace::span!("levelset.cfl");
        let mut peak = T::ZERO;
        let mut finite = true;
        for &v in velocity.as_slice() {
            finite &= v.is_finite();
            peak = peak.max(v.abs());
        }
        Self { peak, finite }
    }

    /// The CFL step `λ_t / max|v|` of the scanned field: 0 for a zero or
    /// non-finite field (see [`cfl_time_step`]). `Δt` stays `f64` at
    /// every precision: it is optimizer control state, not field data
    /// (the master-state pattern).
    ///
    /// # Panics
    ///
    /// Panics if `lambda_t` is not positive.
    pub fn time_step(&self, lambda_t: f64) -> f64 {
        assert!(lambda_t > 0.0, "lambda_t must be positive");
        if !self.finite || self.peak == T::ZERO {
            0.0
        } else {
            lambda_t / self.peak.to_f64()
        }
    }
}

/// One explicit evolution step `ψ ← ψ + v·Δt` (Algorithm 1, line 6).
///
/// # Panics
///
/// Panics if the grids differ in shape.
pub fn evolve<T: Scalar>(psi: &mut Grid<T>, velocity: &Grid<T>, dt: f64) {
    let _span = lsopc_trace::span!("levelset.evolve");
    assert_eq!(psi.dims(), velocity.dims(), "grid dimensions must match");
    let dt = T::from_f64(dt);
    for (p, &v) in psi.as_mut_slice().iter_mut().zip(velocity.as_slice()) {
        *p += v * dt;
    }
}

/// Restores the signed-distance property of a level-set function while
/// preserving its zero contour (up to pixel resolution): thresholds at
/// zero and recomputes the exact signed distance.
///
/// Evolution distorts `|∇ψ|` away from 1, which degrades both the CFL
/// estimate and the velocity extension; periodic reinitialization is
/// standard practice in level-set methods.
pub fn reinitialize<T: Scalar>(psi: &Grid<T>) -> Grid<T> {
    let _span = lsopc_trace::span!("levelset.reinit");
    signed_distance(&mask_from_levelset(psi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_velocity_gives_zero_step() {
        let v = Grid::new(4, 4, 0.0);
        assert_eq!(cfl_time_step(&v, 2.0), 0.0);
    }

    #[test]
    fn step_scales_inversely_with_peak_velocity() {
        let v = Grid::from_vec(2, 2, vec![1.0, -4.0, 2.0, 0.0]);
        assert_eq!(cfl_time_step(&v, 1.0), 0.25);
        assert_eq!(cfl_time_step(&v, 0.5), 0.125);
    }

    #[test]
    fn evolve_moves_levelset() {
        let mut psi = Grid::new(3, 1, 1.0);
        let v = Grid::from_vec(3, 1, vec![-1.0, 0.0, 2.0]);
        evolve(&mut psi, &v, 0.5);
        assert_eq!(psi.as_slice(), &[0.5, 1.0, 2.0]);
    }

    #[test]
    fn uniform_negative_velocity_expands_mask() {
        // ψ < 0 inside: subtracting everywhere grows the inside region.
        let mask = Grid::from_fn(16, 16, |x, y| {
            if (6..10).contains(&x) && (6..10).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let mut psi = signed_distance(&mask);
        let area_before = mask_from_levelset(&psi).sum();
        let v = Grid::new(16, 16, -1.0);
        evolve(&mut psi, &v, 1.0);
        let area_after = mask_from_levelset(&psi).sum();
        assert!(area_after > area_before);
    }

    #[test]
    fn reinitialize_preserves_zero_contour() {
        let mask = Grid::from_fn(24, 24, |x, y| {
            if (6..18).contains(&x) && (8..16).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        // Distort the SDF nonlinearly but sign-preservingly.
        let psi = signed_distance(&mask).map(|&v| v.powi(3) * 0.1 + v * 3.0);
        let reinit = reinitialize(&psi);
        assert_eq!(mask_from_levelset(&reinit), mask);
        // And the eikonal property returns: |ψ| of an interior neighbour
        // of the contour is 0.5.
        assert!((reinit[(6, 12)] + 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_lambda_panics() {
        let v = Grid::new(2, 2, 1.0);
        let _ = cfl_time_step(&v, 0.0);
    }

    #[test]
    fn nan_velocity_gives_zero_step() {
        // f64::max ignores NaN, so a max-fold would report the finite
        // peak (here 3.0) and produce a *finite nonzero* Δt that then
        // evolves NaN into ψ. The contract is a hard 0 instead.
        let v = Grid::from_vec(2, 2, vec![1.0, f64::NAN, -3.0, 0.5]);
        assert_eq!(cfl_time_step(&v, 2.0), 0.0);
    }

    #[test]
    fn inf_velocity_gives_zero_step() {
        let v = Grid::from_vec(2, 2, vec![1.0, f64::INFINITY, -3.0, 0.5]);
        assert_eq!(cfl_time_step(&v, 2.0), 0.0);
        let v = Grid::from_vec(2, 2, vec![1.0, f64::NEG_INFINITY, -3.0, 0.5]);
        assert_eq!(cfl_time_step(&v, 2.0), 0.0);
    }

    #[test]
    fn one_scan_gives_the_peak_and_the_step() {
        let v = Grid::from_vec(2, 2, vec![1.0, -4.0, 2.0, 0.0]);
        let scan = SpeedScan::of(&v);
        assert_eq!((scan.peak, scan.finite), (4.0, true));
        assert_eq!(scan.peak, lsopc_grid::max_abs(&v));
        assert_eq!(scan.time_step(1.0), cfl_time_step(&v, 1.0));
        // A NaN cell is skipped by the peak, as by `max_abs`, and zeroes
        // the step; an infinite one counts in the peak.
        let v = Grid::from_vec(3, 1, vec![f64::NAN, -3.0, 0.5]);
        let scan = SpeedScan::of(&v);
        assert_eq!((scan.peak, scan.finite), (3.0, false));
        assert_eq!(scan.peak, lsopc_grid::max_abs(&v));
        assert_eq!(scan.time_step(1.0), 0.0);
        let v = Grid::from_vec(2, 1, vec![f64::NEG_INFINITY, 1.0]);
        assert_eq!(SpeedScan::of(&v).peak, f64::INFINITY);
    }

    #[test]
    fn all_nan_velocity_gives_zero_step() {
        let v = Grid::new(3, 3, f64::NAN);
        assert_eq!(cfl_time_step(&v, 1.0), 0.0);
    }
}
