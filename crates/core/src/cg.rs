//! The Polak–Ribière–Polyak conjugate-gradient rule (paper Eq. (15)–(16)).

use lsopc_grid::Scalar;

/// The PRP coefficient
/// `λ = (‖g_i‖² − g_i·g_{i−1}) / ‖g_{i−1}‖²` (paper Eq. (16)), with the
/// standard PRP+ safeguard `λ ← max(λ, 0)` that restarts the search
/// direction whenever the raw coefficient turns negative (see DESIGN.md
/// §7), from its three sums `‖g_i‖²`, `g_i·g_{i−1}` and `‖g_{i−1}‖²`,
/// each taken in pixel order. The optimizer folds them into the sweep
/// that builds `g_i`.
///
/// Here `g` is the gradient-velocity `G(M)·|∇ψ|` of the paper.
///
/// Returns 0 when the previous gradient is (numerically) zero.
///
/// # Example
///
/// ```
/// use lsopc_core::cg::prp_beta;
///
/// // g = (2, 1), g_prev = (1, 1): (‖g‖² − g·g_prev)/‖g_prev‖² = (5 − 3)/2.
/// assert_eq!(prp_beta(5.0, 3.0, 2.0), 1.0);
/// // The same gradient twice: numerator ‖g‖² − g·g = 0, so λ = 0 (restart).
/// assert_eq!(prp_beta(1.0, 1.0, 1.0), 0.0);
/// ```
pub fn prp_beta<T: Scalar>(g_sq: T, g_dot_prev: T, prev_sq: T) -> f64 {
    // The tiny-denominator floor is precision-relative: f64 keeps the
    // historical 1e-300 (the f64 path must stay bit-identical), while
    // coarser scalars get a floor well above their subnormal range so a
    // vanishing gradient restarts the direction instead of producing an
    // inf/NaN coefficient.
    let floor = if T::EPSILON.to_f64() > f64::EPSILON {
        1e-30
    } else {
        1e-300
    };
    if prev_sq.to_f64() <= floor {
        return 0.0;
    }
    let beta = ((g_sq - g_dot_prev) / prev_sq).to_f64();
    beta.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_grid::{dot, l2_norm_sq, Grid};

    /// [`prp_beta`] of two gradient grids.
    fn beta<T: Scalar>(g: &Grid<T>, g_prev: &Grid<T>) -> f64 {
        prp_beta(l2_norm_sq(g), dot(g, g_prev), l2_norm_sq(g_prev))
    }

    #[test]
    fn identical_gradients_restart() {
        let g = Grid::from_vec(3, 1, vec![1.0, -2.0, 0.5]);
        assert_eq!(beta(&g, &g), 0.0);
    }

    #[test]
    fn zero_previous_gradient_is_safe() {
        let g = Grid::from_vec(2, 1, vec![1.0, 1.0]);
        let zero = Grid::new(2, 1, 0.0);
        assert_eq!(beta(&g, &zero), 0.0);
    }

    #[test]
    fn negative_raw_coefficient_is_clamped() {
        // g·g_prev > ‖g‖² makes the raw PRP negative.
        let g = Grid::from_vec(2, 1, vec![1.0, 0.0]);
        let g_prev = Grid::from_vec(2, 1, vec![3.0, 0.0]);
        assert_eq!(beta(&g, &g_prev), 0.0);
    }

    #[test]
    fn f32_gradients_produce_finite_beta() {
        let g = Grid::from_vec(2, 1, vec![2.0_f32, 1.0]);
        let g_prev = Grid::from_vec(2, 1, vec![1.0_f32, 1.0]);
        assert_eq!(beta(&g, &g_prev), 1.0);
        // Denominator below the f32 floor restarts instead of overflowing.
        let tiny = Grid::new(2, 1, 1e-20_f32);
        assert_eq!(beta(&g, &tiny), 0.0);
    }

    #[test]
    fn matches_hand_computation() {
        let g = Grid::from_vec(2, 1, vec![2.0, 1.0]);
        let g_prev = Grid::from_vec(2, 1, vec![1.0, 1.0]);
        // (‖g‖² − g·g_prev)/‖g_prev‖² = (5 − 3)/2 = 1.
        assert_eq!(beta(&g, &g_prev), 1.0);
    }
}
