//! Property-based invariants of the level-set toolkit.

use lsopc_grid::Grid;
use lsopc_levelset::{
    cfl_time_step, evolve, godunov_gradient, mask_from_levelset, reinitialize, signed_distance,
};
use proptest::prelude::*;

fn random_mask() -> impl Strategy<Value = Grid<f64>> {
    prop::collection::vec(any::<bool>(), 16 * 16)
        .prop_map(|bits| Grid::from_fn(16, 16, |x, y| if bits[y * 16 + x] { 1.0 } else { 0.0 }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SDF thresholds back to the exact input mask.
    #[test]
    fn sdf_threshold_is_inverse(mask in random_mask()) {
        let psi = signed_distance(&mask);
        prop_assert_eq!(mask_from_levelset(&psi), mask);
    }

    /// Reinitialization is idempotent.
    #[test]
    fn reinit_is_idempotent(mask in random_mask()) {
        let psi = signed_distance(&mask);
        let once = reinitialize(&psi);
        let twice = reinitialize(&once);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// SDF magnitudes satisfy the triangle inequality along axes:
    /// adjacent cells differ by at most ~1 pixel.
    #[test]
    fn sdf_is_one_lipschitz(mask in random_mask()) {
        let psi = signed_distance(&mask);
        for y in 0..16 {
            for x in 0..15 {
                prop_assert!((psi[(x + 1, y)] - psi[(x, y)]).abs() <= 1.0 + 1e-9);
            }
        }
        for y in 0..15 {
            for x in 0..16 {
                prop_assert!((psi[(x, y + 1)] - psi[(x, y)]).abs() <= 1.0 + 1e-9);
            }
        }
    }

    /// The Godunov gradient is non-negative and bounded by the sum of the
    /// one-sided difference magnitudes.
    #[test]
    fn godunov_gradient_bounds(mask in random_mask(), speed_sign in any::<bool>()) {
        let psi = signed_distance(&mask);
        let speed = Grid::new(16, 16, if speed_sign { 1.0 } else { -1.0 });
        let g = godunov_gradient(&psi, &speed);
        for (_, _, &v) in g.iter_coords() {
            prop_assert!(v >= 0.0);
            // Each one-sided difference of a 1-Lipschitz SDF is in [−1, 1]
            // and up to four can contribute at a kink: bound 2.
            prop_assert!(v <= 2.0 + 1e-9);
        }
    }

    /// Uniform negative velocity can only grow the mask; positive can
    /// only shrink it.
    #[test]
    fn evolution_monotonicity(mask in random_mask(), grow in any::<bool>()) {
        prop_assume!(mask.sum() > 0.0);
        let mut psi = signed_distance(&mask);
        let v = Grid::new(16, 16, if grow { -1.0 } else { 1.0 });
        let area_before = mask_from_levelset(&psi).sum();
        evolve(&mut psi, &v, 1.0);
        let area_after = mask_from_levelset(&psi).sum();
        if grow {
            prop_assert!(area_after >= area_before);
        } else {
            prop_assert!(area_after <= area_before);
        }
    }

    /// The CFL step scales the peak |ψ| change to exactly λ_t.
    #[test]
    fn cfl_caps_peak_update(mask in random_mask(), lambda in 0.1f64..3.0) {
        let psi = signed_distance(&mask);
        // Velocity proportional to ψ (arbitrary smooth field).
        let v = psi.map(|&p| 0.3 * p);
        prop_assume!(lsopc_grid::max_abs(&v) > 0.0);
        let dt = cfl_time_step(&v, lambda);
        let peak = lsopc_grid::max_abs(&v) * dt;
        prop_assert!((peak - lambda).abs() < 1e-9);
    }
}
