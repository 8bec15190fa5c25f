//! The process-window-aware cost function and its gradient
//! (paper Eq. (7), (9), (11)–(14)).

use crate::{LithoSimulator, ProcessCondition};
use lsopc_grid::{Grid, Scalar};

/// Cost terms of one evaluation: `L = L_nom + w_pvb·L_pvb` (Eq. (13)).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CostReport {
    /// Nominal-condition fidelity term `‖R − R*‖²` (Eq. (7)).
    pub nominal: f64,
    /// Process-variation term `‖R_in − R*‖² + ‖R_out − R*‖²` (Eq. (12)).
    pub pvb: f64,
    /// The PV-band weight `w_pvb` used.
    pub w_pvb: f64,
}

impl CostReport {
    /// The combined objective `L_nom + w_pvb·L_pvb`.
    pub fn total(&self) -> f64 {
        self.nominal + self.w_pvb * self.pvb
    }
}

/// Evaluates the total cost `L` and its mask gradient `G = ∂L/∂M`
/// (Eq. (13)–(14)) in one pass over the three process corners.
///
/// Per corner the pipeline is: aerial image `I`, sigmoid print `R`
/// (Eq. (8)), residual cost `w·‖R − R*‖²`, sensitivity
/// `z = 2w·(R − R*)·s·dose·R·(1−R) = ∂(w‖R−R*‖²)/∂I`, and the backend's
/// adjoint map (Eq. (11)). Corners with zero weight are skipped, so
/// `w_pvb = 0` reduces to plain nominal-cost ILT at a third of the cost.
///
/// # Panics
///
/// Panics if the mask or target dimensions do not match the simulator
/// grid, or if `w_pvb` is negative.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use lsopc_grid::Grid;
/// use lsopc_litho::{cost_and_gradient, LithoSimulator};
/// use lsopc_optics::OpticsConfig;
///
/// let sim = LithoSimulator::from_optics(
///     &OpticsConfig::iccad2013().with_kernel_count(4),
///     64,
///     4.0,
/// )?;
/// let target = Grid::from_fn(64, 64, |x, y| {
///     if (24..40).contains(&x) && (16..48).contains(&y) { 1.0 } else { 0.0 }
/// });
/// let (report, gradient) = cost_and_gradient(&sim, &target, &target, 1.0);
/// assert!(report.total() > 0.0);
/// assert_eq!(gradient.dims(), (64, 64));
/// # Ok(())
/// # }
/// ```
pub fn cost_and_gradient<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    w_pvb: f64,
) -> (CostReport, Grid<T>) {
    let _span = lsopc_trace::span!("litho.cost_and_gradient");
    assert!(w_pvb >= 0.0, "w_pvb must be non-negative");
    assert_eq!(
        mask.dims(),
        target.dims(),
        "mask and target dimensions must match"
    );
    let corners = sim.corners();
    let weighted: [(ProcessCondition, f64, bool); 3] = [
        (corners.nominal, 1.0, true),
        (corners.inner, w_pvb, false),
        (corners.outer, w_pvb, false),
    ];
    let n = sim.grid_px();
    let mut gradient = Grid::new(n, n, T::ZERO);
    let mut report = CostReport {
        w_pvb,
        ..CostReport::default()
    };
    for (condition, weight, is_nominal) in weighted {
        if weight == 0.0 {
            continue;
        }
        let (cost, g) = corner_cost_and_gradient(sim, mask, target, condition, weight);
        if is_nominal {
            report.nominal = cost / weight.max(f64::MIN_POSITIVE);
        } else {
            report.pvb += cost / weight;
        }
        for (dst, &v) in gradient.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *dst += v;
        }
    }
    #[cfg(feature = "fault-injection")]
    sim.apply_fault(&mut report, &mut gradient);
    (report, gradient)
}

/// Evaluates the total cost `L` only (no adjoint pass) — roughly half
/// the price of [`cost_and_gradient`], used by line searches.
///
/// # Panics
///
/// Panics under the same conditions as [`cost_and_gradient`].
pub fn cost_only<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    w_pvb: f64,
) -> CostReport {
    let _span = lsopc_trace::span!("litho.cost_only");
    assert!(w_pvb >= 0.0, "w_pvb must be non-negative");
    assert_eq!(
        mask.dims(),
        target.dims(),
        "mask and target dimensions must match"
    );
    let corners = sim.corners();
    let resist = sim.resist();
    let mut report = CostReport {
        w_pvb,
        ..CostReport::default()
    };
    for (condition, is_nominal) in [
        (corners.nominal, true),
        (corners.inner, false),
        (corners.outer, false),
    ] {
        if !is_nominal && w_pvb == 0.0 {
            continue;
        }
        let kernels = sim.kernels_for(condition.defocus_nm);
        let aerial = sim.backend().aerial_image(&kernels, mask);
        let printed = resist.print_soft(&aerial, condition.dose);
        // Accumulate the residual in `T` (at `f64` this is today's exact
        // sum); the report itself always stores `f64`.
        let cost = printed
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&r, &t)| (r - t) * (r - t))
            .sum::<T>()
            .to_f64();
        if is_nominal {
            report.nominal = cost;
        } else {
            report.pvb += cost;
        }
    }
    report
}

/// Cost `w·‖R − R*‖²` and gradient `∂(w·‖R − R*‖²)/∂M` for a single
/// process condition.
///
/// The building block of [`cost_and_gradient`]; exposed so that baseline
/// optimizers can implement their own corner schedules (e.g. simulating
/// only two corners per iteration like robust OPC [Kuang et al., DATE'15]).
///
/// # Panics
///
/// Panics if `mask` and `target` dimensions differ or do not match the
/// simulator, or if `weight` is not positive.
pub fn corner_cost_and_gradient<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    condition: ProcessCondition,
    weight: f64,
) -> (f64, Grid<T>) {
    let _span = lsopc_trace::span!("litho.corner_cost");
    assert!(weight > 0.0, "weight must be positive");
    assert_eq!(
        mask.dims(),
        target.dims(),
        "mask and target dimensions must match"
    );
    let resist = sim.resist();
    let kernels = sim.kernels_for(condition.defocus_nm);
    let aerial = sim.backend().aerial_image(&kernels, mask);
    let printed = resist.print_soft(&aerial, condition.dose);
    let cost = weight
        * printed
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&r, &t)| (r - t) * (r - t))
            .sum::<T>()
            .to_f64();
    // z = ∂(w·‖R − R*‖²)/∂I = 2w·(R − R*)·dR/dI.
    let two_w = T::from_f64(2.0 * weight);
    let z = printed.zip_map(target, |&r, &t| {
        two_w * (r - t) * resist.soft_derivative_t(r, condition.dose)
    });
    let gradient = sim.backend().gradient(&kernels, mask, &z);
    (cost, gradient)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    fn sim() -> LithoSimulator {
        LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 32, 8.0)
            .expect("valid configuration")
    }

    fn target() -> Grid<f64> {
        Grid::from_fn(32, 32, |x, y| {
            if (12..20).contains(&x) && (8..24).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let sim = sim();
        let target = target();
        let mask = target.clone();
        let w_pvb = 0.7;
        let (_, grad) = cost_and_gradient(&sim, &mask, &target, w_pvb);
        let cost_of = |m: &Grid<f64>| cost_and_gradient(&sim, m, &target, w_pvb).0.total();
        let h = 1e-5;
        for &(px, py) in &[(13usize, 9usize), (16, 16), (4, 4), (19, 23)] {
            let mut plus = mask.clone();
            plus[(px, py)] += h;
            let mut minus = mask.clone();
            minus[(px, py)] -= h;
            let fd = (cost_of(&plus) - cost_of(&minus)) / (2.0 * h);
            let an = grad[(px, py)];
            assert!(
                (fd - an).abs() < 1e-4 * (1.0 + fd.abs().max(an.abs())),
                "pixel ({px},{py}): fd={fd}, analytic={an}"
            );
        }
    }

    #[test]
    fn zero_pvb_weight_reduces_to_nominal() {
        let sim = sim();
        let target = target();
        let (report, _) = cost_and_gradient(&sim, &target, &target, 0.0);
        assert_eq!(report.pvb, 0.0);
        assert!(report.nominal > 0.0);
        assert_eq!(report.total(), report.nominal);
    }

    #[test]
    fn pvb_term_increases_total() {
        let sim = sim();
        let target = target();
        let (r0, _) = cost_and_gradient(&sim, &target, &target, 0.0);
        let (r1, _) = cost_and_gradient(&sim, &target, &target, 1.0);
        assert!(r1.total() > r0.total());
        assert!((r1.nominal - r0.nominal).abs() < 1e-12);
    }

    #[test]
    fn perfect_dark_target_with_dark_mask_has_zero_gradient_norm() {
        // An empty target with an empty mask is a stationary point: R ≈ 0
        // everywhere, (R − R*) ≈ 0.
        let sim = sim();
        let dark = Grid::new(32, 32, 0.0);
        let (report, grad) = cost_and_gradient(&sim, &dark, &dark, 1.0);
        assert!(report.total() < 1e-6);
        assert!(lsopc_grid::max_abs(&grad) < 1e-6);
    }

    #[test]
    fn gradient_points_downhill() {
        let sim = sim();
        let target = target();
        let mask = target.clone();
        let (before, grad) = cost_and_gradient(&sim, &mask, &target, 1.0);
        // Take a small step against the gradient.
        let step = 1e-3 / lsopc_grid::max_abs(&grad).max(1e-12);
        let moved = mask.zip_map(&grad, |&m, &g| m - step * g);
        let (after, _) = cost_and_gradient(&sim, &moved, &target, 1.0);
        assert!(
            after.total() < before.total(),
            "before={}, after={}",
            before.total(),
            after.total()
        );
    }
}

#[cfg(test)]
mod cost_only_tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    #[test]
    fn cost_only_matches_cost_and_gradient() {
        let sim =
            LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 32, 8.0)
                .expect("valid configuration");
        let target = Grid::from_fn(32, 32, |x, y| {
            if (12..20).contains(&x) && (8..24).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        for w in [0.0, 0.5, 1.0] {
            let full = cost_and_gradient(&sim, &target, &target, w).0;
            let only = cost_only(&sim, &target, &target, w);
            assert!((full.total() - only.total()).abs() < 1e-9, "w={w}");
            assert!((full.nominal - only.nominal).abs() < 1e-9);
            assert!((full.pvb - only.pvb).abs() < 1e-9);
        }
    }
}
