//! The process-window-aware cost function and its gradient
//! (paper Eq. (7), (9), (11)–(14)).

use crate::{LithoSimulator, ProcessCondition, ResistModel};
use lsopc_grid::{Grid, Scalar};
use lsopc_optics::KernelSet;
use std::sync::Arc;

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

/// One process corner of an evaluation: the condition simulated and the
/// weight of its residual `‖R − R*‖²` in the cost.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WeightedCorner {
    /// The process condition (focus and dose) simulated.
    pub condition: ProcessCondition,
    /// The weight of the corner's residual in the cost.
    pub weight: f64,
}

/// Evaluates the total cost `L` and its mask gradient `G = ∂L/∂M`
/// (Eq. (13)–(14)) over the three process corners, one focus at a time.
///
/// Per corner the pipeline is: the sigmoid print `R` (Eq. (8)) of its
/// focus's aerial image `I`, the residual cost `w·‖R − R*‖²` and the
/// sensitivity `z = 2w·(R − R*)·s·dose·R·(1−R) = ∂(w‖R−R*‖²)/∂I`. Per
/// focus, the backend's adjoint map (Eq. (11)) takes the summed
/// sensitivities of its corners; see [`evaluate_corners`]. On the ICCAD
/// corners that is two aerial and two gradient passes. Corners with zero
/// weight are skipped, so `w_pvb = 0` reduces to plain nominal-cost ILT
/// at half the cost: one focus instead of two.
///
/// A one-shot wrapper over [`evaluate_cost`] that allocates its own
/// image and gradient buffers.
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
    let n = sim.grid_px();
    let mut gradient = Grid::new(n, n, T::ZERO);
    let report = evaluate_cost(
        sim,
        mask,
        target,
        w_pvb,
        &mut Grid::new(n, n, T::ZERO),
        Some(&mut gradient),
    );
    (report, gradient)
}

/// Evaluates the total cost `L` only (no adjoint pass), used by line
/// searches and for the optimizer's final iterate. On the accelerated
/// backend at the ICCAD corners it runs 3 full-size transforms (one
/// mask forward and one finishing inverse per focus) where
/// [`cost_and_gradient`] runs 7. A one-shot wrapper over
/// [`evaluate_cost`] that allocates its own image buffer.
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
    let n = sim.grid_px();
    evaluate_cost(
        sim,
        mask,
        target,
        w_pvb,
        &mut Grid::new(n, n, T::ZERO),
        None,
    )
}

/// The paper's cost at PV-band weight `w_pvb` — the nominal corner at
/// weight 1, then the inner and outer corners at `w_pvb` (left out when
/// it is 0) — in buffers the caller owns, so an optimizer loop that
/// keeps them allocates nothing grid-sized per evaluation.
///
/// `image` takes each focus's aerial image and then its sensitivity and
/// adjoint; with `gradient`, the cost's mask gradient is written there
/// (the grid is zeroed first, so no earlier contents survive), and
/// without it the evaluation is cost-only. It runs inside a
/// `litho.cost_and_gradient` or `litho.cost_only` span, and the fault
/// hook, when installed, sees every evaluation. [`cost_and_gradient`]
/// and [`cost_only`] are this path with fresh buffers.
///
/// # Panics
///
/// Panics if the mask, target or a buffer does not match the simulator
/// grid, or if `w_pvb` is negative.
pub fn evaluate_cost<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    w_pvb: f64,
    image: &mut Grid<T>,
    mut gradient: Option<&mut Grid<T>>,
) -> CostReport {
    let _span = lsopc_trace::span!(if gradient.is_some() {
        "litho.cost_and_gradient"
    } else {
        "litho.cost_only"
    });
    assert!(w_pvb >= 0.0, "w_pvb must be non-negative");
    let corners = sim.corners();
    let mut weighted = vec![WeightedCorner {
        condition: corners.nominal,
        weight: 1.0,
    }];
    if w_pvb > 0.0 {
        weighted.extend(
            [corners.inner, corners.outer].map(|condition| WeightedCorner {
                condition,
                weight: w_pvb,
            }),
        );
    }
    // The fault hook, when compiled in, reads the gradient after the
    // corners have written it, so the corners get a reborrow.
    let residuals = match &mut gradient {
        Some(gradient) => evaluate_corners(sim, mask, target, &weighted, image, Some(gradient)),
        None => evaluate_corners(sim, mask, target, &weighted, image, None),
    };
    let report = CostReport {
        nominal: residuals[0],
        pvb: residuals[1..].iter().fold(0.0, |sum, r| sum + r),
        w_pvb,
    };
    #[cfg(feature = "fault-injection")]
    let report = sim.apply_fault(report, gradient);
    report
}

/// Evaluates a list of weighted process corners focus by focus, in
/// buffers the caller owns.
///
/// Corners whose defocus selects the same kernel set share one aerial
/// image; each applies the resist at its own dose (dose enters only the
/// resist, Eq. (8)). Per corner this gives the sigmoid print `R`, the
/// residual `‖R − R*‖²` and, with a `gradient`, the sensitivity
/// `z = 2w·(R − R*)·dR/dI = ∂(w‖R − R*‖²)/∂I`, all in one pixel-major
/// pass over the focus's image that stores no print and writes the
/// focus's summed sensitivity over the image. The backend's adjoint map
/// (Eq. (11)) is linear in `z`, so the sensitivities of one focus are
/// mapped back in a single gradient pass. An evaluation thus runs one
/// aerial pass, and at most one gradient pass, per distinct focus: two
/// of each on the ICCAD corners, whose outer corner is in focus. The
/// whole evaluation is one
/// [`SimBackend::evaluate`](crate::SimBackend::evaluate) call, in
/// `image` and `gradient`.
///
/// Returns each corner's unweighted residual, in the order of
/// `corners`; with `gradient`, the gradient of the weighted sum
/// `Σ w·‖R − R*‖²` is written there (the grid is zeroed first).
///
/// # Panics
///
/// Panics if the mask, target or a buffer does not match the simulator
/// grid.
pub fn evaluate_corners<T: Scalar>(
    sim: &LithoSimulator<T>,
    mask: &Grid<T>,
    target: &Grid<T>,
    corners: &[WeightedCorner],
    image: &mut Grid<T>,
    mut gradient: Option<&mut Grid<T>>,
) -> Vec<f64> {
    assert_eq!(
        mask.dims(),
        target.dims(),
        "mask and target dimensions must match"
    );
    let resist = sim.resist();
    let groups = focus_groups(sim, corners.iter().map(|c| c.condition));
    let foci: Vec<&KernelSet<T>> = groups.iter().map(|(kernels, _)| kernels.as_ref()).collect();
    let mut residuals = vec![0.0; corners.len()];
    let with_gradient = gradient.is_some();
    if let Some(gradient) = gradient.as_deref_mut() {
        assert_eq!(
            gradient.dims(),
            mask.dims(),
            "gradient and mask dimensions must match"
        );
        gradient.fill(T::ZERO);
    }
    let mut on_image = |f: usize, image: &mut Grid<T>| {
        let members = &groups[f].1;
        let doses: Vec<(f64, T)> = members
            .iter()
            .map(|&i| {
                let WeightedCorner { condition, weight } = corners[i];
                (condition.dose, T::from_f64(2.0 * weight))
            })
            .collect();
        let sums = resist_pass(resist, image, target, &doses, with_gradient);
        for (&i, sum) in members.iter().zip(sums) {
            residuals[i] = sum.to_f64();
        }
        with_gradient
    };
    sim.backend()
        .evaluate(&foci, mask, image, &mut on_image, gradient);
    residuals
}

/// One focus's resist pass over its aerial image in `image`, fused into a
/// single pixel-major loop over the focus's corners `(dose, 2w)`: per
/// corner the sigmoid print `R` at its dose and the residual `‖R − R*‖²`
/// (returned, in corner order) and, with `with_gradient`, the summed
/// sensitivity `Σ 2w·(R − R*)·dR/dI` written over the pixel — the first
/// corner's term, then each later corner's added to it. No print or
/// per-corner sensitivity grid is stored.
fn resist_pass<T: Scalar>(
    resist: ResistModel,
    image: &mut Grid<T>,
    target: &Grid<T>,
    corners: &[(f64, T)],
    with_gradient: bool,
) -> Vec<T> {
    // The residuals accumulate in `T` (at `f64` this is the exact sum).
    let mut sums = vec![T::ZERO; corners.len()];
    for (pixel, &t) in image.as_mut_slice().iter_mut().zip(target.as_slice()) {
        let i = *pixel;
        let mut z = T::ZERO;
        for (c, (sum, &(dose, two_w))) in sums.iter_mut().zip(corners).enumerate() {
            let r = resist.develop_soft_t(i, dose);
            *sum += (r - t) * (r - t);
            if with_gradient {
                // z = ∂(w·‖R − R*‖²)/∂I = 2w·(R − R*)·dR/dI.
                let dz = two_w * (r - t) * resist.soft_derivative_t(r, dose);
                z = if c == 0 { dz } else { z + dz };
            }
        }
        if with_gradient {
            *pixel = z;
        }
    }
    sums
}

/// The distinct kernel sets that `conditions` select, in order of first
/// appearance, each with the indices of the conditions at that focus.
///
/// [`LithoSimulator::kernels_for`] hands out one cached set per defocus
/// key, so two conditions share a focus exactly when they get the same
/// set; no caller assumes which corners do.
pub(crate) fn focus_groups<T: Scalar>(
    sim: &LithoSimulator<T>,
    conditions: impl IntoIterator<Item = ProcessCondition>,
) -> Vec<(Arc<KernelSet<T>>, Vec<usize>)> {
    let mut groups: Vec<(Arc<KernelSet<T>>, Vec<usize>)> = Vec::new();
    for (i, condition) in conditions.into_iter().enumerate() {
        let kernels = sim.kernels_for(condition.defocus_nm);
        match groups.iter_mut().find(|(k, _)| Arc::ptr_eq(k, &kernels)) {
            Some((_, members)) => members.push(i),
            None => groups.push((kernels, vec![i])),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::add_into;
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

    /// Runs `f` under a scoped registry and returns its result with the
    /// number of aerial and gradient passes the backend ran.
    fn count_passes<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
        let registry = Arc::new(lsopc_trace::MetricsRegistry::new());
        let out = lsopc_trace::with_scoped_sink(registry.clone(), f);
        let count = |leaf: &str| -> u64 {
            registry
                .span_paths()
                .iter()
                .filter(|path| path.rsplit('/').next() == Some(leaf))
                .filter_map(|path| registry.span_histogram(path))
                .map(|hist| hist.count())
                .sum()
        };
        let (aerial, gradient) = (count("backend.fft.aerial"), count("backend.fft.gradient"));
        (out, aerial, gradient)
    }

    #[test]
    fn one_pass_per_focus_matches_the_per_corner_sum() {
        let sim = sim();
        let target = target();
        let mask = target.clone();
        let corner = |defocus_nm, dose, weight| WeightedCorner {
            condition: ProcessCondition::new(defocus_nm, dose),
            weight,
        };
        let three_foci = [
            corner(0.0, 1.0, 1.0),
            corner(25.0, 0.98, 0.7),
            corner(10.0, 1.02, 0.7),
        ];
        let iccad = sim.corners();
        let two_foci = [
            corner(iccad.nominal.defocus_nm, iccad.nominal.dose, 1.0),
            corner(iccad.inner.defocus_nm, iccad.inner.dose, 0.7),
            corner(iccad.outer.defocus_nm, iccad.outer.dose, 0.7),
        ];
        let evaluate = |corners: &[WeightedCorner]| {
            let mut gradient = Grid::new(32, 32, f64::NAN);
            let mut image = Grid::new(32, 32, f64::NAN);
            let residuals = evaluate_corners(
                &sim,
                &mask,
                &target,
                corners,
                &mut image,
                Some(&mut gradient),
            );
            (residuals, gradient)
        };
        for (corners, foci) in [(three_foci, 3), (two_foci, 2)] {
            let ((residuals, gradient), aerial, adjoint) = count_passes(|| evaluate(&corners));
            assert_eq!((aerial, adjoint), (foci, foci), "{foci} foci");
            let mut per_corner = Grid::new(32, 32, 0.0);
            for (c, &residual) in corners.iter().zip(&residuals) {
                let (alone, g) = evaluate(&[*c]);
                assert_eq!(residual, alone[0], "{c:?}");
                add_into(&mut per_corner, &g);
            }
            let scale = lsopc_grid::max_abs(&per_corner);
            assert!(scale > 0.0);
            for (a, b) in gradient.as_slice().iter().zip(per_corner.as_slice()) {
                assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b} ({foci} foci)");
            }
        }
    }

    #[test]
    fn cost_only_equals_cost_and_gradient_exactly() {
        // Both reports come from the same fused resist pass over the same
        // aerial images, with or without the sensitivity.
        let sim = sim();
        let target = target();
        let mask = target.map(|&t| 0.2 + 0.6 * t);
        for w in [0.0, 0.5, 1.0] {
            let (full, _) = cost_and_gradient(&sim, &mask, &target, w);
            assert_eq!(full, cost_only(&sim, &mask, &target, w), "w_pvb = {w}");
        }
    }
}
