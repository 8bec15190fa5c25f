//! The shared pixel-ILT machinery and the [`MaskOptimizer`] trait.

use lsopc_grid::{max_abs, Grid};
use lsopc_litho::{corner_cost_and_gradient, LithoSimulator, ProcessCondition};
use std::error::Error;
use std::fmt;

/// Error returned by baseline optimizers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// Target grid does not match the simulator grid.
    TargetDimsMismatch {
        /// Target grid dimensions.
        target: (usize, usize),
        /// Simulator grid dimension.
        sim: usize,
    },
    /// Target contains no pattern.
    EmptyTarget,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TargetDimsMismatch { target, sim } => write!(
                f,
                "target grid {}x{} does not match simulator grid {sim}x{sim}",
                target.0, target.1
            ),
            Self::EmptyTarget => write!(f, "target contains no pattern"),
        }
    }
}

impl Error for BaselineError {}

/// Outcome of a baseline optimization run.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineResult {
    /// The optimized binary mask.
    pub mask: Grid<f64>,
    /// Iterations run.
    pub iterations: usize,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
    /// Total-cost trace, one entry per iteration.
    pub cost_history: Vec<f64>,
}

/// A mask optimizer: target in, mask out.
///
/// Implemented by every baseline here and (through an adapter in the
/// bench harness) by the level-set method, so comparison tables can loop
/// over `&dyn MaskOptimizer`.
pub trait MaskOptimizer {
    /// Short method name for table rows (e.g. `"mosaic-fast"`).
    fn name(&self) -> &str;

    /// Optimizes a mask for `target` on the given simulator.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError`] when the target is malformed.
    fn optimize(
        &self,
        sim: &LithoSimulator,
        target: &Grid<f64>,
    ) -> Result<BaselineResult, BaselineError>;
}

/// One corner of a per-iteration simulation schedule.
#[derive(Copy, Clone, Debug)]
pub(crate) struct ScheduledCorner {
    pub condition: ProcessCondition,
    pub weight: f64,
}

/// Configuration of the shared pixel-ILT descent loop.
#[derive(Clone, Debug)]
pub(crate) struct PixelEngine {
    /// Iterations to run.
    pub iterations: usize,
    /// Per-iteration step size, as the peak latent change in latent units.
    pub step: f64,
    /// Steepness of the latent → mask sigmoid.
    pub latent_steepness: f64,
    /// Heavy-ball momentum coefficient (0 = plain steepest descent).
    pub momentum: f64,
}

impl PixelEngine {
    /// Runs sigmoid-parameterized pixel-mask gradient descent.
    ///
    /// `schedule(iteration)` returns the corners to simulate (with cost
    /// weights) in that iteration, letting callers reproduce the different
    /// corner-sampling strategies of the published baselines.
    pub fn run(
        &self,
        sim: &LithoSimulator,
        target: &Grid<f64>,
        schedule: impl Fn(usize) -> Vec<ScheduledCorner>,
    ) -> Result<BaselineResult, BaselineError> {
        let n = sim.grid_px();
        if target.dims() != (n, n) {
            return Err(BaselineError::TargetDimsMismatch {
                target: target.dims(),
                sim: n,
            });
        }
        let target = target.binarize(0.5);
        if target.sum() == 0.0 {
            return Err(BaselineError::EmptyTarget);
        }

        let start = std::time::Instant::now();
        // Latent parameterization M = σ(s_m·θ): unconstrained descent with
        // masks pinned to (0, 1) — the standard pixel-ILT trick.
        let mut theta = target.map(|&t| if t >= 0.5 { 1.0 } else { -1.0 });
        let mut velocity: Grid<f64> = Grid::new(n, n, 0.0);
        let mut cost_history = Vec::with_capacity(self.iterations);
        let mut best: Option<(f64, Grid<f64>)> = None;

        for i in 0..self.iterations {
            let mask = self.mask_of(&theta);
            let mut cost = 0.0;
            let mut grad_mask: Grid<f64> = Grid::new(n, n, 0.0);
            for corner in schedule(i) {
                let (c, g) =
                    corner_cost_and_gradient(sim, &mask, &target, corner.condition, corner.weight);
                cost += c;
                for (dst, &v) in grad_mask.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *dst += v;
                }
            }
            cost_history.push(cost);
            let binary = mask.binarize(0.5);
            if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                best = Some((cost, binary));
            }

            // dL/dθ = dL/dM ⊙ s_m·M·(1−M).
            let grad_theta =
                grad_mask.zip_map(&mask, |&g, &m| g * self.latent_steepness * m * (1.0 - m));
            let peak = max_abs(&grad_theta);
            if peak <= 1e-14 {
                break;
            }
            let scale = self.step / peak;
            for ((v, &g), t) in velocity
                .as_mut_slice()
                .iter_mut()
                .zip(grad_theta.as_slice())
                .zip(theta.as_mut_slice())
            {
                *v = self.momentum * *v - scale * g;
                *t += *v;
            }
        }

        let (_, mask) = best.unwrap_or_else(|| (f64::INFINITY, target.clone()));
        Ok(BaselineResult {
            mask,
            iterations: cost_history.len(),
            runtime_s: start.elapsed().as_secs_f64(),
            cost_history,
        })
    }

    fn mask_of(&self, theta: &Grid<f64>) -> Grid<f64> {
        theta.map(|&t| 1.0 / (1.0 + (-self.latent_steepness * t).exp()))
    }
}

/// Runs `f` under a scoped metrics registry and returns its result with
/// the number of process-corner simulations it ran (closed
/// `litho.corner_cost` spans). A count, unlike a wall time, does not
/// depend on what else shares the machine.
#[cfg(test)]
pub(crate) fn count_corner_sims<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let registry = std::sync::Arc::new(lsopc_trace::MetricsRegistry::new());
    let out = lsopc_trace::with_scoped_sink(registry.clone(), f);
    let sims = registry
        .span_paths()
        .iter()
        .filter(|path| path.rsplit('/').next() == Some("litho.corner_cost"))
        .filter_map(|path| registry.span_histogram(path))
        .map(|hist| hist.count())
        .sum();
    (out, sims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    fn sim() -> LithoSimulator {
        LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
            .expect("valid configuration")
    }

    fn target() -> Grid<f64> {
        Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    fn nominal_schedule(_: usize) -> Vec<ScheduledCorner> {
        vec![ScheduledCorner {
            condition: ProcessCondition::NOMINAL,
            weight: 1.0,
        }]
    }

    #[test]
    fn descent_reduces_cost() {
        let engine = PixelEngine {
            iterations: 10,
            step: 0.4,
            latent_steepness: 4.0,
            momentum: 0.0,
        };
        let result = engine
            .run(&sim(), &target(), nominal_schedule)
            .expect("runs");
        let first = result.cost_history.first().expect("history");
        let last = result.cost_history.last().expect("history");
        assert!(last < first, "{first} -> {last}");
        assert!(result.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn momentum_variant_also_improves() {
        let engine = PixelEngine {
            iterations: 10,
            step: 0.3,
            latent_steepness: 4.0,
            momentum: 0.5,
        };
        let result = engine
            .run(&sim(), &target(), nominal_schedule)
            .expect("runs");
        assert!(result.cost_history.last() < result.cost_history.first());
    }

    #[test]
    fn rejects_bad_targets() {
        let engine = PixelEngine {
            iterations: 2,
            step: 0.1,
            latent_steepness: 4.0,
            momentum: 0.0,
        };
        let err = engine
            .run(&sim(), &Grid::new(32, 32, 1.0), nominal_schedule)
            .expect_err("mismatch");
        assert!(matches!(err, BaselineError::TargetDimsMismatch { .. }));
        let err = engine
            .run(&sim(), &Grid::new(64, 64, 0.0), nominal_schedule)
            .expect_err("empty");
        assert_eq!(err, BaselineError::EmptyTarget);
    }
}
