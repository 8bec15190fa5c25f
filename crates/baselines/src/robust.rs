//! Robust OPC baseline (Kuang, Chow, Young — DATE 2015 style).

use crate::engine::{PixelEngine, ScheduledCorner};
use crate::{BaselineError, BaselineResult, MaskOptimizer};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;

/// Robust process-variation-aware OPC.
///
/// The paper notes that \[15\] "only run\[s\] the simulators in two process
/// conditions for each iteration and estimate\[s\] the results in \[the\]
/// third process condition" — that is how it undercuts the level-set CPU
/// runtime in Table II. This baseline reproduces the strategy: each
/// iteration simulates the two extreme corners only, and stands in for
/// the nominal response with the corner average (the two corners bracket
/// the nominal print, so their mean gradient is a serviceable estimate).
#[derive(Clone, Debug, PartialEq)]
pub struct RobustOpc {
    iterations: usize,
    step: f64,
    latent_steepness: f64,
}

impl RobustOpc {
    /// Creates the baseline with its default budget (40 iterations).
    pub fn new() -> Self {
        Self {
            iterations: 40,
            step: 0.4,
            latent_steepness: 4.0,
        }
    }

    /// Sets the iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "iteration count must be positive");
        self.iterations = iterations;
        self
    }
}

impl Default for RobustOpc {
    fn default() -> Self {
        Self::new()
    }
}

impl MaskOptimizer for RobustOpc {
    fn name(&self) -> &str {
        "robust-opc"
    }

    fn optimize(
        &self,
        sim: &LithoSimulator,
        target: &Grid<f64>,
    ) -> Result<BaselineResult, BaselineError> {
        let corners = sim.corners();
        let engine = PixelEngine {
            iterations: self.iterations,
            step: self.step,
            latent_steepness: self.latent_steepness,
            momentum: 0.0,
        };
        // Two simulated corners per iteration; each carries an extra half
        // weight standing in for the estimated nominal response.
        engine.run(sim, target, move |_| {
            vec![
                ScheduledCorner {
                    condition: corners.inner,
                    weight: 1.5,
                },
                ScheduledCorner {
                    condition: corners.outer,
                    weight: 1.5,
                },
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    fn setup() -> (LithoSimulator, Grid<f64>) {
        let sim =
            LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
                .expect("valid configuration");
        let target = Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        (sim, target)
    }

    #[test]
    fn reduces_cost() {
        let (sim, target) = setup();
        let result = RobustOpc::new()
            .with_iterations(10)
            .optimize(&sim, &target)
            .expect("runs");
        assert!(result.cost_history.last() < result.cost_history.first());
    }

    #[test]
    fn runs_fewer_sims_than_exact_three_corner() {
        // Two corners per iteration against the exact baseline's three.
        let (sim, target) = setup();
        let iterations = 8;
        let (robust, robust_sims) = crate::engine::count_corner_sims(|| {
            RobustOpc::new()
                .with_iterations(iterations)
                .optimize(&sim, &target)
                .expect("runs")
        });
        let (exact, exact_sims) = crate::engine::count_corner_sims(|| {
            crate::PixelIlt::new(crate::PixelIltMode::Exact)
                .with_iterations(iterations)
                .optimize(&sim, &target)
                .expect("runs")
        });
        assert_eq!(robust.iterations, iterations);
        assert_eq!(exact.iterations, iterations);
        assert_eq!(robust_sims, 2 * iterations as u64);
        assert_eq!(exact_sims, 3 * iterations as u64);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RobustOpc::new().name(), "robust-opc");
    }
}
