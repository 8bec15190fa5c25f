//! PVOPC baseline (Su et al., TCAD 2016 style).

use crate::engine::{PixelEngine, ScheduledCorner};
use crate::{BaselineError, BaselineResult, MaskOptimizer};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;

/// Fast process-variation-aware pixel OPC.
///
/// Representative of "Fast lithographic mask optimization considering
/// process variation" \[16\]: the full PV-aware cost with an accelerated
/// first-order update (heavy-ball momentum) and a deliberately small
/// iteration budget, which is how it achieves the shortest runtimes of
/// the published baselines in Table II.
#[derive(Clone, Debug, PartialEq)]
pub struct PvOpc {
    iterations: usize,
    step: f64,
    latent_steepness: f64,
    momentum: f64,
    w_pvb: f64,
}

impl PvOpc {
    /// Creates the baseline with its default budget (20 iterations,
    /// momentum 0.6).
    pub fn new() -> Self {
        Self {
            iterations: 20,
            step: 0.45,
            latent_steepness: 4.0,
            momentum: 0.6,
            w_pvb: 1.0,
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

    /// Sets the momentum coefficient.
    ///
    /// # Panics
    ///
    /// Panics unless in `[0, 1)`.
    pub fn with_momentum(mut self, momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }
}

impl Default for PvOpc {
    fn default() -> Self {
        Self::new()
    }
}

impl MaskOptimizer for PvOpc {
    fn name(&self) -> &str {
        "pvopc"
    }

    fn optimize(
        &self,
        sim: &LithoSimulator,
        target: &Grid<f64>,
    ) -> Result<BaselineResult, BaselineError> {
        let corners = sim.corners();
        let w_pvb = self.w_pvb;
        let engine = PixelEngine {
            iterations: self.iterations,
            step: self.step,
            latent_steepness: self.latent_steepness,
            momentum: self.momentum,
        };
        engine.run(sim, target, move |_| {
            let mut schedule = vec![ScheduledCorner {
                condition: corners.nominal,
                weight: 1.0,
            }];
            if w_pvb > 0.0 {
                schedule.push(ScheduledCorner {
                    condition: corners.inner,
                    weight: w_pvb,
                });
                schedule.push(ScheduledCorner {
                    condition: corners.outer,
                    weight: w_pvb,
                });
            }
            schedule
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
        let result = PvOpc::new()
            .with_iterations(10)
            .optimize(&sim, &target)
            .expect("runs");
        assert!(result.cost_history.last() < result.cost_history.first());
    }

    #[test]
    fn momentum_accelerates_early_convergence() {
        let (sim, target) = setup();
        let plain = PvOpc::new()
            .with_momentum(0.0)
            .with_iterations(8)
            .optimize(&sim, &target)
            .expect("runs");
        let momentum = PvOpc::new()
            .with_momentum(0.6)
            .with_iterations(8)
            .optimize(&sim, &target)
            .expect("runs");
        let best =
            |r: &BaselineResult| r.cost_history.iter().cloned().fold(f64::INFINITY, f64::min);
        // Momentum should do at least comparably well in the same budget.
        assert!(best(&momentum) <= best(&plain) * 1.25);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn momentum_of_one_panics() {
        let _ = PvOpc::new().with_momentum(1.0);
    }
}
