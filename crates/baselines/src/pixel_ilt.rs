//! MOSAIC-style pixel-based ILT (fast and exact modes).

use crate::engine::PixelEngine;
use crate::{BaselineError, BaselineResult, MaskOptimizer};
use lsopc_grid::Grid;
use lsopc_litho::{LithoSimulator, WeightedCorner};

/// Corner-sampling strategy of [`PixelIlt`], mirroring MOSAIC's fast /
/// exact trade-off (Gao et al., DAC'14).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PixelIltMode {
    /// Nominal-only gradient most iterations; the process-window corners
    /// are simulated every fourth iteration. Cheap but less accurate.
    Fast,
    /// All three corners every iteration, with a longer iteration budget.
    Exact,
}

/// Pixel-based ILT baseline: steepest descent on a sigmoid-parameterized
/// pixel mask.
///
/// # Example
///
/// ```no_run
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use lsopc_baselines::{MaskOptimizer, PixelIlt, PixelIltMode};
/// # use lsopc_grid::Grid;
/// # use lsopc_litho::{LithoSimulator, WeightedCorner};
/// # use lsopc_optics::OpticsConfig;
/// # let sim = LithoSimulator::from_optics(&OpticsConfig::iccad2013(), 512, 4.0)?;
/// # let target = Grid::new(512, 512, 1.0);
/// let result = PixelIlt::new(PixelIltMode::Exact).optimize(&sim, &target)?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PixelIlt {
    mode: PixelIltMode,
    iterations: usize,
    step: f64,
    latent_steepness: f64,
    w_pvb: f64,
}

impl PixelIlt {
    /// Creates the baseline with mode-appropriate defaults
    /// (fast: 30 iterations; exact: 60).
    pub fn new(mode: PixelIltMode) -> Self {
        let iterations = match mode {
            PixelIltMode::Fast => 30,
            PixelIltMode::Exact => 60,
        };
        Self {
            mode,
            iterations,
            step: 0.4,
            latent_steepness: 4.0,
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

    /// The configured mode.
    pub fn mode(&self) -> PixelIltMode {
        self.mode
    }
}

impl MaskOptimizer for PixelIlt {
    fn name(&self) -> &str {
        match self.mode {
            PixelIltMode::Fast => "mosaic-fast",
            PixelIltMode::Exact => "mosaic-exact",
        }
    }

    fn optimize(
        &self,
        sim: &LithoSimulator,
        target: &Grid<f64>,
    ) -> Result<BaselineResult, BaselineError> {
        let corners = sim.corners();
        let w_pvb = self.w_pvb;
        let mode = self.mode;
        let engine = PixelEngine {
            iterations: self.iterations,
            step: self.step,
            latent_steepness: self.latent_steepness,
            momentum: 0.0,
        };
        engine.run(sim, target, move |i| {
            let mut schedule = vec![WeightedCorner {
                condition: corners.nominal,
                weight: 1.0,
            }];
            let sample_corners = match mode {
                PixelIltMode::Exact => true,
                PixelIltMode::Fast => i % 4 == 3,
            };
            if sample_corners && w_pvb > 0.0 {
                schedule.push(WeightedCorner {
                    condition: corners.inner,
                    weight: w_pvb,
                });
                schedule.push(WeightedCorner {
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
    fn both_modes_reduce_cost() {
        let (sim, target) = setup();
        for mode in [PixelIltMode::Fast, PixelIltMode::Exact] {
            let result = PixelIlt::new(mode)
                .with_iterations(10)
                .optimize(&sim, &target)
                .expect("runs");
            let first = result.cost_history.first().expect("history");
            let last = result.cost_history.last().expect("history");
            assert!(last < first, "{mode:?}: {first} -> {last}");
        }
    }

    #[test]
    fn names_distinguish_modes() {
        assert_eq!(PixelIlt::new(PixelIltMode::Fast).name(), "mosaic-fast");
        assert_eq!(PixelIlt::new(PixelIltMode::Exact).name(), "mosaic-exact");
    }

    #[test]
    fn exact_defaults_to_more_iterations() {
        let fast = PixelIlt::new(PixelIltMode::Fast);
        let exact = PixelIlt::new(PixelIltMode::Exact);
        assert!(exact.iterations > fast.iterations);
    }

    #[test]
    fn fast_mode_is_faster_than_exact() {
        let (sim, target) = setup();
        let iterations = 8;
        let (fast, fast_passes) = crate::engine::count_focus_passes(|| {
            PixelIlt::new(PixelIltMode::Fast)
                .with_iterations(iterations)
                .optimize(&sim, &target)
                .expect("runs")
        });
        let (exact, exact_passes) = crate::engine::count_focus_passes(|| {
            PixelIlt::new(PixelIltMode::Exact)
                .with_iterations(iterations)
                .optimize(&sim, &target)
                .expect("runs")
        });
        // Same iteration count: fast samples the two off-nominal corners
        // only every fourth iteration, exact samples all three every time.
        // The outer corner shares the nominal focus, so three corners
        // take two focus passes.
        assert_eq!(fast.iterations, iterations);
        assert_eq!(exact.iterations, iterations);
        assert_eq!(fast_passes, (iterations + iterations / 4) as u64);
        assert_eq!(exact_passes, 2 * iterations as u64);
    }
}
