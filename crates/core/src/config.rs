//! Optimizer configuration and builder.

use crate::{RecoveryPolicy, ResolutionSchedule};

/// How successive evolution velocities are combined (paper Eq. (15)).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Evolution {
    /// Pure steepest descent: `v_i = −g_i`.
    Plain,
    /// The paper's Polak–Ribière–Polyak conjugate gradient (Eq. (15)–(16)).
    PrpConjugateGradient,
    /// Heavy-ball momentum with a fixed coefficient: `v_i = −g_i + β·v_{i−1}`
    /// (an alternative "momentum-based evolution" for the ablation study).
    HeavyBall {
        /// Momentum coefficient in `[0, 1)`.
        beta: f64,
    },
}

/// The level-set ILT optimizer (paper Algorithm 1), configured through
/// [`LevelSetIlt::builder`].
///
/// # Example
///
/// ```
/// use lsopc_core::LevelSetIlt;
///
/// let opt = LevelSetIlt::builder()
///     .max_iterations(40)
///     .pvb_weight(0.8)
///     .conjugate_gradient(true)
///     .build();
/// assert_eq!(opt.max_iterations(), 40);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LevelSetIlt {
    pub(crate) max_iterations: usize,
    pub(crate) velocity_tolerance: f64,
    pub(crate) lambda_t: f64,
    pub(crate) w_pvb: f64,
    pub(crate) evolution: Evolution,
    pub(crate) curvature_weight: f64,
    pub(crate) snapshot_interval: usize,
    pub(crate) narrow_band: f64,
    pub(crate) line_search: bool,
    pub(crate) recovery: RecoveryPolicy,
    pub(crate) schedule: Option<ResolutionSchedule>,
}

impl LevelSetIlt {
    /// Starts building an optimizer with the paper's defaults.
    pub fn builder() -> LevelSetIltBuilder {
        LevelSetIltBuilder::new()
    }

    /// Maximum iteration count `N`.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Velocity tolerance `ε` (Algorithm 1 stop condition).
    pub fn velocity_tolerance(&self) -> f64 {
        self.velocity_tolerance
    }

    /// Time-step scale `λ_t` (`Δt = λ_t / max|v|`).
    pub fn lambda_t(&self) -> f64 {
        self.lambda_t
    }

    /// Process-variation weight `w_pvb` (paper Eq. (13)).
    pub fn pvb_weight(&self) -> f64 {
        self.w_pvb
    }

    /// Whether the PRP conjugate-gradient rule is applied.
    pub fn conjugate_gradient(&self) -> bool {
        self.evolution == Evolution::PrpConjugateGradient
    }

    /// The velocity-combination scheme.
    pub fn evolution(&self) -> Evolution {
        self.evolution
    }

    /// Narrow-band half-width in pixels (0 = full-grid evolution).
    pub fn narrow_band(&self) -> f64 {
        self.narrow_band
    }

    /// Whether backtracking line search on the time step is enabled.
    pub fn line_search(&self) -> bool {
        self.line_search
    }

    /// Weight of the optional curvature smoothing term (0 = off; this is
    /// an extension beyond the paper).
    pub fn curvature_weight(&self) -> f64 {
        self.curvature_weight
    }

    /// Iterations between mask snapshots in the result (0 = none).
    pub fn snapshot_interval(&self) -> usize {
        self.snapshot_interval
    }

    /// The solver-health recovery policy ([`RecoveryPolicy::Off`] by
    /// default, preserving the historical code path exactly).
    pub fn recovery(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The coarse-to-fine [`ResolutionSchedule`], if any (`None` by
    /// default — the flat single-resolution loop).
    pub fn schedule(&self) -> Option<ResolutionSchedule> {
        self.schedule
    }
}

impl Default for LevelSetIlt {
    fn default() -> Self {
        LevelSetIltBuilder::new().build()
    }
}

/// Builder for [`LevelSetIlt`].
#[derive(Clone, Debug)]
pub struct LevelSetIltBuilder {
    inner: LevelSetIlt,
}

impl LevelSetIltBuilder {
    /// Creates a builder with the defaults used in our experiments:
    /// `N = 50`, `ε = 1e−4`, `λ_t = 1`, `w_pvb = 1`, CG on, no curvature
    /// term. The level set always advects with the Godunov upwind |∇ψ|
    /// and is reinitialized to a signed distance every 10 iterations.
    pub fn new() -> Self {
        Self {
            inner: LevelSetIlt {
                max_iterations: 50,
                velocity_tolerance: 1e-4,
                lambda_t: 1.0,
                w_pvb: 1.0,
                evolution: Evolution::PrpConjugateGradient,
                curvature_weight: 0.0,
                snapshot_interval: 0,
                narrow_band: 0.0,
                line_search: false,
                recovery: RecoveryPolicy::Off,
                schedule: None,
            },
        }
    }

    /// Sets the maximum iteration count `N`.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn max_iterations(mut self, n: usize) -> Self {
        assert!(n > 0, "iteration count must be positive");
        self.inner.max_iterations = n;
        self
    }

    /// Sets the stop tolerance `ε` on `max|v|`.
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn velocity_tolerance(mut self, eps: f64) -> Self {
        assert!(eps >= 0.0, "tolerance must be non-negative");
        self.inner.velocity_tolerance = eps;
        self
    }

    /// Sets the time-step scale `λ_t` (the peak per-iteration change of
    /// `ψ`, in pixels).
    ///
    /// # Panics
    ///
    /// Panics unless positive.
    pub fn lambda_t(mut self, lambda_t: f64) -> Self {
        assert!(lambda_t > 0.0, "lambda_t must be positive");
        self.inner.lambda_t = lambda_t;
        self
    }

    /// Sets the process-variation weight `w_pvb`.
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn pvb_weight(mut self, w: f64) -> Self {
        assert!(w >= 0.0, "w_pvb must be non-negative");
        self.inner.w_pvb = w;
        self
    }

    /// Enables or disables the PRP conjugate-gradient combination
    /// (sugar over [`LevelSetIltBuilder::evolution`]).
    pub fn conjugate_gradient(mut self, enabled: bool) -> Self {
        self.inner.evolution = if enabled {
            Evolution::PrpConjugateGradient
        } else {
            Evolution::Plain
        };
        self
    }

    /// Selects the velocity-combination scheme explicitly.
    ///
    /// # Panics
    ///
    /// Panics if a heavy-ball coefficient is outside `[0, 1)`.
    pub fn evolution(mut self, evolution: Evolution) -> Self {
        if let Evolution::HeavyBall { beta } = evolution {
            assert!((0.0..1.0).contains(&beta), "momentum must be in [0, 1)");
        }
        self.inner.evolution = evolution;
        self
    }

    /// Enables backtracking line search: when a step increases the total
    /// cost, the time step is halved (up to 3 times) before accepting.
    /// Costs one extra forward simulation per backtrack (extension beyond
    /// the paper, which relies on the CFL rule alone).
    pub fn line_search(mut self, enabled: bool) -> Self {
        self.inner.line_search = enabled;
        self
    }

    /// Restricts the evolution to a narrow band of the given half-width
    /// (pixels) around the contour; 0 disables (extension beyond the
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn narrow_band(mut self, width_px: f64) -> Self {
        assert!(width_px >= 0.0, "band width must be non-negative");
        self.inner.narrow_band = width_px;
        self
    }

    /// Sets the curvature smoothing weight (0 disables; extension beyond
    /// the paper).
    ///
    /// # Panics
    ///
    /// Panics if negative.
    pub fn curvature_weight(mut self, w: f64) -> Self {
        assert!(w >= 0.0, "curvature weight must be non-negative");
        self.inner.curvature_weight = w;
        self
    }

    /// Records a mask snapshot every `every` iterations (0 disables).
    pub fn snapshot_interval(mut self, every: usize) -> Self {
        self.inner.snapshot_interval = every;
        self
    }

    /// Sets the solver-health [`RecoveryPolicy`]. With the guard enabled
    /// a fault-free run is bit-identical to [`RecoveryPolicy::Off`] (see
    /// DESIGN.md §10); on trouble the optimizer rolls `ψ` back to the
    /// last healthy checkpoint and retries with a halved `λ_t`.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.inner.recovery = policy;
        self
    }

    /// Sets (or clears) the coarse-to-fine [`ResolutionSchedule`]. With
    /// `None` (the default) the optimizer runs the historical flat loop
    /// bit-for-bit; with a schedule, the stage iteration budgets replace
    /// [`LevelSetIltBuilder::max_iterations`] (which still bounds
    /// fallback flat runs on unschedulable grids).
    pub fn schedule(mut self, schedule: Option<ResolutionSchedule>) -> Self {
        self.inner.schedule = schedule;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> LevelSetIlt {
        self.inner
    }
}

impl Default for LevelSetIltBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_documentation() {
        let opt = LevelSetIlt::default();
        assert_eq!(opt.max_iterations(), 50);
        assert_eq!(opt.pvb_weight(), 1.0);
        assert!(opt.conjugate_gradient());
        assert_eq!(opt.curvature_weight(), 0.0);
        assert_eq!(opt.recovery(), RecoveryPolicy::Off);
    }

    #[test]
    fn builder_sets_recovery_policy() {
        let policy = RecoveryPolicy::parse("strict").expect("valid");
        let opt = LevelSetIlt::builder().recovery(policy).build();
        assert_eq!(opt.recovery(), policy);
        assert!(opt.recovery().is_strict());
    }

    #[test]
    fn builder_sets_all_fields() {
        let opt = LevelSetIlt::builder()
            .max_iterations(5)
            .velocity_tolerance(0.01)
            .lambda_t(2.0)
            .pvb_weight(0.3)
            .conjugate_gradient(false)
            .curvature_weight(0.1)
            .snapshot_interval(2)
            .build();
        assert_eq!(opt.max_iterations(), 5);
        assert_eq!(opt.velocity_tolerance(), 0.01);
        assert_eq!(opt.lambda_t(), 2.0);
        assert_eq!(opt.pvb_weight(), 0.3);
        assert!(!opt.conjugate_gradient());
        assert_eq!(opt.curvature_weight(), 0.1);
        assert_eq!(opt.snapshot_interval(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_iterations_panics() {
        let _ = LevelSetIlt::builder().max_iterations(0);
    }
}
