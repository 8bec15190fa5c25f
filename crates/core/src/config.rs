//! Optimizer configuration and builder.

use crate::{RecoveryPolicy, ResolutionSchedule};

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
    pub(crate) w_pvb: f64,
    pub(crate) conjugate_gradient: bool,
    pub(crate) snapshot_interval: usize,
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

    /// Process-variation weight `w_pvb` (paper Eq. (13)).
    pub fn pvb_weight(&self) -> f64 {
        self.w_pvb
    }

    /// Whether the PRP conjugate-gradient rule is applied.
    pub fn conjugate_gradient(&self) -> bool {
        self.conjugate_gradient
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
    /// `N = 50`, `ε = 1e−4`, `w_pvb = 1`, CG on. The time step is the
    /// paper's `Δt = λ_t / max|v|` with `λ_t = 1`; the level set always
    /// advects with the Godunov upwind |∇ψ| and is reinitialized to a
    /// signed distance every 10 iterations.
    pub fn new() -> Self {
        Self {
            inner: LevelSetIlt {
                max_iterations: 50,
                velocity_tolerance: 1e-4,
                w_pvb: 1.0,
                conjugate_gradient: true,
                snapshot_interval: 0,
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

    /// Enables (the default) or disables the PRP conjugate-gradient
    /// combination of Eq. (15)–(16); disabled, every iteration moves
    /// along the plain gradient velocity.
    pub fn conjugate_gradient(mut self, enabled: bool) -> Self {
        self.inner.conjugate_gradient = enabled;
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
            .pvb_weight(0.3)
            .conjugate_gradient(false)
            .snapshot_interval(2)
            .build();
        assert_eq!(opt.max_iterations(), 5);
        assert_eq!(opt.velocity_tolerance(), 0.01);
        assert_eq!(opt.pvb_weight(), 0.3);
        assert!(!opt.conjugate_gradient());
        assert_eq!(opt.snapshot_interval(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_iterations_panics() {
        let _ = LevelSetIlt::builder().max_iterations(0);
    }
}
