//! Solver health guard: non-finite/divergence/stall detection,
//! checkpoint/rollback recovery, and structured diagnostics.
//!
//! Algorithm 1 assumes a well-behaved descent; nothing in the plain loop
//! notices a NaN that leaks from a corrupted gradient, a cost blow-up or
//! a frozen run — a single non-finite cell in `ψ` silently propagates to
//! the final mask. The guard watches every iteration and, on trouble,
//! performs **step backoff**: restore the last healthy checkpoint
//! (pre-evolve `ψ` plus its measured cost), halve the effective `λ_t`,
//! force a CG restart and retry. Exhausted backoffs end the run
//! gracefully ([`RecoveryPolicy::On`]) or as a hard error
//! ([`RecoveryPolicy::Strict`]). Everything the guard saw is returned as
//! a [`SolverDiagnostics`] on the result.
//!
//! The guard is **pure observation plus control flow**: with
//! [`RecoveryPolicy::Off`] (the builder default) the optimizer follows
//! the exact historical code path, and with the guard enabled a
//! fault-free run performs the identical floating-point operations in
//! the identical order — bit-identical masks and history (see
//! DESIGN.md §10 for the state machine and the determinism argument).

use lsopc_grid::{Grid, Scalar};
use lsopc_levelset::SpeedScan;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Detection thresholds and backoff limits for the health guard.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GuardConfig {
    /// Backoffs allowed before the guard gives up (each halves `λ_t`).
    pub max_backoffs: usize,
    /// Consecutive cost-rising iterations that count as divergence.
    pub divergence_window: usize,
    /// Relative rise `(L_i − L_{i−1})/L_{i−1}` below which an increase is
    /// ignored by the divergence detector.
    pub divergence_tolerance: f64,
    /// Consecutive no-progress iterations that count as a stall.
    pub stall_window: usize,
    /// Relative cost change below which an iteration counts as
    /// no-progress (0 = only bit-equal costs stall).
    pub stall_tolerance: f64,
    /// A finite cost this many times the last healthy cost is a spike.
    pub cost_spike_factor: f64,
    /// A finite gradient peak this many times the last healthy peak is a
    /// spike. Spikes need a ratio check: the CFL rule bounds the step to
    /// `λ_t` pixels regardless of magnitude, so a corrupt-but-finite
    /// gradient is invisible to the non-finite scans.
    pub gradient_spike_factor: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            max_backoffs: 6,
            divergence_window: 5,
            divergence_tolerance: 1e-9,
            stall_window: 5,
            stall_tolerance: 0.0,
            cost_spike_factor: 100.0,
            gradient_spike_factor: 1e6,
        }
    }
}

impl GuardConfig {
    /// The detection thresholds adapted to the scalar type `T` of the
    /// fields being watched.
    ///
    /// A `T`-precision evaluation carries ~`T::EPSILON` relative
    /// round-off — 2^29 times coarser at f32 than at f64 — so thresholds
    /// tuned for f64 noise misread f32 noise. Two adjustments:
    ///
    /// * the divergence/stall tolerances (absolute relative-change
    ///   cutoffs) are floored at `16·ε_T`, so round-off wiggle in the
    ///   cost is never counted as progress or divergence;
    /// * the spike factors gain the matching `1 + 16·ε_T` headroom —
    ///   both sides of a spike comparison carry `O(ε_T)` relative error,
    ///   so the cutoff ratio needs that much slack before a borderline
    ///   value can trip on round-off alone.
    ///
    /// At `T = f64` the configured values pass through **unchanged** (not
    /// merely approximately: the f64 branch returns `*self`), keeping the
    /// historical guard path bit-identical.
    pub(crate) fn scaled_for<T: Scalar>(&self) -> GuardConfig {
        let eps = T::EPSILON.to_f64();
        if eps <= f64::EPSILON {
            return *self;
        }
        let floor = 16.0 * eps;
        GuardConfig {
            divergence_tolerance: self.divergence_tolerance.max(floor),
            stall_tolerance: self.stall_tolerance.max(floor),
            cost_spike_factor: self.cost_spike_factor * (1.0 + floor),
            gradient_spike_factor: self.gradient_spike_factor * (1.0 + floor),
            ..*self
        }
    }
}

/// Whether and how the optimizer recovers from solver trouble.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub enum RecoveryPolicy {
    /// No guard at all: the historical code path, faults propagate.
    #[default]
    Off,
    /// Detect and recover; exhausted backoffs end the run gracefully
    /// with the best healthy iterate and `gave_up` set.
    On(GuardConfig),
    /// Detect and recover; exhausted backoffs are a hard
    /// [`OptimizeError::RecoveryFailed`](crate::OptimizeError::RecoveryFailed).
    Strict(GuardConfig),
}

impl RecoveryPolicy {
    /// True for [`RecoveryPolicy::Strict`].
    pub fn is_strict(&self) -> bool {
        matches!(self, Self::Strict(_))
    }

    /// Parses a CLI-style policy name: `on`, `off` or `strict` (with
    /// default thresholds).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values otherwise.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(Self::Off),
            "on" => Ok(Self::On(GuardConfig::default())),
            "strict" => Ok(Self::Strict(GuardConfig::default())),
            other => Err(format!(
                "invalid recovery policy {other:?}: expected on, off or strict"
            )),
        }
    }
}

impl std::str::FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Self::parse(s)
    }
}

/// What the guard saw at one iteration.
#[derive(Clone, Debug, PartialEq)]
pub enum GuardEventKind {
    /// The total cost was NaN or ±∞.
    NonFiniteCost,
    /// The cost gradient contained a NaN or ±∞ cell.
    NonFiniteGradient,
    /// The combined evolution velocity contained a NaN or ±∞ cell.
    NonFiniteVelocity,
    /// `ψ` contained a NaN or ±∞ cell after the evolution step.
    NonFiniteLevelSet,
    /// The total cost rose for the configured number of consecutive
    /// iterations.
    CostDivergence {
        /// Length of the rising streak that triggered.
        consecutive: usize,
    },
    /// The finite cost jumped far above the last healthy cost.
    CostSpike {
        /// `cost / last_healthy_cost`.
        ratio: f64,
    },
    /// The finite gradient peak jumped far above the last healthy peak.
    GradientSpike {
        /// `peak / last_healthy_peak`.
        ratio: f64,
    },
    /// The cost made no progress for the configured window; the run is
    /// stopped early rather than backed off (smaller steps cannot
    /// unstall a frozen run).
    Stall {
        /// Length of the no-progress streak that triggered.
        window: usize,
    },
    /// A worker-pool job on the simulator path panicked; the re-raised
    /// panic was contained instead of aborting the process.
    WorkerPanic {
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// A backoff was performed: checkpoint restored, `λ_t` halved, CG
    /// restarted.
    Backoff {
        /// Effective `λ_t` multiplier after the halving.
        lambda_scale: f64,
    },
    /// The first healthy evaluation after one or more backoffs.
    Recovered,
    /// Backoffs were exhausted; the run ended on the best healthy
    /// iterate (or failed, under [`RecoveryPolicy::Strict`]).
    GaveUp,
}

impl fmt::Display for GuardEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFiniteCost => write!(f, "non-finite cost"),
            Self::NonFiniteGradient => write!(f, "non-finite gradient"),
            Self::NonFiniteVelocity => write!(f, "non-finite velocity"),
            Self::NonFiniteLevelSet => write!(f, "non-finite level set after evolve"),
            Self::CostDivergence { consecutive } => {
                write!(f, "cost rose for {consecutive} consecutive iterations")
            }
            Self::CostSpike { ratio } => write!(f, "cost spiked {ratio:.1e}x"),
            Self::GradientSpike { ratio } => write!(f, "gradient peak spiked {ratio:.1e}x"),
            Self::Stall { window } => write!(f, "no cost progress for {window} iterations"),
            Self::WorkerPanic { message } => write!(f, "worker panic: {message}"),
            Self::Backoff { lambda_scale } => {
                write!(
                    f,
                    "backoff: restored checkpoint, lambda scale {lambda_scale}"
                )
            }
            Self::Recovered => write!(f, "recovered"),
            Self::GaveUp => write!(f, "gave up after exhausting backoffs"),
        }
    }
}

/// One guard observation, stamped with the iteration it happened at.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardEvent {
    /// Iteration index (the final post-loop evaluation uses
    /// `iterations`, one past the last in-loop index).
    pub iteration: usize,
    /// What happened.
    pub kind: GuardEventKind,
}

/// Everything the health guard observed during a run, attached to
/// [`IltResult`](crate::IltResult). Empty (no events, no backoffs) for a
/// healthy run.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverDiagnostics {
    /// Chronological guard observations.
    pub events: Vec<GuardEvent>,
    /// Number of checkpoint-restoring backoffs performed.
    pub backoffs: usize,
    /// Number of times a healthy evaluation followed a backoff.
    pub recoveries: usize,
    /// True when backoffs were exhausted and the run ended early.
    pub gave_up: bool,
    /// Effective `λ_t` multiplier at the end of the run (1.0 = never
    /// backed off).
    pub final_lambda_scale: f64,
}

impl Default for SolverDiagnostics {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            backoffs: 0,
            recoveries: 0,
            gave_up: false,
            final_lambda_scale: 1.0,
        }
    }
}

impl SolverDiagnostics {
    /// True when the guard saw anything at all.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// True when at least one backoff later saw a healthy evaluation.
    pub fn recovered(&self) -> bool {
        self.recoveries > 0
    }
}

/// Outcome of reporting trouble to the guard.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum BackoffOutcome {
    /// A backoff was granted: restore the checkpoint, halve `λ_t`,
    /// restart CG and retry.
    Retry,
    /// Backoffs are exhausted: stop (gracefully or as an error,
    /// depending on the policy).
    GiveUp,
}

/// Health of one cost/gradient evaluation.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Health {
    /// Usable values; proceed.
    Healthy,
    /// Usable values, but no progress for the configured window; the
    /// optimizer should stop early.
    Stalled(GuardEventKind),
    /// Corrupted values; the optimizer should back off.
    Corrupt(GuardEventKind),
}

/// The runtime state machine behind a [`RecoveryPolicy`] (healthy →
/// backoff → recovered/aborted; see DESIGN.md §10). It lives in the
/// optimizer's loop state; checkpoints encode every field but `config`,
/// which the (hash-pinned) recovery policy supplies on resume.
#[derive(Debug)]
pub(crate) struct HealthGuard {
    pub(crate) config: GuardConfig,
    /// Everything observed so far.
    pub(crate) diagnostics: SolverDiagnostics,
    /// Current `λ_t` multiplier (halved per backoff).
    pub(crate) lambda_scale: f64,
    /// Consecutive cost-rising iterations.
    pub(crate) rising_streak: usize,
    /// Consecutive no-progress iterations.
    pub(crate) stall_streak: usize,
    /// Reference cost for spike/divergence detection.
    pub(crate) last_healthy_cost: Option<f64>,
    /// Reference gradient peak for spike detection.
    pub(crate) last_healthy_gradient_peak: Option<f64>,
    /// Set after a backoff until the next healthy evaluation.
    pub(crate) pending_recovery: bool,
}

impl HealthGuard {
    /// A guard for the policy, or `None` for [`RecoveryPolicy::Off`].
    pub(crate) fn from_policy(policy: &RecoveryPolicy) -> Option<Self> {
        let config = match policy {
            RecoveryPolicy::Off => return None,
            RecoveryPolicy::On(c) | RecoveryPolicy::Strict(c) => *c,
        };
        Some(Self {
            config,
            diagnostics: SolverDiagnostics::default(),
            lambda_scale: 1.0,
            rising_streak: 0,
            stall_streak: 0,
            last_healthy_cost: None,
            last_healthy_gradient_peak: None,
            pending_recovery: false,
        })
    }

    /// Classifies one cost/gradient evaluation, updating the divergence
    /// and stall streaks and the healthy reference values.
    ///
    /// Generic over the gradient's scalar: the cost is always f64 (the
    /// optimizer's master state), while the detection thresholds are
    /// adapted to `T`'s epsilon via [`GuardConfig::scaled_for`] — an
    /// exact pass-through at `T = f64`.
    pub(crate) fn inspect_evaluation<T: Scalar>(
        &mut self,
        iteration: usize,
        cost_total: f64,
        gradient: &Grid<T>,
    ) -> Health {
        let config = self.config.scaled_for::<T>();
        if !cost_total.is_finite() {
            return Health::Corrupt(GuardEventKind::NonFiniteCost);
        }
        let mut peak = T::ZERO;
        for &g in gradient.as_slice() {
            if !g.is_finite() {
                return Health::Corrupt(GuardEventKind::NonFiniteGradient);
            }
            peak = peak.max(g.abs());
        }
        let peak = peak.to_f64();
        if let Some(ref_peak) = self.last_healthy_gradient_peak {
            if ref_peak > 0.0 && peak > ref_peak * config.gradient_spike_factor {
                return Health::Corrupt(GuardEventKind::GradientSpike {
                    ratio: peak / ref_peak,
                });
            }
        }
        if let Some(ref_cost) = self.last_healthy_cost {
            if ref_cost > 0.0 && cost_total > ref_cost * config.cost_spike_factor {
                return Health::Corrupt(GuardEventKind::CostSpike {
                    ratio: cost_total / ref_cost,
                });
            }
            let scale = ref_cost.abs().max(1.0);
            if cost_total > ref_cost + config.divergence_tolerance * scale {
                self.rising_streak += 1;
                self.stall_streak = 0;
            } else if (cost_total - ref_cost).abs() <= config.stall_tolerance * scale {
                self.rising_streak = 0;
                self.stall_streak += 1;
            } else {
                self.rising_streak = 0;
                self.stall_streak = 0;
            }
        }
        // The evaluation itself is usable: commit it as the healthy
        // reference before reporting divergence/stall, and count a
        // recovery if a backoff was pending.
        self.last_healthy_cost = Some(cost_total);
        self.last_healthy_gradient_peak = Some(peak);
        if self.pending_recovery {
            self.pending_recovery = false;
            self.diagnostics.recoveries += 1;
            self.note_event(iteration, GuardEventKind::Recovered);
        }
        if self.rising_streak >= self.config.divergence_window {
            let consecutive = self.rising_streak;
            self.rising_streak = 0;
            return Health::Corrupt(GuardEventKind::CostDivergence { consecutive });
        }
        if self.stall_streak >= self.config.stall_window {
            let window = self.stall_streak;
            self.stall_streak = 0;
            return Health::Stalled(GuardEventKind::Stall { window });
        }
        Health::Healthy
    }

    /// Reads a velocity field's scan for non-finite cells.
    pub(crate) fn inspect_velocity<T: Scalar>(
        &self,
        speed: &SpeedScan<T>,
    ) -> Option<GuardEventKind> {
        (!speed.finite).then_some(GuardEventKind::NonFiniteVelocity)
    }

    /// Scans `ψ` for non-finite cells after an evolution step.
    pub(crate) fn inspect_levelset<T: Scalar>(&self, psi: &Grid<T>) -> Option<GuardEventKind> {
        scan_non_finite(psi).then_some(GuardEventKind::NonFiniteLevelSet)
    }

    /// Records an observation without acting on it. The single choke
    /// point every guard observation flows through, so it also feeds the
    /// trace layer's `guard.*` counters.
    pub(crate) fn note_event(&mut self, iteration: usize, kind: GuardEventKind) {
        lsopc_trace::count(guard_counter(&kind), 1);
        self.diagnostics.events.push(GuardEvent { iteration, kind });
    }

    /// Reports trouble: records the event and either grants a backoff
    /// (halving the effective `λ_t`) or gives up.
    pub(crate) fn trouble(&mut self, iteration: usize, kind: GuardEventKind) -> BackoffOutcome {
        self.note_event(iteration, kind);
        self.rising_streak = 0;
        self.stall_streak = 0;
        if self.diagnostics.backoffs >= self.config.max_backoffs {
            self.diagnostics.gave_up = true;
            self.note_event(iteration, GuardEventKind::GaveUp);
            return BackoffOutcome::GiveUp;
        }
        self.diagnostics.backoffs += 1;
        self.lambda_scale *= 0.5;
        self.diagnostics.final_lambda_scale = self.lambda_scale;
        self.pending_recovery = true;
        self.note_event(
            iteration,
            GuardEventKind::Backoff {
                lambda_scale: self.lambda_scale,
            },
        );
        BackoffOutcome::Retry
    }
}

/// True when any cell is NaN or ±∞.
fn scan_non_finite<T: Scalar>(grid: &Grid<T>) -> bool {
    grid.as_slice().iter().any(|v| !v.is_finite())
}

/// Trace counter name for one guard observation. A checkpoint-restoring
/// backoff counts as `guard.rollback` — the name trace consumers key on.
fn guard_counter(kind: &GuardEventKind) -> &'static str {
    match kind {
        GuardEventKind::NonFiniteCost => "guard.non_finite_cost",
        GuardEventKind::NonFiniteGradient => "guard.non_finite_gradient",
        GuardEventKind::NonFiniteVelocity => "guard.non_finite_velocity",
        GuardEventKind::NonFiniteLevelSet => "guard.non_finite_levelset",
        GuardEventKind::CostDivergence { .. } => "guard.cost_divergence",
        GuardEventKind::CostSpike { .. } => "guard.cost_spike",
        GuardEventKind::GradientSpike { .. } => "guard.gradient_spike",
        GuardEventKind::Stall { .. } => "guard.stall",
        GuardEventKind::WorkerPanic { .. } => "guard.worker_panic",
        GuardEventKind::Backoff { .. } => "guard.rollback",
        GuardEventKind::Recovered => "guard.recovered",
        GuardEventKind::GaveUp => "guard.gave_up",
    }
}

/// Runs `f`. With the guard on (`contain`), a worker-pool panic
/// re-raised by lsopc-parallel is caught and returned as
/// [`GuardEventKind::WorkerPanic`] trouble instead of aborting the
/// process; with the guard off it propagates, the historical path.
pub(crate) fn contain_panic<R>(contain: bool, f: impl FnOnce() -> R) -> Result<R, GuardEventKind> {
    if !contain {
        return Ok(f());
    }
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| GuardEventKind::WorkerPanic {
        message: panic_message(payload),
    })
}

/// Best-effort text from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (payload was not a string)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> HealthGuard {
        HealthGuard::from_policy(&RecoveryPolicy::On(GuardConfig::default())).expect("enabled")
    }

    fn finite_gradient() -> Grid<f64> {
        Grid::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.0])
    }

    #[test]
    fn off_policy_builds_no_guard() {
        assert!(HealthGuard::from_policy(&RecoveryPolicy::Off).is_none());
        assert!(HealthGuard::from_policy(&RecoveryPolicy::On(GuardConfig::default())).is_some());
        assert!(RecoveryPolicy::Strict(GuardConfig::default()).is_strict());
    }

    #[test]
    fn parse_accepts_the_three_policies() {
        assert_eq!(RecoveryPolicy::parse("off"), Ok(RecoveryPolicy::Off));
        assert_eq!(
            RecoveryPolicy::parse("on"),
            Ok(RecoveryPolicy::On(GuardConfig::default()))
        );
        assert!(RecoveryPolicy::parse("strict").expect("valid").is_strict());
        let err = RecoveryPolicy::parse("maybe").expect_err("invalid");
        assert!(err.contains("maybe"));
        assert_eq!(
            "on".parse::<RecoveryPolicy>(),
            Ok(RecoveryPolicy::On(GuardConfig::default()))
        );
    }

    #[test]
    fn healthy_evaluations_stay_healthy() {
        let mut g = guard();
        for (i, cost) in [10.0, 8.0, 6.5, 6.0].into_iter().enumerate() {
            assert_eq!(
                g.inspect_evaluation(i, cost, &finite_gradient()),
                Health::Healthy
            );
        }
        assert!(!g.diagnostics.has_events());
        assert_eq!(g.lambda_scale, 1.0);
    }

    #[test]
    fn non_finite_cost_and_gradient_are_corrupt() {
        let mut g = guard();
        assert_eq!(
            g.inspect_evaluation(0, f64::NAN, &finite_gradient()),
            Health::Corrupt(GuardEventKind::NonFiniteCost)
        );
        assert_eq!(
            g.inspect_evaluation(0, f64::INFINITY, &finite_gradient()),
            Health::Corrupt(GuardEventKind::NonFiniteCost)
        );
        let bad = Grid::from_vec(2, 2, vec![0.5, f64::NAN, 2.0, 0.0]);
        assert_eq!(
            g.inspect_evaluation(0, 1.0, &bad),
            Health::Corrupt(GuardEventKind::NonFiniteGradient)
        );
    }

    #[test]
    fn spikes_need_a_healthy_reference() {
        let mut g = guard();
        // First evaluation: no reference, a huge cost is accepted.
        assert_eq!(
            g.inspect_evaluation(0, 1e30, &finite_gradient()),
            Health::Healthy
        );
        let mut g = guard();
        assert_eq!(
            g.inspect_evaluation(0, 10.0, &finite_gradient()),
            Health::Healthy
        );
        assert!(matches!(
            g.inspect_evaluation(1, 10.0 * 1e6, &finite_gradient()),
            Health::Corrupt(GuardEventKind::CostSpike { .. })
        ));
        let spiked = finite_gradient().map(|&v| v * 1e12);
        assert!(matches!(
            g.inspect_evaluation(1, 10.0, &spiked),
            Health::Corrupt(GuardEventKind::GradientSpike { .. })
        ));
    }

    #[test]
    fn divergence_fires_after_the_window() {
        let mut g = guard();
        let mut verdicts = Vec::new();
        for (i, cost) in [10.0, 11.0, 12.0, 13.0, 14.0, 15.0].into_iter().enumerate() {
            verdicts.push(g.inspect_evaluation(i, cost, &finite_gradient()));
        }
        assert!(verdicts[..5].iter().all(|h| *h == Health::Healthy));
        assert_eq!(
            verdicts[5],
            Health::Corrupt(GuardEventKind::CostDivergence { consecutive: 5 })
        );
    }

    #[test]
    fn stall_fires_after_the_window() {
        let mut g = guard();
        assert_eq!(
            g.inspect_evaluation(0, 10.0, &finite_gradient()),
            Health::Healthy
        );
        let mut last = Health::Healthy;
        for i in 1..=5 {
            last = g.inspect_evaluation(i, 10.0, &finite_gradient());
        }
        assert_eq!(last, Health::Stalled(GuardEventKind::Stall { window: 5 }));
    }

    #[test]
    fn backoff_halves_lambda_then_gives_up() {
        let mut g = guard();
        for k in 1..=6 {
            assert_eq!(
                g.trouble(k, GuardEventKind::NonFiniteCost),
                BackoffOutcome::Retry
            );
            assert_eq!(g.lambda_scale, 0.5f64.powi(k as i32));
        }
        assert_eq!(
            g.trouble(7, GuardEventKind::NonFiniteCost),
            BackoffOutcome::GiveUp
        );
        assert!(g.diagnostics.gave_up);
        assert_eq!(g.diagnostics.backoffs, 6);
        assert!(matches!(
            g.diagnostics.events.last(),
            Some(GuardEvent {
                kind: GuardEventKind::GaveUp,
                ..
            })
        ));
    }

    #[test]
    fn recovery_is_counted_once_per_backoff() {
        let mut g = guard();
        assert_eq!(
            g.inspect_evaluation(0, 10.0, &finite_gradient()),
            Health::Healthy
        );
        g.trouble(1, GuardEventKind::NonFiniteGradient);
        assert_eq!(
            g.inspect_evaluation(2, 10.0, &finite_gradient()),
            Health::Healthy
        );
        assert_eq!(
            g.inspect_evaluation(3, 9.0, &finite_gradient()),
            Health::Healthy
        );
        assert_eq!(g.diagnostics.recoveries, 1);
        assert!(g.diagnostics.recovered());
        assert!(g
            .diagnostics
            .events
            .iter()
            .any(|e| e.kind == GuardEventKind::Recovered && e.iteration == 2));
    }

    #[test]
    fn velocity_and_levelset_scans_catch_non_finite_cells() {
        let g = guard();
        assert_eq!(g.inspect_velocity(&SpeedScan::of(&finite_gradient())), None);
        let bad = Grid::from_vec(2, 2, vec![0.5, f64::NEG_INFINITY, 2.0, 0.0]);
        assert_eq!(
            g.inspect_velocity(&SpeedScan::of(&bad)),
            Some(GuardEventKind::NonFiniteVelocity)
        );
        assert_eq!(
            g.inspect_levelset(&bad),
            Some(GuardEventKind::NonFiniteLevelSet)
        );
    }

    #[test]
    fn f64_threshold_scaling_is_an_exact_pass_through() {
        let config = GuardConfig::default();
        assert_eq!(config.scaled_for::<f64>(), config);
        let custom = GuardConfig {
            divergence_tolerance: 3e-12,
            stall_tolerance: 1e-13,
            ..config
        };
        assert_eq!(custom.scaled_for::<f64>(), custom);
    }

    #[test]
    fn f32_thresholds_gain_epsilon_headroom() {
        let config = GuardConfig::default();
        let scaled = config.scaled_for::<f32>();
        let floor = 16.0 * f32::EPSILON as f64;
        assert_eq!(scaled.divergence_tolerance, floor);
        assert_eq!(scaled.stall_tolerance, floor);
        assert!(scaled.cost_spike_factor > config.cost_spike_factor);
        assert!(scaled.gradient_spike_factor > config.gradient_spike_factor);
        // Windows and backoff limits are precision-independent.
        assert_eq!(scaled.max_backoffs, config.max_backoffs);
        assert_eq!(scaled.divergence_window, config.divergence_window);
        assert_eq!(scaled.stall_window, config.stall_window);
    }

    #[test]
    fn f32_round_off_wiggle_counts_as_stall_not_divergence() {
        // Cost changes of a few f32 ulps must not feed the divergence
        // streak at f32 (they would at the raw f64 tolerance of 1e-9).
        let g32 = Grid::from_vec(2, 2, vec![0.5_f32, -1.0, 2.0, 0.0]);
        let mut watcher = guard();
        let mut last = Health::Healthy;
        for i in 0..=5 {
            let cost = 10.0 * (1.0 + i as f64 * 1e-8);
            last = watcher.inspect_evaluation(i, cost, &g32);
        }
        assert_eq!(last, Health::Stalled(GuardEventKind::Stall { window: 5 }));
        // The same rising sequence against f64 fields diverges.
        let mut watcher = guard();
        let mut last = Health::Healthy;
        for i in 0..=5 {
            let cost = 10.0 * (1.0 + i as f64 * 1e-8);
            last = watcher.inspect_evaluation(i, cost, &finite_gradient());
        }
        assert_eq!(
            last,
            Health::Corrupt(GuardEventKind::CostDivergence { consecutive: 5 })
        );
    }

    #[test]
    fn diagnostics_default_is_clean() {
        let d = SolverDiagnostics::default();
        assert!(!d.has_events());
        assert!(!d.recovered());
        assert!(!d.gave_up);
        assert_eq!(d.final_lambda_scale, 1.0);
    }

    #[test]
    fn events_render_human_readable() {
        let kinds = [
            GuardEventKind::NonFiniteCost,
            GuardEventKind::CostDivergence { consecutive: 5 },
            GuardEventKind::GradientSpike { ratio: 2e7 },
            GuardEventKind::WorkerPanic {
                message: "boom".to_string(),
            },
            GuardEventKind::Backoff { lambda_scale: 0.25 },
            GuardEventKind::GaveUp,
        ];
        for kind in kinds {
            assert!(!kind.to_string().is_empty());
        }
        assert!(GuardEventKind::WorkerPanic {
            message: "boom".to_string()
        }
        .to_string()
        .contains("boom"));
    }

    #[test]
    fn panic_message_extracts_strings() {
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new("owned".to_string())), "owned");
        assert!(panic_message(Box::new(42usize)).contains("payload"));
    }
}
