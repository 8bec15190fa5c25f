//! The optimization loop (paper Algorithm 1).

use crate::cg::prp_beta;
use crate::guard::{contain_panic, BackoffOutcome, Health, HealthGuard};
use crate::resume::{self, Checkpoint, CheckpointError, CoarseCarry, StageTag};
use crate::{
    Evolution, GuardEventKind, IterationRecord, LevelSetIlt, RecoveryPolicy, ResolutionSchedule,
    RunControl, SolverDiagnostics, StopReason,
};
use lsopc_grid::{max_abs, Grid, Scalar};
use lsopc_levelset::{
    cfl_time_step, curvature, evolve, godunov_gradient, gradient_magnitude, mask_from_levelset,
    reinitialize, signed_distance, upsample_levelset, NarrowBand,
};
use lsopc_litho::{cost_and_gradient, cost_only, CostReport, LithoSimulator};
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Error returned by [`LevelSetIlt::optimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// Target grid does not match the simulator grid.
    TargetDimsMismatch {
        /// Target grid dimensions.
        target: (usize, usize),
        /// Simulator grid dimension.
        sim: usize,
    },
    /// Target contains no pattern (nothing to optimize).
    EmptyTarget,
    /// A warm-start level set does not match the simulator grid.
    InitDimsMismatch {
        /// Warm-start grid dimensions.
        init: (usize, usize),
        /// Simulator grid dimension.
        sim: usize,
    },
    /// A [`ResolutionSchedule`] coarse stage could not build its
    /// simulator.
    CoarseStage {
        /// The underlying build error, rendered.
        message: String,
    },
    /// The health guard exhausted its backoffs under
    /// [`RecoveryPolicy::Strict`].
    RecoveryFailed {
        /// Iteration at which the guard gave up.
        iteration: usize,
        /// Backoffs performed before giving up.
        backoffs: usize,
    },
    /// A [`RunControl::with_resume`] checkpoint could not be used
    /// (missing, corrupt, or written by an incompatible run). See
    /// [`CheckpointError`] for the categories.
    Checkpoint {
        /// The underlying [`CheckpointError`], rendered.
        message: String,
    },
}

impl From<CheckpointError> for OptimizeError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint {
            message: e.to_string(),
        }
    }
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TargetDimsMismatch { target, sim } => write!(
                f,
                "target grid {}x{} does not match simulator grid {sim}x{sim}",
                target.0, target.1
            ),
            Self::EmptyTarget => write!(f, "target contains no pattern"),
            Self::InitDimsMismatch { init, sim } => write!(
                f,
                "warm-start level set {}x{} does not match simulator grid {sim}x{sim}",
                init.0, init.1
            ),
            Self::CoarseStage { message } => {
                write!(f, "coarse-stage simulator: {message}")
            }
            Self::RecoveryFailed {
                iteration,
                backoffs,
            } => write!(
                f,
                "solver health guard gave up at iteration {iteration} after {backoffs} backoffs"
            ),
            Self::Checkpoint { message } => f.write_str(message),
        }
    }
}

impl Error for OptimizeError {}

/// The outcome of a level-set ILT run.
///
/// Generic over the field scalar `T` (default `f64`): the mask, level
/// set and snapshots carry the precision the run was performed at, while
/// the per-iteration history is always recorded in f64 — costs and step
/// sizes are optimizer master state regardless of field precision.
#[derive(Clone, Debug)]
pub struct IltResult<T: Scalar = f64> {
    /// The optimized binary mask `M*`.
    pub mask: Grid<T>,
    /// The final level-set function `ψ`.
    pub levelset: Grid<T>,
    /// Per-iteration records (always collected; they are cheap). On a
    /// scheduled run the coarse stage comes first, with fine-stage
    /// iterations renumbered to continue the count.
    pub history: Vec<IterationRecord>,
    /// Number of iterations actually run (both stages on a scheduled
    /// run).
    pub iterations: usize,
    /// How many of [`IltResult::iterations`] ran on the coarse grid of a
    /// [`ResolutionSchedule`] (0 on a flat run — every iteration paid
    /// full-resolution cost).
    pub coarse_iterations: usize,
    /// True when the run stopped on the `max|v| ≤ ε` criterion.
    pub converged: bool,
    /// End-to-end wall-clock runtime in seconds.
    pub runtime_s: f64,
    /// Mask snapshots `(iteration, mask)` when snapshotting was enabled
    /// (for reproducing the paper's Fig. 2).
    pub snapshots: Vec<(usize, Grid<T>)>,
    /// What the solver health guard observed (empty with
    /// [`RecoveryPolicy::Off`] or on a healthy run).
    pub diagnostics: SolverDiagnostics,
    /// Why the run was stopped early by its [`RunControl`] (`None` for
    /// a run that completed or converged normally). A stopped result
    /// still carries the best-so-far mask — a graceful stop is not an
    /// error.
    pub stopped: Option<StopReason>,
}

impl<T: Scalar> IltResult<T> {
    /// Total cost at the last iteration.
    pub fn final_cost(&self) -> f64 {
        self.history.last().map_or(f64::NAN, |r| r.cost_total)
    }

    /// The result with mask, level set and snapshots widened to f64.
    ///
    /// Scoring and reporting run at f64 regardless of the optimization
    /// precision; this is the seam where an f32 run re-enters the f64
    /// world. A no-op (exact) when `T = f64`.
    pub fn to_f64(&self) -> IltResult<f64> {
        IltResult {
            mask: self.mask.map(|&v| v.to_f64()),
            levelset: self.levelset.map(|&v| v.to_f64()),
            history: self.history.clone(),
            iterations: self.iterations,
            coarse_iterations: self.coarse_iterations,
            converged: self.converged,
            runtime_s: self.runtime_s,
            snapshots: self
                .snapshots
                .iter()
                .map(|(i, m)| (*i, m.map(|&v| v.to_f64())))
                .collect(),
            diagnostics: self.diagnostics.clone(),
            stopped: self.stopped,
        }
    }
}

/// Everything Algorithm 1 carries from one iteration to the next. The
/// caller builds it (from ψ₀ or a decoded checkpoint), the loop owns it
/// and turns it into the [`IltResult`], the checkpoint codec encodes it
/// in place, and a guard rollback restores it in one method — so a new
/// piece of loop state is declared once, here.
pub(crate) struct LoopState<T: Scalar> {
    /// The next iteration to run (stage-local); after the loop, the
    /// number of iterations run.
    pub(crate) next_iteration: usize,
    /// The level-set function ψ.
    pub(crate) psi: Grid<T>,
    /// PRP CG state (Eq. (15)–(16)): the previous gradient velocity.
    pub(crate) prev_gradient_velocity: Option<Grid<T>>,
    /// PRP CG state: the previous search velocity.
    pub(crate) prev_velocity: Option<Grid<T>>,
    /// Best-so-far iterate as `(total cost, ψ)`. Its mask is
    /// `mask_from_levelset(ψ)`, re-derived exactly when it is returned.
    pub(crate) best: Option<(f64, Grid<T>)>,
    /// The health guard (`None` with [`RecoveryPolicy::Off`]).
    pub(crate) guard: Option<HealthGuard>,
    /// The guard's rollback target: the last pre-evolve ψ that passed
    /// every check.
    pub(crate) guard_checkpoint: Option<Grid<T>>,
    /// Per-iteration records so far, rolled-back attempts included.
    pub(crate) history: Vec<IterationRecord>,
    /// Mask snapshots `(iteration, mask)` taken so far.
    pub(crate) snapshots: Vec<(usize, Grid<T>)>,
}

impl<T: Scalar> LoopState<T> {
    /// The state before the first iteration: ψ₀ and a fresh guard for
    /// `recovery`.
    pub(crate) fn new(psi: Grid<T>, recovery: &RecoveryPolicy) -> Self {
        Self {
            next_iteration: 0,
            psi,
            prev_gradient_velocity: None,
            prev_velocity: None,
            best: None,
            guard: HealthGuard::from_policy(recovery),
            guard_checkpoint: None,
            history: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Appends `record` to the history and mirrors it to the trace (the
    /// per-iteration telemetry event).
    fn record(&mut self, record: IterationRecord) {
        if lsopc_trace::enabled() {
            lsopc_trace::iter(&lsopc_trace::IterRecord {
                iteration: record.iteration,
                cost_total: record.cost_total,
                cost_nominal: record.cost_nominal,
                cost_pvb: record.cost_pvb,
                lambda_scale: record.lambda_scale,
                beta: record.cg_beta,
                time_step: record.time_step,
                max_velocity: record.max_velocity,
                rolled_back: record.rolled_back,
            });
        }
        self.history.push(record);
    }

    /// The one guard rollback: reports `trouble` at iteration `i`, marks
    /// the iteration's record rolled back (pushing `rejected` if it has
    /// none yet), restores ψ to the guard checkpoint and restarts CG.
    /// Retries after a backoff, stops when the guard gives up — or fails
    /// with [`OptimizeError::RecoveryFailed`] under a `strict` policy.
    fn roll_back(
        &mut self,
        i: usize,
        trouble: GuardEventKind,
        rejected: Option<IterationRecord>,
        strict: bool,
    ) -> Result<Step, OptimizeError> {
        let guard = self
            .guard
            .as_mut()
            .expect("only a guarded loop reports trouble");
        let retry = guard.trouble(i, trouble) == BackoffOutcome::Retry;
        let backoffs = guard.diagnostics.backoffs;
        let lambda_scale = guard.lambda_scale;
        match rejected {
            Some(record) => self.record(IterationRecord {
                rolled_back: true,
                backoffs,
                lambda_scale,
                ..record
            }),
            None => {
                if let Some(record) = self.history.last_mut() {
                    record.rolled_back = true;
                    record.backoffs = backoffs;
                }
            }
        }
        if !retry && strict {
            return Err(OptimizeError::RecoveryFailed {
                iteration: i,
                backoffs,
            });
        }
        // With no checkpoint yet, ψ is still the untouched ψ₀.
        if let Some(checkpoint) = &self.guard_checkpoint {
            self.psi = checkpoint.clone();
        }
        self.prev_gradient_velocity = None;
        self.prev_velocity = None;
        Ok(if retry { Step::Retry } else { Step::Stop })
    }
}

/// How one iteration of the loop ended.
enum Step {
    /// The iteration completed; go on to the next.
    Next,
    /// The guard rolled the iteration back; retry at the next index.
    Retry,
    /// End the loop: a stall, or the guard gave up.
    Stop,
    /// The Algorithm 1 stop condition `max|v| ≤ ε` held.
    Converged,
}

/// Per-run bookkeeping shared by every stage of one controlled run.
struct RunMeta<'a> {
    control: &'a RunControl,
    /// Configuration fingerprint written into (and checked against)
    /// checkpoint files; zero when the control never persists.
    config_hash: u64,
}

/// Per-stage context handed to [`LevelSetIlt::run`]: the stage (for
/// checkpoint tagging) and the iterations earlier stages consumed (for
/// the global budget).
struct StageCtx<'a> {
    meta: &'a RunMeta<'a>,
    stage: StageTag,
    /// Iterations completed by earlier stages of this run.
    iter_offset: usize,
    /// Completed-coarse context to embed in fine-stage checkpoints.
    carry: Option<CoarseCarry>,
    /// Stage start: `elapsed_s` and `runtime_s` count from here.
    start: Instant,
}

impl<'a> StageCtx<'a> {
    /// The context of one stage, whose clock starts now.
    fn new(
        meta: &'a RunMeta<'a>,
        stage: StageTag,
        iter_offset: usize,
        carry: Option<CoarseCarry>,
    ) -> Self {
        Self {
            meta,
            stage,
            iter_offset,
            carry,
            start: Instant::now(),
        }
    }

    /// Writes `state` to the control's checkpoint file, if any,
    /// atomically. A write failure is a warning, not an error: losing a
    /// periodic checkpoint must not kill a healthy optimization.
    fn save<T: Scalar>(&self, state: &LoopState<T>) {
        let Some(spec) = &self.meta.control.checkpoint else {
            return;
        };
        // Spans serialization and the atomic write, so the trace
        // reports the full per-write cost.
        let _span = lsopc_trace::span!("checkpoint.write");
        let written = resume::write_checkpoint(
            &spec.path,
            self.meta.config_hash,
            self.stage,
            self.carry.as_ref(),
            state,
        );
        match written {
            Ok(()) => lsopc_trace::count("checkpoint.write", 1),
            Err(e) => lsopc_trace::warn(
                "resume",
                &format!("checkpoint write to {} failed: {e}", spec.path.display()),
            ),
        }
    }
}

/// The downsample factor and target of `schedule`'s coarse stage, or
/// `None` (a flat run) when the schedule is degenerate for an `n`-pixel
/// grid or the pattern vanishes when downsampled.
fn coarse_problem<T: Scalar>(
    schedule: &ResolutionSchedule,
    target: &Grid<T>,
    n: usize,
) -> Option<(usize, Grid<T>)> {
    let factor = schedule.downsample_factor(n)?;
    // Block-average then re-threshold: a feature must cover half a
    // coarse cell to survive. An all-empty coarse target cannot be
    // optimized.
    let coarse = target.map(|&v| v.to_f64()).downsample(factor).binarize(0.5);
    (coarse.sum() != 0.0).then(|| (factor, coarse.map(|&v| T::from_f64(v))))
}

impl LevelSetIlt {
    /// Runs Algorithm 1: optimizes a mask for `target` on the given
    /// simulator.
    ///
    /// The initial mask is the target itself (binarized at 0.5), per the
    /// paper's initialization. The returned mask is the binary mask of the
    /// best-scoring iterate (by total cost), which for a well-behaved run
    /// is the final one.
    ///
    /// Generic over the field scalar `T` (default `f64`): fields (mask,
    /// `ψ`, gradients, velocities) are held and evolved at `T`, while
    /// every piece of optimizer control state — costs, CFL time step,
    /// PRP coefficient, guard thresholds — stays f64, the master-state
    /// pattern. At `T = f64` this is bit-identical to the historical
    /// f64-only loop (see `tests/golden_f64.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if the target does not match the
    /// simulator grid or contains no pattern.
    pub fn optimize<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
    ) -> Result<IltResult<T>, OptimizeError> {
        self.optimize_controlled(sim, target, &RunControl::default())
    }

    /// [`LevelSetIlt::optimize`] under a [`RunControl`]: cooperative
    /// cancellation, wall-clock deadline, global iteration budget,
    /// periodic checkpointing and checkpoint resume.
    ///
    /// The control is polled at every iteration boundary (including the
    /// first iteration of each schedule stage, which makes the
    /// coarse→fine transition a cancellation point). A requested stop
    /// is graceful: the best-so-far mask is returned with
    /// [`IltResult::stopped`] set and — when checkpointing is on — a
    /// final checkpoint on disk. With a default control this is exactly
    /// [`LevelSetIlt::optimize`], bit for bit.
    ///
    /// Resuming restores the loop state the checkpoint captured and
    /// replays the remaining iterations through the identical code
    /// path, so a resumed run is bit-identical (mask, ψ, history —
    /// `to_bits`) to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] for invalid targets, and
    /// [`OptimizeError::Checkpoint`] when a resume file is missing,
    /// corrupt, or from an incompatible run (different optimizer
    /// parameters, simulator geometry or target).
    pub fn optimize_controlled<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        control: &RunControl,
    ) -> Result<IltResult<T>, OptimizeError> {
        self.start(sim, target, None, control)
    }

    /// Runs Algorithm 1 from a caller-supplied initial level set instead
    /// of the target's signed distance — the warm-start entry point: a
    /// cached ψ from a previously solved (translation-equivalent) tile
    /// drops the early contour-forming iterations and goes straight to
    /// refinement. See [`LevelSetIlt::optimize_controlled`] for the
    /// control semantics.
    ///
    /// `init` is used as ψ₀ verbatim (callers wanting a true signed
    /// distance should reinitialize first). Any configured
    /// [`ResolutionSchedule`] is ignored: a warm start replaces the
    /// coarse stage. The warm-start ψ₀ is folded into the checkpoint's
    /// config hash, so a resume with a different initial level set is
    /// rejected as [`OptimizeError::Checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if `init` or the target does not match
    /// the simulator grid or the target contains no pattern, and
    /// [`OptimizeError::Checkpoint`] for unusable resume files.
    pub fn optimize_from_controlled<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        init: Grid<T>,
        control: &RunControl,
    ) -> Result<IltResult<T>, OptimizeError> {
        self.start(sim, target, Some(init), control)
    }

    /// The one start of every run: validates the warm-start ψ₀ and the
    /// target (binarized here), fingerprints the configuration, loads the
    /// resume checkpoint, and dispatches to the scheduled or flat loop.
    fn start<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        init: Option<Grid<T>>,
        control: &RunControl,
    ) -> Result<IltResult<T>, OptimizeError> {
        let n = sim.grid_px();
        if let Some(init) = init.as_ref().filter(|init| init.dims() != (n, n)) {
            return Err(OptimizeError::InitDimsMismatch {
                init: init.dims(),
                sim: n,
            });
        }
        if target.dims() != (n, n) {
            return Err(OptimizeError::TargetDimsMismatch {
                target: target.dims(),
                sim: n,
            });
        }
        let target = target.binarize(0.5);
        if target.sum() == T::ZERO {
            return Err(OptimizeError::EmptyTarget);
        }
        let config_hash = if control.persists() {
            resume::config_hash(self, sim, &target, init.as_ref())
        } else {
            0
        };
        let loaded = self.load_resume(control, config_hash, n)?;
        let meta = RunMeta {
            control,
            config_hash,
        };
        // A warm start replaces the coarse stage, so only a cold start
        // follows the schedule.
        if let (None, Some(schedule)) = (&init, &self.schedule) {
            if let Some(coarse) = coarse_problem(schedule, &target, n) {
                return self.optimize_scheduled(sim, &target, schedule, coarse, &meta, loaded);
            }
        }
        let ctx = StageCtx::new(&meta, StageTag::Flat, 0, None);
        // Line 1: ψ₀ from the initial mask M₀ = R*, unless a warm start or
        // a checkpoint (of the flat stage, unless tampered) supplies it.
        let state = match loaded {
            None => LoopState::new(
                init.unwrap_or_else(|| signed_distance(&target)),
                &self.recovery,
            ),
            Some(ck) if ck.stage == StageTag::Flat => ck.state,
            Some(_) => {
                return Err(CheckpointError::Malformed(
                    "checkpoint stage does not match an unscheduled run".into(),
                )
                .into())
            }
        };
        self.run(sim, &target, self.max_iterations, ctx, state)
    }

    /// Loads the control's resume checkpoint, if any: the decoder checks
    /// config hash and recovery policy, this ψ against its stage's grid.
    fn load_resume<T: Scalar>(
        &self,
        control: &RunControl,
        config_hash: u64,
        n: usize,
    ) -> Result<Option<Checkpoint<T>>, OptimizeError> {
        let Some(path) = control.resume.as_ref() else {
            return Ok(None);
        };
        let ck = {
            let _span = lsopc_trace::span!("checkpoint.load");
            resume::load_checkpoint::<T>(path, config_hash, &self.recovery)?
        };
        let stage_px = match (ck.stage, self.schedule) {
            (StageTag::Coarse, Some(schedule)) => schedule.coarse_px(),
            _ => n,
        };
        let (w, h) = ck.state.psi.dims();
        if (w, h) != (stage_px, stage_px) {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint ψ is {w}×{h}, stage grid is {stage_px}×{stage_px}"
            ))
            .into());
        }
        lsopc_trace::count("checkpoint.load", 1);
        Ok(Some(ck))
    }

    /// The two-stage coarse-to-fine path (DESIGN.md §14): solve the
    /// `coarse` problem on the schedule's reduced grid/kernel rank,
    /// transfer ψ up, refine at full resolution.
    ///
    /// Resume dispatches on the checkpoint's stage tag: a
    /// `Coarse`-stage file re-enters (and finishes) the coarse loop
    /// before transferring up as usual; a `Fine`-stage file skips the
    /// coarse stage entirely and reproduces the stage merge from the
    /// embedded [`CoarseCarry`]. A run stopped mid-coarse still reports
    /// a full-resolution best-so-far mask (ψ upsampled).
    fn optimize_scheduled<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        schedule: &ResolutionSchedule,
        (factor, coarse_target): (usize, Grid<T>),
        meta: &RunMeta<'_>,
        loaded: Option<Checkpoint<T>>,
    ) -> Result<IltResult<T>, OptimizeError> {
        let start = Instant::now();
        // Split a loaded checkpoint into the stage it re-enters. The
        // config hash has already pinned the schedule, so a Flat-stage
        // file reaching this point can only be a tampered file.
        let (coarse_resume, fine_resume) = match loaded.map(|ck| (ck.stage, ck.state, ck.carry)) {
            None => (None, None),
            Some((StageTag::Coarse, state, _)) => (Some(state), None),
            Some((StageTag::Fine, state, Some(carry))) => (None, Some((state, carry))),
            Some(_) => {
                return Err(CheckpointError::Malformed(
                    "flat-stage checkpoint for a scheduled run".into(),
                )
                .into())
            }
        };

        // Coarse stage — skipped entirely when resuming inside fine.
        let (fine_state, carry) = match fine_resume {
            Some(resumed) => resumed,
            None => {
                // The coarse simulator shares the optics (same field
                // period, so identical physics in cycles-per-field) with
                // a truncated kernel rank; its plans and spectra go
                // through the fine simulator's caches, so a job built on
                // private caches stays isolated from the process globals.
                let coarse_kernels = schedule.coarse_kernels().min(sim.optics().kernel_count());
                let coarse_optics = sim.optics().clone().with_kernel_count(coarse_kernels);
                let coarse_pixel_nm = sim.field_nm() / schedule.coarse_px() as f64;
                let coarse_sim = LithoSimulator::<T>::from_optics(
                    &coarse_optics,
                    schedule.coarse_px(),
                    coarse_pixel_nm,
                )
                .map_err(|e| OptimizeError::CoarseStage {
                    message: e.to_string(),
                })?
                .with_accelerated_backend(1)
                .with_caches(sim.caches().clone());

                let coarse = {
                    let _span = lsopc_trace::span!("optimize.stage.coarse");
                    let ctx = StageCtx::new(meta, StageTag::Coarse, 0, None);
                    let state = coarse_resume.unwrap_or_else(|| {
                        LoopState::new(signed_distance(&coarse_target), &self.recovery)
                    });
                    self.run(
                        &coarse_sim,
                        &coarse_target,
                        schedule.coarse_iterations(),
                        ctx,
                        state,
                    )?
                };
                // A stop during the coarse stage: report the best-so-far
                // contour at full resolution (the caller's grid), with
                // the checkpoint still tagged Coarse for resume.
                if coarse.stopped.is_some() {
                    let levelset = upsample_levelset(&coarse.levelset, factor);
                    return Ok(IltResult {
                        mask: mask_from_levelset(&levelset),
                        levelset,
                        coarse_iterations: coarse.iterations,
                        runtime_s: start.elapsed().as_secs_f64(),
                        snapshots: Vec::new(),
                        ..coarse
                    });
                }
                // Carry the contour (not the far field) across:
                // band-limited interpolation of ψ, then exact
                // redistancing on the fine grid.
                let psi0 = upsample_levelset(&coarse.levelset, factor);
                let carry = CoarseCarry {
                    iterations: coarse.iterations,
                    history: coarse.history,
                    diagnostics: coarse.diagnostics,
                };
                (LoopState::new(psi0, &self.recovery), carry)
            }
        };

        let fine = {
            let _span = lsopc_trace::span!("optimize.stage.fine");
            let ctx = StageCtx::new(meta, StageTag::Fine, carry.iterations, Some(carry.clone()));
            self.run(sim, target, schedule.fine_iterations(), ctx, fine_state)?
        };

        // Merge the stage records into one timeline: fine iterations and
        // snapshots renumbered past the coarse stage, elapsed times made
        // monotone. Guard diagnostics accumulate across stages (event
        // iteration numbers stay stage-local).
        let coarse_iterations = carry.iterations;
        let mut history = carry.history;
        let coarse_elapsed = history.last().map_or(0.0, |r| r.elapsed_s);
        for mut rec in fine.history {
            rec.iteration += coarse_iterations;
            rec.elapsed_s += coarse_elapsed;
            history.push(rec);
        }
        let mut diagnostics = carry.diagnostics;
        diagnostics.events.extend(fine.diagnostics.events);
        diagnostics.backoffs += fine.diagnostics.backoffs;
        diagnostics.recoveries += fine.diagnostics.recoveries;
        diagnostics.gave_up = fine.diagnostics.gave_up;
        diagnostics.final_lambda_scale = fine.diagnostics.final_lambda_scale;
        let snapshots = fine
            .snapshots
            .into_iter()
            .map(|(i, m)| (i + coarse_iterations, m))
            .collect();
        Ok(IltResult {
            history,
            iterations: coarse_iterations + fine.iterations,
            coarse_iterations,
            runtime_s: start.elapsed().as_secs_f64(),
            snapshots,
            diagnostics,
            ..fine
        })
    }

    /// The Algorithm 1 loop over one stage. `target` is already
    /// validated and binarized; `state` is where the loop starts — ψ₀,
    /// or the state a checkpoint captured — and the loop takes no
    /// different branch either way, so a resumed run replays the
    /// identical floating-point stream.
    ///
    /// The stage context supplies the run-lifecycle hooks: the control
    /// is polled at every iteration boundary (before any work of that
    /// iteration), and the state is checkpointed every
    /// `checkpoint-every` iterations and at a graceful stop.
    fn run<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        max_iterations: usize,
        ctx: StageCtx<'_>,
        mut state: LoopState<T>,
    ) -> Result<IltResult<T>, OptimizeError> {
        let control = ctx.meta.control;
        let mut converged = false;
        let mut stopped = None;
        while state.next_iteration < max_iterations {
            let _iter_span = lsopc_trace::span!("optimize.iter");
            let i = state.next_iteration;
            // Cancellation point: poll the run control before this
            // iteration does any work (this also covers CG restarts and
            // the first iteration after a stage transfer). The stop is
            // graceful — the state at this boundary is checkpointed and
            // the best-so-far mask is still reported below.
            if let Some(reason) = control.stop_requested(ctx.iter_offset + i) {
                stopped = Some(reason);
                lsopc_trace::count("run.cancel", 1);
                lsopc_trace::count(reason.counter_name(), 1);
                ctx.save(&state);
                break;
            }
            state.next_iteration = i + 1;
            match self.iterate(sim, target, &mut state, i, ctx.start)? {
                Step::Next => {}
                Step::Retry => continue,
                Step::Stop => break,
                Step::Converged => {
                    converged = true;
                    break;
                }
            }
            // Periodic checkpoint, after every mutation of this
            // iteration is in place. Keyed on the iteration index so a
            // resumed run checkpoints at the same boundaries as the
            // original. A rollback retry skips it — the next completed
            // iteration persists.
            if let Some(spec) = &control.checkpoint {
                if (i + 1).is_multiple_of(spec.every) {
                    ctx.save(&state);
                }
            }
        }
        Ok(self.finish(sim, target, state, converged, stopped, ctx.start))
    }

    /// Iteration `i` of Algorithm 1 on `state`: evaluate, form the
    /// velocity, evolve ψ — with the guard's checks, each of which hands
    /// trouble to [`LoopState::roll_back`].
    fn iterate<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        state: &mut LoopState<T>,
        i: usize,
        start: Instant,
    ) -> Result<Step, OptimizeError> {
        let n = sim.grid_px();
        let strict = self.recovery.is_strict();
        // Line 7 (Eq. (6)): current binary mask from ψ.
        let mask = mask_from_levelset(&state.psi);
        if self.snapshot_interval > 0 && i.is_multiple_of(self.snapshot_interval) {
            state.snapshots.push((i, mask.clone()));
        }
        // Effective λ_t: halved per guard backoff. With the guard off or
        // never triggered the scale is exactly 1.0, and the multiply
        // reproduces `self.lambda_t` bit-for-bit.
        let lambda_scale = state.guard.as_ref().map_or(1.0, |g| g.lambda_scale);
        let effective_lambda_t = self.lambda_t * lambda_scale;

        // Lines 8–9: simulate, evaluate, back-propagate (Eq. (11)/(14)).
        let evaluated = contain_panic(state.guard.is_some(), || {
            cost_and_gradient(sim, &mask, target, self.w_pvb)
        });
        let (report, gradient, mut verdict) = match evaluated {
            Ok((report, gradient)) => (report, gradient, Health::Healthy),
            Err(panicked) => (
                CostReport {
                    nominal: f64::NAN,
                    pvb: f64::NAN,
                    w_pvb: self.w_pvb,
                },
                Grid::new(n, n, T::from_f64(f64::NAN)),
                Health::Corrupt(panicked),
            ),
        };
        if matches!(verdict, Health::Healthy) {
            if let Some(g) = state.guard.as_mut() {
                verdict = g.inspect_evaluation(i, report.total(), &gradient);
            }
        }
        // The record of an iteration rejected before its step: the
        // evaluation's costs, no velocity, no time step.
        let rejected = |cg_beta| IterationRecord {
            iteration: i,
            cost_nominal: report.nominal,
            cost_pvb: report.pvb,
            cost_total: report.total(),
            max_velocity: f64::NAN,
            time_step: f64::NAN,
            cg_beta,
            elapsed_s: start.elapsed().as_secs_f64(),
            ..IterationRecord::default()
        };
        // Trouble at the evaluation stage rolls back; a stall is recorded
        // and ends the run once this iteration's record is written.
        let stalled = match verdict {
            Health::Healthy => None,
            Health::Stalled(kind) => Some(kind),
            Health::Corrupt(kind) => return state.roll_back(i, kind, Some(rejected(0.0)), strict),
        };

        // Best-tracking: only evaluations the guard accepted (or all
        // of them with the guard off) can become the returned mask.
        if state.best.as_ref().is_none_or(|(c, _)| report.total() < *c) {
            state.best = Some((report.total(), state.psi.clone()));
        }

        // Eq. (10) up to sign: with the Eq. (5)/(6) convention
        // (ψ ≤ 0 inside, M = H(−ψ)) we have ∂L/∂ψ = −G·δ(ψ), so the
        // descent update is ψ̇ = +G·|∇ψ| — the sign printed in
        // Eq. (10) corresponds to the opposite inside/outside
        // convention (see DESIGN.md §7).
        let gradmag = if self.upwind {
            godunov_gradient(&state.psi, &gradient)
        } else {
            gradient_magnitude(&state.psi)
        };
        // The gradient-velocity g_i = G·|∇ψ| drives both the descent
        // direction and the PRP coefficient.
        let gradient_velocity = gradient.zip_map(&gradmag, |&g, &m| g * m);
        let mut velocity = gradient_velocity.clone();

        // Eq. (15)–(16): combine with the previous velocity according
        // to the configured evolution scheme.
        let mut beta = 0.0;
        match self.evolution {
            Evolution::Plain => {}
            Evolution::PrpConjugateGradient => {
                if let (Some(g_prev), Some(v_prev)) = (
                    state.prev_gradient_velocity.as_ref(),
                    state.prev_velocity.as_ref(),
                ) {
                    beta = prp_beta(&gradient_velocity, g_prev);
                    if beta > 0.0 {
                        let beta_t = T::from_f64(beta);
                        for (v, &pv) in velocity.as_mut_slice().iter_mut().zip(v_prev.as_slice()) {
                            *v += beta_t * pv;
                        }
                    }
                }
            }
            Evolution::HeavyBall { beta: momentum } => {
                if let Some(v_prev) = state.prev_velocity.as_ref() {
                    beta = momentum;
                    let momentum_t = T::from_f64(momentum);
                    for (v, &pv) in velocity.as_mut_slice().iter_mut().zip(v_prev.as_slice()) {
                        *v += momentum_t * pv;
                    }
                }
            }
        }

        // Optional contour smoothing (extension beyond the paper).
        if self.curvature_weight > 0.0 {
            let kappa = curvature(&state.psi);
            let central = gradient_magnitude(&state.psi);
            let weight = T::from_f64(self.curvature_weight);
            for ((v, &k), &m) in velocity
                .as_mut_slice()
                .iter_mut()
                .zip(kappa.as_slice())
                .zip(central.as_slice())
            {
                *v += weight * k * m;
            }
        }

        // Optional narrow-band restriction (extension beyond the
        // paper): freeze the far field so only near-contour cells
        // evolve.
        if self.narrow_band > 0.0 {
            NarrowBand::extract(&state.psi, self.narrow_band).mask_velocity(&mut velocity);
        }

        // A combined velocity with NaN/∞ cells (e.g. momentum carried
        // from a corrupt history) must never evolve ψ.
        if let Some(kind) = state
            .guard
            .as_ref()
            .and_then(|g| g.inspect_velocity(&velocity))
        {
            return state.roll_back(i, kind, Some(rejected(beta)), strict);
        }

        let vmax = max_abs(&velocity).to_f64();
        let dt = cfl_time_step(&velocity, effective_lambda_t);
        state.record(IterationRecord {
            iteration: i,
            cost_nominal: report.nominal,
            cost_pvb: report.pvb,
            cost_total: report.total(),
            max_velocity: vmax,
            time_step: dt,
            cg_beta: beta,
            elapsed_s: start.elapsed().as_secs_f64(),
            rolled_back: false,
            backoffs: state.guard.as_ref().map_or(0, |g| g.diagnostics.backoffs),
            lambda_scale,
        });

        // Stall: healthy values but no cost progress for the window.
        // Backing off cannot unstall a frozen run, so stop early.
        if let Some(kind) = stalled {
            if let Some(g) = state.guard.as_mut() {
                g.note_event(i, kind);
            }
            return Ok(Step::Stop);
        }

        // Algorithm 1 stop condition: max|v| ≤ ε.
        if vmax <= self.velocity_tolerance {
            return Ok(Step::Converged);
        }

        // Commit the guard checkpoint: this pre-evolve ψ passed
        // every check and its cost is on record; a corrupted evolve
        // rolls back to exactly here.
        if state.guard.is_some() {
            state.guard_checkpoint = Some(state.psi.clone());
        }

        // Lines 5–6: CFL step and evolution, optionally guarded by a
        // backtracking line search on the total cost.
        if self.line_search {
            let _ls_span = lsopc_trace::span!("optimize.line_search");
            let mut trial_dt = dt;
            let mut accepted = false;
            for _ in 0..3 {
                let mut trial_psi = state.psi.clone();
                evolve(&mut trial_psi, &velocity, trial_dt);
                let trial_mask = mask_from_levelset(&trial_psi);
                // A contained worker panic rejects this trial step; the
                // post-evolve scan still protects the fallback step below.
                let trial_cost = contain_panic(state.guard.is_some(), || {
                    cost_only(sim, &trial_mask, target, self.w_pvb).total()
                })
                .unwrap_or_else(|panicked| {
                    if let Some(g) = state.guard.as_mut() {
                        g.note_event(i, panicked);
                    }
                    f64::INFINITY
                });
                if trial_cost <= report.total() {
                    state.psi = trial_psi;
                    accepted = true;
                    break;
                }
                trial_dt /= 2.0;
            }
            if !accepted {
                evolve(&mut state.psi, &velocity, trial_dt);
            }
        } else {
            evolve(&mut state.psi, &velocity, dt);
        }

        // Scan ψ BEFORE reinitialization: reinit thresholds at zero
        // and would launder NaN cells into a finite (wrong) signed
        // distance. The iteration's record is already written.
        if let Some(kind) = state
            .guard
            .as_ref()
            .and_then(|g| g.inspect_levelset(&state.psi))
        {
            return state.roll_back(i, kind, None, strict);
        }

        // Keep ψ a signed distance function periodically.
        if self.reinit_interval > 0 && (i + 1).is_multiple_of(self.reinit_interval) {
            state.psi = reinitialize(&state.psi);
        }

        state.prev_gradient_velocity = Some(gradient_velocity);
        state.prev_velocity = Some(velocity);
        Ok(Step::Next)
    }

    /// Evaluates the final iterate and turns the loop state into the
    /// stage's result, returning the best mask seen.
    fn finish<T: Scalar>(
        &self,
        sim: &LithoSimulator<T>,
        target: &Grid<T>,
        state: LoopState<T>,
        converged: bool,
        stopped: Option<StopReason>,
        start: Instant,
    ) -> IltResult<T> {
        let LoopState {
            next_iteration: iterations,
            psi,
            best,
            mut guard,
            history,
            mut snapshots,
            ..
        } = state;
        // With the guard on, a panic or non-finite cost here must not
        // pick the (corrupt) final iterate.
        let final_mask = mask_from_levelset(&psi);
        let final_evaluated = contain_panic(guard.is_some(), || {
            cost_and_gradient(sim, &final_mask, target, self.w_pvb)
        });
        let (final_total, trouble) = match final_evaluated {
            Ok((report, _)) => {
                let total = report.total();
                (
                    total,
                    (!total.is_finite()).then_some(GuardEventKind::NonFiniteCost),
                )
            }
            Err(panicked) => (f64::NAN, Some(panicked)),
        };
        if let (Some(g), Some(kind)) = (guard.as_mut(), trouble) {
            g.note_event(iterations, kind);
        }
        // Under the guard a corrupt final iterate always yields to the
        // best healthy one. With no healthy iterate at all, ψ is still
        // finite under the guard (every evolve was scanned or rolled
        // back), so its mask is a safe last resort.
        let distrust_final = guard.is_some() && !final_total.is_finite();
        let (mask, levelset) = match best {
            Some((cost, best_psi)) if distrust_final || cost < final_total => {
                (mask_from_levelset(&best_psi), best_psi)
            }
            _ => (final_mask, psi),
        };
        if self.snapshot_interval > 0 {
            snapshots.push((iterations, mask.clone()));
        }

        IltResult {
            mask,
            levelset,
            history,
            iterations,
            coarse_iterations: 0,
            converged,
            runtime_s: start.elapsed().as_secs_f64(),
            snapshots,
            diagnostics: guard.map_or_else(SolverDiagnostics::default, |g| g.diagnostics),
            stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    fn sim() -> LithoSimulator {
        LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
            .expect("valid configuration")
    }

    fn wire_target() -> Grid<f64> {
        Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn optimization_reduces_cost() {
        let sim = sim();
        let target = wire_target();
        let result = LevelSetIlt::builder()
            .max_iterations(12)
            .build()
            .optimize(&sim, &target)
            .expect("optimization runs");
        let first = result.history.first().expect("history");
        let last = result.history.last().expect("history");
        assert!(
            last.cost_total < first.cost_total * 0.9,
            "no real improvement: {} -> {}",
            first.cost_total,
            last.cost_total
        );
        assert_eq!(result.history.len(), result.iterations);
    }

    #[test]
    fn returned_mask_is_binary() {
        let sim = sim();
        let result = LevelSetIlt::builder()
            .max_iterations(5)
            .build()
            .optimize(&sim, &wire_target())
            .expect("optimization runs");
        assert!(result.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(result.mask.sum() > 0.0);
    }

    #[test]
    fn returned_mask_is_best_iterate() {
        let sim = sim();
        let target = wire_target();
        let result = LevelSetIlt::builder()
            .max_iterations(10)
            .build()
            .optimize(&sim, &target)
            .expect("optimization runs");
        let (best_report, _) = cost_and_gradient(&sim, &result.mask, &target, 1.0);
        for rec in &result.history {
            assert!(
                best_report.total() <= rec.cost_total + 1e-9,
                "iteration {} had lower cost",
                rec.iteration
            );
        }
    }

    #[test]
    fn snapshots_are_recorded() {
        let sim = sim();
        let result = LevelSetIlt::builder()
            .max_iterations(6)
            .snapshot_interval(2)
            .build()
            .optimize(&sim, &wire_target())
            .expect("optimization runs");
        // Snapshots at 0, 2, 4 plus the final mask.
        let iters: Vec<usize> = result.snapshots.iter().map(|(i, _)| *i).collect();
        assert_eq!(iters, vec![0, 2, 4, 6]);
    }

    #[test]
    fn loose_tolerance_converges_early() {
        let sim = sim();
        let result = LevelSetIlt::builder()
            .max_iterations(30)
            .velocity_tolerance(1e9)
            .build()
            .optimize(&sim, &wire_target())
            .expect("optimization runs");
        assert!(result.converged);
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn determinism() {
        let sim = sim();
        let opt = LevelSetIlt::builder().max_iterations(6).build();
        let a = opt.optimize(&sim, &wire_target()).expect("run a");
        let b = opt.optimize(&sim, &wire_target()).expect("run b");
        assert_eq!(a.mask, b.mask);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.cost_total, y.cost_total);
        }
    }

    #[test]
    fn plain_gradient_mode_also_improves() {
        let sim = sim();
        let result = LevelSetIlt::builder()
            .max_iterations(12)
            .conjugate_gradient(false)
            .build()
            .optimize(&sim, &wire_target())
            .expect("optimization runs");
        let first = result.history.first().expect("history");
        let last = result.history.last().expect("history");
        assert!(last.cost_total < first.cost_total);
        assert!(result.history.iter().all(|r| r.cg_beta == 0.0));
    }

    #[test]
    fn cg_runs_use_nonzero_beta_eventually() {
        let sim = sim();
        let result = LevelSetIlt::builder()
            .max_iterations(12)
            .build()
            .optimize(&sim, &wire_target())
            .expect("optimization runs");
        assert!(result.history.iter().any(|r| r.cg_beta > 0.0));
    }

    #[test]
    fn rejects_mismatched_target() {
        let sim = sim();
        let target = Grid::new(32, 32, 1.0);
        let err = LevelSetIlt::default()
            .optimize(&sim, &target)
            .expect_err("should fail");
        assert!(matches!(err, OptimizeError::TargetDimsMismatch { .. }));
        assert!(err.to_string().contains("32x32"));
    }

    #[test]
    fn rejects_empty_target() {
        let sim = sim();
        let target = Grid::new(64, 64, 0.0);
        let err = LevelSetIlt::default()
            .optimize(&sim, &target)
            .expect_err("should fail");
        assert_eq!(err, OptimizeError::EmptyTarget);
    }
}

#[cfg(test)]
mod evolution_tests {
    use super::*;
    use crate::Evolution;
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

    #[test]
    fn heavy_ball_improves_cost() {
        let result = LevelSetIlt::builder()
            .max_iterations(10)
            .evolution(Evolution::HeavyBall { beta: 0.5 })
            .build()
            .optimize(&sim(), &target())
            .expect("optimization runs");
        let first = result.history.first().expect("history");
        let last = result.history.last().expect("history");
        assert!(last.cost_total < first.cost_total);
        // From iteration 1 onward the recorded beta is the momentum.
        assert!(result.history[1..].iter().all(|r| r.cg_beta == 0.5));
    }

    #[test]
    fn narrow_band_run_matches_full_run_closely() {
        let full = LevelSetIlt::builder()
            .max_iterations(8)
            .build()
            .optimize(&sim(), &target())
            .expect("optimization runs");
        let banded = LevelSetIlt::builder()
            .max_iterations(8)
            .narrow_band(6.0)
            .build()
            .optimize(&sim(), &target())
            .expect("optimization runs");
        // Contour motion only depends on near-field ψ, so both runs reach
        // comparable cost.
        assert!(banded.final_cost() < full.final_cost() * 1.5 + 1.0);
        let first = banded.history.first().expect("history");
        assert!(banded.final_cost() < first.cost_total);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn invalid_heavy_ball_coefficient_panics() {
        let _ = LevelSetIlt::builder().evolution(Evolution::HeavyBall { beta: 1.0 });
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;
    use crate::{GuardConfig, RecoveryPolicy};
    use lsopc_optics::OpticsConfig;

    fn sim() -> LithoSimulator {
        LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
            .expect("valid configuration")
    }

    fn wire_target() -> Grid<f64> {
        Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    fn assert_bit_identical(off: &IltResult, on: &IltResult) {
        assert_eq!(off.iterations, on.iterations);
        assert_eq!(off.converged, on.converged);
        for (name, a, b) in [
            ("mask", &off.mask, &on.mask),
            ("levelset", &off.levelset, &on.levelset),
        ] {
            assert_eq!(a.dims(), b.dims(), "{name} dims");
            for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{name} cell {i}: {x} vs {y} differ bitwise"
                );
            }
        }
        assert_eq!(off.history.len(), on.history.len());
        for (x, y) in off.history.iter().zip(&on.history) {
            assert_eq!(x.iteration, y.iteration);
            // Every field except the wall-clock timestamp.
            for (name, a, b) in [
                ("cost_nominal", x.cost_nominal, y.cost_nominal),
                ("cost_pvb", x.cost_pvb, y.cost_pvb),
                ("cost_total", x.cost_total, y.cost_total),
                ("max_velocity", x.max_velocity, y.max_velocity),
                ("time_step", x.time_step, y.time_step),
                ("cg_beta", x.cg_beta, y.cg_beta),
                ("lambda_scale", x.lambda_scale, y.lambda_scale),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "iter {} {name}: {a} vs {b} differ bitwise",
                    x.iteration
                );
            }
            assert_eq!(x.rolled_back, y.rolled_back);
            assert_eq!(x.backoffs, y.backoffs);
        }
    }

    #[test]
    fn fault_free_run_is_bit_identical_with_guard_enabled() {
        let sim = sim();
        let target = wire_target();
        let off = LevelSetIlt::builder()
            .max_iterations(8)
            .build()
            .optimize(&sim, &target)
            .expect("guard off runs");
        let on = LevelSetIlt::builder()
            .max_iterations(8)
            .recovery(RecoveryPolicy::On(GuardConfig::default()))
            .build()
            .optimize(&sim, &target)
            .expect("guard on runs");
        assert_bit_identical(&off, &on);
        assert!(!on.diagnostics.has_events());
        assert_eq!(on.diagnostics.backoffs, 0);
        assert_eq!(on.diagnostics.final_lambda_scale, 1.0);
    }

    #[test]
    fn fault_free_line_search_run_is_bit_identical_with_guard_enabled() {
        let sim = sim();
        let target = wire_target();
        let build = |policy: RecoveryPolicy| {
            LevelSetIlt::builder()
                .max_iterations(6)
                .lambda_t(4.0)
                .line_search(true)
                .recovery(policy)
                .build()
                .optimize(&sim, &target)
                .expect("runs")
        };
        let off = build(RecoveryPolicy::Off);
        let on = build(RecoveryPolicy::Strict(GuardConfig::default()));
        assert_bit_identical(&off, &on);
        assert!(!on.diagnostics.has_events());
    }

    #[test]
    fn healthy_records_carry_unit_lambda_scale() {
        let sim = sim();
        let result = LevelSetIlt::builder()
            .max_iterations(4)
            .recovery(RecoveryPolicy::On(GuardConfig::default()))
            .build()
            .optimize(&sim, &wire_target())
            .expect("runs");
        for rec in &result.history {
            assert!(!rec.rolled_back);
            assert_eq!(rec.backoffs, 0);
            assert_eq!(rec.lambda_scale, 1.0);
        }
    }
}

#[cfg(test)]
mod line_search_tests {
    use super::*;
    use lsopc_optics::OpticsConfig;

    #[test]
    fn line_search_never_does_worse_than_plain() {
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
        // A deliberately aggressive step makes plain evolution overshoot.
        let plain = LevelSetIlt::builder()
            .max_iterations(8)
            .lambda_t(4.0)
            .build()
            .optimize(&sim, &target)
            .expect("runs");
        let guarded = LevelSetIlt::builder()
            .max_iterations(8)
            .lambda_t(4.0)
            .line_search(true)
            .build()
            .optimize(&sim, &target)
            .expect("runs");
        // Line search makes the cost trace (nearly) monotone; the
        // unguarded aggressive steps oscillate more.
        let increases = |history: &[crate::IterationRecord]| {
            history
                .windows(2)
                .filter(|w| w[1].cost_total > w[0].cost_total * (1.0 + 1e-9))
                .count()
        };
        assert!(
            increases(&guarded.history) <= increases(&plain.history),
            "guarded had {} increases, plain {}",
            increases(&guarded.history),
            increases(&plain.history)
        );
        // And the guarded run still makes progress.
        let first = guarded.history.first().expect("history").cost_total;
        assert!(guarded.final_cost() < first);
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::*;
    use crate::ResolutionSchedule;
    use lsopc_fft::PlanCache;
    use lsopc_litho::{SimCaches, SpectrumCache};
    use lsopc_optics::OpticsConfig;
    use std::sync::Arc;

    fn optics() -> OpticsConfig {
        OpticsConfig::iccad2013().with_kernel_count(4)
    }

    fn sim_256() -> LithoSimulator {
        LithoSimulator::from_optics(&optics(), 256, 4.0)
            .expect("valid configuration")
            .with_accelerated_backend(1)
    }

    fn wire_target_256() -> Grid<f64> {
        Grid::from_fn(256, 256, |x, y| {
            if (104..152).contains(&x) && (48..208).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn scheduled_run_executes_both_stages_and_improves() {
        let sim = sim_256();
        let target = wire_target_256();
        let schedule =
            ResolutionSchedule::auto(256, &optics(), 9).expect("256 px grid is schedulable");
        let result = LevelSetIlt::builder()
            .max_iterations(9)
            .schedule(Some(schedule))
            .build()
            .optimize(&sim, &target)
            .expect("scheduled run");
        assert_eq!(result.coarse_iterations, schedule.coarse_iterations());
        assert_eq!(
            result.iterations,
            result.coarse_iterations + schedule.fine_iterations()
        );
        // Merged history: stage-local records renumbered into one
        // strictly increasing sequence with no gap at the seam.
        assert_eq!(result.history.len(), result.iterations);
        for (i, rec) in result.history.iter().enumerate() {
            assert_eq!(rec.iteration, i);
        }
        // Coarse-grid costs live on a smaller grid (fewer cells), so
        // improvement is judged per stage: within the coarse records and
        // from the first full-resolution record to the end.
        let coarse_first = result.history.first().expect("history");
        let coarse_last = &result.history[result.coarse_iterations - 1];
        assert!(coarse_last.cost_total < coarse_first.cost_total);
        let fine_first = &result.history[result.coarse_iterations];
        assert!(
            result.final_cost() < fine_first.cost_total,
            "fine stage regressed: {} -> {}",
            fine_first.cost_total,
            result.final_cost()
        );
        assert!(result.mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(result.mask.sum() > 0.0);
    }

    #[test]
    fn coarse_stage_uses_the_simulators_caches() {
        // Each run gets a fresh injected plan cache; the coarse stage
        // must plan its grid there, not in the process-global cache.
        let target = wire_target_256();
        let plans_after = |schedule: Option<ResolutionSchedule>| {
            let plans = Arc::new(PlanCache::new());
            let caches =
                SimCaches::with_handles(Arc::clone(&plans), Arc::new(SpectrumCache::new()));
            LevelSetIlt::builder()
                .max_iterations(6)
                .schedule(schedule)
                .build()
                .optimize(&sim_256().with_caches(caches), &target)
                .expect("run");
            plans.len()
        };
        let schedule =
            ResolutionSchedule::auto(256, &optics(), 6).expect("256 px grid is schedulable");
        let flat = plans_after(None);
        let scheduled = plans_after(Some(schedule));
        assert!(
            scheduled > flat,
            "scheduled run left {scheduled} plans, flat run {flat}"
        );
    }

    #[test]
    fn scheduled_final_cost_is_near_the_flat_run() {
        // The schedule is a wall-clock optimization, not a quality
        // change: with matched total budgets the final cost must land in
        // the same neighbourhood as the flat solve (DESIGN.md §14 gives
        // the accuracy contract; 20% covers the discrete mask flips).
        let sim = sim_256();
        let target = wire_target_256();
        let flat = LevelSetIlt::builder()
            .max_iterations(9)
            .build()
            .optimize(&sim, &target)
            .expect("flat run");
        let schedule =
            ResolutionSchedule::auto(256, &optics(), 9).expect("256 px grid is schedulable");
        let scheduled = LevelSetIlt::builder()
            .max_iterations(9)
            .schedule(Some(schedule))
            .build()
            .optimize(&sim, &target)
            .expect("scheduled run");
        let rel = (scheduled.final_cost() - flat.final_cost()).abs() / flat.final_cost();
        assert!(
            rel < 0.20,
            "scheduled {} vs flat {} ({}% apart)",
            scheduled.final_cost(),
            flat.final_cost(),
            rel * 100.0
        );
    }

    #[test]
    fn unschedulable_grid_falls_back_to_the_flat_loop() {
        // 64 px is below the coarse floor: Option stays None and the
        // configured schedule must be ignored, not an error.
        let sim = LithoSimulator::from_optics(&optics(), 64, 4.0).expect("valid configuration");
        let target = Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        assert!(ResolutionSchedule::auto(64, &optics(), 9).is_none());
        let schedule = ResolutionSchedule::new(128, 2, 6, 3);
        let result = LevelSetIlt::builder()
            .max_iterations(5)
            .schedule(Some(schedule))
            .build()
            .optimize(&sim, &target)
            .expect("fallback run");
        assert_eq!(result.coarse_iterations, 0);
        assert_eq!(result.iterations, 5);
    }

    #[test]
    fn warm_start_rejects_mismatched_init_dims() {
        let sim = LithoSimulator::from_optics(&optics(), 64, 4.0).expect("valid configuration");
        let target = Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let err = LevelSetIlt::builder()
            .max_iterations(3)
            .build()
            .optimize_from_controlled(&sim, &target, Grid::new(32, 32, 1.0), &RunControl::new())
            .expect_err("should fail");
        assert!(matches!(err, OptimizeError::InitDimsMismatch { .. }));
        assert!(err.to_string().contains("32x32"));
    }

    #[test]
    fn warm_start_from_own_levelset_reconverges_immediately() {
        let sim = LithoSimulator::from_optics(&optics(), 64, 4.0).expect("valid configuration");
        let target = Grid::from_fn(64, 64, |x, y| {
            if (26..38).contains(&x) && (12..52).contains(&y) {
                1.0
            } else {
                0.0
            }
        });
        let opt = LevelSetIlt::builder().max_iterations(8).build();
        let cold = opt.optimize(&sim, &target).expect("cold run");
        let warm = opt
            .optimize_from_controlled(&sim, &target, cold.levelset.clone(), &RunControl::new())
            .expect("warm run");
        // Restarting from the solved ψ must not undo the work.
        assert!(
            warm.final_cost() <= cold.final_cost() * 1.05,
            "warm {} much worse than cold {}",
            warm.final_cost(),
            cold.final_cost()
        );
        assert_eq!(warm.coarse_iterations, 0);
    }
}
