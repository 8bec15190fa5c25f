//! Shared flag resolution: one spec builder for every optimizing
//! subcommand.
//!
//! `optimize`, `suite` and `profile` used to carry copy-pasted blocks
//! turning flags into optimizer configuration. They now share
//! [`resolve_spec`], which validates the whole flag family in one place
//! and produces the plain-data pieces a [`lsopc_engine::JobSpec`] is
//! assembled from. Conflicting or malformed flags are usage errors
//! (exit code 2) exactly as before.

use crate::args::Flags;
use crate::error::CliError;
use lsopc_core::{CheckpointSpec, RecoveryPolicy, ResolutionSchedule, RunControl};
use lsopc_engine::{Engine, JobSpec, Precision, Schedule, Tiling, WarmStart};
use lsopc_grid::Grid;
use std::time::{Duration, Instant};

/// Flags [`resolve_spec`] and [`engine_for`] read for every optimizing
/// command.
pub const SPEC_FLAGS: &[&str] = &[
    "grid",
    "iters",
    "kernels",
    "pvb-weight",
    "threads",
    "recover",
    "precision",
    "schedule",
];
/// The tiling and warm-start family [`resolve_spec`] reads; only
/// `optimize` accepts it.
pub const TILING_FLAGS: &[&str] = &["tile", "halo", "warm-start", "warm-iters"];
/// The run-lifecycle family [`run_control_flags`] reads.
pub const LIFECYCLE_FLAGS: &[&str] = &[
    "deadline",
    "max-wall",
    "iter-budget",
    "checkpoint",
    "checkpoint-every",
    "resume",
];

/// Per-command defaults for [`resolve_spec`].
pub struct SpecDefaults {
    /// Default `--grid` when the flag is absent.
    pub grid: usize,
    /// Default `--iters` when the flag is absent.
    pub iters: usize,
}

/// Everything the flags determine about a job except the target raster
/// and the run control (which need the layout and the signal token).
pub struct ResolvedSpec {
    /// Grid pixels per side.
    pub grid: usize,
    /// SOCS kernel count.
    pub kernels: usize,
    /// Maximum optimizer iterations.
    pub iters: usize,
    /// Process-variation band weight.
    pub pvb_weight: f64,
    /// Solver health guard policy.
    pub recovery: RecoveryPolicy,
    /// Loop arithmetic.
    pub precision: Precision,
    /// Coarse-to-fine schedule selection.
    pub schedule: Schedule,
    /// Tile geometry, when tiling.
    pub tiling: Option<Tiling>,
    /// Warm-start cache selection, when tiling.
    pub warm_start: Option<WarmStart>,
    /// Warm-tile refinement iterations (0 = optimizer default).
    pub warm_iters: usize,
}

impl ResolvedSpec {
    /// Assembles the engine job for one target.
    pub fn job(&self, target: Grid<f64>, control: RunControl) -> JobSpec {
        let mut job = JobSpec::new(target);
        job.kernels = self.kernels;
        job.iterations = self.iters;
        job.pvb_weight = self.pvb_weight;
        job.recovery = self.recovery;
        job.precision = self.precision;
        job.schedule = self.schedule;
        job.tiling = self.tiling;
        job.warm_start = self.warm_start.clone();
        job.warm_iterations = self.warm_iters;
        job.control = control;
        job
    }
}

/// Validates the full flag family shared by the optimizing commands.
pub fn resolve_spec(flags: &Flags, defaults: SpecDefaults) -> Result<ResolvedSpec, CliError> {
    let iters: usize = flags.num("iters", defaults.iters)?;
    let pvb_weight: f64 = flags.num("pvb-weight", 1.0)?;
    let recovery = recovery_policy(flags)?;
    let precision = precision(flags)?;
    // Only `optimize` accepts the tiling family; for the other commands
    // the flags are absent and this resolves to a flat job.
    let tiling = tiling_flags(flags)?;
    let warm_start = warm_start_flag(flags, tiling.is_some())?;
    let warm_iters: usize = flags.num("warm-iters", 0)?;
    if tiling.is_some() && precision != Precision::F64 {
        return Err(CliError::usage(
            "--tile runs at f64; drop --precision or the tiling flags",
        ));
    }
    let grid: usize = flags.num("grid", defaults.grid)?;
    let kernels: usize = flags.num("kernels", 24)?;
    let schedule = schedule_flag(flags)?;
    Ok(ResolvedSpec {
        grid,
        kernels,
        iters,
        pvb_weight,
        recovery,
        precision,
        schedule,
        tiling,
        warm_start,
        warm_iters,
    })
}

/// Builds the engine, sizing the shared worker pool from `--threads`
/// (0, the default, keeps the `LSOPC_THREADS` / available-core sizing;
/// the pool is built once per process, so only the first user can
/// still size it).
pub fn engine_for(flags: &Flags) -> Result<Engine, CliError> {
    let threads: usize = flags.num("threads", 0)?;
    Ok(Engine::builder().threads(threads).build())
}

fn recovery_policy(flags: &Flags) -> Result<RecoveryPolicy, CliError> {
    let value = flags
        .get("recover")
        .filter(|v| !v.is_empty())
        .unwrap_or("on");
    RecoveryPolicy::parse(value).map_err(|e| CliError::usage(format!("--recover: {e}")))
}

fn precision(flags: &Flags) -> Result<Precision, CliError> {
    match flags.get("precision").filter(|v| !v.is_empty()) {
        None | Some("f64") => Ok(Precision::F64),
        Some("f32") => Ok(Precision::F32),
        Some(other) => Err(CliError::usage(format!(
            "invalid value `{other}` for --precision: expected f64 or f32"
        ))),
    }
}

/// Parses `--schedule auto|off|CPX,K,CI,FI`. The `auto` stages resolve
/// inside the engine against the grid each solve actually runs on (the
/// tile window in tiled mode, the full grid otherwise).
fn schedule_flag(flags: &Flags) -> Result<Schedule, CliError> {
    let spec = match flags.get("schedule") {
        None | Some("off") => return Ok(Schedule::Off),
        Some("" | "auto") => return Ok(Schedule::Auto),
        Some(spec) => spec,
    };
    let parts: Result<Vec<usize>, _> = spec.split(',').map(|t| t.trim().parse()).collect();
    let parts = parts.map_err(|_| {
        CliError::usage(format!(
            "invalid value `{spec}` for --schedule: expected auto, off or \
             COARSE_PX,KERNELS,COARSE_ITERS,FINE_ITERS"
        ))
    })?;
    let [coarse_px, kernels, coarse_iters, fine_iters] = parts[..] else {
        return Err(CliError::usage(format!(
            "--schedule {spec}: expected four comma-separated values \
             COARSE_PX,KERNELS,COARSE_ITERS,FINE_ITERS"
        )));
    };
    if coarse_px == 0 || !coarse_px.is_power_of_two() {
        return Err(CliError::usage(format!(
            "--schedule {spec}: coarse grid {coarse_px} must be a power of two"
        )));
    }
    if kernels == 0 || coarse_iters == 0 || fine_iters == 0 {
        return Err(CliError::usage(format!(
            "--schedule {spec}: kernel and iteration counts must be positive"
        )));
    }
    Ok(Schedule::Fixed(ResolutionSchedule::new(
        coarse_px,
        kernels,
        coarse_iters,
        fine_iters,
    )))
}

/// Parses `--tile N [--halo M]` and validates the geometry up front
/// (still flag validation — rejected before any filesystem access).
/// The halo defaults to half the core, which keeps the tile window a
/// power of two whenever the core is.
fn tiling_flags(flags: &Flags) -> Result<Option<Tiling>, CliError> {
    let core: usize = flags.num("tile", 0)?;
    if core == 0 {
        if flags.get("tile").is_some() {
            return Err(CliError::usage("--tile needs a positive pixel count"));
        }
        if flags.get("halo").is_some() {
            return Err(CliError::usage("--halo requires --tile"));
        }
        return Ok(None);
    }
    let halo: usize = flags.num("halo", core / 2)?;
    Tiling::new(core, halo)
        .map(Some)
        .map_err(CliError::from_tiled)
}

/// Parses `--warm-start mem|<dir>` (tiled runs only — the cache keys
/// whole tile windows). A directory cache is opened by the engine when
/// the job is submitted.
fn warm_start_flag(flags: &Flags, tiled: bool) -> Result<Option<WarmStart>, CliError> {
    match flags.get("warm-start") {
        None => Ok(None),
        Some(_) if !tiled => Err(CliError::usage(
            "--warm-start requires --tile (the cache keys tile windows)",
        )),
        Some("") => Err(CliError::usage(
            "--warm-start needs `mem` or a cache directory path",
        )),
        Some("mem") => Ok(Some(WarmStart::Memory)),
        Some(path) => Ok(Some(WarmStart::Directory(path.into()))),
    }
}

/// Parses a `--key SECS` wall-clock flag: absent → `None`, otherwise a
/// finite non-negative number of seconds (0 means "already expired" —
/// useful for exercising the graceful-stop path).
pub fn secs_flag(flags: &Flags, key: &str) -> Result<Option<f64>, CliError> {
    match flags.get(key) {
        None => Ok(None),
        Some("") => Err(CliError::usage(format!(
            "--{key} needs a duration in seconds"
        ))),
        Some(v) => match v.parse::<f64>() {
            Ok(s) if s.is_finite() && s >= 0.0 => Ok(Some(s)),
            _ => Err(CliError::usage(format!(
                "invalid value `{v}` for --{key}: expected a non-negative number of seconds"
            ))),
        },
    }
}

/// The earlier of `--deadline` and `--max-wall`, both measured from
/// `start` (for `optimize` the two are equivalent; `suite` additionally
/// skips whole cases once `--max-wall` expires).
pub fn effective_deadline(
    start: Instant,
    deadline_s: Option<f64>,
    max_wall_s: Option<f64>,
) -> Option<Instant> {
    let mut deadline: Option<Instant> = None;
    for s in [deadline_s, max_wall_s].into_iter().flatten() {
        let d = start + Duration::from_secs_f64(s);
        deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
    }
    deadline
}

/// Builds the [`RunControl`] for `optimize` from the lifecycle flags,
/// wiring in the process SIGINT token. Returns usage errors for
/// malformed flag values; the checkpoint/resume paths themselves are
/// validated by the optimizer when the run starts.
pub fn run_control_flags(flags: &Flags) -> Result<RunControl, CliError> {
    let deadline_s = secs_flag(flags, "deadline")?;
    let max_wall_s = secs_flag(flags, "max-wall")?;
    let iter_budget: usize = flags.num("iter-budget", 0)?;
    if flags.get("iter-budget").is_some() && iter_budget == 0 {
        return Err(CliError::usage(
            "--iter-budget needs a positive iteration count",
        ));
    }
    let checkpoint = flags.get("checkpoint").filter(|v| !v.is_empty());
    let every: usize = flags.num("checkpoint-every", 10)?;
    if flags.get("checkpoint-every").is_some() {
        if checkpoint.is_none() {
            return Err(CliError::usage("--checkpoint-every requires --checkpoint"));
        }
        if every == 0 {
            return Err(CliError::usage(
                "--checkpoint-every needs a positive iteration interval",
            ));
        }
    }
    let resume = flags.get("resume").filter(|v| !v.is_empty());
    if flags.get("resume").is_some() && resume.is_none() {
        return Err(CliError::usage("--resume needs a checkpoint path"));
    }
    if flags.get("checkpoint").is_some() && checkpoint.is_none() {
        return Err(CliError::usage("--checkpoint needs an output path"));
    }

    let mut control = RunControl::new().with_cancel(crate::signal::interrupt_token());
    if let Some(deadline) = effective_deadline(Instant::now(), deadline_s, max_wall_s) {
        control = control.with_deadline(deadline);
    }
    if iter_budget > 0 {
        control = control.with_iteration_budget(iter_budget);
    }
    if let Some(path) = checkpoint {
        control = control.with_checkpoint(CheckpointSpec::new(path, every));
    }
    if let Some(path) = resume {
        control = control.with_resume(path);
    }
    Ok(control)
}
