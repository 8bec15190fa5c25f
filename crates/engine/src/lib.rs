//! Headless job-execution engine for lsopc.
//!
//! The CLI front end used to own the whole job pipeline — building
//! simulators, wiring optimizer flags, scoping trace sinks. This crate
//! carves that layer out behind a library API so other hosts (tests,
//! notebooks, the benchmark) can run the same jobs:
//!
//! * [`Engine`] — long-lived shared state: one FFT plan cache
//!   ([`SimCaches`]) its simulators share, the global worker pool, a
//!   per-engine in-memory warm-start cache, and a simulator cache keyed by
//!   job geometry and precision so repeated jobs share kernel
//!   construction.
//! * [`JobSpec`] — a plain-data description of one optimization job
//!   (target, optics size, optimizer parameters, precision, schedule,
//!   tiling, warm start, run control). Field semantics mirror the CLI
//!   flags one-to-one; a single-job engine run is bit-identical to the
//!   pre-engine CLI at the default f64 precision.
//! * [`JobOutcome`] — the optimized mask plus run statistics and the
//!   stop reason, for both the flat and the tiled path.
//! * [`Scorer`] — the shared f64 scoring simulator (scoring always runs
//!   at f64 regardless of the job precision).
//!
//! A host that wants a job's event stream wraps the call in
//! [`lsopc_trace::with_scoped_sink`]: events emitted inside (including on
//! pool workers working for the job) reach that sink, so concurrent
//! callers on different threads get separate streams.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), lsopc_engine::EngineError> {
//! use lsopc_engine::{Engine, JobSpec};
//! use lsopc_grid::Grid;
//!
//! let engine = Engine::builder().build();
//! let target = Grid::from_fn(128, 128, |x, y| {
//!     if (52..76).contains(&x) && (30..98).contains(&y) { 1.0 } else { 0.0 }
//! });
//! let mut spec = JobSpec::new(target);
//! spec.kernels = 4;
//! spec.iterations = 2;
//! let outcome = engine.submit(&spec)?;
//! assert_eq!(outcome.mask().width(), 128);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lsopc_core::{
    GuardConfig, IltResult, LevelSetIlt, OptimizeError, RecoveryPolicy, ResolutionSchedule,
    RunControl, StopReason, TiledError, TiledIlt, TiledStats, WarmStartCache,
};
use lsopc_geometry::Layout;
use lsopc_grid::{Grid, Scalar};
use lsopc_litho::{AcceleratedBackend, BuildSimulatorError, LithoSimulator, SimCaches};
use lsopc_metrics::MaskEvaluation;
use lsopc_optics::OpticsConfig;
use lsopc_trace::{MetricsRegistry, MetricsReport};

// Re-export the types a host needs to build and control jobs without
// depending on the simulation crates directly.
pub use lsopc_core::{CancelToken, CheckpointSpec};
pub use lsopc_litho::SimCaches as Caches;

/// The optical field is always 2048 nm on a side; the grid size sets
/// the pixels across it.
pub const FIELD_NM: f64 = 2048.0;

/// Pixel pitch in nanometres for a `grid`-pixel field.
pub fn pixel_nm(grid: usize) -> f64 {
    FIELD_NM / grid as f64
}

/// Arithmetic used by the optimization loop. Scoring and reporting
/// always run at f64 regardless.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full double precision — the default.
    #[default]
    F64,
    /// Pure single precision fields and transforms (the paper's GPU
    /// arithmetic); the result mask is widened to f64 for scoring.
    F32,
}

/// Coarse-to-fine schedule selection for a job.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Flat run at full resolution (the historical default).
    #[default]
    Off,
    /// Derive the stages from the solve grid, optics and iteration
    /// count; quietly degrades to a flat run when no coarser grid holds
    /// the optical band.
    Auto,
    /// Pinned stages.
    Fixed(ResolutionSchedule),
}

/// Validated tile geometry: an N×N core plus halo pixels of optical
/// context on each side.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Tiling {
    core: usize,
    halo: usize,
}

impl Tiling {
    /// Validates the geometry with the tiled optimizer's own rules
    /// (positive core, halo smaller than the core, core + 2·halo a
    /// power of two). Errors carry the optimizer's exact wording, so a
    /// host can reject the configuration before any I/O happens.
    pub fn new(core: usize, halo: usize) -> Result<Self, TiledError> {
        // The geometry checks live in TiledIlt::new; a throwaway
        // optimizer config makes them available at spec-building time.
        TiledIlt::new(LevelSetIlt::builder().build(), core, halo)?;
        Ok(Self { core, halo })
    }

    /// The core size in pixels.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The halo size in pixels.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// The solve window (`core + 2·halo`) each tile optimizes on.
    pub fn window(&self) -> usize {
        self.core + 2 * self.halo
    }
}

/// Warm-start cache selection for tiled jobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WarmStart {
    /// The engine's shared in-memory cache — entries persist across
    /// jobs submitted to the same [`Engine`].
    Memory,
    /// A directory cache persisted across processes. Opened when the
    /// job is submitted.
    Directory(PathBuf),
}

/// A plain-data description of one optimization job.
///
/// Defaults mirror the CLI's `optimize` defaults; the grid size is
/// implied by the (square) target raster and the field is always
/// [`FIELD_NM`].
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The rasterized target pattern (square, power-of-two side).
    pub target: Grid<f64>,
    /// SOCS kernel count (default 24).
    pub kernels: usize,
    /// Maximum optimizer iterations (default 30).
    pub iterations: usize,
    /// Process-variation band weight (default 1.0).
    pub pvb_weight: f64,
    /// Solver health guard policy (default: recover and keep going).
    pub recovery: RecoveryPolicy,
    /// Loop arithmetic (default f64).
    pub precision: Precision,
    /// Coarse-to-fine schedule (default off).
    pub schedule: Schedule,
    /// Tile the field instead of solving it whole (f64 only).
    pub tiling: Option<Tiling>,
    /// Warm-start cache for tiled jobs.
    pub warm_start: Option<WarmStart>,
    /// Warm-tile refinement iterations (0 = the optimizer's default,
    /// a quarter of `iterations`).
    pub warm_iterations: usize,
    /// Cancellation, deadline, iteration budget and checkpoint policy.
    pub control: RunControl,
    /// Attach a [`JobMetrics`] summary to the outcome (default true).
    /// Collection scopes a per-job [`MetricsRegistry`] over the run,
    /// which turns the instrumentation points on for its duration; set
    /// false to keep the sub-1% disabled-path cost instead of the
    /// summary (the benchmark, `examples/lsopc_bench`, reports the
    /// measured delta as `trace.job_metrics_overhead_pct`).
    pub collect_metrics: bool,
}

impl JobSpec {
    /// A job with the CLI `optimize` defaults for `target`.
    pub fn new(target: Grid<f64>) -> Self {
        Self {
            target,
            kernels: 24,
            iterations: 30,
            pvb_weight: 1.0,
            recovery: RecoveryPolicy::On(GuardConfig::default()),
            precision: Precision::F64,
            schedule: Schedule::Off,
            tiling: None,
            warm_start: None,
            warm_iterations: 0,
            control: RunControl::new(),
            collect_metrics: true,
        }
    }

    /// The grid size implied by the target raster.
    pub fn grid(&self) -> usize {
        self.target.width()
    }

    /// The grid each solve actually runs on: the tile window in tiled
    /// mode, the full grid otherwise. Schedules resolve against this.
    pub fn solve_px(&self) -> usize {
        self.tiling.map_or(self.grid(), |t| t.window())
    }
}

/// Why a job could not run or complete.
#[derive(Debug)]
pub enum EngineError {
    /// The spec is internally inconsistent (e.g. tiling at f32).
    Spec(String),
    /// Opening a spec-referenced path (warm-start directory) failed.
    Io(String),
    /// The simulator could not be constructed for the spec's geometry.
    Setup(BuildSimulatorError),
    /// The flat optimizer rejected its inputs or failed.
    Optimize(OptimizeError),
    /// The tiled optimizer rejected its configuration or failed.
    Tiled(TiledError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spec(m) | Self::Io(m) => write!(f, "{m}"),
            Self::Setup(e) => write!(f, "{e}"),
            Self::Optimize(e) => write!(f, "{e}"),
            Self::Tiled(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<OptimizeError> for EngineError {
    fn from(e: OptimizeError) -> Self {
        Self::Optimize(e)
    }
}

impl From<TiledError> for EngineError {
    fn from(e: TiledError) -> Self {
        Self::Tiled(e)
    }
}

impl From<BuildSimulatorError> for EngineError {
    fn from(e: BuildSimulatorError) -> Self {
        Self::Setup(e)
    }
}

/// Per-path detail of a finished job.
#[derive(Clone, Debug)]
pub enum JobDetail {
    /// A whole-field solve: the full optimizer result.
    Flat(IltResult<f64>),
    /// A tiled solve: the stitched mask plus per-tile statistics.
    Tiled {
        /// The stitched full-field mask.
        mask: Grid<f64>,
        /// Tile counts, warm/cold split and iteration totals.
        stats: TiledStats,
    },
}

/// Telemetry summary of one job: the [`MetricsReport`] of a per-job
/// [`MetricsRegistry`] scoped over the run — span timings with
/// percentiles, counters, gauges, cache hit ratios, the convergence
/// summary and warnings — so embedders need not parse JSONL. It is the
/// same report `lsopc analyze` derives from the job's `--trace` stream.
#[derive(Clone, Debug)]
pub struct JobMetrics {
    /// Wall-clock seconds spent inside [`Engine::submit`].
    pub wall_s: f64,
    /// Why the run stopped early, if it did.
    pub stop: Option<StopReason>,
    /// Everything the job's registry aggregated.
    pub report: MetricsReport,
}

/// The outcome of one [`Engine::submit`] call.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// End-to-end wall-clock runtime of the optimization in seconds.
    pub runtime_s: f64,
    /// Why the run stopped early (`None` for a normal completion). A
    /// stopped outcome still carries the best-so-far mask.
    pub stopped: Option<StopReason>,
    /// Path-specific results.
    pub detail: JobDetail,
    /// Telemetry summary; `None` when the spec disabled collection.
    pub metrics: Option<JobMetrics>,
}

impl JobOutcome {
    /// The optimized mask (always f64, whatever the loop precision).
    pub fn mask(&self) -> &Grid<f64> {
        match &self.detail {
            JobDetail::Flat(result) => &result.mask,
            JobDetail::Tiled { mask, .. } => mask,
        }
    }
}

/// The engine's simulators, keyed by everything that feeds their
/// construction: the loop precision (the scalar type), the grid and the
/// kernel count. Values are type-erased `Arc<LithoSimulator<T>>`, one
/// map for both precisions, as `lsopc_fft::PlanCache` keeps its plans.
type SimMap = HashMap<(TypeId, usize, usize), Arc<dyn Any + Send + Sync>>;

#[derive(Debug)]
struct Inner {
    caches: SimCaches,
    warm_memory: WarmStartCache,
    pool_threads: usize,
    sims: Mutex<SimMap>,
}

/// Long-lived job executor: owns the shared caches and the simulator
/// pool. Cheap to clone (all clones share state) and safe to submit to
/// from multiple threads concurrently.
#[derive(Clone, Debug)]
pub struct Engine {
    inner: Arc<Inner>,
}

/// Configures an [`Engine`] before it is built.
#[derive(Debug, Default)]
pub struct EngineBuilder {
    threads: usize,
    caches: SimCaches,
}

impl EngineBuilder {
    /// Pins the shared worker pool size. 0 (the default) keeps the
    /// `LSOPC_THREADS` / available-core sizing. The pool is built once
    /// per process, so only the first engine (or other pool user) can
    /// still size it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Uses the given plan cache for the engine's simulators instead of
    /// a fresh one of its own — e.g. a clone of another engine's, so the
    /// two share FFT plans.
    pub fn caches(mut self, caches: SimCaches) -> Self {
        self.caches = caches;
        self
    }

    /// Builds the engine, sizing the worker pool if requested.
    pub fn build(self) -> Engine {
        if self.threads > 0 {
            lsopc_parallel::init_global_threads(self.threads);
        }
        let pool_threads = lsopc_parallel::ParallelContext::global().threads();
        Engine {
            inner: Arc::new(Inner {
                caches: self.caches,
                warm_memory: WarmStartCache::in_memory(),
                pool_threads,
                sims: Mutex::new(HashMap::new()),
            }),
        }
    }
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The number of worker-pool threads jobs fan out over.
    pub fn pool_threads(&self) -> usize {
        self.inner.pool_threads
    }

    /// The iccad2013 optics for a job's kernel count — the single
    /// source of optics settings for every engine job.
    fn optics(kernels: usize) -> OpticsConfig {
        OpticsConfig::iccad2013().with_kernel_count(kernels)
    }

    /// The cached simulator of precision `T` for a `grid`-pixel field
    /// and `kernels` kernels, building it on first use.
    fn sim<T: Scalar>(
        &self,
        grid: usize,
        kernels: usize,
    ) -> Result<Arc<LithoSimulator<T>>, EngineError> {
        let key = (TypeId::of::<T>(), grid, kernels);
        let mut sims = self.inner.sims.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(erased) = sims.get(&key) {
            return Ok(Arc::clone(erased)
                .downcast()
                .unwrap_or_else(|_| unreachable!("simulator keyed by TypeId has that type")));
        }
        let backend = AcceleratedBackend::new(self.inner.pool_threads);
        let sim = Arc::new(
            LithoSimulator::<T>::from_optics(&Self::optics(kernels), grid, pixel_nm(grid))?
                .with_backend(Box::new(backend))
                .with_caches(self.inner.caches.clone()),
        );
        sims.insert(key, sim.clone());
        Ok(sim)
    }

    /// The shared f64 scoring simulator for a grid/kernel-count pair.
    ///
    /// The third argument is ignored: it selected the FFT routing, and
    /// the real-input path is now the only one. It stays only because
    /// the benchmark harness calls this three-argument form; the next
    /// change to the benchmark removes it.
    pub fn scorer(
        &self,
        grid: usize,
        kernels: usize,
        _routing: Option<bool>,
    ) -> Result<Scorer, EngineError> {
        let sim = self.sim::<f64>(grid, kernels)?;
        Ok(Scorer { sim })
    }

    /// Runs one job to completion (or to its graceful stop) and returns
    /// the mask plus statistics. Safe to call from multiple threads.
    ///
    /// Unless [`JobSpec::collect_metrics`] is false, a per-job
    /// [`MetricsRegistry`] is layered over the run's trace scope —
    /// composing with (never shadowing) a sink the caller scoped in —
    /// and the derived [`JobMetrics`] ride on the outcome.
    pub fn submit(&self, spec: &JobSpec) -> Result<JobOutcome, EngineError> {
        if !spec.collect_metrics {
            return self.submit_inner(spec);
        }
        let registry = Arc::new(MetricsRegistry::new());
        let started = Instant::now();
        let mut outcome =
            lsopc_trace::with_layered_scoped_sink(registry.clone(), || self.submit_inner(spec))?;
        outcome.metrics = Some(JobMetrics {
            wall_s: started.elapsed().as_secs_f64(),
            stop: outcome.stopped,
            report: registry.report(),
        });
        Ok(outcome)
    }

    fn submit_inner(&self, spec: &JobSpec) -> Result<JobOutcome, EngineError> {
        let grid = spec.grid();
        if spec.target.height() != grid {
            return Err(EngineError::Spec(format!(
                "target raster must be square, got {}x{}",
                grid,
                spec.target.height()
            )));
        }
        let optics = Self::optics(spec.kernels);
        let schedule = match spec.schedule {
            Schedule::Off => None,
            Schedule::Auto => ResolutionSchedule::auto(spec.solve_px(), &optics, spec.iterations),
            Schedule::Fixed(s) => Some(s),
        };
        let ilt = LevelSetIlt::builder()
            .max_iterations(spec.iterations)
            .pvb_weight(spec.pvb_weight)
            .recovery(spec.recovery)
            .schedule(schedule)
            .build();

        if let Some(tiling) = spec.tiling {
            return self.submit_tiled(spec, &optics, ilt, tiling);
        }

        let result = match spec.precision {
            Precision::F64 => {
                let sim = self.sim::<f64>(grid, spec.kernels)?;
                ilt.optimize_controlled(&sim, &spec.target, &spec.control)?
            }
            Precision::F32 => {
                let sim = self.sim::<f32>(grid, spec.kernels)?;
                let target32 = spec.target.map(|&v| v as f32);
                ilt.optimize_controlled(&sim, &target32, &spec.control)?
                    .to_f64()
            }
        };
        Ok(JobOutcome {
            runtime_s: result.runtime_s,
            stopped: result.stopped,
            detail: JobDetail::Flat(result),
            metrics: None,
        })
    }

    fn submit_tiled(
        &self,
        spec: &JobSpec,
        optics: &OpticsConfig,
        ilt: LevelSetIlt,
        tiling: Tiling,
    ) -> Result<JobOutcome, EngineError> {
        if spec.precision != Precision::F64 {
            return Err(EngineError::Spec(
                "tiled jobs run at f64; drop the precision override or the tiling".into(),
            ));
        }
        let mut tiled = TiledIlt::new(ilt, tiling.core, tiling.halo)?;
        match &spec.warm_start {
            Some(WarmStart::Memory) => {
                tiled = tiled.with_warm_start(self.inner.warm_memory.clone());
            }
            Some(WarmStart::Directory(path)) => {
                let cache = WarmStartCache::directory(path).map_err(|e| {
                    EngineError::Io(format!(
                        "cannot open warm-start cache {}: {e}",
                        path.display()
                    ))
                })?;
                tiled = tiled.with_warm_start(cache);
            }
            None => {}
        }
        if spec.warm_iterations > 0 {
            tiled = tiled.with_warm_iterations(spec.warm_iterations);
        }
        tiled = tiled
            .with_run_control(spec.control.clone())
            .with_caches(self.inner.caches.clone());
        let started = Instant::now();
        let (mask, stats) =
            tiled.optimize_with_stats(optics, &spec.target, pixel_nm(spec.grid()))?;
        Ok(JobOutcome {
            runtime_s: started.elapsed().as_secs_f64(),
            stopped: stats.stopped,
            detail: JobDetail::Tiled { mask, stats },
            metrics: None,
        })
    }
}

/// The shared f64 scoring simulator: quality metrics always run at
/// full precision, whatever arithmetic the optimization loop used.
#[derive(Clone, Debug)]
pub struct Scorer {
    sim: Arc<LithoSimulator<f64>>,
}

impl Scorer {
    /// Simulates `mask` at the three process corners and measures #EPE,
    /// PVB and shape violations against the target.
    pub fn evaluate(
        &self,
        mask: &Grid<f64>,
        target_layout: &Layout,
        target_grid: &Grid<f64>,
    ) -> MaskEvaluation {
        lsopc_metrics::evaluate_mask(&self.sim, mask, target_layout, target_grid)
    }

    /// The scoring grid's pixel pitch in nanometres.
    pub fn pixel_nm(&self) -> f64 {
        self.sim.pixel_nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_target() -> Grid<f64> {
        Grid::from_fn(128, 128, |x, y| {
            if (52..76).contains(&x) && (30..98).contains(&y) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn engine_runs_a_default_spec() {
        let engine = Engine::builder().build();
        let mut spec = JobSpec::new(small_target());
        spec.kernels = 4;
        spec.iterations = 2;
        let outcome = engine.submit(&spec).expect("job runs");
        assert_eq!(outcome.mask().dims(), (128, 128));
        assert!(outcome.stopped.is_none());
    }

    #[test]
    fn non_square_target_is_a_spec_error() {
        let engine = Engine::builder().build();
        let spec = JobSpec::new(Grid::from_fn(64, 32, |_, _| 0.0));
        match engine.submit(&spec) {
            Err(EngineError::Spec(msg)) => assert!(msg.contains("square")),
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn bad_grid_is_a_setup_error() {
        let engine = Engine::builder().build();
        let mut spec = JobSpec::new(Grid::from_fn(48, 48, |_, _| 1.0));
        spec.kernels = 4;
        match engine.submit(&spec) {
            Err(EngineError::Setup(e)) => {
                assert!(e.to_string().contains("power of two"));
            }
            other => panic!("expected a setup error, got {other:?}"),
        }
    }

    #[test]
    fn tiling_rejects_non_f64_precision() {
        let engine = Engine::builder().build();
        let mut spec = JobSpec::new(small_target());
        spec.tiling = Some(Tiling::new(32, 16).expect("valid geometry"));
        spec.precision = Precision::F32;
        match engine.submit(&spec) {
            Err(EngineError::Spec(msg)) => assert!(msg.contains("f64")),
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn tiling_geometry_is_validated_up_front() {
        let err = Tiling::new(100, 64).expect_err("non-power-of-two window");
        assert!(err.to_string().contains("power of two"));
        let err = Tiling::new(128, 256).expect_err("halo too large");
        assert!(err.to_string().contains("smaller"));
    }

    #[test]
    fn submit_attaches_job_metrics_by_default() {
        let engine = Engine::builder().caches(SimCaches::private()).build();
        let mut spec = JobSpec::new(small_target());
        spec.kernels = 4;
        spec.iterations = 2;
        let outcome = engine.submit(&spec).expect("job runs");
        let metrics = outcome.metrics.as_ref().expect("metrics collected");
        assert!(metrics.wall_s > 0.0);
        let report = &metrics.report;
        assert!(
            report.spans.iter().any(|s| s.path.contains("optimize")),
            "span paths: {:?}",
            report.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
        );
        for span in &report.spans {
            assert!(span.calls > 0);
            assert!(span.p99_ns >= span.p90_ns && span.p90_ns >= span.p50_ns);
            assert!(span.self_ns <= span.total_ns);
        }
        assert!(metrics.stop.is_none() && report.stop_reason.is_none());
        assert_eq!(report.counters.get("guard.gave_up"), None);
        assert_eq!(report.convergence.map(|c| c.iterations), Some(2));
        // A second identical job must hit the FFT-plan cache and say so
        // in its summary.
        let outcome2 = engine.submit(&spec).expect("job reruns");
        let metrics2 = outcome2.metrics.as_ref().unwrap();
        let plan = metrics2.report.caches.get("plan").expect("plan family");
        assert!(plan.hits > 0, "expected warm plan cache: {plan:?}");
        assert!(plan.ratio() > 0.0);
    }

    #[test]
    fn metrics_collection_can_be_disabled() {
        let engine = Engine::builder().caches(SimCaches::private()).build();
        let mut spec = JobSpec::new(small_target());
        spec.kernels = 4;
        spec.iterations = 1;
        spec.collect_metrics = false;
        let outcome = engine.submit(&spec).expect("job runs");
        assert!(outcome.metrics.is_none());
    }

    #[test]
    fn scorer_shares_the_f64_simulator_cache() {
        let engine = Engine::builder().caches(SimCaches::private()).build();
        let mut spec = JobSpec::new(small_target());
        spec.kernels = 4;
        spec.iterations = 2;
        engine.submit(&spec).expect("job runs");
        let scorer = engine.scorer(128, 4, None).expect("scorer builds");
        // Same SimKey → the cached simulator, not a fresh build.
        let again = engine.scorer(128, 4, None).expect("scorer rebuilds");
        assert!(Arc::ptr_eq(&scorer.sim, &again.sim));
    }
}
