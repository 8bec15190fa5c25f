//! The untraced pass: set-up samples, then a closed loop of passes
//! through `Engine::submit` with tracing off (`collect_metrics = false`)
//! — the end-to-end numbers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lsopc_core::OptimizeError;
use lsopc_engine::{Engine, EngineError, JobDetail, JobOutcome, JobSpec, Scorer};
use lsopc_grid::Grid;
use lsopc_litho::SimCaches;

use crate::report::{median, metric, Metric, Tally};
use crate::workload::{Case, Mode, Workload};

/// Set-up samples per run; `setup_s` reports their median.
const SETUP_SAMPLES: usize = 3;

pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The checks every finished job must pass: no early stop, a square
/// non-empty mask, and (flat) a final cost below the first cost or
/// (tiled) every tile solved. The cost check needs at least three
/// iterations: a one- or two-iteration job has taken at most one step,
/// which on a coarse grid may flip no pixel at all.
fn check_outcome(outcome: &JobOutcome) -> Result<(), String> {
    if let Some(reason) = outcome.stopped {
        return Err(format!("stopped early: {reason:?}"));
    }
    let mask = outcome.mask();
    if mask.width() != mask.height() {
        return Err(format!("mask is {}x{}", mask.width(), mask.height()));
    }
    if mask.sum() == 0.0 {
        return Err("mask is all-empty".into());
    }
    match &outcome.detail {
        JobDetail::Flat(result) => {
            let first = result.history.first().map_or(f64::NAN, |r| r.cost_total);
            let last = result.final_cost();
            if result.history.len() < 3 || last < first {
                Ok(())
            } else {
                Err(format!("final cost {last} is not below first cost {first}"))
            }
        }
        JobDetail::Tiled { stats, .. } if stats.tiles == 0 || stats.unfinished > 0 => Err(format!(
            "{} tiles solved, {} unfinished",
            stats.tiles, stats.unfinished
        )),
        JobDetail::Tiled { .. } => Ok(()),
    }
}

/// Submits and checks one job, catching panics: its wall time and
/// outcome, or `None` (and a recorded failure) unless it finished and
/// passed every check.
pub fn run_job(
    engine: &Engine,
    spec: &JobSpec,
    label: &str,
    tally: &mut Tally,
) -> Option<(f64, JobOutcome)> {
    tally.attempted += 1;
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| engine.submit(spec)));
    let wall = started.elapsed().as_secs_f64();
    let checked = match result {
        Ok(Ok(outcome)) => check_outcome(&outcome).map(|()| outcome),
        Ok(Err(e)) => Err(format!("engine error: {e}")),
        Err(payload) => Err(format!("panic: {}", panic_text(payload.as_ref()))),
    };
    match checked {
        Ok(outcome) => Some((wall, outcome)),
        Err(why) => {
            tally.fail(format!("{label}: {why}"));
            None
        }
    }
}

/// The zero-area probe: the job must come back as the typed
/// empty-target error, never a mask or a panic.
fn expect_empty_target_error(engine: &Engine, spec: &JobSpec, label: &str, tally: &mut Tally) {
    tally.attempted += 1;
    match catch_unwind(AssertUnwindSafe(|| engine.submit(spec))) {
        Ok(Err(EngineError::Optimize(OptimizeError::EmptyTarget))) => {}
        Ok(Err(e)) => tally.fail(format!("{label}: wrong error for an empty target: {e}")),
        Ok(Ok(_)) => tally.fail(format!("{label}: an empty target produced a mask")),
        Err(p) => tally.fail(format!("{label}: panic: {}", panic_text(p.as_ref()))),
    }
}

/// #EPE and PV-band sums over a set of masks, scored at f64.
#[derive(Clone, Copy, Debug, Default)]
struct Quality {
    epe_violations: usize,
    epe_probes: usize,
    pvb_nm2: f64,
}

impl Quality {
    fn score(&mut self, scorer: &Scorer, case: &Case, mask: &Grid<f64>) {
        let eval = scorer.evaluate(mask, &case.layout, &case.target);
        self.epe_violations += eval.epe.violations;
        self.epe_probes += eval.epe.total_probes;
        self.pvb_nm2 += eval.pvb_area_nm2;
    }
}

/// A fresh engine with caches of its own: nothing it needs is built yet.
fn cold_engine() -> Engine {
    Engine::builder().caches(SimCaches::private()).build()
}

/// `setup_s` samples: the time to a first result on a fresh engine with
/// caches of its own — building the engine, then submitting a
/// 1-iteration job (two cost evaluations, the smallest job there is) and
/// waiting for its outcome. Work moved from the loop into set-up shows
/// here in full. Returns the samples and the last (now warm) engine.
fn setup_samples(w: &Workload, tally: &mut Tally) -> (Vec<f64>, Engine) {
    let mut spec = w.spec(&w.cases[0]);
    spec.iterations = 1;
    // Warm tiles would refine for more iterations than the one asked for.
    spec.warm_start = None;
    let mut samples = Vec::new();
    let mut last = None;
    for i in 0..SETUP_SAMPLES {
        let started = Instant::now();
        let engine = cold_engine();
        if run_job(&engine, &spec, &format!("{} setup {i}", w.name), tally).is_some() {
            samples.push(started.elapsed().as_secs_f64());
        }
        last = Some(engine);
    }
    (samples, last.expect("at least one set-up sample"))
}

/// Runs the untraced pass: set-up samples, then passes over the
/// workload's jobs until `repeats` passes are done and another pass would
/// end after `seconds`.
pub fn untraced(w: &Workload, seconds: f64, repeats: usize, tally: &mut Tally) -> Vec<Metric> {
    let (setup, warm) = setup_samples(w, tally);
    let scorer = match warm.scorer(w.grid, w.kernels, None) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("{}: scorer: {e}", w.name));
            return Vec::new();
        }
    };
    // Scoring's kernels and spectra are set-up, not scoring time.
    // The uncorrected targets, scored as masks: the reference for the
    // PV-band ratio (and the warm-up of scoring's own set-up).
    let mut uncorrected = Quality::default();
    for case in &w.cases {
        uncorrected.score(&scorer, case, &case.target);
    }
    crate::rss::reset_peak();

    let (submissions, fresh_engine_per_pass) = match w.mode {
        Mode::Flat(_) => (1, false),
        Mode::Tiled { submissions, .. } => (submissions, true),
    };
    let started = Instant::now();
    let mut pass_walls = Vec::new();
    let mut job_walls = Vec::new();
    let mut first_pass: Option<Quality> = None;
    loop {
        let pass_started = Instant::now();
        let engine = if fresh_engine_per_pass {
            cold_engine()
        } else {
            warm.clone()
        };
        let mut quality = Quality::default();
        for case in &w.cases {
            let spec = w.spec(case);
            for s in 0..submissions {
                let label = format!("{} {} #{s}", w.name, case.name);
                if let Some((wall, outcome)) = run_job(&engine, &spec, &label, tally) {
                    job_walls.push(wall);
                    quality.score(&scorer, case, outcome.mask());
                }
            }
        }
        if w.empty_probe {
            let label = format!("{} empty-target probe", w.name);
            expect_empty_target_error(&engine, &w.empty_spec(), &label, tally);
        }
        let wall = pass_started.elapsed().as_secs_f64();
        pass_walls.push(wall);
        first_pass.get_or_insert(quality);
        let elapsed = started.elapsed().as_secs_f64();
        if pass_walls.len() >= repeats && elapsed + wall > seconds {
            break;
        }
    }
    let q = first_pass.unwrap_or_default();
    vec![
        metric("wall_s", "s", median(&pass_walls)),
        metric("job_s_p50", "s", median(&job_walls)),
        metric("setup_s", "s", median(&setup)),
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: crate::rss::peak_mb(),
        },
        metric("pvb_ratio", "ratio", q.pvb_nm2 / uncorrected.pvb_nm2),
        metric(
            "epe_pass_frac",
            "ratio",
            1.0 - q.epe_violations as f64 / q.epe_probes as f64,
        ),
    ]
}
