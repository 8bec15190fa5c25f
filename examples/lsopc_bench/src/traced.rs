//! The traced pass: per-layer numbers, measured from outside by timing
//! calls into each layer's public functions. Every traced solve is also
//! checked to give exactly the mask that `Engine::submit` gives for the
//! same job (the tracing only observes).

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use lsopc_core::{LevelSetIlt, RunControl, TiledStats};
use lsopc_engine::{pixel_nm, Engine, JobDetail, JobOutcome, JobSpec, Scorer, Tiling};
use lsopc_grid::{Complex, Grid, Scalar};
use lsopc_levelset::{
    cfl_time_step, evolve, godunov_gradient, mask_from_levelset, reinitialize, signed_distance,
};
use lsopc_litho::{cost_and_gradient, AcceleratedBackend, LithoSimulator, SimBackend, SimCaches};
use lsopc_optics::OpticsConfig;
use lsopc_parallel::ParallelContext;

use crate::measure::{panic_text, run_job};
use crate::report::{median, metric, Metric, Tally};
use crate::timed::{CallLog, TimedBackend};
use crate::workload::{Case, Mode, Workload};

/// Direct calls per level-set and FFT timing; each reports the median.
const MICRO_CALLS: usize = 10;
/// Aerial+gradient pairs per side of the thread-speed-up probe.
const SPEEDUP_PAIRS: usize = 5;

/// Per-job and per-call samples gathered over the traced pass.
#[derive(Default)]
struct Samples {
    aerial_calls: Vec<f64>,
    aerial_s: Vec<f64>,
    aerial_each: Vec<f64>,
    gradient_calls: Vec<f64>,
    gradient_s: Vec<f64>,
    gradient_each: Vec<f64>,
    optimize_s: Vec<f64>,
    iterations: Vec<f64>,
    evaluate_each: Vec<f64>,
    metrics_overhead_pct: Vec<f64>,
    trace_overhead_pct: Vec<f64>,
    cold_submit_s: f64,
    warm_submit_s: Vec<f64>,
    /// Summed over the tiled pass's submissions.
    tiles: TiledStats,
    micro: Micro,
}

/// Layer timings from direct calls on one job's own fields.
#[derive(Default)]
struct Micro {
    sdf_ms: f64,
    reinit_ms: f64,
    evolve_ms: f64,
    c2c_ms: f64,
    rfft_ms: f64,
    gflops: f64,
}

/// One solve through a simulator carrying the timed backend.
struct Solve {
    mask: Grid<f64>,
    optimize_s: f64,
    iterations: usize,
}

impl Samples {
    /// Records one traced solve together with its backend call log.
    fn record(&mut self, solve: &Solve, (aerial, gradient): (Vec<f64>, Vec<f64>)) {
        self.aerial_calls.push(aerial.len() as f64);
        self.aerial_s.push(aerial.iter().sum());
        self.gradient_calls.push(gradient.len() as f64);
        self.gradient_s.push(gradient.iter().sum());
        self.aerial_each.extend(aerial);
        self.gradient_each.extend(gradient);
        self.optimize_s.push(solve.optimize_s);
        self.iterations.push(solve.iterations as f64);
    }

    fn metrics(&self, backend_speedup: Option<f64>) -> Vec<Metric> {
        // Per-job backend share and loop time, paired job by job.
        let backend: Vec<f64> = self
            .aerial_s
            .iter()
            .zip(&self.gradient_s)
            .map(|(a, g)| a + g)
            .collect();
        let share: Vec<f64> = backend
            .iter()
            .zip(&self.optimize_s)
            .map(|(b, o)| b / o)
            .collect();
        let loop_s: Vec<f64> = backend
            .iter()
            .zip(&self.optimize_s)
            .map(|(b, o)| o - b)
            .collect();
        let evaluate_mean =
            self.evaluate_each.iter().sum::<f64>() / self.evaluate_each.len() as f64;
        let t = &self.tiles;
        let m = &self.micro;
        vec![
            metric("litho.aerial.calls", "count", median(&self.aerial_calls)),
            metric("litho.aerial.s", "s", median(&self.aerial_s)),
            metric("litho.aerial.p50_ms", "ms", median(&self.aerial_each) * 1e3),
            metric(
                "litho.gradient.calls",
                "count",
                median(&self.gradient_calls),
            ),
            metric("litho.gradient.s", "s", median(&self.gradient_s)),
            metric(
                "litho.gradient.p50_ms",
                "ms",
                median(&self.gradient_each) * 1e3,
            ),
            metric("litho.backend_share", "ratio", median(&share)),
            metric("core.optimize.s", "s", median(&self.optimize_s)),
            metric("core.iterations", "count", median(&self.iterations)),
            metric("core.evals", "count", median(&self.aerial_calls) / 3.0),
            metric("core.loop_s", "s", median(&loop_s)),
            metric("levelset.sdf_ms", "ms", m.sdf_ms),
            metric("levelset.reinit_ms", "ms", m.reinit_ms),
            metric("levelset.evolve_ms", "ms", m.evolve_ms),
            metric("fft.c2c_ms", "ms", m.c2c_ms),
            metric("fft.rfft_ms", "ms", m.rfft_ms),
            metric("fft.gflops", "GFLOP/s", m.gflops),
            metric("metrics.evaluate.s", "s", evaluate_mean),
            metric(
                "metrics.evaluate.p50_ms",
                "ms",
                median(&self.evaluate_each) * 1e3,
            ),
            metric("tiles.count", "count", t.tiles as f64),
            metric("tiles.cold", "count", t.cold as f64),
            metric(
                "tiles.warm_ratio",
                "ratio",
                if t.tiles == 0 {
                    0.0
                } else {
                    t.warm as f64 / t.tiles as f64
                },
            ),
            metric("tiles.full_iterations", "count", t.full_iterations() as f64),
            metric("engine.cold_submit_s", "s", self.cold_submit_s),
            metric("engine.warm_submit_s", "s", median(&self.warm_submit_s)),
            Metric {
                name: "parallel.backend_speedup",
                unit: "x",
                value: backend_speedup,
            },
            metric(
                "trace.job_metrics_overhead_pct",
                "%",
                median(&self.metrics_overhead_pct),
            ),
            metric(
                "bench.trace_overhead_pct",
                "%",
                median(&self.trace_overhead_pct),
            ),
        ]
    }
}

fn same_bits(a: &Grid<f64>, b: &Grid<f64>) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The optimizer exactly as the engine configures it for `spec`.
fn engine_ilt(spec: &JobSpec) -> LevelSetIlt {
    LevelSetIlt::builder()
        .max_iterations(spec.iterations)
        .pvb_weight(spec.pvb_weight)
        .recovery(spec.recovery)
        .schedule(None)
        .build()
}

/// A simulator built the way the engine (flat) or the tiled optimizer
/// builds one, around `backend`, with its corner kernels generated.
fn simulator<T: Scalar>(
    w: &Workload,
    backend: Box<dyn SimBackend<T>>,
    caches: &SimCaches,
) -> Result<LithoSimulator<T>, String> {
    let optics = OpticsConfig::iccad2013().with_kernel_count(w.kernels);
    let sim = LithoSimulator::<T>::from_optics(&optics, w.solve_px(), pixel_nm(w.grid))
        .map_err(|e| e.to_string())?
        .with_backend(backend)
        .with_caches(caches.clone());
    let corners = sim.corners();
    for c in [corners.nominal, corners.inner, corners.outer] {
        let _ = sim.kernels_for(c.defocus_nm);
    }
    Ok(sim)
}

/// Optimizes `target` on `sim` with the engine's optimizer settings.
fn solve<T: Scalar>(
    sim: &LithoSimulator<T>,
    spec: &JobSpec,
    target: &Grid<f64>,
) -> Result<(Solve, Grid<T>), String> {
    let target = target.map(|&v| T::from_f64(v));
    let ilt = engine_ilt(spec);
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        ilt.optimize_controlled(sim, &target, &RunControl::new())
    }));
    let optimize_s = started.elapsed().as_secs_f64();
    match result {
        Ok(Ok(r)) => Ok((
            Solve {
                mask: r.mask.map(|&v| v.to_f64()),
                optimize_s,
                iterations: r.iterations,
            },
            r.levelset,
        )),
        Ok(Err(e)) => Err(format!("optimize error: {e}")),
        Err(p) => Err(format!("panic: {}", panic_text(p.as_ref()))),
    }
}

/// Median wall time of `calls` runs of `f` (after one untimed warm-up),
/// in ms; `prepare` builds each call's input outside the timed region.
fn median_ms<I>(calls: usize, mut prepare: impl FnMut() -> I, mut f: impl FnMut(I)) -> f64 {
    f(prepare());
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let input = prepare();
            let started = Instant::now();
            f(input);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Level-set and FFT timings on one job's target, final ψ and a velocity
/// field built the way the optimizer builds one.
fn micro<T: Scalar>(
    sim: &LithoSimulator<T>,
    caches: &SimCaches,
    target: &Grid<T>,
    psi: &Grid<T>,
) -> Micro {
    let mask = mask_from_levelset(psi);
    let (_, gradient) = cost_and_gradient(sim, &mask, target, 1.0);
    let velocity = gradient.zip_map(&godunov_gradient(psi, &gradient), |&g, &m| g * m);
    let dt = cfl_time_step(&velocity, 1.0);

    let n = target.width();
    let plan = caches.plan_t::<T>(n, n);
    let rplan = caches.rplan_t::<T>(n, n);
    let spectrum_in = target.map(|&v| Complex::new(v, T::ZERO));
    let c2c_ms = median_ms(
        MICRO_CALLS,
        || spectrum_in.clone(),
        |mut g| {
            plan.forward(&mut g);
            black_box(g);
        },
    );
    let points = (n * n) as f64;
    Micro {
        sdf_ms: median_ms(
            MICRO_CALLS,
            || (),
            |()| {
                black_box(signed_distance(target));
            },
        ),
        reinit_ms: median_ms(
            MICRO_CALLS,
            || (),
            |()| {
                black_box(reinitialize(psi));
            },
        ),
        evolve_ms: median_ms(
            MICRO_CALLS,
            || psi.clone(),
            |mut p| {
                evolve(&mut p, &velocity, dt);
                black_box(p);
            },
        ),
        c2c_ms,
        rfft_ms: median_ms(
            MICRO_CALLS,
            || (),
            |()| {
                black_box(rplan.forward(target));
            },
        ),
        // Computed, not counted: the radix-2 estimate 5·N·log₂N flops
        // for N = n² points.
        gflops: 5.0 * points * points.log2() / (c2c_ms * 1e-3) / 1e9,
    }
}

/// Median ms of one aerial+gradient pair of the accelerated backend as
/// the engine builds it — on every lane of this process's pool — at the
/// workload's solve grid and precision.
fn backend_ms<T: Scalar>(w: &Workload) -> Result<f64, String> {
    let lanes = ParallelContext::global().threads();
    let sim = simulator::<T>(
        w,
        Box::new(AcceleratedBackend::new(lanes)),
        &SimCaches::private(),
    )?;
    let mask = solve_target(w).map(|&v| T::from_f64(v));
    let kernels = sim.kernels_for(sim.corners().nominal.defocus_nm);
    // The gradient's cost does not depend on the sensitivity's values.
    Ok(median_ms(
        SPEEDUP_PAIRS,
        || (),
        |()| {
            black_box(sim.backend().aerial_image(&kernels, &mask));
            black_box(sim.backend().gradient(&kernels, &mask, &mask));
        },
    ))
}

/// The child side of the thread-speed-up probe: a process whose pool
/// has `lanes` lanes prints [`backend_ms`] for `w`. The pool is sized once
/// per process, so each lane count needs a process of its own.
pub fn speedup_probe_main(w: &Workload, lanes: usize) -> Result<f64, String> {
    lsopc_parallel::init_global_threads(lanes);
    if w.is_f32() {
        backend_ms::<f32>(w)
    } else {
        backend_ms::<f64>(w)
    }
}

/// `parallel.backend_speedup`: the backend's aerial+gradient time on one
/// lane over its time on every hardware lane, each measured in a child
/// process (waited for) whatever `--threads` this run uses; unmeasured
/// (`None`) on a one-lane host.
fn probe_speedup(w: &Workload) -> Result<Option<f64>, String> {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    if hardware < 2 {
        return Ok(None);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let time = |lanes: usize| -> Result<f64, String> {
        let mut child = std::process::Command::new(&exe);
        child.arg("speedup-probe");
        child.args(["--workload", w.name, "--seed", &w.seed.to_string()]);
        child.args(["--threads", &lanes.to_string()]);
        if w.quick {
            child.arg("--quick");
        }
        let out = child.output().map_err(|e| format!("speed-up probe: {e}"))?;
        match String::from_utf8_lossy(&out.stdout).trim().parse() {
            Ok(ms) if out.status.success() => Ok(ms),
            _ => Err(format!(
                "speed-up probe exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )),
        }
    };
    Ok(Some(time(1)? / time(hardware)?))
}

/// The target of the first solve: the first case, or on the tiled
/// workload its first tile window, extracted as the tiled optimizer does.
fn solve_target(w: &Workload) -> Grid<f64> {
    let target = &w.cases[0].target;
    let Mode::Tiled { tiling, .. } = &w.mode else {
        return target.clone();
    };
    let (window, halo) = (tiling.window(), tiling.halo());
    Grid::from_fn(window, window, |x, y| {
        match (x.checked_sub(halo), y.checked_sub(halo)) {
            (Some(gx), Some(gy)) if gx < w.grid && gy < w.grid => target[(gx, gy)],
            _ => 0.0,
        }
    })
}

/// Runs the traced pass for `w` for about `seconds`.
pub fn traced(w: &Workload, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let result = match &w.mode {
        Mode::Flat(_) if w.is_f32() => flat::<f32>(w, seconds, tally),
        Mode::Flat(_) => flat::<f64>(w, seconds, tally),
        Mode::Tiled { tiling, .. } => tiled(w, *tiling, tally),
    };
    let speedup = probe_speedup(w);
    match (result, speedup) {
        (Ok(samples), Ok(speedup)) => samples.metrics(speedup),
        (Err(e), _) | (_, Err(e)) => {
            tally.fail(format!("{} traced pass: {e}", w.name));
            Vec::new()
        }
    }
}

/// Times `Scorer::evaluate` on one mask.
fn score_timed(s: &mut Samples, scorer: &Scorer, case: &Case, mask: &Grid<f64>) {
    let started = Instant::now();
    black_box(scorer.evaluate(mask, &case.layout, &case.target));
    s.evaluate_each.push(started.elapsed().as_secs_f64());
}

/// The same job with `collect_metrics` on: its mask must match the
/// untraced one, and its wall time gives the collection overhead.
fn metrics_on(
    s: &mut Samples,
    engine: &Engine,
    spec: &JobSpec,
    untraced: (f64, &JobOutcome),
    label: &str,
    tally: &mut Tally,
) {
    let mut on = spec.clone();
    on.collect_metrics = true;
    if let Some((wall, outcome)) = run_job(engine, &on, label, tally) {
        if !same_bits(outcome.mask(), untraced.1.mask()) {
            tally.fail(format!("{label}: mask changed with metrics collection on"));
        }
        s.metrics_overhead_pct
            .push((wall / untraced.0 - 1.0) * 100.0);
    }
}

fn flat<T: Scalar>(w: &Workload, seconds: f64, tally: &mut Tally) -> Result<Samples, String> {
    let caches = SimCaches::private();
    let engine = Engine::builder().caches(caches.clone()).build();
    let lanes = engine.pool_threads();
    let mut s = Samples::default();

    // The first submission on the fresh engine builds its simulator.
    let case0 = &w.cases[0];
    let label0 = format!("{} {} cold", w.name, case0.name);
    let (cold_s, cold) =
        run_job(&engine, &w.spec(case0), &label0, tally).ok_or("cold job failed")?;
    s.cold_submit_s = cold_s;
    let scorer = engine
        .scorer(w.grid, w.kernels, None)
        .map_err(|e| e.to_string())?;
    let _ = scorer.evaluate(&case0.target, &case0.layout, &case0.target);

    let log = Arc::new(CallLog::default());
    let timed_backend = TimedBackend::new(AcceleratedBackend::new(lanes), log.clone());
    let sim = simulator::<T>(w, Box::new(timed_backend), &caches)?;

    // Cycle through the cases while another cycle, as long as the last
    // one, still ends within `seconds`.
    let started = Instant::now();
    let mut cycle_s = 0.0;
    for (j, case) in w.cases.iter().cycle().enumerate() {
        if j > 0 && started.elapsed().as_secs_f64() + cycle_s > seconds {
            break;
        }
        let cycle = Instant::now();
        let spec = w.spec(case);
        let label = format!("{} {} traced #{j}", w.name, case.name);
        let Some((off_s, off)) = run_job(&engine, &spec, &label, tally) else {
            continue;
        };
        s.warm_submit_s.push(off_s);
        if j == 0 && !same_bits(cold.mask(), off.mask()) {
            tally.fail(format!("{label}: cold and warm submissions differ"));
        }

        tally.attempted += 1;
        log.take();
        match solve(&sim, &spec, &case.target) {
            Ok((traced, psi)) => {
                if !same_bits(&traced.mask, off.mask()) {
                    tally.fail(format!("{label}: traced mask differs from Engine::submit"));
                }
                s.trace_overhead_pct
                    .push((traced.optimize_s / off_s - 1.0) * 100.0);
                s.record(&traced, log.take());
                if j == 0 {
                    let target = case.target.map(|&v| T::from_f64(v));
                    s.micro = micro(&sim, &caches, &target, &psi);
                    log.take();
                }
            }
            Err(e) => tally.fail(format!("{label}: {e}")),
        }
        metrics_on(&mut s, &engine, &spec, (off_s, &off), &label, tally);
        score_timed(&mut s, &scorer, case, off.mask());
        cycle_s = cycle.elapsed().as_secs_f64();
    }
    Ok(s)
}

fn tiled(w: &Workload, tiling: Tiling, tally: &mut Tally) -> Result<Samples, String> {
    let caches = SimCaches::private();
    let engine = Engine::builder().caches(caches.clone()).build();
    let mut s = Samples::default();
    let case = &w.cases[0];
    let spec = w.spec(case);
    let Mode::Tiled { submissions, .. } = w.mode else {
        unreachable!("tiled workload")
    };

    // One pass as the untraced loop runs it: the first submission finds
    // the warm-start cache empty, the later ones find it filled.
    let mut outcomes = Vec::new();
    for i in 0..submissions {
        let label = format!("{} {} traced #{i}", w.name, case.name);
        let (wall, outcome) = run_job(&engine, &spec, &label, tally).ok_or("tiled job failed")?;
        if let JobDetail::Tiled { stats, .. } = &outcome.detail {
            s.tiles.tiles += stats.tiles;
            s.tiles.cold += stats.cold;
            s.tiles.warm += stats.warm;
            s.tiles.cold_full_iterations += stats.cold_full_iterations;
            s.tiles.warm_full_iterations += stats.warm_full_iterations;
        }
        if i == 0 {
            s.cold_submit_s = wall;
        } else {
            s.warm_submit_s.push(wall);
        }
        outcomes.push((wall, outcome));
    }
    let scorer = engine
        .scorer(w.grid, w.kernels, None)
        .map_err(|e| e.to_string())?;
    let _ = scorer.evaluate(&case.target, &case.layout, &case.target);
    for (_, outcome) in &outcomes {
        score_timed(&mut s, &scorer, case, outcome.mask());
    }
    let (last_s, last) = outcomes.last().ok_or("no submissions")?;
    let label = format!("{} {} metrics", w.name, case.name);
    metrics_on(&mut s, &engine, &spec, (*last_s, last), &label, tally);

    // The first tile solves cold, on a serial simulator of the tile
    // window, as the tiled optimizer runs it; its core must match the
    // first submission's stitched mask.
    let halo = tiling.halo();
    let tile = solve_target(w);
    let label = format!("{} {} tile 0", w.name, case.name);
    let log = Arc::new(CallLog::default());
    let timed = simulator::<f64>(
        w,
        Box::new(TimedBackend::new(AcceleratedBackend::new(1), log.clone())),
        &caches,
    )?;
    let plain = simulator::<f64>(w, Box::new(AcceleratedBackend::new(1)), &caches)?;
    tally.attempted += 1;
    let (untraced, _) = solve(&plain, &spec, &tile)?;
    log.take();
    let (traced, psi) = solve(&timed, &spec, &tile)?;
    let stitched = outcomes[0]
        .1
        .mask()
        .window(0, 0, tiling.core(), tiling.core());
    let core = traced.mask.window(halo, halo, tiling.core(), tiling.core());
    if !same_bits(&traced.mask, &untraced.mask) || !same_bits(&core, &stitched) {
        tally.fail(format!(
            "{label}: traced tile mask differs from the untraced one"
        ));
    }
    s.trace_overhead_pct
        .push((traced.optimize_s / untraced.optimize_s - 1.0) * 100.0);
    s.record(&traced, log.take());
    s.micro = micro(&timed, &caches, &tile, &psi);
    Ok(s)
}
