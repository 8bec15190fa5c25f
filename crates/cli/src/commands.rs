//! The CLI subcommands: parse flags, call the engine, render results.
//!
//! The job pipeline itself (simulator construction, caches, precision
//! variants, tiling, run control) lives in `lsopc-engine`; this module
//! only resolves flags into a [`lsopc_engine::JobSpec`] (see
//! [`crate::spec`]), submits it, and prints the same lines the
//! pre-engine CLI printed.

use crate::args::Flags;
use crate::error::CliError;
use crate::spec::{self, SpecDefaults};
use lsopc_benchsuite::Iccad2013Suite;
use lsopc_core::{RunControl, StopReason};
use lsopc_engine::{JobDetail, Scorer};
use lsopc_geometry::{
    mask_to_polygons, parse_glp, polygons_to_layout, rasterize, write_glp, Layout,
};
use lsopc_grid::Grid;
use lsopc_metrics::{render_report, MaskComplexity, MrcReport};
use lsopc_trace::{FanoutSink, JsonlSink, MetricsRegistry, TraceSink};
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-level usage text.
pub const USAGE: &str = "\
lsopc — level-set inverse lithography mask optimization

USAGE:
  lsopc optimize --glp <design.glp> --out <mask.glp>
                 [--grid 512] [--iters 30] [--kernels 24] [--pvb-weight 1.0]
                 [--threads N] [--recover on|off|strict] [--precision f64|f32]
                 [--schedule auto|off|CPX,K,CI,FI]
                 [--tile N] [--halo N] [--warm-start mem|<dir>] [--warm-iters N]
                 [--deadline SECS] [--max-wall SECS] [--iter-budget N]
                 [--checkpoint <path>] [--checkpoint-every N] [--resume <path>]
                 [--trace <out.jsonl>] [--metrics <out.json>]
  lsopc evaluate --glp <design.glp> --mask <mask.glp>
                 [--grid 512] [--kernels 24] [--threads N]
  lsopc report   --glp <design.glp> --mask <mask.glp>
                 [--grid 512] [--kernels 24] [--min-width-nm 40] [--min-space-nm 40]
                 [--threads N]
  lsopc suite    [--cases 1,2,...] [--grid 256] [--iters 20] [--kernels 24]
                 [--pvb-weight 1.0] [--threads N] [--recover on|off|strict]
                 [--precision f64|f32] [--schedule auto|off|CPX,K,CI,FI]
                 [--deadline SECS] [--max-wall SECS]
                 [--trace <out.jsonl>] [--metrics <out.json>]
  lsopc profile  [--pattern wire|dense|contacts] [--grid 256] [--iters 10]
                 [--kernels 24] [--pvb-weight 1.0] [--threads N]
                 [--recover on|off|strict] [--precision f64|f32]
                 [--schedule auto|off|CPX,K,CI,FI] [--json]
                 [--trace <out.jsonl>] [--metrics <out.json>]
  lsopc analyze  <trace.jsonl>
  lsopc help

The field is 2048nm; --grid sets the pixels per side (power of two).
A flag a command does not take is a usage error naming the flag.
--threads sizes the shared worker pool (default: LSOPC_THREADS if set,
otherwise the machine's available cores).
--recover controls the solver health guard (default on): `on` rolls back
to the last healthy checkpoint and halves the step on numerical trouble,
`strict` turns an exhausted guard into a hard error, `off` disables it.
--precision picks the arithmetic for the optimization loop (default f64):
`f32` runs fields and transforms in single precision (the paper's GPU
arithmetic, reproduced on CPU). Scoring and reporting always run at f64
(see DESIGN.md §11). Every precision takes the mask spectrum through the
real-input half-spectrum FFT (DESIGN.md §13).
--schedule runs the early iterations on a coarse grid with a reduced
kernel set, then upsamples ψ and refines at full resolution (DESIGN.md
§14). `auto` (also a bare --schedule) derives the stages from the grid
and --iters, falling back to a flat run when no coarser grid holds the
optical band; COARSE_PX,KERNELS,COARSE_ITERS,FINE_ITERS pins them. The
default `off` keeps the historical flat loop bit-for-bit.
--tile cuts the field into N×N-pixel cores with --halo pixels of optical
context on each side (default half the core; core + 2·halo must be a
power of two) and optimizes the tiles concurrently; tiled runs use f64.
--warm-start (tiled runs only) caches each solved tile's ψ under a
translation-invariant content fingerprint — `mem` holds it for this
process, a directory path persists it across runs — so repeated tile
patterns skip the cold solve and run a short refinement (--warm-iters,
default a quarter of --iters).
Runs stop gracefully instead of erroring: on Ctrl-C (SIGINT), an
expired --deadline (seconds for each optimization) or --max-wall
(seconds for the whole command; in `suite`, remaining cases are
skipped), or an exhausted --iter-budget, the optimizer finishes the
current iteration, keeps its best-so-far mask, writes the output and
prints one `stopped: <reason>` line. Only a SIGINT stop changes the
exit code (8); deadline/budget stops exit 0.
--checkpoint persists the optimizer loop state to the given file every
--checkpoint-every iterations (default 10; at 1024² with 24 kernels one
write costs 2.4–2.6% of the ten iterations it follows, DESIGN.md §15)
and on every graceful stop,
via an atomic temp-file + rename — a crash never corrupts the previous
checkpoint. With --tile the path is a directory holding one file per
completed tile. --resume restarts from such a checkpoint; the resumed
run is bit-identical to an uninterrupted one at the default f64
precision (DESIGN.md §15). A corrupt, truncated or
configuration-mismatched checkpoint is a categorized error (exit 9),
never a crash.
--trace streams every span/counter/iteration/warning event to the given
file, one JSON object per line (event schema v1, see DESIGN.md §12); a
failed write is an I/O error (exit 3) naming the file. --metrics writes
the run's metrics report as one JSON document when the run finishes:
per-span calls, total and self time and p50/p90/p99 latency, counter
totals, gauges, cache hit ratios, the convergence summary, the stop
reason and warnings (DESIGN.md §17). `profile` optimizes a built-in
synthetic pattern and prints the same report as text, the span tree
sorted by path under one header line; with --json it prints the
document --metrics would write instead. `analyze` replays a --trace
JSONL file into the same report — for an untiled run it equals the
--metrics document — and adds anomaly flags (tail latency, cache-hit
collapse, guard events, early stops).

EXIT CODES:
  0 success    2 usage    3 I/O    4 layout parse
  5 simulator setup    6 optimizer    7 strict recovery failure
  8 interrupted (SIGINT, best-so-far mask written)    9 checkpoint/resume";

/// How a successful command ended; decides the process exit code.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The command ran to completion (exit 0) — including graceful
    /// deadline/budget stops, which still produce a usable mask.
    Completed,
    /// A SIGINT stopped the run early; the best-so-far output was still
    /// written (exit 8, so scripts can tell a complete mask from an
    /// interrupted one).
    Interrupted,
}

/// The exit outcome for an optimization that may have been stopped.
fn outcome_for(stopped: Option<StopReason>) -> Outcome {
    if stopped == Some(StopReason::Signal) {
        Outcome::Interrupted
    } else {
        Outcome::Completed
    }
}

type CliResult = Result<Outcome, CliError>;

/// Flags [`CommandTrace::start`] reads.
const TRACE_FLAGS: &[&str] = &["trace", "metrics"];
/// Flags [`scorer_for`] reads for the read-only commands.
const SCORER_FLAGS: &[&str] = &["grid", "kernels", "threads"];

// Flag-parsing errors (missing/invalid values) are usage errors.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

/// Sinks built for one command run, per `--trace` / `--metrics`.
///
/// The sinks are *scoped*, not installed process-globally: events
/// emitted while [`CommandTrace::run`] executes the command body —
/// including on pool workers doing its chunks — are delivered to this
/// command's sinks without disturbing any other trace consumer in the
/// process.
struct CommandTrace {
    /// `--trace`: the path and its event stream.
    jsonl: Option<(String, Arc<JsonlSink<BufWriter<File>>>)>,
    /// The aggregate `--metrics` writes (and `profile` prints).
    registry: Option<Arc<MetricsRegistry>>,
    metrics_path: Option<String>,
}

impl CommandTrace {
    /// Builds the sinks the flags ask for (none when neither `--trace`
    /// nor `--metrics` is present). `registry` is the aggregate the
    /// caller wants fed even without `--metrics`.
    fn start(flags: &Flags, registry: Option<Arc<MetricsRegistry>>) -> Result<Self, CliError> {
        let jsonl = match flags.get("trace").filter(|v| !v.is_empty()) {
            Some(path) => {
                let sink = JsonlSink::create(std::path::Path::new(path))
                    .map_err(|e| CliError::io(format!("cannot create {path}: {e}")))?;
                Some((path.to_string(), Arc::new(sink)))
            }
            None => None,
        };
        let metrics_path = flags.get("metrics").filter(|v| !v.is_empty());
        let registry = registry.or_else(|| metrics_path.map(|_| Arc::new(MetricsRegistry::new())));
        Ok(Self {
            jsonl,
            registry,
            metrics_path: metrics_path.map(str::to_string),
        })
    }

    /// Runs the command body with the sinks scoped in, then flushes the
    /// event stream and writes the `--metrics` document. The command's
    /// own error wins over a teardown failure.
    fn run<R>(self, f: impl FnOnce() -> Result<R, CliError>) -> Result<R, CliError> {
        let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
        if let Some((_, jsonl)) = &self.jsonl {
            sinks.push(jsonl.clone());
        }
        if let Some(registry) = &self.registry {
            sinks.push(registry.clone());
        }
        let outcome = if sinks.is_empty() {
            f()
        } else {
            lsopc_trace::with_scoped_sink(Arc::new(FanoutSink::new(sinks)), f)
        };
        let teardown = self.finish();
        outcome.and_then(|o| teardown.map(|()| o))
    }

    /// Flushes `--trace` and reports its first write error, then writes
    /// the `--metrics` document.
    fn finish(self) -> Result<(), CliError> {
        if let Some((path, jsonl)) = &self.jsonl {
            jsonl.flush();
            if let Some(e) = jsonl.take_error() {
                return Err(CliError::io(format!("cannot write {path}: {e}")));
            }
        }
        if let (Some(registry), Some(path)) = (&self.registry, &self.metrics_path) {
            std::fs::write(path, registry.report().to_json())
                .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))?;
        }
        Ok(())
    }
}

fn load_layout(path: &str) -> Result<Layout, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    parse_glp(&text).map_err(|e| CliError::parse(format!("{path}: {e}")))
}

/// `lsopc optimize`: design in, optimized mask out.
pub fn optimize(args: &[String]) -> CliResult {
    let flags = Flags::parse(args)?.accepting(
        "optimize",
        &[
            &["glp", "out"],
            spec::SPEC_FLAGS,
            spec::TILING_FLAGS,
            spec::LIFECYCLE_FLAGS,
            TRACE_FLAGS,
        ],
    )?;
    CommandTrace::start(&flags, None)?.run(|| optimize_run(&flags))
}

fn optimize_run(flags: &Flags) -> CliResult {
    // Validate all flags before touching the filesystem so misuse is
    // reported as such even when the input path is also bad.
    let glp_path = flags.require("glp")?.to_string();
    let out_path = flags.require("out")?.to_string();
    let resolved = spec::resolve_spec(
        flags,
        SpecDefaults {
            grid: 512,
            iters: 30,
        },
    )?;
    let control = spec::run_control_flags(flags)?;

    let design = load_layout(&glp_path)?;
    let engine = spec::engine_for(flags)?;
    let scorer = engine
        .scorer(resolved.grid, resolved.kernels, None)
        .map_err(CliError::from_engine)?;
    let (grid, pixel_nm) = (resolved.grid, lsopc_engine::pixel_nm(resolved.grid));

    let target = rasterize(&design, grid, grid, pixel_nm);
    eprintln!(
        "optimizing {} shapes at {grid}px ({pixel_nm} nm/px), {} iterations…",
        design.len(),
        resolved.iters
    );

    let job = resolved.job(target.clone(), control);
    let outcome = engine.submit(&job).map_err(CliError::from_engine)?;
    match &outcome.detail {
        JobDetail::Tiled { mask, stats } => {
            let runtime_s = outcome.runtime_s;
            if let Some(reason) = stats.stopped {
                println!(
                    "stopped: {reason} ({} of {} tiles unfinished; best-so-far mask kept)",
                    stats.unfinished,
                    stats.tiles + stats.unfinished
                );
            }
            println!(
                "done in {runtime_s:.2}s / {} tiles ({} cold, {} warm, {} resumed), \
                 {} full-res iterations (+{} coarse)",
                stats.tiles,
                stats.cold,
                stats.warm,
                stats.resumed,
                stats.full_iterations(),
                stats.coarse_iterations
            );
            write_and_score_mask(&scorer, &design, &target, mask, &out_path, runtime_s)?;
            Ok(outcome_for(stats.stopped))
        }
        JobDetail::Flat(result) => {
            if result.diagnostics.has_events() {
                eprintln!(
                    "recovery: {} backoffs, {} recoveries{}",
                    result.diagnostics.backoffs,
                    result.diagnostics.recoveries,
                    if result.diagnostics.gave_up {
                        " (guard gave up; kept best healthy iterate)"
                    } else {
                        ""
                    }
                );
            }
            if let Some(reason) = result.stopped {
                println!(
                    "stopped: {reason} (after {} iterations; best-so-far mask kept)",
                    result.iterations
                );
            }
            match result.history.first() {
                Some(first) => println!(
                    "done in {:.2}s / {} iterations (cost {:.1} -> {:.1})",
                    result.runtime_s,
                    result.iterations,
                    first.cost_total,
                    result.final_cost()
                ),
                // A deadline/cancel can stop the run before any iteration
                // completes; there is no cost pair to report.
                None => println!(
                    "done in {:.2}s / 0 iterations (no cost evaluated)",
                    result.runtime_s
                ),
            }
            write_and_score_mask(
                &scorer,
                &design,
                &target,
                &result.mask,
                &out_path,
                result.runtime_s,
            )?;
            Ok(outcome_for(result.stopped))
        }
    }
}

/// Writes the optimized mask as GLP and prints the quality summary
/// shared by the flat and tiled paths.
fn write_and_score_mask(
    scorer: &Scorer,
    design: &Layout,
    target: &Grid<f64>,
    mask: &Grid<f64>,
    out_path: &str,
    runtime_s: f64,
) -> Result<(), CliError> {
    let polygons = mask_to_polygons(mask, scorer.pixel_nm());
    let mut mask_layout = polygons_to_layout(&polygons);
    mask_layout.name = design.name.clone().map(|n| format!("{n}_opc"));
    std::fs::write(out_path, write_glp(&mask_layout))
        .map_err(|e| CliError::io(format!("cannot write {out_path}: {e}")))?;

    let eval = scorer.evaluate(mask, design, target);
    let complexity = MaskComplexity::measure(mask);
    println!(
        "#EPE {}  PVB {:.0} nm²  shapes {}  score {:.0}",
        eval.epe.violations,
        eval.pvb_area_nm2,
        eval.shapes.total(),
        eval.score(runtime_s).value()
    );
    println!(
        "mask: {} polygons, jaggedness {:.2} -> {out_path}",
        mask_layout.len(),
        complexity.jaggedness
    );
    Ok(())
}

/// `lsopc evaluate`: score an existing mask against a design.
pub fn evaluate(args: &[String]) -> CliResult {
    let flags = Flags::parse(args)?.accepting("evaluate", &[&["glp", "mask"], SCORER_FLAGS])?;
    let design = load_layout(flags.require("glp")?)?;
    let mask_layout = load_layout(flags.require("mask")?)?;
    let (scorer, grid) = scorer_for(&flags, 512)?;
    let pixel_nm = scorer.pixel_nm();

    let target = rasterize(&design, grid, grid, pixel_nm);
    let mask = rasterize(&mask_layout, grid, grid, pixel_nm);
    let eval = scorer.evaluate(&mask, &design, &target);
    println!(
        "#EPE {} / {} probes",
        eval.epe.violations, eval.epe.total_probes
    );
    println!("PVB {:.0} nm²", eval.pvb_area_nm2);
    println!(
        "shape violations: {} (extra {}, missing {}, bridges {})",
        eval.shapes.total(),
        eval.shapes.extra,
        eval.shapes.missing,
        eval.shapes.bridges
    );
    println!("score (without runtime): {:.0}", eval.score(0.0).value());
    Ok(Outcome::Completed)
}

/// Builds the shared f64 scoring simulator for the read-only commands
/// from `--grid`/`--kernels`/`--threads`.
fn scorer_for(flags: &Flags, default_grid: usize) -> Result<(Scorer, usize), CliError> {
    let grid: usize = flags.num("grid", default_grid)?;
    let kernels: usize = flags.num("kernels", 24)?;
    let engine = spec::engine_for(flags)?;
    let scorer = engine
        .scorer(grid, kernels, None)
        .map_err(CliError::from_engine)?;
    Ok((scorer, grid))
}

/// `lsopc report`: full quality + manufacturability report for a mask.
pub fn report(args: &[String]) -> CliResult {
    let flags = Flags::parse(args)?.accepting(
        "report",
        &[
            &["glp", "mask", "min-width-nm", "min-space-nm"],
            SCORER_FLAGS,
        ],
    )?;
    let design = load_layout(flags.require("glp")?)?;
    let mask_layout = load_layout(flags.require("mask")?)?;
    let min_width_nm: f64 = flags.num("min-width-nm", 40.0)?;
    let min_space_nm: f64 = flags.num("min-space-nm", 40.0)?;
    let (scorer, grid) = scorer_for(&flags, 512)?;
    let pixel_nm = scorer.pixel_nm();

    let target = rasterize(&design, grid, grid, pixel_nm);
    let mask = rasterize(&mask_layout, grid, grid, pixel_nm);
    let eval = scorer.evaluate(&mask, &design, &target);
    let complexity = MaskComplexity::measure(&mask);
    let mrc = MrcReport::check(
        &mask,
        (min_width_nm / pixel_nm).round().max(1.0) as usize,
        (min_space_nm / pixel_nm).round().max(1.0) as usize,
    );
    let title = mask_layout.name.as_deref().unwrap_or("mask").to_string();
    print!(
        "{}",
        render_report(&title, &eval, &complexity, Some(&mrc), 0.0)
    );
    Ok(Outcome::Completed)
}

/// `lsopc suite`: run the level-set method over the built-in benchmarks.
pub fn suite(args: &[String]) -> CliResult {
    let flags = Flags::parse(args)?.accepting(
        "suite",
        &[
            &["cases", "deadline", "max-wall"],
            spec::SPEC_FLAGS,
            TRACE_FLAGS,
        ],
    )?;
    CommandTrace::start(&flags, None)?.run(|| suite_run(&flags))
}

fn suite_run(flags: &Flags) -> CliResult {
    let case_filter = flags.index_list("cases")?;
    let resolved = spec::resolve_spec(
        flags,
        SpecDefaults {
            grid: 256,
            iters: 20,
        },
    )?;
    let deadline_s = spec::secs_flag(flags, "deadline")?;
    let max_wall_s = spec::secs_flag(flags, "max-wall")?;
    let engine = spec::engine_for(flags)?;
    let scorer = engine
        .scorer(resolved.grid, resolved.kernels, None)
        .map_err(CliError::from_engine)?;
    let (grid, pixel_nm) = (resolved.grid, lsopc_engine::pixel_nm(resolved.grid));

    // --deadline bounds each case's optimization; --max-wall bounds the
    // whole command and is also checked between cases so remaining ones
    // are skipped instead of started doomed. Ctrl-C stops the current
    // case gracefully and skips the rest.
    let started = Instant::now();
    let wall_deadline = max_wall_s.map(|s| started + Duration::from_secs_f64(s));
    let token = crate::signal::interrupt_token();
    let mut stopped: Option<StopReason> = None;
    let mut skipped = 0usize;

    let suite = Iccad2013Suite::new();
    println!(
        "{:<6}{:>12}{:>8}{:>12}{:>8}{:>10}{:>12}",
        "case", "area(nm²)", "#EPE", "PVB(nm²)", "shape", "RT(s)", "score"
    );
    let mut total = 0.0;
    let mut ran = 0;
    for case in suite.cases() {
        if !case_filter.is_empty() && !case_filter.contains(&case.index) {
            continue;
        }
        if let Some(reason) = token.cancelled() {
            stopped = stopped.or(Some(reason));
            skipped += 1;
            continue;
        }
        if wall_deadline.is_some_and(|d| Instant::now() >= d) {
            stopped = stopped.or(Some(StopReason::Deadline));
            skipped += 1;
            continue;
        }
        let layout = suite.layout(case);
        let target = rasterize(&layout, grid, grid, pixel_nm);
        let mut control = RunControl::new().with_cancel(token.clone());
        let case_deadline = spec::effective_deadline(Instant::now(), deadline_s, None)
            .into_iter()
            .chain(wall_deadline)
            .min();
        if let Some(d) = case_deadline {
            control = control.with_deadline(d);
        }
        let job = resolved.job(target.clone(), control);
        let outcome = engine.submit(&job).map_err(CliError::from_engine)?;
        if let Some(reason) = outcome.stopped {
            stopped = stopped.or(Some(reason));
        }
        let eval = scorer.evaluate(outcome.mask(), &layout, &target);
        let score = eval.score(outcome.runtime_s);
        println!(
            "{:<6}{:>12}{:>8}{:>12.0}{:>8}{:>10.1}{:>12.0}{}",
            case.name,
            case.target_area_nm2,
            eval.epe.violations,
            eval.pvb_area_nm2,
            eval.shapes.total(),
            outcome.runtime_s,
            score.value(),
            if outcome.stopped.is_some() {
                "  (stopped early)"
            } else {
                ""
            }
        );
        total += score.value();
        ran += 1;
    }
    if ran > 0 {
        println!("{:<6}{:>62}{:>12.0}", "avg", "", total / ran as f64);
    }
    if let Some(reason) = stopped {
        println!(
            "stopped: {reason}{}",
            if skipped > 0 {
                format!(" ({skipped} case(s) skipped)")
            } else {
                String::new()
            }
        );
    }
    Ok(outcome_for(stopped))
}

/// One built-in synthetic design for `lsopc profile`, as GLP text so it
/// goes through the same parse/rasterize path as user layouts.
fn synthetic_layout(pattern: &str) -> Result<Layout, CliError> {
    let glp = match pattern {
        "wire" => "BEGIN\nCELL wire\nRECT 832 480 384 1088 ;\nEND\n",
        "dense" => {
            "BEGIN\nCELL dense\n\
             RECT 384 384 192 1280 ;\n\
             RECT 928 384 192 1280 ;\n\
             RECT 1472 384 192 1280 ;\nEND\n"
        }
        "contacts" => {
            "BEGIN\nCELL contacts\n\
             RECT 512 512 256 256 ;\n\
             RECT 1280 512 256 256 ;\n\
             RECT 512 1280 256 256 ;\n\
             RECT 1280 1280 256 256 ;\nEND\n"
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown --pattern `{other}` (expected wire, dense or contacts)"
            )))
        }
    };
    parse_glp(glp).map_err(|e| CliError::parse(format!("synthetic pattern {pattern}: {e}")))
}

/// `lsopc profile`: optimize a built-in synthetic pattern under a
/// metrics registry and print its report — the span tree with calls,
/// self/total time and percentiles, caches, counters and convergence.
pub fn profile(args: &[String]) -> CliResult {
    let flags = Flags::parse(args)?.accepting(
        "profile",
        &[&["pattern", "json"], spec::SPEC_FLAGS, TRACE_FLAGS],
    )?;
    let pattern = flags
        .get("pattern")
        .filter(|v| !v.is_empty())
        .unwrap_or("wire")
        .to_string();
    let resolved = spec::resolve_spec(
        &flags,
        SpecDefaults {
            grid: 256,
            iters: 10,
        },
    )?;
    let design = synthetic_layout(&pattern)?;
    let engine = spec::engine_for(&flags)?;
    let (grid, pixel_nm) = (resolved.grid, lsopc_engine::pixel_nm(resolved.grid));
    let target = rasterize(&design, grid, grid, pixel_nm);

    // The registry behind the printed report is the one --metrics
    // writes, and it sees exactly the events --trace streams.
    let registry = Arc::new(MetricsRegistry::new());
    let job = resolved.job(target, RunControl::default());
    let outcome = CommandTrace::start(&flags, Some(registry.clone()))?
        .run(|| engine.submit(&job).map_err(CliError::from_engine))?;
    let iterations = match &outcome.detail {
        JobDetail::Flat(result) => result.iterations,
        JobDetail::Tiled { stats, .. } => stats.full_iterations() + stats.coarse_iterations,
    };

    let report = registry.report();
    if flags.get("json").is_some() {
        // Machine-readable mode: the same document --metrics writes,
        // on stdout, with no human header around it.
        print!("{}", report.to_json());
    } else {
        println!(
            "profile: pattern `{pattern}`, {grid} px, K = {}, {iterations} iterations, {} threads, {:.2}s",
            resolved.kernels,
            engine.pool_threads(),
            outcome.runtime_s
        );
        print!("{}", report.render_text());
    }
    Ok(Outcome::Completed)
}

/// `lsopc analyze`: replay a schema-v1 `--trace` JSONL stream into a
/// metrics registry and print its report — the one `profile` prints
/// live — plus the parse tally and anomaly flags.
pub fn analyze(args: &[String]) -> CliResult {
    // One positional path, no flags (Flags::parse rejects positionals,
    // so the path is taken before any flag machinery).
    let [path] = args else {
        return Err(CliError::usage("usage: lsopc analyze <trace.jsonl>"));
    };
    if path.starts_with("--") {
        return Err(CliError::usage("usage: lsopc analyze <trace.jsonl>"));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    let report = lsopc_trace::analyze::analyze(&text)
        .map_err(|e| CliError::parse(format!("{path}: {e}")))?;
    if report.skipped > 0 {
        eprintln!(
            "note: skipped {} unparseable line(s) of {}",
            report.skipped,
            report.events + report.skipped
        );
    }
    print!("{}", report.render_text());
    Ok(Outcome::Completed)
}

#[cfg(test)]
#[path = "commands_tests.rs"]
mod tests;
