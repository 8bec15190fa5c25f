//! `lsopc_bench` — the benchmark of the lsopc workspace.
//!
//! It runs fixed workloads through `Engine::submit` as a closed loop: one
//! client submits the next job only after the previous outcome and its
//! score have returned. End-to-end numbers come from an untraced pass
//! (`collect_metrics = false`); a separate traced pass times each layer
//! from outside, through public functions only. See `README.md` for the
//! workloads, the metrics and the layer → end-to-end mapping.
//!
//! ```text
//! lsopc_bench [--workload NAME|all] [--seed S] [--seconds T] [--repeats R]
//!             [--trace 0|1] [--threads N] [--quick] [--json OUT]
//! lsopc_bench compare BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]
//! lsopc_bench summary RUNS.jsonl [--rev REV]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod compare;
mod json;
mod measure;
mod report;
mod rss;
mod timed;
mod traced;
mod workload;

use std::io::Write as _;
use std::process::ExitCode;

use lsopc_engine::Engine;

use report::{result_line, RunReport, Tally};
use workload::{Workload, NAMES};

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    repeats: usize,
    /// `None`: the untraced pass, then the traced one.
    trace: Option<bool>,
    threads: usize,
    quick: bool,
    json: Option<String>,
}

const USAGE: &str = "usage: lsopc_bench [--workload NAME|all] [--seed S] [--seconds T] \
[--repeats R] [--trace 0|1] [--threads N] [--quick] [--json OUT]
       lsopc_bench compare BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]
       lsopc_bench summary RUNS.jsonl [--rev REV]";

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            workloads: NAMES.to_vec(),
            seed: 1,
            seconds: 0.0,
            repeats: 1,
            trace: None,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            quick: false,
            json: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                opts.quick = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if value == "all" => opts.workloads = NAMES.to_vec(),
                "--workload" => {
                    let name = NAMES.iter().find(|n| *n == value).ok_or_else(|| {
                        bad(&format!("expected one of {} or all", NAMES.join(", ")))
                    })?;
                    opts.workloads = vec![name];
                }
                "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    opts.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("expected a non-negative number"))?;
                }
                "--repeats" => {
                    opts.repeats = value
                        .parse()
                        .ok()
                        .filter(|&r| r > 0)
                        .ok_or_else(|| bad("expected a positive integer"))?;
                }
                "--trace" => {
                    opts.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    });
                }
                "--threads" => {
                    opts.threads = value
                        .parse()
                        .ok()
                        .filter(|&t| t > 0)
                        .ok_or_else(|| bad("expected a positive integer"))?;
                }
                "--json" => opts.json = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(opts)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match args.first().map(String::as_str) {
        Some("compare") => return compare::compare_main(&args[1..]),
        Some("summary") => return compare::summary_main(&args[1..]),
        Some("speedup-probe") => ("speedup-probe", &args[1..]),
        _ => ("run", &args[..]),
    };
    let opts = match Options::parse(flags) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if command == "speedup-probe" {
        // The child process of the traced pass's thread-speed-up probe.
        let w = Workload::build(opts.workloads[0], opts.seed, opts.quick)
            .expect("names come from NAMES");
        return match traced::speedup_probe_main(&w, opts.threads) {
            Ok(speedup) => {
                println!("{speedup}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Size the shared worker pool before anything else touches it.
    let lanes = Engine::builder()
        .threads(opts.threads)
        .build()
        .pool_threads();
    let passes: &[bool] = match opts.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut reports = Vec::new();
    for name in &opts.workloads {
        let w = Workload::build(name, opts.seed, opts.quick).expect("names come from NAMES");
        for &traced in passes {
            let mut tally = Tally::default();
            let metrics = if traced {
                traced::traced(&w, opts.seconds, &mut tally)
            } else {
                measure::untraced(&w, opts.seconds, opts.repeats, &mut tally)
            };
            let report = RunReport {
                workload: w.name,
                seed: opts.seed,
                traced,
                lanes,
                tally,
                metrics,
            };
            report.print_table();
            reports.push(report);
        }
    }

    if let Some(path) = &opts.json {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| {
                let lines: String = reports.iter().map(|r| r.json_record() + "\n").collect();
                f.write_all(lines.as_bytes())
            });
        if let Err(e) = appended {
            eprintln!("error: cannot append to {path}: {e}");
            return ExitCode::from(3);
        }
    }
    println!("{}", result_line(&reports));
    ExitCode::SUCCESS
}
