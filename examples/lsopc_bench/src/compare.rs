//! `compare` and `summary`: statistics over run records written with
//! `--json`.
//!
//! `compare BASE NEW` applies the acceptance rule for a performance
//! claim to every workload × metric row. Runs are paired in file order
//! per workload (record the parent and the change alternately). A row is
//!
//! * `improved` when there are at least 10 pairs, the change wins at
//!   least 9/10 of them (ties count for neither side) and the medians
//!   differ by more than the parent's interquartile range;
//! * `worse` when the change's median is worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json` (for unbounded
//!   per-layer metrics: when the improvement rule holds the other way);
//! * `unchanged` when it is within the bound and the parent's own spread
//!   is within the bound too;
//! * `unresolved` otherwise.
//!
//! Counts compare exactly: equal on every run → `unchanged`, a count
//! that does not repeat on either side → `unresolved`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::report::{json_number, json_string, median, quartiles};

/// Minimum pairs for a claim.
const MIN_PAIRS: usize = 10;

struct Run {
    workload: String,
    trace: bool,
    failed: f64,
    /// The run's pool lanes and the host's hardware lanes.
    lanes: Option<f64>,
    host_lanes: Option<f64>,
    metrics: BTreeMap<String, (Option<f64>, String)>,
}

fn load_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| {
            let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let field = |k: &str| doc.get(k).ok_or(format!("{path}:{}: no {k:?}", i + 1));
            let metrics = field("metrics")?
                .entries()
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    let unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    (name.clone(), (value, unit))
                })
                .collect();
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or("").to_string(),
                trace: field("trace")?.as_f64() == Some(1.0),
                failed: field("failed")?.as_f64().unwrap_or(f64::NAN),
                lanes: doc.get("lanes").and_then(Json::as_f64),
                host_lanes: doc.get("host_lanes").and_then(Json::as_f64),
                metrics,
            })
        })
        .collect()
}

/// How a metric is judged, from `BENCHMARK.json`.
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
    count: bool,
    /// Per-layer metrics come from traced runs, end-to-end ones from
    /// untraced runs.
    traced: bool,
}

fn load_rules(path: &str) -> Result<Vec<(String, Rule)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut rules = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).map_or(&[][..], Json::items) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: unnamed metric"))?;
            rules.push((
                name.to_string(),
                Rule {
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Json::as_f64),
                    count: m.get("unit").and_then(Json::as_str) == Some("count"),
                    traced: key == "per_layer",
                },
            ));
        }
    }
    Ok(rules)
}

/// The verdict for one row; `base` and `new` are paired by index.
fn verdict(rule: &Rule, base: &[f64], new: &[f64]) -> &'static str {
    let n = base.len().min(new.len());
    if n == 0 {
        return "unresolved";
    }
    let (mb, mn) = (median(base), median(new));
    // Positive when the change is better.
    let gain = |b: f64, c: f64| if rule.lower_is_better { b - c } else { c - b };
    if rule.count {
        let repeats = |v: &[f64]| v.iter().all(|x| *x == v[0]);
        return match (repeats(base) && repeats(new), gain(mb, mn)) {
            (false, _) => "unresolved",
            (true, g) if g > 0.0 => "improved",
            (true, g) if g < 0.0 => "worse",
            _ => "unchanged",
        };
    }
    let iqr = quartiles(base).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let wins = (0..n).filter(|&i| gain(base[i], new[i]) > 0.0).count();
    let losses = (0..n).filter(|&i| gain(base[i], new[i]) < 0.0).count();
    let claim = |k: usize| n >= MIN_PAIRS && k * 10 >= 9 * n && (mn - mb).abs() > iqr;
    if claim(wins) && gain(mb, mn) > 0.0 {
        return "improved";
    }
    match rule.bound {
        Some(bound) => {
            if -gain(mb, mn) > bound * mb.abs() {
                "worse"
            } else if iqr <= bound * mb.abs() {
                "unchanged"
            } else {
                let every_better = new.iter().all(|&c| base.iter().all(|&b| gain(b, c) > 0.0));
                if every_better {
                    "unchanged"
                } else {
                    "unresolved"
                }
            }
        }
        None if claim(losses) && gain(mb, mn) < 0.0 => "worse",
        None => "unresolved",
    }
}

/// Values of `metric` over the runs of `workload` with trace setting
/// `traced`.
fn values(runs: &[Run], workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == traced)
        .filter_map(|r| r.metrics.get(metric).and_then(|(v, _)| *v))
        .collect()
}

fn spread(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("[{q1:.6}, {q3:.6}]"),
        None => "[-]".into(),
    }
}

pub fn compare_main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.clone().next()) {
            ("--benchmark", Some(path)) => {
                bench = path.clone();
                it.next();
            }
            _ => files.push(a.clone()),
        }
    }
    let [base, new] = files.as_slice() else {
        eprintln!("usage: lsopc_bench compare BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let loaded = (load_runs(base), load_runs(new), load_rules(&bench));
    let (base, new, rules) = match loaded {
        (Ok(b), Ok(n), Ok(r)) => (b, n, r),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let mut workloads: Vec<&str> = Vec::new();
    for r in &base {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    println!(
        "{:<18} {:<32} {:>14} {:>30} {:>14} {:>30} {:>7}  verdict",
        "workload", "metric", "base p50", "base [q1, q3]", "new p50", "new [q1, q3]", "pairs"
    );
    for workload in workloads {
        let failed = |runs: &[Run]| -> f64 {
            runs.iter()
                .filter(|r| r.workload == workload)
                .map(|r| r.failed)
                .sum()
        };
        let more_failures = failed(&new) > failed(&base);
        for (name, rule) in &rules {
            let b = values(&base, workload, name, rule.traced);
            let n = values(&new, workload, name, rule.traced);
            if b.is_empty() && n.is_empty() {
                continue;
            }
            let mut v = verdict(rule, &b, &n);
            if v == "improved" && more_failures {
                v = "unresolved (more failures)";
            }
            println!(
                "{workload:<18} {name:<32} {:>14.6} {:>30} {:>14.6} {:>30} {:>7}  {v}",
                median(&b),
                spread(&b),
                median(&n),
                spread(&n),
                b.len().min(n.len())
            );
        }
    }
    ExitCode::SUCCESS
}

/// `summary RUNS [--rev REV]`: per workload × metric median, quartiles
/// and sample count as one JSON document (the recorded baseline).
pub fn summary_main(args: &[String]) -> ExitCode {
    let (path, rev) = match args {
        [path] => (path, "unknown"),
        [path, flag, rev] if flag == "--rev" => (path, rev.as_str()),
        _ => {
            eprintln!("usage: lsopc_bench summary RUNS.jsonl [--rev REV]");
            return ExitCode::from(2);
        }
    };
    let runs = match load_runs(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let mut rows: BTreeMap<(String, String), (Vec<f64>, String)> = BTreeMap::new();
    for r in &runs {
        for (name, (value, unit)) in &r.metrics {
            let row = rows
                .entry((r.workload.clone(), name.clone()))
                .or_insert_with(|| (Vec::new(), unit.clone()));
            row.0.extend(value);
        }
    }
    let body: Vec<String> = rows
        .iter()
        .map(|((workload, name), (v, unit))| {
            let (q1, q3) = quartiles(v).map_or((None, None), |(a, b)| (Some(a), Some(b)));
            format!(
                "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"n\": {}, \"median\": {}, \
                 \"q1\": {}, \"q3\": {}}}",
                json_string(workload),
                json_string(name),
                json_string(unit),
                v.len(),
                json_number(Some(median(v))),
                json_number(q1),
                json_number(q3)
            )
        })
        .collect();
    let first = runs.first();
    println!(
        "{{\n  \"rev\": {},\n  \"lanes\": {},\n  \"host_lanes\": {},\n  \"rows\": [\n{}\n  ]\n}}",
        json_string(rev),
        json_number(first.and_then(|r| r.lanes)),
        json_number(first.and_then(|r| r.host_lanes)),
        body.join(",\n")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(bound: Option<f64>) -> Rule {
        Rule {
            lower_is_better: true,
            bound,
            count: false,
            traced: false,
        }
    }

    #[test]
    fn a_clear_win_on_ten_pairs_is_improved() {
        let base: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
        let new: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        assert_eq!(verdict(&timed(Some(0.1)), &base, &new), "improved");
        // Nine pairs are too few for a claim.
        assert_eq!(
            verdict(&timed(Some(0.1)), &base[..9], &new[..9]),
            "unchanged"
        );
    }

    #[test]
    fn bounds_and_spread_decide_the_rest() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let slower: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        assert_eq!(verdict(&timed(Some(0.1)), &base, &slower), "worse");
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(verdict(&timed(Some(0.1)), &noisy, &noisy), "unresolved");
        assert_eq!(verdict(&timed(None), &base, &base), "unresolved");
    }

    #[test]
    fn counts_compare_exactly() {
        let count = Rule {
            lower_is_better: true,
            bound: None,
            count: true,
            traced: true,
        };
        assert_eq!(verdict(&count, &[27.0, 27.0], &[27.0, 27.0]), "unchanged");
        assert_eq!(verdict(&count, &[27.0, 27.0], &[24.0, 24.0]), "improved");
        assert_eq!(verdict(&count, &[27.0, 28.0], &[24.0, 24.0]), "unresolved");
    }
}
