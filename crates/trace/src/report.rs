//! The one telemetry report: what a [`MetricsRegistry`] holds, derived
//! once and rendered as text (`lsopc profile`, `lsopc analyze`) or as
//! the JSON document (`--metrics`, `lsopc profile --json`).
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry

use crate::jsonl::{json_f64, json_string};
use crate::IterRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated timing for one span path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// Full `/`-joined hierarchical path.
    pub path: String,
    /// Number of times the span closed.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u64,
    /// Total minus the summed totals of direct children, clamped at 0.
    pub self_ns: u64,
    /// Median call duration (histogram bucket bound, < 6.25% high).
    pub p50_ns: u64,
    /// 90th-percentile call duration.
    pub p90_ns: u64,
    /// 99th-percentile call duration.
    pub p99_ns: u64,
}

/// Hit/miss totals for one cache family (`cache.<family>.{hit,miss}`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheRatio {
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
}

impl CacheRatio {
    /// Hit fraction in `[0, 1]`; 0 when the family saw no traffic.
    pub fn ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Convergence summary folded from the iteration records in O(1) state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Convergence {
    /// Iteration records seen.
    pub iterations: usize,
    /// Total cost of the first record.
    pub first_cost: f64,
    /// Total cost of the last record.
    pub last_cost: f64,
    /// Largest single-iteration cost drop (0 when cost never fell).
    pub best_delta: f64,
    /// Records the health guard rolled back.
    pub rollbacks: u64,
}

impl Convergence {
    /// Folds one more iteration record into `summary`.
    pub(crate) fn push(summary: &mut Option<Self>, rec: &IterRecord) {
        let rolled = u64::from(rec.rolled_back);
        match summary {
            None => {
                *summary = Some(Self {
                    iterations: 1,
                    first_cost: rec.cost_total,
                    last_cost: rec.cost_total,
                    best_delta: 0.0,
                    rollbacks: rolled,
                })
            }
            Some(c) => {
                c.iterations += 1;
                c.best_delta = c.best_delta.max(c.last_cost - rec.cost_total);
                c.last_cost = rec.cost_total;
                c.rollbacks += rolled;
            }
        }
    }
}

/// Everything a registry aggregated, as plain data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// One row per span path, sorted by path (parents precede children).
    pub spans: Vec<SpanRow>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge last-values.
    pub gauges: BTreeMap<String, f64>,
    /// Hit/miss totals per cache family with any traffic.
    pub caches: BTreeMap<String, CacheRatio>,
    /// Convergence summary, when any iteration record arrived.
    pub convergence: Option<Convergence>,
    /// Early-stop reason from the first non-zero `run.stop.*` counter.
    pub stop_reason: Option<String>,
    /// Warnings `(origin, message)` in arrival order.
    pub warnings: Vec<(String, String)>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn depth(path: &str) -> usize {
    path.matches('/').count()
}

impl MetricsReport {
    /// Renders the report as plain text: the span tree with calls,
    /// self/total time and percentiles, then caches, counters, gauges,
    /// convergence, stop reason and warnings. Each section opens with a
    /// blank line, so callers can print their own header above it.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            let width = self
                .spans
                .iter()
                .map(|s| s.path.len() + 2 * depth(&s.path))
                .chain(["span".len()])
                .max()
                .unwrap_or(4);
            let _ = writeln!(
                out,
                "\n{:<width$}  {:>7}  {:>11}  {:>11}  {:>10}  {:>10}  {:>10}",
                "span", "calls", "self (ms)", "total (ms)", "p50 (ms)", "p90 (ms)", "p99 (ms)"
            );
            for span in &self.spans {
                let label = format!("{}{}", "  ".repeat(depth(&span.path)), span.path);
                let _ = writeln!(
                    out,
                    "{label:<width$}  {:>7}  {:>11.3}  {:>11.3}  {:>10.3}  {:>10.3}  {:>10.3}",
                    span.calls,
                    ms(span.self_ns),
                    ms(span.total_ns),
                    ms(span.p50_ns),
                    ms(span.p90_ns),
                    ms(span.p99_ns),
                );
            }
        }
        if !self.caches.is_empty() {
            let _ = writeln!(out, "\ncaches:");
            for (family, cache) in &self.caches {
                let _ = writeln!(
                    out,
                    "  {family:<16} {:>8} hits  {:>8} misses  {:>6.1}% hit",
                    cache.hits,
                    cache.misses,
                    cache.ratio() * 100.0
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, total) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {total:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\ngauges:");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {value:>12.3}");
            }
        }
        if let Some(c) = &self.convergence {
            let _ = writeln!(out, "\nconvergence:");
            let _ = writeln!(out, "  iterations      {:>12}", c.iterations);
            let _ = writeln!(out, "  first cost      {:>12.4}", c.first_cost);
            let _ = writeln!(out, "  last cost       {:>12.4}", c.last_cost);
            let _ = writeln!(
                out,
                "  total drop      {:>12.4}",
                c.first_cost - c.last_cost
            );
            let _ = writeln!(out, "  best drop/iter  {:>12.4}", c.best_delta);
            let _ = writeln!(out, "  rollbacks       {:>12}", c.rollbacks);
        }
        let _ = writeln!(
            out,
            "\nstop reason: {}",
            self.stop_reason
                .as_deref()
                .unwrap_or("none (ran to completion)")
        );
        if !self.warnings.is_empty() {
            let _ = writeln!(out, "\nwarnings:");
            for (origin, message) in &self.warnings {
                let _ = writeln!(out, "  [{origin}] {message}");
            }
        }
        out
    }

    /// Serializes the report as one JSON document (the `--metrics`
    /// artifact). Hand-rolled: the workspace has no JSON dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"v\": {},", crate::SCHEMA_VERSION);
        let spans = self.spans.iter().map(|s| {
            format!(
                "{{\"path\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                json_string(&s.path),
                s.calls,
                s.total_ns,
                s.self_ns,
                s.p50_ns,
                s.p90_ns,
                s.p99_ns
            )
        });
        json_block(&mut out, "spans", ('[', ']'), spans);
        let counters = self
            .counters
            .iter()
            .map(|(name, total)| format!("{}: {total}", json_string(name)));
        json_block(&mut out, "counters", ('{', '}'), counters);
        let gauges = self
            .gauges
            .iter()
            .map(|(name, value)| format!("{}: {}", json_string(name), json_f64(*value)));
        json_block(&mut out, "gauges", ('{', '}'), gauges);
        let caches = self.caches.iter().map(|(family, c)| {
            format!(
                "{}: {{\"hits\": {}, \"misses\": {}, \"ratio\": {}}}",
                json_string(family),
                c.hits,
                c.misses,
                json_f64(c.ratio())
            )
        });
        json_block(&mut out, "caches", ('{', '}'), caches);
        let convergence = self.convergence.map_or("null".to_string(), |c| {
            format!(
                "{{\"iterations\": {}, \"first_cost\": {}, \"last_cost\": {}, \"best_delta\": {}, \"rollbacks\": {}}}",
                c.iterations,
                json_f64(c.first_cost),
                json_f64(c.last_cost),
                json_f64(c.best_delta),
                c.rollbacks
            )
        });
        let _ = writeln!(out, "  \"convergence\": {convergence},");
        let stop = self
            .stop_reason
            .as_deref()
            .map_or("null".to_string(), json_string);
        let _ = writeln!(out, "  \"stop_reason\": {stop},");
        let warnings = self.warnings.iter().map(|(origin, message)| {
            format!(
                "{{\"origin\": {}, \"message\": {}}}",
                json_string(origin),
                json_string(message)
            )
        });
        json_block(&mut out, "warnings", ('[', ']'), warnings);
        // The last block's trailing comma closes the object instead.
        out.truncate(out.len() - 2);
        out.push_str("\n}\n");
        out
    }
}

/// Appends `"key": <open> item, … <close>,` with one item per line.
fn json_block(
    out: &mut String,
    key: &str,
    (open, close): (char, char),
    items: impl Iterator<Item = String>,
) {
    let _ = write!(out, "  \"{key}\": {open}");
    let mut any = false;
    for item in items {
        out.push_str(if any { ",\n    " } else { "\n    " });
        out.push_str(&item);
        any = true;
    }
    if any {
        out.push_str("\n  ");
    }
    let _ = writeln!(out, "{close},");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        let mut report = MetricsReport {
            spans: vec![SpanRow {
                path: "optimize/fft2d.forward".into(),
                calls: 2,
                total_ns: 2_000_000,
                self_ns: 2_000_000,
                p50_ns: 1_000_000,
                p90_ns: 1_000_000,
                p99_ns: 1_000_000,
            }],
            stop_reason: Some("budget".into()),
            ..MetricsReport::default()
        };
        report.counters.insert("cache.plan.hit".into(), 7);
        report.gauges.insert("pool.job.occupancy".into(), 0.5);
        report
            .caches
            .insert("plan".into(), CacheRatio { hits: 7, misses: 1 });
        report.warnings.push(("guard".into(), "cost rose".into()));
        report
    }

    #[test]
    fn text_render_lists_every_section() {
        let text = sample().render_text();
        for needle in [
            "optimize/fft2d.forward",
            "p99 (ms)",
            "caches:",
            "87.5% hit",
            "counters:",
            "cache.plan.hit",
            "gauges:",
            "stop reason: budget",
            "[guard] cost rose",
        ] {
            assert!(text.contains(needle), "`{needle}` missing from:\n{text}");
        }
    }

    #[test]
    fn json_document_is_balanced_and_carries_every_section() {
        let json = sample().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert!(json.starts_with("{\n  \"v\": 1,\n"), "{json}");
        assert!(json.ends_with("\n  ]\n}\n"), "{json}");
        for needle in [
            "\"p90_ns\": 1000000",
            "\"cache.plan.hit\": 7",
            "\"pool.job.occupancy\": 0.5",
            "\"plan\": {\"hits\": 7, \"misses\": 1, \"ratio\": 0.875}",
            "\"convergence\": null,",
            "\"stop_reason\": \"budget\",",
            "{\"origin\": \"guard\", \"message\": \"cost rose\"}",
        ] {
            assert!(json.contains(needle), "`{needle}` missing from:\n{json}");
        }
    }

    #[test]
    fn empty_report_renders_empty_sections() {
        let json = MetricsReport::default().to_json();
        assert!(json.contains("\"spans\": [],"), "{json}");
        assert!(json.contains("\"warnings\": []\n}"), "{json}");
        let text = MetricsReport::default().render_text();
        assert_eq!(text, "\nstop reason: none (ran to completion)\n");
    }

    #[test]
    fn convergence_tracks_first_last_and_best_drop() {
        let rec = |cost_total: f64, rolled_back: bool| IterRecord {
            iteration: 0,
            cost_total,
            cost_nominal: 0.0,
            cost_pvb: 0.0,
            lambda_scale: 1.0,
            beta: 0.0,
            time_step: 0.1,
            max_velocity: 1.0,
            rolled_back,
        };
        let mut summary = None;
        for (cost, rolled) in [(10.0, false), (7.0, false), (8.0, true), (6.5, false)] {
            Convergence::push(&mut summary, &rec(cost, rolled));
        }
        assert_eq!(
            summary,
            Some(Convergence {
                iterations: 4,
                first_cost: 10.0,
                last_cost: 6.5,
                best_delta: 3.0,
                rollbacks: 1,
            })
        );
    }
}
