//! Offline analyzer for schema-v1 JSONL traces.
//!
//! Replays the event stream a [`JsonlSink`](crate::JsonlSink) wrote
//! (`lsopc … --trace run.jsonl`) into a fresh [`MetricsRegistry`], line
//! by line, as the [`Event`] each line was written from. The report is
//! therefore the registry's own [`MetricsReport`] — the same one a live
//! run renders — plus the parse tally and rule-based anomaly flags the
//! `lsopc analyze` subcommand prints.
//!
//! Parsing is tolerant by design: the stream may be truncated mid-run
//! (that is precisely when post-mortem analysis matters), so malformed
//! or foreign lines are counted and skipped, never fatal. Only a stream
//! with *zero* recognizable events is an error.

use crate::{Event, IterRecord, MetricsRegistry, MetricsReport, TraceSink};
use std::fmt::Write as _;

/// Everything `lsopc analyze` derives from one trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Recognized event lines.
    pub events: usize,
    /// Unparseable or foreign lines skipped.
    pub skipped: usize,
    /// The replayed registry's report.
    pub metrics: MetricsReport,
    /// Human-readable anomaly flags (empty = nothing suspicious).
    pub anomalies: Vec<String>,
}

/// A span's p99 this many times above its median flags a latency-tail
/// anomaly (with at least [`TAIL_MIN_CALLS`] calls to damp noise).
pub const TAIL_RATIO: u64 = 8;
/// Minimum calls before the tail-latency rule applies.
pub const TAIL_MIN_CALLS: u64 = 8;
/// Cache families with at least this much traffic and a hit ratio below
/// [`CACHE_MIN_RATIO`] flag a hit-ratio collapse.
pub const CACHE_MIN_TRAFFIC: u64 = 16;
/// Hit-ratio floor for the cache anomaly rule.
pub const CACHE_MIN_RATIO: f64 = 0.5;

/// Analyzes the text of a schema-v1 JSONL trace. Tolerates truncated
/// and malformed lines (counted in [`TraceReport::skipped`]); errors
/// only when no recognizable event survives.
pub fn analyze(text: &str) -> Result<TraceReport, String> {
    let registry = MetricsRegistry::new();
    let (mut events, mut skipped) = (0, 0);
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        match replay(line, &registry) {
            Some(()) => events += 1,
            None => skipped += 1,
        }
    }
    if events == 0 {
        return Err(format!(
            "no schema-v1 trace events found ({skipped} unrecognized lines)"
        ));
    }
    let metrics = registry.report();
    let anomalies = find_anomalies(&metrics);
    Ok(TraceReport {
        events,
        skipped,
        metrics,
        anomalies,
    })
}

/// Delivers one JSONL line to `sink` as the [`Event`] it was written
/// from; `None` when the line is not a complete schema-v1 event.
fn replay(line: &str, sink: &dyn TraceSink) -> Option<()> {
    match str_field(line, "kind")?.as_str() {
        "span" => {
            let (name, path) = (str_field(line, "name")?, str_field(line, "path")?);
            let dur_ns = u64_field(line, "dur_ns")?;
            sink.event(&Event::Span {
                name: &name,
                path: &path,
                dur_ns,
            });
        }
        "count" => {
            let name = str_field(line, "name")?;
            let delta = u64_field(line, "delta")?;
            sink.event(&Event::Count { name: &name, delta });
        }
        "gauge" => {
            let name = str_field(line, "name")?;
            let value = f64_field(line, "value")?;
            sink.event(&Event::Gauge { name: &name, value });
        }
        "warn" => {
            let (origin, message) = (str_field(line, "origin")?, str_field(line, "message")?);
            sink.event(&Event::Warn {
                origin: &origin,
                message: &message,
            });
        }
        "iter" => {
            let record = IterRecord {
                iteration: usize::try_from(u64_field(line, "iteration")?).ok()?,
                cost_total: f64_field(line, "cost_total")?,
                cost_nominal: f64_field(line, "cost_nominal")?,
                cost_pvb: f64_field(line, "cost_pvb")?,
                lambda_scale: f64_field(line, "lambda_scale")?,
                beta: f64_field(line, "beta")?,
                time_step: f64_field(line, "time_step")?,
                max_velocity: f64_field(line, "max_velocity")?,
                rolled_back: bool_field(line, "rolled_back")?,
            };
            sink.event(&Event::Iter(&record));
        }
        _ => return None,
    }
    Some(())
}

fn find_anomalies(report: &MetricsReport) -> Vec<String> {
    let mut out = Vec::new();
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    let rollbacks = counter("guard.rollback");
    if rollbacks > 0 {
        out.push(format!(
            "guard rolled back {rollbacks} iteration(s) — descent was unhealthy at least once"
        ));
    }
    if counter("guard.gave_up") > 0 {
        out.push("health guard gave up (strict-recovery budget exhausted)".to_string());
    }
    for span in &report.spans {
        if span.calls >= TAIL_MIN_CALLS && span.p50_ns > 0 && span.p99_ns > TAIL_RATIO * span.p50_ns
        {
            out.push(format!(
                "latency tail on `{}`: p99 {:.3} ms vs p50 {:.3} ms over {} calls",
                span.path,
                span.p99_ns as f64 / 1e6,
                span.p50_ns as f64 / 1e6,
                span.calls
            ));
        }
    }
    for (family, cache) in &report.caches {
        let traffic = cache.hits + cache.misses;
        if traffic >= CACHE_MIN_TRAFFIC && cache.ratio() < CACHE_MIN_RATIO {
            out.push(format!(
                "cache `{family}` hit ratio collapsed: {:.0}% over {traffic} accesses",
                cache.ratio() * 100.0
            ));
        }
    }
    if let Some(reason) = &report.stop_reason {
        out.push(format!("run stopped early: {reason}"));
    }
    out
}

impl TraceReport {
    /// Renders the analysis as the plain-text report `lsopc analyze`
    /// prints: the parse tally, the [`MetricsReport`] text, and the
    /// anomaly flags.
    pub fn render_text(&self) -> String {
        let mut out = format!("events: {} parsed, {} skipped\n", self.events, self.skipped);
        out.push_str(&self.metrics.render_text());
        if self.anomalies.is_empty() {
            let _ = writeln!(out, "\nanomalies: none");
        } else {
            let _ = writeln!(out, "\nanomalies:");
            for anomaly in &self.anomalies {
                let _ = writeln!(out, "  ! {anomaly}");
            }
        }
        out
    }
}

/// Extracts the string value of `"key"` from one JSON line, decoding
/// the escapes [`JsonlSink`](crate::JsonlSink) emits.
fn str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = line.find(&needle)? + needle.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// The raw (unquoted) value token after `"key": `.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    raw_field(line, key)?.parse().ok()
}

fn f64_field(line: &str, key: &str) -> Option<f64> {
    let raw = raw_field(line, key)?;
    if raw == "null" {
        return Some(f64::NAN);
    }
    raw.parse().ok()
}

fn bool_field(line: &str, key: &str) -> Option<bool> {
    raw_field(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_trace() -> String {
        let mut t = String::new();
        for i in 0..3 {
            t.push_str(&format!(
                "{{\"v\": 1, \"ts_ns\": {}, \"kind\": \"span\", \"name\": \"forward\", \"path\": \"optimize/litho/forward\", \"dur_ns\": {}}}\n",
                i * 100,
                1000 + i
            ));
        }
        t.push_str("{\"v\": 1, \"ts_ns\": 400, \"kind\": \"span\", \"name\": \"litho\", \"path\": \"optimize/litho\", \"dur_ns\": 5000}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 500, \"kind\": \"span\", \"name\": \"optimize\", \"path\": \"optimize\", \"dur_ns\": 9000}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 600, \"kind\": \"count\", \"name\": \"cache.spectra.hit\", \"delta\": 30}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 610, \"kind\": \"count\", \"name\": \"cache.spectra.miss\", \"delta\": 2}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 620, \"kind\": \"count\", \"name\": \"guard.rollback\", \"delta\": 1}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 630, \"kind\": \"gauge\", \"name\": \"pool.threads\", \"value\": 4.0}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 700, \"kind\": \"iter\", \"iteration\": 0, \"cost_total\": 10.0, \"cost_nominal\": 8.0, \"cost_pvb\": 2.0, \"lambda_scale\": 1.0, \"beta\": 0.0, \"time_step\": 0.1, \"max_velocity\": 1.0, \"rolled_back\": false}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 800, \"kind\": \"iter\", \"iteration\": 1, \"cost_total\": 7.5, \"cost_nominal\": 6.0, \"cost_pvb\": 1.5, \"lambda_scale\": 1.0, \"beta\": 0.2, \"time_step\": 0.1, \"max_velocity\": 1.0, \"rolled_back\": true}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 900, \"kind\": \"warn\", \"origin\": \"guard\", \"message\": \"cost rose \\\"sharply\\\"\"}\n");
        t
    }

    #[test]
    fn golden_trace_round_trips() {
        let report = analyze(&golden_trace()).unwrap();
        assert_eq!(report.events, 12);
        assert_eq!(report.skipped, 0);
        let metrics = &report.metrics;
        let forward = metrics
            .spans
            .iter()
            .find(|s| s.path == "optimize/litho/forward")
            .unwrap();
        assert_eq!(forward.calls, 3);
        assert_eq!(forward.total_ns, 3003);
        let litho = metrics
            .spans
            .iter()
            .find(|s| s.path == "optimize/litho")
            .unwrap();
        assert_eq!(litho.self_ns, 5000 - 3003);
        assert_eq!(metrics.counters.get("cache.spectra.hit"), Some(&30));
        let spectra = metrics.caches["spectra"];
        assert_eq!((spectra.hits, spectra.misses), (30, 2));
        let conv = metrics.convergence.unwrap();
        assert_eq!(conv.iterations, 2);
        assert_eq!(conv.first_cost, 10.0);
        assert_eq!(conv.last_cost, 7.5);
        assert_eq!(conv.best_delta, 2.5);
        assert_eq!(conv.rollbacks, 1);
        assert_eq!(metrics.gauges.get("pool.threads"), Some(&4.0));
        assert_eq!(metrics.warnings.len(), 1);
        assert_eq!(metrics.warnings[0].1, "cost rose \"sharply\"");
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.contains("guard rolled back 1")));
        let text = report.render_text();
        assert!(text.contains("optimize/litho/forward"));
        assert!(text.contains("spectra"));
        assert!(text.contains("anomalies:"));
    }

    #[test]
    fn replayed_stream_reports_exactly_what_the_live_registry_saw() {
        let buf = crate::jsonl::tests::SharedBuf::default();
        let live = std::sync::Arc::new(MetricsRegistry::new());
        let fanout = crate::FanoutSink::new(vec![
            std::sync::Arc::new(crate::JsonlSink::new(buf.clone())),
            live.clone(),
        ]);
        // Awkward floats: their shortest decimal form must parse back
        // to the same bits.
        let costs = [0.1 + 0.2, 1e-300, 7.0 / 3.0, -0.0];
        for (i, &cost) in costs.iter().enumerate() {
            fanout.event(&Event::Span {
                name: "iter",
                path: "optimize/iter",
                dur_ns: 1_000 + 37 * i as u64,
            });
            fanout.event(&Event::Iter(&IterRecord {
                iteration: i,
                cost_total: cost,
                cost_nominal: cost / 3.0,
                cost_pvb: 2.0 * cost / 3.0,
                lambda_scale: 1.0,
                beta: 0.25,
                time_step: 0.1,
                max_velocity: 3.5,
                rolled_back: i == 2,
            }));
            fanout.event(&Event::Gauge {
                name: "pool.job.occupancy",
                value: cost,
            });
        }
        fanout.event(&Event::Span {
            name: "optimize",
            path: "optimize",
            dur_ns: 9_000,
        });
        fanout.event(&Event::Count {
            name: "cache.plan.hit",
            delta: 5,
        });
        fanout.event(&Event::Warn {
            origin: "guard",
            message: "tab\there \"quoted\"",
        });
        fanout.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let replayed = analyze(&text).unwrap();
        assert_eq!(replayed.skipped, 0);
        assert_eq!(replayed.metrics, live.report());
        assert_eq!(replayed.metrics.to_json(), live.report().to_json());
    }

    #[test]
    fn truncated_and_foreign_lines_are_skipped_not_fatal() {
        let mut trace = golden_trace();
        trace.push_str("{\"v\": 1, \"ts_ns\": 950, \"kind\": \"span\", \"na"); // truncated tail
        trace.push_str("\nnot json at all\n");
        let report = analyze(&trace).unwrap();
        assert_eq!(report.events, 12);
        assert_eq!(report.skipped, 2);
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert!(analyze("").is_err());
        assert!(analyze("garbage\nmore garbage\n").is_err());
    }

    #[test]
    fn stop_reason_comes_from_run_stop_counters() {
        let mut trace = golden_trace();
        trace.push_str(
            "{\"v\": 1, \"ts_ns\": 960, \"kind\": \"count\", \"name\": \"run.stop.deadline\", \"delta\": 1}\n",
        );
        let report = analyze(&trace).unwrap();
        assert_eq!(report.metrics.stop_reason.as_deref(), Some("deadline"));
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.contains("stopped early: deadline")));
    }

    #[test]
    fn tail_latency_and_cache_collapse_flagged() {
        let mut t = String::new();
        for _ in 0..15 {
            t.push_str("{\"v\": 1, \"ts_ns\": 1, \"kind\": \"span\", \"name\": \"s\", \"path\": \"s\", \"dur_ns\": 1000}\n");
        }
        t.push_str("{\"v\": 1, \"ts_ns\": 2, \"kind\": \"span\", \"name\": \"s\", \"path\": \"s\", \"dur_ns\": 90000}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 3, \"kind\": \"count\", \"name\": \"cache.plan.hit\", \"delta\": 2}\n");
        t.push_str("{\"v\": 1, \"ts_ns\": 4, \"kind\": \"count\", \"name\": \"cache.plan.miss\", \"delta\": 30}\n");
        let report = analyze(&t).unwrap();
        assert!(
            report.anomalies.iter().any(|a| a.contains("latency tail")),
            "anomalies: {:?}",
            report.anomalies
        );
        assert!(
            report
                .anomalies
                .iter()
                .any(|a| a.contains("cache `plan` hit ratio collapsed")),
            "anomalies: {:?}",
            report.anomalies
        );
    }
}
