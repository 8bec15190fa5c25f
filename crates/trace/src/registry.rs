//! Registry sink: the one aggregator of the event stream. Spans fold
//! into per-path latency histograms, counters into totals, gauges into
//! last-values, iteration records into a convergence summary, and
//! warnings into a list. [`MetricsRegistry::report`] derives the one
//! [`MetricsReport`] every telemetry consumer renders: per-job
//! `JobMetrics` in `lsopc-engine`, `--metrics`, `lsopc profile` and
//! `lsopc analyze` (which replays a JSONL trace into a fresh registry).

use crate::histogram::Histogram;
use crate::report::{CacheRatio, Convergence, MetricsReport, SpanRow};
use crate::{Event, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Aggregates spans into one [`Histogram`] per span path, counters into
/// atomic totals, gauges into last-value slots, iteration records into
/// a [`Convergence`] summary and warnings into a list. Composes with
/// [`JsonlSink`](crate::JsonlSink) via [`FanoutSink`](crate::FanoutSink)
/// or a scoped-sink layer.
///
/// Locking: the maps take a read lock per event on the steady state
/// (write lock only the first time a path/name appears); the values are
/// `Arc<Histogram>` / `Arc<AtomicU64>`, so recording itself is
/// lock-free. Gauges take the write lock, iteration records and
/// warnings a mutex (rare events).
#[derive(Default)]
pub struct MetricsRegistry {
    spans: RwLock<BTreeMap<String, Arc<Histogram>>>,
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, f64>>,
    convergence: Mutex<Option<Convergence>>,
    warnings: Mutex<Vec<(String, String)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn span_hist(&self, path: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(path)
        {
            return h.clone();
        }
        let mut map = self.spans.write().unwrap_or_else(|e| e.into_inner());
        map.entry(path.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return c.clone();
        }
        let mut map = self.counters.write().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone()
    }

    /// The duration histogram for span `path`, or `None` if that path
    /// never closed a span.
    pub fn span_histogram(&self, path: &str) -> Option<Arc<Histogram>> {
        self.spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(path)
            .cloned()
    }

    /// All span paths seen so far, sorted.
    pub fn span_paths(&self) -> Vec<String> {
        self.spans
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Total of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// All counter totals, sorted by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Last sampled value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
    }

    /// All gauge last-values, sorted by name.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Everything aggregated so far as one [`MetricsReport`].
    ///
    /// This is the single home of the two derived rules: a span's self
    /// time is its total minus the totals of its direct children,
    /// clamped at 0 (children running concurrently on pool workers can
    /// overlap their parent), and counters shaped
    /// `cache.<family>.{hit,miss}` split into per-family hit/miss pairs.
    pub fn report(&self) -> MetricsReport {
        let spans = self.spans.read().unwrap_or_else(|e| e.into_inner());
        let mut children: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, hist) in spans.iter() {
            if let Some((parent, _)) = path.rsplit_once('/') {
                if spans.contains_key(parent) {
                    *children.entry(parent).or_insert(0) += hist.sum();
                }
            }
        }
        let span_rows = spans
            .iter()
            .map(|(path, hist)| SpanRow {
                path: path.clone(),
                calls: hist.count(),
                total_ns: hist.sum(),
                self_ns: hist
                    .sum()
                    .saturating_sub(children.get(path.as_str()).copied().unwrap_or(0)),
                p50_ns: hist.quantile(0.50),
                p90_ns: hist.quantile(0.90),
                p99_ns: hist.quantile(0.99),
            })
            .collect();
        drop(spans);
        let counters = self.counters();
        let mut caches: BTreeMap<String, CacheRatio> = BTreeMap::new();
        for (name, &total) in &counters {
            let Some(rest) = name.strip_prefix("cache.") else {
                continue;
            };
            if let Some(family) = rest.strip_suffix(".hit") {
                caches.entry(family.to_string()).or_default().hits += total;
            } else if let Some(family) = rest.strip_suffix(".miss") {
                caches.entry(family.to_string()).or_default().misses += total;
            }
        }
        let stop_reason = counters
            .iter()
            .find(|(name, &total)| name.starts_with("run.stop.") && total > 0)
            .map(|(name, _)| name["run.stop.".len()..].to_string());
        MetricsReport {
            spans: span_rows,
            gauges: self.gauges(),
            caches,
            convergence: *self.convergence.lock().unwrap_or_else(|e| e.into_inner()),
            stop_reason,
            warnings: self
                .warnings
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            counters,
        }
    }
}

impl TraceSink for MetricsRegistry {
    fn event(&self, event: &Event<'_>) {
        match event {
            Event::Span { path, dur_ns, .. } => {
                self.span_hist(path).record(*dur_ns);
            }
            Event::Count { name, delta } => {
                self.counter_cell(name).fetch_add(*delta, Ordering::Relaxed);
            }
            Event::Gauge { name, value } => {
                self.gauges
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert((*name).to_string(), *value);
            }
            Event::Warn { origin, message } => {
                self.warnings
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(((*origin).to_string(), (*message).to_string()));
            }
            Event::Iter(rec) => {
                Convergence::push(
                    &mut self.convergence.lock().unwrap_or_else(|e| e.into_inner()),
                    rec,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterRecord;

    fn span(path: &str, dur_ns: u64) -> Event<'_> {
        Event::Span {
            name: "leaf",
            path,
            dur_ns,
        }
    }

    #[test]
    fn spans_aggregate_into_per_path_histograms() {
        let reg = MetricsRegistry::new();
        reg.event(&span("a/b", 100));
        reg.event(&span("a/b", 200));
        reg.event(&span("c", 5));
        let h = reg.span_histogram("a/b").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 300);
        assert_eq!(reg.span_histogram("c").unwrap().count(), 1);
        assert!(reg.span_histogram("missing").is_none());
        assert_eq!(reg.span_paths(), vec!["a/b".to_string(), "c".to_string()]);
    }

    #[test]
    fn counters_gauges_warnings_and_iters_fold_in() {
        let reg = MetricsRegistry::new();
        reg.event(&Event::Count {
            name: "cache.hit",
            delta: 3,
        });
        reg.event(&Event::Gauge {
            name: "pool.threads",
            value: 4.0,
        });
        reg.event(&Event::Warn {
            origin: "t",
            message: "m",
        });
        reg.event(&Event::Iter(&IterRecord {
            iteration: 0,
            cost_total: 9.0,
            cost_nominal: 7.0,
            cost_pvb: 2.0,
            lambda_scale: 1.0,
            beta: 0.0,
            time_step: 0.1,
            max_velocity: 1.0,
            rolled_back: true,
        }));
        assert_eq!(reg.counter("cache.hit"), 3);
        assert_eq!(reg.gauge("pool.threads"), Some(4.0));
        let report = reg.report();
        assert_eq!(report.warnings, [("t".to_string(), "m".to_string())]);
        let convergence = report.convergence.unwrap();
        assert_eq!((convergence.iterations, convergence.rollbacks), (1, 1));
        assert_eq!(convergence.last_cost, 9.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let reg = MetricsRegistry::new();
        reg.event(&span("a", 100));
        reg.event(&span("a/b", 30));
        reg.event(&span("a/b/c", 10));
        let report = reg.report();
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["a", "a/b", "a/b/c"], "sorted by path");
        let self_ns: Vec<u64> = report.spans.iter().map(|s| s.self_ns).collect();
        assert_eq!(self_ns, [70, 20, 10], "grandchildren are not subtracted");
    }

    #[test]
    fn overlapping_children_clamp_self_time_at_zero() {
        // Parallel children can sum past the parent's wall clock.
        let reg = MetricsRegistry::new();
        reg.event(&span("p", 100));
        reg.event(&span("p/w", 80));
        reg.event(&span("p/w", 80));
        assert_eq!(reg.report().spans[0].self_ns, 0);
    }

    #[test]
    fn orphan_child_keeps_full_self_time() {
        // A child whose parent never closed is subtracted from nothing.
        let reg = MetricsRegistry::new();
        reg.event(&span("lost/child", 40));
        assert_eq!(reg.report().spans[0].self_ns, 40);
    }

    #[test]
    fn cache_families_and_stop_reason_derive_from_counters() {
        let reg = MetricsRegistry::new();
        for (name, delta) in [
            ("cache.plan.hit", 3),
            ("cache.plan.miss", 1),
            ("cache.kernels.miss", 2),
            ("cache.plan", 9),
            ("run.stop.signal", 0),
            ("run.stop.budget", 1),
        ] {
            reg.event(&Event::Count { name, delta });
        }
        let report = reg.report();
        assert_eq!(
            report.caches.get("plan"),
            Some(&CacheRatio { hits: 3, misses: 1 })
        );
        assert_eq!(report.caches["kernels"].ratio(), 0.0);
        assert_eq!(report.caches.len(), 2, "{:?}", report.caches);
        assert_eq!(report.stop_reason.as_deref(), Some("budget"));
    }
}
