//! Live equals offline: the metrics a job reports about itself
//! (`JobOutcome.metrics`) are exactly what `lsopc analyze` derives from
//! the same job's JSONL trace. Both are a `MetricsRegistry` fed the same
//! events — live through the engine's per-job scope, offline by
//! replaying each line — so every number must agree with no tolerance.
//!
//! The job is flat on purpose: tiles running concurrently may emit
//! last-value gauges and iteration records in a different order to the
//! two sinks, so only a single solve thread makes that order fixed.

use lsopc::engine::{Caches, Engine, JobSpec};
use lsopc::grid::Grid;
use lsopc::trace::{JsonlSink, TraceSink};
use std::sync::Arc;

#[test]
fn job_metrics_equal_the_replayed_trace_exactly() {
    let target = Grid::from_fn(128, 128, |x, y| {
        if (52..76).contains(&x) && (30..98).contains(&y) {
            1.0
        } else {
            0.0
        }
    });
    let mut spec = JobSpec::new(target);
    spec.kernels = 4;
    spec.iterations = 3;

    let path = std::env::temp_dir().join(format!(
        "lsopc_telemetry_replay_{}.jsonl",
        std::process::id()
    ));
    let engine = Engine::builder().caches(Caches::private()).build();
    let sink = Arc::new(JsonlSink::create(&path).expect("create trace"));
    let outcome =
        lsopc::trace::with_scoped_sink(sink.clone(), || engine.submit(&spec)).expect("job runs");
    sink.flush();
    assert!(sink.take_error().is_none(), "trace written in full");
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();

    let live = outcome.metrics.expect("metrics collected").report;
    let offline = lsopc::trace::analyze::analyze(&text).expect("trace analyzes");
    assert_eq!(offline.skipped, 0, "every line is a schema-v1 event");

    assert!(!live.spans.is_empty(), "the job was traced");
    assert_eq!(offline.metrics.spans.len(), live.spans.len());
    for (off, on) in offline.metrics.spans.iter().zip(&live.spans) {
        // path, calls, total_ns, self_ns, p50_ns, p90_ns, p99_ns
        assert_eq!(off, on, "span row diverged");
    }
    assert_eq!(offline.metrics.counters, live.counters);
    assert_eq!(offline.metrics.gauges, live.gauges);
    assert_eq!(offline.metrics.caches, live.caches);
    assert_eq!(
        live.convergence.map(|c| c.iterations),
        Some(3),
        "one iteration record per iteration"
    );
    assert_eq!(offline.metrics.convergence, live.convergence);
    assert_eq!(offline.metrics.stop_reason, live.stop_reason);
    assert_eq!(offline.metrics.warnings, live.warnings);
    // And so the rendered documents are identical too.
    assert_eq!(offline.metrics.to_json(), live.to_json());
}
