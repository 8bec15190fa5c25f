//! Teardown-flush regression: a run that dies mid-stream must not lose
//! buffered trace events.
//!
//! `JsonlSink` buffers through a `BufWriter`; its `Drop` impl flushes,
//! and `with_scoped_sink` restores (and thereby drops) the scoped sink
//! on unwind. Together that means a panicking run still leaves a
//! well-formed JSONL file whose last line is a complete event — which
//! is what makes `lsopc analyze` usable on traces of crashed runs.

use lsopc_trace::JsonlSink;
use std::sync::{Arc, Mutex};

/// `lsopc_trace::enabled()` is process-global: while one test holds a
/// scoped sink, the other would see tracing on. One at a time.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn killed_run_flushes_buffered_events_with_last_line_intact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path =
        std::env::temp_dir().join(format!("lsopc_trace_teardown_{}.jsonl", std::process::id()));
    // Enough events to overflow the writer's internal buffer at least
    // once, so a missing drop-flush would visibly truncate the tail.
    const EVENTS: u64 = 500;

    let run = {
        let path = path.clone();
        move || {
            let sink = Arc::new(JsonlSink::create(&path).expect("create sink"));
            lsopc_trace::with_scoped_sink(sink, || {
                for _ in 0..EVENTS {
                    lsopc_trace::count("teardown.event", 1);
                }
                // Die mid-run: no explicit flush ever happens.
                panic!("simulated mid-run failure");
            })
        }
    };
    let outcome = std::panic::catch_unwind(run);
    assert!(outcome.is_err(), "the run was killed");

    // The unwind dropped the sink, which flushed the tail of the buffer.
    let text = std::fs::read_to_string(&path).expect("trace file exists");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), EVENTS as usize, "every event was written");
    assert!(text.ends_with('}') || text.ends_with("}\n"), "no torn tail");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with("{\"v\": 1, "), "line {i} header: {line}");
        assert!(line.ends_with('}'), "line {i} is complete: {line}");
        assert!(
            line.contains("\"name\": \"teardown.event\""),
            "line {i} carries the event: {line}"
        );
    }

    // And the analyzer accepts the crashed run's trace wholesale.
    let report = lsopc_trace::analyze::analyze(&text).expect("crashed trace analyzes");
    assert_eq!(report.events, EVENTS as usize);
    assert_eq!(report.skipped, 0);
    assert_eq!(report.metrics.counters.get("teardown.event"), Some(&EVENTS));
}

#[test]
fn scoped_tracing_state_recovers_after_a_killed_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!lsopc_trace::enabled(), "clean slate");
    let outcome = std::panic::catch_unwind(|| {
        let sink = Arc::new(lsopc_trace::MetricsRegistry::new());
        lsopc_trace::with_scoped_sink(sink, || {
            lsopc_trace::count("doomed", 1);
            panic!("simulated mid-run failure");
        })
    });
    assert!(outcome.is_err());
    // The scope frame unwound cleanly: instrumentation is fully off
    // again, so the disabled fast path (and its overhead bound) holds.
    assert!(!lsopc_trace::enabled(), "scope count restored on unwind");
}
