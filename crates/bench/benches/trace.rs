//! Cost of the tracing layer itself.
//!
//! `disabled_*` measures the fast path every instrumentation point pays
//! when no sink is installed (one relaxed atomic load) — the number the
//! <1% production-overhead budget rests on — and `jsonl_span` the full
//! per-event cost of the event-stream writer. The registry's per-event
//! cost and a registry-traced simulation pass next to its untraced twin
//! are measured by `benches/telemetry.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");

    // The disabled path: what every span!/count() costs in production
    // when no --trace/--metrics sink is installed.
    lsopc_trace::uninstall();
    group.bench_function("disabled_span", |b| {
        b.iter(|| {
            let _ = std::hint::black_box(lsopc_trace::span!("bench.probe"));
        })
    });
    group.bench_function("disabled_count", |b| {
        b.iter(|| lsopc_trace::count("bench.probe", std::hint::black_box(1)))
    });

    // Event-stream writer cost (to an in-memory buffer, not disk, so
    // the measurement is the serialization + lock, not the filesystem).
    let jsonl = Arc::new(lsopc_trace::JsonlSink::new(Vec::new()));
    lsopc_trace::install(jsonl);
    group.bench_function("jsonl_span", |b| {
        b.iter(|| {
            let _ = std::hint::black_box(lsopc_trace::span!("bench.probe"));
        })
    });
    lsopc_trace::uninstall();

    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
