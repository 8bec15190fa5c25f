//! Zero-dependency tracing and metrics for the lsopc workspace.
//!
//! The workspace needs per-stage timing (FFT passes, kernel folds, the
//! optimizer phases), cache/pool counters, and per-iteration optimizer
//! telemetry — without pulling in external `tracing`/`log` crates and
//! without perturbing the bit-for-bit determinism contract. This crate
//! provides exactly that substrate:
//!
//! - [`span!`] — an RAII scope timer. Guards push onto a thread-local
//!   span stack, so nested spans produce hierarchical `/`-joined paths
//!   (`optimize.iter/litho.cost_and_gradient/fft2d.forward`). Worker
//!   threads of the `lsopc-parallel` pool inherit the submitting
//!   caller's path with its scope ([`task_scope`]), so pool-side work
//!   nests under the span that dispatched it.
//! - [`count`]/[`gauge`] — monotonic counters and last-value gauges
//!   (cache hits/misses, pool jobs, chunks claimed, guard rollbacks).
//! - [`warn`] — structured warnings that route through the active sink,
//!   falling back to stderr when no sink is in scope.
//! - [`iter`] — one structured record per optimizer iteration.
//!
//! Events flow to the [`TraceSink`] of a thread-scoped frame entered with
//! [`with_scoped_sink`]; there is no process-global sink. Scopes are the
//! multi-tenant seam: two concurrent jobs in one process each wrap their
//! run in a scope and receive separate event streams (the CLI scopes its
//! `--trace` and `--metrics` sinks the same way). Scopes hop threads
//! with the work: [`task_scope`]/[`with_task_scope`] capture the calling
//! thread's scope (path prefix + sink) so the `lsopc-parallel` pool can
//! re-enter it on its workers. With no scope open anywhere, every
//! instrumentation point is one relaxed atomic load and a branch — no
//! clock read, no allocation, no locking — which is what makes it safe
//! to leave the instrumentation compiled into the hot paths
//! unconditionally.
//!
//! Determinism: the layer only *observes*. It never changes chunking,
//! iteration order, or arithmetic, so enabling any sink leaves optimizer
//! output bit-identical (covered by `trace_determinism` tests in
//! `lsopc-core`).

pub mod analyze;
mod histogram;
mod jsonl;
mod registry;
mod report;

pub use histogram::{Histogram, NUM_BUCKETS, RELATIVE_ERROR_BOUND};
pub use jsonl::JsonlSink;
pub use registry::MetricsRegistry;
pub use report::{CacheRatio, Convergence, MetricsReport, SpanRow};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Version of the event schema emitted by [`JsonlSink`]. Bump when the
/// shape of serialized events changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// One telemetry event. Sinks receive events by reference and must not
/// block for long: span exits on hot paths call straight into the sink.
///
/// Events carry no timestamp; a sink that needs one (e.g. the JSONL
/// stream) assigns it at write time under its own lock, which also makes
/// the written timestamps monotonically non-decreasing across threads.
///
/// Every string borrows for `'a`: producers pass `'static` names, and
/// [`analyze`] replays a JSONL line as the same event with strings
/// borrowed from the parsed line.
#[derive(Clone, Debug, PartialEq)]
pub enum Event<'a> {
    /// A span closed: `path` is the full `/`-joined hierarchy including
    /// the span's own name; `dur_ns` is its wall-clock duration.
    Span {
        /// Leaf name as written at the instrumentation point.
        name: &'a str,
        /// Full hierarchical path, `/`-joined, including `name`.
        path: &'a str,
        /// Wall-clock duration in nanoseconds.
        dur_ns: u64,
    },
    /// A monotonic counter increment.
    Count {
        /// Counter name, e.g. `cache.plan.hit`.
        name: &'a str,
        /// Increment (usually 1).
        delta: u64,
    },
    /// A last-value-wins gauge sample.
    Gauge {
        /// Gauge name, e.g. `pool.job.occupancy`.
        name: &'a str,
        /// Sampled value.
        value: f64,
    },
    /// A structured warning.
    Warn {
        /// Subsystem that raised it, e.g. `parallel`.
        origin: &'a str,
        /// Human-readable message.
        message: &'a str,
    },
    /// Per-iteration optimizer telemetry.
    Iter(&'a IterRecord),
}

/// One optimizer iteration, as reported by `lsopc-core`.
///
/// Mirrors the fields of `IterationRecord` that matter for telemetry;
/// kept dependency-free here so `lsopc-core` can depend on this crate
/// and not the other way around.
#[derive(Clone, Debug, PartialEq)]
pub struct IterRecord {
    /// Iteration index, 0-based.
    pub iteration: usize,
    /// Total cost `nominal + pvb` driving descent.
    pub cost_total: f64,
    /// Nominal-dose term of the cost.
    pub cost_nominal: f64,
    /// Process-variation-band term of the cost.
    pub cost_pvb: f64,
    /// Effective `λ_t` multiplier (1.0 until the guard backs off).
    pub lambda_scale: f64,
    /// Conjugate-gradient β (0.0 on restarts).
    pub beta: f64,
    /// CFL time step Δt taken this iteration.
    pub time_step: f64,
    /// Peak |velocity| before the CFL clamp.
    pub max_velocity: f64,
    /// True when the health guard rolled this iteration back.
    pub rolled_back: bool,
}

/// Receives every event emitted while it is in scope. Implementations
/// must be thread-safe: spans close concurrently from pool workers.
pub trait TraceSink: Send + Sync {
    /// Handles one event. Called from arbitrary threads.
    fn event(&self, event: &Event<'_>);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&self) {}
}

/// Broadcasts every event to each inner sink in order. Lets `--trace`
/// (JSONL stream) and `--metrics` (registry aggregate) run in the same
/// process off a single instrumentation pass.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// Builds a fan-out over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Self { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn event(&self, event: &Event<'_>) {
        for sink in &self.sinks {
            sink.event(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// Number of live scoped-sink frames across all threads. Non-zero turns
/// [`enabled`] on so instrumentation points take the slow path and
/// consult the thread-local scope.
static SCOPED_COUNT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Names of the spans currently open on this thread, oldest first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Path prefix inherited from another thread (pool workers), if any.
    static BASE: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
    /// Sink scoped to this thread's current [`with_scoped_sink`] frame.
    static SCOPED: RefCell<Option<Arc<dyn TraceSink>>> = const { RefCell::new(None) };
}

/// True when any sink may receive events: some thread is inside a
/// scoped-sink frame. One relaxed atomic load; this is the disabled-path
/// cost of every instrumentation point.
#[inline(always)]
pub fn enabled() -> bool {
    SCOPED_COUNT.load(Ordering::Relaxed) > 0
}

fn scoped_sink() -> Option<Arc<dyn TraceSink>> {
    if !enabled() {
        return None;
    }
    SCOPED.with(|s| s.borrow().clone())
}

/// Emits one event to this thread's scoped sink, if it is inside a
/// scope. Cheap no-op when disabled.
#[inline]
pub fn emit(event: &Event<'_>) {
    if let Some(sink) = scoped_sink() {
        sink.event(event);
    }
}

/// Increments the monotonic counter `name` by `delta`.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    emit(&Event::Count { name, delta });
}

/// Samples the gauge `name` at `value` (last value wins in aggregates).
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    emit(&Event::Gauge { name, value });
}

/// Reports one optimizer iteration.
#[inline]
pub fn iter(record: &IterRecord) {
    if !enabled() {
        return;
    }
    emit(&Event::Iter(record));
}

/// Raises a structured warning. Routed through the scoped sink when
/// there is one; otherwise printed to stderr so operational warnings
/// (invalid `LSOPC_THREADS`, …) are never silently dropped.
pub fn warn(origin: &'static str, message: &str) {
    match scoped_sink() {
        Some(sink) => sink.event(&Event::Warn { origin, message }),
        // allow-print: stderr fallback when no trace sink is reachable.
        None => eprintln!("warning: [{origin}] {message}"),
    }
}

/// Opens a timed span; the span closes (and reports) when the returned
/// guard drops. Prefer `let _span = span!("name");` — binding to `_`
/// would drop immediately.
///
/// `$name` must be a `&'static str` literal; hierarchy comes from
/// nesting at runtime, not from the name.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// RAII guard for one open span. Created by [`span!`].
///
/// Guards must drop in LIFO order on a given thread (the natural order
/// for scope-based usage); out-of-order drops would mis-attribute paths.
#[must_use = "a span guard times the scope it lives in; binding to `_` drops it immediately"]
pub struct SpanGuard {
    /// `None` when tracing was disabled at entry: the drop is then free.
    start: Option<Instant>,
    name: &'static str,
}

impl SpanGuard {
    /// Opens a span named `name` if tracing is enabled.
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return Self { start: None, name };
        }
        STACK.with(|stack| stack.borrow_mut().push(name));
        Self {
            start: Some(Instant::now()),
            name,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(
                stack.last(),
                Some(&self.name),
                "span guards dropped out of order"
            );
            stack.pop();
            joined_path(&stack, Some(self.name))
        });
        emit(&Event::Span {
            name: self.name,
            path: &path,
            dur_ns,
        });
    }
}

/// Joins the inherited base path, the open-span stack, and an optional
/// leaf into one `/`-separated path.
fn joined_path(stack: &[&'static str], leaf: Option<&'static str>) -> String {
    let base = BASE.with(|b| b.borrow().clone());
    let mut path = String::new();
    if let Some(base) = &base {
        path.push_str(base);
    }
    for name in stack.iter().copied().chain(leaf) {
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(name);
    }
    path
}

/// Captures the calling thread's current span path as a cheap clonable
/// token, or `None` when tracing is disabled or no span is open.
fn current_path_token() -> Option<Arc<str>> {
    if !enabled() {
        return None;
    }
    let path = STACK.with(|stack| joined_path(&stack.borrow(), None));
    if path.is_empty() {
        None
    } else {
        Some(Arc::from(path.as_str()))
    }
}

/// Runs `f` with this thread's span paths rooted under `base` (a token
/// from [`current_path_token`] on another thread). The previous base is
/// restored afterwards, including on panic. `None` runs `f` unchanged.
fn with_base_path<R>(base: Option<Arc<str>>, f: impl FnOnce() -> R) -> R {
    let Some(base) = base else { return f() };
    struct Restore(Option<Arc<str>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BASE.with(|b| *b.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(BASE.with(|b| b.borrow_mut().replace(base)));
    f()
}

/// Runs `f` with `sink` as this thread's scoped sink. While inside the
/// scope, every event emitted on this thread (and on pool workers that
/// re-enter the scope via [`with_task_scope`]) is delivered to `sink`.
/// Scopes nest: the previous scoped sink is restored afterwards,
/// including on panic.
///
/// This is the multi-tenant seam: concurrent jobs on different threads
/// each get their own event stream without touching process-global
/// state.
pub fn with_scoped_sink<R>(sink: Arc<dyn TraceSink>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn TraceSink>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| *s.borrow_mut() = self.0.take());
            SCOPED_COUNT.fetch_sub(1, Ordering::Relaxed);
        }
    }
    SCOPED_COUNT.fetch_add(1, Ordering::Relaxed);
    let _restore = Restore(SCOPED.with(|s| s.borrow_mut().replace(sink)));
    f()
}

/// Runs `f` with `sink` *layered over* this thread's current scoped
/// sink: while inside, events reach both `sink` and whatever scoped
/// sink was already in force. This is how a nested collector — e.g. the
/// per-job metrics registry inside `Engine::submit` — observes a run
/// without shadowing the stream an enclosing scope set up (such as the
/// CLI's `--trace` sink).
///
/// Contrast with [`with_scoped_sink`], which *replaces* the thread's
/// scoped sink for the duration of the frame.
pub fn with_layered_scoped_sink<R>(sink: Arc<dyn TraceSink>, f: impl FnOnce() -> R) -> R {
    match scoped_sink() {
        Some(existing) => {
            let layered = Arc::new(FanoutSink::new(vec![existing, sink]));
            with_scoped_sink(layered, f)
        }
        None => with_scoped_sink(sink, f),
    }
}

/// A captured trace scope: the calling thread's span-path prefix plus
/// its scoped sink, if any. Cheap to clone; carried by `lsopc-parallel`
/// jobs so worker threads report into the submitting caller's scope.
#[derive(Clone)]
pub struct TaskScope {
    base: Option<Arc<str>>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for TaskScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskScope")
            .field("base", &self.base)
            .field("sink", &self.sink.as_ref().map(|_| "dyn TraceSink"))
            .finish()
    }
}

/// Captures the calling thread's trace scope — current span path and
/// scoped sink — or `None` when there is nothing to propagate. Pair
/// with [`with_task_scope`] on the receiving thread.
pub fn task_scope() -> Option<TaskScope> {
    let sink = scoped_sink();
    let base = current_path_token();
    if base.is_none() && sink.is_none() {
        None
    } else {
        Some(TaskScope { base, sink })
    }
}

/// Runs `f` inside `scope` (a token from [`task_scope`] on another
/// thread): span paths root under the captured prefix and events route
/// to the captured scoped sink. `None` runs `f` unchanged. Previous
/// thread state is restored afterwards, including on panic.
pub fn with_task_scope<R>(scope: Option<TaskScope>, f: impl FnOnce() -> R) -> R {
    let Some(scope) = scope else { return f() };
    let TaskScope { base, sink } = scope;
    let run = move || with_base_path(base, f);
    match sink {
        Some(sink) => with_scoped_sink(sink, run),
        None => run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests: any open scope turns [`enabled`] on for the
    /// whole process, and some tests assert that it is off.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_registry(f: impl FnOnce()) -> Arc<MetricsRegistry> {
        let _guard = serial();
        let sink = Arc::new(MetricsRegistry::new());
        with_scoped_sink(sink.clone(), f);
        sink
    }

    #[test]
    fn disabled_span_reports_nothing() {
        let _guard = serial();
        assert!(!enabled());
        let _span = span!("quiet");
        drop(_span);
        assert!(current_path_token().is_none());
    }

    #[test]
    fn nested_spans_produce_hierarchical_paths() {
        let sink = with_registry(|| {
            let _outer = span!("outer");
            {
                let _inner = span!("inner");
            }
        });
        let report = sink.report();
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"outer"), "paths: {paths:?}");
        assert!(paths.contains(&"outer/inner"), "paths: {paths:?}");
    }

    #[test]
    fn repeated_spans_aggregate_counts() {
        let sink = with_registry(|| {
            for _ in 0..5 {
                let _span = span!("work");
            }
        });
        let report = sink.report();
        let stat = report.spans.iter().find(|s| s.path == "work").unwrap();
        assert_eq!(stat.calls, 5);
    }

    #[test]
    fn path_token_captures_only_open_spans() {
        with_registry(|| {
            {
                let _outer = span!("submit");
            }
            assert!(
                current_path_token().is_none(),
                "token must capture only open spans"
            );
            let _outer = span!("submit");
            assert_eq!(current_path_token().as_deref(), Some("submit"));
        });
    }

    #[test]
    fn base_path_restored_after_scope() {
        with_registry(|| {
            with_base_path(Some(Arc::from("root")), || {
                with_base_path(Some(Arc::from("deeper")), || {
                    let _span = span!("x");
                });
                // Outer base must be back in force.
                let _outer = span!("y");
                assert_eq!(current_path_token().as_deref(), Some("root/y"));
            });
            assert!(current_path_token().is_none());
        });
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let sink = with_registry(|| {
            count("cache.hit", 1);
            count("cache.hit", 2);
            gauge("threads", 4.0);
            gauge("threads", 8.0);
        });
        let report = sink.report();
        assert_eq!(report.counters.get("cache.hit"), Some(&3));
        assert_eq!(report.gauges.get("threads"), Some(&8.0));
    }

    #[test]
    fn warn_routes_to_the_scoped_sink() {
        let sink = with_registry(|| {
            warn("parallel", "requested 0 threads");
        });
        assert_eq!(
            sink.report().warnings,
            [("parallel".to_string(), "requested 0 threads".to_string())]
        );
    }

    #[test]
    fn iter_records_fold_into_convergence() {
        let sink = with_registry(|| {
            for i in 0..3 {
                iter(&IterRecord {
                    iteration: i,
                    cost_total: 10.0 - i as f64,
                    cost_nominal: 8.0,
                    cost_pvb: 2.0,
                    lambda_scale: 1.0,
                    beta: 0.5,
                    time_step: 0.1,
                    max_velocity: 3.0,
                    rolled_back: false,
                });
            }
        });
        let convergence = sink.report().convergence.expect("iterations seen");
        assert_eq!(convergence.iterations, 3);
        assert_eq!(convergence.first_cost, 10.0);
        assert_eq!(convergence.last_cost, 8.0);
    }

    #[test]
    fn fanout_reaches_all_sinks() {
        let a = Arc::new(MetricsRegistry::new());
        let b = Arc::new(MetricsRegistry::new());
        let fanout = FanoutSink::new(vec![a.clone(), b.clone()]);
        fanout.event(&Event::Count {
            name: "n",
            delta: 2,
        });
        assert_eq!(a.counter("n"), 2);
        assert_eq!(b.counter("n"), 2);
    }

    #[test]
    fn scoped_sink_captures_and_ends_with_its_frame() {
        let _guard = serial();
        let sink = Arc::new(MetricsRegistry::new());
        with_scoped_sink(sink.clone(), || {
            assert!(enabled());
            let _span = span!("scoped");
            count("scoped.hits", 3);
        });
        let report = sink.report();
        assert!(report.spans.iter().any(|s| s.path == "scoped"));
        assert_eq!(report.counters.get("scoped.hits"), Some(&3));
        // Scope exited: thread is back to fully disabled.
        assert!(!enabled());
    }

    #[test]
    fn scoped_sinks_isolate_concurrent_threads() {
        let _guard = serial();
        let a = Arc::new(MetricsRegistry::new());
        let b = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            let (a, b) = (a.clone(), b.clone());
            scope.spawn(move || {
                with_scoped_sink(a, || {
                    count("stream.a", 1);
                })
            });
            scope.spawn(move || {
                with_scoped_sink(b, || {
                    count("stream.b", 1);
                })
            });
        });
        assert_eq!(a.counter("stream.a"), 1);
        assert_eq!(a.counter("stream.b"), 0);
        assert_eq!(b.counter("stream.b"), 1);
        assert_eq!(b.counter("stream.a"), 0);
    }

    #[test]
    fn task_scope_carries_sink_and_path_to_workers() {
        let _guard = serial();
        let sink = Arc::new(MetricsRegistry::new());
        with_scoped_sink(sink.clone(), || {
            let _outer = span!("submit");
            let scope = task_scope();
            assert!(scope.is_some());
            std::thread::scope(|threads| {
                threads.spawn(move || {
                    with_task_scope(scope, || {
                        let _span = span!("chunk");
                    });
                });
            });
        });
        let report = sink.report();
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"submit/chunk"), "paths: {paths:?}");
    }

    #[test]
    fn layered_scope_reaches_both_sinks() {
        let _guard = serial();
        let outer = Arc::new(MetricsRegistry::new());
        let inner = Arc::new(MetricsRegistry::new());
        with_scoped_sink(outer.clone(), || {
            with_layered_scoped_sink(inner.clone(), || count("layered", 1));
            count("outer.only", 1);
        });
        // The layered frame must not shadow the enclosing scope…
        assert_eq!(outer.counter("layered"), 1);
        assert_eq!(inner.counter("layered"), 1);
        // …and must end with the frame.
        assert_eq!(inner.counter("outer.only"), 0);
        assert_eq!(outer.counter("outer.only"), 1);
        assert!(!enabled());
    }

    #[test]
    fn layered_scope_without_enclosing_scope_is_plain() {
        let _guard = serial();
        let sink = Arc::new(MetricsRegistry::new());
        with_layered_scoped_sink(sink.clone(), || count("solo", 1));
        assert_eq!(sink.counter("solo"), 1);
        assert!(!enabled());
    }

    #[test]
    fn scoped_sink_restored_after_nested_scope() {
        let _guard = serial();
        let outer = Arc::new(MetricsRegistry::new());
        let inner = Arc::new(MetricsRegistry::new());
        with_scoped_sink(outer.clone(), || {
            with_scoped_sink(inner.clone(), || count("nested", 1));
            count("outer.after", 1);
        });
        assert_eq!(inner.counter("nested"), 1);
        assert_eq!(outer.counter("nested"), 0);
        assert_eq!(outer.counter("outer.after"), 1);
        assert!(!enabled());
    }
}
