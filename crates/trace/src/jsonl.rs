//! JSONL event-stream sink: one JSON object per line, append-only.
//!
//! Timestamps are assigned *inside* the writer lock and clamped to be
//! monotonically non-decreasing, so a stream written by many threads is
//! still globally ordered by `ts_ns` — consumers can replay it without
//! sorting. Every line carries the schema version as `"v"`.
//!
//! A failed write is never silent: the sink keeps the first I/O error
//! and stops writing, and [`JsonlSink::take_error`] hands it to the
//! owner at teardown (the CLI turns it into an I/O exit code).

use crate::{Event, TraceSink};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

struct State<W: Write> {
    writer: W,
    last_ts: u64,
    /// The first write or flush error; once set, nothing more is written.
    error: Option<std::io::Error>,
}

impl<W: Write> State<W> {
    /// Runs one I/O step unless an earlier one failed, keeping the first
    /// error.
    fn io(&mut self, step: impl FnOnce(&mut W) -> std::io::Result<()>) {
        if self.error.is_none() {
            self.error = step(&mut self.writer).err();
        }
    }
}

/// Streams every event as one JSON line to `W` (typically a buffered
/// file behind `--trace <path.jsonl>`).
pub struct JsonlSink<W: Write + Send> {
    origin: Instant,
    state: Mutex<State<W>>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer`; timestamps count nanoseconds from this call.
    pub fn new(writer: W) -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State {
                writer,
                last_ts: 0,
                error: None,
            }),
        }
    }

    /// The first write or flush error the sink hit, if any, leaving
    /// none behind. Events after that error were dropped, so a caller
    /// that gets `Some` knows the stream is incomplete.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .error
            .take()
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and streams events to it buffered.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file)))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn event(&self, event: &Event<'_>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        // Clamp under the lock: a thread that measured an earlier clock
        // value but lost the race to the lock must not write backwards.
        let now = self.origin.elapsed().as_nanos() as u64;
        let ts = now.max(state.last_ts);
        state.last_ts = ts;
        let line = render_line(ts, event);
        state.io(|w| w.write_all(line.as_bytes()));
    }

    fn flush(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.io(W::flush);
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Nobody is left to report a failure to; the owner reads
        // `take_error` after its own flush, before the drop.
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        state.io(W::flush);
    }
}

fn render_line(ts: u64, event: &Event<'_>) -> String {
    let v = crate::SCHEMA_VERSION;
    let head = format!("{{\"v\": {v}, \"ts_ns\": {ts}, ");
    let body = match event {
        Event::Span { name, path, dur_ns } => format!(
            "\"kind\": \"span\", \"name\": {}, \"path\": {}, \"dur_ns\": {}",
            json_string(name),
            json_string(path),
            dur_ns
        ),
        Event::Count { name, delta } => format!(
            "\"kind\": \"count\", \"name\": {}, \"delta\": {}",
            json_string(name),
            delta
        ),
        Event::Gauge { name, value } => format!(
            "\"kind\": \"gauge\", \"name\": {}, \"value\": {}",
            json_string(name),
            json_f64(*value)
        ),
        Event::Warn { origin, message } => format!(
            "\"kind\": \"warn\", \"origin\": {}, \"message\": {}",
            json_string(origin),
            json_string(message)
        ),
        Event::Iter(rec) => format!(
            "\"kind\": \"iter\", \"iteration\": {}, \"cost_total\": {}, \"cost_nominal\": {}, \"cost_pvb\": {}, \"lambda_scale\": {}, \"beta\": {}, \"time_step\": {}, \"max_velocity\": {}, \"rolled_back\": {}",
            rec.iteration,
            json_f64(rec.cost_total),
            json_f64(rec.cost_nominal),
            json_f64(rec.cost_pvb),
            json_f64(rec.lambda_scale),
            json_f64(rec.beta),
            json_f64(rec.time_step),
            json_f64(rec.max_velocity),
            rec.rolled_back
        ),
    };
    format!("{head}{body}}}\n")
}

/// Quotes and escapes `s` as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number. JSON has no NaN/Inf, so those
/// serialize as `null`.
pub(crate) fn json_f64(value: f64) -> String {
    if value.is_finite() {
        let mut s = format!("{value}");
        // `{}` prints integral floats without a dot; keep them numbers
        // but make them round-trip as floats for strict readers.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A `Write` target the test can inspect.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub(crate) Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines(buf: &SharedBuf) -> Vec<String> {
        String::from_utf8(buf.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn events_serialize_one_line_each_with_version() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        sink.event(&Event::Count {
            name: "c",
            delta: 1,
        });
        sink.event(&Event::Span {
            name: "s",
            path: "a/s",
            dur_ns: 42,
        });
        sink.flush();
        let lines = lines(&buf);
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"v\": 1, \"ts_ns\": "), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
        }
        assert!(lines[1].contains("\"path\": \"a/s\""));
    }

    #[test]
    fn timestamps_never_decrease() {
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonlSink::new(buf.clone()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        sink.event(&Event::Count {
                            name: "n",
                            delta: i,
                        });
                    }
                });
            }
        });
        sink.flush();
        let mut last = 0u64;
        for line in lines(&buf) {
            let ts = parse_ts(&line);
            assert!(ts >= last, "ts went backwards: {ts} < {last}");
            last = ts;
        }
    }

    fn parse_ts(line: &str) -> u64 {
        let key = "\"ts_ns\": ";
        let start = line.find(key).unwrap() + key.len();
        line[start..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    }

    /// A writer whose device is full after `room` bytes.
    struct Full {
        room: usize,
        written: Vec<u8>,
    }

    impl Write for Full {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "device full",
                ));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn first_write_error_is_kept_and_later_events_are_dropped() {
        let sink = JsonlSink::new(Full {
            room: 100,
            written: Vec::new(),
        });
        assert!(sink.take_error().is_none(), "no error before any write");
        for _ in 0..3 {
            sink.event(&Event::Count {
                name: "c",
                delta: 1,
            });
        }
        sink.flush();
        let err = sink.take_error().expect("the full device was reported");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert!(sink.take_error().is_none(), "the error is handed out once");
        // One complete line, part of the second, and nothing after the
        // error: the third event was never written.
        let written = &sink.state.lock().unwrap().writer.written;
        assert_eq!(written.len(), 100);
        assert_eq!(written.iter().filter(|&&b| b == b'\n').count(), 1);
    }

    #[test]
    fn flush_error_is_kept() {
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("flush refused"))
            }
        }
        let sink = JsonlSink::new(FailingFlush);
        sink.event(&Event::Count {
            name: "c",
            delta: 1,
        });
        sink.flush();
        assert_eq!(
            sink.take_error().map(|e| e.to_string()),
            Some("flush refused".to_string())
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
    }
}
