//! Span sinks: where finished spans go.

use crate::json;
use std::sync::Mutex;

/// One finished span, as delivered to a [`Sink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. a pipeline stage: `"schedules"`).
    pub name: &'static str,
    /// Category — by convention the emitting subsystem (`"pipeline"`,
    /// `"sim"`, `"taskgraph"`, `"dse"`, `"cli"`…).
    pub cat: &'static str,
    /// Start, in monotonic nanoseconds since the process tracing epoch
    /// ([`now_ns`](crate::now_ns)).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small dense id of the emitting thread.
    pub thread: u64,
    /// Unique span id (process-wide).
    pub id: u64,
    /// Id of the span this one nested under, if any.
    pub parent: Option<u64>,
}

/// One counter increment, as delivered to a [`Sink`] via
/// [`emit_counter`](crate::emit_counter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRecord {
    /// Metric name (e.g. `"pipeline.ir.hits"`).
    pub name: String,
    /// Timestamp of the increment, nanoseconds since the tracing epoch.
    pub ts_ns: u64,
    /// Increment amount.
    pub delta: u64,
    /// Running total for this name *within this sink's lifetime* (what
    /// Chrome renders as the counter-track value).
    pub total: u64,
}

/// A consumer of finished spans and counter increments.
///
/// Implementations must be cheap and thread-safe: spans arrive from every
/// instrumented thread, at drop time, with no buffering in between.
/// `roboshape-pipeline`'s `PipelineObserver` is a `Sink` too — the same
/// event vocabulary feeds both per-pipeline counters and whole-process
/// traces.
pub trait Sink: Send + Sync {
    /// Consumes one finished span.
    fn span(&self, span: &SpanRecord);

    /// Consumes one counter increment. Default: ignored (most sinks only
    /// care about spans).
    fn counter(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }
}

/// A sink that discards everything. Installing it is equivalent to
/// [`clear_sink`](crate::clear_sink) except that [`enabled`](crate::enabled)
/// stays `true` — useful for measuring instrumentation overhead itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn span(&self, _span: &SpanRecord) {}
}

/// A sink that buffers every record in memory (test helper, and the base
/// other sinks snapshot from).
#[derive(Debug, Default)]
pub struct CollectingSink {
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<Vec<CounterRecord>>,
}

impl CollectingSink {
    /// An empty collector.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Snapshot of the collected spans, in arrival order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Snapshot of the collected counter increments, in arrival order.
    pub fn counters(&self) -> Vec<CounterRecord> {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

impl Sink for CollectingSink {
    fn span(&self, span: &SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(*span);
    }

    fn counter(&self, name: &str, delta: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let total = counters
            .iter()
            .rev()
            .find(|c| c.name == name)
            .map_or(0, |c| c.total)
            .saturating_add(delta);
        counters.push(CounterRecord {
            name: name.to_string(),
            ts_ns: crate::now_ns(),
            delta,
            total,
        });
    }
}

/// A sink that records spans and counters and renders them as Chrome
/// `trace_event` JSON — the format `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev) load directly (the CLI's
/// `--trace <file>` output).
///
/// Spans become complete (`"ph":"X"`) events with microsecond `ts`/`dur`;
/// counter increments become counter (`"ph":"C"`) events carrying the
/// running total. Nesting is implicit in Chrome's format (same `tid`,
/// containing time interval); the explicit span/parent ids are preserved
/// in each event's `args` for programmatic consumers.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    inner: CollectingSink,
}

impl ChromeTraceSink {
    /// An empty trace.
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::default()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.spans().len()
    }

    /// `true` if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded spans, in arrival order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans()
    }

    /// Renders the recorded events as a Chrome `trace_event` JSON
    /// document (JSON-object form, `displayTimeUnit` milliseconds).
    pub fn to_chrome_json(&self) -> String {
        let spans = self.inner.spans();
        let counters = self.inner.counters();
        let mut out = String::with_capacity(128 + spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for s in &spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::write_str(&mut out, s.name);
            out.push_str(",\"cat\":");
            json::write_str(&mut out, s.cat);
            out.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&s.thread.to_string());
            out.push_str(",\"ts\":");
            json::write_us(&mut out, s.start_ns);
            out.push_str(",\"dur\":");
            json::write_us(&mut out, s.dur_ns);
            out.push_str(",\"args\":{\"id\":");
            out.push_str(&s.id.to_string());
            if let Some(parent) = s.parent {
                out.push_str(",\"parent\":");
                out.push_str(&parent.to_string());
            }
            out.push_str("}}");
        }
        for c in &counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json::write_str(&mut out, &c.name);
            out.push_str(",\"cat\":\"metrics\",\"ph\":\"C\",\"pid\":1,\"ts\":");
            json::write_us(&mut out, c.ts_ns);
            out.push_str(",\"args\":{\"value\":");
            out.push_str(&c.total.to_string());
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

impl Sink for ChromeTraceSink {
    fn span(&self, span: &SpanRecord) {
        self.inner.span(span);
    }

    fn counter(&self, name: &str, delta: u64) {
        self.inner.counter(name, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn chrome_json_is_valid_and_carries_nesting_args() {
        let sink = ChromeTraceSink::new();
        sink.span(&SpanRecord {
            name: "outer",
            cat: "test",
            start_ns: 1_000,
            dur_ns: 9_000,
            thread: 1,
            id: 1,
            parent: None,
        });
        sink.span(&SpanRecord {
            name: "inner \"quoted\"",
            cat: "test",
            start_ns: 2_000,
            dur_ns: 1_500,
            thread: 1,
            id: 2,
            parent: Some(1),
        });
        sink.counter("test.hits", 4);
        let out = sink.to_chrome_json();
        assert!(out.contains("\"ts\":1,\"dur\":9")); // ns → µs
        let doc = json::parse(&out).expect("well-formed JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let field = |i: usize, k: &str| events[i].get(k).cloned();
        assert_eq!(events.len(), 3);
        assert_eq!(field(0, "ph"), Some(Json::from("X")));
        assert_eq!(field(1, "name"), Some(Json::from("inner \"quoted\"")));
        assert_eq!(field(1, "ts"), Some(Json::Num(2.0)));
        assert_eq!(field(1, "dur"), Some(Json::Num(1.5)));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Json::as_f64), Some(1.0));
        assert_eq!(field(2, "ph"), Some(Json::from("C")));
        assert_eq!(field(2, "name"), Some(Json::from("test.hits")));
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
    }

    #[test]
    fn collecting_sink_tracks_running_totals() {
        let sink = CollectingSink::new();
        sink.counter("a", 2);
        sink.counter("b", 10);
        sink.counter("a", 3);
        let counters = sink.counters();
        assert_eq!(counters[0].total, 2);
        assert_eq!(counters[1].total, 10);
        assert_eq!(counters[2].total, 5);
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let sink = ChromeTraceSink::new();
        let doc = json::parse(&sink.to_chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents"), Some(&Json::Arr(vec![])));
        assert!(sink.is_empty());
    }
}
