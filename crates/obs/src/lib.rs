//! Workspace-wide observability: tracing spans and a metrics registry.
//!
//! The paper's methodology rests on *deterministic, inspectable* cycle
//! counts ("we leverage the deterministic runtime in clock cycles of our
//! design", Sec. 5.2) — and trusting any performance work on the
//! reproduction requires the same inspectability for the software that
//! produces those counts. This crate is the substrate every hot layer of
//! the workspace reports through (see `docs/ARCHITECTURE.md` for where
//! spans and metrics attach):
//!
//! * **Spans** — [`span`] returns an RAII [`SpanGuard`]; guards nest via
//!   a thread-local span stack (parent/child links survive into the
//!   emitted [`SpanRecord`]s) and carry monotonic nanosecond timestamps
//!   measured from one process-wide epoch, so spans from different
//!   threads land on one comparable timeline.
//! * **Sinks** — span records are delivered to a process-wide [`Sink`]
//!   ([`set_sink`]/[`clear_sink`]). The default is disabled tracing: no
//!   sink, and [`span`] compiles down to a single relaxed atomic load
//!   (see [`enabled`]), so instrumentation left in hot paths costs
//!   nothing measurable when tracing is off. [`ChromeTraceSink`] records
//!   everything and renders Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! * **Metrics** — [`metrics`] returns the global [`MetricsRegistry`] of
//!   named [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s, all
//!   with lock-free atomic hot paths (the registry lock is only taken to
//!   resolve a name to a handle; call sites cache the `Arc` handle).
//!   [`MetricsSnapshot`] renders a flat JSON document (`--metrics`) or a
//!   one-screen text summary (`experiments all`).
//! * **JSON** — [`json`] is the workspace's one JSON module: the
//!   escaper and number writers the sinks stream through, plus the
//!   [`json::Json`] tree and strict [`json::parse`]r the bench records,
//!   summaries and bundle manifests use.
//!
//! Entry points: [`span`] + [`SpanGuard`] for tracing, [`metrics`] +
//! [`MetricsRegistry`] for metrics, [`set_sink`] + [`ChromeTraceSink`]
//! for capture.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(roboshape_obs::ChromeTraceSink::new());
//! roboshape_obs::set_sink(sink.clone());
//! {
//!     let _outer = roboshape_obs::span("demo", "outer");
//!     let _inner = roboshape_obs::span("demo", "inner"); // child of outer
//! }
//! roboshape_obs::clear_sink();
//! let trace = sink.to_chrome_json();
//! let doc = roboshape_obs::json::parse(&trace).unwrap();
//! let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
//! assert_eq!(events.len(), 2);
//!
//! let evals = roboshape_obs::metrics().counter("demo.evals");
//! evals.add(2);
//! assert!(evals.get() >= 2);
//! ```

#![deny(missing_docs)]

pub mod json;
mod metrics;
mod sink;
mod span;

pub use metrics::{
    metrics, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use sink::{ChromeTraceSink, CollectingSink, CounterRecord, NoopSink, Sink, SpanRecord};
pub use span::{now_ns, span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Whether a sink is installed. A single relaxed load — the entire cost
/// of a [`span`] call while tracing is disabled.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Option<Arc<dyn Sink>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Sink>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// `true` while a [`Sink`] is installed. Instrumentation wrapping work
/// that exists *only* to be observed (e.g. assembling span argument
/// strings) should check this first; [`span`] already does.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-wide span sink and enables tracing.
///
/// Replaces any previously installed sink; spans already in flight are
/// delivered to whichever sink is installed when their guard drops.
pub fn set_sink(sink: Arc<dyn Sink>) {
    *sink_slot().write().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the installed sink (if any) and disables tracing, returning
/// span emission to its near-zero disabled cost.
pub fn clear_sink() {
    ENABLED.store(false, Ordering::Relaxed);
    *sink_slot().write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Delivers a finished span record to the installed sink, if tracing is
/// enabled. [`SpanGuard`] calls this on drop; manual instrumentation that
/// assembles its own [`SpanRecord`]s (e.g. replaying buffered events) may
/// call it directly.
pub fn emit_span(record: &SpanRecord) {
    if !enabled() {
        return;
    }
    if let Some(sink) = sink_slot()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
    {
        sink.span(record);
    }
}

/// Delivers a counter increment to the installed sink, if tracing is
/// enabled (Chrome traces render these as counter tracks). This is about
/// *trace capture*; the queryable totals live in [`metrics`] regardless.
pub fn emit_counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    if let Some(sink) = sink_slot()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
    {
        sink.counter(name, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests in this module (and doctests elsewhere) mutate the global
    /// sink; serialize them.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_emits_nothing() {
        let _l = test_lock();
        clear_sink();
        let collector = Arc::new(CollectingSink::new());
        {
            let _s = span("test", "dropped");
        }
        assert!(!enabled());
        assert_eq!(collector.spans().len(), 0);
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let _l = test_lock();
        let collector = Arc::new(CollectingSink::new());
        set_sink(collector.clone());
        {
            let _outer = span("test", "outer");
            {
                let _inner = span("test", "inner");
            }
            let _sibling = span("test", "sibling");
        }
        clear_sink();
        let spans = collector.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn span_nesting_is_independent_across_threads() {
        let _l = test_lock();
        let collector = Arc::new(CollectingSink::new());
        set_sink(collector.clone());
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    let _outer = span("test", if t % 2 == 0 { "even" } else { "odd" });
                    for _ in 0..8 {
                        let _inner = span("test", "leaf");
                    }
                });
            }
        });
        clear_sink();
        let spans = collector.spans();
        assert_eq!(spans.len(), 4 + 4 * 8);
        // Each leaf's parent is an outer span *on its own thread*.
        for leaf in spans.iter().filter(|s| s.name == "leaf") {
            let parent = spans
                .iter()
                .find(|s| Some(s.id) == leaf.parent)
                .expect("leaf has a recorded parent");
            assert_eq!(parent.thread, leaf.thread);
            assert_ne!(parent.name, "leaf");
        }
        // Thread ids are distinct per spawned thread.
        let mut threads: Vec<u64> = spans
            .iter()
            .filter(|s| s.name != "leaf")
            .map(|s| s.thread)
            .collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4);
    }

    #[test]
    fn sink_swap_under_concurrency_loses_no_wellformedness() {
        let _l = test_lock();
        let a = Arc::new(CollectingSink::new());
        let b = Arc::new(CollectingSink::new());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let _s = span("swap", "work");
                        std::hint::spin_loop();
                    }
                });
            }
            for _ in 0..200 {
                set_sink(a.clone());
                set_sink(b.clone());
                clear_sink();
            }
            stop.store(true, Ordering::Relaxed);
        });
        clear_sink();
        // No panics, and every record that landed anywhere is complete.
        for s in a.spans().iter().chain(b.spans().iter()) {
            assert_eq!(s.name, "work");
            assert_eq!(s.cat, "swap");
            assert!(s.id > 0);
        }
    }

    #[test]
    fn emit_counter_reaches_the_sink() {
        let _l = test_lock();
        let collector = Arc::new(CollectingSink::new());
        set_sink(collector.clone());
        emit_counter("test.hits", 3);
        emit_counter("test.hits", 2);
        clear_sink();
        emit_counter("test.hits", 100); // dropped: tracing disabled
        let counters = collector.counters();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].name, "test.hits");
        assert_eq!(counters[0].delta + counters[1].delta, 5);
    }
}
