//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API. A span records its layer, operation, start, end, parent
//! span and request id; spans nest per thread. Nothing is recorded
//! unless [`enable`] was called, so untraced runs pay one atomic load
//! per call site. At the end of a traced run the spans are written as a
//! Chrome trace (`chrome://tracing`, Perfetto) and folded into per-layer
//! self times.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer the call went into (`serve.proto`, `dse`, …).
    pub layer: &'static str,
    /// Operation within the layer.
    pub op: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// This span's id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 at the root.
    pub parent: u64,
    /// Request the span served, 0 when it serves none.
    pub request: u64,
    /// Recording thread.
    pub tid: u32,
}

type Buffer = Arc<Mutex<Vec<SpanRecord>>>;

struct ThreadState {
    tid: u32,
    /// Open spans: (id, request).
    stack: Vec<(u64, u64)>,
    buffer: Buffer,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn buffers() -> &'static Mutex<Vec<Buffer>> {
    static BUFFERS: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording spans on every thread.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording; spans already recorded are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
#[must_use = "a span closes when dropped"]
pub struct Span {
    open: Option<(&'static str, &'static str, u64, u64, u64, u64)>,
}

/// Opens a span for a call into `layer`. `request` tags the request it
/// serves; 0 inherits the enclosing span's request.
pub fn span(layer: &'static str, op: &'static str, request: u64) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = STATE.with(|cell| {
        let mut cell = cell.borrow_mut();
        let state = cell.get_or_insert_with(|| {
            let buffer = Buffer::default();
            buffers()
                .lock()
                .expect("span registry poisoned")
                .push(Arc::clone(&buffer));
            ThreadState {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                stack: Vec::new(),
                buffer,
            }
        });
        let (parent, inherited) = state.stack.last().copied().unwrap_or((0, 0));
        let request = if request == 0 { inherited } else { request };
        state.stack.push((id, request));
        (parent, request)
    });
    Span {
        open: Some((layer, op, now_ns(), id, parent, request)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((layer, op, start_ns, id, parent, request)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STATE.with(|cell| {
            if let Some(state) = cell.borrow_mut().as_mut() {
                state.stack.pop();
                if let Ok(mut buffer) = state.buffer.lock() {
                    buffer.push(SpanRecord {
                        layer,
                        op,
                        start_ns,
                        end_ns,
                        id,
                        parent,
                        request,
                        tid: state.tid,
                    });
                }
            }
        });
    }
}

/// Takes every span recorded so far, from all threads, ordered by start.
pub fn drain() -> Vec<SpanRecord> {
    let mut all = Vec::new();
    for buffer in buffers().lock().expect("span registry poisoned").iter() {
        all.append(&mut buffer.lock().expect("span buffer poisoned"));
    }
    all.sort_unstable_by_key(|s| (s.start_ns, s.id));
    all
}

/// Per-layer self time in nanoseconds: each span's duration minus the
/// part its child spans cover (children run nested on the same thread,
/// so they never overlap one another).
pub fn self_time_ns(spans: &[SpanRecord]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_default() += own;
    }
    out
}

/// Writes `spans` as a Chrome trace-event JSON document.
///
/// # Errors
///
/// Propagates write errors.
pub fn write_chrome(w: &mut impl Write, spans: &[SpanRecord]) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{sep}",
            s.op,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.request,
        )?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: &'static str, start_ns: u64, end_ns: u64, id: u64, parent: u64) -> SpanRecord {
        SpanRecord {
            layer,
            op: "op",
            start_ns,
            end_ns,
            id,
            parent,
            request: 7,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            rec("serve.server", 0, 100, 1, 0),
            rec("serve.proto", 10, 20, 2, 1),
            rec("serve.proto", 80, 95, 3, 1),
        ];
        let self_ns = self_time_ns(&spans);
        assert_eq!(self_ns["serve.server"], 75);
        assert_eq!(self_ns["serve.proto"], 25);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut out = Vec::new();
        write_chrome(&mut out, &[rec("dse", 1_000, 3_500, 4, 0)]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"cat\":\"dse\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
