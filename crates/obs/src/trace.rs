//! Structured tracing with Chrome trace-event export.
//!
//! # Model
//!
//! A *span* is a named interval with microsecond start/end timestamps, a
//! process-unique id, a parent id, and optional integer key/value
//! attributes. Two flavours exist:
//!
//! * [`span`] returns a RAII [`SpanGuard`] that joins the calling thread's
//!   parent stack — child spans opened while the guard lives are parented
//!   to it. Used for the engine's nested phases
//!   (`query` → `region_group` → `round` → `scatter`/`harvest`/`expand`/`verifyE`).
//! * [`async_span`] returns a movable [`AsyncSpan`] that records its parent
//!   at creation but does *not* join the stack, so it can stay open across
//!   other spans and even finish on another thread. Used for in-flight RPCs
//!   (`rpc.fetchV` etc.), whose duration *is* the comm/compute overlap.
//!
//! Completed spans are buffered in per-thread buffers and flushed to a
//! process-wide collector in batches (and on thread exit), keeping the
//! enabled-path cost to a `Vec` push. When tracing is disabled
//! ([`trace_enabled`], toggled by the `RADS_TRACE` environment variable or
//! [`set_trace_enabled`]), every call is a relaxed load plus a branch and
//! no span ids are allocated.
//!
//! # Naming convention
//!
//! Span names are short `snake_case` phase names; RPC spans are
//! `rpc.<request>` (`rpc.fetchV`, `rpc.verifyE`, `rpc.checkR`,
//! `rpc.shareR`, `rpc.rows`). Categories group spans for trace-viewer
//! filtering: `engine` (phase spans) and `rpc` (transport round trips).
//!
//! # Export
//!
//! [`drain_chrome_trace`] renders everything collected so far as Chrome
//! trace-event JSON (`{"traceEvents":[...]}`): one complete (`"ph":"X"`)
//! event per span with `id`/`parent` and the user attributes in `args`,
//! plus metadata records naming the process (the machine id, set via
//! [`set_trace_process`]) and accounting for started/closed spans so
//! validators can prove no span was left open. Load the file in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable that enables tracing (`1`/`true`/`on`).
pub const TRACE_ENV: &str = "RADS_TRACE";

/// 0 = not yet resolved, 1 = disabled, 2 = enabled.
static TRACE_STATE: AtomicU8 = AtomicU8::new(0);
/// Next span id; 0 is reserved for "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Next trace-local thread id (stable, small, assigned on first use).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// The `pid` stamped on exported events (the cluster machine id).
static PROCESS_ID: AtomicU64 = AtomicU64::new(0);
/// Spans opened while tracing was enabled.
static SPANS_STARTED: AtomicU64 = AtomicU64::new(0);
/// Spans recorded (closed). Equal to [`SPANS_STARTED`] once all guards drop.
static SPANS_CLOSED: AtomicU64 = AtomicU64::new(0);

fn collector() -> &'static Mutex<Vec<TraceEvent>> {
    static COLLECTOR: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Whether tracing is currently enabled. Resolved from [`TRACE_ENV`] on
/// first use; [`set_trace_enabled`] overrides it at runtime.
#[inline]
pub fn trace_enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        0 => {
            let enabled = matches!(
                std::env::var(TRACE_ENV).ok().as_deref(),
                Some("1") | Some("true") | Some("on") | Some("yes")
            );
            TRACE_STATE.store(if enabled { 2 } else { 1 }, Ordering::Relaxed);
            enabled
        }
        state => state == 2,
    }
}

/// Forces tracing on or off for this process, overriding the environment
/// toggle.
pub fn set_trace_enabled(enabled: bool) {
    TRACE_STATE.store(if enabled { 2 } else { 1 }, Ordering::Relaxed);
}

/// Sets the process id stamped on exported events — by convention the
/// cluster machine id, so a merged timeline shows one track group per
/// machine.
pub fn set_trace_process(machine: u64) {
    PROCESS_ID.store(machine, Ordering::Relaxed);
}

/// A completed span, ready for export.
#[derive(Debug, Clone)]
struct TraceEvent {
    name: &'static str,
    cat: &'static str,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
    id: u64,
    parent: u64,
    args: Vec<(&'static str, u64)>,
}

/// Per-thread event buffer and parent stack.
struct LocalBuf {
    events: Vec<TraceEvent>,
    stack: Vec<u64>,
    tid: u64,
}

/// Events buffered per thread before a batch flush to the collector.
const FLUSH_BATCH: usize = 128;

impl LocalBuf {
    fn flush(&mut self) {
        if !self.events.is_empty() {
            collector().lock().unwrap().append(&mut self.events);
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        events: Vec::new(),
        stack: Vec::new(),
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
    });
}

fn record(event: TraceEvent) {
    SPANS_CLOSED.fetch_add(1, Ordering::Relaxed);
    // The thread-local may already be gone during thread teardown; push
    // straight to the collector in that rare case.
    let overflow = LOCAL
        .try_with(|local| {
            let mut local = local.borrow_mut();
            local.events.push(event.clone());
            if local.events.len() >= FLUSH_BATCH {
                local.flush();
            }
        })
        .is_err();
    if overflow {
        collector().lock().unwrap().push(event);
    }
}

/// Flushes the calling thread's buffered events to the process collector.
/// Call before [`drain_chrome_trace`] on threads that stay alive (worker
/// threads flush automatically on exit).
pub fn flush_thread() {
    let _ = LOCAL.try_with(|local| local.borrow_mut().flush());
}

/// A RAII span that joins the calling thread's parent stack. Created by
/// [`span`]; the interval closes (and is recorded) when the guard drops.
pub struct SpanGuard {
    data: Option<SpanData>,
}

struct SpanData {
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    id: u64,
    parent: u64,
    args: Vec<(&'static str, u64)>,
}

/// Opens a nested phase span. Returns an inert guard when tracing is
/// disabled.
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { data: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPANS_STARTED.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL
        .try_with(|local| {
            let mut local = local.borrow_mut();
            let parent = local.stack.last().copied().unwrap_or(0);
            local.stack.push(id);
            parent
        })
        .unwrap_or(0);
    SpanGuard {
        data: Some(SpanData { name, cat, start_us: now_us(), id, parent, args: Vec::new() }),
    }
}

impl SpanGuard {
    /// Attaches an integer attribute, exported under `args`.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(data) = &mut self.data {
            data.args.push((key, value));
        }
    }

    /// The span id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.data.as_ref().map_or(0, |data| data.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else { return };
        let tid = LOCAL
            .try_with(|local| {
                let mut local = local.borrow_mut();
                // Guards drop LIFO in well-formed code, but be robust to
                // out-of-order drops: remove this id wherever it sits.
                if let Some(at) = local.stack.iter().rposition(|&id| id == data.id) {
                    local.stack.remove(at);
                }
                local.tid
            })
            .unwrap_or(0);
        let end_us = now_us();
        record(TraceEvent {
            name: data.name,
            cat: data.cat,
            ts_us: data.start_us,
            dur_us: end_us.saturating_sub(data.start_us),
            tid,
            id: data.id,
            parent: data.parent,
            args: data.args,
        });
    }
}

/// A movable span for work that stays in flight across other spans (RPCs).
/// Created by [`async_span`]; closes when dropped or [`AsyncSpan::finish`]ed,
/// possibly on a different thread. The exported event keeps the *opening*
/// thread's track so the in-flight interval lines up with where it was
/// issued.
pub struct AsyncSpan {
    data: Option<AsyncData>,
}

struct AsyncData {
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    id: u64,
    parent: u64,
    tid: u64,
    args: Vec<(&'static str, u64)>,
}

/// Opens an in-flight span parented to the current thread's innermost
/// phase span. Returns an inert span when tracing is disabled.
pub fn async_span(name: &'static str, cat: &'static str) -> AsyncSpan {
    if !trace_enabled() {
        return AsyncSpan { data: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPANS_STARTED.fetch_add(1, Ordering::Relaxed);
    let (parent, tid) = LOCAL
        .try_with(|local| {
            let local = local.borrow();
            (local.stack.last().copied().unwrap_or(0), local.tid)
        })
        .unwrap_or((0, 0));
    AsyncSpan {
        data: Some(AsyncData { name, cat, start_us: now_us(), id, parent, tid, args: Vec::new() }),
    }
}

impl AsyncSpan {
    /// Attaches an integer attribute, exported under `args`.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(data) = &mut self.data {
            data.args.push((key, value));
        }
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for AsyncSpan {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else { return };
        let end_us = now_us();
        record(TraceEvent {
            name: data.name,
            cat: data.cat,
            ts_us: data.start_us,
            dur_us: end_us.saturating_sub(data.start_us),
            tid: data.tid,
            id: data.id,
            parent: data.parent,
            args: data.args,
        });
    }
}

/// Discards everything collected so far (buffered events and the
/// started/closed accounting). Used between repetitions of overhead
/// experiments so traces do not accumulate.
pub fn discard_trace() {
    flush_thread();
    collector().lock().unwrap().clear();
    SPANS_STARTED.store(0, Ordering::Relaxed);
    SPANS_CLOSED.store(0, Ordering::Relaxed);
}

/// Drains all collected spans as Chrome trace-event JSON and resets the
/// span accounting. Remember to [`flush_thread`] on any *other* live thread
/// that recorded spans (worker threads flush on exit).
pub fn drain_chrome_trace() -> String {
    flush_thread();
    let events = std::mem::take(&mut *collector().lock().unwrap());
    let started = SPANS_STARTED.swap(0, Ordering::Relaxed);
    let closed = SPANS_CLOSED.swap(0, Ordering::Relaxed);
    let pid = PROCESS_ID.load(Ordering::Relaxed);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"machine {pid}\"}}}}"
    ));
    out.push_str(&format!(
        ",{{\"name\":\"span_accounting\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"started\":{started},\"closed\":{closed}}}}}"
    ));
    for event in &events {
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{pid},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
            event.name, event.cat, event.ts_us, event.dur_us, event.tid, event.id, event.parent
        ));
        for (key, value) in &event.args {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enabled toggle and collector are process-global; serialize tests.
    fn toggle_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _guard = toggle_lock();
        set_trace_enabled(false);
        discard_trace();
        let span = span("noop", "test");
        assert_eq!(span.id(), 0);
        drop(span);
        let trace = drain_chrome_trace();
        assert!(!trace.contains("\"noop\""));
    }

    #[test]
    fn nested_spans_record_parents_and_attrs() {
        let _guard = toggle_lock();
        set_trace_enabled(true);
        discard_trace();
        let outer = span("outer", "test");
        let outer_id = outer.id();
        {
            let mut inner = span("inner", "test");
            inner.attr("round", 3);
            assert_ne!(inner.id(), 0);
        }
        drop(outer);
        set_trace_enabled(false);
        let trace = drain_chrome_trace();
        assert!(trace.contains("\"name\":\"inner\""));
        assert!(trace.contains(&format!("\"parent\":{outer_id}")));
        assert!(trace.contains("\"round\":3"));
        assert!(trace.contains("\"started\":2,\"closed\":2"));
    }

    #[test]
    fn async_spans_can_finish_on_another_thread() {
        let _guard = toggle_lock();
        set_trace_enabled(true);
        discard_trace();
        let phase = span("phase", "test");
        let phase_id = phase.id();
        let mut rpc = async_span("rpc.test", "rpc");
        rpc.attr("correlation", 42);
        std::thread::spawn(move || rpc.finish()).join().unwrap();
        drop(phase);
        set_trace_enabled(false);
        let trace = drain_chrome_trace();
        assert!(trace.contains("\"name\":\"rpc.test\""));
        assert!(trace.contains("\"correlation\":42"));
        // The RPC span is parented to the phase that issued it.
        assert!(trace.contains(&format!("\"parent\":{phase_id}")));
        assert!(trace.contains("\"started\":2,\"closed\":2"));
    }

    #[test]
    fn drain_produces_parseable_shape() {
        let _guard = toggle_lock();
        set_trace_enabled(true);
        discard_trace();
        set_trace_process(7);
        drop(span("solo", "test"));
        set_trace_enabled(false);
        let trace = drain_chrome_trace();
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.ends_with("]}"));
        assert!(trace.contains("\"pid\":7"));
        assert!(trace.contains("machine 7"));
        set_trace_process(0);
    }
}
