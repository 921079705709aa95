//! The harness's own spans, recorded with `rads::obs` around every client
//! call and every probe, and the fold that turns the drained Chrome trace
//! into self time per span name.
//!
//! Tracing is switched on only while a harness span opens: the code under
//! measurement runs with tracing off, so probe timings are the untraced
//! cost and the trace holds harness spans only. Spans inside the program
//! are a later change.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use rads::obs::{self, SpanGuard};

use crate::json::Json;

const CATEGORY: &str = "bench";

static RECORDING: AtomicBool = AtomicBool::new(false);

/// Switches harness spans on or off (off: `span` returns inert guards).
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Opens a harness span, nested under the calling thread's open spans.
pub fn span(name: &'static str) -> SpanGuard {
    let recording = RECORDING.load(Ordering::Relaxed);
    obs::set_trace_enabled(recording);
    let guard = obs::span(name, CATEGORY);
    obs::set_trace_enabled(false);
    guard
}

/// One recorded span, as read back from a Chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    pub id: u64,
    pub parent: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

/// Reads the complete (`"ph":"X"`) events of a Chrome trace.
pub fn parse_trace(trace: &str) -> Result<Vec<SpanRecord>, String> {
    let doc = Json::parse(trace)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("no traceEvents")?;
    let mut spans = Vec::new();
    for event in events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
    {
        let number = |path: &[&str]| {
            event
                .at(path)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event lacks {path:?}"))
        };
        spans.push(SpanRecord {
            name: event
                .get("name")
                .and_then(Json::as_str)
                .ok_or("event lacks a name")?
                .to_string(),
            id: number(&["args", "id"])?,
            parent: number(&["args", "parent"])?,
            start_us: number(&["ts"])?,
            dur_us: number(&["dur"])?,
        });
    }
    Ok(spans)
}

/// Self time per span name, in microseconds: each span's duration minus the
/// part of its interval that its child spans cover (overlapping children
/// are counted once, children are clipped to the parent).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_us, span.start_us + span.dur_us));
    }
    let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
    for span in spans {
        let (start, end) = (span.start_us, span.start_us + span.dur_us);
        let mut intervals = children.remove(&span.id).unwrap_or_default();
        intervals.sort_unstable();
        let (mut covered, mut reached) = (0, start);
        for (child_start, child_end) in intervals {
            let from = child_start.max(reached);
            let to = child_end.min(end);
            if to > from {
                covered += to - from;
                reached = to;
            }
        }
        *by_name.entry(span.name.clone()).or_default() += span.dur_us - covered;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, id: u64, parent: u64, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            id,
            parent,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            record("workload", 1, 0, 0, 1000),
            record("query", 2, 1, 100, 300),
            record("client", 3, 2, 150, 200),
            record("query", 4, 1, 500, 400),
            // two children of span 4 that overlap by 50 us
            record("client", 5, 4, 500, 150),
            record("client", 6, 4, 600, 100),
            // a child that sticks out of its parent is clipped to it
            record("probe", 7, 1, 950, 100),
        ];
        let folded = self_times(&spans);
        assert_eq!(folded["workload"], 1000 - 300 - 400 - 50);
        assert_eq!(folded["query"], (300 - 200) + (400 - 200));
        assert_eq!(folded["client"], 200 + 150 + 100);
        assert_eq!(folded["probe"], 100);
        // properly nested spans add up to the root's duration; here the
        // probe sticks out by 50 us and two clients overlap by 50 us
        assert_eq!(folded.values().sum::<u64>(), 1000 + 50 + 50);
    }

    #[test]
    fn chrome_trace_events_are_read_back() {
        let trace = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"machine 0"}},"#,
            r#"{"name":"query","cat":"bench","ph":"X","ts":10,"dur":90,"pid":0,"tid":1,"args":{"id":2,"parent":1,"class":3}},"#,
            r#"{"name":"workload","cat":"bench","ph":"X","ts":0,"dur":120,"pid":0,"tid":1,"args":{"id":1,"parent":0}}]}"#
        );
        let spans = parse_trace(trace).unwrap();
        assert_eq!(
            spans,
            vec![
                record("query", 2, 1, 10, 90),
                record("workload", 1, 0, 0, 120)
            ]
        );
        assert_eq!(self_times(&spans)["workload"], 30);
        assert!(parse_trace("{}").is_err());
    }

    #[test]
    fn spans_record_only_while_recording() {
        obs::set_trace_enabled(false);
        obs::discard_trace();
        set_recording(false);
        drop(span("idle"));
        set_recording(true);
        {
            let _outer = span("outer");
            drop(span("inner"));
        }
        set_recording(false);
        let spans = parse_trace(&obs::drain_chrome_trace()).unwrap();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"]);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(
            !obs::trace_enabled(),
            "tracing stays off between harness spans"
        );
    }
}
