//! Observability layer for the RADS engine.
//!
//! Two facilities, both process-global, both gated by environment toggles
//! and runtime overrides so instrumentation can ship in release builds:
//!
//! * [`trace`] — structured spans (query → region group → round →
//!   scatter/harvest/expand/verifyE, plus per-RPC spans on the transports)
//!   drained to Chrome trace-event JSON. Toggle: `RADS_TRACE` /
//!   [`set_trace_enabled`].
//! * [`metrics`] — a named registry of counters, gauges, and fixed-bucket
//!   histograms, exported as a JSON snapshot, a Prometheus-style text page,
//!   or a compact binary frame for cluster-wide aggregation. Toggle:
//!   `RADS_METRICS` / [`set_metrics_enabled`].
//!
//! When a toggle is off the recording calls compile to a relaxed atomic
//! load and a branch — cheap enough to leave on every hot path. When on,
//! the overhead budget is ≤2% of engine throughput (pinned by the
//! `observe` experiment in the bench crate).
//!
//! See the module docs of [`trace`] and [`metrics`] for the span and
//! metric naming conventions.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod http;
pub mod metrics;
pub mod trace;

pub use http::MetricsHttpServer;
pub use metrics::{
    metrics_enabled, set_metrics_enabled, Counter, EpochLedger, Gauge, Histogram, MetricEntry,
    MetricValue, MetricsSnapshot, Registry, METRICS_ENV,
};
pub use trace::{
    async_span, discard_trace, drain_chrome_trace, flush_thread, set_trace_enabled,
    set_trace_process, span, trace_enabled, AsyncSpan, SpanGuard, TRACE_ENV,
};

/// Bucket bounds (µs) for latency histograms such as
/// `rads_fetch_demand_wait_us`.
pub const WAIT_US_BUCKETS: &[u64] =
    &[50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000];

/// Bucket bounds (bytes) for frame/message size histograms such as
/// `rads_net_frame_bytes`.
pub const FRAME_BYTES_BUCKETS: &[u64] =
    &[64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20];

/// Bucket bounds (bytes) for memory-footprint histograms such as
/// `rads_governor_live_bytes`.
pub const LIVE_BYTES_BUCKETS: &[u64] =
    &[64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30];

/// Bucket bounds (percent) for ratio histograms such as
/// `rads_intersect_selectivity_pct`.
pub const PERCENT_BUCKETS: &[u64] = &[1, 2, 5, 10, 20, 35, 50, 75, 100];
