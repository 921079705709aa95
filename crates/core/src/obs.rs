//! The engine's bridge into the [`rads_obs`] metrics registry.
//!
//! The engine keeps its deterministic per-worker counters
//! ([`EngineStats`]) exactly as before — they are merged
//! order-insensitively and must never depend on observation — and this
//! module *publishes* them into the process-global registry at run
//! boundaries, making the registry the canonical machine-readable export
//! surface ([`rads_obs::MetricsSnapshot::to_json`] /
//! [`to_prometheus`](rads_obs::MetricsSnapshot::to_prometheus)). A few
//! distribution metrics that aggregate counters cannot reconstruct
//! (latency and footprint histograms) are recorded live from the hot path
//! through the cached handles below; every recording is a no-op unless
//! `RADS_METRICS` is enabled.
//!
//! Metric names follow the convention in [`rads_obs::metrics`].

use std::sync::OnceLock;

use rads_obs::{metrics_enabled, Counter, Gauge, Histogram, Registry};
use rads_runtime::TrafficSnapshot;

use crate::engine::EngineStats;

/// Wait (µs) for the first response after scattering a round's demand
/// `fetchV` chunks.
pub(crate) fn demand_wait_histogram() -> &'static Histogram {
    static CELL: OnceLock<Histogram> = OnceLock::new();
    CELL.get_or_init(|| {
        Registry::global().histogram("rads_fetch_demand_wait_us", rads_obs::WAIT_US_BUCKETS)
    })
}

/// Live intermediate-result bytes (trie + expansion buffers) sampled at the
/// end of every R-Meef round.
pub(crate) fn live_bytes_histogram() -> &'static Histogram {
    static CELL: OnceLock<Histogram> = OnceLock::new();
    CELL.get_or_init(|| {
        Registry::global().histogram("rads_governor_live_bytes", rads_obs::LIVE_BYTES_BUCKETS)
    })
}

/// High watermark of the live bytes across the whole run (the runtime
/// counterpart of the budget `Φ`).
pub(crate) fn live_bytes_watermark() -> &'static Gauge {
    static CELL: OnceLock<Gauge> = OnceLock::new();
    CELL.get_or_init(|| Registry::global().gauge("rads_governor_peak_tracked_bytes"))
}

/// Per-region-group intersect selectivity: trie nodes produced per 100
/// elements the intersection kernels scanned.
pub(crate) fn selectivity_histogram() -> &'static Histogram {
    static CELL: OnceLock<Histogram> = OnceLock::new();
    CELL.get_or_init(|| {
        Registry::global().histogram("rads_intersect_selectivity_pct", rads_obs::PERCENT_BUCKETS)
    })
}

fn counter(name: &'static str) -> Counter {
    Registry::global().counter(name)
}

fn gauge(name: &'static str) -> Gauge {
    Registry::global().gauge(name)
}

/// Publishes one machine's merged [`EngineStats`] into the global registry
/// (counters add, peaks raise gauges). Called once per engine run; no-op
/// while metrics are disabled.
pub fn publish_engine_stats(stats: &EngineStats) {
    if !metrics_enabled() {
        return;
    }
    counter("rads_sme_embeddings_total").add(stats.sme_embeddings);
    counter("rads_distributed_embeddings_total").add(stats.distributed_embeddings);
    counter("rads_depth_first_embeddings_total").add(stats.depth_first_embeddings);
    counter("rads_groups_created_total").add(stats.groups_created as u64);
    counter("rads_groups_processed_total").add(stats.groups_processed as u64);
    counter("rads_groups_stolen_total").add(stats.groups_stolen as u64);
    counter("rads_trie_nodes_created_total").add(stats.trie_nodes_created);
    counter("rads_cache_hits_total").add(stats.cache_hits);
    counter("rads_cache_misses_total").add(stats.cache_misses);
    counter("rads_cache_evictions_total").add(stats.cache_evictions);
    counter("rads_governor_splits_total").add(stats.governor_splits);
    counter("rads_governor_respilled_candidates_total").add(stats.respilled_candidates);
    counter("rads_governor_estimator_refits_total").add(stats.estimator_refits);
    counter("rads_fetch_requests_total").add(stats.fetch_requests);
    counter("rads_verify_requests_total").add(stats.verify_requests);
    counter("rads_undetermined_edges_total").add(stats.undetermined_edges);
    counter("rads_candidates_filtered_total").add(stats.candidates_filtered);
    counter("rads_intersect_kernel_calls_total").add(stats.intersect.kernel_calls);
    counter("rads_intersect_merge_dispatches_total").add(stats.intersect.merge_dispatches);
    counter("rads_intersect_gallop_dispatches_total").add(stats.intersect.gallop_dispatches);
    counter("rads_intersect_elements_scanned_total").add(stats.intersect.elements_scanned);
    gauge("rads_cache_peak_bytes").observe_max(stats.cache_peak_bytes);
    gauge("rads_trie_peak_nodes").observe_max(stats.peak_trie_nodes as u64);
    gauge("rads_fetch_demand_wait_ewma_us").observe_max(stats.fetch_wait_micros);
    live_bytes_watermark().observe_max(stats.peak_tracked_bytes);
    // stats.rpc_retries is deliberately NOT published here: the resilience
    // counters (rads_rpc_retries_total, rads_reconnects_total, ...) are
    // incremented live at their event sites in rads-runtime, and re-adding
    // the end-of-run aggregate would double-count every retry.
}

/// Publishes a cluster (or machine) traffic snapshot into the global
/// registry. Called once per run, after the engines finish; no-op while
/// metrics are disabled.
pub fn publish_traffic(traffic: &TrafficSnapshot) {
    if !metrics_enabled() {
        return;
    }
    counter("rads_net_messages_total").add(traffic.messages);
    counter("rads_net_bytes_total").add(traffic.total_bytes);
    counter("rads_net_control_bytes_total").add(traffic.control_bytes);
}
