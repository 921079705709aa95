//! The metrics registry is process-global and *cumulative* — that is what
//! a Prometheus scraper expects — so a resident cluster cannot read per-run
//! figures off the raw counters: after two runs every counter holds the sum
//! of both. [`MetricsSnapshot::delta_since`] is the epoch mechanism serving
//! mode uses instead; this regression test pins it with two back-to-back
//! runs of the same query on the same cluster.
//!
//! A single `#[test]` on purpose: the registry and the metrics-enabled flag
//! are process-global, and a second test thread running a query would
//! inflate the deltas. Both epoch scenarios — serialized runs and
//! *overlapping* per-query epochs off one shared registry (the
//! [`EpochLedger`] serving mode uses under `--max-concurrent-queries`) —
//! therefore live inside the one test body.

use std::sync::Arc;

use rads::prelude::*;
use rads_graph::queries;
use rads_obs::{EpochLedger, MetricsSnapshot, Registry};

/// Counters whose per-run value is schedule-independent — identical across
/// repeated runs of the same `(cluster, pattern, config)`.
const STABLE_COUNTERS: [&str; 5] = [
    "rads_groups_created_total",
    "rads_sme_embeddings_total",
    "rads_distributed_embeddings_total",
    "rads_depth_first_embeddings_total",
    "rads_trie_nodes_created_total",
];

fn delta_of_one_run(cluster: &Cluster, pattern: &rads_graph::Pattern) -> MetricsSnapshot {
    let before = Registry::global().snapshot();
    run_rads(cluster, pattern, &RadsConfig::default());
    Registry::global().snapshot().delta_since(&before)
}

#[test]
fn back_to_back_runs_report_identical_deltas_off_the_cumulative_registry() {
    rads_obs::set_metrics_enabled(true);
    let dataset = generate(DatasetKind::Dblp, Scale(0.05), 7);
    let partitioning = LabelPropagationPartitioner::default().partition(&dataset.graph, 3);
    let cluster = Cluster::new(Arc::new(PartitionedGraph::build(&dataset.graph, partitioning)));
    let pattern = queries::query_by_name("q1").expect("known query");

    let start = Registry::global().snapshot();
    let first = delta_of_one_run(&cluster, &pattern);
    let second = delta_of_one_run(&cluster, &pattern);
    let cumulative = Registry::global().snapshot().delta_since(&start);

    for name in STABLE_COUNTERS {
        let a = first.scalar(name).unwrap_or_else(|| panic!("{name} missing from first delta"));
        let b = second.scalar(name).unwrap_or_else(|| panic!("{name} missing from second delta"));
        assert!(a > 0, "{name}: a q1 run must move this counter");
        // the second run's *delta* equals the first's — the registry kept
        // accumulating underneath, but delta_since carves out one epoch
        assert_eq!(a, b, "{name}: second run's delta is polluted by the first run");
        // and the raw registry really does hold the sum of both epochs
        let total = cumulative.scalar(name).expect("counter exists cumulatively");
        assert_eq!(total, a + b, "{name}: cumulative registry disagrees with the epoch sum");
    }

    // --- overlapping epochs ------------------------------------------------
    // The racy pre-envelope scheme kept ONE `previous snapshot` watermark:
    // query B beginning mid-flight of query A would move A's baseline, so
    // A's delta silently lost everything recorded before B arrived. The
    // EpochLedger keys each baseline by query id instead. Overlap two
    // epochs around a third run and pin both properties: the inner epoch
    // (nothing ran inside it) reports zero, and the outer epoch still
    // reports the full run — opening and closing the inner epoch must not
    // perturb it.
    let ledger = EpochLedger::new();
    ledger.begin(1, Registry::global().snapshot());
    run_rads(&cluster, &pattern, &RadsConfig::default());
    // query 2's epoch opens while query 1's is still in flight...
    ledger.begin(2, Registry::global().snapshot());
    assert_eq!(ledger.open(), 2, "both epochs are in flight");
    let outer = ledger.end(1, &Registry::global().snapshot());
    let inner = ledger.end(2, &Registry::global().snapshot());
    for name in STABLE_COUNTERS {
        let reference = first.scalar(name).expect("counter exists");
        assert_eq!(
            outer.scalar(name),
            Some(reference),
            "{name}: the overlapping epoch stole the outer epoch's baseline"
        );
        // nothing ran between query 2's begin and end: its delta is zero
        // (or the counter is absent from the delta entirely)
        assert_eq!(
            inner.scalar(name).unwrap_or(0),
            0,
            "{name}: an idle overlapped epoch reported another query's work"
        );
    }
    assert_eq!(ledger.open(), 0, "ended epochs must leave the ledger");
}
