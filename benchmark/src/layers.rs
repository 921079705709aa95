//! The traced run: per-layer metrics from three sources — (a) counts from
//! the registry delta in every serial reply, (b) process accounting of the
//! cluster from `/proc`, (c) in-process probes on the same inputs — with
//! every client call and probe inside a harness span. End-to-end metrics
//! are never taken from this run.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use rads::core::MemoryBudget;

use crate::cluster::{sample_processes, Client, Cluster, Env, Reply};
use crate::hostspeed::Calibrator;
use crate::measure::{submit, Sample, Tally};
use crate::probes::{self, Inputs, Metric};
use crate::spans;
use crate::stats::{mean, median};
use crate::workload::Workload;

/// Share of the run's seconds spent replaying queries against the live
/// cluster; the probes get the rest.
const REPLAY_SHARE: f64 = 0.35;
const SPAWN_SAMPLES: usize = 15;

pub struct Traced {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Self time per harness span name, in milliseconds, largest first.
    pub self_ms: Vec<(String, f64)>,
    /// Sum of all self times, against the process's wall clock up to the
    /// point the trace was drained.
    pub spans_total_ms: f64,
    pub wall_ms: f64,
    pub replayed: usize,
}

/// One serial pass with each query in a `query > client` span pair.
fn traced_pass(client: &Client, workload: &Workload, inputs: &Inputs) -> Vec<Sample> {
    (0..workload.classes.len())
        .map(|class| {
            let mut query = spans::span("query");
            query.attr("class", class as u64);
            let sample = {
                let _client = spans::span("client");
                submit(client, workload, inputs, class)
            };
            query.attr("ok", u64::from(sample.reply.is_ok()));
            sample
        })
        .collect()
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// (a) Counts per layer: means per query over the replies' registry deltas.
fn counts(replies: &[&Reply]) -> Vec<Metric> {
    let n = replies.len().max(1) as f64;
    let total = |name: &str| replies.iter().map(|r| r.scalar(name)).sum::<f64>();
    let peak = |name: &str| replies.iter().map(|r| r.scalar(name)).fold(0.0, f64::max);
    let per_query = |name: &str| total(name) / n;

    let sme = total("rads_sme_embeddings_total");
    let embeddings = sme + total("rads_distributed_embeddings_total");
    let (hits, misses) = (
        total("rads_cache_hits_total"),
        total("rads_cache_misses_total"),
    );
    let (merge, gallop) = (
        total("rads_intersect_merge_dispatches_total"),
        total("rads_intersect_gallop_dispatches_total"),
    );
    let messages = total("rads_net_messages_total");
    let fetch_wait_us: f64 = replies
        .iter()
        .map(|r| {
            r.histogram_sum("rads_fetch_demand_wait_us")
                + r.histogram_sum("rads_fetch_prefetch_wait_us")
        })
        .sum();
    let phi = MemoryBudget::default().region_group_bytes as f64;
    vec![
        (
            "plan.cache_hit_share",
            share(
                replies.iter().filter(|r| r.plan_cache_hit).count() as f64,
                n,
            ),
        ),
        ("core.sme.embeddings_share", share(sme, embeddings)),
        (
            "core.region.groups_per_query",
            per_query("rads_groups_created_total"),
        ),
        (
            "core.region.groups_stolen_share",
            share(
                total("rads_groups_stolen_total"),
                total("rads_groups_processed_total"),
            ),
        ),
        (
            "graph.intersect.calls_per_query",
            per_query("rads_intersect_kernel_calls_total"),
        ),
        (
            "graph.intersect.elements_per_query",
            per_query("rads_intersect_elements_scanned_total"),
        ),
        (
            "graph.intersect.gallop_share",
            share(gallop, merge + gallop),
        ),
        (
            "core.trie.nodes_per_embedding",
            share(total("rads_trie_nodes_created_total"), embeddings),
        ),
        ("core.cache.hit_share", share(hits, hits + misses)),
        (
            "core.cache.evictions_per_query",
            per_query("rads_cache_evictions_total"),
        ),
        ("core.cache.peak_bytes", peak("rads_cache_peak_bytes")),
        (
            "core.evi.undetermined_edges_per_query",
            per_query("rads_undetermined_edges_total"),
        ),
        (
            "core.evi.filtered_per_query",
            per_query("rads_candidates_filtered_total"),
        ),
        (
            "core.engine.fetch_requests_per_query",
            per_query("rads_fetch_requests_total"),
        ),
        (
            "core.engine.verify_requests_per_query",
            per_query("rads_verify_requests_total"),
        ),
        (
            "core.engine.fetch_wait_ms_per_query",
            fetch_wait_us / 1e3 / n,
        ),
        (
            "core.governor.splits_per_query",
            per_query("rads_governor_splits_total"),
        ),
        (
            "core.governor.respilled_per_query",
            per_query("rads_governor_respilled_candidates_total"),
        ),
        (
            "core.governor.peak_over_phi",
            peak("rads_governor_peak_tracked_bytes") / phi,
        ),
        ("runtime.transport.messages_per_query", messages / n),
        (
            "runtime.transport.bytes_per_message",
            share(total("rads_net_bytes_total"), messages),
        ),
        (
            "runtime.transport.control_bytes_per_query",
            per_query("rads_net_control_bytes_total"),
        ),
    ]
}

/// Median client latency per class, over the correct samples of `passes`.
fn class_medians(workload: &Workload, passes: &[Sample]) -> Vec<Option<f64>> {
    (0..workload.classes.len())
        .map(|class| {
            let latencies: Vec<f64> = passes
                .iter()
                .filter(|s| s.class == class && s.reply.is_ok())
                .map(|s| s.latency_ms)
                .collect();
            (!latencies.is_empty()).then(|| median(&latencies))
        })
        .collect()
}

pub fn run(
    env: &Env,
    workload: &Workload,
    seed: u64,
    graph_seed: u64,
    seconds: Duration,
    trace_file: &Path,
    started: Instant,
) -> Result<Traced, String> {
    rads::obs::discard_trace();
    spans::set_recording(true);
    let root = spans::span("workload");
    let mut tally = Tally::default();

    let inputs = Inputs::build(workload, graph_seed)?;

    // Replay: serial passes against a live cluster, alternately without and
    // with harness spans; the difference in per-class client latency is the
    // tracing overhead.
    let cluster = {
        let _span = spans::span("cluster.launch");
        Cluster::launch(env, workload, graph_seed)?
    };
    let client = cluster.client();
    {
        let _span = spans::span("warmup");
        for sample in traced_pass(&client, workload, &inputs) {
            tally.record(workload, &sample);
        }
    }
    let pids = cluster.pids();
    let before = sample_processes(&pids);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    // Per-layer times are reported as read; the host's speed while they
    // were taken is reported with them.
    let calibrator = Calibrator::new();
    let mut host_speeds = vec![calibrator.speed()];
    {
        let _span = spans::span("replay");
        let deadline = Instant::now() + seconds.mul_f64(REPLAY_SHARE);
        while spanned.is_empty() || Instant::now() < deadline {
            spans::set_recording(false);
            plain.extend(traced_pass(&client, workload, &inputs));
            spans::set_recording(true);
            spanned.extend(traced_pass(&client, workload, &inputs));
            host_speeds.push(calibrator.speed());
        }
    }
    let after = sample_processes(&pids);
    let spawn_ms = {
        let _span = spans::span("loadgen.spawn");
        median(
            &(0..SPAWN_SAMPLES)
                .map(|_| client.spawn_only().as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    {
        let _span = spans::span("cluster.shutdown");
        if let Err(e) = cluster.shutdown() {
            tally.fail(format!("drain: {e}"));
        }
    }
    let all: Vec<&Sample> = plain.iter().chain(&spanned).collect();
    for sample in &all {
        tally.record(workload, sample);
    }
    let replayed = all.len();
    let replies: Vec<&Reply> = all.iter().filter_map(|s| s.reply.as_ref().ok()).collect();
    if replies.is_empty() {
        return Err(format!(
            "no replayed query was answered: {:?}",
            tally.reasons
        ));
    }

    let mut metrics = counts(&replies);

    // (b) process level
    let frontdoor: Vec<f64> = all
        .iter()
        .filter_map(|s| {
            s.reply
                .as_ref()
                .ok()
                .map(|r| s.latency_ms - r.elapsed_us as f64 / 1e3)
        })
        .collect();
    metrics.extend([
        (
            "proc.cpu_ms_per_query",
            (after.cpu_ms - before.cpu_ms) / replayed as f64,
        ),
        ("proc.peak_rss_mb", after.peak_rss_mb),
        ("bench.serve.frontdoor_ms", median(&frontdoor)),
        ("loadgen.spawn_ms", spawn_ms),
        ("bench.host.speed", median(&host_speeds)),
    ]);

    // (c) probes, on the inputs the cluster loaded
    let spent = started.elapsed();
    let report = probes::run_all(&inputs, workload, seconds.saturating_sub(spent), seed)?;
    metrics.extend(report.metrics);
    let server_ms: Vec<f64> = (0..workload.classes.len())
        .map(|class| {
            let elapsed: Vec<f64> = all
                .iter()
                .filter(|s| s.class == class)
                .filter_map(|s| s.reply.as_ref().ok().map(|r| r.elapsed_us as f64 / 1e3))
                .collect();
            mean(&elapsed)
        })
        .collect();
    let process_overhead: Vec<f64> = server_ms
        .iter()
        .zip(&report.engine_ms)
        .map(|(server, inproc)| server - inproc)
        .collect();
    metrics.push(("bench.serve.process_overhead_ms", mean(&process_overhead)));

    let overhead: Vec<f64> = class_medians(workload, &plain)
        .into_iter()
        .zip(class_medians(workload, &spanned))
        .filter_map(|(plain, spanned)| Some((spanned? - plain?) / plain? * 100.0))
        .collect();
    metrics.push(("trace.overhead_pct", mean(&overhead)));

    drop(root);
    spans::set_recording(false);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let trace = rads::obs::drain_chrome_trace();
    if let Some(dir) = trace_file.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(trace_file, &trace)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    let by_name: BTreeMap<String, u64> = spans::self_times(&spans::parse_trace(&trace)?);
    let mut self_ms: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(name, us)| (name, us as f64 / 1e3))
        .collect();
    self_ms.sort_by(|a, b| b.1.total_cmp(&a.1));
    let spans_total_ms = self_ms.iter().map(|(_, ms)| ms).sum();

    Ok(Traced {
        tally,
        metrics,
        self_ms,
        spans_total_ms,
        wall_ms,
        replayed,
    })
}
