//! The experiment harness.
//!
//! Every table and figure of the paper's evaluation (Section 7 and
//! Appendix C) has a function here that regenerates it on the synthetic
//! dataset suite; the `experiments` binary is a thin CLI over these
//! functions and `EXPERIMENTS.md` records the observed results next to the
//! paper's claims. Micro-benchmarks (criterion) live in `benches/`.
//!
//! Measurement-shaped experiments additionally emit [`BenchRecord`]s, which
//! the binary serializes to `BENCH_results.json` so the performance
//! trajectory of the repository is machine-readable. Client-observed
//! numbers on the resident cluster (queries/s, latency, bytes per query)
//! are measured by the serving benchmark under `benchmark/`, not here.
//!
//! The production serving path (the `rads-node` / `rads-query` binaries and
//! the cluster lifecycle behind them) lives in `rads-serve`; this crate
//! uses it only to drive a real multi-process cluster from the `sockets`
//! experiment ([`socket_vs_simulated`]) and for its JSON reader.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rads_baselines::{run_crystal, run_psgl, run_seed, run_twintwig, CliqueIndex};
use rads_core::{run_rads, RadsConfig};
use rads_datasets::{generate, Dataset, DatasetKind, Scale};
use rads_graph::{queries, Graph, Pattern};
use rads_partition::{LabelPropagationPartitioner, PartitionedGraph, Partitioner};
use rads_plan::{random_min_round_plan, random_star_plan};
use rads_runtime::{Cluster, TransportKind};
use rads_serve::json;
use rads_serve::procs::{ClusterSpec, FaultPolicy};
use rads_serve::serve::run_once;

/// The systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// RADS (this paper).
    Rads,
    /// PSgL.
    Psgl,
    /// TwinTwig.
    TwinTwig,
    /// SEED.
    Seed,
    /// Crystal.
    Crystal,
}

impl System {
    /// All five systems in the order the paper's charts list them.
    pub fn all() -> [System; 5] {
        [System::Seed, System::TwinTwig, System::Crystal, System::Rads, System::Psgl]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::Rads => "RADS",
            System::Psgl => "PSgL",
            System::TwinTwig => "TwinTwig",
            System::Seed => "SEED",
            System::Crystal => "Crystal",
        }
    }
}

/// One measurement row: a (system, dataset, query) cell of a figure.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// System name.
    pub system: &'static str,
    /// Dataset name.
    pub dataset: String,
    /// Query name.
    pub query: String,
    /// Number of machines in the simulated cluster.
    pub machines: usize,
    /// Number of embeddings found (must agree across systems).
    pub embeddings: u64,
    /// Elapsed wall-clock time in milliseconds.
    pub elapsed_ms: f64,
    /// Simulated communication volume in MB.
    pub communication_mb: f64,
    /// Peak intermediate rows held by any machine (memory pressure).
    pub peak_intermediate_rows: usize,
    /// Intra-machine worker threads used (1 for the single-threaded
    /// baselines; RADS honours `RadsConfig::workers`).
    pub workers: usize,
}

impl Measurement {
    /// Renders the row in the tab-separated format the binary prints.
    pub fn render(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}m\t{}\t{:.1}ms\t{:.4}MB\t{}rows",
            self.dataset,
            self.query,
            self.system,
            self.machines,
            self.embeddings,
            self.elapsed_ms,
            self.communication_mb,
            self.peak_intermediate_rows
        )
    }
}

/// Builds a cluster over `graph` with `machines` machines using the
/// label-propagation (METIS stand-in) partitioner, as the paper does.
pub fn build_cluster(graph: &Graph, machines: usize) -> Cluster {
    let partitioning = LabelPropagationPartitioner::default().partition(graph, machines);
    Cluster::new(Arc::new(PartitionedGraph::build(graph, partitioning)))
}

/// The `intersect` experiment: wall-clock of the intersection-based
/// candidate-generation kernel against the pre-intersection probe kernel
/// ([`rads_single::CandidateKernel`]) on single-thread enumeration over one
/// dataset, plus a correctness gate for the distributed engine.
///
/// For every query the single-machine enumeration runs `repetitions` times
/// per kernel (summed, to keep short runs out of timer noise; `elapsed_ms`
/// in the records is the per-run mean). Panics if the two kernels disagree
/// on the embedding count, or if `run_rads` over a `machines`-machine
/// cluster with any worker count in `worker_counts` deviates from that
/// ground truth — the acceptance gate that the kernel swap changed no
/// result.
///
/// Returns two [`BenchRecord`]s per query, systems `"probe-kernel"` and
/// `"intersect-kernel"` (`machines = workers = 1`: both rows time the pure
/// single-thread enumeration path).
pub fn intersect_speedup(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
    query_names: &[&str],
    worker_counts: &[usize],
    repetitions: u32,
) -> Vec<BenchRecord> {
    use rads_single::{CandidateKernel, EnumerationConfig, Enumerator};

    let dataset = generate(kind, scale, seed);
    let cluster = build_cluster(&dataset.graph, machines);
    let mut records = Vec::new();
    for &qname in query_names {
        let pattern = queries::query_by_name(qname).expect("known query");
        let time_kernel = |kernel: CandidateKernel| {
            let config = EnumerationConfig { kernel, ..Default::default() };
            let start = Instant::now();
            let mut count = 0;
            for _ in 0..repetitions.max(1) {
                count =
                    Enumerator::with_config(&dataset.graph, &pattern, config.clone())
                        .run(|_| true)
                        .embeddings;
            }
            (count, start.elapsed().as_secs_f64() * 1000.0 / repetitions.max(1) as f64)
        };
        let (probe_count, probe_ms) = time_kernel(CandidateKernel::Probe);
        let (fast_count, fast_ms) = time_kernel(CandidateKernel::Intersect);
        assert_eq!(
            probe_count, fast_count,
            "{qname}: the intersection kernel changed the embedding count"
        );
        // distributed correctness gate: every worker count must reproduce the
        // single-machine ground truth
        for &workers in worker_counts {
            let outcome = run_rads(&cluster, &pattern, &RadsConfig::with_workers(workers));
            assert_eq!(
                outcome.total_embeddings, fast_count,
                "{qname}: workers={workers} deviates from single-machine ground truth"
            );
        }
        for (system, count, ms) in
            [("probe-kernel", probe_count, probe_ms), ("intersect-kernel", fast_count, fast_ms)]
        {
            records.push(BenchRecord {
                experiment: "intersect".to_string(),
                dataset: dataset.profile.name.clone(),
                query: qname.to_string(),
                system: system.to_string(),
                machines: 1,
                workers: 1,
                embeddings: count,
                elapsed_ms: ms,
                embeddings_per_sec: embeddings_per_sec(count, ms),
                bytes_shipped: 0,
                peak_tracked_bytes: 0,
                budget_bytes: 0,
            });
        }
    }
    records
}

/// Runs one system on one (dataset, query) pair.
pub fn run_system(
    system: System,
    cluster: &Cluster,
    graph: &Graph,
    dataset: &str,
    query_name: &str,
    pattern: &Pattern,
    crystal_index: Option<&CliqueIndex>,
) -> Measurement {
    let machines = cluster.machines();
    let mut workers = 1;
    let start = Instant::now();
    let (embeddings, communication_mb, peak_rows) = match system {
        System::Rads => {
            let config = RadsConfig::default();
            workers = config.workers;
            let outcome = run_rads(cluster, pattern, &config);
            (outcome.total_embeddings, outcome.traffic.megabytes(), outcome.peak_trie_nodes())
        }
        System::Psgl => {
            let o = run_psgl(cluster, pattern);
            (o.total_embeddings, o.traffic.megabytes(), o.peak_intermediate_rows())
        }
        System::TwinTwig => {
            let o = run_twintwig(cluster, pattern);
            (o.total_embeddings, o.traffic.megabytes(), o.peak_intermediate_rows())
        }
        System::Seed => {
            let o = run_seed(cluster, graph, pattern);
            (o.total_embeddings, o.traffic.megabytes(), o.peak_intermediate_rows())
        }
        System::Crystal => {
            let owned;
            let index = match crystal_index {
                Some(idx) => idx,
                None => {
                    owned = CliqueIndex::build(graph, 4);
                    &owned
                }
            };
            let o = run_crystal(cluster, graph, pattern, index);
            (o.total_embeddings, o.traffic.megabytes(), o.peak_intermediate_rows())
        }
    };
    Measurement {
        system: system.name(),
        dataset: dataset.to_string(),
        query: query_name.to_string(),
        machines,
        embeddings,
        elapsed_ms: start.elapsed().as_secs_f64() * 1000.0,
        communication_mb,
        peak_intermediate_rows: peak_rows,
        workers,
    }
}

/// Embeddings per second for a run that found `embeddings` in `elapsed_ms`
/// (zero when no time was observed, so records never contain NaN/inf).
pub fn embeddings_per_sec(embeddings: u64, elapsed_ms: f64) -> f64 {
    if elapsed_ms > 0.0 {
        embeddings as f64 / (elapsed_ms / 1000.0)
    } else {
        0.0
    }
}

/// One machine-readable result row of `BENCH_results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment that produced the row (e.g. `"fig10"`, `"sockets"`).
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Query name.
    pub query: String,
    /// System name.
    pub system: String,
    /// Machines in the simulated cluster.
    pub machines: usize,
    /// Intra-machine worker threads.
    pub workers: usize,
    /// Embeddings found.
    pub embeddings: u64,
    /// Elapsed wall-clock milliseconds.
    pub elapsed_ms: f64,
    /// Embedding throughput (`embeddings / elapsed seconds`) — the
    /// size-independent number future PRs compare to track regressions.
    pub embeddings_per_sec: f64,
    /// Bytes put on the simulated wire.
    pub bytes_shipped: u64,
    /// Peak bytes of intermediate results (trie + expansion buffers) any
    /// worker held — the number the memory governor keeps at or below `Φ`.
    /// `0` for experiments that do not measure memory.
    pub peak_tracked_bytes: u64,
    /// The per-group budget `Φ` the run was given (`0` = not measured).
    pub budget_bytes: u64,
}

impl BenchRecord {
    /// Builds a record from a [`Measurement`] produced by `experiment`.
    pub fn from_measurement(experiment: &str, m: &Measurement) -> Self {
        BenchRecord {
            experiment: experiment.to_string(),
            dataset: m.dataset.clone(),
            query: m.query.clone(),
            system: m.system.to_string(),
            machines: m.machines,
            workers: m.workers,
            embeddings: m.embeddings,
            elapsed_ms: m.elapsed_ms,
            embeddings_per_sec: embeddings_per_sec(m.embeddings, m.elapsed_ms),
            bytes_shipped: (m.communication_mb * 1024.0 * 1024.0).round() as u64,
            peak_tracked_bytes: 0,
            budget_bytes: 0,
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"experiment\":{},\"dataset\":{},\"query\":{},\"system\":{},",
                "\"machines\":{},\"workers\":{},\"embeddings\":{},",
                "\"elapsed_ms\":{:.3},\"embeddings_per_sec\":{:.1},\"bytes_shipped\":{},",
                "\"peak_tracked_bytes\":{},\"budget_bytes\":{}}}"
            ),
            json_string(&self.experiment),
            json_string(&self.dataset),
            json_string(&self.query),
            json_string(&self.system),
            self.machines,
            self.workers,
            self.embeddings,
            self.elapsed_ms,
            self.embeddings_per_sec,
            self.bytes_shipped,
            self.peak_tracked_bytes,
            self.budget_bytes,
        )
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `records` as a pretty-printed JSON array (one record per line).
pub fn render_results_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.to_json());
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Writes `records` to `path` as JSON (the `BENCH_results.json` format).
pub fn write_results_json(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    std::fs::write(path, render_results_json(records))
}

/// String-typed fields every `BENCH_results.json` row must carry.
pub const RESULT_STRING_FIELDS: [&str; 4] = ["experiment", "dataset", "query", "system"];
/// Non-negative-integer fields every row must carry.
pub const RESULT_COUNT_FIELDS: [&str; 6] =
    ["machines", "workers", "embeddings", "bytes_shipped", "peak_tracked_bytes", "budget_bytes"];
/// Finite non-negative float fields every row must carry.
pub const RESULT_FLOAT_FIELDS: [&str; 2] = ["elapsed_ms", "embeddings_per_sec"];

/// Validates the `BENCH_results.json` schema: a non-empty array whose every
/// row carries all [`RESULT_STRING_FIELDS`], [`RESULT_COUNT_FIELDS`] and
/// [`RESULT_FLOAT_FIELDS`] with the right types. Returns the row count, or
/// a message naming the first offending row and field — the
/// `experiments validate` CI gate fails on any drift in the committed
/// experiment format.
pub fn validate_results_json(text: &str) -> Result<usize, String> {
    let parsed = json::Json::parse(text)?;
    let rows = parsed.as_array().ok_or("top-level value must be an array")?;
    if rows.is_empty() {
        return Err("the results array is empty".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        for key in RESULT_STRING_FIELDS {
            let value = row.get(key).ok_or(format!("row {i}: missing field {key:?}"))?;
            if value.as_str().is_none() {
                return Err(format!("row {i}: field {key:?} must be a string"));
            }
        }
        for key in RESULT_COUNT_FIELDS {
            let value = row.get(key).ok_or(format!("row {i}: missing field {key:?}"))?;
            if value.as_u64().is_none() {
                return Err(format!("row {i}: field {key:?} must be a non-negative integer"));
            }
        }
        for key in RESULT_FLOAT_FIELDS {
            let value = row.get(key).ok_or(format!("row {i}: missing field {key:?}"))?;
            match value.as_f64() {
                Some(f) if f.is_finite() && f >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "row {i}: field {key:?} must be a finite non-negative number"
                    ))
                }
            }
        }
    }
    Ok(rows.len())
}

/// Validates a Chrome trace-event JSON artifact written by
/// `rads-node --trace-out` (the [`rads_obs::drain_chrome_trace`] format):
///
/// * the top level is an object with a `traceEvents` array;
/// * every complete (`"ph":"X"`) event carries `name`, `cat`, `ts`, `dur`,
///   `pid`, `tid` and an `args` object with a unique nonzero `id`;
/// * every `parent` id is 0 (a root) or resolves to another span of the
///   same process, and a child never starts before its parent;
/// * the `span_accounting` metadata event reports `started == closed` —
///   every span opened during the run was closed (no leaked guards).
///
/// Returns the number of spans, or a message naming the first violation.
pub fn validate_trace_json(text: &str) -> Result<usize, String> {
    let parsed = json::Json::parse(text)?;
    let events = parsed
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .ok_or("top-level object must carry a traceEvents array")?;
    let event_u64 = |event: &json::Json, key: &str, what: &str| {
        event.get(key).and_then(json::Json::as_u64).ok_or(format!("{what}: missing {key:?}"))
    };
    // first pass: collect span ids and start times per process
    let mut spans: std::collections::HashMap<(u64, u64), u64> = std::collections::HashMap::new();
    let mut accounting = None;
    for (i, event) in events.iter().enumerate() {
        let what = format!("traceEvents[{i}]");
        let ph = event.get("ph").and_then(json::Json::as_str).ok_or(format!("{what}: missing ph"))?;
        let name =
            event.get("name").and_then(json::Json::as_str).ok_or(format!("{what}: missing name"))?;
        match ph {
            "M" => {
                if name == "span_accounting" {
                    let args = event.get("args").ok_or(format!("{what}: missing args"))?;
                    accounting = Some((
                        event_u64(args, "started", &what)?,
                        event_u64(args, "closed", &what)?,
                    ));
                }
            }
            "X" => {
                event
                    .get("cat")
                    .and_then(json::Json::as_str)
                    .ok_or(format!("{what}: span {name:?} missing cat"))?;
                let pid = event_u64(event, "pid", &what)?;
                event_u64(event, "tid", &what)?;
                let ts = event_u64(event, "ts", &what)?;
                event_u64(event, "dur", &what)?;
                let args = event.get("args").ok_or(format!("{what}: span {name:?} missing args"))?;
                let id = event_u64(args, "id", &what)?;
                if id == 0 {
                    return Err(format!("{what}: span {name:?} has id 0"));
                }
                if spans.insert((pid, id), ts).is_some() {
                    return Err(format!("{what}: duplicate span id {id} in process {pid}"));
                }
            }
            other => return Err(format!("{what}: unknown event phase {other:?}")),
        }
    }
    // second pass: parents resolve within the process and started first
    for (i, event) in events.iter().enumerate() {
        if event.get("ph").and_then(json::Json::as_str) != Some("X") {
            continue;
        }
        let what = format!("traceEvents[{i}]");
        let pid = event_u64(event, "pid", &what)?;
        let ts = event_u64(event, "ts", &what)?;
        let args = event.get("args").ok_or(format!("{what}: missing args"))?;
        let parent = event_u64(args, "parent", &what)?;
        if parent == 0 {
            continue;
        }
        let Some(&parent_ts) = spans.get(&(pid, parent)) else {
            return Err(format!("{what}: parent {parent} does not resolve in process {pid}"));
        };
        if parent_ts > ts {
            return Err(format!(
                "{what}: starts at {ts}µs before its parent {parent} at {parent_ts}µs"
            ));
        }
    }
    let (started, closed) = accounting.ok_or("no span_accounting metadata event")?;
    if started != closed {
        return Err(format!("span accounting: {started} spans started but {closed} closed"));
    }
    if started != spans.len() as u64 {
        return Err(format!(
            "span accounting reports {started} spans but the file holds {}",
            spans.len()
        ));
    }
    Ok(spans.len())
}

/// Validates a metrics JSON artifact written by `rads-node --metrics-out`
/// (the [`rads_obs::MetricsSnapshot::to_json`] format): a `metrics` object
/// whose every entry is a counter/gauge with a non-negative `value`, or a
/// histogram whose `buckets` close with an `"+Inf"` bucket and whose
/// per-bucket counts sum to `count`. Returns the number of metrics.
pub fn validate_metrics_json(text: &str) -> Result<usize, String> {
    let parsed = json::Json::parse(text)?;
    let metrics = parsed
        .get("metrics")
        .and_then(json::Json::as_object)
        .ok_or("top-level object must carry a metrics object")?;
    for (name, value) in metrics {
        let kind = value
            .get("type")
            .and_then(json::Json::as_str)
            .ok_or(format!("metric {name:?}: missing type"))?;
        match kind {
            "counter" | "gauge" => {
                value
                    .get("value")
                    .and_then(json::Json::as_u64)
                    .ok_or(format!("metric {name:?}: missing integer value"))?;
            }
            "histogram" => {
                let buckets = value
                    .get("buckets")
                    .and_then(json::Json::as_array)
                    .ok_or(format!("metric {name:?}: missing buckets"))?;
                let last = buckets.last().ok_or(format!("metric {name:?}: no buckets"))?;
                if last.get("le").and_then(json::Json::as_str) != Some("+Inf") {
                    return Err(format!("metric {name:?}: buckets must close with le \"+Inf\""));
                }
                let mut total = 0u64;
                for (b, bucket) in buckets.iter().enumerate() {
                    total += bucket
                        .get("count")
                        .and_then(json::Json::as_u64)
                        .ok_or(format!("metric {name:?}: bucket {b} missing count"))?;
                }
                let count = value
                    .get("count")
                    .and_then(json::Json::as_u64)
                    .ok_or(format!("metric {name:?}: missing count"))?;
                value
                    .get("sum")
                    .and_then(json::Json::as_u64)
                    .ok_or(format!("metric {name:?}: missing sum"))?;
                if total != count {
                    return Err(format!(
                        "metric {name:?}: buckets sum to {total} but count says {count}"
                    ));
                }
            }
            other => return Err(format!("metric {name:?}: unknown type {other:?}")),
        }
    }
    Ok(metrics.len())
}

/// The `observe` experiment: the cost of the observability layer. Every
/// query runs on the same in-process cluster twice per rep — once with
/// tracing and metrics force-disabled, once with both force-enabled — and
/// the fastest rep per leg is recorded (minimum, not mean: noise only adds
/// time). Panics if enabling observability changes any embedding count —
/// the *no-perturbation* contract: spans and metric recordings must never
/// influence enumeration order or results. That assert is the experiment's
/// only check. The rows record, per leg, the minimum of `reps` runs of one
/// in-process query of about 80 ms (q8 at the default scale): too coarse to
/// resolve a difference of a few percent, so they show the order of the
/// overhead, not a budget (the committed q8 rows differ by 12 %, the q5
/// rows by −3 %).
///
/// Trace buffers and the metrics registry are drained and reset between
/// reps so the enabled leg measures steady-state recording, not unbounded
/// accumulation. On return both toggles are left disabled (their
/// programmatic default).
///
/// Returns a `RADS-obs-off` / `RADS-obs-on` record pair per query.
pub fn observe_overhead(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
    query_names: &[&str],
    reps: u32,
) -> Vec<BenchRecord> {
    let dataset = generate(kind, scale, seed);
    let cluster = build_cluster(&dataset.graph, machines);
    let mut records = Vec::new();
    for &qname in query_names {
        let pattern = queries::query_by_name(qname).expect("known query");
        let config = RadsConfig::default();
        let mut expected = None;
        for (system, enabled) in [("RADS-obs-off", false), ("RADS-obs-on", true)] {
            rads_obs::set_metrics_enabled(enabled);
            rads_obs::set_trace_enabled(enabled);
            let mut best: Option<rads_core::RadsOutcome> = None;
            for _ in 0..reps.max(1) {
                let outcome = run_rads(&cluster, &pattern, &config);
                // drain what this rep recorded: steady-state cost, not
                // unbounded accumulation across reps
                rads_obs::discard_trace();
                rads_obs::Registry::global().reset();
                if best.as_ref().is_none_or(|b| outcome.elapsed < b.elapsed) {
                    best = Some(outcome);
                }
            }
            let outcome = best.expect("reps >= 1");
            match expected {
                None => expected = Some(outcome.total_embeddings),
                Some(e) => assert_eq!(
                    e, outcome.total_embeddings,
                    "{qname}: enabling observability changed the embedding count"
                ),
            }
            let elapsed_ms = outcome.elapsed.as_secs_f64() * 1000.0;
            records.push(BenchRecord {
                experiment: "observe".to_string(),
                dataset: dataset.profile.name.clone(),
                query: qname.to_string(),
                system: system.to_string(),
                machines,
                workers: config.workers,
                embeddings: outcome.total_embeddings,
                elapsed_ms,
                embeddings_per_sec: embeddings_per_sec(outcome.total_embeddings, elapsed_ms),
                bytes_shipped: outcome.traffic.total_bytes,
                peak_tracked_bytes: outcome.peak_tracked_bytes(),
                budget_bytes: 0,
            });
        }
        rads_obs::set_metrics_enabled(false);
        rads_obs::set_trace_enabled(false);
    }
    records
}

/// The `sockets` experiment: the same queries on the same dataset stand-in
/// over (a) the in-process channel transport with its *simulated* byte
/// model and (b) a real multi-process UDS cluster (this process as
/// coordinator + `machines - 1` spawned `rads-node` workers, launched and
/// shut down per query by [`run_once`]) counting
/// *real framed bytes*. Panics if the two transports disagree on any
/// embedding count — the ground-truth gate of the socket runtime — and
/// returns a `RADS-sim` / `RADS-uds` record pair per query whose
/// `bytes_shipped` columns compare the cost model against the wire.
pub fn socket_vs_simulated(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
    query_names: &[&str],
    node_binary: &Path,
    timeout: Duration,
) -> Result<Vec<BenchRecord>, String> {
    let dataset = generate(kind, scale, seed);
    // the baseline leg is pinned to the channel simulator: its whole point
    // is recording the *modelled* bytes, which RADS_TRANSPORT=uds would
    // silently turn into a second wire measurement
    let partitioning =
        LabelPropagationPartitioner::default().partition(&dataset.graph, machines);
    let cluster = Cluster::with_transport(
        Arc::new(PartitionedGraph::build(&dataset.graph, partitioning)),
        TransportKind::InProcess,
    );
    let mut records = Vec::new();
    for &qname in query_names {
        let pattern = queries::query_by_name(qname).ok_or(format!("unknown query {qname:?}"))?;
        let config = RadsConfig::default();
        let workers = config.workers;
        let sim_start = Instant::now();
        let sim = run_rads(&cluster, &pattern, &config);
        let sim_ms = sim_start.elapsed().as_secs_f64() * 1000.0;

        let spec = ClusterSpec {
            machines,
            dataset: kind,
            scale: scale.0,
            seed,
            workers,
            budget: None,
            driver: config.round_driver,
            cache: true,
            trace_out: None,
            metrics_out: None,
            fault_policy: FaultPolicy::default(),
            chaos_kill_ms: None,
        };
        let summary = run_once(&spec, qname, TransportKind::Uds, node_binary, timeout)?;
        assert_eq!(
            summary.total_embeddings, sim.total_embeddings,
            "{qname}: the real-socket cluster deviates from the in-process transport"
        );
        // comparable to the sim row's run_rads wall clock: the slowest
        // machine's *engine* time — the coordinator's own elapsed_ms also
        // counts process spawning and N independent dataset generations
        let uds_ms = summary
            .per_machine
            .iter()
            .map(|m| m.elapsed_ms)
            .fold(0.0f64, f64::max);
        for (system, bytes, ms) in [
            ("RADS-sim", sim.traffic.total_bytes, sim_ms),
            ("RADS-uds", summary.wire_bytes, uds_ms),
        ] {
            records.push(BenchRecord {
                experiment: "sockets".to_string(),
                dataset: dataset.profile.name.clone(),
                query: qname.to_string(),
                system: system.to_string(),
                machines,
                workers,
                embeddings: sim.total_embeddings,
                elapsed_ms: ms,
                embeddings_per_sec: embeddings_per_sec(sim.total_embeddings, ms),
                bytes_shipped: bytes,
                peak_tracked_bytes: 0,
                budget_bytes: 0,
            });
        }
    }
    Ok(records)
}

/// Table 1: the dataset profiles.
pub fn table1(scale: Scale, seed: u64) -> Vec<rads_datasets::DatasetProfile> {
    rads_datasets::generate_all(scale, seed).into_iter().map(|d| d.profile).collect()
}

/// Table 2: data-graph size vs Crystal clique-index size, per dataset.
pub fn table2(scale: Scale, seed: u64) -> Vec<(String, usize, usize)> {
    rads_datasets::generate_all(scale, seed)
        .into_iter()
        .map(|d| {
            let graph_bytes = d.graph.memory_bytes();
            let index_bytes = CliqueIndex::build(&d.graph, 4).size_bytes();
            (d.profile.name, graph_bytes, index_bytes)
        })
        .collect()
}

/// Figures 8–11: elapsed time and communication for every system and query on
/// one dataset.
pub fn performance_figure(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
    systems: &[System],
    query_names: &[&str],
) -> Vec<Measurement> {
    let dataset = generate(kind, scale, seed);
    let cluster = build_cluster(&dataset.graph, machines);
    let index = CliqueIndex::build(&dataset.graph, 4);
    let mut rows = Vec::new();
    for &qname in query_names {
        let pattern = queries::query_by_name(qname).expect("known query");
        for &system in systems {
            rows.push(run_system(
                system,
                &cluster,
                &dataset.graph,
                dataset.profile.name.as_str(),
                qname,
                &pattern,
                Some(&index),
            ));
        }
    }
    rows
}

/// Figure 12: scalability ratio — total time over all queries with 5 machines
/// divided by the total time with `m` machines, for m in `machine_counts`.
pub fn scalability_figure(
    kind: DatasetKind,
    scale: Scale,
    machine_counts: &[usize],
    seed: u64,
    systems: &[System],
    query_names: &[&str],
) -> Vec<(&'static str, usize, f64)> {
    let dataset = generate(kind, scale, seed);
    let index = CliqueIndex::build(&dataset.graph, 4);
    let mut totals: Vec<(System, usize, f64)> = Vec::new();
    for &m in machine_counts {
        let cluster = build_cluster(&dataset.graph, m);
        for &system in systems {
            let mut total_ms = 0.0;
            for &qname in query_names {
                let pattern = queries::query_by_name(qname).expect("known query");
                let row = run_system(
                    system,
                    &cluster,
                    &dataset.graph,
                    dataset.profile.name.as_str(),
                    qname,
                    &pattern,
                    Some(&index),
                );
                total_ms += row.elapsed_ms;
            }
            totals.push((system, m, total_ms));
        }
    }
    let base = machine_counts[0];
    let mut out = Vec::new();
    for &system in systems {
        let base_ms = totals
            .iter()
            .find(|(s, m, _)| *s == system && *m == base)
            .map(|(_, _, t)| *t)
            .unwrap_or(1.0);
        for &m in machine_counts {
            let t = totals
                .iter()
                .find(|(s, mm, _)| *s == system && *mm == m)
                .map(|(_, _, t)| *t)
                .unwrap_or(base_ms);
            out.push((system.name(), m, base_ms / t.max(1e-6)));
        }
    }
    out
}

/// Figure 13: execution-plan effectiveness — RADS's planner vs RanS vs RanM.
pub fn plan_effectiveness_figure(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
    query_names: &[&str],
    repetitions: u64,
) -> Vec<(String, String, f64)> {
    let dataset = generate(kind, scale, seed);
    let cluster = build_cluster(&dataset.graph, machines);
    let mut rows = Vec::new();
    for &qname in query_names {
        let pattern = queries::query_by_name(qname).expect("known query");
        // RADS plan
        let start = Instant::now();
        let expected = run_rads(&cluster, &pattern, &RadsConfig::default()).total_embeddings;
        rows.push((qname.to_string(), "RADS".to_string(), start.elapsed().as_secs_f64() * 1000.0));
        // RanS / RanM: average over `repetitions` random plans
        for (label, make_plan) in [
            ("RanS", true),
            ("RanM", false),
        ] {
            let mut total = 0.0;
            for rep in 0..repetitions {
                let plan = if make_plan {
                    random_star_plan(&pattern, seed + rep)
                } else {
                    random_min_round_plan(&pattern, seed + rep)
                };
                let config = RadsConfig { plan_override: Some(plan), ..Default::default() };
                let start = Instant::now();
                let outcome = run_rads(&cluster, &pattern, &config);
                assert_eq!(outcome.total_embeddings, expected, "{qname}/{label}");
                total += start.elapsed().as_secs_f64() * 1000.0;
            }
            rows.push((qname.to_string(), label.to_string(), total / repetitions as f64));
        }
    }
    rows
}

/// Tables 3–4: intermediate-result size, embedding list vs embedding trie.
pub fn compression_table(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
    query_names: &[&str],
) -> Vec<(String, u64, u64)> {
    let dataset = generate(kind, scale, seed);
    let cluster = build_cluster(&dataset.graph, machines);
    query_names
        .iter()
        .map(|&qname| {
            let pattern = queries::query_by_name(qname).expect("known query");
            let outcome = run_rads(&cluster, &pattern, &RadsConfig::default());
            (qname.to_string(), outcome.embedding_list_bytes(), outcome.embedding_trie_bytes())
        })
        .collect()
}

/// Figure 15: clique-heavy queries, SEED vs Crystal vs RADS.
pub fn clique_queries_figure(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
) -> Vec<Measurement> {
    performance_figure(
        kind,
        scale,
        machines,
        seed,
        &[System::Seed, System::Crystal, System::Rads],
        &["c1", "c2", "c3", "c4"],
    )
}

/// Ablations called out in DESIGN.md: SM-E on/off, cache on/off, proximity vs
/// random region grouping. Returns (`label`, elapsed ms, communication MB).
pub fn ablations(kind: DatasetKind, scale: Scale, machines: usize, seed: u64, query: &str) -> Vec<(String, f64, f64)> {
    let dataset = generate(kind, scale, seed);
    let cluster = build_cluster(&dataset.graph, machines);
    let pattern = queries::query_by_name(query).expect("known query");
    let variants: Vec<(&str, RadsConfig)> = vec![
        ("full", RadsConfig::default()),
        ("no-sme", RadsConfig { enable_sme: false, ..Default::default() }),
        ("no-cache", RadsConfig { enable_cache: false, ..Default::default() }),
        (
            "random-groups",
            RadsConfig { grouping: rads_core::RegionGroupStrategy::Random, ..Default::default() },
        ),
        ("no-load-sharing", RadsConfig { enable_load_sharing: false, ..Default::default() }),
    ];
    let mut expected = None;
    variants
        .into_iter()
        .map(|(label, config)| {
            let start = Instant::now();
            let outcome = run_rads(&cluster, &pattern, &config);
            let ms = start.elapsed().as_secs_f64() * 1000.0;
            match expected {
                None => expected = Some(outcome.total_embeddings),
                Some(e) => assert_eq!(e, outcome.total_embeddings, "{label} changed the result"),
            }
            (label.to_string(), ms, outcome.traffic.megabytes())
        })
        .collect()
}

/// The robustness test of Exp-4: run every system on a dense workload and
/// report the peak bytes of intermediate state any single machine had to
/// hold, together with whether that fits under `cap_bytes`. RADS bounds its
/// peak through region grouping; the shuffle-based systems do not, which is
/// why they are the ones that exceed the cap first as the graph grows.
pub fn robustness_experiment(
    kind: DatasetKind,
    scale: Scale,
    machines: usize,
    seed: u64,
    query: &str,
    cap_bytes: usize,
) -> Vec<(&'static str, usize, bool)> {
    let dataset = generate(kind, scale, seed);
    let cluster = build_cluster(&dataset.graph, machines);
    let pattern = queries::query_by_name(query).expect("known query");
    let index = CliqueIndex::build(&dataset.graph, 4);
    let mut rows = Vec::new();

    let rads_budget = RadsConfig {
        memory_budget: rads_core::memory::MemoryBudget::from_bytes(cap_bytes / 4),
        ..Default::default()
    };
    let rads = run_rads(&cluster, &pattern, &rads_budget);
    let rads_peak = rads.peak_trie_nodes() * rads_core::EmbeddingTrie::NODE_BYTES;
    rows.push(("RADS", rads_peak, rads_peak <= cap_bytes));

    let psgl = run_psgl(&cluster, &pattern);
    rows.push(("PSgL", psgl.peak_intermediate_bytes(), psgl.peak_intermediate_bytes() <= cap_bytes));
    let tt = run_twintwig(&cluster, &pattern);
    rows.push(("TwinTwig", tt.peak_intermediate_bytes(), tt.peak_intermediate_bytes() <= cap_bytes));
    let seed_o = run_seed(&cluster, &dataset.graph, &pattern);
    rows.push(("SEED", seed_o.peak_intermediate_bytes(), seed_o.peak_intermediate_bytes() <= cap_bytes));
    let crystal = run_crystal(&cluster, &dataset.graph, &pattern, &index);
    rows.push((
        "Crystal",
        crystal.peak_intermediate_bytes(),
        crystal.peak_intermediate_bytes() <= cap_bytes,
    ));
    rows
}

/// The adversarial hub workload of the governor robustness experiment: a
/// graph plus partitioning built so the *static* space estimate is wildly
/// wrong.
///
/// Two machines each own half of a sparse chorded ring (every ring vertex
/// closes a couple of triangles, so SM-E fits a small nodes-per-candidate
/// estimate from the partition interiors), and many disjoint dense *hub
/// pods* — 12-vertex cliques — straddle the partition cut: every pod vertex
/// is adjacent to pod-mates on the other machine, so all of them have border
/// distance 0, are excluded from the SM-E sample, and land in the
/// distributed phase, where each generates hundreds of times the estimated
/// intermediate results. Region groups sized from the ring-fitted estimate
/// pack many pod vertices together and blow an order of magnitude past `Φ`
/// unless the runtime governor splits them; at the same time no *single*
/// start candidate exceeds a few tens of KiB, so the governor's `Φ/2`
/// single-unit contract holds for budgets well below the aggregate overflow.
pub fn hub_trap_workload(scale: Scale, seed: u64) -> (Graph, rads_partition::Partitioning) {
    use rads_graph::GraphBuilder;
    const POD: usize = 12;
    // Ring size scales; the pod count keeps a floor so the aggregate
    // explosion factor survives smoke-mode scales. Only the pod embeddings
    // with a sibling edge between two foreign pod-mates are materialised
    // (the rest complete depth-first), about 30 % of them, hence a floor
    // three times what an engine materialising every pod embedding needs.
    let ring = (((1600.0 * scale.0).round() as usize).max(160) / 2) * 2;
    let pods = (ring / 16).max(72);
    let n = ring + pods * POD;
    let mut b = GraphBuilder::new(n);
    for i in 0..ring as u32 {
        b.add_edge(i, (i + 1) % ring as u32);
        b.add_edge(i, (i + 2) % ring as u32);
    }
    for p in 0..pods {
        let base = (ring + p * POD) as u32;
        for i in 0..POD as u32 {
            for j in i + 1..POD as u32 {
                b.add_edge(base + i, base + j);
            }
        }
    }
    // Tie every pod into the ring *near the two borders only* (the cut at
    // ring/2 and the wrap-around at 0), so the ring interior keeps its
    // border distance and SM-E still trains the — soon to be defeated —
    // estimate on it; `seed` perturbs the attachment points.
    let cut = ring as u32 / 2;
    for p in 0..pods as u32 {
        let base = ring as u32 + p * POD as u32;
        let offset = (seed as u32).wrapping_add(3 * p) % 8;
        b.add_edge(base, (cut + offset) % ring as u32);
        b.add_edge(base + 1, (offset * 2) % ring as u32);
    }
    let graph = b.build();
    // Machine 0: first half of the ring and the even pod vertices; machine
    // 1: the rest. Alternating ownership inside a pod puts every pod vertex
    // on the border.
    let assignment: Vec<usize> = (0..n)
        .map(|v| {
            if v < ring {
                usize::from(v >= ring / 2)
            } else {
                (v - ring) % 2
            }
        })
        .collect();
    (graph, rads_partition::Partitioning::new(assignment, 2))
}

/// The governor robustness experiment: on [`hub_trap_workload`], the static
/// estimate packs hub candidates into groups that overflow `Φ` by ≥ 10x
/// (demonstrated by the `RADS-static` rows, which disable runtime
/// enforcement), while the governor keeps the peak at or under `Φ`
/// (`RADS-governor` rows) — with embedding counts equal to the
/// single-machine ground truth in every configuration. Panics if any of
/// those properties fails, so committed rows are self-verifying.
pub fn governor_robustness(
    scale: Scale,
    seed: u64,
    budget_bytes: usize,
    worker_counts: &[usize],
) -> Vec<BenchRecord> {
    let (graph, partitioning) = hub_trap_workload(scale, seed);
    let cluster = Cluster::new(Arc::new(PartitionedGraph::build(&graph, partitioning)));
    let pattern = queries::query_by_name("q2").expect("known query");
    let expected = rads_single::count_embeddings(&graph, &pattern);
    let mut records = Vec::new();
    for &workers in worker_counts {
        for (system, enforce) in [("RADS-static", false), ("RADS-governor", true)] {
            let config = RadsConfig {
                memory_budget: rads_core::MemoryBudget::from_bytes(budget_bytes),
                enforce_memory_budget: enforce,
                ..RadsConfig::with_workers(workers)
            };
            let start = Instant::now();
            let outcome = run_rads(&cluster, &pattern, &config);
            let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
            assert_eq!(
                outcome.total_embeddings, expected,
                "{system} workers={workers}: counts deviate from ground truth"
            );
            let peak = outcome.peak_tracked_bytes();
            if enforce {
                assert!(
                    peak <= budget_bytes as u64,
                    "{system} workers={workers}: peak {peak} B exceeds Φ = {budget_bytes} B — \
                     if Φ was overridden (--budget), it must stay at least twice the workload's \
                     largest single-candidate footprint (the governor's Φ/2 single-unit contract)"
                );
            } else {
                assert!(
                    peak >= 10 * budget_bytes as u64,
                    "the workload must defeat the static estimate by ≥ 10x, got peak {peak} B vs \
                     Φ = {budget_bytes} B — if Φ was overridden (--budget), it must stay at most \
                     1/10th of the workload's unguarded peak (≈ 0.8 MiB at smoke scales)"
                );
            }
            records.push(BenchRecord {
                experiment: "robustness".to_string(),
                dataset: "HubTrap".to_string(),
                query: "q2".to_string(),
                system: system.to_string(),
                machines: 2,
                workers,
                embeddings: outcome.total_embeddings,
                elapsed_ms,
                embeddings_per_sec: embeddings_per_sec(outcome.total_embeddings, elapsed_ms),
                bytes_shipped: outcome.traffic.total_bytes,
                peak_tracked_bytes: peak,
                budget_bytes: budget_bytes as u64,
            });
        }
    }
    records
}

/// Convenience used by the binary and smoke tests: a small dataset for quick
/// verification.
pub fn smoke_dataset() -> Dataset {
    generate(DatasetKind::Dblp, Scale(0.1), 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_agree_on_a_small_workload() {
        let dataset = smoke_dataset();
        let cluster = build_cluster(&dataset.graph, 3);
        let index = CliqueIndex::build(&dataset.graph, 4);
        for qname in ["triangle", "q1", "q2"] {
            let pattern = queries::query_by_name(qname).unwrap();
            let counts: Vec<u64> = System::all()
                .iter()
                .map(|&s| {
                    run_system(s, &cluster, &dataset.graph, "DBLP", qname, &pattern, Some(&index))
                        .embeddings
                })
                .collect();
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{qname}: {counts:?}");
        }
    }

    #[test]
    fn table1_has_four_rows() {
        let rows = table1(Scale(0.1), 3);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.vertices > 0 && r.edges > 0));
    }

    #[test]
    fn table2_index_is_larger_than_graph_on_dense_datasets() {
        let rows = table2(Scale(0.1), 3);
        assert_eq!(rows.len(), 4);
        // at least one dense dataset has an index comparable to or larger
        // than the CSR graph, reproducing the paper's index-blow-up point
        assert!(rows.iter().any(|(_, g, i)| i * 2 > *g));
    }

    #[test]
    fn ablations_preserve_counts() {
        let rows = ablations(DatasetKind::Dblp, Scale(0.1), 2, 5, "q2");
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn measurement_rendering() {
        let m = Measurement {
            system: "RADS",
            dataset: "DBLP".into(),
            query: "q1".into(),
            machines: 4,
            embeddings: 10,
            elapsed_ms: 1.5,
            communication_mb: 0.25,
            peak_intermediate_rows: 7,
            workers: 2,
        };
        let line = m.render();
        assert!(line.contains("RADS") && line.contains("q1") && line.contains("4m"));
        let record = BenchRecord::from_measurement("fig9", &m);
        assert_eq!(record.bytes_shipped, 262144);
        assert_eq!(record.workers, 2);
        let json = record.to_json();
        assert!(json.contains("\"experiment\":\"fig9\""));
        assert!(json.contains("\"bytes_shipped\":262144"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn results_json_renders_an_array() {
        let m = Measurement {
            system: "RADS",
            dataset: "DBLP".into(),
            query: "q2".into(),
            machines: 2,
            embeddings: 3,
            elapsed_ms: 0.5,
            communication_mb: 0.0,
            peak_intermediate_rows: 1,
            workers: 1,
        };
        let records = vec![
            BenchRecord::from_measurement("fig9", &m),
            BenchRecord::from_measurement("fig9", &m),
        ];
        let text = render_results_json(&records);
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert_eq!(text.matches("\"query\":\"q2\"").count(), 2);
        assert_eq!(render_results_json(&[]), "[\n]\n");
    }

    #[test]
    fn intersect_experiment_pins_kernel_equivalence() {
        let records =
            intersect_speedup(DatasetKind::Dblp, Scale(0.08), 2, 9, &["q1", "c1"], &[1, 2], 1);
        assert_eq!(records.len(), 4);
        for pair in records.chunks(2) {
            assert_eq!(pair[0].system, "probe-kernel");
            assert_eq!(pair[1].system, "intersect-kernel");
            assert_eq!(pair[0].embeddings, pair[1].embeddings);
            assert_eq!(pair[0].experiment, "intersect");
        }
    }

    #[test]
    fn throughput_is_finite_and_consistent() {
        assert_eq!(embeddings_per_sec(500, 250.0), 2000.0);
        assert_eq!(embeddings_per_sec(500, 0.0), 0.0);
        let m = Measurement {
            system: "RADS",
            dataset: "DBLP".into(),
            query: "q1".into(),
            machines: 1,
            embeddings: 100,
            elapsed_ms: 50.0,
            communication_mb: 0.0,
            peak_intermediate_rows: 0,
            workers: 1,
        };
        let record = BenchRecord::from_measurement("fig9", &m);
        assert_eq!(record.embeddings_per_sec, 2000.0);
        assert!(record.to_json().contains("\"embeddings_per_sec\":2000.0"));
    }

    #[test]
    fn results_json_round_trips_through_the_reader() {
        let m = Measurement {
            system: "RADS",
            dataset: "DBLP".into(),
            query: "q1".into(),
            machines: 4,
            embeddings: 123,
            elapsed_ms: 1.5,
            communication_mb: 0.25,
            peak_intermediate_rows: 7,
            workers: 2,
        };
        let records = vec![BenchRecord::from_measurement("fig9", &m)];
        let parsed = json::Json::parse(&render_results_json(&records)).unwrap();
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("experiment").and_then(json::Json::as_str), Some("fig9"));
        assert_eq!(rows[0].get("embeddings").and_then(json::Json::as_u64), Some(123));
        assert_eq!(rows[0].get("elapsed_ms").and_then(json::Json::as_f64), Some(1.5));
    }

    #[test]
    fn results_schema_validation_accepts_the_writer_and_rejects_drift() {
        let m = Measurement {
            system: "RADS",
            dataset: "DBLP".into(),
            query: "q1".into(),
            machines: 2,
            embeddings: 5,
            elapsed_ms: 1.0,
            communication_mb: 0.0,
            peak_intermediate_rows: 0,
            workers: 1,
        };
        let good = render_results_json(&[BenchRecord::from_measurement("fig9", &m)]);
        assert_eq!(validate_results_json(&good), Ok(1));
        // empty array, missing field, wrong type, malformed JSON
        assert!(validate_results_json("[\n]\n").is_err());
        let missing = good.replace("\"embeddings\":5,", "");
        assert!(validate_results_json(&missing).unwrap_err().contains("embeddings"));
        let wrong_type = good.replace("\"machines\":2", "\"machines\":\"two\"");
        assert!(validate_results_json(&wrong_type).unwrap_err().contains("machines"));
        assert!(validate_results_json("{not json").is_err());
    }

    #[test]
    fn governor_robustness_rows_are_self_verifying() {
        // `governor_robustness` panics unless: counts equal ground truth,
        // governor peak ≤ Φ, static peak ≥ 10 Φ. Smoke scale, workers 1 & 2.
        let records = governor_robustness(Scale(0.05), 42, 64 * 1024, &[1, 2]);
        assert_eq!(records.len(), 4);
        for pair in records.chunks(2) {
            assert_eq!(pair[0].system, "RADS-static");
            assert_eq!(pair[1].system, "RADS-governor");
            assert_eq!(pair[0].embeddings, pair[1].embeddings);
            assert!(pair[0].peak_tracked_bytes >= 10 * pair[0].budget_bytes);
            assert!(pair[1].peak_tracked_bytes <= pair[1].budget_bytes);
        }
    }
}
