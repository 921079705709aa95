//! The processes of a cluster: what they agree on, how machine 0 spawns,
//! watches and reaps them, and what each reports.
//!
//! A **real** RADS cluster is N OS processes, one machine each: every
//! process builds the deterministic dataset stand-in and its partitioning
//! locally (the generators are seed-stable across processes, so no graph
//! data crosses the wire) and then stays resident, answering queries over
//! the socket fabric (see [`crate::serve`] for the lifecycle). This module
//! holds the parts of that which are about *processes* rather than queries:
//!
//! * [`ClusterSpec`] and [`worker_args`] — the coordinator→worker CLI
//!   contract that makes all N processes build the same graph;
//! * `ClusterWatch` — machine 0's handle on its worker processes: the
//!   spawn loop, the liveness watch (`try_wait` is authoritative,
//!   heartbeats are advisory), the chaos kill, the reap loop and the
//!   scratch-socket cleanup, each exactly once;
//! * [`MachineSummary`] / [`ClusterSummary`] — what a machine reports per
//!   query and the single-line JSON `rads-node run` prints. `wire_bytes`
//!   are *real framed bytes* summed over every process — the ground truth
//!   the simulated cost model is judged against.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rads_core::engine::{MachineOutput, RoundDriver};
use rads_core::memory::MemoryBudget;
use rads_datasets::{generate, DatasetKind, Scale};
use rads_partition::{LabelPropagationPartitioner, PartitionedGraph, Partitioner};
use rads_runtime::transport::scratch_socket_dir;
use rads_runtime::{ConfigError, PeerAddr, TrafficSnapshot, TransportKind};

use crate::json::Json;

/// Environment variable selecting what the coordinator does when a worker
/// process dies mid-run (see [`FaultPolicy`]): `fail-fast` (default) or
/// `recover`.
pub const FAULT_POLICY_ENV: &str = "RADS_FAULT_POLICY";

/// What the coordinator does when it confirms a worker process died before
/// delivering its result.
///
/// Death is confirmed by `Child::try_wait` — the OS reaping the worker is
/// authoritative. Stale heartbeats (a worker that stopped streaming its
/// periodic metrics frames) are only *counted* (`heartbeats_missed` in the
/// [`ClusterSummary`]), never acted on: a slow machine is not a dead one,
/// and the run's hard deadline already bounds a genuine wedge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Kill the surviving workers and fail the run with a structured
    /// per-machine report naming the dead machine(s). Nothing hangs: the
    /// report is produced within the run's deadline.
    #[default]
    FailFast,
    /// Kill the surviving workers and deterministically recompute the run
    /// on an in-process cluster, yielding the same embedding counts the
    /// socket cluster would have produced (the generators and the engine
    /// are seed-stable; `socket_transports_reproduce_the_simulator_counts`
    /// pins the equivalence). The *whole* run is recomputed, not just the
    /// dead machine's region groups: checkR/shareR work stealing means a
    /// lost machine's groups may already be half-processed elsewhere, so
    /// per-machine shares are not individually reconstructible — but the
    /// cluster total is deterministic, and that is what recovery restores.
    Recover,
}

impl FaultPolicy {
    /// CLI / summary name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPolicy::FailFast => "fail-fast",
            FaultPolicy::Recover => "recover",
        }
    }

    /// The policy selected by `RADS_FAULT_POLICY` (default
    /// [`FaultPolicy::FailFast`]); a typed error for anything else.
    pub fn from_env() -> Result<FaultPolicy, ConfigError> {
        Self::from_env_value(std::env::var(FAULT_POLICY_ENV).ok().as_deref())
    }

    /// [`FaultPolicy::from_env`] over an explicit value (`None` = unset),
    /// unit-testable without mutating the environment.
    pub fn from_env_value(raw: Option<&str>) -> Result<FaultPolicy, ConfigError> {
        match raw {
            None => Ok(FaultPolicy::default()),
            Some(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "fail-fast" | "failfast" => Ok(FaultPolicy::FailFast),
                "recover" => Ok(FaultPolicy::Recover),
                _ => Err(ConfigError {
                    var: FAULT_POLICY_ENV,
                    value: raw.to_string(),
                    expected: "\"fail-fast\" or \"recover\"",
                }),
            },
        }
    }
}

/// Everything every process of one cluster must agree on. The coordinator
/// forwards these to its workers verbatim as CLI flags ([`worker_args`]),
/// which is what guarantees all N processes build the same graph and
/// partitioning and run the same engine. The pattern is not part of it: a
/// resident cluster receives its queries over the wire.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of machines (= processes).
    pub machines: usize,
    /// Which dataset stand-in to generate.
    pub dataset: DatasetKind,
    /// Generator scale.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Intra-machine worker threads per process.
    pub workers: usize,
    /// Per-group memory budget override (`None` = `RADS_MEMORY_BUDGET` /
    /// default).
    pub budget: Option<usize>,
    /// Round driver (serial oracle vs async scatter/harvest). Forwarded to
    /// workers so all processes run the same engine.
    pub driver: RoundDriver,
    /// Cache fetched foreign vertices across rounds and groups (the
    /// engine's `enable_cache`, default true). `--no-cache` reproduces the
    /// paper's communication-heavy regime; counts are identical either way
    /// (the `ablation_cache` axis).
    pub cache: bool,
    /// Write this process's Chrome trace-event JSON here when the process
    /// shuts down (implies tracing on). On the coordinator this is the *base* path:
    /// machine 0 writes it verbatim, worker `K` writes `<path>.m<K>` (the
    /// coordinator derives the per-worker path in [`worker_args`]).
    pub trace_out: Option<PathBuf>,
    /// Write this process's metrics snapshot here when the process shuts
    /// down (implies metrics on): JSON at the path itself, Prometheus text at
    /// `<path>.prom`. Same per-machine `.m<K>` derivation as `trace_out`.
    pub metrics_out: Option<PathBuf>,
    /// What `rads-node run` does when a worker process dies mid-query
    /// (`serve` is always fail-fast). Not forwarded to workers — only the
    /// coordinator acts on it.
    pub fault_policy: FaultPolicy,
    /// Chaos mode: the coordinator SIGKILLs the highest-id worker this many
    /// milliseconds after spawning it — a real mid-run process loss, used by
    /// the chaos suite to prove the fault policy. Coordinator-side only.
    pub chaos_kill_ms: Option<u64>,
}

/// The artifact path of machine `machine` under base path `base`: machine 0
/// (the coordinator) owns the base path itself, worker `K` gets `base.mK`.
pub fn machine_artifact(base: &Path, machine: usize) -> PathBuf {
    if machine == 0 {
        base.to_path_buf()
    } else {
        PathBuf::from(format!("{}.m{machine}", base.display()))
    }
}

/// Sibling path of a metrics JSON artifact holding the Prometheus text
/// rendering.
pub fn prometheus_sibling(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.prom", path.display()))
}

/// Writes this process's observability artifacts (trace JSON, metrics
/// JSON with its Prometheus text sibling) to the paths in `spec`, if any.
/// Called once per process after its node finished shutting down, so
/// daemon-thread trace buffers have flushed.
pub(crate) fn write_observability_artifacts(spec: &ClusterSpec) -> Result<(), String> {
    if let Some(path) = &spec.trace_out {
        std::fs::write(path, rads_obs::drain_chrome_trace())
            .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
    }
    if let Some(path) = &spec.metrics_out {
        let snapshot = rads_obs::Registry::global().snapshot();
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| format!("cannot write metrics to {}: {e}", path.display()))?;
        let prom = prometheus_sibling(path);
        std::fs::write(&prom, snapshot.to_prometheus())
            .map_err(|e| format!("cannot write metrics to {}: {e}", prom.display()))?;
    }
    Ok(())
}

/// Parses a dataset stand-in by its paper name (case-insensitive).
pub fn dataset_by_name(name: &str) -> Option<DatasetKind> {
    DatasetKind::all().into_iter().find(|k| k.name().eq_ignore_ascii_case(name))
}

/// Builds the deterministic partitioned graph every process of the cluster
/// agrees on (same generator, same seed, same partitioner as the
/// experiment harness's in-process clusters).
pub fn build_partitioned(spec: &ClusterSpec) -> Arc<PartitionedGraph> {
    let dataset = generate(spec.dataset, Scale(spec.scale), spec.seed);
    let partitioning = LabelPropagationPartitioner::default().partition(&dataset.graph, spec.machines);
    Arc::new(PartitionedGraph::build(&dataset.graph, partitioning))
}

/// The memory budget a process uses for every query without a client
/// override: the explicit `--budget`, else one read of `RADS_MEMORY_BUDGET`.
/// Resolved once per process at startup, so flipping the variable under a
/// resident cluster cannot change behaviour mid-stream.
pub(crate) fn startup_budget(spec: &ClusterSpec) -> MemoryBudget {
    match spec.budget {
        Some(bytes) => MemoryBudget::from_bytes(bytes),
        None => MemoryBudget::default_from_env(),
    }
}

/// `RADS_WORKERS` as the binaries accept it: unset, or a positive integer.
/// ([`rads_exec::workers_from_env`] keeps its silent fallback to 1 for
/// library callers; a node process rejects the typo up front instead.)
fn workers_env_value(raw: Option<&str>) -> Result<(), ConfigError> {
    match raw {
        Some(raw) if !raw.trim().parse::<usize>().is_ok_and(|n| n >= 1) => Err(ConfigError {
            var: rads_exec::WORKERS_ENV,
            value: raw.to_string(),
            expected: "a positive worker-thread count",
        }),
        _ => Ok(()),
    }
}

/// Validates every `RADS_*` variable a node process (and the workers it
/// spawns, which inherit the environment) reads, so a typo fails the run up
/// front with one typed message instead of a mid-run panic deep in a worker.
pub fn validate_env() -> Result<(), ConfigError> {
    workers_env_value(std::env::var(rads_exec::WORKERS_ENV).ok().as_deref())?;
    MemoryBudget::from_env()?;
    RoundDriver::from_env()?;
    TransportKind::from_env()?;
    rads_runtime::transport::barrier_timeout_from_env()?;
    FaultPolicy::from_env()?;
    Ok(())
}

// --------------------------------------------------------------------------
// result payload (worker → coordinator), little-endian fixed layout
// --------------------------------------------------------------------------

/// What one machine reports into the cluster summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSummary {
    /// Machine id.
    pub machine: usize,
    /// Embeddings this machine found.
    pub embeddings: u64,
    /// Embeddings found in the SM-E phase.
    pub sme_embeddings: u64,
    /// Real framed bytes this process put on the wire.
    pub wire_bytes: u64,
    /// Remote requests this process sent.
    pub wire_messages: u64,
    /// EWMA (µs) of the first-response wait after scattering a round's
    /// *demand* `fetchV` chunks — ≈ one link round trip
    /// ([`rads_core::engine::EngineStats::fetch_wait_micros`]).
    pub fetch_wait_demand_us: u64,
    /// This machine's engine wall-clock in milliseconds.
    pub elapsed_ms: f64,
    /// RPCs this machine transparently re-issued after a transient
    /// transport failure (the retry/backoff layer in
    /// [`rads_runtime::MachineContext`]).
    pub rpc_retries: u64,
    /// Dead peer connections this machine replaced with a fresh dial.
    pub reconnects: u64,
}

pub(crate) const RESULT_PAYLOAD_BYTES: usize = 68;

pub(crate) fn encode_result(m: &MachineSummary) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RESULT_PAYLOAD_BYTES);
    buf.extend_from_slice(&(m.machine as u32).to_le_bytes());
    buf.extend_from_slice(&m.embeddings.to_le_bytes());
    buf.extend_from_slice(&m.sme_embeddings.to_le_bytes());
    buf.extend_from_slice(&m.wire_bytes.to_le_bytes());
    buf.extend_from_slice(&m.wire_messages.to_le_bytes());
    buf.extend_from_slice(&m.fetch_wait_demand_us.to_le_bytes());
    buf.extend_from_slice(&m.elapsed_ms.to_bits().to_le_bytes());
    buf.extend_from_slice(&m.rpc_retries.to_le_bytes());
    buf.extend_from_slice(&m.reconnects.to_le_bytes());
    buf
}

pub(crate) fn decode_result(buf: &[u8]) -> Result<MachineSummary, String> {
    if buf.len() != RESULT_PAYLOAD_BYTES {
        return Err(format!(
            "result payload of {} bytes, expected {RESULT_PAYLOAD_BYTES}",
            buf.len()
        ));
    }
    let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("8 bytes"));
    Ok(MachineSummary {
        machine: u32_at(0) as usize,
        embeddings: u64_at(4),
        sme_embeddings: u64_at(12),
        wire_bytes: u64_at(20),
        wire_messages: u64_at(28),
        fetch_wait_demand_us: u64_at(36),
        elapsed_ms: f64::from_bits(u64_at(44)),
        rpc_retries: u64_at(52),
        reconnects: u64_at(60),
    })
}

pub(crate) fn machine_summary(
    machine: usize,
    output: &MachineOutput,
    wire: &TrafficSnapshot,
    elapsed: Duration,
    reconnects: u64,
) -> MachineSummary {
    MachineSummary {
        machine,
        embeddings: output.count,
        sme_embeddings: output.stats.sme_embeddings,
        wire_bytes: wire.total_bytes,
        wire_messages: wire.messages,
        fetch_wait_demand_us: output.stats.fetch_wait_micros,
        elapsed_ms: elapsed.as_secs_f64() * 1000.0,
        rpc_retries: output.stats.rpc_retries,
        reconnects,
    }
}

// --------------------------------------------------------------------------
// cluster summary (`rads-node run`'s stdout contract)
// --------------------------------------------------------------------------

/// The aggregated outcome of one multi-process cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Query name.
    pub query: String,
    /// Dataset name.
    pub dataset: String,
    /// Transport name (`uds` / `tcp`).
    pub transport: String,
    /// Number of machine processes.
    pub machines: usize,
    /// Intra-machine worker threads per process.
    pub workers: usize,
    /// Embeddings over all machines.
    pub total_embeddings: u64,
    /// Real framed bytes over all processes.
    pub wire_bytes: u64,
    /// Remote requests over all processes.
    pub wire_messages: u64,
    /// Coordinator wall-clock (spawn to all-results) in milliseconds.
    pub elapsed_ms: f64,
    /// Cluster-wide scalar metrics, sorted by name: every worker's final
    /// registry snapshot (streamed over the wire as metrics frames) absorbed
    /// into the coordinator's own — counters summed, gauges maxed,
    /// histograms reduced to `<name>_sum` / `<name>_count`. Empty when
    /// metrics are disabled.
    pub metrics: Vec<(String, u64)>,
    /// The fault policy the coordinator ran under
    /// ([`FaultPolicy::name`]).
    pub fault_policy: String,
    /// RPCs transparently re-issued after transient transport failures,
    /// over all machines.
    pub rpc_retries: u64,
    /// Dead peer connections replaced with a fresh dial, over all machines.
    pub reconnects: u64,
    /// Heartbeat intervals in which a worker that had already been heard
    /// from went silent (no metrics/result frame for more than the
    /// staleness threshold), summed over workers. Advisory only — worker
    /// death is confirmed by process exit, never inferred from this.
    pub heartbeats_missed: u64,
    /// Machines whose results were recomputed in-process after their worker
    /// process died ([`FaultPolicy::Recover`]). Empty on a clean run.
    pub machines_recovered: Vec<usize>,
    /// Region groups belonging to the recovered machines that the
    /// deterministic rebuild recomputed. Zero on a clean run.
    pub groups_recovered: u64,
    /// Per-machine breakdown, indexed by machine id.
    pub per_machine: Vec<MachineSummary>,
}

/// Flattens a snapshot into sorted `(name, value)` scalar pairs: counters
/// and gauges verbatim, histograms as `<name>_sum` / `<name>_count`.
fn scalar_metrics(snapshot: &rads_obs::MetricsSnapshot) -> Vec<(String, u64)> {
    let mut pairs = Vec::with_capacity(snapshot.entries.len());
    for entry in &snapshot.entries {
        match &entry.value {
            rads_obs::MetricValue::Counter(value) | rads_obs::MetricValue::Gauge(value) => {
                pairs.push((entry.name.clone(), *value));
            }
            rads_obs::MetricValue::Histogram { count, sum, .. } => {
                pairs.push((format!("{}_count", entry.name), *count));
                pairs.push((format!("{}_sum", entry.name), *sum));
            }
        }
    }
    pairs.sort();
    pairs
}

impl ClusterSummary {
    /// The summary of one query on a clean cluster, from its per-machine
    /// reports (the totals are their sums) and its cluster-wide `metrics`.
    pub(crate) fn of_query(
        spec: &ClusterSpec,
        query: &str,
        kind: TransportKind,
        mut per_machine: Vec<MachineSummary>,
        metrics: &rads_obs::MetricsSnapshot,
        elapsed_ms: f64,
        heartbeats_missed: u64,
    ) -> ClusterSummary {
        per_machine.sort_by_key(|m| m.machine);
        let sum = |field: fn(&MachineSummary) -> u64| per_machine.iter().map(field).sum();
        ClusterSummary {
            query: query.to_string(),
            dataset: spec.dataset.name().to_string(),
            transport: kind.name().to_string(),
            machines: spec.machines,
            workers: spec.workers,
            total_embeddings: sum(|m| m.embeddings),
            wire_bytes: sum(|m| m.wire_bytes),
            wire_messages: sum(|m| m.wire_messages),
            elapsed_ms,
            metrics: if rads_obs::metrics_enabled() { scalar_metrics(metrics) } else { Vec::new() },
            fault_policy: spec.fault_policy.name().to_string(),
            rpc_retries: sum(|m| m.rpc_retries),
            reconnects: sum(|m| m.reconnects),
            heartbeats_missed,
            machines_recovered: Vec::new(),
            groups_recovered: 0,
            per_machine,
        }
    }

    /// Renders the summary as one line of JSON (the coordinator's stdout
    /// contract).
    pub fn to_json(&self) -> String {
        let per_machine: Vec<String> = self
            .per_machine
            .iter()
            .map(|m| {
                format!(
                    concat!(
                        "{{\"machine\":{},\"embeddings\":{},\"sme_embeddings\":{},",
                        "\"wire_bytes\":{},\"wire_messages\":{},",
                        "\"fetch_wait_demand_us\":{},",
                        "\"elapsed_ms\":{:.3},\"rpc_retries\":{},\"reconnects\":{}}}"
                    ),
                    m.machine,
                    m.embeddings,
                    m.sme_embeddings,
                    m.wire_bytes,
                    m.wire_messages,
                    m.fetch_wait_demand_us,
                    m.elapsed_ms,
                    m.rpc_retries,
                    m.reconnects,
                )
            })
            .collect();
        let metrics: Vec<String> =
            self.metrics.iter().map(|(name, value)| format!("\"{name}\":{value}")).collect();
        let machines_recovered: Vec<String> =
            self.machines_recovered.iter().map(|m| m.to_string()).collect();
        format!(
            concat!(
                "{{\"query\":\"{}\",\"dataset\":\"{}\",\"transport\":\"{}\",",
                "\"machines\":{},\"workers\":{},\"total_embeddings\":{},",
                "\"wire_bytes\":{},\"wire_messages\":{},\"elapsed_ms\":{:.3},",
                "\"fault_policy\":\"{}\",\"resilience\":{{",
                "\"rpc_retries\":{},\"reconnects\":{},\"heartbeats_missed\":{},",
                "\"machines_recovered\":[{}],\"groups_recovered\":{}}},",
                "\"metrics\":{{{}}},\"per_machine\":[{}]}}"
            ),
            self.query,
            self.dataset,
            self.transport,
            self.machines,
            self.workers,
            self.total_embeddings,
            self.wire_bytes,
            self.wire_messages,
            self.elapsed_ms,
            self.fault_policy,
            self.rpc_retries,
            self.reconnects,
            self.heartbeats_missed,
            machines_recovered.join(","),
            self.groups_recovered,
            metrics.join(","),
            per_machine.join(","),
        )
    }

    /// Parses a summary back from coordinator output: the last line that
    /// parses as a JSON object wins (diagnostics may precede it).
    pub fn parse_json(output: &str) -> Result<ClusterSummary, String> {
        let line = output
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with('{'))
            .ok_or("no JSON object line in coordinator output")?;
        let v = Json::parse(line.trim())?;
        let str_field = |k: &str| {
            v.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("missing {k}"))
        };
        let u64_field = |k: &str| v.get(k).and_then(Json::as_u64).ok_or(format!("missing {k}"));
        let mut per_machine = Vec::new();
        for row in v.get("per_machine").and_then(Json::as_array).ok_or("missing per_machine")? {
            let m = |k: &str| row.get(k).and_then(Json::as_u64).ok_or(format!("missing per_machine {k}"));
            per_machine.push(MachineSummary {
                machine: m("machine")? as usize,
                embeddings: m("embeddings")?,
                sme_embeddings: m("sme_embeddings")?,
                wire_bytes: m("wire_bytes")?,
                wire_messages: m("wire_messages")?,
                fetch_wait_demand_us: m("fetch_wait_demand_us")?,
                elapsed_ms: row
                    .get("elapsed_ms")
                    .and_then(Json::as_f64)
                    .ok_or("missing per_machine elapsed_ms")?,
                // absent in pre-resilience producers
                rpc_retries: m("rpc_retries").unwrap_or(0),
                reconnects: m("reconnects").unwrap_or(0),
            });
        }
        // tolerate a missing metrics object (older producers / disabled)
        let mut metrics = Vec::new();
        if let Some(members) = v.get("metrics").and_then(Json::as_object) {
            for (name, value) in members {
                let value =
                    value.as_u64().ok_or(format!("non-integer metrics value for {name}"))?;
                metrics.push((name.clone(), value));
            }
        }
        // tolerate a missing resilience object (pre-resilience producers)
        let resilience = v.get("resilience");
        let res_u64 = |k: &str| {
            resilience.and_then(|r| r.get(k)).and_then(Json::as_u64).unwrap_or(0)
        };
        let machines_recovered = resilience
            .and_then(|r| r.get("machines_recovered"))
            .and_then(Json::as_array)
            .map(|rows| rows.iter().filter_map(Json::as_u64).map(|m| m as usize).collect())
            .unwrap_or_default();
        Ok(ClusterSummary {
            query: str_field("query")?,
            dataset: str_field("dataset")?,
            transport: str_field("transport")?,
            machines: u64_field("machines")? as usize,
            workers: u64_field("workers")? as usize,
            total_embeddings: u64_field("total_embeddings")?,
            wire_bytes: u64_field("wire_bytes")?,
            wire_messages: u64_field("wire_messages")?,
            elapsed_ms: v.get("elapsed_ms").and_then(Json::as_f64).ok_or("missing elapsed_ms")?,
            metrics,
            fault_policy: v
                .get("fault_policy")
                .and_then(Json::as_str)
                .unwrap_or(FaultPolicy::FailFast.name())
                .to_string(),
            rpc_retries: res_u64("rpc_retries"),
            reconnects: res_u64("reconnects"),
            heartbeats_missed: res_u64("heartbeats_missed"),
            machines_recovered,
            groups_recovered: res_u64("groups_recovered"),
            per_machine,
        })
    }
}

/// Allocates one listen address per machine: fresh Unix socket paths, or
/// free loopback TCP ports (probed by binding port 0 and releasing — a
/// worker landing on a just-taken port fails its bind loudly rather than
/// hanging).
pub fn allocate_addrs(kind: TransportKind, machines: usize) -> Result<Vec<PeerAddr>, String> {
    match kind.effective() {
        TransportKind::Uds => {
            let dir = scratch_socket_dir();
            Ok((0..machines).map(|m| PeerAddr::Uds(dir.join(format!("m{m}.sock")))).collect())
        }
        TransportKind::Tcp => {
            let listeners: Vec<std::net::TcpListener> = (0..machines)
                .map(|_| {
                    std::net::TcpListener::bind("127.0.0.1:0")
                        .map_err(|e| format!("cannot probe a free port: {e}"))
                })
                .collect::<Result<_, _>>()?;
            listeners
                .iter()
                .map(|l| {
                    l.local_addr()
                        .map(|a| PeerAddr::Tcp(a.to_string()))
                        .map_err(|e| format!("cannot read probed port: {e}"))
                })
                .collect()
        }
        TransportKind::InProcess => {
            Err("a multi-process cluster needs a socket transport (uds or tcp)".to_string())
        }
    }
}

/// The `worker`-mode argument vector for machine `machine` of `spec` — the
/// single place the coordinator→worker CLI contract lives.
/// `max_concurrent` sizes the worker's executor pool.
pub fn worker_args(
    spec: &ClusterSpec,
    machine: usize,
    addrs: &[PeerAddr],
    max_concurrent: usize,
) -> Vec<String> {
    let addr_list =
        addrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
    let mut args = vec![
        "worker".to_string(),
        "--machine".to_string(),
        machine.to_string(),
        "--machines".to_string(),
        spec.machines.to_string(),
        "--addrs".to_string(),
        addr_list,
        "--dataset".to_string(),
        spec.dataset.name().to_string(),
        "--scale".to_string(),
        format!("{}", spec.scale),
        "--seed".to_string(),
        spec.seed.to_string(),
        "--workers".to_string(),
        spec.workers.to_string(),
        "--driver".to_string(),
        spec.driver.name().to_string(),
        "--max-concurrent-queries".to_string(),
        max_concurrent.max(1).to_string(),
    ];
    if let Some(budget) = spec.budget {
        args.push("--budget".to_string());
        args.push(budget.to_string());
    }
    if !spec.cache {
        args.push("--no-cache".to_string());
    }
    if let Some(base) = &spec.trace_out {
        args.push("--trace-out".to_string());
        args.push(machine_artifact(base, machine).display().to_string());
    }
    if let Some(base) = &spec.metrics_out {
        args.push("--metrics-out".to_string());
        args.push(machine_artifact(base, machine).display().to_string());
    }
    args
}

// --------------------------------------------------------------------------
// the worker processes: spawn, watch, reap
// --------------------------------------------------------------------------

/// Interval at which a worker streams its metrics snapshot to the
/// coordinator while it executes a query (a
/// [`rads_runtime::wire::FrameKind::Metrics`] frame; newer frames replace
/// older on the receiving side). The stream doubles as the heartbeat
/// carrier.
pub(crate) const METRICS_TICK: Duration = Duration::from_millis(250);

/// A busy worker counts missed heartbeats once it has been silent this
/// long. Advisory accounting only — never a death verdict.
const HEARTBEAT_STALE: Duration = Duration::from_millis(1000);

/// How long workers get to exit after the shutdown order before they are
/// killed.
const REAP_GRACE: Duration = Duration::from_secs(10);

/// Heartbeat intervals a machine last heard from at `last` has missed by
/// `now`, given that the cluster has had a query in flight since
/// `busy_since`. An idle resident worker streams nothing, so silence only
/// counts from the later of the two instants.
fn missed_ticks(last: Instant, busy_since: Instant, now: Instant) -> u64 {
    let silent = now.saturating_duration_since(last.max(busy_since));
    match silent.checked_sub(HEARTBEAT_STALE) {
        Some(over) if !over.is_zero() => {
            1 + (over.as_millis() / METRICS_TICK.as_millis()) as u64
        }
        _ => 0,
    }
}

/// Machine 0's handle on the worker processes of its cluster: spawns them,
/// confirms deaths via `try_wait` (authoritative — the OS reaped the
/// process), fires the chaos kill when due, keeps the advisory
/// missed-heartbeat account, reaps them after the shutdown order, and
/// removes the scratch socket directory. Dropping it kills whatever is
/// still running, so every error path of the cluster's owner cleans up.
pub(crate) struct ClusterWatch {
    children: Vec<(usize, Child)>,
    /// The per-cluster directory holding the Unix socket files.
    scratch: Option<PathBuf>,
    chaos_at: Option<Instant>,
    /// Queries in flight, and since when there has been at least one.
    inflight: usize,
    busy_since: Option<Instant>,
    /// Highest missed-heartbeat count observed per machine (staleness is
    /// measured against the machine's *latest* frame, so a recovered stream
    /// resets the instantaneous count; the max preserves the episode).
    missed: HashMap<usize, u64>,
    /// Workers confirmed dead with a non-success exit status, in discovery
    /// order: `(machine, status)`.
    dead: Vec<(usize, String)>,
}

impl ClusterWatch {
    /// Spawns `spec.machines - 1` workers (`node_binary` in `worker` mode)
    /// listening on `addrs[1..]`. A worker records metrics exactly when
    /// this process does: the toggle travels in its environment.
    pub(crate) fn spawn(
        spec: &ClusterSpec,
        addrs: &[PeerAddr],
        node_binary: &Path,
        max_concurrent: usize,
    ) -> Result<ClusterWatch, String> {
        let scratch = match addrs.first() {
            Some(PeerAddr::Uds(path)) => path.parent().map(Path::to_path_buf),
            _ => None,
        };
        let mut watch = ClusterWatch {
            children: Vec::new(),
            scratch,
            chaos_at: spec.chaos_kill_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            inflight: 0,
            busy_since: None,
            missed: HashMap::new(),
            dead: Vec::new(),
        };
        for machine in 1..spec.machines {
            let mut command = Command::new(node_binary);
            command.args(worker_args(spec, machine, addrs, max_concurrent)).stdin(Stdio::null());
            if rads_obs::metrics_enabled() {
                command.env(rads_obs::METRICS_ENV, "1");
            }
            let child = command.spawn().map_err(|e| {
                format!("cannot spawn worker {machine} ({}): {e}", node_binary.display())
            })?;
            watch.children.push((machine, child));
        }
        Ok(watch)
    }

    /// Brackets one query: heartbeat staleness is only accounted while at
    /// least one is in flight.
    pub(crate) fn begin_query(&mut self) {
        self.inflight += 1;
        self.busy_since.get_or_insert_with(Instant::now);
    }

    /// See [`begin_query`](ClusterWatch::begin_query).
    pub(crate) fn end_query(&mut self) {
        self.inflight = self.inflight.saturating_sub(1);
        if self.inflight == 0 {
            self.busy_since = None;
        }
    }

    /// One poll tick over machine 0's `heartbeats` map (when each machine
    /// was last heard from). Returns the dead workers if any is confirmed
    /// dead (the verdict is sticky).
    pub(crate) fn poll(
        &mut self,
        heartbeats: HashMap<usize, Instant>,
    ) -> Option<Vec<(usize, String)>> {
        if self.chaos_at.is_some_and(|at| Instant::now() >= at) {
            self.chaos_at = None;
            // SIGKILL the highest-id worker: a real, unannounced process
            // loss in the middle of the run
            if let Some((_, child)) = self.children.last_mut() {
                let _ = child.kill();
            }
        }
        if let (true, Some(busy_since)) = (rads_obs::metrics_enabled(), self.busy_since) {
            let now = Instant::now();
            for (machine, last) in heartbeats {
                let missed = missed_ticks(last, busy_since, now);
                let seen = self.missed.entry(machine).or_insert(0);
                if missed > *seen {
                    rads_obs::Registry::global()
                        .counter("rads_heartbeats_missed_total")
                        .add(missed - *seen);
                    *seen = missed;
                }
            }
        }
        for (machine, child) in self.children.iter_mut() {
            if self.dead.iter().any(|(m, _)| m == machine) {
                continue;
            }
            if let Ok(Some(status)) = child.try_wait() {
                if !status.success() {
                    self.dead.push((*machine, status.to_string()));
                }
            }
        }
        (!self.dead.is_empty()).then(|| self.dead.clone())
    }

    /// Missed heartbeat intervals summed over workers (see
    /// [`ClusterSummary::heartbeats_missed`]).
    pub(crate) fn heartbeats_missed(&self) -> u64 {
        self.missed.values().sum()
    }

    /// Waits for every worker to exit cleanly after the shutdown order.
    /// A straggler is left to [`teardown`](ClusterWatch::teardown).
    pub(crate) fn reap(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + REAP_GRACE;
        for (machine, child) in self.children.iter_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => {
                        return Err(format!("worker machine {machine} exited with {status}"))
                    }
                    Ok(None) if Instant::now() >= deadline => {
                        return Err(format!("worker machine {machine} ignored shutdown"))
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                    Err(e) => return Err(format!("waiting for worker {machine}: {e}")),
                }
            }
        }
        Ok(())
    }

    /// Kills every worker still running and removes the scratch socket
    /// directory. Idempotent.
    pub(crate) fn teardown(&mut self) {
        for (_, child) in self.children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(dir) = self.scratch.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for ClusterWatch {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// One-line JSON report of a worker-loss event: which policy was in force
/// and which machines died with what status. This is the "structured
/// per-machine error report" of the fail-fast policy — embedded in the
/// `Err` string so callers (and the chaos suite) can parse it.
pub(crate) fn fault_report(spec: &ClusterSpec, dead: &[(usize, String)]) -> String {
    let dead_json: Vec<String> = dead
        .iter()
        .map(|(machine, status)| format!("{{\"machine\":{machine},\"status\":\"{status}\"}}"))
        .collect();
    format!(
        "{{\"fault\":\"worker-loss\",\"policy\":\"{}\",\"machines\":{},\"dead\":[{}]}}",
        spec.fault_policy.name(),
        spec.machines,
        dead_json.join(","),
    )
}

/// The `rads-node` binary next to another binary of the same build (the
/// `experiments` CLI and the integration tests use this to find it).
pub fn sibling_node_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("current_exe has no parent dir")?;
    // integration-test binaries live one level deeper (target/debug/deps)
    for candidate_dir in [dir, dir.parent().unwrap_or(dir)] {
        let candidate = candidate_dir.join(format!("rads-node{}", std::env::consts::EXE_SUFFIX));
        if candidate.exists() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "rads-node binary not found next to {} — build it first (cargo build --bin rads-node)",
        exe.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_payload_round_trips() {
        let summary = MachineSummary {
            machine: 3,
            embeddings: 12345,
            sme_embeddings: 77,
            wire_bytes: 987654321,
            wire_messages: 4321,
            fetch_wait_demand_us: 640,
            elapsed_ms: 15.625,
            rpc_retries: 7,
            reconnects: 2,
        };
        let encoded = encode_result(&summary);
        assert_eq!(encoded.len(), RESULT_PAYLOAD_BYTES);
        assert_eq!(decode_result(&encoded), Ok(summary));
        assert!(decode_result(&[1, 2, 3]).is_err());
    }

    #[test]
    fn cluster_summary_json_round_trips() {
        let summary = ClusterSummary {
            query: "q5".into(),
            dataset: "LiveJournal".into(),
            transport: "uds".into(),
            machines: 4,
            workers: 2,
            total_embeddings: 99,
            wire_bytes: 1234,
            wire_messages: 56,
            elapsed_ms: 78.5,
            metrics: vec![
                ("rads_net_bytes_total".to_string(), 1234),
                ("rads_net_frame_bytes_count".to_string(), 56),
                ("rads_net_frame_bytes_sum".to_string(), 1100),
            ],
            fault_policy: "recover".to_string(),
            rpc_retries: 9,
            reconnects: 3,
            heartbeats_missed: 4,
            machines_recovered: vec![3],
            groups_recovered: 17,
            per_machine: vec![
                MachineSummary {
                    machine: 0,
                    embeddings: 40,
                    sme_embeddings: 11,
                    wire_bytes: 600,
                    wire_messages: 30,
                    fetch_wait_demand_us: 523,
                    elapsed_ms: 70.125,
                    rpc_retries: 6,
                    reconnects: 1,
                },
                MachineSummary {
                    machine: 1,
                    embeddings: 59,
                    sme_embeddings: 0,
                    wire_bytes: 634,
                    wire_messages: 26,
                    fetch_wait_demand_us: 77,
                    elapsed_ms: 69.0,
                    rpc_retries: 3,
                    reconnects: 2,
                },
            ],
        };
        let rendered = format!("spawned 3 workers\n{}\n", summary.to_json());
        assert_eq!(ClusterSummary::parse_json(&rendered), Ok(summary));
    }

    /// `rads-node run --machines 2 --dataset DBLP --scale 0.02 --query q1
    /// --json`, captured at the commit before one-shot runs became "launch
    /// resident, one query, shut down", less one per-machine column that has
    /// since been removed.
    #[test]
    fn cluster_summary_parses_a_line_from_the_one_shot_coordinator() {
        let line = concat!(
            r#"{"query":"q1","dataset":"DBLP","transport":"uds","machines":2,"workers":1,"#,
            r#""total_embeddings":2055,"wire_bytes":2136,"wire_messages":6,"elapsed_ms":101.112,"#,
            r#""fault_policy":"fail-fast","resilience":{"rpc_retries":0,"reconnects":0,"#,
            r#""heartbeats_missed":0,"machines_recovered":[],"groups_recovered":0},"metrics":{},"#,
            r#""per_machine":[{"machine":0,"embeddings":886,"sme_embeddings":58,"wire_bytes":1697,"#,
            r#""wire_messages":3,"fetch_wait_demand_us":1338,"#,
            r#""elapsed_ms":6.165,"rpc_retries":0,"reconnects":0},{"machine":1,"embeddings":1169,"#,
            r#""sme_embeddings":116,"wire_bytes":439,"wire_messages":3,"fetch_wait_demand_us":27,"#,
            r#""elapsed_ms":3.633,"rpc_retries":0,"reconnects":0}]}"#,
        );
        let summary = ClusterSummary::parse_json(line).expect("parent-commit line parses");
        assert_eq!(summary.total_embeddings, 2055);
        assert_eq!(summary.per_machine.len(), 2);
        assert_eq!(summary.per_machine[1].embeddings, 1169);
        assert_eq!(summary.fault_policy, "fail-fast");
    }

    #[test]
    fn fault_policy_env_values_parse_or_error() {
        assert_eq!(FaultPolicy::from_env_value(None), Ok(FaultPolicy::FailFast));
        assert_eq!(FaultPolicy::from_env_value(Some("fail-fast")), Ok(FaultPolicy::FailFast));
        assert_eq!(FaultPolicy::from_env_value(Some("Recover")), Ok(FaultPolicy::Recover));
        let err = FaultPolicy::from_env_value(Some("retry-forever")).expect_err("typed error");
        assert_eq!(err.var, FAULT_POLICY_ENV);
        assert!(err.to_string().contains("retry-forever"), "{err}");
    }

    #[test]
    fn a_bad_worker_count_is_a_typed_config_error() {
        assert_eq!(workers_env_value(None), Ok(()));
        assert_eq!(workers_env_value(Some(" 4 ")), Ok(()));
        for bad in ["abc", "0", "-2", ""] {
            let err = workers_env_value(Some(bad)).expect_err("typed error");
            assert_eq!(err.var, "RADS_WORKERS");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn an_idle_resident_worker_misses_no_heartbeats() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // last heard long ago, but the cluster only just became busy
        assert_eq!(missed_ticks(at(0), at(60_000), at(60_900)), 0);
        // busy throughout: silence counts from the machine's last frame
        assert_eq!(missed_ticks(at(0), at(0), at(1_000)), 0);
        assert_eq!(missed_ticks(at(0), at(0), at(1_001)), 1);
        assert_eq!(missed_ticks(at(0), at(0), at(1_600)), 3);
        // a frame newer than the busy period's start wins
        assert_eq!(missed_ticks(at(5_000), at(100), at(5_500)), 0);
    }

    #[test]
    fn fault_report_names_every_dead_machine() {
        let spec = ClusterSpec {
            machines: 4,
            dataset: DatasetKind::Dblp,
            scale: 0.05,
            seed: 9,
            workers: 1,
            budget: None,
            driver: RoundDriver::Async,
            cache: true,
            trace_out: None,
            metrics_out: None,
            fault_policy: FaultPolicy::FailFast,
            chaos_kill_ms: None,
        };
        let report =
            fault_report(&spec, &[(2, "signal: 9".to_string()), (3, "exit status: 1".to_string())]);
        assert!(report.contains("\"policy\":\"fail-fast\""), "{report}");
        assert!(report.contains("{\"machine\":2,\"status\":\"signal: 9\"}"), "{report}");
        assert!(report.contains("{\"machine\":3,\"status\":\"exit status: 1\"}"), "{report}");
        // the report is itself parseable JSON
        let parsed = Json::parse(&report).expect("report parses");
        assert_eq!(parsed.get("fault").and_then(Json::as_str), Some("worker-loss"));
    }

    #[test]
    fn dataset_names_resolve_case_insensitively() {
        assert_eq!(dataset_by_name("livejournal"), Some(DatasetKind::LiveJournal));
        assert_eq!(dataset_by_name("DBLP"), Some(DatasetKind::Dblp));
        assert_eq!(dataset_by_name("RoadNet"), Some(DatasetKind::RoadNet));
        assert_eq!(dataset_by_name("uk2002"), Some(DatasetKind::Uk2002));
        assert_eq!(dataset_by_name("atlantis"), None);
    }

    #[test]
    fn worker_args_carry_the_whole_spec() {
        let spec = ClusterSpec {
            machines: 3,
            dataset: DatasetKind::Dblp,
            scale: 0.05,
            seed: 9,
            workers: 2,
            budget: Some(65536),
            driver: RoundDriver::Async,
            cache: false,
            trace_out: Some(PathBuf::from("/tmp/a/trace.json")),
            metrics_out: Some(PathBuf::from("/tmp/a/metrics.json")),
            fault_policy: FaultPolicy::default(),
            chaos_kill_ms: None,
        };
        let addrs = vec![
            PeerAddr::Uds("/tmp/a/m0.sock".into()),
            PeerAddr::Uds("/tmp/a/m1.sock".into()),
            PeerAddr::Uds("/tmp/a/m2.sock".into()),
        ];
        let args = worker_args(&spec, 2, &addrs, 2);
        let joined = args.join(" ");
        assert!(joined.starts_with("worker --machine 2 --machines 3"));
        assert!(joined.contains("--addrs uds:/tmp/a/m0.sock,uds:/tmp/a/m1.sock,uds:/tmp/a/m2.sock"));
        assert!(joined.contains("--dataset DBLP"));
        assert!(joined.contains("--scale 0.05"));
        assert!(joined.contains("--workers 2"));
        assert!(joined.contains("--driver async"));
        assert!(joined.contains("--budget 65536"));
        assert!(joined.contains("--no-cache"));
        assert!(joined.contains("--max-concurrent-queries 2"));
        assert!(joined.contains("--trace-out /tmp/a/trace.json.m2"));
        assert!(joined.contains("--metrics-out /tmp/a/metrics.json.m2"));
    }

    #[test]
    fn artifact_paths_derive_per_machine() {
        let base = Path::new("/tmp/run/trace.json");
        assert_eq!(machine_artifact(base, 0), base);
        assert_eq!(machine_artifact(base, 3), PathBuf::from("/tmp/run/trace.json.m3"));
        assert_eq!(
            prometheus_sibling(Path::new("/tmp/run/metrics.json")),
            PathBuf::from("/tmp/run/metrics.json.prom")
        );
    }

    #[test]
    fn address_allocation_matches_the_transport() {
        let uds = allocate_addrs(TransportKind::Uds, 3).unwrap();
        assert_eq!(uds.len(), 3);
        if cfg!(unix) {
            assert!(matches!(&uds[0], PeerAddr::Uds(_)));
            // all three live in the same scratch dir
            let dirs: std::collections::HashSet<_> = uds
                .iter()
                .map(|a| match a {
                    PeerAddr::Uds(p) => p.parent().unwrap().to_path_buf(),
                    PeerAddr::Tcp(_) => unreachable!(),
                })
                .collect();
            assert_eq!(dirs.len(), 1);
            let _ = std::fs::remove_dir_all(dirs.into_iter().next().unwrap());
        }
        let tcp = allocate_addrs(TransportKind::Tcp, 2).unwrap();
        assert!(matches!(&tcp[0], PeerAddr::Tcp(_)));
        assert_ne!(tcp[0], tcp[1]);
        assert!(allocate_addrs(TransportKind::InProcess, 2).is_err());
    }
}

