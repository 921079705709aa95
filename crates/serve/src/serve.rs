//! The resident cluster: one lifecycle, one per-query execution path.
//!
//! Every machine of a cluster is a resident process: it generates and
//! partitions the dataset once, starts its [`SocketNode`] and then answers
//! a stream of pattern queries over the same socket fabric. Machine 0 holds
//! the [`ResidentCluster`] handle: `launch` allocates the addresses, spawns
//! the workers ([`run_worker`] in the same binary) and loads machine 0;
//! `query` admits a pattern, dispatches it to every worker as a
//! [`Request::Query`] RPC (acknowledged immediately, executed from a
//! queue), runs machine 0's share with the same `Machine::execute` the
//! workers run, and collects their reports; `shutdown` orders the workers
//! down, reaps them and removes the scratch sockets.
//!
//! `rads-node serve` ([`serve`]) wraps it in a TCP **client front door**
//! speaking [`FrameKind::Query`] / [`FrameKind::QueryResult`] frames
//! (payloads defined here, see [`ClientOp`] / [`QueryReply`]) and a
//! Prometheus text page ([`MetricsHttpServer`]); `rads-node run`
//! ([`run_once`]) is launch → one query → shutdown.
//!
//! # Concurrent execution
//!
//! Independent queries run side by side, up to `--max-concurrent-queries`
//! at a time. Every engine-facing RPC travels in a query-scoped
//! [`Envelope`], so the fabric keeps the streams apart end to end —
//! [`ServeDaemon`] routes `checkR` / `shareR` to the requesting query's own
//! [`RadsDaemon`] via a per-query **routing table**, result frames and
//! retry/backoff are correlated per query, and one query's stalled worker
//! cannot swallow another query's responses.
//!
//! # Admission control
//!
//! Before dispatching, the coordinator estimates the query's memory
//! footprint ([`rads_core::estimate_query_footprint`] — deliberately
//! conservative) and rejects it with a structured [`QueryReply::Rejected`]
//! when the estimate alone exceeds the configured admission limit.
//! Admitted queries then pass the **joint** gate: the sum of the in-flight
//! queries' estimates must stay within `--admission-bytes`, and at most
//! `--max-concurrent-queries` may execute at once — a query that does not
//! fit *waits* (FIFO-ish on the scheduler's condvar) rather than being
//! rejected. An admitted query is still governed at runtime by the
//! per-machine memory governor (budget Φ applies per query, so the
//! worst-case footprint of intermediate results is `max_concurrent · Φ`,
//! beside the resident foreign-vertex caches bounded below); admission is a
//! cheap front gate, not the enforcement mechanism.
//!
//! # Worker loss
//!
//! A query's caller waits on whichever comes first: its outcome, its hard
//! deadline, or the `ClusterWatch`'s verdict that a worker process died
//! ([`QueryError::WorkerLoss`], naming machines and exit statuses). `run`
//! maps that through the [`FaultPolicy`]; `serve` is fail-fast.
//!
//! # State the queries share — and the reuse contract
//!
//! A resident cluster must not bleed *results* between queries — including
//! between *concurrent* queries. Per query, every machine constructs a
//! fresh region-group queue and [`RadsDaemon`] (installed into its
//! [`ServeDaemon`] routing table under the query's id for the duration of
//! the run); engine stats and the embedding trie live inside `run_machine`
//! and die with it. What intentionally persists:
//!
//! * the partitioned graph, with each machine's owned induced subgraph
//!   (built by its first query: SM-E and the descent-order sampler run on
//!   it);
//! * the plan cache ([`PlanCache`] — keyed by canonical pattern signature,
//!   hits observable as `rads_plan_cache_hits_total`);
//! * the process-global metrics registry, which stays *cumulative* (that is
//!   what the Prometheus page serves);
//! * **the foreign adjacency the queries fetched** — each machine's
//!   [`ForeignStore`]. `run_machine` checks its foreign-vertex caches out of
//!   the store and back in, so a query starts with every adjacency list
//!   earlier queries paid a `fetchV` for, and decides the undetermined edges
//!   touching them locally instead of by `verifyE`. Sound because the
//!   resident graph is immutable and an entry is a whole adjacency list as
//!   its owner served it: nothing can go stale, nothing needs invalidating,
//!   and counts equal a cold run's. The first query after launch is the
//!   cold one (`rads-node run` is exactly that query). The store holds at
//!   most `--max-concurrent-queries × --workers` caches — one per drain loop
//!   that ever ran at once — each an LRU held to the **startup** budget's
//!   cache allowance: the bound the per-query caches had, resident instead
//!   of transient. `--no-cache` bypasses the store's caches.
//! * **the descent order of each pattern** — measured by a machine on its
//!   own partition the first time it runs the pattern, and kept in the same
//!   store ([`ForeignStore::descent_order`]): it is derived from data that
//!   cannot change while the cluster is up.
//!
//! Per-query metrics are computed via a per-query epoch ledger
//! ([`rads_obs::EpochLedger`]): each query diffs the cluster-wide registry
//! against the baseline captured at **its own** admission, so overlapping
//! queries never steal each other's baseline. Under overlap a query's
//! delta is a conservative superset (it includes work a concurrently
//! running query did inside its window); for serialized queries it is
//! exact. The cache counters feeding it are per query too (deltas between
//! check-out and check-in, not a resident cache's lifetime totals).
//!
//! The engine's memory budget is resolved **once at startup** (explicit
//! `--budget` flag or one read of `RADS_MEMORY_BUDGET`); a per-query
//! client override bounds `Φ` for that query only — it neither resizes nor
//! empties the resident caches. The environment is never re-read while
//! serving.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::{Duration, Instant};

use rads_core::daemon::{new_group_queue, RadsDaemon};
use rads_core::engine::{run_machine, EngineConfig};
use rads_core::memory::MemoryBudget;
use rads_core::{estimate_query_footprint, ForeignStore, PlanCache};
use rads_graph::queries;
use rads_obs::{EpochLedger, MetricsHttpServer, MetricsSnapshot, Registry};
use rads_partition::{MachineId, PartitionedGraph};
use rads_runtime::wire::{read_message, write_message, FrameKind};
use rads_runtime::{
    Daemon, Envelope, MachineContext, NetworkStats, PartitionDaemon, PeerAddr, QueryId, Request,
    Response, SocketListener, SocketNode, TrafficSnapshot, TransportKind,
};

use crate::procs::{
    allocate_addrs, build_partitioned, decode_result, encode_result, fault_report,
    machine_summary, startup_budget, write_observability_artifacts,
    ClusterSpec, ClusterSummary, ClusterWatch, FaultPolicy, MachineSummary, METRICS_TICK,
    RESULT_PAYLOAD_BYTES,
};

/// The planner exponent every machine pins: equal inputs are what keep the
/// per-machine plan caches agreeing without coordination.
const SERVE_RHO: f64 = 1.0;

/// How long a worker's executor threads wait on each of their wake-up
/// sources (the stop flag and the job channel) before checking the other.
const JOB_POLL: Duration = Duration::from_millis(50);

/// How often a waiting query caller (and the idle serve loop) asks the
/// [`ClusterWatch`] whether a worker process died.
const WATCH_POLL: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------------------
// client protocol (payloads of FrameKind::Query / FrameKind::QueryResult)
// ---------------------------------------------------------------------------

const OP_QUERY: u8 = 0;
const OP_SHUTDOWN: u8 = 1;

const REPLY_OK: u8 = 0;
const REPLY_REJECTED: u8 = 1;
const REPLY_ERROR: u8 = 2;
const REPLY_SHUTDOWN_ACK: u8 = 3;

/// What a client asks the serve coordinator to do (the payload of a
/// [`FrameKind::Query`] frame; the frame's correlation id is echoed in the
/// reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Run `pattern` (a [`rads_graph::queries::query_by_name`] name) on
    /// the resident cluster, optionally overriding the per-group memory
    /// budget (bytes) for this query only.
    Query {
        /// Pattern name.
        pattern: String,
        /// Per-query budget override in bytes.
        budget: Option<u64>,
    },
    /// Shut the whole serve cluster down after replying.
    Shutdown,
}

/// Encodes a [`ClientOp`] as a `Query` frame payload.
pub fn encode_client_op(op: &ClientOp) -> Vec<u8> {
    let mut buf = Vec::new();
    match op {
        ClientOp::Query { pattern, budget } => {
            buf.push(OP_QUERY);
            buf.extend_from_slice(&(pattern.len() as u16).to_le_bytes());
            buf.extend_from_slice(pattern.as_bytes());
            match budget {
                Some(bytes) => {
                    buf.push(1);
                    buf.extend_from_slice(&bytes.to_le_bytes());
                }
                None => buf.push(0),
            }
        }
        ClientOp::Shutdown => buf.push(OP_SHUTDOWN),
    }
    buf
}

/// Decodes a `Query` frame payload.
pub fn decode_client_op(buf: &[u8]) -> Result<ClientOp, String> {
    let op = *buf.first().ok_or("empty client frame")?;
    match op {
        OP_SHUTDOWN => Ok(ClientOp::Shutdown),
        OP_QUERY => {
            let len = u16::from_le_bytes(
                buf.get(1..3).ok_or("truncated pattern length")?.try_into().expect("2 bytes"),
            ) as usize;
            let pattern = std::str::from_utf8(
                buf.get(3..3 + len).ok_or("truncated pattern name")?,
            )
            .map_err(|_| "pattern name is not UTF-8".to_string())?
            .to_string();
            let mut at = 3 + len;
            let flag = *buf.get(at).ok_or("truncated budget flag")?;
            at += 1;
            let budget = match flag {
                0 => None,
                1 => Some(u64::from_le_bytes(
                    buf.get(at..at + 8).ok_or("truncated budget")?.try_into().expect("8 bytes"),
                )),
                other => return Err(format!("bad budget flag {other}")),
            };
            Ok(ClientOp::Query { pattern, budget })
        }
        other => Err(format!("unknown client op {other}")),
    }
}

/// The serve coordinator's answer to one [`ClientOp`] (the payload of the
/// [`FrameKind::QueryResult`] frame echoing the request's correlation id).
///
/// Every per-query variant carries the coordinator-assigned `query_id` —
/// the same id that scopes the query's fabric envelopes, routing-table
/// entry and metric epoch — so clients running several queries at once can
/// attribute replies and server-side observability to each other.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// The query ran to completion on every machine.
    Ok {
        /// The coordinator-assigned query id (unique per serve lifetime).
        query_id: u64,
        /// Embeddings over all machines — bit-identical to a one-shot run
        /// of the same query on the same spec.
        count: u64,
        /// Coordinator-measured wall clock, dispatch to all-reports, µs.
        elapsed_us: u64,
        /// Whether the coordinator served the plan from its cache.
        plan_cache_hit: bool,
        /// Per-machine embedding counts, machine 0 first.
        per_machine: Vec<(u32, u64)>,
        /// This query's *delta* of the cluster-wide metrics registry
        /// (JSON, [`MetricsSnapshot::to_json`] shape) — epoch-scoped to
        /// this query, free of cross-query baseline races by construction.
        metrics_json: String,
    },
    /// Admission control refused the query: its estimated footprint alone
    /// exceeds the admission limit. Nothing was dispatched.
    Rejected {
        /// The coordinator-assigned query id.
        query_id: u64,
        /// Estimated bytes ([`estimate_query_footprint`]).
        estimate: u64,
        /// The configured admission limit in bytes.
        limit: u64,
    },
    /// The query failed (unknown pattern, lost worker, timeout).
    Error {
        /// The coordinator-assigned query id (0 when the failure precedes
        /// id assignment, e.g. a malformed request).
        query_id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Acknowledges [`ClientOp::Shutdown`]; the cluster exits after this.
    ShutdownAck,
}

/// Encodes a [`QueryReply`] as a `QueryResult` frame payload.
pub fn encode_query_reply(reply: &QueryReply) -> Vec<u8> {
    let mut buf = Vec::new();
    match reply {
        QueryReply::Ok {
            query_id,
            count,
            elapsed_us,
            plan_cache_hit,
            per_machine,
            metrics_json,
        } => {
            buf.push(REPLY_OK);
            buf.extend_from_slice(&query_id.to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
            buf.extend_from_slice(&elapsed_us.to_le_bytes());
            buf.push(u8::from(*plan_cache_hit));
            buf.extend_from_slice(&(per_machine.len() as u32).to_le_bytes());
            for (machine, embeddings) in per_machine {
                buf.extend_from_slice(&machine.to_le_bytes());
                buf.extend_from_slice(&embeddings.to_le_bytes());
            }
            buf.extend_from_slice(&(metrics_json.len() as u32).to_le_bytes());
            buf.extend_from_slice(metrics_json.as_bytes());
        }
        QueryReply::Rejected { query_id, estimate, limit } => {
            buf.push(REPLY_REJECTED);
            buf.extend_from_slice(&query_id.to_le_bytes());
            buf.extend_from_slice(&estimate.to_le_bytes());
            buf.extend_from_slice(&limit.to_le_bytes());
        }
        QueryReply::Error { query_id, message } => {
            buf.push(REPLY_ERROR);
            buf.extend_from_slice(&query_id.to_le_bytes());
            buf.extend_from_slice(&(message.len() as u32).to_le_bytes());
            buf.extend_from_slice(message.as_bytes());
        }
        QueryReply::ShutdownAck => buf.push(REPLY_SHUTDOWN_ACK),
    }
    buf
}

/// Decodes a `QueryResult` frame payload.
pub fn decode_query_reply(buf: &[u8]) -> Result<QueryReply, String> {
    let status = *buf.first().ok_or("empty reply frame")?;
    let u64_at = |at: usize| -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            buf.get(at..at + 8).ok_or("truncated u64")?.try_into().expect("8 bytes"),
        ))
    };
    match status {
        REPLY_SHUTDOWN_ACK => Ok(QueryReply::ShutdownAck),
        REPLY_REJECTED => Ok(QueryReply::Rejected {
            query_id: u64_at(1)?,
            estimate: u64_at(9)?,
            limit: u64_at(17)?,
        }),
        REPLY_ERROR => {
            let query_id = u64_at(1)?;
            let len = u32::from_le_bytes(
                buf.get(9..13).ok_or("truncated message length")?.try_into().expect("4 bytes"),
            ) as usize;
            let message = std::str::from_utf8(buf.get(13..13 + len).ok_or("truncated message")?)
                .map_err(|_| "error message is not UTF-8".to_string())?
                .to_string();
            Ok(QueryReply::Error { query_id, message })
        }
        REPLY_OK => {
            let query_id = u64_at(1)?;
            let count = u64_at(9)?;
            let elapsed_us = u64_at(17)?;
            let plan_cache_hit = match buf.get(25) {
                Some(0) => false,
                Some(1) => true,
                _ => return Err("bad plan-cache flag".to_string()),
            };
            let machines = u32::from_le_bytes(
                buf.get(26..30).ok_or("truncated machine count")?.try_into().expect("4 bytes"),
            ) as usize;
            let mut at = 30;
            let mut per_machine = Vec::with_capacity(machines);
            for _ in 0..machines {
                let machine = u32::from_le_bytes(
                    buf.get(at..at + 4).ok_or("truncated machine id")?.try_into().expect("4 bytes"),
                );
                per_machine.push((machine, u64_at(at + 4)?));
                at += 12;
            }
            let len = u32::from_le_bytes(
                buf.get(at..at + 4).ok_or("truncated metrics length")?.try_into().expect("4 bytes"),
            ) as usize;
            at += 4;
            let metrics_json =
                std::str::from_utf8(buf.get(at..at + len).ok_or("truncated metrics json")?)
                    .map_err(|_| "metrics json is not UTF-8".to_string())?
                    .to_string();
            Ok(QueryReply::Ok {
                query_id,
                count,
                elapsed_us,
                plan_cache_hit,
                per_machine,
                metrics_json,
            })
        }
        other => Err(format!("unknown reply status {other}")),
    }
}

// ---------------------------------------------------------------------------
// per-query worker report (worker → coordinator result frame)
// ---------------------------------------------------------------------------

/// `[query id u64][plan-cache hit u8][the one-shot 76-byte MachineSummary]`.
const QUERY_REPORT_BYTES: usize = 8 + 1 + RESULT_PAYLOAD_BYTES;

fn encode_query_report(id: u64, summary: &MachineSummary, hit: bool) -> Vec<u8> {
    let mut buf = Vec::with_capacity(QUERY_REPORT_BYTES);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.push(u8::from(hit));
    buf.extend_from_slice(&encode_result(summary));
    buf
}

fn decode_query_report(buf: &[u8]) -> Result<(u64, MachineSummary, bool), String> {
    if buf.len() != QUERY_REPORT_BYTES {
        return Err(format!("query report of {} bytes, expected {QUERY_REPORT_BYTES}", buf.len()));
    }
    let id = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    let hit = buf[8] != 0;
    Ok((id, decode_result(&buf[9..])?, hit))
}

// ---------------------------------------------------------------------------
// the serve daemon
// ---------------------------------------------------------------------------

/// One queued query on a serve machine.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueryJob {
    id: u64,
    pattern: String,
    budget: Option<u64>,
}

/// The daemon of a resident serve machine.
///
/// `verifyE` / `fetchV` are answered from the partition at all times (a
/// peer may fetch while this machine is between queries). `checkR` /
/// `shareR` route **by the envelope's query id** through a per-query
/// routing table of [`RadsDaemon`] instances — each installed just before
/// its query's `run_machine` and cleared right after — so concurrent
/// queries' region-group queues never mix. A query id with no installed
/// route reports an empty queue, which a stealing peer treats as "nothing
/// to take": that is both the between-queries answer and the benign race
/// where a peer's steal probe beats this machine's job hand-off.
/// [`Request::Query`] is acknowledged immediately and enqueued for the
/// machine's executor pool (workers only; on the coordinator, queries
/// arrive through the client front door, never as fabric RPCs).
pub struct ServeDaemon {
    base: PartitionDaemon,
    routes: StdMutex<HashMap<u64, Arc<RadsDaemon>>>,
    jobs: Option<StdMutex<mpsc::Sender<QueryJob>>>,
}

impl ServeDaemon {
    /// The daemon of machine `machine`. Dispatched queries are queued on
    /// `jobs` (workers); without one (the coordinator) a `Query` RPC is
    /// unsupported.
    fn new(
        partitioned: Arc<PartitionedGraph>,
        machine: MachineId,
        jobs: Option<mpsc::Sender<QueryJob>>,
    ) -> ServeDaemon {
        ServeDaemon {
            base: PartitionDaemon::new(partitioned, machine),
            routes: StdMutex::new(HashMap::new()),
            jobs: jobs.map(StdMutex::new),
        }
    }

    /// Installs `query`'s daemon (fresh group queue and all) into the
    /// routing table.
    pub fn install(&self, query: QueryId, daemon: Arc<RadsDaemon>) {
        self.routes.lock().unwrap_or_else(|p| p.into_inner()).insert(query.0, daemon);
    }

    /// Removes `query`'s route once its engine run finished.
    pub fn clear(&self, query: QueryId) {
        self.routes.lock().unwrap_or_else(|p| p.into_inner()).remove(&query.0);
    }

    /// Number of queries currently routed (i.e. executing on this machine).
    pub fn active_queries(&self) -> usize {
        self.routes.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

impl Daemon for ServeDaemon {
    fn handle(&self, from: MachineId, envelope: Envelope) -> Response {
        match envelope.body {
            Request::Query { id, pattern, budget } => match &self.jobs {
                Some(tx) => {
                    let sent = tx
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .send(QueryJob { id, pattern, budget })
                        .is_ok();
                    if sent {
                        Response::Ack
                    } else {
                        Response::Unsupported
                    }
                }
                None => Response::Unsupported,
            },
            Request::CheckRegionGroups | Request::ShareRegionGroup => {
                let route = self
                    .routes
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .get(&envelope.query.0)
                    .cloned();
                match route {
                    Some(daemon) if daemon.queue().is_published() => daemon.handle(from, envelope),
                    // no route for this query id, or one still building its
                    // groups: an empty queue, not an error — a stealing peer
                    // that races the job hand-off (or probes a finished
                    // query) simply finds nothing. Waiting for publication
                    // here would block this connection's handler, and with
                    // it every other query's requests from that peer.
                    _ => match envelope.body {
                        Request::CheckRegionGroups => Response::RegionGroupCount(0),
                        _ => Response::RegionGroups(Vec::new()),
                    },
                }
            }
            _ => self.base.handle(from, envelope),
        }
    }
}

// ---------------------------------------------------------------------------
// the query scheduler (coordinator-side joint admission)
// ---------------------------------------------------------------------------

struct SchedulerState {
    inflight: usize,
    inflight_bytes: u64,
}

/// Admission gate for concurrent queries: at most `max_concurrent` in
/// flight, and the in-flight footprint estimates must **jointly** stay
/// within the admission byte limit.
///
/// `admit` distinguishes two outcomes: a query whose estimate alone
/// exceeds the limit is *rejected* (it could never run), while a query
/// that merely does not fit **right now** *waits* on the condvar until
/// enough in-flight queries release their slots.
struct QueryScheduler {
    max_concurrent: usize,
    admission_bytes: Option<u64>,
    state: StdMutex<SchedulerState>,
    readmit: Condvar,
}

impl QueryScheduler {
    fn new(max_concurrent: usize, admission_bytes: Option<u64>) -> QueryScheduler {
        QueryScheduler {
            max_concurrent: max_concurrent.max(1),
            admission_bytes,
            state: StdMutex::new(SchedulerState { inflight: 0, inflight_bytes: 0 }),
            readmit: Condvar::new(),
        }
    }

    /// Blocks until `estimate` bytes fit jointly, then takes a slot.
    /// `Err((estimate, limit))` means the query can never be admitted.
    fn admit(&self, estimate: u64) -> Result<(), (u64, u64)> {
        if let Some(limit) = self.admission_bytes {
            if estimate > limit {
                return Err((estimate, limit));
            }
        }
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let fits_slots = state.inflight < self.max_concurrent;
            let fits_bytes = self
                .admission_bytes
                .is_none_or(|limit| state.inflight_bytes.saturating_add(estimate) <= limit);
            if fits_slots && fits_bytes {
                state.inflight += 1;
                state.inflight_bytes = state.inflight_bytes.saturating_add(estimate);
                Registry::global()
                    .gauge("rads_serve_inflight_queries")
                    .set(state.inflight as u64);
                return Ok(());
            }
            state = self.readmit.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Returns a slot and its byte share; wakes every waiter (multiple
    /// small queries may fit into one released large slot).
    fn release(&self, estimate: u64) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.inflight = state.inflight.saturating_sub(1);
        state.inflight_bytes = state.inflight_bytes.saturating_sub(estimate);
        Registry::global().gauge("rads_serve_inflight_queries").set(state.inflight as u64);
        drop(state);
        self.readmit.notify_all();
    }
}

/// Releases the scheduler slot on every exit path of a query execution.
struct SlotGuard<'a> {
    scheduler: &'a QueryScheduler,
    estimate: u64,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.scheduler.release(self.estimate);
    }
}

// ---------------------------------------------------------------------------
// one resident machine (the coordinator's and every worker's alike)
// ---------------------------------------------------------------------------

fn traffic_delta(now: &TrafficSnapshot, prev: &TrafficSnapshot) -> TrafficSnapshot {
    let mut delta = now.clone();
    delta.messages = now.messages.saturating_sub(prev.messages);
    delta.total_bytes = now.total_bytes.saturating_sub(prev.total_bytes);
    delta.control_bytes = now.control_bytes.saturating_sub(prev.control_bytes);
    for (m, bytes) in delta.per_machine_bytes.iter_mut().enumerate() {
        *bytes = bytes.saturating_sub(prev.per_machine_bytes.get(m).copied().unwrap_or(0));
    }
    delta
}

/// A resident machine: its partition, its fabric node and everything
/// [`Machine::execute`] needs to run one query after another.
struct Machine {
    spec: ClusterSpec,
    id: MachineId,
    partitioned: Arc<PartitionedGraph>,
    node: SocketNode,
    ctx: MachineContext,
    daemon: Arc<ServeDaemon>,
    stats: Arc<NetworkStats>,
    plan_cache: PlanCache,
    /// The foreign adjacency this machine's queries have fetched so far,
    /// kept for as long as the partition is (see the module docs).
    foreign: ForeignStore,
    /// The startup snapshot every query without a client override runs
    /// under ([`startup_budget`]).
    base_budget: MemoryBudget,
    prev_wire: StdMutex<TrafficSnapshot>,
}

impl Machine {
    /// Binds `addrs[id]`, builds the partition and starts the node. `jobs`
    /// is where dispatched queries are queued (workers; the coordinator's
    /// queries arrive through [`ResidentCluster::query`] instead).
    fn start(
        spec: &ClusterSpec,
        id: MachineId,
        addrs: Vec<PeerAddr>,
        jobs: Option<mpsc::Sender<QueryJob>>,
    ) -> Result<Machine, String> {
        rads_obs::set_trace_process(id as u64);
        // Bind the listener *before* the expensive graph build: peers whose
        // generation finishes first connect immediately (their requests
        // queue in the accept backlog), instead of burning their bounded
        // connect-retry window against a process that is still generating.
        let listener = SocketListener::bind(&addrs[id])
            .map_err(|e| format!("machine {id}: cannot bind {}: {e}", addrs[id]))?;
        let partitioned = build_partitioned(spec);
        let stats = Arc::new(NetworkStats::new(spec.machines));
        let daemon = Arc::new(ServeDaemon::new(partitioned.clone(), id, jobs));
        let node =
            SocketNode::start_with_listener(id, addrs, listener, daemon.clone(), stats.clone());
        let ctx = MachineContext::assemble(partitioned.clone(), node.transport(), daemon.clone());
        let base_budget = startup_budget(spec);
        Ok(Machine {
            spec: spec.clone(),
            id,
            partitioned,
            node,
            ctx,
            daemon,
            prev_wire: StdMutex::new(stats.snapshot()),
            stats,
            plan_cache: PlanCache::new(),
            foreign: ForeignStore::new(base_budget.cache_bytes),
            base_budget,
        })
    }

    /// The engine configuration of one query — mirrors
    /// `RadsConfig::default()` so a multi-process run is comparable 1:1
    /// with `run_rads` on an in-process cluster. Never consults the
    /// environment. A `budget_override` reaches `Φ` (and the scratch cache
    /// of a `--no-cache` run) only: the resident caches keep the allowance
    /// `foreign` was built with.
    fn engine_config(&self, budget_override: Option<u64>) -> EngineConfig {
        EngineConfig {
            budget: match budget_override {
                Some(bytes) => MemoryBudget::from_bytes(bytes as usize),
                None => self.base_budget,
            },
            seed: 42,
            workers: self.spec.workers,
            driver: self.spec.driver,
            enable_cache: self.spec.cache,
            ..EngineConfig::default()
        }
    }

    /// Advances the previous-wire watermark and returns the traffic since
    /// the last call. The node's counters are process-cumulative, so under
    /// concurrent queries a delta attributes bytes transferred during the
    /// overlap to whichever query closes its window first — a conservative
    /// superset per query (total bytes are never lost or double-counted
    /// across the stream); with serialized queries the delta is exact.
    fn take_wire_delta(&self) -> TrafficSnapshot {
        let mut prev = self.prev_wire.lock().unwrap_or_else(|p| p.into_inner());
        let now = self.stats.snapshot();
        let delta = traffic_delta(&now, &prev);
        *prev = now;
        delta
    }

    /// Runs this machine's share of one query and returns its report plus
    /// whether the plan came from the cache. `Err` means the pattern name is
    /// unknown here.
    ///
    /// While the engine runs, a non-coordinator machine with metrics
    /// enabled streams its registry snapshot to machine 0 every
    /// [`METRICS_TICK`] — the coordinator's recent view of the cluster and
    /// the heartbeat its [`ClusterWatch`] accounts. A query shorter than
    /// one tick sends none.
    fn execute(&self, job: &QueryJob) -> Result<(MachineSummary, bool), String> {
        let pattern = queries::query_by_name(&job.pattern)
            .ok_or_else(|| format!("unknown query {:?}", job.pattern))?;
        let (plan, hit) = self.plan_cache.get_or_compute(&pattern, SERVE_RHO);
        let config = self.engine_config(job.budget);
        let query = QueryId(job.id);
        let queue = new_group_queue();
        self.daemon.install(
            query,
            Arc::new(RadsDaemon::new(self.partitioned.clone(), self.id, queue.clone())),
        );
        let qctx = self.ctx.for_query(query);
        let start = Instant::now();
        let output = std::thread::scope(|scope| {
            // dropping the sender stops the ticker mid-wait
            let (stop, stopped) = mpsc::channel::<()>();
            if self.id != 0 && rads_obs::metrics_enabled() {
                let publisher = self.node.metrics_publisher(0);
                std::thread::Builder::new()
                    .name("rads-metrics-ticker".to_string())
                    .spawn_scoped(scope, move || {
                        while stopped.recv_timeout(METRICS_TICK)
                            == Err(mpsc::RecvTimeoutError::Timeout)
                        {
                            publisher.send(&Registry::global().snapshot().encode());
                        }
                    })
                    .expect("spawn metrics ticker thread");
            }
            let output = run_machine(&qctx, &pattern, &plan, &config, queue, &self.foreign);
            drop(stop);
            output
        });
        let elapsed = start.elapsed();
        self.daemon.clear(query);
        let wire = self.take_wire_delta();
        rads_core::obs::publish_traffic(&wire);
        Ok((machine_summary(self.id, &output, &wire, elapsed, self.node.reconnects()), hit))
    }

    /// Drains the node and writes this process's observability artifacts
    /// (after the drain, so daemon-thread trace buffers have flushed).
    fn finish(self) -> Result<(), String> {
        self.node.finish_shutdown();
        write_observability_artifacts(&self.spec)
    }
}

// ---------------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------------

/// One executor thread of a worker: pick a queued [`Request::Query`] job,
/// execute it, deliver the report — until `stop`. `Err` is a fatal
/// delivery failure.
fn worker_executor(
    machine: &Machine,
    jobs: &StdMutex<mpsc::Receiver<QueryJob>>,
    stop: &AtomicBool,
) -> Result<(), String> {
    while !stop.load(Ordering::SeqCst) {
        // hold the receiver lock only for one bounded poll: an executor
        // busy inside run_machine never blocks its siblings' polls
        let job = {
            let jobs = jobs.lock().unwrap_or_else(|p| p.into_inner());
            match jobs.recv_timeout(JOB_POLL) {
                Ok(job) => job,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        };
        let (summary, hit) = match machine.execute(&job) {
            Ok(report) => report,
            Err(e) => {
                // the coordinator validates names before dispatching;
                // reaching this means a version skew between binaries —
                // report loudly and let its per-query deadline surface it
                eprintln!("machine {}: {e}", machine.id);
                continue;
            }
        };
        // final-metrics-then-result ordering on one connection: when the
        // coordinator holds this query's result it also holds this
        // machine's registry snapshot covering it
        if rads_obs::metrics_enabled() {
            machine.node.metrics_publisher(0).send(&Registry::global().snapshot().encode());
        }
        machine
            .node
            .send_result(0, QueryId(job.id), &encode_query_report(job.id, &summary, hit))
            .map_err(|e| format!("cannot deliver query report: {e}"))?;
    }
    Ok(())
}

/// Runs one resident worker: build the partition once, then run
/// `max_concurrent` executor threads until the coordinator's shutdown
/// order (or a fatal delivery failure), drain, write artifacts.
pub fn run_worker(
    spec: &ClusterSpec,
    id: usize,
    addrs: Vec<PeerAddr>,
    max_concurrent: usize,
) -> Result<(), String> {
    if id == 0 || id >= spec.machines {
        return Err(format!("worker machine id {id} out of range 1..{}", spec.machines));
    }
    let (job_tx, job_rx) = mpsc::channel();
    let machine = Machine::start(spec, id, addrs, Some(job_tx))?;
    let job_rx = StdMutex::new(job_rx);
    let stop = AtomicBool::new(false);
    let fatal = std::thread::scope(|scope| {
        let executors: Vec<_> = (0..max_concurrent.max(1))
            .map(|slot| {
                std::thread::Builder::new()
                    .name(format!("rads-exec-{slot}"))
                    .spawn_scoped(scope, || {
                        let outcome = worker_executor(&machine, &job_rx, &stop);
                        if outcome.is_err() {
                            stop.store(true, Ordering::SeqCst);
                        }
                        outcome
                    })
                    .expect("spawn executor thread")
            })
            .collect();
        // the main thread owns liveness: wait for the fabric shutdown
        // order, or for an executor to flag a fatal delivery failure
        while !machine.node.wait_shutdown(JOB_POLL) && !stop.load(Ordering::SeqCst) {}
        stop.store(true, Ordering::SeqCst);
        let outcomes: Vec<Result<(), String>> = executors
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|_| Err("an executor panicked".to_string())))
            .collect();
        outcomes.into_iter().find_map(Result::err)
    });
    machine.finish()?;
    match fatal {
        Some(error) => Err(format!("machine {id}: {error}")),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// the resident cluster (machine 0's handle on the whole lifecycle)
// ---------------------------------------------------------------------------

/// Knobs of a [`ResidentCluster`] beyond the cluster spec.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Reject queries whose estimated footprint exceeds this many bytes,
    /// and cap the **joint** in-flight estimate at it (`None` = admit
    /// everything; the runtime governor still enforces the budget during
    /// execution).
    pub admission_bytes: Option<u64>,
    /// Bind address of the client front door (TCP; [`serve`] only).
    pub client_addr: String,
    /// Bind address of the Prometheus text page (TCP; [`serve`] only).
    pub http_addr: String,
    /// Hard per-query deadline: admission to all-reports.
    pub query_timeout: Duration,
    /// How many admitted queries may execute concurrently (also the size
    /// of every worker's executor pool). 1 = the classic serialized serve
    /// loop.
    pub max_concurrent_queries: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            admission_bytes: None,
            client_addr: "127.0.0.1:0".to_string(),
            http_addr: "127.0.0.1:0".to_string(),
            query_timeout: Duration::from_secs(300),
            max_concurrent_queries: 1,
        }
    }
}

/// What one query produced on the cluster. [`QueryReply::Ok`] and the
/// [`ClusterSummary`] of `rads-node run` are both rendered from it.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The coordinator-assigned query id (unique per cluster lifetime,
    /// starting at 1).
    pub query_id: u64,
    /// Every machine's report, machine 0 first.
    pub per_machine: Vec<MachineSummary>,
    /// Whether the coordinator served the plan from its cache.
    pub plan_cache_hit: bool,
    /// Coordinator-measured wall clock, dispatch to all-reports.
    pub elapsed: Duration,
    /// This query's *delta* of the cluster-wide metrics registry —
    /// epoch-scoped to this query, free of cross-query baseline races by
    /// construction. Empty when metrics are disabled.
    pub metrics: MetricsSnapshot,
}

/// Why [`ResidentCluster::query`] produced no outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Admission control refused the query: its estimated footprint alone
    /// exceeds the admission limit. Nothing was dispatched.
    Rejected {
        /// The coordinator-assigned query id.
        query_id: u64,
        /// Estimated bytes ([`estimate_query_footprint`]).
        estimate: u64,
        /// The configured admission limit in bytes.
        limit: u64,
    },
    /// The query failed on a live cluster (unknown pattern, dispatch
    /// failure, hard deadline, corrupt report).
    Failed {
        /// The coordinator-assigned query id.
        query_id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Worker processes were confirmed dead (`try_wait`) while the query
    /// was in flight. The cluster is unusable from here on.
    WorkerLoss {
        /// The coordinator-assigned query id.
        query_id: u64,
        /// `(machine, exit status)` of every dead worker.
        dead: Vec<(usize, String)>,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Rejected { estimate, limit, .. } => write!(
                f,
                "estimated footprint {estimate} bytes exceeds admission limit {limit} bytes"
            ),
            QueryError::Failed { message, .. } => f.write_str(message),
            QueryError::WorkerLoss { dead, .. } => {
                let named: Vec<String> = dead
                    .iter()
                    .map(|(machine, status)| format!("machine {machine}: {status}"))
                    .collect();
                write!(f, "worker process lost mid-query ({})", named.join(", "))
            }
        }
    }
}

impl QueryError {
    /// The coordinator-assigned id of the query that failed.
    pub fn query_id(&self) -> u64 {
        match self {
            QueryError::Rejected { query_id, .. }
            | QueryError::Failed { query_id, .. }
            | QueryError::WorkerLoss { query_id, .. } => *query_id,
        }
    }
}

impl QueryReply {
    /// Renders what [`ResidentCluster::query`] returned as the client
    /// reply.
    pub fn from_result(result: Result<QueryOutcome, QueryError>) -> QueryReply {
        match result {
            Ok(outcome) => QueryReply::Ok {
                query_id: outcome.query_id,
                count: outcome.per_machine.iter().map(|m| m.embeddings).sum(),
                elapsed_us: outcome.elapsed.as_micros() as u64,
                plan_cache_hit: outcome.plan_cache_hit,
                per_machine: outcome
                    .per_machine
                    .iter()
                    .map(|m| (m.machine as u32, m.embeddings))
                    .collect(),
                metrics_json: outcome.metrics.to_json(),
            },
            Err(QueryError::Rejected { query_id, estimate, limit }) => {
                QueryReply::Rejected { query_id, estimate, limit }
            }
            Err(error) => {
                QueryReply::Error { query_id: error.query_id(), message: error.to_string() }
            }
        }
    }
}

/// Coordinator-only state around machine 0.
struct Coordinator {
    machine: Machine,
    scheduler: QueryScheduler,
    ledger: EpochLedger,
    next_query_id: AtomicU64,
}

impl Coordinator {
    /// Adds every worker's latest (cumulative) snapshot to `snapshot`.
    fn absorb_workers(&self, snapshot: &mut MetricsSnapshot) -> Result<(), String> {
        for (machine, payload) in self.machine.node.latest_metrics() {
            let worker = MetricsSnapshot::decode(&payload)
                .map_err(|e| format!("machine {machine} sent an undecodable metrics frame: {e}"))?;
            snapshot.absorb(&worker);
        }
        Ok(())
    }

    /// Runs one admitted query end to end. Called from the query's own
    /// thread; everything it touches is concurrency-safe by construction
    /// (routing table, query-scoped context, epoch ledger).
    fn run_query(&self, job: &QueryJob, deadline: Instant) -> Result<QueryOutcome, String> {
        // per-query metric epoch: baseline = own registry + every worker's
        // latest cumulative snapshot, taken at *this* query's admission
        let mut baseline = Registry::global().snapshot();
        self.absorb_workers(&mut baseline)?;
        self.ledger.begin(job.id, baseline);
        let query = QueryId(job.id);
        self.machine.node.expect_results(query);
        let outcome = self.dispatch_and_collect(job, deadline);
        if outcome.is_err() {
            self.ledger.abort(job.id);
            self.machine.node.abandon_results(query);
        }
        outcome
    }

    fn dispatch_and_collect(
        &self,
        job: &QueryJob,
        deadline: Instant,
    ) -> Result<QueryOutcome, String> {
        let id = job.id;
        let query = QueryId(id);
        let qctx = self.machine.ctx.for_query(query);
        let workers: Vec<usize> = (1..self.machine.spec.machines).collect();
        let start = Instant::now();
        for &m in &workers {
            let dispatch =
                Request::Query { id, pattern: job.pattern.clone(), budget: job.budget };
            match qctx.request(m, dispatch) {
                Ok(Response::Ack) => {}
                Ok(other) => return Err(format!("machine {m} answered dispatch with {other:?}")),
                Err(e) => return Err(format!("cannot dispatch to machine {m}: {e}")),
            }
        }
        let (mut own, plan_cache_hit) = self.machine.execute(job)?;
        let payloads = self
            .machine
            .node
            .wait_results(query, &workers, deadline.saturating_duration_since(Instant::now()))
            .map_err(|missing| {
                format!("query {id}: no report from machines {missing:?} before the deadline")
            })?;
        let elapsed = start.elapsed();
        // responses machine 0 served to still-running workers after its own
        // engine finished belong to this query too
        let tail = self.machine.take_wire_delta();
        rads_core::obs::publish_traffic(&tail);
        own.wire_bytes += tail.total_bytes;
        own.wire_messages += tail.messages;
        let mut per_machine = vec![own];
        for payload in payloads {
            let (reported_id, summary, _worker_hit) = decode_query_report(&payload)?;
            // wait_results is query-keyed, so a mismatched id inside the
            // payload means a corrupted report, not a stale one
            if reported_id != id {
                return Err(format!(
                    "report tagged for query {reported_id} inside query {id}'s frame"
                ));
            }
            per_machine.push(summary);
        }
        let registry = Registry::global();
        registry.counter("rads_serve_queries_total").inc();
        // cluster-cumulative = own registry + every worker's latest
        // (cumulative) snapshot; this query's share is the delta against
        // the baseline its own epoch recorded at admission
        let mut cluster_now = registry.snapshot();
        self.absorb_workers(&mut cluster_now)?;
        Ok(QueryOutcome {
            query_id: id,
            per_machine,
            plan_cache_hit,
            elapsed,
            metrics: self.ledger.end(id, &cluster_now),
        })
    }
}

/// A launched cluster: `machines - 1` resident worker processes plus
/// machine 0 in this process. Dropping it without
/// [`shutdown`](ResidentCluster::shutdown) kills the workers and removes
/// the scratch sockets.
pub struct ResidentCluster {
    coordinator: Arc<Coordinator>,
    watch: StdMutex<ClusterWatch>,
    query_timeout: Duration,
}

impl ResidentCluster {
    /// Allocates the cluster's addresses, spawns the workers (`node_binary`
    /// in `worker` mode), builds machine 0's partition and starts its node.
    pub fn launch(
        spec: &ClusterSpec,
        kind: TransportKind,
        node_binary: &Path,
        options: &ServeOptions,
    ) -> Result<ResidentCluster, String> {
        if spec.machines == 0 {
            return Err("a cluster needs at least one machine".to_string());
        }
        let addrs = allocate_addrs(kind, spec.machines)?;
        // from here on the watch owns the cleanup of every error path
        let watch =
            ClusterWatch::spawn(spec, &addrs, node_binary, options.max_concurrent_queries)?;
        let machine = Machine::start(spec, 0, addrs, None)?;
        Ok(ResidentCluster {
            coordinator: Arc::new(Coordinator {
                machine,
                scheduler: QueryScheduler::new(
                    options.max_concurrent_queries,
                    options.admission_bytes,
                ),
                ledger: EpochLedger::new(),
                next_query_id: AtomicU64::new(0),
            }),
            watch: StdMutex::new(watch),
            query_timeout: options.query_timeout,
        })
    }

    fn watch(&self) -> MutexGuard<'_, ClusterWatch> {
        self.watch.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Runs `pattern` (a [`rads_graph::queries::query_by_name`] name) on
    /// every machine, optionally overriding the per-group memory budget
    /// (bytes) for this query only. Blocks while admission makes it wait;
    /// from admission on, `query_timeout` is a hard deadline.
    pub fn query(&self, pattern: &str, budget: Option<u64>) -> Result<QueryOutcome, QueryError> {
        let coordinator = &self.coordinator;
        // ids start at 1; QueryId::SOLO (0) stays reserved for the fabric's
        // own control frames
        let id = coordinator.next_query_id.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(known) = queries::query_by_name(pattern) else {
            return Err(QueryError::Failed {
                query_id: id,
                message: format!("unknown query {pattern:?}"),
            });
        };
        let estimate = estimate_query_footprint(&coordinator.machine.partitioned, &known);
        if let Err((estimate, limit)) = coordinator.scheduler.admit(estimate) {
            Registry::global().counter("rads_serve_rejected_total").inc();
            return Err(QueryError::Rejected { query_id: id, estimate, limit });
        }
        let _slot = SlotGuard { scheduler: &coordinator.scheduler, estimate };
        let deadline = Instant::now() + self.query_timeout;
        if let Some(dead) = self.lost_workers() {
            return Err(QueryError::WorkerLoss { query_id: id, dead });
        }
        self.watch().begin_query();
        let outcome =
            self.run_watched(QueryJob { id, pattern: pattern.to_string(), budget }, deadline);
        self.watch().end_query();
        outcome
    }

    /// Runs an admitted query on its own thread while this caller waits for
    /// whichever comes first: the outcome, the [`ClusterWatch`]'s verdict
    /// that a worker died, or the deadline. The thread is what lets the
    /// deadline cover the enumeration itself: a worker that stays alive but
    /// wedges mid-request blocks the engine in a recv with no timeout, out
    /// of reach of any return path. On deadline or worker loss the thread
    /// is abandoned — it may be blocked on, or panicking over, a connection
    /// to a machine that no longer exists.
    fn run_watched(&self, job: QueryJob, deadline: Instant) -> Result<QueryOutcome, QueryError> {
        let id = job.id;
        let failed = |message: String| QueryError::Failed { query_id: id, message };
        let (tx, rx) = mpsc::channel();
        let runner = self.coordinator.clone();
        std::thread::Builder::new()
            .name(format!("rads-query-{id}"))
            .spawn(move || {
                let outcome = runner.run_query(&job, deadline);
                // released before the caller can see the outcome, so a
                // finished query never keeps `shutdown` from owning machine 0
                drop(runner);
                let _ = tx.send(outcome);
            })
            .map_err(|e| failed(format!("cannot spawn query thread: {e}")))?;
        loop {
            let waited = rx.recv_timeout(WATCH_POLL);
            if let Ok(outcome) = waited {
                return outcome.map_err(failed);
            }
            // The query thread dying is itself a worker-loss symptom: its
            // RPCs to the dead machine exhausted their retries. Confirm via
            // the process table before blaming the engine.
            if let Some(dead) = self.lost_workers() {
                return Err(QueryError::WorkerLoss { query_id: id, dead });
            }
            if matches!(waited, Err(mpsc::RecvTimeoutError::Disconnected)) {
                return Err(failed(format!("query {id}: its thread died without reporting")));
            }
            if Instant::now() >= deadline {
                return Err(failed(format!(
                    "hard timeout: query {id} still running after {}s — \
                     treating the transport as deadlocked",
                    self.query_timeout.as_secs()
                )));
            }
        }
    }

    /// The dead workers, if the watch has confirmed any (polling it now).
    pub fn lost_workers(&self) -> Option<Vec<(usize, String)>> {
        self.watch().poll(self.coordinator.machine.node.heartbeats())
    }

    /// Missed heartbeat intervals summed over workers (advisory; see
    /// [`ClusterSummary::heartbeats_missed`]).
    pub fn heartbeats_missed(&self) -> u64 {
        self.watch().heartbeats_missed()
    }

    /// Orders every worker down, drains machine 0 (writing its
    /// observability artifacts), reaps the worker processes and removes
    /// the scratch sockets.
    pub fn shutdown(self) -> Result<(), String> {
        let ResidentCluster { coordinator, watch, .. } = self;
        let mut watch = watch.into_inner().unwrap_or_else(|p| p.into_inner());
        coordinator.machine.node.broadcast_shutdown();
        let coordinator = Arc::try_unwrap(coordinator)
            .map_err(|_| "an abandoned query thread is still holding machine 0".to_string())?;
        coordinator.machine.finish()?;
        watch.reap()
        // dropping the watch kills stragglers and removes the scratch dir
    }
}

// ---------------------------------------------------------------------------
// `rads-node run`: launch, one query, shut down
// ---------------------------------------------------------------------------

/// Runs `query` once on a freshly launched cluster and tears the cluster
/// down again, enforcing `timeout` as a hard deadline on launch + query —
/// every phase fails with a clean `Err` (workers killed, scratch sockets
/// removed), never a hang. Confirmed worker loss is dispatched per
/// `spec.fault_policy`: fail-fast surfaces the structured report, recover
/// recomputes in-process (the survivors' partial results are unusable —
/// the rebuild is all-machine).
pub fn run_once(
    spec: &ClusterSpec,
    query: &str,
    kind: TransportKind,
    node_binary: &Path,
    timeout: Duration,
) -> Result<ClusterSummary, String> {
    let kind = kind.effective();
    let start = Instant::now();
    let options = ServeOptions { query_timeout: timeout, ..ServeOptions::default() };
    let mut cluster = ResidentCluster::launch(spec, kind, node_binary, &options)?;
    cluster.query_timeout = timeout.saturating_sub(start.elapsed());
    let outcome = cluster.query(query, None);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
    let heartbeats_missed = cluster.heartbeats_missed();
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(QueryError::WorkerLoss { dead, .. }) => {
            drop(cluster);
            return match spec.fault_policy {
                FaultPolicy::FailFast => Err(format!(
                    "fault policy fail-fast: worker machine(s) {:?} died mid-run; report: {}",
                    dead.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
                    fault_report(spec, &dead),
                )),
                FaultPolicy::Recover => {
                    recover_in_process(spec, query, kind, &dead, heartbeats_missed, start)
                }
            };
        }
        Err(other) => return Err(other.to_string()),
    };
    cluster.shutdown()?;
    Ok(ClusterSummary::of_query(
        spec,
        query,
        kind,
        outcome.per_machine,
        &outcome.metrics,
        elapsed_ms,
        heartbeats_missed,
    ))
}

/// The [`FaultPolicy::Recover`] path: after confirmed worker loss, rebuild
/// the run deterministically on an in-process cluster (same generators,
/// same partitioning, same engine — see the policy's doc for why the whole
/// run is recomputed rather than only the dead machine's region groups) and
/// synthesize the summary the socket cluster would have produced. Embedding
/// counts are bit-identical to a clean run; the wire columns are zero
/// because the rebuild never touches a socket.
fn recover_in_process(
    spec: &ClusterSpec,
    query: &str,
    kind: TransportKind,
    dead: &[(usize, String)],
    heartbeats_missed: u64,
    start: Instant,
) -> Result<ClusterSummary, String> {
    use rads_core::{run_rads, RadsConfig};
    let pattern =
        queries::query_by_name(query).ok_or_else(|| format!("unknown query {query:?}"))?;
    let partitioned = build_partitioned(spec);
    let cluster = rads_runtime::Cluster::with_transport(partitioned, TransportKind::InProcess);
    let config = RadsConfig {
        memory_budget: startup_budget(spec),
        workers: spec.workers,
        round_driver: spec.driver,
        enable_cache: spec.cache,
        ..RadsConfig::default()
    };
    let rebuild_start = Instant::now();
    let outcome = run_rads(&cluster, &pattern, &config);
    let rebuild_ms = rebuild_start.elapsed().as_secs_f64() * 1000.0;
    let machines_recovered: Vec<usize> = dead.iter().map(|(m, _)| *m).collect();
    let groups_recovered: u64 = machines_recovered
        .iter()
        .map(|&m| outcome.per_machine[m].stats.groups_created as u64)
        .sum();
    Registry::global().counter("rads_region_groups_recovered_total").add(groups_recovered);
    let per_machine: Vec<MachineSummary> = outcome
        .per_machine
        .iter()
        .enumerate()
        .map(|(machine, report)| MachineSummary {
            machine,
            embeddings: report.count,
            sme_embeddings: report.stats.sme_embeddings,
            wire_bytes: 0,
            wire_messages: 0,
            fetch_wait_demand_us: report.stats.fetch_wait_micros,
            elapsed_ms: rebuild_ms,
            rpc_retries: report.stats.rpc_retries,
            reconnects: 0,
        })
        .collect();
    Ok(ClusterSummary {
        machines_recovered,
        groups_recovered,
        ..ClusterSummary::of_query(
            spec,
            query,
            kind,
            per_machine,
            &Registry::global().snapshot(),
            start.elapsed().as_secs_f64() * 1000.0,
            heartbeats_missed,
        )
    })
}

// ---------------------------------------------------------------------------
// `rads-node serve`: launch, front door, a stream of queries, shut down
// ---------------------------------------------------------------------------

/// Where client-connection threads borrow the cluster from, one request at
/// a time. `None` once the serve loop has closed the door.
type FrontDoor = StdMutex<Option<Arc<ResidentCluster>>>;

/// Runs a resident cluster until a client orders shutdown.
///
/// Startup: [`ResidentCluster::launch`], start the Prometheus page and the
/// client front door, then print **one line of JSON** on stdout —
/// `{"serving":true,"client_addr":...,"http_addr":...,...}` — the
/// machine-readable "ready" contract clients (and the serve smoke test)
/// wait for. After that, queries stream in over client connections, each
/// a [`ResidentCluster::query`], with the `QueryScheduler` capping
/// concurrency and the joint in-flight footprint. `ClientOp::Shutdown`
/// drains the in-flight queries, then shuts the cluster down. A lost
/// worker fails every in-flight query with a reply naming it and ends
/// with an `Err` (survivors killed, scratch sockets removed).
pub fn serve(
    spec: &ClusterSpec,
    kind: TransportKind,
    node_binary: &Path,
    options: &ServeOptions,
) -> Result<(), String> {
    let kind = kind.effective();
    // the Prometheus page and the per-query metrics of every reply are part
    // of the serving contract, so a serving cluster always records (set
    // before launch: the workers inherit the toggle)
    rads_obs::set_metrics_enabled(true);
    let mut cluster = Arc::new(ResidentCluster::launch(spec, kind, node_binary, options)?);
    let http = MetricsHttpServer::bind(&options.http_addr)
        .map_err(|e| format!("cannot bind metrics page {}: {e}", options.http_addr))?;
    let client_listener = TcpListener::bind(&options.client_addr)
        .map_err(|e| format!("cannot bind client door {}: {e}", options.client_addr))?;
    let client_addr = client_listener
        .local_addr()
        .map_err(|e| format!("cannot read client door address: {e}"))?;
    println!(
        concat!(
            "{{\"serving\":true,\"client_addr\":\"{}\",\"http_addr\":\"{}\",",
            "\"machines\":{},\"transport\":\"{}\",\"dataset\":\"{}\",\"scale\":{},",
            "\"admission_bytes\":{},\"max_concurrent_queries\":{}}}"
        ),
        client_addr,
        http.addr(),
        spec.machines,
        kind.name(),
        spec.dataset.name(),
        spec.scale,
        options.admission_bytes.map_or("null".to_string(), |b| b.to_string()),
        options.max_concurrent_queries.max(1),
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let door: Arc<FrontDoor> = Arc::new(StdMutex::new(Some(cluster.clone())));
    let (shutdown_tx, shutdown_rx) = mpsc::channel::<()>();
    // Accept loop + one handler thread per connection. The threads are
    // deliberately detached: they block in socket reads and the process
    // exits right after this function returns.
    let handler_door = door.clone();
    std::thread::Builder::new()
        .name("rads-serve-accept".to_string())
        .spawn(move || {
            for stream in client_listener.incoming() {
                let Ok(stream) = stream else { break };
                let (door, shutdown_tx) = (handler_door.clone(), shutdown_tx.clone());
                let spawned = std::thread::Builder::new()
                    .name("rads-serve-client".to_string())
                    .spawn(move || serve_client(stream, &door, &shutdown_tx));
                if spawned.is_err() {
                    break;
                }
            }
        })
        .map_err(|e| format!("cannot spawn client accept thread: {e}"))?;

    let verdict = loop {
        if let Some(dead) = cluster.lost_workers() {
            break Err(QueryError::WorkerLoss { query_id: 0, dead }.to_string());
        }
        match shutdown_rx.recv_timeout(WATCH_POLL) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => break Ok(()),
        }
    };
    // Close the door, then drain: a handler holds its borrow until its
    // reply is on the wire. A query mid-run on the workers must not see its
    // coordinator vanish; after a worker loss each of them fails within one
    // watch poll.
    door.lock().unwrap_or_else(|p| p.into_inner()).take();
    let cluster = loop {
        match Arc::try_unwrap(cluster) {
            Ok(cluster) => break cluster,
            Err(borrowed) => cluster = borrowed,
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    drop(http);
    verdict?;
    cluster.shutdown()
}

/// Serves one client connection: a stream of `Query` frames, each answered
/// with a `QueryResult` frame echoing the correlation id. The connection
/// closes after a shutdown op, a malformed frame, or the client hanging up.
///
/// Queries block their own connection until answered (the classic
/// request/reply contract); clients wanting overlap open several
/// connections — `rads-query --concurrency N` does exactly that.
fn serve_client(mut stream: std::net::TcpStream, door: &FrontDoor, shutdown: &mpsc::Sender<()>) {
    loop {
        let frame = match read_message(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        if frame.kind != FrameKind::Query {
            return;
        }
        // borrowed until the reply is written
        let cluster = door.lock().unwrap_or_else(|p| p.into_inner()).clone();
        let reply = match (decode_client_op(&frame.payload), &cluster) {
            (Err(e), _) => {
                QueryReply::Error { query_id: 0, message: format!("bad request: {e}") }
            }
            (Ok(ClientOp::Shutdown), _) => QueryReply::ShutdownAck,
            (Ok(ClientOp::Query { pattern, budget }), Some(cluster)) => {
                QueryReply::from_result(cluster.query(&pattern, budget))
            }
            (Ok(ClientOp::Query { .. }), None) => QueryReply::Error {
                query_id: 0,
                message: "server is shutting down".to_string(),
            },
        };
        let done = reply == QueryReply::ShutdownAck;
        let written = write_message(
            &mut stream,
            FrameKind::QueryResult,
            frame.correlation,
            QueryId::SOLO,
            &encode_query_reply(&reply),
        );
        drop(cluster);
        if done {
            // acknowledged first, so the ack is on the wire before the
            // process can exit
            let _ = shutdown.send(());
        }
        if written.is_err() || done {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// client side (the rads-query binary's engine room)
// ---------------------------------------------------------------------------

/// Sends one [`ClientOp`] to a serve coordinator at `addr`
/// (`host:port` of the client front door) and returns its reply.
pub fn client_round_trip(addr: &str, op: &ClientOp, correlation: u64) -> Result<QueryReply, String> {
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write_message(&mut stream, FrameKind::Query, correlation, QueryId::SOLO, &encode_client_op(op))
        .map_err(|e| format!("cannot send request: {e}"))?;
    let frame = read_message(&mut stream)
        .map_err(|e| format!("cannot read reply: {e}"))?
        .ok_or("server closed the connection without replying")?;
    if frame.kind != FrameKind::QueryResult {
        return Err(format!("unexpected reply frame {:?}", frame.kind));
    }
    if frame.correlation != correlation {
        return Err(format!(
            "reply correlation {} does not echo request {correlation}",
            frame.correlation
        ));
    }
    decode_query_reply(&frame.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::generators::ring_lattice;
    use rads_partition::{BfsPartitioner, Partitioner};

    fn small_partitioned() -> Arc<PartitionedGraph> {
        let g = ring_lattice(16, 0);
        Arc::new(PartitionedGraph::build(&g, BfsPartitioner.partition(&g, 2)))
    }

    #[test]
    fn client_op_roundtrip() {
        for op in [
            ClientOp::Query { pattern: "q1".to_string(), budget: None },
            ClientOp::Query { pattern: "house with end vertex".to_string(), budget: Some(1 << 20) },
            ClientOp::Shutdown,
        ] {
            assert_eq!(decode_client_op(&encode_client_op(&op)).unwrap(), op);
        }
    }

    #[test]
    fn query_reply_roundtrip() {
        for reply in [
            QueryReply::Ok {
                query_id: 11,
                count: 42,
                elapsed_us: 1234,
                plan_cache_hit: true,
                per_machine: vec![(0, 30), (1, 12)],
                metrics_json: "{\"metrics\":[]}".to_string(),
            },
            QueryReply::Rejected { query_id: 12, estimate: 1 << 40, limit: 1 << 20 },
            QueryReply::Error { query_id: 0, message: "unknown query \"q9\"".to_string() },
            QueryReply::ShutdownAck,
        ] {
            assert_eq!(decode_query_reply(&encode_query_reply(&reply)).unwrap(), reply);
        }
    }

    #[test]
    fn query_report_roundtrip() {
        let summary = MachineSummary {
            machine: 3,
            embeddings: 77,
            sme_embeddings: 70,
            wire_bytes: 1024,
            wire_messages: 6,
            fetch_wait_demand_us: 12,
            elapsed_ms: 1.5,
            rpc_retries: 0,
            reconnects: 0,
        };
        let buf = encode_query_report(9, &summary, true);
        assert_eq!(buf.len(), QUERY_REPORT_BYTES);
        let (id, decoded, hit) = decode_query_report(&buf).unwrap();
        assert_eq!(id, 9);
        assert!(hit);
        assert_eq!(decoded, summary);
    }

    #[test]
    fn serve_daemon_is_quiet_between_queries() {
        let daemon = ServeDaemon::new(small_partitioned(), 0, None);
        assert_eq!(
            daemon.handle(1, Envelope::solo(Request::CheckRegionGroups)),
            Response::RegionGroupCount(0)
        );
        assert_eq!(
            daemon.handle(1, Envelope::solo(Request::ShareRegionGroup)),
            Response::RegionGroups(vec![])
        );
        // no job queue: a stray Query RPC is unsupported, not silently lost
        let q = Request::Query { id: 1, pattern: "q1".to_string(), budget: None };
        assert_eq!(daemon.handle(1, Envelope::solo(q)), Response::Unsupported);
    }

    #[test]
    fn serve_daemon_routes_by_the_envelopes_query_id() {
        let partitioned = small_partitioned();
        let daemon = ServeDaemon::new(partitioned.clone(), 0, None);
        let queue_a = new_group_queue();
        queue_a.publish([vec![1, 2, 3], vec![4], vec![5], vec![6, 9], vec![10]]);
        let queue_b = new_group_queue();
        queue_b.publish([vec![7], vec![8]]);
        daemon.install(QueryId(5), Arc::new(RadsDaemon::new(partitioned.clone(), 0, queue_a.clone())));
        daemon.install(QueryId(6), Arc::new(RadsDaemon::new(partitioned, 0, queue_b)));
        assert_eq!(daemon.active_queries(), 2);
        let check = |q: u64| {
            daemon.handle(1, Envelope::new(QueryId(q), 0, Request::CheckRegionGroups))
        };
        // each query sees its own queue; an unknown id sees an empty one
        assert_eq!(check(5), Response::RegionGroupCount(5));
        assert_eq!(check(6), Response::RegionGroupCount(2));
        assert_eq!(check(99), Response::RegionGroupCount(0));
        // steal half, rounded up, from the back of query 5's queue
        assert_eq!(
            daemon.handle(1, Envelope::new(QueryId(5), 1, Request::ShareRegionGroup)),
            Response::RegionGroups(vec![vec![5], vec![6, 9], vec![10]])
        );
        assert_eq!(*queue_a.lock(), [vec![1, 2, 3], vec![4]]);
        // sharing from query 5 did not touch query 6's queue
        assert_eq!(check(5), Response::RegionGroupCount(2));
        assert_eq!(check(6), Response::RegionGroupCount(2));
        assert_eq!(
            daemon.handle(1, Envelope::new(QueryId(99), 0, Request::ShareRegionGroup)),
            Response::RegionGroups(vec![])
        );
        // a query still building its groups reads as empty, at once: the
        // router never parks a connection handler on one query's grouping
        let queue_c = new_group_queue();
        queue_c.lock().push_back(vec![11]);
        daemon.install(QueryId(7), Arc::new(RadsDaemon::new(small_partitioned(), 0, queue_c)));
        assert_eq!(check(7), Response::RegionGroupCount(0));
        daemon.clear(QueryId(7));
        daemon.clear(QueryId(5));
        assert_eq!(check(5), Response::RegionGroupCount(0));
        assert_eq!(check(6), Response::RegionGroupCount(2));
        daemon.clear(QueryId(6));
        assert_eq!(daemon.active_queries(), 0);
    }

    #[test]
    fn serve_daemon_enqueues_query_jobs_and_acks() {
        let (tx, rx) = mpsc::channel();
        let daemon = ServeDaemon::new(small_partitioned(), 1, Some(tx));
        let q = Request::Query { id: 7, pattern: "q1".to_string(), budget: Some(64) };
        assert_eq!(daemon.handle(0, Envelope::new(QueryId(7), 0, q)), Response::Ack);
        let job = rx.try_recv().unwrap();
        assert_eq!(job, QueryJob { id: 7, pattern: "q1".to_string(), budget: Some(64) });
        // partition-backed requests still served while idle
        match daemon.handle(0, Envelope::solo(Request::FetchVertices(vec![0]))) {
            Response::Adjacency(lists) => assert_eq!(lists.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scheduler_rejects_only_impossible_estimates() {
        let scheduler = QueryScheduler::new(4, Some(1000));
        assert_eq!(scheduler.admit(1001), Err((1001, 1000)));
        assert!(scheduler.admit(1000).is_ok());
        scheduler.release(1000);
    }

    #[test]
    fn scheduler_enforces_the_joint_byte_budget() {
        let scheduler = Arc::new(QueryScheduler::new(4, Some(1000)));
        assert!(scheduler.admit(600).is_ok());
        // 600 + 600 > 1000: the second admission must wait for the release
        let waiter = {
            let scheduler = scheduler.clone();
            std::thread::spawn(move || {
                scheduler.admit(600).expect("fits after release");
                scheduler.release(600);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "joint budget ignored: 1200 in flight under a 1000 cap");
        scheduler.release(600);
        waiter.join().expect("waiter admitted after release");
    }

    #[test]
    fn scheduler_enforces_the_concurrency_cap() {
        let scheduler = Arc::new(QueryScheduler::new(1, None));
        assert!(scheduler.admit(0).is_ok());
        let waiter = {
            let scheduler = scheduler.clone();
            std::thread::spawn(move || {
                scheduler.admit(0).expect("slot after release");
                scheduler.release(0);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "two queries in flight under --max-concurrent-queries 1");
        scheduler.release(0);
        waiter.join().expect("waiter admitted after release");
    }

    #[test]
    fn traffic_delta_subtracts_per_field() {
        let prev = TrafficSnapshot {
            messages: 10,
            total_bytes: 1000,
            control_bytes: 100,
            per_machine_bytes: vec![600, 400],
        };
        let now = TrafficSnapshot {
            messages: 15,
            total_bytes: 1500,
            control_bytes: 120,
            per_machine_bytes: vec![900, 600],
        };
        let delta = traffic_delta(&now, &prev);
        assert_eq!(delta.messages, 5);
        assert_eq!(delta.total_bytes, 500);
        assert_eq!(delta.control_bytes, 20);
        assert_eq!(delta.per_machine_bytes, vec![300, 200]);
    }
}
