//! The cluster runtime: machines, daemons, engines — over either transport.
//!
//! [`Cluster`] owns the partitioned data graph and runs one engine per
//! machine. How the machines talk is decided by [`TransportKind`]:
//!
//! * [`TransportKind::InProcess`] — daemon *threads* served over crossbeam
//!   channels, the original simulator (and the only mode with a simulated
//!   latency/bandwidth model).
//! * [`TransportKind::Uds`] / [`TransportKind::Tcp`] — every machine is a
//!   [`crate::transport::SocketNode`]: a real listener, real connections,
//!   the length-prefixed [`crate::wire`] framing, and traffic counters that
//!   report actual framed bytes. Engines still run as threads of this
//!   process (one process, N sockets); the `rads-node` binary runs the same
//!   node runtime with one *process* per machine.
//!
//! The default is read from `RADS_TRANSPORT` (see
//! [`TransportKind::from_env`]), so an unmodified test suite can be pointed
//! at the socket stack wholesale — the engines cannot tell the difference,
//! which is the point: [`MachineContext`]'s API is transport-independent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;

use rads_graph::VertexId;
use rads_partition::{LocalPartition, MachineId, PartitionedGraph, Partitioning};

use crate::error::TransportError;
use crate::message::{Envelope, QueryId, Request, Response};
use crate::network::{NetworkConfig, NetworkStats, TrafficSnapshot};
use crate::transport::{
    scratch_socket_dir, ChannelRpc, ChannelTransport, PeerAddr, PendingResponse, SocketListener,
    SocketNode, Transport, TransportKind,
};

/// Retries after the first attempt of an idempotent RPC (5 attempts total).
const RPC_RETRY_LIMIT: u32 = 4;
/// First backoff step; doubles per retry up to [`RPC_BACKOFF_CAP`].
const RPC_BACKOFF_BASE: Duration = Duration::from_millis(2);
/// Ceiling of one backoff sleep.
const RPC_BACKOFF_CAP: Duration = Duration::from_millis(200);
/// Cumulative per-RPC deadline: once this much wall clock has elapsed since
/// the first attempt, the next transient failure is returned, not retried.
const RPC_DEADLINE: Duration = Duration::from_secs(30);

/// Exponential backoff with deterministic jitter: sleep `attempt` (1-based)
/// lands in `[step/2, step]` where `step = min(base << (attempt-1), cap)`.
/// The jitter de-synchronizes machines hammering one recovering peer
/// without pulling in a randomness dependency — an xorshift mix of the
/// (machine, peer, query, attempt) tuple, so runs stay reproducible and
/// concurrent queries retrying against the same peer spread out instead
/// of stampeding in lockstep.
fn backoff_delay(machine: MachineId, to: MachineId, query: QueryId, attempt: u32) -> Duration {
    let shift = (attempt.saturating_sub(1)).min(16);
    let step = RPC_BACKOFF_BASE.saturating_mul(1 << shift).min(RPC_BACKOFF_CAP);
    let mut x = (machine as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((to as u64) << 32)
        .wrapping_add(query.0.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(attempt as u64)
        | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let half = step.as_millis() as u64 / 2;
    Duration::from_millis(half + x % (half + 1))
}

/// A machine's daemon: answers requests arriving from other machines.
///
/// The runtime runs one daemon per machine, concurrently with the machine's
/// engine — the paper's "daemon threads listen to requests from other
/// machines" (Section 3.1). Implementations are expected to answer from the
/// machine's local partition and any engine-shared state (e.g. the
/// region-group queue for `checkR` / `shareR`). A daemon must be prepared
/// to serve several requests concurrently (the socket transport handles
/// each inbound connection on its own thread), and — since requests arrive
/// as query-scoped [`Envelope`]s — to route each request to the state of
/// the query named by `envelope.query` when it serves more than one query
/// at a time.
pub trait Daemon: Send + Sync {
    /// Handles one enveloped request from machine `from`.
    fn handle(&self, from: MachineId, envelope: Envelope) -> Response;
}

/// The default daemon: answers `verifyE` and `fetchV` from the machine's
/// local partition and reports every other request as unsupported.
pub struct PartitionDaemon {
    partitioned: Arc<PartitionedGraph>,
    machine: MachineId,
}

impl PartitionDaemon {
    /// Creates the daemon for `machine`.
    pub fn new(partitioned: Arc<PartitionedGraph>, machine: MachineId) -> Self {
        PartitionDaemon { partitioned, machine }
    }

    /// Answers a `verifyE` request against a local partition.
    pub fn verify_edges(local: &LocalPartition, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        pairs
            .iter()
            .map(|&(u, v)| local.verify_edge(u, v).unwrap_or(false))
            .collect()
    }

    /// Answers a `fetchV` request against a local partition. Vertices not
    /// owned by the partition are returned with an empty adjacency list.
    pub fn fetch_vertices(local: &LocalPartition, vertices: &[VertexId]) -> Vec<(VertexId, Vec<VertexId>)> {
        vertices
            .iter()
            .map(|&v| (v, local.neighbors(v).map(|n| n.to_vec()).unwrap_or_default()))
            .collect()
    }
}

impl Daemon for PartitionDaemon {
    fn handle(&self, _from: MachineId, envelope: Envelope) -> Response {
        let local = self.partitioned.local(self.machine);
        match envelope.body {
            Request::VerifyEdges(pairs) => {
                Response::EdgeVerification(Self::verify_edges(local, &pairs))
            }
            Request::FetchVertices(vs) => Response::Adjacency(Self::fetch_vertices(local, &vs)),
            Request::CheckRegionGroups
            | Request::ShareRegionGroup
            | Request::DeliverRows { .. }
            | Request::Query { .. } => Response::Unsupported,
        }
    }
}

/// Everything an engine thread needs to act as one machine of the cluster.
///
/// The context is `Send + Sync` **and** cheaply `Clone` (every field is an
/// id, a handle or an `Arc`), so a machine's engine may fan its work out to
/// an intra-machine worker pool: workers either share one context by
/// reference or carry their own clone. Every concurrency-relevant operation
/// is safe under that sharing — [`request`](MachineContext::request) is
/// matched to its response per call on either transport, and the network
/// accounting behind [`traffic`](MachineContext::traffic) is atomic. Only
/// [`barrier`](MachineContext::barrier) must stay on the engine thread: it
/// synchronizes *machines*, and a second thread of the same machine waiting
/// on it would deadlock the superstep (RADS never calls it; the
/// shuffle-based baselines are single-threaded per machine).
pub struct MachineContext {
    machine: MachineId,
    partitioned: Arc<PartitionedGraph>,
    transport: Arc<dyn Transport>,
    local_daemon: Arc<dyn Daemon>,
    /// The query this context's requests are issued on behalf of. Batch
    /// runs keep [`QueryId::SOLO`]; a serving worker derives one context
    /// per admitted query via [`for_query`](Self::for_query).
    query: QueryId,
    /// Per-query send sequence: every transmission (including each retry
    /// re-issue) gets a fresh number, shared by clones of this context.
    seq: Arc<AtomicU64>,
    /// Transient RPC failures healed by re-issuing the request (shared by
    /// every clone of this machine's context).
    retries: Arc<AtomicU64>,
}

impl Clone for MachineContext {
    fn clone(&self) -> Self {
        MachineContext {
            machine: self.machine,
            partitioned: self.partitioned.clone(),
            transport: self.transport.clone(),
            local_daemon: self.local_daemon.clone(),
            query: self.query,
            seq: self.seq.clone(),
            retries: self.retries.clone(),
        }
    }
}

// The promise the engine-side worker pool builds on; a compile error here
// means a field of `MachineContext` lost thread safety.
const _: () = {
    const fn assert_shareable<T: Send + Sync + Clone>() {}
    assert_shareable::<MachineContext>()
};

impl MachineContext {
    /// Assembles a context from its parts. [`Cluster`] does this for every
    /// machine of a single-process run; a multi-process worker (the
    /// `rads-node` binary) does it once, with the transport of its
    /// [`SocketNode`] and its own daemon.
    pub fn assemble(
        partitioned: Arc<PartitionedGraph>,
        transport: Arc<dyn Transport>,
        local_daemon: Arc<dyn Daemon>,
    ) -> MachineContext {
        MachineContext {
            machine: transport.machine(),
            partitioned,
            transport,
            local_daemon,
            query: QueryId::SOLO,
            seq: Arc::new(AtomicU64::new(0)),
            retries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// This machine's id.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The query this context issues requests on behalf of
    /// ([`QueryId::SOLO`] outside serving mode).
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Derives a context scoped to `query`: same machine, transport and
    /// daemon, but every request it sends is enveloped with `query` and a
    /// fresh sequence counter. This is how a serving worker runs several
    /// queries concurrently over one shared fabric — each engine gets its
    /// own scoped context, and peers route by the envelope's query id.
    pub fn for_query(&self, query: QueryId) -> MachineContext {
        MachineContext {
            machine: self.machine,
            partitioned: self.partitioned.clone(),
            transport: self.transport.clone(),
            local_daemon: self.local_daemon.clone(),
            query,
            seq: Arc::new(AtomicU64::new(0)),
            retries: self.retries.clone(),
        }
    }

    /// Wraps `body` in this context's envelope, drawing the next sequence
    /// number. Called once per transmission — a retry re-issue is a new
    /// envelope, not a replay of the old one.
    fn envelope(&self, body: Request) -> Envelope {
        Envelope::new(self.query, self.seq.fetch_add(1, Ordering::Relaxed), body)
    }

    /// Number of machines in the cluster.
    pub fn machines(&self) -> usize {
        self.transport.machines()
    }

    /// The local partition of this machine.
    pub fn partition(&self) -> &LocalPartition {
        self.partitioned.local(self.machine)
    }

    /// The replicated ownership map.
    pub fn ownership(&self) -> &Partitioning {
        self.partitioned.partitioning()
    }

    /// The whole partitioned graph (engines must only read their own
    /// partition plus the ownership map; remote data goes through requests).
    pub fn partitioned(&self) -> &Arc<PartitionedGraph> {
        &self.partitioned
    }

    /// Sends `request` to machine `to` and blocks until the response arrives.
    ///
    /// A request addressed to the local machine is served inline by the local
    /// daemon and does not count as network traffic.
    ///
    /// # Retry semantics
    ///
    /// An [idempotent](Envelope::is_idempotent) request that fails with a
    /// [transient](TransportError::is_transient) error is re-issued under
    /// bounded exponential backoff with deterministic jitter — up to
    /// `RPC_RETRY_LIMIT` retries within an `RPC_DEADLINE` wall-clock
    /// budget. Re-issuing goes through the transport afresh (a new
    /// envelope sequence and correlation id, reconnecting first if the
    /// connection died), which is exactly what makes retrying sound for
    /// the pure reads `fetchV` / `verifyE` / `checkR`. Non-idempotent
    /// requests (`shareR`, `DeliverRows`) and terminal errors are returned
    /// on first failure; the caller escalates to its fault policy. The
    /// backoff jitter mixes in this context's [`QueryId`], so concurrent
    /// queries healing from the same peer fault spread their re-issues
    /// instead of retrying in lockstep.
    pub fn request(&self, to: MachineId, request: Request) -> Result<Response, TransportError> {
        if to == self.machine {
            return Ok(self.local_daemon.handle(self.machine, self.envelope(request)));
        }
        if !Envelope::is_idempotent(&request) {
            return self.transport.request(to, self.envelope(request));
        }
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.transport.request(to, self.envelope(request.clone())) {
                Ok(response) => return Ok(response),
                Err(error) => {
                    let budget_left = attempt < RPC_RETRY_LIMIT
                        && started.elapsed() < RPC_DEADLINE;
                    if !error.is_transient() || !budget_left {
                        return Err(error);
                    }
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    if rads_obs::metrics_enabled() {
                        rads_obs::Registry::global().counter("rads_rpc_retries_total").add(1);
                    }
                    std::thread::sleep(backoff_delay(self.machine, to, self.query, attempt));
                }
            }
        }
    }

    /// Number of transparent RPC retries this machine's context performed
    /// (across all clones sharing it).
    pub fn rpc_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Split-phase variant of [`request`](Self::request): sends `request` to
    /// machine `to` immediately and returns a [`PendingResponse`] to redeem
    /// later, letting the caller scatter many requests before harvesting any
    /// response. A request addressed to the local machine is served inline
    /// (already complete when the handle is returned) and stays free.
    pub fn request_async(&self, to: MachineId, request: Request) -> PendingResponse {
        if to == self.machine {
            let response = self.local_daemon.handle(self.machine, self.envelope(request));
            return PendingResponse::ready(to, self.query, response);
        }
        self.transport.request_async(to, self.envelope(request))
    }

    /// Redeems `pending`; if it failed transiently and `request` is
    /// idempotent, falls back to a synchronous re-issue through
    /// [`request`](Self::request) (which applies the retry/backoff policy).
    /// This is how scatter/harvest call sites heal individual failed
    /// handles without rebuilding the whole scatter.
    pub fn harvest(
        &self,
        pending: PendingResponse,
        to: MachineId,
        request: &Request,
    ) -> Result<Response, TransportError> {
        match pending.wait() {
            Ok(response) => Ok(response),
            Err(error) if error.is_transient() && Envelope::is_idempotent(request) => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                if rads_obs::metrics_enabled() {
                    rads_obs::Registry::global().counter("rads_rpc_retries_total").add(1);
                }
                self.request(to, request.clone())
            }
            Err(error) => Err(error),
        }
    }

    /// Replaces the transport with `wrap(transport)` — the hook the
    /// fault-injection tests use to interpose a
    /// [`FaultTransport`](crate::fault::FaultTransport) between the engine
    /// and the real fabric. Local requests still bypass the wrapper (they
    /// never were transport traffic).
    pub fn wrap_transport<F>(&mut self, wrap: F)
    where
        F: FnOnce(Arc<dyn Transport>) -> Arc<dyn Transport>,
    {
        self.transport = wrap(self.transport.clone());
    }

    /// Sends `request` to every *other* machine and collects the responses.
    /// Stops at the first machine whose request fails past the retry policy.
    pub fn broadcast(&self, request: Request) -> Result<Vec<(MachineId, Response)>, TransportError> {
        (0..self.machines())
            .filter(|&m| m != self.machine)
            .map(|m| self.request(m, request.clone()).map(|r| (m, r)))
            .collect()
    }

    /// Scatter-phase [`broadcast`](Self::broadcast): sends `request` to
    /// every other machine *before* harvesting any response, so the peers
    /// serve concurrently and one round trip's latency covers all of them
    /// instead of accumulating per peer. Responses are harvested in machine
    /// order — the result is element-for-element identical to
    /// [`broadcast`](Self::broadcast), only the pacing differs; a handle
    /// that failed transiently is healed by the same synchronous re-issue
    /// (the request is idempotent whenever this is used for polling). The
    /// async round driver polls `checkR` through this.
    pub fn broadcast_scatter(
        &self,
        request: Request,
    ) -> Result<Vec<(MachineId, Response)>, TransportError> {
        let pending: Vec<(MachineId, PendingResponse)> = (0..self.machines())
            .filter(|&m| m != self.machine)
            .map(|m| (m, self.request_async(m, request.clone())))
            .collect();
        pending
            .into_iter()
            .map(|(m, p)| self.harvest(p, m, &request).map(|r| (m, r)))
            .collect()
    }

    /// Waits until every machine has reached the barrier (synchronous
    /// supersteps for the baselines; RADS never calls this in its main
    /// path). On the socket transport the wait is bounded by
    /// `RADS_BARRIER_TIMEOUT_SECS`; the error names the epoch and exactly
    /// which machines never arrived.
    pub fn barrier(&self) -> Result<(), TransportError> {
        self.transport.barrier()
    }

    /// Sends intermediate-result rows to `to` under `tag` (shuffle primitive).
    pub fn send_rows(
        &self,
        to: MachineId,
        tag: u32,
        rows: Vec<Vec<VertexId>>,
    ) -> Result<(), TransportError> {
        self.transport.send_rows(to, tag, rows)
    }

    /// Drains the rows addressed to this machine under `tag`.
    pub fn take_rows(&self, tag: u32) -> Vec<Vec<VertexId>> {
        self.transport.take_rows(tag)
    }

    /// Current traffic snapshot of the cluster (this process's machines).
    pub fn traffic(&self) -> TrafficSnapshot {
        self.transport.traffic()
    }
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// The value returned by each machine's engine, indexed by machine id.
    pub results: Vec<R>,
    /// Network traffic generated by the run.
    pub traffic: TrafficSnapshot,
    /// Wall-clock time of the whole run (spawn to last engine completion).
    pub elapsed: Duration,
}

/// The cluster runtime.
pub struct Cluster {
    partitioned: Arc<PartitionedGraph>,
    config: NetworkConfig,
    transport: TransportKind,
}

impl Cluster {
    /// A cluster over an already-partitioned graph. The transport comes from
    /// `RADS_TRANSPORT` (default: the in-process simulator with zero-cost
    /// network accounting).
    pub fn new(partitioned: Arc<PartitionedGraph>) -> Self {
        // Library-level backstop: binaries (rads-node, the bench runners)
        // validate RADS_TRANSPORT up front and exit with the ConfigError
        // message; reaching this panic means an embedder skipped that.
        let transport = TransportKind::from_env().unwrap_or_else(|e| panic!("{e}"));
        Cluster { partitioned, config: NetworkConfig::default(), transport }
    }

    /// A cluster with an explicit *simulated* network model. Latency and
    /// bandwidth are features of the simulator, so this forces the
    /// in-process transport regardless of `RADS_TRANSPORT` — a socket
    /// transport's delays are real, not configured.
    pub fn with_network(partitioned: Arc<PartitionedGraph>, config: NetworkConfig) -> Self {
        Cluster { partitioned, config, transport: TransportKind::InProcess }
    }

    /// A cluster pinned to `transport`, ignoring `RADS_TRANSPORT`.
    pub fn with_transport(partitioned: Arc<PartitionedGraph>, transport: TransportKind) -> Self {
        Cluster { partitioned, config: NetworkConfig::default(), transport }
    }

    /// Which transport this cluster runs on.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.partitioned.num_machines()
    }

    /// The partitioned graph.
    pub fn partitioned(&self) -> &Arc<PartitionedGraph> {
        &self.partitioned
    }

    /// Runs a distributed computation with the default [`PartitionDaemon`] on
    /// every machine.
    ///
    /// # Reuse contract
    ///
    /// `run` takes `&self`: a cluster may be reused for any number of runs
    /// (a resident serve cluster runs one per query), and each run starts
    /// from a clean slate. Network statistics, retry counters, barriers and
    /// the row exchange are constructed *inside* this call, and the
    /// returned [`RunOutcome::traffic`] covers exactly this run — nothing
    /// leaks from one invocation into the next. Only the dataset, the
    /// transport choice (both snapshotted at [`Cluster::new`]) and
    /// process-global observability state (the [`rads_obs`] registry, which
    /// is cumulative by design) outlive a run.
    pub fn run<R, F>(&self, engine: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&MachineContext) -> R + Send + Sync,
    {
        let daemons: Vec<Arc<dyn Daemon>> = (0..self.machines())
            .map(|m| Arc::new(PartitionDaemon::new(self.partitioned.clone(), m)) as Arc<dyn Daemon>)
            .collect();
        self.run_with_daemons(daemons, engine)
    }

    /// Runs a distributed computation with user-provided daemons (one per
    /// machine). The engine closure is invoked once per machine, on its own
    /// thread, with that machine's [`MachineContext`]. The reuse contract
    /// of [`Cluster::run`] applies: per-run state is fresh every call.
    pub fn run_with_daemons<R, F>(&self, daemons: Vec<Arc<dyn Daemon>>, engine: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&MachineContext) -> R + Send + Sync,
    {
        assert_eq!(daemons.len(), self.machines(), "one daemon per machine is required");
        match self.transport.effective() {
            TransportKind::InProcess => self.run_channel(daemons, engine),
            kind => self.run_socket(kind, daemons, engine),
        }
    }

    /// The in-process path: daemon threads behind channels.
    fn run_channel<R, F>(&self, daemons: Vec<Arc<dyn Daemon>>, engine: F) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&MachineContext) -> R + Send + Sync,
    {
        let machines = self.machines();
        let stats = Arc::new(NetworkStats::new(machines));
        let exchange = Arc::new(crate::exchange::RowExchange::new(machines));
        let barrier = Arc::new(Barrier::new(machines));
        // Engine threads are spawned one after another; without this gate a
        // machine could begin — and, on a small share, finish — its run
        // before a peer's thread exists. Machines of a real cluster start a
        // query together.
        let start_gate = std::sync::Barrier::new(machines);

        let mut daemon_channels = Vec::with_capacity(machines);
        let mut senders = Vec::with_capacity(machines);
        for _ in 0..machines {
            let (tx, rx) = unbounded::<ChannelRpc>();
            senders.push(tx);
            daemon_channels.push(rx);
        }

        let start = Instant::now();
        let mut results: Vec<Option<R>> = (0..machines).map(|_| None).collect();

        std::thread::scope(|scope| {
            // Daemon threads: serve requests until every sender is dropped.
            for (m, rx) in daemon_channels.into_iter().enumerate() {
                let daemon = daemons[m].clone();
                std::thread::Builder::new()
                    .name(format!("rads-daemon-m{m}"))
                    .spawn_scoped(scope, move || {
                        while let Ok(rpc) = rx.recv() {
                            let response = daemon.handle(rpc.from, rpc.envelope);
                            // The requester may have given up (engine
                            // finished); ignore a closed reply channel.
                            let _ = rpc.reply.send(response);
                        }
                    })
                    .expect("spawn daemon thread");
            }

            // Engine threads, released together by the start gate.
            let mut handles = Vec::with_capacity(machines);
            for (m, daemon) in daemons.iter().enumerate() {
                let transport: Arc<dyn Transport> = Arc::new(ChannelTransport::new(
                    m,
                    senders.clone(),
                    stats.clone(),
                    exchange.clone(),
                    barrier.clone(),
                    self.config,
                ));
                let ctx = MachineContext {
                    machine: m,
                    partitioned: self.partitioned.clone(),
                    transport,
                    local_daemon: daemon.clone(),
                    query: QueryId::SOLO,
                    seq: Arc::new(AtomicU64::new(0)),
                    retries: Arc::new(AtomicU64::new(0)),
                };
                let engine = &engine;
                let start_gate = &start_gate;
                let handle = std::thread::Builder::new()
                    .name(format!("rads-engine-m{m}"))
                    .spawn_scoped(scope, move || {
                        let ctx = ctx; // move into the thread
                        start_gate.wait();
                        engine(&ctx)
                    })
                    .expect("spawn engine thread");
                handles.push(handle);
            }
            for (m, handle) in handles.into_iter().enumerate() {
                results[m] = Some(join_engine(m, handle));
            }
            // All engines are done: drop the request senders so the daemon
            // threads observe channel closure and exit before the scope ends.
            drop(senders);
        });

        RunOutcome {
            results: results.into_iter().map(|r| r.expect("every engine ran")).collect(),
            traffic: stats.snapshot(),
            elapsed: start.elapsed(),
        }
    }

    /// The socket path: every machine is a [`SocketNode`] of this process.
    /// All listeners are bound before any engine starts (no connect races),
    /// and the drain is two-phase across all nodes (see
    /// [`SocketNode::begin_shutdown`]).
    fn run_socket<R, F>(
        &self,
        kind: TransportKind,
        daemons: Vec<Arc<dyn Daemon>>,
        engine: F,
    ) -> RunOutcome<R>
    where
        R: Send,
        F: Fn(&MachineContext) -> R + Send + Sync,
    {
        let machines = self.machines();
        let stats = Arc::new(NetworkStats::new(machines));

        // Bind every listener first and collect the real addresses.
        let scratch = (kind == TransportKind::Uds).then(scratch_socket_dir);
        let mut listeners = Vec::with_capacity(machines);
        let mut addrs = Vec::with_capacity(machines);
        for m in 0..machines {
            let requested = match (&scratch, kind) {
                (Some(dir), _) => PeerAddr::Uds(dir.join(format!("m{m}.sock"))),
                (None, _) => PeerAddr::Tcp("127.0.0.1:0".to_string()),
            };
            let listener = SocketListener::bind(&requested)
                .unwrap_or_else(|e| panic!("machine {m}: cannot bind {requested}: {e}"));
            addrs.push(listener.local_addr().expect("listener has an address"));
            listeners.push(listener);
        }

        let nodes: Vec<SocketNode> = listeners
            .into_iter()
            .enumerate()
            .map(|(m, listener)| {
                SocketNode::start_with_listener(
                    m,
                    addrs.clone(),
                    listener,
                    daemons[m].clone(),
                    stats.clone(),
                )
            })
            .collect();

        let start = Instant::now();
        let mut results: Vec<Option<R>> = (0..machines).map(|_| None).collect();
        // The engine scope is unwind-guarded: a panicking engine must not
        // leak the nodes' acceptor/handler/reader threads (they outlive the
        // scope) or the scratch socket directory — drain first, re-panic
        // after.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(machines);
                for (m, node) in nodes.iter().enumerate() {
                    let ctx = MachineContext {
                        machine: m,
                        partitioned: self.partitioned.clone(),
                        transport: node.transport(),
                        local_daemon: daemons[m].clone(),
                        query: QueryId::SOLO,
                        seq: Arc::new(AtomicU64::new(0)),
                        retries: Arc::new(AtomicU64::new(0)),
                    };
                    let engine = &engine;
                    let handle = std::thread::Builder::new()
                        .name(format!("rads-engine-m{m}"))
                        .spawn_scoped(scope, move || {
                            let ctx = ctx;
                            engine(&ctx)
                        })
                        .expect("spawn engine thread");
                    handles.push(handle);
                }
                for (m, handle) in handles.into_iter().enumerate() {
                    results[m] = Some(join_engine(m, handle));
                }
            });
        }));
        let elapsed = start.elapsed();

        // Two-phase drain: close every node's client connections before any
        // node waits for its handler threads.
        for node in &nodes {
            node.begin_shutdown();
        }
        for node in nodes {
            node.finish_shutdown();
        }
        if let Some(dir) = scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
        if let Err(payload) = run {
            std::panic::resume_unwind(payload);
        }

        RunOutcome {
            results: results.into_iter().map(|r| r.expect("every engine ran")).collect(),
            traffic: stats.snapshot(),
            elapsed,
        }
    }
}

/// Joins an engine thread, tagging any panic with the machine id so a
/// multi-machine failure names its machine instead of surfacing as a
/// generic join error.
fn join_engine<'scope, R>(
    machine: usize,
    handle: std::thread::ScopedJoinHandle<'scope, R>,
) -> R {
    handle.join().unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        panic!("machine {machine} engine panicked: {message}");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::generators::ring_lattice;
    use rads_partition::{BfsPartitioner, Partitioner};

    fn small_cluster(machines: usize) -> Cluster {
        let g = ring_lattice(24, 1);
        let partitioning = BfsPartitioner.partition(&g, machines);
        Cluster::new(Arc::new(PartitionedGraph::build(&g, partitioning)))
    }

    #[test]
    fn engines_run_on_every_machine() {
        let cluster = small_cluster(4);
        let outcome = cluster.run(|ctx| ctx.machine());
        assert_eq!(outcome.results, vec![0, 1, 2, 3]);
        assert_eq!(outcome.traffic.messages, 0);
    }

    #[test]
    fn remote_fetch_returns_adjacency_and_counts_traffic() {
        let cluster = small_cluster(2);
        let outcome = cluster.run(|ctx| {
            if ctx.machine() == 0 {
                // fetch a vertex owned by machine 1
                let foreign = ctx
                    .ownership()
                    .owned_vertices(1)
                    .first()
                    .copied()
                    .expect("machine 1 owns vertices");
                let response = ctx.request(1, Request::FetchVertices(vec![foreign])).expect("rpc");
                match response {
                    Response::Adjacency(lists) => lists[0].1.len(),
                    other => panic!("unexpected response {other:?}"),
                }
            } else {
                0
            }
        });
        assert_eq!(outcome.results[0], 4); // ring_lattice(24, 1) is 4-regular
        assert!(outcome.traffic.messages >= 1);
        assert!(outcome.traffic.total_bytes > 0);
    }

    #[test]
    fn local_requests_are_free() {
        let cluster = small_cluster(2);
        let outcome = cluster.run(|ctx| {
            let own = ctx.partition().owned_vertices()[0];
            let response = ctx.request(ctx.machine(), Request::FetchVertices(vec![own])).expect("local");
            matches!(response, Response::Adjacency(_))
        });
        assert!(outcome.results.iter().all(|&ok| ok));
        assert_eq!(outcome.traffic.messages, 0);
        assert_eq!(outcome.traffic.total_bytes, 0);
    }

    #[test]
    fn verify_edges_across_machines() {
        let g = ring_lattice(12, 0); // simple cycle 0-1-...-11-0
        let partitioning = BfsPartitioner.partition(&g, 3);
        let cluster = Cluster::new(Arc::new(PartitionedGraph::build(&g, partitioning)));
        let outcome = cluster.run(|ctx| {
            if ctx.machine() != 0 {
                return (true, true);
            }
            // edge (0,1) exists; (0,2) does not; ask a machine that owns 0 or 1
            let owner = ctx.ownership().owner(1);
            let resp = ctx.request(owner, Request::VerifyEdges(vec![(0, 1), (0, 2)])).expect("rpc");
            match resp {
                Response::EdgeVerification(v) => (v[0], !v[1]),
                other => panic!("unexpected {other:?}"),
            }
        });
        assert!(outcome.results.iter().all(|&(a, b)| a && b));
    }

    #[test]
    fn broadcast_reaches_all_other_machines() {
        let cluster = small_cluster(4);
        let outcome = cluster.run(|ctx| ctx.broadcast(Request::CheckRegionGroups).expect("broadcast").len());
        assert!(outcome.results.iter().all(|&n| n == 3));
        // every machine sent 3 requests
        assert_eq!(outcome.traffic.messages, 12);
    }

    #[test]
    fn unsupported_requests_get_unsupported_response() {
        let cluster = small_cluster(2);
        let outcome = cluster.run(|ctx| {
            if ctx.machine() == 0 {
                matches!(ctx.request(1, Request::ShareRegionGroup).expect("rpc"), Response::Unsupported)
            } else {
                true
            }
        });
        assert!(outcome.results.iter().all(|&ok| ok));
    }

    #[test]
    fn barrier_and_row_exchange_synchronize_supersteps() {
        let cluster = small_cluster(3);
        let outcome = cluster.run(|ctx| {
            // superstep 1: everyone sends one row to machine (m+1) % 3
            let target = (ctx.machine() + 1) % ctx.machines();
            ctx.send_rows(target, 1, vec![vec![ctx.machine() as u32]]).expect("send");
            ctx.barrier().expect("barrier");
            // superstep 2: read what arrived
            let rows = ctx.take_rows(1);
            rows.len()
        });
        assert_eq!(outcome.results, vec![1, 1, 1]);
        assert!(outcome.traffic.total_bytes > 0);
    }

    #[test]
    fn custom_daemons_can_serve_shared_state() {
        struct CountingDaemon {
            base: PartitionDaemon,
            counter: std::sync::atomic::AtomicUsize,
        }
        impl Daemon for CountingDaemon {
            fn handle(&self, from: MachineId, envelope: Envelope) -> Response {
                if matches!(envelope.body, Request::CheckRegionGroups) {
                    let n = self.counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    return Response::RegionGroupCount(n);
                }
                self.base.handle(from, envelope)
            }
        }
        let cluster = small_cluster(2);
        let daemons: Vec<Arc<dyn Daemon>> = (0..2)
            .map(|m| {
                Arc::new(CountingDaemon {
                    base: PartitionDaemon::new(cluster.partitioned().clone(), m),
                    counter: std::sync::atomic::AtomicUsize::new(10 * m),
                }) as Arc<dyn Daemon>
            })
            .collect();
        let outcome = cluster.run_with_daemons(daemons, |ctx| {
            let peer = 1 - ctx.machine();
            match ctx.request(peer, Request::CheckRegionGroups).expect("rpc") {
                Response::RegionGroupCount(n) => n,
                other => panic!("unexpected {other:?}"),
            }
        });
        // machine 0 asked machine 1 (counter starts at 10), and vice versa
        assert_eq!(outcome.results.iter().copied().collect::<std::collections::HashSet<_>>(),
                   [0usize, 10].into_iter().collect());
    }

    #[test]
    fn intra_machine_worker_threads_can_share_the_context() {
        // Four worker threads per machine fire remote requests concurrently
        // through the same (shared or cloned) context; every reply must reach
        // the thread that asked, and the atomic traffic accounting must see
        // every message exactly once.
        let cluster = small_cluster(2);
        let outcome = cluster.run(|ctx| {
            let peer = 1 - ctx.machine();
            let foreign = ctx.ownership().owned_vertices(peer).to_vec();
            let fetch_all = |ctx: &MachineContext| {
                let mut degree_sum = 0;
                for &v in &foreign {
                    match ctx.request(peer, Request::FetchVertices(vec![v])).expect("rpc") {
                        Response::Adjacency(lists) => degree_sum += lists[0].1.len(),
                        other => panic!("unexpected {other:?}"),
                    }
                }
                degree_sum
            };
            let per_worker: Vec<usize> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|w| {
                        let fetch_all = &fetch_all;
                        // even workers share the engine's context by
                        // reference, odd workers carry their own clone
                        let owned = (w % 2 == 1).then(|| ctx.clone());
                        scope.spawn(move || fetch_all(owned.as_ref().unwrap_or(ctx)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // all workers fetched the same vertices, so they agree
            assert!(per_worker.windows(2).all(|w| w[0] == w[1]));
            (per_worker[0], foreign.len())
        });
        let (sum0, n0) = outcome.results[0];
        assert!(sum0 > 0 && n0 > 0);
        // 2 machines x 4 workers x |foreign| single-vertex requests
        let expected_messages: u64 = outcome
            .results
            .iter()
            .map(|&(_, n)| 4 * n as u64)
            .sum();
        assert_eq!(outcome.traffic.messages, expected_messages);
    }

    #[test]
    fn elapsed_time_is_reported() {
        let cluster = small_cluster(2);
        let outcome = cluster.run(|_| std::thread::sleep(Duration::from_millis(5)));
        assert!(outcome.elapsed >= Duration::from_millis(5));
    }

    #[test]
    fn latency_model_slows_remote_requests() {
        let g = ring_lattice(12, 0);
        let partitioning = BfsPartitioner.partition(&g, 2);
        let pg = Arc::new(PartitionedGraph::build(&g, partitioning));
        let config = NetworkConfig {
            latency_per_message: Duration::from_millis(2),
            bytes_per_second: None,
        };
        // the latency model is a simulator feature: with_network pins the
        // in-process transport no matter what RADS_TRANSPORT says
        let cluster = Cluster::with_network(pg, config);
        assert_eq!(cluster.transport_kind(), TransportKind::InProcess);
        let outcome = cluster.run(|ctx| {
            if ctx.machine() == 0 {
                for _ in 0..5 {
                    ctx.request(1, Request::CheckRegionGroups).expect("rpc");
                }
            }
        });
        // 5 round trips x 2 messages x 2ms latency each = at least 20ms
        assert!(outcome.elapsed >= Duration::from_millis(20));
    }

    #[test]
    fn engine_panics_are_tagged_with_the_machine_id() {
        let cluster = small_cluster(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                if ctx.machine() == 2 {
                    panic!("engine exploded on purpose");
                }
            })
        }));
        let payload = result.expect_err("the run must propagate the panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("tagged panics carry a String payload");
        assert!(message.contains("machine 2"), "panic message lost the machine id: {message}");
        assert!(
            message.contains("engine exploded on purpose"),
            "panic message lost the original cause: {message}"
        );
    }

    /// Runs the same engine on every transport and asserts the per-machine
    /// results agree — the core transport-equivalence property the whole
    /// test suite relies on when `RADS_TRANSPORT` points it at sockets.
    fn assert_transports_agree<R, F>(machines: usize, engine: F)
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(&MachineContext) -> R + Send + Sync + Copy,
    {
        let g = ring_lattice(24, 1);
        let partitioning = BfsPartitioner.partition(&g, machines);
        let pg = Arc::new(PartitionedGraph::build(&g, partitioning));
        let kinds: &[TransportKind] = if cfg!(unix) {
            &[TransportKind::InProcess, TransportKind::Uds, TransportKind::Tcp]
        } else {
            &[TransportKind::InProcess, TransportKind::Tcp]
        };
        let mut baseline: Option<Vec<R>> = None;
        for &kind in kinds {
            let cluster = Cluster::with_transport(pg.clone(), kind);
            let outcome = cluster.run(engine);
            match &baseline {
                None => baseline = Some(outcome.results),
                Some(expected) => {
                    assert_eq!(&outcome.results, expected, "transport {} deviates", kind.name())
                }
            }
        }
    }

    #[test]
    fn socket_transports_return_identical_results() {
        assert_transports_agree(3, |ctx| {
            // every machine fetches every foreign vertex and sums degrees
            let mut sum = 0usize;
            for peer in 0..ctx.machines() {
                if peer == ctx.machine() {
                    continue;
                }
                let foreign = ctx.ownership().owned_vertices(peer).to_vec();
                match ctx.request(peer, Request::FetchVertices(foreign)).expect("rpc") {
                    Response::Adjacency(lists) => {
                        sum += lists.iter().map(|(_, adj)| adj.len()).sum::<usize>()
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            sum
        });
    }

    #[test]
    fn socket_barrier_and_rows_match_channel_semantics() {
        assert_transports_agree(3, |ctx| {
            let target = (ctx.machine() + 1) % ctx.machines();
            ctx.send_rows(target, 7, vec![vec![ctx.machine() as u32, 9]]).expect("send");
            ctx.barrier().expect("barrier");
            let rows = ctx.take_rows(7);
            ctx.barrier().expect("barrier");
            rows
        });
    }

    #[test]
    fn socket_traffic_counts_real_framed_bytes() {
        use crate::wire;
        let g = ring_lattice(12, 0);
        let partitioning = BfsPartitioner.partition(&g, 2);
        let pg = Arc::new(PartitionedGraph::build(&g, partitioning));
        let kind = if cfg!(unix) { TransportKind::Uds } else { TransportKind::Tcp };
        let cluster = Cluster::with_transport(pg, kind);
        let expected_response = Response::EdgeVerification(vec![true, false]);
        let outcome = cluster.run(|ctx| {
            if ctx.machine() == 0 {
                // an edge query machine 1 can answer: ring edges are
                // (v, v+1 mod 12); (v, v+3 mod 12) never exists
                let v = ctx.ownership().owned_vertices(1)[0];
                ctx.request(1, Request::VerifyEdges(vec![(v, (v + 1) % 12), (v, (v + 3) % 12)]))
                    .expect("rpc")
            } else {
                Response::Ack
            }
        });
        assert_eq!(outcome.results[0], expected_response);
        // exactly one remote request: its frame + the response frame + the
        // one-off handshake frame are the only bytes on the wire (frame
        // sizes depend only on the pair count, not the vertex values or the
        // envelope's query/seq — both are fixed-width fields)
        let mut req_payload = Vec::new();
        wire::encode_envelope(
            &Envelope::solo(Request::VerifyEdges(vec![(0, 1), (0, 2)])),
            &mut req_payload,
        );
        let mut resp_payload = Vec::new();
        wire::encode_response(&expected_response, &mut resp_payload);
        let expected_bytes = wire::frame_bytes(req_payload.len())
            + wire::frame_bytes(resp_payload.len())
            + wire::frame_bytes(4); // Hello
        assert_eq!(outcome.traffic.messages, 1);
        assert_eq!(outcome.traffic.total_bytes, expected_bytes as u64);
    }

    // -----------------------------------------------------------------------
    // The retry policy: bounded, idempotent-only, jittered backoff.
    // -----------------------------------------------------------------------

    /// A transport whose peer answers with a connection reset for the first
    /// `fail_first` requests, then serves normally; counts every attempt it
    /// sees, so tests can pin exactly how often the retry layer re-issued.
    struct FlakyTransport {
        fail_first: u64,
        attempts: AtomicU64,
    }

    impl Transport for FlakyTransport {
        fn machine(&self) -> MachineId {
            0
        }
        fn machines(&self) -> usize {
            2
        }
        fn request(&self, to: MachineId, envelope: Envelope) -> Result<Response, TransportError> {
            let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
            if attempt < self.fail_first {
                return Err(TransportError::Reset {
                    machine: 0,
                    to,
                    detail: format!("flaky link, attempt {attempt}"),
                });
            }
            match envelope.body {
                Request::CheckRegionGroups => Ok(Response::RegionGroupCount(7)),
                Request::ShareRegionGroup => Ok(Response::RegionGroups(Vec::new())),
                other => panic!("flaky stub only serves checkR/shareR, got {other:?}"),
            }
        }
        fn barrier(&self) -> Result<(), TransportError> {
            Ok(())
        }
        fn send_rows(
            &self,
            _to: MachineId,
            _tag: u32,
            _rows: Vec<Vec<VertexId>>,
        ) -> Result<(), TransportError> {
            Ok(())
        }
        fn take_rows(&self, _tag: u32) -> Vec<Vec<VertexId>> {
            Vec::new()
        }
        fn traffic(&self) -> TrafficSnapshot {
            TrafficSnapshot::default()
        }
    }

    fn flaky_context(fail_first: u64) -> (MachineContext, Arc<FlakyTransport>) {
        let g = ring_lattice(8, 1);
        let partitioning = BfsPartitioner.partition(&g, 2);
        let pg = Arc::new(PartitionedGraph::build(&g, partitioning));
        let transport =
            Arc::new(FlakyTransport { fail_first, attempts: AtomicU64::new(0) });
        let daemon = Arc::new(PartitionDaemon::new(pg.clone(), 0));
        (MachineContext::assemble(pg, transport.clone(), daemon), transport)
    }

    #[test]
    fn transient_failures_of_idempotent_requests_retry_until_success() {
        // 3 resets fit inside the 4-retry budget: the caller never sees them.
        let (ctx, transport) = flaky_context(3);
        let response = ctx.request(1, Request::CheckRegionGroups).expect("healed by retries");
        assert_eq!(response, Response::RegionGroupCount(7));
        assert_eq!(transport.attempts.load(Ordering::Relaxed), 4, "3 failures + 1 success");
        assert_eq!(ctx.rpc_retries(), 3);
    }

    #[test]
    fn retry_budget_is_bounded_and_the_typed_error_survives() {
        // A permanently dead link: exactly RPC_RETRY_LIMIT re-issues, then
        // the typed transient error is returned — never an infinite loop.
        let (ctx, transport) = flaky_context(u64::MAX);
        let error = ctx.request(1, Request::CheckRegionGroups).expect_err("link never heals");
        assert!(matches!(error, TransportError::Reset { to: 1, .. }), "{error}");
        assert_eq!(
            transport.attempts.load(Ordering::Relaxed),
            1 + RPC_RETRY_LIMIT as u64,
            "first attempt plus the full retry budget"
        );
        assert_eq!(ctx.rpc_retries(), RPC_RETRY_LIMIT as u64);
    }

    #[test]
    fn non_idempotent_requests_are_never_retried() {
        // shareR hands over a region group — re-issuing it could duplicate
        // work, so one transient failure must surface immediately.
        let (ctx, transport) = flaky_context(1);
        let error = ctx.request(1, Request::ShareRegionGroup).expect_err("no retry allowed");
        assert!(error.is_transient(), "still typed as transient for the caller: {error}");
        assert_eq!(transport.attempts.load(Ordering::Relaxed), 1, "exactly one attempt");
        assert_eq!(ctx.rpc_retries(), 0);
    }

    #[test]
    fn harvest_heals_a_failed_async_handle_by_reissuing() {
        let (ctx, transport) = flaky_context(1);
        let request = Request::CheckRegionGroups;
        // the default async path fails immediately with the reset...
        let pending = ctx.request_async(1, request.clone());
        // ...and harvest's synchronous re-issue gets through.
        let response = ctx.harvest(pending, 1, &request).expect("healed");
        assert_eq!(response, Response::RegionGroupCount(7));
        assert_eq!(transport.attempts.load(Ordering::Relaxed), 2);
        assert!(ctx.rpc_retries() >= 1, "the heal is counted as a retry");
    }

    #[test]
    fn backoff_delays_are_jittered_within_the_exponential_envelope() {
        for attempt in 1..=10u32 {
            let shift = (attempt - 1).min(16);
            let step = RPC_BACKOFF_BASE.saturating_mul(1 << shift).min(RPC_BACKOFF_CAP);
            let delay = backoff_delay(3, 1, QueryId::SOLO, attempt);
            assert!(
                delay >= step / 2 && delay <= step,
                "attempt {attempt}: {delay:?} outside [{:?}, {step:?}]",
                step / 2
            );
            // deterministic: the same (machine, peer, query, attempt) tuple
            // always draws the same jitter, so failures reproduce exactly
            assert_eq!(delay, backoff_delay(3, 1, QueryId::SOLO, attempt));
        }
        // different machines de-synchronize: not every delay can coincide
        let all_equal = (0..8)
            .map(|m| backoff_delay(m, 1, QueryId::SOLO, 4))
            .all(|d| d == backoff_delay(0, 1, QueryId::SOLO, 4));
        assert!(!all_equal, "jitter must separate machines hammering one peer");
        // and so do different queries retrying through the same machine pair
        let all_equal = (0..8)
            .map(|q| backoff_delay(3, 1, QueryId(q), 4))
            .all(|d| d == backoff_delay(3, 1, QueryId(0), 4));
        assert!(!all_equal, "jitter must separate concurrent queries too");
    }
}
