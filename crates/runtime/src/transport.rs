//! The transport abstraction and its two implementations.
//!
//! [`Transport`] is the seam between the engines and the cluster fabric:
//! everything a [`crate::MachineContext`] does that crosses a machine
//! boundary — request/response RPC, the superstep barrier, the row shuffle
//! and traffic accounting — goes through this trait. Two implementations
//! exist:
//!
//! * [`ChannelTransport`] — the original in-process simulator: crossbeam
//!   channels between threads, *modelled* byte accounting
//!   ([`Envelope::request_bytes`]) and an optional latency/bandwidth
//!   model that sleeps per exchange.
//! * [`SocketTransport`] — real length-prefixed binary frames
//!   ([`crate::wire`]) over TCP or Unix-domain sockets, one lazily-created
//!   connection per peer with correlation-id pipelining (several engine
//!   workers share one connection and requests overlap), and *real* byte
//!   accounting: the traffic counters report exactly the framed bytes put on
//!   the wire, headers included.
//!
//! Both carry query-scoped [`Envelope`]s: every request names the
//! [`QueryId`] it serves, responses echo it (the socket reader verifies the
//! echo against the pending slot's recorded query), and per-query control
//! traffic (result frames) is collected per query — which is what lets a
//! resident serve cluster interleave several queries' RPC on one fabric.
//!
//! # Contract
//!
//! Implementations must uphold what the engines assume:
//!
//! * **`request` is blocking RPC.** It returns the daemon's response to this
//!   request, however many requests other threads of the same machine have
//!   in flight (the socket transport matches responses by correlation id;
//!   the channel transport by per-call reply channels). Requests from one
//!   machine to one peer may be answered in any order relative to other
//!   threads' requests — engines never assume cross-thread ordering.
//! * **`request_async` is split-phase RPC.** It puts the request on the
//!   wire (or in the daemon's queue) before returning and hands back a
//!   [`PendingResponse`] redeemed later with
//!   [`wait`](PendingResponse::wait); a caller may scatter any number of
//!   requests to any mix of peers before harvesting, and may harvest in any
//!   order — each handle always resolves to the response of *its own*
//!   request (never a sibling's), no matter how the peer interleaves or the
//!   network reorders the replies. `request(to, r)` is semantically
//!   `request_async(to, r).wait()`; the channel transport additionally
//!   starts the simulated transfer clock at issue time, so scattered
//!   requests overlap their modelled latency exactly like pipelined frames
//!   overlap on a real socket.
//! * **`barrier` synchronizes machines, not threads.** Exactly one thread
//!   per machine may enter it, every machine must enter it the same number
//!   of times, and it returns only after all machines entered the same
//!   epoch. The socket transport implements it as an all-to-all
//!   notification (one `Barrier` frame to every peer, then wait for the
//!   matching epoch from every peer).
//! * **`send_rows` delivers before it returns.** After `send_rows(to, ..)`
//!   returns, a `take_rows` on machine `to` that starts after a subsequent
//!   barrier observes the rows (the socket transport sends a `DeliverRows`
//!   request and waits for the acknowledgement).
//! * **Local work is free.** Requests addressed to the sending machine are
//!   short-cut by [`crate::MachineContext`] before the transport is
//!   reached; self-addressed `send_rows` *do* reach the transport, and
//!   every implementation must deliver them into its own inbox without
//!   charging traffic (the shuffle baselines self-send routinely).
//! * **Byte accounting.** `traffic` reports, per machine, the bytes that
//!   machine originated (its requests, the responses its daemon served,
//!   and its one-way control frames). Control traffic is accounted in
//!   *bytes* on both transports — the socket transport charges the real
//!   framed bytes of its handshake/barrier/result/shutdown/metrics frames,
//!   and the channel transport charges the modelled frame size of the
//!   barrier notifications it would have sent (the only control frames an
//!   in-process cluster needs) — surfaced separately as
//!   [`TrafficSnapshot::control_bytes`](crate::TrafficSnapshot). Control
//!   frames never count as messages: `messages` stays "number of remote
//!   requests" on both transports, so traffic shapes are comparable.
//!
//! A multi-process cluster runs one [`SocketNode`] per OS process (see the
//! `rads-node` binary); a single-process cluster can also run every machine
//! over sockets ([`crate::Cluster`] with [`TransportKind::Uds`] /
//! [`TransportKind::Tcp`], e.g. via `RADS_TRANSPORT=uds`), which exercises
//! the identical wire path with the engines as threads.
//!
//! # Failure surface
//!
//! Every fabric-crossing operation returns
//! `Result<_, `[`TransportError`]`>` instead of aborting: a dead daemon, a
//! reset or undecodable connection, an unreachable peer and a timed-out
//! barrier all surface as typed values the caller can act on (see
//! [`crate::error`] for the variant-by-variant recovery table). The socket
//! fabric additionally *reconnects on reset*: when a peer connection's
//! reader thread exits (EOF or decode failure), the next
//! `NodeShared::try_peer` call discards the dead client and dials a fresh
//! connection with a fresh correlation-id space, so a retried idempotent
//! request transparently heals the link. Distributed barriers attribute
//! every arrival to its sending machine (the connection handshake names the
//! sender) and give up after [`BARRIER_TIMEOUT_ENV`] seconds with a
//! [`TransportError::BarrierTimeout`] naming the epoch and exactly which
//! machines never arrived — a silent condvar hang names nobody.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier as ThreadBarrier, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;

use rads_graph::VertexId;
use rads_partition::MachineId;

use crate::cluster::Daemon;
use crate::error::{ConfigError, TransportError};
use crate::exchange::RowExchange;
use crate::message::{response_bytes, Envelope, QueryId, Request, Response};
use crate::network::{NetworkConfig, NetworkStats, TrafficSnapshot};
use crate::wire::{
    decode_envelope, decode_response, encode_envelope, encode_response, frame_bytes, read_message,
    write_frame, write_message, FrameKind, WireError,
};

/// Trace span name for an in-flight RPC (the `rpc.<request>` naming
/// convention of [`rads_obs::trace`]).
fn rpc_span_name(request: &Request) -> &'static str {
    match request {
        Request::VerifyEdges(_) => "rpc.verifyE",
        Request::FetchVertices(_) => "rpc.fetchV",
        Request::CheckRegionGroups => "rpc.checkR",
        Request::ShareRegionGroup => "rpc.shareR",
        Request::DeliverRows { .. } => "rpc.rows",
        Request::Query { .. } => "rpc.query",
    }
}

/// Histogram of framed message sizes put on (or served onto) the wire.
fn frame_bytes_histogram() -> &'static rads_obs::Histogram {
    static HISTOGRAM: std::sync::OnceLock<rads_obs::Histogram> = std::sync::OnceLock::new();
    HISTOGRAM.get_or_init(|| {
        rads_obs::Registry::global()
            .histogram("rads_net_frame_bytes", rads_obs::FRAME_BYTES_BUCKETS)
    })
}

/// Environment variable selecting the cluster transport (`in-process`,
/// `uds`, `tcp`); read by [`TransportKind::from_env`].
pub const TRANSPORT_ENV: &str = "RADS_TRANSPORT";

/// Environment variable bounding how long a distributed barrier waits for
/// the other machines (whole seconds) before failing with a
/// [`TransportError::BarrierTimeout`] that names the missing machines.
pub const BARRIER_TIMEOUT_ENV: &str = "RADS_BARRIER_TIMEOUT_SECS";

/// Default barrier deadline: generous enough for the slowest CI leg's
/// region-group drain between barriers, small enough that a wedged cluster
/// reports its missing machines well inside `rads-node --timeout-secs`.
const DEFAULT_BARRIER_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a lazy peer connection keeps retrying before giving up — covers
/// worker processes of a multi-process cluster that start seconds apart.
const CONNECT_RETRY_TIMEOUT: Duration = Duration::from_secs(30);

/// The barrier deadline from [`BARRIER_TIMEOUT_ENV`] (default
/// `DEFAULT_BARRIER_TIMEOUT`); zero or malformed values are a
/// [`ConfigError`].
pub fn barrier_timeout_from_env() -> Result<Duration, ConfigError> {
    barrier_timeout_from_value(std::env::var(BARRIER_TIMEOUT_ENV).ok().as_deref())
}

/// [`barrier_timeout_from_env`] over an explicit value (testable without
/// mutating the process environment).
pub fn barrier_timeout_from_value(raw: Option<&str>) -> Result<Duration, ConfigError> {
    match raw {
        None => Ok(DEFAULT_BARRIER_TIMEOUT),
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(secs) if secs > 0 => Ok(Duration::from_secs(secs)),
            _ => Err(ConfigError {
                var: BARRIER_TIMEOUT_ENV,
                value: raw.to_string(),
                expected: "a positive whole number of seconds",
            }),
        },
    }
}

/// Which transport a [`crate::Cluster`] runs its machines over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Crossbeam channels between threads (the simulator; supports the
    /// latency/bandwidth model).
    InProcess,
    /// Unix-domain sockets (same-host real transport; unix only).
    Uds,
    /// TCP over loopback (or, for multi-process clusters, any reachable
    /// address).
    Tcp,
}

impl TransportKind {
    /// Parses `in-process` / `channel`, `uds` / `unix`, `tcp`.
    pub fn parse(raw: &str) -> Option<TransportKind> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "in-process" | "inprocess" | "channel" | "sim" => Some(TransportKind::InProcess),
            "uds" | "unix" => Some(TransportKind::Uds),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }

    /// The transport selected by the `RADS_TRANSPORT` environment variable
    /// (default: in-process). Unknown values are a typed [`ConfigError`]
    /// rather than silently simulating a cluster the caller asked to be
    /// real — and rather than the `panic!` this used to be.
    pub fn from_env() -> Result<TransportKind, ConfigError> {
        Self::from_env_value(std::env::var(TRANSPORT_ENV).ok().as_deref())
    }

    /// [`TransportKind::from_env`] over an explicit value (testable without
    /// mutating the process environment).
    pub fn from_env_value(raw: Option<&str>) -> Result<TransportKind, ConfigError> {
        match raw {
            None => Ok(TransportKind::InProcess),
            Some(raw) => TransportKind::parse(raw).ok_or(ConfigError {
                var: TRANSPORT_ENV,
                value: raw.to_string(),
                expected: "in-process | uds | tcp",
            }),
        }
    }

    /// UDS is not available off unix; fall back to loopback TCP there.
    pub fn effective(self) -> TransportKind {
        if cfg!(unix) {
            self
        } else if self == TransportKind::Uds {
            TransportKind::Tcp
        } else {
            self
        }
    }

    /// Display name (used in logs and bench records).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::InProcess => "in-process",
            TransportKind::Uds => "uds",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// A response that may not have arrived yet: the handle
/// [`Transport::request_async`] returns for a request already on the wire.
///
/// Redeem it with [`wait`](PendingResponse::wait). Handles are independent:
/// dropping one without waiting is allowed (the response is discarded when
/// it arrives), and waiting handles in any order — including the reverse of
/// issue order — always delivers each request its own response, because the
/// socket transport matches by correlation id and the channel transport by
/// per-call reply channels.
pub struct PendingResponse {
    to: MachineId,
    query: QueryId,
    correlation: Option<u64>,
    inner: PendingInner,
}

enum PendingInner {
    Ready(Result<Response, TransportError>),
    Wait(Box<dyn FnOnce() -> Result<Response, TransportError> + Send>),
}

impl PendingResponse {
    /// A handle over a response that is already available (local
    /// short-circuits and synchronous fallbacks).
    pub fn ready(to: MachineId, query: QueryId, response: Response) -> PendingResponse {
        PendingResponse { to, query, correlation: None, inner: PendingInner::Ready(Ok(response)) }
    }

    /// A handle over a request that already failed (the request never made
    /// it onto the wire); `wait` surfaces the error.
    pub fn failed(to: MachineId, query: QueryId, error: TransportError) -> PendingResponse {
        PendingResponse { to, query, correlation: None, inner: PendingInner::Ready(Err(error)) }
    }

    /// A handle whose response is produced by `wait` when redeemed.
    /// `correlation` is the wire correlation id when the transport has one
    /// (`None` on the channel simulator), surfaced purely for diagnostics.
    pub fn deferred(
        to: MachineId,
        query: QueryId,
        correlation: Option<u64>,
        wait: impl FnOnce() -> Result<Response, TransportError> + Send + 'static,
    ) -> PendingResponse {
        PendingResponse { to, query, correlation, inner: PendingInner::Wait(Box::new(wait)) }
    }

    /// The machine this request was addressed to.
    pub fn to(&self) -> MachineId {
        self.to
    }

    /// The query the request was issued for. The fault-recovery path reads
    /// it so a harvested retry is re-issued under the same query scope.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// The wire correlation id of the request, when the transport assigns
    /// one. Engine diagnostics quote it so a mis-tagged or lost response
    /// can be traced to a frame.
    pub fn correlation(&self) -> Option<u64> {
        self.correlation
    }

    /// Blocks until the response arrives and returns it — or the typed
    /// failure that prevented it (connection reset, peer dead, decode).
    pub fn wait(self) -> Result<Response, TransportError> {
        match self.inner {
            PendingInner::Ready(response) => response,
            PendingInner::Wait(wait) => wait(),
        }
    }
}

/// Everything machine-crossing a [`crate::MachineContext`] needs; see the
/// [module docs](self) for the contract.
pub trait Transport: Send + Sync {
    /// This machine's id.
    fn machine(&self) -> MachineId;
    /// Number of machines in the cluster.
    fn machines(&self) -> usize;
    /// Blocking request/response RPC to the daemon of machine `to`
    /// (`to != machine()`; local requests never reach the transport). The
    /// envelope names the query the request serves; the response is scoped
    /// to it. Fabric failures surface as a typed [`TransportError`].
    fn request(&self, to: MachineId, envelope: Envelope) -> Result<Response, TransportError>;
    /// Split-phase RPC: issues the request now, returns a handle redeemed
    /// later (see the [module docs](self)). The default implementation is
    /// the synchronous fallback — correct for any transport, overlapping
    /// nothing; both built-in transports override it with a genuinely
    /// pipelined version.
    fn request_async(&self, to: MachineId, envelope: Envelope) -> PendingResponse {
        let query = envelope.query;
        match self.request(to, envelope) {
            Ok(response) => PendingResponse::ready(to, query, response),
            Err(e) => PendingResponse::failed(to, query, e),
        }
    }
    /// Superstep barrier across all machines. Fails (naming epoch and the
    /// missing machines on the socket fabric) instead of hanging forever.
    fn barrier(&self) -> Result<(), TransportError>;
    /// Delivers rows to machine `to` under `tag` (free when `to` is this
    /// machine; empty row batches are dropped).
    fn send_rows(
        &self,
        to: MachineId,
        tag: u32,
        rows: Vec<Vec<VertexId>>,
    ) -> Result<(), TransportError>;
    /// Drains the rows delivered to this machine under `tag`.
    fn take_rows(&self, tag: u32) -> Vec<Vec<VertexId>>;
    /// Traffic counters. On a multi-process cluster each process sees its
    /// own machine's row; single-process clusters see every machine.
    fn traffic(&self) -> TrafficSnapshot;
}

// ---------------------------------------------------------------------------
// ChannelTransport — the in-process simulator
// ---------------------------------------------------------------------------

/// One in-flight RPC travelling to an in-process daemon thread: the
/// query-scoped [`Envelope`] plus the sender's identity and reply channel.
pub(crate) struct ChannelRpc {
    pub(crate) from: MachineId,
    pub(crate) envelope: Envelope,
    pub(crate) reply: Sender<Response>,
}

/// The original in-process transport: requests travel over crossbeam
/// channels to daemon threads, bytes are charged by the paper's cost model,
/// and the optional [`NetworkConfig`] latency/bandwidth model sleeps per
/// exchange.
pub struct ChannelTransport {
    machine: MachineId,
    senders: Vec<Sender<ChannelRpc>>,
    stats: Arc<NetworkStats>,
    exchange: Arc<RowExchange>,
    barrier: Arc<ThreadBarrier>,
    config: NetworkConfig,
}

impl ChannelTransport {
    pub(crate) fn new(
        machine: MachineId,
        senders: Vec<Sender<ChannelRpc>>,
        stats: Arc<NetworkStats>,
        exchange: Arc<RowExchange>,
        barrier: Arc<ThreadBarrier>,
        config: NetworkConfig,
    ) -> Self {
        ChannelTransport { machine, senders, stats, exchange, barrier, config }
    }
}

impl Transport for ChannelTransport {
    fn machine(&self) -> MachineId {
        self.machine
    }

    fn machines(&self) -> usize {
        self.senders.len()
    }

    fn request(&self, to: MachineId, envelope: Envelope) -> Result<Response, TransportError> {
        debug_assert_ne!(to, self.machine, "local requests are served inline");
        let mut rpc_span = rads_obs::async_span(rpc_span_name(&envelope.body), "rpc");
        let req_bytes = envelope.request_bytes();
        self.stats.record_request(self.machine, req_bytes);
        let (reply_tx, reply_rx) = bounded(1);
        let machine = self.machine;
        self.senders[to]
            .send(ChannelRpc { from: machine, envelope, reply: reply_tx })
            .map_err(|_| TransportError::PeerDead {
                machine,
                to,
                detail: "daemon thread exited before the request was queued".into(),
            })?;
        let response = reply_rx.recv().map_err(|_| TransportError::PeerDead {
            machine,
            to,
            detail: "daemon thread exited without replying".into(),
        })?;
        let resp_bytes = response_bytes(&response);
        self.stats.record_response(to, self.machine, resp_bytes);
        let delay = self.config.transfer_delay(req_bytes) + self.config.transfer_delay(resp_bytes);
        if delay > Duration::ZERO {
            std::thread::sleep(delay);
        }
        rpc_span.attr("to", to as u64);
        rpc_span.attr("req_bytes", req_bytes as u64);
        rpc_span.attr("resp_bytes", resp_bytes as u64);
        rpc_span.finish();
        Ok(response)
    }

    fn request_async(&self, to: MachineId, envelope: Envelope) -> PendingResponse {
        debug_assert_ne!(to, self.machine, "local requests are served inline");
        let mut rpc_span = rads_obs::async_span(rpc_span_name(&envelope.body), "rpc");
        let req_bytes = envelope.request_bytes();
        let query = envelope.query;
        rpc_span.attr("to", to as u64);
        rpc_span.attr("req_bytes", req_bytes as u64);
        self.stats.record_request(self.machine, req_bytes);
        let (reply_tx, reply_rx) = bounded(1);
        if self
            .senders[to]
            .send(ChannelRpc { from: self.machine, envelope, reply: reply_tx })
            .is_err()
        {
            return PendingResponse::failed(
                to,
                query,
                TransportError::PeerDead {
                    machine: self.machine,
                    to,
                    detail: "daemon thread exited before the request was queued".into(),
                },
            );
        }
        // The simulated transfer clock starts at issue time: a wait resolves
        // at max(daemon done, issued + modelled delay), so scattered requests
        // overlap their latency the way pipelined frames do on a real wire —
        // while the blocking `request` above keeps the serial model (full
        // delay after the exchange) the pre-async experiments were
        // calibrated against.
        let issued_at = Instant::now();
        let stats = self.stats.clone();
        let config = self.config;
        let machine = self.machine;
        PendingResponse::deferred(to, query, None, move || {
            let response = reply_rx.recv().map_err(|_| TransportError::PeerDead {
                machine,
                to,
                detail: "daemon thread exited without replying".into(),
            })?;
            let resp_bytes = response_bytes(&response);
            stats.record_response(to, machine, resp_bytes);
            let deadline = issued_at
                + config.transfer_delay(req_bytes)
                + config.transfer_delay(resp_bytes);
            let now = Instant::now();
            if deadline > now {
                std::thread::sleep(deadline - now);
            }
            let mut rpc_span = rpc_span;
            rpc_span.attr("resp_bytes", resp_bytes as u64);
            rpc_span.finish();
            Ok(response)
        })
    }

    fn barrier(&self) -> Result<(), TransportError> {
        // Mirror the socket transport's all-to-all barrier notification in
        // the modelled accounting — one Barrier frame (u64 epoch payload)
        // to every remote peer, charged as control *bytes* only — so the
        // two transports report comparable traffic shapes.
        let notification = frame_bytes(8);
        for peer in 0..self.senders.len() {
            if peer != self.machine {
                self.stats.record_control(self.machine, notification);
            }
        }
        self.barrier.wait();
        Ok(())
    }

    fn send_rows(
        &self,
        to: MachineId,
        tag: u32,
        rows: Vec<Vec<VertexId>>,
    ) -> Result<(), TransportError> {
        self.exchange.send(&self.stats, self.machine, to, tag, rows);
        Ok(())
    }

    fn take_rows(&self, tag: u32) -> Vec<Vec<VertexId>> {
        self.exchange.take(self.machine, tag)
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.stats.snapshot()
    }
}

// ---------------------------------------------------------------------------
// addresses, streams, listeners
// ---------------------------------------------------------------------------

/// A machine's listen address: `tcp:HOST:PORT` or `uds:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAddr {
    /// TCP host:port.
    Tcp(String),
    /// Unix-domain socket path (unix only).
    Uds(PathBuf),
}

impl PeerAddr {
    /// Parses `tcp:127.0.0.1:4100` or `uds:/run/rads/m0.sock`.
    pub fn parse(raw: &str) -> Result<PeerAddr, String> {
        if let Some(rest) = raw.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err(format!("empty tcp address in {raw:?}"));
            }
            Ok(PeerAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = raw.strip_prefix("uds:") {
            if rest.is_empty() {
                return Err(format!("empty socket path in {raw:?}"));
            }
            Ok(PeerAddr::Uds(PathBuf::from(rest)))
        } else {
            Err(format!("address {raw:?} must start with tcp: or uds:"))
        }
    }
}

impl std::fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerAddr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
            PeerAddr::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

/// A connected stream of either family.
enum SocketStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl SocketStream {
    fn connect(addr: &PeerAddr) -> io::Result<SocketStream> {
        match addr {
            PeerAddr::Tcp(hostport) => {
                let stream = TcpStream::connect(hostport.as_str())?;
                stream.set_nodelay(true).ok();
                Ok(SocketStream::Tcp(stream))
            }
            #[cfg(unix)]
            PeerAddr::Uds(path) => Ok(SocketStream::Uds(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            PeerAddr::Uds(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    fn try_clone(&self) -> io::Result<SocketStream> {
        Ok(match self {
            SocketStream::Tcp(s) => SocketStream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            SocketStream::Uds(s) => SocketStream::Uds(s.try_clone()?),
        })
    }

    fn shutdown_both(&self) {
        match self {
            SocketStream::Tcp(s) => drop(s.shutdown(std::net::Shutdown::Both)),
            #[cfg(unix)]
            SocketStream::Uds(s) => drop(s.shutdown(std::net::Shutdown::Both)),
        }
    }

    fn set_blocking(&self) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_nonblocking(false),
            #[cfg(unix)]
            SocketStream::Uds(s) => s.set_nonblocking(false),
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            SocketStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            SocketStream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            SocketStream::Uds(s) => s.flush(),
        }
    }
}

/// A bound listener of either family. Unix listeners unlink their socket
/// file on drop.
pub struct SocketListener {
    inner: ListenerInner,
}

enum ListenerInner {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl SocketListener {
    /// Binds `addr`. A stale Unix socket file at the path is removed first
    /// (a crashed predecessor must not block a restart).
    pub fn bind(addr: &PeerAddr) -> io::Result<SocketListener> {
        match addr {
            PeerAddr::Tcp(hostport) => {
                Ok(SocketListener { inner: ListenerInner::Tcp(TcpListener::bind(hostport.as_str())?) })
            }
            #[cfg(unix)]
            PeerAddr::Uds(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                Ok(SocketListener {
                    inner: ListenerInner::Uds(UnixListener::bind(path)?, path.clone()),
                })
            }
            #[cfg(not(unix))]
            PeerAddr::Uds(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// The address peers should connect to (resolves a `tcp:...:0` bind to
    /// the actual port).
    pub fn local_addr(&self) -> io::Result<PeerAddr> {
        match &self.inner {
            ListenerInner::Tcp(l) => Ok(PeerAddr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            ListenerInner::Uds(_, path) => Ok(PeerAddr::Uds(path.clone())),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match &self.inner {
            ListenerInner::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            ListenerInner::Uds(l, _) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<SocketStream> {
        match &self.inner {
            ListenerInner::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true).ok();
                Ok(SocketStream::Tcp(stream))
            }
            #[cfg(unix)]
            ListenerInner::Uds(l, _) => {
                let (stream, _) = l.accept()?;
                Ok(SocketStream::Uds(stream))
            }
        }
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let ListenerInner::Uds(_, path) = &self.inner {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A fresh directory for this process's scratch Unix sockets, short enough
/// for the ~100-byte `sun_path` limit.
pub fn scratch_socket_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rads-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch socket dir");
    dir
}

// ---------------------------------------------------------------------------
// SocketNode — one machine's socket runtime
// ---------------------------------------------------------------------------

/// A pending-response slot; the connection reader thread fills it. The
/// stored [`QueryId`] is the query the request was issued for — the reader
/// verifies the response frame echoes it, so a cross-query mixup upstream
/// surfaces as a typed error instead of silently answering the wrong query.
type PendingMap = Mutex<HashMap<u64, (QueryId, Sender<Response>)>>;

/// One lazily-established client connection to a peer machine. All engine
/// threads of the machine share it: writes are serialized by the stream
/// mutex, responses are matched back to callers by correlation id, so
/// requests pipeline.
struct PeerClient {
    stream: Mutex<SocketStream>,
    pending: Arc<PendingMap>,
    next_correlation: AtomicU64,
    /// Set by the reader thread on exit, *before* it drains `pending`.
    /// A request that races past its own closed-check has necessarily
    /// inserted its reply slot before the drain, so the drain drops the
    /// slot and the requester's `recv` fails — either way the caller
    /// panics promptly instead of waiting on a reply that cannot come.
    closed: Arc<AtomicBool>,
}

/// Epoch-counted distributed barrier arrivals, *attributed*: each arrival
/// records which machine sent the notification (the connection handshake
/// names the sender), so a timed-out wait can report exactly who is
/// missing instead of only how many.
#[derive(Default)]
struct BarrierState {
    arrived: StdMutex<HashMap<u64, Vec<MachineId>>>,
    condvar: Condvar,
}

impl BarrierState {
    fn arrive(&self, epoch: u64, from: MachineId) {
        self.arrived.lock().expect("barrier lock").entry(epoch).or_default().push(from);
        self.condvar.notify_all();
    }

    /// Waits until `expected` machines arrived at `epoch`, or `timeout`
    /// elapsed. On timeout the entry is left in place (stragglers of a
    /// failed epoch must not corrupt a later one) and the machines that
    /// *did* arrive are returned so the caller can name the missing ones.
    fn wait(
        &self,
        epoch: u64,
        expected: usize,
        timeout: Duration,
    ) -> Result<(), Vec<MachineId>> {
        let deadline = Instant::now() + timeout;
        let mut arrived = self.arrived.lock().expect("barrier lock");
        loop {
            if arrived.get(&epoch).map_or(0, Vec::len) >= expected {
                arrived.remove(&epoch);
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(arrived.get(&epoch).cloned().unwrap_or_default());
            }
            let (guard, _) = self
                .condvar
                .wait_timeout(arrived, deadline - now)
                .expect("barrier wait");
            arrived = guard;
        }
    }
}

/// Result payloads collected by the coordinator (one slot per *expected*
/// query, indexed by machine id inside it, so concurrent queries' results
/// collect independently and a report nobody waits for is dropped on
/// arrival) and the shutdown flag a worker waits on.
#[derive(Default)]
struct ControlState {
    results: StdMutex<HashMap<u64, HashMap<MachineId, Vec<u8>>>>,
    /// Latest metrics snapshot received from each machine (newer frames
    /// replace older ones — each frame carries a full snapshot).
    metrics: StdMutex<HashMap<MachineId, Vec<u8>>>,
    /// When each machine was last heard from (metrics or result frame) —
    /// the liveness signal the coordinator's heartbeat monitor reads. The
    /// periodic metrics stream doubles as the heartbeat carrier: a worker
    /// that stops ticking is suspect, one whose process exited is dead.
    heartbeats: StdMutex<HashMap<MachineId, Instant>>,
    shutdown: AtomicBool,
    condvar: Condvar,
}

impl ControlState {
    fn record_heartbeat(&self, from: MachineId) {
        self.heartbeats.lock().expect("heartbeat lock").insert(from, Instant::now());
    }
}

/// Everything the node's threads share.
struct NodeShared {
    machine: MachineId,
    addrs: Vec<PeerAddr>,
    daemon: Arc<dyn Daemon>,
    stats: Arc<NetworkStats>,
    exchange: RowExchange,
    peers: Vec<Mutex<Option<Arc<PeerClient>>>>,
    barrier: BarrierState,
    barrier_epoch: AtomicU64,
    barrier_timeout: Duration,
    control: ControlState,
    /// How many dead peer connections were replaced with a fresh dial
    /// (the reconnect-on-reset path in `NodeShared::try_peer`).
    reconnects: AtomicU64,
    /// Connection handler + reader threads, joined at shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl NodeShared {
    fn machines(&self) -> usize {
        self.addrs.len()
    }

    /// The client connection to `to`, establishing it (with retry — the
    /// peer process may still be starting) on first use. Connection
    /// failures surface as [`TransportError::ConnectRefused`] for the
    /// caller's retry/backoff layer to act on.
    fn peer(self: &Arc<Self>, to: MachineId) -> Result<Arc<PeerClient>, TransportError> {
        self.try_peer(to, CONNECT_RETRY_TIMEOUT).map_err(|e| TransportError::ConnectRefused {
            machine: self.machine,
            to,
            detail: format!("{} unreachable: {e}", self.addrs[to]),
        })
    }

    /// [`peer`](NodeShared::peer) with an explicit connect timeout and the
    /// raw I/O error (the shutdown broadcast and metrics ticker use short
    /// timeouts so one dead worker cannot stall the drain).
    ///
    /// This is also the **reconnect-on-reset** point: a cached client whose
    /// reader thread has exited (`closed` set — EOF, reset or decode
    /// failure) is discarded and a fresh connection dialed in its place,
    /// with a fresh correlation-id space. Requests that were in flight on
    /// the dead connection have already errored out; retried idempotent
    /// requests transparently heal over the new link.
    fn try_peer(
        self: &Arc<Self>,
        to: MachineId,
        connect_timeout: Duration,
    ) -> io::Result<Arc<PeerClient>> {
        let mut slot = self.peers[to].lock();
        if let Some(client) = slot.as_ref() {
            if !client.closed.load(Ordering::SeqCst) {
                return Ok(client.clone());
            }
            // the reader saw the connection die: drop the corpse and redial
            client.stream.lock().shutdown_both();
            *slot = None;
            self.reconnects.fetch_add(1, Ordering::Relaxed);
            if rads_obs::metrics_enabled() {
                rads_obs::Registry::global().counter("rads_reconnects_total").add(1);
            }
        }
        let stream = connect_with_retry(&self.addrs[to], connect_timeout)?;
        // handshake: tell the peer's daemon who is calling
        let hello = (self.machine as u32).to_le_bytes();
        let mut write_half = stream.try_clone()?;
        let written = write_frame(&mut write_half, FrameKind::Hello, 0, QueryId::SOLO, &hello)?;
        self.stats.record_control(self.machine, written);
        let client = Arc::new(PeerClient {
            stream: Mutex::new(write_half),
            pending: Arc::new(Mutex::new(HashMap::new())),
            next_correlation: AtomicU64::new(1),
            closed: Arc::new(AtomicBool::new(false)),
        });
        let pending = client.pending.clone();
        let closed = client.closed.clone();
        let machine = self.machine;
        let mut read_half = stream;
        let reader = std::thread::Builder::new()
            .name(format!("rads-m{}-reader-to-m{to}", self.machine))
            .spawn(move || {
                // The reader never panics: every way the stream can go bad
                // resolves to a typed reason, the connection is marked dead
                // and pending requesters error out (their retry layer
                // reconnects). A duplicate correlation id (the slot was
                // already consumed) is dropped on the floor.
                let reason = loop {
                    // read_message reassembles continuation runs, so an
                    // adjacency response above the frame cap arrives here
                    // as one logical frame
                    match read_message(&mut read_half) {
                        Ok(Some(frame)) if frame.kind == FrameKind::Response => {
                            match decode_response(&frame.payload) {
                                Ok(response) => {
                                    let slot = pending.lock().remove(&frame.correlation);
                                    if let Some((query, tx)) = slot {
                                        if frame.query != query {
                                            // a response answering under the
                                            // wrong query scope is a protocol
                                            // violation: kill the connection
                                            // rather than deliver cross-query
                                            break Some(TransportError::Decode {
                                                machine,
                                                to,
                                                detail: format!(
                                                    "response (correlation {}): {}",
                                                    frame.correlation,
                                                    WireError::QueryMismatch {
                                                        expected: query.0,
                                                        got: frame.query.0,
                                                    }
                                                ),
                                            });
                                        }
                                        let _ = tx.send(response);
                                    }
                                }
                                Err(e) => {
                                    break Some(TransportError::Decode {
                                        machine,
                                        to,
                                        detail: format!(
                                            "response (correlation {}): {e}",
                                            frame.correlation
                                        ),
                                    })
                                }
                            }
                        }
                        Ok(Some(frame)) => {
                            break Some(TransportError::Decode {
                                machine,
                                to,
                                detail: format!(
                                    "unexpected {:?} frame on a client connection",
                                    frame.kind
                                ),
                            })
                        }
                        Ok(None) => break None, // clean close
                        Err(e) => {
                            break Some(TransportError::Decode {
                                machine,
                                to,
                                detail: e.to_string(),
                            })
                        }
                    }
                };
                // Mark the connection dead *before* draining, then drop the
                // reply senders: requesters blocked on this connection error
                // out, and later requests see `closed` (see PeerClient).
                closed.store(true, Ordering::SeqCst);
                pending.lock().clear();
                if let Some(error) = reason {
                    eprintln!("{error} — connection marked dead; retries will reconnect");
                }
            })
            .expect("spawn reader thread");
        self.threads.lock().push(reader);
        *slot = Some(client.clone());
        Ok(client)
    }

    /// Sends a one-way control frame to `to`, charging real bytes. A
    /// failed write surfaces as [`TransportError::Reset`].
    fn send_control(
        self: &Arc<Self>,
        to: MachineId,
        kind: FrameKind,
        correlation: u64,
        query: QueryId,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        let client = self.peer(to)?;
        let written = {
            let mut stream = client.stream.lock();
            write_frame(&mut *stream, kind, correlation, query, payload)
        }
        .map_err(|e| TransportError::Reset {
            machine: self.machine,
            to,
            detail: format!("control frame failed to send: {e}"),
        })?;
        self.stats.record_control(self.machine, written);
        Ok(())
    }
}

fn connect_with_retry(addr: &PeerAddr, timeout: Duration) -> io::Result<SocketStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match SocketStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One machine of a socket cluster: the listener + acceptor ("the daemon
/// side"), the lazily-connected peer clients ("the engine side") and the
/// control state (distributed barrier, result collection, shutdown).
///
/// Lifecycle: [`SocketNode::start`] (or
/// [`SocketNode::start_with_listener`]) → hand [`SocketNode::transport`] to
/// a [`crate::MachineContext`] and run the engine → when *every* machine's
/// engine is done, [`SocketNode::begin_shutdown`] on all nodes (closes this
/// node's client connections, so peers' handler threads drain), then
/// [`SocketNode::finish_shutdown`] on all nodes (joins every thread). The
/// two-phase split is what makes the drain deadlock-free: no node waits for
/// its handlers before every node has closed the connections those handlers
/// serve.
pub struct SocketNode {
    shared: Arc<NodeShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl SocketNode {
    /// Binds `addrs[machine]` and starts the node.
    pub fn start(
        machine: MachineId,
        addrs: Vec<PeerAddr>,
        daemon: Arc<dyn Daemon>,
        stats: Arc<NetworkStats>,
    ) -> io::Result<SocketNode> {
        let listener = SocketListener::bind(&addrs[machine])?;
        Ok(Self::start_with_listener(machine, addrs, listener, daemon, stats))
    }

    /// Starts the node on an already-bound listener (used by the
    /// single-process socket cluster, which binds every listener before any
    /// engine starts, and by TCP callers that bound port 0 to discover the
    /// port).
    pub fn start_with_listener(
        machine: MachineId,
        addrs: Vec<PeerAddr>,
        listener: SocketListener,
        daemon: Arc<dyn Daemon>,
        stats: Arc<NetworkStats>,
    ) -> SocketNode {
        let machines = addrs.len();
        let shared = Arc::new(NodeShared {
            machine,
            addrs,
            daemon,
            stats,
            exchange: RowExchange::new(machines),
            peers: (0..machines).map(|_| Mutex::new(None)).collect(),
            barrier: BarrierState::default(),
            barrier_epoch: AtomicU64::new(0),
            // Binaries validate the env up front (rads-node exits cleanly
            // on a ConfigError before any node starts), so this expect is
            // a backstop for library callers, not the user-facing path.
            barrier_timeout: barrier_timeout_from_env()
                .unwrap_or_else(|e| panic!("{e}")),
            control: ControlState::default(),
            reconnects: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        });
        listener.set_nonblocking(true).expect("nonblocking listener");
        let acceptor_shared = shared.clone();
        let acceptor = std::thread::Builder::new()
            .name(format!("rads-m{machine}-acceptor"))
            .spawn(move || accept_loop(acceptor_shared, listener))
            .expect("spawn acceptor thread");
        SocketNode { shared, acceptor: Some(acceptor) }
    }

    /// This machine's id.
    pub fn machine(&self) -> MachineId {
        self.shared.machine
    }

    /// The transport handle engines use (cheap to clone via `Arc`).
    pub fn transport(&self) -> Arc<dyn Transport> {
        Arc::new(SocketTransport { shared: self.shared.clone() })
    }

    /// Worker → coordinator: delivers this machine's opaque result payload
    /// for `query` (the frame's correlation id carries the machine id, the
    /// header query id the query). Batch runs pass [`QueryId::SOLO`].
    pub fn send_result(
        &self,
        coordinator: MachineId,
        query: QueryId,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        self.shared.send_control(
            coordinator,
            FrameKind::Result,
            self.shared.machine as u64,
            query,
            payload,
        )
    }

    /// How many dead peer connections this node replaced with a fresh dial
    /// (the reconnect-on-reset path).
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Relaxed)
    }

    /// Coordinator: when each machine was last heard from (metrics or
    /// result frame). The periodic metrics stream is the heartbeat carrier;
    /// a machine absent from the map has never been heard from at all.
    pub fn heartbeats(&self) -> HashMap<MachineId, Instant> {
        self.shared.control.heartbeats.lock().expect("heartbeat lock").clone()
    }

    /// Coordinator: opens the result slot of `query`. Only result frames of
    /// an expected query are kept; call this before dispatching the query,
    /// and close the slot again with a successful
    /// [`wait_results`](SocketNode::wait_results) or with
    /// [`abandon_results`](SocketNode::abandon_results).
    pub fn expect_results(&self, query: QueryId) {
        self.shared.control.results.lock().expect("results lock").entry(query.0).or_default();
    }

    /// Coordinator: closes the result slot of a query that failed or timed
    /// out, dropping the reports that already arrived; reports that arrive
    /// later are discarded on arrival.
    pub fn abandon_results(&self, query: QueryId) {
        self.shared.control.results.lock().expect("results lock").remove(&query.0);
    }

    /// Coordinator: blocks until every machine in `from` delivered a result
    /// frame for the expected `query`, or `timeout` elapsed. On success the
    /// slot is closed and the payloads returned in `from` order; on timeout
    /// the machines still missing are returned and the slot stays open.
    /// Result frames of *other* queries are left untouched, so concurrent
    /// per-query waiters never steal each other's results.
    pub fn wait_results(
        &self,
        query: QueryId,
        from: &[MachineId],
        timeout: Duration,
    ) -> Result<Vec<Vec<u8>>, Vec<MachineId>> {
        let deadline = Instant::now() + timeout;
        let mut results = self.shared.control.results.lock().expect("results lock");
        loop {
            let slot = results.get(&query.0);
            let arrived = |m: &MachineId| slot.is_some_and(|slot| slot.contains_key(m));
            if from.iter().all(arrived) {
                let mut slot = results.remove(&query.0).unwrap_or_default();
                return Ok(from.iter().map(|m| slot.remove(m).expect("present")).collect());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(from.iter().copied().filter(|m| !arrived(m)).collect());
            }
            let (guard, _) = self
                .shared
                .control
                .condvar
                .wait_timeout(results, deadline - now)
                .expect("results wait");
            results = guard;
        }
    }

    /// Coordinator: orders every other machine to shut down. Unreachable
    /// peers are skipped — a worker that already died needs no shutdown
    /// order, and panicking here would abort the drain that kills the
    /// remaining workers and removes the scratch sockets.
    pub fn broadcast_shutdown(&self) {
        const SHUTDOWN_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
        for to in 0..self.shared.machines() {
            if to == self.shared.machine {
                continue;
            }
            let Ok(client) = self.shared.try_peer(to, SHUTDOWN_CONNECT_TIMEOUT) else { continue };
            let written = {
                let mut stream = client.stream.lock();
                write_frame(&mut *stream, FrameKind::Shutdown, 0, QueryId::SOLO, &[])
            };
            if let Ok(written) = written {
                self.shared.stats.record_control(self.shared.machine, written);
            }
        }
    }

    /// A handle for shipping metrics snapshots to machine `to` (the
    /// coordinator). Cheap; usable from a background ticker thread while
    /// the engine runs — metrics frames interleave with request frames on
    /// the same pipelined connection.
    pub fn metrics_publisher(&self, to: MachineId) -> MetricsPublisher {
        MetricsPublisher { shared: self.shared.clone(), to }
    }

    /// Coordinator: the latest metrics snapshot received from each machine,
    /// sorted by machine id (newer frames replace older ones). Reading is
    /// non-destructive: concurrent queries each take their own epoch
    /// baseline from it. A machine's result frame follows its final metrics
    /// frame on the same ordered connection, so once a query's results are
    /// in, this covers them.
    pub fn latest_metrics(&self) -> Vec<(MachineId, Vec<u8>)> {
        let mut cloned: Vec<(MachineId, Vec<u8>)> = self
            .shared
            .control
            .metrics
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(machine, payload)| (*machine, payload.clone()))
            .collect();
        cloned.sort_by_key(|(machine, _)| *machine);
        cloned
    }

    /// Worker: blocks until a shutdown frame arrives (or `timeout`).
    /// Returns whether the shutdown order was received.
    pub fn wait_shutdown(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut results = self.shared.control.results.lock().expect("results lock");
        while !self.shared.control.shutdown.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .control
                .condvar
                .wait_timeout(results, deadline - now)
                .expect("shutdown wait");
            results = guard;
        }
        true
    }

    /// Drain phase A: stop accepting, close this node's client connections
    /// (peers' handler threads see end-of-stream and exit). Must run on
    /// every node of the cluster before any node runs
    /// [`finish_shutdown`](SocketNode::finish_shutdown).
    pub fn begin_shutdown(&self) {
        self.shared.control.shutdown.store(true, Ordering::SeqCst);
        for slot in &self.shared.peers {
            if let Some(client) = slot.lock().take() {
                client.stream.lock().shutdown_both();
            }
        }
    }

    /// Drain phase B: joins the acceptor, handler and reader threads.
    pub fn finish_shutdown(mut self) {
        self.begin_shutdown(); // idempotent; covers single-node callers
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        loop {
            let Some(handle) = self.shared.threads.lock().pop() else { break };
            let _ = handle.join();
        }
    }
}

/// A worker-side handle that ships [`FrameKind::Metrics`] snapshots to the
/// coordinator (created by [`SocketNode::metrics_publisher`]). Sends are
/// tolerant: a ticker thread must not crash the worker because the
/// coordinator went away mid-run.
pub struct MetricsPublisher {
    shared: Arc<NodeShared>,
    to: MachineId,
}

impl MetricsPublisher {
    /// Sends one full metrics snapshot (the `rads-obs` binary codec);
    /// returns `false` if the peer is unreachable or the write failed, so
    /// the ticker can stop.
    pub fn send(&self, payload: &[u8]) -> bool {
        const METRICS_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
        let Ok(client) = self.shared.try_peer(self.to, METRICS_CONNECT_TIMEOUT) else {
            return false;
        };
        let written = {
            let mut stream = client.stream.lock();
            write_frame(
                &mut *stream,
                FrameKind::Metrics,
                self.shared.machine as u64,
                QueryId::SOLO,
                payload,
            )
        };
        match written {
            Ok(written) => {
                self.shared.stats.record_control(self.shared.machine, written);
                true
            }
            Err(_) => false,
        }
    }
}

/// Polling accept loop: nonblocking accepts with a short sleep, so shutdown
/// needs no self-connection nudge and cannot race the listener teardown.
fn accept_loop(shared: Arc<NodeShared>, listener: SocketListener) {
    loop {
        if shared.control.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                stream.set_blocking().expect("accepted stream blocking");
                let handler_shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("rads-m{}-daemon-conn", shared.machine))
                    .spawn(move || serve_connection(handler_shared, stream))
                    .expect("spawn connection handler");
                shared.threads.lock().push(handle);
            }
            // WouldBlock is the idle poll; anything else (ECONNABORTED from
            // a peer dying mid-handshake, EINTR, transient resource
            // pressure) must not kill the acceptor — a node that stops
            // accepting strands every later peer in its connect retry.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Serves one inbound connection: requests are answered through the
/// [`Daemon`] (with `DeliverRows` intercepted into the local row exchange),
/// control frames update the node state. Returns when the peer closes or a
/// protocol violation occurs.
fn serve_connection(shared: Arc<NodeShared>, mut stream: SocketStream) {
    let mut peer: Option<MachineId> = None;
    loop {
        let frame = match read_message(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        match frame.kind {
            FrameKind::Hello => {
                if frame.payload.len() != 4 {
                    return;
                }
                let id = u32::from_le_bytes(frame.payload[..4].try_into().expect("4 bytes"));
                if (id as usize) < shared.machines() {
                    peer = Some(id as usize);
                } else {
                    return;
                }
            }
            FrameKind::Request => {
                // the handshake names the requester; a request before it is
                // a protocol violation
                let Some(from) = peer else { return };
                let Ok(envelope) = decode_envelope(&frame.payload) else { return };
                // the header query id exists so routers can classify frames
                // without decoding payloads — it must agree with the payload
                if envelope.query != frame.query {
                    return;
                }
                let query = envelope.query;
                let response = match envelope.body {
                    Request::DeliverRows { tag, rows } => {
                        shared.exchange.deliver(shared.machine, tag, rows);
                        Response::Ack
                    }
                    _ => shared.daemon.handle(from, envelope),
                };
                let mut payload = Vec::new();
                encode_response(&response, &mut payload);
                // write_message splits responses above the frame cap into a
                // continuation run; `written` covers every frame of the run.
                // The response echoes the request's query id, which the
                // requester's reader verifies against its pending slot.
                match write_message(
                    &mut stream,
                    FrameKind::Response,
                    frame.correlation,
                    query,
                    &payload,
                ) {
                    Ok(written) => {
                        shared.stats.record_response(shared.machine, from, written);
                        frame_bytes_histogram().observe(written as u64);
                    }
                    Err(e) => {
                        // The requester will only see "connection closed";
                        // name the real cause on this side before dropping
                        // the link.
                        eprintln!(
                            "machine {}: dropping connection from machine {from}: \
                             response of {} payload bytes failed to send: {e}",
                            shared.machine,
                            payload.len(),
                        );
                        return;
                    }
                }
            }
            FrameKind::Barrier => {
                // arrivals are attributed to the machine the handshake
                // named, so a timed-out wait can report who is missing
                let Some(from) = peer else { return };
                if frame.payload.len() != 8 {
                    return;
                }
                let epoch = u64::from_le_bytes(frame.payload[..8].try_into().expect("8 bytes"));
                shared.barrier.arrive(epoch, from);
            }
            FrameKind::Result => {
                let from = frame.correlation as MachineId;
                if from >= shared.machines() {
                    return;
                }
                shared.control.record_heartbeat(from);
                // a report for a query nobody expects (it failed, timed out,
                // or never existed) is dropped
                if let Some(slot) =
                    shared.control.results.lock().expect("results lock").get_mut(&frame.query.0)
                {
                    slot.insert(from, frame.payload);
                }
                shared.control.condvar.notify_all();
            }
            FrameKind::Metrics => {
                let from = frame.correlation as MachineId;
                if from >= shared.machines() {
                    return;
                }
                shared.control.record_heartbeat(from);
                shared
                    .control
                    .metrics
                    .lock()
                    .expect("metrics lock")
                    .insert(from, frame.payload);
            }
            FrameKind::Shutdown => {
                // flip the flag under the condvar's mutex: a waiter between
                // its flag check and its wait must not miss the notification
                let _waiters = shared.control.results.lock().expect("results lock");
                shared.control.shutdown.store(true, Ordering::SeqCst);
                shared.control.condvar.notify_all();
            }
            FrameKind::Response => return, // responses never arrive on inbound connections
            FrameKind::Continue => return, // read_message reassembles runs; a stray one is a bug
            // client-protocol frames: only the serve front-door listener
            // speaks them; on an inter-machine connection they are a
            // protocol violation
            FrameKind::Query | FrameKind::QueryResult => return,
        }
    }
}

/// The real-socket [`Transport`]: frames over TCP or Unix-domain sockets,
/// pipelined per peer connection, counting exactly the bytes on the wire.
pub struct SocketTransport {
    shared: Arc<NodeShared>,
}

impl Transport for SocketTransport {
    fn machine(&self) -> MachineId {
        self.shared.machine
    }

    fn machines(&self) -> usize {
        self.shared.machines()
    }

    fn request(&self, to: MachineId, envelope: Envelope) -> Result<Response, TransportError> {
        self.request_async(to, envelope).wait()
    }

    fn request_async(&self, to: MachineId, envelope: Envelope) -> PendingResponse {
        debug_assert_ne!(to, self.shared.machine, "local requests are served inline");
        let mut rpc_span = rads_obs::async_span(rpc_span_name(&envelope.body), "rpc");
        let query = envelope.query;
        let client = match self.shared.peer(to) {
            Ok(client) => client,
            Err(e) => return PendingResponse::failed(to, query, e),
        };
        let correlation = client.next_correlation.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = bounded(1);
        client.pending.lock().insert(correlation, (query, reply_tx));
        if client.closed.load(Ordering::SeqCst) {
            // reader already exited: a write could still land in the socket
            // buffer without error and nobody would ever deliver the reply
            client.pending.lock().remove(&correlation);
            return PendingResponse::failed(
                to,
                query,
                TransportError::Reset {
                    machine: self.shared.machine,
                    to,
                    detail: "connection is closed (peer died or sent a malformed response)"
                        .into(),
                },
            );
        }
        let mut payload = Vec::new();
        encode_envelope(&envelope, &mut payload);
        let written = {
            let mut stream = client.stream.lock();
            write_message(&mut *stream, FrameKind::Request, correlation, query, &payload)
        };
        let written = match written {
            Ok(written) => written,
            Err(e) => {
                client.pending.lock().remove(&correlation);
                return PendingResponse::failed(
                    to,
                    query,
                    TransportError::Reset {
                        machine: self.shared.machine,
                        to,
                        detail: format!("request (correlation {correlation}) failed to send: {e}"),
                    },
                );
            }
        };
        self.shared.stats.record_request(self.shared.machine, written);
        frame_bytes_histogram().observe(written as u64);
        rpc_span.attr("to", to as u64);
        rpc_span.attr("correlation", correlation);
        rpc_span.attr("query", query.0);
        rpc_span.attr("req_bytes", written as u64);
        let machine = self.shared.machine;
        PendingResponse::deferred(to, query, Some(correlation), move || {
            let response = reply_rx.recv().map_err(|_| TransportError::Reset {
                machine,
                to,
                detail: format!(
                    "connection closed before the response to correlation {correlation} arrived"
                ),
            })?;
            rpc_span.finish();
            Ok(response)
        })
    }

    fn barrier(&self) -> Result<(), TransportError> {
        let machines = self.shared.machines();
        if machines <= 1 {
            return Ok(());
        }
        let epoch = self.shared.barrier_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // payload is the epoch alone; the receiver attributes the arrival
        // to the machine this connection's handshake named
        let payload = epoch.to_le_bytes();
        for to in 0..machines {
            if to != self.shared.machine {
                self.shared.send_control(to, FrameKind::Barrier, 0, QueryId::SOLO, &payload)?;
            }
        }
        let timeout = self.shared.barrier_timeout;
        self.shared.barrier.wait(epoch, machines - 1, timeout).map_err(|arrived| {
            let missing: Vec<MachineId> = (0..machines)
                .filter(|&m| m != self.shared.machine && !arrived.contains(&m))
                .collect();
            TransportError::BarrierTimeout {
                machine: self.shared.machine,
                epoch,
                missing,
                waited_ms: timeout.as_millis() as u64,
            }
        })
    }

    fn send_rows(
        &self,
        to: MachineId,
        tag: u32,
        rows: Vec<Vec<VertexId>>,
    ) -> Result<(), TransportError> {
        if rows.is_empty() {
            return Ok(());
        }
        if to == self.shared.machine {
            self.shared.exchange.deliver(to, tag, rows);
            return Ok(());
        }
        match self.request(to, Envelope::solo(Request::DeliverRows { tag, rows }))? {
            Response::Ack => Ok(()),
            // a non-Ack answer to DeliverRows is a protocol bug, not a
            // fabric fault; it must fail loudly rather than be retried
            other => panic!(
                "machine {}: DeliverRows to machine {to} answered {other:?}",
                self.shared.machine
            ),
        }
    }

    fn take_rows(&self, tag: u32) -> Vec<Vec<VertexId>> {
        self.shared.exchange.take(self.shared.machine, tag)
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.shared.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_kind_parses_and_falls_back() {
        assert_eq!(TransportKind::parse("uds"), Some(TransportKind::Uds));
        assert_eq!(TransportKind::parse("UNIX"), Some(TransportKind::Uds));
        assert_eq!(TransportKind::parse("tcp"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse("in-process"), Some(TransportKind::InProcess));
        assert_eq!(TransportKind::parse("channel"), Some(TransportKind::InProcess));
        assert_eq!(TransportKind::parse("smoke-signals"), None);
        if cfg!(unix) {
            assert_eq!(TransportKind::Uds.effective(), TransportKind::Uds);
        } else {
            assert_eq!(TransportKind::Uds.effective(), TransportKind::Tcp);
        }
    }

    #[test]
    fn unknown_transport_env_is_a_typed_config_error() {
        assert_eq!(TransportKind::from_env_value(None), Ok(TransportKind::InProcess));
        assert_eq!(TransportKind::from_env_value(Some("tcp")), Ok(TransportKind::Tcp));
        let err = TransportKind::from_env_value(Some("carrier-pigeon")).unwrap_err();
        assert_eq!(err.var, TRANSPORT_ENV);
        assert_eq!(err.value, "carrier-pigeon");
        assert!(err.to_string().contains("in-process | uds | tcp"), "{err}");
    }

    #[test]
    fn barrier_timeout_env_parses_or_errors() {
        assert_eq!(barrier_timeout_from_value(None), Ok(DEFAULT_BARRIER_TIMEOUT));
        assert_eq!(barrier_timeout_from_value(Some("7")), Ok(Duration::from_secs(7)));
        for bad in ["0", "-3", "soon", ""] {
            let err = barrier_timeout_from_value(Some(bad)).unwrap_err();
            assert_eq!(err.var, BARRIER_TIMEOUT_ENV, "{bad:?}");
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn peer_addr_parses_both_schemes() {
        assert_eq!(
            PeerAddr::parse("tcp:127.0.0.1:4100"),
            Ok(PeerAddr::Tcp("127.0.0.1:4100".into()))
        );
        assert_eq!(PeerAddr::parse("uds:/tmp/m0.sock"), Ok(PeerAddr::Uds("/tmp/m0.sock".into())));
        assert!(PeerAddr::parse("carrier-pigeon:coop").is_err());
        assert!(PeerAddr::parse("tcp:").is_err());
        assert!(PeerAddr::parse("uds:").is_err());
        assert_eq!(PeerAddr::parse("uds:/tmp/x.sock").unwrap().to_string(), "uds:/tmp/x.sock");
    }

    #[test]
    fn barrier_state_attributes_arrivals_per_epoch() {
        let b = BarrierState::default();
        b.arrive(1, 1);
        b.arrive(1, 2);
        b.arrive(2, 2);
        // returns immediately: both arrivals are in
        b.wait(1, 2, Duration::from_secs(5)).expect("epoch 1 is complete");
        // epoch 1 was consumed, epoch 2 still has its single arrival
        assert_eq!(b.arrived.lock().unwrap().get(&2), Some(&vec![2]));
        assert!(b.arrived.lock().unwrap().get(&1).is_none());
    }

    #[test]
    fn barrier_wait_times_out_naming_who_arrived() {
        let b = BarrierState::default();
        b.arrive(5, 3);
        let arrived = b
            .wait(5, 2, Duration::from_millis(20))
            .expect_err("epoch 5 can never complete");
        assert_eq!(arrived, vec![3]);
        // the partial epoch is left in place for diagnosis, not consumed
        assert_eq!(b.arrived.lock().unwrap().get(&5), Some(&vec![3]));
    }

    #[test]
    fn scratch_socket_dirs_are_unique() {
        let a = scratch_socket_dir();
        let b = scratch_socket_dir();
        assert_ne!(a, b);
        assert!(a.exists() && b.exists());
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }
}
