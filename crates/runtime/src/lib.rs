//! The distributed runtime: one API, two fabrics.
//!
//! The paper runs RADS and the baselines on an MPI cluster where every
//! machine hosts (a) daemon threads answering `verifyE` / `fetchV` /
//! `checkR` / `shareR` requests and (b) the enumeration thread. This crate
//! reproduces that architecture behind a single surface —
//! [`MachineContext`] — over two interchangeable transports:
//!
//! * **In-process** ([`transport::ChannelTransport`]): every machine is a
//!   pair of threads, requests travel over crossbeam channels, bytes are
//!   *modelled* by the paper's cost function
//!   ([`message::Envelope::request_bytes`]), and an optional
//!   [`NetworkConfig`] latency/bandwidth model converts bytes into
//!   simulated wall-clock delay.
//! * **Real sockets** ([`transport::SocketTransport`]): every machine is a
//!   [`transport::SocketNode`] — a daemon acceptor loop on a TCP or
//!   Unix-domain listener, one pipelined connection per peer (responses
//!   matched by correlation id), the length-prefixed binary framing of
//!   [`wire`], and traffic counters reporting the *actual framed bytes* on
//!   the wire. The machines can be threads of one process
//!   ([`Cluster::with_transport`], or `RADS_TRANSPORT=uds|tcp` for the
//!   env-selected default) or separate OS processes (the `rads-node`
//!   binary), running the identical engine code either way.
//!
//! # The `Transport` contract
//!
//! Engines program against [`MachineContext`]; implementations of
//! [`transport::Transport`] must provide (see its module docs for the full
//! statement):
//!
//! * **Blocking, pipelinable RPC** — [`MachineContext::request`] returns
//!   *this* request's response no matter how many requests other threads of
//!   the machine have in flight; no cross-thread ordering is promised or
//!   assumed.
//! * **Machine-level barriers** — [`MachineContext::barrier`] returns only
//!   after every machine entered the same epoch; one thread per machine.
//! * **Synchronous row delivery** — after [`MachineContext::send_rows`]
//!   returns, the rows are in the receiver's inbox; a barrier later,
//!   [`MachineContext::take_rows`] observes them.
//! * **Byte accounting** — [`MachineContext::traffic`] reports per-machine
//!   originated bytes: modelled bytes on the channel transport, real framed
//!   bytes on the socket transport. Control frames are charged in *bytes*
//!   on both transports (real frames on sockets, the modelled barrier
//!   notifications in-process — see [`TrafficSnapshot::control_bytes`])
//!   and never in the message count. Local requests are always free.
//!
//! [`NetworkStats`] counts messages and bytes per machine, which is what
//! the paper reports as "communication cost". Synchronous systems
//! (TwinTwig, SEED, PSgL) additionally need barrier supersteps and
//! all-to-all shuffles of intermediate results; [`MachineContext::barrier`]
//! and the row [`exchange`] give them exactly that while charging the same
//! accounting. The engines never touch another machine's partition directly
//! — all cross-machine data flows through the messages defined in
//! [`message`] — which is what keeps single-process runs faithful to the
//! distributed setting, and what made the socket transport a drop-in.

pub mod cluster;
pub mod error;
pub mod exchange;
pub mod fault;
pub mod message;
pub mod network;
pub mod transport;
pub mod wire;

pub use cluster::{Cluster, Daemon, MachineContext, PartitionDaemon, RunOutcome};
pub use error::{ConfigError, TransportError};
pub use exchange::RowExchange;
pub use fault::{FaultPlan, FaultStats, FaultTransport};
pub use message::{Envelope, QueryId, Request, Response};
pub use network::{NetworkConfig, NetworkStats, TrafficSnapshot};
pub use transport::{
    MetricsPublisher, PeerAddr, PendingResponse, SocketListener, SocketNode, Transport,
    TransportKind, BARRIER_TIMEOUT_ENV, TRANSPORT_ENV,
};
