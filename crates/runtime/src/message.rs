//! Messages exchanged between machines, and the query-scoped [`Envelope`]
//! every transport carries.

use rads_graph::VertexId;

/// Identifies one query's traffic across the whole cluster.
///
/// Every engine-facing request travels inside an [`Envelope`] tagged with
/// the query it belongs to, which is what lets a resident serve cluster run
/// several enumerations concurrently over one fabric: daemons route
/// `checkR` / `shareR` to the right per-query state, result frames are
/// collected per query, and a late or duplicated frame can never be matched
/// to the wrong query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct QueryId(pub u64);

impl QueryId {
    /// The id of a one-shot (batch) run. Processes that never multiplex —
    /// `rads-node run` clusters, the experiments, every test that calls
    /// [`crate::Cluster::run`] directly — send all their traffic under this
    /// id; only the serve scheduler allocates others (starting at 1).
    pub const SOLO: QueryId = QueryId(0);
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A request sent to another machine's daemon.
///
/// The first four variants are the daemon functionalities of Section 3.1;
/// `DeliverRows` is the shuffle primitive the synchronous baselines use to
/// redistribute intermediate results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `verifyE`: does each of these data edges exist? The receiver must own
    /// at least one endpoint of every pair.
    VerifyEdges(Vec<(VertexId, VertexId)>),
    /// `fetchV`: return the adjacency lists of these vertices (which must be
    /// owned by the receiver).
    FetchVertices(Vec<VertexId>),
    /// `checkR`: how many unprocessed region groups does the receiver have?
    CheckRegionGroups,
    /// `shareR`: hand unprocessed region groups to the requester (and mark
    /// them processed locally). RADS answers with half the waiting groups,
    /// taken from the back of the queue.
    ShareRegionGroup,
    /// Deliver a batch of partial results (rows of data vertices) tagged with
    /// an algorithm-specific channel id. Used by PSgL / TwinTwig / SEED /
    /// Crystal for shuffling; RADS never sends this.
    DeliverRows {
        /// Algorithm-specific stream tag (e.g. join round number).
        tag: u32,
        /// The rows; all rows in one message have the same arity.
        rows: Vec<Vec<VertexId>>,
    },
    /// Serving mode: the coordinator tells a worker to run one query on the
    /// resident cluster. The worker acknowledges immediately (`Ack`), runs
    /// the engine on its own thread, and delivers its per-query report as a
    /// result frame — a long-running enumeration must not hold a daemon
    /// connection handler hostage.
    Query {
        /// The serve scheduler's query id; matches the [`Envelope::query`]
        /// the dispatch travels under, and the worker echoes it in its
        /// report so a late report can never be matched to the wrong query.
        id: u64,
        /// Pattern name (`rads_graph::queries::query_by_name`).
        pattern: String,
        /// Per-query memory budget `Φ` override in bytes (`None` = the
        /// budget the serve cluster was started with).
        budget: Option<u64>,
    },
}

/// A query-scoped request envelope: what every [`crate::Transport`] carries.
///
/// PR 9's serving daemon exposed the limits of ad-hoc `(Request,
/// correlation id)` pairing: the correlation id matches a response to its
/// request *on one connection*, but nothing said which **query** a request
/// belonged to, so a machine could install only one set of per-query daemon
/// state at a time and serve execution was serialized. The envelope
/// promotes the pairing into a first-class type:
///
/// * [`query`](Envelope::query) — which enumeration this request serves.
///   Daemons use it to route `checkR` / `shareR` to the right per-query
///   region-group state; the wire codec stamps it into the frame header so
///   routers can classify frames without decoding payloads.
/// * [`seq`](Envelope::seq) — the sender's per-query issue counter. A
///   retried request is re-issued under a *fresh* seq (and a fresh wire
///   correlation id), so `(sender, query, seq)` names one transmission
///   attempt — useful in traces and fault forensics; nothing correlates on
///   it.
/// * [`body`](Envelope::body) — the request itself.
///
/// # Compatibility contract
///
/// The envelope is versioned on the wire: every frame carries
/// [`crate::wire::WIRE_VERSION`] in its body header, and a frame from a
/// peer speaking an older (pre-envelope) revision of the protocol is
/// rejected with a typed [`crate::wire::WireError::Version`] — never
/// misparsed, never a panic. Within one version: query id 0
/// ([`QueryId::SOLO`]) is reserved for single-tenant (batch) traffic, the
/// serve scheduler allocates ids from 1, and every `Response` frame echoes
/// the query id of the request it answers, so receivers can validate the
/// correlation-id match against the query scope. Barriers and row
/// exchange remain *cluster*-scoped: they are only used by the one-shot
/// baselines (RADS proper never calls them on its serving path), which by
/// construction never overlap with other queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The query this request belongs to ([`QueryId::SOLO`] outside serve).
    pub query: QueryId,
    /// Sender-side issue counter within the query (fresh per transmission).
    pub seq: u64,
    /// The request itself.
    pub body: Request,
}

impl Envelope {
    /// An envelope on the one-shot ([`QueryId::SOLO`]) stream — what every
    /// caller outside the serve scheduler sends.
    pub fn solo(body: Request) -> Envelope {
        Envelope { query: QueryId::SOLO, seq: 0, body }
    }

    /// An envelope of query `query` with issue counter `seq`.
    pub fn new(query: QueryId, seq: u64, body: Request) -> Envelope {
        Envelope { query, seq, body }
    }

    /// Whether re-issuing `body` (after a transport failure, under a fresh
    /// seq and correlation id) cannot change any machine's state or results.
    ///
    /// `verifyE`, `fetchV` and `checkR` are pure reads over the receiver's
    /// partition (or its region-group queue length) — answering them twice
    /// is harmless, so the retry/backoff layer may re-send them freely.
    /// `shareR` *drains* part of the receiver's queue (a duplicate would
    /// lose region groups) and `DeliverRows` appends to the receiver's inbox (a
    /// duplicate would double rows); neither may be blindly re-sent.
    /// `Query` starts an engine run on the receiver (a duplicate would run
    /// — and count — the query twice), so it is never retried either.
    pub fn is_idempotent(body: &Request) -> bool {
        match body {
            Request::VerifyEdges(_) | Request::FetchVertices(_) | Request::CheckRegionGroups => {
                true
            }
            Request::ShareRegionGroup
            | Request::DeliverRows { .. }
            | Request::Query { .. } => false,
        }
    }

    /// [`Envelope::is_idempotent`] of this envelope's body.
    pub fn idempotent(&self) -> bool {
        Self::is_idempotent(&self.body)
    }

    /// Number of bytes this envelope's request occupies on the simulated
    /// wire (the paper's cost model; the socket transport records real
    /// framed bytes instead). Query-independent by design: tagging a
    /// request with a serve query id must not change the traffic model.
    pub fn request_bytes(&self) -> usize {
        MESSAGE_OVERHEAD_BYTES + request_body_cost(&self.body)
    }
}

/// A response returned by a daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::VerifyEdges`], in request order.
    EdgeVerification(Vec<bool>),
    /// Answer to [`Request::FetchVertices`]: `(vertex, adjacency list)` pairs.
    Adjacency(Vec<(VertexId, Vec<VertexId>)>),
    /// Answer to [`Request::CheckRegionGroups`].
    RegionGroupCount(usize),
    /// Answer to [`Request::ShareRegionGroup`]: the region groups handed
    /// over (each a list of candidate vertices of the start query vertex);
    /// empty if none remain.
    RegionGroups(Vec<Vec<VertexId>>),
    /// Generic acknowledgement (used for [`Request::DeliverRows`] and
    /// [`Request::Query`] — the query *report* arrives later, as a result
    /// frame).
    Ack,
    /// The receiving daemon does not implement the request.
    Unsupported,
    /// Serving mode: a worker's per-query report, opaque to the runtime (the
    /// serve layer defines the payload: query id, counts, per-query stats).
    /// Emitted by serve daemons answering a follow-up poll; the primary
    /// delivery path is the result frame.
    QueryDone(Vec<u8>),
}

const VERTEX_BYTES: usize = std::mem::size_of::<VertexId>();
/// Fixed per-message envelope overhead (headers, tags) charged by the
/// accounting model.
pub const MESSAGE_OVERHEAD_BYTES: usize = 16;

/// Modelled payload cost of a request body, without the fixed envelope
/// overhead ([`Envelope::request_bytes`] adds it).
pub(crate) fn request_body_cost(request: &Request) -> usize {
    match request {
        Request::VerifyEdges(pairs) => pairs.len() * 2 * VERTEX_BYTES,
        Request::FetchVertices(vs) => vs.len() * VERTEX_BYTES,
        Request::CheckRegionGroups | Request::ShareRegionGroup => 0,
        Request::DeliverRows { rows, .. } => {
            4 + rows.iter().map(|r| r.len() * VERTEX_BYTES).sum::<usize>()
        }
        Request::Query { pattern, .. } => 8 + pattern.len() + 9,
    }
}

/// Number of bytes a response occupies on the simulated wire.
pub fn response_bytes(response: &Response) -> usize {
    MESSAGE_OVERHEAD_BYTES
        + match response {
            Response::EdgeVerification(bits) => bits.len(),
            Response::Adjacency(lists) => lists
                .iter()
                .map(|(_, adj)| VERTEX_BYTES + adj.len() * VERTEX_BYTES)
                .sum(),
            Response::RegionGroupCount(_) => 8,
            Response::RegionGroups(groups) if groups.is_empty() => 1,
            Response::RegionGroups(groups) => groups.iter().map(|g| g.len() * VERTEX_BYTES).sum(),
            Response::Ack | Response::Unsupported => 1,
            Response::QueryDone(payload) => payload.len(),
        }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solo_bytes(request: Request) -> usize {
        Envelope::solo(request).request_bytes()
    }

    #[test]
    fn request_sizes_scale_with_payload() {
        let small = solo_bytes(Request::VerifyEdges(vec![(0, 1)]));
        let large = solo_bytes(Request::VerifyEdges((0..100).map(|i| (i, i + 1)).collect()));
        assert!(large > small);
        assert_eq!(small, MESSAGE_OVERHEAD_BYTES + 8);
        assert_eq!(solo_bytes(Request::CheckRegionGroups), MESSAGE_OVERHEAD_BYTES);
    }

    #[test]
    fn envelope_cost_is_query_independent() {
        // Concurrency equivalence pins serial == overlapped counts *and*
        // accounting, so the byte charge must depend only on the body.
        let body = Request::FetchVertices(vec![1, 2, 3]);
        let solo = Envelope::solo(body.clone());
        let scoped = Envelope::new(QueryId(42), 7, body);
        assert_eq!(solo.request_bytes(), scoped.request_bytes());
    }

    #[test]
    fn response_sizes_scale_with_payload() {
        let adj = Response::Adjacency(vec![(5, vec![1, 2, 3])]);
        assert_eq!(response_bytes(&adj), MESSAGE_OVERHEAD_BYTES + 4 + 12);
        let verdicts = Response::EdgeVerification(vec![true; 10]);
        assert_eq!(response_bytes(&verdicts), MESSAGE_OVERHEAD_BYTES + 10);
        assert_eq!(response_bytes(&Response::Ack), MESSAGE_OVERHEAD_BYTES + 1);
    }

    #[test]
    fn deliver_rows_accounts_every_vertex() {
        let rows = Request::DeliverRows { tag: 3, rows: vec![vec![1, 2, 3], vec![4, 5, 6]] };
        assert_eq!(solo_bytes(rows), MESSAGE_OVERHEAD_BYTES + 4 + 24);
    }

    #[test]
    fn only_pure_reads_are_idempotent() {
        assert!(Envelope::solo(Request::VerifyEdges(vec![(0, 1)])).idempotent());
        assert!(Envelope::solo(Request::FetchVertices(vec![1])).idempotent());
        assert!(Envelope::is_idempotent(&Request::CheckRegionGroups));
        assert!(!Envelope::is_idempotent(&Request::ShareRegionGroup), "shareR pops the queue");
        assert!(!Envelope::is_idempotent(&Request::DeliverRows { tag: 0, rows: vec![] }));
        assert!(
            !Envelope::solo(Request::Query { id: 1, pattern: "q1".into(), budget: None })
                .idempotent(),
            "a re-sent Query would run the engine twice"
        );
    }

    #[test]
    fn query_messages_account_their_payload() {
        let q = Request::Query { id: 7, pattern: "q1".into(), budget: Some(4096) };
        assert_eq!(solo_bytes(q), MESSAGE_OVERHEAD_BYTES + 8 + 2 + 9);
        let done = Response::QueryDone(vec![0u8; 84]);
        assert_eq!(response_bytes(&done), MESSAGE_OVERHEAD_BYTES + 84);
    }

    #[test]
    fn query_ids_display_compactly() {
        assert_eq!(QueryId::SOLO.to_string(), "q0");
        assert_eq!(QueryId(17).to_string(), "q17");
        assert_eq!(QueryId::default(), QueryId::SOLO);
    }
}
