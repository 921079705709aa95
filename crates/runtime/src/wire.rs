//! The wire format of the socket transport.
//!
//! Every message travelling between two machines is one **frame**:
//!
//! ```text
//! [ body length: u32 LE ][ version: u8 ][ kind: u8 ][ correlation id: u64 LE ][ query id: u64 LE ][ payload ]
//! '------ 4 bytes ------''--------------------- body (length bytes) --------------------------------------'
//! ```
//!
//! The body length covers the version byte, the kind byte, the correlation
//! id, the query id and the payload (`payload.len() + 18`), so a reader
//! always knows exactly how many bytes to consume before the next frame
//! starts. A length prefix larger than [`MAX_FRAME_BYTES`] is rejected
//! before anything is allocated — a corrupt or hostile peer cannot make the
//! daemon reserve gigabytes.
//!
//! The version byte is [`version_byte`] = `0xA0 | WIRE_VERSION`. The high
//! nibble is a deliberate mark: protocol revision 1 had no version byte and
//! put the frame *kind* (1–10) in that position, so any v1 frame — and most
//! random garbage — fails the version check with a typed
//! [`WireError::Version`] instead of being misparsed. Bumping
//! [`WIRE_VERSION`] makes every older peer's frames fail the same way.
//!
//! [`FrameKind::Request`] frames carry an encoded [`Envelope`] (see
//! [`encode_envelope`]); [`FrameKind::Response`] frames carry an encoded
//! [`Response`]. The correlation id pairs a response with the request it
//! answers on one connection — that is what lets several engine workers
//! pipeline requests over one socket — while the query id in the header
//! scopes the frame to one enumeration, so a resident cluster can interleave
//! frames of concurrent queries on the same fabric and route each to its
//! per-query daemon state without decoding payloads. The remaining kinds
//! are one-way control frames of the node runtime (connection handshake,
//! distributed barrier, result delivery and shutdown) whose payloads are
//! defined by [`crate::transport`]; cluster-scoped control frames travel
//! with query id 0, per-query ones (Result, Query, QueryResult) carry the
//! query they serve.
//!
//! The codec is hand-rolled little-endian binary — no serde, no reflection —
//! because the message set is small, closed and hot: `fetchV` responses
//! dominate the byte volume and encode as raw `u32` runs. Every decoder is
//! total: any byte sequence either decodes to a value or returns a
//! [`WireError`]; malformed input never panics. `decode_request` /
//! `decode_response` / `decode_envelope` additionally reject trailing bytes
//! so a frame is either exactly one message or an error.
//!
//! # Multi-frame messages (continuation)
//!
//! A single *message* is not capped at one frame: a payload larger than the
//! frame cap is written by [`write_message`] as a run of
//! [`FrameKind::Continue`] frames — each carrying `[sequence: u32 LE]` plus
//! a chunk of the payload, all tagged with the message's correlation id and
//! query id — terminated by a final frame of the real kind carrying the
//! last chunk. [`read_message`] reassembles the run and hands back one
//! logical [`Frame`]; a message that fits in one frame is written and read
//! exactly as before, byte for byte. The reassembler is as strict as the
//! rest of the codec: a continuation run must be contiguous on its
//! connection, so a correlation-id or query-id switch mid-run, an
//! out-of-order sequence number, a stream that ends before the final frame,
//! or an assembled message above [`MAX_MESSAGE_BYTES`] are all hard
//! [`WireError`]s.

use std::io::{self, Read, Write};

use rads_graph::VertexId;

use crate::message::{Envelope, QueryId, Request, Response};

/// Hard ceiling on the frame body length (64 MiB). Larger frames are
/// rejected at the length prefix, before allocation. Messages above this
/// size travel as a [`FrameKind::Continue`] run (see [`write_message`]).
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Hard ceiling on a reassembled multi-frame message (1 GiB): the point at
/// which [`read_message`] stops believing a continuation run is legitimate
/// rather than a hostile or broken peer streaming chunks forever.
pub const MAX_MESSAGE_BYTES: usize = 1024 * 1024 * 1024;

/// Protocol revision spoken by this build. Revision 2 introduced the
/// query-scoped envelope: a version byte and a query id in every frame
/// header. Revision 3 lets one `shareR` answer carry several region groups
/// ([`Response::RegionGroups`]). Older revisions are rejected with
/// [`WireError::Version`].
pub const WIRE_VERSION: u8 = 3;

/// High-nibble mark OR'd into the version byte so it can never collide with
/// a v1 frame's kind byte (1–10), which occupied the same position.
const VERSION_MARK: u8 = 0xA0;

/// The version byte every frame starts its body with.
pub const fn version_byte() -> u8 {
    VERSION_MARK | WIRE_VERSION
}

/// Bytes of the fixed body header: version + kind + correlation id +
/// query id.
const BODY_HEADER_BYTES: usize = 1 + 1 + 8 + 8;

/// Bytes of the fixed frame header: length prefix + body header.
pub const FRAME_HEADER_BYTES: usize = 4 + BODY_HEADER_BYTES;

/// Bytes of the sequence-number prefix inside a [`FrameKind::Continue`]
/// payload.
pub const CONTINUE_SEQ_BYTES: usize = 4;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection handshake: the payload is the connecting machine's id
    /// (`u32`). Sent once, as the first frame of every client connection.
    Hello,
    /// An encoded [`Envelope`] (see [`encode_envelope`]); the receiver must
    /// answer with a `Response` frame carrying the same correlation id and
    /// query id.
    Request,
    /// An encoded [`Response`] to the request with the same correlation id;
    /// the query id echoes the request's.
    Response,
    /// Distributed-barrier notification: payload is the `epoch: u64` alone
    /// (arrivals are counted, not attributed). Cluster-scoped (query id 0):
    /// only the one-shot baselines barrier, never concurrently with other
    /// queries. One-way; no response frame.
    Barrier,
    /// A worker process delivering its engine result to the coordinator.
    /// Payload layout is owned by the caller (opaque here); the query id
    /// names the query the result belongs to, so concurrent queries'
    /// results collect independently. One-way.
    Result,
    /// Coordinator-to-worker shutdown order. Empty payload. One-way.
    Shutdown,
    /// A worker process shipping a metrics snapshot to the coordinator for
    /// cluster-wide aggregation (periodically during a run and once after
    /// the engine finishes). Payload is the `rads-obs` binary snapshot
    /// codec; correlation id is the sending machine's id. One-way.
    Metrics,
    /// One chunk of a message too large for a single frame: payload is
    /// `[sequence: u32 LE][payload chunk]`, correlation id and query id are
    /// the message's. Never surfaced by [`read_message`] — runs are
    /// reassembled into the final frame's kind.
    Continue,
    /// Serving mode, client → serve coordinator: a query submission on a
    /// client connection. The payload layout is owned by the serve layer
    /// (`rads-serve`); the correlation id is a client-chosen request id the
    /// server echoes in the [`FrameKind::QueryResult`] reply.
    Query,
    /// Serving mode, serve coordinator → client: the reply to the `Query`
    /// frame with the same correlation id (counts + per-query stats, or a
    /// structured admission/execution error). The query id carries the
    /// server-assigned [`QueryId`] (0 if the query was never admitted).
    /// Payload owned by the serve layer.
    QueryResult,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Request => 2,
            FrameKind::Response => 3,
            FrameKind::Barrier => 4,
            FrameKind::Result => 5,
            FrameKind::Shutdown => 6,
            FrameKind::Continue => 7,
            FrameKind::Metrics => 8,
            FrameKind::Query => 9,
            FrameKind::QueryResult => 10,
        }
    }

    fn from_u8(raw: u8) -> Result<Self, WireError> {
        Ok(match raw {
            1 => FrameKind::Hello,
            2 => FrameKind::Request,
            3 => FrameKind::Response,
            4 => FrameKind::Barrier,
            5 => FrameKind::Result,
            6 => FrameKind::Shutdown,
            7 => FrameKind::Continue,
            8 => FrameKind::Metrics,
            9 => FrameKind::Query,
            10 => FrameKind::QueryResult,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Pairs responses with requests; 0 for control frames.
    pub correlation: u64,
    /// The query this frame belongs to; [`QueryId::SOLO`] for cluster-scoped
    /// control frames and all single-tenant traffic.
    pub query: QueryId,
    /// The encoded message.
    pub payload: Vec<u8>,
}

/// Why a byte sequence is not a valid message or frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the message did.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The declared body length.
        declared: usize,
    },
    /// The length prefix is smaller than the fixed body header.
    FrameTooSmall {
        /// The declared body length.
        declared: usize,
    },
    /// The frame's version byte is not this build's [`version_byte`]: the
    /// peer speaks a different protocol revision (v1 frames put the kind
    /// byte here, so they fail this check by construction) or the stream is
    /// corrupt.
    Version {
        /// The version byte the frame carried.
        got: u8,
    },
    /// The frame kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// A message tag byte is not a known variant.
    UnknownTag(u8),
    /// A length-prefixed string field is not valid UTF-8.
    BadString,
    /// The message decoded but bytes were left over.
    TrailingBytes {
        /// How many undecoded bytes followed the message.
        extra: usize,
    },
    /// A frame inside a continuation run carried a different correlation id
    /// than the frame that started the run — runs must be contiguous on
    /// their connection.
    ContinuationMismatch {
        /// Correlation id of the frame that started the run.
        expected: u64,
        /// Correlation id of the offending frame.
        got: u64,
    },
    /// A frame carried a different query id than its context requires: a
    /// continuation run switched query mid-run, or a response answered
    /// under a different query than the request was issued for.
    QueryMismatch {
        /// The query id the receiver expected.
        expected: u64,
        /// The query id the frame carried.
        got: u64,
    },
    /// A [`FrameKind::Continue`] frame arrived with the wrong sequence
    /// number (runs are strictly in-order, starting at 0).
    ContinuationOutOfOrder {
        /// The sequence number the reassembler was waiting for.
        expected: u32,
        /// The sequence number the frame carried.
        got: u32,
    },
    /// A reassembled message grew past [`MAX_MESSAGE_BYTES`].
    MessageTooLarge {
        /// The configured ceiling that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::FrameTooLarge { declared } => {
                write!(f, "frame body of {declared} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            WireError::FrameTooSmall { declared } => write!(
                f,
                "frame body of {declared} bytes is smaller than the \
                 {BODY_HEADER_BYTES}-byte body header"
            ),
            WireError::Version { got } => write!(
                f,
                "frame version byte {got:#04x} does not match wire version {WIRE_VERSION} \
                 (version byte {:#04x}): peer speaks an incompatible protocol revision",
                version_byte()
            ),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadString => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
            WireError::ContinuationMismatch { expected, got } => write!(
                f,
                "continuation run for correlation {expected} interrupted by a frame \
                 with correlation {got}"
            ),
            WireError::QueryMismatch { expected, got } => {
                write!(f, "frame for query {got} where query {expected} was expected")
            }
            WireError::ContinuationOutOfOrder { expected, got } => write!(
                f,
                "continuation frame out of order: expected sequence {expected}, got {got}"
            ),
            WireError::MessageTooLarge { limit } => {
                write!(f, "reassembled message exceeds the {limit}-byte message cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------------
// primitive encode / decode
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked reader over an encoded message.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length field that is about to size an allocation of `elem_bytes`
    /// per element: checked against the bytes actually remaining, so a lying
    /// length cannot over-allocate.
    fn checked_len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn vertices(&mut self) -> Result<Vec<VertexId>, WireError> {
        let n = self.checked_len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes { extra: self.remaining() });
        }
        Ok(())
    }
}

fn put_vertices(buf: &mut Vec<u8>, vs: &[VertexId]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_u32(buf, v);
    }
}

// ---------------------------------------------------------------------------
// message codec
// ---------------------------------------------------------------------------

const REQ_VERIFY_EDGES: u8 = 0;
const REQ_FETCH_VERTICES: u8 = 1;
const REQ_CHECK_REGION_GROUPS: u8 = 2;
const REQ_SHARE_REGION_GROUP: u8 = 3;
const REQ_DELIVER_ROWS: u8 = 4;
const REQ_QUERY: u8 = 5;

const RESP_EDGE_VERIFICATION: u8 = 0;
const RESP_ADJACENCY: u8 = 1;
const RESP_REGION_GROUP_COUNT: u8 = 2;
const RESP_REGION_GROUPS: u8 = 3;
const RESP_ACK: u8 = 4;
const RESP_UNSUPPORTED: u8 = 5;
const RESP_QUERY_DONE: u8 = 6;

/// Appends the encoding of `request` to `buf`.
pub fn encode_request(request: &Request, buf: &mut Vec<u8>) {
    match request {
        Request::VerifyEdges(pairs) => {
            buf.push(REQ_VERIFY_EDGES);
            put_u32(buf, pairs.len() as u32);
            for &(u, v) in pairs {
                put_u32(buf, u);
                put_u32(buf, v);
            }
        }
        Request::FetchVertices(vs) => {
            buf.push(REQ_FETCH_VERTICES);
            put_vertices(buf, vs);
        }
        Request::CheckRegionGroups => buf.push(REQ_CHECK_REGION_GROUPS),
        Request::ShareRegionGroup => buf.push(REQ_SHARE_REGION_GROUP),
        Request::DeliverRows { tag, rows } => {
            buf.push(REQ_DELIVER_ROWS);
            put_u32(buf, *tag);
            put_u32(buf, rows.len() as u32);
            for row in rows {
                put_vertices(buf, row);
            }
        }
        Request::Query { id, pattern, budget } => {
            buf.push(REQ_QUERY);
            put_u64(buf, *id);
            put_u32(buf, pattern.len() as u32);
            buf.extend_from_slice(pattern.as_bytes());
            match budget {
                Some(bytes) => {
                    buf.push(1);
                    put_u64(buf, *bytes);
                }
                None => buf.push(0),
            }
        }
    }
}

/// Decodes exactly one [`Request`] from `buf` (trailing bytes are an error).
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(buf);
    let request = read_request(&mut r)?;
    r.finish()?;
    Ok(request)
}

fn read_request(r: &mut Reader<'_>) -> Result<Request, WireError> {
    Ok(match r.u8()? {
        REQ_VERIFY_EDGES => {
            let n = r.checked_len(8)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((r.u32()?, r.u32()?));
            }
            Request::VerifyEdges(pairs)
        }
        REQ_FETCH_VERTICES => Request::FetchVertices(r.vertices()?),
        REQ_CHECK_REGION_GROUPS => Request::CheckRegionGroups,
        REQ_SHARE_REGION_GROUP => Request::ShareRegionGroup,
        REQ_DELIVER_ROWS => {
            let tag = r.u32()?;
            let n = r.checked_len(4)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(r.vertices()?);
            }
            Request::DeliverRows { tag, rows }
        }
        REQ_QUERY => {
            let id = r.u64()?;
            let len = r.checked_len(1)?;
            let pattern = String::from_utf8(r.take(len)?.to_vec())
                .map_err(|_| WireError::BadString)?;
            let budget = match r.u8()? {
                0 => None,
                _ => Some(r.u64()?),
            };
            Request::Query { id, pattern, budget }
        }
        other => return Err(WireError::UnknownTag(other)),
    })
}

/// Appends the encoding of `envelope` to `buf`:
/// `[query: u64 LE][seq: u64 LE][encoded request]`.
///
/// This is what a [`FrameKind::Request`] frame carries. The query id is
/// *also* stamped into the frame header (see [`write_frame`]) so routers
/// can classify a frame without decoding its payload; the receiver checks
/// the two agree ([`WireError::QueryMismatch`] if not).
pub fn encode_envelope(envelope: &Envelope, buf: &mut Vec<u8>) {
    put_u64(buf, envelope.query.0);
    put_u64(buf, envelope.seq);
    encode_request(&envelope.body, buf);
}

/// Decodes exactly one [`Envelope`] from `buf` (trailing bytes are an
/// error).
pub fn decode_envelope(buf: &[u8]) -> Result<Envelope, WireError> {
    let mut r = Reader::new(buf);
    let query = QueryId(r.u64()?);
    let seq = r.u64()?;
    let body = read_request(&mut r)?;
    r.finish()?;
    Ok(Envelope { query, seq, body })
}

/// Appends the encoding of `response` to `buf`.
pub fn encode_response(response: &Response, buf: &mut Vec<u8>) {
    match response {
        Response::EdgeVerification(bits) => {
            buf.push(RESP_EDGE_VERIFICATION);
            put_u32(buf, bits.len() as u32);
            buf.extend(bits.iter().map(|&b| b as u8));
        }
        Response::Adjacency(lists) => {
            buf.push(RESP_ADJACENCY);
            put_u32(buf, lists.len() as u32);
            for (v, adj) in lists {
                put_u32(buf, *v);
                put_vertices(buf, adj);
            }
        }
        Response::RegionGroupCount(n) => {
            buf.push(RESP_REGION_GROUP_COUNT);
            put_u64(buf, *n as u64);
        }
        Response::RegionGroups(groups) => {
            buf.push(RESP_REGION_GROUPS);
            put_u32(buf, groups.len() as u32);
            for group in groups {
                put_vertices(buf, group);
            }
        }
        Response::Ack => buf.push(RESP_ACK),
        Response::Unsupported => buf.push(RESP_UNSUPPORTED),
        Response::QueryDone(payload) => {
            buf.push(RESP_QUERY_DONE);
            put_u32(buf, payload.len() as u32);
            buf.extend_from_slice(payload);
        }
    }
}

/// Decodes exactly one [`Response`] from `buf` (trailing bytes are an error).
pub fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(buf);
    let response = match r.u8()? {
        RESP_EDGE_VERIFICATION => {
            let n = r.checked_len(1)?;
            let bytes = r.take(n)?;
            Response::EdgeVerification(bytes.iter().map(|&b| b != 0).collect())
        }
        RESP_ADJACENCY => {
            let n = r.checked_len(8)?;
            let mut lists = Vec::with_capacity(n);
            for _ in 0..n {
                let v = r.u32()?;
                lists.push((v, r.vertices()?));
            }
            Response::Adjacency(lists)
        }
        RESP_REGION_GROUP_COUNT => Response::RegionGroupCount(r.u64()? as usize),
        RESP_REGION_GROUPS => {
            let n = r.checked_len(4)?;
            let mut groups = Vec::with_capacity(n);
            for _ in 0..n {
                groups.push(r.vertices()?);
            }
            Response::RegionGroups(groups)
        }
        RESP_ACK => Response::Ack,
        RESP_UNSUPPORTED => Response::Unsupported,
        RESP_QUERY_DONE => {
            let len = r.checked_len(1)?;
            Response::QueryDone(r.take(len)?.to_vec())
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(response)
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

/// Writes one frame and returns the total bytes put on the wire (header +
/// payload) — the number the socket transport's traffic accounting records.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    correlation: u64,
    query: QueryId,
    payload: &[u8],
) -> io::Result<usize> {
    let body_len = payload.len() + BODY_HEADER_BYTES;
    if body_len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { declared: body_len }.into());
    }
    // One contiguous write: with TCP_NODELAY, a separate header write would
    // flush as its own segment, doubling the packet count of the
    // small-frame-dominated fetchV/verifyE traffic.
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.push(version_byte());
    frame.push(kind.to_u8());
    frame.extend_from_slice(&correlation.to_le_bytes());
    frame.extend_from_slice(&query.0.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// The bytes [`write_frame`] puts on the wire for a payload of `payload_len`
/// bytes.
pub fn frame_bytes(payload_len: usize) -> usize {
    FRAME_HEADER_BYTES + payload_len
}

/// Reads one frame. Returns `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames); end-of-stream in the middle of a frame, an
/// oversized or undersized length prefix, a version-byte mismatch and an
/// unknown kind byte are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no next frame" from "frame cut short": EOF on the very
    // first byte is a clean close, EOF after it is truncation.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let body_len = u32::from_le_bytes(len_buf) as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { declared: body_len }.into());
    }
    if body_len < BODY_HEADER_BYTES {
        return Err(WireError::FrameTooSmall { declared: body_len }.into());
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated.into()
        } else {
            e
        }
    })?;
    if body[0] != version_byte() {
        return Err(WireError::Version { got: body[0] }.into());
    }
    let kind = FrameKind::from_u8(body[1]).map_err(io::Error::from)?;
    let correlation = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
    let query = QueryId(u64::from_le_bytes(body[10..18].try_into().expect("8 bytes")));
    Ok(Some(Frame { kind, correlation, query, payload: body[BODY_HEADER_BYTES..].to_vec() }))
}

// ---------------------------------------------------------------------------
// multi-frame messages
// ---------------------------------------------------------------------------

/// Writes one logical message of `kind`, splitting payloads that do not fit
/// in a single frame into a [`FrameKind::Continue`] run (see the module
/// docs). Returns the total bytes put on the wire over all frames — the
/// number the socket transport's traffic accounting records. A message that
/// fits in one frame produces byte-for-byte the same wire output as
/// [`write_frame`].
pub fn write_message(
    w: &mut impl Write,
    kind: FrameKind,
    correlation: u64,
    query: QueryId,
    payload: &[u8],
) -> io::Result<usize> {
    write_message_with_cap(w, kind, correlation, query, payload, MAX_FRAME_BYTES)
}

/// [`write_message`] with an explicit frame cap, so tests can exercise
/// multi-frame splits without materializing 64 MiB payloads. `frame_cap`
/// bounds each frame's *body* length (body header + payload chunk) exactly
/// like [`MAX_FRAME_BYTES`] bounds production frames.
pub fn write_message_with_cap(
    w: &mut impl Write,
    kind: FrameKind,
    correlation: u64,
    query: QueryId,
    payload: &[u8],
    frame_cap: usize,
) -> io::Result<usize> {
    assert!(kind != FrameKind::Continue, "Continue frames are emitted here, never passed in");
    let chunk_cap = frame_cap
        .checked_sub(BODY_HEADER_BYTES + CONTINUE_SEQ_BYTES)
        .filter(|&c| c > 0)
        .expect("frame cap must leave room for a body header, a sequence number and data");
    if payload.len() + BODY_HEADER_BYTES <= frame_cap {
        return write_frame(w, kind, correlation, query, payload);
    }
    // All chunks except the last travel as Continue frames; the final chunk
    // rides in the frame of the real kind, which is what tells the reader
    // the run is over.
    let mut written = 0;
    let mut chunks = payload.chunks(chunk_cap).enumerate().peekable();
    while let Some((seq, chunk)) = chunks.next() {
        if chunks.peek().is_some() {
            let mut body = Vec::with_capacity(CONTINUE_SEQ_BYTES + chunk.len());
            body.extend_from_slice(&(seq as u32).to_le_bytes());
            body.extend_from_slice(chunk);
            written += write_frame(w, FrameKind::Continue, correlation, query, &body)?;
        } else {
            written += write_frame(w, kind, correlation, query, chunk)?;
        }
    }
    Ok(written)
}

/// Reads one logical message: a plain frame is returned as-is, a
/// [`FrameKind::Continue`] run is reassembled into a single [`Frame`] of
/// the terminating frame's kind. Returns `Ok(None)` on a clean end-of-stream
/// *between* messages; a stream that ends mid-run is [`WireError::Truncated`],
/// and a run that switches correlation id or query id, skips a sequence
/// number or grows past [`MAX_MESSAGE_BYTES`] is rejected with the matching
/// [`WireError`].
pub fn read_message(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let Some(first) = read_frame(r)? else { return Ok(None) };
    if first.kind != FrameKind::Continue {
        return Ok(Some(first));
    }
    let correlation = first.correlation;
    let query = first.query;
    let mut assembled = continuation_chunk(&first, correlation, 0)?.to_vec();
    let mut next_seq: u32 = 1;
    loop {
        if assembled.len() > MAX_MESSAGE_BYTES {
            return Err(WireError::MessageTooLarge { limit: MAX_MESSAGE_BYTES }.into());
        }
        let Some(frame) = read_frame(r)? else {
            // the peer closed with the run unterminated
            return Err(WireError::Truncated.into());
        };
        if frame.correlation != correlation {
            return Err(WireError::ContinuationMismatch {
                expected: correlation,
                got: frame.correlation,
            }
            .into());
        }
        if frame.query != query {
            return Err(
                WireError::QueryMismatch { expected: query.0, got: frame.query.0 }.into()
            );
        }
        if frame.kind == FrameKind::Continue {
            assembled.extend_from_slice(continuation_chunk(&frame, correlation, next_seq)?);
            next_seq = next_seq
                .checked_add(1)
                .ok_or(WireError::MessageTooLarge { limit: MAX_MESSAGE_BYTES })?;
        } else {
            assembled.extend_from_slice(&frame.payload);
            return Ok(Some(Frame { kind: frame.kind, correlation, query, payload: assembled }));
        }
    }
}

/// Validates one [`FrameKind::Continue`] frame of a run and returns its data
/// chunk (the payload behind the sequence prefix).
fn continuation_chunk(
    frame: &Frame,
    correlation: u64,
    expected_seq: u32,
) -> Result<&[u8], WireError> {
    debug_assert_eq!(frame.correlation, correlation);
    if frame.payload.len() < CONTINUE_SEQ_BYTES {
        return Err(WireError::Truncated);
    }
    let seq = u32::from_le_bytes(frame.payload[..CONTINUE_SEQ_BYTES].try_into().expect("4 bytes"));
    if seq != expected_seq {
        return Err(WireError::ContinuationOutOfOrder { expected: expected_seq, got: seq });
    }
    Ok(&frame.payload[CONTINUE_SEQ_BYTES..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let mut buf = Vec::new();
        encode_request(&request, &mut buf);
        assert_eq!(decode_request(&buf), Ok(request));
    }

    fn roundtrip_response(response: Response) {
        let mut buf = Vec::new();
        encode_response(&response, &mut buf);
        assert_eq!(decode_response(&buf), Ok(response));
    }

    fn roundtrip_envelope(envelope: Envelope) {
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        assert_eq!(decode_envelope(&buf), Ok(envelope));
    }

    #[test]
    fn every_request_variant_round_trips() {
        roundtrip_request(Request::VerifyEdges(vec![]));
        roundtrip_request(Request::VerifyEdges(vec![(0, 1), (u32::MAX, 7)]));
        roundtrip_request(Request::FetchVertices(vec![]));
        roundtrip_request(Request::FetchVertices(vec![3, 1, 4, 1, 5]));
        roundtrip_request(Request::CheckRegionGroups);
        roundtrip_request(Request::ShareRegionGroup);
        roundtrip_request(Request::DeliverRows { tag: 0, rows: vec![] });
        roundtrip_request(Request::DeliverRows {
            tag: u32::MAX,
            rows: vec![vec![], vec![1], vec![2, 3, 4]],
        });
        roundtrip_request(Request::Query { id: 0, pattern: String::new(), budget: None });
        roundtrip_request(Request::Query {
            id: u64::MAX,
            pattern: "q5".to_string(),
            budget: Some(64 * 1024),
        });
    }

    #[test]
    fn envelopes_round_trip_with_their_scope() {
        roundtrip_envelope(Envelope::solo(Request::CheckRegionGroups));
        roundtrip_envelope(Envelope::new(
            QueryId(17),
            3,
            Request::FetchVertices(vec![1, 2, 3]),
        ));
        roundtrip_envelope(Envelope::new(
            QueryId(u64::MAX),
            u64::MAX,
            Request::Query { id: u64::MAX, pattern: "q8".into(), budget: Some(1) },
        ));
    }

    #[test]
    fn envelope_decoding_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        encode_envelope(&Envelope::solo(Request::ShareRegionGroup), &mut buf);
        buf.push(0);
        assert_eq!(decode_envelope(&buf), Err(WireError::TrailingBytes { extra: 1 }));
        assert_eq!(decode_envelope(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn query_with_invalid_utf8_pattern_is_rejected() {
        let mut buf = vec![5u8]; // REQ_QUERY
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]); // not UTF-8
        buf.push(0); // no budget
        assert_eq!(decode_request(&buf), Err(WireError::BadString));
    }

    #[test]
    fn every_response_variant_round_trips() {
        roundtrip_response(Response::EdgeVerification(vec![]));
        roundtrip_response(Response::EdgeVerification(vec![true, false, true]));
        roundtrip_response(Response::Adjacency(vec![]));
        // empty adjacency lists are a legal and common payload (a vertex the
        // partition does not own)
        roundtrip_response(Response::Adjacency(vec![(9, vec![]), (2, vec![0, 5])]));
        roundtrip_response(Response::RegionGroupCount(0));
        roundtrip_response(Response::RegionGroupCount(usize::MAX));
        roundtrip_response(Response::RegionGroups(vec![]));
        roundtrip_response(Response::RegionGroups(vec![vec![]]));
        roundtrip_response(Response::RegionGroups(vec![vec![8, 8, 8]]));
        roundtrip_response(Response::RegionGroups(vec![vec![1, 2], vec![], vec![u32::MAX]]));
        roundtrip_response(Response::Ack);
        roundtrip_response(Response::Unsupported);
        roundtrip_response(Response::QueryDone(vec![]));
        roundtrip_response(Response::QueryDone(vec![0, 1, 2, 255]));
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        encode_request(&Request::FetchVertices(vec![1, 2, 3]), &mut payload);
        let n1 = write_frame(&mut wire, FrameKind::Request, 42, QueryId(7), &payload).unwrap();
        let n2 = write_frame(&mut wire, FrameKind::Shutdown, 0, QueryId::SOLO, &[]).unwrap();
        assert_eq!(n1, frame_bytes(payload.len()));
        assert_eq!(n2, frame_bytes(0));
        assert_eq!(wire.len(), n1 + n2);

        let mut cursor = wire.as_slice();
        let f1 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(f1.kind, FrameKind::Request);
        assert_eq!(f1.correlation, 42);
        assert_eq!(f1.query, QueryId(7));
        assert_eq!(decode_request(&f1.payload), Ok(Request::FetchVertices(vec![1, 2, 3])));
        let f2 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(
            (f2.kind, f2.correlation, f2.query, f2.payload.len()),
            (FrameKind::Shutdown, 0, QueryId::SOLO, 0)
        );
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after the last frame");
    }

    #[test]
    fn v1_frames_are_rejected_with_a_typed_version_error() {
        // A protocol-revision-1 frame: body = [kind u8][correlation u64]
        // [payload], no version byte. Its first body byte is the kind
        // (1..=10), which can never equal version_byte() — so the reader
        // reports a Version error, not a misparse.
        let payload = vec![0u8; 16];
        let mut wire = Vec::new();
        wire.extend_from_slice(&((payload.len() + 9) as u32).to_le_bytes());
        wire.push(2); // v1 FrameKind::Request
        wire.extend_from_slice(&42u64.to_le_bytes());
        wire.extend_from_slice(&payload);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("incompatible protocol revision"), "{err}");
    }

    #[test]
    fn version_byte_cannot_collide_with_v1_kind_bytes() {
        // every v1 kind byte (1..=10) occupied the position the version
        // byte now holds; the high-nibble mark keeps them disjoint
        for kind in 1..=10u8 {
            assert_ne!(version_byte(), kind);
        }
        assert_eq!(version_byte(), 0xA0 | WIRE_VERSION);
    }

    #[test]
    fn future_wire_versions_are_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Hello, 0, QueryId::SOLO, &[1, 2, 3, 4]).unwrap();
        wire[4] = VERSION_MARK | (WIRE_VERSION + 1);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(err.to_string().contains("incompatible protocol revision"), "{err}");
    }

    #[test]
    fn truncated_header_is_rejected() {
        // 2 of the 4 length-prefix bytes
        let mut cursor: &[u8] = &[7, 0];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn truncated_body_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Response, 1, QueryId::SOLO, &[9, 9, 9, 9]).unwrap();
        wire.truncate(wire.len() - 2);
        let mut cursor = wire.as_slice();
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 32]);
        let mut cursor = wire.as_slice();
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn undersized_length_prefix_is_rejected() {
        // body length 3 cannot even hold the body header
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(&[2, 0, 0]);
        let mut cursor = wire.as_slice();
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("smaller"), "{err}");
    }

    #[test]
    fn unknown_frame_kind_is_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Hello, 0, QueryId::SOLO, &[1, 2, 3]).unwrap();
        wire[5] = 250; // corrupt the kind byte (offset 4 is the version byte)
        let mut cursor = wire.as_slice();
        let err = read_frame(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("unknown frame kind"), "{err}");
    }

    #[test]
    fn unknown_message_tags_are_rejected() {
        assert_eq!(decode_request(&[200]), Err(WireError::UnknownTag(200)));
        assert_eq!(decode_response(&[200]), Err(WireError::UnknownTag(200)));
    }

    #[test]
    fn empty_and_truncated_messages_are_rejected() {
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
        assert_eq!(decode_response(&[]), Err(WireError::Truncated));
        // FetchVertices claiming 5 vertices but carrying 1
        let mut buf = Vec::new();
        encode_request(&Request::FetchVertices(vec![1]), &mut buf);
        buf[1..5].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(decode_request(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn lying_length_fields_cannot_over_allocate() {
        // a 9-byte message claiming 2^32-1 adjacency entries must fail fast
        let mut buf = vec![RESP_ADJACENCY];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(decode_response(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_request(&Request::CheckRegionGroups, &mut buf);
        buf.push(0);
        assert_eq!(decode_request(&buf), Err(WireError::TrailingBytes { extra: 1 }));
        let mut buf = Vec::new();
        encode_response(&Response::Ack, &mut buf);
        buf.extend_from_slice(&[1, 2]);
        assert_eq!(decode_response(&buf), Err(WireError::TrailingBytes { extra: 2 }));
    }

    #[test]
    fn oversized_write_is_rejected() {
        let payload = vec![0u8; MAX_FRAME_BYTES - 8];
        let err =
            write_frame(&mut Vec::new(), FrameKind::Result, 0, QueryId::SOLO, &payload)
                .unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn bool_encoding_is_one_byte_per_edge() {
        let mut buf = Vec::new();
        encode_response(&Response::EdgeVerification(vec![true; 10]), &mut buf);
        assert_eq!(buf.len(), 1 + 4 + 10);
    }

    #[test]
    fn single_frame_messages_are_byte_identical_to_write_frame() {
        let mut payload = Vec::new();
        encode_request(&Request::FetchVertices(vec![1, 2, 3]), &mut payload);
        let mut as_frame = Vec::new();
        let mut as_message = Vec::new();
        let n1 = write_frame(&mut as_frame, FrameKind::Request, 9, QueryId(3), &payload).unwrap();
        let n2 =
            write_message(&mut as_message, FrameKind::Request, 9, QueryId(3), &payload).unwrap();
        assert_eq!(as_frame, as_message);
        assert_eq!(n1, n2);
    }

    #[test]
    fn oversized_messages_round_trip_through_a_continuation_run() {
        // a payload needing 3+ frames under a tiny cap (chunk budget 64-18-4=42)
        let payload: Vec<u8> = (0..=255u8).cycle().take(150).collect();
        let mut wire = Vec::new();
        let written =
            write_message_with_cap(&mut wire, FrameKind::Response, 77, QueryId(5), &payload, 64)
                .unwrap();
        assert_eq!(written, wire.len());
        // the run is visible as raw frames: Continue*, then Response
        let mut cursor = wire.as_slice();
        let kinds: Vec<FrameKind> =
            std::iter::from_fn(|| read_frame(&mut cursor).unwrap().map(|f| f.kind)).collect();
        assert_eq!(kinds.last(), Some(&FrameKind::Response));
        assert!(kinds[..kinds.len() - 1].iter().all(|&k| k == FrameKind::Continue));
        assert!(kinds.len() >= 3, "expected a multi-frame run, got {kinds:?}");
        // and reassembles into one logical frame carrying the query scope
        let mut cursor = wire.as_slice();
        let frame = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(
            (frame.kind, frame.correlation, frame.query),
            (FrameKind::Response, 77, QueryId(5))
        );
        assert_eq!(frame.payload, payload);
        assert!(read_message(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_continuation_runs_are_rejected() {
        let payload = vec![7u8; 200];
        let mut wire = Vec::new();
        write_message_with_cap(&mut wire, FrameKind::Response, 5, QueryId::SOLO, &payload, 64)
            .unwrap();
        // drop the terminating frame: clean EOF mid-run must not look like a
        // clean close
        let mut cursor = wire.as_slice();
        let first = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(first.kind, FrameKind::Continue);
        let mut one_frame = Vec::new();
        write_frame(&mut one_frame, first.kind, first.correlation, first.query, &first.payload)
            .unwrap();
        let err = read_message(&mut one_frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn continuation_correlation_switches_are_rejected() {
        let payload = vec![1u8; 200];
        let mut wire = Vec::new();
        write_message_with_cap(&mut wire, FrameKind::Response, 10, QueryId::SOLO, &payload, 64)
            .unwrap();
        // retag the terminating frame with a different correlation id
        let mut frames = Vec::new();
        let mut cursor = wire.as_slice();
        while let Some(f) = read_frame(&mut cursor).unwrap() {
            frames.push(f);
        }
        let mut rewired = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            let corr = if i == frames.len() - 1 { 999 } else { f.correlation };
            write_frame(&mut rewired, f.kind, corr, f.query, &f.payload).unwrap();
        }
        let err = read_message(&mut rewired.as_slice()).unwrap_err();
        assert!(err.to_string().contains("correlation 999"), "{err}");
    }

    #[test]
    fn continuation_query_switches_are_rejected() {
        let payload = vec![3u8; 200];
        let mut wire = Vec::new();
        write_message_with_cap(&mut wire, FrameKind::Response, 10, QueryId(1), &payload, 64)
            .unwrap();
        // retag the terminating frame with a different query id: an
        // interleaving bug upstream must not splice two queries' payloads
        let mut frames = Vec::new();
        let mut cursor = wire.as_slice();
        while let Some(f) = read_frame(&mut cursor).unwrap() {
            frames.push(f);
        }
        let mut rewired = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            let q = if i == frames.len() - 1 { QueryId(2) } else { f.query };
            write_frame(&mut rewired, f.kind, f.correlation, q, &f.payload).unwrap();
        }
        let err = read_message(&mut rewired.as_slice()).unwrap_err();
        assert!(err.to_string().contains("query 2"), "{err}");
    }

    #[test]
    fn out_of_order_continuation_sequences_are_rejected() {
        let payload = vec![2u8; 300];
        let mut wire = Vec::new();
        write_message_with_cap(&mut wire, FrameKind::Response, 4, QueryId::SOLO, &payload, 64)
            .unwrap();
        let mut frames = Vec::new();
        let mut cursor = wire.as_slice();
        while let Some(f) = read_frame(&mut cursor).unwrap() {
            frames.push(f);
        }
        assert!(frames.len() >= 3);
        frames.swap(0, 1); // two Continue frames out of order
        let mut rewired = Vec::new();
        for f in &frames {
            write_frame(&mut rewired, f.kind, f.correlation, f.query, &f.payload).unwrap();
        }
        let err = read_message(&mut rewired.as_slice()).unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
    }

    #[test]
    fn adjacency_response_above_the_frame_cap_round_trips() {
        // One adjacency list whose encoding alone exceeds MAX_FRAME_BYTES
        // (> 16 Mi neighbours at 4 bytes each): the hard limit PR 5 left in
        // place, now carried by a real continuation run.
        let neighbours: Vec<VertexId> = (0..17_000_000u32).collect();
        let response = Response::Adjacency(vec![(42, neighbours.clone())]);
        let mut payload = Vec::new();
        encode_response(&response, &mut payload);
        assert!(
            payload.len() + BODY_HEADER_BYTES > MAX_FRAME_BYTES,
            "payload must exceed one frame"
        );

        let mut wire = Vec::new();
        let written =
            write_message(&mut wire, FrameKind::Response, 31, QueryId(2), &payload).unwrap();
        assert_eq!(written, wire.len());
        assert!(written > payload.len(), "continuation headers add real wire bytes");

        let mut cursor = wire.as_slice();
        let frame = read_message(&mut cursor).unwrap().unwrap();
        assert!(read_message(&mut cursor).unwrap().is_none());
        assert_eq!(
            (frame.kind, frame.correlation, frame.query),
            (FrameKind::Response, 31, QueryId(2))
        );
        match decode_response(&frame.payload).unwrap() {
            Response::Adjacency(lists) => {
                assert_eq!(lists.len(), 1);
                assert_eq!(lists[0].0, 42);
                assert_eq!(lists[0].1, neighbours);
            }
            other => panic!("expected an adjacency response, got {other:?}"),
        }
    }
}
