//! Resilience of the socket wire decoder: whatever bytes a broken, killed
//! or hostile peer leaves on a connection, the decoder must answer with a
//! *typed* [`WireError`] — never a panic, never an over-allocation, never a
//! silently wrong value. The fault-tolerant runtime leans on this totality:
//! `TransportError::Decode` is only a recoverable, retryable condition
//! because the layer below cannot bring the process down.
//!
//! The fuzz loops are deterministic (a fixed-seed xorshift generator), so a
//! failure reproduces byte-for-byte.

use std::io::{self, Read};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rads_runtime::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, read_message,
    version_byte, write_frame, write_message_with_cap, FrameKind, WireError, CONTINUE_SEQ_BYTES,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use rads_runtime::{
    Daemon, Envelope, NetworkStats, PeerAddr, QueryId, Request, Response, SocketListener,
    SocketNode,
};

/// Deterministic xorshift64* stream — the whole suite's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The typed wire error inside an `io::Error`, if that is what it carries.
fn wire_error(e: &io::Error) -> Option<&WireError> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<WireError>())
}

fn sample_requests(rng: &mut Rng) -> Request {
    match rng.below(5) {
        0 => Request::VerifyEdges(
            (0..rng.below(20)).map(|_| (rng.next() as u32, rng.next() as u32)).collect(),
        ),
        1 => Request::FetchVertices((0..rng.below(30)).map(|_| rng.next() as u32).collect()),
        2 => Request::CheckRegionGroups,
        3 => Request::ShareRegionGroup,
        _ => Request::DeliverRows {
            tag: rng.next() as u32,
            rows: (0..rng.below(6))
                .map(|_| (0..rng.below(5)).map(|_| rng.next() as u32).collect())
                .collect(),
        },
    }
}

fn sample_responses(rng: &mut Rng) -> Response {
    match rng.below(6) {
        0 => Response::EdgeVerification((0..rng.below(25)).map(|_| rng.next().is_multiple_of(2)).collect()),
        1 => Response::Adjacency(
            (0..rng.below(8))
                .map(|_| {
                    (rng.next() as u32, (0..rng.below(10)).map(|_| rng.next() as u32).collect())
                })
                .collect(),
        ),
        2 => Response::RegionGroupCount(rng.below(1 << 20)),
        // none, one or many groups, inner groups possibly empty
        3 => Response::RegionGroups(
            (0..rng.below(5))
                .map(|_| (0..rng.below(12)).map(|_| rng.next() as u32).collect())
                .collect(),
        ),
        4 => Response::RegionGroups(Vec::new()),
        _ => Response::Ack,
    }
}

/// Truncating a valid message encoding at *every* prefix length yields a
/// typed error (or, coincidentally, another valid value — a prefix of a
/// vertex list is still a vertex list), never a panic.
#[test]
fn every_truncation_of_a_valid_message_decodes_or_errors() {
    let mut rng = Rng(0x5EED_0001);
    for _ in 0..200 {
        let mut buf = Vec::new();
        if rng.next().is_multiple_of(2) {
            encode_request(&sample_requests(&mut rng), &mut buf);
        } else {
            encode_response(&sample_responses(&mut rng), &mut buf);
        }
        for cut in 0..buf.len() {
            // both decoders must be total over the truncated prefix
            let _ = decode_request(&buf[..cut]);
            let _ = decode_response(&buf[..cut]);
        }
        // the empty input is a typed truncation, not a panic
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
        assert_eq!(decode_response(&[]), Err(WireError::Truncated));
    }
}

/// Pure garbage bytes never panic either decoder, and a lying length field
/// cannot over-allocate: decoding is bounded by the bytes actually present.
#[test]
fn random_garbage_never_panics_the_message_decoders() {
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..500 {
        let garbage: Vec<u8> = (0..rng.below(120)).map(|_| rng.next() as u8).collect();
        let _ = decode_request(&garbage);
        let _ = decode_response(&garbage);
    }
    // a length prefix claiming u32::MAX vertices backed by 4 bytes of data
    // must be a typed truncation (the checked_len guard), not a 16 GiB Vec
    let mut lying = vec![1u8]; // FetchVertices tag
    lying.extend_from_slice(&u32::MAX.to_le_bytes());
    lying.extend_from_slice(&7u32.to_le_bytes());
    assert_eq!(decode_request(&lying), Err(WireError::Truncated));
}

/// A frame cut off at every possible byte boundary: EOF before the first
/// byte is a clean `None`, EOF anywhere inside the frame is
/// [`WireError::Truncated`] — and only the full byte sequence parses.
#[test]
fn partial_frames_are_truncation_errors_never_hangs_or_panics() {
    let mut wire = Vec::new();
    write_frame(&mut wire, FrameKind::Response, 42, QueryId(9), b"some payload bytes")
        .expect("write");
    for cut in 0..wire.len() {
        let mut cursor = &wire[..cut];
        match read_frame(&mut cursor) {
            Ok(None) => assert_eq!(cut, 0, "only the empty stream is a clean close"),
            Ok(Some(_)) => panic!("a {cut}-byte prefix of a {}-byte frame parsed", wire.len()),
            Err(e) => assert_eq!(
                wire_error(&e),
                Some(&WireError::Truncated),
                "cut at {cut}: wrong error {e}"
            ),
        }
    }
    let mut cursor = wire.as_slice();
    let frame = read_frame(&mut cursor).expect("full frame").expect("one frame");
    assert_eq!(frame.correlation, 42);
    assert_eq!(frame.query, QueryId(9));
    assert_eq!(frame.payload, b"some payload bytes");
}

/// Hostile frame headers get the matching typed error: oversized and
/// undersized length prefixes, wrong version bytes, unknown kind bytes.
#[test]
fn hostile_frame_headers_are_typed_errors() {
    // length prefix above the frame cap
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&((MAX_FRAME_BYTES + 1) as u32).to_le_bytes());
    oversized.extend_from_slice(&[0u8; 16]);
    match read_frame(&mut oversized.as_slice()) {
        Err(e) => assert!(
            matches!(wire_error(&e), Some(WireError::FrameTooLarge { .. })),
            "wrong error: {e}"
        ),
        other => panic!("oversized length prefix accepted: {other:?}"),
    }
    // length prefix below the 18-byte body header
    let mut undersized = Vec::new();
    undersized.extend_from_slice(&3u32.to_le_bytes());
    undersized.extend_from_slice(&[0u8; 3]);
    match read_frame(&mut undersized.as_slice()) {
        Err(e) => assert!(
            matches!(wire_error(&e), Some(WireError::FrameTooSmall { .. })),
            "wrong error: {e}"
        ),
        other => panic!("undersized length prefix accepted: {other:?}"),
    }
    // a pre-envelope peer's version byte (or any other stale build): the
    // frame is rejected by version before its kind byte is even looked at
    let mut stale = Vec::new();
    stale.extend_from_slice(&18u32.to_le_bytes()); // body: full header, no payload
    stale.push(0xA1); // version byte of wire version 1
    stale.push(0xEE); // an unknown kind that must NOT be reached
    stale.extend_from_slice(&0u64.to_le_bytes());
    stale.extend_from_slice(&0u64.to_le_bytes());
    match read_frame(&mut stale.as_slice()) {
        Err(e) => assert_eq!(wire_error(&e), Some(&WireError::Version { got: 0xA1 })),
        other => panic!("stale version byte accepted: {other:?}"),
    }
    // unknown kind byte (behind a valid version byte)
    let mut unknown = Vec::new();
    unknown.extend_from_slice(&18u32.to_le_bytes()); // body: version + kind + corr + query
    unknown.push(version_byte());
    unknown.push(0xEE);
    unknown.extend_from_slice(&0u64.to_le_bytes());
    unknown.extend_from_slice(&0u64.to_le_bytes());
    match read_frame(&mut unknown.as_slice()) {
        Err(e) => assert_eq!(wire_error(&e), Some(&WireError::UnknownKind(0xEE))),
        other => panic!("unknown kind byte accepted: {other:?}"),
    }
}

/// Tiny frame cap so continuation runs are cheap to build.
const CAP: usize = 32;

fn continuation_run(correlation: u64, payload_len: usize) -> (Vec<u8>, Vec<u8>) {
    let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
    let mut wire = Vec::new();
    write_message_with_cap(&mut wire, FrameKind::Response, correlation, QueryId(3), &payload, CAP)
        .expect("write run");
    (wire, payload)
}

/// A clean continuation run reassembles exactly; every truncation of it is
/// a typed error. (Baseline for the corruption cases below.)
#[test]
fn continuation_runs_reassemble_and_truncate_cleanly() {
    let (wire, payload) = continuation_run(7, 200);
    let frame = read_message(&mut wire.as_slice()).expect("read run").expect("one message");
    assert_eq!(frame.kind, FrameKind::Response);
    assert_eq!(frame.payload, payload);
    for cut in 1..wire.len() {
        let mut cursor = &wire[..cut];
        match read_message(&mut cursor) {
            Ok(None) => panic!("cut at {cut} read as a clean close"),
            Ok(Some(_)) => panic!("a {cut}-byte prefix of the run parsed"),
            Err(e) => assert!(wire_error(&e).is_some(), "cut at {cut}: untyped error {e}"),
        }
    }
}

/// A frame with a different correlation id injected into a continuation run
/// is [`WireError::ContinuationMismatch`] naming both ids.
#[test]
fn garbage_continuation_interleaving_is_a_mismatch_error() {
    let (run, _) = continuation_run(7, 200);
    // splice an unrelated frame after the run's first frame
    let first_len =
        u32::from_le_bytes(run[..4].try_into().expect("4 bytes")) as usize + 4;
    let mut spliced = run[..first_len].to_vec();
    write_frame(&mut spliced, FrameKind::Response, 99, QueryId(3), b"intruder").expect("write");
    spliced.extend_from_slice(&run[first_len..]);
    match read_message(&mut spliced.as_slice()) {
        Err(e) => assert_eq!(
            wire_error(&e),
            Some(&WireError::ContinuationMismatch { expected: 7, got: 99 })
        ),
        other => panic!("interleaved run accepted: {other:?}"),
    }
}

/// A frame carrying the right correlation id but a *different query id*
/// spliced into a run is [`WireError::QueryMismatch`] — one query's
/// continuation run can never absorb another query's bytes.
#[test]
fn cross_query_continuation_interleaving_is_a_query_mismatch() {
    let (run, _) = continuation_run(7, 200);
    let first_len =
        u32::from_le_bytes(run[..4].try_into().expect("4 bytes")) as usize + 4;
    let mut spliced = run[..first_len].to_vec();
    write_frame(&mut spliced, FrameKind::Response, 7, QueryId(4), b"other query").expect("write");
    spliced.extend_from_slice(&run[first_len..]);
    match read_message(&mut spliced.as_slice()) {
        Err(e) => assert_eq!(
            wire_error(&e),
            Some(&WireError::QueryMismatch { expected: 3, got: 4 })
        ),
        other => panic!("cross-query run accepted: {other:?}"),
    }
}

/// Randomly corrupting a single byte of a continuation run yields a typed
/// error or a (different) well-formed message — never a panic, never an
/// allocation beyond the declared sizes.
#[test]
fn single_byte_corruption_of_runs_never_panics() {
    let mut rng = Rng(0x5EED_0003);
    let (wire, original) = continuation_run(3, 300);
    for _ in 0..400 {
        let mut corrupted = wire.clone();
        let at = rng.below(corrupted.len());
        let flip = (rng.next() as u8) | 1; // never a zero XOR (no-op)
        corrupted[at] ^= flip;
        match read_message(&mut corrupted.as_slice()) {
            // the flip landed in payload bytes: still a structurally valid
            // message (content integrity is the codec layer's job above)
            Ok(Some(frame)) => assert!(frame.payload.len() <= 2 * original.len()),
            Ok(None) => {}
            Err(e) => {
                assert!(
                    wire_error(&e).is_some() || e.kind() == io::ErrorKind::UnexpectedEof,
                    "corruption at {at}: untyped error {e}"
                );
            }
        }
    }
}

/// An out-of-order sequence number inside a run is typed, with both the
/// expected and the received sequence in the error.
#[test]
fn out_of_order_continuation_sequence_is_typed() {
    let (mut wire, _) = continuation_run(5, 200);
    // Frame layout: [len u32][version][kind][corr u64][query u64][seq u32]
    // — bump the first frame's sequence number from 0 to 2.
    let seq_at = 4 + 1 + 1 + 8 + 8;
    assert_eq!(&wire[seq_at..seq_at + CONTINUE_SEQ_BYTES], &0u32.to_le_bytes());
    wire[seq_at..seq_at + CONTINUE_SEQ_BYTES].copy_from_slice(&2u32.to_le_bytes());
    match read_message(&mut wire.as_slice()) {
        Err(e) => assert_eq!(
            wire_error(&e),
            Some(&WireError::ContinuationOutOfOrder { expected: 0, got: 2 })
        ),
        other => panic!("out-of-order run accepted: {other:?}"),
    }
}

/// `FRAME_HEADER_BYTES` really is the framing overhead the accounting
/// assumes — a drifting constant would silently skew every traffic number.
#[test]
fn frame_header_constant_matches_the_wire() {
    let mut wire = Vec::new();
    let written =
        write_frame(&mut wire, FrameKind::Shutdown, 0, QueryId::SOLO, &[]).expect("write");
    assert_eq!(written, FRAME_HEADER_BYTES);
    assert_eq!(wire.len(), FRAME_HEADER_BYTES);
}

struct NoDaemon;

impl Daemon for NoDaemon {
    fn handle(&self, _from: usize, _envelope: Envelope) -> Response {
        Response::Unsupported
    }
}

/// A result frame names its sender in the correlation id — input from the
/// wire, so a node must range-check it like the metrics arm does: a stray
/// or corrupt frame claiming machine 99 of a 2-machine cluster gets the
/// connection dropped and leaves no phantom machine in the heartbeat map.
#[test]
fn a_result_frame_from_an_out_of_range_machine_is_rejected() {
    let listener =
        SocketListener::bind(&PeerAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let PeerAddr::Tcp(addr) = listener.local_addr().expect("bound address") else {
        unreachable!("a TCP listener has a TCP address")
    };
    let addrs = vec![PeerAddr::Tcp(addr.clone()), PeerAddr::Tcp("127.0.0.1:1".to_string())];
    let node = SocketNode::start_with_listener(
        0,
        addrs,
        listener,
        Arc::new(NoDaemon),
        Arc::new(NetworkStats::new(2)),
    );
    let query = QueryId(5);
    node.expect_results(query);

    let mut peer = std::net::TcpStream::connect(&addr).expect("connect");
    peer.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    write_frame(&mut peer, FrameKind::Hello, 0, QueryId::SOLO, &1u32.to_le_bytes()).expect("hello");
    write_frame(&mut peer, FrameKind::Result, 99, query, b"phantom").expect("result");
    // the node answers a protocol violation by closing the connection
    let mut byte = [0u8; 1];
    assert_eq!(peer.read(&mut byte).expect("closed, not left open"), 0);

    assert!(!node.heartbeats().contains_key(&99), "phantom machine in the heartbeat map");
    assert_eq!(node.wait_results(query, &[99], Duration::from_millis(10)), Err(vec![99]));
    node.finish_shutdown();
}

/// `machines` socket nodes of one loopback cluster, all in this process.
fn loopback_nodes(machines: usize) -> Vec<SocketNode> {
    let listeners: Vec<SocketListener> = (0..machines)
        .map(|_| SocketListener::bind(&PeerAddr::Tcp("127.0.0.1:0".to_string())).expect("bind"))
        .collect();
    let addrs: Vec<PeerAddr> =
        listeners.iter().map(|l| l.local_addr().expect("bound address")).collect();
    let stats = Arc::new(NetworkStats::new(machines));
    listeners
        .into_iter()
        .enumerate()
        .map(|(machine, listener)| {
            let daemon = Arc::new(NoDaemon);
            SocketNode::start_with_listener(machine, addrs.clone(), listener, daemon, stats.clone())
        })
        .collect()
}

fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A query that failed or timed out after dispatch must leave nothing in
/// the coordinator's result map: the reports that already arrived are
/// dropped with the slot, and the ones that arrive later are discarded.
#[test]
fn an_abandoned_query_leaves_no_reports_behind() {
    let nodes = loopback_nodes(3);
    let query = QueryId(7);
    let nothing_kept = |machines: &[usize]| {
        // a fresh slot for the same query must start empty
        nodes[0].expect_results(query);
        let missing = nodes[0].wait_results(query, machines, Duration::ZERO).expect_err("empty");
        nodes[0].abandon_results(query);
        missing == machines
    };
    nodes[0].expect_results(query);
    // a partial set: machine 1 reports, machine 2 is late
    nodes[1].send_result(0, query, b"one").expect("deliver");
    poll_until("machine 1's report is in", || {
        nodes[0].wait_results(query, &[1, 2], Duration::from_millis(20)) == Err(vec![2])
    });
    nodes[0].abandon_results(query);
    assert!(nothing_kept(&[1, 2]), "the partial set outlived its query");
    // the late report travels ahead of a metrics frame on the same ordered
    // connection: once the metrics frame is in, the report has been seen
    nodes[2].send_result(0, query, b"two").expect("deliver");
    assert!(nodes[2].metrics_publisher(0).send(b"late"));
    poll_until("machine 2's frames are in", || {
        nodes[0].latest_metrics().iter().any(|(machine, _)| *machine == 2)
    });
    assert!(nothing_kept(&[1, 2]), "a late report was kept for an abandoned query");
    for node in &nodes {
        node.begin_shutdown();
    }
    for node in nodes {
        node.finish_shutdown();
    }
}
