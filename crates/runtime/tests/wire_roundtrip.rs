//! Property tests over the socket wire codec: every value of the full
//! `Request` / `Response` enum — empty adjacency lists, empty batches,
//! extreme ids — must survive encode → frame → unframe → decode exactly,
//! query-scoped [`Envelope`]s must round-trip with their ids intact, and
//! the length-prefix boundaries must hold.

use proptest::prelude::*;

use rads_runtime::wire::{
    decode_envelope, decode_request, decode_response, encode_envelope, encode_request,
    encode_response, read_frame, read_message, write_frame, write_message,
    write_message_with_cap, Frame, FrameKind, CONTINUE_SEQ_BYTES, MAX_FRAME_BYTES,
};
use rads_runtime::{Envelope, QueryId, Request, Response};

/// A deliberately tiny frame cap so multi-frame continuation runs can be
/// exercised without materializing 64 MiB payloads. Each frame's body holds
/// the 18-byte header, the 4-byte sequence number and up to
/// [`TEST_CHUNK`] payload bytes.
const TEST_FRAME_CAP: usize = 64;
const TEST_CHUNK: usize = TEST_FRAME_CAP - 18 - CONTINUE_SEQ_BYTES;

fn arb_vertices(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..=u32::MAX, 0..max_len)
}

fn request_from(
    variant: usize,
    pairs: Vec<(u32, u32)>,
    vertices: Vec<u32>,
    tag: u32,
    rows: Vec<Vec<u32>>,
    id: u64,
    budget: Option<u64>,
) -> Request {
    match variant {
        0 => Request::VerifyEdges(pairs),
        1 => Request::FetchVertices(vertices),
        2 => Request::CheckRegionGroups,
        3 => Request::ShareRegionGroup,
        4 => Request::Query { id, pattern: format!("q{}", id % 9), budget },
        _ => Request::DeliverRows { tag, rows },
    }
}

/// Frames `value` through an in-memory wire and hands back the decoded
/// frame, checking the byte accounting along the way.
fn frame_roundtrip(kind: FrameKind, correlation: u64, query: QueryId, payload: &[u8]) -> Frame {
    let mut wire = Vec::new();
    let written = write_frame(&mut wire, kind, correlation, query, payload).expect("write frame");
    assert_eq!(written, wire.len(), "write_frame must report exactly the bytes it wrote");
    let mut cursor = wire.as_slice();
    let frame = read_frame(&mut cursor).expect("read frame").expect("one frame");
    assert!(read_frame(&mut cursor).expect("clean tail").is_none());
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every `Request` variant round-trips through codec + framing, and the
    /// frame's query id survives untouched.
    #[test]
    fn requests_round_trip(
        variant in 0usize..6,
        pairs in proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..48),
        vertices in arb_vertices(48),
        tag in 0u32..=u32::MAX,
        rows in proptest::collection::vec(arb_vertices(7), 0..12),
        id in 0u64..=u64::MAX,
        budget_set in any::<bool>(),
        budget_raw in 0u64..=u64::MAX,
        correlation in 0u64..=u64::MAX,
        query in 0u64..=u64::MAX,
    ) {
        let request =
            request_from(variant, pairs, vertices, tag, rows, id, budget_set.then_some(budget_raw));
        let mut payload = Vec::new();
        encode_request(&request, &mut payload);
        prop_assert_eq!(decode_request(&payload).as_ref(), Ok(&request));

        let frame = frame_roundtrip(FrameKind::Request, correlation, QueryId(query), &payload);
        prop_assert_eq!(frame.kind, FrameKind::Request);
        prop_assert_eq!(frame.correlation, correlation);
        prop_assert_eq!(frame.query, QueryId(query));
        prop_assert_eq!(decode_request(&frame.payload), Ok(request));
    }

    /// Every `Response` variant round-trips through codec + framing —
    /// including empty adjacency lists (a fetched vertex the partition does
    /// not own) and empty verification batches.
    #[test]
    fn responses_round_trip(
        variant in 0usize..6,
        verdicts in proptest::collection::vec(any::<bool>(), 0..64),
        adjacency in proptest::collection::vec((0u32..=u32::MAX, arb_vertices(9)), 0..12),
        count in 0u64..=u64::MAX,
        groups in proptest::collection::vec(arb_vertices(9), 0..8),
        correlation in 0u64..=u64::MAX,
        query in 0u64..=u64::MAX,
    ) {
        let response = match variant {
            0 => Response::EdgeVerification(verdicts),
            1 => Response::Adjacency(adjacency),
            2 => Response::RegionGroupCount(count as usize),
            3 => Response::RegionGroups(groups),
            4 => Response::Ack,
            _ => Response::Unsupported,
        };
        let mut payload = Vec::new();
        encode_response(&response, &mut payload);
        prop_assert_eq!(decode_response(&payload).as_ref(), Ok(&response));

        let frame = frame_roundtrip(FrameKind::Response, correlation, QueryId(query), &payload);
        prop_assert_eq!(frame.query, QueryId(query));
        prop_assert_eq!(decode_response(&frame.payload), Ok(response));
    }

    /// Full [`Envelope`]s — query id, sequence number and any request body —
    /// round-trip through the envelope codec exactly. The envelope *is* the
    /// engine-facing RPC unit now, so this is the compatibility contract the
    /// concurrent serving mode leans on.
    #[test]
    fn envelopes_round_trip(
        variant in 0usize..6,
        pairs in proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..24),
        vertices in arb_vertices(24),
        tag in 0u32..=u32::MAX,
        rows in proptest::collection::vec(arb_vertices(5), 0..8),
        id in 0u64..=u64::MAX,
        budget_set in any::<bool>(),
        budget_raw in 0u64..=u64::MAX,
        query in 0u64..=u64::MAX,
        seq in 0u64..=u64::MAX,
    ) {
        let body =
            request_from(variant, pairs, vertices, tag, rows, id, budget_set.then_some(budget_raw));
        let envelope = Envelope::new(QueryId(query), seq, body);
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        let decoded = decode_envelope(&buf).expect("decode envelope");
        prop_assert_eq!(decoded.query, envelope.query);
        prop_assert_eq!(decoded.seq, envelope.seq);
        prop_assert_eq!(decoded.body, envelope.body);
    }

    /// Truncating an encoded envelope anywhere strictly inside it never
    /// panics and never decodes to the original.
    #[test]
    fn truncated_envelopes_are_rejected_not_misread(
        vertices in arb_vertices(24),
        query in 0u64..=u64::MAX,
        seq in 0u64..=u64::MAX,
        cut in 0usize..128,
    ) {
        let envelope = Envelope::new(QueryId(query), seq, Request::FetchVertices(vertices));
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        if cut < buf.len() {
            prop_assert!(decode_envelope(&buf[..cut]).is_err());
        }
    }

    /// Truncating an encoded message anywhere strictly inside it never
    /// panics and never decodes successfully — except at a prefix that is
    /// itself a complete encoding (impossible here: every variant's length
    /// fields make prefixes incomplete).
    #[test]
    fn truncated_requests_are_rejected_not_misread(
        vertices in arb_vertices(24),
        cut in 0usize..128,
    ) {
        let request = Request::FetchVertices(vertices);
        let mut payload = Vec::new();
        encode_request(&request, &mut payload);
        if cut < payload.len() {
            let truncated = &payload[..cut];
            prop_assert!(decode_request(truncated).is_err());
        }
    }

    /// Arbitrary bytes never panic the decoders (they may legitimately
    /// decode if they happen to be well-formed).
    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..96),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = decode_envelope(&bytes);
        let mut cursor = bytes.as_slice();
        let _ = read_frame(&mut cursor);
    }

    /// Payloads straddling the 1-, 2- and 3-frame boundaries (every chunk
    /// multiple ± 1 byte) reassemble to exactly the written bytes, and a
    /// payload that fits in one frame produces byte-identical wire output
    /// to a bare [`write_frame`] — the continuation layer must be invisible
    /// when it is not needed.
    #[test]
    fn continuation_runs_reassemble_across_frame_boundaries(
        boundary in 0usize..4,
        delta in 0usize..=2, // boundary*chunk - 1, exactly, + 1
        fill in any::<u8>(),
        correlation in 0u64..=u64::MAX,
        query in 0u64..=u64::MAX,
    ) {
        let Some(len) = (boundary * TEST_CHUNK + delta).checked_sub(1) else {
            return; // boundary 0, delta 0: no length -1
        };
        let payload: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        let mut wire = Vec::new();
        let written = write_message_with_cap(
            &mut wire, FrameKind::Response, correlation, QueryId(query), &payload, TEST_FRAME_CAP,
        ).expect("write message");
        prop_assert_eq!(written, wire.len(), "reported bytes must match the wire");
        let mut cursor = wire.as_slice();
        let frame = read_message(&mut cursor).expect("read message").expect("one message");
        prop_assert!(read_message(&mut cursor).expect("clean tail").is_none());
        prop_assert_eq!(frame.kind, FrameKind::Response);
        prop_assert_eq!(frame.correlation, correlation);
        prop_assert_eq!(frame.query, QueryId(query));
        prop_assert_eq!(frame.payload, payload.clone());
        if payload.len() + 18 <= TEST_FRAME_CAP {
            let mut single = Vec::new();
            write_frame(&mut single, FrameKind::Response, correlation, QueryId(query), &payload)
                .expect("write frame");
            prop_assert_eq!(single, wire, "single-frame messages must not change shape");
        }
    }

    /// Cutting a continuation run anywhere strictly inside it — mid-frame
    /// or exactly between two frames of the run — is truncation, never a
    /// shorter-but-valid message.
    #[test]
    fn truncated_continuation_runs_are_rejected(
        extra in 0usize..(2 * TEST_CHUNK),
        cut in 1usize..512,
    ) {
        // at least two frames: one Continue + the terminating Response
        let payload: Vec<u8> = (0..TEST_CHUNK + 1 + extra).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_message_with_cap(
            &mut wire, FrameKind::Response, 7, QueryId::SOLO, &payload, TEST_FRAME_CAP,
        )
        .expect("write message");
        if cut >= wire.len() {
            return; // out of range for this payload size — nothing to cut
        }
        let mut cursor = &wire[..cut];
        prop_assert!(read_message(&mut cursor).is_err(), "cut at byte {} decoded", cut);
    }
}

/// A run whose terminating frame carries a different correlation id is
/// rejected: responses are matched to requests by correlation, so a run
/// interleaved with another message's frame must never reassemble.
#[test]
fn continuation_run_with_mismatched_correlation_is_rejected() {
    let mut wire = Vec::new();
    let mut body = Vec::new();
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&[0xAA; 10]);
    write_frame(&mut wire, FrameKind::Continue, 1, QueryId::SOLO, &body).expect("write continue");
    write_frame(&mut wire, FrameKind::Response, 2, QueryId::SOLO, &[0xBB; 4])
        .expect("write response");
    let err = read_message(&mut wire.as_slice()).expect_err("correlation switch mid-run");
    assert!(err.to_string().contains("correlation"), "{err}");
}

/// A run whose terminating frame carries a different *query id* is rejected
/// just the same — under concurrent queries the header's query id is part
/// of the run's identity.
#[test]
fn continuation_run_with_mismatched_query_is_rejected() {
    let mut wire = Vec::new();
    let mut body = Vec::new();
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&[0xAA; 10]);
    write_frame(&mut wire, FrameKind::Continue, 1, QueryId(8), &body).expect("write continue");
    write_frame(&mut wire, FrameKind::Response, 1, QueryId(9), &[0xBB; 4])
        .expect("write response");
    let err = read_message(&mut wire.as_slice()).expect_err("query switch mid-run");
    assert!(err.to_string().contains("query"), "{err}");
}

/// A run that skips a sequence number is rejected — a dropped or reordered
/// continuation frame must surface as an error, not as silently reassembled
/// garbage.
#[test]
fn continuation_run_with_skipped_sequence_is_rejected() {
    let mut wire = Vec::new();
    for seq in [0u32, 2] {
        let mut body = Vec::new();
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&[0xCC; 8]);
        write_frame(&mut wire, FrameKind::Continue, 5, QueryId::SOLO, &body)
            .expect("write continue");
    }
    write_frame(&mut wire, FrameKind::Response, 5, QueryId::SOLO, &[0xDD; 4])
        .expect("write response");
    let err = read_message(&mut wire.as_slice()).expect_err("sequence skip mid-run");
    assert!(err.to_string().contains("sequence"), "{err}");
}

/// An adjacency response larger than [`MAX_FRAME_BYTES`] — a hub vertex
/// whose encoded neighbourhood exceeds the 64 MiB frame cap — round-trips
/// through a real continuation run at the *production* cap. Before the
/// multi-frame layer this payload was simply unsendable.
#[test]
fn adjacency_response_over_the_frame_cap_round_trips() {
    let adj: Vec<u32> = (0..17_000_000u32).collect(); // 68 MB encoded
    let response = Response::Adjacency(vec![(1, adj)]);
    let mut payload = Vec::new();
    encode_response(&response, &mut payload);
    assert!(payload.len() > MAX_FRAME_BYTES, "payload must exceed the frame cap");
    let mut wire = Vec::new();
    let written = write_message(&mut wire, FrameKind::Response, 3, QueryId(2), &payload)
        .expect("write message");
    assert_eq!(written, wire.len());
    // the run really is multi-frame: it starts with a Continue frame
    let first = read_frame(&mut wire.as_slice()).expect("read").expect("frame");
    assert_eq!(first.kind, FrameKind::Continue);
    let mut cursor = wire.as_slice();
    let frame = read_message(&mut cursor).expect("read message").expect("one message");
    assert!(read_message(&mut cursor).expect("clean tail").is_none());
    assert_eq!(frame.kind, FrameKind::Response);
    assert_eq!(frame.correlation, 3);
    assert_eq!(frame.query, QueryId(2));
    assert_eq!(decode_response(&frame.payload), Ok(response));
}

/// A stream that ends cleanly *between* the frames of a run (peer closed
/// with the run unterminated) is truncation, not end-of-stream.
#[test]
fn continuation_run_ending_between_frames_is_truncation() {
    let payload: Vec<u8> = (0..2 * TEST_CHUNK).map(|i| i as u8).collect();
    let mut wire = Vec::new();
    write_message_with_cap(&mut wire, FrameKind::Response, 9, QueryId::SOLO, &payload, TEST_FRAME_CAP)
        .expect("write message");
    // keep exactly the first frame of the run
    let first_len = 4 + u32::from_le_bytes(wire[..4].try_into().expect("4 bytes")) as usize;
    let err = read_message(&mut &wire[..first_len]).expect_err("unterminated run");
    assert!(err.to_string().contains("truncated"), "{err}");
}

/// A frame at the size cap is readable; one byte past it is rejected from a
/// forged length prefix without allocating the declared body.
#[test]
fn frame_length_boundaries_hold() {
    // just-under-the-cap body, forged header only (no 64 MiB allocation):
    // declared length == MAX_FRAME_BYTES must be accepted by the prefix
    // check and then fail as *truncation*, not as oversize
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_le_bytes());
    wire.extend_from_slice(&[2u8; 16]);
    let mut cursor = wire.as_slice();
    let err = read_frame(&mut cursor).expect_err("body is missing");
    assert!(err.to_string().contains("truncated"), "{err}");

    // one past the cap is rejected at the prefix
    let mut wire = Vec::new();
    wire.extend_from_slice(&((MAX_FRAME_BYTES + 1) as u32).to_le_bytes());
    wire.extend_from_slice(&[2u8; 16]);
    let mut cursor = wire.as_slice();
    let err = read_frame(&mut cursor).expect_err("over the cap");
    assert!(err.to_string().contains("exceeds"), "{err}");
}

/// A megabyte-scale adjacency response (the realistic "huge frame": a hub
/// vertex's neighbourhood) survives the full round trip.
#[test]
fn large_adjacency_frames_round_trip() {
    let adj: Vec<u32> = (0..300_000u32).collect();
    let response = Response::Adjacency(vec![(7, adj)]);
    let mut payload = Vec::new();
    encode_response(&response, &mut payload);
    assert!(payload.len() > 1024 * 1024, "the test payload should exceed 1 MiB");
    let mut wire = Vec::new();
    write_frame(&mut wire, FrameKind::Response, 99, QueryId(1), &payload).expect("write");
    let mut cursor = wire.as_slice();
    let frame = read_frame(&mut cursor).expect("read").expect("frame");
    assert_eq!(decode_response(&frame.payload), Ok(response));
}
