//! Property-based fuzzing of the wire layer: the decoders and peeks that
//! read untrusted bytes off a socket, the router's in-place id rewrite,
//! and the `FrameConn` reassembly state machine.
//!
//! The contract pinned here: arbitrary bytes produce a typed error (or a
//! valid decode), never a panic; a frame split at any byte boundaries
//! reassembles to exactly its body; and any flipped body bit is caught
//! by the checksum.

use proptest::prelude::*;
use roboshape_serve::net::{FrameConn, FrameViolation, ReadOutcome};
use roboshape_serve::proto::{
    decode_any_request, decode_response, encode_health_request, encode_request, encode_response,
    frame_bytes, peek_request_route, peek_response_head, rewrite_id, RequestFrame, ResponseFrame,
    HEADER_LEN, REROUTED_FLAG,
};
use roboshape_serve::{ServeError, ServePayload, ServeRequest};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Arbitrary bytes of a length in `len` (the vendored proptest has no
/// `any::<u8>()`).
fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u64..256, len)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>())
}

/// Well-formed request and response bodies of every shape the decoders
/// know, so mutations start from deep inside the parsers rather than
/// failing at the first tag byte.
fn valid_bodies() -> Vec<Vec<u8>> {
    let n = 3;
    vec![
        encode_request(&RequestFrame {
            id: 1,
            req: ServeRequest::gradient("HyQ", vec![0.5; n], vec![-0.5; n], vec![1.0; n])
                .with_deadline(Duration::from_micros(900)),
        }),
        encode_request(&RequestFrame {
            id: 2,
            req: ServeRequest::kinematics("iiwa", vec![0.25; n]),
        }),
        encode_request(&RequestFrame {
            id: 3,
            req: ServeRequest::rollout("iiwa", vec![0.1; n], vec![0.2; n], vec![0.3; n], 4),
        }),
        encode_health_request(4),
        encode_response(&ResponseFrame::direct(
            5,
            Ok(ServePayload::Gradient {
                tau: vec![1.0; n],
                dqdd_dq: vec![2.0; n * n],
                dqdd_dqd: vec![3.0; n * n],
                cycles: 77,
            }),
        )),
        encode_response(&ResponseFrame::direct(
            6,
            Err(ServeError::Rejected {
                reason: "queue full".into(),
            }),
        )),
    ]
}

/// Runs every untrusted-input entry point over `body`. Any `Err` is a
/// typed `ProtoError`; reaching the end means nothing panicked.
fn decode_everything(body: &[u8]) {
    let _ = decode_any_request(body);
    let _ = decode_response(body);
    let _ = peek_request_route(body);
    let _ = peek_response_head(body);
}

/// A connected `(writer, FrameConn reader)` pair on loopback.
fn pair() -> (TcpStream, FrameConn) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    (client, FrameConn::new(server).expect("frame conn"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic a decoder or a peek.
    #[test]
    fn arbitrary_bytes_are_typed_errors_not_panics(body in bytes(0..256)) {
        decode_everything(&body);
    }

    /// Valid bodies with bytes overwritten or cut short never panic
    /// either; these reach the length and count fields.
    #[test]
    fn mutated_valid_bodies_are_typed_errors_not_panics(
        which in 0usize..6,
        edits in proptest::collection::vec((0usize..4096, 0u64..256), 0..6),
        cut in 0usize..4096,
    ) {
        let mut body = valid_bodies().swap_remove(which);
        for (at, value) in edits {
            let len = body.len();
            body[at % len] = value as u8;
        }
        body.truncate(cut % (body.len() + 1));
        decode_everything(&body);
    }

    /// `rewrite_id` on any body a peek accepts changes only the id and,
    /// when asked, the rerouted bit of byte 8; bytes 9.. are untouched.
    #[test]
    fn rewrite_id_leaves_the_payload_untouched(
        raw in bytes(0..128),
        which in 0usize..6,
        use_valid in proptest::bool::ANY,
        id in 0u64..u64::MAX,
        mark in proptest::bool::ANY,
    ) {
        let body = if use_valid { valid_bodies().swap_remove(which) } else { raw };
        let accepted = peek_request_route(&body).is_ok() || peek_response_head(&body).is_ok();
        prop_assume!(accepted);
        let mut patched = body.clone();
        rewrite_id(&mut patched, id, mark);
        prop_assert_eq!(&patched[..8], &id.to_le_bytes()[..]);
        let flag = if mark { REROUTED_FLAG } else { 0 };
        prop_assert_eq!(patched[8], body[8] | flag);
        prop_assert_eq!(&patched[9..], &body[9..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid frames written in chunks of arbitrary sizes come out of a
    /// `FrameConn` as exactly those bodies, in order.
    #[test]
    fn frames_split_at_any_boundaries_reassemble_exactly(
        bodies in proptest::collection::vec(bytes(0..600), 1..8),
        chunks in proptest::collection::vec(1usize..700, 1..16),
    ) {
        let (mut client, mut conn) = pair();
        let wire: Vec<u8> = bodies.iter().flat_map(|b| frame_bytes(b)).collect();
        let mut got = Vec::new();
        let mut at = 0;
        for size in chunks.iter().cycle() {
            if at == wire.len() {
                break;
            }
            let end = (at + size).min(wire.len());
            client.write_all(&wire[at..end]).expect("write chunk");
            at = end;
            prop_assert_eq!(conn.read_frames(|b| got.push(b)), ReadOutcome::Open);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < bodies.len() {
            prop_assert!(Instant::now() < deadline, "frames never arrived");
            prop_assert_eq!(conn.read_frames(|b| got.push(b)), ReadOutcome::Open);
        }
        prop_assert_eq!(got, bodies);
    }

    /// Any single flipped body bit is a checksum violation, and the
    /// damaged body is never delivered.
    #[test]
    fn any_flipped_body_bit_is_a_checksum_violation(
        body in bytes(1..2048),
        raw_bit in 0usize..(1 << 20),
    ) {
        let (mut client, mut conn) = pair();
        let mut wire = frame_bytes(&body);
        let bit = raw_bit % (body.len() * 8);
        wire[HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
        client.write_all(&wire).expect("write frame");
        let deadline = Instant::now() + Duration::from_secs(10);
        let outcome = loop {
            match conn.read_frames(|_| panic!("damaged body delivered")) {
                ReadOutcome::Open => {
                    prop_assert!(Instant::now() < deadline, "frame never arrived");
                }
                other => break other,
            }
        };
        prop_assert_eq!(outcome, ReadOutcome::Violation(FrameViolation::BadChecksum));
    }
}
