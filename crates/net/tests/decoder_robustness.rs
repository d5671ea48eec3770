//! Decoder robustness: hostile, truncated, and bit-flipped inputs map
//! to typed errors — never a panic, never an attacker-sized allocation.

use std::io::Cursor;

use iqs_net::frame::{
    decode_frame, decode_header, encode_frame, read_frame, Kind, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
    VERSION,
};
use iqs_net::msg;
use iqs_net::{FrameError, NetError};
use iqs_serve::{Request, Response};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

fn valid_frame() -> Vec<u8> {
    msg::encode_request(
        &Request::SampleWr { index: "shard".into(), range: Some((0.0, 64.0)), s: 8 },
        0x1122_3344_5566_7788,
        0x0002_0001,
        5_000_000,
    )
}

/// A `Samples` reply wide enough to need 8-byte ids.
fn valid_samples_frame() -> Vec<u8> {
    msg::encode_reply(&Ok(Response::Samples(vec![7, 1 << 40, 3, u64::MAX, 0])), 5, 6)
}

/// Asserts every truncation of `frame` reports `Truncated` with the
/// exact byte counts — no panic, no partial success.
fn assert_truncations_report_exact_counts(frame: &[u8]) {
    for cut in 0..frame.len() {
        match decode_frame(&frame[..cut], DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::Truncated { needed, have }) => {
                assert_eq!(have, cut as u64);
                let expected_need =
                    if cut < HEADER_LEN { HEADER_LEN as u64 } else { frame.len() as u64 };
                assert_eq!(needed, expected_need, "cut at {cut}");
            }
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

proptest! {
    /// Arbitrary byte soup through every decoding entry point: the only
    /// outcomes are `Ok` or a typed error.
    #[test]
    fn byte_soup_never_panics(bytes in pvec(0u8..=255, 0..200)) {
        let _ = decode_header(&bytes, DEFAULT_MAX_PAYLOAD);
        let _ = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD);
        let _ = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_PAYLOAD);
        // And with a tiny receiver limit, which exercises Oversized.
        let _ = decode_frame(&bytes, 4);
        // The binary payload decoder takes the soup directly — and with
        // a valid prefix in front, so the body checks run too.
        let _ = msg::decode_reply(Kind::Samples, &bytes);
        for width in [4, 8] {
            let _ = msg::decode_reply(Kind::Samples, &[&[width, 0, 0, 0], &bytes[..]].concat());
        }
    }

    /// Single-bit corruption anywhere in a valid frame never panics,
    /// and corruption of the magic, version, flags, or length fields is
    /// always *detected* (a flipped kind byte can land on another valid
    /// kind, and payload flips can stay valid JSON — those are for the
    /// typed layer above, not the frame layer).
    #[test]
    fn bit_flips_never_panic_and_header_flips_are_detected(
        position in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let mut frame = valid_frame();
        let byte = position % frame.len();
        frame[byte] ^= 1 << bit;
        let outcome = decode_frame(&frame, DEFAULT_MAX_PAYLOAD);
        let must_detect = byte < 3 || (24..HEADER_LEN).contains(&byte);
        if must_detect {
            prop_assert!(outcome.is_err(), "flip at byte {} bit {} went unnoticed", byte, bit);
        }
        // The streaming reader agrees with the buffer decoder.
        let _ = read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD);
    }

    /// The same single-bit corruption of a `Samples` frame: never a
    /// panic through the frame and payload decoders, and a flip that
    /// lands in the payload's width or reserved bytes is a typed decode
    /// error (a flip inside an id is just another id).
    #[test]
    fn samples_bit_flips_never_panic_and_prefix_flips_are_detected(
        position in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let mut frame = valid_samples_frame();
        let byte = position % frame.len();
        frame[byte] ^= 1 << bit;
        let decoded = decode_frame(&frame, DEFAULT_MAX_PAYLOAD)
            .map(|(header, payload)| msg::decode_reply(header.kind, payload));
        if (HEADER_LEN..HEADER_LEN + 4).contains(&byte) {
            // 8 ^ 4 = 12, and the five ids are 40 bytes: ten 4-byte ids.
            let lands_on_width_4 = byte == HEADER_LEN && bit == 2;
            prop_assert!(
                lands_on_width_4 || matches!(decoded, Ok(Err(NetError::Decode(_)))),
                "flip at byte {} bit {} went unnoticed: {:?}", byte, bit, decoded
            );
        }
    }
}

/// Every possible truncation of a valid frame — JSON or binary payload
/// — reports `Truncated` with the exact byte counts.
#[test]
fn every_truncation_reports_exact_counts() {
    assert_truncations_report_exact_counts(&valid_frame());
    assert_truncations_report_exact_counts(&valid_samples_frame());
}

/// A hostile length field is refused by the header check alone, before
/// any payload allocation; and the streaming reader's bounded `take`
/// only ever allocates what actually arrived.
#[test]
fn hostile_lengths_cannot_balloon_memory() {
    // Declared length far past the receiver's limit: refused at the
    // header, Oversized, no allocation.
    let mut frame = encode_frame(Kind::Ok, 0, 0, 0, "[]");
    frame[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_header(&frame, DEFAULT_MAX_PAYLOAD),
        Err(FrameError::Oversized { declared, max })
            if declared == u64::from(u32::MAX) && max == DEFAULT_MAX_PAYLOAD
    ));
    assert!(matches!(
        read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD),
        Err(NetError::Frame(FrameError::Oversized { .. }))
    ));

    // Declared length inside the limit but the stream ends after a few
    // bytes: the reader reports a mid-frame close having read only what
    // arrived.
    let mut frame = encode_frame(Kind::Ok, 0, 0, 0, "[]");
    frame[28..32].copy_from_slice(&10_000_000u32.to_le_bytes());
    match read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_PAYLOAD) {
        Err(NetError::Io(detail)) => {
            assert!(detail.contains("2 of 10000000"), "unexpected detail: {detail}")
        }
        other => panic!("expected a mid-frame Io error, got {other:?}"),
    }
}

/// A structurally valid frame whose payload is not the promised type is
/// a typed decode error at the message layer — never a panic.
#[test]
fn corrupt_payloads_are_typed_errors() {
    for payload in ["", "not json", "{\"Nope\":1}", "{\"Samples\":[1,", "[1,2,3] junk", "nu1l"] {
        let frame = encode_frame(Kind::Ok, 0, 0, 0, payload);
        let (header, text) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("frame layer ok");
        assert!(matches!(msg::decode_reply(header.kind, text), Err(NetError::Decode(_))));
        assert!(matches!(msg::from_json::<Request>(text), Err(NetError::Decode(_))));
        assert!(matches!(msg::from_json::<Response>(text), Err(NetError::Decode(_))));
    }
    // The frame layer moves bytes; text that is not UTF-8 is refused
    // where it is read, as a typed decode error.
    let frame = encode_frame(Kind::Ok, 0, 0, 0, [0xff, 0xfe]);
    let (header, bytes) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("frame layer ok");
    assert!(matches!(msg::decode_reply(header.kind, bytes), Err(NetError::Decode(_))));
    assert!(matches!(msg::from_json::<Request>(bytes), Err(NetError::Decode(_))));
    // Sample ids have one encoding: as JSON under `Kind::Ok` they are
    // refused, though any other response parses there.
    assert!(matches!(
        msg::decode_reply(Kind::Ok, b"{\"Samples\":[1,2]}"),
        Err(NetError::Decode(_))
    ));
    assert_eq!(msg::decode_reply(Kind::Ok, b"{\"Count\":2}"), Ok(Ok(Response::Count(2))));
}

/// Each way a `Samples` payload can be malformed is a typed decode
/// error naming it; the id count comes from the length alone.
#[test]
fn malformed_samples_payloads_are_typed_errors() {
    let refused = |payload: &[u8], because: &str| match msg::decode_reply(Kind::Samples, payload) {
        Err(NetError::Decode(detail)) => assert!(detail.contains(because), "{detail}"),
        other => panic!("{payload:?}: expected a decode error, got {other:?}"),
    };
    for short in 0..4 {
        refused(&[4, 0, 0, 0][..short], "shorter than its 4-byte prefix");
    }
    for width in (0..=255).filter(|w| ![4, 8].contains(w)) {
        refused(&[width, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8], "neither 4 nor 8");
    }
    for reserved in 1..4 {
        let mut payload = [4, 0, 0, 0, 9, 0, 0, 0];
        payload[reserved] = 1;
        refused(&payload, "reserved bytes");
    }
    for (width, body) in [(4, 1), (4, 7), (8, 4), (8, 15)] {
        refused(&[&[width, 0, 0, 0], &vec![0; body][..]].concat(), "not a whole number");
    }
    // Width 8 need not be minimal: small ids at width 8 still decode.
    let wide_but_small = [8, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0];
    assert_eq!(
        msg::decode_reply(Kind::Samples, &wide_but_small),
        Ok(Ok(Response::Samples(vec![9])))
    );
}

/// Only registered kinds decode. Kind 7 carried telemetry batches and
/// is retired without a version bump — no other frame's bytes changed —
/// so it is refused like the first kind past the last registered one
/// (8, `Samples`); a frame of an older version is refused outright,
/// whatever it carries.
#[test]
fn retired_and_unregistered_kinds_are_refused() {
    let frame = valid_frame();
    let with_kind = |kind: u8| {
        let mut bytes = frame.clone();
        bytes[3] = kind;
        decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).map(|(header, _)| header.kind)
    };
    assert!(matches!(with_kind(7), Err(FrameError::BadKind(7))));
    assert!(matches!(with_kind(9), Err(FrameError::BadKind(9))));
    assert!(matches!(with_kind(0), Err(FrameError::BadKind(0))));
    assert_eq!(with_kind(8), Ok(Kind::Samples));
    assert_eq!(with_kind(6), Ok(Kind::Metrics));

    assert_eq!(VERSION, 3);
    for version in [1, 2] {
        let mut old = frame.clone();
        old[2] = version;
        assert!(matches!(
            decode_frame(&old, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadVersion(v)) if v == version
        ));
        assert!(matches!(
            read_frame(&mut Cursor::new(&old), DEFAULT_MAX_PAYLOAD),
            Err(NetError::Frame(FrameError::BadVersion(v))) if v == version
        ));
    }
}
