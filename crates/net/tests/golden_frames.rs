//! Wire-format golden tests: byte-exact encode fixtures for every
//! `Request` / `Response` variant (plus errors, metrics, and registry
//! frames), and a round-trip property over random requests.
//!
//! The hex fixtures pin the wire format: any change to the header
//! layout, the JSON field order, the float encoding, or the binary
//! `Samples` layout shows up here as a byte diff, which is a protocol
//! break and must be versioned, not shipped silently.

use iqs_alias::WeightError;
use iqs_core::QueryError;
use iqs_net::frame::{decode_frame, Kind, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use iqs_net::msg;
use iqs_net::{Ack, Announce};
use iqs_serve::{MetricsSnapshot, Request, Response, ServeError, UpdateOp};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex")).collect()
}

/// Every frame the protocol can carry, with fixed inputs.
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "request_sample_wr",
            msg::encode_request(
                &Request::SampleWr { index: "shard".into(), range: Some((-1.5, 2.5)), s: 8 },
                0x1122_3344_5566_7788,
                0x0002_0001,
                5_000_000,
            ),
        ),
        (
            "request_sample_wr_full_range",
            msg::encode_request(
                &Request::SampleWr {
                    index: "shard".into(),
                    range: Some((f64::NEG_INFINITY, f64::INFINITY)),
                    s: 16,
                },
                1,
                0,
                0,
            ),
        ),
        (
            "request_sample_wor",
            msg::encode_request(
                &Request::SampleWor { index: "shard".into(), range: None, s: 3 },
                2,
                0,
                0,
            ),
        ),
        (
            "request_range_count",
            msg::encode_request(
                &Request::RangeCount { index: "shard".into(), x: 0.5, y: 9.5 },
                3,
                0,
                0,
            ),
        ),
        (
            "request_total_weight",
            msg::encode_request(&Request::TotalWeight { index: "shard".into() }, 5, 0, 0),
        ),
        (
            "request_range_weight",
            msg::encode_request(
                &Request::RangeWeight { index: "shard".into(), x: -0.25, y: 128.0 },
                6,
                0,
                0,
            ),
        ),
        (
            "request_update",
            msg::encode_request(
                &Request::Update {
                    index: "shard".into(),
                    ops: vec![
                        UpdateOp::Upsert { id: 7, key: 1.5, weight: 2.0 },
                        UpdateOp::Remove { id: 9 },
                    ],
                },
                7,
                0,
                0,
            ),
        ),
        ("response_samples", msg::encode_reply(&Ok(Response::Samples(vec![1, 2, 3])), 7, 9)),
        ("response_samples_empty", msg::encode_reply(&Ok(Response::Samples(Vec::new())), 0, 0)),
        (
            "response_samples_wide",
            msg::encode_reply(
                &Ok(Response::Samples(vec![1, u64::from(u32::MAX) + 1, u64::MAX])),
                7,
                9,
            ),
        ),
        ("response_count", msg::encode_reply(&Ok(Response::Count(42)), 0, 0)),
        ("response_weight", msg::encode_reply(&Ok(Response::Weight(2.5)), 0, 0)),
        (
            "response_updated",
            msg::encode_reply(&Ok(Response::Updated { applied: 2, version: 9 }), 0, 0),
        ),
        ("reply_overloaded", msg::encode_reply(&Err(ServeError::Overloaded), 1, 2)),
        (
            "reply_unknown_index",
            msg::encode_reply(&Err(ServeError::UnknownIndex("ghost".into())), 0, 0),
        ),
        ("reply_remote", msg::encode_reply(&Err(ServeError::Remote("lease expired".into())), 0, 0)),
        (
            "reply_query_empty_range",
            msg::encode_reply(&Err(ServeError::Query(QueryError::EmptyRange)), 0, 0),
        ),
        (
            "reply_query_sample_too_large",
            msg::encode_reply(
                &Err(ServeError::Query(QueryError::SampleTooLarge {
                    requested: 11,
                    available: 10,
                })),
                0,
                0,
            ),
        ),
        (
            "reply_query_density_too_low",
            msg::encode_reply(&Err(ServeError::Query(QueryError::DensityTooLow)), 0, 0),
        ),
        (
            "reply_weight_empty",
            msg::encode_reply(&Err(ServeError::Weight(WeightError::Empty)), 0, 0),
        ),
        (
            "reply_weight_non_positive",
            msg::encode_reply(
                &Err(ServeError::Weight(WeightError::NonPositive { index: 3, weight: -0.5 })),
                0,
                0,
            ),
        ),
        (
            "reply_weight_total_overflow",
            msg::encode_reply(&Err(ServeError::Weight(WeightError::TotalOverflow)), 0, 0),
        ),
        (
            "reply_unsupported",
            msg::encode_reply(&Err(ServeError::Unsupported("not a union index".into())), 0, 0),
        ),
        (
            "reply_invalid_request",
            msg::encode_reply(
                &Err(ServeError::InvalidRequest("member-set id out of range".into())),
                0,
                0,
            ),
        ),
        ("reply_deadline_exceeded", msg::encode_reply(&Err(ServeError::DeadlineExceeded), 0, 0)),
        ("reply_shutting_down", msg::encode_reply(&Err(ServeError::ShuttingDown), 0, 0)),
        ("reply_panicked", msg::encode_reply(&Err(ServeError::Panicked), 0, 0)),
        ("metrics_request", msg::encode_metrics_request()),
        ("metrics_reply_default", msg::encode_metrics_reply(&MetricsSnapshot::default())),
        (
            "announce",
            msg::encode_announce(&Announce {
                addr: "127.0.0.1:4100".into(),
                lo_key: 0.0,
                hi_key: 340.0,
                total_weight: 1877.0,
                epoch: 2,
                ttl_ms: 3000,
            }),
        ),
        ("ack", msg::encode_ack(&Ack { accepted: true, epoch: 2 })),
    ]
}

/// The pinned wire bytes, one hex string per fixture, same order.
const GOLDEN: &[(&str, &str)] = &[
    ("request_sample_wr", "49510301010002008877665544332211404b4c000000000000000000370000007b2253616d706c655772223a7b22696e646578223a227368617264222c2272616e6765223a5b2d312e352c322e355d2c2273223a387d7d"),
    ("request_sample_wr_full_range", "495103010000000001000000000000000000000000000000000000003c0000007b2253616d706c655772223a7b22696e646578223a227368617264222c2272616e6765223a5b222d696e66222c22696e66225d2c2273223a31367d7d"),
    ("request_sample_wor", "49510301000000000200000000000000000000000000000000000000320000007b2253616d706c65576f72223a7b22696e646578223a227368617264222c2272616e6765223a6e756c6c2c2273223a337d7d"),
    ("request_range_count", "49510301000000000300000000000000000000000000000000000000300000007b2252616e6765436f756e74223a7b22696e646578223a227368617264222c2278223a302e352c2279223a392e357d7d"),
    ("request_total_weight", "49510301000000000500000000000000000000000000000000000000210000007b22546f74616c576569676874223a7b22696e646578223a227368617264227d7d"),
    ("request_range_weight", "49510301000000000600000000000000000000000000000000000000330000007b2252616e6765576569676874223a7b22696e646578223a227368617264222c2278223a2d302e32352c2279223a3132387d7d"),
    ("request_update", "49510301000000000700000000000000000000000000000000000000610000007b22557064617465223a7b22696e646578223a227368617264222c226f7073223a5b7b22557073657274223a7b226964223a372c226b6579223a312e352c22776569676874223a327d7d2c7b2252656d6f7665223a7b226964223a397d7d5d7d7d"),
    ("response_samples", "495103080900000007000000000000000000000000000000000000001000000004000000010000000200000003000000"),
    ("response_samples_empty", "495103080000000000000000000000000000000000000000000000000400000004000000"),
    ("response_samples_wide", "495103080900000007000000000000000000000000000000000000001c0000000800000001000000000000000000000001000000ffffffffffffffff"),
    ("response_count", "495103020000000000000000000000000000000000000000000000000c0000007b22436f756e74223a34327d"),
    ("response_weight", "495103020000000000000000000000000000000000000000000000000e0000007b22576569676874223a322e357d"),
    ("response_updated", "49510302000000000000000000000000000000000000000000000000250000007b2255706461746564223a7b226170706c696564223a322c2276657273696f6e223a397d7d"),
    ("reply_overloaded", "495103030200000001000000000000000000000000000000000000000c000000224f7665726c6f6164656422"),
    ("reply_unknown_index", "49510303000000000000000000000000000000000000000000000000180000007b22556e6b6e6f776e496e646578223a2267686f7374227d"),
    ("reply_remote", "495103030000000000000000000000000000000000000000000000001a0000007b2252656d6f7465223a226c656173652065787069726564227d"),
    ("reply_query_empty_range", "49510303000000000000000000000000000000000000000000000000160000007b225175657279223a22456d70747952616e6765227d"),
    ("reply_query_sample_too_large", "495103030000000000000000000000000000000000000000000000003c0000007b225175657279223a7b2253616d706c65546f6f4c61726765223a7b22726571756573746564223a31312c22617661696c61626c65223a31307d7d7d"),
    ("reply_query_density_too_low", "49510303000000000000000000000000000000000000000000000000190000007b225175657279223a2244656e73697479546f6f4c6f77227d"),
    ("reply_weight_empty", "49510303000000000000000000000000000000000000000000000000120000007b22576569676874223a22456d707479227d"),
    ("reply_weight_non_positive", "49510303000000000000000000000000000000000000000000000000340000007b22576569676874223a7b224e6f6e506f736974697665223a7b22696e646578223a332c22776569676874223a2d302e357d7d7d"),
    ("reply_weight_total_overflow", "495103030000000000000000000000000000000000000000000000001a0000007b22576569676874223a22546f74616c4f766572666c6f77227d"),
    ("reply_unsupported", "49510303000000000000000000000000000000000000000000000000230000007b22556e737570706f72746564223a226e6f74206120756e696f6e20696e646578227d"),
    ("reply_invalid_request", "495103030000000000000000000000000000000000000000000000002f0000007b22496e76616c696452657175657374223a226d656d6265722d736574206964206f7574206f662072616e6765227d"),
    ("reply_deadline_exceeded", "495103030000000000000000000000000000000000000000000000001200000022446561646c696e65457863656564656422"),
    ("reply_shutting_down", "495103030000000000000000000000000000000000000000000000000e000000225368757474696e67446f776e22"),
    ("reply_panicked", "495103030000000000000000000000000000000000000000000000000a0000002250616e69636b656422"),
    ("metrics_request", "4951030600000000000000000000000000000000000000000000000000000000"),
    ("metrics_reply_default", "49510306000000000000000000000000000000000000000000000000240200007b227375626d6974746564223a302c22636f6d706c65746564223a302c226661696c6564223a302c2272656a65637465645f6f7665726c6f6164223a302c22646561646c696e655f6d6973736564223a302c22757064617465735f6170706c696564223a302c2271756575655f6465707468223a302c22736e617073686f745f7377617073223a302c22726e675f776f726473223a302c22726e675f726566696c6c73223a302c2270726566657463686573223a302c2277696e646f775f7374616c6c73223a302c2263616368655f68697473223a302c2263616368655f6d6973736573223a302c22626c6f636b5f7265616473223a302c22626c6f636b5f777269746573223a302c226c6174656e6379223a5b302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c305d2c2271756575655f77616974223a5b302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c302c305d7d"),
    ("announce", "495103040000000000000000000000000000000000000000000000005d0000007b2261646472223a223132372e302e302e313a34313030222c226c6f5f6b6579223a302c2268695f6b6579223a3334302c22746f74616c5f776569676874223a313837372c2265706f6368223a322c2274746c5f6d73223a333030307d"),
    ("ack", "495103050000000000000000000000000000000000000000000000001b0000007b226163636570746564223a747275652c2265706f6368223a327d"),
];

#[test]
fn golden_fixtures_are_byte_exact() {
    let fixtures = fixtures();
    if GOLDEN.len() != fixtures.len() {
        // Regeneration aid: print the table to paste back in.
        for (name, frame) in &fixtures {
            println!("    (\"{name}\", \"{}\"),", hex(frame));
        }
        panic!("golden table out of date: {} fixtures, {} pinned", fixtures.len(), GOLDEN.len());
    }
    for ((name, frame), (gname, ghex)) in fixtures.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "fixture order changed");
        assert_eq!(
            hex(frame),
            *ghex,
            "wire bytes changed for `{name}` — this is a protocol break; bump frame::VERSION"
        );
        // And the pinned bytes still decode.
        decode_frame(&unhex(ghex), DEFAULT_MAX_PAYLOAD)
            .unwrap_or_else(|e| panic!("pinned fixture `{name}` no longer decodes: {e}"));
    }
}

/// The pinned `Samples` bytes decode to the ids they were pinned from:
/// the fixtures hold the decoder to the layout, not just the encoder.
#[test]
fn samples_fixtures_decode_to_their_ids() {
    let pinned = |name: &str| {
        let (_, ghex) = GOLDEN.iter().find(|(n, _)| *n == name).expect("fixture exists");
        let bytes = unhex(ghex);
        let (header, payload) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("decodes");
        assert_eq!(header.kind, Kind::Samples, "{name}");
        (payload[0], msg::decode_reply(header.kind, payload).expect("reply decodes"))
    };
    assert_eq!(pinned("response_samples"), (4, Ok(Response::Samples(vec![1, 2, 3]))));
    assert_eq!(pinned("response_samples_empty"), (4, Ok(Response::Samples(Vec::new()))));
    assert_eq!(
        pinned("response_samples_wide"),
        (8, Ok(Response::Samples(vec![1, u64::from(u32::MAX) + 1, u64::MAX])))
    );
}

/// Encodes `ids` as a reply, checks the width byte and the exact frame
/// length the width implies, and returns the ids decoded back.
fn samples_through_the_wire(ids: &[u64], width: usize) -> Vec<u64> {
    let frame = msg::encode_reply(&Ok(Response::Samples(ids.to_vec())), 3, 4);
    assert_eq!(frame.len(), HEADER_LEN + 4 + width * ids.len());
    let (header, payload) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("well-formed");
    assert_eq!((header.kind, header.trace, header.span), (Kind::Samples, 3, 4));
    assert_eq!(usize::from(payload[0]), width);
    match msg::decode_reply(header.kind, payload).expect("reply decodes") {
        Ok(Response::Samples(back)) => back,
        other => panic!("expected samples, got {other:?}"),
    }
}

/// The width switches exactly between `u32::MAX` and `u32::MAX + 1`.
#[test]
fn samples_width_boundary_is_u32_max() {
    let edge = u64::from(u32::MAX);
    assert_eq!(samples_through_the_wire(&[0, edge], 4), [0, edge]);
    assert_eq!(samples_through_the_wire(&[0, edge + 1], 8), [0, edge + 1]);
    assert_eq!(samples_through_the_wire(&[u64::MAX], 8), [u64::MAX]);
    assert_eq!(samples_through_the_wire(&[], 4), [0u64; 0]);
}

/// Builds one of every request shape from a handful of drawn scalars.
fn request_from(kind: u8, range: &[f64], s: u32, id: u64) -> Request {
    let (x, y) = (range[0].min(range[1]), range[0].max(range[1]));
    match kind {
        0 => Request::SampleWr { index: "shard".into(), range: Some((x, y)), s },
        1 => Request::SampleWr {
            index: "weird \"index\"\n".into(),
            range: Some((f64::NEG_INFINITY, f64::INFINITY)),
            s,
        },
        2 => Request::SampleWor { index: "shard".into(), range: None, s },
        3 => Request::RangeCount { index: "shard".into(), x, y },
        4 => Request::TotalWeight { index: "shard".into() },
        _ => Request::Update {
            index: "shard".into(),
            ops: vec![UpdateOp::Upsert { id, key: x, weight: y + 0.5 }, UpdateOp::Remove { id }],
        },
    }
}

proptest! {
    /// Every encodable request survives the wire byte-for-byte: encode,
    /// frame-decode, payload-parse, and compare structurally.
    #[test]
    fn requests_roundtrip_the_wire(
        kind in 0u8..6,
        range in pvec(0.0f64..100.0, 2),
        s in 0u32..1000,
        id in 0u64..100,
        trace in 0u64..u64::MAX,
        span in 0u32..u32::MAX,
    ) {
        let request = request_from(kind, &range, s, id);
        let frame = msg::encode_request(&request, trace, span, 1234);
        let (header, payload) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("well-formed");
        prop_assert_eq!(header.trace, trace);
        prop_assert_eq!(header.span, span);
        prop_assert_eq!(header.deadline_ns, 1234);
        let back: Request = msg::from_json(payload).expect("payload parses");
        prop_assert_eq!(back, request);
    }

    /// Sample ids over the whole `u64` range survive the wire at the
    /// width their largest member needs: 4 bytes while every id fits a
    /// `u32`, 8 from the first one that does not, wherever it sits.
    #[test]
    fn samples_roundtrip_at_both_widths(
        narrow in pvec(0u64..=0xFFFF_FFFF, 0..50),
        wide in 0x1_0000_0000u64..=u64::MAX,
        at in 0usize..50,
        any in pvec(0u64..=u64::MAX, 0..50),
    ) {
        prop_assert_eq!(&samples_through_the_wire(&narrow, 4), &narrow);
        let mut mixed = narrow;
        mixed.insert(at % (mixed.len() + 1), wide);
        prop_assert_eq!(&samples_through_the_wire(&mixed, 8), &mixed);
        let width = if any.iter().all(|&id| id <= 0xFFFF_FFFF) { 4 } else { 8 };
        prop_assert_eq!(&samples_through_the_wire(&any, width), &any);
    }

    /// Replies too: every `Response` and every `ServeError` variant,
    /// the typed errors a replica answers a query with included.
    #[test]
    fn replies_roundtrip_the_wire(
        ids in pvec(0u64..u64::MAX, 0..50),
        count in 0usize..1_000_000,
        version in 0u64..u64::MAX,
        weight in -1e300f64..1e300,
        chars in pvec(0u32..0x3000, 0..12),
    ) {
        // Control characters included: they cross as `\u` escapes.
        let text: String = chars.into_iter().filter_map(char::from_u32).collect();
        let too_large = QueryError::SampleTooLarge { requested: count + 1, available: count };
        for outcome in [
            Ok(Response::Samples(ids.clone())),
            Ok(Response::Count(count)),
            Ok(Response::Weight(weight)),
            Ok(Response::Updated { applied: count, version }),
            Err(ServeError::UnknownIndex(text.clone())),
            Err(ServeError::Query(QueryError::EmptyRange)),
            Err(ServeError::Query(too_large)),
            Err(ServeError::Query(QueryError::DensityTooLow)),
            Err(ServeError::Weight(WeightError::Empty)),
            Err(ServeError::Weight(WeightError::NonPositive { index: count, weight })),
            Err(ServeError::Weight(WeightError::TotalOverflow)),
            Err(ServeError::Unsupported(text.clone().into())),
            Err(ServeError::InvalidRequest(text.clone().into())),
            Err(ServeError::Overloaded),
            Err(ServeError::DeadlineExceeded),
            Err(ServeError::ShuttingDown),
            Err(ServeError::Panicked),
            Err(ServeError::Remote(text.clone())),
        ] {
            let frame = msg::encode_reply(&outcome, 9, 9);
            let (header, payload) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("well-formed");
            let back = msg::decode_reply(header.kind, payload).expect("reply decodes");
            prop_assert_eq!(back, outcome);
        }
    }
}
