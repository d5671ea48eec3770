//! The service's typed request/response vocabulary.
//!
//! Requests name an index in the registry and dispatch to the matching
//! structure's batch entry point, on the caller's own thread when the
//! service has a seat free and on a worker thread otherwise. Samples
//! come back as element *ids*: for dynamic indexes these are the
//! caller-chosen ids the elements were inserted under; for a static range
//! index they are the ranks in sorted key order (the same convention as
//! [`iqs_core::RangeSampler`]).
//!
//! The wire encoding is derived: externally tagged JSON
//! (`{"SampleWr":{...}}`), fields in declaration order. The order is
//! load-bearing — the pull-parser reads fields in that order — and
//! `iqs-net` pins the exact bytes with golden-frame fixtures, so
//! reordering a field or renaming a variant is a wire-format version
//! bump. One value never takes this encoding on the wire: `iqs-net`
//! ships [`Response::Samples`] as a binary frame of its own, because 4096
//! ids cost more to print and parse as decimal text than to draw.

use serde::{Deserialize, Serialize};

/// One mutation of a dynamic index, applied through the service so the
/// writer path enjoys the same admission control and metrics as reads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UpdateOp {
    /// Inserts `id` or replaces its key/weight if present.
    Upsert {
        /// Caller-chosen element id.
        id: u64,
        /// Position on the line; must be finite.
        key: f64,
        /// Sampling weight; must be finite-positive.
        weight: f64,
    },
    /// Removes `id` if present (removing an absent id is not an error —
    /// it simply does not count as applied).
    Remove {
        /// The element id to remove.
        id: u64,
    },
}

/// A sampling/service request. All variants name the target index by its
/// registered name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// `s` independent weighted samples **with** replacement.
    /// `range = Some((x, y))` restricts to the closed key interval;
    /// `None` samples the whole index.
    SampleWr {
        /// Target index name.
        index: String,
        /// Closed key interval, or `None` for the full index.
        range: Option<(f64, f64)>,
        /// Number of samples.
        s: u32,
    },
    /// `s` *distinct* weighted samples (without replacement). Range
    /// indexes only.
    SampleWor {
        /// Target index name.
        index: String,
        /// Closed key interval, or `None` for the full index.
        range: Option<(f64, f64)>,
        /// Number of distinct samples; must not exceed `|S_q|`.
        s: u32,
    },
    /// Number of elements in the closed key interval `[x, y]`. Range
    /// indexes only.
    RangeCount {
        /// Target index name.
        index: String,
        /// Interval start.
        x: f64,
        /// Interval end.
        y: f64,
    },
    /// Total sampling weight of the index. Served from a value cached in
    /// the published snapshot at view-build time, so it costs one
    /// snapshot load — no structure traversal. This is the cheap weight
    /// probe a sharding router uses to build its top-level alias table
    /// without a full `RangeCount`/`RangeWeight` round trip per shard.
    TotalWeight {
        /// Target index name.
        index: String,
    },
    /// Total sampling weight of the elements with keys in the closed
    /// interval `[x, y]`. Range indexes only; computed exactly from the
    /// index's prefix sums (Fenwick over chunks).
    RangeWeight {
        /// Target index name.
        index: String,
        /// Interval start.
        x: f64,
        /// Interval end.
        y: f64,
    },
    /// Applies `ops` to a dynamic index in order, then atomically
    /// publishes the next view: a batch that only re-weights patches the
    /// chunks it touches, any other batch rebuilds the view (registry
    /// module docs). Readers keep sampling the previous view throughout;
    /// they never block on the write.
    Update {
        /// Target index name.
        index: String,
        /// Mutations, applied in order.
        ops: Vec<UpdateOp>,
    },
}

impl Request {
    /// The name of the index this request targets.
    pub fn index(&self) -> &str {
        match self {
            Request::SampleWr { index, .. }
            | Request::SampleWor { index, .. }
            | Request::RangeCount { index, .. }
            | Request::TotalWeight { index }
            | Request::RangeWeight { index, .. }
            | Request::Update { index, .. } => index,
        }
    }
}

/// What one leg of a sharded scatter asks of its shard: `s` draws with
/// replacement over the closed key interval `[x, y]`, or the count of
/// elements in it. A leg is run where it is asked
/// ([`crate::Client::answer`]) without becoming a [`Request`]; it becomes
/// one only where it must be queued or sent ([`LegAsk::request`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LegAsk {
    /// [`Request::SampleWr`] over `[x, y]`.
    SampleWr {
        /// Interval start.
        x: f64,
        /// Interval end.
        y: f64,
        /// Number of samples.
        s: u32,
    },
    /// [`Request::RangeCount`] over `[x, y]`.
    RangeCount {
        /// Interval start.
        x: f64,
        /// Interval end.
        y: f64,
    },
}

impl LegAsk {
    /// The request this leg is, addressed to `index`.
    #[must_use]
    pub fn request(self, index: &str) -> Request {
        let index = index.to_string();
        match self {
            LegAsk::SampleWr { x, y, s } => Request::SampleWr { index, range: Some((x, y)), s },
            LegAsk::RangeCount { x, y } => Request::RangeCount { index, x, y },
        }
    }

    /// The draws the leg asks for (0 for a count).
    #[must_use]
    pub fn planned(self) -> u64 {
        match self {
            LegAsk::SampleWr { s, .. } => u64::from(s),
            LegAsk::RangeCount { .. } => 0,
        }
    }
}

/// A successful response.
///
/// (No `Eq`: [`Response::Weight`] carries an `f64`.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Sampled element ids (see the module docs for the id convention).
    ///
    /// **Order contract.** From a single index the ids are an i.i.d.
    /// *sequence* in draw order (`iqs_core::RangeSampler::sample_wr_into`):
    /// any prefix of the reply is itself a sample. A *routed* reply —
    /// `iqs_shard`'s `Sampled::ids`, a tiered index's — is a *multiset*:
    /// `shard::merge::Sampled::absorb` puts the legs end to end in shard
    /// order with multinomially split counts, so its first `k` ids
    /// over-represent the low shards. A consumer that wants fewer ids
    /// than it asked for must ask for fewer, or pick positions at random;
    /// it must not truncate a routed reply.
    Samples(Vec<u64>),
    /// An element count.
    Count(usize),
    /// A total or range sampling weight.
    Weight(f64),
    /// Outcome of an [`Request::Update`].
    Updated {
        /// Operations that took effect (removing an absent id does not
        /// count).
        applied: usize,
        /// Version number of the published snapshot now serving reads.
        version: u64,
    },
}

impl Response {
    /// The samples carried by a [`Response::Samples`], or `None`.
    pub fn samples(&self) -> Option<&[u64]> {
        match self {
            Response::Samples(ids) => Some(ids),
            _ => None,
        }
    }
}

/// The shapes the vendored `derive` refuses with a `compile_error!` of
/// its own. `vendor/` is outside the workspace, so its refusals are held
/// here. The first block compiles; every other block adds one refused
/// shape to an enum or struct that would otherwise derive.
///
/// ```
/// #[derive(serde::Serialize, serde::Deserialize)]
/// enum Derivable { Unit, Other, Newtype(u32), Struct { a: u32, b: Option<String> } }
/// #[derive(serde::Serialize, serde::Deserialize)]
/// struct Generic<T> { t: T }
/// #[derive(serde::Serialize, serde::Deserialize)]
/// struct Skipping { kept: u32, #[serde(skip)] left_out: Vec<u8> }
/// ```
///
/// An explicit discriminant:
/// ```compile_fail
/// #[derive(serde::Serialize, serde::Deserialize)]
/// enum Refused { Unit = 1, Other }
/// ```
/// A tuple variant of two fields:
/// ```compile_fail
/// #[derive(serde::Serialize, serde::Deserialize)]
/// enum Refused { Unit, Pair(u32, u32) }
/// ```
/// A generic enum:
/// ```compile_fail
/// #[derive(serde::Serialize, serde::Deserialize)]
/// enum Refused<T> { Unit, Newtype(T) }
/// ```
/// A tuple struct:
/// ```compile_fail
/// #[derive(serde::Serialize, serde::Deserialize)]
/// struct Refused(u32);
/// ```
/// A skipped field of an enum variant:
/// ```compile_fail
/// #[derive(serde::Serialize, serde::Deserialize)]
/// enum Refused { Unit, Struct { a: u32, #[serde(skip)] b: u32 } }
/// ```
/// A `serde` attribute other than `skip`:
/// ```compile_fail
/// #[derive(serde::Serialize, serde::Deserialize)]
/// struct Refused { #[serde(rename = "b")] a: u32 }
/// ```
#[cfg(doctest)]
struct DeriveRefusals;

#[cfg(test)]
pub(crate) mod serde_tests {
    use super::*;

    /// Asserts `v` comes back from its wire text as itself, and that no
    /// proper prefix of that text decodes.
    pub(crate) fn roundtrip<T>(v: &T)
    where
        T: Serialize + Deserialize + std::fmt::Debug + PartialEq,
    {
        let text = serde_json::to_string(v).expect("infallible");
        let back: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        assert_eq!(&back, v, "round-trip through {text}");
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            let cut = &text[..end];
            assert!(serde_json::from_str::<T>(cut).is_err(), "prefix {cut:?} decoded");
        }
    }

    #[test]
    fn requests_roundtrip_including_nonfinite_ranges() {
        roundtrip(&Request::SampleWr { index: "a".into(), range: Some((0.25, 7.5)), s: 3 });
        roundtrip(&Request::SampleWr { index: "a".into(), range: None, s: 1 });
        // The router's full-range scatter legs carry ±infinity endpoints;
        // the wire must not mangle them.
        roundtrip(&Request::SampleWr {
            index: "shard".into(),
            range: Some((f64::NEG_INFINITY, f64::INFINITY)),
            s: 64,
        });
        roundtrip(&Request::SampleWor { index: "b\"x".into(), range: Some((-1.0, 1.0)), s: 9 });
        roundtrip(&Request::RangeCount { index: "c".into(), x: -0.5, y: 1e300 });
        roundtrip(&Request::TotalWeight { index: "t".into() });
        roundtrip(&Request::RangeWeight { index: "w".into(), x: 2.0, y: 3.0 });
        roundtrip(&Request::Update {
            index: "d".into(),
            ops: vec![
                UpdateOp::Upsert { id: 4, key: 0.125, weight: 2.5 },
                UpdateOp::Remove { id: 9 },
            ],
        });
        roundtrip(&UpdateOp::Remove { id: u64::MAX });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(&Response::Samples(vec![1, 2, u64::MAX]));
        roundtrip(&Response::Samples(Vec::new()));
        roundtrip(&Response::Count(0));
        roundtrip(&Response::Weight(1.0 / 3.0));
        roundtrip(&Response::Updated { applied: 5, version: 17 });
    }

    #[test]
    fn unknown_variants_are_typed_errors() {
        for text in ["{\"Nope\":3}", "[]", "{\"Samples\":{}}", "\"Count\""] {
            assert!(serde_json::from_str::<Response>(text).is_err(), "{text} should not parse");
        }
    }

    /// Text the derived decoders must refuse with a parse error: a tag
    /// that names no variant, a missing, extra or reordered field, a
    /// body of the wrong shape, and bytes after a complete value.
    #[test]
    fn malformed_text_is_a_parse_error() {
        let requests = [
            r#"{"SampleWR":{"index":"a","range":null,"s":3}}"#,
            r#"{"SampleWr":{"index":"a","s":3}}"#,
            r#"{"SampleWr":{"range":null,"index":"a","s":3}}"#,
            r#"{"SampleWr":{"index":"a","range":null,"s":3,"t":4}}"#,
            r#"{"TotalWeight":{}}"#,
            r#"{"TotalWeight":"a"}"#,
            r#""TotalWeight""#,
            r#"{"RangeCount":{"index":"c","y":2,"x":1}}"#,
            r#"{"TotalWeight":{"index":"a"},"RangeCount":{}}"#,
            r#"{"TotalWeight":{"index":"a"}} {}"#,
            r#"{"Update":{"index":"d","ops":[{"Remove":{"id":9,"key":1}}]}}"#,
            r#"{"Update":{"index":"d","ops":["Remove"]}}"#,
        ];
        for text in requests {
            assert!(serde_json::from_str::<Request>(text).is_err(), "{text} should not parse");
        }
        for text in [r#"{"Updated":{"version":9,"applied":2}}"#, r#"{"Count":3} 4"#] {
            assert!(serde_json::from_str::<Response>(text).is_err(), "{text} should not parse");
        }
    }
}
