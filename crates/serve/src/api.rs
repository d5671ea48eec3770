//! The service's typed request/response vocabulary.
//!
//! Requests name an index in the registry and dispatch to the matching
//! structure's batch entry point on a worker thread. Samples come back as
//! element *ids*: for dynamic indexes these are the caller-chosen ids the
//! elements were inserted under; for a static range index they are the
//! ranks in sorted key order (the same convention as
//! [`iqs_core::RangeSampler`]).

/// One mutation of a dynamic index, applied through the service so the
/// writer path enjoys the same admission control and metrics as reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateOp {
    /// Inserts `id` or replaces its key/weight if present. Weighted-set
    /// indexes (no key dimension) ignore `key`.
    Upsert {
        /// Caller-chosen element id.
        id: u64,
        /// Position on the line (range indexes only).
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
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `s` independent weighted samples **with** replacement. For range
    /// indexes `range = Some((x, y))` restricts to the closed key
    /// interval; `None` samples the whole index (also the form weighted
    /// set indexes accept).
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
    /// `s` independent uniform samples of the union of the named member
    /// sets of a set-union index (Theorem 8 through the service path).
    SampleUnion {
        /// Target index name.
        index: String,
        /// Member-set ids forming the query family `G`.
        g: Vec<u32>,
        /// Number of samples.
        s: u32,
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
    /// publishes a freshly rebuilt snapshot. Readers keep sampling the
    /// previous snapshot throughout; they never block on the rebuild.
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
            | Request::SampleUnion { index, .. }
            | Request::TotalWeight { index }
            | Request::RangeWeight { index, .. }
            | Request::Update { index, .. } => index,
        }
    }
}

/// A successful response.
///
/// (No `Eq`: [`Response::Weight`] carries an `f64`.)
#[derive(Debug, Clone, PartialEq)]
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

// Wire encoding: externally tagged JSON objects (`{"SampleWr":{...}}`),
// hand-written because the vendored serde derive covers named-field
// structs only. Field order is fixed and load-bearing — the pull-parser
// reads fields in declaration order — and `iqs-net` pins the exact
// bytes with golden-frame fixtures, so any change here is a wire-format
// version bump. One value never takes this encoding on the wire:
// `iqs-net` ships `Response::Samples` as a binary frame of its own
// (`iqs_net::frame`), because 4096 ids cost more to print and parse as
// decimal text than to draw; its JSON form below serves every other
// consumer of these impls.

use serde::de::{Error as DeError, Parser};
use serde::{Deserialize, Serialize};

/// Opens `{"tag":` for a tagged enum body.
fn open_tag(tag: &str, out: &mut String) {
    out.push('{');
    serde::de::write_json_string(tag, out);
    out.push(':');
}

/// Reads the tag of an externally tagged enum value, leaving the cursor
/// on the body. The caller must consume the closing `}`.
fn read_tag(p: &mut Parser<'_>) -> Result<String, DeError> {
    p.expect_char('{')?;
    let tag = p.parse_string()?;
    p.expect_char(':')?;
    Ok(tag)
}

impl Serialize for UpdateOp {
    fn serialize_json(&self, out: &mut String) {
        match self {
            UpdateOp::Upsert { id, key, weight } => {
                open_tag("Upsert", out);
                out.push_str("{\"id\":");
                id.serialize_json(out);
                out.push_str(",\"key\":");
                key.serialize_json(out);
                out.push_str(",\"weight\":");
                weight.serialize_json(out);
                out.push_str("}}");
            }
            UpdateOp::Remove { id } => {
                open_tag("Remove", out);
                out.push_str("{\"id\":");
                id.serialize_json(out);
                out.push_str("}}");
            }
        }
    }
}

impl Deserialize for UpdateOp {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        let tag = read_tag(p)?;
        let op = match tag.as_str() {
            "Upsert" => {
                p.expect_char('{')?;
                p.expect_key("id")?;
                let id = u64::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("key")?;
                let key = f64::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("weight")?;
                let weight = f64::deserialize_json(p)?;
                p.expect_char('}')?;
                UpdateOp::Upsert { id, key, weight }
            }
            "Remove" => {
                p.expect_char('{')?;
                p.expect_key("id")?;
                let id = u64::deserialize_json(p)?;
                p.expect_char('}')?;
                UpdateOp::Remove { id }
            }
            other => return Err(DeError::custom(format!("unknown UpdateOp variant {other:?}"))),
        };
        p.expect_char('}')?;
        Ok(op)
    }
}

impl Serialize for Request {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Request::SampleWr { index, range, s } | Request::SampleWor { index, range, s } => {
                let tag =
                    if matches!(self, Request::SampleWr { .. }) { "SampleWr" } else { "SampleWor" };
                open_tag(tag, out);
                out.push_str("{\"index\":");
                index.serialize_json(out);
                out.push_str(",\"range\":");
                range.serialize_json(out);
                out.push_str(",\"s\":");
                s.serialize_json(out);
                out.push_str("}}");
            }
            Request::RangeCount { index, x, y } | Request::RangeWeight { index, x, y } => {
                let tag = if matches!(self, Request::RangeCount { .. }) {
                    "RangeCount"
                } else {
                    "RangeWeight"
                };
                open_tag(tag, out);
                out.push_str("{\"index\":");
                index.serialize_json(out);
                out.push_str(",\"x\":");
                x.serialize_json(out);
                out.push_str(",\"y\":");
                y.serialize_json(out);
                out.push_str("}}");
            }
            Request::SampleUnion { index, g, s } => {
                open_tag("SampleUnion", out);
                out.push_str("{\"index\":");
                index.serialize_json(out);
                out.push_str(",\"g\":");
                g.serialize_json(out);
                out.push_str(",\"s\":");
                s.serialize_json(out);
                out.push_str("}}");
            }
            Request::TotalWeight { index } => {
                open_tag("TotalWeight", out);
                out.push_str("{\"index\":");
                index.serialize_json(out);
                out.push_str("}}");
            }
            Request::Update { index, ops } => {
                open_tag("Update", out);
                out.push_str("{\"index\":");
                index.serialize_json(out);
                out.push_str(",\"ops\":");
                ops.serialize_json(out);
                out.push_str("}}");
            }
        }
    }
}

impl Deserialize for Request {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        let tag = read_tag(p)?;
        let request = match tag.as_str() {
            "SampleWr" | "SampleWor" => {
                p.expect_char('{')?;
                p.expect_key("index")?;
                let index = String::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("range")?;
                let range = Option::<(f64, f64)>::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("s")?;
                let s = u32::deserialize_json(p)?;
                p.expect_char('}')?;
                if tag == "SampleWr" {
                    Request::SampleWr { index, range, s }
                } else {
                    Request::SampleWor { index, range, s }
                }
            }
            "RangeCount" | "RangeWeight" => {
                p.expect_char('{')?;
                p.expect_key("index")?;
                let index = String::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("x")?;
                let x = f64::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("y")?;
                let y = f64::deserialize_json(p)?;
                p.expect_char('}')?;
                if tag == "RangeCount" {
                    Request::RangeCount { index, x, y }
                } else {
                    Request::RangeWeight { index, x, y }
                }
            }
            "SampleUnion" => {
                p.expect_char('{')?;
                p.expect_key("index")?;
                let index = String::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("g")?;
                let g = Vec::<u32>::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("s")?;
                let s = u32::deserialize_json(p)?;
                p.expect_char('}')?;
                Request::SampleUnion { index, g, s }
            }
            "TotalWeight" => {
                p.expect_char('{')?;
                p.expect_key("index")?;
                let index = String::deserialize_json(p)?;
                p.expect_char('}')?;
                Request::TotalWeight { index }
            }
            "Update" => {
                p.expect_char('{')?;
                p.expect_key("index")?;
                let index = String::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("ops")?;
                let ops = Vec::<UpdateOp>::deserialize_json(p)?;
                p.expect_char('}')?;
                Request::Update { index, ops }
            }
            other => return Err(DeError::custom(format!("unknown Request variant {other:?}"))),
        };
        p.expect_char('}')?;
        Ok(request)
    }
}

impl Serialize for Response {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Response::Samples(ids) => {
                open_tag("Samples", out);
                ids.serialize_json(out);
                out.push('}');
            }
            Response::Count(count) => {
                open_tag("Count", out);
                count.serialize_json(out);
                out.push('}');
            }
            Response::Weight(w) => {
                open_tag("Weight", out);
                w.serialize_json(out);
                out.push('}');
            }
            Response::Updated { applied, version } => {
                open_tag("Updated", out);
                out.push_str("{\"applied\":");
                applied.serialize_json(out);
                out.push_str(",\"version\":");
                version.serialize_json(out);
                out.push_str("}}");
            }
        }
    }
}

impl Deserialize for Response {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        let tag = read_tag(p)?;
        let response = match tag.as_str() {
            "Samples" => Response::Samples(Vec::<u64>::deserialize_json(p)?),
            "Count" => Response::Count(usize::deserialize_json(p)?),
            "Weight" => Response::Weight(f64::deserialize_json(p)?),
            "Updated" => {
                p.expect_char('{')?;
                p.expect_key("applied")?;
                let applied = usize::deserialize_json(p)?;
                p.expect_char(',')?;
                p.expect_key("version")?;
                let version = u64::deserialize_json(p)?;
                p.expect_char('}')?;
                Response::Updated { applied, version }
            }
            other => return Err(DeError::custom(format!("unknown Response variant {other:?}"))),
        };
        p.expect_char('}')?;
        Ok(response)
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    fn roundtrip<T: Serialize + Deserialize + std::fmt::Debug + PartialEq>(v: &T) {
        let mut s = String::new();
        v.serialize_json(&mut s);
        let mut p = Parser::new(&s);
        let back = T::deserialize_json(&mut p).unwrap_or_else(|e| panic!("parse {s:?}: {e}"));
        p.expect_eof().expect("trailing garbage");
        assert_eq!(&back, v, "round-trip through {s}");
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
        roundtrip(&Request::SampleUnion { index: "u".into(), g: vec![0, 7, 2], s: 12 });
        roundtrip(&Request::SampleUnion { index: "u".into(), g: Vec::new(), s: 1 });
        roundtrip(&Request::TotalWeight { index: "t".into() });
        roundtrip(&Request::RangeWeight { index: "w".into(), x: 2.0, y: 3.0 });
        roundtrip(&Request::Update {
            index: "d".into(),
            ops: vec![
                UpdateOp::Upsert { id: 4, key: 0.125, weight: 2.5 },
                UpdateOp::Remove { id: 9 },
            ],
        });
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
        for text in ["{\"Nope\":3}", "[]", "{\"Samples\":{}}"] {
            let mut p = Parser::new(text);
            assert!(Response::deserialize_json(&mut p).is_err(), "{text} should not parse");
        }
    }
}
