//! The service-layer error type. Everything a request can fail with is
//! one boxable enum, so callers (and the examples/harness) can `?` it
//! through `Box<dyn Error>` alongside the structure-level errors.

use std::fmt;

use iqs_alias::WeightError;
use iqs_core::QueryError;

/// Errors returned by the sampling service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request named an index that is not registered.
    UnknownIndex(String),
    /// The underlying structure rejected the query (empty range, WoR
    /// oversample, rejection budget, …).
    Query(QueryError),
    /// An update carried an invalid weight.
    Weight(WeightError),
    /// The request kind is not supported by the target index's type
    /// (e.g. keyed range queries against a weighted-set index).
    Unsupported(&'static str),
    /// The request was malformed (oversized sample, bad set id, …).
    InvalidRequest(&'static str),
    /// Admission control refused the request: the queue is at capacity.
    /// Back off and retry; in-budget traffic keeps its latency.
    Overloaded,
    /// Per-tenant admission control refused the request: the named
    /// tenant's token-bucket quota is exhausted. Unlike [`Overloaded`]
    /// (a service-wide condition), this is the tenant's own excess —
    /// other tenants' traffic is unaffected.
    ///
    /// [`Overloaded`]: ServeError::Overloaded
    QuotaExceeded(String),
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request panicked while it ran. The panic was contained: the
    /// thread that ran it survives and the service keeps answering. It
    /// points at a bug in an index implementation, not at the request.
    Panicked,
    /// A failure that crossed a process boundary: the transport could
    /// not complete the round trip (connect refused, timeout, expired
    /// lease), or the remote replica reported an error with no typed
    /// local representation. Produced only by the `iqs-net` remote
    /// path; in-process services never return it.
    Remote(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownIndex(name) => write!(f, "no index named {name:?} is registered"),
            ServeError::Query(e) => write!(f, "query failed: {e}"),
            ServeError::Weight(e) => write!(f, "update rejected: {e}"),
            ServeError::Unsupported(what) => {
                write!(f, "request not supported by this index type: {what}")
            }
            ServeError::InvalidRequest(what) => write!(f, "invalid request: {what}"),
            ServeError::Overloaded => write!(f, "service overloaded: request queue at capacity"),
            ServeError::QuotaExceeded(tenant) => {
                write!(f, "tenant {tenant:?} exceeded its admission quota")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline expired before the request ran"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Panicked => {
                write!(f, "request panicked while running; the panic was contained")
            }
            ServeError::Remote(detail) => write!(f, "remote replica failure: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            ServeError::Weight(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

impl From<WeightError> for ServeError {
    fn from(e: WeightError) -> Self {
        ServeError::Weight(e)
    }
}

// Wire encoding, mirroring the `Request`/`Response` impls in `api.rs`:
// externally tagged objects, unit-like variants as bare strings. Every
// variant round-trips exactly except `Unsupported` and `InvalidRequest`,
// whose `&'static str` payloads cannot be reconstructed from owned text;
// those decode as [`ServeError::Remote`] carrying the original message,
// which is the honest reading — the typed detail did not survive the
// process boundary, the diagnostic text did.

use serde::de::{Error as DeError, Parser};
use serde::{Deserialize, Serialize};

impl Serialize for ServeError {
    fn serialize_json(&self, out: &mut String) {
        let tagged = |tag: &str, out: &mut String| {
            out.push('{');
            serde::de::write_json_string(tag, out);
            out.push(':');
        };
        match self {
            ServeError::UnknownIndex(name) => {
                tagged("UnknownIndex", out);
                name.serialize_json(out);
                out.push('}');
            }
            ServeError::Query(e) => {
                tagged("Query", out);
                match e {
                    QueryError::EmptyRange => out.push_str("\"EmptyRange\""),
                    QueryError::SampleTooLarge { requested, available } => {
                        tagged("SampleTooLarge", out);
                        out.push_str("{\"requested\":");
                        requested.serialize_json(out);
                        out.push_str(",\"available\":");
                        available.serialize_json(out);
                        out.push_str("}}");
                    }
                    QueryError::DensityTooLow => out.push_str("\"DensityTooLow\""),
                }
                out.push('}');
            }
            ServeError::Weight(e) => {
                tagged("Weight", out);
                match e {
                    WeightError::Empty => out.push_str("\"Empty\""),
                    WeightError::NonPositive { index, weight } => {
                        tagged("NonPositive", out);
                        out.push_str("{\"index\":");
                        index.serialize_json(out);
                        out.push_str(",\"weight\":");
                        weight.serialize_json(out);
                        out.push_str("}}");
                    }
                    WeightError::TotalOverflow => out.push_str("\"TotalOverflow\""),
                }
                out.push('}');
            }
            ServeError::Unsupported(what) => {
                tagged("Unsupported", out);
                what.serialize_json(out);
                out.push('}');
            }
            ServeError::InvalidRequest(what) => {
                tagged("InvalidRequest", out);
                what.serialize_json(out);
                out.push('}');
            }
            ServeError::Overloaded => out.push_str("\"Overloaded\""),
            ServeError::QuotaExceeded(tenant) => {
                tagged("QuotaExceeded", out);
                tenant.serialize_json(out);
                out.push('}');
            }
            ServeError::DeadlineExceeded => out.push_str("\"DeadlineExceeded\""),
            ServeError::ShuttingDown => out.push_str("\"ShuttingDown\""),
            ServeError::Panicked => out.push_str("\"Panicked\""),
            ServeError::Remote(detail) => {
                tagged("Remote", out);
                detail.serialize_json(out);
                out.push('}');
            }
        }
    }
}

impl Deserialize for ServeError {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        if p.try_literal("\"Overloaded\"") {
            return Ok(ServeError::Overloaded);
        }
        if p.try_literal("\"DeadlineExceeded\"") {
            return Ok(ServeError::DeadlineExceeded);
        }
        if p.try_literal("\"ShuttingDown\"") {
            return Ok(ServeError::ShuttingDown);
        }
        if p.try_literal("\"Panicked\"") {
            return Ok(ServeError::Panicked);
        }
        p.expect_char('{')?;
        let tag = p.parse_string()?;
        p.expect_char(':')?;
        let err = match tag.as_str() {
            "UnknownIndex" => ServeError::UnknownIndex(String::deserialize_json(p)?),
            "Query" => {
                if p.try_literal("\"EmptyRange\"") {
                    ServeError::Query(QueryError::EmptyRange)
                } else if p.try_literal("\"DensityTooLow\"") {
                    ServeError::Query(QueryError::DensityTooLow)
                } else {
                    p.expect_char('{')?;
                    p.expect_key("SampleTooLarge")?;
                    p.expect_char('{')?;
                    p.expect_key("requested")?;
                    let requested = usize::deserialize_json(p)?;
                    p.expect_char(',')?;
                    p.expect_key("available")?;
                    let available = usize::deserialize_json(p)?;
                    p.expect_char('}')?;
                    p.expect_char('}')?;
                    ServeError::Query(QueryError::SampleTooLarge { requested, available })
                }
            }
            "Weight" => {
                if p.try_literal("\"Empty\"") {
                    ServeError::Weight(WeightError::Empty)
                } else if p.try_literal("\"TotalOverflow\"") {
                    ServeError::Weight(WeightError::TotalOverflow)
                } else {
                    p.expect_char('{')?;
                    p.expect_key("NonPositive")?;
                    p.expect_char('{')?;
                    p.expect_key("index")?;
                    let index = usize::deserialize_json(p)?;
                    p.expect_char(',')?;
                    p.expect_key("weight")?;
                    let weight = f64::deserialize_json(p)?;
                    p.expect_char('}')?;
                    p.expect_char('}')?;
                    ServeError::Weight(WeightError::NonPositive { index, weight })
                }
            }
            "Unsupported" => {
                let what = String::deserialize_json(p)?;
                ServeError::Remote(format!("request not supported by this index type: {what}"))
            }
            "InvalidRequest" => {
                let what = String::deserialize_json(p)?;
                ServeError::Remote(format!("invalid request: {what}"))
            }
            "QuotaExceeded" => ServeError::QuotaExceeded(String::deserialize_json(p)?),
            "Remote" => ServeError::Remote(String::deserialize_json(p)?),
            other => return Err(DeError::custom(format!("unknown ServeError variant {other:?}"))),
        };
        p.expect_char('}')?;
        Ok(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_and_sources() {
        let e = ServeError::from(QueryError::EmptyRange);
        assert!(e.to_string().contains("query failed"));
        assert!(e.source().is_some());
        assert!(ServeError::Overloaded.source().is_none());
        let boxed: Box<dyn Error + Send + Sync> = Box::new(ServeError::Overloaded);
        assert!(!boxed.to_string().is_empty());
    }

    fn roundtrip(e: &ServeError) -> ServeError {
        let mut s = String::new();
        e.serialize_json(&mut s);
        let mut p = Parser::new(&s);
        let back = ServeError::deserialize_json(&mut p).unwrap_or_else(|x| panic!("{s:?}: {x}"));
        p.expect_eof().expect("trailing garbage");
        back
    }

    #[test]
    fn wire_roundtrip_is_exact_for_owned_variants() {
        for e in [
            ServeError::UnknownIndex("shard".into()),
            ServeError::Query(QueryError::EmptyRange),
            ServeError::Query(QueryError::SampleTooLarge { requested: 11, available: 10 }),
            ServeError::Query(QueryError::DensityTooLow),
            ServeError::Weight(WeightError::Empty),
            ServeError::Weight(WeightError::NonPositive { index: 3, weight: -0.5 }),
            ServeError::Weight(WeightError::TotalOverflow),
            ServeError::Overloaded,
            ServeError::QuotaExceeded("bulk".into()),
            ServeError::DeadlineExceeded,
            ServeError::ShuttingDown,
            ServeError::Panicked,
            ServeError::Remote("connection refused".into()),
        ] {
            assert_eq!(roundtrip(&e), e);
        }
    }

    #[test]
    fn static_str_variants_decode_as_remote_with_the_message() {
        let back = roundtrip(&ServeError::Unsupported("no WoR on weighted sets"));
        let ServeError::Remote(msg) = back else { panic!("expected Remote, got {back:?}") };
        assert!(msg.contains("no WoR on weighted sets"));
        let back = roundtrip(&ServeError::InvalidRequest("sample too big"));
        let ServeError::Remote(msg) = back else { panic!("expected Remote, got {back:?}") };
        assert!(msg.contains("sample too big"));
    }
}
