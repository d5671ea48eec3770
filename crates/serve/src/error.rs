//! The service-layer error type. Everything a request can fail with is
//! one boxable enum, so callers (and the examples/harness) can `?` it
//! through `Box<dyn Error>` alongside the structure-level errors. Its
//! wire encoding is derived like the rest of the vocabulary (`api`
//! module docs), and every variant round-trips exactly.

use std::borrow::Cow;
use std::fmt;

use iqs_alias::WeightError;
use iqs_core::QueryError;
use serde::{Deserialize, Serialize};

/// Errors returned by the sampling service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeError {
    /// The request named an index that is not registered.
    UnknownIndex(String),
    /// The underlying structure rejected the query (empty range, WoR
    /// oversample, rejection budget, …).
    Query(QueryError),
    /// An update carried an invalid weight.
    Weight(WeightError),
    /// The request kind is not supported by the target index's type
    /// (e.g. an update to a static index).
    Unsupported(Cow<'static, str>),
    /// The request was malformed (oversized sample, repeated id, …).
    InvalidRequest(Cow<'static, str>),
    /// Admission control refused the request: the queue is at capacity.
    /// Back off and retry; in-budget traffic keeps its latency.
    Overloaded,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request panicked while it ran. The panic was contained: the
    /// thread that ran it survives and the service keeps answering. It
    /// points at a bug in an index implementation, not at the request.
    Panicked,
    /// A failure of the process boundary itself: the transport could not
    /// complete the round trip (connect refused, timeout, expired lease),
    /// or a payload could not be decoded. Nothing else — a remote
    /// replica's own error arrives as the same typed variant a local one
    /// returns. Produced only by the `iqs-net` remote path; in-process
    /// services never return it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::serde_tests::roundtrip;
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

    /// Every variant of `ServeError` and of the two structure errors it
    /// wraps comes back from its wire text as the value it was. With the
    /// messages held as `Cow<'static, str>`, every variant is owned.
    #[test]
    fn wire_roundtrip_is_exact_for_owned_variants() {
        let queries = [
            QueryError::EmptyRange,
            QueryError::SampleTooLarge { requested: 11, available: 10 },
            QueryError::DensityTooLow,
        ];
        let weights = [
            WeightError::Empty,
            WeightError::NonPositive { index: 3, weight: -0.5 },
            WeightError::TotalOverflow,
        ];
        queries.iter().for_each(roundtrip);
        weights.iter().for_each(roundtrip);
        let errors: Vec<ServeError> = queries
            .map(ServeError::Query)
            .into_iter()
            .chain(weights.map(ServeError::Weight))
            .chain([
                ServeError::UnknownIndex("shard".into()),
                ServeError::Unsupported("not a union index".into()),
                ServeError::InvalidRequest("member-set id out of range".into()),
                ServeError::Overloaded,
                ServeError::DeadlineExceeded,
                ServeError::ShuttingDown,
                ServeError::Panicked,
                ServeError::Remote("connection refused".into()),
            ])
            .collect();
        errors.iter().for_each(roundtrip);
        // No wildcard arm: a new variant does not compile until it is
        // listed above.
        let listed: std::collections::BTreeSet<u8> = errors
            .iter()
            .map(|e| match e {
                ServeError::UnknownIndex(_) => 0,
                ServeError::Query(_) => 1,
                ServeError::Weight(_) => 2,
                ServeError::Unsupported(_) => 3,
                ServeError::InvalidRequest(_) => 4,
                ServeError::Overloaded => 5,
                ServeError::DeadlineExceeded => 6,
                ServeError::ShuttingDown => 7,
                ServeError::Panicked => 8,
                ServeError::Remote(_) => 9,
            })
            .collect();
        assert_eq!(listed.len(), 10);
    }

    /// A message built from a string literal decodes as the same typed
    /// variant, now owning the text, rather than as `Remote`.
    #[test]
    fn static_str_variants_decode_as_themselves_with_the_message() {
        for e in [
            ServeError::Unsupported(Cow::Borrowed("no WoR on weighted sets")),
            ServeError::InvalidRequest(Cow::Borrowed("sample too big")),
        ] {
            let text = serde_json::to_string(&e).unwrap();
            let back: ServeError = serde_json::from_str(&text).unwrap();
            match (&e, &back) {
                (ServeError::Unsupported(a), ServeError::Unsupported(b))
                | (ServeError::InvalidRequest(a), ServeError::InvalidRequest(b)) => {
                    assert!(matches!(b, Cow::Owned(_)));
                    assert_eq!(a, b);
                }
                _ => panic!("{e:?} decoded as {back:?}"),
            }
            assert_eq!(back.to_string(), e.to_string());
        }
    }

    /// A tag that names no variant, a unit variant sent as an object (or
    /// a payload-carrying one as a bare string), a missing or reordered
    /// field, and bytes after a complete value are parse errors.
    #[test]
    fn malformed_text_is_a_parse_error() {
        for text in [
            r#""Nope""#,
            r#"{"Nope":"x"}"#,
            r#"{"Overloaded":null}"#,
            r#"{"Panicked":{}}"#,
            r#""UnknownIndex""#,
            r#"{"Query":{"SampleTooLarge":{"requested":11}}}"#,
            r#"{"Query":{"SampleTooLarge":{"available":10,"requested":11}}}"#,
            r#"{"Weight":{"NonPositive":{"weight":-0.5,"index":3}}}"#,
            r#"{"Query":{"EmptyRange":null}}"#,
            r#""Overloaded" x"#,
            r#"{"Remote":"x"}}"#,
            r#"{"Remote":"x" 1}"#,
        ] {
            assert!(serde_json::from_str::<ServeError>(text).is_err(), "{text} should not parse");
        }
    }
}
