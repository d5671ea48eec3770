//! The tiered backend's error type.

use std::fmt;

use iqs_alias::WeightError;
use iqs_core::QueryError;
use iqs_serve::ServeError;

/// Errors raised while building or querying a [`crate::TieredIndex`].
#[derive(Debug, Clone, PartialEq)]
pub enum TierError {
    /// A shard was added with no elements; every shard must hold at
    /// least one `(id, key, weight)` triple.
    EmptyShard(String),
    /// Two shards were registered under the same name.
    DuplicateShard(String),
    /// Two shards' key spans overlap; the tiered index routes a query
    /// range to shards by key span, so spans must be disjoint.
    OverlappingShards {
        /// The shard registered first.
        first: String,
        /// The shard whose span intersects it.
        second: String,
    },
    /// `build` was called with no shards registered.
    NoShards,
    /// A [`crate::TierConfig`] field is out of range (the message names
    /// the field and the constraint).
    InvalidConfig(&'static str),
    /// A shard named in an explicit promote/demote call is not part of
    /// this index.
    UnknownShard(String),
    /// The underlying sampling structure rejected the query (empty
    /// range, non-finite key, …).
    Query(QueryError),
    /// A shard's weights are unusable: one is not finite and positive,
    /// or they — or the shards' totals — sum to a non-finite value.
    Weight(WeightError),
}

impl fmt::Display for TierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierError::EmptyShard(name) => {
                write!(f, "shard {name:?} has no elements")
            }
            TierError::DuplicateShard(name) => {
                write!(f, "shard {name:?} is registered twice")
            }
            TierError::OverlappingShards { first, second } => {
                write!(f, "key spans of shards {first:?} and {second:?} overlap")
            }
            TierError::NoShards => write!(f, "a tiered index needs at least one shard"),
            TierError::InvalidConfig(what) => write!(f, "invalid tier config: {what}"),
            TierError::UnknownShard(name) => {
                write!(f, "no shard named {name:?} in this index")
            }
            TierError::Query(e) => write!(f, "query failed: {e}"),
            TierError::Weight(e) => write!(f, "unusable shard weights: {e}"),
        }
    }
}

impl std::error::Error for TierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierError::Query(e) => Some(e),
            TierError::Weight(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for TierError {
    fn from(e: QueryError) -> Self {
        TierError::Query(e)
    }
}

impl From<WeightError> for TierError {
    fn from(e: WeightError) -> Self {
        TierError::Weight(e)
    }
}

/// Maps tier failures onto the service error surface so a
/// [`crate::TieredIndex`] can sit behind `iqs-serve`'s `ExternalIndex`
/// registry entry: query and weight rejections keep their typed form, everything
/// else (which cannot occur on the request path of a built index)
/// degrades to an invalid-request report.
impl From<TierError> for ServeError {
    fn from(e: TierError) -> Self {
        match e {
            TierError::Query(q) => ServeError::Query(q),
            TierError::Weight(w) => ServeError::Weight(w),
            TierError::UnknownShard(_) => ServeError::InvalidRequest("unknown tier shard".into()),
            _ => ServeError::InvalidRequest("tiered index misconfigured".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failure() {
        let e = TierError::OverlappingShards { first: "a".into(), second: "b".into() };
        assert!(e.to_string().contains("\"a\""));
        assert!(e.to_string().contains("\"b\""));
        assert!(TierError::EmptyShard("x".into()).to_string().contains("no elements"));
        assert!(TierError::NoShards.to_string().contains("at least one"));
        assert!(TierError::InvalidConfig("block_words must be >= 1")
            .to_string()
            .contains("block_words"));
    }

    #[test]
    fn query_errors_keep_their_source_and_serve_mapping() {
        let e = TierError::from(QueryError::EmptyRange);
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(ServeError::from(e), ServeError::Query(QueryError::EmptyRange));
        let e = ServeError::from(TierError::UnknownShard("x".into()));
        assert!(matches!(e, ServeError::InvalidRequest(_)));
    }
}
