//! Error type of the sharded tier.

use std::borrow::Cow;
use std::fmt;

use iqs_core::QueryError;
use iqs_serve::ServeError;

/// Everything that can go wrong in the sharded service.
///
/// (No `Eq`: the wrapped [`ServeError`] carries floating-point weights.)
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// Invalid construction parameters (zero shards/replicas, no
    /// elements, duplicate element ids, …).
    Config(&'static str),
    /// A malformed query (e.g. sample size beyond the configured
    /// maximum), or one a replica rejected as malformed.
    InvalidRequest(Cow<'static, str>),
    /// The query range selects no elements anywhere in the cluster.
    EmptyRange,
    /// A without-replacement sample larger than the number of elements
    /// satisfying the query was requested.
    SampleTooLarge {
        /// Requested sample size.
        requested: usize,
        /// Number of elements satisfying the predicate, cluster-wide.
        available: usize,
    },
    /// A shard split was requested but every element of the shard shares
    /// one key — a range partition cannot separate equal keys.
    NoSplitPoint,
    /// A shard index beyond the current topology.
    UnknownShard(usize),
    /// A query-evaluation error from the underlying structures.
    Query(QueryError),
    /// An error surfaced by a single-shard service.
    Serve(ServeError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Config(msg) => write!(f, "invalid cluster configuration: {msg}"),
            ShardError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ShardError::EmptyRange => write!(f, "query range contains no elements in any shard"),
            ShardError::SampleTooLarge { requested, available } => write!(
                f,
                "without-replacement sample of {requested} exceeds the {available} elements in range"
            ),
            ShardError::NoSplitPoint => {
                write!(f, "shard cannot be split: all elements share one key")
            }
            ShardError::UnknownShard(i) => write!(f, "shard {i} does not exist"),
            ShardError::Query(e) => write!(f, "query error: {e}"),
            ShardError::Serve(e) => write!(f, "shard service error: {e}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Query(e) => Some(e),
            ShardError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ShardError {
    fn from(e: QueryError) -> Self {
        ShardError::Query(e)
    }
}

impl From<ServeError> for ShardError {
    fn from(e: ServeError) -> Self {
        ShardError::Serve(e)
    }
}
