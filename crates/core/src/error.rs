use std::fmt;

/// Errors raised by IQS queries.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum QueryError {
    /// The query predicate selects no elements; there is nothing to
    /// sample from.
    EmptyRange,
    /// A without-replacement sample larger than `|S_q|` was requested.
    SampleTooLarge {
        /// Requested sample size.
        requested: usize,
        /// Number of elements satisfying the predicate.
        available: usize,
    },
    /// A rejection loop exceeded its iteration budget — the approximate
    /// cover's density assumption (Theorem 6's third condition) does not
    /// hold for this query/data combination.
    DensityTooLow,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyRange => write!(f, "query range contains no elements"),
            QueryError::SampleTooLarge { requested, available } => {
                write!(f, "WoR sample of size {requested} requested from only {available} elements")
            }
            QueryError::DensityTooLow => {
                write!(f, "approximate cover too sparse: rejection budget exhausted")
            }
        }
    }
}

impl std::error::Error for QueryError {}
