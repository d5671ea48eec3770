use std::fmt;

/// Errors raised when building a sampling structure from a weight vector.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WeightError {
    /// The weight vector was empty; there is nothing to sample.
    Empty,
    /// A weight was zero, negative, NaN, or infinite.
    NonPositive {
        /// Position of the offending weight.
        index: usize,
        /// The offending value.
        weight: f64,
    },
    /// The sum of the weights overflowed or degenerated to a non-positive
    /// value in floating-point arithmetic.
    TotalOverflow,
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::Empty => write!(f, "weight vector is empty"),
            WeightError::NonPositive { index, weight } => {
                write!(f, "weight at index {index} is not finite-positive: {weight}")
            }
            WeightError::TotalOverflow => {
                write!(f, "total weight is not a finite positive number")
            }
        }
    }
}

impl std::error::Error for WeightError {}
