//! Alias-method sampling primitives for independent query sampling (IQS).
//!
//! This crate implements Section 3.1 of Tao, *Algorithmic Techniques for
//! Independent Query Sampling* (PODS 2022):
//!
//! * [`AliasTable`] — Walker's alias structure (Theorem 1): `O(n)` space,
//!   `O(n)` construction, and `O(1)` worst-case time per weighted sample.
//!   Each draw decodes a *single* 64-bit word ([`AliasTable::decode`]).
//! * [`AliasRows`] — a table's rows, borrowed, 8 bytes each
//!   (`thr: u32 | alias: u32`): the one construction routine
//!   ([`AliasRows::build`], into a caller-provided slice) and the one set
//!   of draw primitives. `AliasTable` owns an array and lends it as this
//!   view; Lemma 2 and Theorem 3 build all their tables into one array
//!   and address a row by position with the same primitives.
//! * [`BlockRng64`] — a buffered block RNG that refills 64 words from the
//!   caller's generator in one `fill_bytes` pass, powering the batched
//!   `sample_into` fast paths across the workspace.
//! * [`CdfSampler`] — the classical prefix-sum + binary-search sampler used
//!   as the `O(log n)`-per-sample baseline in the benchmarks.
//! * [`DynamicAlias`] — a dynamized alias structure (the paper's "Direction
//!   1" future-work item) supporting insertion, deletion and re-weighting
//!   with expected `O(1)` sampling. It reproduces §9 Direction 1 for the
//!   experiment harness; the service does not publish it — `iqs-serve`
//!   answers from immutable views and patches them on update.
//! * [`split`] — the multinomial sample-splitting step used by every
//!   composite IQS structure (Section 4.1): given `t` weighted groups and a
//!   demand of `s` samples, decide how many samples each group contributes
//!   — through an alias table in `O(t + s)` ([`split::split_samples`]), or
//!   by one binary search over the groups' prefix sums per sample, landing
//!   where a CDF walk would ([`split::split_counts`], the external-memory
//!   structures' form).
//! * [`wor`] — with/without-replacement conversions (Floyd's algorithm,
//!   the `O(s)` WoR→WR conversion the paper cites as \[19\], and WoR-by-
//!   rejection).
//!
//! Every sampler draws randomness from a caller-supplied [`rand::Rng`], so
//! consecutive queries are independent by construction — the defining
//! requirement of IQS.

#![deny(missing_docs)]
// `deny` rather than `forbid`: the one sanctioned exception is the
// `prefetch` shim, which carries a local `#[allow(unsafe_code)]` around
// the `_mm_prefetch` intrinsic. CI greps that no other file in the
// workspace uses that keyword or reaches for raw CPU intrinsics.
#![deny(unsafe_code)]

mod alias;
pub mod batch;
mod cdf;
mod dynamic;
mod error;
pub mod pipeline;
pub mod prefetch;
pub mod prof;
pub mod space;
pub mod split;
pub mod wor;

pub use alias::{AliasRows, AliasTable, BuildScratch};
pub use batch::BlockRng64;
pub use cdf::CdfSampler;
pub use dynamic::DynamicAlias;
pub use error::WeightError;
pub use space::SpaceUsage;

/// Validates that a slice of weights is usable for weighted sampling:
/// non-empty, and every entry finite and strictly positive.
///
/// Returns the total weight on success.
pub fn validate_weights(weights: &[f64]) -> Result<f64, WeightError> {
    if weights.is_empty() {
        return Err(WeightError::Empty);
    }
    let mut total = 0.0f64;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w <= 0.0 {
            return Err(WeightError::NonPositive { index: i, weight: w });
        }
        total += w;
    }
    if !total.is_finite() || total <= 0.0 {
        return Err(WeightError::TotalOverflow);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_empty() {
        assert!(matches!(validate_weights(&[]), Err(WeightError::Empty)));
    }

    #[test]
    fn validate_rejects_zero_and_negative_and_nan() {
        assert!(validate_weights(&[1.0, 0.0]).is_err());
        assert!(validate_weights(&[1.0, -3.0]).is_err());
        assert!(validate_weights(&[f64::NAN]).is_err());
        assert!(validate_weights(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn validate_totals() {
        assert_eq!(validate_weights(&[1.0, 2.0, 3.0]).unwrap(), 6.0);
    }

    #[test]
    fn validate_rejects_overflowing_total() {
        assert!(matches!(validate_weights(&[f64::MAX, f64::MAX]), Err(WeightError::TotalOverflow)));
    }
}
