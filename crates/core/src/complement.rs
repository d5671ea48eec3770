//! Complement range sampling — the flagship application of approximate
//! covers (Section 6 and \[18\]) and of **Corollary 7**'s precomputation.
//!
//! Query: sample from `S \ [x, y]` — the elements *outside* an interval.
//! An exact canonical cover of the complement needs `Ω(log n)` nodes for
//! some intervals, but there is always an approximate cover of size **at
//! most 2**: the complement is a prefix `[0, a)` plus a suffix `[b, n)` of
//! the rank space, and every prefix is contained in the left-aligned
//! dyadic interval `[0, 2^⌈log₂ a⌉)` of at most twice its size (similarly
//! for suffixes, right-aligned). The dyadic intervals are only `O(log n)`
//! *distinct* sets, so Corollary 7 applies: precompute an alias table for
//! each — `Σ_j 2^j = O(n)` total space — and a query runs in `O(s)`
//! expected time with zero cover-construction cost.
//!
//! For unit weights (the WR scheme Section 6 focuses on) the rejection
//! acceptance rate is ≥ ½ by construction; for skewed weights it can
//! degrade (the overshoot region may carry most of the weight), which the
//! sampler surfaces as [`QueryError::DensityTooLow`] instead of looping
//! forever.

use iqs_alias::space::{vec_words, SpaceUsage};
use iqs_alias::AliasTable;
use rand::{Rng, RngCore};

use crate::error::QueryError;

/// The Corollary-7 complement-range sampler: `O(n)` space, `O(s)`
/// expected query time, approximate covers of size ≤ 2.
///
/// # Example
/// ```
/// use iqs_core::complement::ComplementRange;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let pairs: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1.0)).collect();
/// let comp = ComplementRange::new(pairs)?;
/// let mut rng = StdRng::seed_from_u64(9);
/// // Sample from everything OUTSIDE [20, 79].
/// for r in comp.sample_wr(20.0, 79.0, 10, &mut rng)? {
///     assert!(r < 20 || r > 79);
/// }
/// # Ok::<(), iqs_core::QueryError>(())
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ComplementRange {
    keys: Vec<f64>,
    weights: Vec<f64>,
    /// Cumulative weights: `cum[i] = w(0) + … + w(i-1)`.
    cum: Vec<f64>,
    /// `prefix[j]`: alias over ranks `[0, min(2^j, n))`.
    prefix: Vec<AliasTable>,
    /// `suffix[j]`: alias over ranks `[n - min(2^j, n), n)`.
    suffix: Vec<AliasTable>,
}

/// Rejection budget per requested sample.
const ATTEMPTS_PER_SAMPLE: usize = 256;

impl ComplementRange {
    /// Builds the structure in `O(n log n)` time and `O(n)` space.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on empty or invalid input.
    pub fn new(mut pairs: Vec<(f64, f64)>) -> Result<Self, QueryError> {
        if pairs.is_empty()
            || pairs.iter().any(|&(k, w)| !k.is_finite() || !w.is_finite() || w <= 0.0)
        {
            return Err(QueryError::EmptyRange);
        }
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
        let (keys, weights): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let n = keys.len();
        let mut cum = Vec::with_capacity(n + 1);
        cum.push(0.0);
        for &w in &weights {
            cum.push(cum.last().expect("non-empty") + w);
        }
        let levels = (usize::BITS - (n - 1).max(1).leading_zeros()) as usize + 1;
        let mut prefix = Vec::with_capacity(levels);
        let mut suffix = Vec::with_capacity(levels);
        for j in 0..levels {
            let len = (1usize << j).min(n);
            prefix.push(AliasTable::new(&weights[..len]).expect("validated"));
            suffix.push(AliasTable::new(&weights[n - len..]).expect("validated"));
        }
        Ok(ComplementRange { keys, weights, cum, prefix, suffix })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sorted keys.
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    /// Per-element weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Rank boundaries `(a, b)`: the complement of `[x, y]` is ranks
    /// `[0, a) ∪ [b, n)`.
    pub fn complement_bounds(&self, x: f64, y: f64) -> (usize, usize) {
        if y < x || x.is_nan() || y.is_nan() {
            // Empty interval — inverted, or with a NaN bound, which no
            // key compares with: its complement is everything.
            return (self.keys.len(), self.keys.len());
        }
        let a = self.keys.partition_point(|&k| k < x);
        let b = self.keys.partition_point(|&k| k <= y).max(a);
        (a, b)
    }

    /// `|S \ [x, y]|`.
    pub fn complement_count(&self, x: f64, y: f64) -> usize {
        let (a, b) = self.complement_bounds(x, y);
        a + (self.keys.len() - b)
    }

    /// Total weight of `S \ [x, y]` (exact, via the cumulative array).
    pub fn complement_weight(&self, x: f64, y: f64) -> f64 {
        let (a, b) = self.complement_bounds(x, y);
        let n = self.keys.len();
        self.cum[a] + (self.cum[n] - self.cum[b])
    }

    /// Draws `s` independent weighted samples (ranks) of `S \ [x, y]` in
    /// `O(s)` expected time (unit weights: acceptance ≥ ½ per attempt).
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when the complement is empty;
    /// [`QueryError::DensityTooLow`] if extreme weight skew exhausts the
    /// rejection budget.
    pub fn sample_wr(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError> {
        let (a, b) = self.complement_bounds(x, y);
        let n = self.keys.len();
        let w_pre = self.cum[a];
        let w_suf = self.cum[n] - self.cum[b];
        let total = w_pre + w_suf;
        if total <= 0.0 {
            return Err(QueryError::EmptyRange);
        }
        // Dyadic cover indices (≤ 2 elements, precomputed tables).
        let jp = if a > 0 { (usize::BITS - (a - 1).max(1).leading_zeros()) as usize } else { 0 };
        let js =
            if n - b > 0 { (usize::BITS - (n - b - 1).max(1).leading_zeros()) as usize } else { 0 };
        let jp = if a == 1 { 0 } else { jp };
        let js = if n - b == 1 { 0 } else { js };

        let mut out = Vec::with_capacity(s);
        let mut budget = ATTEMPTS_PER_SAMPLE * (s + 4);
        while out.len() < s {
            if budget == 0 {
                return Err(QueryError::DensityTooLow);
            }
            budget -= 1;
            // Choose the side by its TRUE weight, then rejection-sample
            // within the (≤ 2×) dyadic overshoot.
            if rng.random::<f64>() * total < w_pre {
                let rank = self.prefix[jp].sample(rng);
                if rank < a {
                    out.push(rank);
                }
            } else {
                let table = &self.suffix[js];
                let base = n - table.len();
                let rank = base + table.sample(rng);
                if rank >= b {
                    out.push(rank);
                }
            }
        }
        Ok(out)
    }
}

impl SpaceUsage for ComplementRange {
    fn space_words(&self) -> usize {
        vec_words(&self.keys)
            + vec_words(&self.weights)
            + vec_words(&self.cum)
            + self.prefix.iter().map(|t| t.space_words()).sum::<usize>()
            + self.suffix.iter().map(|t| t.space_words()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit(n: usize) -> ComplementRange {
        ComplementRange::new((0..n).map(|i| (i as f64, 1.0)).collect()).unwrap()
    }

    #[test]
    fn bounds_and_counts() {
        let c = unit(100);
        assert_eq!(c.complement_bounds(20.0, 30.0), (20, 31));
        assert_eq!(c.complement_count(20.0, 30.0), 89);
        assert_eq!(c.complement_count(-10.0, 200.0), 0);
        assert_eq!(c.complement_count(50.0, 40.0), 100, "empty q = full complement");
        for (x, y) in [(f64::NAN, 50.0), (50.0, f64::NAN), (f64::NAN, f64::NAN)] {
            assert_eq!(c.complement_count(x, y), 100, "a NaN bound empties q: [{x}, {y}]");
        }
        assert!((c.complement_weight(20.0, 30.0) - 89.0).abs() < 1e-12);
    }

    #[test]
    fn samples_avoid_the_interval_and_are_uniform() {
        let n = 200;
        let c = unit(n);
        let (x, y) = (50.0, 149.0);
        let mut rng = StdRng::seed_from_u64(540);
        let mut counts = vec![0u64; n];
        let draws = 200_000;
        for r in c.sample_wr(x, y, draws, &mut rng).unwrap() {
            assert!(!(50..=149).contains(&r), "rank {r} inside the excluded interval");
            counts[r] += 1;
        }
        let want = 1.0 / 100.0;
        for r in (0..50).chain(150..200) {
            let p = counts[r] as f64 / draws as f64;
            assert!((p - want).abs() < 0.2 * want + 0.001, "rank {r}: {p}");
        }
    }

    #[test]
    fn one_sided_complements() {
        let c = unit(64);
        let mut rng = StdRng::seed_from_u64(541);
        // Interval covers a prefix: complement is a pure suffix.
        let out = c.sample_wr(-1.0, 31.0, 500, &mut rng).unwrap();
        assert!(out.iter().all(|&r| r >= 32));
        // Interval covers a suffix: complement is a pure prefix.
        let out = c.sample_wr(32.0, 100.0, 500, &mut rng).unwrap();
        assert!(out.iter().all(|&r| r < 32));
    }

    #[test]
    fn full_interval_gives_empty_complement() {
        let c = unit(10);
        let mut rng = StdRng::seed_from_u64(542);
        assert_eq!(c.sample_wr(-5.0, 100.0, 1, &mut rng).unwrap_err(), QueryError::EmptyRange);
    }

    #[test]
    fn weighted_complement_distribution() {
        let pairs: Vec<(f64, f64)> = (0..32).map(|i| (i as f64, 1.0 + (i % 4) as f64)).collect();
        let c = ComplementRange::new(pairs.clone()).unwrap();
        let (x, y) = (8.0, 23.0);
        let outside: Vec<usize> = (0..32).filter(|&i| !(8..=23).contains(&i)).collect();
        let total: f64 = outside.iter().map(|&i| pairs[i].1).sum();
        assert!((c.complement_weight(x, y) - total).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(543);
        let mut counts = vec![0u64; 32];
        let draws = 150_000;
        for r in c.sample_wr(x, y, draws, &mut rng).unwrap() {
            counts[r] += 1;
        }
        for &i in &outside {
            let p = counts[i] as f64 / draws as f64;
            let want = pairs[i].1 / total;
            assert!((p - want).abs() < 0.15 * want + 0.002, "rank {i}: {p} vs {want}");
        }
    }

    #[test]
    fn space_is_linear() {
        let small = unit(1 << 10);
        let large = unit(1 << 14);
        let ratio = large.space_words() as f64 / small.space_words() as f64;
        assert!(ratio < 20.0, "ratio {ratio} for 16x n should be ~16");
    }

    #[test]
    fn single_element_edge_cases() {
        let c = unit(1);
        let mut rng = StdRng::seed_from_u64(544);
        assert!(c.sample_wr(0.0, 0.0, 1, &mut rng).is_err());
        let out = c.sample_wr(5.0, 6.0, 3, &mut rng).unwrap();
        assert_eq!(out, vec![0, 0, 0]);
    }
}
