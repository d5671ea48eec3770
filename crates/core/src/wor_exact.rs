//! Exact weighted without-replacement range sampling via exponential
//! jumps (Efraimidis–Spirakis **A-ExpJ**, adapted to sorted ranges).
//!
//! The paper's WoR variant asks for a uniformly random (or, in the
//! weighted generalization, successive-renormalized) size-`s` subset of
//! `S_q`. The generic [`crate::RangeSampler::sample_wor`] does this by
//! rejecting duplicate WR draws — expected `O(s)` extra draws while
//! `s ≤ |S_q|/2` but degrading towards coupon-collector cost as `s`
//! approaches `|S_q|`. This module removes that cliff:
//!
//! A-Res assigns every element the score `u^(1/w)` and keeps the `s`
//! largest — correct but `O(|S_q| log s)`, i.e. reporting cost
//! (available as `iqs_alias::wor::a_res_weighted_wor`). A-ExpJ
//! simulates A-Res *without touching the skipped elements*: after each
//! reservoir update it draws the amount of weight mass the scan may skip
//! before the next replacement, and jumps there directly. Over a sorted
//! range with precomputed cumulative weights the jump lands with one
//! binary search, so a query costs `O(s·log(|S_q|/s)·log n)` expected —
//! polylogarithmic in `|S_q|` for fixed `s`, and *robust for `s` up to
//! `|S_q|`* where the rejection method stalls.
//!
//! Cross-query independence holds as everywhere else: every query
//! consumes fresh randomness.

use iqs_alias::space::{vec_words, SpaceUsage};
use rand::{Rng, RngCore};

use crate::error::QueryError;

/// Total-order wrapper for log-domain reservoir keys (never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("keys are never NaN")
    }
}

/// Weighted WoR range sampler with exponential jumps: `O(n)` space,
/// `O((s + log(|S_q|/s)·s)·log n)` expected query time regardless of how
/// close `s` is to `|S_q|`.
///
/// # Example
/// ```
/// use iqs_core::ExpJumpWor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let pairs: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, 1.0 + (i % 3) as f64)).collect();
/// let sampler = ExpJumpWor::new(pairs)?;
/// let mut rng = StdRng::seed_from_u64(5);
/// // A full-population WoR sample — the regime where rejection stalls.
/// let all = sampler.sample_wor(100.0, 199.0, 100, &mut rng)?;
/// assert_eq!(all.len(), 100);
/// # Ok::<(), iqs_core::QueryError>(())
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExpJumpWor {
    keys: Vec<f64>,
    weights: Vec<f64>,
    /// `cum[i] = w(0) + … + w(i-1)`; `cum[n]` is the total.
    cum: Vec<f64>,
}

impl ExpJumpWor {
    /// Builds the structure (sorts by key) in `O(n log n)` time.
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
        let mut cum = Vec::with_capacity(keys.len() + 1);
        cum.push(0.0);
        for &w in &weights {
            cum.push(cum.last().expect("non-empty") + w);
        }
        Ok(ExpJumpWor { keys, weights, cum })
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

    /// Half-open rank range of `[x, y]`; empty for a NaN bound
    /// (`RangeSampler::rank_range`'s rule).
    pub fn rank_range(&self, x: f64, y: f64) -> (usize, usize) {
        if x.is_nan() || y.is_nan() {
            return (0, 0);
        }
        let a = self.keys.partition_point(|&k| k < x);
        let b = self.keys.partition_point(|&k| k <= y);
        (a, b.max(a))
    }

    /// Draws a weighted WoR sample of `s` distinct ranks from `[x, y]`
    /// (successive-renormalized semantics, identical to A-Res /
    /// rejection). Ranks are returned in arbitrary order.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] / [`QueryError::SampleTooLarge`].
    pub fn sample_wor(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError> {
        let (a, b) = self.rank_range(x, y);
        if a == b {
            return Err(QueryError::EmptyRange);
        }
        if s > b - a {
            return Err(QueryError::SampleTooLarge { requested: s, available: b - a });
        }
        if s == 0 {
            return Ok(Vec::new());
        }

        // Reservoir: min-heap on the log-domain keys ln(u)/w.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(Key, u32)>> =
            std::collections::BinaryHeap::with_capacity(s + 1);
        for r in a..a + s {
            let key = Key(rng.random::<f64>().ln() / self.weights[r]);
            heap.push(std::cmp::Reverse((key, r as u32)));
        }
        let mut pos = a + s; // next unprocessed rank
        while pos < b {
            let t = heap.peek().expect("reservoir full").0 .0 .0; // min log-key
                                                                  // Weight mass the scan may skip before the next replacement:
                                                                  // X_w = ln(r) / t  with r ~ U(0,1)  (t < 0 almost surely).
            let r = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let xw = r.ln() / t;
            // First rank c ≥ pos with cum-weight beyond cum[pos] + X_w.
            let target = self.cum[pos] + xw;
            if !target.is_finite() || target >= self.cum[b] {
                break; // jump flies past the range: reservoir is final
            }
            // partition_point over cum[pos+1 ..= b]: smallest c with
            // cum[c+1] > target.
            let c = pos + self.cum[pos + 1..=b].partition_point(|&cw| cw <= target);
            if c >= b {
                break;
            }
            // Replace the minimum with c, whose key is drawn conditioned
            // on exceeding the old threshold: u' ~ U(e^{t·w_c}, 1).
            let wc = self.weights[c];
            let lo = (t * wc).exp();
            let u = lo + rng.random::<f64>() * (1.0 - lo);
            let key = Key(u.max(f64::MIN_POSITIVE).ln() / wc);
            heap.pop();
            heap.push(std::cmp::Reverse((key, c as u32)));
            pos = c + 1;
        }
        Ok(heap.into_iter().map(|std::cmp::Reverse((_, r))| r as usize).collect())
    }
}

impl SpaceUsage for ExpJumpWor {
    fn space_words(&self) -> usize {
        vec_words(&self.keys) + vec_words(&self.weights) + vec_words(&self.cum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range1d::{ChunkedRange, RangeSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{HashMap, HashSet};

    fn unit(n: usize) -> ExpJumpWor {
        ExpJumpWor::new((0..n).map(|i| (i as f64, 1.0)).collect()).unwrap()
    }

    #[test]
    fn output_shape() {
        let e = unit(100);
        let mut rng = StdRng::seed_from_u64(700);
        for s in [1usize, 5, 50, 100] {
            let out = e.sample_wor(0.0, 99.0, s, &mut rng).unwrap();
            assert_eq!(out.len(), s);
            let set: HashSet<_> = out.iter().collect();
            assert_eq!(set.len(), s, "duplicates at s={s}");
        }
        assert!(matches!(
            e.sample_wor(0.0, 9.0, 11, &mut rng),
            Err(QueryError::SampleTooLarge { .. })
        ));
        assert!(e.sample_wor(200.0, 300.0, 1, &mut rng).is_err());
        assert!(e.sample_wor(0.0, 99.0, 0, &mut rng).unwrap().is_empty());
        for (x, y) in [(f64::NAN, 50.0), (50.0, f64::NAN)] {
            assert_eq!(e.rank_range(x, y), (0, 0), "a NaN bound holds no key");
        }
    }

    #[test]
    fn uniform_subsets_are_uniform() {
        // Unit weights: every size-2 subset of 5 elements equally likely.
        let e = ExpJumpWor::new((0..5).map(|i| (i as f64, 1.0)).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(701);
        let mut counts: HashMap<Vec<usize>, u32> = HashMap::new();
        let trials = 60_000;
        for _ in 0..trials {
            let mut out = e.sample_wor(0.0, 4.0, 2, &mut rng).unwrap();
            out.sort_unstable();
            *counts.entry(out).or_default() += 1;
        }
        assert_eq!(counts.len(), 10);
        for (k, &c) in &counts {
            let p = c as f64 / trials as f64;
            assert!((p - 0.1).abs() < 0.01, "{k:?}: {p}");
        }
    }

    #[test]
    fn weighted_inclusion_matches_rejection_method() {
        // Same semantics as the rejection-based WoR of RangeSampler:
        // compare per-element inclusion frequencies.
        let pairs: Vec<(f64, f64)> = (0..40).map(|i| (i as f64, 1.0 + (i % 5) as f64)).collect();
        let ej = ExpJumpWor::new(pairs.clone()).unwrap();
        let cr = ChunkedRange::new(pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(702);
        let (x, y, s) = (5.0, 34.0, 8);
        let rounds = 8000;
        let mut f_ej = vec![0.0f64; 40];
        let mut f_cr = vec![0.0f64; 40];
        for _ in 0..rounds {
            for r in ej.sample_wor(x, y, s, &mut rng).unwrap() {
                f_ej[r] += 1.0 / rounds as f64;
            }
            for r in cr.sample_wor(x, y, s, &mut rng).unwrap() {
                f_cr[r] += 1.0 / rounds as f64;
            }
        }
        let l1: f64 = f_ej.iter().zip(&f_cr).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.25, "inclusion-probability L1 distance {l1}");
    }

    #[test]
    fn full_range_sample_is_permutation_of_range() {
        let e = unit(64);
        let mut rng = StdRng::seed_from_u64(703);
        let mut out = e.sample_wor(10.0, 29.0, 20, &mut rng).unwrap();
        out.sort_unstable();
        assert_eq!(out, (10..30).collect::<Vec<_>>());
    }

    #[test]
    fn heavy_elements_enter_first() {
        let mut pairs: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1e-3)).collect();
        pairs[42].1 = 1e6;
        let e = ExpJumpWor::new(pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(704);
        let mut hit = 0;
        for _ in 0..300 {
            if e.sample_wor(0.0, 99.0, 3, &mut rng).unwrap().contains(&42) {
                hit += 1;
            }
        }
        assert!(hit >= 299, "heavy element missed {} times", 300 - hit);
    }

    #[test]
    fn large_s_does_not_stall() {
        // s = |S_q|: the rejection method would coupon-collect; A-ExpJ
        // must finish one pass.
        let n = 50_000;
        let e = unit(n);
        let mut rng = StdRng::seed_from_u64(705);
        let start = std::time::Instant::now();
        let out = e.sample_wor(0.0, (n - 1) as f64, n, &mut rng).unwrap();
        assert_eq!(out.len(), n);
        assert!(start.elapsed().as_secs() < 5, "A-ExpJ stalled");
    }
}
