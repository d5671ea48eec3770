//! The experimental controls: conventional (dependent) query sampling and
//! the report-then-sample strawman.
//!
//! * [`DependentRange`] — Section 2's classical query sampling structure:
//!   fix one random permutation of the elements at build time; a query
//!   returns the `s` elements of `S_q` with the lowest permutation ranks.
//!   Each individual output is a perfectly uniform WoR sample — but
//!   repeating a query always returns *the same* sample, and overlapping
//!   queries return correlated samples. This is exactly the behavior the
//!   IQS requirement (1) forbids, and the F1/F2/F3 experiments use it as
//!   the negative control.
//! * [`ReportThenSample`] — Section 1's "naive solution": materialize
//!   `S_q` in full, then sample from it; `O(|S_q| + s)` per query, which
//!   defeats the purpose of sampling when `|S_q| ≫ s` (experiment F4).

use std::collections::BinaryHeap;

use iqs_alias::space::{vec_words, SpaceUsage};
use iqs_alias::AliasTable;
use iqs_tree::RankBst;
use rand::{Rng, RngCore};

use crate::error::QueryError;

/// Section 2's dependent fixed-permutation range sampler.
///
/// Build: assign every element a random permutation rank (once). Each
/// tree node stores its subtree's elements sorted by permutation rank.
/// Query `([x, y], s)`: find the `O(log n)` canonical nodes and merge
/// their lists by permutation rank, taking the first `s` — a WoR sample
/// of `S_q` in `O(log n + s log log n)` time (heap over `O(log n)`
/// lists).
#[derive(Debug, Clone)]
pub struct DependentRange {
    keys: Vec<f64>,
    tree: RankBst,
    /// Per node: element ranks sorted by permutation rank.
    node_lists: Vec<Vec<u32>>,
    /// Permutation rank per element rank.
    perm: Vec<u32>,
}

impl DependentRange {
    /// Builds the structure; the permutation is drawn once from `rng` and
    /// frozen thereafter (the source of the structure's dependence).
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on empty or non-finite input.
    pub fn new<R: Rng + ?Sized>(mut keys: Vec<f64>, rng: &mut R) -> Result<Self, QueryError> {
        if keys.is_empty() || keys.iter().any(|k| !k.is_finite()) {
            return Err(QueryError::EmptyRange);
        }
        keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
        let n = keys.len();
        // Random permutation of 0..n (Fisher–Yates).
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.random_range(0..=i));
        }
        let tree = RankBst::new(&vec![1.0; n]).expect("non-empty");
        let node_lists: Vec<Vec<u32>> = (0..tree.node_count() as u32)
            .map(|u| {
                let (lo, hi) = tree.leaf_range(u);
                let mut list: Vec<u32> = (lo as u32..hi as u32).collect();
                list.sort_by_key(|&r| perm[r as usize]);
                list
            })
            .collect();
        Ok(DependentRange { keys, tree, node_lists, perm })
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

    /// The (deterministic) WoR "sample": the `s` lowest-permutation-rank
    /// elements of `S_q`. Returns ranks in the sorted key order.
    ///
    /// # Errors
    /// [`QueryError`] on an empty range or `s > |S_q|`.
    pub fn sample_wor(&self, x: f64, y: f64, s: usize) -> Result<Vec<usize>, QueryError> {
        // A NaN bound holds no key (`RangeSampler::rank_range`'s rule).
        if x.is_nan() || y.is_nan() {
            return Err(QueryError::EmptyRange);
        }
        let a = self.keys.partition_point(|&k| k < x);
        let b = self.keys.partition_point(|&k| k <= y).max(a);
        if a == b {
            return Err(QueryError::EmptyRange);
        }
        if s > b - a {
            return Err(QueryError::SampleTooLarge { requested: s, available: b - a });
        }
        let canon = self.tree.canonical_nodes(a, b);
        // Min-heap over (perm rank, node, cursor).
        let mut heap: BinaryHeap<std::cmp::Reverse<(u32, usize, usize)>> = canon
            .iter()
            .map(|&u| {
                let head = self.node_lists[u as usize][0];
                std::cmp::Reverse((self.perm[head as usize], u as usize, 0))
            })
            .collect();
        let mut out = Vec::with_capacity(s);
        while out.len() < s {
            let std::cmp::Reverse((_, u, cursor)) = heap.pop().expect("s <= |S_q|");
            out.push(self.node_lists[u][cursor] as usize);
            if cursor + 1 < self.node_lists[u].len() {
                let head = self.node_lists[u][cursor + 1];
                heap.push(std::cmp::Reverse((self.perm[head as usize], u, cursor + 1)));
            }
        }
        Ok(out)
    }

    /// A WR "sample" derived from the WoR output by the `O(s)` conversion
    /// of Section 2. The conversion consumes fresh randomness, but the
    /// underlying distinct values remain the frozen permutation's prefix,
    /// so cross-query dependence persists — which is the point.
    ///
    /// # Errors
    /// As [`DependentRange::sample_wor`].
    pub fn sample_wr(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError> {
        // A NaN bound holds no key (`RangeSampler::rank_range`'s rule).
        if x.is_nan() || y.is_nan() {
            return Err(QueryError::EmptyRange);
        }
        let a = self.keys.partition_point(|&k| k < x);
        let b = self.keys.partition_point(|&k| k <= y).max(a);
        if a == b {
            return Err(QueryError::EmptyRange);
        }
        let pop = b - a;
        let wor = self.sample_wor(x, y, s.min(pop))?;
        Ok(iqs_alias::wor::wor_to_wr(&wor, pop, s, rng))
    }
}

impl SpaceUsage for DependentRange {
    fn space_words(&self) -> usize {
        let lists: usize = self.node_lists.iter().map(|l| vec_words(l.as_slice())).sum();
        vec_words(&self.keys) + vec_words(&self.perm) + self.tree.space_words() + lists
    }
}

/// Section 1's naive solution: report `S_q` in full, then sample from it.
/// Correct and independent across queries, but `O(|S_q| + s)` per query.
#[derive(Debug, Clone)]
pub struct ReportThenSample {
    keys: Vec<f64>,
    weights: Vec<f64>,
}

impl ReportThenSample {
    /// Builds from `(key, weight)` pairs.
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
        let (keys, weights) = pairs.into_iter().unzip();
        Ok(ReportThenSample { keys, weights })
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

    /// Materializes `S_q`, builds a fresh alias table over it, and draws
    /// `s` weighted samples — `O(|S_q| + s)`.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on an empty range.
    pub fn sample_wr(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError> {
        // A NaN bound holds no key (`RangeSampler::rank_range`'s rule).
        if x.is_nan() || y.is_nan() {
            return Err(QueryError::EmptyRange);
        }
        let a = self.keys.partition_point(|&k| k < x);
        let b = self.keys.partition_point(|&k| k <= y).max(a);
        if a == b {
            return Err(QueryError::EmptyRange);
        }
        // "Reporting": touch every element of S_q.
        let table = AliasTable::new(&self.weights[a..b]).expect("validated weights");
        Ok((0..s).map(|_| a + table.sample(rng)).collect())
    }
}

impl SpaceUsage for ReportThenSample {
    fn space_words(&self) -> usize {
        vec_words(&self.keys) + vec_words(&self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dependent(n: usize, seed: u64) -> DependentRange {
        let mut rng = StdRng::seed_from_u64(seed);
        DependentRange::new((0..n).map(|i| i as f64).collect(), &mut rng).unwrap()
    }

    #[test]
    fn a_nan_bound_is_an_empty_range() {
        let d = dependent(100, 402);
        for (x, y) in [(f64::NAN, 50.0), (50.0, f64::NAN), (f64::NAN, f64::NAN)] {
            assert_eq!(d.sample_wor(x, y, 1), Err(QueryError::EmptyRange), "[{x}, {y}]");
        }
    }

    #[test]
    fn dependent_sampler_is_deterministic_per_query() {
        let d = dependent(200, 400);
        let a = d.sample_wor(20.0, 150.0, 10).unwrap();
        let b = d.sample_wor(20.0, 150.0, 10).unwrap();
        assert_eq!(a, b, "repeating the query must return the same set");
    }

    #[test]
    fn dependent_output_is_a_valid_wor_sample() {
        let d = dependent(100, 401);
        let out = d.sample_wor(10.0, 80.0, 15).unwrap();
        assert_eq!(out.len(), 15);
        let set: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(set.len(), 15);
        assert!(out.iter().all(|&r| (10..=80).contains(&r)));
    }

    #[test]
    fn dependent_marginal_is_uniform_across_builds() {
        // Across independently built structures, the first returned
        // element must be uniform over S_q (each build uses a fresh
        // permutation) — the structure is a correct *single-query*
        // sampler; only cross-query independence fails.
        let mut counts = [0u32; 20];
        for seed in 0..4000 {
            let d = dependent(20, seed);
            let out = d.sample_wor(0.0, 19.0, 1).unwrap();
            counts[out[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = c as f64 / 4000.0;
            assert!((p - 0.05).abs() < 0.02, "rank {i}: {p}");
        }
    }

    #[test]
    fn dependent_nested_queries_correlate() {
        let d = dependent(1000, 402);
        // Both queries consult the same frozen permutation, so the
        // sub-range's sample is fully determined by the containing
        // range's sample: the s lowest-perm elements of [100, 200] are
        // exactly the elements of that interval among the outer query's
        // prefix, whenever enough of them appear there.
        let inner = d.sample_wor(100.0, 200.0, 5).unwrap();
        let outer = d.sample_wor(0.0, 999.0, 1000).unwrap();
        let inner_from_outer: Vec<usize> =
            outer.iter().copied().filter(|&r| (100..=200).contains(&r)).take(5).collect();
        assert_eq!(inner, inner_from_outer, "nested queries share the permutation");
        // And re-running reproduces everything.
        assert_eq!(d.sample_wor(0.0, 999.0, 1000).unwrap(), outer);
    }

    #[test]
    fn dependent_errors() {
        let d = dependent(10, 403);
        assert_eq!(d.sample_wor(100.0, 200.0, 1).unwrap_err(), QueryError::EmptyRange);
        assert!(matches!(
            d.sample_wor(0.0, 4.0, 10),
            Err(QueryError::SampleTooLarge { available: 5, .. })
        ));
    }

    #[test]
    fn dependent_wr_has_fresh_duplicates_but_frozen_support() {
        let d = dependent(50, 404);
        let mut rng = StdRng::seed_from_u64(405);
        let a = d.sample_wr(0.0, 49.0, 30, &mut rng).unwrap();
        let b = d.sample_wr(0.0, 49.0, 30, &mut rng).unwrap();
        // The conversion injects fresh duplicate patterns, but the
        // distinct values always come from the same frozen 30-element
        // WoR prefix of the permutation — cross-query dependence remains.
        let wor: std::collections::HashSet<usize> =
            d.sample_wor(0.0, 49.0, 30).unwrap().into_iter().collect();
        let sa: std::collections::HashSet<usize> = a.into_iter().collect();
        let sb: std::collections::HashSet<usize> = b.into_iter().collect();
        assert!(sa.is_subset(&wor) && sb.is_subset(&wor), "support escaped the frozen prefix");
    }

    #[test]
    fn report_then_sample_correctness() {
        let pairs: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1.0 + (i % 3) as f64)).collect();
        let rts = ReportThenSample::new(pairs.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(406);
        let out = rts.sample_wr(10.0, 60.0, 1000, &mut rng).unwrap();
        assert!(out.iter().all(|&r| (10..=60).contains(&r)));
        assert_eq!(rts.sample_wr(200.0, 300.0, 1, &mut rng).unwrap_err(), QueryError::EmptyRange);
        // Outputs differ across calls (independent).
        let out2 = rts.sample_wr(10.0, 60.0, 1000, &mut rng).unwrap();
        assert_ne!(out, out2);
    }
}
