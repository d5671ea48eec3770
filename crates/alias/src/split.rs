//! Multinomial sample splitting (Section 4.1 of the paper).
//!
//! Every composite IQS structure answers a query by (1) finding a small
//! collection of groups (canonical nodes, chunks, …) that partition the
//! query result, (2) deciding how many of the `s` requested samples come
//! from each group, and (3) delegating into the groups. Step (2) is an
//! instance of weighted set sampling, and this module holds both ways the
//! workspace does it:
//!
//! * [`split_samples`] builds an alias table over the group weights and
//!   draws `s` times, counting occurrences — `O(t + s)` for `t` groups,
//!   exactly as prescribed after Lemma 2. The in-memory structures use it.
//! * [`pick`] / [`split_counts`] walk the groups' masses as a CDF, one
//!   uniform point per draw — `O(t)` per draw and nothing to build. The
//!   external-memory structures and the cold tier use it: their group
//!   lists are a handful of entries made per query, and CPU is free in
//!   the EM model. It is the one CDF walk in the workspace outside
//!   [`crate::CdfSampler`]'s binary search.

use rand::Rng;

use crate::{AliasTable, WeightError};

/// Decides how many of `s` samples each of the `t` weighted groups
/// contributes. Returns a vector of counts summing to `s`.
///
/// Runs in `O(t + s)` time. Each of the `s` unit decisions is an
/// independent weighted draw, so the joint counts are multinomial
/// `(s; w_1/W, …, w_t/W)` — which is precisely what makes the composed
/// two-level sample an unbiased weighted sample of the union.
///
/// # Errors
/// [`WeightError`] if `weights` is empty or invalid.
pub fn split_samples<R: Rng + ?Sized>(
    weights: &[f64],
    s: usize,
    rng: &mut R,
) -> Result<Vec<usize>, WeightError> {
    let table = AliasTable::new(weights)?;
    let mut counts = vec![0usize; weights.len()];
    for _ in 0..s {
        counts[table.sample(rng)] += 1;
    }
    Ok(counts)
}

/// Like [`split_samples`] but reuses a prebuilt alias table (the
/// Corollary-7 optimization: when the group set is known in advance, the
/// `O(t)` table construction is moved to preprocessing and a query costs
/// only `O(s)`).
pub fn split_samples_with(table: &AliasTable, s: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut counts = vec![0usize; table.len()];
    for _ in 0..s {
        counts[table.sample(rng)] += 1;
    }
    counts
}

/// A group's share of a categorical draw: an item count or a weight.
///
/// Each implementation keeps its own arithmetic for turning one RNG word
/// into a point of `[0, total)`, so a draw over counts stays exact and a
/// draw over weights stays the usual `u · W`.
pub trait Mass: Copy + PartialOrd + std::ops::SubAssign {
    /// A uniform point in `[0, total)`, from one RNG word.
    fn point_below<R: Rng + ?Sized>(total: Self, rng: &mut R) -> Self;
}

impl Mass for usize {
    fn point_below<R: Rng + ?Sized>(total: usize, rng: &mut R) -> usize {
        rng.random_range(0..total)
    }
}

impl Mass for f64 {
    fn point_below<R: Rng + ?Sized>(total: f64, rng: &mut R) -> f64 {
        rng.random::<f64>() * total
    }
}

/// One categorical draw: the index of the group a uniform point of
/// `[0, total)` falls in, group `i` owning a stretch of length
/// `masses[i]`. Consumes one RNG word. `total` is the caller's sum of
/// the (non-empty) `masses`.
///
/// The walk subtracts each mass it passes from the point rather than
/// comparing against a running sum. With floating-point masses the two
/// can disagree in the last place; rounding that leaves the point past
/// every group picks the last one, and a zero-mass group is picked only
/// that way.
pub fn pick<M: Mass, R: Rng + ?Sized>(
    masses: impl IntoIterator<Item = M>,
    total: M,
    rng: &mut R,
) -> usize {
    let mut point = M::point_below(total, rng);
    let mut last = 0;
    for (i, mass) in masses.into_iter().enumerate() {
        if point < mass {
            return i;
        }
        point -= mass;
        last = i;
    }
    last
}

/// [`pick`]s `s` times and counts the draws per group: the multinomial
/// split of `s` samples over `masses`, one RNG word per sample.
pub fn split_counts<M: Mass, R: Rng + ?Sized>(
    masses: &[M],
    total: M,
    s: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut counts = vec![0usize; masses.len()];
    for _ in 0..s {
        counts[pick(masses.iter().copied(), total, rng)] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_sum_to_s() {
        let mut rng = StdRng::seed_from_u64(1);
        let counts = split_samples(&[1.0, 2.0, 3.0], 1000, &mut rng).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn zero_samples_gives_zero_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let counts = split_samples(&[1.0, 1.0], 0, &mut rng).unwrap();
        assert_eq!(counts, vec![0, 0]);
    }

    #[test]
    fn means_match_weights() {
        let weights = [1.0, 4.0, 5.0];
        let mut rng = StdRng::seed_from_u64(2);
        let mut sums = [0usize; 3];
        let trials = 500;
        let s = 100;
        for _ in 0..trials {
            let c = split_samples(&weights, s, &mut rng).unwrap();
            for i in 0..3 {
                sums[i] += c[i];
            }
        }
        let total: f64 = weights.iter().sum();
        for i in 0..3 {
            let mean = sums[i] as f64 / trials as f64;
            let want = s as f64 * weights[i] / total;
            assert!((mean - want).abs() < 2.0, "group {i}: {mean} vs {want}");
        }
    }

    #[test]
    fn empty_groups_error() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(split_samples(&[], 10, &mut rng).is_err());
    }

    #[test]
    fn prebuilt_table_agrees() {
        let weights = [2.0, 8.0];
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut heavy = 0usize;
        for _ in 0..200 {
            let c = split_samples_with(&table, 50, &mut rng);
            assert_eq!(c.iter().sum::<usize>(), 50);
            heavy += c[1];
        }
        let frac = heavy as f64 / (200.0 * 50.0);
        assert!((frac - 0.8).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn pick_walks_counts_exactly_and_weights_in_proportion() {
        let mut rng = StdRng::seed_from_u64(5);
        // Counts: group 1 is empty and never drawn; the others are exact
        // thirds and two-thirds in expectation.
        let counts = split_counts(&[10usize, 0, 20], 30, 30_000, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 30_000);
        assert_eq!(counts[1], 0);
        assert!((counts[0] as f64 / 30_000.0 - 1.0 / 3.0).abs() < 0.02, "{counts:?}");
        // Weights, through an iterator of borrowed records.
        let items = [("a", 1.0), ("b", 0.0), ("c", 3.0)];
        let mut hits = [0usize; 3];
        for _ in 0..20_000 {
            hits[pick(items.iter().map(|p| p.1), 4.0, &mut rng)] += 1;
        }
        assert_eq!(hits[1], 0);
        assert!((hits[2] as f64 / 20_000.0 - 0.75).abs() < 0.02, "{hits:?}");
    }

    #[test]
    fn pick_spends_one_word_and_a_point_past_every_group_takes_the_last() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut twin = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            // A stated total above the true sum leaves points past the end.
            let i = pick([1.0, 1.0], 4.0, &mut rng);
            let point = twin.random::<f64>() * 4.0;
            assert_eq!(i, if point < 1.0 { 0 } else { 1 });
        }
        assert_eq!(rng.random::<u64>(), twin.random::<u64>(), "one word per pick");
    }
}
