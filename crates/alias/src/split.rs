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
//! * [`pick`] / [`split_counts`] draw one uniform point per sample and
//!   find its group by binary search over the masses' [`Prefix`] sums —
//!   `O(t)` to sum once, then `O(log t)` per draw — in a prefix and
//!   counts the caller keeps, so a split allocates nothing once they
//!   have grown to its list. The external-memory structures and the
//!   cold tier use it: their group lists (a chunk's items, a node's
//!   chunks, the canonical nodes, the shards) are made per query or per
//!   pool build and drawn from many times. The EM model
//!   prices only block transfers, but the cold tier pays the CPU, and a
//!   CDF walk at `O(t)` a draw was the largest share of it. The search
//!   lands on exactly the group the walk would: where a point lies
//!   within rounding of a prefix sum, the walk itself answers, so every
//!   draw is the walk's and costs the same one RNG word.

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
/// draw over weights stays the usual `u · W`, and says how near a prefix
/// sum a point may lie before the search must defer to the walk.
pub trait Mass: Copy + PartialOrd + std::ops::Add<Output = Self> + std::ops::SubAssign {
    /// The mass of nothing: the sum before the first group.
    const ZERO: Self;

    /// A uniform point in `[0, total)`, from one RNG word.
    fn point_below<R: Rng + ?Sized>(total: Self, rng: &mut R) -> Self;

    /// How far from every prefix sum a point below `total` must lie for
    /// the search to land where the walk does, over `groups` masses whose
    /// left-to-right sum is `sum`.
    fn margin(groups: usize, sum: Self, total: Self) -> Self;

    /// Whether `point`, found by search to lie in `[lo, hi)` of the
    /// prefix sums (`hi` is `None` past the last), lies farther than
    /// `margin` from both.
    fn clear(point: Self, lo: Self, hi: Option<Self>, margin: Self) -> bool;
}

impl Mass for usize {
    const ZERO: usize = 0;

    fn point_below<R: Rng + ?Sized>(total: usize, rng: &mut R) -> usize {
        rng.random_range(0..total)
    }

    /// Integer sums are exact, so the walk's `point − S_i < m_i` is the
    /// search's `point < S_{i+1}`: no margin.
    fn margin(_: usize, _: usize, _: usize) -> usize {
        0
    }

    fn clear(_: usize, _: usize, _: Option<usize>, _: usize) -> bool {
        true
    }
}

impl Mass for f64 {
    const ZERO: f64 = 0.0;

    fn point_below<R: Rng + ?Sized>(total: f64, rng: &mut R) -> f64 {
        rng.random::<f64>() * total
    }

    /// `4(t+2)·2⁻⁵²·max(total, sum) + MIN_POSITIVE` for `t` groups.
    ///
    /// Proof that a point farther than this from its neighbouring prefix
    /// sums lands where the walk does. Let `u = 2⁻⁵³`,
    /// `M = max(total, sum)` — a point `u′·total` with `u′ < 1` rounds to
    /// at most `total` — and `S_k` the exact sum of the first `k`
    /// masses. Every mass is `≥ 0`, so the walk's point only shrinks and
    /// the prefix sums only grow: each rounded operation of either has a
    /// result in `[0, M]` and, rounding to nearest, errs by at most `u`
    /// times that result, so by at most `u·M` (a sum or difference that
    /// lands in the subnormal range is exact). The walk's point before
    /// group `i` has taken `i` subtractions, so it is `point − S_i` to
    /// within `i·u·M`; the prefix sum `P_{i+1}` has taken `i + 1`
    /// additions, so it is `S_{i+1}` to within `(i+1)·u·M`. The walk
    /// stops at `i` when its point is below `m_i`, which therefore has
    /// the sign of `point − P_{i+1}` whenever that is farther than
    /// `(2i+1)·u·M` from zero. The prefix sums do not decrease, so a
    /// point farther than the margin `≥ 8(t+2)·u·M > (2t+1)·u·M` (with
    /// room for the rounding of the margin and of the check) from
    /// `lo = P_j` and `hi = P_{j+1}` is at least that far from every
    /// prefix sum: the walk passes groups `0..j` and stops at `j`, or
    /// passes them all and takes the last when there is no `hi`. ∎
    fn margin(groups: usize, sum: f64, total: f64) -> f64 {
        4.0 * (groups as f64 + 2.0) * f64::EPSILON * total.max(sum) + f64::MIN_POSITIVE
    }

    fn clear(point: f64, lo: f64, hi: Option<f64>, margin: f64) -> bool {
        // `&`, not `&&`: both tests are almost always true, so neither
        // is worth a branch.
        (point - lo > margin) & (hi.unwrap_or(f64::INFINITY) - point > margin)
    }
}

/// The prefix sums of a group list's masses, summed once, in order — the
/// form [`pick`] searches. Keep one and [`Prefix::fill`] it again for the
/// next list: the buffer is reused.
#[derive(Debug, Clone)]
pub struct Prefix<M> {
    /// `0`, then the sum through each group: entry `k` ends group `k − 1`.
    sums: Vec<M>,
}

impl<M> Default for Prefix<M> {
    fn default() -> Self {
        Prefix { sums: Vec::new() }
    }
}

impl<M: Mass> Prefix<M> {
    /// Replaces the sums with those of `masses`: group `i` ends at
    /// `((m_0 + m_1) + …) + m_i`, rounded as a left-to-right sum rounds.
    pub fn fill(&mut self, masses: impl IntoIterator<Item = M>) -> &mut Self {
        self.sums.clear();
        let mut sum = M::ZERO;
        self.sums.extend(std::iter::once(sum).chain(masses.into_iter().map(|mass| {
            sum = sum + mass;
            sum
        })));
        self
    }

    /// The last prefix sum: the masses' left-to-right total (zero for no
    /// groups).
    pub fn sum(&self) -> M {
        self.sums.last().copied().unwrap_or(M::ZERO)
    }

    /// Number of groups summed.
    fn groups(&self) -> usize {
        self.sums.len().saturating_sub(1)
    }

    /// The group `walk` lands on from `point`, found by binary search;
    /// the walk itself answers when `point` lies within `margin` of a
    /// prefix sum. `masses` are the summed masses, in order, read only
    /// then.
    fn locate(&self, point: M, margin: M, masses: impl IntoIterator<Item = M>) -> usize {
        let ends = &self.sums[1..];
        let j = ends.partition_point(|&end| end <= point);
        if M::clear(point, self.sums[j], ends.get(j).copied(), margin) {
            // Past every sum, the walk takes the last group.
            return j.min(ends.len().saturating_sub(1));
        }
        walk(point, masses)
    }
}

/// One categorical draw: the index of the group a uniform point of
/// `[0, total)` falls in, group `i` owning a stretch of length
/// `masses[i]`. Consumes one RNG word and costs `O(log t)` for `t`
/// groups. `prefix` holds the sums of the (non-empty) `masses`, which
/// are read again only when the point lies within rounding of a prefix
/// sum. `total` is the caller's sum of the masses; it need not be
/// `prefix.sum()` bit for bit.
///
/// The answer is the walk's for every point: the group whose stretch
/// holds the point after subtracting each mass passed, a point that
/// rounding leaves past every group taking the last one, and a zero-mass
/// group picked only that way.
pub fn pick<M: Mass, R: Rng + ?Sized>(
    prefix: &Prefix<M>,
    masses: impl IntoIterator<Item = M>,
    total: M,
    rng: &mut R,
) -> usize {
    // Depends on no point: a caller's loop of picks computes it once.
    let margin = M::margin(prefix.groups(), prefix.sum(), total);
    prefix.locate(M::point_below(total, rng), margin, masses)
}

/// The reference the search answers to: walks the masses as a CDF,
/// subtracting each mass it passes from `point` rather than comparing
/// against a running sum, in `O(t)`. With floating-point masses the two
/// can disagree in the last place; rounding that leaves the point past
/// every group picks the last one.
fn walk<M: Mass>(mut point: M, masses: impl IntoIterator<Item = M>) -> usize {
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
/// split of `s` samples over `masses`, one RNG word per sample and
/// `O(t + s log t)` in all. The split is written into the caller's
/// buffers: `prefix` is refilled with the masses' sums and `counts` with
/// one count per mass, whatever either held before, so a caller that
/// keeps both splits list after list without allocating.
pub fn split_counts<M: Mass, R: Rng + ?Sized>(
    masses: &[M],
    total: M,
    s: usize,
    rng: &mut R,
    prefix: &mut Prefix<M>,
    counts: &mut Vec<usize>,
) {
    counts.clear();
    counts.resize(masses.len(), 0);
    prefix.fill(masses.iter().copied());
    for _ in 0..s {
        counts[pick(prefix, masses.iter().copied(), total, rng)] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        let (mut prefix, mut counts) = (Prefix::default(), Vec::new());
        split_counts(&[10usize, 0, 20], 30, 30_000, &mut rng, &mut prefix, &mut counts);
        assert_eq!(counts.iter().sum::<usize>(), 30_000);
        assert_eq!(counts[1], 0);
        assert!((counts[0] as f64 / 30_000.0 - 1.0 / 3.0).abs() < 0.02, "{counts:?}");
        // Weights, through an iterator of borrowed records.
        let items = [("a", 1.0), ("b", 0.0), ("c", 3.0)];
        let mut prefix = Prefix::default();
        prefix.fill(items.iter().map(|p| p.1));
        let mut hits = [0usize; 3];
        for _ in 0..20_000 {
            hits[pick(&prefix, items.iter().map(|p| p.1), 4.0, &mut rng)] += 1;
        }
        assert_eq!(hits[1], 0);
        assert!((hits[2] as f64 / 20_000.0 - 0.75).abs() < 0.02, "{hits:?}");
    }

    #[test]
    fn pick_spends_one_word_and_a_point_past_every_group_takes_the_last() {
        let masses = [1.0, 1.0];
        let mut prefix = Prefix::default();
        prefix.fill(masses);
        let searched = |rng: &mut StdRng| pick(&prefix, masses, 4.0, rng);
        let walked = |rng: &mut StdRng| walk(f64::point_below(4.0, rng), masses);
        let draws: [&dyn Fn(&mut StdRng) -> usize; 2] = [&searched, &walked];
        for draw in draws {
            let mut rng = StdRng::seed_from_u64(6);
            let mut twin = StdRng::seed_from_u64(6);
            for _ in 0..100 {
                // A stated total above the true sum leaves points past the end.
                let i = draw(&mut rng);
                let point = twin.random::<f64>() * 4.0;
                assert_eq!(i, if point < 1.0 { 0 } else { 1 });
            }
            assert_eq!(rng.random::<u64>(), twin.random::<u64>(), "one word per pick");
        }
    }

    #[test]
    fn a_dirty_buffer_splits_as_a_fresh_one() {
        // Buffers left longer and non-zero by a larger list, then a
        // smaller one split through them and through fresh buffers from
        // twin RNGs: the same counts, and the same words spent.
        let (mut prefix, mut counts) = (Prefix::default(), Vec::new());
        let mut rng = StdRng::seed_from_u64(7);
        let larger = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0];
        split_counts(&larger, 26.0, 500, &mut rng, &mut prefix, &mut counts);
        assert_eq!(counts.len(), 6);
        assert!(counts.iter().all(|&c| c > 0) && prefix.sum() > 0.0, "the buffers are dirty");
        let masses = [2.0, 0.5, 4.0];
        let (mut rng, mut twin) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        let (mut fresh_prefix, mut fresh) = (Prefix::default(), Vec::new());
        split_counts(&masses, 6.5, 300, &mut rng, &mut prefix, &mut counts);
        split_counts(&masses, 6.5, 300, &mut twin, &mut fresh_prefix, &mut fresh);
        assert_eq!(counts, fresh);
        assert_eq!(prefix.sums, fresh_prefix.sums);
        assert_eq!(rng.random::<u64>(), twin.random::<u64>(), "the same words spent");
        // The same through integer masses, an empty group among them.
        let (mut prefix, mut counts) = (Prefix::default(), Vec::new());
        let mut dirt = StdRng::seed_from_u64(9);
        split_counts(&[9usize, 4, 6, 8], 27, 200, &mut dirt, &mut prefix, &mut counts);
        let (mut fresh_prefix, mut fresh) = (Prefix::default(), Vec::new());
        split_counts(&[3usize, 0], 3, 50, &mut rng, &mut prefix, &mut counts);
        split_counts(&[3usize, 0], 3, 50, &mut twin, &mut fresh_prefix, &mut fresh);
        assert_eq!((counts, prefix.sums), (fresh, fresh_prefix.sums));
        assert_eq!(rng.random::<u64>(), twin.random::<u64>());
    }

    /// A group list whose prefix sums round, of one of five kinds: a
    /// ladder spanning 2^±60, one heavy mass among many light ones,
    /// all-equal masses, subnormals, and harmonic masses in a shuffled
    /// order.
    fn weight_list(kind: usize, len: usize, rng: &mut StdRng) -> Vec<f64> {
        match kind {
            0 => (0..len.min(48))
                .map(|_| rng.random_range(1.0..2.0) * 2f64.powi(rng.random_range(-60..61)))
                .collect(),
            1 => {
                let mut v: Vec<f64> = (0..len).map(|_| rng.random_range(0.5..1.0)).collect();
                v[rng.random_range(0..len)] = 2f64.powi(rng.random_range(20..50));
                v
            }
            2 => vec![rng.random_range(1e-3..1e3); len],
            3 => {
                (0..len.min(40)).map(|_| f64::from_bits(rng.random_range(1..1u64 << 54))).collect()
            }
            _ => {
                let mut v: Vec<f64> = (0..len).map(|i| 1.0 / (i as f64 + 1.0)).collect();
                for i in (1..len).rev() {
                    v.swap(i, rng.random_range(0..=i));
                }
                v
            }
        }
    }

    /// Item counts, about a third of them empty groups.
    fn count_list(len: usize, rng: &mut StdRng) -> Vec<usize> {
        (0..len)
            .map(|_| if rng.random_range(0..3) == 0 { 0 } else { rng.random_range(1..1000) })
            .collect()
    }

    /// The search against the walk at every prefix sum and `0`, at
    /// `step`s of one and two either side of each, and at `random`
    /// points.
    fn located_as_walked<M: Mass + std::fmt::Debug>(
        masses: &[M],
        prefix: &Prefix<M>,
        step: impl Fn(M, bool) -> M,
        random: impl Iterator<Item = M>,
    ) {
        let mut points = Vec::new();
        for &sum in &prefix.sums {
            let (up, down) = (step(sum, true), step(sum, false));
            points.extend([sum, up, step(up, true), down, step(down, false)]);
        }
        points.extend(random);
        // Points are never negative.
        points.retain(|&point| point >= M::ZERO);
        for &point in &points {
            // The margin of a draw whose total reaches the point.
            let margin = M::margin(masses.len(), prefix.sum(), point);
            let want = walk(point, masses.iter().copied());
            assert_eq!(prefix.locate(point, margin, masses.iter().copied()), want, "at {point:?}");
        }
    }

    /// `pick` against the walk from twin RNGs, at the stated `total`:
    /// the same group every draw, and the same words spent.
    fn picked_as_walked<M: Mass + std::fmt::Debug>(
        masses: &[M],
        prefix: &Prefix<M>,
        total: M,
        seed: u64,
    ) {
        let (mut rng, mut twin) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for _ in 0..32 {
            let want = walk(M::point_below(total, &mut twin), masses.iter().copied());
            assert_eq!(pick(prefix, masses.iter().copied(), total, &mut rng), want);
        }
        assert_eq!(rng.random::<u64>(), twin.random::<u64>(), "one word per pick");
    }

    proptest! {
        /// The search answers every point as the walk does — random
        /// points, every prefix sum and one and two ulps (or units)
        /// either side of each — and `pick` does with a stated total at,
        /// above and below the sum, above it reaching past every group.
        #[test]
        fn prefix_pick_is_the_walk(kind in 0usize..5, len in 1usize..300, seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let weights = weight_list(kind, len, &mut rng);
            let mut prefix = Prefix::default();
            let sum = prefix.fill(weights.iter().copied()).sum();
            let step = |x: f64, up: bool| if up { x.next_up() } else { x.next_down() };
            let random: Vec<f64> = (0..64).map(|_| rng.random::<f64>() * sum).collect();
            located_as_walked(&weights, &prefix, step, random.into_iter());
            for total in [sum, sum.next_up(), sum.next_down(), sum * 1.5, sum * 0.75] {
                picked_as_walked(&weights, &prefix, total, seed);
            }

            let counts = count_list(len, &mut rng);
            let mut prefix = Prefix::default();
            let sum = prefix.fill(counts.iter().copied()).sum();
            let step = |x: usize, up: bool| if up { x + 1 } else { x.saturating_sub(1) };
            let random: Vec<usize> = (0..64).map(|_| rng.random_range(0..sum.max(1))).collect();
            located_as_walked(&counts, &prefix, step, random.into_iter());
            for total in [sum, sum + 1, sum + sum / 2 + 1, sum / 2] {
                if total > 0 {
                    picked_as_walked(&counts, &prefix, total, seed);
                }
            }
        }
    }
}
