//! **Theorem 8** — set union sampling via random permutation (Section 7).
//!
//! Input: a family `F` of sets over a common element domain. A query
//! names a sub-family `G ⊆ F` and receives an element drawn uniformly at
//! random from `∪G`; outputs of all queries are mutually independent. The
//! difficulty is overlap: when the sets of `G` intersect, sampling a set
//! and then an element over-weights multiply-covered elements.
//!
//! The structure (following Aumüller et al. as distilled by the paper):
//!
//! * randomly permute the universe `∪F` once; store each set's member
//!   *ranks* in sorted order (rank-range reporting by binary search);
//! * keep a mergeable distinct-count sketch per large set, so `Û_G ≈
//!   |∪G|` can be estimated in `O(g log n)` time without reading the sets;
//! * a query cuts the rank space into `Û_G` equal windows — each holds
//!   `Θ(1)` elements of `∪G` in expectation — picks a window uniformly,
//!   materializes the window's members (deduplicated across `G`), and
//!   accepts by a coin with heads probability `|window| / m` where
//!   `m = Θ(log n)` bounds the window size w.h.p. On heads, a uniform
//!   member of the window is returned; on tails the loop repeats
//!   (`Θ(log n)` expected repeats).
//!
//! Each returned element is uniform over `∪G` because every element wins
//! with probability exactly `1/(Û_G · m)` (equation (5)). Total expected
//! query time `O(g log² n)`. Following the paper's rebuilding remark, the
//! permutation is redrawn after `n` queries (amortized `O(log n)` per
//! query).

use std::collections::HashMap;

use iqs_alias::space::{vec_words, SpaceUsage};
use iqs_alias::BlockRng64;
use iqs_sketch::{HashSeed, KmvSketch};
use rand::{Rng, RngCore};

use crate::error::QueryError;

/// Sketch capacity: `ε = ½` needs `O(1/ε²)` entries; 64 gives relative
/// standard error ≈ 0.13, comfortably inside the `[Û/2, 1.5Û]` band.
const SKETCH_K: usize = 64;

/// The Theorem-8 structure.
///
/// # Example
/// ```
/// use iqs_core::setunion::SetUnionSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// // Two heavily overlapping sets.
/// let sets = vec![(0..100u64).collect(), (50..150u64).collect()];
/// let mut sampler = SetUnionSampler::new(sets, &mut rng)?;
/// // A uniform element of the union {0..150} — overlap not over-weighted.
/// let e = sampler.sample(&[0, 1], &mut rng)?;
/// assert!(e < 150);
/// # Ok::<(), iqs_core::QueryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetUnionSampler {
    /// Original member ids per set.
    sets: Vec<Vec<u64>>,
    /// Member ranks per set, sorted ascending (rebuilt with the
    /// permutation).
    ranks: Vec<Vec<u32>>,
    /// Rank → original element id.
    id_by_rank: Vec<u64>,
    /// Sketch per set of size ≥ log₂ n (smaller sets sketch on the fly).
    sketches: Vec<Option<KmvSketch>>,
    seed: HashSeed,
    /// `n = Σ|S|` — total set size.
    n: usize,
    /// Window-size cap `m = Θ(log n)`.
    m: usize,
    queries_since_rebuild: usize,
}

impl SetUnionSampler {
    /// Builds the structure over the set family in `O(n log n)` expected
    /// time (`n = Σ|S|`).
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] if the family is empty or every set is
    /// empty.
    pub fn new<R: Rng + ?Sized>(sets: Vec<Vec<u64>>, rng: &mut R) -> Result<Self, QueryError> {
        let n: usize = sets.iter().map(Vec::len).sum();
        if n == 0 {
            return Err(QueryError::EmptyRange);
        }
        let m = 3 * ((n as f64 + 1.0).log2().ceil() as usize).max(2);
        let seed = HashSeed(rng.random());
        let mut s = SetUnionSampler {
            sets,
            ranks: Vec::new(),
            id_by_rank: Vec::new(),
            sketches: Vec::new(),
            seed,
            n,
            m,
            queries_since_rebuild: 0,
        };
        s.rebuild(rng);
        Ok(s)
    }

    /// Redraws the permutation and rebuilds rank lists and sketches —
    /// invoked automatically every `n` queries per the paper's
    /// rebuilding argument.
    fn rebuild<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Distinct universe, in first-seen order, then shuffled.
        let mut first_seen: HashMap<u64, u32> = HashMap::new();
        let mut universe: Vec<u64> = Vec::new();
        for set in &self.sets {
            for &id in set {
                first_seen.entry(id).or_insert_with(|| {
                    universe.push(id);
                    (universe.len() - 1) as u32
                });
            }
        }
        // Fisher–Yates.
        for i in (1..universe.len()).rev() {
            universe.swap(i, rng.random_range(0..=i));
        }
        let rank_of: HashMap<u64, u32> =
            universe.iter().enumerate().map(|(r, &id)| (id, r as u32)).collect();
        self.id_by_rank = universe;

        let threshold = ((self.n as f64 + 1.0).log2()) as usize;
        self.ranks = self
            .sets
            .iter()
            .map(|set| {
                let mut rs: Vec<u32> = set.iter().map(|id| rank_of[id]).collect();
                rs.sort_unstable();
                rs.dedup();
                rs
            })
            .collect();
        self.sketches = self
            .ranks
            .iter()
            .map(|rs| {
                if rs.len() >= threshold {
                    Some(KmvSketch::from_ids(rs.iter().map(|&r| r as u64), SKETCH_K, self.seed))
                } else {
                    None
                }
            })
            .collect();
        self.queries_since_rebuild = 0;
    }

    /// Number of sets in the family.
    pub fn family_size(&self) -> usize {
        self.sets.len()
    }

    /// Estimates `|∪G|` by merging the member sets' sketches
    /// (`O(g log n)` expected).
    pub fn estimate_union(&self, g: &[usize]) -> f64 {
        let mut merged: Option<KmvSketch> = None;
        for &i in g {
            let sk = match &self.sketches[i] {
                Some(sk) => sk.clone(),
                None => KmvSketch::from_ids(
                    self.ranks[i].iter().map(|&r| r as u64),
                    SKETCH_K,
                    self.seed,
                ),
            };
            merged = Some(match merged {
                None => sk,
                Some(acc) => acc.merge(&sk),
            });
        }
        merged.map(|sk| sk.estimate()).unwrap_or(0.0)
    }

    /// Exact `|∪G|` (linear in `Σ_{i∈G}|S_i|`; diagnostic only).
    pub fn exact_union(&self, g: &[usize]) -> usize {
        let mut all: Vec<u32> = g.iter().flat_map(|&i| self.ranks[i].iter().copied()).collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }

    /// Window count for a query: `Û_G` clamped to the universe size.
    /// Deterministic given the current permutation and sketches, so one
    /// evaluation serves a whole batch.
    fn window_count(&self, g: &[usize]) -> u64 {
        let u = self.id_by_rank.len() as u64;
        let est = self.estimate_union(g).round().max(1.0);
        (est as u64).min(u)
    }

    /// One rejection-sampling attempt loop — the code path shared by the
    /// sequential and batched queries. `members` is scratch reused across
    /// draws; `rejects` accumulates rejected rounds (empty windows and
    /// failed coins) so batch callers can flush cost stats once.
    fn sample_one<R: RngCore + ?Sized>(
        &self,
        g: &[usize],
        windows: u64,
        members: &mut Vec<u32>,
        rejects: &mut u64,
        rng: &mut R,
    ) -> Result<u64, QueryError> {
        let u = self.id_by_rank.len() as u64;
        // Expected Θ(m) repeats; budget far beyond the w.h.p. bound.
        for _ in 0..(200 * self.m + 64) {
            let j = rng.random_range(0..windows);
            // Window j covers ranks [j*U/windows, (j+1)*U/windows).
            let lo = ((j as u128 * u as u128) / windows as u128) as u32;
            let hi = (((j + 1) as u128 * u as u128) / windows as u128) as u32;
            members.clear();
            for &i in g {
                let rs = &self.ranks[i];
                let a = rs.partition_point(|&r| r < lo);
                let b = rs.partition_point(|&r| r < hi);
                members.extend_from_slice(&rs[a..b]);
            }
            members.sort_unstable();
            members.dedup();
            if members.is_empty() {
                *rejects += 1;
                continue;
            }
            // Coin with heads probability |window|/m (clamped: the
            // overflow event has probability ≤ 1/n² by the choice of m).
            let l = members.len().min(self.m);
            if rng.random_range(0..self.m) < l {
                let pick = members[rng.random_range(0..members.len())];
                return Ok(self.id_by_rank[pick as usize]);
            }
            *rejects += 1;
        }
        Err(QueryError::DensityTooLow)
    }

    /// Draws one uniform element of `∪G`, independent of all previous
    /// outputs. Expected `O(g log² n)` time.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when `∪G` is empty;
    /// [`QueryError::DensityTooLow`] in the (w.h.p.-impossible) event the
    /// repeat budget is exhausted.
    pub fn sample(&mut self, g: &[usize], rng: &mut dyn RngCore) -> Result<u64, QueryError> {
        if self.queries_since_rebuild >= self.n {
            self.rebuild(rng);
        }
        self.queries_since_rebuild += 1;

        if g.iter().all(|&i| self.ranks[i].is_empty()) {
            return Err(QueryError::EmptyRange);
        }
        let windows = self.window_count(g);
        let mut members: Vec<u32> = Vec::with_capacity(self.m * 2);
        let mut rejects = 0u64;
        let out = self.sample_one(g, windows, &mut members, &mut rejects, rng);
        iqs_alias::prof::add_union_rejects(rejects);
        out
    }

    /// Fills `out` with independent uniform elements of `∪G` — the batched
    /// fast path. The union estimate (`O(g log n)`) is computed **once**
    /// for the whole batch instead of per draw, randomness is pulled from
    /// `rng` in blocks, and the window scratch buffer is reused across
    /// draws, so per-sample cost drops to the rejection loop itself.
    ///
    /// Rebuild accounting charges the whole batch up front: a rebuild due
    /// now happens before the first draw, and the next one after `n`
    /// further samples — the same amortization as per-draw accounting.
    ///
    /// # Errors
    /// As [`SetUnionSampler::sample`]. On error, `out` may have been
    /// partially overwritten.
    pub fn sample_into(
        &mut self,
        g: &[usize],
        rng: &mut dyn RngCore,
        out: &mut [u64],
    ) -> Result<(), QueryError> {
        if out.is_empty() {
            return Ok(());
        }
        if self.queries_since_rebuild >= self.n {
            self.rebuild(rng);
        }
        self.queries_since_rebuild += out.len();

        if g.iter().all(|&i| self.ranks[i].is_empty()) {
            return Err(QueryError::EmptyRange);
        }
        let windows = self.window_count(g);
        let mut members: Vec<u32> = Vec::with_capacity(self.m * 2);
        // ~3 words per accepted attempt; rejections top up via refills.
        let mut block = BlockRng64::with_budget(rng, out.len().saturating_mul(4));
        let mut rejects = 0u64;
        let res = out.iter_mut().try_for_each(|slot| {
            *slot = self.sample_one(g, windows, &mut members, &mut rejects, &mut block)?;
            Ok(())
        });
        iqs_alias::prof::add_union_rejects(rejects);
        res
    }

    /// Fills `out` with independent uniform elements of `∪G` through a
    /// *shared* reference — the serving fast path. Identical sampling
    /// procedure to [`SetUnionSampler::sample_into`], but it neither
    /// triggers nor accounts for permutation rebuilds: a frozen snapshot
    /// shared by many reader threads cannot mutate itself. Callers that
    /// share one structure across queries (e.g. `iqs-serve`) must count
    /// served samples externally, and once the count passes
    /// [`SetUnionSampler::rebuild_budget`] publish a refreshed clone via
    /// [`SetUnionSampler::refresh_permutation`] to retain the paper's
    /// amortized rebuilding argument.
    ///
    /// # Errors
    /// As [`SetUnionSampler::sample`]. On error, `out` may have been
    /// partially overwritten.
    pub fn sample_frozen_into(
        &self,
        g: &[usize],
        rng: &mut dyn RngCore,
        out: &mut [u64],
    ) -> Result<(), QueryError> {
        if out.is_empty() {
            return Ok(());
        }
        if g.iter().all(|&i| self.ranks[i].is_empty()) {
            return Err(QueryError::EmptyRange);
        }
        let windows = self.window_count(g);
        let mut members: Vec<u32> = Vec::with_capacity(self.m * 2);
        let mut block = BlockRng64::with_budget(rng, out.len().saturating_mul(4));
        let mut rejects = 0u64;
        let res = out.iter_mut().try_for_each(|slot| {
            *slot = self.sample_one(g, windows, &mut members, &mut rejects, &mut block)?;
            Ok(())
        });
        iqs_alias::prof::add_union_rejects(rejects);
        res
    }

    /// Number of samples one permutation may serve before the paper's
    /// rebuilding argument asks for a redraw (`n = Σ|S|`).
    pub fn rebuild_budget(&self) -> usize {
        self.n
    }

    /// Redraws the random permutation and rebuilds rank lists and
    /// sketches — the explicit rebuild hook for writers that serve frozen
    /// snapshots (see [`SetUnionSampler::sample_frozen_into`]). The
    /// mutating query APIs call this automatically.
    pub fn refresh_permutation<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.rebuild(rng);
    }

    /// Draws `s` independent uniform elements of `∪G` — a convenience
    /// wrapper over [`SetUnionSampler::sample_into`].
    ///
    /// # Errors
    /// As [`SetUnionSampler::sample`].
    pub fn sample_many(
        &mut self,
        g: &[usize],
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<u64>, QueryError> {
        let mut out = vec![0u64; s];
        self.sample_into(g, rng, &mut out)?;
        Ok(out)
    }
}

impl SpaceUsage for SetUnionSampler {
    fn space_words(&self) -> usize {
        let sets: usize = self.sets.iter().map(|s| vec_words(s.as_slice())).sum();
        let ranks: usize = self.ranks.iter().map(|r| vec_words(r.as_slice())).sum();
        let sketches: usize = self.sketches.iter().flatten().map(|s| s.stored() + 2).sum();
        sets + ranks + sketches + vec_words(&self.id_by_rank)
    }
}

/// The naive baseline: materialize `∪G` and pick uniformly —
/// `O(Σ_{i∈G} |S_i|)` per query. Used by experiment E8.
pub fn naive_union_sample<R: Rng + ?Sized>(
    sets: &[Vec<u64>],
    g: &[usize],
    rng: &mut R,
) -> Result<u64, QueryError> {
    let mut union: Vec<u64> = g.iter().flat_map(|&i| sets[i].iter().copied()).collect();
    union.sort_unstable();
    union.dedup();
    if union.is_empty() {
        return Err(QueryError::EmptyRange);
    }
    Ok(union[rng.random_range(0..union.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Three heavily overlapping sets over 0..150.
    fn family() -> Vec<Vec<u64>> {
        vec![(0..100u64).collect(), (50..150u64).collect(), (0..150u64).step_by(3).collect()]
    }

    #[test]
    fn rejects_empty_family() {
        let mut rng = StdRng::seed_from_u64(560);
        assert!(SetUnionSampler::new(vec![], &mut rng).is_err());
        assert!(SetUnionSampler::new(vec![vec![], vec![]], &mut rng).is_err());
    }

    #[test]
    fn estimates_are_within_band() {
        let mut rng = StdRng::seed_from_u64(561);
        let s = SetUnionSampler::new(family(), &mut rng).unwrap();
        let g = [0usize, 1, 2];
        let exact = s.exact_union(&g) as f64; // 150
        assert_eq!(exact, 150.0);
        let est = s.estimate_union(&g);
        assert!(est >= exact / 2.0 && est <= exact * 2.0, "est {est} vs {exact}");
    }

    #[test]
    fn samples_are_uniform_over_the_union() {
        let mut rng = StdRng::seed_from_u64(562);
        let mut s = SetUnionSampler::new(family(), &mut rng).unwrap();
        let g = [0usize, 1, 2];
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let draws = 60_000;
        for _ in 0..draws {
            let e = s.sample(&g, &mut rng).unwrap();
            assert!(e < 150);
            *counts.entry(e).or_default() += 1;
        }
        // Every union element reachable; multiply-covered elements (the
        // overlap 50..100 appears in 2-3 sets) must NOT be over-weighted.
        assert_eq!(counts.len(), 150);
        let want = draws as f64 / 150.0;
        let mut chi = 0.0;
        for e in 0..150u64 {
            let c = *counts.get(&e).unwrap_or(&0) as f64;
            chi += (c - want).powi(2) / want;
        }
        // dof = 149, sd ≈ 17: 300 is a huge margin.
        assert!(chi < 300.0, "chi^2 {chi}: union sampling is biased");
    }

    #[test]
    fn subfamily_queries_restrict_support() {
        let mut rng = StdRng::seed_from_u64(563);
        let mut s = SetUnionSampler::new(family(), &mut rng).unwrap();
        for _ in 0..500 {
            let e = s.sample(&[0], &mut rng).unwrap();
            assert!(e < 100, "element {e} not in set 0");
        }
        for _ in 0..500 {
            let e = s.sample(&[2], &mut rng).unwrap();
            assert_eq!(e % 3, 0, "element {e} not in set 2");
        }
    }

    #[test]
    fn empty_subfamily_errors() {
        let mut rng = StdRng::seed_from_u64(564);
        let mut s = SetUnionSampler::new(vec![vec![1, 2, 3], vec![]], &mut rng).unwrap();
        assert_eq!(s.sample(&[1], &mut rng).unwrap_err(), QueryError::EmptyRange);
    }

    #[test]
    fn rebuild_preserves_correctness() {
        let mut rng = StdRng::seed_from_u64(565);
        let sets = vec![vec![7u64, 8, 9], vec![9u64, 10]];
        let mut s = SetUnionSampler::new(sets, &mut rng).unwrap();
        // n = 5, so 20 queries force several rebuilds.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.sample(&[0, 1], &mut rng).unwrap());
        }
        let want: std::collections::HashSet<u64> = [7, 8, 9, 10].into_iter().collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn batch_replays_sequential_draws() {
        // Two identically-seeded samplers: the batched path must consume
        // the same word stream as per-draw sampling (no rebuild occurs
        // within 50 draws since n = 350), hence return identical ids.
        let g = [0usize, 1, 2];
        let mut rng_a = StdRng::seed_from_u64(568);
        let mut a = SetUnionSampler::new(family(), &mut rng_a).unwrap();
        let seq: Vec<u64> = (0..50).map(|_| a.sample(&g, &mut rng_a).unwrap()).collect();

        let mut rng_b = StdRng::seed_from_u64(568);
        let mut b = SetUnionSampler::new(family(), &mut rng_b).unwrap();
        let mut batch = vec![0u64; 50];
        b.sample_into(&g, &mut rng_b, &mut batch).unwrap();
        assert_eq!(batch, seq);
    }

    #[test]
    fn batch_empty_subfamily_errors() {
        let mut rng = StdRng::seed_from_u64(569);
        let mut s = SetUnionSampler::new(vec![vec![1, 2, 3], vec![]], &mut rng).unwrap();
        let mut out = [0u64; 8];
        assert_eq!(s.sample_into(&[1], &mut rng, &mut out).unwrap_err(), QueryError::EmptyRange);
        s.sample_into(&[0], &mut rng, &mut []).unwrap();
    }

    #[test]
    fn naive_baseline_agrees() {
        let mut rng = StdRng::seed_from_u64(566);
        let sets = family();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..30_000 {
            *counts.entry(naive_union_sample(&sets, &[0, 1], &mut rng).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 150);
    }

    #[test]
    fn duplicate_ids_within_a_set_are_harmless() {
        let mut rng = StdRng::seed_from_u64(567);
        let mut s = SetUnionSampler::new(vec![vec![1, 1, 1, 2]], &mut rng).unwrap();
        let mut ones = 0;
        for _ in 0..2000 {
            if s.sample(&[0], &mut rng).unwrap() == 1 {
                ones += 1;
            }
        }
        // Uniform over {1, 2} despite the duplicates.
        assert!((ones as f64 / 2000.0 - 0.5).abs() < 0.05);
    }
}
