use rand::Rng;

use crate::chunktree::Pools;
use crate::machine::{EmArray, EmMachine};
use crate::sort::external_sort;

/// Builds an [`EmArray`] of `count` independent WR samples drawn uniformly
/// from `data[lo..hi]`, using only sequential passes and external sorts —
/// the "with sorting" rebuild of Section 8:
///
/// 1. emit `(random rank, output slot)` pairs sequentially;
/// 2. sort by rank (`O((count/B) log_{M/B})` I/Os);
/// 3. merge-scan against the data range (one sequential pass over both)
///    to attach values;
/// 4. sort back by output slot so the pool order is independent of the
///    rank order;
/// 5. emit the values sequentially.
///
/// Total cost `O(((count + hi - lo)/B) · log_{M/B}(count/B))` I/Os.
pub fn build_wr_pool<R: Rng + ?Sized>(
    machine: &EmMachine,
    data: &EmArray<f64>,
    lo: usize,
    hi: usize,
    count: usize,
    rng: &mut R,
) -> EmArray<f64> {
    assert!(lo < hi && hi <= data.len(), "bad pool range [{lo},{hi})");
    // 1. Random ranks, written sequentially (array_from placement is
    //    free; charge the write pass).
    let pairs: EmArray<(u64, u64)> = machine.array_from(
        (0..count as u64).map(|slot| (rng.random_range(lo as u64..hi as u64), slot)).collect(),
    );
    pairs.mark_written(0, count);
    // 2. Sort by rank.
    let by_rank = external_sort(machine, pairs, |p| p.0);
    // 3. Merge-scan: ranks ascending, so `by_rank` is read a block at a
    //    time and `data` is probed forward only.
    let mut valued: Vec<(u64, f64)> = Vec::with_capacity(count);
    let mut start = 0;
    while start < count {
        let end = (start + by_rank.items_per_block()).min(count);
        by_rank.scan(start, end, |ranked| {
            valued.extend(ranked.iter().map(|&(rank, slot)| (slot, data.get(rank as usize))));
        });
        start = end;
    }
    by_rank.discard();
    let valued_arr = machine.array_from(valued);
    valued_arr.mark_written(0, count);
    // 4. Sort back by slot.
    let by_slot = external_sort(machine, valued_arr, |p| p.0);
    // 5. Extract values sequentially.
    let pool = machine.array_from(vec![0.0f64; count]);
    by_slot.emit_into(&pool, |(_, value)| value);
    by_slot.discard();
    pool
}

/// Section 8's **set sampling** structure: `n` pre-drawn WR samples stored
/// in a pool and consumed sequentially; when the pool runs dry it is
/// rebuilt with sorting. Amortized cost per sample:
/// `O((1/B) · log_{M/B}(n/B))` I/Os — matching the Hu et al. lower bound —
/// versus the naive random-access sampler's `O(1)` I/Os per sample
/// ([`NaiveEmSampler`]).
///
/// Outputs of all queries are mutually independent: every pool entry is an
/// independent draw and is consumed exactly once.
#[derive(Debug)]
pub struct SamplePool {
    machine: EmMachine,
    data: EmArray<f64>,
    /// The one pool: [`Pools`] with a single node covering the whole set.
    pools: Pools<f64>,
}

impl SamplePool {
    /// Builds the structure over `data` (one initial pool fill of `n`
    /// samples, counted; every rebuild is that size too).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn new<R: Rng + ?Sized>(machine: &EmMachine, data: Vec<f64>, rng: &mut R) -> Self {
        assert!(!data.is_empty(), "set sampling over an empty set");
        let data = machine.array_from(data);
        let mut pools = Pools::new(1);
        pools.fill(0, build_wr_pool(machine, &data, 0, data.len(), data.len(), rng));
        SamplePool { machine: machine.clone(), data, pools }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the dataset is empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of pool rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.pools.rebuilds()
    }

    /// Draws `s` independent WR samples. Sequential pool consumption plus
    /// an amortized rebuild.
    pub fn query<R: Rng + ?Sized>(&mut self, s: usize, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::with_capacity(s);
        let n = self.data.len();
        self.pools.take_from_pool(
            0,
            n,
            s,
            |size| build_wr_pool(&self.machine, &self.data, 0, n, size, rng),
            |run| out.extend_from_slice(run),
        );
        out
    }
}

/// The naive EM set sampler: `s` random accesses into the data array,
/// `O(s)` I/Os per query (each access faults a block with high probability
/// when `n ≫ M`). Kept as the baseline of experiment E9.
#[derive(Debug)]
pub struct NaiveEmSampler {
    data: EmArray<f64>,
}

impl NaiveEmSampler {
    /// Stores `data` on the machine's disk.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn new(machine: &EmMachine, data: Vec<f64>) -> Self {
        assert!(!data.is_empty(), "set sampling over an empty set");
        NaiveEmSampler { data: machine.array_from(data) }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the dataset is empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Draws `s` independent WR samples by random access.
    pub fn query<R: Rng + ?Sized>(&self, s: usize, rng: &mut R) -> Vec<f64> {
        (0..s).map(|_| self.data.get(rng.random_range(0..self.data.len()))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pool_samples_are_uniform() {
        let m = EmMachine::new(64 * 16, 64);
        let mut rng = StdRng::seed_from_u64(110);
        let n = 512;
        let data: Vec<f64> = (0..n).map(f64::from).collect();
        let mut sp = SamplePool::new(&m, data, &mut rng);
        let mut counts = vec![0u32; n as usize];
        let draws = 200_000;
        for _ in 0..draws / 100 {
            for v in sp.query(100, &mut rng) {
                counts[v as usize] += 1;
            }
        }
        let expect = draws as f64 / n as f64;
        let chi: f64 = counts.iter().map(|&c| (c as f64 - expect).powi(2) / expect).sum();
        // dof = 511; mean 511, sd ~32; 800 is a >9-sigma bound.
        assert!(chi < 800.0, "chi^2 {chi}");
        assert!(sp.rebuilds() >= 1, "pool must have been rebuilt");
    }

    #[test]
    fn pool_query_io_beats_naive_for_large_s() {
        let b = 64;
        let m = EmMachine::new(b * 8, b);
        let mut rng = StdRng::seed_from_u64(111);
        let n = 64 * 1024usize;
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();

        let mut sp = SamplePool::new(&m, data.clone(), &mut rng);
        m.reset_stats();
        let s = 8 * 1024;
        sp.query(s, &mut rng);
        let pool_ios = m.stats().total();

        let naive = NaiveEmSampler::new(&m, data);
        m.reset_stats();
        naive.query(s, &mut rng);
        let naive_ios = m.stats().total();

        assert!(pool_ios * 4 < naive_ios, "pool {pool_ios} I/Os vs naive {naive_ios}");
    }

    #[test]
    fn queries_spanning_rebuild_are_complete() {
        let m = EmMachine::new(64 * 8, 64);
        let mut rng = StdRng::seed_from_u64(112);
        let data: Vec<f64> = (0..100).map(f64::from).collect();
        let mut sp = SamplePool::new(&m, data, &mut rng);
        // n = 100; ask for 250 samples -> at least 2 rebuilds.
        let out = sp.query(250, &mut rng);
        assert_eq!(out.len(), 250);
        assert!(sp.rebuilds() >= 2);
        assert!(out.iter().all(|&v| (0.0..100.0).contains(&v)));
    }

    #[test]
    fn naive_samples_are_in_range() {
        let m = EmMachine::new(256, 64);
        let mut rng = StdRng::seed_from_u64(113);
        let naive = NaiveEmSampler::new(&m, vec![1.0, 2.0, 3.0]);
        for v in naive.query(100, &mut rng) {
            assert!((1.0..=3.0).contains(&v));
        }
    }

    #[test]
    fn build_wr_pool_distribution() {
        let m = EmMachine::new(64 * 16, 64);
        let mut rng = StdRng::seed_from_u64(114);
        let data = m.array_from((0..10).map(f64::from).collect::<Vec<_>>());
        // Pool over the sub-range [2, 7).
        let pool = build_wr_pool(&m, &data, 2, 7, 50_000, &mut rng);
        let mut counts = [0u32; 10];
        for i in 0..pool.len() {
            counts[pool.get(i) as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            if (2..7).contains(&v) {
                let p = c as f64 / 50_000.0;
                assert!((p - 0.2).abs() < 0.01, "value {v}: {p}");
            } else {
                assert_eq!(c, 0, "value {v} outside range sampled");
            }
        }
    }
}
