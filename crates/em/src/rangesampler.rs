use iqs_alias::split::{split_counts, Prefix};
use rand::Rng;

use crate::chunktree::{key_run, ChunkDir, ChunkTree, Cover, Pools};
use crate::machine::{EmArray, EmMachine};
use crate::samplepool::build_wr_pool;

/// Sorts `keys`, places them on the machine's disk and builds their
/// chunk directory (`B` keys per chunk).
fn store_sorted(machine: &EmMachine, mut keys: Vec<f64>) -> (EmArray<f64>, ChunkDir) {
    assert!(!keys.is_empty(), "range sampling over an empty set");
    keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
    let arr = machine.array_from(keys.clone());
    let dir = ChunkDir::new(keys.len(), arr.items_per_block(), |i| keys[i]);
    (arr, dir)
}

/// The in-range values of chunk `c` (one chunk read; `x ≤ y`): the
/// chunk is key-sorted, so they are one run of it.
fn read_piece(keys: &EmArray<f64>, dir: &ChunkDir, c: usize, x: f64, y: f64) -> Vec<f64> {
    let (lo, hi) = dir.items(c, c + 1);
    keys.scan(lo, hi, |chunk| chunk[key_run(chunk, x, y, |&k| k)].to_vec())
}

/// Hu-et-al-style WR **range sampling** structure in external memory
/// (Section 8, second structure).
///
/// The sorted keys are stored in chunks of `B` items; a binary supernode
/// hierarchy over the `m = ⌈n/B⌉` chunks provides canonical decompositions
/// of chunk-aligned ranges. Every supernode keeps a *pool* of pre-drawn WR
/// samples from its chunk range, built lazily with sorting
/// (`build_wr_pool`) and consumed sequentially; a query
///
/// 1. locates the two boundary chunks through an in-memory chunk directory
///    (`O(n/B)` words — the index's navigation metadata) and reads them
///    (`O(1)` I/Os),
/// 2. splits `s` multinomially between the two in-memory boundary pieces
///    and the chunk-aligned middle,
/// 3. decomposes the middle into `O(log(n/B))` canonical supernodes, splits
///    again, and consumes each node's pool sequentially.
///
/// Amortized cost `O(log(n/B) + (s/B) · log_{M/B}(n/B))` I/Os per query —
/// the same `log + s/B` shape as the paper's `O(log_B n + (s/B)
/// log_{M/B}(n/B))` bound (our hierarchy is binary rather than fanout-`B`;
/// see DESIGN.md). Outputs of all queries are mutually independent: every
/// pool entry is an independent draw consumed exactly once.
///
/// The directory, the hierarchy and the pools are the crate's shared
/// skeleton (`chunktree`), with a chunk's *mass* its item count;
/// [`EmWeightedRangeSampler`](crate::EmWeightedRangeSampler) is the same
/// skeleton under weights.
#[derive(Debug)]
pub struct EmRangeSampler {
    machine: EmMachine,
    keys: EmArray<f64>,
    /// Supernodes over the chunks; a node's mass is its item count.
    tree: ChunkTree<usize>,
    /// Lazily built per-node pools with consumption cursors.
    pools: Pools<f64>,
    /// The middle's canonical nodes and their shares, kept from query
    /// to query.
    cover: Cover<usize>,
}

impl EmRangeSampler {
    /// Builds the structure over keys (sorted internally; `O((n/B)
    /// log_{M/B}(n/B))` I/Os are charged for an external sort pass when the
    /// input is unsorted — here the caller passes an in-memory vector, so
    /// we sort CPU-side and charge the sequential placement only, matching
    /// how the other structures are constructed).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn new(machine: &EmMachine, keys: Vec<f64>) -> Self {
        let (keys, dir) = store_sorted(machine, keys);
        let counts: Vec<usize> =
            (0..dir.chunks()).map(|c| dir.items(c, c + 1)).map(|(lo, hi)| hi - lo).collect();
        let tree = ChunkTree::new(dir, &counts);
        let pools = Pools::new(tree.node_count());
        EmRangeSampler { machine: machine.clone(), keys, tree, pools, cover: Cover::default() }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.tree.dir.len()
    }

    /// True when the structure holds no keys (never constructible).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pool rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.pools.rebuilds()
    }

    /// Draws `s` independent WR samples from the keys in `[x, y]`.
    /// Returns `None` when the range is empty or a bound is NaN.
    pub fn query<R: Rng + ?Sized>(
        &mut self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
    ) -> Option<Vec<f64>> {
        if y < x || x.is_nan() || y.is_nan() {
            return None;
        }
        // Boundary chunks via the in-memory directory; read them and
        // collect their in-range values.
        let dir = &self.tree.dir;
        let (ca, cb) = dir.boundary_chunks(x, y);
        let head = read_piece(&self.keys, dir, ca, x, y);
        let pick = |vals: &[f64], rng: &mut R| vals[rng.random_range(0..vals.len())];
        if ca == cb {
            if head.is_empty() {
                return None;
            }
            return Some((0..s).map(|_| pick(&head, rng)).collect());
        }
        let tail = read_piece(&self.keys, dir, cb, x, y);
        // Full chunks strictly between the boundary chunks.
        let (mid_lo, mid_hi) = dir.items(ca + 1, cb);
        let pieces = [head.len(), mid_hi - mid_lo, tail.len()];
        let total: usize = pieces.iter().sum();
        if total == 0 {
            return None;
        }
        // Three-way multinomial split by exact counts (Figure 2's
        // q1/q2/q3 decomposition).
        let (mut prefix, mut counts) = (Prefix::default(), Vec::new());
        split_counts(&pieces, total, s, rng, &mut prefix, &mut counts);
        let mut out = Vec::with_capacity(s);
        out.extend((0..counts[0]).map(|_| pick(&head, rng)));
        out.extend((0..counts[2]).map(|_| pick(&tail, rng)));
        // The middle: canonical supernodes, split by item counts.
        self.tree.split_over_canonical(ca + 1, cb, counts[1], rng, &mut self.cover);
        for (u, count) in self.cover.shares() {
            let (lo, hi) = self.tree.item_range(u);
            self.pools.take_from_pool(
                u,
                count,
                || build_wr_pool(&self.machine, &self.keys, lo, hi, hi - lo, rng),
                |run| out.extend_from_slice(run),
            );
        }
        Some(out)
    }
}

/// Baselines for experiment E10.
#[derive(Debug)]
pub struct NaiveEmRangeSampler {
    keys: EmArray<f64>,
    dir: ChunkDir,
}

impl NaiveEmRangeSampler {
    /// Stores sorted keys on the machine's disk.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn new(machine: &EmMachine, keys: Vec<f64>) -> Self {
        let (keys, dir) = store_sorted(machine, keys);
        NaiveEmRangeSampler { keys, dir }
    }

    /// Rank range `[a, b)` of keys in `[x, y]`, via directory + boundary
    /// chunk reads (`O(1)` I/Os). A NaN bound holds no key, and reads
    /// nothing: `boundary_chunks` would place it in chunk 0.
    fn rank_range(&self, x: f64, y: f64) -> (usize, usize) {
        if x.is_nan() || y.is_nan() {
            return (0, 0);
        }
        let (ca, cb) = self.dir.boundary_chunks(x, y);
        let (alo, ahi) = self.dir.items(ca, ca + 1);
        let a =
            alo + self.keys.read_range(alo, ahi).iter().position(|&v| v >= x).unwrap_or(ahi - alo);
        let (blo, bhi) = self.dir.items(cb, cb + 1);
        let b =
            blo + self.keys.read_range(blo, bhi).iter().position(|&v| v > y).unwrap_or(bhi - blo);
        (a, b.max(a))
    }

    /// Random-access WR sampling: `O(s)` I/Os.
    pub fn query_random_access<R: Rng + ?Sized>(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
    ) -> Option<Vec<f64>> {
        let (a, b) = self.rank_range(x, y);
        if a >= b {
            return None;
        }
        Some((0..s).map(|_| self.keys.get(rng.random_range(a..b))).collect())
    }

    /// Report-then-sample (the "naive solution" of Section 1):
    /// `O(|S_q|/B)` I/Os regardless of `s`.
    pub fn query_report_then_sample<R: Rng + ?Sized>(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
    ) -> Option<Vec<f64>> {
        let (a, b) = self.rank_range(x, y);
        if a >= b {
            return None;
        }
        let all = self.keys.read_range(a, b);
        Some((0..s).map(|_| all[rng.random_range(0..all.len())]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine() -> EmMachine {
        EmMachine::new(64 * 8, 64)
    }

    #[test]
    fn samples_fall_in_range_and_uniform() {
        let m = machine();
        let mut rng = StdRng::seed_from_u64(120);
        let n = 4096;
        let keys: Vec<f64> = (0..n).map(f64::from).collect();
        let mut rs = EmRangeSampler::new(&m, keys);
        let (x, y) = (100.0, 1500.0);
        let mut counts = vec![0u32; n as usize];
        let mut total = 0usize;
        for _ in 0..100 {
            let out = rs.query(x, y, 200, &mut rng).unwrap();
            assert_eq!(out.len(), 200);
            for v in out {
                assert!((x..=y).contains(&v), "sample {v} out of range");
                counts[v as usize] += 1;
                total += 1;
            }
        }
        // chi^2 over the 1401 in-range values.
        let k = 1401.0;
        let expect = total as f64 / k;
        let chi: f64 =
            (100..=1500).map(|v| (counts[v as usize] as f64 - expect).powi(2) / expect).sum();
        // dof ~1400, sd ~53: 2000 is a generous bound.
        assert!(chi < 2000.0, "chi^2 {chi}");
    }

    #[test]
    fn single_chunk_range() {
        let m = machine();
        let mut rng = StdRng::seed_from_u64(121);
        let keys: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut rs = EmRangeSampler::new(&m, keys);
        let out = rs.query(10.0, 12.0, 50, &mut rng).unwrap();
        assert!(out.iter().all(|&v| (10.0..=12.0).contains(&v)));
    }

    #[test]
    fn empty_range_is_none() {
        let m = machine();
        let mut rng = StdRng::seed_from_u64(122);
        let keys: Vec<f64> = (0..100).map(|i| f64::from(i) * 10.0).collect();
        let mut rs = EmRangeSampler::new(&m, keys.clone());
        assert!(rs.query(11.0, 19.0, 5, &mut rng).is_none());
        assert!(rs.query(50.0, 40.0, 5, &mut rng).is_none());
        assert!(rs.query(f64::NAN, 500.0, 5, &mut rng).is_none());
        assert!(rs.query(500.0, f64::NAN, 5, &mut rng).is_none());
        let naive = NaiveEmRangeSampler::new(&m, keys);
        assert!(naive.query_random_access(11.0, 19.0, 5, &mut rng).is_none());
    }

    #[test]
    fn a_nan_bound_is_an_empty_range_for_the_baselines() {
        let m = machine();
        let mut rng = StdRng::seed_from_u64(126);
        let naive = NaiveEmRangeSampler::new(&m, (0..4096).map(f64::from).collect());
        for (x, y) in [(f64::NAN, 1000.0), (10.0, f64::NAN), (f64::NAN, f64::NAN)] {
            assert_eq!(naive.query_random_access(x, y, 50, &mut rng), None, "[{x}, {y}]");
            assert_eq!(naive.query_report_then_sample(x, y, 50, &mut rng), None, "[{x}, {y}]");
        }
        // The doors still answer a real range.
        let out = naive.query_report_then_sample(10.0, 1000.0, 50, &mut rng).unwrap();
        assert!(out.iter().all(|&v| (10.0..=1000.0).contains(&v)));
    }

    #[test]
    fn pool_io_beats_random_access_for_large_s() {
        let b = 64;
        let m = EmMachine::new(b * 8, b);
        let mut rng = StdRng::seed_from_u64(123);
        let n = 32 * 1024;
        let keys: Vec<f64> = (0..n).map(|i| i as f64).collect();

        let mut rs = EmRangeSampler::new(&m, keys.clone());
        let (x, y) = (1000.0, 30_000.0);
        // Warm the pools once (amortization kicks in after first build).
        rs.query(x, y, 2048, &mut rng);
        m.reset_stats();
        let s = 4096;
        for _ in 0..4 {
            rs.query(x, y, s, &mut rng);
        }
        let pool_ios = m.stats().total();

        let naive = NaiveEmRangeSampler::new(&m, keys);
        m.reset_stats();
        for _ in 0..4 {
            naive.query_random_access(x, y, s, &mut rng);
        }
        let naive_ios = m.stats().total();
        assert!(pool_ios * 2 < naive_ios, "pool {pool_ios} I/Os vs naive {naive_ios}");
    }

    #[test]
    fn report_then_sample_matches_distribution() {
        let m = machine();
        let mut rng = StdRng::seed_from_u64(124);
        let keys: Vec<f64> = (0..2000).map(f64::from).collect();
        let naive = NaiveEmRangeSampler::new(&m, keys);
        let out = naive.query_report_then_sample(500.0, 600.0, 1000, &mut rng).unwrap();
        assert_eq!(out.len(), 1000);
        assert!(out.iter().all(|&v| (500.0..=600.0).contains(&v)));
    }

    #[test]
    fn duplicate_keys_supported() {
        let m = machine();
        let mut rng = StdRng::seed_from_u64(125);
        let keys = vec![5.0; 500];
        let mut rs = EmRangeSampler::new(&m, keys);
        let out = rs.query(5.0, 5.0, 20, &mut rng).unwrap();
        assert_eq!(out, vec![5.0; 20]);
    }
}
