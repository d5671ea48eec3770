use rand::Rng;

use crate::machine::{EmArray, EmMachine};
use crate::samplepool::build_wr_pool;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct EmNode {
    left: u32,
    right: u32,
    /// Chunk range `[lo, hi)` covered by this node.
    lo: u32,
    hi: u32,
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
#[derive(Debug)]
pub struct EmRangeSampler {
    machine: EmMachine,
    keys: EmArray<f64>,
    n: usize,
    /// Items per chunk (`B` for f64 keys).
    b: usize,
    /// First key of each chunk (in-memory directory).
    chunk_min: Vec<f64>,
    nodes: Vec<EmNode>,
    root: u32,
    /// Lazily built per-node pools with consumption cursors.
    pools: Vec<Option<(EmArray<f64>, usize)>>,
    rebuilds: u64,
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
    pub fn new(machine: &EmMachine, mut keys: Vec<f64>) -> Self {
        assert!(!keys.is_empty(), "range sampling over an empty set");
        keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
        let n = keys.len();
        let arr = machine.array_from(keys.clone());
        let b = arr.items_per_block();
        let m = n.div_ceil(b);
        let chunk_min: Vec<f64> = (0..m).map(|c| keys[c * b]).collect();

        let mut nodes = Vec::with_capacity(2 * m);
        let root = Self::build(&mut nodes, 0, m as u32);
        let pools = (0..nodes.len()).map(|_| None).collect();
        EmRangeSampler {
            machine: machine.clone(),
            keys: arr,
            n,
            b,
            chunk_min,
            nodes,
            root,
            pools,
            rebuilds: 0,
        }
    }

    fn build(nodes: &mut Vec<EmNode>, lo: u32, hi: u32) -> u32 {
        if hi - lo == 1 {
            nodes.push(EmNode { left: NIL, right: NIL, lo, hi });
            return (nodes.len() - 1) as u32;
        }
        let mid = lo + (hi - lo) / 2;
        let left = Self::build(nodes, lo, mid);
        let right = Self::build(nodes, mid, hi);
        nodes.push(EmNode { left, right, lo, hi });
        (nodes.len() - 1) as u32
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the structure holds no keys (never constructible).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of pool rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Item range `[lo, hi)` of node `u`.
    fn item_range(&self, u: u32) -> (usize, usize) {
        let node = &self.nodes[u as usize];
        (node.lo as usize * self.b, (node.hi as usize * self.b).min(self.n))
    }

    fn canonical(&self, a: u32, b: u32, u: u32, out: &mut Vec<u32>) {
        let node = &self.nodes[u as usize];
        if a <= node.lo && node.hi <= b {
            out.push(u);
            return;
        }
        if node.left == NIL {
            return;
        }
        let mid = self.nodes[node.left as usize].hi;
        if a < mid {
            self.canonical(a, b, node.left, out);
        }
        if b > mid {
            self.canonical(a, b, node.right, out);
        }
    }

    /// Takes `count` samples from node `u`'s pool, rebuilding as needed.
    fn take_from_pool<R: Rng + ?Sized>(
        &mut self,
        u: u32,
        count: usize,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) {
        let (ilo, ihi) = self.item_range(u);
        let pool_len = ihi - ilo;
        let mut remaining = count;
        while remaining > 0 {
            let needs_build = match &self.pools[u as usize] {
                None => true,
                Some((pool, cursor)) => *cursor >= pool.len(),
            };
            if needs_build {
                let pool = build_wr_pool(&self.machine, &self.keys, ilo, ihi, pool_len, rng);
                if let Some((old, _)) = self.pools[u as usize].replace((pool, 0)) {
                    old.discard();
                    self.rebuilds += 1;
                }
            }
            let (pool, cursor) = self.pools[u as usize].as_mut().expect("just ensured");
            let take = remaining.min(pool.len() - *cursor);
            pool.scan(*cursor, *cursor + take, |run| out.extend_from_slice(run));
            *cursor += take;
            remaining -= take;
        }
    }

    /// Draws `s` independent WR samples from the keys in `[x, y]`.
    /// Returns `None` when the range is empty.
    pub fn query<R: Rng + ?Sized>(
        &mut self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
    ) -> Option<Vec<f64>> {
        if y < x {
            return None;
        }
        let m = self.chunk_min.len();
        // Boundary chunks via the in-memory directory.
        let ca = self.chunk_min.partition_point(|&c| c <= x).saturating_sub(1);
        let cb = self.chunk_min.partition_point(|&c| c <= y).saturating_sub(1);

        // Read boundary chunks; collect their in-range values.
        let read_chunk = |c: usize| -> Vec<f64> {
            let lo = c * self.b;
            let hi = ((c + 1) * self.b).min(self.n);
            self.keys.read_range(lo, hi)
        };
        if ca == cb {
            let vals: Vec<f64> = read_chunk(ca).into_iter().filter(|&v| v >= x && v <= y).collect();
            if vals.is_empty() {
                return None;
            }
            return Some((0..s).map(|_| vals[rng.random_range(0..vals.len())]).collect());
        }
        let s1_vals: Vec<f64> = read_chunk(ca).into_iter().filter(|&v| v >= x && v <= y).collect();
        let s3_vals: Vec<f64> = read_chunk(cb).into_iter().filter(|&v| v >= x && v <= y).collect();
        // Middle chunk-aligned range (full chunks strictly between).
        let mid_lo = (ca + 1) as u32;
        let mid_hi = cb as u32;
        let mid_count = if mid_lo < mid_hi {
            (mid_hi as usize * self.b).min(self.n) - mid_lo as usize * self.b
        } else {
            0
        };
        let total = s1_vals.len() + mid_count + s3_vals.len();
        if total == 0 {
            return None;
        }
        debug_assert!(m >= 1);

        // Three-way multinomial split by exact counts (Figure 2's
        // q1/q2/q3 decomposition).
        let mut c1 = 0usize;
        let mut c2 = 0usize;
        let mut c3 = 0usize;
        for _ in 0..s {
            let t = rng.random_range(0..total);
            if t < s1_vals.len() {
                c1 += 1;
            } else if t < s1_vals.len() + mid_count {
                c2 += 1;
            } else {
                c3 += 1;
            }
        }
        let mut out = Vec::with_capacity(s);
        for _ in 0..c1 {
            out.push(s1_vals[rng.random_range(0..s1_vals.len())]);
        }
        for _ in 0..c3 {
            out.push(s3_vals[rng.random_range(0..s3_vals.len())]);
        }
        if c2 > 0 {
            // Canonical supernodes of the middle, split by item counts.
            let mut canon = Vec::new();
            self.canonical(mid_lo, mid_hi, self.root, &mut canon);
            let sizes: Vec<usize> = canon
                .iter()
                .map(|&u| {
                    let (lo, hi) = self.item_range(u);
                    hi - lo
                })
                .collect();
            let size_total: usize = sizes.iter().sum();
            debug_assert_eq!(size_total, mid_count);
            // Cumulative split (CPU is free in EM).
            let mut per_node = vec![0usize; canon.len()];
            for _ in 0..c2 {
                let mut t = rng.random_range(0..size_total);
                for (i, &sz) in sizes.iter().enumerate() {
                    if t < sz {
                        per_node[i] += 1;
                        break;
                    }
                    t -= sz;
                }
            }
            for (i, &u) in canon.iter().enumerate() {
                if per_node[i] > 0 {
                    self.take_from_pool(u, per_node[i], rng, &mut out);
                }
            }
        }
        Some(out)
    }
}

/// Baselines for experiment E10.
#[derive(Debug)]
pub struct NaiveEmRangeSampler {
    keys: EmArray<f64>,
    n: usize,
    b: usize,
    chunk_min: Vec<f64>,
}

impl NaiveEmRangeSampler {
    /// Stores sorted keys on the machine's disk.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn new(machine: &EmMachine, mut keys: Vec<f64>) -> Self {
        assert!(!keys.is_empty(), "range sampling over an empty set");
        keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
        let n = keys.len();
        let arr = machine.array_from(keys.clone());
        let b = arr.items_per_block();
        let m = n.div_ceil(b);
        let chunk_min: Vec<f64> = (0..m).map(|c| keys[c * b]).collect();
        NaiveEmRangeSampler { keys: arr, n, b, chunk_min }
    }

    /// Rank range `[a, b)` of keys in `[x, y]`, via directory + boundary
    /// chunk reads (`O(1)` I/Os).
    fn rank_range(&self, x: f64, y: f64) -> (usize, usize) {
        let ca = self.chunk_min.partition_point(|&c| c <= x).saturating_sub(1);
        let cb = self.chunk_min.partition_point(|&c| c <= y).saturating_sub(1);
        let chunk = |c: usize| (c * self.b, ((c + 1) * self.b).min(self.n));
        let (alo, ahi) = chunk(ca);
        let a =
            alo + self.keys.read_range(alo, ahi).iter().position(|&v| v >= x).unwrap_or(ahi - alo);
        let (blo, bhi) = chunk(cb);
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
        let naive = NaiveEmRangeSampler::new(&m, keys);
        assert!(naive.query_random_access(11.0, 19.0, 5, &mut rng).is_none());
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
