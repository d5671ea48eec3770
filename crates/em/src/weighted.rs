//! **Direction 2 exploration** — weighted range sampling in external
//! memory.
//!
//! The paper (§9, Direction 2) notes that weighted range sampling
//! "remains open in EM: it is a major challenge to design a structure of
//! `O(n/B)` space and `O((log_B n + s/B) · log_{M/B}(n/B))` amortized
//! query cost". This module implements the natural generalization of the
//! WR structure — weighted per-supernode pools built with sorting and an
//! in-memory chunk-weight directory — and the E15 experiment measures
//! that its *amortized* I/O cost on our workloads matches that target
//! shape. This is an empirical data point, not a worst-case solution of
//! the open problem: adversarial update-free weight skew can concentrate
//! pool consumption (and hence rebuild charging) on tiny sub-pools, which
//! is exactly the difficulty the open problem is about.
//!
//! Layout: `(key, weight)` pairs sorted by key in chunks of `B/2` items
//! (two words per item) plus a parallel disk-resident column of caller
//! element ids; an in-memory directory stores each chunk's minimum key
//! and total weight (`O(n/B)` words — index navigation metadata); a
//! binary supernode hierarchy over chunks carries lazily built pools of
//! *weighted* `(key, id)` samples from its chunk range. The id column
//! lets the serving tier resolve a drawn key back to the element it
//! identifies without an extra random-access lookup: ids ride along in
//! the same sequential passes that build and consume the pools.

use rand::Rng;

use crate::machine::{EmArray, EmMachine};
use crate::sort::external_sort;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct WNode {
    left: u32,
    right: u32,
    /// Chunk range `[lo, hi)`.
    lo: u32,
    hi: u32,
    /// Total weight of the chunk range.
    weight: f64,
}

/// A node's pre-drawn `(key, id)` sample pool and its consumption cursor.
type NodePool = Option<(EmArray<(f64, u64)>, usize)>;

/// One stored element: `(key, weight, id)`.
type Item = (f64, f64, u64);

/// The RNG-free half of a range query ([`EmWeightedRangeSampler::plan`]):
/// the in-range contents of the boundary chunks, read once, and the
/// weights of the three pieces the draw splits `s` between. Its
/// [`RangePlan::total`] is the exact range weight.
#[derive(Debug, Clone, Default)]
pub struct RangePlan {
    /// In-range items of the first boundary chunk, and their weight.
    head: Vec<Item>,
    w1: f64,
    /// Full chunks `[mid_lo, mid_hi)` strictly between the boundary
    /// chunks, and their directory weight.
    mid_lo: u32,
    mid_hi: u32,
    w2: f64,
    /// In-range items of the last boundary chunk, and their weight.
    tail: Vec<Item>,
    w3: f64,
    /// The range spans more than one chunk, so the draw flips split
    /// coins; inside one chunk (`head` alone) it flips none.
    split: bool,
    total: f64,
}

impl RangePlan {
    /// Exact total weight of the keys in the planned range (`0.0` when
    /// it holds none).
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// One weighted pick from a boundary piece whose weights sum to `total`.
fn weighted_pick<R: Rng + ?Sized>(items: &[Item], total: f64, rng: &mut R) -> (f64, u64) {
    let mut t = rng.random::<f64>() * total;
    for &(k, w, id) in items {
        if t < w {
            return (k, id);
        }
        t -= w;
    }
    let last = items[items.len() - 1];
    (last.0, last.2)
}

/// Weighted WR range sampling on the EM machine (Direction 2).
#[derive(Debug)]
pub struct EmWeightedRangeSampler {
    machine: EmMachine,
    /// `(key, weight)` pairs sorted by key.
    data: EmArray<(f64, f64)>,
    /// Caller ids, parallel to `data` (rank order when built via `new`).
    ids: EmArray<u64>,
    n: usize,
    /// Items per chunk (`B/2` for 16-byte pairs).
    b: usize,
    /// In-memory directory: first key and total weight per chunk.
    chunk_min: Vec<f64>,
    chunk_weight: Vec<f64>,
    nodes: Vec<WNode>,
    root: u32,
    /// Per-node pool of pre-drawn weighted `(key, id)` samples + cursor.
    pools: Vec<NodePool>,
    rebuilds: u64,
}

impl EmWeightedRangeSampler {
    /// Builds the structure over `(key, weight)` pairs. Element ids are
    /// the ranks in key order (`0..n`).
    ///
    /// # Panics
    /// Panics on empty input or non-finite keys / non-positive weights.
    pub fn new(machine: &EmMachine, pairs: Vec<(f64, f64)>) -> Self {
        let triples: Vec<(u64, f64, f64)> =
            pairs.into_iter().enumerate().map(|(i, (k, w))| (i as u64, k, w)).collect();
        Self::new_keyed(machine, triples)
    }

    /// Builds the structure over `(id, key, weight)` triples, preserving
    /// the caller's element ids so drawn samples can name the elements
    /// they came from (the serving tier's id space).
    ///
    /// # Panics
    /// Panics on empty input or non-finite keys / non-positive weights.
    pub fn new_keyed(machine: &EmMachine, mut triples: Vec<(u64, f64, f64)>) -> Self {
        assert!(!triples.is_empty(), "weighted range sampling over an empty set");
        assert!(
            triples.iter().all(|&(_, k, w)| k.is_finite() && w.is_finite() && w > 0.0),
            "invalid key/weight"
        );
        triples.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite keys"));
        let n = triples.len();
        let pairs: Vec<(f64, f64)> = triples.iter().map(|&(_, k, w)| (k, w)).collect();
        let ids: Vec<u64> = triples.iter().map(|&(id, _, _)| id).collect();
        let arr = machine.array_from(pairs.clone());
        let ids = machine.array_from(ids);
        let b = arr.items_per_block();
        let m = n.div_ceil(b);
        let chunk_min: Vec<f64> = (0..m).map(|c| pairs[c * b].0).collect();
        let chunk_weight: Vec<f64> =
            (0..m).map(|c| pairs[c * b..((c + 1) * b).min(n)].iter().map(|p| p.1).sum()).collect();
        let mut nodes = Vec::with_capacity(2 * m);
        let root = Self::build(&mut nodes, &chunk_weight, 0, m as u32);
        let pools = (0..nodes.len()).map(|_| None).collect();
        EmWeightedRangeSampler {
            machine: machine.clone(),
            data: arr,
            ids,
            n,
            b,
            chunk_min,
            chunk_weight,
            nodes,
            root,
            pools,
            rebuilds: 0,
        }
    }

    fn build(nodes: &mut Vec<WNode>, cw: &[f64], lo: u32, hi: u32) -> u32 {
        if hi - lo == 1 {
            nodes.push(WNode { left: NIL, right: NIL, lo, hi, weight: cw[lo as usize] });
            return (nodes.len() - 1) as u32;
        }
        let mid = lo + (hi - lo) / 2;
        let left = Self::build(nodes, cw, lo, mid);
        let right = Self::build(nodes, cw, mid, hi);
        let weight = nodes[left as usize].weight + nodes[right as usize].weight;
        nodes.push(WNode { left, right, lo, hi, weight });
        (nodes.len() - 1) as u32
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Pool rebuild count.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Total weight of the whole set (from the in-memory directory — free).
    pub fn total_weight(&self) -> f64 {
        self.nodes[self.root as usize].weight
    }

    /// Retires the structure: drops every block it holds — the pair and
    /// id arrays plus all lazily built per-node pools — from the
    /// machine's buffer pool without counting write-backs. A tiered
    /// backend calls this when a shard leaves the cold tier so its
    /// frames stop competing with live structures for cache capacity.
    /// Takes `&mut self` so an owner can retire it from `Drop`; a query
    /// after this would fault its blocks back in and redraw its pools.
    pub fn discard(&mut self) {
        self.data.drop_blocks();
        self.ids.drop_blocks();
        for (pool, _) in self.pools.iter_mut().filter_map(Option::take) {
            pool.discard();
        }
    }

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

    /// Reads a chunk's `(key, weight, id)` triples: one sequential run of
    /// the pair chunk plus one of the (denser) id chunk.
    fn read_chunk(&self, c: usize) -> Vec<Item> {
        let lo = c * self.b;
        let hi = ((c + 1) * self.b).min(self.n);
        let mut items: Vec<Item> =
            self.data.scan(lo, hi, |pairs| pairs.iter().map(|&(k, w)| (k, w, 0)).collect());
        self.ids.scan(lo, hi, |ids| {
            for (item, &id) in items.iter_mut().zip(ids) {
                item.2 = id;
            }
        });
        items
    }

    /// A chunk's items with keys in `[x, y]`, and their total weight.
    fn read_piece(&self, c: usize, x: f64, y: f64) -> (Vec<Item>, f64) {
        let mut items = self.read_chunk(c);
        items.retain(|&(k, _, _)| k >= x && k <= y);
        let weight = items.iter().map(|p| p.1).sum();
        (items, weight)
    }

    /// Builds a pool of `count` *weighted* `(key, id)` samples from node
    /// `u`'s chunk range: an in-memory pass over chunk weights decides
    /// per-chunk demands; one sequential pass over the chunks draws
    /// within-chunk weighted samples; an external sort randomizes the pool
    /// order so consumption order is independent of chunk order.
    fn build_weighted_pool<R: Rng + ?Sized>(
        &self,
        u: u32,
        count: usize,
        rng: &mut R,
    ) -> EmArray<(f64, u64)> {
        let node = &self.nodes[u as usize];
        let (clo, chi) = (node.lo as usize, node.hi as usize);
        // Chunk demands via the in-memory directory (CPU only).
        let mut demand = vec![0usize; chi - clo];
        for _ in 0..count {
            let mut t = rng.random::<f64>() * node.weight;
            let mut chosen = chi - clo - 1;
            for (i, &w) in self.chunk_weight[clo..chi].iter().enumerate() {
                if t < w {
                    chosen = i;
                    break;
                }
                t -= w;
            }
            demand[chosen] += 1;
        }
        // Sequential pass: per chunk, in-memory weighted draws.
        let mut staged: Vec<(u64, f64, u64)> = Vec::with_capacity(count);
        for (i, &d) in demand.iter().enumerate() {
            if d == 0 {
                continue;
            }
            let items = self.read_chunk(clo + i);
            let total: f64 = items.iter().map(|p| p.1).sum();
            for _ in 0..d {
                let mut t = rng.random::<f64>() * total;
                let mut picked = items.len() - 1;
                for (j, &(_, w, _)) in items.iter().enumerate() {
                    if t < w {
                        picked = j;
                        break;
                    }
                    t -= w;
                }
                let (key, _, id) = items[picked];
                staged.push((rng.random::<u64>(), key, id)); // random sort key
            }
        }
        debug_assert_eq!(staged.len(), count);
        let staged_arr = self.machine.array_from(staged);
        // The sequential write pass, then randomize consumption order.
        staged_arr.mark_written(0, count);
        let shuffled = external_sort(&self.machine, staged_arr, |p| p.0);
        let pool = self.machine.array_from(vec![(0.0f64, 0u64); count]);
        shuffled.emit_into(&pool, |(_, key, id)| (key, id));
        shuffled.discard();
        pool
    }

    fn take_from_pool<R: Rng + ?Sized, O>(
        &mut self,
        u: u32,
        count: usize,
        rng: &mut R,
        out: &mut Vec<O>,
        emit: &impl Fn(f64, u64) -> O,
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
                let pool = self.build_weighted_pool(u, pool_len, rng);
                if let Some((old, _)) = self.pools[u as usize].replace((pool, 0)) {
                    old.discard();
                    self.rebuilds += 1;
                }
            }
            let (pool, cursor) = self.pools[u as usize].as_mut().expect("just ensured");
            let take = remaining.min(pool.len() - *cursor);
            pool.scan(*cursor, *cursor + take, |run| {
                out.extend(run.iter().map(|&(key, id)| emit(key, id)));
            });
            *cursor += take;
            remaining -= take;
        }
    }

    /// Chunk indices of the boundary chunks covering `x` and `y`.
    fn boundary_chunks(&self, x: f64, y: f64) -> (usize, usize) {
        let ca = self.chunk_min.partition_point(|&c| c <= x).saturating_sub(1);
        let cb = self.chunk_min.partition_point(|&c| c <= y).saturating_sub(1);
        (ca, cb)
    }

    /// Plans a query over the keys in `[x, y]` without consuming any
    /// randomness: reads each boundary chunk once (`O(1)` I/Os) and takes
    /// the interior chunks' weight from the in-memory directory.
    pub fn plan(&self, x: f64, y: f64) -> RangePlan {
        let mut plan = RangePlan::default();
        if y < x {
            return plan;
        }
        let (ca, cb) = self.boundary_chunks(x, y);
        (plan.head, plan.w1) = self.read_piece(ca, x, y);
        if ca == cb {
            plan.total = plan.w1;
            return plan;
        }
        (plan.tail, plan.w3) = self.read_piece(cb, x, y);
        plan.split = true;
        (plan.mid_lo, plan.mid_hi) = ((ca + 1) as u32, cb as u32);
        plan.w2 = self.chunk_weight[ca + 1..cb].iter().sum();
        plan.total = plan.w1 + plan.w2 + plan.w3;
        plan
    }

    /// The draw half of a query: appends `s` independent weighted samples
    /// from the planned range to `out`, each mapped through `emit`.
    /// Returns the number appended (always `s`), or `None` when the
    /// planned range is empty. All public query variants end here, so
    /// they share one RNG draw sequence.
    fn draw<R: Rng + ?Sized, O>(
        &mut self,
        plan: &RangePlan,
        s: usize,
        rng: &mut R,
        out: &mut Vec<O>,
        emit: impl Fn(f64, u64) -> O,
    ) -> Option<usize> {
        if plan.total <= 0.0 {
            return None;
        }
        let mut pick = |items: &[Item], total: f64, rng: &mut R| {
            let (key, id) = weighted_pick(items, total, rng);
            out.push(emit(key, id));
        };
        if !plan.split {
            for _ in 0..s {
                pick(&plan.head, plan.w1, rng);
            }
            return Some(s);
        }
        let (mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize);
        for _ in 0..s {
            let t = rng.random::<f64>() * plan.total;
            if t < plan.w1 {
                c1 += 1;
            } else if t < plan.w1 + plan.w2 {
                c2 += 1;
            } else {
                c3 += 1;
            }
        }
        for _ in 0..c1 {
            pick(&plan.head, plan.w1, rng);
        }
        for _ in 0..c3 {
            pick(&plan.tail, plan.w3, rng);
        }
        if c2 > 0 {
            let mut canon = Vec::new();
            self.canonical(plan.mid_lo, plan.mid_hi, self.root, &mut canon);
            let weights: Vec<f64> = canon.iter().map(|&u| self.nodes[u as usize].weight).collect();
            let wt: f64 = weights.iter().sum();
            let mut per_node = vec![0usize; canon.len()];
            for _ in 0..c2 {
                let mut t = rng.random::<f64>() * wt;
                let mut chosen = canon.len() - 1;
                for (i, &w) in weights.iter().enumerate() {
                    if t < w {
                        chosen = i;
                        break;
                    }
                    t -= w;
                }
                per_node[chosen] += 1;
            }
            for (i, &u) in canon.iter().enumerate() {
                if per_node[i] > 0 {
                    self.take_from_pool(u, per_node[i], rng, out, &emit);
                }
            }
        }
        Some(s)
    }

    /// [`Self::query_ids_into`] over a range already planned with
    /// [`Self::plan`] on a structure holding the same elements.
    pub fn draw_ids_into<R: Rng + ?Sized>(
        &mut self,
        plan: &RangePlan,
        s: usize,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) -> Option<usize> {
        self.draw(plan, s, rng, out, |_, id| id)
    }

    /// Appends `s` independent weighted `(key, id)` samples from keys in
    /// `[x, y]` to `out`. Returns the number appended (always `s`), or
    /// `None` on an empty range.
    pub fn query_pairs_into<R: Rng + ?Sized>(
        &mut self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
        out: &mut Vec<(f64, u64)>,
    ) -> Option<usize> {
        self.draw(&self.plan(x, y), s, rng, out, |key, id| (key, id))
    }

    /// Draws `s` independent *weighted* samples (key values) from the
    /// keys in `[x, y]`. Returns `None` on an empty range.
    pub fn query<R: Rng + ?Sized>(
        &mut self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
    ) -> Option<Vec<f64>> {
        let mut out = Vec::with_capacity(s);
        self.query_into(x, y, s, rng, &mut out)?;
        Some(out)
    }

    /// [`Self::query`] into a caller-owned buffer (appended, not cleared),
    /// the workspace's allocation-free batch convention. Returns the
    /// number of samples appended.
    pub fn query_into<R: Rng + ?Sized>(
        &mut self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
        out: &mut Vec<f64>,
    ) -> Option<usize> {
        self.draw(&self.plan(x, y), s, rng, out, |key, _| key)
    }

    /// Draws `s` independent weighted samples from `[x, y]`, appending the
    /// sampled elements' *ids* to `out`. Returns the number appended, or
    /// `None` on an empty range. This is the form the serving tier
    /// consumes: responses carry element ids, not key values.
    pub fn query_ids_into<R: Rng + ?Sized>(
        &mut self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) -> Option<usize> {
        self.draw_ids_into(&self.plan(x, y), s, rng, out)
    }

    /// Exact total weight of keys in `[x, y]`: the two boundary chunks are
    /// scanned (O(1) chunk I/Os), interior chunks come from the in-memory
    /// directory.
    pub fn range_weight(&self, x: f64, y: f64) -> f64 {
        self.plan(x, y).total
    }

    /// Exact number of keys in `[x, y]`, at the same O(1) chunk I/O cost
    /// as [`Self::range_weight`] (interior chunks are full by layout).
    pub fn range_count(&self, x: f64, y: f64) -> usize {
        if y < x {
            return 0;
        }
        let (ca, cb) = self.boundary_chunks(x, y);
        let in_range = |&(k, _): &(f64, f64)| k >= x && k <= y;
        let chunk_items = |c: usize| {
            let lo = c * self.b;
            let hi = ((c + 1) * self.b).min(self.n);
            self.data.read_range(lo, hi)
        };
        if ca == cb {
            return chunk_items(ca).iter().filter(|t| in_range(t)).count();
        }
        let n1 = chunk_items(ca).iter().filter(|t| in_range(t)).count();
        let n3 = chunk_items(cb).iter().filter(|t| in_range(t)).count();
        // Interior chunks hold exactly `b` items each: only the final
        // chunk of the array can be short, and it is `cb` or beyond.
        n1 + (cb - ca - 1) * self.b + n3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weighted_distribution_is_respected() {
        let machine = EmMachine::new(64 * 16, 64);
        let mut rng = StdRng::seed_from_u64(170);
        let n = 2048usize;
        // Weight of key i is 1 + (i mod 4).
        let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 4) as f64)).collect();
        let mut s = EmWeightedRangeSampler::new(&machine, pairs.clone());
        let (x, y) = (200.0, 1800.0);
        let inside: Vec<&(f64, f64)> =
            pairs.iter().filter(|&&(k, _)| (x..=y).contains(&k)).collect();
        let total: f64 = inside.iter().map(|p| p.1).sum();
        let mut counts = vec![0u64; n];
        let draws = 120_000usize;
        let mut drawn = 0;
        while drawn < draws {
            for v in s.query(x, y, 2000, &mut rng).unwrap() {
                assert!((x..=y).contains(&v));
                counts[v as usize] += 1;
            }
            drawn += 2000;
        }
        // Aggregate per weight class: class w should get w/total share.
        for class in 1..=4usize {
            let got: u64 = (0..n)
                .filter(|&i| (x..=y).contains(&(i as f64)) && 1 + i % 4 == class)
                .map(|i| counts[i])
                .sum();
            let want: f64 = inside
                .iter()
                .filter(|&&&(k, _)| 1 + (k as usize) % 4 == class)
                .map(|p| p.1)
                .sum::<f64>()
                / total;
            let p = got as f64 / draws as f64;
            assert!((p - want).abs() < 0.01, "class {class}: {p} vs {want}");
        }
    }

    #[test]
    fn io_cost_beats_random_access_shape() {
        let b = 64usize;
        let machine = EmMachine::new(32 * b, b);
        let mut rng = StdRng::seed_from_u64(171);
        let n = 16 * 1024usize;
        let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 3) as f64)).collect();
        let mut s = EmWeightedRangeSampler::new(&machine, pairs);
        let (x, y) = (500.0, 15_000.0);
        s.query(x, y, 512, &mut rng); // warm pools
        machine.reset_stats();
        let big_s = 4096usize;
        for _ in 0..4 {
            s.query(x, y, big_s, &mut rng).unwrap();
        }
        let per_sample = machine.stats().total() as f64 / (4.0 * big_s as f64);
        // Target shape: ~(1/B)·log factors ≪ 1 I/O per sample.
        assert!(per_sample < 0.5, "weighted EM per-sample I/O {per_sample}");
    }

    #[test]
    fn empty_and_single_chunk() {
        let machine = EmMachine::new(64 * 8, 64);
        let mut rng = StdRng::seed_from_u64(172);
        let pairs: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 10.0, 1.0)).collect();
        let mut s = EmWeightedRangeSampler::new(&machine, pairs);
        assert!(s.query(11.0, 19.0, 3, &mut rng).is_none());
        assert!(s.query(50.0, 40.0, 3, &mut rng).is_none());
        let out = s.query(0.0, 50.0, 10, &mut rng).unwrap();
        assert!(out.iter().all(|&v| (0.0..=50.0).contains(&v)));
    }

    #[test]
    fn ids_name_the_sampled_elements() {
        let machine = EmMachine::new(64 * 16, 64);
        let mut rng = StdRng::seed_from_u64(173);
        // Ids deliberately unrelated to key order: id = 9000 - key.
        let triples: Vec<(u64, f64, f64)> =
            (0..1024).map(|i| (9000 - i as u64, i as f64, 1.0 + (i % 2) as f64)).collect();
        let mut s = EmWeightedRangeSampler::new_keyed(&machine, triples);
        let mut keys = Vec::new();
        let mut pairs = Vec::new();
        s.query_pairs_into(10.0, 900.0, 500, &mut rng, &mut pairs).unwrap();
        for &(k, id) in &pairs {
            assert!((10.0..=900.0).contains(&k));
            assert_eq!(id, 9000 - k as u64, "id column must track its key");
            keys.push(k);
        }
        // query_ids_into under the same seed replays the same draw
        // sequence, so it must name exactly the same elements.
        let mut rng = StdRng::seed_from_u64(173);
        let mut ids = Vec::new();
        s.query_ids_into(10.0, 900.0, 500, &mut rng, &mut ids);
        // (Pools differ in cursor position, so only check the invariant.)
        assert!(ids.iter().all(|&id| (9000 - 900..=9000 - 10).contains(&id)));
    }

    #[test]
    fn query_into_appends_without_clearing() {
        let machine = EmMachine::new(64 * 8, 64);
        let mut rng = StdRng::seed_from_u64(174);
        let pairs: Vec<(f64, f64)> = (0..512).map(|i| (i as f64, 1.0)).collect();
        let mut s = EmWeightedRangeSampler::new(&machine, pairs);
        let mut out = vec![-1.0f64];
        let appended = s.query_into(0.0, 511.0, 20, &mut rng, &mut out).unwrap();
        assert_eq!(appended, 20);
        assert_eq!(out.len(), 21);
        assert_eq!(out[0], -1.0, "existing contents untouched");
        assert!(s.query_into(40.0, 30.0, 5, &mut rng, &mut out).is_none());
        assert_eq!(out.len(), 21, "failed query appends nothing");
    }

    #[test]
    fn range_weight_and_count_are_exact() {
        let machine = EmMachine::new(64 * 8, 64);
        let pairs: Vec<(f64, f64)> = (0..2000).map(|i| (i as f64, 1.0 + (i % 5) as f64)).collect();
        let s = EmWeightedRangeSampler::new(&machine, pairs.clone());
        for (x, y) in [(0.0, 1999.0), (13.0, 1987.0), (100.0, 100.0), (55.5, 56.5), (7.0, 3.0)] {
            let want_w: f64 = pairs.iter().filter(|&&(k, _)| k >= x && k <= y).map(|p| p.1).sum();
            let want_n = pairs.iter().filter(|&&(k, _)| k >= x && k <= y).count();
            assert!((s.range_weight(x, y) - want_w).abs() < 1e-9, "weight [{x},{y}]");
            assert_eq!(s.range_count(x, y), want_n, "count [{x},{y}]");
        }
        assert!((s.total_weight() - pairs.iter().map(|p| p.1).sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn plan_is_the_range_weight_and_draw_replays_the_query() {
        let pairs: Vec<(f64, f64)> = (0..2000).map(|i| (i as f64, 1.0 + (i % 5) as f64)).collect();
        let machine = EmMachine::new(64 * 8, 64);
        let mut planned = EmWeightedRangeSampler::new(&machine, pairs.clone());
        let twin_machine = EmMachine::new(64 * 8, 64);
        let mut queried = EmWeightedRangeSampler::new(&twin_machine, pairs);
        let mut rng_planned = StdRng::seed_from_u64(175);
        let mut rng_queried = StdRng::seed_from_u64(175);
        // The ranges of `range_weight_and_count_are_exact`, with the
        // number of boundary chunks each one reads.
        for (x, y, chunks) in
            [(0.0, 1999.0, 2), (13.0, 1987.0, 2), (100.0, 100.0, 1), (55.5, 56.5, 1), (7.0, 3.0, 0)]
        {
            machine.reset_stats();
            let plan = planned.plan(x, y);
            // A chunk is one pair block and half an id block, each
            // touched once.
            let stats = machine.stats();
            assert_eq!(stats.hits + stats.misses, 2 * chunks, "plan touches at [{x},{y}]");
            assert_eq!(plan.total().to_bits(), planned.range_weight(x, y).to_bits(), "[{x},{y}]");
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let drew = planned.draw_ids_into(&plan, 300, &mut rng_planned, &mut got);
            assert_eq!(drew, queried.query_ids_into(x, y, 300, &mut rng_queried, &mut want));
            assert_eq!(got, want, "plan + draw diverged from the one-call query at [{x},{y}]");
        }
    }

    #[test]
    fn range_stats_cost_constant_chunk_ios() {
        let b = 64usize;
        let machine = EmMachine::new(16 * b, b);
        let n = 32 * 1024usize;
        let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0)).collect();
        let s = EmWeightedRangeSampler::new(&machine, pairs);
        machine.flush();
        machine.reset_stats();
        let w = s.range_weight(100.0, 30_000.0);
        let c = s.range_count(100.0, 30_000.0);
        assert!(w > 0.0 && c > 0);
        // Two boundary chunks (pairs + ids) per call, not O(n/B).
        assert!(machine.stats().reads <= 12, "reads {}", machine.stats().reads);
    }
}
