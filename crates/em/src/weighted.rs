//! **Direction 2 exploration** — weighted range sampling in external
//! memory.
//!
//! The paper (§9, Direction 2) notes that weighted range sampling
//! "remains open in EM: it is a major challenge to design a structure of
//! `O(n/B)` space and `O((log_B n + s/B) · log_{M/B}(n/B))` amortized
//! query cost". This module implements the natural generalization of the
//! WR structure — [`EmRangeSampler`](crate::EmRangeSampler)'s skeleton
//! (the crate's `chunktree` module: chunk directory, supernode hierarchy,
//! per-node pools) with a chunk's *mass* its total weight instead of its
//! item count, and every split between groups one
//! `iqs_alias::split::pick` over those masses' prefix sums — and the E15
//! experiment measures that its *amortized* I/O cost on our workloads
//! matches that target shape. This is an empirical data point, not a
//! worst-case solution of the open problem: adversarial update-free
//! weight skew can concentrate pool consumption (and hence rebuild
//! charging) on tiny sub-pools, which is exactly the difficulty the open
//! problem is about.
//!
//! Layout: `(key, weight)` pairs sorted by key in chunks of `B/2` items
//! (two words per item) plus a parallel disk-resident column of caller
//! element ids; an in-memory directory stores each chunk's minimum key
//! and total weight (`O(n/B)` words — index navigation metadata); the
//! supernodes carry lazily built pools of *weighted* `(key, id)` samples
//! from their chunk ranges. The id column lets the serving tier resolve a
//! drawn key back to the element it identifies without an extra
//! random-access lookup: ids ride along in the same sequential passes
//! that build and consume the pools.

use iqs_alias::split::{pick, split_counts, Prefix};
use rand::Rng;

use crate::chunktree::{ChunkDir, ChunkTree, Pools};
use crate::machine::{EmArray, EmMachine};
use crate::sort::external_sort;

/// One stored element: `(key, weight, id)`.
type Item = (f64, f64, u64);

/// The RNG-free half of a range query ([`EmWeightedRangeSampler::plan`]):
/// the in-range contents of the boundary chunks, read once and summed,
/// and the weights of the three pieces the draw splits `s` between. Its
/// [`RangePlan::total`] is the exact range weight.
#[derive(Debug, Clone, Default)]
pub struct RangePlan {
    /// In-range items of the first boundary chunk.
    head: Piece,
    /// Full chunks `[mid_lo, mid_hi)` strictly between the boundary
    /// chunks.
    mid_lo: usize,
    mid_hi: usize,
    /// In-range items of the last boundary chunk.
    tail: Piece,
    /// Weights of `head`, the middle (from the directory) and `tail`.
    weights: [f64; 3],
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

/// Items of one chunk and the prefix sums of their weights: a group
/// list drawn from many times.
#[derive(Debug, Clone, Default)]
struct Piece {
    items: Vec<Item>,
    prefix: Prefix<f64>,
}

impl Piece {
    /// Sums the weights of `items`, in order, into the kept prefix.
    fn fill(&mut self, items: Vec<Item>) {
        self.prefix.fill(items.iter().map(|p| p.1));
        self.items = items;
    }

    /// The items' total weight, summed left to right.
    fn weight(&self) -> f64 {
        self.prefix.sum()
    }

    /// One weighted pick, as its `(key, id)`: one RNG word.
    fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, u64) {
        let weights = self.items.iter().map(|p| p.1);
        let (key, _, id) = self.items[pick(&self.prefix, weights, self.weight(), rng)];
        (key, id)
    }
}

/// What sits on the disk and its in-memory directory: all a plan reads,
/// and all a pool is built from.
#[derive(Debug)]
struct Items {
    machine: EmMachine,
    /// `(key, weight)` pairs sorted by key.
    data: EmArray<(f64, f64)>,
    /// Caller ids, parallel to `data` (rank order when built via `new`).
    ids: EmArray<u64>,
    /// Supernodes over the chunks (`B/2` pairs each); a node's mass is
    /// its total weight.
    tree: ChunkTree<f64>,
    /// Total weight per chunk.
    chunk_weight: Vec<f64>,
}

/// Weighted WR range sampling on the EM machine (Direction 2).
#[derive(Debug)]
pub struct EmWeightedRangeSampler {
    items: Items,
    /// Per-node pool of pre-drawn weighted `(key, id)` samples + cursor.
    pools: Pools<(f64, u64)>,
}

impl Items {
    /// Reads a chunk's `(key, weight, id)` triples: one sequential run of
    /// the pair chunk plus one of the (denser) id chunk.
    fn read_chunk(&self, c: usize) -> Vec<Item> {
        let (lo, hi) = self.tree.dir.items(c, c + 1);
        let mut items: Vec<Item> =
            self.data.scan(lo, hi, |pairs| pairs.iter().map(|&(k, w)| (k, w, 0)).collect());
        self.ids.scan(lo, hi, |ids| {
            for (item, &id) in items.iter_mut().zip(ids) {
                item.2 = id;
            }
        });
        items
    }

    /// A chunk's items with keys in `[x, y]`, summed into `piece`.
    fn read_piece(&self, c: usize, x: f64, y: f64, piece: &mut Piece) {
        let mut items = self.read_chunk(c);
        items.retain(|&(k, _, _)| k >= x && k <= y);
        piece.fill(items);
    }

    /// Builds node `u`'s pool — one *weighted* `(key, id)` sample per
    /// item of its chunk range: an in-memory pass over chunk weights
    /// decides per-chunk demands; one sequential pass over the chunks
    /// draws within-chunk weighted samples; an external sort randomizes
    /// the pool order so consumption order is independent of chunk order.
    fn build_weighted_pool<R: Rng + ?Sized>(&self, u: u32, rng: &mut R) -> EmArray<(f64, u64)> {
        let (clo, chi) = self.tree.chunk_range(u);
        let (ilo, ihi) = self.tree.item_range(u);
        let count = ihi - ilo;
        // Chunk demands via the in-memory directory (CPU only). The node's
        // mass was summed in tree order, so it may differ in the last
        // place from the chunk weights' left-to-right prefix sum.
        let demand = split_counts(&self.chunk_weight[clo..chi], self.tree.mass(u), count, rng);
        // Sequential pass: per chunk, in-memory weighted draws.
        let mut staged: Vec<(u64, f64, u64)> = Vec::with_capacity(count);
        let mut piece = Piece::default();
        for (i, &d) in demand.iter().enumerate() {
            if d == 0 {
                continue;
            }
            piece.fill(self.read_chunk(clo + i));
            for _ in 0..d {
                let (key, id) = piece.pick(rng);
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

    fn plan(&self, x: f64, y: f64) -> RangePlan {
        let mut plan = RangePlan::default();
        // A NaN bound is an empty range: `boundary_chunks` would place
        // it in chunk 0, out of order with the other bound.
        if y < x || x.is_nan() || y.is_nan() {
            return plan;
        }
        let (ca, cb) = self.tree.dir.boundary_chunks(x, y);
        self.read_piece(ca, x, y, &mut plan.head);
        plan.weights[0] = plan.head.weight();
        if ca != cb {
            self.read_piece(cb, x, y, &mut plan.tail);
            plan.weights[2] = plan.tail.weight();
            plan.split = true;
            (plan.mid_lo, plan.mid_hi) = (ca + 1, cb);
            plan.weights[1] = self.chunk_weight[ca + 1..cb].iter().sum();
        }
        plan.total = plan.weights.iter().sum();
        plan
    }
}

impl EmWeightedRangeSampler {
    /// Builds the structure over `(key, weight)` pairs. Element ids are
    /// the ranks in key order (`0..n`).
    ///
    /// # Panics
    /// As [`Self::new_keyed`].
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
    /// Panics on empty input, a non-finite key, a weight that is not
    /// finite and positive, or weights whose sum is not finite (a total
    /// of `inf` would send every draw to the last item).
    pub fn new_keyed(machine: &EmMachine, mut triples: Vec<(u64, f64, f64)>) -> Self {
        assert!(!triples.is_empty(), "weighted range sampling over an empty set");
        assert!(
            triples.iter().all(|&(_, k, w)| k.is_finite() && w.is_finite() && w > 0.0),
            "invalid key/weight"
        );
        triples.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite keys"));
        let pairs: Vec<(f64, f64)> = triples.iter().map(|&(_, k, w)| (k, w)).collect();
        let ids: Vec<u64> = triples.iter().map(|&(id, _, _)| id).collect();
        let data = machine.array_from(pairs.clone());
        let ids = machine.array_from(ids);
        let dir = ChunkDir::new(pairs.len(), data.items_per_block(), |i| pairs[i].0);
        let chunk_weight: Vec<f64> =
            pairs.chunks(dir.chunk_len()).map(|c| c.iter().map(|p| p.1).sum()).collect();
        let tree = ChunkTree::new(dir, &chunk_weight);
        assert!(tree.total().is_finite(), "total weight overflows");
        let pools = Pools::new(tree.node_count());
        let items = Items { machine: machine.clone(), data, ids, tree, chunk_weight };
        EmWeightedRangeSampler { items, pools }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.tree.dir.len()
    }

    /// True when empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pool rebuild count.
    pub fn rebuilds(&self) -> u64 {
        self.pools.rebuilds()
    }

    /// Total weight of the whole set (from the in-memory directory — free).
    pub fn total_weight(&self) -> f64 {
        self.items.tree.total()
    }

    /// Retires the structure: drops every block it holds — the pair and
    /// id arrays plus all lazily built per-node pools — from the
    /// machine's buffer pool without counting write-backs. A tiered
    /// backend calls this when a shard leaves the cold tier so its
    /// frames stop competing with live structures for cache capacity.
    /// Takes `&mut self` so an owner can retire it from `Drop`; a query
    /// after this would fault its blocks back in and redraw its pools.
    pub fn discard(&mut self) {
        self.items.data.drop_blocks();
        self.items.ids.drop_blocks();
        self.pools.discard();
    }

    /// Plans a query over the keys in `[x, y]` without consuming any
    /// randomness: reads each boundary chunk once (`O(1)` I/Os) and takes
    /// the interior chunks' weight from the in-memory directory.
    pub fn plan(&self, x: f64, y: f64) -> RangePlan {
        self.items.plan(x, y)
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
        let mut pick_from = |piece: &Piece, count: usize, rng: &mut R| {
            out.extend((0..count).map(|_| {
                let (key, id) = piece.pick(rng);
                emit(key, id)
            }));
        };
        if !plan.split {
            pick_from(&plan.head, s, rng);
            return Some(s);
        }
        let counts = split_counts(&plan.weights, plan.total, s, rng);
        pick_from(&plan.head, counts[0], rng);
        pick_from(&plan.tail, counts[2], rng);
        let mid = self.items.tree.split_over_canonical(plan.mid_lo, plan.mid_hi, counts[1], rng);
        for (u, count) in mid {
            self.pools.take_from_pool(
                u,
                count,
                || self.items.build_weighted_pool(u, rng),
                |run| out.extend(run.iter().map(|&(key, id)| emit(key, id))),
            );
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
        self.draw(&self.plan(x, y), s, rng, &mut out, |key, _| key)?;
        Some(out)
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
        if y < x || x.is_nan() || y.is_nan() {
            return 0;
        }
        let dir = &self.items.tree.dir;
        let (ca, cb) = dir.boundary_chunks(x, y);
        let in_range = |c: usize| {
            let (lo, hi) = dir.items(c, c + 1);
            self.items.data.read_range(lo, hi).iter().filter(|&&(k, _)| k >= x && k <= y).count()
        };
        if ca == cb {
            return in_range(ca);
        }
        // Interior chunks hold exactly `b` items each: only the final
        // chunk of the array can be short, and it is `cb` or beyond.
        in_range(ca) + (cb - ca - 1) * dir.chunk_len() + in_range(cb)
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
        assert!(s.query(500.0, f64::NAN, 3, &mut rng).is_none());
        assert!(s.query(f64::NAN, 500.0, 3, &mut rng).is_none());
        let out = s.query(0.0, 50.0, 10, &mut rng).unwrap();
        assert!(out.iter().all(|&v| (0.0..=50.0).contains(&v)));
    }

    #[test]
    fn ids_name_the_sampled_elements() {
        // Ids deliberately unrelated to key order: id = 9000 - key.
        let triples: Vec<(u64, f64, f64)> =
            (0..1024).map(|i| (9000 - i as u64, i as f64, 1.0 + (i % 2) as f64)).collect();
        // Twin structures under one seed replay one draw sequence, so the
        // keys of one and the ids of the other name the same elements.
        let mut by_key =
            EmWeightedRangeSampler::new_keyed(&EmMachine::new(64 * 16, 64), triples.clone());
        let mut by_id = EmWeightedRangeSampler::new_keyed(&EmMachine::new(64 * 16, 64), triples);
        let mut rng_key = StdRng::seed_from_u64(173);
        let mut rng_id = StdRng::seed_from_u64(173);
        for _ in 0..3 {
            let keys = by_key.query(10.0, 900.0, 500, &mut rng_key).unwrap();
            let mut ids = Vec::new();
            assert_eq!(by_id.query_ids_into(10.0, 900.0, 500, &mut rng_id, &mut ids), Some(500));
            for (&k, &id) in keys.iter().zip(&ids) {
                assert!((10.0..=900.0).contains(&k));
                assert_eq!(id, 9000 - k as u64, "id column must track its key");
            }
        }
    }

    #[test]
    #[should_panic(expected = "total weight overflows")]
    fn a_weight_sum_that_overflows_is_refused() {
        // Each weight is valid; their sum is `inf`, under which every
        // draw would land on the last item.
        EmWeightedRangeSampler::new(&EmMachine::new(64 * 8, 64), vec![(0.0, 1e308), (1.0, 1e308)]);
    }

    #[test]
    fn range_weight_and_count_are_exact() {
        let machine = EmMachine::new(64 * 8, 64);
        let pairs: Vec<(f64, f64)> = (0..2000).map(|i| (i as f64, 1.0 + (i % 5) as f64)).collect();
        let s = EmWeightedRangeSampler::new(&machine, pairs.clone());
        let nan = f64::NAN;
        for (x, y) in [
            (0.0, 1999.0),
            (13.0, 1987.0),
            (100.0, 100.0),
            (55.5, 56.5),
            (7.0, 3.0),
            (500.0, nan),
            (nan, 1500.0),
            (nan, nan),
        ] {
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
