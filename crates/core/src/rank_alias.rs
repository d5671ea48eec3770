//! The alias-augmentation engine of Lemma 2 (Section 4.1), factored over
//! rank space so both the element-level structure and Theorem 3's
//! chunk-level structure (`T_chunk`) can share it.

use iqs_alias::space::{vec_words, SpaceUsage};
use iqs_alias::{AliasRows, AliasTable, BlockRng64};
use iqs_tree::{NodeId, RankBst};
use rand::{Rng, RngCore};

/// A balanced tree over `n` weighted rank slots where **every node stores
/// an alias table over its subtree's slots** (Section 4.1). Space
/// `O(n log n)`; a query over rank range `[a, b)` draws `s` weighted
/// samples in `O(log n + s)`:
///
/// 1. find the `O(log n)` canonical nodes;
/// 2. build an alias table over their weights on the fly (`O(log n)`);
/// 3. draw `s` canonical-node choices (`O(s)`), then resolve each through
///    the chosen node's stored alias table (`O(1)` each).
///
/// The node tables live in one level-ordered arena, not one allocation
/// each: the nodes of one depth cover disjoint slot ranges, so the table
/// of the node over slots `[lo, hi)` at depth `d` is rows
/// `d·n + lo .. d·n + hi` of `prob`/`alias` (`(height + 1)·n` rows; the
/// few rows under a leaf that ends above the deepest level stay zero).
/// Each table is what [`AliasTable::new`] would build for the same
/// weights, entry for entry.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone)]
pub struct RankAliasAugmented {
    tree: RankBst,
    /// First arena row of each node's table, by node id.
    at: Vec<usize>,
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl RankAliasAugmented {
    /// Builds the structure in `O(n log n)` time and space.
    ///
    /// # Panics
    /// Panics on empty or non-positive weights (caller validates input).
    pub fn new(weights: &[f64]) -> Self {
        let tree = RankBst::new(weights).expect("non-empty weights");
        let n = tree.len();
        let mut at = vec![0; tree.node_count()];
        let mut below = vec![(tree.root(), 0)];
        while let Some((u, depth)) = below.pop() {
            at[u as usize] = depth * n + tree.leaf_range(u).0;
            if !tree.is_leaf(u) {
                let (l, r) = tree.children(u);
                below.extend([(l, depth + 1), (r, depth + 1)]);
            }
        }
        let rows = (tree.height() as usize + 1) * n;
        let mut this = RankAliasAugmented { tree, at, prob: vec![0.0; rows], alias: vec![0; rows] };
        let mut work = Vec::new();
        for u in 0..this.tree.node_count() as NodeId {
            this.build_node(u, weights, &mut work);
        }
        this
    }

    /// The structure over `weights`, given that it differs from `self`'s
    /// weights at the slots `touched` only (ascending, distinct; same
    /// slot count). Copies the arena, rebuilds the node weights in full
    /// and the tables of the nodes whose slot range holds a touched slot
    /// — the root-to-leaf paths — so every array equals what
    /// [`Self::new`] builds for `weights`. `recycle` donates its buffers
    /// to the copy.
    pub(crate) fn reweighted(
        &self,
        weights: &[f64],
        touched: &[usize],
        recycle: Option<Self>,
    ) -> Self {
        let (mut at, mut prob, mut alias) =
            recycle.map_or_else(Default::default, |old| (old.at, old.prob, old.alias));
        at.clone_from(&self.at);
        prob.clone_from(&self.prob);
        alias.clone_from(&self.alias);
        let tree = RankBst::new(weights).expect("non-empty weights");
        let mut next = RankAliasAugmented { tree, at, prob, alias };
        next.rebuild_paths(next.tree.root(), weights, touched, &mut Vec::new());
        next
    }

    fn rebuild_paths(
        &mut self,
        u: NodeId,
        weights: &[f64],
        touched: &[usize],
        work: &mut Vec<u32>,
    ) {
        if touched.is_empty() {
            return;
        }
        self.build_node(u, weights, work);
        if !self.tree.is_leaf(u) {
            let (l, r) = self.tree.children(u);
            let cut = touched.partition_point(|&slot| slot < self.tree.leaf_range(r).0);
            self.rebuild_paths(l, weights, &touched[..cut], work);
            self.rebuild_paths(r, weights, &touched[cut..], work);
        }
    }

    /// The arena rows of node `u`'s table.
    fn rows_of(&self, u: NodeId) -> std::ops::Range<usize> {
        let at = self.at[u as usize];
        at..at + self.tree.node_count_leaves(u)
    }

    /// Builds node `u`'s table over its slots' weights into its arena rows.
    fn build_node(&mut self, u: NodeId, weights: &[f64], work: &mut Vec<u32>) {
        let (lo, hi) = self.tree.leaf_range(u);
        let rows = self.rows_of(u);
        AliasRows::build(
            &weights[lo..hi],
            &mut self.prob[rows.clone()],
            &mut self.alias[rows],
            work,
        )
        .expect("positive weights");
    }

    /// Node `u`'s stored alias table.
    fn node_rows(&self, u: NodeId) -> AliasRows<'_> {
        let rows = self.rows_of(u);
        AliasRows::new(&self.prob[rows.clone()], &self.alias[rows])
    }

    /// Number of rank slots.
    #[allow(dead_code)] // part of the engine's API surface; used by tests
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when there are no slots (never constructible).
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The underlying rank tree.
    #[allow(dead_code)]
    pub fn tree(&self) -> &RankBst {
        &self.tree
    }

    /// Total weight of ranks `[a, b)` in `O(log n)` via canonical nodes.
    pub fn range_weight(&self, a: usize, b: usize) -> f64 {
        self.tree.canonical_nodes(a, b).iter().map(|&u| self.tree.node_weight(u)).sum()
    }

    /// Prepares a query over ranks `[a, b)`: canonical decomposition plus
    /// the `O(log n)` on-the-fly chooser, with each canonical node's
    /// (offset, alias-table) pair hoisted into dense arrays so every
    /// subsequent draw is two L1-resident decodes. Returns `None` when the
    /// range is empty.
    ///
    /// Every sampling entry point — sequential and batched — funnels
    /// through the context this returns, so there is exactly one draw code
    /// path to test.
    pub fn prepare(&self, a: usize, b: usize) -> Option<PreparedRange<'_>> {
        let canon = self.tree.canonical_nodes(a, b);
        if canon.is_empty() {
            return None;
        }
        let lo: Vec<usize> = canon.iter().map(|&u| self.tree.leaf_range(u).0).collect();
        let tbl: Vec<AliasRows<'_>> = canon.iter().map(|&u| self.node_rows(u)).collect();
        let chooser = if canon.len() == 1 {
            None
        } else {
            let weights: Vec<f64> = canon.iter().map(|&u| self.tree.node_weight(u)).collect();
            Some(AliasTable::new(&weights).expect("positive node weights"))
        };
        Some(PreparedRange { lo, tbl, chooser })
    }

    /// Draws `s` independent weighted rank samples from `[a, b)` in
    /// `O(log n + s)` time, appending to `out`. Returns `false` (and
    /// appends nothing) when the range is empty.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        s: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) -> bool {
        let Some(ctx) = self.prepare(a, b) else {
            return false;
        };
        for _ in 0..s {
            out.push(ctx.draw(rng));
        }
        true
    }

    /// Batched form of [`Self::sample_into`]: fills `out` with independent
    /// weighted rank samples from `[a, b)`, drawing all randomness from an
    /// already-buffered word block. Returns `false` (leaving `out`
    /// untouched) when the range is empty.
    ///
    /// Consumes the same word sequence as the sequential path (one word
    /// per draw when one canonical node covers the range, two otherwise),
    /// so under a block that replays the raw RNG stream the outputs are
    /// identical.
    pub fn sample_block_into<R: RngCore + ?Sized>(
        &self,
        a: usize,
        b: usize,
        block: &mut BlockRng64<'_, R>,
        out: &mut [u32],
    ) -> bool {
        let Some(ctx) = self.prepare(a, b) else {
            return false;
        };
        ctx.draw_block_into(block, out);
        true
    }
}

/// A query-prepared sampling context from [`RankAliasAugmented::prepare`]:
/// the canonical cover's offsets and alias tables in dense arrays plus the
/// per-query chooser. One draw costs one chooser decode (absent when a
/// single canonical node covers the range) and one node decode — no tree
/// walks, no indirection through node ids.
pub struct PreparedRange<'a> {
    /// Leaf-range start of each canonical node.
    lo: Vec<usize>,
    /// Stored alias table of each canonical node.
    tbl: Vec<AliasRows<'a>>,
    /// On-the-fly alias over the canonical nodes' weights; `None` when the
    /// cover is a single node (whose draws then cost one word, not two).
    chooser: Option<AliasTable>,
}

impl PreparedRange<'_> {
    /// Draws one weighted rank (one or two RNG words).
    #[inline(always)]
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let j = match &self.chooser {
            Some(c) => c.sample(rng),
            None => 0,
        };
        self.lo[j] + self.tbl[j].sample(rng)
    }

    /// Words each draw consumes: one chooser word (when the canonical
    /// cover has more than one node) plus one node word. Fixed per
    /// prepared range, which is what makes word pre-assignment — and
    /// hence pipelining — possible (see `iqs_alias::pipeline`).
    #[inline]
    pub fn words_per_draw(&self) -> usize {
        1 + usize::from(self.chooser.is_some())
    }

    /// Decodes a tile of pre-generated words into rank samples through
    /// the interleaved window. Word `wpd·i + j` is draw `i`'s `j`-th
    /// decision — exactly the sequential assignment of [`Self::draw`] —
    /// so outputs are bit-identical to the sequential path. The decode
    /// phase reads only the (query-local, cache-hot) chooser and the node
    /// tables' *lengths*; the dependent load into the chosen node's urn
    /// row happens `K` draws after its prefetch.
    ///
    /// `words.len()` must be exactly `words_per_draw() * out.len()`.
    pub fn draw_words_into(&self, words: &[u64], out: &mut [u32]) {
        debug_assert_eq!(words.len(), self.words_per_draw() * out.len());
        match &self.chooser {
            None => {
                let t = self.tbl[0];
                let base = self.lo[0] as u32;
                iqs_alias::pipeline::interleave(
                    out.len(),
                    |i| {
                        let (col, coin) = t.split_word(words[i]);
                        (col as u32, coin)
                    },
                    |&(col, _)| t.prefetch_row(col as usize),
                    |i, (col, coin)| out[i] = base + t.resolve(col as usize, coin) as u32,
                );
            }
            Some(c) => {
                iqs_alias::pipeline::interleave(
                    out.len(),
                    |i| {
                        let j = c.decode(words[2 * i]);
                        let (col, coin) = self.tbl[j].split_word(words[2 * i + 1]);
                        (j as u32, col as u32, coin)
                    },
                    |&(j, col, _)| self.tbl[j as usize].prefetch_row(col as usize),
                    |i, (j, col, coin)| {
                        let j = j as usize;
                        out[i] = (self.lo[j] + self.tbl[j].resolve(col as usize, coin)) as u32;
                    },
                );
            }
        }
    }

    /// Pipelined batch draw: fills `out` with independent weighted rank
    /// samples, pulling the whole tile's words from `block` up front
    /// (sequence order) and running them through
    /// [`Self::draw_words_into`]. The single-node case degrades to the
    /// plain alias kernel with the node's leaf offset as `base`.
    pub fn draw_block_into<R: RngCore + ?Sized>(
        &self,
        block: &mut BlockRng64<'_, R>,
        out: &mut [u32],
    ) {
        if self.chooser.is_none() {
            self.tbl[0].sample_block_into(block, self.lo[0] as u32, out);
            return;
        }
        const TILE: usize = iqs_alias::pipeline::TILE;
        let mut words = [0u64; 2 * TILE];
        for tile in out.chunks_mut(TILE) {
            let m = tile.len();
            block.fill_words(&mut words[..2 * m]);
            self.draw_words_into(&words[..2 * m], tile);
        }
    }
}

impl SpaceUsage for RankAliasAugmented {
    fn space_words(&self) -> usize {
        self.tree.space_words()
            + vec_words(&self.at)
            + vec_words(&self.prob)
            + vec_words(&self.alias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distribution_matches_weights() {
        let weights: Vec<f64> = (1..=32).map(f64::from).collect();
        let r = RankAliasAugmented::new(&weights);
        let (a, b) = (5usize, 20usize);
        let total: f64 = weights[a..b].iter().sum();
        let mut rng = StdRng::seed_from_u64(300);
        let mut counts = vec![0u64; 32];
        let mut out = Vec::new();
        for _ in 0..500 {
            out.clear();
            assert!(r.sample_into(a, b, 200, &mut rng, &mut out));
            for &pos in &out {
                assert!((a..b).contains(&pos));
                counts[pos] += 1;
            }
        }
        let draws = 500.0 * 200.0;
        for pos in a..b {
            let p = counts[pos] as f64 / draws;
            let want = weights[pos] / total;
            assert!((p - want).abs() < 0.15 * want + 0.002, "pos {pos}: {p} vs {want}");
        }
    }

    #[test]
    fn empty_range_returns_false() {
        let r = RankAliasAugmented::new(&[1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(301);
        let mut out = Vec::new();
        assert!(!r.sample_into(1, 1, 5, &mut rng, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn block_path_replays_sequential_path() {
        let weights: Vec<f64> = (1..=64).map(f64::from).collect();
        let r = RankAliasAugmented::new(&weights);
        for (a, b) in [(3usize, 47usize), (16, 32), (10, 11)] {
            let mut rng_a = StdRng::seed_from_u64(777);
            let mut seq = Vec::new();
            assert!(r.sample_into(a, b, 100, &mut rng_a, &mut seq));

            let mut rng_b = StdRng::seed_from_u64(777);
            let mut block = BlockRng64::new(&mut rng_b);
            let mut batch = vec![0u32; 100];
            assert!(r.sample_block_into(a, b, &mut block, &mut batch));
            let seq32: Vec<u32> = seq.iter().map(|&x| x as u32).collect();
            assert_eq!(batch, seq32, "range [{a},{b})");
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut block = BlockRng64::new(&mut rng);
        assert!(!r.sample_block_into(9, 9, &mut block, &mut []));
    }

    #[test]
    fn pipelined_block_path_replays_sequential_at_tile_boundaries() {
        // Exercises the word-pre-assignment argument across tile seams
        // and the chooser (multi-node) decode path.
        let weights: Vec<f64> = (1..=128).map(f64::from).collect();
        let r = RankAliasAugmented::new(&weights);
        let tile = iqs_alias::pipeline::TILE;
        for s in [tile - 1, tile, tile + 1, 2 * tile + 9] {
            let mut rng_a = StdRng::seed_from_u64(s as u64);
            let mut seq = Vec::new();
            assert!(r.sample_into(7, 99, s, &mut rng_a, &mut seq));
            let mut rng_b = StdRng::seed_from_u64(s as u64);
            let mut block = BlockRng64::new(&mut rng_b);
            let mut batch = vec![0u32; s];
            assert!(r.sample_block_into(7, 99, &mut block, &mut batch));
            let seq32: Vec<u32> = seq.iter().map(|&x| x as u32).collect();
            assert_eq!(batch, seq32, "s = {s}");
        }
    }

    #[test]
    fn reweighted_tables_equal_a_fresh_build() {
        // Slot counts off the powers of two leave leaves above the
        // deepest level; `Debug` compares every row of the arena.
        for n in [1usize, 2, 3, 11, 100, 257] {
            let mut weights: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let base = RankAliasAugmented::new(&weights);
            let touched: Vec<usize> =
                (0..n).filter(|slot| slot % 37 == 0 || *slot == n - 1).collect();
            for &slot in &touched {
                weights[slot] = 0.5 + slot as f64 * 1e9;
            }
            let patched = base.reweighted(&weights, &touched, None);
            let fresh = RankAliasAugmented::new(&weights);
            assert_eq!(format!("{patched:?}"), format!("{fresh:?}"), "n = {n}");
        }
    }

    #[test]
    fn range_weight_is_exact() {
        let weights = [0.5, 1.5, 2.0, 4.0, 8.0];
        let r = RankAliasAugmented::new(&weights);
        for a in 0..5 {
            for b in a..=5 {
                let want: f64 = weights[a..b].iter().sum();
                assert!((r.range_weight(a, b) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn space_is_n_log_n() {
        let small = RankAliasAugmented::new(&vec![1.0; 1 << 8]);
        let large = RankAliasAugmented::new(&vec![1.0; 1 << 12]);
        let ratio = large.space_words() as f64 / small.space_words() as f64;
        // (n log n) ratio = 16 * (12/8) = 24; linear would be 16.
        assert!(ratio > 19.0, "ratio {ratio} suggests space is not n log n");
    }
}
