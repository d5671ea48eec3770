//! The alias-augmentation engine of Lemma 2 (Section 4.1), factored over
//! rank space so both the element-level structure and Theorem 3's
//! chunk-level structure (`T_chunk`) can share it.

use iqs_alias::space::{vec_words, SpaceUsage};
use iqs_alias::{pipeline, prefetch, AliasRows, BlockRng64, BuildScratch, WeightError};
use iqs_tree::{NodeId, RankBst};
use rand::{Rng, RngCore};

use crate::plan::{PickTiles, Piece, QueryPlan};

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
/// The node tables live in one level-ordered arena of 8-byte rows, not
/// one allocation each: the nodes of one depth cover disjoint slot
/// ranges, so the table of the node over slots `[lo, hi)` at depth `d` is
/// rows `d·n + lo .. d·n + hi` (`(height + 1)·n` rows; the few rows under
/// a leaf that ends above the deepest level stay zero). Each table is
/// what [`iqs_alias::AliasTable::new`] would build for the same weights, entry for
/// entry.
///
/// A structure built [`for_reweights`](Self::for_reweights) stores no
/// table on the inner nodes above depth [`TABLE_DEPTH`]: a re-weight
/// would rebuild every one of them, each as long as its whole level. Its
/// arena starts at that depth — `(height − TABLE_DEPTH + 1)·n` rows, a
/// leaf above it using its own slot's row of the first level — and a
/// query stands in for an untabled canonical node with its tabled
/// descendants (see `plan_into`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RankAliasAugmented {
    tree: RankBst,
    /// The depth above which inner nodes store no table; 0 when every
    /// node stores one.
    top: u32,
    /// First arena row of each node's table, by node id; [`UNTABLED`]
    /// for a node that stores none.
    at: Vec<usize>,
    rows: Vec<u64>,
}

/// The shallowest depth whose inner nodes keep their tables in a
/// structure built [`for_reweights`](RankAliasAugmented::for_reweights).
/// A canonical node at depth `d` above it costs a query up to
/// `2^(TABLE_DEPTH − d)` chooser columns instead of one, once per plan —
/// a caller that keeps its plan pays it once per range and structure —
/// and a re-weight rebuilds `TABLE_DEPTH` fewer whole levels. The largest
/// depth whose fresh plan over the ledger's widest range at `s = 64`
/// costs at most 1.6× the plan at depth 4, at 2^16 and at 2^20 elements
/// (EXPERIMENTS.md, "Re-weight update phases").
pub const TABLE_DEPTH: u32 = 6;

/// The arena position of a node that stores no table.
const UNTABLED: usize = usize::MAX;

impl RankAliasAugmented {
    /// Builds the structure in `O(n log n)` time and space, with a table
    /// on every node.
    ///
    /// # Panics
    /// Panics on empty or non-positive weights (caller validates input).
    pub fn new(weights: &[f64]) -> Self {
        Self::build(weights, 0)
    }

    /// Builds the structure for a caller that re-weights it: no table on
    /// the inner nodes above depth [`TABLE_DEPTH`].
    ///
    /// # Panics
    /// As [`Self::new`].
    pub fn for_reweights(weights: &[f64]) -> Self {
        Self::build(weights, TABLE_DEPTH)
    }

    fn build(weights: &[f64], top: u32) -> Self {
        let tree = RankBst::new(weights).expect("non-empty weights");
        let n = tree.len();
        let mut at = vec![UNTABLED; tree.node_count()];
        let mut below = vec![(tree.root(), 0)];
        while let Some((u, depth)) = below.pop() {
            if depth >= top || tree.is_leaf(u) {
                at[u as usize] = depth.saturating_sub(top) as usize * n + tree.leaf_range(u).0;
            }
            if !tree.is_leaf(u) {
                let (l, r) = tree.children(u);
                below.extend([(l, depth + 1), (r, depth + 1)]);
            }
        }
        let rows = vec![0; (tree.height().saturating_sub(top) as usize + 1) * n];
        let mut this = RankAliasAugmented { tree, top, at, rows };
        let mut scratch = BuildScratch::default();
        for u in 0..this.tree.node_count() as NodeId {
            if this.at[u as usize] != UNTABLED {
                this.build_node(u, weights, &mut scratch).expect("positive weights");
            }
        }
        this
    }

    /// Brings `self` level with `current`, a structure over as many
    /// slots whose weights are `weights` and differ from the ones `self`
    /// was built over at the slots `lag` only (ascending), by copying
    /// rather than building: the node weights above `lag` are recomputed
    /// and the tables on their root-to-leaf paths copied row for row
    /// from `current`.
    ///
    /// # Panics
    /// If `current` stores its tables from another depth.
    pub(crate) fn catch_up(&mut self, current: &Self, weights: &[f64], lag: &[usize]) {
        assert_eq!(self.top, current.top, "a structure behind is cut at the same depth");
        self.tree.reweigh(weights, lag);
        for u in self.paths(lag) {
            let at = self.at[u as usize];
            let rows = at..at + self.tree.node_count_leaves(u);
            self.rows[rows.clone()].copy_from_slice(&current.rows[rows]);
        }
    }

    /// Rebuilds `self` in place for `weights`, which differ from the ones
    /// it was built over at the slots `touched` only (ascending): the node
    /// weights above them and the tables on their root-to-leaf paths, so
    /// every array equals what a fresh build for `weights` holds.
    ///
    /// # Errors
    /// [`WeightError::TotalOverflow`] when the recomputed root weight —
    /// the sum of every slot's weight — is not finite: a structure built
    /// for re-weights has no root table whose build would sum them.
    /// Otherwise any [`WeightError`] a rebuilt table reports.
    pub(crate) fn reweight(
        &mut self,
        weights: &[f64],
        touched: &[usize],
    ) -> Result<(), WeightError> {
        self.tree.reweigh(weights, touched);
        if !self.tree.node_weight(self.tree.root()).is_finite() {
            return Err(WeightError::TotalOverflow);
        }
        let mut scratch = BuildScratch::default();
        for u in self.paths(touched) {
            self.build_node(u, weights, &mut scratch)?;
        }
        Ok(())
    }

    /// The tabled nodes whose slot range holds one of `slots`
    /// (ascending): the root-to-leaf paths above them, less the nodes
    /// that store no table.
    fn paths(&self, slots: &[usize]) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut below = vec![(self.tree.root(), slots)];
        while let Some((u, slots)) = below.pop() {
            if slots.is_empty() {
                continue;
            }
            if self.at[u as usize] != UNTABLED {
                out.push(u);
            }
            if !self.tree.is_leaf(u) {
                let (l, r) = self.tree.children(u);
                let cut = slots.partition_point(|&slot| slot < self.tree.leaf_range(r).0);
                below.extend([(l, &slots[..cut]), (r, &slots[cut..])]);
            }
        }
        out
    }

    /// Builds node `u`'s table over its slots' weights into its arena rows.
    fn build_node(
        &mut self,
        u: NodeId,
        weights: &[f64],
        scratch: &mut BuildScratch,
    ) -> Result<f64, WeightError> {
        let (lo, hi) = self.tree.leaf_range(u);
        let at = self.at[u as usize];
        AliasRows::build(&weights[lo..hi], &mut self.rows[at..at + (hi - lo)], scratch)
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

    /// Plans a query over ranks `[a, b)` plus the caller's own pieces
    /// into `plan`: canonical decomposition and the one `O(log n)`
    /// on-the-fly chooser, whose columns are the `extra` weights in the
    /// order given and then the canonical nodes, each node's table
    /// position hoisted into a dense array so every subsequent draw is a
    /// chooser decode and one row ([`Self::pick`]). A draw that lands on
    /// an extra column is the caller's to resolve — Theorem 3 passes the
    /// boundary elements that lie outside its chunk-aligned middle, so
    /// one chooser splits a query's draws among boundary elements and
    /// `T_chunk` nodes alike. Returns `false`, the plan's cover left
    /// unspecified, when `[a, b)` is empty. Leaves the plan's key and
    /// shape to the caller.
    ///
    /// A canonical node that stores no table (above [`TABLE_DEPTH`] in a
    /// structure built for re-weights) is replaced by its tabled
    /// descendants, left to right, each a column weighted by its
    /// subtree's mass. A draw that picks descendant `v` and then leaf `e`
    /// in `v`'s table has probability `W(v)/W(q) · w(e)/W(v) = w(e)/W(q)`,
    /// as through the node's own table, and spends the same two words.
    ///
    /// Every sampling entry point — sequential and batched — funnels
    /// through a plan made here, so there is exactly one draw code path
    /// to test.
    pub(crate) fn plan_into(
        &self,
        a: usize,
        b: usize,
        extra: impl Iterator<Item = f64>,
        plan: &mut QueryPlan,
    ) -> bool {
        let b = b.min(self.len());
        if a >= b {
            return false;
        }
        // At most two canonical nodes a level, as many columns as that
        // unless some store no table.
        let columns = extra.size_hint().0 + 2 * self.tree.height() as usize + 1;
        let (weights, pieces) = (&mut plan.weights, &mut plan.pieces);
        weights.clear();
        weights.reserve(columns);
        weights.extend(extra);
        pieces.clear();
        pieces.reserve(columns);
        pieces.resize(weights.len(), Piece::EXTRA);
        self.cover(self.tree.root(), a, b, weights, pieces);
        plan.build_chooser(None).expect("positive piece weights");
        true
    }

    /// Appends a chooser column for each node of the tabled cover of
    /// slots `[a, b)` under `u`, left to right: the canonical nodes of
    /// Figure 1, each replaced by its tabled descendants when it stores
    /// no table.
    fn cover(
        &self,
        u: NodeId,
        a: usize,
        b: usize,
        weights: &mut Vec<f64>,
        pieces: &mut Vec<Piece>,
    ) {
        let (lo, hi) = self.tree.leaf_range(u);
        let at = self.at[u as usize];
        if a <= lo && hi <= b && at != UNTABLED {
            weights.push(self.tree.node_weight(u));
            pieces.push(Piece { at, len: (hi - lo) as u32, lo: lo as u32 });
            return;
        }
        // Not a leaf: a leaf under the range lies inside it and stores a
        // table.
        let (l, r) = self.tree.children(u);
        let mid = self.tree.leaf_range(r).0;
        if a < mid {
            self.cover(l, a, b, weights, pieces);
        }
        if b > mid {
            self.cover(r, a, b, weights, pieces);
        }
    }

    /// Resolves one draw's two words through `plan`, made by
    /// [`Self::plan_into`] on this structure: `w0` picks the piece, `w1`
    /// a slot through the piece's node table. Returns `(piece, slot)`;
    /// when `piece` is one of the caller's extras (below the count it
    /// passed to `plan_into`), `slot` is some valid slot and carries no
    /// meaning — the draw's node word is spent either way, which is what
    /// keeps the words of a draw a fixed count. One chooser decode
    /// (query-local, cache-hot) and one arena row: no tree walks, no
    /// indirection through node ids.
    #[inline(always)]
    pub(crate) fn pick(&self, plan: &QueryPlan, w0: u64, w1: u64) -> (usize, usize) {
        let (piece, row, kept, lo) = plan.locate(w0, w1);
        (piece, AliasRows::select(self.rows[row], w1 as u32, kept, lo) as usize)
    }

    /// [`Self::pick`] over a tile of pre-generated words, as staged
    /// passes (see `iqs_alias::pipeline`): draw `i` owns words
    /// `stride·i` (chooser) and `stride·i + 1` (node row) — the
    /// sequential assignment — so `piece[i]`/`slot[i]` are what `pick`
    /// returns for them. The decode pass reads only the chooser and the
    /// piece array; the dependent load into the chosen node's row runs
    /// in its own pass, behind its prefetch.
    ///
    /// `piece` and `slot` are one tile long at most and equally long;
    /// `words` holds `stride` words for each of their entries. `pick`
    /// is the caller's, written before it is read.
    pub(crate) fn pick_tile(
        &self,
        plan: &QueryPlan,
        words: &[u64],
        stride: usize,
        piece: &mut [u32],
        slot: &mut [u32],
        pick: &mut PickTiles,
    ) {
        let m = slot.len();
        assert!(m <= pipeline::TILE && piece.len() == m && words.len() == stride * m);
        let PickTiles { row, lo } = pick;
        for i in 0..m {
            let j;
            (j, row[i], slot[i], lo[i]) = plan.locate(words[stride * i], words[stride * i + 1]);
            piece[i] = j as u32;
        }
        pipeline::pass(
            m,
            |i| prefetch::slice_element(&self.rows, row[i]),
            |i| {
                let coin = words[stride * i + 1] as u32;
                slot[i] = AliasRows::select(self.rows[row[i]], coin, slot[i], lo[i]);
            },
        );
    }

    /// Draws `s` independent weighted rank samples from `[a, b)` in
    /// `O(log n + s)` time, two RNG words each, appending to `out`.
    /// Returns `false` (and appends nothing) when the range is empty.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        s: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) -> bool {
        let mut plan = QueryPlan::default();
        if !self.plan_into(a, b, std::iter::empty(), &mut plan) {
            return false;
        }
        for _ in 0..s {
            let (w0, w1) = (rng.next_u64(), rng.next_u64());
            out.push(self.pick(&plan, w0, w1).1);
        }
        true
    }

    /// Batched form of [`Self::sample_into`]: fills `out` with independent
    /// weighted rank samples from `[a, b)`, drawing all randomness from an
    /// already-buffered word block, each tile's words up front (sequence
    /// order) and run through `pick_tile`. Returns `false`
    /// (leaving `out` untouched) when the range is empty.
    ///
    /// Consumes the same word sequence as the sequential path (two words
    /// per draw), so under a block that replays the raw RNG stream the
    /// outputs are identical.
    pub fn sample_block_into<R: RngCore + ?Sized>(
        &self,
        a: usize,
        b: usize,
        block: &mut BlockRng64<'_, R>,
        out: &mut [u32],
    ) -> bool {
        const TILE: usize = pipeline::TILE;
        let mut plan = QueryPlan::default();
        if !self.plan_into(a, b, std::iter::empty(), &mut plan) {
            return false;
        }
        let mut words = [0u64; 2 * TILE];
        let mut piece = [0u32; TILE];
        let mut pick = PickTiles::default();
        for tile in out.chunks_mut(TILE) {
            let m = tile.len();
            block.fill_words(&mut words[..2 * m]);
            self.pick_tile(&plan, &words[..2 * m], 2, &mut piece[..m], tile, &mut pick);
        }
        true
    }
}

impl SpaceUsage for RankAliasAugmented {
    fn space_words(&self) -> usize {
        self.tree.space_words() + vec_words(&self.at) + vec_words(&self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type Build = fn(&[f64]) -> RankAliasAugmented;

    /// Both ways to build the structure: a table on every node, and no
    /// table above [`TABLE_DEPTH`].
    const BUILDS: [(&str, Build); 2] = [
        ("every level", RankAliasAugmented::new),
        ("for re-weights", RankAliasAugmented::for_reweights),
    ];

    #[test]
    fn distribution_matches_weights() {
        let weights: Vec<f64> = (1..=32).map(f64::from).collect();
        for (name, build) in BUILDS {
            let r = build(&weights);
            // [5, 20) is covered by nodes on every depth from 2 to 5.
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
                assert!((p - want).abs() < 0.15 * want + 0.002, "{name} pos {pos}: {p} vs {want}");
            }
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
        for (name, build) in BUILDS {
            let r = build(&weights);
            for (a, b) in [(3usize, 47usize), (16, 32), (10, 11), (0, 64)] {
                let mut rng_a = StdRng::seed_from_u64(777);
                let mut seq = Vec::new();
                assert!(r.sample_into(a, b, 100, &mut rng_a, &mut seq));

                let mut rng_b = StdRng::seed_from_u64(777);
                let mut block = BlockRng64::new(&mut rng_b);
                let mut batch = vec![0u32; 100];
                assert!(r.sample_block_into(a, b, &mut block, &mut batch));
                let seq32: Vec<u32> = seq.iter().map(|&x| x as u32).collect();
                assert_eq!(batch, seq32, "{name} range [{a},{b})");
            }
            let mut rng = StdRng::seed_from_u64(1);
            let mut block = BlockRng64::new(&mut rng);
            assert!(!r.sample_block_into(9, 9, &mut block, &mut []));
        }
    }

    #[test]
    fn pipelined_block_path_replays_sequential_at_tile_boundaries() {
        // Exercises the word-pre-assignment argument across tile seams
        // and the chooser (multi-node) decode path.
        let weights: Vec<f64> = (1..=128).map(f64::from).collect();
        let tile = iqs_alias::pipeline::TILE;
        for (name, build) in BUILDS {
            let r = build(&weights);
            for s in [tile - 1, tile, tile + 1, 2 * tile + 9] {
                let mut rng_a = StdRng::seed_from_u64(s as u64);
                let mut seq = Vec::new();
                assert!(r.sample_into(7, 99, s, &mut rng_a, &mut seq));
                let mut rng_b = StdRng::seed_from_u64(s as u64);
                let mut block = BlockRng64::new(&mut rng_b);
                let mut batch = vec![0u32; s];
                assert!(r.sample_block_into(7, 99, &mut block, &mut batch));
                let seq32: Vec<u32> = seq.iter().map(|&x| x as u32).collect();
                assert_eq!(batch, seq32, "{name} s = {s}");
            }
        }
    }

    #[test]
    fn a_structure_for_reweights_keeps_no_table_above_its_depth() {
        let d = TABLE_DEPTH;
        for n in [1usize, 3, (1 << d) - 1, 1 << d, (1 << d) + 1, (6 << d) + 5, 1 << (d + 4)] {
            let weights: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (full, cut) =
                (RankAliasAugmented::new(&weights), RankAliasAugmented::for_reweights(&weights));
            let height = full.tree.height();
            assert_eq!(full.rows.len(), (height as usize + 1) * n, "n = {n}");
            assert_eq!(cut.rows.len(), (height.saturating_sub(d) as usize + 1) * n, "n = {n}");
            // A tabled node keeps the table the full structure stores.
            for u in 0..cut.tree.node_count() {
                let tabled = cut.at[u] != UNTABLED;
                assert_eq!(tabled, cut.tree.is_leaf(u as NodeId) || full.at[u] >= d as usize * n);
                if tabled {
                    let len = cut.tree.node_count_leaves(u as NodeId);
                    assert_eq!(cut.rows[cut.at[u]..][..len], full.rows[full.at[u]..][..len]);
                }
            }
            // The whole range: one column for the root, or one for each
            // tabled node under it that has no tabled ancestor.
            let columns = |r: &RankAliasAugmented| {
                let mut plan = QueryPlan::default();
                assert!(r.plan_into(0, n, std::iter::empty(), &mut plan));
                plan.pieces.len()
            };
            assert_eq!(columns(&full), 1);
            assert_eq!(columns(&cut), n.min(1 << d), "n = {n}");
        }
    }

    #[test]
    fn reweighted_tables_equal_a_fresh_build() {
        // Slot counts off the powers of two leave leaves above the
        // deepest level; `Debug` compares every row of the arena.
        // A structure one edit behind, caught up by copying, is the
        // patched one too. Cut at `TABLE_DEPTH` = D, up to 2^D slots
        // table the leaves only (odd counts with some above depth D),
        // and more leave their top D levels untabled, odd counts with
        // leaves above the deepest level.
        let d = 1usize << TABLE_DEPTH;
        for (name, build) in BUILDS {
            for n in [1usize, 2, 3, d - 5, d, 6 * d + 5, 16 * d + 1] {
                let mut weights: Vec<f64> = (1..=n).map(|i| i as f64).collect();
                let base = build(&weights);
                let touched: Vec<usize> =
                    (0..n).filter(|slot| slot % 37 == 0 || *slot == n - 1).collect();
                for &slot in &touched {
                    weights[slot] = 0.5 + slot as f64 * 1e9;
                }
                let mut patched = base.clone();
                patched.reweight(&weights, &touched).unwrap();
                let fresh = build(&weights);
                assert_eq!(format!("{patched:?}"), format!("{fresh:?}"), "{name}, n = {n}");
                let mut behind = base.clone();
                behind.catch_up(&patched, &weights, &touched);
                assert_eq!(
                    format!("{behind:?}"),
                    format!("{fresh:?}"),
                    "{name}, n = {n}, caught up"
                );
            }
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
