//! Weighted range sampling on the line — the paper's running problem.
//!
//! Input: `n` real keys, each with a positive weight. A query `([x, y],
//! s)` returns `s` independent weighted samples from `S_q = [x, y] ∩ S`;
//! outputs of all queries are mutually independent.
//!
//! Three interchangeable structures implement [`RangeSampler`]:
//!
//! | structure | space | query | paper |
//! |---|---|---|---|
//! | [`TreeSamplingRange`] | `O(n)` | `O(s log n)` | §3.2 |
//! | [`AliasAugmentedRange`] | `O(n log n)` | `O(log n + s)` | Lemma 2 |
//! | [`ChunkedRange`] | `O(n)` | `O(log n + s)` | Theorem 3 |
//!
//! Samples are reported as *ranks* (positions in the sorted key order);
//! [`RangeSampler::keys`] maps ranks back to key values, and callers with
//! satellite data index it by rank.

use iqs_alias::space::{vec_words, SpaceUsage};
use iqs_alias::{
    pipeline, prefetch, validate_weights, AliasRows, AliasTable, BlockRng64, BuildScratch,
    WeightError,
};
use iqs_tree::{Fenwick, RankBst};
use rand::{Rng, RngCore};
use std::ops::Range;

use crate::error::QueryError;
use crate::plan::{Ends, QueryPlan, Shape, Stamp, Tiles};
use crate::rank_alias::RankAliasAugmented;

/// Validates and sorts `(key, weight)` input; returns keys and weights in
/// key order. Input already in key order — what an ordered map's walk
/// hands over — is recognised by the validation pass and not sorted.
/// The weights must be finite-positive and so must their sum
/// ([`validate_weights`]): a total past `f64::MAX` would leave the
/// structures' sums infinite.
fn prepare(mut pairs: Vec<(f64, f64)>) -> Result<(Vec<f64>, Vec<f64>), QueryError> {
    let mut sorted = true;
    let mut prev = f64::NEG_INFINITY;
    for &(k, _) in &pairs {
        if !k.is_finite() {
            return Err(QueryError::EmptyRange);
        }
        sorted &= prev <= k;
        prev = k;
    }
    if !sorted {
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
    }
    let (keys, weights): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    validate_weights(&weights).map_err(|_| QueryError::EmptyRange)?;
    Ok((keys, weights))
}

/// The common interface of the 1-D weighted range sampling structures.
///
/// All methods refer to elements by *rank* in the sorted key order.
/// `&mut dyn RngCore` keeps the trait object-safe so benchmark harnesses
/// can hold heterogeneous sampler collections.
///
/// # Dual sampling API
///
/// Every structure exposes the same query through two doors:
///
/// * **Sequential** — [`RangeSampler::sample_wr`] allocates a `Vec` and
///   draws each random word through the `dyn RngCore` object, one virtual
///   call at a time. Simple, and the reference semantics.
/// * **Batched** — [`RangeSampler::sample_wr_into`] writes into a
///   caller-provided slice and pulls randomness through an
///   [`iqs_alias::BlockRng64`], which refills up to 64 words per
///   `fill_bytes` call. No per-query allocation for the samples, ~1/64th
///   of the RNG dispatch overhead, and each alias draw decodes a single
///   64-bit word ([`iqs_alias::AliasTable::decode`]).
///
/// Both doors consume the caller's RNG stream in the same word order, so
/// for generators whose `fill_bytes` emits whole little-endian `next_u64`
/// words (e.g. this workspace's `StdRng`) the two paths return *identical*
/// samples under the same seed — a property the test-suite pins down.
/// The concrete structures additionally expose monomorphizing generic
/// variants (e.g. [`ChunkedRange::sample_wr_batch`]) for callers that hold
/// a concrete RNG type and want static dispatch end to end.
pub trait RangeSampler {
    /// Number of elements.
    fn len(&self) -> usize;

    /// True when the structure is empty (not constructible).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted keys, by rank.
    fn keys(&self) -> &[f64];

    /// Per-element weights, by rank.
    fn weights(&self) -> &[f64];

    /// Half-open rank interval of the keys inside the closed interval
    /// `[x, y]`, in `O(log n)`. A NaN bound makes the interval empty —
    /// no key compares with it — so every count, weight and plan that
    /// goes through here reads an empty range, as the tiered index does.
    fn rank_range(&self, x: f64, y: f64) -> (usize, usize) {
        if x.is_nan() || y.is_nan() {
            return (0, 0);
        }
        let keys = self.keys();
        let a = keys.partition_point(|&k| k < x);
        let b = keys.partition_point(|&k| k <= y);
        (a, b.max(a))
    }

    /// `|S_q|`.
    fn range_count(&self, x: f64, y: f64) -> usize {
        let (a, b) = self.rank_range(x, y);
        b - a
    }

    /// Total weight of `S_q`.
    fn range_weight(&self, x: f64, y: f64) -> f64;

    /// Draws `s` independent weighted samples (ranks) from `S_q`.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when `[x, y]` contains no elements.
    fn sample_wr(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError>;

    /// Draws `out.len()` independent weighted samples (ranks) from `S_q`
    /// into the caller-provided slice — the allocation-free batched fast
    /// path (see the trait-level *Dual sampling API* notes). Ranks fit in
    /// `u32` because construction caps `n` at `u32::MAX`.
    ///
    /// # Order
    /// The reply of one index is an i.i.d. *sequence*: position `i` is a
    /// weighted draw independent of every other position, so any prefix
    /// (or any subset of positions chosen without looking at the values)
    /// is itself a sample. That stops at the index: a reply assembled
    /// from several indexes — the router's, the tiered index's — is the
    /// legs' replies end to end and only a *multiset* (see
    /// `iqs_serve::Response::Samples`).
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when `[x, y]` contains no elements; in
    /// that case `out` is left untouched.
    fn sample_wr_into(
        &self,
        x: f64,
        y: f64,
        rng: &mut dyn RngCore,
        out: &mut [u32],
    ) -> Result<(), QueryError>;

    /// Draws a weighted without-replacement sample of `s` distinct ranks
    /// by rejecting duplicate WR draws — equivalent to successive
    /// renormalized weighted draws. Expected `O(s)` extra draws while
    /// `s ≤ |S_q|/2`; callers requesting `s` close to `|S_q|` should
    /// report instead.
    ///
    /// # Errors
    /// [`QueryError::SampleTooLarge`] when `s > |S_q|`, otherwise as
    /// [`RangeSampler::sample_wr`].
    fn sample_wor(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError> {
        let available = self.range_count(x, y);
        if available == 0 {
            return Err(QueryError::EmptyRange);
        }
        if s > available {
            return Err(QueryError::SampleTooLarge { requested: s, available });
        }
        let mut seen = std::collections::HashSet::with_capacity(2 * s);
        let mut out = Vec::with_capacity(s);
        while out.len() < s {
            // Draw in small batches to amortize per-call overhead.
            let need = s - out.len();
            for r in self.sample_wr(x, y, need, rng)? {
                if out.len() < s && seen.insert(r) {
                    out.push(r);
                }
            }
        }
        Ok(out)
    }

    /// Resident size in 8-byte words (see `iqs_alias::space`).
    fn space_words(&self) -> usize;
}

// ---------------------------------------------------------------------
// §3.2: tree sampling.
// ---------------------------------------------------------------------

/// The Section-3.2 structure: a balanced tree over the sorted keys where
/// a sample is drawn by (1) choosing a canonical node proportionally to
/// its subtree weight and (2) descending to a leaf with per-node
/// two-way weighted coin flips.
///
/// `O(n)` space; `O(log n)` per sample, so `O(s log n)` per query — the
/// baseline that Lemma 2 and Theorem 3 improve to `O(log n + s)`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TreeSamplingRange {
    keys: Vec<f64>,
    weights: Vec<f64>,
    tree: RankBst,
}

impl TreeSamplingRange {
    /// Builds the structure in `O(n log n)` time (dominated by sorting).
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on empty or invalid input.
    pub fn new(pairs: Vec<(f64, f64)>) -> Result<Self, QueryError> {
        let (keys, weights) = prepare(pairs)?;
        let tree = RankBst::new(&weights).expect("validated weights");
        Ok(TreeSamplingRange { keys, weights, tree })
    }

    fn descend(&self, mut u: u32, rng: &mut dyn RngCore) -> usize {
        while !self.tree.is_leaf(u) {
            let (l, r) = self.tree.children(u);
            let wl = self.tree.node_weight(l);
            let wr = self.tree.node_weight(r);
            u = if rng.random::<f64>() * (wl + wr) < wl { l } else { r };
        }
        self.tree.leaf_range(u).0
    }

    /// The same weighted descent as `descend`, fed from a word block
    /// (one word per level, identical coin construction), with the
    /// dual-child next-level prefetch: while this level's coin is
    /// decoded, both grandchild pairs are already in flight — one of
    /// them is the next iteration's dependent load.
    /// A descent consumes a *data-dependent* number of words, so the
    /// word pre-assignment that pipelines the fixed-words-per-draw
    /// kernels does not apply (see `iqs_alias::pipeline`); bounded
    /// lookahead inside (and across, see [`Self::sample_wr_batch`])
    /// single draws is the available lever.
    fn descend_block_prefetching<R: RngCore + ?Sized>(
        &self,
        mut u: u32,
        block: &mut BlockRng64<'_, R>,
    ) -> usize {
        while !self.tree.is_leaf(u) {
            let (l, r) = self.tree.children(u);
            self.tree.prefetch_children(l);
            self.tree.prefetch_children(r);
            let wl = self.tree.node_weight(l);
            let wr = self.tree.node_weight(r);
            u = if block.u01() * (wl + wr) < wl { l } else { r };
        }
        self.tree.leaf_range(u).0
    }

    /// Monomorphizing batch query: fills `out` with independent weighted
    /// samples from `[x, y]`, drawing randomness in blocks. See the
    /// [`RangeSampler`] *Dual sampling API* notes.
    ///
    /// Prefetch hints never consume randomness, so this returns samples
    /// bit-identical to the sequential path.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when the interval holds no elements.
    pub fn sample_wr_batch<R: RngCore + ?Sized>(
        &self,
        x: f64,
        y: f64,
        rng: &mut R,
        out: &mut [u32],
    ) -> Result<(), QueryError> {
        let (a, b) = self.rank_range(x, y);
        let canon = self.tree.canonical_nodes(a, b);
        if canon.is_empty() {
            return Err(QueryError::EmptyRange);
        }
        let weights: Vec<f64> = canon.iter().map(|&u| self.tree.node_weight(u)).collect();
        let chooser = AliasTable::new(&weights).expect("positive node weights");
        // One word picks the canonical node, one per descent level after
        // that; plan for the tree depth and let refills top up if short.
        let depth = usize::BITS as usize - self.keys.len().leading_zeros() as usize;
        let mut block = BlockRng64::with_budget(rng, out.len().saturating_mul(depth + 1));
        for slot in out.iter_mut() {
            let root = canon[chooser.sample_block(&mut block)];
            *slot = self.descend_block_prefetching(root, &mut block) as u32;
            // Draw-boundary peek: the next buffered word *is* the next
            // draw's chooser word. Resolving it through the (query-local,
            // cache-hot) chooser costs a few cycles and lets the next
            // descent's first dependent load start during this draw's
            // epilogue. Peeking never consumes the word.
            if let Some(w) = block.peek_word() {
                self.tree.prefetch_children(canon[chooser.decode(w)]);
            }
        }
        Ok(())
    }
}

impl RangeSampler for TreeSamplingRange {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn keys(&self) -> &[f64] {
        &self.keys
    }

    fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn range_weight(&self, x: f64, y: f64) -> f64 {
        let (a, b) = self.rank_range(x, y);
        self.tree.canonical_nodes(a, b).iter().map(|&u| self.tree.node_weight(u)).sum()
    }

    fn sample_wr(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError> {
        let (a, b) = self.rank_range(x, y);
        let canon = self.tree.canonical_nodes(a, b);
        if canon.is_empty() {
            return Err(QueryError::EmptyRange);
        }
        let weights: Vec<f64> = canon.iter().map(|&u| self.tree.node_weight(u)).collect();
        let chooser = AliasTable::new(&weights).expect("positive node weights");
        Ok((0..s).map(|_| self.descend(canon[chooser.sample(rng)], rng)).collect())
    }

    fn sample_wr_into(
        &self,
        x: f64,
        y: f64,
        rng: &mut dyn RngCore,
        out: &mut [u32],
    ) -> Result<(), QueryError> {
        self.sample_wr_batch(x, y, rng, out)
    }

    fn space_words(&self) -> usize {
        vec_words(&self.keys) + vec_words(&self.weights) + self.tree.space_words()
    }
}

// ---------------------------------------------------------------------
// Lemma 2: alias augmentation.
// ---------------------------------------------------------------------

/// The Lemma-2 structure (Section 4.1): every tree node stores an alias
/// table over its subtree. `O(n log n)` space, `O(log n + s)` query.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AliasAugmentedRange {
    keys: Vec<f64>,
    weights: Vec<f64>,
    engine: RankAliasAugmented,
}

impl AliasAugmentedRange {
    /// Builds the structure in `O(n log n)` time and space.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on empty or invalid input.
    pub fn new(pairs: Vec<(f64, f64)>) -> Result<Self, QueryError> {
        let (keys, weights) = prepare(pairs)?;
        let engine = RankAliasAugmented::new(&weights);
        Ok(AliasAugmentedRange { keys, weights, engine })
    }

    /// Monomorphizing batch query: fills `out` with independent weighted
    /// samples from `[x, y]`, drawing randomness in blocks. See the
    /// [`RangeSampler`] *Dual sampling API* notes.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when the interval holds no elements.
    pub fn sample_wr_batch<R: RngCore + ?Sized>(
        &self,
        x: f64,
        y: f64,
        rng: &mut R,
        out: &mut [u32],
    ) -> Result<(), QueryError> {
        let (a, b) = self.rank_range(x, y);
        // Two words per draw in the general (multi-canonical-node) case.
        let mut block = BlockRng64::with_budget(rng, out.len().saturating_mul(2));
        if self.engine.sample_block_into(a, b, &mut block, out) {
            Ok(())
        } else {
            Err(QueryError::EmptyRange)
        }
    }
}

impl RangeSampler for AliasAugmentedRange {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn keys(&self) -> &[f64] {
        &self.keys
    }

    fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn range_weight(&self, x: f64, y: f64) -> f64 {
        let (a, b) = self.rank_range(x, y);
        self.engine.range_weight(a, b)
    }

    fn sample_wr(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError> {
        let (a, b) = self.rank_range(x, y);
        let mut out = Vec::with_capacity(s);
        if self.engine.sample_into(a, b, s, rng, &mut out) {
            Ok(out)
        } else {
            Err(QueryError::EmptyRange)
        }
    }

    fn sample_wr_into(
        &self,
        x: f64,
        y: f64,
        rng: &mut dyn RngCore,
        out: &mut [u32],
    ) -> Result<(), QueryError> {
        self.sample_wr_batch(x, y, rng, out)
    }

    fn space_words(&self) -> usize {
        vec_words(&self.keys) + vec_words(&self.weights) + self.engine.space_words()
    }
}

// ---------------------------------------------------------------------
// Theorem 3: chunking.
// ---------------------------------------------------------------------

/// The Theorem-3 structure (Section 4.2): the keys are cut into
/// `g = Θ(n / log n)` chunks of `c = ⌈log₂ n⌉` elements;
///
/// * a Lemma-2 structure `T_chunk` over the *chunks* supports
///   chunk-aligned weighted range sampling in `O(log n + s)` — its
///   `O(g log g) = O(n)` space is what makes the whole structure linear;
/// * a Fenwick tree gives the weight of a run of chunks in `O(log n)`;
/// * each chunk has its own alias table for intra-chunk sampling.
///
/// A query splits `[x, y]` into the boundary elements that lie outside
/// whole chunks (fewer than `c` at either end, read one by one,
/// `O(log n)`) and the chunk-aligned middle (Figure 2). **One** on-the-fly
/// chooser of `O(log n)` columns — the boundary elements themselves and
/// the middle's canonical `T_chunk` nodes — splits the draws, so every
/// draw owns three consecutive words: chooser, `T_chunk` node row, chunk
/// row, a draw that lands on a boundary element leaving the last two
/// unused. `O(log n + s)` total with `O(n)` space, and the reply's
/// positions are i.i.d. in sequence order.
///
/// The chunk tables are not `g` allocations but one array of `n` 8-byte
/// rows beside the weights: chunk `k`'s table is rows
/// `[k·c, min((k+1)·c, n))`, its alias entries positions within the
/// chunk. A middle draw therefore goes from its chunk pick straight to a
/// row — the chunk's length is arithmetic, not a load — and one
/// element's weight lives in one chunk's `c` rows plus `totals[k]`,
/// which is what [`Self::reweighted`] rebuilds.
///
/// A structure built [`for_reweights`](Self::for_reweights) keeps no
/// `T_chunk` tables on the inner nodes above depth
/// [`TABLE_DEPTH`](crate::rank_alias::TABLE_DEPTH) (see
/// [`RankAliasAugmented`]): a re-weight then rebuilds that many fewer
/// whole `g`-row levels, and a query's chooser takes up to
/// `2^TABLE_DEPTH` more columns. Its draws are as exact and as cheap in
/// words and rows.
///
/// # Example
/// ```
/// use iqs_core::{ChunkedRange, RangeSampler};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let pairs: Vec<(f64, f64)> = (0..10_000).map(|i| (i as f64, 1.0)).collect();
/// let sampler = ChunkedRange::new(pairs)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let ranks = sampler.sample_wr(2_500.0, 7_500.0, 5, &mut rng)?;
/// assert_eq!(ranks.len(), 5);
/// assert!(ranks.iter().all(|&r| (2_500..=7_500).contains(&r)));
/// # Ok::<(), iqs_core::QueryError>(())
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ChunkedRange {
    keys: Vec<f64>,
    weights: Vec<f64>,
    /// Chunk length `c`.
    chunk: usize,
    /// Every chunk's alias table, back to back in rank order.
    rows: Vec<u64>,
    /// `w(chunk k)`: the weights `T_chunk` and the Fenwick tree are over.
    totals: Vec<f64>,
    tchunk: RankAliasAugmented,
    fenwick: Fenwick,
    /// Which content this is, for the key of a kept [`QueryPlan`]; never
    /// written, so a deserialized structure takes a fresh one.
    #[serde(skip)]
    stamp: Stamp,
}

/// Builds chunk `k`'s alias table into its rows; returns the chunk's
/// total weight.
fn build_chunk(
    k: usize,
    chunk: usize,
    weights: &[f64],
    rows: &mut [u64],
    scratch: &mut BuildScratch,
) -> Result<f64, WeightError> {
    let at = chunk_rows(k, chunk, weights.len());
    AliasRows::build(&weights[at.clone()], &mut rows[at], scratch)
}

/// The paper's chunk length `c = ⌈log₂ n⌉`.
fn paper_chunk_len(n: usize) -> usize {
    ((n as f64).log2().ceil() as usize).max(1)
}

/// The ranks — and rows — of chunk `k` out of `n` elements.
fn chunk_rows(k: usize, chunk: usize, n: usize) -> Range<usize> {
    k * chunk..((k + 1) * chunk).min(n)
}

/// The chunks holding `ranks`, ascending and distinct.
fn chunks_of(ranks: impl Iterator<Item = usize>, chunk: usize) -> Vec<usize> {
    let mut chunks: Vec<usize> = ranks.map(|rank| rank / chunk).collect();
    chunks.sort_unstable();
    chunks.dedup();
    chunks
}

impl ChunkedRange {
    /// Builds the structure in `O(n log n)` time (sorting) and `O(n)`
    /// space, with the paper's chunk length `c = ⌈log₂ n⌉`.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on empty or invalid input.
    pub fn new(pairs: Vec<(f64, f64)>) -> Result<Self, QueryError> {
        let chunk = paper_chunk_len(pairs.len());
        Self::with_chunk_len(pairs, chunk)
    }

    /// [`Self::new`] for a caller that will [`reweight`](Self::reweighted)
    /// the structure: `T_chunk` keeps no tables above depth
    /// [`TABLE_DEPTH`](crate::rank_alias::TABLE_DEPTH). What it returns,
    /// and what a re-weight of it returns, is bit-identical only to
    /// another structure built this way.
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn for_reweights(pairs: Vec<(f64, f64)>) -> Result<Self, QueryError> {
        let chunk = paper_chunk_len(pairs.len());
        Self::build(pairs, chunk, RankAliasAugmented::for_reweights)
    }

    /// Builds with an explicit chunk length (ablation A1): smaller
    /// chunks shrink the boundary-scan term but grow `T_chunk`'s
    /// `O((n/c) log(n/c))` space; `c = Θ(log n)` balances them.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on empty or invalid input or a zero
    /// chunk length.
    pub fn with_chunk_len(pairs: Vec<(f64, f64)>, chunk: usize) -> Result<Self, QueryError> {
        Self::build(pairs, chunk, RankAliasAugmented::new)
    }

    /// Builds with chunk length `chunk` and `T_chunk` from `tchunk`.
    fn build(
        pairs: Vec<(f64, f64)>,
        chunk: usize,
        tchunk: fn(&[f64]) -> RankAliasAugmented,
    ) -> Result<Self, QueryError> {
        if chunk == 0 {
            return Err(QueryError::EmptyRange);
        }
        let (keys, weights) = prepare(pairs)?;
        let n = keys.len();
        let (mut rows, mut scratch) = (vec![0; n], BuildScratch::default());
        let totals = (0..n.div_ceil(chunk))
            .map(|k| build_chunk(k, chunk, &weights, &mut rows, &mut scratch))
            .collect::<Result<Vec<f64>, _>>()
            .and_then(|totals| validate_weights(&totals).map(|_| totals))
            .map_err(|_| QueryError::EmptyRange)?;
        let tchunk = tchunk(&totals);
        let fenwick = Fenwick::from_values(&totals);
        let stamp = Stamp::fresh();
        Ok(ChunkedRange { keys, weights, chunk, rows, totals, tchunk, fenwick, stamp })
    }

    /// The structure over the same keys with the weight at each listed
    /// rank replaced — `changes` is `(rank, weight)` in application
    /// order, so a rank listed twice keeps its last weight. Every array
    /// of the result equals, bit for bit, what `self`'s constructor
    /// ([`Self::new`], [`Self::with_chunk_len`] or [`Self::for_reweights`])
    /// builds for the new weights, so draws from equal seeds are the same.
    ///
    /// The result is written into a *base*. With `behind` — the structure
    /// one publication behind `self`, over the same keys, and its *lag*:
    /// the ranks whose weights the publication that made `self` from it
    /// changed — the base is that structure, brought level with `self`
    /// by copying what the lag touched (weights, chunk tables and totals,
    /// the `T_chunk` tables on those chunks' root-to-leaf paths) and
    /// recomputing the `T_chunk` node weights and Fenwick sums above
    /// them. A caller that republishes on every update passes the
    /// superseded structure back once no reader holds it. Without it, the
    /// base is a clone of `self`. Either way the batch then costs what it
    /// touches: the tables and totals of the chunks holding a listed rank,
    /// the `T_chunk` tables and node weights on their root-to-leaf paths,
    /// and the Fenwick sums above them ([`Fenwick::repair`]). No sum is
    /// ever updated by a delta — each is summed afresh from its parts in
    /// a fresh build's order — so nothing drifts.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on a rank past the end, a weight that
    /// is not finite-positive, or weights whose sum overflows `f64`.
    ///
    /// # Panics
    /// If `behind` holds a structure over a different number of keys,
    /// with another chunk length, or built by another constructor.
    pub fn reweighted(
        &self,
        changes: &[(usize, f64)],
        behind: Option<(ChunkedRange, &[usize])>,
    ) -> Result<ChunkedRange, QueryError> {
        if changes.iter().any(|&(rank, w)| rank >= self.len() || !w.is_finite() || w <= 0.0) {
            return Err(QueryError::EmptyRange);
        }
        let mut next = match behind {
            Some((mut old, lag)) => {
                old.catch_up(self, lag);
                old
            }
            None => self.clone(),
        };
        // `Debug` prints every field but the stamp's number.
        debug_assert_eq!(
            format!("{next:?}"),
            format!("{self:?}"),
            "the base is not `self` after its lag"
        );
        next.reweight(changes).map_err(|_| QueryError::EmptyRange)?;
        next.stamp = Stamp::fresh();
        Ok(next)
    }

    /// Brings `self`, whose weights differ from `current`'s at the ranks
    /// `lag` only, level with `current` by copying what the lag touched
    /// and re-summing what lies above it.
    fn catch_up(&mut self, current: &Self, lag: &[usize]) {
        assert!(
            self.len() == current.len() && self.chunk == current.chunk,
            "a structure behind is over the same keys"
        );
        for &rank in lag {
            self.weights[rank] = current.weights[rank];
        }
        let chunks = chunks_of(lag.iter().copied(), self.chunk);
        for &k in &chunks {
            let at = chunk_rows(k, self.chunk, self.len());
            self.rows[at.clone()].copy_from_slice(&current.rows[at]);
            self.totals[k] = current.totals[k];
        }
        self.tchunk.catch_up(&current.tchunk, &self.totals, &chunks);
        self.fenwick.repair(&self.totals, &chunks);
    }

    /// Applies `changes` (validated) in place: rebuilds the chunks they
    /// touch, the `T_chunk` paths above those, and the Fenwick sums over
    /// them.
    fn reweight(&mut self, changes: &[(usize, f64)]) -> Result<(), WeightError> {
        for &(rank, w) in changes {
            self.weights[rank] = w;
        }
        let touched = chunks_of(changes.iter().map(|&(rank, _)| rank), self.chunk);
        let mut scratch = BuildScratch::default();
        for &k in &touched {
            self.totals[k] =
                build_chunk(k, self.chunk, &self.weights, &mut self.rows, &mut scratch)?;
        }
        self.tchunk.reweight(&self.totals, &touched)?;
        self.fenwick.repair(&self.totals, &touched);
        Ok(())
    }

    /// The chunk length `c = ⌈log₂ n⌉`.
    pub fn chunk_len(&self) -> usize {
        self.chunk
    }

    /// Plans a query over `[x, y]` into `plan` — the `O(log n)` part of
    /// the query, shared by every door so that they cannot drift apart —
    /// and keys it to this structure and to `x` and `y`. On an error the
    /// plan matches nothing.
    fn plan_into(&self, plan: &mut QueryPlan, x: f64, y: f64) -> Result<(), QueryError> {
        // Stamp 0: the plan matches nothing until it is whole.
        plan.key = [0; 3];
        let (ra, rb) = self.rank_range(x, y);
        if ra >= rb {
            return Err(QueryError::EmptyRange);
        }
        let c = self.chunk;
        if (rb - 1) / c - ra / c < 2 {
            // No whole chunk is guaranteed inside: enumerate the range
            // (≤ 2c = O(log n) elements) and sample directly.
            plan.build_chooser(Some(&self.weights[ra..rb])).expect("positive weights");
            plan.shape = Shape::Short { base: ra as u32 };
        } else {
            // Figure 2: the chunks wholly inside `[ra, rb)` — at least
            // one, the range touching three — and what sticks out at
            // either end. An end that is chunk-aligned sticks out nothing.
            let first = ra.div_ceil(c);
            let end = if rb == self.len() { self.totals.len() } else { rb / c };
            let (left, right) = (ra..first * c, (end * c).min(rb)..rb);
            let boundary = self.weights[left.clone()].iter().chain(&self.weights[right.clone()]);
            let covered = self.tchunk.plan_into(first, end, boundary.copied(), plan);
            assert!(covered, "a whole chunk lies inside the range");
            plan.shape = Shape::Pieces(Ends { left, right });
        }
        plan.key = self.stamp.key(x, y);
        Ok(())
    }

    /// The row of chunk `slot` that word `z` chooses, as a position in
    /// `rows` — also the rank the draw returns if the row's coin keeps
    /// its column — and the chunk's first rank, which the row's alias
    /// entry is relative to.
    #[inline(always)]
    fn chunk_row(&self, slot: usize, z: u64) -> (u32, u32) {
        let at = slot * self.chunk;
        let len = self.chunk.min(self.rows.len() - at);
        ((at + AliasRows::column_of(z, len)) as u32, at as u32)
    }

    /// Monomorphizing batch query — the *rank door*: plans `[x, y]`
    /// afresh, then fills `out` with independent weighted samples,
    /// drawing randomness in blocks and resolving every draw in the
    /// tiles the thread keeps ([`Tiles::with_kept`]), so the whole query
    /// performs no sample-sized allocation and fills no tile. See the
    /// [`RangeSampler`] *Dual sampling API* notes.
    ///
    /// Each tile of draws runs as the staged passes of
    /// `iqs_alias::pipeline` — bulk word fill in sequence order, chooser
    /// decode, `T_chunk` node rows, chunk decode, chunk rows, each row
    /// pass behind its prefetch — and every word keeps the sequential
    /// path's word-to-decision assignment, so the samples stay
    /// bit-identical to [`Self::sample_wr`] (`RangeSampler::sample_wr`)
    /// under a word-replaying generator.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when the interval holds no elements;
    /// `out` is then untouched.
    pub fn sample_wr_batch<R: RngCore + ?Sized>(
        &self,
        x: f64,
        y: f64,
        rng: &mut R,
        out: &mut [u32],
    ) -> Result<(), QueryError> {
        let mut plan = QueryPlan::default();
        Tiles::with_kept(|tiles| self.draw_planned(&mut plan, tiles, x, y, rng, &Ranks, out))
    }

    /// The *id door*: the batch query through a kept plan and kept
    /// tiles. It re-plans `[x, y]` into `plan` unless `plan` was made
    /// for this structure's content and these very `x` and `y` (see
    /// [`QueryPlan`]), so through a plan that matches it allocates
    /// nothing, fills nothing and does no `O(log n)` work. Each draw
    /// writes the id of the rank it drew — `ids[rank]`, or the rank
    /// itself when there is no table — so a caller with satellite ids
    /// needs no rank buffer and no second pass. The rank's entry of
    /// `ids` is asked for in the chunk-row pass the moment the rank
    /// resolves, and each tile is gathered once its passes are done, so
    /// the table's cache misses overlap the draws instead of following
    /// them. The draws are a function of the structure, `x`, `y` and the
    /// words alone: the same draws, words and counters as
    /// [`Self::sample_wr_batch`] from the same RNG state, whichever plan
    /// and tiles the call is given.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when the interval holds no elements;
    /// `out` is then untouched and `plan` matches nothing.
    ///
    /// # Panics
    /// If `ids` is shorter than the structure.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_ids_planned<R: RngCore + ?Sized>(
        &self,
        plan: &mut QueryPlan,
        tiles: &mut Tiles,
        x: f64,
        y: f64,
        rng: &mut R,
        ids: Option<&[u64]>,
        out: &mut [u64],
    ) -> Result<(), QueryError> {
        self.draw_planned(plan, tiles, x, y, rng, &Ids(ids), out)
    }

    /// The one tile loop behind both doors; `write` is what a resolved
    /// draw writes into `out`.
    #[allow(clippy::too_many_arguments)]
    fn draw_planned<R: RngCore + ?Sized, W: Resolve>(
        &self,
        plan: &mut QueryPlan,
        tiles: &mut Tiles,
        x: f64,
        y: f64,
        rng: &mut R,
        write: &W,
        out: &mut [W::Out],
    ) -> Result<(), QueryError> {
        const TILE: usize = pipeline::TILE;
        if plan.key != self.stamp.key(x, y) {
            self.plan_into(plan, x, y)?;
        }
        let plan = &*plan;
        let mut block = BlockRng64::with_budget(rng, out.len().saturating_mul(3));
        let Tiles { words, piece, slot, row, base, pick } = tiles;
        for tile in out.chunks_mut(TILE) {
            let m = tile.len();
            // Either shape leaves each draw's rank in `slot`.
            match &plan.shape {
                Shape::Short { base: first } => {
                    block.fill_words(&mut words[..m]);
                    let (cols, ranks) = (&mut piece[..m], &mut slot[..m]);
                    plan.chooser().sample_tile(&words[..m], cols, *first, ranks);
                }
                Shape::Pieces(ends) => {
                    block.fill_words(&mut words[..3 * m]);
                    let (piece, slot) = (&mut piece[..m], &mut slot[..m]);
                    self.tchunk.pick_tile(plan, &words[..3 * m], 3, piece, slot, pick);
                    for i in 0..m {
                        (row[i], base[i]) = self.chunk_row(slot[i] as usize, words[3 * i + 2]);
                    }
                    pipeline::pass(
                        m,
                        |i| prefetch::slice_element(&self.rows, row[i] as usize),
                        |i| {
                            let (chunk_row, coin) = (self.rows[row[i] as usize], words[3 * i + 2]);
                            let middle = AliasRows::select(chunk_row, coin as u32, row[i], base[i]);
                            slot[i] = ends.rank(piece[i] as usize, middle);
                            write.resolved(slot[i]);
                        },
                    );
                }
            }
            for (o, &r) in tile.iter_mut().zip(&slot[..m]) {
                *o = write.out(r);
            }
        }
        Ok(())
    }
}

/// What a resolved draw writes: the rank door's rank or the id door's
/// id — the one difference between the doors, so they share a body.
trait Resolve {
    type Out;

    /// Told each draw's rank in the chunk-row pass, as soon as it
    /// resolves. A short range has no such pass, and needs none: its
    /// draws fall on at most `2c` consecutive ranks.
    #[inline(always)]
    fn resolved(&self, _rank: u32) {}

    /// What the draw of `rank` writes, once its tile is resolved.
    fn out(&self, rank: u32) -> Self::Out;
}

/// The rank door's write: the rank.
struct Ranks;

impl Resolve for Ranks {
    type Out = u32;

    #[inline(always)]
    fn out(&self, rank: u32) -> u32 {
        rank
    }
}

/// The id door's write: the rank's id, or the rank when there is no
/// table.
struct Ids<'a>(Option<&'a [u64]>);

impl Resolve for Ids<'_> {
    type Out = u64;

    #[inline(always)]
    fn resolved(&self, rank: u32) {
        if let Some(ids) = self.0 {
            prefetch::slice_element(ids, rank as usize);
        }
    }

    #[inline(always)]
    fn out(&self, rank: u32) -> u64 {
        match self.0 {
            Some(ids) => ids[rank as usize],
            None => u64::from(rank),
        }
    }
}

impl RangeSampler for ChunkedRange {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn keys(&self) -> &[f64] {
        &self.keys
    }

    fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn range_weight(&self, x: f64, y: f64) -> f64 {
        let (ra, rb) = self.rank_range(x, y);
        if ra >= rb {
            return 0.0;
        }
        let ca = ra / self.chunk;
        let cl = (rb - 1) / self.chunk; // chunk of the last element
        if ca == cl {
            return self.weights[ra..rb].iter().sum();
        }
        let w1: f64 = self.weights[ra..(ca + 1) * self.chunk].iter().sum();
        let w3: f64 = self.weights[cl * self.chunk..rb].iter().sum();
        w1 + self.fenwick.range_sum(ca + 1, cl) + w3
    }

    fn sample_wr(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<usize>, QueryError> {
        let mut plan = QueryPlan::default();
        self.plan_into(&mut plan, x, y)?;
        Ok(match &plan.shape {
            Shape::Short { base } => {
                (0..s).map(|_| *base as usize + plan.chooser().decode(rng.next_u64())).collect()
            }
            Shape::Pieces(ends) => (0..s)
                .map(|_| {
                    let (w0, w1, w2) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
                    let (piece, slot) = self.tchunk.pick(&plan, w0, w1);
                    let (row, base) = self.chunk_row(slot, w2);
                    let middle = AliasRows::select(self.rows[row as usize], w2 as u32, row, base);
                    ends.rank(piece, middle) as usize
                })
                .collect(),
        })
    }

    fn sample_wr_into(
        &self,
        x: f64,
        y: f64,
        rng: &mut dyn RngCore,
        out: &mut [u32],
    ) -> Result<(), QueryError> {
        self.sample_wr_batch(x, y, rng, out)
    }

    fn space_words(&self) -> usize {
        vec_words(&self.keys)
            + vec_words(&self.weights)
            + vec_words(&self.rows)
            + vec_words(&self.totals)
            + self.tchunk.space_words()
            + self.fenwick.space_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pairs(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| (i as f64, rng.random::<f64>() + 0.1)).collect()
    }

    fn samplers(n: usize, seed: u64) -> Vec<(&'static str, Box<dyn RangeSampler>)> {
        vec![
            ("tree", Box::new(TreeSamplingRange::new(pairs(n, seed)).unwrap())),
            ("alias", Box::new(AliasAugmentedRange::new(pairs(n, seed)).unwrap())),
            ("chunked", Box::new(ChunkedRange::new(pairs(n, seed)).unwrap())),
        ]
    }

    #[test]
    fn all_structures_reject_bad_input() {
        assert!(TreeSamplingRange::new(vec![]).is_err());
        assert!(AliasAugmentedRange::new(vec![(1.0, 0.0)]).is_err());
        assert!(ChunkedRange::new(vec![(f64::NAN, 1.0)]).is_err());
        // Finite weights whose sum is not.
        let huge = vec![(0.0, 1e308), (1.0, 1e308)];
        assert!(TreeSamplingRange::new(huge.clone()).is_err());
        assert!(AliasAugmentedRange::new(huge.clone()).is_err());
        assert!(ChunkedRange::new(huge).is_err());
    }

    #[test]
    fn all_structures_agree_on_counts_and_weights() {
        for (name, s) in samplers(500, 7) {
            let (a, b) = s.rank_range(100.0, 350.0);
            assert_eq!((a, b), (100, 351), "{name}");
            assert_eq!(s.range_count(100.0, 350.0), 251, "{name}");
            let want: f64 = s.weights()[100..351].iter().sum();
            assert!((s.range_weight(100.0, 350.0) - want).abs() < 1e-9, "{name}");
            // Degenerate ranges.
            assert_eq!(s.range_count(1000.0, 2000.0), 0, "{name}");
            assert_eq!(s.range_weight(600.0, 400.0), 0.0, "{name}");
        }
    }

    #[test]
    fn wr_samples_match_weight_distribution() {
        for (name, sampler) in samplers(256, 8) {
            let mut rng = StdRng::seed_from_u64(9);
            let (x, y) = (30.0, 200.0);
            let (a, b) = sampler.rank_range(x, y);
            let total: f64 = sampler.weights()[a..b].iter().sum();
            let mut counts = vec![0u64; 256];
            let rounds = 400;
            let s = 250;
            for _ in 0..rounds {
                for r in sampler.sample_wr(x, y, s, &mut rng).unwrap() {
                    assert!((a..b).contains(&r), "{name}: rank {r} outside [{a},{b})");
                    counts[r] += 1;
                }
            }
            let draws = (rounds * s) as f64;
            #[allow(clippy::needless_range_loop)]
            for r in a..b {
                let p = counts[r] as f64 / draws;
                let want = sampler.weights()[r] / total;
                assert!((p - want).abs() < 0.2 * want + 0.002, "{name} rank {r}: {p} vs {want}");
            }
        }
    }

    /// Both doors from equal seeds: the batch door's ranks, which must be
    /// the sequential door's.
    fn both_doors(sampler: &dyn RangeSampler, x: f64, y: f64, s: usize, what: &str) -> Vec<u32> {
        let mut a = StdRng::seed_from_u64(123);
        let seq = sampler.sample_wr(x, y, s, &mut a).unwrap();
        let mut b = StdRng::seed_from_u64(123);
        let mut batch = vec![0u32; s];
        sampler.sample_wr_into(x, y, &mut b, &mut batch).unwrap();
        let seq32: Vec<u32> = seq.iter().map(|&r| r as u32).collect();
        assert_eq!(batch, seq32, "{what} s={s} [{x},{y}]");
        batch
    }

    type Tchunk = fn(&[f64]) -> RankAliasAugmented;

    /// Both ways to build `T_chunk`: a table on every level, and none
    /// above `TABLE_DEPTH` (what [`ChunkedRange::for_reweights`] builds).
    const TCHUNKS: [(&str, Tchunk); 2] =
        [("", RankAliasAugmented::new), (", for re-weights", RankAliasAugmented::for_reweights)];

    /// Theorem-3 structures and queries chosen to sit on the kernel's
    /// edges (ROADMAP item 5's hard families, at kernel scope), each
    /// with both `T_chunk`s.
    fn hostile_shapes() -> Vec<(String, ChunkedRange, f64, f64)> {
        let mut shapes = Vec::new();
        for (how, tchunk) in TCHUNKS {
            let with_len = |pairs, c| ChunkedRange::build(pairs, c, tchunk).unwrap();
            let build = |weights: Vec<f64>| {
                let c = paper_chunk_len(weights.len());
                with_len(weights.iter().enumerate().map(|(i, &w)| (i as f64, w)).collect(), c)
            };
            // n = 200 cuts into 25 chunks of 8; 203 leaves a short last chunk.
            let flat = |n: usize| build((0..n).map(|i| (1 + i % 7) as f64).collect());
            let ladder: Vec<f64> = (0..363).map(|i| 2f64.powi(i % 121 - 60)).collect();
            let heavy_ends: Vec<f64> = (0..200)
                .map(|i| if (3..8).contains(&i) || (192..197).contains(&i) { 1e4 } else { 1.0 })
                .collect();
            let one_heavy: Vec<f64> =
                (0..200).map(|i| if i == 77 { 2f64.powi(60) } else { 1.0 }).collect();
            let shapes_200 = |c: usize| with_len(pairs(200, 5), c);
            shapes.extend(
                [
                    ("geometric 2^±60 ladder", build(ladder.clone()), 0.0, 362.0),
                    ("ladder, both ends partial", build(ladder), 5.0, 350.0),
                    ("boundary pieces hold 99.8% of the weight", build(heavy_ends), 3.0, 196.0),
                    ("one heavy element among light ones", build(one_heavy), 1.0, 198.0),
                    ("exactly two chunks, aligned", flat(200), 8.0, 23.0),
                    ("two chunks touched, no whole one", flat(200), 10.0, 20.0),
                    ("three chunks touched, one whole", flat(200), 5.0, 18.0),
                    ("chunk-aligned ends", flat(200), 8.0, 191.0),
                    ("aligned start, partial end", flat(200), 8.0, 190.0),
                    ("partial start, range to the last key", flat(200), 9.0, 199.0),
                    ("whole range over a short last chunk", flat(203), 0.0, 202.0),
                    ("range ending inside the short last chunk", flat(203), 3.0, 201.0),
                    ("chunks of one element", shapes_200(1), 3.0, 196.0),
                    ("one chunk of n elements", shapes_200(200), 3.0, 196.0),
                    ("two chunks of n/2 elements", shapes_200(100), 3.0, 196.0),
                    (
                        "681 boundary elements in the chooser",
                        with_len(pairs(1500, 6), 400),
                        10.0,
                        1490.0,
                    ),
                ]
                .map(|(name, sampler, x, y)| (format!("{name}{how}"), sampler, x, y)),
            );
        }
        shapes
    }

    #[test]
    fn batch_path_replays_sequential_path() {
        // Both doors of the dual API consume the caller's RNG stream in
        // the same word order, so under StdRng (whose fill_bytes emits
        // whole LE next_u64 words) they must return identical samples.
        // The sizes cross every window/tile seam of the pipelined kernels.
        let tile = iqs_alias::pipeline::TILE;
        for (name, s) in samplers(500, 25) {
            for n in [1usize, 7, 8, 9, tile - 1, tile, tile + 1, 2 * tile + 13] {
                for (x, y) in [(100.0, 350.0), (0.0, 499.0), (17.0, 17.0), (40.0, 45.0)] {
                    both_doors(s.as_ref(), x, y, n, name);
                }
            }
        }
        for (name, s, x, y) in hostile_shapes() {
            for n in [0usize, 1, tile - 1, tile + 1, 1 << 16] {
                both_doors(&s, x, y, n, &name);
            }
        }
    }

    #[test]
    fn hostile_shapes_answer_cleanly_or_with_a_typed_error() {
        use iqs_stats::chisq::chi_square_gof;
        for (name, sampler, x, y) in hostile_shapes() {
            let (a, b) = sampler.rank_range(x, y);
            let draws = both_doors(&sampler, x, y, 1 << 16, &name);
            let mut counts = vec![0u64; b - a];
            for &r in &draws {
                assert!((a..b).contains(&(r as usize)), "{name}: rank {r} outside [{a},{b})");
                counts[r as usize - a] += 1;
            }
            // Weights 2^120 apart leave most cells expecting no draw at
            // all: cells expecting fewer than 10 are pooled into one.
            let total: f64 = sampler.weights()[a..b].iter().sum();
            let (mut observed, mut probs) = (vec![0u64], vec![0.0]);
            for (&c, &w) in counts.iter().zip(&sampler.weights()[a..b]) {
                if w / total * draws.len() as f64 >= 10.0 {
                    observed.push(c);
                    probs.push(w / total);
                } else {
                    observed[0] += c;
                    probs[0] += w / total;
                }
            }
            if probs[0] * (draws.len() as f64) < 10.0 {
                // Too light for a cell of its own: it may hold a few
                // draws, and the lightest cell takes it in.
                assert!(observed[0] < 50, "{name}: {} draws on negligible weight", observed[0]);
                let (o, p) = (observed.swap_remove(0), probs.swap_remove(0));
                observed[0] += o;
                probs[0] += p;
            }
            if probs.len() > 1 {
                let gof = chi_square_gof(&observed, &probs);
                assert!(
                    gof.p_value > 1e-6,
                    "{name}: chi-square {gof:?} over {} cells",
                    probs.len()
                );
            }
            for (x, y) in [(y, x - 1.0), (1e9, 2e9), (f64::NAN, f64::NAN)] {
                let mut rng = StdRng::seed_from_u64(1);
                assert_eq!(sampler.sample_wr(x, y, 3, &mut rng), Err(QueryError::EmptyRange));
                assert_eq!(
                    sampler.sample_wr_into(x, y, &mut rng, &mut [0; 3]),
                    Err(QueryError::EmptyRange),
                    "{name} [{x},{y}]"
                );
            }
        }
    }

    #[test]
    fn a_nan_bound_holds_no_key() {
        // `NaN` compares with nothing, so it cannot stand for either end
        // of the line: each of these is the empty range.
        for (name, s) in samplers(100, 28) {
            for (x, y) in [(f64::NAN, 50.0), (50.0, f64::NAN), (f64::NAN, f64::NAN)] {
                let what = format!("{name} [{x}, {y}]");
                assert_eq!(s.range_count(x, y), 0, "{what}");
                assert_eq!(s.range_weight(x, y), 0.0, "{what}");
                let mut rng = StdRng::seed_from_u64(29);
                assert_eq!(s.sample_wr(x, y, 4, &mut rng), Err(QueryError::EmptyRange), "{what}");
                let mut out = [7u32; 4];
                assert_eq!(s.sample_wr_into(x, y, &mut rng, &mut out), Err(QueryError::EmptyRange));
                assert_eq!(out, [7; 4], "{what}: out must be untouched");
            }
        }
    }

    #[test]
    fn batch_empty_range_and_zero_samples() {
        for (name, s) in samplers(64, 26) {
            let mut rng = StdRng::seed_from_u64(27);
            let mut out = [7u32; 4];
            assert_eq!(
                s.sample_wr_into(1000.0, 2000.0, &mut rng, &mut out).unwrap_err(),
                QueryError::EmptyRange,
                "{name}"
            );
            assert_eq!(out, [7; 4], "{name}: out must be untouched on error");
            // Zero-length output is a no-op success.
            s.sample_wr_into(0.0, 63.0, &mut rng, &mut []).unwrap();
        }
    }

    #[test]
    fn empty_range_errors() {
        for (name, s) in samplers(64, 10) {
            let mut rng = StdRng::seed_from_u64(11);
            assert_eq!(
                s.sample_wr(1000.0, 2000.0, 5, &mut rng).unwrap_err(),
                QueryError::EmptyRange,
                "{name}"
            );
        }
    }

    #[test]
    fn wor_samples_are_distinct_and_bounded() {
        for (name, s) in samplers(128, 12) {
            let mut rng = StdRng::seed_from_u64(13);
            let out = s.sample_wor(10.0, 40.0, 20, &mut rng).unwrap();
            assert_eq!(out.len(), 20, "{name}");
            let set: std::collections::HashSet<_> = out.iter().collect();
            assert_eq!(set.len(), 20, "{name}: duplicates in WoR output");
            assert!(matches!(
                s.sample_wor(10.0, 12.0, 20, &mut rng),
                Err(QueryError::SampleTooLarge { available: 3, .. })
            ));
        }
    }

    #[test]
    fn single_element_range() {
        for (name, s) in samplers(64, 14) {
            let mut rng = StdRng::seed_from_u64(15);
            let out = s.sample_wr(17.0, 17.0, 8, &mut rng).unwrap();
            assert_eq!(out, vec![17; 8], "{name}");
        }
    }

    #[test]
    fn full_range_queries() {
        for (name, s) in samplers(300, 16) {
            let mut rng = StdRng::seed_from_u64(17);
            let out = s.sample_wr(f64::NEG_INFINITY, f64::INFINITY, 100, &mut rng).unwrap();
            assert_eq!(out.len(), 100, "{name}");
        }
    }

    #[test]
    fn chunked_space_is_linear_but_alias_augmented_is_not() {
        let small_c = ChunkedRange::new(pairs(1 << 10, 18)).unwrap();
        let large_c = ChunkedRange::new(pairs(1 << 14, 18)).unwrap();
        let ratio_c = large_c.space_words() as f64 / small_c.space_words() as f64;
        assert!(ratio_c < 20.0, "chunked space ratio {ratio_c} for 16x n");

        let small_a = AliasAugmentedRange::new(pairs(1 << 10, 18)).unwrap();
        let large_a = AliasAugmentedRange::new(pairs(1 << 14, 18)).unwrap();
        let ratio_a = large_a.space_words() as f64 / small_a.space_words() as f64;
        assert!(ratio_a > ratio_c, "alias-augmented should use more space");
        // And chunked must be much smaller in absolute terms at n = 16k.
        assert!(large_c.space_words() * 2 < large_a.space_words());
    }

    #[test]
    fn reweighted_is_the_fresh_build_bit_for_bit() {
        // `Debug` prints every field and tells any two finite f64s
        // apart, so equal strings mean every array is bit-equal. Each
        // `T_chunk` is checked against a fresh build of its own kind.
        // Counted in chunks, whatever `TABLE_DEPTH` = D is: fewer than
        // 2^D table the leaves only (odd counts put leaves above depth
        // D), exactly 2^D table exactly the depth-D leaves, and more
        // leave the shallow nodes untabled, odd counts with leaves above
        // the deepest level. Each count is built at chunk length 1 and,
        // with as many chunks, at the paper's length.
        let d = 1usize << crate::rank_alias::TABLE_DEPTH;
        let mut rng = StdRng::seed_from_u64(31);
        for (how, tchunk) in TCHUNKS {
            for chunks in [1usize, 2, 7, d - 1, d, d + 1, 2 * d + 1, 16 * d + 3] {
                let n = keys_for_chunks(chunks);
                assert!(chunks != d || n.div_ceil(paper_chunk_len(n)) == d, "{n} keys");
                reweight_chain(n, paper_chunk_len(n), tchunk, &mut rng, how);
                reweight_chain(chunks, 1, tchunk, &mut rng, how);
            }
        }
    }

    /// The fewest keys the paper's chunk length cuts into at least
    /// `chunks` chunks.
    fn keys_for_chunks(chunks: usize) -> usize {
        (1..).find(|&n: &usize| n.div_ceil(paper_chunk_len(n)) >= chunks).unwrap()
    }

    /// Six publications of random batches on a structure of `n` keys,
    /// each patched onto a clone of the current structure and onto the
    /// one behind it plus its lag, and checked against a fresh build with
    /// the same `T_chunk`. Round 2 changes nothing, so round 3's lag is
    /// empty.
    fn reweight_chain(n: usize, chunk: usize, tchunk: Tchunk, rng: &mut StdRng, how: &str) {
        let mut pairs = pairs(n, n as u64);
        let mut base = ChunkedRange::build(pairs.clone(), chunk, tchunk).unwrap();
        let mut behind: Option<(ChunkedRange, Vec<usize>)> = None;
        for round in 0..6 {
            // Clustered ranks (several per chunk, some twice) with
            // weights up to 2^±60 apart, plus a rank the lag changed and
            // one listed twice.
            let weight = |rng: &mut StdRng| 2f64.powi(rng.random_range(-60..61));
            let at = rng.random_range(0..n);
            let mut changes: Vec<(usize, f64)> = (0..rng.random_range(1..20usize))
                .map(|_| {
                    let rank = [rng.random_range(0..n), (at + rng.random_range(0..9usize)) % n];
                    (rank[rng.random_range(0..2usize)], weight(rng))
                })
                .collect();
            if let Some(&rank) = behind.as_ref().and_then(|(_, lag)| lag.first()) {
                changes.push((rank, weight(rng)));
            }
            changes.push((changes[0].0, weight(rng)));
            if round == 2 {
                changes.clear();
            }
            for &(rank, w) in &changes {
                pairs[rank].1 = w;
            }
            let fresh = ChunkedRange::build(pairs.clone(), chunk, tchunk).unwrap();
            let what = format!("n = {n}, c = {chunk}{how}, round {round}");
            let patched = base.reweighted(&changes, None).unwrap();
            assert_eq!(format!("{patched:?}"), format!("{fresh:?}"), "{what}");
            let next = match behind.take() {
                Some((old, lag)) => base.reweighted(&changes, Some((old, &lag))).unwrap(),
                None => patched,
            };
            assert_eq!(format!("{next:?}"), format!("{fresh:?}"), "{what}, behind");
            let lag = changes.iter().map(|&(rank, _)| rank).collect();
            behind = Some((std::mem::replace(&mut base, next), lag));
        }
    }

    #[test]
    fn a_structure_behind_must_share_the_cut() {
        let full = ChunkedRange::new(pairs(1000, 4)).unwrap();
        let cut = ChunkedRange::for_reweights(pairs(1000, 4)).unwrap();
        let caught = std::panic::catch_unwind(|| cut.reweighted(&[(3, 2.0)], Some((full, &[7]))));
        assert!(caught.is_err(), "a full T_chunk was brought forward into a cut one");
    }

    proptest::proptest! {
        /// One long-lived plan (and tiles) through a seeded run of
        /// queries — repeated ranges of both plan kinds, empty and
        /// inverted ones — on both constructors' structures, re-weighted
        /// now and then into the structure one publication behind: every
        /// query through the id door must draw the ranks a fresh plan
        /// draws from the same RNG state.
        #[test]
        fn a_kept_plan_replays_a_fresh_one(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut plan, mut tiles) = (QueryPlan::default(), Box::<Tiles>::default());
            let (mut hits, mut reweights) = (0, 0);
            for build in [ChunkedRange::new, ChunkedRange::for_reweights] {
                let n = rng.random_range(40..700usize);
                let weight = |rng: &mut StdRng| 2f64.powi(rng.random_range(-20..21));
                let pairs = (0..n).map(|i| (i as f64, weight(&mut rng))).collect();
                let mut current = build(pairs).unwrap();
                let c = current.chunk_len() as f64;
                let mut behind: Option<(ChunkedRange, Vec<usize>)> = None;
                let (mut x, mut y) = (0.0, n as f64);
                // Short: at most `c` keys, inside two chunks; Pieces:
                // over `3c` keys or more, across whole chunks.
                let a = rng.random_range(0..n / 2) as f64;
                let ranges = [
                    (a, a + rng.random_range(0.0..c)),
                    (a, a + rng.random_range(3.0 * c..n as f64)),
                    (f64::NEG_INFINITY, f64::INFINITY),
                    (n as f64, 2.0 * n as f64),
                    (a + 1.0, a),
                    (f64::NAN, a),
                ];
                for _ in 0..40 {
                    if rng.random_bool(0.2) {
                        // Most of the re-weighted ranks lie in the ranges
                        // the queries repeat.
                        let changes: Vec<(usize, f64)> = (0..rng.random_range(1..8usize))
                            .map(|_| {
                                let rank = (a as usize + rng.random_range(0..3 * c as usize)) % n;
                                (rank, weight(&mut rng))
                            })
                            .collect();
                        let lag = changes.iter().map(|&(rank, _)| rank).collect();
                        let next = match behind.take() {
                            Some((old, lag)) => current.reweighted(&changes, Some((old, &lag))),
                            None => current.reweighted(&changes, None),
                        };
                        behind = Some((std::mem::replace(&mut current, next.unwrap()), lag));
                        reweights += 1;
                        continue;
                    }
                    // Half the time, the range asked last again.
                    if rng.random_bool(0.5) {
                        (x, y) = ranges[rng.random_range(0..ranges.len())];
                    }
                    let s = [0usize, 1, 7, 64, 300][rng.random_range(0..5usize)];
                    let words = rng.random::<u64>();
                    let hit = plan.key == current.stamp.key(x, y);
                    let (mut kept, mut fresh) = (vec![u64::from(u32::MAX); s], vec![u32::MAX; s]);
                    let got = current.sample_ids_planned(
                        &mut plan, &mut tiles, x, y, &mut StdRng::seed_from_u64(words), None, &mut kept,
                    );
                    let want =
                        current.sample_wr_batch(x, y, &mut StdRng::seed_from_u64(words), &mut fresh);
                    proptest::prop_assert_eq!(got, want, "[{}, {}]", x, y);
                    let fresh: Vec<u64> = fresh.iter().map(|&r| u64::from(r)).collect();
                    proptest::prop_assert_eq!(&kept, &fresh, "[{}, {}], hit: {}", x, y, hit);
                    hits += usize::from(hit);
                }
            }
            // The run exercised both halves of the claim.
            proptest::prop_assert!(hits > 0 && reweights > 0, "{} hits, {} re-weights", hits, reweights);
        }
    }

    proptest::proptest! {
        /// The id door against the rank door: from equal seeds, each id
        /// it writes is the id of the rank `sample_wr_batch` draws —
        /// the rank itself on a static view, `ids[rank]` on a keyed one
        /// and on a view built for re-weights, re-weighted now and then.
        /// One plan and one set of tiles serve every query, across sizes
        /// on both sides of every tile seam, short and chunked ranges and
        /// the views in turn, so a tile read before it is written in the
        /// same query would show.
        #[test]
        fn the_id_door_replays_the_rank_door(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(100..3000usize);
            let weight = |rng: &mut StdRng| 2f64.powi(rng.random_range(-20..21));
            let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, weight(&mut rng))).collect();
            let keyed: Vec<u64> = (0..n).map(|_| rng.random()).collect();
            let mut views = [
                (ChunkedRange::new(pairs.clone()).unwrap(), None),
                (ChunkedRange::new(pairs.clone()).unwrap(), Some(keyed.as_slice())),
                (ChunkedRange::for_reweights(pairs).unwrap(), Some(keyed.as_slice())),
            ];
            let c = views[0].0.chunk_len() as f64;
            let (mut plan, mut tiles) = (QueryPlan::default(), Box::<Tiles>::default());
            let (mut shorts, mut longs) = (0, 0);
            for _ in 0..40 {
                let v = rng.random_range(0..views.len());
                if v == 2 && rng.random_bool(0.2) {
                    let changes: Vec<(usize, f64)> = (0..rng.random_range(1..8usize))
                        .map(|_| (rng.random_range(0..n), weight(&mut rng)))
                        .collect();
                    views[2].0 = views[2].0.reweighted(&changes, None).unwrap();
                }
                let (view, ids) = &views[v];
                let a = rng.random_range(0..n) as f64;
                let (x, y) = match rng.random_range(0..4) {
                    0 => (a, a + rng.random_range(0.0..c)),
                    1 => (a.min(n as f64 / 2.0), a + rng.random_range(3.0 * c..n as f64)),
                    2 => (f64::NEG_INFINITY, f64::INFINITY),
                    _ => (a + 1.0, a),
                };
                let s = [0usize, 1, 15, 16, 17, 63, 64, 255, 256, 257, 4096][rng.random_range(0..11usize)];
                let words = rng.random::<u64>();
                let mut ranks = vec![u32::MAX; s];
                let want = view.sample_wr_batch(x, y, &mut StdRng::seed_from_u64(words), &mut ranks);
                let mut got = vec![u64::MAX; s];
                let drew = view.sample_ids_planned(
                    &mut plan, &mut tiles, x, y, &mut StdRng::seed_from_u64(words), *ids, &mut got,
                );
                proptest::prop_assert_eq!(drew, want, "view {} [{}, {}]", v, x, y);
                let expect: Vec<u64> = match want {
                    Ok(()) => ranks.iter().map(|&r| ids.map_or(u64::from(r), |ids| ids[r as usize])).collect(),
                    Err(_) => vec![u64::MAX; s],
                };
                proptest::prop_assert_eq!(&got, &expect, "view {} [{}, {}], s = {}", v, x, y, s);
                match plan.shape {
                    Shape::Short { .. } if want.is_ok() => shorts += 1,
                    Shape::Pieces(_) if want.is_ok() => longs += 1,
                    _ => {}
                }
            }
            proptest::prop_assert!(shorts > 0 && longs > 0, "{} short, {} chunked", shorts, longs);
        }
    }

    #[test]
    fn a_fresh_query_inside_the_kept_tiles_draws_in_fresh_ones() {
        // The rank door runs in the thread's kept tiles; asked from inside
        // them it gets fresh ones, and draws the same either way.
        let s = ChunkedRange::new(pairs(3000, 7)).unwrap();
        let draw = || {
            let mut out = [0u32; 300];
            s.sample_wr_batch(10.0, 2000.0, &mut StdRng::seed_from_u64(8), &mut out).unwrap();
            out
        };
        let outside = draw();
        assert_eq!(Tiles::with_kept(|_| draw()), outside);
        assert_eq!(draw(), outside);
    }

    #[test]
    fn a_plan_key_follows_content_not_the_value() {
        let s = ChunkedRange::new(pairs(300, 5)).unwrap();
        assert_eq!(s.clone().stamp, s.stamp, "a clone has the same content");
        let mut text = String::new();
        serde::Serialize::serialize_json(&s, &mut text);
        assert!(!text.contains("stamp"), "a stamp is never written");
        let back: ChunkedRange =
            serde::Deserialize::deserialize_json(&mut serde::de::Parser::new(&text)).unwrap();
        assert_eq!(format!("{back:?}"), format!("{s:?}"), "Debug shows content only");
        let reweighted = s.reweighted(&[], None).unwrap();
        assert!(back.stamp != s.stamp && reweighted.stamp != s.stamp, "new content, new stamp");
        // A failed plan matches nothing, not even the range it failed on.
        let (mut plan, mut tiles) = (QueryPlan::default(), Tiles::default());
        let mut draw = |plan: &mut QueryPlan, x, y, out: &mut [u64]| {
            s.sample_ids_planned(plan, &mut tiles, x, y, &mut StdRng::seed_from_u64(1), None, out)
        };
        draw(&mut plan, 10.0, 20.0, &mut [0; 4]).unwrap();
        assert_eq!(plan.key, s.stamp.key(10.0, 20.0));
        let empty = draw(&mut plan, 20.0, 10.0, &mut []);
        assert_eq!(empty, Err(QueryError::EmptyRange));
        assert_eq!(plan.key, [0; 3]);
    }

    /// Both constructors a re-weight may start from, over 50 keys: 9
    /// chunks, so the one for re-weights tables its leaves only.
    fn reweight_bases() -> [ChunkedRange; 2] {
        [
            ChunkedRange::new(pairs(50, 3)).unwrap(),
            ChunkedRange::for_reweights(pairs(50, 3)).unwrap(),
        ]
    }

    #[test]
    fn reweighted_rejects_a_sum_that_overflows() {
        // One huge weight is fine; two in one chunk, or in two, are not —
        // the latter with no table over both chunks in the structure for
        // re-weights.
        for base in reweight_bases() {
            assert!(base.reweighted(&[(1, 1e308)], None).is_ok());
            for overflow in [[(1, 1e308), (2, 1e308)], [(1, 1e308), (40, 1e308)]] {
                assert_eq!(base.reweighted(&overflow, None).unwrap_err(), QueryError::EmptyRange);
            }
        }
    }

    #[test]
    fn reweighted_rejects_what_new_rejects() {
        for base in reweight_bases() {
            for bad in [(50, 1.0), (0, 0.0), (0, -2.0), (0, f64::NAN), (0, f64::INFINITY)] {
                assert_eq!(
                    base.reweighted(&[(1, 2.0), bad], None).unwrap_err(),
                    QueryError::EmptyRange
                );
            }
            assert_eq!(base.reweighted(&[], None).unwrap().weights(), base.weights());
        }
    }

    #[test]
    fn duplicate_keys_are_supported() {
        let pairs: Vec<(f64, f64)> = (0..100).map(|i| ((i / 10) as f64, 1.0)).collect();
        for s in [
            Box::new(TreeSamplingRange::new(pairs.clone()).unwrap()) as Box<dyn RangeSampler>,
            Box::new(ChunkedRange::new(pairs.clone()).unwrap()),
        ] {
            assert_eq!(s.range_count(3.0, 5.0), 30);
            let mut rng = StdRng::seed_from_u64(19);
            let out = s.sample_wr(3.0, 5.0, 50, &mut rng).unwrap();
            assert!(out.iter().all(|&r| (30..60).contains(&r)));
        }
    }

    #[test]
    fn chunked_boundary_alignment_cases() {
        // n = 64, c = 6 → chunks of 6; craft queries hitting alignment
        // edge cases.
        let s = ChunkedRange::new(pairs(64, 20)).unwrap();
        let c = s.chunk_len();
        let mut rng = StdRng::seed_from_u64(21);
        for (a, b) in [
            (0.0, 63.0),                      // everything
            (0.0, (c - 1) as f64),            // exactly chunk 0
            (c as f64, (2 * c - 1) as f64),   // exactly chunk 1
            ((c - 1) as f64, (c) as f64),     // straddles one boundary
            (1.0, 62.0),                      // both ends partial
            ((c) as f64, (3 * c - 1) as f64), // aligned start, aligned end
        ] {
            let out = s.sample_wr(a, b, 64, &mut rng).unwrap();
            let (lo, hi) = s.rank_range(a, b);
            assert!(
                out.iter().all(|&r| (lo..hi).contains(&r)),
                "query [{a},{b}] produced out-of-range rank"
            );
        }
    }
}
