use rand::{Rng, RngCore};

use crate::batch::BlockRng64;
use crate::space::{vec_words, SpaceUsage};
use crate::{validate_weights, WeightError};

/// Walker's alias structure (Theorem 1 of the paper).
///
/// Given `n` positive weights `w(0..n)` with total `W`, the structure
/// occupies `O(n)` space, is built in `O(n)` time, and draws an index `i`
/// with probability `w(i)/W` in `O(1)` worst-case time per draw. Draws are
/// mutually independent because each consumes fresh randomness from the
/// caller's RNG.
///
/// The construction is the urn-filling procedure of Section 3.1, implemented
/// in its classical two-worklist ("Vose") form: every urn (column) holds at
/// most two elements and total probability exactly `1/n`, so a draw picks a
/// uniform column and then flips one biased coin.
///
/// # Example
/// ```
/// use iqs_alias::AliasTable;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let table = AliasTable::new(&[1.0, 2.0, 7.0]).unwrap();
/// let mut rng = StdRng::seed_from_u64(7);
/// let counts = (0..10_000).fold([0u32; 3], |mut c, _| {
///     c[table.sample(&mut rng)] += 1;
///     c
/// });
/// assert!(counts[2] > counts[1] && counts[1] > counts[0]);
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AliasTable {
    /// One packed urn row per column (see [`AliasRows`]).
    rows: Vec<u64>,
    /// Total weight of the input, retained for composition with other
    /// structures (e.g. when this table represents one canonical node).
    total: f64,
}

/// 2³²: the denominator of the 32-bit coin.
const COIN_SCALE: f64 = 4_294_967_296.0;

/// The row of a column that always resolves to itself.
#[inline(always)]
fn keep_row(col: u32) -> u64 {
    u64::from(u32::MAX) << 32 | u64::from(col)
}

/// Packs column `col`'s urn — it keeps itself with probability `prob`
/// and otherwise yields `alias` — into one row: `thr = ⌈prob·2³²⌉` in
/// the high half, `alias` in the low half. The coin is an integer `lo`
/// of 32 bits, and for an integer `lo < x ⇔ lo < ⌈x⌉`, so `lo < thr`
/// decides exactly as `lo/2³² < prob` does; the scaling by a power of
/// two is exact in `f64`, and the ceiling is taken in integers (`ceil`
/// is a library call on baseline x86-64, and this runs once per row
/// built). A threshold of 2³² (the coin always keeps the column) does
/// not fit the half and is stored as [`keep_row`], whose two outcomes
/// coincide.
#[inline(always)]
fn pack_row(prob: f64, alias: u32, col: u32) -> u64 {
    let scaled = prob * COIN_SCALE;
    if scaled > COIN_SCALE - 1.0 {
        keep_row(col)
    } else {
        let floor = scaled as u64;
        (floor + u64::from((floor as f64) < scaled)) << 32 | u64::from(alias)
    }
}

/// Worklist storage for [`AliasRows::build`], grown as needed and
/// otherwise left alone, so a caller building many tables allocates
/// once.
#[derive(Debug, Default)]
pub struct BuildScratch {
    /// The columns' running probabilities, scaled so the average is 1.
    prob: Vec<f64>,
    /// Both worklists: the under-full columns stack up from the front
    /// and the over-full ones down from position `n`, which never meet
    /// because a column is on at most one list.
    work: Vec<u32>,
}

/// The urn rows of one alias table, borrowed: row `i` is 8 bytes,
/// `thr: u32 | alias: u32`, where column `i` resolves to itself when the
/// draw's 32-bit coin is below `thr` and to `alias` (the second element
/// sharing urn `i`) otherwise. One row is one load on one cache line.
///
/// This type is the row format: the one construction routine
/// ([`AliasRows::build`], into a caller-provided slice), the two
/// primitives every draw is made of ([`AliasRows::column_of`],
/// [`AliasRows::select`]) and, on a view, the table-level draws built
/// from them. An [`AliasTable`] owns its array and lends it through
/// [`AliasTable::rows`]; the composite structures (Lemma 2's per-node
/// tables, Theorem 3's per-chunk tables) `build` many tables back to
/// back into one array and go from a draw's word straight to a row
/// position with the same two primitives, so a draw reaches its row
/// without loading a per-table header first.
#[derive(Debug, Clone, Copy)]
pub struct AliasRows<'a> {
    rows: &'a [u64],
}

impl<'a> AliasRows<'a> {
    /// The table whose rows [`Self::build`] wrote into `rows`, for a
    /// caller that owns the array and rebuilds it in place.
    #[inline(always)]
    pub fn new(rows: &'a [u64]) -> Self {
        AliasRows { rows }
    }

    /// Vose's two-worklist form of the urn-filling procedure of Section
    /// 3.1: fills `rows` (`weights.len()` long) with the table of
    /// `weights` in `O(n)` time and returns the total weight. The
    /// probabilities are worked out in `f64` in `scratch` and each row
    /// is packed once, when its column closes. Alias entries are
    /// positions within this table, so the rows mean the same wherever
    /// the slice sits in a larger array.
    ///
    /// # Errors
    /// [`WeightError`] if `weights` is empty or contains a non-finite or
    /// non-positive entry, or if `n > u32::MAX` elements are supplied.
    ///
    /// # Panics
    /// If `rows` is not `weights.len()` long.
    pub fn build(
        weights: &[f64],
        rows: &mut [u64],
        scratch: &mut BuildScratch,
    ) -> Result<f64, WeightError> {
        let total = validate_weights(weights)?;
        let n = weights.len();
        if n > u32::MAX as usize {
            return Err(WeightError::TotalOverflow);
        }
        assert!(rows.len() == n, "one row per weight");
        if scratch.work.len() < n {
            scratch.work.resize(n, 0);
            scratch.prob.resize(n, 0.0);
        }
        let (prob, work) = (&mut scratch.prob[..n], &mut scratch.work[..n]);
        // Scale so the average weight is exactly 1: p[i] = w[i] * n / W.
        let scale = n as f64 / total;
        let (mut small, mut large) = (0, n);
        for (i, &w) in weights.iter().enumerate() {
            let p = w * scale;
            prob[i] = p;
            // Written to the free end of both stacks, kept by one: which
            // list a column joins is a coin flip the branch predictor
            // loses, so the partition is done without a branch.
            let under = usize::from(p < 1.0);
            work[small] = i as u32;
            work[large - 1] = i as u32;
            small += under;
            large -= 1 - under;
        }
        while small > 0 && large < n {
            small -= 1;
            let (s, l) = (work[small] as usize, work[large] as usize);
            // Column `s` is closed: it keeps probability prob[s] for itself
            // and routes the rest to `l`, which donated (1 - prob[s]).
            rows[s] = pack_row(prob[s], l as u32, s as u32);
            prob[l] -= 1.0 - prob[s];
            if prob[l] < 1.0 {
                large += 1;
                work[small] = l as u32;
                small += 1;
            }
        }
        // Numerical slack: any column left in either list keeps itself.
        for &i in work[..small].iter().chain(&work[large..n]) {
            rows[i as usize] = keep_row(i);
        }
        crate::prof::add_alias_entries_built(n as u64);
        Ok(total)
    }

    /// The column of an `n`-column table that word `z` chooses: its high
    /// half through the widening multiply (`n ≤ u32::MAX`, enforced by
    /// [`Self::build`]).
    #[inline(always)]
    pub fn column_of(z: u64, n: usize) -> usize {
        (((z >> 32) * n as u64) >> 32) as usize
    }

    /// One row's decision, without a branch: `kept` when the coin is below
    /// the row's threshold, `base` plus the row's alias entry otherwise.
    /// [`Self::resolve`] is this with the column itself as `kept`; the
    /// composite kernels, which know a row by its position in a shared
    /// array, pass the answer the column stands for and the offset of the
    /// table the alias entry is relative to.
    #[inline(always)]
    pub fn select(row: u64, coin: u32, kept: u32, base: u32) -> u32 {
        let keep = u32::from(u64::from(coin) < row >> 32).wrapping_neg();
        (kept & keep) | (base.wrapping_add(row as u32) & !keep)
    }

    /// Decodes one uniform 64-bit word into a weighted index — the heart
    /// of every (batched or sequential) alias draw.
    ///
    /// The two classical random decisions are carved out of disjoint halves
    /// of the word: the **high 32 bits** pick the column through a widening
    /// multiply (`col = (hi · n) >> 32`, the Lemire mapping), and the
    /// **low 32 bits** are the biased coin, compared as an integer against
    /// the row's threshold. Because the halves are independent, so are the
    /// column and the coin; the per-draw distortion from the 32-bit
    /// granularity is at most 2⁻³² per outcome, far below anything
    /// observable.
    ///
    /// (A wider, overlapping coin — e.g. "the low 53 bits" — would be
    /// *wrong* for `n > 2¹¹`: conditioned on the chosen column, the
    /// overlapping bits are confined to a 1/`n` arc of the unit interval,
    /// biasing the coin. The disjoint 32/32 split avoids that entirely.)
    #[inline(always)]
    pub fn decode(&self, z: u64) -> usize {
        let (col, coin) = self.split_word(z);
        self.resolve(col, coin)
    }

    /// First half of [`Self::decode`]: splits a word into the chosen
    /// column and the coin (its low half, as an integer), touching only
    /// the table *length*. Batch callers use this to separate the cheap
    /// index arithmetic from the table loads so that many draws' memory
    /// accesses overlap.
    #[inline(always)]
    pub fn split_word(&self, z: u64) -> (usize, u32) {
        (Self::column_of(z, self.rows.len()), z as u32)
    }

    /// Second half of [`Self::decode`]: resolves a (column, coin) pair
    /// through the column's row.
    #[inline(always)]
    pub fn resolve(&self, col: usize, coin: u32) -> usize {
        Self::select(self.rows[col], coin, col as u32, 0) as usize
    }

    /// Vectorized first half of [`Self::decode`] over a whole word
    /// buffer: computes every draw's column before any table row is
    /// touched. The loop body is branch-free integer arithmetic on two
    /// flat slices, which the compiler auto-vectorizes to SIMD width;
    /// separating it from the gather phase is what lets the pipelined
    /// kernels overlap the dependent row loads (see [`crate::pipeline`]).
    ///
    /// # Panics
    /// If `cols` is shorter than `words`.
    #[inline]
    pub fn decode_many(&self, words: &[u64], cols: &mut [u32]) {
        let n = self.rows.len();
        for (&z, col) in words.iter().zip(&mut cols[..words.len()]) {
            *col = Self::column_of(z, n) as u32;
        }
    }

    /// Hints the cache hierarchy to pull column `col`'s urn row — issued
    /// ahead of the [`Self::resolve`] that will read it. Out-of-range
    /// columns are ignored (see [`crate::prefetch`]).
    #[inline(always)]
    pub fn prefetch_row(&self, col: usize) {
        crate::prefetch::slice_element(self.rows, col);
    }

    /// The pipelined batch kernel: fills `out` with `base + index` for
    /// independent weighted indices drawn from `block`'s word stream.
    ///
    /// This is the shared fast path behind [`AliasTable::sample_into`]
    /// *and* the composite structures' single-table queries (Theorem 3's
    /// enumerated short range), which pass their element offset as
    /// `base` instead of translating in a second pass. Each
    /// [`crate::pipeline::TILE`]-draw tile runs the staged shape
    /// documented in [`crate::pipeline`]: bulk word fill (sequence
    /// order, so draws stay bit-identical to the sequential path), then
    /// [`Self::sample_tile`].
    pub fn sample_block_into<R: RngCore + ?Sized>(
        &self,
        block: &mut BlockRng64<'_, R>,
        base: u32,
        out: &mut [u32],
    ) {
        let mut words = [0u64; crate::pipeline::TILE];
        let mut cols = [0u32; crate::pipeline::TILE];
        for tile in out.chunks_mut(crate::pipeline::TILE) {
            let m = tile.len();
            block.fill_words(&mut words[..m]);
            self.sample_tile(&words[..m], &mut cols[..m], base, tile);
        }
    }

    /// One tile of [`Self::sample_block_into`] over words already drawn,
    /// one per draw, in tile arrays the caller owns — so a caller that
    /// keeps them fills nothing per call: vectorized
    /// [`Self::decode_many`] into `cols`, then the row pass with its
    /// prefetch running ahead, writing `base + index` to `out`.
    ///
    /// # Panics
    /// If `cols` or `out` is not as long as `words`.
    #[inline]
    pub fn sample_tile(&self, words: &[u64], cols: &mut [u32], base: u32, out: &mut [u32]) {
        let m = words.len();
        assert!(cols.len() == m && out.len() == m, "one column and one output per word");
        self.decode_many(words, cols);
        // Redirect stats accumulate in a register and flush once per
        // tile (see `crate::prof`), so the row pass stays tight.
        let mut redirects = 0u64;
        crate::pipeline::pass(
            m,
            |i| self.prefetch_row(cols[i] as usize),
            |i| {
                let idx = self.resolve(cols[i] as usize, words[i] as u32);
                redirects += u64::from(idx != cols[i] as usize);
                out[i] = base + idx as u32;
            },
        );
        crate::prof::add_alias_redirects(redirects);
    }
}

impl AliasTable {
    /// Builds the table from positive weights in `O(n)` time
    /// ([`AliasRows::build`] into a fresh array).
    ///
    /// # Errors
    /// [`WeightError`] if `weights` is empty or contains a non-finite or
    /// non-positive entry, or if `n > u32::MAX` elements are supplied.
    pub fn new(weights: &[f64]) -> Result<Self, WeightError> {
        let mut rows = vec![0; weights.len()];
        let total = AliasRows::build(weights, &mut rows, &mut BuildScratch::default())?;
        Ok(AliasTable { rows, total })
    }

    /// Builds a table for `n` *equal* weights. The resulting table degrades
    /// to uniform index sampling but keeps the same API, which simplifies
    /// with-replacement (WR) callers.
    pub fn uniform(n: usize) -> Result<Self, WeightError> {
        if n == 0 {
            return Err(WeightError::Empty);
        }
        Ok(AliasTable { rows: (0..n as u32).map(keep_row).collect(), total: n as f64 })
    }

    /// The table's urn rows — the view every draw runs on.
    #[inline(always)]
    pub fn rows(&self) -> AliasRows<'_> {
        AliasRows { rows: &self.rows }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no elements (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total input weight `W`.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Decodes one uniform 64-bit word into a weighted index
    /// ([`AliasRows::decode`] on this table's rows).
    #[inline(always)]
    pub fn decode(&self, z: u64) -> usize {
        self.rows().decode(z)
    }

    /// Draws one index in `O(1)` worst-case time, consuming a single
    /// 64-bit word from `rng` (see [`AliasRows::decode`]).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.decode(rng.next_u64())
    }

    /// Draws one index from an already-buffered word block — the form the
    /// composite structures use inside their batched query paths.
    #[inline(always)]
    pub fn sample_block<R: RngCore + ?Sized>(&self, block: &mut BlockRng64<'_, R>) -> usize {
        self.decode(block.next_word())
    }

    /// Fills `out` with independent weighted indices — the allocation-free
    /// batch API. Randomness is pulled from `rng` in blocks (one
    /// `fill_bytes` call per 64 draws), so this is the fast path even when
    /// `rng` is a `&mut dyn RngCore`.
    ///
    /// Indices fit in `u32` because construction caps `n` at `u32::MAX`.
    pub fn sample_into<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [u32]) {
        let mut block = BlockRng64::with_budget(rng, out.len());
        self.sample_block_into(&mut block, 0, out);
    }

    /// The pipelined batch kernel, [`AliasRows::sample_block_into`] on
    /// this table's rows: fills `out` with `base + index`.
    pub fn sample_block_into<R: RngCore + ?Sized>(
        &self,
        block: &mut BlockRng64<'_, R>,
        base: u32,
        out: &mut [u32],
    ) {
        self.rows().sample_block_into(block, base, out);
    }

    /// Draws `s` independent indices, appending to `out`. Uses the same
    /// blocked randomness as [`Self::sample_into`].
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<usize>) {
        out.reserve(s);
        let mut block = BlockRng64::with_budget(rng, s);
        for _ in 0..s {
            out.push(self.decode(block.next_word()));
        }
    }

    /// Exact probability with which [`Self::sample`] returns `i`, computed
    /// from the table itself (used by tests to confirm the urn conditions
    /// of Section 3.1 hold — to the coin's 2⁻³² granularity, which the
    /// packed thresholds carry — not merely statistically).
    pub fn realized_probability(&self, i: usize) -> f64 {
        let n = self.rows.len() as f64;
        let mut p = 0.0;
        for (col, &row) in self.rows.iter().enumerate() {
            // Of the coin's 2³² values, `thr` keep the column; a
            // `keep_row`'s alias is the column again.
            let keep = (row >> 32) as f64 / COIN_SCALE;
            if col == i {
                p += keep / n;
            }
            if row as u32 as usize == i {
                p += (1.0 - keep) / n;
            }
        }
        p
    }
}

impl SpaceUsage for AliasTable {
    fn space_words(&self) -> usize {
        vec_words(&self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chi_square_uniformish(weights: &[f64], draws: usize, seed: u64) -> f64 {
        let table = AliasTable::new(weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        let mut chi = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            let expect = draws as f64 * weights[i] / total;
            chi += (c as f64 - expect).powi(2) / expect;
        }
        chi
    }

    #[test]
    fn single_element() {
        let t = AliasTable::new(&[42.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn empty_rejected() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::uniform(0).is_err());
    }

    #[test]
    fn realized_probabilities_match_weights_exactly() {
        // Verifies urn condition (2): the weight of e is spread over the
        // urns containing e. The realized probability must equal w/W to
        // the granularity of the packed thresholds: each column's is
        // rounded up by less than 2⁻³², so an element's total is off by
        // less than that.
        let weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let total: f64 = weights.iter().sum();
        let t = AliasTable::new(&weights).unwrap();
        for (i, &w) in weights.iter().enumerate() {
            let p = t.realized_probability(i);
            assert!(
                (p - w / total).abs() < 2.4e-10,
                "element {i}: realized {p}, want {}",
                w / total
            );
        }
    }

    #[test]
    fn realized_probabilities_sum_to_one() {
        let weights: Vec<f64> = (1..=257).map(|i| 1.0 / i as f64).collect();
        let t = AliasTable::new(&weights).unwrap();
        let sum: f64 = (0..weights.len()).map(|i| t.realized_probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavily_skewed_weights() {
        let weights = [1e-12, 1.0, 1e12];
        let t = AliasTable::new(&weights).unwrap();
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            assert!((t.realized_probability(i) - w / total).abs() < 1e-9);
        }
    }

    #[test]
    fn empirical_distribution_is_plausible() {
        // chi^2 with k-1 = 3 dof; 30 is far beyond any sane quantile.
        let chi = chi_square_uniformish(&[1.0, 2.0, 3.0, 4.0], 200_000, 99);
        assert!(chi < 30.0, "chi^2 = {chi}");
    }

    #[test]
    fn uniform_table_is_uniform() {
        let t = AliasTable::uniform(16).unwrap();
        for i in 0..16 {
            assert!((t.realized_probability(i) - 1.0 / 16.0).abs() < 1e-12);
        }
        assert_eq!(t.total_weight(), 16.0);
    }

    #[test]
    fn space_is_linear() {
        let t = AliasTable::uniform(1000).unwrap();
        // 1000 packed rows of 8 bytes.
        assert_eq!(t.space_words(), 1000);
    }

    #[test]
    fn sample_many_appends() {
        let t = AliasTable::uniform(4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = vec![77usize];
        t.sample_many(&mut rng, 5, &mut out);
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], 77);
        assert!(out[1..].iter().all(|&i| i < 4));
    }

    #[test]
    fn batch_matches_sequential_stream() {
        // StdRng's fill_bytes emits whole LE next_u64 words, so the batch
        // path must reproduce the sequential draws exactly.
        let t = AliasTable::new(&[1.0, 2.0, 3.0, 4.0, 5.5]).unwrap();
        let mut a = StdRng::seed_from_u64(77);
        let mut batch = vec![0u32; 100];
        t.sample_into(&mut a, &mut batch);
        let mut b = StdRng::seed_from_u64(77);
        let seq: Vec<u32> = (0..100).map(|_| t.sample(&mut b) as u32).collect();
        assert_eq!(batch, seq);
    }

    #[test]
    fn decode_covers_full_word_domain() {
        let t = AliasTable::new(&[2.0, 1.0, 1.0]).unwrap();
        // Extremes of the word domain must stay in bounds: z = 0 picks
        // column 0 with coin 0; z = MAX picks the last column with the
        // largest coin.
        assert!(t.decode(0) < 3);
        assert!(t.decode(u64::MAX) < 3);
        // High half selects the column: sweep a few boundaries.
        for hi in [0u64, 1, (1 << 32) / 3, (1 << 32) - 1] {
            assert!(t.decode(hi << 32) < 3);
        }
    }

    #[test]
    fn sample_block_matches_decode() {
        let t = AliasTable::new(&[1.0, 4.0]).unwrap();
        let mut src = StdRng::seed_from_u64(12);
        let mut block = crate::BlockRng64::new(&mut src);
        let via_block: Vec<usize> = (0..64).map(|_| t.sample_block(&mut block)).collect();
        let mut seq = StdRng::seed_from_u64(12);
        let direct: Vec<usize> = (0..64).map(|_| t.decode(seq.next_u64())).collect();
        assert_eq!(via_block, direct);
    }

    #[test]
    fn decode_many_matches_split_word() {
        let t = AliasTable::new(&[1.0, 2.0, 3.0, 4.0, 5.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let words: Vec<u64> = (0..300).map(|_| rand::RngCore::next_u64(&mut rng)).collect();
        let mut cols = vec![0u32; 300];
        t.rows().decode_many(&words, &mut cols);
        for (i, &z) in words.iter().enumerate() {
            let (col, coin) = t.rows().split_word(z);
            assert_eq!(cols[i] as usize, col);
            assert_eq!(coin, z as u32);
        }
    }

    /// The classical construction as the paper's reader would write
    /// it, in `f64` with one fresh `Vec` per array and per worklist: the
    /// reference [`AliasRows::build`] must reproduce entry for entry.
    fn two_list_vose(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
        let n = weights.len();
        let scale = n as f64 / validate_weights(weights).unwrap();
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large) = (Vec::new(), Vec::new());
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 { &mut small } else { &mut large }.push(i);
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l as u32;
            prob[l] -= 1.0 - prob[s];
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(&large) {
            prob[i] = 1.0;
            alias[i] = i as u32;
        }
        (prob, alias)
    }

    /// The decision the `f64` table makes for `coin` on column `col`.
    fn reference_decision(prob: &[f64], alias: &[u32], col: usize, coin: u32) -> usize {
        if f64::from(coin) / 4_294_967_296.0 < prob[col] {
            col
        } else {
            alias[col] as usize
        }
    }

    /// Every row of `table` decides as the reference table does, at the
    /// coins around its threshold and at both ends of the coin's range.
    fn assert_rows_decide_as_reference(weights: &[f64]) {
        let (prob, alias) = two_list_vose(weights);
        let table = AliasTable::new(weights).unwrap();
        for (col, &row) in table.rows.iter().enumerate() {
            let thr = (row >> 32) as u32;
            for coin in [0, thr.wrapping_sub(1), thr, thr.wrapping_add(1), u32::MAX] {
                assert_eq!(
                    table.rows().resolve(col, coin),
                    reference_decision(&prob, &alias, col, coin),
                    "column {col} (prob {}, row {row:#x}), coin {coin}",
                    prob[col],
                );
            }
        }
    }

    #[test]
    fn packed_rows_decide_as_the_f64_table_on_hard_families() {
        // 2^±60 ladders, one heavy element among n light ones, all equal.
        let ladder: Vec<f64> = (-60..=60).map(|e| 2f64.powi(e)).collect();
        assert_rows_decide_as_reference(&ladder);
        assert_rows_decide_as_reference(&ladder.iter().rev().copied().collect::<Vec<_>>());
        for n in [2usize, 3, 64, 1000] {
            let mut heavy = vec![1.0; n];
            heavy[n / 2] = 2f64.powi(60);
            assert_rows_decide_as_reference(&heavy);
            assert_rows_decide_as_reference(&vec![0.37; n]);
        }
        // Probabilities within 2⁻³² of 0 and of 1: with two columns,
        // p₀ = 2w₀/(w₀ + w₁).
        for e in [-30, -31, -32, -33, -34, -40, -52] {
            let eps = 2f64.powi(e);
            assert_rows_decide_as_reference(&[eps, 2.0 - eps]);
            assert_rows_decide_as_reference(&[1.0 - eps, 1.0 + eps]);
        }
        // A threshold of 2³² is stored as the column itself.
        let t = AliasTable::new(&[1.0 - 2f64.powi(-40), 1.0 + 2f64.powi(-40)]).unwrap();
        assert_eq!(t.rows[0], keep_row(0));
    }

    proptest::proptest! {
        /// Into a table's own array or into the middle of a shared
        /// one, with scratch of any previous size: the rows of the
        /// two-list construction, packed.
        #[test]
        fn build_into_slices_is_the_two_list_construction(
            exps in proptest::collection::vec(0u32..121, 1..80),
            frac in proptest::collection::vec(1.0f64..2.0, 80),
            offset in 0usize..7,
        ) {
            let weights: Vec<f64> =
                exps.iter().zip(&frac).map(|(&e, &f)| f * 2f64.powi(e as i32 - 60)).collect();
            let (prob, alias) = two_list_vose(&weights);
            let packed: Vec<u64> =
                (0..weights.len()).map(|i| pack_row(prob[i], alias[i], i as u32)).collect();
            let table = AliasTable::new(&weights).unwrap();
            proptest::prop_assert_eq!(&table.rows, &packed);
            let n = weights.len();
            let mut rows = vec![7u64; n + 9];
            let mut scratch = BuildScratch::default();
            AliasRows::build(&vec![1.0; offset * 13], &mut vec![0; offset * 13], &mut scratch).ok();
            let at = offset..offset + n;
            let total = AliasRows::build(&weights, &mut rows[at.clone()], &mut scratch);
            proptest::prop_assert_eq!(total.unwrap().to_bits(), table.total.to_bits());
            proptest::prop_assert_eq!(&rows[at.clone()], &packed[..]);
            // Nothing outside the table's rows was written.
            proptest::prop_assert!(rows[..offset].iter().chain(&rows[at.end..]).all(|&x| x == 7));
        }

        /// The packed-row oracle: over arbitrary weights up to 2^±60
        /// apart, every row's integer compare is the `f64` compare.
        #[test]
        fn packed_rows_decide_as_the_f64_table(
            exps in proptest::collection::vec(0u32..121, 1..80),
            frac in proptest::collection::vec(1.0f64..2.0, 80),
        ) {
            let weights: Vec<f64> =
                exps.iter().zip(&frac).map(|(&e, &f)| f * 2f64.powi(e as i32 - 60)).collect();
            assert_rows_decide_as_reference(&weights);
        }
    }

    #[test]
    fn build_counts_its_entries() {
        let before = crate::prof::read();
        AliasTable::new(&[1.0; 5]).unwrap();
        AliasTable::new(&[2.0; 3]).unwrap();
        assert!(AliasTable::new(&[]).is_err());
        assert_eq!(crate::prof::read().minus(&before).alias_entries_built, 8);
    }

    #[test]
    fn sample_block_into_applies_base_offset() {
        let t = AliasTable::new(&[1.0, 2.0, 3.0]).unwrap();
        let mut a = StdRng::seed_from_u64(63);
        let mut with_base = vec![0u32; 50];
        {
            let mut block = crate::BlockRng64::with_budget(&mut a, 50);
            t.sample_block_into(&mut block, 1000, &mut with_base);
        }
        let mut b = StdRng::seed_from_u64(63);
        let mut plain = vec![0u32; 50];
        t.sample_into(&mut b, &mut plain);
        let shifted: Vec<u32> = plain.iter().map(|&x| x + 1000).collect();
        assert_eq!(with_base, shifted);
    }

    #[test]
    fn pipelined_batch_matches_sequential_at_tile_boundaries() {
        let t = AliasTable::new(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]).unwrap();
        let tile = crate::pipeline::TILE;
        for s in [tile - 1, tile, tile + 1, 2 * tile + 17] {
            let mut a = StdRng::seed_from_u64(s as u64);
            let mut batch = vec![0u32; s];
            t.sample_into(&mut a, &mut batch);
            let mut b = StdRng::seed_from_u64(s as u64);
            let seq: Vec<u32> = (0..s).map(|_| t.sample(&mut b) as u32).collect();
            assert_eq!(batch, seq, "s = {s}");
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let t = AliasTable::new(&[1.0, 2.0, 3.0]).unwrap();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| t.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }
}
