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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// `prob[i]`: probability that column `i` resolves to `i` itself
    /// (as opposed to `alias[i]`), scaled to `[0, 1]`.
    prob: Vec<f64>,
    /// `alias[i]`: the second element sharing urn `i`.
    alias: Vec<u32>,
    /// Total weight of the input, retained for composition with other
    /// structures (e.g. when this table represents one canonical node).
    total: f64,
}

/// The urn rows of one alias table, borrowed: `prob[i]` is the
/// probability that column `i` resolves to `i` itself, `alias[i]` the
/// second element sharing urn `i`.
///
/// This is the type every draw runs on. An [`AliasTable`] owns its two
/// arrays and lends them through [`AliasTable::rows`]; the composite
/// structures (Lemma 2's per-node tables, Theorem 3's per-chunk tables)
/// keep many tables back to back in one pair of arrays and cut a view
/// per table, so a draw reaches its row without loading a per-table
/// header first. [`AliasRows::build`] is the one construction routine
/// behind both.
#[derive(Debug, Clone, Copy)]
pub struct AliasRows<'a> {
    prob: &'a [f64],
    alias: &'a [u32],
}

impl<'a> AliasRows<'a> {
    /// Views `prob`/`alias` — two equally long slices a
    /// [`AliasRows::build`] call filled — as one table.
    #[inline(always)]
    pub fn new(prob: &'a [f64], alias: &'a [u32]) -> Self {
        debug_assert_eq!(prob.len(), alias.len());
        AliasRows { prob, alias }
    }

    /// Vose's two-worklist form of the urn-filling procedure of Section
    /// 3.1: fills `prob`/`alias` (both `weights.len()` long) with the
    /// table of `weights` in `O(n)` time and returns the total weight.
    /// Entries of `alias` are positions within this table, so the rows
    /// mean the same wherever the slices sit in a larger array.
    ///
    /// `work` is the worklist storage, grown as needed and otherwise
    /// left alone, so a caller building many tables allocates once: the
    /// under-full columns stack up from its front and the over-full
    /// ones down from position `n`, which never meet because a column
    /// is on at most one list.
    ///
    /// # Errors
    /// [`WeightError`] if `weights` is empty or contains a non-finite or
    /// non-positive entry, or if `n > u32::MAX` elements are supplied.
    ///
    /// # Panics
    /// If `prob` or `alias` is not `weights.len()` long.
    pub fn build(
        weights: &[f64],
        prob: &mut [f64],
        alias: &mut [u32],
        work: &mut Vec<u32>,
    ) -> Result<f64, WeightError> {
        let total = validate_weights(weights)?;
        let n = weights.len();
        if n > u32::MAX as usize {
            return Err(WeightError::TotalOverflow);
        }
        assert!(prob.len() == n && alias.len() == n, "one row per weight");
        if work.len() < n {
            work.resize(n, 0);
        }
        // Scale so the average weight is exactly 1: p[i] = w[i] * n / W.
        let scale = n as f64 / total;
        let (mut small, mut large) = (0, n);
        for (i, &w) in weights.iter().enumerate() {
            let p = w * scale;
            prob[i] = p;
            alias[i] = i as u32;
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
            alias[s] = l as u32;
            prob[l] -= 1.0 - prob[s];
            if prob[l] < 1.0 {
                large += 1;
                work[small] = l as u32;
                small += 1;
            }
        }
        // Numerical slack: any column left in either list keeps itself.
        for &i in work[..small].iter().chain(&work[large..n]) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        crate::prof::add_alias_entries_built(n as u64);
        Ok(total)
    }

    /// Decodes one uniform 64-bit word into a weighted index — the heart
    /// of every (batched or sequential) alias draw.
    ///
    /// The two classical random decisions are carved out of disjoint halves
    /// of the word: the **high 32 bits** pick the column through a widening
    /// multiply (`col = (hi · n) >> 32`, the Lemire mapping), and the
    /// **low 32 bits** form the biased coin (`coin = lo / 2³²`). Because
    /// the halves are independent, so are the column and the coin; the
    /// per-draw distortion from the 32-bit granularity is at most 2⁻³² per
    /// outcome, far below anything observable.
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
    /// column and the coin, touching only the table *length*. Batch
    /// callers use this to separate the cheap index arithmetic from the
    /// table loads so that many draws' memory accesses overlap.
    #[inline(always)]
    pub fn split_word(&self, z: u64) -> (usize, f64) {
        let n = self.prob.len() as u64; // n ≤ u32::MAX, enforced by `build`
        let col = (((z >> 32) * n) >> 32) as usize;
        let coin = (z & 0xFFFF_FFFF) as f64 * (1.0 / 4_294_967_296.0);
        (col, coin)
    }

    /// Second half of [`Self::decode`]: resolves a precomputed
    /// (column, coin) pair through the urn arrays.
    #[inline(always)]
    pub fn resolve(&self, col: usize, coin: f64) -> usize {
        if coin < self.prob[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }

    /// Vectorized first half of [`Self::decode`] over a whole word
    /// buffer: computes every draw's column and coin before any table
    /// row is touched. The loop body is branch-free integer/float
    /// arithmetic on three flat slices, which the compiler
    /// auto-vectorizes to SIMD width; separating it from the gather
    /// phase is what lets the pipelined kernels overlap the dependent
    /// row loads (see [`crate::pipeline`]).
    ///
    /// # Panics
    /// If `cols` or `coins` is shorter than `words`.
    #[inline]
    pub fn decode_many(&self, words: &[u64], cols: &mut [u32], coins: &mut [f64]) {
        let n = self.prob.len() as u64; // n ≤ u32::MAX, enforced by `build`
        let cols = &mut cols[..words.len()];
        let coins = &mut coins[..words.len()];
        for ((&z, col), coin) in words.iter().zip(cols.iter_mut()).zip(coins.iter_mut()) {
            *col = (((z >> 32) * n) >> 32) as u32;
            *coin = (z & 0xFFFF_FFFF) as f64 * (1.0 / 4_294_967_296.0);
        }
    }

    /// Hints the cache hierarchy to pull column `col`'s urn row
    /// (`prob[col]` and `alias[col]`) — issued `K` draws ahead of the
    /// [`Self::resolve`] that will read it. Out-of-range columns are
    /// ignored (see [`crate::prefetch`]).
    #[inline(always)]
    pub fn prefetch_row(&self, col: usize) {
        crate::prefetch::slice_element(self.prob, col);
        crate::prefetch::slice_element(self.alias, col);
    }

    /// Draws one index in `O(1)` worst-case time, consuming a single
    /// 64-bit word from `rng` (see [`Self::decode`]).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.decode(rng.next_u64())
    }

    /// The pipelined batch kernel: fills `out` with `base + index` for
    /// independent weighted indices drawn from `block`'s word stream.
    ///
    /// This is the shared fast path behind [`AliasTable::sample_into`]
    /// *and* the composite structures' per-piece draws (Lemma 2's chosen
    /// range, Theorem 3's boundary pieces), which pass their element
    /// offset as `base` instead of translating in a second pass. Each
    /// [`crate::pipeline::TILE`]-draw tile runs the three-phase shape
    /// documented in [`crate::pipeline`]: bulk word fill (sequence
    /// order, so draws stay bit-identical to the sequential path),
    /// vectorized [`Self::decode_many`], then the `K`-wide interleaved
    /// gather with explicit row prefetch.
    pub fn sample_block_into<R: RngCore + ?Sized>(
        &self,
        block: &mut BlockRng64<'_, R>,
        base: u32,
        out: &mut [u32],
    ) {
        let mut words = [0u64; crate::pipeline::TILE];
        let mut cols = [0u32; crate::pipeline::TILE];
        let mut coins = [0f64; crate::pipeline::TILE];
        // Redirect stats accumulate in a register and flush once per
        // batch (see `crate::prof`), so the gather loop stays tight.
        let mut redirects = 0u64;
        for tile in out.chunks_mut(crate::pipeline::TILE) {
            let m = tile.len();
            block.fill_words(&mut words[..m]);
            self.decode_many(&words[..m], &mut cols, &mut coins);
            crate::pipeline::interleave(
                m,
                |i| cols[i],
                |&col| self.prefetch_row(col as usize),
                |i, col| {
                    let idx = self.resolve(col as usize, coins[i]);
                    redirects += u64::from(idx != col as usize);
                    tile[i] = base + idx as u32;
                },
            );
        }
        crate::prof::add_alias_redirects(redirects);
    }
}

impl AliasTable {
    /// Builds the table from positive weights in `O(n)` time
    /// ([`AliasRows::build`] into two fresh arrays).
    ///
    /// # Errors
    /// [`WeightError`] if `weights` is empty or contains a non-finite or
    /// non-positive entry, or if `n > u32::MAX` elements are supplied.
    pub fn new(weights: &[f64]) -> Result<Self, WeightError> {
        let mut prob = vec![0.0; weights.len()];
        let mut alias = vec![0; weights.len()];
        let total = AliasRows::build(weights, &mut prob, &mut alias, &mut Vec::new())?;
        Ok(AliasTable { prob, alias, total })
    }

    /// Builds a table for `n` *equal* weights. The resulting table degrades
    /// to uniform index sampling but keeps the same API, which simplifies
    /// with-replacement (WR) callers.
    pub fn uniform(n: usize) -> Result<Self, WeightError> {
        if n == 0 {
            return Err(WeightError::Empty);
        }
        Ok(AliasTable { prob: vec![1.0; n], alias: (0..n as u32).collect(), total: n as f64 })
    }

    /// The table's urn rows — the view every draw runs on.
    #[inline(always)]
    pub fn rows(&self) -> AliasRows<'_> {
        AliasRows { prob: &self.prob, alias: &self.alias }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no elements (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
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
    /// of Section 3.1 hold *exactly*, not merely statistically).
    pub fn realized_probability(&self, i: usize) -> f64 {
        let n = self.prob.len() as f64;
        let mut p = self.prob[i] / n;
        for (col, &a) in self.alias.iter().enumerate() {
            if a as usize == i && col != i {
                p += (1.0 - self.prob[col]) / n;
            }
        }
        p
    }
}

impl SpaceUsage for AliasTable {
    fn space_words(&self) -> usize {
        vec_words(&self.prob) + vec_words(&self.alias)
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
        // floating point accuracy.
        let weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let total: f64 = weights.iter().sum();
        let t = AliasTable::new(&weights).unwrap();
        for (i, &w) in weights.iter().enumerate() {
            let p = t.realized_probability(i);
            assert!((p - w / total).abs() < 1e-12, "element {i}: realized {p}, want {}", w / total);
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
        // 1000 f64 + 1000 u32 = 1000 + 500 words.
        assert_eq!(t.space_words(), 1500);
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
        let mut coins = vec![0f64; 300];
        t.rows().decode_many(&words, &mut cols, &mut coins);
        for (i, &z) in words.iter().enumerate() {
            let (col, coin) = t.rows().split_word(z);
            assert_eq!(cols[i] as usize, col);
            assert_eq!(coins[i], coin);
        }
    }

    /// The classical construction as the paper's reader would write
    /// it, one fresh `Vec` per array and per worklist: the reference
    /// [`AliasRows::build`] must reproduce entry for entry.
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

    proptest::proptest! {
        /// Into a table's own arrays or into the middle of a shared
        /// pair, with a worklist of any previous size: the same rows.
        #[test]
        fn build_into_slices_is_the_two_list_construction(
            exps in proptest::collection::vec(0u32..121, 1..80),
            frac in proptest::collection::vec(1.0f64..2.0, 80),
            offset in 0usize..7,
        ) {
            let weights: Vec<f64> =
                exps.iter().zip(&frac).map(|(&e, &f)| f * 2f64.powi(e as i32 - 60)).collect();
            let (prob, alias) = two_list_vose(&weights);
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let table = AliasTable::new(&weights).unwrap();
            proptest::prop_assert_eq!(bits(&table.prob), bits(&prob));
            proptest::prop_assert_eq!(&table.alias, &alias);
            let n = weights.len();
            let (mut p, mut a) = (vec![7.0; n + 9], vec![7u32; n + 9]);
            let mut work = vec![9; offset * 13];
            let rows = offset..offset + n;
            let total =
                AliasRows::build(&weights, &mut p[rows.clone()], &mut a[rows.clone()], &mut work);
            proptest::prop_assert_eq!(total.unwrap().to_bits(), table.total.to_bits());
            proptest::prop_assert_eq!(bits(&p[rows.clone()]), bits(&prob));
            proptest::prop_assert_eq!(&a[rows.clone()], &alias[..]);
            // Nothing outside the table's rows was written.
            proptest::prop_assert!(p[..offset].iter().chain(&p[rows.end..]).all(|&x| x == 7.0));
            proptest::prop_assert!(a[..offset].iter().chain(&a[rows.end..]).all(|&x| x == 7));
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
