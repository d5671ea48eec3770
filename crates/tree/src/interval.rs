use iqs_alias::space::{vec_words, SpaceUsage};
use iqs_alias::AliasTable;
use rand::Rng;

/// The chunk-and-pieces engine behind **Lemma 4**, factored out so that any
/// index whose nodes own contiguous intervals of a weighted leaf sequence
/// (BSTs, kd-trees, quadtrees, the last level of a range tree) can sample a
/// weighted element from a node's interval in **worst-case `O(1)` time**.
///
/// Construction over a weight sequence of length `n` and a collection of
/// query intervals:
///
/// * the sequence is cut into chunks of `c = ⌈log₂ n⌉` positions, each with
///   an alias table (`O(n)` words total);
/// * each registered interval `[a, b)` stores an alias table over its
///   *pieces*: full chunks inside it (weighted by chunk total, resolved by
///   one extra chunk-alias draw) plus the `< 2c` boundary positions
///   individually; intervals spanning fewer than four chunks enumerate
///   their positions directly.
///
/// For interval families that are disjoint per level of a height-`O(log n)`
/// tree (the use cases above), total piece count — and hence space — is
/// `O(n)`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct IntervalSampler {
    chunk: usize,
    chunk_alias: Vec<AliasTable>,
    /// Per registered interval: alias over pieces.
    iv_alias: Vec<AliasTable>,
    /// `piece >= 0` → position `piece`; `piece < 0` → full chunk `-(piece+1)`.
    iv_pieces: Vec<Vec<i64>>,
}

impl IntervalSampler {
    /// Builds the sampler for the given positive `weights` and half-open
    /// `intervals` (each must be non-empty and within bounds).
    ///
    /// # Panics
    /// Panics on an empty weight sequence or an empty/out-of-range
    /// interval — these indicate construction bugs in the calling index,
    /// not user input.
    #[allow(clippy::needless_range_loop)] // index loops read clearer here
    pub fn new(weights: &[f64], intervals: &[(usize, usize)]) -> Self {
        assert!(!weights.is_empty(), "IntervalSampler needs at least one position");
        let n = weights.len();
        let chunk = ((n as f64).log2().ceil() as usize).max(1);
        let n_chunks = n.div_ceil(chunk);
        let mut chunk_alias = Vec::with_capacity(n_chunks);
        let mut chunk_weight = Vec::with_capacity(n_chunks);
        for k in 0..n_chunks {
            let lo = k * chunk;
            let hi = ((k + 1) * chunk).min(n);
            let table = AliasTable::new(&weights[lo..hi]).expect("chunk is non-empty");
            chunk_weight.push(table.total_weight());
            chunk_alias.push(table);
        }

        let mut iv_alias = Vec::with_capacity(intervals.len());
        let mut iv_pieces = Vec::with_capacity(intervals.len());
        for &(a, b) in intervals {
            assert!(a < b && b <= n, "malformed interval [{a},{b}) over {n} positions");
            let mut pieces: Vec<i64> = Vec::new();
            let mut ws: Vec<f64> = Vec::new();
            if b - a <= 4 * chunk {
                for pos in a..b {
                    pieces.push(pos as i64);
                    ws.push(weights[pos]);
                }
            } else {
                let first_full = a.div_ceil(chunk);
                let last_full = b / chunk;
                for pos in a..(first_full * chunk).min(b) {
                    pieces.push(pos as i64);
                    ws.push(weights[pos]);
                }
                for k in first_full..last_full {
                    pieces.push(-((k as i64) + 1));
                    ws.push(chunk_weight[k]);
                }
                for pos in (last_full * chunk).max(a)..b {
                    pieces.push(pos as i64);
                    ws.push(weights[pos]);
                }
            }
            iv_alias.push(AliasTable::new(&ws).expect("non-empty piece set"));
            iv_pieces.push(pieces);
        }
        IntervalSampler { chunk, chunk_alias, iv_alias, iv_pieces }
    }

    /// The chunk size `c`.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Draws one weighted position from registered interval `iv`, in
    /// worst-case `O(1)` time (at most two alias draws).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, iv: usize, rng: &mut R) -> usize {
        let piece = self.iv_pieces[iv][self.iv_alias[iv].sample(rng)];
        if piece >= 0 {
            piece as usize
        } else {
            let k = (-(piece + 1)) as usize;
            k * self.chunk + self.chunk_alias[k].sample(rng)
        }
    }

    /// Total weight of registered interval `iv`.
    pub fn interval_weight(&self, iv: usize) -> f64 {
        self.iv_alias[iv].total_weight()
    }

    /// Total number of pieces stored — the linear-space witness used by
    /// tests and benches.
    pub fn total_pieces(&self) -> usize {
        self.iv_pieces.iter().map(Vec::len).sum()
    }
}

impl SpaceUsage for IntervalSampler {
    fn space_words(&self) -> usize {
        let chunks: usize = self.chunk_alias.iter().map(|a| a.space_words()).sum();
        let ivs: usize = self.iv_alias.iter().map(|a| a.space_words()).sum();
        let pieces: usize = self.iv_pieces.iter().map(|p| vec_words(p.as_slice())).sum();
        chunks + ivs + pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distribution_within_interval() {
        let n = 200;
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let intervals = vec![(0usize, n), (13, 37), (150, 151), (10, 190)];
        let s = IntervalSampler::new(&weights, &intervals);
        let mut rng = StdRng::seed_from_u64(40);
        for (iv, &(a, b)) in intervals.iter().enumerate() {
            let total: f64 = weights[a..b].iter().sum();
            assert!((s.interval_weight(iv) - total).abs() < 1e-9);
            let draws = 60_000;
            let mut counts = vec![0u32; n];
            for _ in 0..draws {
                let pos = s.sample(iv, &mut rng);
                assert!(pos >= a && pos < b, "interval {iv}: pos {pos} outside [{a},{b})");
                counts[pos] += 1;
            }
            // Spot-check a few positions.
            for pos in [a, (a + b) / 2, b - 1] {
                let p = counts[pos] as f64 / draws as f64;
                let want = weights[pos] / total;
                assert!((p - want).abs() < 0.25 * want + 0.003, "iv {iv} pos {pos}: {p} vs {want}");
            }
        }
    }

    #[test]
    fn tiny_sequence() {
        let s = IntervalSampler::new(&[2.0], &[(0, 1)]);
        let mut rng = StdRng::seed_from_u64(41);
        assert_eq!(s.sample(0, &mut rng), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_interval() {
        IntervalSampler::new(&[1.0, 1.0], &[(1, 1)]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_interval() {
        IntervalSampler::new(&[1.0, 1.0], &[(0, 3)]);
    }

    #[test]
    fn piece_counts_linear_for_binary_hierarchy() {
        // Intervals of a perfect binary hierarchy over n positions.
        let n = 1 << 12;
        let weights = vec![1.0; n];
        let mut intervals = Vec::new();
        let mut span = n;
        while span >= 1 {
            let mut a = 0;
            while a + span <= n {
                intervals.push((a, a + span));
                a += span;
            }
            span /= 2;
        }
        let s = IntervalSampler::new(&weights, &intervals);
        // O(n): piece count should be within a small constant of n.
        assert!(s.total_pieces() < 8 * n, "pieces {} for n {n}", s.total_pieces());
    }
}
