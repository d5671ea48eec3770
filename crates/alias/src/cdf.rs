use rand::Rng;

use crate::space::{vec_words, SpaceUsage};
use crate::{validate_weights, WeightError};

/// Prefix-sum ("inverse CDF") weighted sampler: the textbook baseline that
/// Theorem 1 improves upon.
///
/// `O(n)` space and build time, `O(log n)` time per sample (binary search
/// over the cumulative weights). Benchmark E1 contrasts this against
/// [`crate::AliasTable`]'s `O(1)` draws.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CdfSampler {
    /// `cum[i]` = w(0) + … + w(i); strictly increasing.
    cum: Vec<f64>,
}

impl CdfSampler {
    /// Builds the cumulative-weight array.
    ///
    /// # Errors
    /// [`WeightError`] on empty input or non-positive weights.
    pub fn new(weights: &[f64]) -> Result<Self, WeightError> {
        validate_weights(weights)?;
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cum.push(acc);
        }
        Ok(CdfSampler { cum })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// True when there are no elements (not constructible).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        *self.cum.last().expect("non-empty by construction")
    }

    /// Draws one index in `O(log n)` time.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let target = rng.random::<f64>() * self.total_weight();
        // First index whose cumulative weight exceeds the target.
        let idx = self.cum.partition_point(|&c| c <= target);
        idx.min(self.cum.len() - 1)
    }
}

impl SpaceUsage for CdfSampler {
    fn space_words(&self) -> usize {
        vec_words(&self.cum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_input() {
        assert!(CdfSampler::new(&[]).is_err());
        assert!(CdfSampler::new(&[0.0]).is_err());
    }

    #[test]
    fn matches_weights_statistically() {
        let weights = [5.0, 1.0, 1.0, 1.0];
        let s = CdfSampler::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 4];
        let draws = 80_000;
        for _ in 0..draws {
            counts[s.sample(&mut rng)] += 1;
        }
        let p0 = counts[0] as f64 / draws as f64;
        assert!((p0 - 5.0 / 8.0).abs() < 0.01, "p0 = {p0}");
    }

    #[test]
    fn agrees_with_alias_distribution() {
        // Same weights, both samplers: empirical L1 distance between the
        // two frequency vectors must be small.
        let weights: Vec<f64> = (1..=64).map(|i| (i as f64).sqrt()).collect();
        let cdf = CdfSampler::new(&weights).unwrap();
        let alias = crate::AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(4242);
        let draws = 120_000;
        let mut fa = vec![0f64; 64];
        let mut fc = vec![0f64; 64];
        for _ in 0..draws {
            fa[alias.sample(&mut rng)] += 1.0;
            fc[cdf.sample(&mut rng)] += 1.0;
        }
        let l1: f64 = fa.iter().zip(&fc).map(|(a, c)| ((a - c) / draws as f64).abs()).sum();
        assert!(l1 < 0.05, "L1 distance {l1}");
    }

    #[test]
    fn single_element_always_zero() {
        let s = CdfSampler::new(&[3.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..32 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }

    #[test]
    fn space_is_n_words() {
        let s = CdfSampler::new(&vec![1.0; 512]).unwrap();
        assert_eq!(s.space_words(), 512);
    }
}
