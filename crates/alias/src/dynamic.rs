use std::collections::HashMap;

use rand::Rng;

use crate::space::SpaceUsage;
use crate::WeightError;

/// Number of f64 binary exponents we bucket over. Finite positive f64
/// exponents span [-1074, 1023]; we offset them into `0..EXP_SLOTS`.
const EXP_SLOTS: usize = 2100;
const EXP_OFFSET: i32 = 1075;

/// A dynamized alias structure — the paper's **Direction 1** future-work
/// item, solved with the folklore power-of-two bucketing scheme (the paper
/// cites \[16\] for an optimal integer-weight variant; this structure attains
/// the same *expected* bounds for arbitrary positive `f64` weights).
///
/// Elements are keyed by caller-chosen `u64` ids. Each element sits in the
/// bucket of its weight's binary exponent, so all weights in bucket `j` lie
/// in `[2^j, 2^{j+1})`. Sampling:
///
/// 1. pick a bucket proportionally to its *capacity* `n_j · 2^{j+1}` (the
///    bucket's element count times its weight-class ceiling) — implemented
///    as a Fenwick tree over the (constant-size) exponent range,
///    `O(log 2100)` = `O(1)` for fixed-width floats;
/// 2. pick a uniform element of the bucket and accept it with probability
///    `w / 2^{j+1}` ≥ ½.
///
/// Then `P(e) ∝ (n_j·2^{j+1}) · (1/n_j) · (w_e/2^{j+1}) = w_e` exactly, and
/// since every element fills at least half its capacity the global
/// acceptance rate is ≥ ½, so expected < 2 rounds of rejection.
///
/// Updates (`insert`, `remove`, `update_weight`) are `O(1)` expected
/// (hash-map bookkeeping plus a Fenwick update). Every draw consumes fresh
/// randomness, so query outputs remain mutually independent under arbitrary
/// interleavings of updates — the property benchmark E11 measures.
#[derive(Debug, Clone, Default)]
pub struct DynamicAlias {
    /// Per-exponent buckets: `(id, weight)` pairs, swap-removed on delete.
    buckets: Vec<Vec<(u64, f64)>>,
    /// Fenwick tree over bucket *capacities* `n_j · 2^{j+1}` (1-based
    /// internally).
    fenwick: Vec<f64>,
    /// Sum of all bucket capacities (the Fenwick grand total, cached).
    cap_total: f64,
    /// id → (bucket slot, position inside the bucket).
    locator: HashMap<u64, (u32, u32)>,
    /// Cached total weight.
    total: f64,
}

/// Ceiling of the weight class of slot `slot`: `2^{e+1}` where
/// `e = slot - EXP_OFFSET` is the binary exponent of the weights stored
/// there. Always representable because `e + 1 ≤ 1024` only for infinities,
/// which are rejected at insert.
fn slot_capacity(slot: usize) -> f64 {
    2.0f64.powi(slot as i32 - EXP_OFFSET + 1)
}

fn exponent_slot(w: f64) -> usize {
    // log2 floor via the IEEE exponent; subnormals map below slot 52.
    let e = if w >= f64::MIN_POSITIVE {
        ((w.to_bits() >> 52) & 0x7ff) as i32 - 1023
    } else {
        // subnormal: compute via log2 (cold path)
        w.log2().floor() as i32
    };
    (e + EXP_OFFSET) as usize
}

impl DynamicAlias {
    /// Creates an empty structure.
    pub fn new() -> Self {
        DynamicAlias {
            buckets: vec![Vec::new(); EXP_SLOTS],
            fenwick: vec![0.0; EXP_SLOTS + 1],
            locator: HashMap::new(),
            cap_total: 0.0,
            total: 0.0,
        }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.locator.len()
    }

    /// True when no elements are present.
    pub fn is_empty(&self) -> bool {
        self.locator.is_empty()
    }

    /// Current total weight.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Weight of `id`, if present.
    pub fn weight_of(&self, id: u64) -> Option<f64> {
        let &(b, p) = self.locator.get(&id)?;
        Some(self.buckets[b as usize][p as usize].1)
    }

    fn fenwick_add(&mut self, slot: usize, delta: f64) {
        let mut i = slot + 1;
        while i <= EXP_SLOTS {
            self.fenwick[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Finds the smallest slot whose prefix total exceeds `target`.
    fn fenwick_select(&self, mut target: f64) -> usize {
        let mut pos = 0usize;
        // Highest power of two <= EXP_SLOTS.
        let mut step = 1usize << (usize::BITS - 1 - (EXP_SLOTS as u32).leading_zeros());
        while step > 0 {
            let next = pos + step;
            if next <= EXP_SLOTS && self.fenwick[next] <= target {
                target -= self.fenwick[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // 0-based slot
    }

    /// Inserts `id` with weight `w`; replaces an existing entry.
    ///
    /// # Errors
    /// [`WeightError::NonPositive`] if `w` is not finite-positive.
    pub fn insert(&mut self, id: u64, w: f64) -> Result<(), WeightError> {
        if !w.is_finite() || w <= 0.0 {
            return Err(WeightError::NonPositive { index: 0, weight: w });
        }
        if self.locator.contains_key(&id) {
            self.remove(id);
        }
        let slot = exponent_slot(w);
        let pos = self.buckets[slot].len() as u32;
        self.buckets[slot].push((id, w));
        self.locator.insert(id, (slot as u32, pos));
        let cap = slot_capacity(slot);
        self.fenwick_add(slot, cap);
        self.cap_total += cap;
        self.total += w;
        Ok(())
    }

    /// Removes `id`; returns its weight if it was present.
    pub fn remove(&mut self, id: u64) -> Option<f64> {
        let (slot, pos) = self.locator.remove(&id)?;
        let bucket = &mut self.buckets[slot as usize];
        let (_, w) = bucket.swap_remove(pos as usize);
        if let Some(&(moved_id, _)) = bucket.get(pos as usize) {
            self.locator.insert(moved_id, (slot, pos));
        }
        let cap = slot_capacity(slot as usize);
        self.fenwick_add(slot as usize, -cap);
        self.cap_total -= cap;
        self.total -= w;
        Some(w)
    }

    /// Changes the weight of an existing element.
    ///
    /// # Errors
    /// [`WeightError::NonPositive`] on a bad weight or `Empty` if the id is
    /// unknown.
    pub fn update_weight(&mut self, id: u64, w: f64) -> Result<(), WeightError> {
        if self.locator.contains_key(&id) {
            self.remove(id);
            self.insert(id, w)
        } else {
            Err(WeightError::Empty)
        }
    }

    /// Draws one element id with probability proportional to its weight.
    /// Expected `O(1)` time. Returns `None` on an empty structure.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        if self.locator.is_empty() {
            return None;
        }
        loop {
            // Target is redrawn each round so rejections stay independent.
            let target = rng.random::<f64>() * self.cap_total;
            let slot = self.fenwick_select(target).min(EXP_SLOTS - 1);
            let bucket = &self.buckets[slot];
            if bucket.is_empty() {
                // Float slack pushed us into a drained slot; retry.
                continue;
            }
            let (id, w) = bucket[rng.random_range(0..bucket.len())];
            // Accept with w / capacity-ceiling; ceiling cancels the bucket
            // selection bias, making P(id) exactly w / W.
            if rng.random::<f64>() * slot_capacity(slot) <= w {
                return Some(id);
            }
        }
    }

    /// Draws `s` independent samples into `out`.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<u64>) {
        out.reserve(s);
        for _ in 0..s {
            if let Some(id) = self.sample(rng) {
                out.push(id);
            }
        }
    }
}

impl SpaceUsage for DynamicAlias {
    fn space_words(&self) -> usize {
        let bucket_words: usize =
            self.buckets.iter().map(|b| crate::space::vec_words(b.as_slice())).sum();
        bucket_words + self.fenwick.len() + 2 * self.locator.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_returns_none() {
        let d = DynamicAlias::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), None);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut d = DynamicAlias::new();
        d.insert(10, 2.5).unwrap();
        d.insert(20, 0.5).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.weight_of(10), Some(2.5));
        assert_eq!(d.remove(10), Some(2.5));
        assert_eq!(d.len(), 1);
        assert_eq!(d.remove(10), None);
        assert!((d.total_weight() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reinsert_replaces() {
        let mut d = DynamicAlias::new();
        d.insert(1, 1.0).unwrap();
        d.insert(1, 3.0).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.weight_of(1), Some(3.0));
        assert!((d.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_weights() {
        let mut d = DynamicAlias::new();
        assert!(d.insert(1, 0.0).is_err());
        assert!(d.insert(1, -1.0).is_err());
        assert!(d.insert(1, f64::NAN).is_err());
    }

    #[test]
    fn distribution_matches_weights() {
        let mut d = DynamicAlias::new();
        // Weights spanning several binary orders of magnitude.
        let weights = [(0u64, 0.125), (1, 1.0), (2, 8.0), (3, 3.0), (4, 0.7)];
        for &(id, w) in &weights {
            d.insert(id, w).unwrap();
        }
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        let mut rng = StdRng::seed_from_u64(77);
        let draws = 200_000;
        let mut counts = [0u32; 5];
        for _ in 0..draws {
            counts[d.sample(&mut rng).unwrap() as usize] += 1;
        }
        for &(id, w) in &weights {
            let p = counts[id as usize] as f64 / draws as f64;
            let want = w / total;
            assert!((p - want).abs() < 0.01, "id {id}: {p} vs {want}");
        }
    }

    #[test]
    fn distribution_correct_after_updates() {
        let mut d = DynamicAlias::new();
        for id in 0..100u64 {
            d.insert(id, 1.0 + id as f64).unwrap();
        }
        for id in 0..50u64 {
            d.remove(id);
        }
        for id in 60..70u64 {
            d.update_weight(id, 100.0).unwrap();
        }
        let mut expect: Vec<(u64, f64)> = (50..100u64)
            .map(|id| (id, if (60..70).contains(&id) { 100.0 } else { 1.0 + id as f64 }))
            .collect();
        let total: f64 = expect.iter().map(|&(_, w)| w).sum();
        assert!((d.total_weight() - total).abs() < 1e-9 * total);

        let mut rng = StdRng::seed_from_u64(5150);
        let draws = 300_000;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..draws {
            *counts.entry(d.sample(&mut rng).unwrap()).or_default() += 1;
        }
        expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        // Check the heavy elements precisely.
        for &(id, w) in expect.iter().take(12) {
            let p = *counts.get(&id).unwrap_or(&0) as f64 / draws as f64;
            let want = w / total;
            assert!((p - want).abs() < 0.25 * want + 0.002, "id {id}: {p} vs {want}");
        }
        // Removed ids never sampled.
        for id in 0..50u64 {
            assert!(!counts.contains_key(&id));
        }
    }

    #[test]
    fn subnormal_weights_survive() {
        let mut d = DynamicAlias::new();
        d.insert(0, f64::MIN_POSITIVE / 4.0).unwrap();
        d.insert(1, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        // Overwhelmingly id 1.
        let mut one = 0;
        for _ in 0..1000 {
            if d.sample(&mut rng) == Some(1) {
                one += 1;
            }
        }
        assert!(one >= 999);
    }

    #[test]
    fn update_unknown_id_errors() {
        let mut d = DynamicAlias::new();
        assert!(d.update_weight(3, 1.0).is_err());
    }
}
