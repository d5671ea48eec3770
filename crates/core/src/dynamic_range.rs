//! A dynamized weighted range sampler — the paper's **Direction 1**
//! ("extend the existing structures to support fast insertions and
//! deletions") applied to the headline 1-D problem.
//!
//! The static Theorem-3 structure is hard to update in place (the paper
//! notes the alias structure resists dynamization), so we apply the
//! classical logarithmic method (Bentley–Saxe): the live elements are
//! partitioned into `O(log n)` static [`ChunkedRange`] structures with
//! level `k` holding at most `2^k` elements. An insertion carries a
//! merge cascade upward (amortized `O(log² n)`); a deletion tombstones
//! the element, with a full rebuild once tombstones reach half of the
//! structure (amortized `O(log² n)`).
//!
//! A query computes each level's *net* range weight (gross weight minus
//! that level's tombstoned weight in range, via a per-level ordered
//! tombstone map), splits the `s` samples multinomially across levels,
//! and rejects tombstoned draws inside a level. If local tombstone
//! density defeats rejection, the query falls back to explicit
//! filtering — always correct, never non-terminating.
//!
//! Outputs of all queries remain mutually independent: tombstoning and
//! rebuilding never reuse randomness.
//!
//! This module reproduces §9 Direction 1 for the experiment harness
//! (E11/E12) and `examples/dynamic_catalog.rs`. The service does not
//! publish it: `iqs-serve` keeps one static [`ChunkedRange`] per index
//! and patches it ([`ChunkedRange::reweighted`]) or rebuilds it.

use std::collections::{BTreeMap, HashMap};

use iqs_alias::space::SpaceUsage;
use rand::{Rng, RngCore};

use crate::error::QueryError;
use crate::range1d::{ChunkedRange, RangeSampler};

/// Monotone order-preserving bit mapping for finite f64 keys, so they
/// can index a `BTreeMap`.
fn key_bits(k: f64) -> u64 {
    let b = k.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// One Bentley–Saxe level: a static structure plus its id labels (in
/// the structure's rank order) and its tombstones.
#[derive(Debug)]
struct Level {
    structure: ChunkedRange,
    /// Element id at each rank of `structure`.
    ids: Vec<u64>,
    /// Tombstoned members of this level: (key bits, id) → weight.
    dead: BTreeMap<(u64, u64), f64>,
}

impl Level {
    /// Net weight of `[x, y]` after subtracting this level's tombstones.
    fn net_range_weight(&self, x: f64, y: f64) -> f64 {
        let gross = self.structure.range_weight(x, y);
        let dead: f64 =
            self.dead.range((key_bits(x), 0)..=(key_bits(y), u64::MAX)).map(|(_, &w)| w).sum();
        (gross - dead).max(0.0)
    }
}

/// The dynamized weighted range sampler.
///
/// # Example
/// ```
/// use iqs_core::DynamicRange;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut d = DynamicRange::new();
/// for id in 0..1000u64 {
///     d.insert(id, id as f64, 1.0)?;
/// }
/// d.remove(500);
/// let mut rng = StdRng::seed_from_u64(3);
/// let picks = d.sample_wr(400.0, 600.0, 8, &mut rng)?;
/// assert!(picks.iter().all(|&(id, _)| id != 500));
/// # Ok::<(), iqs_core::QueryError>(())
/// ```
#[derive(Debug, Default)]
pub struct DynamicRange {
    /// `levels[k]` holds at most `2^k` elements.
    levels: Vec<Option<Level>>,
    /// id → (key, weight, level) for tombstoned-but-present elements.
    dead_index: HashMap<u64, (f64, f64, u32)>,
    /// id → (key, weight, level) for live elements.
    live_index: HashMap<u64, (f64, f64, u32)>,
}

/// Per-sample rejection budget before falling back to filtering.
const ATTEMPTS_PER_SAMPLE: usize = 64;

impl DynamicRange {
    /// An empty sampler.
    pub fn new() -> Self {
        DynamicRange::default()
    }

    /// Builds from `(id, key, weight)` triples.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] if any triple is invalid (ids must be
    /// unique; keys finite; weights finite-positive).
    pub fn from_triples(triples: Vec<(u64, f64, f64)>) -> Result<Self, QueryError> {
        let mut d = DynamicRange::new();
        for (id, k, w) in triples {
            d.insert(id, k, w)?;
        }
        Ok(d)
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.live_index.len()
    }

    /// True when no live elements exist.
    pub fn is_empty(&self) -> bool {
        self.live_index.is_empty()
    }

    /// Number of tombstoned elements still resident in the levels.
    pub fn tombstones(&self) -> usize {
        self.dead_index.len()
    }

    /// Number of occupied levels.
    pub fn level_count(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    /// Extracts a level's *live* triples in key order, purging its dead
    /// entries from the global index.
    fn drain_level(&mut self, k: usize) -> Vec<(f64, u64, f64)> {
        let Some(level) = self.levels[k].take() else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(level.ids.len());
        for (rank, &id) in level.ids.iter().enumerate() {
            let key = level.structure.keys()[rank];
            let w = level.structure.weights()[rank];
            if level.dead.contains_key(&(key_bits(key), id)) {
                self.dead_index.remove(&id);
            } else {
                out.push((key, id, w));
            }
        }
        out
    }

    fn place(&mut self, mut carry: Vec<(f64, u64, f64)>) {
        // Keep carry sorted by key (merge inputs are sorted; a fresh
        // single-element carry trivially is). ChunkedRange's stable sort
        // then preserves this order, keeping `ids` aligned with ranks.
        let mut k = 0usize;
        loop {
            if k == self.levels.len() {
                self.levels.push(None);
            }
            match &self.levels[k] {
                None if carry.len() <= (1 << k) => break,
                None => k += 1,
                Some(_) => {
                    let existing = self.drain_level(k);
                    carry = merge_sorted(carry, existing);
                    k += 1;
                }
            }
        }
        if carry.is_empty() {
            return;
        }
        let pairs: Vec<(f64, f64)> = carry.iter().map(|&(key, _, w)| (key, w)).collect();
        let ids: Vec<u64> = carry.iter().map(|&(_, id, _)| id).collect();
        let structure = ChunkedRange::new(pairs).expect("validated on insert");
        debug_assert_eq!(structure.keys().len(), ids.len());
        for (rank, &id) in ids.iter().enumerate() {
            if let Some(entry) = self.live_index.get_mut(&id) {
                entry.2 = k as u32;
                debug_assert_eq!(entry.0.to_bits(), structure.keys()[rank].to_bits());
            }
        }
        self.levels[k] = Some(Level { structure, ids, dead: BTreeMap::new() });
    }

    /// Inserts a new element. Amortized `O(log² n)`.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on an invalid key/weight or duplicate
    /// id.
    pub fn insert(&mut self, id: u64, key: f64, weight: f64) -> Result<(), QueryError> {
        if !key.is_finite()
            || !weight.is_finite()
            || weight <= 0.0
            || self.live_index.contains_key(&id)
        {
            return Err(QueryError::EmptyRange);
        }
        self.live_index.insert(id, (key, weight, 0));
        self.place(vec![(key, id, weight)]);
        Ok(())
    }

    /// Deletes an element by id; returns its `(key, weight)` if it was
    /// live. Amortized `O(log² n)` including rebuild charges.
    pub fn remove(&mut self, id: u64) -> Option<(f64, f64)> {
        let (key, weight, level) = self.live_index.remove(&id)?;
        self.dead_index.insert(id, (key, weight, level));
        if let Some(Some(lvl)) = self.levels.get_mut(level as usize) {
            lvl.dead.insert((key_bits(key), id), weight);
        }
        // Rebuild once tombstones reach half the resident population.
        if self.dead_index.len() > self.live_index.len() {
            self.rebuild();
        }
        Some((key, weight))
    }

    /// Full rebuild into a single level, purging all tombstones.
    fn rebuild(&mut self) {
        let mut all: Vec<(f64, u64, f64)> = Vec::with_capacity(self.live_index.len());
        for k in 0..self.levels.len() {
            let mut part = self.drain_level(k);
            all.append(&mut part);
        }
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
        debug_assert!(self.dead_index.is_empty());
        self.levels.clear();
        if !all.is_empty() {
            let k = usize::BITS as usize - (all.len() - 1).leading_zeros() as usize;
            self.levels.resize_with(k + 1, || None);
            self.place(all);
        }
    }

    /// `|S_q|` over live elements.
    pub fn range_count(&self, x: f64, y: f64) -> usize {
        let mut count = 0usize;
        for level in self.levels.iter().flatten() {
            count += level.structure.range_count(x, y);
            count -= level.dead.range((key_bits(x), 0)..=(key_bits(y), u64::MAX)).count();
        }
        count
    }

    /// Total live weight of `[x, y]`.
    pub fn range_weight(&self, x: f64, y: f64) -> f64 {
        self.levels.iter().flatten().map(|l| l.net_range_weight(x, y)).sum()
    }

    /// Draws `s` independent weighted samples of the live elements in
    /// `[x, y]`, returned as `(id, key)` pairs.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when no live element is in range.
    pub fn sample_wr(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<(u64, f64)>, QueryError> {
        let live_levels: Vec<&Level> = self.levels.iter().flatten().collect();
        let nets: Vec<f64> = live_levels.iter().map(|l| l.net_range_weight(x, y)).collect();
        let total: f64 = nets.iter().sum();
        if total <= 0.0 {
            return Err(QueryError::EmptyRange);
        }
        let mut out = Vec::with_capacity(s);
        let mut budget = ATTEMPTS_PER_SAMPLE * (s + 4);
        'outer: while out.len() < s {
            if budget == 0 {
                // Rejection is being defeated by local tombstone
                // density: finish by explicit filtering (always correct).
                out.extend(self.filtered_samples(x, y, s - out.len(), rng)?);
                break 'outer;
            }
            budget -= 1;
            // Pick a level by net weight.
            let mut t = rng.random::<f64>() * total;
            let mut chosen = live_levels.len() - 1;
            for (i, &w) in nets.iter().enumerate() {
                if t < w {
                    chosen = i;
                    break;
                }
                t -= w;
            }
            if nets[chosen] <= 0.0 {
                continue;
            }
            let level = live_levels[chosen];
            let rank = match level.structure.sample_wr(x, y, 1, rng) {
                Ok(r) => r[0],
                Err(_) => continue,
            };
            let key = level.structure.keys()[rank];
            let id = level.ids[rank];
            if level.dead.contains_key(&(key_bits(key), id)) {
                continue; // tombstoned: reject
            }
            // Accept with probability net/gross cancellation is already
            // handled by rejection; the draw was ∝ weight within gross,
            // and dead draws are discarded, so acceptances are ∝ weight
            // within the live set.
            out.push((id, key));
        }
        Ok(out)
    }

    /// Fallback path: enumerate the live elements in range and sample
    /// from an explicit alias table (`O(|S_q| + s)`).
    fn filtered_samples(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<(u64, f64)>, QueryError> {
        let mut items: Vec<(u64, f64, f64)> = Vec::new();
        for level in self.levels.iter().flatten() {
            let (a, b) = level.structure.rank_range(x, y);
            for rank in a..b {
                let key = level.structure.keys()[rank];
                let id = level.ids[rank];
                if !level.dead.contains_key(&(key_bits(key), id)) {
                    items.push((id, key, level.structure.weights()[rank]));
                }
            }
        }
        if items.is_empty() {
            return Err(QueryError::EmptyRange);
        }
        let weights: Vec<f64> = items.iter().map(|&(_, _, w)| w).collect();
        let table = iqs_alias::AliasTable::new(&weights).expect("positive weights");
        Ok((0..s)
            .map(|_| {
                let (id, key, _) = items[table.sample(rng)];
                (id, key)
            })
            .collect())
    }
}

impl SpaceUsage for DynamicRange {
    fn space_words(&self) -> usize {
        let levels: usize = self
            .levels
            .iter()
            .flatten()
            .map(|l| l.structure.space_words() + l.ids.len() + 3 * l.dead.len())
            .sum();
        levels + 4 * (self.live_index.len() + self.dead_index.len())
    }
}

/// Merges two key-sorted triple lists.
fn merge_sorted(a: Vec<(f64, u64, f64)>, b: Vec<(f64, u64, f64)>) -> Vec<(f64, u64, f64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0 <= b[j].0 {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn insert_and_count() {
        let mut d = DynamicRange::new();
        for i in 0..100u64 {
            d.insert(i, i as f64, 1.0).unwrap();
        }
        assert_eq!(d.len(), 100);
        assert_eq!(d.range_count(10.0, 19.0), 10);
        assert!((d.range_weight(10.0, 19.0) - 10.0).abs() < 1e-12);
        // Levels stay logarithmic.
        assert!(d.level_count() <= 8, "levels {}", d.level_count());
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut d = DynamicRange::new();
        d.insert(1, 0.0, 1.0).unwrap();
        assert!(d.insert(1, 1.0, 1.0).is_err());
    }

    #[test]
    fn remove_updates_counts_and_sampling() {
        let mut d = DynamicRange::new();
        for i in 0..50u64 {
            d.insert(i, i as f64, 1.0).unwrap();
        }
        for i in 10..20u64 {
            assert_eq!(d.remove(i), Some((i as f64, 1.0)));
        }
        assert_eq!(d.remove(10), None, "double delete");
        assert_eq!(d.len(), 40);
        assert_eq!(d.range_count(0.0, 49.0), 40);
        assert_eq!(d.range_count(10.0, 19.0), 0);
        let mut rng = StdRng::seed_from_u64(800);
        for _ in 0..200 {
            let out = d.sample_wr(0.0, 49.0, 5, &mut rng).unwrap();
            for (id, key) in out {
                assert!(!(10..20).contains(&id), "sampled deleted id {id}");
                assert_eq!(key, id as f64);
            }
        }
        // A fully deleted range errors.
        assert!(d.sample_wr(10.0, 19.0, 1, &mut rng).is_err());
    }

    #[test]
    fn distribution_matches_weights_under_churn() {
        let mut d = DynamicRange::new();
        let mut rng = StdRng::seed_from_u64(801);
        // Insert 200, delete 60, re-insert 30 with new weights.
        for i in 0..200u64 {
            d.insert(i, i as f64, 1.0 + (i % 4) as f64).unwrap();
        }
        for i in (0..120u64).step_by(2) {
            d.remove(i);
        }
        for i in (0..60u64).step_by(2) {
            d.insert(1000 + i, i as f64 + 0.5, 5.0).unwrap();
        }
        // Ground truth.
        let mut expect: HashMap<u64, f64> = HashMap::new();
        for i in 0..200u64 {
            if !(i < 120 && i % 2 == 0) {
                expect.insert(i, 1.0 + (i % 4) as f64);
            }
        }
        for i in (0..60u64).step_by(2) {
            expect.insert(1000 + i, 5.0);
        }
        let (x, y) = (0.0, 199.0);
        let total: f64 = expect.values().sum();
        assert!((d.range_weight(x, y) - total).abs() < 1e-9);

        let mut counts: HashMap<u64, u64> = HashMap::new();
        let draws = 200_000;
        for (id, _) in d.sample_wr(x, y, draws, &mut rng).unwrap() {
            *counts.entry(id).or_default() += 1;
        }
        for (&id, &w) in expect.iter() {
            let p = *counts.get(&id).unwrap_or(&0) as f64 / draws as f64;
            let want = w / total;
            assert!((p - want).abs() < 0.3 * want + 0.002, "id {id}: {p} vs {want}");
        }
        // Nothing outside the live set.
        for id in counts.keys() {
            assert!(expect.contains_key(id), "sampled unexpected id {id}");
        }
    }

    #[test]
    fn mass_deletion_triggers_rebuild() {
        let mut d = DynamicRange::new();
        for i in 0..256u64 {
            d.insert(i, i as f64, 1.0).unwrap();
        }
        for i in 0..200u64 {
            d.remove(i);
        }
        assert!(d.tombstones() < 200, "rebuild never happened");
        assert_eq!(d.len(), 56);
        let mut rng = StdRng::seed_from_u64(802);
        let out = d.sample_wr(0.0, 255.0, 20, &mut rng).unwrap();
        assert!(out.iter().all(|&(id, _)| id >= 200));
    }

    #[test]
    fn interleaved_workload_stays_consistent() {
        let mut d = DynamicRange::new();
        let mut rng = StdRng::seed_from_u64(803);
        let mut live: HashMap<u64, f64> = HashMap::new();
        let mut next_id = 0u64;
        for round in 0..2000 {
            if round % 3 != 2 || live.is_empty() {
                let key = rng.random::<f64>() * 1000.0;
                d.insert(next_id, key, 1.0).unwrap();
                live.insert(next_id, key);
                next_id += 1;
            } else {
                let &id = live.keys().next().expect("non-empty");
                let key = live.remove(&id).expect("present");
                let got = d.remove(id).expect("present in structure");
                assert_eq!(got.0, key);
            }
        }
        assert_eq!(d.len(), live.len());
        let want = live.values().filter(|&&k| (200.0..=700.0).contains(&k)).count();
        assert_eq!(d.range_count(200.0, 700.0), want);
        if want > 0 {
            let out = d.sample_wr(200.0, 700.0, 50, &mut rng).unwrap();
            assert_eq!(out.len(), 50);
            for (id, key) in out {
                assert_eq!(live.get(&id).copied(), Some(key));
                assert!((200.0..=700.0).contains(&key));
            }
        }
    }

    #[test]
    fn empty_structure_errors() {
        let d = DynamicRange::new();
        let mut rng = StdRng::seed_from_u64(804);
        assert!(d.sample_wr(0.0, 1.0, 1, &mut rng).is_err());
        assert_eq!(d.range_count(0.0, 1.0), 0);
    }

    #[test]
    fn duplicate_keys_with_distinct_ids() {
        let mut d = DynamicRange::new();
        for i in 0..30u64 {
            d.insert(i, 5.0, 1.0).unwrap();
        }
        assert_eq!(d.range_count(5.0, 5.0), 30);
        d.remove(7);
        assert_eq!(d.range_count(5.0, 5.0), 29);
        let mut rng = StdRng::seed_from_u64(805);
        for _ in 0..100 {
            let out = d.sample_wr(5.0, 5.0, 3, &mut rng).unwrap();
            assert!(out.iter().all(|&(id, _)| id != 7));
        }
    }
}
