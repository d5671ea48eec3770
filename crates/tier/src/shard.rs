//! Per-shard state: the two tier representations and the slot that
//! publishes whichever one is current.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use iqs_em::EmWeightedRangeSampler;
use iqs_serve::{RangeView, Snapshot};

use crate::ShardTier;

/// A shard on the simulated disk. The sampler sits behind a mutex
/// because pool-backed queries take `&mut self`. Retirement is by drop,
/// as for every other snapshot: promotion publishes the hot state and
/// lets go; a reader that pinned this one finishes on it, and whoever
/// holds the last reference discards its blocks under the device lock.
#[derive(Debug)]
pub(crate) struct ColdShard {
    sampler: Mutex<EmWeightedRangeSampler>,
    /// The index's cold-device lock (`TieredIndex::cold_io`).
    device: Arc<Mutex<()>>,
}

impl ColdShard {
    pub(crate) fn new(sampler: EmWeightedRangeSampler, device: &Arc<Mutex<()>>) -> ColdShard {
        ColdShard { sampler: Mutex::new(sampler), device: Arc::clone(device) }
    }

    /// The sampler; callers hold the device lock around its I/O.
    pub(crate) fn lock(&self) -> MutexGuard<'_, EmWeightedRangeSampler> {
        self.sampler.lock().expect("cold sampler poisoned")
    }
}

impl Drop for ColdShard {
    fn drop(&mut self) {
        // Poison is ignored: the blocks go either way, and `drop` must
        // not panic. No holder of a snapshot drops it inside the device
        // lock, so this cannot self-deadlock.
        let _dev = self.device.lock();
        self.sampler.get_mut().unwrap_or_else(PoisonError::into_inner).discard();
    }
}

/// The published representation of one shard: exactly one tier at a
/// time, swapped atomically by maintenance.
#[derive(Debug)]
pub(crate) enum TierState {
    /// Resident in RAM: the same Theorem-3 view `iqs-serve` publishes.
    Hot(RangeView),
    Cold(ColdShard),
}

/// One shard of the tiered index. The immutable identity (name, key
/// span, master triples) lives beside a [`Snapshot`]-published
/// [`TierState`], so readers pin a representation per request and
/// transitions republish without ever blocking a read.
#[derive(Debug)]
pub(crate) struct ShardSlot {
    pub(crate) name: String,
    /// Smallest key in the shard.
    pub(crate) lo: f64,
    /// Largest key in the shard.
    pub(crate) hi: f64,
    pub(crate) len: usize,
    pub(crate) total_weight: f64,
    /// Master copy of the `(id, key, weight)` triples; tier transitions
    /// rebuild from it off-path.
    pub(crate) triples: Arc<Vec<(u64, f64, f64)>>,
    pub(crate) state: Snapshot<TierState>,
    /// Samples drawn from this shard since the last maintenance decay;
    /// drives cold→hot promotion and picks demotion victims.
    pub(crate) accesses: AtomicU64,
    /// Serializes tier transitions of this shard.
    pub(crate) transition: Mutex<()>,
}

impl ShardSlot {
    /// The shard's currently published tier.
    pub(crate) fn tier(&self) -> ShardTier {
        match &*self.state.load() {
            TierState::Hot(_) => ShardTier::Hot,
            TierState::Cold(_) => ShardTier::Cold,
        }
    }

    /// True when `[x, y]` intersects the shard's key span.
    pub(crate) fn overlaps(&self, x: f64, y: f64) -> bool {
        !(self.hi < x || self.lo > y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqs_core::RangeSampler;
    use iqs_em::EmMachine;

    #[test]
    fn hot_shard_maps_ranks_back_to_caller_ids() {
        // Ids deliberately unsorted relative to keys: id = 100 - key.
        let triples: Vec<(u64, f64, f64)> =
            (0..50).map(|i| (100 - i as u64, i as f64, 1.0 + i as f64)).collect();
        let hot = RangeView::from_triples(triples).unwrap();
        let keys = hot.sampler.as_ref().unwrap().keys();
        assert_eq!(keys.len(), 50);
        for (rank, &key) in keys.iter().enumerate() {
            assert_eq!(hot.id_at(rank), 100 - key as u64);
        }
        assert_eq!([0, 49, 7].map(|rank| hot.id_at(rank)), [100, 51, 93]);
    }

    #[test]
    fn overlap_test_is_inclusive_on_both_ends() {
        let slot = ShardSlot {
            name: "s".into(),
            lo: 10.0,
            hi: 20.0,
            len: 1,
            total_weight: 1.0,
            triples: Arc::new(vec![(0, 10.0, 1.0)]),
            state: Snapshot::new(TierState::Cold(ColdShard::new(
                EmWeightedRangeSampler::new_keyed(&EmMachine::new(128, 64), vec![(0, 10.0, 1.0)]),
                &Arc::default(),
            ))),
            accesses: AtomicU64::new(0),
            transition: Mutex::new(()),
        };
        assert!(slot.overlaps(0.0, 10.0));
        assert!(slot.overlaps(20.0, 30.0));
        assert!(slot.overlaps(12.0, 13.0));
        assert!(!slot.overlaps(0.0, 9.9));
        assert!(!slot.overlaps(20.1, 30.0));
        assert_eq!(slot.tier(), ShardTier::Cold);
    }
}
