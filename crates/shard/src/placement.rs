//! Range partitioning of the key space and shard construction.
//!
//! Shards are contiguous slices of the key-sorted element list, so every
//! element lives in exactly one shard and a shard is described by its
//! key span `[lo_key, hi_key]`. Cuts are placed at equal-count
//! positions, then nudged forward so a run of equal keys never straddles
//! a boundary — a range query could not route deterministically over a
//! straddled run, and a split that cannot separate equal keys is
//! reported as impossible ([`crate::ShardError::NoSplitPoint`]) rather
//! than silently misplaced.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use iqs_serve::{IndexRegistry, Server, ServerConfig};

use crate::error::ShardError;
use crate::health::Health;
use crate::link::{LocalReplica, ReplicaLink};
use crate::router::ShardConfig;

/// The index name every replica registers its slice under. Part of the
/// remote protocol: `iqs-net` replica servers register the same name,
/// so a router's scatter requests resolve identically in-process and
/// over the wire.
pub const SHARD_INDEX: &str = "shard";

/// Mixing constant for deriving per-server seeds (same splitmix64
/// increment `iqs-serve` uses for its per-seat streams).
pub(crate) const SEED_GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// One replica as the router sees it: a link (in-process or remote)
/// plus the router-side health state attached to it.
pub(crate) struct Replica {
    pub(crate) link: Arc<dyn ReplicaLink>,
    pub(crate) health: Health,
}

impl Replica {
    pub(crate) fn new(link: Arc<dyn ReplicaLink>) -> Replica {
        Replica { link, health: Health::default() }
    }
}

/// One shard: the owned slice of the key space and its replica set.
pub(crate) struct ShardHandle {
    /// Smallest element key in the shard.
    pub(crate) lo_key: f64,
    /// Largest element key in the shard.
    pub(crate) hi_key: f64,
    /// Total sampling weight of the slice, cached at build time
    /// (bit-identical to the replicas' cached snapshot value).
    pub(crate) total_weight: f64,
    /// The key-sorted `(id, key, weight)` slice, retained so rebalancing
    /// can re-partition without round-tripping through a replica.
    pub(crate) elements: Arc<Vec<(u64, f64, f64)>>,
    pub(crate) replicas: Vec<Arc<Replica>>,
    /// Round-robin cursor for spreading reads across replicas.
    pub(crate) rr: AtomicUsize,
}

/// The published cluster layout: shards in key order. Immutable;
/// rebalancing builds a new topology and publishes it through the
/// snapshot cell, exactly as dynamic indexes republish their views.
pub(crate) struct Topology {
    pub(crate) shards: Vec<Arc<ShardHandle>>,
}

impl Topology {
    /// Indices of the shards whose key span intersects `[x, y]` — i.e.
    /// every shard that can hold an element satisfying the query, and no
    /// other (spans are the actual data extremes, not nominal
    /// boundaries). Shards are in key order, so the result is a
    /// contiguous index range.
    pub(crate) fn overlapping(&self, x: f64, y: f64) -> std::ops::Range<usize> {
        let first = self.shards.partition_point(|sh| sh.hi_key < x);
        let last = self.shards.partition_point(|sh| sh.lo_key <= y);
        first..last.max(first)
    }
}

/// Cut positions for partitioning `keys` (ascending) into at most
/// `shards` equal-count contiguous slices, never splitting a run of
/// equal keys. Returns the start index of each slice; the first is
/// always 0 and every slice is non-empty, so fewer than `shards` slices
/// come back when duplicate runs (or `keys.len()`) don't allow more.
pub(crate) fn cut_points(keys: &[f64], shards: usize) -> Vec<usize> {
    let n = keys.len();
    let s = shards.clamp(1, n.max(1));
    let mut cuts = vec![0usize];
    for i in 1..s {
        let mut c = i * n / s;
        while c < n && c > 0 && keys[c] == keys[c - 1] {
            c += 1;
        }
        if c < n && c > *cuts.last().expect("cuts non-empty") {
            cuts.push(c);
        }
    }
    cuts
}

/// The cut closest to the median that separates two distinct keys, for
/// splitting a shard in half. `None` when every element shares one key.
pub(crate) fn split_point(keys: &[f64]) -> Option<usize> {
    let n = keys.len();
    if n < 2 {
        return None;
    }
    for c in n / 2..n {
        if keys[c] != keys[c - 1] {
            return Some(c);
        }
    }
    (1..n / 2).rev().find(|&c| keys[c] != keys[c - 1])
}

/// Builds one shard: `replicas` independent single-node services, each
/// registering the (non-empty, key-sorted) slice under its original
/// element ids. Server seeds advance through `seq`, so every replica's
/// worker RNGs form distinct streams, and a shard a split or merge
/// rebuilds never reuses an earlier server's stream.
pub(crate) fn build_shard(
    elements: Arc<Vec<(u64, f64, f64)>>,
    config: &ShardConfig,
    seq: &AtomicU64,
) -> Result<Arc<ShardHandle>, ShardError> {
    let mut replicas = Vec::with_capacity(config.replicas);
    for _ in 0..config.replicas {
        let ordinal = seq.fetch_add(1, Ordering::Relaxed);
        let mut registry = IndexRegistry::new();
        registry.register_range_keyed(SHARD_INDEX, elements.as_ref().clone())?;
        let server = Server::start(
            registry,
            ServerConfig {
                workers: config.workers_per_replica,
                queue_capacity: config.queue_capacity,
                default_deadline: None,
                max_sample_size: config.max_sample_size,
                seed: config.seed.wrapping_add(SEED_GOLDEN.wrapping_mul(ordinal)),
                // The replica must share the router's timeline: scatter
                // deadlines are minted on the router's clock and checked
                // at worker pickup, so mixing clocks would turn every
                // virtual-time advance into a spurious deadline miss.
                clock: config.clock.clone(),
            },
        );
        replicas.push(Arc::new(Replica::new(Arc::new(LocalReplica::new(server)))));
    }
    // Identical slices build identical ChunkedRanges, so this cached
    // value is bit-identical on every replica.
    let total_weight = replicas[0].link.total_weight()?;
    Ok(Arc::new(ShardHandle {
        lo_key: elements.first().expect("shard slices are non-empty").1,
        hi_key: elements.last().expect("shard slices are non-empty").1,
        total_weight,
        elements,
        replicas,
        rr: AtomicUsize::new(0),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuts_are_balanced_and_respect_equal_runs() {
        let keys: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(cut_points(&keys, 4), vec![0, 25, 50, 75]);
        assert_eq!(cut_points(&keys, 1), vec![0]);
        // A run of equal keys across the nominal cut is pushed forward.
        let mut dup = vec![0.0; 30];
        dup.extend((1..=10).map(|i| i as f64));
        let cuts = cut_points(&dup, 4);
        assert_eq!(cuts[0], 0);
        for &c in &cuts[1..] {
            assert_ne!(dup[c], dup[c - 1], "cut at {c} splits an equal run");
        }
        // More shards than keys degrades gracefully.
        assert_eq!(cut_points(&[1.0, 2.0], 8), vec![0, 1]);
        // All keys equal: one shard, whatever was asked.
        assert_eq!(cut_points(&[5.0; 64], 4), vec![0]);
    }

    #[test]
    fn split_point_prefers_the_median_and_detects_impossible() {
        let keys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(split_point(&keys), Some(5));
        // Median sits inside an equal run: first boundary to the right.
        let keys = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0];
        assert_eq!(split_point(&keys), Some(7));
        // ... or to the left when the right has none.
        let keys = [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(split_point(&keys), Some(1));
        assert_eq!(split_point(&[7.0; 16]), None);
        assert_eq!(split_point(&[7.0]), None);
    }
}
