//! Exact-replay reference implementations.
//!
//! Following Afshani & Phillips, exactness claims are verified by
//! *replay*: a transparent reimplementation of the sampling schedule,
//! built from core primitives only, must reproduce the system under
//! test element for element under the same seed. These combinators are
//! the reusable forms of the oracles that used to live inline in
//! `crates/shard/tests/exactness.rs` and
//! `tests/distribution_equivalence.rs`.

use iqs_alias::split::split_samples_with;
use iqs_alias::AliasTable;
use iqs_core::{ChunkedRange, RangeSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One shard's view for [`two_level_reference`]: its index in the
/// topology, its key span, and its elements as `(id, key, weight)`.
#[derive(Clone, Debug)]
pub struct ShardLeg<'a> {
    /// Shard index in the topology — fed to the leg-seed schedule.
    pub shard_idx: usize,
    /// The shard's key span `(lo, hi)` from the topology (may be wider
    /// than the elements' key extent).
    pub span: (f64, f64),
    /// The shard's elements as `(id, key, weight)`, key-sorted.
    pub elements: &'a [(u64, f64, f64)],
}

/// The two-level sharded draw, reimplemented from core primitives only:
/// no router, no service, no queues. Per-shard `ChunkedRange`s are
/// rebuilt from the raw element slices, range weights are probed the
/// way the router probes them (cached total for covering queries, a
/// live prefix sum otherwise), the top-level alias split is seeded from
/// `seed`, and leg `i` draws from `seed_of_leg(seed, shard_idx)`.
/// Single-leg queries take the trivial split and consume no top-level
/// randomness, matching the router. Returns the sampled element ids, or
/// `None` for a range with no weight.
///
/// `seed_of_leg` is a parameter (not imported from `iqs-shard`) so the
/// testkit stays below the tiers it verifies; callers pass the tier's
/// real schedule — for a live query, the stream of the replica seat
/// that answers each leg.
#[must_use]
pub fn two_level_reference(
    shards: &[ShardLeg<'_>],
    x: f64,
    y: f64,
    s: u32,
    seed: u64,
    seed_of_leg: impl Fn(u64, usize) -> u64,
) -> Option<Vec<u64>> {
    struct RefLeg<'a> {
        shard_idx: usize,
        elements: &'a [(u64, f64, f64)],
        sampler: ChunkedRange,
        weight: f64,
    }
    let mut legs = Vec::new();
    for shard in shards {
        let (lo, hi) = shard.span;
        if hi < x || lo > y {
            continue;
        }
        let pairs: Vec<(f64, f64)> = shard.elements.iter().map(|&(_, key, w)| (key, w)).collect();
        let sampler = ChunkedRange::new(pairs).expect("shard slices are non-empty");
        // Mirror the router: cached total for covering queries, a prefix
        // sum otherwise (bit-identical either way).
        let weight = if x <= lo && y >= hi {
            sampler.range_weight(f64::NEG_INFINITY, f64::INFINITY)
        } else {
            sampler.range_weight(x, y)
        };
        if weight > 0.0 {
            legs.push(RefLeg {
                shard_idx: shard.shard_idx,
                elements: shard.elements,
                sampler,
                weight,
            });
        }
    }
    if legs.is_empty() {
        return None;
    }
    let counts = if legs.len() == 1 {
        vec![s as usize]
    } else {
        let weights: Vec<f64> = legs.iter().map(|leg| leg.weight).collect();
        let table = AliasTable::new(&weights).expect("positive leg weights");
        let mut top = StdRng::seed_from_u64(seed);
        split_samples_with(&table, s as usize, &mut top)
    };
    let mut out = Vec::with_capacity(s as usize);
    for (leg, &count) in legs.iter().zip(&counts) {
        if count == 0 {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed_of_leg(seed, leg.shard_idx));
        let mut ranks = vec![0u32; count];
        leg.sampler.sample_wr_batch(x, y, &mut rng, &mut ranks).expect("in-range draw");
        out.extend(ranks.iter().map(|&rank| leg.elements[rank as usize].0));
    }
    Some(out)
}

/// Verifies that a shard layout is a *partition* of the dataset, over
/// plain data so any suite that splits and merges shards checks the
/// same invariants with the same oracle:
///
/// * the per-shard slices concatenate back to exactly `baseline` (no
///   gap, no overlap, nothing lost, nothing duplicated);
/// * every span is its slice's real key extremes and spans strictly
///   ascend (adjacent spans never touch — an equal-key run is never
///   straddled);
/// * cached per-shard `weights` tile the direct element-weight sum, and
///   the cached `total` matches it, both to `1e-9` relative tolerance.
///
/// Returns a description of the first violated invariant.
///
/// # Errors
/// A human-readable description of the violation, naming the shard.
pub fn check_partition(
    spans: &[(f64, f64)],
    weights: &[f64],
    slices: &[Vec<(u64, f64, f64)>],
    baseline: &[(u64, f64, f64)],
    total: f64,
) -> Result<(), String> {
    if spans.len() != slices.len() || weights.len() != slices.len() {
        return Err(format!(
            "layout is inconsistent: {} spans, {} weights, {} slices",
            spans.len(),
            weights.len(),
            slices.len()
        ));
    }
    let concatenated: Vec<(u64, f64, f64)> = slices.iter().flatten().copied().collect();
    if concatenated != baseline {
        return Err("shards no longer tile the dataset".to_string());
    }
    let mut prev_hi = f64::NEG_INFINITY;
    for (idx, (&(lo, hi), slice)) in spans.iter().zip(slices).enumerate() {
        let Some((first, last)) = slice.first().zip(slice.last()) else {
            return Err(format!("shard {idx} is empty"));
        };
        if lo != first.1 || hi != last.1 {
            return Err(format!(
                "shard {idx} span [{lo}, {hi}] is not its slice's key extremes \
                 [{}, {}]",
                first.1, last.1
            ));
        }
        if lo > hi {
            return Err(format!("shard {idx} span [{lo}, {hi}] is inverted"));
        }
        if idx > 0 && prev_hi >= lo {
            return Err(format!("shard {idx} overlaps its left neighbour ({prev_hi} >= {lo})"));
        }
        prev_hi = hi;
    }
    let direct: f64 = baseline.iter().map(|&(_, _, w)| w).sum();
    let tiled: f64 = weights.iter().sum();
    let tol = 1e-9 * direct.max(1.0);
    if (tiled - direct).abs() > tol {
        return Err(format!("shard weights {tiled} drifted from direct sum {direct}"));
    }
    if (total - direct).abs() > tol {
        return Err(format!("cached total {total} drifted from direct sum {direct}"));
    }
    Ok(())
}

/// Verifies that a sampler's allocation-free batch path replays its
/// sequential path exactly: `sample_wr_into` from a generator seeded
/// with `seed` must return precisely the ranks `sample_wr` returns from
/// an equally seeded generator, or both must reject the range. Returns
/// a description of the divergence, if any.
pub fn batch_replays_sequential(
    sampler: &dyn RangeSampler,
    x: f64,
    y: f64,
    s: usize,
    seed: u64,
) -> Result<(), String> {
    let mut rng_seq = StdRng::seed_from_u64(seed);
    let seq = sampler.sample_wr(x, y, s, &mut rng_seq);

    let mut rng_batch = StdRng::seed_from_u64(seed);
    let mut out = vec![0u32; s];
    let batch = sampler.sample_wr_into(x, y, &mut rng_batch, &mut out);

    match (seq, batch) {
        (Ok(seq), Ok(())) => {
            let seq32: Vec<u32> = seq.iter().map(|&r| r as u32).collect();
            if seq32 == out {
                Ok(())
            } else {
                Err(format!(
                    "batch diverged from sequential at seed {seed:#x} over \
                     [{x}, {y}] s={s}: sequential {seq32:?} vs batch {out:?}"
                ))
            }
        }
        (Err(_), Err(_)) => Ok(()),
        (seq, batch) => Err(format!(
            "error disagreement at seed {seed:#x} over [{x}, {y}] s={s}: \
             sequential {seq:?} vs batch {batch:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elements(n: usize) -> Vec<(u64, f64, f64)> {
        (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 7) as f64)).collect()
    }

    #[test]
    fn single_leg_reference_replays_the_bare_sampler() {
        // With one shard the reference is exactly a seeded ChunkedRange
        // draw: no top-level randomness may be consumed.
        let elems = elements(64);
        let legs = [ShardLeg { shard_idx: 0, span: (0.0, 63.0), elements: &elems }];
        let ids =
            two_level_reference(&legs, 10.0, 50.0, 32, 7, |seed, idx| seed ^ (idx as u64 + 1))
                .expect("range has weight");
        assert_eq!(ids.len(), 32);

        let pairs: Vec<(f64, f64)> = elems.iter().map(|&(_, k, w)| (k, w)).collect();
        let sampler = ChunkedRange::new(pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(7 ^ 1);
        let mut ranks = vec![0u32; 32];
        sampler.sample_wr_batch(10.0, 50.0, &mut rng, &mut ranks).unwrap();
        let direct: Vec<u64> = ranks.iter().map(|&r| elems[r as usize].0).collect();
        assert_eq!(ids, direct);
    }

    #[test]
    fn out_of_span_shards_contribute_nothing() {
        let a = elements(8);
        let b: Vec<(u64, f64, f64)> =
            (0..8).map(|i| (100 + i as u64, 100.0 + i as f64, 1.0)).collect();
        let legs = [
            ShardLeg { shard_idx: 0, span: (0.0, 7.0), elements: &a },
            ShardLeg { shard_idx: 1, span: (100.0, 107.0), elements: &b },
        ];
        let ids = two_level_reference(&legs, 0.0, 7.0, 16, 3, |s, i| s ^ i as u64)
            .expect("weight in range");
        assert!(ids.iter().all(|&id| id < 100), "far shard must not contribute");
        assert!(
            two_level_reference(&legs, 20.0, 90.0, 4, 3, |s, i| s ^ i as u64).is_none(),
            "the gap between spans holds no weight"
        );
    }

    #[test]
    fn check_partition_accepts_a_tiling_and_names_violations() {
        let baseline = elements(6);
        let slices = vec![baseline[..3].to_vec(), baseline[3..].to_vec()];
        let spans = vec![(0.0, 2.0), (3.0, 5.0)];
        let weights: Vec<f64> = slices.iter().map(|s| s.iter().map(|&(_, _, w)| w).sum()).collect();
        let total: f64 = weights.iter().sum();
        check_partition(&spans, &weights, &slices, &baseline, total).expect("valid partition");

        // Overlapping spans are named by shard index.
        let bad = check_partition(&[(0.0, 3.0), (3.0, 5.0)], &weights, &slices, &baseline, total)
            .expect_err("span not the slice extremes");
        assert!(bad.contains("shard 0"), "got: {bad}");

        // A dropped element breaks the tiling.
        let short = &baseline[..5];
        assert!(check_partition(&spans, &weights, &slices, short, total)
            .expect_err("lost element")
            .contains("tile"));

        // Drifted weights are caught.
        let mut off = weights.clone();
        off[0] += 1.0;
        assert!(check_partition(&spans, &off, &slices, &baseline, total)
            .expect_err("weight drift")
            .contains("drifted"));
        assert!(check_partition(&spans, &weights, &slices, &baseline, total + 1.0)
            .expect_err("total drift")
            .contains("cached total"));
    }

    #[test]
    fn batch_replay_accepts_the_core_samplers() {
        let pairs: Vec<(f64, f64)> = (0..128).map(|i| (i as f64, 0.5 + (i % 5) as f64)).collect();
        let sampler = ChunkedRange::new(pairs).unwrap();
        for seed in 0..20 {
            batch_replays_sequential(&sampler, 8.0, 100.0, 33, seed)
                .expect("batch must replay sequential");
        }
        // Empty range: both paths must reject, which counts as agreement.
        batch_replays_sequential(&sampler, 500.0, 600.0, 4, 1).expect("matching rejections agree");
    }
}
