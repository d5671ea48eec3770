//! Exactness of the sharded two-level draw.
//!
//! Four independent lines of evidence:
//! 1. **Exact replay** (proptest): the testkit's transparent two-level
//!    oracle — per-shard `ChunkedRange`s rebuilt from the introspected
//!    slices, the same top-level alias split, and the seed schedule a
//!    live query runs on — reproduces a fresh cluster's first
//!    `ClusterClient::sample_wr` element for element, on arbitrary
//!    weighted inputs with duplicate keys and arbitrary query ranges.
//!    Draw counts reach past the 256 a scatter answers inline, so legs
//!    handed to the replica workers are replayed too, and a negative
//!    control shows a leg seed off by one is caught.
//! 2. **Exact counts** (proptest): scatter-gathered range counts equal a
//!    direct scan, as integers.
//! 3. **Chi-square** (testkit gate): the full cluster path (queues,
//!    workers, replicas, failover machinery engaged but idle) matches
//!    the single-node weighted distribution, judged by the registered
//!    `shard_two_level_chi_square` gate under the suite seed.
//! 4. **Chi-square across rebalances** (testkit gate): full-range reads
//!    interleaved with a fixed script of splits and merges keep the
//!    `w(e)/W` marginals, judged by `shard_rebalance_chi_square`.

use iqs_shard::{Sampled, ShardConfig, ShardError, ShardedService};
use iqs_stats::chisq::{chi_square_gof, weight_probs};
use iqs_testkit::gate::{self, Trial};
use iqs_testkit::oracle::{two_level_reference, ShardLeg};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// SplitMix64 increment of the seed schedules: replica server `k` of a
/// cluster seeded `seed` is seeded `seed + k·GOLDEN`, and seat `i` of a
/// server seeded `t` draws from `t ^ (i + 1)·GOLDEN`.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Client 0's split stream is seeded `seed ^ CLIENT_MIX`.
const CLIENT_MIX: u64 = 0xa076_1d64_78bd_642f;

/// The stream shard `idx`'s leg is drawn from on a fresh cluster of one
/// replica and one worker per shard: seat 0 of server ordinal `1 + idx`.
fn seat_seed(seed: u64, idx: usize) -> u64 {
    seed.wrapping_add(GOLDEN.wrapping_mul(1 + idx as u64)) ^ GOLDEN
}

/// Builds a cluster seeded `seed` (one replica, one worker per shard),
/// draws once through a fresh client, and runs the testkit's two-level
/// oracle on the cluster's introspected topology under the same
/// schedule, with every leg's seed moved by `skew` (0 for the real one).
fn live_and_reference(
    elements: Vec<(u64, f64, f64)>,
    shards: usize,
    (x, y): (f64, f64),
    s: u32,
    seed: u64,
    skew: u64,
) -> (Result<Sampled, ShardError>, Option<Vec<u64>>) {
    let config = ShardConfig { shards, replicas: 1, seed, ..ShardConfig::default() };
    let svc = ShardedService::new(elements, config).expect("valid build");
    let live = svc.client().sample_wr(Some((x, y)), s);
    let spans = svc.shard_spans();
    let slices: Vec<_> =
        (0..spans.len()).map(|idx| svc.shard_elements(idx).expect("span index is valid")).collect();
    let legs: Vec<ShardLeg<'_>> = spans
        .iter()
        .zip(&slices)
        .enumerate()
        .map(|(idx, (&span, elems))| ShardLeg { shard_idx: idx, span, elements: elems })
        .collect();
    let reference = two_level_reference(&legs, x, y, s, seed ^ CLIENT_MIX, |_, idx| {
        seat_seed(seed, idx).wrapping_add(skew)
    });
    (live, reference)
}

fn elements_from(keys: &[u8], weights: &[f64]) -> Vec<(u64, f64, f64)> {
    keys.iter().zip(weights).enumerate().map(|(i, (&key, &w))| (i as u64, key as f64, w)).collect()
}

/// The negative control of the replay below: the same live draws, held
/// against a reference whose leg seeds are off by one, disagree — for a
/// scatter answered inline (64 draws) and one handed to the replica
/// workers (300).
#[test]
fn replay_with_a_leg_seed_off_by_one_diverges() {
    let keys: Vec<u8> = (0..48).map(|i| i % 12).collect();
    let weights: Vec<f64> = (0..48).map(|i| 0.5 + f64::from(i % 5)).collect();
    for s in [64, 300] {
        let replay = |skew| {
            let (live, reference) =
                live_and_reference(elements_from(&keys, &weights), 4, (1.0, 10.0), s, 0x5eed, skew);
            let live = live.expect("the range has weight");
            assert!(!live.degraded);
            (live.ids, reference.expect("the range has weight"))
        };
        let (live, exact) = replay(0);
        assert_eq!(live, exact, "s = {s}: the real schedule must replay");
        let (again, skewed) = replay(1);
        assert_eq!(again, live, "s = {s}: equal seeds, equal clusters, equal draws");
        assert_ne!(skewed, live, "s = {s}: a leg seed off by one went unnoticed");
    }
}

proptest! {
    /// A live draw equals the testkit oracle, element for element, over
    /// arbitrary duplicate-key inputs, shard counts, ranges, seeds, and
    /// draw counts on both sides of the inline-scatter bound.
    #[test]
    fn two_level_replay_matches_reference(
        keys in pvec(0u8..12, 2..48),
        raw_weights in pvec(0.5f64..8.0, 48..49),
        shards in 1usize..6,
        lo in 0u8..13,
        hi in 0u8..13,
        s in 0u32..320,
        seed in 0u64..u64::MAX,
    ) {
        let weights = &raw_weights[..keys.len()];
        let elements = elements_from(&keys, weights);
        let (x, y) = (lo.min(hi) as f64, lo.max(hi) as f64);
        let (live, expected) = live_and_reference(elements, shards, (x, y), s, seed, 0);
        match live {
            Ok(drawn) => {
                prop_assert!(!drawn.degraded, "a healthy cluster degraded");
                let ids = drawn.ids;
                let expected = expected.expect("router found weight, reference must too");
                prop_assert_eq!(&ids, &expected, "live draw diverged from reference");
                prop_assert_eq!(ids.len(), s as usize);
                // Every id really lies in range.
                for &id in &ids {
                    let key = keys[id as usize] as f64;
                    prop_assert!((x..=y).contains(&key), "id {} (key {}) outside [{}, {}]", id, key, x, y);
                }
            }
            Err(ShardError::EmptyRange) => prop_assert!(expected.is_none(), "reference found weight the router missed"),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// Scatter-gathered counts equal a direct scan, exactly.
    #[test]
    fn scatter_count_equals_direct_scan(
        keys in pvec(0u8..20, 1..64),
        shards in 1usize..6,
        lo in 0u8..21,
        hi in 0u8..21,
    ) {
        let weights = vec![1.0; keys.len()];
        let elements = elements_from(&keys, &weights);
        let svc = ShardedService::new(
            elements,
            ShardConfig { shards, replicas: 1, ..ShardConfig::default() },
        )
        .expect("valid build");
        let (x, y) = (lo.min(hi) as f64, lo.max(hi) as f64);
        let expected = keys.iter().filter(|&&k| (x..=y).contains(&(k as f64))).count();
        let counted = svc.client().range_count(x, y).expect("count");
        prop_assert!(!counted.degraded);
        prop_assert_eq!(counted.count, expected);
    }

    /// Per-shard cached weights tile the total exactly (they are sums of
    /// disjoint element sets).
    #[test]
    fn shard_weights_sum_to_total(
        keys in pvec(0u8..10, 1..40),
        raw_weights in pvec(0.25f64..16.0, 40),
        shards in 1usize..7,
    ) {
        let weights = &raw_weights[..keys.len()];
        let elements = elements_from(&keys, weights);
        let svc = ShardedService::new(
            elements,
            ShardConfig { shards, replicas: 1, ..ShardConfig::default() },
        )
        .expect("valid build");
        let direct: f64 = weights.iter().sum();
        let sharded: f64 = svc.shard_weights().iter().sum();
        prop_assert!((sharded - direct).abs() <= 1e-9 * direct.max(1.0),
            "shard weights {} vs direct {}", sharded, direct);
    }
}

/// The full cluster path is distributionally identical to a single-node
/// weighted sampler: chi-square over a partially-overlapping range,
/// judged by the registered gate.
///
/// The gate's draws use one sequential client so the merged histogram is
/// a deterministic function of the gate seed (client split streams,
/// round-robin replica rotation, and per-replica worker streams all
/// advance in a fixed order); the concurrent-client path is exercised by
/// the failover and rebalance suites.
#[test]
fn sharded_chi_square_end_to_end() {
    gate::run("shard_two_level_chi_square", |seed, scale| {
        let n = 4096usize;
        let elements: Vec<(u64, f64, f64)> =
            (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect();
        let weights: Vec<f64> = elements.iter().map(|&(_, _, w)| w).collect();
        let svc = ShardedService::new(
            elements,
            ShardConfig { shards: 4, replicas: 2, seed, ..ShardConfig::default() },
        )
        .expect("valid build");
        assert_eq!(svc.shard_count(), 4);

        // Partially overlaps shards 0 and 3, fully covers 1 and 2, so
        // both the cached-total and live prefix-sum probe paths are
        // exercised.
        let (x, y) = (512.0, 3583.0);
        let (a, b) = (512usize, 3584usize);
        let calls = 1200 * scale;
        let s = 16u32;
        let mut client = svc.client();
        let mut merged = vec![0u64; b - a];
        for _ in 0..calls {
            let drawn = client.sample_wr(Some((x, y)), s).expect("query succeeds");
            assert!(!drawn.degraded, "healthy cluster must not degrade");
            assert_eq!(drawn.missing, 0);
            assert_eq!(drawn.ids.len(), s as usize);
            for id in drawn.ids {
                merged[id as usize - a] += 1;
            }
        }
        let gof = chi_square_gof(&merged, &weight_probs(&weights[a..b]));

        let metrics = svc.metrics();
        assert_eq!(metrics.router.queries, calls as u64);
        assert_eq!(metrics.router.degraded_queries, 0);
        assert_eq!(metrics.router.failovers, 0);
        assert!(metrics.router.probes_cached > 0, "covered shards should use cached totals");
        assert!(metrics.router.probes_live > 0, "edge shards need live prefix sums");
        assert_eq!(metrics.cluster.failed, 0, "no replica-side failures");
        vec![Trial::from_gof("two-level vs single-node", &gof)]
    });
}

/// A fixed rebalancing script, one step after each round of probes. From
/// two shards it passes through three and four and back: split 0, split
/// 2, merge 1, split 1, merge 0, merge 1 — each step valid whatever the
/// median cuts land on.
enum Step {
    Split(usize),
    Merge(usize),
}

const REBALANCE_SCRIPT: [Step; 6] = [
    Step::Split(0),
    Step::Split(2),
    Step::Merge(1),
    Step::Split(1),
    Step::Merge(0),
    Step::Merge(1),
];

/// Reads keep the `w(e)/W` marginals while the topology splits and
/// merges underneath them: full-range probes interleaved with
/// [`REBALANCE_SCRIPT`], their id histogram judged against the weights
/// across every intermediate topology. Each split or merge publishes
/// children whose cached `total_weight` drives the next probe's
/// top-level split, so a child published with the wrong weight skews the
/// histogram.
#[test]
fn shard_rebalance_chi_square() {
    gate::run("shard_rebalance_chi_square", |seed, scale| {
        let n = 256usize;
        let elements: Vec<(u64, f64, f64)> =
            (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 7) as f64)).collect();
        let weights: Vec<f64> = elements.iter().map(|&(_, _, w)| w).collect();
        let svc = ShardedService::new(
            elements,
            ShardConfig { shards: 2, replicas: 1, seed, ..ShardConfig::default() },
        )
        .expect("valid build");

        let mut client = svc.client();
        let mut counts = vec![0u64; n];
        // Scale multiplies rounds, so every escalation level runs whole
        // cycles of the same script.
        let rounds = 30 * scale;
        for round in 0..rounds {
            for _ in 0..32 {
                let drawn = client.sample_wr(None, 64).expect("probe");
                assert!(!drawn.degraded, "a rebalance must not degrade a read");
                assert_eq!(drawn.ids.len(), 64);
                for id in drawn.ids {
                    counts[id as usize] += 1;
                }
            }
            match REBALANCE_SCRIPT[round % REBALANCE_SCRIPT.len()] {
                Step::Split(shard) => svc.split_shard(shard),
                Step::Merge(left) => svc.merge_shards(left),
            }
            .expect("scripted step is valid");
        }

        // The gate is vacuous unless the topology moved under the probes.
        let router = svc.metrics().router;
        assert_eq!(router.rebalances, rounds as u64);
        assert_eq!(router.degraded_queries, 0);
        assert_eq!(svc.shard_count(), 2, "whole cycles end on two shards");

        let gof = chi_square_gof(&counts, &weight_probs(&weights));
        vec![Trial::from_gof("marginals across scripted splits+merges", &gof)]
    });
}
