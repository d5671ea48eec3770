//! Property tests for placement: under any sequence of shard splits and
//! merges, the published topology remains a *partition* of the dataset —
//! spans in strictly increasing key order with no gap and no overlap,
//! every element in exactly one shard, and total sampling weight
//! conserved to float tolerance.
//!
//! The invariants themselves live in
//! [`iqs_testkit::oracle::check_partition`].

use iqs_shard::{ShardConfig, ShardError, ShardedService};
use iqs_testkit::oracle::check_partition;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Concatenates the published shard slices in shard order.
fn concatenated(svc: &ShardedService) -> Vec<(u64, f64, f64)> {
    (0..svc.shard_count())
        .flat_map(|idx| {
            svc.shard_elements(idx).expect("index in range").iter().copied().collect::<Vec<_>>()
        })
        .collect()
}

/// Runs the shared partition oracle against the service's live topology.
fn partition_violation(svc: &ShardedService, baseline: &[(u64, f64, f64)]) -> Result<(), String> {
    let slices: Vec<Vec<(u64, f64, f64)>> = (0..svc.shard_count())
        .map(|idx| svc.shard_elements(idx).expect("index in range").to_vec())
        .collect();
    check_partition(&svc.shard_spans(), &svc.shard_weights(), &slices, baseline, svc.total_weight())
}

proptest! {
    /// Arbitrary duplicate-key datasets, initial shard counts, and
    /// split/merge sequences (targets chosen mod the live shard count)
    /// keep every partition invariant. Refused operations — splitting an
    /// all-equal-keys shard, merging when only one shard remains — must
    /// leave the topology untouched.
    #[test]
    fn splits_and_merges_preserve_the_partition(
        keys in pvec(0u8..12, 2..40),
        raw_weights in pvec(0.25f64..8.0, 40),
        shards in 1usize..5,
        ops in pvec((0u8..2, 0u8..8), 0..6),
    ) {
        let elements: Vec<(u64, f64, f64)> = keys
            .iter()
            .zip(&raw_weights)
            .enumerate()
            .map(|(i, (&key, &w))| (i as u64, key as f64, w))
            .collect();
        let svc = ShardedService::new(
            elements.clone(),
            ShardConfig { shards, replicas: 1, ..ShardConfig::default() },
        )
        .expect("valid build");

        // The baseline the topology must keep tiling: the service's own
        // key-sorted view, which must be a permutation of the input.
        let baseline = concatenated(&svc);
        let mut sorted_input = elements;
        sorted_input.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut sorted_baseline = baseline.clone();
        sorted_baseline.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut sorted_want = sorted_input;
        sorted_want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(sorted_baseline, sorted_want, "build dropped or invented elements");
        prop_assert_eq!(partition_violation(&svc, &baseline), Ok(()));

        for &(op, raw_idx) in &ops {
            let count = svc.shard_count();
            let idx = raw_idx as usize % count;
            match op {
                0 => match svc.split_shard(idx) {
                    Ok(n) => prop_assert_eq!(n, count + 1, "split must add exactly one shard"),
                    Err(ShardError::NoSplitPoint) => {
                        // All-equal-keys shard: refusal must not disturb
                        // the topology.
                        prop_assert_eq!(svc.shard_count(), count);
                    }
                    Err(other) => prop_assert!(false, "unexpected split error: {}", other),
                },
                _ => {
                    if count >= 2 {
                        let left = idx.min(count - 2);
                        let n = svc.merge_shards(left).expect("adjacent merge is valid");
                        prop_assert_eq!(n, count - 1, "merge must remove exactly one shard");
                    } else {
                        prop_assert!(
                            matches!(svc.merge_shards(0), Err(ShardError::UnknownShard(1))),
                            "merging a single shard must be refused"
                        );
                    }
                }
            }
            prop_assert_eq!(partition_violation(&svc, &baseline), Ok(()));
        }

        // Reads agree with the partition after the whole op sequence.
        let counted = svc.client().range_count(f64::NEG_INFINITY, f64::INFINITY).expect("count");
        prop_assert_eq!(counted.count, baseline.len());
    }
}
