//! Property test: *controller-chosen* split/merge sequences preserve
//! every partition invariant.
//!
//! Where `crates/shard/tests/placement_props.rs` drives hand-picked
//! split/merge sequences, this suite lets the live [`Controller`]
//! choose the actions — skewed point-query load pushes it to split,
//! idle regions push it to merge — and checks the same shared oracle
//! ([`iqs_testkit::oracle::check_partition`]) after every tick. If the
//! controller ever publishes a topology with a gap, an overlap, a lost
//! element, or drifted weight, this is the test that catches it.

use std::time::Duration;

use iqs_ctl::{Controller, CtlConfig, Decision};
use iqs_shard::{ShardConfig, ShardedService};
use iqs_testkit::oracle::check_partition;
use iqs_testkit::VirtualClock;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Runs the shared partition oracle against the live topology.
fn layout_violation(svc: &ShardedService, baseline: &[(u64, f64, f64)]) -> Result<(), String> {
    let slices: Vec<Vec<(u64, f64, f64)>> = (0..svc.shard_count())
        .map(|idx| svc.shard_elements(idx).expect("index in range").to_vec())
        .collect();
    check_partition(&svc.shard_spans(), &svc.shard_weights(), &slices, baseline, svc.total_weight())
}

proptest! {
    /// Arbitrary duplicate-key datasets and load scripts: the
    /// controller reacts however it likes, and after every tick the
    /// topology must still be a partition and every decision must have
    /// had its advertised effect on the shard count.
    #[test]
    fn controller_actions_preserve_the_partition(
        keys in pvec(0u8..12, 8..40),
        raw_weights in pvec(0.25f64..8.0, 40),
        shards in 1usize..4,
        hot_targets in pvec(0u8..40, 3..8),
    ) {
        let elements: Vec<(u64, f64, f64)> = keys
            .iter()
            .zip(&raw_weights)
            .enumerate()
            .map(|(i, (&key, &w))| (i as u64, key as f64, w))
            .collect();
        let n = elements.len();
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let svc = ShardedService::new(
            elements.clone(),
            ShardConfig { shards, replicas: 1, clock: clock.clone(), ..ShardConfig::default() },
        )
        .expect("valid build");
        // Aggressive thresholds so short scripts actually trigger
        // splits and merges.
        let mut ctl = Controller::new(
            svc.clone(),
            CtlConfig {
                tick: Duration::from_millis(10),
                split_share: 0.5,
                merge_share: 0.2,
                hot_ticks: 1,
                cold_ticks: 1,
                min_shards: 1,
                max_shards: 6,
                min_interval_queries: 4,
                burn_ticks: 2,
            },
        )
        .expect("valid config");

        let baseline: Vec<(u64, f64, f64)> = (0..svc.shard_count())
            .flat_map(|idx| svc.shard_elements(idx).expect("in range").to_vec())
            .collect();
        prop_assert_eq!(layout_violation(&svc, &baseline), Ok(()));
        prop_assert!(ctl.tick().expect("baseline tick").is_empty());

        let mut client = svc.client();
        for &target in &hot_targets {
            // Point queries on one element's key: all load lands on the
            // shard owning it, never an empty range.
            let key = elements[target as usize % n].1;
            for _ in 0..8 {
                let drawn = client.sample_wr(Some((key, key)), 2).expect("point query");
                prop_assert!(!drawn.degraded);
            }
            let before = svc.shard_count();
            let decisions = ctl.tick().expect("controller tick");
            // Every decision has its advertised effect.
            for d in &decisions {
                match d {
                    Decision::Split { .. } => {
                        prop_assert_eq!(svc.shard_count(), before + 1);
                    }
                    Decision::Merge { .. } => {
                        prop_assert_eq!(svc.shard_count(), before - 1);
                    }
                    Decision::Rebuild { .. } => {
                        prop_assert_eq!(svc.shard_count(), before);
                    }
                }
            }
            prop_assert!(decisions.len() <= 1, "at most one split/merge per tick");
            prop_assert!(
                (1..=6).contains(&svc.shard_count()),
                "shard count {} escaped [min_shards, max_shards]",
                svc.shard_count()
            );
            // The invariant this whole suite exists for.
            prop_assert_eq!(layout_violation(&svc, &baseline), Ok(()));
        }

        // Reads still see the whole dataset after autopilot surgery.
        let counted = svc.client().range_count(f64::NEG_INFINITY, f64::INFINITY).expect("count");
        prop_assert_eq!(counted.count, baseline.len());
    }
}
