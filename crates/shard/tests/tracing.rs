//! End-to-end request tracing through the sharded tier.
//!
//! The acceptance test here is the central claim: a traced degraded
//! sharded query's [`TraceView`] reconstructs the *full* two-level
//! schedule — planned shards with weights, the multinomial split,
//! per-leg submission/failover/delivery, and the lost leg — and that
//! schedule is verified against the testkit's transparent
//! [`two_level_reference`] oracle: the delivered ids must equal the
//! oracle's draw with the dark shard's slice (located purely from the
//! trace's split counts) removed.

use std::sync::Mutex;

use iqs_obs::{recorder, Phase, TraceView, UNTRACED};
use iqs_shard::{FaultMode, FaultyLink, ShardConfig, ShardedService};
use iqs_testkit::oracle::{two_level_reference, ShardLeg};
use iqs_testkit::ClockHandle;

/// SplitMix64 increment shared by the serve worker-pool and shard
/// server seed schedules (`iqs-serve` workers, `iqs-shard` replicas).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
/// Per-client split-stream mixing constant (client ordinal 0 uses
/// `config.seed ^ CLIENT_MIX`).
const CLIENT_MIX: u64 = 0xa076_1d64_78bd_642f;

/// The flight recorder is process-global; serialize the tests using it.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn elements(n: usize) -> Vec<(u64, f64, f64)> {
    (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 5) as f64)).collect()
}

#[test]
fn degraded_trace_reconstructs_two_level_schedule_and_matches_oracle() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (shards, replicas) = (3usize, 2usize);
    let seed = 0x0b5e_55ed_u64;
    let svc = ShardedService::new(
        elements(300),
        ShardConfig { shards, replicas, seed, ..ShardConfig::default() },
    )
    .expect("build");
    assert_eq!(svc.shard_count(), 3);
    // Darken shard 1 entirely: both replicas refuse at submission, so
    // its leg is planned (covering queries use the cached weight) but
    // lost at scatter time.
    let faults = FaultyLink::wrap_all(&svc);
    faults[1][0].set(FaultMode::Down);
    faults[1][1].set(FaultMode::Down);

    recorder::install(&ClockHandle::default(), 4096);
    let s = 64u32;
    let mut client = svc.client();
    let drawn = client.sample_wr(None, s).expect("degraded sample");
    recorder::disable();
    let records = recorder::drain();

    assert_ne!(drawn.trace, UNTRACED, "enabled recorder must trace the query");
    assert!(drawn.degraded);
    let view = TraceView::build(&records, drawn.trace);

    // Plan: all three shards, each with its cached range weight,
    // bit-identical to the live topology.
    let planned = view.planned_shards();
    assert_eq!(planned.iter().map(|&(sh, _)| sh).collect::<Vec<_>>(), vec![0, 1, 2]);
    let weights = svc.shard_weights();
    for &(sh, w) in &planned {
        assert_eq!(w.to_bits(), weights[sh as usize].to_bits(), "shard {sh} weight");
    }

    // Split: one count per planned shard, summing to the request.
    let split = view.split_counts();
    assert_eq!(split.iter().map(|&(sh, _)| sh).collect::<Vec<_>>(), vec![0, 1, 2]);
    assert_eq!(split.iter().map(|&(_, c)| c).sum::<u64>(), u64::from(s));
    let lost = split[1].1;
    assert!(lost > 0, "the dark shard drew a zero split; pick another seed");

    // Failover and degradation: both replicas of shard 1 refused the
    // submission (cause 2), the leg was abandoned with its planned
    // count, and the query completed degraded.
    assert_eq!(view.failovers(), vec![(1, 0, 2), (1, 1, 2)]);
    assert_eq!(view.degraded_legs(), vec![(1, lost)]);
    assert_eq!(drawn.missing as u64, lost);
    assert!(view.is_degraded());
    assert!(view.total_latency().is_some());

    // Delivered legs carry the whole worker-side story, including the
    // sampling-cost profile.
    for shard in [0u32, 2] {
        let leg = view
            .legs()
            .into_iter()
            .find(|l| l.shard == shard && l.replica.is_some())
            .unwrap_or_else(|| panic!("shard {shard} must have a delivered leg"));
        let phases: Vec<Phase> = leg.records.iter().map(|r| r.phase).collect();
        for phase in [
            Phase::LegSubmit,
            Phase::Enqueue,
            Phase::Pickup,
            Phase::RngCost,
            Phase::WorkDone,
            Phase::LegDone,
        ] {
            assert!(phases.contains(&phase), "shard {shard} leg missing {phase:?}");
        }
        assert!(view.leg_rng_words(shard) > 0, "shard {shard} consumed randomness");
    }
    assert_eq!(view.leg_rng_words(1), 0, "the dark shard never reached a worker");

    // Oracle: the testkit's transparent two-level reference, driven by
    // the tier's real seed schedule — client 0's split stream at the
    // top, each shard's replica-0 worker-0 stream per leg — must
    // reproduce the delivered ids once the dark shard's slice (located
    // from the traced split alone) is removed.
    let spans = svc.shard_spans();
    let slices: Vec<_> =
        (0..shards).map(|idx| svc.shard_elements(idx).expect("valid shard")).collect();
    let legs: Vec<ShardLeg<'_>> = spans
        .iter()
        .zip(&slices)
        .enumerate()
        .map(|(idx, (&span, elems))| ShardLeg { shard_idx: idx, span, elements: elems })
        .collect();
    let split_seed = seed ^ CLIENT_MIX;
    let reference =
        two_level_reference(&legs, f64::NEG_INFINITY, f64::INFINITY, s, split_seed, |_, idx| {
            // Replica 0 of shard `idx` is server ordinal 1 + idx·replicas;
            // its single worker draws stream 0 of that server's pool.
            seed.wrapping_add(GOLDEN.wrapping_mul((1 + idx * replicas) as u64)) ^ GOLDEN
        })
        .expect("covering range has weight");
    assert_eq!(reference.len(), s as usize);
    let (c0, c1) = (split[0].1 as usize, split[1].1 as usize);
    let mut expected = reference;
    expected.drain(c0..c0 + c1);
    assert_eq!(drawn.ids, expected, "trace schedule + oracle must replay the live draw");

    // The degraded query is also the interval's slowest traced query.
    let slow = svc.slow_queries();
    assert!(slow.iter().any(|e| e.trace == drawn.trace), "slow log must hold the trace");
    let prom = svc.prometheus();
    assert!(prom.contains("iqs_shard_router_events_total{event=\"degraded_queries\"} 1\n"));
}

#[test]
fn untraced_queries_carry_no_trace_and_leave_no_records() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    recorder::disable();
    let svc = ShardedService::new(
        elements(60),
        ShardConfig { shards: 2, replicas: 1, ..ShardConfig::default() },
    )
    .expect("build");
    let mut client = svc.client();
    let drawn = client.sample_wr(None, 16).expect("sample");
    assert_eq!(drawn.trace, UNTRACED);
    let counted = client.range_count(0.0, 30.0).expect("count");
    assert_eq!(counted.trace, UNTRACED);
    assert!(svc.slow_queries().is_empty(), "untraced queries never enter the slow log");
}
