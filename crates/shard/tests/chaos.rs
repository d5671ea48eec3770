//! Fault-schedule chaos testing: seeded `iqs_testkit` fault plans drive
//! a virtual-clock cluster step by step, and the availability invariants
//! must hold at every step — reads never fail, degradation appears
//! exactly when a plan darkens a whole shard, and recovery follows as
//! soon as the schedule clears. The second test runs the shrinker
//! against the live cluster: a violation found under a 24-event random
//! plan reduces to its 2-event essential core.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use iqs_obs::{recorder, TraceView};
use iqs_shard::{FaultMode, FaultyLink, HealthPolicy, ShardConfig, ShardedService};
use iqs_testkit::seed::{derive, suite_seed};
use iqs_testkit::{FaultKind, FaultPlan, PlanShape, VirtualClock};

const SHAPE: PlanShape =
    PlanShape { steps: 30, shards: 3, replicas: 2, events: 18, max_delay_ms: 40 };

fn elements(n: usize) -> Vec<(u64, f64, f64)> {
    (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 5) as f64)).collect()
}

/// Builds a cluster matching [`SHAPE`] on a fresh virtual clock. The
/// scatter deadline exceeds `max_delay_ms`, so delay faults are always
/// absorbed and only Down/Error can darken a shard — the same
/// convention `FaultPlan::dark_shards` uses.
fn cluster(seed: u64) -> (ShardedService, VirtualClock) {
    let vc = VirtualClock::new();
    let svc = ShardedService::new(
        elements(300),
        ShardConfig {
            shards: SHAPE.shards,
            replicas: SHAPE.replicas,
            seed,
            scatter_deadline: Duration::from_millis(500),
            // A short cooldown relative to the 1-virtual-second step, so
            // breakers tripped in one step can always be probed in the
            // next.
            health: HealthPolicy { trip_threshold: 2, probe_cooldown: Duration::from_millis(10) },
            clock: vc.handle(),
            ..ShardConfig::default()
        },
    )
    .expect("build");
    (svc, vc)
}

/// Sets every wrapped replica link to the fault `plan` puts it under at
/// `step` ([`FaultPlan::kind_at`]), healthy where no event is active.
fn inject_step(plan: &FaultPlan, faults: &[Vec<Arc<FaultyLink>>], step: usize) {
    for (shard, links) in faults.iter().enumerate() {
        for (replica, link) in links.iter().enumerate() {
            link.set(FaultMode::from_plan(plan.kind_at(step, shard, replica)));
        }
    }
}

/// Replays `plan` against a live cluster, one virtual second per step,
/// translating each step's active events into injected faults. Returns
/// the steps at which a full-span `range_count` reported degradation.
fn degraded_steps(plan: &FaultPlan, svc: &ShardedService, vc: &VirtualClock) -> Vec<usize> {
    let faults = FaultyLink::wrap_all(svc);
    let mut client = svc.client();
    let mut degraded = Vec::new();
    for step in 0..SHAPE.steps {
        inject_step(plan, &faults, step);
        // One virtual second per step: any breaker tripped in an earlier
        // step is past its cooldown and will be probed, so lingering
        // breaker state never outlives the schedule that caused it.
        vc.advance(Duration::from_secs(1));

        let dark = plan.dark_shards(step, SHAPE.replicas);
        let counted = client.range_count(f64::NEG_INFINITY, f64::INFINITY).expect("never fails");
        assert_eq!(
            counted.degraded,
            !dark.is_empty(),
            "step {step}: counted degradation disagrees with the plan's dark set {dark:?}"
        );
        assert_eq!(counted.shards_unavailable, dark.len(), "step {step}");

        let drawn = client.sample_wr(None, 32).expect("reads never fail under faults");
        assert_eq!(drawn.ids.len() + drawn.missing, 32, "step {step}: draws unaccounted");
        if dark.is_empty() {
            assert!(!drawn.degraded, "step {step}: degraded without a dark shard");
            assert_eq!(drawn.missing, 0, "step {step}");
        }
        if counted.degraded {
            degraded.push(step);
        }
    }
    degraded
}

/// Every seeded fault schedule upholds the availability invariants, and
/// the observed degraded steps are exactly the plan's dark steps —
/// computable from the schedule alone, independently of the cluster.
#[test]
fn fault_schedules_degrade_exactly_at_dark_steps() {
    for round in 0..4u64 {
        let seed = derive(suite_seed(), "chaos_schedule").wrapping_add(round);
        let plan = FaultPlan::generate(seed, &SHAPE);
        let predicted: Vec<usize> = (0..SHAPE.steps)
            .filter(|&step| !plan.dark_shards(step, SHAPE.replicas).is_empty())
            .collect();
        let (svc, vc) = cluster(seed);
        let observed = degraded_steps(&plan, &svc, &vc);
        assert_eq!(observed, predicted, "seed {seed:#x}: dark-step prediction diverged");
        assert_eq!(svc.metrics().cluster.failed, 0, "replica-side failures under faults");
    }
}

/// The shrinker, judged by the live cluster: starting from a random
/// 24-event plan that degrades some step, `FaultPlan::shrink` (with the
/// cluster replay itself as the violation oracle) must reach the
/// essential core — two non-delay events covering both replicas of one
/// shard — and dropping either event must restore full availability.
#[test]
fn cluster_violations_shrink_to_two_events() {
    let shape = PlanShape { events: 24, ..SHAPE };
    let base = derive(suite_seed(), "chaos_shrink_demo");
    let violates = |plan: &FaultPlan| {
        let (svc, vc) = cluster(0xC1A0);
        !degraded_steps(plan, &svc, &vc).is_empty()
    };
    let seed = (base..)
        .find(|&s| {
            let plan = FaultPlan::generate(s, &shape);
            (0..shape.steps).any(|step| !plan.dark_shards(step, shape.replicas).is_empty())
        })
        .expect("a violating seed exists");
    let plan = FaultPlan::generate(seed, &shape);
    assert!(violates(&plan), "analytically dark plan must degrade the live cluster");

    let minimal = plan.shrink(violates);
    assert_eq!(minimal.events.len(), 2, "essential core is one event per replica");
    let (a, b) = (&minimal.events[0], &minimal.events[1]);
    assert_eq!(a.shard, b.shard, "both events must target the darkened shard");
    assert_ne!(a.replica, b.replica, "the events must cover both replicas");
    assert!(a.kind != FaultKind::Delay && b.kind != FaultKind::Delay, "delays cannot darken");
    for drop in 0..2 {
        let mut partial = minimal.clone();
        partial.events.remove(drop);
        assert!(!violates(&partial), "dropping event {drop} must restore availability");
    }
}

/// With the flight recorder on, every degraded response's trace tells
/// the whole failure story: the abandoned legs name exactly the plan's
/// dark shards, each dark shard shows a failover attempt on every
/// replica, and across the schedule the traces capture breaker trips.
#[test]
fn degraded_traces_name_dark_shards_and_failure_events() {
    let seed = derive(suite_seed(), "chaos_trace");
    let plan = FaultPlan::generate(seed, &SHAPE);
    assert!(
        (0..SHAPE.steps).any(|step| !plan.dark_shards(step, SHAPE.replicas).is_empty()),
        "seed {seed:#x}: schedule never darkens a shard; derive a different label"
    );
    let (svc, vc) = cluster(seed);
    recorder::install(&vc.handle(), 8192);
    let faults = FaultyLink::wrap_all(&svc);
    let mut client = svc.client();
    let mut degraded_traces = 0u32;
    let mut trips_seen = 0usize;
    for step in 0..SHAPE.steps {
        inject_step(&plan, &faults, step);
        vc.advance(Duration::from_secs(1));
        let dark: BTreeSet<u32> =
            plan.dark_shards(step, SHAPE.replicas).into_iter().map(|s| s as u32).collect();
        let drawn = client.sample_wr(None, 32).expect("reads never fail under faults");
        let records = recorder::drain();
        let view = TraceView::build(&records, drawn.trace);
        assert_eq!(drawn.degraded, !dark.is_empty(), "step {step}");
        assert_eq!(view.is_degraded(), drawn.degraded, "step {step}: trace verdict");
        if !drawn.degraded {
            continue;
        }
        degraded_traces += 1;
        // The abandoned legs are exactly the plan's dark shards, and the
        // lost counts cover the response's missing draws.
        let lost: BTreeSet<u32> = view.degraded_legs().iter().map(|&(sh, _)| sh).collect();
        assert_eq!(lost, dark, "step {step}: degraded legs must name the dark shards");
        let lost_total: u64 = view.degraded_legs().iter().map(|&(_, c)| c).sum();
        assert_eq!(lost_total, drawn.missing as u64, "step {step}");
        // Every dark shard was given a fair chance: a failover event per
        // replica before the leg was abandoned.
        for &shard in &dark {
            let attempts: BTreeSet<u32> = view
                .failovers()
                .iter()
                .filter(|&&(sh, _, _)| sh == shard)
                .map(|&(_, replica, _)| replica)
                .collect();
            assert_eq!(
                attempts.len(),
                SHAPE.replicas,
                "step {step}: dark shard {shard} must record a failover on every replica"
            );
        }
        trips_seen += view.breaker_trips().len();
    }
    recorder::disable();
    assert!(degraded_traces > 0, "the schedule must degrade at least one query");
    assert!(trips_seen > 0, "repeated failures must trip breakers inside traced queries");
}

/// Delay faults replay on a virtual clock even when the legs are handed
/// to the replicas' workers. Each step reads 300 draws of keys 150–299
/// — two legs, past `INLINE_SCATTER_DRAWS`, so each queues for its
/// replica's worker — under six seeded plans of Delay events on the
/// second leg's shard, up to twice the 50 ms scatter deadline: a delay
/// that does not fit times the attempt out, and the failover attempt is
/// handed off and delayed in turn. A delayed leg's reply is awaited
/// before its delay is slept out, so its worker picks it up on a
/// timeline the delay has not moved; three replays of every plan draw
/// the same ids, degrade at the same steps, and count the same
/// failovers, trips and replica outcomes. (A leg's pickup against
/// *another* leg's sleep is still a race, which is why the first leg's
/// shard stays healthy here.)
#[test]
fn delay_schedules_replay_when_legs_are_handed_off() {
    const DEADLINE: Duration = Duration::from_millis(50);
    let shape = PlanShape { events: 12, max_delay_ms: 100, ..SHAPE };
    let replay = || {
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut fold = |word: u64| digest = (digest ^ word).wrapping_mul(0x100_0000_01b3);
        for round in 0..6u64 {
            let seed = derive(suite_seed(), "chaos_delay_replay").wrapping_add(round);
            let mut plan = FaultPlan::generate(seed, &shape);
            for event in &mut plan.events {
                (event.shard, event.kind) = (2, FaultKind::Delay);
            }
            let vc = VirtualClock::new();
            let svc = ShardedService::new(
                elements(300),
                ShardConfig {
                    shards: SHAPE.shards,
                    replicas: SHAPE.replicas,
                    seed,
                    scatter_deadline: DEADLINE,
                    health: HealthPolicy {
                        trip_threshold: 2,
                        probe_cooldown: Duration::from_millis(10),
                    },
                    clock: vc.handle(),
                    ..ShardConfig::default()
                },
            )
            .expect("build");
            let faults = FaultyLink::wrap_all(&svc);
            let mut client = svc.client();
            for step in 0..shape.steps {
                inject_step(&plan, &faults, step);
                vc.advance(Duration::from_secs(1));
                let drawn = client.sample_wr(Some((150.0, 299.0)), 300).expect("never fails");
                assert_eq!(drawn.ids.len() + drawn.missing, 300, "step {step}");
                drawn.ids.iter().for_each(|&id| fold(id));
                fold(u64::from(drawn.degraded));
            }
            let m = svc.metrics();
            let (router, cluster) = (m.router, m.cluster);
            for word in [router.failovers, router.trips, router.recoveries, router.legs] {
                fold(word);
            }
            for word in [cluster.completed, cluster.failed, cluster.deadline_missed] {
                fold(word);
            }
        }
        digest
    };
    let first = replay();
    assert_eq!(replay(), first, "a second replay drew differently");
    assert_eq!(replay(), first, "a third replay drew differently");
}
