//! Robustness of the sharded tier: failover, degraded modes, delay
//! faults, online rebalancing, and the metrics pipeline — all through
//! the public API with faults injected by wrapping each replica's link
//! in a [`FaultyLink`] (no real crashes needed).
//!
//! Every test that involves time runs on an `iqs_testkit` virtual clock
//! installed in [`ShardConfig`]: breaker cooldowns elapse by explicit
//! `advance` calls and delay faults burn *virtual* scatter budget, so
//! there is no wall-clock sleeping, no wall-clock quantile, and no
//! scheduling race anywhere in this file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use iqs_obs::Ctx;
use iqs_serve::{Admission, LegAsk, Response, ServeError};
use iqs_shard::{
    ClusterMetrics, FaultMode, FaultyLink, HealthPolicy, PendingLeg, ReplicaLink, ShardConfig,
    ShardError, ShardedService,
};
use iqs_testkit::VirtualClock;

fn elements(n: usize) -> Vec<(u64, f64, f64)> {
    (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 7) as f64)).collect()
}

/// Kill one replica mid-stream: every read still succeeds and is
/// complete (zero failed reads), the breaker trips, and no read burns
/// any scatter budget. After revival, advancing the clock past the
/// probe cooldown lets a probe recover the replica.
#[test]
fn replica_death_mid_stream_causes_zero_failed_reads() {
    let vc = VirtualClock::new();
    let config = ShardConfig {
        shards: 2,
        replicas: 2,
        scatter_deadline: Duration::from_millis(500),
        health: HealthPolicy { trip_threshold: 3, probe_cooldown: Duration::from_millis(30) },
        clock: vc.handle(),
        ..ShardConfig::default()
    };
    let svc = ShardedService::new(elements(2048), config).expect("build");
    let faults = FaultyLink::wrap_all(&svc);
    let mut client = svc.client();

    for i in 0..300 {
        if i == 100 {
            faults[0][0].set(FaultMode::Down);
        }
        let drawn = client.sample_wr(Some((0.0, 2047.0)), 32).expect("read must never fail");
        assert!(!drawn.degraded, "R=2 with one dead replica must not degrade (query {i})");
        assert_eq!(drawn.missing, 0);
        assert_eq!(drawn.ids.len(), 32);
    }

    let m = svc.metrics();
    assert!(m.router.failovers > 0, "dead replica must force failovers");
    assert!(m.router.trips >= 1, "three consecutive failures must trip the breaker");
    assert!(m.replicas.iter().any(|r| r.shard == 0 && r.replica == 0 && r.tripped));
    // Down faults are refused at submission: failover costs a retry,
    // never a timeout, so not one query consumed any scatter budget. (On
    // the wall clock this was a flaky p99 bound; on the virtual clock it
    // is an exact statement.)
    assert_eq!(vc.elapsed(), Duration::ZERO, "failover to a dead replica must not burn budget");

    // Revive, then move virtual time past the probe cooldown: the next
    // read claims the probe slot and closes the breaker.
    faults[0][0].set(FaultMode::Healthy);
    vc.advance(Duration::from_millis(40));
    for _ in 0..50 {
        client.sample_wr(None, 8).expect("read");
    }
    let m = svc.metrics();
    assert!(m.router.recoveries >= 1, "revived replica must recover via probe");
    assert!(!m.replicas.iter().any(|r| r.tripped), "no breaker should remain open");
}

/// Unreplicated shards degrade honestly instead of failing reads: the
/// flag is set, `missing` accounts for every undeliverable draw, and the
/// dead shard's keys never appear.
#[test]
fn unreplicated_shard_loss_degrades_honestly() {
    let config = ShardConfig { shards: 3, replicas: 1, ..ShardConfig::default() };
    let svc = ShardedService::new(elements(30), config).expect("build");
    let faults = FaultyLink::wrap_all(&svc);
    let mut client = svc.client();

    // One shard down: partial sample, missing accounted, others exact.
    faults[1][0].set(FaultMode::Down);
    let drawn = client.sample_wr(None, 60).expect("degraded read still succeeds");
    assert!(drawn.degraded);
    assert_eq!(drawn.ids.len() + drawn.missing, 60);
    assert!(drawn.ids.iter().all(|&id| !(10..20).contains(&id)), "dead shard ids appeared");

    // A range entirely inside the dead shard: nothing reachable, but the
    // caller is told it is degradation, not an empty range.
    let inside = client.sample_wr(Some((12.0, 17.0)), 5).expect("degraded read");
    assert!(inside.degraded);
    assert!(inside.ids.is_empty());
    assert_eq!(inside.missing, 5);

    // Counts become explicit lower bounds.
    let counted = client.range_count(0.0, 29.0).expect("count");
    assert!(counted.degraded);
    assert_eq!(counted.count, 20);
    assert_eq!(counted.shards_unavailable, 1);

    // Everything down: still no failed read, all draws missing.
    faults[0][0].set(FaultMode::Down);
    faults[2][0].set(FaultMode::Down);
    let dark = client.sample_wr(None, 9).expect("fully-degraded read");
    assert!(dark.degraded);
    assert!(dark.ids.is_empty());
    assert_eq!(dark.missing, 9);

    // Without-replacement draws stop early under degradation instead of
    // spinning on an unreachable remainder.
    faults[0][0].set(FaultMode::Healthy);
    faults[2][0].set(FaultMode::Healthy);
    let wor = client.sample_wor(None, 25).expect("degraded wor");
    assert!(wor.degraded);
    let mut ids = wor.ids.clone();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), wor.ids.len(), "wor ids must stay distinct");
    assert!(wor.ids.iter().all(|&id| !(10..20).contains(&id)));

    faults[1][0].set(FaultMode::Healthy);
    let healed = client.sample_wor(None, 30).expect("healed wor");
    assert!(!healed.degraded);
    assert_eq!(healed.ids.len(), 30);
    let m = svc.metrics();
    assert!(m.router.degraded_queries >= 4);
}

/// Delay faults: a short delay is absorbed inside the deadline; a delay
/// past the per-attempt deadline behaves as a timeout and fails over to
/// the healthy replica — still zero failed reads. Delays burn virtual
/// time, so the budget accounting is exact instead of a wall-clock
/// upper bound.
#[test]
fn delay_faults_absorb_or_fail_over() {
    let vc = VirtualClock::new();
    let scatter_deadline = Duration::from_millis(120);
    let config = ShardConfig {
        shards: 2,
        replicas: 2,
        scatter_deadline,
        clock: vc.handle(),
        ..ShardConfig::default()
    };
    let svc = ShardedService::new(elements(256), config).expect("build");
    let faults = FaultyLink::wrap_all(&svc);
    let mut client = svc.client();

    faults[0][0].set(FaultMode::Delay(Duration::from_millis(5)));
    for _ in 0..20 {
        let drawn = client.sample_wr(None, 16).expect("slow replica absorbed");
        assert!(!drawn.degraded);
        assert_eq!(drawn.ids.len(), 16);
    }
    // Absorbed delays cost exactly their own duration, only on attempts
    // that actually land on the slow replica — never a full deadline.
    let absorbed = vc.elapsed();
    assert!(absorbed <= 20 * Duration::from_millis(5), "absorbed delays overran: {absorbed:?}");
    let before = svc.metrics().router.failovers;

    faults[0][0].set(FaultMode::Delay(Duration::from_secs(10)));
    for _ in 0..20 {
        let drawn = client.sample_wr(None, 16).expect("stall must fail over");
        assert!(!drawn.degraded);
        assert_eq!(drawn.ids.len(), 16);
    }
    let failed_over = svc.metrics().router.failovers - before;
    assert!(failed_over > 0, "stalls must be charged as failovers");
    // Every stalled attempt burns at most one scatter deadline before
    // failing over; attempts that routed to the healthy replica first
    // burn nothing. Exact virtual-time accounting replaces the old
    // "under 6 wall seconds" smoke bound.
    let stalled = vc.elapsed() - absorbed;
    assert!(
        stalled <= scatter_deadline * failed_over as u32,
        "stalled attempts burned more than one deadline each: {stalled:?}"
    );

    // Error faults fail over exactly like Down.
    faults[0][0].set(FaultMode::Error);
    let drawn = client.sample_wr(None, 16).expect("errors fail over");
    assert!(!drawn.degraded);
}

/// One [`FaultyLink`], driven directly: Down and Error refuse every leg
/// and weight probe without reaching the replica or burning time; a
/// Delay runs the leg through the inner link's door and sleeps before
/// the reply is read — in full when it fits the deadline, the rest of
/// the deadline and a timeout when it does not. Metrics pass through.
#[test]
fn a_faulty_link_fails_the_way_a_replica_does() {
    let vc = VirtualClock::new();
    let config = ShardConfig { shards: 1, replicas: 1, clock: vc.handle(), ..Default::default() };
    let svc = ShardedService::new(elements(10), config).expect("build");
    let link = &FaultyLink::wrap_all(&svc)[0][0];
    let (now, deadline) = (vc.now(), vc.now() + Duration::from_millis(100));
    let leg = LegAsk::SampleWr { x: 0.0, y: 9.0, s: 3 };
    let at = Admission { origin: now, admitted: now, deadline: Some(deadline), ctx: Ctx::none() };
    let run = |pending: Result<PendingLeg, ServeError>| pending.map(|p| p.wait_deadline(deadline));
    let mut out = Vec::new();
    for refusing in [FaultMode::Down, FaultMode::Error] {
        link.set(refusing);
        let refused = ServeError::ShuttingDown;
        assert_eq!(run(link.submit(leg, at)), Err(refused.clone()));
        assert_eq!(run(link.answer(leg, at, &mut out)), Err(refused.clone()));
        assert_eq!(link.total_weight(), Err(refused.clone()));
        assert_eq!(link.range_weight(0.0, 9.0), Err(refused));
    }
    assert_eq!(vc.elapsed(), Duration::ZERO, "a refusal burns no time");
    assert!(out.is_empty(), "a refused leg draws nothing");
    link.set(FaultMode::Delay(Duration::from_millis(30)));
    let drawn = run(link.submit(leg, at));
    assert!(matches!(drawn, Ok(Some(Ok(Response::Samples(ids)))) if ids.len() == 3));
    assert_eq!(vc.elapsed(), Duration::from_millis(30));
    link.set(FaultMode::Delay(Duration::from_secs(10)));
    assert_eq!(run(link.answer(leg, at, &mut out)), Ok(None));
    assert_eq!(vc.elapsed(), Duration::from_millis(100));
    // The answered leg ran on this thread, into the buffer, before its
    // delay timed the attempt out.
    assert_eq!(out.len(), 3);
    // Only the two delayed legs reached the replica, one through each door.
    assert_eq!(link.metrics().completed, 2);
    link.set(FaultMode::Healthy);
    assert_eq!(link.total_weight(), Ok(svc.total_weight()));
}

/// A Delay past the attempt's budget over an in-process replica that
/// answers a leg on the router's thread: the replica has drawn into the
/// leg's buffer by the time the attempt times out, and the router fails
/// over. The reply must hold exactly what the next replica drew — the
/// ids it draws when the first replica refuses outright — so the timed
/// out attempt's ids must have been cleared, not kept.
#[test]
fn a_leg_that_drew_and_then_timed_out_keeps_only_the_next_attempt() {
    let run = |mode| {
        let vc = VirtualClock::new();
        let config = ShardConfig {
            shards: 1,
            replicas: 2,
            scatter_deadline: Duration::from_millis(50),
            clock: vc.handle(),
            ..ShardConfig::default()
        };
        let svc = ShardedService::new(elements(64), config).expect("build");
        FaultyLink::wrap_all(&svc)[0][0].set(mode);
        let drawn = svc.client().sample_wr(None, 32).expect("fails over");
        let m = svc.metrics();
        (drawn, m.router.failovers, m.replicas[0].serve.completed)
    };
    let (stalled, failovers, drew) = run(FaultMode::Delay(Duration::from_secs(10)));
    assert_eq!((failovers, drew), (1, 1), "replica 0 drew, then its attempt timed out");
    assert!(!stalled.degraded);
    assert_eq!(stalled.ids.len(), 32);
    let (refused, failovers, drew) = run(FaultMode::Down);
    assert_eq!((failovers, drew), (1, 0));
    assert_eq!(stalled.ids, refused.ids, "the reply is replica 1's draws alone");
}

/// Shard split and merge while reads hammer the cluster: zero failed
/// reads, no degradation, and totals preserved throughout.
#[test]
fn rebalance_never_fails_a_read() {
    let config = ShardConfig { shards: 2, replicas: 1, ..ShardConfig::default() };
    let svc = ShardedService::new(elements(4096), config).expect("build");
    let total = svc.total_weight();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let mut client = svc.client();
                let stop = &stop;
                scope.spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let drawn = client
                            .sample_wr(Some((100.0, 3995.0)), 24)
                            .expect("read during rebalance");
                        assert!(!drawn.degraded, "rebalance must not degrade reads");
                        assert_eq!(drawn.ids.len(), 24);
                        let counted =
                            client.range_count(0.0, 4095.0).expect("count during rebalance");
                        assert_eq!(counted.count, 4096);
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();

        for _ in 0..4 {
            let n = svc.split_shard(0).expect("split");
            assert_eq!(svc.shard_count(), n);
            assert!((svc.total_weight() - total).abs() < 1e-6 * total);
            let n = svc.merge_shards(0).expect("merge");
            assert_eq!(svc.shard_count(), n);
            assert!((svc.total_weight() - total).abs() < 1e-6 * total);
        }
        stop.store(true, Ordering::Relaxed);
        let reads: u64 = readers.into_iter().map(|h| h.join().expect("no panics")).sum();
        assert!(reads > 0, "readers must have made progress during rebalancing");
    });

    let m = svc.metrics();
    assert_eq!(m.router.rebalances, 8);
    assert_eq!(m.router.degraded_queries, 0);
    assert_eq!(m.cluster.failed, 0);
    // A split that cannot separate equal keys is refused, not botched.
    let flat = ShardedService::new(
        vec![(0, 5.0, 1.0), (1, 5.0, 1.0), (2, 5.0, 1.0)],
        ShardConfig { shards: 1, replicas: 1, ..ShardConfig::default() },
    )
    .expect("build");
    assert!(matches!(flat.split_shard(0), Err(ShardError::NoSplitPoint)));
}

/// The metrics pipeline round-trips through JSON on a live cluster and
/// the pooled view matches the per-replica sum.
#[test]
fn live_cluster_metrics_round_trip_json() {
    let svc = ShardedService::new(
        elements(512),
        ShardConfig { shards: 2, replicas: 2, ..ShardConfig::default() },
    )
    .expect("build");
    let mut client = svc.client();
    for _ in 0..25 {
        client.sample_wr(None, 8).expect("read");
    }
    let m = svc.metrics();
    assert_eq!(m.router.queries, 25);
    assert_eq!(m.replicas.len(), 4);
    let pooled: u64 = m.replicas.iter().map(|r| r.serve.completed).sum();
    assert_eq!(m.cluster.completed, pooled);
    assert!(pooled >= 25, "each query fans out at least one leg");

    let json = m.to_json();
    let back = ClusterMetrics::from_json(&json).expect("parse back");
    assert_eq!(back, m);
    assert!(!format!("{m}").is_empty());
}

/// A NaN bound holds no key in any shard: the scatter answers
/// `EmptyRange`, whether the range would have reached one shard or all.
#[test]
fn a_nan_bound_is_an_empty_range() {
    let config = ShardConfig { shards: 4, replicas: 1, ..ShardConfig::default() };
    let svc = ShardedService::new(elements(400), config).unwrap();
    let mut client = svc.client();
    for (x, y) in [(f64::NAN, 50.0), (f64::NAN, 350.0), (50.0, f64::NAN), (f64::NAN, f64::NAN)] {
        assert_eq!(client.sample_wr(Some((x, y)), 16), Err(ShardError::EmptyRange), "[{x}, {y}]");
    }
}
