//! TTL lease semantics on the virtual clock: exact-instant expiry,
//! seamless renewal, and the expired-lease → circuit-breaker path with
//! honest degraded accounting.

use std::sync::Arc;
use std::time::Duration;

use iqs_net::{
    announce_once, shard_specs, Announce, RegistryHandler, ReplicaServer, ServiceRegistry, SimNet,
};
use iqs_serve::{IndexRegistry, Server, ServerConfig};
use iqs_shard::{HealthPolicy, ShardConfig, ShardedService, SHARD_INDEX};
use iqs_testkit::VirtualClock;

fn ann(addr: &str, ttl_ms: u64, epoch: u64) -> Announce {
    Announce { addr: addr.into(), lo_key: 0.0, hi_key: 99.0, total_weight: 100.0, epoch, ttl_ms }
}

/// A lease with TTL `t` is live at `t - ε` and dead *exactly at* `t` —
/// the same closed convention the serve tier uses for deadlines.
#[test]
fn lease_expires_exactly_at_the_deadline() {
    let clock = VirtualClock::new();
    let registry = ServiceRegistry::new(clock.handle());
    assert!(registry.announce(ann("sim://a", 100, 1)).accepted);
    assert!(registry.is_live("sim://a"));
    clock.advance(Duration::from_millis(99));
    assert!(registry.is_live("sim://a"), "one tick before the deadline is live");
    clock.advance(Duration::from_millis(1));
    assert!(!registry.is_live("sim://a"), "dead exactly at the deadline");
    assert!(registry.live().is_empty());
}

/// Re-announcing inside the TTL extends the lease with no dead window;
/// the new deadline counts from the renewal.
#[test]
fn renewal_before_expiry_is_seamless() {
    let clock = VirtualClock::new();
    let registry = ServiceRegistry::new(clock.handle());
    assert!(registry.announce(ann("sim://a", 100, 1)).accepted);
    clock.advance(Duration::from_millis(60));
    assert!(registry.announce(ann("sim://a", 100, 1)).accepted, "renewal inside the TTL");
    clock.advance(Duration::from_millis(60));
    assert!(registry.is_live("sim://a"), "old deadline passed, renewed lease holds");
    clock.advance(Duration::from_millis(40));
    assert!(!registry.is_live("sim://a"), "dead exactly at the renewed deadline");
}

/// The full degraded path: a single-replica cluster whose lease expires
/// keeps *refusing* submission (the endpoint is still bound — only the
/// lease died), so queries degrade with honest missing counts, the
/// breaker trips, and a re-announcement plus probe recovers it.
#[test]
fn expired_lease_trips_the_breaker_and_reannounce_recovers() {
    let clock = VirtualClock::new();
    let net = SimNet::new(clock.handle());
    let registry = Arc::new(ServiceRegistry::new(clock.handle()));
    net.bind("sim://registry", Arc::new(RegistryHandler::new(Arc::clone(&registry))));
    let transport = net.transport();

    let elements: Vec<(u64, f64, f64)> = (0..100).map(|i| (i, i as f64, 1.0)).collect();
    let mut indexes = IndexRegistry::new();
    indexes.register_range_keyed(SHARD_INDEX, elements).expect("valid slice");
    let server = Server::start(
        indexes,
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
            default_deadline: None,
            max_sample_size: 1 << 20,
            seed: 0x007e_57ed,
            clock: clock.handle(),
        },
    );
    net.bind("sim://solo", Arc::new(ReplicaServer::new(server.client(), clock.handle())));
    let ttl = 100u64;
    announce_once(
        &*transport,
        "sim://registry",
        &ann("sim://solo", ttl, 1),
        clock.handle().now() + Duration::from_secs(1),
    )
    .expect("announce");

    let specs = shard_specs(&registry, &transport);
    assert_eq!(specs.len(), 1);
    let svc = ShardedService::from_links(
        specs,
        ShardConfig {
            workers_per_replica: 1,
            scatter_deadline: Duration::from_millis(50),
            health: HealthPolicy { trip_threshold: 2, probe_cooldown: Duration::from_millis(10) },
            seed: 0x5eed,
            clock: clock.handle(),
            ..ShardConfig::default()
        },
    )
    .expect("topology builds");
    let mut client = svc.client();
    let s = 8u32;

    // Live lease: exact reads.
    let drawn = client.sample_wr(None, s).expect("live lease serves");
    assert!(!drawn.degraded);
    assert_eq!(drawn.ids.len(), s as usize);

    // Let the lease die. The endpoint stays bound — only the lease is
    // gone — and submission is refused, so the read degrades honestly:
    // zero ids, all planned draws reported missing.
    clock.advance(Duration::from_millis(ttl));
    let mut degraded_seen = 0u32;
    for _ in 0..3 {
        let drawn = client.sample_wr(None, s).expect("degraded reads still return Ok");
        assert!(drawn.degraded, "an expired lease must not serve silently");
        assert!(drawn.ids.is_empty());
        assert_eq!(drawn.missing, s as usize, "every planned draw is honestly missing");
        degraded_seen += 1;
    }
    let m = client.metrics();
    assert!(m.router.trips >= 1, "consecutive lease refusals must trip the breaker");
    assert_eq!(m.router.degraded_queries, u64::from(degraded_seen));

    // The replica comes back: re-announce (same epoch reclaims a dead
    // address), wait out the probe cooldown, and the next read probes,
    // succeeds, and recovers the breaker.
    announce_once(
        &*transport,
        "sim://registry",
        &ann("sim://solo", ttl, 1),
        clock.handle().now() + Duration::from_secs(1),
    )
    .expect("re-announce");
    clock.advance(Duration::from_millis(20));
    let drawn = client.sample_wr(None, s).expect("recovered replica serves");
    assert!(!drawn.degraded, "renewed lease must serve exactly again");
    assert_eq!(drawn.ids.len(), s as usize);
    let m = client.metrics();
    assert!(m.router.recoveries >= 1, "the probe success must be accounted as a recovery");
    assert_eq!(m.router.degraded_queries, u64::from(degraded_seen), "no new degradation");
}
