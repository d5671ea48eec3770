//! Autopilot: a sharded cluster that rebalances itself. A controller
//! watches the cluster's own metrics on a fixed tick and — with no
//! operator in the loop — splits the shard a hotspot is hammering, then
//! rebuilds a zombie replica (alive but answering slower than the
//! scatter deadline) the moment its circuit breaker trips. Readers
//! never stop: every topology change is an atomic snapshot swap, and
//! not one read fails end to end.
//!
//! Run with: `cargo run --release --example autopilot`
//! (set `IQS_EXAMPLE_QUERIES` to bound the per-tick query count).

use std::time::Duration;

use iqs::ctl::{Controller, CtlConfig, Decision};
use iqs::shard::{FaultMode, ShardConfig, ShardedService};
use iqs::testkit::ClockHandle;

fn main() {
    let n = 1usize << 13;
    let elements: Vec<(u64, f64, f64)> =
        (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect();
    let clock = ClockHandle::real();
    let cluster = ShardedService::new(
        elements,
        ShardConfig {
            shards: 3,
            replicas: 1,
            seed: 23,
            scatter_deadline: Duration::from_millis(20),
            clock: clock.clone(),
            ..ShardConfig::default()
        },
    )
    .expect("valid cluster");
    let mut ctl = Controller::new(
        cluster.clone(),
        CtlConfig { hot_ticks: 2, min_interval_queries: 32, ..CtlConfig::default() },
    )
    .expect("valid controller config");
    println!("cluster: {} shards, spans {:?}", cluster.shard_count(), cluster.shard_spans());

    let per_tick: usize =
        std::env::var("IQS_EXAMPLE_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    let mut client = cluster.client();
    let mut failed = 0u64;
    let mut degraded = 0u64;
    let mut query = |client: &mut iqs::shard::ClusterClient, lo: f64, hi: f64| match client
        .sample_wr(Some((lo, hi)), 8)
    {
        Ok(drawn) => u64::from(drawn.degraded),
        Err(_) => {
            failed += 1;
            0
        }
    };

    // Phase 1 — a hotspot hammers the lowest tenth of the key space.
    // Two hot control intervals start the streak; the third splits.
    println!("\nphase 1: hotspot on keys [0, {}) — waiting for the controller to split", n / 10);
    for tick in 0..4 {
        for _ in 0..per_tick {
            degraded += query(&mut client, 0.0, (n / 10) as f64);
        }
        for d in ctl.tick().expect("controller tick") {
            println!("  tick {tick}: controller decided {d:?}");
            assert!(matches!(d, Decision::Split { .. }), "hotspot load must cause a split");
        }
    }
    assert!(ctl.metrics().splits >= 1, "sustained hotspot must trigger a split");
    println!("  shards now: {} {:?}", cluster.shard_count(), cluster.shard_spans());

    // Phase 2 — a zombie replica: alive, but every reply 40 ms late
    // against a 20 ms scatter deadline. Queries degrade (never fail),
    // the breaker trips, and the next tick rebuilds the replica —
    // discarding the fault with the old process.
    println!("\nphase 2: shard 0 replica 0 goes zombie (40 ms delay vs 20 ms deadline)");
    cluster.fault_plan().set(0, 0, FaultMode::Delay(Duration::from_millis(40))).expect("inject");
    let (lo, hi) = cluster.shard_spans()[0];
    let mut zombie_degraded = 0u64;
    for _ in 0..8 {
        zombie_degraded += query(&mut client, lo, hi);
    }
    degraded += zombie_degraded;
    println!("  {zombie_degraded}/8 zombie-path reads degraded, none failed");
    let decisions = ctl.tick().expect("controller tick");
    println!("  controller decided {decisions:?}");
    assert!(
        decisions.iter().any(|d| matches!(d, Decision::Rebuild { .. })),
        "tripped replica must be rebuilt"
    );
    for _ in 0..50 {
        assert_eq!(query(&mut client, lo, hi), 0, "rebuilt replica must serve cleanly");
    }

    let cm = ctl.metrics();
    let m = cluster.metrics();
    println!("\ncontroller: {cm:?}");
    println!("{m}");
    println!("controller prometheus:\n{}", cm.to_prometheus());
    assert_eq!(failed, 0, "autopilot surgery must never fail a read");
    assert!(m.router.rebalances >= 2, "split + rebuild each swap the topology");
    println!(
        "split {} hot shard(s), rebuilt {} zombie replica(s), {} degraded reads absorbed, \
         zero failed — done.",
        cm.splits, cm.rebuilds, degraded
    );
}
