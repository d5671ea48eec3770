//! Observability tour: request tracing, the flight recorder, the
//! slow-query log, and Prometheus exposition over a sharded cluster
//! taking real faults.
//!
//! The flight recorder ([`iqs::obs::recorder`]) is off by default and
//! free on the hot path; installing a subscriber turns every cluster
//! query into a traced request whose two-level schedule — planned
//! shards and weights, the multinomial split, per-leg submissions,
//! failovers with cause, breaker trips, delivery or degradation, and
//! per-draw sampling cost — can be reconstructed after the fact with
//! [`iqs::obs::TraceView`].
//!
//! Run with: `cargo run --release --example observability`
//! (set `IQS_EXAMPLE_QUERIES` to bound the traced query count).

use std::time::Duration;

use iqs::obs::recorder::{self, failover_cause_name};
use iqs::obs::TraceView;
use iqs::shard::{FaultMode, FaultyLink, HealthPolicy, ShardConfig, ShardedService};
use iqs::testkit::ClockHandle;

fn main() {
    let n = 1usize << 12;
    let elements: Vec<(u64, f64, f64)> =
        (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect();
    let cluster = ShardedService::new(
        elements,
        ShardConfig {
            shards: 3,
            replicas: 2,
            seed: 7,
            scatter_deadline: Duration::from_millis(500),
            health: HealthPolicy { trip_threshold: 3, probe_cooldown: Duration::from_millis(20) },
            ..ShardConfig::default()
        },
    )
    .expect("valid cluster");
    println!("cluster: {} shards, spans {:?}", cluster.shard_count(), cluster.shard_spans());

    // 1. Install the flight recorder. From here on, every query gets a
    // trace id and its request-path events land in per-thread rings.
    recorder::install(&ClockHandle::default(), 1 << 14);
    let queries: usize =
        std::env::var("IQS_EXAMPLE_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    let mut client = cluster.client();
    for _ in 0..queries {
        let drawn = client.sample_wr(None, 32).expect("healthy cluster");
        assert!(!drawn.degraded);
    }

    // 2. Darken a whole shard and run one more query: it degrades, and
    // its trace tells the complete story.
    let faults = FaultyLink::wrap_all(&cluster);
    faults[1].iter().for_each(|link| link.set(FaultMode::Down));
    let drawn = client.sample_wr(None, 64).expect("degraded but answered");
    assert!(drawn.degraded);

    let records = recorder::drain();
    println!("\nflight recorder: drained {} records", records.len());
    let view = TraceView::build(&records, drawn.trace);
    println!("trace {} — {} records:", view.trace, view.records.len());
    for (shard, weight) in view.planned_shards() {
        println!("  planned shard {shard} with range weight {weight}");
    }
    for (shard, count) in view.split_counts() {
        println!("  split assigned {count} draws to shard {shard}");
    }
    for (shard, replica, cause) in view.failovers() {
        println!("  failover on shard {shard} replica {replica}: {}", failover_cause_name(cause));
    }
    for (shard, lost) in view.degraded_legs() {
        println!("  shard {shard} abandoned: {lost} planned draws lost");
    }
    println!(
        "  rng words consumed {}, total latency {:?}, degraded {}",
        view.rng_words(),
        view.total_latency().expect("query completed"),
        view.is_degraded()
    );
    println!("\ntrace as JSONL ({} bytes):\n{}", view.to_jsonl().len(), view.to_jsonl());

    // 3. The slow-query log: top-k slowest traced queries since the
    // last drain, with exemplar trace ids feeding the histograms.
    let slow = cluster.slow_queries();
    println!("slow-query log ({} entries):", slow.len());
    for entry in slow.iter().take(3) {
        println!("  trace {} took {} ns", entry.trace, entry.latency_ns);
    }

    // 4. Prometheus exposition: router counters and latency under
    // iqs_shard_*, the pooled replica services under iqs_serve_* —
    // including the RNG cost counters kept even when tracing is off.
    let prom = cluster.prometheus();
    let m = cluster.metrics();
    println!("\nprometheus exposition: {} bytes, excerpt:", prom.len());
    for line in prom.lines().filter(|l| !l.starts_with('#')).take(12) {
        println!("  {line}");
    }
    println!(
        "\npooled rng cost: {} words over {} refills across {} replicas",
        m.cluster.rng_words,
        m.cluster.rng_refills,
        m.replicas.len()
    );
    recorder::disable();
    assert_eq!(m.router.degraded_queries, 1);
    assert!(m.cluster.rng_words > 0, "draw paths must meter their randomness");
    println!("\ntraced {queries} healthy queries + 1 degraded, schedule reconstructed — done.",);
}
