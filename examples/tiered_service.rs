//! Tiered storage: a serve node answering queries from an index bigger
//! than the RAM it is given.
//!
//! The index holds a small "recent" shard in RAM (the Theorem-3
//! structure) and a large "archive" shard on the simulated disk (the
//! §8 external-memory structure) behind a bounded block cache. Clients
//! hammer both shards through the full service path while a maintainer
//! thread runs placement passes; once the archive's access counter
//! crosses the promotion threshold, maintenance rebuilds it in RAM and
//! publishes the hot copy with one atomic snapshot swap — with **zero
//! failed reads** across the transition. The service metrics show the
//! cold tier's cache hits and block transfers riding the same
//! `MetricsSnapshot` JSON and Prometheus text every other counter uses.
//!
//! Run with: `cargo run --release --example tiered_service`
//! (set `IQS_EXAMPLE_QUERIES` to bound the per-client query count).

use iqs::serve::{IndexRegistry, Request, Response, Server, ServerConfig};
use iqs::tier::{ShardTier, TierConfig, TieredIndex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    // "recent": 4k elements hot; "archive": 60k elements cold behind a
    // 32-block cache (32 * 256 words — far smaller than the shard).
    let recent: Vec<(u64, f64, f64)> =
        (0..4_000).map(|i| (i, i as f64, 1.0 + (i % 10) as f64)).collect();
    let archive: Vec<(u64, f64, f64)> =
        (100_000..160_000).map(|i| (i, i as f64, 1.0 + (i % 10) as f64)).collect();
    let config = TierConfig {
        block_words: 256,
        cold_cache_blocks: 32,
        hot_element_budget: 100_000,
        promote_accesses: 5_000,
    };
    let index = Arc::new(
        TieredIndex::builder(config)
            .add_shard("recent", recent, ShardTier::Hot)
            .add_shard("archive", archive, ShardTier::Cold)
            .build()
            .expect("valid shards"),
    );
    let mut registry = IndexRegistry::new();
    registry.register_external("catalog", Arc::clone(&index) as _).expect("register");
    let server = Server::start(
        registry,
        ServerConfig { workers: 4, queue_capacity: 512, seed: 2_022, ..ServerConfig::default() },
    );

    let queries: usize =
        std::env::var("IQS_EXAMPLE_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(3_000);
    let clients = 4usize;
    println!(
        "iqs-tier up: 64k-element index \"catalog\", {} elements in RAM, rest behind a \
         {}-block cache",
        index.hot_resident(),
        config.cold_cache_blocks,
    );

    // Clients: mostly archive traffic (the shard that is NOT in RAM),
    // plus spanning queries that split across both tiers.
    let failures = AtomicU64::new(0);
    let samples = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let promoted_at = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // The maintainer: a placement pass every ~10k served samples.
        // The archive's access counter climbs past `promote_accesses`
        // between passes, so one of them promotes it mid-stream.
        let maintainer = {
            let index = Arc::clone(&index);
            let (done, promoted_at, samples) = (&done, &promoted_at, &samples);
            scope.spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Acquire) {
                    let now = samples.load(Ordering::Relaxed);
                    if now.saturating_sub(last) >= 10_000 {
                        last = now;
                        let report = index.maintain();
                        if report.promoted.iter().any(|s| s == "archive") {
                            promoted_at.store(now, Ordering::Relaxed);
                        }
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let readers: Vec<_> = (0..clients)
            .map(|c| {
                let client = server.client();
                let (failures, samples) = (&failures, &samples);
                scope.spawn(move || {
                    for q in 0..queries {
                        let range = match (q + c) % 4 {
                            0 => Some((110_000.0, 150_000.0)), // archive interior
                            1 => Some((100_500.0, 159_500.0)), // archive, boundary chunks
                            2 => None,                         // spans both tiers
                            _ => Some((500.0, 3_500.0)),       // hot shard only
                        };
                        match client.call(Request::SampleWr {
                            index: "catalog".into(),
                            range,
                            s: 16,
                        }) {
                            Ok(Response::Samples(ids)) => {
                                samples.fetch_add(ids.len() as u64, Ordering::Relaxed);
                            }
                            other => {
                                eprintln!("read failed: {other:?}");
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader thread");
        }
        done.store(true, Ordering::Release);
        maintainer.join().expect("maintainer thread");
    });

    let metrics = server.shutdown();
    let counters = index.counters();
    let io = index.io_stats();
    println!("\n--- after {} samples over {clients} clients ---", samples.load(Ordering::Relaxed));
    println!("failed reads:        {} (must be 0)", failures.load(Ordering::Relaxed));
    println!(
        "archive promoted:    {} (after ~{} samples), hot resident now {}",
        counters.promotions > 0,
        promoted_at.load(Ordering::Relaxed),
        index.hot_resident(),
    );
    println!("draws by tier:       hot {}  cold {}", counters.hot_draws, counters.cold_draws);
    println!(
        "block cache:         {:.1}% hit rate ({} hits / {} misses), {} reads, {} writes",
        io.hit_rate() * 100.0,
        io.hits,
        io.misses,
        io.reads,
        io.writes,
    );
    println!(
        "service metrics:     completed {}  cache_hits {}  cache_misses {}  block_reads {}",
        metrics.completed, metrics.cache_hits, metrics.cache_misses, metrics.block_reads,
    );
    let json = metrics.to_json();
    assert!(json.contains("\"cache_hits\""), "I/O counters ride the metrics JSON");
    println!("\n--- tier Prometheus export (excerpt) ---");
    for line in index.to_prometheus().lines().filter(|l| !l.starts_with('#')).take(8) {
        println!("{line}");
    }

    assert_eq!(failures.load(Ordering::Relaxed), 0, "zero failed reads across tiers");
    assert!(counters.cold_draws > 0, "the cold path served traffic");
    assert_eq!(
        metrics.cache_hits + metrics.cache_misses,
        io.hits + io.misses,
        "every cold-tier cache touch is accounted in the service metrics"
    );
    println!("\nok: tiered serving with zero failed reads across promotion");
}
