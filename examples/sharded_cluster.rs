//! A sharded, replicated sampling cluster under fire: clients sample
//! continuously while injected faults kill and revive replicas and a
//! rebalance splits the hottest shard — and not one read fails, not one
//! sample is biased.
//!
//! The cluster ([`iqs::shard::ShardedService`]) range-partitions the key
//! space into shards, each served by replicated `iqs::serve` worker
//! pools. Queries are answered by an *exact* two-level draw (top-level
//! alias over per-shard range weights + §4.1 multinomial sample
//! splitting), so sharding never changes the sampling distribution —
//! verified here with a chi-square test over everything the clients drew
//! while replicas were dying around them.
//!
//! Run with: `cargo run --release --example sharded_cluster`
//! (set `IQS_EXAMPLE_QUERIES` to bound the per-client query count).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use iqs::shard::{FaultMode, FaultyLink, HealthPolicy, ShardConfig, ShardedService};
use iqs::stats::chisq::{chi_square_gof, weight_probs};

fn main() {
    // A cluster over 2^14 weighted keys: 4 shards, 2 replicas each.
    let n = 1usize << 14;
    let elements: Vec<(u64, f64, f64)> =
        (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect();
    let weights: Vec<f64> = elements.iter().map(|&(_, _, w)| w).collect();
    let cluster = ShardedService::new(
        elements,
        ShardConfig {
            shards: 4,
            replicas: 2,
            seed: 42,
            scatter_deadline: Duration::from_millis(500),
            health: HealthPolicy { trip_threshold: 3, probe_cooldown: Duration::from_millis(20) },
            ..ShardConfig::default()
        },
    )
    .expect("valid cluster");
    println!("cluster: {} shards, spans {:?}", cluster.shard_count(), cluster.shard_spans());

    let queries: usize =
        std::env::var("IQS_EXAMPLE_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(2_000);
    let clients = 4usize;
    let s = 32u32;
    let (x, y) = (n as f64 * 0.1, n as f64 * 0.9 - 1.0);
    let (a, b) = ((n as f64 * 0.1) as usize, (n as f64 * 0.9) as usize);
    let failed_reads = AtomicU64::new(0);
    let degraded_reads = AtomicU64::new(0);

    // Clients hammer the cluster while ops chaos runs next to them:
    // kill a replica, revive it, kill another, split the hottest shard,
    // merge it back. Replication (R=2) must mask every single fault.
    let histograms: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let ops = scope.spawn(|| {
            let faults = FaultyLink::wrap_all(&cluster);
            let pause = Duration::from_millis(30);
            std::thread::sleep(pause);
            faults[0][0].set(FaultMode::Down);
            std::thread::sleep(pause);
            faults[3][1].set(FaultMode::Down);
            std::thread::sleep(pause);
            faults[3][1].set(FaultMode::Healthy);
            // Split while shard 0's first replica is still dead: shard 0
            // keeps its index (splits only shift indices to the right).
            let shards = cluster.split_shard(1).expect("split the hot shard");
            std::thread::sleep(pause);
            faults[0][0].set(FaultMode::Healthy);
            let merged = cluster.merge_shards(1).expect("merge it back");
            (shards, merged)
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let mut client = cluster.client();
                let failed = &failed_reads;
                let degraded = &degraded_reads;
                scope.spawn(move || {
                    let mut hist = vec![0u64; b - a];
                    for _ in 0..queries {
                        match client.sample_wr(Some((x, y)), s) {
                            Ok(drawn) => {
                                if drawn.degraded {
                                    degraded.fetch_add(1, Ordering::Relaxed);
                                }
                                for id in drawn.ids {
                                    hist[id as usize - a] += 1;
                                }
                            }
                            Err(_) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    hist
                })
            })
            .collect();
        let hists = handles.into_iter().map(|h| h.join().expect("no panics")).collect();
        let (shards, merged) = ops.join().expect("ops thread");
        println!("ops: killed 2 replicas, revived both, split 4 -> {shards}, merged -> {merged}");
        hists
    });

    // Zero failed reads is the availability contract: every fault was
    // masked by the partner replica or absorbed by the rebalance's
    // atomic topology swap.
    assert_eq!(failed_reads.load(Ordering::Relaxed), 0, "a read failed during the chaos");
    assert_eq!(degraded_reads.load(Ordering::Relaxed), 0, "R=2 must mask single-replica faults");

    // And the samples drawn *during* all of that are still exact: pool
    // every client's histogram and chi-square it against the true
    // weighted distribution at the repo-wide 1e-6 threshold.
    let mut merged_hist = vec![0u64; b - a];
    for hist in &histograms {
        for (m, &h) in merged_hist.iter_mut().zip(hist) {
            *m += h;
        }
    }
    let gof = chi_square_gof(&merged_hist, &weight_probs(&weights[a..b]));
    println!(
        "distribution over {} draws during chaos: p = {:.4} (threshold 1e-6)",
        clients * queries * s as usize,
        gof.p_value
    );
    assert!(gof.consistent_at(1e-6), "sharded sampling biased: p = {}", gof.p_value);

    let m = cluster.metrics();
    println!("\n{m}");
    assert_eq!(m.router.queries, (clients * queries) as u64);
    assert!(m.router.rebalances >= 2);
    println!("cluster metrics JSON: {} bytes", m.to_json().len());
    println!("\nzero failed reads, zero degraded reads, distribution exact — done.");
}
