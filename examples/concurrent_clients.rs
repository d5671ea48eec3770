//! IQS structures are immutable after construction, so one index can
//! serve many concurrent clients — and the independence guarantee holds
//! *across clients* exactly as it does across queries: nobody's samples
//! leak information about anybody else's.
//!
//! This program routes that workload through the `iqs-serve` query
//! engine: one registered Theorem-3 index, a worker pool whose seats
//! each hold a seeded RNG and reusable buffers, and 8 client threads
//! issuing typed [`Request::SampleWr`] calls — answered on the caller's
//! own thread while a seat is free, over the bounded admission queue
//! when none is. All
//! outputs are pooled and chi-square-checked, exactly as when clients
//! held the structure directly — the service path must not (and does
//! not) change the sampling distribution.
//!
//! Run with: `cargo run --release --example concurrent_clients`
//! (set `IQS_EXAMPLE_QUERIES` to bound the per-client query count).

use iqs::serve::{IndexRegistry, Request, Response, Server, ServerConfig};
use iqs::stats::chisq::{chi_square_gof, weight_probs};
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    // One registered index over 2^20 weighted keys (key = id, weight
    // cycling 1..=10).
    let n = 1usize << 20;
    let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 10) as f64)).collect();
    let weights: Vec<f64> = pairs.iter().map(|&(_, w)| w).collect();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", pairs).expect("valid input");
    let server = Server::start(
        registry,
        ServerConfig { workers: 4, queue_capacity: 256, seed: 7000, ..ServerConfig::default() },
    );
    println!("iqs-serve up: index \"keys\" with n = {n}, 4 workers");

    let clients = 8usize;
    let queries_per_client: usize =
        std::env::var("IQS_EXAMPLE_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(5_000);
    let s = 20u32;
    let (x, y) = (100_000.0, 150_000.0);
    let (a, b) = (100_000usize, 150_001usize); // ids in [x, y] (key = id)

    let total_queries = AtomicU64::new(0);
    let start = std::time::Instant::now();
    // Per-client id histograms, merged after the scope.
    let histograms: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let client = server.client();
                let total_queries = &total_queries;
                scope.spawn(move || {
                    let mut hist = vec![0u64; b - a];
                    for _ in 0..queries_per_client {
                        let resp = client
                            .call(Request::SampleWr {
                                index: "keys".into(),
                                range: Some((x, y)),
                                s,
                            })
                            .expect("query succeeds");
                        let Response::Samples(ids) = resp else { unreachable!() };
                        for id in ids {
                            hist[id as usize - a] += 1;
                        }
                        total_queries.fetch_add(1, Ordering::Relaxed);
                    }
                    hist
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panics")).collect()
    });
    let elapsed = start.elapsed();
    let qps = total_queries.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64();
    println!(
        "{} clients × {} calls (s = {s}): {:.0} requests/s, {:.2}M samples/s aggregate",
        clients,
        queries_per_client,
        qps,
        qps * s as f64 / 1e6
    );

    // Merge and verify the pooled distribution — the service path (queue,
    // seats, snapshots, per-seat RNGs) must preserve correctness.
    let mut merged = vec![0u64; b - a];
    for hist in &histograms {
        for (m, &h) in merged.iter_mut().zip(hist) {
            *m += h;
        }
    }
    let probs = weight_probs(&weights[a..b]);
    let gof = chi_square_gof(&merged, &probs);
    println!(
        "pooled distribution over {} elements: chi² = {:.0}, p = {:.3} → {}",
        b - a,
        gof.statistic,
        gof.p_value,
        if gof.consistent_at(1e-6) { "CORRECT" } else { "BIASED" }
    );
    assert!(gof.consistent_at(1e-6), "service path biased the distribution");

    // Per-client sanity: each client's marginal is also correct.
    let mut worst_p = 1.0f64;
    for hist in &histograms {
        worst_p = worst_p.min(chi_square_gof(hist, &probs).p_value);
    }
    println!("worst per-client p-value: {worst_p:.4} (all clients sample correctly)");

    let metrics = server.shutdown();
    println!("--- service metrics ---\n{metrics}");
    assert_eq!(metrics.failed, 0, "no request may fail in this workload");
}
