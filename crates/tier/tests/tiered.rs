//! End-to-end tests of the tiered backend: exact replay of the flat
//! Section-8 structure, the registered cold-path chi-square gate served
//! through the full service stack on a virtual clock, and tier
//! transitions under concurrent load with zero failed reads.

use std::sync::Arc;

use iqs_alias::WeightError;
use iqs_core::QueryError;
use iqs_obs::Ctx;
use iqs_serve::{IndexRegistry, Request, Response, ServeError, Server, ServerConfig};
use iqs_stats::chisq::{chi_square_gof, weight_probs};
use iqs_testkit::gate::{self, Trial};
use iqs_testkit::VirtualClock;
use iqs_tier::{ShardTier, TierConfig, TierError, TieredIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn triples(id0: u64, key0: f64, n: usize) -> Vec<(u64, f64, f64)> {
    (0..n).map(|i| (id0 + i as u64, key0 + i as f64, 1.0 + (i % 10) as f64)).collect()
}

fn small_config() -> TierConfig {
    TierConfig { block_words: 64, cold_cache_blocks: 4, ..TierConfig::default() }
}

/// The cold tier is the Section-8 structure, not a reimplementation: a
/// one-shard tiered index and a flat `EmWeightedRangeSampler` built from
/// the same triples consume the same RNG stream and return the same ids,
/// element for element, across repeated queries (spanning lazy pool
/// builds and rebuilds on both sides).
#[test]
fn cold_tier_draws_replay_the_flat_em_structure() {
    use iqs_em::{EmMachine, EmWeightedRangeSampler};

    let data = triples(0, 0.0, 1000);
    let cfg = small_config();
    let idx =
        TieredIndex::builder(cfg).add_shard("only", data.clone(), ShardTier::Cold).build().unwrap();
    let machine = EmMachine::new(cfg.cold_cache_blocks * cfg.block_words, cfg.block_words);
    let mut flat = EmWeightedRangeSampler::new_keyed(&machine, data);

    let mut rng_tier = StdRng::seed_from_u64(42);
    let mut rng_flat = StdRng::seed_from_u64(42);
    for (x, y, s) in [(100.0, 700.0, 256), (0.0, 999.0, 128), (730.0, 740.0, 512)] {
        let (got, io) = idx.sample_wr(Some((x, y)), s, &mut rng_tier, Ctx::none()).unwrap();
        let mut want = Vec::new();
        flat.query_ids_into(x, y, s, &mut rng_flat, &mut want).unwrap();
        assert_eq!(got, want, "cold draw diverged from the flat structure at [{x}, {y}]");
        assert!(io.cache_hits + io.cache_misses > 0, "cold draw must touch the cache");
    }
}

/// Every weight below is valid on its own; a total of `inf` is not: under
/// it no draw compares below any finite prefix, so every sample would come
/// from the last element of the shard, or from the last shard.
#[test]
fn weight_sums_that_overflow_are_refused_within_and_across_shards() {
    let huge = |lo: u64| vec![(lo, lo as f64, 1e308), (lo + 1, lo as f64 + 1.0, 1e308)];
    for tier in [ShardTier::Cold, ShardTier::Hot] {
        let err = TieredIndex::builder(small_config()).add_shard("a", huge(0), tier).build();
        assert_eq!(err.err(), Some(TierError::Weight(WeightError::TotalOverflow)), "{tier:?}");
    }
    let one = |lo: u64| vec![(lo, lo as f64, 1e308)];
    let err = TieredIndex::builder(small_config())
        .add_shard("a", one(0), ShardTier::Cold)
        .add_shard("b", one(10), ShardTier::Cold)
        .build()
        .expect_err("the shards' totals sum to inf");
    assert_eq!(err, TierError::Weight(WeightError::TotalOverflow));
    let source = std::error::Error::source(&err).expect("the weight error is the source");
    assert_eq!(source.to_string(), WeightError::TotalOverflow.to_string());
}

/// A NaN range bound is an empty range on both tiers: through a serve
/// node a draw answers a typed `EmptyRange` and a count or weight 0. A
/// panic inside a cold shard's plan would poison the device and sampler
/// locks for every later cold query, so the next ordinary cold query
/// must still answer samples.
#[test]
fn a_nan_range_bound_is_an_empty_range_and_the_cold_tier_keeps_serving() {
    let idx = TieredIndex::builder(small_config())
        .add_shard("cold", triples(0, 0.0, 2048), ShardTier::Cold)
        .add_shard("hot", triples(4000, 4000.0, 512), ShardTier::Hot)
        .build()
        .unwrap();
    let mut registry = IndexRegistry::new();
    registry.register_external("tiered", Arc::new(idx)).unwrap();
    let server =
        Server::start(registry, ServerConfig { workers: 1, seed: 3, ..ServerConfig::default() });
    let client = server.client();
    let sample = |x: f64, y: f64| {
        client.call(Request::SampleWr { index: "tiered".into(), range: Some((x, y)), s: 16 })
    };
    for (x, y) in [(500.0, f64::NAN), (f64::NAN, 2500.0), (f64::NAN, 4200.0), (f64::NAN, f64::NAN)]
    {
        assert_eq!(
            sample(x, y).err(),
            Some(ServeError::Query(QueryError::EmptyRange)),
            "[{x}, {y}] must be an empty range"
        );
        let count = client.call(Request::RangeCount { index: "tiered".into(), x, y });
        assert_eq!(count.ok(), Some(Response::Count(0)), "count of [{x}, {y}]");
        let weight = client.call(Request::RangeWeight { index: "tiered".into(), x, y });
        assert_eq!(weight.ok(), Some(Response::Weight(0.0)), "weight of [{x}, {y}]");
    }
    let Ok(Response::Samples(ids)) = sample(500.0, 1500.0) else {
        panic!("the cold tier stopped serving after a NaN bound")
    };
    assert_eq!(ids.len(), 16);
    assert!(ids.iter().all(|&id| (500..=1500).contains(&id)), "{ids:?}");
}

/// The registered cold-path distribution gate, through the full service
/// stack on a virtual clock: a serve node holding a tiered index (one
/// hot shard, one cold shard) behind `register_external` answers
/// `SampleWr` both from a range confined to the cold shard and from a
/// range spanning both tiers; each histogram must match the weights.
/// One worker and one client keep the merged histogram a deterministic
/// function of the gate seed.
#[test]
fn tiered_cold_path_chi_square() {
    gate::run("tiered_cold_path_chi_square", |seed, scale| {
        let cold_n = 1024usize;
        let hot_n = 512usize;
        let cold = triples(0, 0.0, cold_n);
        let hot = triples(2000, 2000.0, hot_n);
        let weights_cold: Vec<f64> = cold.iter().map(|t| t.2).collect();
        let weights_hot: Vec<f64> = hot.iter().map(|t| t.2).collect();

        let idx = TieredIndex::builder(small_config())
            .add_shard("cold", cold, ShardTier::Cold)
            .add_shard("hot", hot, ShardTier::Hot)
            .build()
            .unwrap();
        let mut registry = IndexRegistry::new();
        registry.register_external("tiered", Arc::new(idx)).unwrap();

        let clock = VirtualClock::new();
        let server = Server::start(
            registry,
            ServerConfig {
                workers: 1,
                queue_capacity: 64,
                seed,
                clock: clock.handle(),
                ..ServerConfig::default()
            },
        );
        let client = server.client();

        // Sanity through the same path: counts are exact in both tiers.
        let count = |x: f64, y: f64| match client.call(Request::RangeCount {
            index: "tiered".into(),
            x,
            y,
        }) {
            Ok(Response::Count(c)) => c,
            other => panic!("expected count, got {other:?}"),
        };
        assert_eq!(count(0.0, 3000.0), cold_n + hot_n);
        assert_eq!(count(128.0, 895.0), 768);

        let calls = 300 * scale;
        let s = 16u32;
        let draw_hist = |x: f64, y: f64, bins: usize, to_bin: &dyn Fn(u64) -> usize| {
            let mut hist = vec![0u64; bins];
            for _ in 0..calls {
                let resp = client
                    .call(Request::SampleWr { index: "tiered".into(), range: Some((x, y)), s })
                    .expect("cold-path query succeeds");
                let Response::Samples(ids) = resp else { panic!("expected samples") };
                assert_eq!(ids.len(), s as usize);
                for id in ids {
                    hist[to_bin(id)] += 1;
                }
            }
            hist
        };

        // Trial 1: a range confined to the cold shard — every sample is
        // served by the EM structure through the block cache.
        let cold_hist = draw_hist(128.0, 895.0, 768, &|id| id as usize - 128);
        let cold_gof = chi_square_gof(&cold_hist, &weight_probs(&weights_cold[128..896]));

        // Trial 2: a range spanning both tiers — the multinomial split
        // plus per-tier draws must still match the flat weights.
        let span_bins = 512 + 256;
        let span_hist = draw_hist(512.0, 2255.0, span_bins, &|id| {
            if id < 2000 {
                id as usize - 512
            } else {
                512 + (id as usize - 2000)
            }
        });
        let mut span_weights = weights_cold[512..1024].to_vec();
        span_weights.extend_from_slice(&weights_hot[..256]);
        let span_gof = chi_square_gof(&span_hist, &weight_probs(&span_weights));

        // The cold tier's I/O rode the service metrics to the caller.
        let metrics = server.shutdown();
        assert_eq!(metrics.failed, 0, "no failed reads through the cold path");
        assert!(metrics.cache_hits + metrics.cache_misses > 0, "cold I/O reaches MetricsSnapshot");
        assert!(metrics.block_reads > 0, "block transfers reach MetricsSnapshot");

        vec![
            Trial::from_gof("cold shard via block cache", &cold_gof),
            Trial::from_gof("hot+cold multinomial span", &span_gof),
        ]
    });
}

/// Readers hammer a two-shard index while a maintainer cycles both
/// shards between tiers; every read must succeed (a reader finishes on
/// the snapshot it pinned, so transitions are invisible), and the
/// transition counters must account for every cycle.
#[test]
fn transitions_under_concurrent_load_never_fail_reads() {
    let idx = Arc::new(
        TieredIndex::builder(small_config())
            .add_shard("a", triples(0, 0.0, 600), ShardTier::Cold)
            .add_shard("b", triples(1000, 1000.0, 600), ShardTier::Hot)
            .build()
            .unwrap(),
    );

    let readers = 4usize;
    let reads_each = 300usize;
    let cycles = 25u64;
    std::thread::scope(|scope| {
        for t in 0..readers {
            let idx = Arc::clone(&idx);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(900 + t as u64);
                for i in 0..reads_each {
                    // Alternate spanning and single-shard ranges so both
                    // the split path and the direct path cross
                    // transitions.
                    let range = if i % 2 == 0 { (0.0, 1599.0) } else { (100.0, 499.0) };
                    let (ids, _) = idx
                        .sample_wr(Some(range), 8, &mut rng, Ctx::none())
                        .expect("reads never fail across tier transitions");
                    assert_eq!(ids.len(), 8);
                    for id in ids {
                        assert!(
                            (id < 600) || (1000..1600).contains(&id),
                            "sampled id {id} outside the index"
                        );
                    }
                }
            });
        }
        let idx = Arc::clone(&idx);
        scope.spawn(move || {
            for _ in 0..cycles {
                assert!(idx.promote("a").unwrap());
                assert!(idx.demote("b").unwrap());
                assert!(idx.demote("a").unwrap());
                assert!(idx.promote("b").unwrap());
            }
        });
    });

    let c = idx.counters();
    assert_eq!(c.promotions, 2 * cycles, "every promote cycle landed");
    assert_eq!(c.demotions, 2 * cycles, "every demote cycle landed");
    assert_eq!(
        c.hot_draws + c.cold_draws,
        (readers * reads_each * 8) as u64,
        "every sample is accounted to exactly one tier"
    );
    assert_eq!(idx.tier_of("a").unwrap(), ShardTier::Cold);
    assert_eq!(idx.tier_of("b").unwrap(), ShardTier::Hot);
}
