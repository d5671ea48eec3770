//! External-memory vs RAM agreement: the EM structures must produce the
//! same distributions as their RAM counterparts (the model changes the
//! *cost*, never the *output law*), and the I/O accounting must respect
//! the model's basic identities.

use iqs::core::{ChunkedRange, RangeSampler};
use iqs::em::{external_sort, EmMachine, EmRangeSampler, NaiveEmSampler, SamplePool};
use iqs::obs::Ctx;
use iqs::stats::chisq::{chi_square_gof, uniform_probs};
use iqs::testkit::gate::{self, Trial};
use iqs::tier::{ShardTier, TierConfig, TieredIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn em_range_sampler_matches_ram_distribution() {
    gate::run("em_vs_ram_distribution", |seed, scale| {
        let machine = EmMachine::new(64 * 8, 64);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 2048;
        let keys: Vec<f64> = (0..n).map(f64::from).collect();
        let mut em = EmRangeSampler::new(&machine, keys.clone());
        let ram = ChunkedRange::new(keys.iter().map(|&k| (k, 1.0)).collect()).unwrap();

        let (x, y) = (300.0, 1700.0);
        let k = 1401usize;
        let mut em_counts = vec![0u64; k];
        let mut ram_counts = vec![0u64; k];
        for _ in 0..60 * scale {
            for v in em.query(x, y, 500, &mut rng).unwrap() {
                em_counts[(v - x) as usize] += 1;
            }
            for r in ram.sample_wr(x, y, 500, &mut rng).unwrap() {
                ram_counts[(ram.keys()[r] - x) as usize] += 1;
            }
        }
        let probs = uniform_probs(k);
        vec![
            Trial::from_gof("EM", &chi_square_gof(&em_counts, &probs)),
            Trial::from_gof("RAM", &chi_square_gof(&ram_counts, &probs)),
        ]
    });
}

#[test]
fn io_identities_hold() {
    let b = 64usize;
    let machine = EmMachine::new(8 * b, b);
    let n = 64 * 512;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let arr = machine.array_from(data);
    machine.reset_stats();
    // A cold sequential scan reads exactly n/B blocks.
    for i in 0..n {
        arr.get(i);
    }
    assert_eq!(machine.stats().reads, (n / b) as u64);
    // Re-scanning immediately re-reads (memory holds only 8 blocks).
    machine.reset_stats();
    for i in 0..n {
        arr.get(i);
    }
    assert_eq!(machine.stats().reads, (n / b) as u64);
    // A cold sequential run is charged per block, not per item: k blocks
    // are k touches and k reads.
    machine.flush();
    machine.reset_stats();
    let k = 5;
    assert_eq!(arr.read_range(3 * b, (3 + k) * b).len(), k * b);
    let stats = machine.stats();
    assert_eq!(stats.hits + stats.misses, k as u64);
    assert_eq!(stats.reads, k as u64);
}

#[test]
fn cold_tier_queries_touch_blocks_not_items() {
    // The benchmark's cold geometry in small: 8 all-cold shards behind a
    // 32-block cache, windows over a quarter of the keys, s = 64. A query
    // reads four boundary chunks and a few pool blocks, so it touches the
    // buffer pool about once per sample (60 per query); charging per item
    // cost about 78 touches per sample (5,000 per query) here.
    let (shards, per_shard, s) = (8usize, 4096usize, 64usize);
    let mut builder =
        TieredIndex::builder(TierConfig { cold_cache_blocks: 32, ..TierConfig::default() });
    for k in 0..shards {
        let triples = (k * per_shard..(k + 1) * per_shard)
            .map(|i| (i as u64, i as f64, 1.0 + (i % 7) as f64));
        builder = builder.add_shard(&format!("s{k}"), triples.collect(), ShardTier::Cold);
    }
    let index = builder.build().unwrap();
    let n = shards * per_shard;
    let window = n / 4;
    let mut rng = StdRng::seed_from_u64(1104);
    let queries = 200;
    let mut touches = 0;
    for _ in 0..queries {
        let x = rng.random_range(0..n - window);
        let range = Some((x as f64, (x + window) as f64));
        let (ids, io) = index.sample_wr(range, s, &mut rng, Ctx::none()).unwrap();
        assert!(ids.iter().all(|&id| (x..=x + window).contains(&(id as usize))));
        touches += io.cache_hits + io.cache_misses;
    }
    let per_query = touches as f64 / queries as f64;
    assert!(per_query < 2.0 * s as f64, "{per_query} pool touches per {s}-sample query");
}

#[test]
fn external_sort_is_stable_under_memory_pressure() {
    // Same input sorted under generous and tiny memory: identical output,
    // more I/Os for the tiny memory.
    let mut rng = StdRng::seed_from_u64(1101);
    let data: Vec<u64> = (0..20_000).map(|_| rng.random_range(0..1_000_000)).collect();
    let mut want = data.clone();
    want.sort_unstable();

    let big = EmMachine::new(64 * 64, 64);
    let sorted_big = external_sort(&big, big.array_from(data.clone()), |&x| x);
    big.reset_stats();
    let got_big = sorted_big.read_range(0, sorted_big.len());

    let small = EmMachine::new(64 * 4, 64);
    small.reset_stats();
    let sorted_small = external_sort(&small, small.array_from(data), |&x| x);
    let small_ios = small.stats().total();
    let got_small = sorted_small.read_range(0, sorted_small.len());

    assert_eq!(got_big, want);
    assert_eq!(got_small, want);
    // 4 frames => fan-in 2 => ~log2(79 runs) ≈ 7 passes; must exceed the
    // single-ish pass of the 64-frame machine. Just assert non-trivial.
    assert!(small_ios > 3 * (20_000 / 64) as u64, "small-memory sort too cheap");
}

#[test]
fn sample_pool_amortized_cost_shrinks_with_query_batching() {
    // Amortized per-sample I/O must be far below 1 (the naive rate).
    let b = 64usize;
    let machine = EmMachine::new(32 * b, b);
    let mut rng = StdRng::seed_from_u64(1102);
    let n = 64 * 1024;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut pool = SamplePool::new(&machine, data.clone(), &mut rng);
    machine.reset_stats();
    let total_samples = 4 * n; // forces ≥ 3 rebuilds
    let mut drawn = 0;
    while drawn < total_samples {
        pool.query(4096, &mut rng);
        drawn += 4096;
    }
    let per_sample = machine.stats().total() as f64 / total_samples as f64;
    // The theoretical rate is (c/B)·log_{M/B}(n/B) ≈ 0.1–0.3 here (the
    // constant covers the two sorts over 16-byte pairs); the naive rate
    // is ~1. Assert a decisive separation.
    assert!(per_sample < 0.45, "amortized {per_sample} I/Os per sample");

    let naive = NaiveEmSampler::new(&machine, data);
    machine.reset_stats();
    naive.query(4096, &mut rng);
    let naive_per_sample = machine.stats().total() as f64 / 4096.0;
    assert!(naive_per_sample > 0.9, "naive rate {naive_per_sample}");
}

#[test]
fn em_outputs_remain_independent_across_rebuilds() {
    // Consecutive queries spanning pool rebuilds must not repeat
    // wholesale (pool entries are consumed exactly once).
    let machine = EmMachine::new(64 * 8, 64);
    let mut rng = StdRng::seed_from_u64(1103);
    let n = 300;
    let mut pool = SamplePool::new(&machine, (0..n).map(f64::from).collect(), &mut rng);
    let a = pool.query(n as usize, &mut rng);
    let b = pool.query(n as usize, &mut rng);
    assert_ne!(a, b, "rebuild reproduced the previous pool");
}
