//! PR6 regression suite for the software-pipelined batch kernels
//! (`iqs_alias::pipeline`): the pipelined rewrites must change *when*
//! memory is touched, never *what* is drawn.
//!
//! Two layers of evidence:
//!
//! 1. **Exact replay** — the testkit's [`batch_replays_sequential`]
//!    oracle at window/tile boundary batch sizes (`s < K`, `s = K`,
//!    `s = K ± 1`, `s ≫ K`, tile seams), where ring-buffer and
//!    pre-generation bugs live. Sequential `sample_wr` is the single
//!    differential oracle.
//! 2. **Distributional** — a registered chi-square gate per pipelined
//!    structure, run at batch sizes deep in pipelined steady state, so
//!    even a bug that somehow preserved replay on the tested seeds would
//!    still have to survive a Holm-corrected goodness-of-fit test.

use iqs::alias::pipeline::{TILE, WINDOW};
use iqs::core::{AliasAugmentedRange, ChunkedRange, RangeSampler, TreeSamplingRange};
use iqs::stats::chisq::{chi_square_gof, weight_probs};
use iqs::testkit::gate::{self, Trial};
use iqs::testkit::oracle::batch_replays_sequential;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn weighted_pairs(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| (i as f64 + rng.random::<f64>() * 0.5, 0.2 + rng.random::<f64>() * 3.0))
        .collect()
}

fn samplers(n: usize, seed: u64) -> Vec<(&'static str, Box<dyn RangeSampler>)> {
    vec![
        ("tree", Box::new(TreeSamplingRange::new(weighted_pairs(n, seed)).unwrap())),
        ("alias", Box::new(AliasAugmentedRange::new(weighted_pairs(n, seed)).unwrap())),
        ("chunked", Box::new(ChunkedRange::new(weighted_pairs(n, seed)).unwrap())),
    ]
}

/// Batch sizes where pipelined kernels break if they are going to:
/// below/at/just-past the window, the empty and singleton cases, and
/// both sides of every tile seam.
fn boundary_sizes() -> Vec<usize> {
    vec![
        1,
        2,
        WINDOW - 1,
        WINDOW,
        WINDOW + 1,
        2 * WINDOW,
        TILE - 1,
        TILE,
        TILE + 1,
        2 * TILE + WINDOW - 1,
        8 * TILE, // s ≫ K
    ]
}

#[test]
fn boundary_sizes_replay_sequential_for_every_structure() {
    for (name, sampler) in samplers(700, 46) {
        for s in boundary_sizes() {
            for (x, y) in [(0.0, 700.0), (101.0, 477.0), (40.0, 45.0)] {
                if let Err(divergence) =
                    batch_replays_sequential(sampler.as_ref(), x, y, s, s as u64 ^ 0xC0FFEE)
                {
                    panic!("{name} s={s} [{x},{y}]: {divergence}");
                }
            }
        }
    }
}

proptest! {
    /// Randomized sweep concentrated around the window boundary: sizes
    /// `K + delta` for `delta ∈ [-K, K]` plus a uniformly random large
    /// size, over random structures, ranges and seeds.
    #[test]
    fn window_boundary_replay_holds_over_random_queries(
        n in 32usize..500,
        seed in 0u64..500,
        delta in 0usize..=(2 * WINDOW),
        big in (4 * WINDOW)..(2 * TILE),
        lo_frac in 0.0f64..1.0,
        len_frac in 0.05f64..1.0,
    ) {
        let s_small = delta.max(1); // sweeps 1..=2K, straddling s = K
        let x = lo_frac * n as f64;
        let y = (x + len_frac * n as f64).min(n as f64);
        for (name, sampler) in samplers(n, seed) {
            for s in [s_small, big] {
                if let Err(divergence) =
                    batch_replays_sequential(sampler.as_ref(), x, y, s, seed ^ 0x51DE)
                {
                    prop_assert!(false, "{name} s={s}: {divergence}");
                }
            }
        }
    }
}

#[test]
fn pipelined_kernels_pass_chi_square_against_the_weighted_target() {
    // Distributional belt-and-braces on top of exact replay: each
    // pipelined structure sampled at a batch size deep in steady state
    // (s = 2 tiles ≫ K), checked against the weighted target through
    // the registered gate (suite-seeded, Holm-corrected, escalating).
    gate::run("pipelined_kernels_chi_square", |seed, scale| {
        let n = 512;
        samplers(n, 48)
            .into_iter()
            .map(|(name, sampler)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let (x, y) = (50.0, 460.0);
                let (a, b) = sampler.rank_range(x, y);
                let probs = weight_probs(&sampler.weights()[a..b]);
                let mut counts = vec![0u64; b - a];
                let mut out = vec![0u32; 2 * TILE];
                for _ in 0..120 * scale {
                    sampler.sample_wr_into(x, y, &mut rng, &mut out).unwrap();
                    for &r in &out {
                        counts[r as usize - a] += 1;
                    }
                }
                Trial::from_gof(name, &chi_square_gof(&counts, &probs))
            })
            .collect()
    });
}
