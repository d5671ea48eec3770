//! The defining IQS requirement (equation (1) of the paper): query
//! outputs are mutually independent, even for repeated identical
//! queries. These tests run the diagnostics of `iqs-stats` against every
//! IQS structure (must pass) and against the dependent baseline of
//! Section 2 (must fail).

use iqs::core::baseline::DependentRange;
use iqs::core::setunion::SetUnionSampler;
use iqs::core::{AliasAugmentedRange, ChunkedRange, RangeSampler, TreeSamplingRange};
use iqs::stats::chisq::{chi_square_gof, weight_probs};
use iqs::stats::independence::{overlap_test, pairwise_g_report};
use iqs::testkit::gate::{self, Trial};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn unit_pairs(n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|i| (i as f64, 1.0)).collect()
}

#[test]
fn iqs_structures_pass_the_repeated_query_overlap_test() {
    let n = 200;
    let (x, y, s) = (0.0, 199.0, 14);
    let structures: Vec<(&str, Box<dyn RangeSampler>)> = vec![
        ("tree", Box::new(TreeSamplingRange::new(unit_pairs(n)).unwrap())),
        ("alias", Box::new(AliasAugmentedRange::new(unit_pairs(n)).unwrap())),
        ("chunked", Box::new(ChunkedRange::new(unit_pairs(n)).unwrap())),
    ];
    for (name, sampler) in structures {
        let mut rng = StdRng::seed_from_u64(900);
        let report = overlap_test(n, s, 1500, || {
            sampler.sample_wor(x, y, s, &mut rng).unwrap().into_iter().map(|r| r as u64).collect()
        });
        assert!(
            report.looks_independent(0.35),
            "{name}: mean overlap {} vs independent expectation {}",
            report.mean_overlap,
            report.expected_independent
        );
    }
}

#[test]
fn dependent_baseline_fails_the_overlap_test() {
    let mut rng = StdRng::seed_from_u64(901);
    let n = 200;
    let d = DependentRange::new((0..n).map(|i| i as f64).collect(), &mut rng).unwrap();
    let s = 14;
    let report = overlap_test(n, s, 50, || {
        d.sample_wor(0.0, 199.0, s).unwrap().into_iter().map(|r| r as u64).collect()
    });
    assert_eq!(report.mean_overlap, s as f64, "dependent sampler repeats itself");
    assert!(!report.looks_independent(0.35));
}

#[test]
fn successive_queries_are_uncorrelated_g_test() {
    // Bucket the first sample of each of 40k successive identical
    // queries; consecutive pairs must be independent.
    gate::run("successive_queries_g_test", |seed, scale| {
        let sampler = ChunkedRange::new(unit_pairs(160)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let draws: Vec<usize> = (0..40_000 * scale)
            .map(|_| sampler.sample_wr(0.0, 159.0, 1, &mut rng).unwrap()[0] / 20)
            .collect();
        let xs = &draws[..draws.len() - 1];
        let ys = &draws[1..];
        vec![Trial::from_gof("successive outputs", &pairwise_g_report(xs, ys, 8))]
    });
}

#[test]
fn batch_positions_are_an_iid_sequence() {
    // The order contract of `RangeSampler::sample_wr_into`, through the
    // batch door of the Theorem-3 kernel: n = 200 gives chunks of 8, and
    // ranks 3..=196 leave five boundary elements at either end, which
    // the weights load with about a sixth of the mass each — so a kernel
    // that grouped its draws by piece (boundary, middle) would show here.
    gate::run("batch_positions_g_test", |seed, scale| {
        let (lo, hi) = (3usize, 196usize);
        let pairs: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let boundary = (lo..8).contains(&i) || (192..=hi).contains(&i);
                (i as f64, (1 + i % 7) as f64 * if boundary { 10.0 } else { 1.0 })
            })
            .collect();
        let sampler = ChunkedRange::new(pairs).unwrap();
        assert_eq!(sampler.chunk_len(), 8);
        let (x, y) = (lo as f64, hi as f64);
        // Eight cells: the two boundary pieces and six runs of the middle.
        let cell = |r: u32| match r as usize {
            r if r < 8 => 0,
            r if r >= 192 => 7,
            r => 1 + (r - 8) * 6 / 184,
        };
        let mut rng = StdRng::seed_from_u64(seed);

        // (a) Adjacent positions of one reply, as disjoint pairs.
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        let mut out = vec![0u32; 512];
        for _ in 0..400 * scale {
            sampler.sample_wr_batch(x, y, &mut rng, &mut out).unwrap();
            for pair in out.chunks_exact(2) {
                xs.push(cell(pair[0]));
                ys.push(cell(pair[1]));
            }
        }
        let adjacent = pairwise_g_report(&xs, &ys, 8);

        // (b) The first 32 of 512 positions are a sample on their own.
        let probs = weight_probs(&sampler.weights()[lo..=hi]);
        let mut counts = vec![0u64; probs.len()];
        for _ in 0..4000 * scale {
            sampler.sample_wr_batch(x, y, &mut rng, &mut out).unwrap();
            for &r in &out[..32] {
                counts[r as usize - lo] += 1;
            }
        }
        let prefix = chi_square_gof(&counts, &probs);

        // (c) F1 through the batch door: position 0 of successive
        // identical queries.
        let mut out = vec![0u32; 8];
        let firsts: Vec<usize> = (0..40_000 * scale)
            .map(|_| {
                sampler.sample_wr_batch(x, y, &mut rng, &mut out).unwrap();
                cell(out[0])
            })
            .collect();
        let successive = pairwise_g_report(&firsts[..firsts.len() - 1], &firsts[1..], 8);

        vec![
            Trial::from_gof("adjacent positions of one reply", &adjacent),
            Trial::from_gof("first 32 of 512 positions vs weights", &prefix),
            Trial::from_gof("position 0 of successive queries", &successive),
        ]
    });
}

#[test]
fn dependent_baseline_violates_equation_one() {
    // Equation (1) requires Pr[Q₂ = Σ | Q₁] to equal the unconditional
    // distribution. For the dependent sampler the conditional is
    // *degenerate*: a sub-range's sample is fully reconstructible from a
    // containing query's sample, for every query in a workload.
    let mut rng = StdRng::seed_from_u64(903);
    let d = DependentRange::new((0..500).map(|i| i as f64).collect(), &mut rng).unwrap();
    let outer = d.sample_wor(0.0, 499.0, 500).unwrap(); // full perm order
    for start in (0..400).step_by(37) {
        let (lo, hi) = (start as f64, (start + 99) as f64);
        let s = 8;
        let inner = d.sample_wor(lo, hi, s).unwrap();
        let predicted: Vec<usize> =
            outer.iter().copied().filter(|&r| (start..=start + 99).contains(&r)).take(s).collect();
        assert_eq!(inner, predicted, "q = [{lo},{hi}] was perfectly predictable");
    }
    // The IQS structure admits no such reconstruction: its sub-range
    // samples differ from any fixed prediction with overwhelming
    // probability.
    let iqs = ChunkedRange::new(unit_pairs(500)).unwrap();
    let mut mismatches = 0;
    for start in (0..400).step_by(37) {
        let (lo, hi) = (start as f64, (start + 99) as f64);
        let inner = iqs.sample_wor(lo, hi, 8, &mut rng).unwrap();
        let predicted: Vec<usize> =
            outer.iter().copied().filter(|&r| (start..=start + 99).contains(&r)).take(8).collect();
        if inner != predicted {
            mismatches += 1;
        }
    }
    assert!(mismatches >= 10, "IQS outputs looked predictable");
}

#[test]
fn set_union_sampler_outputs_are_independent() {
    gate::run("set_union_g_test", |seed, scale| {
        let mut rng = StdRng::seed_from_u64(seed);
        let sets: Vec<Vec<u64>> =
            vec![(0..80u64).collect(), (40..120u64).collect(), (0..120u64).step_by(2).collect()];
        let mut s = SetUnionSampler::new(sets, &mut rng).unwrap();
        let g = [0usize, 1, 2];
        let draws: Vec<usize> =
            (0..30_000 * scale).map(|_| (s.sample(&g, &mut rng).unwrap() / 15) as usize).collect();
        let xs = &draws[..draws.len() - 1];
        let ys = &draws[1..];
        vec![Trial::from_gof("set-union successive outputs", &pairwise_g_report(xs, ys, 8))]
    });
}

#[test]
fn fresh_rng_streams_give_fresh_outputs() {
    // Two queries with different RNG states share no forced structure:
    // outputs must differ with overwhelming probability.
    let sampler = AliasAugmentedRange::new(unit_pairs(1000)).unwrap();
    let mut rng = StdRng::seed_from_u64(905);
    let a = sampler.sample_wr(0.0, 999.0, 50, &mut rng).unwrap();
    let b = sampler.sample_wr(0.0, 999.0, 50, &mut rng).unwrap();
    assert_ne!(a, b);
    // But identical RNG states reproduce exactly (determinism for
    // debugging and for the experiment harness).
    let mut r1 = StdRng::seed_from_u64(906);
    let mut r2 = StdRng::seed_from_u64(906);
    assert_eq!(
        sampler.sample_wr(0.0, 999.0, 50, &mut r1).unwrap(),
        sampler.sample_wr(0.0, 999.0, 50, &mut r2).unwrap()
    );
}

#[test]
fn weighted_overlap_test_on_skewed_weights() {
    // Independence must hold for weighted sampling too. Weighted WoR
    // changes the expected overlap, so compare against an empirical
    // two-independent-runs benchmark instead of s²/k.
    let mut pairs = unit_pairs(100);
    for (i, p) in pairs.iter_mut().enumerate() {
        p.1 = 1.0 + (i % 10) as f64;
    }
    let sampler = ChunkedRange::new(pairs).unwrap();
    let s = 10;
    // Expected overlap of two independent weighted WoR samples,
    // estimated by brute force with disjoint RNGs.
    let mut r1 = StdRng::seed_from_u64(907);
    let mut r2 = StdRng::seed_from_u64(908);
    let mut expected = 0.0;
    let rounds = 1500;
    for _ in 0..rounds {
        let a: std::collections::HashSet<usize> =
            sampler.sample_wor(0.0, 99.0, s, &mut r1).unwrap().into_iter().collect();
        let b: std::collections::HashSet<usize> =
            sampler.sample_wor(0.0, 99.0, s, &mut r2).unwrap().into_iter().collect();
        expected += a.intersection(&b).count() as f64 / rounds as f64;
    }
    // Now consecutive outputs of a single stream.
    let mut rng = StdRng::seed_from_u64(909);
    let mut prev: Option<std::collections::HashSet<usize>> = None;
    let mut observed = 0.0;
    for _ in 0..rounds {
        let cur: std::collections::HashSet<usize> =
            sampler.sample_wor(0.0, 99.0, s, &mut rng).unwrap().into_iter().collect();
        if let Some(p) = &prev {
            observed += cur.intersection(p).count() as f64 / (rounds - 1) as f64;
        }
        prev = Some(cur);
    }
    assert!(
        (observed - expected).abs() < 0.35,
        "weighted overlap {observed} vs independent benchmark {expected}"
    );
}
