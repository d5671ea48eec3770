//! The experiment harness: regenerates every table of the reproduction
//! (DESIGN.md §2, recorded in EXPERIMENTS.md).
//!
//! Usage:
//!   cargo run -p iqs-bench --release --bin harness            # all
//!   cargo run -p iqs-bench --release --bin harness -- e1 f2   # subset
//!
//! Each experiment prints a table and appends rows to `results/*.csv`.

use iqs_alias::space::SpaceUsage;
use iqs_alias::{AliasTable, CdfSampler, DynamicAlias};
use iqs_bench::{
    clustered_points2, csv_row, keyed_weights, overlapping_sets, time_ns, uniform_points2,
    uniform_points3, Weights,
};
use iqs_core::approx::ApproxCoverageSampler;
use iqs_core::baseline::{DependentRange, ReportThenSample};
use iqs_core::complement::ComplementRange;
use iqs_core::coverage::CoverageSampler;
use iqs_core::dynamic_range::DynamicRange;
use iqs_core::estimator::{required_sample_size, SelectivityEstimator};
use iqs_core::setunion::{naive_union_sample, SetUnionSampler};
use iqs_core::wor_exact::ExpJumpWor;
use iqs_core::{AliasAugmentedRange, ChunkedRange, RangeSampler, TreeSamplingRange};
use iqs_em::{
    EmMachine, EmRangeSampler, EmWeightedRangeSampler, NaiveEmRangeSampler, NaiveEmSampler,
    SamplePool,
};
use iqs_sketch::{HashSeed, KmvSketch};
use iqs_spatial::{dist2, Disc, HalfSpace, KdTree, QuadTree, RangeTree, Rect};
use iqs_stats::chisq::{chi_square_gof, uniform_probs};
use iqs_stats::concentration::ErrorRuns;
use iqs_stats::independence::overlap_test;
use iqs_tree::{SubtreeSampler, Tree, TreeSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An arm: the argument names that select it and the function that runs it.
type Arm = (&'static [&'static str], fn());

/// Every arm, in the order a bare `harness` runs them.
const ARMS: &[Arm] = &[
    (&["e1"], e1_alias),
    (&["e2"], e2_tree_sampling),
    (&["e3", "e4"], e3_e4_range1d),
    (&["e5"], e5_kdtree),
    (&["e6"], e6_rangetree),
    (&["e7"], e7_approx_cover),
    (&["e8"], e8_setunion),
    (&["e9"], e9_em_set),
    (&["e10"], e10_em_range),
    (&["e11"], e11_dynamic_alias),
    (&["f1"], f1_independence),
    (&["f2"], f2_concentration),
    (&["f3"], f3_fairness),
    (&["f4"], f4_crossover),
    (&["e12"], e12_dynamic_range),
    (&["e13"], e13_wor_methods),
    (&["a1"], a1_chunk_len_ablation),
    (&["a2"], a2_sketch_k_ablation),
    (&["a3"], a3_leaf_cap_ablation),
    (&["e14"], e14_regions),
    (&["e15"], e15_em_weighted),
    (&["e16"], e16_batch_throughput),
    (&["e19"], e19_observability),
    (&["e23"], e23_autopilot),
    (&["e24"], e24_telemetry_slo),
];

/// The arms `args` select (every arm when empty), or the first argument
/// that names none.
fn select(args: &[String]) -> Result<Vec<fn()>, &str> {
    let named = |names: &[&str], arg: &String| names.contains(&arg.as_str());
    if let Some(unknown) = args.iter().find(|a| !ARMS.iter().any(|(names, _)| named(names, a))) {
        return Err(unknown);
    }
    Ok(ARMS
        .iter()
        .filter(|(names, _)| args.is_empty() || args.iter().any(|a| named(names, a)))
        .map(|&(_, run)| run)
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let arms = select(&args).unwrap_or_else(|unknown| {
        let valid: Vec<&str> = ARMS.iter().flat_map(|(names, _)| names.iter().copied()).collect();
        eprintln!("unknown experiment `{unknown}`; valid names: {}", valid.join(" "));
        std::process::exit(2);
    });

    println!("IQS experiment harness (Tao, PODS 2022 reproduction)");
    println!("====================================================\n");

    for run in arms {
        run();
    }
}

// =====================================================================
// E1 — Theorem 1: alias O(n) build, O(1) sample; CDF baseline O(log n).
// =====================================================================
fn e1_alias() {
    println!("E1  Theorem 1 — alias method vs inverse-CDF baseline");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14}",
        "n", "alias build", "alias ns/samp", "cdf ns/samp", "cdf/alias"
    );
    let mut rng = StdRng::seed_from_u64(1);
    for exp in [12u32, 14, 16, 18, 20, 22] {
        let n = 1usize << exp;
        let weights: Vec<f64> =
            keyed_weights(n, Weights::Zipf, 10 + exp as u64).into_iter().map(|p| p.1).collect();
        let build_start = std::time::Instant::now();
        let alias = AliasTable::new(&weights).unwrap();
        let build_us = build_start.elapsed().as_micros();
        let cdf = CdfSampler::new(&weights).unwrap();
        let mut sink = 0usize;
        let a_ns = time_ns(|| sink ^= alias.sample(&mut rng), 20_000, 5);
        let c_ns = time_ns(|| sink ^= cdf.sample(&mut rng), 20_000, 5);
        std::hint::black_box(sink);
        println!(
            "{:>10} {:>11} us {:>14.1} {:>14.1} {:>13.1}x",
            n,
            build_us,
            a_ns,
            c_ns,
            c_ns / a_ns
        );
        csv_row(
            "e1_alias.csv",
            "n,build_us,alias_ns,cdf_ns",
            &format!("{n},{build_us},{a_ns:.1},{c_ns:.1}"),
        );
    }
    println!("  claim: alias per-sample flat in n; CDF grows ~log n; both builds linear.\n");
}

// =====================================================================
// E2 — §3.2 tree sampling O(s·height) vs Lemma-4 SubtreeSampler O(1+s).
// =====================================================================
fn e2_tree_sampling() {
    println!("E2  §3.2 tree sampling vs Lemma 4 (SubtreeSampler)");
    println!(
        "{:>10} {:>14} {:>16} {:>12} {:>12}",
        "n", "descend ns/s", "lemma4 ns/samp", "pieces/n", "space ratio"
    );
    let mut rng = StdRng::seed_from_u64(2);
    for exp in [10u32, 12, 14, 16, 18] {
        let n = 1usize << exp;
        let tree = Tree::random(n, 4, &mut rng);
        let ts = TreeSampler::new(tree.clone());
        let sub = SubtreeSampler::new(&tree);
        let mut sink = 0usize;
        let t_ns = time_ns(|| sink ^= ts.sample_leaf(0, &mut rng), 10_000, 5);
        let s_ns = time_ns(|| sink ^= sub.sample_leaf(0, &mut rng), 10_000, 5);
        std::hint::black_box(sink);
        let pieces = sub.total_pieces() as f64 / n as f64;
        let ratio = sub.space_words() as f64 / ts.space_words() as f64;
        println!("{:>10} {:>14.1} {:>16.1} {:>12.2} {:>12.2}", n, t_ns, s_ns, pieces, ratio);
        csv_row(
            "e2_tree_sampling.csv",
            "n,descend_ns,lemma4_ns,pieces_per_n,space_ratio",
            &format!("{n},{t_ns:.1},{s_ns:.1},{pieces:.3},{ratio:.3}"),
        );
    }
    println!("  claim: descend grows with log n; Lemma-4 flat; pieces/n bounded (O(n) space).\n");
}

// =====================================================================
// E3/E4 — Lemma 2 vs Theorem 3 vs §3.2: query time and space.
// =====================================================================
fn e3_e4_range1d() {
    println!("E3/E4  1-D weighted range sampling — three structures");
    println!(
        "{:>9} {:>5} {:>11} {:>11} {:>11} | {:>12} {:>12} {:>12}",
        "n", "s", "tree us/q", "lem2 us/q", "thm3 us/q", "tree words", "lem2 words", "thm3 words"
    );
    let mut rng = StdRng::seed_from_u64(3);
    for exp in [14u32, 16, 18, 20] {
        let n = 1usize << exp;
        let tree = TreeSamplingRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let lem2 = AliasAugmentedRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let thm3 = ChunkedRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
        for s in [1usize, 16, 256, 4096] {
            let mut sink = 0usize;
            let t = time_ns(|| sink ^= tree.sample_wr(x, y, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
            let l = time_ns(|| sink ^= lem2.sample_wr(x, y, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
            let c = time_ns(|| sink ^= thm3.sample_wr(x, y, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
            std::hint::black_box(sink);
            println!(
                "{:>9} {:>5} {:>11.1} {:>11.1} {:>11.1} | {:>12} {:>12} {:>12}",
                n,
                s,
                t,
                l,
                c,
                tree.space_words(),
                lem2.space_words(),
                thm3.space_words()
            );
            csv_row(
                "e3_e4_range1d.csv",
                "n,s,tree_us,lemma2_us,thm3_us,tree_words,lemma2_words,thm3_words",
                &format!(
                    "{n},{s},{t:.2},{l:.2},{c:.2},{},{},{}",
                    tree.space_words(),
                    lem2.space_words(),
                    thm3.space_words()
                ),
            );
        }
    }
    println!(
        "  claims: Lemma2/Thm3 ~O(log n + s); §3.2 pays log n per sample; \
         Thm3 space linear, Lemma2 space n log n.\n"
    );
}

// =====================================================================
// E5 — Theorem 5 on a kd-tree; crossover vs report-then-sample.
// =====================================================================
fn e5_kdtree() {
    println!("E5  Theorem 5 @ kd-tree (2-D) vs report-then-sample, s = 64");
    let mut rng = StdRng::seed_from_u64(5);
    let n = 1 << 17;
    let pts = uniform_points2(n, 50);
    let kd = CoverageSampler::new(KdTree::with_unit_weights(pts.clone()).unwrap());
    println!("{:>10} {:>9} {:>13} {:>15}", "|S_q|", "cover", "IQS us/q", "report us/q");
    let s = 64usize;
    for side in [0.02f64, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let q: Rect<2> =
            Rect::new([0.5 - side / 2.0, 0.5 - side / 2.0], [0.5 + side / 2.0, 0.5 + side / 2.0]);
        let count = kd.count(&q);
        if count == 0 {
            continue;
        }
        let cover = kd.index().cover(&q).len();
        let mut sink = 0usize;
        let iqs_us = time_ns(|| sink ^= kd.sample_wr(&q, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let rep_us = time_ns(
            || {
                let all = kd.index().report(&q);
                sink ^= all[rng.random_range(0..all.len())] as usize;
            },
            20,
            5,
        ) / 1e3;
        std::hint::black_box(sink);
        println!("{:>10} {:>9} {:>13.1} {:>15.1}", count, cover, iqs_us, rep_us);
        csv_row(
            "e5_kdtree.csv",
            "n,side,count,cover,s,iqs_us,report_us",
            &format!("{n},{side},{count},{cover},{s},{iqs_us:.2},{rep_us:.2}"),
        );
    }

    println!("  cover-size scaling on full-height strips:");
    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>14}",
        "n", "2D cover", "cover/sqrt n", "3D cover", "cover/n^2/3"
    );
    for exp in [12u32, 14, 16, 18] {
        let n = 1usize << exp;
        let kd2 = KdTree::with_unit_weights(uniform_points2(n, 51)).unwrap();
        let strip2: Rect<2> = Rect::new([0.45, f64::NEG_INFINITY], [0.55, f64::INFINITY]);
        let c2 = kd2.cover(&strip2).len();
        let kd3 = KdTree::with_unit_weights(uniform_points3(n, 52)).unwrap();
        let strip3: Rect<3> = Rect::new(
            [0.45, f64::NEG_INFINITY, f64::NEG_INFINITY],
            [0.55, f64::INFINITY, f64::INFINITY],
        );
        let c3 = kd3.cover(&strip3).len();
        println!(
            "{:>10} {:>12} {:>14.2} {:>12} {:>14.2}",
            n,
            c2,
            c2 as f64 / (n as f64).sqrt(),
            c3,
            c3 as f64 / (n as f64).powf(2.0 / 3.0)
        );
        csv_row("e5_cover_scaling.csv", "n,cover2d,cover3d", &format!("{n},{c2},{c3}"));
    }

    let clustered = clustered_points2(n, 8, 53);
    let kd_c = CoverageSampler::new(KdTree::with_unit_weights(clustered).unwrap());
    let q: Rect<2> = Rect::new([0.25, 0.25], [0.75, 0.75]);
    println!(
        "  clustered workload: |S_q| = {}, cover = {}, sample ok = {}",
        kd_c.count(&q),
        kd_c.index().cover(&q).len(),
        kd_c.sample_wr(&q, 8, &mut rng).is_ok()
    );
    println!("  claims: IQS flat in |S_q|; report linear; cover ~ n^(1-1/d).\n");
}

// =====================================================================
// E6 — Theorem 5 on a range tree.
// =====================================================================
fn e6_rangetree() {
    println!("E6  Theorem 5 @ range tree vs kd-tree, s = 64");
    println!(
        "{:>9} {:>9} {:>9} {:>12} {:>12} {:>15} {:>13}",
        "n", "rt cover", "kd cover", "rt us/q", "kd us/q", "rt space", "kd space"
    );
    let mut rng = StdRng::seed_from_u64(6);
    for exp in [12u32, 14, 16] {
        let n = 1usize << exp;
        let pts = uniform_points2(n, 60);
        let rt = CoverageSampler::new(RangeTree::with_unit_weights(pts.clone()).unwrap());
        let kd = CoverageSampler::new(KdTree::with_unit_weights(pts).unwrap());
        let q: Rect<2> = Rect::new([0.2, 0.3], [0.8, 0.7]);
        let rt_cover = rt.index().cover(&q).len();
        let kd_cover = kd.index().cover(&q).len();
        let s = 64usize;
        let mut sink = 0usize;
        let rt_us = time_ns(|| sink ^= rt.sample_wr(&q, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let kd_us = time_ns(|| sink ^= kd.sample_wr(&q, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        std::hint::black_box(sink);
        println!(
            "{:>9} {:>9} {:>9} {:>12.1} {:>12.1} {:>15} {:>13}",
            n,
            rt_cover,
            kd_cover,
            rt_us,
            kd_us,
            rt.space_words(),
            kd.space_words()
        );
        csv_row(
            "e6_rangetree.csv",
            "n,rt_cover,kd_cover,rt_us,kd_us,rt_words,kd_words",
            &format!(
                "{n},{rt_cover},{kd_cover},{rt_us:.2},{kd_us:.2},{},{}",
                rt.space_words(),
                kd.space_words()
            ),
        );
    }
    println!("  claims: rt cover ~log² n ≪ kd cover ~√n; rt space ~n log n ≫ kd space ~n.\n");
}

// =====================================================================
// E7 — Theorem 6 / Corollary 7: complement range sampling.
// =====================================================================
fn e7_approx_cover() {
    println!("E7  complement sampling — approx cover (≤2, Cor 7) vs exact covers (Θ(log n))");
    println!("{:>9} {:>5} {:>16} {:>16}", "n", "s", "approx us/q", "exact us/q");
    let mut rng = StdRng::seed_from_u64(7);
    for exp in [14u32, 18, 20] {
        let n = 1usize << exp;
        let comp = ComplementRange::new(keyed_weights(n, Weights::Unit, 70)).unwrap();
        // Exact baseline: decompose the complement into prefix + suffix
        // and run two Theorem-3 queries, each paying its own canonical
        // decomposition (Θ(log n) term).
        let exact = ChunkedRange::new(keyed_weights(n, Weights::Unit, 70)).unwrap();
        let (x, y) = (n as f64 * 0.3, n as f64 * 0.7);
        let (a, b) = exact.rank_range(x, y);
        let keys = exact.keys();
        let (pre_hi, suf_lo) = (keys[a - 1], keys[b]);
        for s in [1usize, 4, 16, 256] {
            let mut sink = 0usize;
            let a_us =
                time_ns(|| sink ^= comp.sample_wr(x, y, s, &mut rng).unwrap()[0], 50, 5) / 1e3;
            let e_us = time_ns(
                || {
                    let w_pre = a as f64;
                    let w_suf = (n - b) as f64;
                    let mut s1 = 0;
                    for _ in 0..s {
                        if rng.random::<f64>() * (w_pre + w_suf) < w_pre {
                            s1 += 1;
                        }
                    }
                    if s1 > 0 {
                        sink ^=
                            exact.sample_wr(f64::NEG_INFINITY, pre_hi, s1, &mut rng).unwrap()[0];
                    }
                    if s - s1 > 0 {
                        sink ^=
                            exact.sample_wr(suf_lo, f64::INFINITY, s - s1, &mut rng).unwrap()[0];
                    }
                },
                50,
                5,
            ) / 1e3;
            std::hint::black_box(sink);
            println!("{:>9} {:>5} {:>16.2} {:>16.2}", n, s, a_us, e_us);
            csv_row(
                "e7_approx.csv",
                "n,s,approx_us,exact_us",
                &format!("{n},{s},{a_us:.2},{e_us:.2}"),
            );
        }
    }
    println!("  claim: approx-cover query is O(s) with no log-n term; wins at small s.\n");
}

// =====================================================================
// E8 — Theorem 8: set-union sampling.
// =====================================================================
fn e8_setunion() {
    println!("E8  Theorem 8 — set-union sampling vs naive union materialization");
    println!(
        "{:>5} {:>10} {:>12} {:>14} {:>14} {:>10}",
        "g", "Σ|S_i|", "|∪G|", "IQS us/samp", "naive us/samp", "chi² p"
    );
    let mut rng = StdRng::seed_from_u64(8);
    let universe = 200_000u64;
    let set_len = 20_000u64;
    let family = overlapping_sets(64, universe, set_len, 80);
    let mut sampler = SetUnionSampler::new(family.clone(), &mut rng).unwrap();
    for g_size in [2usize, 4, 8, 16, 32, 64] {
        let g: Vec<usize> = (0..g_size).collect();
        let total: usize = g.iter().map(|&i| family[i].len()).sum();
        let union = sampler.exact_union(&g);
        let mut sink = 0u64;
        let iqs_us = time_ns(|| sink ^= sampler.sample(&g, &mut rng).unwrap(), 30, 5) / 1e3;
        let naive_us =
            time_ns(|| sink ^= naive_union_sample(&family, &g, &mut rng).unwrap(), 5, 3) / 1e3;
        std::hint::black_box(sink);
        // Uniformity over a coarse bucketing of the union.
        let buckets = 50usize;
        let mut counts = vec![0u64; buckets];
        let draws = 20_000;
        let mut union_sorted: Vec<u64> =
            g.iter().flat_map(|&i| family[i].iter().copied()).collect();
        union_sorted.sort_unstable();
        union_sorted.dedup();
        for _ in 0..draws {
            let v = sampler.sample(&g, &mut rng).unwrap();
            let rank = union_sorted.binary_search(&v).unwrap();
            counts[(rank * buckets / union_sorted.len()).min(buckets - 1)] += 1;
        }
        let probs: Vec<f64> = (0..buckets)
            .map(|bu| {
                let lo = bu * union_sorted.len() / buckets;
                let hi = (bu + 1) * union_sorted.len() / buckets;
                (hi - lo) as f64 / union_sorted.len() as f64
            })
            .collect();
        let gof = chi_square_gof(&counts, &probs);
        println!(
            "{:>5} {:>10} {:>12} {:>14.1} {:>14.1} {:>10.3}",
            g_size, total, union, iqs_us, naive_us, gof.p_value
        );
        csv_row(
            "e8_setunion.csv",
            "g,total,union,iqs_us,naive_us,p",
            &format!("{g_size},{total},{union},{iqs_us:.2},{naive_us:.2},{:.4}", gof.p_value),
        );
    }
    println!("  claim: IQS ~g·log² n per sample (flat in Σ|S_i|); naive ~Σ|S_i|.\n");
}

// =====================================================================
// E9 — §8: EM set sampling I/O counts.
// =====================================================================
fn e9_em_set() {
    println!("E9  §8 EM set sampling — I/Os per query (n = 2^20)");
    println!("{:>6} {:>8} {:>14} {:>14} {:>9}", "B", "s", "pool I/Os", "naive I/Os", "ratio");
    let mut rng = StdRng::seed_from_u64(9);
    let n = 1usize << 20;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    for b in [64usize, 256, 1024] {
        let machine = EmMachine::new(32 * b, b);
        let mut pool = SamplePool::new(&machine, data.clone(), &mut rng);
        let naive = NaiveEmSampler::new(&machine, data.clone());
        for s in [1024usize, 8192, 65_536] {
            machine.reset_stats();
            pool.query(s, &mut rng);
            let p_ios = machine.stats().total();
            machine.reset_stats();
            naive.query(s, &mut rng);
            let n_ios = machine.stats().total();
            println!(
                "{:>6} {:>8} {:>14} {:>14} {:>8.1}x",
                b,
                s,
                p_ios,
                n_ios,
                n_ios as f64 / p_ios.max(1) as f64
            );
            csv_row("e9_em_set.csv", "B,s,pool_ios,naive_ios", &format!("{b},{s},{p_ios},{n_ios}"));
        }
    }
    println!(
        "  claim: pool ~s/B amortized (ratio ~B); naive ~s — the Hu et al. lower-bound shape.\n"
    );
}

// =====================================================================
// E10 — §8: EM range sampling I/O counts.
// =====================================================================
fn e10_em_range() {
    println!("E10  §8 EM range sampling — I/Os per query (n = 2^20, B = 256)");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>18}",
        "s", "|S_q|", "pool I/Os", "rand-acc I/Os", "report+sample I/Os"
    );
    let mut rng = StdRng::seed_from_u64(10);
    let b = 256usize;
    let machine = EmMachine::new(32 * b, b);
    let n = 1usize << 20;
    let keys: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut pool = EmRangeSampler::new(&machine, keys.clone());
    let naive = NaiveEmRangeSampler::new(&machine, keys);
    for (frac, s) in [(0.5f64, 256usize), (0.5, 2048), (0.5, 16_384), (0.1, 2048), (0.9, 2048)] {
        let x = n as f64 * (0.5 - frac / 2.0);
        let y = n as f64 * (0.5 + frac / 2.0);
        pool.query(x, y, 64, &mut rng); // warm pools once
        machine.reset_stats();
        pool.query(x, y, s, &mut rng).unwrap();
        let p_ios = machine.stats().total();
        machine.reset_stats();
        naive.query_random_access(x, y, s, &mut rng).unwrap();
        let r_ios = machine.stats().total();
        machine.reset_stats();
        naive.query_report_then_sample(x, y, s, &mut rng).unwrap();
        let rep_ios = machine.stats().total();
        let count = (y - x) as usize;
        println!("{:>8} {:>12} {:>14} {:>14} {:>18}", s, count, p_ios, r_ios, rep_ios);
        csv_row(
            "e10_em_range.csv",
            "s,count,pool_ios,randacc_ios,report_ios",
            &format!("{s},{count},{p_ios},{r_ios},{rep_ios}"),
        );
    }
    println!("  claim: pool ~log + s/B amortized; random access ~s; report ~|S_q|/B.\n");
}

// =====================================================================
// E11 — Direction 1: dynamic alias under interleaved updates.
// =====================================================================
fn e11_dynamic_alias() {
    println!("E11  dynamic alias — expected O(1) ops under updates");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>18}",
        "n", "sample ns", "insert ns", "remove ns", "static rebuild us"
    );
    let mut rng = StdRng::seed_from_u64(11);
    for exp in [12u32, 14, 16, 18, 20] {
        let n = 1usize << exp;
        let mut d = DynamicAlias::new();
        for i in 0..n as u64 {
            d.insert(i, 0.1 + rng.random::<f64>() * 100.0).unwrap();
        }
        let mut sink = 0u64;
        let s_ns = time_ns(|| sink ^= d.sample(&mut rng).unwrap(), 20_000, 5);
        let mut next_id = n as u64;
        let i_ns = time_ns(
            || {
                d.insert(next_id, 1.0 + (next_id % 97) as f64).unwrap();
                next_id += 1;
            },
            5_000,
            3,
        );
        let mut rm_id = n as u64;
        let r_ns = time_ns(
            || {
                d.remove(rm_id);
                rm_id += 1;
            },
            5_000,
            3,
        );
        let weights: Vec<f64> = (0..n).map(|_| 0.1 + rng.random::<f64>()).collect();
        let rebuild_us = time_ns(
            || {
                std::hint::black_box(AliasTable::new(&weights).unwrap().len());
            },
            3,
            3,
        ) / 1e3;
        std::hint::black_box(sink);
        println!("{:>10} {:>14.1} {:>14.1} {:>14.1} {:>18.1}", n, s_ns, i_ns, r_ns, rebuild_us);
        csv_row(
            "e11_dynamic.csv",
            "n,sample_ns,insert_ns,remove_ns,rebuild_us",
            &format!("{n},{s_ns:.1},{i_ns:.1},{r_ns:.1},{rebuild_us:.1}"),
        );
    }
    println!("  claim: all dynamic ops flat in n; static rebuild linear in n.\n");
}

// =====================================================================
// F1 — cross-query independence: IQS passes, dependent fails.
// =====================================================================
fn f1_independence() {
    println!("F1  repeated-identical-query overlap test (k = 400, s = 20, 1000 rounds)");
    println!(
        "{:>12} {:>15} {:>15} {:>10}",
        "structure", "mean overlap", "independent E", "verdict"
    );
    let n = 400usize;
    let s = 20usize;
    let structures: Vec<(&str, Box<dyn RangeSampler>)> = vec![
        ("tree", Box::new(TreeSamplingRange::new(keyed_weights(n, Weights::Unit, 90)).unwrap())),
        (
            "lemma2",
            Box::new(AliasAugmentedRange::new(keyed_weights(n, Weights::Unit, 90)).unwrap()),
        ),
        ("thm3", Box::new(ChunkedRange::new(keyed_weights(n, Weights::Unit, 90)).unwrap())),
    ];
    for (name, sampler) in &structures {
        let mut rng = StdRng::seed_from_u64(91);
        let rep = overlap_test(n, s, 1000, || {
            sampler
                .sample_wor(f64::NEG_INFINITY, f64::INFINITY, s, &mut rng)
                .unwrap()
                .into_iter()
                .map(|r| r as u64)
                .collect()
        });
        println!(
            "{:>12} {:>15.2} {:>15.2} {:>10}",
            name,
            rep.mean_overlap,
            rep.expected_independent,
            if rep.looks_independent(0.35) { "PASS" } else { "FAIL" }
        );
        csv_row(
            "f1_independence.csv",
            "structure,mean_overlap,expected",
            &format!("{name},{:.3},{:.3}", rep.mean_overlap, rep.expected_independent),
        );
    }
    let mut rng = StdRng::seed_from_u64(92);
    let dep = DependentRange::new((0..n).map(|i| i as f64).collect(), &mut rng).unwrap();
    let rep = overlap_test(n, s, 50, || {
        dep.sample_wor(f64::NEG_INFINITY, f64::INFINITY, s)
            .unwrap()
            .into_iter()
            .map(|r| r as u64)
            .collect()
    });
    println!(
        "{:>12} {:>15.2} {:>15.2} {:>10}",
        "dependent",
        rep.mean_overlap,
        rep.expected_independent,
        if rep.looks_independent(0.35) { "PASS" } else { "FAIL (by design)" }
    );
    csv_row(
        "f1_independence.csv",
        "structure,mean_overlap,expected",
        &format!("dependent,{:.3},{:.3}", rep.mean_overlap, rep.expected_independent),
    );
    println!(
        "  claim: IQS overlap ≈ s²/k = {:.1}; dependent = s = {s}.\n",
        (s * s) as f64 / n as f64
    );
}

// =====================================================================
// F2 — Benefit 1: failure concentration of repeated estimates.
// =====================================================================
fn f2_concentration() {
    println!("F2  estimation-error concentration over m = 1500 estimates (ε=.02, δ=.3)");
    let mut rng = StdRng::seed_from_u64(93);
    let n = 200_000usize;
    let pairs = keyed_weights(n, Weights::Unit, 94);
    let sampler = ChunkedRange::new(pairs).unwrap();
    let est = SelectivityEstimator::new(&sampler);
    let pred = |r: usize| r.is_multiple_of(3);
    let (eps, delta) = (0.02, 0.3);
    let s = required_sample_size(eps, delta);
    let (x, y) = (n as f64 * 0.2, n as f64 * 0.8);
    let exact = est.exact_fraction(x, y, &pred);
    let m = 1500usize;
    let fails: Vec<bool> = (0..m)
        .map(|_| {
            (est.estimate_fraction(x, y, &pred, eps, delta, &mut rng).unwrap() - exact).abs() > eps
        })
        .collect();
    let runs = ErrorRuns::new(fails);
    println!(
        "  IQS: failures {}/{m} (rate {:.3}), longest run {}, block var {:.2}",
        runs.failure_count(),
        runs.failure_rate(),
        runs.longest_failure_run(),
        runs.block_count_variance(30),
    );
    let dep = DependentRange::new(sampler.keys().to_vec(), &mut rng).unwrap();
    let mut dep_fails = Vec::with_capacity(m);
    for band in 0..30 {
        let bx = n as f64 * 0.02 * band as f64;
        let by = bx + n as f64 * 0.4;
        let (ra, rb) = sampler.rank_range(bx, by);
        let frozen = dep.sample_wor(bx, by, s.min(rb - ra)).unwrap();
        let hits = frozen.iter().filter(|&&r| pred(r)).count();
        let e = hits as f64 / frozen.len() as f64;
        let failed = (e - est.exact_fraction(bx, by, &pred)).abs() > eps;
        dep_fails.extend(std::iter::repeat_n(failed, m / 30));
    }
    let dep_runs = ErrorRuns::new(dep_fails);
    println!(
        "  dependent: failures {}/{m} (rate {:.3}), longest run {}, block var {:.2}",
        dep_runs.failure_count(),
        dep_runs.failure_rate(),
        dep_runs.longest_failure_run(),
        dep_runs.block_count_variance(30),
    );
    csv_row(
        "f2_concentration.csv",
        "regime,failures,longest_run,block_var",
        &format!(
            "iqs,{},{},{:.3}",
            runs.failure_count(),
            runs.longest_failure_run(),
            runs.block_count_variance(30)
        ),
    );
    csv_row(
        "f2_concentration.csv",
        "regime,failures,longest_run,block_var",
        &format!(
            "dependent,{},{},{:.3}",
            dep_runs.failure_count(),
            dep_runs.longest_failure_run(),
            dep_runs.block_count_variance(30)
        ),
    );
    println!(
        "  claim: IQS runs ~log-length, counts concentrated; dependence makes runs of m/30.\n"
    );
}

// =====================================================================
// F3 — Benefit 2: fairness of repeated identical inquiries.
// =====================================================================
fn f3_fairness() {
    println!("F3  exposure fairness over 10 000 identical inquiries (s = 10)");
    let mut rng = StdRng::seed_from_u64(95);
    let n = 5_000usize;
    let sampler = ChunkedRange::new(keyed_weights(n, Weights::Unit, 96)).unwrap();
    let dep = DependentRange::new(sampler.keys().to_vec(), &mut rng).unwrap();
    let (x, y, s) = (n as f64 * 0.2, n as f64 * 0.3, 10usize);
    let (a, b) = sampler.rank_range(x, y);
    let k = b - a;
    let inquiries = 10_000usize;
    let mut iqs_counts = vec![0u64; k];
    let mut dep_counts = vec![0u64; k];
    for _ in 0..inquiries {
        for r in sampler.sample_wor(x, y, s, &mut rng).unwrap() {
            iqs_counts[r - a] += 1;
        }
        for r in dep.sample_wor(x, y, s).unwrap() {
            dep_counts[r - a] += 1;
        }
    }
    for (name, counts) in [("IQS", &iqs_counts), ("dependent", &dep_counts)] {
        let shown = counts.iter().filter(|&&c| c > 0).count();
        let gof = chi_square_gof(counts, &uniform_probs(k));
        println!(
            "  {name:>10}: shown {shown}/{k}, chi² = {:.0}, p = {:.3e} → {}",
            gof.statistic,
            gof.p_value,
            if gof.consistent_at(1e-6) { "FAIR" } else { "UNFAIR" }
        );
        csv_row(
            "f3_fairness.csv",
            "regime,shown,of,chi2,p",
            &format!("{name},{shown},{k},{:.1},{:.3e}", gof.statistic, gof.p_value),
        );
    }
    println!();
}

// =====================================================================
// F4 — §1 headline: sampling beats reporting when s ≪ |S_q|.
// =====================================================================
fn f4_crossover() {
    println!("F4  IQS vs report-then-sample crossover (s = 16, n = 2^20)");
    println!("{:>12} {:>13} {:>15} {:>9}", "|S_q|", "IQS us/q", "report us/q", "winner");
    let mut rng = StdRng::seed_from_u64(97);
    let n = 1usize << 20;
    let iqs = ChunkedRange::new(keyed_weights(n, Weights::Unit, 98)).unwrap();
    let rep = ReportThenSample::new(keyed_weights(n, Weights::Unit, 98)).unwrap();
    let s = 16usize;
    for frac in [0.00002f64, 0.0001, 0.001, 0.01, 0.1, 0.5, 0.9] {
        let x = n as f64 * (0.5 - frac / 2.0);
        let y = n as f64 * (0.5 + frac / 2.0);
        let count = iqs.range_count(x, y);
        if count == 0 {
            continue;
        }
        let mut sink = 0usize;
        let i_us = time_ns(|| sink ^= iqs.sample_wr(x, y, s, &mut rng).unwrap()[0], 50, 5) / 1e3;
        let r_us = time_ns(|| sink ^= rep.sample_wr(x, y, s, &mut rng).unwrap()[0], 10, 5) / 1e3;
        std::hint::black_box(sink);
        println!(
            "{:>12} {:>13.2} {:>15.2} {:>9}",
            count,
            i_us,
            r_us,
            if i_us < r_us { "IQS" } else { "report" }
        );
        csv_row(
            "f4_crossover.csv",
            "count,iqs_us,report_us",
            &format!("{count},{i_us:.3},{r_us:.3}"),
        );
    }
    println!("  claim: report cost grows with |S_q|; IQS flat; IQS wins from small |S_q| on.\n");
}

// =====================================================================
// E12 — Direction 1 applied to the headline problem: DynamicRange.
// =====================================================================
fn e12_dynamic_range() {
    println!("E12  dynamized range sampling (Bentley–Saxe over Theorem-3 levels)");
    println!(
        "{:>10} {:>12} {:>12} {:>13} {:>14}",
        "n", "insert us", "remove us", "query us", "static q us"
    );
    let mut rng = StdRng::seed_from_u64(120);
    for exp in [12u32, 14, 16, 18] {
        let n = 1usize << exp;
        let mut d = DynamicRange::new();
        let build_start = std::time::Instant::now();
        for i in 0..n as u64 {
            d.insert(i, i as f64, 1.0 + (i % 7) as f64).unwrap();
        }
        let insert_us = build_start.elapsed().as_micros() as f64 / n as f64;
        // Static counterpart over the same data.
        let static_s =
            ChunkedRange::new((0..n as u64).map(|i| (i as f64, 1.0 + (i % 7) as f64)).collect())
                .unwrap();
        let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
        let s = 64usize;
        let mut sink = 0u64;
        let q_us = time_ns(|| sink ^= d.sample_wr(x, y, s, &mut rng).unwrap()[0].0, 20, 5) / 1e3;
        let mut sink2 = 0usize;
        let sq_us =
            time_ns(|| sink2 ^= static_s.sample_wr(x, y, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        // Interleave deletes.
        let del_start = std::time::Instant::now();
        let dels = n / 4;
        for i in 0..dels as u64 {
            d.remove(i * 2);
        }
        let remove_us = del_start.elapsed().as_micros() as f64 / dels as f64;
        std::hint::black_box((sink, sink2));
        println!(
            "{:>10} {:>12.2} {:>12.2} {:>13.1} {:>14.1}",
            n, insert_us, remove_us, q_us, sq_us
        );
        csv_row(
            "e12_dynamic_range.csv",
            "n,insert_us,remove_us,query_us,static_query_us",
            &format!("{n},{insert_us:.3},{remove_us:.3},{q_us:.2},{sq_us:.2}"),
        );
    }
    println!("  claim: amortized polylog updates; queries within a small factor of static.\n");
}

// =====================================================================
// E13 — WoR methods: rejection vs A-Res (reporting) vs A-ExpJ (jumps).
// =====================================================================
fn e13_wor_methods() {
    println!("E13  weighted WoR: rejection vs A-Res vs A-ExpJ (n = 2^18, |S_q| = 2^17)");
    println!("{:>9} {:>15} {:>14} {:>14}", "s", "rejection us", "A-Res us", "A-ExpJ us");
    let mut rng = StdRng::seed_from_u64(130);
    let n = 1usize << 18;
    let pairs = keyed_weights(n, Weights::Uniform, 131);
    let chunked = ChunkedRange::new(pairs.clone()).unwrap();
    let expj = ExpJumpWor::new(pairs).unwrap();
    let (x, y) = (n as f64 * 0.25, n as f64 * 0.75);
    let (a, b) = chunked.rank_range(x, y);
    let range_weights: Vec<f64> = chunked.weights()[a..b].to_vec();
    for s in [16usize, 256, 4096, 65_536, b - a - 1] {
        let mut sink = 0usize;
        // Rejection WoR stalls when s approaches |S_q|: cap the timing
        // effort there and mark it.
        let rej_us = if s * 2 <= b - a {
            time_ns(|| sink ^= chunked.sample_wor(x, y, s, &mut rng).unwrap()[0], 5, 3) / 1e3
        } else {
            f64::NAN // coupon-collector regime: skipped
        };
        let ares_us = time_ns(
            || {
                sink ^= iqs_alias::wor::a_res_weighted_wor(&range_weights, s, &mut rng)[0];
            },
            5,
            3,
        ) / 1e3;
        let expj_us =
            time_ns(|| sink ^= expj.sample_wor(x, y, s, &mut rng).unwrap()[0], 5, 3) / 1e3;
        std::hint::black_box(sink);
        println!("{:>9} {:>15.1} {:>14.1} {:>14.1}", s, rej_us, ares_us, expj_us);
        csv_row(
            "e13_wor.csv",
            "s,rejection_us,ares_us,expj_us",
            &format!("{s},{rej_us:.2},{ares_us:.2},{expj_us:.2}"),
        );
    }
    println!(
        "  claim: A-Res pays |S_q| regardless of s; rejection is fast for small s but \
         stalls near s = |S_q|; A-ExpJ is robust everywhere.\n"
    );
}

// =====================================================================
// A1 — ablation: Theorem 3's chunk length.
// =====================================================================
fn a1_chunk_len_ablation() {
    println!("A1  Theorem-3 chunk-length ablation (n = 2^18, s = 64)");
    println!("{:>10} {:>14} {:>13}", "chunk c", "space words", "query us");
    let mut rng = StdRng::seed_from_u64(140);
    let n = 1usize << 18;
    let log_n = 18usize;
    for factor in [1usize, 4, 16, 64, 256] {
        let c = (log_n * factor) / 4; // c ∈ {4.5, 18, 72, …} ≈ {¼, 1, 4, 16, 64}·log n
        let sampler =
            ChunkedRange::with_chunk_len(keyed_weights(n, Weights::Uniform, 141), c.max(1))
                .unwrap();
        let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
        let mut sink = 0usize;
        let q_us =
            time_ns(|| sink ^= sampler.sample_wr(x, y, 64, &mut rng).unwrap()[0], 20, 5) / 1e3;
        std::hint::black_box(sink);
        println!("{:>10} {:>14} {:>13.2}", c, sampler.space_words(), q_us);
        csv_row(
            "a1_chunk_len.csv",
            "chunk,space_words,query_us",
            &format!("{c},{},{q_us:.3}", sampler.space_words()),
        );
    }
    println!("  claim: tiny chunks inflate T_chunk space (n log n regime); huge chunks slow the\n         boundary scans; c = Θ(log n) sits at the joint optimum.\n");
}

// =====================================================================
// A2 — ablation: KMV sketch capacity k (Theorem 8's Û_G accuracy).
// =====================================================================
fn a2_sketch_k_ablation() {
    println!("A2  KMV sketch-capacity ablation (distinct count = 100 000)");
    println!("{:>8} {:>16} {:>18}", "k", "mean |rel err|", "within [Û/2,1.5Û] %");
    let n_distinct = 100_000u64;
    for k in [8usize, 16, 32, 64, 128, 256, 1024] {
        let trials = 40;
        let mut abs_err = 0.0;
        let mut within = 0usize;
        for t in 0..trials {
            let sk = KmvSketch::from_ids(0..n_distinct, k, HashSeed(1000 + t as u64));
            let est = sk.estimate();
            abs_err += (est - n_distinct as f64).abs() / n_distinct as f64 / trials as f64;
            // The paper's requirement: Û/2 ≤ U ≤ 1.5·Û.
            if n_distinct as f64 >= est / 2.0 && n_distinct as f64 <= 1.5 * est {
                within += 1;
            }
        }
        println!("{:>8} {:>16.4} {:>17.0}%", k, abs_err, 100.0 * within as f64 / trials as f64);
        csv_row(
            "a2_sketch_k.csv",
            "k,mean_rel_err,within_band_pct",
            &format!("{k},{abs_err:.4},{:.0}", 100.0 * within as f64 / trials as f64),
        );
    }
    println!(
        "  claim: rel. error ~1/sqrt(k); k = 64 (the sampler default) is safely inside the band.\n"
    );
}

// =====================================================================
// A3 — ablation: kd-tree leaf capacity.
// =====================================================================
fn a3_leaf_cap_ablation() {
    println!("A3  kd-tree leaf-capacity ablation (n = 2^16, s = 64)");
    println!("{:>10} {:>10} {:>10} {:>13}", "leaf cap", "nodes", "cover", "query us");
    let mut rng = StdRng::seed_from_u64(150);
    let n = 1usize << 16;
    let pts = uniform_points2(n, 151);
    let q: Rect<2> = Rect::new([0.2, 0.3], [0.8, 0.7]);
    for cap in [1usize, 4, 8, 32, 128, 512] {
        let kd =
            CoverageSampler::new(KdTree::with_leaf_cap(pts.clone(), vec![1.0; n], cap).unwrap());
        let cover = kd.index().cover(&q).len();
        let mut sink = 0usize;
        let q_us = time_ns(|| sink ^= kd.sample_wr(&q, 64, &mut rng).unwrap()[0], 20, 5) / 1e3;
        std::hint::black_box(sink);
        println!("{:>10} {:>10} {:>10} {:>13.2}", cap, kd.index().node_count(), cover, q_us);
        csv_row(
            "a3_leaf_cap.csv",
            "cap,nodes,cover,query_us",
            &format!("{cap},{},{cover},{q_us:.3}", kd.index().node_count()),
        );
    }
    println!(
        "  claim: small caps grow the arena; large caps grow boundary covers; 4-32 is flat.\n"
    );
}

// =====================================================================
// E14 — Theorem 5 beyond rectangles: halfspace and disc predicates,
// exact kd covers vs the Theorem-6 approximate quadtree route.
// =====================================================================
fn e14_regions() {
    println!("E14  generic regions: halfplane + disc (exact kd covers vs approx quadtree)");
    let mut rng = StdRng::seed_from_u64(160);
    let n = 1usize << 16;
    let pts = uniform_points2(n, 161);
    let kd = CoverageSampler::new(KdTree::with_unit_weights(pts.clone()).unwrap());
    let qt = ApproxCoverageSampler::new(QuadTree::with_unit_weights(pts.clone()).unwrap());
    let s = 64usize;

    println!("  halfplane x + 2y <= c sweep (kd exact covers):");
    println!("{:>8} {:>10} {:>9} {:>13}", "c", "|S_q|", "cover", "IQS us/q");
    for c in [0.3f64, 0.8, 1.5, 2.4] {
        let h = HalfSpace::new([1.0, 2.0], c);
        let count = kd.region_count(&h);
        if count == 0 {
            continue;
        }
        let cover = kd.region_cover(&h).len();
        let mut sink = 0usize;
        let us = time_ns(|| sink ^= kd.sample_region_wr(&h, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        std::hint::black_box(sink);
        println!("{:>8} {:>10} {:>9} {:>13.1}", c, count, cover, us);
        csv_row(
            "e14_regions.csv",
            "kind,param,count,cover,us",
            &format!("halfplane,{c},{count},{cover},{us:.2}"),
        );
    }

    println!("  disc radius sweep: exact kd cover vs approx quadtree (Thm 6):");
    println!(
        "{:>8} {:>10} {:>10} {:>13} {:>10} {:>14}",
        "r", "|S_q|", "kd cover", "kd us/q", "qt cover", "qt(approx) us/q"
    );
    for r in [0.05f64, 0.1, 0.2, 0.4] {
        let d = Disc::new([0.5, 0.5].into(), r);
        let count = kd.region_count(&d);
        if count == 0 {
            continue;
        }
        let kd_cover = kd.region_cover(&d).len();
        let q: (iqs_spatial::Point<2>, f64) = ([0.5, 0.5].into(), r);
        let qt_cover = qt.index().approx_cover_circle(&q.0, r).len();
        let mut sink = 0usize;
        let kd_us =
            time_ns(|| sink ^= kd.sample_region_wr(&d, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        let qt_us = time_ns(|| sink ^= qt.sample_wr(&q, s, &mut rng).unwrap()[0], 20, 5) / 1e3;
        std::hint::black_box(sink);
        // Both must be uniform over the true disc: sanity-check supports.
        let truly = pts.iter().filter(|p| dist2(p, &q.0) <= r * r).count();
        assert_eq!(count, truly);
        println!(
            "{:>8} {:>10} {:>10} {:>13.1} {:>10} {:>14.1}",
            r, count, kd_cover, kd_us, qt_cover, qt_us
        );
        csv_row(
            "e14_regions.csv",
            "kind,param,count,cover,us",
            &format!("disc_kd,{r},{count},{kd_cover},{kd_us:.2}"),
        );
        csv_row(
            "e14_regions.csv",
            "kind,param,count,cover,us",
            &format!("disc_qt,{r},{count},{qt_cover},{qt_us:.2}"),
        );
    }
    println!(
        "  claim: exact covers enumerate boundary leaves (bigger covers, no rejection); the\n\
         approximate route keeps covers small and pays expected-constant rejection instead.\n"
    );
}

// =====================================================================
// E15 — Direction 2 exploration: weighted range sampling in EM.
// =====================================================================
fn e15_em_weighted() {
    println!("E15  Direction 2 — weighted EM range sampling (open problem; amortized shape)");
    println!(
        "{:>8} {:>14} {:>20} {:>18}",
        "s", "weighted I/Os", "unweighted(WR) I/Os", "per-sample (wtd)"
    );
    let mut rng = StdRng::seed_from_u64(180);
    let b = 256usize;
    let machine = EmMachine::new(32 * b, b);
    let n = 1usize << 18;
    let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 9) as f64)).collect();
    let mut weighted = EmWeightedRangeSampler::new(&machine, pairs);
    let mut unweighted = EmRangeSampler::new(&machine, (0..n).map(|i| i as f64).collect());
    let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
    // Warm both pool hierarchies once.
    weighted.query(x, y, 1024, &mut rng);
    unweighted.query(x, y, 1024, &mut rng);
    for s in [256usize, 2048, 16_384] {
        machine.reset_stats();
        weighted.query(x, y, s, &mut rng).unwrap();
        let w_ios = machine.stats().total();
        machine.reset_stats();
        unweighted.query(x, y, s, &mut rng).unwrap();
        let u_ios = machine.stats().total();
        println!("{:>8} {:>14} {:>20} {:>18.4}", s, w_ios, u_ios, w_ios as f64 / s as f64);
        csv_row(
            "e15_em_weighted.csv",
            "s,weighted_ios,unweighted_ios",
            &format!("{s},{w_ios},{u_ios}"),
        );
    }
    println!(
        "  claim (conjectured target): ~log + s/B amortized, same shape as the WR structure;\n\
         the worst case is the paper's open problem.\n"
    );
}

// =====================================================================
// E16 — batched vs sequential sampling at n = 2^20, three doors (see
// `RangeSampler`'s *Dual sampling API*): `seq` = `sample_wr` (per-draw
// `dyn RngCore` dispatch + `Vec` output), `batch` = `sample_wr_into`
// (block-buffered RNG into the caller's slice, still through the trait
// object), `mono` = `sample_wr_batch::<StdRng>` on Theorem 3 only — how
// much of the win is blocking/decoding vs avoiding dyn dispatch.
// =====================================================================
fn e16_batch_throughput() {
    println!("E16  batched vs sequential sampling (n = 2^20, query = [10%, 90%])");
    println!(
        "{:>6} {:>9} {:>11} {:>11} {:>11} {:>10} {:>14}",
        "s", "structure", "seq us/q", "batch us/q", "mono us/q", "seq/batch", "batch Msamp/s"
    );
    let n = 1usize << 20;
    let pairs = keyed_weights(n, Weights::Uniform, 30);
    let tree = TreeSamplingRange::new(pairs.clone()).unwrap();
    let lemma2 = AliasAugmentedRange::new(pairs.clone()).unwrap();
    let thm3 = ChunkedRange::new(pairs).unwrap();
    // (name, trait-object doors, statically dispatched door if timed)
    let all: [(&str, &dyn RangeSampler, Option<&ChunkedRange>); 3] =
        [("tree32", &tree, None), ("lemma2", &lemma2, None), ("thm3", &thm3, Some(&thm3))];
    let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
    for s in [1usize, 16, 256, 4096] {
        // ~2^16 draws per timed run whatever the batch size.
        let iters = ((1usize << 16) / s).max(1);
        let mut rng = StdRng::seed_from_u64(16);
        let mut out = vec![0u32; s];
        let mut sink = 0usize;
        for (name, sampler, mono) in all {
            let seq =
                time_ns(|| sink ^= sampler.sample_wr(x, y, s, &mut rng).unwrap()[0], iters, 5)
                    / 1e3;
            let batch = time_ns(
                || {
                    sampler.sample_wr_into(x, y, &mut rng, &mut out).unwrap();
                    sink ^= out[0] as usize;
                },
                iters,
                5,
            ) / 1e3;
            let mono = mono.map(|thm3| {
                time_ns(
                    || {
                        thm3.sample_wr_batch(x, y, &mut rng, &mut out).unwrap();
                        sink ^= out[0] as usize;
                    },
                    iters,
                    5,
                ) / 1e3
            });
            let mono = mono.map_or("-".to_string(), |us| format!("{us:.2}"));
            println!(
                "{:>6} {:>9} {:>11.2} {:>11.2} {:>11} {:>9.2}x {:>14.1}",
                s,
                name,
                seq,
                batch,
                mono,
                seq / batch,
                s as f64 / batch
            );
            csv_row(
                "e16_batch_throughput.csv",
                "s,structure,seq_us,batch_us,mono_us",
                &format!("{s},{name},{seq:.3},{batch:.3},{mono}"),
            );
        }
        std::hint::black_box(sink);
    }
    println!(
        "  claim: none from the paper (engineering experiment) — the batch door allocates\n  \
         nothing per query and should not lose to the sequential one from s = 16 up.\n"
    );
}

// =====================================================================
// E19 — observability overhead (iqs-obs): the cost of the emit site
// with no subscriber installed, and the end-to-end price of full
// request tracing on the serve and shard tiers, measured A/B with
// interleaved rounds so drift hits both modes equally.
// =====================================================================
fn e19_observability() {
    use iqs_obs::recorder::{self, Ctx, Phase};
    use iqs_serve::{IndexRegistry, Request, Server, ServerConfig};
    use iqs_shard::{ShardConfig, ShardedService};
    use iqs_testkit::ClockHandle;
    use std::time::Instant;

    // CI sets E19_SMOKE=1 to run the same code with short intervals.
    let smoke = std::env::var("E19_SMOKE").is_ok();
    let workers = std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(4);
    let n = 1usize << if smoke { 13 } else { 17 };
    let s = 64u32;
    let trial_secs = if smoke { 0.08 } else { 0.4 };
    let rounds = if smoke { 2 } else { 7 };
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite qps"));
        v[v.len() / 2]
    };

    println!("E19 observability overhead — {workers} workers, n = {n}, s = {s} per query");

    // Phase 1 — the emit site itself. With no subscriber the hook is a
    // single relaxed atomic load and an early return; with one installed
    // a traced emit takes a clock read plus six ring-slot stores.
    recorder::disable();
    let ctx = Ctx::query(1);
    let op = || recorder::emit(std::hint::black_box(ctx), Phase::RngCost, 1, 2);
    let disabled_ns = time_ns(op, 1 << 20, 9);
    recorder::install(&ClockHandle::default(), 1 << 12);
    let traced_ns = time_ns(op, 1 << 20, 9);
    recorder::disable();
    let _ = recorder::drain();
    println!("  emit site: disabled {disabled_ns:.2} ns/call, traced {traced_ns:.2} ns/call");
    csv_row(
        "e19_emit_site.csv",
        "mode,ns_per_emit",
        &format!("disabled,{disabled_ns:.3}\ntraced,{traced_ns:.3}"),
    );

    // Phase 2 — serve tier: closed-loop saturation with the recorder
    // off (plain `call`, untraced) vs installed (`call_traced`, every
    // request recording its full worker-side story).
    let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 10) as f64)).collect();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", pairs).unwrap();
    let server = Server::start(
        registry,
        ServerConfig { workers, queue_capacity: 1024, seed: 19, ..ServerConfig::default() },
    );
    let request = || Request::SampleWr { index: "keys".into(), range: None, s };
    let serve_trial = |traced: bool| -> f64 {
        let start = Instant::now();
        let done: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2 * workers)
                .map(|_| {
                    let client = server.client();
                    scope.spawn(move || {
                        let mut count = 0u64;
                        while start.elapsed().as_secs_f64() < trial_secs {
                            if traced {
                                let (_, result) = client.call_traced(request());
                                result.expect("closed-loop call");
                            } else {
                                client.call(request()).expect("closed-loop call");
                            }
                            count += 1;
                        }
                        count
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).sum()
        });
        done as f64 / start.elapsed().as_secs_f64()
    };
    let (mut serve_off, mut serve_on) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        recorder::disable();
        serve_off.push(serve_trial(false));
        recorder::install(&ClockHandle::default(), 1 << 14);
        serve_on.push(serve_trial(true));
        recorder::disable();
        let _ = recorder::drain();
    }
    let _ = server.shutdown();
    let (off, on) = (median(&mut serve_off), median(&mut serve_on));
    let serve_pct = (off - on) / off * 100.0;
    println!(
        "  serve tier: {off:.0} q/s untraced, {on:.0} q/s fully traced ({serve_pct:+.1}% cost)"
    );
    csv_row(
        "e19_obs_overhead.csv",
        "tier,off_qps,traced_qps,overhead_pct",
        &format!("serve,{off:.0},{on:.0},{serve_pct:.2}"),
    );

    // Phase 3 — shard tier: the router traces every query once a
    // subscriber is installed (plan, split, legs, cost, slow log), so
    // the A/B is simply installed vs not.
    let elements: Vec<(u64, f64, f64)> =
        (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect();
    let svc = ShardedService::new(
        elements,
        ShardConfig { shards: 3, replicas: 2, seed: 19, ..ShardConfig::default() },
    )
    .expect("cluster build");
    let shard_trial = || -> f64 {
        let start = Instant::now();
        let done: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut client = svc.client();
                    scope.spawn(move || {
                        let mut count = 0u64;
                        while start.elapsed().as_secs_f64() < trial_secs {
                            let drawn = client.sample_wr(None, s).expect("healthy cluster");
                            assert!(!drawn.degraded);
                            count += 1;
                        }
                        count
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).sum()
        });
        done as f64 / start.elapsed().as_secs_f64()
    };
    let (mut shard_off, mut shard_on) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        recorder::disable();
        shard_off.push(shard_trial());
        recorder::install(&ClockHandle::default(), 1 << 14);
        shard_on.push(shard_trial());
        recorder::disable();
        let _ = recorder::drain();
    }
    let (off, on) = (median(&mut shard_off), median(&mut shard_on));
    let shard_pct = (off - on) / off * 100.0;
    println!(
        "  shard tier: {off:.0} q/s untraced, {on:.0} q/s fully traced ({shard_pct:+.1}% cost)"
    );
    csv_row(
        "e19_obs_overhead.csv",
        "tier,off_qps,traced_qps,overhead_pct",
        &format!("shard,{off:.0},{on:.0},{shard_pct:.2}"),
    );
    println!(
        "  claim: a disabled emit site costs ~a nanosecond, so across the ~dozen sites a\n  \
         query crosses the uninstalled recorder is far under 3% of any query's latency.\n  \
         Full tracing is NOT free on microsecond-scale queries — expect a double-digit\n  \
         percent toll on a single-vCPU host, dominated by clock reads — which is why\n  \
         the subscriber is opt-in and off by default.\n"
    );
}

// =====================================================================
// E23 — autopilot: the chaos scenario matrix, controller on vs off.
// =====================================================================
fn e23_autopilot() {
    use iqs_ctl::chaos::{run_matrix, ChaosConfig};
    use iqs_testkit::{ClockHandle, Scenario};

    // CI sets E23_SMOKE=1 to run the same matrix with truncated phases.
    let smoke = std::env::var("E23_SMOKE").is_ok();
    let mut scenarios = Scenario::matrix();
    if smoke {
        for sc in &mut scenarios {
            for phase in &mut sc.phases {
                phase.ticks = phase.ticks.min(3);
                phase.queries_per_tick = phase.queries_per_tick.min(24);
            }
        }
    }

    println!("E23  autopilot — chaos scenario matrix, controller on vs off (A/B, one seed)");
    println!(
        "     4 shards x 1 replica over 512 weighted keys, s = 8, 25 ms scatter deadline{}",
        if smoke { " (smoke: truncated phases)" } else { "" }
    );
    println!(
        "{:>18} {:>4} {:>7} {:>7} {:>9} {:>8} {:>10} {:>10} {:>13} {:>7}",
        "scenario",
        "ctl",
        "queries",
        "failed",
        "degraded",
        "missing",
        "p50 us",
        "p99 us",
        "spl/mrg/rbd",
        "shards"
    );

    // The workload script is a pure function of this seed; on the real
    // clock only the *measured latencies* pick up wall-time noise.
    let cfg = ChaosConfig::on_clock(ClockHandle::real(), 0x1905_2023);
    let pairs = run_matrix(&scenarios, &cfg).expect("chaos matrix runs");
    for (on, off) in &pairs {
        for cell in [on, off] {
            println!(
                "{:>18} {:>4} {:>7} {:>7} {:>9} {:>8} {:>10.1} {:>10.1} {:>13} {:>7}",
                cell.scenario,
                if cell.controller { "on" } else { "off" },
                cell.queries,
                cell.failed,
                cell.degraded,
                cell.missing,
                cell.p50_ns as f64 / 1e3,
                cell.p99_ns as f64 / 1e3,
                format!("{}/{}/{}", cell.splits, cell.merges, cell.rebuilds),
                cell.final_shards
            );
            csv_row(
                "e23_autopilot.csv",
                "scenario,controller,queries,failed,degraded,missing,p50_ns,p99_ns,splits,merges,rebuilds,final_shards",
                &format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{}",
                    cell.scenario,
                    cell.controller,
                    cell.queries,
                    cell.failed,
                    cell.degraded,
                    cell.missing,
                    cell.p50_ns,
                    cell.p99_ns,
                    cell.splits,
                    cell.merges,
                    cell.rebuilds,
                    cell.final_shards
                ),
            );
        }
        assert_eq!(on.failed + off.failed, 0, "the matrix's availability contract");
    }
    let kill = pairs.iter().map(|(on, _)| on).find(|c| c.scenario == "replica_kill");
    if let Some(on) = kill {
        let off = &pairs.iter().find(|(o, _)| o.scenario == "replica_kill").unwrap().1;
        println!(
            "\n  replica_kill A/B: degraded {} -> {} ({}x), p99 {:.1}us -> {:.1}us",
            off.degraded,
            on.degraded,
            off.degraded.checked_div(on.degraded).unwrap_or(off.degraded),
            off.p99_ns as f64 / 1e3,
            on.p99_ns as f64 / 1e3
        );
    }
    println!(
        "\n  E23 claim: with the controller on, the same scripted workload (same seed, same\n  \
         faults) sees fewer degraded reads and a lower p99 than with it off: sustained\n  \
         hotspots are split, cold shards re-merged, and the zombie replica (40 ms delay\n  \
         vs a 25 ms scatter deadline) is rebuilt around within one control tick instead\n  \
         of taxing every touched query for the rest of the run. Zero reads fail in any\n  \
         cell, either arm. Caveats: 1-vCPU runner — wall-clock latencies are noisy and\n  \
         the closed-loop driver understates contention; the deterministic form of this\n  \
         matrix (virtual clock, byte-identical A/B) runs in CI as chaos_matrix.rs.\n"
    );
}

// =====================================================================
// E24 — telemetry plane: shipping overhead A/B + burn detection latency.
// =====================================================================
fn e24_telemetry_slo() {
    use iqs_net::{
        announce_once, shard_specs, ship_telemetry, Announce, RegistryHandler, ReplicaServer,
        ServiceRegistry, SimNet, TelemetryHandler,
    };
    use iqs_obs::{recorder, Phase, Record};
    use iqs_serve::{HistogramSnapshot, IndexRegistry, Server, ServerConfig};
    use iqs_shard::{ShardConfig, ShardedService, SHARD_INDEX};
    use iqs_slo::{ClusterTelemetry, Objective, SloEngine, SloKey, TelemetryShipper};
    use iqs_testkit::VirtualClock;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    // CI sets E24_SMOKE=1 to run the same code with short loops.
    let smoke = std::env::var("E24_SMOKE").is_ok();
    let rounds = if smoke { 8 } else { 120 };
    let queries_per_round = if smoke { 10 } else { 50 };
    let s = 16u32;
    let cuts: [(usize, usize); 3] = [(0, 341), (341, 682), (682, 1024)];
    let elements: Vec<(u64, f64, f64)> =
        (0..1024).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect();

    println!("E24  telemetry plane — shipping overhead A/B + burn detection latency");
    println!(
        "     3 remote shards over SimNet, {rounds} rounds x {queries_per_round} queries, s = {s}"
    );

    // Replica-side phases that reach the router only via telemetry.
    fn ships(r: &Record) -> bool {
        r.replica().is_some()
            && matches!(
                r.phase,
                Phase::Enqueue
                    | Phase::Pickup
                    | Phase::DeadlineMiss
                    | Phase::RngCost
                    | Phase::WorkDone
                    | Phase::ColdDraw
            )
    }

    // Part A — the same scripted workload under three regimes: flight
    // recorder disabled ("off"), recorder on with a per-round drain but
    // nothing shipped ("record"), and recorder on plus a per-round
    // fold-and-ship of every replica's records and metric diffs
    // ("ship"). The workload is deterministic on the virtual clock;
    // only the wall time differs — the off/record gap prices the
    // recorder, the record/ship gap prices the telemetry plane itself.
    #[derive(Clone, Copy, PartialEq)]
    enum Arm {
        Off,
        Record,
        Ship,
    }
    let arm = |mode: Arm| -> (f64, u64) {
        let clock = VirtualClock::new();
        recorder::install(&clock.handle(), 1 << 16);
        if mode == Arm::Off {
            recorder::disable();
        }
        let net = SimNet::new(clock.handle());
        let registry = Arc::new(ServiceRegistry::new(clock.handle()));
        net.bind("sim://registry", Arc::new(RegistryHandler::new(Arc::clone(&registry))));
        let collector = Arc::new(Mutex::new(ClusterTelemetry::new(1 << 16).expect("config")));
        net.bind("sim://telemetry", Arc::new(TelemetryHandler::new(Arc::clone(&collector))));
        let transport = net.transport();
        let mut servers = Vec::new();
        for (si, &(a, b)) in cuts.iter().enumerate() {
            let mut indexes = IndexRegistry::new();
            indexes.register_range_keyed(SHARD_INDEX, elements[a..b].to_vec()).unwrap();
            let server = Server::start(
                indexes,
                ServerConfig {
                    workers: 1,
                    queue_capacity: 256,
                    seed: 24 + si as u64,
                    clock: clock.handle(),
                    ..ServerConfig::default()
                },
            );
            let total = server.registry().total_weight(SHARD_INDEX).unwrap();
            let addr = format!("sim://s{si}r0");
            net.bind(&addr, Arc::new(ReplicaServer::new(server.client(), clock.handle())));
            announce_once(
                &*transport,
                "sim://registry",
                &Announce {
                    addr,
                    lo_key: a as f64,
                    hi_key: (b - 1) as f64,
                    total_weight: total,
                    epoch: 1,
                    ttl_ms: 3_600_000,
                },
                clock.handle().now() + Duration::from_secs(1),
            )
            .expect("announce");
            servers.push(server);
        }
        let svc = ShardedService::from_links(
            shard_specs(&registry, &transport),
            ShardConfig { seed: 240, clock: clock.handle(), ..ShardConfig::default() },
        )
        .expect("remote topology");
        let mut shippers: Vec<TelemetryShipper> = (0..cuts.len())
            .map(|si| {
                TelemetryShipper::new(&format!("sim://s{si}r0"), si as u32, 0, 1 << 14).unwrap()
            })
            .collect();
        let mut client = svc.client();
        let start = Instant::now();
        for _ in 0..rounds {
            for _ in 0..queries_per_round {
                let drawn = client.sample_wr(None, s).expect("read");
                assert_eq!(drawn.missing, 0);
            }
            clock.advance(Duration::from_secs(1));
            if mode != Arm::Off {
                let drained = recorder::drain();
                if mode == Arm::Ship {
                    for (si, shipper) in shippers.iter_mut().enumerate() {
                        let mine: Vec<Record> = drained
                            .iter()
                            .filter(|r| ships(r) && r.shard() == Some(si as u32))
                            .copied()
                            .collect();
                        shipper.absorb(&mine);
                        let batch = shipper.next_batch(&servers[si].metrics()).expect("monotone");
                        ship_telemetry(
                            &*transport,
                            "sim://telemetry",
                            &batch,
                            clock.handle().now() + Duration::from_secs(1),
                        )
                        .expect("collector reachable");
                        shipper.commit();
                    }
                }
            }
        }
        let ns_per_query = start.elapsed().as_nanos() as f64 / (rounds * queries_per_round) as f64;
        recorder::disable();
        let batches = collector.lock().unwrap().stats().batches;
        (ns_per_query, batches)
    };
    let (off_ns, off_batches) = arm(Arm::Off);
    let (rec_ns, rec_batches) = arm(Arm::Record);
    let (ship_ns, ship_batches) = arm(Arm::Ship);
    assert_eq!(off_batches, 0);
    assert_eq!(rec_batches, 0);
    assert_eq!(ship_batches, (rounds * cuts.len()) as u64);
    println!("\n  per-query wall clock (whole loop incl. drain/fold/encode/ship):");
    println!("{:>10} {:>14} {:>10} {:>12}", "telemetry", "ns/query", "batches", "vs off");
    for (name, ns, batches) in [
        ("off", off_ns, off_batches),
        ("record", rec_ns, rec_batches),
        ("ship", ship_ns, ship_batches),
    ] {
        println!(
            "{:>10} {:>14.0} {:>10} {:>+11.1}%",
            name,
            ns,
            batches,
            (ns / off_ns - 1.0) * 100.0
        );
        csv_row(
            "e24_telemetry.csv",
            "arm,rounds,queries_per_round,s,ns_per_query,batches",
            &format!("{name},{rounds},{queries_per_round},{s},{ns:.0},{batches}"),
        );
    }
    println!(
        "  recorder costs {:+.1}%; shipping itself adds {:+.1}% on top",
        (rec_ns / off_ns - 1.0) * 100.0,
        (ship_ns / rec_ns - 1.0) * 100.0
    );

    // Part B — burn detection latency: a healthy stream turns bad at a
    // known tick; how many virtual-clock ticks until the multi-window
    // engine alerts? Deterministic — exact bad counts, no RNG.
    println!("\n  burn detection latency (objective: 1 ms at 90%, fast 2s/x2.0, slow 6s/x1.0):");
    println!("{:>12} {:>16}", "bad fraction", "ticks to alert");
    let regress_tick = 6usize;
    let per_tick = 1000usize;
    for bad_pct in [2usize, 10, 25, 50] {
        let vc = VirtualClock::new();
        let mut engine = SloEngine::new(&vc.handle());
        let key = SloKey::Shard(0);
        engine
            .set_objective(
                key.clone(),
                Objective {
                    threshold: Duration::from_millis(1),
                    target: 0.9,
                    fast_window: Duration::from_secs(2),
                    slow_window: Duration::from_secs(6),
                    fast_burn: 2.0,
                    slow_burn: 1.0,
                },
            )
            .unwrap();
        let mut cumulative = HistogramSnapshot::default();
        let good = iqs_obs::log2_bucket(100_000); // 0.1 ms: under threshold
        let bad = iqs_obs::log2_bucket(5_000_000); // 5 ms: over threshold
        let mut detected = None;
        for tick in 0..30usize {
            let bad_n = if tick >= regress_tick { per_tick * bad_pct / 100 } else { 0 };
            cumulative.buckets[good] += (per_tick - bad_n) as u64;
            cumulative.buckets[bad] += bad_n as u64;
            engine.observe(&key, cumulative);
            if engine.evaluate().unwrap().shard_status(0).unwrap().alerting {
                detected = Some(tick - regress_tick);
                break;
            }
            vc.advance(Duration::from_secs(1));
        }
        let shown = detected.map_or("never".into(), |t| format!("{t}"));
        println!("{:>11}% {:>16}", bad_pct, shown);
        csv_row(
            "e24_burn_detection.csv",
            "bad_pct,per_tick,ticks_to_alert",
            &format!("{bad_pct},{per_tick},{}", detected.map_or(-1, |t| t as i64)),
        );
    }
    println!(
        "\n  E24 claim: against ~24 us in-process scatter queries, the flight recorder costs\n  \
         ~40% and the per-round fold/encode/ship path ~25% more — roughly 10 us per query\n  \
         each, a fixed CPU cost that would be noise against a real network round-trip but\n  \
         is an honest double-digit tax on this function-call fabric. Detection latency is\n  \
         budget-relative: a 2% bad fraction stays inside the 10% error budget and never\n  \
         alerts, 10% burns at exactly 1x (under the 2x fast line) and also never alerts,\n  \
         while fractions past the fast-burn line alert 1-2 virtual-clock ticks after the\n  \
         regression. Caveats: 1-vCPU runner wall times are noisy run to run; the\n  \
         detection table is exact (virtual clock, no RNG) and replays byte-identically.\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_arm_names_are_rejected_not_skipped() {
        let args = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        assert_eq!(select(&args(&[])).unwrap().len(), ARMS.len());
        assert_eq!(select(&args(&["e3", "e4", "f1"])).unwrap().len(), 2);
        assert_eq!(select(&args(&["e9", "e99"])), Err("e99"));
        assert_eq!(select(&args(&["e20"])), Err("e20"), "retired arms are unknown too");
    }
}
