//! The experiment harness: regenerates every table of the reproduction
//! (DESIGN.md §2, recorded in EXPERIMENTS.md).
//!
//! Usage:
//!   cargo run -p iqs-bench --release --bin harness            # all
//!   cargo run -p iqs-bench --release --bin harness -- e1 f2   # subset
//!
//! Each experiment prints its tables and writes them to `results/*.csv`
//! (one file per table, written afresh by each run).

use iqs_alias::space::SpaceUsage;
use iqs_alias::{AliasTable, CdfSampler, DynamicAlias};
use iqs_bench::{
    clustered_points2, keyed_weights, overlapping_sets, time_ns, uniform_points2, uniform_points3,
    Col, Table, Weights,
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

/// One experiment: the argument names that select it, the title the
/// runner prints before it and the claim it prints after, and the body
/// that prints the tables in between.
struct Arm {
    names: &'static [&'static str],
    title: &'static str,
    claim: &'static str,
    run: fn(),
}

/// Every arm, in the order a bare `harness` runs them.
const ARMS: &[Arm] = &[
    Arm {
        names: &["e1"],
        title: "E1  Theorem 1 — alias method vs inverse-CDF baseline",
        claim: "alias per-sample flat in n; CDF grows ~log n; both builds linear.",
        run: e1_alias,
    },
    Arm {
        names: &["e2"],
        title: "E2  §3.2 tree sampling vs Lemma 4 (SubtreeSampler)",
        claim: "descend grows with log n; Lemma-4 flat; pieces/n bounded (O(n) space).",
        run: e2_tree_sampling,
    },
    Arm {
        names: &["e3", "e4"],
        title: "E3/E4  1-D weighted range sampling — three structures",
        claim: "Lemma2/Thm3 ~O(log n + s); §3.2 pays log n per sample; \
                Thm3 space linear, Lemma2 space n log n.",
        run: e3_e4_range1d,
    },
    Arm {
        names: &["e5"],
        title: "E5  Theorem 5 @ kd-tree (2-D) vs report-then-sample, s = 64",
        claim: "IQS flat in |S_q|; report linear; cover ~ n^(1-1/d).",
        run: e5_kdtree,
    },
    Arm {
        names: &["e6"],
        title: "E6  Theorem 5 @ range tree vs kd-tree, s = 64",
        claim: "rt cover ~log² n ≪ kd cover ~√n; rt space ~n log n ≫ kd space ~n.",
        run: e6_rangetree,
    },
    Arm {
        names: &["e7"],
        title: "E7  complement sampling — approx cover (≤2, Cor 7) vs exact covers (Θ(log n))",
        claim: "approx-cover query is O(s) with no log-n term; wins at small s.",
        run: e7_approx_cover,
    },
    Arm {
        names: &["e8"],
        title: "E8  Theorem 8 — set-union sampling vs naive union materialization",
        claim: "IQS ~g·log² n per sample (flat in Σ|S_i|); naive ~Σ|S_i|.",
        run: e8_setunion,
    },
    Arm {
        names: &["e9"],
        title: "E9  §8 EM set sampling — I/Os per query (n = 2^20)",
        claim: "pool ~s/B amortized (ratio ~B); naive ~s — the Hu et al. lower-bound shape.",
        run: e9_em_set,
    },
    Arm {
        names: &["e10"],
        title: "E10  §8 EM range sampling — I/Os per query (n = 2^20, B = 256)",
        claim: "pool ~log + s/B amortized; random access ~s; report ~|S_q|/B.",
        run: e10_em_range,
    },
    Arm {
        names: &["e11"],
        title: "E11  dynamic alias — expected O(1) ops under updates",
        claim: "all dynamic ops flat in n; static rebuild linear in n.",
        run: e11_dynamic_alias,
    },
    Arm {
        names: &["f1"],
        title: "F1  repeated-identical-query overlap test (k = 400, s = 20, 1000 rounds)",
        claim: "IQS overlap ≈ s²/k = 1.0; dependent = s = 20.",
        run: f1_independence,
    },
    Arm {
        names: &["f2"],
        title: "F2  estimation-error concentration over m = 1500 estimates (ε=.02, δ=.3)",
        claim: "IQS runs ~log-length, counts concentrated; dependence makes runs of m/30.",
        run: f2_concentration,
    },
    Arm {
        names: &["f3"],
        title: "F3  exposure fairness over 10 000 identical inquiries (s = 10)",
        claim: "IQS shows every in-range element about equally often; the dependent \
                sampler shows the same s elements every time.",
        run: f3_fairness,
    },
    Arm {
        names: &["f4"],
        title: "F4  IQS vs report-then-sample crossover (s = 16, n = 2^20)",
        claim: "report cost grows with |S_q|; IQS flat; IQS wins from small |S_q| on.",
        run: f4_crossover,
    },
    Arm {
        names: &["e12"],
        title: "E12  dynamized range sampling (Bentley–Saxe over Theorem-3 levels)",
        claim: "amortized polylog updates; queries within a small factor of static.",
        run: e12_dynamic_range,
    },
    Arm {
        names: &["e13"],
        title: "E13  weighted WoR: rejection vs A-Res vs A-ExpJ (n = 2^18, |S_q| = 2^17)",
        claim: "A-Res pays |S_q| regardless of s; rejection is fast for small s but \
                stalls near s = |S_q|; A-ExpJ is robust everywhere.",
        run: e13_wor_methods,
    },
    Arm {
        names: &["a1"],
        title: "A1  Theorem-3 chunk-length ablation (n = 2^18, s = 64)",
        claim:
            "tiny chunks inflate T_chunk space (n log n regime); huge chunks slow the\n         \
                boundary scans; c = Θ(log n) sits at the joint optimum.",
        run: a1_chunk_len_ablation,
    },
    Arm {
        names: &["a2"],
        title: "A2  KMV sketch-capacity ablation (distinct count = 100 000)",
        claim: "rel. error ~1/sqrt(k); k = 64 (the sampler default) is safely inside the band.",
        run: a2_sketch_k_ablation,
    },
    Arm {
        names: &["a3"],
        title: "A3  kd-tree leaf-capacity ablation (n = 2^16, s = 64)",
        claim: "small caps grow the arena; large caps grow boundary covers; 4-32 is flat.",
        run: a3_leaf_cap_ablation,
    },
    Arm {
        names: &["e14"],
        title: "E14  generic regions: halfplane + disc (exact kd covers vs approx quadtree)",
        claim: "exact covers enumerate boundary leaves (bigger covers, no rejection); the\n  \
                approximate route keeps covers small and pays expected-constant rejection instead.",
        run: e14_regions,
    },
    Arm {
        names: &["e15"],
        title: "E15  Direction 2 — weighted EM range sampling (open problem; amortized shape)",
        claim: "(conjectured target) ~log + s/B amortized, same shape as the WR structure;\n  \
                the worst case is the paper's open problem.",
        run: e15_em_weighted,
    },
    Arm {
        names: &["e16"],
        title: "E16  batched vs sequential sampling (n = 2^20, query = [10%, 90%])",
        claim: "none from the paper (engineering experiment) — the batch door allocates\n  \
                nothing per query and should not lose to the sequential one from s = 16 up.",
        run: e16_batch_throughput,
    },
];

/// The arms `args` select (every arm when none is named), or the first
/// argument that names none.
fn select(args: &[String]) -> Result<Vec<&'static Arm>, &str> {
    let named = |arm: &Arm, arg: &String| arm.names.contains(&arg.as_str());
    if let Some(unknown) = args.iter().find(|a| !ARMS.iter().any(|arm| named(arm, a))) {
        return Err(unknown);
    }
    Ok(ARMS.iter().filter(|arm| args.is_empty() || args.iter().any(|a| named(arm, a))).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let arms = select(&args).unwrap_or_else(|unknown| {
        let valid: Vec<&str> = ARMS.iter().flat_map(|arm| arm.names.iter().copied()).collect();
        eprintln!("unknown experiment `{unknown}`; valid names: {}", valid.join(" "));
        std::process::exit(2);
    });

    println!("IQS experiment harness (Tao, PODS 2022 reproduction)");
    println!("====================================================\n");

    for arm in arms {
        println!("{}", arm.title);
        (arm.run)();
        println!("  claim: {}\n", arm.claim);
    }
}

fn e1_alias() {
    let mut table = Table::new(
        "e1_alias.csv",
        &[
            Col::new("n", 10).csv("n"),
            Col::new("alias build", 14).unit(" us").csv("build_us"),
            Col::new("alias ns/samp", 14).prec(1).csv("alias_ns"),
            Col::new("cdf ns/samp", 14).prec(1).csv("cdf_ns"),
            Col::new("cdf/alias", 14).prec(1).unit("x"),
        ],
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
        let a_ns = time_ns(|| alias.sample(&mut rng), 20_000, 5);
        let c_ns = time_ns(|| cdf.sample(&mut rng), 20_000, 5);
        table.row(&[&n, &build_us, &a_ns, &c_ns, &(c_ns / a_ns)]);
    }
}

fn e2_tree_sampling() {
    let mut table = Table::new(
        "e2_tree_sampling.csv",
        &[
            Col::new("n", 10).csv("n"),
            Col::new("descend ns/s", 14).prec(1).csv("descend_ns"),
            Col::new("lemma4 ns/samp", 16).prec(1).csv("lemma4_ns"),
            Col::new("pieces/n", 12).prec(2).csv_prec("pieces_per_n", 3),
            Col::new("space ratio", 12).prec(2).csv_prec("space_ratio", 3),
        ],
    );
    let mut rng = StdRng::seed_from_u64(2);
    for exp in [10u32, 12, 14, 16, 18] {
        let n = 1usize << exp;
        let tree = Tree::random(n, 4, &mut rng);
        let ts = TreeSampler::new(tree.clone());
        let sub = SubtreeSampler::new(&tree);
        let t_ns = time_ns(|| ts.sample_leaf(0, &mut rng), 10_000, 5);
        let s_ns = time_ns(|| sub.sample_leaf(0, &mut rng), 10_000, 5);
        let pieces = sub.total_pieces() as f64 / n as f64;
        let ratio = sub.space_words() as f64 / ts.space_words() as f64;
        table.row(&[&n, &t_ns, &s_ns, &pieces, &ratio]);
    }
}

fn e3_e4_range1d() {
    let mut table = Table::new(
        "e3_e4_range1d.csv",
        &[
            Col::new("n", 9).csv("n"),
            Col::new("s", 5).csv("s"),
            Col::new("tree us/q", 11).prec(1).csv_prec("tree_us", 2),
            Col::new("lem2 us/q", 11).prec(1).csv_prec("lemma2_us", 2),
            Col::new("thm3 us/q", 11).prec(1).csv_prec("thm3_us", 2),
            Col::new("tree words", 12).csv("tree_words"),
            Col::new("lem2 words", 12).csv("lemma2_words"),
            Col::new("thm3 words", 12).csv("thm3_words"),
        ],
    );
    let mut rng = StdRng::seed_from_u64(3);
    for exp in [14u32, 16, 18, 20] {
        let n = 1usize << exp;
        let tree = TreeSamplingRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let lem2 = AliasAugmentedRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let thm3 = ChunkedRange::new(keyed_weights(n, Weights::Uniform, 30)).unwrap();
        let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
        let words = [tree.space_words(), lem2.space_words(), thm3.space_words()];
        for s in [1usize, 16, 256, 4096] {
            let t = time_ns(|| tree.sample_wr(x, y, s, &mut rng).unwrap(), 20, 5) / 1e3;
            let l = time_ns(|| lem2.sample_wr(x, y, s, &mut rng).unwrap(), 20, 5) / 1e3;
            let c = time_ns(|| thm3.sample_wr(x, y, s, &mut rng).unwrap(), 20, 5) / 1e3;
            table.row(&[&n, &s, &t, &l, &c, &words[0], &words[1], &words[2]]);
        }
    }
}

fn e5_kdtree() {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 1 << 17;
    let pts = uniform_points2(n, 50);
    let kd = CoverageSampler::new(KdTree::with_unit_weights(pts.clone()).unwrap());
    let mut table = Table::new(
        "e5_kdtree.csv",
        &[
            Col::csv_only("n"),
            Col::csv_only("side"),
            Col::new("|S_q|", 10).csv("count"),
            Col::new("cover", 9).csv("cover"),
            Col::csv_only("s"),
            Col::new("IQS us/q", 13).prec(1).csv_prec("iqs_us", 2),
            Col::new("report us/q", 15).prec(1).csv_prec("report_us", 2),
        ],
    );
    let s = 64usize;
    for side in [0.02f64, 0.05, 0.1, 0.2, 0.4, 0.8] {
        let q: Rect<2> =
            Rect::new([0.5 - side / 2.0, 0.5 - side / 2.0], [0.5 + side / 2.0, 0.5 + side / 2.0]);
        let count = kd.count(&q);
        if count == 0 {
            continue;
        }
        let cover = kd.index().cover(&q).len();
        let iqs_us = time_ns(|| kd.sample_wr(&q, s, &mut rng).unwrap(), 20, 5) / 1e3;
        let report = || {
            let all = kd.index().report(&q);
            all[rng.random_range(0..all.len())]
        };
        let rep_us = time_ns(report, 20, 5) / 1e3;
        table.row(&[&n, &side, &count, &cover, &s, &iqs_us, &rep_us]);
    }

    println!("  cover-size scaling on full-height strips:");
    let mut table = Table::new(
        "e5_cover_scaling.csv",
        &[
            Col::new("n", 10).csv("n"),
            Col::new("2D cover", 12).csv("cover2d"),
            Col::new("cover/sqrt n", 14).prec(2),
            Col::new("3D cover", 12).csv("cover3d"),
            Col::new("cover/n^2/3", 14).prec(2),
        ],
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
        let (per_sqrt, per_two_thirds) =
            (c2 as f64 / (n as f64).sqrt(), c3 as f64 / (n as f64).powf(2.0 / 3.0));
        table.row(&[&n, &c2, &per_sqrt, &c3, &per_two_thirds]);
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
}

fn e6_rangetree() {
    let mut table = Table::new(
        "e6_rangetree.csv",
        &[
            Col::new("n", 9).csv("n"),
            Col::new("rt cover", 9).csv("rt_cover"),
            Col::new("kd cover", 9).csv("kd_cover"),
            Col::new("rt us/q", 12).prec(1).csv_prec("rt_us", 2),
            Col::new("kd us/q", 12).prec(1).csv_prec("kd_us", 2),
            Col::new("rt space", 15).csv("rt_words"),
            Col::new("kd space", 13).csv("kd_words"),
        ],
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
        let rt_us = time_ns(|| rt.sample_wr(&q, s, &mut rng).unwrap(), 20, 5) / 1e3;
        let kd_us = time_ns(|| kd.sample_wr(&q, s, &mut rng).unwrap(), 20, 5) / 1e3;
        let (rt_words, kd_words) = (rt.space_words(), kd.space_words());
        table.row(&[&n, &rt_cover, &kd_cover, &rt_us, &kd_us, &rt_words, &kd_words]);
    }
}

fn e7_approx_cover() {
    let mut table = Table::new(
        "e7_approx.csv",
        &[
            Col::new("n", 9).csv("n"),
            Col::new("s", 5).csv("s"),
            Col::new("approx us/q", 16).prec(2).csv("approx_us"),
            Col::new("exact us/q", 16).prec(2).csv("exact_us"),
        ],
    );
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
            let a_us = time_ns(|| comp.sample_wr(x, y, s, &mut rng).unwrap(), 50, 5) / 1e3;
            let two_queries = || {
                let w_pre = a as f64;
                let w_suf = (n - b) as f64;
                let mut s1 = 0;
                for _ in 0..s {
                    if rng.random::<f64>() * (w_pre + w_suf) < w_pre {
                        s1 += 1;
                    }
                }
                let pre = (s1 > 0)
                    .then(|| exact.sample_wr(f64::NEG_INFINITY, pre_hi, s1, &mut rng).unwrap());
                let suf = (s - s1 > 0)
                    .then(|| exact.sample_wr(suf_lo, f64::INFINITY, s - s1, &mut rng).unwrap());
                (pre, suf)
            };
            let e_us = time_ns(two_queries, 50, 5) / 1e3;
            table.row(&[&n, &s, &a_us, &e_us]);
        }
    }
}

fn e8_setunion() {
    let mut table = Table::new(
        "e8_setunion.csv",
        &[
            Col::new("g", 5).csv("g"),
            Col::new("Σ|S_i|", 10).csv("total"),
            Col::new("|∪G|", 12).csv("union"),
            Col::new("IQS us/samp", 14).prec(1).csv_prec("iqs_us", 2),
            Col::new("naive us/samp", 14).prec(1).csv_prec("naive_us", 2),
            Col::new("chi² p", 10).prec(3).csv_prec("p", 4),
        ],
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
        let iqs_us = time_ns(|| sampler.sample(&g, &mut rng).unwrap(), 30, 5) / 1e3;
        let naive_us = time_ns(|| naive_union_sample(&family, &g, &mut rng).unwrap(), 5, 3) / 1e3;
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
        table.row(&[&g_size, &total, &union, &iqs_us, &naive_us, &gof.p_value]);
    }
}

fn e9_em_set() {
    let mut table = Table::new(
        "e9_em_set.csv",
        &[
            Col::new("B", 6).csv("B"),
            Col::new("s", 8).csv("s"),
            Col::new("pool I/Os", 14).csv("pool_ios"),
            Col::new("naive I/Os", 14).csv("naive_ios"),
            Col::new("ratio", 9).prec(1).unit("x"),
        ],
    );
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
            table.row(&[&b, &s, &p_ios, &n_ios, &(n_ios as f64 / p_ios.max(1) as f64)]);
        }
    }
}

fn e10_em_range() {
    let mut table = Table::new(
        "e10_em_range.csv",
        &[
            Col::new("s", 8).csv("s"),
            Col::new("|S_q|", 12).csv("count"),
            Col::new("pool I/Os", 14).csv("pool_ios"),
            Col::new("rand-acc I/Os", 14).csv("randacc_ios"),
            Col::new("report+sample I/Os", 18).csv("report_ios"),
        ],
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
        table.row(&[&s, &((y - x) as usize), &p_ios, &r_ios, &rep_ios]);
    }
}

fn e11_dynamic_alias() {
    let mut table = Table::new(
        "e11_dynamic.csv",
        &[
            Col::new("n", 10).csv("n"),
            Col::new("sample ns", 14).prec(1).csv("sample_ns"),
            Col::new("insert ns", 14).prec(1).csv("insert_ns"),
            Col::new("remove ns", 14).prec(1).csv("remove_ns"),
            Col::new("static rebuild us", 18).prec(1).csv("rebuild_us"),
        ],
    );
    let mut rng = StdRng::seed_from_u64(11);
    for exp in [12u32, 14, 16, 18, 20] {
        let n = 1usize << exp;
        let mut d = DynamicAlias::new();
        for i in 0..n as u64 {
            d.insert(i, 0.1 + rng.random::<f64>() * 100.0).unwrap();
        }
        let s_ns = time_ns(|| d.sample(&mut rng).unwrap(), 20_000, 5);
        let mut next_id = n as u64;
        let insert = || {
            d.insert(next_id, 1.0 + (next_id % 97) as f64).unwrap();
            next_id += 1;
        };
        let i_ns = time_ns(insert, 5_000, 3);
        let mut rm_id = n as u64;
        let remove = || {
            d.remove(rm_id);
            rm_id += 1;
        };
        let r_ns = time_ns(remove, 5_000, 3);
        let weights: Vec<f64> = (0..n).map(|_| 0.1 + rng.random::<f64>()).collect();
        let rebuild_us = time_ns(|| AliasTable::new(&weights).unwrap().len(), 3, 3) / 1e3;
        table.row(&[&n, &s_ns, &i_ns, &r_ns, &rebuild_us]);
    }
}

fn f1_independence() {
    let mut table = Table::new(
        "f1_independence.csv",
        &[
            Col::new("structure", 12).csv("structure"),
            Col::new("mean overlap", 15).prec(2).csv_prec("mean_overlap", 3),
            Col::new("independent E", 15).prec(2).csv_prec("expected", 3),
            Col::new("verdict", 10),
        ],
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
        let verdict = if rep.looks_independent(0.35) { "PASS" } else { "FAIL" };
        table.row(&[name, &rep.mean_overlap, &rep.expected_independent, &verdict]);
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
    let verdict = if rep.looks_independent(0.35) { "PASS" } else { "FAIL (by design)" };
    table.row(&[&"dependent", &rep.mean_overlap, &rep.expected_independent, &verdict]);
}

fn f2_concentration() {
    let mut table = Table::new(
        "f2_concentration.csv",
        &[
            Col::new("regime", 11).csv("regime"),
            Col::new("failures", 9).csv("failures"),
            Col::new("of m", 6),
            Col::new("rate", 7).prec(3),
            Col::new("longest run", 12).csv("longest_run"),
            Col::new("block var", 10).prec(2).csv_prec("block_var", 3),
        ],
    );
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
    let mut emit = |regime: &str, runs: ErrorRuns| {
        table.row(&[
            &regime,
            &runs.failure_count(),
            &m,
            &runs.failure_rate(),
            &runs.longest_failure_run(),
            &runs.block_count_variance(30),
        ]);
    };
    emit("iqs", ErrorRuns::new(fails));
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
    emit("dependent", ErrorRuns::new(dep_fails));
}

fn f3_fairness() {
    let mut table = Table::new(
        "f3_fairness.csv",
        &[
            Col::new("regime", 11).csv("regime"),
            Col::new("shown", 7).csv("shown"),
            Col::new("of", 6).csv("of"),
            Col::new("chi²", 10).prec(0).csv_prec("chi2", 1),
            Col::new("p", 11).csv("p"),
            Col::new("verdict", 8),
        ],
    );
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
        let verdict = if gof.consistent_at(1e-6) { "FAIR" } else { "UNFAIR" };
        let p = format!("{:.3e}", gof.p_value);
        table.row(&[&name, &shown, &k, &gof.statistic, &p, &verdict]);
    }
}

fn f4_crossover() {
    let mut table = Table::new(
        "f4_crossover.csv",
        &[
            Col::new("|S_q|", 12).csv("count"),
            Col::new("IQS us/q", 13).prec(2).csv_prec("iqs_us", 3),
            Col::new("report us/q", 15).prec(2).csv_prec("report_us", 3),
            Col::new("winner", 9),
        ],
    );
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
        let i_us = time_ns(|| iqs.sample_wr(x, y, s, &mut rng).unwrap(), 50, 5) / 1e3;
        let r_us = time_ns(|| rep.sample_wr(x, y, s, &mut rng).unwrap(), 10, 5) / 1e3;
        table.row(&[&count, &i_us, &r_us, &if i_us < r_us { "IQS" } else { "report" }]);
    }
}

fn e12_dynamic_range() {
    let mut table = Table::new(
        "e12_dynamic_range.csv",
        &[
            Col::new("n", 10).csv("n"),
            Col::new("insert us", 12).prec(2).csv_prec("insert_us", 3),
            Col::new("remove us", 12).prec(2).csv_prec("remove_us", 3),
            Col::new("query us", 13).prec(1).csv_prec("query_us", 2),
            Col::new("static q us", 14).prec(1).csv_prec("static_query_us", 2),
        ],
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
        let q_us = time_ns(|| d.sample_wr(x, y, s, &mut rng).unwrap(), 20, 5) / 1e3;
        let sq_us = time_ns(|| static_s.sample_wr(x, y, s, &mut rng).unwrap(), 20, 5) / 1e3;
        // Interleave deletes.
        let del_start = std::time::Instant::now();
        let dels = n / 4;
        for i in 0..dels as u64 {
            d.remove(i * 2);
        }
        let remove_us = del_start.elapsed().as_micros() as f64 / dels as f64;
        table.row(&[&n, &insert_us, &remove_us, &q_us, &sq_us]);
    }
}

fn e13_wor_methods() {
    let mut table = Table::new(
        "e13_wor.csv",
        &[
            Col::new("s", 9).csv("s"),
            Col::new("rejection us", 15).prec(1).csv_prec("rejection_us", 2),
            Col::new("A-Res us", 14).prec(1).csv_prec("ares_us", 2),
            Col::new("A-ExpJ us", 14).prec(1).csv_prec("expj_us", 2),
        ],
    );
    let mut rng = StdRng::seed_from_u64(130);
    let n = 1usize << 18;
    let pairs = keyed_weights(n, Weights::Uniform, 131);
    let chunked = ChunkedRange::new(pairs.clone()).unwrap();
    let expj = ExpJumpWor::new(pairs).unwrap();
    let (x, y) = (n as f64 * 0.25, n as f64 * 0.75);
    let (a, b) = chunked.rank_range(x, y);
    let range_weights: Vec<f64> = chunked.weights()[a..b].to_vec();
    for s in [16usize, 256, 4096, 65_536, b - a - 1] {
        // Rejection WoR stalls when s approaches |S_q|: cap the timing
        // effort there and mark it.
        let rej_us = if s * 2 <= b - a {
            time_ns(|| chunked.sample_wor(x, y, s, &mut rng).unwrap(), 5, 3) / 1e3
        } else {
            f64::NAN // coupon-collector regime: skipped
        };
        let a_res = || iqs_alias::wor::a_res_weighted_wor(&range_weights, s, &mut rng);
        let ares_us = time_ns(a_res, 5, 3) / 1e3;
        let expj_us = time_ns(|| expj.sample_wor(x, y, s, &mut rng).unwrap(), 5, 3) / 1e3;
        table.row(&[&s, &rej_us, &ares_us, &expj_us]);
    }
}

fn a1_chunk_len_ablation() {
    let mut table = Table::new(
        "a1_chunk_len.csv",
        &[
            Col::new("chunk c", 10).csv("chunk"),
            Col::new("space words", 14).csv("space_words"),
            Col::new("query us", 13).prec(2).csv_prec("query_us", 3),
        ],
    );
    let mut rng = StdRng::seed_from_u64(140);
    let n = 1usize << 18;
    let log_n = 18usize;
    for factor in [1usize, 4, 16, 64, 256] {
        let c = (log_n * factor) / 4; // c ∈ {4.5, 18, 72, …} ≈ {¼, 1, 4, 16, 64}·log n
        let sampler =
            ChunkedRange::with_chunk_len(keyed_weights(n, Weights::Uniform, 141), c.max(1))
                .unwrap();
        let (x, y) = (n as f64 * 0.1, n as f64 * 0.9);
        let q_us = time_ns(|| sampler.sample_wr(x, y, 64, &mut rng).unwrap(), 20, 5) / 1e3;
        table.row(&[&c, &sampler.space_words(), &q_us]);
    }
}

fn a2_sketch_k_ablation() {
    let mut table = Table::new(
        "a2_sketch_k.csv",
        &[
            Col::new("k", 8).csv("k"),
            Col::new("mean |rel err|", 16).prec(4).csv("mean_rel_err"),
            Col::new("within [Û/2,1.5Û] %", 18).prec(0).unit("%").csv("within_band_pct"),
        ],
    );
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
        table.row(&[&k, &abs_err, &(100.0 * within as f64 / trials as f64)]);
    }
}

fn a3_leaf_cap_ablation() {
    let mut table = Table::new(
        "a3_leaf_cap.csv",
        &[
            Col::new("leaf cap", 10).csv("cap"),
            Col::new("nodes", 10).csv("nodes"),
            Col::new("cover", 10).csv("cover"),
            Col::new("query us", 13).prec(2).csv_prec("query_us", 3),
        ],
    );
    let mut rng = StdRng::seed_from_u64(150);
    let n = 1usize << 16;
    let pts = uniform_points2(n, 151);
    let q: Rect<2> = Rect::new([0.2, 0.3], [0.8, 0.7]);
    for cap in [1usize, 4, 8, 32, 128, 512] {
        let kd =
            CoverageSampler::new(KdTree::with_leaf_cap(pts.clone(), vec![1.0; n], cap).unwrap());
        let cover = kd.index().cover(&q).len();
        let q_us = time_ns(|| kd.sample_wr(&q, 64, &mut rng).unwrap(), 20, 5) / 1e3;
        table.row(&[&cap, &kd.index().node_count(), &cover, &q_us]);
    }
}

/// Theorem 5 beyond rectangles: halfspace and disc predicates, exact kd
/// covers vs the Theorem-6 approximate quadtree route.
fn e14_regions() {
    println!("  halfplane x + 2y <= c sweep (param c, exact kd covers), then a disc radius sweep");
    println!("  (param r): exact kd cover vs the approximate quadtree cover of Theorem 6.");
    let mut table = Table::new(
        "e14_regions.csv",
        &[
            Col::new("kind", 10).csv("kind"),
            Col::new("param", 8).csv("param"),
            Col::new("|S_q|", 10).csv("count"),
            Col::new("cover", 10).csv("cover"),
            Col::new("IQS us/q", 13).prec(1).csv_prec("us", 2),
        ],
    );
    let mut rng = StdRng::seed_from_u64(160);
    let n = 1usize << 16;
    let pts = uniform_points2(n, 161);
    let kd = CoverageSampler::new(KdTree::with_unit_weights(pts.clone()).unwrap());
    let qt = ApproxCoverageSampler::new(QuadTree::with_unit_weights(pts.clone()).unwrap());
    let s = 64usize;

    for c in [0.3f64, 0.8, 1.5, 2.4] {
        let h = HalfSpace::new([1.0, 2.0], c);
        let count = kd.region_count(&h);
        if count == 0 {
            continue;
        }
        let cover = kd.region_cover(&h).len();
        let us = time_ns(|| kd.sample_region_wr(&h, s, &mut rng).unwrap(), 20, 5) / 1e3;
        table.row(&[&"halfplane", &c, &count, &cover, &us]);
    }

    for r in [0.05f64, 0.1, 0.2, 0.4] {
        let d = Disc::new([0.5, 0.5].into(), r);
        let count = kd.region_count(&d);
        if count == 0 {
            continue;
        }
        let kd_cover = kd.region_cover(&d).len();
        let q: (iqs_spatial::Point<2>, f64) = ([0.5, 0.5].into(), r);
        let qt_cover = qt.index().approx_cover_circle(&q.0, r).len();
        let kd_us = time_ns(|| kd.sample_region_wr(&d, s, &mut rng).unwrap(), 20, 5) / 1e3;
        let qt_us = time_ns(|| qt.sample_wr(&q, s, &mut rng).unwrap(), 20, 5) / 1e3;
        // Both must be uniform over the true disc: sanity-check supports.
        let truly = pts.iter().filter(|p| dist2(p, &q.0) <= r * r).count();
        assert_eq!(count, truly);
        table.row(&[&"disc_kd", &r, &count, &kd_cover, &kd_us]);
        table.row(&[&"disc_qt", &r, &count, &qt_cover, &qt_us]);
    }
}

fn e15_em_weighted() {
    let mut table = Table::new(
        "e15_em_weighted.csv",
        &[
            Col::new("s", 8).csv("s"),
            Col::new("weighted I/Os", 14).csv("weighted_ios"),
            Col::new("unweighted(WR) I/Os", 20).csv("unweighted_ios"),
            Col::new("per-sample (wtd)", 18).prec(4),
        ],
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
        table.row(&[&s, &w_ios, &u_ios, &(w_ios as f64 / s as f64)]);
    }
}

/// Batched vs sequential sampling at n = 2^20, three doors (see
/// `RangeSampler`'s *Dual sampling API*): `seq` = `sample_wr` (per-draw
/// `dyn RngCore` dispatch + `Vec` output), `batch` = `sample_wr_into`
/// (block-buffered RNG into the caller's slice, still through the trait
/// object), `mono` = `sample_wr_batch::<StdRng>` on Theorem 3 only — how
/// much of the win is blocking/decoding vs avoiding dyn dispatch.
fn e16_batch_throughput() {
    let mut table = Table::new(
        "e16_batch_throughput.csv",
        &[
            Col::new("s", 6).csv("s"),
            Col::new("structure", 9).csv("structure"),
            Col::new("seq us/q", 11).prec(2).csv_prec("seq_us", 3),
            Col::new("batch us/q", 11).prec(2).csv_prec("batch_us", 3),
            Col::new("mono us/q", 11).csv("mono_us"),
            Col::new("seq/batch", 10).prec(2).unit("x"),
            Col::new("batch Msamp/s", 14).prec(1),
        ],
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
        for (name, sampler, mono) in all {
            let seq = time_ns(|| sampler.sample_wr(x, y, s, &mut rng).unwrap(), iters, 5) / 1e3;
            let batch_door = || {
                sampler.sample_wr_into(x, y, &mut rng, &mut out).unwrap();
                out[0]
            };
            let batch = time_ns(batch_door, iters, 5) / 1e3;
            let mono = mono.map(|thm3| {
                let mono_door = || {
                    thm3.sample_wr_batch(x, y, &mut rng, &mut out).unwrap();
                    out[0]
                };
                time_ns(mono_door, iters, 5) / 1e3
            });
            let mono = mono.map_or("-".to_string(), |us| format!("{us:.2}"));
            table.row(&[&s, &name, &seq, &batch, &mono, &(seq / batch), &(s as f64 / batch)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `select` on `names`: how many arms run, or the rejected argument.
    fn selected(names: &[&str]) -> Result<usize, String> {
        let args: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        select(&args).map(|arms| arms.len()).map_err(str::to_owned)
    }

    #[test]
    fn unknown_arm_names_are_rejected_not_skipped() {
        assert_eq!(selected(&[]), Ok(ARMS.len()));
        assert_eq!(selected(&["e3", "e4", "f1"]), Ok(2));
        assert_eq!(selected(&["e9", "e99"]), Err("e99".into()));
        for retired in ["e19", "e20", "e23", "e24"] {
            assert_eq!(selected(&[retired]), Err(retired.into()), "retired arms are unknown too");
        }
        // There are no flags: `--smoke` is an unknown name like any other.
        assert_eq!(selected(&["--smoke", "e9"]), Err("--smoke".into()));
    }

    /// The arms a `## <Id>[, <Id>…] — …` heading of EXPERIMENTS.md gives a
    /// section to: none if it is the "retired: read the ledger" heading.
    fn sectioned(line: &str) -> Vec<String> {
        match line.strip_prefix("## ").and_then(|heading| heading.split_once(" — ")) {
            Some((ids, rest)) if !rest.starts_with("retired") => {
                ids.split(", ").map(str::to_lowercase).collect()
            }
            _ => Vec::new(),
        }
    }

    #[test]
    fn every_arm_is_documented_and_every_documented_arm_exists() {
        use std::collections::BTreeSet;
        let registered: BTreeSet<String> =
            ARMS.iter().flat_map(|arm| arm.names).map(|name| name.to_string()).collect();
        // DESIGN.md §2: the last cell of each row of the index is `<arm>`.
        let design = include_str!("../../../../DESIGN.md");
        let index = design.split("\n## ").find(|s| s.starts_with("2. ")).expect("DESIGN.md §2");
        let indexed: BTreeSet<String> = index
            .lines()
            .filter_map(|row| row.strip_suffix("` |")?.rsplit_once('`'))
            .map(|(_, arm)| arm.to_string())
            .collect();
        assert_eq!(indexed, registered, "DESIGN.md §2's `Harness arm` column vs the registry");
        let experiments = include_str!("../../../../EXPERIMENTS.md");
        let sections: BTreeSet<String> = experiments.lines().flat_map(sectioned).collect();
        assert_eq!(sections, registered, "EXPERIMENTS.md's `## <Id> —` headings vs the registry");
    }
}
