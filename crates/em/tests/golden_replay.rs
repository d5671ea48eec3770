//! Seeded replay fixtures for the Section-8 structures: for each of
//! `SamplePool`, `EmRangeSampler` and `EmWeightedRangeSampler` (through
//! `query`, through `plan` + `draw_ids_into`, over shuffled Zipf weights,
//! and over ranges whose ends the chunks meet) at two `(B, M)` settings,
//! the first samples of a query, an order-sensitive checksum
//! of every query's whole output (the leading samples of a range query
//! come from the chunks it cuts; the pools' follow), the machine's
//! `IoStats` after construction and after each query, and `rebuilds()`
//! after each query.
//!
//! The strings pin two things at once: the order in which RNG words are
//! consumed (a draw that moves changes the samples) and the block
//! traffic (a pool built, scanned or discarded at a different moment
//! changes the counters). A refactor of `crates/em/src` must pass this
//! file unedited; a diff here is a behaviour change, to be argued for,
//! not re-pinned in passing. It is the em twin of
//! `crates/net/tests/golden_frames.rs`.

use iqs_em::{EmMachine, EmRangeSampler, EmWeightedRangeSampler, IoStats, RangePlan, SamplePool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two machines every structure is replayed on: `(B, M)` in words.
const MACHINES: [(usize, usize); 2] = [(64, 8 * 64), (16, 4 * 16)];

/// How many leading samples of the first query a fixture records.
const HEAD: usize = 32;

/// One fixture's transcript:
/// `samples=[..] sums=[..] io=[r/w/h/m ..] rebuilds=[..]`.
#[derive(Default)]
struct Transcript {
    samples: Vec<String>,
    sums: Vec<String>,
    io: Vec<String>,
    rebuilds: Vec<u64>,
}

impl Transcript {
    fn head<T: std::fmt::Display>(&mut self, samples: &[T], count: usize) {
        self.samples.extend(samples[..count].iter().map(T::to_string));
    }

    /// Folds one query's whole output, in order, into a checksum.
    fn sum(&mut self, words: impl Iterator<Item = u64>) {
        let sum = words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        });
        self.sums.push(format!("{sum:016x}"));
    }

    fn io(&mut self, stats: IoStats) {
        let IoStats { reads, writes, hits, misses } = stats;
        self.io.push(format!("{reads}/{writes}/{hits}/{misses}"));
    }

    fn after_query(&mut self, machine: &EmMachine, rebuilds: u64) {
        self.io(machine.stats());
        self.rebuilds.push(rebuilds);
    }

    fn render(&self) -> String {
        format!(
            "samples=[{}] sums=[{}] io=[{}] rebuilds={:?}",
            self.samples.join(","),
            self.sums.join(" "),
            self.io.join(" "),
            self.rebuilds
        )
    }
}

fn sample_pool(b: usize, m: usize, seed: u64) -> String {
    let machine = EmMachine::new(m, b);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Transcript::default();
    let n = 20 * b + 7;
    let mut pool = SamplePool::new(&machine, (0..n).map(|i| i as f64).collect(), &mut rng);
    t.io(machine.stats());
    // 0.4 n, 0.4 n, 0.5 n: the third query runs the first pool dry.
    for (q, s) in [2 * n / 5, 2 * n / 5, n / 2].into_iter().enumerate() {
        let out = pool.query(s, &mut rng);
        assert_eq!(out.len(), s);
        t.sum(out.iter().map(|v| v.to_bits()));
        if q == 0 {
            t.head(&out, HEAD);
        }
        t.after_query(&machine, pool.rebuilds());
    }
    assert_eq!(pool.rebuilds(), 1, "the third query spans exactly one rebuild");
    t.render()
}

fn range_sampler(b: usize, m: usize, seed: u64) -> String {
    let machine = EmMachine::new(m, b);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Transcript::default();
    let n = 64 * b - 5;
    let mut rs = EmRangeSampler::new(&machine, (0..n).map(|i| i as f64).collect());
    t.io(machine.stats());
    // Three queries over chunks 1..62, each asking for 0.45 of the range:
    // the large canonical nodes' pools run dry during the third.
    let (x, y) = (b as f64 + 2.5, (62 * b) as f64 + 1.0);
    let s = 27 * b;
    for q in 0..3 {
        let out = rs.query(x, y, s, &mut rng).expect("range is not empty");
        assert_eq!(out.len(), s);
        t.sum(out.iter().map(|v| v.to_bits()));
        if q == 0 {
            t.head(&out, HEAD);
        }
        t.after_query(&machine, rs.rebuilds());
    }
    assert!(rs.rebuilds() > 0, "a pool was rebuilt");
    // A range inside one chunk: no split coins, no pool.
    let out = rs.query(3.0, b as f64 / 2.0, 8, &mut rng).expect("range is not empty");
    t.head(&out, 8);
    t.after_query(&machine, rs.rebuilds());
    assert!(rs.query(10.25, 10.75, 4, &mut rng).is_none(), "no key in the range");
    t.render()
}

/// `(id, key, weight)`: ids unrelated to key order, five weight classes.
fn triples(n: usize) -> Vec<(u64, f64, f64)> {
    (0..n).map(|i| (100_000 - 3 * i as u64, i as f64, 1.0 + (i % 5) as f64 * 0.75)).collect()
}

fn weighted_query(b: usize, m: usize, seed: u64) -> String {
    let machine = EmMachine::new(m, b);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Transcript::default();
    // Pairs are two words: `b / 2` per chunk, 64 chunks.
    let n = 32 * b - 3;
    let pairs = triples(n).into_iter().map(|(_, k, w)| (k, w)).collect();
    let mut ws = EmWeightedRangeSampler::new(&machine, pairs);
    t.io(machine.stats());
    let (x, y) = ((b / 2) as f64 + 2.5, (31 * b) as f64 + 1.0);
    let s = 14 * b;
    for q in 0..3 {
        let out = ws.query(x, y, s, &mut rng).expect("range is not empty");
        assert_eq!(out.len(), s);
        t.sum(out.iter().map(|v| v.to_bits()));
        if q == 0 {
            t.head(&out, HEAD);
        }
        t.after_query(&machine, ws.rebuilds());
    }
    assert!(ws.rebuilds() > 0, "a pool was rebuilt");
    let out = ws.query(1.0, b as f64 / 4.0, 8, &mut rng).expect("range is not empty");
    t.head(&out, 8);
    t.after_query(&machine, ws.rebuilds());
    assert!(ws.query(10.25, 10.75, 4, &mut rng).is_none(), "no key in the range");
    t.render()
}

fn weighted_plan_draw(b: usize, m: usize, seed: u64) -> String {
    let machine = EmMachine::new(m, b);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Transcript::default();
    let n = 32 * b - 3;
    let mut ws = EmWeightedRangeSampler::new_keyed(&machine, triples(n));
    t.io(machine.stats());
    let (x, y) = ((b / 2) as f64 + 2.5, (31 * b) as f64 + 1.0);
    let s = 14 * b;
    // One buffer for every draw: ids are appended, never cleared.
    const SENTINEL: u64 = u64::MAX;
    let mut ids = vec![SENTINEL];
    // One plan for every query, too: each plan replaces the last.
    let mut plan = RangePlan::default();
    for q in 0..3 {
        ws.plan(x, y, &mut plan);
        t.io(machine.stats());
        assert_eq!(plan.total().to_bits(), ws.range_weight(x, y).to_bits());
        assert_eq!(ws.draw_ids_into(&plan, s, &mut rng, &mut ids), Some(s));
        assert_eq!(ids.len(), 1 + (q + 1) * s);
        t.sum(ids[ids.len() - s..].iter().copied());
        t.after_query(&machine, ws.rebuilds());
    }
    assert_eq!(ids[0], SENTINEL, "the buffer's contents were left alone");
    t.head(&ids[1..], HEAD);
    assert!(ws.rebuilds() > 0, "a pool was rebuilt");
    ws.plan(1.0, b as f64 / 4.0, &mut plan);
    let before = ids.len();
    assert_eq!(ws.draw_ids_into(&plan, 8, &mut rng, &mut ids), Some(8));
    t.head(&ids[before..], 8);
    t.after_query(&machine, ws.rebuilds());
    ws.plan(10.25, 10.75, &mut plan);
    assert_eq!(plan.total(), 0.0);
    assert_eq!(ws.draw_ids_into(&plan, 4, &mut rng, &mut ids), None);
    assert_eq!(ids.len(), before + 8, "an empty plan appends nothing");
    t.render()
}

/// Zipf weights `1/(i+1)` over `0..n`, shuffled by `seed` (the ledger's
/// law): one heavy chunk among many light ones, so a chunk's items and
/// a node's chunks are long, skewed group lists.
fn zipf_triples(n: usize, seed: u64) -> Vec<(u64, f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    for i in (1..n).rev() {
        ws.swap(i, rng.random_range(0..=i));
    }
    ws.into_iter().enumerate().map(|(i, w)| (7 * i as u64 + 1, i as f64, w)).collect()
}

fn weighted_zipf(b: usize, m: usize, seed: u64) -> String {
    let machine = EmMachine::new(m, b);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Transcript::default();
    // `b / 2` pairs per chunk, 256 chunks.
    let n = 128 * b - 3;
    let mut ws = EmWeightedRangeSampler::new_keyed(&machine, zipf_triples(n, seed));
    t.io(machine.stats());
    let (x, y) = ((b / 2) as f64 + 2.5, (127 * b) as f64 + 1.0);
    let s = 56 * b;
    let mut ids = Vec::new();
    for q in 0..3 {
        ids.clear();
        assert_eq!(ws.query_ids_into(x, y, s, &mut rng, &mut ids), Some(s));
        t.sum(ids.iter().copied());
        if q == 0 {
            t.head(&ids, HEAD);
        }
        t.after_query(&machine, ws.rebuilds());
    }
    assert!(ws.rebuilds() > 0, "a pool was rebuilt");
    let out = ws.query(1.0, b as f64 / 4.0, 8, &mut rng).expect("range is not empty");
    t.head(&out, 8);
    t.after_query(&machine, ws.rebuilds());
    t.render()
}

/// Ranges the chunks end on: the whole set, a run of whole chunks, and
/// a range cut at its upper end alone. A plan reads only the chunks its
/// range cuts — none for the first two — and the chunks a range covers
/// draw from the pools of their canonical nodes, the whole set from the
/// root's one pool.
fn weighted_covered(b: usize, m: usize, seed: u64) -> String {
    let machine = EmMachine::new(m, b);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Transcript::default();
    // `b / 2` pairs per chunk, 64 chunks.
    let n = 32 * b;
    let mut ws = EmWeightedRangeSampler::new_keyed(&machine, triples(n));
    t.io(machine.stats());
    let chunk = (b / 2) as f64;
    let s = 6 * b;
    let mut plan = RangePlan::default();
    let mut ids = Vec::new();
    for (q, (x, y, cut)) in [
        (f64::NEG_INFINITY, f64::INFINITY, 0),
        (2.0 * chunk, 40.0 * chunk - 1.0, 0),
        (5.0 * chunk, 50.0 * chunk + 2.5, 1),
    ]
    .into_iter()
    .enumerate()
    {
        let before = machine.stats();
        ws.plan(x, y, &mut plan);
        let touched = machine.stats().hits + machine.stats().misses - before.hits - before.misses;
        assert_eq!(touched, 2 * cut, "a plan touches two blocks per cut chunk");
        t.io(machine.stats());
        ids.clear();
        assert_eq!(ws.draw_ids_into(&plan, s, &mut rng, &mut ids), Some(s));
        t.sum(ids.iter().copied());
        if q == 0 {
            t.head(&ids, HEAD);
        }
        t.after_query(&machine, ws.rebuilds());
    }
    t.render()
}

type Fixture = fn(usize, usize, u64) -> String;

/// Every fixture, with the seed it replays under.
const FIXTURES: [(&str, Fixture, u64); 6] = [
    ("sample_pool", sample_pool, 801),
    ("range_sampler", range_sampler, 802),
    ("weighted_query", weighted_query, 803),
    ("weighted_plan_draw", weighted_plan_draw, 804),
    ("weighted_zipf", weighted_zipf, 806),
    ("weighted_covered", weighted_covered, 807),
];

fn transcripts() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, fixture, seed) in FIXTURES {
        for (b, m) in MACHINES {
            out.push((format!("{name}/B{b}/M{m}"), fixture(b, m, seed)));
        }
    }
    out
}

/// The pinned transcripts, in `transcripts()` order.
const GOLDEN: &[(&str, &str)] = &[
    ("sample_pool/B64/M512", "samples=[779,303,650,506,583,432,748,233,87,1049,1026,965,628,317,40,1118,1199,1248,294,809,474,1143,243,838,965,566,1209,1118,1277,740,2,1015] sums=[0133032fec1e78c8 9bdb873bc5df3abc 26ec089a92a4f50e] io=[265/264/1288/532 274/267/1288/541 282/267/1289/549 557/532/2578/1091] rebuilds=[0, 0, 1]"),
    ("sample_pool/B16/M64", "samples=[198,77,165,128,148,110,190,59,22,266,260,245,159,80,10,284,304,317,74,205,120,290,61,213,245,143,307,284,324,188,0,258] sums=[aab15c1d9492c61b 7fe85e882fb92aaf 74a282032198057f] io=[513/511/326/1026 522/513/326/1035 530/513/327/1043 1053/1026/654/2079] rebuilds=[0, 0, 1]"),
    ("range_sampler/B64/M512", "samples=[125,88,124,74,89,74,104,74,90,123,68,83,120,107,112,100,95,123,87,72,69,67,76,75,95,116,116,120,83,84,67,180,19,24,11,11,14,10,30,10] sums=[4486a6906acd1eca 87b365d71e5f3f5b 4fcb5aad29006ed3] io=[0/0/0/0 431/387/3504/975 799/739/5604/1727 1164/1089/7415/2440 1165/1089/7415/2441] rebuilds=[16, 21, 24, 24]"),
    ("range_sampler/B16/M64", "samples=[24,22,23,23,27,29,28,21,50,47,40,41,52,40,57,40,37,51,63,32,43,53,78,113,83,84,101,83,77,67,118,77,7,5,4,4,8,3,3,3] sums=[a4f06b4ff34fde91 21d650e8fdeb5b43 39f9b8439acd696d] io=[0/0/0/0 657/589/835/1311 1185/1114/1347/2365 1797/1692/1859/3553 1798/1692/1859/3554] rebuilds=[15, 20, 24, 24]"),
    ("weighted_query/B64/M512", "samples=[38,57,59,49,46,53,54,47,1984,121,69,97,73,89,114,87,74,103,73,99,65,117,84,98,78,90,119,66,79,87,91,92,6,7,3,6,11,2,14,8] sums=[abaf2e44301fe9da c0b48b8eb1b49fe0 186a9d780151e47d] io=[0/0/0/0 237/47/157/292 378/126/191/516 427/135/201/575 429/137/201/577] rebuilds=[15, 22, 24, 24]"),
    ("weighted_query/B16/M64", "samples=[11,27,31,24,26,17,22,21,46,43,38,42,58,48,38,62,36,59,52,52,49,54,61,54,47,44,49,118,71,109,121,89,3,3,2,3,2,1,4,4] sums=[fa21b61527790d3b 65d2c457cdab0791 ba925cca296c5c75] io=[0/0/0/0 228/63/98/293 395/169/131/567 481/207/148/693 483/207/148/695] rebuilds=[13, 19, 24, 24]"),
    ("weighted_plan_draw/B64/M512", "samples=[99883,99880,99841,99892,99838,99841,99853,99844,99856,99823,99814,99868,99853,99877,99829,99661,99769,99763,99667,99772,99796,99727,99778,99703,99808,99793,99781,99787,99646,99628,99808,99646,99952,99952,99964,99997,99982,99973,99967,99976] sums=[2386df9b823cb3c4 ad0812d982e2231c d3ef0ce0a5864880] io=[0/0/0/0 4/0/0/4 237/45/157/291 241/47/157/295 388/131/201/532 392/133/201/536 431/139/209/579 433/139/209/581] rebuilds=[15, 23, 24, 24]"),
    ("weighted_plan_draw/B16/M64", "samples=[99961,99922,99943,99916,99928,99934,99940,99928,99913,99943,99907,99937,99949,99868,99844,99889,99853,99883,99877,99862,99850,99901,99871,99688,99688,99691,99661,99802,99763,99631,99787,99619,99994,99991,99991,99988,99994,99988,99988,99991] sums=[efc1756b2cfe26cf a8891c937b377f79 62df9fddf31419cc] io=[0/0/0/0 4/0/0/4 242/67/107/312 246/68/107/316 366/135/134/508 370/138/134/512 484/205/158/696 486/205/158/698] rebuilds=[15, 20, 24, 24]"),
    ("weighted_zipf/B64/M512", "samples=[288,281,288,365,288,288,288,442,281,288,288,288,246,288,288,568,659,638,659,778,554,855,841,505,806,554,736,554,1233,1387,946,1716,11,4,16,15,11,7,2,7] sums=[d1a4b4daaf9b82fd 46857e851e6f5f64 1cf870ec2e378feb] io=[0/0/0/0 1133/299/414/1441 1829/753/586/2617 2218/962/666/3222 2220/963/666/3224] rebuilds=[18, 27, 35, 35]"),
    ("weighted_zipf/B16/M64", "samples=[14225,155,190,155,155,155,155,155,155,155,155,267,708,883,540,722,806,659,512,624,589,820,855,1520,939,939,1254,1163,1548,1254,1135,1520,1,3,1,1,3,1,2,3] sums=[f91ea6241f1fefa2 2404f4f722df0e5e f5ec8db486c64747] io=[0/0/0/0 874/343/173/1229 1686/872/272/2578 2848/1812/386/4692 2850/1812/386/4694] rebuilds=[17, 26, 34, 34]"),
    ("weighted_covered/B64/M512", "samples=[98185,98224,100000,95578,98473,99241,96292,99211,94528,97666,98557,97819,95278,98332,94084,94669,94153,94243,97603,96661,94726,97159,98059,94240,97387,96454,96361,94891,94231,94858,98668,99133] sums=[3499d0bb58470099 e17bd27722374405 822697290fa017c6] io=[0/0/0/0 0/0/0/0 209/34/73/249 209/34/73/249 314/50/135/370 316/50/135/372 411/69/191/491] rebuilds=[1, 6, 12]"),
    ("weighted_covered/B16/M64", "samples=[99043,99004,99400,99046,99763,99493,98971,99814,99988,98698,99274,99613,98476,99793,99265,99763,99223,99760,99343,99670,98575,99097,99172,99343,98590,99553,99313,99196,99001,99571,98686,99253] sums=[6487f5227253b0ba a48189c2d59f891b bda76510c5d76b07] io=[0/0/0/0 0/0/0/0 209/61/43/273 209/61/43/273 301/77/89/383 303/77/89/385 397/106/127/510] rebuilds=[1, 7, 12]"),
];

#[test]
fn seeded_replays_match_the_recorded_transcripts() {
    let got = transcripts();
    let matches = got.len() == GOLDEN.len()
        && got.iter().zip(GOLDEN).all(|((gn, gt), (n, t))| gn == n && gt == t);
    if !matches {
        let mut table = String::new();
        for (name, transcript) in &got {
            table.push_str(&format!("    (\"{name}\", \"{transcript}\"),\n"));
        }
        for ((name, transcript), (want_name, want)) in got.iter().zip(GOLDEN) {
            if name != want_name || transcript != want {
                eprintln!("first difference at {name}:\n  got  {transcript}\n  want {want}");
                break;
            }
        }
        panic!("replay diverged from the recorded transcripts; this run produced:\n{table}");
    }
}

#[test]
fn a_replay_is_a_function_of_its_seed() {
    // Guards the fixture itself: the transcript must not depend on
    // anything but the seed (hash order, time, a shared machine).
    assert_eq!(range_sampler(16, 64, 802), range_sampler(16, 64, 802));
    assert_ne!(range_sampler(16, 64, 802), range_sampler(16, 64, 805));
}
