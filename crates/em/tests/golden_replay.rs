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
    ("weighted_query/B64/M512", "samples=[38,57,59,49,46,53,54,47,1984,89,68,73,87,119,89,115,127,87,68,67,113,85,66,91,124,104,126,84,123,71,119,84,13,3,8,11,13,13,2,13] sums=[ef495b1aec9de6ef 9f5e0b50aeab9f87 581d35a88da98f8c] io=[0/0/0/0 347/181/366/616 658/446/547/1207 750/497/585/1356 752/497/585/1358] rebuilds=[15, 22, 24, 24]"),
    ("weighted_query/B16/M64", "samples=[11,29,27,16,17,29,27,27,42,38,44,48,59,36,52,54,38,59,58,59,40,49,39,42,41,44,54,69,122,111,65,104,1,2,2,1,1,4,2,3] sums=[ec22c79e65a290ee ea44bf099ef17dfe 4201c7cb1e11a4ab] io=[0/0/0/0 407/255/222/695 884/668/373/1589 1023/773/427/1833 1025/773/427/1835] rebuilds=[13, 20, 24, 24]"),
    ("weighted_plan_draw/B64/M512", "samples=[99883,99880,99841,99892,99838,99841,99853,99844,99856,99823,99814,99868,99853,99877,99829,99778,99796,99727,99757,99778,99643,99736,99652,99643,99622,99760,99643,99637,99808,99763,99808,99778,99958,99958,99961,99988,99994,99982,99991,99952] sums=[663b4c81add2a838 87a0eabf8343baed 07bde7b7d1b9250c] io=[0/0/0/0 4/0/0/4 344/179/362/608 348/179/362/612 698/477/574/1286 702/477/574/1290 747/496/599/1353 749/496/599/1355] rebuilds=[15, 23, 24, 24]"),
    ("weighted_plan_draw/B16/M64", "samples=[99961,99943,99925,99928,99940,99937,99916,99949,99937,99928,99919,99913,99949,99844,99853,99856,99898,99817,99814,99871,99886,99904,99844,99799,99808,99628,99754,99688,99631,99619,99658,99634,99994,99988,99994,99988,99991,99991,99988,99991] sums=[2a47e06428ac0d1f abf96d8e534ea259 0172adfc8e232514] io=[0/0/0/0 4/0/0/4 445/281/252/763 449/282/252/767 838/627/395/1502 842/628/395/1506 1031/774/441/1841 1033/774/441/1843] rebuilds=[15, 23, 24, 24]"),
    ("weighted_zipf/B64/M512", "samples=[288,281,288,365,288,288,288,442,281,288,288,288,246,288,288,694,806,694,659,568,652,659,554,890,806,666,505,890,1541,1632,1422,1471,6,12,8,7,8,7,16,11] sums=[a0d7a821808d4810 412d6c24d2353886 b1789fdf74b5722b] io=[0/0/0/0 1836/1035/927/2949 3290/2230/1483/5609 4163/2934/1819/7190 4165/2934/1819/7192] rebuilds=[18, 27, 34, 34]"),
    ("weighted_zipf/B16/M64", "samples=[14225,155,211,155,113,155,155,190,190,155,155,281,708,512,631,512,883,624,498,883,806,785,673,1506,1254,939,1121,1254,1135,1254,1254,1254,1,1,1,1,1,1,2,4] sums=[40739364f84d8e72 ccf6cb2edd43a7b0 bac6488e0ae7a6c9] io=[0/0/0/0 1708/1180/509/2921 3491/2687/938/6215 6115/5102/1497/11253 6117/5102/1497/11255] rebuilds=[17, 27, 33, 33]"),
    ("weighted_covered/B64/M512", "samples=[95809,94954,99952,97171,99481,95617,94741,95497,98227,95368,96802,94159,93943,94651,94513,97465,97159,96703,98683,96334,96682,98032,95209,99235,93904,97039,99286,99367,98308,98722,97879,98272] sums=[6bfbb6e4f9a43820 3941d5540c554bae 0afbb4cc1634fc58] io=[0/0/0/0 0/0/0/0 312/135/126/450 312/135/126/450 421/164/261/631 423/164/261/633 571/249/392/892] rebuilds=[1, 6, 12]"),
    ("weighted_covered/B16/M64", "samples=[99004,99733,99814,98968,99427,99346,99094,98518,99418,98548,99799,98986,98599,99781,98698,99622,99178,99742,98575,99301,99064,99613,99193,99202,99058,98689,99676,98653,99310,99091,99766,98821] sums=[27ddff8604f18fea 10a33b18687232e1 169b2526240256b2] io=[0/0/0/0 0/0/0/0 353/206/88/559 353/206/88/559 483/267/190/773 485/267/190/775 674/392/277/1099] rebuilds=[1, 7, 12]"),
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
