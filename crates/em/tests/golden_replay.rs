//! Seeded replay fixtures for the Section-8 structures: for each of
//! `SamplePool`, `EmRangeSampler` and `EmWeightedRangeSampler` (through
//! `query`, through `plan` + `draw_ids_into`, and over shuffled Zipf
//! weights) at two `(B, M)` settings, the first samples of a query, an order-sensitive checksum
//! of every query's whole output (the leading samples of a range query
//! come from its boundary chunks; the pools' follow), the machine's
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

use iqs_em::{EmMachine, EmRangeSampler, EmWeightedRangeSampler, IoStats, SamplePool};
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
    for q in 0..3 {
        let plan = ws.plan(x, y);
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
    let plan = ws.plan(1.0, b as f64 / 4.0);
    let before = ids.len();
    assert_eq!(ws.draw_ids_into(&plan, 8, &mut rng, &mut ids), Some(8));
    t.head(&ids[before..], 8);
    t.after_query(&machine, ws.rebuilds());
    let empty = ws.plan(10.25, 10.75);
    assert_eq!(empty.total(), 0.0);
    assert_eq!(ws.draw_ids_into(&empty, 4, &mut rng, &mut ids), None);
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

type Fixture = fn(usize, usize, u64) -> String;

/// Every fixture, with the seed it replays under.
const FIXTURES: [(&str, Fixture, u64); 5] = [
    ("sample_pool", sample_pool, 801),
    ("range_sampler", range_sampler, 802),
    ("weighted_query", weighted_query, 803),
    ("weighted_plan_draw", weighted_plan_draw, 804),
    ("weighted_zipf", weighted_zipf, 806),
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
    ("range_sampler/B64/M512", "samples=[125,88,124,74,89,74,104,74,90,123,68,83,120,107,112,100,95,123,87,72,69,67,76,75,95,116,116,120,83,84,67,180,9,30,23,16,32,9,20,4] sums=[09ba94f09e28d7f7 1674be5d930d554b 56cf937d9ef129a2] io=[0/0/0/0 691/698/3913/1423 746/733/4187/1514 1426/1398/7824/2890 1427/1398/7824/2891] rebuilds=[0, 1, 8, 8]"),
    ("range_sampler/B16/M64", "samples=[24,22,23,23,27,29,28,21,50,47,40,41,52,40,57,40,37,51,63,32,43,53,101,83,77,67,118,77,80,119,111,77,5,6,7,5,6,8,4,3] sums=[223f4eb302854d14 9f3fd1b84d7f214a ea5f151baca000dc] io=[0/0/0/0 1093/1082/982/2177 1137/1100/1025/2239 2229/2168/1964/4397 2230/2168/1964/4398] rebuilds=[0, 1, 8, 8]"),
    ("weighted_query/B64/M512", "samples=[38,57,59,49,46,53,54,47,1984,94,99,64,86,91,82,124,84,119,119,117,74,87,109,97,64,99,79,78,87,85,104,124,8,11,12,6,15,3,9,1] sums=[744088cac19356f1 0724d8f3ea1e7cfe 7a937213ef99cb82] io=[0/0/0/0 355/312/215/687 394/314/215/726 752/626/429/1416 754/626/429/1418] rebuilds=[0, 0, 8, 8]"),
    ("weighted_query/B16/M64", "samples=[11,21,27,24,29,19,24,21,33,61,48,48,49,34,47,48,42,48,58,52,54,35,39,35,38,58,50,82,109,116,69,64,4,3,4,4,4,2,3,2] sums=[02f468db48966492 25affcdab3a3f4e7 3f54e7293c34b9da] io=[0/0/0/0 535/481/170/1017 819/713/245/1532 1114/963/341/2078 1116/963/341/2080] rebuilds=[0, 3, 8, 8]"),
    ("weighted_plan_draw/B64/M512", "samples=[99883,99880,99841,99892,99838,99841,99853,99844,99856,99823,99814,99868,99853,99877,99829,99736,99793,99718,99700,99706,99757,99688,99769,99721,99694,99766,99718,99673,99634,99733,99709,99700,99997,99976,99991,99982,99988,99955,99958,99991] sums=[0599361b2a0026ce 923119ee9b80aefe 7545b575fc1c0eec] io=[0/0/0/0 4/0/0/4 355/312/219/687 359/312/219/691 399/316/251/751 403/316/251/755 753/625/441/1417 755/625/441/1419] rebuilds=[0, 2, 8, 8]"),
    ("weighted_plan_draw/B16/M64", "samples=[99961,99949,99937,99931,99931,99928,99916,99952,99919,99928,99913,99949,99943,99883,99856,99838,99823,99829,99868,99856,99811,99898,99904,99670,99736,99652,99673,99745,99808,99691,99676,99646,99988,99997,99988,99988,99991,99988,99997,99994] sums=[3b118281a2e22ad2 5d655ce8fa2dc32d 13f74feae4cbf006] io=[0/0/0/0 4/0/0/4 535/481/175/1017 539/482/175/1021 586/501/199/1088 590/502/199/1092 1112/964/353/2076 1114/964/353/2078] rebuilds=[0, 2, 8, 8]"),
    ("weighted_zipf/B64/M512", "samples=[288,281,288,365,288,288,288,442,281,288,288,288,246,288,288,659,666,876,568,582,526,512,876,736,659,659,862,568,1786,1422,918,1422,6,7,10,12,4,12,7,12] sums=[abe9d1a7f1d72160 139641be235b04d7 5123427f0667c946] io=[0/0/0/0 1901/1680/776/3601 2615/2229/1011/4865 3777/3208/1430/7004 3779/3208/1430/7006] rebuilds=[0, 3, 8, 8]"),
    ("weighted_zipf/B16/M64", "samples=[14225,155,113,155,155,155,176,113,155,155,190,295,617,883,589,638,547,491,624,589,883,862,883,939,1632,939,939,939,939,939,1604,1506,1,1,1,1,3,1,3,3] sums=[7aecd20ea7e117f1 dc6f790fc269cea7 7c4ec7b23bcad5df] io=[0/0/0/0 2963/2739/677/5703 3959/3584/894/7543 6221/5644/1357/11865 6223/5644/1357/11867] rebuilds=[0, 4, 8, 8]"),
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
