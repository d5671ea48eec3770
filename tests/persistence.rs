//! Index persistence: a structure serialized and deserialized must
//! answer queries identically — byte-for-byte given the same RNG stream
//! — because all of its randomness lives in the *queries*, not the
//! structure. (The dynamic and permutation-bearing
//! structures are deliberately not serializable: persisting a frozen
//! permutation is exactly the §2 dependence trap.)

use iqs::alias::{AliasTable, CdfSampler};
use iqs::core::complement::ComplementRange;
use iqs::core::{AliasAugmentedRange, ChunkedRange, ExpJumpWor, RangeSampler, TreeSamplingRange};
use iqs::tree::Fenwick;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pairs(n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|i| (i as f64, 1.0 + (i % 5) as f64)).collect()
}

#[test]
fn alias_table_roundtrip() {
    let table = AliasTable::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    let json = serde_json::to_string(&table).unwrap();
    let back: AliasTable = serde_json::from_str(&json).unwrap();
    for i in 0..4 {
        assert_eq!(table.realized_probability(i), back.realized_probability(i));
    }
    let mut r1 = StdRng::seed_from_u64(1);
    let mut r2 = StdRng::seed_from_u64(1);
    for _ in 0..100 {
        assert_eq!(table.sample(&mut r1), back.sample(&mut r2));
    }
}

#[test]
fn cdf_sampler_roundtrip() {
    let s = CdfSampler::new(&[0.5, 1.5, 3.0]).unwrap();
    let back: CdfSampler = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
    assert_eq!(s.total_weight(), back.total_weight());
}

#[test]
fn fenwick_roundtrip() {
    let f = Fenwick::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
    let back: Fenwick = serde_json::from_str(&serde_json::to_string(&f).unwrap()).unwrap();
    for a in 0..5 {
        for b in a..=5 {
            assert_eq!(f.range_sum(a, b), back.range_sum(a, b));
        }
    }
}

#[test]
fn range_samplers_roundtrip_and_answer_identically() {
    let n = 500;
    let tree = TreeSamplingRange::new(pairs(n)).unwrap();
    let lem2 = AliasAugmentedRange::new(pairs(n)).unwrap();
    let thm3 = ChunkedRange::new(pairs(n)).unwrap();

    macro_rules! roundtrip_check {
        ($orig:expr, $ty:ty) => {{
            let back: $ty = serde_json::from_str(&serde_json::to_string(&$orig).unwrap()).unwrap();
            assert_eq!($orig.keys(), back.keys());
            assert_eq!($orig.space_words(), back.space_words());
            let mut r1 = StdRng::seed_from_u64(42);
            let mut r2 = StdRng::seed_from_u64(42);
            assert_eq!(
                $orig.sample_wr(50.0, 400.0, 64, &mut r1).unwrap(),
                back.sample_wr(50.0, 400.0, 64, &mut r2).unwrap(),
                "deserialized structure diverged"
            );
        }};
    }
    roundtrip_check!(tree, TreeSamplingRange);
    roundtrip_check!(lem2, AliasAugmentedRange);
    roundtrip_check!(thm3, ChunkedRange);
}

#[test]
fn complement_and_expj_roundtrip() {
    let comp = ComplementRange::new(pairs(300)).unwrap();
    let back: ComplementRange =
        serde_json::from_str(&serde_json::to_string(&comp).unwrap()).unwrap();
    let mut r1 = StdRng::seed_from_u64(9);
    let mut r2 = StdRng::seed_from_u64(9);
    assert_eq!(
        comp.sample_wr(50.0, 200.0, 32, &mut r1).unwrap(),
        back.sample_wr(50.0, 200.0, 32, &mut r2).unwrap()
    );

    let ej = ExpJumpWor::new(pairs(300)).unwrap();
    let back: ExpJumpWor = serde_json::from_str(&serde_json::to_string(&ej).unwrap()).unwrap();
    let mut r1 = StdRng::seed_from_u64(10);
    let mut r2 = StdRng::seed_from_u64(10);
    assert_eq!(
        ej.sample_wor(50.0, 200.0, 20, &mut r1).unwrap(),
        back.sample_wor(50.0, 200.0, 20, &mut r2).unwrap()
    );
}
