//! Shared workload generators and measurement helpers for the IQS
//! experiment suite (see DESIGN.md §2 for the experiment index).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use iqs_spatial::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weight distributions used across the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weights {
    /// All weights 1 (the WR scheme).
    Unit,
    /// Uniform in `[0.1, 1.1)`.
    Uniform,
    /// Zipf-like: weight of the `i`-th element ∝ `1/(i+1)` after a
    /// random shuffle — heavy skew, the stress case for alias tables.
    Zipf,
}

/// Generates `n` `(key, weight)` pairs with keys `0, 1, …` (plus jitter)
/// and the chosen weight law, deterministically from `seed`.
pub fn keyed_weights(n: usize, weights: Weights, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws: Vec<f64> = match weights {
        Weights::Unit => vec![1.0; n],
        Weights::Uniform => (0..n).map(|_| 0.1 + rng.random::<f64>()).collect(),
        Weights::Zipf => (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect(),
    };
    if weights == Weights::Zipf {
        for i in (1..n).rev() {
            ws.swap(i, rng.random_range(0..=i));
        }
    }
    ws.into_iter().enumerate().map(|(i, w)| (i as f64 + rng.random::<f64>() * 0.25, w)).collect()
}

/// `n` uniform points in the unit square.
pub fn uniform_points2(n: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()].into()).collect()
}

/// `n` points in `k` Gaussian-ish clusters (clustered workload for E5).
pub fn clustered_points2(n: usize, k: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<[f64; 2]> =
        (0..k).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
    (0..n)
        .map(|_| {
            let c = centers[rng.random_range(0..k)];
            let mut jitter = || (rng.random::<f64>() - 0.5) * 0.08;
            [c[0] + jitter(), c[1] + jitter()].into()
        })
        .collect()
}

/// `n` uniform points in the unit cube.
pub fn uniform_points3(n: usize, seed: u64) -> Vec<Point<3>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>(), rng.random::<f64>()].into()).collect()
}

/// An overlapping set family for E8: `f` sets over a universe of size
/// `u`, each an interval of length `len` starting at a random offset
/// (heavy pairwise overlap, the regime Theorem 8 exists for).
pub fn overlapping_sets(f: usize, u: u64, len: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..f)
        .map(|_| {
            let start = rng.random_range(0..u.saturating_sub(len).max(1));
            (start..(start + len).min(u)).collect()
        })
        .collect()
}

/// Median-of-runs nanoseconds for `op`, called `iters` times per run:
/// one readable number per harness table row. The statistically careful
/// instrument is the ledger (`ledger/README.md`), not this timer.
pub fn time_ns<F: FnMut()>(mut op: F, iters: usize, runs: usize) -> f64 {
    assert!(iters > 0 && runs > 0);
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[runs / 2]
}

/// Appends one CSV row to `results/<file>` (creating the directory and
/// header on first touch).
pub fn csv_row(file: &str, header: &str, row: &str) {
    use std::io::Write;
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file);
    let fresh = !path.exists();
    let mut f =
        std::fs::OpenOptions::new().create(true).append(true).open(&path).expect("open csv");
    if fresh {
        writeln!(f, "{header}").expect("write header");
    }
    writeln!(f, "{row}").expect("write row");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(keyed_weights(50, Weights::Zipf, 1), keyed_weights(50, Weights::Zipf, 1));
        assert_ne!(keyed_weights(50, Weights::Zipf, 1), keyed_weights(50, Weights::Zipf, 2));
        assert_eq!(uniform_points2(10, 3), uniform_points2(10, 3));
    }

    #[test]
    fn keyed_weights_are_sorted_enough_and_positive() {
        for w in [Weights::Unit, Weights::Uniform, Weights::Zipf] {
            let pairs = keyed_weights(100, w, 7);
            assert_eq!(pairs.len(), 100);
            assert!(pairs.iter().all(|&(_, w)| w > 0.0));
        }
    }

    #[test]
    fn overlapping_sets_shape() {
        let sets = overlapping_sets(10, 1000, 200, 5);
        assert_eq!(sets.len(), 10);
        assert!(sets.iter().all(|s| !s.is_empty() && s.len() <= 200));
    }

    #[test]
    fn timer_returns_positive() {
        let mut x = 0u64;
        let ns = time_ns(|| x = x.wrapping_add(1), 1000, 3);
        assert!(ns >= 0.0);
        assert!(x > 0);
    }
}
