//! Shared workload generators and measurement helpers for the IQS
//! experiment suite (see DESIGN.md §2 for the experiment index).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::io::Write;

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
/// one readable number per harness table row. Each result passes through
/// `black_box`, so an arm times `|| sampler.sample(..)` as it stands.
/// The statistically careful instrument is the ledger
/// (`ledger/README.md`), not this timer.
pub fn time_ns<T>(mut op: impl FnMut() -> T, iters: usize, runs: usize) -> f64 {
    assert!(iters > 0 && runs > 0);
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                std::hint::black_box(op());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[runs / 2]
}

/// One column of a [`Table`]: how a cell is shown and, where the column
/// is persisted, how it is written to the CSV. Declared once; the header
/// lines and every row follow from it.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    head: &'static str,
    /// Display width; 0 = persisted only.
    width: usize,
    prec: Option<usize>,
    unit: &'static str,
    csv: Option<&'static str>,
    csv_prec: Option<usize>,
}

impl Col {
    /// A displayed column: `head` and its cells right-aligned in `width`.
    pub const fn new(head: &'static str, width: usize) -> Col {
        Col { head, width, prec: None, unit: "", csv: None, csv_prec: None }
    }

    /// A column persisted as `name` and not displayed.
    pub const fn csv_only(name: &'static str) -> Col {
        Col::new("", 0).csv(name)
    }

    /// Floats get `digits` decimals (integers ignore it; never set it on
    /// a text column, which it would truncate).
    pub const fn prec(self, digits: usize) -> Col {
        Col { prec: Some(digits), ..self }
    }

    /// Appends `unit` (`"x"`, `" us"`, `"%"`) to each displayed cell.
    pub const fn unit(self, unit: &'static str) -> Col {
        Col { unit, ..self }
    }

    /// Persists the column as `name`, at the display precision.
    pub const fn csv(self, name: &'static str) -> Col {
        Col { csv: Some(name), ..self }
    }

    /// Persists the column as `name` with its own `digits` decimals.
    pub const fn csv_prec(self, name: &'static str, digits: usize) -> Col {
        Col { csv: Some(name), csv_prec: Some(digits), ..self }
    }
}

fn cell(value: &dyn Display, prec: Option<usize>) -> String {
    prec.map_or_else(|| value.to_string(), |p| format!("{value:.p$}"))
}

/// One table of an experiment: printed as aligned lines and persisted as
/// `results/<file>`, both from one column list, so the two cannot
/// disagree on what a row holds.
#[derive(Debug)]
pub struct Table {
    cols: Vec<Col>,
    csv: std::fs::File,
}

impl Table {
    /// Prints the header line and creates `results/<file>` afresh with
    /// its CSV header: one run of an arm is one file, never an append to
    /// an earlier run's.
    pub fn new(file: &str, cols: &[Col]) -> Table {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).expect("create results dir");
        let mut csv = std::fs::File::create(dir.join(file)).expect("create csv");
        let names: Vec<&str> = cols.iter().filter_map(|c| c.csv).collect();
        writeln!(csv, "{}", names.join(",")).expect("write csv header");
        println!("{}", align(cols.iter().map(|c| (c.head.to_string(), c.width))));
        Table { cols: cols.to_vec(), csv }
    }

    /// Prints one aligned line and writes the CSV row.
    ///
    /// # Panics
    /// When `cells` does not hold exactly one value per column.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        let (shown, persisted) = self.render(cells);
        println!("{shown}");
        writeln!(self.csv, "{persisted}").expect("write csv row");
    }

    /// The display line and the CSV row of `cells`.
    fn render(&self, cells: &[&dyn Display]) -> (String, String) {
        assert_eq!(cells.len(), self.cols.len(), "a row holds one cell per declared column");
        let cells = || self.cols.iter().zip(cells);
        let shown = align(cells().map(|(c, value)| (cell(*value, c.prec) + c.unit, c.width)));
        let persisted: Vec<String> = cells()
            .filter(|(c, _)| c.csv.is_some())
            .map(|(c, value)| cell(*value, c.csv_prec.or(c.prec)))
            .collect();
        (shown, persisted.join(","))
    }
}

/// Right-aligns each text in its width, space-separated; width 0 hides it.
fn align(cells: impl Iterator<Item = (String, usize)>) -> String {
    let shown: Vec<String> =
        cells.filter(|&(_, w)| w > 0).map(|(text, w)| format!("{text:>w$}")).collect();
    shown.join(" ")
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

    const COLS: &[Col] = &[
        Col::new("n", 6).csv("n"),
        Col::csv_only("seed"),
        Col::new("us/q", 8).prec(1).csv_prec("query_us", 3),
        Col::new("ratio", 7).prec(2).unit("x"),
        Col::new("who", 5).csv("who"),
    ];

    fn saved(file: &str) -> String {
        std::fs::read_to_string(std::path::Path::new("results").join(file)).unwrap()
    }

    #[test]
    fn a_table_shows_and_persists_the_same_row_under_one_header() {
        let file = "table_test_rows.csv";
        let mut table = Table::new(file, COLS);
        let (shown, persisted) = table.render(&[&4096, &7, &1.23456, &2.0, &"thm3"]);
        assert_eq!(shown, "  4096      1.2   2.00x  thm3");
        assert_eq!(persisted, "4096,7,1.235,thm3");
        table.row(&[&4096, &7, &1.23456, &2.0, &"thm3"]);
        table.row(&[&16, &8, &0.5, &1.0, &"tree"]);
        assert_eq!(saved(file), "n,seed,query_us,who\n4096,7,1.235,thm3\n16,8,0.500,tree\n");
        // A second run of the arm starts the file afresh, never appends.
        Table::new(file, COLS).row(&[&1, &2, &3.0, &4.0, &"x"]);
        assert_eq!(saved(file), "n,seed,query_us,who\n1,2,3.000,x\n");
        std::fs::remove_file(std::path::Path::new("results").join(file)).unwrap();
    }

    #[test]
    #[should_panic(expected = "one cell per declared column")]
    fn a_row_of_the_wrong_arity_panics() {
        Table::new("table_test_arity.csv", COLS).row(&[&1, &2, &3.0]);
    }

    #[test]
    fn timer_returns_positive() {
        let mut x = 0u64;
        let ns = time_ns(|| x = x.wrapping_add(1), 1000, 3);
        assert!(ns >= 0.0);
        assert!(x > 0);
    }
}
