use std::collections::HashMap;

use iqs_alias::space::{vec_words, SpaceUsage};
use rand::Rng;

use crate::geometry::Point;

/// One grid: its random shift and a cell → global-bucket-index map.
type Grid = ([f64; 2], HashMap<(i64, i64), u32>);

/// A family of `g` independently shifted grids over 2-D points — a simple
/// Euclidean-LSH stand-in for the bucketing schemes of the fair
/// near-neighbor literature (the paper's references \[6–8, 17\]).
///
/// Every grid partitions the plane into square cells of side `cell`; a
/// point belongs to one cell per grid, so across the `g` grids it appears
/// in `g` buckets. Given a query point, [`ShiftedGrids::query_bucket_indices`]
/// returns the `g` buckets containing it — *overlapping* sets whose union
/// contains, with probability `1 - (1 - Π_d(1-|Δ_d|/cell))^g`, every point
/// within distance `Δ` of the query. This overlapping set family is
/// precisely the input of set-union sampling (Theorem 8); the caller
/// finishes with a distance check (rejection), as in fair-NN.
///
/// Buckets carry stable global indices `0..bucket_count()` so downstream
/// structures can treat them as a set family.
#[derive(Debug, Clone)]
pub struct ShiftedGrids {
    cell: f64,
    /// Per grid: shift and cell → global bucket index.
    grids: Vec<Grid>,
    /// Global bucket index → member point ids.
    buckets: Vec<Vec<u32>>,
    points: Vec<Point<2>>,
}

impl ShiftedGrids {
    /// Builds `g` grids with cell side `cell` and uniform random shifts.
    ///
    /// # Panics
    /// Panics if `points` is empty, `g == 0`, or `cell` is not
    /// finite-positive.
    pub fn new<R: Rng + ?Sized>(points: Vec<Point<2>>, g: usize, cell: f64, rng: &mut R) -> Self {
        assert!(!points.is_empty(), "ShiftedGrids needs at least one point");
        assert!(g >= 1, "need at least one grid");
        assert!(cell.is_finite() && cell > 0.0, "cell side must be positive");
        let mut grids = Vec::with_capacity(g);
        let mut buckets: Vec<Vec<u32>> = Vec::new();
        for _ in 0..g {
            let shift = [rng.random::<f64>() * cell, rng.random::<f64>() * cell];
            let mut map: HashMap<(i64, i64), u32> = HashMap::new();
            for (i, p) in points.iter().enumerate() {
                let key = Self::cell_of(p, shift, cell);
                let idx = *map.entry(key).or_insert_with(|| {
                    buckets.push(Vec::new());
                    (buckets.len() - 1) as u32
                });
                buckets[idx as usize].push(i as u32);
            }
            grids.push((shift, map));
        }
        ShiftedGrids { cell, grids, buckets, points }
    }

    fn cell_of(p: &Point<2>, shift: [f64; 2], cell: f64) -> (i64, i64) {
        (
            ((p.coords[0] + shift[0]) / cell).floor() as i64,
            ((p.coords[1] + shift[1]) / cell).floor() as i64,
        )
    }

    /// Total number of (non-empty) buckets across all grids.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Member point ids of global bucket `idx`.
    pub fn bucket(&self, idx: usize) -> &[u32] {
        &self.buckets[idx]
    }

    /// All buckets, indexed by global bucket id — the set family handed
    /// to set-union sampling.
    pub fn all_buckets(&self) -> &[Vec<u32>] {
        &self.buckets
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point<2>] {
        &self.points
    }

    /// The global indices of the (up to `g`) buckets containing the query
    /// point; grids whose cell at `q` is empty contribute nothing.
    pub fn query_bucket_indices(&self, q: &Point<2>) -> Vec<usize> {
        self.grids
            .iter()
            .filter_map(|(shift, map)| {
                map.get(&Self::cell_of(q, *shift, self.cell)).map(|&i| i as usize)
            })
            .collect()
    }

    /// The `g` buckets containing the query point, as slices of point ids
    /// (empty slices for missing cells).
    pub fn query_buckets(&self, q: &Point<2>) -> Vec<&[u32]> {
        self.grids
            .iter()
            .map(|(shift, map)| {
                map.get(&Self::cell_of(q, *shift, self.cell))
                    .map(|&i| self.buckets[i as usize].as_slice())
                    .unwrap_or(&[])
            })
            .collect()
    }
}

impl SpaceUsage for ShiftedGrids {
    fn space_words(&self) -> usize {
        let bucket_words: usize = self.buckets.iter().map(|v| vec_words(v.as_slice())).sum();
        let map_words: usize = self.grids.iter().map(|(_, m)| 4 * m.len()).sum();
        bucket_words + map_words + vec_words(&self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_points(n: usize, seed: u64) -> Vec<Point<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()].into()).collect()
    }

    #[test]
    fn every_point_in_one_bucket_per_grid() {
        let pts = random_points(200, 90);
        let mut rng = StdRng::seed_from_u64(91);
        let grids = ShiftedGrids::new(pts.clone(), 4, 0.25, &mut rng);
        // Per grid the buckets partition the points: total membership is
        // g * n.
        let total: usize = grids.all_buckets().iter().map(Vec::len).sum();
        assert_eq!(total, 4 * 200);
    }

    #[test]
    fn query_bucket_contains_only_nearby_points() {
        let pts = random_points(500, 92);
        let mut rng = StdRng::seed_from_u64(93);
        let grids = ShiftedGrids::new(pts.clone(), 6, 0.2, &mut rng);
        let q: Point<2> = [0.5, 0.5].into();
        let buckets = grids.query_buckets(&q);
        assert_eq!(buckets.len(), 6);
        for b in &buckets {
            for &i in *b {
                // Same cell => within cell diameter.
                assert!(dist(&pts[i as usize], &q) <= 0.2 * std::f64::consts::SQRT_2 + 1e-12);
            }
        }
        let idx = grids.query_bucket_indices(&q);
        let via_idx: Vec<&[u32]> = idx.iter().map(|&i| grids.bucket(i)).collect();
        let non_empty: Vec<&[u32]> = buckets.iter().copied().filter(|b| !b.is_empty()).collect();
        assert_eq!(via_idx, non_empty);
    }

    #[test]
    fn near_point_recall_improves_with_g() {
        // A point at distance cell/4 from q should be recalled by the
        // union with high probability when g is large.
        let q: Point<2> = [0.5, 0.5].into();
        let near: Point<2> = [0.55, 0.5].into();
        let mut rng = StdRng::seed_from_u64(94);
        let mut hits = 0;
        let trials = 200;
        for _ in 0..trials {
            let grids = ShiftedGrids::new(vec![near], 8, 0.2, &mut rng);
            let found =
                grids.query_bucket_indices(&q).iter().any(|&b| grids.bucket(b).contains(&0));
            if found {
                hits += 1;
            }
        }
        // Per-grid share probability = (1 - 0.25) = 0.75 on x, 1 on y →
        // miss all 8 grids with probability 0.25^8 ≈ 1.5e-5.
        assert!(hits >= trials - 2, "recall {hits}/{trials}");
    }

    #[test]
    fn far_query_returns_no_buckets() {
        let pts = random_points(50, 94);
        let mut rng = StdRng::seed_from_u64(95);
        let grids = ShiftedGrids::new(pts, 3, 0.1, &mut rng);
        assert!(grids.query_bucket_indices(&[100.0, 100.0].into()).is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_grids_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        ShiftedGrids::new(vec![[0.0, 0.0].into()], 0, 1.0, &mut rng);
    }
}
