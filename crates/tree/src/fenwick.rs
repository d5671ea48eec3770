use iqs_alias::space::SpaceUsage;

/// A Fenwick (binary indexed) tree over `f64` values — the "range sum
/// structure" of Section 4.2, used to obtain `w(S₂)` for the middle chunk
/// run of a query in `O(log n)` time without touching the elements.
///
/// `O(n)` space, `O(log n)` point update and prefix/range sum.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Fenwick {
    /// 1-based implicit tree.
    tree: Vec<f64>,
}

impl Fenwick {
    /// An all-zero structure over `n` positions.
    pub fn new(n: usize) -> Self {
        Fenwick { tree: vec![0.0; n + 1] }
    }

    /// Builds from initial values in `O(n)` time.
    pub fn from_values(values: &[f64]) -> Self {
        let mut this = Fenwick { tree: Vec::with_capacity(values.len() + 1) };
        this.rebuild(values);
        this
    }

    /// Rebuilds over `values` in `O(n)` time inside the existing buffer:
    /// the result equals [`Self::from_values`] bit for bit.
    pub fn rebuild(&mut self, values: &[f64]) {
        let n = values.len();
        let tree = &mut self.tree;
        tree.clear();
        tree.push(0.0);
        tree.extend_from_slice(values);
        // In-place O(n) construction: push each slot's total to its parent.
        for i in 1..=n {
            let j = i + (i & i.wrapping_neg());
            if j <= n {
                tree[j] += tree[i];
            }
        }
    }

    /// Brings the tree level with `values`, which differ from the values
    /// it holds at the positions `touched` only (0-based, in any order,
    /// repeats allowed), in `O(|touched| · log² n)`: only the touched
    /// positions' ancestors are recomputed, in ascending order, each
    /// summed as [`Self::rebuild`] sums it — its own value, then its
    /// children `j − lowbit(j)/2, …, j − 1` — so the result equals
    /// [`Self::from_values`] bit for bit.
    ///
    /// # Panics
    /// If `values` is not as long as the tree.
    pub fn repair(&mut self, values: &[f64], touched: &[usize]) {
        let n = values.len();
        assert_eq!(n, self.len(), "a repair keeps the number of positions");
        let depth = (usize::BITS - n.leading_zeros()) as usize;
        let mut nodes = Vec::with_capacity(touched.len() * depth);
        for &i in touched {
            let mut j = i + 1;
            while j <= n {
                nodes.push(j);
                j += j & j.wrapping_neg();
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        for j in nodes {
            let mut sum = values[j - 1];
            let mut step = (j & j.wrapping_neg()) / 2;
            while step > 0 {
                sum += self.tree[j - step];
                step /= 2;
            }
            self.tree[j] = sum;
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// True when the structure covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.tree.len() == 1
    }

    /// Adds `delta` at position `i` (0-based).
    pub fn add(&mut self, i: usize, delta: f64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..i` (exclusive upper bound).
    pub fn prefix_sum(&self, i: usize) -> f64 {
        let mut i = i.min(self.len());
        let mut acc = 0.0;
        while i > 0 {
            acc += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        acc
    }

    /// Sum of positions `a..b` (half-open). Zero when `a >= b`.
    pub fn range_sum(&self, a: usize, b: usize) -> f64 {
        if a >= b {
            0.0
        } else {
            self.prefix_sum(b) - self.prefix_sum(a)
        }
    }

    /// Total of all positions.
    pub fn total(&self) -> f64 {
        self.prefix_sum(self.len())
    }
}

impl SpaceUsage for Fenwick {
    fn space_words(&self) -> usize {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_matches_adds() {
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let built = Fenwick::from_values(&vals);
        let mut added = Fenwick::new(vals.len());
        for (i, &v) in vals.iter().enumerate() {
            added.add(i, v);
        }
        for i in 0..=vals.len() {
            assert!((built.prefix_sum(i) - added.prefix_sum(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn range_sums_are_exact() {
        let vals: Vec<f64> = (0..100).map(|i| (i as f64).sin().abs() + 0.1).collect();
        let f = Fenwick::from_values(&vals);
        for a in (0..100).step_by(7) {
            for b in (a..=100).step_by(11) {
                let want: f64 = vals[a..b].iter().sum();
                assert!((f.range_sum(a, b) - want).abs() < 1e-9, "[{a},{b})");
            }
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let f = Fenwick::new(0);
        assert!(f.is_empty());
        assert_eq!(f.prefix_sum(0), 0.0);
        assert_eq!(f.range_sum(3, 2), 0.0);
        let g = Fenwick::from_values(&[5.0]);
        assert_eq!(g.total(), 5.0);
        assert_eq!(g.range_sum(0, 1), 5.0);
    }

    #[test]
    fn updates_change_sums() {
        let mut f = Fenwick::from_values(&[1.0, 1.0, 1.0]);
        f.add(1, 9.0);
        assert!((f.range_sum(0, 3) - 12.0).abs() < 1e-12);
        assert!((f.range_sum(1, 2) - 10.0).abs() < 1e-12);
        f.add(1, -10.0);
        assert!((f.range_sum(1, 2)).abs() < 1e-12);
    }

    #[test]
    fn a_repair_is_the_fresh_build_bit_for_bit() {
        // Weights 2^±60 apart, so an ancestor summed in any other order
        // than `rebuild`'s would differ in its last bits.
        let value = |i: usize, round: usize| 2f64.powi(((i * 37 + round * 11) % 121) as i32 - 60);
        for n in [1usize, 2, 3, 7, 13, 100, 1000, 1023, 1025] {
            let mut values: Vec<f64> = (0..n).map(|i| value(i, 0)).collect();
            let mut tree = Fenwick::from_values(&values);
            let touched_sets = [
                vec![0],
                vec![n - 1],
                vec![0, n - 1, 0, n / 2, n / 2],
                (0..n).step_by(7).rev().collect(),
                vec![],
            ];
            for (round, touched) in touched_sets.iter().enumerate() {
                for &i in touched {
                    values[i] = value(i, round + 1);
                }
                tree.repair(&values, touched);
                let fresh = Fenwick::from_values(&values);
                let bits = |f: &Fenwick| f.tree.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&tree), bits(&fresh), "n = {n}, touched {touched:?}");
            }
        }
    }

    #[test]
    fn prefix_clamps_out_of_range() {
        let f = Fenwick::from_values(&[1.0, 2.0]);
        assert_eq!(f.prefix_sum(99), 3.0);
    }
}
