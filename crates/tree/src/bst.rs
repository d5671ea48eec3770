use std::fmt;

use iqs_alias::space::{vec_words, SpaceUsage};

/// Identifier of a node in a [`RankBst`] / [`StaticBst`] (index into the
/// node arena).
pub type NodeId = u32;

/// Errors when building a [`StaticBst`] or [`RankBst`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BstError {
    /// The key slice was empty.
    Empty,
    /// Keys were not strictly increasing at the reported position.
    NotSorted {
        /// Index `i` such that `keys[i-1] >= keys[i]`.
        index: usize,
    },
    /// Keys and weights had different lengths.
    LengthMismatch,
}

impl fmt::Display for BstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BstError::Empty => write!(f, "key set is empty"),
            BstError::NotSorted { index } => {
                write!(f, "keys are not strictly increasing at index {index}")
            }
            BstError::LengthMismatch => write!(f, "keys and weights differ in length"),
        }
    }
}

impl std::error::Error for BstError {}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct Node {
    /// Children; `u32::MAX` for leaves.
    left: NodeId,
    right: NodeId,
    /// Leaf (rank) interval `[lo, hi)` covered by this node.
    lo: u32,
    hi: u32,
    /// Total weight of the leaves below.
    weight: f64,
}

const NIL: NodeId = u32::MAX;

/// A balanced binary tree over `n` weighted *rank slots* — a [`StaticBst`]
/// stripped of its keys. This is the piece the multi-dimensional structures
/// reuse: a range tree's last level must decompose *rank ranges* of a
/// coordinate-sorted point list (which may contain duplicate coordinates,
/// so keys cannot be required to be strictly increasing).
///
/// Provides the canonical-node decomposition of Figure 1: any rank range
/// `[a, b)` is covered by `O(log n)` nodes with disjoint subtrees.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RankBst {
    nodes: Vec<Node>,
    root: NodeId,
    height: u32,
    n: usize,
}

impl RankBst {
    /// Builds the tree over `n = weights.len()` rank slots in `O(n)` time.
    ///
    /// # Errors
    /// [`BstError::Empty`] when `weights` is empty.
    pub fn new(weights: &[f64]) -> Result<Self, BstError> {
        if weights.is_empty() {
            return Err(BstError::Empty);
        }
        let n = weights.len();
        let mut nodes = Vec::with_capacity(2 * n - 1);
        let root = Self::build(&mut nodes, weights, 0, n as u32);
        let mut t = RankBst { nodes, root, height: 0, n };
        t.height = t.compute_height(t.root);
        Ok(t)
    }

    fn build(nodes: &mut Vec<Node>, weights: &[f64], lo: u32, hi: u32) -> NodeId {
        if hi - lo == 1 {
            nodes.push(Node { left: NIL, right: NIL, lo, hi, weight: weights[lo as usize] });
            return (nodes.len() - 1) as NodeId;
        }
        let mid = lo + (hi - lo) / 2;
        let left = Self::build(nodes, weights, lo, mid);
        let right = Self::build(nodes, weights, mid, hi);
        let weight = nodes[left as usize].weight + nodes[right as usize].weight;
        nodes.push(Node { left, right, lo, hi, weight });
        (nodes.len() - 1) as NodeId
    }

    /// Recomputes the weights of the nodes above `leaves` (ascending) from
    /// `weights`, given that no other leaf's weight changed since they
    /// were last computed: a leaf takes its weight and an internal node
    /// left + right — the additions [`Self::new`] makes, in its order, so
    /// the tree equals `RankBst::new(weights)` bit for bit. `O(|leaves|
    /// log n)`.
    ///
    /// # Panics
    /// If `weights` is not one weight per leaf.
    pub fn reweigh(&mut self, weights: &[f64], leaves: &[usize]) {
        assert_eq!(weights.len(), self.n, "one weight per leaf");
        self.reweigh_below(self.root, weights, leaves);
    }

    fn reweigh_below(&mut self, u: NodeId, weights: &[f64], leaves: &[usize]) {
        if leaves.is_empty() {
            return;
        }
        let (left, right) = (self.nodes[u as usize].left, self.nodes[u as usize].right);
        let weight = if left == NIL {
            weights[self.nodes[u as usize].lo as usize]
        } else {
            let mid = self.nodes[right as usize].lo as usize;
            let cut = leaves.partition_point(|&leaf| leaf < mid);
            self.reweigh_below(left, weights, &leaves[..cut]);
            self.reweigh_below(right, weights, &leaves[cut..]);
            self.nodes[left as usize].weight + self.nodes[right as usize].weight
        };
        self.nodes[u as usize].weight = weight;
    }

    fn compute_height(&self, u: NodeId) -> u32 {
        let node = &self.nodes[u as usize];
        if node.left == NIL {
            0
        } else {
            1 + self.compute_height(node.left).max(self.compute_height(node.right))
        }
    }

    /// Number of rank slots (leaves).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the tree is empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Tree height (edges on the longest root-leaf path); `O(log n)` by
    /// construction.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of nodes (`2n - 1`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Subtree weight `w(u)`.
    pub fn node_weight(&self, u: NodeId) -> f64 {
        self.nodes[u as usize].weight
    }

    /// Leaf (rank) interval `[lo, hi)` below `u`.
    pub fn leaf_range(&self, u: NodeId) -> (usize, usize) {
        let node = &self.nodes[u as usize];
        (node.lo as usize, node.hi as usize)
    }

    /// Number of leaves below `u`.
    pub fn node_count_leaves(&self, u: NodeId) -> usize {
        let node = &self.nodes[u as usize];
        (node.hi - node.lo) as usize
    }

    /// True when `u` is a leaf.
    pub fn is_leaf(&self, u: NodeId) -> bool {
        self.nodes[u as usize].left == NIL
    }

    /// Children of an internal node.
    ///
    /// # Panics
    /// Panics if `u` is a leaf.
    pub fn children(&self, u: NodeId) -> (NodeId, NodeId) {
        let node = &self.nodes[u as usize];
        assert!(node.left != NIL, "children() on a leaf");
        (node.left, node.right)
    }

    /// Hints the cache hierarchy to pull `u`'s child nodes — the next
    /// level's dependent loads in a weighted descent (see
    /// `iqs_alias::prefetch`). A no-op on leaves and out-of-range ids,
    /// so callers may issue it speculatively for nodes they might not
    /// descend into; it never changes observable state.
    #[inline(always)]
    pub fn prefetch_children(&self, u: NodeId) {
        let Some(node) = self.nodes.get(u as usize) else { return };
        if node.left != NIL {
            iqs_alias::prefetch::slice_element(&self.nodes, node.left as usize);
            iqs_alias::prefetch::slice_element(&self.nodes, node.right as usize);
        }
    }

    /// All node leaf-intervals, indexed by [`NodeId`] — the input an
    /// [`crate::IntervalSampler`] needs to serve every node.
    pub fn all_leaf_ranges(&self) -> Vec<(usize, usize)> {
        self.nodes.iter().map(|n| (n.lo as usize, n.hi as usize)).collect()
    }

    /// The canonical cover of Figure 1: `O(log n)` nodes with disjoint
    /// subtrees whose leaves are exactly the ranks `[a, b)`. Empty vector
    /// for an empty range.
    pub fn canonical_nodes(&self, a: usize, b: usize) -> Vec<NodeId> {
        // At most two nodes per level: sized once, never regrown.
        let mut out = Vec::with_capacity(2 * self.height as usize + 1);
        if a < b {
            self.canonical_rec(self.root, a as u32, (b as u32).min(self.n as u32), &mut out);
        }
        out
    }

    fn canonical_rec(&self, u: NodeId, a: u32, b: u32, out: &mut Vec<NodeId>) {
        let node = &self.nodes[u as usize];
        if a <= node.lo && node.hi <= b {
            out.push(u);
            return;
        }
        if node.left == NIL {
            return; // leaf outside [a, b)
        }
        let mid = self.nodes[node.left as usize].hi;
        if a < mid {
            self.canonical_rec(node.left, a, b, out);
        }
        if b > mid {
            self.canonical_rec(node.right, a, b, out);
        }
    }
}

impl SpaceUsage for RankBst {
    fn space_words(&self) -> usize {
        vec_words(&self.nodes)
    }
}

/// A static balanced binary search tree over `n` sorted keys, following the
/// conventions of Section 3.2 of the paper:
///
/// * height `O(log n)` (minimum height via repeated median splits);
/// * the `n` leaves store the elements in key order;
/// * every internal node has exactly two children, left keys < right keys;
/// * each node knows the total weight `w(u)` of the leaves in its subtree.
///
/// The structure's job in the IQS constructions is *navigational*: it maps
/// a query interval `q = [x, y]` to the `O(log n)` canonical nodes of
/// Figure 1 via [`StaticBst::canonical_nodes`]. Keys are generic over any
/// totally ordered `Copy` type.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StaticBst<K> {
    keys: Vec<K>,
    weights: Vec<f64>,
    inner: RankBst,
}

impl<K: Copy + PartialOrd> StaticBst<K> {
    /// Builds the tree over strictly increasing `keys` with per-element
    /// positive weights, in `O(n)` time (after the caller's sort).
    ///
    /// # Errors
    /// [`BstError`] on empty input, unsorted keys, or length mismatch.
    pub fn new(keys: Vec<K>, weights: Vec<f64>) -> Result<Self, BstError> {
        if keys.is_empty() {
            return Err(BstError::Empty);
        }
        if keys.len() != weights.len() {
            return Err(BstError::LengthMismatch);
        }
        for i in 1..keys.len() {
            if keys[i - 1].partial_cmp(&keys[i]) != Some(std::cmp::Ordering::Less) {
                return Err(BstError::NotSorted { index: i });
            }
        }
        let inner = RankBst::new(&weights)?;
        Ok(StaticBst { keys, weights, inner })
    }

    /// Builds the tree with unit weights.
    pub fn with_unit_weights(keys: Vec<K>) -> Result<Self, BstError> {
        let w = vec![1.0; keys.len()];
        Self::new(keys, w)
    }

    /// Number of elements (leaves).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the tree is empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Tree height; `O(log n)` by construction.
    pub fn height(&self) -> u32 {
        self.inner.height()
    }

    /// Total number of nodes (`2n - 1`).
    pub fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.inner.root()
    }

    /// The sorted keys, by rank.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Per-element weights, by rank.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Subtree weight `w(u)`.
    pub fn node_weight(&self, u: NodeId) -> f64 {
        self.inner.node_weight(u)
    }

    /// Leaf (rank) interval `[lo, hi)` below `u`.
    pub fn leaf_range(&self, u: NodeId) -> (usize, usize) {
        self.inner.leaf_range(u)
    }

    /// Number of leaves below `u`.
    pub fn node_count_leaves(&self, u: NodeId) -> usize {
        self.inner.node_count_leaves(u)
    }

    /// True when `u` is a leaf.
    pub fn is_leaf(&self, u: NodeId) -> bool {
        self.inner.is_leaf(u)
    }

    /// Children of an internal node.
    ///
    /// # Panics
    /// Panics if `u` is a leaf.
    pub fn children(&self, u: NodeId) -> (NodeId, NodeId) {
        self.inner.children(u)
    }

    /// Maps a closed key interval `[x, y]` to the half-open rank interval
    /// `[a, b)` of the elements it contains, in `O(log n)` time.
    pub fn rank_range(&self, x: K, y: K) -> (usize, usize) {
        let a = self.keys.partition_point(|k| *k < x);
        let b = self.keys.partition_point(|k| *k <= y);
        (a, b.max(a))
    }

    /// The canonical cover of Figure 1 for rank range `[a, b)`.
    pub fn canonical_nodes(&self, a: usize, b: usize) -> Vec<NodeId> {
        self.inner.canonical_nodes(a, b)
    }

    /// Reports all ranks in the key interval `[x, y]` — the conventional
    /// range *reporting* query (`O(log n + k)`), used by the
    /// report-then-sample baseline.
    pub fn report(&self, x: K, y: K) -> std::ops::Range<usize> {
        let (a, b) = self.rank_range(x, y);
        a..b
    }
}

impl<K> SpaceUsage for StaticBst<K> {
    fn space_words(&self) -> usize {
        vec_words(&self.keys) + vec_words(&self.weights) + self.inner.space_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bst(n: usize) -> StaticBst<i64> {
        StaticBst::with_unit_weights((0..n as i64).collect()).unwrap()
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(StaticBst::<i64>::with_unit_weights(vec![]).unwrap_err(), BstError::Empty);
        assert_eq!(
            StaticBst::with_unit_weights(vec![1, 1]).unwrap_err(),
            BstError::NotSorted { index: 1 }
        );
        assert_eq!(
            StaticBst::with_unit_weights(vec![2, 1]).unwrap_err(),
            BstError::NotSorted { index: 1 }
        );
        assert_eq!(StaticBst::new(vec![1, 2], vec![1.0]).unwrap_err(), BstError::LengthMismatch);
        assert!(RankBst::new(&[]).is_err());
    }

    #[test]
    fn node_count_and_height() {
        for n in [1usize, 2, 3, 7, 8, 100, 1024, 1025] {
            let t = bst(n);
            assert_eq!(t.node_count(), 2 * n - 1, "n={n}");
            let h = t.height() as f64;
            assert!(h <= (n as f64).log2().ceil() + 1.0, "n={n}, h={h}");
        }
    }

    #[test]
    fn rank_range_maps_closed_intervals() {
        let t = bst(10);
        assert_eq!(t.rank_range(3, 6), (3, 7));
        assert_eq!(t.rank_range(-5, 100), (0, 10));
        assert_eq!(t.rank_range(4, 4), (4, 5));
        let (a, b) = t.rank_range(6, 3);
        assert_eq!(a, b);
        let t2 = StaticBst::with_unit_weights(vec![0i64, 10, 20]).unwrap();
        assert_eq!(t2.rank_range(1, 9), (1, 1));
    }

    #[test]
    fn canonical_nodes_partition_the_range() {
        let t = bst(37);
        for a in 0..37 {
            for b in a..=37 {
                let cover = t.canonical_nodes(a, b);
                let mut ranges: Vec<(usize, usize)> =
                    cover.iter().map(|&u| t.leaf_range(u)).collect();
                ranges.sort_unstable();
                let mut pos = a;
                for (lo, hi) in ranges {
                    assert_eq!(lo, pos, "gap/overlap in cover of [{a},{b})");
                    pos = hi;
                }
                assert_eq!(pos, b.max(a));
            }
        }
    }

    #[test]
    fn canonical_cover_is_logarithmic() {
        let t = bst(1 << 14);
        for (a, b) in [(0, 1 << 14), (1, (1 << 14) - 1), (123, 9876), (5000, 5001)] {
            let cover = t.canonical_nodes(a, b);
            assert!(cover.len() <= 2 * 15, "cover size {} for [{a},{b})", cover.len());
        }
    }

    #[test]
    fn node_weights_aggregate() {
        let keys: Vec<i64> = (0..9).collect();
        let weights: Vec<f64> = (1..=9).map(f64::from).collect();
        let t = StaticBst::new(keys, weights).unwrap();
        assert!((t.node_weight(t.root()) - 45.0).abs() < 1e-12);
        for u in 0..t.node_count() as NodeId {
            if !t.is_leaf(u) {
                let (l, r) = t.children(u);
                assert!((t.node_weight(u) - t.node_weight(l) - t.node_weight(r)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn single_element_tree() {
        let t = StaticBst::new(vec![5i64], vec![2.0]).unwrap();
        assert_eq!(t.height(), 0);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.canonical_nodes(0, 1), vec![t.root()]);
        assert_eq!(t.rank_range(5, 5), (0, 1));
        assert_eq!(t.rank_range(6, 9), (1, 1));
    }

    #[test]
    fn report_matches_linear_scan() {
        let keys: Vec<i64> = vec![2, 3, 5, 7, 11, 13, 17, 19, 23];
        let t = StaticBst::with_unit_weights(keys.clone()).unwrap();
        for x in 0..25i64 {
            for y in x..25i64 {
                let want: Vec<usize> =
                    (0..keys.len()).filter(|&i| keys[i] >= x && keys[i] <= y).collect();
                let got: Vec<usize> = t.report(x, y).collect();
                assert_eq!(got, want, "q=[{x},{y}]");
            }
        }
    }

    #[test]
    fn float_keys_work() {
        let t = StaticBst::with_unit_weights(vec![0.5f64, 1.5, 2.5]).unwrap();
        assert_eq!(t.rank_range(1.0, 3.0), (1, 3));
    }

    #[test]
    fn rank_bst_allows_arbitrary_weight_sequences() {
        // RankBst has no keys, so "duplicate coordinates" are fine.
        let t = RankBst::new(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(t.len(), 4);
        let cover = t.canonical_nodes(1, 3);
        let covered: usize = cover.iter().map(|&u| t.node_count_leaves(u)).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn reweigh_is_the_fresh_tree_after_random_leaf_edits() {
        // Weights 2^±60 apart make any change in the order of the
        // additions show in the low bits; `Debug` prints every one.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for n in [1usize, 2, 3, 7, 64, 65, 1000] {
            let mut weights: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / 3.0).collect();
            let mut t = RankBst::new(&weights).unwrap();
            for round in 0..20 {
                let mut leaves: Vec<usize> = (0..next(12)).map(|_| next(n)).collect();
                for &leaf in &leaves {
                    weights[leaf] = 2f64.powi(next(121) as i32 - 60) * 1.1;
                }
                leaves.sort_unstable();
                t.reweigh(&weights, &leaves);
                let fresh = RankBst::new(&weights).unwrap();
                assert_eq!(format!("{t:?}"), format!("{fresh:?}"), "n = {n}, round {round}");
            }
        }
    }

    #[test]
    fn all_leaf_ranges_indexed_by_node_id() {
        let t = RankBst::new(&[1.0; 9]).unwrap();
        let ranges = t.all_leaf_ranges();
        assert_eq!(ranges.len(), t.node_count());
        for u in 0..t.node_count() as NodeId {
            assert_eq!(ranges[u as usize], t.leaf_range(u));
        }
    }
}
