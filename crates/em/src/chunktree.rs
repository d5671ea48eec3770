//! The skeleton under every Section-8 structure, written once.
//!
//! [`EmRangeSampler`](crate::EmRangeSampler) and
//! [`EmWeightedRangeSampler`](crate::EmWeightedRangeSampler) are the same
//! structure with a different *mass* per chunk — an item count or a
//! weight — and [`SamplePool`](crate::SamplePool) is its one-node case.
//! What they share lives here:
//!
//! * [`ChunkDir`] — the in-memory chunk directory (`O(n/B)` words of
//!   navigation metadata): sorted items in chunks of `b`, each chunk's
//!   first and last key, and a key range's [`Cut`] — the chunks it cuts
//!   (read) and the run it covers whole (never read);
//! * [`ChunkTree`] — the binary supernode hierarchy over the chunks: each
//!   node covers a chunk range and knows its mass, and a chunk-aligned
//!   range decomposes into `O(log(n/B))` canonical nodes;
//! * [`Pools`] — one pool of pre-drawn samples per node: built lazily by
//!   the caller's builder, consumed by sequential scan, each entry handed
//!   out exactly once, rebuilt on exhaustion at twice its last size until
//!   it holds one sample per item of its node (§8's size).
//!
//! The third shared decision — how `s` samples are split between groups
//! by mass — is `iqs_alias::split::{pick, split_counts}`: a binary search
//! over the groups' prefix sums per draw, landing where a CDF walk would.

use std::ops::Range;

use iqs_alias::split::{split_counts, Mass, Prefix};
use rand::Rng;

use crate::machine::EmArray;

const NIL: u32 = u32::MAX;

/// The chunk directory of `n` key-sorted items stored `b` to a chunk.
#[derive(Debug)]
pub(crate) struct ChunkDir {
    n: usize,
    b: usize,
    /// First key of each chunk.
    min: Vec<f64>,
    /// Last key of each chunk.
    max: Vec<f64>,
}

/// What a key range `[x, y]` does to a directory's chunks: the chunks
/// it meets are an optional `head` it cuts, a run it covers whole and an
/// optional `tail` it cuts, left to right. Only a cut chunk holds keys
/// outside the range, so only a cut chunk needs reading; a range that
/// meets one chunk and cuts it has that chunk as its `head`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Cut {
    pub head: Option<usize>,
    /// Chunks whose keys all lie in the range.
    pub covered: Range<usize>,
    pub tail: Option<usize>,
}

impl ChunkDir {
    /// Directory of `n` items in chunks of `b`; `key(i)` is the `i`-th
    /// smallest key.
    pub fn new(n: usize, b: usize, key: impl Fn(usize) -> f64) -> Self {
        let chunks = 0..n.div_ceil(b);
        let min = chunks.clone().map(|c| key(c * b)).collect();
        let max = chunks.map(|c| key(((c + 1) * b).min(n) - 1)).collect();
        ChunkDir { n, b, min, max }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Items per full chunk (only the last chunk can be short).
    pub fn chunk_len(&self) -> usize {
        self.b
    }

    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.min.len()
    }

    /// Item range `[lo, hi)` of the chunk range `[clo, chi)`.
    pub fn items(&self, clo: usize, chi: usize) -> (usize, usize) {
        ((clo * self.b).min(self.n), (chi * self.b).min(self.n))
    }

    /// The [`Cut`] of the key range `[x, y]`, from the directory alone.
    /// An inverted range or a NaN bound meets no chunk.
    ///
    /// The chunks the range meets — last key `≥ x`, first key `≤ y` —
    /// are a run, since keys are sorted across chunks. Every chunk of
    /// the run but its first and last lies between them, so inside the
    /// range; the first and last are cut when they reach past it.
    pub fn cut(&self, x: f64, y: f64) -> Cut {
        if y < x || x.is_nan() || y.is_nan() {
            return Cut::default();
        }
        let first = self.max.partition_point(|&k| k < x);
        let end = self.min.partition_point(|&k| k <= y);
        if first >= end {
            return Cut::default();
        }
        let cuts = |c: usize| self.min[c] < x || self.max[c] > y;
        let head = cuts(first).then_some(first);
        let tail = (end - 1 > first && cuts(end - 1)).then_some(end - 1);
        let covered = first + usize::from(head.is_some())..end - usize::from(tail.is_some());
        Cut { head, covered, tail }
    }
}

/// The run of a key-sorted chunk whose keys lie in `[x, y]` (`x ≤ y`):
/// the items a filter on `x ≤ key ≤ y` keeps, in their order, found by
/// two binary searches.
pub(crate) fn key_run<T>(chunk: &[T], x: f64, y: f64, key: impl Fn(&T) -> f64) -> Range<usize> {
    chunk.partition_point(|item| key(item) < x)..chunk.partition_point(|item| key(item) <= y)
}

#[derive(Debug)]
struct Node<M> {
    left: u32,
    right: u32,
    /// Chunk range `[lo, hi)` covered by this node.
    lo: u32,
    hi: u32,
    /// Total mass of the chunk range.
    mass: M,
}

/// The binary supernode hierarchy over a directory's chunks.
#[derive(Debug)]
pub(crate) struct ChunkTree<M> {
    pub dir: ChunkDir,
    nodes: Vec<Node<M>>,
    root: u32,
}

impl<M: Mass> ChunkTree<M> {
    /// Builds the hierarchy; `chunk_mass[c]` is the mass of chunk `c`.
    pub fn new(dir: ChunkDir, chunk_mass: &[M]) -> Self {
        debug_assert_eq!(chunk_mass.len(), dir.chunks());
        let mut nodes = Vec::with_capacity(2 * chunk_mass.len());
        let root = Self::build(&mut nodes, chunk_mass, 0, chunk_mass.len() as u32);
        ChunkTree { dir, nodes, root }
    }

    fn build(nodes: &mut Vec<Node<M>>, chunk_mass: &[M], lo: u32, hi: u32) -> u32 {
        let node = if hi - lo == 1 {
            Node { left: NIL, right: NIL, lo, hi, mass: chunk_mass[lo as usize] }
        } else {
            let mid = lo + (hi - lo) / 2;
            let left = Self::build(nodes, chunk_mass, lo, mid);
            let right = Self::build(nodes, chunk_mass, mid, hi);
            let mass = nodes[left as usize].mass + nodes[right as usize].mass;
            Node { left, right, lo, hi, mass }
        };
        nodes.push(node);
        (nodes.len() - 1) as u32
    }

    /// Number of nodes (one pool slot each).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Mass of the whole set.
    pub fn total(&self) -> M {
        self.mass(self.root)
    }

    /// Mass of node `u`'s chunk range.
    pub fn mass(&self, u: u32) -> M {
        self.nodes[u as usize].mass
    }

    /// Chunk range `[lo, hi)` of node `u`.
    pub fn chunk_range(&self, u: u32) -> (usize, usize) {
        let node = &self.nodes[u as usize];
        (node.lo as usize, node.hi as usize)
    }

    /// Item range `[lo, hi)` of node `u`.
    pub fn item_range(&self, u: u32) -> (usize, usize) {
        let (clo, chi) = self.chunk_range(u);
        self.dir.items(clo, chi)
    }

    /// Splits `s` samples over the canonical nodes of the chunk range
    /// `[a, b)` by mass, one RNG word per sample — none when one node
    /// covers the range —, into `cover`: its [`Cover::shares`] are then
    /// `(node, its share)` left to right.
    pub fn split_over_canonical<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        s: usize,
        rng: &mut R,
        cover: &mut Cover<M>,
    ) {
        cover.nodes.clear();
        self.canonical(a as u32, b as u32, self.root, &mut cover.nodes);
        cover.counts.clear();
        if cover.nodes.len() == 1 {
            cover.counts.push(s);
            return;
        }
        cover.masses.clear();
        cover.masses.extend(cover.nodes.iter().map(|&u| self.mass(u)));
        let Some(total) = cover.masses.iter().copied().reduce(|x, y| x + y) else {
            return;
        };
        split_counts(&cover.masses, total, s, rng, &mut cover.prefix, &mut cover.counts);
    }

    /// Appends the canonical nodes of the chunk range `[a, b)` under `u`.
    fn canonical(&self, a: u32, b: u32, u: u32, out: &mut Vec<u32>) {
        let node = &self.nodes[u as usize];
        if a <= node.lo && node.hi <= b {
            out.push(u);
            return;
        }
        if node.left == NIL {
            return;
        }
        let mid = self.nodes[node.left as usize].hi;
        if a < mid {
            self.canonical(a, b, node.left, out);
        }
        if b > mid {
            self.canonical(a, b, node.right, out);
        }
    }
}

/// A query's split over canonical nodes, in buffers its sampler keeps
/// from query to query: the nodes, their masses, the masses' prefix sums
/// and each node's share.
#[derive(Debug, Default)]
pub(crate) struct Cover<M> {
    nodes: Vec<u32>,
    masses: Vec<M>,
    prefix: Prefix<M>,
    counts: Vec<usize>,
}

impl<M> Cover<M> {
    /// `(node, its share)` of the last split, left to right.
    pub fn shares(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.nodes.iter().copied().zip(self.counts.iter().copied())
    }
}

/// A node's first pool holds `1/FIRST_POOL_DIVISOR` of §8's size — one
/// sample per item of the node —, and each rebuild doubles the last
/// pool until it holds §8's size. A node first touched by one small
/// query builds an eighth of its items, and one drained again and again
/// reaches §8's size after three rebuilds: each build reads
/// every chunk of the node once, so the ramp costs at most three chunk
/// scans of the node more than building at full size from the start,
/// and the steady state is §8's.
const FIRST_POOL_DIVISOR: usize = 8;

/// Per-node pools of pre-drawn samples, each with its consumption cursor.
///
/// Every entry is an independent draw and is handed out exactly once,
/// which is what makes the outputs of all queries mutually independent.
/// A pool's size is `min(items, max(⌈items/8⌉, 2 × last))` for a node of
/// `items` items whose previous pool held `last` ([`FIRST_POOL_DIVISOR`]);
/// a pool put in place by [`Pools::fill`] counts as its own `last`.
#[derive(Debug)]
pub(crate) struct Pools<T: Copy> {
    slots: Vec<Option<(EmArray<T>, usize)>>,
    rebuilds: u64,
}

impl<T: Copy> Pools<T> {
    /// `nodes` pool slots, none built yet.
    pub fn new(nodes: usize) -> Self {
        Pools { slots: (0..nodes).map(|_| None).collect(), rebuilds: 0 }
    }

    /// How many times a pool ran dry and was built again.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Puts `pool`, built eagerly by the caller, in place as node `u`'s
    /// first pool; a later rebuild is no smaller.
    pub fn fill(&mut self, u: u32, pool: EmArray<T>) {
        debug_assert!(self.slots[u as usize].is_none(), "pool {u} already built");
        self.slots[u as usize] = Some((pool, 0));
    }

    /// Makes pool `u`, over `items` items, hold an unconsumed sample:
    /// `build`s it when it was never built or has run dry, at the size
    /// the growth rule gives. The old pool's blocks are discarded (no
    /// write-back) only once the new pool is on disk.
    fn refill(&mut self, u: u32, items: usize, build: impl FnOnce(usize) -> EmArray<T>) {
        let slot = &mut self.slots[u as usize];
        let last = match slot {
            Some((pool, cursor)) if *cursor < pool.len() => return,
            Some((pool, _)) => pool.len(),
            None => 0,
        };
        let size = items.min(items.div_ceil(FIRST_POOL_DIVISOR).max(2 * last));
        if let Some((old, _)) = slot.replace((build(size), 0)) {
            old.discard();
            self.rebuilds += 1;
        }
    }

    /// Hands `count` samples of pool `u`, over `items` items, to `emit`,
    /// in sequential runs, refilling through `build` (given the size to
    /// build) whenever the pool runs dry.
    pub fn take_from_pool(
        &mut self,
        u: u32,
        items: usize,
        count: usize,
        mut build: impl FnMut(usize) -> EmArray<T>,
        mut emit: impl FnMut(&[T]),
    ) {
        let mut remaining = count;
        while remaining > 0 {
            self.refill(u, items, &mut build);
            let (pool, cursor) = self.slots[u as usize].as_mut().expect("just refilled");
            let take = remaining.min(pool.len() - *cursor);
            pool.scan(*cursor, *cursor + take, &mut emit);
            *cursor += take;
            remaining -= take;
        }
    }

    /// Drops every pool's blocks from the buffer pool without write-back;
    /// the next take builds afresh.
    pub fn discard(&mut self) {
        for (pool, _) in self.slots.iter_mut().filter_map(Option::take) {
            pool.discard();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EmMachine;

    #[test]
    fn a_pool_grows_to_its_nodes_size_by_doubling() {
        let machine = EmMachine::new(64 * 8, 64);
        let mut pools = Pools::new(1);
        let items = 1024;
        let mut sizes = Vec::new();
        // One sample a take: every build is drained before the next.
        while sizes.len() < 5 {
            pools.take_from_pool(
                0,
                items,
                1,
                |size| {
                    sizes.push(size);
                    machine.array_from(vec![0u64; size])
                },
                |_| {},
            );
        }
        assert_eq!(sizes, [items / 8, items / 4, items / 2, items, items]);
        assert_eq!(pools.rebuilds(), 4);
    }

    #[test]
    fn an_eagerly_filled_pool_is_rebuilt_at_its_size() {
        let machine = EmMachine::new(64 * 8, 64);
        let mut pools = Pools::new(1);
        pools.fill(0, machine.array_from(vec![0u64; 100]));
        let mut sizes = Vec::new();
        pools.take_from_pool(
            0,
            100,
            250,
            |size| {
                sizes.push(size);
                machine.array_from(vec![0u64; size])
            },
            |_| {},
        );
        assert_eq!(sizes, [100, 100]);
        // A node of fewer than eight items starts at one sample.
        let mut small = Pools::new(1);
        small.take_from_pool(
            0,
            3,
            1,
            |size| machine.array_from(vec![0u64; size]),
            |run| assert_eq!(run.len(), 1),
        );
    }

    #[test]
    fn a_cut_is_a_head_a_covered_run_and_a_tail() {
        // Keys 0..10 in chunks of 4: [0..3] [4..7] [8, 9].
        let dir = ChunkDir::new(10, 4, |i| i as f64);
        let cut = |x: f64, y: f64| {
            let Cut { head, covered, tail } = dir.cut(x, y);
            (head, covered, tail)
        };
        assert_eq!(cut(0.0, 9.0), (None, 0..3, None));
        assert_eq!(cut(-5.0, 50.0), (None, 0..3, None));
        assert_eq!(cut(0.0, 7.0), (None, 0..2, None));
        assert_eq!(cut(1.0, 7.0), (Some(0), 1..2, None));
        assert_eq!(cut(4.0, 8.5), (None, 1..2, Some(2)));
        assert_eq!(cut(1.0, 8.5), (Some(0), 1..2, Some(2)));
        assert_eq!(cut(3.0, 4.0), (Some(0), 1..1, Some(1)));
        assert_eq!(cut(5.0, 6.0), (Some(1), 2..2, None));
        assert_eq!(cut(4.0, 7.0), (None, 1..2, None));
        assert_eq!(cut(3.5, 7.5), (None, 1..2, None));
        for (x, y) in
            [(7.0, 3.0), (3.5, 3.7), (f64::NAN, 5.0), (5.0, f64::NAN), (10.5, 20.0), (-3.0, -1.0)]
        {
            assert_eq!(dir.cut(x, y), Cut::default(), "[{x}, {y}]");
        }
        // Equal keys across chunks: a range of that key covers them.
        let keys = [1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 9.0, 9.0];
        let dir = ChunkDir::new(keys.len(), 4, |i| keys[i]);
        let Cut { head, covered, tail } = dir.cut(5.0, 5.0);
        assert_eq!((head, covered, tail), (Some(0), 1..2, Some(2)));
    }
}
