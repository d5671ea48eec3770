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
//!   first key, and the boundary chunks of a key range;
//! * [`ChunkTree`] — the binary supernode hierarchy over the chunks: each
//!   node covers a chunk range and knows its mass, and a chunk-aligned
//!   range decomposes into `O(log(n/B))` canonical nodes;
//! * [`Pools`] — one pool of pre-drawn samples per node: built lazily by
//!   the caller's builder, consumed by sequential scan, each entry handed
//!   out exactly once, rebuilt on exhaustion.
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
}

impl ChunkDir {
    /// Directory of `n` items in chunks of `b`; `key(i)` is the `i`-th
    /// smallest key.
    pub fn new(n: usize, b: usize, key: impl Fn(usize) -> f64) -> Self {
        ChunkDir { n, b, min: (0..n.div_ceil(b)).map(|c| key(c * b)).collect() }
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
        (clo * self.b, (chi * self.b).min(self.n))
    }

    /// The chunks that hold the ends of the key range `[x, y]`: every
    /// in-range item of another chunk lies strictly between them.
    pub fn boundary_chunks(&self, x: f64, y: f64) -> (usize, usize) {
        let chunk_of = |k: f64| self.min.partition_point(|&c| c <= k).saturating_sub(1);
        (chunk_of(x), chunk_of(y))
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
    /// `[a, b)` by mass, one RNG word per sample, into `cover`: its
    /// [`Cover::shares`] are then `(node, its share)` left to right.
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
        cover.masses.clear();
        cover.masses.extend(cover.nodes.iter().map(|&u| self.mass(u)));
        let Some(total) = cover.masses.iter().copied().reduce(|x, y| x + y) else {
            cover.counts.clear();
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

/// Per-node pools of pre-drawn samples, each with its consumption cursor.
///
/// Every entry is an independent draw and is handed out exactly once,
/// which is what makes the outputs of all queries mutually independent.
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

    /// Makes pool `u` hold an unconsumed sample: `build`s it when it was
    /// never built or has run dry. The old pool's blocks are discarded
    /// (no write-back) only once the new pool is on disk.
    pub fn refill(&mut self, u: u32, build: impl FnOnce() -> EmArray<T>) {
        let slot = &mut self.slots[u as usize];
        if slot.as_ref().is_some_and(|(pool, cursor)| *cursor < pool.len()) {
            return;
        }
        if let Some((old, _)) = slot.replace((build(), 0)) {
            old.discard();
            self.rebuilds += 1;
        }
    }

    /// Hands `count` samples of pool `u` to `emit`, in sequential runs,
    /// refilling through `build` whenever the pool runs dry.
    pub fn take_from_pool(
        &mut self,
        u: u32,
        count: usize,
        mut build: impl FnMut() -> EmArray<T>,
        mut emit: impl FnMut(&[T]),
    ) {
        let mut remaining = count;
        while remaining > 0 {
            self.refill(u, &mut build);
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
