//! An external-memory (EM) machine simulator and the EM sampling
//! structures of Section 8 of Tao (PODS 2022).
//!
//! The EM model of Aggarwal–Vitter: a machine with `M` words of memory and
//! a disk formatted into blocks of `B` words (`M ≥ 2B`). An algorithm's
//! cost is the number of block transfers (I/Os); CPU time is free.
//!
//! We *simulate* the model rather than run on a real disk — which is
//! faithful, because the model's metric **is** the count of block
//! transfers, and a buffer-pool simulator counts exactly those:
//!
//! * [`EmMachine`] — an LRU buffer pool of `M/B` block frames shared by
//!   all arrays, counting block reads, (dirty) writes, and block-touch
//!   hits/misses; the machine is `Send + Sync`, so a serving tier can
//!   draw from one simulated disk on many worker threads. The pool is a
//!   frame table on an index-linked recency list, so the simulator's own
//!   bookkeeping is `O(1)` per block touch, hit or miss;
//! * [`EmArray`] — a disk-resident array whose accesses fault blocks
//!   through the machine: a sequential run touches each of its blocks
//!   once, a single-item access touches one;
//! * [`external_sort`] — stable multi-way external merge sort of `u64`
//!   keys, `O((n/B) log_{M/B}(n/B))` I/Os: runs are formed by a stable
//!   LSD radix sort in buffers kept from run to run, and merged through a
//!   heap of `(key, run)` heads;
//! * [`external_shuffle`] — a uniform random permutation of a stream of
//!   items onto the disk, in fewer transfers than the sort by random
//!   keys it replaces: one Fisher–Yates pass and one sequential write
//!   (`⌈n/B⌉` writes, no read) when the items fit in memory, else
//!   Rao–Sandelius scatters into random buckets of sizes fixed in
//!   advance;
//! * [`SamplePool`] — Section 8's set-sampling structure: `n` pre-drawn WR
//!   samples consumed sequentially and rebuilt (by sorting) on exhaustion;
//!   amortized `O((1/B) log_{M/B}(n/B))` I/Os per sample, matching the
//!   Hu et al. lower bound, versus the naive `O(1)`-I/O-per-sample
//!   random-access baseline ([`NaiveEmSampler`]);
//! * [`EmRangeSampler`] — the Hu-et-al-style WR *range* sampling
//!   structure: chunked keys under a binary supernode hierarchy whose
//!   every node keeps a pre-drawn sample pool, giving amortized
//!   `O(log(n/B) + (s/B) log_{M/B}(n/B))` I/Os per query;
//! * [`EmWeightedRangeSampler`] — a Direction-2 exploration: the natural
//!   *weighted* generalization (the paper lists worst-case weighted EM
//!   range sampling as open), measured to match the conjectured
//!   amortized shape on our workloads. Its pools are permuted by
//!   [`external_shuffle`], not sorted: i.i.d. draws need a random order,
//!   not a sorted one.
//!
//! The three samplers are one structure at three sizes: the chunk
//! directory, the supernode hierarchy and the pool lifecycle are written
//! once (the private `chunktree` module), and every split of `s` samples
//! between groups is `iqs_alias::split::split_counts`.
//!
//! The model charges block transfers only, but the cold tier serves real
//! requests from these structures and pays their CPU. Every categorical
//! pick — a chunk's item by weight, a node's chunk, a canonical node, a
//! cut chunk's piece — sums its group list once into prefix sums
//! (`iqs_alias::split::Prefix`) and finds each draw's group by binary
//! search, `O(log t)` where a CDF walk was `O(t)`. The search lands on the
//! walk's group for every point (the walk answers the rare point within
//! rounding of a prefix sum), so every draw, RNG word and block transfer
//! is the walk's. The weighted sampler keeps what a query fills — the
//! split buffers, the canonical node list, a pool build's chunk — and a
//! [`RangePlan`] is filled in place, its cut pieces copied from a
//! chunk between two binary searches: after its first queries, a cold
//! draw allocates only in a pool build, for the draws that become the
//! pool and, past `M` of them, the shuffle's buckets.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod chunktree;
mod machine;
mod rangesampler;
mod samplepool;
mod sort;
mod weighted;

pub use machine::{EmArray, EmMachine, IoStats, IoStatsDiffError};
pub use rangesampler::{EmRangeSampler, NaiveEmRangeSampler};
pub use samplepool::{NaiveEmSampler, SamplePool};
pub use sort::{external_shuffle, external_sort};
pub use weighted::{EmWeightedRangeSampler, RangePlan};
