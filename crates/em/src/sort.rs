use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use rand::Rng;

use crate::machine::{EmArray, EmMachine};

/// Items of `per_block` a block that memory holds: `M/B` frames of
/// them (at least two, as the model's `M ≥ 2B`). A sort run is this
/// long, and a shuffle permutes this many in memory.
fn memory_items(machine: &EmMachine, per_block: usize) -> usize {
    machine.frame_count() * per_block
}

/// Fan-in of a merge, fan-out of a scatter: `M/B − 2` runs or buckets
/// (one frame for the output, one of slack so LRU never evicts an
/// active block), and never fewer than two.
fn fan(machine: &EmMachine) -> usize {
    machine.frame_count().saturating_sub(2).max(2)
}

/// Multi-way external merge sort of `u64` keys: sorts `input` (by the
/// key function) in `O((n/B) · log_{M/B}(n/B))` I/Os, the
/// Aggarwal–Vitter bound. The sort is stable: items with equal keys keep
/// their input order.
///
/// Phase 1 forms runs of `M` items in memory (each run costs one
/// sequential read + one sequential write) by a stable LSD radix sort:
/// one counting pass per 11-bit digit, skipping every digit on which the
/// run's keys all agree, in buffers kept from run to run; a run of at
/// most 64 items is insertion-sorted instead. A run is therefore the
/// stable comparison sort's, item for item. Phase 2 repeatedly merges
/// groups of up to `M/B - 1` runs until a single run remains; each pass
/// scans the data once. Scratch arrays are discarded without write-back.
///
/// Returns a new sorted array; `input` is consumed and discarded.
pub fn external_sort<T, F>(machine: &EmMachine, input: EmArray<T>, key: F) -> EmArray<T>
where
    T: Copy,
    F: Fn(&T) -> u64,
{
    let n = input.len();
    if n == 0 {
        return input;
    }
    let mem_items = memory_items(machine, input.items_per_block());

    // Phase 1: run formation.
    let mut runs: Vec<EmArray<T>> = Vec::new();
    let mut radix = RadixSort::default();
    let mut start = 0usize;
    while start < n {
        let end = (start + mem_items).min(n);
        input.scan(start, end, |items| radix.load(items));
        // The array_from placement is free; charge the sequential write
        // pass that emits the run.
        let run = machine.array_from(radix.sort(&key).to_vec());
        run.mark_written(0, run.len());
        runs.push(run);
        start = end;
    }
    input.discard();

    // Phase 2: merge passes with fan-in M/B - 2.
    let fan_in = fan(machine);
    while runs.len() > 1 {
        let mut next: Vec<EmArray<T>> = Vec::new();
        for group in runs.chunks(fan_in) {
            next.push(merge_group(machine, group, &key));
        }
        for r in runs {
            r.discard();
        }
        runs = next;
    }
    runs.pop().expect("at least one run")
}

/// A uniformly random permutation of `items`, written to a new disk
/// array in fewer block transfers than [`external_sort`] spends
/// ordering the same items by random keys (`crates/em/tests/shuffle.rs`
/// holds this on random machines; it is measured, not proven).
///
/// `items` is a stream the caller has just generated (a pool build's
/// draws): it is consumed in order, and holding it costs nothing, as
/// [`EmMachine::array_from`]'s placement costs nothing.
///
/// * `n` items that fit in memory (the `M` items of one
///   [`external_sort`] run) are permuted in place by one Fisher–Yates
///   pass and written by one sequential pass: `⌈n/B⌉` block writes and
///   no read.
/// * More are permuted by Rao–Sandelius with the bucket sizes fixed in
///   advance: `k` buckets, the fewest that hold at most `M/2` items
///   each (reading one back leaves half the buffer pool to blocks the
///   caller keeps cached) but at most `M/B − 2` (the merge's fan-in),
///   of sizes `⌊n/k⌋` and `⌈n/k⌉`. Each item, as it arrives, goes to a
///   random bucket drawn as from an urn that holds every bucket's places
///   still open. Each bucket is then read back and permuted the same
///   way — in memory when it fits, else scattered again — and written
///   to its place in the output. A level writes and reads every
///   bucket's blocks once; the output is one more write pass. The
///   sizes, and so the levels and the blocks every pass touches, depend
///   on `n`, `M` and `B` alone.
///
/// The permutation is uniform: the urn makes each split of the items
/// into buckets of the fixed sizes equally likely, and each bucket's
/// order is uniform, so every order of the output has probability
/// `1/n!`. The only bias is `random_range`'s, at most `width/2^64` a
/// draw. Buckets drawn independently and uniformly, as Rao and
/// Sandelius drew them, have random sizes, and a bucket over `M` costs
/// another level: with two to five frames such a shuffle transferred
/// more than the sort in up to 23 of 10,000 random cases, by up to ×1.5.
pub fn external_shuffle<T, R>(machine: &EmMachine, mut items: Vec<T>, rng: &mut R) -> EmArray<T>
where
    T: Copy,
    R: Rng + ?Sized,
{
    let per_block = machine.items_per_block::<T>();
    let mem_items = memory_items(machine, per_block);
    let n = items.len();
    if n <= mem_items {
        fisher_yates(&mut items, rng);
        let out = machine.array_from(items);
        out.mark_written(0, n);
        return out;
    }
    let out = machine.array_from(vec![items[0]; n]);
    let mut scatter = Scatter::new(machine, n, mem_items);
    scatter.push(&items, rng);
    drop(items);
    let mut placer = Placer { machine, out: &out, at: 0, mem_items, buffer: Vec::new() };
    placer.place(scatter.finish(), rng);
    debug_assert_eq!(placer.at, n);
    out
}

/// In-place Fisher–Yates: position `i`, from the last down, takes a
/// uniform pick of positions `0..=i`.
fn fisher_yates<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Writes permuted buckets to consecutive places of the output.
struct Placer<'a, T: Copy> {
    machine: &'a EmMachine,
    out: &'a EmArray<T>,
    /// The next output position to write.
    at: usize,
    /// Items a bucket may hold to be permuted in memory.
    mem_items: usize,
    /// The bucket being permuted, kept from bucket to bucket.
    buffer: Vec<T>,
}

impl<T: Copy> Placer<'_, T> {
    /// Permutes each bucket and writes it at the next output position,
    /// bucket by bucket: one that fits in memory is read, shuffled and
    /// written; a larger one is scattered again, a block at a time.
    fn place<R: Rng + ?Sized>(&mut self, buckets: Vec<EmArray<T>>, rng: &mut R) {
        for bucket in buckets {
            let len = bucket.len();
            if len <= self.mem_items {
                self.buffer.clear();
                bucket.scan(0, len, |items| self.buffer.extend_from_slice(items));
                bucket.discard();
                fisher_yates(&mut self.buffer, rng);
                self.out.write_fresh(self.at, &self.buffer);
                self.at += len;
                continue;
            }
            let per_block = bucket.items_per_block();
            let mut scatter = Scatter::new(self.machine, len, self.mem_items);
            for start in (0..len).step_by(per_block) {
                let end = (start + per_block).min(len);
                bucket.scan(start, end, |items| scatter.push(items, rng));
            }
            let sub = scatter.finish();
            bucket.discard();
            self.place(sub, rng);
        }
    }
}

/// A scatter pass in flight: the buckets on disk, the block each is
/// filling in memory, and the urn the next item's bucket is drawn from.
struct Scatter<T: Copy> {
    buckets: Vec<EmArray<T>>,
    buffers: Vec<Vec<T>>,
    /// One entry per place, naming its bucket; `urn[drawn..]` are the
    /// places still open, in no order that matters.
    urn: Vec<u32>,
    drawn: usize,
    per_block: usize,
}

impl<T: Copy> Scatter<T> {
    /// A scatter of `n` items into the fewest buckets that hold at most
    /// `M/2` of them each, at most the machine's fan-out, of sizes as
    /// equal as they can be.
    fn new(machine: &EmMachine, n: usize, mem_items: usize) -> Self {
        let k = (2 * n).div_ceil(mem_items).clamp(2, fan(machine));
        let mut urn = Vec::with_capacity(n);
        for b in 0..k {
            let bucket = u32::try_from(b).expect("a fan-out fits u32");
            urn.resize(urn.len() + n / k + usize::from(b < n % k), bucket);
        }
        Scatter {
            buckets: (0..k).map(|_| machine.array_from(Vec::new())).collect(),
            buffers: vec![Vec::new(); k],
            urn,
            drawn: 0,
            per_block: machine.items_per_block::<T>(),
        }
    }

    /// Writes every bucket's last, partial block and hands the buckets
    /// over.
    fn finish(mut self) -> Vec<EmArray<T>> {
        for (bucket, buffer) in self.buckets.iter_mut().zip(&self.buffers) {
            bucket.append(buffer);
        }
        self.buckets
    }

    /// Sends each item to the bucket of an open place drawn uniformly —
    /// a bucket with probability proportional to its open places — by a
    /// Fisher–Yates step on the urn, appending a bucket's block to its
    /// array as the block fills.
    fn push<R: Rng + ?Sized>(&mut self, items: &[T], rng: &mut R) {
        for &item in items {
            let place = rng.random_range(self.drawn..self.urn.len());
            self.urn.swap(self.drawn, place);
            let b = self.urn[self.drawn] as usize;
            self.drawn += 1;
            let buffer = &mut self.buffers[b];
            buffer.push(item);
            if buffer.len() == self.per_block {
                self.buckets[b].append(buffer);
                buffer.clear();
            }
        }
    }
}

/// Bits per radix digit: six counting passes cover a `u64`.
const DIGIT_BITS: u32 = 11;
/// Runs of at most this many items are insertion-sorted: below it, a
/// counting pass costs more in its `2^DIGIT_BITS` buckets than in items.
const INSERTION_CUT: usize = 64;

/// The run sorter's buffers, kept from run to run: the run, the buffer a
/// counting pass scatters it into, and one digit's bucket counts.
struct RadixSort<T> {
    items: Vec<T>,
    spare: Vec<T>,
    counts: Vec<usize>,
}

impl<T> Default for RadixSort<T> {
    fn default() -> Self {
        RadixSort { items: Vec::new(), spare: Vec::new(), counts: vec![0; 1 << DIGIT_BITS] }
    }
}

impl<T: Copy> RadixSort<T> {
    /// Replaces the run with `items`.
    fn load(&mut self, items: &[T]) {
        self.items.clear();
        self.items.extend_from_slice(items);
    }

    /// Sorts the run stably by `key`: equal keys keep their order.
    fn sort(&mut self, key: &impl Fn(&T) -> u64) -> &[T] {
        if self.items.len() <= INSERTION_CUT {
            insertion_sort(&mut self.items, key);
            return &self.items;
        }
        // A digit on which every key agrees would scatter the run into
        // one bucket, in order: skip it.
        let (all, any) =
            self.items.iter().map(key).fold((u64::MAX, 0), |(all, any), k| (all & k, any | k));
        let varying = all ^ any;
        let mask = (1u64 << DIGIT_BITS) - 1;
        self.spare.resize(self.items.len(), self.items[0]);
        for shift in (0..u64::BITS).step_by(DIGIT_BITS as usize) {
            if (varying >> shift) & mask == 0 {
                continue;
            }
            let digit = |item: &T| ((key(item) >> shift) & mask) as usize;
            self.counts.fill(0);
            for item in &self.items {
                self.counts[digit(item)] += 1;
            }
            let mut end = 0;
            for count in &mut self.counts {
                (*count, end) = (end, end + *count);
            }
            // Each bucket fills in run order, which is what keeps the
            // pass stable.
            for item in &self.items {
                let at = &mut self.counts[digit(item)];
                self.spare[*at] = *item;
                *at += 1;
            }
            std::mem::swap(&mut self.items, &mut self.spare);
        }
        &self.items
    }
}

/// Stable insertion sort by `key`: an item moves left only past larger
/// keys.
fn insertion_sort<T: Copy>(items: &mut [T], key: &impl Fn(&T) -> u64) {
    for i in 1..items.len() {
        let item = items[i];
        let k = key(&item);
        let mut j = i;
        while j > 0 && key(&items[j - 1]) > k {
            items[j] = items[j - 1];
            j -= 1;
        }
        items[j] = item;
    }
}

/// A merge input: one run read a block at a time into a private buffer,
/// so each of its blocks is charged to the pool exactly once.
struct RunCursor<'a, T: Copy> {
    run: &'a EmArray<T>,
    /// The buffered block and the read position inside it.
    block: Vec<T>,
    at: usize,
    /// First run index not yet buffered.
    next: usize,
}

impl<'a, T: Copy> RunCursor<'a, T> {
    fn new(run: &'a EmArray<T>) -> Self {
        let mut cursor = RunCursor { run, block: Vec::new(), at: 0, next: 0 };
        cursor.refill();
        cursor
    }

    fn refill(&mut self) {
        let end = (self.next + self.run.items_per_block()).min(self.run.len());
        self.block.clear();
        self.run.scan(self.next, end, |items| self.block.extend_from_slice(items));
        self.at = 0;
        self.next = end;
    }

    fn head(&self) -> Option<T> {
        self.block.get(self.at).copied()
    }

    fn advance(&mut self) {
        self.at += 1;
        if self.at == self.block.len() {
            self.refill();
        }
    }
}

/// Merges `runs` (non-empty: phase 1 never emits an empty run) holding
/// one buffered block per input plus one output block — the `M/B - 1`
/// frames the model grants a merge. The run heads wait in a min-heap of
/// `(key, run)`: the top is the smallest key, and on equal keys the
/// lowest run, which is what keeps the sort stable (runs are formed, and
/// merged, in input order). An output item costs `O(log(M/B))`
/// comparisons; the blocks touched, and their order, are the model's
/// alone.
fn merge_group<T, F>(machine: &EmMachine, runs: &[EmArray<T>], key: &F) -> EmArray<T>
where
    T: Copy,
    F: Fn(&T) -> u64,
{
    let total: usize = runs.iter().map(EmArray::len).sum();
    let mut cursors: Vec<RunCursor<'_, T>> = runs.iter().map(RunCursor::new).collect();
    let fill = cursors[0].head().expect("runs are non-empty");
    let out = machine.array_from(vec![fill; total]);
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = cursors
        .iter()
        .enumerate()
        .map(|(run, cursor)| Reverse((key(&cursor.head().expect("runs are non-empty")), run)))
        .collect();
    let mut out_block = Vec::with_capacity(out.items_per_block());
    let mut written = 0usize;
    while let Some(mut top) = heads.peek_mut() {
        let Reverse((_, run)) = *top;
        let cursor = &mut cursors[run];
        let head = cursor.head().expect("a run in the heap has a head");
        cursor.advance();
        match cursor.head() {
            Some(next) => top.0 .0 = key(&next),
            None => {
                PeekMut::pop(top);
            }
        }
        out_block.push(head);
        if out_block.len() == out.items_per_block() || written + out_block.len() == total {
            out.write_fresh(written, &out_block);
            written += out_block.len();
            out_block.clear();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sorts_correctly() {
        let m = EmMachine::new(512, 64);
        let mut rng = StdRng::seed_from_u64(100);
        let data: Vec<u64> = (0..10_000).map(|_| rng.random()).collect();
        let mut want = data.clone();
        want.sort_unstable();
        let arr = m.array_from(data);
        let sorted = external_sort(&m, arr, |&x| x);
        let got = sorted.read_range(0, sorted.len());
        assert_eq!(got, want);
    }

    #[test]
    fn sorts_digit_edges_stably() {
        // Keys one below, at and one above every power of two (so at
        // every digit boundary), each twice and tagged with its input
        // position: one run takes a counting pass per digit, and equal
        // keys keep their order.
        let m = EmMachine::new(512, 64);
        let edges: Vec<u64> = (1..u64::BITS)
            .flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1])
            .chain([0, u64::MAX])
            .collect();
        let data: Vec<(u64, usize)> =
            edges.iter().rev().chain(&edges).copied().enumerate().map(|(i, k)| (k, i)).collect();
        assert!(data.len() > INSERTION_CUT, "the run takes the radix path");
        let mut want = data.clone();
        want.sort_by_key(|p| p.0);
        let sorted = external_sort(&m, m.array_from(data), |p| p.0);
        assert_eq!(sorted.read_range(0, sorted.len()), want);
    }

    #[test]
    fn empty_and_single() {
        let m = EmMachine::new(512, 64);
        let empty: EmArray<u64> = m.array_from(vec![]);
        assert_eq!(external_sort(&m, empty, |&x| x).len(), 0);
        let one = m.array_from(vec![42u64]);
        let sorted = external_sort(&m, one, |&x| x);
        assert_eq!(sorted.get(0), 42);
    }

    #[test]
    fn io_cost_is_near_linear_in_blocks() {
        // With M/B = 16 frames and n/M small, the sort needs only a couple
        // of passes: I/Os should be a small multiple of n/B.
        let m = EmMachine::new(64 * 16, 64);
        let mut rng = StdRng::seed_from_u64(101);
        let n = 64 * 256; // 256 blocks
        let data: Vec<u64> = (0..n as u64).map(|_| rng.random()).collect();
        let arr = m.array_from(data);
        m.reset_stats();
        let sorted = external_sort(&m, arr, |&x| x);
        assert_eq!(sorted.len(), n);
        let ios = m.stats().total();
        let blocks = (n / 64) as u64;
        // run formation (read+write) + ~2 merge passes: allow 8×.
        assert!(ios <= 8 * blocks, "ios {ios} vs blocks {blocks}");
    }

    #[test]
    fn sorts_under_the_minimum_memory() {
        // M = 2B: a two-way merge has three active blocks but only two
        // frames, so the cursors' buffered blocks must survive eviction.
        let m = EmMachine::new(2 * 16, 16);
        let mut rng = StdRng::seed_from_u64(102);
        let data: Vec<u64> = (0..1000).map(|_| rng.random_range(0..500)).collect();
        let mut want = data.clone();
        want.sort_unstable();
        m.reset_stats();
        let sorted = external_sort(&m, m.array_from(data), |&x| x);
        // 32-item runs → 32 runs → 5 binary merge passes, each reading
        // every block exactly once (63 blocks), after one formation pass.
        assert_eq!(m.stats().reads, 6 * 63);
        assert_eq!(sorted.read_range(0, sorted.len()), want);
    }

    #[test]
    fn sorts_pairs_by_first() {
        let m = EmMachine::new(512, 64);
        let data: Vec<(u64, u64)> = vec![(5, 0), (1, 1), (3, 2), (1, 3)];
        let arr = m.array_from(data);
        let sorted = external_sort(&m, arr, |p| p.0);
        let got = sorted.read_range(0, 4);
        assert_eq!(got.iter().map(|p| p.0).collect::<Vec<_>>(), vec![1, 1, 3, 5]);
    }
}
