use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::machine::{EmArray, EmMachine};

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
    let items_per_block = input.items_per_block();
    // Memory in *items* of T: frames × items-per-block.
    let mem_items = (machine.frame_count() * items_per_block).max(2 * items_per_block);

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

    // Phase 2: merge passes with fan-in M/B - 2 (one frame for the output
    // run, one of slack so LRU never evicts an active input block).
    let fan_in = (machine.frame_count().saturating_sub(2)).max(2);
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
