use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::machine::{EmArray, EmMachine};

/// Multi-way external merge sort: sorts `input` (by the key function) in
/// `O((n/B) · log_{M/B}(n/B))` I/Os, the Aggarwal–Vitter bound. The sort
/// is stable: items with equal keys keep their input order.
///
/// Phase 1 forms runs of `M` items by in-memory sorting (each run costs
/// one sequential read + one sequential write). Phase 2 repeatedly merges
/// groups of up to `M/B - 1` runs until a single run remains; each pass
/// scans the data once. Scratch arrays are discarded without write-back.
///
/// Returns a new sorted array; `input` is consumed and discarded.
pub fn external_sort<T, K, F>(machine: &EmMachine, input: EmArray<T>, key: F) -> EmArray<T>
where
    T: Copy,
    K: PartialOrd,
    F: Fn(&T) -> K,
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
    let mut start = 0usize;
    while start < n {
        let end = (start + mem_items).min(n);
        let mut buf = input.read_range(start, end);
        buf.sort_by(|a, b| key(a).partial_cmp(&key(b)).expect("sortable keys"));
        // The array_from placement is free; charge the sequential write
        // pass that emits the run.
        let run = machine.array_from(buf);
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

/// A run's head in the merge heap. The order is reversed (std's heap
/// is a max-heap) so the top is the least `(key, run)`: the smallest
/// key, and on equal keys the lowest run, which is what keeps the sort
/// stable (runs are formed, and merged, in input order).
struct Head<K> {
    key: K,
    run: usize,
}

impl<K: PartialOrd> Ord for Head<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.partial_cmp(&self.key).expect("sortable keys").then(other.run.cmp(&self.run))
    }
}

impl<K: PartialOrd> PartialOrd for Head<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: PartialOrd> PartialEq for Head<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: PartialOrd> Eq for Head<K> {}

/// Merges `runs` (non-empty: phase 1 never emits an empty run) holding
/// one buffered block per input plus one output block — the `M/B - 1`
/// frames the model grants a merge. The run heads wait in a binary
/// heap, so an output item costs `O(log(M/B))` comparisons; the blocks
/// touched, and their order, are the model's alone.
fn merge_group<T, K, F>(machine: &EmMachine, runs: &[EmArray<T>], key: &F) -> EmArray<T>
where
    T: Copy,
    K: PartialOrd,
    F: Fn(&T) -> K,
{
    let total: usize = runs.iter().map(EmArray::len).sum();
    let mut cursors: Vec<RunCursor<'_, T>> = runs.iter().map(RunCursor::new).collect();
    let fill = cursors[0].head().expect("runs are non-empty");
    let out = machine.array_from(vec![fill; total]);
    let mut heads: BinaryHeap<Head<K>> = cursors
        .iter()
        .enumerate()
        .map(|(run, cursor)| Head { key: key(&cursor.head().expect("runs are non-empty")), run })
        .collect();
    let mut out_block = Vec::with_capacity(out.items_per_block());
    let mut written = 0usize;
    while let Some(mut top) = heads.peek_mut() {
        let cursor = &mut cursors[top.run];
        let head = cursor.head().expect("a run in the heap has a head");
        cursor.advance();
        match cursor.head() {
            Some(next) => top.key = key(&next),
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
    fn sorts_floats_by_key() {
        let m = EmMachine::new(512, 64);
        let data: Vec<f64> = vec![3.5, -1.0, 2.0, 0.0, -7.25];
        let arr = m.array_from(data);
        let sorted = external_sort(&m, arr, |&x| x);
        assert_eq!(sorted.read_range(0, 5), vec![-7.25, -1.0, 0.0, 2.0, 3.5]);
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
