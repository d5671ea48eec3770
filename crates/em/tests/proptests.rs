//! Property tests for the external-memory simulator.

use iqs_em::{external_sort, EmArray, EmMachine, IoStats};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reference LRU pool over block keys `(array, block)`: frames kept
/// in recency order, least recent first, and searched linearly. It
/// counts what [`IoStats`] counts, by the textbook rules and nothing
/// else.
struct ReferencePool {
    frames: usize,
    resident: Vec<((usize, usize), bool)>,
    stats: IoStats,
}

impl ReferencePool {
    fn new(frames: usize) -> Self {
        ReferencePool { frames, resident: Vec::new(), stats: IoStats::default() }
    }

    fn touch(&mut self, block: (usize, usize), write: bool, no_fetch: bool) {
        let dirty = match self.resident.iter().position(|&(k, _)| k == block) {
            Some(at) => {
                self.stats.hits += 1;
                self.resident.remove(at).1 | write
            }
            None => {
                self.stats.misses += 1;
                if self.resident.len() == self.frames && self.resident.remove(0).1 {
                    self.stats.writes += 1;
                }
                if !no_fetch {
                    self.stats.reads += 1;
                }
                write
            }
        };
        self.resident.push((block, dirty));
    }

    /// The run charge: each block of the item run `[start, end)` once,
    /// in order. A run that writes fetches nothing (`write_fresh` and
    /// `mark_written` are write-allocate-no-fetch).
    fn touch_run(&mut self, array: usize, per_block: usize, start: usize, end: usize, write: bool) {
        if start < end {
            for block in start / per_block..=(end - 1) / per_block {
                self.touch((array, block), write, write);
            }
        }
    }

    /// Drops an array's frames without write-backs.
    fn discard(&mut self, array: usize) {
        self.resident.retain(|&((a, _), _)| a != array);
    }

    fn flush(&mut self) {
        self.stats.writes += self.resident.drain(..).filter(|&(_, dirty)| dirty).count() as u64;
    }
}

proptest! {
    /// External sort equals std sort for arbitrary inputs and machine
    /// shapes.
    #[test]
    fn external_sort_correct(
        data in pvec(0u64..1_000_000, 0..3000),
        frames in 2usize..16,
        block in 1usize..128,
    ) {
        let machine = EmMachine::new(frames * block, block);
        let mut want = data.clone();
        want.sort_unstable();
        let arr = machine.array_from(data);
        let sorted = external_sort(&machine, arr, |&x| x);
        prop_assert_eq!(sorted.read_range(0, sorted.len()), want);
    }

    /// Array reads/writes round-trip under arbitrary access patterns,
    /// and cold sequential scans cost exactly ceil(n / items-per-block)
    /// reads.
    #[test]
    fn array_roundtrip_and_scan_cost(
        ops in pvec((0usize..500, 0u64..1000), 1..200),
        block in 1usize..64,
    ) {
        let machine = EmMachine::new(4 * block, block);
        let n = 500usize;
        let arr = machine.array_from(vec![0u64; n]);
        let mut shadow = vec![0u64; n];
        for &(i, v) in &ops {
            arr.set(i, v);
            shadow[i] = v;
        }
        for &(i, _) in &ops {
            prop_assert_eq!(arr.get(i), shadow[i]);
        }
        // Fresh machine: cold scan accounting.
        let m2 = EmMachine::new(4 * block, block);
        let a2 = m2.array_from(shadow);
        m2.reset_stats();
        for i in 0..n {
            a2.get(i);
        }
        prop_assert_eq!(m2.stats().reads as usize, n.div_ceil(a2.items_per_block()));
    }

    /// I/O counters are monotone and flush is idempotent.
    #[test]
    fn counters_monotone(writes in pvec(0usize..200, 1..100), block in 1usize..32) {
        let machine = EmMachine::new(2 * block, block);
        let arr = machine.array_from(vec![0u64; 200]);
        let mut last = 0u64;
        for &i in &writes {
            arr.set(i, 1);
            let now = machine.stats().total();
            prop_assert!(now >= last);
            last = now;
        }
        machine.flush();
        let after_flush = machine.stats().total();
        machine.flush();
        prop_assert_eq!(machine.stats().total(), after_flush);
    }

    /// Charging the pool per block of a run moves no transfer: any mix
    /// of single-item and run calls over two arrays reads and writes
    /// exactly the blocks the per-item accounting did, and leaves the
    /// same contents. (Hits and misses differ — that is the change.)
    #[test]
    fn run_api_transfers_match_per_item_accounting(
        ops in pvec((0u8..10, 0usize..300, 0usize..90, 0u64..1000), 1..120),
        frames in 2usize..6,
        block in 1usize..40,
    ) {
        let n = 300usize;
        let machine = EmMachine::new(frames * block, block);
        let arrays = [machine.array_from(vec![0u64; n]), machine.array_from(vec![0u64; n])];
        let mut model = ReferencePool::new(frames);
        let mut shadow = [vec![0u64; n], vec![0u64; n]];
        for &(op, start, len, value) in &ops {
            let a = usize::from(op % 2);
            let end = (start + len).min(n);
            match op / 2 {
                0 => {
                    prop_assert_eq!(arrays[a].get(start), shadow[a][start]);
                    model.touch((a, start / block), false, false);
                }
                1 => {
                    arrays[a].set(start, value);
                    shadow[a][start] = value;
                    model.touch((a, start / block), true, false);
                }
                2 => {
                    prop_assert_eq!(arrays[a].read_range(start, end), &shadow[a][start..end]);
                    (start..end).for_each(|i| model.touch((a, i / block), false, false));
                }
                3 => {
                    let items: Vec<u64> = (0..(end - start) as u64).map(|i| value + i).collect();
                    arrays[a].write_fresh(start, &items);
                    shadow[a][start..end].copy_from_slice(&items);
                    (start..end).for_each(|i| model.touch((a, i / block), true, true));
                }
                _ => {
                    arrays[a].mark_written(start, end);
                    (start..end).for_each(|i| model.touch((a, i / block), true, true));
                }
            }
            let stats = machine.stats();
            prop_assert_eq!((stats.reads, stats.writes), (model.stats.reads, model.stats.writes));
        }
        machine.flush();
        model.flush();
        prop_assert_eq!(machine.stats().writes, model.stats.writes);
        for (array, want) in arrays.iter().zip(&shadow) {
            prop_assert_eq!(&array.read_range(0, n), want);
        }
    }

    /// The buffer pool is a strict LRU, touch for touch: any mix of the
    /// array calls, discards and flushes over three arrays leaves exactly
    /// the reference pool's counters — reads, writes, hits and misses —
    /// after every op, and the arrays hold what was written.
    #[test]
    fn pool_matches_the_reference_lru_after_every_op(
        ops in pvec((0u8..7, 0usize..3, 0usize..240, 0usize..80, 0u64..1000), 1..160),
        frames in 2usize..16,
        block in 1usize..24,
    ) {
        const N: usize = 240;
        let machine = EmMachine::new(frames * block, block);
        let mut model = ReferencePool::new(frames);
        let mut arrays: Vec<EmArray<u64>> = (0..3).map(|_| machine.array_from(vec![0; N])).collect();
        let mut shadow = vec![vec![0u64; N]; 3];
        // The reference pool's name for each array; a discarded array
        // comes back as a fresh one under a new name.
        let mut names = [0usize, 1, 2];
        let mut next_name = 3;
        for &(op, a, start, len, value) in &ops {
            let end = (start + len).min(N);
            match op {
                0 => {
                    prop_assert_eq!(arrays[a].get(start), shadow[a][start]);
                    model.touch((names[a], start / block), false, false);
                }
                1 => {
                    arrays[a].set(start, value);
                    shadow[a][start] = value;
                    model.touch((names[a], start / block), true, false);
                }
                2 => {
                    let sum = arrays[a].scan(start, end, |items| items.iter().sum::<u64>());
                    prop_assert_eq!(sum, shadow[a][start..end].iter().sum::<u64>());
                    model.touch_run(names[a], block, start, end, false);
                }
                3 => {
                    let items: Vec<u64> = (0..(end - start) as u64).map(|i| value + i).collect();
                    arrays[a].write_fresh(start, &items);
                    shadow[a][start..end].copy_from_slice(&items);
                    model.touch_run(names[a], block, start, end, true);
                }
                4 => {
                    arrays[a].mark_written(start, end);
                    model.touch_run(names[a], block, start, end, true);
                }
                5 => {
                    std::mem::replace(&mut arrays[a], machine.array_from(vec![0; N])).discard();
                    shadow[a].fill(0);
                    model.discard(names[a]);
                    names[a] = next_name;
                    next_name += 1;
                }
                _ => {
                    machine.flush();
                    model.flush();
                }
            }
            prop_assert_eq!(machine.stats(), model.stats, "after op {:?}", (op, a, start, end));
        }
    }

    /// The merge takes equal keys from the earlier run, so the sort is
    /// stable: `(k % 7, i)` sorted by `k % 7` is `sort_by_key`'s order.
    #[test]
    fn external_sort_is_stable(
        data in pvec(0u64..1_000_000, 0..3000),
        frames in 2usize..16,
        block in 2usize..128,
    ) {
        let machine = EmMachine::new(frames * block, block);
        let items: Vec<(u64, usize)> = data.iter().enumerate().map(|(i, &k)| (k % 7, i)).collect();
        let mut want = items.clone();
        want.sort_by_key(|p| p.0);
        let sorted = external_sort(&machine, machine.array_from(items), |p| p.0);
        prop_assert_eq!(sorted.read_range(0, sorted.len()), want);
    }

    /// The run sort against `sort_by_key`, item for item with its
    /// payload (the input position), on key shapes a radix sort can get
    /// wrong: random keys, all-equal keys, keys differing only in bit 63
    /// or only in bit 0, values at every power-of-two edge (so at every
    /// digit edge) up to `u64::MAX`, shuffled ranks `0..n`, and heavy
    /// duplicates. Lengths fall below the insertion cut, on exactly one
    /// run of `M` items, and one past a whole number of runs.
    #[test]
    fn radix_runs_are_the_stable_sort(
        shape in 0usize..7,
        length in 0usize..3,
        frames in 2usize..16,
        block in 16usize..256,
        seed in 0u64..u64::MAX,
    ) {
        let machine = EmMachine::new(frames * block, block);
        let mut rng = StdRng::seed_from_u64(seed);
        // `(u64, usize)` items are two words: `block / 2` to a block.
        let run = frames * (block / 2);
        let n = match length {
            0 => rng.random_range(0..=64),
            1 => run,
            _ => rng.random_range(1..4usize) * run + 1,
        };
        let base: u64 = rng.random();
        let edges: Vec<u64> =
            (1..u64::BITS).flat_map(|b| [(1u64 << b) - 1, 1 << b]).chain([0, u64::MAX]).collect();
        let mut ranks: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            ranks.swap(i, rng.random_range(0..=i));
        }
        let keys: Vec<u64> = (0..n)
            .map(|i| match shape {
                0 => rng.random(),
                1 => base,
                2 => base & !(1 << 63) | u64::from(rng.random::<bool>()) << 63,
                3 => base & !1 | u64::from(rng.random::<bool>()),
                4 => edges[rng.random_range(0..edges.len())],
                5 => ranks[i],
                _ => base ^ rng.random_range(0..4u64) << 40,
            })
            .collect();
        let items: Vec<(u64, usize)> = keys.into_iter().zip(0..).collect();
        let mut want = items.clone();
        want.sort_by_key(|p| p.0);
        let sorted = external_sort(&machine, machine.array_from(items), |p| p.0);
        prop_assert_eq!(sorted.read_range(0, sorted.len()), want);
    }
}
