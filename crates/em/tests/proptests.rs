//! Property tests for the external-memory simulator.

use iqs_em::{external_sort, EmMachine};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// The accounting the run API replaced: an LRU pool charged one touch
/// per *item*. Frames are kept in recency order, least recent first.
struct PerItemPool {
    frames: usize,
    items_per_block: usize,
    resident: Vec<((usize, usize), bool)>,
    reads: u64,
    writes: u64,
}

impl PerItemPool {
    fn touch(&mut self, array: usize, index: usize, write: bool, no_fetch: bool) {
        let key = (array, index / self.items_per_block);
        let dirty = match self.resident.iter().position(|&(k, _)| k == key) {
            Some(at) => self.resident.remove(at).1 | write,
            None => {
                if self.resident.len() == self.frames && self.resident.remove(0).1 {
                    self.writes += 1;
                }
                if !no_fetch {
                    self.reads += 1;
                }
                write
            }
        };
        self.resident.push((key, dirty));
    }

    fn flush(&mut self) {
        self.writes += self.resident.drain(..).filter(|&(_, dirty)| dirty).count() as u64;
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
        let mut model =
            PerItemPool { frames, items_per_block: block, resident: Vec::new(), reads: 0, writes: 0 };
        let mut shadow = [vec![0u64; n], vec![0u64; n]];
        for &(op, start, len, value) in &ops {
            let a = usize::from(op % 2);
            let end = (start + len).min(n);
            match op / 2 {
                0 => {
                    prop_assert_eq!(arrays[a].get(start), shadow[a][start]);
                    model.touch(a, start, false, false);
                }
                1 => {
                    arrays[a].set(start, value);
                    shadow[a][start] = value;
                    model.touch(a, start, true, false);
                }
                2 => {
                    prop_assert_eq!(arrays[a].read_range(start, end), &shadow[a][start..end]);
                    (start..end).for_each(|i| model.touch(a, i, false, false));
                }
                3 => {
                    let items: Vec<u64> = (0..(end - start) as u64).map(|i| value + i).collect();
                    arrays[a].write_fresh(start, &items);
                    shadow[a][start..end].copy_from_slice(&items);
                    (start..end).for_each(|i| model.touch(a, i, true, true));
                }
                _ => {
                    arrays[a].mark_written(start, end);
                    (start..end).for_each(|i| model.touch(a, i, true, true));
                }
            }
            let stats = machine.stats();
            prop_assert_eq!((stats.reads, stats.writes), (model.reads, model.writes));
        }
        machine.flush();
        model.flush();
        prop_assert_eq!(machine.stats().writes, model.writes);
        for (array, want) in arrays.iter().zip(&shadow) {
            prop_assert_eq!(&array.read_range(0, n), want);
        }
    }
}
