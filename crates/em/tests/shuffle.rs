//! `external_shuffle`: a permutation of its input, at the transfers it
//! states, and uniform over every order.

use iqs_em::{external_shuffle, external_sort, EmMachine, IoStats};
use iqs_stats::chisq::{chi_square_gof, uniform_probs};
use iqs_testkit::gate::{self, Trial};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A one- or two-word item that carries its input position.
trait Tagged: Copy {
    fn tagged(i: u64) -> Self;
    fn tag(&self) -> u64;
}

impl Tagged for u64 {
    fn tagged(i: u64) -> Self {
        i
    }
    fn tag(&self) -> u64 {
        *self
    }
}

impl Tagged for (u64, u64) {
    fn tagged(i: u64) -> Self {
        (i, !i)
    }
    fn tag(&self) -> u64 {
        self.0
    }
}

/// The transfers of a shuffle of `0..n` and of the external sort of the
/// same items by a random key, each on a fresh machine of `frames`
/// blocks of `block` words, counted to a flush; the shuffle's output is
/// checked to be a permutation of its input.
fn shuffle_and_sort<T: Tagged>(
    n: usize,
    frames: usize,
    block: usize,
    seed: u64,
) -> (IoStats, IoStats) {
    let items: Vec<T> = (0..n as u64).map(T::tagged).collect();
    let machine = EmMachine::new(frames * block, block);
    let mut rng = StdRng::seed_from_u64(seed);
    let shuffled = external_shuffle(&machine, items.clone(), &mut rng);
    machine.flush();
    let shuffle = machine.stats();
    let mut tags: Vec<u64> = shuffled.read_range(0, n).iter().map(T::tag).collect();
    tags.sort_unstable();
    prop_assert!(tags.iter().copied().eq(0..n as u64), "not a permutation of 0..{}", n);

    let machine = EmMachine::new(frames * block, block);
    let keyed: Vec<(u64, T)> = items.into_iter().map(|item| (rng.random(), item)).collect();
    let staged = machine.array_from(keyed);
    staged.mark_written(0, n);
    let _sorted = external_sort(&machine, staged, |p| p.0);
    machine.flush();
    (shuffle, machine.stats())
}

/// `n` in each of the three cases: below `M` items, exactly `M`, and
/// from one item past `M` to eight times it.
fn length(case: usize, mem_items: usize, pick: usize) -> usize {
    match case {
        0 => pick % mem_items,
        1 => mem_items,
        _ => mem_items + 1 + pick % (7 * mem_items),
    }
}

/// The block touches a shuffle of `n` items past memory makes, from
/// the sizes alone: `(scatter, output)`, where every block a scatter
/// writes is read back once, and `output` counts one touch per output
/// block each in-memory bucket's run meets (a block two runs share is
/// touched twice). A pass over `n > M` items splits them into the
/// fewest buckets of at most `M/2` items, at most `M/B − 2` of them, of
/// sizes as equal as they can be; the buckets are placed in order.
fn passes(n: usize, mem_items: usize, fan: usize, per_block: usize) -> (u64, u64) {
    fn place(n: usize, at: &mut usize, rule: (usize, usize, usize), touches: &mut (u64, u64)) {
        let (mem_items, fan, per_block) = rule;
        if n <= mem_items {
            touches.1 += ((*at + n - 1) / per_block - *at / per_block + 1) as u64;
            *at += n;
            return;
        }
        let k = (2 * n).div_ceil(mem_items).clamp(2, fan);
        let sizes: Vec<usize> = (0..k).map(|b| n / k + usize::from(b < n % k)).collect();
        touches.0 += sizes.iter().map(|size| size.div_ceil(per_block) as u64).sum::<u64>();
        for size in sizes {
            place(size, at, rule, touches);
        }
    }
    let mut touches = (0, 0);
    place(n, &mut 0, (mem_items, fan, per_block), &mut touches);
    touches
}

fn check<T: Tagged>(case: usize, frames: usize, block: usize, pick: usize, seed: u64) {
    let per_block = (block / std::mem::size_of::<T>().div_ceil(8)).max(1);
    let mem_items = frames * per_block;
    let n = length(case, mem_items, pick);
    let (shuffle, sort) = shuffle_and_sort::<T>(n, frames, block, seed);
    let blocks = n.div_ceil(per_block) as u64;
    if n <= mem_items {
        // One Fisher–Yates in memory, one sequential write.
        prop_assert_eq!(shuffle.reads, 0);
        prop_assert_eq!(shuffle.writes, blocks);
        prop_assert_eq!(shuffle.hits + shuffle.misses, blocks);
    } else {
        // Each scatter block is written once and read back once, each
        // output run written once: exactly these touches. A read fetches
        // a scatter block that was written out; a write puts back a
        // block one of those touches dirtied, and every output block is
        // written.
        let (scatter, output) = passes(n, mem_items, frames.saturating_sub(2).max(2), per_block);
        prop_assert_eq!(shuffle.hits + shuffle.misses, 2 * scatter + output);
        prop_assert!(shuffle.reads <= scatter);
        prop_assert!(shuffle.writes <= scatter + output);
        prop_assert!(
            shuffle.writes >= blocks + shuffle.reads,
            "writes {} < {} output blocks + {} reads",
            shuffle.writes,
            blocks,
            shuffle.reads
        );
        prop_assert!(
            shuffle.total() <= sort.total(),
            "n = {} on {} frames of {} words: shuffle {:?} costs more than the sort {:?}",
            n,
            frames,
            block,
            shuffle,
            sort
        );
    }
}

proptest! {
    /// The shuffle returns a permutation of its input below, at and
    /// above `M` items, for `B` from 2 to 64 words and one- or two-word
    /// items. Up to `M` items it charges exactly `⌈n/B⌉` writes and no
    /// read; past `M`, exactly the block touches its bucket sizes give,
    /// reads only of blocks it wrote out, and fewer transfers than the
    /// external sort by a random key it replaces.
    #[test]
    fn external_shuffle_is_a_permutation_at_its_stated_cost(
        case in 0usize..3,
        wide in 0u8..2,
        frames in 2usize..16,
        block in 2usize..=64,
        pick in 0usize..usize::MAX,
        seed in 0u64..u64::MAX,
    ) {
        if wide == 1 {
            check::<(u64, u64)>(case, frames, block, pick, seed);
        } else {
            check::<u64>(case, frames, block, pick, seed);
        }
    }
}

/// The index of the order of `0..5` that `order` holds, in `0..120`
/// (its Lehmer code).
fn order_index(order: &[u64]) -> usize {
    (0..order.len()).fold(0, |index, i| {
        let smaller_after = order[i + 1..].iter().filter(|&&x| x < order[i]).count();
        index * (order.len() - i) + smaller_after
    })
}

/// Five items, shuffled over and over on three machines: one that holds
/// them all (Fisher–Yates in memory), and two of two frames that hold
/// two and four of them (buckets of three and two items; on the first,
/// the three are scattered again into two and one). Every one of the
/// 120 orders must be equally likely.
#[test]
fn external_shuffle_is_uniform() {
    gate::run("em_shuffle_uniform", |seed, scale| {
        let mut rng = StdRng::seed_from_u64(seed);
        let orders = 120;
        [("in memory", 8, 1), ("buckets, B = 1", 2, 1), ("buckets, B = 2", 4, 2)]
            .into_iter()
            .map(|(label, mem_words, block)| {
                let machine = EmMachine::new(mem_words, block);
                let mut counts = vec![0u64; orders];
                for _ in 0..6_000 * scale {
                    let shuffled = external_shuffle(&machine, (0..5u64).collect(), &mut rng);
                    counts[order_index(&shuffled.read_range(0, 5))] += 1;
                    shuffled.discard();
                }
                Trial::from_gof(label, &chi_square_gof(&counts, &uniform_probs(orders)))
            })
            .collect()
    });
}
