//! Sampling-cost profiling counters.
//!
//! Every draw in the workspace ultimately spends its budget in a handful
//! of places: words pulled from the RNG, alias-table column redirects,
//! tree-descent steps, and set-union rejection rounds. This module keeps
//! one *thread-local* monotone counter per cost source, incremented on
//! cold paths (the [`crate::BlockRng64`] refill) or flushed once per
//! batch (the `sample_into` loops), so the per-draw hot path pays
//! nothing measurable.
//!
//! The counters are plumbing, not policy: upper tiers ([`iqs-serve`]'s
//! worker loop, the harness) snapshot [`read`] before and after a unit
//! of work and attribute the delta — to aggregate service metrics, and
//! to per-request trace records when the `iqs-obs` flight recorder is
//! enabled. Because the counters only ever increase within a thread,
//! nested scopes compose without reset races.

use std::cell::Cell;

/// A snapshot of this thread's cumulative sampling-cost counters.
/// Deltas between two snapshots attribute cost to the work in between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// 64-bit words *consumed* from the underlying RNG. Refills bill at
    /// fetch time; a [`crate::BlockRng64`] refunds its unconsumed
    /// buffered words on drop, so a partially-consumed buffer at batch
    /// end does not inflate this counter (it used to over-count by up
    /// to one block per batch).
    pub rng_words: u64,
    /// Block-refill events (each one `fill_bytes` pass on the source).
    pub rng_refills: u64,
    /// Explicit prefetches issued by the software-pipelined batch
    /// kernels (one per row a pass reads; see [`crate::pipeline::pass`]).
    pub prefetches: u64,
    /// Rows asked for less than a full window ahead of their read — the
    /// per-pass ramp during which prefetch distance is still building
    /// (plus entire batches shorter than the window). High
    /// stall-to-prefetch ratios mean batches too small to pipeline.
    pub window_stalls: u64,
    /// Alias draws that resolved through the alias redirect rather than
    /// the directly chosen column.
    pub alias_redirects: u64,
    /// Root-to-leaf descent steps taken by tree samplers.
    pub tree_descents: u64,
    /// Rejected rounds in set-union rejection sampling.
    pub union_rejects: u64,
    /// Alias-table entries constructed: every
    /// [`crate::AliasRows::build`] call adds the length of the table it
    /// built, so the delta over an index update is the size of what the
    /// update rebuilt — exact, where its wall time is not.
    pub alias_entries_built: u64,
}

impl Cost {
    /// Component-wise difference `self - earlier` (saturating), the cost
    /// attributed to work between two [`read`] calls on one thread.
    #[must_use]
    pub fn minus(&self, earlier: &Cost) -> Cost {
        Cost {
            rng_words: self.rng_words.saturating_sub(earlier.rng_words),
            rng_refills: self.rng_refills.saturating_sub(earlier.rng_refills),
            prefetches: self.prefetches.saturating_sub(earlier.prefetches),
            window_stalls: self.window_stalls.saturating_sub(earlier.window_stalls),
            alias_redirects: self.alias_redirects.saturating_sub(earlier.alias_redirects),
            tree_descents: self.tree_descents.saturating_sub(earlier.tree_descents),
            union_rejects: self.union_rejects.saturating_sub(earlier.union_rejects),
            alias_entries_built: self
                .alias_entries_built
                .saturating_sub(earlier.alias_entries_built),
        }
    }

    /// True when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Cost::default()
    }
}

thread_local! {
    static RNG_WORDS: Cell<u64> = const { Cell::new(0) };
    static RNG_REFILLS: Cell<u64> = const { Cell::new(0) };
    static PREFETCHES: Cell<u64> = const { Cell::new(0) };
    static WINDOW_STALLS: Cell<u64> = const { Cell::new(0) };
    static ALIAS_REDIRECTS: Cell<u64> = const { Cell::new(0) };
    static TREE_DESCENTS: Cell<u64> = const { Cell::new(0) };
    static UNION_REJECTS: Cell<u64> = const { Cell::new(0) };
    static ALIAS_ENTRIES_BUILT: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>, n: u64) {
    if n > 0 {
        cell.with(|c| c.set(c.get().wrapping_add(n)));
    }
}

/// Accounts one block refill that fetched `words` RNG words. Called from
/// the (cold) [`crate::BlockRng64`] refill path only.
#[inline]
pub fn add_rng_refill(words: u64) {
    RNG_WORDS.with(|c| c.set(c.get().wrapping_add(words)));
    RNG_REFILLS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Refunds `words` previously billed by [`add_rng_refill`] that were
/// buffered but never consumed. Called from [`crate::BlockRng64`]'s
/// drop only, so `rng_words` settles to the *consumed* word count once
/// the block goes out of scope. (A delta read while a block is still
/// alive may transiently include its unconsumed tail.)
#[inline]
pub fn sub_rng_words(words: u64) {
    if words > 0 {
        RNG_WORDS.with(|c| c.set(c.get().wrapping_sub(words)));
    }
}

/// Accounts one row pass of the pipelined batch kernel: `prefetches`
/// rows were asked for (one explicit prefetch each) and `stalls` of
/// them less than a full window ahead. Flushed once per pass by
/// [`crate::pipeline::pass`].
#[inline]
pub fn add_pipeline(prefetches: u64, stalls: u64) {
    bump(&PREFETCHES, prefetches);
    bump(&WINDOW_STALLS, stalls);
}

/// Accounts `n` alias draws that resolved through the redirect column.
/// Batch loops accumulate locally and flush once.
#[inline]
pub fn add_alias_redirects(n: u64) {
    bump(&ALIAS_REDIRECTS, n);
}

/// Accounts `n` tree-descent steps. Batch loops accumulate locally and
/// flush once.
#[inline]
pub fn add_tree_descents(n: u64) {
    bump(&TREE_DESCENTS, n);
}

/// Accounts `n` rejected set-union sampling rounds. Batch loops
/// accumulate locally and flush once.
#[inline]
pub fn add_union_rejects(n: u64) {
    bump(&UNION_REJECTS, n);
}

/// Accounts one alias-table build of `n` entries. Called from
/// [`crate::AliasRows::build`] only.
#[inline]
pub fn add_alias_entries_built(n: u64) {
    bump(&ALIAS_ENTRIES_BUILT, n);
}

/// This thread's cumulative counters. Snapshot before and after a unit
/// of work; the [`Cost::minus`] delta is the work's cost.
#[must_use]
pub fn read() -> Cost {
    Cost {
        rng_words: RNG_WORDS.with(Cell::get),
        rng_refills: RNG_REFILLS.with(Cell::get),
        prefetches: PREFETCHES.with(Cell::get),
        window_stalls: WINDOW_STALLS.with(Cell::get),
        alias_redirects: ALIAS_REDIRECTS.with(Cell::get),
        tree_descents: TREE_DESCENTS.with(Cell::get),
        union_rejects: UNION_REJECTS.with(Cell::get),
        alias_entries_built: ALIAS_ENTRIES_BUILT.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AliasTable, BlockRng64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn refills_account_words_and_events() {
        let before = read();
        let mut rng = StdRng::seed_from_u64(5);
        let mut block = BlockRng64::with_budget(&mut rng, 100);
        for _ in 0..100 {
            block.next_word();
        }
        let delta = read().minus(&before);
        assert!(delta.rng_words >= 100, "at least the drawn words: {delta:?}");
        assert!(delta.rng_refills >= 1, "at least one refill: {delta:?}");
        // Words per refill are bounded by the block size.
        assert!(delta.rng_words <= delta.rng_refills * crate::batch::BLOCK_WORDS as u64);
    }

    #[test]
    fn batched_alias_draws_flush_redirect_stats() {
        // A heavily skewed table guarantees some redirects in 512 draws.
        let table = AliasTable::new(&[1.0, 100.0, 1.0, 1.0]).unwrap();
        let before = read();
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = vec![0u32; 512];
        table.sample_into(&mut rng, &mut out);
        let delta = read().minus(&before);
        assert!(delta.alias_redirects > 0, "skewed table must redirect: {delta:?}");
        assert!(delta.alias_redirects <= 512);
    }

    #[test]
    fn dropped_blocks_refund_unconsumed_words() {
        // A budgeted block that over-fetches (MIN_REFILL clamp) must not
        // bill the unused tail once dropped: 3 draws from a budget-3
        // block fetch MIN_REFILL = 8 words but consume 3.
        let before = read();
        let mut rng = StdRng::seed_from_u64(17);
        {
            let mut block = BlockRng64::with_budget(&mut rng, 3);
            for _ in 0..3 {
                block.next_word();
            }
        }
        let delta = read().minus(&before);
        assert_eq!(delta.rng_words, 3, "only consumed words billed: {delta:?}");
        assert_eq!(delta.rng_refills, 1);
    }

    #[test]
    fn deltas_compose_and_zero_reads_as_zero() {
        let a = read();
        let b = read();
        assert!(b.minus(&a).is_zero());
        add_union_rejects(3);
        add_tree_descents(2);
        let c = read();
        let d = c.minus(&a);
        assert_eq!(d.union_rejects, 3);
        assert_eq!(d.tree_descents, 2);
        assert!(!d.is_zero());
    }
}
