//! The shared software-pipelined batch kernel.
//!
//! E16 measured why batching bought only 1.1–1.4× instead of 3×: the
//! dominant per-sample cost is a *dependent random load* (an alias row,
//! a tree node) whose address comes out of the just-decoded RNG word,
//! and the sequential and batched loops both serialize on it — one
//! outstanding miss at a time. Every fixed-words-per-draw batch loop in
//! the workspace therefore runs a tile of draws as **staged passes over
//! tile arrays**, each pass one simple loop over all the tile's draws:
//!
//! 1. **Pre-generate** — the batch's RNG words are pulled from
//!    [`crate::BlockRng64`] in sequence order into a tile buffer
//!    ([`BlockRng64::fill_words`](crate::BlockRng64::fill_words)), and
//!    word `wpd·i + j` is assigned to draw `i`'s `j`-th random decision
//!    — exactly the assignment the sequential path makes. Execution
//!    order below is therefore free to run draws side by side while the
//!    drawn *sequence* stays bit-identical, which is what lets the
//!    exact-replay proptests and `testkit::oracle::batch_replays_sequential`
//!    act as the regression oracle for every rewrite of these loops.
//! 2. **Decode** — cheap arithmetic only (widening-multiply column
//!    selection; see `AliasRows::decode_many`) plus reads of query-local,
//!    cache-hot side tables, writing each draw's row position into a
//!    tile array.
//! 3. **Row pass** — [`pass`]: one load, one integer compare and one
//!    branch-free select per draw (`AliasRows::select`), with the
//!    explicit prefetch for draw `i + WINDOW`'s row issued before draw
//!    `i`'s row is read.
//!
//! A composite draw with several dependent rows (Theorem 3: a
//! `T_chunk` node row, then a chunk row) repeats stages 2–3 once per
//! row. The per-stage cost table and the sweep that fixed [`WINDOW`]
//! are in EXPERIMENTS.md ("Theorem-3 kernel phases").
//!
//! Kernels that consume a *variable* number of words per draw (tree
//! descents, whose depth is data-dependent) cannot pre-assign words to
//! draws without running the draw — for those, only bounded lookahead
//! tricks are available (see `TreeSampler::sample_leaves_into`).

/// Prefetch distance: a row pass asks for draw `i + WINDOW`'s row
/// before it reads draw `i`'s. Tuned on the ledger host (2^20-element
/// Theorem-3 index, `s = 4096`; EXPERIMENTS.md "Theorem-3 kernel
/// phases"): the rows sit in L3, not DRAM, and the out-of-order core
/// overlaps most of a pass's loads by itself, so the plateau is wide —
/// 8 to 48 read the same while the host's memory is fast, 4 is slower,
/// and 16 is ahead of 8 by up to a sixth while it is slow.
pub const WINDOW: usize = 16;

/// Draws per tile: tile arrays live on the stack (a few KiB) and stay
/// L1-resident through every pass. 256 draws keeps the largest tile
/// (3 words/draw in the Theorem-3 kernel) at 6 KiB while making the
/// per-pass ramp (see [`pass`]'s stall accounting) a ≤ 7% effect.
pub const TILE: usize = 256;

/// One row pass over a tile of `n` draws: `finish(i)` for `i` in
/// `0..n`, in order, each preceded by `prefetch(i + WINDOW)`.
///
/// * `prefetch(i)` — issues the explicit prefetch for draw `i`'s row,
///   whose position an earlier pass left in a tile array.
/// * `finish(i)` — loads the row and writes the draw's result.
///
/// The first `min(n, WINDOW)` rows are asked for up front, so their
/// prefetch distance ramps from 0 to `WINDOW`; they are what the
/// `window_stalls` profiling counter counts (see [`crate::prof`]).
/// Flushes `n` prefetches and `min(n, WINDOW)` stalls to the
/// thread-local profile in one add.
#[inline(always)]
pub fn pass<P, F>(n: usize, prefetch: P, mut finish: F)
where
    P: Fn(usize),
    F: FnMut(usize),
{
    let k = WINDOW.min(n);
    for i in 0..k {
        prefetch(i);
    }
    for i in 0..n - k {
        prefetch(i + k);
        finish(i);
    }
    for i in n - k..n {
        finish(i);
    }
    crate::prof::add_pipeline(n as u64, k as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn pass_finishes_every_draw_once_in_order() {
        let prefetched = RefCell::new(Vec::new());
        let mut finished = Vec::new();
        pass(100, |i| prefetched.borrow_mut().push(i), |i| finished.push(i));
        assert_eq!(finished, (0..100).collect::<Vec<_>>());
        assert_eq!(prefetched.into_inner(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn prefetch_runs_window_ahead_of_finish() {
        // When draw i finishes, rows up to i + WINDOW must have been
        // asked for.
        let asked = RefCell::new(0usize);
        let mut ok = true;
        pass(64, |i| *asked.borrow_mut() = i, |i| ok &= *asked.borrow() >= (i + WINDOW).min(63));
        assert!(ok, "finish(i) ran before prefetch(i + WINDOW)");
    }

    #[test]
    fn short_batches_degrade_gracefully() {
        for n in [0usize, 1, 2, WINDOW - 1, WINDOW, WINDOW + 1] {
            let mut out = vec![u32::MAX; n];
            pass(n, |_| {}, |i| out[i] = i as u32);
            assert_eq!(out, (0..n as u32).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn pipeline_counters_flush_once_per_tile() {
        let before = crate::prof::read();
        pass(100, |_| {}, |_| {});
        let delta = crate::prof::read().minus(&before);
        assert_eq!(delta.prefetches, 100);
        assert_eq!(delta.window_stalls, WINDOW as u64);
        let before = crate::prof::read();
        pass(3, |_| {}, |_| {});
        let delta = crate::prof::read().minus(&before);
        assert_eq!(delta.prefetches, 3);
        assert_eq!(delta.window_stalls, 3, "short batch: whole batch is ramp");
    }
}
