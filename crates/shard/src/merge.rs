//! Scatter-gather result types and merge helpers.
//!
//! Merging sampled legs is deliberately trivial — concatenation — and
//! that triviality is load-bearing: because every shard registers its
//! slice under the elements' *global* ids
//! (`IndexRegistry::register_range_keyed`), a merged response needs no
//! rank translation, deduplication, or reweighting. All the
//! distributional work happened up front in the top-level alias split.
//!
//! Partial failure is reported, not hidden: a leg that failed on every
//! replica contributes nothing, sets `degraded`, and adds its planned
//! draw count to `missing`. The ids that *are* returned remain exactly
//! distributed (each delivered leg is a correct draw conditioned on the
//! multinomial split); `missing` tells the caller precisely how much of
//! the requested sample evaporated.

/// Samples drawn through the sharded tier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sampled {
    /// Sampled element ids (global ids), the legs' replies end to end in
    /// shard-of-origin order: a *multiset* of draws, not a sequence — a
    /// prefix is not a sample (the order contract is stated on
    /// `iqs_serve::Response::Samples`).
    pub ids: Vec<u64>,
    /// Whether any part of the cluster failed to contribute: a shard
    /// was unavailable at planning time or a leg failed on every
    /// replica. `false` guarantees the full exact sample.
    pub degraded: bool,
    /// Draws planned for shards that could not deliver them. Always 0
    /// when `degraded` is `false`.
    pub missing: usize,
    /// Flight-recorder trace id for this query, or
    /// [`iqs_obs::UNTRACED`] (0) when tracing was disabled. Feed it to
    /// [`iqs_obs::TraceView::build`] over drained records to
    /// reconstruct the query's two-level schedule.
    pub trace: u64,
}

/// A scatter-gathered count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counted {
    /// Elements in range across the shards that answered.
    pub count: usize,
    /// Whether any overlapping shard failed to answer (making `count` a
    /// lower bound rather than exact).
    pub degraded: bool,
    /// Overlapping shards that failed to answer.
    pub shards_unavailable: usize,
    /// Flight-recorder trace id for this query, or
    /// [`iqs_obs::UNTRACED`] (0) when tracing was disabled.
    pub trace: u64,
}

impl Sampled {
    /// Folds one gathered leg in: `leg` is the ids a shard returned (or
    /// `None` if it failed everywhere), `planned` the draw count the
    /// multinomial split assigned it.
    pub(crate) fn absorb(&mut self, leg: Option<&[u64]>, planned: usize) {
        match leg {
            Some(ids) => self.ids.extend_from_slice(ids),
            None => {
                self.degraded = true;
                self.missing += planned;
            }
        }
    }
}

impl Counted {
    /// Folds one gathered count leg in.
    pub(crate) fn absorb(&mut self, leg: Option<usize>) {
        match leg {
            Some(c) => self.count += c,
            None => {
                self.degraded = true;
                self.shards_unavailable += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_concatenates_and_accounts_failures() {
        let mut acc = Sampled::default();
        acc.absorb(Some(&[3, 1]), 2);
        acc.absorb(None, 5);
        acc.absorb(Some(&[9]), 1);
        assert_eq!(acc.ids, vec![3, 1, 9]);
        assert!(acc.degraded);
        assert_eq!(acc.missing, 5);
    }

    #[test]
    fn counted_sums_and_flags() {
        let mut acc = Counted::default();
        acc.absorb(Some(10));
        acc.absorb(Some(0));
        assert_eq!((acc.count, acc.degraded, acc.shards_unavailable), (10, false, 0));
        acc.absorb(None);
        assert_eq!((acc.count, acc.degraded, acc.shards_unavailable), (10, true, 1));
    }
}
