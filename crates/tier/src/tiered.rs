//! The tiered index: routing, the block-cached cold path, and
//! obs-driven promotion/demotion.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use iqs_alias::split::{split_counts, Prefix};
use iqs_alias::validate_weights;
use iqs_core::{QueryError, QueryPlan, RangeSampler, Tiles};
use iqs_em::{EmMachine, EmWeightedRangeSampler, IoStats, RangePlan};
use iqs_obs::{recorder, Ctx, Phase, PromWriter};
use iqs_serve::{ExternalIndex, IoReport, RangeView, ServeError, Snapshot};
use rand::RngCore;

use crate::shard::{ColdShard, ShardSlot, TierState};
use crate::{ShardTier, TierConfig, TierError};

/// A pending shard: name, `(id, key, weight)` triples, initial tier.
type PendingShard = (String, Vec<(u64, f64, f64)>, ShardTier);

/// Collects shards before the index is frozen. Key spans must be
/// pairwise disjoint — the index routes query ranges to shards by span.
#[derive(Debug)]
pub struct TieredIndexBuilder {
    config: TierConfig,
    shards: Vec<PendingShard>,
}

impl TieredIndexBuilder {
    /// Starts a builder with the given sizing/policy configuration.
    #[must_use]
    pub fn new(config: TierConfig) -> TieredIndexBuilder {
        TieredIndexBuilder { config, shards: Vec::new() }
    }

    /// Adds a shard of `(id, key, weight)` triples with its initial tier
    /// placement. Validation happens at [`TieredIndexBuilder::build`].
    #[must_use]
    pub fn add_shard(
        mut self,
        name: &str,
        triples: Vec<(u64, f64, f64)>,
        tier: ShardTier,
    ) -> TieredIndexBuilder {
        self.shards.push((name.to_string(), triples, tier));
        self
    }

    /// Validates every shard, builds each one in its initial tier, and
    /// freezes the index.
    ///
    /// # Errors
    /// [`TierError::InvalidConfig`], [`TierError::NoShards`],
    /// [`TierError::EmptyShard`], [`TierError::DuplicateShard`],
    /// [`TierError::OverlappingShards`], [`TierError::Query`] on a
    /// non-finite key, or [`TierError::Weight`] on a weight that is not
    /// finite and positive or on weights — one shard's, or all shards'
    /// totals — whose sum is not finite.
    pub fn build(self) -> Result<TieredIndex, TierError> {
        self.config.validate()?;
        if self.shards.is_empty() {
            return Err(TierError::NoShards);
        }
        let machine = EmMachine::new(
            self.config.cold_cache_blocks * self.config.block_words,
            self.config.block_words,
        );
        let cold_io = Arc::new(Mutex::new(()));
        let mut slots: Vec<Arc<ShardSlot>> = Vec::with_capacity(self.shards.len());
        for (name, triples, tier) in self.shards {
            if slots.iter().any(|s| s.name == name) {
                return Err(TierError::DuplicateShard(name));
            }
            if triples.is_empty() {
                return Err(TierError::EmptyShard(name));
            }
            if !triples.iter().all(|t| t.1.is_finite()) {
                return Err(TierError::Query(QueryError::EmptyRange));
            }
            let weights: Vec<f64> = triples.iter().map(|t| t.2).collect();
            let total_weight = validate_weights(&weights)?;
            let lo = triples.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
            let hi = triples.iter().map(|t| t.1).fold(f64::NEG_INFINITY, f64::max);
            let state = match tier {
                ShardTier::Hot => TierState::Hot(RangeView::from_triples(triples.clone())?),
                ShardTier::Cold => TierState::Cold(ColdShard::new(
                    EmWeightedRangeSampler::new_keyed(&machine, triples.clone()),
                    &cold_io,
                )),
            };
            slots.push(Arc::new(ShardSlot {
                name,
                lo,
                hi,
                len: triples.len(),
                total_weight,
                triples: Arc::new(triples),
                state: Snapshot::new(state),
                accesses: AtomicU64::new(0),
                transition: Mutex::new(()),
            }));
        }
        // A cross-shard total of `inf` would send every split coin to the
        // last shard.
        validate_weights(&slots.iter().map(|s| s.total_weight).collect::<Vec<_>>())?;
        slots.sort_by(|a, b| a.lo.partial_cmp(&b.lo).expect("finite spans"));
        for pair in slots.windows(2) {
            if pair[0].hi >= pair[1].lo {
                return Err(TierError::OverlappingShards {
                    first: pair[0].name.clone(),
                    second: pair[1].name.clone(),
                });
            }
        }
        // Construction faulted every cold block once; serving starts
        // from a clean slate so hit rates describe traffic, not builds.
        machine.reset_stats();
        Ok(TieredIndex {
            shards: slots,
            machine,
            config: self.config,
            cold_io,
            maintenance: Mutex::new(()),
            counters: LiveTierCounters::default(),
        })
    }
}

iqs_obs::counter_set! {
    /// The index's live counters (relaxed adds).
    #[derive(Debug, Default)]
    struct LiveTierCounters;
    /// Lifetime counters of the index, for dashboards and tests.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct TierCounters;
    laws tier_counters_obey_the_descriptor_laws;
    counters {
        /// Samples served from hot (RAM) shards.
        hot_draws: delta => counter "iqs_tier_draws_total" [tier = "hot"] "Samples drawn, by serving tier";
        /// Samples served from cold (EM) shards through the block cache.
        cold_draws: delta => counter "iqs_tier_draws_total" [tier = "cold"] "Samples drawn, by serving tier";
        /// Cold→hot transitions performed.
        promotions: delta => counter "iqs_tier_transitions_total" [direction = "promote"] "Shard tier transitions";
        /// Hot→cold transitions performed.
        demotions: delta => counter "iqs_tier_transitions_total" [direction = "demote"] "Shard tier transitions";
    }
}

/// What one [`TieredIndex::maintain`] pass changed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// Shards promoted cold→hot this pass.
    pub promoted: Vec<String>,
    /// Shards demoted hot→cold this pass.
    pub demoted: Vec<String>,
}

/// A tiered hot/cold index backend over disjoint key-span shards.
///
/// Hot shards serve from the in-memory Theorem-3 structure
/// ([`iqs_core::ChunkedRange`]); cold shards serve from the Section-8 EM
/// structure ([`iqs_em::EmWeightedRangeSampler`]) through one shared
/// bounded block cache, so the index as a whole can be far larger than
/// the RAM it is given. A query range is split across the shards it
/// touches by an exact multinomial on per-shard range weights, so the
/// returned samples follow the same distribution a single flat structure
/// would produce.
///
/// Placement is obs-driven: per-shard access counters accumulate on the
/// request path, and [`TieredIndex::maintain`] promotes busy cold shards
/// (off-path rebuild, then one atomic snapshot publish) and demotes idle
/// hot shards until the hot tier fits its element budget. Readers pin a
/// snapshot per request and never observe a failed read across a
/// transition.
#[derive(Debug)]
pub struct TieredIndex {
    /// Shards in ascending key-span order.
    shards: Vec<Arc<ShardSlot>>,
    /// The cold tier's shared block cache.
    machine: EmMachine,
    config: TierConfig,
    /// Serializes cold-tier machine access so per-request I/O deltas
    /// ([`IoStats::minus`] around a draw) are exact; the cold path
    /// models a single disk with one device queue. Every [`ColdShard`]
    /// holds a handle, to discard its blocks under it when dropped.
    cold_io: Arc<Mutex<()>>,
    /// Serializes [`TieredIndex::maintain`] passes.
    maintenance: Mutex<()>,
    counters: LiveTierCounters,
}

/// A query's per-shard lists, kept by the thread that serves it: the
/// shards the range holds weight in (with whether their plan is read),
/// their range weights, the split over them, and their plans, which keep
/// their buffers from query to query.
#[derive(Default)]
struct QueryLists {
    active: Vec<(usize, bool)>,
    weights: Vec<f64>,
    split: (Prefix<f64>, Vec<usize>),
    /// `plans[i]` is the plan of `active[i]`'s shard.
    plans: Vec<RangePlan>,
}

impl QueryLists {
    /// Runs `f` in the lists the calling thread keeps; a call made from
    /// inside `f` runs in fresh lists.
    fn with_kept<T>(f: impl FnOnce(&mut QueryLists) -> T) -> T {
        thread_local! {
            static KEPT: RefCell<QueryLists> = RefCell::default();
        }
        KEPT.with(|kept| match kept.try_borrow_mut() {
            Ok(mut lists) => f(&mut lists),
            Err(_) => f(&mut QueryLists::default()),
        })
    }
}

fn io_report(io: &IoStats) -> IoReport {
    IoReport {
        cache_hits: io.hits,
        cache_misses: io.misses,
        block_reads: io.reads,
        block_writes: io.writes,
    }
}

impl TieredIndex {
    /// Starts building an index with the given configuration.
    #[must_use]
    pub fn builder(config: TierConfig) -> TieredIndexBuilder {
        TieredIndexBuilder::new(config)
    }

    /// The configuration the index was built with.
    #[must_use]
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// Shard names and their current tiers, in key-span order.
    #[must_use]
    pub fn tiers(&self) -> Vec<(String, ShardTier)> {
        self.shards.iter().map(|s| (s.name.clone(), s.tier())).collect()
    }

    /// The named shard's current tier.
    ///
    /// # Errors
    /// [`TierError::UnknownShard`].
    pub fn tier_of(&self, name: &str) -> Result<ShardTier, TierError> {
        Ok(self.slot(name)?.tier())
    }

    /// Total elements across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }

    /// True when the index holds no elements (not constructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements currently resident in RAM across hot shards.
    #[must_use]
    pub fn hot_resident(&self) -> usize {
        self.shards.iter().filter(|s| s.tier() == ShardTier::Hot).map(|s| s.len).sum()
    }

    /// Cumulative block-cache statistics of the cold tier.
    #[must_use]
    pub fn io_stats(&self) -> IoStats {
        self.machine.stats()
    }

    /// Lifetime draw/transition counters.
    #[must_use]
    pub fn counters(&self) -> TierCounters {
        self.counters.snapshot()
    }

    /// Draws `s` independent weighted samples (element ids) from keys in
    /// `range` (the whole index when `None`), reporting the block I/O
    /// the draw performed. Cold draws emit a [`Phase::ColdDraw`]
    /// flight-recorder record carrying the packed interval I/O counters
    /// when `ctx` is traced. The ids are the overlapping shards' draws
    /// end to end, so the reply is a multiset, not a sequence (see
    /// `iqs_serve::Response::Samples`).
    ///
    /// # Errors
    /// [`TierError::Query`]`(`[`QueryError::EmptyRange`]`)` when the
    /// range holds no elements, or a bound is NaN.
    pub fn sample_wr(
        &self,
        range: Option<(f64, f64)>,
        s: usize,
        rng: &mut dyn RngCore,
        ctx: Ctx,
    ) -> Result<(Vec<u64>, IoReport), TierError> {
        let (x, y) = range.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
        if y < x || x.is_nan() || y.is_nan() {
            return Err(QueryError::EmptyRange.into());
        }
        QueryLists::with_kept(|lists| {
            let QueryLists { active, weights, split: (prefix, counts), plans } = lists;
            let mut io = IoStats::default();
            active.clear();
            weights.clear();
            let mut total = 0.0;
            for (i, slot) in self.shards.iter().enumerate() {
                if !slot.overlaps(x, y) {
                    continue;
                }
                if plans.len() == active.len() {
                    plans.push(RangePlan::default());
                }
                let (w, planned) =
                    self.slot_range_weight(slot, x, y, &mut plans[active.len()], &mut io);
                if w > 0.0 {
                    total += w;
                    active.push((i, planned));
                    weights.push(w);
                }
            }
            if active.is_empty() || total <= 0.0 {
                return Err(QueryError::EmptyRange.into());
            }
            // Exact multinomial split: one categorical coin per sample. The
            // single-shard case draws no coins, so a one-shard index replays
            // the flat structure's RNG stream word for word.
            if active.len() == 1 {
                counts.clear();
                counts.push(s);
            } else {
                split_counts(weights, total, s, rng, prefix, counts);
            }
            let mut out = Vec::with_capacity(s);
            for ((&(i, planned), plan), &c) in active.iter().zip(plans.iter_mut()).zip(&*counts) {
                if c == 0 {
                    continue;
                }
                let slot = &self.shards[i];
                self.draw_from_slot(slot, x, y, plan, planned, c, rng, &mut out, &mut io, ctx)?;
                slot.accesses.fetch_add(c as u64, Ordering::Relaxed);
            }
            Ok((out, io_report(&io)))
        })
    }

    /// Exact number of elements with keys in `[x, y]` (0 when a bound is
    /// NaN).
    #[must_use]
    pub fn range_count(&self, x: f64, y: f64) -> usize {
        if y < x || x.is_nan() || y.is_nan() {
            return 0;
        }
        let mut count = 0;
        for slot in self.shards.iter().filter(|s| s.overlaps(x, y)) {
            if x <= slot.lo && slot.hi <= y {
                count += slot.len;
                continue;
            }
            let state = slot.state.load();
            count += match &*state {
                TierState::Hot(h) => h.sampler.as_ref().map_or(0, |s| s.range_count(x, y)),
                TierState::Cold(c) => {
                    let _dev = self.device();
                    c.lock().range_count(x, y)
                }
            };
        }
        count
    }

    /// Exact total weight of elements with keys in `[x, y]` (0 when a
    /// bound is NaN).
    #[must_use]
    pub fn range_weight(&self, x: f64, y: f64) -> f64 {
        if y < x || x.is_nan() || y.is_nan() {
            return 0.0;
        }
        let (mut io, mut plan) = (IoStats::default(), RangePlan::default());
        self.shards
            .iter()
            .filter(|s| s.overlaps(x, y))
            .map(|s| self.slot_range_weight(s, x, y, &mut plan, &mut io).0)
            .sum()
    }

    /// Total sampling weight of the index (from per-shard directories —
    /// no I/O).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.shards.iter().map(|s| s.total_weight).sum()
    }

    /// Promotes the named shard to the hot tier. Returns `false` when it
    /// is already hot. The rebuild happens off the read path; the swap
    /// is one atomic snapshot publish, and the retired cold structure's
    /// blocks leave the cache when its last reader lets go of it.
    ///
    /// # Errors
    /// [`TierError::UnknownShard`].
    pub fn promote(&self, name: &str) -> Result<bool, TierError> {
        let slot = Arc::clone(self.slot(name)?);
        self.promote_slot(&slot)
    }

    /// Demotes the named shard to the cold tier. Returns `false` when it
    /// is already cold.
    ///
    /// # Errors
    /// [`TierError::UnknownShard`].
    pub fn demote(&self, name: &str) -> Result<bool, TierError> {
        let slot = Arc::clone(self.slot(name)?);
        self.demote_slot(&slot)
    }

    /// One obs-driven placement pass: promotes every cold shard whose
    /// access counter reached `promote_accesses`, then demotes the
    /// least-accessed hot shards until the hot tier fits
    /// `hot_element_budget`, then halves every counter so sustained heat
    /// persists while bursts fade. Safe to call from a background
    /// thread; passes serialize, and readers never block on one.
    pub fn maintain(&self) -> MaintenanceReport {
        let _pass = self.maintenance.lock().expect("maintenance lock poisoned");
        let mut report = MaintenanceReport::default();
        for slot in &self.shards {
            if slot.tier() == ShardTier::Cold
                && slot.accesses.load(Ordering::Relaxed) >= self.config.promote_accesses
                && self.promote_slot(slot).unwrap_or(false)
            {
                report.promoted.push(slot.name.clone());
            }
        }
        loop {
            let hot: Vec<&Arc<ShardSlot>> =
                self.shards.iter().filter(|s| s.tier() == ShardTier::Hot).collect();
            let resident: usize = hot.iter().map(|s| s.len).sum();
            if resident <= self.config.hot_element_budget || hot.is_empty() {
                break;
            }
            let victim = hot
                .iter()
                .min_by_key(|s| s.accesses.load(Ordering::Relaxed))
                .expect("non-empty hot set");
            if self.demote_slot(victim).unwrap_or(false) {
                report.demoted.push(victim.name.clone());
            } else {
                break;
            }
        }
        for slot in &self.shards {
            let a = slot.accesses.load(Ordering::Relaxed);
            slot.accesses.store(a / 2, Ordering::Relaxed);
        }
        report
    }

    /// Renders the tier's metrics in Prometheus text format: block-cache
    /// touches and transfers, draws by tier, transition counts, and a
    /// per-shard hotness gauge.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let stats = self.machine.stats();
        let mut w = PromWriter::new();
        w.header(
            "iqs_tier_block_cache_touches_total",
            "Cold-tier block-cache touches by outcome",
            "counter",
        );
        w.sample("iqs_tier_block_cache_touches_total", &[("outcome", "hit")], stats.hits);
        w.sample("iqs_tier_block_cache_touches_total", &[("outcome", "miss")], stats.misses);
        w.header("iqs_tier_block_io_total", "Cold-tier block transfers", "counter");
        w.sample("iqs_tier_block_io_total", &[("op", "read")], stats.reads);
        w.sample("iqs_tier_block_io_total", &[("op", "write")], stats.writes);
        self.counters().write_counters(&mut w);
        w.header("iqs_tier_shard_hot", "1 when the shard is currently hot, else 0", "gauge");
        for slot in &self.shards {
            let hot = u64::from(slot.tier() == ShardTier::Hot);
            w.sample("iqs_tier_shard_hot", &[("shard", &slot.name)], hot);
        }
        w.finish()
    }

    fn slot(&self, name: &str) -> Result<&Arc<ShardSlot>, TierError> {
        self.shards
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| TierError::UnknownShard(name.to_string()))
    }

    fn device(&self) -> MutexGuard<'_, ()> {
        self.cold_io.lock().expect("cold device queue poisoned")
    }

    /// Exact range weight of one shard, charging any cold-tier chunk
    /// reads to `io`. Full-span queries come from the directory for
    /// free in both tiers. A partially covered cold shard also fills
    /// `plan` with what its boundary-chunk reads paid for, and says so
    /// (`true`), so the draw does not read them again.
    fn slot_range_weight(
        &self,
        slot: &ShardSlot,
        x: f64,
        y: f64,
        plan: &mut RangePlan,
        io: &mut IoStats,
    ) -> (f64, bool) {
        if x <= slot.lo && slot.hi <= y {
            return (slot.total_weight, false);
        }
        let state = slot.state.load();
        match &*state {
            TierState::Hot(h) => (h.sampler.as_ref().map_or(0.0, |s| s.range_weight(x, y)), false),
            TierState::Cold(c) => {
                let _dev = self.device();
                let before = self.machine.stats();
                c.lock().plan(x, y, plan);
                *io = io.plus(&self.delta_since(&before));
                (plan.total(), true)
            }
        }
    }

    /// Draws `s` ids from one shard's part of `[x, y]`. `plan` holds the
    /// cold plan [`Self::slot_range_weight`] already read when `planned`,
    /// and is filled here when a cold shard has none; a plan outlives a
    /// promote/demote cycle in between because a shard's elements never
    /// change, and a shard found hot ignores it.
    #[allow(clippy::too_many_arguments)]
    fn draw_from_slot(
        &self,
        slot: &ShardSlot,
        x: f64,
        y: f64,
        plan: &mut RangePlan,
        planned: bool,
        s: usize,
        rng: &mut dyn RngCore,
        out: &mut Vec<u64>,
        io: &mut IoStats,
        ctx: Ctx,
    ) -> Result<(), TierError> {
        let state = slot.state.load();
        match &*state {
            TierState::Hot(h) => {
                let mut fresh = QueryPlan::default();
                Tiles::with_kept(|tiles| h.sample_ids_into(x, y, s, rng, &mut fresh, tiles, out))?;
                self.counters.hot_draws.fetch_add(s as u64, Ordering::Relaxed);
            }
            TierState::Cold(c) => {
                let _dev = self.device();
                let mut sampler = c.lock();
                let before = self.machine.stats();
                if !planned {
                    sampler.plan(x, y, plan);
                }
                let drew = sampler.draw_ids_into(plan, s, rng, out);
                let delta = self.delta_since(&before);
                *io = io.plus(&delta);
                if drew.is_none() {
                    return Err(QueryError::EmptyRange.into());
                }
                self.counters.cold_draws.fetch_add(s as u64, Ordering::Relaxed);
                recorder::emit(
                    ctx,
                    Phase::ColdDraw,
                    s as u64,
                    recorder::pack_io(delta.reads, delta.writes, delta.hits, delta.misses),
                );
            }
        }
        Ok(())
    }

    fn delta_since(&self, before: &IoStats) -> IoStats {
        self.machine
            .stats()
            .minus(before)
            .expect("machine counters are monotone under the cold-I/O lock")
    }

    fn promote_slot(&self, slot: &ShardSlot) -> Result<bool, TierError> {
        let _t = slot.transition.lock().expect("transition lock poisoned");
        if slot.tier() == ShardTier::Hot {
            return Ok(false);
        }
        // Off-path rebuild: readers keep draining the cold snapshot.
        let hot = RangeView::from_triples(slot.triples.to_vec())?;
        // The cold structure retires when its last reader lets go.
        slot.state.store(TierState::Hot(hot));
        self.counters.promotions.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    fn demote_slot(&self, slot: &ShardSlot) -> Result<bool, TierError> {
        let _t = slot.transition.lock().expect("transition lock poisoned");
        if slot.tier() == ShardTier::Cold {
            return Ok(false);
        }
        // Build under the device lock so concurrent cold readers' I/O
        // deltas never include construction transfers.
        let sampler = {
            let _dev = self.device();
            EmWeightedRangeSampler::new_keyed(&self.machine, slot.triples.to_vec())
        };
        slot.state.store(TierState::Cold(ColdShard::new(sampler, &self.cold_io)));
        self.counters.demotions.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }
}

/// The serve-registry adapter: a [`TieredIndex`] slots straight into
/// `IndexRegistry::register_external`, so a serve node answers
/// `SampleWr`/`RangeCount` from whichever tier each shard is in.
impl ExternalIndex for TieredIndex {
    fn sample_wr(
        &self,
        range: Option<(f64, f64)>,
        s: usize,
        rng: &mut dyn RngCore,
        ctx: Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError> {
        TieredIndex::sample_wr(self, range, s, rng, ctx).map_err(Into::into)
    }

    fn range_count(&self, x: f64, y: f64) -> Result<usize, ServeError> {
        Ok(TieredIndex::range_count(self, x, y))
    }

    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError> {
        Ok(TieredIndex::range_weight(self, x, y))
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        Ok(TieredIndex::total_weight(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqs_alias::WeightError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shard(lo: u64, n: u64) -> Vec<(u64, f64, f64)> {
        (lo..lo + n).map(|i| (i, i as f64, 1.0 + (i % 7) as f64)).collect()
    }

    fn small_config() -> TierConfig {
        TierConfig { block_words: 64, cold_cache_blocks: 4, ..TierConfig::default() }
    }

    #[test]
    fn builder_rejects_bad_inputs() {
        let cfg = small_config();
        assert_eq!(TieredIndex::builder(cfg).build().err(), Some(TierError::NoShards));
        let err =
            TieredIndex::builder(cfg).add_shard("empty", vec![], ShardTier::Hot).build().err();
        assert_eq!(err, Some(TierError::EmptyShard("empty".into())));
        let err = TieredIndex::builder(cfg)
            .add_shard("a", shard(0, 10), ShardTier::Hot)
            .add_shard("a", shard(100, 10), ShardTier::Hot)
            .build()
            .err();
        assert_eq!(err, Some(TierError::DuplicateShard("a".into())));
        let err = TieredIndex::builder(cfg)
            .add_shard("a", shard(0, 10), ShardTier::Hot)
            .add_shard("b", shard(9, 10), ShardTier::Cold)
            .build()
            .err();
        assert_eq!(
            err,
            Some(TierError::OverlappingShards { first: "a".into(), second: "b".into() })
        );
        let err = TieredIndex::builder(cfg)
            .add_shard("bad", vec![(0, f64::NAN, 1.0)], ShardTier::Hot)
            .build()
            .err();
        assert_eq!(err, Some(TierError::Query(QueryError::EmptyRange)));
        let err = TieredIndex::builder(cfg)
            .add_shard("bad", vec![(0, 1.0, 0.0)], ShardTier::Cold)
            .build()
            .err();
        let zero = WeightError::NonPositive { index: 0, weight: 0.0 };
        assert_eq!(err, Some(TierError::Weight(zero)));
        let bad = TierConfig { cold_cache_blocks: 1, ..cfg };
        assert!(matches!(
            TieredIndex::builder(bad).add_shard("a", shard(0, 10), ShardTier::Hot).build(),
            Err(TierError::InvalidConfig(_))
        ));
    }

    #[test]
    fn single_cold_shard_serves_samples_with_io() {
        let idx = TieredIndex::builder(small_config())
            .add_shard("only", shard(0, 500), ShardTier::Cold)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (ids, io) = idx.sample_wr(Some((100.0, 400.0)), 64, &mut rng, Ctx::none()).unwrap();
        assert_eq!(ids.len(), 64);
        assert!(ids.iter().all(|&id| (100..=400).contains(&id)));
        assert!(io.block_reads > 0, "cold draw must fault blocks: {io:?}");
        assert_eq!(idx.counters().cold_draws, 64);
        assert_eq!(idx.counters().hot_draws, 0);
    }

    #[test]
    fn multi_shard_split_routes_by_range() {
        let idx = TieredIndex::builder(small_config())
            .add_shard("a", shard(0, 300), ShardTier::Hot)
            .add_shard("b", shard(1000, 300), ShardTier::Cold)
            .build()
            .unwrap();
        assert_eq!(idx.len(), 600);
        assert_eq!(idx.range_count(0.0, 2000.0), 600);
        assert_eq!(idx.range_count(50.0, 1049.0), 250 + 50);
        let want: f64 = shard(0, 300).iter().chain(shard(1000, 300).iter()).map(|t| t.2).sum();
        assert!((idx.total_weight() - want).abs() < 1e-9);
        // A range confined to the hot shard touches no cold blocks.
        let mut rng = StdRng::seed_from_u64(8);
        let (ids, io) = idx.sample_wr(Some((0.0, 299.0)), 32, &mut rng, Ctx::none()).unwrap();
        assert!(ids.iter().all(|&id| id < 300));
        assert_eq!(io, IoReport::default());
        // A spanning range draws from both shards.
        let (ids, _) = idx.sample_wr(None, 400, &mut rng, Ctx::none()).unwrap();
        assert!(ids.iter().any(|&id| id < 300));
        assert!(ids.iter().any(|&id| id >= 1000));
        let empty = idx.sample_wr(Some((500.0, 900.0)), 4, &mut rng, Ctx::none());
        assert_eq!(empty, Err(TierError::Query(QueryError::EmptyRange)));
    }

    #[test]
    fn promote_and_demote_swap_tiers_and_free_blocks() {
        let idx = TieredIndex::builder(small_config())
            .add_shard("s", shard(0, 400), ShardTier::Cold)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        idx.sample_wr(None, 16, &mut rng, Ctx::none()).unwrap();
        assert!(idx.promote("s").unwrap());
        assert_eq!(idx.tier_of("s").unwrap(), ShardTier::Hot);
        assert!(!idx.promote("s").unwrap(), "already hot");
        let (_, io) = idx.sample_wr(None, 16, &mut rng, Ctx::none()).unwrap();
        assert_eq!(io, IoReport::default(), "hot draws do no block I/O");
        assert!(idx.demote("s").unwrap());
        assert_eq!(idx.tier_of("s").unwrap(), ShardTier::Cold);
        assert!(!idx.demote("s").unwrap(), "already cold");
        assert_eq!(idx.counters().promotions, 1);
        assert_eq!(idx.counters().demotions, 1);
        assert!(matches!(idx.promote("ghost"), Err(TierError::UnknownShard(_))));
    }

    #[test]
    fn a_plan_outliving_a_promotion_draws_from_the_hot_arm() {
        let idx = TieredIndex::builder(small_config())
            .add_shard("s", shard(0, 1000), ShardTier::Cold)
            .build()
            .unwrap();
        let slot = &idx.shards[0];
        let (x, y) = (100.0, 700.0);
        let mut io = IoStats::default();
        let mut plan = RangePlan::default();
        let (weight, planned) = idx.slot_range_weight(slot, x, y, &mut plan, &mut io);
        assert!(planned, "a partially covered cold shard hands its plan on");
        assert_eq!(weight.to_bits(), idx.range_weight(x, y).to_bits());
        assert!(io.reads > 0, "the plan paid for the boundary chunks");
        assert!(idx.promote("s").unwrap());

        let mut rng = StdRng::seed_from_u64(12);
        let mut out = Vec::new();
        let before = io;
        idx.draw_from_slot(
            slot,
            x,
            y,
            &mut plan,
            planned,
            40,
            &mut rng,
            &mut out,
            &mut io,
            Ctx::none(),
        )
        .unwrap();
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|&id| (100..=700).contains(&id)));
        assert_eq!(io, before, "the hot arm does no block I/O");
        assert_eq!((idx.counters().hot_draws, idx.counters().cold_draws), (40, 0));
    }

    #[test]
    fn a_reader_pinning_cold_across_a_promotion_answers_and_frees_the_blocks_on_release() {
        let cfg = TierConfig { cold_cache_blocks: 32, ..small_config() };
        let idx = TieredIndex::builder(cfg)
            .add_shard("s", shard(0, 1000), ShardTier::Cold)
            .build()
            .unwrap();
        let pinned = idx.shards[0].state.load();
        assert!(idx.promote("s").unwrap());
        assert_eq!(idx.tier_of("s").unwrap(), ShardTier::Hot);

        let TierState::Cold(cold) = &*pinned else { panic!("pinned before the promotion") };
        let mut rng = StdRng::seed_from_u64(13);
        let mut out = Vec::new();
        let mut plan = RangePlan::default();
        cold.lock().plan(100.0, 700.0, &mut plan);
        cold.lock().draw_ids_into(&plan, 40, &mut rng, &mut out).expect("range is not empty");
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|&id| (100..=700).contains(&id)));

        // The draw left freshly written pool blocks in the cache. A flush
        // would write them back — unless the drop discarded them first.
        let before = idx.io_stats();
        assert!(before.reads > 0, "the retired structure still served from its blocks");
        drop(pinned);
        idx.machine.flush();
        assert_eq!(idx.io_stats().writes, before.writes, "nothing of it was left to write back");
    }

    #[test]
    fn maintain_promotes_busy_and_demotes_over_budget() {
        let cfg = TierConfig { promote_accesses: 10, hot_element_budget: 450, ..small_config() };
        let idx = TieredIndex::builder(cfg)
            .add_shard("busy", shard(0, 400), ShardTier::Cold)
            .add_shard("idle", shard(1000, 400), ShardTier::Hot)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        // Heat up the cold shard past the promotion threshold.
        idx.sample_wr(Some((0.0, 399.0)), 32, &mut rng, Ctx::none()).unwrap();
        let report = idx.maintain();
        assert_eq!(report.promoted, vec!["busy".to_string()]);
        // 800 hot elements exceed the 450 budget; the idle shard (0
        // accesses) is the demotion victim.
        assert_eq!(report.demoted, vec!["idle".to_string()]);
        assert_eq!(idx.tier_of("busy").unwrap(), ShardTier::Hot);
        assert_eq!(idx.tier_of("idle").unwrap(), ShardTier::Cold);
        assert_eq!(idx.hot_resident(), 400);
        // Counters decayed: another pass with no traffic changes nothing.
        let report = idx.maintain();
        assert_eq!(report, MaintenanceReport::default());
    }

    #[test]
    fn prometheus_export_names_every_series() {
        let idx = TieredIndex::builder(small_config())
            .add_shard("a", shard(0, 100), ShardTier::Hot)
            .add_shard("b", shard(500, 100), ShardTier::Cold)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        idx.sample_wr(None, 50, &mut rng, Ctx::none()).unwrap();
        let text = idx.to_prometheus();
        for needle in [
            "iqs_tier_block_cache_touches_total{outcome=\"hit\"}",
            "iqs_tier_block_cache_touches_total{outcome=\"miss\"}",
            "iqs_tier_block_io_total{op=\"read\"}",
            "iqs_tier_block_io_total{op=\"write\"}",
            "iqs_tier_draws_total{tier=\"hot\"}",
            "iqs_tier_draws_total{tier=\"cold\"}",
            "iqs_tier_transitions_total{direction=\"promote\"}",
            "iqs_tier_shard_hot{shard=\"a\"} 1",
            "iqs_tier_shard_hot{shard=\"b\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
