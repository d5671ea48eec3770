//! The [`IndexRegistry`]: named sampling indexes behind epoch-published
//! snapshots.
//!
//! Each registered index is a pair of states:
//!
//! * a **published view** ([`IndexView`]) — an immutable, read-optimized
//!   structure (a [`ChunkedRange`], an [`AliasTable`], or a frozen
//!   [`SetUnionSampler`]) inside a [`Snapshot`] cell. Workers pin it per
//!   request; any number of threads sample it concurrently.
//! * a **master** — for dynamic indexes, an ordered map
//!   `(key, id) → weight` behind a writer mutex. Nothing ever samples
//!   it: updates edit the map, build a fresh view from its in-order
//!   walk, and publish it atomically. Readers of the old view are never
//!   blocked, never torn, and drop the old snapshot when their in-flight
//!   queries finish.
//!
//! The registry map itself is frozen when the server starts (indexes are
//! registered up front); all runtime mutation goes through the masters
//! and snapshot cells, which is what makes the whole object `Sync`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use iqs_alias::{AliasTable, WeightError};
use iqs_core::setunion::SetUnionSampler;
use iqs_core::{ChunkedRange, QueryError, RangeSampler};
use rand::Rng;

use crate::api::UpdateOp;
use crate::error::ServeError;
use crate::snapshot::Snapshot;

/// Block-I/O accounting for one draw served by an external-memory index
/// (the tiered backend's cold path). Returned alongside the samples so
/// the worker can fold the interval into the service counters without
/// the index and the service sharing atomic state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoReport {
    /// Buffer-pool touches served from a resident frame.
    pub cache_hits: u64,
    /// Buffer-pool touches that faulted a frame in.
    pub cache_misses: u64,
    /// Blocks read from the simulated disk.
    pub block_reads: u64,
    /// Dirty blocks written back to the simulated disk.
    pub block_writes: u64,
}

/// An index whose draws are served by an engine outside the in-memory
/// view structures — e.g. the tiered backend's external-memory cold
/// path. The service dispatches `SampleWr` / `RangeCount` /
/// weight-probe requests straight to the implementation and folds the
/// returned [`IoReport`] into its metrics; everything else
/// (queueing, deadlines, tracing, snapshots of *this registry entry*)
/// stays the service's job.
///
/// Implementations must be internally synchronized: workers call these
/// methods concurrently on one shared instance.
pub trait ExternalIndex: Send + Sync + std::fmt::Debug {
    /// Draws `s` independent weighted samples (element ids), restricted
    /// to keys in `[x, y]` when `range` is given, and reports the block
    /// I/O the draw performed. `ctx` carries the request's trace span so
    /// implementations can emit flight-recorder records.
    ///
    /// # Errors
    /// [`ServeError::EmptyRange`] when the (restricted) key range holds
    /// no elements; any other [`ServeError`] the engine surfaces.
    fn sample_wr(
        &self,
        range: Option<(f64, f64)>,
        s: usize,
        rng: &mut dyn rand::RngCore,
        ctx: iqs_obs::Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError>;

    /// Exact number of elements with keys in `[x, y]`.
    ///
    /// # Errors
    /// Any [`ServeError`] the engine surfaces.
    fn range_count(&self, x: f64, y: f64) -> Result<usize, ServeError>;

    /// Exact total weight of elements with keys in `[x, y]`.
    ///
    /// # Errors
    /// Any [`ServeError`] the engine surfaces.
    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError>;

    /// Total sampling weight of the index.
    ///
    /// # Errors
    /// Any [`ServeError`] the engine surfaces.
    fn total_weight(&self) -> Result<f64, ServeError>;
}

/// Published view of a 1-D weighted range index: a Theorem-3 structure
/// plus the rank → element-id mapping. `sampler` is `None` when the
/// index is (currently) empty.
#[derive(Debug)]
pub struct RangeView {
    /// The static structure serving this snapshot, if non-empty.
    pub sampler: Option<ChunkedRange>,
    /// Element id at each rank; `None` means the rank *is* the id
    /// (static indexes registered from bare `(key, weight)` pairs).
    pub ids: Option<Vec<u64>>,
    /// Total sampling weight, cached at view-build time so weight probes
    /// ([`crate::Request::TotalWeight`]) cost a snapshot load and
    /// nothing else. Computed as the full-range prefix sum, so it is
    /// bit-identical to `range_weight(-inf, inf)` on this snapshot.
    pub total_weight: f64,
}

impl RangeView {
    /// Builds a view from an optional sampler and rank → id map, caching
    /// the total weight.
    fn of(sampler: Option<ChunkedRange>, ids: Option<Vec<u64>>) -> Self {
        let total_weight =
            sampler.as_ref().map_or(0.0, |s| s.range_weight(f64::NEG_INFINITY, f64::INFINITY));
        RangeView { sampler, ids, total_weight }
    }

    /// Builds the Theorem-3 sampler and the rank → id table from
    /// `(id, key, weight)` triples in any order; no triples give the
    /// empty view. Equal keys keep their input order (both sorts are
    /// stable), so `ids[rank]` stays aligned with the sampler's ranks.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on a non-finite key or a weight that
    /// is not finite-positive.
    pub fn from_triples(mut triples: Vec<(u64, f64, f64)>) -> Result<Self, QueryError> {
        if triples.is_empty() {
            return Ok(RangeView::of(None, None));
        }
        triples.sort_by(|a, b| a.1.total_cmp(&b.1));
        let pairs: Vec<(f64, f64)> = triples.iter().map(|&(_, key, w)| (key, w)).collect();
        let ids: Vec<u64> = triples.iter().map(|&(id, _, _)| id).collect();
        Ok(RangeView::of(Some(ChunkedRange::new(pairs)?), Some(ids)))
    }

    /// Maps a rank to its element id.
    pub fn id_at(&self, rank: usize) -> u64 {
        match &self.ids {
            Some(ids) => ids[rank],
            None => rank as u64,
        }
    }
}

/// Published view of a weighted-set index (no key dimension): one alias
/// table over the current weights. `table` is `None` when empty.
#[derive(Debug)]
pub struct WeightedView {
    /// Walker alias table over the live weights, if non-empty.
    pub table: Option<AliasTable>,
    /// Element id of each alias-table column.
    pub ids: Vec<u64>,
    /// Total sampling weight, cached at view-build time (see
    /// [`RangeView::total_weight`]).
    pub total_weight: f64,
}

impl WeightedView {
    /// Builds a view from an optional table and id map, caching the
    /// total weight.
    pub(crate) fn of(table: Option<AliasTable>, ids: Vec<u64>) -> Self {
        let total_weight = table.as_ref().map_or(0.0, AliasTable::total_weight);
        WeightedView { table, ids, total_weight }
    }
}

/// The published, immutable state of one index.
#[derive(Debug)]
pub enum IndexView {
    /// Weighted range sampling on the line (Theorem 3).
    Range(RangeView),
    /// Weighted set sampling (Theorem 1).
    Weighted(WeightedView),
    /// Set-union sampling (Theorem 8), served frozen.
    Union(SetUnionSampler),
    /// An externally served index (e.g. a tiered hot/cold backend): the
    /// view is a handle, the engine manages its own storage.
    External(Arc<dyn ExternalIndex>),
}

/// Order-preserving bit image of a finite `f64`, so keys can order a
/// [`BTreeMap`]; [`key_of_bits`] inverts it.
fn key_bits(key: f64) -> u64 {
    let b = key.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn key_of_bits(bits: u64) -> f64 {
    f64::from_bits(if bits >> 63 == 1 { bits & !(1 << 63) } else { !bits })
}

/// The writer-side state of a dynamic index: its live elements, held in
/// the order the next view publishes them. It is never sampled.
#[derive(Debug)]
struct MasterMap {
    /// `true` for a range index: keys order the elements and a bad op is
    /// a [`ServeError::Query`]. `false` for a weighted set: every key is
    /// 0 and a bad op is a [`ServeError::Weight`].
    keyed: bool,
    /// `(key_bits(key), id) → weight`. An in-order walk is the view's
    /// rank order, so equal keys publish by ascending id whatever the
    /// update history was.
    by_key: BTreeMap<(u64, u64), f64>,
    /// `id → key_bits(key)`: where an element sits in `by_key`.
    key_of: HashMap<u64, u64>,
}

impl MasterMap {
    fn new(keyed: bool) -> Self {
        MasterMap { keyed, by_key: BTreeMap::new(), key_of: HashMap::new() }
    }

    /// Inserts `id`, replacing its previous entry. Validates first, so
    /// an invalid upsert leaves the element it names as it was.
    fn upsert(&mut self, id: u64, key: f64, weight: f64) -> Result<(), ServeError> {
        let key = if self.keyed { key } else { 0.0 };
        if !key.is_finite() || !weight.is_finite() || weight <= 0.0 {
            return Err(if self.keyed {
                ServeError::Query(QueryError::EmptyRange)
            } else {
                ServeError::Weight(WeightError::NonPositive { index: 0, weight })
            });
        }
        let bits = key_bits(key);
        if let Some(old) = self.key_of.insert(id, bits) {
            self.by_key.remove(&(old, id));
        }
        self.by_key.insert((bits, id), weight);
        Ok(())
    }

    /// Removes `id`; returns whether it was present.
    fn remove(&mut self, id: u64) -> bool {
        self.key_of.remove(&id).is_some_and(|bits| self.by_key.remove(&(bits, id)).is_some())
    }

    /// Builds the read view of the current elements.
    fn view(&self) -> IndexView {
        if self.keyed {
            let triples =
                self.by_key.iter().map(|(&(bits, id), &w)| (id, key_of_bits(bits), w)).collect();
            let view = RangeView::from_triples(triples).expect("upsert validated every element");
            return IndexView::Range(view);
        }
        let ids: Vec<u64> = self.by_key.keys().map(|&(_, id)| id).collect();
        let weights: Vec<f64> = self.by_key.values().copied().collect();
        let table = (!ids.is_empty())
            .then(|| AliasTable::new(&weights).expect("upsert validated every weight"));
        IndexView::Weighted(WeightedView::of(table, ids))
    }
}

/// One registered index.
#[derive(Debug)]
pub(crate) struct IndexEntry {
    pub(crate) view: Snapshot<IndexView>,
    /// The element map of a dynamic index; `None` for static, union and
    /// external indexes, which take no element updates (union refreshes
    /// still serialize on this mutex).
    master: Mutex<Option<MasterMap>>,
    /// Samples served against the current union permutation; drives the
    /// paper's rebuild-every-`n`-queries argument for frozen serving.
    pub(crate) union_served: AtomicU64,
}

/// Named indexes behind snapshot cells. Register everything before
/// handing the registry to `Server::start`; thereafter updates flow
/// through `Request::Update` and publications through the snapshots.
#[derive(Debug, Default)]
pub struct IndexRegistry {
    map: HashMap<String, IndexEntry>,
}

impl IndexRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        IndexRegistry::default()
    }

    fn insert_entry(
        &mut self,
        name: &str,
        view: IndexView,
        master: Option<MasterMap>,
    ) -> Result<(), ServeError> {
        if self.map.contains_key(name) {
            return Err(ServeError::InvalidRequest(
                "an index with this name is already registered",
            ));
        }
        self.map.insert(
            name.to_string(),
            IndexEntry {
                view: Snapshot::new(view),
                master: Mutex::new(master),
                union_served: AtomicU64::new(0),
            },
        );
        Ok(())
    }

    /// Registers an immutable range index over `(key, weight)` pairs.
    /// Sampled ids are ranks in sorted key order.
    ///
    /// # Errors
    /// [`ServeError::Query`] on invalid input, or a duplicate-name error.
    pub fn register_range_static(
        &mut self,
        name: &str,
        pairs: Vec<(f64, f64)>,
    ) -> Result<(), ServeError> {
        let sampler = ChunkedRange::new(pairs)?;
        self.insert_entry(name, IndexView::Range(RangeView::of(Some(sampler), None)), None)
    }

    /// Registers an immutable range index from `(id, key, weight)`
    /// triples, so sampled ids are the caller's own (globally meaningful)
    /// ids rather than local ranks. This is the form a sharding tier
    /// uses: each shard registers its slice with the original element
    /// ids, and merged responses need no rank translation.
    ///
    /// # Errors
    /// [`ServeError::Query`] on invalid input, or a duplicate-name error.
    pub fn register_range_keyed(
        &mut self,
        name: &str,
        triples: Vec<(u64, f64, f64)>,
    ) -> Result<(), ServeError> {
        if triples.is_empty() {
            return Err(ServeError::Query(QueryError::EmptyRange));
        }
        self.insert_entry(name, IndexView::Range(RangeView::from_triples(triples)?), None)
    }

    /// Registers a dynamic range index from `(id, key, weight)` triples
    /// (possibly empty). Updates rebuild and republish the read view.
    ///
    /// # Errors
    /// [`ServeError::Query`] on invalid input (bad key/weight, duplicate
    /// id), or a duplicate-name error.
    pub fn register_range_dynamic(
        &mut self,
        name: &str,
        triples: Vec<(u64, f64, f64)>,
    ) -> Result<(), ServeError> {
        let mut master = MasterMap::new(true);
        for (id, key, w) in triples {
            if master.key_of.contains_key(&id) {
                return Err(ServeError::Query(QueryError::EmptyRange));
            }
            master.upsert(id, key, w)?;
        }
        self.insert_entry(name, master.view(), Some(master))
    }

    /// Registers a dynamic weighted-set index from `(id, weight)` pairs
    /// (possibly empty; duplicate ids keep the last weight).
    ///
    /// # Errors
    /// [`ServeError::Weight`] on a bad weight, or a duplicate-name error.
    pub fn register_weighted(
        &mut self,
        name: &str,
        pairs: &[(u64, f64)],
    ) -> Result<(), ServeError> {
        let mut master = MasterMap::new(false);
        for &(id, w) in pairs {
            master.upsert(id, 0.0, w)?;
        }
        self.insert_entry(name, master.view(), Some(master))
    }

    /// Registers a set-union index over a set family (Theorem 8). The
    /// permutation is drawn from `rng`; the service refreshes it
    /// automatically after `n` served samples.
    ///
    /// # Errors
    /// [`ServeError::Query`] when the family is empty, or a
    /// duplicate-name error.
    pub fn register_union<R: Rng + ?Sized>(
        &mut self,
        name: &str,
        sets: Vec<Vec<u64>>,
        rng: &mut R,
    ) -> Result<(), ServeError> {
        let sampler = SetUnionSampler::new(sets, rng)?;
        self.insert_entry(name, IndexView::Union(sampler), None)
    }

    /// Registers an externally served index (e.g. `iqs_tier`'s
    /// `TieredIndex`). The engine handles draws and its own storage
    /// transitions; the service routes requests and accounts I/O.
    ///
    /// # Errors
    /// A duplicate-name error.
    pub fn register_external(
        &mut self,
        name: &str,
        index: Arc<dyn ExternalIndex>,
    ) -> Result<(), ServeError> {
        self.insert_entry(name, IndexView::External(index), None)
    }

    /// Registered index names, unordered.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Pins and returns the named index's current snapshot.
    pub fn view(&self, name: &str) -> Option<Arc<IndexView>> {
        Some(self.map.get(name)?.view.load())
    }

    /// Total sampling weight of the named index, read from the value
    /// cached in the current snapshot — one snapshot load, no structure
    /// traversal. Empty indexes report `0.0`.
    ///
    /// # Errors
    /// [`ServeError::UnknownIndex`] for an unregistered name;
    /// [`ServeError::Unsupported`] for union indexes (uniform sampling —
    /// no weight dimension).
    pub fn total_weight(&self, name: &str) -> Result<f64, ServeError> {
        match &*self.entry(name)?.view.load() {
            IndexView::Range(rv) => Ok(rv.total_weight),
            IndexView::Weighted(wv) => Ok(wv.total_weight),
            IndexView::Union(_) => {
                Err(ServeError::Unsupported("union indexes have no weight dimension"))
            }
            IndexView::External(ev) => ev.total_weight(),
        }
    }

    /// Total sampling weight of the elements with keys in `[x, y]`,
    /// computed exactly from the range index's prefix sums. Empty
    /// indexes and empty ranges report `0.0`.
    ///
    /// # Errors
    /// [`ServeError::UnknownIndex`] for an unregistered name;
    /// [`ServeError::Unsupported`] for non-range indexes.
    pub fn range_weight(&self, name: &str, x: f64, y: f64) -> Result<f64, ServeError> {
        match &*self.entry(name)?.view.load() {
            IndexView::Range(rv) => Ok(rv.sampler.as_ref().map_or(0.0, |s| s.range_weight(x, y))),
            IndexView::External(ev) => ev.range_weight(x, y),
            _ => Err(ServeError::Unsupported("range weight requires a range index")),
        }
    }

    /// Total snapshot publications across all indexes (each index's
    /// initial publication counts as 1).
    pub fn swap_count(&self) -> u64 {
        self.map.values().map(|e| e.view.version()).sum()
    }

    pub(crate) fn entry(&self, name: &str) -> Result<&IndexEntry, ServeError> {
        self.map.get(name).ok_or_else(|| ServeError::UnknownIndex(name.to_string()))
    }

    /// Applies `ops` to a dynamic index's master and publishes a rebuilt
    /// view. Serialized per index by the master mutex; readers keep
    /// sampling the previous snapshot throughout.
    ///
    /// Ops are applied in order; on the first invalid op the batch stops,
    /// the ops already applied are still published, and the error is
    /// returned.
    pub(crate) fn apply_update(
        &self,
        name: &str,
        ops: &[UpdateOp],
    ) -> Result<(usize, u64), ServeError> {
        let entry = self.entry(name)?;
        let mut master = entry.master.lock().expect("index master poisoned");
        let Some(map) = master.as_mut() else {
            return Err(ServeError::Unsupported("updates require a dynamic index"));
        };
        let mut applied = 0usize;
        let mut failed = None;
        for &op in ops {
            match op {
                UpdateOp::Upsert { id, key, weight } => match map.upsert(id, key, weight) {
                    Ok(()) => applied += 1,
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                },
                UpdateOp::Remove { id } => applied += usize::from(map.remove(id)),
            }
        }
        match failed {
            Some(e) if applied == 0 => Err(e),
            failed => {
                let version = entry.view.store(map.view());
                failed.map_or(Ok((applied, version)), Err)
            }
        }
    }

    /// If the named union index has served its rebuild budget, clone the
    /// current view, redraw its permutation, and publish the refresh.
    /// Returns whether a refresh was published.
    pub(crate) fn maybe_refresh_union<R: Rng + ?Sized>(
        &self,
        name: &str,
        rng: &mut R,
    ) -> Result<bool, ServeError> {
        use std::sync::atomic::Ordering;
        let entry = self.entry(name)?;
        let due = {
            let view = entry.view.load();
            match &*view {
                IndexView::Union(s) => {
                    entry.union_served.load(Ordering::Relaxed) >= s.rebuild_budget() as u64
                }
                _ => return Err(ServeError::Unsupported("not a union index")),
            }
        };
        if !due {
            return Ok(false);
        }
        // Serialize refreshes on the master mutex and re-check, so a
        // burst of workers crossing the budget publishes one refresh.
        let _guard = entry.master.lock().expect("index master poisoned");
        let view = entry.view.load();
        let IndexView::Union(current) = &*view else {
            return Err(ServeError::Unsupported("not a union index"));
        };
        if entry.union_served.load(Ordering::Relaxed) < current.rebuild_budget() as u64 {
            return Ok(false);
        }
        let mut fresh = current.clone();
        fresh.refresh_permutation(rng);
        entry.union_served.store(0, Ordering::Relaxed);
        entry.view.store(IndexView::Union(fresh));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqs_core::RangeSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reg() -> IndexRegistry {
        let mut reg = IndexRegistry::new();
        reg.register_range_static("s", (0..64).map(|i| (i as f64, 1.0)).collect()).unwrap();
        reg.register_range_dynamic("d", (0..64).map(|i| (i, i as f64, 1.0)).collect()).unwrap();
        reg.register_weighted("w", &[(1, 1.0), (2, 3.0)]).unwrap();
        reg
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = reg();
        assert!(matches!(
            r.register_weighted("w", &[(9, 1.0)]),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn static_range_refuses_updates() {
        let r = reg();
        let err = r.apply_update("s", &[UpdateOp::Remove { id: 0 }]).unwrap_err();
        assert!(matches!(err, ServeError::Unsupported(_)));
    }

    #[test]
    fn dynamic_update_publishes_new_snapshot() {
        let r = reg();
        let v0 = r.view("d").unwrap();
        let (applied, version) = r
            .apply_update(
                "d",
                &[
                    UpdateOp::Upsert { id: 100, key: 3.5, weight: 2.0 },
                    UpdateOp::Remove { id: 5 },
                    UpdateOp::Remove { id: 999 }, // absent: not applied
                ],
            )
            .unwrap();
        assert_eq!(applied, 2);
        assert_eq!(version, 2);
        // Old pinned snapshot unchanged; new view reflects the update.
        let (IndexView::Range(old), IndexView::Range(new)) = (&*v0, &*r.view("d").unwrap()) else {
            panic!("range views expected")
        };
        assert_eq!(old.sampler.as_ref().unwrap().len(), 64);
        let new_sampler = new.sampler.as_ref().unwrap();
        assert_eq!(new_sampler.len(), 64); // +1 insert, -1 remove
        let ids = new.ids.as_ref().unwrap();
        assert!(ids.contains(&100) && !ids.contains(&5));
        // Rank/id alignment: id 100 sits at the rank of key 3.5.
        let rank = ids.iter().position(|&id| id == 100).unwrap();
        assert_eq!(new_sampler.keys()[rank], 3.5);
    }

    #[test]
    fn updates_keep_one_view_alive() {
        // A dynamic index must not pin superseded views: with no reader
        // holding it, the first view is gone after the updates.
        let r = reg();
        let first = Arc::downgrade(&r.view("d").unwrap());
        for batch in 0..3u64 {
            r.apply_update("d", &[UpdateOp::Upsert { id: 200 + batch, key: 0.5, weight: 1.0 }])
                .unwrap();
        }
        assert!(first.upgrade().is_none(), "a superseded view outlived its readers");
    }

    #[test]
    fn weighted_update_and_emptying() {
        let r = reg();
        r.apply_update("w", &[UpdateOp::Remove { id: 1 }, UpdateOp::Remove { id: 2 }]).unwrap();
        let IndexView::Weighted(v) = &*r.view("w").unwrap() else { panic!() };
        assert!(v.table.is_none());
        // Refill works too.
        r.apply_update("w", &[UpdateOp::Upsert { id: 7, key: 0.0, weight: 1.5 }]).unwrap();
        let IndexView::Weighted(v) = &*r.view("w").unwrap() else { panic!() };
        assert_eq!(v.ids, vec![7]);
    }

    #[test]
    fn bad_op_stops_batch_but_publishes_prefix() {
        let r = reg();
        let err = r
            .apply_update(
                "w",
                &[
                    UpdateOp::Upsert { id: 50, key: 0.0, weight: 2.0 },
                    UpdateOp::Upsert { id: 51, key: 0.0, weight: -1.0 }, // invalid
                    UpdateOp::Upsert { id: 52, key: 0.0, weight: 2.0 },  // never reached
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::Weight(_)));
        let IndexView::Weighted(v) = &*r.view("w").unwrap() else { panic!() };
        assert!(v.ids.contains(&50) && !v.ids.contains(&51) && !v.ids.contains(&52));
    }

    #[test]
    fn bad_range_op_stops_batch_but_publishes_prefix() {
        let r = reg();
        let err = r
            .apply_update(
                "d",
                &[
                    UpdateOp::Upsert { id: 100, key: 0.5, weight: 2.0 },
                    UpdateOp::Upsert { id: 101, key: f64::NAN, weight: 1.0 }, // invalid
                    UpdateOp::Upsert { id: 102, key: 1.5, weight: 2.0 },      // never reached
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::Query(_)));
        let IndexView::Range(v) = &*r.view("d").unwrap() else { panic!() };
        let ids = v.ids.as_ref().unwrap();
        assert!(ids.contains(&100) && !ids.contains(&101) && !ids.contains(&102));
        assert_eq!(r.total_weight("d").unwrap(), 66.0);
    }

    #[test]
    fn invalid_upsert_keeps_the_existing_element() {
        let mut r = IndexRegistry::new();
        r.register_range_dynamic("d", (0..8).map(|i| (i, i as f64, 1.0)).collect()).unwrap();
        let bad = [UpdateOp::Upsert { id: 3, key: 3.0, weight: -1.0 }];
        assert!(matches!(r.apply_update("d", &bad), Err(ServeError::Query(_))));
        r.apply_update("d", &[UpdateOp::Upsert { id: 100, key: 9.0, weight: 1.0 }]).unwrap();
        let IndexView::Range(v) = &*r.view("d").unwrap() else { panic!() };
        assert!(v.ids.as_ref().unwrap().contains(&3), "id 3 vanished: {:?}", v.ids);
        assert_eq!(v.total_weight, 9.0);
    }

    #[test]
    fn equal_keys_publish_in_id_order_whatever_the_history() {
        let r = reg();
        // Ids arrive 9, 7, 8 on one key; 7 is then moved away and back.
        let up = |id, key| UpdateOp::Upsert { id, key, weight: 1.0 };
        r.apply_update("d", &[up(9, 70.5), up(7, 70.5), up(8, 70.5)]).unwrap();
        r.apply_update("d", &[up(7, 1.5), up(7, 70.5), up(200, -0.0), up(201, 0.0)]).unwrap();
        let IndexView::Range(v) = &*r.view("d").unwrap() else { panic!() };
        let keys = v.sampler.as_ref().unwrap().keys();
        let at = |key: f64| -> Vec<u64> {
            (0..keys.len()).filter(|&rank| keys[rank] == key).map(|rank| v.id_at(rank)).collect()
        };
        assert_eq!(at(70.5), vec![7, 8, 9]);
        // -0.0 orders before +0.0 (total order on keys); id 0 sits at +0.0.
        assert_eq!(at(0.0), vec![200, 0, 201]);
    }

    #[test]
    fn union_refresh_honors_budget() {
        use std::sync::atomic::Ordering;
        let mut r = IndexRegistry::new();
        let mut rng = StdRng::seed_from_u64(4);
        r.register_union("u", vec![(0..40u64).collect(), (20..60u64).collect()], &mut rng).unwrap();
        assert!(!r.maybe_refresh_union("u", &mut rng).unwrap());
        r.entry("u").unwrap().union_served.store(1_000_000, Ordering::Relaxed);
        assert!(r.maybe_refresh_union("u", &mut rng).unwrap());
        assert_eq!(r.entry("u").unwrap().union_served.load(Ordering::Relaxed), 0);
        assert_eq!(r.swap_count(), 2);
    }

    #[test]
    fn unknown_index_errors() {
        let r = reg();
        assert!(matches!(r.entry("nope"), Err(ServeError::UnknownIndex(_))));
        assert!(r.view("nope").is_none());
    }

    #[test]
    fn keyed_static_index_keeps_caller_ids() {
        let mut r = IndexRegistry::new();
        // Unsorted triples with duplicate keys; ids are global (offset).
        r.register_range_keyed(
            "k",
            vec![(1007, 7.0, 2.0), (1003, 3.0, 1.0), (1005, 3.0, 4.0), (1001, 1.0, 8.0)],
        )
        .unwrap();
        let IndexView::Range(v) = &*r.view("k").unwrap() else { panic!() };
        // Key-sorted, equal keys in input order (stable sort).
        assert_eq!(v.ids.as_deref(), Some(&[1001, 1003, 1005, 1007][..]));
        assert_eq!(v.id_at(2), 1005);
        assert_eq!(v.sampler.as_ref().unwrap().keys(), &[1.0, 3.0, 3.0, 7.0][..]);
    }

    #[test]
    fn cached_total_weight_matches_live_range_weight() {
        let r = reg();
        // Static range: cached value is bit-identical to the full-range
        // prefix-sum probe (the sharded router's exactness relies on it).
        let IndexView::Range(v) = &*r.view("s").unwrap() else { panic!() };
        let live = v.sampler.as_ref().unwrap().range_weight(f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(r.total_weight("s").unwrap().to_bits(), live.to_bits());
        assert_eq!(r.total_weight("s").unwrap(), 64.0);
        assert_eq!(r.total_weight("w").unwrap(), 4.0);
        // Partial range weight goes through the prefix sums.
        assert_eq!(r.range_weight("s", 0.0, 9.5).unwrap(), 10.0);
        assert_eq!(r.range_weight("s", 100.0, 200.0).unwrap(), 0.0);
        assert!(matches!(r.range_weight("w", 0.0, 1.0), Err(ServeError::Unsupported(_))));
        assert!(matches!(r.total_weight("nope"), Err(ServeError::UnknownIndex(_))));
    }

    #[test]
    fn total_weight_tracks_dynamic_updates() {
        let r = reg();
        assert_eq!(r.total_weight("d").unwrap(), 64.0);
        r.apply_update("d", &[UpdateOp::Upsert { id: 0, key: 0.0, weight: 5.0 }]).unwrap();
        assert_eq!(r.total_weight("d").unwrap(), 68.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut u = IndexRegistry::new();
        u.register_union("u", vec![vec![1, 2, 3]], &mut rng).unwrap();
        assert!(matches!(u.total_weight("u"), Err(ServeError::Unsupported(_))));
    }
}
