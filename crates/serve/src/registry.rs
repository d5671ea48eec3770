//! The [`IndexRegistry`]: named sampling indexes behind epoch-published
//! snapshots.
//!
//! Each registered index is a pair of states:
//!
//! * a **published view** ([`IndexView`]) — an immutable, read-optimized
//!   structure (a [`ChunkedRange`] and its ids, or the handle of an
//!   [`ExternalIndex`]) inside a [`Snapshot`] cell. Workers pin it per
//!   request; any number of threads sample it concurrently.
//! * a **master** — for dynamic indexes, the writer-side state behind a
//!   mutex: which ids are live and at what key, the running total, and
//!   the view to write the next patch into. It keeps no second copy of
//!   the elements — the published view, in `(key, id)` order, is their
//!   one ordered copy — and nothing ever samples it: an update finds
//!   each element it names in the view, derives the next view, and
//!   publishes it atomically. Readers of the old view are never blocked,
//!   never torn, and drop the old snapshot when their in-flight queries
//!   finish. A panic that poisons the mutex loses only the batch it
//!   interrupted: the next update re-derives the master from the
//!   published view.
//!
//! How the next view is derived is read off the batch itself. A batch
//! in which every applied op re-weights a live element at its current
//! key leaves the keys, the ids and every rank where they were, so the
//! next view is the current one patched: each op's rank is one search of
//! the view, [`ChunkedRange::reweighted`] rebuilds what the touched
//! chunks feed, the result is bit-identical to a fresh build, and it
//! shares the current view's ids. Any other batch (an insert, a remove,
//! a key move) builds the view afresh from a merge of the current view's
//! order, less the elements it touched, with what it left of those,
//! sorted — already the next view's rank order.
//!
//! A master builds its views [`ChunkedRange::for_reweights`]: `T_chunk`
//! keeps no tables on its top levels, which every patch would otherwise
//! rebuild whole, and a query stands in for them with their tabled
//! descendants. Static, keyed and tiered views are never re-weighted and
//! keep every level.
//!
//! A patch is written into a *base*. A range master keeps the one view
//! its last publication superseded and, when that publication was a
//! patch, the ranks it changed (its *lag*). Once no reader pins that
//! view (`Arc::into_inner` hands it to the writer, so nobody can see it
//! change), the base is that view brought forward by its lag — the
//! chunks and `T_chunk` tables the lag touched, copied from the current
//! view — so a batch writes only what the last two batches changed.
//! Otherwise (the first patch, a pinned spare, a structural publication
//! before it) the base is a copy of the current view.
//!
//! The registry map itself is frozen when the server starts (indexes are
//! registered up front); all runtime mutation goes through the masters
//! and snapshot cells, which is what makes the whole object `Sync`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use iqs_alias::WeightError;
use iqs_core::{ChunkedRange, QueryError, QueryPlan, RangeSampler, Tiles};
use rand::RngCore;

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
    /// (static indexes registered from bare `(key, weight)` pairs). One
    /// copy is shared by every view of the same key set: a re-weight
    /// leaves every id at its rank.
    pub ids: Option<Arc<[u64]>>,
    /// Total sampling weight, cached at view-build time so weight probes
    /// ([`crate::Request::TotalWeight`]) cost a snapshot load and
    /// nothing else. Computed as the full-range prefix sum, so it is
    /// bit-identical to `range_weight(-inf, inf)` on this snapshot.
    pub total_weight: f64,
}

impl RangeView {
    /// Builds a view from an optional sampler and rank → id map, caching
    /// the total weight.
    fn of(sampler: Option<ChunkedRange>, ids: Option<Arc<[u64]>>) -> Self {
        let total_weight =
            sampler.as_ref().map_or(0.0, |s| s.range_weight(f64::NEG_INFINITY, f64::INFINITY));
        RangeView { sampler, ids, total_weight }
    }

    /// Builds the Theorem-3 sampler and the rank → id table from
    /// `(id, key, weight)` triples in any order; no triples give the
    /// empty view. Equal keys keep their input order (the sort is
    /// stable), so `ids[rank]` stays aligned with the sampler's ranks.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] on a non-finite key, a weight that is
    /// not finite-positive, or weights whose sum overflows `f64`.
    pub fn from_triples(mut triples: Vec<(u64, f64, f64)>) -> Result<Self, QueryError> {
        triples.sort_by(|a, b| a.1.total_cmp(&b.1));
        let pairs = triples.iter().map(|&(_, key, w)| (key, w)).collect();
        // A slice's iterator knows its length: the ids are written
        // straight into the shared allocation.
        let ids = triples.iter().map(|&(id, _, _)| id).collect();
        RangeView::from_sorted(pairs, ids, ChunkedRange::new)
    }

    /// [`Self::from_triples`] for elements already in key order:
    /// `(key, weight)` by rank and the id at each rank, the sampler built
    /// by `build`. `ChunkedRange` recognises sorted input, so nothing is
    /// sorted on this path.
    fn from_sorted(
        pairs: Vec<(f64, f64)>,
        ids: Arc<[u64]>,
        build: impl FnOnce(Vec<(f64, f64)>) -> Result<ChunkedRange, QueryError>,
    ) -> Result<Self, QueryError> {
        if pairs.is_empty() {
            return Ok(RangeView::of(None, None));
        }
        Ok(RangeView::of(Some(build(pairs)?), Some(ids)))
    }

    /// The view of the same elements after `changes` (ranked, applied in
    /// order) replaced their weights: bit-identical to a fresh build
    /// ([`ChunkedRange::reweighted`], which `behind` is passed on to),
    /// sharing `self`'s ids.
    fn reweighted(&self, changes: &[(usize, f64)], behind: Option<(RangeView, &[usize])>) -> Self {
        let sampler = self.sampler.as_ref().expect("a live element is in the view");
        let behind = behind.and_then(|(old, lag)| Some((old.sampler?, lag)));
        let sampler =
            sampler.reweighted(changes, behind).expect("the master validated every weight");
        RangeView::of(Some(sampler), self.ids.clone())
    }

    /// Maps a rank to its element id.
    pub fn id_at(&self, rank: usize) -> u64 {
        match &self.ids {
            Some(ids) => ids[rank],
            None => rank as u64,
        }
    }

    /// Appends the ids of `s` independent weighted draws from keys in
    /// `[x, y]` to `out`, through the sampler's id door
    /// ([`ChunkedRange::sample_ids_planned`]): `plan` is the caller's
    /// kept query plan and `tiles` the arrays its draws run in, so a seat
    /// that keeps both allocates and fills nothing here, and asked the
    /// range it asked last, with this view still published, plans nothing
    /// either.
    ///
    /// # Errors
    /// [`QueryError::EmptyRange`] when the view or the interval is empty;
    /// `out` is then as it was.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_ids_into<R: RngCore + ?Sized>(
        &self,
        x: f64,
        y: f64,
        s: usize,
        rng: &mut R,
        plan: &mut QueryPlan,
        tiles: &mut Tiles,
        out: &mut Vec<u64>,
    ) -> Result<(), QueryError> {
        let sampler = self.sampler.as_ref().ok_or(QueryError::EmptyRange)?;
        let start = out.len();
        out.resize(start + s, 0);
        let ids = self.ids.as_deref();
        let drawn = sampler.sample_ids_planned(plan, tiles, x, y, rng, ids, &mut out[start..]);
        if drawn.is_err() {
            out.truncate(start);
        }
        drawn
    }
}

/// The published, immutable state of one index.
// A view lives behind its snapshot's `Arc`, one per publication, so the
// size of the larger variant costs nothing; boxing it would cost every
// draw a pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum IndexView {
    /// Weighted range sampling on the line (Theorem 3).
    Range(RangeView),
    /// An externally served index (e.g. a tiered hot/cold backend): the
    /// view is a handle, the engine manages its own storage.
    External(Arc<dyn ExternalIndex>),
}

/// Order-preserving bit image of a finite `f64`: a master's views are
/// in `(key_bits(key), id)` order, which puts `-0.0` before `0.0` and
/// equal keys by ascending id.
fn key_bits(key: f64) -> u64 {
    let b = key.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The writer-side state of a dynamic range index. It holds no copy of
/// the elements: the published view is their one ordered copy, and a
/// batch finds an element there ([`Batch`]). It is never sampled.
#[derive(Debug, Default)]
struct MasterMap {
    /// `id → key_bits(key)` of every live element: which ids are live,
    /// and where in the view's order each one sits.
    key_of: HashMap<u64, u64>,
    /// The view the last publication superseded, kept so the next patch
    /// can be brought forward from it (if no reader still pins it)
    /// instead of copying the current view. At most this one.
    spare: Option<Arc<IndexView>>,
    /// The ranks the last publication re-weighted when it was a patch —
    /// all that tells `spare` from the current view. `None` after a
    /// structural publication.
    lag: Option<Vec<usize>>,
    /// The live weights' running sum, kept by adding and subtracting: a
    /// guard against totals past `f64::MAX` (see [`TOTAL_HEADROOM`]),
    /// never a weight any view serves.
    total: f64,
}

/// How far below `f64::MAX` a master keeps its running total. That sum
/// and the ones a view computes (chunk totals, `T_chunk` nodes, prefix
/// sums, a query's chooser) add the same weights in different orders and
/// differ by rounding only — far less than 1/1024 of the total — so a
/// total inside the head-room is finite in every one of them.
const TOTAL_HEADROOM: f64 = 1.0 + 1.0 / 1024.0;

/// The bits of `key` if `key` and `weight` may enter an index.
fn checked(key: f64, weight: f64) -> Result<u64, ServeError> {
    if !key.is_finite() || !weight.is_finite() || weight <= 0.0 {
        return Err(ServeError::Query(QueryError::EmptyRange));
    }
    Ok(key_bits(key))
}

impl MasterMap {
    /// The master of the elements `view` publishes, as a fresh one holds
    /// them: no spare, no lag, and the total summed afresh.
    fn of_view(view: &RangeView) -> Self {
        let mut master = MasterMap::default();
        let (Some(sampler), Some(ids)) = (&view.sampler, &view.ids) else { return master };
        for ((&key, &weight), &id) in sampler.keys().iter().zip(sampler.weights()).zip(ids.iter()) {
            master.key_of.insert(id, key_bits(key));
            master.total += weight;
        }
        master
    }

    /// Takes the total that replacing weight `old` (0 for a new element)
    /// by `weight` leaves, or refuses it with
    /// [`WeightError::TotalOverflow`] past [`TOTAL_HEADROOM`], changing
    /// nothing.
    fn admit(&mut self, old: f64, weight: f64) -> Result<(), ServeError> {
        let total = self.total - old + weight;
        if !(total * TOTAL_HEADROOM).is_finite() {
            return Err(ServeError::Weight(WeightError::TotalOverflow));
        }
        self.total = total;
        Ok(())
    }
}

/// What a structural batch has done to one element: its rank in the view
/// the batch started from, if it had one, and its `(key, weight)` now,
/// `None` once removed.
#[derive(Debug, Clone, Copy)]
struct Edit {
    was: Option<usize>,
    now: Option<(f64, f64)>,
}

/// One batch's ops against the published view they start from, which
/// holds the live elements in `(key bits, id)` order. An op finds its
/// element there with one search. As long as every applied op re-weighted
/// a live element at its key, the batch is the new weight of each rank it
/// touched, which patches the view ([`RangeView::reweighted`]); the first
/// insert, key move or remove makes it *structural*, and from then on it
/// keeps each touched element's [`Edit`] and the next view is a merge.
struct Batch<'v> {
    keys: &'v [f64],
    weights: &'v [f64],
    ids: &'v [u64],
    /// `rank → weight` of the applied ops, the last write to a rank
    /// winning, while the batch is not structural: a map, so that a rank
    /// written twice costs a lookup, not a scan of the batch.
    reweights: BTreeMap<usize, f64>,
    /// By id, every element a structural batch touched.
    edits: Option<HashMap<u64, Edit>>,
}

impl<'v> Batch<'v> {
    fn new(view: &'v RangeView) -> Self {
        let (keys, weights) =
            view.sampler.as_ref().map_or((&[][..], &[][..]), |s| (s.keys(), s.weights()));
        let ids = view.ids.as_deref().unwrap_or(&[]);
        Batch { keys, weights, ids, reweights: BTreeMap::new(), edits: None }
    }

    /// The rank of `(bits, id)` in the view, if it is there: one search
    /// of the keys, then a gallop over the equal keys, whose ids ascend.
    fn find(&self, bits: u64, id: u64) -> Option<usize> {
        let n = self.keys.len();
        let before = |rank: usize| key_bits(self.keys[rank]) == bits && self.ids[rank] < id;
        // Every rank below `lo` is before `(bits, id)`; once the gallop
        // stops, none from `hi` is.
        let mut lo = self.keys.partition_point(|&k| key_bits(k) < bits);
        let (mut hi, mut step) = (lo, 1);
        while hi < n && before(hi) {
            lo = hi + 1;
            hi = (hi + step).min(n);
            step *= 2;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < n && key_bits(self.keys[lo]) == bits && self.ids[lo] == id).then_some(lo)
    }

    /// The weight at `rank` so far: this batch's last re-weight of it,
    /// else the view's.
    fn weight_at(&self, rank: usize) -> f64 {
        self.reweights.get(&rank).copied().unwrap_or(self.weights[rank])
    }

    /// `id` as the ops so far left it.
    fn state(&self, master: &MasterMap, id: u64) -> Edit {
        if let Some(&edit) = self.edits.as_ref().and_then(|edits| edits.get(&id)) {
            return edit;
        }
        let Some(&bits) = master.key_of.get(&id) else { return Edit { was: None, now: None } };
        let rank = self.find(bits, id).expect("a live element the batch left alone is in the view");
        Edit { was: Some(rank), now: Some((self.keys[rank], self.weight_at(rank))) }
    }

    /// Records `edit` of `id`, making the batch structural.
    fn commit(&mut self, master: &mut MasterMap, id: u64, edit: Edit) {
        let (keys, ids) = (self.keys, self.ids);
        let reweights = &mut self.reweights;
        let edits = self.edits.get_or_insert_with(|| {
            let mut edits = HashMap::new();
            for (rank, w) in std::mem::take(reweights) {
                edits.insert(ids[rank], Edit { was: Some(rank), now: Some((keys[rank], w)) });
            }
            edits
        });
        match edit.now {
            Some((key, _)) => master.key_of.insert(id, key_bits(key)),
            None => master.key_of.remove(&id),
        };
        edits.insert(id, edit);
    }

    /// Upserts `id`. Validates first — the key, the weight, and the total
    /// it leaves ([`MasterMap::admit`]) — so an invalid upsert changes
    /// nothing.
    fn upsert(
        &mut self,
        master: &mut MasterMap,
        id: u64,
        key: f64,
        weight: f64,
    ) -> Result<(), ServeError> {
        let bits = checked(key, weight)?;
        if self.edits.is_none() {
            if let Some(rank) = self.find(bits, id) {
                master.admit(self.weight_at(rank), weight)?;
                self.reweights.insert(rank, weight);
                return Ok(());
            }
        }
        let edit = self.state(master, id);
        master.admit(edit.now.map_or(0.0, |(_, w)| w), weight)?;
        self.commit(master, id, Edit { now: Some((key, weight)), ..edit });
        Ok(())
    }

    /// Removes `id`; returns whether it was live.
    fn remove(&mut self, master: &mut MasterMap, id: u64) -> bool {
        let edit = self.state(master, id);
        let Some((_, weight)) = edit.now else { return false };
        master.total -= weight;
        self.commit(master, id, Edit { now: None, ..edit });
        true
    }

    /// The view a structural batch publishes: the view's elements in
    /// order, less the ones it touched, merged with what it left of
    /// those, sorted by `(key bits, id)` — no sort of the whole.
    fn merged(&self, edits: &HashMap<u64, Edit>) -> RangeView {
        let mut gone: Vec<usize> = edits.values().filter_map(|edit| edit.was).collect();
        gone.sort_unstable();
        let mut now: Vec<(u64, u64, f64, f64)> = edits
            .iter()
            .filter_map(|(&id, edit)| edit.now.map(|(key, w)| (key_bits(key), id, key, w)))
            .collect();
        now.sort_unstable_by_key(|&(bits, id, _, _)| (bits, id));
        let len = self.keys.len() - gone.len() + now.len();
        let (mut pairs, mut ids) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let (mut gone, mut now) = (gone.into_iter().peekable(), now.into_iter().peekable());
        for rank in 0..self.keys.len() {
            if gone.next_if_eq(&rank).is_some() {
                continue;
            }
            let at = (key_bits(self.keys[rank]), self.ids[rank]);
            while let Some((_, id, key, w)) = now.next_if(|&(bits, id, _, _)| (bits, id) < at) {
                pairs.push((key, w));
                ids.push(id);
            }
            pairs.push((self.keys[rank], self.weights[rank]));
            ids.push(self.ids[rank]);
        }
        for (_, id, key, w) in now {
            pairs.push((key, w));
            ids.push(id);
        }
        RangeView::from_sorted(pairs, ids.into(), ChunkedRange::for_reweights)
            .expect("every upsert was validated")
    }
}

/// The total weight of `view`'s elements with keys in `[x, y]`.
fn weight_in(view: &IndexView, x: f64, y: f64) -> Result<f64, ServeError> {
    match view {
        IndexView::Range(rv) => Ok(rv.sampler.as_ref().map_or(0.0, |s| s.range_weight(x, y))),
        IndexView::External(ev) => ev.range_weight(x, y),
    }
}

/// One registered index.
#[derive(Debug)]
pub(crate) struct IndexEntry {
    pub(crate) view: Snapshot<IndexView>,
    /// The element map of a dynamic index; `None` for static and
    /// external indexes, which take no element updates.
    master: Mutex<Option<MasterMap>>,
    /// The last weight probe a range index answered
    /// ([`IndexRegistry::range_weight`]); `None` for an external index,
    /// which answers its own.
    probe: Option<Mutex<Probe>>,
}

/// One range-weight probe and its answer, keyed `[v, x bits, y bits]`
/// where `v` is the publication count read *before* the view was
/// loaded. The view a load returns is at least that recent, so the
/// answer a key holds is never older than the publication it names, and
/// a probe that starts after a publication reads a larger count and
/// misses. The default key matches nothing: counts start at 1.
#[derive(Debug, Default)]
struct Probe {
    key: [u64; 3],
    weight: f64,
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
                "an index with this name is already registered".into(),
            ));
        }
        let probe = matches!(view, IndexView::Range(_)).then(Mutex::default);
        self.map.insert(
            name.to_string(),
            IndexEntry { view: Snapshot::new(view), master: Mutex::new(master), probe },
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
    /// (possibly empty). Each update publishes the next read view: a
    /// batch of re-weights patches the current one, any other batch
    /// builds it afresh (see the module docs).
    ///
    /// # Errors
    /// [`ServeError::Query`] on a bad key or weight,
    /// [`ServeError::Weight`] on weights whose sum overflows,
    /// [`ServeError::InvalidRequest`] naming an id that appears twice, or
    /// a duplicate-name error.
    pub fn register_range_dynamic(
        &mut self,
        name: &str,
        mut triples: Vec<(u64, f64, f64)>,
    ) -> Result<(), ServeError> {
        let mut master = MasterMap::default();
        for &(id, key, w) in &triples {
            if master.key_of.contains_key(&id) {
                return Err(ServeError::InvalidRequest(
                    format!("element id {id} is repeated").into(),
                ));
            }
            let bits = checked(key, w)?;
            master.admit(0.0, w)?;
            master.key_of.insert(id, bits);
        }
        triples.sort_unstable_by_key(|&(id, key, _)| (key_bits(key), id));
        let pairs = triples.iter().map(|&(_, key, w)| (key, w)).collect();
        let ids = triples.iter().map(|&(id, _, _)| id).collect();
        let view = RangeView::from_sorted(pairs, ids, ChunkedRange::for_reweights)
            .expect("every triple was validated");
        self.insert_entry(name, IndexView::Range(view), Some(master))
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
    /// [`ServeError::UnknownIndex`] for an unregistered name; an
    /// external index's own errors.
    pub fn total_weight(&self, name: &str) -> Result<f64, ServeError> {
        match &*self.entry(name)?.view.load() {
            IndexView::Range(rv) => Ok(rv.total_weight),
            IndexView::External(ev) => ev.total_weight(),
        }
    }

    /// Total sampling weight of the elements with keys in `[x, y]`,
    /// computed exactly from the range index's prefix sums. Empty
    /// indexes and empty ranges report `0.0`.
    ///
    /// A range index answers a probe once per publication: the same
    /// `x` and `y` asked again before the next one (what a router asks
    /// of a shard it covers in part while its queries repeat a range)
    /// returns the bits the last probe computed, without loading the
    /// view ([`Probe`]). The memo is held while a miss computes; a probe
    /// that finds it busy does not wait, it computes on its own.
    ///
    /// # Errors
    /// [`ServeError::UnknownIndex`] for an unregistered name; an
    /// external index's own errors.
    pub fn range_weight(&self, name: &str, x: f64, y: f64) -> Result<f64, ServeError> {
        let entry = self.entry(name)?;
        let Some(probe) = &entry.probe else {
            return weight_in(&entry.view.load(), x, y);
        };
        let key = [entry.view.version(), x.to_bits(), y.to_bits()];
        let Ok(mut last) = probe.try_lock() else {
            return weight_in(&entry.view.load(), x, y);
        };
        if last.key != key {
            let weight = weight_in(&entry.view.load(), x, y)?;
            *last = Probe { key, weight };
        }
        Ok(last.weight)
    }

    /// Total snapshot publications across all indexes (each index's
    /// initial publication counts as 1).
    pub fn swap_count(&self) -> u64 {
        self.map.values().map(|e| e.view.version()).sum()
    }

    pub(crate) fn entry(&self, name: &str) -> Result<&IndexEntry, ServeError> {
        self.map.get(name).ok_or_else(|| ServeError::UnknownIndex(name.to_string()))
    }

    /// Applies `ops` to a dynamic index's master and publishes the next
    /// view: the current one patched when every applied op re-weighted
    /// a live element in place, a fresh build of the current one merged
    /// with the batch's edits otherwise (see the module docs). Each op
    /// finds its element in the current view. Serialized per index by the
    /// master mutex; readers keep sampling the previous snapshot
    /// throughout. A mutex
    /// poisoned by a panic mid-batch hands over a master that may hold
    /// ops nobody published; it is replaced by the master of the
    /// published view before this batch applies.
    ///
    /// Ops are applied in order; on the first invalid op the batch stops,
    /// the ops already applied are still published, and the error is
    /// returned. An upsert is invalid for a bad key or weight, and also
    /// when it would carry the index's total weight to within
    /// [`TOTAL_HEADROOM`] of `f64::MAX`: that one answers
    /// [`ServeError::Weight`]`(`[`WeightError::TotalOverflow`]`)` before it
    /// edits anything. A batch that applies nothing (say, removes of
    /// absent ids) publishes nothing and reports the current version.
    pub(crate) fn apply_update(
        &self,
        name: &str,
        ops: &[UpdateOp],
    ) -> Result<(usize, u64), ServeError> {
        let entry = self.entry(name)?;
        let mut master = entry.master.lock().unwrap_or_else(|poisoned| {
            entry.master.clear_poison();
            let mut master = poisoned.into_inner();
            if let (Some(map), IndexView::Range(view)) = (master.as_mut(), &*entry.view.load()) {
                *map = MasterMap::of_view(view);
            }
            master
        });
        let Some(map) = master.as_mut() else {
            return Err(ServeError::Unsupported("updates require a dynamic index".into()));
        };
        let published = entry.view.load();
        let IndexView::Range(current) = &*published else {
            unreachable!("a range master publishes range views")
        };
        let mut batch = Batch::new(current);
        let mut applied = 0usize;
        let mut failed = None;
        for &op in ops {
            match op {
                UpdateOp::Upsert { id, key, weight } => {
                    if let Err(e) = batch.upsert(map, id, key, weight) {
                        failed = Some(e);
                        break;
                    }
                    applied += 1;
                }
                UpdateOp::Remove { id } => applied += usize::from(batch.remove(map, id)),
            }
        }
        if applied == 0 {
            return failed.map_or(Ok((0, entry.view.version())), Err);
        }
        // The superseded view, unless a reader still pins it, and what
        // the current view's publication changed since it.
        let spare = map.spare.take().and_then(Arc::into_inner);
        let lag = map.lag.take();
        let next = match &batch.edits {
            None => {
                let behind = match (spare, &lag) {
                    (Some(IndexView::Range(old)), Some(lag)) => Some((old, &lag[..])),
                    _ => None,
                };
                let changes: Vec<_> = batch.reweights.iter().map(|(&rank, &w)| (rank, w)).collect();
                map.lag = Some(batch.reweights.into_keys().collect());
                current.reweighted(&changes, behind)
            }
            Some(edits) => {
                // Freed before the build, not after: two views at the
                // peak, as when nothing is kept.
                drop(spare);
                batch.merged(edits)
            }
        };
        let (version, superseded) = entry.view.store(IndexView::Range(next));
        map.spare = Some(superseded);
        failed.map_or(Ok((applied, version)), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqs_core::RangeSampler;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn reg() -> IndexRegistry {
        let mut reg = IndexRegistry::new();
        reg.register_range_static("s", (0..64).map(|i| (i as f64, 1.0)).collect()).unwrap();
        reg.register_range_dynamic("d", (0..64).map(|i| (i, i as f64, 1.0)).collect()).unwrap();
        reg
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = reg();
        assert!(matches!(
            r.register_range_static("d", vec![(9.0, 1.0)]),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn a_repeated_id_is_an_invalid_request_naming_it() {
        let mut r = IndexRegistry::new();
        let triples = vec![(4, 0.0, 1.0), (7, 1.0, 1.0), (4, 2.0, 1.0)];
        assert_eq!(
            r.register_range_dynamic("d", triples),
            Err(ServeError::InvalidRequest("element id 4 is repeated".into()))
        );
        assert!(r.view("d").is_none(), "nothing was registered");
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
        let all: Vec<_> = (0..64).map(|id| UpdateOp::Remove { id }).collect();
        r.apply_update("d", &all).unwrap();
        let IndexView::Range(v) = &*r.view("d").unwrap() else { panic!() };
        assert!(v.sampler.is_none() && v.ids.is_none());
        assert_eq!(v.total_weight, 0.0);
        // Refill works too.
        r.apply_update("d", &[UpdateOp::Upsert { id: 7, key: 0.0, weight: 1.5 }]).unwrap();
        let IndexView::Range(v) = &*r.view("d").unwrap() else { panic!() };
        assert_eq!(v.ids.as_deref(), Some(&[7][..]));
        assert_eq!(v.total_weight, 1.5);
    }

    #[test]
    fn bad_op_stops_batch_but_publishes_prefix() {
        let r = reg();
        let err = r
            .apply_update(
                "d",
                &[
                    UpdateOp::Upsert { id: 100, key: 0.5, weight: 2.0 },
                    UpdateOp::Upsert { id: 101, key: 0.5, weight: -1.0 }, // invalid
                    UpdateOp::Upsert { id: 102, key: 0.5, weight: 2.0 },  // never reached
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
    fn a_batch_that_applies_nothing_publishes_nothing() {
        let r = reg();
        let before = r.view("d").unwrap();
        let absent = [UpdateOp::Remove { id: 900 }, UpdateOp::Remove { id: 901 }];
        assert_eq!(r.apply_update("d", &absent).unwrap(), (0, 1));
        assert_eq!(r.apply_update("d", &[]).unwrap(), (0, 1));
        assert!(Arc::ptr_eq(&before, &r.view("d").unwrap()), "an identical view was republished");
        assert_eq!(r.entry("d").unwrap().view.version(), 1);
        // The next effective batch is publication 2, not 4.
        let up = [UpdateOp::Upsert { id: 3, key: 3.0, weight: 2.0 }];
        assert_eq!(r.apply_update("d", &up).unwrap(), (1, 2));
    }

    /// The mirror a published view is checked against: `id → (key,
    /// weight)`, edited by [`mirror_apply`] with the documented batch
    /// semantics and none of the master's code.
    type Mirror = HashMap<u64, (f64, f64)>;

    /// Applies `ops` to the mirror; returns the applied count and
    /// whether the batch stopped at an invalid op.
    fn mirror_apply(mirror: &mut Mirror, ops: &[UpdateOp]) -> (usize, bool) {
        let mut applied = 0;
        for &op in ops {
            match op {
                UpdateOp::Upsert { id, key, weight } => {
                    if !key.is_finite() || !weight.is_finite() || weight <= 0.0 {
                        return (applied, true);
                    }
                    mirror.insert(id, (key, weight));
                    applied += 1;
                }
                UpdateOp::Remove { id } => applied += usize::from(mirror.remove(&id).is_some()),
            }
        }
        (applied, false)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The published view of `name` must be the fresh structure of the
    /// mirror, built with none of the master's code: its triples sorted
    /// by key (`-0.0` first) and id, then [`ChunkedRange::for_reweights`].
    /// It is compared on the public surface to the bit, on seeded draws
    /// to the rank, and — through `Debug`, which prints every field and
    /// distinguishes every finite `f64` — on every array.
    fn assert_published_is_fresh(r: &IndexRegistry, name: &str, mirror: &Mirror, seed: u64) {
        let mut triples: Vec<_> = mirror.iter().map(|(&id, &(key, w))| (id, key, w)).collect();
        triples.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let view = r.view(name).unwrap();
        let IndexView::Range(got) = &*view else { panic!("range view expected") };
        if triples.is_empty() {
            assert!(
                got.sampler.is_none() && got.ids.is_none(),
                "the empty mirror's view holds ids"
            );
            assert_eq!(got.total_weight, 0.0);
            return;
        }
        let w =
            ChunkedRange::for_reweights(triples.iter().map(|&(_, k, w)| (k, w)).collect()).unwrap();
        let ids: Vec<u64> = triples.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(got.ids.as_deref(), Some(&ids[..]));
        let total = w.range_weight(f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(got.total_weight.to_bits(), total.to_bits());
        let Some(g) = &got.sampler else { panic!("the published view is empty") };
        assert_eq!(bits(g.keys()), bits(w.keys()));
        assert_eq!(bits(g.weights()), bits(w.weights()));
        let mut rng = StdRng::seed_from_u64(seed);
        for s in [1usize, 9, 64, 300] {
            let x = g.keys()[rng.random_range(0..g.len())] - 0.25;
            let y = x + rng.random_range(0..40) as f64 / 4.0;
            assert_eq!(g.range_weight(x, y).to_bits(), w.range_weight(x, y).to_bits());
            let (mut a, mut b) = (vec![0u32; s], vec![0u32; s]);
            let drawn = g.sample_wr_batch(x, y, &mut StdRng::seed_from_u64(seed ^ 77), &mut a);
            assert_eq!(
                drawn,
                w.sample_wr_batch(x, y, &mut StdRng::seed_from_u64(seed ^ 77), &mut b)
            );
            assert_eq!(a, b, "draws over [{x}, {y}]");
        }
        assert_eq!(format!("{g:?}"), format!("{w:?}"));
    }

    /// Keys from a small grid, so equal keys and both zeros are common.
    fn any_key(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..8) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.random_range(-6..14) as f64 / 2.0,
        }
    }

    /// Weights across 120 binary orders of magnitude.
    fn any_weight(rng: &mut StdRng) -> f64 {
        (1.0 + rng.random::<f64>()) * 2f64.powi(rng.random_range(-60..61))
    }

    fn reweight_of(rng: &mut StdRng, mirror: &Mirror) -> UpdateOp {
        let id = *mirror.keys().nth(rng.random_range(0..mirror.len())).unwrap();
        UpdateOp::Upsert { id, key: mirror[&id].0, weight: any_weight(rng) }
    }

    /// One random batch: re-weights only, a structural mix, a batch
    /// with an invalid op in the middle, one that carries `n` across a
    /// power of two in either direction, one that empties the index,
    /// or one that changes nothing.
    fn any_batch(rng: &mut StdRng, mirror: &Mirror, next_id: &mut u64) -> Vec<UpdateOp> {
        let mut fresh_id = || {
            *next_id += 1;
            *next_id
        };
        let kind = if mirror.is_empty() { 6 } else { rng.random_range(0..10) };
        match kind {
            0..=3 => (0..rng.random_range(1..17usize)).map(|_| reweight_of(rng, mirror)).collect(),
            4 | 5 => (0..rng.random_range(1..17usize))
                .map(|_| {
                    let live = *mirror.keys().nth(rng.random_range(0..mirror.len())).unwrap();
                    match rng.random_range(0..6) {
                        0 | 1 => reweight_of(rng, mirror),
                        2 => UpdateOp::Upsert { id: live, key: any_key(rng), weight: 1.5 },
                        // Same value, other zero: a key move, not a re-weight.
                        3 => UpdateOp::Upsert { id: live, key: -mirror[&live].0, weight: 1.5 },
                        4 => UpdateOp::Remove { id: [live, 1 << 40][rng.random_range(0..2usize)] },
                        _ => UpdateOp::Upsert {
                            id: fresh_id(),
                            key: any_key(rng),
                            weight: any_weight(rng),
                        },
                    }
                })
                .collect(),
            6 => {
                // Grow past the next power of two: the chunk length moves.
                let target = (mirror.len() + 1).next_power_of_two() + 1;
                (mirror.len()..target.min(140))
                    .map(|_| UpdateOp::Upsert {
                        id: fresh_id(),
                        key: any_key(rng),
                        weight: any_weight(rng),
                    })
                    .collect()
            }
            7 => {
                let keep = [0, mirror.len() / 2][rng.random_range(0..2usize)];
                mirror.keys().skip(keep).map(|&id| UpdateOp::Remove { id }).collect()
            }
            8 => vec![UpdateOp::Remove { id: 1 << 41 }; 3],
            _ => {
                let bad = [
                    UpdateOp::Upsert { id: fresh_id(), key: f64::NAN, weight: 1.0 },
                    UpdateOp::Upsert { id: fresh_id(), key: 1.0, weight: -1.0 },
                    UpdateOp::Upsert { id: fresh_id(), key: 1.0, weight: f64::INFINITY },
                ][rng.random_range(0..3usize)];
                let mut ops: Vec<_> =
                    (0..rng.random_range(0..4usize)).map(|_| reweight_of(rng, mirror)).collect();
                ops.push(bad);
                ops.push(reweight_of(rng, mirror));
                ops
            }
        }
    }

    fn dynamic(n: u64, rng: &mut StdRng) -> (IndexRegistry, Mirror) {
        let mirror: Mirror = (0..n).map(|id| (id, (any_key(rng), any_weight(rng)))).collect();
        let mut r = IndexRegistry::new();
        let triples = mirror.iter().map(|(&id, &(key, w))| (id, key, w)).collect();
        r.register_range_dynamic("d", triples).unwrap();
        (r, mirror)
    }

    proptest::proptest! {
        /// Patched or rebuilt, what a batch publishes is the fresh view
        /// of the mirror: same arrays, same weights, same draws. Batches
        /// of every kind interleave, and a reader sometimes holds a view
        /// across two of them, so a patch meets every base: the spare
        /// brought forward, and a copy of the current view after a
        /// structural publication, behind a pinned spare, or first.
        #[test]
        fn published_view_is_the_fresh_view_after_every_batch(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (r, mut mirror) = dynamic(rng.random_range(0..70), &mut rng);
            let mut next_id = 1000;
            let mut pinned: Option<(Arc<IndexView>, String)> = None;
            for batch in 0..10u64 {
                if rng.random_bool(0.3) {
                    let view = r.view("d").unwrap();
                    pinned = Some((view.clone(), format!("{view:?}")));
                } else if rng.random_bool(0.4) {
                    pinned = None;
                }
                let ops = any_batch(&mut rng, &mirror, &mut next_id);
                let before = r.entry("d").unwrap().view.version();
                let (applied, stopped) = mirror_apply(&mut mirror, &ops);
                match r.apply_update("d", &ops) {
                    Ok(done) => {
                        proptest::prop_assert!(!stopped, "an invalid op went through: {:?}", ops);
                        proptest::prop_assert_eq!(done, (applied, before + u64::from(applied > 0)));
                    }
                    Err(e) => proptest::prop_assert!(stopped, "{}: {:?}", e, ops),
                }
                proptest::prop_assert_eq!(
                    r.entry("d").unwrap().view.version(),
                    before + u64::from(applied > 0)
                );
                assert_published_is_fresh(&r, "d", &mirror, seed + batch);
                if let Some((view, seen)) = &pinned {
                    proptest::prop_assert_eq!(&format!("{view:?}"), seen, "a pinned view changed");
                }
            }
        }
    }

    #[test]
    fn two_thousand_reweight_batches_never_drift() {
        // ROADMAP 5(c): totals that were maintained by adding deltas
        // would wander over a run like this; rebuilt from the chunk
        // totals each time, the 2,048th view is still the fresh view,
        // to the bit, with weights 2^±60 apart inside one chunk.
        let mut rng = StdRng::seed_from_u64(19);
        let (r, mut mirror) = dynamic(300, &mut rng);
        for batch in 0..2048u64 {
            let ops: Vec<_> =
                (0..rng.random_range(1..17usize)).map(|_| reweight_of(&mut rng, &mirror)).collect();
            assert_eq!(mirror_apply(&mut mirror, &ops), (ops.len(), false));
            assert_eq!(r.apply_update("d", &ops).unwrap(), (ops.len(), batch + 2));
            if batch % 64 == 63 {
                assert_published_is_fresh(&r, "d", &mirror, batch);
            }
            let IndexView::Range(v) = &*r.view("d").unwrap() else { panic!() };
            let total: f64 = v.sampler.as_ref().unwrap().weights().iter().sum();
            assert!((v.total_weight / total - 1.0).abs() < 1e-12, "batch {batch}");
        }
    }

    #[test]
    fn the_superseded_view_is_recycled_unless_a_reader_pins_it() {
        let keys_at = |view: &Arc<IndexView>| {
            let IndexView::Range(v) = &**view else { panic!() };
            v.sampler.as_ref().unwrap().keys().as_ptr()
        };
        let mut rng = StdRng::seed_from_u64(23);
        let (r, mut mirror) = dynamic(200, &mut rng);
        let mut reweight = |r: &IndexRegistry| {
            let ops = [reweight_of(&mut rng, &mirror)];
            mirror_apply(&mut mirror, &ops);
            r.apply_update("d", &ops).unwrap();
            assert_published_is_fresh(r, "d", &mirror, 5);
        };
        // Nobody pins view 1: view 3 is written into its buffers.
        let first = keys_at(&r.view("d").unwrap());
        reweight(&r);
        reweight(&r);
        assert_eq!(keys_at(&r.view("d").unwrap()), first);
        // A reader pins view 3 across two batches: view 5 must leave it
        // alone (fresh buffers), and the reader still sees view 3.
        let pinned = r.view("d").unwrap();
        let seen = format!("{pinned:?}");
        reweight(&r);
        reweight(&r);
        assert_ne!(keys_at(&r.view("d").unwrap()), keys_at(&pinned));
        assert_eq!(format!("{pinned:?}"), seen, "a pinned view changed under its reader");
    }

    #[test]
    fn reweight_batch_rebuilds_only_touched_tables() {
        // The exact-counter guard of incremental publish: a return to
        // rebuild-everything, or to tables above `TABLE_DEPTH`, fails
        // here, on plain `cargo test`.
        use iqs_core::rank_alias::TABLE_DEPTH;
        let n = 1u64 << 14;
        let triples: Vec<_> = (0..n).map(|i| (i, i as f64, 1.0 + (i % 7) as f64)).collect();
        fn built<T>(work: impl FnOnce() -> T) -> u64 {
            let before = iqs_alias::prof::read();
            work();
            iqs_alias::prof::read().minus(&before).alias_entries_built
        }
        let mut r = IndexRegistry::new();
        let full = built(|| r.register_range_dynamic("d", triples.clone()).unwrap());
        let IndexView::Range(v) = &*r.view("d").unwrap() else { panic!() };
        let c = v.sampler.as_ref().unwrap().chunk_len() as u64;
        let g = n.div_ceil(c);
        let up = |i: u64| {
            let id = i * 1021 % n;
            UpdateOp::Upsert { id, key: id as f64, weight: 9.0 }
        };
        // One chunk's table, and one T_chunk table per level of its
        // root-to-leaf path from depth `TABLE_DEPTH` down: ⌈g / 2^d⌉
        // entries at depth d, under 2g / 2^TABLE_DEPTH plus one per level.
        let one = built(|| r.apply_update("d", &[up(1)]).unwrap());
        let levels = u64::from(g.ilog2()) + 2;
        let bound = 2 * g / (1 << TABLE_DEPTH) + levels + c;
        assert!(one <= bound, "1 op built {one} entries; g = {g}, c = {c}");
        let batch: Vec<_> = (2..18).map(up).collect();
        let sixteen = built(|| r.apply_update("d", &batch).unwrap());
        assert!(8 * sixteen < full, "16 ops built {sixteen} of a full build's {full} entries");
        // An insert is structural: every chunk table is rebuilt.
        let insert = [UpdateOp::Upsert { id: n, key: 0.5, weight: 1.0 }];
        assert!(built(|| r.apply_update("d", &insert).unwrap()) > n);
    }

    #[test]
    fn a_poisoned_master_is_rederived_from_the_published_view() {
        let mut rng = StdRng::seed_from_u64(31);
        let (r, mut mirror) = dynamic(100, &mut rng);
        // One patch first, so the master holds a spare and a lag.
        let ops = [reweight_of(&mut rng, &mirror)];
        mirror_apply(&mut mirror, &ops);
        r.apply_update("d", &ops).unwrap();
        // A writer panics holding the mutex, after an edit it never
        // published.
        let entry = r.entry("d").unwrap();
        let crashed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut master = entry.master.lock().unwrap();
                    let view = entry.view.load();
                    let IndexView::Range(view) = &*view else { panic!() };
                    Batch::new(view).upsert(master.as_mut().unwrap(), 1 << 40, 0.5, 3.0).unwrap();
                    panic!("a bug while the master is held (this panic is the test's)");
                })
                .join()
        });
        assert!(crashed.is_err() && entry.master.is_poisoned());
        // A patch, then a structural batch: both go through, and each
        // publishes what the mirror holds — without the lost edit.
        let reweight = [reweight_of(&mut rng, &mirror)];
        let insert = [UpdateOp::Upsert { id: 1 << 41, key: 2.5, weight: 4.0 }];
        for (ops, version) in [(&reweight, 3), (&insert, 4)] {
            mirror_apply(&mut mirror, ops);
            assert_eq!(r.apply_update("d", ops), Ok((1, version)));
            assert_published_is_fresh(&r, "d", &mirror, version);
        }
        assert!(!entry.master.is_poisoned());
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
        // Partial range weight goes through the prefix sums.
        assert_eq!(r.range_weight("s", 0.0, 9.5).unwrap(), 10.0);
        assert_eq!(r.range_weight("s", 100.0, 200.0).unwrap(), 0.0);
        assert!(matches!(r.range_weight("nope", 0.0, 1.0), Err(ServeError::UnknownIndex(_))));
        assert!(matches!(r.total_weight("nope"), Err(ServeError::UnknownIndex(_))));
    }

    /// The weight a fresh probe of the published view computes.
    fn fresh_weight(r: &IndexRegistry, name: &str, x: f64, y: f64) -> f64 {
        let IndexView::Range(v) = &*r.view(name).unwrap() else { panic!("a range view") };
        v.sampler.as_ref().unwrap().range_weight(x, y)
    }

    /// The key of the probe `name` last answered.
    fn memo_key(r: &IndexRegistry, name: &str) -> [u64; 3] {
        r.entry(name).unwrap().probe.as_ref().expect("a range index").lock().unwrap().key
    }

    #[test]
    fn a_weight_probe_is_answered_once_per_publication() {
        let r = reg();
        let (x, y) = (10.5, 40.0);
        let first = r.range_weight("d", x, y).unwrap();
        assert_eq!(first.to_bits(), fresh_weight(&r, "d", x, y).to_bits());
        assert_eq!(memo_key(&r, "d"), [1, x.to_bits(), y.to_bits()]);
        // A re-weight inside the range publishes a view the memo was not
        // made for: the next probe misses and answers the new view.
        r.apply_update("d", &[UpdateOp::Upsert { id: 20, key: 20.0, weight: 7.25 }]).unwrap();
        let second = r.range_weight("d", x, y).unwrap();
        assert_eq!(second.to_bits(), fresh_weight(&r, "d", x, y).to_bits());
        assert_ne!(second.to_bits(), first.to_bits());
        assert_eq!(memo_key(&r, "d"), [2, x.to_bits(), y.to_bits()]);
        // Another range misses, and is what the memo holds next.
        let (x2, y2) = (10.5, 41.0);
        let other = r.range_weight("d", x2, y2).unwrap();
        assert_eq!(other.to_bits(), fresh_weight(&r, "d", x2, y2).to_bits());
        assert_eq!(memo_key(&r, "d"), [2, x2.to_bits(), y2.to_bits()]);
        // A static index answers the same bits the hundredth time.
        let once = r.range_weight("s", x, y).unwrap();
        for _ in 0..99 {
            assert_eq!(r.range_weight("s", x, y).unwrap().to_bits(), once.to_bits());
        }
        assert_eq!(once.to_bits(), fresh_weight(&r, "s", x, y).to_bits());
    }

    #[test]
    fn total_weight_tracks_dynamic_updates() {
        let r = reg();
        assert_eq!(r.total_weight("d").unwrap(), 64.0);
        r.apply_update("d", &[UpdateOp::Upsert { id: 0, key: 0.0, weight: 5.0 }]).unwrap();
        assert_eq!(r.total_weight("d").unwrap(), 68.0);
    }
}
