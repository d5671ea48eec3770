//! The sharded service and its scatter-gather router.
//!
//! # Exactness of the two-level draw
//!
//! For a with-replacement query over `[x, y]` with `s` draws, the router
//! computes each overlapping shard's in-range weight `W_i` (the cached
//! snapshot total when the query covers the shard, a prefix-sum read
//! otherwise), builds a top-level alias table over `(W_1, …, W_m)`
//! ([`AliasRows::build`], into rows the client keeps), and splits `s`
//! into per-shard counts `(s_1, …, s_m)` one table draw at a time, as
//! `iqs_alias::split::split_samples_with` does — a multinomial draw with
//! cell probabilities `W_i / ΣW`. Each shard then answers `s_i`
//! independent draws from its own slice, where element `e` has
//! conditional probability `w(e) / W_i`. The law of total probability
//! gives every in-range element marginal probability
//! `(W_i / ΣW) · (w(e) / W_i) = w(e) / ΣW` per draw — exactly the single-node distribution — and draws remain
//! mutually independent because the multinomial split plus conditionally
//! independent per-shard draws factorizes the joint law (the same §4.1
//! argument `iqs-alias` uses to parallelize batches). No approximation
//! enters anywhere; the sharded tier is distributionally
//! indistinguishable from one big sampler, which the exactness suite
//! verifies both by exact replay of live queries under the cluster's seed
//! schedule and by chi-square at the same threshold the single-node
//! tests use.
//!
//! # The lone-shard plan
//!
//! A one-leg split reads no weight ([`Split::draw`] answers
//! `[s]`), so a range that overlaps exactly one shard is planned without
//! the live weight probe a partially covered shard otherwise costs —
//! over a wire that probe was a whole extra round trip. What the probe
//! also did was find an empty range; the leg does that itself, by
//! answering `EmptyRange`, which reaches the caller as the same typed
//! [`ShardError::EmptyRange`]. (`s = 0` sends no leg and so keeps the
//! probe.)
//!
//! # Where a leg runs
//!
//! A leg handed to a replica's workers pays a hand-off — queue push,
//! reply cell, two thread switches: about 2.3 µs where the ledger
//! measures it — to run somewhere else. That buys something only if the
//! scatter has other legs to overlap with it *and* there is enough work
//! in them to be worth overlapping. So for a scatter of one leg, or of
//! at most [`INLINE_SCATTER_DRAWS`] draws over all its legs, the router
//! asks each link to *answer* ([`crate::ReplicaLink::answer`]): a local
//! replica with a seat free then runs the leg on the router's thread,
//! inside the call, and a busy one queues it exactly as `submit` would —
//! no leg ever waits inside its submission, so queue waits still
//! overlap across shards. Any larger scatter is handed off leg by leg,
//! as it always was. The replica's `workers` cap, its admission checks
//! and its seat streams are the same through either door.
//!
//! A local leg answered here draws its ids into a buffer the
//! [`ClusterClient`] keeps for that leg, and is admitted at the instant
//! the scatter read the clock for its deadlines. A link that answers a
//! leg may write to the buffer and still fail the attempt (a
//! [`crate::FaultyLink`] Delay past the deadline over a local replica), so
//! the router clears the buffer before each attempt.
//!
//! # What a query keeps
//!
//! A [`ClusterClient`] keeps every buffer a draw needs from one query to
//! the next — the plan's legs and weights, the split's alias rows and
//! build scratch, its counts, the scatter's legs, attempts, replies and
//! per-leg ids — and a leg borrows its shard from the topology the query
//! loaded instead of holding it. So a small in-process draw allocates
//! nothing on the router's side but the reply's own ids, which grow as
//! they always did: the first leg's ids, then the others' appended. A
//! count, asked alone or as `sample_wor`'s first pass, runs in the same
//! kept scatter.
//! The topology itself is loaded per query (one lock and one reference
//! count): a client that kept it would keep a shard that a rebalance
//! retired, and its replicas' servers, alive.
//!
//! # Failover: answers and failures
//!
//! Every leg is submitted to one replica chosen by rotating round-robin
//! over the shard's replica set, probe candidates first (a tripped
//! replica whose cooldown elapsed), then ready replicas, with tripped
//! replicas kept as last resort. A failed attempt — refused at
//! submission, a reply that says the *replica* could not serve
//! (overloaded, deadline missed, shutting down, a transport failure, a
//! contained panic, a missing index), or a missed per-attempt deadline —
//! moves the leg to the next untried replica with a fresh deadline. Only
//! when every replica of a shard has failed does the query degrade: the
//! response's `degraded` flag is set and `missing` accounts for the
//! draws that shard owed, while the delivered ids remain exactly
//! distributed conditioned on the split.
//!
//! An error reply that is a property of the *query* — the range is
//! empty, the request is invalid or unsupported ([`typed_answer`]) — is
//! an answer, not a failure: every replica of the shard would say the
//! same. A remote replica's reply decodes to the same typed error a local
//! one returns, so the link it came over makes no difference. It
//! credits the replica's breaker like any other reply and surfaces as
//! the typed [`ShardError`], with no failover and no `degraded`. One
//! exception: `EmptyRange` from one leg of *several*
//! contradicts the plan, which gave that shard positive weight (an
//! update emptied the range in between); the other shards still hold
//! mass, so that leg is lost — `degraded`, its draws `missing`, still no
//! failover — and the rest of the scatter stands.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use iqs_alias::{AliasRows, BuildScratch};
use iqs_core::QueryError;
use iqs_obs::{recorder, saturating_ns, Ctx, Phase, SlowEntry, SlowLog};
use iqs_serve::{Admission, LegAsk, Response, ServeError, Snapshot};
use iqs_testkit::ClockHandle;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::error::ShardError;
use crate::health::{Availability, HealthPolicy};
use crate::link::{PendingLeg, ReplicaLink, ShardSpec};
use crate::merge::{Counted, Sampled};
use crate::metrics::{ClusterMetrics, ReplicaMetrics, RouterCounters};
use crate::placement::{build_shard, cut_points, split_point, Replica, ShardHandle, Topology};

/// Rejection rounds `sample_wor` attempts before giving up on a
/// pathologically skewed range.
const MAX_WOR_ROUNDS: usize = 1024;

/// The largest scatter of several legs — in draws, summed over the legs
/// — that the router answers on its own thread: one kernel tile.
///
/// Handing the legs off costs at least one hand-off (≈ 2.3 µs: queue
/// push, reply cell, two thread switches) plus the longest leg, however
/// many cores run them. Answering them one after another costs their
/// *sum*, which this bound caps at 256 draws × ≈ 20 ns ≈ 5 µs — about
/// two hand-offs — for the whole scatter, whatever its number of legs.
/// So up to here the router's own thread is at worst about a hand-off
/// behind idle workers on idle cores, and well ahead of anything less
/// ideal; past it every leg is handed off, as before seats existed.
///
/// Where the crossover really lies is **not measured**: the ledger pins
/// its process to one core, where a hand-off can never win, so it
/// exercises only this side of the bound (`shard-fanout-s64`: four legs,
/// 64 draws in all). Until a benchmark has an unpinned multi-shard
/// workload on both sides of it, the value is this arithmetic.
const INLINE_SCATTER_DRAWS: u64 = iqs_alias::pipeline::TILE as u64;

/// A shard's key-sorted `(id, key, weight)` slice, shared by handle so
/// introspection never copies the data.
pub type ShardSlice = Arc<Vec<(u64, f64, f64)>>;

/// Tuning for [`ShardedService`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Target shard count (fewer are built when duplicate-key runs or the
    /// element count don't allow that many non-empty slices). Default 4.
    pub shards: usize,
    /// Replicas per shard. Default 2.
    pub replicas: usize,
    /// Worker threads per replica. Default 1 (every replica is a full
    /// worker pool; keep this small when shards × replicas is large).
    pub workers_per_replica: usize,
    /// Per-replica request-queue capacity. Default 1024.
    pub queue_capacity: usize,
    /// Per-request sample-count bound, enforced at the router and at
    /// every replica. Default 2²⁰.
    pub max_sample_size: u32,
    /// Per-attempt deadline for one leg on one replica; a miss triggers
    /// failover with a fresh deadline on the next replica. Default 5 s
    /// (generous — CI machines stall).
    pub scatter_deadline: Duration,
    /// Circuit-breaker tuning for per-replica health tracking.
    pub health: HealthPolicy,
    /// Master seed: replica worker pools and router clients all derive
    /// distinct streams from it.
    pub seed: u64,
    /// Time source for scatter deadlines, breaker cooldowns, injected
    /// delays, and latency metrics. The default is the real clock; the
    /// handle is also installed in every replica's server so the whole
    /// cluster shares one timeline. Tests install a
    /// [`iqs_testkit::VirtualClock`] handle and advance time explicitly.
    pub clock: ClockHandle,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            replicas: 2,
            workers_per_replica: 1,
            queue_capacity: 1024,
            max_sample_size: 1 << 20,
            scatter_deadline: Duration::from_secs(5),
            health: HealthPolicy::default(),
            seed: 0x5eed_1e55,
            clock: ClockHandle::real(),
        }
    }
}

/// Shared router state behind every [`ClusterClient`] and [`ShardedService`].
struct Inner {
    /// The published topology, swapped atomically on rebalance exactly as
    /// dynamic indexes swap views.
    topo: Snapshot<Topology>,
    config: ShardConfig,
    counters: RouterCounters,
    /// Top-k slowest traced queries per interval, plus per-bucket
    /// exemplar trace ids for the router latency histogram.
    slow: SlowLog,
    /// Monotone ordinal for deriving replica server seeds (never reused,
    /// so rebuilt shards get fresh worker streams).
    server_seq: AtomicU64,
    /// Ordinal for deriving per-client split RNG seeds.
    client_seq: AtomicU64,
    /// Serializes rebalances; readers never take it.
    rebalance: Mutex<()>,
}

/// One planned leg of a scatter.
struct Leg {
    shard_idx: usize,
    /// The shard's in-range weight; NaN in a lone-shard plan, whose
    /// split never reads it.
    weight: f64,
}

/// An attempt in flight: its reply, the replica index, its deadline.
type Attempt = (PendingLeg, usize, Instant);

/// One leg of a scatter, as submit and gather see it: its shard is
/// `shard_idx` of the topology the query loaded.
struct ScatterLeg {
    shard_idx: usize,
    ask: LegAsk,
    ctx: Ctx,
    /// Whether links are asked to answer the leg rather than to hand it
    /// off (module docs, "Where a leg runs"); one verdict per scatter,
    /// which [`Inner::scatter`] gives.
    inline: bool,
}

impl ScatterLeg {
    fn new(shard_idx: usize, ask: LegAsk, ctx: Ctx) -> ScatterLeg {
        ScatterLeg { shard_idx, ask, ctx, inline: false }
    }
}

/// A scatter's legs and, leg by leg, its attempt in flight, the reply
/// it delivered, and the buffer a link answering it draws its ids into
/// (a draw leg's ids are the buffer's, then the reply's).
#[derive(Default)]
struct Scatter {
    legs: Vec<ScatterLeg>,
    attempts: Vec<(Tried, Option<Attempt>)>,
    replies: Vec<Option<Response>>,
    /// As long as the longest scatter yet, so a leg's buffer is as large
    /// as the most any leg in its place has drawn.
    ids: Vec<Vec<u64>>,
}

/// The top-level split's buffers: the plan's weights, their alias rows
/// and the scratch the rows are built with, and the counts drawn.
#[derive(Default)]
struct Split {
    weights: Vec<f64>,
    rows: Vec<u64>,
    build: BuildScratch,
    counts: Vec<usize>,
}

impl Split {
    /// Splits `s` draws over the planned legs into `counts`: the
    /// top-level multinomial split when more than one shard contributes
    /// — one alias table over the legs' weights and one word per draw —
    /// and the trivial all-to-one assignment (consuming no top-level
    /// randomness) for a single leg.
    fn draw(&mut self, legs: &[Leg], s: usize, rng: &mut StdRng) -> Result<(), ShardError> {
        self.counts.clear();
        if legs.len() == 1 {
            self.counts.push(s);
            return Ok(());
        }
        self.weights.clear();
        self.weights.extend(legs.iter().map(|leg| leg.weight));
        self.rows.resize(legs.len(), 0);
        AliasRows::build(&self.weights, &mut self.rows, &mut self.build)
            .map_err(ServeError::from)?;
        let table = AliasRows::new(&self.rows);
        self.counts.resize(legs.len(), 0);
        for _ in 0..s {
            self.counts[table.decode(rng.next_u64())] += 1;
        }
        Ok(())
    }
}

/// The replicas a leg has been submitted to, by index: a bit each for
/// the first 64 — every replica set a config builds in practice, so a
/// leg allocates nothing — and a list past them.
#[derive(Default)]
struct Tried {
    low: u64,
    high: Vec<usize>,
}

impl Tried {
    /// Adds `ri`; `false` if it was already there.
    fn insert(&mut self, ri: usize) -> bool {
        if ri < 64 {
            let had = self.low & (1 << ri) != 0;
            self.low |= 1 << ri;
            return !had;
        }
        if self.high.contains(&ri) {
            return false;
        }
        self.high.push(ri);
        true
    }
}

/// The typed error an error reply amounts to when it answers the
/// *query* — any healthy replica of the shard would reply the same — or
/// `None` when it reports that the replica could not serve and another
/// one should be tried.
fn typed_answer(e: &ServeError) -> Option<ShardError> {
    match e {
        ServeError::Query(QueryError::EmptyRange) => Some(ShardError::EmptyRange),
        ServeError::Query(q) => Some(ShardError::Query(q.clone())),
        ServeError::InvalidRequest(what) => Some(ShardError::InvalidRequest(what.clone())),
        ServeError::Unsupported(_) => Some(ShardError::Serve(e.clone())),
        _ => None,
    }
}

/// Candidate replica order for one attempt: probes first, then ready
/// replicas in rotating round-robin order, tripped replicas last (tried
/// before failing the leg, never before a healthy replica). Each
/// replica's availability is read exactly once (the read claims a probe
/// slot); with every replica ready nothing is allocated.
fn candidate_order(
    shard: &ShardHandle,
    policy: &HealthPolicy,
    now: Instant,
) -> impl Iterator<Item = usize> {
    let n = shard.replicas.len();
    // One replica has one order: the cursor is not worth a shared write.
    let start = if n == 1 { 0 } else { shard.rr.fetch_add(1, Ordering::Relaxed) % n };
    let rotated = (0..n).map(move |i| (start + i) % n);
    let mut probes = Vec::new();
    let mut skips = Vec::new();
    for i in rotated.clone() {
        match shard.replicas[i].health.availability(policy, now) {
            Availability::Probe => probes.push(i),
            Availability::Ready => {}
            Availability::Skip => skips.push(i),
        }
    }
    let demoted = [probes.as_slice(), skips.as_slice()].concat();
    probes.into_iter().chain(rotated.filter(move |i| !demoted.contains(i))).chain(skips)
}

impl Inner {
    /// `ctx` is the leg's shard-scoped trace context; breaker
    /// transitions are recorded against it with `a` = replica index.
    fn note_success(&self, rep: &Replica, ctx: Ctx, ri: usize) {
        if rep.health.on_success() {
            self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
            recorder::emit(ctx, Phase::BreakerRecover, ri as u64, 0);
        }
    }

    fn note_failure(&self, rep: &Replica, ctx: Ctx, ri: usize) {
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        if rep.health.on_failure(&self.config.health, self.config.clock.now()) {
            self.counters.trips.fetch_add(1, Ordering::Relaxed);
            recorder::emit(ctx, Phase::BreakerTrip, ri as u64, 0);
        }
    }

    /// Submits the leg to the first untried candidate replica that
    /// accepts it — through `answer` for an inline leg, `submit`
    /// otherwise (module docs, "Where a leg runs"). Refused submissions
    /// are charged as failures and skipped. `now` is the instant the
    /// replicas' availability is read at, the attempt's deadline counts
    /// from and an answered leg is admitted at: the scatter's start for a
    /// first attempt, a fresh clock read for a failover. `ids` is the
    /// leg's buffer, cleared before each attempt.
    fn try_submit(
        &self,
        topo: &Topology,
        leg: &ScatterLeg,
        tried: &mut Tried,
        origin: Instant,
        now: Instant,
        ids: &mut Vec<u64>,
    ) -> Option<Attempt> {
        let (shard, ctx) = (&topo.shards[leg.shard_idx], leg.ctx);
        for ri in candidate_order(shard, &self.config.health, now) {
            if !tried.insert(ri) {
                continue;
            }
            let rep = &shard.replicas[ri];
            let deadline = now + self.config.scatter_deadline;
            let at =
                Admission { origin, admitted: now, deadline: Some(deadline), ctx: ctx.replica(ri) };
            ids.clear();
            let submitted = if leg.inline {
                rep.link.answer(leg.ask, at, ids)
            } else {
                rep.link.submit(leg.ask, at)
            };
            match submitted {
                Ok(pending) => {
                    recorder::emit(ctx.replica(ri), Phase::LegSubmit, ri as u64, leg.ask.planned());
                    return Some((pending, ri, deadline));
                }
                Err(_) => {
                    recorder::emit(ctx, Phase::LegFailover, ri as u64, 2);
                    self.note_failure(rep, ctx, ri);
                }
            }
        }
        None
    }

    /// Waits out one leg, failing over through the remaining replicas
    /// until a reply lands or every replica has been tried. `Ok(None)`
    /// is the leg lost on every replica.
    ///
    /// # Errors
    /// The typed answer of a healthy replica ([`typed_answer`]).
    fn gather_leg(
        &self,
        topo: &Topology,
        leg: &ScatterLeg,
        tried: &mut Tried,
        mut attempt: Option<Attempt>,
        origin: Instant,
        ids: &mut Vec<u64>,
    ) -> Result<Option<Response>, ShardError> {
        let (shard, ctx) = (&topo.shards[leg.shard_idx], leg.ctx);
        while let Some((pending, ri, deadline)) = attempt.take() {
            let rep = &shard.replicas[ri];
            let outcome = pending.wait_deadline(deadline);
            if let Some(answer) =
                outcome.as_ref().and_then(|r| r.as_ref().err()).and_then(typed_answer)
            {
                self.note_success(rep, ctx, ri);
                recorder::emit(ctx.replica(ri), Phase::LegDone, 0, 0);
                return Err(answer);
            }
            match outcome {
                Some(Ok(reply)) => {
                    self.note_success(rep, ctx, ri);
                    let count = match &reply {
                        Response::Samples(reply) => (ids.len() + reply.len()) as u64,
                        Response::Count(count) => *count as u64,
                        _ => 0,
                    };
                    recorder::emit(ctx.replica(ri), Phase::LegDone, count, 0);
                    return Ok(Some(reply));
                }
                failed => {
                    let cause = if failed.is_some() { 3 } else { 4 };
                    recorder::emit(ctx, Phase::LegFailover, ri as u64, cause);
                    self.note_failure(rep, ctx, ri);
                    let now = self.config.clock.now();
                    attempt = self.try_submit(topo, leg, tried, origin, now, ids);
                }
            }
        }
        Ok(None)
    }

    /// Scatters one request per shard, then gathers in order. Every leg
    /// is submitted before the first wait, so legs that were handed off
    /// or had to queue execute concurrently across shards; a small
    /// scatter's legs may already be answered by then (module docs,
    /// "Where a leg runs"). The clock is read once for every leg's first
    /// attempt: an instant a few legs' work stale is as good a start for
    /// a deadline of seconds, and a virtual clock does not move while
    /// read.
    ///
    /// What each leg delivered lands in `sc.replies`, in leg order.
    ///
    /// # Errors
    /// The first leg's typed answer ([`typed_answer`]), after every leg
    /// has been gathered — except `EmptyRange` from one leg of several,
    /// which loses only that leg.
    fn scatter(
        &self,
        topo: &Topology,
        sc: &mut Scatter,
        origin: Instant,
    ) -> Result<(), ShardError> {
        let n = sc.legs.len();
        self.counters.legs.fetch_add(n as u64, Ordering::Relaxed);
        let lone = n == 1;
        let draws: u64 = sc.legs.iter().map(|leg| leg.ask.planned()).sum();
        let inline = lone || draws <= INLINE_SCATTER_DRAWS;
        let now = self.config.clock.now();
        if sc.ids.len() < n {
            sc.ids.resize_with(n, Vec::new);
        }
        sc.attempts.clear();
        sc.replies.clear();
        for (leg, ids) in sc.legs.iter_mut().zip(&mut sc.ids) {
            leg.inline = inline;
            let mut tried = Tried::default();
            let attempt = self.try_submit(topo, leg, &mut tried, origin, now, ids);
            sc.attempts.push((tried, attempt));
        }
        // Every leg is gathered, whatever an earlier one answered: a leg
        // left in flight would be a reply nobody reads.
        let mut answer = None;
        let gathered = sc.legs.iter().zip(sc.attempts.drain(..)).zip(&mut sc.ids);
        for ((leg, (mut tried, attempt)), ids) in gathered {
            let reply = match self.gather_leg(topo, leg, &mut tried, attempt, origin, ids) {
                Ok(delivered) => delivered,
                // The plan gave this shard weight and the others still
                // hold theirs: the leg is lost, not the query.
                Err(ShardError::EmptyRange) if !lone => None,
                Err(typed) => {
                    answer.get_or_insert(typed);
                    sc.replies.push(None);
                    continue;
                }
            };
            if reply.is_none() {
                recorder::emit(leg.ctx, Phase::LegDegraded, leg.ask.planned(), 0);
            }
            sc.replies.push(reply);
        }
        answer.map_or(Ok(()), Err)
    }

    /// Plans a sampling scatter of `s` draws: one leg per overlapping
    /// shard with positive in-range weight. Covering queries read the
    /// cached shard total; partial overlaps read a prefix sum from any
    /// replica that answers — except in a lone-shard plan (module docs),
    /// which needs no weight. A shard whose weight cannot be determined
    /// (no replica answers) is excluded and flagged, degrading the query.
    /// The legs replace `legs`' contents; returns whether the plan is
    /// degraded.
    fn plan(&self, topo: &Topology, x: f64, y: f64, s: u32, ctx: Ctx, legs: &mut Vec<Leg>) -> bool {
        legs.clear();
        let mut degraded = false;
        let overlapping = topo.overlapping(x, y);
        let lone = overlapping.len() == 1 && s > 0;
        for idx in overlapping {
            let shard = &topo.shards[idx];
            let weight = if x <= shard.lo_key && y >= shard.hi_key {
                self.counters.probes_cached.fetch_add(1, Ordering::Relaxed);
                Some(shard.total_weight)
            } else if lone {
                Some(f64::NAN)
            } else {
                self.counters.probes_live.fetch_add(1, Ordering::Relaxed);
                shard.replicas.iter().find_map(|r| r.link.range_weight(x, y).ok())
            };
            match weight {
                Some(w) if w <= 0.0 => {} // nothing in range here
                Some(w) => {
                    recorder::emit(ctx, Phase::RouterPlan, idx as u64, w.to_bits());
                    legs.push(Leg { shard_idx: idx, weight: w })
                }
                None => {
                    recorder::emit(ctx, Phase::PlanDark, idx as u64, 0);
                    degraded = true;
                }
            }
        }
        degraded
    }

    fn finish(&self, origin: Instant, degraded: bool, ctx: Ctx) {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.counters.degraded_queries.fetch_add(1, Ordering::Relaxed);
        }
        let latency = self.config.clock.now().saturating_duration_since(origin);
        self.counters.latency.record(latency);
        let latency_ns = saturating_ns(latency);
        recorder::emit(ctx, Phase::QueryDone, latency_ns, u64::from(degraded));
        self.slow.observe(ctx.trace, latency_ns);
    }
}

/// A sharded, replicated sampling tier: the key space range-partitioned
/// over independent single-node services, with exact two-level draws,
/// per-replica failover, and online rebalancing.
///
/// Construct with [`ShardedService::new`], then take [`ClusterClient`]s
/// (one per querying thread) with [`ShardedService::client`].
pub struct ShardedService {
    inner: Arc<Inner>,
}

impl Clone for ShardedService {
    /// Cheap handle clone sharing the same topology, counters, and
    /// rebalance lock — so an operator thread can rebalance through one
    /// handle while clients keep their own.
    fn clone(&self) -> ShardedService {
        ShardedService { inner: Arc::clone(&self.inner) }
    }
}

/// A handle for issuing cluster queries. Each client owns the RNG that
/// drives its top-level multinomial splits (seeded from the service
/// master seed), so clients are independent and need no locking, and
/// the buffers its draws run in (module docs, "What a query keeps").
pub struct ClusterClient {
    inner: Arc<Inner>,
    rng: StdRng,
    legs: Vec<Leg>,
    split: Split,
    scatter: Scatter,
}

impl ShardedService {
    /// Builds the tier from `(id, key, weight)` elements: sorts by key,
    /// cuts into at most [`ShardConfig::shards`] equal-count slices
    /// (never splitting an equal-key run), and starts
    /// [`ShardConfig::replicas`] independent single-node services per
    /// shard, each registering its slice under the global element ids.
    ///
    /// # Errors
    /// [`ShardError::Config`] for zero shards/replicas/workers, no
    /// elements, or duplicate ids; [`ShardError::Serve`] when a slice is
    /// rejected by the underlying sampler (non-finite keys, invalid
    /// weights).
    pub fn new(
        mut elements: Vec<(u64, f64, f64)>,
        config: ShardConfig,
    ) -> Result<Self, ShardError> {
        if config.shards == 0 {
            return Err(ShardError::Config("shards must be at least 1"));
        }
        if config.replicas == 0 {
            return Err(ShardError::Config("replicas must be at least 1"));
        }
        if config.workers_per_replica == 0 {
            return Err(ShardError::Config("workers_per_replica must be at least 1"));
        }
        if elements.is_empty() {
            return Err(ShardError::Config("at least one element is required"));
        }
        // Global ids must be unique: merged without-replacement draws
        // dedup on them.
        let mut ids: Vec<u64> = elements.iter().map(|&(id, _, _)| id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(ShardError::Config("element ids must be unique across the cluster"));
        }
        elements.sort_by(|a, b| a.1.total_cmp(&b.1));
        let keys: Vec<f64> = elements.iter().map(|&(_, key, _)| key).collect();
        let cuts = cut_points(&keys, config.shards);
        let server_seq = AtomicU64::new(1);
        let mut shards = Vec::with_capacity(cuts.len());
        for (i, &start) in cuts.iter().enumerate() {
            let end = cuts.get(i + 1).copied().unwrap_or(elements.len());
            shards.push(build_shard(
                Arc::new(elements[start..end].to_vec()),
                &config,
                &server_seq,
            )?);
        }
        Ok(ShardedService::over(shards, config, server_seq))
    }

    /// Builds the tier over pre-existing replicas — typically
    /// `iqs-net` remote links discovered from a service registry, but
    /// any [`crate::ReplicaLink`] implementation works. Specs must
    /// arrive in key order with disjoint spans (the discovery helpers
    /// produce exactly that); the cached `total_weight` drives the
    /// planner's covering-query path just as locally built shards do.
    ///
    /// Shards built this way carry no element slice, so split/merge
    /// rebalancing refuses them with [`ShardError::InvalidRequest`];
    /// every query path works unchanged.
    ///
    /// # Errors
    /// [`ShardError::Config`] for an empty spec list, a shard with no
    /// links, an inverted or overlapping key span, or a non-finite /
    /// non-positive cached weight.
    pub fn from_links(specs: Vec<ShardSpec>, config: ShardConfig) -> Result<Self, ShardError> {
        if specs.is_empty() {
            return Err(ShardError::Config("at least one shard spec is required"));
        }
        let mut shards = Vec::with_capacity(specs.len());
        let mut prev_hi = f64::NEG_INFINITY;
        for spec in specs {
            if spec.links.is_empty() {
                return Err(ShardError::Config("every shard needs at least one replica link"));
            }
            if !spec.lo_key.is_finite() || !spec.hi_key.is_finite() || spec.lo_key > spec.hi_key {
                return Err(ShardError::Config("shard key span must be finite with lo <= hi"));
            }
            if spec.lo_key <= prev_hi {
                return Err(ShardError::Config("shard key spans must be disjoint and ascending"));
            }
            prev_hi = spec.hi_key;
            if !spec.total_weight.is_finite() || spec.total_weight <= 0.0 {
                return Err(ShardError::Config("shard total weight must be finite and positive"));
            }
            let replicas =
                spec.links.into_iter().map(|link| Arc::new(Replica::new(link))).collect();
            shards.push(Arc::new(ShardHandle {
                lo_key: spec.lo_key,
                hi_key: spec.hi_key,
                total_weight: spec.total_weight,
                elements: Arc::new(Vec::new()),
                replicas,
                rr: AtomicUsize::new(0),
            }));
        }
        Ok(ShardedService::over(shards, config, AtomicU64::new(1)))
    }

    /// The service over `shards`; `server_seq` is the next server ordinal.
    fn over(shards: Vec<Arc<ShardHandle>>, config: ShardConfig, server_seq: AtomicU64) -> Self {
        ShardedService {
            inner: Arc::new(Inner {
                topo: Snapshot::new(Topology { shards }),
                config,
                counters: RouterCounters::default(),
                slow: SlowLog::default(),
                server_seq,
                client_seq: AtomicU64::new(0),
                rebalance: Mutex::new(()),
            }),
        }
    }

    /// A new query client with its own independent split-RNG stream.
    #[must_use]
    pub fn client(&self) -> ClusterClient {
        let ordinal = self.inner.client_seq.fetch_add(1, Ordering::Relaxed);
        ClusterClient {
            inner: Arc::clone(&self.inner),
            rng: StdRng::seed_from_u64(
                self.inner.config.seed ^ 0xa076_1d64_78bd_642f_u64.wrapping_mul(ordinal + 1),
            ),
            legs: Vec::new(),
            split: Split::default(),
            scatter: Scatter::default(),
        }
    }

    /// Republishes the current topology with each replica's link replaced
    /// by `wrap(shard, replica, link)`, e.g. a [`crate::FaultyLink`], its
    /// breaker closed. Not counted as a rebalance; shards a later split or
    /// merge builds come up unwrapped.
    pub fn wrap_links(
        &self,
        mut wrap: impl FnMut(usize, usize, Arc<dyn ReplicaLink>) -> Arc<dyn ReplicaLink>,
    ) {
        let _guard = self.inner.rebalance.lock().expect("rebalance lock poisoned");
        let topo = self.inner.topo.load();
        let shards = topo.shards.iter().enumerate().map(|(si, sh)| {
            let links =
                sh.replicas.iter().enumerate().map(|(ri, r)| wrap(si, ri, Arc::clone(&r.link)));
            Arc::new(ShardHandle {
                replicas: links.map(|link| Arc::new(Replica::new(link))).collect(),
                elements: Arc::clone(&sh.elements),
                rr: AtomicUsize::new(sh.rr.load(Ordering::Relaxed)),
                ..**sh
            })
        });
        self.inner.topo.store(Topology { shards: shards.collect() });
    }

    /// The clock the cluster's deadlines are minted on.
    pub(crate) fn clock(&self) -> &ClockHandle {
        &self.inner.config.clock
    }

    /// Shards in the current topology.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.topo.load().shards.len()
    }

    /// Each shard's `[lo_key, hi_key]` span, in key order.
    #[must_use]
    pub fn shard_spans(&self) -> Vec<(f64, f64)> {
        self.inner.topo.load().shards.iter().map(|sh| (sh.lo_key, sh.hi_key)).collect()
    }

    /// Each shard's cached total sampling weight, in key order.
    #[must_use]
    pub fn shard_weights(&self) -> Vec<f64> {
        self.inner.topo.load().shards.iter().map(|sh| sh.total_weight).collect()
    }

    /// The key-sorted `(id, key, weight)` slice a shard owns (a cheap
    /// handle clone). Exposed so exactness tests can reconstruct the
    /// reference distribution per shard.
    ///
    /// # Errors
    /// [`ShardError::UnknownShard`] past the end of the topology.
    pub fn shard_elements(&self, shard: usize) -> Result<ShardSlice, ShardError> {
        let topo = self.inner.topo.load();
        let sh = topo.shards.get(shard).ok_or(ShardError::UnknownShard(shard))?;
        Ok(Arc::clone(&sh.elements))
    }

    /// Total sampling weight across all shards.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.inner.topo.load().shards.iter().map(|sh| sh.total_weight).sum()
    }

    /// Splits shard `shard` at the cut nearest its key median, rebuilding
    /// two half-shards off the read path and publishing the new topology
    /// atomically — concurrent readers keep draining against the old
    /// topology's replicas (which stay alive until their last reader
    /// drops them), so no read ever fails during a rebalance.
    ///
    /// Returns the new shard count.
    ///
    /// # Errors
    /// [`ShardError::UnknownShard`] for a bad index;
    /// [`ShardError::NoSplitPoint`] when every element of the shard
    /// shares one key (an equal run is never straddled);
    /// [`ShardError::InvalidRequest`] for a remote shard — the router
    /// holds no element slice to re-partition.
    pub fn split_shard(&self, shard: usize) -> Result<usize, ShardError> {
        let _guard = self.inner.rebalance.lock().expect("rebalance lock poisoned");
        let topo = self.inner.topo.load();
        let handle = topo.shards.get(shard).ok_or(ShardError::UnknownShard(shard))?;
        if handle.elements.is_empty() {
            return Err(ShardError::InvalidRequest("remote shards cannot be rebalanced".into()));
        }
        let keys: Vec<f64> = handle.elements.iter().map(|&(_, key, _)| key).collect();
        let cut = split_point(&keys).ok_or(ShardError::NoSplitPoint)?;
        let left = build_shard(
            Arc::new(handle.elements[..cut].to_vec()),
            &self.inner.config,
            &self.inner.server_seq,
        )?;
        let right = build_shard(
            Arc::new(handle.elements[cut..].to_vec()),
            &self.inner.config,
            &self.inner.server_seq,
        )?;
        let mut shards = topo.shards.clone();
        shards.splice(shard..=shard, [left, right]);
        let n = shards.len();
        self.publish(Topology { shards });
        Ok(n)
    }

    /// Merges shards `left` and `left + 1` into one, rebuilding the
    /// combined shard off the read path with the same zero-failed-reads
    /// guarantee as [`ShardedService::split_shard`]. Returns the new
    /// shard count.
    ///
    /// # Errors
    /// [`ShardError::UnknownShard`] when `left + 1` is past the end;
    /// [`ShardError::InvalidRequest`] when either shard is remote.
    pub fn merge_shards(&self, left: usize) -> Result<usize, ShardError> {
        let _guard = self.inner.rebalance.lock().expect("rebalance lock poisoned");
        let topo = self.inner.topo.load();
        if left + 1 >= topo.shards.len() {
            return Err(ShardError::UnknownShard(left + 1));
        }
        if topo.shards[left].elements.is_empty() || topo.shards[left + 1].elements.is_empty() {
            return Err(ShardError::InvalidRequest("remote shards cannot be rebalanced".into()));
        }
        // Adjacent slices of one key-sorted list: concatenation stays
        // key-sorted.
        let mut elements = Vec::with_capacity(
            topo.shards[left].elements.len() + topo.shards[left + 1].elements.len(),
        );
        elements.extend_from_slice(&topo.shards[left].elements);
        elements.extend_from_slice(&topo.shards[left + 1].elements);
        let merged = build_shard(Arc::new(elements), &self.inner.config, &self.inner.server_seq)?;
        let mut shards = topo.shards.clone();
        shards.splice(left..=left + 1, [merged]);
        let n = shards.len();
        self.publish(Topology { shards });
        Ok(n)
    }

    fn publish(&self, topology: Topology) {
        self.inner.topo.store(topology);
        self.inner.counters.rebalances.fetch_add(1, Ordering::Relaxed);
    }

    /// The full cluster metrics view: router counters plus every
    /// replica's service metrics, pooled and itemized.
    #[must_use]
    pub fn metrics(&self) -> ClusterMetrics {
        let topo = self.inner.topo.load();
        let mut replicas = Vec::new();
        let mut cluster: Option<iqs_serve::MetricsSnapshot> = None;
        for (si, shard) in topo.shards.iter().enumerate() {
            for (ri, rep) in shard.replicas.iter().enumerate() {
                let serve = rep.link.metrics();
                match cluster.as_mut() {
                    Some(acc) => acc.merge(&serve),
                    None => cluster = Some(serve.clone()),
                }
                replicas.push(ReplicaMetrics {
                    shard: si,
                    replica: ri,
                    tripped: rep.health.is_tripped(),
                    serve,
                });
            }
        }
        ClusterMetrics {
            shards: topo.shards.len(),
            router: self.inner.counters.snapshot(),
            cluster: cluster.unwrap_or_default(),
            replicas,
        }
    }

    /// Drains the router's slow-query log: the top-k slowest traced
    /// cluster queries since the last drain, slowest first. Pair each
    /// entry's trace id with [`iqs_obs::recorder::drain`] to pull the
    /// full schedule of a slow query.
    #[must_use]
    pub fn slow_queries(&self) -> Vec<SlowEntry> {
        self.inner.slow.take()
    }

    /// Prometheus-style text exposition of the cluster metrics, with
    /// slow-log exemplar trace ids attached to router latency buckets.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.metrics().to_prometheus(Some(&self.inner.slow))
    }
}

impl ClusterClient {
    /// `s` independent weighted samples with replacement from the closed
    /// key interval (`None` = everything), drawn through the two-level
    /// scheme. `result.degraded == false` guarantees `result.ids` is a
    /// complete exact sample of size `s`.
    ///
    /// # Errors
    /// [`ShardError::EmptyRange`] when the (reachable) range holds no
    /// weight; [`ShardError::InvalidRequest`] past the sample-size bound.
    pub fn sample_wr(&mut self, range: Option<(f64, f64)>, s: u32) -> Result<Sampled, ShardError> {
        let ctx = Ctx::query(recorder::next_trace_id());
        let origin = self.inner.config.clock.now();
        let result = self.route_sample_wr(range, s, origin, ctx);
        self.inner.finish(origin, matches!(&result, Ok(r) if r.degraded), ctx);
        result
    }

    /// `s` distinct weighted samples (without replacement), by rejection
    /// over the exact with-replacement path with id-level dedup across
    /// shards. On a degraded pass the draw stops early with `degraded`
    /// set rather than looping on an unreachable remainder.
    ///
    /// # Errors
    /// [`ShardError::SampleTooLarge`] when `s` exceeds the in-range
    /// population (only checked when the count itself is exact);
    /// [`ShardError::EmptyRange`] on an empty reachable range;
    /// [`ShardError::Query`] ([`QueryError::DensityTooLow`]) when
    /// rejection stops making progress.
    pub fn sample_wor(&mut self, range: Option<(f64, f64)>, s: u32) -> Result<Sampled, ShardError> {
        let ctx = Ctx::query(recorder::next_trace_id());
        let origin = self.inner.config.clock.now();
        let result = self.route_sample_wor(range, s, origin, ctx);
        self.inner.finish(origin, matches!(&result, Ok(r) if r.degraded), ctx);
        result
    }

    /// Elements in the closed key interval, scatter-gathered over the
    /// overlapping shards. A degraded count is a lower bound.
    ///
    /// # Errors
    /// A healthy replica's typed refusal of the count itself (e.g.
    /// [`ShardError::Serve`] for an index type that cannot count).
    pub fn range_count(&mut self, x: f64, y: f64) -> Result<Counted, ShardError> {
        let ctx = Ctx::query(recorder::next_trace_id());
        let origin = self.inner.config.clock.now();
        let result = self.route_range_count(x, y, origin, ctx);
        self.inner.finish(origin, matches!(&result, Ok(c) if c.degraded), ctx);
        result
    }

    /// The cluster metrics view (same as [`ShardedService::metrics`]).
    #[must_use]
    pub fn metrics(&self) -> ClusterMetrics {
        ShardedService { inner: Arc::clone(&self.inner) }.metrics()
    }

    fn route_sample_wr(
        &mut self,
        range: Option<(f64, f64)>,
        s: u32,
        origin: Instant,
        ctx: Ctx,
    ) -> Result<Sampled, ShardError> {
        if s > self.inner.config.max_sample_size {
            return Err(ShardError::InvalidRequest(
                "sample size exceeds the configured maximum".into(),
            ));
        }
        let (x, y) = range.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
        let topo = self.inner.topo.load();
        let (legs, sc) = (&mut self.legs, &mut self.scatter);
        let plan_degraded = self.inner.plan(&topo, x, y, s, ctx, legs);
        if legs.is_empty() {
            if plan_degraded {
                // Every overlapping shard is unreachable: report the
                // degradation rather than misreporting an empty range.
                return Ok(Sampled {
                    ids: Vec::new(),
                    degraded: true,
                    missing: s as usize,
                    trace: ctx.trace,
                });
            }
            return Err(ShardError::EmptyRange);
        }
        self.split.draw(legs, s as usize, &mut self.rng)?;
        let counts = &self.split.counts;
        for (leg, &count) in legs.iter().zip(counts) {
            recorder::emit(ctx, Phase::SplitCount, leg.shard_idx as u64, count as u64);
        }
        sc.legs.clear();
        sc.legs.extend(legs.iter().zip(counts).filter(|&(_, &count)| count > 0).map(
            |(leg, &count)| {
                let ask = LegAsk::SampleWr { x, y, s: count as u32 };
                ScatterLeg::new(leg.shard_idx, ask, ctx.shard(leg.shard_idx))
            },
        ));
        self.inner.scatter(&topo, sc, origin)?;
        // The first delivered leg's ids — the whole answer of a one-leg
        // query — start the reply, and the later legs' are appended: a
        // reply's own buffer is moved in, a kept one copied.
        let mut out = Sampled { degraded: plan_degraded, trace: ctx.trace, ..Sampled::default() };
        let gathered = sc.legs.iter().zip(&mut sc.replies).zip(&sc.ids);
        for ((leg, reply), drawn) in gathered {
            let planned = leg.ask.planned() as usize;
            match reply.take() {
                Some(Response::Samples(ids)) if out.ids.is_empty() && drawn.is_empty() => {
                    out.ids = ids
                }
                Some(Response::Samples(ids)) => {
                    out.absorb(Some(drawn), planned);
                    out.absorb(Some(&ids), planned);
                }
                _ => out.absorb(None, planned),
            }
        }
        Ok(out)
    }

    fn route_sample_wor(
        &mut self,
        range: Option<(f64, f64)>,
        s: u32,
        origin: Instant,
        ctx: Ctx,
    ) -> Result<Sampled, ShardError> {
        if s > self.inner.config.max_sample_size {
            return Err(ShardError::InvalidRequest(
                "sample size exceeds the configured maximum".into(),
            ));
        }
        let (x, y) = range.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
        let counted = self.route_range_count(x, y, origin, ctx)?;
        let want = s as usize;
        if !counted.degraded {
            if counted.count == 0 {
                return Err(ShardError::EmptyRange);
            }
            if want > counted.count {
                return Err(ShardError::SampleTooLarge {
                    requested: want,
                    available: counted.count,
                });
            }
        }
        let mut seen = HashSet::with_capacity(want);
        let mut out =
            Sampled { degraded: counted.degraded, trace: ctx.trace, ..Sampled::default() };
        let mut rounds = 0;
        while out.ids.len() < want {
            rounds += 1;
            if rounds > MAX_WOR_ROUNDS {
                return Err(ShardError::Query(QueryError::DensityTooLow));
            }
            let need = (want - out.ids.len()) as u32;
            let draw = self.route_sample_wr(Some((x, y)), need, origin, ctx)?;
            if draw.degraded {
                out.degraded = true;
                out.missing = want - out.ids.len();
                break;
            }
            // The round asked for exactly the shortfall, so the cap below
            // never cuts the reply short: every id of the (multiset)
            // reply is looked at, and shard order decides nothing but
            // the order of `out.ids`.
            for id in draw.ids {
                if out.ids.len() < want && seen.insert(id) {
                    out.ids.push(id);
                }
            }
        }
        Ok(out)
    }

    fn route_range_count(
        &mut self,
        x: f64,
        y: f64,
        origin: Instant,
        ctx: Ctx,
    ) -> Result<Counted, ShardError> {
        let topo = self.inner.topo.load();
        let sc = &mut self.scatter;
        sc.legs.clear();
        sc.legs.extend(
            topo.overlapping(x, y)
                .map(|idx| ScatterLeg::new(idx, LegAsk::RangeCount { x, y }, ctx.shard(idx))),
        );
        self.inner.scatter(&topo, sc, origin)?;
        let mut out = Counted { trace: ctx.trace, ..Counted::default() };
        for reply in sc.replies.drain(..) {
            out.absorb(match reply {
                Some(Response::Count(count)) => Some(count),
                _ => None,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<(u64, f64, f64)> {
        (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 7) as f64)).collect()
    }

    fn small_config() -> ShardConfig {
        ShardConfig { shards: 3, replicas: 2, ..ShardConfig::default() }
    }

    #[test]
    fn a_replica_is_tried_once_on_either_side_of_the_bit_set() {
        let mut tried = Tried::default();
        for ri in [0, 63, 64, 200] {
            assert!(tried.insert(ri), "replica {ri} is new");
            assert!(!tried.insert(ri), "replica {ri} was tried");
        }
        assert!(tried.insert(1) && tried.insert(65));
        assert_eq!(tried.high, [64, 200, 65], "only replicas past 64 are listed");
    }

    #[test]
    fn construction_validates_input() {
        let cfg = small_config();
        assert!(matches!(ShardedService::new(Vec::new(), cfg.clone()), Err(ShardError::Config(_))));
        assert!(matches!(
            ShardedService::new(vec![(1, 0.0, 1.0), (1, 1.0, 1.0)], cfg.clone()),
            Err(ShardError::Config(_))
        ));
        let svc = ShardedService::new(grid(30), cfg).expect("valid build");
        assert_eq!(svc.shard_count(), 3);
        let spans = svc.shard_spans();
        assert_eq!(spans[0].0, 0.0);
        assert_eq!(spans[2].1, 29.0);
        // Spans tile the key space in order without overlap.
        for w in spans.windows(2) {
            assert!(w[0].1 < w[1].0);
        }
        let total: f64 = svc.shard_weights().iter().sum();
        assert!((total - svc.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn full_range_draw_is_complete_and_counts_match() {
        let svc = ShardedService::new(grid(40), small_config()).expect("build");
        let mut client = svc.client();
        let drawn = client.sample_wr(None, 500).expect("sample");
        assert_eq!(drawn.ids.len(), 500);
        assert!(!drawn.degraded);
        assert_eq!(drawn.missing, 0);
        assert!(drawn.ids.iter().all(|&id| id < 40));
        let counted = client.range_count(10.0, 19.0).expect("count");
        assert_eq!(counted.count, 10);
        assert!(!counted.degraded);
    }

    #[test]
    fn seeded_replay_is_deterministic() {
        // A client's first draw on a fresh cluster is a function of the
        // cluster's seed.
        let draw = |seed| {
            let svc = ShardedService::new(grid(64), ShardConfig { seed, ..small_config() })
                .expect("build");
            svc.client().sample_wr(Some((5.0, 50.0)), 200).expect("draw").ids
        };
        let a = draw(99);
        assert_eq!(a, draw(99));
        assert_eq!(a.len(), 200);
        assert_ne!(a, draw(100), "different seeds should disagree somewhere");
    }

    #[test]
    fn wor_returns_distinct_ids_and_validates_size() {
        let svc = ShardedService::new(grid(25), small_config()).expect("build");
        let mut client = svc.client();
        let drawn = client.sample_wor(Some((0.0, 24.0)), 25).expect("wor");
        let mut ids = drawn.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 25, "all 25 elements exactly once");
        assert!(matches!(
            client.sample_wor(Some((0.0, 9.0)), 11),
            Err(ShardError::SampleTooLarge { requested: 11, available: 10 })
        ));
        assert!(matches!(client.sample_wr(Some((100.0, 200.0)), 5), Err(ShardError::EmptyRange)));
    }

    #[test]
    fn split_and_merge_round_trip() {
        let svc = ShardedService::new(
            grid(48),
            ShardConfig { shards: 2, replicas: 1, ..ShardConfig::default() },
        )
        .expect("build");
        assert_eq!(svc.shard_count(), 2);
        let before = svc.total_weight();
        assert_eq!(svc.split_shard(0).expect("split"), 3);
        assert_eq!(svc.shard_count(), 3);
        assert!((svc.total_weight() - before).abs() < 1e-9);
        assert_eq!(svc.merge_shards(0).expect("merge"), 2);
        assert!((svc.total_weight() - before).abs() < 1e-9);
        let mut client = svc.client();
        let drawn = client.sample_wr(None, 100).expect("sample after rebalance");
        assert_eq!(drawn.ids.len(), 100);
        assert!(matches!(svc.split_shard(9), Err(ShardError::UnknownShard(9))));
        assert!(matches!(svc.merge_shards(1), Err(ShardError::UnknownShard(2))));
        assert_eq!(svc.metrics().router.rebalances, 2);
    }
}
