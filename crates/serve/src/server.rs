//! The multi-threaded sampling query engine: typed requests admitted
//! through a bounded queue, run on a fixed set of *seats*, and dispatched
//! to the registry's snapshot-published indexes.
//!
//! Request lifecycle:
//!
//! 1. **Admission** — [`Client`] checks that the service is accepting.
//!    A request that must queue and finds the bounded MPMC queue full is
//!    refused immediately with [`ServeError::Overloaded`] (backpressure,
//!    not unbounded queueing).
//! 2. **Pickup** — the request gets a *seat*: one of the `workers`
//!    per-draw states (a seeded RNG plus reusable output buffers) that
//!    bound how many requests run at once. A worker thread takes the
//!    most urgent queued request together with a free seat. The caller
//!    of a *blocking* door ([`Client::call`], [`Client::call_traced`],
//!    [`Client::call_ctx`]) takes a seat itself when nothing is queued
//!    and one is free — an idle service answers on the thread that
//!    asked, with no hand-off — and otherwise queues and waits for a
//!    worker like everybody else, so a queued request is never
//!    overtaken. [`Client::answer`] is that door for one leg of a
//!    sharded scatter, with the wait left to the caller.
//!    [`Client::call_pending_ctx`] returns before the answer exists and
//!    is therefore queue-only. Whoever
//!    holds the seat runs the same routine: if the deadline already
//!    passed, it answers [`ServeError::DeadlineExceeded`] without doing
//!    the work — expired requests never consume sampling capacity.
//! 3. **Dispatch** — the seat holder reads the target index's current
//!    snapshot through the seat's pin ("Pins" below) and runs the
//!    matching batch entry point with the seat's reusable output buffer
//!    and RNG. Each seat owns a distinctly seeded
//!    `StdRng` used by one thread at a time, so every response's samples
//!    are independent of every other response's — the paper's equation
//!    (1) across service clients. A panic inside dispatch is caught
//!    there: the request answers [`ServeError::Panicked`], the seat goes
//!    back with fresh buffers, and the worker or caller carries on.
//! 4. **Reply + metrics** — latency (request origin → response ready) and
//!    queue wait are recorded in log₂ histograms; counters classify the
//!    outcome.
//!
//! Shutdown is graceful: admissions stop, workers drain everything
//! already queued (every accepted request gets a response) and exit, and
//! `shutdown` returns once every seat — including one a blocking caller
//! is still running on — is back in the pool.
//!
//! # Pins
//!
//! A seat keeps a [`Pinned`] view of the index it read last and reads it
//! again with one load while nothing has been published since, so a
//! steady stream of reads takes no snapshot lock and touches no shared
//! reference count. The pin is checked on every read, so a request
//! admitted after an `Update` returned reads the update's view.
//!
//! A kept pin must not keep a superseded view alive past the request
//! that read it: the next patch of a dynamic index is written into the
//! view its last publication superseded, and only when nobody holds it
//! (registry module docs). Two rules, both under the seat pool's lock,
//! see to that. An `Update` that returns clears the stale pins of every
//! seat at home; a seat coming home drops its pin if a publication has
//! made it stale. A seat is either at home or out, so every pin of a
//! superseded view is gone once the requests that held it have
//! finished. The pins are dropped after the lock is released, since the
//! last hold on a view frees it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iqs_core::{QueryError, QueryPlan, RangeSampler, Tiles};
use iqs_obs::{recorder, saturating_ns, Ctx, Phase, SlowEntry, SlowLog};
use iqs_testkit::ClockHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{LegAsk, Request, Response};
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{BoundedQueue, OneShot, PushRefused};
use crate::registry::{IndexRegistry, IndexView};
use crate::snapshot::Pinned;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads, and with them seats: the number of requests that
    /// can run at once. Defaults to available parallelism, capped at 8.
    pub workers: usize,
    /// Request-queue capacity; admission refuses beyond it. Default 1024.
    pub queue_capacity: usize,
    /// Deadline applied to `Client::call` requests that do not carry
    /// their own. `None` (default) means no implicit deadline.
    pub default_deadline: Option<Duration>,
    /// Upper bound on per-request sample count, bounding worker memory.
    /// Default 2²⁰.
    pub max_sample_size: u32,
    /// Seed for the per-seat RNGs (seat `i` derives an independent
    /// stream from it).
    pub seed: u64,
    /// Time source for deadlines, queue waits, and latency metrics. The
    /// default is the real clock; tests install a
    /// [`iqs_testkit::VirtualClock`] handle and advance time explicitly.
    pub clock: ClockHandle,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4),
            queue_capacity: 1024,
            default_deadline: None,
            max_sample_size: 1 << 20,
            seed: 0x1b5_5e7e,
            clock: ClockHandle::real(),
        }
    }
}

/// The instants and trace context a request is admitted with: all the
/// service needs to run it besides the request itself.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    /// Latency is measured from here — for open-loop load generators this
    /// is the *scheduled* arrival time, so queueing delay is charged to
    /// the service (no coordinated omission).
    pub origin: Instant,
    /// The admission instant: a queue wait counts from here, and a
    /// request run on the caller's seat is picked up at it.
    pub admitted: Instant,
    /// Checked at pickup; `None` for no deadline.
    pub deadline: Option<Instant>,
    /// Trace context the request carries to whoever runs it. Untraced
    /// for plain calls.
    pub ctx: Ctx,
}

/// One admitted request.
struct Job {
    request: Request,
    at: Admission,
}

type Reply = OneShot<Result<Response, ServeError>>;

/// A queue entry: the job and where its answer goes. A reply whose
/// handle was dropped is still put; the outcome lands in the metrics.
type Queued = (Job, Reply);

/// One of the `workers` draw states a request runs on (module docs,
/// "Pickup"). The RNG stream of seat `i` is what worker `i`'s used to
/// be; the buffers are reused from request to request.
struct Seat {
    rng: StdRng,
    scratch: Scratch,
}

impl Seat {
    /// The seat's pin, if a publication has made it stale (module docs,
    /// "Pins").
    fn stale_pin(&mut self) -> Option<Pinned<IndexView>> {
        self.scratch.pin.take_if(|pin| !pin.is_current())
    }
}

struct Shared {
    registry: IndexRegistry,
    queue: BoundedQueue<Queued, Seat>,
    metrics: Metrics,
    slow: SlowLog,
    accepting: AtomicBool,
    max_sample_size: u32,
    clock: ClockHandle,
}

impl Shared {
    /// Admission, shared by every door: counts the submission, refuses
    /// it when the service is shutting down, and otherwise records its
    /// `Enqueue`.
    fn admit(&self, at: &Admission) -> Result<(), ServeError> {
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // Emit before the job can run: whoever picks it up records its
        // Pickup, and the Enqueue record must already hold a smaller
        // sequence number for traces to order deterministically.
        recorder::emit(at.ctx, Phase::Enqueue, 0, 0);
        Ok(())
    }

    /// [`Shared::admit`] stamped at the current instant.
    fn admit_now(
        &self,
        origin: Instant,
        deadline: Option<Instant>,
        ctx: Ctx,
    ) -> Result<Admission, ServeError> {
        let at = Admission { origin, admitted: self.clock.now(), deadline, ctx };
        self.admit(&at)?;
        Ok(at)
    }

    /// Gives a seat back to the pool, dropping its pin after the lock if
    /// a publication made it stale (module docs, "Pins").
    fn put_seat(&self, seat: Seat) {
        drop(self.queue.put_seat(seat, Seat::stale_pin));
    }

    /// Drops the stale pins of the seats at home: what a publication
    /// owes the next one (module docs, "Pins").
    fn unpin_idle(&self) {
        let mut stale = Vec::new();
        self.queue.for_each_free(|seat| stale.extend(seat.stale_pin()));
        drop(stale);
    }

    /// Queues an admitted job for a worker.
    fn enqueue(&self, job: Job) -> Result<PendingReply, ServeError> {
        let reply = OneShot::new();
        let deadline = job.at.deadline;
        match self.queue.try_push_at((job, reply.clone()), deadline) {
            Ok(()) => {
                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                Ok(PendingReply(Slot::Queued(reply, self.clock.clone())))
            }
            Err(PushRefused::Full(_)) => {
                self.metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded)
            }
            Err(PushRefused::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Runs an admitted request's `work` here and now if a seat is free
    /// and nothing is queued ahead of it, picked up at the instant it was
    /// admitted; `None`, having done nothing, otherwise.
    fn run_here<T>(
        &self,
        at: &Admission,
        work: impl FnOnce(&mut Seat) -> Result<T, ServeError>,
    ) -> Option<Result<T, ServeError>> {
        let mut seat = self.queue.try_seat()?;
        let result = serve_job(self, &mut seat, at, at.admitted, work);
        self.put_seat(seat);
        Some(result)
    }

    /// The blocking doors: admit, then run the request here or queue it
    /// for a worker. The caller decides how long to wait on the reply.
    ///
    /// # Errors
    /// Admission refusals only; what the request answered arrives
    /// through the reply.
    fn begin(
        &self,
        request: Request,
        origin: Instant,
        deadline: Option<Instant>,
        ctx: Ctx,
    ) -> Result<PendingReply, ServeError> {
        let at = self.admit_now(origin, deadline, ctx)?;
        match self.run_here(&at, |seat| dispatch(self, &request, seat, at.ctx)) {
            Some(result) => Ok(PendingReply(Slot::Ready(result))),
            None => self.enqueue(Job { request, at }),
        }
    }

    fn snapshot_metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot_swaps.store(self.registry.swap_count(), Ordering::Relaxed);
        self.metrics.snapshot()
    }
}

/// A cloneable handle for submitting requests to a running [`Server`].
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    default_deadline: Option<Duration>,
}

impl Client {
    /// Submits `request` and blocks until its response arrives. The
    /// configured default deadline (if any) applies.
    ///
    /// # Errors
    /// Any [`ServeError`]: admission refusals surface immediately;
    /// dispatch errors arrive with the response.
    pub fn call(&self, request: Request) -> Result<Response, ServeError> {
        let origin = self.shared.clock.now();
        let deadline = self.default_deadline.map(|d| origin + d);
        self.shared.begin(request, origin, deadline, Ctx::none())?.wait()
    }

    /// [`Client::call`] with an explicit latency origin, deadline and
    /// trace context, with the wait bounded by the deadline — the
    /// blocking door for layers that manage their own traces and
    /// deadlines (`iqs-net`'s connection threads). A request that had to
    /// queue and is still unanswered at `deadline` (on the server's
    /// clock) returns [`ServeError::DeadlineExceeded`] and is abandoned;
    /// a worker may still run it, and its outcome lands in the metrics.
    ///
    /// # Errors
    /// As [`Client::call`].
    pub fn call_ctx(
        &self,
        request: Request,
        origin: Instant,
        deadline: Option<Instant>,
        ctx: Ctx,
    ) -> Result<Response, ServeError> {
        let pending = self.shared.begin(request, origin, deadline, ctx)?;
        match deadline {
            Some(dl) => pending.wait_deadline(dl).unwrap_or(Err(ServeError::DeadlineExceeded)),
            None => pending.wait(),
        }
    }

    /// [`Client::call`], with the request traced end to end: a fresh
    /// trace id is allocated (when the [`iqs_obs`] recorder is
    /// installed), carried to whoever runs the request, and its
    /// records — enqueue, pickup, deadline check, per-draw RNG cost,
    /// completion — can be reconstructed afterwards with
    /// [`iqs_obs::TraceView`]. Returns the trace id
    /// ([`iqs_obs::UNTRACED`] when recording is disabled) alongside the
    /// outcome.
    ///
    /// # Errors
    /// As [`Client::call`].
    pub fn call_traced(&self, request: Request) -> (u64, Result<Response, ServeError>) {
        let trace = recorder::next_trace_id();
        let ctx = Ctx::query(trace);
        let origin = self.shared.clock.now();
        let deadline = self.default_deadline.map(|d| origin + d);
        let result = match self.shared.begin(request, origin, deadline, ctx) {
            Ok(pending) => pending.wait(),
            Err(e) => return (trace, Err(e)),
        };
        let latency = self.shared.clock.now().saturating_duration_since(origin);
        let latency_ns = saturating_ns(latency);
        recorder::emit(ctx, Phase::QueryDone, latency_ns, u64::from(result.is_err()));
        self.shared.slow.observe(trace, latency_ns);
        (trace, result)
    }

    /// Submits `request` with a trace context and returns a
    /// [`PendingReply`] without waiting — the scatter entry point for
    /// layers that manage their own traces (the sharded router submits
    /// each scatter leg with the query's trace id and the leg's span).
    /// Queue-only by contract: the request always runs on a worker
    /// thread, never on the caller's. `origin` is the latency origin
    /// (for open-loop load, the scheduled arrival); `deadline` (if any)
    /// is enforced at pickup. Dropping the handle abandons only the
    /// answer: the request still runs and lands in the metrics.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] / [`ServeError::ShuttingDown`] at
    /// admission; dispatch errors arrive through the pending reply.
    pub fn call_pending_ctx(
        &self,
        request: Request,
        origin: Instant,
        deadline: Option<Instant>,
        ctx: Ctx,
    ) -> Result<PendingReply, ServeError> {
        let at = self.shared.admit_now(origin, deadline, ctx)?;
        self.shared.enqueue(Job { request, at })
    }

    /// One leg of a sharded scatter, asked of `index`: the blocking door
    /// with the wait left to the caller, so it never waits for a busy
    /// service. The leg is admitted at `at.admitted`. If a seat is free
    /// and nothing is queued it runs here, picked up at that instant,
    /// and the reply comes back already answered: a draw appends its ids
    /// to `out` and answers an empty [`Response::Samples`], a count
    /// answers [`Response::Count`]. An error, a caught panic included,
    /// leaves `out` as it was. Otherwise the leg is queued as its
    /// [`Request`] and `out` is not touched: the reply carries the ids.
    ///
    /// # Errors
    /// Admission refusals, as [`Client::call_pending_ctx`].
    pub fn answer(
        &self,
        index: &str,
        leg: LegAsk,
        at: Admission,
        out: &mut Vec<u64>,
    ) -> Result<PendingReply, ServeError> {
        let shared = &*self.shared;
        shared.admit(&at)?;
        let start = out.len();
        let here = shared.run_here(&at, |seat| match leg {
            LegAsk::SampleWr { x, y, s } => {
                sample_wr_into(shared, index, Some((x, y)), s, seat, at.ctx, out)
                    .map(|()| Response::Samples(Vec::new()))
            }
            LegAsk::RangeCount { x, y } => {
                range_count(shared, index, x, y, seat).map(Response::Count)
            }
        });
        let Some(answered) = here else {
            return shared.enqueue(Job { request: leg.request(index), at });
        };
        if answered.is_err() {
            out.truncate(start);
        }
        Ok(PendingReply(Slot::Ready(answered)))
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot_metrics()
    }
}

/// A request's reply: already answered, when the request ran on the
/// thread that asked ([`Client::call`]'s door), or on its way from a
/// worker ([`Client::call_pending_ctx`]).
pub struct PendingReply(Slot);

/// Where a [`PendingReply`]'s answer is: here, or in the reply cell a
/// worker fills (read on the server's clock).
enum Slot {
    Ready(Result<Response, ServeError>),
    Queued(Reply, ClockHandle),
}

impl PendingReply {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    /// The dispatch outcome, as for [`Client::call`].
    pub fn wait(self) -> Result<Response, ServeError> {
        match self.0 {
            Slot::Ready(result) => result,
            Slot::Queued(reply, _) => reply.wait(),
        }
    }

    /// Blocks until the response arrives or `deadline` passes on the
    /// server's clock; `None` means the wait timed out and the handle was
    /// abandoned (the worker may still execute the request — its outcome
    /// lands in the metrics). An answered reply is returned whatever the
    /// deadline.
    pub fn wait_deadline(self, deadline: Instant) -> Option<Result<Response, ServeError>> {
        match self.0 {
            Slot::Ready(result) => Some(result),
            Slot::Queued(reply, clock) => reply.wait_deadline(deadline, &clock),
        }
    }
}

/// The running service: worker pool + queue and seats + registry +
/// metrics.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    default_deadline: Option<Duration>,
}

impl Server {
    /// Starts the worker pool over `registry`. The registry is frozen
    /// from here on: all further mutation flows through
    /// [`Request::Update`] publications.
    pub fn start(registry: IndexRegistry, config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        // Distinct per-seat seeds -> independent streams (the workspace
        // StdRng seeds through SplitMix64). Reversed, so that seat 0 is
        // the first one taken.
        let seats = (0..workers)
            .rev()
            .map(|i| Seat {
                rng: StdRng::seed_from_u64(
                    config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1),
                ),
                scratch: Scratch::default(),
            })
            .collect();
        let shared = Arc::new(Shared {
            registry,
            queue: BoundedQueue::new(config.queue_capacity, seats),
            metrics: Metrics::default(),
            slow: SlowLog::default(),
            accepting: AtomicBool::new(true),
            max_sample_size: config.max_sample_size,
            clock: config.clock.clone(),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("iqs-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Server { shared, workers, default_deadline: config.default_deadline }
    }

    /// A new submission handle.
    pub fn client(&self) -> Client {
        Client { shared: Arc::clone(&self.shared), default_deadline: self.default_deadline }
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot_metrics()
    }

    /// Drains the slow-query log: the top-k slowest *traced* requests
    /// since the last drain, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowEntry> {
        self.shared.slow.take()
    }

    /// Prometheus-style text exposition of the current metrics, with
    /// slow-log exemplar trace ids attached to latency buckets.
    pub fn prometheus(&self) -> String {
        self.shared.snapshot_metrics().to_prometheus(Some(&self.shared.slow))
    }

    /// Read access to the registry (snapshot loads, swap counts).
    pub fn registry(&self) -> &IndexRegistry {
        &self.shared.registry
    }

    /// Graceful shutdown: stops admitting, lets the workers drain every
    /// already-accepted request (each gets its response), joins them,
    /// waits for any blocking caller still running on a seat, and returns
    /// the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.snapshot_metrics()
    }

    fn stop_and_join(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.queue.wait_seats_home();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Per-seat reusable state: the sampling batch entry points write into
/// these buffers, so steady-state request service performs no
/// sample-sized allocation beyond the response vector itself. `plan` is
/// the seat's last range query plan, keyed by the view's content and the
/// range: the same range asked again of the same view spends the request
/// on draws, and any other view or range re-plans into its buffers.
/// `tiles` are the arrays its draws run in, boxed so that a seat moves
/// as a pointer and never filled per request. They are allocated by the
/// seat's first range read, not with the seat: 13 KiB allocated while a
/// cluster is built land among its views' arrays, and the heap the next
/// build finds is then fragmented (a rebuilt four-shard cluster took
/// 9,000 more page faults). `pin` is the view the seat read last
/// (module docs, "Pins").
#[derive(Default)]
struct Scratch {
    plan: QueryPlan,
    tiles: Option<Box<Tiles>>,
    pin: Option<Pinned<IndexView>>,
}

fn worker_loop(shared: &Shared) {
    while let Some(((job, reply), mut seat)) = shared.queue.pop() {
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let result = serve_job(shared, &mut seat, &job.at, shared.clock.now(), |seat| {
            dispatch(shared, &job.request, seat, job.at.ctx)
        });
        // Seat first: a closed-loop caller woken by the reply finds it
        // home and runs its next request itself.
        shared.put_seat(seat);
        reply.put(result);
    }
}

/// Runs one admitted request's `work` on `seat` — the one routine behind
/// every door, called by a worker thread for a queued job and by a
/// caller that took a seat itself. `picked` is the pickup instant.
fn serve_job<T>(
    shared: &Shared,
    seat: &mut Seat,
    at: &Admission,
    picked: Instant,
    work: impl FnOnce(&mut Seat) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let wait = picked.saturating_duration_since(at.admitted);
    shared.metrics.queue_wait.record(wait);
    recorder::emit(at.ctx, Phase::Pickup, saturating_ns(wait), 0);
    // `>=`, not `>`: a request whose deadline equals the pickup
    // instant has no time left to do work, and on a frozen virtual
    // clock this is what makes deadline misses deterministic.
    if at.deadline.is_some_and(|dl| picked >= dl) {
        shared.metrics.deadline_missed.fetch_add(1, Ordering::Relaxed);
        recorder::emit(at.ctx, Phase::DeadlineMiss, 0, 0);
        return Err(ServeError::DeadlineExceeded);
    }
    let cost_before = iqs_alias::prof::read();
    // Panic containment: `work` is the only place index code (and an
    // `ExternalIndex`'s) runs, and it may run on a caller's thread
    // holding the service's only seat. The RNG stays — any state is a
    // valid point of its stream — but half-written buffers do not.
    let result = catch_unwind(AssertUnwindSafe(|| work(seat))).unwrap_or_else(|_| {
        seat.scratch = Scratch::default();
        Err(ServeError::Panicked)
    });
    let done = shared.clock.now();
    // Per-draw cost: the thread-local profile delta over the
    // dispatch. The RNG-word/refill totals feed the always-on
    // service counters (two relaxed adds); the full breakdown is
    // recorded only when the request is traced.
    let cost = iqs_alias::prof::read().minus(&cost_before);
    if !cost.is_zero() {
        shared.metrics.rng_words.fetch_add(cost.rng_words, Ordering::Relaxed);
        shared.metrics.rng_refills.fetch_add(cost.rng_refills, Ordering::Relaxed);
        shared.metrics.prefetches.fetch_add(cost.prefetches, Ordering::Relaxed);
        shared.metrics.window_stalls.fetch_add(cost.window_stalls, Ordering::Relaxed);
    }
    recorder::emit(
        at.ctx,
        Phase::RngCost,
        cost.rng_words,
        iqs_obs::recorder::pack_cost(
            cost.rng_refills,
            cost.alias_redirects,
            cost.tree_descents,
            cost.union_rejects,
        ),
    );
    let service = done.saturating_duration_since(at.origin);
    shared.metrics.latency.record(service);
    recorder::emit(at.ctx, Phase::WorkDone, saturating_ns(service), u64::from(result.is_ok()));
    match &result {
        Ok(_) => shared.metrics.completed.fetch_add(1, Ordering::Relaxed),
        Err(_) => shared.metrics.failed.fetch_add(1, Ordering::Relaxed),
    };
    result
}

fn check_sample_size(s: u32, max: u32) -> Result<usize, ServeError> {
    if s > max {
        return Err(ServeError::InvalidRequest(
            "sample size exceeds the configured maximum".into(),
        ));
    }
    Ok(s as usize)
}

/// `Request::SampleWr`'s work, through either door: appends the draws'
/// ids to `out`, which an error leaves as it was.
fn sample_wr_into(
    shared: &Shared,
    index: &str,
    range: Option<(f64, f64)>,
    s: u32,
    seat: &mut Seat,
    ctx: Ctx,
    out: &mut Vec<u64>,
) -> Result<(), ServeError> {
    let s = check_sample_size(s, shared.max_sample_size)?;
    let scratch = &mut seat.scratch;
    match &**shared.registry.entry(index)?.view.read(&mut scratch.pin) {
        IndexView::Range(rv) => {
            let (x, y) = range.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
            out.reserve_exact(s);
            let tiles = scratch.tiles.get_or_insert_with(Box::default);
            rv.sample_ids_into(x, y, s, &mut seat.rng, &mut scratch.plan, tiles, out)?;
        }
        IndexView::External(ev) => {
            let (samples, io) = ev.sample_wr(range, s, &mut seat.rng, ctx)?;
            shared.metrics.record_io(&io);
            // An empty buffer takes the engine's vector, as a reply did.
            if out.is_empty() {
                *out = samples;
            } else {
                out.extend_from_slice(&samples);
            }
        }
    }
    Ok(())
}

/// `Request::RangeCount`'s work, through either door.
fn range_count(
    shared: &Shared,
    index: &str,
    x: f64,
    y: f64,
    seat: &mut Seat,
) -> Result<usize, ServeError> {
    match &**shared.registry.entry(index)?.view.read(&mut seat.scratch.pin) {
        IndexView::Range(rv) => Ok(rv.sampler.as_ref().map_or(0, |s| s.range_count(x, y))),
        IndexView::External(ev) => ev.range_count(x, y),
    }
}

fn dispatch(
    shared: &Shared,
    request: &Request,
    seat: &mut Seat,
    ctx: Ctx,
) -> Result<Response, ServeError> {
    let registry = &shared.registry;
    match request {
        Request::SampleWr { index, range, s } => {
            let mut ids = Vec::new();
            sample_wr_into(shared, index, *range, *s, seat, ctx, &mut ids)?;
            Ok(Response::Samples(ids))
        }
        Request::SampleWor { index, range, s } => {
            let s = check_sample_size(*s, shared.max_sample_size)?;
            let view = registry.entry(index)?.view.read(&mut seat.scratch.pin);
            let IndexView::Range(rv) = &**view else {
                return Err(ServeError::Unsupported(
                    "without-replacement sampling requires a range index".into(),
                ));
            };
            let sampler = rv.sampler.as_ref().ok_or(ServeError::Query(QueryError::EmptyRange))?;
            let (x, y) = range.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
            let ranks = sampler.sample_wor(x, y, s, &mut seat.rng)?;
            Ok(Response::Samples(ranks.into_iter().map(|r| rv.id_at(r)).collect()))
        }
        Request::RangeCount { index, x, y } => {
            range_count(shared, index, *x, *y, seat).map(Response::Count)
        }
        Request::TotalWeight { index } => Ok(Response::Weight(registry.total_weight(index)?)),
        Request::RangeWeight { index, x, y } => {
            Ok(Response::Weight(registry.range_weight(index, *x, *y)?))
        }
        Request::Update { index, ops } => {
            let updated = registry.apply_update(index, ops);
            // A batch that stopped at a bad op may still have published.
            shared.unpin_idle();
            let (applied, version) = updated?;
            shared.metrics.updates_applied.fetch_add(applied as u64, Ordering::Relaxed);
            Ok(Response::Updated { applied, version })
        }
    }
}
