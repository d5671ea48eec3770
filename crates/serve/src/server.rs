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
//!    overtaken. ([`Client::begin_ctx`] is that door with the wait left
//!    to the caller.) [`Client::call_pending_ctx`] returns before the
//!    answer exists and is therefore queue-only. Whoever
//!    holds the seat runs the same routine: if the deadline already
//!    passed, it answers [`ServeError::DeadlineExceeded`] without doing
//!    the work — expired requests never consume sampling capacity.
//! 3. **Dispatch** — the seat holder pins the target index's current
//!    snapshot and runs the matching batch entry point with the seat's
//!    reusable output buffer and RNG. Each seat owns a distinctly seeded
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

use crate::api::{Request, Response};
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{BoundedQueue, OneShot, PushRefused};
use crate::registry::{IndexRegistry, IndexView};

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

/// One admitted request, as [`serve_job`] needs it.
struct Job {
    request: Request,
    /// Latency is measured from here — for open-loop load generators this
    /// is the *scheduled* arrival time, so queueing delay is charged to
    /// the service (no coordinated omission).
    origin: Instant,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Trace context the request carries to whoever runs it. Untraced
    /// for plain calls.
    ctx: Ctx,
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

/// What [`Client::begin_ctx`] — the step every blocking door starts
/// with — did with an admitted request.
pub enum Begun {
    /// A seat was free and nothing was queued: the caller ran the
    /// request itself, and this is its outcome.
    Done(Result<Response, ServeError>),
    /// The request is queued for a worker; wait on the handle.
    Queued(PendingReply),
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
    /// it when the service is shutting down, and otherwise stamps the
    /// job and records its `Enqueue`.
    fn admit(
        &self,
        request: Request,
        origin: Instant,
        deadline: Option<Instant>,
        ctx: Ctx,
    ) -> Result<Job, ServeError> {
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let job = Job { request, origin, enqueued: self.clock.now(), deadline, ctx };
        // Emit before the job can run: whoever picks it up records its
        // Pickup, and the Enqueue record must already hold a smaller
        // sequence number for traces to order deterministically.
        recorder::emit(ctx, Phase::Enqueue, 0, 0);
        Ok(job)
    }

    fn enqueue(&self, job: Job, reply: Reply) -> Result<(), ServeError> {
        let deadline = job.deadline;
        match self.queue.try_push_at((job, reply), deadline) {
            Ok(()) => {
                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(PushRefused::Full(_)) => {
                self.metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded)
            }
            Err(PushRefused::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// The blocking doors: admit, then run the job here and now if a
    /// seat is free and nothing is queued ahead of it — picked up at the
    /// instant it was admitted — or queue it for a worker. The caller
    /// decides how long to wait on a queued reply.
    ///
    /// # Errors
    /// Admission refusals only; a request that ran reports its own
    /// outcome inside [`Begun::Done`].
    fn begin(
        &self,
        request: Request,
        origin: Instant,
        deadline: Option<Instant>,
        ctx: Ctx,
    ) -> Result<Begun, ServeError> {
        let job = self.admit(request, origin, deadline, ctx)?;
        if let Some(mut seat) = self.queue.try_seat() {
            let result = serve_job(self, &mut seat, &job, job.enqueued);
            self.queue.put_seat(seat);
            return Ok(Begun::Done(result));
        }
        let reply = OneShot::new();
        self.enqueue(job, reply.clone())?;
        Ok(Begun::Queued(PendingReply { reply, clock: self.clock.clone() }))
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
        match self.shared.begin(request, origin, deadline, Ctx::none())? {
            Begun::Done(result) => result,
            Begun::Queued(pending) => pending.wait(),
        }
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
        match self.begin_ctx(request, origin, deadline, ctx)? {
            Begun::Done(result) => result,
            Begun::Queued(pending) => match deadline {
                Some(dl) => pending.wait_deadline(dl).unwrap_or(Err(ServeError::DeadlineExceeded)),
                None => pending.wait(),
            },
        }
    }

    /// The first half of [`Client::call_ctx`], for a caller with other
    /// replies to wait for: the request is admitted and, when a seat is
    /// free and nothing is queued, run to completion on this thread
    /// ([`Begun::Done`]); otherwise it is queued and the handle comes
    /// back at once ([`Begun::Queued`]) — this door never waits for a
    /// busy service. The sharded router submits local legs through it,
    /// so a leg that has to queue still overlaps with the scatter's
    /// other legs.
    ///
    /// # Errors
    /// Admission refusals, as [`Client::call_pending_ctx`].
    pub fn begin_ctx(
        &self,
        request: Request,
        origin: Instant,
        deadline: Option<Instant>,
        ctx: Ctx,
    ) -> Result<Begun, ServeError> {
        self.shared.begin(request, origin, deadline, ctx)
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
            Ok(Begun::Done(result)) => result,
            Ok(Begun::Queued(pending)) => pending.wait(),
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
        let job = self.shared.admit(request, origin, deadline, ctx)?;
        let reply = OneShot::new();
        self.shared.enqueue(job, reply.clone())?;
        Ok(PendingReply { reply, clock: self.shared.clock.clone() })
    }

    /// A point-in-time copy of the service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot_metrics()
    }
}

/// An in-flight request submitted with [`Client::call_pending_ctx`] or
/// queued by [`Client::begin_ctx`]: a waitable handle on the response.
pub struct PendingReply {
    reply: Reply,
    clock: ClockHandle,
}

impl PendingReply {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    /// The dispatch outcome, as for [`Client::call`].
    pub fn wait(self) -> Result<Response, ServeError> {
        self.reply.wait()
    }

    /// Blocks until the response arrives or `deadline` passes on the
    /// server's clock; `None` means the wait timed out and the handle was
    /// abandoned (the worker may still execute the request — its outcome
    /// lands in the metrics).
    pub fn wait_deadline(self, deadline: Instant) -> Option<Result<Response, ServeError>> {
        self.reply.wait_deadline(deadline, &self.clock)
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
/// 9,000 more page faults).
#[derive(Default)]
struct Scratch {
    plan: QueryPlan,
    tiles: Option<Box<Tiles>>,
}

fn worker_loop(shared: &Shared) {
    while let Some(((job, reply), mut seat)) = shared.queue.pop() {
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let result = serve_job(shared, &mut seat, &job, shared.clock.now());
        // Seat first: a closed-loop caller woken by the reply finds it
        // home and runs its next request itself.
        shared.queue.put_seat(seat);
        reply.put(result);
    }
}

/// Runs one admitted job on `seat` — the one routine behind every door,
/// called by a worker thread for a queued job and by a blocking caller
/// that took a seat itself. `picked` is the pickup instant.
fn serve_job(
    shared: &Shared,
    seat: &mut Seat,
    job: &Job,
    picked: Instant,
) -> Result<Response, ServeError> {
    let wait = picked.saturating_duration_since(job.enqueued);
    shared.metrics.queue_wait.record(wait);
    recorder::emit(job.ctx, Phase::Pickup, saturating_ns(wait), 0);
    // `>=`, not `>`: a request whose deadline equals the pickup
    // instant has no time left to do work, and on a frozen virtual
    // clock this is what makes deadline misses deterministic.
    if job.deadline.is_some_and(|dl| picked >= dl) {
        shared.metrics.deadline_missed.fetch_add(1, Ordering::Relaxed);
        recorder::emit(job.ctx, Phase::DeadlineMiss, 0, 0);
        return Err(ServeError::DeadlineExceeded);
    }
    let cost_before = iqs_alias::prof::read();
    // Panic containment: dispatch is the only place index code (and an
    // `ExternalIndex`'s) runs, and it may now run on a caller's thread
    // holding the service's only seat. The RNG stays — any state is a
    // valid point of its stream — but half-written buffers do not.
    let result = catch_unwind(AssertUnwindSafe(|| {
        dispatch(shared, &job.request, &mut seat.rng, &mut seat.scratch, job.ctx)
    }))
    .unwrap_or_else(|_| {
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
        job.ctx,
        Phase::RngCost,
        cost.rng_words,
        iqs_obs::recorder::pack_cost(
            cost.rng_refills,
            cost.alias_redirects,
            cost.tree_descents,
            cost.union_rejects,
        ),
    );
    let service = done.saturating_duration_since(job.origin);
    shared.metrics.latency.record(service);
    recorder::emit(job.ctx, Phase::WorkDone, saturating_ns(service), u64::from(result.is_ok()));
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

fn dispatch(
    shared: &Shared,
    request: &Request,
    rng: &mut StdRng,
    scratch: &mut Scratch,
    ctx: Ctx,
) -> Result<Response, ServeError> {
    let registry = &shared.registry;
    match request {
        Request::SampleWr { index, range, s } => {
            let s = check_sample_size(*s, shared.max_sample_size)?;
            let view = registry.entry(index)?.view.load();
            match &*view {
                IndexView::Range(rv) => {
                    let (x, y) = range.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
                    let mut ids = Vec::with_capacity(s);
                    rv.sample_ids_into(
                        x,
                        y,
                        s,
                        rng,
                        &mut scratch.plan,
                        scratch.tiles.get_or_insert_with(Box::default),
                        &mut ids,
                    )?;
                    Ok(Response::Samples(ids))
                }
                IndexView::External(ev) => {
                    let (samples, io) = ev.sample_wr(*range, s, rng, ctx)?;
                    shared.metrics.record_io(&io);
                    Ok(Response::Samples(samples))
                }
            }
        }
        Request::SampleWor { index, range, s } => {
            let s = check_sample_size(*s, shared.max_sample_size)?;
            let view = registry.entry(index)?.view.load();
            let IndexView::Range(rv) = &*view else {
                return Err(ServeError::Unsupported(
                    "without-replacement sampling requires a range index".into(),
                ));
            };
            let sampler = rv.sampler.as_ref().ok_or(ServeError::Query(QueryError::EmptyRange))?;
            let (x, y) = range.unwrap_or((f64::NEG_INFINITY, f64::INFINITY));
            let ranks = sampler.sample_wor(x, y, s, rng)?;
            Ok(Response::Samples(ranks.into_iter().map(|r| rv.id_at(r)).collect()))
        }
        Request::RangeCount { index, x, y } => {
            let view = registry.entry(index)?.view.load();
            match &*view {
                IndexView::Range(rv) => {
                    Ok(Response::Count(rv.sampler.as_ref().map_or(0, |s| s.range_count(*x, *y))))
                }
                IndexView::External(ev) => Ok(Response::Count(ev.range_count(*x, *y)?)),
            }
        }
        Request::TotalWeight { index } => Ok(Response::Weight(registry.total_weight(index)?)),
        Request::RangeWeight { index, x, y } => {
            Ok(Response::Weight(registry.range_weight(index, *x, *y)?))
        }
        Request::Update { index, ops } => {
            let (applied, version) = registry.apply_update(index, ops)?;
            shared.metrics.updates_applied.fetch_add(applied as u64, Ordering::Relaxed);
            Ok(Response::Updated { applied, version })
        }
    }
}
