//! End-to-end tests of the sampling service: distribution correctness
//! through the full service path, admission control, deadlines, mixed
//! read/update workloads, typed errors, and graceful shutdown accounting.
//!
//! Time never comes from the wall clock here: deadline behaviour runs on
//! an `iqs_testkit` virtual clock (advanced explicitly, so a "missed"
//! deadline is a deterministic fact, not a race), and the distributional
//! checks run as registered `testkit::gate`s under the suite seed.
//!
//! The seat-protocol tests at the end hold the three promises the
//! blocking doors make when a caller runs its own request: the `workers`
//! cap, no overtaking of a queued job, and drain-on-shutdown. Where they
//! need a request to take a long time they park it inside a
//! [`GatedIndex`] until the test opens the gate — interleavings are
//! forced, never slept for.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use iqs_obs::{recorder, Ctx, Phase};
use iqs_serve::{
    Admission, ExternalIndex, IndexRegistry, IoReport, LegAsk, Request, Response, ServeError,
    Server, ServerConfig, UpdateOp,
};
use iqs_stats::chisq::{chi_square_gof, weight_probs};
use iqs_testkit::gate::{self, Trial};
use iqs_testkit::VirtualClock;

fn weighted_pairs(n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|i| (i as f64, 1.0 + (i % 10) as f64)).collect()
}

fn sample_ids(resp: Response) -> Vec<u64> {
    match resp {
        Response::Samples(ids) => ids,
        other => panic!("expected samples, got {other:?}"),
    }
}

/// The chi-square aggregate-distribution check, served through the full
/// concurrent service path: queue, snapshots, per-seat RNGs, with four
/// client threads submitting concurrently.
///
/// One seat serves all requests — on a caller's thread or the worker's —
/// so the merged histogram is a deterministic function of the gate seed:
/// all requests are identical, so the single seat's RNG stream maps to
/// the same multiset of samples whatever order the client threads'
/// submissions interleave in.
#[test]
fn aggregate_distribution_is_correct_through_the_service() {
    gate::run("serve_aggregate_distribution", |seed, scale| {
        let n = 4096usize;
        let pairs = weighted_pairs(n);
        let weights: Vec<f64> = pairs.iter().map(|&(_, w)| w).collect();
        let mut registry = IndexRegistry::new();
        registry.register_range_static("keys", pairs).unwrap();
        let server = Server::start(
            registry,
            ServerConfig { workers: 1, queue_capacity: 256, seed, ..ServerConfig::default() },
        );

        let (x, y) = (512.0, 3583.0);
        let (a, b) = (512usize, 3584usize);
        let clients = 4usize;
        let calls = 300 * scale;
        let s = 16u32;
        let histograms: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let client = server.client();
                    scope.spawn(move || {
                        let mut hist = vec![0u64; b - a];
                        for _ in 0..calls {
                            let ids = sample_ids(
                                client
                                    .call(Request::SampleWr {
                                        index: "keys".into(),
                                        range: Some((x, y)),
                                        s,
                                    })
                                    .expect("query succeeds"),
                            );
                            assert_eq!(ids.len(), s as usize);
                            for id in ids {
                                hist[id as usize - a] += 1;
                            }
                        }
                        hist
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panics")).collect()
        });

        let mut merged = vec![0u64; b - a];
        for hist in &histograms {
            for (m, &h) in merged.iter_mut().zip(hist) {
                *m += h;
            }
        }
        let gof = chi_square_gof(&merged, &weight_probs(&weights[a..b]));

        let metrics = server.shutdown();
        assert_eq!(metrics.completed, (clients * calls) as u64);
        assert_eq!(metrics.failed + metrics.rejected_overload + metrics.deadline_missed, 0);
        assert!(metrics.latency.count() == metrics.completed);
        vec![Trial::from_gof("service aggregate", &gof)]
    });
}

/// Readers keep sampling (and never fail) while another client streams
/// updates through snapshot publication — the zero-blocked-readers
/// property of the mixed workload. Progress is condition-based (fixed
/// work per thread), so the test needs no timing at all.
#[test]
fn mixed_reads_and_updates_never_fail_readers() {
    let mut registry = IndexRegistry::new();
    let initial: Vec<(u64, f64, f64)> = (0..512).map(|i| (i, i as f64, 1.0)).collect();
    registry.register_range_dynamic("cat", initial).unwrap();
    let server = Server::start(
        registry,
        ServerConfig { workers: 3, queue_capacity: 512, seed: 23, ..ServerConfig::default() },
    );
    let swaps_before = server.metrics().snapshot_swaps;

    let rounds = 60usize;
    let reads = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Writer: upsert a moving block of ids with fresh weights, and
        // delete a trailing block, through the service.
        let writer = server.client();
        scope.spawn(move || {
            for r in 0..rounds as u64 {
                let ops: Vec<UpdateOp> = (0..8)
                    .map(|j| UpdateOp::Upsert {
                        id: 1000 + (r * 8 + j) % 64,
                        key: 100.0 + ((r * 8 + j) % 64) as f64,
                        weight: 1.0 + (r % 5) as f64,
                    })
                    .chain((0..2).map(|j| UpdateOp::Remove { id: (r * 2 + j) % 256 }))
                    .collect();
                writer.call(Request::Update { index: "cat".into(), ops }).expect("updates succeed");
            }
        });
        for _ in 0..2 {
            let client = server.client();
            let reads = &reads;
            scope.spawn(move || {
                for _ in 0..400 {
                    let ids = sample_ids(
                        client
                            .call(Request::SampleWr { index: "cat".into(), range: None, s: 8 })
                            .expect("reads must never fail during republication"),
                    );
                    for id in ids {
                        // Ids only ever come from the known populations.
                        assert!(id < 512 || (1000..1064).contains(&id), "foreign id {id}");
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let metrics = server.shutdown();
    assert_eq!(reads.load(Ordering::Relaxed), 800);
    assert_eq!(metrics.failed, 0);
    // One snapshot publication per update round.
    assert_eq!(metrics.snapshot_swaps - swaps_before, rounds as u64);
    assert!(metrics.updates_applied > 0);
}

/// A saturated queue refuses excess work promptly instead of queueing it.
#[test]
fn admission_control_rejects_when_queue_is_full() {
    let vc = VirtualClock::new();
    let clock = vc.handle();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", weighted_pairs(1 << 14)).unwrap();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            seed: 5,
            clock: clock.clone(),
            ..ServerConfig::default()
        },
    );
    let client = server.client();

    // Each request is ~hundreds of microseconds of sampling work; a burst
    // of 50 against a 1-worker, 2-slot service must overflow.
    let mut rejected = 0u64;
    for _ in 0..50 {
        match client.call_pending_ctx(
            Request::SampleWr { index: "keys".into(), range: None, s: 100_000 },
            clock.now(),
            None,
            Ctx::none(),
        ) {
            Ok(_) => {}
            Err(ServeError::Overloaded) => rejected += 1,
            Err(other) => panic!("unexpected admission error {other}"),
        }
    }
    assert!(rejected > 0, "burst never overflowed the bounded queue");

    let metrics = server.shutdown();
    assert_eq!(metrics.rejected_overload, rejected);
    // Conservation: every submission is accounted exactly once.
    assert_eq!(
        metrics.submitted,
        metrics.completed + metrics.failed + metrics.rejected_overload + metrics.deadline_missed
    );
    assert_eq!(metrics.queue_depth, 0);
}

/// Deadline enforcement at pickup, on a frozen virtual clock: a request
/// whose deadline equals the submission instant has deterministically
/// expired by pickup (time cannot pass between them — the clock only
/// moves when the test says so), while a deadline any distance in the
/// virtual future deterministically survives.
#[test]
fn expired_deadlines_are_enforced_at_pickup() {
    let vc = VirtualClock::new();
    let clock = vc.handle();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", weighted_pairs(1024)).unwrap();
    let server = Server::start(
        registry,
        ServerConfig { workers: 1, seed: 7, clock: clock.clone(), ..ServerConfig::default() },
    );
    let client = server.client();

    let request = Request::SampleWr { index: "keys".into(), range: None, s: 1 };

    // Deadline == now on a frozen clock: expired at pickup, every time.
    let origin = clock.now();
    let err = client.call_ctx(request.clone(), origin, Some(origin), Ctx::none()).unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);

    // One millisecond of *virtual* headroom: the clock is frozen, so the
    // worker always observes pickup strictly before the deadline, no
    // matter how slowly the real machine schedules it.
    let origin = clock.now();
    let ids = sample_ids(
        client
            .call_ctx(request.clone(), origin, Some(origin + Duration::from_millis(1)), Ctx::none())
            .expect("a future virtual deadline never spuriously expires"),
    );
    assert_eq!(ids.len(), 1);

    // Advancing the clock past an in-queue request's deadline expires it.
    let origin = clock.now();
    let deadline = origin + Duration::from_secs(10);
    vc.advance(Duration::from_secs(11));
    let err = client.call_ctx(request, origin, Some(deadline), Ctx::none()).unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);

    let metrics = server.shutdown();
    assert_eq!(metrics.deadline_missed, 2);
    assert_eq!(metrics.completed, 1);
}

/// Shutdown stops admissions but drains and answers everything already
/// accepted.
#[test]
fn shutdown_drains_accepted_work() {
    let vc = VirtualClock::new();
    let clock = vc.handle();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", weighted_pairs(1024)).unwrap();
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 2,
            queue_capacity: 512,
            seed: 9,
            clock: clock.clone(),
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let mut accepted = 0u64;
    for _ in 0..200 {
        if client
            .call_pending_ctx(
                Request::SampleWr { index: "keys".into(), range: None, s: 64 },
                clock.now(),
                None,
                Ctx::none(),
            )
            .is_ok()
        {
            accepted += 1;
        }
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.completed + metrics.failed, accepted, "accepted work must be drained");
    assert_eq!(metrics.queue_depth, 0);

    // The moved-out server is gone; its clients observe shutdown.
    let err = client.call(Request::RangeCount { index: "keys".into(), x: 0.0, y: 1.0 });
    assert_eq!(err.unwrap_err(), ServeError::ShuttingDown);
}

/// Without-replacement queries return distinct ids and surface the
/// structure's `SampleTooLarge` as a typed service error.
#[test]
fn wor_through_the_service() {
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", weighted_pairs(256)).unwrap();
    let server = Server::start(registry, ServerConfig { workers: 2, ..ServerConfig::default() });
    let client = server.client();

    let ids = sample_ids(
        client
            .call(Request::SampleWor { index: "keys".into(), range: Some((10.0, 100.0)), s: 40 })
            .unwrap(),
    );
    assert_eq!(ids.len(), 40);
    assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 40, "WoR ids must be distinct");
    assert!(ids.iter().all(|&id| (10..=100).contains(&id)));

    let err = client
        .call(Request::SampleWor { index: "keys".into(), range: Some((10.0, 12.0)), s: 40 })
        .unwrap_err();
    assert!(matches!(err, ServeError::Query(iqs_core::QueryError::SampleTooLarge { .. })));
    server.shutdown();
}

/// Typed error paths: unknown indexes, request kinds an index cannot
/// serve, oversized requests, empty ranges.
#[test]
fn typed_error_paths() {
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", weighted_pairs(16)).unwrap();
    registry.register_external("gated", GatedIndex::new(true) as _).unwrap();
    let server = Server::start(
        registry,
        ServerConfig { workers: 1, max_sample_size: 1024, ..ServerConfig::default() },
    );
    let client = server.client();
    let keys = |range, s| Request::SampleWr { index: "keys".into(), range, s };

    let e = client.call(Request::SampleWr { index: "ghost".into(), range: None, s: 1 });
    assert!(matches!(e.unwrap_err(), ServeError::UnknownIndex(_)));

    let e = client.call(Request::SampleWor { index: "gated".into(), range: None, s: 1 });
    assert!(matches!(e.unwrap_err(), ServeError::Unsupported(_)));

    let e = client.call(Request::Update { index: "keys".into(), ops: Vec::new() });
    assert!(matches!(e.unwrap_err(), ServeError::Unsupported(_)));

    let e = client.call(keys(None, 100_000));
    assert!(matches!(e.unwrap_err(), ServeError::InvalidRequest(_)));

    let e = client.call(keys(Some((100.0, 200.0)), 1));
    assert_eq!(e.unwrap_err(), ServeError::Query(iqs_core::QueryError::EmptyRange));

    // Sampling itself works and maps ids correctly.
    let ids = sample_ids(client.call(keys(Some((3.0, 5.0)), 32)).unwrap());
    assert!(ids.iter().all(|id| (3..=5).contains(id)));
    server.shutdown();
}

/// A NaN bound holds no key, on every kind of range index: draws answer
/// `EmptyRange` and counts and weights 0 — what a tiered index answers
/// for the same request.
#[test]
fn a_nan_bound_is_an_empty_range() {
    let mut registry = IndexRegistry::new();
    let triples: Vec<(u64, f64, f64)> = (0..100).map(|i| (i, i as f64, 1.0)).collect();
    registry.register_range_static("static", weighted_pairs(100)).unwrap();
    registry.register_range_keyed("keyed", triples.clone()).unwrap();
    registry.register_range_dynamic("dynamic", triples).unwrap();
    let server = Server::start(registry, ServerConfig { workers: 1, ..ServerConfig::default() });
    let client = server.client();
    let empty = ServeError::Query(iqs_core::QueryError::EmptyRange);
    for index in ["static", "keyed", "dynamic"] {
        for (x, y) in [(f64::NAN, 50.0), (50.0, f64::NAN), (f64::NAN, f64::NAN)] {
            let what = format!("{index} [{x}, {y}]");
            let draw = Request::SampleWr { index: index.into(), range: Some((x, y)), s: 8 };
            assert_eq!(client.call(draw), Err(empty.clone()), "{what}");
            let count = Request::RangeCount { index: index.into(), x, y };
            assert!(matches!(client.call(count), Ok(Response::Count(0))), "{what}");
            let weight = Request::RangeWeight { index: index.into(), x, y };
            assert!(matches!(client.call(weight), Ok(Response::Weight(w)) if w == 0.0), "{what}");
        }
    }
    server.shutdown();
}

/// Weights whose sum overflows `f64` are a typed error everywhere: the
/// constructors refuse them, and an `Update` that would carry an index's
/// total past `f64::MAX` stops at that op, with the ops before it
/// published, and leaves the index's writer standing — the next update
/// goes through.
#[test]
fn a_total_that_overflows_is_a_typed_error_not_a_dead_index() {
    use iqs_core::{AliasAugmentedRange, ChunkedRange, TreeSamplingRange};
    let huge = vec![(0.0, 1e308), (1.0, 1e308)];
    assert!(ChunkedRange::new(huge.clone()).is_err());
    assert!(AliasAugmentedRange::new(huge.clone()).is_err());
    assert!(TreeSamplingRange::new(huge).is_err());

    let mut registry = IndexRegistry::new();
    registry.register_range_dynamic("d", (0..64).map(|i| (i, i as f64, 1.0)).collect()).unwrap();
    let server = Server::start(registry, ServerConfig { workers: 1, ..ServerConfig::default() });
    let client = server.client();
    let update = |ops| client.call(Request::Update { index: "d".into(), ops });
    let up = |id: u64, weight| UpdateOp::Upsert { id, key: id as f64, weight };
    let total = || client.call(Request::TotalWeight { index: "d".into() }).unwrap();

    let e = update(vec![up(1, 1e308), up(2, 1e308), up(3, 5.0)]).unwrap_err();
    assert_eq!(e, ServeError::Weight(iqs_alias::WeightError::TotalOverflow));
    assert_eq!(total(), Response::Weight(1e308 + 62.0), "the op before the bad one is published");
    assert_eq!(
        update(vec![up(1, 2.0), up(3, 5.0)]).unwrap(),
        Response::Updated { applied: 2, version: 3 }
    );
    assert_eq!(total(), Response::Weight(69.0));
    server.shutdown();
}

/// An [`ExternalIndex`] whose draws the test can watch and hold: every
/// `sample_wr` records the thread it runs on and its `s` (the tests'
/// request tag), waits until the gate is open, and answers `s` zeros.
/// `s ==` [`GatedIndex::PANIC_S`] panics instead, like a buggy index.
#[derive(Debug)]
struct GatedIndex {
    open: Mutex<bool>,
    opened: Condvar,
    /// Draws inside `sample_wr` right now, and the most there ever were.
    active: AtomicUsize,
    max_active: AtomicUsize,
    /// `(s, name of the thread that ran it)` per draw, in entry order.
    entries: Mutex<Vec<(usize, Option<String>)>>,
    /// Draws that have returned.
    exited: AtomicUsize,
}

impl GatedIndex {
    const PANIC_S: usize = 13;

    fn new(open: bool) -> Arc<GatedIndex> {
        Arc::new(GatedIndex {
            open: Mutex::new(open),
            opened: Condvar::new(),
            active: AtomicUsize::new(0),
            max_active: AtomicUsize::new(0),
            entries: Mutex::new(Vec::new()),
            exited: AtomicUsize::new(0),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn entries(&self) -> Vec<(usize, Option<String>)> {
        self.entries.lock().unwrap().clone()
    }

    /// A server whose registry holds this index under the name "gated".
    fn serve(self: &Arc<Self>, config: ServerConfig) -> Server {
        let mut registry = IndexRegistry::new();
        registry.register_external("gated", Arc::clone(self) as _).unwrap();
        Server::start(registry, config)
    }
}

impl ExternalIndex for GatedIndex {
    fn sample_wr(
        &self,
        _range: Option<(f64, f64)>,
        s: usize,
        _rng: &mut dyn rand::RngCore,
        _ctx: iqs_obs::Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError> {
        assert_ne!(s, GatedIndex::PANIC_S, "index bug (this panic is the test's)");
        let name = std::thread::current().name().map(str::to_string);
        self.entries.lock().unwrap().push((s, name));
        let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_active.fetch_max(active, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.exited.fetch_add(1, Ordering::SeqCst);
        Ok((vec![0; s], IoReport::default()))
    }

    fn range_count(&self, _x: f64, _y: f64) -> Result<usize, ServeError> {
        Ok(0)
    }

    fn range_weight(&self, _x: f64, _y: f64) -> Result<f64, ServeError> {
        Ok(1.0)
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        Ok(1.0)
    }
}

fn gated(s: u32) -> Request {
    Request::SampleWr { index: "gated".into(), range: None, s }
}

/// Condition-based waiting: yields until `done()` holds.
fn until(done: impl Fn() -> bool) {
    while !done() {
        std::thread::yield_now();
    }
}

fn ran_on_a_worker(name: &Option<String>) -> bool {
    name.as_deref().is_some_and(|n| n.starts_with("iqs-serve-"))
}

/// The cap: `workers` bounds the draws in flight however many blocking
/// callers there are. Eight callers on a two-seat service, every draw
/// held inside the index until all eight are admitted: two are inside,
/// six wait in the queue, and never more than two were inside at once.
#[test]
fn seats_cap_concurrent_draws_at_workers() {
    let index = GatedIndex::new(false);
    let server = index.serve(ServerConfig { workers: 2, ..ServerConfig::default() });
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let client = server.client();
            scope.spawn(move || sample_ids(client.call(gated(1)).expect("draw succeeds")));
        }
        until(|| {
            let m = server.metrics();
            m.submitted == 8 && m.queue_depth == 6 && index.active.load(Ordering::SeqCst) == 2
        });
        index.open();
    });
    assert_eq!(index.max_active.load(Ordering::SeqCst), 2, "two seats, two draws at a time");
    let m = server.shutdown();
    assert_eq!((m.completed, m.failed, m.queue_depth), (8, 0, 0));
}

/// No overtaking: while a blocking caller runs on the only seat, jobs
/// queue up behind it — and a blocking `call` that arrives after them
/// queues too, instead of taking the seat when it comes free. The
/// backlog then drains in EDF order (deadlines first, earliest first;
/// deadline-less jobs FIFO), exactly as it does without seats.
#[test]
fn a_queued_job_is_never_overtaken_by_a_later_blocking_call() {
    let vc = VirtualClock::new();
    let clock = vc.handle();
    let index = GatedIndex::new(false);
    let server =
        index.serve(ServerConfig { workers: 1, clock: clock.clone(), ..ServerConfig::default() });
    let client = server.client();
    let now = clock.now();
    std::thread::scope(|scope| {
        // s = 1 takes the seat on its caller's thread and parks.
        let first = server.client();
        scope.spawn(move || first.call(gated(1)).expect("held draw succeeds"));
        until(|| index.active.load(Ordering::SeqCst) == 1);
        let queue = |s, deadline| client.call_pending_ctx(gated(s), now, deadline, Ctx::none());
        let queued = [
            queue(2, None).expect("admitted"),
            queue(3, Some(now + Duration::from_secs(30))).expect("late"),
            queue(4, Some(now + Duration::from_secs(1))).expect("early"),
        ];
        // s = 5 arrives last, through a blocking door.
        let last = server.client();
        scope.spawn(move || last.call(gated(5)).expect("late caller succeeds"));
        until(|| server.metrics().queue_depth == 4);
        index.open();
        for pending in queued {
            pending.wait().expect("queued draw succeeds");
        }
    });
    let entries = index.entries();
    let order: Vec<usize> = entries.iter().map(|(s, _)| *s).collect();
    assert_eq!(order, vec![1, 4, 3, 2, 5], "seat holder, then EDF, then FIFO");
    assert!(!ran_on_a_worker(&entries[0].1), "the idle service answered on the caller's thread");
    assert!(entries[1..].iter().all(|(_, name)| ran_on_a_worker(name)), "{entries:?}");
    server.shutdown();
}

/// `answer` is the blocking door with the wait left to the caller, for
/// one leg of a sharded scatter: on an idle service it runs the leg in
/// the call, its ids in the caller's buffer, and with the only seat taken
/// it queues the leg and returns at once — which is what lets a router
/// whose replicas are busy queue every leg of a scatter before it waits
/// for the first.
#[test]
fn a_leg_is_answered_when_idle_and_never_waits_when_busy() {
    let index = GatedIndex::new(false);
    let server = index.serve(ServerConfig { workers: 1, ..ServerConfig::default() });
    let client = server.client();
    let now = iqs_testkit::ClockHandle::real().now();
    let at = Admission { origin: now, admitted: now, deadline: None, ctx: Ctx::none() };
    let leg = |s| LegAsk::SampleWr { x: f64::NEG_INFINITY, y: f64::INFINITY, s };
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let holder = server.client();
        scope.spawn(move || holder.call(gated(1)).expect("held draw succeeds"));
        until(|| index.active.load(Ordering::SeqCst) == 1);
        // The gate is shut, so this line is only reached again because
        // the door did not wait for the seat.
        let pending = client.answer("gated", leg(2), at, &mut out).expect("room");
        assert_eq!(server.metrics().queue_depth, 1, "the only seat is taken: the leg queued");
        index.open();
        assert_eq!(sample_ids(pending.wait().expect("queued draw succeeds")).len(), 2);
    });
    assert!(out.is_empty(), "a queued leg's ids come in its reply");
    // Both seat holders put the seat back before their answer went out.
    let outcome = client.answer("gated", leg(3), at, &mut out).expect("idle").wait();
    let in_reply = sample_ids(outcome.expect("draw succeeds")).len();
    assert_eq!((in_reply, out.len()), (0, 3), "an idle service answers inside the call");
    let entries = index.entries();
    assert!(ran_on_a_worker(&entries[1].1) && !ran_on_a_worker(&entries[2].1), "{entries:?}");
    let m = server.shutdown();
    assert_eq!((m.submitted, m.completed, m.queue_depth), (3, 3, 0));
}

/// A request run on the caller's thread goes through the same admission
/// and the same pickup check as a queued one: a deadline equal to the
/// pickup instant misses on the frozen clock and never reaches the index.
#[test]
fn inline_requests_keep_deadline_enforcement() {
    let vc = VirtualClock::new();
    let clock = vc.handle();
    let index = GatedIndex::new(true);
    let server =
        index.serve(ServerConfig { workers: 1, clock: clock.clone(), ..ServerConfig::default() });
    let client = server.client();
    let now = clock.now();
    for _ in 0..2 {
        let missed = client.call_ctx(gated(1), now, Some(now), Ctx::none());
        assert_eq!(missed, Err(ServeError::DeadlineExceeded));
    }
    assert_eq!(sample_ids(client.call(gated(2)).expect("no deadline")).len(), 2);
    let entries = index.entries();
    assert_eq!(entries.len(), 1, "only the unexpired request drew: {entries:?}");
    assert!(!ran_on_a_worker(&entries[0].1));
    let m = server.shutdown();
    assert_eq!((m.submitted, m.completed, m.deadline_missed, m.failed), (3, 1, 2, 0));
    assert_eq!(client.call(gated(1)), Err(ServeError::ShuttingDown));
}

/// A request queued through `call_pending_ctx` whose handle is dropped
/// still runs: a worker picks it up and it counts as `completed`, its
/// seat comes home for the next queued request, and `shutdown` drains one
/// that is still queued when it begins — what an open-loop load generator
/// relies on when it submits and walks away.
#[test]
fn a_dropped_pending_reply_still_runs_counts_and_frees_its_seat() {
    let vc = VirtualClock::new();
    let now = vc.handle().now();
    let index = GatedIndex::new(false);
    let server =
        index.serve(ServerConfig { workers: 1, clock: vc.handle(), ..ServerConfig::default() });
    let client = server.client();
    let submit = |s| client.call_pending_ctx(gated(s), now, None, Ctx::none()).map(drop);
    // The first parks on the worker at the shut gate; the second queues
    // behind it and can only run on the seat the first gives back.
    submit(1).expect("admitted");
    until(|| index.active.load(Ordering::SeqCst) == 1);
    submit(2).expect("admitted");
    assert_eq!(server.metrics().queue_depth, 1);
    let (m, accepted) = std::thread::scope(|scope| {
        let stopper = scope.spawn(move || server.shutdown());
        // Open the gate only once shutdown has begun (it refuses a
        // submission), so whatever is queued then is the drain's to run.
        let mut accepted = 2;
        while submit(3).is_ok() {
            accepted += 1;
            std::thread::yield_now();
        }
        index.open();
        // `shutdown` returns only once every seat is home.
        (stopper.join().expect("shutdown returns"), accepted)
    });
    assert_eq!((m.completed, m.failed, m.queue_depth), (accepted, 0, 0));
    assert_eq!(m.submitted, accepted + 1, "every submission but the refusal ran");
    let entries = index.entries();
    assert_eq!(entries.len() as u64, accepted);
    assert!(entries.iter().all(|(_, name)| ran_on_a_worker(name)), "{entries:?}");
}

/// Drain-on-shutdown covers a caller that is running its own request:
/// `shutdown` returns only once that request has finished and its seat
/// is home, so the final counters account for it.
#[test]
fn shutdown_waits_for_an_in_flight_inline_call() {
    let vc = VirtualClock::new();
    let now = vc.handle().now();
    let index = GatedIndex::new(false);
    let server =
        index.serve(ServerConfig { workers: 1, clock: vc.handle(), ..ServerConfig::default() });
    let client = server.client();
    let begun = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let caller = server.client();
        scope.spawn(move || caller.call(gated(1)).expect("the in-flight call completes"));
        until(|| index.active.load(Ordering::SeqCst) == 1);
        let (begun, index) = (&begun, &index);
        let stopper = scope.spawn(move || {
            begun.store(true, Ordering::SeqCst);
            let m = server.shutdown();
            (m, index.exited.load(Ordering::SeqCst))
        });
        // Open the gate only once shutdown has demonstrably begun (it
        // refuses a submission), so a shutdown that did not wait for the
        // seat would already have returned without the call's outcome.
        until(|| begun.load(Ordering::SeqCst));
        let probe = Request::RangeCount { index: "gated".into(), x: 0.0, y: 1.0 };
        let mut accepted = 0;
        while client.call_pending_ctx(probe.clone(), now, None, Ctx::none()).is_ok() {
            accepted += 1;
            std::thread::yield_now();
        }
        index.open();
        let (m, exited) = stopper.join().expect("shutdown returns");
        assert_eq!(exited, 1, "shutdown returned before the inline call finished");
        // Every submission but the one refusal was answered.
        assert_eq!(m.completed, 1 + accepted);
        assert_eq!(m.submitted, m.completed + 1);
        assert_eq!((m.failed, m.queue_depth), (0, 0));
    });
}

/// The seed schedule is a property of the seats, not of who sits on
/// them: two same-seeded one-seat servers, one driven through the
/// blocking door (answered on the caller's thread) and one through the
/// queue-only door (answered on the worker's), return identical ids
/// request for request.
#[test]
fn inline_and_queued_requests_share_one_seed_schedule() {
    let start = || {
        let mut registry = IndexRegistry::new();
        registry.register_range_static("keys", weighted_pairs(4096)).unwrap();
        Server::start(
            registry,
            ServerConfig { workers: 1, seed: 0x5ea7, ..ServerConfig::default() },
        )
    };
    let (inline, queued) = (start(), start());
    let (a, b) = (inline.client(), queued.client());
    let vc = VirtualClock::new();
    for s in [1u32, 64, 7, 4096, 300, 1] {
        let request = Request::SampleWr { index: "keys".into(), range: Some((100.0, 3900.0)), s };
        let here = sample_ids(a.call(request.clone()).expect("inline"));
        let pending =
            b.call_pending_ctx(request, vc.handle().now(), None, Ctx::none()).expect("admitted");
        assert_eq!(here, sample_ids(pending.wait().expect("queued")), "s = {s}");
    }
    assert_eq!(inline.shutdown().completed, queued.shutdown().completed);
}

/// A seat keeps its last range query plan; it must never draw through it
/// on a view it was not made for. One seat asks one range again and
/// again — of a dynamic index and of a static one in turn, and across
/// `Update`s of the dynamic one: re-weight patches (from the second on,
/// written into the recycled spare view) and a structural insert. Every
/// read must be what a fresh plan draws on the view published at the
/// time, from the seat's RNG state, which the test replays beside it
/// (seat 0 of a server seeded `t` draws from `t ^ GOLDEN`).
#[test]
fn a_seats_plan_never_outlives_its_view() {
    use iqs_core::{QueryPlan, Tiles};
    use iqs_serve::IndexView;
    use rand::{rngs::StdRng, SeedableRng};
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    let (n, seed, range) = (4096u64, 0x91a2, (1000.0, 3000.0));
    let mut registry = IndexRegistry::new();
    let triples = |w: fn(u64) -> f64| (0..n).map(|i| (i, i as f64, w(i))).collect::<Vec<_>>();
    registry.register_range_dynamic("d", triples(|i| 1.0 + (i % 10) as f64)).unwrap();
    registry.register_range_keyed("k", triples(|i| 1.0 + (i % 7) as f64)).unwrap();
    let server =
        Server::start(registry, ServerConfig { workers: 1, seed, ..ServerConfig::default() });
    let client = server.client();
    let mut seat = StdRng::seed_from_u64(seed ^ GOLDEN);
    let mut read = |index: &str| {
        let view = server.registry().view(index).expect("registered");
        let IndexView::Range(rv) = &*view else { panic!("a range view") };
        let (mut fresh, mut tiles, mut want) = (QueryPlan::default(), Tiles::default(), Vec::new());
        rv.sample_ids_into(range.0, range.1, 64, &mut seat, &mut fresh, &mut tiles, &mut want)
            .expect("a non-empty range");
        let request = Request::SampleWr { index: index.into(), range: Some(range), s: 64 };
        assert_eq!(sample_ids(client.call(request).expect("a read")), want, "{index}");
    };
    let upsert = |id: u64, key: f64| UpdateOp::Upsert { id, key, weight: 1e3 };
    for round in 0..6u64 {
        for index in ["d", "d", "d", "k", "d", "k", "k", "d"] {
            read(index);
        }
        // Rounds 0–2 and 4–5 re-weight 16 elements inside the range a
        // hundredfold or more; round 3 inserts one there, moving the
        // ranks of every key above it.
        let ops: Vec<UpdateOp> = match round {
            3 => vec![upsert(n, 1500.5)],
            _ => (0..16).map(|i| 1100 + 100 * i + round).map(|id| upsert(id, id as f64)).collect(),
        };
        let update = Request::Update { index: "d".into(), ops };
        assert!(matches!(client.call(update), Ok(Response::Updated { .. })), "round {round}");
    }
    read("d");
}

/// A panic inside an index is contained where requests run: the request
/// answers the typed [`ServeError::Panicked`] through every door —
/// caller's thread (`call`), worker's thread (`call_pending_ctx`), and the
/// door connection threads use (`call_ctx`) — it counts as `failed`, and
/// the service's only seat
/// survives to serve the next request.
#[test]
fn a_panicking_index_answers_a_typed_error_and_the_seat_survives() {
    let vc = VirtualClock::new();
    let now = vc.handle().now();
    let index = GatedIndex::new(true);
    let server =
        index.serve(ServerConfig { workers: 1, clock: vc.handle(), ..ServerConfig::default() });
    let client = server.client();
    let bug = || gated(GatedIndex::PANIC_S as u32);

    assert_eq!(client.call(bug()), Err(ServeError::Panicked));
    assert_eq!(sample_ids(client.call(gated(2)).expect("next request, same seat")).len(), 2);

    let pending = client.call_pending_ctx(bug(), now, None, Ctx::none()).expect("admitted");
    assert_eq!(pending.wait(), Err(ServeError::Panicked));
    let pending = client.call_pending_ctx(gated(3), now, None, Ctx::none()).expect("survived");
    assert_eq!(sample_ids(pending.wait().expect("next request, same worker")).len(), 3);

    assert_eq!(client.call_ctx(bug(), now, None, Ctx::none()), Err(ServeError::Panicked));
    assert_eq!(sample_ids(client.call(gated(4)).expect("and again")).len(), 4);

    let m = server.shutdown();
    assert_eq!((m.submitted, m.completed, m.failed), (6, 3, 3));
}

/// The trace of a request answered on the caller's thread has the shape
/// it had through the queue — `Enqueue → Pickup → RngCost → WorkDone →
/// QueryDone` — with a pickup wait of exactly zero, because the caller
/// picks the job up at the instant it admits it. (The only test in this
/// binary that installs the process-global recorder; every other test
/// here submits untraced, which leaves no records.)
#[test]
fn an_inline_request_leaves_the_same_trace_shape() {
    let vc = VirtualClock::new();
    recorder::install(&vc.handle(), 1024);
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", weighted_pairs(512)).unwrap();
    let server = Server::start(
        registry,
        ServerConfig { workers: 1, clock: vc.handle(), ..ServerConfig::default() },
    );
    let (trace, result) = server.client().call_traced(Request::SampleWr {
        index: "keys".into(),
        range: Some((10.0, 500.0)),
        s: 64,
    });
    assert_eq!(sample_ids(result.expect("query succeeds")).len(), 64);
    server.shutdown();
    recorder::disable();
    let records: Vec<_> = recorder::drain().into_iter().filter(|r| r.trace == trace).collect();
    let phases: Vec<Phase> = records.iter().map(|r| r.phase).collect();
    assert_eq!(
        phases,
        [Phase::Enqueue, Phase::Pickup, Phase::RngCost, Phase::WorkDone, Phase::QueryDone]
    );
    assert_eq!(records[1].a, 0, "picked up at the instant it was admitted");
    assert_eq!(records[2].a, 3 * 64, "three RNG words per draw, drawn on the caller's thread");
}

/// A seat keeps the view it read last and reads it again without the
/// snapshot lock, but never past a publication: on the only seat, a read
/// admitted after an `Update` returned draws from the update's view.
#[test]
fn a_read_after_an_update_returns_sees_it_on_the_same_seat() {
    let mut registry = IndexRegistry::new();
    registry.register_range_dynamic("d", (0..64).map(|i| (i, i as f64, 1.0)).collect()).unwrap();
    let server = Server::start(registry, ServerConfig { workers: 1, ..ServerConfig::default() });
    let client = server.client();
    let read = || {
        let request = Request::SampleWr { index: "d".into(), range: None, s: 256 };
        sample_ids(client.call(request).expect("a read"))
    };
    let update = |ops: Vec<UpdateOp>| {
        let updated = client.call(Request::Update { index: "d".into(), ops });
        assert!(matches!(updated, Ok(Response::Updated { .. })), "{updated:?}");
    };
    assert!(read().iter().all(|&id| id < 64));
    // Everything but id 7 leaves: the next read can draw nothing else.
    update((0..64).filter(|&id| id != 7).map(|id| UpdateOp::Remove { id }).collect());
    assert_eq!(read(), [7; 256]);
    // A re-weight patch, then a swap of the one element for another.
    update(vec![UpdateOp::Upsert { id: 7, key: 7.0, weight: 3.0 }]);
    assert_eq!(read(), [7; 256]);
    update(vec![UpdateOp::Upsert { id: 100, key: 0.5, weight: 1.0 }, UpdateOp::Remove { id: 7 }]);
    assert_eq!(read(), [100; 256]);
    assert_eq!(server.shutdown().failed, 0);
}

/// A seat's pin of a view must not outlive the requests that read it:
/// the view a publication supersedes is the one the next patch is
/// written into, and only if nobody holds it. Four seats each read
/// version 1 last — three of them freed one by one from gated reads, so
/// the next blocking read lands on each — and two re-weights then
/// publish versions 2 and 3. Version 3's weights are written into
/// version 1's array, which `Arc::into_inner` hands the writer only if
/// the idle seats let version 1 go when version 2 was published.
#[test]
fn idle_seats_let_a_superseded_view_go_to_the_next_patch() {
    use iqs_core::RangeSampler;
    use iqs_serve::IndexView;
    let vc = VirtualClock::new();
    let now = vc.handle().now();
    let gates: Vec<Arc<GatedIndex>> = (0..3).map(|_| GatedIndex::new(false)).collect();
    let mut registry = IndexRegistry::new();
    registry.register_range_dynamic("d", (0..4096).map(|i| (i, i as f64, 1.0)).collect()).unwrap();
    for (g, gate) in gates.iter().enumerate() {
        registry.register_external(&format!("g{g}"), Arc::clone(gate) as _).unwrap();
    }
    let config = ServerConfig { workers: 4, clock: vc.handle(), ..ServerConfig::default() };
    let server = Server::start(registry, config);
    let client = server.client();
    let read_d = || {
        let request = Request::SampleWr { index: "d".into(), range: None, s: 8 };
        sample_ids(client.call(request).expect("a read"));
    };
    let held: Vec<_> = (0..3)
        .map(|g| {
            let request = Request::SampleWr { index: format!("g{g}"), range: None, s: 1 };
            client.call_pending_ctx(request, now, None, Ctx::none()).expect("admitted")
        })
        .collect();
    until(|| gates.iter().all(|gate| gate.active.load(Ordering::SeqCst) == 1));
    read_d(); // on the one seat left
    for (gate, pending) in gates.iter().zip(held) {
        gate.open();
        // A worker puts its seat back before it replies, and the last
        // seat home is the first one out.
        sample_ids(pending.wait().expect("a gated read"));
        read_d();
    }
    let weights_at = || {
        let view = server.registry().view("d").expect("registered");
        let IndexView::Range(rv) = &*view else { panic!("a range view") };
        rv.sampler.as_ref().expect("non-empty").weights().as_ptr() as usize
    };
    let reweight = |weight| {
        let ops = vec![UpdateOp::Upsert { id: 5, key: 5.0, weight }];
        let updated = client.call(Request::Update { index: "d".into(), ops });
        assert!(matches!(updated, Ok(Response::Updated { .. })), "{updated:?}");
    };
    let first = weights_at();
    reweight(2.0);
    assert_ne!(weights_at(), first, "the first patch writes into a copy");
    reweight(3.0);
    assert_eq!(weights_at(), first, "version 1 was still pinned when version 3 was patched");
    server.shutdown();
}
