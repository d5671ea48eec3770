//! Deadlines through the full service path: the miss at pickup and the
//! earliest-deadline-first order a backlog drains in.
//!
//! Time never comes from the wall clock: every test runs on an
//! `iqs_testkit` virtual clock, so deadline misses are deterministic
//! facts of the scripted timeline. The EDF pickup-order test also wedges
//! the single worker behind a backlog of expensive jobs so the probe
//! batch is heap-resident before any probe is picked — making the drain
//! order a pure function of the EDF comparator, verified against a
//! sequential oracle server that shares the worker's RNG stream.

use std::time::Duration;

use iqs_obs::Ctx;
use iqs_serve::{IndexRegistry, Request, Response, ServeError, Server, ServerConfig};
use iqs_testkit::VirtualClock;

fn registry(n: usize) -> IndexRegistry {
    let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 5) as f64)).collect();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", pairs).expect("register");
    registry
}

fn sample(s: u32) -> Request {
    Request::SampleWr { index: "keys".into(), range: None, s }
}

fn ids(resp: Result<Response, ServeError>) -> Vec<u64> {
    match resp.expect("query succeeds") {
        Response::Samples(ids) => ids,
        other => panic!("expected samples, got {other:?}"),
    }
}

/// On a frozen virtual clock, a deadline equal to the submission instant
/// has expired by pickup time (`picked >= deadline`), every time — no
/// race, no sleep. A deadline one tick in the future never expires until
/// someone advances the clock.
#[test]
fn frozen_clock_deadline_at_pickup_misses_deterministically() {
    let vc = VirtualClock::new();
    let server = Server::start(
        registry(64),
        ServerConfig { workers: 1, seed: 7, clock: vc.handle(), ..ServerConfig::default() },
    );
    let client = server.client();
    let now = vc.handle().now();

    for _ in 0..3 {
        let got = client.call_ctx(sample(4), now, Some(now), Ctx::none());
        assert_eq!(got, Err(ServeError::DeadlineExceeded), "deadline == pickup instant must miss");
    }
    // The tightest *future* deadline on a frozen clock never expires.
    let got = client.call_ctx(sample(4), now, Some(now + Duration::from_nanos(1)), Ctx::none());
    assert_eq!(ids(got).len(), 4);

    let m = server.shutdown();
    assert_eq!(m.deadline_missed, 3);
    assert_eq!(m.completed, 1);
    assert_eq!(m.failed, 0, "deadline misses are counted apart from dispatch failures");
}

/// EDF pickup through the live service: with the single worker wedged
/// behind a backlog of expensive jobs, a batch of probes pushed in
/// scrambled order drains strictly by `(deadline, admission seq)` —
/// earliest deadline first, ties FIFO, deadline-less entries last. The
/// drain order is observed through the worker's RNG stream: a sequential
/// oracle server with the same seed serves the same requests in EDF
/// order, and each probe's sample set must land at its EDF rank in that
/// stream. The tight-deadline probe is pushed *last* and must still be
/// served *first* — non-preemptive EDF's bounded-starvation guarantee
/// (at most the wedge job already in service stands ahead of it).
#[test]
fn edf_pickup_drains_by_deadline_with_fifo_ties_and_bounded_starvation() {
    const WEDGES: usize = 4;
    const WEDGE_S: u32 = 400_000;
    const SEED: u64 = 0x0edf;
    // Probe batch in push order, with each probe's EDF rank: deadlines
    // in seconds (None = deadline-less), scrambled so push order, rank
    // order, and tie order all differ.
    const PROBES: [(Option<u64>, usize); 7] = [
        (Some(30), 4), // late
        (Some(10), 2), // tie, pushed first -> served first of the pair
        (Some(10), 3), // tie, pushed second
        (Some(1), 1),  // early
        (None, 5),     // deadline-less, FIFO among themselves...
        (None, 6),     // ...and after every deadlined entry
        (Some(0), 0),  // tight: pushed LAST, served FIRST (starvation bound)
    ];

    // Oracle: same seed, one worker, the same request sequence issued
    // *sequentially in EDF rank order* — its responses are the worker
    // RNG stream the wedged server must reproduce.
    let expected: Vec<Vec<u64>> = {
        let vc = VirtualClock::new();
        let server = Server::start(
            registry(64),
            ServerConfig { workers: 1, seed: SEED, clock: vc.handle(), ..ServerConfig::default() },
        );
        let client = server.client();
        for _ in 0..WEDGES {
            assert_eq!(ids(client.call(sample(WEDGE_S))).len(), WEDGE_S as usize);
        }
        let drawn: Vec<Vec<u64>> = (0..PROBES.len()).map(|_| ids(client.call(sample(4)))).collect();
        drop(server);
        drawn
    };
    for (i, a) in expected.iter().enumerate() {
        for b in &expected[i + 1..] {
            assert_ne!(a, b, "oracle draws must be distinct so ranks are unambiguous");
        }
    }

    // The wedge is belt-and-braces against scheduler noise (a descheduled
    // push loop could let the worker drain early); with ~milliseconds of
    // queued work against microseconds of pushing it practically never
    // retries, and a retry replays the identical deterministic draw.
    'attempt: for attempt in 0.. {
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let server = Server::start(
            registry(64),
            ServerConfig {
                workers: 1,
                seed: SEED,
                clock: clock.clone(),
                ..ServerConfig::default()
            },
        );
        let client = server.client();
        let t0 = clock.now();

        // Wedge jobs carry the earliest deadlines of all, so the worker
        // keeps draining them (EDF) while the probe batch accumulates.
        // Their handles are dropped: a wedge runs all the same.
        for j in 0..WEDGES {
            let deadline = Some(t0 + Duration::from_nanos(j as u64 + 1));
            client.call_pending_ctx(sample(WEDGE_S), t0, deadline, Ctx::none()).expect("wedge");
        }
        let pending: Vec<_> = PROBES
            .iter()
            .map(|&(secs, _)| {
                let deadline = secs.map(|s| t0 + Duration::from_secs(s) + Duration::from_millis(1));
                client.call_pending_ctx(sample(4), t0, deadline, Ctx::none()).expect("probe")
            })
            .collect();

        // Wedge intact ⟺ at most the wedge jobs were picked up (any pop
        // with a wedge still queued takes a wedge, by EDF). If a probe
        // slipped through, the drain order is no longer pinned: retry.
        if server.metrics().queue_depth < PROBES.len() as u64 {
            assert!(attempt < 8, "worker drained the wedge early 8 times in a row");
            continue 'attempt;
        }

        for (reply, &(_, rank)) in pending.into_iter().zip(&PROBES) {
            assert_eq!(
                ids(reply.wait()),
                expected[rank],
                "probe pushed at rank {rank} was not served in EDF position"
            );
        }
        break 'attempt;
    }
}
