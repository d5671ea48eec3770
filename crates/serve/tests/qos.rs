//! Per-tenant QoS through the full service path: token-bucket admission,
//! tenant deadline overrides, EDF pickup order, and the registered
//! `qos_fairness` gate.
//!
//! Time never comes from the wall clock: every test runs on an
//! `iqs_testkit` virtual clock, so token-bucket refills and deadline
//! misses are deterministic facts of the scripted timeline. The EDF
//! pickup-order test additionally wedges the single worker behind a
//! backlog of expensive jobs so the probe batch is heap-resident before
//! any probe is picked — making the drain order a pure function of the
//! EDF comparator, verified against a sequential oracle server that
//! shares the worker's RNG stream.

use std::time::Duration;

use iqs_serve::{IndexRegistry, Request, Response, ServeError, Server, ServerConfig, TenantSpec};
use iqs_stats::chisq::{chi_square_gof, weight_probs};
use iqs_testkit::gate::{self, Trial};
use iqs_testkit::VirtualClock;

fn registry(n: usize) -> (IndexRegistry, Vec<f64>) {
    let pairs: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0 + (i % 5) as f64)).collect();
    let weights: Vec<f64> = pairs.iter().map(|&(_, w)| w).collect();
    let mut registry = IndexRegistry::new();
    registry.register_range_static("keys", pairs).expect("register");
    (registry, weights)
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
    let (reg, _) = registry(64);
    let server = Server::start(
        reg,
        ServerConfig { workers: 1, seed: 7, clock: vc.handle(), ..ServerConfig::default() },
    );
    let client = server.client();
    let now = vc.handle().now();

    for _ in 0..3 {
        let got = client.call_at(sample(4), now, Some(now));
        assert_eq!(got, Err(ServeError::DeadlineExceeded), "deadline == pickup instant must miss");
    }
    // The tightest *future* deadline on a frozen clock never expires.
    let got = client.call_at(sample(4), now, Some(now + Duration::from_nanos(1)));
    assert_eq!(ids(got).len(), 4);

    let m = server.shutdown();
    assert_eq!(m.deadline_missed, 3);
    assert_eq!(m.completed, 1);
    assert_eq!(m.failed, 0, "deadline misses are counted apart from dispatch failures");
}

/// A tenant's configured deadline replaces the server default for its
/// calls only: a zero deadline makes every call a deterministic miss on
/// the frozen clock, while a sibling tenant and the untenanted client on
/// the same server are untouched.
#[test]
fn tenant_deadline_override_applies_per_tenant() {
    let vc = VirtualClock::new();
    let (reg, _) = registry(64);
    let server = Server::start(
        reg,
        ServerConfig {
            workers: 1,
            seed: 7,
            clock: vc.handle(),
            tenants: vec![
                TenantSpec::unlimited("batch").with_deadline(Duration::ZERO),
                TenantSpec::unlimited("rt").with_deadline(Duration::from_secs(3600)),
            ],
            ..ServerConfig::default()
        },
    );
    let plain = server.client();
    let batch = plain.for_tenant("batch").expect("configured tenant");
    let rt = plain.for_tenant("rt").expect("configured tenant");
    assert_eq!(batch.tenant(), Some("batch"));
    assert!(plain.for_tenant("nope").is_err(), "unknown tenant names are refused");

    assert_eq!(batch.call(sample(4)), Err(ServeError::DeadlineExceeded));
    assert_eq!(ids(rt.call(sample(4))).len(), 4);
    assert_eq!(ids(plain.call(sample(4))).len(), 4, "no default deadline for untenanted calls");

    let m = server.shutdown();
    let row = |name: &str| m.tenants.iter().find(|t| t.name == name).expect("row").clone();
    assert_eq!(row("batch").deadline_missed, 1);
    assert_eq!(row("batch").completed, 0);
    assert_eq!(row("rt").completed, 1);
    assert_eq!(row("rt").deadline_missed, 0);
    assert_eq!(m.deadline_missed, 1);
}

/// The token bucket on the service clock: bursts admit at once, refill
/// is exactly `rate × elapsed virtual time`, excess is shed *before* the
/// queue, and one tenant running dry never touches another's admission.
#[test]
fn quota_sheds_excess_before_the_queue_and_spares_other_tenants() {
    let vc = VirtualClock::new();
    let (reg, _) = registry(64);
    let server = Server::start(
        reg,
        ServerConfig {
            workers: 1,
            seed: 7,
            clock: vc.handle(),
            tenants: vec![
                TenantSpec::limited("paid", 5.0, 2.0),
                TenantSpec::limited("free", 1.0, 1.0),
            ],
            ..ServerConfig::default()
        },
    );
    let paid = server.client().for_tenant("paid").expect("tenant");
    let free = server.client().for_tenant("free").expect("tenant");
    let shed_as = |got: Result<Response, ServeError>, tenant: &str| match got {
        Err(ServeError::QuotaExceeded(name)) => assert_eq!(name, tenant),
        other => panic!("expected QuotaExceeded({tenant}), got {other:?}"),
    };

    // t0: each bucket starts full at its burst.
    assert_eq!(ids(paid.call(sample(2))).len(), 2);
    assert_eq!(ids(paid.call(sample(2))).len(), 2);
    shed_as(paid.call(sample(2)), "paid");
    assert_eq!(ids(free.call(sample(2))).len(), 2, "paid running dry never touches free");
    shed_as(free.call(sample(2)), "free");

    // +200ms: paid (5/s) accrued exactly one token; free (1/s) only 0.2.
    vc.advance(Duration::from_millis(200));
    assert_eq!(ids(paid.call(sample(2))).len(), 2);
    shed_as(paid.call(sample(2)), "paid");

    // +1s: paid refills to its burst cap (2, not 5); free crosses 1.
    vc.advance(Duration::from_secs(1));
    assert_eq!(ids(paid.call(sample(2))).len(), 2);
    assert_eq!(ids(paid.call(sample(2))).len(), 2);
    shed_as(paid.call(sample(2)), "paid");
    assert_eq!(ids(free.call(sample(2))).len(), 2);

    let m = server.shutdown();
    let row = |name: &str| m.tenants.iter().find(|t| t.name == name).expect("row").clone();
    assert_eq!(row("paid").submitted, 8);
    assert_eq!(row("paid").completed, 5);
    assert_eq!(row("paid").shed_quota, 3);
    assert_eq!(row("free").submitted, 3);
    assert_eq!(row("free").completed, 2);
    assert_eq!(row("free").shed_quota, 1);
    // Sheds happened at admission, not in the queue: no overload
    // rejections, no deadline misses, nothing left behind.
    assert_eq!(m.rejected_overload, 0);
    assert_eq!(m.deadline_missed, 0);
    assert_eq!(m.queue_depth, 0);
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
        let (reg, _) = registry(64);
        let server = Server::start(
            reg,
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
        let (reg, _) = registry(64);
        let server = Server::start(
            reg,
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
        for j in 0..WEDGES {
            client
                .submit_nowait(sample(WEDGE_S), t0, Some(t0 + Duration::from_nanos(j as u64 + 1)))
                .expect("wedge admitted");
        }
        let pending: Vec<_> = PROBES
            .iter()
            .map(|&(secs, _)| {
                let deadline = secs.map(|s| t0 + Duration::from_secs(s) + Duration::from_millis(1));
                client.call_pending(sample(4), t0, deadline).expect("probe admitted")
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

/// Registered gate: per-tenant sampling marginals stay `w(e)/W` under
/// adversarial cross-tenant load. A greedy tenant floods the service far
/// past its quota while a victim tenant stays inside its own; admission
/// must shed exactly the greedy excess (the victim's goodput is
/// byte-countable), and *both* tenants' returned sample histograms must
/// pass chi-square against the weight distribution — QoS reshapes
/// admission, never the sampling law.
#[test]
fn qos_fairness() {
    gate::run("qos_fairness", |seed, scale| {
        let n = 256usize;
        let (reg, weights) = registry(n);
        let vc = VirtualClock::new();
        let server = Server::start(
            reg,
            ServerConfig {
                workers: 1,
                seed,
                clock: vc.handle(),
                tenants: vec![
                    TenantSpec::limited("greedy", 40.0, 4.0),
                    TenantSpec::limited("victim", 1000.0, 50.0),
                ],
                ..ServerConfig::default()
            },
        );
        let greedy = server.client().for_tenant("greedy").expect("tenant");
        let victim = server.client().for_tenant("victim").expect("tenant");

        let mut greedy_hist = vec![0u64; n];
        let mut victim_hist = vec![0u64; n];
        let rounds = 20 * scale as u64;
        for _ in 0..rounds {
            // 100ms per round refills greedy by exactly its burst (4).
            vc.advance(Duration::from_millis(100));
            for _ in 0..10 {
                if let Ok(Response::Samples(drawn)) = greedy.call(sample(16)) {
                    for id in drawn {
                        greedy_hist[id as usize] += 1;
                    }
                }
            }
            for _ in 0..4 {
                for id in ids(victim.call(sample(16))) {
                    victim_hist[id as usize] += 1;
                }
            }
        }

        // Deterministic goodput accounting: the victim never sheds, the
        // greedy tenant sheds exactly its per-round excess.
        let m = server.shutdown();
        let row = |name: &str| m.tenants.iter().find(|t| t.name == name).expect("row").clone();
        assert_eq!(row("victim").shed_quota, 0, "in-quota traffic must never shed");
        assert_eq!(row("victim").completed, rounds * 4);
        assert_eq!(row("greedy").completed, rounds * 4);
        assert_eq!(row("greedy").shed_quota, rounds * 6);
        assert_eq!(m.rejected_overload, 0, "quota sheds never reach the queue");

        let probs = weight_probs(&weights);
        vec![
            Trial::from_gof("greedy tenant marginals", &chi_square_gof(&greedy_hist, &probs)),
            Trial::from_gof("victim tenant marginals", &chi_square_gof(&victim_hist, &probs)),
        ]
    });
}
