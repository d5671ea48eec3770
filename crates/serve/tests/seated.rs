//! The door a scatter leg takes, [`Client::answer`], against the
//! blocking door [`Client::call_ctx`]: the same legs through either door
//! leave the same answers, metrics and flight-recorder records. On an
//! idle service the leg runs in the call, its ids in the caller's
//! buffer, and a leg that fails — a panic included — leaves that buffer
//! as it was. On a busy one the leg is queued, and the door returns
//! without waiting.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use iqs_obs::{recorder, records_to_jsonl, Ctx};
use iqs_serve::{
    Admission, Client, ExternalIndex, IndexRegistry, IoReport, LegAsk, Request, Response,
    ServeError, Server, ServerConfig,
};
use iqs_testkit::VirtualClock;

/// An external index that panics on every draw, like a buggy one.
#[derive(Debug)]
struct Buggy;

impl ExternalIndex for Buggy {
    fn sample_wr(
        &self,
        _range: Option<(f64, f64)>,
        _s: usize,
        _rng: &mut dyn rand::RngCore,
        _ctx: Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError> {
        panic!("index bug (this panic is the test's)")
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

/// An external index whose every draw reports in and then waits for a
/// go-ahead.
#[derive(Debug)]
struct Held {
    entered: Mutex<Sender<()>>,
    go: Mutex<Receiver<()>>,
}

impl ExternalIndex for Held {
    fn sample_wr(
        &self,
        _range: Option<(f64, f64)>,
        s: usize,
        _rng: &mut dyn rand::RngCore,
        _ctx: Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError> {
        self.entered.lock().unwrap().send(()).unwrap();
        self.go.lock().unwrap().recv().unwrap();
        Ok((vec![7; s], IoReport::default()))
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

/// A one-seat server on `clock` with a keyed range index "keys", the
/// panicking "bug", and whatever `more` registers.
fn server(clock: &VirtualClock, more: impl FnOnce(&mut IndexRegistry)) -> Server {
    let mut registry = IndexRegistry::new();
    let triples = (0..512u64).map(|i| (1000 + i, i as f64, 1.0 + (i % 3) as f64)).collect();
    registry.register_range_keyed("keys", triples).unwrap();
    registry.register_external("bug", Arc::new(Buggy)).unwrap();
    more(&mut registry);
    let config = ServerConfig {
        workers: 1,
        max_sample_size: 4096,
        seed: 0x5ea7,
        clock: clock.handle(),
        ..ServerConfig::default()
    };
    Server::start(registry, config)
}

/// `(index, leg, deadline passed)`: a read, an empty range, a size past
/// the maximum, an unknown index, a panic, a deadline missed at pickup, a
/// read again, and a count.
const ASKS: [(&str, LegAsk, bool); 8] = [
    ("keys", LegAsk::SampleWr { x: 10.0, y: 500.0, s: 64 }, false),
    ("keys", LegAsk::SampleWr { x: 600.0, y: 700.0, s: 8 }, false),
    ("keys", LegAsk::SampleWr { x: 10.0, y: 500.0, s: 5000 }, false),
    ("ghost", LegAsk::SampleWr { x: 10.0, y: 500.0, s: 8 }, false),
    ("bug", LegAsk::SampleWr { x: 10.0, y: 500.0, s: 8 }, false),
    ("keys", LegAsk::SampleWr { x: 10.0, y: 500.0, s: 8 }, true),
    ("keys", LegAsk::SampleWr { x: 0.0, y: 511.0, s: 100 }, false),
    ("keys", LegAsk::RangeCount { x: 10.0, y: 500.0 }, false),
];

/// Runs [`ASKS`] on a fresh traced server through `door`, one trace id
/// each; returns every outcome, the drained trace and the final metrics.
fn run(
    door: impl Fn(&Client, &str, LegAsk, Admission) -> Result<Response, ServeError>,
) -> (Vec<Result<Response, ServeError>>, String, String) {
    let vc = VirtualClock::new();
    recorder::install(&vc.handle(), 1024);
    let server = server(&vc, |_| {});
    let client = server.client();
    let outcomes = ASKS
        .iter()
        .map(|&(index, leg, late)| {
            let now = vc.now();
            let deadline = Some(if late { now } else { now + Duration::from_secs(1) });
            let at = Admission {
                origin: now,
                admitted: now,
                deadline,
                ctx: Ctx::query(recorder::next_trace_id()),
            };
            let outcome = door(&client, index, leg, at);
            vc.advance(Duration::from_micros(10));
            outcome
        })
        .collect();
    let metrics = server.shutdown().to_json();
    recorder::disable();
    (outcomes, records_to_jsonl(&recorder::drain()), metrics)
}

#[test]
fn a_leg_answers_records_and_counts_as_call_ctx() {
    let called = run(|client, index, leg, at| {
        client.call_ctx(leg.request(index), at.origin, at.deadline, at.ctx)
    });
    // The door appends to a buffer that already holds something; every
    // failure must leave it as it was.
    let answered = run(|client, index, leg, at| {
        let mut out = vec![1, 2, 3];
        let reply = client.answer(index, leg, at, &mut out).expect("admitted").wait();
        assert_eq!(out[..3], [1, 2, 3], "the caller's ids are kept");
        match reply {
            Ok(Response::Samples(queued)) => {
                assert!(queued.is_empty(), "an idle service ran the leg in the call");
                Ok(Response::Samples(out.split_off(3)))
            }
            other => {
                assert_eq!(out, [1, 2, 3], "{other:?} left the buffer as it was");
                other
            }
        }
    });
    let outcomes = &called.0;
    assert!(matches!(&outcomes[0], Ok(Response::Samples(ids)) if ids.len() == 64));
    assert_eq!(outcomes[1], Err(ServeError::Query(iqs_core::QueryError::EmptyRange)));
    assert!(matches!(outcomes[2], Err(ServeError::InvalidRequest(_))));
    assert!(matches!(outcomes[3], Err(ServeError::UnknownIndex(_))));
    assert_eq!(outcomes[4], Err(ServeError::Panicked));
    assert_eq!(outcomes[5], Err(ServeError::DeadlineExceeded));
    assert!(matches!(&outcomes[6], Ok(Response::Samples(ids)) if ids.len() == 100));
    assert_eq!(outcomes[7], Ok(Response::Count(491)));
    assert_eq!(answered.0, called.0, "answers");
    assert_eq!(answered.2, called.2, "metrics");
    assert!(!called.1.is_empty());
    assert_eq!(answered.1, called.1, "flight-recorder records");
}

/// While the only seat is taken the door queues the leg and returns
/// without waiting for it, leaving the buffer alone: the reply carries
/// the ids. Once the seat is back, a leg runs in the call again.
#[test]
fn a_busy_service_queues_a_leg_without_waiting() {
    let (entered_tx, entered) = channel();
    let (go, go_rx) = channel();
    let held = Held { entered: Mutex::new(entered_tx), go: Mutex::new(go_rx) };
    let vc = VirtualClock::new();
    let server =
        server(&vc, |registry| registry.register_external("held", Arc::new(held)).unwrap());
    let client = server.client();
    let at =
        |now: Instant| Admission { origin: now, admitted: now, deadline: None, ctx: Ctx::none() };
    let leg = LegAsk::SampleWr { x: 0.0, y: 511.0, s: 8 };
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let holder = scope
            .spawn(|| client.call(Request::SampleWr { index: "held".into(), range: None, s: 2 }));
        entered.recv().unwrap();
        // Nobody has said `go`, so getting past this line at all is the
        // property: the leg did not wait for the seat.
        let queued = client.answer("keys", leg, at(vc.now()), &mut out).expect("admitted");
        assert_eq!((out.len(), client.metrics().submitted), (0, 2), "admitted and queued");
        go.send(()).unwrap();
        assert_eq!(holder.join().unwrap(), Ok(Response::Samples(vec![7, 7])));
        assert!(matches!(queued.wait(), Ok(Response::Samples(ids)) if ids.len() == 8));
        assert!(out.is_empty(), "a queued leg's ids come in its reply");
    });
    let ran = client.answer("keys", leg, at(vc.now()), &mut out).expect("admitted").wait();
    assert_eq!((ran, out.len()), (Ok(Response::Samples(Vec::new())), 8));
    let m = server.shutdown();
    assert_eq!((m.submitted, m.completed, m.failed), (3, 3, 0));
}
