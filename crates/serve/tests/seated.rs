//! The seated door, [`Client::sample_wr_seated`], against the door it is
//! cut from, [`Client::begin_ctx`]: the same requests through either
//! door leave the same answers, metrics and flight-recorder records, the
//! door's ids land in the caller's buffer, and a request that fails —
//! a panic included — leaves that buffer as it was. The door declines,
//! admitting nothing, whenever `begin_ctx` would have queued.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use iqs_obs::{recorder, records_to_jsonl, Ctx};
use iqs_serve::{
    Admission, Begun, Client, ExternalIndex, IndexRegistry, IoReport, Request, Response,
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

/// `(index, range, s, deadline passed)`: a read, an empty range, a size
/// past the maximum, an unknown index, a panic, a deadline missed at
/// pickup, and a read again.
const ASKS: [(&str, (f64, f64), u32, bool); 7] = [
    ("keys", (10.0, 500.0), 64, false),
    ("keys", (600.0, 700.0), 8, false),
    ("keys", (10.0, 500.0), 5000, false),
    ("ghost", (10.0, 500.0), 8, false),
    ("bug", (10.0, 500.0), 8, false),
    ("keys", (10.0, 500.0), 8, true),
    ("keys", (0.0, 511.0), 100, false),
];

/// Runs [`ASKS`] on a fresh traced server through `door`, one trace id
/// each; returns every outcome, the drained trace and the final metrics.
fn run(
    door: impl Fn(&Client, Request, Admission) -> Result<Vec<u64>, ServeError>,
) -> (Vec<Result<Vec<u64>, ServeError>>, String, String) {
    let vc = VirtualClock::new();
    recorder::install(&vc.handle(), 1024);
    let server = server(&vc, |_| {});
    let client = server.client();
    let outcomes = ASKS
        .iter()
        .map(|&(index, range, s, late)| {
            let now = vc.now();
            let deadline = Some(if late { now } else { now + Duration::from_secs(1) });
            let at = Admission {
                origin: now,
                admitted: now,
                deadline,
                ctx: Ctx::query(recorder::next_trace_id()),
            };
            let request = Request::SampleWr { index: index.into(), range: Some(range), s };
            let outcome = door(&client, request, at);
            vc.advance(Duration::from_micros(10));
            outcome
        })
        .collect();
    let metrics = server.shutdown().to_json();
    recorder::disable();
    (outcomes, records_to_jsonl(&recorder::drain()), metrics)
}

#[test]
fn the_seated_door_answers_records_and_counts_as_begin_ctx() {
    let begun = run(|client, request, at| {
        match client.begin_ctx(request, at.origin, at.deadline, at.ctx).expect("admitted") {
            Begun::Done(Ok(Response::Samples(ids))) => Ok(ids),
            Begun::Done(Ok(other)) => panic!("a draw answered {other:?}"),
            Begun::Done(Err(e)) => Err(e),
            Begun::Queued(_) => panic!("an idle service queued"),
        }
    });
    // The door appends to a buffer that already holds something; every
    // failure must leave it as it was.
    let seated = run(|client, request, at| {
        let Request::SampleWr { index, range, s } = request else { unreachable!() };
        let mut out = vec![1, 2, 3];
        let drawn = client
            .sample_wr_seated(&index, range, s, at, &mut out)
            .expect("admitted")
            .expect("an idle service seats the request");
        assert_eq!(out[..3], [1, 2, 3], "the caller's ids are kept");
        if drawn.is_err() {
            assert_eq!(out, [1, 2, 3], "{drawn:?} left the buffer as it was");
        }
        drawn.map(|()| out.split_off(3))
    });
    let outcomes = &begun.0;
    assert!(matches!(outcomes[0].as_deref(), Ok(ids) if ids.len() == 64));
    assert_eq!(outcomes[1], Err(ServeError::Query(iqs_core::QueryError::EmptyRange)));
    assert!(matches!(outcomes[2], Err(ServeError::InvalidRequest(_))));
    assert!(matches!(outcomes[3], Err(ServeError::UnknownIndex(_))));
    assert_eq!(outcomes[4], Err(ServeError::Panicked));
    assert_eq!(outcomes[5], Err(ServeError::DeadlineExceeded));
    assert!(matches!(outcomes[6].as_deref(), Ok(ids) if ids.len() == 100));
    assert_eq!(seated.0, begun.0, "answers");
    assert_eq!(seated.2, begun.2, "metrics");
    assert!(!begun.1.is_empty());
    assert_eq!(seated.1, begun.1, "flight-recorder records");
}

/// While the only seat is taken the door declines and admits nothing —
/// `begin_ctx` would have queued — and once it is back, it runs.
#[test]
fn the_seated_door_declines_a_busy_service_without_admitting() {
    let (entered_tx, entered) = channel();
    let (go, go_rx) = channel();
    let held = Held { entered: Mutex::new(entered_tx), go: Mutex::new(go_rx) };
    let vc = VirtualClock::new();
    let server =
        server(&vc, |registry| registry.register_external("held", Arc::new(held)).unwrap());
    let client = server.client();
    let at =
        |now: Instant| Admission { origin: now, admitted: now, deadline: None, ctx: Ctx::none() };
    std::thread::scope(|scope| {
        let holder = scope
            .spawn(|| client.call(Request::SampleWr { index: "held".into(), range: None, s: 2 }));
        entered.recv().unwrap();
        let mut out = Vec::new();
        let declined = client.sample_wr_seated("keys", None, 8, at(vc.now()), &mut out);
        assert_eq!(declined, Ok(None));
        assert_eq!((out.len(), client.metrics().submitted), (0, 1), "nothing was admitted");
        go.send(()).unwrap();
        assert_eq!(holder.join().unwrap(), Ok(Response::Samples(vec![7, 7])));
    });
    let mut out = Vec::new();
    assert_eq!(client.sample_wr_seated("keys", None, 8, at(vc.now()), &mut out), Ok(Some(Ok(()))));
    assert_eq!(out.len(), 8);
    let m = server.shutdown();
    assert_eq!((m.submitted, m.completed, m.failed), (2, 2, 0));
}
