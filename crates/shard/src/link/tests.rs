//! Tests of the in-process link. They stand a replica up from an index
//! registry, which `link.rs` itself never names: on the router's side a
//! replica is its link and nothing else.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use iqs_obs::Ctx;
use iqs_serve::{ExternalIndex, IndexRegistry, IoReport, ServerConfig};

use super::*;

/// A shard index whose every draw reports in and then waits for a
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
        Ok(1)
    }

    fn range_weight(&self, _x: f64, _y: f64) -> Result<f64, ServeError> {
        Ok(1.0)
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        Ok(1.0)
    }
}

/// `answer` runs a leg on the calling thread only while the replica
/// has a seat free; on a busy replica it queues the leg and returns,
/// so the router still submits every leg before its first wait.
#[test]
fn a_busy_local_replica_queues_an_answered_leg_instead_of_waiting() {
    let (entered_tx, entered) = channel();
    let (go, go_rx) = channel();
    let mut indexes = IndexRegistry::new();
    let held = Held { entered: Mutex::new(entered_tx), go: Mutex::new(go_rx) };
    indexes.register_external(SHARD_INDEX, Arc::new(held)).expect("fresh registry");
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let replica = LocalReplica::new(Server::start(indexes, config));
    let leg = |s| LegAsk::SampleWr { x: 0.0, y: 1.0, s };
    let now = iqs_testkit::ClockHandle::real().now();
    let deadline = now + std::time::Duration::from_secs(60);
    let at = Admission { origin: now, admitted: now, deadline: Some(deadline), ctx: Ctx::none() };
    let (mut first_ids, mut second_ids) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| {
        // The first leg takes the replica's only seat, on its own
        // thread, and is held inside the index.
        let first = scope.spawn(|| replica.answer(leg(1), at, &mut first_ids));
        entered.recv().unwrap();
        // Nobody has said `go`, so getting past this line at all is
        // the property: the second leg did not wait for the seat.
        let second = replica.answer(leg(2), at, &mut second_ids).expect("admitted");
        go.send(()).unwrap();
        go.send(()).unwrap();
        let first = first.join().unwrap().expect("admitted");
        assert_eq!(first.wait_deadline(deadline), Some(Ok(Response::Samples(Vec::new()))));
        assert_eq!(second.wait_deadline(deadline), Some(Ok(Response::Samples(vec![7, 7]))));
    });
    assert_eq!(first_ids, [7], "an idle replica answers in the call, into the buffer");
    assert!(second_ids.is_empty(), "a busy replica queues the leg, whose reply carries the ids");
}
