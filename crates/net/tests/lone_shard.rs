//! The lone-shard plan and what it leans on: a typed answer from a
//! healthy replica is an answer, not a replica failure.
//!
//! A range that overlaps exactly one shard is planned without the live
//! weight probe, so the leg's own `EmptyRange` is the emptiness test —
//! which only works if the router hands that reply to the caller as the
//! typed error instead of charging the breaker and re-asking every
//! other replica. Both halves are held here on a 1-shard × 2-replica
//! topology, once over in-process links and once over [`SimNet`] links,
//! on the virtual clock. So is the other typed answer, a replica that
//! rejects the request itself: the wire carries it as the same typed
//! error an in-process link hands over.

use std::sync::Arc;

use iqs_net::{LinkFault, RemoteReplica, ReplicaServer, SimNet};
use iqs_obs::Ctx;
use iqs_serve::{
    Admission, Client, ExternalIndex, IndexRegistry, IoReport, LegAsk, MetricsSnapshot, Request,
    Response, ServeError, Server, ServerConfig,
};
use iqs_shard::{
    FaultMode, FaultyLink, PendingLeg, ReplicaLink, ShardConfig, ShardError, ShardSpec,
    ShardedService, SHARD_INDEX,
};
use iqs_testkit::VirtualClock;

const REPLICAS: usize = 2;

/// Even keys 0, 2, …, 198: any range strictly between two neighbours is
/// inside the shard's span and empty.
fn elements() -> Vec<(u64, f64, f64)> {
    (0..100).map(|i| (i as u64, (2 * i) as f64, 1.0 + (i % 4) as f64)).collect()
}

fn config(clock: &VirtualClock) -> ShardConfig {
    ShardConfig { shards: 1, replicas: REPLICAS, clock: clock.handle(), ..ShardConfig::default() }
}

fn addr_of(ri: usize) -> String {
    format!("sim://lone-r{ri}")
}

/// An in-process link straight onto a serve node's [`Client`], as
/// `ShardedService::new` builds for its own replicas, for nodes whose
/// index the test registers itself.
struct ClientLink(Client);

impl ClientLink {
    fn weight(&self, request: Request) -> Result<f64, ServeError> {
        match self.0.call(request)? {
            Response::Weight(w) => Ok(w),
            other => panic!("a weight probe answered {other:?}"),
        }
    }
}

impl ReplicaLink for ClientLink {
    fn submit(&self, leg: LegAsk, at: Admission) -> Result<PendingLeg, ServeError> {
        let request = leg.request(SHARD_INDEX);
        self.0.call_pending_ctx(request, at.origin, at.deadline, at.ctx).map(PendingLeg::Local)
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        self.weight(Request::TotalWeight { index: SHARD_INDEX.into() })
    }

    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError> {
        self.weight(Request::RangeWeight { index: SHARD_INDEX.into(), x, y })
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.0.metrics()
    }
}

/// `REPLICAS` serve nodes, each with its shard index registered by
/// `register`, as one shard over keys `[0, 198]`: reached through
/// [`RemoteReplica`] links over `net`, or through [`ClientLink`]s when
/// there is none. The servers are returned to keep their worker pools
/// alive.
fn one_shard(
    clock: &VirtualClock,
    net: Option<&SimNet>,
    register: impl Fn(&mut IndexRegistry),
) -> (ShardedService, Vec<Server>) {
    let mut servers = Vec::new();
    let mut links: Vec<Arc<dyn ReplicaLink>> = Vec::new();
    for ri in 0..REPLICAS {
        let mut indexes = IndexRegistry::new();
        register(&mut indexes);
        let server = Server::start(
            indexes,
            ServerConfig {
                workers: 1,
                seed: ri as u64,
                clock: clock.handle(),
                ..Default::default()
            },
        );
        links.push(match net {
            Some(net) => {
                let replica = ReplicaServer::new(server.client(), clock.handle());
                net.bind(&addr_of(ri), Arc::new(replica));
                Arc::new(RemoteReplica::new(net.transport(), addr_of(ri)))
            }
            None => Arc::new(ClientLink(server.client())),
        });
        servers.push(server);
    }
    let total_weight = servers[0].registry().total_weight(SHARD_INDEX).expect("weighed index");
    let spec = ShardSpec { lo_key: 0.0, hi_key: 198.0, total_weight, links };
    (ShardedService::from_links(vec![spec], config(clock)).expect("one-shard topology"), servers)
}

/// The same topology behind the in-memory fabric: two real serve nodes
/// over the one slice, reached through [`RemoteReplica`] links.
fn over_simnet(clock: &VirtualClock, net: &SimNet) -> (ShardedService, Vec<Server>) {
    one_shard(clock, Some(net), |indexes| {
        indexes.register_range_keyed(SHARD_INDEX, elements()).expect("valid slice");
    })
}

/// What both link kinds must do with lone-shard queries.
fn lone_shard_queries_answer_without_probe_or_failover(svc: &ShardedService) {
    let mut client = svc.client();
    for q in 0..100 {
        let lo = (2 * (q % 99)) as f64 + 0.25;
        let got = client.sample_wr(Some((lo, lo + 1.0)), 8);
        assert_eq!(got, Err(ShardError::EmptyRange), "query {q}: [{lo}, {}]", lo + 1.0);
    }
    let m = svc.metrics().router;
    assert_eq!(m.failovers, 0, "an empty range is an answer, not a replica failure");
    assert_eq!(m.trips, 0, "and never charges a breaker");
    assert_eq!(m.probes_live, 0, "a lone-shard plan reads no weight");
    assert_eq!((m.queries, m.legs, m.degraded_queries), (100, 100, 0));

    // A partial range with elements: one leg, still no probe, and both
    // replicas keep taking turns (no breaker opened on the way here).
    for _ in 0..10 {
        let drawn = client.sample_wr(Some((10.0, 150.0)), 32).expect("read");
        assert!(!drawn.degraded);
        assert_eq!(drawn.ids.len(), 32);
        assert!(drawn.ids.iter().all(|&id| (5..=75).contains(&id)), "{:?}", drawn.ids);
    }
    let after = svc.metrics();
    assert_eq!(after.router.probes_live, 0);
    assert!(after.replicas.iter().all(|r| !r.tripped && r.serve.completed >= 5), "{after:?}");

    // `s = 0` sends no leg, so it keeps the probe as its emptiness test.
    assert_eq!(client.sample_wr(Some((10.25, 11.0)), 0), Err(ShardError::EmptyRange));
    assert!(client.sample_wr(Some((10.0, 150.0)), 0).expect("nothing asked").ids.is_empty());
    assert_eq!(svc.metrics().router.probes_live, 2);
}

/// With every replica of the lone shard unreachable there is no probe
/// left to notice it at plan time; the leg does, and the query answers
/// `degraded` with the whole request `missing`, as `PlanDark` used to.
fn dark_lone_shard_degrades(svc: &ShardedService) {
    let drawn = svc.client().sample_wr(Some((10.0, 150.0)), 24).expect("degraded, not failed");
    assert!(drawn.degraded);
    assert_eq!((drawn.ids.len(), drawn.missing), (0, 24));
    assert_eq!(svc.metrics().router.failovers, REPLICAS as u64);
}

#[test]
fn lone_shard_over_local_links() {
    let clock = VirtualClock::new();
    let svc = ShardedService::new(elements(), config(&clock)).expect("local topology");
    lone_shard_queries_answer_without_probe_or_failover(&svc);

    let dark = ShardedService::new(elements(), config(&clock)).expect("local topology");
    for link in &FaultyLink::wrap_all(&dark)[0] {
        link.set(FaultMode::Down);
    }
    dark_lone_shard_degrades(&dark);
}

#[test]
fn lone_shard_over_simnet_links() {
    let clock = VirtualClock::new();
    let net = SimNet::new(clock.handle());
    let (svc, _servers) = over_simnet(&clock, &net);
    lone_shard_queries_answer_without_probe_or_failover(&svc);
    assert_eq!(net.stats().unreachable + net.stats().timed_out, 0);

    let (dark, _servers) = over_simnet(&clock, &net);
    for ri in 0..REPLICAS {
        net.set_fault(&addr_of(ri), Some(LinkFault::Partition));
    }
    dark_lone_shard_degrades(&dark);
}

/// A shard index with a bug: every draw panics.
#[derive(Debug)]
struct BuggyIndex;

impl ExternalIndex for BuggyIndex {
    fn sample_wr(
        &self,
        _range: Option<(f64, f64)>,
        _s: usize,
        _rng: &mut dyn rand::RngCore,
        _ctx: Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError> {
        panic!("index bug (this panic is the test's)");
    }

    fn range_count(&self, _x: f64, _y: f64) -> Result<usize, ServeError> {
        Ok(7)
    }

    fn range_weight(&self, _x: f64, _y: f64) -> Result<f64, ServeError> {
        Ok(1.0)
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        Ok(1.0)
    }
}

/// A router leg that panics inside the replica — on the connection
/// thread, which holds the node's only seat — comes back over the wire
/// as the typed `Panicked`, is a replica failure to the router (fail
/// over, then degrade), and leaves the node serving.
#[test]
fn a_panicking_leg_is_a_typed_failure_and_the_replica_survives() {
    let clock = VirtualClock::new();
    let net = SimNet::new(clock.handle());
    let mut indexes = IndexRegistry::new();
    indexes.register_external(SHARD_INDEX, Arc::new(BuggyIndex)).expect("fresh registry");
    let server = Server::start(
        indexes,
        ServerConfig { workers: 1, clock: clock.handle(), ..ServerConfig::default() },
    );
    net.bind("sim://buggy", Arc::new(ReplicaServer::new(server.client(), clock.handle())));
    let link = RemoteReplica::new(net.transport(), "sim://buggy");

    // The leg itself, as the router's gather sees it.
    let leg = LegAsk::SampleWr { x: 0.0, y: 9.0, s: 4 };
    let now = clock.handle().now();
    let deadline = now + std::time::Duration::from_secs(1);
    let at = Admission { origin: now, admitted: now, deadline: Some(deadline), ctx: Ctx::none() };
    let pending = link.submit(leg, at).expect("sent");
    assert_eq!(pending.wait_deadline(deadline), Some(Err(ServeError::Panicked)));

    let spec =
        ShardSpec { lo_key: 0.0, hi_key: 9.0, total_weight: 1.0, links: vec![Arc::new(link)] };
    let svc = ShardedService::from_links(
        vec![spec],
        ShardConfig { shards: 1, replicas: 1, clock: clock.handle(), ..ShardConfig::default() },
    )
    .expect("remote topology");
    let mut client = svc.client();
    let drawn = client.sample_wr(None, 5).expect("degraded, not failed");
    assert_eq!((drawn.degraded, drawn.missing), (true, 5));
    assert_eq!(svc.metrics().router.failovers, 1);

    // The seat came home both times: the next request on the one-seat
    // node succeeds, on the router's path and directly.
    assert_eq!(client.range_count(0.0, 9.0).expect("count").count, 7);
    let direct =
        server.client().call(Request::RangeCount { index: SHARD_INDEX.into(), x: 0.0, y: 9.0 });
    assert_eq!(direct, Ok(Response::Count(7)));
    let m = server.shutdown();
    assert_eq!((m.failed, m.completed), (2, 2));
}

/// A shard index that rejects every draw with one typed error, as a
/// healthy replica rejects a request it cannot serve.
#[derive(Debug)]
struct Refusing(ServeError);

impl ExternalIndex for Refusing {
    fn sample_wr(
        &self,
        _range: Option<(f64, f64)>,
        _s: usize,
        _rng: &mut dyn rand::RngCore,
        _ctx: Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError> {
        Err(self.0.clone())
    }

    fn range_count(&self, _x: f64, _y: f64) -> Result<usize, ServeError> {
        Ok(7)
    }

    fn range_weight(&self, _x: f64, _y: f64) -> Result<f64, ServeError> {
        Ok(1.0)
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        Ok(1.0)
    }
}

/// A replica's `InvalidRequest` or `Unsupported` is an answer to the
/// query, whichever link carried it: the caller gets the same typed
/// error, and no replica is failed over from, tripped or reported
/// degraded.
#[test]
fn typed_answers_agree_across_links() {
    let invalid = ServeError::InvalidRequest("sample size exceeds the configured maximum".into());
    let unsupported = ServeError::Unsupported("updates require a dynamic index".into());
    let cases = [
        (invalid, ShardError::InvalidRequest("sample size exceeds the configured maximum".into())),
        (unsupported.clone(), ShardError::Serve(unsupported)),
    ];
    for (refusal, expected) in cases {
        for remote in [false, true] {
            let clock = VirtualClock::new();
            let net = SimNet::new(clock.handle());
            let (svc, _servers) = one_shard(&clock, remote.then_some(&net), |indexes| {
                let index = Arc::new(Refusing(refusal.clone()));
                indexes.register_external(SHARD_INDEX, index).expect("fresh registry");
            });
            let mut client = svc.client();
            for _ in 0..10 {
                assert_eq!(client.sample_wr(None, 8), Err(expected.clone()), "remote: {remote}");
            }
            let m = svc.metrics().router;
            let what = format!("{refusal:?}, remote: {remote}");
            assert_eq!((m.failovers, m.trips, m.degraded_queries), (0, 0, 0), "{what}");
        }
    }
}
