//! Trace ids cross the wire: a traced query against *remote* replicas
//! still reconstructs the full two-level schedule in `TraceView`,
//! because the frame header carries `(trace, span)` and the replica
//! server threads them back into the obs context before serving.
//!
//! Lives in its own file: the flight recorder is process-global, and
//! integration-test files run as separate processes.

use std::sync::Arc;
use std::time::Duration;

use iqs_net::{RemoteReplica, ReplicaServer, SimNet};
use iqs_obs::{recorder, Phase, TraceView, UNTRACED};
use iqs_serve::{IndexRegistry, Server, ServerConfig};
use iqs_shard::{HealthPolicy, ReplicaLink, ShardConfig, ShardSpec, ShardedService, SHARD_INDEX};
use iqs_testkit::VirtualClock;

#[test]
fn traced_remote_query_reconstructs_the_two_level_schedule() {
    let clock = VirtualClock::new();
    let net = SimNet::new(clock.handle());
    let transport = net.transport();

    // Two shards, one remote replica each, no registry — the specs are
    // assembled by hand to isolate the tracing claim.
    let elements: Vec<(u64, f64, f64)> =
        (0..200).map(|i| (i, i as f64, 1.0 + (i % 7) as f64)).collect();
    let cuts = [(0usize, 100usize), (100, 200)];
    let mut servers = Vec::new();
    let mut specs = Vec::new();
    for (si, &(a, b)) in cuts.iter().enumerate() {
        let mut indexes = IndexRegistry::new();
        indexes.register_range_keyed(SHARD_INDEX, elements[a..b].to_vec()).expect("slice");
        let server = Server::start(
            indexes,
            ServerConfig {
                workers: 1,
                queue_capacity: 64,
                default_deadline: None,
                max_sample_size: 1 << 20,
                seed: 0x0ace_0f5e ^ (si as u64 + 1),
                clock: clock.handle(),
            },
        );
        let total = server.registry().total_weight(SHARD_INDEX).expect("range index");
        let addr = format!("sim://shard{si}");
        net.bind(&addr, Arc::new(ReplicaServer::new(server.client(), clock.handle())));
        let link: Arc<dyn ReplicaLink> = Arc::new(RemoteReplica::new(Arc::clone(&transport), addr));
        specs.push(ShardSpec {
            lo_key: a as f64,
            hi_key: (b - 1) as f64,
            total_weight: total,
            links: vec![link],
        });
        servers.push(server);
    }
    let svc = ShardedService::from_links(
        specs,
        ShardConfig {
            workers_per_replica: 1,
            scatter_deadline: Duration::from_millis(500),
            health: HealthPolicy::default(),
            seed: 0x0007_aced,
            clock: clock.handle(),
            ..ShardConfig::default()
        },
    )
    .expect("topology builds");

    recorder::install(&clock.handle(), 8192);
    let s = 16u32;
    let mut client = svc.client();
    let drawn = client.sample_wr(None, s).expect("traced remote draw");
    recorder::disable();
    let records = recorder::drain();

    assert_ne!(drawn.trace, UNTRACED, "enabled recorder must trace the query");
    assert!(!drawn.degraded);
    let view = TraceView::build(&records, drawn.trace);

    // The plan covers both shards with their remote cached weights.
    let planned = view.planned_shards();
    assert_eq!(planned.iter().map(|&(sh, _)| sh).collect::<Vec<_>>(), vec![0, 1]);

    // The split sums to the request.
    let split = view.split_counts();
    assert_eq!(split.iter().map(|&(_, c)| c).sum::<u64>(), u64::from(s));
    assert!(view.failovers().is_empty());
    assert!(view.degraded_legs().is_empty());
    assert!(!view.is_degraded());

    // Every delivered leg carries the *worker-side* phases — Enqueue,
    // Pickup, RngCost, WorkDone — which can only be attributed to this
    // trace if the id and span really crossed the frame boundary into
    // the replica's serve context.
    for &(shard, count) in &split {
        if count == 0 {
            continue;
        }
        let leg = view
            .legs()
            .into_iter()
            .find(|l| l.shard == shard && l.replica.is_some())
            .unwrap_or_else(|| panic!("shard {shard} must have a delivered leg"));
        let phases: Vec<Phase> = leg.records.iter().map(|r| r.phase).collect();
        for phase in [
            Phase::LegSubmit,
            Phase::Enqueue,
            Phase::Pickup,
            Phase::RngCost,
            Phase::WorkDone,
            Phase::LegDone,
        ] {
            assert!(phases.contains(&phase), "shard {shard} leg missing {phase:?}");
        }
        assert!(view.leg_rng_words(shard) > 0, "shard {shard} consumed randomness remotely");
    }
    assert!(view.total_latency().is_some());
    drop(servers);
}
