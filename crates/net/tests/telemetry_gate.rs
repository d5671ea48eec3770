//! The registered `slo_cluster_trace_chi_square` gate: with the
//! telemetry plane running — replica-side records folded into leg
//! summaries and shipped through real [`iqs_net::Kind::Telemetry`]
//! frames every round — the cluster's weighted draw distribution stays
//! exactly `w(e)/W`, every trace assembles into a whole-cluster view
//! whose remote legs carry genuine pickup/draw timings, and not one
//! read fails.
//!
//! One test per binary: the flight recorder is process-global.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use iqs_net::{
    announce_once, shard_specs, ship_telemetry, Announce, RegistryHandler, ReplicaServer,
    ServiceRegistry, SimNet, TelemetryHandler,
};
use iqs_obs::{recorder, Phase, Record, TraceView};
use iqs_serve::{IndexRegistry, Server, ServerConfig};
use iqs_shard::{HealthPolicy, ShardConfig, ShardedService, SHARD_INDEX};
use iqs_slo::{ClusterTelemetry, TelemetryShipper};
use iqs_stats::chisq::{chi_square_gof, weight_probs};
use iqs_testkit::gate::{self, Trial};
use iqs_testkit::VirtualClock;

/// SplitMix64 increment for deriving per-replica server seeds.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Shard cuts over the 1024-element keyspace.
const CUTS: [(usize, usize); 3] = [(0, 341), (341, 682), (682, 1024)];

/// Replica-side phases that reach the router only via telemetry.
fn ships(r: &Record) -> bool {
    r.replica().is_some()
        && matches!(
            r.phase,
            Phase::Enqueue
                | Phase::Pickup
                | Phase::DeadlineMiss
                | Phase::RngCost
                | Phase::WorkDone
                | Phase::ColdDraw
        )
}

#[test]
fn slo_cluster_trace_chi_square() {
    gate::run("slo_cluster_trace_chi_square", |seed, scale| {
        let clock = VirtualClock::new();
        recorder::install(&clock.handle(), 1 << 16);
        let net = SimNet::new(clock.handle());
        let registry = Arc::new(ServiceRegistry::new(clock.handle()));
        net.bind("sim://registry", Arc::new(RegistryHandler::new(Arc::clone(&registry))));
        let collector = Arc::new(Mutex::new(ClusterTelemetry::new(1 << 16).expect("config")));
        net.bind("sim://telemetry", Arc::new(TelemetryHandler::new(Arc::clone(&collector))));
        let transport = net.transport();

        let elements: Vec<(u64, f64, f64)> =
            (0..1024).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect();
        let mut servers = Vec::new();
        for (si, &(a, b)) in CUTS.iter().enumerate() {
            let mut indexes = IndexRegistry::new();
            indexes.register_range_keyed(SHARD_INDEX, elements[a..b].to_vec()).expect("valid");
            let server = Server::start(
                indexes,
                ServerConfig {
                    workers: 1,
                    queue_capacity: 256,
                    default_deadline: None,
                    max_sample_size: 1 << 20,
                    seed: seed ^ GOLDEN.wrapping_mul(si as u64 + 1),
                    clock: clock.handle(),
                },
            );
            let total = server.registry().total_weight(SHARD_INDEX).expect("range index");
            let addr = format!("sim://s{si}r0");
            net.bind(&addr, Arc::new(ReplicaServer::new(server.client(), clock.handle())));
            let ack = announce_once(
                &*transport,
                "sim://registry",
                &Announce {
                    addr,
                    lo_key: a as f64,
                    hi_key: (b - 1) as f64,
                    total_weight: total,
                    epoch: 1,
                    ttl_ms: 600_000,
                },
                clock.handle().now() + Duration::from_secs(1),
            )
            .expect("announce");
            assert!(ack.accepted);
            servers.push(server);
        }

        let svc = ShardedService::from_links(
            shard_specs(&registry, &transport),
            ShardConfig {
                workers_per_replica: 1,
                queue_capacity: 256,
                scatter_deadline: Duration::from_millis(500),
                health: HealthPolicy {
                    trip_threshold: 2,
                    probe_cooldown: Duration::from_millis(10),
                },
                seed,
                clock: clock.handle(),
                ..ShardConfig::default()
            },
        )
        .expect("remote topology builds");
        let mut shippers: Vec<TelemetryShipper> = (0..CUTS.len())
            .map(|si| {
                TelemetryShipper::new(&format!("sim://s{si}r0"), si as u32, 0, 1 << 14)
                    .expect("config")
            })
            .collect();

        // The draw under test: partial-range reads (live weight probes
        // on shards 0 and 2, cached planning on shard 1) while every
        // round ships the replicas' telemetry through the wire.
        let mut client = svc.client();
        let (a, b) = (200usize, 901usize);
        let rounds = 40 * scale;
        let queries_per_round = 15;
        let s = 16u32;
        let mut hist = vec![0u64; b - a];
        let mut last_trace = 0u64;
        let mut local_records: Vec<Record> = Vec::new();
        for _ in 0..rounds {
            for _ in 0..queries_per_round {
                let drawn = client.sample_wr(Some((a as f64, (b - 1) as f64)), s).expect("read");
                assert!(!drawn.degraded, "healthy cluster must never degrade");
                assert_eq!(drawn.missing, 0);
                assert_eq!(drawn.ids.len(), s as usize);
                for id in drawn.ids {
                    hist[id as usize - a] += 1;
                }
            }
            clock.advance(Duration::from_secs(1));
            let drained = recorder::drain();
            for (si, shipper) in shippers.iter_mut().enumerate() {
                let shard_records: Vec<Record> = drained
                    .iter()
                    .filter(|r| ships(r) && r.shard() == Some(si as u32))
                    .copied()
                    .collect();
                shipper.absorb(&shard_records);
                let batch = shipper.next_batch(&servers[si].metrics()).expect("monotone");
                let ack = ship_telemetry(
                    &*transport,
                    "sim://telemetry",
                    &batch,
                    clock.handle().now() + Duration::from_secs(1),
                )
                .expect("collector reachable");
                assert_eq!(ack.epoch, batch.seq);
                shipper.commit();
            }
            for r in drained.iter().filter(|r| !ships(r)) {
                if r.phase == Phase::QueryDone {
                    last_trace = r.trace;
                }
                local_records.push(*r);
            }
        }
        recorder::disable();

        // Trace assembly through the remote path: the last query's
        // whole-cluster view must carry shipped legs whose pickup and
        // draw records exist *only* remotely.
        let collector = collector.lock().expect("collector");
        assert!(last_trace != 0, "traced queries must have completed");
        let local_view = TraceView::build(&local_records, last_trace);
        assert!(
            !local_view.records.iter().any(|r| r.phase == Phase::Pickup),
            "replica-side records must not be in the router's local stream"
        );
        let view = TraceView::build_with_remote(&local_records, last_trace, collector.legs());
        assert!(
            view.records.iter().any(|r| r.phase == Phase::Pickup),
            "the assembled view must expose remote pickup timings"
        );
        assert!(view.rng_words() > 0, "remote draw cost must read through the summaries");
        assert!(view.total_latency().is_some());
        let assembled_legs = view.legs().iter().filter(|l| l.replica.is_some()).count();
        assert!(assembled_legs >= 1, "at least one scatter leg assembles remotely");

        // The shipping ledger is clean: every batch accepted, nothing
        // dropped, nothing duplicated, and the cluster picture is live.
        let stats = collector.stats();
        assert_eq!(stats.batches, (rounds * CUTS.len()) as u64);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.legs_dropped, 0);
        assert_eq!(shippers.iter().map(TelemetryShipper::dropped_legs).sum::<u64>(), 0);
        assert!(collector.cluster_metrics().completed > 0);
        let fabric = net.stats();
        assert_eq!(fabric.unreachable, 0);
        assert_eq!(fabric.timed_out, 0);
        drop(collector);

        // Sanity that LegSummary::summarize saw real work: the judged
        // histogram and the gate verdict.
        let weights: Vec<f64> = elements[a..b].iter().map(|e| e.2).collect();
        let gof = chi_square_gof(&hist, &weight_probs(&weights));
        vec![Trial::from_gof("cluster draw with telemetry shipping", &gof)]
    });
}
