//! The simulated distributed cluster: real `iqs-serve` nodes behind
//! [`ReplicaServer`]s on an in-memory [`SimNet`], discovered through the
//! TTL registry and routed by `iqs-shard`'s scatter/gather — the whole
//! networking stack with zero real sockets, on the virtual clock.
//!
//! Five claims:
//! 1. **Exactness across the fabric** (registered gate): the remote
//!    cluster's partial-range draw matches the single-node weighted
//!    distribution — framing, deadline re-anchoring, and registry
//!    discovery add no bias.
//! 2. **Chaos honesty**: under partitions, delays, duplicates, and a
//!    hard replica kill, every read still returns `Ok`; degradation is
//!    reported if and only if a whole shard is dark, with honest
//!    `missing` counts; breakers trip and recover.
//! 3. **Determinism**: the same chaos scenario under the same seed
//!    replays bit-identically — ids, flags, metrics, traffic counters.
//! 4. **The codec does not touch the sample stream**: a cluster behind
//!    the fabric returns, query for query, the id sequence the same
//!    seeds draw on in-process links — at both id widths.
//! 5. **One fault schedule, both transports**: the seeded fault plans
//!    `iqs-shard`'s chaos suite injects through [`FaultyLink`]s around
//!    in-process replicas degrade this cluster exactly where they
//!    darken a shard when the same decorator wraps its fabric links.

use std::sync::Arc;
use std::time::Duration;

use iqs_net::{
    announce_once, shard_specs, Announce, LinkFault, RegistryHandler, RemoteReplica, ReplicaServer,
    ServiceRegistry, SimNet, SimStats,
};
use iqs_serve::{IndexRegistry, Server, ServerConfig};
use iqs_shard::{
    FaultMode, FaultyLink, HealthPolicy, ReplicaLink, ShardConfig, ShardSpec, ShardedService,
    SHARD_INDEX,
};
use iqs_stats::chisq::{chi_square_gof, weight_probs};
use iqs_testkit::gate::{self, Trial};
use iqs_testkit::seed::{derive, suite_seed};
use iqs_testkit::{FaultPlan, PlanShape, VirtualClock};

/// SplitMix64 increment; distinct per-replica server seeds derive from
/// the scenario seed with it, mirroring the in-process tier's schedule.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Shard cuts over the 1024-element keyspace: three uneven slices.
const CUTS: [(usize, usize); 3] = [(0, 341), (341, 682), (682, 1024)];

/// Replicas per shard.
const REPLICAS: usize = 2;

/// Lease TTL generous enough that injected delays (which really burn
/// virtual time) never expire a healthy replica mid-scenario.
const TTL_MS: u64 = 600_000;

fn elements() -> Vec<(u64, f64, f64)> {
    (0..1024).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect()
}

fn addr_of(si: usize, ri: usize) -> String {
    format!("sim://s{si}r{ri}")
}

/// A full simulated cluster: 3 shards × 2 replicas, each replica a real
/// serve node on the shared virtual clock, announced to the registry
/// and discovered into the router via [`shard_specs`].
struct SimCluster {
    clock: VirtualClock,
    net: SimNet,
    svc: ShardedService,
    elements: Vec<(u64, f64, f64)>,
    /// Keeps the replica worker pools alive ([`ReplicaServer`] holds
    /// only a client handle).
    _servers: Vec<Server>,
}

fn build(seed: u64) -> SimCluster {
    build_wrapped(seed, VirtualClock::new(), |_, _, link| link)
}

/// [`build`] on `clock`, with each discovered link replaced by
/// `wrap(shard, replica, link)` before the router is built on it.
fn build_wrapped(
    seed: u64,
    clock: VirtualClock,
    mut wrap: impl FnMut(usize, usize, Arc<dyn ReplicaLink>) -> Arc<dyn ReplicaLink>,
) -> SimCluster {
    let net = SimNet::new(clock.handle());
    let registry = Arc::new(ServiceRegistry::new(clock.handle()));
    net.bind("sim://registry", Arc::new(RegistryHandler::new(Arc::clone(&registry))));
    let transport = net.transport();

    let elements = elements();
    let mut servers = Vec::new();
    for (si, &(a, b)) in CUTS.iter().enumerate() {
        for ri in 0..REPLICAS {
            let mut indexes = IndexRegistry::new();
            indexes
                .register_range_keyed(SHARD_INDEX, elements[a..b].to_vec())
                .expect("valid slice");
            let server = Server::start(
                indexes,
                ServerConfig {
                    workers: 1,
                    queue_capacity: 256,
                    default_deadline: None,
                    max_sample_size: 1 << 20,
                    seed: seed ^ GOLDEN.wrapping_mul((si * REPLICAS + ri + 1) as u64),
                    clock: clock.handle(),
                },
            );
            let total = server.registry().total_weight(SHARD_INDEX).expect("range index");
            let addr = addr_of(si, ri);
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
                    ttl_ms: TTL_MS,
                },
                clock.handle().now() + Duration::from_secs(1),
            )
            .expect("announce");
            assert!(ack.accepted);
            servers.push(server);
        }
    }

    let mut specs = shard_specs(&registry, &transport);
    assert_eq!(specs.len(), CUTS.len(), "one spec per distinct key span");
    assert!(specs.iter().all(|s| s.links.len() == REPLICAS));
    for (si, spec) in specs.iter_mut().enumerate() {
        let links = std::mem::take(&mut spec.links);
        spec.links = links.into_iter().enumerate().map(|(ri, link)| wrap(si, ri, link)).collect();
    }
    let svc = ShardedService::from_links(
        specs,
        ShardConfig {
            workers_per_replica: 1,
            queue_capacity: 256,
            scatter_deadline: Duration::from_millis(500),
            health: HealthPolicy { trip_threshold: 2, probe_cooldown: Duration::from_millis(10) },
            seed,
            clock: clock.handle(),
            ..ShardConfig::default()
        },
    )
    .expect("remote topology builds");
    SimCluster { clock, net, svc, elements, _servers: servers }
}

/// Claim 1: the networked draw is exactly the single-node weighted
/// distribution, judged by the registered gate. The query range is
/// partial on shards 0 and 2 (live weight probes over the wire) and
/// fully covers shard 1 (cached-weight planning), so both planning
/// paths cross the fabric.
#[test]
fn sim_cluster_matches_single_node_distribution() {
    gate::run("net_sim_cluster_chi_square", |seed, scale| {
        let sim = build(seed);
        let mut client = sim.svc.client();
        let (a, b) = (200usize, 901usize); // closed key range [200, 900]
        let calls = 600 * scale;
        let s = 16u32;
        let mut hist = vec![0u64; b - a];
        for _ in 0..calls {
            let drawn = client.sample_wr(Some((a as f64, (b - 1) as f64)), s).expect("read");
            assert!(!drawn.degraded, "healthy cluster must never degrade");
            assert_eq!(drawn.missing, 0);
            assert_eq!(drawn.ids.len(), s as usize);
            for id in drawn.ids {
                hist[id as usize - a] += 1;
            }
        }
        let weights: Vec<f64> = sim.elements[a..b].iter().map(|e| e.2).collect();
        let gof = chi_square_gof(&hist, &weight_probs(&weights));

        let m = client.metrics();
        assert_eq!(m.shards, CUTS.len());
        assert_eq!(m.router.failovers, 0, "no faults injected");
        assert_eq!(m.router.degraded_queries, 0);
        assert!(m.router.probes_cached > 0, "shard 1 is fully covered");
        assert!(m.router.probes_live > 0, "shards 0 and 2 are partial");
        assert!(m.cluster.completed > 0, "replica metrics ride the Metrics frame");
        let stats = sim.net.stats();
        assert!(stats.delivered > 0);
        assert_eq!(stats.unreachable, 0);
        assert_eq!(stats.timed_out, 0);

        vec![Trial::from_gof("sim cluster vs single-node weights", &gof)]
    });
}

/// What one chaos run observed, in full — compared across same-seed
/// runs for bit-identical replay.
#[derive(Debug, PartialEq, Eq)]
struct ChaosOutcome {
    /// Per query: delivered ids, missing count, degraded flag.
    draws: Vec<(Vec<u64>, usize, bool)>,
    /// Router counters that summarize the failure story.
    digest: String,
    /// Fabric traffic counters.
    stats: SimStats,
}

/// Claim 2 (and the raw material for claim 3): sixty full-range reads
/// while the fabric misbehaves. Every read must return `Ok`; shard 2
/// goes fully dark for queries 50..55 and only there may `degraded`
/// appear.
fn chaos_run(seed: u64) -> ChaosOutcome {
    let sim = build(seed);
    let mut client = sim.svc.client();
    let s = 16u32;
    let mut draws = Vec::new();
    for q in 0..60 {
        match q {
            // A duplicate-delivering link: at-most-once framing must
            // absorb it with no distributional or accounting effect.
            5 => sim.net.set_fault(&addr_of(0, 1), Some(LinkFault::Duplicate)),
            // Partition one replica of shard 1: failover to its partner.
            12 => {
                sim.net.set_fault(&addr_of(0, 1), None);
                sim.net.set_fault(&addr_of(1, 0), Some(LinkFault::Partition));
            }
            // Hard-kill one replica of shard 2 (process death): its
            // partner covers, so reads stay exact and non-degraded.
            22 => sim.net.unbind(&addr_of(2, 1)),
            // Stall shard 0 replica 0 past the scatter deadline: the
            // leg really burns its budget on the virtual clock, times
            // out, and fails over.
            32 => sim.net.set_fault(&addr_of(0, 0), Some(LinkFault::Delay(Duration::from_secs(2)))),
            // Heal the soft faults and let the probe cooldown pass:
            // tripped breakers probe and recover.
            42 => {
                sim.net.set_fault(&addr_of(0, 0), None);
                sim.net.set_fault(&addr_of(1, 0), None);
                sim.clock.advance(Duration::from_millis(20));
            }
            // Partition shard 2's surviving replica: the shard is now
            // fully dark and queries must degrade honestly.
            50 => sim.net.set_fault(&addr_of(2, 0), Some(LinkFault::Partition)),
            // Heal it; after the cooldown the breaker recovers.
            55 => {
                sim.net.set_fault(&addr_of(2, 0), None);
                sim.clock.advance(Duration::from_millis(20));
            }
            _ => {}
        }
        let drawn = client.sample_wr(None, s).expect("chaos must never fail a read");
        let dark_window = (50..55).contains(&q);
        assert_eq!(drawn.degraded, dark_window, "query {q}: degraded iff shard 2 is fully dark");
        if dark_window {
            assert!(drawn.missing > 0, "query {q}: a dark shard's split is missing");
            assert_eq!(drawn.ids.len() + drawn.missing, s as usize);
        } else {
            assert_eq!(drawn.missing, 0);
            assert_eq!(drawn.ids.len(), s as usize);
        }
        draws.push((drawn.ids, drawn.missing, drawn.degraded));
    }

    let m = client.metrics();
    assert!(m.router.failovers >= 1, "partitions and timeouts must fail over");
    assert!(m.router.trips >= 1, "repeated failures must trip a breaker");
    assert!(m.router.recoveries >= 1, "healed replicas must recover");
    assert_eq!(m.router.degraded_queries, 5, "exactly the dark-window queries");
    let stats = sim.net.stats();
    assert!(stats.duplicated >= 1, "the duplicate fault really fired");
    assert!(stats.unreachable >= 1, "partitions really refused calls");
    assert!(stats.timed_out >= 1, "the delay really timed out");
    let digest = format!(
        "queries={} legs={} failovers={} degraded={} trips={} recoveries={}",
        m.router.queries,
        m.router.legs,
        m.router.failovers,
        m.router.degraded_queries,
        m.router.trips,
        m.router.recoveries,
    );
    ChaosOutcome { draws, digest, stats }
}

#[test]
fn chaos_reads_stay_ok_with_honest_accounting() {
    let outcome = chaos_run(0x51ee_d001);
    let total_missing: usize = outcome.draws.iter().map(|d| d.1).sum();
    assert!(total_missing > 0, "the dark window must really cost samples");
}

/// Claim 3: same seed, same scenario, bit-identical everything.
#[test]
fn chaos_replays_deterministically_under_one_seed() {
    let first = chaos_run(0x0dd5_eed5);
    let second = chaos_run(0x0dd5_eed5);
    assert_eq!(first, second, "same-seed chaos runs must be bit-identical");
}

/// Claim 4: replies decoded from `Samples` frames are the draws
/// themselves. `ShardedService::new` seeds in-process replica `k`
/// (counting from 1) with `seed + k·GOLDEN`; the same three nodes under
/// the same seeds behind the fabric must return the same ids for the
/// same queries — once with ids that fit four bytes, once with ids that
/// need eight.
#[test]
fn remote_draws_replay_the_local_links_id_for_id() {
    let seed = 0x5a3e_1e55;
    for id_base in [0, 1u64 << 40] {
        let clock = VirtualClock::new();
        let config = ShardConfig {
            shards: CUTS.len(),
            replicas: 1,
            workers_per_replica: 1,
            seed,
            clock: clock.handle(),
            ..ShardConfig::default()
        };
        let elements = elements().into_iter().map(|(id, k, w)| (id_base + id, k, w)).collect();
        let local = ShardedService::new(elements, config.clone()).expect("local topology builds");

        let net = SimNet::new(clock.handle());
        let mut servers = Vec::new();
        let mut specs = Vec::new();
        for (si, (span, weight)) in
            local.shard_spans().into_iter().zip(local.shard_weights()).enumerate()
        {
            let slice = local.shard_elements(si).expect("local shards carry their slice");
            let mut indexes = IndexRegistry::new();
            indexes.register_range_keyed(SHARD_INDEX, slice.to_vec()).expect("valid slice");
            let server = Server::start(
                indexes,
                ServerConfig {
                    workers: config.workers_per_replica,
                    queue_capacity: config.queue_capacity,
                    default_deadline: None,
                    max_sample_size: config.max_sample_size,
                    seed: seed.wrapping_add(GOLDEN.wrapping_mul(si as u64 + 1)),
                    clock: clock.handle(),
                },
            );
            let addr = addr_of(si, 0);
            net.bind(&addr, Arc::new(ReplicaServer::new(server.client(), clock.handle())));
            specs.push(ShardSpec {
                lo_key: span.0,
                hi_key: span.1,
                total_weight: weight,
                links: vec![Arc::new(RemoteReplica::new(net.transport(), addr))],
            });
            servers.push(server);
        }
        let remote = ShardedService::from_links(specs, config).expect("remote topology builds");

        let (mut local, mut remote) = (local.client(), remote.client());
        let queries = [
            (None, 16),
            (Some((200.0, 900.0)), 64),
            (Some((10.0, 10.0)), 1),
            (None, 4096),
            (Some((340.0, 341.0)), 333),
            (None, 1),
        ];
        for (range, s) in queries {
            let here = local.sample_wr(range, s).expect("local read");
            let there = remote.sample_wr(range, s).expect("remote read");
            assert_eq!(here.ids.len(), s as usize);
            assert!(here.ids.iter().all(|&id| id >= id_base));
            assert_eq!(here.ids, there.ids, "range {range:?}, s {s}, id base {id_base}");
            assert!(!there.degraded);
        }
        assert_eq!(net.stats().unreachable + net.stats().timed_out, 0);
    }
}

/// Claim 5: seeded fault plans over the fabric. Each step sets every
/// wrapped link to the fault the plan puts its replica under, moves one
/// virtual second on (past any breaker's cooldown), and reads: a
/// full-span count degrades at exactly the steps where
/// `FaultPlan::dark_shards` says a shard is dark, with one unavailable
/// shard per dark one, and no read fails. The 500 ms scatter deadline
/// exceeds every drawn delay, so only Down and Error darken a replica.
#[test]
fn fault_schedules_over_the_fabric_degrade_exactly_at_dark_steps() {
    let shape = PlanShape {
        steps: 30,
        shards: CUTS.len(),
        replicas: REPLICAS,
        events: 18,
        max_delay_ms: 40,
    };
    let mut dark_steps = 0;
    for round in 0..4u64 {
        // `chaos.rs`'s label and shape: the very plans its in-process
        // cluster replays.
        let seed = derive(suite_seed(), "chaos_schedule").wrapping_add(round);
        let plan = FaultPlan::generate(seed, &shape);
        let clock = VirtualClock::new();
        let handle = clock.handle();
        let mut faults: Vec<(usize, usize, Arc<FaultyLink>)> = Vec::new();
        let sim = build_wrapped(seed, clock, |si, ri, link| {
            let faulty = Arc::new(FaultyLink::new(link, handle.clone()));
            faults.push((si, ri, Arc::clone(&faulty)));
            faulty
        });
        let mut client = sim.svc.client();
        let mut observed = Vec::new();
        for step in 0..shape.steps {
            for (si, ri, link) in &faults {
                link.set(FaultMode::from_plan(plan.kind_at(step, *si, *ri)));
            }
            sim.clock.advance(Duration::from_secs(1));
            let dark = plan.dark_shards(step, shape.replicas);
            let counted = client.range_count(f64::NEG_INFINITY, f64::INFINITY).expect("count");
            assert_eq!(counted.shards_unavailable, dark.len(), "seed {seed:#x} step {step}");
            let drawn = client.sample_wr(None, 16).expect("reads never fail under faults");
            assert_eq!(drawn.ids.len() + drawn.missing, 16, "seed {seed:#x} step {step}");
            assert_eq!(drawn.degraded, !dark.is_empty(), "seed {seed:#x} step {step}");
            if counted.degraded {
                observed.push(step);
            }
        }
        let predicted: Vec<usize> = (0..shape.steps)
            .filter(|&step| !plan.dark_shards(step, shape.replicas).is_empty())
            .collect();
        assert_eq!(observed, predicted, "seed {seed:#x}: dark-step prediction diverged");
        assert_eq!(sim.svc.metrics().cluster.failed, 0, "replica-side failures under faults");
        dark_steps += predicted.len();
    }
    assert!(dark_steps > 0, "no schedule darkened a shard; derive a different label");
}
