//! The cluster telemetry plane end to end (experiment E24's test
//! form): a simulated 3-shard cluster where one shard serves through a
//! cold external index, telemetry batches ship replica → router on the
//! announce cadence, the SLO engine watches the assembled per-shard
//! histograms, and the controller rebuilds the shard whose burn rate
//! stays over threshold — all on the virtual clock.
//!
//! The scenario: at `REGRESS_TICK` the cold index starts paying a 5 ms
//! I/O stall per draw. The burn-rate engine must cross its alert
//! threshold within a bounded number of ticks, the `HealthReport` must
//! name the offending shard, the controller must issue a rebuild
//! decision gated on the sustained alert, and the slow-log join must
//! blame the regression on cold-tier I/O — with every read `Ok`, every
//! shed telemetry leg accounted for, a duplicated telemetry link
//! absorbed with no double counting, and the whole run byte-identical
//! across two same-seed executions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use iqs_ctl::{Controller, CtlConfig, Decision};
use iqs_net::{
    announce_once, shard_specs, ship_telemetry, Announce, LinkFault, RegistryHandler,
    ReplicaServer, ServiceRegistry, SimNet, SimStats, TelemetryHandler,
};
use iqs_obs::recorder::{self, pack_io};
use iqs_obs::{Phase, Record, SlowLog, TraceView};
use iqs_serve::{ExternalIndex, IndexRegistry, IoReport, ServeError, Server, ServerConfig};
use iqs_shard::{HealthPolicy, ShardConfig, ShardedService, SHARD_INDEX};
use iqs_slo::{
    AttributionTable, Cause, ClusterTelemetry, Objective, SloEngine, SloKey, TelemetryShipper,
    TelemetryStats,
};
use iqs_testkit::{ClockHandle, VirtualClock};

/// SplitMix64 increment for deriving per-replica server seeds.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Shard cuts over the 1024-element keyspace; shard 1 is the cold one.
const CUTS: [(usize, usize); 3] = [(0, 341), (341, 682), (682, 1024)];

const COLD_SHARD: usize = 1;
const TICKS: usize = 12;
const REGRESS_TICK: usize = 4;
const QUERIES_PER_TICK: usize = 24;
const TICK: Duration = Duration::from_secs(1);
const SAMPLE_S: u32 = 8;
/// The injected cold-tier stall per draw once the regression starts.
const STALL_NS: u64 = 5_000_000;
/// Ticks during which the telemetry link duplicates every frame.
const DUP_TICKS: std::ops::Range<usize> = 6..8;

fn elements() -> Vec<(u64, f64, f64)> {
    (0..1024).map(|i| (i as u64, i as f64, 1.0 + (i % 10) as f64)).collect()
}

fn addr_of(si: usize) -> String {
    format!("sim://s{si}r0")
}

/// A cold external index over one shard's slice: exact inverse-CDF
/// weighted sampling off prefix sums, with a switchable per-draw I/O
/// stall that burns real virtual time and reports block reads — the
/// §8 external-memory path reduced to its observable behavior.
#[derive(Debug)]
struct ColdStandIn {
    keys: Vec<f64>,
    ids: Vec<u64>,
    /// `prefix[i]` = total weight of elements `0..i`.
    prefix: Vec<f64>,
    clock: ClockHandle,
    stall_ns: Arc<AtomicU64>,
}

impl ColdStandIn {
    fn new(slice: &[(u64, f64, f64)], clock: ClockHandle, stall_ns: Arc<AtomicU64>) -> ColdStandIn {
        let mut prefix = vec![0.0];
        for &(_, _, w) in slice {
            prefix.push(prefix.last().expect("non-empty") + w);
        }
        ColdStandIn {
            keys: slice.iter().map(|e| e.1).collect(),
            ids: slice.iter().map(|e| e.0).collect(),
            prefix,
            clock,
            stall_ns,
        }
    }

    /// Index range `[lo, hi)` of elements with keys in `[x, y]`.
    fn key_span(&self, range: Option<(f64, f64)>) -> (usize, usize) {
        match range {
            None => (0, self.keys.len()),
            Some((x, y)) => {
                let lo = self.keys.partition_point(|k| *k < x);
                let hi = self.keys.partition_point(|k| *k <= y);
                (lo, hi)
            }
        }
    }
}

impl ExternalIndex for ColdStandIn {
    fn sample_wr(
        &self,
        range: Option<(f64, f64)>,
        s: usize,
        rng: &mut dyn rand::RngCore,
        ctx: iqs_obs::Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError> {
        let (lo, hi) = self.key_span(range);
        if lo >= hi {
            return Err(ServeError::Unsupported("empty cold range".into()));
        }
        let (w_lo, w_hi) = (self.prefix[lo], self.prefix[hi]);
        let mut out = Vec::with_capacity(s);
        for _ in 0..s {
            // 53-bit uniform in [0, 1): exact inverse CDF over the
            // prefix sums, so the draw is distributionally identical to
            // the in-RAM weighted samplers.
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let target = w_lo + u * (w_hi - w_lo);
            let idx = self.prefix[lo + 1..hi].partition_point(|p| *p <= target) + lo;
            out.push(self.ids[idx.min(hi - 1)]);
        }
        let stall = self.stall_ns.load(Ordering::Relaxed);
        let io = if stall > 0 {
            // The regression: every block is a miss that pays a real
            // (virtual-clock) stall.
            self.clock.sleep(Duration::from_nanos(stall));
            IoReport {
                cache_hits: 0,
                cache_misses: s as u64,
                block_reads: s as u64,
                block_writes: 0,
            }
        } else {
            // Healthy cold tier: everything in cache, no I/O cause.
            IoReport { cache_hits: s as u64, cache_misses: 0, block_reads: 0, block_writes: 0 }
        };
        recorder::emit(
            ctx,
            Phase::ColdDraw,
            s as u64,
            pack_io(io.block_reads, io.block_writes, io.cache_hits, io.cache_misses),
        );
        Ok((out, io))
    }

    fn range_count(&self, x: f64, y: f64) -> Result<usize, ServeError> {
        let (lo, hi) = self.key_span(Some((x, y)));
        Ok(hi - lo)
    }

    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError> {
        let (lo, hi) = self.key_span(Some((x, y)));
        Ok(self.prefix[hi] - self.prefix[lo])
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        Ok(*self.prefix.last().expect("non-empty"))
    }
}

/// Everything one run observes, compared across same-seed executions
/// for byte-identical replay.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per tick: alerting shards, cold shard's fast-burn bits, and the
    /// controller's decisions.
    ticks: Vec<String>,
    first_alert_tick: Option<usize>,
    fix_tick: Option<usize>,
    /// Drained slow-log `(trace, latency_ns)` entries, slowest first.
    slow: Vec<(u64, u64)>,
    /// Attributed cause name per slow entry.
    causes: Vec<&'static str>,
    attribution_jsonl: String,
    telemetry: TelemetryStats,
    shipper_dropped: Vec<u64>,
    produced_legs: u64,
    /// Completed ops in the collector's assembled cluster picture.
    cluster_completed: u64,
    /// Sum of the replicas' own cumulative counters at the final ship.
    servers_completed: u64,
    burn_alerts: u64,
    sim: SimStats,
}

fn run(seed: u64) -> Outcome {
    let clock = VirtualClock::new();
    recorder::install(&clock.handle(), 8192);
    let net = SimNet::new(clock.handle());
    let registry = Arc::new(ServiceRegistry::new(clock.handle()));
    net.bind("sim://registry", Arc::new(RegistryHandler::new(Arc::clone(&registry))));
    let collector = Arc::new(Mutex::new(ClusterTelemetry::new(4096).expect("config")));
    net.bind("sim://telemetry", Arc::new(TelemetryHandler::new(Arc::clone(&collector))));
    let transport = net.transport();

    let elements = elements();
    let stall = Arc::new(AtomicU64::new(0));
    let mut servers = Vec::new();
    for (si, &(a, b)) in CUTS.iter().enumerate() {
        let mut indexes = IndexRegistry::new();
        if si == COLD_SHARD {
            indexes
                .register_external(
                    SHARD_INDEX,
                    Arc::new(ColdStandIn::new(&elements[a..b], clock.handle(), Arc::clone(&stall))),
                )
                .expect("fresh registry");
        } else {
            indexes.register_range_keyed(SHARD_INDEX, elements[a..b].to_vec()).expect("valid");
        }
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
        let total = server.registry().total_weight(SHARD_INDEX).expect("weighted index");
        let addr = addr_of(si);
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

    let specs = shard_specs(&registry, &transport);
    assert_eq!(specs.len(), CUTS.len());
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

    // The telemetry plane: one shipper per replica process (shard 0's
    // deliberately tiny, to exercise bounded-buffer shedding), the SLO
    // engine on the router clock, and the burn-gated controller.
    let mut shippers: Vec<TelemetryShipper> = (0..CUTS.len())
        .map(|si| {
            let capacity = if si == 0 { 2 } else { 4096 };
            TelemetryShipper::new(&addr_of(si), si as u32, 0, capacity).expect("config")
        })
        .collect();
    let mut engine = SloEngine::new(&clock.handle());
    for si in 0..CUTS.len() {
        engine
            .set_objective(
                SloKey::Shard(si as u32),
                Objective {
                    threshold: Duration::from_millis(1),
                    target: 0.9,
                    fast_window: Duration::from_secs(2),
                    slow_window: Duration::from_secs(6),
                    fast_burn: 2.0,
                    slow_burn: 1.0,
                },
            )
            .expect("valid objective");
    }
    let mut ctl = Controller::new(
        svc.clone(),
        CtlConfig {
            tick: TICK,
            split_share: 0.55,
            merge_share: 0.10,
            hot_ticks: 2,
            cold_ticks: 3,
            min_shards: 1,
            max_shards: CUTS.len(),
            // Load analysis disabled: this run is about the burn policy.
            min_interval_queries: u64::MAX,
            burn_ticks: 2,
        },
    )
    .expect("valid config");

    let mut client = svc.client();
    let slow_log = SlowLog::new(8);
    let mut local_records: Vec<Record> = Vec::new();
    let mut produced_legs = 0u64;
    let mut first_alert_tick = None;
    let mut fix_tick = None;
    let mut ticks = Vec::new();
    let mut servers_completed = 0u64;

    /// Phases `LegSummary::summarize` folds: in a real deployment these
    /// exist only in the replica's recorder and reach the router solely
    /// through the telemetry frame, so they are routed through the
    /// shippers instead of the local record stream.
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

    for tick in 0..TICKS {
        if tick == REGRESS_TICK {
            stall.store(STALL_NS, Ordering::Relaxed);
        }
        if tick == DUP_TICKS.start {
            net.set_fault("sim://telemetry", Some(LinkFault::Duplicate));
        }
        if tick == DUP_TICKS.end {
            net.set_fault("sim://telemetry", None);
        }

        // The tick's workload: full-range reads that scatter to every
        // shard. Zero failed reads is the standing claim.
        for _ in 0..QUERIES_PER_TICK {
            let drawn = client.sample_wr(None, SAMPLE_S).expect("reads never fail");
            assert!(!drawn.degraded, "tick {tick}: healthy cluster must not degrade");
            assert_eq!(drawn.missing, 0);
            assert_eq!(drawn.ids.len(), SAMPLE_S as usize);
        }
        clock.advance(TICK);

        // Replica side: drain, fold the server-side leg records into
        // summaries, and ship each replica's batch on the announce
        // cadence; commit on ack.
        let drained = recorder::drain();
        for r in &drained {
            if r.phase == Phase::QueryDone {
                slow_log.observe(r.trace, r.a);
            }
        }
        for si in 0..CUTS.len() {
            let shard_records: Vec<Record> = drained
                .iter()
                .filter(|r| ships(r) && r.shard() == Some(si as u32))
                .copied()
                .collect();
            produced_legs += iqs_obs::LegSummary::summarize(&shard_records).len() as u64;
            shippers[si].absorb(&shard_records);
            let cumulative = servers[si].metrics();
            let batch = shippers[si].next_batch(&cumulative).expect("monotone");
            let ack = ship_telemetry(
                &*transport,
                "sim://telemetry",
                &batch,
                clock.handle().now() + Duration::from_secs(1),
            )
            .expect("collector reachable");
            assert_eq!(ack.epoch, batch.seq, "ack must echo the batch sequence");
            shippers[si].commit();
            if tick == TICKS - 1 {
                servers_completed += cumulative.completed;
            }
        }
        local_records.extend(drained.into_iter().filter(|r| !ships(r)));

        // Router side: feed the assembled per-shard histograms to the
        // SLO engine and hand the health picture to the controller.
        {
            let collector = collector.lock().expect("collector");
            for si in 0..CUTS.len() {
                engine.observe(&SloKey::Shard(si as u32), collector.shard_latency(si as u32));
            }
        }
        let health = engine.evaluate().expect("monotone series");
        let alerting = health.alerting_shards();
        if first_alert_tick.is_none() && !alerting.is_empty() {
            first_alert_tick = Some(tick);
        }
        let decisions = ctl.tick_with_health(Some(&health)).expect("controller tick");
        if fix_tick.is_none() && decisions.iter().any(|d| matches!(d, Decision::Rebuild { .. })) {
            // The rebuild "fixes" the cold tier: the stall clears.
            stall.store(0, Ordering::Relaxed);
            fix_tick = Some(tick);
        }
        let burn_bits =
            health.shard_status(COLD_SHARD as u32).map_or(0, |status| status.fast_burn.to_bits());
        ticks.push(format!(
            "tick={tick} alerting={alerting:?} burn={burn_bits:#x} decisions={decisions:?}"
        ));
    }

    // The controller's last-tick records land after the final in-loop
    // drain.
    local_records.extend(recorder::drain().into_iter().filter(|r| !ships(r)));
    recorder::disable();

    // Tail-latency attribution: join the drained slow-log with the
    // local records plus the *shipped* remote legs.
    let slow_entries = slow_log.take();
    let collector = collector.lock().expect("collector");
    let mut table = AttributionTable::new();
    let attributed = table.observe_slow_log(&slow_entries, &local_records, collector.legs());
    let causes: Vec<&'static str> = attributed.iter().map(|(_, _, c)| c.name()).collect();

    // The alert trail: the controller's trace carries the burn alert
    // naming the cold shard next to the rebuild decision it gated.
    let ctl_view = TraceView::build(&local_records, ctl.trace_id());
    let alerts = ctl_view.slo_alerts();
    assert!(
        alerts.iter().all(|(shard, _)| *shard == COLD_SHARD as u32),
        "burn alerts must name the cold shard: {alerts:?}"
    );
    assert!(!alerts.is_empty(), "the controller must record its burn alert");
    assert!(!ctl_view.ctl_decisions().is_empty(), "the rebuild must be recorded");

    Outcome {
        ticks,
        first_alert_tick,
        fix_tick,
        slow: slow_entries.iter().map(|e| (e.trace, e.latency_ns)).collect(),
        causes,
        attribution_jsonl: table.to_jsonl(),
        telemetry: collector.stats(),
        shipper_dropped: shippers.iter().map(TelemetryShipper::dropped_legs).collect(),
        produced_legs,
        cluster_completed: collector.cluster_metrics().completed,
        servers_completed,
        burn_alerts: ctl.metrics().burn_alerts,
        sim: net.stats(),
    }
}

/// The whole acceptance scenario, twice under one seed. (A single test
/// per binary: the flight recorder is process-global.)
#[test]
fn cold_regression_is_detected_attributed_and_repaired_deterministically() {
    let first = run(0x7e1e_5105_10ba_11e7);

    // Detection: the burn alert fires within two ticks of the
    // regression and the controller rebuilds the shard one burn-streak
    // later.
    let alert = first.first_alert_tick.expect("burn alert must fire");
    assert!(
        (REGRESS_TICK..REGRESS_TICK + 2).contains(&alert),
        "detection latency out of bounds: alert at tick {alert}"
    );
    let fix = first.fix_tick.expect("the controller must rebuild the cold shard");
    assert_eq!(fix, alert + 1, "rebuild is gated on burn_ticks=2 consecutive alerts");
    assert_eq!(first.burn_alerts, 1, "one sustained incident, one alert");

    // The alert clears after the fix: no tick at the end still alerts.
    assert!(
        first.ticks.last().expect("ticks recorded").contains("alerting=[]"),
        "the final tick must be healthy: {:?}",
        first.ticks.last()
    );

    // Attribution: every slow query blames cold-tier I/O, read through
    // the *remote* legs the telemetry frames shipped.
    assert_eq!(first.slow.len(), 8, "the slow log keeps its top-k");
    assert!(
        first.slow.iter().all(|(_, ns)| *ns >= STALL_NS),
        "slow entries must be the stalled queries: {:?}",
        first.slow
    );
    assert!(
        first.causes.iter().all(|c| *c == Cause::ColdIo.name()),
        "slow queries must attribute to cold I/O: {:?}",
        first.causes
    );
    assert!(first.attribution_jsonl.contains("\"cause\":\"cold_io\",\"count\":8"));

    // Accounting: every produced leg is kept at the collector or
    // counted dropped at exactly one bounded buffer; shard 0's tiny
    // shipper really shed.
    let shipped_dropped: u64 = first.shipper_dropped.iter().sum();
    assert!(first.shipper_dropped[0] > 0, "the tiny buffer must shed legs");
    assert_eq!(first.shipper_dropped[COLD_SHARD], 0, "the cold shard's legs all ship");
    assert_eq!(
        first.produced_legs,
        first.telemetry.legs_kept + first.telemetry.legs_dropped + shipped_dropped,
        "drop counters must account exactly for every shed leg: {first:?}"
    );

    // The duplicated link was absorbed at-most-once: one duplicate per
    // shard per duplicated tick, and batch accounting is unaffected.
    assert_eq!(
        first.telemetry.duplicates,
        (DUP_TICKS.len() * CUTS.len()) as u64,
        "every duplicated telemetry frame is rejected by sequence"
    );
    assert_eq!(
        first.telemetry.batches,
        (TICKS * CUTS.len()) as u64,
        "one accepted batch per shard per tick"
    );

    // The assembled cluster picture equals the replicas' own counters:
    // the committed diffs reconstruct the remote totals exactly.
    assert_eq!(
        first.cluster_completed, first.servers_completed,
        "the collector's cluster metrics must match the replicas' own counters"
    );
    assert!(first.cluster_completed > 0);

    // Determinism: the entire run — draws, alerts, decisions, slow log,
    // attribution, telemetry ledger, fabric counters — byte-identical.
    let second = run(0x7e1e_5105_10ba_11e7);
    assert_eq!(first, second, "same-seed runs must replay byte-identically");
}
