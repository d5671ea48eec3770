//! Cluster telemetry & SLOs: a simulated 3-shard cluster ships metric
//! diffs and trace-leg summaries over real telemetry frames to a
//! router-side collector; a multi-window burn-rate engine watches the
//! assembled per-shard histograms; and when one shard's cold tier
//! regresses, the controller rebuilds it on a sustained burn alert
//! while the slow-log join blames the regression on cold-tier I/O.
//!
//! Everything runs on the virtual clock, so the whole incident —
//! detection latency included — is deterministic.
//!
//! Run with: `cargo run --release --example cluster_slo`
//! (set `IQS_EXAMPLE_QUERIES` to bound the per-tick query count).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use iqs::ctl::{Controller, CtlConfig, Decision};
use iqs::net::{
    announce_once, shard_specs, ship_telemetry, Announce, RegistryHandler, ReplicaServer,
    ServiceRegistry, SimNet, TelemetryHandler,
};
use iqs::obs::recorder::{self, pack_io};
use iqs::obs::{Phase, Record, SlowLog};
use iqs::serve::{ExternalIndex, IndexRegistry, IoReport, ServeError, Server, ServerConfig};
use iqs::shard::{HealthPolicy, ShardConfig, ShardedService, SHARD_INDEX};
use iqs::slo::{
    AttributionTable, ClusterTelemetry, Objective, SloEngine, SloKey, TelemetryShipper,
};
use iqs::testkit::{ClockHandle, VirtualClock};

/// A stand-in for the §8 external-memory tier: uniform draws over one
/// shard's slice, with a switchable per-draw I/O stall that burns real
/// (virtual) time and reports block reads.
#[derive(Debug)]
struct ColdTier {
    ids: Vec<u64>,
    keys: Vec<f64>,
    clock: ClockHandle,
    stall_ns: Arc<AtomicU64>,
}

impl ExternalIndex for ColdTier {
    fn sample_wr(
        &self,
        range: Option<(f64, f64)>,
        s: usize,
        rng: &mut dyn rand::RngCore,
        ctx: iqs::obs::Ctx,
    ) -> Result<(Vec<u64>, IoReport), ServeError> {
        let (lo, hi) = self.span(range);
        if lo >= hi {
            return Err(ServeError::Unsupported("empty cold range".into()));
        }
        let out = (0..s).map(|_| self.ids[lo + rng.next_u64() as usize % (hi - lo)]).collect();
        let stall = self.stall_ns.load(Ordering::Relaxed);
        let io = if stall > 0 {
            self.clock.sleep(Duration::from_nanos(stall));
            IoReport {
                cache_hits: 0,
                cache_misses: s as u64,
                block_reads: s as u64,
                block_writes: 0,
            }
        } else {
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
        let (lo, hi) = self.span(Some((x, y)));
        Ok(hi - lo)
    }

    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError> {
        self.range_count(x, y).map(|c| c as f64)
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        Ok(self.ids.len() as f64)
    }
}

impl ColdTier {
    fn span(&self, range: Option<(f64, f64)>) -> (usize, usize) {
        match range {
            None => (0, self.keys.len()),
            Some((x, y)) => {
                (self.keys.partition_point(|k| *k < x), self.keys.partition_point(|k| *k <= y))
            }
        }
    }
}

/// Replica-side phases that reach the router only via telemetry frames.
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

fn main() {
    let per_tick: usize =
        std::env::var("IQS_EXAMPLE_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(16);
    let cuts: [(usize, usize); 3] = [(0, 341), (341, 682), (682, 1024)];
    let cold_shard = 1usize;
    let elements: Vec<(u64, f64, f64)> = (0..1024).map(|i| (i as u64, i as f64, 1.0)).collect();

    let clock = VirtualClock::new();
    recorder::install(&clock.handle(), 1 << 14);
    let net = SimNet::new(clock.handle());
    let registry = Arc::new(ServiceRegistry::new(clock.handle()));
    net.bind("sim://registry", Arc::new(RegistryHandler::new(Arc::clone(&registry))));
    let collector = Arc::new(Mutex::new(ClusterTelemetry::new(1 << 14).expect("config")));
    net.bind("sim://telemetry", Arc::new(TelemetryHandler::new(Arc::clone(&collector))));
    let transport = net.transport();

    let stall = Arc::new(AtomicU64::new(0));
    let mut servers = Vec::new();
    for (si, &(a, b)) in cuts.iter().enumerate() {
        let mut indexes = IndexRegistry::new();
        if si == cold_shard {
            let tier = ColdTier {
                ids: elements[a..b].iter().map(|e| e.0).collect(),
                keys: elements[a..b].iter().map(|e| e.1).collect(),
                clock: clock.handle(),
                stall_ns: Arc::clone(&stall),
            };
            indexes.register_external(SHARD_INDEX, Arc::new(tier)).expect("fresh registry");
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
                seed: 7 + si as u64,
                clock: clock.handle(),
            },
        );
        let total = server.registry().total_weight(SHARD_INDEX).expect("weighted");
        let addr = format!("sim://s{si}r0");
        net.bind(&addr, Arc::new(ReplicaServer::new(server.client(), clock.handle())));
        announce_once(
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
        servers.push(server);
    }
    let svc = ShardedService::from_links(
        shard_specs(&registry, &transport),
        ShardConfig {
            workers_per_replica: 1,
            queue_capacity: 256,
            scatter_deadline: Duration::from_millis(500),
            health: HealthPolicy { trip_threshold: 2, probe_cooldown: Duration::from_millis(10) },
            seed: 23,
            clock: clock.handle(),
            ..ShardConfig::default()
        },
    )
    .expect("remote topology builds");
    println!("cluster: {} remote shards discovered via the TTL registry", svc.shard_count());

    // The telemetry plane: per-replica shippers, the burn-rate engine,
    // and the burn-gated controller.
    let mut shippers: Vec<TelemetryShipper> = (0..cuts.len())
        .map(|si| TelemetryShipper::new(&format!("sim://s{si}r0"), si as u32, 0, 1 << 12).unwrap())
        .collect();
    let mut engine = SloEngine::new(&clock.handle());
    for si in 0..cuts.len() {
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
            tick: Duration::from_secs(1),
            min_interval_queries: u64::MAX, // this run is about the burn policy
            burn_ticks: 2,
            max_shards: cuts.len(),
            ..CtlConfig::default()
        },
    )
    .expect("valid controller config");

    let mut client = svc.client();
    let slow_log = SlowLog::new(8);
    let mut local_records: Vec<Record> = Vec::new();
    let regress_tick = 3usize;
    let mut fixed_at = None;
    println!("SLO: p99-of-1ms at 90% — fast window 2s (burn ≥ 2.0), slow window 6s (burn ≥ 1.0)");

    for tick in 0..10usize {
        if tick == regress_tick {
            stall.store(5_000_000, Ordering::Relaxed);
            println!("\ntick {tick}: cold tier on shard {cold_shard} regresses (5 ms per draw)");
        }
        for _ in 0..per_tick {
            let drawn = client.sample_wr(None, 8).expect("reads never fail");
            assert!(!drawn.degraded && drawn.missing == 0);
        }
        clock.advance(Duration::from_secs(1));

        // Replica side: fold server-side records into leg summaries and
        // ship each replica's interval diff; commit on ack.
        let drained = recorder::drain();
        for r in &drained {
            if r.phase == Phase::QueryDone {
                slow_log.observe(r.trace, r.a);
            }
        }
        for (si, shipper) in shippers.iter_mut().enumerate() {
            let mine: Vec<Record> = drained
                .iter()
                .filter(|r| ships(r) && r.shard() == Some(si as u32))
                .copied()
                .collect();
            shipper.absorb(&mine);
            let batch = shipper.next_batch(&servers[si].metrics()).expect("monotone");
            let ack = ship_telemetry(
                &*transport,
                "sim://telemetry",
                &batch,
                clock.handle().now() + Duration::from_secs(1),
            )
            .expect("collector reachable");
            assert!(ack.epoch == batch.seq);
            shipper.commit();
        }
        local_records.extend(drained.into_iter().filter(|r| !ships(r)));

        // Router side: assembled per-shard histograms → burn rates →
        // the controller's health-gated tick.
        {
            let collector = collector.lock().expect("collector");
            for si in 0..cuts.len() {
                engine.observe(&SloKey::Shard(si as u32), collector.shard_latency(si as u32));
            }
        }
        let health = engine.evaluate().expect("monotone series");
        if let Some(worst) = health.worst() {
            if worst.fast_burn > 0.0 {
                println!(
                    "tick {tick}: worst {} fast burn {:.1} slow burn {:.1}{}",
                    worst.key,
                    worst.fast_burn,
                    worst.slow_burn,
                    if worst.alerting { "  << ALERT" } else { "" },
                );
            }
        }
        let decisions = ctl.tick_with_health(Some(&health)).expect("controller tick");
        for d in &decisions {
            println!("tick {tick}: controller decided {d:?}");
            if fixed_at.is_none() && matches!(d, Decision::Rebuild { .. }) {
                stall.store(0, Ordering::Relaxed); // the rebuild clears the regression
                fixed_at = Some(tick);
            }
        }
    }
    local_records.extend(recorder::drain().into_iter().filter(|r| !ships(r)));
    recorder::disable();

    let fixed_at = fixed_at.expect("the sustained burn must trigger a rebuild");
    println!(
        "\nregression at tick {regress_tick}, rebuild at tick {fixed_at}: \
         detection-to-repair in {} virtual-clock ticks",
        fixed_at - regress_tick
    );

    // Tail-latency attribution: join the slow log with local records
    // plus the legs the telemetry frames shipped.
    let collector = collector.lock().expect("collector");
    let mut table = AttributionTable::new();
    let rows = table.observe_slow_log(&slow_log.take(), &local_records, collector.legs());
    println!("\nslow-log attribution ({} entries):", rows.len());
    for (trace, ns, cause) in rows.iter().take(3) {
        println!("  trace {trace:#x}: {:.1} ms — {}", *ns as f64 / 1e6, cause.name());
    }
    println!("\nattribution table:\n{}", table.to_jsonl());
    println!("telemetry ledger: {:?}", collector.stats());
    println!("cluster picture: {} completed ops", collector.cluster_metrics().completed);
    assert!(rows.iter().all(|(_, _, c)| c.name() == "cold_io"));
    assert_eq!(ctl.metrics().burn_alerts, 1);
    println!("\nburn alert detected, shard rebuilt, cold I/O blamed, zero failed reads — done.");
}
