//! The deterministic A/B chaos driver: replays a scripted
//! [`Scenario`] against a sharded service with the controller on or
//! off, under one seed, and reports what happened.
//!
//! One [`run_cell`] call is one cell of the chaos matrix. The workload
//! is generated purely from `(seed, phase, tick)` by the scenario DSL,
//! faults are mapped from key-space fractions to live shards at
//! injection time, and the driver issues every query synchronously from
//! one thread — so under a virtual clock the *entire* cell, controller
//! decisions included, is a deterministic function of the seed. The A/B
//! comparison (same scenario, same seed, controller on vs off) is
//! therefore free of sampling noise: any difference in degraded reads
//! or tail latency is the controller's doing.

use std::time::Duration;

use iqs_shard::{FaultMode, HealthPolicy, ShardConfig, ShardedService};
use iqs_testkit::scenario::{Scenario, ScriptedFault};
use iqs_testkit::ClockHandle;

use crate::{Controller, CtlConfig, CtlError, Decision};

/// Cluster and workload shape for one chaos cell.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Elements in the dataset (ids and keys `0..elements`, weights
    /// cycling `1.0..=7.0`).
    pub elements: usize,
    /// Initial shard count.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Draws per query.
    pub sample_size: u32,
    /// Per-attempt scatter deadline; a scripted zombie delay longer
    /// than this turns every touched query into a deadline-missed
    /// failover.
    pub scatter_deadline: Duration,
    /// Shared time source for the service, the controller, and the
    /// driver's inter-tick sleeps.
    pub clock: ClockHandle,
    /// Master seed: workload generation, the service's sampling
    /// streams, and therefore every controller decision derive from it.
    pub seed: u64,
    /// Controller tuning for the "controller on" arm.
    pub ctl: CtlConfig,
}

impl ChaosConfig {
    /// The standard cell shape on the given clock: 512 elements over 4
    /// shards × 1 replica, 8 draws per query, a 25 ms scatter deadline
    /// (under the 40 ms scripted zombie delay), and controller
    /// thresholds tightened so the short CI scenarios can trip them.
    #[must_use]
    pub fn on_clock(clock: ClockHandle, seed: u64) -> ChaosConfig {
        ChaosConfig {
            elements: 512,
            shards: 4,
            replicas: 1,
            sample_size: 8,
            scatter_deadline: Duration::from_millis(25),
            clock,
            seed,
            ctl: CtlConfig {
                hot_ticks: 2,
                cold_ticks: 3,
                min_interval_queries: 24,
                max_shards: 10,
                ..CtlConfig::default()
            },
        }
    }
}

/// What one chaos cell observed.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CellReport {
    /// Scenario name.
    pub scenario: String,
    /// Whether the controller was running.
    pub controller: bool,
    /// Queries issued.
    pub queries: u64,
    /// Queries that returned an error (the matrix requires zero).
    pub failed: u64,
    /// Queries that returned with the `degraded` flag set.
    pub degraded: u64,
    /// Draws lost to degraded reads, summed over all queries.
    pub missing: u64,
    /// Router end-to-end latency p50, in nanoseconds (0 when empty).
    pub p50_ns: u64,
    /// Router end-to-end latency p99, in nanoseconds (0 when empty).
    pub p99_ns: u64,
    /// Controller splits performed.
    pub splits: u64,
    /// Controller merges performed.
    pub merges: u64,
    /// Controller replica rebuilds performed.
    pub rebuilds: u64,
    /// Shard count when the cell ended.
    pub final_shards: usize,
}

/// Runs one cell: the scenario against a fresh service, with the
/// controller on or off. See the module docs for the determinism
/// argument.
///
/// # Errors
/// [`CtlError`] when the service cannot be built, a fault cannot be
/// injected, or a controller action fails. Query-level errors do NOT
/// abort the cell — they are counted in [`CellReport::failed`], which
/// the scenario matrix asserts is zero.
pub fn run_cell(
    scenario: &Scenario,
    cfg: &ChaosConfig,
    controller_on: bool,
) -> Result<CellReport, CtlError> {
    let n = cfg.elements;
    let elements: Vec<(u64, f64, f64)> =
        (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 7) as f64)).collect();
    let svc = ShardedService::new(
        elements,
        ShardConfig {
            shards: cfg.shards,
            replicas: cfg.replicas,
            workers_per_replica: 1,
            scatter_deadline: cfg.scatter_deadline,
            health: HealthPolicy::default(),
            seed: cfg.seed,
            clock: cfg.clock.clone(),
            ..ShardConfig::default()
        },
    )?;
    let mut ctl =
        if controller_on { Some(Controller::new(svc.clone(), cfg.ctl.clone())?) } else { None };
    let mut client = svc.client();
    let faults = svc.fault_plan();
    let top_key = (n - 1) as f64;

    let mut report = CellReport {
        scenario: scenario.name.to_string(),
        controller: controller_on,
        queries: 0,
        failed: 0,
        degraded: 0,
        missing: 0,
        p50_ns: 0,
        p99_ns: 0,
        splits: 0,
        merges: 0,
        rebuilds: 0,
        final_shards: 0,
    };

    for (pi, phase) in scenario.phases.iter().enumerate() {
        for tick in 0..phase.ticks {
            // Scripted faults due this tick, mapped onto the *current*
            // topology (the script is shard-agnostic).
            for f in phase.faults.iter().filter(|f| f.at_tick == tick) {
                let key = f.key_frac.clamp(0.0, 1.0) * top_key;
                let spans = svc.shard_spans();
                let shard = spans
                    .iter()
                    .position(|&(lo, hi)| key >= lo && key <= hi)
                    .unwrap_or(spans.len().saturating_sub(1));
                let replica = f.replica.min(cfg.replicas.saturating_sub(1));
                let mode = match f.fault {
                    ScriptedFault::Kill => FaultMode::Down,
                    ScriptedFault::Delay(ms) => FaultMode::Delay(Duration::from_millis(ms)),
                };
                faults.set(shard, replica, mode)?;
            }

            // The tick's byte-identical query stream. Fractions map to
            // integer key endpoints so every range contains at least
            // one element (no spurious EmptyRange "failures").
            for (lo_f, hi_f) in scenario.ranges_for_tick(cfg.seed, pi, tick) {
                let x = (lo_f * top_key).floor();
                let y = (hi_f * top_key).ceil().min(top_key);
                report.queries += 1;
                match client.sample_wr(Some((x, y)), cfg.sample_size) {
                    Ok(drawn) => {
                        if drawn.degraded {
                            report.degraded += 1;
                        }
                        report.missing += drawn.missing as u64;
                    }
                    Err(_) => report.failed += 1,
                }
            }

            // One control interval per scenario tick; the off arm
            // sleeps identically so both arms share a timeline.
            cfg.clock.sleep(cfg.ctl.tick);
            if let Some(ctl) = &mut ctl {
                for d in ctl.tick()? {
                    match d {
                        Decision::Split { .. } => report.splits += 1,
                        Decision::Merge { .. } => report.merges += 1,
                        Decision::Rebuild { .. } => report.rebuilds += 1,
                    }
                }
            }
        }
    }

    let m = svc.metrics();
    report.p50_ns = m.router.latency.quantile(0.50).map_or(0, |d| d.as_nanos() as u64);
    report.p99_ns = m.router.latency.quantile(0.99).map_or(0, |d| d.as_nanos() as u64);
    report.final_shards = svc.shard_count();
    Ok(report)
}

/// Runs every scenario in the matrix twice (controller on, then off)
/// and returns the paired reports in matrix order.
///
/// # Errors
/// As for [`run_cell`].
pub fn run_matrix(
    scenarios: &[Scenario],
    cfg: &ChaosConfig,
) -> Result<Vec<(CellReport, CellReport)>, CtlError> {
    scenarios.iter().map(|sc| Ok((run_cell(sc, cfg, true)?, run_cell(sc, cfg, false)?))).collect()
}
