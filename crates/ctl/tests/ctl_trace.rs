//! Controller decisions leave flight-recorder evidence: every split,
//! merge, and rebuild emits a [`Phase::CtlDecision`] record on the
//! controller's own trace, reconstructable with
//! [`TraceView::ctl_decisions`]. Kept as the only test in this binary —
//! the recorder is process-global.
//!
//! [`Phase::CtlDecision`]: iqs_obs::recorder::Phase::CtlDecision
//! [`TraceView::ctl_decisions`]: iqs_obs::TraceView::ctl_decisions

use iqs_ctl::{Controller, CtlConfig, Decision};
use iqs_obs::{recorder, Phase, TraceView};
use iqs_shard::{FaultMode, ShardConfig, ShardedService};
use iqs_testkit::VirtualClock;

#[test]
fn controller_actions_are_traced_with_action_codes() {
    let vc = VirtualClock::new();
    recorder::install(&vc.handle(), 8192);

    let clock = vc.handle();
    let elements: Vec<(u64, f64, f64)> = (0..256).map(|i| (i, i as f64, 1.0)).collect();
    let svc = ShardedService::new(
        elements,
        ShardConfig { shards: 2, replicas: 1, clock: clock.clone(), ..ShardConfig::default() },
    )
    .expect("build");
    let mut ctl = Controller::new(
        svc.clone(),
        CtlConfig { hot_ticks: 2, min_interval_queries: 8, ..CtlConfig::default() },
    )
    .expect("valid config");
    assert_ne!(ctl.trace_id(), 0, "installed recorder must allocate a controller trace");

    // Two hot intervals against shard 0 force a split on the third tick.
    let mut client = svc.client();
    assert!(ctl.tick().expect("baseline").is_empty());
    for _ in 0..2 {
        for _ in 0..30 {
            client.sample_wr(Some((0.0, 100.0)), 4).expect("sample");
        }
        ctl.tick().expect("tick");
    }
    assert_eq!(ctl.metrics().splits, 1);

    // A downed replica trips its breaker (three consecutive failures
    // under the default policy) and forces a rebuild on the next tick.
    // The probe query *covers* shard 0's span so the leg is planned from
    // the cached weight and the failure is charged at submit — a partial
    // overlap would go dark at planning instead, bypassing the breaker.
    svc.fault_plan().set(0, 0, FaultMode::Down).expect("inject");
    let (lo, hi) = svc.shard_spans()[0];
    for _ in 0..3 {
        let degraded = client.sample_wr(Some((lo, hi)), 4).expect("degrades, not fails");
        assert!(degraded.degraded);
    }
    let decisions = ctl.tick().expect("tick");
    assert!(decisions.iter().any(|d| matches!(d, Decision::Rebuild { .. })), "{decisions:?}");

    recorder::disable();
    let records = recorder::drain();
    let view = TraceView::build(&records, ctl.trace_id());
    let actions = view.ctl_decisions();
    // One split of shard 0 (action code 1), then one rebuild of replica
    // 0/0 (action code 3, packed shard<<16 | replica).
    assert!(actions.contains(&(1, 0)), "split record missing from {actions:?}");
    assert!(actions.contains(&(3, 0)), "rebuild record missing from {actions:?}");
    assert_eq!(recorder::ctl_action_name(3), "rebuild_replica");
    // The controller's trace is its own: no query records bleed into it.
    assert!(view.records.iter().all(|r| r.phase == Phase::CtlDecision), "{:?}", view.records);
}
