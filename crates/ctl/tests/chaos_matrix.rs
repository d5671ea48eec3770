//! The deterministic chaos scenario matrix (experiment E23's test
//! form): every scripted scenario replayed A/B — controller on vs off —
//! on a virtual clock, plus the registered `ctl_rebalance_chi_square`
//! gate showing that autonomous splits and merges never disturb the
//! sampling marginals.

use std::time::Duration;

use iqs_ctl::chaos::{run_matrix, ChaosConfig};
use iqs_ctl::{Controller, CtlConfig};
use iqs_shard::{ShardConfig, ShardedService};
use iqs_stats::chisq::{chi_square_gof, weight_probs};
use iqs_testkit::{gate, seed, Scenario, Trial, VirtualClock};

/// The whole matrix: byte-identical across same-seed runs, zero failed
/// reads in every cell, and the controller measurably better than no
/// controller where the script gives it something to fix.
#[test]
fn chaos_matrix_is_deterministic_and_the_controller_earns_its_keep() {
    let sd = seed::derive(seed::suite_seed(), "chaos_matrix");
    let run = || {
        let vc = VirtualClock::new();
        let cfg = ChaosConfig::on_clock(vc.handle(), sd);
        run_matrix(&Scenario::matrix(), &cfg).expect("matrix runs")
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed must replay the matrix byte-identically");

    for (on, off) in &first {
        // The headline safety claim: across every cell, with faults,
        // hotspots, flash crowds, and live topology surgery, not one
        // read ever *fails* — degradation is always graceful.
        assert_eq!(on.failed, 0, "{}: controller-on cell had failed reads", on.scenario);
        assert_eq!(off.failed, 0, "{}: controller-off cell had failed reads", off.scenario);
        // Same scripted workload on both arms.
        assert_eq!(on.queries, off.queries, "{}: workload must be identical", on.scenario);
        assert!(on.queries > 0);
    }

    // Skewed and shifting-hotspot cells: sustained concentration must
    // trigger at least one split.
    let skewed = &first[0].0;
    assert!(skewed.splits >= 1, "skewed cell: controller never split ({skewed:?})");
    let shifting = &first[1].0;
    assert!(shifting.splits >= 1, "shifting cell: controller never split ({shifting:?})");

    // Replica-kill cell: the scripted zombie replica (40 ms delay vs a
    // 25 ms scatter deadline) trips its breaker; the controller must
    // rebuild around it, while the controller-off arm pays the deadline
    // wait and the degraded read for the rest of the run.
    let (on, off) = &first[3];
    assert!(on.rebuilds >= 1, "replica_kill: controller never rebuilt ({on:?})");
    assert!(
        on.degraded * 2 < off.degraded,
        "replica_kill: controller-on must degrade less than half as often \
         (on {} vs off {})",
        on.degraded,
        off.degraded
    );
    assert!(
        on.p99_ns <= off.p99_ns,
        "replica_kill: controller-on p99 {}ns must not exceed controller-off {}ns",
        on.p99_ns,
        off.p99_ns
    );
    assert!(on.missing < off.missing, "controller-on must lose fewer draws");
}

/// Registered gate: the sampling *marginals* stay exactly `w(e)/W`
/// while the controller splits and merges shards under live load. The
/// draw interleaves hotspot load (which drives the controller to act)
/// with full-range probe samples whose id histogram is judged against
/// the weight distribution — across every intermediate topology.
#[test]
fn ctl_rebalance_chi_square() {
    gate::run("ctl_rebalance_chi_square", |seed, scale| {
        let n = 256usize;
        let elements: Vec<(u64, f64, f64)> =
            (0..n).map(|i| (i as u64, i as f64, 1.0 + (i % 7) as f64)).collect();
        let weights: Vec<f64> = elements.iter().map(|&(_, _, w)| w).collect();
        let vc = VirtualClock::new();
        let clock = vc.handle();
        let svc = ShardedService::new(
            elements,
            ShardConfig {
                shards: 2,
                replicas: 1,
                seed,
                clock: clock.clone(),
                ..ShardConfig::default()
            },
        )
        .expect("valid build");
        let mut ctl = Controller::new(
            svc.clone(),
            CtlConfig {
                tick: Duration::from_millis(10),
                split_share: 0.45,
                merge_share: 0.3,
                hot_ticks: 1,
                cold_ticks: 2,
                min_shards: 1,
                max_shards: 6,
                min_interval_queries: 8,
                burn_ticks: 2,
            },
        )
        .expect("valid config");
        ctl.tick().expect("baseline tick");

        let mut client = svc.client();
        let mut counts = vec![0u64; n];
        // Scale multiplies *rounds*, not per-round load: the per-tick
        // load mix (and therefore the controller's decision sequence
        // per round) is identical at every escalation level.
        let rounds = 30 * scale;
        for round in 0..rounds {
            // Hotspot load wandering the key space: drives splits where
            // it sits, merges where it left.
            let hot = (round * 37) % n;
            let (hx, hy) = (hot as f64, (hot + 8).min(n - 1) as f64);
            for _ in 0..10 {
                let drawn = client.sample_wr(Some((hx, hy)), 4).expect("hot query");
                assert!(!drawn.degraded, "healthy cluster must not degrade");
            }
            // Full-range probes: the draws under statistical test.
            for _ in 0..4 {
                let drawn = client.sample_wr(None, 16).expect("probe");
                assert_eq!(drawn.ids.len(), 16);
                for id in drawn.ids {
                    counts[id as usize] += 1;
                }
            }
            ctl.tick().expect("controller tick");
        }

        // The gate is vacuous unless the controller actually moved the
        // topology underneath the probes.
        let m = ctl.metrics();
        assert!(m.splits >= 1, "controller never split under hotspot load: {m:?}");
        assert!(m.merges >= 1, "controller never merged a cold pair: {m:?}");

        let gof = chi_square_gof(&counts, &weight_probs(&weights));
        vec![Trial::from_gof("marginals across controller splits+merges", &gof)]
    });
}
