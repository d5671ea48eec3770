//! The registered `slo_burn_rate_determinism` gate: the burn-rate
//! engine's interval diffing reconstructs a seeded latency stream's
//! exact bad fraction through both sliding windows, and the whole
//! evaluation replays byte-identically under one seed on the virtual
//! clock.
//!
//! The draw feeds a Bernoulli(p₀) good/bad latency stream through the
//! engine as *cumulative* histograms (exactly what the telemetry
//! collector hands it), then recovers the windows' good/bad counts
//! from the engine's own reported burn rates — so the statistical
//! judgment runs through the interval-diffing path, not around it.

use std::time::Duration;

use iqs_obs::HistogramSnapshot;
use iqs_slo::{Objective, SloEngine, SloKey};
use iqs_stats::chisq::chi_square_gof;
use iqs_testkit::gate::{self, Trial};
use iqs_testkit::VirtualClock;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The stream's bad-latency probability.
const P0: f64 = 0.2;
/// Ticks fed to the engine; the slow window covers all of them.
const TICKS: usize = 20;

fn objective() -> Objective {
    Objective {
        threshold: Duration::from_micros(1),
        target: 0.9,
        fast_window: Duration::from_secs(5),
        slow_window: Duration::from_secs(60),
        fast_burn: 1.0,
        slow_burn: 1.0,
    }
}

/// Feeds the seeded stream and returns the engine's final report plus
/// the per-window totals it saw.
fn feed(seed: u64, per_tick: usize) -> iqs_slo::HealthReport {
    let vc = VirtualClock::new();
    let mut engine = SloEngine::new(&vc.handle());
    let key = SloKey::Shard(0);
    engine.set_objective(key.clone(), objective()).expect("valid objective");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut cumulative = HistogramSnapshot::default();
    for _ in 0..TICKS {
        for _ in 0..per_tick {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            // 500 ns is well under the 1 µs threshold; 50 µs is bad.
            let ns = if u < P0 { 50_000 } else { 500 };
            cumulative.buckets[iqs_obs::log2_bucket(ns)] += 1;
        }
        engine.observe(&key, cumulative);
        vc.advance(Duration::from_secs(1));
    }
    engine.evaluate().expect("monotone series")
}

/// Inverts `burn = (bad/total)/(1-target)` back to the window's bad
/// count — the engine's output is the only source of the judged data.
fn window_counts(burn: f64, total: u64) -> Vec<u64> {
    let bad = (burn * (1.0 - objective().target) * total as f64).round() as u64;
    vec![total - bad, bad]
}

#[test]
fn slo_burn_rate_determinism() {
    gate::run("slo_burn_rate_determinism", |seed, scale| {
        let per_tick = 100 * scale;
        let report = feed(seed, per_tick);

        // Byte-identical replay: the same seed drives the same stream
        // through the same interval diffs to the same report, floats
        // and all.
        let replay = feed(seed, per_tick);
        assert_eq!(report, replay, "same-seed evaluations must be byte-identical");

        let status = report.shard_status(0).expect("tracked");
        // A 2.0 burn rate on a 1.0 threshold: the sustained incident
        // must read as alerting through both windows.
        assert!(status.alerting, "a p0={P0} stream burns at 2x budget: {status:?}");
        assert_eq!(
            status.slow_total,
            (TICKS * per_tick) as u64,
            "the slow window covers the whole stream"
        );
        // Observations land *before* each 1 s advance, so the 5 s fast
        // window's baseline is the tick-15 point and the interval holds
        // the last 4 ticks of traffic.
        assert_eq!(status.fast_total, (4 * per_tick) as u64, "the fast window holds 4 ticks");

        // The windows' recovered good/bad splits against Bernoulli(p0).
        let probs = vec![1.0 - P0, P0];
        let slow = chi_square_gof(&window_counts(status.slow_burn, status.slow_total), &probs);
        let fast = chi_square_gof(&window_counts(status.fast_burn, status.fast_total), &probs);
        vec![
            Trial::from_gof("slow-window bad fraction via interval diffing", &slow),
            Trial::from_gof("fast-window bad fraction via interval diffing", &fast),
        ]
    });
}
