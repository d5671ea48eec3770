//! Registered statistical gates with a suite-wide error budget.
//!
//! Every distributional check in the workspace — chi-square
//! goodness-of-fit, G-test independence, EM-vs-RAM equivalence — runs
//! through [`run`] under a name listed in the [`MANIFEST`]. The harness
//! enforces three suite-wide properties no ad-hoc assert can:
//!
//! * **Family-wise error control.** The whole suite spends one
//!   [`FAMILY_ALPHA`] = 1e-6 budget. Each gate gets an equal
//!   Bonferroni slice ([`alpha_for`]), and *within* a gate the trials
//!   are judged by a Holm step-down ([`holm_rejects`]), which dominates
//!   plain Bonferroni at equal family-wise level. Adding a gate without
//!   registering it in the manifest is a panic, so the budget can never
//!   be diluted silently.
//! * **Cheap-first sequential escalation.** Gates first draw at scale 1.
//!   If any trial looks suspicious (p < [`SUSPICION_P`]) the gate
//!   re-draws *everything* at [`ESCALATION_FACTOR`]× the sample size
//!   under an independent derived seed and judges only the escalated
//!   draw. A true distributional bug gets more damning with 10× data; a
//!   statistical fluctuation dissolves. This keeps the common case fast
//!   without raising the false-alarm rate.
//! * **Actionable failures.** A rejected gate panics with the statistic,
//!   degrees of freedom, p-value, both seeds, and the exact command that
//!   replays the failure.
//!
//! On success each gate prints one machine-greppable line
//! (`gate <name>: ...`); CI diffs those lines across two same-seed runs
//! to demonstrate determinism.

use iqs_stats::GofResult;

use crate::seed;

/// Family-wise false-alarm budget for the entire test suite.
pub const FAMILY_ALPHA: f64 = 1e-6;

/// Scale-1 p-value below which a gate escalates to a larger draw.
pub const SUSPICION_P: f64 = 1e-3;

/// Sample-size multiplier applied when a gate escalates.
pub const ESCALATION_FACTOR: usize = 10;

/// Every statistical gate in the workspace. CI greps the test tree to
/// verify no distributional assert bypasses this registry, and
/// [`alpha_for`] panics on names missing from it, so the list is the
/// single source of truth for the Bonferroni split.
pub const MANIFEST: &[&str] = &[
    "range_samplers_chi_square",
    "batch_api_chi_square",
    "em_vs_ram_distribution",
    "em_shuffle_uniform",
    "spatial_sampling_distributions",
    "weighted_spatial_chi_square",
    "successive_queries_g_test",
    "batch_positions_g_test",
    "set_union_g_test",
    "serve_aggregate_distribution",
    "shard_two_level_chi_square",
    "pipelined_kernels_chi_square",
    "net_sim_cluster_chi_square",
    "net_multi_process_chi_square",
    "tiered_cold_path_chi_square",
    "shard_rebalance_chi_square",
    "service_successive_queries_g_test",
    "testkit_gate_selfcheck",
];

/// The per-gate significance level: [`FAMILY_ALPHA`] split evenly over
/// the [`MANIFEST`]. Panics if `name` is not registered — an
/// unregistered gate would silently spend budget the other gates think
/// they own.
#[must_use]
pub fn alpha_for(name: &str) -> f64 {
    assert!(
        MANIFEST.contains(&name),
        "statistical gate `{name}` is not in testkit::gate::MANIFEST; \
         register it there so the family-wise budget accounts for it"
    );
    FAMILY_ALPHA / MANIFEST.len() as f64
}

/// One hypothesis test performed by a gate.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Human-readable label, e.g. the structure or client under test.
    pub label: String,
    /// The test statistic (chi-square or G).
    pub statistic: f64,
    /// Degrees of freedom of the reference distribution.
    pub dof: f64,
    /// Upper-tail p-value of the statistic.
    pub p_value: f64,
}

impl Trial {
    /// Wraps a [`GofResult`] from `iqs-stats` under a label.
    #[must_use]
    pub fn from_gof(label: impl Into<String>, gof: &GofResult) -> Trial {
        Trial { label: label.into(), statistic: gof.statistic, dof: gof.dof, p_value: gof.p_value }
    }

    /// Wraps a bare p-value (statistic/dof unavailable or meaningless).
    #[must_use]
    pub fn from_p(label: impl Into<String>, p_value: f64) -> Trial {
        Trial { label: label.into(), statistic: f64::NAN, dof: f64::NAN, p_value }
    }
}

/// What a successful gate run observed; returned by [`run`] so tests
/// can make additional non-statistical assertions on the draw.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// The registered gate name.
    pub name: &'static str,
    /// The per-gate alpha the trials were judged at.
    pub alpha: f64,
    /// Whether the gate re-drew at [`ESCALATION_FACTOR`]× scale.
    pub escalated: bool,
    /// The trials from the judged draw (the escalated one if any).
    pub trials: Vec<Trial>,
}

/// Holm step-down: which of `ps` are rejected at family level `alpha`.
/// Sorts the p-values ascending and rejects while
/// p₍ᵢ₎ ≤ alpha / (k − i); stops at the first acceptance. Returns flags
/// aligned with the input order.
#[must_use]
pub fn holm_rejects(ps: &[f64], alpha: f64) -> Vec<bool> {
    let k = ps.len();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| ps[a].total_cmp(&ps[b]));
    let mut rejected = vec![false; k];
    for (rank, &idx) in order.iter().enumerate() {
        if ps[idx] <= alpha / (k - rank) as f64 {
            rejected[idx] = true;
        } else {
            break;
        }
    }
    rejected
}

/// Runs the registered gate `name`.
///
/// `draw(seed, scale)` performs the gate's sampling experiment: draw
/// `scale`× the baseline sample size using RNGs seeded (only) from
/// `seed`, and return one [`Trial`] per hypothesis tested. The harness
/// calls it at scale 1 first, escalates to [`ESCALATION_FACTOR`]× under
/// an independent seed if any scale-1 trial dips below [`SUSPICION_P`],
/// judges the final draw by Holm step-down at [`alpha_for`]`(name)`,
/// and panics with a full replay report on rejection.
pub fn run<F>(name: &'static str, mut draw: F) -> GateReport
where
    F: FnMut(u64, usize) -> Vec<Trial>,
{
    let alpha = alpha_for(name);
    let suite = seed::suite_seed();
    let base_seed = seed::derive(suite, name);

    let first = draw(base_seed, 1);
    assert!(!first.is_empty(), "gate `{name}` returned no trials");
    let suspicious = first.iter().any(|t| t.p_value < SUSPICION_P);

    let (trials, escalated, judged_seed) = if suspicious {
        let esc_seed = seed::derive(base_seed, "escalation");
        (draw(esc_seed, ESCALATION_FACTOR), true, esc_seed)
    } else {
        (first, false, base_seed)
    };
    assert!(!trials.is_empty(), "gate `{name}` returned no trials at escalated scale");

    let ps: Vec<f64> = trials.iter().map(|t| t.p_value).collect();
    let rejects = holm_rejects(&ps, alpha);
    if rejects.iter().any(|&r| r) {
        let mut report = format!(
            "statistical gate `{name}` REJECTED at alpha={alpha:.3e} \
             (family-wise {FAMILY_ALPHA:.1e} over {} gates{})\n",
            MANIFEST.len(),
            if escalated {
                format!(", after {ESCALATION_FACTOR}x escalation")
            } else {
                String::new()
            },
        );
        for (t, &rej) in trials.iter().zip(&rejects) {
            report.push_str(&format!(
                "  {} {}: statistic={:.4} dof={} p={:.6e}\n",
                if rej { "REJECT" } else { "accept" },
                t.label,
                t.statistic,
                t.dof,
                t.p_value,
            ));
        }
        report.push_str(&format!(
            "  suite seed: {suite:#x}  gate seed: {base_seed:#x}  judged seed: {judged_seed:#x}\n\
             replay: {}={suite:#x} cargo test -q {name}",
            seed::ENV_VAR,
        ));
        panic!("{report}");
    }

    let min_p = ps.iter().cloned().fold(f64::INFINITY, f64::min);
    // The leading newline keeps the report at column 0 even when libtest
    // has already emitted unterminated progress dots, so `grep "^gate "`
    // reliably extracts every report.
    println!(
        "\ngate {name}: ok trials={} min_p={min_p:.6e} escalated={escalated} seed={judged_seed:#x}",
        trials.len(),
    );
    GateReport { name, alpha, escalated, trials }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_gets_an_equal_slice_of_the_family_budget() {
        for name in MANIFEST {
            let a = alpha_for(name);
            assert!((a - FAMILY_ALPHA / MANIFEST.len() as f64).abs() < 1e-18);
        }
    }

    #[test]
    #[should_panic(expected = "not in testkit::gate::MANIFEST")]
    fn unregistered_gates_panic() {
        let _ = alpha_for("rogue_unbudgeted_gate");
    }

    #[test]
    fn holm_step_down_rejects_in_order_and_stops_at_first_acceptance() {
        // k=3, alpha=0.05: thresholds 0.05/3, 0.05/2, 0.05.
        let flags = holm_rejects(&[0.012, 0.04, 0.001], 0.05);
        // 0.001 <= 0.0167 reject; 0.012 <= 0.025 reject; 0.04 <= 0.05 reject.
        assert_eq!(flags, vec![true, true, true]);
        // Stopping: smallest p fails its own threshold (0.03 > 0.05/2),
        // so nothing is rejected even though 0.04 would pass the laxer
        // second-stage threshold of 0.05.
        let flags = holm_rejects(&[0.04, 0.03], 0.05);
        assert_eq!(flags, vec![false, false]);
        // Partial: the small p rejects, the large one survives.
        let flags = holm_rejects(&[0.06, 0.001], 0.05);
        assert_eq!(flags, vec![false, true]);
    }

    /// The acceptance-demo self-check: a healthy draw passes without
    /// escalation, a fluctuating one escalates and recovers, and a
    /// genuinely wrong distribution is rejected with a replay report.
    #[test]
    fn gate_selfcheck_passes_escalates_and_rejects() {
        // Healthy: exact uniform p-values nowhere near suspicion.
        let report = run("testkit_gate_selfcheck", |_, _| vec![Trial::from_p("healthy", 0.5)]);
        assert!(!report.escalated);

        // Fluctuation: suspicious at scale 1, clean at 10x. The closure
        // keys off the scale the harness passes in.
        let report = run("testkit_gate_selfcheck", |_, scale| {
            let p = if scale == 1 { SUSPICION_P / 2.0 } else { 0.4 };
            vec![Trial::from_p("fluctuation", p)]
        });
        assert!(report.escalated);

        // Genuine bug: stays damning at 10x; must panic with the seeds
        // and replay command in the message.
        let err = std::panic::catch_unwind(|| {
            run("testkit_gate_selfcheck", |_, _| vec![Trial::from_p("broken_sampler", 1e-12)])
        })
        .expect_err("a persistently tiny p-value must reject");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload should be the report string");
        assert!(msg.contains("REJECTED"));
        assert!(msg.contains("broken_sampler"));
        assert!(msg.contains("replay:"));
        assert!(msg.contains("cargo test -q testkit_gate_selfcheck"));
        assert!(msg.contains(seed::ENV_VAR));
    }
}
