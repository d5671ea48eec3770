//! `ledger compare`: two sets of result files, row by row.
//!
//! The tool behind the repeatability criterion (two sets of runs of the
//! same code must agree within the benchmark's own bounds) and behind
//! every later change's before/after table.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::RunFile;
use crate::stats::quartiles;

/// Values of one metric of one workload across a set of result files;
/// `None` when any file of the set lacks the workload or the metric.
fn across(set: &[RunFile], workload: &str, name: &str, per_layer: bool) -> Option<Vec<f64>> {
    set.iter()
        .map(|f| {
            let w = f.workloads.iter().find(|w| w.name == workload)?;
            let list = if per_layer { &w.per_layer } else { &w.end_to_end };
            Some(list.iter().find(|m| m.name == name)?.value)
        })
        .collect()
}

/// What makes the two sets incomparable before any number is read:
/// different settings (the exact counters are functions of them), or a
/// workload whose requests failed or whose draws the chi-square check
/// rejected (a request that fails fast would read as a gain).
fn unfit(a: &[RunFile], b: &[RunFile]) -> Vec<String> {
    let mut problems = Vec::new();
    let settings = |f: &RunFile| (f.seed, f.seconds.to_bits(), f.segment_ms);
    for (set, files) in [("a", a), ("b", b)] {
        for (i, f) in files.iter().enumerate() {
            if settings(f) != settings(&a[0]) {
                problems.push(format!(
                    "set {set} file {}: seed {} seconds {} segment_ms {} differ from set a file 1's {} {} {}",
                    i + 1, f.seed, f.seconds, f.segment_ms, a[0].seed, a[0].seconds, a[0].segment_ms
                ));
            }
            for w in &f.workloads {
                if !w.correct || w.failed > 0 || w.attempted == 0 {
                    problems.push(format!(
                        "set {set} file {} {}: correct={} failed={} of {} attempted",
                        i + 1,
                        w.name,
                        w.correct,
                        w.failed,
                        w.attempted
                    ));
                }
            }
        }
    }
    problems
}

/// Distance between the quartiles of a set's runs as a share of their
/// median; 0 for a single run, whose spread is unknown.
fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q.p75 - q.p25) / q.p50
}

/// Compares set `b` against baseline set `a`, each of at least one
/// result file. Returns the printable report and whether the sets are
/// fit to compare, every (workload, metric) row is present, resolved and
/// within its bound, and every exact counter is identical in all files.
///
/// A row whose runs spread wider than its bound within either set is
/// reported as unresolved, not as unchanged: the host was disturbed
/// while it was measured. It passes only when every run of `b` reads
/// better than every run of `a`.
pub fn compare(a: &[RunFile], b: &[RunFile]) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<9} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a (median)", "b (median)", "delta", "bound"
    );
    let mut problems = unfit(a, b);
    let mut ok = true;
    for w in WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (across(a, w, m.name, false), across(b, w, m.name, false))
            else {
                problems.push(format!("{w} {}: missing from a result file", m.name));
                continue;
            };
            let (ma, mb) = (quartiles(&va).p50, quartiles(&vb).p50);
            let delta = (mb - ma) / ma;
            let higher = m.better == "higher";
            let all_better =
                vb.iter().all(|&y| va.iter().all(|&x| if higher { y > x } else { y < x }));
            let widest = spread(&va).max(spread(&vb));
            let flag = if (if higher { -delta } else { delta }) > m.bound {
                "  WORSE THAN BOUND".to_string()
            } else if widest > m.bound && !all_better {
                format!("  UNRESOLVED: runs of one set spread {:.1}%", widest * 100.0)
            } else {
                String::new()
            };
            ok &= flag.is_empty();
            out.push_str(&format!(
                "{:<18} {:<9} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%{flag}\n",
                w,
                m.name,
                ma,
                mb,
                delta * 100.0,
                m.bound * 100.0
            ));
        }
    }
    let mut differing = Vec::new();
    for w in WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (Some(mut values), Some(vb)) =
                (across(a, w, m.name, true), across(b, w, m.name, true))
            else {
                problems.push(format!("{w} {}: missing from a result file", m.name));
                continue;
            };
            values.extend(vb);
            if values.windows(2).any(|p| p[0].to_bits() != p[1].to_bits()) {
                differing.push(format!("  {w} {}: {values:?}  (moves {})", m.name, m.moves));
            }
        }
    }
    if differing.is_empty() {
        out.push_str("exact counters: identical in every file\n");
    } else {
        ok = false;
        out.push_str("exact counters that differ (values in file order, a then b):\n");
        out.push_str(&differing.join("\n"));
        out.push('\n');
    }
    if !problems.is_empty() {
        ok = false;
        out.push_str("not comparable:\n");
        for p in &problems {
            out.push_str(&format!("  {p}\n"));
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Metric, WorkloadResult};

    /// A result file in which every workload reads the same.
    fn file(qps: f64, p50: f64, swaps: f64) -> RunFile {
        let m = |name: &str, value: f64| Metric {
            name: name.to_string(),
            unit: String::new(),
            value,
            p25: value,
            p50: value,
            p75: value,
        };
        let workload = |name: &&str| WorkloadResult {
            name: name.to_string(),
            correct: true,
            attempted: 1,
            failed: 0,
            chi_square_p: 0.5,
            end_to_end: vec![m("qps", qps), m("p50_us", p50), m("setup_s", 1.0)],
            per_layer: PER_LAYER
                .iter()
                .map(|d| m(d.name, if d.name == "serve.snapshot_swaps" { swaps } else { 1.0 }))
                .collect(),
        };
        RunFile {
            seed: 1,
            seconds: 10.0,
            segment_ms: 500,
            workloads: WORKLOADS.iter().map(workload).collect(),
            claim: None,
        }
    }

    #[test]
    fn rows_within_bound_pass_and_use_per_set_medians() {
        // Written and read back, as the command does it.
        let reread = |f: RunFile| RunFile::from_json(&f.to_json()).unwrap();
        let a = [
            reread(file(100.0, 8.0, 3.0)),
            reread(file(98.0, 8.2, 3.0)),
            reread(file(104.0, 8.1, 3.0)),
        ];
        let b = [
            reread(file(95.0, 8.5, 3.0)),
            reread(file(96.0, 8.6, 3.0)),
            reread(file(91.0, 8.4, 3.0)),
        ];
        let (report, ok) = compare(&a, &b);
        assert!(ok, "{report}");
        // Medians 100 -> 95 and 8.1 -> 8.5, once per workload.
        assert_eq!(report.matches("-5.00%").count(), WORKLOADS.len(), "{report}");
        assert_eq!(report.matches("+4.94%").count(), WORKLOADS.len(), "{report}");
        assert!(report.contains("identical in every file"));
    }

    #[test]
    fn a_row_beyond_its_bound_or_a_differing_counter_fails() {
        let (report, ok) = compare(&[file(100.0, 8.0, 3.0)], &[file(89.0, 8.0, 3.0)]);
        assert!(!ok);
        assert_eq!(report.matches("WORSE THAN BOUND").count(), WORKLOADS.len(), "{report}");
        // Direction matters: higher qps and lower latency are never flagged.
        assert!(compare(&[file(100.0, 8.0, 3.0)], &[file(200.0, 4.0, 3.0)]).1);
        let (report, ok) = compare(&[file(100.0, 8.0, 3.0)], &[file(100.0, 8.0, 4.0)]);
        assert!(!ok);
        assert!(report.contains("serve-s64 serve.snapshot_swaps: [3.0, 4.0]"), "{report}");
    }

    #[test]
    fn a_set_that_spreads_wider_than_the_bound_is_unresolved_not_unchanged() {
        // Medians agree, but set b was measured on a disturbed host.
        let a = [file(100.0, 8.0, 3.0), file(101.0, 8.0, 3.0), file(99.0, 8.0, 3.0)];
        let b = [file(100.0, 8.0, 3.0), file(70.0, 8.0, 3.0), file(130.0, 8.0, 3.0)];
        let (report, ok) = compare(&a, &b);
        assert!(!ok);
        assert_eq!(report.matches("UNRESOLVED").count(), WORKLOADS.len(), "{report}");
        assert!(report.contains("spread 30.0%"), "{report}");
        // Unless every run of b reads better than every run of a.
        let b = [file(200.0, 8.0, 3.0), file(140.0, 8.0, 3.0), file(260.0, 8.0, 3.0)];
        let (report, ok) = compare(&a, &b);
        assert!(ok, "{report}");
    }

    #[test]
    fn failed_requests_missing_rows_and_other_settings_fail_whatever_the_numbers() {
        let good = || file(100.0, 8.0, 3.0);
        assert!(compare(&[good()], &[good()]).1);

        // Requests that fail fast read as a gain; the gate must not.
        let mut failing = file(200.0, 4.0, 3.0);
        failing.workloads[0].failed = 2;
        let (report, ok) = compare(&[good()], &[failing]);
        assert!(!ok);
        assert!(report.contains("set b file 1 serve-s64: correct=true failed=2 of 1"), "{report}");
        let mut rejected = good();
        rejected.workloads[0].correct = false;
        assert!(!compare(&[rejected], &[good()]).1);

        // A set that omits a workload, an end-to-end metric or a counter.
        let mut no_workload = good();
        no_workload.workloads.remove(0);
        let (report, ok) = compare(&[good()], &[good(), no_workload]);
        assert!(!ok);
        assert!(report.contains("serve-s64 qps: missing from a result file"), "{report}");
        let mut no_metric = good();
        no_metric.workloads[0].end_to_end.remove(1);
        let (report, ok) = compare(&[no_metric], &[good()]);
        assert!(!ok);
        assert!(report.contains("serve-s64 p50_us: missing"), "{report}");
        let mut no_counter = good();
        no_counter.workloads[0].per_layer.clear();
        assert!(!compare(&[good()], &[no_counter]).1);

        // The exact counters are functions of seed, seconds and segment length.
        for change in [
            (|f: &mut RunFile| f.seed = 2) as fn(&mut RunFile),
            |f| f.seconds = 11.0,
            |f| f.segment_ms = 250,
        ] {
            let mut other = good();
            change(&mut other);
            let (report, ok) = compare(&[good()], &[other]);
            assert!(!ok);
            assert!(report.contains("set b file 1: seed"), "{report}");
        }
    }
}
