//! Whole-command checks at a small data size: the metric vocabulary in
//! `BENCHMARK.json` is what the passes print, and the counters marked
//! exact really repeat.

use serde::Deserialize;

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{traced, untraced, Config};
use crate::system::{workload, Scale};

/// The program's flight recorder is one per process, and the traced
/// pass installs and drains it: passes must not overlap.
static ONE_PASS_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

const SMALL: Scale = Scale {
    n_main: 1 << 13,
    n_cold: 1 << 13,
    n_mixed: 1 << 11,
    warmup_div: 50,
    verify_samples: 40_000,
};

/// Two segments of 50 ms.
fn smoke(seed: u64) -> Config {
    Config { seed, seconds: 0.1, segment_ms: 50, scale: SMALL, pinned: false }
}

/// `BENCHMARK.json`, in the builder contract's schema. The vendored
/// serde reads fields in declaration order, which is the order the
/// contract lists them in.
#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadSpec>,
    end_to_end: Vec<EndToEndSpec>,
    per_layer: Vec<PerLayerSpec>,
}

#[derive(Deserialize)]
struct WorkloadSpec {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEndSpec {
    name: String,
    unit: String,
    better: String,
    /// Share of the parent's median by which the driver lets it worsen.
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayerSpec {
    name: String,
    unit: String,
    better: String,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json in the contract's schema and key order")
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_and_workloads_defined_here() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    assert!(spec
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n')));

    let listed: Vec<(&str, &str, &str)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    let defined: Vec<(&str, &str, &str)> =
        END_TO_END.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(listed, defined);
    // The driver's bound is the contract's to limit; `ledger compare`
    // holds a before/after table to a bound that is never the looser.
    let bounds: Vec<f64> = spec.end_to_end.iter().map(|m| m.bound).collect();
    for (own, &drivers) in END_TO_END.iter().zip(&bounds) {
        assert!(0.0 < own.bound && own.bound <= drivers && drivers <= 0.25, "{}", own.name);
    }
    let setup = END_TO_END.iter().position(|m| m.name == "setup_s").expect("setup_s is required");
    assert!(bounds.iter().all(|&b| b <= bounds[setup]), "setup_s takes the largest bound");

    let listed: Vec<(&str, &str, &str)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    let defined: Vec<(&str, &str, &str)> =
        PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(listed, defined);

    assert_eq!(spec.paths, ["ledger"]);
    assert!(spec.command.iter().any(|a| a == "ledger/Cargo.toml"));
    assert!((1..=60).contains(&spec.run_seconds));
}

/// The `key = value` lines of one `[section]` of a manifest.
fn section(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// This package is its own workspace root, so cargo reads neither the
/// repository's release profile nor its dependency table for it: both
/// are repeated in `ledger/Cargo.toml`, and must stay the repository's.
#[test]
fn this_package_builds_the_program_as_the_repository_does() {
    let read = |path: &str| {
        let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let (own, root) = (read("Cargo.toml"), read("../Cargo.toml"));
    let profile = section(&root, "[profile.release]");
    assert!(!profile.is_empty());
    assert_eq!(section(&own, "[profile.release]"), profile);
    let shared = section(&root, "[workspace.dependencies]");
    let deps = section(&own, "[dependencies]");
    assert!(!deps.is_empty());
    for dep in deps {
        assert!(shared.contains(&dep.replace("\"../", "\"")), "{dep}: not the workspace's");
    }
}

#[test]
fn smoke_run_prints_every_metric_once_per_workload_and_fails_nothing() {
    let _serial = ONE_PASS_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let spec = benchmark_json();
    for name in WORKLOADS {
        let w = workload(name).expect("listed workload");
        let pass = untraced(&w, &smoke(11));
        assert!(
            pass.correct,
            "{name}: {} of {} failed, p={}",
            pass.failed, pass.attempted, pass.chi_square_p
        );
        let printed: Vec<&str> = pass.metrics.iter().map(|m| m.name.as_str()).collect();
        let wanted: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, wanted, "{name}");
        assert!(
            pass.metrics.iter().all(|m| m.value > 0.0 && m.value.is_finite()),
            "{name}: {:?}",
            pass.metrics
        );
        let line = pass.driver_line();
        for key in ["\"correct\": true", "\"attempted\": ", "\"failed\": 0", "\"metrics\": {"] {
            assert_eq!(line.matches(key).count(), 1, "{name}: {line}");
        }

        let t = traced(&w, &smoke(11));
        assert!(
            t.pass.correct,
            "{name}: traced pass failed {} of {}",
            t.pass.failed, t.pass.attempted
        );
        let printed: Vec<&str> = t.pass.metrics.iter().map(|m| m.name.as_str()).collect();
        let wanted: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, wanted, "{name}");
        assert!(t.pass.metrics.iter().all(|m| m.value.is_finite()), "{name}: {:?}", t.pass.metrics);
        // Every rung left a root span and a call span for request 0.
        assert!(t.spans.iter().filter(|s| s.request == 0).count() >= 2, "{name}");
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}

#[test]
fn exact_counters_repeat_under_the_same_seed() {
    let _serial = ONE_PASS_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for name in ["shard-fanout-s64", "cold-s64", "mixed-rw"] {
        let w = workload(name).expect("listed workload");
        let (a, b) = (traced(&w, &smoke(5)).pass, traced(&w, &smoke(5)).pass);
        for (def, (ma, mb)) in PER_LAYER.iter().zip(a.metrics.iter().zip(&b.metrics)) {
            if def.exact {
                assert_eq!(ma.value.to_bits(), mb.value.to_bits(), "{name} {}", def.name);
            }
        }
        assert_eq!(
            a.chi_square_p.to_bits(),
            b.chi_square_p.to_bits(),
            "{name}: the verify pass is seeded"
        );
    }
}
