//! Result records: what one pass measured, and how it is printed,
//! written to `results/` and read back by `ledger compare`.

use serde::{Deserialize, Serialize};

use crate::stats::Quartiles;

/// One metric of one workload. `value` is what the run reports; for a
/// metric taken per segment (or per build) the quartiles over all of
/// them stand beside it, and a metric measured once has all four equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64, q: Quartiles) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            p25: q.p25,
            p50: q.p50,
            p75: q.p75,
        }
    }
}

/// What one pass (untraced or traced) over one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// No request failed and the chi-square check accepted the draws.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// p-value of the chi-square check of the untimed verify pass.
    pub chi_square_p: f64,
    pub metrics: Vec<Metric>,
}

impl Pass {
    /// The line the builder contract's driver reads: one JSON object
    /// with exactly `correct`, `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Both passes of one workload, as stored in a result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub chi_square_p: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// A result file (`results/ledger.json`, `ledger/baseline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunFile {
    pub seed: u64,
    pub seconds: f64,
    pub segment_ms: u64,
    pub workloads: Vec<WorkloadResult>,
    /// A benchmark definition claims no gain; later changes that do
    /// record it in their own files.
    pub claim: Option<String>,
}

impl RunFile {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("result records serialize")
    }

    pub fn from_json(text: &str) -> Result<RunFile, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Prints every metric of `w` by name with its unit.
pub fn print_workload(w: &WorkloadResult) {
    println!(
        "\n== {}   correct={} attempted={} failed={} chi-square p={:.4}",
        w.name, w.correct, w.attempted, w.failed, w.chi_square_p
    );
    for (title, metrics) in
        [("end to end (untraced)", &w.end_to_end), ("per layer (traced)", &w.per_layer)]
    {
        if metrics.is_empty() {
            continue;
        }
        println!("  {title}");
        for m in metrics {
            if m.p25 == m.p75 {
                println!("    {:<34} {:>16.4} {}", m.name, m.value, m.unit);
            } else {
                println!(
                    "    {:<34} {:>16.4} {:<6} [spread: p25 {:.4}, p50 {:.4}, p75 {:.4}]",
                    m.name, m.value, m.unit, m.p25, m.p50, m.p75
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunFile {
        let m = |name: &str, v: f64| Metric {
            name: name.to_string(),
            unit: "us".to_string(),
            value: v,
            p25: v * 0.9,
            p50: v,
            p75: v * 1.1,
        };
        RunFile {
            seed: 7,
            seconds: 10.0,
            segment_ms: 500,
            workloads: vec![WorkloadResult {
                name: "serve-s64".to_string(),
                correct: true,
                attempted: 123_456,
                failed: 0,
                chi_square_p: 0.4375,
                end_to_end: vec![m("p50_us", 8.123456789), m("qps", 98765.4321)],
                per_layer: vec![m("core.kernel_ns", 4012.5)],
            }],
            claim: None,
        }
    }

    #[test]
    fn result_files_round_trip_bit_for_bit() {
        let file = sample();
        let text = file.to_json();
        assert!(text.ends_with("\"claim\":null}"), "{text}");
        assert_eq!(RunFile::from_json(&text).unwrap(), file);
        assert!(RunFile::from_json("{\"seed\":1}").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let pass = Pass {
            correct: true,
            attempted: 10,
            failed: 0,
            chi_square_p: 0.5,
            metrics: sample().workloads[0].end_to_end.clone(),
        };
        assert_eq!(
            pass.driver_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"p50_us\": {\"value\": 8.123456789, \"unit\": \"us\"}, \
             \"qps\": {\"value\": 98765.4321, \"unit\": \"us\"}}}"
        );
    }
}
