//! Exporters: JSON-lines trace dumps, Prometheus-style text exposition,
//! and the slow-query log.
//!
//! All output here is deterministic given the input records: field
//! order is fixed, floats are rendered with Rust's shortest-roundtrip
//! formatting, and no wall-clock reads happen at render time — which is
//! what lets the CI determinism job diff dumps byte for byte.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::{log2_bucket, HIST_BUCKETS};
use crate::recorder::Record;

/// Renders records as JSON lines, one object per record, in input
/// order. Fields appear in fixed order (`seq`, `trace`, `span`,
/// `shard`, `replica`, `phase`, `t_ns`, `a`, `b`); `shard`/`replica`
/// are omitted for spans that do not carry them.
#[must_use]
pub fn records_to_jsonl(records: &[Record]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        let _ = write!(out, "{{\"seq\":{},\"trace\":{},\"span\":{}", r.seq, r.trace, r.span);
        if let Some(shard) = r.shard() {
            let _ = write!(out, ",\"shard\":{shard}");
        }
        if let Some(replica) = r.replica() {
            let _ = write!(out, ",\"replica\":{replica}");
        }
        let _ = writeln!(
            out,
            ",\"phase\":\"{}\",\"t_ns\":{},\"a\":{},\"b\":{}}}",
            r.phase.name(),
            r.t_ns,
            r.a,
            r.b
        );
    }
    out
}

/// Builder for Prometheus-style text exposition (`# HELP` / `# TYPE`
/// headers, `name{labels} value` samples, optional
/// `# {trace_id="…"}` exemplar suffixes).
///
/// The tier crates' metric snapshots render themselves through this
/// writer so serve and shard expositions share one format.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    /// The family whose header was written last.
    open: String,
}

impl PromWriter {
    /// An empty exposition.
    #[must_use]
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Writes a `# HELP` + `# TYPE` header for a metric family, unless
    /// it is the family already open (the rows of one family may each
    /// name it). `kind` is `"counter"`, `"gauge"` or `"histogram"`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        if self.open == name {
            return;
        }
        self.open.clear();
        self.open.push_str(name);
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one integer sample with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.name_and_labels(name, labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Writes one float sample with optional labels.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.name_and_labels(name, labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Writes one integer sample carrying a trace-id exemplar, e.g.
    /// `iqs_latency_bucket{le="1024"} 17 # {trace_id="42"}`.
    pub fn sample_with_exemplar(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: u64,
        trace_id: u64,
    ) {
        self.name_and_labels(name, labels);
        let _ = writeln!(self.out, " {value} # {{trace_id=\"{trace_id}\"}}");
    }

    /// The rendered exposition text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn name_and_labels(&mut self, name: &str, labels: &[(&str, &str)]) {
        let _ = write!(self.out, "{name}");
        if !labels.is_empty() {
            let _ = write!(self.out, "{{");
            for (i, (k, v)) in labels.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(self.out, "{sep}{k}=\"{v}\"");
            }
            let _ = write!(self.out, "}}");
        }
    }
}

/// One slow-log entry: a trace id and its end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowEntry {
    /// Trace id of the slow query.
    pub trace: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
}

/// The slow-query log: keeps the top-`k` traced queries by latency per
/// interval, plus one exemplar trace id per log₂ latency bucket for
/// histogram annotation.
///
/// `observe` is designed for the completion path of a serving loop:
/// untraced queries (`trace == 0`) return after one load, and traced
/// queries below the current top-`k` floor pay one relaxed load plus
/// one exemplar store — the mutex is touched only by genuine top-`k`
/// candidates.
#[derive(Debug)]
pub struct SlowLog {
    k: usize,
    /// Latency floor for top-`k` admission (0 until the log fills).
    min_ns: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
    /// Last-seen trace id per log₂ latency bucket; 0 = none.
    exemplars: [AtomicU64; HIST_BUCKETS],
}

impl Default for SlowLog {
    fn default() -> SlowLog {
        SlowLog::new(8)
    }
}

impl SlowLog {
    /// A log retaining the `k` slowest traced queries per interval.
    #[must_use]
    pub fn new(k: usize) -> SlowLog {
        SlowLog {
            k: k.max(1),
            min_ns: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one completed traced query. A no-op for untraced
    /// queries.
    pub fn observe(&self, trace: u64, latency_ns: u64) {
        if trace == crate::recorder::UNTRACED {
            return;
        }
        self.exemplars[log2_bucket(latency_ns)].store(trace, Ordering::Relaxed);
        if latency_ns < self.min_ns.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock().expect("slow log poisoned");
        entries.push(SlowEntry { trace, latency_ns });
        if entries.len() > self.k {
            // Keep the k slowest; the evicted minimum raises the floor.
            entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.latency_ns));
            entries.truncate(self.k);
        }
        if entries.len() == self.k {
            let floor = entries.iter().map(|e| e.latency_ns).min().unwrap_or(0);
            self.min_ns.store(floor, Ordering::Relaxed);
        }
    }

    /// Drains the interval: returns the top-`k` entries sorted slowest
    /// first and resets the log (exemplars are retained — they annotate
    /// cumulative histogram buckets).
    #[must_use]
    pub fn take(&self) -> Vec<SlowEntry> {
        let mut entries = {
            let mut guard = self.entries.lock().expect("slow log poisoned");
            self.min_ns.store(0, Ordering::Relaxed);
            std::mem::take(&mut *guard)
        };
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.latency_ns));
        entries.truncate(self.k);
        entries
    }

    /// The exemplar trace id recorded for a log₂ latency bucket, or 0.
    #[must_use]
    pub fn exemplar(&self, bucket: usize) -> u64 {
        self.exemplars.get(bucket).map_or(0, |e| e.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Ctx, Phase};

    #[test]
    fn bucket_matches_serve_histogram_shape() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn jsonl_is_stable_and_span_aware() {
        let q = Ctx::query(3);
        let records = vec![
            Record {
                seq: 1,
                trace: 3,
                span: q.span,
                phase: Phase::RouterPlan,
                t_ns: 10,
                a: 0,
                b: 0,
            },
            Record {
                seq: 2,
                trace: 3,
                span: q.leg(1, 0).span,
                phase: Phase::LegDone,
                t_ns: 20,
                a: 5,
                b: 0,
            },
        ];
        let text = records_to_jsonl(&records);
        assert_eq!(
            text,
            "{\"seq\":1,\"trace\":3,\"span\":0,\"phase\":\"router_plan\",\"t_ns\":10,\"a\":0,\"b\":0}\n\
             {\"seq\":2,\"trace\":3,\"span\":131073,\"shard\":1,\"replica\":0,\"phase\":\"leg_done\",\"t_ns\":20,\"a\":5,\"b\":0}\n"
        );
    }

    #[test]
    fn prom_writer_renders_headers_labels_and_exemplars() {
        let mut w = PromWriter::new();
        w.header("iqs_q", "queries", "counter");
        w.sample("iqs_q", &[], 12);
        w.sample("iqs_q_bucket", &[("le", "1024"), ("shard", "2")], 7);
        w.sample_f64("iqs_weight", &[], 1.5);
        w.sample_with_exemplar("iqs_q_bucket", &[("le", "2048")], 9, 42);
        assert_eq!(
            w.finish(),
            "# HELP iqs_q queries\n\
             # TYPE iqs_q counter\n\
             iqs_q 12\n\
             iqs_q_bucket{le=\"1024\",shard=\"2\"} 7\n\
             iqs_weight 1.5\n\
             iqs_q_bucket{le=\"2048\"} 9 # {trace_id=\"42\"}\n"
        );
    }

    #[test]
    fn slow_log_keeps_top_k_and_resets_on_take() {
        let log = SlowLog::new(3);
        log.observe(0, 99_999); // untraced: ignored
        for (trace, ns) in [(1u64, 50u64), (2, 400), (3, 10), (4, 300), (5, 700), (6, 5)] {
            log.observe(trace, ns);
        }
        let top = log.take();
        let traces: Vec<u64> = top.iter().map(|e| e.trace).collect();
        assert_eq!(traces, vec![5, 2, 4]);
        // Reset: the floor is gone and new entries are admitted again.
        log.observe(7, 1);
        assert_eq!(log.take(), vec![SlowEntry { trace: 7, latency_ns: 1 }]);
    }

    #[test]
    fn exemplars_track_latest_trace_per_bucket() {
        let log = SlowLog::new(2);
        log.observe(11, 1000);
        log.observe(12, 1010); // same [512, 1024) bucket, overwrites
        log.observe(13, 1 << 20);
        assert_eq!(log.exemplar(log2_bucket(1000)), 12);
        assert_eq!(log.exemplar(log2_bucket(1 << 20)), 13);
        assert_eq!(log.exemplar(0), 0);
        assert_eq!(log.exemplar(999), 0);
    }
}
