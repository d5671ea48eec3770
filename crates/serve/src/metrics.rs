//! Built-in service metrics: lock-free atomic counters plus log₂-bucket
//! latency histograms, exported as an immutable [`MetricsSnapshot`].
//!
//! The recording path is designed for the worker hot loop: one relaxed
//! `fetch_add` per counter and one per histogram sample — no locks, no
//! allocation, no time-series machinery. The counter set below is an
//! [`iqs_obs::counter_set!`] table — a series is one row, everything
//! else is generated — and the histogram is [`iqs_obs::metrics`]'s.

use std::fmt;
use std::sync::atomic::Ordering;

use iqs_obs::{fmt_dur, PromWriter, SlowLog};

use crate::registry::IoReport;

iqs_obs::counter_set! {
    /// The service's live counters. All increments are relaxed atomics on
    /// the worker/submit hot paths.
    #[derive(Debug, Default)]
    pub(crate) struct Metrics;
    /// A point-in-time copy of every service metric. Obtain via
    /// `Server::metrics()`; diff two snapshots with
    /// [`MetricsSnapshot::minus`] to meter one interval, pool replicas
    /// with [`MetricsSnapshot::merge`], JSON round-trip with
    /// [`MetricsSnapshot::to_json`] / [`MetricsSnapshot::from_json`] so the
    /// harness and the shard-tier aggregator consume one wire format.
    #[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
    pub struct MetricsSnapshot;
    laws service_counters_obey_the_descriptor_laws [json];
    counters {
        /// Requests offered to the service (including later-rejected ones).
        submitted: delta => counter "iqs_serve_requests_total" [outcome = "submitted"] "Requests by outcome";
        /// Requests that completed with an `Ok` response.
        completed: delta => counter "iqs_serve_requests_total" [outcome = "completed"] "Requests by outcome";
        /// Requests that completed with a typed error (bad index, empty
        /// range, a contained panic, …) — *not* overload rejections or
        /// deadline misses.
        failed: delta => counter "iqs_serve_requests_total" [outcome = "failed"] "Requests by outcome";
        /// Requests refused at admission because the queue was full.
        rejected_overload: delta => counter "iqs_serve_requests_total" [outcome = "rejected_overload"] "Requests by outcome";
        /// Requests dropped because their deadline expired before a worker
        /// reached them.
        deadline_missed: delta => counter "iqs_serve_requests_total" [outcome = "deadline_missed"] "Requests by outcome";
        /// Individual update operations applied to dynamic indexes.
        updates_applied: delta => counter "iqs_serve_updates_applied_total" "Update operations applied";
        /// Backlog length at snapshot time.
        queue_depth: level => gauge "iqs_serve_queue_depth" "Backlog length at scrape time";
        /// Total index snapshot publications across the registry, stored
        /// from the registry's own count when a snapshot is taken.
        snapshot_swaps: level => counter "iqs_serve_snapshot_swaps_total" "Index snapshot publications";
        /// Total 64-bit RNG words consumed by worker draw paths (counted at
        /// [`iqs_alias::BlockRng64`] refill time, so it is the randomness
        /// actually fetched from the generators).
        rng_words: delta => counter "iqs_serve_rng_words_total" "RNG words consumed by draw paths";
        /// Total `BlockRng64` buffer refills performed by worker draw paths.
        rng_refills: delta => counter "iqs_serve_rng_refills_total" "BlockRng64 buffer refills";
        /// Explicit cache prefetches issued by the software-pipelined batch
        /// kernels (one per table row a pass reads; see
        /// `iqs_alias::pipeline`).
        prefetches: delta => counter "iqs_serve_prefetches_total" "Explicit prefetches issued by pipelined kernels";
        /// Rows a pipelined pass asked for less than a full window ahead —
        /// the per-tile ramp. A high stall-to-prefetch ratio means request
        /// batch sizes too small to hide memory latency.
        window_stalls: delta => counter "iqs_serve_window_stalls_total" "Pipelined draws issued during window ramp";
        /// External-index block-cache touches served from resident frames
        /// (cold-tier draws; zero for purely in-memory services).
        cache_hits: delta => counter "iqs_serve_block_cache_touches_total" [outcome = "hit"] "External-index block-cache touches by outcome";
        /// External-index block-cache touches that faulted a frame in.
        cache_misses: delta => counter "iqs_serve_block_cache_touches_total" [outcome = "miss"] "External-index block-cache touches by outcome";
        /// Blocks read from the external index's simulated disk.
        block_reads: delta => counter "iqs_serve_block_io_total" [op = "read"] "External-index block transfers";
        /// Dirty blocks written back to the external index's simulated disk.
        block_writes: delta => counter "iqs_serve_block_io_total" [op = "write"] "External-index block transfers";
    }
    histograms {
        /// End-to-end service latency (request origin → response ready).
        latency => "iqs_serve_latency_ns" "End-to-end service latency (ns)", exemplars;
        /// Queue wait (admission → pickup) component of latency; zero for
        /// a request its own blocking caller picked up.
        queue_wait => "iqs_serve_queue_wait_ns" "Queue wait before worker pickup (ns)";
    }
}

impl Metrics {
    /// Folds one external-index draw's block-I/O report into the
    /// counters (relaxed adds, same cost class as the other counters).
    pub(crate) fn record_io(&self, io: &IoReport) {
        self.cache_hits.fetch_add(io.cache_hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(io.cache_misses, Ordering::Relaxed);
        self.block_reads.fetch_add(io.block_reads, Ordering::Relaxed);
        self.block_writes.fetch_add(io.block_writes, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Serializes to one JSON object (counters inline, histograms as
    /// bucket arrays).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics serialization is infallible")
    }

    /// Parses a snapshot back from [`MetricsSnapshot::to_json`] output.
    ///
    /// # Errors
    /// A JSON parse error describing the first malformed byte.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Renders the snapshot as Prometheus-style text exposition.
    /// Histogram buckets are emitted sparsely (only buckets that hold
    /// samples, plus the `+Inf` total) with `le` set to the bucket's
    /// upper bound in nanoseconds; with `slow`, its exemplar trace ids
    /// are attached to the latency buckets they were observed in
    /// (rendered as a `# {trace_id="…"}` suffix).
    pub fn to_prometheus(&self, slow: Option<&SlowLog>) -> String {
        let mut w = PromWriter::new();
        self.write_counters(&mut w);
        self.write_histograms(&mut w, slow);
        w.finish()
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} ok, {} failed, {} rejected (overload), {} deadline-missed",
            self.submitted,
            self.completed,
            self.failed,
            self.rejected_overload,
            self.deadline_missed
        )?;
        writeln!(
            f,
            "updates applied: {}; snapshot swaps: {}; queue depth: {}",
            self.updates_applied, self.snapshot_swaps, self.queue_depth
        )?;
        writeln!(
            f,
            "latency  p50 {} | p99 {} | p999 {}  (log2 buckets: ≤2x)",
            fmt_dur(self.latency.quantile(0.50)),
            fmt_dur(self.latency.quantile(0.99)),
            fmt_dur(self.latency.quantile(0.999)),
        )?;
        write!(
            f,
            "queue-wait p50 {} | p99 {} | p999 {}",
            fmt_dur(self.queue_wait.quantile(0.50)),
            fmt_dur(self.queue_wait.quantile(0.99)),
            fmt_dur(self.queue_wait.quantile(0.999)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqs_obs::LogHistogram;
    use std::time::Duration;

    #[test]
    fn empty_interval_diff_has_no_quantiles() {
        // Diffing two snapshots with no samples in between must behave
        // like a fresh histogram: zero count, quantiles None — not a
        // zero-duration p99 that would read as "impossibly fast".
        let h = LogHistogram::new();
        h.record(Duration::from_micros(5));
        h.record(Duration::from_millis(5));
        let snap = h.snapshot();
        let idle = snap.minus(&snap).expect("same snapshot diffs cleanly");
        assert_eq!(idle.count(), 0);
        assert_eq!(idle.quantile(0.5), None);
        assert_eq!(idle.quantile(0.999), None);

        // The same through the full MetricsSnapshot diff: counters go to
        // zero, gauges and totals keep the later value.
        let m = Metrics::default();
        m.submitted.fetch_add(4, Ordering::Relaxed);
        m.queue_depth.store(2, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(1));
        let s = MetricsSnapshot { snapshot_swaps: 9, ..m.snapshot() };
        let interval = s.minus(&s).expect("same snapshot diffs cleanly");
        assert_eq!(interval.submitted, 0);
        assert_eq!(interval.latency.count(), 0);
        assert_eq!(interval.latency.quantile(0.99), None);
        assert_eq!(interval.queue_depth, 2);
        assert_eq!(interval.snapshot_swaps, 9);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let m = Metrics::default();
        m.submitted.fetch_add(12, Ordering::Relaxed);
        m.completed.fetch_add(11, Ordering::Relaxed);
        m.failed.fetch_add(1, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(3));
        m.latency.record(Duration::from_millis(40));
        m.queue_wait.record(Duration::from_nanos(900));
        let snap = MetricsSnapshot { snapshot_swaps: 7, ..m.snapshot() };
        let json = snap.to_json();
        assert!(json.starts_with("{\"submitted\":12,"), "unexpected shape: {json}");
        assert!(json.contains("\"latency\":["));
        let back = MetricsSnapshot::from_json(&json).expect("round trip");
        assert_eq!(back, snap);
        // Malformed input surfaces a parse error, not a panic.
        assert!(MetricsSnapshot::from_json("{\"submitted\":12").is_err());
        assert!(
            MetricsSnapshot::from_json(&json.replace("\"latency\":[", "\"latency\":[1,")).is_err()
        );
    }

    #[test]
    fn record_io_accumulates_each_report() {
        let m = Metrics::default();
        let first =
            IoReport { cache_hits: 900, cache_misses: 100, block_reads: 80, block_writes: 6 };
        m.record_io(&first);
        m.record_io(&IoReport { cache_hits: 50, ..IoReport::default() });
        let io = m.snapshot();
        let totals = (io.cache_hits, io.cache_misses, io.block_reads, io.block_writes);
        assert_eq!(totals, (950, 100, 80, 6));
    }

    /// A swapped `minus` used to read as an idle interval whenever the
    /// histograms were empty: the scalar counters saturated to zero.
    #[test]
    fn swapped_minus_is_refused_even_with_empty_histograms() {
        let earlier = MetricsSnapshot { submitted: 3, completed: 3, ..Default::default() };
        let later = MetricsSnapshot { submitted: 9, completed: 8, ..Default::default() };
        assert_eq!(later.minus(&earlier).expect("later minus earlier").completed, 5);
        let err = earlier.minus(&later).expect_err("earlier minus later");
        assert_eq!((err.field, err.bucket, err.later, err.earlier), ("submitted", None, 3, 9));
        assert!(err.to_string().starts_with("submitted shrank from 9 to 3"));
    }

    /// Golden-file test for the Prometheus exposition format: the exact
    /// bytes are pinned so accidental format drift is caught (dashboards
    /// parse this).
    #[test]
    fn prometheus_exposition_matches_golden() {
        let m = Metrics::default();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.completed.fetch_add(2, Ordering::Relaxed);
        m.failed.fetch_add(1, Ordering::Relaxed);
        m.rng_words.fetch_add(128, Ordering::Relaxed);
        m.rng_refills.fetch_add(2, Ordering::Relaxed);
        m.prefetches.fetch_add(120, Ordering::Relaxed);
        m.window_stalls.fetch_add(8, Ordering::Relaxed);
        m.record_io(&IoReport {
            cache_hits: 90,
            cache_misses: 10,
            block_reads: 9,
            block_writes: 4,
        });
        m.latency.record(Duration::from_nanos(100)); // bucket 7, le=128
        m.latency.record(Duration::from_nanos(100));
        m.latency.record(Duration::from_micros(100)); // bucket 17, le=131072
        m.queue_wait.record(Duration::from_nanos(3)); // bucket 2, le=4
        let text = MetricsSnapshot { snapshot_swaps: 1, ..m.snapshot() }.to_prometheus(None);
        let golden = "\
# HELP iqs_serve_requests_total Requests by outcome
# TYPE iqs_serve_requests_total counter
iqs_serve_requests_total{outcome=\"submitted\"} 3
iqs_serve_requests_total{outcome=\"completed\"} 2
iqs_serve_requests_total{outcome=\"failed\"} 1
iqs_serve_requests_total{outcome=\"rejected_overload\"} 0
iqs_serve_requests_total{outcome=\"deadline_missed\"} 0
# HELP iqs_serve_updates_applied_total Update operations applied
# TYPE iqs_serve_updates_applied_total counter
iqs_serve_updates_applied_total 0
# HELP iqs_serve_queue_depth Backlog length at scrape time
# TYPE iqs_serve_queue_depth gauge
iqs_serve_queue_depth 0
# HELP iqs_serve_snapshot_swaps_total Index snapshot publications
# TYPE iqs_serve_snapshot_swaps_total counter
iqs_serve_snapshot_swaps_total 1
# HELP iqs_serve_rng_words_total RNG words consumed by draw paths
# TYPE iqs_serve_rng_words_total counter
iqs_serve_rng_words_total 128
# HELP iqs_serve_rng_refills_total BlockRng64 buffer refills
# TYPE iqs_serve_rng_refills_total counter
iqs_serve_rng_refills_total 2
# HELP iqs_serve_prefetches_total Explicit prefetches issued by pipelined kernels
# TYPE iqs_serve_prefetches_total counter
iqs_serve_prefetches_total 120
# HELP iqs_serve_window_stalls_total Pipelined draws issued during window ramp
# TYPE iqs_serve_window_stalls_total counter
iqs_serve_window_stalls_total 8
# HELP iqs_serve_block_cache_touches_total External-index block-cache touches by outcome
# TYPE iqs_serve_block_cache_touches_total counter
iqs_serve_block_cache_touches_total{outcome=\"hit\"} 90
iqs_serve_block_cache_touches_total{outcome=\"miss\"} 10
# HELP iqs_serve_block_io_total External-index block transfers
# TYPE iqs_serve_block_io_total counter
iqs_serve_block_io_total{op=\"read\"} 9
iqs_serve_block_io_total{op=\"write\"} 4
# HELP iqs_serve_latency_ns End-to-end service latency (ns)
# TYPE iqs_serve_latency_ns histogram
iqs_serve_latency_ns_bucket{le=\"128\"} 2
iqs_serve_latency_ns_bucket{le=\"131072\"} 3
iqs_serve_latency_ns_bucket{le=\"+Inf\"} 3
iqs_serve_latency_ns_count 3
# HELP iqs_serve_queue_wait_ns Queue wait before worker pickup (ns)
# TYPE iqs_serve_queue_wait_ns histogram
iqs_serve_queue_wait_ns_bucket{le=\"4\"} 1
iqs_serve_queue_wait_ns_bucket{le=\"+Inf\"} 1
iqs_serve_queue_wait_ns_count 1
";
        assert_eq!(text, golden);
    }

    #[test]
    fn prometheus_exemplars_annotate_latency_buckets() {
        let m = Metrics::default();
        m.latency.record(Duration::from_nanos(100)); // bucket 7
        let slow = iqs_obs::SlowLog::new(4);
        slow.observe(42, 100);
        let text = m.snapshot().to_prometheus(Some(&slow));
        assert!(
            text.contains("iqs_serve_latency_ns_bucket{le=\"128\"} 1 # {trace_id=\"42\"}"),
            "missing exemplar: {text}"
        );
    }

    #[test]
    fn display_is_complete_and_nonempty() {
        let m = Metrics::default();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(7));
        let text = MetricsSnapshot { snapshot_swaps: 5, ..m.snapshot() }.to_string();
        assert!(text.contains("3 submitted"));
        assert!(text.contains("snapshot swaps: 5"));
        assert!(text.contains("p99"));
    }
}
