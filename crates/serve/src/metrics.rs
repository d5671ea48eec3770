//! Built-in service metrics: lock-free atomic counters plus log₂-bucket
//! latency histograms, exported as an immutable [`MetricsSnapshot`].
//!
//! The recording path is designed for the worker hot loop: one relaxed
//! `fetch_add` per counter and one per histogram sample — no locks, no
//! allocation, no time-series machinery. Percentiles are computed at
//! *snapshot* time from the bucket counts. Buckets double in width
//! (bucket `b` holds durations in `[2^(b-1), 2^b)` nanoseconds), so a
//! reported quantile is exact to within a factor of 2 — the right
//! resolution for the question E17 asks ("is p99 10× p50 or 1000×?")
//! at a per-sample cost of a handful of instructions.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Number of log₂ buckets: covers 1 ns up to ~584 years.
pub const HIST_BUCKETS: usize = 64;

/// A concurrent log₂-bucket histogram of durations. Public so layers
/// built on top of the service (e.g. the sharded router) record their
/// own latency distributions in the same format the service exports.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Records one duration. Wait-free: a single relaxed increment.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        // Bucket index = bit length of ns: 0 → bucket 0, otherwise
        // ns ∈ [2^(b-1), 2^b) → bucket b.
        let b = (u64::BITS - ns.leading_zeros()) as usize;
        self.buckets[b.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// An immutable copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// An immutable copy of a [`LogHistogram`]'s bucket counts.
///
/// Bucket `b` counts durations in `[2^(b-1), 2^b)` nanoseconds (bucket 0
/// counts exact zeros), so quantiles are upper bounds tight to 2×.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw bucket counts, by log₂(nanoseconds).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The duration below which a fraction `q` (in `[0, 1]`) of samples
    /// fall, reported as the upper bound of the containing bucket (so the
    /// true quantile lies within 2× below the returned value). Returns
    /// `None` when the histogram is empty.
    ///
    /// **Top bucket**: bucket 63 is open-ended — it absorbs every
    /// duration of `2^62` ns (~146 years) and beyond, including the
    /// `Duration::MAX` / `u64::MAX`-nanosecond saturation of
    /// [`LogHistogram::record`]. A quantile landing there reports
    /// `Duration::from_nanos(1 << 63)`, the bucket's nominal upper
    /// bound; unlike every other bucket this is a *lower* bound on the
    /// true value. It deliberately never reports `Duration::MAX`, so
    /// arithmetic on the result cannot overflow.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // b ≤ 63, so the shift cannot overflow; bucket 63
                // reports 2^63 ns (see the doc note above).
                return Some(Duration::from_nanos(1u64 << b));
            }
        }
        None
    }

    /// Bucket-wise difference `self - earlier` — the histogram of
    /// samples recorded between two snapshots of one histogram.
    ///
    /// # Errors
    /// [`HistogramDiffError`] when any bucket of `earlier` exceeds the
    /// corresponding bucket of `self` — i.e. the snapshots are not an
    /// (earlier, later) pair of the same monotone histogram. The old
    /// behavior silently saturated such mismatches to zero, which made
    /// a swapped-argument bug read as "an idle interval".
    pub fn minus(
        &self,
        earlier: &HistogramSnapshot,
    ) -> Result<HistogramSnapshot, HistogramDiffError> {
        for (b, (&later, &early)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            if early > later {
                return Err(HistogramDiffError { bucket: b, later, earlier: early });
            }
        }
        Ok(HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] - earlier.buckets[i]),
        })
    }

    /// Bucket-wise sum `self + other` — pooling the latency
    /// distributions of several workers/replicas into one (the cluster
    /// aggregation the shard metrics view performs). Saturates at
    /// `u64::MAX`.
    pub fn plus(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_add(other.buckets[i])),
        }
    }

    /// Bucket-wise in-place accumulation `self += other`, saturating at
    /// `u64::MAX` — the dual of [`HistogramSnapshot::minus`] and the
    /// allocation-free form of [`HistogramSnapshot::plus`], for folding
    /// many replica histograms into one cluster view.
    ///
    /// Merged snapshots keep the per-snapshot quantile semantics: an
    /// all-zero merge result is *empty* (`quantile` returns `None`, it
    /// never invents a duration), and samples pooled into bucket 63 stay
    /// open-ended (a quantile landing there reports `2^63` ns as a
    /// lower bound — see [`HistogramSnapshot::quantile`]).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS] }
    }
}

/// A histogram diff was asked of two snapshots that are not an
/// (earlier, later) pair: some bucket shrank between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramDiffError {
    /// First offending bucket index.
    pub bucket: usize,
    /// That bucket's count in the (claimed) later snapshot.
    pub later: u64,
    /// That bucket's count in the (claimed) earlier snapshot.
    pub earlier: u64,
}

impl fmt::Display for HistogramDiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "histogram bucket {} shrank from {} to {}: snapshots are not an (earlier, later) pair",
            self.bucket, self.earlier, self.later
        )
    }
}

impl std::error::Error for HistogramDiffError {}

// The vendored serde derive handles named-field structs only (no fixed
// arrays), so the bucket array serializes by hand — as a bare JSON
// array, the obvious wire shape.
impl serde::Serialize for HistogramSnapshot {
    fn serialize_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push('[');
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{b}").expect("infallible");
        }
        out.push(']');
    }
}

impl serde::Deserialize for HistogramSnapshot {
    fn deserialize_json(parser: &mut serde::de::Parser<'_>) -> Result<Self, serde::de::Error> {
        let counts: Vec<u64> = serde::Deserialize::deserialize_json(parser)?;
        if counts.len() != HIST_BUCKETS {
            return Err(serde::de::Error::custom(format!(
                "histogram must have exactly {HIST_BUCKETS} buckets, got {}",
                counts.len()
            )));
        }
        Ok(HistogramSnapshot { buckets: std::array::from_fn(|i| counts[i]) })
    }
}

/// Live per-tenant counters: one row per tenant configured in
/// `ServerConfig::tenants`, indexed by tenant id. Same cost class as the
/// global counters — relaxed adds on the submit/worker paths.
#[derive(Debug)]
pub(crate) struct TenantCounters {
    pub(crate) name: String,
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) shed_quota: AtomicU64,
    pub(crate) deadline_missed: AtomicU64,
}

impl TenantCounters {
    fn new(name: &str) -> Self {
        TenantCounters {
            name: name.to_string(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> TenantMetricsSnapshot {
        TenantMetricsSnapshot {
            name: self.name.clone(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed_quota: self.shed_quota.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
        }
    }
}

/// The service's live counters. All increments are relaxed atomics on the
/// worker/submit hot paths.
#[derive(Debug)]
pub(crate) struct Metrics {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) rejected_overload: AtomicU64,
    pub(crate) deadline_missed: AtomicU64,
    pub(crate) updates_applied: AtomicU64,
    pub(crate) queue_depth: AtomicUsize,
    pub(crate) rng_words: AtomicU64,
    pub(crate) rng_refills: AtomicU64,
    pub(crate) prefetches: AtomicU64,
    pub(crate) window_stalls: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) block_reads: AtomicU64,
    pub(crate) block_writes: AtomicU64,
    pub(crate) latency: LogHistogram,
    pub(crate) queue_wait: LogHistogram,
    pub(crate) tenants: Vec<TenantCounters>,
}

impl Metrics {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Metrics::with_tenants(&[])
    }

    pub(crate) fn with_tenants(tenant_names: &[&str]) -> Self {
        Metrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            rng_words: AtomicU64::new(0),
            rng_refills: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
            window_stalls: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            block_reads: AtomicU64::new(0),
            block_writes: AtomicU64::new(0),
            latency: LogHistogram::new(),
            queue_wait: LogHistogram::new(),
            tenants: tenant_names.iter().map(|n| TenantCounters::new(n)).collect(),
        }
    }

    /// Folds one external-index draw's block-I/O report into the
    /// counters (relaxed adds, same cost class as the other counters).
    pub(crate) fn record_io(&self, io: &IoReport) {
        self.cache_hits.fetch_add(io.cache_hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(io.cache_misses, Ordering::Relaxed);
        self.block_reads.fetch_add(io.block_reads, Ordering::Relaxed);
        self.block_writes.fetch_add(io.block_writes, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, snapshot_swaps: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            snapshot_swaps,
            rng_words: self.rng_words.load(Ordering::Relaxed),
            rng_refills: self.rng_refills.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            window_stalls: self.window_stalls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            block_reads: self.block_reads.load(Ordering::Relaxed),
            block_writes: self.block_writes.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            tenants: self.tenants.iter().map(TenantCounters::snapshot).collect(),
        }
    }
}

/// A point-in-time copy of one tenant's QoS counters, keyed by the
/// tenant's configured name. Rides inside [`MetricsSnapshot::tenants`];
/// empty for servers configured without tenants, so the wire format and
/// expositions of tenant-less services are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct TenantMetricsSnapshot {
    /// The tenant's configured name (metrics label value).
    pub name: String,
    /// Requests this tenant offered (including later-rejected ones).
    pub submitted: u64,
    /// Requests that completed with an `Ok` response — the tenant's
    /// goodput.
    pub completed: u64,
    /// Requests that completed with a typed error.
    pub failed: u64,
    /// Requests refused at admission by the tenant's token-bucket quota.
    pub shed_quota: u64,
    /// Requests dropped because their deadline expired before pickup.
    pub deadline_missed: u64,
}

impl TenantMetricsSnapshot {
    fn minus(&self, earlier: &TenantMetricsSnapshot) -> TenantMetricsSnapshot {
        TenantMetricsSnapshot {
            name: self.name.clone(),
            submitted: self.submitted.saturating_sub(earlier.submitted),
            completed: self.completed.saturating_sub(earlier.completed),
            failed: self.failed.saturating_sub(earlier.failed),
            shed_quota: self.shed_quota.saturating_sub(earlier.shed_quota),
            deadline_missed: self.deadline_missed.saturating_sub(earlier.deadline_missed),
        }
    }

    fn plus(&self, other: &TenantMetricsSnapshot) -> TenantMetricsSnapshot {
        TenantMetricsSnapshot {
            name: self.name.clone(),
            submitted: self.submitted.saturating_add(other.submitted),
            completed: self.completed.saturating_add(other.completed),
            failed: self.failed.saturating_add(other.failed),
            shed_quota: self.shed_quota.saturating_add(other.shed_quota),
            deadline_missed: self.deadline_missed.saturating_add(other.deadline_missed),
        }
    }
}

/// Block-I/O accounting for one draw served by an external-memory index
/// (the tiered backend's cold path). Returned alongside the samples so
/// the worker can fold the interval into the service counters without
/// the index and the service sharing atomic state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoReport {
    /// Buffer-pool touches served from a resident frame.
    pub cache_hits: u64,
    /// Buffer-pool touches that faulted a frame in.
    pub cache_misses: u64,
    /// Blocks read from the simulated disk.
    pub block_reads: u64,
    /// Dirty blocks written back to the simulated disk.
    pub block_writes: u64,
}

/// A point-in-time copy of every service metric. Obtain via
/// `Server::metrics()`; diff two snapshots with
/// [`MetricsSnapshot::minus`] to meter one interval (E17 did this per
/// offered-load step), JSON round-trip with
/// [`MetricsSnapshot::to_json`] / [`MetricsSnapshot::from_json`] so the
/// harness and the shard-tier aggregator consume one wire format.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Requests offered to the service (including later-rejected ones).
    pub submitted: u64,
    /// Requests that completed with an `Ok` response.
    pub completed: u64,
    /// Requests that completed with a typed error (bad index, empty
    /// range, …) — *not* overload rejections or deadline misses.
    pub failed: u64,
    /// Requests refused at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests dropped because their deadline expired before a worker
    /// reached them.
    pub deadline_missed: u64,
    /// Individual update operations applied to dynamic indexes.
    pub updates_applied: u64,
    /// Backlog length at snapshot time.
    pub queue_depth: usize,
    /// Total index snapshot publications across the registry.
    pub snapshot_swaps: u64,
    /// Total 64-bit RNG words consumed by worker draw paths (counted at
    /// [`iqs_alias::BlockRng64`] refill time, so it is the randomness
    /// actually fetched from the generators).
    pub rng_words: u64,
    /// Total `BlockRng64` buffer refills performed by worker draw paths.
    pub rng_refills: u64,
    /// Explicit cache prefetches issued by the software-pipelined batch
    /// kernels (one per draw entering the rotating window; see
    /// `iqs_alias::pipeline`).
    pub prefetches: u64,
    /// Pipelined draws issued before their kernel's window was full —
    /// the per-tile ramp. A high stall-to-prefetch ratio means request
    /// batch sizes too small to hide memory latency.
    pub window_stalls: u64,
    /// External-index block-cache touches served from resident frames
    /// (cold-tier draws; zero for purely in-memory services).
    pub cache_hits: u64,
    /// External-index block-cache touches that faulted a frame in.
    pub cache_misses: u64,
    /// Blocks read from the external index's simulated disk.
    pub block_reads: u64,
    /// Dirty blocks written back to the external index's simulated disk.
    pub block_writes: u64,
    /// End-to-end service latency (request origin → response ready).
    pub latency: HistogramSnapshot,
    /// Queue wait (admission → worker pickup) component of latency.
    pub queue_wait: HistogramSnapshot,
    /// Per-tenant QoS counters, one row per configured tenant (empty
    /// when the server has no tenants — the wire format then matches
    /// pre-QoS snapshots field-for-field plus an empty array).
    pub tenants: Vec<TenantMetricsSnapshot>,
}

impl MetricsSnapshot {
    /// Counter-wise difference `self - earlier`, for metering an
    /// interval. Gauges (`queue_depth`) and totals (`snapshot_swaps`)
    /// keep the later value.
    ///
    /// # Errors
    /// [`HistogramDiffError`] when the snapshots are not an (earlier,
    /// later) pair of one service — see [`HistogramSnapshot::minus`].
    pub fn minus(&self, earlier: &MetricsSnapshot) -> Result<MetricsSnapshot, HistogramDiffError> {
        Ok(MetricsSnapshot {
            submitted: self.submitted.saturating_sub(earlier.submitted),
            completed: self.completed.saturating_sub(earlier.completed),
            failed: self.failed.saturating_sub(earlier.failed),
            rejected_overload: self.rejected_overload.saturating_sub(earlier.rejected_overload),
            deadline_missed: self.deadline_missed.saturating_sub(earlier.deadline_missed),
            updates_applied: self.updates_applied.saturating_sub(earlier.updates_applied),
            queue_depth: self.queue_depth,
            snapshot_swaps: self.snapshot_swaps,
            rng_words: self.rng_words.saturating_sub(earlier.rng_words),
            rng_refills: self.rng_refills.saturating_sub(earlier.rng_refills),
            prefetches: self.prefetches.saturating_sub(earlier.prefetches),
            window_stalls: self.window_stalls.saturating_sub(earlier.window_stalls),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            block_reads: self.block_reads.saturating_sub(earlier.block_reads),
            block_writes: self.block_writes.saturating_sub(earlier.block_writes),
            latency: self.latency.minus(&earlier.latency)?,
            queue_wait: self.queue_wait.minus(&earlier.queue_wait)?,
            tenants: self
                .tenants
                .iter()
                .map(|t| match earlier.tenants.iter().find(|e| e.name == t.name) {
                    Some(e) => t.minus(e),
                    None => t.clone(),
                })
                .collect(),
        })
    }

    /// Counter-wise sum `self + other`, pooling several services into
    /// one cluster view. Counters and histograms add; the `queue_depth`
    /// gauge adds too (total backlog across the pool).
    pub fn plus(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.saturating_add(other.submitted),
            completed: self.completed.saturating_add(other.completed),
            failed: self.failed.saturating_add(other.failed),
            rejected_overload: self.rejected_overload.saturating_add(other.rejected_overload),
            deadline_missed: self.deadline_missed.saturating_add(other.deadline_missed),
            updates_applied: self.updates_applied.saturating_add(other.updates_applied),
            queue_depth: self.queue_depth.saturating_add(other.queue_depth),
            snapshot_swaps: self.snapshot_swaps.saturating_add(other.snapshot_swaps),
            rng_words: self.rng_words.saturating_add(other.rng_words),
            rng_refills: self.rng_refills.saturating_add(other.rng_refills),
            prefetches: self.prefetches.saturating_add(other.prefetches),
            window_stalls: self.window_stalls.saturating_add(other.window_stalls),
            cache_hits: self.cache_hits.saturating_add(other.cache_hits),
            cache_misses: self.cache_misses.saturating_add(other.cache_misses),
            block_reads: self.block_reads.saturating_add(other.block_reads),
            block_writes: self.block_writes.saturating_add(other.block_writes),
            latency: self.latency.plus(&other.latency),
            queue_wait: self.queue_wait.plus(&other.queue_wait),
            tenants: {
                let mut tenants = self.tenants.clone();
                for o in &other.tenants {
                    match tenants.iter_mut().find(|t| t.name == o.name) {
                        Some(t) => *t = t.plus(o),
                        None => tenants.push(o.clone()),
                    }
                }
                tenants
            },
        }
    }

    /// In-place [`MetricsSnapshot::plus`]: folds `other` into `self`
    /// without building an intermediate snapshot per replica — the form
    /// the sharded router's cluster aggregation and the telemetry
    /// collector's per-source accumulation use.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        *self = self.plus(other);
    }

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
    /// upper bound in nanoseconds.
    pub fn to_prometheus(&self) -> String {
        self.render_prometheus(None)
    }

    /// [`MetricsSnapshot::to_prometheus`], with exemplar trace ids from
    /// `slow` attached to the latency buckets they were observed in
    /// (rendered as a `# {trace_id="…"}` suffix).
    pub fn to_prometheus_with_exemplars(&self, slow: &iqs_obs::SlowLog) -> String {
        self.render_prometheus(Some(slow))
    }

    fn render_prometheus(&self, slow: Option<&iqs_obs::SlowLog>) -> String {
        let mut w = iqs_obs::PromWriter::new();
        w.header("iqs_serve_requests_total", "Requests by outcome", "counter");
        for (outcome, value) in [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("rejected_overload", self.rejected_overload),
            ("deadline_missed", self.deadline_missed),
        ] {
            w.sample("iqs_serve_requests_total", &[("outcome", outcome)], value);
        }
        if !self.tenants.is_empty() {
            w.header(
                "iqs_serve_tenant_requests_total",
                "Per-tenant requests by outcome",
                "counter",
            );
            for t in &self.tenants {
                for (outcome, value) in [
                    ("submitted", t.submitted),
                    ("completed", t.completed),
                    ("failed", t.failed),
                    ("shed_quota", t.shed_quota),
                    ("deadline_missed", t.deadline_missed),
                ] {
                    w.sample(
                        "iqs_serve_tenant_requests_total",
                        &[("tenant", &t.name), ("outcome", outcome)],
                        value,
                    );
                }
            }
        }
        w.header("iqs_serve_updates_applied_total", "Update operations applied", "counter");
        w.sample("iqs_serve_updates_applied_total", &[], self.updates_applied);
        w.header("iqs_serve_queue_depth", "Backlog length at scrape time", "gauge");
        w.sample("iqs_serve_queue_depth", &[], self.queue_depth as u64);
        w.header("iqs_serve_snapshot_swaps_total", "Index snapshot publications", "counter");
        w.sample("iqs_serve_snapshot_swaps_total", &[], self.snapshot_swaps);
        w.header("iqs_serve_rng_words_total", "RNG words consumed by draw paths", "counter");
        w.sample("iqs_serve_rng_words_total", &[], self.rng_words);
        w.header("iqs_serve_rng_refills_total", "BlockRng64 buffer refills", "counter");
        w.sample("iqs_serve_rng_refills_total", &[], self.rng_refills);
        w.header(
            "iqs_serve_prefetches_total",
            "Explicit prefetches issued by pipelined kernels",
            "counter",
        );
        w.sample("iqs_serve_prefetches_total", &[], self.prefetches);
        w.header(
            "iqs_serve_window_stalls_total",
            "Pipelined draws issued during window ramp",
            "counter",
        );
        w.sample("iqs_serve_window_stalls_total", &[], self.window_stalls);
        w.header(
            "iqs_serve_block_cache_touches_total",
            "External-index block-cache touches by outcome",
            "counter",
        );
        for (outcome, value) in [("hit", self.cache_hits), ("miss", self.cache_misses)] {
            w.sample("iqs_serve_block_cache_touches_total", &[("outcome", outcome)], value);
        }
        w.header("iqs_serve_block_io_total", "External-index block transfers", "counter");
        for (op, value) in [("read", self.block_reads), ("write", self.block_writes)] {
            w.sample("iqs_serve_block_io_total", &[("op", op)], value);
        }
        prom_histogram(
            &mut w,
            "iqs_serve_latency_ns",
            "End-to-end service latency (ns)",
            &self.latency,
            slow,
        );
        prom_histogram(
            &mut w,
            "iqs_serve_queue_wait_ns",
            "Queue wait before worker pickup (ns)",
            &self.queue_wait,
            None,
        );
        w.finish()
    }
}

/// Writes one log₂ histogram in Prometheus text form: sparse cumulative
/// `_bucket` lines (with exemplars where `slow` has one for the
/// bucket), then the `+Inf` bucket and `_count`. Shared by the serve
/// and shard expositions.
pub fn prom_histogram(
    w: &mut iqs_obs::PromWriter,
    name: &str,
    help: &str,
    h: &HistogramSnapshot,
    slow: Option<&iqs_obs::SlowLog>,
) {
    w.header(name, help, "histogram");
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let le = format!("{}", 1u128 << b);
        let exemplar = slow.map_or(0, |s| s.exemplar(b));
        if exemplar != 0 {
            w.sample_with_exemplar(&bucket_name, &[("le", &le)], cumulative, exemplar);
        } else {
            w.sample(&bucket_name, &[("le", &le)], cumulative);
        }
    }
    w.sample(&bucket_name, &[("le", "+Inf")], cumulative);
    w.sample(&format!("{name}_count"), &[], cumulative);
}

/// Renders a latency quantile for the human-readable metric summaries
/// (`-` when the histogram is empty). Shared by the serve and shard
/// `Display` impls.
pub fn fmt_dur(d: Option<Duration>) -> String {
    match d {
        None => "-".to_string(),
        Some(d) if d.as_nanos() < 1_000 => format!("{}ns", d.as_nanos()),
        Some(d) if d.as_nanos() < 1_000_000 => format!("{:.1}µs", d.as_nanos() as f64 / 1e3),
        Some(d) if d.as_nanos() < 1_000_000_000 => format!("{:.1}ms", d.as_nanos() as f64 / 1e6),
        Some(d) => format!("{:.2}s", d.as_secs_f64()),
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
        )?;
        for t in &self.tenants {
            write!(
                f,
                "\ntenant {}: {} submitted, {} ok, {} failed, {} shed (quota), {} deadline-missed",
                t.name, t.submitted, t.completed, t.failed, t.shed_quota, t.deadline_missed
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let h = LogHistogram::new();
        h.record(Duration::from_nanos(0)); // bucket 0
        h.record(Duration::from_nanos(1)); // bucket 1
        h.record(Duration::from_nanos(2)); // bucket 2
        h.record(Duration::from_nanos(3)); // bucket 2
        h.record(Duration::from_nanos(4)); // bucket 3
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn quantiles_are_two_x_upper_bounds() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // bucket 7, upper 128
        }
        h.record(Duration::from_micros(100)); // bucket 17, upper 131072
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(Duration::from_nanos(128)));
        assert_eq!(s.quantile(0.99), Some(Duration::from_nanos(128)));
        assert_eq!(s.quantile(1.0), Some(Duration::from_nanos(131072)));
        // True value (100ns) within 2x below the reported bound.
        assert!(s.quantile(0.5).unwrap() <= Duration::from_nanos(200));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
    }

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
        let m = Metrics::new();
        m.submitted.fetch_add(4, Ordering::Relaxed);
        m.queue_depth.store(2, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(1));
        let s = m.snapshot(9);
        let interval = s.minus(&s).expect("same snapshot diffs cleanly");
        assert_eq!(interval.submitted, 0);
        assert_eq!(interval.latency.count(), 0);
        assert_eq!(interval.latency.quantile(0.99), None);
        assert_eq!(interval.queue_depth, 2);
        assert_eq!(interval.snapshot_swaps, 9);
    }

    #[test]
    fn absurd_durations_saturate_the_top_bucket() {
        // Durations beyond 2^63 ns (~292 years) — including the u64::MAX
        // nanosecond clamp of Duration::MAX — land in the last bucket
        // instead of indexing out of bounds, and quantiles report that
        // bucket's upper bound.
        let h = LogHistogram::new();
        h.record(Duration::MAX);
        h.record(Duration::from_secs(u64::MAX));
        h.record(Duration::from_nanos(u64::MAX));
        let s = h.snapshot();
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 3);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(1.0), Some(Duration::from_nanos(1u64 << 63)));
        // Saturated buckets still diff and pool without overflow.
        assert_eq!(s.plus(&s).buckets[HIST_BUCKETS - 1], 6);
        assert_eq!(s.minus(&s).expect("same snapshot diffs cleanly").count(), 0);
    }

    #[test]
    fn p999_is_meaningful_below_1000_observations() {
        // With 10 samples the 0.999-quantile target rounds up to the
        // 10th sample: the single outlier *is* the p999, not an
        // extrapolation and not a panic.
        let h = LogHistogram::new();
        for _ in 0..9 {
            h.record(Duration::from_nanos(100)); // bucket 7, upper 128
        }
        h.record(Duration::from_millis(1)); // bucket 20, upper ~2.1ms
        let s = h.snapshot();
        assert_eq!(s.quantile(0.999), Some(Duration::from_nanos(1 << 20)));
        assert_eq!(s.quantile(0.9), Some(Duration::from_nanos(128)));
        // A single observation answers every quantile with its bucket.
        let one = LogHistogram::new();
        one.record(Duration::from_nanos(100));
        let s = one.snapshot();
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(s.quantile(q), Some(Duration::from_nanos(128)), "q = {q}");
        }
    }

    #[test]
    fn snapshot_diff_meters_an_interval() {
        let h = LogHistogram::new();
        h.record(Duration::from_nanos(10));
        let before = h.snapshot();
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_nanos(10));
        let delta = h.snapshot().minus(&before).expect("later minus earlier");
        assert_eq!(delta.count(), 2);

        // Swapped arguments are a caller bug and must surface as an
        // error naming the shrinking bucket, not read as "idle".
        let err = before.minus(&h.snapshot()).expect_err("earlier minus later");
        assert_eq!(err.bucket, 4); // 10ns -> bucket 4
        assert_eq!((err.earlier, err.later), (3, 1));
        assert!(err.to_string().contains("bucket 4"));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let m = Metrics::new();
        m.submitted.fetch_add(12, Ordering::Relaxed);
        m.completed.fetch_add(11, Ordering::Relaxed);
        m.failed.fetch_add(1, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(3));
        m.latency.record(Duration::from_millis(40));
        m.queue_wait.record(Duration::from_nanos(900));
        let snap = m.snapshot(7);
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
    fn plus_pools_counters_and_buckets() {
        let a = Metrics::new();
        a.submitted.fetch_add(5, Ordering::Relaxed);
        a.latency.record(Duration::from_nanos(3));
        let b = Metrics::new();
        b.submitted.fetch_add(7, Ordering::Relaxed);
        b.latency.record(Duration::from_nanos(3));
        b.latency.record(Duration::from_secs(1));
        let pooled = a.snapshot(1).plus(&b.snapshot(2));
        assert_eq!(pooled.submitted, 12);
        assert_eq!(pooled.snapshot_swaps, 3);
        assert_eq!(pooled.latency.count(), 3);
        assert_eq!(pooled.latency.buckets[2], 2);
        let zero = MetricsSnapshot::default();
        assert_eq!(zero.plus(&pooled), pooled);
    }

    #[test]
    fn merge_is_the_in_place_plus_and_minus_recovers_it() {
        let h = LogHistogram::new();
        h.record(Duration::from_nanos(10));
        h.record(Duration::from_micros(10));
        let a = h.snapshot();
        let g = LogHistogram::new();
        g.record(Duration::from_nanos(10));
        g.record(Duration::from_millis(10));
        g.record(Duration::from_secs(10));
        let b = g.snapshot();

        // merge ≡ plus, both ways round (bucket-wise add commutes).
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab, a.plus(&b));
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), a.count() + b.count());

        // merge is the dual of minus: subtracting one operand recovers
        // the other exactly.
        assert_eq!(ab.minus(&b).expect("merged minus operand"), a);
        assert_eq!(ab.minus(&a).expect("merged minus operand"), b);

        // Saturation, not wraparound, at the counter ceiling.
        let mut top = HistogramSnapshot { buckets: [u64::MAX - 1; HIST_BUCKETS] };
        top.merge(&b);
        assert!(top.buckets.iter().all(|&c| c == u64::MAX || c == u64::MAX - 1));

        // The MetricsSnapshot form folds like plus too.
        let m = Metrics::new();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.latency.record(Duration::from_nanos(7));
        let s = m.snapshot(1);
        let mut folded = MetricsSnapshot::default();
        folded.merge(&s);
        folded.merge(&s);
        assert_eq!(folded, s.plus(&s));
    }

    proptest::proptest! {
        /// Property: for arbitrary bucket counts, merge agrees with plus,
        /// commutes, saturates instead of wrapping, and `minus` undoes it
        /// whenever no bucket saturated.
        #[test]
        fn merge_matches_plus_for_arbitrary_buckets(
            a in proptest::collection::vec(0u64..=u64::MAX - 1, HIST_BUCKETS),
            b in proptest::collection::vec(0u64..=u64::MAX - 1, HIST_BUCKETS),
        ) {
            let a = HistogramSnapshot { buckets: std::array::from_fn(|i| a[i]) };
            let b = HistogramSnapshot { buckets: std::array::from_fn(|i| b[i]) };
            let mut merged = a;
            merged.merge(&b);
            proptest::prop_assert_eq!(merged, a.plus(&b));
            proptest::prop_assert_eq!(merged, b.plus(&a));
            let saturated = a.buckets.iter().zip(b.buckets.iter()).any(|(&x, &y)| x.checked_add(y).is_none());
            if !saturated {
                proptest::prop_assert_eq!(merged.minus(&b).expect("no saturation"), a);
            }
        }
    }

    #[test]
    fn merged_snapshot_quantile_edges() {
        // All-zero merge result: still an *empty* histogram — quantiles
        // are None at every q, exactly like a fresh snapshot. A merged
        // cluster view over idle replicas must not invent a latency.
        let mut zero = HistogramSnapshot::default();
        zero.merge(&HistogramSnapshot::default());
        assert_eq!(zero.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(zero.quantile(q), None, "q = {q}");
        }

        // Top-bucket-only merge: every quantile reports bucket 63's
        // nominal upper bound 2^63 ns — a documented *lower* bound on
        // the true value (the bucket is open-ended) — and never
        // Duration::MAX, so downstream arithmetic cannot overflow.
        let h = LogHistogram::new();
        h.record(Duration::MAX);
        let one = h.snapshot();
        let mut pooled = one;
        pooled.merge(&one);
        assert_eq!(pooled.count(), 2);
        assert_eq!(pooled.buckets[HIST_BUCKETS - 1], 2);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(pooled.quantile(q), Some(Duration::from_nanos(1u64 << 63)), "q = {q}");
        }
    }

    #[test]
    fn rng_counters_ride_the_json_wire_format() {
        let m = Metrics::new();
        m.rng_words.fetch_add(640, Ordering::Relaxed);
        m.rng_refills.fetch_add(10, Ordering::Relaxed);
        m.prefetches.fetch_add(600, Ordering::Relaxed);
        m.window_stalls.fetch_add(24, Ordering::Relaxed);
        let snap = m.snapshot(0);
        let json = snap.to_json();
        assert!(json.contains("\"rng_words\":640"), "missing rng_words: {json}");
        assert!(json.contains("\"rng_refills\":10"), "missing rng_refills: {json}");
        assert!(json.contains("\"prefetches\":600"), "missing prefetches: {json}");
        assert!(json.contains("\"window_stalls\":24"), "missing window_stalls: {json}");
        let back = MetricsSnapshot::from_json(&json).expect("round trip");
        assert_eq!(back, snap);
        // Interval diff and pooling cover the new counters too.
        assert_eq!(snap.minus(&snap).unwrap().rng_words, 0);
        assert_eq!(snap.plus(&snap).rng_refills, 20);
        assert_eq!(snap.minus(&snap).unwrap().prefetches, 0);
        assert_eq!(snap.plus(&snap).window_stalls, 48);
    }

    #[test]
    fn io_counters_ride_the_json_wire_format() {
        let m = Metrics::new();
        m.record_io(&IoReport {
            cache_hits: 900,
            cache_misses: 100,
            block_reads: 80,
            block_writes: 6,
        });
        m.record_io(&IoReport { cache_hits: 50, ..IoReport::default() });
        let snap = m.snapshot(0);
        let json = snap.to_json();
        assert!(json.contains("\"cache_hits\":950"), "missing cache_hits: {json}");
        assert!(json.contains("\"cache_misses\":100"), "missing cache_misses: {json}");
        assert!(json.contains("\"block_reads\":80"), "missing block_reads: {json}");
        assert!(json.contains("\"block_writes\":6"), "missing block_writes: {json}");
        let back = MetricsSnapshot::from_json(&json).expect("round trip");
        assert_eq!(back, snap);
        // Interval diff and pooling cover the new counters too.
        assert_eq!(snap.minus(&snap).unwrap().cache_hits, 0);
        assert_eq!(snap.plus(&snap).cache_misses, 200);
        assert_eq!(snap.plus(&snap).block_reads, 160);
        assert_eq!(snap.minus(&snap).unwrap().block_writes, 0);
    }

    /// Golden-file test for the Prometheus exposition format: the exact
    /// bytes are pinned so accidental format drift is caught (dashboards
    /// parse this).
    #[test]
    fn prometheus_exposition_matches_golden() {
        let m = Metrics::with_tenants(&["gold", "bulk"]);
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.completed.fetch_add(2, Ordering::Relaxed);
        m.failed.fetch_add(1, Ordering::Relaxed);
        m.tenants[0].submitted.fetch_add(2, Ordering::Relaxed);
        m.tenants[0].completed.fetch_add(2, Ordering::Relaxed);
        m.tenants[1].submitted.fetch_add(1, Ordering::Relaxed);
        m.tenants[1].shed_quota.fetch_add(5, Ordering::Relaxed);
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
        let text = m.snapshot(1).to_prometheus();
        let golden = "\
# HELP iqs_serve_requests_total Requests by outcome
# TYPE iqs_serve_requests_total counter
iqs_serve_requests_total{outcome=\"submitted\"} 3
iqs_serve_requests_total{outcome=\"completed\"} 2
iqs_serve_requests_total{outcome=\"failed\"} 1
iqs_serve_requests_total{outcome=\"rejected_overload\"} 0
iqs_serve_requests_total{outcome=\"deadline_missed\"} 0
# HELP iqs_serve_tenant_requests_total Per-tenant requests by outcome
# TYPE iqs_serve_tenant_requests_total counter
iqs_serve_tenant_requests_total{tenant=\"gold\",outcome=\"submitted\"} 2
iqs_serve_tenant_requests_total{tenant=\"gold\",outcome=\"completed\"} 2
iqs_serve_tenant_requests_total{tenant=\"gold\",outcome=\"failed\"} 0
iqs_serve_tenant_requests_total{tenant=\"gold\",outcome=\"shed_quota\"} 0
iqs_serve_tenant_requests_total{tenant=\"gold\",outcome=\"deadline_missed\"} 0
iqs_serve_tenant_requests_total{tenant=\"bulk\",outcome=\"submitted\"} 1
iqs_serve_tenant_requests_total{tenant=\"bulk\",outcome=\"completed\"} 0
iqs_serve_tenant_requests_total{tenant=\"bulk\",outcome=\"failed\"} 0
iqs_serve_tenant_requests_total{tenant=\"bulk\",outcome=\"shed_quota\"} 5
iqs_serve_tenant_requests_total{tenant=\"bulk\",outcome=\"deadline_missed\"} 0
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
    fn tenant_counters_ride_the_json_wire_format() {
        let m = Metrics::with_tenants(&["gold", "bulk"]);
        m.tenants[0].submitted.fetch_add(8, Ordering::Relaxed);
        m.tenants[0].completed.fetch_add(7, Ordering::Relaxed);
        m.tenants[1].shed_quota.fetch_add(3, Ordering::Relaxed);
        let snap = m.snapshot(0);
        let json = snap.to_json();
        // `tenants` is the last field, so tenant-less snapshots keep the
        // leading field order other assertions (and dashboards) rely on.
        assert!(json.starts_with("{\"submitted\":0,"), "unexpected shape: {json}");
        assert!(json.contains("\"tenants\":[{\"name\":\"gold\""), "missing tenants: {json}");
        let back = MetricsSnapshot::from_json(&json).expect("round trip");
        assert_eq!(back, snap);
        // Interval diff and pooling match tenants by name.
        let interval = snap.minus(&snap).unwrap();
        assert_eq!(interval.tenants[0].submitted, 0);
        assert_eq!(interval.tenants[1].shed_quota, 0);
        let pooled = snap.plus(&snap);
        assert_eq!(pooled.tenants[0].completed, 14);
        assert_eq!(pooled.tenants[1].shed_quota, 6);
        // Pooling disjoint tenant sets unions the rows.
        let other = Metrics::with_tenants(&["edge"]).snapshot(0);
        assert_eq!(snap.plus(&other).tenants.len(), 3);
        // Display mentions each tenant by name.
        assert!(snap.to_string().contains("tenant bulk: 0 submitted"));
    }

    #[test]
    fn prometheus_exemplars_annotate_latency_buckets() {
        let m = Metrics::new();
        m.latency.record(Duration::from_nanos(100)); // bucket 7
        let slow = iqs_obs::SlowLog::new(4);
        slow.observe(42, 100);
        let text = m.snapshot(0).to_prometheus_with_exemplars(&slow);
        assert!(
            text.contains("iqs_serve_latency_ns_bucket{le=\"128\"} 1 # {trace_id=\"42\"}"),
            "missing exemplar: {text}"
        );
    }

    #[test]
    fn display_is_complete_and_nonempty() {
        let m = Metrics::new();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(7));
        let text = m.snapshot(5).to_string();
        assert!(text.contains("3 submitted"));
        assert!(text.contains("snapshot swaps: 5"));
        assert!(text.contains("p99"));
    }
}
