//! The benchmark's vocabulary: workloads and metric names.
//!
//! `BENCHMARK.json` lists the same names in the builder contract's
//! schema, which has no room for what a later issue also needs to know:
//! which counters repeat exactly and which end-to-end number each layer
//! metric should move. That lives here (`ledger compare` prints it beside
//! a counter that differs); a unit test keeps the two lists equal.

/// The workloads, in run order. See README.md for why each exists.
pub const WORKLOADS: [&str; 7] = [
    "serve-s64",
    "serve-s4096",
    "shard-fanout-s64",
    "tcp-s64",
    "tcp-s4096",
    "cold-s64",
    "mixed-rw",
];

/// One end-to-end metric: measured untraced, gated by a bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline's median by which `ledger compare` lets the
    /// metric worsen; a set whose own runs spread wider is unresolved.
    /// `BENCHMARK.json` carries a wider bound for the driver, which has
    /// no such verdict and rejects a benchmark whose runs ever spread
    /// beyond it (see README.md, "Bounds").
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "qps", unit: "1/s", better: "higher", bound: 0.10 },
    EndToEnd { name: "p50_us", unit: "us", better: "lower", bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.15 },
];

/// One per-layer metric of the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Repeats bit for bit under the same seed and `--seconds`: any
    /// difference between two runs of the same code is a defect, and a
    /// difference between two commits is a change in work done.
    pub exact: bool,
    /// The end-to-end metric and workloads it should move.
    pub moves: &'static str,
}

const fn timing(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower", exact: false, moves }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower", exact: true, moves }
}

const fn higher(mut m: PerLayer) -> PerLayer {
    m.better = "higher";
    m
}

pub const PER_LAYER: [PerLayer; 44] = [
    timing("core.kernel_ns", "ns", "p50_us, qps on serve-s4096 (>85%) and serve-s64 (~half); 0 on cold-s64"),
    timing("core.ns_per_sample", "ns", "qps on serve-s4096, tcp-s4096"),
    count("alias.rng_words_per_sample", "count", "core.kernel_ns on serve-s4096"),
    count("alias.redirect_share", "ratio", "core.kernel_ns; prof bills boundary-piece draws only, so 0 when the chunk-aligned middle takes every draw"),
    count("alias.window_stall_share", "ratio", "core.kernel_ns; high on serve-s64, low on serve-s4096"),
    timing("serve.registry_ns", "ns", "p50_us on serve-s64, x4 on shard-fanout-s64"),
    timing("serve.queue_ns", "ns", "p50_us, qps on serve-s64, shard-fanout-s64; small on serve-s4096, cold-s64"),
    timing("serve.queue_wait_p50_us", "us", "serve.queue_ns on serve-s64 (log2 bucket upper bound)"),
    timing("serve.update_p50_us", "us", "qps on mixed-rw only"),
    higher(timing("serve.updates_per_s", "1/s", "qps on mixed-rw")),
    timing("serve.update_wall_share", "ratio", "share of mixed-rw wall time spent in Update calls"),
    count("serve.snapshot_swaps", "count", "serve.update_p50_us on mixed-rw"),
    count("serve.rejected_share", "ratio", "failed requests on every workload (expected 0)"),
    timing("shard.route_ns", "ns", "p50_us on shard-fanout-s64, tcp-*"),
    timing("shard.fanout_ns", "ns", "p50_us, qps on shard-fanout-s64 only"),
    count("shard.legs_per_query", "count", "shard.fanout_ns; 4 on shard-fanout-s64, 1 on tcp-*"),
    count("shard.probes_live_per_query", "count", "shard.route_ns on shard-fanout-s64"),
    count("shard.failovers", "count", "failed requests on router workloads (expected 0)"),
    count("shard.degraded_share", "ratio", "failed requests on router workloads (expected 0)"),
    timing("net.codec_ns", "ns", "p50_us, qps on tcp-s4096 (dominant); small on tcp-s64"),
    timing("net.socket_ns", "ns", "p50_us, qps on tcp-s64 (dominant)"),
    count("net.request_bytes", "bytes", "net.codec_ns on tcp-s4096"),
    count("net.reply_bytes", "bytes", "net.codec_ns on tcp-s4096"),
    timing("net.encode_reply_ns", "ns", "net.codec_ns on tcp-s4096"),
    timing("net.decode_reply_ns", "ns", "net.codec_ns on tcp-s4096"),
    timing("tier.cold_ns", "ns", "p50_us, qps on cold-s64 only"),
    timing("tier.hot_ns", "ns", "reference: cold penalty = tier.cold_ns / tier.hot_ns"),
    timing("tier.serve_ns", "ns", "p50_us on cold-s64 (small)"),
    count("tier.block_reads_per_query", "count", "tier.cold_ns on cold-s64"),
    count("tier.block_writes_per_query", "count", "tier.cold_ns on cold-s64"),
    higher(count("tier.cache_hit_share", "ratio", "tier.block_reads_per_query on cold-s64")),
    count("tier.cold_draws_per_query", "count", "tier.cold_ns on cold-s64 (64)"),
    timing("obs.recorder_overhead_share", "ratio", "qps if tracing were left on; serve-s64, tcp-s64"),
    count("obs.records_per_query", "count", "obs.recorder_overhead_share"),
    higher(timing("obs.span_coverage_share", "ratio", "how much of a query's wall time the recorder's records span")),
    timing("ledger.trace_overhead_share", "ratio", "validity of every timing row: traced vs untraced top rung"),
    timing("ledger.generator_ns", "ns", "qps: the benchmark's own work per request"),
    timing("ledger.top_rung_p50_us", "us", "the traced pass's own p50_us; the layer rows sum to it"),
    timing("client.p99_us", "us", "diagnostic: pooled tail of the traced top rung, not gated on this host"),
    higher(count("client.requests", "count", "sample count behind client.p99_us")),
    count("client.fail_share", "ratio", "failed requests over attempted (expected 0)"),
    higher(timing("host.cpu_busy_share", "ratio", "measurement validity: about 1 when pinned")),
    timing("host.peak_rss_mb", "MB", "memory moved into set-up shows here"),
    higher(count("host.pinned", "count", "measurement validity: 1 when taskset pinned the run")),
];
