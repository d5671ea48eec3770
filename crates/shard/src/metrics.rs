//! Router-level counters and the aggregated cluster metrics view.
//!
//! The router records its own counters (queries, legs, probes,
//! failovers, breaker trips, rebalances) plus an end-to-end latency
//! histogram in the same log₂-bucket format the single-node service
//! uses. [`ClusterMetrics`] then pools every replica's
//! [`MetricsSnapshot`] into one cluster-wide snapshot with
//! [`MetricsSnapshot::merge`] and serializes the whole view as JSON, so
//! the harness reads one wire format whether it is metering one node or
//! a cluster.

use std::fmt;

use iqs_obs::{fmt_dur, PromWriter, SlowLog};
use iqs_serve::MetricsSnapshot;

iqs_obs::counter_set! {
    /// Live router counters; all increments are relaxed atomics on the
    /// query path.
    #[derive(Debug, Default)]
    pub(crate) struct RouterCounters;
    /// A point-in-time copy of the router's own counters.
    #[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
    pub struct RouterMetrics;
    laws router_counters_obey_the_descriptor_laws [json];
    counters {
        /// Cluster queries routed (samples and counts).
        queries: delta => counter "iqs_shard_router_events_total" [event = "queries"] "Router events by kind";
        /// Per-shard legs fanned out across all queries.
        legs: delta => counter "iqs_shard_router_events_total" [event = "legs"] "Router events by kind";
        /// Shard weight probes answered from the cached snapshot total.
        probes_cached: delta => counter "iqs_shard_router_events_total" [event = "probes_cached"] "Router events by kind";
        /// Shard weight probes that computed a partial-range prefix sum.
        probes_live: delta => counter "iqs_shard_router_events_total" [event = "probes_live"] "Router events by kind";
        /// Times a leg moved past a failed replica to the next candidate.
        failovers: delta => counter "iqs_shard_router_events_total" [event = "failovers"] "Router events by kind";
        /// Queries that returned with `degraded` set.
        degraded_queries: delta => counter "iqs_shard_router_events_total" [event = "degraded_queries"] "Router events by kind";
        /// Circuit-breaker trip events.
        trips: delta => counter "iqs_shard_router_events_total" [event = "breaker_trips"] "Router events by kind";
        /// Circuit-breaker recoveries (a probe succeeded on a tripped
        /// replica).
        recoveries: delta => counter "iqs_shard_router_events_total" [event = "breaker_recoveries"] "Router events by kind";
        /// Topology republications (splits and merges).
        rebalances: delta => counter "iqs_shard_router_events_total" [event = "rebalances"] "Router events by kind";
    }
    histograms {
        /// End-to-end router latency (query start → merged response).
        latency => "iqs_shard_router_latency_ns" "End-to-end router latency (ns)", exemplars;
    }
}

/// One replica's service metrics, tagged with its position in the
/// topology at snapshot time.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplicaMetrics {
    /// Shard index in the current topology.
    pub shard: usize,
    /// Replica index within the shard.
    pub replica: usize,
    /// Whether the router's circuit breaker for this replica is open.
    pub tripped: bool,
    /// The replica's own service metrics.
    pub serve: MetricsSnapshot,
}

/// The full cluster view: router counters, the pooled per-replica
/// service metrics, and the per-replica breakdown.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterMetrics {
    /// Shards in the topology at snapshot time.
    pub shards: usize,
    /// Router-level counters.
    pub router: RouterMetrics,
    /// Every replica's service metrics pooled with
    /// [`MetricsSnapshot::merge`].
    pub cluster: MetricsSnapshot,
    /// Per-replica breakdown, in `(shard, replica)` order.
    pub replicas: Vec<ReplicaMetrics>,
}

impl ClusterMetrics {
    /// Serializes the whole view as one JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("cluster metrics serialization is infallible")
    }

    /// Parses a view back from [`ClusterMetrics::to_json`] output.
    ///
    /// # Errors
    /// A JSON parse error describing the first malformed byte.
    pub fn from_json(text: &str) -> Result<ClusterMetrics, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Prometheus-style text exposition: router counters and latency
    /// under `iqs_shard_*` (with `slow`'s exemplars on its buckets), then
    /// the pooled replica metrics under `iqs_serve_*`: one scrape, one tier.
    #[must_use]
    pub fn to_prometheus(&self, slow: Option<&SlowLog>) -> String {
        let mut w = PromWriter::new();
        w.header("iqs_shard_topology_shards", "Shards in the topology", "gauge");
        w.sample("iqs_shard_topology_shards", &[], self.shards as u64);
        self.router.write_counters(&mut w);
        w.header("iqs_shard_replicas", "Replicas in the topology", "gauge");
        w.sample("iqs_shard_replicas", &[], self.replicas.len() as u64);
        w.header("iqs_shard_replicas_tripped", "Replicas with an open breaker", "gauge");
        let tripped = self.replicas.iter().filter(|m| m.tripped).count();
        w.sample("iqs_shard_replicas_tripped", &[], tripped as u64);
        self.router.write_histograms(&mut w, slow);
        let mut out = w.finish();
        out.push_str(&self.cluster.to_prometheus(None));
        out
    }
}

impl fmt::Display for ClusterMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.router;
        writeln!(
            f,
            "router: {} queries over {} shards ({} legs), {} degraded; probes {} cached / {} live",
            r.queries, self.shards, r.legs, r.degraded_queries, r.probes_cached, r.probes_live
        )?;
        writeln!(
            f,
            "failover: {} failovers, {} trips, {} recoveries; rebalances: {}",
            r.failovers, r.trips, r.recoveries, r.rebalances
        )?;
        writeln!(
            f,
            "router latency  p50 {} | p99 {} | p999 {}  (log2 buckets: ≤2x)",
            fmt_dur(r.latency.quantile(0.50)),
            fmt_dur(r.latency.quantile(0.99)),
            fmt_dur(r.latency.quantile(0.999)),
        )?;
        let tripped = self.replicas.iter().filter(|m| m.tripped).count();
        writeln!(
            f,
            "replicas: {} total, {} tripped; pooled service metrics:",
            self.replicas.len(),
            tripped
        )?;
        write!(f, "{}", self.cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn cluster_metrics_json_round_trip() {
        let counters = RouterCounters::default();
        counters.queries.fetch_add(9, Ordering::Relaxed);
        counters.failovers.fetch_add(2, Ordering::Relaxed);
        counters.latency.record(Duration::from_micros(15));
        let serve = MetricsSnapshot { submitted: 42, completed: 41, ..Default::default() };
        let mut cluster = serve.clone();
        cluster.merge(&serve);
        let m = ClusterMetrics {
            shards: 2,
            router: counters.snapshot(),
            cluster,
            replicas: vec![
                ReplicaMetrics { shard: 0, replica: 0, tripped: false, serve: serve.clone() },
                ReplicaMetrics { shard: 1, replica: 0, tripped: true, serve },
            ],
        };
        let json = m.to_json();
        assert!(json.contains("\"failovers\":2"));
        assert!(json.contains("\"tripped\":true"));
        let back = ClusterMetrics::from_json(&json).expect("round trip");
        assert_eq!(back, m);
        assert_eq!(back.cluster.submitted, 84);
        assert!(ClusterMetrics::from_json(&json[1..]).is_err());
        let text = m.to_string();
        assert!(text.contains("9 queries"));
        assert!(text.contains("1 tripped"));
    }

    #[test]
    fn prometheus_exposition_covers_router_and_pooled_serve() {
        let counters = RouterCounters::default();
        counters.queries.fetch_add(9, Ordering::Relaxed);
        counters.failovers.fetch_add(2, Ordering::Relaxed);
        counters.latency.record(Duration::from_micros(15));
        let slow = SlowLog::default();
        slow.observe(7, Duration::from_micros(15).as_nanos() as u64);
        let serve = MetricsSnapshot { submitted: 42, completed: 41, ..Default::default() };
        let mut cluster = serve.clone();
        cluster.merge(&serve);
        let m = ClusterMetrics {
            shards: 2,
            router: counters.snapshot(),
            cluster,
            replicas: vec![
                ReplicaMetrics { shard: 0, replica: 0, tripped: false, serve: serve.clone() },
                ReplicaMetrics { shard: 1, replica: 0, tripped: true, serve },
            ],
        };
        let text = m.to_prometheus(None);
        assert!(text.contains("iqs_shard_topology_shards 2\n"));
        assert!(text.contains("iqs_shard_router_events_total{event=\"queries\"} 9\n"));
        assert!(text.contains("iqs_shard_router_events_total{event=\"failovers\"} 2\n"));
        assert!(text.contains("iqs_shard_replicas 2\n"));
        assert!(text.contains("iqs_shard_replicas_tripped 1\n"));
        assert!(text.contains("iqs_shard_router_latency_ns_count 1\n"));
        // The pooled serve families follow in the same scrape.
        assert!(text.contains("iqs_serve_requests_total{outcome=\"submitted\"} 84\n"));
        // With the live slow log attached, the latency bucket carries an
        // exemplar trace id (15 µs lands in the (2^13, 2^14] bucket).
        let with_exemplars = m.to_prometheus(Some(&slow));
        assert!(with_exemplars
            .contains("iqs_shard_router_latency_ns_bucket{le=\"16384\"} 1 # {trace_id=\"7\"}\n"));
    }
}
