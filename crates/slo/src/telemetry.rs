//! Bounded telemetry shipping: replica-side batch building and
//! router-side cluster assembly.
//!
//! A replica periodically folds its drained flight-recorder records
//! into [`iqs_obs::LegSummary`]s and ships them, together with the
//! interval diff of its [`MetricsSnapshot`], as one [`TelemetryBatch`]
//! piggybacked on the registry announce cadence. Both ends are strictly
//! bounded — the shipper's leg buffer and the collector's leg store
//! each have a fixed capacity with an explicit drop counter, so there
//! is no unbounded queue anywhere and every shed leg is accounted for.
//!
//! # Delivery contract
//!
//! The shipper closes an interval when [`TelemetryShipper::next_batch`]
//! is called and advances its base only on [`TelemetryShipper::commit`]
//! (the caller's ack). A failed send is retried by calling `next_batch`
//! again: the rebuilt batch carries the **same** sequence number and a
//! superset interval, so nothing is lost and nothing double-counts, as
//! long as a failed send was not processed by the receiver (true for
//! the deterministic `iqs_net::SimTransport` — a timed-out frame is
//! never delivered — and for TCP up to the usual lost-ack caveat).
//! Duplicate deliveries are dropped at the collector by per-source
//! sequence comparison.

use std::collections::VecDeque;

use iqs_obs::{HistogramSnapshot, LegSummary, Record};
use iqs_serve::MetricsSnapshot;
use serde::{Deserialize, Serialize};

use crate::error::SloError;

/// One shipped telemetry interval from a single replica process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryBatch {
    /// The shipping replica's address (its identity at the collector).
    pub source: String,
    /// Shard index the source serves.
    pub shard: u32,
    /// Replica index within the shard.
    pub replica: u32,
    /// Per-source batch sequence number, 1-based and monotone. A
    /// retried batch re-uses its number; the collector accepts only
    /// numbers above the last one it ingested from this source.
    pub seq: u64,
    /// The source's metrics *diff* since its last committed batch.
    pub metrics: MetricsSnapshot,
    /// Trace-leg summaries drained since the last committed batch.
    pub legs: Vec<LegSummary>,
    /// Cumulative count of legs the source shed because its bounded
    /// buffer was full.
    pub dropped_legs: u64,
}

/// A batch built but not yet acked: the cumulative snapshot that
/// becomes the new base on commit, and how many buffered legs it
/// carried.
#[derive(Debug)]
struct Pending {
    cumulative: MetricsSnapshot,
    legs: usize,
}

/// Replica-side telemetry state: a bounded leg buffer plus the
/// committed metrics base the next diff is taken against.
#[derive(Debug)]
pub struct TelemetryShipper {
    source: String,
    shard: u32,
    replica: u32,
    capacity: usize,
    legs: VecDeque<LegSummary>,
    dropped: u64,
    base: MetricsSnapshot,
    pending: Option<Pending>,
    seq: u64,
}

impl TelemetryShipper {
    /// A shipper for one replica process. `capacity` bounds the leg
    /// buffer; legs arriving past it are dropped (newest first to go)
    /// and counted.
    ///
    /// # Errors
    /// [`SloError::Config`] for a zero capacity or an empty source
    /// address.
    pub fn new(
        source: &str,
        shard: u32,
        replica: u32,
        capacity: usize,
    ) -> Result<TelemetryShipper, SloError> {
        if capacity == 0 {
            return Err(SloError::Config("telemetry leg capacity must be at least 1"));
        }
        if source.is_empty() {
            return Err(SloError::Config("telemetry source address must be non-empty"));
        }
        Ok(TelemetryShipper {
            source: source.to_string(),
            shard,
            replica,
            capacity,
            legs: VecDeque::new(),
            dropped: 0,
            base: MetricsSnapshot::default(),
            pending: None,
            seq: 0,
        })
    }

    /// Folds a drained record batch into leg summaries and buffers
    /// them, dropping (and counting) whatever exceeds the capacity.
    pub fn absorb(&mut self, records: &[Record]) {
        for summary in LegSummary::summarize(records) {
            if self.legs.len() < self.capacity {
                self.legs.push_back(summary);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Closes the current interval against `now` (the source's
    /// cumulative metrics snapshot) and returns the batch to ship. An
    /// unacked previous batch is superseded: the rebuilt batch keeps
    /// its sequence number and covers the union of both intervals.
    ///
    /// # Errors
    /// [`SloError::Window`] when `now` is not a later snapshot of the
    /// same monotone metrics (caller bug: sources must diff their own
    /// cumulative snapshots).
    pub fn next_batch(&mut self, now: &MetricsSnapshot) -> Result<TelemetryBatch, SloError> {
        let diff = now.minus(&self.base)?;
        if self.pending.is_none() {
            self.seq += 1;
        }
        self.pending = Some(Pending { cumulative: now.clone(), legs: self.legs.len() });
        Ok(TelemetryBatch {
            source: self.source.clone(),
            shard: self.shard,
            replica: self.replica,
            seq: self.seq,
            metrics: diff,
            legs: self.legs.iter().copied().collect(),
            dropped_legs: self.dropped,
        })
    }

    /// Acknowledges the outstanding batch: the base advances to its
    /// cumulative snapshot and the legs it carried leave the buffer.
    /// A commit with nothing outstanding is a no-op.
    pub fn commit(&mut self) {
        if let Some(pending) = self.pending.take() {
            self.base = pending.cumulative;
            self.legs.drain(..pending.legs.min(self.legs.len()));
        }
    }

    /// Cumulative count of legs shed by the bounded buffer.
    #[must_use]
    pub fn dropped_legs(&self) -> u64 {
        self.dropped
    }

    /// Legs currently buffered (shipped-but-unacked legs included).
    #[must_use]
    pub fn buffered_legs(&self) -> usize {
        self.legs.len()
    }
}

/// Exact ledger of what the collector has seen and shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryStats {
    /// Batches accepted (first delivery of each sequence number).
    pub batches: u64,
    /// Batches dropped as duplicate deliveries.
    pub duplicates: u64,
    /// Legs kept in the collector's bounded store, cumulative.
    pub legs_kept: u64,
    /// Legs the collector shed because its own store was full.
    pub legs_dropped: u64,
}

/// Per-source ingest state at the collector.
#[derive(Debug)]
struct SourceState {
    source: String,
    shard: u32,
    last_seq: u64,
    /// Accumulated metrics diffs — the source's lifetime totals as far
    /// as committed batches go.
    acc: MetricsSnapshot,
    /// The source's own cumulative drop counter, latest value.
    dropped_legs: u64,
}

/// Router-side assembly of shipped telemetry: per-source accumulated
/// metrics, a bounded store of remote leg summaries, and an exact
/// drop/duplicate ledger.
#[derive(Debug)]
pub struct ClusterTelemetry {
    capacity: usize,
    sources: Vec<SourceState>,
    legs: Vec<LegSummary>,
    stats: TelemetryStats,
}

impl ClusterTelemetry {
    /// A collector whose leg store holds at most `capacity` summaries;
    /// arrivals past that are dropped and counted.
    ///
    /// # Errors
    /// [`SloError::Config`] for a zero capacity.
    pub fn new(capacity: usize) -> Result<ClusterTelemetry, SloError> {
        if capacity == 0 {
            return Err(SloError::Config("collector leg capacity must be at least 1"));
        }
        Ok(ClusterTelemetry {
            capacity,
            sources: Vec::new(),
            legs: Vec::new(),
            stats: TelemetryStats::default(),
        })
    }

    /// Ingests one delivered batch. Returns `false` (and counts a
    /// duplicate) when the source's sequence number has been seen
    /// already — the at-most-once guard against duplicated frames.
    pub fn ingest(&mut self, batch: &TelemetryBatch) -> bool {
        let state = match self.sources.iter_mut().find(|s| s.source == batch.source) {
            Some(state) => state,
            None => {
                self.sources.push(SourceState {
                    source: batch.source.clone(),
                    shard: batch.shard,
                    last_seq: 0,
                    acc: MetricsSnapshot::default(),
                    dropped_legs: 0,
                });
                self.sources.last_mut().expect("just pushed")
            }
        };
        if batch.seq <= state.last_seq {
            self.stats.duplicates += 1;
            return false;
        }
        state.last_seq = batch.seq;
        state.acc.merge(&batch.metrics);
        state.dropped_legs = batch.dropped_legs;
        for leg in &batch.legs {
            if self.legs.len() < self.capacity {
                self.legs.push(*leg);
                self.stats.legs_kept += 1;
            } else {
                self.stats.legs_dropped += 1;
            }
        }
        self.stats.batches += 1;
        true
    }

    /// The whole cluster's metrics: every source's accumulated diffs
    /// folded into one snapshot.
    #[must_use]
    pub fn cluster_metrics(&self) -> MetricsSnapshot {
        let mut acc = MetricsSnapshot::default();
        for source in &self.sources {
            acc.merge(&source.acc);
        }
        acc
    }

    /// One shard's pooled *cumulative* latency histogram across every
    /// source serving it — the series the SLO engine's interval diffing
    /// runs on.
    #[must_use]
    pub fn shard_latency(&self, shard: u32) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::default();
        for source in self.sources.iter().filter(|s| s.shard == shard) {
            acc.merge(&source.acc.latency);
        }
        acc
    }

    /// Remote leg summaries currently held, in arrival order. Pass to
    /// [`iqs_obs::TraceView::build_with_remote`] for cluster traces.
    #[must_use]
    pub fn legs(&self) -> &[LegSummary] {
        &self.legs
    }

    /// The collector's exact ingest/drop ledger.
    #[must_use]
    pub fn stats(&self) -> TelemetryStats {
        self.stats
    }

    /// Sum of every source's own cumulative shed count (latest
    /// reported values) — the remote half of the drop ledger.
    #[must_use]
    pub fn source_dropped_legs(&self) -> u64 {
        self.sources.iter().map(|s| s.dropped_legs).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use iqs_obs::{Ctx, Phase};

    use super::*;

    fn record(seq: u64, ctx: Ctx, phase: Phase, a: u64, b: u64) -> Record {
        Record { seq, trace: ctx.trace, span: ctx.span, phase, t_ns: seq, a, b }
    }

    fn snapshot_with(completed: u64, latency_ns: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot { completed, ..Default::default() };
        let bucket = iqs_obs::log2_bucket(latency_ns);
        snap.latency.buckets[bucket] = completed;
        snap
    }

    #[test]
    fn config_errors_are_typed() {
        assert!(matches!(TelemetryShipper::new("a", 0, 0, 0), Err(SloError::Config(_))));
        assert!(matches!(TelemetryShipper::new("", 0, 0, 4), Err(SloError::Config(_))));
        assert!(matches!(ClusterTelemetry::new(0), Err(SloError::Config(_))));
    }

    #[test]
    fn diff_shipping_commits_on_ack_and_supersedes_on_failure() {
        let mut shipper = TelemetryShipper::new("sim://r0", 0, 0, 8).expect("config");
        let first = shipper.next_batch(&snapshot_with(10, 1000)).expect("monotone");
        assert_eq!((first.seq, first.metrics.completed), (1, 10));
        shipper.commit();

        // A failed send: the retry keeps seq 2 and covers both
        // intervals, so the collector misses nothing.
        let lost = shipper.next_batch(&snapshot_with(14, 1000)).expect("monotone");
        assert_eq!((lost.seq, lost.metrics.completed), (2, 4));
        let retry = shipper.next_batch(&snapshot_with(19, 1000)).expect("monotone");
        assert_eq!((retry.seq, retry.metrics.completed), (2, 9));
        shipper.commit();
        let next = shipper.next_batch(&snapshot_with(20, 1000)).expect("monotone");
        assert_eq!((next.seq, next.metrics.completed), (3, 1));

        // Feeding an *earlier* snapshot is a window error, not a silent
        // zero interval.
        assert!(matches!(shipper.next_batch(&snapshot_with(5, 1000)), Err(SloError::Window(_))));
    }

    #[test]
    fn bounded_buffers_drop_and_account_exactly() {
        let mut shipper = TelemetryShipper::new("sim://r0", 0, 0, 2).expect("config");
        // Four legs into a 2-slot buffer: two kept, two dropped.
        for trace in 1..=4u64 {
            let leg = Ctx::query(trace).leg(0, 0);
            shipper.absorb(&[record(trace, leg, Phase::WorkDone, 100, 1)]);
        }
        assert_eq!(shipper.buffered_legs(), 2);
        assert_eq!(shipper.dropped_legs(), 2);

        let batch = shipper.next_batch(&snapshot_with(4, 100)).expect("monotone");
        assert_eq!(batch.legs.len(), 2);
        assert_eq!(batch.dropped_legs, 2);
        shipper.commit();
        assert_eq!(shipper.buffered_legs(), 0);

        // Collector side: a 1-slot store keeps one, sheds one, and the
        // ledger plus the source counter account for all four produced.
        let mut collector = ClusterTelemetry::new(1).expect("config");
        assert!(collector.ingest(&batch));
        let stats = collector.stats();
        assert_eq!((stats.legs_kept, stats.legs_dropped), (1, 1));
        assert_eq!(collector.source_dropped_legs(), 2);
        assert_eq!(
            stats.legs_kept + stats.legs_dropped + collector.source_dropped_legs(),
            4,
            "every produced leg is kept or counted dropped somewhere"
        );
    }

    #[test]
    fn duplicate_deliveries_are_dropped_by_sequence() {
        let mut shipper = TelemetryShipper::new("sim://r1", 1, 0, 8).expect("config");
        let batch = shipper.next_batch(&snapshot_with(7, 2000)).expect("monotone");
        shipper.commit();

        let mut collector = ClusterTelemetry::new(16).expect("config");
        assert!(collector.ingest(&batch));
        assert!(!collector.ingest(&batch), "second delivery must be rejected");
        assert_eq!(collector.stats().duplicates, 1);
        assert_eq!(collector.cluster_metrics().completed, 7, "no double counting");
        assert_eq!(collector.shard_latency(1).count(), 7);
        assert_eq!(collector.shard_latency(0).count(), 0);
    }

    #[test]
    fn cluster_metrics_fold_across_sources() {
        let mut a = TelemetryShipper::new("sim://a", 0, 0, 8).expect("config");
        let mut b = TelemetryShipper::new("sim://b", 1, 0, 8).expect("config");
        let mut collector = ClusterTelemetry::new(16).expect("config");
        collector.ingest(&a.next_batch(&snapshot_with(3, 500)).expect("monotone"));
        a.commit();
        collector.ingest(&b.next_batch(&snapshot_with(5, 4000)).expect("monotone"));
        b.commit();
        collector.ingest(&a.next_batch(&snapshot_with(9, 500)).expect("monotone"));
        a.commit();
        let cluster = collector.cluster_metrics();
        assert_eq!(cluster.completed, 14);
        assert_eq!(cluster.latency.count(), 14);
        assert_eq!(collector.shard_latency(0).count(), 9);
        assert_eq!(collector.shard_latency(1).count(), 5);
        // Quantiles on the pooled view behave like any merged snapshot.
        assert!(collector.shard_latency(1).quantile(0.5) >= Some(Duration::from_nanos(4096)));
    }

    #[test]
    fn batch_json_round_trips() {
        let mut shipper = TelemetryShipper::new("sim://r2", 2, 1, 8).expect("config");
        let leg = Ctx::query(42).leg(2, 1);
        shipper.absorb(&[
            record(1, leg, Phase::Pickup, 30, 0),
            record(2, leg, Phase::WorkDone, 700, 1),
        ]);
        let batch = shipper.next_batch(&snapshot_with(1, 700)).expect("monotone");
        let json = serde_json::to_string(&batch).expect("serialize");
        let back: TelemetryBatch = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, batch);
    }
}
