//! Trace reconstruction: one query's two-level schedule rebuilt from
//! drained flight-recorder records.
//!
//! A sharded IQS query is planned as a two-level draw (top-level alias
//! split over shard range weights, then conditional per-shard draws) and
//! executed as a scatter over replica legs with failover. [`TraceView`]
//! reassembles that whole story for a single trace id: which shards the
//! router planned and with what weights, which were dark, how the
//! multinomial split distributed the demand, what happened on every leg
//! (submissions, failovers with cause, breaker trips, absorbed delays,
//! delivery or degradation), and how much randomness each leg consumed.

use std::time::Duration;

use crate::recorder::{span_replica, span_shard, Phase, Record};

/// All records of one trace, in global sequence order, with structured
/// accessors over the two-level schedule.
#[derive(Debug, Clone)]
pub struct TraceView {
    /// The trace id every record in `records` carries.
    pub trace: u64,
    /// The trace's records sorted by sequence number.
    pub records: Vec<Record>,
}

/// The records of one scatter leg (or shard-level span) of a trace.
#[derive(Debug, Clone)]
pub struct LegView {
    /// Shard index of the leg.
    pub shard: u32,
    /// Replica index, or `None` for shard-level records.
    pub replica: Option<u32>,
    /// The leg's records in sequence order.
    pub records: Vec<Record>,
}

impl TraceView {
    /// Extracts `trace`'s records from a drained batch, sorted by
    /// sequence number.
    #[must_use]
    pub fn build(records: &[Record], trace: u64) -> TraceView {
        let mut records: Vec<Record> =
            records.iter().filter(|r| r.trace == trace).copied().collect();
        records.sort_unstable_by_key(|r| r.seq);
        TraceView { trace, records }
    }

    /// Shards the router planned into the query, with their range
    /// weights, in plan order. The weight is NaN for a partly covered
    /// shard that is the plan's only one: a one-leg split reads no
    /// weight, so the router probed none.
    #[must_use]
    pub fn planned_shards(&self) -> Vec<(u32, f64)> {
        self.phase_records(Phase::RouterPlan).map(|r| (r.a as u32, f64::from_bits(r.b))).collect()
    }

    /// Shards that were planned but had no live replica at plan time.
    #[must_use]
    pub fn dark_shards(&self) -> Vec<u32> {
        self.phase_records(Phase::PlanDark).map(|r| r.a as u32).collect()
    }

    /// The multinomial split: `(shard, sample count)` per planned
    /// shard, in plan order.
    #[must_use]
    pub fn split_counts(&self) -> Vec<(u32, u64)> {
        self.phase_records(Phase::SplitCount).map(|r| (r.a as u32, r.b)).collect()
    }

    /// Every failover: `(shard, replica that failed, cause code)`. See
    /// [`crate::recorder::failover_cause_name`] for the cause codes.
    #[must_use]
    pub fn failovers(&self) -> Vec<(u32, u32, u64)> {
        self.phase_records(Phase::LegFailover)
            .map(|r| (r.shard().unwrap_or(u32::MAX), r.a as u32, r.b))
            .collect()
    }

    /// Breaker trips observed during this query: `(shard, replica)`.
    #[must_use]
    pub fn breaker_trips(&self) -> Vec<(u32, u32)> {
        self.phase_records(Phase::BreakerTrip)
            .map(|r| (r.shard().unwrap_or(u32::MAX), r.a as u32))
            .collect()
    }

    /// Legs that were abandoned: `(shard, planned samples lost)`.
    #[must_use]
    pub fn degraded_legs(&self) -> Vec<(u32, u64)> {
        self.phase_records(Phase::LegDegraded)
            .map(|r| (r.shard().unwrap_or(u32::MAX), r.a))
            .collect()
    }

    /// Total RNG words consumed across all [`Phase::RngCost`] records.
    #[must_use]
    pub fn rng_words(&self) -> u64 {
        self.phase_records(Phase::RngCost).map(|r| r.a).sum()
    }

    /// RNG words consumed by one shard's leg(s).
    #[must_use]
    pub fn leg_rng_words(&self, shard: u32) -> u64 {
        self.phase_records(Phase::RngCost).filter(|r| r.shard() == Some(shard)).map(|r| r.a).sum()
    }

    /// End-to-end latency from the [`Phase::QueryDone`] record, if the
    /// query completed inside the trace.
    #[must_use]
    pub fn total_latency(&self) -> Option<Duration> {
        self.phase_records(Phase::QueryDone).last().map(|r| Duration::from_nanos(r.a))
    }

    /// Whether the query completed degraded (from [`Phase::QueryDone`]).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.phase_records(Phase::QueryDone).last().is_some_and(|r| r.b != 0)
    }

    /// Groups the trace's records by span: query-level records are
    /// skipped; shard- and leg-scoped records come back as [`LegView`]s
    /// ordered by first appearance.
    #[must_use]
    pub fn legs(&self) -> Vec<LegView> {
        let mut legs: Vec<LegView> = Vec::new();
        for r in &self.records {
            let Some(shard) = span_shard(r.span) else { continue };
            let replica = span_replica(r.span);
            match legs.iter_mut().find(|l| l.shard == shard && l.replica == replica) {
                Some(leg) => leg.records.push(*r),
                None => legs.push(LegView { shard, replica, records: vec![*r] }),
            }
        }
        legs
    }

    /// Renders the trace as JSON lines (see
    /// [`crate::export::records_to_jsonl`]).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        crate::export::records_to_jsonl(&self.records)
    }

    fn phase_records(&self, phase: Phase) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.phase == phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Ctx;

    fn rec(seq: u64, ctx: Ctx, phase: Phase, a: u64, b: u64) -> Record {
        Record { seq, trace: ctx.trace, span: ctx.span, phase, t_ns: seq * 10, a, b }
    }

    /// A hand-built degraded two-shard query: shard 0 delivers after a
    /// failover, shard 1 is dark.
    fn sample_trace() -> Vec<Record> {
        let q = Ctx::query(5);
        let other = Ctx::query(6);
        vec![
            rec(1, q, Phase::RouterPlan, 0, 2.5f64.to_bits()),
            rec(2, q, Phase::RouterPlan, 1, 1.5f64.to_bits()),
            rec(3, q.shard(1), Phase::PlanDark, 1, 0),
            rec(4, q, Phase::SplitCount, 0, 7),
            rec(5, q, Phase::SplitCount, 1, 3),
            rec(6, q.leg(0, 0), Phase::LegSubmit, 0, 7),
            rec(7, other, Phase::QueryDone, 999, 0),
            rec(8, q.leg(0, 0), Phase::LegFailover, 0, 3),
            rec(9, q.shard(0), Phase::BreakerTrip, 0, 0),
            rec(10, q.leg(0, 1), Phase::LegSubmit, 1, 7),
            rec(11, q.leg(0, 1), Phase::DelayAbsorb, 40, 0),
            rec(12, q.leg(0, 1), Phase::RngCost, 21, 0),
            rec(13, q.leg(0, 1), Phase::LegDone, 7, 0),
            rec(14, q.shard(1), Phase::LegDegraded, 3, 0),
            rec(15, q, Phase::QueryDone, 500, 1),
        ]
    }

    #[test]
    fn view_filters_and_orders_by_trace() {
        let mut records = sample_trace();
        records.reverse();
        let view = TraceView::build(&records, 5);
        assert_eq!(view.records.len(), 14);
        assert!(view.records.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn schedule_accessors_reconstruct_the_two_level_plan() {
        let view = TraceView::build(&sample_trace(), 5);
        assert_eq!(view.planned_shards(), vec![(0, 2.5), (1, 1.5)]);
        assert_eq!(view.dark_shards(), vec![1]);
        assert_eq!(view.split_counts(), vec![(0, 7), (1, 3)]);
        assert_eq!(view.failovers(), vec![(0, 0, 3)]);
        assert_eq!(view.breaker_trips(), vec![(0, 0)]);
        assert_eq!(view.degraded_legs(), vec![(1, 3)]);
        assert_eq!(view.rng_words(), 21);
        assert_eq!(view.leg_rng_words(0), 21);
        assert_eq!(view.leg_rng_words(1), 0);
        assert_eq!(view.total_latency(), Some(Duration::from_nanos(500)));
        assert!(view.is_degraded());
    }

    #[test]
    fn legs_group_by_span_in_first_appearance_order() {
        let view = TraceView::build(&sample_trace(), 5);
        let legs = view.legs();
        let keys: Vec<(u32, Option<u32>)> = legs.iter().map(|l| (l.shard, l.replica)).collect();
        assert_eq!(keys, vec![(1, None), (0, Some(0)), (0, None), (0, Some(1))]);
        let failover_leg = legs.iter().find(|l| l.replica == Some(0)).expect("leg (0,0)");
        assert_eq!(failover_leg.records.len(), 2);
    }
}
