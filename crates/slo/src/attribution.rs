//! Tail-latency attribution: why was this query slow?
//!
//! The paper's structures have sharply different per-query cost
//! profiles — Theorem-3 draws are O(1+k) in RAM while the §8 EM cold
//! path pays block I/O per draw — so a latency histogram alone cannot
//! say *which* structural path a slow query took. This module joins a
//! reconstructed [`TraceView`] (local records plus shipped remote leg
//! summaries) with the recorder's packed cost counters and buckets each
//! slow query by its dominant structural cause.

use std::fmt::Write as _;

use iqs_obs::recorder::{unpack_cost, unpack_io};
use iqs_obs::{saturating_ns, Phase, PromWriter, SlowEntry, TraceView};

/// Tree-descent steps past which a query's cost profile reads as
/// descent-dominated (two-level draws descend a handful of levels; a
/// run of this many says the structure, not the service, was the cost).
pub const DESCENT_THRESHOLD: u64 = 16;

/// The structural cause a slow query is attributed to, in priority
/// order: an explicit failure path beats a cost profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// The query failed over between replicas (or degraded outright).
    Failover,
    /// Cold-tier block I/O was paid on at least one leg.
    ColdIo,
    /// Queue wait dominated (at least half the end-to-end latency).
    QueueWait,
    /// Tree-descent cost dominated the draw itself.
    Descent,
    /// None of the structural causes apply.
    Other,
}

impl Cause {
    /// Every cause, in attribution priority order.
    pub const ALL: [Cause; 5] =
        [Cause::Failover, Cause::ColdIo, Cause::QueueWait, Cause::Descent, Cause::Other];

    /// Stable lower-snake name used in JSONL and Prometheus output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Cause::Failover => "failover",
            Cause::ColdIo => "cold_io",
            Cause::QueueWait => "queue_wait",
            Cause::Descent => "descent",
            Cause::Other => "other",
        }
    }
}

/// Attributes one assembled trace to its dominant structural cause.
///
/// Priority: failover/degradation (an explicit failure path) beats
/// cold-tier I/O (block reads or cache misses on any leg), which beats
/// queue wait (≥ half the total latency spent waiting for pickup),
/// which beats descent cost (more than [`DESCENT_THRESHOLD`] recorded
/// descent steps). A trace matching none is [`Cause::Other`].
#[must_use]
pub fn attribute(view: &TraceView) -> Cause {
    if !view.failovers().is_empty() || view.is_degraded() || !view.degraded_legs().is_empty() {
        return Cause::Failover;
    }
    let cold_io: u64 = view
        .records
        .iter()
        .filter(|r| r.phase == Phase::ColdDraw)
        .map(|r| {
            let (reads, _writes, _hits, misses) = unpack_io(r.b);
            reads + misses
        })
        .sum();
    if cold_io > 0 {
        return Cause::ColdIo;
    }
    let queue_wait: u64 =
        view.records.iter().filter(|r| r.phase == Phase::Pickup).map(|r| r.a).sum();
    let total = view.total_latency().map_or(0, saturating_ns);
    if total > 0 && queue_wait.saturating_mul(2) >= total {
        return Cause::QueueWait;
    }
    let descents: u64 =
        view.records.iter().filter(|r| r.phase == Phase::RngCost).map(|r| unpack_cost(r.b).2).sum();
    if descents > DESCENT_THRESHOLD {
        return Cause::Descent;
    }
    Cause::Other
}

/// One cause's accumulated share of the slow-query population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Row {
    count: u64,
    total_ns: u64,
}

/// The attribution table: slow queries bucketed by structural cause,
/// with per-cause counts and total latency, exported through JSONL and
/// Prometheus alongside the slow-log itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionTable {
    rows: [Row; Cause::ALL.len()],
}

impl AttributionTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> AttributionTable {
        AttributionTable::default()
    }

    /// Attributes one assembled trace and charges its latency to the
    /// cause's row. Returns the cause for the caller's own bookkeeping.
    pub fn observe(&mut self, view: &TraceView) -> Cause {
        let cause = attribute(view);
        let latency = view.total_latency().map_or(0, saturating_ns);
        let row = &mut self.rows[Cause::ALL.iter().position(|c| *c == cause).expect("in ALL")];
        row.count += 1;
        row.total_ns = row.total_ns.saturating_add(latency);
        cause
    }

    /// Joins a drained slow-log against a record batch (plus shipped
    /// remote summaries): each slow entry's trace is assembled and
    /// attributed. Returns `(trace, latency_ns, cause)` per entry, in
    /// slow-log order (slowest first).
    pub fn observe_slow_log(
        &mut self,
        entries: &[SlowEntry],
        records: &[iqs_obs::Record],
        remote: &[iqs_obs::LegSummary],
    ) -> Vec<(u64, u64, Cause)> {
        entries
            .iter()
            .map(|e| {
                let view = TraceView::build_with_remote(records, e.trace, remote);
                (e.trace, e.latency_ns, self.observe(&view))
            })
            .collect()
    }

    /// Queries attributed to `cause` so far.
    #[must_use]
    pub fn count(&self, cause: Cause) -> u64 {
        self.rows[Cause::ALL.iter().position(|c| *c == cause).expect("in ALL")].count
    }

    /// Total latency charged to `cause`, nanoseconds.
    #[must_use]
    pub fn total_ns(&self, cause: Cause) -> u64 {
        self.rows[Cause::ALL.iter().position(|c| *c == cause).expect("in ALL")].total_ns
    }

    /// The cause with the most attributed queries, if any query has
    /// been observed (ties break toward the higher-priority cause).
    #[must_use]
    pub fn dominant(&self) -> Option<Cause> {
        Cause::ALL.iter().copied().max_by_key(|c| self.count(*c)).filter(|c| self.count(*c) > 0)
    }

    /// Renders the table as JSON lines, one object per cause in
    /// priority order (zero rows included — an absent cause is
    /// information).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for cause in Cause::ALL {
            writeln!(
                out,
                "{{\"cause\":\"{}\",\"count\":{},\"total_ns\":{}}}",
                cause.name(),
                self.count(cause),
                self.total_ns(cause)
            )
            .expect("infallible");
        }
        out
    }

    /// Renders the table as Prometheus-style text exposition:
    /// `iqs_slo_slow_cause_total` and `iqs_slo_slow_cause_ns` families
    /// labeled by cause.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.header("iqs_slo_slow_cause_total", "Slow queries by structural cause", "counter");
        for cause in Cause::ALL {
            w.sample("iqs_slo_slow_cause_total", &[("cause", cause.name())], self.count(cause));
        }
        w.header("iqs_slo_slow_cause_ns", "Total slow-query latency by cause", "counter");
        for cause in Cause::ALL {
            w.sample("iqs_slo_slow_cause_ns", &[("cause", cause.name())], self.total_ns(cause));
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use iqs_obs::recorder::{pack_cost, pack_io};
    use iqs_obs::{Ctx, Record};

    use super::*;

    fn rec(seq: u64, ctx: Ctx, phase: Phase, a: u64, b: u64) -> Record {
        Record { seq, trace: ctx.trace, span: ctx.span, phase, t_ns: seq * 10, a, b }
    }

    fn done(seq: u64, q: Ctx, total_ns: u64) -> Record {
        rec(seq, q, Phase::QueryDone, total_ns, 0)
    }

    #[test]
    fn causes_attribute_by_priority() {
        let q = Ctx::query(1);
        // Failover beats everything, even with cold I/O present.
        let failover = vec![
            rec(1, q.leg(0, 0), Phase::LegFailover, 0, 4),
            rec(2, q.leg(0, 1), Phase::ColdDraw, 8, pack_io(5, 0, 1, 3)),
            done(3, q, 1_000),
        ];
        assert_eq!(attribute(&TraceView::build(&failover, 1)), Cause::Failover);

        // Cold I/O: block reads or misses on any leg.
        let cold =
            vec![rec(1, q.leg(0, 0), Phase::ColdDraw, 8, pack_io(2, 0, 6, 2)), done(2, q, 1_000)];
        assert_eq!(attribute(&TraceView::build(&cold, 1)), Cause::ColdIo);
        // A fully cache-hit cold draw is not an I/O cause.
        let warm =
            vec![rec(1, q.leg(0, 0), Phase::ColdDraw, 8, pack_io(0, 0, 9, 0)), done(2, q, 1_000)];
        assert_eq!(attribute(&TraceView::build(&warm, 1)), Cause::Other);

        // Queue wait at half the total latency dominates.
        let queued = vec![rec(1, q.leg(0, 0), Phase::Pickup, 600, 0), done(2, q, 1_000)];
        assert_eq!(attribute(&TraceView::build(&queued, 1)), Cause::QueueWait);

        // Descent-heavy draws.
        let deep = vec![
            rec(1, q.leg(0, 0), Phase::RngCost, 40, pack_cost(0, 0, DESCENT_THRESHOLD + 1, 0)),
            done(2, q, 1_000),
        ];
        assert_eq!(attribute(&TraceView::build(&deep, 1)), Cause::Descent);

        // Nothing structural: Other.
        let plain = vec![done(1, q, 1_000)];
        assert_eq!(attribute(&TraceView::build(&plain, 1)), Cause::Other);
    }

    #[test]
    fn table_accumulates_and_exports() {
        let mut table = AttributionTable::new();
        let q = Ctx::query(7);
        let cold =
            vec![rec(1, q.leg(0, 0), Phase::ColdDraw, 8, pack_io(4, 0, 0, 4)), done(2, q, 5_000)];
        let view = TraceView::build(&cold, 7);
        assert_eq!(table.observe(&view), Cause::ColdIo);
        assert_eq!(table.observe(&view), Cause::ColdIo);
        assert_eq!(table.count(Cause::ColdIo), 2);
        assert_eq!(table.total_ns(Cause::ColdIo), 10_000);
        assert_eq!(table.dominant(), Some(Cause::ColdIo));

        let jsonl = table.to_jsonl();
        assert_eq!(jsonl.lines().count(), Cause::ALL.len());
        assert!(jsonl.contains("{\"cause\":\"cold_io\",\"count\":2,\"total_ns\":10000}"));
        let prom = table.to_prometheus();
        assert!(prom.contains("iqs_slo_slow_cause_total{cause=\"cold_io\"} 2"));
        assert!(prom.contains("iqs_slo_slow_cause_ns{cause=\"cold_io\"} 10000"));
        assert!(prom.contains("iqs_slo_slow_cause_total{cause=\"failover\"} 0"));
    }

    #[test]
    fn slow_log_join_assembles_remote_legs() {
        use iqs_obs::LegSummary;
        // The slow query's cold I/O happened on a *remote* leg: only
        // the shipped summary knows, so attribution must read through
        // the assembled view.
        let q = Ctx::query(9);
        let local = vec![rec(1, q.leg(0, 0), Phase::LegSubmit, 0, 8), done(2, q, 9_000)];
        let remote = LegSummary {
            trace: 9,
            span: q.leg(0, 0).span,
            first_seq: 50,
            pickup_t_ns: 10,
            done_t_ns: 20,
            queue_wait_ns: 5,
            service_ns: 8_000,
            ok: true,
            deadline_misses: 0,
            rng_words: 12,
            cost: 0,
            cold_samples: 8,
            io: pack_io(6, 0, 2, 6),
        };
        let mut table = AttributionTable::new();
        let slow = vec![SlowEntry { trace: 9, latency_ns: 9_000 }];
        let rows = table.observe_slow_log(&slow, &local, &[remote]);
        assert_eq!(rows, vec![(9, 9_000, Cause::ColdIo)]);
        assert_eq!(table.dominant(), Some(Cause::ColdIo));
    }
}
