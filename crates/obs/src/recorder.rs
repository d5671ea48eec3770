//! The lock-free flight recorder: per-thread ring buffers of compact
//! binary records.
//!
//! # Design
//!
//! Each recording thread owns one fixed-size ring of slots. A slot is a
//! handful of `AtomicU64`s guarded by a *stamp* word carrying the
//! record's globally unique sequence number — a seqlock in miniature,
//! built entirely from safe atomics:
//!
//! * **Writer** (the owning thread only): store `0` into the stamp
//!   (release), store the fields (relaxed), store the sequence number
//!   (release). One `fetch_add` on a global sequence counter provides a
//!   total order across all threads.
//! * **Reader** ([`drain`], any thread): load the stamp (acquire), read
//!   the fields (relaxed), re-load the stamp and keep the record only
//!   if both loads agree on the same non-zero sequence. Sequence
//!   numbers are never reused, so a torn read cannot masquerade as a
//!   consistent one.
//!
//! Reads racing an active writer are **best effort**: a record being
//! overwritten at drain time is skipped, exactly like a record that
//! aged out of the ring. Tests drain quiescent recorders, where the
//! protocol is exact.
//!
//! When no subscriber is installed — the production default — [`emit`]
//! performs one relaxed atomic load and returns. Requests carrying
//! [`UNTRACED`] (trace id `0`) are equally free even while a subscriber
//! is active, which is how sampled tracing keeps untraced traffic cold.
//!
//! [`install`] resets the global sequence and trace-id counters, so two
//! identically seeded virtual-clock runs in one process produce
//! identical record streams.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use iqs_testkit::ClockHandle;

/// The trace id carried by requests that are not being traced. Emits
/// against it are dropped before touching any ring.
pub const UNTRACED: u64 = 0;

/// Event kinds recorded on the serve and shard tiers. The discriminant
/// is the wire value stored in ring slots and JSONL dumps.
///
/// The `a`/`b` payload meaning per phase is documented on each variant
/// as `a=…, b=…`; unused payloads are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Router planned a shard into the query. `a`=shard index,
    /// `b`=shard range weight as `f64::to_bits` (NaN when the shard is
    /// the plan's only one and partly covered: a one-leg split reads no
    /// weight, so none was probed).
    RouterPlan = 1,
    /// A planned shard had no live replica at plan time. `a`=shard.
    PlanDark = 2,
    /// Multinomial split assigned samples to a shard. `a`=shard,
    /// `b`=sample count.
    SplitCount = 3,
    /// A scatter leg was submitted to a replica. `a`=replica,
    /// `b`=planned sample count.
    LegSubmit = 4,
    /// A leg attempt failed and the router moved to another replica.
    /// `a`=replica that failed, `b`=cause (see [`failover_cause_name`]).
    LegFailover = 5,
    /// A replica breaker tripped open. `a`=replica.
    BreakerTrip = 6,
    /// A replica breaker recovered after a successful probe. `a`=replica.
    BreakerRecover = 7,
    /// `iqs_shard::FaultyLink` slept out an injected delay, capped at the
    /// attempt's deadline, before reading a leg. `a`=nanoseconds slept.
    DelayAbsorb = 8,
    /// A scatter leg delivered its samples. `a`=delivered count.
    LegDone = 9,
    /// A scatter leg was abandoned; the query degrades. `a`=planned
    /// count lost.
    LegDegraded = 10,
    /// Request entered a replica server queue.
    Enqueue = 11,
    /// The request was picked up, by a worker or by its own blocking
    /// caller. `a`=queue wait in nanoseconds.
    Pickup = 12,
    /// The request's deadline had already passed at pickup.
    DeadlineMiss = 13,
    /// Sampling-cost profile for one draw. `a`=RNG words consumed,
    /// `b`=packed cost counters (see [`pack_cost`]).
    RngCost = 14,
    /// Whoever picked the request up finished executing it. `a`=service
    /// latency in nanoseconds, `b`=1 if the request succeeded.
    WorkDone = 15,
    /// The query completed end to end. `a`=total latency in
    /// nanoseconds, `b`=1 if the response was degraded.
    QueryDone = 16,
    /// A cold-tier (external-memory) draw was served through the block
    /// cache. `a`=sample count, `b`=packed interval I/O counters (see
    /// [`pack_io`]).
    ColdDraw = 17,
    // 18, 19 and 20 are retired, not reused: a trace from an older build
    // may carry them, and each must decode as `None` rather than as
    // another phase.
}

impl Phase {
    /// Decodes a wire value back into a phase.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Phase> {
        Some(match v {
            1 => Phase::RouterPlan,
            2 => Phase::PlanDark,
            3 => Phase::SplitCount,
            4 => Phase::LegSubmit,
            5 => Phase::LegFailover,
            6 => Phase::BreakerTrip,
            7 => Phase::BreakerRecover,
            8 => Phase::DelayAbsorb,
            9 => Phase::LegDone,
            10 => Phase::LegDegraded,
            11 => Phase::Enqueue,
            12 => Phase::Pickup,
            13 => Phase::DeadlineMiss,
            14 => Phase::RngCost,
            15 => Phase::WorkDone,
            16 => Phase::QueryDone,
            17 => Phase::ColdDraw,
            _ => return None,
        })
    }

    /// Stable lower-snake name used in JSONL dumps.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::RouterPlan => "router_plan",
            Phase::PlanDark => "plan_dark",
            Phase::SplitCount => "split_count",
            Phase::LegSubmit => "leg_submit",
            Phase::LegFailover => "leg_failover",
            Phase::BreakerTrip => "breaker_trip",
            Phase::BreakerRecover => "breaker_recover",
            Phase::DelayAbsorb => "delay_absorb",
            Phase::LegDone => "leg_done",
            Phase::LegDegraded => "leg_degraded",
            Phase::Enqueue => "enqueue",
            Phase::Pickup => "pickup",
            Phase::DeadlineMiss => "deadline_miss",
            Phase::RngCost => "rng_cost",
            Phase::WorkDone => "work_done",
            Phase::QueryDone => "query_done",
            Phase::ColdDraw => "cold_draw",
        }
    }
}

/// Failover cause codes carried in [`Phase::LegFailover`]'s `b` payload.
/// 1 (`fault_gate`) and 5 (`delay_past_deadline`) are retired, not
/// reused: an injected fault fails through the replica's link, as 2 or 4.
#[must_use]
pub fn failover_cause_name(cause: u64) -> &'static str {
    match cause {
        2 => "admission_refused",
        3 => "error_reply",
        4 => "timeout",
        _ => "unknown",
    }
}

/// Packs the non-word cost counters of one draw into [`Phase::RngCost`]'s
/// `b` payload: 16 bits each (saturating) for refills, alias redirects,
/// tree-descent steps and set-union rejections, low to high.
#[must_use]
pub fn pack_cost(refills: u64, redirects: u64, descents: u64, rejects: u64) -> u64 {
    fn clamp16(v: u64) -> u64 {
        v.min(0xffff)
    }
    clamp16(refills) | clamp16(redirects) << 16 | clamp16(descents) << 32 | clamp16(rejects) << 48
}

/// Packs one cold draw's interval I/O counters into [`Phase::ColdDraw`]'s
/// `b` payload: 16 bits each (saturating) for block reads, block writes,
/// cache hits and cache misses, low to high.
#[must_use]
pub fn pack_io(reads: u64, writes: u64, hits: u64, misses: u64) -> u64 {
    fn clamp16(v: u64) -> u64 {
        v.min(0xffff)
    }
    clamp16(reads) | clamp16(writes) << 16 | clamp16(hits) << 32 | clamp16(misses) << 48
}

/// One flight-recorder record, 48 bytes of plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Global sequence number; a total order over all threads' records.
    pub seq: u64,
    /// Trace id of the query this record belongs to (never [`UNTRACED`]).
    pub trace: u64,
    /// Span within the trace; see [`Ctx`] for the encoding.
    pub span: u32,
    /// What happened.
    pub phase: Phase,
    /// Nanoseconds since the subscriber's clock base at emit time.
    pub t_ns: u64,
    /// First payload word; meaning depends on `phase`.
    pub a: u64,
    /// Second payload word; meaning depends on `phase`.
    pub b: u64,
}

impl Record {
    /// Shard index if this record's span is shard- or leg-scoped.
    #[must_use]
    pub fn shard(&self) -> Option<u32> {
        span_shard(self.span)
    }

    /// Replica index if this record's span is leg-scoped.
    #[must_use]
    pub fn replica(&self) -> Option<u32> {
        span_replica(self.span)
    }
}

/// Shard index encoded in a span, if any.
#[must_use]
pub fn span_shard(span: u32) -> Option<u32> {
    (span >> 16 != 0).then(|| (span >> 16) - 1)
}

/// Replica index encoded in a span, if any.
#[must_use]
pub fn span_replica(span: u32) -> Option<u32> {
    (span & 0xffff != 0).then(|| (span & 0xffff) - 1)
}

/// Trace context carried alongside a request: which trace it belongs to
/// and which span within the trace is currently active.
///
/// Span encoding (`u32`): `0` is the query level; `(shard+1) << 16` is
/// a shard-scoped span; `(shard+1) << 16 | (replica+1)` is one scatter
/// leg. Both halves are offset by one so the zero span stays reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ctx {
    /// Trace id, or [`UNTRACED`].
    pub trace: u64,
    /// Active span.
    pub span: u32,
}

impl Ctx {
    /// The context of an untraced request: every emit against it is a
    /// no-op.
    #[must_use]
    pub fn none() -> Ctx {
        Ctx { trace: UNTRACED, span: 0 }
    }

    /// A query-level context for `trace`.
    #[must_use]
    pub fn query(trace: u64) -> Ctx {
        Ctx { trace, span: 0 }
    }

    /// The shard-scoped span for `shard` within the same trace.
    #[must_use]
    pub fn shard(&self, shard: usize) -> Ctx {
        Ctx { trace: self.trace, span: (shard as u32 + 1) << 16 }
    }

    /// The scatter-leg span for (`shard`, `replica`) within the same
    /// trace.
    #[must_use]
    pub fn leg(&self, shard: usize, replica: usize) -> Ctx {
        Ctx { trace: self.trace, span: (shard as u32 + 1) << 16 | (replica as u32 + 1) }
    }

    /// Narrows a shard-scoped span to the scatter leg for `replica`,
    /// keeping the shard half of the span intact.
    #[must_use]
    pub fn replica(&self, replica: usize) -> Ctx {
        Ctx { trace: self.trace, span: self.span & 0xffff_0000 | (replica as u32 + 1) }
    }
}

/// One ring slot: stamp plus payload words. `meta` packs
/// `span << 8 | phase`.
struct Slot {
    stamp: AtomicU64,
    trace: AtomicU64,
    meta: AtomicU64,
    t_ns: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One thread's ring. Written by its owning thread, drained by anyone.
struct Ring {
    slots: Box<[Slot]>,
    /// Monotone write cursor; slot index is `head % capacity`.
    head: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(16);
        Ring { slots: (0..cap).map(|_| Slot::empty()).collect(), head: AtomicUsize::new(0) }
    }

    fn write(&self, rec: &Record) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) & (self.slots.len() - 1);
        let slot = &self.slots[i];
        slot.stamp.store(0, Ordering::Release);
        slot.trace.store(rec.trace, Ordering::Relaxed);
        slot.meta.store(u64::from(rec.span) << 8 | rec.phase as u64, Ordering::Relaxed);
        slot.t_ns.store(rec.t_ns, Ordering::Relaxed);
        slot.a.store(rec.a, Ordering::Relaxed);
        slot.b.store(rec.b, Ordering::Relaxed);
        slot.stamp.store(rec.seq, Ordering::Release);
    }

    /// Reads and consumes every consistent record in the ring.
    fn consume_into(&self, out: &mut Vec<Record>) {
        for slot in self.slots.iter() {
            let seq = slot.stamp.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            // Keep the record only if no writer touched the slot while
            // we were reading it (stamps are unique, so equality means
            // quiescence), then consume it so the next drain starts
            // fresh. A failed consume means a racing overwrite; the
            // newer record will be picked up by a later drain.
            if slot.stamp.compare_exchange(seq, 0, Ordering::AcqRel, Ordering::Relaxed).is_err() {
                continue;
            }
            let Some(phase) = Phase::from_u8((meta & 0xff) as u8) else { continue };
            out.push(Record { seq, trace, span: (meta >> 8) as u32, phase, t_ns, a, b });
        }
    }
}

/// Subscriber state shared by all recording threads.
struct Subscriber {
    epoch: u64,
    clock: ClockHandle,
    base: Instant,
    capacity: usize,
    rings: Vec<Arc<Ring>>,
}

/// `0` = disabled. Any other value names the active subscriber epoch;
/// threads re-register their local ring when the epoch moves.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Source of unique non-zero epochs.
static EPOCH_SOURCE: AtomicU64 = AtomicU64::new(1);
/// Global record sequence; reset to 1 by [`install`].
static SEQ: AtomicU64 = AtomicU64::new(1);
/// Trace-id source; reset to 1 by [`install`].
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
/// The installed subscriber, if any. Locked on install/disable/drain
/// and on each thread's first emit per epoch — never on the emit fast
/// path.
static SUBSCRIBER: Mutex<Option<Subscriber>> = Mutex::new(None);

struct Local {
    epoch: u64,
    ring: Arc<Ring>,
    clock: ClockHandle,
    base: Instant,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Installs (or replaces) the global subscriber: records will be
/// accepted into per-thread rings of `capacity_per_thread` slots
/// (rounded up to a power of two, minimum 16), timestamped against
/// `clock` relative to its instant at install time.
///
/// Resets the global sequence and trace-id counters, so two identically
/// seeded virtual-clock runs in one process emit identical streams.
pub fn install(clock: &ClockHandle, capacity_per_thread: usize) {
    let mut guard = SUBSCRIBER.lock().expect("obs subscriber poisoned");
    let epoch = EPOCH_SOURCE.fetch_add(1, Ordering::Relaxed);
    *guard = Some(Subscriber {
        epoch,
        clock: clock.clone(),
        base: clock.now(),
        capacity: capacity_per_thread,
        rings: Vec::new(),
    });
    SEQ.store(1, Ordering::Relaxed);
    NEXT_TRACE.store(1, Ordering::Relaxed);
    EPOCH.store(epoch, Ordering::Release);
}

/// Disables recording. Already-buffered records remain drainable;
/// subsequent emits are single-load no-ops.
pub fn disable() {
    EPOCH.store(0, Ordering::Release);
}

/// Whether a subscriber is currently accepting records.
#[must_use]
pub fn enabled() -> bool {
    EPOCH.load(Ordering::Relaxed) != 0
}

/// Allocates a fresh trace id, or returns [`UNTRACED`] when recording
/// is disabled — callers thread the result through their request
/// unconditionally and tracing stays free end to end.
#[must_use]
pub fn next_trace_id() -> u64 {
    if !enabled() {
        return UNTRACED;
    }
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// Records one event on `ctx`'s trace and span. A no-op (one relaxed
/// load) when recording is disabled or `ctx` is untraced.
#[inline]
pub fn emit(ctx: Ctx, phase: Phase, a: u64, b: u64) {
    let epoch = EPOCH.load(Ordering::Relaxed);
    if epoch == 0 || ctx.trace == UNTRACED {
        return;
    }
    emit_slow(epoch, ctx, phase, a, b);
}

/// The traced path: resolve the thread-local ring (registering against
/// the current epoch if needed) and write one slot.
fn emit_slow(epoch: u64, ctx: Ctx, phase: Phase, a: u64, b: u64) {
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        let stale = match local.as_ref() {
            Some(l) => l.epoch != epoch,
            None => true,
        };
        if stale {
            let mut guard = SUBSCRIBER.lock().expect("obs subscriber poisoned");
            let Some(sub) = guard.as_mut() else { return };
            if sub.epoch != epoch {
                return; // subscriber replaced between load and lock
            }
            let ring = Arc::new(Ring::new(sub.capacity));
            // Registration is append-only; `install` starts a fresh
            // ring list, so stale epochs cannot leak rings in.
            sub.rings.push(Arc::clone(&ring));
            *local = Some(Local { epoch, ring, clock: sub.clock.clone(), base: sub.base });
        }
        let l = local.as_ref().expect("registered above");
        let t_ns = l.clock.now().saturating_duration_since(l.base).as_nanos() as u64;
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        l.ring.write(&Record { seq, trace: ctx.trace, span: ctx.span, phase, t_ns, a, b });
    });
}

/// Drains every thread's ring: consumes all buffered records and
/// returns them sorted by global sequence number. Records being written
/// concurrently may be skipped (see the module docs); drain a quiescent
/// system for exact results.
#[must_use]
pub fn drain() -> Vec<Record> {
    let rings: Vec<Arc<Ring>> = {
        let guard = SUBSCRIBER.lock().expect("obs subscriber poisoned");
        match guard.as_ref() {
            Some(sub) => sub.rings.iter().map(Arc::clone).collect(),
            None => Vec::new(),
        }
    };
    let mut out = Vec::new();
    for ring in rings {
        ring.consume_into(&mut out);
    }
    out.sort_unstable_by_key(|r| r.seq);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqs_testkit::VirtualClock;
    use std::time::Duration;

    // The recorder is process-global; serialize tests touching it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _g = locked();
        disable();
        assert!(!enabled());
        assert_eq!(next_trace_id(), UNTRACED);
        emit(Ctx::query(77), Phase::QueryDone, 1, 0);
        // Nothing to assert on rings directly: emits must simply not
        // panic and must not register a subscriber.
        assert!(!enabled());
    }

    #[test]
    fn records_round_trip_with_timestamps_and_order() {
        let _g = locked();
        let vc = VirtualClock::new();
        install(&vc.handle(), 64);
        let t = next_trace_id();
        let ctx = Ctx::query(t);
        emit(ctx, Phase::RouterPlan, 2, 0);
        vc.advance(Duration::from_micros(5));
        emit(ctx.leg(2, 0), Phase::LegDone, 9, 0);
        emit(Ctx::none(), Phase::LegDone, 1, 1); // untraced: dropped

        let records: Vec<Record> = drain().into_iter().filter(|r| r.trace == t).collect();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].phase, Phase::RouterPlan);
        assert_eq!(records[0].span, 0);
        assert_eq!(records[0].a, 2);
        assert_eq!(records[1].phase, Phase::LegDone);
        assert_eq!(records[1].shard(), Some(2));
        assert_eq!(records[1].replica(), Some(0));
        assert_eq!(records[1].t_ns - records[0].t_ns, 5_000);
        assert!(records[0].seq < records[1].seq);
        // Consumed: a second drain sees none of them.
        assert!(drain().iter().all(|r| r.trace != t));
        disable();
    }

    #[test]
    fn install_resets_counters_for_deterministic_replay() {
        let _g = locked();
        let vc = VirtualClock::new();
        install(&vc.handle(), 64);
        let a = next_trace_id();
        install(&vc.handle(), 64);
        let b = next_trace_id();
        assert_eq!(a, b, "trace ids must restart at install");
        emit(Ctx::query(b), Phase::QueryDone, 0, 0);
        let records = drain();
        assert_eq!(records.last().map(|r| r.seq), Some(1), "seq must restart at install");
        disable();
    }

    #[test]
    fn ring_overwrite_keeps_newest_records() {
        let _g = locked();
        let vc = VirtualClock::new();
        install(&vc.handle(), 16);
        let t = next_trace_id();
        for i in 0..40u64 {
            emit(Ctx::query(t), Phase::WorkDone, i, 1);
        }
        let records: Vec<Record> = drain().into_iter().filter(|r| r.trace == t).collect();
        assert_eq!(records.len(), 16);
        let firsts: Vec<u64> = records.iter().map(|r| r.a).collect();
        assert_eq!(firsts, (24..40).collect::<Vec<u64>>());
        disable();
    }

    #[test]
    fn cross_thread_records_merge_in_sequence_order() {
        let _g = locked();
        let vc = VirtualClock::new();
        install(&vc.handle(), 256);
        let t = next_trace_id();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..50u64 {
                        emit(Ctx::query(t), Phase::WorkDone, worker * 1000 + i, 0);
                    }
                });
            }
        });
        let records: Vec<Record> = drain().into_iter().filter(|r| r.trace == t).collect();
        assert_eq!(records.len(), 200);
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        // Per-thread order is preserved within the global order.
        for worker in 0..4u64 {
            let mine: Vec<u64> =
                records.iter().filter(|r| r.a / 1000 == worker).map(|r| r.a % 1000).collect();
            assert_eq!(mine, (0..50).collect::<Vec<u64>>());
        }
        disable();
    }

    /// The inverse of [`pack_cost`] and [`pack_io`]: four 16-bit
    /// fields, low to high.
    fn unpack(b: u64) -> (u64, u64, u64, u64) {
        (b & 0xffff, b >> 16 & 0xffff, b >> 32 & 0xffff, b >> 48)
    }

    #[test]
    fn span_and_cost_encodings_round_trip() {
        let ctx = Ctx::query(9);
        assert_eq!(span_shard(ctx.span), None);
        assert_eq!(span_shard(ctx.shard(3).span), Some(3));
        assert_eq!(span_replica(ctx.shard(3).span), None);
        assert_eq!(span_shard(ctx.leg(3, 1).span), Some(3));
        assert_eq!(span_replica(ctx.leg(3, 1).span), Some(1));
        assert_eq!(ctx.shard(3).replica(1), ctx.leg(3, 1));
        assert_eq!(unpack(pack_cost(3, 7, 11, 13)), (3, 7, 11, 13));
        assert_eq!(unpack(pack_cost(1 << 40, 0, 0, 2)), (0xffff, 0, 0, 2));
        assert_eq!(unpack(pack_io(5, 2, 400, 9)), (5, 2, 400, 9));
        assert_eq!(unpack(pack_io(0, 1 << 33, 0, 0)), (0, 0xffff, 0, 0));
    }

    /// Every code 1..=17 decodes to the phase it encodes and carries a
    /// name of its own; retired codes decode as `None`, never as another
    /// phase, so a record from an older build is skipped, not misread.
    #[test]
    fn retired_phase_codes_decode_as_none() {
        let mut names = std::collections::BTreeSet::new();
        for v in 1..=17u8 {
            let phase = Phase::from_u8(v).expect("surviving code");
            assert_eq!(phase as u8, v);
            assert!(names.insert(phase.name()), "{} named twice", phase.name());
        }
        for retired in [0, 18, 19, 20, 21, u8::MAX] {
            assert_eq!(Phase::from_u8(retired), None, "code {retired}");
        }
    }
}
