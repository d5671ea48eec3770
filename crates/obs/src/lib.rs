//! Observability for the IQS serving tiers.
//!
//! Serving independent samples is an exercise in tail control: a query's
//! latency is the maximum over its scatter legs, and a single slow or
//! dark replica shows up only as a fuzzy histogram bump unless the
//! system can explain *one specific query* end to end. This crate
//! provides that explanation machinery for `iqs-serve` and `iqs-shard`
//! without taxing the sampling hot paths:
//!
//! * [`recorder`] — a lock-free flight recorder: per-thread fixed-size
//!   ring buffers of compact binary [`Record`]s. Emitting a record is a
//!   handful of relaxed atomic stores and **zero allocation**; when no
//!   subscriber is installed (the default), every emit degenerates to a
//!   single relaxed load and an early return.
//! * [`trace`] — trace reconstruction: [`TraceView`] rebuilds one
//!   query's full two-level schedule (router plan, multinomial split,
//!   per-shard scatter legs, failovers, breaker trips,
//!   degraded legs with cause, per-leg RNG cost) from drained records.
//! * [`export`] — exporters: JSON-lines trace dumps, a
//!   Prometheus-style text [`PromWriter`] used by the tier crates'
//!   metric expositions, and a [`SlowLog`] keeping the top-k slowest
//!   trace ids per interval plus per-latency-bucket exemplars.
//! * [`metrics`] — the metrics vocabulary the layers share: the one
//!   definition of the log₂ bucket shape, the wait-free [`LogHistogram`]
//!   and its [`HistogramSnapshot`] (quantiles, interval diffs, merges).
//! * [`counter_set!`] — one descriptor table per counter set, from
//!   which the live atomic struct, its snapshot, `minus`, `merge`, the
//!   exposition and a law test are generated; `serve`, `shard`, `tier`
//!   and `net` declare their counters this way.
//!
//! Timestamps come from [`iqs_testkit::ClockHandle`], so a run on a
//! virtual clock under a fixed seed produces **byte-identical** trace
//! dumps — the CI determinism job diffs exactly that.
//!
//! # Example
//! ```
//! use iqs_obs::{recorder, Ctx, Phase};
//! use iqs_testkit::VirtualClock;
//!
//! let vc = VirtualClock::new();
//! recorder::install(&vc.handle(), 1024);
//! let trace = recorder::next_trace_id();
//! let ctx = Ctx::query(trace);
//! recorder::emit(ctx, Phase::RouterPlan, 0, 0);
//! recorder::emit(ctx.leg(0, 1), Phase::LegDone, 16, 0);
//! let records = recorder::drain();
//! assert_eq!(records.len(), 2);
//! recorder::disable();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod counter_set;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use export::{records_to_jsonl, PromWriter, SlowEntry, SlowLog};
pub use metrics::{
    bucket_upper_ns, fmt_dur, log2_bucket, prom_histogram, saturating_ns, HistogramSnapshot,
    LogHistogram, SnapshotDiffError, HIST_BUCKETS,
};
pub use recorder::{Ctx, Phase, Record, UNTRACED};
pub use trace::{LegView, TraceView};
