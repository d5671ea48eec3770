//! Cluster-wide telemetry plane for the IQS serving tiers.
//!
//! The sharded router ([`iqs-shard`]) and wire layer ([`iqs-net`]) let
//! a cluster serve independent range-sampling queries across remote
//! replicas, but until now only the local process could see its own
//! metrics and traces. This crate closes that gap with three pieces:
//!
//! - [`telemetry`] — bounded diff shipping of [`MetricsSnapshot`]s and
//!   compact trace-leg summaries from replica servers back to the
//!   router, with explicit drop counters and at-most-once ingestion
//!   ([`TelemetryShipper`] / [`ClusterTelemetry`]).
//! - [`engine`] — per-shard sliding-window service-level
//!   objectives evaluated from the serving tier's log₂ latency
//!   histograms: multi-window burn rates on the virtual clock, typed
//!   [`HealthReport`]s for the controller ([`SloEngine`]).
//! - [`attribution`] — tail-latency attribution joining assembled
//!   traces with the recorder's packed cost counters to bucket slow
//!   queries by structural cause ([`AttributionTable`]).
//!
//! Everything is deterministic under a virtual clock: same seed, same
//! burn rates, same alerts, byte-identical exports.
//!
//! [`iqs-shard`]: ../iqs_shard/index.html
//! [`iqs-net`]: ../iqs_net/index.html
//! [`MetricsSnapshot`]: iqs_serve::MetricsSnapshot

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod engine;
pub mod error;
pub mod telemetry;

pub use attribution::{attribute, AttributionTable, Cause, DESCENT_THRESHOLD};
pub use engine::{HealthReport, Objective, SloEngine, SloKey, SloStatus};
pub use error::SloError;
pub use telemetry::{ClusterTelemetry, TelemetryBatch, TelemetryShipper, TelemetryStats};
