//! `iqs-serve` — a concurrent sampling query service over the IQS index
//! structures.
//!
//! The paper's structures (Tao, *Algorithmic Techniques for Independent
//! Query Sampling*, PODS 2022) are immutable after construction, so one
//! index can serve arbitrarily many concurrent clients while preserving
//! per-query independence — §2's benefits hold *across* clients. This
//! crate supplies the serving layer those structures are usually
//! benchmarked without:
//!
//! * [`IndexRegistry`] — named indexes behind epoch-published
//!   [`Snapshot`]s. Writers rebuild dynamic structures off-thread and
//!   publish atomically; readers pin a snapshot per request and never
//!   block on a rebuild.
//! * [`Server`] / [`Client`] — a worker pool over a bounded MPMC queue
//!   with per-request deadlines, admission control (prompt
//!   [`ServeError::Overloaded`] instead of unbounded queueing), and
//!   graceful shutdown that drains in-flight work. At most `workers`
//!   requests run at once, each on one of `workers` *seats*; an idle
//!   service lets a blocking caller take a seat and answer on its own
//!   thread instead of paying a hand-off.
//! * [`Request`] / [`Response`] — a typed API (`SampleWr`, `SampleWor`,
//!   `RangeCount`, `TotalWeight`, `RangeWeight`, `Update`) dispatching to
//!   a range index's batch entry points, with per-seat reusable buffers
//!   and RNGs, or to an [`ExternalIndex`].
//! * [`MetricsSnapshot`] — built-in metrics: atomic counters plus
//!   log₂-bucket latency histograms with p50/p99/p999, queue depth,
//!   rejection/deadline-miss counts, and snapshot-swap counts — one
//!   `iqs_obs::counter_set!` table over `iqs-obs`'s histogram.
//!
//! # Example
//! ```
//! use iqs_serve::{IndexRegistry, Request, Response, Server, ServerConfig};
//!
//! let mut registry = IndexRegistry::new();
//! registry.register_range_static("keys", (0..1000).map(|i| (i as f64, 1.0)).collect())?;
//! let server = Server::start(registry, ServerConfig::default());
//!
//! let client = server.client();
//! let resp = client.call(Request::SampleWr {
//!     index: "keys".into(),
//!     range: Some((100.0, 900.0)),
//!     s: 8,
//! })?;
//! let Response::Samples(ids) = resp else { panic!() };
//! assert_eq!(ids.len(), 8);
//! assert!(ids.iter().all(|&id| (100..=900).contains(&id)));
//!
//! println!("{}", server.shutdown()); // final metrics
//! # Ok::<(), iqs_serve::ServeError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod api;
mod error;
mod metrics;
mod queue;
mod registry;
mod server;
mod snapshot;

pub use api::{Request, Response, UpdateOp};
pub use error::ServeError;
/// What [`MetricsSnapshot`] is made of and what its diff raises.
pub use iqs_obs::{HistogramSnapshot, SnapshotDiffError};
pub use metrics::MetricsSnapshot;
pub use registry::{ExternalIndex, IndexRegistry, IndexView, IoReport, RangeView};
pub use server::{Begun, Client, PendingReply, Server, ServerConfig};
pub use snapshot::Snapshot;
