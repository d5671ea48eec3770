//! `iqs-shard`: a sharded, replicated sampling tier over the `iqs-serve`
//! single-node service, with **exact** two-level draws.
//!
//! The key space is range-partitioned into contiguous shards, each
//! served by R independent replicas of the single-node sampling service.
//! A with-replacement query is answered in two levels, following the
//! sample-splitting scheme of Tao (PODS 2022) §4.1: a top-level alias
//! draw over per-shard range weights splits the `s` requested draws
//! multinomially, and each shard answers its share from its own slice.
//! The composition is distributionally identical to one big single-node
//! sampler — `router.rs` opens with the full argument — and
//! the test suite checks it both by exact replay, live queries
//! ([`ClusterClient::sample_wr`]) against a reference that reads only
//! the cluster's seed, and by chi-square at the same threshold the
//! single-node samplers use.
//!
//! On top of the exact draw path the tier adds the operational machinery
//! a real deployment needs: per-replica failover with circuit-breaker
//! health tracking ([`HealthPolicy`]), injectable faults for testing it
//! ([`FaultyLink`], a [`ReplicaLink`] decorator), honest partial results
//! ([`Sampled::degraded`] / [`Sampled::missing`]) when a whole shard is
//! unreachable, and online shard split/merge that republishes the
//! topology atomically so rebalancing never fails a read.
//!
//! ```
//! use iqs_shard::{ShardConfig, ShardedService};
//!
//! // 100 elements, key = id, weight ∝ 1 + id mod 5.
//! let elements: Vec<(u64, f64, f64)> =
//!     (0..100).map(|i| (i, i as f64, 1.0 + (i % 5) as f64)).collect();
//! let cluster = ShardedService::new(elements, ShardConfig::default())?;
//! let mut client = cluster.client();
//!
//! // 64 exact weighted draws from keys [20, 60].
//! let drawn = client.sample_wr(Some((20.0, 60.0)), 64)?;
//! assert_eq!(drawn.ids.len(), 64);
//! assert!(!drawn.degraded);
//! assert!(drawn.ids.iter().all(|&id| (20..=60).contains(&id)));
//! # Ok::<(), iqs_shard::ShardError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod fault;
mod health;
mod link;
mod merge;
mod metrics;
mod placement;
mod router;

pub use error::ShardError;
pub use fault::{FaultMode, FaultyLink};
pub use health::HealthPolicy;
pub use link::{PendingLeg, ReplicaLink, ShardSpec};
pub use merge::{Counted, Sampled};
pub use metrics::{ClusterMetrics, ReplicaMetrics, RouterMetrics};
pub use placement::SHARD_INDEX;
pub use router::{ClusterClient, ShardConfig, ShardSlice, ShardedService};
