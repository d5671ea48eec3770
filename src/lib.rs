//! Facade crate re-exporting the full IQS workspace API.
//!
//! See [`iqs_core`] for the paper's headline structures, [`iqs_serve`]
//! for the concurrent sampling query service layered on top of them,
//! [`iqs_shard`] for the sharded/replicated tier over many such
//! services, and the substrate crates ([`iqs_alias`], [`iqs_tree`],
//! [`iqs_spatial`], [`iqs_sketch`], [`iqs_em`], [`iqs_stats`]) for the
//! building blocks. [`iqs_testkit`] is the correctness-tooling layer
//! (virtual clock, statistical gates, fault plans, replay oracles) the
//! tier test suites are built on, and [`iqs_obs`] is the observability
//! layer (flight recorder, trace reconstruction, cost profiling,
//! exporters) threaded through the serve and shard tiers — and the home
//! of the metrics vocabulary they all share: the log₂ latency histogram,
//! its bucket shape, and the `counter_set!` descriptor tables from which
//! every layer's counters, snapshots and expositions are generated.
//! [`iqs_net`]
//! extends the shard tier across process boundaries: a length-prefixed
//! wire format, TCP and deterministic in-memory transports, a
//! TTL-leased replica registry, and remote replica links the router
//! treats identically to in-process ones. [`iqs_tier`] is the tiered
//! hot/cold storage backend: indexes bigger than RAM served from the
//! Section-8 external-memory structure behind a bounded block cache,
//! with obs-driven promotion into the in-memory Theorem-3 structure.

pub use iqs_alias as alias;
pub use iqs_core as core;
pub use iqs_em as em;
pub use iqs_net as net;
pub use iqs_obs as obs;
pub use iqs_serve as serve;
pub use iqs_shard as shard;
pub use iqs_sketch as sketch;
pub use iqs_spatial as spatial;
pub use iqs_stats as stats;
pub use iqs_testkit as testkit;
pub use iqs_tier as tier;
pub use iqs_tree as tree;
