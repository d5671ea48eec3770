//! `iqs-tier` — a tiered hot/cold index backend that serves indexes
//! bigger than RAM.
//!
//! The paper's structures assume the whole index fits in memory; §8
//! shows the external-memory variant when it does not. This crate
//! combines the two behind one serving surface:
//!
//! * **Hot shards** live in RAM as Theorem-3 structures
//!   ([`iqs_core::ChunkedRange`]) — `O(log n + s)` per query, no I/O.
//! * **Cold shards** live on the simulated disk as Section-8 structures
//!   ([`iqs_em::EmWeightedRangeSampler`]) and are served through one
//!   shared bounded block cache (an LRU [`iqs_em::EmMachine`]), so the
//!   cold tier's RAM footprint is the configured block budget
//!   regardless of data size.
//!
//! A [`TieredIndex`] partitions the key line into disjoint shard spans,
//! routes each query range to the shards it touches, and splits the
//! sample count by an exact multinomial on per-shard range weights —
//! the draw distribution matches a single flat structure. It implements
//! `iqs-serve`'s `ExternalIndex`, so a serve node registers it with
//! `IndexRegistry::register_external` and answers `SampleWr` /
//! `RangeCount` from whichever tier each shard currently occupies,
//! reporting per-request block I/O into the service metrics.
//!
//! Placement is **obs-driven**: per-shard access counters accumulate on
//! the request path and [`TieredIndex::maintain`] rebalances off-path —
//! busy cold shards are rebuilt in RAM and published with one atomic
//! snapshot swap; idle hot shards are demoted until the hot tier fits
//! its element budget. Readers pin a snapshot per request, so reads
//! never fail across a transition.
//!
//! # Example
//! ```
//! use iqs_tier::{ShardTier, TierConfig, TieredIndex};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let idx = TieredIndex::builder(TierConfig::default())
//!     .add_shard("recent", (0..500).map(|i| (i, i as f64, 1.0)).collect(), ShardTier::Hot)
//!     .add_shard("archive", (1000..9000).map(|i| (i, i as f64, 1.0)).collect(), ShardTier::Cold)
//!     .build()?;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let (ids, io) = idx.sample_wr(Some((2000.0, 8000.0)), 16, &mut rng, iqs_obs::Ctx::none())?;
//! assert_eq!(ids.len(), 16);
//! assert!(io.block_reads > 0); // served from the cold tier
//! # Ok::<(), iqs_tier::TierError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod error;
mod shard;
mod tiered;

pub use config::{ShardTier, TierConfig};
pub use error::TierError;
pub use tiered::{MaintenanceReport, TierCounters, TieredIndex, TieredIndexBuilder};
