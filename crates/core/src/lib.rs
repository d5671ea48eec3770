//! Independent query sampling (IQS) structures — the primary contribution
//! of Tao, *Algorithmic Techniques for Independent Query Sampling*
//! (PODS 2022).
//!
//! An IQS query returns `s` random samples of a query result `S_q`, with
//! the guarantee that the outputs of *all* queries — even repetitions of
//! the same query — are mutually independent (equation (1) of the paper).
//! Every sampler in this crate draws through a caller-supplied RNG and
//! never memoizes randomness across queries, so independence holds by
//! construction; the statistical test-suite (`iqs-stats`, `tests/`)
//! verifies it empirically. What a caller may keep across queries is a
//! [`QueryPlan`]: a query's deterministic `O(log n)` set-up, reused when
//! the same range is asked again of the same structure — and, beside
//! it, the [`Tiles`] its draws run in, which hold nothing between
//! queries.
//!
//! Contents, by paper section:
//!
//! * [`range1d`] — weighted range sampling on the line, with three
//!   interchangeable structures: tree sampling (§3.2, `O(n)` space /
//!   `O(s log n)` query), alias augmentation (Lemma 2, `O(n log n)` space /
//!   `O(log n + s)` query), and the chunked structure (Theorem 3, `O(n)`
//!   space / `O(log n + s)` query);
//! * [`coverage`] — Theorem 5: a generic adapter that converts any
//!   tree-based reporting index exposing disjoint covers into an IQS
//!   structure answering in `O(|C_q| + s)`; instantiated for kd-trees,
//!   quadtrees and range trees;
//! * [`approx`] — Theorem 6 / Corollary 7: approximate covers plus
//!   rejection; instantiated for circular ranges (quadtree) and
//!   complement ranges ([`complement`], the `≤ 2`-element covers of
//!   \[18\]);
//! * [`setunion`] — Theorem 8: random-permutation set-union sampling with
//!   mergeable distinct-count sketches;
//! * [`fairnn`] — fair near-neighbor search (§2 Benefit 2) built on
//!   shifted-grid bucketing and set-union sampling;
//! * [`dynamic_range`] — Direction 1 (§9): the headline problem
//!   dynamized with the logarithmic method — `O(log² n)` amortized
//!   updates over Theorem-3 levels, tombstoned deletions, rejection-safe
//!   queries. A paper reproduction for the harness arms, not what the
//!   service publishes: `iqs-serve` patches one static [`ChunkedRange`]
//!   per update ([`ChunkedRange::reweighted`]), whose result is
//!   bit-identical to a fresh build;
//! * [`wor_exact`] — exact weighted without-replacement sampling via
//!   exponential jumps (A-ExpJ over cumulative weights), robust for
//!   sample sizes approaching `|S_q|`;
//! * [`baseline`] — the dependent fixed-permutation sampler of §2 and the
//!   report-then-sample strawman of §1, kept as experimental controls;
//! * [`estimator`] — Benefit 1: (ε, δ) selectivity estimation driven by
//!   any range sampler.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod approx;
pub mod baseline;
pub mod complement;
pub mod coverage;
pub mod dynamic_range;
mod error;
pub mod estimator;
pub mod fairnn;
mod plan;
pub mod range1d;
pub mod rank_alias;
pub mod setunion;
pub mod wor_exact;

pub use dynamic_range::DynamicRange;
pub use error::QueryError;
pub use plan::{QueryPlan, Tiles};
pub use range1d::{AliasAugmentedRange, ChunkedRange, RangeSampler, TreeSamplingRange};
pub use wor_exact::ExpJumpWor;
