//! `iqs-testkit`: deterministic simulation and statistical conformance
//! tooling shared by every tier of the IQS workspace.
//!
//! The paper (Tao, PODS 2022) makes *distributional* claims, so the
//! repo's correctness story is its test suite — and a test suite built
//! on wall-clock sleeps and ad-hoc chi-square thresholds erodes in two
//! ways: concurrency tests go flaky on slow CI boxes, and the suite-wide
//! false-alarm probability grows with every new goodness-of-fit assert.
//! This crate fixes both structurally:
//!
//! * [`clock`] — a [`ClockHandle`] threaded through the serve and shard
//!   tiers (queue deadline waits, worker pickup checks, circuit-breaker
//!   cooldowns, per-attempt scatter deadlines). Production uses the real
//!   clock; tests install a [`VirtualClock`] and advance time
//!   explicitly, so "wait out the probe cooldown" is one deterministic
//!   `advance()` instead of a `thread::sleep` race.
//! * [`gate`] — a registry of every distributional check in the suite.
//!   Each gate draws its seed from the suite seed (`IQS_TEST_SEED`),
//!   spends a [Holm–Bonferroni][gate::holm_rejects] slice of the
//!   family-wise `1e-6` budget, escalates suspicious results with 10×
//!   samples before failing, and on failure prints the seed, the
//!   statistic, and the exact replay command.
//! * [`faultsim`] — a seeded [`FaultPlan`] generator with shrinking:
//!   given an invariant violated under a random fault schedule, the
//!   shrinker binary-searches down to a minimal plan (fewest events,
//!   shortest windows and delays) that still violates it.
//! * [`oracle`] — exact-replay reference implementations (the two-level
//!   sharded draw, batch-vs-sequential equality) factored out of the
//!   tier test suites into reusable combinators.
//! * [`hist`] — the histogram bookkeeping (dense tallies, sparse-map
//!   projection onto a fixed support) every distributional suite was
//!   hand-rolling.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod faultsim;
pub mod gate;
pub mod hist;
pub mod oracle;
pub mod seed;

pub use clock::{ClockHandle, VirtualClock};
pub use faultsim::{FaultEvent, FaultKind, FaultPlan, PlanShape};
pub use gate::{GateReport, Trial};
