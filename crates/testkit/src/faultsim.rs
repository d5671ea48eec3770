//! Seeded fault schedules with shrinking.
//!
//! Chaos tests against the shard tier used to be hand-written scripts:
//! kill this replica here, delay that one there. A [`FaultPlan`]
//! replaces them with a seeded random schedule over a step grid —
//! reproducible from `(seed, shape)` alone — and, when a random plan
//! violates an invariant, [`FaultPlan::shrink`] reduces it to a minimal
//! counterexample: first a delta-debugging pass drops whole events,
//! then per-event binary searches shorten windows and delays as far as
//! the violation allows. The shrunk plan is what goes in the bug
//! report, not the thousand-event original.

use std::cmp::Reverse;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an injected fault does to a replica while active. Ordered by
/// precedence: where faults overlap on a replica, the smallest wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Replica refuses all requests (process down).
    Down,
    /// Replica accepts and then fails requests (application error).
    Error,
    /// Replica answers after an added delay of `delay_ms`.
    Delay,
}

/// One fault: a kind applied to `(shard, replica)` for a window of
/// steps on the driving test's step grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Target shard index.
    pub shard: usize,
    /// Target replica index within the shard.
    pub replica: usize,
    /// What the fault does while active.
    pub kind: FaultKind,
    /// First step (inclusive) at which the fault is active.
    pub at_step: usize,
    /// Number of consecutive active steps (≥ 1).
    pub for_steps: usize,
    /// Added latency in milliseconds; meaningful only for
    /// [`FaultKind::Delay`].
    pub delay_ms: u64,
}

impl FaultEvent {
    /// Whether this fault is active at `step`.
    #[must_use]
    pub fn active_at(&self, step: usize) -> bool {
        step >= self.at_step && step < self.at_step + self.for_steps
    }
}

/// The sampling space a random plan is drawn from.
#[derive(Clone, Copy, Debug)]
pub struct PlanShape {
    /// Steps on the driving test's grid; events start in `[0, steps)`.
    pub steps: usize,
    /// Shards in the cluster under test.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Number of fault events to draw.
    pub events: usize,
    /// Upper bound (inclusive) on drawn `delay_ms` values.
    pub max_delay_ms: u64,
}

/// A schedule of fault events, reproducible from its generating seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The events in the schedule, in generation order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Draws a random plan from `shape` using only `seed` — the same
    /// `(seed, shape)` always yields the same plan.
    #[must_use]
    pub fn generate(seed: u64, shape: &PlanShape) -> FaultPlan {
        assert!(shape.steps > 0 && shape.shards > 0 && shape.replicas > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let events = (0..shape.events)
            .map(|_| {
                let kind = match rng.random_range(0..3u32) {
                    0 => FaultKind::Down,
                    1 => FaultKind::Error,
                    _ => FaultKind::Delay,
                };
                let at_step = rng.random_range(0..shape.steps);
                FaultEvent {
                    shard: rng.random_range(0..shape.shards),
                    replica: rng.random_range(0..shape.replicas),
                    kind,
                    at_step,
                    for_steps: rng.random_range(1..=shape.steps - at_step),
                    delay_ms: if kind == FaultKind::Delay {
                        rng.random_range(0..=shape.max_delay_ms)
                    } else {
                        0
                    },
                }
            })
            .collect();
        FaultPlan { events }
    }

    /// The fault `(shard, replica)` is under at `step` and its delay in
    /// ms (0 but for Delay). Where events overlap, Down beats Error,
    /// Error beats Delay, and the largest Delay `delay_ms` wins.
    #[must_use]
    pub fn kind_at(&self, step: usize, shard: usize, replica: usize) -> Option<(FaultKind, u64)> {
        self.events
            .iter()
            .filter(|e| e.shard == shard && e.replica == replica && e.active_at(step))
            .map(|e| (e.kind, if e.kind == FaultKind::Delay { e.delay_ms } else { 0 }))
            .min_by_key(|&(kind, delay_ms)| (kind, Reverse(delay_ms)))
    }

    /// Shards whose every replica is under an active `Down` or `Error`
    /// fault at `step` — the shards a router cannot serve at all, i.e.
    /// where results must degrade honestly. Delay faults never darken a
    /// replica (the request still completes or fails over).
    #[must_use]
    pub fn dark_shards(&self, step: usize, replicas: usize) -> Vec<usize> {
        let shards = self.events.iter().map(|e| e.shard + 1).max().unwrap_or(0);
        let dead = |shard, r| {
            matches!(self.kind_at(step, shard, r), Some((FaultKind::Down | FaultKind::Error, _)))
        };
        (0..shards).filter(|&shard| replicas > 0 && (0..replicas).all(|r| dead(shard, r))).collect()
    }

    /// Ordering key for shrinking: `(event count, total window+delay
    /// mass)`. Lexicographically smaller plans are simpler.
    #[must_use]
    pub fn cost(&self) -> (usize, u64) {
        let mass = self.events.iter().map(|e| e.for_steps as u64 + e.delay_ms).sum();
        (self.events.len(), mass)
    }

    /// Shrinks a plan known to violate an invariant down to a minimal
    /// violating plan. `violates(plan)` must return `true` for the input
    /// plan (asserted) and for every intermediate plan the shrinker
    /// keeps. Two phases:
    ///
    /// 1. **ddmin over events** — try removing chunks of events at
    ///    doubling granularity until no single event can be dropped;
    /// 2. **scalar minimisation** — for each surviving event, binary
    ///    search `delay_ms` toward 0 and `for_steps` toward 1,
    ///    keeping each reduction only if the plan still violates.
    #[must_use]
    pub fn shrink<F>(mut self, mut violates: F) -> FaultPlan
    where
        F: FnMut(&FaultPlan) -> bool,
    {
        assert!(violates(&self), "shrink requires a violating starting plan");

        // Phase 1: delta-debugging removal of whole events.
        let mut chunk = self.events.len().div_ceil(2).max(1);
        while !self.events.is_empty() {
            let mut removed_any = false;
            let mut start = 0;
            while start < self.events.len() {
                let end = (start + chunk).min(self.events.len());
                let mut candidate = self.events.clone();
                candidate.drain(start..end);
                let candidate = FaultPlan { events: candidate };
                if violates(&candidate) {
                    self = candidate;
                    removed_any = true;
                    // Same `start` now addresses the next chunk.
                } else {
                    start = end;
                }
            }
            if chunk == 1 && !removed_any {
                break;
            }
            if !removed_any {
                chunk = (chunk / 2).max(1);
            }
        }

        // Phase 2: per-event scalar minimisation.
        for i in 0..self.events.len() {
            let delay = shrink_scalar(0, self.events[i].delay_ms, |v| {
                let mut candidate = self.clone();
                candidate.events[i].delay_ms = v;
                violates(&candidate)
            });
            self.events[i].delay_ms = delay;
            let steps = shrink_scalar(1, self.events[i].for_steps as u64, |v| {
                let mut candidate = self.clone();
                candidate.events[i].for_steps = v as usize;
                violates(&candidate)
            });
            self.events[i].for_steps = steps as usize;
        }
        self
    }
}

/// Binary search for the smallest `v` in `[lo, hi]` with `ok(v)` true,
/// assuming `ok(hi)` holds and `ok` is monotone in `v`.
fn shrink_scalar<F>(lo: u64, hi: u64, mut ok: F) -> u64
where
    F: FnMut(u64) -> bool,
{
    if hi <= lo {
        return hi;
    }
    let (mut lo, mut hi) = (lo, hi);
    // Invariant: ok(hi) is true; lo may or may not be ok.
    if ok(lo) {
        return lo;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PlanShape {
        PlanShape { steps: 40, shards: 4, replicas: 2, events: 24, max_delay_ms: 30 }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = FaultPlan::generate(99, &shape());
        let b = FaultPlan::generate(99, &shape());
        let c = FaultPlan::generate(100, &shape());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.events.len(), 24);
        for e in &a.events {
            assert!(e.for_steps >= 1 && e.at_step + e.for_steps <= 40);
            assert!(e.shard < 4 && e.replica < 2);
            assert!(e.kind == FaultKind::Delay || e.delay_ms == 0);
        }
    }

    #[test]
    fn active_windows_are_half_open() {
        let e = FaultEvent {
            shard: 0,
            replica: 0,
            kind: FaultKind::Down,
            at_step: 3,
            for_steps: 2,
            delay_ms: 0,
        };
        assert!(!e.active_at(2));
        assert!(e.active_at(3));
        assert!(e.active_at(4));
        assert!(!e.active_at(5));
    }

    #[test]
    fn dark_shards_require_every_replica_dead_and_ignore_delays() {
        let down = |shard, replica, at_step| FaultEvent {
            shard,
            replica,
            kind: FaultKind::Down,
            at_step,
            for_steps: 5,
            delay_ms: 0,
        };
        let mut plan = FaultPlan { events: vec![down(1, 0, 0), down(1, 1, 2)] };
        assert!(plan.dark_shards(1, 2).is_empty(), "one live replica keeps the shard lit");
        assert_eq!(plan.dark_shards(3, 2), vec![1]);
        // Swapping one killer for a Delay fault un-darkens the shard.
        plan.events[1].kind = FaultKind::Delay;
        plan.events[1].delay_ms = 1000;
        assert!(plan.dark_shards(3, 2).is_empty());
    }

    #[test]
    fn kind_at_ranks_overlapping_faults() {
        let event = |(kind, at_step, delay_ms)| FaultEvent {
            shard: 2,
            replica: 1,
            kind,
            at_step,
            for_steps: 4,
            delay_ms,
        };
        let (delay, error, down) = (FaultKind::Delay, FaultKind::Error, FaultKind::Down);
        let events = [(delay, 0, 30), (delay, 1, 70), (error, 2, 0), (down, 3, 0)];
        let plan = FaultPlan { events: events.into_iter().map(event).collect() };
        assert_eq!(plan.kind_at(0, 2, 1), Some((FaultKind::Delay, 30)));
        assert_eq!(plan.kind_at(1, 2, 1), Some((FaultKind::Delay, 70)), "largest delay wins");
        assert_eq!(plan.kind_at(2, 2, 1), Some((FaultKind::Error, 0)), "Error beats Delay");
        assert_eq!(plan.kind_at(3, 2, 1), Some((FaultKind::Down, 0)), "Down beats Error");
        assert_eq!(plan.kind_at(7, 2, 1), None, "every window has closed");
        assert_eq!((plan.kind_at(3, 2, 0), plan.kind_at(3, 1, 1)), (None, None));
    }

    #[test]
    fn shrink_scalar_finds_the_boundary() {
        assert_eq!(shrink_scalar(0, 100, |v| v >= 37), 37);
        assert_eq!(shrink_scalar(1, 64, |v| v >= 1), 1);
        assert_eq!(shrink_scalar(0, 50, |v| v >= 50), 50);
    }

    /// The acceptance-criteria demo: a random plan that darkens a shard
    /// shrinks to the minimal two-event counterexample.
    #[test]
    fn a_random_dark_shard_violation_shrinks_to_two_minimal_events() {
        let shape = shape();
        // Invariant under test: "no shard ever goes completely dark".
        // A plan violates it if some step has a dark shard.
        let violates =
            |p: &FaultPlan| (0..shape.steps).any(|s| !p.dark_shards(s, shape.replicas).is_empty());
        // Deterministically find the first violating seed.
        let seed = (0u64..)
            .find(|&s| violates(&FaultPlan::generate(s, &shape)))
            .expect("some seed must darken a shard");
        let original = FaultPlan::generate(seed, &shape);
        let original_cost = original.cost();

        let minimal = original.shrink(violates);

        // Still violating, and strictly simpler than the original.
        assert!(violates(&minimal));
        assert!(minimal.cost() < original_cost);
        // Minimality: with 2 replicas, darkening a shard takes exactly
        // one non-Delay fault per replica of a single shard...
        assert_eq!(minimal.events.len(), 2);
        assert_eq!(minimal.events[0].shard, minimal.events[1].shard);
        assert_ne!(minimal.events[0].replica, minimal.events[1].replica);
        for e in &minimal.events {
            assert_ne!(e.kind, FaultKind::Delay);
            // ...with all scalars driven to their floors.
            assert_eq!(e.delay_ms, 0);
        }
        // Windows shrank to the smallest overlap the violation allows.
        let overlap_steps = (0..shape.steps)
            .filter(|&s| !minimal.dark_shards(s, shape.replicas).is_empty())
            .count();
        assert_eq!(overlap_steps, 1, "minimal windows overlap in exactly one step");
        // Dropping either event un-darkens the shard: no smaller plan works.
        for i in 0..2 {
            let mut fewer = minimal.clone();
            fewer.events.remove(i);
            assert!(!violates(&fewer));
        }
    }
}
