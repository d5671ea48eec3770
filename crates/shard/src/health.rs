//! Per-replica health tracking: a consecutive-failure circuit breaker
//! with probe-based recovery.
//!
//! The router prefers replicas whose breaker is closed. After
//! [`HealthPolicy::trip_threshold`] consecutive failures the breaker
//! *trips*: the replica drops to last-resort position in the candidate
//! order, so healthy replicas absorb the traffic and queries stop paying
//! a failed attempt on every read. Every
//! [`HealthPolicy::probe_cooldown`], one query is allowed through as a
//! *probe*; a success closes the breaker, a failure re-arms the
//! cooldown. Tripped replicas are demoted, never removed: if every
//! replica of a shard is tripped, the router still tries them all before
//! declaring the shard unavailable — availability is never sacrificed to
//! the breaker.
//!
//! Every leg asks its replica's breaker once before the attempt and
//! reports to it once after, so a closed breaker with a clean streak —
//! every replica of a healthy cluster — is answered by one atomic load
//! either way, and neither a lock nor a write touches the line that all
//! the replica's readers share. The streak and the open bit live in one
//! word; the probe instant, which only an open breaker needs, lives
//! behind a lock that only the breaker's transitions and an open
//! breaker's readers take, and the open bit changes only under it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Consecutive failures that trip the breaker. Default 3.
    pub trip_threshold: u32,
    /// Minimum time between recovery probes of a tripped replica.
    /// Default 50 ms.
    pub probe_cooldown: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy { trip_threshold: 3, probe_cooldown: Duration::from_millis(50) }
    }
}

/// How the breaker ranks a replica right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Availability {
    /// Breaker closed: first-class candidate.
    Ready,
    /// Breaker open but the cooldown elapsed: this query may probe it.
    Probe,
    /// Breaker open, cooldown pending: last-resort candidate only.
    Skip,
}

/// The open bit of [`Health::state`]; the bits below it count the
/// consecutive failures.
const TRIPPED: u64 = 1 << 63;

/// One replica's breaker state.
#[derive(Debug, Default)]
pub(crate) struct Health {
    /// [`TRIPPED`] while the breaker is open, plus the consecutive
    /// failures: 0 is a closed breaker with a clean streak. The bit is
    /// set and cleared only under `probe_at`'s lock. The word publishes
    /// nothing but itself — `probe_at` is read under its lock — so its
    /// orderings only keep a lock-free read from running behind a
    /// transition the same thread has seen.
    state: AtomicU64,
    /// While tripped: earliest instant the next probe may go out.
    probe_at: Mutex<Option<Instant>>,
}

impl Health {
    /// Classifies the replica for candidate ordering, as of `now` on
    /// the router's clock. When a tripped replica's cooldown has
    /// elapsed this *claims* the probe slot (re-arming the cooldown),
    /// so a thundering herd sends one probe per cooldown window, not
    /// one per query.
    pub(crate) fn availability(&self, policy: &HealthPolicy, now: Instant) -> Availability {
        if !self.is_tripped() {
            return Availability::Ready;
        }
        let mut probe_at = self.probe_at.lock().expect("breaker poisoned");
        if !self.is_tripped() {
            return Availability::Ready; // a success closed it meanwhile
        }
        match *probe_at {
            Some(at) if now < at => Availability::Skip,
            _ => {
                *probe_at = Some(now + policy.probe_cooldown);
                Availability::Probe
            }
        }
    }

    /// Records a successful read. Returns `true` when this success
    /// closed a tripped breaker (a recovery).
    pub(crate) fn on_success(&self) -> bool {
        if self.state.load(Ordering::Acquire) == 0 {
            return false;
        }
        if self.state.fetch_and(TRIPPED, Ordering::AcqRel) & TRIPPED == 0 {
            return false;
        }
        let mut probe_at = self.probe_at.lock().expect("breaker poisoned");
        *probe_at = None;
        self.state.fetch_and(!TRIPPED, Ordering::AcqRel) & TRIPPED != 0
    }

    /// Records a failed read observed at `now` on the router's clock.
    /// Returns `true` when this failure tripped the breaker (the trip
    /// event, counted once).
    pub(crate) fn on_failure(&self, policy: &HealthPolicy, now: Instant) -> bool {
        let streak = (self.state.fetch_add(1, Ordering::AcqRel) + 1) & !TRIPPED;
        let mut probe_at = self.probe_at.lock().expect("breaker poisoned");
        if self.is_tripped() {
            // Failed probe: push the next one a full cooldown out.
            *probe_at = Some(now + policy.probe_cooldown);
            return false;
        }
        if streak >= u64::from(policy.trip_threshold) {
            self.state.fetch_or(TRIPPED, Ordering::AcqRel);
            *probe_at = Some(now + policy.probe_cooldown);
            return true;
        }
        false
    }

    /// Whether the breaker is currently open.
    pub(crate) fn is_tripped(&self) -> bool {
        self.state.load(Ordering::Acquire) & TRIPPED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(ms: u64) -> HealthPolicy {
        HealthPolicy { trip_threshold: 3, probe_cooldown: Duration::from_millis(ms) }
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let h = Health::default();
        let p = policy(1000);
        let t0 = Instant::now();
        assert!(!h.on_failure(&p, t0));
        assert!(!h.on_failure(&p, t0));
        assert!(!h.on_success()); // success resets the streak
        assert!(!h.on_failure(&p, t0));
        assert!(!h.on_failure(&p, t0));
        assert!(h.on_failure(&p, t0)); // third consecutive: trips (once)
        assert!(h.is_tripped());
        assert!(!h.on_failure(&p, t0)); // further failures don't re-trip
    }

    #[test]
    fn probe_slot_is_claimed_once_per_cooldown() {
        // Time is an explicit parameter, so the cooldown window is
        // exercised with arithmetic instants — no sleeping.
        let h = Health::default();
        let p = policy(40);
        let t0 = Instant::now();
        for _ in 0..3 {
            h.on_failure(&p, t0);
        }
        // Cooldown pending: everyone skips, right up to the boundary.
        assert_eq!(h.availability(&p, t0), Availability::Skip);
        assert_eq!(h.availability(&p, t0 + Duration::from_millis(39)), Availability::Skip);
        // Cooldown elapsed: the first caller claims the probe, the next
        // skips again until a further cooldown passes.
        let t1 = t0 + Duration::from_millis(45);
        assert_eq!(h.availability(&p, t1), Availability::Probe);
        assert_eq!(h.availability(&p, t1), Availability::Skip);
        // A failed probe re-arms the cooldown from the failure instant.
        assert!(!h.on_failure(&p, t1));
        assert_eq!(h.availability(&p, t1 + Duration::from_millis(39)), Availability::Skip);
        assert_eq!(h.availability(&p, t1 + Duration::from_millis(40)), Availability::Probe);
        // A successful probe closes the breaker for everyone.
        assert!(h.on_success());
        assert_eq!(h.availability(&p, t1 + Duration::from_millis(40)), Availability::Ready);
        assert!(!h.is_tripped());
    }

    /// The breaker as it was, every field under one lock: the reference
    /// the one-word breaker is held to.
    #[derive(Default)]
    struct Locked {
        inner: Mutex<(u32, bool, Option<Instant>)>,
    }

    impl Locked {
        fn availability(&self, policy: &HealthPolicy, now: Instant) -> Availability {
            let (_, tripped, probe_at) = &mut *self.inner.lock().unwrap();
            if !*tripped {
                return Availability::Ready;
            }
            match *probe_at {
                Some(at) if now < at => Availability::Skip,
                _ => {
                    *probe_at = Some(now + policy.probe_cooldown);
                    Availability::Probe
                }
            }
        }

        fn on_success(&self) -> bool {
            let (streak, tripped, probe_at) = &mut *self.inner.lock().unwrap();
            *streak = 0;
            *probe_at = None;
            std::mem::take(tripped)
        }

        fn on_failure(&self, policy: &HealthPolicy, now: Instant) -> bool {
            let (streak, tripped, probe_at) = &mut *self.inner.lock().unwrap();
            *streak += 1;
            if *tripped {
                *probe_at = Some(now + policy.probe_cooldown);
                return false;
            }
            if *streak >= policy.trip_threshold {
                *tripped = true;
                *probe_at = Some(now + policy.probe_cooldown);
                return true;
            }
            false
        }
    }

    /// Seeded runs of successes, failures and availability reads at
    /// instants that advance by 0–29 ms, against the locked reference:
    /// after every op the answer, the trip or recovery, and the open bit
    /// are the reference's, across thresholds 1–4.
    #[test]
    fn the_one_word_breaker_answers_as_the_locked_one() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let seed = iqs_testkit::seed::derive(iqs_testkit::seed::suite_seed(), "breaker_ops");
        let mut rng = StdRng::seed_from_u64(seed);
        for run in 0..64u32 {
            let p = HealthPolicy { trip_threshold: 1 + run % 4, ..policy(40) };
            let (h, reference) = (Health::default(), Locked::default());
            let mut now = Instant::now();
            for op in 0..400 {
                now += Duration::from_millis(rng.random_range(0..30));
                let at = format!("seed {seed:#x}, run {run}, op {op}");
                match rng.random_range(0..3u32) {
                    0 => assert_eq!(h.on_success(), reference.on_success(), "{at}: success"),
                    1 => assert_eq!(h.on_failure(&p, now), reference.on_failure(&p, now), "{at}"),
                    _ => {
                        assert_eq!(h.availability(&p, now), reference.availability(&p, now), "{at}")
                    }
                }
                assert_eq!(h.is_tripped(), reference.inner.lock().unwrap().1, "{at}: open bit");
            }
        }
    }
}
