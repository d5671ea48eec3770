//! Injectable per-replica faults, for exercising the failover and
//! degradation machinery without real process crashes.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use iqs_obs::{recorder, saturating_ns, Ctx, Phase};
use iqs_serve::{MetricsSnapshot, Request, ServeError};
use iqs_testkit::ClockHandle;

use crate::link::{PendingLeg, ReplicaLink};
use crate::router::ShardedService;

type LegResult = Result<PendingLeg, ServeError>;

/// What a [`FaultyLink`] makes its replica look like to the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// No fault: requests flow normally.
    #[default]
    Healthy,
    /// The replica is unreachable (a crashed or partitioned node).
    Down,
    /// The replica refuses every request (a node up but misbehaving).
    Error,
    /// Replies arrive after an extra delay (an overloaded or
    /// network-degraded node).
    Delay(Duration),
}

/// A [`ReplicaLink`] decorator that injects the current [`FaultMode`]
/// below the router, as `iqs-net`'s simulated network does, so local and
/// remote replicas fail through one door and the router holds no faults.
///
/// Down and Error refuse legs and weight probes with
/// [`ServeError::ShuttingDown`], a replica failure the router fails over
/// from; `metrics` passes through. A Delay of `d` hands the leg to the
/// inner link through the same door (`submit` or `answer`), and awaiting
/// it first sleeps `d` on the link's clock, capped at the attempt's
/// deadline, as [`Phase::DelayAbsorb`] on the leg's context. **So a Delay
/// burns the attempt's budget**: in full if it fits, else the rest of it
/// and the attempt times out.
pub struct FaultyLink {
    inner: Arc<dyn ReplicaLink>,
    clock: ClockHandle,
    mode: Mutex<FaultMode>,
}

impl FaultyLink {
    /// Wraps `inner`, healthy until [`FaultyLink::set`] says otherwise, on
    /// `clock`: the router's, whose timeline the deadlines are minted on.
    pub fn new(inner: Arc<dyn ReplicaLink>, clock: ClockHandle) -> FaultyLink {
        FaultyLink { inner, clock, mode: Mutex::new(FaultMode::Healthy) }
    }

    /// Wraps every replica link of `cluster`'s current topology
    /// ([`ShardedService::wrap_links`]) on the cluster's clock, and
    /// returns the wrappers indexed `[shard][replica]`.
    pub fn wrap_all(cluster: &ShardedService) -> Vec<Vec<Arc<FaultyLink>>> {
        let mut links: Vec<Vec<Arc<FaultyLink>>> = Vec::new();
        cluster.wrap_links(|shard, _, link| {
            let faulty = Arc::new(FaultyLink::new(link, cluster.clock().clone()));
            links.resize_with(shard + 1, Vec::new);
            links[shard].push(Arc::clone(&faulty));
            faulty
        });
        links
    }

    /// Sets the fault the link injects from now on.
    pub fn set(&self, mode: FaultMode) {
        *self.mode.lock().expect("fault mode poisoned") = mode;
    }

    /// The delay to inject, or the refusal a Down/Error replica gives.
    fn gate(&self) -> Result<Option<Duration>, ServeError> {
        match *self.mode.lock().expect("fault mode poisoned") {
            FaultMode::Healthy => Ok(None),
            FaultMode::Down | FaultMode::Error => Err(ServeError::ShuttingDown),
            FaultMode::Delay(d) => Ok(Some(d)),
        }
    }

    /// The leg `send` hands the inner link, past the gate; a delayed
    /// leg's reply is read only after the delay is slept out, capped at
    /// the deadline it is awaited with.
    fn leg(&self, ctx: Ctx, send: impl FnOnce() -> LegResult) -> LegResult {
        let Some(d) = self.gate()? else { return send() };
        let (pending, clock) = (send()?, self.clock.clone());
        Ok(PendingLeg::deferred(move |deadline| {
            let slept = d.min(deadline.saturating_duration_since(clock.now()));
            clock.sleep(slept);
            recorder::emit(ctx, Phase::DelayAbsorb, saturating_ns(slept), 0);
            if slept < d {
                return None;
            }
            pending.wait_deadline(deadline)
        }))
    }
}

impl ReplicaLink for FaultyLink {
    fn submit(
        &self,
        request: Request,
        origin: Instant,
        deadline: Instant,
        ctx: Ctx,
    ) -> Result<PendingLeg, ServeError> {
        self.leg(ctx, || self.inner.submit(request, origin, deadline, ctx))
    }

    fn answer(
        &self,
        request: Request,
        origin: Instant,
        deadline: Instant,
        ctx: Ctx,
    ) -> Result<PendingLeg, ServeError> {
        self.leg(ctx, || self.inner.answer(request, origin, deadline, ctx))
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        self.gate()?;
        self.inner.total_weight()
    }

    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError> {
        self.gate()?;
        self.inner.range_weight(x, y)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardConfig;

    #[test]
    fn wrapped_links_degrade_and_recover_a_cluster() {
        let svc = ShardedService::new(
            (0..30).map(|i| (i, i as f64, 1.0 + (i % 7) as f64)).collect(),
            ShardConfig { shards: 3, replicas: 1, ..ShardConfig::default() },
        )
        .expect("build");
        let faults = FaultyLink::wrap_all(&svc);
        let mut client = svc.client();
        faults[1][0].set(FaultMode::Down);
        let drawn = client.sample_wr(None, 90).expect("degraded sample");
        assert!(drawn.degraded && drawn.ids.len() + drawn.missing == 90);
        // The dead shard owns keys 10..=19; no id from it can appear, and
        // a range only partly over it cannot weigh it either.
        assert!(drawn.ids.iter().all(|&id| !(10..20).contains(&id)));
        assert!(client.sample_wr(Some((5.0, 15.0)), 10).expect("degraded sample").degraded);
        faults[1][0].set(FaultMode::Healthy);
        let healed = client.sample_wr(None, 90).expect("healed sample");
        assert_eq!((healed.degraded, healed.ids.len()), (false, 90));
        let m = svc.metrics().router;
        assert_eq!((m.degraded_queries, m.failovers, m.rebalances), (2, 1, 0));
    }
}
