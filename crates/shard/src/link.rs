//! The router's replica interface, abstracted over *where* the replica
//! runs.
//!
//! Historically a replica was a struct in the router's address space —
//! a [`Client`] plus the [`Server`] that owns its worker pool. This
//! module narrows what the router actually needs from a replica to one
//! object-safe trait, [`ReplicaLink`]: submit a scatter leg, probe
//! weights for planning, snapshot metrics. `iqs-net` implements the
//! same trait over a wire transport, so a topology can mix in-process
//! and remote legs and the scatter/gather, failover, breaker, and
//! degradation machinery applies unchanged to both.

use std::sync::Arc;
use std::time::Instant;

use iqs_obs::Ctx;
use iqs_serve::{
    Begun, Client, MetricsSnapshot, PendingReply, Request, Response, ServeError, Server,
};

use crate::placement::SHARD_INDEX;

/// A submitted scatter leg whose response can be awaited once, bounded
/// by a deadline on the router's clock.
pub enum PendingLeg {
    /// An in-process reply handle (a local leg queued for the replica's
    /// workers).
    Local(PendingReply),
    /// An already-resolved outcome: a local leg answered inside
    /// [`ReplicaLink::answer`], or a synchronous transport. `None` means
    /// the attempt timed out.
    Ready(Option<Result<Response, ServeError>>),
    /// A deferred completion, invoked once with the gather deadline
    /// (TCP: the request is written at submit, the reply read here, so
    /// legs still fan out across shards before the first wait).
    Deferred(Box<dyn FnOnce(Instant) -> Option<Result<Response, ServeError>> + Send>),
}

impl PendingLeg {
    /// Wraps a completion closure.
    pub fn deferred(
        f: impl FnOnce(Instant) -> Option<Result<Response, ServeError>> + Send + 'static,
    ) -> PendingLeg {
        PendingLeg::Deferred(Box::new(f))
    }

    /// Blocks until the response arrives or `deadline` passes; `None`
    /// means the attempt timed out (the router fails over).
    pub fn wait_deadline(self, deadline: Instant) -> Option<Result<Response, ServeError>> {
        match self {
            PendingLeg::Local(pending) => pending.wait_deadline(deadline),
            PendingLeg::Ready(outcome) => outcome,
            PendingLeg::Deferred(finish) => finish(deadline),
        }
    }
}

/// What the router needs from one replica of one shard: leg submission,
/// weight probes for the planner's top-level alias table, and metrics.
///
/// Implementations must be cheap to call concurrently; the router
/// submits to many links from one thread and expects `submit` to fan
/// out (queue or write) rather than block on the reply.
pub trait ReplicaLink: Send + Sync {
    /// Submits one scatter leg. `origin` is the latency origin,
    /// `deadline` this attempt's deadline on the router's clock, `ctx`
    /// the leg's trace context (trace ids cross process boundaries so
    /// `TraceView` still reconstructs the two-level schedule).
    ///
    /// # Errors
    /// Admission refusals and transport failures surface immediately;
    /// dispatch errors arrive through the returned [`PendingLeg`].
    fn submit(
        &self,
        request: Request,
        origin: Instant,
        deadline: Instant,
        ctx: Ctx,
    ) -> Result<PendingLeg, ServeError>;

    /// [`ReplicaLink::submit`] for a leg of a scatter too small to be
    /// worth handing off (`router` module docs, "Where a leg runs"): a
    /// link that can answer on the calling thread without waiting for
    /// anyone may, and returns the outcome as [`PendingLeg::Ready`]. The
    /// in-process link does while its replica has a seat free; a busy
    /// replica queues the leg as `submit` would, so this never waits
    /// either. The default — right for any link that crosses a wire —
    /// is `submit`.
    ///
    /// # Errors
    /// As [`ReplicaLink::submit`]; what a leg answered here ran into
    /// arrives through the returned [`PendingLeg`] all the same.
    fn answer(
        &self,
        request: Request,
        origin: Instant,
        deadline: Instant,
        ctx: Ctx,
    ) -> Result<PendingLeg, ServeError> {
        self.submit(request, origin, deadline, ctx)
    }

    /// The replica's total sampling weight (the planner's cached-probe
    /// path at build time).
    ///
    /// # Errors
    /// [`ServeError`] when the index is unreachable or unregistered.
    fn total_weight(&self) -> Result<f64, ServeError>;

    /// The replica's in-range weight over `[x, y]` (the planner's live
    /// probe for partially covered shards).
    ///
    /// # Errors
    /// [`ServeError`] when the index is unreachable or unregistered.
    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError>;

    /// A point-in-time copy of the replica's service metrics. Remote
    /// implementations report a default (empty) snapshot when the
    /// replica is unreachable.
    fn metrics(&self) -> MetricsSnapshot;
}

/// One shard of a remote topology: the key span and cached weight a
/// registry lease advertises, plus the links serving it. Feed a sorted,
/// disjoint list to [`ShardedService::from_links`].
///
/// [`ShardedService::from_links`]: crate::ShardedService::from_links
pub struct ShardSpec {
    /// Smallest element key in the shard.
    pub lo_key: f64,
    /// Largest element key in the shard.
    pub hi_key: f64,
    /// Total sampling weight of the shard's slice (the replicas'
    /// cached snapshot value, carried by their announcements).
    pub total_weight: f64,
    /// The replicas serving this shard.
    pub links: Vec<Arc<dyn ReplicaLink>>,
}

/// An in-process replica: a full single-node service, owned. Dropping
/// the link drains and joins the worker pool.
pub(crate) struct LocalReplica {
    client: Client,
    server: Server,
}

impl LocalReplica {
    pub(crate) fn new(server: Server) -> LocalReplica {
        LocalReplica { client: server.client(), server }
    }
}

impl ReplicaLink for LocalReplica {
    fn submit(
        &self,
        request: Request,
        origin: Instant,
        deadline: Instant,
        ctx: Ctx,
    ) -> Result<PendingLeg, ServeError> {
        self.client.call_pending_ctx(request, origin, Some(deadline), ctx).map(PendingLeg::Local)
    }

    fn answer(
        &self,
        request: Request,
        origin: Instant,
        deadline: Instant,
        ctx: Ctx,
    ) -> Result<PendingLeg, ServeError> {
        Ok(match self.client.begin_ctx(request, origin, Some(deadline), ctx)? {
            Begun::Done(outcome) => PendingLeg::Ready(Some(outcome)),
            Begun::Queued(pending) => PendingLeg::Local(pending),
        })
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        self.server.registry().total_weight(SHARD_INDEX)
    }

    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError> {
        // Weight probes bypass the queue: they are deterministic reads
        // of the published snapshot, not sampling work.
        self.server.registry().range_weight(SHARD_INDEX, x, y)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.client.metrics()
    }
}

#[cfg(test)]
mod tests;
