//! The router's replica interface, abstracted over *where* the replica
//! runs: one object-safe trait, [`ReplicaLink`] — run a scatter leg,
//! probe weights for planning, snapshot metrics. An in-process replica
//! is a [`Client`] plus the [`Server`] that owns its worker pool;
//! `iqs-net` implements the same trait over a wire transport, so a
//! topology can mix in-process and remote legs and the scatter/gather,
//! failover, breaker, and degradation machinery applies unchanged to
//! both.
//!
//! A leg is a [`LegAsk`] admitted with an [`Admission`], and a link has
//! two doors for it: [`ReplicaLink::submit`] hands it off, and
//! [`ReplicaLink::answer`] runs it on the calling thread if the link can
//! do so without waiting and hands it off otherwise. A
//! [`Request`](iqs_serve::Request) is built only where a leg is queued or
//! encoded.

use std::sync::Arc;
use std::time::Instant;

use iqs_serve::{
    Admission, Client, LegAsk, MetricsSnapshot, PendingReply, Response, ServeError, Server,
};

use crate::placement::SHARD_INDEX;

/// A submitted scatter leg whose response can be awaited once, bounded
/// by a deadline on the router's clock.
pub enum PendingLeg {
    /// An in-process reply handle: a local leg queued for the replica's
    /// workers, or one answered inside [`ReplicaLink::answer`].
    Local(PendingReply),
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
///
/// A draw leg's ids are those the link appended to the `out` it was
/// given ([`ReplicaLink::answer`]) followed by those of its
/// [`Response::Samples`] reply.
pub trait ReplicaLink: Send + Sync {
    /// Hands one scatter leg off. `at.origin` is the latency origin,
    /// `at.deadline` this attempt's deadline on the router's clock,
    /// `at.ctx` the leg's trace context (trace ids cross process
    /// boundaries so `TraceView` still reconstructs the two-level
    /// schedule). A link admits a handed-off leg when it arrives, not at
    /// `at.admitted`.
    ///
    /// # Errors
    /// Admission refusals and transport failures surface immediately;
    /// dispatch errors arrive through the returned [`PendingLeg`].
    fn submit(&self, leg: LegAsk, at: Admission) -> Result<PendingLeg, ServeError>;

    /// [`ReplicaLink::submit`] for a leg of a scatter too small to be
    /// worth handing off (`router` module docs, "Where a leg runs"): a
    /// link that can answer on the calling thread without waiting for
    /// anyone may, admitting the leg at `at.admitted` and appending a
    /// draw's ids to `out`; the returned [`PendingLeg`] is then already
    /// answered. The in-process link does while its replica has a seat
    /// free ([`Client::answer`]); a busy replica queues the leg as
    /// `submit` would, so this never waits either. A link that wraps
    /// another passes `out` on to the inner link's `answer`. The
    /// default — right for any link that crosses a wire — is `submit`.
    ///
    /// # Errors
    /// As [`ReplicaLink::submit`]; what a leg answered here ran into
    /// arrives through the returned [`PendingLeg`] all the same.
    fn answer(
        &self,
        leg: LegAsk,
        at: Admission,
        _out: &mut Vec<u64>,
    ) -> Result<PendingLeg, ServeError> {
        self.submit(leg, at)
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
    fn submit(&self, leg: LegAsk, at: Admission) -> Result<PendingLeg, ServeError> {
        let request = leg.request(SHARD_INDEX);
        self.client.call_pending_ctx(request, at.origin, at.deadline, at.ctx).map(PendingLeg::Local)
    }

    fn answer(
        &self,
        leg: LegAsk,
        at: Admission,
        out: &mut Vec<u64>,
    ) -> Result<PendingLeg, ServeError> {
        self.client.answer(SHARD_INDEX, leg, at, out).map(PendingLeg::Local)
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
