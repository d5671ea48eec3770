//! Remote replicas: an `iqs-serve` node behind a frame handler, and the
//! [`ReplicaLink`] that reaches it over a [`Transport`].
//!
//! [`ReplicaServer`] is the server half: it parses request payloads,
//! re-anchors the relative deadline budget on its own clock, threads
//! the wire's trace/span into the obs [`Ctx`] (so `TraceView`
//! reconstructs the two-level schedule across processes), runs the
//! request through the node's normal admission — on this thread when
//! the node is idle, through its queue when it is not
//! ([`Client::call_ctx`]) — and encodes the reply, typed errors
//! included. [`RemoteReplica`] is the client half:
//! it implements `iqs-shard`'s [`ReplicaLink`], so
//! [`ShardedService::from_links`](iqs_shard::ShardedService::from_links)
//! composes local and remote legs interchangeably and the router's
//! failover, breaker, and degraded accounting apply unchanged.
//!
//! When a [`ServiceRegistry`] is attached, a remote replica whose lease
//! has expired refuses submission with [`ServeError::Remote`] — the
//! same shape as any transport failure, so expired leases flow into the
//! breaker path with honest accounting rather than hanging on a dead
//! address.

use std::sync::Arc;
use std::time::{Duration, Instant};

use iqs_obs::{saturating_ns, Ctx};
use iqs_serve::{Client, MetricsSnapshot, Request, Response, ServeError};
use iqs_shard::{PendingLeg, ReplicaLink, ShardSpec, SHARD_INDEX};
use iqs_testkit::ClockHandle;

use crate::error::NetError;
use crate::frame::{Header, Kind};
use crate::msg::{
    decode_reply, encode_ack, encode_announce, encode_metrics_reply, encode_metrics_request,
    encode_reply, encode_request, from_json,
};
use crate::registry::{Ack, Announce, ServiceRegistry};
use crate::transport::{FrameHandler, Transport};

/// Deadline for synchronous weight probes and metrics pulls.
const PROBE_DEADLINE: Duration = Duration::from_secs(1);

/// The payload of a frame that must be of kind `want`, parsed as `T` —
/// or the untraced refusal reply of `who`, the endpoint that cannot
/// serve it.
fn parse_as<T: serde::Deserialize>(
    who: &str,
    want: Kind,
    header: Header,
    payload: &[u8],
) -> Result<T, Vec<u8>> {
    let refusal = |detail: String| encode_reply(&Err(ServeError::Remote(detail)), 0, 0);
    if header.kind != want {
        return Err(refusal(format!("{who} cannot serve {:?} frames", header.kind)));
    }
    from_json::<T>(payload).map_err(|e| refusal(e.to_string()))
}

/// The server half: one `iqs-serve` node exposed as a [`FrameHandler`],
/// servable in-memory ([`SimNet::bind`](crate::SimNet::bind)) or over
/// TCP ([`TcpServer::spawn`](crate::TcpServer::spawn)).
pub struct ReplicaServer {
    client: Client,
    clock: ClockHandle,
}

impl ReplicaServer {
    /// Wraps a node's client; `clock` must be the clock the node's
    /// server was started on (deadline budgets are re-anchored on it).
    #[must_use]
    pub fn new(client: Client, clock: ClockHandle) -> ReplicaServer {
        ReplicaServer { client, clock }
    }

    fn serve_request(&self, trace: u64, span: u32, deadline_ns: u64, payload: &[u8]) -> Vec<u8> {
        let request = match from_json::<Request>(payload) {
            Ok(request) => request,
            Err(e) => {
                return encode_reply(&Err(ServeError::Remote(e.to_string())), trace, span);
            }
        };
        let origin = self.clock.now();
        let deadline = (deadline_ns > 0).then(|| origin + Duration::from_nanos(deadline_ns));
        let ctx = Ctx { trace, span };
        // The blocking door: this connection thread would only sleep on
        // the reply, so it draws itself when the node has a seat free —
        // the node's `workers` cap holds however many connections ask.
        encode_reply(&self.client.call_ctx(request, origin, deadline, ctx), trace, span)
    }
}

impl FrameHandler for ReplicaServer {
    fn handle_frame(&self, header: Header, payload: &[u8]) -> Vec<u8> {
        match header.kind {
            Kind::Request => {
                self.serve_request(header.trace, header.span, header.deadline_ns, payload)
            }
            Kind::Metrics => encode_metrics_reply(&self.client.metrics()),
            other => encode_reply(
                &Err(ServeError::Remote(format!("replica cannot serve {other:?} frames"))),
                header.trace,
                header.span,
            ),
        }
    }
}

/// The client half: a [`ReplicaLink`] that reaches one replica address
/// over a transport. Weight probes and metrics go through the replica's
/// normal admission (they are requests like any other); scatter
/// legs ride [`Transport::begin`] so the router's fan-out still
/// overlaps across shards.
pub struct RemoteReplica {
    transport: Arc<dyn Transport>,
    addr: String,
    registry: Option<Arc<ServiceRegistry>>,
}

impl RemoteReplica {
    /// A link to the replica at `addr`, serving the conventional
    /// [`SHARD_INDEX`] with no lease checking.
    #[must_use]
    pub fn new(transport: Arc<dyn Transport>, addr: impl Into<String>) -> RemoteReplica {
        RemoteReplica { transport, addr: addr.into(), registry: None }
    }

    /// Attaches a registry: submission refuses when the address's lease
    /// is expired, feeding the router's breaker path.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<ServiceRegistry>) -> RemoteReplica {
        self.registry = Some(registry);
        self
    }

    /// The address this link targets.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One synchronous request round trip under the probe deadline.
    fn probe(&self, request: &Request) -> Result<Response, ServeError> {
        let clock = self.transport.clock();
        let deadline = clock.now() + PROBE_DEADLINE;
        let frame = encode_request(request, 0, 0, PROBE_DEADLINE.as_nanos() as u64);
        let (header, payload) = self
            .transport
            .call(&self.addr, frame, deadline)
            .map_err(|e| ServeError::Remote(e.to_string()))?;
        decode_reply(header.kind, &payload).map_err(|e| ServeError::Remote(e.to_string()))?
    }

    fn weight_of(&self, request: &Request) -> Result<f64, ServeError> {
        match self.probe(request)? {
            Response::Weight(w) => Ok(w),
            other => Err(ServeError::Remote(format!("expected a weight reply, got {other:?}"))),
        }
    }
}

impl ReplicaLink for RemoteReplica {
    fn submit(
        &self,
        request: Request,
        _origin: Instant,
        deadline: Instant,
        ctx: Ctx,
    ) -> Result<PendingLeg, ServeError> {
        if let Some(registry) = &self.registry {
            if !registry.is_live(&self.addr) {
                return Err(ServeError::Remote(format!("lease expired for {}", self.addr)));
            }
        }
        let budget = deadline.saturating_duration_since(self.transport.clock().now());
        let frame = encode_request(&request, ctx.trace, ctx.span, saturating_ns(budget));
        let in_flight = self
            .transport
            .begin(&self.addr, frame, deadline)
            .map_err(|e| ServeError::Remote(e.to_string()))?;
        let addr = self.addr.clone();
        Ok(PendingLeg::deferred(move |deadline| match in_flight.finish(deadline) {
            // A timeout is the remote analogue of a missed pickup
            // deadline: `None`, so the router fails over.
            Err(NetError::Timeout { .. }) => None,
            Err(e) => Some(Err(ServeError::Remote(format!("{addr}: {e}")))),
            Ok((header, payload)) => match decode_reply(header.kind, &payload) {
                Ok(outcome) => Some(outcome),
                Err(e) => Some(Err(ServeError::Remote(format!("{addr}: {e}")))),
            },
        }))
    }

    fn total_weight(&self) -> Result<f64, ServeError> {
        self.weight_of(&Request::TotalWeight { index: SHARD_INDEX.to_string() })
    }

    fn range_weight(&self, x: f64, y: f64) -> Result<f64, ServeError> {
        self.weight_of(&Request::RangeWeight { index: SHARD_INDEX.to_string(), x, y })
    }

    fn metrics(&self) -> MetricsSnapshot {
        let clock = self.transport.clock();
        let deadline = clock.now() + PROBE_DEADLINE;
        let Ok((header, payload)) =
            self.transport.call(&self.addr, encode_metrics_request(), deadline)
        else {
            return MetricsSnapshot::default();
        };
        if header.kind != Kind::Metrics {
            return MetricsSnapshot::default();
        }
        from_json::<MetricsSnapshot>(&payload).unwrap_or_default()
    }
}

/// A [`FrameHandler`] exposing a [`ServiceRegistry`] to the network:
/// announce frames in, ack frames out.
pub struct RegistryHandler {
    registry: Arc<ServiceRegistry>,
}

impl RegistryHandler {
    /// Wraps the registry.
    #[must_use]
    pub fn new(registry: Arc<ServiceRegistry>) -> RegistryHandler {
        RegistryHandler { registry }
    }
}

impl FrameHandler for RegistryHandler {
    fn handle_frame(&self, header: Header, payload: &[u8]) -> Vec<u8> {
        match parse_as::<Announce>("registry", Kind::Announce, header, payload) {
            Ok(announce) => encode_ack(&self.registry.announce(announce)),
            Err(refused) => refused,
        }
    }
}

/// Sends one announcement to a remote registry and returns its ack.
/// Replicas call this on a re-announce cadence well inside their TTL.
///
/// # Errors
/// Transport failures, or a non-ack reply ([`NetError::Decode`]).
pub fn announce_once(
    transport: &dyn Transport,
    registry_addr: &str,
    announce: &Announce,
    deadline: Instant,
) -> Result<Ack, NetError> {
    let (header, payload) = transport.call(registry_addr, encode_announce(announce), deadline)?;
    if header.kind != Kind::Ack {
        return Err(NetError::Decode(format!("expected an ack frame, got {:?}", header.kind)));
    }
    from_json::<Ack>(&payload)
}

/// Groups the registry's live announcements into shard specs for
/// [`ShardedService::from_links`](iqs_shard::ShardedService::from_links):
/// announces sharing an exact `(lo_key, hi_key)` span are replicas of
/// one shard, ordered by key span and, within a shard, by address —
/// deterministic regardless of announcement order. Every link carries
/// the registry, so lease expiry feeds the breaker path.
#[must_use]
pub fn shard_specs(
    registry: &Arc<ServiceRegistry>,
    transport: &Arc<dyn Transport>,
) -> Vec<ShardSpec> {
    let mut specs: Vec<ShardSpec> = Vec::new();
    for announce in registry.live() {
        let link: Arc<dyn ReplicaLink> = Arc::new(
            RemoteReplica::new(Arc::clone(transport), announce.addr.clone())
                .with_registry(Arc::clone(registry)),
        );
        match specs.last_mut() {
            Some(spec)
                if spec.lo_key.to_bits() == announce.lo_key.to_bits()
                    && spec.hi_key.to_bits() == announce.hi_key.to_bits() =>
            {
                spec.links.push(link);
            }
            _ => specs.push(ShardSpec {
                lo_key: announce.lo_key,
                hi_key: announce.hi_key,
                total_weight: announce.total_weight,
                links: vec![link],
            }),
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame, DEFAULT_MAX_PAYLOAD};

    /// Single-kind endpoints refuse the wrong kind and an unparseable
    /// payload with an error reply naming the cause, and serve the rest.
    #[test]
    fn single_kind_handlers_refuse_what_they_cannot_serve() {
        let clock = iqs_testkit::VirtualClock::new();
        let registry = RegistryHandler::new(Arc::new(ServiceRegistry::new(clock.handle())));
        let reply_to = |handler: &dyn FrameHandler, frame: Vec<u8>| {
            let (header, payload) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("own frame");
            let reply = handler.handle_frame(header, payload);
            let (header, payload) = decode_frame(&reply, DEFAULT_MAX_PAYLOAD).expect("reply");
            (header.kind, payload.to_vec())
        };
        let refusal = |handler: &dyn FrameHandler, frame: Vec<u8>| {
            let (kind, payload) = reply_to(handler, frame);
            match decode_reply(kind, &payload) {
                Ok(Err(ServeError::Remote(detail))) => detail,
                other => panic!("expected a refusal, got {other:?}"),
            }
        };
        let detail = refusal(&registry, encode_metrics_request());
        assert!(detail.contains("registry cannot serve Metrics"), "{detail}");
        refusal(&registry, encode_frame(Kind::Announce, 0, 0, 0, "{"));
        // Payload bytes reach a handler unchecked; text that is not even
        // UTF-8 is refused like any other payload that does not parse.
        let detail = refusal(&registry, encode_frame(Kind::Announce, 0, 0, 0, [0xff, 0xfe]));
        assert!(detail.contains("not UTF-8"), "{detail}");

        let announce = Announce {
            addr: "sim://r0".into(),
            lo_key: 0.0,
            hi_key: 1.0,
            total_weight: 2.0,
            epoch: 1,
            ttl_ms: 1000,
        };
        let (kind, ack) = reply_to(&registry, encode_announce(&announce));
        assert_eq!(kind, Kind::Ack);
        assert_eq!(from_json::<Ack>(&ack).expect("ack"), Ack { accepted: true, epoch: 1 });
    }
}
