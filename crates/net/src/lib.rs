//! `iqs-net`: the networking tier that stretches the sharded sampling
//! cluster across process boundaries.
//!
//! The in-process tier (`iqs-shard`) routes scatter legs through the
//! [`ReplicaLink`] trait; this crate provides the wire-side half of
//! that contract, in four layers:
//!
//! 1. **Wire format** ([`frame`]): length-prefixed frames with a
//!    32-byte versioned header (magic, version, kind, trace id, span,
//!    relative deadline, flags, payload length) carrying the typed
//!    [`Request`](iqs_serve::Request) / [`Response`](iqs_serve::Response)
//!    enums — as JSON via the vendored serde, except sample ids, which
//!    travel as width-tagged binary ([`msg`]). The decoder is strict:
//!    oversized, truncated, or corrupt frames return typed
//!    [`FrameError`]s and never panic or over-allocate.
//! 2. **Transports** ([`transport`], [`sim`]): the [`Transport`] trait
//!    with a real blocking-TCP implementation (bounded per-address
//!    connection pool, per-attempt deadlines, reconnect backoff) and an
//!    in-memory [`SimNet`] on the testkit virtual clock with injectable
//!    partition / delay / duplicate faults, so distributed scenarios
//!    replay deterministically.
//! 3. **Registry** ([`registry`]): replicas announce
//!    `(shard span, addr, epoch)` under TTL leases; routers discover
//!    live replicas and group them into shard specs. An expired lease
//!    makes the replica refuse submission, which feeds the router's
//!    existing circuit-breaker and degraded-accounting paths.
//! 4. **Remote replicas** ([`remote`], [`listen`]): [`ReplicaServer`]
//!    exposes an `iqs-serve` node behind a frame handler (in-memory or
//!    [`TcpServer`]); [`RemoteReplica`] implements [`ReplicaLink`] over
//!    a transport, so `iqs_shard::ShardedService::from_links` composes
//!    local and remote legs per topology entry. Trace ids ride the
//!    frame header, so `TraceView` still reconstructs the two-level
//!    schedule across processes.
//!
//! [`ReplicaLink`]: iqs_shard::ReplicaLink

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod frame;
mod listen;
pub mod msg;
mod registry;
mod remote;
mod sim;
mod transport;

pub use error::{FrameError, NetError};
pub use listen::TcpServer;
pub use registry::{Ack, Announce, Lease, ServiceRegistry};
pub use remote::{announce_once, shard_specs, RegistryHandler, RemoteReplica, ReplicaServer};
pub use sim::{LinkFault, SimNet, SimStats};
pub use transport::{FrameHandler, InFlight, TcpConfig, TcpTransport, Transport};
