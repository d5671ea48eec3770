//! The transport abstraction and its real-TCP implementation.
//!
//! A [`Transport`] completes framed request/reply round trips against
//! string addresses. The router's scatter phase needs *fan-out*: every
//! leg's request written before the first reply is awaited.
//! [`Transport::begin`] models that — it sends the request and returns
//! an [`InFlight`] handle whose [`InFlight::finish`] blocks for the
//! reply — while [`Transport::call`] is the simple synchronous
//! composition for probes, announcements, and metrics. Either way the
//! reply comes back as its validated header plus the payload *bytes*;
//! reading them — JSON or binary, by the header's kind — is
//! [`msg`](crate::msg)'s job, not the transport's.
//!
//! [`TcpTransport`] speaks blocking TCP with a bounded per-address
//! connection pool, per-attempt deadlines enforced through socket
//! timeouts, and exponential reconnect backoff: once an address fails
//! to connect, further attempts fast-fail as [`NetError::Unreachable`]
//! until the backoff window passes, so a dead replica costs the router
//! one connect timeout rather than one per query.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use iqs_testkit::ClockHandle;

use crate::error::NetError;
use crate::frame::{FrameReader, Header};

/// A server-side frame processor: one decoded frame (header plus
/// payload bytes) in, reply bytes out. Shared by the in-memory
/// simulation and the TCP listener, so the same
/// [`ReplicaServer`](crate::ReplicaServer) serves both; each decodes
/// the bytes it received exactly once, with the strict frame decoder,
/// before the handler runs.
pub trait FrameHandler: Send + Sync {
    /// Processes one frame and produces the reply frame. A payload
    /// that does not parse (the bytes are unchecked — not even known to
    /// be UTF-8 — until [`msg::from_json`](crate::msg::from_json) reads
    /// them), or a kind the handler does not serve, must come back as
    /// an encoded error frame, not a panic.
    fn handle_frame(&self, header: Header, payload: &[u8]) -> Vec<u8>;
}

/// A framed round trip in flight; resolves to the decoded reply frame:
/// its header and payload bytes.
pub enum InFlight {
    /// The round trip already completed (synchronous transports decode
    /// the reply inside `begin`).
    Ready(Box<Result<(Header, Vec<u8>), NetError>>),
    /// A TCP exchange whose request is written and whose reply is
    /// pending on the wire.
    Tcp(TcpInFlight),
}

impl InFlight {
    /// Blocks until the reply arrives or `deadline` passes, returning
    /// the decoded reply frame.
    ///
    /// # Errors
    /// [`NetError::Timeout`] when the deadline expires first; transport
    /// and frame errors otherwise.
    pub fn finish(self, deadline: Instant) -> Result<(Header, Vec<u8>), NetError> {
        match self {
            InFlight::Ready(outcome) => *outcome,
            InFlight::Tcp(pending) => pending.finish(deadline),
        }
    }
}

/// Completes framed round trips against string addresses.
pub trait Transport: Send + Sync {
    /// Sends `frame` to `addr` and returns a handle that resolves to
    /// the reply. The request must be on its way (written or enqueued)
    /// when this returns, so callers can fan out before waiting.
    ///
    /// # Errors
    /// Submission-time failures only (unreachable, write error); the
    /// reply's failures surface from [`InFlight::finish`].
    fn begin(&self, addr: &str, frame: Vec<u8>, deadline: Instant) -> Result<InFlight, NetError>;

    /// Synchronous round trip: [`Transport::begin`] then
    /// [`InFlight::finish`] under one deadline.
    ///
    /// # Errors
    /// As for the two halves.
    fn call(
        &self,
        addr: &str,
        frame: Vec<u8>,
        deadline: Instant,
    ) -> Result<(Header, Vec<u8>), NetError> {
        self.begin(addr, frame, deadline)?.finish(deadline)
    }

    /// The clock deadlines are measured against (virtual in simulation).
    fn clock(&self) -> ClockHandle;
}

/// Idle connections kept per address.
const POOL_PER_ADDR: usize = 4;
/// Per-attempt connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// First reconnect-backoff window after a connect failure; doubles per
/// consecutive failure.
const BACKOFF_INITIAL: Duration = Duration::from_millis(50);
/// Backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Deployment limits for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Per-frame payload limit for received replies, the client-side
    /// twin of the limit [`TcpServer::spawn`](crate::TcpServer::spawn)
    /// takes. Default 16 MiB.
    pub max_payload: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig { max_payload: crate::frame::DEFAULT_MAX_PAYLOAD }
    }
}

/// Per-address pool state.
struct Pool {
    idle: Vec<TcpStream>,
    backoff_until: Option<Instant>,
    backoff: Duration,
}

/// Shared transport state: one pool map for every clone and every
/// in-flight handle.
struct TcpInner {
    config: TcpConfig,
    clock: ClockHandle,
    pools: Mutex<HashMap<String, Pool>>,
}

/// Blocking-TCP transport with pooled connections; cheap to clone (all
/// clones share one pool). See the module docs.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

/// A TCP round trip whose request is written; dropping it abandons the
/// connection (never returned to the pool with a reply in flight).
pub struct TcpInFlight {
    stream: TcpStream,
    addr: String,
    inner: Arc<TcpInner>,
}

impl TcpInner {
    /// `addr`'s pool, made on first sight: only a new address costs its
    /// key an owned copy, not every round trip that gives a connection
    /// back.
    fn pool_mut<'a>(&self, pools: &'a mut HashMap<String, Pool>, addr: &str) -> &'a mut Pool {
        if !pools.contains_key(addr) {
            let pool = Pool { idle: Vec::new(), backoff_until: None, backoff: BACKOFF_INITIAL };
            pools.insert(addr.to_string(), pool);
        }
        pools.get_mut(addr).expect("the pool was just made")
    }

    fn take_idle(&self, addr: &str) -> Option<TcpStream> {
        let mut pools = self.pools.lock().expect("pool lock poisoned");
        pools.get_mut(addr).and_then(|pool| pool.idle.pop())
    }

    /// Returns a healthy connection to the pool, bounded by
    /// [`POOL_PER_ADDR`] (excess connections are dropped).
    fn give_back(&self, addr: &str, stream: TcpStream) {
        let mut pools = self.pools.lock().expect("pool lock poisoned");
        let pool = self.pool_mut(&mut pools, addr);
        if pool.idle.len() < POOL_PER_ADDR {
            pool.idle.push(stream);
        }
    }

    fn in_backoff(&self, addr: &str, now: Instant) -> bool {
        let pools = self.pools.lock().expect("pool lock poisoned");
        pools.get(addr).and_then(|pool| pool.backoff_until).is_some_and(|until| now < until)
    }

    /// Charges one connect failure: arms and doubles the backoff window.
    fn charge_backoff(&self, addr: &str, now: Instant) {
        let mut pools = self.pools.lock().expect("pool lock poisoned");
        let pool = self.pool_mut(&mut pools, addr);
        pool.backoff_until = Some(now + pool.backoff);
        pool.backoff = (pool.backoff * 2).min(BACKOFF_MAX);
    }

    fn clear_backoff(&self, addr: &str) {
        let mut pools = self.pools.lock().expect("pool lock poisoned");
        if let Some(pool) = pools.get_mut(addr) {
            pool.backoff_until = None;
            pool.backoff = BACKOFF_INITIAL;
        }
    }

    fn connect(&self, addr: &str, deadline: Instant) -> Result<TcpStream, NetError> {
        let now = self.clock.now();
        let budget = deadline.saturating_duration_since(now).min(CONNECT_TIMEOUT);
        if budget.is_zero() {
            return Err(NetError::Timeout { addr: addr.to_string() });
        }
        let sock_addr: std::net::SocketAddr = addr.parse().map_err(|e| NetError::Unreachable {
            addr: addr.to_string(),
            reason: format!("{e}"),
        })?;
        match TcpStream::connect_timeout(&sock_addr, budget) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                self.clear_backoff(addr);
                Ok(stream)
            }
            Err(e) => {
                self.charge_backoff(addr, self.clock.now());
                Err(NetError::Unreachable { addr: addr.to_string(), reason: e.to_string() })
            }
        }
    }

    /// Writes `frame` on a pooled or fresh connection. A stale pooled
    /// connection (server closed it while idle) falls through to a
    /// fresh connect rather than failing the attempt.
    fn write_frame(
        &self,
        addr: &str,
        frame: &[u8],
        deadline: Instant,
    ) -> Result<TcpStream, NetError> {
        let now = self.clock.now();
        if now >= deadline {
            return Err(NetError::Timeout { addr: addr.to_string() });
        }
        if self.in_backoff(addr, now) {
            return Err(NetError::Unreachable {
                addr: addr.to_string(),
                reason: "reconnect backoff".to_string(),
            });
        }
        if let Some(mut stream) = self.take_idle(addr) {
            if stream.write_all(frame).and_then(|()| stream.flush()).is_ok() {
                return Ok(stream);
            }
        }
        let mut stream = self.connect(addr, deadline)?;
        stream
            .write_all(frame)
            .and_then(|()| stream.flush())
            .map_err(|e| NetError::Io(format!("writing to {addr}: {e}")))?;
        Ok(stream)
    }
}

impl TcpTransport {
    /// A pooled transport on the real clock.
    #[must_use]
    pub fn new(config: TcpConfig) -> TcpTransport {
        TcpTransport {
            inner: Arc::new(TcpInner {
                config,
                clock: ClockHandle::real(),
                pools: Mutex::new(HashMap::new()),
            }),
        }
    }
}

impl Transport for TcpTransport {
    fn begin(&self, addr: &str, frame: Vec<u8>, deadline: Instant) -> Result<InFlight, NetError> {
        let stream = self.inner.write_frame(addr, &frame, deadline)?;
        Ok(InFlight::Tcp(TcpInFlight {
            stream,
            addr: addr.to_string(),
            inner: Arc::clone(&self.inner),
        }))
    }

    fn clock(&self) -> ClockHandle {
        self.inner.clock.clone()
    }
}

impl TcpInFlight {
    fn finish(self, deadline: Instant) -> Result<(Header, Vec<u8>), NetError> {
        let TcpInFlight { mut stream, addr, inner } = self;
        let budget = deadline.saturating_duration_since(inner.clock.now());
        if budget.is_zero() {
            return Err(NetError::Timeout { addr });
        }
        // Every `finish` sets its own timeout, so a pooled connection
        // needs none cleared.
        stream
            .set_read_timeout(Some(budget))
            .map_err(|e| NetError::Io(format!("setting read timeout: {e}")))?;
        match FrameReader::default().read(&mut stream, inner.config.max_payload)? {
            Some(reply) => {
                // Healthy round trip: the connection is reusable.
                inner.give_back(&addr, stream);
                Ok(reply)
            }
            // The budget ran out; the half-read connection is dropped.
            None => Err(NetError::Timeout { addr }),
        }
    }
}
