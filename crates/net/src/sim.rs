//! The in-memory simulated network: the same [`Transport`] contract as
//! TCP, on the testkit virtual clock, with injectable link faults.
//!
//! Endpoints are [`FrameHandler`]s bound to string addresses inside one
//! process. A round trip is a direct function call, so a scenario
//! driven from one thread on a [`VirtualClock`](iqs_testkit::VirtualClock)
//! is fully deterministic: two runs under the same seed produce
//! byte-identical traffic, which the chaos suite exploits to diff
//! whole gate reports across runs.
//!
//! Faults are per-destination-address, set at any time:
//! [`LinkFault::Partition`] makes the address unreachable,
//! [`LinkFault::Delay`] stalls delivery on the virtual clock (a delay
//! past the caller's deadline becomes a timeout, mirroring the TCP
//! read-timeout path), and [`LinkFault::Duplicate`] delivers every
//! frame twice — the duplicate's reply is discarded, which is exactly
//! what at-most-once request/reply framing must tolerate.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use iqs_testkit::ClockHandle;

use crate::error::NetError;
use crate::frame::{decode_frame, DEFAULT_MAX_PAYLOAD};
use crate::transport::{FrameHandler, InFlight, Transport};

/// A fault injected on the link *to* one address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// Frames to the address are dropped; calls fail unreachable.
    Partition,
    /// Delivery stalls this long on the clock before the handler runs.
    Delay(Duration),
    /// Every frame is delivered twice; the duplicate reply is dropped.
    Duplicate,
}

iqs_obs::counter_set! {
    /// The fabric's live traffic counters.
    #[derive(Default)]
    struct SimCounters;
    /// Traffic counters, for asserting a scenario exercised what it meant
    /// to (e.g. that duplicates actually flowed).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SimStats;
    laws sim_stats_obey_the_descriptor_laws;
    counters {
        /// Round trips delivered to a handler (duplicates count once).
        delivered: delta;
        /// Duplicate deliveries performed.
        duplicated: delta;
        /// Calls refused by a partition or missing endpoint.
        unreachable: delta;
        /// Calls that timed out under an injected delay.
        timed_out: delta;
    }
}

struct SimState {
    endpoints: HashMap<String, Arc<dyn FrameHandler>>,
    faults: HashMap<String, LinkFault>,
}

struct SimInner {
    clock: ClockHandle,
    state: Mutex<SimState>,
    counters: SimCounters,
}

/// The simulated network; cheap to clone (all clones share one fabric).
/// Bind handlers, inject faults, and hand [`SimNet::transport`] handles
/// to the components under test.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<SimInner>,
}

impl SimNet {
    /// A fabric on the given clock (virtually always a
    /// [`VirtualClock`](iqs_testkit::VirtualClock) handle).
    #[must_use]
    pub fn new(clock: ClockHandle) -> SimNet {
        SimNet {
            inner: Arc::new(SimInner {
                clock,
                state: Mutex::new(SimState { endpoints: HashMap::new(), faults: HashMap::new() }),
                counters: SimCounters::default(),
            }),
        }
    }

    /// Binds `handler` at `addr`, replacing any previous binding.
    pub fn bind(&self, addr: &str, handler: Arc<dyn FrameHandler>) {
        let mut state = self.inner.state.lock().expect("sim lock poisoned");
        state.endpoints.insert(addr.to_string(), handler);
    }

    /// Removes the binding at `addr` — the hard-kill primitive: calls
    /// fail unreachable from this instant, like a dead process.
    pub fn unbind(&self, addr: &str) {
        let mut state = self.inner.state.lock().expect("sim lock poisoned");
        state.endpoints.remove(addr);
    }

    /// Sets or clears (`None`) the fault on the link to `addr`.
    pub fn set_fault(&self, addr: &str, fault: Option<LinkFault>) {
        let mut state = self.inner.state.lock().expect("sim lock poisoned");
        match fault {
            Some(f) => state.faults.insert(addr.to_string(), f),
            None => state.faults.remove(addr),
        };
    }

    /// A transport handle onto this fabric.
    #[must_use]
    pub fn transport(&self) -> Arc<dyn Transport> {
        Arc::new(self.clone())
    }

    /// Current traffic counters.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.inner.counters.snapshot()
    }

    fn round_trip(&self, addr: &str, frame: &[u8], deadline: Instant) -> Result<Vec<u8>, NetError> {
        let (handler, fault) = {
            let state = self.inner.state.lock().expect("sim lock poisoned");
            let fault = state.faults.get(addr).copied();
            if fault == Some(LinkFault::Partition) {
                self.inner.counters.unreachable.fetch_add(1, Ordering::Relaxed);
                return Err(NetError::Unreachable {
                    addr: addr.to_string(),
                    reason: "partitioned".to_string(),
                });
            }
            let Some(handler) = state.endpoints.get(addr).map(Arc::clone) else {
                self.inner.counters.unreachable.fetch_add(1, Ordering::Relaxed);
                return Err(NetError::Unreachable {
                    addr: addr.to_string(),
                    reason: "no endpoint bound".to_string(),
                });
            };
            (handler, fault)
        };
        if let Some(LinkFault::Delay(d)) = fault {
            let budget = deadline.saturating_duration_since(self.inner.clock.now());
            if d > budget {
                // The reply would land past the deadline: burn the
                // budget (the caller really waited) and time out.
                self.inner.clock.sleep(budget);
                self.inner.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                return Err(NetError::Timeout { addr: addr.to_string() });
            }
            self.inner.clock.sleep(d);
        }
        // The fabric is where bytes become a frame, as the socket reader
        // is on TCP: one strict decode, and a malformed frame fails the
        // call instead of reaching the handler.
        let (header, payload) = decode_frame(frame, DEFAULT_MAX_PAYLOAD)?;
        if fault == Some(LinkFault::Duplicate) {
            // First delivery's reply is lost in the fabric; the caller
            // sees the reply to the duplicate. The handler observes the
            // request twice either way, which is the property at-most-
            // once semantics must absorb.
            handler.handle_frame(header, payload);
            self.inner.counters.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.counters.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(handler.handle_frame(header, payload))
    }
}

impl Transport for SimNet {
    fn begin(&self, addr: &str, frame: Vec<u8>, deadline: Instant) -> Result<InFlight, NetError> {
        // Synchronous fabric: the round trip completes here, and the
        // decoded outcome rides in the Ready handle. Submission-time
        // failures (unreachable) surface immediately, as on TCP.
        match self.round_trip(addr, &frame, deadline) {
            Err(e @ NetError::Unreachable { .. }) => Err(e),
            outcome => Ok(InFlight::Ready(Box::new(outcome.and_then(|reply| {
                decode_frame(&reply, DEFAULT_MAX_PAYLOAD)
                    .map(|(header, payload)| (header, payload.to_vec()))
                    .map_err(NetError::from)
            })))),
        }
    }

    fn clock(&self) -> ClockHandle {
        self.inner.clock.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, Header, Kind};
    use iqs_testkit::VirtualClock;

    struct Echo;
    impl FrameHandler for Echo {
        fn handle_frame(&self, header: Header, payload: &[u8]) -> Vec<u8> {
            encode_frame(header.kind, header.trace, header.span, header.deadline_ns, payload)
        }
    }

    #[test]
    fn faults_partition_delay_duplicate() {
        let clock = VirtualClock::new();
        let net = SimNet::new(clock.handle());
        net.bind("sim://a", Arc::new(Echo));
        let transport = net.transport();
        let frame = encode_frame(Kind::Metrics, 1, 2, 0, "");
        let deadline = clock.handle().now() + Duration::from_secs(1);

        let (header, _) = transport.call("sim://a", frame.clone(), deadline).expect("echo");
        assert_eq!(header.trace, 1);
        assert!(matches!(
            transport.call("sim://missing", frame.clone(), deadline),
            Err(NetError::Unreachable { .. })
        ));

        net.set_fault("sim://a", Some(LinkFault::Partition));
        assert!(matches!(
            transport.call("sim://a", frame.clone(), deadline),
            Err(NetError::Unreachable { .. })
        ));

        net.set_fault("sim://a", Some(LinkFault::Delay(Duration::from_secs(5))));
        let before = clock.handle().now();
        let deadline = before + Duration::from_millis(100);
        assert!(matches!(
            transport.call("sim://a", frame.clone(), deadline),
            Err(NetError::Timeout { .. })
        ));
        assert_eq!(clock.handle().now(), deadline, "the budget was really burned");

        net.set_fault("sim://a", Some(LinkFault::Duplicate));
        let deadline = clock.handle().now() + Duration::from_secs(1);
        transport.call("sim://a", frame, deadline).expect("duplicate still answers");
        // A malformed frame never reaches the handler.
        let garbled = transport.call("sim://a", b"IQ garbage".to_vec(), deadline);
        assert!(matches!(garbled, Err(NetError::Frame(_))), "{garbled:?}");
        let stats = net.stats();
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.unreachable, 2);
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.delivered, 2);

        net.unbind("sim://a");
        net.set_fault("sim://a", None);
        let frame = encode_frame(Kind::Metrics, 1, 2, 0, "");
        let deadline = clock.handle().now() + Duration::from_secs(1);
        assert!(matches!(
            transport.call("sim://a", frame, deadline),
            Err(NetError::Unreachable { .. })
        ));
    }
}
