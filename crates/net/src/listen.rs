//! The blocking TCP listener: frames in, handler replies out.
//!
//! One accept thread plus one thread per live connection — plain
//! blocking I/O, matching the serve tier's thread-per-worker design.
//! Connections poll a shared stop flag through short read timeouts, so
//! shutdown needs no signals: set the flag, nudge the accept loop with
//! a self-connection, join. A poll timeout never loses bytes: a frame
//! that has started arriving stays in the connection's [`FrameReader`]
//! and the next wake-up continues it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::NetError;
use crate::frame::FrameReader;
use crate::transport::FrameHandler;

/// How often a connection thread wakes to check the stop flag.
const POLL: Duration = Duration::from_millis(250);

/// A running TCP frame server. Dropping it shuts the listener down and
/// joins every thread.
pub struct TcpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves frames through `handler`.
    ///
    /// # Errors
    /// [`NetError::Io`] when the bind fails.
    pub fn spawn(
        bind: &str,
        handler: Arc<dyn FrameHandler>,
        max_payload: u64,
    ) -> Result<TcpServer, NetError> {
        let listener =
            TcpListener::bind(bind).map_err(|e| NetError::Io(format!("binding {bind}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| NetError::Io(format!("resolving local addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut workers = Vec::new();
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let handler = Arc::clone(&handler);
                let stop = Arc::clone(&accept_stop);
                workers.push(std::thread::spawn(move || {
                    if stream.set_read_timeout(Some(POLL)).is_err() {
                        return;
                    }
                    stream.set_nodelay(true).ok();
                    serve_connection(stream, &*handler, &stop, max_payload);
                }));
            }
            for worker in workers {
                worker.join().ok();
            }
        });
        Ok(TcpServer { addr, stop, accept: Some(accept) })
    }

    /// The bound address (the actual port when bound to `:0`).
    #[must_use]
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Stops accepting, closes every connection, joins all threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Nudge the blocking accept so it observes the flag.
        TcpStream::connect(self.addr).ok();
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's serve loop: read a frame, hand it to the handler,
/// write the reply; repeat until EOF, error, or shutdown. `stream`'s
/// reads time out every [`POLL`] so the stop flag is seen; a timeout —
/// idle or mid-frame — resumes the same read. A malformed *header*
/// desynchronizes the stream, so the connection closes; the client
/// reconnects with framing intact.
fn serve_connection(
    mut stream: impl Read + Write,
    handler: &dyn FrameHandler,
    stop: &AtomicBool,
    max_payload: u64,
) {
    let mut reader = FrameReader::default();
    while !stop.load(Ordering::Acquire) {
        match reader.read(&mut stream, max_payload) {
            Ok(Some((header, payload))) => {
                let reply = handler.handle_frame(header, &payload);
                if stream.write_all(&reply).and_then(|()| stream.flush()).is_err() {
                    return;
                }
            }
            // A poll-interval wake-up; `reader` keeps what has arrived.
            Ok(None) => {}
            // EOF, connection reset, or a corrupt header: close.
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::ErrorKind;

    use super::*;
    use crate::frame::tests::Script;
    use crate::frame::{decode_frame, encode_frame, Header, Kind, DEFAULT_MAX_PAYLOAD, HEADER_LEN};

    struct Echo;
    impl FrameHandler for Echo {
        fn handle_frame(&self, header: Header, payload: &[u8]) -> Vec<u8> {
            encode_frame(header.kind, header.trace, header.span, 0, payload)
        }
    }

    /// A sender that pauses past the poll interval between header and
    /// payload still gets its frame served: the timeout must not drop
    /// the header and parse the payload as the next one.
    #[test]
    fn a_poll_timeout_mid_frame_continues_the_same_frame() {
        let frame = encode_frame(Kind::Request, 9, 3, 0, "{\"a\":[1,2,3]}");
        let mut stream = Script::default()
            .then_err(ErrorKind::WouldBlock) // idle: no frame started
            .then(&frame[..HEADER_LEN])
            .then_err(ErrorKind::WouldBlock)
            .then(&frame[HEADER_LEN..HEADER_LEN + 4])
            .then_err(ErrorKind::TimedOut)
            .then(&frame[HEADER_LEN + 4..]);
        serve_connection(&mut stream, &Echo, &AtomicBool::new(false), DEFAULT_MAX_PAYLOAD);
        let (header, payload) =
            decode_frame(&stream.written, DEFAULT_MAX_PAYLOAD).expect("exactly one reply");
        assert_eq!((header.kind, header.trace, header.span), (Kind::Request, 9, 3));
        assert_eq!(payload, &frame[HEADER_LEN..]);
    }
}
