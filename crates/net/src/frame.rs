//! The wire format: length-prefixed frames with a fixed 32-byte header.
//!
//! ```text
//! offset  size  field
//!      0     2  magic          b"IQ"
//!      2     1  version        3
//!      3     1  kind           Request / Ok / Err / Announce / Ack / Metrics / Samples
//!      4     4  span           u32 LE — obs span (shard/replica encoding)
//!      8     8  trace          u64 LE — obs trace id (0 = untraced)
//!     16     8  deadline_ns    u64 LE — remaining budget, relative (0 = none)
//!     24     4  flags          u32 LE — reserved, must be 0
//!     28     4  payload_len    u32 LE
//!     32     …  payload        `payload_len` bytes, read by kind
//! ```
//!
//! This layer carries the payload as bytes and never looks inside it.
//! Every kind but one is JSON text, which [`msg::from_json`] validates
//! as UTF-8 where it parses it; [`Kind::Samples`] — the only payload
//! whose size grows with the sample count — is binary:
//!
//! ```text
//! offset  size  field
//!      0     1  width          4 or 8 — bytes per id
//!      1     3  reserved       must be 0
//!      4     …  ids            `width` bytes each, LE; count = (payload_len − 4) / width
//! ```
//!
//! The encoder picks width 4 whenever every id fits a `u32`: fixed
//! 8-byte ids would be larger even than decimal text, because ids
//! below 2²⁰ print in at most seven digits.
//!
//! Version 2 is the version in which sample ids travel as
//! [`Kind::Samples`] and never as JSON. Version 3 keeps that layout and
//! changes one payload: a metrics snapshot (a `Metrics` reply) no longer
//! ends in the array of per-caller counter rows version 2 carried, empty
//! in every deployment. Kind byte 7 carried a telemetry batch and is
//! retired: no other frame's bytes changed with it, so the version did
//! not either, and a frame of kind 7 is refused with
//! [`FrameError::BadKind`] like any unregistered kind. A frame of an
//! older version is refused with [`FrameError::BadVersion`], not
//! negotiated with.
//!
//! All integers are little-endian. The deadline crosses the wire as a
//! *relative* budget rather than an absolute instant — the peers share
//! no clock, and a budget survives arbitrary clock skew (the receiver
//! re-anchors it on its own clock at arrival).
//!
//! Decoding is strict and total: every malformed input maps to a typed
//! [`FrameError`], reserved flag bits are refused, and the declared
//! payload length is validated against the receiver's limit *before*
//! any allocation, so a hostile header cannot balloon memory.
//!
//! [`msg::from_json`]: crate::msg::from_json

use std::io::{self, Read};

use crate::error::{FrameError, NetError};

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"IQ";

/// The protocol version this build speaks.
pub const VERSION: u8 = 3;

/// Bytes in the fixed header.
pub const HEADER_LEN: usize = 32;

/// Default per-frame payload limit (16 MiB — a full `max_sample_size`
/// response of 2²⁰ ids is 8 MiB + 4 bytes at width 8, half that at
/// width 4).
pub const DEFAULT_MAX_PAYLOAD: u64 = 16 * 1024 * 1024;

/// How far past the payload bytes that have arrived [`FrameReader`]
/// sizes its buffer on the header's word alone.
const RESERVE_AHEAD: usize = 64 * 1024;

/// What a frame carries; the header's `kind` byte. The payload is JSON
/// text for every kind except [`Kind::Samples`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// A [`Request`](iqs_serve::Request) for the replica to serve.
    Request = 1,
    /// A successful [`Response`](iqs_serve::Response) other than
    /// `Samples`, which travels as [`Kind::Samples`] only.
    Ok = 2,
    /// A [`ServeError`](iqs_serve::ServeError) reply.
    Err = 3,
    /// A registry [`Announce`](crate::Announce).
    Announce = 4,
    /// A registry [`Ack`](crate::Ack).
    Ack = 5,
    /// A metrics request (empty payload) or
    /// [`MetricsSnapshot`](iqs_serve::MetricsSnapshot) reply.
    Metrics = 6,
    // 7 is retired, not reused: it carried telemetry batches.
    /// A successful `Response::Samples`, in the binary width-tagged
    /// layout of the module docs.
    Samples = 8,
}

impl Kind {
    fn from_byte(b: u8) -> Result<Kind, FrameError> {
        match b {
            1 => Ok(Kind::Request),
            2 => Ok(Kind::Ok),
            3 => Ok(Kind::Err),
            4 => Ok(Kind::Announce),
            5 => Ok(Kind::Ack),
            6 => Ok(Kind::Metrics),
            8 => Ok(Kind::Samples),
            other => Err(FrameError::BadKind(other)),
        }
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// What the payload is.
    pub kind: Kind,
    /// Obs trace id, carried across the process boundary (0 = untraced).
    pub trace: u64,
    /// Obs span (the shard/replica encoding), carried with the trace.
    pub span: u32,
    /// Remaining deadline budget in nanoseconds, relative to receipt
    /// (0 = no deadline).
    pub deadline_ns: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
}

/// Starts a frame: the header for a payload of exactly `payload_len`
/// bytes, in a buffer with room for that payload and no more. The
/// caller appends the payload, so a codec can write its bytes straight
/// into the frame.
#[must_use]
pub(crate) fn begin_frame(
    kind: Kind,
    trace: u64,
    span: u32,
    deadline_ns: u64,
    payload_len: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&span.to_le_bytes());
    out.extend_from_slice(&trace.to_le_bytes());
    out.extend_from_slice(&deadline_ns.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags, reserved
    let len = u32::try_from(payload_len).expect("payload length fits u32");
    out.extend_from_slice(&len.to_le_bytes());
    out
}

/// Encodes one frame: header plus payload bytes (a text kind passes
/// its JSON `&str`).
#[must_use]
pub fn encode_frame(
    kind: Kind,
    trace: u64,
    span: u32,
    deadline_ns: u64,
    payload: impl AsRef<[u8]>,
) -> Vec<u8> {
    let payload = payload.as_ref();
    let mut out = begin_frame(kind, trace, span, deadline_ns, payload.len());
    out.extend_from_slice(payload);
    out
}

fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("bounds checked"))
}

fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("bounds checked"))
}

/// Validates and decodes the 32-byte header at the front of `buf`.
///
/// # Errors
/// [`FrameError::Truncated`] when fewer than [`HEADER_LEN`] bytes are
/// present; then magic, version, kind, flags, and the payload-length
/// bound are checked in that order.
pub fn decode_header(buf: &[u8], max_payload: u64) -> Result<Header, FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated { needed: HEADER_LEN as u64, have: buf.len() as u64 });
    }
    let magic = [buf[0], buf[1]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if buf[2] != VERSION {
        return Err(FrameError::BadVersion(buf[2]));
    }
    let kind = Kind::from_byte(buf[3])?;
    let span = le_u32(buf, 4);
    let trace = le_u64(buf, 8);
    let deadline_ns = le_u64(buf, 16);
    let flags = le_u32(buf, 24);
    if flags != 0 {
        return Err(FrameError::ReservedFlags(flags));
    }
    let payload_len = le_u32(buf, 28);
    if u64::from(payload_len) > max_payload {
        return Err(FrameError::Oversized { declared: u64::from(payload_len), max: max_payload });
    }
    Ok(Header { kind, trace, span, deadline_ns, payload_len })
}

/// Decodes one complete frame from `buf`: the validated header plus the
/// payload bytes. `buf` must contain exactly one frame.
///
/// # Errors
/// Everything [`decode_header`] raises, plus [`FrameError::Truncated`]
/// when the buffer is shorter than the declared frame and
/// [`FrameError::BadPayload`] for trailing garbage after the frame.
pub fn decode_frame(buf: &[u8], max_payload: u64) -> Result<(Header, &[u8]), FrameError> {
    let header = decode_header(buf, max_payload)?;
    let total = HEADER_LEN as u64 + u64::from(header.payload_len);
    if (buf.len() as u64) < total {
        return Err(FrameError::Truncated { needed: total, have: buf.len() as u64 });
    }
    if buf.len() as u64 > total {
        return Err(FrameError::BadPayload(format!(
            "{} trailing bytes after the frame",
            buf.len() as u64 - total
        )));
    }
    Ok((header, &buf[HEADER_LEN..]))
}

/// Reads into `buf[*have..]`, advancing `have`, until `buf` is full:
/// `Ok(true)`. `Ok(false)` is a read timeout (`WouldBlock` /
/// `TimedOut`, matched on [`io::ErrorKind`]); what had arrived is
/// counted in `have`, so a later call continues. The stream ending
/// first is an `UnexpectedEof` error.
fn fill(r: &mut impl Read, buf: &mut [u8], have: &mut usize) -> io::Result<bool> {
    while *have < buf.len() {
        match r.read(&mut buf[*have..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => *have += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// A frame being read off a byte stream, resumable across read
/// timeouts: what has arrived stays here, so the next
/// [`FrameReader::read`] continues the *same* frame. A sender that
/// pauses mid-frame for longer than the socket's read timeout must not
/// have the rest of its payload parsed as a header.
#[derive(Default)]
pub(crate) struct FrameReader {
    head: [u8; HEADER_LEN],
    head_have: usize,
    header: Option<Header>,
    /// Sized ahead of the bytes that have arrived, the first
    /// `payload_have` of it.
    payload: Vec<u8>,
    payload_have: usize,
}

impl FrameReader {
    /// Reads until one frame is complete, as [`read_frame`] does, except
    /// that a read timeout is `Ok(None)` — before the first byte or in
    /// the middle of the frame alike; call again to keep going, or drop
    /// the reader to abandon the frame.
    pub(crate) fn read(
        &mut self,
        r: &mut impl Read,
        max_payload: u64,
    ) -> Result<Option<(Header, Vec<u8>)>, NetError> {
        let header = match self.header {
            Some(header) => header,
            None => {
                let full = fill(r, &mut self.head, &mut self.head_have).map_err(|e| {
                    NetError::Io(format!(
                        "connection lost in the frame header, {} of {HEADER_LEN} bytes: {e}",
                        self.head_have
                    ))
                })?;
                if !full {
                    return Ok(None);
                }
                let header = decode_header(&self.head, max_payload)?;
                self.header = Some(header);
                header
            }
        };
        let declared = header.payload_len as usize;
        while self.payload_have < declared {
            self.payload.resize(declared.min(self.payload_have + RESERVE_AHEAD), 0);
            let full = fill(r, &mut self.payload, &mut self.payload_have).map_err(|e| {
                NetError::Io(format!(
                    "connection lost mid-frame, {} of {declared} payload bytes: {e}",
                    self.payload_have
                ))
            })?;
            if !full {
                return Ok(None);
            }
        }
        let frame = std::mem::take(self);
        Ok(Some((header, frame.payload)))
    }
}

/// Reads one frame from a byte stream: the header first, then exactly
/// the declared payload.
///
/// The payload buffer is sized from the header, but never more than
/// 64 KiB past the bytes that have arrived: a 16 KB reply is one
/// `read`, not the dozen a buffer grown from empty makes, while a
/// corrupt-but-in-range length field still cannot make the reader
/// allocate much more than actually arrives.
///
/// # Errors
/// [`NetError::Frame`] for header defects, [`NetError::Io`] for stream
/// failures (including EOF mid-frame, which the caller sees as a
/// connection loss rather than a protocol error, and a read timeout:
/// the transports, whose sockets do time out, keep the partial frame
/// and resume it instead).
pub fn read_frame(r: &mut impl Read, max_payload: u64) -> Result<(Header, Vec<u8>), NetError> {
    FrameReader::default()
        .read(r, max_payload)?
        .ok_or_else(|| NetError::Io("read timed out mid-frame".to_string()))
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// A stream that plays a script: each step is bytes that arrive or
    /// the error a read returns; after the last step, EOF. Writes are
    /// kept, and reads counted, for the test to inspect.
    #[derive(Default)]
    pub(crate) struct Script {
        steps: VecDeque<io::Result<Vec<u8>>>,
        pub(crate) reads: usize,
        pub(crate) written: Vec<u8>,
    }

    impl Script {
        pub(crate) fn then(mut self, bytes: &[u8]) -> Script {
            // An empty step would read as EOF.
            if !bytes.is_empty() {
                self.steps.push_back(Ok(bytes.to_vec()));
            }
            self
        }

        pub(crate) fn then_err(mut self, kind: io::ErrorKind) -> Script {
            self.steps.push_back(Err(kind.into()));
            self
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Ok(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    impl io::Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A read timeout at any byte offset — before the frame, inside the
    /// header, between header and payload, inside the payload — loses
    /// nothing: the next read continues the same frame, and stops at
    /// its end even when the next frame's bytes are already there.
    #[test]
    fn a_timeout_anywhere_resumes_the_same_frame() {
        let frame = encode_frame(Kind::Request, 42, 7, 1_000_000, "{\"x\":1}");
        let next = encode_frame(Kind::Metrics, 0, 0, 0, "");
        for cut in 0..=frame.len() {
            for pause in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
                let mut stream =
                    Script::default().then(&frame[..cut]).then_err(pause).then(&frame[cut..]);
                stream = stream.then(&next);
                let mut reader = FrameReader::default();
                let mut frames = Vec::new();
                let mut timeouts = 0;
                while frames.len() < 2 {
                    match reader.read(&mut stream, DEFAULT_MAX_PAYLOAD).expect("no error") {
                        Some(frame) => frames.push(frame),
                        None => timeouts += 1,
                    }
                }
                assert_eq!(timeouts, 1, "cut at {cut}");
                let (header, payload) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("decode");
                assert_eq!(frames[0], (header, payload.to_vec()), "cut at {cut}");
                assert_eq!(frames[1].0.kind, Kind::Metrics, "cut at {cut}");
            }
        }
        // Any other error kind is a failure, not a pause.
        let mut stream = Script::default().then_err(io::ErrorKind::ConnectionReset);
        let broken = FrameReader::default().read(&mut stream, DEFAULT_MAX_PAYLOAD);
        assert!(matches!(broken, Err(NetError::Io(_))), "{broken:?}");
    }

    /// The payload buffer is sized from the header up to the cap: a
    /// 16 KiB payload that is all there takes one read, and a declared
    /// 10 MB of which two bytes arrive reserves 64 KiB, not 10 MB.
    #[test]
    fn payload_reserve_is_one_read_and_bounded() {
        let frame = encode_frame(Kind::Samples, 0, 0, 0, vec![0u8; 16 * 1024]);
        let mut stream = Script::default().then(&frame);
        let (_, payload) = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD).expect("whole frame");
        assert_eq!(payload.len(), 16 * 1024);
        assert_eq!(stream.reads, 2, "one read for the header, one for the payload");

        let mut frame = encode_frame(Kind::Ok, 0, 0, 0, "[]");
        frame[28..32].copy_from_slice(&10_000_000u32.to_le_bytes());
        let mut reader = FrameReader::default();
        assert!(reader.read(&mut Script::default().then(&frame), DEFAULT_MAX_PAYLOAD).is_err());
        assert_eq!(reader.payload_have, 2);
        assert!(reader.payload.capacity() <= RESERVE_AHEAD, "{}", reader.payload.capacity());
    }

    #[test]
    fn roundtrips_through_bytes_and_streams() {
        let frame = encode_frame(Kind::Request, 42, 7, 1_000_000, "{\"x\":1}");
        let (header, payload) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("decode");
        assert_eq!(header.kind, Kind::Request);
        assert_eq!(header.trace, 42);
        assert_eq!(header.span, 7);
        assert_eq!(header.deadline_ns, 1_000_000);
        assert_eq!(payload, b"{\"x\":1}");
        let mut cursor = std::io::Cursor::new(frame.clone());
        let (h2, p2) = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("stream decode");
        assert_eq!(h2, header);
        assert_eq!(p2, payload);
    }

    #[test]
    fn strict_checks_fire_in_order() {
        let good = encode_frame(Kind::Ok, 0, 0, 0, "[]");
        assert!(matches!(
            decode_header(&good[..10], DEFAULT_MAX_PAYLOAD),
            Err(FrameError::Truncated { .. })
        ));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&bad, DEFAULT_MAX_PAYLOAD), Err(FrameError::BadMagic(_))));
        let mut bad = good.clone();
        bad[2] = 9;
        assert!(matches!(decode_frame(&bad, DEFAULT_MAX_PAYLOAD), Err(FrameError::BadVersion(9))));
        let mut bad = good.clone();
        bad[3] = 0;
        assert!(matches!(decode_frame(&bad, DEFAULT_MAX_PAYLOAD), Err(FrameError::BadKind(0))));
        let mut bad = good.clone();
        bad[24] = 1;
        assert!(matches!(
            decode_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::ReservedFlags(1))
        ));
        // A hostile length field is refused by the header check alone.
        let mut bad = good.clone();
        bad[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_header(&bad, 1024), Err(FrameError::Oversized { .. })));
        // Truncated payloads and trailing garbage are both refused.
        let frame = encode_frame(Kind::Ok, 0, 0, 0, "[1,2,3]");
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 2], DEFAULT_MAX_PAYLOAD),
            Err(FrameError::Truncated { .. })
        ));
        let mut long = frame.clone();
        long.push(b'!');
        assert!(matches!(decode_frame(&long, DEFAULT_MAX_PAYLOAD), Err(FrameError::BadPayload(_))));
    }

    #[test]
    fn stream_reader_reports_eof_mid_frame_as_io() {
        let frame = encode_frame(Kind::Metrics, 1, 2, 3, "{\"a\":true}");
        let mut cursor = std::io::Cursor::new(&frame[..frame.len() - 3]);
        assert!(matches!(read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD), Err(NetError::Io(_))));
    }
}
