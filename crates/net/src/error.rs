//! Typed failures for the wire format and transports. Every malformed
//! input maps to one of these; nothing in the decode path panics.

use std::fmt;

/// A structural defect in a received frame. The decoder checks the
/// header fields in a fixed order (magic, version, kind, flags, length)
/// so one corrupt byte produces one specific error, which the
/// robustness suite asserts over random corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not the `IQ` magic.
    BadMagic([u8; 2]),
    /// The protocol version byte is not one this build speaks.
    BadVersion(u8),
    /// The kind byte names no known frame kind.
    BadKind(u8),
    /// Reserved flag bits were set; a strict decoder refuses rather
    /// than guessing what a future sender meant.
    ReservedFlags(u32),
    /// The declared payload length exceeds the receiver's limit. Raised
    /// before any payload allocation, so a hostile length field cannot
    /// balloon memory.
    Oversized {
        /// Payload length the header declared.
        declared: u64,
        /// The receiver's configured maximum.
        max: u64,
    },
    /// The buffer ended before the declared frame did.
    Truncated {
        /// Bytes the header requires.
        needed: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// Bytes follow the declared end of the frame. (What is *inside* a
    /// payload is the message layer's to judge: [`NetError::Decode`].)
    BadPayload(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::ReservedFlags(bits) => write!(f, "reserved flag bits set: {bits:#x}"),
            FrameError::Oversized { declared, max } => {
                write!(f, "declared payload of {declared} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated { needed, have } => {
                write!(f, "frame truncated: needed {needed} bytes, have {have}")
            }
            FrameError::BadPayload(detail) => write!(f, "bad frame payload: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A transport-level failure: everything that can go wrong between
/// encoding a request and decoding its reply.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// The received bytes were not a well-formed frame.
    Frame(FrameError),
    /// The frame was well-formed but its payload did not decode as the
    /// expected message type: text that is not UTF-8 or not the JSON
    /// promised, or a malformed binary `Samples` body.
    Decode(String),
    /// An I/O failure on an established connection.
    Io(String),
    /// The peer could not be reached at all (connect refused, no such
    /// endpoint, partitioned, or in reconnect backoff).
    Unreachable {
        /// The address that was unreachable.
        addr: String,
        /// Why (connect error text, "partitioned", "reconnect backoff").
        reason: String,
    },
    /// The deadline expired before the reply arrived.
    Timeout {
        /// The address the attempt was against.
        addr: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::Decode(detail) => write!(f, "payload decode error: {detail}"),
            NetError::Io(detail) => write!(f, "transport I/O error: {detail}"),
            NetError::Unreachable { addr, reason } => write!(f, "{addr} unreachable: {reason}"),
            NetError::Timeout { addr } => write!(f, "deadline expired waiting on {addr}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = NetError::from(FrameError::BadMagic(*b"XX"));
        assert!(e.to_string().contains("magic"));
        assert!(std::error::Error::source(&e).is_some());
        let e = NetError::Timeout { addr: "sim://a".into() };
        assert!(std::error::Error::source(&e).is_none());
        assert!(e.to_string().contains("sim://a"));
        let e = FrameError::Oversized { declared: 1 << 40, max: 1 << 24 };
        assert!(e.to_string().contains("exceeds"));
    }
}
