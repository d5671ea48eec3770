//! Typed message codecs over the raw frame layer: one function pair per
//! protocol exchange, so call sites never touch JSON, id bytes or
//! header fields directly.
//!
//! Requests, errors, counts, weights, metrics, announces and acks are
//! JSON: a human reads them and they are a few hundred bytes.
//! `Response::Samples` is the one payload that grows with the query, and
//! it crosses the wire only as the binary [`Kind::Samples`] frame
//! (layout in [`crate::frame`]).

use iqs_serve::{MetricsSnapshot, Request, Response, ServeError};
use serde::de::Parser;
use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::frame::{begin_frame, encode_frame, Kind};
use crate::registry::{Ack, Announce};

/// Parses a full JSON payload as `T`, requiring the payload to be
/// exactly one value (trailing bytes are refused). This is the one
/// place payload bytes are checked to be UTF-8: the frame layer moves
/// bytes, and every text kind is read through here.
///
/// # Errors
/// [`NetError::Decode`] for bytes that are not UTF-8, or with the
/// parser's diagnostic.
pub fn from_json<T: Deserialize>(payload: &[u8]) -> Result<T, NetError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| NetError::Decode(format!("payload is not UTF-8: {e}")))?;
    let mut p = Parser::new(text);
    let value = T::deserialize_json(&mut p).map_err(|e| NetError::Decode(e.to_string()))?;
    p.expect_eof().map_err(|e| NetError::Decode(e.to_string()))?;
    Ok(value)
}

fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.serialize_json(&mut out);
    out
}

/// Encodes a request frame. `deadline_ns` is the remaining budget the
/// replica should honor (0 = none); `trace`/`span` carry the obs
/// context across the process boundary.
#[must_use]
pub fn encode_request(request: &Request, trace: u64, span: u32, deadline_ns: u64) -> Vec<u8> {
    encode_frame(Kind::Request, trace, span, deadline_ns, to_json(request))
}

/// Bytes ahead of the ids in a [`Kind::Samples`] payload: the width
/// byte and three reserved zeros.
const SAMPLES_PREFIX: usize = 4;

/// Encodes sample ids as a [`Kind::Samples`] frame, written straight
/// into one exactly-sized buffer: 4-byte ids when every id fits a
/// `u32`, 8-byte ids otherwise.
fn encode_samples(ids: &[u64], trace: u64, span: u32) -> Vec<u8> {
    // An OR over all ids has no early exit, so it vectorizes.
    let narrow = ids.iter().fold(0, |acc, &id| acc | id) <= u64::from(u32::MAX);
    let width = if narrow { 4 } else { 8 };
    let mut out = begin_frame(Kind::Samples, trace, span, 0, SAMPLES_PREFIX + width * ids.len());
    out.extend_from_slice(&[width as u8, 0, 0, 0]);
    let body = out.len();
    out.resize(body + width * ids.len(), 0);
    if narrow {
        for (slot, &id) in out[body..].chunks_exact_mut(4).zip(ids) {
            slot.copy_from_slice(&(id as u32).to_le_bytes());
        }
    } else {
        for (slot, &id) in out[body..].chunks_exact_mut(8).zip(ids) {
            slot.copy_from_slice(&id.to_le_bytes());
        }
    }
    out
}

/// Decodes a [`Kind::Samples`] payload; the id count follows from the
/// payload length.
fn decode_samples(payload: &[u8]) -> Result<Vec<u64>, NetError> {
    if payload.len() < SAMPLES_PREFIX {
        return Err(NetError::Decode(format!(
            "samples payload of {} bytes is shorter than its {SAMPLES_PREFIX}-byte prefix",
            payload.len()
        )));
    }
    let (prefix, body) = payload.split_at(SAMPLES_PREFIX);
    if prefix[1..] != [0, 0, 0] {
        return Err(NetError::Decode(format!("samples reserved bytes set: {:?}", &prefix[1..])));
    }
    let width = usize::from(prefix[0]);
    if width != 4 && width != 8 {
        return Err(NetError::Decode(format!("samples id width {width} is neither 4 nor 8")));
    }
    if body.len() % width != 0 {
        return Err(NetError::Decode(format!(
            "samples body of {} bytes is not a whole number of {width}-byte ids",
            body.len()
        )));
    }
    Ok(if width == 4 {
        body.chunks_exact(4)
            .map(|id| u64::from(u32::from_le_bytes(id.try_into().expect("4-byte chunk"))))
            .collect()
    } else {
        body.chunks_exact(8)
            .map(|id| u64::from_le_bytes(id.try_into().expect("8-byte chunk")))
            .collect()
    })
}

/// Encodes a reply frame — [`Kind::Samples`] carrying sample ids as
/// bytes, [`Kind::Ok`] carrying any other [`Response`] or [`Kind::Err`]
/// carrying the [`ServeError`] as JSON — echoing the request's trace
/// and span.
#[must_use]
pub fn encode_reply(outcome: &Result<Response, ServeError>, trace: u64, span: u32) -> Vec<u8> {
    match outcome {
        Ok(Response::Samples(ids)) => encode_samples(ids, trace, span),
        Ok(response) => encode_frame(Kind::Ok, trace, span, 0, to_json(response)),
        Err(error) => encode_frame(Kind::Err, trace, span, 0, to_json(error)),
    }
}

/// Decodes a reply frame by kind: [`Kind::Samples`] and [`Kind::Ok`] →
/// `Ok(Ok(response))`, [`Kind::Err`] → `Ok(Err(serve_error))` — a
/// *successful* decode of a replica-side failure, which the router
/// treats exactly like a local error reply.
///
/// # Errors
/// [`NetError::Decode`] for malformed payloads, a non-reply kind, or
/// sample ids sent as JSON under [`Kind::Ok`] (they have one encoding).
pub fn decode_reply(kind: Kind, payload: &[u8]) -> Result<Result<Response, ServeError>, NetError> {
    match kind {
        Kind::Samples => Ok(Ok(Response::Samples(decode_samples(payload)?))),
        Kind::Ok => match from_json::<Response>(payload)? {
            Response::Samples(_) => {
                Err(NetError::Decode("sample ids must arrive as a Samples frame".to_string()))
            }
            response => Ok(Ok(response)),
        },
        Kind::Err => Ok(Err(from_json::<ServeError>(payload)?)),
        other => Err(NetError::Decode(format!("expected a reply frame, got {other:?}"))),
    }
}

/// Encodes a metrics request (empty payload; the kind says it all).
#[must_use]
pub fn encode_metrics_request() -> Vec<u8> {
    encode_frame(Kind::Metrics, 0, 0, 0, "")
}

/// Encodes a metrics reply carrying the snapshot.
#[must_use]
pub fn encode_metrics_reply(snapshot: &MetricsSnapshot) -> Vec<u8> {
    encode_frame(Kind::Metrics, 0, 0, 0, to_json(snapshot))
}

/// Encodes a registry announcement.
#[must_use]
pub fn encode_announce(announce: &Announce) -> Vec<u8> {
    encode_frame(Kind::Announce, 0, 0, 0, to_json(announce))
}

/// Encodes a registry acknowledgement.
#[must_use]
pub fn encode_ack(ack: &Ack) -> Vec<u8> {
    encode_frame(Kind::Ack, 0, 0, 0, to_json(ack))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, DEFAULT_MAX_PAYLOAD};

    #[test]
    fn request_and_reply_roundtrip() {
        let request = Request::SampleWr {
            index: "shard".into(),
            range: Some((f64::NEG_INFINITY, f64::INFINITY)),
            s: 64,
        };
        let frame = encode_request(&request, 99, 0x0002_0001, 5_000_000);
        let (header, payload) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("frame");
        assert_eq!(header.kind, Kind::Request);
        assert_eq!(header.trace, 99);
        assert_eq!(header.span, 0x0002_0001);
        assert_eq!(header.deadline_ns, 5_000_000);
        assert_eq!(from_json::<Request>(payload).expect("payload"), request);

        for outcome in [
            Ok(Response::Samples(vec![1, 2, 3])),
            Err(ServeError::Overloaded),
            Err(ServeError::Remote("lease expired".into())),
        ] {
            let frame = encode_reply(&outcome, 7, 3);
            let (header, payload) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect("frame");
            assert_eq!(decode_reply(header.kind, payload).expect("reply"), outcome);
        }
    }

    #[test]
    fn trailing_payload_bytes_are_refused() {
        assert!(matches!(from_json::<Response>(b"{\"Count\":3} junk"), Err(NetError::Decode(_))));
        assert!(matches!(decode_reply(Kind::Request, b"{}"), Err(NetError::Decode(_))));
    }
}
