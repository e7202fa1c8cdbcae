//! The gateway wire protocol: a tiny length-prefixed binary framing.
//!
//! Everything is little-endian. A client speaks two message kinds:
//!
//! ```text
//! request  := magic "BCP1" (u32) | version (u8) | tenant (u32)
//!           | request_id (u64)   | deadline_ms (u32, 0 = server default)
//!           | channels (u8) | height (u16) | width (u16)
//!           | payload_len (u32)  | payload (payload_len bytes, f32 LE)
//! metrics  := magic "BCPM" (u32) | version (u8)
//! ```
//!
//! and the server answers a request with a fixed 16-byte response
//! (`magic "BCPR" | version | request_id | status | class | shard`) and a
//! metrics message with `len (u32) | Registry::render_text bytes`.
//!
//! The codec is a pure function over byte slices so the proptest suite can
//! hammer it with truncations and garbage without sockets. Decoding NEVER
//! panics and NEVER allocates before the length prefix has been validated
//! against [`MAX_PAYLOAD`] and against the shape the header claims — an
//! attacker-controlled `payload_len` can cost at most one bounded read.

use bcp_serve::ServeError;
use bcp_tensor::{Shape, Tensor};

/// Magic prefix of a classification request ("BCP1" as LE bytes).
pub const REQUEST_MAGIC: u32 = u32::from_le_bytes(*b"BCP1");
/// Magic prefix of a response frame ("BCPR").
pub const RESPONSE_MAGIC: u32 = u32::from_le_bytes(*b"BCPR");
/// Magic prefix of a metrics-dump request ("BCPM").
pub const METRICS_MAGIC: u32 = u32::from_le_bytes(*b"BCPM");

/// The one protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Fixed size of a request header, up to and including `payload_len`.
pub const REQUEST_HEADER_LEN: usize = 30;
/// Fixed size of a metrics-dump request.
pub const METRICS_REQUEST_LEN: usize = 5;
/// Fixed size of a response frame.
pub const RESPONSE_LEN: usize = 16;

/// Hard cap on a request payload. 4 MiB is ~1M f32 pixels — two orders
/// of magnitude above the 3×32×32 frames BinaryCoP classifies — so real
/// clients never hit it while a hostile length prefix cannot drive an
/// unbounded allocation.
pub const MAX_PAYLOAD: u32 = 4 * 1024 * 1024;

/// Typed decode failure. `Truncated` is retryable by reading more bytes;
/// every other variant is a protocol violation worth closing the
/// connection over (after answering [`Status::BadRequest`] if possible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the message does.
    Truncated { needed: usize, got: usize },
    /// First four bytes are neither "BCP1" nor "BCPM".
    BadMagic { got: u32 },
    /// Version byte this build does not speak.
    UnsupportedVersion { got: u8 },
    /// `payload_len` exceeds [`MAX_PAYLOAD`].
    Oversize { len: u32, max: u32 },
    /// `payload_len` disagrees with `channels × height × width × 4`.
    LengthMismatch { expect: u64, got: u32 },
    /// A declared dimension is zero — there is no frame to classify.
    EmptyFrame,
    /// Response status byte outside the known [`Status`] range.
    BadStatus { got: u8 },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated message: need {needed} bytes, have {got}")
            }
            DecodeError::BadMagic { got } => write!(f, "bad magic {got:#010x}"),
            DecodeError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build: {VERSION})"
                )
            }
            DecodeError::Oversize { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            DecodeError::LengthMismatch { expect, got } => {
                write!(f, "payload length {got} != shape-implied {expect}")
            }
            DecodeError::EmptyFrame => write!(f, "frame has a zero dimension"),
            DecodeError::BadStatus { got } => write!(f, "unknown response status {got}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Response status byte. `Ok` carries a valid class; everything else
/// explains which stage refused the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Classified; `class` holds the label.
    Ok = 0,
    /// Tenant exceeded its token-bucket rate; retry after a refill.
    Throttled = 1,
    /// Tenant spent its absolute request quota; no retry will help.
    QuotaExhausted = 2,
    /// Every shard's admission queue was full under `Reject`.
    Rejected = 3,
    /// The request was shed by `ShedOldest` on every shard tried.
    Shed = 4,
    /// The deadline budget expired before a shard produced an answer.
    DeadlineExpired = 5,
    /// No shard was healthy enough to accept the request.
    NoHealthyShard = 6,
    /// A worker faulted mid-batch and failover could not complete in
    /// budget.
    WorkerFault = 7,
    /// The gateway (or every shard) is draining for shutdown.
    ShuttingDown = 8,
    /// The request itself was malformed.
    BadRequest = 9,
}

impl Status {
    /// All statuses, in wire order — handy for tallying benches.
    pub const ALL: [Status; 10] = [
        Status::Ok,
        Status::Throttled,
        Status::QuotaExhausted,
        Status::Rejected,
        Status::Shed,
        Status::DeadlineExpired,
        Status::NoHealthyShard,
        Status::WorkerFault,
        Status::ShuttingDown,
        Status::BadRequest,
    ];

    /// Wire byte for this status.
    pub fn to_u8(self) -> u8 {
        // audit: allow(cast): unit-only enum with discriminants 0..=9;
        // `as u8` is lossless by construction.
        self as u8
    }

    /// Parse a wire byte back into a status.
    pub fn from_u8(b: u8) -> Result<Status, DecodeError> {
        Status::ALL
            .get(b as usize)
            .copied()
            .ok_or(DecodeError::BadStatus { got: b })
    }

    /// Short lowercase name, used as a telemetry/tally key.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Throttled => "throttled",
            Status::QuotaExhausted => "quota_exhausted",
            Status::Rejected => "rejected",
            Status::Shed => "shed",
            Status::DeadlineExpired => "deadline_expired",
            Status::NoHealthyShard => "no_healthy_shard",
            Status::WorkerFault => "worker_fault",
            Status::ShuttingDown => "shutting_down",
            Status::BadRequest => "bad_request",
        }
    }

    /// Map an engine-side refusal onto the wire. `None` of the engine's
    /// errors are invisible to clients: each refusal names its stage.
    pub fn from_serve_error(e: &ServeError) -> Status {
        match e {
            ServeError::Rejected => Status::Rejected,
            ServeError::Shed => Status::Shed,
            ServeError::DeadlineExpired => Status::DeadlineExpired,
            ServeError::WorkerFault { .. } => Status::WorkerFault,
            ServeError::NoHealthyWorkers => Status::NoHealthyShard,
            ServeError::ShuttingDown => Status::ShuttingDown,
            ServeError::BadFrame => Status::BadRequest,
        }
    }
}

/// A decoded classification request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Tenant this request bills against (token bucket + quota).
    pub tenant: u32,
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    /// Remaining deadline budget in milliseconds; 0 means "server
    /// default". The budget covers queueing, compute AND failover
    /// retries.
    pub deadline_ms: u32,
    /// Frame shape.
    pub channels: u8,
    /// Frame shape.
    pub height: u16,
    /// Frame shape.
    pub width: u16,
    /// Row-major pixels, `channels × height × width` of them.
    pub pixels: Vec<f32>,
}

impl RequestFrame {
    /// Build a request from a tensor (client side).
    pub fn from_tensor(tenant: u32, request_id: u64, deadline_ms: u32, frame: &Tensor) -> Self {
        let dims = frame.shape().dims().to_vec();
        let (c, h, w) = match dims.as_slice() {
            [c, h, w] => (*c, *h, *w),
            _ => (1, 1, frame.as_slice().len()),
        };
        RequestFrame {
            tenant,
            request_id,
            deadline_ms,
            channels: c.min(u8::MAX as usize) as u8,
            height: h.min(u16::MAX as usize) as u16,
            width: w.min(u16::MAX as usize) as u16,
            pixels: frame.as_slice().to_vec(),
        }
    }

    /// Reassemble the tensor (server side). `decode_message` has already
    /// enforced `pixels.len() == channels·height·width`, so the panic in
    /// `Tensor::from_vec` is unreachable for wire-decoded frames.
    pub fn pixel_tensor(&self) -> Tensor {
        Tensor::from_vec(
            Shape::d3(
                self.channels as usize,
                self.height as usize,
                self.width as usize,
            ),
            // audit: allow(alloc): the engine needs an owned pixel buffer
            // per request; one bounded (≤ MAX_PAYLOAD) copy.
            self.pixels.clone(),
        )
    }

    /// Payload length this frame will declare on the wire.
    pub fn payload_len(&self) -> usize {
        self.pixels.len().saturating_mul(4)
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id.
    pub request_id: u64,
    /// What happened.
    pub status: Status,
    /// Class label when `status == Ok`, else 0.
    pub class: u8,
    /// Which shard answered (or last refused).
    pub shard: u8,
}

/// Any client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Classify a frame.
    Request(RequestFrame),
    /// Dump the telemetry registry as text.
    MetricsDump,
}

fn le_u16(buf: &[u8], at: usize) -> u16 {
    let mut b = [0u8; 2];
    // audit: allow(index): callers index only after an explicit
    // `buf.len() >= needed` check; a miss is a decoder bug, not input.
    b.copy_from_slice(&buf[at..at.saturating_add(2)]);
    u16::from_le_bytes(b)
}

fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    // audit: allow(index): callers index only after an explicit
    // `buf.len() >= needed` check; a miss is a decoder bug, not input.
    b.copy_from_slice(&buf[at..at.saturating_add(4)]);
    u32::from_le_bytes(b)
}

fn le_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    // audit: allow(index): callers index only after an explicit
    // `buf.len() >= needed` check; a miss is a decoder bug, not input.
    b.copy_from_slice(&buf[at..at.saturating_add(8)]);
    u64::from_le_bytes(b)
}

/// Encode a classification request.
pub fn encode_request(req: &RequestFrame) -> Vec<u8> {
    let payload_len = req.payload_len();
    let mut out = Vec::with_capacity(REQUEST_HEADER_LEN.saturating_add(payload_len));
    out.extend_from_slice(&REQUEST_MAGIC.to_le_bytes());
    out.push(VERSION);
    out.extend_from_slice(&req.tenant.to_le_bytes());
    out.extend_from_slice(&req.request_id.to_le_bytes());
    out.extend_from_slice(&req.deadline_ms.to_le_bytes());
    out.push(req.channels);
    out.extend_from_slice(&req.height.to_le_bytes());
    out.extend_from_slice(&req.width.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    for px in &req.pixels {
        out.extend_from_slice(&px.to_le_bytes());
    }
    out
}

/// Encode a metrics-dump request.
pub fn encode_metrics_request() -> [u8; METRICS_REQUEST_LEN] {
    let m = METRICS_MAGIC.to_le_bytes();
    [m[0], m[1], m[2], m[3], VERSION]
}

/// Encode a response frame.
pub fn encode_response(resp: &ResponseFrame) -> [u8; RESPONSE_LEN] {
    let mut out = [0u8; RESPONSE_LEN];
    // audit: allow(index): fixed offsets into a [u8; RESPONSE_LEN] array.
    out[0..4].copy_from_slice(&RESPONSE_MAGIC.to_le_bytes());
    // audit: allow(index): fixed offsets into a [u8; RESPONSE_LEN] array.
    out[4] = VERSION;
    // audit: allow(index): fixed offsets into a [u8; RESPONSE_LEN] array.
    out[5..13].copy_from_slice(&resp.request_id.to_le_bytes());
    // audit: allow(index): fixed offsets into a [u8; RESPONSE_LEN] array.
    out[13] = resp.status.to_u8();
    // audit: allow(index): fixed offsets into a [u8; RESPONSE_LEN] array.
    out[14] = resp.class;
    // audit: allow(index): fixed offsets into a [u8; RESPONSE_LEN] array.
    out[15] = resp.shard;
    out
}

/// Validate a request header's declared payload length against its
/// declared shape, BEFORE any allocation. Returns the payload length in
/// bytes. This is the choke point that keeps hostile length prefixes
/// harmless: `Oversize` fires before `LengthMismatch`, and both fire
/// before a single payload byte is buffered.
pub fn validate_header(
    channels: u8,
    height: u16,
    width: u16,
    payload_len: u32,
) -> Result<usize, DecodeError> {
    if payload_len > MAX_PAYLOAD {
        return Err(DecodeError::Oversize {
            len: payload_len,
            max: MAX_PAYLOAD,
        });
    }
    if channels == 0 || height == 0 || width == 0 {
        return Err(DecodeError::EmptyFrame);
    }
    let expect = (channels as u64)
        .saturating_mul(height as u64)
        .saturating_mul(width as u64)
        .saturating_mul(4);
    if expect != payload_len as u64 {
        return Err(DecodeError::LengthMismatch {
            expect,
            got: payload_len,
        });
    }
    Ok(payload_len as usize)
}

/// Decode one message from the front of `buf`. On success returns the
/// message and the number of bytes it consumed (so a buffered reader can
/// advance). `Truncated` means "read more and retry"; anything else is
/// fatal for the connection.
pub fn decode_message(buf: &[u8]) -> Result<(Message, usize), DecodeError> {
    if buf.len() < 4 {
        return Err(DecodeError::Truncated {
            needed: 4,
            got: buf.len(),
        });
    }
    let magic = le_u32(buf, 0);
    if magic == METRICS_MAGIC {
        if buf.len() < METRICS_REQUEST_LEN {
            return Err(DecodeError::Truncated {
                needed: METRICS_REQUEST_LEN,
                got: buf.len(),
            });
        }
        // audit: allow(index): guarded by the length check above.
        if buf[4] != VERSION {
            // audit: allow(index): same guarded offset.
            return Err(DecodeError::UnsupportedVersion { got: buf[4] });
        }
        return Ok((Message::MetricsDump, METRICS_REQUEST_LEN));
    }
    if magic != REQUEST_MAGIC {
        return Err(DecodeError::BadMagic { got: magic });
    }
    if buf.len() < REQUEST_HEADER_LEN {
        return Err(DecodeError::Truncated {
            needed: REQUEST_HEADER_LEN,
            got: buf.len(),
        });
    }
    // audit: allow(index): guarded by the REQUEST_HEADER_LEN check above.
    if buf[4] != VERSION {
        // audit: allow(index): same guarded offset.
        return Err(DecodeError::UnsupportedVersion { got: buf[4] });
    }
    let tenant = le_u32(buf, 5);
    let request_id = le_u64(buf, 9);
    let deadline_ms = le_u32(buf, 17);
    // audit: allow(index): guarded by the REQUEST_HEADER_LEN check above.
    let channels = buf[21];
    let height = le_u16(buf, 22);
    let width = le_u16(buf, 24);
    let payload_len = le_u32(buf, 26);
    let payload = validate_header(channels, height, width, payload_len)?;
    let total = REQUEST_HEADER_LEN.saturating_add(payload);
    if buf.len() < total {
        return Err(DecodeError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    // Only now — header fully validated — do we allocate, and at most
    // MAX_PAYLOAD/4 floats.
    // audit: allow(alloc): capacity bounded by validate_header ≤ MAX_PAYLOAD/4.
    let mut pixels = Vec::with_capacity(payload / 4);
    let mut at = REQUEST_HEADER_LEN;
    while at < total {
        // audit: allow(alloc): push into the pre-sized, bounded vector.
        pixels.push(f32::from_le_bytes([
            // audit: allow(index): `at + 3 < total ≤ buf.len()` — checked above.
            buf[at],
            // audit: allow(index): same bound.
            buf[at.saturating_add(1)],
            // audit: allow(index): same bound.
            buf[at.saturating_add(2)],
            // audit: allow(index): same bound.
            buf[at.saturating_add(3)],
        ]));
        at = at.saturating_add(4);
    }
    Ok((
        Message::Request(RequestFrame {
            tenant,
            request_id,
            deadline_ms,
            channels,
            height,
            width,
            pixels,
        }),
        total,
    ))
}

/// Decode a 16-byte response frame.
pub fn decode_response(buf: &[u8]) -> Result<ResponseFrame, DecodeError> {
    if buf.len() < RESPONSE_LEN {
        return Err(DecodeError::Truncated {
            needed: RESPONSE_LEN,
            got: buf.len(),
        });
    }
    let magic = le_u32(buf, 0);
    if magic != RESPONSE_MAGIC {
        return Err(DecodeError::BadMagic { got: magic });
    }
    if buf[4] != VERSION {
        return Err(DecodeError::UnsupportedVersion { got: buf[4] });
    }
    Ok(ResponseFrame {
        request_id: le_u64(buf, 5),
        status: Status::from_u8(buf[13])?,
        class: buf[14],
        shard: buf[15],
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use bcp_serve::canary_frame;

    fn sample() -> RequestFrame {
        RequestFrame::from_tensor(7, 42, 250, &canary_frame(3, 8, 8))
    }

    #[test]
    fn request_round_trips() {
        let req = sample();
        let bytes = encode_request(&req);
        let (msg, used) = decode_message(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(msg, Message::Request(req));
    }

    #[test]
    fn response_round_trips_every_status() {
        for (i, status) in Status::ALL.into_iter().enumerate() {
            let resp = ResponseFrame {
                request_id: 0xdead_beef_0000 + i as u64,
                status,
                class: (i % 4) as u8,
                shard: i as u8,
            };
            assert_eq!(decode_response(&encode_response(&resp)), Ok(resp));
            assert_eq!(Status::from_u8(status.to_u8()), Ok(status));
        }
        assert!(matches!(
            Status::from_u8(10),
            Err(DecodeError::BadStatus { got: 10 })
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_prefix_length() {
        let bytes = encode_request(&sample());
        for cut in 0..bytes.len() {
            match decode_message(&bytes[..cut]) {
                Err(DecodeError::Truncated { needed, got }) => {
                    assert_eq!(got, cut);
                    assert!(needed > cut);
                }
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_allocation() {
        let mut bytes = encode_request(&sample());
        bytes[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_message(&bytes),
            Err(DecodeError::Oversize {
                len: u32::MAX,
                max: MAX_PAYLOAD
            })
        );
    }

    #[test]
    fn shape_length_disagreement_is_rejected() {
        let mut bytes = encode_request(&sample());
        let lied = 3 * 8 * 8 * 4 + 4;
        bytes[26..30].copy_from_slice(&(lied as u32).to_le_bytes());
        assert_eq!(
            decode_message(&bytes),
            Err(DecodeError::LengthMismatch {
                expect: 3 * 8 * 8 * 4,
                got: lied as u32,
            })
        );
    }

    #[test]
    fn zero_dimension_is_rejected() {
        let mut bytes = encode_request(&sample());
        bytes[21] = 0;
        assert_eq!(decode_message(&bytes), Err(DecodeError::EmptyFrame));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = encode_request(&sample());
        bytes[4] = 9;
        assert_eq!(
            decode_message(&bytes),
            Err(DecodeError::UnsupportedVersion { got: 9 })
        );
        let garbage = [0x55u8; 64];
        assert!(matches!(
            decode_message(&garbage),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn metrics_request_decodes() {
        let bytes = encode_metrics_request();
        assert_eq!(
            decode_message(&bytes),
            Ok((Message::MetricsDump, METRICS_REQUEST_LEN))
        );
    }

    #[test]
    fn tensor_round_trip_preserves_pixels() {
        let t = canary_frame(3, 5, 9);
        let req = RequestFrame::from_tensor(1, 2, 3, &t);
        let back = req.pixel_tensor();
        assert_eq!(back.shape().dims(), t.shape().dims());
        assert_eq!(back.as_slice(), t.as_slice());
    }
}
