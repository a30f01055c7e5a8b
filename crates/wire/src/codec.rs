//! The binary frame codec for the predict hot path.
//!
//! JSON is the wire default and stays fully supported, but profiling showed
//! text encode/decode is a measurable share of per-request cost at
//! single-target sizes: every `f64` is rendered to shortest-round-trip
//! decimal, re-parsed, and carried through an intermediate [`Json`] tree.
//! This module defines `application/x-exa-frame`, a little-endian framed
//! format that puts the raw `f64` bits on the wire — no text round trip at
//! all, so responses are **bit-identical** to in-process
//! [`predict_batch`] by construction.
//!
//! Negotiation happens on the existing `POST /v1/models/{name}/predict`
//! endpoint: a request body with `Content-Type: application/x-exa-frame`
//! is decoded as a [request frame](PredictRequestFrame), and an `Accept`
//! naming the same media type selects a [response
//! frame](PredictResponseFrame). Error responses are always the structured
//! JSON envelope, whatever codec the request used.
//!
//! # Frame layout
//!
//! All multi-byte fields are **little-endian**; coordinate and result
//! arrays are contiguous runs of raw `f64` bits (`f64::to_le_bytes`).
//!
//! Every frame shares an 8-byte preamble: magic, version, flags, a **frame
//! kind** byte at offset 6 (0 = predict, 1 = observe request, 2 = observe
//! response — predict frames predate the kind byte, which is why their kind
//! is the zero the field was reserved as), and a reserved zero byte.
//!
//! **Predict request** (kind `0`, `16 + 16·n` bytes):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 4    | magic `"EXAF"` |
//! | 4  | 1    | version (`1`) |
//! | 5  | 1    | flags — bit 0: request conditional variances |
//! | 6  | 1    | frame kind (`0`) |
//! | 7  | 1    | reserved, must be zero |
//! | 8  | 4    | `n`: number of targets (`u32`) |
//! | 12 | 4    | reserved, must be zero |
//! | 16 | 8·n  | target x coordinates (`f64`) |
//! | 16 + 8·n | 8·n | target y coordinates (`f64`) |
//!
//! **Predict response** (kind `0`, `32 + 8·n` bytes, `+ 8·n` with
//! variances):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 4    | magic `"EXAF"` |
//! | 4  | 1    | version (`1`) |
//! | 5  | 1    | flags — bit 0: variance array present |
//! | 6  | 1    | frame kind (`0`) |
//! | 7  | 1    | reserved, must be zero |
//! | 8  | 4    | `n`: number of answered points (`u32`) |
//! | 12 | 4    | `coalesced_requests` (`u32`) |
//! | 16 | 4    | `batch_points` (`u32`) |
//! | 20 | 4    | reserved, must be zero |
//! | 24 | 8    | `latency_seconds` (`f64`) |
//! | 32 | 8·n  | kriging means (`f64`) |
//! | 32 + 8·n | 8·n | conditional variances (`f64`, iff flag bit 0) |
//!
//! **Observe request** (kind `1`, `16 + 24·n` bytes) — the streaming-ingest
//! write path (`POST /v1/models/{name}/observe`):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8    | preamble (flags must be zero, kind `1`) |
//! | 8  | 4    | `n`: number of observations (`u32`) |
//! | 12 | 4    | reserved, must be zero |
//! | 16 | 8·n  | observation x coordinates (`f64`) |
//! | 16 + 8·n  | 8·n | observation y coordinates (`f64`) |
//! | 16 + 16·n | 8·n | observed values (`f64`) |
//!
//! **Observe response** (kind `2`, exactly `32` bytes):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0  | 8    | preamble (flags must be zero, kind `2`) |
//! | 8  | 4    | `accepted`: points absorbed (`u32`) |
//! | 12 | 4    | `model_points`: observations in the model after (`u32`) |
//! | 16 | 4    | `updates_since_refactor` (`u32`, saturating) |
//! | 20 | 4    | observe flags — bit 0: applied incrementally, bit 1: a background refit was triggered (`u32`) |
//! | 24 | 8    | `latency_seconds` (`f64`) |
//!
//! Decoding is bounds-checked and **zero-copy**: a decoded frame borrows
//! the payload byte ranges from the input buffer and reads individual
//! values on demand with `f64::from_le_bytes` — no intermediate tree, no
//! allocation until the caller asks for a `Vec`. Every structural
//! violation (bad magic, wrong version, non-zero reserved bytes, count not
//! matching the byte length, trailing bytes) is a [`FrameError`] carrying
//! the byte offset, mirroring [`JsonError`]'s contract.
//!
//! [`Json`]: crate::json::Json
//! [`JsonError`]: crate::json::JsonError
//! [`predict_batch`]: exa_geostat::FittedModel::predict_batch

use exa_covariance::Location;

/// The media type negotiating this codec.
pub const FRAME_CONTENT_TYPE: &str = "application/x-exa-frame";
/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"EXAF";
/// The frame format version this build speaks.
pub const VERSION: u8 = 1;
/// Flag bit 0: variances requested (request) / present (response).
pub const FLAG_VARIANCE: u8 = 0b0000_0001;

/// Frame kind (preamble byte 6): a predict request or response.
pub const KIND_PREDICT: u8 = 0;
/// Frame kind: an observe (streaming-ingest) request.
pub const KIND_OBSERVE_REQUEST: u8 = 1;
/// Frame kind: an observe response.
pub const KIND_OBSERVE_RESPONSE: u8 = 2;

/// Observe-response flag bit 0: the batch was absorbed by an incremental
/// Cholesky update (as opposed to a synchronous refit fallback).
pub const OBSERVE_FLAG_INCREMENTAL: u32 = 0b0000_0001;
/// Observe-response flag bit 1: the update crossed the drift policy and a
/// background refactorization was scheduled.
pub const OBSERVE_FLAG_REFIT_TRIGGERED: u32 = 0b0000_0010;

const REQUEST_HEADER_BYTES: usize = 16;
const RESPONSE_HEADER_BYTES: usize = 32;
const OBSERVE_REQUEST_HEADER_BYTES: usize = 16;
const OBSERVE_RESPONSE_BYTES: usize = 32;

/// Which predict codec a request/response travels as.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Codec {
    /// `application/json` — the default, human-readable.
    #[default]
    Json,
    /// `application/x-exa-frame` — raw little-endian `f64` frames.
    Binary,
}

impl Codec {
    /// The media type this codec is negotiated with.
    pub fn content_type(self) -> &'static str {
        match self {
            Codec::Json => "application/json",
            Codec::Binary => FRAME_CONTENT_TYPE,
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Codec::Json => write!(f, "json"),
            Codec::Binary => write!(f, "binary"),
        }
    }
}

/// A frame decode failure: what went wrong and the byte offset it happened
/// at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameError {
    pub offset: usize,
    pub message: String,
}

impl FrameError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        FrameError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid frame at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for FrameError {}

/// Reads the shared 8-byte preamble (magic, version, flags, frame kind,
/// reserved pad), requires the expected frame kind, and returns the flags.
fn check_preamble(bytes: &[u8], what: &str, kind: u8) -> Result<u8, FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::new(
            bytes.len(),
            format!("{what} frame truncated before the 8-byte preamble"),
        ));
    }
    if bytes[..4] != MAGIC {
        return Err(FrameError::new(0, "bad magic (expected \"EXAF\")"));
    }
    if bytes[4] != VERSION {
        return Err(FrameError::new(
            4,
            format!(
                "unsupported frame version {} (expected {VERSION})",
                bytes[4]
            ),
        ));
    }
    let flags = bytes[5];
    let allowed = if kind == KIND_PREDICT {
        FLAG_VARIANCE
    } else {
        0
    };
    if flags & !allowed != 0 {
        return Err(FrameError::new(
            5,
            format!("unknown flag bits {flags:#04x}"),
        ));
    }
    if bytes[6] != kind {
        return Err(FrameError::new(
            6,
            format!(
                "frame kind {} where a {what} (kind {kind}) was expected",
                bytes[6]
            ),
        ));
    }
    if bytes[7] != 0 {
        return Err(FrameError::new(7, "reserved preamble byte must be zero"));
    }
    Ok(flags)
}

fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn read_f64(bytes: &[u8], offset: usize) -> f64 {
    f64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// Iterates a contiguous little-endian `f64` run without copying it first.
fn f64_iter(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|chunk| f64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
}

/// A decoded predict request, borrowing its coordinate arrays from the
/// request body (see the [module docs](self) for the byte layout).
#[derive(Debug)]
pub struct PredictRequestFrame<'a> {
    /// Whether conditional variances were requested (flag bit 0).
    pub variance: bool,
    xs: &'a [u8],
    ys: &'a [u8],
}

impl<'a> PredictRequestFrame<'a> {
    /// Bounds-checked zero-copy decode of one request frame. The body must
    /// be exactly one frame: trailing bytes are an error (the HTTP layer
    /// already framed the body with `Content-Length`).
    pub fn decode(bytes: &'a [u8]) -> Result<Self, FrameError> {
        let flags = check_preamble(bytes, "predict-request", KIND_PREDICT)?;
        if bytes.len() < REQUEST_HEADER_BYTES {
            return Err(FrameError::new(
                bytes.len(),
                "predict-request frame truncated inside the 16-byte header",
            ));
        }
        let count = read_u32(bytes, 8) as usize;
        if read_u32(bytes, 12) != 0 {
            return Err(FrameError::new(12, "reserved header bytes must be zero"));
        }
        let expected = REQUEST_HEADER_BYTES
            .checked_add(count.checked_mul(16).ok_or_else(|| {
                FrameError::new(8, format!("target count {count} overflows the frame size"))
            })?)
            .ok_or_else(|| {
                FrameError::new(8, format!("target count {count} overflows the frame size"))
            })?;
        if bytes.len() != expected {
            return Err(FrameError::new(
                bytes.len().min(expected),
                format!(
                    "frame length {} does not match {expected} bytes implied by {count} targets",
                    bytes.len()
                ),
            ));
        }
        let xs = &bytes[REQUEST_HEADER_BYTES..REQUEST_HEADER_BYTES + 8 * count];
        let ys = &bytes[REQUEST_HEADER_BYTES + 8 * count..];
        Ok(PredictRequestFrame {
            variance: flags & FLAG_VARIANCE != 0,
            xs,
            ys,
        })
    }

    /// Number of targets carried.
    pub fn len(&self) -> usize {
        self.xs.len() / 8
    }

    /// True when the frame carries no targets (the server rejects such
    /// requests as `invalid_query`, exactly like the JSON path).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Copies the coordinate arrays out into the [`Location`] list the
    /// prediction server consumes.
    pub fn to_locations(&self) -> Vec<Location> {
        f64_iter(self.xs)
            .zip(f64_iter(self.ys))
            .map(|(x, y)| Location::new(x, y))
            .collect()
    }
}

/// Encodes one predict request frame into `buf` (cleared first), reusing
/// its allocation across keep-alive requests.
pub fn encode_predict_request_into(buf: &mut Vec<u8>, targets: &[Location], variance: bool) {
    buf.clear();
    buf.reserve(REQUEST_HEADER_BYTES + 16 * targets.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(if variance { FLAG_VARIANCE } else { 0 });
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&(targets.len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0, 0, 0, 0]);
    for t in targets {
        buf.extend_from_slice(&t.x.to_le_bytes());
    }
    for t in targets {
        buf.extend_from_slice(&t.y.to_le_bytes());
    }
}

/// One-shot convenience over [`encode_predict_request_into`].
pub fn encode_predict_request(targets: &[Location], variance: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_predict_request_into(&mut buf, targets, variance);
    buf
}

/// A decoded predict response, borrowing its result arrays from the
/// response body (see the [module docs](self) for the byte layout).
#[derive(Debug)]
pub struct PredictResponseFrame<'a> {
    /// Requests that shared the server-side model call; `exa-wire` servers
    /// always write 1.
    pub coalesced_requests: u32,
    /// Prediction points in that model call; `exa-wire` servers write `n`.
    pub batch_points: u32,
    /// Server-side submit → response latency, seconds.
    pub latency_seconds: f64,
    mean: &'a [u8],
    variance: Option<&'a [u8]>,
}

impl<'a> PredictResponseFrame<'a> {
    /// Bounds-checked zero-copy decode of one response frame.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, FrameError> {
        let flags = check_preamble(bytes, "predict-response", KIND_PREDICT)?;
        if bytes.len() < RESPONSE_HEADER_BYTES {
            return Err(FrameError::new(
                bytes.len(),
                "predict-response frame truncated inside the 32-byte header",
            ));
        }
        let count = read_u32(bytes, 8) as usize;
        let coalesced_requests = read_u32(bytes, 12);
        let batch_points = read_u32(bytes, 16);
        if read_u32(bytes, 20) != 0 {
            return Err(FrameError::new(20, "reserved header bytes must be zero"));
        }
        let latency_seconds = read_f64(bytes, 24);
        let with_variance = flags & FLAG_VARIANCE != 0;
        let arrays = if with_variance { 2 } else { 1 };
        let expected = RESPONSE_HEADER_BYTES
            .checked_add(count.checked_mul(8 * arrays).ok_or_else(|| {
                FrameError::new(8, format!("point count {count} overflows the frame size"))
            })?)
            .ok_or_else(|| {
                FrameError::new(8, format!("point count {count} overflows the frame size"))
            })?;
        if bytes.len() != expected {
            return Err(FrameError::new(
                bytes.len().min(expected),
                format!(
                    "frame length {} does not match {expected} bytes implied by {count} points",
                    bytes.len()
                ),
            ));
        }
        let mean = &bytes[RESPONSE_HEADER_BYTES..RESPONSE_HEADER_BYTES + 8 * count];
        let variance = with_variance.then(|| &bytes[RESPONSE_HEADER_BYTES + 8 * count..]);
        Ok(PredictResponseFrame {
            coalesced_requests,
            batch_points,
            latency_seconds,
            mean,
            variance,
        })
    }

    /// Number of answered points.
    pub fn len(&self) -> usize {
        self.mean.len() / 8
    }

    /// True when the frame answers zero points (never produced by the
    /// server — empty queries are rejected before prediction).
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// The kriging means, copied out of the borrowed payload.
    pub fn mean_vec(&self) -> Vec<f64> {
        f64_iter(self.mean).collect()
    }

    /// The conditional variances when present.
    pub fn variance_vec(&self) -> Option<Vec<f64>> {
        self.variance.map(|bytes| f64_iter(bytes).collect())
    }
}

/// Encodes one predict response frame into `buf` (cleared first). `mean`
/// and `variance` go onto the wire as raw `f64` bits — the bit-identity
/// guarantee needs no further argument than this function.
pub fn encode_predict_response_into(
    buf: &mut Vec<u8>,
    mean: &[f64],
    variance: Option<&[f64]>,
    coalesced_requests: u32,
    batch_points: u32,
    latency_seconds: f64,
) {
    debug_assert!(variance.is_none_or(|v| v.len() == mean.len()));
    buf.clear();
    let arrays = 1 + usize::from(variance.is_some());
    buf.reserve(RESPONSE_HEADER_BYTES + 8 * arrays * mean.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(if variance.is_some() { FLAG_VARIANCE } else { 0 });
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&(mean.len() as u32).to_le_bytes());
    buf.extend_from_slice(&coalesced_requests.to_le_bytes());
    buf.extend_from_slice(&batch_points.to_le_bytes());
    buf.extend_from_slice(&[0, 0, 0, 0]);
    buf.extend_from_slice(&latency_seconds.to_le_bytes());
    for v in mean {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    if let Some(variance) = variance {
        for v in variance {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// One-shot convenience over [`encode_predict_response_into`].
pub fn encode_predict_response(
    mean: &[f64],
    variance: Option<&[f64]>,
    coalesced_requests: u32,
    batch_points: u32,
    latency_seconds: f64,
) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_predict_response_into(
        &mut buf,
        mean,
        variance,
        coalesced_requests,
        batch_points,
        latency_seconds,
    );
    buf
}

/// A decoded observe (streaming-ingest) request, borrowing its coordinate
/// and value arrays from the request body (see the [module docs](self) for
/// the byte layout).
#[derive(Debug)]
pub struct ObserveRequestFrame<'a> {
    xs: &'a [u8],
    ys: &'a [u8],
    values: &'a [u8],
}

impl<'a> ObserveRequestFrame<'a> {
    /// Bounds-checked zero-copy decode of one observe request frame.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, FrameError> {
        check_preamble(bytes, "observe-request", KIND_OBSERVE_REQUEST)?;
        if bytes.len() < OBSERVE_REQUEST_HEADER_BYTES {
            return Err(FrameError::new(
                bytes.len(),
                "observe-request frame truncated inside the 16-byte header",
            ));
        }
        let count = read_u32(bytes, 8) as usize;
        if read_u32(bytes, 12) != 0 {
            return Err(FrameError::new(12, "reserved header bytes must be zero"));
        }
        let expected = OBSERVE_REQUEST_HEADER_BYTES
            .checked_add(count.checked_mul(24).ok_or_else(|| {
                FrameError::new(
                    8,
                    format!("observation count {count} overflows the frame size"),
                )
            })?)
            .ok_or_else(|| {
                FrameError::new(
                    8,
                    format!("observation count {count} overflows the frame size"),
                )
            })?;
        if bytes.len() != expected {
            return Err(FrameError::new(
                bytes.len().min(expected),
                format!(
                    "frame length {} does not match {expected} bytes implied by {count} observations",
                    bytes.len()
                ),
            ));
        }
        let xs = &bytes[OBSERVE_REQUEST_HEADER_BYTES..OBSERVE_REQUEST_HEADER_BYTES + 8 * count];
        let ys = &bytes
            [OBSERVE_REQUEST_HEADER_BYTES + 8 * count..OBSERVE_REQUEST_HEADER_BYTES + 16 * count];
        let values = &bytes[OBSERVE_REQUEST_HEADER_BYTES + 16 * count..];
        Ok(ObserveRequestFrame { xs, ys, values })
    }

    /// Number of observations carried.
    pub fn len(&self) -> usize {
        self.xs.len() / 8
    }

    /// True when the frame carries no observations (rejected by the server
    /// as `invalid_query`, like the JSON path).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Copies the payload out into the location/value lists the ingestion
    /// path consumes.
    pub fn to_points(&self) -> (Vec<Location>, Vec<f64>) {
        let locations = f64_iter(self.xs)
            .zip(f64_iter(self.ys))
            .map(|(x, y)| Location::new(x, y))
            .collect();
        (locations, f64_iter(self.values).collect())
    }
}

/// Encodes one observe request frame into `buf` (cleared first). Panics if
/// `points` and `values` disagree on length — the client validates before
/// it encodes.
pub fn encode_observe_request_into(buf: &mut Vec<u8>, points: &[Location], values: &[f64]) {
    assert_eq!(points.len(), values.len(), "one value per observed point");
    buf.clear();
    buf.reserve(OBSERVE_REQUEST_HEADER_BYTES + 24 * points.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(0);
    buf.push(KIND_OBSERVE_REQUEST);
    buf.push(0);
    buf.extend_from_slice(&(points.len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0, 0, 0, 0]);
    for p in points {
        buf.extend_from_slice(&p.x.to_le_bytes());
    }
    for p in points {
        buf.extend_from_slice(&p.y.to_le_bytes());
    }
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// One-shot convenience over [`encode_observe_request_into`].
pub fn encode_observe_request(points: &[Location], values: &[f64]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_observe_request_into(&mut buf, points, values);
    buf
}

/// A decoded observe response — all scalars, nothing borrowed (see the
/// [module docs](self) for the byte layout).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObserveResponseFrame {
    /// Observation points absorbed by this batch.
    pub accepted: u32,
    /// Observations in the model after the batch.
    pub model_points: u32,
    /// Incremental updates applied since the factor was last rebuilt
    /// (saturating; 0 right after a refit).
    pub updates_since_refactor: u32,
    /// Whether the batch was absorbed incrementally (vs. a sync refit).
    pub used_incremental: bool,
    /// Whether this batch crossed the drift policy and scheduled a
    /// background refactorization.
    pub refit_triggered: bool,
    /// Server-side ingest latency, seconds.
    pub latency_seconds: f64,
}

impl ObserveResponseFrame {
    /// Bounds-checked decode of one observe response frame.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrameError> {
        check_preamble(bytes, "observe-response", KIND_OBSERVE_RESPONSE)?;
        if bytes.len() != OBSERVE_RESPONSE_BYTES {
            return Err(FrameError::new(
                bytes.len().min(OBSERVE_RESPONSE_BYTES),
                format!(
                    "observe-response frame is {} bytes (expected exactly {OBSERVE_RESPONSE_BYTES})",
                    bytes.len()
                ),
            ));
        }
        let observe_flags = read_u32(bytes, 20);
        if observe_flags & !(OBSERVE_FLAG_INCREMENTAL | OBSERVE_FLAG_REFIT_TRIGGERED) != 0 {
            return Err(FrameError::new(
                20,
                format!("unknown observe flag bits {observe_flags:#010x}"),
            ));
        }
        Ok(ObserveResponseFrame {
            accepted: read_u32(bytes, 8),
            model_points: read_u32(bytes, 12),
            updates_since_refactor: read_u32(bytes, 16),
            used_incremental: observe_flags & OBSERVE_FLAG_INCREMENTAL != 0,
            refit_triggered: observe_flags & OBSERVE_FLAG_REFIT_TRIGGERED != 0,
            latency_seconds: read_f64(bytes, 24),
        })
    }

    /// Encodes this response into `buf` (cleared first).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(OBSERVE_RESPONSE_BYTES);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(0);
        buf.push(KIND_OBSERVE_RESPONSE);
        buf.push(0);
        buf.extend_from_slice(&self.accepted.to_le_bytes());
        buf.extend_from_slice(&self.model_points.to_le_bytes());
        buf.extend_from_slice(&self.updates_since_refactor.to_le_bytes());
        let mut flags = 0u32;
        if self.used_incremental {
            flags |= OBSERVE_FLAG_INCREMENTAL;
        }
        if self.refit_triggered {
            flags |= OBSERVE_FLAG_REFIT_TRIGGERED;
        }
        buf.extend_from_slice(&flags.to_le_bytes());
        buf.extend_from_slice(&self.latency_seconds.to_le_bytes());
    }

    /// One-shot convenience over [`ObserveResponseFrame::encode_into`].
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_bit_for_bit() {
        let targets = [
            Location::new(0.25, 0.75),
            Location::new(-0.0, f64::MIN_POSITIVE),
            Location::new(1.7976931348623157e308, 5e-324),
        ];
        for variance in [false, true] {
            let bytes = encode_predict_request(&targets, variance);
            assert_eq!(bytes.len(), 16 + 16 * targets.len());
            let frame = PredictRequestFrame::decode(&bytes).unwrap();
            assert_eq!(frame.variance, variance);
            assert_eq!(frame.len(), targets.len());
            for (orig, got) in targets.iter().zip(frame.to_locations()) {
                assert_eq!(orig.x.to_bits(), got.x.to_bits());
                assert_eq!(orig.y.to_bits(), got.y.to_bits());
            }
        }
    }

    #[test]
    fn response_round_trips_bit_for_bit() {
        let mean = [0.1 + 0.2, -1.0 / 3.0, f64::MAX];
        let variance = [0.5, f64::MIN_POSITIVE, 0.0];
        let bytes = encode_predict_response(&mean, Some(&variance), 4, 12, 0.0021);
        let frame = PredictResponseFrame::decode(&bytes).unwrap();
        assert_eq!(frame.coalesced_requests, 4);
        assert_eq!(frame.batch_points, 12);
        assert_eq!(frame.latency_seconds, 0.0021);
        for (orig, got) in mean.iter().zip(frame.mean_vec()) {
            assert_eq!(orig.to_bits(), got.to_bits());
        }
        for (orig, got) in variance.iter().zip(frame.variance_vec().unwrap()) {
            assert_eq!(orig.to_bits(), got.to_bits());
        }
        let no_var = encode_predict_response(&mean, None, 1, 3, 0.0);
        let frame = PredictResponseFrame::decode(&no_var).unwrap();
        assert!(frame.variance_vec().is_none());
        assert_eq!(frame.len(), 3);
    }

    #[test]
    fn non_finite_payloads_survive_the_frame() {
        // The *codec* is bit-transparent even for NaN/∞ — rejecting
        // non-finite coordinates is the server's job, not the frame's.
        let weird = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let bytes = encode_predict_response(&weird, None, 1, 3, f64::NAN);
        let frame = PredictResponseFrame::decode(&bytes).unwrap();
        for (orig, got) in weird.iter().zip(frame.mean_vec()) {
            assert_eq!(orig.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn malformed_frames_are_rejected_with_offsets() {
        let good = encode_predict_request(&[Location::new(0.5, 0.5)], false);

        // Truncations at every boundary.
        for cut in [0, 3, 7, 12, 15, good.len() - 1] {
            let err = PredictRequestFrame::decode(&good[..cut]).unwrap_err();
            assert!(err.offset <= cut, "cut at {cut}: {err}");
        }
        // Trailing bytes are an error, not silently ignored.
        let mut long = good.clone();
        long.push(0);
        assert!(PredictRequestFrame::decode(&long).is_err());

        // Bad magic / version / flags / reserved bytes.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(PredictRequestFrame::decode(&bad).unwrap_err().offset, 0);
        let mut bad = good.clone();
        bad[4] = 9;
        assert_eq!(PredictRequestFrame::decode(&bad).unwrap_err().offset, 4);
        let mut bad = good.clone();
        bad[5] = 0x80;
        assert_eq!(PredictRequestFrame::decode(&bad).unwrap_err().offset, 5);
        let mut bad = good.clone();
        bad[6] = 1;
        assert_eq!(PredictRequestFrame::decode(&bad).unwrap_err().offset, 6);
        let mut bad = good.clone();
        bad[12] = 1;
        assert_eq!(PredictRequestFrame::decode(&bad).unwrap_err().offset, 12);

        // A count that lies about the payload size (and one that would
        // overflow the size arithmetic) must not panic or over-read.
        let mut lying = good.clone();
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PredictRequestFrame::decode(&lying).is_err());
        let mut lying = good;
        lying[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(PredictRequestFrame::decode(&lying).is_err());

        // Same for responses.
        let good = encode_predict_response(&[1.0], Some(&[2.0]), 1, 1, 0.1);
        for cut in [0, 7, 23, 31, good.len() - 1] {
            assert!(PredictResponseFrame::decode(&good[..cut]).is_err());
        }
        let mut bad = good.clone();
        bad[20] = 7;
        assert_eq!(PredictResponseFrame::decode(&bad).unwrap_err().offset, 20);
        // Claiming variances without carrying them shrinks no bounds check.
        let mut bad = good;
        bad[5] = 0; // drop the flag: length no longer matches
        assert!(PredictResponseFrame::decode(&bad).is_err());
    }

    #[test]
    fn empty_request_frames_decode_but_flag_empty() {
        let bytes = encode_predict_request(&[], true);
        assert_eq!(bytes.len(), 16);
        let frame = PredictRequestFrame::decode(&bytes).unwrap();
        assert!(frame.is_empty());
        assert!(frame.variance);
        assert!(frame.to_locations().is_empty());
    }

    #[test]
    fn observe_request_round_trips_bit_for_bit() {
        let points = [
            Location::new(0.125, -3.5),
            Location::new(f64::MIN_POSITIVE, 1.7976931348623157e308),
        ];
        let values = [0.1 + 0.2, -0.0];
        let bytes = encode_observe_request(&points, &values);
        assert_eq!(bytes.len(), 16 + 24 * points.len());
        assert_eq!(bytes[6], KIND_OBSERVE_REQUEST);
        let frame = ObserveRequestFrame::decode(&bytes).unwrap();
        assert_eq!(frame.len(), 2);
        assert!(!frame.is_empty());
        let (locs, vals) = frame.to_points();
        for (orig, got) in points.iter().zip(&locs) {
            assert_eq!(orig.x.to_bits(), got.x.to_bits());
            assert_eq!(orig.y.to_bits(), got.y.to_bits());
        }
        for (orig, got) in values.iter().zip(&vals) {
            assert_eq!(orig.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn observe_response_round_trips_all_fields() {
        for (incremental, refit) in [(false, false), (true, false), (true, true)] {
            let orig = ObserveResponseFrame {
                accepted: 7,
                model_points: 4103,
                updates_since_refactor: 96,
                used_incremental: incremental,
                refit_triggered: refit,
                latency_seconds: 0.00375,
            };
            let bytes = orig.encode();
            assert_eq!(bytes.len(), 32);
            assert_eq!(bytes[6], KIND_OBSERVE_RESPONSE);
            assert_eq!(ObserveResponseFrame::decode(&bytes).unwrap(), orig);
        }
    }

    #[test]
    fn frame_kinds_do_not_cross_decode() {
        // An observe request is not a predict request, and vice versa —
        // the kind byte at offset 6 keeps the paths apart.
        let observe = encode_observe_request(&[Location::new(0.5, 0.5)], &[1.0]);
        assert_eq!(PredictRequestFrame::decode(&observe).unwrap_err().offset, 6);
        let predict = encode_predict_request(&[Location::new(0.5, 0.5)], false);
        assert_eq!(ObserveRequestFrame::decode(&predict).unwrap_err().offset, 6);
        let response = ObserveResponseFrame {
            accepted: 1,
            model_points: 2,
            updates_since_refactor: 1,
            used_incremental: true,
            refit_triggered: false,
            latency_seconds: 0.0,
        }
        .encode();
        assert_eq!(
            ObserveRequestFrame::decode(&response).unwrap_err().offset,
            6
        );
    }

    #[test]
    fn malformed_observe_frames_are_rejected_with_offsets() {
        let good = encode_observe_request(&[Location::new(0.25, 0.75)], &[0.5]);
        for cut in [0, 3, 7, 12, 15, good.len() - 1] {
            let err = ObserveRequestFrame::decode(&good[..cut]).unwrap_err();
            assert!(err.offset <= cut, "cut at {cut}: {err}");
        }
        let mut long = good.clone();
        long.push(0);
        assert!(ObserveRequestFrame::decode(&long).is_err());
        // Observe requests carry no flags at all.
        let mut bad = good.clone();
        bad[5] = FLAG_VARIANCE;
        assert_eq!(ObserveRequestFrame::decode(&bad).unwrap_err().offset, 5);
        let mut bad = good.clone();
        bad[7] = 1;
        assert_eq!(ObserveRequestFrame::decode(&bad).unwrap_err().offset, 7);
        let mut bad = good.clone();
        bad[12] = 1;
        assert_eq!(ObserveRequestFrame::decode(&bad).unwrap_err().offset, 12);
        let mut lying = good.clone();
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ObserveRequestFrame::decode(&lying).is_err());
        let mut lying = good;
        lying[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert!(ObserveRequestFrame::decode(&lying).is_err());

        let good = ObserveResponseFrame {
            accepted: 1,
            model_points: 2,
            updates_since_refactor: 1,
            used_incremental: true,
            refit_triggered: true,
            latency_seconds: 0.5,
        }
        .encode();
        assert!(ObserveResponseFrame::decode(&good[..31]).is_err());
        let mut long = good.clone();
        long.push(0);
        assert!(ObserveResponseFrame::decode(&long).is_err());
        let mut bad = good;
        bad[20] = 0xf0; // unknown observe flag bits
        assert_eq!(ObserveResponseFrame::decode(&bad).unwrap_err().offset, 20);
    }

    #[test]
    fn empty_observe_request_frames_decode_but_flag_empty() {
        let bytes = encode_observe_request(&[], &[]);
        assert_eq!(bytes.len(), 16);
        let frame = ObserveRequestFrame::decode(&bytes).unwrap();
        assert!(frame.is_empty());
        let (locs, vals) = frame.to_points();
        assert!(locs.is_empty() && vals.is_empty());
    }

    #[test]
    fn codec_labels_and_content_types() {
        assert_eq!(Codec::Json.content_type(), "application/json");
        assert_eq!(Codec::Binary.content_type(), FRAME_CONTENT_TYPE);
        assert_eq!(Codec::Json.to_string(), "json");
        assert_eq!(Codec::Binary.to_string(), "binary");
        assert_eq!(Codec::default(), Codec::Json);
    }
}
