//! A blocking keep-alive client for the wire protocol.
//!
//! [`WireClient`] owns one TCP connection and reuses it across requests
//! (HTTP/1.1 keep-alive) — the shape the load generator and the benches
//! drive concurrency with: one client per thread, many requests per
//! connection. Typed helpers cover every endpoint; the raw JSON of a
//! response is always reachable through [`WireClient::get_json`].
//!
//! Predict traffic speaks either codec: [`WireClient::set_codec`] switches
//! the connection between JSON bodies and `application/x-exa-frame` binary
//! frames (see [`crate::codec`]); both decode into the same
//! [`WirePrediction`], and error envelopes are JSON either way.

use crate::codec::{self, Codec, ObserveResponseFrame, PredictResponseFrame};
use crate::http::status_reason;
use crate::json::{Json, JsonWriter};
use exa_covariance::Location;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Clone, Debug)]
pub enum WireError {
    /// Socket-level failure (connect, read, write, unexpected close).
    Io(String),
    /// The server spoke something this client could not parse.
    Protocol(String),
    /// A structured error response from the server.
    Api {
        status: u16,
        code: String,
        message: String,
        /// Server-suggested back-off (the `Retry-After` header, seconds) on
        /// refusals such as 503 `overloaded`.
        retry_after: Option<u64>,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "socket error: {msg}"),
            WireError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            WireError::Api {
                status,
                code,
                message,
                ..
            } => {
                write!(f, "{status} {} [{code}]: {message}", status_reason(*status))
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> Self {
        WireError::Io(err.to_string())
    }
}

/// One answered prediction request, decoded.
#[derive(Clone, Debug)]
pub struct WirePrediction {
    /// Kriging means, one per requested target.
    pub mean: Vec<f64>,
    /// Conditional variances when requested.
    pub variance: Option<Vec<f64>>,
    /// Requests that shared the server-side model call; `exa-wire` servers
    /// always send 1.
    pub coalesced_requests: u64,
    /// Prediction points in that model call; `exa-wire` servers send the
    /// length of `mean`.
    pub batch_points: u64,
    /// Server-side submit → response latency, seconds.
    pub latency_seconds: f64,
}

/// One applied observe batch, decoded (either codec).
#[derive(Clone, Copy, Debug)]
pub struct WireObserve {
    /// Observation points absorbed by this batch.
    pub accepted: u64,
    /// Observations in the model after the batch.
    pub model_points: u64,
    /// Incremental updates applied since the factor was last rebuilt.
    pub updates_since_refactor: u64,
    /// Whether the batch was absorbed incrementally (vs. a sync refit).
    pub used_incremental: bool,
    /// Whether this batch crossed the drift policy and scheduled a
    /// background refactorization.
    pub refit_triggered: bool,
    /// Server-side ingest latency, seconds.
    pub latency_seconds: f64,
}

/// One resident model from `GET /v1/models`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireModelInfo {
    pub name: String,
    pub factor_bytes: u64,
}

/// The decoded `GET /v1/models` payload: residency plus the registry's
/// lifetime counters (insertions/evictions make LRU churn observable over
/// the wire).
#[derive(Clone, Debug)]
pub struct WireModels {
    pub models: Vec<WireModelInfo>,
    pub bytes_in_use: u64,
    pub byte_budget: Option<u64>,
    pub insertions: u64,
    pub evictions: u64,
    pub hits: u64,
    pub misses: u64,
}

/// A blocking keep-alive connection to a [`WireServer`](crate::WireServer).
pub struct WireClient {
    stream: TcpStream,
    /// Peer address the stream was dialed to — kept so a stale keep-alive
    /// connection can be transparently redialed.
    peer: SocketAddr,
    /// Dial timeout used at connect time, reused for redials.
    dial_timeout: Option<Duration>,
    /// Whether at least one complete response has been read on the current
    /// stream. Only a *proven* connection is redialed on failure: a dial
    /// that never worked is a real error, not staleness.
    reused: bool,
    /// `ErrorKind` of the most recent socket failure within one attempt —
    /// lets the retry logic tell connection death (EOF/EPIPE/reset) from
    /// timeouts, which must not be retried (the request may be executing).
    last_io_kind: Option<ErrorKind>,
    /// Transparent redials of a stale keep-alive connection.
    reconnects: u64,
    /// Bytes read but not yet consumed (the tail of a previous fill).
    buf: Vec<u8>,
    pos: usize,
    /// Predict codec for this connection (JSON unless switched).
    codec: Codec,
    /// Reusable request-frame scratch for the binary predict path.
    frame_buf: Vec<u8>,
    /// Cached request head for the binary predict path (the head is fully
    /// determined by model name and frame size, which a closed-loop caller
    /// repeats request after request).
    head_cache: String,
    /// `(model, frame_len)` the cached head was built for.
    head_key: (String, usize),
}

impl WireClient {
    /// Connects; requests issued through this client share the one
    /// connection.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient, WireError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, None)
    }

    /// Connects with a dial timeout — a connection pool fronting possibly
    /// dead nodes wants a bounded wait, not the OS connect timeout. The
    /// timeout also governs any transparent redial of this connection.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> Result<WireClient, WireError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Self::from_stream(stream, Some(timeout))
    }

    fn from_stream(
        stream: TcpStream,
        dial_timeout: Option<Duration>,
    ) -> Result<WireClient, WireError> {
        let peer = stream.peer_addr()?;
        Self::prepare(&stream)?;
        Ok(WireClient {
            stream,
            peer,
            dial_timeout,
            reused: false,
            last_io_kind: None,
            reconnects: 0,
            buf: Vec::with_capacity(4096),
            pos: 0,
            codec: Codec::Json,
            frame_buf: Vec::new(),
            head_cache: String::new(),
            head_key: (String::new(), usize::MAX),
        })
    }

    fn prepare(stream: &TcpStream) -> Result<(), WireError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(())
    }

    /// How many times a stale keep-alive connection was transparently
    /// redialed (see [`WireClient::request_raw`]).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The predict codec this connection currently speaks.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Switches predict traffic between JSON and the binary frame codec —
    /// takes effect on the next request, on the same keep-alive connection.
    pub fn set_codec(&mut self, codec: Codec) {
        self.codec = codec;
    }

    /// `POST /v1/models/{name}/predict` for kriging means.
    pub fn predict(
        &mut self,
        model: &str,
        targets: &[Location],
    ) -> Result<WirePrediction, WireError> {
        self.predict_inner(model, targets, false)
    }

    /// `POST /v1/models/{name}/predict` with conditional variances.
    pub fn predict_with_variance(
        &mut self,
        model: &str,
        targets: &[Location],
    ) -> Result<WirePrediction, WireError> {
        self.predict_inner(model, targets, true)
    }

    /// `POST /v1/models/{name}/observe` — streams a batch of observations
    /// into the model over whichever codec the connection speaks.
    pub fn observe(
        &mut self,
        model: &str,
        points: &[Location],
        values: &[f64],
    ) -> Result<WireObserve, WireError> {
        match self.codec {
            Codec::Json => self.observe_json(model, points, values),
            Codec::Binary => self.observe_frame(model, points, values),
        }
    }

    /// `POST /v1/models/{name}/evict` — drops the model from the node's
    /// registry so the next miss reloads it. Returns whether it was
    /// resident.
    pub fn evict(&mut self, model: &str) -> Result<bool, WireError> {
        let path = format!("/v1/models/{model}/evict");
        let (status, retry_after, doc) = self.roundtrip("POST", &path, Some(b"{}"))?;
        let doc = expect_ok(status, retry_after, doc)?;
        doc.get("evicted")
            .and_then(Json::as_bool)
            .ok_or_else(|| protocol("evict response missing \"evicted\""))
    }

    fn observe_json(
        &mut self,
        model: &str,
        points: &[Location],
        values: &[f64],
    ) -> Result<WireObserve, WireError> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("points");
        w.begin_array();
        for p in points {
            w.begin_array();
            w.number(p.x);
            w.number(p.y);
            w.end_array();
        }
        w.end_array();
        w.key("values");
        w.begin_array();
        for v in values {
            w.number(*v);
        }
        w.end_array();
        w.end_object();
        let body = w.finish();
        let path = format!("/v1/models/{model}/observe");
        let (status, retry_after, doc) = self.roundtrip("POST", &path, Some(body.as_bytes()))?;
        let doc = expect_ok(status, retry_after, doc)?;
        Ok(WireObserve {
            accepted: field_u64(&doc, "accepted")?,
            model_points: field_u64(&doc, "model_points")?,
            updates_since_refactor: field_u64(&doc, "updates_since_refactor")?,
            used_incremental: doc
                .get("used_incremental")
                .and_then(Json::as_bool)
                .ok_or_else(|| protocol("observe response missing \"used_incremental\""))?,
            refit_triggered: doc
                .get("refit_triggered")
                .and_then(Json::as_bool)
                .ok_or_else(|| protocol("observe response missing \"refit_triggered\""))?,
            latency_seconds: doc
                .get("latency_seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| protocol("observe response missing \"latency_seconds\""))?,
        })
    }

    fn observe_frame(
        &mut self,
        model: &str,
        points: &[Location],
        values: &[f64],
    ) -> Result<WireObserve, WireError> {
        let frame = codec::encode_observe_request(points, values);
        let path = format!("/v1/models/{model}/observe");
        let response = self.request_raw(
            "POST",
            &path,
            codec::FRAME_CONTENT_TYPE,
            codec::FRAME_CONTENT_TYPE,
            &frame,
        )?;
        if !(200..300).contains(&response.status) {
            return Err(api_error(&response));
        }
        if !response
            .content_type
            .eq_ignore_ascii_case(codec::FRAME_CONTENT_TYPE)
        {
            return Err(protocol(&format!(
                "negotiated a binary observe response but got Content-Type {:?}",
                response.content_type
            )));
        }
        let frame = ObserveResponseFrame::decode(&response.body)
            .map_err(|e| protocol(&format!("undecodable observe response frame: {e}")))?;
        Ok(WireObserve {
            accepted: u64::from(frame.accepted),
            model_points: u64::from(frame.model_points),
            updates_since_refactor: u64::from(frame.updates_since_refactor),
            used_incremental: frame.used_incremental,
            refit_triggered: frame.refit_triggered,
            latency_seconds: frame.latency_seconds,
        })
    }

    /// `GET /v1/models`, decoded.
    pub fn models(&mut self) -> Result<WireModels, WireError> {
        let doc = self.get_json("/v1/models")?;
        let entries = doc
            .get("models")
            .and_then(Json::as_array)
            .ok_or_else(|| protocol("models response missing \"models\" array"))?;
        let mut models = Vec::with_capacity(entries.len());
        for entry in entries {
            models.push(WireModelInfo {
                name: entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| protocol("model entry missing \"name\""))?
                    .to_string(),
                factor_bytes: entry
                    .get("factor_bytes")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| protocol("model entry missing \"factor_bytes\""))?,
            });
        }
        let byte_budget = match doc.get("byte_budget") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| protocol("\"byte_budget\" must be an integer or null"))?,
            ),
        };
        Ok(WireModels {
            models,
            bytes_in_use: field_u64(&doc, "bytes_in_use")?,
            byte_budget,
            insertions: field_u64(&doc, "insertions")?,
            evictions: field_u64(&doc, "evictions")?,
            hits: field_u64(&doc, "hits")?,
            misses: field_u64(&doc, "misses")?,
        })
    }

    /// `GET /v1/stats` as raw JSON (`{"wire": {...}, "serve": {...}}`); the
    /// counter set grows over time, so the client stays schema-agnostic.
    pub fn stats(&mut self) -> Result<Json, WireError> {
        self.get_json("/v1/stats")
    }

    /// `GET /healthz`; `Ok` exactly when the server answers healthy.
    pub fn health(&mut self) -> Result<(), WireError> {
        let doc = self.get_json("/healthz")?;
        match doc.get("status").and_then(Json::as_str) {
            Some("ok") => Ok(()),
            other => Err(protocol(&format!("unexpected health status {other:?}"))),
        }
    }

    /// `GET` any endpoint, returning the decoded JSON body of a `200`.
    pub fn get_json(&mut self, path: &str) -> Result<Json, WireError> {
        let (status, retry_after, doc) = self.roundtrip("GET", path, None)?;
        expect_ok(status, retry_after, doc)
    }

    fn predict_inner(
        &mut self,
        model: &str,
        targets: &[Location],
        variance: bool,
    ) -> Result<WirePrediction, WireError> {
        match self.codec {
            Codec::Json => self.predict_json(model, targets, variance),
            Codec::Binary => self.predict_frame(model, targets, variance),
        }
    }

    /// Binary predict round trip: one `x-exa-frame` request, one
    /// `x-exa-frame` response, raw `f64` bits both ways. Error responses
    /// stay JSON envelopes and decode exactly like the JSON path's.
    fn predict_frame(
        &mut self,
        model: &str,
        targets: &[Location],
        variance: bool,
    ) -> Result<WirePrediction, WireError> {
        let mut frame = std::mem::take(&mut self.frame_buf);
        codec::encode_predict_request_into(&mut frame, targets, variance);
        if self.head_key.0 != model || self.head_key.1 != frame.len() {
            self.head_cache = format!(
                "POST /v1/models/{model}/predict HTTP/1.1\r\nHost: exa-wire\r\nContent-Type: {ct}\r\nAccept: {ct}\r\nContent-Length: {}\r\n\r\n",
                frame.len(),
                ct = codec::FRAME_CONTENT_TYPE,
            );
            self.head_key = (model.to_string(), frame.len());
        }
        let head = std::mem::take(&mut self.head_cache);
        let result = self.send_then_read(head.as_bytes(), &frame);
        self.head_cache = head;
        self.frame_buf = frame;
        let response = result?;
        if !(200..300).contains(&response.status) {
            return Err(api_error(&response));
        }
        if !response
            .content_type
            .eq_ignore_ascii_case(codec::FRAME_CONTENT_TYPE)
        {
            return Err(protocol(&format!(
                "negotiated a binary response but got Content-Type {:?}",
                response.content_type
            )));
        }
        let frame = PredictResponseFrame::decode(&response.body)
            .map_err(|e| protocol(&format!("undecodable response frame: {e}")))?;
        Ok(WirePrediction {
            mean: frame.mean_vec(),
            variance: frame.variance_vec(),
            coalesced_requests: u64::from(frame.coalesced_requests),
            batch_points: u64::from(frame.batch_points),
            latency_seconds: frame.latency_seconds,
        })
    }

    fn predict_json(
        &mut self,
        model: &str,
        targets: &[Location],
        variance: bool,
    ) -> Result<WirePrediction, WireError> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("targets");
        w.begin_array();
        for t in targets {
            w.begin_array();
            w.number(t.x);
            w.number(t.y);
            w.end_array();
        }
        w.end_array();
        if variance {
            w.key("variance");
            w.boolean(true);
        }
        w.end_object();
        let body = w.finish();
        let path = format!("/v1/models/{model}/predict");
        let (status, retry_after, doc) = self.roundtrip("POST", &path, Some(body.as_bytes()))?;
        let doc = expect_ok(status, retry_after, doc)?;
        let mean = doc
            .get("mean")
            .and_then(Json::as_array)
            .ok_or_else(|| protocol("predict response missing \"mean\" array"))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| protocol("non-numeric mean")))
            .collect::<Result<Vec<f64>, WireError>>()?;
        let variance = match doc.get("variance") {
            None => None,
            Some(v) => Some(
                v.as_array()
                    .ok_or_else(|| protocol("\"variance\" must be an array"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or_else(|| protocol("non-numeric variance")))
                    .collect::<Result<Vec<f64>, WireError>>()?,
            ),
        };
        Ok(WirePrediction {
            mean,
            variance,
            coalesced_requests: field_u64(&doc, "coalesced_requests")?,
            batch_points: field_u64(&doc, "batch_points")?,
            latency_seconds: doc
                .get("latency_seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| protocol("predict response missing \"latency_seconds\""))?,
        })
    }

    /// Sends one JSON request and decodes the JSON response off the shared
    /// connection.
    fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<(u16, Option<u64>, Json), WireError> {
        let response = self.request_raw(
            method,
            path,
            "application/json",
            "application/json",
            body.unwrap_or(b""),
        )?;
        let text =
            std::str::from_utf8(&response.body).map_err(|_| protocol("response is not UTF-8"))?;
        let doc =
            Json::parse(text).map_err(|e| protocol(&format!("undecodable response body: {e}")))?;
        Ok((response.status, response.retry_after, doc))
    }

    /// Sends one request and reads one response off the shared connection,
    /// codec-agnostic: the body goes out and comes back verbatim, so a
    /// proxy can forward either predict codec without re-encoding it.
    ///
    /// A keep-alive connection the server closed between requests
    /// (EOF/EPIPE/reset before any response byte) is redialed once,
    /// transparently; [`WireClient::reconnects`] counts those. Failures
    /// after response bytes arrived — and timeouts — are never retried,
    /// because the request may have executed.
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        accept: &str,
        body: &[u8],
    ) -> Result<WireResponse, WireError> {
        self.request_raw_with_headers(method, path, content_type, accept, body, &[])
    }

    /// [`WireClient::request_raw`] with extra request headers — how the
    /// fleet router stamps `x-exa-trace-id` onto relayed predicts. Header
    /// values must be CR/LF-free.
    pub fn request_raw_with_headers(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        accept: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
    ) -> Result<WireResponse, WireError> {
        let mut extra = String::new();
        for (name, value) in extra_headers {
            extra.push_str(name);
            extra.push_str(": ");
            extra.push_str(value);
            extra.push_str("\r\n");
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: exa-wire\r\nContent-Type: {content_type}\r\nAccept: {accept}\r\n{extra}Content-Length: {}\r\n\r\n",
            body.len(),
        );
        self.send_then_read(head.as_bytes(), body)
    }

    /// One framed write (head + body in a single `write_all`) followed by
    /// one response read, with a single transparent redial when a
    /// previously-working keep-alive connection turns out to be dead.
    fn send_then_read(&mut self, head: &[u8], body: &[u8]) -> Result<WireResponse, WireError> {
        let mut message = Vec::with_capacity(head.len() + body.len());
        message.extend_from_slice(head);
        message.extend_from_slice(body);
        match self.attempt(&message) {
            Err(_) if self.stale_death() => {
                self.redial()?;
                self.attempt(&message)
            }
            other => other,
        }
    }

    /// One write + read attempt on the current stream.
    fn attempt(&mut self, message: &[u8]) -> Result<WireResponse, WireError> {
        self.last_io_kind = None;
        self.stream.write_all(message).map_err(|e| {
            self.last_io_kind = Some(e.kind());
            WireError::from(e)
        })?;
        let response = self.read_response()?;
        self.reused = true;
        Ok(response)
    }

    /// Whether the last attempt's failure is safely retryable: the
    /// connection had served a response before (so the server dropping it
    /// between requests is ordinary keep-alive expiry), it died with a
    /// close/reset rather than a timeout, and not a single byte of the
    /// response arrived (so the server cannot have started answering).
    fn stale_death(&self) -> bool {
        self.reused
            && self.buf.is_empty()
            && matches!(
                self.last_io_kind,
                Some(
                    ErrorKind::UnexpectedEof
                        | ErrorKind::BrokenPipe
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::NotConnected
                )
            )
    }

    /// Replaces the dead stream with a fresh dial to the same peer.
    fn redial(&mut self) -> Result<(), WireError> {
        let stream = match self.dial_timeout {
            Some(timeout) => TcpStream::connect_timeout(&self.peer, timeout)?,
            None => TcpStream::connect(self.peer)?,
        };
        Self::prepare(&stream)?;
        self.stream = stream;
        self.reused = false;
        self.buf.clear();
        self.pos = 0;
        self.reconnects += 1;
        Ok(())
    }

    fn read_response(&mut self) -> Result<WireResponse, WireError> {
        // Status line + headers, terminated by a blank line.
        let status = self.with_line(|line| {
            let mut parts = line.split_ascii_whitespace();
            let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
                return Err(protocol(&format!("bad status line {line:?}")));
            };
            if !version.starts_with("HTTP/1.") {
                return Err(protocol(&format!("bad HTTP version {version:?}")));
            }
            code.parse::<u16>()
                .map_err(|_| protocol(&format!("bad status code {code:?}")))
        })?;
        enum Header {
            End,
            Length(usize),
            Type(String),
            Retry(u64),
            Trace(String),
            Other,
        }
        let mut content_length: Option<usize> = None;
        let mut content_type = String::new();
        let mut retry_after: Option<u64> = None;
        let mut trace: Option<String> = None;
        loop {
            let header = self.with_line(|line| {
                if line.is_empty() {
                    return Ok(Header::End);
                }
                if let Some((name, value)) = line.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        return value
                            .trim()
                            .parse()
                            .map(Header::Length)
                            .map_err(|_| protocol("bad Content-Length"));
                    }
                    if name.eq_ignore_ascii_case("content-type") {
                        return Ok(Header::Type(value.trim().to_string()));
                    }
                    if name.eq_ignore_ascii_case("retry-after") {
                        // Seconds form only; a date form is ignored.
                        if let Ok(seconds) = value.trim().parse() {
                            return Ok(Header::Retry(seconds));
                        }
                    }
                    if name.eq_ignore_ascii_case(exa_telemetry::TRACE_HEADER) {
                        return Ok(Header::Trace(value.trim().to_string()));
                    }
                }
                Ok(Header::Other)
            })?;
            match header {
                Header::End => break,
                Header::Length(length) => content_length = Some(length),
                Header::Type(value) => content_type = value,
                Header::Retry(seconds) => retry_after = Some(seconds),
                Header::Trace(value) => trace = Some(value),
                Header::Other => {}
            }
        }
        let length = content_length.ok_or_else(|| protocol("response missing Content-Length"))?;
        let body = self.read_exact_bytes(length)?;
        Ok(WireResponse {
            status,
            content_type,
            body,
            retry_after,
            trace,
        })
    }

    /// Reads one CRLF/LF-terminated preamble line in place and hands it to
    /// `take` — no per-line `String` on the hot path.
    fn with_line<T>(
        &mut self,
        take: impl FnOnce(&str) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let raw = &self.buf[self.pos..self.pos + nl];
                let line = std::str::from_utf8(raw)
                    .map_err(|_| protocol("response preamble is not UTF-8"))?
                    .trim_end_matches('\r');
                let value = take(line)?;
                self.pos += nl + 1;
                return Ok(value);
            }
            self.fill()?;
        }
    }

    fn read_exact_bytes(&mut self, length: usize) -> Result<Vec<u8>, WireError> {
        while self.buf.len() - self.pos < length {
            self.fill()?;
        }
        let body = self.buf[self.pos..self.pos + length].to_vec();
        self.pos += length;
        // Keep the scratch buffer bounded across many keep-alive requests.
        self.buf.drain(..self.pos);
        self.pos = 0;
        Ok(body)
    }

    fn fill(&mut self) -> Result<(), WireError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                self.last_io_kind = Some(ErrorKind::UnexpectedEof);
                Err(WireError::Io("server closed the connection".into()))
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => {
                self.last_io_kind = Some(e.kind());
                Err(e.into())
            }
        }
    }
}

/// One undecoded response off the wire — what [`WireClient::request_raw`]
/// returns: status, `Content-Type` and the body bytes exactly as sent, so a
/// router can relay them without touching the codec.
#[derive(Clone, Debug)]
pub struct WireResponse {
    pub status: u16,
    /// `Content-Type` value, parameters included, possibly empty.
    pub content_type: String,
    pub body: Vec<u8>,
    /// `Retry-After` header (seconds form) when the server sent one.
    pub retry_after: Option<u64>,
    /// `x-exa-trace-id` header when the server echoed one — the request's
    /// cross-node trace id, as served.
    pub trace: Option<String>,
}

fn protocol(message: &str) -> WireError {
    WireError::Protocol(message.to_string())
}

/// Decodes the JSON error envelope of a non-2xx response (error bodies are
/// JSON under either predict codec).
fn api_error(response: &WireResponse) -> WireError {
    let doc = std::str::from_utf8(&response.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .unwrap_or(Json::Null);
    match expect_ok(response.status, response.retry_after, doc) {
        Err(err) => err,
        Ok(_) => protocol("api_error called on a success status"),
    }
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, WireError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| protocol(&format!("response missing numeric {key:?}")))
}

/// `200` passes the document through; anything else becomes a structured
/// [`WireError::Api`] (decoding the server's error envelope when present).
fn expect_ok(status: u16, retry_after: Option<u64>, doc: Json) -> Result<Json, WireError> {
    if (200..300).contains(&status) {
        return Ok(doc);
    }
    let (code, message) = match doc.get("error") {
        Some(err) => (
            err.get("code")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            err.get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        ),
        None => ("unknown".to_string(), String::new()),
    };
    Err(WireError::Api {
        status,
        code,
        message,
        retry_after,
    })
}
