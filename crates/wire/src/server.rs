//! The TCP front-end: readiness reactor, connection state machine, routing.
//!
//! [`WireServer::start`] binds a listener, spawns the underlying
//! [`PredictionServer`], and runs **one reactor thread** that owns every
//! socket: non-blocking accepts, incremental request parsing, routing,
//! and response writes, all driven by a level-triggered
//! [`Poller`] (`epoll` on Linux, `poll(2)`
//! elsewhere — see [`crate::reactor::sys`]). Connections advance through
//! the [`ConnState`] machine; an idle keep-alive socket costs one slab
//! entry and one poller registration, not an OS thread, which is what
//! lets the default [`WireConfig::max_connections`] sit at 1024 instead
//! of PR 4's 64.
//!
//! Predictions leave the reactor thread in one of two ways:
//!
//! * **Inline fast path** — when nothing else is in flight (no reactor
//!   dispatch pending, only one connection readable this poll batch), the
//!   request runs directly on the reactor thread via
//!   [`ServerHandle::predict`], skipping both scheduler handoffs — this is
//!   what keeps single-client closed-loop latency low
//!   ([`WireStats::requests_inline`]).
//! * **Dispatch** — otherwise the request is submitted without blocking
//!   ([`ServerHandle::submit`]) and the reactor returns to its poller; a
//!   serve worker answers it, and completion comes back through a queue
//!   plus a waker byte ([`PredictionTicket::on_ready`],
//!   [`WireStats::requests_dispatched`]).
//!
//! Every request is routed inside `catch_unwind`, so a panic anywhere in
//! parsing or prediction answers `500` and increments
//! [`WireStats::panics_contained`] instead of killing the reactor.
//!
//! Graceful shutdown ([`WireServer::shutdown`]) proceeds outside-in: drop
//! the listener, close idle connections, let in-flight requests finish
//! (their responses are written with `Connection: close`), then drain and
//! join the prediction server — queued predictions are all answered
//! before the workers exit.
//!
//! [`PredictionTicket::on_ready`]: exa_serve::PredictionTicket::on_ready
//! [`ServerHandle::predict`]: exa_serve::ServerHandle::predict
//! [`ServerHandle::submit`]: exa_serve::ServerHandle::submit

use crate::codec::{self, Codec, ObserveRequestFrame, ObserveResponseFrame, PredictRequestFrame};
use crate::http::{self, Limits, ParseProgress, Request};
use crate::json::{Json, JsonWriter};
use crate::reactor::{
    waker_pair, ConnState, Connection, DrainOutcome, Event, FillOutcome, Interest, Poller,
    TokenSlab, WakeReceiver, Waker, WriteOutcome,
};
use exa_covariance::{Location, ParamCovariance};
use exa_serve::{
    ModelRegistry, PredictionServer, RegistryStats, ServeConfig, ServeError, ServedPrediction,
    ServerHandle, ServerStats,
};
use exa_telemetry::{
    Histogram, HistogramSnapshot, Kind, PromText, SlowEntry, SlowRing, TraceId, TRACE_HEADER,
};
use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`WireServer`].
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Address to bind; port 0 picks an ephemeral port (read it back with
    /// [`WireServer::local_addr`]).
    pub bind_addr: String,
    /// Concurrent connections served; further accepts are answered with an
    /// immediate `503` and closed. Connections are slab entries under the
    /// reactor, not threads, so this defaults to 1024 — raise it freely,
    /// the marginal cost per idle connection is a poller registration and
    /// a few hundred bytes of parser buffer.
    pub max_connections: usize,
    /// Cap on one request's preamble (request line + headers), bytes.
    pub max_header_bytes: usize,
    /// Cap on one request's declared `Content-Length`, bytes.
    pub max_body_bytes: usize,
    /// Wall-clock budget for receiving one request once started (slow-loris
    /// guard).
    pub request_deadline: Duration,
    /// How long a keep-alive connection may sit idle (no request bytes)
    /// before it is closed — without this, silent sockets could pin
    /// [`WireConfig::max_connections`] slots forever.
    pub idle_timeout: Duration,
    /// Tuning for the underlying [`PredictionServer`].
    pub serve: ServeConfig,
}

impl Default for WireConfig {
    fn default() -> Self {
        let limits = Limits::default();
        WireConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            max_connections: 1024,
            max_header_bytes: limits.max_header_bytes,
            max_body_bytes: limits.max_body_bytes,
            request_deadline: limits.request_deadline,
            idle_timeout: limits.idle_timeout,
            serve: ServeConfig::default(),
        }
    }
}

/// The reactor's poll tick: the upper bound on deadline-sweep staleness
/// (idle timeouts, slow-loris deadlines fire at most one tick late) and on
/// how long a shutdown request can go unnoticed on a quiet server.
const TICK: Duration = Duration::from_millis(25);

/// Refusal connections (queued `503`s at the connection cap) the reactor
/// will hold concurrently; an accept flood beyond this is dropped without
/// the courtesy response so refusals cannot balloon the slab.
const MAX_PENDING_REFUSALS: usize = 256;

/// Poller token of the listening socket (outside the slab's token space:
/// slab tokens would need ~4 billion reuses of one slot to reach it).
const LISTENER_TOKEN: u64 = u64::MAX;
/// Poller token of the waker's receive end.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Monotonic wire-level counters, updated by the reactor and read from any
/// thread.
#[derive(Default)]
struct WireCounters {
    connections_accepted: AtomicU64,
    connections_refused: AtomicU64,
    requests_ok: AtomicU64,
    requests_client_error: AtomicU64,
    requests_server_error: AtomicU64,
    malformed_requests: AtomicU64,
    disconnects_mid_request: AtomicU64,
    panics_contained: AtomicU64,
    requests_inline: AtomicU64,
    requests_dispatched: AtomicU64,
}

exa_telemetry::stats_struct! {
    /// A point-in-time snapshot of a [`WireServer`]'s counters — the `wire`
    /// object of `GET /v1/stats` and `exa_wire_*` in `GET /metrics`, both
    /// rendered from [`WireStats::STATS`].
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct WireStats {
        /// Connections accepted and admitted to the reactor.
        Counter connections_accepted: u64,
        /// Connections refused with 503 at the connection cap.
        /// ([`WireConfig::max_connections`].)
        Counter connections_refused: u64,
        /// Requests answered 2xx.
        Counter requests_ok: u64,
        /// Requests answered 4xx.
        Counter requests_client_error: u64,
        /// Requests answered 5xx.
        Counter requests_server_error: u64,
        /// HTTP-level parse failures answered with an error status.
        /// (Bad preamble, oversized framing; a subset of
        /// `requests_client_error` / `requests_server_error`.)
        Counter malformed_requests: u64,
        /// Clients that vanished or stalled past the deadline mid-request.
        Counter disconnects_mid_request: u64,
        /// Handler panics contained by the per-request catch_unwind.
        /// The wire-level companion of
        /// [`ServerStats::factorizations_during_serving`]: robustness tests
        /// assert it stays 0.
        Counter panics_contained: u64,
        /// Predicts run as a batch-of-one on the reactor thread.
        /// (The idle-queue fast path; see the module docs.)
        Counter requests_inline: u64,
        /// Predicts handed to the serve worker pool.
        /// (The non-blocking submit + completion-callback path.)
        Counter requests_dispatched: u64,
        /// Seconds since this wire server started.
        Gauge uptime_seconds: f64,
        /// Render counter, monotone per process; a decrease means a restart.
        /// Bumped by every `/v1/stats` and `/metrics` render.
        Gauge stats_epoch: u64,
    }
}

struct Shared<K: ParamCovariance> {
    registry: Arc<ModelRegistry<K>>,
    handle: ServerHandle<K>,
    counters: WireCounters,
    shutting_down: AtomicBool,
    limits: Limits,
    max_connections: usize,
    waker: Waker,
    backend: &'static str,
    /// When this server started — the base of `uptime_seconds`.
    started: Instant,
    stats_epoch: AtomicU64,
    /// Wire-side stage histograms for predict requests (the queue/solve
    /// stages live in the serve layer's own histograms).
    parse_hist: Histogram,
    write_hist: Histogram,
    request_hist: Histogram,
    /// The slowest recent predicts, with per-stage breakdowns
    /// (`GET /v1/debug/slow`).
    slow: SlowRing,
}

impl<K: ParamCovariance> Shared<K> {
    fn wire_stats(&self) -> WireStats {
        let c = &self.counters;
        WireStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_refused: c.connections_refused.load(Ordering::Relaxed),
            requests_ok: c.requests_ok.load(Ordering::Relaxed),
            requests_client_error: c.requests_client_error.load(Ordering::Relaxed),
            requests_server_error: c.requests_server_error.load(Ordering::Relaxed),
            malformed_requests: c.malformed_requests.load(Ordering::Relaxed),
            disconnects_mid_request: c.disconnects_mid_request.load(Ordering::Relaxed),
            panics_contained: c.panics_contained.load(Ordering::Relaxed),
            requests_inline: c.requests_inline.load(Ordering::Relaxed),
            requests_dispatched: c.requests_dispatched.load(Ordering::Relaxed),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            stats_epoch: self.stats_epoch.load(Ordering::Relaxed),
        }
    }

    /// The three section snapshots one `/v1/stats` or `/metrics` render
    /// reports: each render takes the next `stats_epoch`.
    fn render_snapshots(&self) -> (WireStats, ServerStats, RegistryStats) {
        let stats_epoch = self.stats_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let wire = WireStats {
            stats_epoch,
            ..self.wire_stats()
        };
        (wire, self.handle.stats(), self.registry.stats())
    }
}

/// One routed response, ready to frame.
struct Response {
    status: u16,
    body: Vec<u8>,
    /// `Content-Type` of `body`: JSON everywhere except a binary-negotiated
    /// predict success.
    content_type: &'static str,
    /// Force-close the connection after writing (on top of the client's own
    /// keep-alive preference).
    close: bool,
    /// `Retry-After` seconds on refusals, so backoff is signalled rather
    /// than guessed (the fleet router keys its failover pacing on this).
    retry_after: Option<u64>,
    /// Trace id to echo in the `x-exa-trace-id` response header (set on
    /// the predict paths, where a trace is extracted or minted).
    trace: Option<TraceId>,
}

impl Response {
    fn ok(body: String) -> Self {
        Response {
            status: 200,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
            retry_after: None,
            trace: None,
        }
    }

    /// A `200` carrying one binary predict frame.
    fn ok_frame(body: Vec<u8>) -> Self {
        Response {
            status: 200,
            body,
            content_type: codec::FRAME_CONTENT_TYPE,
            close: false,
            retry_after: None,
            trace: None,
        }
    }

    /// Errors are always the structured JSON envelope, whatever codec the
    /// request negotiated — a client that cannot read JSON errors cannot
    /// read the 4xx/5xx contract at all.
    fn error(status: u16, code: &str, message: &str) -> Self {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("error");
        w.begin_object();
        w.field_str("code", code);
        w.field_str("message", message);
        w.end_object();
        w.end_object();
        Response {
            status,
            body: w.finish().into_bytes(),
            content_type: "application/json",
            close: false,
            retry_after: None,
            trace: None,
        }
    }
}

/// `Retry-After` seconds on a transient `503 overloaded` (queue pressure or
/// connection cap): pressure at this horizon is usually gone in a moment.
const RETRY_AFTER_OVERLOADED: u64 = 1;
/// `Retry-After` seconds on `503 shutting_down`: the node will not be back
/// soon, steer clients away longer.
const RETRY_AFTER_SHUTDOWN: u64 = 5;

/// The running wire front-end. See the [crate docs](crate) for the wire
/// schema and an end-to-end example.
pub struct WireServer<K: ParamCovariance> {
    shared: Arc<Shared<K>>,
    local_addr: SocketAddr,
    reactor_thread: Option<JoinHandle<()>>,
    prediction: Option<PredictionServer<K>>,
}

impl<K: ParamCovariance> WireServer<K> {
    /// Binds `config.bind_addr`, starts the underlying [`PredictionServer`]
    /// and the reactor thread, and begins serving.
    pub fn start(registry: Arc<ModelRegistry<K>>, config: WireConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        let backend = poller.backend();
        let (waker, wake_rx) = waker_pair()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READABLE)?;
        let prediction = PredictionServer::start(Arc::clone(&registry), config.serve);
        let shared = Arc::new(Shared {
            registry,
            handle: prediction.handle(),
            counters: WireCounters::default(),
            shutting_down: AtomicBool::new(false),
            limits: Limits {
                max_header_bytes: config.max_header_bytes,
                max_body_bytes: config.max_body_bytes,
                request_deadline: config.request_deadline,
                idle_timeout: config.idle_timeout,
            },
            max_connections: config.max_connections.max(1),
            waker,
            backend,
            started: Instant::now(),
            stats_epoch: AtomicU64::new(0),
            parse_hist: Histogram::new(),
            write_hist: Histogram::new(),
            request_hist: Histogram::new(),
            slow: SlowRing::default(),
        });
        let reactor_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("exa-wire-reactor".into())
                .spawn(move || Reactor::new(shared, poller, listener, wake_rx).run())?
        };
        Ok(WireServer {
            shared,
            local_addr,
            reactor_thread: Some(reactor_thread),
            prediction: Some(prediction),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Which readiness backend the reactor is running on (`"epoll"` or
    /// `"poll"`).
    pub fn backend(&self) -> &'static str {
        self.shared.backend
    }

    /// Wire-level statistics snapshot.
    pub fn stats(&self) -> WireStats {
        self.shared.wire_stats()
    }

    /// Statistics of the underlying prediction server.
    pub fn serve_stats(&self) -> ServerStats {
        self.shared.handle.stats()
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, join
    /// the reactor thread, then drain and join the prediction server.
    /// Returns the final wire and serving statistics.
    pub fn shutdown(mut self) -> (WireStats, ServerStats) {
        self.wind_down();
        let wire = self.shared.wire_stats();
        let serve = self
            .prediction
            .take()
            .expect("prediction server present until shutdown")
            .shutdown();
        (wire, serve)
    }

    fn wind_down(&mut self) {
        // ORDERING: SeqCst — the flag store must be globally ordered before
        // the waker byte below, so a reactor woken by it cannot load the
        // flag as false and go back to sleep.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(reactor) = self.reactor_thread.take() {
            let _ = reactor.join();
        }
    }
}

impl<K: ParamCovariance> Drop for WireServer<K> {
    fn drop(&mut self) {
        // `shutdown()` takes `prediction`; an un-shutdown drop still winds
        // the reactor down cleanly (the prediction server's own Drop then
        // drains its queue).
        if self.reactor_thread.is_some() {
            self.wind_down();
        }
    }
}

/// A prediction answer crossing back from a fulfilling thread to the
/// reactor.
struct Completion {
    token: u64,
    result: Result<ServedPrediction, ServeError>,
}

/// What the reactor remembers about a routed predict request until it is
/// answered: everything needed to encode, write and time the response.
struct PendingPredict {
    model: String,
    resp_codec: Codec,
    keep_alive_wanted: bool,
    /// The request's trace id, echoed in the response and attributed in
    /// the slow ring.
    trace: TraceId,
    /// When the request was carved off the socket (total-span base).
    request_started: Instant,
    /// Routing + body-decode span, measured before the dispatch.
    parse_ns: u64,
}

/// One slab entry: the transport state machine plus the reactor's
/// request-level bookkeeping for it.
struct ConnEntry {
    conn: Connection,
    /// Set while `conn` is in [`ConnState::Dispatch`].
    pending: Option<PendingPredict>,
    /// A `503` courtesy connection at the cap, excluded from the serving
    /// count.
    refusal: bool,
    /// The peer hung up while a dispatch was in flight: the fd is already
    /// deregistered, and the entry is reaped when its completion arrives.
    peer_gone: bool,
}

struct Reactor<K: ParamCovariance> {
    shared: Arc<Shared<K>>,
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: WakeReceiver,
    conns: TokenSlab<ConnEntry>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    /// Dispatched predictions not yet completed (queued completions
    /// included — the count drops when the completion is *processed*).
    inflight: usize,
    /// Admitted (non-refusal) connections, measured against
    /// `max_connections`.
    serving: usize,
    /// Live refusal entries, bounded by [`MAX_PENDING_REFUSALS`].
    refusals: usize,
    /// Whether exactly one connection went readable in the current poll
    /// batch — the precondition for the inline fast path (with more than
    /// one, dispatching lets the worker pool answer them in parallel).
    batch_solo: bool,
    shutting: bool,
}

impl<K: ParamCovariance> Reactor<K> {
    fn new(
        shared: Arc<Shared<K>>,
        poller: Poller,
        listener: TcpListener,
        wake_rx: WakeReceiver,
    ) -> Self {
        Reactor {
            shared,
            poller,
            listener: Some(listener),
            wake_rx,
            conns: TokenSlab::new(),
            completions: Arc::new(Mutex::new(VecDeque::new())),
            inflight: 0,
            serving: 0,
            refusals: 0,
            batch_solo: false,
            shutting: false,
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + TICK;
        loop {
            if self.poller.wait(&mut events, TICK).is_err() {
                // A failed wait would spin; treat it as fatal for the
                // reactor but not the process.
                break;
            }
            let now = Instant::now();
            self.batch_solo = events
                .iter()
                .filter(|e| e.token < WAKER_TOKEN && e.readable)
                .count()
                <= 1;
            let mut accept_ready = false;
            let mut wake = false;
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => accept_ready = true,
                    WAKER_TOKEN => wake = true,
                    token => self.conn_event(token, event, now),
                }
            }
            if wake {
                self.wake_rx.drain();
            }
            self.process_completions(now);
            if accept_ready {
                self.accept_pending(now);
            }
            // ORDERING: SeqCst pairs with wind_down's store: after the waker
            // byte wakes this loop, the load is guaranteed to see the flag.
            if self.shared.shutting_down.load(Ordering::SeqCst) && !self.shutting {
                self.begin_shutdown();
            }
            if now >= next_sweep {
                self.sweep_deadlines(now);
                next_sweep = now + TICK;
            }
            if self.shutting && self.conns.is_empty() && self.inflight == 0 {
                break;
            }
        }
    }

    /// Accepts until `WouldBlock`, admitting up to the connection cap and
    /// answering the rest with a courtesy `503`.
    fn accept_pending(&mut self, now: Instant) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if http::would_block(&e) => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept errors (e.g. the peer already reset):
                // nothing to serve, keep accepting.
                Err(_) => continue,
            };
            if self.serving < self.shared.max_connections {
                self.admit(stream, now);
            } else {
                self.refuse(stream, now);
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, now: Instant) {
        let Ok(conn) = Connection::new(stream, self.shared.limits, now) else {
            return;
        };
        let fd = conn.fd();
        let token = self.conns.insert(ConnEntry {
            conn,
            pending: None,
            refusal: false,
            peer_gone: false,
        });
        // A fresh connection starts with read interest — which is exactly
        // what `Connection::new` caches, so no follow-up `arm` is needed.
        if self.poller.register(fd, token, Interest::READABLE).is_err() {
            self.conns.remove(token);
            return;
        }
        self.serving += 1;
        self.shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Answers an over-cap connection with `503` and drains it to a clean
    /// close, without ever admitting it to the serving count.
    fn refuse(&mut self, stream: TcpStream, now: Instant) {
        self.shared
            .counters
            .connections_refused
            .fetch_add(1, Ordering::Relaxed);
        if self.refusals >= MAX_PENDING_REFUSALS {
            return; // drop the socket: the courtesy 503 has a budget too
        }
        let Ok(mut conn) = Connection::new(stream, self.shared.limits, now) else {
            return;
        };
        let mut response = Response::error(503, "overloaded", "connection limit reached");
        response.retry_after = Some(RETRY_AFTER_OVERLOADED);
        let bytes = http::encode_response_with_retry(
            response.status,
            response.content_type,
            &response.body,
            false,
            response.retry_after,
        );
        conn.queue_response(bytes, false, now);
        let fd = conn.fd();
        let token = self.conns.insert(ConnEntry {
            conn,
            pending: None,
            refusal: true,
            peer_gone: false,
        });
        if self.poller.register(fd, token, Interest::READABLE).is_err() {
            self.conns.remove(token);
            return;
        }
        self.refusals += 1;
        let entry = self.conns.get_mut(token).expect("just inserted");
        match entry.conn.try_write(now) {
            WriteOutcome::Pending | WriteOutcome::Closing => self.arm(token),
            WriteOutcome::Broken => self.remove_conn(token),
            WriteOutcome::Flushed => unreachable!("refusals never keep alive"),
        }
    }

    /// One readiness event for one connection.
    fn conn_event(&mut self, token: u64, event: Event, now: Instant) {
        let Some(entry) = self.conns.get_mut(token) else {
            return; // stale token: the connection died earlier this batch
        };
        match entry.conn.state() {
            ConnState::ReadingHead | ConnState::ReadingBody => self.conn_read(token, now),
            ConnState::Writing => {
                match entry.conn.try_write(now) {
                    WriteOutcome::Flushed => {
                        self.parse_loop(token, now);
                        // Any kernel-buffered bytes re-report via level
                        // triggering; parse_loop already handled what was
                        // in the parser buffer.
                    }
                    WriteOutcome::Pending | WriteOutcome::Closing => {}
                    WriteOutcome::Broken => {
                        self.remove_conn(token);
                        return;
                    }
                }
                self.arm(token);
            }
            ConnState::Draining => {
                if entry.conn.drain() == DrainOutcome::Done {
                    self.remove_conn(token);
                }
            }
            ConnState::Dispatch => {
                if event.closed {
                    // The peer is gone for good (full close or reset — a
                    // half-close would not raise this without read
                    // interest). Deregister so the level-triggered HUP
                    // stops waking us; the completion reaps the entry.
                    let fd = entry.conn.fd();
                    entry.peer_gone = true;
                    let _ = self.poller.deregister(fd);
                }
            }
        }
    }

    /// Reads until `WouldBlock` (or the connection changes state), parsing
    /// and handling every complete request along the way.
    fn conn_read(&mut self, token: u64, now: Instant) {
        loop {
            let Some(entry) = self.conns.get_mut(token) else {
                return;
            };
            if !matches!(
                entry.conn.state(),
                ConnState::ReadingHead | ConnState::ReadingBody
            ) {
                break;
            }
            match entry.conn.fill(now) {
                FillOutcome::Progress => self.parse_loop(token, now),
                FillOutcome::WouldBlock => break,
                FillOutcome::Eof => {
                    if entry.conn.started() {
                        self.shared
                            .counters
                            .disconnects_mid_request
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.remove_conn(token);
                    return;
                }
                FillOutcome::Broken => {
                    if entry.conn.started() {
                        self.shared
                            .counters
                            .disconnects_mid_request
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.remove_conn(token);
                    return;
                }
            }
        }
        self.arm(token);
    }

    /// Carves and handles buffered requests while the connection stays in
    /// a reading state (keep-alive pipelining without extra socket reads).
    fn parse_loop(&mut self, token: u64, now: Instant) {
        loop {
            let Some(entry) = self.conns.get_mut(token) else {
                return;
            };
            if !matches!(
                entry.conn.state(),
                ConnState::ReadingHead | ConnState::ReadingBody
            ) {
                return;
            }
            match entry.conn.next_request() {
                Ok(ParseProgress::Request(request)) => {
                    if !self.handle_request(token, request, now) {
                        return;
                    }
                }
                Ok(ParseProgress::NeedHead | ParseProgress::NeedBody) => return,
                Err(err) => {
                    // Answerable protocol violation: respond, then close
                    // (the connection's framing can no longer be trusted).
                    self.shared
                        .counters
                        .malformed_requests
                        .fetch_add(1, Ordering::Relaxed);
                    let mut response =
                        Response::error(err.status(), "bad_request", &err.to_string());
                    response.close = true;
                    self.answer(token, response, true, now);
                    return;
                }
            }
        }
    }

    /// Routes one parsed request: answer immediately, run the predict
    /// inline, or dispatch it to the serve pool. Returns `true` when the
    /// response was fully flushed on a keep-alive connection (the caller
    /// may parse the next pipelined request).
    fn handle_request(&mut self, token: u64, request: Request, now: Instant) -> bool {
        let request_started = Instant::now();
        let keep_alive_wanted = request.keep_alive();
        let trace_in = request.header(TRACE_HEADER).and_then(TraceId::parse);
        // A panic anywhere in routing (JSON decode, registry, inline
        // prediction) must not kill the reactor: contain it, answer 500.
        let routed = catch_unwind(AssertUnwindSafe(|| route(&self.shared, &request)));
        // Routing includes the body decode, so this is the parse span.
        let parse_ns = request_started.elapsed().as_nanos() as u64;
        let routed = match routed {
            Ok(routed) => routed,
            Err(_) => {
                self.shared
                    .counters
                    .panics_contained
                    .fetch_add(1, Ordering::Relaxed);
                let mut response = Response::error(500, "internal", "request handler panicked");
                response.close = true;
                return self.answer(token, response, keep_alive_wanted, now);
            }
        };
        let (name, targets, want_variance, resp_codec) = match routed {
            Routed::Response(response) => {
                return self.answer(token, response, keep_alive_wanted, now)
            }
            Routed::Predict {
                name,
                targets,
                want_variance,
                resp_codec,
            } => (name, targets, want_variance, resp_codec),
        };
        // Every predict carries a trace id: the router's (forwarded in the
        // request header) or one minted here for direct clients.
        let trace = trace_in.unwrap_or_else(TraceId::mint);
        let request = PendingPredict {
            model: name,
            resp_codec,
            keep_alive_wanted,
            trace,
            request_started,
            parse_ns,
        };
        if self.inline_ok() {
            self.shared
                .counters
                .requests_inline
                .fetch_add(1, Ordering::Relaxed);
            let handle = &self.shared.handle;
            let result = catch_unwind(AssertUnwindSafe(|| {
                handle.predict_traced(&request.model, targets, want_variance, Some(trace))
            }));
            return self.finish_predict(token, request, result, now);
        }
        // Dispatch path: non-blocking submit, completion via callback.
        let ticket =
            self.shared
                .handle
                .submit_traced(&request.model, targets, want_variance, Some(trace));
        let ticket = match ticket {
            Ok(ticket) => ticket,
            Err(err) => {
                let mut response = serve_error_response(&err);
                response.trace = Some(trace);
                return self.answer(token, response, keep_alive_wanted, now);
            }
        };
        let entry = self.conns.get_mut(token).expect("handled conn is live");
        entry.pending = Some(request);
        entry.conn.begin_dispatch();
        self.inflight += 1;
        self.shared
            .counters
            .requests_dispatched
            .fetch_add(1, Ordering::Relaxed);
        let completions = Arc::clone(&self.completions);
        let waker = self.shared.waker.clone();
        // Fires on whichever thread fulfills the prediction (worker or an
        // inline submitter): park the result and poke the poller.
        ticket.on_ready(move |result| {
            completions
                .lock()
                .expect("completion queue lock")
                .push_back(Completion { token, result });
            waker.wake();
        });
        self.arm(token);
        false
    }

    /// Whether a predict may run inline on the reactor thread right now:
    /// only with nothing else in motion — no dispatch in flight and no
    /// other connection readable in this poll batch. The reactor is its
    /// prediction server's only submitter, so no dispatch in flight also
    /// means an empty serve queue. Anything else dispatches, so concurrent
    /// requests spread over the worker pool instead of serializing behind
    /// the reactor.
    fn inline_ok(&self) -> bool {
        self.batch_solo && self.inflight == 0
    }

    /// Drains the completion queue: encode each answered dispatch and
    /// start (or finish) writing it.
    fn process_completions(&mut self, now: Instant) {
        loop {
            let completion = self
                .completions
                .lock()
                .expect("completion queue lock")
                .pop_front();
            let Some(Completion { token, result }) = completion else {
                return;
            };
            self.inflight -= 1;
            let Some(entry) = self.conns.get_mut(token) else {
                continue; // the connection died while the serve side worked
            };
            let pending = entry
                .pending
                .take()
                .expect("completion for a connection not in dispatch");
            if self.finish_predict(token, pending, Ok(result), now) {
                // Flushed on a keep-alive connection: pipelined requests
                // may already be buffered.
                self.parse_loop(token, now);
            }
            self.arm(token);
        }
    }

    /// Finishes one predict, inline or dispatched: encodes the answer (a
    /// panic in the predict or the encode answers `500`), writes it unless
    /// the peer is gone, and records the stage spans and the slow-ring
    /// entry. Returns `true` when the response flushed on a keep-alive
    /// connection.
    fn finish_predict(
        &mut self,
        token: u64,
        request: PendingPredict,
        result: std::thread::Result<Result<ServedPrediction, ServeError>>,
        now: Instant,
    ) -> bool {
        let encoded = result.and_then(|result| {
            catch_unwind(AssertUnwindSafe(|| match &result {
                Ok(served) => (
                    predict_response(&request.model, request.resp_codec, served),
                    stage_ns(served),
                ),
                Err(err) => (serve_error_response(err), (0, 0)),
            }))
        });
        let (mut response, (queue_ns, solve_ns)) = encoded.unwrap_or_else(|_| {
            self.shared
                .counters
                .panics_contained
                .fetch_add(1, Ordering::Relaxed);
            let mut response = Response::error(500, "internal", "request handler panicked");
            response.close = true;
            (response, (0, 0))
        });
        response.trace = Some(request.trace);
        let peer_gone = self
            .conns
            .get_mut(token)
            .is_some_and(|entry| entry.peer_gone);
        let (flushed, write_ns) = if peer_gone {
            // The request is still accounted (the work was done), but
            // there is no one left to write to.
            count_status(&self.shared, response.status);
            self.remove_conn(token);
            (false, 0)
        } else {
            let write_start = Instant::now();
            let flushed = self.answer(token, response, request.keep_alive_wanted, now);
            (flushed, write_start.elapsed().as_nanos() as u64)
        };
        let shared = &self.shared;
        let total_ns = request.request_started.elapsed().as_nanos() as u64;
        shared.parse_hist.record_ns(request.parse_ns);
        shared.write_hist.record_ns(write_ns);
        shared.request_hist.record_ns(total_ns);
        shared.slow.record(SlowEntry {
            trace: request.trace,
            model: request.model,
            parse_ns: request.parse_ns,
            queue_ns,
            solve_ns,
            write_ns,
            total_ns,
            seq: 0,
        });
        flushed
    }

    /// Counts, encodes, queues, and starts writing one response. Returns
    /// `true` when it flushed completely and the connection re-entered
    /// keep-alive reading.
    fn answer(
        &mut self,
        token: u64,
        response: Response,
        keep_alive_wanted: bool,
        now: Instant,
    ) -> bool {
        count_status(&self.shared, response.status);
        // ORDERING: SeqCst — same total order as wind_down's store, so no
        // response renews keep-alive once shutdown has begun.
        let shutting = self.shared.shutting_down.load(Ordering::SeqCst);
        let keep_alive = keep_alive_wanted && !response.close && !shutting;
        let trace_header;
        let extra: &[(&str, String)] = match response.trace {
            Some(trace) => {
                trace_header = [(TRACE_HEADER, trace.to_string())];
                &trace_header
            }
            None => &[],
        };
        let bytes = http::encode_response_ext(
            response.status,
            response.content_type,
            &response.body,
            keep_alive,
            response.retry_after,
            extra,
        );
        let Some(entry) = self.conns.get_mut(token) else {
            return false;
        };
        entry.conn.queue_response(bytes, keep_alive, now);
        match entry.conn.try_write(now) {
            WriteOutcome::Flushed => true,
            WriteOutcome::Pending | WriteOutcome::Closing => {
                self.arm(token);
                false
            }
            WriteOutcome::Broken => {
                self.remove_conn(token);
                false
            }
        }
    }

    /// Syncs a connection's poller interest with its state, tearing the
    /// connection down if the poller refuses.
    fn arm(&mut self, token: u64) {
        let Some(entry) = self.conns.get_mut(token) else {
            return;
        };
        if entry.peer_gone {
            return; // fd already deregistered
        }
        if entry.conn.arm(&mut self.poller, token).is_err() {
            self.remove_conn(token);
        }
    }

    /// Applies state deadlines: reap idle keep-alives silently, count
    /// stalled mid-request clients, abandon stuck writes and drains.
    fn sweep_deadlines(&mut self, now: Instant) {
        for token in self.conns.tokens() {
            let Some(entry) = self.conns.get_mut(token) else {
                continue;
            };
            if !entry.conn.expired(now) {
                continue;
            }
            match entry.conn.state() {
                ConnState::ReadingHead if !entry.conn.started() => {
                    // Idle keep-alive past its timeout: close silently
                    // (nothing was promised to this client).
                    self.remove_conn(token);
                }
                ConnState::ReadingHead | ConnState::ReadingBody => {
                    // Slow-loris: request started, deadline blown.
                    self.shared
                        .counters
                        .disconnects_mid_request
                        .fetch_add(1, Ordering::Relaxed);
                    self.remove_conn(token);
                }
                ConnState::Writing | ConnState::Draining => self.remove_conn(token),
                ConnState::Dispatch => unreachable!("dispatch carries no deadline"),
            }
        }
    }

    /// Stops accepting and sheds every connection not occupied with a
    /// request: reading-state connections close immediately (idle or not —
    /// PR 4 semantics), dispatch/write/drain states finish their work.
    fn begin_shutdown(&mut self) {
        self.shutting = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        for token in self.conns.tokens() {
            let Some(entry) = self.conns.get_mut(token) else {
                continue;
            };
            if matches!(
                entry.conn.state(),
                ConnState::ReadingHead | ConnState::ReadingBody
            ) {
                self.remove_conn(token);
            }
        }
    }

    fn remove_conn(&mut self, token: u64) {
        let Some(entry) = self.conns.remove(token) else {
            return;
        };
        if !entry.peer_gone {
            let _ = self.poller.deregister(entry.conn.fd());
        }
        if entry.refusal {
            self.refusals -= 1;
        } else {
            self.serving -= 1;
        }
        // Dropping `entry` closes the socket. An entry dying mid-dispatch
        // leaves `inflight` untouched on purpose: its completion still
        // arrives, is popped, and finds the token stale.
    }
}

fn count_status<K: ParamCovariance>(shared: &Shared<K>, status: u16) {
    let counter = match status {
        200..=299 => &shared.counters.requests_ok,
        400..=499 => &shared.counters.requests_client_error,
        _ => &shared.counters.requests_server_error,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// What routing decided: either a finished response, or a decoded predict
/// request for the reactor to run inline or dispatch.
enum Routed {
    Response(Response),
    Predict {
        name: String,
        targets: Vec<Location>,
        want_variance: bool,
        resp_codec: Codec,
    },
}

/// Maps one parsed request to a response or a decoded prediction. Never
/// returns a transport-level error: everything is an HTTP status plus a
/// structured JSON error body.
fn route<K: ParamCovariance>(shared: &Shared<K>, request: &Request) -> Routed {
    let path = request.path();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method(), segments.as_slice()) {
        ("GET", ["healthz"]) => Routed::Response(health(shared)),
        ("GET", ["v1", "models"]) => Routed::Response(models(shared)),
        ("GET", ["v1", "stats"]) => Routed::Response(stats(shared)),
        ("GET", ["metrics"]) => Routed::Response(metrics(shared)),
        ("GET", ["v1", "debug", "slow"]) => Routed::Response(debug_slow(shared)),
        ("POST", ["v1", "models", name, "predict"]) => decode_predict(name, request),
        // The write path runs synchronously on the reactor thread: that
        // serializes observes per node (and therefore per model) by
        // construction, which the incremental factor update requires.
        ("POST", ["v1", "models", name, "observe"]) => {
            Routed::Response(observe(shared, name, request))
        }
        // Admin: drop a model so the next miss reloads it through the
        // loader — the fleet router uses this to un-stale a replica that
        // missed an observe.
        ("POST", ["v1", "models", name, "evict"]) => Routed::Response(evict(shared, name)),
        // Right path, wrong verb → 405 so clients can tell the two apart.
        (_, ["healthz"])
        | (_, ["v1", "models"])
        | (_, ["v1", "stats"])
        | (_, ["metrics"])
        | (_, ["v1", "debug", "slow"])
        | (_, ["v1", "models", _, "predict"])
        | (_, ["v1", "models", _, "observe"])
        | (_, ["v1", "models", _, "evict"]) => Routed::Response(Response::error(
            405,
            "method_not_allowed",
            &format!("{} is not supported on {path}", request.method()),
        )),
        _ => Routed::Response(Response::error(
            404,
            "unknown_path",
            &format!("no route for {path}"),
        )),
    }
}

fn health<K: ParamCovariance>(shared: &Shared<K>) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("status", "ok");
    w.field_uint("models", shared.registry.len() as u64);
    w.end_object();
    Response::ok(w.finish())
}

fn models<K: ParamCovariance>(shared: &Shared<K>) -> Response {
    // One lock acquisition: the entry list and the counters must describe
    // the same instant, or eviction observers see books that don't balance.
    let (entries, stats) = shared.registry.snapshot();
    let of_kind = |kind: Kind| RegistryStats::STATS.iter().filter(move |s| s.kind == kind);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("models");
    w.begin_array();
    for entry in &entries {
        w.begin_object();
        w.field_str("name", &entry.name);
        w.field_uint("factor_bytes", entry.factor_bytes as u64);
        w.end_object();
    }
    w.end_array();
    // Residency, then the budget it is held to, then the lifetime counters.
    w.stats(of_kind(Kind::Gauge), &stats);
    w.key("byte_budget");
    match stats.byte_budget {
        Some(budget) => w.uint(budget as u64),
        None => w.null(),
    }
    w.stats(of_kind(Kind::Counter), &stats);
    w.end_object();
    Response::ok(w.finish())
}

/// `GET /v1/stats`: one object per section, each written from its
/// snapshot's `STATS` table.
fn stats<K: ParamCovariance>(shared: &Shared<K>) -> Response {
    let (wire, serve, registry) = shared.render_snapshots();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("wire");
    w.begin_object();
    w.field_str("backend", shared.backend);
    w.stats(WireStats::STATS, &wire);
    w.end_object();
    w.key("serve");
    w.begin_object();
    w.stats(ServerStats::STATS, &serve);
    w.end_object();
    w.key("registry");
    w.begin_object();
    w.stats(RegistryStats::STATS, &registry);
    w.end_object();
    w.end_object();
    Response::ok(w.finish())
}

/// `GET /metrics`: the Prometheus text exposition. The scalar families are
/// the same three tables and snapshots `/v1/stats` writes
/// (`exa_wire_requests_ok` ↔ `wire.requests_ok`), so the two documents
/// cannot disagree on a key; the histogram families have no JSON twin.
fn metrics<K: ParamCovariance>(shared: &Shared<K>) -> Response {
    let (wire, serve, registry) = shared.render_snapshots();
    let mut p = PromText::new();
    p.stats("wire", WireStats::STATS, &wire);
    p.stats("serve", ServerStats::STATS, &serve);
    p.stats("registry", RegistryStats::STATS, &registry);
    p.histogram(
        "exa_serve_latency_seconds",
        "Submit-to-response latency of the prediction server.",
        &shared.handle.latency_histogram(),
    );
    p.histogram(
        "exa_wire_request_seconds",
        "Wire-level predict latency: request carved to response queued.",
        &shared.request_hist.snapshot(),
    );
    p.histogram(
        "exa_serve_observe_seconds",
        "Latency of observe batches (incremental update or fallback refit).",
        &shared.handle.observe_histogram(),
    );
    let parse = shared.parse_hist.snapshot();
    let queue = shared.handle.queue_histogram();
    let solve = shared.handle.solve_histogram();
    let write = shared.write_hist.snapshot();
    let stages: [(&str, &HistogramSnapshot); 4] = [
        ("parse", &parse),
        ("queue", &queue),
        ("solve", &solve),
        ("write", &write),
    ];
    p.histogram_series(
        "exa_request_stage_seconds",
        "Per-stage predict spans on this node.",
        "stage",
        &stages,
    );
    let mut response = Response::ok(p.render());
    response.content_type = "text/plain; version=0.0.4";
    response
}

/// `GET /v1/debug/slow`: the slow ring, slowest first, with per-stage
/// nanosecond breakdowns and the trace id each entry belongs to.
fn debug_slow<K: ParamCovariance>(shared: &Shared<K>) -> Response {
    let entries = shared.slow.snapshot();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("slow");
    w.begin_array();
    for e in &entries {
        w.begin_object();
        w.field_str("trace", &e.trace.to_string());
        w.field_str("model", &e.model);
        w.field_uint("parse_ns", e.parse_ns);
        w.field_uint("queue_ns", e.queue_ns);
        w.field_uint("solve_ns", e.solve_ns);
        w.field_uint("write_ns", e.write_ns);
        w.field_uint("total_ns", e.total_ns);
        w.field_uint("seq", e.seq);
        w.end_object();
    }
    w.end_array();
    w.field_uint("recorded", shared.slow.recorded());
    w.end_object();
    Response::ok(w.finish())
}

/// The serve-layer stage spans of one answered predict, in nanoseconds.
fn stage_ns(served: &ServedPrediction) -> (u64, u64) {
    (
        (served.queue_seconds * 1e9) as u64,
        (served.solve_seconds * 1e9) as u64,
    )
}

/// The media type of a `Content-Type`/`Accept` value with any parameters
/// stripped: `application/JSON; charset=utf-8` → `application/JSON`.
fn media_essence(value: &str) -> &str {
    value.split(';').next().unwrap_or("").trim()
}

/// The predict *request* codec from `Content-Type`. Absent (or empty)
/// means JSON — the wire default — and anything but the supported types
/// is a structured `415`. `application/x-www-form-urlencoded` is accepted
/// as JSON on purpose: it is what `curl -d '{...}'` stamps on a body by
/// default, and the documented walkthrough (and any PR 4-era script)
/// relies on that working.
fn request_codec(request: &Request) -> Result<Codec, Response> {
    match request.header("content-type").map(media_essence) {
        None => Ok(Codec::Json),
        Some(t)
            if t.is_empty()
                || t.eq_ignore_ascii_case("application/json")
                || t.eq_ignore_ascii_case("application/x-www-form-urlencoded") =>
        {
            Ok(Codec::Json)
        }
        Some(t) if t.eq_ignore_ascii_case(codec::FRAME_CONTENT_TYPE) => Ok(Codec::Binary),
        Some(t) => Err(Response::error(
            415,
            "unsupported_media_type",
            &format!(
                "unsupported Content-Type {t:?}; use application/json or {}",
                codec::FRAME_CONTENT_TYPE
            ),
        )),
    }
}

/// The predict *response* codec from `Accept`: absent, `*/*` or
/// `application/*` mirrors the request codec (symmetric round trips, and
/// curl's default `Accept: */*` keeps getting JSON for JSON); naming
/// exactly one supported type selects it; naming both mirrors the request;
/// naming neither is a structured `415`.
fn response_codec(request: &Request, request_codec: Codec) -> Result<Codec, Response> {
    let Some(accept) = request.header("accept") else {
        return Ok(request_codec);
    };
    let (mut json_ok, mut binary_ok, mut any_ok) = (false, false, false);
    for item in accept.split(',') {
        let t = media_essence(item);
        if t == "*/*" || t.eq_ignore_ascii_case("application/*") {
            any_ok = true;
        } else if t.eq_ignore_ascii_case("application/json") {
            json_ok = true;
        } else if t.eq_ignore_ascii_case(codec::FRAME_CONTENT_TYPE) {
            binary_ok = true;
        }
    }
    match (binary_ok, json_ok, any_ok) {
        (true, true, _) => Ok(request_codec),
        (true, false, _) => Ok(Codec::Binary),
        (false, true, _) => Ok(Codec::Json),
        (false, false, true) => Ok(request_codec),
        (false, false, false) => Err(Response::error(
            415,
            "unsupported_media_type",
            &format!(
                "no supported media type in Accept {accept:?}; this endpoint answers \
                 application/json or {}",
                codec::FRAME_CONTENT_TYPE
            ),
        )),
    }
}

/// Decodes a JSON predict body into `(targets, want_variance)`.
fn parse_json_predict(body: &[u8]) -> Result<(Vec<Location>, bool), Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "invalid_json", "request body is not valid UTF-8"))?;
    let doc =
        Json::parse(text).map_err(|err| Response::error(400, "invalid_json", &err.to_string()))?;
    let targets =
        parse_targets(&doc).map_err(|message| Response::error(400, "invalid_query", &message))?;
    let want_variance = match doc.get("variance") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| {
            Response::error(400, "invalid_query", "\"variance\" must be a boolean")
        })?,
    };
    Ok((targets, want_variance))
}

/// Decodes a binary predict body into `(targets, want_variance)`. Only the
/// *structure* is validated here — empty target sets and non-finite
/// coordinates are rejected by the prediction server itself, so both
/// codecs share one `invalid_query` policy.
fn parse_frame_predict(body: &[u8]) -> Result<(Vec<Location>, bool), Response> {
    let frame = PredictRequestFrame::decode(body)
        .map_err(|err| Response::error(400, "invalid_frame", &err.to_string()))?;
    Ok((frame.to_locations(), frame.variance))
}

/// Content negotiation + body decode for the predict endpoint. The actual
/// prediction is the reactor's call to make (inline vs dispatched).
fn decode_predict(name: &str, request: &Request) -> Routed {
    let req_codec = match request_codec(request) {
        Ok(codec) => codec,
        Err(response) => return Routed::Response(response),
    };
    let resp_codec = match response_codec(request, req_codec) {
        Ok(codec) => codec,
        Err(response) => return Routed::Response(response),
    };
    let decoded = match req_codec {
        Codec::Json => parse_json_predict(request.body()),
        Codec::Binary => parse_frame_predict(request.body()),
    };
    match decoded {
        Ok((targets, want_variance)) => Routed::Predict {
            name: name.to_string(),
            targets,
            want_variance,
            resp_codec,
        },
        Err(response) => Routed::Response(response),
    }
}

/// `POST /v1/models/{name}/observe`: content negotiation, body decode, and
/// the synchronous ingest itself (see the routing comment for why this
/// runs on the reactor thread).
fn observe<K: ParamCovariance>(shared: &Shared<K>, name: &str, request: &Request) -> Response {
    let req_codec = match request_codec(request) {
        Ok(codec) => codec,
        Err(response) => return response,
    };
    let resp_codec = match response_codec(request, req_codec) {
        Ok(codec) => codec,
        Err(response) => return response,
    };
    let decoded = match req_codec {
        Codec::Json => parse_json_observe(request.body()),
        Codec::Binary => parse_frame_observe(request.body()),
    };
    let (points, values) = match decoded {
        Ok(decoded) => decoded,
        Err(response) => return response,
    };
    let started = Instant::now();
    match shared.handle.observe(name, &points, &values) {
        Ok(outcome) => {
            observe_response(name, resp_codec, &outcome, started.elapsed().as_secs_f64())
        }
        Err(err) => serve_error_response(&err),
    }
}

/// `POST /v1/models/{name}/evict`: drop the named model from the registry
/// (idempotent — evicting an absent model reports `"evicted": false`).
fn evict<K: ParamCovariance>(shared: &Shared<K>, name: &str) -> Response {
    let evicted = shared.registry.evict(name);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("model", name);
    w.key("evicted");
    w.boolean(evicted);
    w.end_object();
    Response::ok(w.finish())
}

/// Decodes a JSON observe body: `{"points": [[x, y], ...], "values":
/// [...]}`. Length mismatches pass through — the serve layer rejects them
/// with the same `invalid_query` policy both codecs share.
fn parse_json_observe(body: &[u8]) -> Result<(Vec<Location>, Vec<f64>), Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "invalid_json", "request body is not valid UTF-8"))?;
    let doc =
        Json::parse(text).map_err(|err| Response::error(400, "invalid_json", &err.to_string()))?;
    let points = parse_pairs(&doc, "points")
        .map_err(|message| Response::error(400, "invalid_query", &message))?;
    let values = doc
        .get("values")
        .ok_or_else(|| Response::error(400, "invalid_query", "missing \"values\" field"))?
        .as_array()
        .ok_or_else(|| Response::error(400, "invalid_query", "\"values\" must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_f64().ok_or_else(|| {
                Response::error(400, "invalid_query", &format!("value {i} must be a number"))
            })
        })
        .collect::<Result<Vec<f64>, Response>>()?;
    Ok((points, values))
}

/// Decodes a binary observe body (an observe-request frame).
fn parse_frame_observe(body: &[u8]) -> Result<(Vec<Location>, Vec<f64>), Response> {
    let frame = ObserveRequestFrame::decode(body)
        .map_err(|err| Response::error(400, "invalid_frame", &err.to_string()))?;
    Ok(frame.to_points())
}

/// Encodes one applied observe in the negotiated response codec.
fn observe_response(
    name: &str,
    resp_codec: Codec,
    outcome: &exa_geostat::ObserveOutcome,
    latency_seconds: f64,
) -> Response {
    match resp_codec {
        Codec::Binary => Response::ok_frame(
            ObserveResponseFrame {
                accepted: outcome.applied.min(u32::MAX as usize) as u32,
                model_points: outcome.model_points.min(u32::MAX as usize) as u32,
                updates_since_refactor: outcome.updates_since_refactor.min(u32::MAX as u64) as u32,
                used_incremental: outcome.used_incremental,
                refit_triggered: outcome.refit_triggered,
                latency_seconds,
            }
            .encode(),
        ),
        Codec::Json => {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("model", name);
            w.field_uint("accepted", outcome.applied as u64);
            w.field_uint("model_points", outcome.model_points as u64);
            w.field_uint("updates_since_refactor", outcome.updates_since_refactor);
            w.key("used_incremental");
            w.boolean(outcome.used_incremental);
            w.key("refit_triggered");
            w.boolean(outcome.refit_triggered);
            w.field_num("latency_seconds", latency_seconds);
            w.end_object();
            Response::ok(w.finish())
        }
    }
}

/// Encodes one successful prediction in the negotiated response codec.
fn predict_response(name: &str, resp_codec: Codec, served: &ServedPrediction) -> Response {
    match resp_codec {
        Codec::Binary => Response::ok_frame(codec::encode_predict_response(
            &served.values,
            served.variances.as_deref(),
            1,
            served.values.len().min(u32::MAX as usize) as u32,
            served.latency_seconds,
        )),
        Codec::Json => {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("model", name);
            w.key("mean");
            w.begin_array();
            for v in &served.values {
                w.number(*v);
            }
            w.end_array();
            if let Some(variances) = &served.variances {
                w.key("variance");
                w.begin_array();
                for v in variances {
                    w.number(*v);
                }
                w.end_array();
            }
            w.field_uint("points", served.values.len() as u64);
            w.field_uint("coalesced_requests", 1);
            w.field_uint("batch_points", served.values.len() as u64);
            w.field_num("latency_seconds", served.latency_seconds);
            w.end_object();
            Response::ok(w.finish())
        }
    }
}

/// Decodes `"targets": [[x, y], ...]` with precise error messages.
fn parse_targets(doc: &Json) -> Result<Vec<Location>, String> {
    parse_pairs(doc, "targets")
}

/// Decodes a named field of `[[x, y], ...]` coordinate pairs.
fn parse_pairs(doc: &Json, field: &str) -> Result<Vec<Location>, String> {
    let pairs = doc
        .get(field)
        .ok_or_else(|| format!("missing {field:?} field"))?
        .as_array()
        .ok_or_else(|| format!("{field:?} must be an array of [x, y] pairs"))?;
    let noun = &field[..field.len() - 1]; // "targets" → "target"
    let mut out = Vec::with_capacity(pairs.len());
    for (i, pair) in pairs.iter().enumerate() {
        let pair = pair
            .as_array()
            .ok_or_else(|| format!("{noun} {i} must be an [x, y] pair"))?;
        if pair.len() != 2 {
            return Err(format!(
                "{noun} {i} must have exactly 2 coordinates, got {}",
                pair.len()
            ));
        }
        let x = pair[0]
            .as_f64()
            .ok_or_else(|| format!("{noun} {i} x-coordinate must be a number"))?;
        let y = pair[1]
            .as_f64()
            .ok_or_else(|| format!("{noun} {i} y-coordinate must be a number"))?;
        out.push(Location::new(x, y));
    }
    Ok(out)
}

/// Maps [`ServeError`] onto status + structured body: client mistakes are
/// `4xx`, capacity/lifecycle are `503` — never a dropped connection.
fn serve_error_response(err: &ServeError) -> Response {
    match err {
        ServeError::UnknownModel(name) => Response::error(
            404,
            "unknown_model",
            &format!("no model named {name:?} is registered"),
        ),
        ServeError::Rejected(message) => Response::error(400, "invalid_query", message),
        // A contained worker-side panic is a server fault: 5xx, never a
        // client error.
        ServeError::Panicked(message) => Response::error(
            500,
            "internal",
            &format!("prediction panicked on a serve worker: {message}"),
        ),
        ServeError::Overloaded { queue_depth } => {
            let mut resp = Response::error(
                503,
                "overloaded",
                &format!("server overloaded ({queue_depth} requests queued); retry later"),
            );
            resp.retry_after = Some(RETRY_AFTER_OVERLOADED);
            resp
        }
        ServeError::ShuttingDown => {
            let mut resp = Response::error(503, "shutting_down", "server is shutting down");
            resp.close = true;
            resp.retry_after = Some(RETRY_AFTER_SHUTDOWN);
            resp
        }
    }
}
