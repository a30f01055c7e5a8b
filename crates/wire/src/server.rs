//! The TCP front-end: one readiness reactor, generic over the routes
//! behind it.
//!
//! [`HttpServer`] owns all transport. It binds a listener and runs **one
//! reactor thread** that owns every socket: non-blocking accepts (admitted
//! up to a connection cap, refused with a courtesy `503` beyond it),
//! incremental request parsing, idle and slow-request deadlines, status
//! counting, keep-alive, and half-close drains, all driven by a
//! level-triggered [`Poller`] (`epoll` on Linux, `poll(2)` elsewhere — see
//! [`crate::reactor::sys`]). Connections advance through the [`ConnState`]
//! machine; an idle keep-alive socket costs one slab entry and one poller
//! registration, not an OS thread, which is what lets
//! [`DEFAULT_MAX_CONNECTIONS`] sit at 1024.
//!
//! What happens to a parsed request belongs to a [`Service`]. It answers
//! on the spot ([`Handled::Now`]), or takes the request off the reactor
//! ([`Handled::Later`]) and completes it exactly once, from any thread,
//! through a [`Responder`]: a completion queue plus a waker byte. A
//! connection waiting on a deferred answer reads nothing more until it is
//! written. Two services run on this server:
//!
//! * **The node** ([`WireServer`], the routes in this module). A predict
//!   runs inline on the reactor thread when nothing else is in motion (no
//!   deferred request in flight, only one connection readable this poll
//!   batch), skipping both scheduler handoffs — that is what keeps
//!   single-client closed-loop latency low
//!   ([`WireStats::requests_inline`]). Otherwise it is submitted without
//!   blocking ([`ServerHandle::submit`]) and answered by a serve worker
//!   through [`PredictionTicket::on_ready`]
//!   ([`WireStats::requests_dispatched`]).
//! * **The fleet router** (`exa-fleet`). Health and metrics answer on the
//!   spot; every route that touches a backend socket runs on the router's
//!   blocking relay pool and completes through the same queue.
//!
//! Every request is handled inside `catch_unwind`, so a panic anywhere in
//! a service answers `500` and increments [`WireStats::panics_contained`]
//! instead of killing the reactor. A deferred request whose [`Responder`]
//! is dropped unanswered is answered the same way.
//!
//! Graceful shutdown ([`HttpServer::shutdown`]) proceeds outside-in: drop
//! the listener, close connections between requests, let in-flight
//! requests finish (their responses are written with `Connection: close`),
//! then join the reactor. [`WireServer::shutdown`] then drains and joins
//! the prediction server — queued predictions are all answered before the
//! workers exit.
//!
//! [`PredictionTicket::on_ready`]: exa_serve::PredictionTicket::on_ready
//! [`ServerHandle::submit`]: exa_serve::ServerHandle::submit

use crate::client::WireResponse;
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Concurrent connections an [`HttpServer`] admits unless told otherwise;
/// further accepts are answered with an immediate `503` and closed.
/// Connections are slab entries under the reactor, not threads — the
/// marginal cost of an idle one is a poller registration and a few hundred
/// bytes of parser buffer.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Tuning for a [`WireServer`].
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Address to bind; port 0 picks an ephemeral port (read it back with
    /// [`WireServer::local_addr`]).
    pub bind_addr: String,
    /// Concurrent connections served (default
    /// [`DEFAULT_MAX_CONNECTIONS`]); further accepts are answered with an
    /// immediate `503` and closed.
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
            max_connections: DEFAULT_MAX_CONNECTIONS,
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

/// `Retry-After` seconds on a transient `503 overloaded` (queue pressure or
/// connection cap): pressure at this horizon is usually gone in a moment.
const RETRY_AFTER_OVERLOADED: u64 = 1;
/// `Retry-After` seconds on `503 shutting_down`: the node will not be back
/// soon, steer clients away longer.
const RETRY_AFTER_SHUTDOWN: u64 = 5;

/// Locks `m`, recovering the data if a holder panicked: every critical
/// section here is a single queue operation, so the data is valid either
/// way — and a poisoned front door would otherwise answer nothing again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The transport counters an [`HttpServer`] keeps on behalf of its
/// [`Service`]; read them with [`HttpCounters::snapshot`].
#[derive(Default)]
pub struct HttpCounters {
    connections_accepted: AtomicU64,
    connections_refused: AtomicU64,
    requests_ok: AtomicU64,
    requests_client_error: AtomicU64,
    requests_server_error: AtomicU64,
    malformed_requests: AtomicU64,
    disconnects_mid_request: AtomicU64,
    panics_contained: AtomicU64,
}

impl HttpCounters {
    /// The transport fields of a [`WireStats`] — the same counters on the
    /// node and the router. The node's own fields are left 0.
    pub fn snapshot(&self) -> WireStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        WireStats {
            connections_accepted: load(&self.connections_accepted),
            connections_refused: load(&self.connections_refused),
            requests_ok: load(&self.requests_ok),
            requests_client_error: load(&self.requests_client_error),
            requests_server_error: load(&self.requests_server_error),
            malformed_requests: load(&self.malformed_requests),
            disconnects_mid_request: load(&self.disconnects_mid_request),
            panics_contained: load(&self.panics_contained),
            ..WireStats::default()
        }
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn count_status(&self, status: u16) {
        HttpCounters::bump(match status {
            200..=299 => &self.requests_ok,
            400..=499 => &self.requests_client_error,
            _ => &self.requests_server_error,
        });
    }
}

/// One response, ready to frame.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// `Content-Type` of `body`.
    pub content_type: String,
    /// Force-close the connection after writing (on top of the client's own
    /// keep-alive preference).
    pub close: bool,
    /// `Retry-After` seconds on refusals, so backoff is signalled rather
    /// than guessed (the fleet router keys its failover pacing on this).
    pub retry_after: Option<u64>,
    /// Value of the `x-exa-trace-id` response header, written as given.
    pub trace: Option<String>,
    /// Runs on the reactor once the response is framed and its first write
    /// attempted, with the span that took (zero when the peer was already
    /// gone): bookkeeping that needs the write span.
    pub on_written: Option<Box<dyn FnOnce(Duration) + Send>>,
}

impl Response {
    /// A `200` carrying a JSON document.
    pub fn ok(body: String) -> Self {
        Response::typed(200, "application/json", body.into_bytes())
    }

    /// A response with an explicit `Content-Type`.
    pub fn typed(status: u16, content_type: &str, body: Vec<u8>) -> Self {
        Response {
            status,
            body,
            content_type: content_type.to_string(),
            close: false,
            retry_after: None,
            trace: None,
            on_written: None,
        }
    }

    /// The structured JSON error envelope
    /// `{"error": {"code": ..., "message": ...}}`. Errors always use it,
    /// whatever codec the request negotiated — a client that cannot read
    /// JSON errors cannot read the 4xx/5xx contract at all.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("error");
        w.begin_object();
        w.field_str("code", code);
        w.field_str("message", message);
        w.end_object();
        w.end_object();
        Response::typed(status, "application/json", w.finish().into_bytes())
    }

    /// The `500` a contained panic is answered with; it closes the
    /// connection, whose state can no longer be trusted.
    fn internal() -> Self {
        let mut response = Response::error(500, "internal", "request handler panicked");
        response.close = true;
        response
    }
}

/// A backend's answer relayed verbatim: status, body, media type,
/// `Retry-After` and the trace id it echoed.
impl From<WireResponse> for Response {
    fn from(relayed: WireResponse) -> Self {
        Response {
            status: relayed.status,
            body: relayed.body,
            content_type: relayed.content_type,
            close: false,
            retry_after: relayed.retry_after,
            trace: relayed.trace,
            on_written: None,
        }
    }
}

/// The routes behind an [`HttpServer`]. The server owns every byte of
/// transport; a service sees one parsed request at a time.
pub trait Service: Send + Sync + 'static {
    /// The counters the server keeps for this service, for the service to
    /// report in its own statistics.
    fn counters(&self) -> &HttpCounters;

    /// Handles one parsed request on the reactor thread. `quiet` is `true`
    /// when nothing else is in motion — no deferred request in flight and
    /// no other connection readable in this poll batch — the only time a
    /// slow answer on the spot delays no other client. A panic here is
    /// contained and answered `500`.
    fn call(&self, request: Request, quiet: bool) -> Handled;
}

/// A [`Service`]'s decision for one request.
pub enum Handled {
    /// Write this answer now.
    Now(Response),
    /// Take the request off the reactor: the server parks its connection
    /// and runs the closure at once with the request's [`Responder`], which
    /// completes it later, from any thread.
    Later(Box<dyn FnOnce(Responder)>),
}

/// A deferred answer crossing back to the reactor; `None` when its
/// [`Responder`] was dropped unanswered.
struct Completion {
    token: u64,
    response: Option<Response>,
}

/// What the reactor shares with every other thread.
struct Shared {
    completions: Mutex<VecDeque<Completion>>,
    waker: Waker,
    shutting_down: AtomicBool,
}

/// The one way to complete a deferred request: [`Responder::respond`],
/// exactly once. Dropping it unanswered (a panic on the way, most likely)
/// answers `500` instead, so a parked connection never waits on a
/// completion that cannot come.
pub struct Responder {
    token: u64,
    shared: Option<Arc<Shared>>,
}

impl Responder {
    pub fn respond(mut self, response: Response) {
        self.complete(Some(response));
    }

    fn complete(&mut self, response: Option<Response>) {
        if let Some(shared) = self.shared.take() {
            let token = self.token;
            lock(&shared.completions).push_back(Completion { token, response });
            shared.waker.wake();
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.complete(None);
    }
}

/// A running reactor serving one [`Service`]. Dropping it shuts it down.
pub struct HttpServer<S: Service> {
    service: Arc<S>,
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
}

impl<S: Service> HttpServer<S> {
    /// Binds `bind_addr` and starts the reactor thread, admitting up to
    /// `max_connections` at once under `limits`.
    pub fn start(
        bind_addr: &str,
        limits: Limits,
        max_connections: usize,
        service: Arc<S>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(bind_addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        let (waker, wake_rx) = waker_pair()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READABLE)?;
        let shared = Arc::new(Shared {
            completions: Mutex::new(VecDeque::new()),
            waker,
            shutting_down: AtomicBool::new(false),
        });
        let reactor = Reactor {
            service: Arc::clone(&service),
            shared: Arc::clone(&shared),
            poller,
            listener: Some(listener),
            wake_rx,
            limits,
            max_connections: max_connections.max(1),
            conns: TokenSlab::new(),
            inflight: 0,
            serving: 0,
            refusals: 0,
            batch_solo: false,
            shutting: false,
        };
        let reactor = std::thread::Builder::new()
            .name("exa-wire-reactor".into())
            .spawn(move || reactor.run())?;
        Ok(HttpServer {
            service,
            shared,
            local_addr,
            reactor: Some(reactor),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this server runs.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Graceful shutdown: stop accepting, close connections between
    /// requests, finish in-flight ones (answered with `Connection:
    /// close`), and join the reactor. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(reactor) = self.reactor.take() else {
            return;
        };
        // ORDERING: SeqCst — the flag store must be globally ordered before
        // the waker byte below, so a reactor woken by it cannot load the
        // flag as false and go back to sleep.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        let _ = reactor.join();
    }
}

impl<S: Service> Drop for HttpServer<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One slab entry: the transport state machine plus the reactor's
/// request-level bookkeeping for it.
struct ConnEntry {
    conn: Connection,
    /// While `conn` is in [`ConnState::Dispatch`]: whether the deferred
    /// request asked for keep-alive.
    keep_alive: bool,
    /// A `503` courtesy connection at the cap, excluded from the serving
    /// count.
    refusal: bool,
    /// The peer hung up while a deferred request was in flight: the fd is
    /// already deregistered, and the entry is reaped when its completion
    /// arrives.
    peer_gone: bool,
}

struct Reactor<S: Service> {
    service: Arc<S>,
    shared: Arc<Shared>,
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: WakeReceiver,
    limits: Limits,
    max_connections: usize,
    conns: TokenSlab<ConnEntry>,
    /// Deferred requests not yet completed (queued completions included —
    /// the count drops when the completion is *processed*).
    inflight: usize,
    /// Admitted (non-refusal) connections, measured against
    /// `max_connections`.
    serving: usize,
    /// Live refusal entries, bounded by [`MAX_PENDING_REFUSALS`].
    refusals: usize,
    /// Whether at most one connection went readable in the current poll
    /// batch — half of [`Service::call`]'s `quiet`.
    batch_solo: bool,
    shutting: bool,
}

impl<S: Service> Reactor<S> {
    fn counters(&self) -> &HttpCounters {
        self.service.counters()
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
            // ORDERING: SeqCst pairs with shutdown's store: after the waker
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
            if self.serving < self.max_connections {
                self.admit(stream, now);
            } else {
                self.refuse(stream, now);
            }
        }
    }

    /// Slab-inserts and registers a fresh connection; `None` (the socket
    /// dropped) when the poller refuses it.
    fn insert(&mut self, conn: Connection, refusal: bool) -> Option<u64> {
        let fd = conn.fd();
        let token = self.conns.insert(ConnEntry {
            conn,
            keep_alive: false,
            refusal,
            peer_gone: false,
        });
        // A fresh connection starts with read interest — which is exactly
        // what `Connection::new` caches, so no follow-up `arm` is needed.
        if self.poller.register(fd, token, Interest::READABLE).is_err() {
            self.conns.remove(token);
            return None;
        }
        Some(token)
    }

    fn admit(&mut self, stream: TcpStream, now: Instant) {
        let Ok(conn) = Connection::new(stream, self.limits, now) else {
            return;
        };
        if self.insert(conn, false).is_some() {
            self.serving += 1;
            HttpCounters::bump(&self.counters().connections_accepted);
        }
    }

    /// Answers an over-cap connection with `503` and drains it to a clean
    /// close, without ever admitting it to the serving count.
    fn refuse(&mut self, stream: TcpStream, now: Instant) {
        HttpCounters::bump(&self.counters().connections_refused);
        if self.refusals >= MAX_PENDING_REFUSALS {
            return; // drop the socket: the courtesy 503 has a budget too
        }
        let Ok(mut conn) = Connection::new(stream, self.limits, now) else {
            return;
        };
        let mut response = Response::error(503, "overloaded", "connection limit reached");
        response.retry_after = Some(RETRY_AFTER_OVERLOADED);
        conn.queue_response(encode(&response, false), false, now);
        let Some(token) = self.insert(conn, true) else {
            return;
        };
        self.refusals += 1;
        let Some(entry) = self.conns.get_mut(token) else {
            return;
        };
        match entry.conn.try_write(now) {
            WriteOutcome::Pending | WriteOutcome::Closing | WriteOutcome::Flushed => {
                self.arm(token)
            }
            WriteOutcome::Broken => self.remove_conn(token),
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
                FillOutcome::Eof | FillOutcome::Broken => {
                    if entry.conn.started() {
                        HttpCounters::bump(&self.counters().disconnects_mid_request);
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
                    HttpCounters::bump(&self.counters().malformed_requests);
                    let mut response =
                        Response::error(err.status(), "bad_request", &err.to_string());
                    response.close = true;
                    self.answer(token, response, true, now);
                    return;
                }
            }
        }
    }

    /// Hands one parsed request to the service and either answers it or
    /// parks the connection until its deferred answer arrives. Returns
    /// `true` when a response flushed completely on a keep-alive
    /// connection (the caller may parse the next pipelined request).
    fn handle_request(&mut self, token: u64, request: Request, now: Instant) -> bool {
        let keep_alive = request.keep_alive();
        let quiet = self.batch_solo && self.inflight == 0;
        let service = &self.service;
        let start = match catch_unwind(AssertUnwindSafe(|| service.call(request, quiet))) {
            Ok(Handled::Now(response)) => return self.answer(token, response, keep_alive, now),
            Ok(Handled::Later(start)) => start,
            Err(_) => {
                HttpCounters::bump(&self.counters().panics_contained);
                return self.answer(token, Response::internal(), keep_alive, now);
            }
        };
        let Some(entry) = self.conns.get_mut(token) else {
            return false;
        };
        entry.keep_alive = keep_alive;
        entry.conn.begin_dispatch();
        self.inflight += 1;
        let responder = Responder {
            token,
            shared: Some(Arc::clone(&self.shared)),
        };
        // A panic here drops the responder unanswered, which queues the
        // contained-panic `500` like any other completion.
        let _ = catch_unwind(AssertUnwindSafe(move || start(responder)));
        self.arm(token);
        false
    }

    /// Drains the completion queue: write each deferred answer (or the
    /// `500` for an abandoned one) and resume its connection.
    fn process_completions(&mut self, now: Instant) {
        loop {
            let completion = lock(&self.shared.completions).pop_front();
            let Some(Completion { token, response }) = completion else {
                return;
            };
            self.inflight -= 1;
            let response = response.unwrap_or_else(|| {
                HttpCounters::bump(&self.counters().panics_contained);
                Response::internal()
            });
            let Some(entry) = self.conns.get_mut(token) else {
                continue; // the connection died while the answer was made
            };
            if entry.peer_gone {
                // The request is still accounted (the work was done), but
                // there is no one left to write to.
                self.counters().count_status(response.status);
                self.remove_conn(token);
                if let Some(on_written) = response.on_written {
                    on_written(Duration::ZERO);
                }
                continue;
            }
            let keep_alive = entry.keep_alive;
            if self.answer(token, response, keep_alive, now) {
                // Flushed on a keep-alive connection: pipelined requests
                // may already be buffered.
                self.parse_loop(token, now);
            }
            self.arm(token);
        }
    }

    /// Counts, encodes, queues, and starts writing one response, then runs
    /// its `on_written` hook. Returns `true` when it flushed completely and
    /// the connection re-entered keep-alive reading.
    fn answer(
        &mut self,
        token: u64,
        mut response: Response,
        keep_alive_wanted: bool,
        now: Instant,
    ) -> bool {
        let write_start = Instant::now();
        self.counters().count_status(response.status);
        // ORDERING: SeqCst — same total order as shutdown's store, so no
        // response renews keep-alive once shutdown has begun.
        let shutting = self.shared.shutting_down.load(Ordering::SeqCst);
        let keep_alive = keep_alive_wanted && !response.close && !shutting;
        let bytes = encode(&response, keep_alive);
        let flushed = match self.conns.get_mut(token) {
            None => false,
            Some(entry) => {
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
        };
        if let Some(on_written) = response.on_written.take() {
            on_written(write_start.elapsed());
        }
        flushed
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
                    HttpCounters::bump(&self.counters().disconnects_mid_request);
                    self.remove_conn(token);
                }
                ConnState::Writing | ConnState::Draining => self.remove_conn(token),
                ConnState::Dispatch => unreachable!("dispatch carries no deadline"),
            }
        }
    }

    /// Stops accepting and sheds every connection not occupied with a
    /// request: reading-state connections close immediately (idle or not),
    /// dispatch/write/drain states finish their work.
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

/// Frames `response` for the wire.
fn encode(response: &Response, keep_alive: bool) -> Vec<u8> {
    let trace = response.trace.as_deref().map(|trace| (TRACE_HEADER, trace));
    http::encode_response(
        response.status,
        &response.content_type,
        &response.body,
        keep_alive,
        response.retry_after,
        trace.as_slice(),
    )
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
        /// (Deferred requests dropped unanswered included.) The wire-level
        /// companion of
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

/// The node service: the prediction routes over one registry and its
/// private [`PredictionServer`].
struct Node<K: ParamCovariance> {
    registry: Arc<ModelRegistry<K>>,
    handle: ServerHandle<K>,
    http: HttpCounters,
    requests_inline: AtomicU64,
    requests_dispatched: AtomicU64,
    backend: &'static str,
    /// When this server started — the base of `uptime_seconds`.
    started: Instant,
    stats_epoch: AtomicU64,
    stages: Arc<Stages>,
}

/// Wire-side stage histograms for predict requests (the queue/solve
/// stages live in the serve layer's own histograms) and the slowest recent
/// predicts with per-stage breakdowns (`GET /v1/debug/slow`).
#[derive(Default)]
struct Stages {
    parse: Histogram,
    write: Histogram,
    request: Histogram,
    slow: SlowRing,
}

impl<K: ParamCovariance> Node<K> {
    fn wire_stats(&self) -> WireStats {
        WireStats {
            requests_inline: self.requests_inline.load(Ordering::Relaxed),
            requests_dispatched: self.requests_dispatched.load(Ordering::Relaxed),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            stats_epoch: self.stats_epoch.load(Ordering::Relaxed),
            ..self.http.snapshot()
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

impl<K: ParamCovariance> Service for Node<K> {
    fn counters(&self) -> &HttpCounters {
        &self.http
    }

    /// Routes one request: answer it, run its predict inline, or dispatch
    /// the predict to the serve pool.
    fn call(&self, request: Request, quiet: bool) -> Handled {
        let request_started = Instant::now();
        let trace_in = request.header(TRACE_HEADER).and_then(TraceId::parse);
        let (model, targets, want_variance, resp_codec) = match route(self, &request) {
            Routed::Response(response) => return Handled::Now(response),
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
        let pending = PendingPredict {
            model,
            resp_codec,
            trace,
            request_started,
            // Routing includes the body decode, so this is the parse span.
            parse_ns: request_started.elapsed().as_nanos() as u64,
            stages: Arc::clone(&self.stages),
        };
        let handle = &self.handle;
        if quiet {
            self.requests_inline.fetch_add(1, Ordering::Relaxed);
            let result = handle.predict_traced(&pending.model, targets, want_variance, Some(trace));
            return Handled::Now(pending.finish(result));
        }
        // Dispatch path: non-blocking submit, completion via callback.
        let ticket = match handle.submit_traced(&pending.model, targets, want_variance, Some(trace))
        {
            Ok(ticket) => ticket,
            Err(err) => {
                let mut response = serve_error_response(&err);
                response.trace = Some(trace.to_string());
                return Handled::Now(response);
            }
        };
        self.requests_dispatched.fetch_add(1, Ordering::Relaxed);
        Handled::Later(Box::new(move |responder: Responder| {
            // Fires on whichever thread fulfills the prediction. An encode
            // panic drops the responder, which answers `500`.
            ticket.on_ready(move |result| {
                if let Ok(response) = catch_unwind(AssertUnwindSafe(|| pending.finish(result))) {
                    responder.respond(response);
                }
            });
        }))
    }
}

/// What a routed predict carries until it is answered: everything needed
/// to encode the response and record its stage spans.
struct PendingPredict {
    model: String,
    resp_codec: Codec,
    /// The request's trace id, echoed in the response and attributed in
    /// the slow ring.
    trace: TraceId,
    /// When the request was handed to the node (total-span base).
    request_started: Instant,
    /// Routing + body-decode span, measured before the predict.
    parse_ns: u64,
    stages: Arc<Stages>,
}

impl PendingPredict {
    /// Encodes the answer, echoing the trace id; once written, the stage
    /// spans and the slow-ring entry are recorded.
    fn finish(self, result: Result<ServedPrediction, ServeError>) -> Response {
        let (mut response, (queue_ns, solve_ns)) = match &result {
            Ok(served) => (
                predict_response(&self.model, self.resp_codec, served),
                stage_ns(served),
            ),
            Err(err) => (serve_error_response(err), (0, 0)),
        };
        response.trace = Some(self.trace.to_string());
        response.on_written = Some(Box::new(move |write| {
            let write_ns = write.as_nanos() as u64;
            let total_ns = self.request_started.elapsed().as_nanos() as u64;
            let stages = &self.stages;
            stages.parse.record_ns(self.parse_ns);
            stages.write.record_ns(write_ns);
            stages.request.record_ns(total_ns);
            stages.slow.record(SlowEntry {
                trace: self.trace,
                model: self.model,
                parse_ns: self.parse_ns,
                queue_ns,
                solve_ns,
                write_ns,
                total_ns,
                seq: 0,
            });
        }));
        response
    }
}

/// The running wire front-end: the node service on an [`HttpServer`].
/// See the [crate docs](crate) for the wire schema and an end-to-end
/// example.
pub struct WireServer<K: ParamCovariance> {
    // Field order is drop order: an un-shutdown drop stops the reactor
    // before the prediction server's own Drop drains its queue.
    http: HttpServer<Node<K>>,
    prediction: PredictionServer<K>,
}

impl<K: ParamCovariance> WireServer<K> {
    /// Binds `config.bind_addr`, starts the underlying [`PredictionServer`]
    /// and the reactor thread, and begins serving.
    pub fn start(registry: Arc<ModelRegistry<K>>, config: WireConfig) -> io::Result<Self> {
        let prediction = PredictionServer::start(Arc::clone(&registry), config.serve);
        let node = Node {
            registry,
            handle: prediction.handle(),
            http: HttpCounters::default(),
            requests_inline: AtomicU64::new(0),
            requests_dispatched: AtomicU64::new(0),
            backend: Poller::preferred_backend(),
            started: Instant::now(),
            stats_epoch: AtomicU64::new(0),
            stages: Arc::default(),
        };
        let limits = Limits {
            max_header_bytes: config.max_header_bytes,
            max_body_bytes: config.max_body_bytes,
            request_deadline: config.request_deadline,
            idle_timeout: config.idle_timeout,
        };
        let http = HttpServer::start(
            &config.bind_addr,
            limits,
            config.max_connections,
            Arc::new(node),
        )?;
        Ok(WireServer { http, prediction })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Which readiness backend the reactor is running on (`"epoll"` or
    /// `"poll"`).
    pub fn backend(&self) -> &'static str {
        self.http.service().backend
    }

    /// Wire-level statistics snapshot.
    pub fn stats(&self) -> WireStats {
        self.http.service().wire_stats()
    }

    /// Statistics of the underlying prediction server.
    pub fn serve_stats(&self) -> ServerStats {
        self.http.service().handle.stats()
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, join
    /// the reactor thread, then drain and join the prediction server.
    /// Returns the final wire and serving statistics.
    pub fn shutdown(self) -> (WireStats, ServerStats) {
        let WireServer {
            mut http,
            prediction,
        } = self;
        http.shutdown();
        (http.service().wire_stats(), prediction.shutdown())
    }
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
fn route<K: ParamCovariance>(node: &Node<K>, request: &Request) -> Routed {
    let path = request.path();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method(), segments.as_slice()) {
        ("GET", ["healthz"]) => Routed::Response(health(node)),
        ("GET", ["v1", "models"]) => Routed::Response(models(node)),
        ("GET", ["v1", "stats"]) => Routed::Response(stats(node)),
        ("GET", ["metrics"]) => Routed::Response(metrics(node)),
        ("GET", ["v1", "debug", "slow"]) => Routed::Response(debug_slow(node)),
        ("POST", ["v1", "models", name, "predict"]) => decode_predict(name, request),
        // The write path runs synchronously on the reactor thread: that
        // serializes observes per node (and therefore per model) by
        // construction, which the incremental factor update requires.
        ("POST", ["v1", "models", name, "observe"]) => {
            Routed::Response(observe(node, name, request))
        }
        // Admin: drop a model so the next miss reloads it through the
        // loader — the fleet router uses this to un-stale a replica that
        // missed an observe.
        ("POST", ["v1", "models", name, "evict"]) => Routed::Response(evict(node, name)),
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

fn health<K: ParamCovariance>(node: &Node<K>) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("status", "ok");
    w.field_uint("models", node.registry.len() as u64);
    w.end_object();
    Response::ok(w.finish())
}

fn models<K: ParamCovariance>(node: &Node<K>) -> Response {
    // One lock acquisition: the entry list and the counters must describe
    // the same instant, or eviction observers see books that don't balance.
    let (entries, stats) = node.registry.snapshot();
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
fn stats<K: ParamCovariance>(node: &Node<K>) -> Response {
    let (wire, serve, registry) = node.render_snapshots();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("wire");
    w.begin_object();
    w.field_str("backend", node.backend);
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
fn metrics<K: ParamCovariance>(node: &Node<K>) -> Response {
    let (wire, serve, registry) = node.render_snapshots();
    let mut p = PromText::new();
    p.stats("wire", WireStats::STATS, &wire);
    p.stats("serve", ServerStats::STATS, &serve);
    p.stats("registry", RegistryStats::STATS, &registry);
    p.histogram(
        "exa_serve_latency_seconds",
        "Submit-to-response latency of the prediction server.",
        &node.handle.latency_histogram(),
    );
    p.histogram(
        "exa_wire_request_seconds",
        "Wire-level predict latency: request carved to response queued.",
        &node.stages.request.snapshot(),
    );
    p.histogram(
        "exa_serve_observe_seconds",
        "Latency of observe batches (incremental update or fallback refit).",
        &node.handle.observe_histogram(),
    );
    let parse = node.stages.parse.snapshot();
    let queue = node.handle.queue_histogram();
    let solve = node.handle.solve_histogram();
    let write = node.stages.write.snapshot();
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
    Response::typed(200, "text/plain; version=0.0.4", p.render().into_bytes())
}

/// `GET /v1/debug/slow`: the slow ring, slowest first, with per-stage
/// nanosecond breakdowns and the trace id each entry belongs to.
fn debug_slow<K: ParamCovariance>(node: &Node<K>) -> Response {
    let entries = node.stages.slow.snapshot();
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
    w.field_uint("recorded", node.stages.slow.recorded());
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
fn observe<K: ParamCovariance>(node: &Node<K>, name: &str, request: &Request) -> Response {
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
    match node.handle.observe(name, &points, &values) {
        Ok(outcome) => {
            observe_response(name, resp_codec, &outcome, started.elapsed().as_secs_f64())
        }
        Err(err) => serve_error_response(&err),
    }
}

/// `POST /v1/models/{name}/evict`: drop the named model from the registry
/// (idempotent — evicting an absent model reports `"evicted": false`).
fn evict<K: ParamCovariance>(node: &Node<K>, name: &str) -> Response {
    let evicted = node.registry.evict(name);
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
        Codec::Binary => ok_frame(
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
        Codec::Binary => ok_frame(codec::encode_predict_response(
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

/// A `200` carrying one binary frame.
fn ok_frame(body: Vec<u8>) -> Response {
    Response::typed(200, codec::FRAME_CONTENT_TYPE, body)
}
