//! The fleet router: one socket fronting N `exa-wire` nodes.
//!
//! The router is a [`Service`] on `exa-wire`'s own [`HttpServer`] — the
//! same readiness reactor every node runs, so the router gets the node's
//! connection cap, deadlines, per-request panic containment and
//! half-close drain without a second copy of any of them. `/healthz` and
//! `/metrics` answer on the reactor thread. Every route that touches a
//! backend socket — predict relays, observe fan-outs and
//! `/v1/fleet/stats` — runs its blocking [`WireClient`] round trips on a
//! relay pool and completes through the reactor's completion queue. The
//! backend connections are [`WireClient`] keep-alive pools
//! ([`NodePool`]), and every error the router originates itself is the
//! wire JSON envelope ([`Response::error`]).
//!
//! Predict bodies cross the router **verbatim** in both directions — the
//! router never decodes either codec, so what a backend computes is
//! byte-for-byte what the client receives (bit-identity is a test, not an
//! aspiration).
//!
//! Observes are writes, so they **fan out** instead of failing over: a
//! `POST /v1/models/{name}/observe` is relayed verbatim to *every*
//! replica of the model. All replicas succeeding answers `200` with the
//! first replica's response; a mixed outcome answers a `207` report
//! naming each replica's status, and every replica that missed the batch
//! is demoted and marked **stale** — before the router's next predict
//! relay to that `(node, model)` pair it evicts the model there, so the
//! node refetches a current copy on its next miss instead of serving a
//! factor that never saw the observation.
//!
//! [`WireClient`]: exa_wire::WireClient

use crate::lock;
use crate::placement::{NodeId, PlacementMap};
use crate::pool::{NodeHealth, NodePool};
use crate::relay::Relays;
use crate::{FleetConfig, NodeSpec};
use exa_telemetry::{Histogram, PromText, TraceId, TRACE_HEADER};
use exa_wire::http::Request;
use exa_wire::json::{Json, JsonWriter};
use exa_wire::{
    Handled, HttpCounters, HttpServer, Responder, Response, Service, WireResponse,
    DEFAULT_MAX_CONNECTIONS,
};
use std::collections::HashSet;
use std::io::{self, ErrorKind};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seconds clients are told to back off when every replica is down.
const RETRY_AFTER_NO_REPLICAS: u64 = 1;

exa_telemetry::stats_struct! {
    /// A point-in-time snapshot of the router's counters — the `router`
    /// object of `GET /v1/fleet/stats` and `exa_fleet_*` in `GET /metrics`,
    /// both rendered from [`RouterStats::STATS`].
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct RouterStats {
        /// Client connections accepted by the router.
        /// (Admitted under the connection cap.)
        Counter connections_accepted: u64,
        /// Requests answered 2xx by the router.
        /// (Predict relays and local endpoints alike.)
        Counter requests_ok: u64,
        /// Requests answered non-2xx by the router.
        /// (4xx and 5xx alike, malformed requests included.)
        Counter requests_error: u64,
        /// Predicts relayed to a backend (one per answered predict).
        /// However many attempts it took.
        Counter forwards: u64,
        /// Attempts abandoned for the next replica after a transport failure.
        /// Each one also demoted the failing node to suspect.
        Counter failovers: u64,
        /// unknown_model answers that sent the router to another replica.
        Counter misses_retried: u64,
        /// Placement-epoch changes observed.
        /// (Pins, topology edits.)
        Counter rebalances: u64,
        /// Stale pooled connections transparently redialed.
        /// (By the pooled [`WireClient`](exa_wire::WireClient)s.)
        Counter reconnects: u64,
        /// Node demotions to suspect, summed across the fleet.
        Counter demotions: u64,
        /// Observe batches applied by every replica of their model.
        /// (Answered `200`.)
        Counter observes_relayed: u64,
        /// Observe fan-outs answered with the 207 partial report.
        /// Some — not all — replicas succeeded.
        Counter observe_partial: u64,
        /// Replicas marked stale after missing an observe fan-out.
        /// Each will be evicted before its next relayed predict, forcing a
        /// refetch.
        Counter stale_marks: u64,
        /// Evictions issued to un-stale a replica before a predict relay.
        Counter stale_evictions: u64,
        /// Seconds since this router started.
        Gauge uptime_seconds: f64,
        /// Render counter, monotone per process; a decrease means a restart.
        /// Bumped by every `/v1/fleet/stats` and `/metrics` render.
        Gauge stats_epoch: u64,
        /// Median client-facing predict latency at the router.
        /// (Route entry → reply ready, from the request histogram.)
        Gauge request_p50_seconds: f64,
        /// 95th-percentile client-facing predict latency at the router.
        Gauge request_p95_seconds: f64,
        /// 99th-percentile client-facing predict latency at the router.
        Gauge request_p99_seconds: f64,
    }
}

#[derive(Default)]
struct Counters {
    forwards: AtomicU64,
    failovers: AtomicU64,
    misses_retried: AtomicU64,
    rebalances: AtomicU64,
    reconnects: AtomicU64,
    observes_relayed: AtomicU64,
    observe_partial: AtomicU64,
    stale_marks: AtomicU64,
    stale_evictions: AtomicU64,
}

struct Shared {
    nodes: Vec<NodePool>,
    map: Mutex<PlacementMap>,
    /// Transport counters, kept by the reactor.
    http: HttpCounters,
    counters: Counters,
    suspect_cooldown: Duration,
    /// Spreads consecutive predicts across a model's replica set.
    rotate: AtomicUsize,
    /// Last placement epoch seen, for the rebalance counter.
    last_epoch: AtomicU64,
    /// When the router started — base of `uptime_seconds`.
    started: Instant,
    stats_epoch: AtomicU64,
    /// Client-facing predict latency (route entry → reply ready).
    request_hist: Histogram,
    /// Upstream relay span: one backend round trip per attempt.
    relay_hist: Histogram,
    /// `(node, model)` pairs that missed an observe fan-out. Before the
    /// next predict relay to such a pair the router evicts the model on
    /// that node, so the node refetches a fresh copy on its next miss
    /// instead of serving a factor that never saw the observation.
    stale: Mutex<HashSet<(NodeId, String)>>,
}

impl Shared {
    fn stats(&self) -> RouterStats {
        let c = &self.counters;
        let http = self.http.snapshot();
        let request_latency = self.request_hist.snapshot();
        RouterStats {
            connections_accepted: http.connections_accepted,
            requests_ok: http.requests_ok,
            requests_error: http.requests_client_error + http.requests_server_error,
            forwards: c.forwards.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            misses_retried: c.misses_retried.load(Ordering::Relaxed),
            rebalances: c.rebalances.load(Ordering::Relaxed),
            reconnects: c.reconnects.load(Ordering::Relaxed),
            demotions: self.nodes.iter().map(NodePool::demotions).sum(),
            observes_relayed: c.observes_relayed.load(Ordering::Relaxed),
            observe_partial: c.observe_partial.load(Ordering::Relaxed),
            stale_marks: c.stale_marks.load(Ordering::Relaxed),
            stale_evictions: c.stale_evictions.load(Ordering::Relaxed),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            stats_epoch: self.stats_epoch.load(Ordering::Relaxed),
            request_p50_seconds: request_latency.p50(),
            request_p95_seconds: request_latency.p95(),
            request_p99_seconds: request_latency.p99(),
        }
    }

    /// The snapshot one `/v1/fleet/stats` or `/metrics` render reports:
    /// each render takes the next `stats_epoch`.
    fn render_snapshot(&self) -> RouterStats {
        let stats_epoch = self.stats_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        RouterStats {
            stats_epoch,
            ..self.stats()
        }
    }
}

/// A running fleet router; dropping it shuts it down like
/// [`FleetRouter::shutdown`].
pub struct FleetRouter {
    http: HttpServer<Front>,
}

impl FleetRouter {
    /// Builds the placement map over `nodes` (ids follow input order),
    /// applies the configured pins, binds the router socket and starts
    /// serving.
    pub fn start(nodes: Vec<NodeSpec>, config: FleetConfig) -> io::Result<FleetRouter> {
        if nodes.is_empty() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "a fleet needs at least one node",
            ));
        }
        let mut map = PlacementMap::new(nodes.iter().map(|n| n.name.clone()).collect())
            .with_replication(config.replication.clamp(1, nodes.len()));
        for (model, replicas) in &config.pins {
            map.pin(model.clone(), replicas.clone());
        }
        let last_epoch = map.epoch();
        let pools = nodes
            .iter()
            .map(|spec| NodePool::new(&spec.name, spec.addr, config.connect_timeout))
            .collect();
        let shared = Arc::new(Shared {
            nodes: pools,
            map: Mutex::new(map),
            http: HttpCounters::default(),
            counters: Counters::default(),
            suspect_cooldown: config.suspect_cooldown,
            rotate: AtomicUsize::new(0),
            last_epoch: AtomicU64::new(last_epoch),
            started: Instant::now(),
            stats_epoch: AtomicU64::new(0),
            request_hist: Histogram::new(),
            relay_hist: Histogram::new(),
            stale: Mutex::new(HashSet::new()),
        });
        let front = Front {
            shared,
            relays: Arc::default(),
        };
        let http = HttpServer::start(
            &config.bind_addr,
            config.limits,
            DEFAULT_MAX_CONNECTIONS,
            Arc::new(front),
        )?;
        Ok(FleetRouter { http })
    }

    fn shared(&self) -> &Shared {
        &self.http.service().shared
    }

    /// The router's bound address (ephemeral-port friendly).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Router counter snapshot.
    pub fn stats(&self) -> RouterStats {
        self.shared().stats()
    }

    /// Health of node `id` as the router currently sees it.
    pub fn node_health(&self, id: NodeId) -> NodeHealth {
        self.shared().nodes[id].health()
    }

    /// Pins `model` to an explicit replica list, overriding the ring;
    /// bumps the placement epoch (visible as a rebalance).
    pub fn pin(&self, model: &str, replicas: Vec<NodeId>) {
        lock(&self.shared().map).pin(model.to_string(), replicas);
    }

    /// Removes a pin, returning `model` to ring placement.
    pub fn unpin(&self, model: &str) {
        lock(&self.shared().map).unpin(model);
    }

    /// Stops accepting, lets in-flight requests finish, joins the reactor
    /// and every relay thread, and returns the final counters.
    pub fn shutdown(mut self) -> RouterStats {
        self.wind_down();
        self.stats()
    }

    fn wind_down(&mut self) {
        self.http.shutdown();
        // The reactor has answered every deferred request, so the relay
        // threads only have their own exits left.
        self.http.service().relays.join();
    }
}

impl Drop for FleetRouter {
    fn drop(&mut self) {
        self.wind_down();
    }
}

/// The router's [`Service`]: what the reactor calls for each request.
struct Front {
    shared: Arc<Shared>,
    relays: Arc<Relays>,
}

/// The routes that touch a backend socket, run on the relay pool.
enum Upstream {
    Predict(String),
    Observe(String),
    Stats,
}

impl Service for Front {
    fn counters(&self) -> &HttpCounters {
        &self.shared.http
    }

    fn call(&self, request: Request, _quiet: bool) -> Handled {
        let path = request.path();
        let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
        let upstream = match (request.method(), segments.as_slice()) {
            ("GET", ["healthz"]) => return Handled::Now(health(&self.shared)),
            ("GET", ["metrics"]) => return Handled::Now(metrics(&self.shared)),
            ("GET", ["v1", "fleet", "stats"]) => Upstream::Stats,
            ("POST", ["v1", "models", name, "predict"]) => Upstream::Predict(name.to_string()),
            ("POST", ["v1", "models", name, "observe"]) => Upstream::Observe(name.to_string()),
            (
                _,
                ["healthz"]
                | ["v1", "fleet", "stats"]
                | ["metrics"]
                | ["v1", "models", _, "predict"]
                | ["v1", "models", _, "observe"],
            ) => {
                return Handled::Now(Response::error(
                    405,
                    "method_not_allowed",
                    &format!("{} is not supported on {path}", request.method()),
                ))
            }
            _ => {
                return Handled::Now(Response::error(
                    404,
                    "unknown_path",
                    &format!("no route for {path}"),
                ))
            }
        };
        let shared = Arc::clone(&self.shared);
        let relays = Arc::clone(&self.relays);
        Handled::Later(Box::new(move |responder: Responder| {
            relays.execute(
                responder,
                Box::new(move || match upstream {
                    Upstream::Predict(model) => proxy_predict(&shared, &request, &model),
                    Upstream::Observe(model) => proxy_observe(&shared, &request, &model),
                    Upstream::Stats => fleet_stats(&shared),
                }),
            )
        }))
    }
}

fn health(shared: &Shared) -> Response {
    let live = shared
        .nodes
        .iter()
        .filter(|n| n.health() == NodeHealth::Up)
        .count();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("status", "ok");
    w.field_uint("nodes", shared.nodes.len() as u64);
    w.field_uint("nodes_up", live as u64);
    w.end_object();
    Response::ok(w.finish())
}

/// `model`'s replica set under the current placement map; the first
/// handler to see a new map epoch counts it as a rebalance.
fn replicas_of(shared: &Shared, model: &str) -> Vec<NodeId> {
    let (replicas, epoch) = {
        let map = lock(&shared.map);
        (map.replicas(model), map.epoch())
    };
    // ORDERING: SeqCst — epoch swaps from concurrent handlers must form one
    // total order so exactly one handler observes each transition and the
    // rebalance counter moves once per epoch change.
    if shared.last_epoch.swap(epoch, Ordering::SeqCst) != epoch {
        shared.counters.rebalances.fetch_add(1, Ordering::Relaxed);
    }
    replicas
}

/// The predict relay entry point: mints (or adopts) the request's trace
/// id, stamps it on the upstream relay, echoes it to the client, and
/// feeds the router-side latency histogram.
fn proxy_predict(shared: &Shared, request: &Request, model: &str) -> Response {
    let started = Instant::now();
    // The router is the trace's origin for fleet traffic: adopt a caller's
    // id when one arrives (nested routers), mint otherwise. The id rides
    // the `x-exa-trace-id` request header to the backend, which records it
    // in its slow ring and echoes it back.
    let trace = request
        .header(TRACE_HEADER)
        .and_then(TraceId::parse)
        .unwrap_or_else(TraceId::mint);
    let trace_hex = trace.to_string();
    let mut response = relay_predict(shared, request, model, &trace_hex);
    if response.trace.is_none() {
        response.trace = Some(trace_hex);
    }
    shared.request_hist.record(started.elapsed());
    response
}

/// The predict relay: resolve the replica set, try candidates in rotated
/// health-sorted order, hand back the first real answer verbatim.
///
/// * Transport failure → demote the node, fail over to the next replica.
/// * `404 unknown_model` → the node could not pull the model either; try
///   the rest of the replica set before letting the 404 through.
/// * Everything else (including backend 4xx/5xx) is the answer.
fn relay_predict(shared: &Shared, request: &Request, model: &str, trace_hex: &str) -> Response {
    let replicas = replicas_of(shared, model);
    if replicas.is_empty() {
        return Response::error(503, "no_replicas_available", "the fleet has no live nodes");
    }
    // Rotate the starting replica so a replicated model's traffic
    // spreads instead of hammering its primary, then sort suspects last.
    let offset = if replicas.len() > 1 {
        shared.rotate.fetch_add(1, Ordering::Relaxed) % replicas.len()
    } else {
        0
    };
    let mut order: Vec<NodeId> = (0..replicas.len())
        .map(|i| replicas[(i + offset) % replicas.len()])
        .collect();
    order.sort_by_key(|&id| shared.nodes[id].health() == NodeHealth::Suspect);

    let content_type = request.header("content-type").unwrap_or("application/json");
    let accept = request.header("accept").unwrap_or("*/*");
    let target = request.path();
    let mut last_miss: Option<Response> = None;
    let candidates = order.len();
    for (attempt, id) in order.into_iter().enumerate() {
        let pool = &shared.nodes[id];
        let mut client = match pool.checkout() {
            Ok(client) => client,
            Err(_) => {
                pool.demote(shared.suspect_cooldown);
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        // A stale replica missed an observe others applied: evict the
        // model there first, so its next miss refetches a current copy
        // instead of serving the pre-observation factor.
        if is_stale(shared, id, model) {
            let evict = format!("/v1/models/{model}/evict");
            if let Ok(response) = client.request_raw(
                "POST",
                &evict,
                "application/json",
                "application/json",
                b"{}",
            ) {
                if (200..300).contains(&response.status) {
                    clear_stale(shared, id, model);
                    shared
                        .counters
                        .stale_evictions
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            // On failure the mark stays: the predict below hits the same
            // problem and fails over.
        }
        let before = client.reconnects();
        let relay_started = Instant::now();
        let result = client.request_raw_with_headers(
            "POST",
            target,
            content_type,
            accept,
            request.body(),
            &[(TRACE_HEADER, trace_hex)],
        );
        shared.relay_hist.record(relay_started.elapsed());
        shared
            .counters
            .reconnects
            .fetch_add(client.reconnects() - before, Ordering::Relaxed);
        match result {
            Ok(response) => {
                if response.status == 503 && error_code(&response.body) == Some("shutting_down") {
                    // The node announced its own drain; route around it.
                    // Its connection is about to close — don't pool it.
                    drop(client);
                    pool.demote(shared.suspect_cooldown);
                    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                pool.promote();
                pool.checkin(client);
                if response.status == 404 && error_code(&response.body) == Some("unknown_model") {
                    if attempt + 1 < candidates {
                        shared
                            .counters
                            .misses_retried
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    last_miss = Some(Response::from(response));
                    continue;
                }
                shared.counters.forwards.fetch_add(1, Ordering::Relaxed);
                return Response::from(response);
            }
            Err(_) => {
                // The connection is poisoned; drop it rather than pool it.
                drop(client);
                pool.demote(shared.suspect_cooldown);
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        }
    }
    match last_miss {
        // Every live replica answered `unknown_model`: the 404 is real.
        Some(response) => response,
        None => {
            let mut response = Response::error(
                503,
                "no_replicas_available",
                &format!("every replica of {model:?} is unreachable"),
            );
            response.retry_after = Some(RETRY_AFTER_NO_REPLICAS);
            response
        }
    }
}

/// The observe fan-out entry point: same trace handling and client-facing
/// histogram as predicts.
fn proxy_observe(shared: &Shared, request: &Request, model: &str) -> Response {
    let started = Instant::now();
    let trace = request
        .header(TRACE_HEADER)
        .and_then(TraceId::parse)
        .unwrap_or_else(TraceId::mint);
    let trace_hex = trace.to_string();
    let mut response = fan_observe(shared, request, model, &trace_hex);
    if response.trace.is_none() {
        response.trace = Some(trace_hex);
    }
    shared.request_hist.record(started.elapsed());
    response
}

/// Per-replica outcome of one observe fan-out.
struct ObserveOutcome {
    node: NodeId,
    /// Relayed status, or `None` on a connect/transport failure.
    status: Option<u16>,
    /// `error.code` of the relayed JSON envelope, when there was one.
    code: Option<String>,
}

/// The observe fan-out: a write must land on **every** replica of the
/// model — failing over to one replica would fork the replica set. The
/// body crosses verbatim to each replica in placement order; the reactor
/// on each node applies it synchronously, so replicas stay serialized
/// per model without any router-side locking.
///
/// * Every replica 2xx → `200` with the first replica's response
///   verbatim (the update is deterministic, so the documents agree on
///   everything but latency).
/// * A deterministic rejection (non-404 4xx) with no successes → that
///   response verbatim; nothing was applied anywhere, the replicas still
///   agree.
/// * Mixed outcomes → a `207` JSON report naming each replica's status.
///
/// A replica that may have *missed* a batch (transport failure — which
/// can leave an applied-but-unconfirmed write behind — or any 5xx) is
/// demoted to suspect and stale-marked; a 4xx next to a success is
/// stale-marked too (the replicas no longer agree). `404 unknown_model`
/// replicas hold nothing that can go stale and stay healthy.
fn fan_observe(shared: &Shared, request: &Request, model: &str, trace_hex: &str) -> Response {
    let replicas = replicas_of(shared, model);
    if replicas.is_empty() {
        return Response::error(503, "no_replicas_available", "the fleet has no live nodes");
    }
    let content_type = request.header("content-type").unwrap_or("application/json");
    let accept = request.header("accept").unwrap_or("*/*");
    let target = request.path();

    let mut outcomes: Vec<ObserveOutcome> = Vec::with_capacity(replicas.len());
    let mut first_success: Option<WireResponse> = None;
    let mut first_rejection: Option<WireResponse> = None;
    let mut last_miss: Option<WireResponse> = None;
    for id in replicas {
        let pool = &shared.nodes[id];
        let mut client = match pool.checkout() {
            Ok(client) => client,
            Err(_) => {
                pool.demote(shared.suspect_cooldown);
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                outcomes.push(ObserveOutcome {
                    node: id,
                    status: None,
                    code: None,
                });
                continue;
            }
        };
        let before = client.reconnects();
        let relay_started = Instant::now();
        let result = client.request_raw_with_headers(
            "POST",
            target,
            content_type,
            accept,
            request.body(),
            &[(TRACE_HEADER, trace_hex)],
        );
        shared.relay_hist.record(relay_started.elapsed());
        shared
            .counters
            .reconnects
            .fetch_add(client.reconnects() - before, Ordering::Relaxed);
        match result {
            Ok(response) => {
                let status = response.status;
                let code = if (200..300).contains(&status) {
                    None
                } else {
                    error_code_owned(&response.body)
                };
                if (200..300).contains(&status) {
                    pool.promote();
                    pool.checkin(client);
                    if first_success.is_none() {
                        first_success = Some(response);
                    }
                } else if status == 404 && code.as_deref() == Some("unknown_model") {
                    // A healthy node that simply doesn't hold the model.
                    pool.promote();
                    pool.checkin(client);
                    last_miss = Some(response);
                } else if (400..500).contains(&status) {
                    // Deterministic rejection: the replica validated the
                    // batch and refused; its state didn't change.
                    pool.promote();
                    pool.checkin(client);
                    if first_rejection.is_none() {
                        first_rejection = Some(response);
                    }
                } else if status == 503 && code.as_deref() == Some("shutting_down") {
                    // The node announced its own drain; its connection is
                    // about to close — don't pool it.
                    drop(client);
                    pool.demote(shared.suspect_cooldown);
                } else {
                    // 5xx: the batch was not applied on this replica.
                    pool.checkin(client);
                    pool.demote(shared.suspect_cooldown);
                }
                outcomes.push(ObserveOutcome {
                    node: id,
                    status: Some(status),
                    code,
                });
            }
            Err(_) => {
                drop(client);
                pool.demote(shared.suspect_cooldown);
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                outcomes.push(ObserveOutcome {
                    node: id,
                    status: None,
                    code: None,
                });
            }
        }
    }

    let total = outcomes.len();
    let successes = outcomes
        .iter()
        .filter(|o| matches!(o.status, Some(s) if (200..300).contains(&s)))
        .count();
    // Stale-mark the replicas that may have missed a batch another
    // replica applied (see the function docs for the classification).
    let mut marks = 0u64;
    for outcome in &outcomes {
        let missed = match outcome.status {
            None => true,
            Some(status) if status >= 500 => true,
            Some(status) if (400..500).contains(&status) => {
                successes > 0 && outcome.code.as_deref() != Some("unknown_model")
            }
            Some(_) => false,
        };
        if missed && mark_stale(shared, outcome.node, model) {
            marks += 1;
        }
    }
    if marks > 0 {
        shared
            .counters
            .stale_marks
            .fetch_add(marks, Ordering::Relaxed);
    }

    if successes == total {
        shared
            .counters
            .observes_relayed
            .fetch_add(1, Ordering::Relaxed);
        return Response::from(first_success.expect("successes == total > 0"));
    }
    if successes == 0 {
        if let Some(rejection) = first_rejection {
            return Response::from(rejection);
        }
        if let Some(miss) = last_miss {
            // Every reachable replica answered `unknown_model`.
            return Response::from(miss);
        }
        let mut response = Response::error(
            503,
            "no_replicas_available",
            &format!("no replica of {model:?} applied the observe batch"),
        );
        response.retry_after = Some(RETRY_AFTER_NO_REPLICAS);
        return response;
    }
    shared
        .counters
        .observe_partial
        .fetch_add(1, Ordering::Relaxed);
    partial_report(shared, model, &outcomes, successes)
}

/// The `207` partial-success report: which replicas applied the batch and
/// how each failure answered, so an operator can reconcile the set.
fn partial_report(
    shared: &Shared,
    model: &str,
    outcomes: &[ObserveOutcome],
    successes: usize,
) -> Response {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("model", model);
    w.field_uint("succeeded", successes as u64);
    w.field_uint("failed", (outcomes.len() - successes) as u64);
    w.key("replicas");
    w.begin_array();
    for outcome in outcomes {
        w.begin_object();
        w.field_str("node", shared.nodes[outcome.node].name());
        w.key("ok");
        w.boolean(matches!(outcome.status, Some(s) if (200..300).contains(&s)));
        w.key("status");
        match outcome.status {
            Some(status) => w.uint(status as u64),
            None => w.null(),
        }
        if let Some(code) = &outcome.code {
            w.field_str("code", code);
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    Response::typed(207, "application/json", w.finish().into_bytes())
}

/// Marks `(node, model)` stale; `true` if this is a new mark.
fn mark_stale(shared: &Shared, node: NodeId, model: &str) -> bool {
    lock(&shared.stale).insert((node, model.to_string()))
}

fn is_stale(shared: &Shared, node: NodeId, model: &str) -> bool {
    lock(&shared.stale).contains(&(node, model.to_string()))
}

fn clear_stale(shared: &Shared, node: NodeId, model: &str) {
    lock(&shared.stale).remove(&(node, model.to_string()));
}

/// `GET /v1/fleet/stats`: router counters plus every node's own
/// `/v1/stats` and `/v1/models` documents, spliced in verbatim (an
/// unreachable node reports `null` documents and its health instead).
fn fleet_stats(shared: &Shared) -> Response {
    let (replication, epoch) = {
        let map = lock(&shared.map);
        (map.replication(), map.epoch())
    };
    // Collect every node's documents BEFORE reading the router counters:
    // probing an unreachable node demotes it, and the counters written
    // below must already include that, or the document disagrees with a
    // stats snapshot taken the instant after it.
    let documents: Vec<Option<(String, String)>> = shared
        .nodes
        .iter()
        .map(|pool| node_documents(shared, pool))
        .collect();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("fleet");
    w.begin_object();
    w.field_uint("nodes", shared.nodes.len() as u64);
    w.field_uint("replication", replication as u64);
    w.field_uint("epoch", epoch);
    w.end_object();
    w.key("router");
    w.begin_object();
    w.stats(RouterStats::STATS, &shared.render_snapshot());
    w.end_object();
    w.key("nodes");
    w.begin_array();
    for (pool, docs) in shared.nodes.iter().zip(&documents) {
        w.begin_object();
        w.field_str("name", pool.name());
        w.field_str("addr", &pool.addr().to_string());
        w.field_uint("demotions", pool.demotions());
        w.field_str("health", pool.health().as_str());
        w.key("stats");
        match docs {
            Some((stats, _)) => w.raw(stats),
            None => w.null(),
        }
        w.key("models");
        match docs {
            Some((_, models)) => w.raw(models),
            None => w.null(),
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    Response::ok(w.finish())
}

/// `GET /metrics` on the router: the Prometheus text exposition. The scalar
/// families are the table and snapshot the `router` object of
/// `/v1/fleet/stats` is written from (`exa_fleet_forwards` ↔
/// `router.forwards`); `exa_fleet_node_up` and the histogram families have
/// no JSON twin.
fn metrics(shared: &Shared) -> Response {
    let mut p = PromText::new();
    p.stats("fleet", RouterStats::STATS, &shared.render_snapshot());
    let ups: Vec<(&str, f64)> = shared
        .nodes
        .iter()
        .map(|pool| {
            (
                pool.name(),
                if pool.health() == NodeHealth::Up {
                    1.0
                } else {
                    0.0
                },
            )
        })
        .collect();
    p.gauge_series(
        "exa_fleet_node_up",
        "1 when the router currently considers the node healthy.",
        "node",
        &ups,
    );
    p.histogram(
        "exa_fleet_request_seconds",
        "Client-facing predict latency at the router.",
        &shared.request_hist.snapshot(),
    );
    p.histogram(
        "exa_fleet_relay_seconds",
        "One upstream backend round trip per relay attempt.",
        &shared.relay_hist.snapshot(),
    );
    Response::typed(200, "text/plain; version=0.0.4", p.render().into_bytes())
}

/// Fetches one node's `/v1/stats` and `/v1/models`, validating both as
/// JSON before they are spliced into the aggregate. Any failure demotes
/// the node and reports `None`.
fn node_documents(shared: &Shared, pool: &NodePool) -> Option<(String, String)> {
    let mut client = match pool.checkout() {
        Ok(client) => client,
        Err(_) => {
            pool.demote(shared.suspect_cooldown);
            return None;
        }
    };
    let mut fetch = |path: &str| -> Option<String> {
        let response = client
            .request_raw("GET", path, "application/json", "application/json", b"")
            .ok()?;
        if response.status != 200 {
            return None;
        }
        let text = String::from_utf8(response.body).ok()?;
        Json::parse(&text).ok()?; // validate before splicing raw
        Some(text)
    };
    let documents = match (fetch("/v1/stats"), fetch("/v1/models")) {
        (Some(stats), Some(models)) => Some((stats, models)),
        _ => None,
    };
    if documents.is_some() {
        pool.promote();
        pool.checkin(client);
    } else {
        pool.demote(shared.suspect_cooldown);
    }
    documents
}

/// The `error.code` of a JSON error envelope, if `body` is one. Only the
/// codes the router dispatches on need static names.
fn error_code(body: &[u8]) -> Option<&'static str> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = Json::parse(text).ok()?;
    match doc.get("error")?.get("code")?.as_str()? {
        "unknown_model" => Some("unknown_model"),
        "shutting_down" => Some("shutting_down"),
        _ => None,
    }
}

/// Like [`error_code`], but returns whatever code the envelope carried —
/// the observe partial report names exact backend codes.
fn error_code_owned(body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = Json::parse(text).ok()?;
    Some(doc.get("error")?.get("code")?.as_str()?.to_string())
}
