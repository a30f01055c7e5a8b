//! **exa-wire** — a zero-dependency HTTP/1.1 wire front-end for the
//! `exa-serve` prediction server.
//!
//! PR 3 made the paper's fit-once/predict-many workflow a real serving
//! subsystem, but an in-process one: every client had to link the crate.
//! This crate puts that subsystem on a socket — the surface ExaGeoStatR
//! exposes to remote consumers — with **no external dependencies**: an
//! incremental HTTP/1.1 implementation over [`std::net`] ([`http`]), a
//! small JSON codec ([`json`]), a single-threaded readiness reactor over
//! a hand-rolled `epoll`/`poll` wrapper ([`reactor`]) with a connection
//! cap and graceful shutdown ([`WireServer`]), and a blocking keep-alive
//! client ([`WireClient`]). The reactor is generic over the routes behind
//! it ([`HttpServer`] runs any [`Service`]): the node is one service, and
//! `exa-fleet`'s router the other.
//!
//! ```text
//!  clients (curl, WireClient, wire_loadgen)
//!      │ HTTP/1.1 keep-alive, JSON bodies
//!      ▼
//!  reactor thread — epoll/poll readiness loop (one thread, any #conns)
//!      │  accept ▸ non-blocking Connection state machines
//!      │          ReadingHead → ReadingBody → Dispatch → Writing ⟲
//!      │  parse → route → inline predict  (nothing in flight: zero handoffs)
//!      │               └─ submit + on_ready (otherwise: worker pool)
//!      ▼                       ▼
//!  WireStats        PredictionServer (one model call per request)
//!                        │
//!                   ModelRegistry (LRU, byte budget)
//! ```
//!
//! Connection count and thread count are decoupled: a thousand idle
//! keep-alive sockets cost the reactor a slab entry and a readiness
//! registration each, not a thread. Per-request panics are contained
//! (`catch_unwind`) and abuse is bounded exactly as before — header/body
//! caps, slow-loris and idle deadlines, drain-then-close shutdown.
//!
//! One wire request maps onto **one** [`ServerHandle`] call, so all of a
//! request's targets share one `predict_batch` call: a client with many
//! queries batches them by sending them in one request.
//!
//! # Endpoints
//!
//! | method & path | body | answer |
//! |---|---|---|
//! | `POST /v1/models/{name}/predict` | predict request | predict response |
//! | `POST /v1/models/{name}/observe` | observe request | observe response (streaming ingestion) |
//! | `POST /v1/models/{name}/evict` | — | `{"model": name, "evicted": bool}` (admin; next miss reloads) |
//! | `GET /v1/models` | — | residency + registry counters |
//! | `GET /v1/stats` | — | wire + serving statistics, histogram percentiles, `uptime_seconds`, `stats_epoch` |
//! | `GET /v1/debug/slow` | — | the slowest recent requests with per-stage breakdowns |
//! | `GET /metrics` | — | Prometheus text exposition of every counter and latency histogram |
//! | `GET /healthz` | — | `{"status":"ok","models":N}` |
//!
//! Every predict response carries an `x-exa-trace-id` header: the id the
//! caller sent on the request (the fleet router mints one per routed
//! predict), or one minted here. The same id tags the request's slow-ring
//! entry, so a slow response is joinable to its node-side stage breakdown
//! from the client's echo alone — see `exa-telemetry` for the id format,
//! the histogram design, and the slow-ring admission rule.
//!
//! # Wire schema
//!
//! Requests and responses are `Content-Length`-framed documents (chunked
//! transfer encoding is rejected with `501`). The predict endpoint speaks
//! two codecs, negotiated per request:
//!
//! * **JSON** (`application/json`) — the default when no `Content-Type` is
//!   sent; documented below.
//! * **Binary frames** (`application/x-exa-frame`) — raw little-endian
//!   `f64` arrays for the predict hot path; byte-level layout in the
//!   [`codec`] module docs.
//!
//! `Content-Type` picks the *request* codec; `Accept` picks the *response*
//! codec (absent or `*/*` mirrors the request, so plain `curl` keeps
//! getting JSON, and `curl -d`'s default
//! `application/x-www-form-urlencoded` label is accepted as JSON). Any
//! other media type on either header is a structured `415` (used for the
//! `Accept` side too, by design — one code for both halves of the
//! negotiation). Error responses are **always** the JSON envelope,
//! whichever codec was negotiated. [`WireClient::set_codec`] switches a
//! keep-alive connection between the two.
//!
//! **Predict request** — `targets` is an array of `[x, y]` coordinate
//! pairs; `variance` (optional, default `false`) additionally requests
//! conditional variances:
//!
//! ```json
//! {"targets": [[0.25, 0.75], [0.5, 0.5]], "variance": true}
//! ```
//!
//! **Predict response** — `mean[i]` (and `variance[i]` when requested)
//! answers `targets[i]`; `coalesced_requests` is always 1 and
//! `batch_points` equals `points` (each request is its own model call; the
//! fields stay for format compatibility):
//!
//! ```json
//! {"model": "soil", "mean": [1.25, -0.5], "variance": [0.8, 0.9],
//!  "points": 2, "coalesced_requests": 1, "batch_points": 2,
//!  "latency_seconds": 0.0021}
//! ```
//!
//! Numbers are encoded in Rust's shortest-round-trip form and decoded with
//! full precision, so means fetched over the wire are **bit-identical** to
//! in-process [`FittedModel::predict_batch`] results.
//!
//! **Observe request** (`POST /v1/models/{name}/observe`) — the streaming
//! write path: appends observations to a live model through an incremental
//! Cholesky update (see `exa-geostat`'s `LiveModel`). Both codecs are
//! supported with the same negotiation rules as predict; the binary layout
//! is in the [`codec`] module docs. Observes are applied synchronously on
//! the reactor thread, which serializes them per model:
//!
//! ```json
//! {"points": [[1.6, 0.3], [1.7, 0.4]], "values": [0.25, -0.5]}
//! ```
//!
//! **Observe response** — what the update did and how the factor is
//! drifting:
//!
//! ```json
//! {"model": "soil", "accepted": 2, "model_points": 4098,
//!  "updates_since_refactor": 3, "used_incremental": true,
//!  "refit_triggered": false, "latency_seconds": 0.0009}
//! ```
//!
//! **Models response** — residency plus the registry's lifetime counters
//! (`evictions` makes insert-over-budget LRU churn observable remotely):
//!
//! ```json
//! {"models": [{"name": "soil", "factor_bytes": 524288}],
//!  "resident_models": 1, "bytes_in_use": 524288, "byte_budget": null,
//!  "insertions": 3, "evictions": 2, "hits": 41, "misses": 0,
//!  "loads": 0, "reaccounts": 0}
//! ```
//!
//! **Stats response** — `{"wire": {...}, "serve": {...}, "registry": {...}}`,
//! one member per field of [`WireStats`], [`ServerStats`] and
//! [`RegistryStats`] in declaration order (`wire` leads with the reactor
//! `backend` name). Those structs are where a stat is declared — key, kind
//! and help text in one `exa_telemetry::stats_struct!` field — and `GET
//! /metrics` walks the same tables (`exa_wire_*`, `exa_serve_*`,
//! `exa_registry_*`), so the JSON and Prometheus surfaces agree by
//! construction.
//!
//! **Errors** — every failure is a status code plus a structured body,
//! never a silently dropped connection:
//!
//! ```json
//! {"error": {"code": "unknown_model", "message": "no model named \"x\" is registered"}}
//! ```
//!
//! | status | `code` | meaning |
//! |---|---|---|
//! | 400 | `invalid_json` / `invalid_frame` / `invalid_query` | undecodable body (per codec), malformed targets, rejected query |
//! | 400/413/431/501/505 | `bad_request` | HTTP-level violation (bad preamble, bad `Content-Length`, oversized body/headers, chunked encoding, bad version) |
//! | 404 | `unknown_model` / `unknown_path` | unregistered model, unrouted path |
//! | 405 | `method_not_allowed` | right path, wrong verb |
//! | 415 | `unsupported_media_type` | `Content-Type`/`Accept` naming neither JSON nor `application/x-exa-frame` |
//! | 503 | `overloaded` / `shutting_down` | connection/queue caps, graceful shutdown |
//! | 500 | `internal` | contained handler panic ([`WireStats::panics_contained`]) |
//!
//! `503` responses carry a `Retry-After` header (seconds): `1` for
//! transient overload, `5` when the server is shutting down and a client
//! should find another node. [`WireError::Api`] surfaces it as
//! `retry_after` so callers can back off without parsing headers.
//!
//! # Example
//!
//! ```
//! use exa_covariance::{Location, MaternKernel};
//! use exa_geostat::{Backend, GeoModel};
//! use exa_runtime::Runtime;
//! use exa_serve::ModelRegistry;
//! use exa_util::Rng;
//! use exa_wire::{WireClient, WireConfig, WireServer};
//! use std::sync::Arc;
//!
//! // Fit once (the only factorization anywhere in this example)...
//! let rt = Runtime::new(2);
//! let mut rng = Rng::seed_from_u64(7);
//! let locations = Arc::new(exa_geostat::synthetic_locations(8, &mut rng));
//! let truth = GeoModel::<MaternKernel>::builder()
//!     .locations(locations.clone())
//!     .tile_size(32)
//!     .build()
//!     .unwrap()
//!     .at_params(&[1.0, 0.1, 0.5], &rt)
//!     .unwrap();
//! let z = truth.simulate(&mut rng, &rt);
//! let fitted = GeoModel::<MaternKernel>::builder()
//!     .locations(locations)
//!     .data(z)
//!     .backend(Backend::tlr(1e-9))
//!     .tile_size(32)
//!     .build()
//!     .unwrap()
//!     .at_params(&[1.0, 0.1, 0.5], &rt)
//!     .unwrap();
//!
//! // ...register, serve on an ephemeral port, query over TCP.
//! let registry = Arc::new(ModelRegistry::new());
//! registry.insert("soil", Arc::new(fitted));
//! let server = WireServer::start(registry, WireConfig::default()).unwrap();
//! let mut client = WireClient::connect(server.local_addr()).unwrap();
//! client.health().unwrap();
//! let served = client
//!     .predict("soil", &[Location::new(0.4, 0.6)])
//!     .unwrap();
//! assert!(served.mean[0].is_finite());
//! let (wire, serve) = server.shutdown();
//! assert_eq!(wire.requests_ok, 2);
//! assert_eq!(serve.factorizations_during_serving, 0);
//! ```
//!
//! [`ServerHandle`]: exa_serve::ServerHandle
//! [`ServerStats`]: exa_serve::ServerStats
//! [`RegistryStats`]: exa_serve::RegistryStats
//! [`FittedModel::predict_batch`]: exa_geostat::FittedModel::predict_batch

pub mod client;
pub mod codec;
pub mod http;
pub mod json;
pub mod reactor;
pub mod server;

pub use client::{
    WireClient, WireError, WireModelInfo, WireModels, WireObserve, WirePrediction, WireResponse,
};
pub use codec::Codec;
pub use server::{
    Handled, HttpCounters, HttpServer, Responder, Response, Service, WireConfig, WireServer,
    WireStats, DEFAULT_MAX_CONNECTIONS,
};
