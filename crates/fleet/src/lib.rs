//! **exa-fleet** — a sharded cross-node serving tier over `exa-wire`
//! nodes.
//!
//! PR 5/6 made one node a real server: a readiness reactor, two predict
//! codecs, bounded abuse handling. One node still caps the fleet at one
//! memory budget's worth of models. This crate turns N independent
//! `exa-wire` nodes into one logical tier:
//!
//! ```text
//!  clients ──▶ FleetRouter (one socket)
//!                 │  PlacementMap: model → replica set
//!                 │  (consistent-hash ring · pins · replication)
//!                 ├──▶ node a  ┐ WireClient keep-alive pools,
//!                 ├──▶ node b  ├ verbatim predict relay (both codecs),
//!                 └──▶ node c  ┘ health: Up ⇄ Suspect (cooldown)
//! ```
//!
//! * **Placement** ([`PlacementMap`]) — one rule: a pinned model goes to
//!   its live pinned nodes; every other model to the first `replication`
//!   distinct live nodes clockwise from its point on a consistent-hash ring
//!   with virtual nodes. Lookups are deterministic in (model name, map
//!   epoch), so a model's replica set moves only when the fleet's topology,
//!   pins or replication do — never with traffic.
//! * **Routing** ([`FleetRouter`]) — terminates client connections with
//!   `exa-wire`'s own HTTP machinery and relays predict bodies verbatim
//!   (JSON and `x-exa-frame` alike — bit-identity with a direct node hit
//!   is a test). A miss (`404 unknown_model`) sends the router through
//!   the rest of the replica set before the 404 stands; backends with a
//!   registry loader pull the model themselves on first touch. Transport
//!   failures demote a node to suspect and fail the request over.
//! * **Ingestion** — `POST /v1/models/{name}/observe` is a *write*, so it
//!   fans out to the model's **full replica set** instead of failing
//!   over: all replicas applying the batch answers `200` (first
//!   replica's response verbatim), a mixed outcome answers a `207`
//!   report naming each replica's status, and a replica that missed the
//!   batch is demoted and marked stale — the router evicts the model
//!   there before its next predict relay, forcing a fresh refetch.
//! * **Observability** — `GET /v1/fleet/stats` aggregates every node's
//!   `/v1/stats` and `/v1/models` verbatim next to the router's own
//!   forward/failover/rebalance counters ([`RouterStats`]), plus uptime, a
//!   monotone `stats_epoch`, and request-latency percentiles from an
//!   `exa-telemetry` histogram. `GET /metrics` exposes the same counters
//!   as Prometheus text, with client-facing and per-relay latency
//!   histograms and an `exa_fleet_node_up` gauge per node. Every routed
//!   predict is stamped with an `x-exa-trace-id` (the caller's, or one
//!   minted here) that is propagated to the backend, echoed in the
//!   response, and joinable against the node's `/v1/debug/slow` ring.
//!
//! # Endpoints
//!
//! | method & path | answer |
//! |---|---|
//! | `POST /v1/models/{name}/predict` | relayed from the owning replica |
//! | `POST /v1/models/{name}/observe` | fanned to the full replica set (`200` all applied, `207` partial) |
//! | `GET /v1/fleet/stats` | fleet + router + per-node statistics |
//! | `GET /metrics` | Prometheus text exposition of the router counters and histograms |
//! | `GET /healthz` | `{"status":"ok","nodes":N,"nodes_up":M,...}` |
//!
//! Requests the router answers itself use the wire JSON error envelope;
//! `503 no_replicas_available` (every replica unreachable) carries
//! `Retry-After: 1` just like a single node's overload refusals.

pub mod placement;
pub mod pool;
pub mod router;

pub use placement::{NodeId, PlacementMap, DEFAULT_VNODES};
pub use pool::{NodeHealth, NodePool};
pub use router::{FleetRouter, RouterStats};

use exa_wire::http::Limits;
use std::net::SocketAddr;
use std::time::Duration;

/// One backend node: a stable name (hashed onto the ring — renaming a
/// node moves its share of models) and the address its `exa-wire` server
/// listens on.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    pub name: String,
    pub addr: SocketAddr,
}

impl NodeSpec {
    pub fn new(name: impl Into<String>, addr: SocketAddr) -> Self {
        NodeSpec {
            name: name.into(),
            addr,
        }
    }
}

/// Router configuration; the defaults describe a small LAN fleet.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Router bind address (`"127.0.0.1:0"` for an ephemeral port).
    pub bind_addr: String,
    /// Replicas per model (clamped to the fleet size).
    pub replication: usize,
    /// Virtual nodes per physical node on the ring.
    pub vnodes: usize,
    /// Models pinned to explicit replica lists at startup (the override
    /// table; also editable at runtime via [`FleetRouter::pin`]).
    pub pins: Vec<(String, Vec<NodeId>)>,
    /// Dial budget per backend connection attempt.
    pub connect_timeout: Duration,
    /// How long a failed node stays demoted before the next request
    /// probes it again.
    pub suspect_cooldown: Duration,
    /// Client-facing HTTP limits (same knobs as a single node).
    pub limits: Limits,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            replication: 2,
            vnodes: DEFAULT_VNODES,
            pins: Vec::new(),
            connect_timeout: Duration::from_secs(1),
            suspect_cooldown: Duration::from_secs(2),
            limits: Limits::default(),
        }
    }
}
