//! **exa-serve** — an in-process prediction-serving subsystem over fitted
//! geostatistics models.
//!
//! The paper's end goal is *prediction*: once `θ̂` is estimated, the fitted
//! Gaussian-process model answers kriging queries at unknown locations
//! (Eq. 4), and ExaGeoStatR packages exactly this fit-once/predict-many
//! workflow. `exa-geostat`'s [`FittedModel`] already caches the one Cholesky
//! factor and the pre-solved `α = Σ⁻¹Z`, so a query costs no factorization —
//! but a model alone is not a service. This crate adds the serving layer
//! that turns cached sessions into one.
//!
//! # Architecture: registry → queue → workers
//!
//! ```text
//!  clients                 ┌────────────────────────────────────────────┐
//!  ServerHandle::submit ──▶│ queue (FIFO of pending requests + tickets) │
//!        │                 └──────────────┬─────────────────────────────┘
//!        │ resolves                       │ a worker pops the head
//!        ▼                                ▼
//!  ┌──────────────┐                 ┌─────────────────────────────┐
//!  │ ModelRegistry│                 │ worker ×N                   │
//!  │  name → Arc< │                 │ one predict_batch call per  │
//!  │  FittedModel>│                 │ request: one blocked cross- │
//!  │  LRU, byte   │                 │ covariance build and one    │
//!  │  budget      │                 │ factor application over its │
//!  └──────────────┘                 │ targets                     │
//!                                   └─────────────────────────────┘
//!  ServerHandle::predict ── the same call on the calling thread, no queue
//! ```
//!
//! * [`ModelRegistry`] — named [`Arc<FittedModel<K>>`](exa_geostat::FittedModel)
//!   instances with insert/get/evict and an optional **byte budget** driven
//!   by `factor_bytes()`: inserting past the budget evicts the
//!   least-recently-used models, so a node serves exactly the factors that
//!   fit in memory.
//! * [`PredictionServer`] — owns the worker threads. Clients submit
//!   point-prediction requests through a cloneable [`ServerHandle`] and
//!   either block on the returned [`PredictionTicket`] or fire-and-collect;
//!   blocking calls ([`ServerHandle::predict`]) skip the queue entirely.
//! * **One request, one model call** — each request is answered by one
//!   [`FittedModel::predict_batch`] /
//!   [`FittedModel::predict_batch_with_variance`] call over its own
//!   targets, so a request of many targets shares one blocked
//!   cross-covariance build and one factor application (BLAS-3 rather than
//!   per-target BLAS-2). Callers batch by putting many targets in one
//!   request.
//! * **Observability** — per-request latency, queue depth high-water mark
//!   and a serve-side factorization counter
//!   ([`ServerStats::factorizations_during_serving`] must stay 0: serving
//!   never re-runs `potrf`).
//! * **Graceful shutdown** — [`PredictionServer::shutdown`] stops intake,
//!   drains every queued request, joins the workers, waits for blocking
//!   predicts already running and returns the final stats.
//!
//! # Example
//!
//! ```
//! use exa_covariance::{Location, MaternKernel};
//! use exa_geostat::{Backend, GeoModel};
//! use exa_runtime::Runtime;
//! use exa_serve::{ModelRegistry, PredictionServer, ServeConfig};
//! use exa_util::Rng;
//! use std::sync::Arc;
//!
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
//! let registry = Arc::new(ModelRegistry::new());
//! registry.insert("soil-na", Arc::new(fitted));
//! let server = PredictionServer::start(registry, ServeConfig::default());
//! let handle = server.handle();
//!
//! // Burst of queries: the workers answer them in FIFO order.
//! let tickets: Vec<_> = (0..16)
//!     .map(|i| {
//!         let t = Location::new(0.05 * i as f64, 0.9 - 0.05 * i as f64);
//!         handle.submit("soil-na", vec![t]).unwrap()
//!     })
//!     .collect();
//! for t in tickets {
//!     let served = t.wait().unwrap();
//!     assert!(served.values[0].is_finite());
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.requests_served, 16);
//! assert_eq!(stats.factorizations_during_serving, 0);
//! ```
//!
//! [`FittedModel`]: exa_geostat::FittedModel
//! [`FittedModel::predict_batch`]: exa_geostat::FittedModel::predict_batch
//! [`FittedModel::predict_batch_with_variance`]:
//!     exa_geostat::FittedModel::predict_batch_with_variance

mod ledger;
pub mod registry;
pub mod server;
pub mod stats;
mod ticket;

pub use registry::{ModelInfo, ModelLoader, ModelRegistry, RegistryStats};
pub use server::{
    PredictionServer, PredictionTicket, ServeConfig, ServeError, ServedPrediction, ServerHandle,
};
pub use stats::ServerStats;
