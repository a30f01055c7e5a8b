//! **exageostat** — a from-scratch Rust reproduction of *"Parallel
//! Approximation of the Maximum Likelihood Estimation for the Prediction of
//! Large-Scale Geostatistics Simulations"* (Abdulah, Ltaief, Sun, Genton,
//! Keyes — IEEE CLUSTER 2018).
//!
//! The paper extends the ExaGeoStat framework with Tile Low-Rank (TLR)
//! approximation of the Matérn covariance matrix, so Gaussian maximum
//! likelihood estimation and kriging prediction scale past the dense
//! `O(n³)`/`O(n²)` wall. This workspace rebuilds **every layer** of that
//! stack in Rust:
//!
//! | layer | paper component | crate |
//! |---|---|---|
//! | observability | ExaGeoStat's PaRSEC/StarPU profiling hooks, as serving telemetry | [`telemetry`] (`exa-telemetry`) |
//! | fleet tier | multi-node ExaGeoStatR deployments, as a sharded serving tier | [`fleet`] (`exa-fleet`) |
//! | wire front-end | ExaGeoStatR's remote-consumer surface, as HTTP/1.1 + JSON or binary frames | [`wire`] (`exa-wire`) |
//! | prediction serving | ExaGeoStatR's fit-once/predict-many workflow, as a service | [`serve`] (`exa-serve`) |
//! | statistics & drivers | ExaGeoStat + NLopt | [`geostat`] (`exa-geostat`) |
//! | TLR linear algebra | HiCMA | [`tile`] (`exa-tile`; `exa-tlr` holds compatibility re-exports) |
//! | dense tile algorithms | Chameleon | [`tile`] (`exa-tile`) |
//! | task runtime | StarPU | [`runtime`] (`exa-runtime`) |
//! | dense kernels | BLAS/LAPACK (MKL) | [`linalg`] (`exa-linalg`) |
//! | covariance & special functions | GSL + ExaGeoStat kernels | [`covariance`] (`exa-covariance`) |
//! | cluster experiments | Shaheen-2 Cray XC40 | [`distsim`] (`exa-distsim`) |
//! | RNG / stats / reporting | — | [`util`] (`exa-util`) |
//!
//! # Quickstart
//!
//! The public surface is the [`geostat::GeoModel`] session API: describe the
//! problem once (locations, data, covariance family, computation technique),
//! then `fit()`/`at_params()` hand back a [`geostat::FittedModel`] owning
//! the factored `Σ(θ̂)` — likelihood pieces, kriging prediction and exact
//! simulation all reuse that factor instead of re-running the Cholesky.
//!
//! ```
//! use exageostat::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. Synthetic locations + an exactly-simulated Matérn field, drawn
//! //    from a full-tile session factored at the true θ.
//! let mut rng = Rng::seed_from_u64(7);
//! let locations = Arc::new(synthetic_locations(12, &mut rng)); // 144 sites
//! let rt = Runtime::new(4);
//! let truth = GeoModel::<MaternKernel>::builder()
//!     .locations(locations.clone())
//!     .nugget(0.0)
//!     .tile_size(36)
//!     .build()
//!     .unwrap()
//!     .at_params(&[1.0, 0.1, 0.5], &rt)
//!     .unwrap();
//! let z = truth.simulate(&mut rng, &rt);
//!
//! // 2. A TLR estimation session over the same sites (Eq. 1 at one θ).
//! let model = GeoModel::<MaternKernel>::builder()
//!     .locations(locations)
//!     .data(z)
//!     .backend(Backend::tlr(1e-9))
//!     .tile_size(36)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let at_truth = model.at_params(&[1.0, 0.1, 0.5], &rt).unwrap();
//! let ll = at_truth.log_likelihood().unwrap();
//! assert!(ll.value.is_finite());
//!
//! // 3. Kriging a new site reuses the factorization just computed.
//! let pred = at_truth.predict(&[Location::new(0.5, 0.5)], &rt).unwrap();
//! assert!(pred.values[0].is_finite());
//! ```
//!
//! Swap `MaternKernel` for [`covariance::PoweredExponentialKernel`] or
//! [`covariance::GaussianKernel`] and the same pipeline runs unmodified —
//! the API is generic over [`covariance::ParamCovariance`].
//!
//! Fitted models serve in-process through [`serve`] (`exa-serve`) and over
//! TCP through [`wire`] (`exa-wire`): a zero-dependency HTTP/1.1 front-end
//! whose `predict` endpoint coalesces each request onto the same
//! micro-batching path and speaks JSON or a binary `f64` frame codec,
//! negotiated per request (see the `exa-wire` crate docs for the wire
//! schema and `exa-wire::codec` for the frame layout).
//!
//! See `examples/` for full MLE fits, the simulated soil-moisture and
//! wind-speed studies, the distributed-run simulator, the concurrent
//! prediction service (`prediction_service`) and its networked twin
//! (`wire_service`); `crates/bench` regenerates every table and figure of
//! the paper (DESIGN.md §3).

pub use exa_covariance as covariance;
pub use exa_distsim as distsim;
pub use exa_fleet as fleet;
pub use exa_geostat as geostat;
pub use exa_linalg as linalg;
pub use exa_runtime as runtime;
pub use exa_serve as serve;
pub use exa_telemetry as telemetry;
pub use exa_tile as tile;
pub use exa_util as util;
pub use exa_wire as wire;

/// The most common imports in one place.
pub mod prelude {
    pub use exa_covariance::{
        sort_morton, CovarianceKernel, DistanceMetric, GaussianKernel, GaussianParams, Location,
        MaternKernel, MaternParams, ParamCovariance, PoweredExponentialKernel,
        PoweredExponentialParams,
    };
    pub use exa_fleet::{FleetConfig, FleetRouter, NodeSpec, PlacementMap, RouterStats};
    pub use exa_geostat::{
        eval_log_likelihood, factorization_count, holdout_split, prediction_mse,
        synthetic_locations, synthetic_locations_n, Backend, Factorization, FieldSimulator,
        FitOptions, FitReport, FittedModel, GeoModel, LikelihoodConfig, ModelError,
        NelderMeadConfig,
    };
    pub use exa_runtime::Runtime;
    pub use exa_serve::{
        ModelInfo, ModelRegistry, PredictionServer, PredictionTicket, RegistryStats, ServeConfig,
        ServeError, ServedPrediction, ServerHandle, ServerStats,
    };
    pub use exa_telemetry::{Histogram, HistogramSnapshot, SlowEntry, SlowRing, TraceId};
    pub use exa_tile::{CompressionMethod, TileMatrix as TlrMatrix};
    pub use exa_util::Rng;
    pub use exa_wire::{
        Codec, WireClient, WireConfig, WireError, WireModelInfo, WireModels, WirePrediction,
        WireResponse, WireServer, WireStats,
    };
}
