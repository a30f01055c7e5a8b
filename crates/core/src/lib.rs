//! ExaGeoStat-style large-scale geostatistics: the paper's primary
//! contribution.
//!
//! This crate assembles the substrates (`exa-linalg`, `exa-runtime`,
//! `exa-tile`, `exa-covariance`) into the operations the paper
//! describes and benchmarks:
//!
//! * [`model`] — **the session API**: [`GeoModel`] (builder-constructed
//!   problem description, generic over any
//!   [`ParamCovariance`](exa_covariance::ParamCovariance) family) →
//!   [`FittedModel`] (owns the factored `Σ(θ̂)`; likelihood, prediction,
//!   conditional variances and simulation all reuse that factor).
//! * [`factor`] — [`Factorization`]: the dense or tile (Full-tile or TLR)
//!   Cholesky factor behind one `solve`/`logdet`/`bytes` interface, plus
//!   incremental `append`/`remove` edits (rank-k Cholesky up/downdates on
//!   dense storage).
//! * [`live`] — **streaming ingestion**: [`LiveModel`] wraps a fitted
//!   session so observations stream in ([`LiveModel::observe`]) and expire
//!   ([`LiveModel::expire`]) without `O(n³)` refits, with drift-triggered
//!   background refactorization behind atomic snapshots.
//! * [`locations`] — synthetic jittered-grid location generation (Figure 2)
//!   and estimation/validation splits.
//! * [`simulate`] — exact Gaussian-random-field simulation (`Z = L·w`), the
//!   ExaGeoStat data generator.
//! * [`likelihood`] — the Gaussian log-likelihood (Eq. 1) under three
//!   interchangeable computation techniques ([`Backend::FullBlock`],
//!   [`Backend::FullTile`], [`Backend::Tlr`]).
//! * [`optimizer`] — Nelder–Mead with box constraints (the NLopt
//!   substitute).
//! * [`mod@predict`] — the prediction result type and the prediction MSE
//!   (Eq. 7); the entry points live on [`FittedModel`], including the
//!   serving-oriented coalesced `predict_batch` family.
//! * [`montecarlo`] — the Monte-Carlo estimation studies behind Figures 6–7.
//! * [`realdata`] — simulated stand-ins for the soil-moisture and wind-speed
//!   datasets (Tables I–II, Figure 8), with great-circle distances.

pub mod factor;
pub mod likelihood;
pub mod live;
pub mod locations;
pub mod model;
pub mod montecarlo;
pub mod optimizer;
pub mod predict;
pub mod realdata;
pub mod simulate;

pub use factor::{factorization_count, FactorTimings, Factorization, IngestOutcome};
pub use likelihood::{Backend, LikelihoodConfig, LogLikelihood};
pub use live::{DriftStats, LiveModel, LivePolicy, ObserveOutcome};
pub use locations::{
    gridded_locations_in, holdout_split, synthetic_locations, synthetic_locations_n, HoldoutSplit,
};
pub use model::{
    eval_log_likelihood, FitOptions, FitReport, FittedModel, GeoModel, GeoModelBuilder, ModelError,
};
pub use montecarlo::{
    generate_data, run_technique, MonteCarloConfig, MonteCarloData, TechniqueOutcome,
};
pub use optimizer::{nelder_mead_max, Bounds, NelderMeadConfig, OptimResult, StopReason};
pub use predict::{prediction_mse, Prediction};
pub use realdata::{
    ascii_map, generate_region, soil_regions, wind_regions, RegionDataset, RegionSpec,
};
pub use simulate::{simulate_field, FieldSimulator};
