//! Matérn covariance modelling for large-scale geostatistics.
//!
//! This crate rebuilds the statistical-kernel layer of ExaGeoStat: the Matérn
//! covariance family (paper Eq. 5) with its special-function machinery
//! implemented from scratch:
//!
//! * [`mod@gamma`] — Lanczos log-gamma and the Temme auxiliary functions.
//! * [`bessel`] — modified Bessel `K_ν` of real order (Temme series for
//!   small arguments, Steed CF2 continued fraction for large), plus the
//!   scaled variant `eˣK_ν(x)` used to evaluate covariances without
//!   underflow.
//! * [`matern`] — [`MaternParams`] `θ = (θ₁, θ₂, θ₃)` with the exponential
//!   (`θ₃ = ½`) and Whittle (`θ₃ = 1`) special cases the paper discusses;
//!   [`MaternParams::covariance`] is the scalar reference (one Bessel
//!   evaluation per call).
//! * `table` (private) — the Matérn radial function of one general ν as a
//!   piecewise-Chebyshev table on dyadic panels, sampled from [`bessel`]:
//!   what [`MaternKernel`] evaluates for every entry of `Σ(θ)` and every
//!   prediction row, so generation costs a polynomial and one `exp` per
//!   entry instead of a series or continued fraction.
//! * [`fastmath`] — the branchless `exp` the closed-form prediction rows
//!   vectorize over.
//! * [`distance`] — Euclidean and haversine great-circle metrics (Eq. 6).
//! * [`kernel`] — [`CovarianceKernel`]: entries and dense tiles of `Σ(θ)`
//!   from a location set (the ExaGeoStat matrix-generation codelet),
//!   [`ParamCovariance`]: the parameter-vector ↔ kernel-instance bridge that
//!   makes the MLE/kriging pipeline generic over covariance families, and
//!   [`MaternKernel`].
//! * [`matern`], [`powexp`], [`gaussian`] — the three plug-in families:
//!   Matérn (paper Eq. 5), powered-exponential, and Gaussian
//!   (squared-exponential).
//! * [`morton`] — z-order spatial sorting of location sets, the ExaGeoStat
//!   preprocessing step that gives the covariance tiles their low-rank
//!   structure.

pub mod bessel;
pub mod distance;
pub mod fastmath;
pub mod gamma;
pub mod gaussian;
pub mod kernel;
pub mod matern;
pub mod morton;
pub mod powexp;
mod table;

pub use bessel::{bessel_k, bessel_k_scaled};
pub use distance::{euclidean, great_circle_km, DistanceMetric, Location, EARTH_RADIUS_KM};
pub use fastmath::exp_neg;
pub use gamma::{gamma, ln_gamma, EULER_GAMMA};
pub use gaussian::{GaussianKernel, GaussianParams};
pub use kernel::{CovarianceKernel, MaternKernel, ParamCovariance};
pub use matern::MaternParams;
pub use morton::{apply_permutation, morton_key_unit, sort_morton};
pub use powexp::{PoweredExponentialKernel, PoweredExponentialParams};
