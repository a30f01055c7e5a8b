//! The session API: `GeoModel` → `fit`/`at_params` → `FittedModel`.
//!
//! The paper's workflow is a pipeline — generate `Σ(θ)`, factorize, evaluate
//! Eq. 1 inside an optimizer loop, then krige with the fitted `θ̂` (Eq. 4).
//! This module exposes that pipeline as a small session-style surface in the
//! spirit of ExaGeoStatR's API over the same engine:
//!
//! * [`GeoModel`] — the problem description: locations, optional
//!   measurements, a covariance *family* (any [`ParamCovariance`]), a
//!   computation technique ([`Backend`]) and tile/accuracy/nugget settings,
//!   assembled by [`GeoModelBuilder`].
//! * [`FittedModel`] — the model at a concrete `θ̂`, owning the **factored**
//!   `Σ(θ̂)` ([`Factorization`]). Likelihood pieces, kriging prediction,
//!   conditional variances and exact simulation all reuse that cached
//!   factor: after `fit()` no further `potrf` runs (see
//!   [`crate::factor::factorization_count`]).
//!
//! ```
//! use exa_covariance::MaternKernel;
//! use exa_geostat::{Backend, FitOptions, GeoModel};
//! use exa_runtime::Runtime;
//! use exa_util::Rng;
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(2);
//! let mut rng = Rng::seed_from_u64(7);
//! let locations = Arc::new(exa_geostat::synthetic_locations(8, &mut rng));
//!
//! // Simulation session at the true θ…
//! let truth = GeoModel::<MaternKernel>::builder()
//!     .locations(locations.clone())
//!     .backend(Backend::FullTile)
//!     .build()
//!     .unwrap()
//!     .at_params(&[1.0, 0.1, 0.5], &rt)
//!     .unwrap();
//! let z = truth.simulate(&mut rng, &rt);
//!
//! // …then an estimation session over the observed data.
//! let model = GeoModel::<MaternKernel>::builder()
//!     .locations(locations)
//!     .data(z)
//!     .backend(Backend::tlr(1e-9))
//!     .build()
//!     .unwrap();
//! let fitted = model.fit(&FitOptions::default(), &rt).unwrap();
//! assert!(fitted.log_likelihood().unwrap().value.is_finite());
//! ```

use crate::factor::{FactorTimings, Factorization, TriangularSide};
use crate::likelihood::{assemble, Backend, LikelihoodConfig, LogLikelihood};
use crate::optimizer::{nelder_mead_max, Bounds, NelderMeadConfig, OptimResult};
use crate::predict::Prediction;
use exa_check::sync::Arc;
use exa_covariance::{CovarianceKernel, DistanceMetric, Location, ParamCovariance};
use exa_linalg::{LinalgError, Mat};
use exa_runtime::Runtime;
use exa_util::Stopwatch;
use std::marker::PhantomData;

/// Errors from building, fitting or using a [`GeoModel`].
#[derive(Debug)]
pub enum ModelError {
    /// A linear-algebra failure (typically Cholesky breakdown at loose TLR
    /// accuracy on strongly correlated data).
    Linalg(LinalgError),
    /// A malformed parameter vector for the kernel family.
    InvalidParams(String),
    /// Inconsistent builder inputs (missing locations, length mismatch…).
    Shape(String),
    /// The operation needs measurement data, but the model was built without
    /// [`GeoModelBuilder::data`].
    NoData,
    /// A malformed prediction query: an empty target set, or a target with
    /// non-finite coordinates. Surfaced as an error (never a panic or NaN
    /// output) so serving layers can reject the request and keep running.
    InvalidQuery(String),
    /// The optimizer never found a feasible point: every likelihood
    /// evaluation hit a factorization breakdown. Carries the best point the
    /// simplex reached and the search report for diagnostics.
    Infeasible { theta: Vec<f64>, report: FitReport },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            ModelError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            ModelError::Shape(msg) => write!(f, "inconsistent model inputs: {msg}"),
            ModelError::NoData => write!(f, "operation requires measurement data (.data(z))"),
            ModelError::InvalidQuery(msg) => write!(f, "invalid prediction query: {msg}"),
            ModelError::Infeasible { theta, .. } => {
                write!(f, "no feasible point found (best θ = {theta:?})")
            }
        }
    }
}

impl std::error::Error for ModelError {}

impl From<LinalgError> for ModelError {
    fn from(e: LinalgError) -> Self {
        ModelError::Linalg(e)
    }
}

/// Evaluates the Gaussian log-likelihood (paper Eq. 1) for **any** covariance
/// kernel through the shared [`Factorization`] interface.
///
/// This is the kernel-generic engine behind both [`GeoModel`] and the legacy
/// Matérn-only free function.
pub fn eval_log_likelihood<K: CovarianceKernel>(
    kernel: &K,
    z: &[f64],
    backend: Backend,
    cfg: LikelihoodConfig,
    rt: &Runtime,
) -> Result<LogLikelihood, LinalgError> {
    let n = kernel.len();
    assert_eq!(z.len(), n, "measurement vector length mismatch");
    let (factor, timings) = Factorization::compute(kernel, backend, cfg, rt)?;
    let mut w = Mat::from_vec(n, 1, z.to_vec());
    Ok(likelihood_from_factor(&factor, timings, &mut w, rt))
}

/// Assembles ℓ (Eq. 1) from an already-computed factor: log-determinant,
/// forward solve, quadratic form. Shared by [`eval_log_likelihood`] and the
/// session construction so the two can never drift apart.
///
/// `w` enters as `Z` and leaves **forward-solved** (`L⁻¹Z`); callers that
/// need `α = Σ⁻¹Z` continue with the backward solve.
fn likelihood_from_factor(
    factor: &Factorization,
    timings: FactorTimings,
    w: &mut Mat,
    rt: &Runtime,
) -> LogLikelihood {
    let mut sw = Stopwatch::start();
    let logdet = factor.logdet();
    factor.trsm(TriangularSide::Forward, w, rt);
    let quadratic: f64 = w.as_slice().iter().map(|v| v * v).sum();
    assemble(
        w.nrows(),
        logdet,
        quadratic,
        timings.generation_seconds,
        timings.factorization_seconds,
        sw.lap(),
        factor.bytes(),
    )
}

/// Options for [`GeoModel::fit`]: the starting point, box bounds and
/// optimizer settings.
///
/// Every `None` falls back to the kernel family's defaults: bounds from
/// [`ParamCovariance::default_bounds`], the start at their log-space
/// midpoint.
#[derive(Clone, Debug, Default)]
pub struct FitOptions {
    /// Starting `θ` (natural parameters).
    pub initial: Option<Vec<f64>>,
    /// Lower box bounds (natural parameters, strictly positive).
    pub lower: Option<Vec<f64>>,
    /// Upper box bounds (natural parameters).
    pub upper: Option<Vec<f64>>,
    /// Nelder–Mead settings.
    pub nm: NelderMeadConfig,
}

impl FitOptions {
    /// Options starting the search from `theta`.
    pub fn starting_at(theta: &[f64]) -> Self {
        FitOptions {
            initial: Some(theta.to_vec()),
            ..Default::default()
        }
    }
}

/// Diagnostics of one [`GeoModel::fit`] search.
#[derive(Clone, Debug, Default)]
pub struct FitReport {
    /// Likelihood evaluations spent (each is one full factorization).
    pub evaluations: usize,
    /// Optimizer iterations.
    pub iterations: usize,
    /// Cumulative seconds inside likelihood evaluations.
    pub likelihood_seconds: f64,
    /// Best ℓ after each optimizer iteration.
    pub trace: Vec<f64>,
}

/// A geostatistics session: fixed locations (and optionally measurements),
/// a covariance family `K`, a computation technique, and tuning.
///
/// `GeoModel` is cheap to clone-and-vary and does no linear algebra itself;
/// [`GeoModel::fit`] and [`GeoModel::at_params`] produce the factored
/// [`FittedModel`] that the expensive operations run on.
#[derive(Clone, Debug)]
pub struct GeoModel<K: ParamCovariance> {
    locations: Arc<Vec<Location>>,
    z: Option<Vec<f64>>,
    metric: DistanceMetric,
    nugget: f64,
    backend: Backend,
    config: LikelihoodConfig,
    _family: PhantomData<K>,
}

/// Builder for [`GeoModel`]; see the module docs for the workflow.
#[derive(Clone, Debug)]
pub struct GeoModelBuilder<K: ParamCovariance> {
    locations: Option<Arc<Vec<Location>>>,
    z: Option<Vec<f64>>,
    metric: DistanceMetric,
    nugget: f64,
    backend: Backend,
    config: LikelihoodConfig,
    _family: PhantomData<K>,
}

impl<K: ParamCovariance> Default for GeoModelBuilder<K> {
    fn default() -> Self {
        GeoModelBuilder {
            locations: None,
            z: None,
            metric: DistanceMetric::Euclidean,
            // A tiny default nugget keeps borderline geometries (and the
            // ill-conditioned Gaussian family) factorizable; set 0 to
            // reproduce the paper's exact model.
            nugget: 1e-8,
            backend: Backend::FullTile,
            config: LikelihoodConfig::default(),
            _family: PhantomData,
        }
    }
}

impl<K: ParamCovariance> GeoModelBuilder<K> {
    /// The spatial locations (required).
    pub fn locations(mut self, locations: Arc<Vec<Location>>) -> Self {
        self.locations = Some(locations);
        self
    }

    /// The measurement vector `Z` (one value per location). Optional:
    /// simulation-only sessions omit it.
    pub fn data(mut self, z: Vec<f64>) -> Self {
        self.z = Some(z);
        self
    }

    /// Distance metric (default: Euclidean).
    pub fn metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Diagonal regularization τ² (default `1e-8`; 0 = the paper's exact
    /// model).
    pub fn nugget(mut self, nugget: f64) -> Self {
        self.nugget = nugget;
        self
    }

    /// Computation technique (default: [`Backend::FullTile`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Full likelihood tuning block (tile size + the ignored seed).
    pub fn config(mut self, config: LikelihoodConfig) -> Self {
        self.config = config;
        self
    }

    /// Tile size `nb` (default 64).
    pub fn tile_size(mut self, nb: usize) -> Self {
        self.config.nb = nb;
        self
    }

    /// Ignored: every compressor is deterministic. Kept only so existing
    /// callers compile.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates the inputs and produces the session.
    pub fn build(self) -> Result<GeoModel<K>, ModelError> {
        let locations = self
            .locations
            .ok_or_else(|| ModelError::Shape("locations are required".into()))?;
        if locations.is_empty() {
            return Err(ModelError::Shape("location set is empty".into()));
        }
        if let Some(z) = &self.z {
            if z.len() != locations.len() {
                return Err(ModelError::Shape(format!(
                    "{} measurements for {} locations",
                    z.len(),
                    locations.len()
                )));
            }
        }
        if !(self.nugget >= 0.0 && self.nugget.is_finite()) {
            return Err(ModelError::Shape(format!(
                "nugget must be non-negative, got {}",
                self.nugget
            )));
        }
        if self.config.nb == 0 {
            return Err(ModelError::Shape("tile size must be positive".into()));
        }
        if let Backend::Tlr { eps, .. } = self.backend {
            if !(eps > 0.0 && eps.is_finite()) {
                return Err(ModelError::Shape(format!(
                    "TLR accuracy threshold must be positive and finite, got {eps}"
                )));
            }
        }
        Ok(GeoModel {
            locations,
            z: self.z,
            metric: self.metric,
            nugget: self.nugget,
            backend: self.backend,
            config: self.config,
            _family: PhantomData,
        })
    }
}

impl<K: ParamCovariance> GeoModel<K> {
    /// Starts a builder for the family `K`
    /// (e.g. `GeoModel::<MaternKernel>::builder()`).
    pub fn builder() -> GeoModelBuilder<K> {
        GeoModelBuilder::default()
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// True when the location set is empty (unreachable via the builder).
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// The location set.
    pub fn locations(&self) -> &Arc<Vec<Location>> {
        &self.locations
    }

    /// The measurement vector, when present.
    pub fn data(&self) -> Option<&[f64]> {
        self.z.as_deref()
    }

    /// The computation technique.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The likelihood tuning block.
    pub fn config(&self) -> LikelihoodConfig {
        self.config
    }

    /// The kernel instance at `theta` over this model's locations.
    pub fn kernel_at(&self, theta: &[f64]) -> Result<K, ModelError> {
        K::from_parts(self.locations.clone(), theta, self.metric, self.nugget)
            .map_err(ModelError::InvalidParams)
    }

    /// Evaluates ℓ(θ) (Eq. 1) at one parameter vector. One factorization,
    /// discarded afterwards — use [`GeoModel::at_params`] to keep the factor.
    pub fn log_likelihood_at(
        &self,
        theta: &[f64],
        rt: &Runtime,
    ) -> Result<LogLikelihood, ModelError> {
        let z = self.z.as_ref().ok_or(ModelError::NoData)?;
        let kernel = self.kernel_at(theta)?;
        eval_log_likelihood(&kernel, z, self.backend, self.config, rt).map_err(ModelError::from)
    }

    /// Factorizes `Σ(θ)` at a known parameter vector and returns the session
    /// positioned there — no optimizer run.
    pub fn at_params(&self, theta: &[f64], rt: &Runtime) -> Result<FittedModel<K>, ModelError> {
        let kernel = self.kernel_at(theta)?;
        FittedModel::factorize(
            kernel,
            self.z.clone(),
            self.backend,
            self.config,
            FitReport::default(),
            rt,
        )
    }

    /// Maximizes ℓ(θ) by Nelder–Mead in log-parameter space (positivity is
    /// structural, §IV) and returns the model factored at `θ̂`.
    ///
    /// Factorization breakdowns during the search are treated as infeasible
    /// points the simplex retreats from; if *no* point ever succeeds the fit
    /// reports [`ModelError::Infeasible`].
    pub fn fit(&self, opts: &FitOptions, rt: &Runtime) -> Result<FittedModel<K>, ModelError> {
        let z = self.z.as_ref().ok_or(ModelError::NoData)?;
        let p = K::n_params();
        let (dlo, dhi) = K::default_bounds();
        let lo = opts.lower.clone().unwrap_or(dlo);
        let hi = opts.upper.clone().unwrap_or(dhi);
        if lo.len() != p || hi.len() != p {
            return Err(ModelError::InvalidParams(format!(
                "{} expects {p} parameters, bounds have {}/{}",
                K::FAMILY,
                lo.len(),
                hi.len()
            )));
        }
        for (i, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
            // lo == hi is legal and fixes that parameter (the optimizer's
            // box bounds are inclusive and clamp to the point).
            if !(l > 0.0 && h >= l && h.is_finite()) {
                return Err(ModelError::InvalidParams(format!(
                    "bounds for {} must satisfy 0 < lo ≤ hi < ∞, got [{l}, {h}]",
                    K::param_names()[i]
                )));
            }
        }
        // Both box corners must lie inside the family's parameter domain
        // (e.g. a powered-exponential power bound above 2 would otherwise
        // panic mid-search when the simplex reaches it).
        for corner in [&lo, &hi] {
            self.kernel_at(corner)?;
        }
        // Log-space start: the given point, or the bounds' geometric midpoint.
        let x0: Vec<f64> = match &opts.initial {
            Some(theta) => {
                if theta.len() != p {
                    return Err(ModelError::InvalidParams(format!(
                        "{} expects {p} parameters, initial has {}",
                        K::FAMILY,
                        theta.len()
                    )));
                }
                theta.iter().map(|t| t.ln()).collect()
            }
            None => lo
                .iter()
                .zip(&hi)
                .map(|(&l, &h)| 0.5 * (l.ln() + h.ln()))
                .collect(),
        };
        // Validate the starting point eagerly so a malformed initial θ
        // surfaces as an error, not a silently-infeasible search.
        self.kernel_at(&x0.iter().map(|x| x.exp()).collect::<Vec<_>>())?;
        let spent = std::cell::Cell::new(0.0f64);
        let objective = |x: &[f64]| -> f64 {
            let theta: Vec<f64> = x.iter().map(|v| v.exp()).collect();
            // from_parts, not with_params_vec: exp∘ln rounding at a domain
            // boundary (e.g. a powered-exponential power bound of exactly 2)
            // can land a hair outside the family's domain on some libms —
            // that is an infeasible point, like a Cholesky breakdown, not a
            // panic.
            let Ok(k) = K::from_parts(self.locations.clone(), &theta, self.metric, self.nugget)
            else {
                return f64::NEG_INFINITY;
            };
            match eval_log_likelihood(&k, z, self.backend, self.config, rt) {
                Ok(ll) => {
                    spent.set(spent.get() + ll.total_seconds());
                    ll.value
                }
                Err(_) => f64::NEG_INFINITY,
            }
        };
        let bounds = Bounds::new(
            lo.iter().map(|v| v.ln()).collect(),
            hi.iter().map(|v| v.ln()).collect(),
        );
        let OptimResult {
            x,
            fx,
            evaluations,
            iterations,
            trace,
            ..
        } = nelder_mead_max(objective, &x0, &bounds, opts.nm);
        let theta_hat: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        let report = FitReport {
            evaluations,
            iterations,
            likelihood_seconds: spent.get(),
            trace,
        };
        if !fx.is_finite() {
            return Err(ModelError::Infeasible {
                theta: theta_hat,
                report,
            });
        }
        // fx is finite, so the objective accepted θ̂: this cannot fail.
        let kernel = self.kernel_at(&theta_hat)?;
        FittedModel::factorize(
            kernel,
            Some(z.clone()),
            self.backend,
            self.config,
            report,
            rt,
        )
    }
}

/// Four-accumulator dot product: fixed summation order (deterministic under
/// any threading), with independent partial sums so the compiler can
/// vectorize the reduction the serial chain of a plain fold would block.
fn dot_unrolled(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f64; 4];
    let (xc, xr) = x.split_at(x.len() - x.len() % 4);
    let (yc, yr) = y.split_at(xc.len());
    for (cx, cy) in xc.chunks_exact(4).zip(yc.chunks_exact(4)) {
        acc[0] += cx[0] * cy[0];
        acc[1] += cx[1] * cy[1];
        acc[2] += cx[2] * cy[2];
        acc[3] += cx[3] * cy[3];
    }
    let mut tail = 0.0;
    for (cx, cy) in xr.iter().zip(yr) {
        tail += cx * cy;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Rejects empty or non-finite prediction queries (the error message is
/// wrapped into [`ModelError::InvalidQuery`] by the callers).
fn validate_query(targets: &[Location]) -> Result<(), String> {
    if targets.is_empty() {
        return Err("empty target set".into());
    }
    for (i, t) in targets.iter().enumerate() {
        if !(t.x.is_finite() && t.y.is_finite()) {
            return Err(format!(
                "target {i} has non-finite coordinates ({}, {})",
                t.x, t.y
            ));
        }
    }
    Ok(())
}

/// Batch-level query validation: every coalesced request must be non-empty
/// and finite, and the error names the offending request.
fn validate_batch(requests: &[&[Location]]) -> Result<(), ModelError> {
    for (idx, targets) in requests.iter().enumerate() {
        validate_query(targets)
            .map_err(|msg| ModelError::InvalidQuery(format!("request {idx}: {msg}")))?;
    }
    Ok(())
}

/// A [`GeoModel`] positioned at a concrete `θ̂`, owning the factored
/// `Σ(θ̂)`.
///
/// Prediction, conditional variances and simulation reuse the cached
/// [`Factorization`] — zero further `potrf` calls, and any number of callers
/// at once: solves only read the factor.
pub struct FittedModel<K: ParamCovariance> {
    kernel: K,
    z: Option<Vec<f64>>,
    backend: Backend,
    config: LikelihoodConfig,
    factor: Factorization,
    timings: FactorTimings,
    /// Observed coordinates in structure-of-arrays layout, split once at
    /// construction: the batched prediction path fills cross-covariance rows
    /// against contiguous coordinate streams (SIMD-friendly; see
    /// [`ParamCovariance::fill_cross_row`]).
    obs_x: Vec<f64>,
    obs_y: Vec<f64>,
    /// `α = Σ(θ̂)⁻¹ Z` as an `n × 1` column, solved once at construction:
    /// every subsequent prediction is just the cross-covariance product
    /// `Σ₁₂ · α`, with no per-call copy of `α`.
    alpha: Option<Mat>,
    /// Seconds of the `α` pre-solve phase at construction (logdet read,
    /// forward + backward triangular solves, quadratic form).
    alpha_seconds: f64,
    likelihood: Option<LogLikelihood>,
    report: FitReport,
}

impl<K: ParamCovariance> FittedModel<K> {
    /// Factors `Σ(θ)` once and pre-solves `α = Σ⁻¹Z` (when data is present).
    fn factorize(
        kernel: K,
        z: Option<Vec<f64>>,
        backend: Backend,
        config: LikelihoodConfig,
        report: FitReport,
        rt: &Runtime,
    ) -> Result<Self, ModelError> {
        let n = kernel.len();
        let (factor, timings) = Factorization::compute(&kernel, backend, config, rt)?;
        let (alpha, likelihood, alpha_seconds) = match &z {
            Some(z) => {
                let mut w = Mat::from_vec(n, 1, z.clone());
                let ll = likelihood_from_factor(&factor, timings, &mut w, rt);
                let mut sw = Stopwatch::start();
                factor.trsm(TriangularSide::Backward, &mut w, rt);
                let alpha_seconds = ll.solve_seconds + sw.lap();
                (Some(w), Some(ll), alpha_seconds)
            }
            None => (None, None, 0.0),
        };
        let observed = kernel.locations_arc();
        let obs_x: Vec<f64> = observed.iter().map(|l| l.x).collect();
        let obs_y: Vec<f64> = observed.iter().map(|l| l.y).collect();
        Ok(FittedModel {
            kernel,
            z,
            backend,
            config,
            factor,
            timings,
            obs_x,
            obs_y,
            alpha,
            alpha_seconds,
            likelihood,
            report,
        })
    }

    /// The kernel instance at `θ̂`.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The fitted parameter vector `θ̂`.
    pub fn params(&self) -> Vec<f64> {
        self.kernel.params_vec()
    }

    /// ℓ(θ̂) with its pieces and timings (`None` for data-less sessions).
    pub fn log_likelihood(&self) -> Option<&LogLikelihood> {
        self.likelihood.as_ref()
    }

    /// The optimizer's search diagnostics (all-default for
    /// [`GeoModel::at_params`] sessions).
    pub fn report(&self) -> &FitReport {
        &self.report
    }

    /// Generation/factorization timings of the cached factor.
    pub fn factor_timings(&self) -> FactorTimings {
        self.timings
    }

    /// Seconds of the `α = Σ⁻¹Z` pre-solve phase at construction: the
    /// log-determinant read, both triangular solves and the quadratic form
    /// (0 for data-less sessions). Together with
    /// [`FittedModel::factor_timings`] this accounts for the full one-off
    /// cost predictions amortize.
    pub fn alpha_solve_seconds(&self) -> f64 {
        self.alpha_seconds
    }

    /// The computation technique the factor was built with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Bytes held by the factored representation.
    pub fn factor_bytes(&self) -> usize {
        self.factor.bytes()
    }

    /// Diagonal-ratio condition estimate of the cached factor (see
    /// [`Factorization::condition_estimate`]); `None` for tile/TLR storage.
    pub fn factor_condition_estimate(&self) -> Option<f64> {
        self.factor.condition_estimate()
    }

    /// Kriging prediction `Ẑ₁ = Σ₁₂ Σ₂₂⁻¹ Z₂` (Eq. 4) at the target
    /// locations, **reusing** the cached factor and pre-solved `α`: the cost
    /// is one rectangular cross-covariance product, no factorization and no
    /// solve.
    ///
    /// A [`FittedModel::predict_batch`] of one request, so a query answers
    /// with the same bits alone or coalesced. `rt` is not used: the pass is
    /// single-threaded (see `predict_batch`).
    pub fn predict(&self, targets: &[Location], _rt: &Runtime) -> Result<Prediction, ModelError> {
        let mut batch = self.predict_batch(&[targets])?;
        Ok(batch.remove(0))
    }

    /// Kriging with per-target conditional variances (Eq. 3):
    /// `Var[Z₁|Z₂] = diag(Σ₁₁ − Σ₁₂ Σ₂₂⁻¹ Σ₂₁)`, through the cached factor
    /// (one block solve with `m` right-hand sides, no factorization) — a
    /// [`FittedModel::predict_batch_with_variance`] of one request.
    pub fn predict_with_variance(
        &self,
        targets: &[Location],
        rt: &Runtime,
    ) -> Result<(Prediction, Vec<f64>), ModelError> {
        let mut batch = self.predict_batch_with_variance(&[targets], rt)?;
        Ok(batch.remove(0))
    }

    /// Coalesced kriging for a micro-batch of point-prediction requests
    /// (the `exa-serve` hot path).
    ///
    /// All requests' targets are answered in **one blocked pass** over the
    /// observed coordinates: per target one SIMD-friendly cross-covariance
    /// row fill ([`ParamCovariance::fill_cross_row`], against the
    /// structure-of-arrays coordinates cached at construction) and one dot
    /// product with the pre-solved `α` — no per-request location cloning,
    /// tile assembly, or task-graph setup, and of course no factorization.
    /// The flat result block is partitioned back into one [`Prediction`]
    /// per request (batch time attributed proportionally to request size).
    ///
    /// Deliberately single-threaded per batch: a prediction server scales
    /// across micro-batches with its worker threads, so the per-batch kernel
    /// stays lean instead of forking. Vectorized family fills may differ
    /// from entry-wise [`CovarianceKernel::entry`] evaluation by ≤ ~3·10⁻¹³
    /// relative error.
    ///
    /// Errors with [`ModelError::InvalidQuery`] if any request is empty or
    /// contains non-finite coordinates; zero requests yield zero responses.
    pub fn predict_batch(&self, requests: &[&[Location]]) -> Result<Vec<Prediction>, ModelError> {
        let alpha = self.alpha.as_ref().ok_or(ModelError::NoData)?;
        validate_batch(requests)?;
        let mut sw = Stopwatch::start();
        let a = alpha.col(0);
        let n = self.kernel.len();
        let total: usize = requests.iter().map(|r| r.len()).sum();
        let mut row = vec![0.0f64; n];
        let mut out = Vec::with_capacity(requests.len());
        for targets in requests {
            let mut values = Vec::with_capacity(targets.len());
            for t in *targets {
                self.kernel
                    .fill_cross_row(t, &self.obs_x, &self.obs_y, &mut row);
                values.push(dot_unrolled(&row, a));
            }
            out.push(Prediction {
                values,
                factorization_seconds: 0.0,
                solve_seconds: 0.0,
            });
        }
        let elapsed = sw.lap();
        for (p, targets) in out.iter_mut().zip(requests) {
            p.solve_seconds = elapsed * targets.len() as f64 / total as f64;
        }
        Ok(out)
    }

    /// Coalesced kriging **with conditional variances** for a micro-batch of
    /// requests (Eq. 3 and 4 over one shared block).
    ///
    /// The batched win over per-request [`FittedModel::predict_with_variance`]
    /// calls: all targets share **one** `n × m_total` cross-covariance build
    /// and **one** blocked forward solve through the cached factor — the
    /// per-request BLAS-2 triangular solve becomes an amortized BLAS-3
    /// multi-RHS solve. Results partition back per request.
    pub fn predict_batch_with_variance(
        &self,
        requests: &[&[Location]],
        rt: &Runtime,
    ) -> Result<Vec<(Prediction, Vec<f64>)>, ModelError> {
        let alpha = self.alpha.as_ref().ok_or(ModelError::NoData)?;
        validate_batch(requests)?;
        let total: usize = requests.iter().map(|r| r.len()).sum();
        if total == 0 {
            return Ok(vec![]);
        }
        let mut sw = Stopwatch::start();
        let n = self.kernel.len();
        // Σ₂₁ over the whole batch: column j = cross-covariances of
        // coalesced target j (columns are contiguous, so each is one
        // blocked row fill).
        let mut s21 = Mat::zeros(n, total);
        let mut col = 0usize;
        for targets in requests {
            for t in *targets {
                self.kernel
                    .fill_cross_row(t, &self.obs_x, &self.obs_y, s21.col_mut(col));
                col += 1;
            }
        }
        // Means before the solve consumes the block: Ẑ(j) = Σ₂₁(:,j)ᵀ · α —
        // same unrolled reduction as `predict_batch`, so the two batch paths
        // return bitwise-identical means for the same query.
        let a = alpha.col(0);
        let means: Vec<f64> = (0..total).map(|j| dot_unrolled(s21.col(j), a)).collect();
        // One multi-RHS forward solve for every request in the batch.
        self.factor.trsm(TriangularSide::Forward, &mut s21, rt);
        let sill = self.kernel.sill();
        let variances: Vec<f64> = (0..total)
            .map(|j| {
                let acc: f64 = s21.col(j).iter().map(|x| x * x).sum();
                (sill - acc).max(0.0)
            })
            .collect();
        let elapsed = sw.lap();
        let mut out = Vec::with_capacity(requests.len());
        let mut col = 0usize;
        for targets in requests {
            let m = targets.len();
            out.push((
                Prediction {
                    values: means[col..col + m].to_vec(),
                    factorization_seconds: 0.0,
                    solve_seconds: elapsed * m as f64 / total as f64,
                },
                variances[col..col + m].to_vec(),
            ));
            col += m;
        }
        Ok(out)
    }

    /// Draws one exact realization `Z = L·w`, `w ~ N(0, I)`, through the
    /// cached factor (the ExaGeoStat data generator).
    pub fn simulate(&self, rng: &mut exa_util::Rng, rt: &Runtime) -> Vec<f64> {
        let mut w = Mat::zeros(self.kernel.len(), 1);
        rng.fill_gaussian(w.as_mut_slice());
        self.factor.apply_factor(&w, rt).as_slice().to_vec()
    }

    /// Draws `count` independent realizations through the cached factor.
    ///
    /// The draws form one `n × count` block so the factor is applied once,
    /// as one multi-column product per tile. The Gaussian stream (and
    /// therefore every realization) is identical to `count` sequential
    /// [`FittedModel::simulate`] calls.
    pub fn simulate_many(
        &self,
        count: usize,
        rng: &mut exa_util::Rng,
        rt: &Runtime,
    ) -> Vec<Vec<f64>> {
        if count == 0 {
            return vec![];
        }
        let mut w = Mat::zeros(self.kernel.len(), count);
        rng.fill_gaussian(w.as_mut_slice());
        let y = self.factor.apply_factor(&w, rt);
        (0..count).map(|c| y.col(c).to_vec()).collect()
    }

    /// The measurement vector, when present.
    pub fn data(&self) -> Option<&[f64]> {
        self.z.as_deref()
    }

    /// A new session absorbing `points`/`values` at the tail of the observed
    /// set via a rank-k Cholesky **update** of the cached factor — `O(n²·k)`
    /// instead of the `O(n³)` refit, with the leading `n×n` factor block
    /// bitwise untouched. Re-solves `α` through the grown factor (two
    /// triangular solves) and rebuilds the coordinate SoA and likelihood.
    ///
    /// Returns `Ok(None)` when the factor's storage scheme cannot update
    /// incrementally (tile/TLR): the caller should refactorize instead. This
    /// is the engine under [`crate::live::LiveModel::observe`].
    pub fn with_appended(
        &self,
        points: &[Location],
        values: &[f64],
        rt: &Runtime,
    ) -> Result<Option<Self>, ModelError> {
        let (kernel, z_new) = self.appended_parts(points, values)?;
        let dense = match &self.factor {
            Factorization::Dense(l) => l.clone(),
            _ => return Ok(None),
        };
        let mut factor = Factorization::Dense(dense);
        factor.append(&kernel, points.len())?;
        Ok(Some(Self::resolved(
            kernel,
            z_new,
            factor,
            self.backend,
            self.config,
            self.timings,
            self.report.clone(),
            rt,
        )))
    }

    /// The full-refit twin of [`FittedModel::with_appended`]: same joint
    /// location set and data, but factored from scratch. Used as the
    /// synchronous fallback when the storage scheme cannot update
    /// incrementally, and by agreement tests as the exact reference.
    pub fn refit_appended(
        &self,
        points: &[Location],
        values: &[f64],
        rt: &Runtime,
    ) -> Result<Self, ModelError> {
        let (kernel, z_new) = self.appended_parts(points, values)?;
        Self::factorize(
            kernel,
            Some(z_new),
            self.backend,
            self.config,
            self.report.clone(),
            rt,
        )
    }

    /// Validates an ingest batch and builds the joint (observed ++ new)
    /// kernel and extended data vector.
    fn appended_parts(
        &self,
        points: &[Location],
        values: &[f64],
    ) -> Result<(K, Vec<f64>), ModelError> {
        let z = self.z.as_ref().ok_or(ModelError::NoData)?;
        if points.len() != values.len() {
            return Err(ModelError::Shape(format!(
                "{} points but {} values",
                points.len(),
                values.len()
            )));
        }
        validate_query(points).map_err(ModelError::InvalidQuery)?;
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::InvalidQuery(
                "observed values must be finite".into(),
            ));
        }
        let observed = self.kernel.locations_arc();
        let mut joint = Vec::with_capacity(observed.len() + points.len());
        joint.extend_from_slice(observed);
        joint.extend_from_slice(points);
        let mut z_new = z.clone();
        z_new.extend_from_slice(values);
        Ok((self.kernel.with_locations(Arc::new(joint)), z_new))
    }

    /// A new session with the observations at `indices` expired via Cholesky
    /// **downdates** of the cached factor (`O(n²)` per removed row), then
    /// `α` re-solved and the SoA/likelihood rebuilt over the survivors.
    ///
    /// Returns `Ok(None)` for tile/TLR factors (refit instead); rejects
    /// out-of-range indices and removing the entire observation set.
    pub fn with_removed(
        &self,
        indices: &[usize],
        rt: &Runtime,
    ) -> Result<Option<Self>, ModelError> {
        let (kernel, kept_z, drop) = self.removed_parts(indices)?;
        let dense = match &self.factor {
            Factorization::Dense(l) => l.clone(),
            _ => return Ok(None),
        };
        let mut factor = Factorization::Dense(dense);
        factor.remove(&drop);
        Ok(Some(Self::resolved(
            kernel,
            kept_z,
            factor,
            self.backend,
            self.config,
            self.timings,
            self.report.clone(),
            rt,
        )))
    }

    /// The full-refit twin of [`FittedModel::with_removed`].
    pub fn refit_removed(&self, indices: &[usize], rt: &Runtime) -> Result<Self, ModelError> {
        let (kernel, kept_z, _) = self.removed_parts(indices)?;
        Self::factorize(
            kernel,
            Some(kept_z),
            self.backend,
            self.config,
            self.report.clone(),
            rt,
        )
    }

    /// Validates expiry indices and builds the surviving kernel/data pair
    /// (plus the sorted, deduplicated index list for the factor downdate).
    #[allow(clippy::type_complexity)]
    fn removed_parts(&self, indices: &[usize]) -> Result<(K, Vec<f64>, Vec<usize>), ModelError> {
        let z = self.z.as_ref().ok_or(ModelError::NoData)?;
        let n = self.kernel.len();
        let mut drop: Vec<usize> = indices.to_vec();
        drop.sort_unstable();
        drop.dedup();
        if drop.last().is_some_and(|&i| i >= n) {
            return Err(ModelError::InvalidQuery(format!(
                "removal index {} out of range for {n} observations",
                drop.last().unwrap()
            )));
        }
        if drop.len() >= n {
            return Err(ModelError::InvalidQuery(
                "cannot expire every observation".into(),
            ));
        }
        let observed = self.kernel.locations_arc();
        let mut kept_locs = Vec::with_capacity(n - drop.len());
        let mut kept_z = Vec::with_capacity(n - drop.len());
        let mut next = drop.iter().copied().peekable();
        for i in 0..n {
            if next.peek() == Some(&i) {
                next.next();
            } else {
                kept_locs.push(observed[i]);
                kept_z.push(z[i]);
            }
        }
        Ok((
            self.kernel.with_locations(Arc::new(kept_locs)),
            kept_z,
            drop,
        ))
    }

    /// Assembles a session around an already-updated factor: re-solves
    /// `α = Σ⁻¹Z`, recomputes the likelihood pieces through the factor, and
    /// rebuilds the coordinate SoA. Shared tail of the incremental-ingest
    /// constructors.
    #[allow(clippy::too_many_arguments)]
    fn resolved(
        kernel: K,
        z: Vec<f64>,
        factor: Factorization,
        backend: Backend,
        config: LikelihoodConfig,
        timings: FactorTimings,
        report: FitReport,
        rt: &Runtime,
    ) -> Self {
        let n = kernel.len();
        debug_assert_eq!(z.len(), n);
        let mut w = Mat::from_vec(n, 1, z.clone());
        let ll = likelihood_from_factor(&factor, timings, &mut w, rt);
        let mut sw = Stopwatch::start();
        factor.trsm(TriangularSide::Backward, &mut w, rt);
        let alpha_seconds = ll.solve_seconds + sw.lap();
        let observed = kernel.locations_arc();
        let obs_x: Vec<f64> = observed.iter().map(|l| l.x).collect();
        let obs_y: Vec<f64> = observed.iter().map(|l| l.y).collect();
        FittedModel {
            kernel,
            z: Some(z),
            backend,
            config,
            factor,
            timings,
            obs_x,
            obs_y,
            alpha: Some(w),
            alpha_seconds,
            likelihood: Some(ll),
            report,
        }
    }

    /// A from-scratch refactorization of this session at the same `θ̂`,
    /// backend and data — the background-refit path of
    /// [`crate::live::LiveModel`]. Unlike the incremental constructors this
    /// runs the full `O(n³)` [`Factorization::compute`].
    pub fn refactored(&self, rt: &Runtime) -> Result<Self, ModelError> {
        Self::factorize(
            self.kernel.clone(),
            self.z.clone(),
            self.backend,
            self.config,
            self.report.clone(),
            rt,
        )
    }
}

/// Compile-time proof that sessions are shareable across threads: the
/// `exa-serve` prediction workers hold `Arc<FittedModel<K>>` and call the
/// prediction paths concurrently. The generic form covers **every** kernel
/// family (`ParamCovariance` is `Send + Sync`); the `const` items pin the
/// concrete types the serving layer registers today.
#[allow(dead_code)]
fn assert_sessions_are_send_sync<K: ParamCovariance>() {
    fn check<T: Send + Sync>() {}
    check::<GeoModel<K>>();
    check::<FittedModel<K>>();
}
const _: () = {
    const fn check<T: Send + Sync>() {}
    check::<FittedModel<exa_covariance::MaternKernel>>();
    check::<FittedModel<exa_covariance::GaussianKernel>>();
    check::<FittedModel<exa_covariance::PoweredExponentialKernel>>();
    check::<GeoModel<exa_covariance::MaternKernel>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locations::{holdout_split, synthetic_locations};
    use exa_covariance::{GaussianKernel, MaternKernel, PoweredExponentialKernel};
    use exa_util::Rng;

    fn matern_model(side: usize, seed: u64, backend: Backend) -> (GeoModel<MaternKernel>, Runtime) {
        let mut rng = Rng::seed_from_u64(seed);
        let locations = Arc::new(synthetic_locations(side, &mut rng));
        let rt = Runtime::new(4);
        let gen = GeoModel::<MaternKernel>::builder()
            .locations(locations.clone())
            .nugget(0.0)
            .tile_size(32)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap();
        let z = gen.simulate(&mut rng, &rt);
        let model = GeoModel::<MaternKernel>::builder()
            .locations(locations)
            .data(z)
            .backend(backend)
            .tile_size(32)
            .seed(seed)
            .build()
            .unwrap();
        (model, rt)
    }

    #[test]
    fn builder_validates_inputs() {
        assert!(matches!(
            GeoModel::<MaternKernel>::builder().build(),
            Err(ModelError::Shape(_))
        ));
        let locs = Arc::new(vec![Location::new(0.0, 0.0), Location::new(1.0, 1.0)]);
        assert!(matches!(
            GeoModel::<MaternKernel>::builder()
                .locations(locs.clone())
                .data(vec![1.0])
                .build(),
            Err(ModelError::Shape(_))
        ));
        assert!(GeoModel::<MaternKernel>::builder()
            .locations(locs)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_bad_tlr_threshold_and_tile_size() {
        // Each of these used to build, then panic inside the first
        // factorization (`at_params`/`fit`).
        let locs = Arc::new(vec![Location::new(0.0, 0.0), Location::new(1.0, 1.0)]);
        let builder = || GeoModel::<MaternKernel>::builder().locations(locs.clone());
        for eps in [0.0, -1e-7, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    builder().backend(Backend::tlr(eps)).build(),
                    Err(ModelError::Shape(_))
                ),
                "eps = {eps}"
            );
        }
        assert!(matches!(
            builder().tile_size(0).build(),
            Err(ModelError::Shape(_))
        ));
        assert!(builder().backend(Backend::tlr(1e-7)).build().is_ok());
    }

    #[test]
    fn kernel_at_rejects_malformed_theta() {
        let locs = Arc::new(vec![Location::new(0.0, 0.0)]);
        let model = GeoModel::<MaternKernel>::builder()
            .locations(locs)
            .build()
            .unwrap();
        assert!(matches!(
            model.kernel_at(&[1.0, 0.1]),
            Err(ModelError::InvalidParams(_))
        ));
        assert!(matches!(
            model.kernel_at(&[1.0, -0.1, 0.5]),
            Err(ModelError::InvalidParams(_))
        ));
    }

    #[test]
    fn data_less_session_simulates_but_cannot_fit() {
        let mut rng = Rng::seed_from_u64(9);
        let locs = Arc::new(synthetic_locations(5, &mut rng));
        let rt = Runtime::new(2);
        let model = GeoModel::<MaternKernel>::builder()
            .locations(locs)
            .tile_size(16)
            .build()
            .unwrap();
        assert!(matches!(
            model.fit(&FitOptions::default(), &rt),
            Err(ModelError::NoData)
        ));
        let at = model.at_params(&[1.0, 0.1, 0.5], &rt).unwrap();
        assert!(at.log_likelihood().is_none());
        assert!(matches!(at.predict(&[], &rt), Err(ModelError::NoData)));
        let z = at.simulate(&mut rng, &rt);
        assert_eq!(z.len(), 25);
    }

    /// `count` draws of `simulate_many` against `count` sequential
    /// `simulate` calls from the same seed, as bit patterns.
    fn batch_and_sequential_draws(backend: Backend) -> (Vec<u64>, Vec<u64>) {
        let mut rng = Rng::seed_from_u64(17);
        let rt = Runtime::new(2);
        let at = GeoModel::<MaternKernel>::builder()
            .locations(Arc::new(synthetic_locations(12, &mut rng)))
            .backend(backend)
            .tile_size(32)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap();
        let bits = |draws: Vec<Vec<f64>>| draws.concat().iter().map(|v| v.to_bits()).collect();
        let batch = at.simulate_many(3, &mut Rng::seed_from_u64(5), &rt);
        let mut one = Rng::seed_from_u64(5);
        let sequential = (0..3).map(|_| at.simulate(&mut one, &rt)).collect();
        (bits(batch), bits(sequential))
    }

    #[test]
    fn simulate_many_equals_sequential_simulate_on_every_backend() {
        for backend in [Backend::FullBlock, Backend::FullTile, Backend::tlr(1e-9)] {
            let (batch, sequential) = batch_and_sequential_draws(backend);
            assert_eq!(batch.len(), 3 * 144);
            assert_eq!(batch, sequential, "{backend:?}");
        }
    }

    #[test]
    fn fit_improves_on_start_and_predicts() {
        let (model, rt) = matern_model(12, 11, Backend::FullTile);
        let start = [0.5, 0.05, 0.8];
        let at_start = model.log_likelihood_at(&start, &rt).unwrap().value;
        let fitted = model
            .fit(
                &FitOptions {
                    initial: Some(start.to_vec()),
                    nm: NelderMeadConfig {
                        max_evals: 60,
                        ftol: 1e-4,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                &rt,
            )
            .unwrap();
        let ll = fitted.log_likelihood().unwrap();
        assert!(ll.value >= at_start, "{} < {at_start}", ll.value);
        assert!(fitted.report().evaluations > 5);
        assert!(fitted.report().likelihood_seconds > 0.0);
        // Prediction at a handful of interior points stays bounded.
        let targets = [Location::new(0.5, 0.5), Location::new(0.25, 0.75)];
        let p = fitted.predict(&targets, &rt).unwrap();
        assert_eq!(p.values.len(), 2);
        assert!(p.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn factor_reuse_performs_zero_potrf() {
        let (model, rt) = matern_model(10, 13, Backend::FullTile);
        let fitted = model.at_params(&[1.0, 0.1, 0.5], &rt).unwrap();
        let targets = [Location::new(0.4, 0.4), Location::new(0.9, 0.2)];
        let before = crate::factor::factorization_count();
        let p1 = fitted.predict(&targets, &rt).unwrap();
        let p2 = fitted.predict(&targets, &rt).unwrap();
        let (_, vars) = fitted.predict_with_variance(&targets, &rt).unwrap();
        assert_eq!(
            crate::factor::factorization_count(),
            before,
            "prediction after fitting must not re-factorize"
        );
        assert_eq!(p1.values, p2.values);
        assert_eq!(vars.len(), 2);
        assert_eq!(p1.factorization_seconds, 0.0);
    }

    #[test]
    fn batched_predictions_match_serial_paths() {
        // One coalesced predict_batch call must answer each request with the
        // bits it gets alone through predict / predict_with_variance (a batch
        // of one), for every backend.
        for backend in [Backend::FullBlock, Backend::FullTile, Backend::tlr(1e-11)] {
            let (model, rt) = matern_model(10, 29, backend);
            let fitted = model.at_params(&[1.0, 0.1, 0.5], &rt).unwrap();
            let requests: Vec<Vec<Location>> = vec![
                vec![Location::new(0.3, 0.4)],
                vec![Location::new(0.7, 0.2), Location::new(0.1, 0.9)],
                vec![Location::new(0.5, 0.5)],
            ];
            let slices: Vec<&[Location]> = requests.iter().map(|r| r.as_slice()).collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let before = crate::factor::factorization_count();
            let batch = fitted.predict_batch(&slices).unwrap();
            let batch_var = fitted.predict_batch_with_variance(&slices, &rt).unwrap();
            assert_eq!(
                crate::factor::factorization_count(),
                before,
                "batched prediction must not factorize"
            );
            assert_eq!(batch.len(), requests.len());
            for (req, (bp, (bv, vars))) in requests.iter().zip(batch.iter().zip(&batch_var)) {
                let serial = fitted.predict(req, &rt).unwrap();
                let (_, serial_vars) = fitted.predict_with_variance(req, &rt).unwrap();
                assert_eq!(bp.values.len(), req.len());
                assert_eq!(bits(&bp.values), bits(&serial.values), "{backend:?}");
                assert_eq!(bits(&bv.values), bits(&serial.values), "{backend:?}");
                assert_eq!(bits(vars), bits(&serial_vars), "{backend:?}");
            }
        }
    }

    #[test]
    fn concurrent_variance_predictions_match_the_serial_bits() {
        // Solves only read the factor, so callers sharing one model need no
        // lock and must not disturb each other.
        for backend in [Backend::FullTile, Backend::tlr(1e-9)] {
            let (model, rt) = matern_model(10, 31, backend);
            let fitted = Arc::new(model.at_params(&[1.0, 0.1, 0.5], &rt).unwrap());
            let requests = [
                vec![Location::new(0.3, 0.4), Location::new(0.8, 0.1)],
                vec![Location::new(0.55, 0.65)],
            ];
            let bits = |out: Vec<(Prediction, Vec<f64>)>| -> Vec<u64> {
                out.iter()
                    .flat_map(|(p, vars)| p.values.iter().chain(vars))
                    .map(|v| v.to_bits())
                    .collect()
            };
            let slices: Vec<&[Location]> = requests.iter().map(|r| r.as_slice()).collect();
            let serial = bits(fitted.predict_batch_with_variance(&slices, &rt).unwrap());
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let rt = Runtime::new(2);
                        start.wait();
                        for _ in 0..8 {
                            let got = fitted.predict_batch_with_variance(&slices, &rt).unwrap();
                            assert_eq!(bits(got), serial, "{backend:?}");
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn empty_and_non_finite_queries_are_structured_errors() {
        // Regression: malformed queries must come back as InvalidQuery, not
        // panic or NaN output — a serving layer rejects and keeps running.
        let (model, rt) = matern_model(6, 37, Backend::FullTile);
        let fitted = model.at_params(&[1.0, 0.1, 0.5], &rt).unwrap();
        assert!(matches!(
            fitted.predict(&[], &rt),
            Err(ModelError::InvalidQuery(_))
        ));
        assert!(matches!(
            fitted.predict_with_variance(&[], &rt),
            Err(ModelError::InvalidQuery(_))
        ));
        for bad in [
            Location::new(f64::NAN, 0.5),
            Location::new(0.5, f64::INFINITY),
            Location::new(f64::NEG_INFINITY, f64::NAN),
        ] {
            assert!(matches!(
                fitted.predict(&[Location::new(0.1, 0.1), bad], &rt),
                Err(ModelError::InvalidQuery(_))
            ));
            assert!(matches!(
                fitted.predict_with_variance(&[bad], &rt),
                Err(ModelError::InvalidQuery(_))
            ));
            let good = [Location::new(0.2, 0.2)];
            let bad_req = [bad];
            let reqs: Vec<&[Location]> = vec![&good, &bad_req];
            let err = fitted.predict_batch(&reqs).unwrap_err();
            assert!(
                matches!(&err, ModelError::InvalidQuery(msg) if msg.contains("request 1")),
                "{err}"
            );
            assert!(matches!(
                fitted.predict_batch_with_variance(&reqs, &rt),
                Err(ModelError::InvalidQuery(_))
            ));
        }
        // A batch containing an empty request names it too.
        let good = [Location::new(0.2, 0.2)];
        let reqs: Vec<&[Location]> = vec![&good, &[]];
        assert!(matches!(
            fitted.predict_batch(&reqs),
            Err(ModelError::InvalidQuery(_))
        ));
        // Zero requests are a no-op, not an error.
        assert!(fitted.predict_batch(&[]).unwrap().is_empty());
        assert!(fitted
            .predict_batch_with_variance(&[], &rt)
            .unwrap()
            .is_empty());
        // And a well-formed query still produces finite values.
        let p = fitted.predict(&[Location::new(0.4, 0.4)], &rt).unwrap();
        assert!(p.values[0].is_finite());
    }

    #[test]
    fn backends_agree_through_the_session_api() {
        let theta = [1.0, 0.1, 0.5];
        let mut values: Vec<(f64, Vec<f64>)> = Vec::new();
        for backend in [Backend::FullBlock, Backend::FullTile, Backend::tlr(1e-12)] {
            let (model, rt) = matern_model(9, 17, backend);
            let fitted = model.at_params(&theta, &rt).unwrap();
            let ll = fitted.log_likelihood().unwrap().value;
            let targets = [Location::new(0.3, 0.6), Location::new(0.8, 0.8)];
            let p = fitted.predict(&targets, &rt).unwrap();
            values.push((ll, p.values));
        }
        let (ll0, p0) = &values[0];
        for (ll, p) in &values[1..] {
            assert!((ll - ll0).abs() < 1e-6 * ll0.abs(), "{ll} vs {ll0}");
            for (a, b) in p.iter().zip(p0) {
                assert!((a - b).abs() < 1e-7 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn all_three_families_fit_and_krige_end_to_end() {
        // The acceptance path: MLE fit + kriging through the same generic
        // code for Matérn, powered-exponential and Gaussian families.
        let mut rng = Rng::seed_from_u64(23);
        let locations = Arc::new(synthetic_locations(10, &mut rng));
        let rt = Runtime::new(4);
        let split = holdout_split(locations.len(), 15, &mut rng);
        let nm = NelderMeadConfig {
            max_evals: 40,
            ftol: 1e-4,
            ..Default::default()
        };

        fn run<K: ParamCovariance>(
            locations: &Arc<Vec<Location>>,
            split: &crate::locations::HoldoutSplit,
            truth: &[f64],
            start: &[f64],
            nm: NelderMeadConfig,
            rng: &mut Rng,
            rt: &Runtime,
        ) -> f64 {
            let gen = GeoModel::<K>::builder()
                .locations(locations.clone())
                .tile_size(32)
                .build()
                .unwrap()
                .at_params(truth, rt)
                .unwrap();
            let z = gen.simulate(rng, rt);
            let observed: Vec<Location> = split.estimation.iter().map(|&i| locations[i]).collect();
            let z_obs: Vec<f64> = split.estimation.iter().map(|&i| z[i]).collect();
            let targets: Vec<Location> = split.validation.iter().map(|&i| locations[i]).collect();
            let truth_vals: Vec<f64> = split.validation.iter().map(|&i| z[i]).collect();
            let fitted = GeoModel::<K>::builder()
                .locations(Arc::new(observed))
                .data(z_obs)
                .tile_size(32)
                .build()
                .unwrap()
                .fit(
                    &FitOptions {
                        initial: Some(start.to_vec()),
                        nm,
                        ..Default::default()
                    },
                    rt,
                )
                .unwrap();
            assert_eq!(fitted.params().len(), K::n_params());
            let p = fitted.predict(&targets, rt).unwrap();
            crate::predict::prediction_mse(&truth_vals, &p.values)
        }

        let mse_matern = run::<MaternKernel>(
            &locations,
            &split,
            &[1.0, 0.15, 0.5],
            &[0.5, 0.08, 0.8],
            nm,
            &mut rng,
            &rt,
        );
        let mse_powexp = run::<PoweredExponentialKernel>(
            &locations,
            &split,
            &[1.0, 0.15, 1.0],
            &[0.5, 0.08, 1.4],
            nm,
            &mut rng,
            &rt,
        );
        let mse_gauss = run::<GaussianKernel>(
            &locations,
            &split,
            &[1.0, 0.15],
            &[0.5, 0.08],
            nm,
            &mut rng,
            &rt,
        );
        // Kriging must beat the trivial zero predictor (marginal variance 1)
        // for every family on its own data.
        for (family, mse) in [
            ("matern", mse_matern),
            ("powered-exponential", mse_powexp),
            ("gaussian", mse_gauss),
        ] {
            assert!(mse.is_finite() && mse < 1.0, "{family}: MSE {mse}");
        }
    }

    #[test]
    fn equal_bounds_fix_a_parameter() {
        // lo == hi pins a coordinate (the optimizer's inclusive box clamps
        // to the point) — the legacy driver allowed this and the session
        // API must too, not reject or panic.
        let (model, rt) = matern_model(8, 41, Backend::FullTile);
        let fitted = model
            .fit(
                &FitOptions {
                    initial: Some(vec![1.0, 0.1, 0.5]),
                    lower: Some(vec![0.01, 0.001, 0.5]),
                    upper: Some(vec![100.0, 100.0, 0.5]),
                    nm: NelderMeadConfig {
                        max_evals: 25,
                        ftol: 1e-4,
                        ..Default::default()
                    },
                },
                &rt,
            )
            .unwrap();
        let theta = fitted.params();
        assert!(
            (theta[2] - 0.5).abs() < 1e-12,
            "smoothness must stay pinned at 0.5, got {}",
            theta[2]
        );
    }

    #[test]
    fn fit_rejects_out_of_domain_bounds_up_front() {
        // A powered-exponential power bound above 2 leaves the family's
        // positive-definiteness domain: the fit must refuse immediately
        // instead of panicking when the simplex reaches the corner.
        let mut rng = Rng::seed_from_u64(31);
        let locs = Arc::new(synthetic_locations(4, &mut rng));
        let rt = Runtime::new(1);
        let model = GeoModel::<PoweredExponentialKernel>::builder()
            .locations(locs)
            .data(vec![0.1; 16])
            .tile_size(8)
            .build()
            .unwrap();
        let out = model.fit(
            &FitOptions {
                upper: Some(vec![100.0, 100.0, 3.0]),
                ..Default::default()
            },
            &rt,
        );
        assert!(
            matches!(out, Err(ModelError::InvalidParams(_))),
            "{:?}",
            out.map(|f| f.params())
        );
    }

    #[test]
    fn infeasible_fit_reports_best_point() {
        // A Gaussian fit with zero nugget on a dense grid breaks down at
        // every proposed θ: the session must say so rather than return junk.
        let side = 12;
        let locations: Vec<Location> = (0..side * side)
            .map(|k| {
                Location::new(
                    (k % side) as f64 / side as f64,
                    (k / side) as f64 / side as f64,
                )
            })
            .collect();
        let rt = Runtime::new(2);
        let model = GeoModel::<GaussianKernel>::builder()
            .locations(Arc::new(locations))
            .data(vec![0.1; side * side])
            .nugget(0.0)
            .tile_size(48)
            .build()
            .unwrap();
        let out = model.fit(
            &FitOptions {
                initial: Some(vec![1.0, 5.0]),
                nm: NelderMeadConfig {
                    max_evals: 12,
                    ..Default::default()
                },
                ..Default::default()
            },
            &rt,
        );
        match out {
            Err(ModelError::Infeasible { theta, report }) => {
                assert_eq!(theta.len(), 2);
                assert!(report.evaluations > 0);
            }
            other => panic!("expected Infeasible, got {:?}", other.map(|f| f.params())),
        }
    }
}
