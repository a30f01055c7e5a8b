//! Output checks. A check that does not hold makes the run incorrect and
//! the process exit non-zero.

use crate::data::{dense_nb, Field, Fitted};
use crate::{Outcome, THETA0};
use exa_covariance::{CovarianceKernel, Location, ParamCovariance};
use exa_geostat::{Backend, Factorization, LikelihoodConfig};
use exa_linalg::Mat;
use exa_runtime::Runtime;
use std::sync::Arc;

/// Largest |mean − kᵀα| over one request, against a harness-local naive
/// reference: `α = Σ⁻¹Z` solved through the public [`Factorization`] of the
/// model's own kernel and backend, each cross-covariance taken entry by
/// entry from the joint kernel and summed in plain order. This pins the
/// prediction path (blocked cross-row fill, unrolled dot); the solve itself
/// is pinned by [`loglik_rel_err`].
pub fn kriging_error(
    model: &Fitted,
    cfg: LikelihoodConfig,
    request: &[Location],
    rt: &Runtime,
) -> f64 {
    let kernel = model.kernel();
    let n = kernel.len();
    let z = model.data().expect("model carries data");
    let (mut factor, _) = Factorization::compute(kernel, model.backend(), cfg, rt)
        .expect("the model's own Σ(θ) factors");
    let mut alpha = Mat::from_vec(n, 1, z.to_vec());
    factor.solve(&mut alpha, rt);
    let alpha = alpha.col(0);

    let mut joint: Vec<Location> = kernel.locations_arc().as_ref().clone();
    joint.extend_from_slice(request);
    let joint = kernel.with_locations(Arc::new(joint));
    let served = model.predict_batch(&[request]).expect("prediction");
    (0..request.len())
        .map(|t| {
            let mut acc = 0.0;
            for (j, a) in alpha.iter().enumerate() {
                acc += joint.entry(n + t, j) * a;
            }
            (acc - served[0].values[t]).abs()
        })
        .fold(0.0, f64::max)
}

/// Checks the kriging means of `request` against the naive reference.
pub fn check_kriging(
    out: &mut Outcome,
    model: &Fitted,
    cfg: LikelihoodConfig,
    request: &[Location],
    rt: &Runtime,
) {
    let err = kriging_error(model, cfg, request, rt);
    out.require(err <= 1e-9, || {
        format!("kriging means differ from the naive kᵀα reference by {err:e} (> 1e-9)")
    });
}

/// |ℓ_backend(θ₀) − ℓ_FullBlock(θ₀)| / |ℓ_FullBlock(θ₀)|: how far the
/// backend's likelihood is from the dense fork-join reference.
pub fn loglik_rel_err(field: &Field, backend: Backend, nb: usize, seed: u64, rt: &Runtime) -> f64 {
    let n = field.z.len();
    let reference = field
        .model(Backend::FullBlock, dense_nb(n), seed)
        .log_likelihood_at(&THETA0, rt)
        .expect("reference likelihood")
        .value;
    let value = field
        .model(backend, nb, seed)
        .log_likelihood_at(&THETA0, rt)
        .expect("backend likelihood")
        .value;
    (value - reference).abs() / reference.abs()
}

/// The accuracy a backend must keep: speed bought with accuracy fails here.
pub fn loglik_tolerance(backend: Backend) -> f64 {
    match backend {
        Backend::Tlr { .. } => 1e-4,
        _ => 1e-10,
    }
}

/// Computes and checks the likelihood error of `backend`; returns it.
pub fn check_loglik(
    out: &mut Outcome,
    field: &Field,
    backend: Backend,
    nb: usize,
    seed: u64,
    rt: &Runtime,
) -> f64 {
    let err = loglik_rel_err(field, backend, nb, seed, rt);
    let tol = loglik_tolerance(backend);
    out.require(err <= tol, || {
        format!("loglik_rel_err {err:e} of {backend} exceeds {tol:e}")
    });
    err
}
