//! Cross-crate integration tests: the full ExaGeoStat pipeline
//! (locations → simulation → likelihood → MLE → prediction) spanning
//! `exa-covariance`, `exa-linalg`, `exa-runtime`, `exa-tile` and
//! `exa-geostat`.

use exageostat::prelude::*;
use exageostat::util::stats::mean;
use std::sync::Arc;

/// Eq. 1 through the kernel-generic engine (the old free-function shape).
fn log_likelihood(
    kernel: &MaternKernel,
    z: &[f64],
    backend: Backend,
    cfg: LikelihoodConfig,
    rt: &Runtime,
) -> f64 {
    eval_log_likelihood(kernel, z, backend, cfg, rt)
        .unwrap()
        .value
}

/// One-shot kriging through a `GeoModel` session (factor + predict).
fn krige(
    observed: &[Location],
    z_obs: &[f64],
    targets: &[Location],
    truth: MaternParams,
    backend: Backend,
    cfg: LikelihoodConfig,
    rt: &Runtime,
) -> Vec<f64> {
    GeoModel::<MaternKernel>::builder()
        .locations(Arc::new(observed.to_vec()))
        .data(z_obs.to_vec())
        .backend(backend)
        .config(cfg)
        .build()
        .unwrap()
        .at_params(&truth.to_array(), rt)
        .unwrap()
        .predict(targets, rt)
        .unwrap()
        .values
}

fn simulated_problem(
    truth: MaternParams,
    side: usize,
    seed: u64,
    rt: &Runtime,
) -> (Arc<Vec<Location>>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let locs = Arc::new(synthetic_locations(side, &mut rng));
    let z = GeoModel::<MaternKernel>::builder()
        .locations(locs.clone())
        .nugget(0.0)
        .tile_size(48)
        .build()
        .unwrap()
        .at_params(&truth.to_array(), rt)
        .expect("SPD")
        .simulate(&mut rng, rt);
    (locs, z)
}

#[test]
fn tlr_likelihood_converges_to_exact_with_accuracy() {
    // DESIGN §5: TLR log-likelihood within tolerance of exact per accuracy,
    // with monotone improvement.
    let truth = MaternParams::new(1.0, 0.1, 0.5);
    let rt = Runtime::new(4);
    let (locs, z) = simulated_problem(truth, 14, 1, &rt);
    let kernel = MaternKernel::new(locs, truth, DistanceMetric::Euclidean, 1e-8);
    let cfg = LikelihoodConfig { nb: 49, seed: 1 };
    let exact = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt);
    let mut errors = Vec::new();
    for eps in [1e-4, 1e-6, 1e-8, 1e-10] {
        let v = log_likelihood(&kernel, &z, Backend::tlr(eps), cfg, &rt);
        errors.push((v - exact).abs());
    }
    assert!(
        errors.last().unwrap() < &1e-4,
        "tightest accuracy too far from exact: {errors:?}"
    );
    assert!(
        errors.last().unwrap() <= &(errors[0] + 1e-12),
        "no improvement from tighter accuracy: {errors:?}"
    );
}

#[test]
fn full_mle_pipeline_recovers_likelihood_dominance() {
    // Fit with TLR, evaluate the fit with the exact backend: the TLR
    // optimum must be a near-optimum of the exact surface too.
    let truth = MaternParams::new(1.0, 0.1, 0.5);
    let rt = Runtime::new(4);
    let (locs, z) = simulated_problem(truth, 14, 2, &rt);
    let cfg = LikelihoodConfig { nb: 49, seed: 2 };
    let fitted = GeoModel::<MaternKernel>::builder()
        .locations(locs.clone())
        .data(z.clone())
        .backend(Backend::tlr(1e-9))
        .config(cfg)
        .build()
        .unwrap()
        .fit(
            &FitOptions {
                initial: Some(vec![0.5, 0.05, 1.0]),
                nm: NelderMeadConfig {
                    max_evals: 100,
                    ftol: 1e-5,
                    ..Default::default()
                },
                ..Default::default()
            },
            &rt,
        )
        .unwrap();
    let kernel = MaternKernel::new(locs, truth, DistanceMetric::Euclidean, 1e-8);
    let exact_at_truth = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt);
    let exact_at_fit = log_likelihood(
        &kernel.with_params(fitted.kernel().params()),
        &z,
        Backend::FullTile,
        cfg,
        &rt,
    );
    assert!(
        exact_at_fit >= exact_at_truth - 1.0,
        "TLR fit ℓ = {exact_at_fit} far below ℓ(truth) = {exact_at_truth}"
    );
}

#[test]
fn prediction_mse_ordering_across_correlation_strengths() {
    // Paper §VIII-D1: MSE falls as correlation strengthens (0.124 weak /
    // 0.036 medium / 0.012 strong at the paper's scale).
    let rt = Runtime::new(4);
    let mut mses = Vec::new();
    for range in [0.03, 0.1, 0.3] {
        let truth = MaternParams::new(1.0, range, 0.5);
        let (locs, z) = simulated_problem(truth, 16, 3, &rt);
        let mut rng = Rng::seed_from_u64(99);
        let split = holdout_split(locs.len(), 40, &mut rng);
        let observed: Vec<Location> = split.estimation.iter().map(|&i| locs[i]).collect();
        let z_obs: Vec<f64> = split.estimation.iter().map(|&i| z[i]).collect();
        let targets: Vec<Location> = split.validation.iter().map(|&i| locs[i]).collect();
        let truth_vals: Vec<f64> = split.validation.iter().map(|&i| z[i]).collect();
        let values = krige(
            &observed,
            &z_obs,
            &targets,
            truth,
            Backend::tlr(1e-9),
            LikelihoodConfig { nb: 64, seed: 3 },
            &rt,
        );
        mses.push(prediction_mse(&truth_vals, &values));
    }
    assert!(
        mses[2] < mses[1] && mses[1] < mses[0],
        "MSE must fall with correlation strength: {mses:?}"
    );
}

#[test]
fn all_backends_agree_on_prediction_at_tight_accuracy() {
    let truth = MaternParams::new(1.0, 0.1, 0.5);
    let rt = Runtime::new(4);
    let (locs, z) = simulated_problem(truth, 12, 4, &rt);
    let mut rng = Rng::seed_from_u64(5);
    let split = holdout_split(locs.len(), 20, &mut rng);
    let observed: Vec<Location> = split.estimation.iter().map(|&i| locs[i]).collect();
    let z_obs: Vec<f64> = split.estimation.iter().map(|&i| z[i]).collect();
    let targets: Vec<Location> = split.validation.iter().map(|&i| locs[i]).collect();
    let mut results = Vec::new();
    for backend in [Backend::FullBlock, Backend::FullTile, Backend::tlr(1e-11)] {
        let values = krige(
            &observed,
            &z_obs,
            &targets,
            truth,
            backend,
            LikelihoodConfig { nb: 36, seed: 4 },
            &rt,
        );
        results.push(values);
    }
    for other in &results[1..] {
        for (a, b) in results[0].iter().zip(other) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }
}

#[test]
fn deterministic_end_to_end_across_worker_counts() {
    // DESIGN §5: runtime schedule legality and determinism — the whole
    // pipeline gives bitwise-identical answers for 1 vs 8 workers.
    let truth = MaternParams::new(1.0, 0.1, 0.5);
    let run = |workers: usize| {
        let rt = Runtime::new(workers);
        let (locs, z) = simulated_problem(truth, 10, 6, &rt);
        let kernel = MaternKernel::new(locs, truth, DistanceMetric::Euclidean, 1e-8);
        let cfg = LikelihoodConfig { nb: 25, seed: 6 };
        let tile = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt);
        let tlr = log_likelihood(&kernel, &z, Backend::tlr(1e-9), cfg, &rt);
        (tile, tlr)
    };
    assert_eq!(run(1), run(8));
}

#[test]
fn morton_sorting_is_what_makes_tlr_compress() {
    // The ExaGeoStat preprocessing justification: the same covariance
    // matrix compresses far better when locations are Morton-sorted.
    let mut rng = Rng::seed_from_u64(7);
    let n = 400;
    let unsorted: Vec<Location> = (0..n)
        .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
        .collect();
    let mut sorted = unsorted.clone();
    sort_morton(&mut sorted);
    let params = MaternParams::new(1.0, 0.1, 0.5);
    let build = |locs: Vec<Location>| {
        let kernel = MaternKernel::new(Arc::new(locs), params, DistanceMetric::Euclidean, 0.0);
        TlrMatrix::from_kernel(&kernel, 50, 1e-7, CompressionMethod::Svd, 4, 7)
            .unwrap()
            .rank_stats()
            .mean
    };
    let mean_unsorted = build(unsorted);
    let mean_sorted = build(sorted);
    assert!(
        mean_sorted < 0.8 * mean_unsorted,
        "sorted mean rank {mean_sorted} vs unsorted {mean_unsorted}"
    );
}

#[test]
fn simulated_fields_have_the_right_marginal_moments() {
    // Generation sanity across the whole stack: mean ≈ 0, variance ≈ θ₁.
    let truth = MaternParams::new(2.5, 0.05, 0.5);
    let rt = Runtime::new(4);
    let mut rng = Rng::seed_from_u64(8);
    let locs = Arc::new(synthetic_locations(12, &mut rng));
    let sim = GeoModel::<MaternKernel>::builder()
        .locations(locs)
        .nugget(0.0)
        .tile_size(36)
        .build()
        .unwrap()
        .at_params(&truth.to_array(), &rt)
        .unwrap();
    let mut pooled = Vec::new();
    for _ in 0..40 {
        pooled.extend(sim.simulate(&mut rng, &rt));
    }
    assert!(mean(&pooled).abs() < 0.15, "mean {}", mean(&pooled));
    let v = exageostat::util::stats::sample_variance(&pooled);
    assert!((v - 2.5).abs() < 0.5, "variance {v}");
}
