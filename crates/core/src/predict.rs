//! Kriging prediction results and accuracy scoring (paper Eq. 2–4, Eq. 7).
//!
//! With `Z₂` observed at `n` locations and `m` target locations, the
//! zero-mean conditional expectation is `Ẑ₁ = Σ₁₂ Σ₂₂⁻¹ Z₂`. The prediction
//! entry points live on [`crate::FittedModel`] — `predict`,
//! `predict_with_variance`, and the serving-oriented coalesced
//! `predict_batch` family — all of which reuse the factor computed at `θ̂`.
//! This module holds the shared [`Prediction`] result type and the paper's
//! mean-squared-error score (Eq. 7) against held-out truth.

/// Result of one prediction run.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Predicted values `Ẑ₁` at the target locations.
    pub values: Vec<f64>,
    /// Seconds in the `Σ₂₂` factorization (0 for factor-reusing session
    /// predictions; retained for harnesses that account full pipelines).
    pub factorization_seconds: f64,
    /// Seconds in the solves + cross-covariance product.
    pub solve_seconds: f64,
}

/// The paper's prediction MSE (Eq. 7): `(1/m)·Σ (Y_i − Ŷ_i)²`.
pub fn prediction_mse(truth: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "length mismatch");
    assert!(!truth.is_empty(), "empty prediction set");
    truth
        .iter()
        .zip(predicted)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::{Backend, LikelihoodConfig};
    use crate::locations::{holdout_split, synthetic_locations};
    use crate::model::GeoModel;
    use exa_covariance::{Location, MaternKernel, MaternParams};
    use exa_runtime::Runtime;
    use exa_util::Rng;
    use std::sync::Arc;

    /// Simulates a field, holds out `m` sites, predicts them back through a
    /// session factored at the generating parameters.
    fn holdout_experiment(
        params: MaternParams,
        side: usize,
        m: usize,
        backend: Backend,
        seed: u64,
    ) -> (f64, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let locs = Arc::new(synthetic_locations(side, &mut rng));
        let rt = Runtime::new(4);
        let z = GeoModel::<MaternKernel>::builder()
            .locations(locs.clone())
            .nugget(0.0)
            .tile_size(32)
            .build()
            .unwrap()
            .at_params(&params.to_array(), &rt)
            .unwrap()
            .simulate(&mut rng, &rt);
        let split = holdout_split(locs.len(), m, &mut rng);
        let observed: Vec<Location> = split.estimation.iter().map(|&i| locs[i]).collect();
        let z_obs: Vec<f64> = split.estimation.iter().map(|&i| z[i]).collect();
        let targets: Vec<Location> = split.validation.iter().map(|&i| locs[i]).collect();
        let truth: Vec<f64> = split.validation.iter().map(|&i| z[i]).collect();
        let fitted = GeoModel::<MaternKernel>::builder()
            .locations(Arc::new(observed))
            .data(z_obs)
            .nugget(1e-8)
            .backend(backend)
            .config(LikelihoodConfig { nb: 32, seed })
            .build()
            .unwrap()
            .at_params(&params.to_array(), &rt)
            .unwrap();
        let p = fitted.predict(&targets, &rt).unwrap();
        (prediction_mse(&truth, &p.values), truth, p.values)
    }

    #[test]
    fn strong_correlation_gives_low_mse() {
        // §VIII-D1: prediction MSE falls as correlation strengthens
        // (paper: 0.124 weak / 0.036 medium / 0.012 strong at 40K).
        let (weak, _, _) = holdout_experiment(
            MaternParams::new(1.0, 0.03, 0.5),
            18,
            30,
            Backend::FullTile,
            1,
        );
        let (strong, _, _) = holdout_experiment(
            MaternParams::new(1.0, 0.3, 0.5),
            18,
            30,
            Backend::FullTile,
            1,
        );
        assert!(
            strong < weak,
            "strong-corr MSE {strong} must beat weak-corr {weak}"
        );
        assert!(strong < 0.2, "strong-correlation MSE {strong}");
    }

    #[test]
    fn tlr_prediction_matches_full_tile() {
        let params = MaternParams::new(1.0, 0.1, 0.5);
        let (mse_full, _, pred_full) = holdout_experiment(params, 16, 25, Backend::FullTile, 2);
        let (mse_tlr, _, pred_tlr) = holdout_experiment(params, 16, 25, Backend::tlr(1e-9), 2);
        // Identical data (same seed): per-point predictions nearly coincide.
        for (a, b) in pred_full.iter().zip(&pred_tlr) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert!((mse_full - mse_tlr).abs() < 1e-3);
    }

    #[test]
    fn prediction_beats_trivial_zero_predictor() {
        let params = MaternParams::new(1.0, 0.3, 0.5);
        let (mse, truth, _) = holdout_experiment(params, 16, 25, Backend::FullTile, 3);
        let zero_mse = prediction_mse(&truth, &vec![0.0; truth.len()]);
        assert!(
            mse < zero_mse,
            "kriging MSE {mse} must beat marginal variance {zero_mse}"
        );
    }

    #[test]
    fn block_and_tile_backends_agree() {
        let params = MaternParams::new(1.0, 0.1, 0.5);
        let (_, _, p_block) = holdout_experiment(params, 12, 10, Backend::FullBlock, 4);
        let (_, _, p_tile) = holdout_experiment(params, 12, 10, Backend::FullTile, 4);
        for (a, b) in p_block.iter().zip(&p_tile) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn conditional_variance_is_bounded_and_orders_by_distance() {
        // 0 ≤ Var[Z₁|Z₂] ≤ θ₁, and a target far from every observation is
        // more uncertain than one surrounded by observations.
        let params = MaternParams::new(1.0, 0.2, 0.5);
        let rt = Runtime::new(2);
        let mut rng = Rng::seed_from_u64(10);
        let locs = synthetic_locations(10, &mut rng);
        let z = vec![0.3; 100];
        // Near target: the grid centre; far target: well outside the square.
        let targets = vec![Location::new(0.5, 0.5), Location::new(3.0, 3.0)];
        let fitted = GeoModel::<MaternKernel>::builder()
            .locations(Arc::new(locs))
            .data(z)
            .nugget(1e-8)
            .config(LikelihoodConfig { nb: 25, seed: 10 })
            .build()
            .unwrap()
            .at_params(&params.to_array(), &rt)
            .unwrap();
        let (_, vars) = fitted.predict_with_variance(&targets, &rt).unwrap();
        assert!(
            vars.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)),
            "{vars:?}"
        );
        assert!(
            vars[0] < 0.5 && vars[1] > 0.9,
            "near {} should be certain, far {} nearly marginal",
            vars[0],
            vars[1]
        );
    }

    #[test]
    fn tlr_variance_matches_full_tile() {
        let params = MaternParams::new(1.0, 0.1, 0.5);
        let rt = Runtime::new(2);
        let mut rng = Rng::seed_from_u64(11);
        let locs = synthetic_locations(9, &mut rng);
        let z = vec![0.1; 81];
        let targets = vec![Location::new(0.4, 0.6), Location::new(0.9, 0.1)];
        let run = |backend| {
            GeoModel::<MaternKernel>::builder()
                .locations(Arc::new(locs.clone()))
                .data(z.clone())
                .nugget(1e-8)
                .backend(backend)
                .config(LikelihoodConfig { nb: 27, seed: 11 })
                .build()
                .unwrap()
                .at_params(&params.to_array(), &rt)
                .unwrap()
                .predict_with_variance(&targets, &rt)
                .unwrap()
                .1
        };
        let exact = run(Backend::FullTile);
        let approx = run(Backend::tlr(1e-10));
        for (a, b) in exact.iter().zip(&approx) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mse_validates_lengths() {
        prediction_mse(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "empty prediction set")]
    fn mse_rejects_empty_input_instead_of_nan() {
        // Regression guard: 0/0 on empty input must not silently yield NaN.
        prediction_mse(&[], &[]);
    }
}
