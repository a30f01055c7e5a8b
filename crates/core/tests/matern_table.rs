//! "Same numbers" at model level: at a general smoothness `MaternKernel`
//! evaluates the Matérn through its tabulated radial function, never through
//! `K_ν` per entry. These tests hold the two things that rest on that swap:
//! the log-likelihood and kriging means equal those of a kernel that calls
//! the Bessel reference for every entry, on all three backends; and a
//! degenerate θ or location is a rejected point the optimizer walks away
//! from, never a spin or a silently truncated sum.

use exa_covariance::{
    CovarianceKernel, DistanceMetric, Location, MaternKernel, MaternParams, ParamCovariance,
};
use exa_geostat::{
    synthetic_locations, Backend, FitOptions, GeoModel, LikelihoodConfig, ModelError,
    NelderMeadConfig,
};
use exa_runtime::Runtime;
use exa_util::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The Matérn family with every entry taken from
/// [`MaternParams::covariance`]: the direct Temme/Steed evaluation.
#[derive(Clone)]
struct BesselMatern {
    locations: Arc<Vec<Location>>,
    params: MaternParams,
    nugget: f64,
}

impl CovarianceKernel for BesselMatern {
    fn len(&self) -> usize {
        self.locations.len()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return self.params.variance + self.nugget;
        }
        self.cross(&self.locations[i], &self.locations[j])
    }
}

impl ParamCovariance for BesselMatern {
    const FAMILY: &'static str = "bessel-matern";

    fn param_names() -> &'static [&'static str] {
        MaternKernel::param_names()
    }

    fn from_parts(
        locations: Arc<Vec<Location>>,
        theta: &[f64],
        _metric: DistanceMetric,
        nugget: f64,
    ) -> Result<Self, String> {
        let params = MaternParams::from_array([theta[0], theta[1], theta[2]]);
        params.validate()?;
        Ok(BesselMatern {
            locations,
            params,
            nugget,
        })
    }

    fn params_vec(&self) -> Vec<f64> {
        self.params.to_array().to_vec()
    }

    fn with_params_vec(&self, theta: &[f64]) -> Self {
        Self::from_parts(
            self.locations.clone(),
            theta,
            DistanceMetric::Euclidean,
            self.nugget,
        )
        .unwrap()
    }

    fn with_locations(&self, locations: Arc<Vec<Location>>) -> Self {
        BesselMatern {
            locations,
            ..self.clone()
        }
    }

    fn default_bounds() -> (Vec<f64>, Vec<f64>) {
        MaternKernel::default_bounds()
    }

    fn cross(&self, a: &Location, b: &Location) -> f64 {
        self.params
            .covariance(DistanceMetric::Euclidean.distance(a, b))
    }

    fn sill(&self) -> f64 {
        self.params.variance
    }

    fn metric(&self) -> DistanceMetric {
        DistanceMetric::Euclidean
    }

    fn nugget(&self) -> f64 {
        self.nugget
    }

    fn locations_arc(&self) -> &Arc<Vec<Location>> {
        &self.locations
    }
}

/// ℓ(θ) and the means of 64 kriging targets under family `K`.
fn loglik_and_means<K: ParamCovariance>(
    locations: &Arc<Vec<Location>>,
    z: &[f64],
    targets: &[Location],
    theta: &[f64],
    backend: Backend,
    rt: &Runtime,
) -> (f64, Vec<f64>) {
    let fitted = GeoModel::<K>::builder()
        .locations(locations.clone())
        .data(z.to_vec())
        .nugget(1e-8)
        .backend(backend)
        .config(LikelihoodConfig { nb: 50, seed: 7 })
        .build()
        .unwrap()
        .at_params(theta, rt)
        .unwrap();
    let means = fitted.predict_batch(&[targets]).unwrap().remove(0).values;
    (fitted.log_likelihood().unwrap().value, means)
}

#[test]
fn tabulated_and_bessel_kernels_give_the_same_likelihood_and_kriging_means() {
    let rt = Runtime::new(2);
    let mut rng = Rng::seed_from_u64(18);
    let locations = Arc::new(synthetic_locations(20, &mut rng)); // n = 400
    let theta = [0.9, 0.07, 0.83];
    let z = GeoModel::<MaternKernel>::builder()
        .locations(locations.clone())
        .nugget(1e-8)
        .build()
        .unwrap()
        .at_params(&theta, &rt)
        .unwrap()
        .simulate(&mut rng, &rt);
    let targets: Vec<Location> = (0..64)
        .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
        .collect();
    for backend in [Backend::FullBlock, Backend::FullTile, Backend::tlr(1e-9)] {
        let (l_table, m_table) =
            loglik_and_means::<MaternKernel>(&locations, &z, &targets, &theta, backend, &rt);
        let (l_bessel, m_bessel) =
            loglik_and_means::<BesselMatern>(&locations, &z, &targets, &theta, backend, &rt);
        assert!(
            (l_table - l_bessel).abs() <= 1e-11 * l_bessel.abs(),
            "{backend}: ℓ {l_table} (table) vs {l_bessel} (Bessel)"
        );
        for (a, b) in m_table.iter().zip(&m_bessel) {
            assert!(
                (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                "{backend}: kriging mean {a} (table) vs {b} (Bessel)"
            );
        }
    }
}

/// A 6×6 field to fit; small enough that a fit is milliseconds unless an
/// evaluation spins.
fn small_problem() -> (Vec<Location>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(3);
    let locations = synthetic_locations(6, &mut rng);
    let z = (0..locations.len()).map(|_| rng.next_gaussian()).collect();
    (locations, z)
}

fn fit_within_a_second(
    locations: Vec<Location>,
    z: Vec<f64>,
    opts: &FitOptions,
) -> Result<Vec<f64>, ModelError> {
    let rt = Runtime::new(1);
    let model = GeoModel::<MaternKernel>::builder()
        .locations(Arc::new(locations))
        .data(z)
        .backend(Backend::FullBlock)
        .build()
        .unwrap();
    let start = Instant::now();
    let fitted = model.fit(opts, &rt).map(|f| f.params());
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "a degenerate evaluation must return at once, not iterate"
    );
    fitted
}

#[test]
fn a_nan_site_makes_every_evaluation_a_rejected_point() {
    // NaN distances reach every row of Σ(θ): each likelihood is a rejected
    // point, so the search ends `Infeasible` — it neither panics nor spends
    // 10 000 continued-fraction iterations per entry finding that out.
    let (mut locations, z) = small_problem();
    locations[5].x = f64::NAN;
    let opts = FitOptions::starting_at(&[1.0, 0.1, 0.8]);
    match fit_within_a_second(locations, z, &opts) {
        Err(ModelError::Infeasible { .. }) => {}
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

#[test]
fn a_subnormal_range_is_an_ordinary_point() {
    // r/θ₂ = ∞ for every pair: Σ(θ) is exactly diagonal, ℓ is finite, and
    // the search moves on from it like from any other poor point.
    let (locations, z) = small_problem();
    let opts = FitOptions {
        lower: Some(vec![0.01, 1e-320, 0.1]),
        nm: NelderMeadConfig {
            max_evals: 30,
            ..Default::default()
        },
        ..FitOptions::starting_at(&[1.0, 1e-320, 0.8])
    };
    let theta = fit_within_a_second(locations, z, &opts).expect("a diagonal Σ(θ) is feasible");
    assert!(theta.iter().all(|t| t.is_finite() && *t > 0.0), "{theta:?}");
}
