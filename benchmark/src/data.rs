//! Seeded inputs. The same seed gives the same locations, measurements,
//! prediction targets and observation stream; the program under test only
//! ever receives these generated inputs.

use crate::{NUGGET, TARGETS, THETA0};
use exa_covariance::{Location, MaternKernel};
use exa_geostat::{synthetic_locations_n, Backend, FittedModel, GeoModel, GeoModelBuilder};
use exa_runtime::Runtime;
use exa_util::Rng;
use std::sync::Arc;

pub type Fitted = FittedModel<MaternKernel>;

/// A synthetic Matérn field: jittered-grid locations and one exact draw
/// `Z = L·w` at θ₀.
pub struct Field {
    pub locations: Arc<Vec<Location>>,
    pub z: Vec<f64>,
}

/// The `fig3_shared_mle` tile-size rule for dense tiles.
pub fn dense_nb(n: usize) -> usize {
    (n / 16).max(16)
}

/// The `fig3_shared_mle` tile-size rule for TLR tiles (larger, as the
/// paper tunes them).
pub fn tlr_nb(n: usize) -> usize {
    (n / 8).max(32)
}

impl Field {
    /// Generates the field for `seed` (one full-tile factorization of Σ(θ₀)
    /// and one triangular product).
    pub fn generate(n: usize, seed: u64, rt: &Runtime) -> Field {
        let mut rng = Rng::seed_from_u64(seed);
        let locations = Arc::new(synthetic_locations_n(n, &mut rng));
        let generator = builder(&locations, Backend::FullTile, dense_nb(n), seed)
            .build()
            .expect("generator model")
            .at_params(&THETA0, rt)
            .expect("Σ(θ₀) is positive definite");
        let z = generator.simulate(&mut rng, rt);
        Field { locations, z }
    }

    /// The estimation session over this field for one backend.
    pub fn model(&self, backend: Backend, nb: usize, seed: u64) -> GeoModel<MaternKernel> {
        builder(&self.locations, backend, nb, seed)
            .data(self.z.clone())
            .build()
            .expect("estimation model")
    }
}

fn builder(
    locations: &Arc<Vec<Location>>,
    backend: Backend,
    nb: usize,
    seed: u64,
) -> GeoModelBuilder<MaternKernel> {
    GeoModel::<MaternKernel>::builder()
        .locations(Arc::clone(locations))
        .backend(backend)
        .tile_size(nb)
        .nugget(NUGGET)
        .seed(seed)
}

/// A pool of prediction requests, each [`TARGETS`] uniform points in the
/// unit square, cycled through by the load loops.
pub fn request_pool(count: usize, seed: u64) -> Vec<Vec<Location>> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7a72_6765_7473);
    (0..count)
        .map(|_| {
            (0..TARGETS)
                .map(|_| Location::new(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)))
                .collect()
        })
        .collect()
}

/// `count` new observations: uniform points, each valued at the model's
/// own kriging mean plus a little noise, so the stream is consistent with
/// the field and does not push the likelihood-drift tracker into refits.
pub fn observation_stream(model: &Fitted, count: usize, seed: u64) -> Vec<(Location, f64)> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6f62_7365_7276);
    let points: Vec<Location> = (0..count)
        .map(|_| Location::new(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)))
        .collect();
    let means = model
        .predict_batch(&[&points])
        .expect("means for the observation stream");
    points
        .into_iter()
        .zip(&means[0].values)
        .map(|(p, m)| (p, m + 0.05 * rng.next_gaussian()))
        .collect()
}
