//! The Gaussian log-likelihood (paper Eq. 1) with interchangeable backends.
//!
//! ```text
//! ℓ(θ) = −(n/2)·ln 2π − ½·ln|Σ(θ)| − ½·Zᵀ Σ(θ)⁻¹ Z
//! ```
//!
//! One evaluation = generate `Σ(θ)`, Cholesky-factor it, take the
//! log-determinant off the factor's diagonal, and forward-solve for the
//! quadratic form (`Zᵀ Σ⁻¹ Z = ‖L⁻¹Z‖²`). The three computation techniques
//! the paper compares map to [`Backend`] variants:
//!
//! * [`Backend::FullBlock`] — LAPACK-style fork-join blocked Cholesky on a
//!   dense matrix ("Full-block" in Figure 3).
//! * [`Backend::FullTile`] — Chameleon-style tile Cholesky over the task
//!   runtime ("Full-tile", the machine-precision reference).
//! * [`Backend::Tlr`] — HiCMA-style TLR factorization at an accuracy
//!   threshold (the paper's contribution; `TLR-acc(ε)` series).

use exa_tile::CompressionMethod;

/// Computation technique for one likelihood evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Backend {
    /// Dense fork-join blocked Cholesky (LAPACK + threaded-BLAS model).
    FullBlock,
    /// Dense tile Cholesky on the task runtime (machine-precision reference).
    FullTile,
    /// Tile Low-Rank factorization at absolute accuracy `eps`. `method` is
    /// [`CompressionMethod::Aca`] in production; `Svd` is the test reference.
    Tlr { eps: f64, method: CompressionMethod },
}

impl Backend {
    /// The TLR backend with the production compressor (ACA, rounded).
    pub fn tlr(eps: f64) -> Backend {
        Backend::Tlr {
            eps,
            method: CompressionMethod::Aca,
        }
    }
}

impl std::fmt::Display for Backend {
    /// The paper-legend label: `Full-block`, `Full-tile`, `TLR-acc(1e-9)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::FullBlock => f.write_str("Full-block"),
            Backend::FullTile => f.write_str("Full-tile"),
            Backend::Tlr { eps, .. } => write!(f, "TLR-acc({eps:.0e})"),
        }
    }
}

/// Tuning for likelihood evaluations.
#[derive(Clone, Copy, Debug)]
pub struct LikelihoodConfig {
    /// Tile size (the paper tunes 560 dense / 1900 TLR at cluster scale).
    pub nb: usize,
    /// Ignored: every compressor is deterministic. Kept only so existing
    /// callers compile.
    pub seed: u64,
}

impl Default for LikelihoodConfig {
    fn default() -> Self {
        LikelihoodConfig {
            nb: 64,
            seed: 0x5eed,
        }
    }
}

/// One evaluated log-likelihood with its pieces and phase timings.
#[derive(Clone, Debug)]
pub struct LogLikelihood {
    /// ℓ(θ) (Eq. 1).
    pub value: f64,
    /// `ln|Σ(θ)|`.
    pub logdet: f64,
    /// `Zᵀ Σ⁻¹ Z`.
    pub quadratic: f64,
    /// Seconds to generate (and for TLR, compress) `Σ(θ)`.
    pub generation_seconds: f64,
    /// Seconds in the Cholesky factorization.
    pub factorization_seconds: f64,
    /// Seconds in the triangular solve + reductions.
    pub solve_seconds: f64,
    /// Bytes held by the factored representation.
    pub matrix_bytes: usize,
}

impl LogLikelihood {
    /// Total time of the evaluation (the paper's "time of one iteration").
    pub fn total_seconds(&self) -> f64 {
        self.generation_seconds + self.factorization_seconds + self.solve_seconds
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    n: usize,
    logdet: f64,
    quadratic: f64,
    generation_seconds: f64,
    factorization_seconds: f64,
    solve_seconds: f64,
    matrix_bytes: usize,
) -> LogLikelihood {
    let value =
        -0.5 * (n as f64) * (2.0 * std::f64::consts::PI).ln() - 0.5 * logdet - 0.5 * quadratic;
    LogLikelihood {
        value,
        logdet,
        quadratic,
        generation_seconds,
        factorization_seconds,
        solve_seconds,
        matrix_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locations::synthetic_locations;
    use crate::model::eval_log_likelihood as log_likelihood;
    use exa_covariance::{CovarianceKernel, DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_runtime::Runtime;
    use exa_util::Rng;
    use std::sync::Arc;

    fn problem(side: usize, params: MaternParams, seed: u64) -> (MaternKernel, Vec<f64>, Runtime) {
        let mut rng = Rng::seed_from_u64(seed);
        let locs: Arc<Vec<Location>> = Arc::new(synthetic_locations(side, &mut rng));
        let kernel = MaternKernel::new(locs.clone(), params, DistanceMetric::Euclidean, 1e-8);
        let rt = Runtime::new(4);
        let z = crate::model::GeoModel::<MaternKernel>::builder()
            .locations(locs)
            .nugget(1e-10)
            .tile_size(16)
            .build()
            .unwrap()
            .at_params(&params.to_array(), &rt)
            .unwrap()
            .simulate(&mut rng, &rt);
        (kernel, z, rt)
    }

    #[test]
    fn backends_agree_at_machine_precision() {
        let (kernel, z, rt) = problem(9, MaternParams::new(1.0, 0.1, 0.5), 1);
        let cfg = LikelihoodConfig { nb: 20, seed: 3 };
        let block = log_likelihood(&kernel, &z, Backend::FullBlock, cfg, &rt).unwrap();
        let tile = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt).unwrap();
        let tlr = log_likelihood(&kernel, &z, Backend::tlr(1e-12), cfg, &rt).unwrap();
        assert!(
            (block.value - tile.value).abs() < 1e-7 * block.value.abs(),
            "block {} vs tile {}",
            block.value,
            tile.value
        );
        assert!(
            (tile.value - tlr.value).abs() < 1e-4 * tile.value.abs().max(1.0),
            "tile {} vs tlr {}",
            tile.value,
            tlr.value
        );
    }

    #[test]
    fn tlr_error_shrinks_with_accuracy() {
        let (kernel, z, rt) = problem(10, MaternParams::new(1.0, 0.1, 0.5), 2);
        let cfg = LikelihoodConfig { nb: 25, seed: 5 };
        let exact = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt)
            .unwrap()
            .value;
        let loose = log_likelihood(&kernel, &z, Backend::tlr(1e-4), cfg, &rt)
            .unwrap()
            .value;
        let tight = log_likelihood(&kernel, &z, Backend::tlr(1e-10), cfg, &rt)
            .unwrap()
            .value;
        assert!(
            (tight - exact).abs() <= (loose - exact).abs() + 1e-9,
            "loose {loose}, tight {tight}, exact {exact}"
        );
    }

    #[test]
    fn true_parameters_beat_wrong_parameters() {
        // ℓ(θ) evaluated at the generating θ should exceed ℓ at a distant θ
        // (the property the MLE search relies on).
        let truth = MaternParams::new(1.0, 0.1, 0.5);
        let (kernel, z, rt) = problem(10, truth, 3);
        let cfg = LikelihoodConfig { nb: 25, seed: 7 };
        let at_truth = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt)
            .unwrap()
            .value;
        let wrong = kernel.with_params(MaternParams::new(4.0, 0.4, 1.5));
        let at_wrong = log_likelihood(&wrong, &z, Backend::FullTile, cfg, &rt)
            .unwrap()
            .value;
        assert!(
            at_truth > at_wrong,
            "truth {at_truth} must beat wrong {at_wrong}"
        );
    }

    #[test]
    fn tlr_uses_less_memory_than_dense() {
        let (kernel, z, rt) = problem(14, MaternParams::new(1.0, 0.03, 0.5), 4);
        let cfg = LikelihoodConfig { nb: 28, seed: 9 };
        let tile = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt).unwrap();
        let tlr = log_likelihood(&kernel, &z, Backend::tlr(1e-5), cfg, &rt).unwrap();
        assert!(
            tlr.matrix_bytes < tile.matrix_bytes,
            "TLR {} vs dense {}",
            tlr.matrix_bytes,
            tile.matrix_bytes
        );
    }

    #[test]
    fn quadratic_and_logdet_decompose_value() {
        let (kernel, z, rt) = problem(7, MaternParams::new(1.0, 0.1, 0.5), 5);
        let cfg = LikelihoodConfig { nb: 15, seed: 11 };
        let ll = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt).unwrap();
        let n = kernel.len() as f64;
        let recomposed =
            -0.5 * n * (2.0 * std::f64::consts::PI).ln() - 0.5 * ll.logdet - 0.5 * ll.quadratic;
        assert!((ll.value - recomposed).abs() < 1e-12);
        assert!(ll.quadratic > 0.0);
    }

    /// Forwards to a Matérn kernel and records every `fill_tile` extent.
    struct FillRecorder {
        inner: MaternKernel,
        fills: std::sync::Mutex<Vec<[usize; 4]>>,
    }

    impl CovarianceKernel for FillRecorder {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn entry(&self, i: usize, j: usize) -> f64 {
            self.inner.entry(i, j)
        }

        fn fill_tile(&self, r: usize, nr: usize, c: usize, nc: usize, out: &mut [f64], ld: usize) {
            self.fills.lock().unwrap().push([r, nr, c, nc]);
            self.inner.fill_tile(r, nr, c, nc, out, ld);
        }
    }

    #[test]
    fn production_tlr_never_fills_a_dense_off_diagonal_tile() {
        let (inner, _, _) = problem(12, MaternParams::new(1.0, 0.1, 0.5), 6);
        let Backend::Tlr { eps, method } = Backend::tlr(1e-7) else {
            unreachable!("Backend::tlr builds the TLR backend")
        };
        let nb = 24;
        let kernel = FillRecorder {
            inner,
            fills: Default::default(),
        };
        exa_tile::TileMatrix::from_kernel(&kernel, nb, eps, method, 2, 0).unwrap();
        let fills = kernel.fills.into_inner().unwrap();
        // A fill inside one diagonal tile is fine; anything touching an
        // off-diagonal tile may cover at most one row or one column of it.
        let dense_off_diagonal: Vec<_> = fills
            .iter()
            .filter(|&&[r, nr, c, nc]| {
                let tiles = [r, r + nr - 1, c, c + nc - 1].map(|x| x / nb);
                tiles.iter().any(|&t| t != tiles[0]) && nr > 1 && nc > 1
            })
            .collect();
        assert!(
            dense_off_diagonal.is_empty(),
            "{} dense off-diagonal fills, e.g. {:?}",
            dense_off_diagonal.len(),
            dense_off_diagonal.first()
        );
        assert!(
            fills.len() >= kernel.inner.len().div_ceil(nb),
            "diagonal fills recorded"
        );
    }
}
