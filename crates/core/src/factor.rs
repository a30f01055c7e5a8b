//! Factored covariance representations: the one Cholesky every pipeline
//! stage shares.
//!
//! The paper's workflow factorizes `Σ(θ)` once per likelihood evaluation and
//! then *reuses* the factor for the log-determinant, the quadratic form, and
//! — at the fitted `θ̂` — the kriging solves of Eq. 4. [`Factorization`] is
//! that factor as a value: a dense matrix (Full-block) or a tile matrix
//! (Full-tile, or TLR with compressed off-diagonal tiles) behind a common
//! `solve` / `logdet` / `bytes` interface, so likelihood evaluation,
//! prediction, conditional variances and simulation all consume the same
//! object instead of re-running `potrf`.

use crate::likelihood::{Backend, LikelihoodConfig};
use exa_covariance::CovarianceKernel;
use exa_linalg::{
    chol::{chol_append, chol_remove, logdet_from_cholesky},
    dtrsm, LinalgError, Mat, Side, Trans,
};
use exa_runtime::Runtime;
pub use exa_tile::TriangularSide;
use exa_tile::{block_potrf, tile_logdet, tile_potrf, tile_trmm_lower, tile_trsm, TileMatrix};
use exa_util::Stopwatch;
use std::cell::Cell;

thread_local! {
    static POTRF_COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Number of Cholesky factorizations ([`Factorization::compute`] calls) this
/// thread has performed.
///
/// Thread-local on purpose: tests assert "zero `potrf` after `fit`" by
/// differencing this counter around a prediction call without seeing
/// factorizations from concurrently running tests.
pub fn factorization_count() -> usize {
    POTRF_COUNT.with(|c| c.get())
}

/// Phase timings of one [`Factorization::compute`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct FactorTimings {
    /// Seconds to generate (and for TLR, compress) `Σ(θ)`.
    pub generation_seconds: f64,
    /// Seconds in the Cholesky factorization itself.
    pub factorization_seconds: f64,
}

/// What an incremental factor edit ([`Factorization::append`] /
/// [`Factorization::remove`]) did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The factor was updated in place (dense storage, `O(n²·k)`).
    Updated,
    /// This storage scheme cannot update incrementally (tile/TLR); the
    /// factor is untouched and the caller should refactorize.
    NeedsRefit,
}

/// The Cholesky factor of a covariance matrix `Σ(θ)`: dense or tile storage.
pub enum Factorization {
    /// Dense column-major factor from the fork-join blocked Cholesky
    /// (`L` in the lower triangle, the upper triangle untouched).
    Dense(Mat),
    /// Tile-layout factor from the task-based tile Cholesky; its
    /// off-diagonal tiles are dense (Full-tile) or low-rank at the backend's
    /// accuracy threshold (TLR).
    Tile(TileMatrix),
}

impl Factorization {
    /// Generates `Σ(θ)` from `kernel` with the technique selected by
    /// `backend` and factorizes it (`Σ = L·Lᵀ`), returning the factor and
    /// the phase timings.
    ///
    /// This is the **only** place the pipeline runs `potrf`; every call
    /// increments [`factorization_count`]. Errors surface Cholesky
    /// breakdowns, which the optimizer treats as rejected points (§VIII-D).
    pub fn compute<K: CovarianceKernel>(
        kernel: &K,
        backend: Backend,
        cfg: LikelihoodConfig,
        rt: &Runtime,
    ) -> Result<(Self, FactorTimings), LinalgError> {
        let n = kernel.len();
        assert!(n > 0, "empty problem");
        let workers = rt.num_workers();
        let mut sw = Stopwatch::start();
        POTRF_COUNT.with(|c| c.set(c.get() + 1));
        let (factor, generation_seconds) = match backend {
            Backend::FullBlock => {
                let mut sigma = Mat::from_fn(n, n, |i, j| kernel.entry(i, j));
                let g = sw.lap();
                block_potrf(&mut sigma, workers)?;
                (Factorization::Dense(sigma), g)
            }
            Backend::FullTile | Backend::Tlr { .. } => {
                let mut sigma = match backend {
                    Backend::Tlr { eps, method } => {
                        TileMatrix::from_kernel(kernel, cfg.nb, eps, method, workers, cfg.seed)?
                    }
                    _ => TileMatrix::from_kernel_symmetric_lower(kernel, cfg.nb, workers),
                };
                let g = sw.lap();
                tile_potrf(&mut sigma, rt)?;
                (Factorization::Tile(sigma), g)
            }
        };
        let factorization_seconds = sw.lap();
        Ok((
            factor,
            FactorTimings {
                generation_seconds,
                factorization_seconds,
            },
        ))
    }

    /// Matrix order `n`.
    pub fn n(&self) -> usize {
        match self {
            Factorization::Dense(l) => l.nrows(),
            Factorization::Tile(l) => l.n,
        }
    }

    /// `ln|Σ(θ)|`, read off the factor's diagonal.
    pub fn logdet(&self) -> f64 {
        match self {
            Factorization::Dense(l) => logdet_from_cholesky(l.nrows(), l.as_slice(), l.nrows()),
            Factorization::Tile(l) => tile_logdet(l),
        }
    }

    /// Bytes held by the factored representation (the paper's memory
    /// footprint axis).
    pub fn bytes(&self) -> usize {
        match self {
            Factorization::Dense(l) => l.nrows() * l.ncols() * 8,
            Factorization::Tile(l) => l.bytes(),
        }
    }

    /// A cheap condition-number estimate from the factor's diagonal range:
    /// `(max dᵢ / min dᵢ)²` bounds `κ₂(Σ)` from below in `O(n)`. `None` for
    /// tile/TLR storage (the live-ingest drift tracker only needs it on the
    /// dense, incrementally-updated path).
    pub fn condition_estimate(&self) -> Option<f64> {
        let Factorization::Dense(l) = self else {
            return None;
        };
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for i in 0..l.nrows() {
            let d = l[(i, i)].abs();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        Some(if lo > 0.0 {
            (hi / lo) * (hi / lo)
        } else {
            f64::INFINITY
        })
    }

    /// One triangular solve in place on `b`: `L·X = B` (forward) or
    /// `Lᵀ·X = B` (backward).
    pub fn trsm(&self, side: TriangularSide, b: &mut Mat, rt: &Runtime) {
        match self {
            Factorization::Dense(l) => {
                let n = l.nrows();
                let trans = match side {
                    TriangularSide::Forward => Trans::No,
                    TriangularSide::Backward => Trans::Yes,
                };
                dtrsm(
                    Side::Left,
                    trans,
                    n,
                    b.ncols(),
                    1.0,
                    l.as_slice(),
                    n,
                    b.as_mut_slice(),
                    n,
                );
            }
            Factorization::Tile(l) => {
                tile_trsm(l, side, b, rt);
            }
        }
    }

    /// Full SPD solve in place on `b`: `Σ·X = B` through `L·Lᵀ`.
    pub fn solve(&self, b: &mut Mat, rt: &Runtime) {
        self.trsm(TriangularSide::Forward, b, rt);
        self.trsm(TriangularSide::Backward, b, rt);
    }

    /// Incrementally grows the factor after `k` observations are appended,
    /// in `O(n²·k)` via [`chol_append`] — **without** running `potrf` on
    /// the full matrix (only the `k × k` Schur block is factored, and
    /// [`factorization_count`] is *not* bumped: this is an update, not a
    /// factorization).
    ///
    /// `kernel` must be the **joint** kernel over the old locations followed
    /// by the appended ones (`kernel.len() == self.n() + k`); only the new
    /// rows are evaluated. Only the dense variant updates in place —
    /// tile/TLR factors report [`IngestOutcome::NeedsRefit`] so the caller
    /// falls back to a staleness-triggered refactorization, leaving the
    /// factor untouched.
    pub fn append<K: CovarianceKernel>(
        &mut self,
        kernel: &K,
        k: usize,
    ) -> Result<IngestOutcome, LinalgError> {
        let Factorization::Dense(l) = self else {
            return Ok(IngestOutcome::NeedsRefit);
        };
        let n = l.nrows();
        let m = n + k;
        assert_eq!(
            kernel.len(),
            m,
            "append wants the joint kernel over old ++ new locations"
        );
        if k == 0 {
            return Ok(IngestOutcome::Updated);
        }
        // Copy the existing factor's lower triangle into a grown buffer and
        // fill the appended rows (cross block + new diagonal block) from the
        // kernel — O(n²) copy + O(n·k) kernel evaluations.
        let mut grown = Mat::zeros(m, m);
        for j in 0..n {
            for i in j..n {
                grown[(i, j)] = l[(i, j)];
            }
        }
        for j in 0..m {
            for i in n.max(j)..m {
                grown[(i, j)] = kernel.entry(i, j);
            }
        }
        chol_append(n, k, grown.as_mut_slice(), m)?;
        *self = Factorization::Dense(grown);
        Ok(IngestOutcome::Updated)
    }

    /// Incrementally shrinks the factor after the observations at `indices`
    /// are expired, via repeated [`chol_remove`] (each `O(n²)`; tail
    /// indices degenerate to truncation, so expiring just-appended points
    /// restores the prior factor bit-identically).
    ///
    /// `indices` must be in-range and need not be sorted; duplicates are
    /// ignored. Removing every row is rejected (an empty model has no
    /// factor). As with [`Factorization::append`], only the dense variant
    /// updates in place; tile/TLR report [`IngestOutcome::NeedsRefit`].
    pub fn remove(&mut self, indices: &[usize]) -> IngestOutcome {
        let Factorization::Dense(l) = self else {
            return IngestOutcome::NeedsRefit;
        };
        let n = l.nrows();
        let mut drop: Vec<usize> = indices.to_vec();
        drop.sort_unstable();
        drop.dedup();
        assert!(
            drop.last().is_none_or(|&i| i < n),
            "removal index out of range"
        );
        assert!(drop.len() < n, "cannot remove every observation");
        if drop.is_empty() {
            return IngestOutcome::Updated;
        }
        // Remove highest-first inside the original leading dimension, then
        // compact into a buffer with the final shape.
        let mut dim = n;
        for &idx in drop.iter().rev() {
            chol_remove(dim, l.as_mut_slice(), n, idx);
            dim -= 1;
        }
        let mut shrunk = Mat::zeros(dim, dim);
        for j in 0..dim {
            for i in j..dim {
                shrunk[(i, j)] = l.as_slice()[i + j * n];
            }
        }
        *self = Factorization::Dense(shrunk);
        IngestOutcome::Updated
    }

    /// Applies the factor itself: `L·W` (the exact-simulation product
    /// `Z = L·w` of the ExaGeoStat data generator). A TLR factor is applied
    /// tile by tile through its low-rank factors, never densified.
    pub fn apply_factor(&self, w: &Mat, rt: &Runtime) -> Mat {
        match self {
            Factorization::Dense(l) => trmm_lower_dense(l, w),
            Factorization::Tile(l) => tile_trmm_lower(l, w, rt.num_workers()),
        }
    }
}

/// `L·W` for a dense factor whose strict upper triangle may hold garbage.
fn trmm_lower_dense(l: &Mat, w: &Mat) -> Mat {
    let n = l.nrows();
    assert_eq!(w.nrows(), n, "factor/vector size mismatch");
    let mut out = Mat::zeros(n, w.ncols());
    for c in 0..w.ncols() {
        let src = w.col(c);
        for i in 0..n {
            let mut acc = 0.0;
            for (j, &s) in src.iter().enumerate().take(i + 1) {
                acc += l[(i, j)] * s;
            }
            out[(i, c)] = acc;
        }
    }
    out
}

// Compile-time proof that factors are shared between threads: `exa-serve`'s
// prediction workers solve through one `FittedModel`'s factor concurrently,
// so every variant's storage must be `Send + Sync`.
const _: () = {
    const fn check<T: Send + Sync>() {}
    check::<Factorization>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locations::synthetic_locations;
    use exa_covariance::{DistanceMetric, MaternKernel, MaternParams};
    use exa_util::Rng;
    use std::sync::Arc;

    fn kernel(side: usize, seed: u64) -> MaternKernel {
        let mut rng = Rng::seed_from_u64(seed);
        MaternKernel::new(
            Arc::new(synthetic_locations(side, &mut rng)),
            MaternParams::new(1.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            1e-8,
        )
    }

    #[test]
    fn three_backends_agree_on_logdet_and_solve() {
        let k = kernel(8, 1);
        let rt = Runtime::new(2);
        let cfg = LikelihoodConfig { nb: 16, seed: 1 };
        let mut rng = Rng::seed_from_u64(2);
        let b = Mat::gaussian(64, 2, &mut rng);
        let mut results = Vec::new();
        for backend in [Backend::FullBlock, Backend::FullTile, Backend::tlr(1e-12)] {
            let (f, _) = Factorization::compute(&k, backend, cfg, &rt).unwrap();
            assert_eq!(f.n(), 64);
            let mut x = b.clone();
            f.solve(&mut x, &rt);
            results.push((f.logdet(), x));
        }
        for (ld, x) in &results[1..] {
            assert!((ld - results[0].0).abs() < 1e-7 * results[0].0.abs());
            for (a, r) in x.as_slice().iter().zip(results[0].1.as_slice()) {
                assert!((a - r).abs() < 1e-6 * r.abs().max(1.0), "{a} vs {r}");
            }
        }
    }

    #[test]
    fn apply_factor_matches_across_backends() {
        let k = kernel(6, 3);
        let rt = Runtime::new(2);
        let cfg = LikelihoodConfig { nb: 12, seed: 3 };
        let mut rng = Rng::seed_from_u64(4);
        let w = Mat::gaussian(36, 1, &mut rng);
        let reference: Vec<f64> = {
            let (f, _) = Factorization::compute(&k, Backend::FullTile, cfg, &rt).unwrap();
            f.apply_factor(&w, &rt).as_slice().to_vec()
        };
        for backend in [Backend::FullBlock, Backend::tlr(1e-12)] {
            let (f, _) = Factorization::compute(&k, backend, cfg, &rt).unwrap();
            let got = f.apply_factor(&w, &rt);
            for (a, r) in got.as_slice().iter().zip(&reference) {
                assert!(
                    (a - r).abs() < 1e-7 * r.abs().max(1.0),
                    "{backend:?}: {a} vs {r}"
                );
            }
            // The TLR factor is applied tile by tile through U(VᵀW); the same
            // factor densified must give the same product.
            if let (Backend::Tlr { .. }, Factorization::Tile(l)) = (backend, &f) {
                let dense = l.to_dense_lower().matmul(&w);
                for (a, r) in got.as_slice().iter().zip(dense.as_slice()) {
                    assert!((a - r).abs() <= 1e-12 * r.abs().max(1.0), "{a} vs {r}");
                }
            }
        }
    }

    fn kernel_over(locs: &[exa_covariance::Location]) -> MaternKernel {
        MaternKernel::new(
            Arc::new(locs.to_vec()),
            MaternParams::new(1.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            1e-8,
        )
    }

    fn dense(f: &Factorization) -> &Mat {
        match f {
            Factorization::Dense(l) => l,
            _ => panic!("expected dense factor"),
        }
    }

    #[test]
    fn append_grows_dense_factor_to_match_joint_compute() {
        use crate::locations::synthetic_locations_n;
        let mut rng = Rng::seed_from_u64(11);
        let locs = synthetic_locations_n(48, &mut rng);
        let (n, k) = (40, 8);
        let rt = Runtime::new(2);
        let cfg = LikelihoodConfig { nb: 16, seed: 7 };

        let base = kernel_over(&locs[..n]);
        let joint = kernel_over(&locs);
        let (mut f, _) = Factorization::compute(&base, Backend::FullBlock, cfg, &rt).unwrap();
        let before = dense(&f).clone();
        assert_eq!(f.append(&joint, k), Ok(IngestOutcome::Updated));
        assert_eq!(f.n(), n + k);

        // Leading n×n block is bitwise untouched by the update.
        let grown = dense(&f);
        for j in 0..n {
            for i in j..n {
                assert_eq!(grown[(i, j)].to_bits(), before[(i, j)].to_bits());
            }
        }

        // And the whole factor agrees with a from-scratch factorization.
        let (fresh, _) = Factorization::compute(&joint, Backend::FullBlock, cfg, &rt).unwrap();
        let fresh = dense(&fresh);
        for j in 0..n + k {
            for i in j..n + k {
                let (a, b) = (grown[(i, j)], fresh[(i, j)]);
                assert!((a - b).abs() <= 1e-10 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn remove_shrinks_dense_factor_to_match_subset_compute() {
        use crate::locations::synthetic_locations_n;
        let mut rng = Rng::seed_from_u64(13);
        let locs = synthetic_locations_n(32, &mut rng);
        let rt = Runtime::new(2);
        let cfg = LikelihoodConfig { nb: 16, seed: 9 };
        let drop = [3usize, 17, 31];

        let full = kernel_over(&locs);
        let kept: Vec<_> = locs
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop.contains(i))
            .map(|(_, l)| *l)
            .collect();
        let (mut f, _) = Factorization::compute(&full, Backend::FullBlock, cfg, &rt).unwrap();
        assert_eq!(f.remove(&drop), IngestOutcome::Updated);
        assert_eq!(f.n(), kept.len());

        let (fresh, _) =
            Factorization::compute(&kernel_over(&kept), Backend::FullBlock, cfg, &rt).unwrap();
        let (shrunk, fresh) = (dense(&f), dense(&fresh));
        for j in 0..kept.len() {
            for i in j..kept.len() {
                let (a, b) = (shrunk[(i, j)], fresh[(i, j)]);
                assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn tile_and_tlr_factors_report_needs_refit() {
        let k = kernel(6, 21);
        let rt = Runtime::new(2);
        let cfg = LikelihoodConfig { nb: 12, seed: 21 };
        for backend in [Backend::FullTile, Backend::tlr(1e-9)] {
            let (mut f, _) = Factorization::compute(&k, backend, cfg, &rt).unwrap();
            let n = f.n();
            assert_eq!(f.append(&k, 0).unwrap(), IngestOutcome::NeedsRefit);
            assert_eq!(f.remove(&[0]), IngestOutcome::NeedsRefit);
            assert_eq!(f.n(), n, "{backend:?} factor must be untouched");
        }
    }

    #[test]
    fn counter_increments_once_per_compute() {
        let k = kernel(4, 5);
        let rt = Runtime::new(1);
        let cfg = LikelihoodConfig { nb: 8, seed: 5 };
        let before = factorization_count();
        let (f, timings) = Factorization::compute(&k, Backend::FullTile, cfg, &rt).unwrap();
        assert_eq!(factorization_count(), before + 1);
        // Solves and reads do not factorize.
        let mut b = Mat::zeros(16, 1);
        f.solve(&mut b, &rt);
        let _ = f.logdet();
        let _ = f.bytes();
        assert_eq!(factorization_count(), before + 1);
        assert!(timings.factorization_seconds >= 0.0);
        assert!(f.bytes() > 0);
    }
}
