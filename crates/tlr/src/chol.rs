//! TLR Cholesky factorization (HiCMA's `hicma_dpotrf`).
//!
//! The same task DAG as the dense tile Cholesky ([`exa_runtime::chol`]),
//! with the three off-diagonal kernels swapped for their low-rank
//! counterparts: LR-TRSM (`V ← L⁻¹V`, rank kept), LR-SYRK (Gram trick,
//! `O(nb²k)`) and LR-GEMM (concatenate + recompress); POTRF stays dense on
//! the diagonal tiles.
//!
//! Every flop count is rank-dependent, which is where the arithmetic savings
//! of the paper's Figures 3–4 come from; the recompression threshold equals
//! the assembly threshold `a.eps`, as in HiCMA's fixed-accuracy mode.

use crate::arith::{lr_gemm, lr_syrk, lr_trsm};
use crate::lr::LrTile;
use crate::tlrmat::TlrMatrix;
use exa_linalg::{dpotrf, LinalgError};
use exa_runtime::chol::{factor, CholTask};
use exa_runtime::{ExecStats, Runtime};
use exa_tile::Tile;

/// Raw view of a `TlrMatrix`'s tiles for the factorization's task kernel.
#[derive(Clone, Copy)]
pub(crate) struct TlrTiles {
    pub(crate) diag: *mut Tile,
    pub(crate) low: *mut LrTile,
    pub(crate) nt: usize,
}
// SAFETY: TlrTiles is two bare pointers; dereferencing goes through the
// unsafe accessors, whose contract requires runtime-granted access, and the
// STF DAG serializes writers of each tile handle.
unsafe impl Send for TlrTiles {}
// SAFETY: as above — sharing the view grants nothing without the accessors.
unsafe impl Sync for TlrTiles {}

impl TlrTiles {
    /// # Safety
    /// Caller must hold runtime-granted `Read` access to diagonal tile `k`
    /// and the owning `TlrMatrix` must outlive the synchronous run.
    unsafe fn diag<'a>(self, k: usize) -> &'a Tile {
        unsafe { &*self.diag.add(k) }
    }

    /// # Safety
    /// As [`TlrTiles::diag`], with `ReadWrite` access.
    unsafe fn diag_mut<'a>(self, k: usize) -> &'a mut Tile {
        unsafe { &mut *self.diag.add(k) }
    }

    /// # Safety
    /// As [`TlrTiles::diag`], for low-rank tile `(i, j)`, `i > j`.
    unsafe fn lr<'a>(self, i: usize, j: usize) -> &'a LrTile {
        unsafe { &*self.low.add(j * self.nt + i) }
    }

    /// # Safety
    /// As [`TlrTiles::lr`], with `ReadWrite` access.
    unsafe fn lr_mut<'a>(self, i: usize, j: usize) -> &'a mut LrTile {
        unsafe { &mut *self.low.add(j * self.nt + i) }
    }
}

/// In-place TLR Cholesky: on success the diagonal tiles hold dense factors
/// `L_kk` (lower triangle) and the strictly-lower tiles hold the compressed
/// off-diagonal factor blocks.
///
/// Fails with [`LinalgError::NotPositiveDefinite`] when a diagonal tile loses
/// positive definiteness — at loose accuracy thresholds this is a real
/// phenomenon the paper works around by tightening `eps` (§VIII-D).
pub fn tlr_potrf(a: &mut TlrMatrix, rt: &Runtime) -> Result<ExecStats, LinalgError> {
    let (nb, eps) = (a.nb, a.eps);
    let tiles = a.raw_tiles();
    factor(a.nt, rt, move |task| {
        // SAFETY: `factor` declares ReadWrite on `task.output()` and Read on
        // `task.inputs()` — exactly the tiles each arm borrows, mutably and
        // shared respectively — and `a` outlives the run.
        unsafe {
            match task {
                CholTask::Potrf { k } => {
                    let t = tiles.diag_mut(k);
                    dpotrf(t.rows, &mut t.data, t.rows).map_err(|e| e.offset_minor(k * nb))
                }
                CholTask::Trsm { k, i } => {
                    let l = tiles.diag(k);
                    lr_trsm(&l.data, l.rows, tiles.lr_mut(i, k));
                    Ok(())
                }
                CholTask::Syrk { k, j } => {
                    let d = tiles.diag_mut(j);
                    lr_syrk(tiles.lr(j, k), &mut d.data, d.rows);
                    Ok(())
                }
                CholTask::Gemm { k, j, i } => {
                    lr_gemm(tiles.lr_mut(i, j), tiles.lr(i, k), tiles.lr(j, k), eps)
                }
            }
        }
    })
}

/// `ln|A|` from the factored TLR matrix: `2·Σ_k Σ_i ln (L_kk)_ii`.
pub fn tlr_logdet(a: &TlrMatrix) -> f64 {
    let mut acc = 0.0;
    for k in 0..a.nt {
        let t = a.diag(k);
        for i in 0..t.rows {
            acc += t.at(i, i).ln();
        }
    }
    2.0 * acc
}

/// Reconstructs the dense lower-triangular factor `L` from a factored TLR
/// matrix (diagnostics/tests; zeroes the diagonal tiles' upper triangles).
pub fn tlr_factor_to_dense(a: &TlrMatrix) -> exa_linalg::Mat {
    let mut out = exa_linalg::Mat::zeros(a.n, a.n);
    for k in 0..a.nt {
        let t = a.diag(k);
        for j in 0..t.cols {
            for i in j..t.rows {
                out[(k * a.nb + i, k * a.nb + j)] = t.at(i, j);
            }
        }
    }
    for j in 0..a.nt {
        for i in j + 1..a.nt {
            let d = a.lr(i, j).to_dense();
            let rows = a.tile_extent(i);
            for (jj, col) in d.chunks_exact(rows).enumerate() {
                for (ii, &v) in col.iter().enumerate() {
                    out[(i * a.nb + ii, j * a.nb + jj)] = v;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressionMethod;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_linalg::frobenius_norm;
    use exa_util::Rng;
    use std::sync::Arc as StdArc;

    fn kernel(n: usize, range: f64, seed: u64) -> MaternKernel {
        let mut rng = Rng::seed_from_u64(seed);
        let mut locs: Vec<Location> = (0..n)
            .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
            .collect();
        exa_covariance::sort_morton(&mut locs);
        MaternKernel::new(
            StdArc::new(locs),
            MaternParams::new(1.0, range, 0.5),
            DistanceMetric::Euclidean,
            1e-6,
        )
    }

    fn factor_error(n: usize, nb: usize, eps: f64, seed: u64) -> f64 {
        let k = kernel(n, 0.1, seed);
        let mut a = TlrMatrix::from_kernel(&k, nb, eps, CompressionMethod::Svd, 2, seed).unwrap();
        let reference = a.to_dense_symmetric();
        tlr_potrf(&mut a, &Runtime::new(4)).unwrap();
        let l = tlr_factor_to_dense(&a);
        let llt = l.matmul(&l.transposed());
        let mut diff = vec![0.0; n * n];
        for (d, (x, y)) in diff
            .iter_mut()
            .zip(llt.as_slice().iter().zip(reference.as_slice()))
        {
            *d = x - y;
        }
        frobenius_norm(n, n, &diff, n) / frobenius_norm(n, n, reference.as_slice(), n)
    }

    #[test]
    fn tight_accuracy_reproduces_matrix() {
        let err = factor_error(90, 20, 1e-12, 1);
        assert!(err < 1e-9, "LLᵀ relative error {err}");
    }

    #[test]
    fn error_tracks_threshold() {
        let loose = factor_error(90, 20, 1e-4, 2);
        let tight = factor_error(90, 20, 1e-10, 2);
        assert!(tight < loose, "tight {tight} loose {loose}");
        assert!(loose < 1e-2, "loose accuracy unexpectedly bad: {loose}");
    }

    #[test]
    fn logdet_matches_dense_reference() {
        let n = 80;
        let k = kernel(n, 0.1, 3);
        let mut a = TlrMatrix::from_kernel(&k, 16, 1e-11, CompressionMethod::Svd, 2, 3).unwrap();
        let dense = a.to_dense_symmetric();
        tlr_potrf(&mut a, &Runtime::new(2)).unwrap();
        let mut lref = dense.clone();
        exa_linalg::dpotrf(n, lref.as_mut_slice(), n).unwrap();
        let want = exa_linalg::chol::logdet_from_cholesky(n, lref.as_slice(), n);
        let got = tlr_logdet(&a);
        assert!(
            (got - want).abs() < 1e-6 * want.abs(),
            "logdet {got} vs {want}"
        );
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let k = kernel(64, 0.1, 4);
        let base = TlrMatrix::from_kernel(&k, 16, 1e-9, CompressionMethod::Svd, 1, 4).unwrap();
        let mut a1 = base.clone();
        let mut a4 = base.clone();
        tlr_potrf(&mut a1, &Runtime::new(1)).unwrap();
        tlr_potrf(&mut a4, &Runtime::new(4)).unwrap();
        // Same task set ⇒ same arithmetic ⇒ identical factors.
        let (d1, d4) = (tlr_factor_to_dense(&a1), tlr_factor_to_dense(&a4));
        assert_eq!(d1.as_slice(), d4.as_slice());
    }

    #[test]
    fn indefinite_matrix_reports_failure() {
        // Assemble a valid TLR matrix, then corrupt a diagonal tile.
        let k = kernel(60, 0.1, 6);
        let mut a = TlrMatrix::from_kernel(&k, 16, 1e-9, CompressionMethod::Svd, 1, 6).unwrap();
        let t = a.diag_mut(1);
        for i in 0..t.rows {
            *t.at_mut(i, i) = -1.0;
        }
        let err = tlr_potrf(&mut a, &Runtime::new(2)).unwrap_err();
        match err {
            LinalgError::NotPositiveDefinite { index } => {
                assert!(index > 16, "failure must be localized to tile 1+: {index}")
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ranks_stay_bounded_during_factorization() {
        let n = 120;
        let k = kernel(n, 0.1, 7);
        let mut a = TlrMatrix::from_kernel(&k, 24, 1e-7, CompressionMethod::Svd, 2, 7).unwrap();
        let before = a.rank_stats();
        tlr_potrf(&mut a, &Runtime::new(4)).unwrap();
        let after = a.rank_stats();
        // Recompression keeps ranks in the same regime (they may grow
        // somewhat as Schur updates add detail, but must not explode to nb).
        assert!(
            after.max <= 3 * before.max.max(4),
            "before {before:?} after {after:?}"
        );
        assert!(after.max < 24);
    }

    #[test]
    fn single_tile_factorization_is_dense_cholesky() {
        let k = kernel(12, 0.1, 8);
        let mut a = TlrMatrix::from_kernel(&k, 16, 1e-9, CompressionMethod::Svd, 1, 8).unwrap();
        let dense = a.to_dense_symmetric();
        tlr_potrf(&mut a, &Runtime::new(1)).unwrap();
        let mut lref = dense.clone();
        exa_linalg::dpotrf(12, lref.as_mut_slice(), 12).unwrap();
        let l = tlr_factor_to_dense(&a);
        for j in 0..12 {
            for i in j..12 {
                assert!((l[(i, j)] - lref[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn strong_correlation_needs_tight_accuracy() {
        // Mirrors the paper's §VIII-D finding: strongly correlated fields
        // (θ₂ = 0.3) factored at loose accuracy either fail or lose fidelity.
        let n = 100;
        let k = kernel(n, 0.3, 9);
        let mut tight =
            TlrMatrix::from_kernel(&k, 20, 1e-12, CompressionMethod::Svd, 2, 9).unwrap();
        let reference = tight.to_dense_symmetric();
        tlr_potrf(&mut tight, &Runtime::new(2)).unwrap();
        let l = tlr_factor_to_dense(&tight);
        let llt = l.matmul(&l.transposed());
        let mut diff = vec![0.0; n * n];
        for (d, (x, y)) in diff
            .iter_mut()
            .zip(llt.as_slice().iter().zip(reference.as_slice()))
        {
            *d = x - y;
        }
        let err = frobenius_norm(n, n, &diff, n) / frobenius_norm(n, n, reference.as_slice(), n);
        assert!(err < 1e-8, "strong-correlation tight-accuracy error {err}");
    }
}
