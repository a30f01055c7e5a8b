//! Tile Cholesky factorization: "Full-tile" and TLR (HiCMA's
//! `hicma_dpotrf`) in one driver.
//!
//! The task DAG — the right-looking loop nest, each task's tiles and its
//! priority — is [`exa_runtime::chol`]'s, submitted to the STF runtime as
//! Chameleon and HiCMA submit to StarPU; this file supplies the kernel each
//! task runs on its tiles. `Potrf` is dense on the diagonal tiles. The three
//! off-diagonal kernels match on the matrix's off-diagonal representation:
//! dense `dtrsm`/`dsyrk`/`dgemm`, or their low-rank counterparts — LR-TRSM
//! (`V ← L⁻¹V`, rank kept), LR-SYRK (Gram trick, `O(nb²k)`) and LR-GEMM
//! (concatenate + recompress at the assembly threshold, as in HiCMA's
//! fixed-accuracy mode), whose rank-dependent flop counts are where the
//! arithmetic savings of the paper's Figures 3–4 come from.

use crate::arith::{lr_gemm, lr_syrk, lr_trsm};
use crate::layout::TileMatrix;
use crate::view::OffPtr;
use exa_linalg::{dgemm, dpotrf, dsyrk, dtrsm, LinalgError, Side, Trans};
use exa_runtime::chol::{factor, CholTask};
use exa_runtime::{ExecStats, Runtime};

/// In-place tile Cholesky: on success the diagonal tiles hold the dense
/// factors `L_kk` (lower triangle) and the strictly-lower tiles the
/// off-diagonal factor blocks, in the matrix's representation.
///
/// Returns the runtime's execution statistics, or the first
/// [`LinalgError::NotPositiveDefinite`] encountered (with a global minor
/// index), in which case `a` is left partially factored. At loose TLR
/// accuracy thresholds a diagonal tile losing definiteness is a real
/// phenomenon the paper works around by tightening `eps` (§VIII-D).
pub fn tile_potrf(a: &mut TileMatrix, rt: &Runtime) -> Result<ExecStats, LinalgError> {
    let nb = a.nb;
    let t = a.ptrs();
    factor(a.nt, rt, move |task| {
        // SAFETY: `factor` declares ReadWrite on `task.output()` and Read on
        // `task.inputs()` — exactly the tiles each arm borrows, mutably and
        // shared respectively — and `a` outlives the run.
        unsafe {
            match (task, t.off) {
                (CholTask::Potrf { k }, _) => {
                    let d = t.diag_mut(k);
                    dpotrf(d.rows, &mut d.data, d.rows).map_err(|e| e.offset_minor(k * nb))?
                }
                (CholTask::Trsm { k, i }, OffPtr::Dense(p)) => {
                    let (l, c) = (t.diag(k), t.off_mut(p, i, k));
                    dtrsm(
                        Side::Right,
                        Trans::Yes,
                        c.rows,
                        c.cols,
                        1.0,
                        &l.data,
                        l.rows,
                        &mut c.data,
                        c.rows,
                    );
                }
                (CholTask::Trsm { k, i }, OffPtr::LowRank(p, _)) => {
                    let l = t.diag(k);
                    lr_trsm(&l.data, l.rows, t.off_mut(p, i, k));
                }
                (CholTask::Syrk { k, j }, OffPtr::Dense(p)) => {
                    let (x, d) = (t.off(p, j, k), t.diag_mut(j));
                    dsyrk(
                        Trans::No,
                        d.rows,
                        x.cols,
                        -1.0,
                        &x.data,
                        x.rows,
                        1.0,
                        &mut d.data,
                        d.rows,
                    );
                }
                (CholTask::Syrk { k, j }, OffPtr::LowRank(p, _)) => {
                    let d = t.diag_mut(j);
                    lr_syrk(t.off(p, j, k), &mut d.data, d.rows);
                }
                (CholTask::Gemm { k, j, i }, OffPtr::Dense(p)) => {
                    let (x, y, c) = (t.off(p, i, k), t.off(p, j, k), t.off_mut(p, i, j));
                    dgemm(
                        Trans::No,
                        Trans::Yes,
                        c.rows,
                        c.cols,
                        x.cols,
                        -1.0,
                        &x.data,
                        x.rows,
                        &y.data,
                        y.rows,
                        1.0,
                        &mut c.data,
                        c.rows,
                    );
                }
                (CholTask::Gemm { k, j, i }, OffPtr::LowRank(p, eps)) => {
                    lr_gemm(t.off_mut(p, i, j), t.off(p, i, k), t.off(p, j, k), eps)?
                }
            }
        }
        Ok(())
    })
}

/// Log-determinant `ln|A|` from the tile Cholesky factor: `2·Σ ln L_ii`.
pub fn tile_logdet(l: &TileMatrix) -> f64 {
    let mut acc = 0.0;
    for t in &l.diag {
        for i in 0..t.rows {
            acc += t.at(i, i).ln();
        }
    }
    2.0 * acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressionMethod;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_linalg::chol::logdet_from_cholesky;
    use exa_linalg::{frobenius_norm, Mat};
    use exa_util::Rng;
    use std::sync::Arc as StdArc;

    fn kernel(n: usize, seed: u64) -> MaternKernel {
        let mut rng = exa_util::Rng::seed_from_u64(seed);
        let locs: Vec<Location> = (0..n)
            .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
            .collect();
        MaternKernel::new(
            StdArc::new(locs),
            MaternParams::new(1.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            1e-8,
        )
    }

    fn check_against_dense(n: usize, nb: usize, workers: usize, seed: u64) {
        let k = kernel(n, seed);
        let mut a = TileMatrix::from_kernel_symmetric_lower(&k, nb, 1);
        let dense_ref = a.to_dense_symmetric();
        let rt = Runtime::new(workers);
        tile_potrf(&mut a, &rt).unwrap();
        // Dense reference factor.
        let mut l_ref = dense_ref.clone();
        dpotrf(n, l_ref.as_mut_slice(), n).unwrap();
        let l_tile = a.to_dense_lower();
        for j in 0..n {
            for i in j..n {
                let d = (l_tile[(i, j)] - l_ref[(i, j)]).abs();
                assert!(
                    d < 1e-9 * l_ref[(i, j)].abs().max(1.0),
                    "n={n} nb={nb} ({i},{j}): {} vs {}",
                    l_tile[(i, j)],
                    l_ref[(i, j)]
                );
            }
        }
        // Log-determinants agree too.
        let ld_tile = tile_logdet(&a);
        let ld_ref = logdet_from_cholesky(n, l_ref.as_slice(), n);
        assert!((ld_tile - ld_ref).abs() < 1e-8 * ld_ref.abs().max(1.0));
    }

    #[test]
    fn matches_dense_cholesky_exact_tiling() {
        check_against_dense(64, 16, 4, 1);
    }

    #[test]
    fn matches_dense_cholesky_ragged_tiling() {
        check_against_dense(75, 16, 4, 2);
        check_against_dense(50, 50, 2, 3); // single tile
        check_against_dense(33, 40, 2, 4); // tile larger than matrix
    }

    #[test]
    fn single_worker_and_many_workers_agree() {
        let k = kernel(60, 5);
        let mut a1 = TileMatrix::from_kernel_symmetric_lower(&k, 13, 1);
        let mut a8 = a1.clone();
        tile_potrf(&mut a1, &Runtime::new(1)).unwrap();
        tile_potrf(&mut a8, &Runtime::new(8)).unwrap();
        // Identical task set and per-tile kernels => bitwise identical result.
        for j in 0..60 {
            for i in j..60 {
                assert_eq!(a1.at(i, j), a8.at(i, j));
            }
        }
    }

    #[test]
    fn reports_global_failure_index() {
        // Indefinite matrix: -I in the second tile row.
        let n = 32;
        let nb = 8;
        let mut d = Mat::eye(n);
        d[(12, 12)] = -3.0;
        let mut a = TileMatrix::from_dense(&d, nb);
        let rt = Runtime::new(4);
        let err = tile_potrf(&mut a, &rt).unwrap_err();
        assert_eq!(err, LinalgError::NotPositiveDefinite { index: 13 });
    }

    fn tlr_kernel(n: usize, range: f64, seed: u64) -> MaternKernel {
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
        let k = tlr_kernel(n, 0.1, seed);
        let mut a = TileMatrix::from_kernel(&k, nb, eps, CompressionMethod::Svd, 2, seed).unwrap();
        let reference = a.to_dense_symmetric();
        tile_potrf(&mut a, &Runtime::new(4)).unwrap();
        let l = a.to_dense_lower();
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
        let k = tlr_kernel(n, 0.1, 3);
        let mut a = TileMatrix::from_kernel(&k, 16, 1e-11, CompressionMethod::Svd, 2, 3).unwrap();
        let dense = a.to_dense_symmetric();
        tile_potrf(&mut a, &Runtime::new(2)).unwrap();
        let mut lref = dense.clone();
        exa_linalg::dpotrf(n, lref.as_mut_slice(), n).unwrap();
        let want = exa_linalg::chol::logdet_from_cholesky(n, lref.as_slice(), n);
        let got = tile_logdet(&a);
        assert!(
            (got - want).abs() < 1e-6 * want.abs(),
            "logdet {got} vs {want}"
        );
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let k = tlr_kernel(64, 0.1, 4);
        let base = TileMatrix::from_kernel(&k, 16, 1e-9, CompressionMethod::Svd, 1, 4).unwrap();
        let mut a1 = base.clone();
        let mut a4 = base.clone();
        tile_potrf(&mut a1, &Runtime::new(1)).unwrap();
        tile_potrf(&mut a4, &Runtime::new(4)).unwrap();
        // Same task set ⇒ same arithmetic ⇒ identical factors.
        let (d1, d4) = (a1.to_dense_lower(), a4.to_dense_lower());
        assert_eq!(d1.as_slice(), d4.as_slice());
    }

    #[test]
    fn indefinite_matrix_reports_failure() {
        // Assemble a valid TLR matrix, then corrupt a diagonal tile.
        let k = tlr_kernel(60, 0.1, 6);
        let mut a = TileMatrix::from_kernel(&k, 16, 1e-9, CompressionMethod::Svd, 1, 6).unwrap();
        let t = a.diag_mut(1);
        for i in 0..t.rows {
            *t.at_mut(i, i) = -1.0;
        }
        let err = tile_potrf(&mut a, &Runtime::new(2)).unwrap_err();
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
        let k = tlr_kernel(n, 0.1, 7);
        let mut a = TileMatrix::from_kernel(&k, 24, 1e-7, CompressionMethod::Svd, 2, 7).unwrap();
        let before = a.rank_stats();
        tile_potrf(&mut a, &Runtime::new(4)).unwrap();
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
        let k = tlr_kernel(12, 0.1, 8);
        let mut a = TileMatrix::from_kernel(&k, 16, 1e-9, CompressionMethod::Svd, 1, 8).unwrap();
        let dense = a.to_dense_symmetric();
        tile_potrf(&mut a, &Runtime::new(1)).unwrap();
        let mut lref = dense.clone();
        exa_linalg::dpotrf(12, lref.as_mut_slice(), 12).unwrap();
        let l = a.to_dense_lower();
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
        let k = tlr_kernel(n, 0.3, 9);
        let mut tight =
            TileMatrix::from_kernel(&k, 20, 1e-12, CompressionMethod::Svd, 2, 9).unwrap();
        let reference = tight.to_dense_symmetric();
        tile_potrf(&mut tight, &Runtime::new(2)).unwrap();
        let l = tight.to_dense_lower();
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
