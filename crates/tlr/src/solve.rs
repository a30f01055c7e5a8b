//! TLR triangular solves on block right-hand sides.
//!
//! After [`crate::tlr_potrf`] the matrix holds `L` in TLR form; the
//! likelihood needs `L⁻¹Z` and the predictor `L⁻ᵀL⁻¹Z` (Eq. 4). Off-diagonal
//! updates go through the factors (`U(VᵀB)`), so a solve costs
//! `O(Σ_tiles k·nb·nrhs)` instead of the dense `O(n²·nrhs)`. The task DAG is
//! the tile solver's ([`exa_runtime::chol`]); the factor is only read.

use crate::tlrmat::TlrMatrix;
use exa_linalg::Mat;
use exa_runtime::chol::{solve, SolveTask};
use exa_runtime::{ExecStats, Runtime};
pub use exa_tile::TriangularSide;
use exa_tile::{rhs_views, trsm_block, FactorRef};

/// Solves `L X = B` (forward) or `Lᵀ X = B` (backward) in place on `b`,
/// where `l` holds the TLR Cholesky factor.
pub fn tlr_trsm(l: &TlrMatrix, side: TriangularSide, b: &mut Mat, rt: &Runtime) -> ExecStats {
    assert_eq!(l.n, b.nrows(), "RHS row count mismatch");
    if b.ncols() == 0 || l.n == 0 {
        return ExecStats::empty(rt.num_workers());
    }
    let blocks = rhs_views(b, l.nb);
    let factor = FactorRef::new(l);
    solve(l.nt, side, rt, move |task| {
        // SAFETY: `l` is borrowed until this function returns, which is after
        // the run.
        let l = unsafe { factor.get() };
        match task {
            // SAFETY: `solve` declared ReadWrite on B[k] for this task.
            SolveTask::Trsm { k } => unsafe { trsm_block(l.diag(k), side, blocks[k]) },
            SolveTask::Gemm { k, i } => {
                // Through the factors: L(i,k)·B[k] = U(VᵀB[k]) going forward,
                // L(k,i)ᵀ·B[k] = V(UᵀB[k]) going backward.
                let (t, bk, bi) = (l.lr(i.max(k), i.min(k)), blocks[k], blocks[i]);
                // SAFETY: `solve` declared Read on B[k] and ReadWrite on B[i].
                let (src, dst) = unsafe { (bk.as_slice(), bi.as_mut_slice()) };
                match side {
                    TriangularSide::Forward => {
                        t.gemm_acc(-1.0, src, bk.ld, bk.cols, 1.0, dst, bi.ld)
                    }
                    TriangularSide::Backward => {
                        t.gemm_trans_acc(-1.0, src, bk.ld, bk.cols, 1.0, dst, bi.ld)
                    }
                }
            }
        }
    })
}

/// Full SPD solve `A X = B` through the TLR factor (`L Lᵀ X = B`).
pub fn tlr_potrs(l: &TlrMatrix, b: &mut Mat, rt: &Runtime) {
    tlr_trsm(l, TriangularSide::Forward, b, rt);
    tlr_trsm(l, TriangularSide::Backward, b, rt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::tlr_potrf;
    use crate::compress::CompressionMethod;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_linalg::{dtrsm, frobenius_norm, Side, Trans};
    use exa_util::Rng;
    use std::sync::Arc;

    fn factored(n: usize, nb: usize, eps: f64, seed: u64) -> (TlrMatrix, Mat) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut locs: Vec<Location> = (0..n)
            .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
            .collect();
        exa_covariance::sort_morton(&mut locs);
        let kernel = MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            1e-6,
        );
        let mut a =
            TlrMatrix::from_kernel(&kernel, nb, eps, CompressionMethod::Svd, 2, seed).unwrap();
        let dense = a.to_dense_symmetric();
        tlr_potrf(&mut a, &Runtime::new(4)).unwrap();
        (a, dense)
    }

    fn rel_residual(a: &Mat, x: &Mat, b: &Mat) -> f64 {
        let ax = a.matmul(x);
        let mut d = vec![0.0; b.as_slice().len()];
        for (v, (p, q)) in d.iter_mut().zip(ax.as_slice().iter().zip(b.as_slice())) {
            *v = p - q;
        }
        frobenius_norm(b.nrows(), b.ncols(), &d, b.nrows())
            / frobenius_norm(b.nrows(), b.ncols(), b.as_slice(), b.nrows())
    }

    #[test]
    fn solve_residual_tracks_accuracy() {
        for (eps, tol) in [(1e-11, 1e-8), (1e-6, 1e-3)] {
            let (l, dense) = factored(80, 16, eps, 1);
            let mut rng = Rng::seed_from_u64(2);
            let b = Mat::gaussian(80, 4, &mut rng);
            let mut x = b.clone();
            tlr_potrs(&l, &mut x, &Runtime::new(4));
            let r = rel_residual(&dense, &x, &b);
            assert!(r < tol, "eps={eps}: residual {r}");
        }
    }

    #[test]
    fn forward_then_backward_equals_full_solve() {
        let (l, _) = factored(60, 12, 1e-10, 3);
        let mut rng = Rng::seed_from_u64(4);
        let b = Mat::gaussian(60, 2, &mut rng);
        let rt = Runtime::new(2);
        let mut x_split = b.clone();
        tlr_trsm(&l, TriangularSide::Forward, &mut x_split, &rt);
        tlr_trsm(&l, TriangularSide::Backward, &mut x_split, &rt);
        let mut x_full = b.clone();
        tlr_potrs(&l, &mut x_full, &rt);
        assert_eq!(x_split.as_slice(), x_full.as_slice());
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let (l, _) = factored(70, 14, 1e-9, 5);
        let mut rng = Rng::seed_from_u64(6);
        let b = Mat::gaussian(70, 3, &mut rng);
        let mut x1 = b.clone();
        let mut x8 = b.clone();
        tlr_potrs(&l, &mut x1, &Runtime::new(1));
        tlr_potrs(&l, &mut x8, &Runtime::new(8));
        assert_eq!(x1.as_slice(), x8.as_slice());
    }

    #[test]
    fn quadratic_form_matches_dense_route() {
        // ‖L⁻¹Z‖² (the MLE quadratic term) via TLR vs dense Cholesky.
        let (l, dense) = factored(64, 16, 1e-11, 7);
        let mut rng = Rng::seed_from_u64(8);
        let z = Mat::gaussian(64, 1, &mut rng);
        let mut w = z.clone();
        tlr_trsm(&l, TriangularSide::Forward, &mut w, &Runtime::new(2));
        let got: f64 = w.as_slice().iter().map(|v| v * v).sum();
        let mut lref = dense.clone();
        exa_linalg::dpotrf(64, lref.as_mut_slice(), 64).unwrap();
        let mut wref = z.clone();
        dtrsm(
            Side::Left,
            Trans::No,
            64,
            1,
            1.0,
            lref.as_slice(),
            64,
            wref.as_mut_slice(),
            64,
        );
        let want: f64 = wref.as_slice().iter().map(|v| v * v).sum();
        assert!((got - want).abs() < 1e-6 * want.abs(), "{got} vs {want}");
    }

    #[test]
    fn empty_rhs_is_noop() {
        let (l, _) = factored(30, 10, 1e-9, 9);
        let mut x = Mat::zeros(30, 0);
        let stats = tlr_trsm(&l, TriangularSide::Forward, &mut x, &Runtime::new(2));
        assert_eq!(stats.tasks_executed, 0);
    }
}
