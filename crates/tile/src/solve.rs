//! Tile triangular solves on block right-hand sides.
//!
//! After `tile_potrf` leaves `L` in the lower tiles, the likelihood needs
//! `L⁻¹ Z` (for the quadratic form `Zᵀ Σ⁻¹ Z`) and the predictor needs the
//! full `Σ⁻¹ Z = L⁻ᵀ L⁻¹ Z` (Eq. 4). Right-hand sides are dense column-major
//! matrices (`n × nrhs`) partitioned into `nb`-row blocks; each block is one
//! data handle of the solve DAG in [`exa_runtime::chol`]. The factor is only
//! read, so any number of solves may share it. A low-rank off-diagonal tile
//! is applied through its factors (`U(VᵀB)`), so a TLR solve costs
//! `O(Σ_tiles k·nb·nrhs)` instead of the dense `O(n²·nrhs)`.

use crate::layout::{packed_index, OffDiagonal, TileMatrix};
use crate::view::{rhs_views, FactorRef};
use exa_linalg::{dgemm, dtrsm, Mat, Side, Trans};
use exa_runtime::chol::{solve, SolveTask};
pub use exa_runtime::TriangularSide;
use exa_runtime::{ExecStats, Runtime};

/// Solves `L X = B` or `Lᵀ X = B` in place on `b`, where `l` holds the tile
/// Cholesky factor.
pub fn tile_trsm(l: &TileMatrix, side: TriangularSide, b: &mut Mat, rt: &Runtime) -> ExecStats {
    assert_eq!(l.n, b.nrows(), "RHS row count mismatch");
    if b.ncols() == 0 || l.n == 0 {
        return ExecStats::empty(rt.num_workers());
    }
    let blocks = rhs_views(b, l.nb);
    let factor = FactorRef::new(l);
    let op = match side {
        TriangularSide::Forward => Trans::No,
        TriangularSide::Backward => Trans::Yes,
    };
    solve(l.nt, side, rt, move |task| {
        // SAFETY: `l` is borrowed until this function returns, which is after
        // the run.
        let l = unsafe { factor.get() };
        match task {
            SolveTask::Trsm { k } => {
                let (d, bk) = (l.diag(k), blocks[k]);
                // SAFETY: `solve` declared ReadWrite on B[k] for this task.
                let x = unsafe { bk.as_mut_slice() };
                dtrsm(
                    Side::Left,
                    op,
                    bk.rows,
                    bk.cols,
                    1.0,
                    &d.data,
                    d.rows,
                    x,
                    bk.ld,
                );
            }
            SolveTask::Gemm { k, i } => {
                // The lower tile joining blocks i and k: L(i,k) going forward,
                // L(k,i) applied transposed going backward.
                let (t, bk, bi) = (packed_index(l.nt, i.max(k), i.min(k)), blocks[k], blocks[i]);
                // SAFETY: `solve` declared Read on B[k] and ReadWrite on B[i].
                let (src, dst) = unsafe { (bk.as_slice(), bi.as_mut_slice()) };
                match (&l.off, side) {
                    (OffDiagonal::Dense(tiles), _) => dgemm(
                        op,
                        Trans::No,
                        bi.rows,
                        bk.cols,
                        bk.rows,
                        -1.0,
                        &tiles[t].data,
                        tiles[t].rows,
                        src,
                        bk.ld,
                        1.0,
                        dst,
                        bi.ld,
                    ),
                    (OffDiagonal::LowRank { tiles, .. }, TriangularSide::Forward) => {
                        tiles[t].gemm_acc(-1.0, src, bk.ld, bk.cols, 1.0, dst, bi.ld)
                    }
                    (OffDiagonal::LowRank { tiles, .. }, TriangularSide::Backward) => {
                        tiles[t].gemm_trans_acc(-1.0, src, bk.ld, bk.cols, 1.0, dst, bi.ld)
                    }
                }
            }
        }
    })
}

/// Convenience: full SPD solve `A X = B` given the tile Cholesky factor
/// (`L L' X = B`), overwriting `b` with the solution.
pub fn tile_potrs(l: &TileMatrix, b: &mut Mat, rt: &Runtime) {
    tile_trsm(l, TriangularSide::Forward, b, rt);
    tile_trsm(l, TriangularSide::Backward, b, rt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::tile_potrf;
    use crate::compress::CompressionMethod;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_linalg::{dpotrf, frobenius_norm};
    use exa_util::Rng;
    use std::sync::Arc;

    fn spd_tiles(n: usize, nb: usize, seed: u64) -> (TileMatrix, Mat) {
        let mut rng = Rng::seed_from_u64(seed);
        let dense = Mat::random_spd(n, &mut rng);
        (TileMatrix::from_dense(&dense, nb), dense)
    }

    fn residual_norm(a: &Mat, x: &Mat, b: &Mat) -> f64 {
        let ax = a.matmul(x);
        let mut diff = vec![0.0; b.as_slice().len()];
        for (d, (p, q)) in diff.iter_mut().zip(ax.as_slice().iter().zip(b.as_slice())) {
            *d = p - q;
        }
        frobenius_norm(b.nrows(), b.ncols(), &diff, b.nrows())
    }

    #[test]
    fn forward_backward_solves_spd_system() {
        let (mut a, dense) = spd_tiles(60, 16, 1);
        let rt = Runtime::new(4);
        tile_potrf(&mut a, &rt).unwrap();
        let mut rng = Rng::seed_from_u64(2);
        let b = Mat::gaussian(60, 5, &mut rng);
        let mut x = b.clone();
        tile_potrs(&a, &mut x, &rt);
        let r = residual_norm(&dense, &x, &b);
        assert!(
            r < 1e-8 * frobenius_norm(60, 5, b.as_slice(), 60),
            "residual {r}"
        );
    }

    #[test]
    fn matches_dense_trsm_each_phase() {
        let (mut a, dense) = spd_tiles(45, 12, 3);
        let rt = Runtime::new(3);
        tile_potrf(&mut a, &rt).unwrap();
        // Dense reference factor.
        let n = 45;
        let mut lref = dense.clone();
        dpotrf(n, lref.as_mut_slice(), n).unwrap();

        let mut rng = Rng::seed_from_u64(4);
        let b = Mat::gaussian(n, 3, &mut rng);

        // Forward only.
        let mut x_tile = b.clone();
        tile_trsm(&a, TriangularSide::Forward, &mut x_tile, &rt);
        let mut x_ref = b.clone();
        dtrsm(
            Side::Left,
            Trans::No,
            n,
            3,
            1.0,
            lref.as_slice(),
            n,
            x_ref.as_mut_slice(),
            n,
        );
        for (t, r) in x_tile.as_slice().iter().zip(x_ref.as_slice()) {
            assert!((t - r).abs() < 1e-9 * r.abs().max(1.0));
        }

        // Backward on top.
        tile_trsm(&a, TriangularSide::Backward, &mut x_tile, &rt);
        dtrsm(
            Side::Left,
            Trans::Yes,
            n,
            3,
            1.0,
            lref.as_slice(),
            n,
            x_ref.as_mut_slice(),
            n,
        );
        for (t, r) in x_tile.as_slice().iter().zip(x_ref.as_slice()) {
            assert!((t - r).abs() < 1e-8 * r.abs().max(1.0));
        }
    }

    #[test]
    fn ragged_blocks_and_single_rhs() {
        let (mut a, dense) = spd_tiles(37, 10, 5);
        let rt = Runtime::new(2);
        tile_potrf(&mut a, &rt).unwrap();
        let mut rng = Rng::seed_from_u64(6);
        let b = Mat::gaussian(37, 1, &mut rng);
        let mut x = b.clone();
        tile_potrs(&a, &mut x, &rt);
        assert!(residual_norm(&dense, &x, &b) < 1e-8);
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let (mut a, _) = spd_tiles(50, 8, 7);
        tile_potrf(&mut a, &Runtime::new(1)).unwrap();
        let mut rng = Rng::seed_from_u64(8);
        let b = Mat::gaussian(50, 4, &mut rng);
        let mut x1 = b.clone();
        let mut x8 = b.clone();
        tile_potrs(&a, &mut x1, &Runtime::new(1));
        tile_potrs(&a, &mut x8, &Runtime::new(8));
        assert_eq!(x1.as_slice(), x8.as_slice());
    }

    #[test]
    fn empty_rhs_is_noop() {
        let (mut a, _) = spd_tiles(20, 8, 9);
        let rt = Runtime::new(2);
        tile_potrf(&mut a, &rt).unwrap();
        let (l, _) = factored(30, 10, 1e-9, 9);
        for (f, n) in [(&a, 20), (&l, 30)] {
            let mut x = Mat::zeros(n, 0);
            let stats = tile_trsm(f, TriangularSide::Forward, &mut x, &rt);
            assert_eq!(stats.tasks_executed, 0);
        }
    }

    fn factored(n: usize, nb: usize, eps: f64, seed: u64) -> (TileMatrix, Mat) {
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
            TileMatrix::from_kernel(&kernel, nb, eps, CompressionMethod::Svd, 2, seed).unwrap();
        let dense = a.to_dense_symmetric();
        tile_potrf(&mut a, &Runtime::new(4)).unwrap();
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
            tile_potrs(&l, &mut x, &Runtime::new(4));
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
        tile_trsm(&l, TriangularSide::Forward, &mut x_split, &rt);
        tile_trsm(&l, TriangularSide::Backward, &mut x_split, &rt);
        let mut x_full = b.clone();
        tile_potrs(&l, &mut x_full, &rt);
        assert_eq!(x_split.as_slice(), x_full.as_slice());
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let (l, _) = factored(70, 14, 1e-9, 5);
        let mut rng = Rng::seed_from_u64(6);
        let b = Mat::gaussian(70, 3, &mut rng);
        let mut x1 = b.clone();
        let mut x8 = b.clone();
        tile_potrs(&l, &mut x1, &Runtime::new(1));
        tile_potrs(&l, &mut x8, &Runtime::new(8));
        assert_eq!(x1.as_slice(), x8.as_slice());
    }

    #[test]
    fn quadratic_form_matches_dense_route() {
        // ‖L⁻¹Z‖² (the MLE quadratic term) via TLR vs dense Cholesky.
        let (l, dense) = factored(64, 16, 1e-11, 7);
        let mut rng = Rng::seed_from_u64(8);
        let z = Mat::gaussian(64, 1, &mut rng);
        let mut w = z.clone();
        tile_trsm(&l, TriangularSide::Forward, &mut w, &Runtime::new(2));
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
}
