//! Tile triangular solves on block right-hand sides.
//!
//! After `tile_potrf` leaves `L` in the lower tiles, the likelihood needs
//! `L⁻¹ Z` (for the quadratic form `Zᵀ Σ⁻¹ Z`) and the predictor needs the
//! full `Σ⁻¹ Z = L⁻ᵀ L⁻¹ Z`. Right-hand sides are dense column-major
//! matrices (`n × nrhs`) partitioned into `nb`-row blocks; each block is one
//! data handle of the solve DAG in [`exa_runtime::chol`]. The factor is only
//! read, so any number of solves may share it.

use crate::layout::{Tile, TileMatrix};
use crate::view::{rhs_views, FactorRef, RhsView};
use exa_linalg::{dgemm, dtrsm, Mat, Side, Trans};
use exa_runtime::chol::{solve, SolveTask};
pub use exa_runtime::TriangularSide;
use exa_runtime::{ExecStats, Runtime};

/// Solves `L X = B` or `Lᵀ X = B` in place on `b`, where `l` holds the tile
/// Cholesky factor in its lower tiles.
pub fn tile_trsm(l: &TileMatrix, side: TriangularSide, b: &mut Mat, rt: &Runtime) -> ExecStats {
    assert_eq!(l.m, l.n, "factor must be square");
    assert_eq!(l.m, b.nrows(), "RHS row count mismatch");
    if b.ncols() == 0 || l.m == 0 {
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
            SolveTask::Trsm { k } => unsafe { trsm_block(l.tile(k, k), side, blocks[k]) },
            SolveTask::Gemm { k, i } => {
                // The lower tile joining blocks i and k: L(i,k) going forward,
                // L(k,i) (applied transposed) going backward.
                let (t, bk, bi) = (l.tile(i.max(k), i.min(k)), blocks[k], blocks[i]);
                // SAFETY: `solve` declared Read on B[k] and ReadWrite on B[i].
                let (src, dst) = unsafe { (bk.as_slice(), bi.as_mut_slice()) };
                let (m, n, kk) = (bi.rows, bk.cols, bk.rows);
                dgemm(
                    op(side),
                    Trans::No,
                    m,
                    n,
                    kk,
                    -1.0,
                    &t.data,
                    t.rows,
                    src,
                    bk.ld,
                    1.0,
                    dst,
                    bi.ld,
                );
            }
        }
    })
}

fn op(side: TriangularSide) -> Trans {
    match side {
        TriangularSide::Forward => Trans::No,
        TriangularSide::Backward => Trans::Yes,
    }
}

/// `B[k] ← op(L_kk)⁻¹ · B[k]` against a dense diagonal tile: the solve task
/// the tile and TLR solvers share.
///
/// # Safety
/// Caller must hold runtime-granted `ReadWrite` access to `bk`.
pub unsafe fn trsm_block(diag: &Tile, side: TriangularSide, bk: RhsView) {
    // SAFETY: the caller holds ReadWrite on the block.
    let x = unsafe { bk.as_mut_slice() };
    dtrsm(
        Side::Left,
        op(side),
        bk.rows,
        bk.cols,
        1.0,
        &diag.data,
        diag.rows,
        x,
        bk.ld,
    );
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
    use crate::dense_chol::tile_potrf;
    use exa_linalg::{dpotrf, frobenius_norm};
    use exa_util::Rng;

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
        let mut x = Mat::zeros(20, 0);
        let stats = tile_trsm(&a, TriangularSide::Forward, &mut x, &rt);
        assert_eq!(stats.tasks_executed, 0);
    }
}
