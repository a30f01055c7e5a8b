//! Dense tile Cholesky factorization ("Full-tile" in the paper).
//!
//! The task DAG — the right-looking loop nest, each task's tiles and its
//! priority — is [`exa_runtime::chol`]'s, submitted to the STF runtime as
//! Chameleon submits to StarPU; this file supplies the dense kernel each
//! task runs on its tiles.

use crate::layout::TileMatrix;
use crate::view::TileView;
use exa_linalg::{dgemm, dpotrf, dsyrk, dtrsm, LinalgError, Side, Trans};
use exa_runtime::chol::{factor, CholTask, TileIdx};
use exa_runtime::{ExecStats, Runtime};

/// In-place tile Cholesky: on success the lower tiles of `a` hold `L`.
///
/// Returns the runtime's execution statistics, or the first
/// [`LinalgError::NotPositiveDefinite`] encountered (with a global minor
/// index), in which case `a` is left partially factored.
pub fn tile_potrf(a: &mut TileMatrix, rt: &Runtime) -> Result<ExecStats, LinalgError> {
    assert_eq!(a.m, a.n, "Cholesky needs a square matrix");
    let nb = a.nb;
    // One view per lower tile, column by column.
    let views: Vec<Vec<TileView>> = (0..a.nt)
        .map(|j| (j..a.nt).map(|i| a.view(i, j)).collect())
        .collect();
    let view = move |(i, j): TileIdx| views[j][i - j];
    factor(a.nt, rt, move |task| {
        let out = view(task.output());
        // SAFETY: `factor` declares ReadWrite on the output tile and Read on
        // every tile in `task.inputs()`, which are the tiles each arm below
        // borrows; the DAG serializes the task against their other users.
        let c = unsafe { out.as_mut_slice() };
        let read = |t: TileView| unsafe { t.as_slice() };
        match task {
            CholTask::Potrf { k } => {
                dpotrf(out.rows, c, out.rows).map_err(|e| e.offset_minor(k * nb))?
            }
            CholTask::Trsm { k, .. } => {
                let l = view((k, k));
                let (m, n) = (out.rows, out.cols);
                dtrsm(Side::Right, Trans::Yes, m, n, 1.0, read(l), l.rows, c, m);
            }
            CholTask::Syrk { k, j } => {
                let a = view((j, k));
                dsyrk(
                    Trans::No,
                    out.rows,
                    a.cols,
                    -1.0,
                    read(a),
                    a.rows,
                    1.0,
                    c,
                    out.rows,
                );
            }
            CholTask::Gemm { k, j, i } => {
                let (x, y) = (view((i, k)), view((j, k)));
                let (m, n) = (out.rows, out.cols);
                dgemm(
                    Trans::No,
                    Trans::Yes,
                    m,
                    n,
                    x.cols,
                    -1.0,
                    read(x),
                    x.rows,
                    read(y),
                    y.rows,
                    1.0,
                    c,
                    m,
                );
            }
        }
        Ok(())
    })
}

/// Log-determinant `ln|A|` from the tile Cholesky factor: `2·Σ ln L_ii`.
pub fn tile_logdet(l: &TileMatrix) -> f64 {
    let mut acc = 0.0;
    for k in 0..l.nt {
        let t = l.tile(k, k);
        for i in 0..t.rows {
            acc += t.at(i, i).ln();
        }
    }
    2.0 * acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_linalg::chol::logdet_from_cholesky;
    use exa_linalg::Mat;
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
        let l_tile = a.to_dense();
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
}
