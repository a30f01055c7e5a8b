//! `Y = L · X` with the lower-triangular tile factor: exact Gaussian field
//! simulation draws `Z = L · w`.

use crate::layout::{OffDiagonal, TileMatrix};
use exa_linalg::{dgemm, Mat, Trans};
use exa_runtime::parallel_for;

/// `Y = L · X` with `L` the lower-triangular tile factor (strictly the stored
/// lower tiles; diagonal tiles contribute their lower triangle only). A
/// low-rank tile is applied through its factors, `U(VᵀX)`, so the factor is
/// never densified.
pub fn tile_trmm_lower(l: &TileMatrix, x: &Mat, num_workers: usize) -> Mat {
    assert_eq!(l.n, x.nrows(), "inner dimension mismatch");
    let nrhs = x.ncols();
    let mut y = Mat::zeros(l.n, nrhs);
    if l.n == 0 || nrhs == 0 {
        return y;
    }
    let ldy = y.ld();
    let ldx = x.ld();
    struct RawPtr(*mut f64);
    // SAFETY: shared only so each worker can carve out its own disjoint row
    // block of Y below; no two chunks ever touch the same rows.
    unsafe impl Sync for RawPtr {}
    let yptr = RawPtr(y.as_mut_slice().as_mut_ptr());
    let yref = &yptr;
    parallel_for(num_workers, l.nt, 1, move |t0, t1| {
        for ti in t0..t1 {
            let rows = l.tile_extent(ti);
            // SAFETY: tile-row `ti` owns rows [ti·nb, ti·nb+rows) of Y, and
            // tile rows are disjoint across parallel_for chunks.
            let yblock = unsafe {
                std::slice::from_raw_parts_mut(yref.0.add(ti * l.nb), ldy * (nrhs - 1) + rows)
            };
            for tj in 0..ti {
                let xj = &x.as_slice()[tj * l.nb..];
                match &l.off {
                    OffDiagonal::Dense(_) => {
                        let t = l.tile(ti, tj);
                        dgemm(
                            Trans::No,
                            Trans::No,
                            rows,
                            nrhs,
                            t.cols,
                            1.0,
                            &t.data,
                            t.rows,
                            xj,
                            ldx,
                            1.0,
                            yblock,
                            ldy,
                        );
                    }
                    OffDiagonal::LowRank { .. } => {
                        l.lr(ti, tj).gemm_acc(1.0, xj, ldx, nrhs, 1.0, yblock, ldy)
                    }
                }
            }
            // Diagonal tile: multiply by its lower triangle.
            let t = l.diag(ti);
            for c in 0..nrhs {
                for j in 0..t.cols {
                    let xv = x.as_slice()[ti * l.nb + j + c * ldx];
                    if xv == 0.0 {
                        continue;
                    }
                    for i in j..t.rows {
                        yblock[i + c * ldy] += t.at(i, j) * xv;
                    }
                }
            }
        }
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::tile_potrf;
    use exa_runtime::Runtime;
    use exa_util::Rng;

    #[test]
    fn trmm_matches_explicit_triangular_product() {
        let mut rng = Rng::seed_from_u64(2);
        let n = 40;
        let spd = Mat::random_spd(n, &mut rng);
        let mut l = TileMatrix::from_dense(&spd, 12);
        tile_potrf(&mut l, &Runtime::new(2)).unwrap();
        let x = Mat::gaussian(n, 3, &mut rng);
        let y = tile_trmm_lower(&l, &x, 4);
        // Dense triangular reference.
        let y_ref = l.to_dense_lower().matmul(&x);
        for (a, b) in y.as_slice().iter().zip(y_ref.as_slice()) {
            assert!((a - b).abs() < 1e-10 * b.abs().max(1.0));
        }
    }
}
