//! Dense tile matrix products used by simulation.
//!
//! * [`tile_trmm_lower`] — `Y = L · X` with the lower-triangular tile factor
//!   (exact Gaussian field simulation draws `Z = L · w`).
//! * [`tile_symm_lower`] — `Y = A · X` for the symmetric-lower storage, used
//!   by tests and residual checks without materializing the mirror.

use crate::layout::TileMatrix;
use exa_linalg::{dgemm, Mat, Trans};
use exa_runtime::parallel_for;

/// `Y = L · X` with `L` the lower-triangular tile factor (strictly the stored
/// lower tiles; diagonal tiles contribute their lower triangle only).
pub fn tile_trmm_lower(l: &TileMatrix, x: &Mat, num_workers: usize) -> Mat {
    assert_eq!(l.m, l.n, "factor must be square");
    assert_eq!(l.n, x.nrows(), "inner dimension mismatch");
    let nrhs = x.ncols();
    let mut y = Mat::zeros(l.m, nrhs);
    if l.m == 0 || nrhs == 0 {
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
    parallel_for(num_workers, l.mt, 1, move |t0, t1| {
        for ti in t0..t1 {
            let rows = l.tile_rows(ti);
            // SAFETY: tile-row `ti` owns rows [ti·nb, ti·nb+rows) of Y, and
            // tile rows are disjoint across parallel_for chunks.
            let yblock = unsafe {
                std::slice::from_raw_parts_mut(yref.0.add(ti * l.nb), ldy * (nrhs - 1) + rows)
            };
            for tj in 0..=ti {
                let t = l.tile(ti, tj);
                if ti == tj {
                    // Diagonal tile: multiply by its lower triangle.
                    for c in 0..nrhs {
                        for j in 0..t.cols {
                            let xv = x.as_slice()[tj * l.nb + j + c * ldx];
                            if xv == 0.0 {
                                continue;
                            }
                            for i in j..t.rows {
                                yblock[i + c * ldy] += t.at(i, j) * xv;
                            }
                        }
                    }
                } else {
                    dgemm(
                        Trans::No,
                        Trans::No,
                        rows,
                        nrhs,
                        t.cols,
                        1.0,
                        &t.data,
                        t.rows,
                        &x.as_slice()[tj * l.nb..],
                        ldx,
                        1.0,
                        yblock,
                        ldy,
                    );
                }
            }
        }
    });
    y
}

/// `Y = A · X` for a symmetric matrix stored in lower tiles (upper tiles
/// reconstructed on the fly as transposes).
pub fn tile_symm_lower(a: &TileMatrix, x: &Mat, num_workers: usize) -> Mat {
    assert_eq!(a.m, a.n, "symmetric matrix must be square");
    assert_eq!(a.n, x.nrows(), "inner dimension mismatch");
    let nrhs = x.ncols();
    let mut y = Mat::zeros(a.m, nrhs);
    if a.m == 0 || nrhs == 0 {
        return y;
    }
    let ldy = y.ld();
    let ldx = x.ld();
    struct RawPtr(*mut f64);
    // SAFETY: workers write disjoint row blocks of Y, as in `tile_trmm_lower`.
    unsafe impl Sync for RawPtr {}
    let yptr = RawPtr(y.as_mut_slice().as_mut_ptr());
    let yref = &yptr;
    parallel_for(num_workers, a.mt, 1, move |t0, t1| {
        for ti in t0..t1 {
            let rows = a.tile_rows(ti);
            // SAFETY: disjoint row blocks, as in `tile_trmm_lower`.
            let yblock = unsafe {
                std::slice::from_raw_parts_mut(yref.0.add(ti * a.nb), ldy * (nrhs - 1) + rows)
            };
            for tj in 0..a.nt {
                // Pick the stored tile and the op that realizes A(ti, tj).
                let (tile, trans) = if ti >= tj {
                    (a.tile(ti, tj), Trans::No)
                } else {
                    (a.tile(tj, ti), Trans::Yes)
                };
                if ti == tj {
                    // Diagonal tile is stored fully symmetric? No: lower only.
                    // Mirror its strict lower triangle on the fly.
                    for c in 0..nrhs {
                        for j in 0..tile.cols {
                            let xv = x.as_slice()[tj * a.nb + j + c * ldx];
                            if xv == 0.0 {
                                continue;
                            }
                            for i in 0..tile.rows {
                                let v = if i >= j { tile.at(i, j) } else { tile.at(j, i) };
                                yblock[i + c * ldy] += v * xv;
                            }
                        }
                    }
                } else {
                    let k = match trans {
                        Trans::No => tile.cols,
                        Trans::Yes => tile.rows,
                    };
                    dgemm(
                        trans,
                        Trans::No,
                        rows,
                        nrhs,
                        k,
                        1.0,
                        &tile.data,
                        tile.rows,
                        &x.as_slice()[tj * a.nb..],
                        ldx,
                        1.0,
                        yblock,
                        ldy,
                    );
                }
            }
        }
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_chol::tile_potrf;
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
        let mut ld = l.to_dense();
        ld.zero_strict_upper();
        // to_dense of symmetric-lower leaves upper zero except the mirrored
        // diagonal tiles; zero_strict_upper fixes the diagonal-tile uppers.
        let y_ref = ld.matmul(&x);
        for (a, b) in y.as_slice().iter().zip(y_ref.as_slice()) {
            assert!((a - b).abs() < 1e-10 * b.abs().max(1.0));
        }
    }

    #[test]
    fn symm_matches_mirrored_dense() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 35;
        let spd = Mat::random_spd(n, &mut rng);
        let tiles = TileMatrix::from_dense(&spd, 9);
        // Keep only lower tiles to model symmetric-lower storage.
        let mut lower = TileMatrix::zeros_symmetric_lower(n, 9);
        for tj in 0..lower.nt {
            for ti in tj..lower.mt {
                *lower.tile_mut(ti, tj) = tiles.tile(ti, tj).clone();
            }
        }
        let x = Mat::gaussian(n, 4, &mut rng);
        let y = tile_symm_lower(&lower, &x, 3);
        let y_ref = spd.matmul(&x);
        for (a, b) in y.as_slice().iter().zip(y_ref.as_slice()) {
            assert!((a - b).abs() < 1e-10 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
}
