//! Fork-join blocked Cholesky — the paper's **"Full-block"** baseline.
//!
//! This is the LAPACK-with-multithreaded-BLAS execution model: a sequential
//! panel factorization, then bulk-synchronous parallel TRSM and SYRK phases
//! with a barrier after each step. The synchronization points are exactly why
//! the paper's Figure 3 shows the block variant losing to the tile variant —
//! reproducing that gap is the purpose of this module.

use exa_linalg::{dgemm, dpotf2, dtrsm, LinalgError, Mat, Side, Trans};
use exa_runtime::parallel_for;

/// Panel width; comparable to the tile size used by the tile algorithms.
const DEFAULT_PB: usize = 128;

/// Blocked, fork-join Cholesky of a dense symmetric matrix (lower triangle).
///
/// `num_workers` threads cooperate on each phase; phases are separated by
/// barriers (the defining property of the block algorithm).
pub fn block_potrf(a: &mut Mat, num_workers: usize) -> Result<(), LinalgError> {
    block_potrf_with_panel(a, num_workers, DEFAULT_PB)
}

/// [`block_potrf`] with an explicit panel width.
fn block_potrf_with_panel(a: &mut Mat, num_workers: usize, pb: usize) -> Result<(), LinalgError> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "Cholesky needs a square matrix");
    let pb = pb.max(8);
    let ld = n;
    let buf = a.as_mut_slice();
    let mut k = 0;
    while k < n {
        let w = pb.min(n - k);
        // 1) Sequential panel diagonal factorization.
        dpotf2(w, &mut buf[k + k * ld..], ld, k)?;
        let rem = n - k - w;
        if rem > 0 {
            // Snapshot the diagonal block (read by every TRSM chunk).
            let mut diag = vec![0.0f64; w * w];
            for j in 0..w {
                for i in 0..w {
                    diag[i + j * w] = buf[(k + i) + (k + j) * ld];
                }
            }
            // 2) Parallel panel TRSM: rows k+w..n of columns k..k+w.
            //    Each chunk copies its strided row block to scratch, solves,
            //    and copies back (chunks touch disjoint elements).
            let raw = RawMat(buf.as_mut_ptr());
            let raw_ref = &raw;
            let diag_ref = &diag;
            parallel_for(num_workers, rem, 256, move |r0, r1| {
                let rows = r1 - r0;
                let mut scratch = vec![0.0f64; rows * w];
                // SAFETY: this chunk reads only its own rows [r0, r1) of the
                // panel columns; chunks are disjoint and the diagonal block
                // was snapshotted before the fan-out.
                unsafe {
                    for j in 0..w {
                        for i in 0..rows {
                            scratch[i + j * rows] = *raw_ref.0.add((k + w + r0 + i) + (k + j) * ld);
                        }
                    }
                }
                dtrsm(
                    Side::Right,
                    Trans::Yes,
                    rows,
                    w,
                    1.0,
                    diag_ref,
                    w,
                    &mut scratch,
                    rows,
                );
                // SAFETY: writes land in the same rows [r0, r1) this chunk
                // read above — still disjoint from every other chunk.
                unsafe {
                    for j in 0..w {
                        for i in 0..rows {
                            *raw_ref.0.add((k + w + r0 + i) + (k + j) * ld) = scratch[i + j * rows];
                        }
                    }
                }
            });
            // Barrier implied by parallel_for returning.
            // 3) Parallel trailing update: for each trailing block column
            //    [c0, c1), update rows c0..n with the panel product.
            //    The panel (columns k..k+w) is read-only here and disjoint
            //    from the written columns, so split the buffer at the column
            //    boundary.
            let (head, tail) = buf.split_at_mut((k + w) * ld);
            let panel = &head[..]; // columns 0..k+w (reads use columns k..k+w)
            let tail_cell = RawMat(tail.as_mut_ptr());
            let tail_ref = &tail_cell;
            let nblocks = rem.div_ceil(pb);
            parallel_for(num_workers, nblocks, 1, move |b0, b1| {
                for blk in b0..b1 {
                    let c0 = k + w + blk * pb; // global column
                    let cb = pb.min(n - c0);
                    let rows = n - c0;
                    // C[c0..n, c0..c0+cb] -= A[c0..n, k..k+w] · A[c0..c0+cb, k..k+w]ᵀ
                    let c_off = (c0 - (k + w)) * ld + c0;
                    // SAFETY: block columns [c0, c0+cb) are disjoint across
                    // chunks; the slice below covers only this block's cols.
                    let c = unsafe {
                        std::slice::from_raw_parts_mut(tail_ref.0.add(c_off), (cb - 1) * ld + rows)
                    };
                    dgemm(
                        Trans::No,
                        Trans::Yes,
                        rows,
                        cb,
                        w,
                        -1.0,
                        &panel[k * ld + c0..],
                        ld,
                        &panel[k * ld + c0..],
                        ld,
                        1.0,
                        c,
                        ld,
                    );
                }
            });
        }
        k += w;
    }
    Ok(())
}

/// Shareable raw matrix pointer; chunk disjointness is the callers' contract.
struct RawMat(*mut f64);
// SAFETY: &RawMat only hands out the raw pointer; every dereference above is
// confined to a chunk-disjoint row/column range, so shared access is benign.
unsafe impl Sync for RawMat {}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_linalg::dpotrf;

    fn spd(n: usize, seed: u64) -> Mat {
        let mut rng = exa_util::Rng::seed_from_u64(seed);
        Mat::random_spd(n, &mut rng)
    }

    fn check(n: usize, workers: usize, pb: usize, seed: u64) {
        let a = spd(n, seed);
        let mut blocked = a.clone();
        block_potrf_with_panel(&mut blocked, workers, pb).unwrap();
        let mut reference = a.clone();
        dpotrf(n, reference.as_mut_slice(), n).unwrap();
        for j in 0..n {
            for i in j..n {
                let d = (blocked[(i, j)] - reference[(i, j)]).abs();
                assert!(
                    d < 1e-9 * reference[(i, j)].abs().max(1.0),
                    "n={n} w={workers} pb={pb} ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matches_reference_single_worker() {
        check(100, 1, 32, 1);
    }

    #[test]
    fn matches_reference_parallel() {
        check(200, 4, 64, 2);
        check(137, 3, 32, 3); // ragged panel edges
        check(64, 8, 128, 4); // panel wider than matrix
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        let a = spd(150, 5);
        let mut s = a.clone();
        block_potrf_with_panel(&mut s, 1, 48).unwrap();
        let mut p = a.clone();
        block_potrf_with_panel(&mut p, 6, 48).unwrap();
        // Same arithmetic per element regardless of thread count.
        for j in 0..150 {
            for i in j..150 {
                assert_eq!(s[(i, j)], p[(i, j)]);
            }
        }
    }

    #[test]
    fn detects_indefinite() {
        let mut a = Mat::eye(50);
        a[(30, 30)] = -1.0;
        let err = block_potrf(&mut a, 4).unwrap_err();
        assert_eq!(err, LinalgError::NotPositiveDefinite { index: 31 });
    }
}
