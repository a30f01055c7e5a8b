//! Low-rank tile arithmetic: the TLR Cholesky update kernels.
//!
//! HiCMA's TLR POTRF is built from four tile kernels (§V, and Akbudak et al.
//! ISC'17); the three low-rank ones live here:
//!
//! * [`lr_trsm`] — `A_ik ← A_ik · L_kk⁻ᵀ`, which only touches the `V` factor
//!   (`U (Vᵀ L⁻ᵀ) = U (L⁻¹V)ᵀ`), keeping the rank unchanged.
//! * [`lr_syrk`] — `D_j ← D_j − A_jk A_jkᵀ` on the dense diagonal tile, via
//!   the small Gram matrix `W = VᵀV`.
//! * [`lr_gemm`] — `C_ij ← C_ij − A_ik A_jkᵀ`, which concatenates factors and
//!   then rounds the rank back down with [`recompress`] (QR of both factors +
//!   a small SVD at the same accuracy threshold).

use crate::lr::LrTile;
use exa_linalg::{
    dgemm, dgeqrf, dorgqr, dtrsm, jacobi_svd, truncation_rank, LinalgError, Side, Trans,
};

/// `A ← A · L⁻ᵀ` for a low-rank tile and the dense Cholesky factor `L`
/// (`lkk`: `cols × cols` lower triangular, leading dimension `ldl`).
pub fn lr_trsm(lkk: &[f64], ldl: usize, a: &mut LrTile) {
    if a.rank() == 0 {
        return;
    }
    // V ← L⁻¹ V.
    dtrsm(
        Side::Left,
        Trans::No,
        a.cols,
        a.rank(),
        1.0,
        lkk,
        ldl,
        &mut a.v,
        a.cols,
    );
}

/// `D ← D − A Aᵀ` where `A = U Vᵀ` is low-rank and `D` is the dense
/// `rows × rows` diagonal tile (leading dimension `ldd`).
///
/// Uses the Gram trick: `A Aᵀ = U (VᵀV) Uᵀ`, costing `O(nb²k)` instead of
/// `O(nb³)`.
pub fn lr_syrk(a: &LrTile, d: &mut [f64], ldd: usize) {
    let k = a.rank();
    if k == 0 {
        return;
    }
    let m = a.rows;
    // W = VᵀV (k × k).
    let mut w = vec![0.0; k * k];
    dgemm(
        Trans::Yes,
        Trans::No,
        k,
        k,
        a.cols,
        1.0,
        &a.v,
        a.cols,
        &a.v,
        a.cols,
        0.0,
        &mut w,
        k,
    );
    // T = U W (m × k).
    let mut t = vec![0.0; m * k];
    dgemm(
        Trans::No,
        Trans::No,
        m,
        k,
        k,
        1.0,
        &a.u,
        m,
        &w,
        k,
        0.0,
        &mut t,
        m,
    );
    // D ← D − T Uᵀ.
    dgemm(
        Trans::No,
        Trans::Yes,
        m,
        m,
        k,
        -1.0,
        &t,
        m,
        &a.u,
        m,
        1.0,
        d,
        ldd,
    );
}

/// `C ← C − A Bᵀ` for three low-rank tiles, rounding `C` back to accuracy
/// `eps` afterwards.
///
/// The product `A Bᵀ = U_a (V_aᵀ V_b) U_bᵀ` is itself low rank; whichever of
/// `rank(A)`/`rank(B)` is smaller determines the added rank. The result is
/// appended to `C`'s factors and [`recompress`] rounds the concatenation.
pub fn lr_gemm(c: &mut LrTile, a: &LrTile, b: &LrTile, eps: f64) -> Result<(), LinalgError> {
    let (ka, kb) = (a.rank(), b.rank());
    if ka == 0 || kb == 0 {
        return Ok(());
    }
    debug_assert_eq!(a.cols, b.cols, "inner (compressed) dimension mismatch");
    debug_assert_eq!(c.rows, a.rows);
    debug_assert_eq!(c.cols, b.rows);
    // W = V_aᵀ V_b (ka × kb).
    let mut w = vec![0.0; ka * kb];
    dgemm(
        Trans::Yes,
        Trans::No,
        ka,
        kb,
        a.cols,
        1.0,
        &a.v,
        a.cols,
        &b.v,
        b.cols,
        0.0,
        &mut w,
        ka,
    );
    let kc = c.rank();
    // Append the product with the smaller added rank:
    //   ka ≤ kb: (−U_a) · (U_b Wᵀ)ᵀ  adds rank ka;
    //   else:    (−U_a W) · U_bᵀ     adds rank kb.
    let add = ka.min(kb);
    let mut u_new = Vec::with_capacity(c.rows * (kc + add));
    let mut v_new = Vec::with_capacity(c.cols * (kc + add));
    u_new.extend_from_slice(&c.u);
    v_new.extend_from_slice(&c.v);
    if ka <= kb {
        u_new.extend(a.u.iter().map(|x| -x));
        let mut vb = vec![0.0; b.rows * ka];
        dgemm(
            Trans::No,
            Trans::Yes,
            b.rows,
            ka,
            kb,
            1.0,
            &b.u,
            b.rows,
            &w,
            ka,
            0.0,
            &mut vb,
            b.rows,
        );
        v_new.extend_from_slice(&vb);
    } else {
        let mut ua = vec![0.0; a.rows * kb];
        dgemm(
            Trans::No,
            Trans::No,
            a.rows,
            kb,
            ka,
            -1.0,
            &a.u,
            a.rows,
            &w,
            ka,
            0.0,
            &mut ua,
            a.rows,
        );
        u_new.extend_from_slice(&ua);
        v_new.extend_from_slice(&b.u);
    }
    c.set_factors(kc + add, u_new, v_new);
    recompress(c, eps)
}

/// Rounds a low-rank tile down to the smallest rank meeting the absolute
/// accuracy `eps` (same fixed-accuracy semantics as the compressors). It is
/// also the last step of [`crate::aca`], so no compressed tile is stored at
/// more than the rank it needs.
///
/// QR-factors both skinny sides, then SVD-truncates the small `r × r` core:
/// `U Vᵀ = Q_u (R_u R_vᵀ) Q_vᵀ`. The core SVD is
/// [`exa_linalg::jacobi_svd`], one-sided Jacobi on a column-pivoted QR
/// factor of the core. Falls back to a dense SVD when the current rank is no
/// longer "skinny" (`r ≥ min(m,n)`), which can happen after many
/// concatenations.
///
/// A NaN or an infinity in either factor is [`LinalgError::NonFinite`]
/// (checked up front: the core product skips zero entries, so it could
/// drop a NaN that meets only zeros).
pub fn recompress(t: &mut LrTile, eps: f64) -> Result<(), LinalgError> {
    let r = t.rank();
    if r == 0 {
        return Ok(());
    }
    if t.u.iter().chain(&t.v).any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    let (m, n) = (t.rows, t.cols);
    if r >= m.min(n) {
        // Dense fallback: materialize and re-compress exactly.
        let dense = t.to_dense();
        let mut svd = jacobi_svd(m, n, &dense, m)?;
        let k = truncation_rank(&svd.s, eps);
        svd.truncate(k);
        *t = LrTile::from_svd(&svd);
        return Ok(());
    }
    // QR of U: U = Q_u R_u.
    let mut qu = t.u.clone();
    let mut tau_u = vec![0.0; r];
    dgeqrf(m, r, &mut qu, m, &mut tau_u);
    let mut ru = vec![0.0; r * r];
    for j in 0..r {
        for i in 0..=j {
            ru[i + j * r] = qu[i + j * m];
        }
    }
    dorgqr(m, r, r, &mut qu, m, &tau_u);
    // QR of V: V = Q_v R_v.
    let mut qv = t.v.clone();
    let mut tau_v = vec![0.0; r];
    dgeqrf(n, r, &mut qv, n, &mut tau_v);
    let mut rv = vec![0.0; r * r];
    for j in 0..r {
        for i in 0..=j {
            rv[i + j * r] = qv[i + j * n];
        }
    }
    dorgqr(n, r, r, &mut qv, n, &tau_v);
    // Core = R_u R_vᵀ (r × r), SVD + truncate.
    let mut core = vec![0.0; r * r];
    dgemm(
        Trans::No,
        Trans::Yes,
        r,
        r,
        r,
        1.0,
        &ru,
        r,
        &rv,
        r,
        0.0,
        &mut core,
        r,
    );
    let mut svd = jacobi_svd(r, r, &core, r)?;
    let k = truncation_rank(&svd.s, eps);
    svd.truncate(k);
    if k == 0 {
        *t = LrTile::zero(m, n);
        return Ok(());
    }
    // U ← Q_u (u_core · diag(s)), V ← Q_v v_core.
    let mut us = svd.u.clone();
    for (c, &s) in svd.s.iter().enumerate() {
        for x in us[c * r..(c + 1) * r].iter_mut() {
            *x *= s;
        }
    }
    let mut u_new = vec![0.0; m * k];
    dgemm(
        Trans::No,
        Trans::No,
        m,
        k,
        r,
        1.0,
        &qu,
        m,
        &us,
        r,
        0.0,
        &mut u_new,
        m,
    );
    let mut v_new = vec![0.0; n * k];
    dgemm(
        Trans::No,
        Trans::No,
        n,
        k,
        r,
        1.0,
        &qv,
        n,
        &svd.v,
        r,
        0.0,
        &mut v_new,
        n,
    );
    t.set_factors(k, u_new, v_new);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_linalg::{dpotrf, frobenius_norm, Mat};
    use exa_util::Rng;

    fn lr_random(m: usize, n: usize, k: usize, seed: u64) -> LrTile {
        let mut rng = Rng::seed_from_u64(seed);
        let u = Mat::gaussian(m, k, &mut rng);
        let v = Mat::gaussian(n, k, &mut rng);
        LrTile::from_factors(m, n, k, u.as_slice().to_vec(), v.as_slice().to_vec())
    }

    fn dense_of(t: &LrTile) -> Mat {
        Mat::from_vec(t.rows, t.cols, t.to_dense())
    }

    fn rel_diff(a: &Mat, b: &Mat) -> f64 {
        let mut d = vec![0.0; a.as_slice().len()];
        for (x, (p, q)) in d.iter_mut().zip(a.as_slice().iter().zip(b.as_slice())) {
            *x = p - q;
        }
        frobenius_norm(a.nrows(), a.ncols(), &d, a.nrows())
            / frobenius_norm(a.nrows(), a.ncols(), a.as_slice(), a.nrows()).max(1e-300)
    }

    #[test]
    fn trsm_matches_dense() {
        let mut rng = Rng::seed_from_u64(1);
        let nb = 12;
        let mut l = Mat::random_spd(nb, &mut rng);
        dpotrf(nb, l.as_mut_slice(), nb).unwrap();
        l.zero_strict_upper();
        let mut a = lr_random(10, nb, 3, 2);
        let a_dense = dense_of(&a);
        lr_trsm(l.as_slice(), nb, &mut a);
        // Reference: X = A · L⁻ᵀ densely.
        let mut x_ref = a_dense.clone();
        dtrsm(
            Side::Right,
            Trans::Yes,
            10,
            nb,
            1.0,
            l.as_slice(),
            nb,
            x_ref.as_mut_slice(),
            10,
        );
        assert!(rel_diff(&dense_of(&a), &x_ref) < 1e-12);
        assert_eq!(a.rank(), 3, "TRSM must not change the rank");
    }

    #[test]
    fn syrk_matches_dense() {
        let a = lr_random(9, 7, 2, 3);
        let mut rng = Rng::seed_from_u64(4);
        let d0 = Mat::random_spd(9, &mut rng);
        let mut d = d0.clone();
        lr_syrk(&a, d.as_mut_slice(), 9);
        let ad = dense_of(&a);
        let want = {
            let mut w = d0.clone();
            let p = ad.matmul(&ad.transposed());
            for (x, y) in w.as_mut_slice().iter_mut().zip(p.as_slice()) {
                *x -= y;
            }
            w
        };
        assert!(rel_diff(&d, &want) < 1e-12);
    }

    #[test]
    fn gemm_matches_dense_and_rounds_rank() {
        let mut c = lr_random(14, 12, 3, 5);
        let a = lr_random(14, 10, 2, 6);
        let b = lr_random(12, 10, 4, 7);
        let want = {
            let mut w = dense_of(&c);
            let p = dense_of(&a).matmul(&dense_of(&b).transposed());
            for (x, y) in w.as_mut_slice().iter_mut().zip(p.as_slice()) {
                *x -= y;
            }
            w
        };
        lr_gemm(&mut c, &a, &b, 1e-12).unwrap();
        assert!(rel_diff(&dense_of(&c), &want) < 1e-10);
        // Concatenated rank is 3 + min(2,4) = 5; exact value after rounding
        // stays ≤ 5 and the recompression must not have grown it.
        assert!(c.rank() <= 5);
    }

    #[test]
    fn gemm_with_rank_zero_inputs_is_noop() {
        let mut c = lr_random(8, 8, 2, 8);
        let before = dense_of(&c);
        let z = LrTile::zero(8, 5);
        let b = lr_random(8, 5, 2, 9);
        lr_gemm(&mut c, &z, &b, 1e-9).unwrap();
        lr_gemm(&mut c, &b, &z, 1e-9).unwrap();
        assert_eq!(dense_of(&c).as_slice(), before.as_slice());
    }

    #[test]
    fn recompress_reduces_redundant_rank() {
        // Build a rank-2 matrix stored with rank 6 (duplicated columns).
        let base = lr_random(10, 8, 2, 10);
        let mut u = base.u.clone();
        let mut v = base.v.clone();
        u.extend_from_slice(&base.u);
        v.extend_from_slice(&base.v);
        u.extend_from_slice(&base.u);
        v.extend_from_slice(&base.v);
        // Thirds must cancel: scale the third copy by -1 on U.
        for x in u[10 * 4..].iter_mut() {
            *x = -*x;
        }
        let mut t = LrTile::from_factors(10, 8, 6, u, v);
        let want = dense_of(&t);
        recompress(&mut t, 1e-12).unwrap();
        assert!(t.rank() <= 2, "rank {} after recompression", t.rank());
        assert!(rel_diff(&dense_of(&t), &want) < 1e-10);
    }

    #[test]
    fn recompress_dense_fallback_when_overfull() {
        // rank == min(m, n): falls back to a dense SVD.
        let t0 = lr_random(6, 9, 6, 11);
        let want = dense_of(&t0);
        let mut t = t0.clone();
        recompress(&mut t, 1e-13).unwrap();
        assert!(t.rank() <= 6);
        assert!(rel_diff(&dense_of(&t), &want) < 1e-10);
    }

    #[test]
    fn recompress_rejects_non_finite_factors() {
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            // Skinny (core SVD) and overfull (dense fallback) tiles.
            for (m, n, k) in [(10, 8, 3), (6, 9, 6)] {
                let mut t = lr_random(m, n, k, 13);
                t.v[2] = bad;
                assert_eq!(recompress(&mut t, 1e-9), Err(LinalgError::NonFinite));
            }
            // A NaN that the core product would meet only with zeros.
            let mut u = vec![0.0; 10 * 2];
            u[0] = bad;
            let mut t = LrTile::from_factors(10, 8, 2, u, vec![0.0; 8 * 2]);
            assert_eq!(recompress(&mut t, 1e-9), Err(LinalgError::NonFinite));
        }
    }

    #[test]
    fn recompress_annihilates_cancelling_sum() {
        let base = lr_random(7, 7, 3, 12);
        let mut u = base.u.clone();
        u.extend(base.u.iter().map(|x| -x));
        let mut v = base.v.clone();
        v.extend_from_slice(&base.v);
        let mut t = LrTile::from_factors(7, 7, 6, u, v);
        recompress(&mut t, 1e-10).unwrap();
        assert_eq!(t.rank(), 0, "U Vᵀ − U Vᵀ must round to zero");
    }
}
