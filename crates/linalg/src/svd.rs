//! One-sided Jacobi singular value decomposition, preconditioned by a
//! column-pivoted QR.
//!
//! Robust, simple, and accurate for the tile-sized problems (`nb ≲ 1000`) that
//! TLR compression produces. TLR rounding runs it on the small `r × r` core of
//! a low-rank tile, and the compression tests use it on whole tiles as the
//! reference truth.
//!
//! The sweeps run on `Rᵀ` from `A·P = Q·R` rather than on `A` (Drmač &
//! Veselić's preconditioning), and carry each column's squared norm through
//! its rotations, so a pair visit costs one dot product instead of three.
//! On the TLR cores of an n = 2304 covariance this halves the sweep count
//! (about 11 to about 5) at the same truncation ranks.

use crate::blas1::{dot, nrm2};
use crate::gemm::{dgemm, Trans};
use crate::qr::{dgeqp3, dgeqrf, dorgqr};
use crate::LinalgError;

/// Result of a (possibly truncated) SVD: `A ≈ U · diag(s) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct SvdResult {
    /// Left singular vectors, `m × r`, column-major.
    pub u: Vec<f64>,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors, `n × r`, column-major (**not** transposed).
    pub v: Vec<f64>,
    pub m: usize,
    pub n: usize,
}

impl SvdResult {
    /// Rank (number of retained singular triplets).
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Reconstructs the dense `m × n` matrix `U diag(s) Vᵀ`.
    pub fn reconstruct(&self) -> Vec<f64> {
        let (m, n, r) = (self.m, self.n, self.rank());
        let mut out = vec![0.0; m * n];
        // out += U[:,k] s_k V[:,k]ᵀ accumulated per rank-1 term.
        for k in 0..r {
            let uk = &self.u[k * m..(k + 1) * m];
            let vk = &self.v[k * n..(k + 1) * n];
            let sk = self.s[k];
            for j in 0..n {
                let c = sk * vk[j];
                if c == 0.0 {
                    continue;
                }
                let col = &mut out[j * m..(j + 1) * m];
                for i in 0..m {
                    col[i] += uk[i] * c;
                }
            }
        }
        out
    }

    /// Truncates in place to the first `k` triplets.
    pub fn truncate(&mut self, k: usize) {
        let k = k.min(self.rank());
        self.u.truncate(k * self.m);
        self.v.truncate(k * self.n);
        self.s.truncate(k);
    }
}

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 60;

/// A carried squared column norm that falls below this fraction of its
/// value before the rotation is recomputed by a dot product.
const NORM_DRIFT: f64 = 1e-3;

/// Full SVD of the `m × n` column-major matrix `a` by QR-preconditioned
/// one-sided Jacobi.
///
/// Works for any shape (internally transposes when `m < n`). Returns all
/// `min(m, n)` singular triplets in descending order; `U` and `V` have
/// orthonormal columns, those of zero singular values included.
///
/// # Errors
///
/// [`LinalgError::NonFinite`] if `a` holds a NaN or an infinity, and
/// [`LinalgError::NoConvergence`] if the sweeps exhaust their budget.
pub fn jacobi_svd(m: usize, n: usize, a: &[f64], lda: usize) -> Result<SvdResult, LinalgError> {
    if m == 0 || n == 0 {
        return Ok(SvdResult {
            u: vec![],
            s: vec![],
            v: vec![],
            m,
            n,
        });
    }
    assert!(lda >= m, "lda too small");
    if (0..n).any(|j| a[j * lda..j * lda + m].iter().any(|x| !x.is_finite())) {
        return Err(LinalgError::NonFinite);
    }
    if m >= n {
        jacobi_tall(m, n, a, lda)
    } else {
        // SVD(Aᵀ) = V Σ Uᵀ: swap factors.
        let mut at = vec![0.0; n * m];
        for j in 0..n {
            for i in 0..m {
                at[j + i * n] = a[i + j * lda];
            }
        }
        let r = jacobi_tall(n, m, &at, n)?;
        Ok(SvdResult {
            u: r.v,
            s: r.s,
            v: r.u,
            m,
            n,
        })
    }
}

/// One-sided Jacobi on a tall (or square) matrix, preconditioned by a
/// column-pivoted QR (Drmač & Veselić, SIAM J. Matrix Anal. Appl. 29, 2008).
///
/// `A·P = Q·R`, then plane rotations orthogonalize the columns of the
/// lower-triangular `X = Rᵀ`, accumulating them into `V_x`: `X·V_x = W·Σ`.
/// Since `R = V_x·Σ·Wᵀ`, the SVD is `A = (Q·V_x)·Σ·(P·W)ᵀ`. Pivoting grades
/// the rows of `R`, so `X`'s columns start nearly orthogonal and the sweeps
/// converge in about half as many passes as on `A` itself.
fn jacobi_tall(m: usize, n: usize, a: &[f64], lda: usize) -> Result<SvdResult, LinalgError> {
    // A·P = Q·R.
    let mut q = vec![0.0f64; m * n];
    for j in 0..n {
        q[j * m..j * m + m].copy_from_slice(&a[j * lda..j * lda + m]);
    }
    let mut tau = vec![0.0f64; n];
    let mut perm = vec![0usize; n];
    dgeqp3(m, n, &mut q, m, &mut tau, &mut perm);
    let mut x = vec![0.0f64; n * n];
    for j in 0..n {
        for i in 0..=j {
            x[j + i * n] = q[i + j * m];
        }
    }
    dorgqr(m, n, n, &mut q, m, &tau);

    let mut vx = vec![0.0f64; n * n];
    for j in 0..n {
        vx[j + j * n] = 1.0;
    }
    jacobi_sweeps(n, &mut x, &mut vx)?;

    // Singular values are the column norms of X·V_x, sorted descending; W
    // its normalized columns, completed to an orthonormal basis where σ = 0.
    let norms: Vec<f64> = (0..n).map(|j| nrm2(&x[j * n..j * n + n])).collect();
    if norms.iter().any(|s| !s.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| norms[b].total_cmp(&norms[a]));
    let mut s = vec![0.0f64; n];
    let mut vx_sorted = vec![0.0f64; n * n];
    let mut w = vec![0.0f64; n * n];
    for (dst, &src) in order.iter().enumerate() {
        s[dst] = norms[src];
        vx_sorted[dst * n..dst * n + n].copy_from_slice(&vx[src * n..src * n + n]);
        if norms[src] > 0.0 {
            for (wi, &xi) in w[dst * n..dst * n + n]
                .iter_mut()
                .zip(&x[src * n..src * n + n])
            {
                *wi = xi / norms[src];
            }
        }
    }
    let nonzero = s.iter().take_while(|&&sv| sv > 0.0).count();
    if nonzero < n {
        complete_orthonormal(n, nonzero, &mut w);
    }
    // U = Q·V_x, V = P·W.
    let mut u = vec![0.0f64; m * n];
    dgemm(
        Trans::No,
        Trans::No,
        m,
        n,
        n,
        1.0,
        &q,
        m,
        &vx_sorted,
        n,
        0.0,
        &mut u,
        m,
    );
    let mut v = vec![0.0f64; n * n];
    for c in 0..n {
        for (i, &p) in perm.iter().enumerate() {
            v[p + c * n] = w[i + c * n];
        }
    }
    Ok(SvdResult { u, s, v, m, n })
}

/// Cyclic one-sided Jacobi on the `n × n` matrix `x`: rotates column pairs
/// until every pair is orthogonal to working precision, applying each
/// rotation to `v` as well.
///
/// The squared column norms are computed once per sweep and then carried
/// through each rotation exactly (`app −= t·apq`, `aqq += t·apq`), so a pair
/// visit costs one dot product. A carried norm that has lost most of its
/// value to that subtraction is recomputed. A sweep without a rotation ends
/// the loop; it has tested every pair against fresh norms.
fn jacobi_sweeps(n: usize, x: &mut [f64], v: &mut [f64]) -> Result<(), LinalgError> {
    let tol = f64::EPSILON * 8.0;
    let mut norms2 = vec![0.0f64; n];
    for _sweep in 0..MAX_SWEEPS {
        for (j, d) in norms2.iter_mut().enumerate() {
            let c = &x[j * n..j * n + n];
            *d = dot(c, c);
        }
        let mut rotated = false;
        for p in 0..n.saturating_sub(1) {
            for q in p + 1..n {
                let (app, aqq) = (norms2[p], norms2[q]);
                if app == 0.0 || aqq == 0.0 {
                    continue;
                }
                let (xp, xq) = two_cols(x, n, p, q);
                let apq = dot(xp, xq);
                if apq.abs() <= tol * (app * aqq).sqrt() {
                    continue;
                }
                rotated = true;
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(xp, xq, c, s);
                norms2[p] = app - t * apq;
                norms2[q] = aqq + t * apq;
                if norms2[p] < app * NORM_DRIFT {
                    norms2[p] = dot(xp, xp);
                }
                if norms2[q] < aqq * NORM_DRIFT {
                    norms2[q] = dot(xq, xq);
                }
                let (vp, vq) = two_cols(v, n, p, q);
                rotate(vp, vq, c, s);
            }
        }
        if !rotated {
            return Ok(());
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: MAX_SWEEPS,
    })
}

/// `[xp, xq] ← [c·xp − s·xq, s·xp + c·xq]`.
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) {
    for (a, b) in xp.iter_mut().zip(xq.iter_mut()) {
        let (wp, wq) = (*a, *b);
        *a = c * wp - s * wq;
        *b = s * wp + c * wq;
    }
}

/// Overwrites columns `k..n` of the `n × n` matrix `w`, whose first `k`
/// columns are orthonormal, with an orthonormal basis of their complement:
/// the trailing columns of the `Q` that a QR of the first `k` produces.
fn complete_orthonormal(n: usize, k: usize, w: &mut [f64]) {
    let mut h = w[..n * k].to_vec();
    h.resize(n * n, 0.0);
    let mut tau = vec![0.0f64; k];
    dgeqrf(n, k, &mut h, n, &mut tau);
    dorgqr(n, n, k, &mut h, n, &tau);
    w[n * k..].copy_from_slice(&h[n * k..]);
}

/// Disjoint mutable views of two distinct columns (`p < q`).
fn two_cols(buf: &mut [f64], rows: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let (head, tail) = buf.split_at_mut(q * rows);
    (&mut head[p * rows..p * rows + rows], &mut tail[..rows])
}

/// Number of singular values to keep under HiCMA's fixed-accuracy cut: the
/// smallest `k` with `s[k] ≤ eps` (all of them when none qualify, 0 for a
/// zero/empty spectrum).
///
/// The threshold is **absolute**, not relative to `σ₀`: that is what makes
/// far-field covariance tiles collapse to rank 0.
pub fn truncation_rank(s: &[f64], eps: f64) -> usize {
    if s.is_empty() || s[0] <= 0.0 {
        return 0;
    }
    s.iter().position(|&x| x <= eps).unwrap_or(s.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use crate::norms::{max_abs_diff, rel_fro_diff};
    use exa_util::Rng;

    fn assert_orthonormal(rows: usize, k: usize, q: &[f64], what: &str) {
        for a in 0..k {
            for b in a..k {
                let d = dot(&q[a * rows..(a + 1) * rows], &q[b * rows..(b + 1) * rows]);
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((d - want).abs() < 1e-12, "{what} gram ({a},{b}) = {d:e}");
            }
        }
    }

    fn check_svd(m: usize, n: usize, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Mat::gaussian(m, n, &mut rng);
        let svd = jacobi_svd(m, n, a.as_slice(), m).unwrap();
        assert_eq!(svd.rank(), m.min(n));
        // Reconstruction.
        let rec = svd.reconstruct();
        assert!(
            rel_fro_diff(&rec, a.as_slice()) < 1e-12,
            "m={m} n={n}: {}",
            rel_fro_diff(&rec, a.as_slice())
        );
        // Descending order.
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
        assert_orthonormal(m, svd.rank(), &svd.u, "U");
        assert_orthonormal(n, svd.rank(), &svd.v, "V");
    }

    /// `m × k` with orthonormal columns: the `Q` of a Gaussian matrix.
    fn random_orthonormal(m: usize, k: usize, rng: &mut Rng) -> Mat {
        let mut q = Mat::gaussian(m, k, rng);
        let mut tau = vec![0.0; k];
        dgeqrf(m, k, q.as_mut_slice(), m, &mut tau);
        dorgqr(m, k, k, q.as_mut_slice(), m, &tau);
        q
    }

    /// `A = Q₁·diag(s)·Q₂ᵀ` with random orthonormal `Q₁` (`m × k`) and `Q₂`
    /// (`n × k`), `k = s.len()`: a matrix whose singular values are known.
    fn with_spectrum(m: usize, n: usize, s: &[f64], seed: u64) -> Mat {
        let mut rng = Rng::seed_from_u64(seed);
        let k = s.len();
        let q1 = random_orthonormal(m, k, &mut rng);
        let q2 = random_orthonormal(n, k, &mut rng);
        Mat::from_fn(m, n, |i, j| {
            (0..k).map(|l| q1[(i, l)] * s[l] * q2[(j, l)]).sum()
        })
    }

    /// Tall, square and wide shapes; small enough for Miri under it.
    fn shapes() -> [(usize, usize); 3] {
        if cfg!(miri) {
            [(7, 4), (5, 5), (4, 7)]
        } else {
            [(40, 24), (24, 24), (24, 40)]
        }
    }

    /// `s_i = 10^(−decades·i/(k−1))`, graded from 1 down to `10^−decades`.
    fn graded(k: usize, decades: f64) -> Vec<f64> {
        (0..k)
            .map(|i| 10f64.powf(-decades * i as f64 / (k - 1) as f64))
            .collect()
    }

    /// SVD of `a`, checked against the spectrum `s` it was built with (to
    /// `tol` absolute), for order, orthonormal factors and reconstruction.
    fn check_against(m: usize, n: usize, a: &Mat, s: &[f64], tol: f64) -> SvdResult {
        let svd = jacobi_svd(m, n, a.as_slice(), m).unwrap();
        assert_eq!(svd.rank(), s.len());
        for (i, (&got, &want)) in svd.s.iter().zip(s).enumerate() {
            assert!(
                (got - want).abs() <= tol,
                "{m}×{n}: σ_{i} = {got:e}, built with {want:e}"
            );
        }
        assert!(svd.s.windows(2).all(|w| w[0] >= w[1]), "{m}×{n}: order");
        assert_orthonormal(m, svd.rank(), &svd.u, "U");
        assert_orthonormal(n, svd.rank(), &svd.v, "V");
        let err = max_abs_diff(&svd.reconstruct(), a.as_slice());
        assert!(
            err <= 1e-13 * s[0].max(1.0),
            "{m}×{n}: reconstruction {err:e}"
        );
        svd
    }

    #[test]
    fn graded_spectrum_is_recovered_to_absolute_accuracy() {
        for (seed, (m, n)) in shapes().into_iter().enumerate() {
            let s = graded(m.min(n), 14.0);
            let a = with_spectrum(m, n, &s, 20 + seed as u64);
            check_against(m, n, &a, &s, 1e-12 * s[0]);
        }
    }

    #[test]
    fn repeated_singular_values() {
        for (seed, (m, n)) in shapes().into_iter().enumerate() {
            let k = m.min(n);
            let s: Vec<f64> = (0..k).map(|i| [3.0, 1.0, 0.25][3 * i / k]).collect();
            let a = with_spectrum(m, n, &s, 30 + seed as u64);
            check_against(m, n, &a, &s, 1e-13);
        }
    }

    #[test]
    fn rank_deficient_spectrum_has_a_negligible_tail() {
        for (seed, (m, n)) in shapes().into_iter().enumerate() {
            let k = m.min(n);
            let s: Vec<f64> = graded(k, 3.0)
                .into_iter()
                .enumerate()
                .map(|(i, x)| if i < k / 2 { x } else { 0.0 })
                .collect();
            let a = with_spectrum(m, n, &s, 40 + seed as u64);
            check_against(m, n, &a, &s, 1e-14);
        }
    }

    #[test]
    fn zero_columns_give_exact_zeros_with_orthonormal_vectors() {
        // Columns 1 and 3 are zero, so R has two zero rows and the two zero
        // singular values take the completed basis.
        let (m, n) = (6, 4);
        let mut rng = Rng::seed_from_u64(50);
        let g = Mat::gaussian(m, n, &mut rng);
        let a = Mat::from_fn(m, n, |i, j| if j % 2 == 1 { 0.0 } else { g[(i, j)] });
        for (rows, cols, b) in [(m, n, a.clone()), (n, m, a.transposed())] {
            let svd = jacobi_svd(rows, cols, b.as_slice(), rows).unwrap();
            assert!(svd.s[1] > 0.0);
            assert_eq!(&svd.s[2..], &[0.0, 0.0]);
            assert_orthonormal(rows, 4, &svd.u, "U");
            assert_orthonormal(cols, 4, &svd.v, "V");
            assert!(max_abs_diff(&svd.reconstruct(), b.as_slice()) < 1e-14);
        }
    }

    #[test]
    fn zero_matrix_has_zero_spectrum_and_orthonormal_vectors() {
        for (m, n) in shapes() {
            let z = vec![0.0; m * n];
            let svd = jacobi_svd(m, n, &z, m).unwrap();
            assert!(svd.s.iter().all(|&x| x == 0.0));
            assert_orthonormal(m, m.min(n), &svd.u, "U");
            assert_orthonormal(n, m.min(n), &svd.v, "V");
        }
    }

    #[test]
    fn single_column_and_single_row() {
        let mut rng = Rng::seed_from_u64(60);
        let x = Mat::gaussian(9, 1, &mut rng);
        let norm = nrm2(x.as_slice());
        for (m, n) in [(9, 1), (1, 9)] {
            let svd = jacobi_svd(m, n, x.as_slice(), m).unwrap();
            assert_eq!(svd.rank(), 1);
            assert!((svd.s[0] - norm).abs() < 1e-14 * norm);
            assert!(max_abs_diff(&svd.reconstruct(), x.as_slice()) < 1e-14);
            assert_orthonormal(m, 1, &svd.u, "U");
            assert_orthonormal(n, 1, &svd.v, "V");
        }
        let one = jacobi_svd(1, 1, &[-2.5], 1).unwrap();
        assert_eq!(one.s, [2.5]);
        assert_eq!(one.u[0] * one.v[0], -1.0);
    }

    #[test]
    fn truncation_rank_cuts_between_known_singular_values() {
        for (seed, (m, n)) in shapes().into_iter().enumerate() {
            let s = graded(m.min(n), 12.0);
            let a = with_spectrum(m, n, &s, 70 + seed as u64);
            let svd = jacobi_svd(m, n, a.as_slice(), m).unwrap();
            for i in 1..s.len() {
                // The geometric midpoint keeps exactly the first i.
                let cut = (s[i - 1] * s[i]).sqrt();
                assert_eq!(truncation_rank(&svd.s, cut), i, "{m}×{n}: cut {cut:e}");
            }
        }
    }

    #[test]
    fn non_finite_input_is_an_error() {
        for (m, n) in shapes() {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, m * n - 1] {
                    let mut a = Mat::gaussian(m, n, &mut Rng::seed_from_u64(80));
                    a.as_mut_slice()[at] = bad;
                    let got = jacobi_svd(m, n, a.as_slice(), m);
                    assert_eq!(got.unwrap_err(), LinalgError::NonFinite, "{m}×{n} {bad}");
                }
            }
        }
        // Rows past `m` under a larger `lda` are not part of the matrix.
        let mut padded = vec![f64::NAN; 4 * 3];
        for j in 0..3 {
            padded[j * 4..j * 4 + 3].copy_from_slice(&[1.0, 2.0, j as f64]);
        }
        assert!(jacobi_svd(3, 3, &padded, 4).is_ok());
    }

    #[test]
    fn svd_various_shapes() {
        check_svd(6, 6, 1);
        check_svd(20, 7, 2);
        check_svd(7, 20, 3);
        check_svd(1, 5, 4);
        check_svd(33, 32, 5);
    }

    #[test]
    fn singular_values_of_diagonal_matrix() {
        let n = 4;
        let mut a = Mat::zeros(n, n);
        let d = [4.0, 1.0, 3.0, 2.0];
        for i in 0..n {
            a[(i, i)] = d[i];
        }
        let svd = jacobi_svd(n, n, a.as_slice(), n).unwrap();
        let expected = [4.0, 3.0, 2.0, 1.0];
        for (got, want) in svd.s.iter().zip(expected) {
            assert!((got - want).abs() < 1e-13);
        }
    }

    #[test]
    fn rank_deficient_matrix_has_zero_tail() {
        // Rank-2 via outer products.
        let m = 10;
        let n = 8;
        let mut rng = Rng::seed_from_u64(6);
        let x1 = Mat::gaussian(m, 1, &mut rng);
        let y1 = Mat::gaussian(n, 1, &mut rng);
        let x2 = Mat::gaussian(m, 1, &mut rng);
        let y2 = Mat::gaussian(n, 1, &mut rng);
        let a = Mat::from_fn(m, n, |i, j| {
            x1.as_slice()[i] * y1.as_slice()[j] + x2.as_slice()[i] * y2.as_slice()[j]
        });
        let svd = jacobi_svd(m, n, a.as_slice(), m).unwrap();
        assert!(svd.s[1] > 1e-10);
        for &sv in &svd.s[2..] {
            assert!(sv < 1e-10 * svd.s[0], "tail sv {sv}");
        }
    }

    #[test]
    fn truncation_rank_thresholds() {
        let s = [10.0, 5.0, 1.0, 1e-8];
        assert_eq!(truncation_rank(&s, 1e-12), 4);
        assert_eq!(truncation_rank(&s, 1e-6), 3);
        assert_eq!(truncation_rank(&s, 2.0), 2);
        assert_eq!(truncation_rank(&s, 9.0), 1);
        // Absolute, not relative to σ₀: a cut above σ₀ keeps nothing.
        assert_eq!(truncation_rank(&s, 10.0), 0);
        assert_eq!(truncation_rank(&[0.0, 0.0], 1e-9), 0);
        assert_eq!(truncation_rank(&[], 0.5), 0);
    }

    #[test]
    fn empty_matrix() {
        let r = jacobi_svd(0, 0, &[], 1).unwrap();
        assert_eq!(r.rank(), 0);
    }
}
