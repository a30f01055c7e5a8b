//! Householder QR factorization (`dgeqrf`), its column-pivoted form
//! (`dgeqp3`), and explicit-Q formation (`dorgqr`), LAPACK-style.
//!
//! Used by the TLR recompression step: rounding the sum of two low-rank terms
//! requires QR factors of the stacked `U`/`V` blocks (tall-skinny matrices, so
//! the unblocked algorithm is the right tool). The pivoted form is the
//! preconditioner of the Jacobi SVD ([`crate::jacobi_svd`]) that truncates
//! the rounding's small core.

use crate::blas1::nrm2;
use crate::gemm::{gemv, ger, Trans};

/// Householder QR: factors the `m × n` matrix `A` (column-major, leading
/// dimension `lda`) as `A = Q·R`.
///
/// On return the upper triangle of `A` holds `R`; the columns below the
/// diagonal hold the Householder vectors `v_j` (with implicit unit leading
/// entry) and `tau[j]` their scalar factors, exactly like LAPACK `dgeqrf`.
pub fn dgeqrf(m: usize, n: usize, a: &mut [f64], lda: usize, tau: &mut [f64]) {
    assert!(lda >= m.max(1), "lda too small");
    let k = m.min(n);
    assert!(tau.len() >= k, "tau too small");
    if n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "buffer too small");
    }
    let mut work = vec![0.0f64; n];
    for (j, tau_slot) in tau.iter_mut().enumerate().take(k) {
        // Generate the reflector annihilating A[j+1.., j].
        let tau_j = larfg(m - j, a, lda, j);
        *tau_slot = tau_j;
        if tau_j != 0.0 && j + 1 < n {
            // Apply H = I - tau v vᵀ to A[j.., j+1..].
            apply_reflector_left(m - j, n - j - 1, a, lda, j, tau_j, &mut work);
        }
    }
}

/// Householder QR with column pivoting (LAPACK `dgeqp3`, unblocked like
/// `dlaqp2`): factors `A·P = Q·R` with `|R[0,0]| ≥ |R[1,1]| ≥ …`.
///
/// Step `j` swaps the remaining column of largest norm into place before
/// generating its reflector. The remaining columns' norms are then
/// downdated (`‖a_l‖² −= R[j,l]²`) and recomputed from scratch once
/// cancellation has eaten most of them. On return `A` and `tau` hold `R` and
/// the reflectors exactly as after [`dgeqrf`], and `jpvt[j]` is the index in
/// the input of column `j` of `A·P`.
pub(crate) fn dgeqp3(
    m: usize,
    n: usize,
    a: &mut [f64],
    lda: usize,
    tau: &mut [f64],
    jpvt: &mut [usize],
) {
    assert!(lda >= m.max(1), "lda too small");
    let k = m.min(n);
    assert!(tau.len() >= k, "tau too small");
    assert!(jpvt.len() >= n, "jpvt too small");
    if n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "buffer too small");
    }
    for (j, p) in jpvt.iter_mut().enumerate().take(n) {
        *p = j;
    }
    // vn1: current norms of the trailing parts; vn2: their last exact values.
    let mut vn1: Vec<f64> = (0..n).map(|j| nrm2(&a[j * lda..j * lda + m])).collect();
    let mut vn2 = vn1.clone();
    let tol3z = f64::EPSILON.sqrt();
    let mut work = vec![0.0f64; n];
    for j in 0..k {
        // `>` keeps the first of equal norms and never selects a NaN.
        let mut p = j;
        for l in j + 1..n {
            if vn1[l] > vn1[p] {
                p = l;
            }
        }
        if p != j {
            for i in 0..m {
                a.swap(i + p * lda, i + j * lda);
            }
            jpvt.swap(p, j);
            vn1[p] = vn1[j];
            vn2[p] = vn2[j];
        }
        let tau_j = larfg(m - j, a, lda, j);
        tau[j] = tau_j;
        if tau_j != 0.0 && j + 1 < n {
            apply_reflector_left(m - j, n - j - 1, a, lda, j, tau_j, &mut work);
        }
        for l in j + 1..n {
            if vn1[l] == 0.0 {
                continue;
            }
            let r = a[j + l * lda].abs() / vn1[l];
            let left = (1.0 - r * r).max(0.0);
            let drift = vn1[l] / vn2[l];
            if left * drift * drift <= tol3z {
                vn1[l] = nrm2(&a[l * lda + j + 1..l * lda + m]);
                vn2[l] = vn1[l];
            } else {
                vn1[l] *= left.sqrt();
            }
        }
    }
}

/// Generates a Householder reflector for the vector `A[j.., j]`.
///
/// Overwrites `A[j, j]` with `beta` (the resulting R diagonal) and
/// `A[j+1.., j]` with the normalized reflector tail; returns `tau`.
fn larfg(len: usize, a: &mut [f64], lda: usize, j: usize) -> f64 {
    let col = j * lda + j;
    if len <= 1 {
        return 0.0;
    }
    let alpha = a[col];
    let xnorm = nrm2(&a[col + 1..col + len]);
    if xnorm == 0.0 {
        return 0.0;
    }
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in a[col + 1..col + len].iter_mut() {
        *v *= scale;
    }
    a[col] = beta;
    tau
}

/// Applies `H = I − tau·v·vᵀ` (reflector stored in column `j`, rows `j..`) to
/// the trailing block `A[j.., j+1..j+1+ncols]`.
fn apply_reflector_left(
    rows: usize,
    ncols: usize,
    a: &mut [f64],
    lda: usize,
    j: usize,
    tau: f64,
    work: &mut [f64],
) {
    // v = [1, A[j+1.., j]]; w = C ᵀ v; C -= tau v wᵀ, where C = A[j.., j+1..].
    let vcol = j * lda + j;
    // Temporarily set the implicit 1.
    let saved = a[vcol];
    a[vcol] = 1.0;
    {
        // Split borrows: v is in column j, C starts at column j+1.
        let (vpart, cpart) = a.split_at_mut((j + 1) * lda);
        let v = &vpart[vcol..vcol + rows];
        let c = &mut cpart[j..];
        let w = &mut work[..ncols];
        gemv(Trans::Yes, rows, ncols, 1.0, c, lda, v, 0.0, w);
        ger(rows, ncols, -tau, v, w, c, lda);
    }
    a[vcol] = saved;
}

/// Forms the leading `m × n` block of `Q` from the reflectors produced by
/// [`dgeqrf`] (`k` reflectors, `n ≥ k`), like LAPACK `dorg2r`.
pub fn dorgqr(m: usize, n: usize, k: usize, a: &mut [f64], lda: usize, tau: &[f64]) {
    assert!(n <= m, "Q block must be tall (n <= m)");
    assert!(k <= n, "more reflectors than columns");
    assert!(lda >= m.max(1));
    let mut work = vec![0.0f64; n];
    // Columns k..n start as unit vectors.
    for j in k..n {
        for i in 0..m {
            a[i + j * lda] = 0.0;
        }
        a[j + j * lda] = 1.0;
    }
    for j in (0..k).rev() {
        let tau_j = tau[j];
        // Apply H_j to columns j+1..n of the partially formed Q.
        if j + 1 < n && tau_j != 0.0 {
            apply_reflector_left(m - j, n - j - 1, a, lda, j, tau_j, &mut work);
        }
        // Form column j of Q: -tau * v with 1 - tau at the diagonal.
        if tau_j != 0.0 {
            for i in j + 1..m {
                a[i + j * lda] *= -tau_j;
            }
            a[j + j * lda] = 1.0 - tau_j;
        } else {
            for i in j + 1..m {
                a[i + j * lda] = 0.0;
            }
            a[j + j * lda] = 1.0;
        }
        // Zero above the diagonal.
        for i in 0..j {
            a[i + j * lda] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::dgemm;
    use crate::mat::Mat;
    use crate::norms::{frobenius_norm, max_abs_diff, rel_fro_diff};
    use exa_util::Rng;

    fn qr_roundtrip(m: usize, n: usize, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let a0 = Mat::gaussian(m, n, &mut rng);
        let mut a = a0.clone();
        let k = m.min(n);
        let mut tau = vec![0.0; k];
        dgeqrf(m, n, a.as_mut_slice(), m, &mut tau);
        // Extract R (k × n upper trapezoid).
        let mut r = Mat::zeros(k, n);
        for j in 0..n {
            for i in 0..=j.min(k - 1) {
                r[(i, j)] = a[(i, j)];
            }
        }
        // Form Q (m × k) and check A ≈ Q R.
        let mut q = a.clone();
        dorgqr(m, k, k, q.as_mut_slice(), m, &tau);
        let mut rec = Mat::zeros(m, n);
        dgemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            q.as_slice(),
            m,
            r.as_slice(),
            k,
            0.0,
            rec.as_mut_slice(),
            m,
        );
        assert!(
            rel_fro_diff(rec.as_slice(), a0.as_slice()) < 1e-13,
            "m={m} n={n}"
        );
        // Q must be orthonormal: QᵀQ = I.
        let mut qtq = Mat::zeros(k, k);
        dgemm(
            Trans::Yes,
            Trans::No,
            k,
            k,
            m,
            1.0,
            q.as_slice(),
            m,
            q.as_slice(),
            m,
            0.0,
            qtq.as_mut_slice(),
            k,
        );
        assert!(max_abs_diff(qtq.as_slice(), Mat::eye(k).as_slice()) < 1e-13);
    }

    #[test]
    fn roundtrip_various_shapes() {
        qr_roundtrip(8, 8, 1);
        qr_roundtrip(20, 5, 2); // tall-skinny (the TLR recompression shape)
        qr_roundtrip(64, 17, 3);
        qr_roundtrip(5, 8, 4); // wide
        qr_roundtrip(1, 1, 5);
    }

    /// Checks `A·P = Q·R`, `QᵀQ = I` and `|R_00| ≥ |R_11| ≥ …` for
    /// [`dgeqp3`]; returns `R`'s diagonal magnitudes.
    fn pivoted_qr_invariants(a0: &Mat) -> Vec<f64> {
        let (m, n) = (a0.nrows(), a0.ncols());
        let k = m.min(n);
        let mut a = a0.clone();
        let mut tau = vec![0.0; k];
        let mut jpvt = vec![0; n];
        dgeqp3(m, n, a.as_mut_slice(), m, &mut tau, &mut jpvt);
        let mut sorted = jpvt.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "jpvt is a permutation");
        let r = Mat::from_fn(k, n, |i, j| if i <= j { a[(i, j)] } else { 0.0 });
        let diag: Vec<f64> = (0..k).map(|i| r[(i, i)].abs()).collect();
        assert!(
            diag.windows(2).all(|w| w[0] >= w[1]),
            "{m}×{n}: |R_ii| not non-increasing: {diag:?}"
        );
        let mut q = a.clone();
        dorgqr(m, k, k, q.as_mut_slice(), m, &tau);
        let q = Mat::from_fn(m, k, |i, j| q[(i, j)]);
        let qr = q.matmul(&r);
        let ap = Mat::from_fn(m, n, |i, j| a0[(i, jpvt[j])]);
        let scale = frobenius_norm(m, n, a0.as_slice(), m).max(1.0);
        assert!(
            max_abs_diff(qr.as_slice(), ap.as_slice()) < 1e-13 * scale,
            "{m}×{n}: A·P ≠ Q·R"
        );
        let qtq = q.transposed().matmul(&q);
        assert!(max_abs_diff(qtq.as_slice(), Mat::eye(k).as_slice()) < 1e-13);
        diag
    }

    #[test]
    fn pivoted_qr_factors_a_permutation_with_graded_diagonal() {
        let shapes = if cfg!(miri) {
            [(7, 4), (5, 5), (4, 7)]
        } else {
            [(30, 17), (17, 17), (12, 20)]
        };
        for (seed, (m, n)) in shapes.into_iter().enumerate() {
            let mut rng = Rng::seed_from_u64(10 + seed as u64);
            // Columns scaled over six decades, so pivoting has work to do.
            let g = Mat::gaussian(m, n, &mut rng);
            let a = Mat::from_fn(m, n, |i, j| g[(i, j)] * 10f64.powi((j % 7) as i32 - 3));
            pivoted_qr_invariants(&a);
            // Rank 2: the diagonal collapses after two steps.
            let x = Mat::gaussian(m, 2, &mut rng);
            let y = Mat::gaussian(2, n, &mut rng);
            let diag = pivoted_qr_invariants(&x.matmul(&y));
            assert!(diag[1] > 1e-3 * diag[0]);
            assert!(diag[2..].iter().all(|&d| d < 1e-13 * diag[0]), "{diag:?}");
        }
        // Zero columns are pivoted to the end and leave zero rows in R.
        let mut rng = Rng::seed_from_u64(19);
        let g = Mat::gaussian(6, 4, &mut rng);
        let a = Mat::from_fn(6, 4, |i, j| if j < 2 { 0.0 } else { g[(i, j)] });
        let diag = pivoted_qr_invariants(&a);
        assert_eq!(&diag[2..], &[0.0, 0.0]);
        assert_eq!(pivoted_qr_invariants(&Mat::zeros(3, 3)), [0.0; 3]);
    }

    #[test]
    fn r_diagonal_nonnegative_magnitude_matches_column_norms_for_orthogonal_input() {
        // QR of an orthogonal-ish scaled identity: R diagonal = ±scale.
        let m = 6;
        let mut a = Mat::eye(m);
        for i in 0..m {
            a[(i, i)] = 3.0;
        }
        let mut tau = vec![0.0; m];
        dgeqrf(m, m, a.as_mut_slice(), m, &mut tau);
        for i in 0..m {
            assert!((a[(i, i)].abs() - 3.0).abs() < 1e-13);
        }
    }

    #[test]
    fn zero_column_yields_zero_tau() {
        let m = 5;
        let mut a = Mat::zeros(m, 2);
        for i in 0..m {
            a[(i, 1)] = (i + 1) as f64;
        }
        let mut tau = vec![9.0; 2];
        dgeqrf(m, 2, a.as_mut_slice(), m, &mut tau);
        assert_eq!(tau[0], 0.0);
    }
}
