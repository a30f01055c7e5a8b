//! One-sided Jacobi singular value decomposition.
//!
//! Robust, simple, and accurate for the tile-sized problems (`nb ≲ 1000`) that
//! TLR compression produces. TLR rounding runs it on the small `r × r` core of
//! a low-rank tile, and the compression tests use it on whole tiles as the
//! reference truth.

use crate::blas1::{dot, nrm2};
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

/// Full SVD of the `m × n` column-major matrix `a` by one-sided Jacobi.
///
/// Works for any shape (internally transposes when `m < n`). Returns all
/// `min(m, n)` singular triplets in descending order.
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

/// One-sided Jacobi on a tall (or square) matrix: orthogonalizes the columns
/// of a working copy of `A` by plane rotations, accumulating them into `V`.
fn jacobi_tall(m: usize, n: usize, a: &[f64], lda: usize) -> Result<SvdResult, LinalgError> {
    let mut w = vec![0.0f64; m * n];
    for j in 0..n {
        w[j * m..j * m + m].copy_from_slice(&a[j * lda..j * lda + m]);
    }
    let mut v = vec![0.0f64; n * n];
    for j in 0..n {
        v[j + j * n] = 1.0;
    }
    let eps = f64::EPSILON * 8.0;
    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n.saturating_sub(1) {
            for q in p + 1..n {
                // Gram entries of columns p, q.
                let (cp, cq) = two_cols(&mut w, m, p, q);
                let app = dot(cp, cp);
                let aqq = dot(cq, cq);
                let apq = dot(cp, cq);
                if apq.abs() <= eps * (app * aqq).sqrt() || app == 0.0 || aqq == 0.0 {
                    continue;
                }
                rotated = true;
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let wp = cp[i];
                    let wq = cq[i];
                    cp[i] = c * wp - s * wq;
                    cq[i] = s * wp + c * wq;
                }
                let (vp, vq) = two_cols(&mut v, n, p, q);
                for i in 0..n {
                    let xp = vp[i];
                    let xq = vq[i];
                    vp[i] = c * xp - s * xq;
                    vq[i] = s * xp + c * xq;
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence {
            iterations: MAX_SWEEPS,
        });
    }
    // Singular values are the column norms; U the normalized columns.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n).map(|j| nrm2(&w[j * m..j * m + m])).collect();
    order.sort_by(|&a, &b| norms[b].total_cmp(&norms[a]));
    let mut u = vec![0.0f64; m * n];
    let mut vv = vec![0.0f64; n * n];
    let mut s = vec![0.0f64; n];
    for (dst, &src) in order.iter().enumerate() {
        s[dst] = norms[src];
        let ucol = &mut u[dst * m..dst * m + m];
        ucol.copy_from_slice(&w[src * m..src * m + m]);
        if norms[src] > 0.0 {
            let inv = 1.0 / norms[src];
            for x in ucol.iter_mut() {
                *x *= inv;
            }
        }
        vv[dst * n..dst * n + n].copy_from_slice(&v[src * n..src * n + n]);
    }
    Ok(SvdResult { u, s, v: vv, m, n })
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
    use crate::norms::rel_fro_diff;
    use exa_util::Rng;

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
        // Orthonormal U and V.
        for k1 in 0..svd.rank() {
            for k2 in k1..svd.rank() {
                let du =
                    crate::blas1::dot(&svd.u[k1 * m..(k1 + 1) * m], &svd.u[k2 * m..(k2 + 1) * m]);
                let dv =
                    crate::blas1::dot(&svd.v[k1 * n..(k1 + 1) * n], &svd.v[k2 * n..(k2 + 1) * n]);
                let expect = if k1 == k2 { 1.0 } else { 0.0 };
                assert!((du - expect).abs() < 1e-10, "U gram ({k1},{k2})");
                assert!((dv - expect).abs() < 1e-10, "V gram ({k1},{k2})");
            }
        }
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
