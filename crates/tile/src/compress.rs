//! Fixed-accuracy tile compression.
//!
//! Every strictly-lower tile of `Σ(θ)` is stored as `U·Vᵀ` at the user's
//! accuracy threshold `eps` — HiCMA's fixed-accuracy mode (paper §V): the
//! smallest rank whose dropped singular values are all `≤ eps` (absolute).
//!
//! * [`CompressionMethod::Aca`] — the production compressor (default):
//!   adaptive cross approximation with partial pivoting, rounded to `eps` by
//!   [`recompress`] (QR of both factors + an SVD of the small core, the same
//!   rounding `lr_gemm` applies during the factorization). ACA reads only the
//!   `O((m+n)·k)` entries of the rows and columns it pivots on, so with it
//!   [`compress_kernel_block`] never materializes a dense off-diagonal tile.
//! * [`CompressionMethod::Svd`] — exact SVD of the dense tile (the
//!   QR-preconditioned one-sided Jacobi of [`exa_linalg::jacobi_svd`]), the
//!   reference the tests and golden bits compare against.

use crate::arith::recompress;
use crate::lr::LrTile;
use exa_covariance::CovarianceKernel;
use exa_linalg::{jacobi_svd, truncation_rank, LinalgError};

/// Which algorithm compresses a tile to the accuracy threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CompressionMethod {
    /// Adaptive cross approximation rounded by [`recompress`] (production).
    #[default]
    Aca,
    /// Exact SVD of the dense tile (reference, `O(m n²)`): one-sided Jacobi
    /// on the triangular factor of a column-pivoted QR, the same SVD that
    /// truncates [`recompress`]'s core.
    Svd,
}

impl std::fmt::Display for CompressionMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressionMethod::Aca => write!(f, "ACA"),
            CompressionMethod::Svd => write!(f, "SVD"),
        }
    }
}

/// Compresses a dense column-major `m × n` tile to absolute accuracy `eps`.
pub fn compress_dense(
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    eps: f64,
    method: CompressionMethod,
) -> Result<LrTile, LinalgError> {
    assert!(eps > 0.0, "accuracy threshold must be positive");
    match method {
        CompressionMethod::Aca => aca(m, n, |i, j| a[i + j * lda], eps),
        CompressionMethod::Svd => {
            let mut svd = jacobi_svd(m, n, a, lda)?;
            svd.truncate(truncation_rank(&svd.s, eps));
            Ok(LrTile::from_svd(&svd))
        }
    }
}

/// Compresses the `nrows × ncols` block `Σ[row_off.., col_off..]` of a
/// covariance kernel: entry by entry (ACA), or through a dense scratch tile
/// (SVD).
pub fn compress_kernel_block<K: CovarianceKernel>(
    kernel: &K,
    row_off: usize,
    nrows: usize,
    col_off: usize,
    ncols: usize,
    eps: f64,
    method: CompressionMethod,
) -> Result<LrTile, LinalgError> {
    match method {
        CompressionMethod::Aca => {
            let entry = |i: usize, j: usize| kernel.entry(row_off + i, col_off + j);
            aca(nrows, ncols, entry, eps)
        }
        CompressionMethod::Svd => {
            let mut dense = vec![0.0; nrows * ncols];
            kernel.fill_tile(row_off, nrows, col_off, ncols, &mut dense, nrows);
            compress_dense(nrows, ncols, &dense, nrows, eps, method)
        }
    }
}

/// Adaptive cross approximation with partial pivoting (Bebendorf), rounded
/// to accuracy `eps`.
///
/// Builds rank-1 cross updates `A ← A − u vᵀ` until the increment's 2-norm
/// (`‖u‖·‖v‖`, the singular value of the rank-1 term) drops below the
/// absolute threshold `eps`, then [`recompress`]es the crosses — which
/// overshoot the rank the tile needs — to the same fixed-accuracy cut the
/// SVD reference applies.
///
/// A NaN or an infinity among the entries it reads is
/// [`LinalgError::NonFinite`]: its pivot search cannot see one, and would
/// otherwise round an all-NaN tile to rank 0.
pub fn aca(
    m: usize,
    n: usize,
    entry: impl Fn(usize, usize) -> f64,
    eps: f64,
) -> Result<LrTile, LinalgError> {
    let max_rank = m.min(n);
    let mut us: Vec<Vec<f64>> = Vec::new();
    let mut vs: Vec<Vec<f64>> = Vec::new();
    let mut used_rows = vec![false; m];
    let mut used_cols = vec![false; n];
    let mut i_star = 0usize;

    while us.len() < max_rank {
        used_rows[i_star] = true;
        // Residual row i*: A[i*,:] − Σ_k u_k[i*] v_k.
        let mut row: Vec<f64> = (0..n).map(|j| entry(i_star, j)).collect();
        if row.iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite);
        }
        for (u, v) in us.iter().zip(&vs) {
            let c = u[i_star];
            if c != 0.0 {
                for (r, &vv) in row.iter_mut().zip(v.iter()) {
                    *r -= c * vv;
                }
            }
        }
        // Pivot column: largest residual entry among unused columns.
        let mut j_star = usize::MAX;
        let mut best = 0.0f64;
        for (j, &r) in row.iter().enumerate() {
            if !used_cols[j] && r.abs() > best {
                best = r.abs();
                j_star = j;
            }
        }
        if j_star == usize::MAX || best == 0.0 {
            // Residual row is exactly zero: try another unused row, or stop.
            match next_unused(&used_rows) {
                Some(next) => {
                    i_star = next;
                    continue;
                }
                None => break,
            }
        }
        used_cols[j_star] = true;
        let pivot = row[j_star];
        let v_new: Vec<f64> = row.iter().map(|&r| r / pivot).collect();
        // Residual column j*: A[:,j*] − Σ_k u_k v_k[j*].
        let mut col: Vec<f64> = (0..m).map(|i| entry(i, j_star)).collect();
        if col.iter().any(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite);
        }
        for (u, v) in us.iter().zip(&vs) {
            let c = v[j_star];
            if c != 0.0 {
                for (cc, &uu) in col.iter_mut().zip(u.iter()) {
                    *cc -= c * uu;
                }
            }
        }
        let u_new = col;

        let u_norm2: f64 = u_new.iter().map(|x| x * x).sum();
        let v_norm2: f64 = v_new.iter().map(|x| x * x).sum();

        // Next row pivot: largest entry of u_new among unused rows (pick
        // before moving u_new).
        let mut next_i = usize::MAX;
        let mut best_u = -1.0f64;
        for (i, &u) in u_new.iter().enumerate() {
            if !used_rows[i] && u.abs() > best_u {
                best_u = u.abs();
                next_i = i;
            }
        }

        us.push(u_new);
        vs.push(v_new);

        // Convergence: the rank-1 increment's singular value fell under the
        // absolute threshold.
        if (u_norm2 * v_norm2).sqrt() <= eps {
            break;
        }
        match next_i {
            usize::MAX => break,
            i => i_star = i,
        }
    }

    let k = us.len();
    let mut u = Vec::with_capacity(m * k);
    let mut v = Vec::with_capacity(n * k);
    for uc in &us {
        u.extend_from_slice(uc);
    }
    for vc in &vs {
        v.extend_from_slice(vc);
    }
    let mut t = LrTile::from_factors(m, n, k, u, v);
    recompress(&mut t, eps)?;
    Ok(t)
}

fn next_unused(used: &[bool]) -> Option<usize> {
    used.iter().position(|&u| !u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_linalg::{frobenius_norm, Mat};
    use exa_util::Rng;
    use std::sync::Arc;

    /// A tile of a Matérn(ν) covariance between two well-separated clusters
    /// — numerically low rank, the exact structure TLR exploits.
    fn separated_covariance_tile(m: usize, n: usize, seed: u64, nu: f64) -> Mat {
        let mut rng = Rng::seed_from_u64(seed);
        let mut locs = Vec::with_capacity(m + n);
        for _ in 0..m {
            locs.push(Location::new(rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)));
        }
        for _ in 0..n {
            locs.push(Location::new(rng.uniform(0.7, 1.0), rng.uniform(0.7, 1.0)));
        }
        let kernel = MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, 0.3, nu),
            DistanceMetric::Euclidean,
            0.0,
        );
        Mat::from_fn(m, n, |i, j| kernel.entry(i, m + j))
    }

    fn rel_error(a: &Mat, t: &LrTile) -> f64 {
        let d = t.to_dense();
        let mut diff = vec![0.0; d.len()];
        for (x, (p, q)) in diff.iter_mut().zip(d.iter().zip(a.as_slice())) {
            *x = p - q;
        }
        frobenius_norm(a.nrows(), a.ncols(), &diff, a.nrows())
            / frobenius_norm(a.nrows(), a.ncols(), a.as_slice(), a.nrows())
    }

    #[test]
    fn all_methods_meet_threshold_on_covariance_tile() {
        let a = separated_covariance_tile(40, 36, 1, 0.5);
        for method in [CompressionMethod::Svd, CompressionMethod::Aca] {
            for eps in [1e-5, 1e-7, 1e-9] {
                let t = compress_dense(40, 36, a.as_slice(), 40, eps, method).unwrap();
                let err = rel_error(&a, &t);
                // ACA's stopping heuristic can overshoot slightly; allow 50×.
                assert!(
                    err <= 50.0 * eps,
                    "{method} eps={eps}: rel err {err}, rank {}",
                    t.rank()
                );
                assert!(t.rank() < 20, "{method} rank {} not low", t.rank());
            }
        }
    }

    #[test]
    fn lower_accuracy_gives_lower_rank() {
        let a = separated_covariance_tile(48, 48, 3, 0.5);
        let compress =
            |eps| compress_dense(48, 48, a.as_slice(), 48, eps, CompressionMethod::Svd).unwrap();
        let (loose, tight) = (compress(1e-3), compress(1e-11));
        assert!(loose.rank() <= tight.rank());
        assert!(loose.rank() >= 1);
    }

    #[test]
    fn aca_exact_on_exactly_low_rank_matrix() {
        let mut rng = Rng::seed_from_u64(5);
        let u = Mat::gaussian(30, 3, &mut rng);
        let v = Mat::gaussian(20, 3, &mut rng);
        let a = u.matmul(&v.transposed());
        let t = aca(30, 20, |i, j| a[(i, j)], 1e-12).unwrap();
        // Any cross beyond the third is round-off, which the rounding drops.
        assert_eq!(t.rank(), 3);
        assert!(rel_error(&a, &t) < 1e-10);
    }

    #[test]
    fn kernel_block_aca_avoids_dense_path() {
        let mut rng = Rng::seed_from_u64(6);
        let mut locs = Vec::new();
        for _ in 0..60 {
            locs.push(Location::new(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)));
        }
        let kernel = MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            0.0,
        );
        let t =
            compress_kernel_block(&kernel, 0, 25, 30, 30, 1e-7, CompressionMethod::Aca).unwrap();
        let dense = Mat::from_fn(25, 30, |i, j| kernel.entry(i, 30 + j));
        assert!(rel_error(&dense, &t) < 1e-4);
    }

    #[test]
    fn zero_matrix_compresses_to_rank_zero() {
        let t = aca(10, 10, |_, _| 0.0, 1e-9).unwrap();
        assert_eq!(t.rank(), 0);
        let z = vec![0.0; 100];
        let t2 = compress_dense(10, 10, &z, 10, 1e-9, CompressionMethod::Svd).unwrap();
        assert_eq!(t2.rank(), 0);
    }

    #[test]
    fn non_finite_entries_are_an_error() {
        for bad in [f64::NAN, f64::INFINITY] {
            // Everywhere: the pivot search finds nothing to pivot on.
            let all = aca(6, 5, |_, _| bad, 1e-9);
            assert_eq!(all.unwrap_err(), LinalgError::NonFinite, "all {bad}");
            // One entry, in the first row ACA reads.
            let one = aca(6, 5, |i, j| if (i, j) == (0, 3) { bad } else { 1.0 }, 1e-9);
            assert_eq!(one.unwrap_err(), LinalgError::NonFinite, "one {bad}");
            let mut a = vec![1.0; 30];
            a[17] = bad;
            for method in [CompressionMethod::Aca, CompressionMethod::Svd] {
                let got = compress_dense(6, 5, &a, 6, 1e-9, method);
                assert_eq!(got.unwrap_err(), LinalgError::NonFinite, "{method} {bad}");
            }
        }
    }

    #[test]
    fn svd_and_aca_agree_on_rank() {
        for nu in [0.5, 0.83, 1.5] {
            let a = separated_covariance_tile(32, 32, 8, nu);
            for eps in [1e-5, 1e-7, 1e-9] {
                let compress =
                    |method| compress_dense(32, 32, a.as_slice(), 32, eps, method).unwrap();
                let (s, c) = (
                    compress(CompressionMethod::Svd),
                    compress(CompressionMethod::Aca),
                );
                // Rounded crosses land at (or within two of) the exact rank.
                assert!(
                    c.rank() <= s.rank() + 2,
                    "ν={nu} eps={eps}: svd {} aca {}",
                    s.rank(),
                    c.rank()
                );
                let err = rel_error(&a, &c);
                assert!(err <= 50.0 * eps, "ν={nu} eps={eps}: rel err {err}");
            }
        }
    }
}
