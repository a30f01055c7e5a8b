//! Adaptive randomized SVD (Halko, Martinsson & Tropp, 2011).
//!
//! This is the default compression kernel for TLR tiles: it only needs
//! `O(m·n·l)` work for a rank-`l` sketch instead of the full Jacobi SVD's
//! `O(m·n²)`. The rank is grown geometrically until the sketch captures the
//! requested relative accuracy, so callers get fixed-accuracy semantics (the
//! paper's "accuracy threshold") without knowing ranks in advance.

use crate::gemm::{dgemm, Trans};
use crate::qr::{dgeqrf, dorgqr};
use crate::svd::{jacobi_svd, truncation_rank_cut, Cutoff, SvdResult};
use crate::LinalgError;
use exa_util::Rng;

/// Extra sketch columns beyond the current rank guess.
const OVERSAMPLE: usize = 10;
/// Subspace (power) iterations; 1 is enough for covariance tiles whose
/// spectra already decay quickly.
const POWER_ITERS: usize = 1;
/// Starting rank guess for the adaptive loop.
const INITIAL_RANK: usize = 16;

/// Randomized SVD of the `m × n` matrix `a` truncated at `cut` (the TLR
/// compressors use [`Cutoff::Absolute`], HiCMA's fixed-accuracy semantics).
///
/// Falls back to the exact Jacobi SVD when the adaptive sketch grows past half
/// the small dimension, so the result is reliable even for full-rank inputs.
pub fn rsvd_cut(
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    cut: Cutoff,
    rng: &mut Rng,
) -> Result<SvdResult, LinalgError> {
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
    let minmn = m.min(n);
    let mut l = (INITIAL_RANK + OVERSAMPLE).min(minmn);
    loop {
        if l * 2 >= minmn {
            // Sketching no longer pays off; compute exactly.
            let mut full = jacobi_svd(m, n, a, lda)?;
            let k = truncation_rank_cut(&full.s, cut);
            full.truncate(k);
            return Ok(full);
        }
        // Sample Y = A Ω, Ω gaussian n × l.
        let mut omega = vec![0.0f64; n * l];
        rng.fill_gaussian(&mut omega);
        let mut y = vec![0.0f64; m * l];
        dgemm(
            Trans::No,
            Trans::No,
            m,
            l,
            n,
            1.0,
            a,
            lda,
            &omega,
            n,
            0.0,
            &mut y,
            m,
        );
        // Power iterations with re-orthonormalization for stability.
        for _ in 0..POWER_ITERS {
            orthonormalize(m, l, &mut y);
            let mut z = vec![0.0f64; n * l];
            dgemm(
                Trans::Yes,
                Trans::No,
                n,
                l,
                m,
                1.0,
                a,
                lda,
                &y,
                m,
                0.0,
                &mut z,
                n,
            );
            orthonormalize(n, l, &mut z);
            dgemm(
                Trans::No,
                Trans::No,
                m,
                l,
                n,
                1.0,
                a,
                lda,
                &z,
                n,
                0.0,
                &mut y,
                m,
            );
        }
        orthonormalize(m, l, &mut y); // Y now holds Q (m × l)
                                      // B = Qᵀ A  (l × n).
        let mut b = vec![0.0f64; l * n];
        dgemm(
            Trans::Yes,
            Trans::No,
            l,
            n,
            m,
            1.0,
            &y,
            m,
            a,
            lda,
            0.0,
            &mut b,
            l,
        );
        let bsvd = jacobi_svd(l, n, &b, l)?;
        // Accept when the sketch demonstrably captured the eps-tail: the
        // smallest retained singular value of B must fall below the cut.
        let k = truncation_rank_cut(&bsvd.s, cut);
        if k < l || l == minmn {
            // U = Q · U_b, truncated to rank k.
            let mut u = vec![0.0f64; m * k];
            dgemm(
                Trans::No,
                Trans::No,
                m,
                k,
                l,
                1.0,
                &y,
                m,
                &bsvd.u,
                l,
                0.0,
                &mut u,
                m,
            );
            let mut v = bsvd.v;
            v.truncate(k * n);
            let mut s = bsvd.s;
            s.truncate(k);
            return Ok(SvdResult { u, s, v, m, n });
        }
        l = (2 * l).min(minmn);
    }
}

/// In-place QR-based orthonormalization of the columns of the `rows × cols`
/// buffer (replaces it with the explicit Q factor).
fn orthonormalize(rows: usize, cols: usize, buf: &mut [f64]) {
    debug_assert!(cols <= rows);
    let mut tau = vec![0.0f64; cols];
    dgeqrf(rows, cols, buf, rows, &mut tau);
    dorgqr(rows, cols, cols, buf, rows, &tau);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use crate::norms::rel_fro_diff;

    /// Builds an m×n matrix with prescribed singular values.
    fn matrix_with_spectrum(m: usize, n: usize, spectrum: &[f64], rng: &mut Rng) -> Mat {
        let r = spectrum.len();
        let mut u = Mat::gaussian(m, r, rng);
        orthonormalize(m, r, u.as_mut_slice());
        let mut v = Mat::gaussian(n, r, rng);
        orthonormalize(n, r, v.as_mut_slice());
        Mat::from_fn(m, n, |i, j| {
            (0..r)
                .map(|k| u[(i, k)] * spectrum[k] * v[(j, k)])
                .sum::<f64>()
        })
    }

    #[test]
    fn recovers_low_rank_matrix_exactly() {
        let mut rng = Rng::seed_from_u64(1);
        let spectrum = [10.0, 5.0, 1.0];
        let a = matrix_with_spectrum(60, 50, &spectrum, &mut rng);
        let r = rsvd_cut(60, 50, a.as_slice(), 60, Cutoff::Relative(1e-9), &mut rng).unwrap();
        assert!(r.rank() >= 3);
        let rec = r.reconstruct();
        assert!(rel_fro_diff(&rec, a.as_slice()) < 1e-8);
        // Leading singular values match.
        for (got, want) in r.s.iter().zip(spectrum) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn respects_accuracy_threshold_on_decaying_spectrum() {
        let mut rng = Rng::seed_from_u64(2);
        // Geometric decay: sigma_k = 2^-k.
        let spectrum: Vec<f64> = (0..30).map(|k| (2.0f64).powi(-k)).collect();
        let a = matrix_with_spectrum(80, 80, &spectrum, &mut rng);
        for eps in [1e-2, 1e-4, 1e-6] {
            let r = rsvd_cut(80, 80, a.as_slice(), 80, Cutoff::Relative(eps), &mut rng).unwrap();
            let rec = r.reconstruct();
            let err = rel_fro_diff(&rec, a.as_slice());
            assert!(err < eps * 20.0, "eps={eps}: err={err}, rank={}", r.rank());
            // Rank should grow as eps shrinks, roughly log2(1/eps).
            let expect = (1.0 / eps).log2();
            assert!(
                (r.rank() as f64 - expect).abs() <= 6.0,
                "eps={eps} rank={} expect≈{expect}",
                r.rank()
            );
        }
    }

    #[test]
    fn adaptive_growth_reaches_needed_rank() {
        // Rank 40 with a flat spectrum forces the adaptive loop to double
        // beyond the initial guess of 16.
        let mut rng = Rng::seed_from_u64(3);
        let spectrum: Vec<f64> = (0..40).map(|k| 1.0 + (40 - k) as f64).collect();
        let a = matrix_with_spectrum(200, 150, &spectrum, &mut rng);
        let r = rsvd_cut(
            200,
            150,
            a.as_slice(),
            200,
            Cutoff::Relative(1e-10),
            &mut rng,
        )
        .unwrap();
        assert!(r.rank() >= 40, "rank={}", r.rank());
        assert!(rel_fro_diff(&r.reconstruct(), a.as_slice()) < 1e-8);
    }

    #[test]
    fn full_rank_falls_back_to_exact() {
        let mut rng = Rng::seed_from_u64(4);
        let a = Mat::gaussian(30, 30, &mut rng);
        let r = rsvd_cut(30, 30, a.as_slice(), 30, Cutoff::Relative(1e-14), &mut rng).unwrap();
        assert_eq!(r.rank(), 30);
        assert!(rel_fro_diff(&r.reconstruct(), a.as_slice()) < 1e-10);
    }

    #[test]
    fn empty_input() {
        let mut rng = Rng::seed_from_u64(5);
        let r = rsvd_cut(0, 4, &[], 1, Cutoff::Relative(1e-6), &mut rng).unwrap();
        assert_eq!(r.rank(), 0);
    }
}
