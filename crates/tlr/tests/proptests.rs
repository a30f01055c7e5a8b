//! Property-based tests for the TLR layer: compression error bounds vs the
//! requested accuracy, recompression idempotence, and end-to-end
//! factorization/solve residuals across randomized geometries and thresholds.

use exa_covariance::{sort_morton, DistanceMetric, Location, MaternKernel, MaternParams};
use exa_linalg::{frobenius_norm, Mat};
use exa_runtime::Runtime;
use exa_tlr::{
    compress_dense, recompress, tlr_potrf, tlr_potrs, CompressionMethod, LrTile, TlrMatrix,
};
use exa_util::Rng;
use proptest::prelude::*;
use std::sync::Arc;

fn covariance_kernel(n: usize, range: f64, seed: u64) -> MaternKernel {
    let mut rng = Rng::seed_from_u64(seed);
    let mut locs: Vec<Location> = (0..n)
        .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
        .collect();
    sort_morton(&mut locs);
    MaternKernel::new(
        Arc::new(locs),
        MaternParams::new(1.0, range, 0.5),
        DistanceMetric::Euclidean,
        1e-6,
    )
}

fn abs_fro_error(dense: &Mat, t: &LrTile) -> f64 {
    let d = t.to_dense();
    let mut diff = vec![0.0; d.len()];
    for (x, (p, q)) in diff.iter_mut().zip(d.iter().zip(dense.as_slice())) {
        *x = p - q;
    }
    frobenius_norm(dense.nrows(), dense.ncols(), &diff, dense.nrows())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compression_error_bounded_by_threshold(
        m in 8usize..40,
        n in 8usize..40,
        eps_exp in 3u32..10,
        seed in 0u64..500,
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let mut rng = Rng::seed_from_u64(seed);
        // Low-rank plus small noise: a realistic compressible tile.
        let u = Mat::gaussian(m, 3, &mut rng);
        let v = Mat::gaussian(n, 3, &mut rng);
        let a = u.matmul(&v.transposed());
        for method in [CompressionMethod::Svd, CompressionMethod::Aca] {
            let t = compress_dense(m, n, a.as_slice(), m, eps, method).unwrap();
            let err = abs_fro_error(&a, &t);
            // Absolute 2-norm cut at eps ⇒ Frobenius error ≤ √min(m,n)·eps;
            // ACA's heuristic gets a wider constant.
            let bound = 100.0 * eps * (m.min(n) as f64).sqrt();
            prop_assert!(err <= bound, "{method} eps={eps}: err {err} > {bound}");
        }
    }

    #[test]
    fn recompress_is_idempotent_and_bounded(
        m in 6usize..30,
        n in 6usize..30,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let u = Mat::gaussian(m, k, &mut rng);
        let v = Mat::gaussian(n, k, &mut rng);
        let mut t = LrTile::from_factors(
            m, n, k, u.as_slice().to_vec(), v.as_slice().to_vec(),
        );
        let original = Mat::from_vec(m, n, t.to_dense());
        let eps = 1e-9;
        recompress(&mut t, eps).unwrap();
        let r1 = t.rank();
        let err1 = abs_fro_error(&original, &t);
        prop_assert!(err1 <= 100.0 * eps * (m.min(n) as f64).sqrt());
        recompress(&mut t, eps).unwrap();
        prop_assert!(t.rank() <= r1, "second recompression grew the rank");
    }

    #[test]
    fn factor_solve_residual_tracks_eps(
        n in 40usize..90,
        nb_div in 3usize..6,
        seed in 0u64..500,
    ) {
        let nb = (n / nb_div).max(8);
        let kern = covariance_kernel(n, 0.1, seed);
        let mut a = TlrMatrix::from_kernel(
            &kern, nb, 1e-9, CompressionMethod::Svd, 2, seed,
        ).unwrap();
        let dense = a.to_dense_symmetric();
        let rt = Runtime::new(2);
        tlr_potrf(&mut a, &rt).unwrap();
        let mut rng = Rng::seed_from_u64(seed + 1);
        let b = Mat::gaussian(n, 2, &mut rng);
        let mut x = b.clone();
        tlr_potrs(&a, &mut x, &rt);
        let ax = dense.matmul(&x);
        let mut r = vec![0.0; n * 2];
        for (v, (p, q)) in r.iter_mut().zip(ax.as_slice().iter().zip(b.as_slice())) {
            *v = p - q;
        }
        let res = frobenius_norm(n, 2, &r, n);
        let bn = frobenius_norm(n, 2, b.as_slice(), n);
        prop_assert!(res <= 1e-4 * bn, "relative residual {}", res / bn);
    }

    #[test]
    fn tlr_memory_never_exceeds_dense_by_much(
        n in 60usize..140,
        seed in 0u64..500,
    ) {
        let kern = covariance_kernel(n, 0.05, seed);
        let tlr = TlrMatrix::from_kernel(
            &kern, n / 4, 1e-7, CompressionMethod::Aca, 2, seed,
        ).unwrap();
        // U+V factors cost at most 2·nb·k ≤ 2·nb·nb per tile = 2× dense.
        prop_assert!(tlr.bytes() <= 2 * tlr.dense_bytes());
        let stats = tlr.rank_stats();
        prop_assert!(stats.max <= n / 4);
    }
}
