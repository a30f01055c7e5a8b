//! Property-based tests for the tile layer: layout round-trips, Cholesky
//! correctness against the dense reference on random SPD matrices, and solve
//! residuals — across randomized shapes, tile sizes, and worker counts.

use exa_linalg::{dpotrf, frobenius_norm, Mat};
use exa_runtime::Runtime;
use exa_tile::{tile_potrf, tile_potrs, TileMatrix};
use exa_util::Rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_tile_roundtrip(
        n in 1usize..40,
        nb in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut spd = Mat::random_spd(n, &mut rng);
        spd.symmetrize_from_lower();
        let t = TileMatrix::from_dense(&spd, nb);
        prop_assert_eq!(t.to_dense_symmetric(), spd);
    }

    #[test]
    fn tile_cholesky_matches_dense(
        n in 4usize..60,
        nb in 4usize..24,
        workers in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let dense = Mat::random_spd(n, &mut rng);
        let mut tiles = TileMatrix::from_dense(&dense, nb);
        tile_potrf(&mut tiles, &Runtime::new(workers)).unwrap();
        let mut lref = dense.clone();
        dpotrf(n, lref.as_mut_slice(), n).unwrap();
        for j in 0..n {
            for i in j..n {
                let got = tiles.at(i, j);
                let want = lref[(i, j)];
                prop_assert!((got - want).abs() < 1e-8 * want.abs().max(1.0),
                    "({},{}) {} vs {}", i, j, got, want);
            }
        }
    }

    #[test]
    fn spd_solve_residual_small(
        n in 4usize..50,
        nb in 4usize..16,
        nrhs in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let dense = Mat::random_spd(n, &mut rng);
        let mut tiles = TileMatrix::from_dense(&dense, nb);
        let rt = Runtime::new(3);
        tile_potrf(&mut tiles, &rt).unwrap();
        let b = Mat::gaussian(n, nrhs, &mut rng);
        let mut x = b.clone();
        tile_potrs(&tiles, &mut x, &rt);
        let ax = dense.matmul(&x);
        let mut r = vec![0.0; n * nrhs];
        for (ri, (p, q)) in r.iter_mut().zip(ax.as_slice().iter().zip(b.as_slice())) {
            *ri = p - q;
        }
        let res = frobenius_norm(n, nrhs, &r, n);
        let bnorm = frobenius_norm(n, nrhs, b.as_slice(), n).max(1e-300);
        prop_assert!(res < 1e-7 * bnorm, "relative residual {}", res / bnorm);
    }
}
