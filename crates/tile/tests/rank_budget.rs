//! Rank budget of TLR rounding: the ranks a fixed TLR matrix holds after
//! assembly and after `tile_potrf`, pinned exactly.
//!
//! Every byte of a TLR factor is `(rows + cols) · rank · 8`, so the factor's
//! memory moves with these numbers. A change to the rounding (`recompress`,
//! the core SVD, ACA) that moves a rank must show it here, by re-recording
//! the table below in the same change.
//!
//! The values were recorded on the tree *before* the core SVD became the
//! QR-preconditioned one-sided Jacobi with cached column norms; that change
//! moved none of them.

use exa_covariance::{sort_morton, DistanceMetric, Location, MaternKernel, MaternParams};
use exa_runtime::Runtime;
use exa_tile::{tile_potrf, CompressionMethod, TileMatrix};
use exa_util::Rng;
use std::sync::Arc;

/// Figure 1's default shape.
const N: usize = 1600;
const NB: usize = 100;

/// `(min, max, summed)` off-diagonal rank.
type Ranks = (usize, usize, usize);

/// `(eps, after assembly, after tile_potrf)`.
const BUDGET: [(f64, Ranks, Ranks); 2] = [
    (1e-7, (6, 60, 2728), (6, 57, 2507)),
    (1e-9, (9, 69, 3685), (9, 66, 3412)),
];

fn kernel() -> MaternKernel {
    let mut rng = Rng::seed_from_u64(2018);
    let mut locs: Vec<Location> = (0..N)
        .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
        .collect();
    sort_morton(&mut locs);
    MaternKernel::new(
        Arc::new(locs),
        MaternParams::new(1.0, 0.1, 0.5),
        DistanceMetric::Euclidean,
        1e-6,
    )
}

fn ranks(a: &TileMatrix) -> Ranks {
    let stats = a.rank_stats();
    let mut sum = 0;
    for j in 0..a.nt {
        for i in j + 1..a.nt {
            sum += a.lr(i, j).rank();
        }
    }
    (stats.min, stats.max, sum)
}

#[test]
fn tlr_ranks_before_and_after_potrf_are_pinned() {
    let rt = Runtime::new(2);
    let kernel = kernel();
    for (eps, assembled, factored) in BUDGET {
        let mut a = TileMatrix::from_kernel(&kernel, NB, eps, CompressionMethod::Aca, 2, 0)
            .expect("assembly");
        let before = ranks(&a);
        tile_potrf(&mut a, &rt).expect("potrf");
        let after = ranks(&a);
        println!("eps {eps:e}: assembled {before:?}, factored {after:?}");
        assert_eq!(
            (before, after),
            (assembled, factored),
            "eps {eps:e}: (assembled, factored)"
        );
    }
}
