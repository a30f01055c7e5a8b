//! Golden-bits pin of the tile and TLR Cholesky factor and solve.
//!
//! The hashes were recorded at the commit *before* the Cholesky task DAG was
//! folded into `exa_runtime::chol`; any change to the task set, the per-tile
//! kernels or the order of updates to one tile moves them. They hold at any
//! worker count because every tile sees its updates in submission order.
//!
//! At `N`/`NB` = 96/16 every tile product is below `dgemm`'s small-product
//! threshold. The `PACKED_*` pair (N = 576, NB = 144, where each Gemm task is
//! 5.97 Mflop) pins the packed micro-kernel path; it was recorded before that
//! path's register tile was re-sized per ISA and dispatched to AVX, which
//! changed no bit.
//!
//! `TLR_FACTOR`/`TLR_SOLVE` were re-recorded once, when the Jacobi SVD that
//! truncates every rounding core (and the `Svd` reference compressor) became
//! QR-preconditioned with norms carried across rotations. That change moves
//! rounding on purpose and leaves every rank as it was; the dense hashes did
//! not move, since the dense path never calls the SVD.

use exa_covariance::{sort_morton, DistanceMetric, Location, MaternKernel, MaternParams};
use exa_linalg::{frobenius_norm, Mat};
use exa_runtime::Runtime;
use exa_tile::{tile_potrf, tile_potrs, TileMatrix};
use exa_tlr::{tlr_potrf, tlr_potrs, CompressionMethod, TlrMatrix};
use exa_util::Rng;
use std::sync::Arc;

const N: usize = 96;
const NB: usize = 16;
const PACKED_N: usize = 576;
const PACKED_NB: usize = 144;
/// Relative distance allowed between the TLR(1e-9) and the tile solve.
const REL_TOL: f64 = 1e-7;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, values: &[f64]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn kernel() -> MaternKernel {
    kernel_of_size(N)
}

fn kernel_of_size(n: usize) -> MaternKernel {
    let mut rng = Rng::seed_from_u64(2018);
    let mut locs: Vec<Location> = (0..n)
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

fn rhs(n: usize) -> Mat {
    Mat::gaussian(n, 3, &mut Rng::seed_from_u64(7))
}

/// `(factor hash, forward+backward solve hash)` of the full-tile path.
fn tile_hashes(workers: usize) -> (u64, u64) {
    tile_hashes_at(N, NB, workers)
}

fn tile_hashes_at(n: usize, nb: usize, workers: usize) -> (u64, u64) {
    let rt = Runtime::new(workers);
    let mut a = TileMatrix::from_kernel_symmetric_lower(&kernel_of_size(n), nb, 1);
    tile_potrf(&mut a, &rt).unwrap();
    let mut factor = Fnv::new();
    for j in 0..a.nt {
        for i in j..a.nt {
            factor.feed(&a.tile(i, j).data);
        }
    }
    let mut x = rhs(n);
    tile_potrs(&a, &mut x, &rt);
    let mut solve = Fnv::new();
    solve.feed(x.as_slice());
    (factor.0, solve.0)
}

/// The same pair for TLR at accuracy 1e-9.
fn tlr_hashes(workers: usize) -> (u64, u64) {
    let rt = Runtime::new(workers);
    let mut a = TlrMatrix::from_kernel(&kernel(), NB, 1e-9, CompressionMethod::Svd, 1, 5).unwrap();
    tlr_potrf(&mut a, &rt).unwrap();
    let mut factor = Fnv::new();
    for k in 0..a.nt {
        factor.feed(&a.diag(k).data);
    }
    for j in 0..a.nt {
        for i in j + 1..a.nt {
            factor.feed(&a.lr(i, j).u);
            factor.feed(&a.lr(i, j).v);
        }
    }
    let mut x = rhs(N);
    tlr_potrs(&a, &mut x, &rt);
    let mut solve = Fnv::new();
    solve.feed(x.as_slice());
    (factor.0, solve.0)
}

#[test]
fn tile_factor_and_solve_bits_are_pinned() {
    for workers in [1, 4] {
        assert_eq!(
            tile_hashes(workers),
            (TILE_FACTOR, TILE_SOLVE),
            "workers={workers}"
        );
    }
}

#[test]
fn tlr_factor_and_solve_bits_are_pinned() {
    for workers in [1, 4] {
        assert_eq!(
            tlr_hashes(workers),
            (TLR_FACTOR, TLR_SOLVE),
            "workers={workers}"
        );
    }
}

#[test]
fn packed_gemm_tile_factor_and_solve_bits_are_pinned() {
    for workers in [1, 4] {
        assert_eq!(
            tile_hashes_at(PACKED_N, PACKED_NB, workers),
            (PACKED_TILE_FACTOR, PACKED_TILE_SOLVE),
            "workers={workers}"
        );
    }
}

#[test]
fn tlr_solve_agrees_with_tile_solve() {
    let rt = Runtime::new(2);
    let mut tile = TileMatrix::from_kernel_symmetric_lower(&kernel(), NB, 1);
    let mut tlr =
        TlrMatrix::from_kernel(&kernel(), NB, 1e-9, CompressionMethod::Svd, 1, 5).unwrap();
    tile_potrf(&mut tile, &rt).unwrap();
    tlr_potrf(&mut tlr, &rt).unwrap();
    let (mut x_tile, mut x_tlr) = (rhs(N), rhs(N));
    tile_potrs(&tile, &mut x_tile, &rt);
    tlr_potrs(&tlr, &mut x_tlr, &rt);
    let diff: Vec<f64> = x_tile
        .as_slice()
        .iter()
        .zip(x_tlr.as_slice())
        .map(|(a, b)| a - b)
        .collect();
    let rel = frobenius_norm(N, 3, &diff, N) / frobenius_norm(N, 3, x_tile.as_slice(), N);
    assert!(rel < REL_TOL, "TLR(1e-9) against tile solve: {rel:e}");
}

#[test]
fn both_backends_submit_the_one_dag() {
    let rt = Runtime::new(2);
    let mut tile = TileMatrix::from_kernel_symmetric_lower(&kernel(), NB, 1);
    let mut tlr =
        TlrMatrix::from_kernel(&kernel(), NB, 1e-9, CompressionMethod::Svd, 1, 5).unwrap();
    let nt = N / NB;
    let runs = [
        tile_potrf(&mut tile, &rt).unwrap(),
        tlr_potrf(&mut tlr, &rt).unwrap(),
    ];
    for stats in &runs {
        // potrf nt, trsm and syrk nt(nt-1)/2 each, gemm C(nt,3).
        let tasks = nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(stats.tasks_executed, tasks);
        // potrf → trsm → syrk per panel, then the last potrf.
        assert_eq!(stats.critical_path_tasks, 3 * (nt - 1) + 1);
    }
    assert_eq!(runs[0].edges, runs[1].edges);
}

const TILE_FACTOR: u64 = 6_446_094_807_666_641_401;
const TILE_SOLVE: u64 = 15_975_838_321_124_846_399;
const TLR_FACTOR: u64 = 5_241_272_456_827_736_246;
const TLR_SOLVE: u64 = 6_618_337_847_700_143_650;
const PACKED_TILE_FACTOR: u64 = 7_496_566_459_703_196_914;
const PACKED_TILE_SOLVE: u64 = 394_150_211_777_328_780;
