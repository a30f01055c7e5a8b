//! The TLR matrix: dense diagonal tiles + low-rank off-diagonal tiles.
//!
//! This is HiCMA's symmetric TLR storage for `Σ(θ)` (paper Figure 1): the
//! matrix is cut into `nb × nb` tiles; diagonal tiles stay dense (they carry
//! the non-compressible near-field), and every strictly-lower tile is
//! compressed to `U·Vᵀ` at the user's accuracy threshold. Ranks vary per tile
//! with the distance between the tile's location clusters — the rank
//! statistics and memory accounting here regenerate Figure 1's narrative and
//! the memory-footprint claims of §VIII.

use crate::compress::{compress_kernel_block, CompressionMethod};
use crate::lr::LrTile;
use exa_covariance::CovarianceKernel;
use exa_linalg::{LinalgError, Mat};
use exa_runtime::parallel_for;
use exa_tile::Tile;

/// Symmetric TLR matrix (lower storage).
#[derive(Clone, Debug)]
pub struct TlrMatrix {
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Tile-grid order `⌈n/nb⌉`.
    pub nt: usize,
    /// Accuracy threshold the off-diagonal tiles were compressed to (and the
    /// threshold the factorization's recompressions keep using).
    pub eps: f64,
    /// Dense diagonal tiles.
    diag: Vec<Tile>,
    /// Strictly-lower low-rank tiles, `low[j * nt + i]` for `i > j`; other
    /// slots hold default (empty) tiles and are never touched.
    low: Vec<LrTile>,
}

/// Summary of the off-diagonal rank distribution (Figure 1's annotation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    /// Number of off-diagonal (strictly lower) tiles.
    pub tiles: usize,
}

impl TlrMatrix {
    /// Assembles the TLR covariance matrix from a kernel: dense diagonal
    /// tiles, compressed strictly-lower tiles, tiles processed in parallel.
    ///
    /// Both compressors are deterministic, so the result is bit-identical
    /// for any `num_workers`. `_seed` is ignored; it is kept only so existing
    /// callers compile.
    pub fn from_kernel<K: CovarianceKernel>(
        kernel: &K,
        nb: usize,
        eps: f64,
        method: CompressionMethod,
        num_workers: usize,
        _seed: u64,
    ) -> Result<Self, LinalgError> {
        assert!(nb > 0, "tile size must be positive");
        assert!(eps > 0.0, "accuracy threshold must be positive");
        let n = kernel.len();
        let nt = n.div_ceil(nb);
        let ext = |idx: usize| nb.min(n - idx * nb);

        // Diagonal tiles (dense, parallel fill).
        let mut diag: Vec<Tile> = (0..nt).map(|k| Tile::zeros(ext(k), ext(k))).collect();
        {
            struct DiagPtrs(Vec<(*mut f64, usize)>);
            // SAFETY: shared only so each worker can fill its own diagonal
            // tiles; tiles are separate allocations and each index k is
            // visited by exactly one chunk.
            unsafe impl Sync for DiagPtrs {}
            let ptrs = DiagPtrs(
                diag.iter_mut()
                    .map(|t| (t.data.as_mut_ptr(), t.rows))
                    .collect(),
            );
            let pref = &ptrs;
            parallel_for(num_workers, nt, 1, move |a, b| {
                for k in a..b {
                    let (ptr, rows) = pref.0[k];
                    // SAFETY: each diagonal tile is owned by exactly one k.
                    let buf = unsafe { std::slice::from_raw_parts_mut(ptr, rows * rows) };
                    kernel.fill_tile(k * nb, rows, k * nb, rows, buf, rows);
                }
            });
        }

        // Strictly-lower tiles (compressed in parallel).
        let coords: Vec<(usize, usize)> = (0..nt)
            .flat_map(|j| (j + 1..nt).map(move |i| (i, j)))
            .collect();
        let mut low: Vec<LrTile> = vec![LrTile::default(); nt * nt];
        let results: Vec<Result<LrTile, LinalgError>> = {
            let coords_ref = &coords;
            let slots: std::sync::Mutex<Vec<Option<Result<LrTile, LinalgError>>>> =
                std::sync::Mutex::new((0..coords.len()).map(|_| None).collect());
            let slots_ref = &slots;
            parallel_for(num_workers, coords.len(), 1, move |a, b| {
                for (idx, &(i, j)) in coords_ref.iter().enumerate().take(b).skip(a) {
                    let r =
                        compress_kernel_block(kernel, i * nb, ext(i), j * nb, ext(j), eps, method);
                    slots_ref.lock().unwrap()[idx] = Some(r);
                }
            });
            slots
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|o| o.expect("every tile compressed"))
                .collect()
        };
        for ((i, j), r) in coords.into_iter().zip(results) {
            low[j * nt + i] = r?;
        }

        Ok(TlrMatrix {
            n,
            nb,
            nt,
            eps,
            diag,
            low,
        })
    }

    /// Rows (== columns) of tile index `k`.
    #[inline]
    pub fn tile_extent(&self, k: usize) -> usize {
        self.nb.min(self.n - k * self.nb)
    }

    /// Dense diagonal tile `k`.
    #[inline]
    pub fn diag(&self, k: usize) -> &Tile {
        &self.diag[k]
    }

    #[inline]
    pub fn diag_mut(&mut self, k: usize) -> &mut Tile {
        &mut self.diag[k]
    }

    /// Low-rank tile `(i, j)`, `i > j`.
    #[inline]
    pub fn lr(&self, i: usize, j: usize) -> &LrTile {
        debug_assert!(i > j, "low-rank tiles are strictly lower");
        &self.low[j * self.nt + i]
    }

    #[inline]
    pub fn lr_mut(&mut self, i: usize, j: usize) -> &mut LrTile {
        debug_assert!(i > j, "low-rank tiles are strictly lower");
        &mut self.low[j * self.nt + i]
    }

    /// Raw tile pointers for the factorization's task kernel.
    pub(crate) fn raw_tiles(&mut self) -> crate::chol::TlrTiles {
        crate::chol::TlrTiles {
            diag: self.diag.as_mut_ptr(),
            low: self.low.as_mut_ptr(),
            nt: self.nt,
        }
    }

    /// Rank statistics over the strictly-lower tiles.
    pub fn rank_stats(&self) -> RankStats {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        let mut tiles = 0usize;
        for j in 0..self.nt {
            for i in j + 1..self.nt {
                let k = self.lr(i, j).rank();
                min = min.min(k);
                max = max.max(k);
                sum += k;
                tiles += 1;
            }
        }
        if tiles == 0 {
            return RankStats {
                min: 0,
                max: 0,
                mean: 0.0,
                tiles: 0,
            };
        }
        RankStats {
            min,
            max,
            mean: sum as f64 / tiles as f64,
            tiles,
        }
    }

    /// Bytes held by the TLR representation (dense diagonals + LR factors).
    pub fn bytes(&self) -> usize {
        let d: usize = self.diag.iter().map(|t| t.data.len() * 8).sum();
        let l: usize = self.low.iter().map(|t| t.bytes()).sum::<usize>();
        d + l
    }

    /// Bytes the dense symmetric-lower storage of the same matrix would need.
    pub fn dense_bytes(&self) -> usize {
        let mut total = 0usize;
        for j in 0..self.nt {
            for i in j..self.nt {
                total += self.tile_extent(i) * self.tile_extent(j) * 8;
            }
        }
        total
    }

    /// `dense_bytes / bytes` — how much smaller the TLR format is.
    pub fn compression_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / self.bytes() as f64
    }

    /// Dense symmetric reconstruction (tests and small-problem reference).
    pub fn to_dense_symmetric(&self) -> Mat {
        let mut out = Mat::zeros(self.n, self.n);
        for k in 0..self.nt {
            let t = &self.diag[k];
            for j in 0..t.cols {
                for i in 0..t.rows {
                    out[(k * self.nb + i, k * self.nb + j)] = t.at(i, j);
                }
            }
        }
        for j in 0..self.nt {
            for i in j + 1..self.nt {
                let d = self.lr(i, j).to_dense();
                let rows = self.tile_extent(i);
                for (jj, col) in d.chunks_exact(rows).enumerate() {
                    for (ii, &v) in col.iter().enumerate() {
                        out[(i * self.nb + ii, j * self.nb + jj)] = v;
                        out[(j * self.nb + jj, i * self.nb + ii)] = v;
                    }
                }
            }
        }
        out
    }

    /// `y = Σ · x` through the TLR representation (`O(n·nb + Σ k·nb)`).
    ///
    /// Valid on the *assembled* matrix (before factorization): diagonal tiles
    /// are symmetric and off-diagonal tiles contribute both `U Vᵀ x` and its
    /// transpose.
    pub fn symm_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for k in 0..self.nt {
            let t = &self.diag[k];
            let off = k * self.nb;
            exa_linalg::gemv(
                exa_linalg::Trans::No,
                t.rows,
                t.cols,
                1.0,
                &t.data,
                t.rows,
                &x[off..off + t.cols],
                1.0,
                &mut y[off..off + t.rows],
            );
        }
        for j in 0..self.nt {
            for i in j + 1..self.nt {
                let t = self.lr(i, j);
                if t.rank() == 0 {
                    continue;
                }
                let (ro, co) = (i * self.nb, j * self.nb);
                // y_i += A_ij x_j.
                let mut yi = vec![0.0; t.rows];
                t.matvec_acc(1.0, &x[co..co + t.cols], &mut yi);
                for (dst, s) in y[ro..ro + t.rows].iter_mut().zip(&yi) {
                    *dst += s;
                }
                // y_j += A_ijᵀ x_i.
                let mut yj = vec![0.0; t.cols];
                t.gemm_trans_acc(1.0, &x[ro..ro + t.rows], t.rows, 1, 0.0, &mut yj, t.cols);
                for (dst, s) in y[co..co + t.cols].iter_mut().zip(&yj) {
                    *dst += s;
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use exa_util::Rng;
    use std::sync::Arc;

    fn kernel(n: usize, range: f64, seed: u64) -> MaternKernel {
        let mut rng = Rng::seed_from_u64(seed);
        let mut locs: Vec<Location> = (0..n)
            .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
            .collect();
        exa_covariance::sort_morton(&mut locs);
        MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, range, 0.5),
            DistanceMetric::Euclidean,
            0.0,
        )
    }

    #[test]
    fn reconstruction_error_within_threshold() {
        let k = kernel(96, 0.1, 1);
        for eps in [1e-5, 1e-9] {
            let tlr = TlrMatrix::from_kernel(&k, 24, eps, CompressionMethod::Svd, 2, 7).unwrap();
            let dense = tlr.to_dense_symmetric();
            for j in 0..96 {
                for i in 0..96 {
                    let want = k.entry(i, j);
                    let got = dense[(i, j)];
                    // Per-entry error is bounded by the tile-wise 2-norm cut;
                    // allow a modest constant times eps (σ₀ ≲ nb here).
                    assert!(
                        (got - want).abs() <= 100.0 * eps,
                        "eps={eps} ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranks_grow_with_accuracy() {
        let k = kernel(120, 0.3, 2);
        let loose = TlrMatrix::from_kernel(&k, 30, 1e-3, CompressionMethod::Svd, 2, 3).unwrap();
        let tight = TlrMatrix::from_kernel(&k, 30, 1e-12, CompressionMethod::Svd, 2, 3).unwrap();
        assert!(loose.rank_stats().mean <= tight.rank_stats().mean);
        assert!(loose.bytes() <= tight.bytes());
    }

    #[test]
    fn compression_beats_dense_storage() {
        let k = kernel(200, 0.03, 3);
        let tlr = TlrMatrix::from_kernel(&k, 25, 1e-7, CompressionMethod::Aca, 4, 5).unwrap();
        assert!(
            tlr.compression_ratio() > 1.2,
            "ratio {}",
            tlr.compression_ratio()
        );
        let stats = tlr.rank_stats();
        assert_eq!(stats.tiles, 8 * 7 / 2);
        assert!(stats.max <= 25);
        // Weak correlation (θ₂ = 0.03): far-field tiles fall below the
        // absolute threshold entirely and collapse to rank 0.
        assert_eq!(stats.min, 0);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        // The matrix and its factor depend on neither the worker count nor
        // the (ignored) seed.
        let k = kernel(80, 0.1, 4);
        let build = |workers: usize, seed: u64| {
            let mut a = TlrMatrix::from_kernel(&k, 20, 1e-7, CompressionMethod::Aca, workers, seed)
                .unwrap();
            let assembled = a.to_dense_symmetric();
            crate::tlr_potrf(&mut a, &exa_runtime::Runtime::new(workers)).unwrap();
            (assembled, crate::tlr_factor_to_dense(&a))
        };
        let (a0, l0) = build(1, 11);
        for (workers, seed) in [(4, 11), (1, 12), (4, 12)] {
            let (a, l) = build(workers, seed);
            assert_eq!(
                a0.as_slice(),
                a.as_slice(),
                "{workers} workers, seed {seed}"
            );
            assert_eq!(
                l0.as_slice(),
                l.as_slice(),
                "{workers} workers, seed {seed}"
            );
        }
    }

    #[test]
    fn symm_matvec_matches_dense() {
        let k = kernel(70, 0.1, 5);
        let tlr = TlrMatrix::from_kernel(&k, 16, 1e-10, CompressionMethod::Svd, 2, 13).unwrap();
        let dense = tlr.to_dense_symmetric();
        let mut rng = Rng::seed_from_u64(6);
        let mut x = vec![0.0; 70];
        rng.fill_gaussian(&mut x);
        let y = tlr.symm_matvec(&x);
        let want = dense.matvec(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10 * b.abs().max(1.0));
        }
    }

    #[test]
    fn single_tile_matrix_has_no_lr_tiles() {
        let k = kernel(10, 0.1, 7);
        let tlr = TlrMatrix::from_kernel(&k, 16, 1e-7, CompressionMethod::Svd, 1, 1).unwrap();
        assert_eq!(tlr.nt, 1);
        assert_eq!(tlr.rank_stats().tiles, 0);
        let dense = tlr.to_dense_symmetric();
        for j in 0..10 {
            for i in 0..10 {
                assert_eq!(dense[(i, j)], k.entry(i, j));
            }
        }
    }
}
