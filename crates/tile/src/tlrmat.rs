//! The compressed form of [`TileMatrix`]: HiCMA's Tile Low-Rank storage.
//!
//! This is the TLR layout of `Σ(θ)` in the paper's Figure 1: the diagonal
//! tiles stay dense (they carry the non-compressible near-field), and every
//! strictly-lower tile is compressed to `U·Vᵀ` at the user's accuracy
//! threshold. Ranks vary per tile with the distance between the tile's
//! location clusters — the rank statistics and memory accounting here
//! regenerate Figure 1's narrative and the memory-footprint claims of §VIII.

use crate::compress::{compress_kernel_block, CompressionMethod};
use crate::layout::{extent, OffDiagonal, TileMatrix};
use crate::lr::LrTile;
use exa_covariance::CovarianceKernel;
use exa_linalg::LinalgError;

/// Summary of the off-diagonal rank distribution (Figure 1's annotation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    /// Number of off-diagonal (strictly lower) tiles.
    pub tiles: usize,
}

impl TileMatrix {
    /// Assembles the TLR covariance matrix from a kernel: dense diagonal
    /// tiles, strictly-lower tiles compressed to absolute accuracy `eps`,
    /// all tiles processed in parallel.
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
        assert!(eps > 0.0, "accuracy threshold must be positive");
        let n = kernel.len();
        let ext = |k| extent(n, nb, k);
        let (diag, tiles) = Self::assemble(
            kernel,
            nb,
            num_workers,
            |_, _| Ok(LrTile::default()),
            |i, j, t| {
                *t = compress_kernel_block(kernel, i * nb, ext(i), j * nb, ext(j), eps, method)
            },
        );
        Ok(TileMatrix {
            n,
            nb,
            nt: diag.len(),
            diag,
            off: OffDiagonal::LowRank {
                tiles: tiles.into_iter().collect::<Result<_, _>>()?,
                eps,
            },
        })
    }

    /// Rank statistics over the strictly-lower tiles; a dense tile counts
    /// at its full rank `min(rows, cols)`.
    pub fn rank_stats(&self) -> RankStats {
        let ranks: Vec<usize> = match &self.off {
            OffDiagonal::Dense(tiles) => tiles.iter().map(|t| t.rows.min(t.cols)).collect(),
            OffDiagonal::LowRank { tiles, .. } => tiles.iter().map(LrTile::rank).collect(),
        };
        let (Some(&min), Some(&max)) = (ranks.iter().min(), ranks.iter().max()) else {
            return RankStats {
                min: 0,
                max: 0,
                mean: 0.0,
                tiles: 0,
            };
        };
        RankStats {
            min,
            max,
            mean: ranks.iter().sum::<usize>() as f64 / ranks.len() as f64,
            tiles: ranks.len(),
        }
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

    /// `dense_bytes / bytes` — how much smaller the stored form is.
    pub fn compression_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / self.bytes() as f64
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
            let tlr = TileMatrix::from_kernel(&k, 24, eps, CompressionMethod::Svd, 2, 7).unwrap();
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
        let loose = TileMatrix::from_kernel(&k, 30, 1e-3, CompressionMethod::Svd, 2, 3).unwrap();
        let tight = TileMatrix::from_kernel(&k, 30, 1e-12, CompressionMethod::Svd, 2, 3).unwrap();
        assert!(loose.rank_stats().mean <= tight.rank_stats().mean);
        assert!(loose.bytes() <= tight.bytes());
    }

    #[test]
    fn compression_beats_dense_storage() {
        let k = kernel(200, 0.03, 3);
        let tlr = TileMatrix::from_kernel(&k, 25, 1e-7, CompressionMethod::Aca, 4, 5).unwrap();
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
            let mut a =
                TileMatrix::from_kernel(&k, 20, 1e-7, CompressionMethod::Aca, workers, seed)
                    .unwrap();
            let assembled = a.to_dense_symmetric();
            crate::tile_potrf(&mut a, &exa_runtime::Runtime::new(workers)).unwrap();
            (assembled, a.to_dense_lower())
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
    fn single_tile_matrix_has_no_lr_tiles() {
        let k = kernel(10, 0.1, 7);
        let tlr = TileMatrix::from_kernel(&k, 16, 1e-7, CompressionMethod::Svd, 1, 1).unwrap();
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
