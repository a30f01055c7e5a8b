//! Tile matrix storage.
//!
//! A matrix is split into `nb × nb` tiles, each stored contiguously in
//! column-major order (the PLASMA/Chameleon "tile layout"). Contiguous tiles
//! are what make the task-based algorithms cache-friendly and give the
//! runtime natural data-handle granularity: one handle per tile.

use exa_covariance::CovarianceKernel;
use exa_linalg::Mat;
use exa_runtime::parallel_for;

/// One dense tile (column-major, leading dimension == `rows`).
#[derive(Clone, Debug, Default)]
pub struct Tile {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Tile {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tile {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

/// A dense matrix in tile layout (`mt × nt` grid of tiles).
///
/// Symmetric matrices destined for Cholesky only populate the lower-triangle
/// tiles (`i ≥ j`); the upper tiles stay empty (`rows == cols == 0` tiles are
/// never touched by the lower-triangular algorithms).
#[derive(Clone, Debug)]
pub struct TileMatrix {
    /// Global rows.
    pub m: usize,
    /// Global columns.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Tile-grid rows `⌈m/nb⌉`.
    pub mt: usize,
    /// Tile-grid columns `⌈n/nb⌉`.
    pub nt: usize,
    tiles: Vec<Tile>,
}

impl TileMatrix {
    /// All-zero tile matrix (every tile allocated).
    pub fn zeros(m: usize, n: usize, nb: usize) -> Self {
        assert!(nb > 0, "tile size must be positive");
        let mt = m.div_ceil(nb);
        let nt = n.div_ceil(nb);
        let mut tiles = Vec::with_capacity(mt * nt);
        for j in 0..nt {
            for i in 0..mt {
                tiles.push(Tile::zeros(Self::extent(m, nb, i), Self::extent(n, nb, j)));
            }
        }
        TileMatrix {
            m,
            n,
            nb,
            mt,
            nt,
            tiles,
        }
    }

    /// Square symmetric matrix: only lower-triangle tiles allocated.
    pub fn zeros_symmetric_lower(n: usize, nb: usize) -> Self {
        assert!(nb > 0);
        let nt = n.div_ceil(nb);
        let mut tiles = Vec::with_capacity(nt * nt);
        for j in 0..nt {
            for i in 0..nt {
                if i >= j {
                    tiles.push(Tile::zeros(Self::extent(n, nb, i), Self::extent(n, nb, j)));
                } else {
                    tiles.push(Tile::default());
                }
            }
        }
        TileMatrix {
            m: n,
            n,
            nb,
            mt: nt,
            nt,
            tiles,
        }
    }

    #[inline]
    fn extent(total: usize, nb: usize, idx: usize) -> usize {
        nb.min(total - idx * nb)
    }

    /// Rows of tile-row `i`.
    #[inline]
    pub fn tile_rows(&self, i: usize) -> usize {
        Self::extent(self.m, self.nb, i)
    }

    /// Columns of tile-column `j`.
    #[inline]
    pub fn tile_cols(&self, j: usize) -> usize {
        Self::extent(self.n, self.nb, j)
    }

    #[inline]
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[i + j * self.mt]
    }

    #[inline]
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        &mut self.tiles[i + j * self.mt]
    }

    /// Raw mutable pointer/len pair for a tile (used by the task layer to
    /// capture tiles in `'static` closures; see `exa-tile::view`).
    pub(crate) fn tile_raw(&mut self, i: usize, j: usize) -> (*mut f64, usize) {
        let t = self.tile_mut(i, j);
        (t.data.as_mut_ptr(), t.data.len())
    }

    /// Global element accessor (test/debug convenience; walks the layout).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        let (ti, tj) = (i / self.nb, j / self.nb);
        self.tile(ti, tj).at(i % self.nb, j % self.nb)
    }

    /// Builds the symmetric covariance matrix `Σ(θ)` in lower-tile layout
    /// from a kernel, filling tiles in parallel (the ExaGeoStat matrix
    /// generation step).
    pub fn from_kernel_symmetric_lower<K: CovarianceKernel>(
        kernel: &K,
        nb: usize,
        num_workers: usize,
    ) -> Self {
        let n = kernel.len();
        let mut a = Self::zeros_symmetric_lower(n, nb);
        let nt = a.nt;
        // Collect lower-tile coordinates, then fill them in parallel.
        let coords: Vec<(usize, usize)> =
            (0..nt).flat_map(|j| (j..nt).map(move |i| (i, j))).collect();
        let tile_ptrs: Vec<(*mut f64, usize, usize, usize)> = coords
            .iter()
            .map(|&(i, j)| {
                let rows = a.tile_rows(i);
                let cols = a.tile_cols(j);
                let (ptr, len) = a.tile_raw(i, j);
                (ptr, len, rows, cols)
            })
            .collect();
        struct Ptrs(Vec<(*mut f64, usize, usize, usize)>);
        // SAFETY: wrapper for sharing raw tile pointers with worker threads;
        // tiles are disjoint allocations and each chunk touches its own set,
        // so concurrent access through &Ptrs never aliases.
        unsafe impl Sync for Ptrs {}
        let ptrs = Ptrs(tile_ptrs);
        let coords_ref = &coords;
        let ptrs_ref = &ptrs;
        parallel_for(num_workers, coords.len(), 1, move |s, e| {
            let chunk = coords_ref[s..e].iter().zip(&ptrs_ref.0[s..e]);
            for (&(i, j), &(ptr, len, rows, cols)) in chunk {
                // SAFETY: each index is processed exactly once (disjoint
                // chunks), so the mutable view is exclusive.
                let buf = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
                kernel.fill_tile(i * nb, rows, j * nb, cols, buf, rows);
            }
        });
        a
    }

    /// Converts a dense column-major matrix into tile layout.
    pub fn from_dense(mat: &Mat, nb: usize) -> Self {
        let (m, n) = (mat.nrows(), mat.ncols());
        let mut a = Self::zeros(m, n, nb);
        for tj in 0..a.nt {
            for ti in 0..a.mt {
                let rows = a.tile_rows(ti);
                let cols = a.tile_cols(tj);
                let t = a.tile_mut(ti, tj);
                for j in 0..cols {
                    for i in 0..rows {
                        *t.at_mut(i, j) = mat[(ti * nb + i, tj * nb + j)];
                    }
                }
            }
        }
        a
    }

    /// Converts to a dense column-major matrix. For symmetric-lower storage
    /// the upper triangle is mirrored from the lower.
    pub fn to_dense(&self) -> Mat {
        let mut out = Mat::zeros(self.m, self.n);
        for tj in 0..self.nt {
            for ti in 0..self.mt {
                let t = self.tile(ti, tj);
                if t.data.is_empty() {
                    continue;
                }
                for j in 0..t.cols {
                    for i in 0..t.rows {
                        out[(ti * self.nb + i, tj * self.nb + j)] = t.at(i, j);
                    }
                }
            }
        }
        out
    }

    /// Mirrors lower tiles into the upper triangle of a dense copy
    /// (symmetric-lower storage only).
    pub fn to_dense_symmetric(&self) -> Mat {
        let mut out = self.to_dense();
        out.symmetrize_from_lower();
        out
    }

    /// Total bytes held in tile buffers.
    pub fn bytes(&self) -> usize {
        self.tiles.iter().map(|t| t.data.len() * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_covariance::{DistanceMetric, Location, MaternKernel, MaternParams};
    use std::sync::Arc;

    fn kernel(n: usize) -> MaternKernel {
        let mut rng = exa_util::Rng::seed_from_u64(5);
        let locs: Vec<Location> = (0..n)
            .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
            .collect();
        MaternKernel::new(
            Arc::new(locs),
            MaternParams::new(1.0, 0.1, 0.5),
            DistanceMetric::Euclidean,
            0.0,
        )
    }

    #[test]
    fn tile_extents_cover_matrix() {
        let a = TileMatrix::zeros(10, 7, 3);
        assert_eq!((a.mt, a.nt), (4, 3));
        assert_eq!(a.tile_rows(3), 1);
        assert_eq!(a.tile_cols(2), 1);
        let total: usize = (0..a.mt).map(|i| a.tile_rows(i)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn dense_roundtrip() {
        let mut rng = exa_util::Rng::seed_from_u64(1);
        let mat = Mat::gaussian(13, 9, &mut rng);
        let tiles = TileMatrix::from_dense(&mat, 4);
        let back = tiles.to_dense();
        assert_eq!(back, mat);
        assert_eq!(tiles.at(12, 8), mat[(12, 8)]);
    }

    #[test]
    fn kernel_generation_matches_entrywise() {
        let k = kernel(20);
        let a = TileMatrix::from_kernel_symmetric_lower(&k, 6, 2);
        for j in 0..20 {
            for i in j..20 {
                assert_eq!(a.at(i, j), k.entry(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn parallel_and_serial_generation_agree() {
        let k = kernel(33);
        let a1 = TileMatrix::from_kernel_symmetric_lower(&k, 8, 1);
        let a4 = TileMatrix::from_kernel_symmetric_lower(&k, 8, 4);
        for j in 0..33 {
            for i in j..33 {
                assert_eq!(a1.at(i, j), a4.at(i, j));
            }
        }
    }

    #[test]
    fn symmetric_dense_mirror() {
        let k = kernel(15);
        let a = TileMatrix::from_kernel_symmetric_lower(&k, 4, 1);
        let d = a.to_dense_symmetric();
        for i in 0..15 {
            for j in 0..15 {
                assert_eq!(d[(i, j)], d[(j, i)]);
            }
        }
    }

    #[test]
    fn bytes_accounting() {
        let a = TileMatrix::zeros(8, 8, 4);
        assert_eq!(a.bytes(), 8 * 8 * 8);
        let s = TileMatrix::zeros_symmetric_lower(8, 4);
        assert_eq!(s.bytes(), (16 + 16 + 16) * 8); // 3 lower tiles of 4x4
    }
}
