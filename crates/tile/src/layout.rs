//! Tile matrix storage.
//!
//! A symmetric matrix is split into `nb × nb` tiles, each stored contiguously
//! (the PLASMA/Chameleon "tile layout"), and only its lower triangle is kept.
//! Contiguous tiles are what make the task-based algorithms cache-friendly and
//! give the runtime natural data-handle granularity: one handle per tile.
//!
//! The diagonal tiles are always dense. The strictly-lower tiles are either
//! all dense (the "Full-tile" technique) or all compressed to `U·Vᵀ` at an
//! accuracy threshold (HiCMA's Tile Low-Rank format, paper Figure 1); see
//! [`crate::tlrmat`] for the compressed assembly and its rank statistics.

use crate::lr::LrTile;
use exa_covariance::CovarianceKernel;
use exa_linalg::Mat;
use exa_runtime::parallel_update;

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

/// A symmetric `n × n` matrix in lower tile layout: dense diagonal tiles
/// plus the strictly-lower tiles in one of two representations.
#[derive(Clone, Debug)]
pub struct TileMatrix {
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Tile-grid order `⌈n/nb⌉`.
    pub nt: usize,
    pub(crate) diag: Vec<Tile>,
    pub(crate) off: OffDiagonal,
}

/// The strictly-lower tiles, packed column by column ([`packed_index`]).
#[derive(Clone, Debug)]
pub(crate) enum OffDiagonal {
    Dense(Vec<Tile>),
    /// Compressed tiles and the accuracy threshold they were compressed to,
    /// which the factorization's recompressions keep using.
    LowRank {
        tiles: Vec<LrTile>,
        eps: f64,
    },
}

/// Rows (== columns) of tile `k` of an order-`n` matrix.
#[inline]
pub(crate) fn extent(n: usize, nb: usize, k: usize) -> usize {
    nb.min(n - k * nb)
}

/// Position of strictly-lower tile `(i, j)` among an `nt`-tile grid's
/// strictly-lower tiles packed column by column.
#[inline]
pub(crate) fn packed_index(nt: usize, i: usize, j: usize) -> usize {
    debug_assert!(j < i && i < nt, "({i}, {j}) is not strictly lower");
    j * (2 * nt - j - 1) / 2 + (i - j - 1)
}

impl TileMatrix {
    /// The one assembly pass. Every lower tile is allocated on the calling
    /// thread — the dense ones zeroed, so the pages they fill stay in this
    /// thread's heap from one evaluation to the next (allocating them in the
    /// workers made dense generation ~13 % slower at n = 2304, nb = 288 on
    /// a 2-vCPU x86-64 guest) — then filled in parallel: diagonal tiles from the kernel, strictly-lower tile `(i, j)`
    /// by `fill_off(i, j, new_off(i, j))`. Tiles are built independently,
    /// so the result is the same for any `num_workers`.
    pub(crate) fn assemble<K: CovarianceKernel, T: Send>(
        kernel: &K,
        nb: usize,
        num_workers: usize,
        new_off: impl Fn(usize, usize) -> T,
        fill_off: impl Fn(usize, usize, &mut T) + Sync,
    ) -> (Vec<Tile>, Vec<T>) {
        assert!(nb > 0, "tile size must be positive");
        let n = kernel.len();
        let nt = n.div_ceil(nb);
        enum Lower<T> {
            Diag(Tile),
            Off(T),
        }
        // Column by column, so the strictly-lower tiles come out packed.
        let coords: Vec<(usize, usize)> =
            (0..nt).flat_map(|j| (j..nt).map(move |i| (i, j))).collect();
        let mut tiles: Vec<Lower<T>> = coords
            .iter()
            .map(|&(i, j)| {
                if i == j {
                    Lower::Diag(Tile::zeros(extent(n, nb, i), extent(n, nb, i)))
                } else {
                    Lower::Off(new_off(i, j))
                }
            })
            .collect();
        parallel_update(num_workers, &mut tiles, |t, tile| {
            let (i, j) = coords[t];
            match tile {
                Lower::Diag(d) => {
                    kernel.fill_tile(i * nb, d.rows, i * nb, d.cols, &mut d.data, d.rows)
                }
                Lower::Off(o) => fill_off(i, j, o),
            }
        });
        let (mut diag, mut off) = (
            Vec::with_capacity(nt),
            Vec::with_capacity(coords.len() - nt),
        );
        for tile in tiles {
            match tile {
                Lower::Diag(d) => diag.push(d),
                Lower::Off(o) => off.push(o),
            }
        }
        (diag, off)
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
        let (diag, off) = Self::assemble(
            kernel,
            nb,
            num_workers,
            |i, j| Tile::zeros(extent(n, nb, i), extent(n, nb, j)),
            |i, j, t| kernel.fill_tile(i * nb, t.rows, j * nb, t.cols, &mut t.data, t.rows),
        );
        TileMatrix {
            n,
            nb,
            nt: diag.len(),
            diag,
            off: OffDiagonal::Dense(off),
        }
    }

    /// Reads the lower triangle of a square dense matrix into tile layout.
    pub fn from_dense(mat: &Mat, nb: usize) -> Self {
        let n = mat.nrows();
        assert_eq!(n, mat.ncols(), "tile matrices are square");
        let nt = n.div_ceil(nb);
        let tile = |ti, tj| {
            let mut t = Tile::zeros(extent(n, nb, ti), extent(n, nb, tj));
            for j in 0..t.cols {
                for i in 0..t.rows {
                    *t.at_mut(i, j) = mat[(ti * nb + i, tj * nb + j)];
                }
            }
            t
        };
        let off = (0..nt).flat_map(|j| (j + 1..nt).map(move |i| (i, j)));
        TileMatrix {
            n,
            nb,
            nt,
            diag: (0..nt).map(|k| tile(k, k)).collect(),
            off: OffDiagonal::Dense(off.map(|(i, j)| tile(i, j)).collect()),
        }
    }

    /// Rows (== columns) of tile index `k`.
    #[inline]
    pub fn tile_extent(&self, k: usize) -> usize {
        extent(self.n, self.nb, k)
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

    /// Dense lower tile `(i, j)`, `i ≥ j`; panics on a low-rank tile.
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        if i == j {
            return &self.diag[i];
        }
        match &self.off {
            OffDiagonal::Dense(tiles) => &tiles[packed_index(self.nt, i, j)],
            OffDiagonal::LowRank { .. } => panic!("tile ({i}, {j}) is low-rank"),
        }
    }

    /// Low-rank tile `(i, j)`, `i > j`; panics on a dense matrix.
    pub fn lr(&self, i: usize, j: usize) -> &LrTile {
        match &self.off {
            OffDiagonal::LowRank { tiles, .. } => &tiles[packed_index(self.nt, i, j)],
            OffDiagonal::Dense(_) => panic!("tile ({i}, {j}) is dense"),
        }
    }

    /// Element `(i, j)` of the lower triangle, `i ≥ j` (test/debug
    /// convenience on dense storage; walks the layout).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.tile(i / self.nb, j / self.nb)
            .at(i % self.nb, j % self.nb)
    }

    /// Bytes held in tile buffers and low-rank factors.
    pub fn bytes(&self) -> usize {
        let diag: usize = self.diag.iter().map(|t| t.data.len() * 8).sum();
        diag + match &self.off {
            OffDiagonal::Dense(tiles) => tiles.iter().map(|t| t.data.len() * 8).sum::<usize>(),
            OffDiagonal::LowRank { tiles, .. } => tiles.iter().map(LrTile::bytes).sum(),
        }
    }

    /// The stored lower tiles written into a dense matrix (the upper
    /// triangle of each diagonal tile included, the rest of the upper
    /// triangle zero).
    fn lower_to_dense(&self) -> Mat {
        let mut out = Mat::zeros(self.n, self.n);
        let mut put = |ti: usize, tj: usize, rows: usize, data: &[f64]| {
            for (j, col) in data.chunks_exact(rows).enumerate() {
                for (i, &v) in col.iter().enumerate() {
                    out[(ti * self.nb + i, tj * self.nb + j)] = v;
                }
            }
        };
        for j in 0..self.nt {
            put(j, j, self.diag[j].rows, &self.diag[j].data);
            for i in j + 1..self.nt {
                match &self.off {
                    OffDiagonal::Dense(_) => put(i, j, self.tile_extent(i), &self.tile(i, j).data),
                    OffDiagonal::LowRank { .. } => {
                        put(i, j, self.tile_extent(i), &self.lr(i, j).to_dense())
                    }
                }
            }
        }
        out
    }

    /// Dense symmetric reconstruction, the upper triangle mirrored from the
    /// lower (tests and small-problem reference).
    pub fn to_dense_symmetric(&self) -> Mat {
        let mut out = self.lower_to_dense();
        out.symmetrize_from_lower();
        out
    }

    /// The factor `L` left by [`crate::tile_potrf`] as a dense
    /// lower-triangular matrix (diagnostics and tests).
    pub fn to_dense_lower(&self) -> Mat {
        let mut out = self.lower_to_dense();
        out.zero_strict_upper();
        out
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
        let a = TileMatrix::from_dense(&Mat::eye(10), 3);
        assert_eq!(a.nt, 4);
        assert_eq!(a.tile_extent(3), 1);
        let total: usize = (0..a.nt).map(|i| a.tile_extent(i)).sum();
        assert_eq!(total, 10);
        for j in 0..a.nt {
            for i in j..a.nt {
                let t = a.tile(i, j);
                assert_eq!((t.rows, t.cols), (a.tile_extent(i), a.tile_extent(j)));
            }
        }
    }

    #[test]
    fn dense_roundtrip() {
        let mut rng = exa_util::Rng::seed_from_u64(1);
        let mut mat = Mat::random_spd(13, &mut rng);
        mat.symmetrize_from_lower();
        let tiles = TileMatrix::from_dense(&mat, 4);
        assert_eq!(tiles.to_dense_symmetric(), mat);
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
        let a = TileMatrix::from_dense(&Mat::eye(8), 4);
        assert_eq!(a.bytes(), (16 + 16 + 16) * 8); // 3 lower tiles of 4x4
    }
}
