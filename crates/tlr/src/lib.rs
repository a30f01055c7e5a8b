//! Compatibility names for the Tile Low-Rank layer, which now lives in
//! [`exa_tile`]: a TLR matrix is a [`exa_tile::TileMatrix`] built by
//! [`exa_tile::TileMatrix::from_kernel`], and the tile algorithms run on it.

pub use exa_tile::{
    aca, compress_dense, compress_kernel_block, lr_gemm, lr_syrk, lr_trsm, recompress,
    tile_logdet as tlr_logdet, tile_potrf as tlr_potrf, tile_potrs as tlr_potrs,
    tile_trsm as tlr_trsm, CompressionMethod, LrTile, RankStats,
};

/// The TLR matrix: a tile matrix with compressed off-diagonal tiles.
pub type TlrMatrix = exa_tile::TileMatrix;
