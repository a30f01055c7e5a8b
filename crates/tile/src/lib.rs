//! Tile and Tile Low-Rank linear algebra over the STF runtime.
//!
//! This crate is the workspace's substitute for both libraries the paper
//! builds on: [Chameleon](https://project.inria.fr/chameleon/)'s dense tile
//! algorithms (the full-accuracy "Full-tile" reference) and
//! [HiCMA](https://github.com/ecrc/hicma)'s Tile Low-Rank (TLR) format, the
//! paper's central addition to ExaGeoStat. Both are one PLASMA-style tile
//! layout with one copy of each algorithm, expressed as task submissions to
//! [`exa_runtime`]:
//!
//! * [`TileMatrix`] — symmetric-lower storage of `Σ(θ)`: dense diagonal
//!   tiles, strictly-lower tiles either all dense
//!   ([`TileMatrix::from_kernel_symmetric_lower`]) or all compressed to
//!   `U·Vᵀ` at an accuracy threshold ([`TileMatrix::from_kernel`]), filled
//!   in parallel from an [`exa_covariance::CovarianceKernel`] (the
//!   ExaGeoStat matrix-generation step), with rank statistics and memory
//!   accounting (Figure 1).
//! * [`LrTile`] — the `U·Vᵀ` low-rank tile with growable rank;
//!   [`compress_kernel_block`]/[`compress_dense`] — fixed-accuracy
//!   compression: [`aca`] rounded by [`recompress`], which reads only the
//!   entries it pivots on, or the exact-SVD reference
//!   ([`CompressionMethod`]).
//! * [`tile_potrf`] — the right-looking tile Cholesky task graph, running
//!   the dense or the rank-aware ([`lr_trsm`]/[`lr_syrk`]/[`lr_gemm`])
//!   update kernels; [`block_potrf`] — the fork-join LAPACK-style blocked
//!   Cholesky ("Full-block" baseline of Figure 3).
//! * [`tile_trsm`]/[`tile_potrs`] — triangular/SPD solves on block RHS.
//! * [`tile_trmm_lower`] — `Z = L·w` for exact field simulation.
//! * [`tile_logdet`] — `ln|Σ|` from the factor's diagonal.
//!
//! The accuracy threshold `eps` is the paper's central tuning knob: looser
//! thresholds give smaller ranks, less memory, and less arithmetic — at the
//! cost of approximation error the geostatistics application must tolerate
//! (Figures 6–7 and Tables I–II quantify that trade-off).

pub mod arith;
pub mod block_chol;
pub mod chol;
pub mod compress;
pub mod layout;
pub mod lr;
pub mod ops;
pub mod solve;
pub mod tlrmat;
mod view;

pub use arith::{lr_gemm, lr_syrk, lr_trsm, recompress};
pub use block_chol::block_potrf;
pub use chol::{tile_logdet, tile_potrf};
pub use compress::{aca, compress_dense, compress_kernel_block, CompressionMethod};
pub use layout::{Tile, TileMatrix};
pub use lr::LrTile;
pub use ops::tile_trmm_lower;
pub use solve::{tile_potrs, tile_trsm, TriangularSide};
pub use tlrmat::RankStats;
