//! HiCMA-style Tile Low-Rank (TLR) linear algebra.
//!
//! This crate is the workspace's substitute for the
//! [HiCMA](https://github.com/ecrc/hicma) library — the paper's central
//! addition to ExaGeoStat. It provides:
//!
//! * [`LrTile`] — the `U·Vᵀ` low-rank tile with growable rank.
//! * [`compress_kernel_block`]/[`compress_dense`] — fixed-accuracy tile
//!   compression: [`aca`] rounded by [`recompress`], which reads only the
//!   entries it pivots on, or the exact-SVD reference
//!   ([`CompressionMethod`]).
//! * [`TlrMatrix`] — symmetric TLR storage (dense diagonal + compressed
//!   lower tiles) with rank statistics and memory accounting (Figure 1).
//! * [`lr_trsm`]/[`lr_syrk`]/[`lr_gemm`]/[`recompress`] — the rank-aware
//!   update kernels of the TLR Cholesky.
//! * [`tlr_potrf`] — the TLR Cholesky task graph; [`tlr_trsm`]/[`tlr_potrs`]
//!   — TLR triangular/SPD solves; [`tlr_logdet`] — `ln|Σ|`.
//!
//! The accuracy threshold `eps` is the paper's central tuning knob: looser
//! thresholds give smaller ranks, less memory, and less arithmetic — at the
//! cost of approximation error the geostatistics application must tolerate
//! (Figures 6–7 and Tables I–II quantify that trade-off).

pub mod arith;
pub mod chol;
pub mod compress;
pub mod lr;
pub mod solve;
pub mod tlrmat;

pub use arith::{lr_gemm, lr_syrk, lr_trsm, recompress};
pub use chol::{tlr_factor_to_dense, tlr_logdet, tlr_potrf};
pub use compress::{aca, compress_dense, compress_kernel_block, CompressionMethod};
pub use lr::LrTile;
pub use solve::{tlr_potrs, tlr_trsm};
pub use tlrmat::{RankStats, TlrMatrix};
