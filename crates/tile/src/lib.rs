//! Chameleon-style dense tile algorithms over the STF runtime.
//!
//! This crate is the workspace's substitute for the
//! [Chameleon](https://project.inria.fr/chameleon/) dense linear-algebra
//! library the paper uses for its full-accuracy ("Full-tile") reference: a
//! PLASMA-style tile layout plus tile algorithms expressed as sequential task
//! submissions to [`exa_runtime`]:
//!
//! * [`TileMatrix`] — contiguous `nb × nb` column-major tiles, symmetric-lower
//!   storage for covariance matrices, and parallel generation from a
//!   [`exa_covariance::CovarianceKernel`] (the ExaGeoStat matrix-generation
//!   step).
//! * [`tile_potrf`] — the right-looking tile Cholesky task graph
//!   ("Full-tile"); [`block_potrf`] — the fork-join LAPACK-style blocked
//!   Cholesky ("Full-block" baseline of Figure 3).
//! * [`tile_trsm`]/[`tile_potrs`] — triangular/SPD solves on block RHS.
//! * [`tile_trmm_lower`], [`tile_symm_lower`] — products for exact field
//!   simulation (`Z = L·w`) and residual checks.
//! * [`tile_logdet`] — `ln|Σ|` from the factor's diagonal.

pub mod block_chol;
pub mod dense_chol;
pub mod layout;
pub mod ops;
pub mod solve;
pub mod view;

pub use block_chol::block_potrf;
pub use dense_chol::{tile_logdet, tile_potrf};
pub use layout::{Tile, TileMatrix};
pub use ops::{tile_symm_lower, tile_trmm_lower};
pub use solve::{tile_potrs, tile_trsm, trsm_block, TriangularSide};
pub use view::{rhs_views, FactorRef, RhsView, TileView};
