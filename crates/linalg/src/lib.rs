//! Dense linear-algebra kernels for the `exageostat` workspace.
//!
//! This crate is the workspace's substitute for an optimized BLAS/LAPACK
//! (the paper links against Intel MKL). All kernels operate on **column-major**
//! `f64` storage with explicit leading dimensions, mirroring the
//! BLAS/LAPACK calling conventions so the tile and TLR algorithms in
//! `exa-tile` read like their Chameleon/HiCMA counterparts:
//!
//! * Level-1/2 BLAS: [`blas1`] (`dot`, `axpy`, `nrm2`, …), [`gemv`], [`ger`].
//! * Level-3 BLAS: [`dgemm`] (packed, with a register tile sized per ISA
//!   and AVX dispatched at run time, bit-identical either way), [`dsyrk`],
//!   [`dtrsm`] (all four `Lower` variants).
//! * LAPACK-style factorizations: blocked Cholesky [`dpotrf`], Householder QR
//!   ([`dgeqrf`]/[`dorgqr`]), and one-sided Jacobi SVD [`jacobi_svd`],
//!   preconditioned by a column-pivoted QR and carrying its column norms
//!   across rotations, with the absolute [`truncation_rank`] cut that TLR
//!   rounding applies to it.
//!
//! Dimensions are validated with `assert!` at public entry points; inner loops
//! rely on the validated bounds.

pub mod blas1;
pub mod blas3;
pub mod chol;
pub mod gemm;
pub mod mat;
pub mod norms;
pub mod qr;
pub mod svd;

pub use blas1::{axpy, dot, iamax, nrm2, scal};
pub use blas3::{dsyrk, dtrsm, Side};
pub use chol::{chol_append, chol_remove, dpotf2, dpotrf};
pub use gemm::{dgemm, gemv, ger, Trans};
pub use mat::Mat;
pub use norms::{frobenius_norm, inf_norm, max_abs, one_norm};
pub use qr::{dgeqrf, dorgqr};
pub use svd::{jacobi_svd, truncation_rank, SvdResult};

/// Errors produced by the factorization routines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not (numerically) symmetric positive definite; the
    /// leading minor of the given order failed during Cholesky.
    NotPositiveDefinite { index: usize },
    /// An iterative routine exhausted its sweep/iteration budget.
    NoConvergence { iterations: usize },
    /// The input holds a NaN or an infinity (or the computation overflowed
    /// to one).
    NonFinite,
}

impl LinalgError {
    /// Re-bases a failing leading-minor index from a diagonal tile to the
    /// whole matrix, where the tile starts at global row `first_row`.
    pub fn offset_minor(self, first_row: usize) -> Self {
        match self {
            LinalgError::NotPositiveDefinite { index } => LinalgError::NotPositiveDefinite {
                index: first_row + index,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { index } => {
                write!(f, "matrix not positive definite (leading minor {index})")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            LinalgError::NonFinite => write!(f, "input holds a NaN or an infinity"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Uplo selector for symmetric/triangular kernels. Only `Lower` is used by the
/// Cholesky-based pipeline; `Upper` variants are intentionally not provided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uplo {
    Lower,
}
