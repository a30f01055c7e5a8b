//! Raw views for capturing tiles inside `'static` task closures.
//!
//! The task graph requires `FnOnce() + Send + 'static` closures, but tasks
//! operate on tiles owned by a `TileMatrix` living on the caller's stack. The
//! algorithms in this crate therefore capture raw views — [`TilePtrs`] for
//! the matrix's tiles, [`RhsView`] for right-hand-side blocks — and the STF
//! dependency system guarantees exclusive or shared access according to the
//! declared [`exa_runtime::Access`] modes.
//!
//! Safety contract (upheld by every algorithm in this crate):
//! 1. each tile or block maps 1:1 to one runtime handle, so the inferred DAG
//!    serializes writers against readers and other writers of the same tile;
//! 2. the owner outlives `Runtime::run` (the algorithms run the graph
//!    synchronously before returning);
//! 3. tiles are separate values, so references to distinct tiles never alias.

use crate::layout::{packed_index, OffDiagonal, Tile, TileMatrix};
use crate::lr::LrTile;
use exa_linalg::Mat;

/// Raw access to a [`TileMatrix`]'s tiles for the factorization's task
/// kernel: `&`/`&mut` to a dense diagonal tile, or to a strictly-lower tile
/// in the matrix's representation.
#[derive(Clone, Copy)]
pub(crate) struct TilePtrs {
    diag: *mut Tile,
    pub(crate) off: OffPtr,
    nt: usize,
}

/// The strictly-lower tiles' base pointer, by representation (with the
/// low-rank tiles' accuracy threshold).
#[derive(Clone, Copy)]
pub(crate) enum OffPtr {
    Dense(*mut Tile),
    LowRank(*mut LrTile, f64),
}

// SAFETY: TilePtrs is two bare pointers to `Send` tiles and a count;
// dereferencing goes through the unsafe accessors, whose contract requires
// runtime-granted access, and the STF DAG serializes writers of each tile
// handle (contract points 1–3 above).
unsafe impl Send for TilePtrs {}
// SAFETY: as above — sharing the view grants nothing without the accessors.
unsafe impl Sync for TilePtrs {}

impl TilePtrs {
    /// # Safety
    /// Caller must hold runtime-granted `Read` access to diagonal tile `k`
    /// and the owning `TileMatrix` must outlive the synchronous run.
    pub(crate) unsafe fn diag<'a>(self, k: usize) -> &'a Tile {
        unsafe { &*self.diag.add(k) }
    }

    /// # Safety
    /// As [`TilePtrs::diag`], with `ReadWrite` access.
    pub(crate) unsafe fn diag_mut<'a>(self, k: usize) -> &'a mut Tile {
        unsafe { &mut *self.diag.add(k) }
    }

    /// Strictly-lower tile `(i, j)` from the base `off` of `self.off`.
    ///
    /// # Safety
    /// As [`TilePtrs::diag`], for tile `(i, j)`, `i > j`, with `off` the
    /// pointer held in `self.off`.
    pub(crate) unsafe fn off<'a, T>(self, off: *mut T, i: usize, j: usize) -> &'a T {
        unsafe { &*off.add(packed_index(self.nt, i, j)) }
    }

    /// # Safety
    /// As [`TilePtrs::off`], with `ReadWrite` access.
    pub(crate) unsafe fn off_mut<'a, T>(self, off: *mut T, i: usize, j: usize) -> &'a mut T {
        unsafe { &mut *off.add(packed_index(self.nt, i, j)) }
    }
}

impl TileMatrix {
    /// Raw pointers to every tile, for a task kernel.
    pub(crate) fn ptrs(&mut self) -> TilePtrs {
        let off = match &mut self.off {
            OffDiagonal::Dense(t) => OffPtr::Dense(t.as_mut_ptr()),
            OffDiagonal::LowRank { tiles, eps } => OffPtr::LowRank(tiles.as_mut_ptr(), *eps),
        };
        TilePtrs {
            diag: self.diag.as_mut_ptr(),
            off,
            nt: self.nt,
        }
    }
}

/// A raw, `Send`able view of one `nb`-row block of a dense column-major
/// right-hand-side matrix: the unit the triangular solve declares to the
/// runtime.
///
/// Safety contract mirrors [`TilePtrs`]: one view per runtime handle, the
/// owning `Mat` outlives the synchronous `Runtime::run`, and row blocks are
/// accessed strictly through the declared access modes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RhsView {
    ptr: *mut f64,
    /// Leading dimension of the parent matrix (its global row count).
    pub ld: usize,
    /// Rows in this block.
    pub rows: usize,
    /// Columns (number of right-hand sides).
    pub cols: usize,
}

// SAFETY: RhsView is a plain pointer/shape bundle; actual access goes through
// the unsafe accessors whose contracts require runtime-granted access modes,
// and the STF DAG serializes writers.
unsafe impl Send for RhsView {}
// SAFETY: as above — sharing the view grants nothing without the accessors.
unsafe impl Sync for RhsView {}

impl RhsView {
    /// The block's strided window: columns `0..cols` at stride `ld`, ending
    /// with the last column's rows.
    ///
    /// # Safety
    /// Caller must hold runtime-granted `Write`/`ReadWrite` access to the
    /// block, and the owning `Mat` must be alive.
    #[inline]
    pub(crate) unsafe fn as_mut_slice<'a>(self) -> &'a mut [f64] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.ld * (self.cols - 1) + self.rows) }
    }

    /// # Safety
    /// Caller must hold runtime-granted `Read` (or stronger) access to the
    /// block, and the owning `Mat` must be alive.
    #[inline]
    pub(crate) unsafe fn as_slice<'a>(self) -> &'a [f64] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.ld * (self.cols - 1) + self.rows) }
    }
}

/// Splits `b` (with at least one column) into views of its `nb`-row blocks.
pub(crate) fn rhs_views(b: &mut Mat, nb: usize) -> Vec<RhsView> {
    let (n, nrhs) = (b.nrows(), b.ncols());
    let ld = b.ld();
    let base = b.as_mut_slice().as_mut_ptr();
    (0..n.div_ceil(nb))
        .map(|k| RhsView {
            // SAFETY: offset stays within the buffer (k*nb < n).
            ptr: unsafe { base.add(k * nb) },
            ld,
            rows: nb.min(n - k * nb),
            cols: nrhs,
        })
        .collect()
}

/// A `&T` with its lifetime erased, so the `'static` kernel of a triangular
/// solve can read the factor it was handed by shared reference.
pub(crate) struct FactorRef<T>(*const T);

// SAFETY: a FactorRef only ever yields `&T`, which `T: Sync` makes safe to
// use from any thread.
unsafe impl<T: Sync> Send for FactorRef<T> {}
// SAFETY: as above.
unsafe impl<T: Sync> Sync for FactorRef<T> {}

impl<T> FactorRef<T> {
    pub(crate) fn new(factor: &T) -> Self {
        FactorRef(factor)
    }

    /// # Safety
    /// The borrow passed to [`FactorRef::new`] must still be live: the solve
    /// that created this value must not have returned yet.
    #[inline]
    pub(crate) unsafe fn get<'a>(&self) -> &'a T {
        unsafe { &*self.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_reads_and_writes_tile_data() {
        let mut a = TileMatrix::from_dense(&Mat::zeros(6, 6), 3);
        let p = a.ptrs();
        let OffPtr::Dense(off) = p.off else {
            unreachable!("from_dense stores dense tiles")
        };
        unsafe {
            p.off_mut(off, 1, 0).data[0] = 42.0;
            assert_eq!(p.off(off, 1, 0).rows, 3);
        }
        assert_eq!(a.tile(1, 0).at(0, 0), 42.0);
    }

    #[test]
    fn views_of_distinct_tiles_do_not_alias() {
        let mut a = TileMatrix::from_dense(&Mat::zeros(4, 4), 2);
        let p = a.ptrs();
        let OffPtr::Dense(off) = p.off else {
            unreachable!("from_dense stores dense tiles")
        };
        unsafe {
            p.diag_mut(0).data.fill(1.0);
            p.diag_mut(1).data.fill(2.0);
            assert_eq!(p.diag(0).at(1, 1), 1.0);
            assert_eq!(p.off(off, 1, 0).at(0, 0), 0.0);
        }
        assert_eq!(a.tile(0, 0).at(1, 1), 1.0);
        assert_eq!(a.tile(1, 1).at(1, 1), 2.0);
        assert_eq!(a.tile(1, 0).at(0, 0), 0.0);
    }
}
