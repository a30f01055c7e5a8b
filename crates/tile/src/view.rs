//! Raw tile views for capturing tiles inside `'static` task closures.
//!
//! The task graph requires `FnOnce() + Send + 'static` closures, but tasks
//! operate on tiles owned by a `TileMatrix` living on the caller's stack. The
//! algorithms in this crate therefore capture [`TileView`]s — raw
//! pointer/length pairs — and the STF dependency system guarantees exclusive
//! or shared access according to the declared [`exa_runtime::Access`] modes.
//!
//! Safety contract (upheld by every algorithm in this crate):
//! 1. each `TileView` maps 1:1 to one runtime handle, so the inferred DAG
//!    serializes writers against readers and other writers of the same tile;
//! 2. the owning `TileMatrix` outlives `Runtime::run` (the algorithms run the
//!    graph synchronously before returning);
//! 3. tiles are separate `Vec` allocations, so distinct views never alias.

use crate::layout::TileMatrix;
use exa_linalg::Mat;

/// A raw, `Send`able view of one tile's buffer.
#[derive(Clone, Copy, Debug)]
pub struct TileView {
    ptr: *mut f64,
    len: usize,
    /// Tile row count (leading dimension of the column-major buffer).
    pub rows: usize,
    /// Tile column count.
    pub cols: usize,
}

// SAFETY: a TileView is a plain pointer/length pair; cross-thread access is
// serialized by the runtime's STF dependency DAG (contract points 1–3 in the
// module docs), so sending or sharing the view itself is benign.
unsafe impl Send for TileView {}
// SAFETY: as above — &TileView only exposes the raw parts; dereferencing
// requires the unsafe accessors whose contracts demand runtime-granted access.
unsafe impl Sync for TileView {}

impl TileView {
    pub(crate) fn new(ptr: *mut f64, len: usize, rows: usize, cols: usize) -> Self {
        debug_assert!(len >= rows * cols);
        TileView {
            ptr,
            len,
            rows,
            cols,
        }
    }

    /// Immutable slice of the tile buffer.
    ///
    /// # Safety
    /// Caller must hold a runtime-granted `Read` (or stronger) access for the
    /// duration of the borrow, and the owning `TileMatrix` must be alive.
    #[inline]
    pub unsafe fn as_slice<'a>(self) -> &'a [f64] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mutable slice of the tile buffer.
    ///
    /// # Safety
    /// Caller must hold a runtime-granted `Write`/`ReadWrite` access for the
    /// duration of the borrow, and the owning `TileMatrix` must be alive.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut_slice<'a>(self) -> &'a mut [f64] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

/// A raw, `Send`able view of one `nb`-row block of a dense column-major
/// right-hand-side matrix: the unit the tile and TLR triangular solves
/// declare to the runtime.
///
/// Safety contract mirrors [`TileView`]: one view per runtime handle, the
/// owning `Mat` outlives the synchronous `Runtime::run`, and row blocks are
/// accessed strictly through the declared access modes.
#[derive(Clone, Copy, Debug)]
pub struct RhsView {
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
    pub unsafe fn as_mut_slice<'a>(self) -> &'a mut [f64] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.ld * (self.cols - 1) + self.rows) }
    }

    /// # Safety
    /// Caller must hold runtime-granted `Read` (or stronger) access to the
    /// block, and the owning `Mat` must be alive.
    #[inline]
    pub unsafe fn as_slice<'a>(self) -> &'a [f64] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.ld * (self.cols - 1) + self.rows) }
    }
}

/// Splits `b` (with at least one column) into views of its `nb`-row blocks.
pub fn rhs_views(b: &mut Mat, nb: usize) -> Vec<RhsView> {
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
pub struct FactorRef<T>(*const T);

// SAFETY: a FactorRef only ever yields `&T`, which `T: Sync` makes safe to
// use from any thread.
unsafe impl<T: Sync> Send for FactorRef<T> {}
// SAFETY: as above.
unsafe impl<T: Sync> Sync for FactorRef<T> {}

impl<T> FactorRef<T> {
    pub fn new(factor: &T) -> Self {
        FactorRef(factor)
    }

    /// # Safety
    /// The borrow passed to [`FactorRef::new`] must still be live: the solve
    /// that created this value must not have returned yet.
    #[inline]
    pub unsafe fn get<'a>(&self) -> &'a T {
        unsafe { &*self.0 }
    }
}

impl TileMatrix {
    /// A [`TileView`] of tile `(i, j)`.
    pub fn view(&mut self, i: usize, j: usize) -> TileView {
        let rows = self.tile_rows(i);
        let cols = self.tile_cols(j);
        let (ptr, len) = self.tile_raw(i, j);
        TileView::new(ptr, len, rows, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_reads_and_writes_tile_data() {
        let mut a = TileMatrix::zeros(6, 6, 3);
        let v = a.view(1, 0);
        unsafe {
            v.as_mut_slice()[0] = 42.0;
        }
        assert_eq!(a.tile(1, 0).at(0, 0), 42.0);
        assert_eq!(v.rows, 3);
        assert_eq!(v.cols, 3);
    }

    #[test]
    fn views_of_distinct_tiles_do_not_alias() {
        let mut a = TileMatrix::zeros(4, 4, 2);
        let v00 = a.view(0, 0);
        let v11 = a.view(1, 1);
        unsafe {
            v00.as_mut_slice().fill(1.0);
            v11.as_mut_slice().fill(2.0);
        }
        assert_eq!(a.tile(0, 0).at(1, 1), 1.0);
        assert_eq!(a.tile(1, 1).at(1, 1), 2.0);
        assert_eq!(a.tile(0, 1).at(0, 0), 0.0);
    }
}
