//! The right-looking tile Cholesky and its triangular solves, described once.
//!
//! ```text
//! for k in 0..nt:
//!     POTRF(A[k][k])
//!     for i in k+1..nt:      TRSM(A[k][k] → A[i][k])
//!     for j in k+1..nt:      SYRK(A[j][k] → A[j][j])
//!         for i in j+1..nt:  GEMM(A[i][k], A[j][k] → A[i][j])
//! ```
//!
//! [`CholTask::for_each`] is that nest; the dense tile factorization, the TLR
//! factorization (the same DAG with low-rank off-diagonal kernels, as HiCMA
//! submits it) and the distributed simulator all iterate it, and take each
//! task's tiles and priority from here. [`factor`] and [`solve`] submit the
//! tasks to a [`TaskGraph`] and run it; a backend supplies only the kernel
//! that executes one task on its own storage.

use crate::exec::lock;
use crate::{Access, ExecStats, Priority, Runtime, TaskGraph};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Tile coordinates `(row, column)` in the lower triangle (`row ≥ column`).
pub type TileIdx = (usize, usize);

/// One task of the tile Cholesky `A = L·Lᵀ` over an `nt × nt` tile grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CholTask {
    /// Cholesky of diagonal tile `k`.
    Potrf { k: usize },
    /// Panel triangular solve of tile `(i, k)` against `L[k][k]`.
    Trsm { k: usize, i: usize },
    /// Symmetric rank update of diagonal tile `j` from panel tile `(j, k)`.
    Syrk { k: usize, j: usize },
    /// Trailing update of tile `(i, j)` from panel tiles `(i, k)`, `(j, k)`.
    Gemm { k: usize, j: usize, i: usize },
}

impl CholTask {
    /// Calls `f` on every task of an `nt`-tile factorization in submission
    /// order (the loop nest in the module docs).
    pub fn for_each(nt: usize, mut f: impl FnMut(CholTask)) {
        for k in 0..nt {
            f(CholTask::Potrf { k });
            for i in k + 1..nt {
                f(CholTask::Trsm { k, i });
            }
            for j in k + 1..nt {
                f(CholTask::Syrk { k, j });
                for i in j + 1..nt {
                    f(CholTask::Gemm { k, j, i });
                }
            }
        }
    }

    /// Trace label.
    pub fn name(self) -> &'static str {
        match self {
            CholTask::Potrf { .. } => "potrf",
            CholTask::Trsm { .. } => "trsm",
            CholTask::Syrk { .. } => "syrk",
            CholTask::Gemm { .. } => "gemm",
        }
    }

    /// Panel tasks sit on the critical path; running them first is what lets
    /// trailing updates of consecutive panels overlap (the lookahead the
    /// paper credits for tile > block). See [`Priority`] for what the
    /// executor makes of the values.
    pub fn priority(self) -> Priority {
        match self {
            CholTask::Potrf { .. } => 2,
            CholTask::Trsm { .. } => 1,
            CholTask::Syrk { .. } | CholTask::Gemm { .. } => 0,
        }
    }

    /// The tile this task updates in place.
    pub fn output(self) -> TileIdx {
        match self {
            CholTask::Potrf { k } => (k, k),
            CholTask::Trsm { k, i } => (i, k),
            CholTask::Syrk { j, .. } => (j, j),
            CholTask::Gemm { j, i, .. } => (i, j),
        }
    }

    /// The finished factor tiles this task reads.
    pub fn inputs(self) -> impl Iterator<Item = TileIdx> {
        let (tiles, n) = match self {
            CholTask::Potrf { .. } => ([(0, 0); 2], 0),
            CholTask::Trsm { k, .. } => ([(k, k), (0, 0)], 1),
            CholTask::Syrk { k, j } => ([(j, k), (0, 0)], 1),
            CholTask::Gemm { k, j, i } => ([(i, k), (j, k)], 2),
        };
        tiles.into_iter().take(n)
    }

    /// The task whose completion makes `tile` a finished part of `L`.
    pub fn finishing(tile: TileIdx) -> CholTask {
        match tile {
            (i, k) if i == k => CholTask::Potrf { k },
            (i, k) => CholTask::Trsm { k, i },
        }
    }
}

/// Which triangular system [`solve`] solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriangularSide {
    /// Solve `L · X = B` (forward substitution).
    Forward,
    /// Solve `Lᵀ · X = B` (backward substitution).
    Backward,
}

/// One task of a tile triangular solve on a right-hand side split into `nt`
/// row blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveTask {
    /// `B[k] ← op(L[k][k])⁻¹ · B[k]`.
    Trsm { k: usize },
    /// `B[i] ← B[i] − op(L)[i][k] · B[k]`: forward reads tile `(i, k)`,
    /// backward reads tile `(k, i)` transposed.
    Gemm { k: usize, i: usize },
}

impl SolveTask {
    /// Calls `f` on every task of the solve in submission order.
    pub fn for_each(nt: usize, side: TriangularSide, mut f: impl FnMut(SolveTask)) {
        for step in 0..nt {
            let (k, rest) = match side {
                TriangularSide::Forward => (step, step + 1..nt),
                TriangularSide::Backward => (nt - 1 - step, 0..nt - 1 - step),
            };
            f(SolveTask::Trsm { k });
            for i in rest {
                f(SolveTask::Gemm { k, i });
            }
        }
    }

    /// Trace label.
    pub fn name(self) -> &'static str {
        match self {
            SolveTask::Trsm { .. } => "trsm-rhs",
            SolveTask::Gemm { .. } => "gemm-rhs",
        }
    }

    /// Every solve task is on or next to the block chain.
    pub fn priority(self) -> Priority {
        match self {
            SolveTask::Trsm { .. } => 2,
            SolveTask::Gemm { .. } => 1,
        }
    }
}

/// First-failure latch: once set, the remaining tasks of the graph retire
/// without running, as a runtime cancels a numerically failed factorization.
struct Poison<E> {
    failed: AtomicBool,
    first: Mutex<Option<E>>,
}

impl<E> Poison<E> {
    fn poisoned(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn set(&self, err: E) {
        lock(&self.first).get_or_insert(err);
        self.failed.store(true, Ordering::Release);
    }
}

/// Submits the tile Cholesky of an `nt × nt` grid and runs it: one handle per
/// tile, each task reading [`CholTask::inputs`] and updating
/// [`CholTask::output`]. `kernel` executes one task; the graph guarantees it
/// exclusive access to the output tile and shared access to the inputs.
///
/// Returns the first error any kernel call reported (tasks after it do not
/// run, so the matrix is left partially factored).
pub fn factor<E: Send + 'static>(
    nt: usize,
    rt: &Runtime,
    kernel: impl Fn(CholTask) -> Result<(), E> + Send + Sync + 'static,
) -> Result<ExecStats, E> {
    let mut graph = TaskGraph::new();
    let handles = graph.register_many(nt * nt);
    let h = |(i, j): TileIdx| handles[i + j * nt];
    let shared = Arc::new((
        kernel,
        Poison {
            failed: AtomicBool::new(false),
            first: Mutex::new(None),
        },
    ));
    CholTask::for_each(nt, |task| {
        let accesses: Vec<_> = task
            .inputs()
            .map(|t| (h(t), Access::Read))
            .chain([(h(task.output()), Access::ReadWrite)])
            .collect();
        let shared = shared.clone();
        graph.submit(task.name(), task.priority(), &accesses, move || {
            let (kernel, poison) = &*shared;
            if !poison.poisoned() {
                if let Err(e) = kernel(task) {
                    poison.set(e);
                }
            }
        });
    });
    let stats = rt.run(graph);
    let first = lock(&shared.1.first).take();
    first.map_or(Ok(stats), Err)
}

/// Submits a tile triangular solve over `nt` right-hand-side row blocks and
/// runs it: one handle per block. The factor is only read, so it needs no
/// handles; `kernel` gets exclusive access to the block a task updates
/// (`k` for [`SolveTask::Trsm`], `i` for [`SolveTask::Gemm`]) and shared
/// access to block `k` of a `Gemm`.
pub fn solve(
    nt: usize,
    side: TriangularSide,
    rt: &Runtime,
    kernel: impl Fn(SolveTask) + Send + Sync + 'static,
) -> ExecStats {
    let mut graph = TaskGraph::new();
    let b = graph.register_many(nt);
    let kernel = Arc::new(kernel);
    SolveTask::for_each(nt, side, |task| {
        let accesses = match task {
            SolveTask::Trsm { k } => vec![(b[k], Access::ReadWrite)],
            SolveTask::Gemm { k, i } => vec![(b[k], Access::Read), (b[i], Access::ReadWrite)],
        };
        let kernel = kernel.clone();
        graph.submit(task.name(), task.priority(), &accesses, move || {
            kernel(task)
        });
    });
    rt.run(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts_and_critical_path_match_the_formulas() {
        for nt in 1..=8usize {
            let mut count = 0;
            CholTask::for_each(nt, |_| count += 1);
            // potrf nt, trsm and syrk nt(nt-1)/2 each, gemm C(nt,3).
            let expected = nt + nt * (nt - 1) + nt * (nt - 1) * nt.saturating_sub(2) / 6;
            assert_eq!(count, expected, "nt={nt}");
            let stats = factor(nt, &Runtime::new(2), |_| Ok::<(), ()>(())).unwrap();
            assert_eq!(stats.tasks_executed, expected);
            // potrf → trsm → syrk per panel, and the last potrf.
            assert_eq!(stats.critical_path_tasks, 3 * (nt - 1) + 1);
        }
    }

    #[test]
    fn every_input_is_finished_before_it_is_read() {
        let nt = 6;
        let mut done = std::collections::BTreeSet::new();
        CholTask::for_each(nt, |task| {
            for tile in task.inputs() {
                assert!(done.contains(&CholTask::finishing(tile)), "{task:?}");
            }
            assert!(done.insert(task));
        });
    }

    #[test]
    fn first_error_wins_and_later_tasks_are_skipped() {
        let ran = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = ran.clone();
        let err = factor(5, &Runtime::new(1), move |task| {
            seen.fetch_add(1, Ordering::Relaxed);
            match task {
                CholTask::Potrf { k: 1 } => Err(task),
                _ => Ok(()),
            }
        })
        .unwrap_err();
        assert_eq!(err, CholTask::Potrf { k: 1 });
        assert!(ran.load(Ordering::Relaxed) < 35, "all 35 tasks ran");
    }

    #[test]
    fn solve_sweeps_visit_blocks_in_substitution_order() {
        let order = |side| {
            let mut seen = Vec::new();
            SolveTask::for_each(3, side, |t| seen.push(t));
            seen
        };
        use SolveTask::{Gemm, Trsm};
        assert_eq!(
            order(TriangularSide::Forward),
            [
                Trsm { k: 0 },
                Gemm { k: 0, i: 1 },
                Gemm { k: 0, i: 2 },
                Trsm { k: 1 },
                Gemm { k: 1, i: 2 },
                Trsm { k: 2 }
            ]
        );
        assert_eq!(
            order(TriangularSide::Backward),
            [
                Trsm { k: 2 },
                Gemm { k: 2, i: 0 },
                Gemm { k: 2, i: 1 },
                Trsm { k: 1 },
                Gemm { k: 1, i: 0 },
                Trsm { k: 0 }
            ]
        );
        let stats = solve(4, TriangularSide::Backward, &Runtime::new(2), |_| {});
        assert_eq!(stats.tasks_executed, 4 + 6);
    }
}
