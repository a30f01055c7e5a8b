//! A StarPU-like sequential-task-flow (STF) runtime.
//!
//! The paper's software stack executes its tile algorithms through the
//! [StarPU](https://starpu.gitlabpages.inria.fr/) dynamic runtime: algorithms
//! are written as sequential loop nests submitting *tasks* that declare how
//! they access *data handles*; the runtime infers the dependency DAG and
//! executes it asynchronously over the machine. This crate rebuilds that
//! model from scratch:
//!
//! * [`TaskGraph`] — handle registration, task submission with
//!   [`Access::Read`]/[`Access::Write`]/[`Access::ReadWrite`] modes, automatic
//!   dependency inference (last-writer/readers tracking).
//! * [`Runtime`] — a worker pool draining one [`ReadyQueue`] (highest
//!   [`Priority`] first, then release order), with per-worker statistics
//!   ([`ExecStats`]). The `exa-distsim` simulator queues each node's ready
//!   tasks in the same type.
//! * [`parallel_for`]/[`parallel_map`]/[`parallel_update`] — bulk-synchronous
//!   fork-join helpers used by the paper's "Full-block" baseline and by data
//!   generation.
//! * [`chol`] — the tile Cholesky and triangular-solve task DAGs
//!   ([`CholTask`], [`SolveTask`]) and the drivers that submit them; the
//!   dense tile, TLR and simulated factorizations all take the DAG from here.
//!
//! # Example
//!
//! ```
//! use exa_runtime::{Access, Runtime, TaskGraph};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let mut graph = TaskGraph::new();
//! let data = Arc::new(AtomicUsize::new(0));
//! let h = graph.register();
//! for _ in 0..10 {
//!     let d = data.clone();
//!     graph.submit("inc", 0, &[(h, Access::ReadWrite)], move || {
//!         d.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! let stats = Runtime::new(4).run(graph);
//! assert_eq!(data.load(Ordering::Relaxed), 10);
//! assert_eq!(stats.tasks_executed, 10);
//! ```

pub mod chol;
pub mod exec;
pub mod graph;
pub mod parallel;
pub mod ready;
pub mod trace;

pub use chol::{CholTask, SolveTask, TriangularSide};
pub use exec::{default_parallelism, Runtime};
pub use graph::{Access, Handle, Priority, TaskGraph, TaskId};
pub use parallel::{parallel_for, parallel_map, parallel_update};
pub use ready::ReadyQueue;
pub use trace::ExecStats;
