//! Sequential-task-flow (STF) graph construction.
//!
//! Mirrors StarPU's programming model: the algorithm is written as a
//! *sequential* loop nest that submits tasks declaring how they access data
//! handles (`Read`, `Write`, `ReadWrite`); the graph derives the dependency
//! DAG from the submission order:
//!
//! * a reader depends on the last writer of each handle it reads;
//! * a writer depends on the last writer **and** every reader that appeared
//!   since (readers may run concurrently with each other, never with a
//!   writer).
//!
//! This is exactly the dependency semantics that lets the dense tile Cholesky
//! and the TLR Cholesky in this workspace be written as their textbook
//! sequential loop nests while executing fully asynchronously.

/// How a task accesses a data handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
    ReadWrite,
}

/// An opaque identifier for a logical piece of data (e.g. one tile).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Handle(pub(crate) u32);

/// Identifier of a submitted task within its graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskId(pub(crate) u32);

/// Task priority: among ready tasks a larger value runs first, and equal
/// values run in the order they became ready (see [`crate::ReadyQueue`]).
pub type Priority = u8;

pub(crate) struct TaskNode {
    pub(crate) func: Option<Box<dyn FnOnce() + Send>>,
    pub(crate) succs: Vec<u32>,
    pub(crate) n_preds: u32,
    pub(crate) priority: Priority,
}

#[derive(Default)]
struct HandleState {
    last_writer: Option<u32>,
    readers_since_write: Vec<u32>,
}

/// A task graph under construction (one StarPU "session").
#[derive(Default)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<TaskNode>,
    handles: Vec<HandleState>,
    pub(crate) n_edges: usize,
}

impl TaskGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a logical datum and returns its handle.
    pub fn register(&mut self) -> Handle {
        let id = self.handles.len() as u32;
        self.handles.push(HandleState::default());
        Handle(id)
    }

    /// Registers `n` handles at once (e.g. one per tile).
    pub fn register_many(&mut self, n: usize) -> Vec<Handle> {
        (0..n).map(|_| self.register()).collect()
    }

    /// Number of submitted tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no tasks have been submitted.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of dependency edges inferred so far.
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// Submits a task accessing the given handles; dependencies on previously
    /// submitted tasks are inferred from the access modes.
    ///
    /// `_name` labels the task at the submission site (e.g.
    /// [`crate::CholTask::name`]); the executor does not record it.
    pub fn submit(
        &mut self,
        _name: &'static str,
        priority: Priority,
        accesses: &[(Handle, Access)],
        func: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        let id = self.tasks.len() as u32;
        let mut preds: Vec<u32> = Vec::new();
        for &(h, mode) in accesses {
            let state = &mut self.handles[h.0 as usize];
            match mode {
                Access::Read => {
                    if let Some(w) = state.last_writer {
                        preds.push(w);
                    }
                    state.readers_since_write.push(id);
                }
                Access::Write | Access::ReadWrite => {
                    if let Some(w) = state.last_writer {
                        preds.push(w);
                    }
                    preds.extend_from_slice(&state.readers_since_write);
                    state.readers_since_write.clear();
                    state.last_writer = Some(id);
                }
            }
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != id);
        let n_preds = preds.len() as u32;
        self.n_edges += preds.len();
        for &p in &preds {
            self.tasks[p as usize].succs.push(id);
        }
        self.tasks.push(TaskNode {
            func: Some(Box::new(func)),
            succs: Vec::new(),
            n_preds,
            priority,
        });
        TaskId(id)
    }

    /// The task IDs with no predecessors (the initial ready frontier).
    pub(crate) fn roots(&self) -> Vec<u32> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.n_preds == 0)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Length (in task count) of the longest dependency chain; a unit-cost
    /// critical path used by scheduler statistics and tests.
    pub fn critical_path_len(&self) -> usize {
        let n = self.tasks.len();
        let mut depth = vec![0u32; n];
        // Tasks are topologically ordered by construction (edges only point
        // from lower to higher ids).
        let mut longest = 0u32;
        for i in 0..n {
            let d = depth[i] + 1;
            longest = longest.max(d);
            for &s in &self.tasks[i].succs {
                depth[s as usize] = depth[s as usize].max(d);
            }
        }
        longest as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() {}

    #[test]
    fn chain_of_writers_serializes() {
        let mut g = TaskGraph::new();
        let h = g.register();
        let _t0 = g.submit("w0", 0, &[(h, Access::Write)], noop);
        let _t1 = g.submit("w1", 0, &[(h, Access::Write)], noop);
        let _t2 = g.submit("w2", 0, &[(h, Access::Write)], noop);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.critical_path_len(), 3);
        assert_eq!(g.roots(), vec![0]);
    }

    #[test]
    fn readers_run_concurrently_between_writers() {
        let mut g = TaskGraph::new();
        let h = g.register();
        g.submit("w", 0, &[(h, Access::Write)], noop);
        g.submit("r1", 0, &[(h, Access::Read)], noop);
        g.submit("r2", 0, &[(h, Access::Read)], noop);
        g.submit("w2", 0, &[(h, Access::Write)], noop);
        // r1, r2 depend on w; w2 depends on w (dedup via readers) + r1 + r2.
        assert_eq!(g.tasks[0].succs, vec![1, 2, 3]);
        assert_eq!(g.tasks[3].n_preds, 3);
        // Readers are mutually independent: critical path = w -> r -> w2.
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn duplicate_handle_access_deduplicates_preds() {
        let mut g = TaskGraph::new();
        let a = g.register();
        let b = g.register();
        g.submit("w", 0, &[(a, Access::Write), (b, Access::Write)], noop);
        let t = g.submit("rw", 0, &[(a, Access::Read), (b, Access::ReadWrite)], noop);
        assert_eq!(g.tasks[t.0 as usize].n_preds, 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn independent_handles_no_edges() {
        let mut g = TaskGraph::new();
        let hs = g.register_many(8);
        for &h in &hs {
            g.submit("w", 0, &[(h, Access::Write)], noop);
        }
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.critical_path_len(), 1);
        assert_eq!(g.roots().len(), 8);
    }

    #[test]
    fn read_after_read_after_write_tracks_last_writer_only() {
        let mut g = TaskGraph::new();
        let h = g.register();
        g.submit("w", 0, &[(h, Access::Write)], noop);
        g.submit("r1", 0, &[(h, Access::Read)], noop);
        let r2 = g.submit("r2", 0, &[(h, Access::Read)], noop);
        // r2 depends only on the writer, not on r1.
        assert_eq!(g.tasks[r2.0 as usize].n_preds, 1);
    }
}
