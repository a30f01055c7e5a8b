//! Execution of [`TaskGraph`]s on a pool of workers.
//!
//! The executor plays StarPU's role: workers drain the ready frontier,
//! decrementing successor counters as tasks retire. Every ready task waits in
//! one [`ReadyQueue`] — highest priority first, then release order — kept
//! under one mutex beside the bodies not yet taken. A worker pops a task and
//! takes its body under one lock acquisition; a retiring task releases every
//! successor it made ready under one more. There are no per-worker queues and
//! no stealing, and the `exa-distsim` simulator models each node with the
//! same [`ReadyQueue`].

use crate::graph::{Priority, TaskGraph};
use crate::ready::ReadyQueue;
use crate::trace::ExecStats;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Available hardware parallelism (≥ 1).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Locks `m`, recovering the data if a holder panicked: no guard here is
/// held across a task body, so the data is consistent either way.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The task-graph executor (StarPU substitute).
pub struct Runtime {
    num_workers: usize,
}

/// The ready tasks and every body not yet taken, indexed by task id.
struct Ready {
    queue: ReadyQueue<u32>,
    bodies: Vec<Option<Box<dyn FnOnce() + Send>>>,
}

struct Shared<'g> {
    ready: Mutex<Ready>,
    succs: Vec<&'g [u32]>,
    preds_left: Vec<AtomicU32>,
    priority: Vec<Priority>,
    remaining: AtomicUsize,
    /// Payload of the first task body that panicked; once set, the remaining
    /// tasks retire without running their bodies.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Runtime {
    /// Executor with `num_workers` threads, the caller's included (clamped
    /// to ≥ 1).
    pub fn new(num_workers: usize) -> Self {
        Runtime {
            num_workers: num_workers.max(1),
        }
    }

    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Executes every task in the graph, respecting the inferred
    /// dependencies; returns scheduling statistics.
    ///
    /// If a task body panics, the bodies of the tasks that have not started
    /// are skipped, every worker stops, and the first panic resumes on the
    /// calling thread. Numerical failures are not panics: the tile layer
    /// reports them through [`crate::chol::factor`]'s return value.
    pub fn run(&self, mut graph: TaskGraph) -> ExecStats {
        let n = graph.tasks.len();
        let start = Instant::now();
        if n == 0 {
            return ExecStats::empty(self.num_workers);
        }
        let nw = self.num_workers.min(n);

        let mut ready = Ready {
            queue: ReadyQueue::default(),
            bodies: graph.tasks.iter_mut().map(|t| t.func.take()).collect(),
        };
        for root in graph.roots() {
            ready.queue.push(graph.tasks[root as usize].priority, root);
        }
        let shared = Shared {
            ready: Mutex::new(ready),
            succs: graph.tasks.iter().map(|t| t.succs.as_slice()).collect(),
            preds_left: graph
                .tasks
                .iter()
                .map(|t| AtomicU32::new(t.n_preds))
                .collect(),
            priority: graph.tasks.iter().map(|t| t.priority).collect(),
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
        };

        let executed: Vec<AtomicUsize> = (0..nw).map(|_| AtomicUsize::new(0)).collect();
        let busy_ns: Vec<AtomicUsize> = (0..nw).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for wid in 1..nw {
                let (shared, executed, busy_ns) = (&shared, &executed[wid], &busy_ns[wid]);
                scope.spawn(move || worker_loop(shared, executed, busy_ns));
            }
            // The calling thread is worker 0.
            worker_loop(&shared, &executed[0], &busy_ns[0]);
        });

        if let Some(payload) = lock(&shared.panic).take() {
            resume_unwind(payload);
        }
        ExecStats {
            wall_seconds: start.elapsed().as_secs_f64(),
            tasks_executed: n,
            edges: graph.n_edges,
            workers: nw,
            per_worker_tasks: executed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            busy_seconds: busy_ns
                .iter()
                .map(|c| c.load(Ordering::Relaxed) as f64 * 1e-9)
                .sum(),
            critical_path_tasks: graph.critical_path_len(),
        }
    }
}

fn worker_loop(shared: &Shared<'_>, executed: &AtomicUsize, busy_ns: &AtomicUsize) {
    let mut spins = 0u32;
    loop {
        if shared.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        let next = {
            let mut ready = lock(&shared.ready);
            let ready = &mut *ready;
            ready
                .queue
                .pop()
                .map(|tid| (tid, ready.bodies[tid as usize].take()))
        };
        let Some((tid, body)) = next else {
            // Nothing runnable right now: back off politely.
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            continue;
        };
        spins = 0;
        let body = body.expect("task executed twice");
        let t0 = Instant::now();
        if lock(&shared.panic).is_none() {
            // A panic that escaped here would leave `remaining` above zero
            // and the other workers spinning forever.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                lock(&shared.panic).get_or_insert(payload);
            }
        }
        busy_ns.fetch_add(t0.elapsed().as_nanos() as usize, Ordering::Relaxed);
        executed.fetch_add(1, Ordering::Relaxed);
        // Retire: release the successors this task made ready, all under one
        // lock acquisition (taken at the first one).
        let mut ready = None;
        for &s in shared.succs[tid as usize] {
            // ORDERING: AcqRel — Release publishes this task's tile writes to
            // the successor; the final decrement's Acquire pairs with every
            // predecessor's Release so the successor sees all of them.
            if shared.preds_left[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready
                    .get_or_insert_with(|| lock(&shared.ready))
                    .queue
                    .push(shared.priority[s as usize], s);
            }
        }
        drop(ready);
        // ORDERING: AcqRel — the zero-observing decrement's Acquire pairs
        // with every worker's Release, so whoever sees completion also sees
        // all task effects.
        shared.remaining.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, TaskGraph};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_every_task_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let hs = g.register_many(32);
        for &h in &hs {
            for _ in 0..4 {
                let c = counter.clone();
                g.submit("inc", 0, &[(h, Access::ReadWrite)], move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        let stats = Runtime::new(4).run(g);
        assert_eq!(counter.load(Ordering::Relaxed), 128);
        assert_eq!(stats.tasks_executed, 128);
        assert_eq!(stats.per_worker_tasks.iter().sum::<usize>(), 128);
    }

    #[test]
    fn write_chain_executes_in_submission_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let h = g.register();
        for i in 0..64 {
            let log = log.clone();
            g.submit("w", 0, &[(h, Access::Write)], move || {
                lock(&log).push(i);
            });
        }
        Runtime::new(8).run(g);
        assert_eq!(*lock(&log), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn stf_version_semantics_hold_under_parallel_execution() {
        // Random accesses over several handles; each task checks it observes
        // exactly the handle versions implied by the sequential order.
        let mut rng = exa_util::Rng::seed_from_u64(1234);
        let n_handles = 6;
        let versions: Arc<Vec<AtomicU64>> =
            Arc::new((0..n_handles).map(|_| AtomicU64::new(0)).collect());
        let errors = Arc::new(AtomicUsize::new(0));
        let mut expected = vec![0u64; n_handles];
        let mut g = TaskGraph::new();
        let hs = g.register_many(n_handles);
        for _ in 0..500 {
            let h_idx = rng.next_below(n_handles as u64) as usize;
            let write = rng.next_f64() < 0.4;
            let ver = versions.clone();
            let errs = errors.clone();
            if write {
                let expect = expected[h_idx];
                expected[h_idx] += 1;
                g.submit("w", 0, &[(hs[h_idx], Access::Write)], move || {
                    // A writer must observe the version produced by the
                    // previous writer, with no concurrent readers running.
                    if ver[h_idx]
                        .compare_exchange(expect, expect + 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        errs.fetch_add(1, Ordering::Relaxed);
                    }
                });
            } else {
                let expect = expected[h_idx];
                g.submit("r", 0, &[(hs[h_idx], Access::Read)], move || {
                    if ver[h_idx].load(Ordering::SeqCst) != expect {
                        errs.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
        Runtime::new(8).run(g);
        assert_eq!(errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn diamond_dependency_ordering() {
        // a -> {b, c} -> d: d must see both b and c done.
        let state = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        let h = g.register();
        let h2 = g.register();
        let s = state.clone();
        g.submit(
            "a",
            0,
            &[(h, Access::Write), (h2, Access::Write)],
            move || lock(&s).push("a"),
        );
        let s = state.clone();
        g.submit("b", 0, &[(h, Access::ReadWrite)], move || {
            lock(&s).push("b")
        });
        let s = state.clone();
        g.submit("c", 0, &[(h2, Access::ReadWrite)], move || {
            lock(&s).push("c")
        });
        let s = state.clone();
        g.submit(
            "d",
            0,
            &[(h, Access::Read), (h2, Access::Read)],
            move || lock(&s).push("d"),
        );
        Runtime::new(4).run(g);
        let log = lock(&state);
        assert_eq!(log[0], "a");
        assert_eq!(log[3], "d");
    }

    #[test]
    fn single_worker_runs_everything() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g = TaskGraph::new();
        let h = g.register();
        for _ in 0..10 {
            let c = counter.clone();
            g.submit("t", 0, &[(h, Access::Read)], move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        let stats = Runtime::new(1).run(g);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn panicking_task_propagates_instead_of_hanging() {
        for workers in [1, 2] {
            // The run happens on a helper thread so a hang fails the test
            // (through the watchdog below) instead of wedging the suite.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let ran = Arc::new(AtomicUsize::new(0));
                let mut g = TaskGraph::new();
                let h = g.register();
                g.submit("boom", 0, &[(h, Access::Write)], || {
                    panic!("task body failed")
                });
                for _ in 0..4 {
                    let ran = ran.clone();
                    g.submit("after", 0, &[(h, Access::ReadWrite)], move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                let message = catch_unwind(AssertUnwindSafe(|| Runtime::new(workers).run(g)))
                    .err()
                    .and_then(|payload| payload.downcast_ref::<&str>().copied());
                let _ = tx.send((message, ran.load(Ordering::Relaxed)));
            });
            let (message, ran) = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("run() hung after a task panicked, workers={workers}"));
            assert_eq!(message, Some("task body failed"), "workers={workers}");
            assert_eq!(ran, 0, "bodies downstream of the panic must not run");
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let stats = Runtime::new(4).run(TaskGraph::new());
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn trace_spans_respect_dependencies() {
        // A 20-task write chain: the stats see the work and the chain.
        let mut g = TaskGraph::new();
        let h = g.register();
        for _ in 0..20 {
            g.submit("w", 0, &[(h, Access::Write)], || {
                std::hint::black_box(busy_work(1000));
            });
        }
        let stats = Runtime::new(4).run(g);
        assert!(stats.busy_seconds > 0.0);
        assert_eq!(stats.critical_path_tasks, 20);
    }

    fn busy_work(n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    }

    #[test]
    fn parallel_speedup_on_independent_tasks() {
        // Not a strict perf assertion (CI machines vary); just checks that
        // many independent tasks spread across workers.
        let mut g = TaskGraph::new();
        let hs = g.register_many(64);
        for &h in &hs {
            g.submit("t", 0, &[(h, Access::Write)], || {
                std::hint::black_box(busy_work(2_000_000));
            });
        }
        let stats = Runtime::new(4).run(g);
        let nonzero = stats.per_worker_tasks.iter().filter(|&&c| c > 0).count();
        assert!(
            nonzero >= 2,
            "work not distributed: {:?}",
            stats.per_worker_tasks
        );
    }

    #[test]
    fn high_priority_tasks_front_run_the_queue() {
        // Independent tasks with priorities cycling 0, 1, 2 on one worker:
        // every priority-2 task runs first, then every 1, then every 0, each
        // level in submission order.
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..12u8 {
            let h = g.register();
            let ord = order.clone();
            g.submit("t", i % 3, &[(h, Access::Write)], move || {
                lock(&ord).push(i);
            });
        }
        Runtime::new(1).run(g);
        assert_eq!(*lock(&order), [2, 5, 8, 11, 1, 4, 7, 10, 0, 3, 6, 9]);
    }
}
