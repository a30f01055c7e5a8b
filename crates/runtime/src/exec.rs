//! Work-stealing execution of [`TaskGraph`]s.
//!
//! The executor plays StarPU's role: a pool of workers drains the ready
//! frontier, decrementing successor counters as tasks retire. Ready tasks go
//! to the executing worker's local deque (LIFO, cache-friendly "follow the
//! data" order); idle workers steal FIFO from peers or the global injector.
//! High-priority tasks (the factorization panel, i.e. the critical path) are
//! published to a dedicated injector that every worker polls first.

use crate::graph::TaskGraph;
use crate::trace::{ExecStats, TaskSpan};
use crossbeam_deque::{Injector, Stealer, Worker as Deque};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::Instant;

/// Shared executor configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads (including the caller's thread).
    pub num_workers: usize,
    /// Record per-task spans (name, worker, start/end) into the stats.
    pub trace: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_workers: default_parallelism(),
            trace: false,
        }
    }
}

/// Available hardware parallelism (≥ 1).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The task-graph executor (StarPU substitute).
pub struct Runtime {
    config: RuntimeConfig,
}

/// A task body in its executor slot; the executing worker takes it exactly
/// once.
type TaskSlot = Mutex<Option<Box<dyn FnOnce() + Send>>>;

struct Shared<'g> {
    tasks: Vec<TaskSlot>,
    succs: Vec<&'g [u32]>,
    preds_left: Vec<AtomicU32>,
    priority: Vec<u8>,
    names: Vec<&'static str>,
    remaining: AtomicUsize,
    /// Payload of the first task body that panicked; once set, the remaining
    /// tasks retire without running their bodies.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    injector: Injector<u32>,
    hi_injector: Injector<u32>,
    stealers: Vec<Stealer<u32>>,
}

impl Runtime {
    /// Executor with `num_workers` threads (clamped to ≥ 1), no tracing.
    pub fn new(num_workers: usize) -> Self {
        Runtime {
            config: RuntimeConfig {
                num_workers: num_workers.max(1),
                trace: false,
            },
        }
    }

    /// Executor using all available cores.
    pub fn max_parallel() -> Self {
        Runtime {
            config: RuntimeConfig::default(),
        }
    }

    /// Executor from an explicit configuration.
    pub fn with_config(config: RuntimeConfig) -> Self {
        let mut config = config;
        config.num_workers = config.num_workers.max(1);
        Runtime { config }
    }

    pub fn num_workers(&self) -> usize {
        self.config.num_workers
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
            return ExecStats::empty(self.config.num_workers);
        }
        let nw = self.config.num_workers.min(n).max(1);

        // Decompose the graph into executor-friendly arrays.
        let mut funcs: Vec<TaskSlot> = Vec::with_capacity(n);
        let mut preds_left = Vec::with_capacity(n);
        let mut priority = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        for t in graph.tasks.iter_mut() {
            funcs.push(Mutex::new(t.func.take()));
            preds_left.push(AtomicU32::new(t.n_preds));
            priority.push(t.priority);
            names.push(t.name);
        }
        let succs: Vec<&[u32]> = graph.tasks.iter().map(|t| t.succs.as_slice()).collect();

        let deques: Vec<Deque<u32>> = (0..nw).map(|_| Deque::new_fifo()).collect();
        let stealers: Vec<Stealer<u32>> = deques.iter().map(|d| d.stealer()).collect();

        let shared = Shared {
            tasks: funcs,
            succs,
            preds_left,
            priority,
            names,
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            injector: Injector::new(),
            hi_injector: Injector::new(),
            stealers,
        };
        // Seed the ready frontier.
        for root in graph.roots() {
            if shared.priority[root as usize] > 0 {
                shared.hi_injector.push(root);
            } else {
                shared.injector.push(root);
            }
        }

        let spans: Vec<Mutex<Vec<TaskSpan>>> = (0..nw).map(|_| Mutex::new(Vec::new())).collect();
        let executed: Vec<AtomicUsize> = (0..nw).map(|_| AtomicUsize::new(0)).collect();
        let busy_ns: Vec<AtomicUsize> = (0..nw).map(|_| AtomicUsize::new(0)).collect();
        let trace = self.config.trace;

        std::thread::scope(|scope| {
            let shared = &shared;
            let spans = &spans;
            let executed = &executed;
            let busy_ns = &busy_ns;
            let mut deque_iter = deques.into_iter();
            let my_deque = deque_iter.next().expect("at least one worker");
            for (wid, deque) in deque_iter.enumerate() {
                scope.spawn(move || {
                    worker_loop(
                        wid + 1,
                        deque,
                        shared,
                        trace,
                        start,
                        &spans[wid + 1],
                        &executed[wid + 1],
                        &busy_ns[wid + 1],
                    );
                });
            }
            // The calling thread is worker 0.
            worker_loop(
                0,
                my_deque,
                shared,
                trace,
                start,
                &spans[0],
                &executed[0],
                &busy_ns[0],
            );
        });

        if let Some(payload) = shared.panic.into_inner() {
            resume_unwind(payload);
        }
        let wall = start.elapsed().as_secs_f64();
        let mut all_spans = Vec::new();
        for s in &spans {
            all_spans.extend(s.lock().drain(..));
        }
        all_spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        ExecStats {
            wall_seconds: wall,
            tasks_executed: n,
            edges: graph.n_edges,
            workers: nw,
            per_worker_tasks: executed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            busy_seconds: busy_ns
                .iter()
                .map(|c| c.load(Ordering::Relaxed) as f64 * 1e-9)
                .sum(),
            critical_path_tasks: graph.critical_path_len(),
            spans: all_spans,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    wid: usize,
    local: Deque<u32>,
    shared: &Shared<'_>,
    trace: bool,
    epoch: Instant,
    span_sink: &Mutex<Vec<TaskSpan>>,
    executed: &AtomicUsize,
    busy_ns: &AtomicUsize,
) {
    let mut spins = 0u32;
    loop {
        if shared.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        let task = find_task(&local, shared);
        let Some(tid) = task else {
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
        let func = shared.tasks[tid as usize]
            .lock()
            .take()
            .expect("task executed twice");
        let t0 = Instant::now();
        let s0 = t0.duration_since(epoch).as_secs_f64();
        if shared.panic.lock().is_none() {
            // A panic that escaped here would leave `remaining` above zero
            // and the other workers spinning forever.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(func)) {
                shared.panic.lock().get_or_insert(payload);
            }
        }
        let dur = t0.elapsed();
        busy_ns.fetch_add(dur.as_nanos() as usize, Ordering::Relaxed);
        executed.fetch_add(1, Ordering::Relaxed);
        if trace {
            span_sink.lock().push(TaskSpan {
                name: shared.names[tid as usize],
                worker: wid,
                start: s0,
                end: s0 + dur.as_secs_f64(),
            });
        }
        // Retire: release successors.
        for &s in shared.succs[tid as usize] {
            // ORDERING: AcqRel — Release publishes this task's tile writes to
            // the successor; the final decrement's Acquire pairs with every
            // predecessor's Release so the successor sees all of them.
            if shared.preds_left[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                if shared.priority[s as usize] > 0 {
                    shared.hi_injector.push(s);
                } else {
                    local.push(s);
                }
            }
        }
        // ORDERING: AcqRel — the zero-observing decrement's Acquire pairs
        // with every worker's Release, so whoever sees completion also sees
        // all task effects.
        shared.remaining.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Task acquisition order: high-priority injector, local deque, global
/// injector, then steal from peers.
fn find_task(local: &Deque<u32>, shared: &Shared<'_>) -> Option<u32> {
    loop {
        match shared.hi_injector.steal() {
            crossbeam_deque::Steal::Success(t) => return Some(t),
            crossbeam_deque::Steal::Retry => continue,
            crossbeam_deque::Steal::Empty => break,
        }
    }
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        match shared.injector.steal() {
            crossbeam_deque::Steal::Success(t) => return Some(t),
            crossbeam_deque::Steal::Retry => continue,
            crossbeam_deque::Steal::Empty => break,
        }
    }
    for st in &shared.stealers {
        loop {
            match st.steal() {
                crossbeam_deque::Steal::Success(t) => return Some(t),
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
    }
    None
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
                log.lock().push(i);
            });
        }
        Runtime::new(8).run(g);
        let log = log.lock();
        assert_eq!(*log, (0..64).collect::<Vec<_>>());
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
            move || s.lock().push("a"),
        );
        let s = state.clone();
        g.submit("b", 0, &[(h, Access::ReadWrite)], move || {
            s.lock().push("b")
        });
        let s = state.clone();
        g.submit("c", 0, &[(h2, Access::ReadWrite)], move || {
            s.lock().push("c")
        });
        let s = state.clone();
        g.submit(
            "d",
            0,
            &[(h, Access::Read), (h2, Access::Read)],
            move || s.lock().push("d"),
        );
        Runtime::new(4).run(g);
        let log = state.lock();
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
        let mut g = TaskGraph::new();
        let h = g.register();
        for _ in 0..20 {
            g.submit("w", 0, &[(h, Access::Write)], || {
                std::hint::black_box(busy_work(1000));
            });
        }
        let rt = Runtime::with_config(RuntimeConfig {
            num_workers: 4,
            trace: true,
        });
        let stats = rt.run(g);
        assert_eq!(stats.spans.len(), 20);
        // Serialized chain: spans must not overlap.
        for w in stats.spans.windows(2) {
            assert!(w[1].start >= w[0].end - 1e-9);
        }
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
        // All tasks are independent; priority ones should be picked first by
        // the single worker after the seed ordering.
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..10 {
            let h = g.register();
            let ord = order.clone();
            let pri = if i >= 5 { 1 } else { 0 };
            g.submit("t", pri, &[(h, Access::Write)], move || {
                ord.lock().push(i);
            });
        }
        Runtime::new(1).run(g);
        let order = order.lock();
        // The five high-priority tasks (5..10) must all run before the
        // low-priority ones.
        let pos_hi: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, &v)| v >= 5)
            .map(|(p, _)| p)
            .collect();
        assert!(pos_hi.iter().all(|&p| p < 5), "order={order:?}");
    }
}
