//! Discrete-event simulation of the distributed tile/TLR Cholesky.
//!
//! The paper's Figures 4–5 run on up to 1024 Cray XC40 nodes; here the task
//! DAG the production factorizations submit ([`exa_runtime::chol`]: the same
//! task type, enumeration, tile sets and priorities) is *simulated*: every
//! task becomes an event with a cost-model duration, executed by one of
//! `cores_per_node` servers on the node owning its output tile under 2D
//! block-cyclic ownership, in the executor's order (a node's waiting tasks
//! sit in an [`exa_runtime::ReadyQueue`]), with panel tiles travelling
//! between nodes at latency + size/bandwidth (transfers to the same
//! destination are cached, as StarPU-MPI caches received handles). The DAG
//! is never materialized: task ids, dependency counts and dependents are
//! derived arithmetically from the `(k, i, j)` structure, so 10⁸-task
//! factorizations fit in memory; a test checks that arithmetic against the
//! materialized production graph.
//!
//! Missing points in Figure 4 are out-of-memory cases; [`check_memory`]
//! reproduces them from per-node resident-set accounting before any
//! simulation runs.

use crate::blockcyclic::BlockCyclic;
use crate::machine::MachineConfig;
use crate::taskmodel::{CostModel, TaskKind};
use exa_runtime::ReadyQueue;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Hard ceiling on simulated task count (keeps the DES within a few GB).
pub const MAX_DES_TASKS: usize = 60_000_000;

/// Why a run could not be simulated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimError {
    /// A node's resident set exceeds its memory (the paper's missing
    /// points). `required`/`capacity` in bytes.
    OutOfMemory {
        node: usize,
        required: usize,
        capacity: usize,
    },
    /// The task count exceeds [`MAX_DES_TASKS`]; use
    /// [`analytic_cholesky_seconds`] instead.
    TooLarge { tasks: usize },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfMemory {
                node,
                required,
                capacity,
            } => write!(
                f,
                "node {node} needs {required} bytes but has {capacity} (OOM)"
            ),
            SimError::TooLarge { tasks } => {
                write!(f, "{tasks} tasks exceed the DES budget")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of one simulated factorization.
#[derive(Clone, Debug)]
pub struct SimStats {
    /// Simulated wall-clock of the whole DAG, seconds.
    pub makespan: f64,
    /// Tasks executed.
    pub tasks: usize,
    /// Total useful flops.
    pub total_flops: f64,
    /// Bytes moved between nodes (after transfer caching).
    pub comm_bytes: usize,
    /// Inter-node messages (after transfer caching).
    pub messages: usize,
    /// Aggregate busy core-seconds.
    pub busy_seconds: f64,
    /// Parallel efficiency: busy / (makespan × total cores).
    pub efficiency: f64,
}

/// Task-id arithmetic over the lower-triangular `(k, i, j)` space.
struct TaskIds {
    nt: usize,
    trsm_base: usize,
    syrk_base: usize,
    gemm_base: usize,
    total: usize,
}

impl TaskIds {
    fn new(nt: usize) -> Self {
        let pairs = nt * (nt - 1) / 2;
        let triples = if nt >= 3 {
            nt * (nt - 1) * (nt - 2) / 6
        } else {
            0
        };
        let trsm_base = nt;
        let syrk_base = trsm_base + pairs;
        let gemm_base = syrk_base + pairs;
        TaskIds {
            nt,
            trsm_base,
            syrk_base,
            gemm_base,
            total: gemm_base + triples,
        }
    }

    /// Rank of the pair `k < i` in lexicographic (k-major) order.
    #[inline]
    fn pair_rank(&self, k: usize, i: usize) -> usize {
        debug_assert!(k < i && i < self.nt);
        // Pairs with first coordinate < k, then offset within row k.
        k * self.nt - k * (k + 1) / 2 + (i - k - 1)
    }

    /// Rank of `{k < j < i}` in the combinatorial number system (colex).
    #[inline]
    fn triple_rank(&self, k: usize, j: usize, i: usize) -> usize {
        debug_assert!(k < j && j < i && i < self.nt);
        i * (i - 1) * (i - 2) / 6 + j * (j - 1) / 2 + k
    }

    #[inline]
    fn id(&self, t: TaskKind) -> usize {
        match t {
            TaskKind::Potrf { k } => k,
            TaskKind::Trsm { k, i } => self.trsm_base + self.pair_rank(k, i),
            TaskKind::Syrk { k, j } => self.syrk_base + self.pair_rank(k, j),
            TaskKind::Gemm { k, j, i } => self.gemm_base + self.triple_rank(k, j, i),
        }
    }
}

/// Initial dependency count of a task: the task finishing each input tile,
/// plus (past the first panel) the previous update of the output tile.
#[inline]
fn dep_count(t: TaskKind) -> u8 {
    let (TaskKind::Potrf { k }
    | TaskKind::Trsm { k, .. }
    | TaskKind::Syrk { k, .. }
    | TaskKind::Gemm { k, .. }) = t;
    t.inputs().count() as u8 + u8::from(k > 0)
}

/// Node executing a task: the owner of the tile it updates, which is
/// therefore local; only the input tiles may have to travel.
#[inline]
fn exec_node(t: TaskKind, grid: &BlockCyclic) -> usize {
    let (i, j) = t.output();
    grid.owner(i, j)
}

/// Dependent tasks unlocked by a completion.
fn for_each_dependent(t: TaskKind, nt: usize, mut f: impl FnMut(TaskKind)) {
    match t {
        TaskKind::Potrf { k } => {
            for i in k + 1..nt {
                f(TaskKind::Trsm { k, i });
            }
        }
        TaskKind::Trsm { k, i } => {
            f(TaskKind::Syrk { k, j: i });
            for j in k + 1..i {
                f(TaskKind::Gemm { k, j, i });
            }
            for i2 in i + 1..nt {
                f(TaskKind::Gemm { k, j: i, i: i2 });
            }
        }
        TaskKind::Syrk { k, j } => {
            if k + 1 == j {
                f(TaskKind::Potrf { k: j });
            } else {
                f(TaskKind::Syrk { k: k + 1, j });
            }
        }
        TaskKind::Gemm { k, j, i } => {
            if k + 1 == j {
                f(TaskKind::Trsm { k: j, i });
            } else {
                f(TaskKind::Gemm { k: k + 1, j, i });
            }
        }
    }
}

/// Per-node resident bytes of the lower-triangular matrix under the cost
/// model's storage sizes, with a workspace factor for runtime overheads.
pub fn per_node_resident_bytes(
    nt: usize,
    cost: &dyn CostModel,
    grid: &BlockCyclic,
    workspace_factor: f64,
) -> Vec<usize> {
    let mut bytes = vec![0usize; grid.nodes()];
    for j in 0..nt {
        for i in j..nt {
            bytes[grid.owner(i, j)] += cost.tile_resident_bytes(i, j);
        }
    }
    for b in bytes.iter_mut() {
        *b = (*b as f64 * workspace_factor) as usize;
    }
    bytes
}

/// OOM check reproducing Figure 4's missing points.
pub fn check_memory(
    nt: usize,
    cost: &dyn CostModel,
    machine: &MachineConfig,
    grid: &BlockCyclic,
) -> Result<(), SimError> {
    // 1.5× workspace: factor panels, runtime handles, MPI buffers.
    let resident = per_node_resident_bytes(nt, cost, grid, 1.5);
    for (node, &req) in resident.iter().enumerate() {
        if req > machine.memory_per_node {
            return Err(SimError::OutOfMemory {
                node,
                required: req,
                capacity: machine.memory_per_node,
            });
        }
    }
    Ok(())
}

#[derive(PartialEq)]
struct Event {
    time: f64,
    kind: u8, // 0 = ready, 1 = complete
    task: TaskKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap through Reverse at the call sites; tie-break on kind so
        // completions (core frees) process before new readies at equal time.
        self.time
            .partial_cmp(&other.time)
            .unwrap()
            .then(self.kind.cmp(&other.kind))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Node {
    free_cores: usize,
    pending: ReadyQueue<TaskKind>,
    busy_seconds: f64,
}

/// Simulates the distributed tile Cholesky DAG and returns its makespan and
/// traffic statistics.
pub fn simulate_cholesky(
    nt: usize,
    cost: &dyn CostModel,
    machine: &MachineConfig,
    grid: &BlockCyclic,
) -> Result<SimStats, SimError> {
    assert!(nt >= 1, "need at least one tile");
    assert_eq!(grid.nodes(), machine.nodes, "grid/machine mismatch");
    check_memory(nt, cost, machine, grid)?;
    let ids = TaskIds::new(nt);
    if ids.total > MAX_DES_TASKS {
        return Err(SimError::TooLarge { tasks: ids.total });
    }

    // Dependency counters and latest-arrival tracking per task. Arrival
    // times must stay f64: f32 rounding can push a ready time *below* the
    // true serial prefix sum, breaking work conservation (makespan <
    // work/cores) at the DES's own 1e-9 tolerance.
    let mut deps = vec![0u8; ids.total];
    let mut ready_at = vec![0f64; ids.total];
    TaskKind::for_each(nt, |t| deps[ids.id(t)] = dep_count(t));

    // Transfer cache: (producer id, dest node) → arrival time.
    let mut transfers: HashMap<(usize, usize), f64> = HashMap::new();
    let mut comm_bytes = 0usize;
    let mut messages = 0usize;

    let mut nodes: Vec<Node> = (0..machine.nodes)
        .map(|_| Node {
            free_cores: machine.cores_per_node,
            pending: ReadyQueue::default(),
            busy_seconds: 0.0,
        })
        .collect();

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    heap.push(Reverse(Event {
        time: 0.0,
        kind: 0,
        task: TaskKind::Potrf { k: 0 },
    }));

    let mut makespan = 0.0f64;
    let mut total_flops = 0.0f64;
    let mut busy = 0.0f64;
    let mut executed = 0usize;

    while let Some(Reverse(Event { time, kind, task })) = heap.pop() {
        let node_idx = exec_node(task, grid);
        if kind == 0 {
            // Task ready: start it now if a core is free, else queue it.
            let node = &mut nodes[node_idx];
            if node.free_cores > 0 {
                node.free_cores -= 1;
                start_task(
                    task,
                    time,
                    cost,
                    machine,
                    &mut heap,
                    &mut total_flops,
                    &mut busy,
                    node,
                );
            } else {
                node.pending.push(task.priority(), task);
            }
            continue;
        }

        // Task complete.
        executed += 1;
        makespan = makespan.max(time);

        // Unlock dependents.
        for_each_dependent(task, nt, |dep| {
            let dep_id = ids.id(dep);
            let dest = exec_node(dep, grid);
            // Arrival of *this* producer's output at the dependent's node:
            // it travels if `dep` reads the tile `task` just finished and
            // lives elsewhere.
            let mut arrival = time;
            for tile in dep.inputs() {
                if TaskKind::finishing(tile) == task && node_idx != dest {
                    let key = (ids.id(task), dest);
                    arrival = *transfers.entry(key).or_insert_with(|| {
                        let bytes = cost.tile_bytes(tile.0, tile.1);
                        comm_bytes += bytes;
                        messages += 1;
                        time + machine.transfer_seconds(bytes)
                    });
                }
            }
            ready_at[dep_id] = ready_at[dep_id].max(arrival);
            deps[dep_id] -= 1;
            if deps[dep_id] == 0 {
                heap.push(Reverse(Event {
                    time: ready_at[dep_id],
                    kind: 0,
                    task: dep,
                }));
            }
        });

        // Free the core; start the best pending task, if any.
        let node = &mut nodes[node_idx];
        node.free_cores += 1;
        if let Some(next) = node.pending.pop() {
            node.free_cores -= 1;
            start_task(
                next,
                time,
                cost,
                machine,
                &mut heap,
                &mut total_flops,
                &mut busy,
                node,
            );
        }
    }

    debug_assert_eq!(executed, ids.total, "all tasks must retire");
    let total_cores = (machine.nodes * machine.cores_per_node) as f64;
    Ok(SimStats {
        makespan,
        tasks: executed,
        total_flops,
        comm_bytes,
        messages,
        busy_seconds: busy,
        efficiency: if makespan > 0.0 {
            busy / (makespan * total_cores)
        } else {
            0.0
        },
    })
}

#[allow(clippy::too_many_arguments)]
fn start_task(
    task: TaskKind,
    now: f64,
    cost: &dyn CostModel,
    machine: &MachineConfig,
    heap: &mut BinaryHeap<Reverse<Event>>,
    total_flops: &mut f64,
    busy: &mut f64,
    node: &mut Node,
) {
    let dur = cost.task_seconds(task, machine);
    *total_flops += cost.task_flops(task);
    *busy += dur;
    node.busy_seconds += dur;
    heap.push(Reverse(Event {
        time: now + dur,
        kind: 1,
        task,
    }));
}

/// Closed-form estimate used beyond the DES task budget: the maximum of the
/// work bound, the critical-path bound, and the communication bound — the
/// three mechanisms that shape Figure 4.
pub fn analytic_cholesky_seconds(nt: usize, cost: &dyn CostModel, machine: &MachineConfig) -> f64 {
    let mut dense_flops = 0.0f64;
    let mut lr_flops = 0.0f64;
    let mut comm_bytes = 0.0f64;
    let mut critical = 0.0f64;
    TaskKind::for_each(nt, |t| {
        if cost.is_dense_rate(t) {
            dense_flops += cost.task_flops(t);
        } else {
            lr_flops += cost.task_flops(t);
        }
        // Every solved panel tile travels once.
        if let TaskKind::Trsm { k, i } = t {
            comm_bytes += cost.tile_bytes(i, k) as f64;
        }
        // The chain potrf → trsm → syrk down the first sub-diagonal, one
        // network hop per link.
        let on_chain = match t {
            TaskKind::Potrf { .. } => true,
            TaskKind::Trsm { k, i: next } | TaskKind::Syrk { k, j: next } => next == k + 1,
            TaskKind::Gemm { .. } => false,
        };
        if on_chain {
            critical += cost.task_seconds(t, machine) + machine.network_latency;
        }
    });
    let work = dense_flops / machine.aggregate_dense_rate()
        + lr_flops / (machine.lr_rate() * (machine.nodes * machine.cores_per_node) as f64);
    let comm = comm_bytes / (machine.network_bandwidth * machine.nodes as f64);
    work.max(critical).max(comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskmodel::DenseCost;

    fn small_machine(nodes: usize) -> MachineConfig {
        MachineConfig::test_machine(nodes, 2)
    }

    #[test]
    fn task_id_space_is_a_bijection() {
        let nt = 7;
        let ids = TaskIds::new(nt);
        let mut seen = vec![false; ids.total];
        let mut mark = |t: TaskKind| {
            let id = ids.id(t);
            assert!(!seen[id], "duplicate id {id} for {t:?}");
            seen[id] = true;
        };
        TaskKind::for_each(nt, &mut mark);
        assert!(seen.iter().all(|&s| s), "id space has holes");
    }

    #[test]
    fn arithmetic_dag_matches_the_graph_production_submits() {
        // The DES never builds the graph; the production drivers do. Submit
        // it with no-op bodies and compare what the runtime inferred.
        for nt in 1..=10 {
            let graph =
                exa_runtime::chol::factor(nt, &exa_runtime::Runtime::new(1), |_| Ok::<(), ()>(()))
                    .unwrap();
            let (mut tasks, mut deps, mut dependents) = (0, 0, 0);
            TaskKind::for_each(nt, |t| {
                tasks += 1;
                deps += dep_count(t) as usize;
                for_each_dependent(t, nt, |_| dependents += 1);
            });
            assert_eq!(TaskIds::new(nt).total, tasks, "nt={nt}");
            assert_eq!(graph.tasks_executed, tasks, "nt={nt}");
            assert_eq!(graph.edges, deps, "nt={nt}");
            assert_eq!(graph.edges, dependents, "nt={nt}");
            assert_eq!(graph.critical_path_tasks, 3 * (nt - 1) + 1, "nt={nt}");
        }
    }

    #[test]
    fn single_node_makespan_respects_work_and_critical_path() {
        let m = small_machine(1);
        let grid = BlockCyclic::squarest(1);
        let cost = DenseCost { nb: 100 };
        let nt = 6;
        let stats = simulate_cholesky(nt, &cost, &m, &grid).unwrap();
        // All tasks retire.
        let ids = TaskIds::new(nt);
        assert_eq!(stats.tasks, ids.total);
        // Makespan is at least work/cores and at most serial work.
        let serial: f64 = stats.total_flops / m.dense_rate();
        assert!(stats.makespan <= serial + 1e-9);
        assert!(stats.makespan >= serial / (m.cores_per_node as f64) - 1e-9);
        // No communication on one node.
        assert_eq!(stats.comm_bytes, 0);
    }

    #[test]
    fn more_nodes_reduce_makespan() {
        let cost = DenseCost { nb: 200 };
        let nt = 16;
        let t1 = simulate_cholesky(nt, &cost, &small_machine(1), &BlockCyclic::squarest(1))
            .unwrap()
            .makespan;
        let t4 = simulate_cholesky(nt, &cost, &small_machine(4), &BlockCyclic::squarest(4))
            .unwrap()
            .makespan;
        let t16 = simulate_cholesky(nt, &cost, &small_machine(16), &BlockCyclic::squarest(16))
            .unwrap()
            .makespan;
        assert!(t4 < t1, "4 nodes {t4} vs 1 node {t1}");
        assert!(t16 < t4 * 1.01, "16 nodes {t16} vs 4 nodes {t4}");
    }

    #[test]
    fn communication_happens_across_nodes_and_is_cached() {
        let cost = DenseCost { nb: 64 };
        let nt = 10;
        let stats =
            simulate_cholesky(nt, &cost, &small_machine(4), &BlockCyclic::squarest(4)).unwrap();
        assert!(stats.comm_bytes > 0);
        // Without caching, every gemm would pull two remote tiles; with
        // caching the message count is bounded by tiles × nodes.
        let upper = nt * nt * 4;
        assert!(
            stats.messages <= upper,
            "messages {} vs bound {upper}",
            stats.messages
        );
    }

    #[test]
    fn oom_detection_matches_capacity() {
        let mut m = small_machine(2);
        m.memory_per_node = 1 << 20; // 1 MB per node
        let cost = DenseCost { nb: 512 }; // one tile = 2 MB
        let err = simulate_cholesky(8, &cost, &m, &BlockCyclic::squarest(2)).unwrap_err();
        match err {
            SimError::OutOfMemory {
                required, capacity, ..
            } => {
                assert!(required > capacity);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn analytic_estimate_brackets_des() {
        let cost = DenseCost { nb: 128 };
        let m = small_machine(4);
        let grid = BlockCyclic::squarest(4);
        for nt in [6, 12, 20] {
            let des = simulate_cholesky(nt, &cost, &m, &grid).unwrap().makespan;
            let ana = analytic_cholesky_seconds(nt, &cost, &m);
            let ratio = des / ana;
            assert!(
                (0.5..=8.0).contains(&ratio),
                "nt={nt}: DES {des} vs analytic {ana} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn too_large_guard_fires() {
        let cost = DenseCost { nb: 8 };
        let mut m = small_machine(1);
        m.memory_per_node = usize::MAX / 4;
        let err = simulate_cholesky(2000, &cost, &m, &BlockCyclic::squarest(1)).unwrap_err();
        assert!(matches!(err, SimError::TooLarge { .. }));
    }

    #[test]
    fn efficiency_is_sane() {
        let cost = DenseCost { nb: 96 };
        let stats =
            simulate_cholesky(24, &cost, &small_machine(4), &BlockCyclic::squarest(4)).unwrap();
        assert!(
            stats.efficiency > 0.05 && stats.efficiency <= 1.0 + 1e-9,
            "efficiency {}",
            stats.efficiency
        );
    }
}
