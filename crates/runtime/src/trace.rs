//! Execution statistics.
//!
//! The paper's §VIII-C discusses how the StarPU execution hides the
//! latency-bound TLR kernels; [`ExecStats`] exposes the quantities needed to
//! reason about that here: wall time, aggregate busy time (their ratio is the
//! parallel efficiency), per-worker load, and the unit-cost critical path.

/// Statistics for one [`crate::Runtime::run`] invocation.
#[derive(Clone, Debug)]
pub struct ExecStats {
    /// Wall-clock seconds for the whole graph.
    pub wall_seconds: f64,
    /// Number of tasks retired.
    pub tasks_executed: usize,
    /// Number of dependency edges in the graph.
    pub edges: usize,
    /// Workers used.
    pub workers: usize,
    /// Tasks retired per worker.
    pub per_worker_tasks: Vec<usize>,
    /// Sum of task execution times across workers.
    pub busy_seconds: f64,
    /// Longest dependency chain (unit task cost).
    pub critical_path_tasks: usize,
}

impl ExecStats {
    /// Statistics for a run that executed nothing (empty task graph).
    pub fn empty(workers: usize) -> Self {
        ExecStats {
            wall_seconds: 0.0,
            tasks_executed: 0,
            edges: 0,
            workers,
            per_worker_tasks: vec![0; workers],
            busy_seconds: 0.0,
            critical_path_tasks: 0,
        }
    }

    /// Busy time divided by `workers × wall`: 1.0 means perfectly packed.
    pub fn parallel_efficiency(&self) -> f64 {
        if self.wall_seconds <= 0.0 || self.workers == 0 {
            return 0.0;
        }
        self.busy_seconds / (self.wall_seconds * self.workers as f64)
    }

    /// Coefficient of variation of per-worker task counts (load imbalance).
    pub fn load_imbalance(&self) -> f64 {
        if self.per_worker_tasks.is_empty() {
            return 0.0;
        }
        let counts: Vec<f64> = self.per_worker_tasks.iter().map(|&c| c as f64).collect();
        let m = exa_util::stats::mean(&counts);
        if m == 0.0 {
            return 0.0;
        }
        let sd = exa_util::stats::sample_variance(&counts).sqrt();
        if sd.is_nan() {
            0.0
        } else {
            sd / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_of_empty_stats_is_zero() {
        let s = ExecStats::empty(4);
        assert_eq!(s.parallel_efficiency(), 0.0);
        assert_eq!(s.load_imbalance(), 0.0);
    }

    #[test]
    fn efficiency_formula() {
        let s = ExecStats {
            wall_seconds: 2.0,
            tasks_executed: 8,
            edges: 0,
            workers: 4,
            per_worker_tasks: vec![2, 2, 2, 2],
            busy_seconds: 6.0,
            critical_path_tasks: 2,
        };
        assert!((s.parallel_efficiency() - 0.75).abs() < 1e-12);
        assert_eq!(s.load_imbalance(), 0.0);
    }

    #[test]
    fn imbalance_detects_skew() {
        let s = ExecStats {
            wall_seconds: 1.0,
            tasks_executed: 4,
            edges: 0,
            workers: 2,
            per_worker_tasks: vec![4, 0],
            busy_seconds: 1.0,
            critical_path_tasks: 4,
        };
        assert!(s.load_imbalance() > 1.0);
    }
}
