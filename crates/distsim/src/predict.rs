//! Distributed prediction-time model (paper Figure 5).
//!
//! The paper's prediction experiment solves Eq. 4 for 100 unknown
//! measurements on 256 nodes: a Cholesky factorization of `Σ₂₂` dominates,
//! followed by forward/backward solves on 100 right-hand sides and the
//! `Σ₁₂ · x` product. The factorization reuses the Cholesky DES/analytic
//! estimates; the (much smaller) solve and product phases are costed
//! analytically — their work is two flat sweeps over the factor tiles plus
//! one `m × n` GEMM.

use crate::blockcyclic::BlockCyclic;
use crate::des::{analytic_cholesky_seconds, simulate_cholesky, SimError};
use crate::machine::MachineConfig;
use crate::taskmodel::CostModel;

/// Timing breakdown of one distributed prediction run.
#[derive(Clone, Copy, Debug)]
pub struct PredictTiming {
    /// Factorization seconds (DES when within budget, analytic otherwise).
    pub cholesky_seconds: f64,
    /// Forward + backward triangular-solve seconds (`nrhs` RHS).
    pub solve_seconds: f64,
    /// `Σ₁₂ · x` product seconds (`m × n` by `n × nrhs`).
    pub gemm_seconds: f64,
    /// Whether the factorization came from the DES (true) or the analytic
    /// model (task count beyond the DES budget).
    pub des_used: bool,
}

impl PredictTiming {
    pub fn total(&self) -> f64 {
        self.cholesky_seconds + self.solve_seconds + self.gemm_seconds
    }
}

/// Estimates the time of predicting `m_unknown` values from `n = nt·nb`
/// observations (Figure 5's experiment: `m_unknown = 100`).
pub fn predict_time(
    nt: usize,
    cost: &dyn CostModel,
    machine: &MachineConfig,
    grid: &BlockCyclic,
    nb: usize,
    m_unknown: usize,
) -> Result<PredictTiming, SimError> {
    let (cholesky_seconds, des_used) = match simulate_cholesky(nt, cost, machine, grid) {
        Ok(stats) => (stats.makespan, true),
        Err(SimError::TooLarge { .. }) => (analytic_cholesky_seconds(nt, cost, machine), false),
        Err(oom) => return Err(oom),
    };
    let nrhs = m_unknown as f64;
    let n = (nt * nb) as f64;
    // Triangular solves: each factor tile is applied once per sweep. Flop
    // count per tile depends on the storage (dense nb² vs low-rank 4·nb·k);
    // reuse the cost model's TRSM entry as a per-tile proxy scaled to nrhs.
    let mut solve_flops = 0.0f64;
    for k in 0..nt {
        // Diagonal triangular solve: nb² flops per RHS, two sweeps.
        solve_flops += 2.0 * (nb * nb) as f64 * nrhs;
        for i in k + 1..nt {
            let bytes = cost.tile_bytes(i, k) as f64;
            // Update flops ∝ stored entries (dense: 2·nb²·nrhs; LR:
            // 4·nb·k·nrhs) — entries = bytes/8, one multiply-add each, two
            // sweeps (forward + backward).
            solve_flops += 2.0 * (bytes / 8.0) * nrhs * 2.0;
        }
    }
    let agg = machine.lr_rate() * (machine.nodes * machine.cores_per_node) as f64;
    // The solve is a dependency chain over tile rows: add per-panel latency.
    let solve_seconds = solve_flops / agg + 2.0 * nt as f64 * machine.network_latency;
    // Σ₁₂ x: 2·m·n·nrhs flops... m_unknown × n product applied to nrhs=1
    // predicted vector per unknown set; the paper predicts one vector of
    // 100 unknowns, i.e. a 100 × n by n × 1 GEMV batched over RHS columns.
    let gemm_flops = 2.0 * m_unknown as f64 * n;
    let gemm_seconds = gemm_flops / machine.aggregate_dense_rate() + machine.network_latency;
    Ok(PredictTiming {
        cholesky_seconds,
        solve_seconds,
        gemm_seconds,
        des_used,
    })
}

/// Convenience: dense vs TLR prediction timing share the Cholesky DES; this
/// returns just the per-phase fractions for reporting.
pub fn phase_fractions(t: &PredictTiming) -> (f64, f64, f64) {
    let total = t.total().max(f64::MIN_POSITIVE);
    (
        t.cholesky_seconds / total,
        t.solve_seconds / total,
        t.gemm_seconds / total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taskmodel::DenseCost;

    #[test]
    fn cholesky_dominates_prediction() {
        // The paper's observation: with only 100 unknowns, the factorization
        // is the bulk of the prediction time.
        let m = MachineConfig::test_machine(4, 2);
        let grid = BlockCyclic::squarest(4);
        let cost = DenseCost { nb: 128 };
        let t = predict_time(24, &cost, &m, &grid, 128, 100).unwrap();
        assert!(t.des_used);
        let (chol, solve, gemm) = phase_fractions(&t);
        assert!(chol > 0.6, "cholesky fraction {chol}");
        assert!(solve < 0.4 && gemm < 0.05, "solve {solve}, gemm {gemm}");
    }

    #[test]
    fn prediction_time_grows_with_n() {
        let m = MachineConfig::test_machine(4, 2);
        let grid = BlockCyclic::squarest(4);
        let cost = DenseCost { nb: 64 };
        let t_small = predict_time(8, &cost, &m, &grid, 64, 100).unwrap().total();
        let t_big = predict_time(24, &cost, &m, &grid, 64, 100).unwrap().total();
        assert!(t_big > 3.0 * t_small, "{t_big} vs {t_small}");
    }

    #[test]
    fn oom_propagates() {
        let mut m = MachineConfig::test_machine(2, 2);
        m.memory_per_node = 1 << 16;
        let grid = BlockCyclic::squarest(2);
        let cost = DenseCost { nb: 512 };
        assert!(matches!(
            predict_time(8, &cost, &m, &grid, 512, 100),
            Err(SimError::OutOfMemory { .. })
        ));
    }
}
