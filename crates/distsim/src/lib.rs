//! Discrete-event simulation of distributed-memory tile/TLR Cholesky on a
//! Cray-XC40-class machine.
//!
//! The paper's Figures 4–5 measure the TLR MLE iteration and the prediction
//! operation on 256/1024 nodes of Shaheen-2. No cluster exists here, so this
//! crate *simulates* those runs: the exact task DAG of the right-looking
//! (dense or TLR) tile Cholesky is replayed through a discrete-event engine
//! over a machine model with per-node cores, network latency/bandwidth, 2D
//! block-cyclic tile ownership, per-node memory capacity (reproducing the
//! figures' OOM-missing points), and rank-dependent TLR task costs
//! calibrated against real compressed matrices.
//!
//! * [`MachineConfig`] — node/network/memory model ([`MachineConfig::shaheen2`]).
//! * [`BlockCyclic`] — ScaLAPACK-style `P × Q` tile ownership.
//! * [`TaskKind`], [`CostModel`], [`DenseCost`], [`TlrCost`], [`RankModel`]
//!   — per-task flop/byte models; TLR ranks are calibrated, not assumed.
//! * [`simulate_cholesky`] / [`analytic_cholesky_seconds`] — the DES and its
//!   closed-form fallback beyond [`MAX_DES_TASKS`].
//! * [`predict_time`] — Figure 5's prediction-time model.

pub mod blockcyclic;
pub mod des;
pub mod machine;
pub mod predict;
pub mod taskmodel;

pub use blockcyclic::BlockCyclic;
pub use des::{
    analytic_cholesky_seconds, check_memory, per_node_resident_bytes, simulate_cholesky, SimError,
    SimStats, MAX_DES_TASKS,
};
pub use machine::MachineConfig;
pub use predict::{phase_fractions, predict_time, PredictTiming};
pub use taskmodel::{CostModel, DenseCost, RankModel, TaskKind, TlrCost};
