//! Integration tests for the distributed-run simulator against the
//! shared-memory implementation and the paper's Figure 4 phenomena.
//!
//! The cross-validation test compares the simulator's dense-vs-TLR cost
//! *ratio* against a real measured run of the actual kernels at the same
//! (laptop-scale) configuration.

use exageostat::distsim::{
    analytic_cholesky_seconds, check_memory, simulate_cholesky, BlockCyclic, DenseCost,
    MachineConfig, RankModel, SimError, TlrCost,
};
use exageostat::prelude::*;

#[test]
fn fig4_shape_tlr_beats_dense_at_scale_with_crossover() {
    // The central Figure 4 claim: full-tile wins at small n, TLR wins at
    // large n, and looser accuracy is faster.
    let machine = MachineConfig::shaheen2(256);
    let grid = BlockCyclic::squarest(256);
    let params = MaternParams::new(1.0, 0.1, 0.5);
    let model_loose = RankModel::calibrate(1e-5, params, 1024, 64, 1);
    let model_tight = RankModel::calibrate(1e-9, params, 1024, 64, 1);

    let dense_time = |n: usize| {
        let nt = n.div_ceil(560);
        let cost = DenseCost { nb: 560 };
        match simulate_cholesky(nt, &cost, &machine, &grid) {
            Ok(s) => s.makespan,
            Err(SimError::TooLarge { .. }) => analytic_cholesky_seconds(nt, &cost, &machine),
            Err(e) => panic!("unexpected {e}"),
        }
    };
    let tlr_time = |n: usize, model: &RankModel| {
        let nt = n.div_ceil(1900);
        let cost = TlrCost {
            nb: 1900,
            nt,
            ranks: model.clone(),
        };
        simulate_cholesky(nt, &cost, &machine, &grid)
            .unwrap()
            .makespan
    };

    // Large n: TLR clearly ahead, with meaningful speedup.
    let n_big: usize = 500_000;
    let speedup = dense_time(n_big) / tlr_time(n_big, &model_loose);
    assert!(
        speedup > 2.0,
        "TLR-1e-5 speedup at n = {n_big}: {speedup:.2}X"
    );
    // Accuracy ordering: tighter threshold costs more.
    assert!(tlr_time(n_big, &model_tight) > tlr_time(n_big, &model_loose));
    // Small n: dense tile is competitive or better (the crossover's left
    // side — TLR's dense-diagonal critical path dominates there).
    let n_small: usize = 100_000;
    assert!(
        dense_time(n_small) < tlr_time(n_small, &model_tight),
        "at n = {n_small} dense should still win"
    );
}

#[test]
fn oom_points_appear_for_dense_before_tlr() {
    // Figure 4's missing points: the dense run exhausts per-node memory at
    // sizes where the TLR run still fits.
    let mut machine = MachineConfig::shaheen2(16);
    machine.memory_per_node = 8 << 30; // shrink nodes to force the effect
    let grid = BlockCyclic::squarest(16);
    let n: usize = 300_000;
    let dense = DenseCost { nb: 560 };
    let dense_mem = check_memory(n.div_ceil(560), &dense, &machine, &grid);
    assert!(
        matches!(dense_mem, Err(SimError::OutOfMemory { .. })),
        "dense must OOM: {dense_mem:?}"
    );
    let params = MaternParams::new(1.0, 0.1, 0.5);
    let model = RankModel::calibrate(1e-7, params, 1024, 64, 2);
    let nt = n.div_ceil(1900);
    let tlr = TlrCost {
        nb: 1900,
        nt,
        ranks: model,
    };
    assert!(
        check_memory(nt, &tlr, &machine, &grid).is_ok(),
        "TLR must still fit"
    );
}

#[test]
fn des_matches_real_shared_memory_ordering() {
    // Cross-validation of the simulator against reality at laptop scale:
    // the DES's dense-vs-TLR *ordering* at a given configuration must match
    // actual measured shared-memory runs of the real kernels.
    use exageostat::geostat::{eval_log_likelihood as log_likelihood, LikelihoodConfig};
    use std::sync::Arc;

    let n = 2048;
    let nb = 128;
    let params = MaternParams::new(1.0, 0.1, 0.5);
    // Real measurement.
    let rt = Runtime::new(4);
    let mut rng = Rng::seed_from_u64(3);
    let locs = Arc::new(synthetic_locations_n(n, &mut rng));
    let kernel = MaternKernel::new(locs.clone(), params, DistanceMetric::Euclidean, 1e-8);
    let z = GeoModel::<MaternKernel>::builder()
        .locations(locs)
        .nugget(0.0)
        .tile_size(nb)
        .build()
        .unwrap()
        .at_params(&params.to_array(), &rt)
        .unwrap()
        .simulate(&mut rng, &rt);
    let cfg = LikelihoodConfig { nb, seed: 3 };
    let t_tile_real = log_likelihood(&kernel, &z, Backend::FullTile, cfg, &rt)
        .unwrap()
        .factorization_seconds;
    let t_tlr_real = log_likelihood(&kernel, &z, Backend::tlr(1e-5), cfg, &rt)
        .unwrap()
        .factorization_seconds;
    // Simulated counterpart: single "node" with 4 cores at a rate that
    // cancels out in the ordering comparison.
    let machine = MachineConfig::test_machine(1, 4);
    let grid = BlockCyclic::squarest(1);
    let nt = n.div_ceil(nb);
    let t_tile_sim = simulate_cholesky(nt, &DenseCost { nb }, &machine, &grid)
        .unwrap()
        .makespan;
    let model = RankModel::calibrate(1e-5, params, 1024, 64, 3);
    let t_tlr_sim = simulate_cholesky(
        nt,
        &TlrCost {
            nb,
            nt,
            ranks: model,
        },
        &machine,
        &grid,
    )
    .unwrap()
    .makespan;
    // At this laptop scale dense and TLR are nearly tied (the crossover
    // region), so exact ordering is noise; require the simulator's
    // TLR/dense time *ratio* to land within 2× of the measured ratio.
    let real_ratio = t_tlr_real / t_tile_real;
    let sim_ratio = t_tlr_sim / t_tile_sim;
    assert!(
        sim_ratio > real_ratio / 2.0 && sim_ratio < real_ratio * 2.0,
        "sim ratio {sim_ratio:.2} vs real ratio {real_ratio:.2} \
         (sim: tlr {t_tlr_sim:.3} / tile {t_tile_sim:.3}; \
         real: tlr {t_tlr_real:.3} / tile {t_tile_real:.3})"
    );
}

#[test]
fn scaling_from_256_to_1024_nodes_helps_dense_more() {
    // §VIII-C: TLR's low arithmetic intensity limits its strong scaling;
    // dense work scales closer to linearly with node count.
    let params = MaternParams::new(1.0, 0.1, 0.5);
    let model = RankModel::calibrate(1e-7, params, 1024, 64, 4);
    let time_on = |nodes: usize, dense: bool| {
        let machine = MachineConfig::shaheen2(nodes);
        let grid = BlockCyclic::squarest(nodes);
        let n: usize = 250_000;
        if dense {
            let nt = n.div_ceil(560);
            let cost = DenseCost { nb: 560 };
            match simulate_cholesky(nt, &cost, &machine, &grid) {
                Ok(s) => s.makespan,
                Err(SimError::TooLarge { .. }) => analytic_cholesky_seconds(nt, &cost, &machine),
                Err(e) => panic!("{e}"),
            }
        } else {
            let nt = n.div_ceil(1900);
            simulate_cholesky(
                nt,
                &TlrCost {
                    nb: 1900,
                    nt,
                    ranks: model.clone(),
                },
                &machine,
                &grid,
            )
            .unwrap()
            .makespan
        }
    };
    let dense_scaling = time_on(256, true) / time_on(1024, true);
    let tlr_scaling = time_on(256, false) / time_on(1024, false);
    assert!(
        dense_scaling > tlr_scaling,
        "dense scaling {dense_scaling:.2} vs TLR scaling {tlr_scaling:.2}"
    );
}
