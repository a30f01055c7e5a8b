//! Per-task cost models and the calibrated TLR rank model.
//!
//! The simulator never materializes matrices at cluster scale (2M points =
//! 32 TB) — task durations come from flop counts. Dense tile kernels have
//! textbook counts; TLR kernel counts depend on per-tile ranks, which this
//! module predicts with a model *calibrated against real compressed ranks*
//! on laptop-scale assemblies (DESIGN.md §4.5):
//!
//! * ranks decay with the tile's off-diagonal distance `d` (physical
//!   cluster separation along the Morton curve),
//! * ranks grow roughly linearly in `ln(1/eps)` (smooth-kernel spectra decay
//!   geometrically),
//! * ranks shrink as tiles cover smaller physical clusters — at scale, a
//!   tile's cluster diameter is `δ = √(nb/n) = 1/√nt` of the domain.
//!
//! Calibration measures mean rank per *relative* separation `ρ = d/nt` over
//! the same unit-square geometry at **two scales** and fits the
//! cluster-size exponent from the measured pair, so extrapolation to
//! million-point grids uses an empirical law rather than an assumption.
//! Tests validate the model against truly compressed matrices in the
//! calibrated regime.

use crate::machine::MachineConfig;
use exa_covariance::{sort_morton, DistanceMetric, Location, MaternKernel, MaternParams};
use exa_tile::{CompressionMethod, TileMatrix};
use exa_util::Rng;
use std::sync::Arc;

/// The tasks of a (dense or TLR) Cholesky DAG: the type the production
/// factorizations submit.
pub use exa_runtime::CholTask as TaskKind;

/// Cost model interface: flops, rate class, and transfer sizes.
pub trait CostModel: Sync {
    /// Work of one task, in flops.
    fn task_flops(&self, kind: TaskKind) -> f64;
    /// Whether the task runs at the dense (compute-bound) or low-rank
    /// (memory-bound) rate.
    fn is_dense_rate(&self, kind: TaskKind) -> bool;
    /// Bytes moved when tile `(i, j)` travels between nodes.
    fn tile_bytes(&self, i: usize, j: usize) -> usize;
    /// Bytes of tile `(i, j)` at rest (memory accounting).
    fn tile_resident_bytes(&self, i: usize, j: usize) -> usize {
        self.tile_bytes(i, j)
    }
    /// Task duration in seconds on one core of `m`.
    fn task_seconds(&self, kind: TaskKind, m: &MachineConfig) -> f64 {
        let rate = if self.is_dense_rate(kind) {
            m.dense_rate()
        } else {
            m.lr_rate()
        };
        self.task_flops(kind) / rate
    }
}

/// Dense tile Cholesky costs (the "Full-tile" series of Figure 4).
#[derive(Clone, Copy, Debug)]
pub struct DenseCost {
    pub nb: usize,
}

impl CostModel for DenseCost {
    fn task_flops(&self, kind: TaskKind) -> f64 {
        let nb = self.nb as f64;
        match kind {
            TaskKind::Potrf { .. } => nb * nb * nb / 3.0,
            TaskKind::Trsm { .. } => nb * nb * nb,
            TaskKind::Syrk { .. } => nb * nb * nb,
            TaskKind::Gemm { .. } => 2.0 * nb * nb * nb,
        }
    }

    fn is_dense_rate(&self, _kind: TaskKind) -> bool {
        true
    }

    fn tile_bytes(&self, _i: usize, _j: usize) -> usize {
        self.nb * self.nb * 8
    }
}

/// Rank model: mean compressed rank as a function of relative off-diagonal
/// separation and cluster size, calibrated on real TLR assemblies.
#[derive(Clone, Debug)]
pub struct RankModel {
    /// Accuracy threshold this model was calibrated for.
    pub eps: f64,
    /// Tile-grid order of the primary calibration.
    pub nt_cal: usize,
    /// Cluster-size exponent fitted from the two calibration scales:
    /// `rank ∝ δ^exponent` with `δ = 1/√nt`.
    pub exponent: f64,
    /// Mean measured rank per relative-separation bin `ρ = d/nt ∈ (0, 1]`.
    bins: Vec<f64>,
}

/// Assembles one calibration matrix (ACA compression — entries only, no
/// dense tiles) and returns the ρ-binned mean ranks plus the mean rank of
/// the adjacent-tile band `d = 1`.
fn measure_bins(eps: f64, params: MaternParams, n: usize, nb: usize, seed: u64) -> (Vec<f64>, f64) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut locs: Vec<Location> = (0..n)
        .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
        .collect();
    sort_morton(&mut locs);
    let kernel = MaternKernel::new(Arc::new(locs), params, DistanceMetric::Euclidean, 0.0);
    let tlr = TileMatrix::from_kernel(&kernel, nb, eps, CompressionMethod::Aca, 4, seed)
        .expect("calibration assembly");
    let nt = tlr.nt;
    // Mean rank per off-diagonal distance d = i − j.
    let mut sums = vec![0.0f64; nt];
    let mut counts = vec![0usize; nt];
    for j in 0..nt {
        for i in j + 1..nt {
            sums[i - j] += tlr.lr(i, j).rank() as f64;
            counts[i - j] += 1;
        }
    }
    // Re-bin by relative separation ρ = d/nt.
    const NBINS: usize = 16;
    let mut bin_sum = [0.0f64; NBINS];
    let mut bin_cnt = [0.0f64; NBINS];
    for d in 1..nt {
        if counts[d] == 0 {
            continue;
        }
        let rho = d as f64 / nt as f64;
        let b = ((rho * NBINS as f64) as usize).min(NBINS - 1);
        bin_sum[b] += sums[d] / counts[d] as f64;
        bin_cnt[b] += 1.0;
    }
    // Fill empty bins from the nearest populated one (monotone tail).
    let mut bins = vec![f64::NAN; NBINS];
    for b in 0..NBINS {
        if bin_cnt[b] > 0.0 {
            bins[b] = bin_sum[b] / bin_cnt[b];
        }
    }
    let mut last = bins.iter().copied().find(|v| v.is_finite()).unwrap_or(1.0);
    for v in bins.iter_mut() {
        if v.is_finite() {
            last = *v;
        } else {
            *v = last;
        }
    }
    let near = if counts[1] > 0 {
        sums[1] / counts[1] as f64
    } else {
        1.0
    };
    (bins, near)
}

impl RankModel {
    /// Calibrates at `(n_cal, nb_cal)` and at `(4·n_cal, 2·nb_cal)` — the
    /// second scale halves the relative cluster diameter — and fits the
    /// cluster-size exponent from the adjacent-band rank change.
    pub fn calibrate(
        eps: f64,
        params: MaternParams,
        n_cal: usize,
        nb_cal: usize,
        seed: u64,
    ) -> Self {
        let (bins, near_a) = measure_bins(eps, params, n_cal, nb_cal, seed);
        let (_, near_b) = measure_bins(eps, params, 4 * n_cal, 2 * nb_cal, seed + 1);
        let nt_cal = n_cal.div_ceil(nb_cal);
        // rank ∝ δ^e with δ_B/δ_A = 1/√2 ⇒ e = ln(r_B/r_A)/ln(1/√2).
        let exponent = if near_a > 0.0 && near_b > 0.0 {
            ((near_b / near_a).ln() / (0.5f64.sqrt()).ln()).clamp(0.0, 2.0)
        } else {
            0.5
        };
        RankModel {
            eps,
            nt_cal,
            exponent,
            bins,
        }
    }

    /// Predicted rank of the off-diagonal tile at distance `d` in an
    /// `nt × nt` tile grid with tile size `nb`.
    pub fn rank(&self, d: usize, nt: usize, nb: usize) -> usize {
        debug_assert!(d >= 1);
        let rho = (d as f64 / nt.max(2) as f64).min(1.0);
        let b = ((rho * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
        // Cluster-size scaling: δ_target/δ_cal = √(nt_cal/nt).
        let scale = (self.nt_cal as f64 / nt.max(2) as f64)
            .sqrt()
            .powf(self.exponent);
        let k = (self.bins[b] * scale).round().max(1.0);
        (k as usize).min(nb)
    }

    /// Mean predicted rank over the strictly-lower tiles of an `nt` grid.
    pub fn mean_rank(&self, nt: usize, nb: usize) -> f64 {
        let mut sum = 0.0;
        let mut cnt = 0usize;
        for d in 1..nt {
            sum += self.rank(d, nt, nb) as f64 * (nt - d) as f64;
            cnt += nt - d;
        }
        if cnt == 0 {
            0.0
        } else {
            sum / cnt as f64
        }
    }
}

/// TLR Cholesky costs driven by a [`RankModel`]
/// (the `TLR-acc(ε)` series of Figure 4).
#[derive(Clone, Debug)]
pub struct TlrCost {
    pub nb: usize,
    pub nt: usize,
    pub ranks: RankModel,
}

impl TlrCost {
    fn k(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i > j);
        self.ranks.rank(i - j, self.nt, self.nb) as f64
    }
}

impl CostModel for TlrCost {
    fn task_flops(&self, kind: TaskKind) -> f64 {
        let nb = self.nb as f64;
        match kind {
            // Diagonal tiles stay dense.
            TaskKind::Potrf { .. } => nb * nb * nb / 3.0,
            // V ← L⁻¹V on the nb × k right factor.
            TaskKind::Trsm { k, i } => {
                let r = self.k(i, k);
                nb * nb * r
            }
            // W = VᵀV, T = UW, D −= TUᵀ.
            TaskKind::Syrk { k, j } => {
                let r = self.k(j, k);
                2.0 * nb * r * r + 2.0 * nb * nb * r
            }
            // LR product + QR-based recompression of the concatenation.
            TaskKind::Gemm { k, j, i } => {
                let ka = self.k(i, k);
                let kb = self.k(j, k);
                let kc = self.k(i, j);
                let add = ka.min(kb);
                let r = kc + add;
                // W = V_aᵀV_b, fold into U or V, two QRs of nb × r, small
                // SVD of r × r, rebuild factors.
                2.0 * nb * ka * kb
                    + 2.0 * nb * add * ka.max(kb)
                    + 8.0 * nb * r * r
                    + 30.0 * r * r * r
            }
        }
    }

    fn is_dense_rate(&self, kind: TaskKind) -> bool {
        matches!(kind, TaskKind::Potrf { .. })
    }

    fn tile_bytes(&self, i: usize, j: usize) -> usize {
        if i == j {
            self.nb * self.nb * 8
        } else {
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            let k = self.ranks.rank(hi - lo, self.nt, self.nb).max(1);
            2 * self.nb * k * 8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium_params() -> MaternParams {
        MaternParams::new(1.0, 0.1, 0.5)
    }

    #[test]
    fn dense_cost_ratios_are_textbook() {
        let c = DenseCost { nb: 100 };
        let potrf = c.task_flops(TaskKind::Potrf { k: 0 });
        let trsm = c.task_flops(TaskKind::Trsm { k: 0, i: 1 });
        let gemm = c.task_flops(TaskKind::Gemm { k: 0, j: 1, i: 2 });
        assert!((trsm / potrf - 3.0).abs() < 1e-12);
        assert!((gemm / trsm - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rank_model_matches_real_assembly_in_calibrated_regime() {
        // Calibrate, then validate against truly compressed ranks at the
        // primary scale: per-distance prediction within ±60% or ±6.
        let eps = 1e-7;
        let model = RankModel::calibrate(eps, medium_params(), 1024, 64, 3);
        let mut rng = Rng::seed_from_u64(99);
        let mut locs: Vec<Location> = (0..1024)
            .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
            .collect();
        sort_morton(&mut locs);
        let kernel = MaternKernel::new(
            Arc::new(locs),
            medium_params(),
            DistanceMetric::Euclidean,
            0.0,
        );
        let tlr = TileMatrix::from_kernel(&kernel, 64, eps, CompressionMethod::Aca, 4, 99).unwrap();
        for d in 1..tlr.nt {
            let mut sum = 0.0;
            let mut cnt = 0;
            for j in 0..tlr.nt - d {
                sum += tlr.lr(j + d, j).rank() as f64;
                cnt += 1;
            }
            let measured = sum / cnt as f64;
            let predicted = model.rank(d, tlr.nt, 64) as f64;
            let err = (predicted - measured).abs();
            assert!(
                err <= (0.6 * measured).max(6.0),
                "d={d}: predicted {predicted} vs measured {measured}"
            );
        }
    }

    #[test]
    fn ranks_decay_with_distance_and_grow_with_accuracy() {
        let loose = RankModel::calibrate(1e-5, medium_params(), 900, 60, 5);
        let tight = RankModel::calibrate(1e-9, medium_params(), 900, 60, 5);
        let nt = 100;
        assert!(loose.rank(1, nt, 60) >= loose.rank(nt / 2, nt, 60));
        assert!(tight.mean_rank(nt, 60) > loose.mean_rank(nt, 60));
    }

    #[test]
    fn ranks_do_not_grow_with_problem_scale() {
        // The two-scale measurement shows adjacent-tile ranks are ~constant
        // along the proportional (nb, n) scaling direction (two competing
        // effects — shrinking physical clusters vs more points per tile —
        // cancel for the exponential kernel). The fitted exponent must be
        // non-negative, so predictions at 1M-point scale never exceed the
        // calibrated near-diagonal rank.
        let model = RankModel::calibrate(1e-7, medium_params(), 1024, 64, 7);
        let near_cal = model.rank(1, model.nt_cal, 64);
        let near_big = model.rank(1, 527, 1900); // 1M points at nb = 1900
        assert!(
            near_big <= near_cal,
            "rank must not grow with scale: {near_big} vs {near_cal}"
        );
        // Crucially, the predicted rank is a small fraction of nb at scale —
        // the regime where TLR beats dense (Figure 4's content).
        assert!(
            (near_big as f64) < 0.2 * 1900.0,
            "near rank {near_big} vs nb 1900"
        );
        assert!((0.0..=2.0).contains(&model.exponent));
    }

    #[test]
    fn tlr_flops_are_far_below_dense_at_scale() {
        let model = RankModel::calibrate(1e-7, medium_params(), 1024, 64, 7);
        let nt = 263; // ≈ 500k points at nb = 1900
        let nb = 1900;
        let tlr = TlrCost {
            nb,
            nt,
            ranks: model,
        };
        let dense = DenseCost { nb };
        let near_gemm = TaskKind::Gemm { k: 0, j: 1, i: 2 };
        let far_gemm = TaskKind::Gemm {
            k: 0,
            j: 1,
            i: nt - 1,
        };
        assert!(
            tlr.task_flops(near_gemm) < 0.5 * dense.task_flops(near_gemm),
            "near: tlr {} vs dense {}",
            tlr.task_flops(near_gemm),
            dense.task_flops(near_gemm)
        );
        assert!(
            tlr.task_flops(far_gemm) < 0.1 * dense.task_flops(far_gemm),
            "far: tlr {} vs dense {}",
            tlr.task_flops(far_gemm),
            dense.task_flops(far_gemm)
        );
        // TLR tile transfers shrink accordingly.
        assert!(tlr.tile_bytes(nt - 1, 0) < dense.tile_bytes(nt - 1, 0));
    }

    #[test]
    fn rank_never_exceeds_tile_size() {
        let model = RankModel::calibrate(1e-12, medium_params(), 400, 40, 9);
        for d in 1..20 {
            assert!(model.rank(d, 20, 24) <= 24);
            assert!(model.rank(d, 20, 2000) <= 2000);
            assert!(model.rank(d, 20, 24) >= 1);
        }
    }
}
