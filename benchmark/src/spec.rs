//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root is rendered
//! from these tables (`exa-perf list --benchmark-json`) and a test compares
//! the two, so the file and the binary cannot drift.

use exa_wire::json::JsonWriter;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// A set of inputs the benchmark runs.
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
}

pub const MLE_EXACT: &str = "mle_exact";
pub const MLE_TLR: &str = "mle_tlr";
pub const KRIGE_BATCH: &str = "krige_batch";
pub const SERVE_MIXED: &str = "serve_mixed";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: MLE_EXACT,
        why: "Full-tile MLE fits at n=2304: dense dgemm/dsyrk/dtrsm under tile_potrf on the task runtime do the work; the paper's reference curve",
    },
    Workload {
        name: MLE_TLR,
        why: "Same field and fit with TLR(1e-7): work moves to compression and low-rank recompression, away from dgemm; the paper's contribution",
    },
    Workload {
        name: KRIGE_BATCH,
        why: "Kriging on a cached factor, no potrf in the timed region: cross-covariance fill + dot, then multi-RHS solves; bypasses the Cholesky kernels",
    },
    Workload {
        name: SERVE_MIXED,
        why: "Closed loop of 2 keep-alive callers (JSON + binary) through router and 2 nodes, 64-target predicts beside 1-point observes; bypasses the compute plane",
    },
];

/// A metric a user of the system sees. Every workload reports every one.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const SETUP_S: &str = "setup_s";
pub const MLE_ITER_S: &str = "mle_iter_s";
pub const PREDICT_P50_US: &str = "predict_p50_us";
pub const PREDICT_VAR_P50_US: &str = "predict_var_p50_us";
pub const SERVE_RPS: &str = "serve_rps";
pub const FACTOR_MB: &str = "factor_mb";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "everything needed before measuring (field generation, resident factorization, server boot); median of 3 set-ups taken at the start, middle and end of the run",
    },
    EndToEnd {
        name: MLE_ITER_S,
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "seconds per likelihood evaluation of the workload's model, as the program reports it (FitReport.likelihood_seconds / evaluations; LogLikelihood::total_seconds for at_params models)",
    },
    EndToEnd {
        name: PREDICT_P50_US,
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "median time for a caller to get kriging means for one 64-target request by the workload's access path (in process, or through router and node)",
    },
    EndToEnd {
        name: PREDICT_VAR_P50_US,
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "the same with conditional variances",
    },
    EndToEnd {
        name: SERVE_RPS,
        unit: "req/s",
        better: "higher",
        bound: 0.25,
        what: "requests (predict, predict with variance, observe) completed per second of the request phase, all callers together",
    },
    EndToEnd {
        name: FACTOR_MB,
        unit: "MB",
        better: "lower",
        bound: 0.02,
        what: "factor_bytes() of the workload's model; computed from sizes and ranks, repeats exactly for a seed",
    },
];

/// A metric of a single layer (layer = crate). No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Written down before measuring: which end-to-end metric this should
    /// move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const NONE: &str = "- (roofline base, same run)";
const MLE_BOTH: &str = "mle_iter_s on mle_exact (most), mle_tlr (less); not predict_*";
const MLE_ANY: &str = "mle_iter_s on mle_exact and mle_tlr; not serve_mixed";
const MLE_EXACT_ONLY: &str = "mle_iter_s on mle_exact, krige_batch; not mle_tlr";
const MLE_TLR_ONLY: &str = "mle_iter_s, factor_mb on mle_tlr; not mle_exact";
const SERVE_ONLY: &str = "predict_p50_us, serve_rps on serve_mixed; not krige_batch, mle_*";

pub const PER_LAYER: &[PerLayer] = &[
    layer("host.fma_peak_gflops", "GF/s", "higher", NONE),
    layer("host.triad_gbs", "GB/s", "higher", NONE),
    layer("linalg.dgemm_gflops", "GF/s", "higher", MLE_BOTH),
    layer("linalg.dsyrk_gflops", "GF/s", "higher", MLE_BOTH),
    layer("linalg.dtrsm_gflops", "GF/s", "higher", MLE_BOTH),
    layer("linalg.dpotrf_gflops", "GF/s", "higher", MLE_BOTH),
    layer("linalg.dgemm_roofline_share", "ratio", "higher", MLE_BOTH),
    layer("covariance.gen_s", "s", "lower", MLE_ANY),
    layer("covariance.entry_ns", "ns", "lower", MLE_ANY),
    layer("covariance.gen_share", "ratio", "lower", MLE_ANY),
    layer(
        "covariance.gen_share_nu_half",
        "ratio",
        "lower",
        "- (generation share when ν = ½ takes the closed form; the fit's general-ν share is gen_share)",
    ),
    layer(
        "covariance.cross_row_ns",
        "ns",
        "lower",
        "predict_p50_us on krige_batch, serve_mixed; not mle_iter_s",
    ),
    layer("runtime.tasks", "count", "lower", MLE_ANY),
    layer("runtime.critical_path_len", "count", "lower", MLE_ANY),
    layer("runtime.parallel_efficiency", "ratio", "higher", MLE_ANY),
    layer("runtime.load_imbalance", "ratio", "lower", MLE_ANY),
    layer("runtime.task_overhead_us", "us", "lower", MLE_ANY),
    layer("runtime.speedup_vs_1w", "ratio", "higher", MLE_ANY),
    layer("tile.potrf_s", "s", "lower", MLE_EXACT_ONLY),
    layer("tile.potrf_gflops", "GF/s", "higher", MLE_EXACT_ONLY),
    layer("tile.potrf_share", "ratio", "lower", MLE_EXACT_ONLY),
    layer("tile.kernel_time_share", "ratio", "higher", MLE_EXACT_ONLY),
    layer("tile.trsm_s", "s", "lower", "mle_iter_s on mle_exact (tiny)"),
    layer(
        "tile.trsm_multi_s",
        "s",
        "lower",
        "predict_var_p50_us on krige_batch, mle_exact; not predict_p50_us",
    ),
    layer("tile.logdet_s", "s", "lower", "mle_iter_s on mle_exact (tiny)"),
    layer("tlr.compress_s", "s", "lower", MLE_TLR_ONLY),
    layer("tlr.compress_share", "ratio", "lower", MLE_TLR_ONLY),
    layer("tlr.potrf_s", "s", "lower", MLE_TLR_ONLY),
    layer("tlr.potrf_share", "ratio", "lower", MLE_TLR_ONLY),
    layer("tlr.trsm_s", "s", "lower", MLE_TLR_ONLY),
    layer(
        "tlr.trsm_multi_s",
        "s",
        "lower",
        "predict_var_p50_us on mle_tlr",
    ),
    layer("tlr.logdet_s", "s", "lower", "mle_iter_s on mle_tlr (tiny)"),
    layer("tlr.rank_mean", "count", "lower", MLE_TLR_ONLY),
    layer("tlr.rank_max", "count", "lower", MLE_TLR_ONLY),
    layer("tlr.compression_ratio", "ratio", "higher", MLE_TLR_ONLY),
    layer("tlr.bytes", "count", "lower", MLE_TLR_ONLY),
    layer(
        "geostat.fit_s",
        "s",
        "lower",
        "time to a fitted model on mle_*; ungated: evaluations per fit vary with the seed",
    ),
    layer("geostat.fit_evals", "count", "lower", "geostat.fit_s"),
    layer("geostat.fit_iters", "count", "lower", "geostat.fit_s"),
    layer(
        "geostat.optimizer_overhead_s",
        "s",
        "lower",
        "geostat.fit_s, not mle_iter_s",
    ),
    layer(
        "geostat.loglik_rel_err",
        "ratio",
        "lower",
        "accuracy paid for mle_iter_s on mle_tlr; checked <= 1e-4 (TLR), <= 1e-10 (exact)",
    ),
    layer(
        "geostat.alpha_solve_s",
        "s",
        "lower",
        "mle_iter_s (tiny), geostat.observe_us",
    ),
    layer(
        "geostat.predict_batch_us",
        "us",
        "lower",
        "predict_p50_us on every workload",
    ),
    layer(
        "geostat.predict_var_us",
        "us",
        "lower",
        "predict_var_p50_us on every workload",
    ),
    layer(
        "geostat.observe_us",
        "us",
        "lower",
        "fleet.observe_p50_us; what a streaming observe costs on this backend",
    ),
    layer(
        "geostat.refits",
        "count",
        "lower",
        "predict_p50_us, serve_rps on serve_mixed (background refits steal cores)",
    ),
    layer("serve.submit_us", "us", "lower", SERVE_ONLY),
    layer("serve.queue_high_water", "count", "lower", SERVE_ONLY),
    layer("serve.mean_batch", "count", "higher", SERVE_ONLY),
    layer("serve.coalesced", "count", "higher", SERVE_ONLY),
    layer(
        "wire.json_encode_us",
        "us",
        "lower",
        "predict_p50_us on serve_mixed (JSON side most)",
    ),
    layer(
        "wire.json_decode_us",
        "us",
        "lower",
        "predict_p50_us on serve_mixed (JSON side most)",
    ),
    layer("wire.bin_encode_us", "us", "lower", SERVE_ONLY),
    layer("wire.bin_decode_us", "us", "lower", SERVE_ONLY),
    layer("wire.node_us", "us", "lower", SERVE_ONLY),
    layer("wire.direct_p50_us", "us", "lower", SERVE_ONLY),
    layer("wire.json_p50_us", "us", "lower", SERVE_ONLY),
    layer("wire.bin_p50_us", "us", "lower", SERVE_ONLY),
    layer(
        "wire.predict_p99_us",
        "us",
        "lower",
        "tail of predict_p50_us on serve_mixed; ungated: sits where a read stalls behind a write",
    ),
    layer(
        "wire.observe_p99_us",
        "us",
        "lower",
        "tail of fleet.observe_p50_us; ungated",
    ),
    layer(
        "fleet.hop_us",
        "us",
        "lower",
        "predict_p50_us on serve_mixed; nothing else",
    ),
    layer(
        "fleet.observe_p50_us",
        "us",
        "lower",
        "serve_rps on serve_mixed (a third of the writer's time); ungated: page-fault bound, drifts with the host",
    ),
    layer(
        "fleet.observe_fanout_us",
        "us",
        "lower",
        "fleet.observe_p50_us; nothing else",
    ),
    layer(
        "fleet.failovers",
        "count",
        "lower",
        "must be 0 (checked)",
    ),
    layer("fleet.rps", "req/s", "higher", "serve_rps on serve_mixed"),
    layer(
        "fleet.ladder_vs_p50",
        "ratio",
        "lower",
        "- (sum of the four ladder self times over the router p50; 1 = fully accounted)",
    ),
    layer(
        "telemetry.record_ns",
        "ns",
        "lower",
        "predict_p50_us on serve_mixed (<= 1 %)",
    ),
    layer(
        "trace.coverage",
        "ratio",
        "higher",
        "- (named stages' time over the untraced operation)",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "- (traced over untraced time of the same operation)",
    ),
    layer("trace.spans", "count", "lower", "- (spans recorded)"),
    layer(
        "krige.factorizations_in_timed_region",
        "count",
        "lower",
        "must be 0 (checked): prediction reuses the cached factor",
    ),
    layer(
        "serve.factorizations_during_serving",
        "count",
        "lower",
        "must be 0 (checked)",
    ),
    layer("host.workers", "count", "higher", "- (runtime workers used)"),
    layer(
        "host.available_parallelism",
        "count",
        "higher",
        "- (cores the process may use)",
    ),
    layer("host.n", "count", "lower", "- (observations in the workload's model)"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command");
    w.begin_array();
    for part in [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ] {
        w.string(part);
    }
    w.end_array();
    w.key("paths");
    w.begin_array();
    w.string("benchmark");
    w.end_array();
    w.field_uint("run_seconds", RUN_SECONDS);
    w.key("workloads");
    w.begin_array();
    for wl in WORKLOADS {
        w.begin_object();
        w.field_str("name", wl.name);
        w.field_str("why", wl.why);
        w.end_object();
    }
    w.end_array();
    w.key("end_to_end");
    w.begin_array();
    for m in END_TO_END {
        w.begin_object();
        w.field_str("name", m.name);
        w.field_str("unit", m.unit);
        w.field_str("better", m.better);
        w.field_num("bound", m.bound);
        w.end_object();
    }
    w.end_array();
    w.key("per_layer");
    w.begin_array();
    for m in PER_LAYER {
        w.begin_object();
        w.field_str("name", m.name);
        w.field_str("unit", m.unit);
        w.field_str("better", m.better);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Human-readable listing of every name (`exa-perf list`).
pub fn listing() -> String {
    let mut out = String::from("workloads\n");
    for wl in WORKLOADS {
        out.push_str(&format!("  {:<12} {}\n", wl.name, wl.why));
    }
    out.push_str("end-to-end metrics (every workload reports every one)\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<20} {:<6} {:<6} bound {:<5} {}\n",
            m.name, m.unit, m.better, m.bound, m.what
        ));
    }
    out.push_str("per-layer metrics (0 where the workload does not exercise the layer)\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<38} {:<6} {:<6} moves: {}\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    out
}
