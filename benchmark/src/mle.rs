//! `mle_exact` and `mle_tlr`: maximum-likelihood fits of one synthetic
//! Matérn field with the full-tile and the TLR backend.
//!
//! A run repeats one fixed fit (same data, same start, same evaluation
//! budget) until its share of the time is used, so every fit does the same
//! work and the counts repeat exactly; then it serves a short fixed
//! schedule of prediction requests from the fitted model.

use crate::data::{dense_nb, tlr_nb, Field};
use crate::krige::{observe_in_process, Phase, Requests};
use crate::span::Recorder;
use crate::stats::Samples;
use crate::{check, host, probes, spec, timed, Ctx, Outcome, SETUPS, TARGETS, THETA0};
use exa_covariance::MaternKernel;
use exa_geostat::{eval_log_likelihood, Backend, FitOptions, LikelihoodConfig};
use exa_linalg::Mat;
use exa_runtime::{ExecStats, Runtime};
use exa_tile::{tile_logdet, tile_potrf, tile_trsm, TileMatrix, TriangularSide};
use exa_tlr::{tlr_logdet, tlr_potrf, tlr_trsm, TlrMatrix};
use std::sync::Arc;
use std::time::Instant;

/// Which backend a fit workload runs.
pub struct MleConfig {
    pub workload: &'static str,
    pub backend: Backend,
    pub nb: usize,
}

impl MleConfig {
    pub fn exact(ctx: &Ctx) -> MleConfig {
        MleConfig {
            workload: spec::MLE_EXACT,
            backend: Backend::FullTile,
            nb: dense_nb(ctx.n()),
        }
    }

    pub fn tlr(ctx: &Ctx) -> MleConfig {
        MleConfig {
            workload: spec::MLE_TLR,
            backend: Backend::tlr(1e-7),
            nb: tlr_nb(ctx.n()),
        }
    }
}

/// Likelihood evaluations one fit may spend. The issue's budget of 40 would
/// make one fit outlast a run; the budget shrinks, n does not.
const FIT_EVALS: usize = 5;
/// Share of the run's seconds the fits get; the rest is the request coda.
const FIT_SHARE: f64 = 0.8;
const MIN_FITS: usize = 2;
/// The request coda: a fixed schedule, so its counts repeat exactly.
const CODA_MEAN: usize = 32;
const CODA_VAR: usize = 16;

/// The fixed fit: from a start away from θ₀ and off the half-integer
/// smoothness fast paths, so the search evaluates general-ν kernels as a
/// real fit does.
fn fit_options() -> FitOptions {
    let mut opts = FitOptions::starting_at(&[0.6, 0.06, 0.8]);
    opts.nm.max_evals = FIT_EVALS;
    opts.nm.ftol = 1e-6;
    opts
}

pub fn run(cfg: &MleConfig, ctx: &Ctx) -> Outcome {
    let rt = Runtime::new(ctx.workers);
    let mut out = Outcome::default();

    let set_up = || Field::generate(ctx.n(), ctx.seed, &rt);
    let mut setup = Samples::default();
    let field = timed(&mut setup, set_up);
    let geo = field.model(cfg.backend, cfg.nb, ctx.seed);
    let opts = fit_options();

    let (mut iter_s, mut fit_s) = (Samples::default(), Samples::default());
    let mut evaluations = 0;
    let mut fitted = None;
    let started = Instant::now();
    loop {
        let t = Instant::now();
        out.attempted += 1;
        match geo.fit(&opts, &rt) {
            Ok(model) => {
                fit_s.push(t.elapsed().as_secs_f64());
                let report = model.report();
                iter_s.push(report.likelihood_seconds / report.evaluations as f64);
                evaluations = report.evaluations;
                fitted = Some(model);
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("fit failed: {e}"));
                break;
            }
        }
        let used = started.elapsed().as_secs_f64();
        if fit_s.len() >= MIN_FITS && used + fit_s.max() > FIT_SHARE * ctx.seconds {
            break;
        }
        // The remaining set-ups, one after each of the first fits.
        if setup.len() < SETUPS {
            timed(&mut setup, set_up);
        }
    }
    while setup.len() < SETUPS {
        timed(&mut setup, set_up);
    }
    out.set_median(spec::SETUP_S, &setup);
    let Some(fitted) = fitted else {
        // Nothing to serve from; report the failure with placeholder values
        // so the result line keeps its shape.
        for m in spec::END_TO_END {
            out.metrics.entry(m.name).or_insert(crate::Value {
                value: f64::NAN,
                note: "fit failed".into(),
            });
        }
        return out;
    };
    let fitted = Arc::new(fitted);
    out.set_noted(
        spec::MLE_ITER_S,
        iter_s.median(),
        format!(
            "{} fits x {evaluations} evaluations; fit wall median {:.3} s",
            iter_s.len(),
            fit_s.median()
        ),
    );
    out.set(spec::FACTOR_MB, fitted.factor_bytes() as f64 / 1e6);

    let mut requests = Requests::new(ctx.seed);
    requests.mean_phase(&fitted, Phase::count(CODA_MEAN));
    requests.variance_phase(&fitted, Phase::count(CODA_VAR), &rt);
    requests.report(&mut out);

    check::check_loglik(&mut out, &field, cfg.backend, cfg.nb, ctx.seed, &rt);
    // The TLR model's α carries the compression error, so its means are
    // held to the naive reference through the same TLR factor.
    check::check_kriging(
        &mut out,
        &fitted,
        geo.config(),
        &crate::data::request_pool(1, ctx.seed)[0],
        &rt,
    );
    out
}

/// The factor a staged evaluation leaves behind.
enum Staged {
    Tile(TileMatrix),
    Tlr(TlrMatrix),
}

/// One likelihood evaluation executed stage by stage.
struct StagedEval {
    /// Seconds of generation (tile) or generation + compression (TLR).
    generate_s: f64,
    potrf_s: f64,
    logdet_s: f64,
    trsm_s: f64,
    /// Seconds of the span enclosing the four stages, and of the stages.
    total_s: f64,
    stages_s: f64,
    value: f64,
    exec: ExecStats,
    factor: Staged,
}

/// Generate → potrf → logdet → trsm through the `exa-tile` / `exa-tlr`
/// functions `Factorization::compute` and `eval_log_likelihood` call, each
/// inside a span. ℓ is assembled exactly as the program assembles it, so
/// the value must equal the program's bit for bit.
fn staged_eval(
    rec: &mut Recorder,
    backend: Backend,
    kernel: &MaternKernel,
    z: &[f64],
    cfg: LikelihoodConfig,
    rt: &Runtime,
) -> StagedEval {
    let n = z.len();
    let workers = rt.num_workers();
    rec.next_run();
    let mut stages = None;
    let (id, ()) = rec.scope("likelihood_evaluation", |rec| {
        let mut w = Mat::from_vec(n, 1, z.to_vec());
        let (generate_s, potrf_s, logdet_s, trsm_s, logdet, exec, factor);
        match backend {
            Backend::Tlr { eps, method } => {
                let (g, sigma) = rec.time("tlr.from_kernel", || {
                    TlrMatrix::from_kernel(kernel, cfg.nb, eps, method, workers, cfg.seed)
                });
                let mut sigma = sigma.expect("compression succeeds");
                let (p, stats) = rec.time("tlr.potrf", || tlr_potrf(&mut sigma, rt));
                let (l, ld) = rec.time("tlr.logdet", || tlr_logdet(&sigma));
                let (t, _) = rec.time("tlr.trsm", || {
                    tlr_trsm(&mut sigma, TriangularSide::Forward, &mut w, rt)
                });
                (generate_s, potrf_s, logdet_s, trsm_s, logdet) = (g, p, l, t, ld);
                exec = stats.expect("Σ(θ) factors");
                factor = Staged::Tlr(sigma);
            }
            _ => {
                let (g, mut sigma) = rec.time("tile.from_kernel", || {
                    TileMatrix::from_kernel_symmetric_lower(kernel, cfg.nb, workers)
                });
                let (p, stats) = rec.time("tile.potrf", || tile_potrf(&mut sigma, rt));
                let (l, ld) = rec.time("tile.logdet", || tile_logdet(&sigma));
                let (t, _) = rec.time("tile.trsm", || {
                    tile_trsm(&mut sigma, TriangularSide::Forward, &mut w, rt)
                });
                (generate_s, potrf_s, logdet_s, trsm_s, logdet) = (g, p, l, t, ld);
                exec = stats.expect("Σ(θ) factors");
                factor = Staged::Tile(sigma);
            }
        }
        let quadratic: f64 = w.as_slice().iter().map(|v| v * v).sum();
        let value =
            -0.5 * (n as f64) * (2.0 * std::f64::consts::PI).ln() - 0.5 * logdet - 0.5 * quadratic;
        stages = Some((generate_s, potrf_s, logdet_s, trsm_s, value, exec, factor));
    });
    let (generate_s, potrf_s, logdet_s, trsm_s, value, exec, factor) = stages.expect("scope ran");
    StagedEval {
        generate_s,
        potrf_s,
        logdet_s,
        trsm_s,
        total_s: rec.span(id).seconds(),
        stages_s: rec.child_seconds(id),
        value,
        exec,
        factor,
    }
}

/// Entries `from_kernel_symmetric_lower` evaluates: every entry of every
/// lower tile.
fn lower_tile_entries(n: usize, nb: usize) -> f64 {
    let nt = n.div_ceil(nb);
    let ext = |k: usize| nb.min(n - k * nb) as f64;
    (0..nt)
        .flat_map(|j| (j..nt).map(move |i| (i, j)))
        .map(|(i, j)| ext(i) * ext(j))
        .sum()
}

pub fn trace(cfg: &MleConfig, ctx: &Ctx) -> (Outcome, Recorder) {
    let rt = Runtime::new(ctx.workers);
    let n = ctx.n();
    let nt = n.div_ceil(cfg.nb);
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let field = Field::generate(n, ctx.seed, &rt);
    let geo = field.model(cfg.backend, cfg.nb, ctx.seed);
    let config = geo.config();
    out.set("host.n", n as f64);

    // One fit: where the search goes and what the optimizer itself costs.
    out.attempted += 1;
    let (fit_s, fitted) = rec.time("geostat.fit", || geo.fit(&fit_options(), &rt));
    let fitted = match fitted {
        Ok(f) => Arc::new(f),
        Err(e) => {
            out.failed += 1;
            out.problem(format!("fit failed: {e}"));
            return (out, rec);
        }
    };
    let report = fitted.report();
    let last = fitted.factor_timings();
    let last_factor_s =
        last.generation_seconds + last.factorization_seconds + fitted.alpha_solve_seconds();
    out.set("geostat.fit_s", fit_s);
    out.set("geostat.fit_evals", report.evaluations as f64);
    out.set("geostat.fit_iters", report.iterations as f64);
    out.set_noted(
        "geostat.optimizer_overhead_s",
        fit_s - report.likelihood_seconds - last_factor_s,
        "fit wall - likelihood_seconds - the final factorization at θ̂".into(),
    );
    out.set("geostat.alpha_solve_s", fitted.alpha_solve_seconds());

    // Stage by stage at θ₀ (closed-form ν = ½ generation) and at θ̂ (the
    // general-ν kernel the search spends its evaluations on).
    let mut evals = Vec::new();
    for theta in [THETA0.to_vec(), fitted.params()] {
        let kernel = geo.kernel_at(&theta).expect("θ inside the family's domain");
        let t = Instant::now();
        let program =
            eval_log_likelihood(&kernel, &field.z, cfg.backend, config, &rt).expect("Σ(θ) factors");
        let untraced_s = t.elapsed().as_secs_f64();
        let staged = staged_eval(&mut rec, cfg.backend, &kernel, &field.z, config, &rt);
        out.attempted += 2;
        out.require(staged.value.to_bits() == program.value.to_bits(), || {
            format!(
                "staged ℓ({theta:?}) = {} differs from eval_log_likelihood's {}",
                staged.value, program.value
            )
        });
        evals.push((untraced_s, staged));
    }
    let (untraced_hat, at_hat) = evals.pop().expect("two evaluations");
    let (_, at_zero) = evals.pop().expect("two evaluations");
    out.set_noted(
        "trace.coverage",
        at_hat.stages_s / untraced_hat,
        "(generate + potrf + logdet + trsm) / eval_log_likelihood at θ̂".into(),
    );
    out.set("trace.overhead_ratio", at_hat.total_s / untraced_hat);
    out.set_noted(
        "covariance.gen_share_nu_half",
        at_zero.generate_s / at_zero.total_s,
        "generation (+ compression for TLR) share of one evaluation at θ₀".into(),
    );

    // The dense generation step alone, at θ̂.
    let kernel_hat = geo.kernel_at(&fitted.params()).expect("θ̂ is valid");
    let (gen_s, dense) = rec.time("tile.from_kernel", || {
        TileMatrix::from_kernel_symmetric_lower(&kernel_hat, cfg.nb, ctx.workers)
    });
    drop(dense);
    out.set("covariance.gen_s", gen_s);
    out.set_noted(
        "covariance.entry_ns",
        gen_s * ctx.workers as f64 * 1e9 / lower_tile_entries(n, cfg.nb),
        "worker-nanoseconds per generated entry at θ̂".into(),
    );
    out.set("covariance.gen_share", gen_s / at_hat.total_s);

    // Roofline base and the Cholesky kernels at this workload's tile size.
    let peak_1 = host::fma_peak_gflops(1, 0.2);
    out.set_noted(
        "host.fma_peak_gflops",
        host::fma_peak_gflops(ctx.workers, 0.2),
        format!("{} threads; one thread {peak_1:.2}", ctx.workers),
    );
    let triad_elems = if ctx.smoke {
        1 << 16
    } else {
        host::TRIAD_ELEMS
    };
    out.set_noted(
        "host.triad_gbs",
        host::triad_gbs(ctx.workers, triad_elems, 3),
        format!("3 arrays x {} MiB", (triad_elems * 8) >> 20),
    );
    let k = probes::kernels(cfg.nb, 5);
    out.set_noted(
        "linalg.dgemm_gflops",
        k.gemm_gflops(),
        format!("one thread, nb = {}", cfg.nb),
    );
    out.set("linalg.dsyrk_gflops", k.syrk_gflops());
    out.set("linalg.dtrsm_gflops", k.trsm_gflops());
    out.set("linalg.dpotrf_gflops", k.potrf_gflops());
    out.set("linalg.dgemm_roofline_share", k.gemm_gflops() / peak_1);

    // The task runtime under the factorization.
    let exec = &at_hat.exec;
    out.set("runtime.tasks", exec.tasks_executed as f64);
    out.set("runtime.critical_path_len", exec.critical_path_tasks as f64);
    out.set("runtime.parallel_efficiency", exec.parallel_efficiency());
    out.set("runtime.load_imbalance", exec.load_imbalance());
    out.set(
        "runtime.task_overhead_us",
        probes::task_overhead_us(&rt, 2048, 4 * ctx.workers, 5),
    );
    let one = Runtime::new(1);
    let kernel_zero = geo.kernel_at(&THETA0).expect("θ₀ is valid");
    let single = staged_eval(&mut rec, cfg.backend, &kernel_zero, &field.z, config, &one);
    out.set_noted(
        "runtime.speedup_vs_1w",
        single.potrf_s / at_zero.potrf_s,
        format!(
            "potrf at θ₀: {:.4} s on 1 worker, {:.4} s on {}",
            single.potrf_s, at_zero.potrf_s, ctx.workers
        ),
    );

    // The factorization layer itself, and its multi-RHS solve.
    let mut rhs = Mat::zeros(n, TARGETS);
    for (i, v) in rhs.as_mut_slice().iter_mut().enumerate() {
        *v = field.z[i % n];
    }
    match at_hat.factor {
        Staged::Tile(mut l) => {
            out.set("tile.potrf_s", at_hat.potrf_s);
            out.set(
                "tile.potrf_gflops",
                (n as f64).powi(3) / 3.0 / at_hat.potrf_s / 1e9,
            );
            out.set("tile.potrf_share", at_hat.potrf_s / at_hat.total_s);
            out.set_noted(
                "tile.kernel_time_share",
                k.cholesky_kernel_seconds(nt) / (at_hat.potrf_s * ctx.workers as f64),
                "Σ(task count x isolated kernel time) / (potrf_s x workers); the rest is runtime overhead and idle".into(),
            );
            out.set("tile.trsm_s", at_hat.trsm_s);
            out.set("tile.logdet_s", at_hat.logdet_s);
            let (multi_s, _) = rec.time("tile.trsm_multi", || {
                tile_trsm(&mut l, TriangularSide::Forward, &mut rhs, &rt)
            });
            out.set("tile.trsm_multi_s", multi_s);
        }
        Staged::Tlr(mut l) => {
            out.set("tlr.compress_s", at_hat.generate_s);
            out.set("tlr.compress_share", at_hat.generate_s / at_hat.total_s);
            out.set("tlr.potrf_s", at_hat.potrf_s);
            out.set("tlr.potrf_share", at_hat.potrf_s / at_hat.total_s);
            out.set("tlr.trsm_s", at_hat.trsm_s);
            out.set("tlr.logdet_s", at_hat.logdet_s);
            let ranks = l.rank_stats();
            out.set_noted(
                "tlr.rank_mean",
                ranks.mean,
                format!("factor at θ̂, {} off-diagonal tiles", ranks.tiles),
            );
            out.set("tlr.rank_max", ranks.max as f64);
            out.set("tlr.compression_ratio", l.compression_ratio());
            out.set("tlr.bytes", l.bytes() as f64);
            let (multi_s, _) = rec.time("tlr.trsm_multi", || {
                tlr_trsm(&mut l, TriangularSide::Forward, &mut rhs, &rt)
            });
            out.set("tlr.trsm_multi_s", multi_s);
        }
    }

    // What one request costs on the fitted model, in process.
    let mut r = Requests::new(ctx.seed);
    r.mean_phase(&fitted, Phase::count(4));
    r.variance_phase(&fitted, Phase::count(4), &rt);
    out.attempted += r.total();
    out.failed += r.failed;
    out.set("geostat.predict_batch_us", r.mean_us.median());
    out.set("geostat.predict_var_us", r.var_us.median());
    let observe_us = observe_in_process(&mut out, &fitted, 1, ctx.seed, &rt);
    out.set("geostat.observe_us", observe_us.median());
    out.set(
        "krige.factorizations_in_timed_region",
        r.factorizations as f64,
    );
    out.set_noted(
        "covariance.cross_row_ns",
        r.mean_us.median() * 1e3 / (TARGETS * n) as f64,
        "predict_batch time per cross-covariance entry at θ̂ (fill + dot)".into(),
    );

    let err = check::check_loglik(&mut out, &field, cfg.backend, cfg.nb, ctx.seed, &rt);
    out.set("geostat.loglik_rel_err", err);
    (out, rec)
}
