//! `krige_batch`: kriging on a cached factor, plus the in-process request
//! phases every compute workload runs on its own model.
//!
//! The timed region holds no factorization: phase A is the cross-covariance
//! row fill and a dot with the pre-solved `α`; phase B adds one multi-RHS
//! triangular solve per request. A potrf- or GEMM-only change predicts no
//! change in either.

use crate::data::{dense_nb, observation_stream, request_pool, Field, Fitted};
use crate::span::Recorder;
use crate::stats::Samples;
use crate::{check, spec, timed, Ctx, Outcome, TARGETS, THETA0};
use exa_covariance::{Location, ParamCovariance};
use exa_geostat::{factorization_count, Backend, LiveModel, LivePolicy};
use exa_linalg::Mat;
use exa_runtime::Runtime;
use exa_tile::{tile_potrf, tile_trsm, TileMatrix, TriangularSide};
use std::sync::Arc;
use std::time::Instant;

/// How long one request phase runs: at least `min_count` requests, then on
/// until `seconds` have passed.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub min_count: usize,
    pub seconds: f64,
}

impl Phase {
    pub fn count(min_count: usize) -> Phase {
        Phase {
            min_count,
            seconds: 0.0,
        }
    }

    fn run(&self, mut request: impl FnMut(usize)) -> f64 {
        let start = Instant::now();
        let mut i = 0;
        while i < self.min_count || start.elapsed().as_secs_f64() < self.seconds {
            request(i);
            i += 1;
        }
        start.elapsed().as_secs_f64()
    }
}

/// The in-process request phases and what they measured, times in
/// microseconds.
pub struct Requests {
    pool: Vec<Vec<Location>>,
    pub mean_us: Samples,
    pub var_us: Samples,
    /// Wall seconds of the phases together.
    pub wall_seconds: f64,
    pub failed: u64,
    /// Factorizations on the calling thread during the phases.
    pub factorizations: usize,
}

impl Requests {
    pub fn new(seed: u64) -> Requests {
        Requests {
            pool: request_pool(64, seed),
            mean_us: Samples::default(),
            var_us: Samples::default(),
            wall_seconds: 0.0,
            failed: 0,
            factorizations: 0,
        }
    }

    pub fn total(&self) -> u64 {
        (self.mean_us.len() + self.var_us.len()) as u64
    }

    /// Times `serve` on one pooled request after another for `phase`.
    fn phase(&mut self, phase: Phase, variance: bool, serve: impl Fn(&[Location]) -> bool) {
        let before = factorization_count();
        let samples = if variance {
            &mut self.var_us
        } else {
            &mut self.mean_us
        };
        self.wall_seconds += phase.run(|i| {
            let targets = &self.pool[i % self.pool.len()];
            let t = Instant::now();
            let ok = serve(targets);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            self.failed += u64::from(!ok);
        });
        self.factorizations += factorization_count() - before;
    }

    /// Mean-only requests against `model`.
    pub fn mean_phase(&mut self, model: &Fitted, phase: Phase) {
        self.phase(phase, false, |targets| {
            model.predict_batch(&[targets]).is_ok()
        });
    }

    /// Requests with conditional variances against `model`.
    pub fn variance_phase(&mut self, model: &Fitted, phase: Phase, rt: &Runtime) {
        self.phase(phase, true, |targets| {
            model.predict_batch_with_variance(&[targets], rt).is_ok()
        });
    }

    /// Copies the phases' results into the end-to-end metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.attempted += self.total();
        out.failed += self.failed;
        out.set_median(spec::PREDICT_P50_US, &self.mean_us);
        out.set_median(spec::PREDICT_VAR_P50_US, &self.var_us);
        out.set_noted(
            spec::SERVE_RPS,
            self.total() as f64 / self.wall_seconds,
            format!("{} requests in {:.3} s", self.total(), self.wall_seconds),
        );
        out.require(self.factorizations == 0, || {
            format!(
                "{} factorizations inside the predict phases",
                self.factorizations
            )
        });
    }
}

/// Microseconds of `count` one-point observes through a [`LiveModel`] over
/// `model` (an incremental update on a dense factor, a synchronous refit on
/// tile and TLR factors), and how many failed. Also reports
/// `geostat.refits`.
pub fn observe_in_process(
    out: &mut Outcome,
    model: &Arc<Fitted>,
    count: usize,
    seed: u64,
    rt: &Runtime,
) -> Samples {
    let stream = observation_stream(model, count, seed);
    let live = LiveModel::new(Arc::clone(model), LivePolicy::default());
    let mut observe_us = Samples::default();
    for (point, value) in stream {
        let t = Instant::now();
        let outcome = live.observe(&[point], &[value], rt);
        observe_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        out.failed += u64::from(outcome.is_err());
    }
    live.wait_refit_idle();
    out.set("geostat.refits", live.drift().refits_completed as f64);
    observe_us
}

/// Refactorizes `model` at its own θ `count` times — what a background
/// refit of a served model runs, and one likelihood evaluation each — and
/// pushes the program's own `total_seconds` of each onto `iter_s`, the
/// samples of `mle_iter_s`.
pub fn refactor(
    out: &mut Outcome,
    iter_s: &mut Samples,
    model: &Fitted,
    count: usize,
    rt: &Runtime,
) {
    for _ in 0..count {
        out.attempted += 1;
        match model.refactored(rt) {
            Ok(fresh) => iter_s.push(
                fresh
                    .log_likelihood()
                    .expect("model carries data")
                    .total_seconds(),
            ),
            Err(e) => {
                out.failed += 1;
                out.problem(format!("refactorization failed: {e}"));
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let rt = Runtime::new(ctx.workers);
    let n = ctx.n();
    let mut out = Outcome::default();

    // Set-up: the field and the one factorization kriging reuses.
    let set_up = || {
        let geo = Field::generate(n, ctx.seed, &rt).model(Backend::FullTile, dense_nb(n), ctx.seed);
        let model = geo.at_params(&THETA0, &rt).expect("Σ(θ₀) factors");
        (geo, model)
    };
    let (mut setup, mut iter_s) = (Samples::default(), Samples::default());
    let (geo, model) = timed(&mut setup, set_up);
    out.set(spec::FACTOR_MB, model.factor_bytes() as f64 / 1e6);

    // Two request phases, with a third of the set-ups and of the
    // refactorizations (for `mle_iter_s`) before, between and after them.
    let mut requests = Requests::new(ctx.seed);
    refactor(&mut out, &mut iter_s, &model, 2, &rt);
    requests.mean_phase(
        &model,
        Phase {
            min_count: 32,
            seconds: 0.3 * ctx.seconds,
        },
    );
    timed(&mut setup, set_up);
    refactor(&mut out, &mut iter_s, &model, 2, &rt);
    requests.variance_phase(
        &model,
        Phase {
            min_count: 8,
            seconds: 0.5 * ctx.seconds,
        },
        &rt,
    );
    timed(&mut setup, set_up);
    refactor(&mut out, &mut iter_s, &model, 2, &rt);

    requests.report(&mut out);
    out.set_median(spec::SETUP_S, &setup);
    out.set_median(spec::MLE_ITER_S, &iter_s);
    check::check_kriging(
        &mut out,
        &model,
        geo.config(),
        &request_pool(1, ctx.seed)[0],
        &rt,
    );
    out
}

/// One 64-target request stage by stage: the cross-covariance fill, the
/// dot with `α`, and the multi-RHS forward solve, through the functions
/// `predict_batch[_with_variance]` themselves call.
pub fn trace(ctx: &Ctx) -> (Outcome, Recorder) {
    let rt = Runtime::new(ctx.workers);
    let n = ctx.n();
    let nb = dense_nb(n);
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let field = Field::generate(n, ctx.seed, &rt);
    let geo = field.model(Backend::FullTile, nb, ctx.seed);
    let model = Arc::new(geo.at_params(&THETA0, &rt).expect("Σ(θ₀) factors"));
    let kernel = model.kernel();
    let pool = request_pool(16, ctx.seed);
    let xs: Vec<f64> = field.locations.iter().map(|l| l.x).collect();
    let ys: Vec<f64> = field.locations.iter().map(|l| l.y).collect();

    // The factor the staged solve runs through (the model keeps its own
    // private); built once, outside every span.
    let mut factor = TileMatrix::from_kernel_symmetric_lower(kernel, nb, ctx.workers);
    tile_potrf(&mut factor, &rt).expect("Σ(θ₀) factors");

    let before = factorization_count();
    let (mut fill, mut solve, mut staged, mut untraced_mean, mut untraced_var) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    for targets in &pool {
        let request: &[Location] = targets;
        timed(&mut untraced_mean, || model.predict_batch(&[request])).expect("prediction");
        timed(&mut untraced_var, || {
            model.predict_batch_with_variance(&[request], &rt)
        })
        .expect("prediction");

        rec.next_run();
        let (id, ()) = rec.scope("predict_with_variance", |rec| {
            let mut s21 = Mat::zeros(n, TARGETS);
            let (fill_s, ()) = rec.time("covariance.fill_cross_row", || {
                for (j, t) in request.iter().enumerate() {
                    kernel.fill_cross_row(t, &xs, &ys, s21.col_mut(j));
                }
            });
            fill.push(fill_s);
            let (solve_s, _) = rec.time("tile.trsm_multi", || {
                tile_trsm(&mut factor, TriangularSide::Forward, &mut s21, &rt)
            });
            solve.push(solve_s);
            std::hint::black_box(&s21);
        });
        staged.push(rec.span(id).seconds());
    }
    let factorizations = factorization_count() - before;
    out.attempted += 2 * pool.len() as u64;

    out.set("host.n", n as f64);
    out.set_noted(
        "covariance.cross_row_ns",
        fill.median() * 1e9 / (TARGETS * n) as f64,
        format!(
            "fill of {TARGETS} rows x {n}: {:.1} us",
            fill.median() * 1e6
        ),
    );
    out.set("tile.trsm_multi_s", solve.median());
    out.set("geostat.predict_batch_us", untraced_mean.median() * 1e6);
    out.set("geostat.predict_var_us", untraced_var.median() * 1e6);
    out.set("geostat.alpha_solve_s", model.alpha_solve_seconds());
    out.set_noted(
        "trace.coverage",
        (fill.median() + solve.median()) / untraced_var.median(),
        "(fill + multi-RHS solve) / predict_batch_with_variance".into(),
    );
    out.set(
        "trace.overhead_ratio",
        staged.median() / untraced_var.median(),
    );
    out.set(
        "krige.factorizations_in_timed_region",
        factorizations as f64,
    );
    out.require(factorizations == 0, || {
        format!("{factorizations} factorizations inside the predict region")
    });

    // Observes on the tile factor: each a synchronous refit.
    let (_, observe_us) = rec.time("geostat.observe", || {
        observe_in_process(&mut out, &model, 3, ctx.seed, &rt)
    });
    out.set_median("geostat.observe_us", &observe_us);
    (out, rec)
}
