//! `exa-perf`: one layered benchmark for the MLE iteration, kriging and
//! fleet serving. See `README.md` beside this crate for the metric tables,
//! how each workload was sized, and how to read a trace.
//!
//! The harness calls only long-stable public functions of the `exa-*`
//! crates, so later changes to those crates need not edit it.

pub mod check;
pub mod data;
pub mod host;
pub mod krige;
pub mod mle;
pub mod probes;
pub mod report;
pub mod serve;
pub mod span;
pub mod spec;
pub mod stats;

use stats::Samples;
use std::collections::BTreeMap;

/// Generating parameters θ₀ = (variance, range, smoothness) of every field.
pub const THETA0: [f64; 3] = [1.0, 0.1, 0.5];
/// Nugget on the covariance diagonal.
pub const NUGGET: f64 = 1e-8;
/// Targets per prediction request: single-target requests measure thread
/// wake-ups, not the program.
pub const TARGETS: usize = 64;
/// Set-ups per run; `setup_s` is their median. They are taken at the start,
/// in the middle and at the end of a run, not back to back: this host loses
/// up to a fifth of its CPU to other guests for seconds at a time, and a
/// burst then spoils one sample, not all of them. The other short
/// measurements (refactorizations) are spread over the run the same way.
pub const SETUPS: usize = 3;

/// Runs `f` and records its wall seconds in `samples`.
pub fn timed<T>(samples: &mut Samples, f: impl FnOnce() -> T) -> T {
    let (result, seconds) = exa_util::timing::timed(f);
    samples.push(seconds);
    result
}

/// What one invocation was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// The only input: every location, measurement, target and observation
    /// is drawn from it.
    pub seed: u64,
    /// Seconds of measured work.
    pub seconds: f64,
    /// Runtime workers: `min(available_parallelism, 4)`.
    pub workers: usize,
    /// Small sizes (n = 256) for the smoke test; results mean nothing.
    pub smoke: bool,
}

impl Ctx {
    /// Observations in the compute workloads' field.
    pub fn n(&self) -> usize {
        if self.smoke {
            256
        } else {
            2304
        }
    }

    /// Observations in the served model (dense, so observes update the
    /// factor incrementally).
    pub fn serve_n(&self) -> usize {
        if self.smoke {
            256
        } else {
            1024
        }
    }
}

/// One metric value with the note printed beside it.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub note: String,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: fits, prediction requests, observes.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        assert!(spec::unit_of(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(name, Value { value, note });
    }

    /// Records the median of `samples`, noting count and tail percentile.
    /// No samples is a failed check, not a panic: the result line keeps its
    /// shape and says why it is incorrect.
    pub fn set_median(&mut self, name: &'static str, samples: &Samples) {
        if samples.is_empty() {
            self.problem(format!("{name}: no samples"));
            self.set(name, f64::NAN);
        } else {
            self.set_noted(name, samples.median(), samples.describe());
        }
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// Records `what` as a problem unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |v| v.value)
    }
}

/// Runs one workload with tracing off and returns every end-to-end metric.
pub fn run_end_to_end(workload: &str, ctx: &Ctx) -> Outcome {
    let out = match workload {
        spec::MLE_EXACT => mle::run(&mle::MleConfig::exact(ctx), ctx),
        spec::MLE_TLR => mle::run(&mle::MleConfig::tlr(ctx), ctx),
        spec::KRIGE_BATCH => krige::run(ctx),
        spec::SERVE_MIXED => serve::run(ctx),
        other => panic!("unknown workload {other}"),
    };
    for m in spec::END_TO_END {
        assert!(
            out.metrics.contains_key(m.name),
            "{workload} did not report {}",
            m.name
        );
    }
    out
}

/// Re-runs one workload stage by stage with spans around each layer's
/// public functions and returns every per-layer metric (0 where the
/// workload does not exercise the layer).
pub fn run_traced(workload: &str, ctx: &Ctx) -> Outcome {
    let (mut out, spans) = match workload {
        spec::MLE_EXACT => mle::trace(&mle::MleConfig::exact(ctx), ctx),
        spec::MLE_TLR => mle::trace(&mle::MleConfig::tlr(ctx), ctx),
        spec::KRIGE_BATCH => krige::trace(ctx),
        spec::SERVE_MIXED => serve::trace(ctx),
        other => panic!("unknown workload {other}"),
    };
    for m in spec::PER_LAYER {
        out.metrics.entry(m.name).or_insert(Value {
            value: 0.0,
            note: "not exercised by this workload".into(),
        });
    }
    out.set("trace.spans", spans.len() as f64);
    if !ctx.smoke {
        spans.write(workload);
    }
    out.set("host.workers", ctx.workers as f64);
    out.set(
        "host.available_parallelism",
        host::available_parallelism() as f64,
    );
    out
}
