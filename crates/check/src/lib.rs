//! # exa-check — a deterministic interleaving explorer
//!
//! A zero-dependency, loom-style concurrency model checker for the lock-free
//! serving core. Crates that opt in import their synchronization primitives
//! from [`sync`] and [`thread`] instead of `std::sync` / `std::thread`:
//!
//! - In a **normal build** the facade is a transparent re-export of the std
//!   types (`exa_check::sync::Mutex` *is* `std::sync::Mutex`), so production
//!   code pays nothing.
//! - Under **`RUSTFLAGS="--cfg exa_check"`** every facade operation becomes a
//!   scheduling point routed through a deterministic cooperative scheduler.
//!   [`check`] then re-runs a test body under DFS over scheduling decisions
//!   (with a bounded number of preemptions, CHESS-style), exploring distinct
//!   interleavings until the space is exhausted or a budget is hit.
//!
//! On a failing interleaving (panic, failed assertion, or deadlock) the
//! checker reports a **seed** — a compact encoding of the scheduling decisions
//! that produced the failure — which [`replay`] re-executes bit-identically.
//!
//! ## What the model does and does not check
//!
//! The scheduler runs one thread at a time and explores *sequentially
//! consistent* interleavings at the granularity of facade operations (atomic
//! ops, mutex lock/unlock, condvar wait/notify, spawn/join). It catches
//! ordering bugs (e.g. a broken double-checked publish), lost wakeups, torn
//! published state, and deadlocks. It does **not** model weak-memory
//! reorderings (use the Miri/TSan CI lanes for that angle) and does not
//! detect data races on non-atomic memory.
//!
//! ## Rules of engagement for model tests
//!
//! - Everything the model test touches must synchronize through the facade.
//!   A facade mutex contended from a non-model thread (e.g. an `exa-runtime`
//!   worker, which locks a plain `std::sync::Mutex`) is invisible to the
//!   scheduler. Pure computation on free threads is fine.
//! - Keep bodies tiny: every facade op is a scheduling point, and the
//!   decision tree is exponential in the number of ops while two or more
//!   threads are runnable.
//! - `Condvar` notifications wake the lowest-tid waiter first; there are no
//!   spurious wakeups, so predicate loops are still exercised via real
//!   notify/wait races. `wait_timeout` models the timeout as a scheduler
//!   decision, so both "notified" and "timed out" paths are explored.

#![forbid(unsafe_code)]

pub mod sync;
pub mod thread;

#[cfg(exa_check)]
pub(crate) mod sched;

/// Exploration budgets for [`check_with`].
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum number of executions (distinct interleavings) to run.
    pub max_iterations: usize,
    /// Maximum involuntary context switches per execution. Preemption-bounded
    /// search: most concurrency bugs manifest with very few preemptions, and
    /// the bound keeps the tree tractable.
    pub max_preemptions: usize,
    /// Scheduling points per execution before the scheduler stops branching
    /// and finishes the run round-robin. A safety net against spin loops;
    /// truncated executions are counted in [`Report::truncated`].
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_iterations: 20_000,
            max_preemptions: 2,
            max_steps: 50_000,
        }
    }
}

/// A failing interleaving found by the checker.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Compact encoding of the scheduling decisions; feed to [`replay`].
    pub seed: String,
    /// Panic message or deadlock description.
    pub message: String,
}

/// Outcome of an exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions actually run.
    pub iterations: usize,
    /// True when the whole decision tree was exhausted within budget.
    pub complete: bool,
    /// Executions cut short by [`Config::max_steps`].
    pub truncated: usize,
    /// First failing interleaving, if any; exploration stops at the first
    /// failure so the seed identifies the shallowest-found bad schedule.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panic (with the replay seed) if the exploration found a failure.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "exa-check: failing interleaving after {} iteration(s)\n  seed: {}\n  {}",
                self.iterations, f.seed, f.message
            );
        }
    }

    /// Panic unless the exploration either exhausted the space or ran at
    /// least `floor` interleavings — the CI coverage guarantee.
    pub fn assert_explored(&self, floor: usize) {
        assert!(
            self.complete || self.iterations >= floor,
            "exa-check: explored only {} interleavings (floor {floor}, incomplete)",
            self.iterations
        );
    }
}

/// Explore interleavings of `f` with default budgets.
///
/// In a normal (non-`exa_check`) build this runs `f` exactly once on real
/// threads and reports a single iteration.
pub fn check<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    check_with(Config::default(), f)
}

/// Explore interleavings of `f` under explicit budgets.
#[cfg(not(exa_check))]
pub fn check_with<F>(_cfg: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    f();
    Report {
        iterations: 1,
        complete: false,
        truncated: 0,
        failure: None,
    }
}

/// Explore interleavings of `f` under explicit budgets.
#[cfg(exa_check)]
pub fn check_with<F>(cfg: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    use std::sync::Arc;
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut prefix: Vec<u8> = Vec::new();
    let mut iterations = 0usize;
    let mut truncated = 0usize;
    let mut complete = false;
    loop {
        let out = sched::run_once(cfg, prefix.clone(), Arc::clone(&f));
        iterations += 1;
        if out.truncated {
            truncated += 1;
        }
        if let Some((message, seed)) = out.failure {
            return Report {
                iterations,
                complete: false,
                truncated,
                failure: Some(Failure { seed, message }),
            };
        }
        if iterations >= cfg.max_iterations {
            break;
        }
        match sched::next_prefix(&out.decisions) {
            Some(p) => prefix = p,
            None => {
                complete = true;
                break;
            }
        }
    }
    let report = Report {
        iterations,
        complete,
        truncated,
        failure: None,
    };
    // Opt-in coverage evidence for CI logs: one line per exploration with
    // the interleaving count, so the fleet-wide ≥10k floor is auditable
    // without parsing assertions.
    if std::env::var_os("EXA_CHECK_VERBOSE").is_some() {
        eprintln!(
            "exa-check: explored {} interleaving(s) (complete={}, truncated={})",
            report.iterations, report.complete, report.truncated
        );
    }
    report
}

/// Re-run the single interleaving encoded by `seed` (as printed in a
/// [`Failure`]). Deterministic: the same seed over the same body replays the
/// exact schedule bit-identically.
///
/// In a normal build this runs `f` once, like [`check`].
#[cfg(not(exa_check))]
pub fn replay<F>(_seed: &str, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    f();
    Report {
        iterations: 1,
        complete: false,
        truncated: 0,
        failure: None,
    }
}

/// Re-run the single interleaving encoded by `seed`.
#[cfg(exa_check)]
pub fn replay<F>(seed: &str, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    use std::sync::Arc;
    let prefix = sched::decode_seed(seed)
        .unwrap_or_else(|| panic!("exa-check: malformed replay seed {seed:?}"));
    let out = sched::run_once(Config::default(), prefix, Arc::new(f));
    Report {
        iterations: 1,
        complete: false,
        truncated: usize::from(out.truncated),
        failure: out.failure.map(|(message, seed)| Failure { seed, message }),
    }
}

/// True when this build routes facade operations through the model scheduler.
pub const fn enabled() -> bool {
    cfg!(exa_check)
}
