//! Shared utilities for the `exageostat` workspace.
//!
//! This crate deliberately has **zero external dependencies**: every consumer
//! of the workspace gets bit-reproducible random streams, portable statistics,
//! and plain-text reporting without version skew from third-party crates.
//!
//! Modules:
//! * [`rng`] — xoshiro256++ PRNG with SplitMix64 seeding, stream splitting and
//!   Gaussian sampling. Used by every stochastic component (location and
//!   field generation, Monte-Carlo studies, randomized tests).
//! * [`mod@quantile`] — the exact type-7 (R default) quantile, re-exported by
//!   [`stats`].
//! * [`stats`] — descriptive statistics: mean, variance, quantiles, and the
//!   five-number boxplot summaries used to report Figures 6 and 7.
//! * [`table`] — fixed-width ASCII table rendering for the figure/table
//!   harnesses (the paper's tables are reprinted in the same row layout).
//! * [`timing`] — a tiny stopwatch and human-readable duration formatting.

pub mod quantile;
pub mod rng;
pub mod stats;
pub mod table;
pub mod timing;

pub use rng::Rng;
pub use stats::{five_number_summary, mean, quantile, sample_variance, BoxplotSummary};
pub use table::Table;
pub use timing::Stopwatch;
