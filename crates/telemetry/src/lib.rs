//! **exa-telemetry** — zero-dependency observability primitives for the
//! serving stack.
//!
//! The paper's performance story is told in tail latencies; this crate
//! gives every serving layer the instruments to report them:
//!
//! * [`Histogram`] — a lock-free log-linear latency histogram
//!   (HdrHistogram-style): an atomic bucket array with 32 subdivisions per
//!   power of two, so any recorded value lands in a bucket whose width is
//!   at most **1/32 ≈ 3.2 %** of its lower bound. Recording is two relaxed
//!   `fetch_add`s; [`HistogramSnapshot`]s are mergeable and answer
//!   p50/p95/p99/p999 plus count/sum.
//! * [`TraceId`] + [`TRACE_HEADER`] — a 64-bit request trace id, minted at
//!   the outermost tier (the fleet router, or the node for direct hits)
//!   and propagated via the `x-exa-trace-id` header so one request can be
//!   followed across the router, the wire front-end and the serve queue.
//! * [`SlowRing`] — a fixed-size ring of the slowest recent requests with
//!   their per-stage breakdowns, served by `GET /v1/debug/slow`.
//! * [`stats_struct!`] — one declaration per scalar stat: a snapshot struct
//!   and its [`Stat`] table (key, kind, help, reader) from one field list,
//!   from which the JSON stats documents and `/metrics` are both rendered.
//! * [`PromText`] — a Prometheus text-format (version 0.0.4) renderer for
//!   stat tables, labelled gauges and cumulative histogram series, backing
//!   the `GET /metrics` endpoints on both `WireServer` and `FleetRouter`.
//!
//! # Example
//!
//! ```
//! use exa_telemetry::Histogram;
//! use std::time::Duration;
//!
//! let hist = Histogram::new();
//! for ms in [1u64, 2, 3, 50] {
//!     hist.record(Duration::from_millis(ms));
//! }
//! let snap = hist.snapshot();
//! assert_eq!(snap.count(), 4);
//! // p50 is the bucket upper bound: within 3.2 % above 2 ms.
//! assert!(snap.p50() >= 0.002 && snap.p50() < 0.002 * 1.04);
//! ```

pub mod hist;
pub mod prom;
pub mod slow;
mod stat;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot, MAX_RELATIVE_ERROR};
pub use prom::{escape_label, validate_exposition, PromText};
pub use slow::{SlowEntry, SlowRing, DEFAULT_SLOW_CAPACITY, DEFAULT_SLOW_WINDOW};
pub use stat::{doc_text, Kind, Stat, Value};
pub use trace::{TraceId, TRACE_HEADER};
