//! A lock-free log-linear latency histogram.
//!
//! # Bucket layout
//!
//! Values are nanoseconds in `0..=u64::MAX`. The first 32 buckets are the
//! unit buckets `0..32`; after that each power-of-two range `[2^k, 2^(k+1))`
//! is split into 32 equal sub-buckets. With `v`'s most significant bit at
//! position `m ≥ 5`:
//!
//! ```text
//! shift = m - 5
//! index = (shift + 1) * 32 + ((v >> shift) & 31)
//! ```
//!
//! which is continuous with the unit range at `v = 32`. A bucket's width is
//! `2^shift` and its lower bound is at least `32 · 2^shift`, so the width
//! never exceeds **1/32 = 3.125 %** of the lower bound
//! ([`MAX_RELATIVE_ERROR`]). 60 groups of 32 buckets cover the full `u64`
//! range in 1920 buckets — ~15 KiB of `AtomicU64`s per histogram.
//!
//! # Concurrency
//!
//! [`Histogram::record`] is two relaxed `fetch_add`s: one on the value's
//! bucket, one on the running nanosecond sum. There is no epoch or
//! read-copy machinery; a [`Histogram::snapshot`] taken during concurrent
//! recording may be torn *across* buckets (it is not a point-in-time cut)
//! but never loses or invents counts — the stress test pins
//! `total recorded == sum of bucket counts` after the writers join.

use exa_check::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Subdivisions per power of two (`2^SUB_BITS`).
const SUB_BITS: u32 = 5;
const SUBS: u64 = 1 << SUB_BITS; // 32
/// Sub-bucket groups: unit buckets plus one group per MSB position 5..=63.
const GROUPS: u64 = 60;
/// Total bucket count (covers all of `u64`).
pub(crate) const BUCKETS: usize = (GROUPS * SUBS) as usize; // 1920

/// Upper bound on `(bucket width) / (bucket lower bound)`: quantiles read
/// from the histogram are at most this fraction above the exact sample
/// value (they report the bucket's upper bound).
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;

/// Bucket index for a nanosecond value. Total over all of `u64`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let shift = msb - u64::from(SUB_BITS);
        ((shift + 1) * SUBS + ((v >> shift) & (SUBS - 1))) as usize
    }
}

/// Inclusive lower bound of bucket `i`.
#[inline]
pub(crate) fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < SUBS {
        i
    } else {
        let group = i / SUBS; // ≥ 1
        let sub = i % SUBS;
        (SUBS + sub) << (group - 1)
    }
}

/// Exclusive upper bound of bucket `i` (saturating for the last bucket).
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1)
    }
}

/// A lock-free log-linear histogram of nanosecond durations. See the
/// module docs for the bucket layout and concurrency contract.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration (saturating to `u64::MAX` nanoseconds).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one raw nanosecond value.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records a duration given in (non-negative, finite) seconds.
    #[inline]
    pub fn record_seconds(&self, seconds: f64) {
        if seconds.is_finite() && seconds >= 0.0 {
            self.record_ns((seconds * 1e9).round().min(u64::MAX as f64) as u64);
        }
    }

    /// A consistent-enough copy of the bucket array: counts recorded before
    /// the call are all present; counts racing the call land in this or the
    /// next snapshot. The snapshot's `count` is derived from the bucket sum,
    /// so `count == Σ buckets` holds by construction.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s buckets: quantile queries, merge,
/// and the raw material for Prometheus exposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// Mean recorded duration in seconds (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_seconds() / self.count as f64
        }
    }

    /// The `q`-quantile in seconds, `q ∈ [0, 1]`. Returns the upper bound
    /// of the bucket holding the rank-`⌈q·n⌉` sample, so the result is at
    /// most [`MAX_RELATIVE_ERROR`] above the exact order statistic.
    /// Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The last bucket's upper bound is u64::MAX; report its
                // lower bound instead of a fictitious 584-year latency.
                let ns = if i + 1 >= BUCKETS {
                    bucket_lower(i)
                } else {
                    bucket_upper(i)
                };
                return ns as f64 / 1e9;
            }
        }
        unreachable!("count is the bucket sum");
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Adds `other`'s counts into `self` (bucket layouts are identical by
    /// construction). Sums and counts saturate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Raw bucket counts, index-aligned with [`HistogramSnapshot::bounds`].
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// `(lower inclusive, upper exclusive)` nanosecond bounds of bucket `i`.
    pub fn bounds(i: usize) -> (u64, u64) {
        (bucket_lower(i), bucket_upper(i))
    }
}

/// Model-checked invariants, explored under `RUSTFLAGS="--cfg exa_check"`
/// with `cargo test -p exa-telemetry --lib check_models`. See the exa-check
/// crate docs for what the model does (and does not) verify.
#[cfg(all(test, exa_check))]
mod check_models {
    use super::*;
    use exa_check::sync::Arc;

    /// ISSUE invariant: histogram total == bucket sum under concurrent
    /// record/merge. Two writers record into distinct and shared buckets
    /// while the root thread merges a mid-flight snapshot; after the
    /// writers join, no count or nanosecond may be lost.
    #[test]
    fn check_concurrent_record_and_merge_totals() {
        let cfg = exa_check::Config {
            max_iterations: 3_000,
            ..Default::default()
        };
        let report = exa_check::check_with(cfg, || {
            let h = Arc::new(Histogram::new());
            let writers: Vec<_> = (0..2u64)
                .map(|t| {
                    let h = Arc::clone(&h);
                    exa_check::thread::spawn(move || {
                        h.record_ns(10); // shared bucket: contended fetch_add
                        h.record_ns(1 << (20 + t)); // distinct buckets
                    })
                })
                .collect();
            // Mid-flight snapshot + merge race the writers; the merged copy
            // may be torn across buckets but never sees more than what was
            // recorded.
            let mut merged = HistogramSnapshot::default();
            merged.merge(&h.snapshot());
            assert!(merged.count() <= 4);
            assert_eq!(merged.count(), merged.buckets().iter().sum::<u64>());
            for w in writers {
                w.join().unwrap();
            }
            let s = h.snapshot();
            assert_eq!(s.count(), 4, "lost a bucket increment");
            assert_eq!(s.buckets()[bucket_index(10)], 2);
            let want_sum = 10 + 10 + (1u64 << 20) + (1u64 << 21);
            assert_eq!(
                (s.sum_seconds() * 1e9).round() as u64,
                want_sum,
                "lost a sum increment"
            );
        });
        report.assert_ok();
        report.assert_explored(3_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_util::stats::quantile;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Unit range is identity; the first log-linear group continues it.
        for v in 0..64u64 {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
        }
        // Monotone non-decreasing across doubling boundaries, and every
        // value lies inside its bucket's [lower, upper) bounds.
        let mut probes: Vec<u64> = (0..63)
            .flat_map(|e| [(1u64 << e).saturating_sub(1), 1 << e, (1 << e) + 1])
            .collect();
        probes.sort_unstable();
        let mut last = 0;
        for v in probes {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at v={v}");
            assert!(i < BUCKETS);
            assert!(bucket_lower(i) <= v, "v={v} below bucket lower");
            assert!(v < bucket_upper(i) || bucket_upper(i) == u64::MAX);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_width_respects_documented_relative_error() {
        for i in SUBS as usize..BUCKETS - 1 {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            let rel = (hi - lo) as f64 / lo as f64;
            assert!(
                rel <= MAX_RELATIVE_ERROR + 1e-12,
                "bucket {i}: [{lo},{hi}) rel {rel}"
            );
        }
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record_ns(us * 1_000); // 1µs .. 1ms, uniform
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let expect = |q: f64| q * 1e-3; // exact quantile of the uniform grid
        for q in [0.50, 0.95, 0.99, 0.999] {
            let got = s.quantile(q);
            let want = expect(q);
            assert!(
                got >= want && got <= want * (1.0 + MAX_RELATIVE_ERROR) + 2e-6,
                "q={q}: got {got}, want ≥ {want}"
            );
        }
        assert!((s.sum_seconds() - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn histogram_p99_agrees_with_exact_p99_on_a_lognormal_sample() {
        // Satellite (a): the histogram's p99 must agree with the exact
        // type-7 p99 within the documented bucket error. Lognormal via
        // Box-Muller from a deterministic xorshift stream.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut samples_ns = Vec::with_capacity(10_000);
        let h = Histogram::new();
        for _ in 0..10_000 {
            let (u1, u2): (f64, f64) = (next().max(1e-12), next());
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            // Median 100µs, sigma 0.5 — a plausible service-latency shape.
            let ns = (100_000.0 * (0.5 * z).exp()).round();
            samples_ns.push(ns);
            h.record_ns(ns as u64);
        }
        let exact_p99 = quantile(&samples_ns, 0.99);
        let hist_p99 = h.snapshot().p99() * 1e9;
        let rel = (hist_p99 - exact_p99).abs() / exact_p99;
        // Bucket error (3.125 % high, since we report upper bounds) plus a
        // little slop for the interpolated-vs-order-statistic definition.
        assert!(
            rel <= MAX_RELATIVE_ERROR + 0.01,
            "hist p99 {hist_p99} vs exact {exact_p99} (rel {rel})"
        );
    }

    #[test]
    fn concurrent_recording_never_loses_counts() {
        // Satellite (d): 8 threads record concurrently while a 9th takes
        // snapshots and merges them; afterwards the bucket sum must equal
        // the total recorded exactly.
        use std::sync::Arc;
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50_000;
        let h = Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    let mut v = t * 2654435761 + 1;
                    for _ in 0..PER_THREAD {
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                        h.record_ns(v >> 20);
                    }
                });
            }
            // Concurrent snapshot/merge must not disturb the writers.
            let h2 = Arc::clone(&h);
            scope.spawn(move || {
                let mut merged = HistogramSnapshot::default();
                for _ in 0..100 {
                    merged.merge(&h2.snapshot());
                    std::hint::spin_loop();
                }
                assert_eq!(merged.count(), merged.buckets().iter().sum::<u64>());
            });
        });
        let s = h.snapshot();
        assert_eq!(s.count(), THREADS * PER_THREAD);
        assert_eq!(s.count(), s.buckets().iter().sum::<u64>());
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(10);
        b.record_ns(10);
        b.record_ns(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.buckets()[bucket_index(10)], 2);
        assert!((m.sum_seconds() - 1.00002e-3).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.mean_seconds(), 0.0);
    }
}
