//! A fixed-size ring of the slowest recent requests.
//!
//! Tail-latency debugging needs examples, not just percentiles: *which*
//! request was slow, and *where* did its time go? [`SlowRing`] keeps the
//! `capacity` slowest requests seen within a sliding window of the last
//! `window` recordings, each with its per-stage breakdown; `exa-wire`
//! serves the snapshot as `GET /v1/debug/slow`.
//!
//! Admission rule: every recording first expires entries older than the
//! window; then, if the ring is full, the new entry replaces the current
//! minimum-total entry iff it is at least as slow. The window keeps one
//! ancient cold-start outlier from squatting in the ring forever while
//! fresher (if individually faster) tail samples are dropped.

use crate::trace::TraceId;
use exa_check::sync::atomic::{AtomicU64, Ordering};
use exa_check::sync::Mutex;

/// One slow request: its trace id, model, and per-stage nanosecond spans.
///
/// Stage semantics (all measured on the wire node):
/// * `parse_ns` — request carved off the socket → decoded predict call
///   (HTTP routing plus body decoding, either codec).
/// * `queue_ns` — serve-queue wait: enqueue → a worker picked the batch
///   (0 for requests answered on the inline fast path).
/// * `solve_ns` — the kriging solve itself (batched or inline).
/// * `write_ns` — response encoding (the socket flush is asynchronous and
///   belongs to the client's clock, not the node's).
/// * `total_ns` — request carved → response queued for write; ≥ the sum
///   of the stages it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowEntry {
    pub trace: TraceId,
    pub model: String,
    pub parse_ns: u64,
    pub queue_ns: u64,
    pub solve_ns: u64,
    pub write_ns: u64,
    pub total_ns: u64,
    /// Recording sequence number (assigned by the ring; newer is larger).
    pub seq: u64,
}

struct Inner {
    entries: Vec<SlowEntry>,
}

/// The ring itself. The steady-state request path never touches the
/// `Mutex`: the sequence counter is a plain atomic, and two advisory
/// caches — the ring's admission floor and its oldest resident sequence —
/// let a request that cannot enter a full, fresh ring return after three
/// relaxed atomic operations. Only admissible (tail) requests and
/// window-expiry sweeps take the lock.
pub struct SlowRing {
    capacity: usize,
    window: u64,
    /// Recording sequence, advanced outside the lock.
    next_seq: AtomicU64,
    /// Minimum `total_ns` in a full ring (0 while the ring has room or
    /// that minimum is itself 0 — both mean "take the lock").
    floor_ns: AtomicU64,
    /// Oldest sequence still resident: a recording farther than `window`
    /// past this must take the lock to expire stale entries even if it is
    /// itself fast. Both caches are advisory and refreshed under the lock:
    /// a stale-low floor costs one extra lock acquisition; a stale-high
    /// floor can drop a borderline tail sample during the refresh race,
    /// which a best-effort debug ring tolerates.
    oldest_seq: AtomicU64,
    inner: Mutex<Inner>,
}

/// Default ring capacity used by the serving layers.
pub const DEFAULT_SLOW_CAPACITY: usize = 32;
/// Default sliding window (in recordings) for entry expiry.
pub const DEFAULT_SLOW_WINDOW: u64 = 4096;

impl Default for SlowRing {
    fn default() -> Self {
        SlowRing::new(DEFAULT_SLOW_CAPACITY, DEFAULT_SLOW_WINDOW)
    }
}

impl SlowRing {
    /// A ring keeping the `capacity` slowest of the last `window` records.
    pub fn new(capacity: usize, window: u64) -> SlowRing {
        assert!(capacity > 0, "slow ring needs capacity");
        SlowRing {
            capacity,
            window: window.max(capacity as u64),
            next_seq: AtomicU64::new(0),
            floor_ns: AtomicU64::new(0),
            oldest_seq: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                entries: Vec::with_capacity(capacity),
            }),
        }
    }

    /// Considers one finished request for the ring. `entry.seq` is
    /// assigned here; the caller's value is ignored.
    pub fn record(&self, mut entry: SlowEntry) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        entry.seq = seq;
        // Lock-free steady state: the ring is full, this request is faster
        // than everything in it, and nothing resident is old enough to
        // expire — the overwhelmingly common case once warm.
        let floor = self.floor_ns.load(Ordering::Relaxed);
        if floor > 0
            && entry.total_ns < floor
            && seq.saturating_sub(self.oldest_seq.load(Ordering::Relaxed)) <= self.window
        {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let window = self.window;
        inner
            .entries
            .retain(|e| seq.saturating_sub(e.seq) <= window);
        if inner.entries.len() < self.capacity {
            inner.entries.push(entry);
        } else {
            let (slot, min_total) = inner
                .entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.total_ns))
                .min_by_key(|&(_, t)| t)
                .expect("capacity > 0");
            if entry.total_ns >= min_total {
                inner.entries[slot] = entry;
            }
        }
        let floor = if inner.entries.len() == self.capacity {
            inner.entries.iter().map(|e| e.total_ns).min().unwrap_or(0)
        } else {
            0
        };
        let oldest = inner.entries.iter().map(|e| e.seq).min().unwrap_or(seq);
        self.floor_ns.store(floor, Ordering::Relaxed);
        self.oldest_seq.store(oldest, Ordering::Relaxed);
    }

    /// The current ring contents, slowest first.
    pub fn snapshot(&self) -> Vec<SlowEntry> {
        let mut entries = self.inner.lock().unwrap().entries.clone();
        entries.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(b.seq.cmp(&a.seq)));
        entries
    }

    /// Total recordings considered so far (not the ring occupancy).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }
}

/// Model-checked invariants, explored under `RUSTFLAGS="--cfg exa_check"`
/// with `cargo test -p exa-telemetry --lib check_models`.
#[cfg(all(test, exa_check))]
mod check_models {
    use super::*;
    use exa_check::sync::Arc;

    fn entry(total_ns: u64) -> SlowEntry {
        SlowEntry {
            trace: TraceId(total_ns),
            model: "m".to_string(),
            parse_ns: 0,
            queue_ns: 0,
            solve_ns: 0,
            write_ns: 0,
            total_ns,
            seq: 0,
        }
    }

    /// The lock-free fast-reject may drop mid-pack tail samples under a
    /// refresh race (documented best-effort), but it must never drop the
    /// maximum: the cached floor is always ≤ the resident total in a
    /// capacity-1 ring, so the slowest request always survives. Sequence
    /// numbering (and so `recorded()`) must never lose an increment.
    #[test]
    fn check_fast_reject_never_drops_the_maximum() {
        let cfg = exa_check::Config {
            max_iterations: 2_500,
            ..Default::default()
        };
        let report = exa_check::check_with(cfg, || {
            // Window far larger than the record count: expiry never fires,
            // isolating the floor-cache race.
            let ring = Arc::new(SlowRing::new(1, 1_000));
            let writers: Vec<_> = [10u64, 50, 30]
                .into_iter()
                .map(|t| {
                    let ring = Arc::clone(&ring);
                    exa_check::thread::spawn(move || ring.record(entry(t)))
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            assert_eq!(ring.recorded(), 3, "lost a sequence increment");
            let snap = ring.snapshot();
            assert_eq!(snap.len(), 1);
            assert_eq!(
                snap[0].total_ns, 50,
                "fast-reject dropped the slowest request"
            );
        });
        report.assert_ok();
        report.assert_explored(2_500);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(total_ns: u64) -> SlowEntry {
        SlowEntry {
            trace: TraceId(total_ns),
            model: "m".to_string(),
            parse_ns: 1,
            queue_ns: 2,
            solve_ns: total_ns / 2,
            write_ns: 3,
            total_ns,
            seq: 0,
        }
    }

    #[test]
    fn keeps_the_slowest_and_sorts_descending() {
        let ring = SlowRing::new(3, 100);
        for t in [10, 50, 20, 40, 30, 60] {
            ring.record(entry(t));
        }
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.total_ns).collect::<Vec<_>>(),
            vec![60, 50, 40]
        );
        assert_eq!(ring.recorded(), 6);
    }

    #[test]
    fn equal_total_prefers_the_newer_entry() {
        let ring = SlowRing::new(1, 100);
        ring.record(entry(10));
        ring.record(entry(10));
        assert_eq!(ring.snapshot()[0].seq, 1);
    }

    #[test]
    fn window_expires_stale_outliers() {
        let ring = SlowRing::new(2, 4);
        ring.record(entry(1_000_000)); // cold-start outlier, seq 0
        for _ in 0..5 {
            ring.record(entry(10));
        }
        // The outlier is now older than the 4-record window: gone, and the
        // ring holds recent entries even though they are much faster.
        let snap = ring.snapshot();
        assert!(snap.iter().all(|e| e.total_ns == 10), "{snap:?}");
        assert_eq!(snap.len(), 2);
    }
}
