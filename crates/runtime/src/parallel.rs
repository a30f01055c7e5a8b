//! Fork-join data parallelism helpers.
//!
//! The paper's "Full-block" baseline is a LAPACK-style *block* algorithm:
//! each step is a bulk-synchronous parallel region (multi-threaded BLAS)
//! separated by barriers, in contrast to the tile algorithms' asynchronous
//! DAG execution. [`parallel_for`] provides exactly that fork-join shape, and
//! is also used for embarrassingly parallel work like covariance matrix
//! generation.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `body(start, end)` over disjoint chunks of `0..n` on `num_workers`
/// threads (the calling thread participates). Chunks are distributed
/// dynamically via an atomic cursor, so irregular per-chunk cost balances
/// out.
pub fn parallel_for(
    num_workers: usize,
    n: usize,
    chunk: usize,
    body: impl Fn(usize, usize) + Sync,
) {
    let chunk = chunk.max(1);
    let nw = num_workers.max(1).min(n.div_ceil(chunk).max(1));
    if nw == 1 || n == 0 {
        let mut s = 0;
        while s < n {
            let e = (s + chunk).min(n);
            body(s, e);
            s = e;
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let worker = |_: usize| loop {
        let s = cursor.fetch_add(chunk, Ordering::Relaxed);
        if s >= n {
            break;
        }
        let e = (s + chunk).min(n);
        body(s, e);
    };
    std::thread::scope(|scope| {
        for w in 1..nw {
            let worker = &worker;
            scope.spawn(move || worker(w));
        }
        worker(0);
    });
}

/// Runs `f(i, &mut items[i])` for every item on `num_workers` threads.
/// Workers claim one item at a time, so each call may be a coarse unit of
/// work (one tile).
pub fn parallel_update<T: Send>(
    num_workers: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) {
    struct Base<T>(*mut T);
    // SAFETY: `parallel_for` hands each worker a disjoint [s, e) range, so
    // no item is ever borrowed from two threads; T: Send lets it be mutated
    // on another thread.
    unsafe impl<T: Send> Sync for Base<T> {}
    let n = items.len();
    let base = Base(items.as_mut_ptr());
    let base = &base;
    parallel_for(num_workers, n, 1, |s, e| {
        for i in s..e {
            // SAFETY: i < n, and item i is in this call's range only.
            f(i, unsafe { &mut *base.0.add(i) });
        }
    });
}

/// Parallel map over `0..n`, collecting results in index order.
pub fn parallel_map<T: Send>(
    num_workers: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    parallel_update(num_workers, &mut out, |i, slot| *slot = Some(f(i)));
    out.into_iter().map(|o| o.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_all_indices_exactly_once() {
        let n = 10_007;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(8, n, 13, |s, e| {
            for h in hits.iter().take(e).skip(s) {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_worker_sequential_path() {
        let n = 100;
        let acc = AtomicUsize::new(0);
        parallel_for(1, n, 7, |s, e| {
            acc.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), n);
    }

    #[test]
    fn zero_items_is_noop() {
        parallel_for(4, 0, 16, |_, _| panic!("must not be called"));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let v = parallel_map(4, 1000, |i| i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn parallel_map_empty() {
        let v: Vec<usize> = parallel_map(4, 0, |i| i);
        assert!(v.is_empty());
    }
}
