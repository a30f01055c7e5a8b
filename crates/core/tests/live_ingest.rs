//! Streaming-ingestion guarantees: incremental Cholesky updates agree with
//! from-scratch refits, downdate→update round-trips are bit-exact, and
//! background refactorizations never tear a served factor.

use exa_covariance::{CovarianceKernel, Location, MaternKernel};
use exa_geostat::{synthetic_locations_n, Backend, FittedModel, GeoModel, LiveModel, LivePolicy};
use exa_runtime::Runtime;
use exa_util::Rng;
use proptest::prelude::*;
use std::sync::Arc;

fn fitted(n: usize, seed: u64, backend: Backend) -> Arc<FittedModel<MaternKernel>> {
    let mut rng = Rng::seed_from_u64(seed);
    let locations = Arc::new(synthetic_locations_n(n, &mut rng));
    let rt = Runtime::new(2);
    let gen = GeoModel::<MaternKernel>::builder()
        .locations(locations.clone())
        .tile_size(32)
        .build()
        .unwrap()
        .at_params(&[1.0, 0.1, 0.5], &rt)
        .unwrap();
    let z = gen.simulate(&mut rng, &rt);
    Arc::new(
        GeoModel::<MaternKernel>::builder()
            .locations(locations)
            .data(z)
            .backend(backend)
            .tile_size(32)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap(),
    )
}

fn fresh_points(k: usize, seed: u64) -> (Vec<Location>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let locs = synthetic_locations_n(k, &mut rng)
        .iter()
        // Offset away from the unit-square observed set so appended points
        // never coincide with existing ones (Σ stays PD).
        .map(|l| Location::new(l.x + 1.5, l.y + 0.25))
        .collect::<Vec<_>>();
    let mut vals = vec![0.0; k];
    rng.fill_gaussian(&mut vals);
    (locs, vals)
}

fn targets(m: usize, seed: u64) -> Vec<Location> {
    let mut rng = Rng::seed_from_u64(seed);
    synthetic_locations_n(m, &mut rng)
        .iter()
        .map(|l| Location::new(l.x * 0.9 + 0.03, l.y * 0.9 + 0.05))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: k appended points via the rank-k update produce kriging
    /// means/variances matching a from-scratch fit within 1e-8 relative
    /// tolerance.
    #[test]
    fn rank_k_update_matches_from_scratch_fit(
        n in 40usize..90,
        k in 1usize..12,
        seed in 0u64..500,
    ) {
        let rt = Runtime::new(2);
        let base = fitted(n, seed, Backend::FullBlock);
        let (pts, vals) = fresh_points(k, seed ^ 0xabcd);
        let updated = base.with_appended(&pts, &vals, &rt).unwrap().expect("dense updates");
        let refit = base.refit_appended(&pts, &vals, &rt).unwrap();

        let q = targets(7, seed ^ 0x77);
        let (pu, vu) = updated.predict_with_variance(&q, &rt).unwrap();
        let (pr, vr) = refit.predict_with_variance(&q, &rt).unwrap();
        for (a, b) in pu.values.iter().zip(&pr.values) {
            prop_assert!((a - b).abs() <= 1e-8 * b.abs().max(1.0), "mean {a} vs {b}");
        }
        for (a, b) in vu.iter().zip(&vr) {
            prop_assert!((a - b).abs() <= 1e-8 * b.abs().max(1e-12), "var {a} vs {b}");
        }
    }

    /// Satellite: the downdate→update round-trip (append k, expire the same
    /// k) returns to the original factor bits-close — predictions and
    /// likelihood are bitwise identical to the untouched model.
    #[test]
    fn downdate_update_round_trip_is_bit_exact(
        n in 40usize..80,
        k in 1usize..10,
        seed in 0u64..500,
    ) {
        let rt = Runtime::new(2);
        let base = fitted(n, seed, Backend::FullBlock);
        let (pts, vals) = fresh_points(k, seed ^ 0x5a5a);
        let grown = base.with_appended(&pts, &vals, &rt).unwrap().unwrap();
        let tail: Vec<usize> = (n..n + k).collect();
        let back = grown.with_removed(&tail, &rt).unwrap().unwrap();

        let q = targets(5, seed ^ 0x99);
        let p0 = base.predict_batch(&[&q]).unwrap();
        let p1 = back.predict_batch(&[&q]).unwrap();
        for (a, b) in p0[0].values.iter().zip(&p1[0].values) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "round-trip changed bits: {} vs {}", a, b);
        }
        let (l0, l1) = (base.log_likelihood().unwrap(), back.log_likelihood().unwrap());
        prop_assert_eq!(l0.value.to_bits(), l1.value.to_bits());
    }
}

#[test]
fn live_model_observe_updates_predictions_and_drift() {
    let rt = Runtime::new(2);
    let base = fitted(64, 3, Backend::FullBlock);
    let live = LiveModel::new(base.clone(), LivePolicy::default());
    let (pts, vals) = fresh_points(5, 17);

    let before = live.snapshot();
    let out = live.observe(&pts, &vals, &rt).unwrap();
    assert!(out.used_incremental);
    assert_eq!(out.applied, 5);
    assert_eq!(out.model_points, 69);
    assert_eq!(out.updates_since_refactor, 1);

    // The snapshot taken before the observe is untouched; the new one
    // matches a from-scratch refit.
    assert_eq!(before.kernel().len(), 64);
    let now = live.snapshot();
    assert_eq!(now.kernel().len(), 69);
    let refit = base.refit_appended(&pts, &vals, &rt).unwrap();
    let q = targets(6, 5);
    let a = now.predict(&q, &rt).unwrap();
    let b = refit.predict(&q, &rt).unwrap();
    for (x, y) in a.values.iter().zip(&b.values) {
        assert!((x - y).abs() <= 1e-8 * y.abs().max(1.0), "{x} vs {y}");
    }

    let d = live.drift();
    assert_eq!(d.updates_total, 1);
    assert_eq!(d.points_ingested, 5);
    assert!(d.condition_growth.is_finite() && d.condition_growth > 0.0);

    // Expire the appended tail: back to the original predictions, bitwise.
    let out = live.expire(&(64..69).collect::<Vec<_>>(), &rt).unwrap();
    assert_eq!(out.model_points, 64);
    let round = live.snapshot();
    let p0 = base.predict_batch(&[&q]).unwrap();
    let p1 = round.predict_batch(&[&q]).unwrap();
    for (x, y) in p0[0].values.iter().zip(&p1[0].values) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(live.drift().points_expired, 5);
}

/// The dense ingest path is an O(n²) factor edit, never an O(n³) refit: an
/// observe and the matching expire both update in place and leave the
/// calling thread's factorization counter where it was.
#[test]
fn dense_observe_and_expire_never_refactor() {
    let rt = Runtime::new(2);
    let live = LiveModel::new(fitted(96, 41, Backend::FullBlock), LivePolicy::default());
    let (pts, vals) = fresh_points(4, 43);

    let before = exa_geostat::factorization_count();
    let observed = live.observe(&pts, &vals, &rt).unwrap();
    let expired = live.expire(&(96..100).collect::<Vec<_>>(), &rt).unwrap();
    assert_eq!(exa_geostat::factorization_count(), before);

    assert!(observed.used_incremental && expired.used_incremental);
    assert!(!observed.refit_triggered && !expired.refit_triggered);
    assert_eq!(expired.model_points, 96);
}

#[test]
fn drift_policy_triggers_background_refit_and_resets_counters() {
    let rt = Runtime::new(2);
    let live = LiveModel::new(
        fitted(48, 9, Backend::FullBlock),
        LivePolicy {
            max_updates: 3,
            ..LivePolicy::default()
        },
    );
    let mut triggered = false;
    for i in 0..3 {
        let (pts, vals) = fresh_points(2, 100 + i);
        triggered |= live.observe(&pts, &vals, &rt).unwrap().refit_triggered;
    }
    assert!(triggered, "third update must cross max_updates=3");
    live.wait_refit_idle();
    let d = live.drift();
    assert_eq!(d.refits_triggered, 1);
    assert_eq!(d.refits_completed, 1);
    assert_eq!(d.updates_since_refactor, 0);

    // Post-refit predictions agree with a cold fit of the same data.
    let snap = live.snapshot();
    let cold = snap.refactored(&rt).unwrap();
    let q = targets(6, 11);
    let a = snap.predict(&q, &rt).unwrap();
    let b = cold.predict(&q, &rt).unwrap();
    for (x, y) in a.values.iter().zip(&b.values) {
        assert!((x - y).abs() <= 1e-8 * y.abs().max(1.0), "{x} vs {y}");
    }
}

#[test]
fn tile_backend_falls_back_to_synchronous_refit() {
    let rt = Runtime::new(2);
    let live = LiveModel::new(fitted(49, 21, Backend::FullTile), LivePolicy::default());
    let (pts, vals) = fresh_points(3, 23);
    let out = live.observe(&pts, &vals, &rt).unwrap();
    assert!(!out.used_incremental, "tile storage cannot update in place");
    assert_eq!(out.model_points, 52);
    assert_eq!(out.updates_since_refactor, 0, "fallback was a refit");
    assert_eq!(live.drift().refits_completed, 1);
}

/// Predictions issued while a background refactorization runs always
/// succeed and serve a consistent (never torn) factor.
#[test]
fn predicts_never_block_or_tear_during_background_refit() {
    let rt = Runtime::new(2);
    let live = LiveModel::new(fitted(81, 31, Backend::FullBlock), LivePolicy::default());
    let q = targets(4, 33);
    let reference = live.snapshot().predict(&q, &rt).unwrap().values;

    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let stop = Arc::new(AtomicBool::new(false));
    let served: Arc<Vec<AtomicUsize>> = Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
    let readers: Vec<_> = (0..served.len())
        .map(|id| {
            let live = live.clone();
            let q = q.clone();
            let stop = stop.clone();
            let served = served.clone();
            std::thread::spawn(move || {
                let rt = Runtime::new(1);
                // `stop` is read after the predict: a reader first scheduled
                // late still serves one.
                loop {
                    let p = live
                        .snapshot()
                        .predict(&q, &rt)
                        .expect("predict during refit");
                    assert!(p.values.iter().all(|v| v.is_finite()));
                    served[id].fetch_add(1, Ordering::Relaxed);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            })
        })
        .collect();
    // Returns once every reader has completed one more predict than it had
    // when called, so the refits below provably overlap running readers.
    let every_reader_serves_once_more = || {
        let seen: Vec<usize> = served.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        while served
            .iter()
            .zip(&seen)
            .any(|(s, was)| s.load(Ordering::Relaxed) == *was)
        {
            std::thread::yield_now();
        }
    };

    // Interleave forced refits and incremental updates under the readers.
    every_reader_serves_once_more();
    for i in 0..4 {
        let (pts, vals) = fresh_points(2, 200 + i);
        live.observe(&pts, &vals, &rt).unwrap();
        live.force_refit();
    }
    live.wait_refit_idle();
    every_reader_serves_once_more();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader panicked");
    }

    // All four updates survived every refit (none lost to a swap race).
    assert_eq!(live.snapshot().kernel().len(), 81 + 8);
    let after = live.snapshot().predict(&q, &rt).unwrap().values;
    assert!(after
        .iter()
        .zip(&reference)
        .all(|(a, b)| (a - b).is_finite() && (a - b).abs() < 1.0));
}
