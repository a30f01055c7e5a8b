//! End-to-end streaming ingestion over the wire: a `POST
//! /v1/models/{name}/observe` through a real TCP server changes
//! predictions **bit-identically** to calling `LiveModel::observe`
//! in-process, under both codecs; failures are structured errors; the
//! byte ledger reaccounts as the factor grows.

use exa_covariance::{Location, MaternKernel};
use exa_geostat::{synthetic_locations_n, Backend, FittedModel, GeoModel, LiveModel, LivePolicy};
use exa_runtime::Runtime;
use exa_serve::ModelRegistry;
use exa_util::Rng;
use exa_wire::codec::Codec;
use exa_wire::{WireClient, WireConfig, WireError, WireServer};
use std::sync::Arc;

fn fitted(n: usize, seed: u64, backend: Backend) -> Arc<FittedModel<MaternKernel>> {
    let rt = Runtime::new(2);
    let mut rng = Rng::seed_from_u64(seed);
    let locations = Arc::new(synthetic_locations_n(n, &mut rng));
    let generator = GeoModel::<MaternKernel>::builder()
        .locations(locations.clone())
        .tile_size(32)
        .build()
        .unwrap()
        .at_params(&[1.0, 0.1, 0.5], &rt)
        .unwrap();
    let z = generator.simulate(&mut rng, &rt);
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

/// The PR 9 acceptance criterion: a wire-ingested observation changes a
/// model's predictions bit-identically to the same `LiveModel::observe`
/// applied in-process — under both codecs.
#[test]
fn wire_observe_matches_in_process_live_model_bit_identically() {
    for (codec, seed) in [(Codec::Json, 11u64), (Codec::Binary, 12u64)] {
        let base = fitted(72, seed, Backend::FullBlock);
        let (pts, vals) = fresh_points(4, seed ^ 0xfeed);
        let q = targets(5, seed ^ 0x33);

        // In-process reference: same base model, same observe.
        let rt = Runtime::new(2);
        let reference = LiveModel::new(Arc::clone(&base), LivePolicy::default());
        let ref_out = reference.observe(&pts, &vals, &rt).unwrap();
        let expected = reference.snapshot().predict_batch(&[&q]).unwrap();

        // Wire path: ingest through a real socket, then predict.
        let registry = Arc::new(ModelRegistry::new());
        registry.insert("m", Arc::clone(&base));
        let server = WireServer::start(Arc::clone(&registry), WireConfig::default()).expect("bind");
        let mut client = WireClient::connect(server.local_addr()).expect("connect");
        client.set_codec(codec);

        let before = client.predict("m", &q).expect("predict before observe");
        let obs = client.observe("m", &pts, &vals).expect("wire observe");
        assert_eq!(obs.accepted, pts.len() as u64, "{codec}");
        assert_eq!(obs.model_points, 76, "{codec}");
        assert_eq!(obs.updates_since_refactor, ref_out.updates_since_refactor);
        assert!(
            obs.used_incremental,
            "{codec}: dense factors update in place"
        );
        assert!(obs.latency_seconds > 0.0);

        let after = client.predict("m", &q).expect("predict after observe");
        assert_ne!(
            before.mean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            after.mean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{codec}: the observation must move the predictions"
        );
        for (wire, inproc) in after.mean.iter().zip(&expected[0].values) {
            assert_eq!(
                wire.to_bits(),
                inproc.to_bits(),
                "{codec}: wire-ingested predictions must be bit-identical to \
                 in-process LiveModel::observe ({wire} vs {inproc})"
            );
        }

        // The ledger reaccounted for the grown factor.
        let stats = registry.stats();
        assert_eq!(stats.reaccounts, 1, "{codec}");
        let (wire_stats, serve_stats) = server.shutdown();
        assert_eq!(serve_stats.observes_applied, 1, "{codec}");
        assert_eq!(serve_stats.observe_points_ingested, 4, "{codec}");
        assert_eq!(serve_stats.factorizations_during_serving, 0, "{codec}");
        assert_eq!(wire_stats.panics_contained, 0, "{codec}");
    }
}

/// `/v1/stats` and `/metrics` surface the ingest counters and drift
/// gauges; `/v1/models/{name}/evict` drops a model so the next miss can
/// reload it.
#[test]
fn observe_stats_drift_gauges_and_evict_round_trip() {
    let base = fitted(64, 21, Backend::FullBlock);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", Arc::clone(&base));
    let server = WireServer::start(Arc::clone(&registry), WireConfig::default()).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let (pts, vals) = fresh_points(3, 77);
    client.observe("m", &pts, &vals).expect("observe");

    let stats = client.stats().expect("stats");
    let serve = stats.get("serve").expect("serve section");
    let get_u = |key: &str| {
        serve
            .get(key)
            .and_then(exa_wire::json::Json::as_u64)
            .unwrap_or_else(|| panic!("serve.{key} missing"))
    };
    assert_eq!(get_u("observes_applied"), 1);
    assert_eq!(get_u("observe_points_ingested"), 3);
    assert_eq!(get_u("ingest_updates_since_refactor"), 1);
    assert_eq!(get_u("ingest_updates_total"), 1);
    assert!(
        serve
            .get("ingest_condition_growth")
            .and_then(exa_wire::json::Json::as_f64)
            .expect("condition growth gauge")
            > 0.0
    );
    let registry_stats = stats.get("registry").expect("registry section");
    assert_eq!(
        registry_stats
            .get("reaccounts")
            .and_then(exa_wire::json::Json::as_u64),
        Some(1)
    );

    // The Prometheus exposition carries the same families.
    let metrics = client
        .request_raw("GET", "/metrics", "application/json", "*/*", b"")
        .expect("metrics");
    let text = String::from_utf8(metrics.body).unwrap();
    for needle in [
        "exa_serve_observes_applied 1",
        "exa_serve_ingest_updates_since_refactor 1",
        "exa_registry_reaccounts 1",
        "exa_serve_observe_seconds_count 1",
    ] {
        assert!(text.contains(needle), "metrics missing {needle:?}");
    }

    // Evict: resident → true, gone → false, predict → unknown_model.
    assert!(client.evict("m").expect("evict resident"));
    assert!(!client.evict("m").expect("evict absent"));
    match client.predict("m", &targets(2, 5)) {
        Err(WireError::Api {
            status: 404, code, ..
        }) => assert_eq!(code, "unknown_model"),
        other => panic!("expected 404 unknown_model, got {other:?}"),
    }
    server.shutdown();
}

/// Ingest-path failures are structured errors, not dropped connections:
/// unknown models 404, length mismatches and empty batches 400, and a
/// malformed binary frame 400s with `invalid_frame`.
#[test]
fn observe_failures_are_structured_errors() {
    let base = fitted(49, 31, Backend::FullBlock);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", Arc::clone(&base));
    let server = WireServer::start(Arc::clone(&registry), WireConfig::default()).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let (pts, vals) = fresh_points(2, 9);

    match client.observe("ghost", &pts, &vals) {
        Err(WireError::Api {
            status: 404, code, ..
        }) => assert_eq!(code, "unknown_model"),
        other => panic!("expected 404, got {other:?}"),
    }
    match client.observe("m", &pts, &vals[..1]) {
        Err(WireError::Api {
            status: 400, code, ..
        }) => assert_eq!(code, "invalid_query"),
        other => panic!("expected 400, got {other:?}"),
    }
    match client.observe("m", &[], &[]) {
        Err(WireError::Api {
            status: 400, code, ..
        }) => assert_eq!(code, "invalid_query"),
        other => panic!("expected 400, got {other:?}"),
    }

    // A predict frame POSTed to the observe endpoint is a kind mismatch.
    let bad = exa_wire::codec::encode_predict_request(&pts, false);
    let response = client
        .request_raw(
            "POST",
            "/v1/models/m/observe",
            exa_wire::codec::FRAME_CONTENT_TYPE,
            exa_wire::codec::FRAME_CONTENT_TYPE,
            &bad,
        )
        .expect("transport ok");
    assert_eq!(response.status, 400);
    let body = String::from_utf8(response.body).unwrap();
    assert!(body.contains("invalid_frame"), "{body}");

    // Wrong verb on the new endpoints → 405, like every other route.
    let response = client
        .request_raw(
            "GET",
            "/v1/models/m/observe",
            "application/json",
            "*/*",
            b"",
        )
        .expect("transport ok");
    assert_eq!(response.status, 405);
    let response = client
        .request_raw("GET", "/v1/models/m/evict", "application/json", "*/*", b"")
        .expect("transport ok");
    assert_eq!(response.status, 405);

    let (wire_stats, serve_stats) = server.shutdown();
    assert_eq!(serve_stats.observes_applied, 0);
    assert!(serve_stats.observes_failed >= 2);
    assert_eq!(wire_stats.panics_contained, 0);
}

/// A tile-backed model still ingests over the wire — through the
/// synchronous refit fallback — and reports `used_incremental: false`.
#[test]
fn tile_models_fall_back_to_sync_refit_over_the_wire() {
    let base = fitted(49, 41, Backend::FullTile);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", Arc::clone(&base));
    let server = WireServer::start(Arc::clone(&registry), WireConfig::default()).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let (pts, vals) = fresh_points(2, 43);
    let obs = client.observe("m", &pts, &vals).expect("observe");
    assert!(!obs.used_incremental);
    assert_eq!(obs.model_points, 51);
    assert_eq!(obs.updates_since_refactor, 0, "the fallback was a refit");
    let served = client.predict("m", &targets(3, 7)).expect("predict after");
    assert!(served.mean.iter().all(|v| v.is_finite()));

    let (_, serve_stats) = server.shutdown();
    assert_eq!(serve_stats.observe_sync_refits, 1);
    assert_eq!(
        serve_stats.factorizations_during_serving, 0,
        "the fallback refit runs outside the serve workers' counter"
    );
}

/// The unlabelled samples of every family typed `counter` in an exposition.
fn counter_samples(text: &str) -> std::collections::HashMap<&str, f64> {
    let counters: std::collections::HashSet<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
        .collect();
    text.lines()
        .filter_map(|line| line.split_once(' '))
        .filter(|(name, _)| counters.contains(name))
        .map(|(name, value)| (name, value.parse().expect("counter value")))
        .collect()
}

/// A Prometheus `counter` may only go up, or `rate()` sees a reset. The
/// ingest totals are summed over the models resident *now*, so evicting a
/// model that has ingested points lowers them: they must not be typed
/// `counter`, and nothing that is may drop across the eviction.
#[test]
fn no_counter_typed_metric_decreases_when_a_model_is_evicted() {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", fitted(64, 23, Backend::FullBlock));
    let server = WireServer::start(Arc::clone(&registry), WireConfig::default()).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");
    let (pts, vals) = fresh_points(3, 79);
    client.observe("m", &pts, &vals).expect("observe");

    let mut scrape = || {
        let resp = client
            .request_raw("GET", "/metrics", "application/json", "*/*", b"")
            .expect("metrics");
        String::from_utf8(resp.body).expect("metrics utf8")
    };
    let before = scrape();
    assert!(
        before.contains("exa_serve_ingest_points_ingested 3\n"),
        "{before}"
    );
    assert!(registry.evict("m"));
    let after = scrape();
    assert!(
        after.contains("exa_serve_ingest_points_ingested 0\n"),
        "{after}"
    );
    let after = counter_samples(&after);
    for (name, was) in counter_samples(&before) {
        assert!(
            after[name] >= was,
            "counter {name} fell {was} → {}",
            after[name]
        );
    }
    server.shutdown();
}
