//! Streaming ingestion through the fleet tier: an observe fanned to the
//! full replica set keeps every replica's predictions bit-identical to an
//! in-process `LiveModel::observe`, partial failures answer the `207`
//! report, and a stale-marked replica is evicted and refetches a current
//! copy before it serves again.

use exa_covariance::{Location, MaternKernel};
use exa_fleet::{FleetConfig, FleetRouter, NodeSpec};
use exa_geostat::{Backend, FittedModel, GeoModel, LiveModel, LivePolicy};
use exa_runtime::Runtime;
use exa_serve::ModelRegistry;
use exa_util::Rng;
use exa_wire::json::Json;
use exa_wire::{Codec, WireClient, WireConfig, WireError, WireServer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

type Fitted = Arc<FittedModel<MaternKernel>>;

/// A dense (FullBlock) fitted model — the backend whose live factor
/// updates incrementally, so every replica's post-observe state is the
/// deterministic rank-k update of the same base factor.
fn fitted(n: usize, seed: u64) -> Fitted {
    let rt = Runtime::new(2);
    let mut rng = Rng::seed_from_u64(seed);
    let locations = Arc::new(exa_geostat::synthetic_locations_n(n, &mut rng));
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
            .backend(Backend::FullBlock)
            .tile_size(32)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap(),
    )
}

fn fresh_points(k: usize, seed: u64) -> (Vec<Location>, Vec<f64>) {
    let mut rng = Rng::seed_from_u64(seed);
    let locs = exa_geostat::synthetic_locations_n(k, &mut rng)
        .iter()
        .map(|l| Location::new(l.x + 1.5, l.y + 0.25))
        .collect::<Vec<_>>();
    let mut vals = vec![0.0; k];
    rng.fill_gaussian(&mut vals);
    (locs, vals)
}

fn targets(m: usize, seed: u64) -> Vec<Location> {
    let mut rng = Rng::seed_from_u64(seed);
    exa_geostat::synthetic_locations_n(m, &mut rng)
        .iter()
        .map(|l| Location::new(l.x * 0.9 + 0.03, l.y * 0.9 + 0.05))
        .collect()
}

fn start_node(model: Option<&Fitted>, config: WireConfig) -> WireServer<MaternKernel> {
    let registry = Arc::new(ModelRegistry::new());
    if let Some(model) = model {
        registry.insert("alpha", Arc::clone(model));
    }
    WireServer::start(registry, config).unwrap()
}

fn fleet_of(nodes: &[&WireServer<MaternKernel>], replication: usize) -> FleetRouter {
    let specs = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| NodeSpec::new(format!("node-{i}"), n.local_addr()))
        .collect();
    FleetRouter::start(
        specs,
        FleetConfig {
            replication,
            ..FleetConfig::default()
        },
    )
    .unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The PR 9 fleet acceptance: an observe POSTed to the router lands on
/// **every** replica, and every subsequent routed predict — whichever
/// replica rotation picks — is bit-identical to the same
/// `LiveModel::observe` applied in-process. Both codecs.
#[test]
fn observe_fans_to_every_replica_and_predicts_stay_bit_identical() {
    for (codec, seed) in [(Codec::Json, 51u64), (Codec::Binary, 52u64)] {
        let base = fitted(64, seed);
        let (pts, vals) = fresh_points(3, seed ^ 0xbeef);
        let q = targets(4, seed ^ 0x55);

        let rt = Runtime::new(2);
        let reference = LiveModel::new(Arc::clone(&base), LivePolicy::default());
        reference.observe(&pts, &vals, &rt).unwrap();
        let expected = reference.snapshot().predict_batch(&[&q]).unwrap();

        let nodes: Vec<_> = (0..3)
            .map(|_| start_node(Some(&base), WireConfig::default()))
            .collect();
        let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
        let router = fleet_of(&refs, 3);
        let mut client = WireClient::connect(router.local_addr()).unwrap();
        client.set_codec(codec);

        let obs = client.observe("alpha", &pts, &vals).expect("fleet observe");
        assert_eq!(obs.accepted, pts.len() as u64, "{codec}");
        assert_eq!(obs.model_points, 67, "{codec}");
        assert!(obs.used_incremental, "{codec}");

        // Nine predicts: replica rotation walks all three nodes, so a
        // replica that missed the write could not hide.
        for round in 0..9 {
            let served = client.predict("alpha", &q).unwrap();
            assert_eq!(
                bits(&served.mean),
                bits(&expected[0].values),
                "{codec} round {round}: a replica diverged from the \
                 in-process LiveModel::observe result"
            );
        }

        let stats = router.shutdown();
        assert_eq!(stats.observes_relayed, 1, "{codec}: all replicas applied");
        assert_eq!(stats.observe_partial, 0, "{codec}");
        assert_eq!(stats.stale_marks, 0, "{codec}");
        assert_eq!(stats.failovers, 0, "{codec}");
        for node in nodes {
            let (wire, serve) = node.shutdown();
            assert_eq!(serve.observes_applied, 1, "{codec}: every replica wrote");
            assert_eq!(serve.factorizations_during_serving, 0, "{codec}");
            assert_eq!(wire.panics_contained, 0, "{codec}");
        }
    }
}

/// A model's replica set is a function of its name and the placement
/// epoch, never of traffic. With `replication: 1` on two nodes that both
/// hold `alpha`, the observe lands on alpha's one ring owner, and every
/// later predict — 300 per codec, well past any request-count threshold —
/// must still go to that owner and carry the in-process
/// `LiveModel::observe` bits. A router that widened a model's replica set
/// once it turned hot (an adaptive top-k hot set refreshed every 128
/// requests, with no epoch bump and no stale mark) fails this: rotation
/// then sends about half the predicts to the node whose copy never saw
/// the observe.
#[test]
fn replica_sets_do_not_widen_with_traffic() {
    let base = fitted(64, 91);
    let (pts, vals) = fresh_points(3, 92);
    let q = targets(4, 93);

    let rt = Runtime::new(2);
    let reference = LiveModel::new(Arc::clone(&base), LivePolicy::default());
    reference.observe(&pts, &vals, &rt).unwrap();
    let expected = reference.snapshot().predict_batch(&[&q]).unwrap();

    let nodes: Vec<_> = (0..2)
        .map(|_| start_node(Some(&base), WireConfig::default()))
        .collect();
    let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
    let router = fleet_of(&refs, 1);
    let mut client = WireClient::connect(router.local_addr()).unwrap();
    let obs = client.observe("alpha", &pts, &vals).expect("fleet observe");
    assert_eq!(obs.accepted, pts.len() as u64);

    for codec in [Codec::Json, Codec::Binary] {
        client.set_codec(codec);
        for round in 0..300 {
            let served = client.predict("alpha", &q).unwrap();
            assert_eq!(
                bits(&served.mean),
                bits(&expected[0].values),
                "{codec} round {round}: a predict reached a replica that \
                 never saw the observe"
            );
        }
    }

    let stats = router.shutdown();
    assert_eq!(stats.observes_relayed, 1);
    assert_eq!(stats.rebalances, 0, "traffic must not move placement");
    let applied: u64 = nodes
        .into_iter()
        .map(|node| node.shutdown().1.observes_applied)
        .sum();
    assert_eq!(applied, 1, "replication 1 writes exactly one node");
}

/// One replica rejects the observe (its body cap is smaller than the
/// batch): the router answers a `207` report naming the failure, marks
/// the replica stale, evicts the model there before its next predict
/// relay, and the replica refetches a current copy through its loader —
/// after which its predictions are bit-identical again.
#[test]
fn partial_failure_reports_207_and_stale_replica_refetches_on_next_miss() {
    let base = fitted(64, 71);
    let (pts, vals) = fresh_points(4, 72);
    let q = targets(1, 73);
    let store: Arc<Mutex<HashMap<String, Fitted>>> = Arc::new(Mutex::new(HashMap::from([(
        "alpha".to_string(),
        Arc::clone(&base),
    )])));

    let rt = Runtime::new(2);
    let reference = LiveModel::new(Arc::clone(&base), LivePolicy::default());
    reference.observe(&pts, &vals, &rt).unwrap();
    let expected = reference.snapshot().predict_batch(&[&q]).unwrap();

    // Node 0 takes the observe; node 1's body cap rejects it (but still
    // passes the tiny predict and evict bodies below). Both can reload
    // from the shared store.
    let make_node = |config: WireConfig| {
        let registry = Arc::new(ModelRegistry::new());
        registry.insert("alpha", Arc::clone(&base));
        let store = Arc::clone(&store);
        registry.set_loader(move |name| store.lock().unwrap().get(name).cloned());
        WireServer::start(registry, config).unwrap()
    };
    let node_a = make_node(WireConfig::default());
    let node_b = make_node(WireConfig {
        max_body_bytes: 64,
        ..WireConfig::default()
    });
    let refs = [&node_a, &node_b];
    let router = fleet_of(&refs, 2);
    let mut client = WireClient::connect(router.local_addr()).unwrap();

    // Fan the observe: node-0 applies, node-1 413s → a 207 report.
    let mut w = exa_wire::json::JsonWriter::new();
    w.begin_object();
    w.key("points");
    w.begin_array();
    for p in &pts {
        w.begin_array();
        w.number(p.x);
        w.number(p.y);
        w.end_array();
    }
    w.end_array();
    w.key("values");
    w.begin_array();
    for v in &vals {
        w.number(*v);
    }
    w.end_array();
    w.end_object();
    let body = w.finish();
    assert!(body.len() > 64, "the batch must overflow node-1's cap");
    let response = client
        .request_raw(
            "POST",
            "/v1/models/alpha/observe",
            "application/json",
            "application/json",
            body.as_bytes(),
        )
        .unwrap();
    assert_eq!(response.status, 207, "mixed outcome must report partially");
    let report = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(report.get("model").and_then(Json::as_str), Some("alpha"));
    assert_eq!(report.get("succeeded").and_then(Json::as_u64), Some(1));
    assert_eq!(report.get("failed").and_then(Json::as_u64), Some(1));
    let replicas = report.get("replicas").and_then(Json::as_array).unwrap();
    assert_eq!(replicas.len(), 2);
    let failed = replicas
        .iter()
        .find(|r| r.get("ok").and_then(Json::as_bool) == Some(false))
        .expect("the report must name the failed replica");
    assert_eq!(failed.get("node").and_then(Json::as_str), Some("node-1"));
    assert_eq!(failed.get("status").and_then(Json::as_u64), Some(413));

    // The authoritative store moves forward (as a real ingest pipeline's
    // source of truth would); the stale replica must pick this copy up.
    store
        .lock()
        .unwrap()
        .insert("alpha".to_string(), reference.snapshot());

    // Predicts rotate across both replicas. Before node-1 serves again
    // the router evicts alpha there; the reload pulls the updated copy,
    // so every answer — from either replica — carries the same bits as
    // the in-process reference.
    for round in 0..8 {
        let served = client.predict("alpha", &q).unwrap();
        assert_eq!(
            bits(&served.mean),
            bits(&expected[0].values),
            "round {round}: a stale replica served pre-observe bits"
        );
    }

    let stats = router.shutdown();
    assert_eq!(stats.observe_partial, 1);
    assert_eq!(stats.observes_relayed, 0);
    assert_eq!(stats.stale_marks, 1);
    assert_eq!(stats.stale_evictions, 1, "the mark must be consumed");
    assert_eq!(stats.demotions, 0, "a 4xx rejection is not a sick node");

    // Node-1 really went through evict → miss → reload: alpha is resident
    // again and the reload registered as a registry miss (explicit evicts
    // deliberately don't count as LRU-pressure evictions).
    let mut direct = WireClient::connect(node_b.local_addr()).unwrap();
    let models = direct.models().unwrap();
    assert!(
        models.models.iter().any(|m| m.name == "alpha"),
        "node-1 must hold alpha again after the refetch"
    );
    assert!(models.misses >= 1, "the refetch must go through the loader");
    node_a.shutdown();
    node_b.shutdown();
}

/// Observe miss semantics mirror predicts: a model no replica knows 404s
/// through, and a replica that merely lacks the model (404 next to a
/// success) shows up in the partial report without being stale-marked or
/// demoted — it holds nothing that can go stale.
#[test]
fn observe_misses_resolve_like_predicts_and_do_not_mark_stale() {
    let base = fitted(49, 81);
    let (pts, vals) = fresh_points(2, 82);
    let node_a = start_node(Some(&base), WireConfig::default());
    let node_b = start_node(None, WireConfig::default());
    let refs = [&node_a, &node_b];
    let router = fleet_of(&refs, 2);
    let mut client = WireClient::connect(router.local_addr()).unwrap();

    // Resident nowhere → the relayed 404 stands.
    match client.observe("ghost", &pts, &vals) {
        Err(WireError::Api {
            status: 404, code, ..
        }) => assert_eq!(code, "unknown_model"),
        other => panic!("expected a relayed 404, got {other:?}"),
    }

    // Resident on one of two replicas → partial, naming the miss.
    let response = client
        .request_raw(
            "POST",
            "/v1/models/alpha/observe",
            "application/json",
            "application/json",
            br#"{"points":[[1.9,0.4]],"values":[0.5]}"#,
        )
        .unwrap();
    assert_eq!(response.status, 207);
    let report = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    let replicas = report.get("replicas").and_then(Json::as_array).unwrap();
    let failed = replicas
        .iter()
        .find(|r| r.get("ok").and_then(Json::as_bool) == Some(false))
        .unwrap();
    assert_eq!(
        failed.get("code").and_then(Json::as_str),
        Some("unknown_model")
    );

    let stats = router.shutdown();
    assert_eq!(stats.observe_partial, 1);
    assert_eq!(stats.stale_marks, 0, "a 404 replica holds nothing stale");
    assert_eq!(stats.demotions, 0);
    node_a.shutdown();
    node_b.shutdown();
}
