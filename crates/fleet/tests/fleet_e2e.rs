//! Three-node in-process fleet, end to end: bit-identical predicts through
//! the router under both codecs, miss-forwarding, node-death failover, and
//! the `/v1/fleet/stats` aggregate.

use exa_covariance::{Location, MaternKernel};
use exa_fleet::{FleetConfig, FleetRouter, NodeSpec};
use exa_geostat::{Backend, FittedModel, GeoModel};
use exa_runtime::Runtime;
use exa_serve::ModelRegistry;
use exa_util::Rng;
use exa_wire::{Codec, WireClient, WireConfig, WireError, WireServer};
use std::collections::HashMap;
use std::sync::Arc;

type Fitted = Arc<FittedModel<MaternKernel>>;
type Catalog = Arc<HashMap<String, Fitted>>;

/// One fitted TLR model per name — the fleet's "model store". Distinct
/// seeds make each model's predictions distinguishable.
fn catalog(names: &[&str]) -> Catalog {
    let rt = Runtime::new(2);
    let mut store = HashMap::new();
    for (i, name) in names.iter().enumerate() {
        let mut rng = Rng::seed_from_u64(7 + i as u64);
        let locations = Arc::new(exa_geostat::synthetic_locations(8, &mut rng));
        let truth = GeoModel::<MaternKernel>::builder()
            .locations(locations.clone())
            .tile_size(32)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap();
        let z = truth.simulate(&mut rng, &rt);
        let fitted = GeoModel::<MaternKernel>::builder()
            .locations(locations)
            .data(z)
            .backend(Backend::tlr(1e-9))
            .tile_size(32)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap();
        store.insert((*name).to_string(), Arc::new(fitted));
    }
    Arc::new(store)
}

/// Starts one backend node. `resident` models are pre-inserted; when
/// `loader` is set the node can pull any catalog model on a miss.
fn start_node(catalog: &Catalog, resident: &[&str], loader: bool) -> WireServer<MaternKernel> {
    let registry = Arc::new(ModelRegistry::new());
    for name in resident {
        registry.insert(*name, Arc::clone(&catalog[*name]));
    }
    if loader {
        let store = Arc::clone(catalog);
        registry.set_loader(move |name| store.get(name).cloned());
    }
    WireServer::start(registry, WireConfig::default()).unwrap()
}

fn fleet_of(nodes: &[&WireServer<MaternKernel>], config: FleetConfig) -> FleetRouter {
    let specs = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| NodeSpec::new(format!("node-{i}"), n.local_addr()))
        .collect();
    FleetRouter::start(specs, config).unwrap()
}

fn targets() -> Vec<Location> {
    (0..6)
        .map(|i| Location::new(0.08 + 0.13 * i as f64, 0.9 - 0.12 * i as f64))
        .collect()
}

/// A predict routed through the fleet must be byte-for-byte the predict a
/// direct client gets from a node serving the same fitted model — for the
/// JSON codec and the binary frame codec alike.
#[test]
fn routed_predicts_are_bit_identical_to_direct_under_both_codecs() {
    let catalog = catalog(&["alpha"]);
    let direct_node = start_node(&catalog, &["alpha"], false);
    let nodes: Vec<_> = (0..3)
        .map(|_| start_node(&catalog, &["alpha"], false))
        .collect();
    let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
    let router = fleet_of(&refs, FleetConfig::default());

    let mut direct = WireClient::connect(direct_node.local_addr()).unwrap();
    let mut routed = WireClient::connect(router.local_addr()).unwrap();
    let targets = targets();
    for codec in [Codec::Json, Codec::Binary] {
        direct.set_codec(codec);
        routed.set_codec(codec);
        let want = direct.predict_with_variance("alpha", &targets).unwrap();
        let got = routed.predict_with_variance("alpha", &targets).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&want.mean), bits(&got.mean), "mean bits, {codec:?}");
        assert_eq!(
            bits(want.variance.as_ref().unwrap()),
            bits(got.variance.as_ref().unwrap()),
            "variance bits, {codec:?}"
        );
    }
    let stats = router.shutdown();
    assert_eq!(stats.forwards, 2, "one relay per codec");
    assert_eq!(stats.failovers, 0);
    for node in nodes {
        node.shutdown();
    }
    direct_node.shutdown();
}

/// A model resident nowhere is not a 404 when the nodes can load it: the
/// owner pulls it from the store on first touch and serves.
#[test]
fn misses_are_loaded_not_404d() {
    let catalog = catalog(&["beta", "gamma"]);
    let nodes: Vec<_> = (0..3).map(|_| start_node(&catalog, &[], true)).collect();
    let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
    let router = fleet_of(&refs, FleetConfig::default());

    let mut client = WireClient::connect(router.local_addr()).unwrap();
    for model in ["beta", "gamma"] {
        let served = client.predict(model, &targets()).unwrap();
        assert!(served.mean.iter().all(|m| m.is_finite()));
    }
    // The owners materialized the models: residency moved from 0 to >0.
    let resident: usize = nodes
        .iter()
        .map(|n| {
            let mut c = WireClient::connect(n.local_addr()).unwrap();
            c.models().unwrap().models.len()
        })
        .sum();
    assert!(resident >= 2, "owners should now hold the loaded models");
    let stats = router.shutdown();
    assert_eq!(stats.misses_retried, 0, "owners loaded; no retry needed");
    for node in nodes {
        node.shutdown();
    }
}

/// Without loaders, the router walks the whole replica set before letting
/// a genuine `unknown_model` 404 through — and counts the retries.
#[test]
fn unknown_model_404_stands_only_after_the_replica_set_is_exhausted() {
    let catalog = catalog(&["delta"]);
    let nodes: Vec<_> = (0..3)
        .map(|_| start_node(&catalog, &["delta"], false))
        .collect();
    let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
    let router = fleet_of(&refs, FleetConfig::default());

    let mut client = WireClient::connect(router.local_addr()).unwrap();
    let err = client.predict("nonexistent", &targets()).unwrap_err();
    match err {
        WireError::Api { status, code, .. } => {
            assert_eq!(status, 404);
            assert_eq!(code, "unknown_model");
        }
        other => panic!("expected a relayed 404, got {other}"),
    }
    let stats = router.shutdown();
    assert!(
        stats.misses_retried >= 1,
        "the 404 must come only after retrying replicas: {stats:?}"
    );
    for node in nodes {
        node.shutdown();
    }
}

/// Kill one node mid-run: replicated models stay servable, the router
/// demotes the dead node and counts failovers, `/v1/fleet/stats` reports
/// the death, and no live node ever re-factorizes during serving.
#[test]
fn killing_one_node_leaves_replicated_models_servable() {
    let catalog = catalog(&["alpha", "beta"]);
    let mut nodes: Vec<_> = (0..3)
        .map(|_| start_node(&catalog, &["alpha", "beta"], false))
        .collect();
    let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
    // Full replication: every node is a replica of every model, so the
    // kill below is guaranteed to hit a replica of both models.
    let router = fleet_of(
        &refs,
        FleetConfig {
            replication: 3,
            ..FleetConfig::default()
        },
    );

    let mut client = WireClient::connect(router.local_addr()).unwrap();
    let targets = targets();
    for model in ["alpha", "beta"] {
        client.predict(model, &targets).unwrap();
    }

    // Kill one node; its registry still held both models.
    let dead = nodes.pop().unwrap();
    dead.shutdown();

    // Replica rotation guarantees the dead node is attempted within a few
    // requests; every request must still answer.
    for round in 0..12 {
        for model in ["alpha", "beta"] {
            let served = client.predict(model, &targets).unwrap();
            assert!(
                served.mean.iter().all(|m| m.is_finite()),
                "round {round}, {model}"
            );
        }
    }
    let stats = router.stats();
    assert!(
        stats.failovers >= 1,
        "dead node never failed over: {stats:?}"
    );
    assert!(stats.demotions >= 1, "dead node never demoted: {stats:?}");

    // The aggregate sees it too: 3 nodes, at least one with null documents
    // (unreachable) and every live node's serving counters potrf-free.
    let doc = client.get_json("/v1/fleet/stats").unwrap();
    let per_node = doc.get("nodes").and_then(|n| n.as_array()).unwrap();
    assert_eq!(per_node.len(), 3);
    let dead_nodes = per_node
        .iter()
        .filter(|n| n.get("stats").is_none_or(|s| s.is_null()))
        .count();
    assert!(dead_nodes >= 1, "the killed node should report null stats");
    for node in per_node {
        let Some(stats) = node.get("stats").filter(|s| !s.is_null()) else {
            continue;
        };
        let potrf = stats
            .get("serve")
            .and_then(|s| s.get("factorizations_during_serving"))
            .and_then(|v| v.as_u64())
            .unwrap();
        assert_eq!(potrf, 0, "serving must never re-factorize");
    }
    let routed = doc.get("router").unwrap();
    assert!(routed.get("failovers").and_then(|v| v.as_u64()).unwrap() >= 1);

    router.shutdown();
    for node in nodes {
        node.shutdown();
    }
}

/// The aggregate endpoint carries the fleet header, the router counters
/// and both per-node documents for a healthy fleet.
#[test]
fn fleet_stats_aggregates_every_node() {
    let catalog = catalog(&["alpha"]);
    let nodes: Vec<_> = (0..3)
        .map(|_| start_node(&catalog, &["alpha"], false))
        .collect();
    let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
    let router = fleet_of(&refs, FleetConfig::default());

    let mut client = WireClient::connect(router.local_addr()).unwrap();
    client.predict("alpha", &targets()).unwrap();
    let doc = client.get_json("/v1/fleet/stats").unwrap();

    let fleet = doc.get("fleet").unwrap();
    assert_eq!(fleet.get("nodes").and_then(|v| v.as_u64()), Some(3));
    let per_node = doc.get("nodes").and_then(|n| n.as_array()).unwrap();
    assert_eq!(per_node.len(), 3);
    let mut residency = 0;
    for node in per_node {
        assert_eq!(node.get("health").and_then(|v| v.as_str()), Some("up"));
        // Each node's own stats document is embedded verbatim: the wire
        // section is present and the inline/dispatch split is readable.
        let wire = node.get("stats").and_then(|s| s.get("wire")).unwrap();
        assert!(wire
            .get("requests_inline")
            .and_then(|v| v.as_u64())
            .is_some());
        assert!(wire
            .get("requests_dispatched")
            .and_then(|v| v.as_u64())
            .is_some());
        let serve = node.get("stats").and_then(|s| s.get("serve")).unwrap();
        assert!(serve.get("queue_depth").and_then(|v| v.as_u64()).is_some());
        residency += node
            .get("models")
            .and_then(|m| m.get("models"))
            .and_then(|m| m.as_array())
            .map(|a| a.len())
            .unwrap();
    }
    assert_eq!(residency, 3, "alpha resident on every node");
    let router_stats = doc.get("router").unwrap();
    for counter in [
        "forwards",
        "failovers",
        "misses_retried",
        "rebalances",
        "reconnects",
        "demotions",
    ] {
        assert!(
            router_stats.get(counter).and_then(|v| v.as_u64()).is_some(),
            "missing router counter {counter}"
        );
    }

    router.shutdown();
    for node in nodes {
        node.shutdown();
    }
}

/// Pinning a model at runtime bumps the placement epoch; the router
/// observes it as a rebalance and honors the override.
#[test]
fn runtime_pins_rebalance_and_override_placement() {
    let catalog = catalog(&["alpha"]);
    let nodes: Vec<_> = (0..3)
        .map(|_| start_node(&catalog, &["alpha"], false))
        .collect();
    let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
    let router = fleet_of(&refs, FleetConfig::default());

    let mut client = WireClient::connect(router.local_addr()).unwrap();
    client.predict("alpha", &targets()).unwrap();
    router.pin("alpha", vec![0]);
    client.predict("alpha", &targets()).unwrap();
    client.predict("alpha", &targets()).unwrap();
    let stats = router.shutdown();
    assert_eq!(stats.rebalances, 1, "{stats:?}");

    // The pinned node carried the post-pin predicts.
    let mut direct = WireClient::connect(nodes[0].local_addr()).unwrap();
    let node0 = direct.stats().unwrap();
    let ok = node0
        .get("wire")
        .and_then(|w| w.get("requests_ok"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(ok >= 2, "pin not honored: node 0 saw {ok} requests");
    for node in nodes {
        node.shutdown();
    }
}

/// The ISSUE 8 observability acceptance (fleet side): a predict routed
/// through the fleet comes back stamped with a router-minted
/// `x-exa-trace-id`, and that exact id is findable in the serving node's
/// slow ring with a non-zero per-stage breakdown — the cross-node trace
/// is joinable from the client's echo alone. The router also serves a
/// grammar-valid `/metrics` document and a `/v1/fleet/stats` router
/// object with uptime, a monotone epoch, and histogram percentiles.
#[test]
fn router_minted_trace_is_joinable_in_the_node_slow_ring() {
    use exa_telemetry::{validate_exposition, TraceId, TRACE_HEADER};

    let catalog = catalog(&["alpha"]);
    let nodes: Vec<_> = (0..2)
        .map(|_| start_node(&catalog, &["alpha"], false))
        .collect();
    let refs: Vec<&WireServer<MaternKernel>> = nodes.iter().collect();
    let router = fleet_of(&refs, FleetConfig::default());

    let mut client = WireClient::connect(router.local_addr()).unwrap();
    let body = br#"{"targets":[[0.3,0.7],[0.6,0.2]]}"#;

    // Router-minted trace: the client sends none, yet gets one back.
    let resp = client
        .request_raw(
            "POST",
            "/v1/models/alpha/predict",
            "application/json",
            "application/json",
            body,
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let minted = resp.trace.clone().expect("router must stamp a trace id");
    assert!(TraceId::parse(&minted).is_some(), "unparseable {minted:?}");

    // Caller-supplied trace: adopted, propagated, echoed verbatim.
    let resp = client
        .request_raw_with_headers(
            "POST",
            "/v1/models/alpha/predict",
            "application/json",
            "application/json",
            body,
            &[(TRACE_HEADER, "0000feedfacef00d")],
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.trace.as_deref(), Some("0000feedfacef00d"));

    // Join both traces against the backend slow rings: each id must sit in
    // exactly one node's ring, with non-zero parse/solve/total spans.
    let mut found = 0;
    for node in &nodes {
        let mut direct = WireClient::connect(node.local_addr()).unwrap();
        let doc = direct.get_json("/v1/debug/slow").unwrap();
        let entries = doc.get("slow").and_then(|s| s.as_array()).unwrap();
        for wanted in [minted.as_str(), "0000feedfacef00d"] {
            let Some(entry) = entries
                .iter()
                .find(|e| e.get("trace").and_then(|t| t.as_str()) == Some(wanted))
            else {
                continue;
            };
            found += 1;
            assert_eq!(entry.get("model").and_then(|m| m.as_str()), Some("alpha"));
            for span in ["parse_ns", "solve_ns", "total_ns"] {
                let ns = entry.get(span).and_then(|v| v.as_u64()).unwrap();
                assert!(ns > 0, "{span} is zero for trace {wanted}: {entry:?}");
            }
        }
    }
    assert_eq!(found, 2, "both trace ids must appear in a node slow ring");

    // Router /v1/fleet/stats: uptime, monotone epoch, percentiles.
    let doc = client.get_json("/v1/fleet/stats").unwrap();
    let router_obj = doc.get("router").unwrap();
    assert!(
        router_obj
            .get("uptime_seconds")
            .and_then(|v| v.as_f64())
            .unwrap()
            > 0.0
    );
    let epoch1 = router_obj
        .get("stats_epoch")
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(
        router_obj
            .get("request_p99_seconds")
            .and_then(|v| v.as_f64())
            .unwrap()
            > 0.0,
        "router p99 must reflect the predicts above"
    );
    let doc2 = client.get_json("/v1/fleet/stats").unwrap();
    let epoch2 = doc2
        .get("router")
        .and_then(|r| r.get("stats_epoch"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(epoch2 > epoch1, "router stats_epoch must be monotone");

    // Router /metrics: grammar-valid, fleet histograms and node gauges.
    let resp = client
        .request_raw("GET", "/metrics", "application/json", "*/*", b"")
        .unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    validate_exposition(&text).expect("router metrics grammar");
    assert!(text.contains("exa_fleet_request_seconds_bucket{"), "{text}");
    assert!(text.contains("exa_fleet_relay_seconds_bucket{"), "{text}");
    assert!(
        text.contains("exa_fleet_node_up{node=\"node-0\"}"),
        "{text}"
    );

    router.shutdown();
    for node in nodes {
        node.shutdown();
    }
}

/// The "same documents" pin, router side: the key sequence of the `router`
/// object of `/v1/fleet/stats` and the `# HELP` / `# TYPE` lines of the
/// router's `/metrics` are those recorded from the hand-written writers
/// (`tests/golden/`, taken at the commit before the stat table).
#[test]
fn router_stats_and_metrics_match_the_recorded_goldens() {
    let catalog = catalog(&["alpha"]);
    let node = start_node(&catalog, &["alpha"], false);
    let router = fleet_of(&[&node], FleetConfig::default());
    let mut client = WireClient::connect(router.local_addr()).unwrap();

    let doc = client.get_json("/v1/fleet/stats").unwrap();
    let Some(exa_wire::json::Json::Obj(fields)) = doc.get("router") else {
        panic!("/v1/fleet/stats has no router object");
    };
    let keys: String = fields
        .iter()
        .map(|(key, _)| format!("router.{key}\n"))
        .collect();
    assert_eq!(keys, include_str!("golden/router_keys.txt"));

    let resp = client
        .request_raw("GET", "/metrics", "application/json", "*/*", b"")
        .unwrap();
    let text = String::from_utf8(resp.body).unwrap();
    // One TYPE line per family is part of the grammar, so this also proves
    // every metric name in the exposition is unique.
    exa_telemetry::validate_exposition(&text).expect("router metrics grammar");
    let preamble: Vec<&str> = text.lines().filter(|l| l.starts_with("# ")).collect();
    let expected: Vec<&str> = include_str!("golden/metrics_preamble.txt")
        .lines()
        .collect();
    assert_eq!(preamble, expected);

    router.shutdown();
    node.shutdown();
}
