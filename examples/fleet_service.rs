//! Fleet service: three serving nodes behind one [`FleetRouter`], with
//! placement-driven model pulls, verbatim proxying, and mid-run failover.
//!
//! The flow mirrors a sharded serving tier's lifecycle:
//!
//! 1. fit two Matérn sessions into a shared catalog — the only
//!    factorizations anywhere in this program;
//! 2. start three loader-capable [`WireServer`] nodes (no model resident
//!    anywhere — the fleet pulls models on first routed miss) and a
//!    [`FleetRouter`] over them that places each model on its two ring
//!    replicas;
//! 3. from a client thread, predict through the router under both codecs
//!    (answers are bit-identical to a direct node hit by construction),
//!    then read the aggregate `/v1/fleet/stats` document;
//! 4. kill one node mid-run, predict again — the router demotes the dead
//!    node and fails over to a surviving replica — and shut down.
//!
//! While it runs, the printed `curl` lines work against the same router
//! from any other terminal.
//!
//! ```text
//! cargo run --release --example fleet_service
//! ```

use exageostat::prelude::*;
use exageostat::wire::json::Json;
use std::collections::HashMap;
use std::sync::Arc;

fn fit(name: &str, n: usize, seed: u64, rt: &Runtime) -> FittedModel<MaternKernel> {
    let mut rng = Rng::seed_from_u64(seed);
    let locations = Arc::new(synthetic_locations_n(n, &mut rng));
    let generator = GeoModel::<MaternKernel>::builder()
        .locations(locations.clone())
        .nugget(0.0)
        .tile_size(64)
        .build()
        .expect("valid generation session")
        .at_params(&[1.0, 0.1, 0.5], rt)
        .expect("SPD at the true θ");
    let z = generator.simulate(&mut rng, rt);
    let fitted = GeoModel::<MaternKernel>::builder()
        .locations(locations)
        .data(z)
        .backend(Backend::tlr(1e-7))
        .tile_size(64)
        .seed(seed)
        .build()
        .expect("valid estimation session")
        .at_params(&[1.0, 0.1, 0.5], rt)
        .expect("SPD at θ̂");
    println!(
        "fitted {name:<6} n={n}  factor={} KiB",
        fitted.factor_bytes() / 1024
    );
    fitted
}

fn main() {
    let rt = Runtime::new(exageostat::runtime::default_parallelism());

    // --- 1. Fit once into a shared catalog. ------------------------------
    let mut catalog = HashMap::new();
    catalog.insert("soil".to_string(), Arc::new(fit("soil", 256, 7, &rt)));
    catalog.insert("wind".to_string(), Arc::new(fit("wind", 256, 8, &rt)));
    let catalog = Arc::new(catalog);

    // --- 2. Three loader-capable nodes + the router. ---------------------
    // No model is resident anywhere yet: the first routed request for each
    // model misses, the owning node pulls it from the catalog loader, and
    // placement decides steady-state residency.
    let mut nodes: Vec<_> = (0..3)
        .map(|_| {
            let registry = Arc::new(ModelRegistry::new());
            let catalog = Arc::clone(&catalog);
            registry.set_loader(move |name| catalog.get(name).cloned());
            WireServer::start(registry, WireConfig::default()).expect("bind node")
        })
        .collect();
    let specs = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| NodeSpec::new(format!("node-{i}"), node.local_addr()))
        .collect();
    let router = FleetRouter::start(specs, FleetConfig::default()).expect("bind router");
    let addr = router.local_addr();
    println!("\nrouter on http://{addr} — try from another terminal:");
    println!("  curl http://{addr}/healthz");
    println!("  curl http://{addr}/v1/fleet/stats");
    println!("  curl -d '{{\"targets\":[[0.25,0.75]],\"variance\":true}}' http://{addr}/v1/models/soil/predict");

    // --- 3. Predict through the router, both codecs. ---------------------
    let mut client = WireClient::connect(addr).expect("connect router");
    let target = [Location::new(0.5, 0.5)];
    let json = client.predict("soil", &target).expect("json predict");
    client.set_codec(Codec::Binary);
    let binary = client.predict("soil", &target).expect("binary predict");
    assert_eq!(
        json.mean[0].to_bits(),
        binary.mean[0].to_bits(),
        "the router proxies verbatim, so codecs agree bit for bit"
    );
    client.set_codec(Codec::Json);
    let wind = client
        .predict_with_variance("wind", &target)
        .expect("wind predict");
    println!(
        "\nkriging through the router: soil mean {:+.4} (bit-identical in both codecs), \
         wind mean {:+.4} variance {:.4}",
        json.mean[0],
        wind.mean[0],
        wind.variance.as_ref().expect("variance requested")[0],
    );

    let fleet = client
        .request_raw(
            "GET",
            "/v1/fleet/stats",
            "application/json",
            "application/json",
            b"",
        )
        .expect("fleet stats");
    let doc = Json::parse(std::str::from_utf8(&fleet.body).expect("utf8")).expect("stats JSON");
    let counter = |name: &str| {
        doc.get("router")
            .and_then(|r| r.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    println!(
        "fleet stats: {} forwards, {} misses retried, {} failovers; residency:",
        counter("forwards"),
        counter("misses_retried"),
        counter("failovers"),
    );
    for node in doc.get("nodes").and_then(|n| n.as_array()).expect("nodes") {
        let name = node.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        let health = node.get("health").and_then(|v| v.as_str()).unwrap_or("?");
        let resident: Vec<&str> = node
            .get("models")
            .and_then(|m| m.get("models"))
            .and_then(|m| m.as_array())
            .map(|models| {
                models
                    .iter()
                    .filter_map(|m| m.get("name").and_then(|v| v.as_str()))
                    .collect()
            })
            .unwrap_or_default();
        println!("  {name:<7} {health:<7} resident: {resident:?}");
    }

    // --- 4. Kill a node; the fleet routes around it. ----------------------
    let victim = nodes.pop().expect("a node to kill");
    victim.shutdown();
    for _ in 0..8 {
        let survived = client.predict("soil", &target).expect("predict after kill");
        assert_eq!(survived.mean[0].to_bits(), json.mean[0].to_bits());
        let survived = client.predict("wind", &target).expect("predict after kill");
        assert!(survived.mean[0].is_finite());
    }
    let snap = router.stats();
    println!(
        "\nafter killing one node: every model still servable \
         ({} failovers, {} demotions recorded)",
        snap.failovers, snap.demotions
    );

    let snap = router.shutdown();
    println!(
        "shutdown: {} requests ok, {} forwards relayed verbatim",
        snap.requests_ok, snap.forwards
    );
    for node in nodes {
        let (wire, serve) = node.shutdown();
        assert_eq!(wire.panics_contained, 0);
        assert_eq!(
            serve.factorizations_during_serving, 0,
            "fleet serving must never factorize"
        );
    }
}
