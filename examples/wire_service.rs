//! Wire service: fit models once, serve them over HTTP/1.1, query them
//! from a second thread with the keep-alive [`WireClient`].
//!
//! The flow mirrors a remote serving node's lifecycle:
//!
//! 1. fit two Matérn sessions (full-tile and TLR) — the only factorizations
//!    anywhere in this program;
//! 2. register them in a byte-budgeted `ModelRegistry` and start a
//!    [`WireServer`] on an ephemeral localhost port;
//! 3. from a client thread, walk every endpoint: health, model listing,
//!    predictions with and without variances, statistics;
//! 4. shut down gracefully and verify the serving invariants.
//!
//! While it runs, the printed `curl` lines work against the same server
//! from any other terminal.
//!
//! ```text
//! cargo run --release --example wire_service
//! ```

use exageostat::prelude::*;
use std::sync::Arc;

fn fit(
    name: &str,
    n: usize,
    seed: u64,
    backend: Backend,
    rt: &Runtime,
) -> FittedModel<MaternKernel> {
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
        .backend(backend)
        .tile_size(64)
        .seed(seed)
        .build()
        .expect("valid estimation session")
        .at_params(&[1.0, 0.1, 0.5], rt)
        .expect("SPD at θ̂");
    println!(
        "fitted {name:<9} n={n}  backend={backend}  factor={} KiB",
        fitted.factor_bytes() / 1024
    );
    fitted
}

fn main() {
    let rt = Runtime::new(exageostat::runtime::default_parallelism());

    // --- 1. Fit once. ----------------------------------------------------
    let tile = fit("soil-tile", 512, 7, Backend::FullTile, &rt);
    let tlr = fit("soil-tlr", 512, 8, Backend::tlr(1e-7), &rt);

    // --- 2. Register and serve over TCP. ---------------------------------
    let budget = tile.factor_bytes() + tlr.factor_bytes();
    let registry = Arc::new(ModelRegistry::with_byte_budget(budget));
    registry.insert("soil-tile", Arc::new(tile));
    registry.insert("soil-tlr", Arc::new(tlr));
    let server =
        WireServer::start(Arc::clone(&registry), WireConfig::default()).expect("bind port");
    let addr = server.local_addr();
    println!("\nserving on http://{addr} — try from another terminal:");
    println!("  curl http://{addr}/healthz");
    println!("  curl http://{addr}/v1/models");
    println!(
        "  curl -d '{{\"targets\":[[0.25,0.75]],\"variance\":true}}' http://{addr}/v1/models/soil-tlr/predict"
    );

    // --- 3. Query from a second thread. ----------------------------------
    let client_thread = std::thread::spawn(move || {
        let mut client = WireClient::connect(addr).expect("connect");
        client.health().expect("health");

        let models = client.models().expect("models");
        println!("\nmodels over the wire:");
        for m in &models.models {
            println!("  {:<10} {:>8} KiB", m.name, m.factor_bytes / 1024);
        }

        // Burst both models over the one keep-alive connection.
        for burst in 0..8 {
            let name = if burst % 2 == 0 {
                "soil-tile"
            } else {
                "soil-tlr"
            };
            let targets: Vec<Location> = (0..4)
                .map(|i| {
                    Location::new(
                        0.03 * (burst * 4 + i) as f64 % 1.0,
                        0.9 - 0.02 * (burst + i) as f64,
                    )
                })
                .collect();
            let served = client.predict(name, &targets).expect("predict");
            assert!(served.mean.iter().all(|v| v.is_finite()));
        }
        let served = client
            .predict_with_variance("soil-tlr", &[Location::new(0.5, 0.5)])
            .expect("predict with variance");
        println!(
            "kriging at (0.5, 0.5): mean {:+.4}, variance {:.4}",
            served.mean[0],
            served.variance.as_ref().expect("variance requested")[0],
        );

        // The same connection can switch to the binary frame codec
        // (`application/x-exa-frame`): raw f64 bits on the wire, so the
        // answers match the JSON ones bit for bit.
        client.set_codec(Codec::Binary);
        let binary = client
            .predict_with_variance("soil-tlr", &[Location::new(0.5, 0.5)])
            .expect("binary predict");
        assert_eq!(binary.mean[0].to_bits(), served.mean[0].to_bits());
        println!(
            "binary frame codec: identical bits for the same query (mean {:+.4})",
            binary.mean[0]
        );
        client.set_codec(Codec::Json);

        let stats = client.stats().expect("stats");
        let wire = stats.get("wire").expect("wire section");
        println!(
            "reactor: {} backend, {} requests inline / {} dispatched to workers",
            wire.get("backend").and_then(|v| v.as_str()).unwrap_or("?"),
            wire.get("requests_inline")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
            wire.get("requests_dispatched")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
        );
        let serve = stats.get("serve").expect("serve section");
        println!(
            "server-side: {} served, {} model calls, mean latency {:.0} µs",
            serve
                .get("requests_served")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
            serve
                .get("batches_executed")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
            serve
                .get("mean_latency_seconds")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
                * 1e6,
        );
    });
    client_thread.join().expect("client thread");

    // --- 4. Drain, join, verify. ------------------------------------------
    let (wire, serve) = server.shutdown();
    println!(
        "\nshutdown: {} wire requests ok ({} predict), {} factorizations during serving (must be 0)",
        wire.requests_ok, serve.requests_served, serve.factorizations_during_serving
    );
    assert_eq!(serve.requests_failed, 0);
    assert_eq!(serve.factorizations_during_serving, 0);
    assert_eq!(wire.panics_contained, 0);
}
