//! Prediction service: fit models once, then serve concurrent kriging
//! queries through `exa-serve`'s micro-batching worker pool.
//!
//! The flow mirrors a serving node's lifecycle:
//!
//! 1. fit two Matérn sessions (a full-tile and a TLR one) over simulated
//!    fields — the only place a Cholesky runs;
//! 2. register them in a byte-budgeted [`ModelRegistry`];
//! 3. start a [`PredictionServer`] and hammer it from several client
//!    threads, mixing closed-loop calls and open-loop bursts;
//! 4. shut down gracefully and print the serving statistics — including
//!    the factorization counter, which must read **zero**.
//!
//! ```text
//! cargo run --release --example prediction_service
//! ```

use exageostat::prelude::*;
use std::sync::Arc;
use std::time::Instant;

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

    // --- 1. Fit once (all the Cholesky work happens here). ---------------
    let tile = fit("soil-tile", 1024, 7, Backend::FullTile, &rt);
    let tlr = fit("soil-tlr", 1024, 8, Backend::tlr(1e-7), &rt);

    // --- 2. Register under a byte budget sized for both factors. ---------
    let budget = tile.factor_bytes() + tlr.factor_bytes();
    let registry = Arc::new(ModelRegistry::with_byte_budget(budget));
    registry.insert("soil-tile", Arc::new(tile));
    registry.insert("soil-tlr", Arc::new(tlr));
    println!(
        "registry: {:?} resident, {} KiB of {} KiB budget",
        registry.names(),
        registry.bytes_in_use() / 1024,
        budget / 1024
    );

    // --- 3. Serve concurrent traffic. ------------------------------------
    let server = PredictionServer::start(Arc::clone(&registry), ServeConfig::default());
    let handle = server.handle();
    let clients = 4;
    let per_client = 200;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let handle = handle.clone();
            scope.spawn(move || {
                let name = if c % 2 == 0 { "soil-tile" } else { "soil-tlr" };
                let mut tickets = Vec::new();
                for r in 0..per_client {
                    let t = Location::new(
                        0.011 * ((c * 37 + r * 13) % 89) as f64,
                        0.009 * ((c * 23 + r * 7) % 97) as f64,
                    );
                    // Closed-loop every 8th request; burst the rest so the
                    // batcher has something to coalesce.
                    if r % 8 == 0 {
                        let served = handle.predict(name, vec![t]).expect("serve");
                        assert!(served.values[0].is_finite());
                    } else {
                        tickets.push(handle.submit(name, vec![t]).expect("submit"));
                    }
                }
                for ticket in tickets {
                    let served = ticket.wait().expect("serve");
                    assert!(served.values[0].is_finite());
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    // --- 4. Drain, join, report. ------------------------------------------
    let stats = server.shutdown();
    let total = (clients * per_client) as f64;
    println!(
        "\nserved {} requests in {:.1} ms",
        stats.requests_served,
        wall * 1e3
    );
    println!("  throughput        {:>10.0} queries/s", total / wall);
    println!("  batches executed  {:>10}", stats.batches_executed);
    println!(
        "  mean batch size   {:>10.1} requests",
        stats.mean_batch_requests()
    );
    println!(
        "  coalesced         {:>10} requests",
        stats.requests_coalesced
    );
    println!("  queue high-water  {:>10}", stats.max_queue_depth);
    println!(
        "  latency mean/max  {:>7.0} / {:.0} µs",
        stats.mean_latency_seconds * 1e6,
        stats.max_latency_seconds * 1e6
    );
    println!(
        "  factorizations during serving: {} (must be 0)",
        stats.factorizations_during_serving
    );
    assert_eq!(stats.requests_served as f64, total);
    assert_eq!(stats.factorizations_during_serving, 0);
}
