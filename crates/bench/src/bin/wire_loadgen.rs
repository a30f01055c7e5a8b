//! `wire_loadgen` — a closed-loop load generator for the wire front-end.
//!
//! Boots an in-process [`WireServer`] over a freshly fitted n = 1024
//! Matérn session, hammers it with concurrent keep-alive [`WireClient`]
//! connections, and prints end-to-end queries/sec next to the server's own
//! wire and serving statistics — the dslab-style request/queue/latency
//! view of the serving stack, measured over a real socket.
//!
//! ```text
//! cargo run --release -p exa-bench --bin wire_loadgen [-- clients per_client points [--variance] [--codec json|binary] [--latency] [--observe-mix pct]]
//! ```
//!
//! Defaults: 4 clients × 200 requests × 1 point, means only, JSON codec.
//! `--codec binary` drives the same workload through the
//! `application/x-exa-frame` binary frame codec instead. `--latency`
//! records every request's client-observed round-trip into an
//! [`exa_telemetry::Histogram`] and prints p50/p95/p99 alongside the
//! throughput line — the tail view the server-side mean/max hides.
//! `--observe-mix <pct>` turns that fraction of each client's requests
//! into streaming-ingestion observes (`POST …/observe`, one fresh point
//! each) and reports **per-class** p50/p95/p99 — the read-tail-under-
//! writes view; the model is fitted dense (`FullBlock`) in that mode so
//! the observes take the incremental rank-1 path. The run asserts the
//! serving invariants (zero factorizations during serving, zero contained
//! panics) and exits non-zero if they fail.

use exa_covariance::{Location, MaternKernel};
use exa_geostat::{synthetic_locations_n, Backend, FittedModel, GeoModel};
use exa_runtime::Runtime;
use exa_serve::{ModelRegistry, ServeConfig};
use exa_telemetry::Histogram;
use exa_util::Rng;
use exa_wire::{Codec, WireClient, WireConfig, WireServer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn fitted(n: usize, backend: Backend) -> FittedModel<MaternKernel> {
    let rt = Runtime::new(exa_runtime::default_parallelism().min(8));
    let mut rng = Rng::seed_from_u64(3);
    let locs = Arc::new(synthetic_locations_n(n, &mut rng));
    let generator = GeoModel::<MaternKernel>::builder()
        .locations(locs.clone())
        .nugget(0.0)
        .tile_size(64)
        .build()
        .expect("valid generation session")
        .at_params(&[1.0, 0.1, 0.5], &rt)
        .expect("SPD at the true θ");
    let z = generator.simulate(&mut rng, &rt);
    GeoModel::<MaternKernel>::builder()
        .locations(locs)
        .data(z)
        .backend(backend)
        .tile_size(64)
        .build()
        .expect("valid estimation session")
        .at_params(&[1.0, 0.1, 0.5], &rt)
        .expect("SPD at θ̂")
}

fn main() {
    let parse_codec = |value: Option<&str>| match value {
        Some("json") => Codec::Json,
        Some("binary") | Some("bin") => Codec::Binary,
        other => panic!("--codec must be json or binary, got {other:?}"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse_mix = |value: Option<&str>| -> u64 {
        let pct: u64 = value
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("--observe-mix takes a percentage 0..=100, got {value:?}"));
        assert!(pct <= 100, "--observe-mix must be 0..=100, got {pct}");
        pct
    };
    let mut variance = false;
    let mut latency = false;
    let mut codec = Codec::Json;
    let mut observe_mix = 0u64;
    let mut numbers: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg == "--variance" {
            variance = true;
        } else if arg == "--latency" {
            latency = true;
        } else if arg == "--codec" {
            i += 1;
            codec = parse_codec(args.get(i).map(String::as_str));
        } else if let Some(value) = arg.strip_prefix("--codec=") {
            codec = parse_codec(Some(value));
        } else if arg == "--observe-mix" {
            i += 1;
            observe_mix = parse_mix(args.get(i).map(String::as_str));
        } else if let Some(value) = arg.strip_prefix("--observe-mix=") {
            observe_mix = parse_mix(Some(value));
        } else if arg.starts_with("--") {
            // A silently ignored flag yields wrong measurements; refuse.
            panic!(
                "unknown flag {arg:?} (expected --variance, --latency, \
                 --codec json|binary or --observe-mix pct)"
            );
        } else {
            numbers.push(arg.parse().expect("numeric argument"));
        }
        i += 1;
    }
    let clients = numbers.first().copied().unwrap_or(4);
    let per_client = numbers.get(1).copied().unwrap_or(200);
    let points = numbers.get(2).copied().unwrap_or(1).max(1);

    // Observes need a dense factor for the incremental rank-1 path; the
    // read-only workload keeps the tiled backend it always measured.
    let backend = if observe_mix > 0 {
        Backend::FullBlock
    } else {
        Backend::FullTile
    };
    eprintln!("fitting n=1024 model (the only factorization in this run)...");
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", Arc::new(fitted(1024, backend)));
    let server = WireServer::start(
        registry,
        WireConfig {
            serve: ServeConfig {
                workers: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    println!(
        "serving on {addr}: {clients} clients x {per_client} requests x {points} points, {codec} codec{}{}",
        if variance { " (+variance)" } else { "" },
        if observe_mix > 0 {
            format!(", {observe_mix}% observes")
        } else {
            String::new()
        }
    );

    // Client-observed round-trip latency, split per request class so an
    // observe mix reports read and write tails separately. Filled under
    // --latency or whenever a mix is in force.
    let record = latency || observe_mix > 0;
    let predict_rtt = Histogram::new();
    let observe_rtt = Histogram::new();
    let observes_sent = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients as u64 {
            let (predict_rtt, observe_rtt, observes_sent) =
                (&predict_rtt, &observe_rtt, &observes_sent);
            scope.spawn(move || {
                let mut client = WireClient::connect(addr).expect("connect");
                client.set_codec(codec);
                let mut rng = Rng::seed_from_u64(100 + c);
                let mut streamed = 0u64;
                for _ in 0..per_client {
                    if observe_mix > 0 && rng.next_f64() * 100.0 < observe_mix as f64 {
                        // One fresh point per observe, on a per-client
                        // lattice far outside the fitted unit square so
                        // streams never collide across clients.
                        let point = Location::new(
                            1.5 + 0.05 * (streamed % 1000) as f64,
                            10.0 * (c + 1) as f64 + 0.05 * (streamed / 1000) as f64,
                        );
                        let value = rng.next_f64() * 2.0 - 1.0;
                        let sent = Instant::now();
                        let outcome = client.observe("m", &[point], &[value]).expect("observe");
                        if record {
                            observe_rtt.record(sent.elapsed());
                        }
                        assert_eq!(outcome.accepted, 1);
                        assert!(outcome.used_incremental, "dense factors update in place");
                        streamed += 1;
                        observes_sent.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let targets: Vec<Location> = (0..points)
                        .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
                        .collect();
                    let sent = Instant::now();
                    let served = if variance {
                        client
                            .predict_with_variance("m", &targets)
                            .expect("predict")
                    } else {
                        client.predict("m", &targets).expect("predict")
                    };
                    if record {
                        predict_rtt.record(sent.elapsed());
                    }
                    assert!(served.mean.iter().all(|v| v.is_finite()));
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    let (wire, serve) = server.shutdown();
    let total_requests = (clients * per_client) as f64;
    let observes = observes_sent.load(Ordering::Relaxed);
    let predicts = total_requests - observes as f64;
    println!("\n{} wire requests in {:.1} ms", total_requests, wall * 1e3);
    println!(
        "  throughput        {:>10.0} queries/s",
        total_requests / wall
    );
    if record {
        let percentiles = |label: &str, hist: &Histogram| {
            let snap = hist.snapshot();
            if snap.count() == 0 {
                return;
            }
            println!(
                "  {label} p50/p95/p99 {:>7.0} / {:.0} / {:.0} µs ({} samples, client-side, {codec} codec)",
                snap.p50() * 1e6,
                snap.p95() * 1e6,
                snap.p99() * 1e6,
                snap.count()
            );
        };
        percentiles("predict rtt", &predict_rtt);
        percentiles("observe rtt", &observe_rtt);
    }
    if observe_mix > 0 {
        println!(
            "  observes applied  {:>10} ({} points streamed in, {} predicts alongside)",
            serve.observes_applied, serve.observe_points_ingested, predicts
        );
    }
    println!(
        "  points served     {:>10} ({} per request)",
        serve.points_served, points
    );
    println!("  model calls       {:>10}", serve.batches_executed);
    println!("  queue high-water  {:>10}", serve.max_queue_depth);
    println!(
        "  latency mean/max  {:>7.0} / {:.0} µs (server-side)",
        serve.mean_latency_seconds * 1e6,
        serve.max_latency_seconds * 1e6
    );
    println!(
        "  wire: {} conns, {} ok, {} client-err, {} server-err, {} malformed",
        wire.connections_accepted,
        wire.requests_ok,
        wire.requests_client_error,
        wire.requests_server_error,
        wire.malformed_requests
    );
    println!(
        "  factorizations during serving: {} (must be 0); panics contained: {} (must be 0)",
        serve.factorizations_during_serving, wire.panics_contained
    );
    assert_eq!(serve.requests_served as f64, predicts);
    assert_eq!(serve.observes_applied, observes);
    assert_eq!(serve.observes_failed, 0);
    assert_eq!(serve.factorizations_during_serving, 0);
    assert_eq!(wire.panics_contained, 0);
}
