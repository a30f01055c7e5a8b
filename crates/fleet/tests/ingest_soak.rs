//! Ingest soak: a 3-node in-process fleet under a concurrent observe +
//! predict + abuse mix. One writer streams observations through the
//! router's full-replica fan-out while readers hammer predicts and an
//! abuse worker throws malformed traffic (garbage preambles, mismatched
//! observe bodies, undecodable frames, ghost models) at the same router;
//! a small `EXA_LIVE_REFIT_AFTER` forces background refits mid-run. The
//! run must finish with zero client-visible errors and zero contained
//! panics; once the refits settle every replica must answer
//! **bit-identical** predictions that also agree with a cold from-scratch
//! refit of the full (base ++ streamed) data set.
//!
//! Environment knobs (defaults suit a laptop `cargo test`):
//!
//! * `EXA_INGEST_SOAK_SECONDS` — soak duration (default 2; CI raises it).
//! * `EXA_INGEST_SOAK_CLIENTS` — total workers (default 4): one writer,
//!   the rest predict readers.
//! * `EXA_LIVE_REFIT_AFTER` — update-count refit trigger, defaulted to 32
//!   here when unset so even short local runs refit mid-stream.
//! * `EXA_INGEST_SOAK_STATS_DIR` — when set, the final `/v1/fleet/stats`
//!   document is dumped there (uploaded by CI on failure).

use exa_covariance::{Location, MaternKernel};
use exa_fleet::{FleetConfig, FleetRouter, NodeSpec};
use exa_geostat::{Backend, FittedModel, GeoModel};
use exa_runtime::Runtime;
use exa_serve::ModelRegistry;
use exa_util::Rng;
use exa_wire::json::Json;
use exa_wire::{Codec, WireClient, WireConfig, WireServer};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fitted(n: usize) -> Arc<FittedModel<MaternKernel>> {
    let rt = Runtime::new(2);
    let mut rng = Rng::seed_from_u64(90);
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

/// The i-th streamed observation: a fresh grid point outside the fitted
/// unit square (0.05 spacing keeps consecutive points comfortably
/// non-degenerate for the rank-1 updates).
fn streamed(i: u64) -> (Location, f64) {
    let point = Location::new(
        1.5 + 0.05 * (i % 100) as f64,
        0.25 + 0.05 * (i / 100) as f64,
    );
    (point, (0.1 * i as f64).sin())
}

fn dump_stats(doc: &str) {
    let Ok(dir) = std::env::var("EXA_INGEST_SOAK_STATS_DIR") else {
        return;
    };
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(format!("{dir}/ingest-fleet-stats.json"), doc);
}

/// Raw-socket abuse at the router, write-path flavoured: every pattern
/// must come back as a structured 4xx — deterministically on *every*
/// replica, so none of them may mark a healthy replica stale or demote
/// it. Patterns: garbage preamble, a mismatched points/values observe
/// body, an undecodable binary observe frame, and an observe aimed at a
/// model nobody holds.
fn abuse_round(addr: std::net::SocketAddr) {
    use std::io::{Read, Write};
    let observe_mismatch =
        b"POST /v1/models/live/observe HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 34\r\n\r\n{\"points\":[[0.1,0.2]],\"values\":[]}";
    let observe_bad_frame =
        b"POST /v1/models/live/observe HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-exa-frame\r\nContent-Length: 9\r\n\r\nEXAFjunk!";
    let observe_ghost =
        b"POST /v1/models/ghost/observe HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 37\r\n\r\n{\"points\":[[0.1,0.2]],\"values\":[1.0]}";
    let patterns: [&[u8]; 4] = [
        b"GARBAGE WHERE A REQUEST SHOULD BE\r\n\r\n",
        observe_mismatch,
        observe_bad_frame,
        observe_ghost,
    ];
    for pattern in patterns {
        let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        if stream.write_all(pattern).is_err() {
            continue;
        }
        let mut response = Vec::new();
        let mut chunk = [0u8; 1024];
        // One read is enough: we only care that the router answered with
        // a structured error instead of hanging or dying.
        if let Ok(n) = stream.read(&mut chunk) {
            response.extend_from_slice(&chunk[..n]);
        }
        assert!(
            response.starts_with(b"HTTP/1.1 4"),
            "write-path abuse must be answered with a structured 4xx: {:?}",
            String::from_utf8_lossy(&response)
        );
    }
}

#[test]
fn ingest_soak_stays_consistent_through_background_refits() {
    let seconds = env_usize("EXA_INGEST_SOAK_SECONDS", 2);
    let clients = env_usize("EXA_INGEST_SOAK_CLIENTS", 4).max(2);
    // Force mid-run refits even on short local runs. Read by the nodes'
    // registries when they wrap the model below, so set it first.
    if std::env::var("EXA_LIVE_REFIT_AFTER").is_err() {
        std::env::set_var("EXA_LIVE_REFIT_AFTER", "32");
    }

    let base = fitted(64);
    let nodes: Vec<WireServer<MaternKernel>> = (0..3)
        .map(|_| {
            let registry = Arc::new(ModelRegistry::new());
            registry.insert("live", Arc::clone(&base));
            WireServer::start(registry, WireConfig::default()).unwrap()
        })
        .collect();
    let specs = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| NodeSpec::new(format!("ingest-{i}"), n.local_addr()))
        .collect();
    // Full replication: every observe must land on all three nodes.
    let router = FleetRouter::start(
        specs,
        FleetConfig {
            replication: 3,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let addr = router.local_addr();

    let deadline = Instant::now() + Duration::from_secs(seconds as u64);
    let (observes, predicts, errors, abuse_rounds) = thread::scope(|scope| {
        // ONE writer: a single stream keeps the update order identical on
        // every replica, which is what makes the post-soak bit-agreement
        // check meaningful.
        let writer = scope.spawn(move || {
            let mut client = WireClient::connect(addr).expect("connect writer");
            let (mut ok, mut err) = (0u64, 0u64);
            let mut i = 0u64;
            while Instant::now() < deadline {
                let (point, value) = streamed(i);
                match client.observe("live", &[point], &[value]) {
                    Ok(outcome) => {
                        assert_eq!(outcome.accepted, 1);
                        ok += 1;
                        i += 1;
                    }
                    Err(_) => err += 1,
                }
                // Pace the stream: every observe costs each replica an
                // O(n²) update and periodically an O(n³) background refit.
                thread::sleep(Duration::from_millis(25));
            }
            (ok, err)
        });
        // Readers predict throughout — including while refits are
        // swapping factors underneath them.
        let mut readers = Vec::new();
        for w in 0..clients - 1 {
            readers.push(scope.spawn(move || {
                let mut client = WireClient::connect(addr).expect("connect reader");
                if w % 2 == 0 {
                    client.set_codec(Codec::Binary);
                }
                let targets = [Location::new(0.3, 0.4), Location::new(0.7, 0.2)];
                let (mut ok, mut err) = (0u64, 0u64);
                while Instant::now() < deadline {
                    match client.predict("live", &targets) {
                        Ok(served) => {
                            assert!(served.mean.iter().all(|m| m.is_finite()));
                            ok += 1;
                        }
                        Err(_) => err += 1,
                    }
                }
                (ok, err)
            }));
        }
        // Abuse worker: write-path-flavoured malformed traffic at the
        // router for the whole run. Every pattern is a deterministic
        // rejection on every replica, so it must never trip the router's
        // stale/demote machinery (asserted on the final stats below).
        let abuse = scope.spawn(move || {
            let mut rounds = 0u64;
            while Instant::now() < deadline {
                abuse_round(addr);
                rounds += 1;
                thread::sleep(Duration::from_millis(50));
            }
            rounds
        });
        let (mut observes, mut predicts, mut errors) = (0u64, 0u64, 0u64);
        let (ok, err) = writer.join().expect("writer");
        observes += ok;
        errors += err;
        for reader in readers {
            let (ok, err) = reader.join().expect("reader");
            predicts += ok;
            errors += err;
        }
        let abuse_rounds = abuse.join().expect("abuse worker");
        (observes, predicts, errors, abuse_rounds)
    });

    assert!(observes > 0, "the soak never ingested anything");
    assert!(predicts > 0, "the soak never predicted anything");
    assert_eq!(errors, 0, "{observes} observes / {predicts} predicts");

    // Let every node's background refits settle before comparing bits: a
    // node mid-refit legitimately serves the pre-swap factor.
    let settle_deadline = Instant::now() + Duration::from_secs(60);
    let mut refits_completed = 0u64;
    for node in &nodes {
        let mut direct = WireClient::connect(node.local_addr()).unwrap();
        loop {
            let stats = direct.stats().unwrap();
            let serve = stats.get("serve").unwrap();
            let get = |key: &str| serve.get(key).and_then(Json::as_u64).unwrap();
            if get("ingest_refits_triggered") == get("ingest_refits_completed") {
                refits_completed += get("ingest_refits_completed");
                break;
            }
            assert!(
                Instant::now() < settle_deadline,
                "a background refit never completed"
            );
            thread::sleep(Duration::from_millis(50));
        }
    }
    assert!(
        refits_completed >= 3,
        "the soak must exercise at least one mid-run refit per node \
         (completed {refits_completed} across the fleet)"
    );

    // Post-soak agreement: all three replicas saw the same update stream
    // and the same refit trigger points, so their factors must agree to
    // the bit — directly and through the router, under both codecs.
    let targets = [
        Location::new(0.22, 0.61),
        Location::new(0.74, 0.18),
        Location::new(1.62, 0.33),
    ];
    let mut reference: Option<Vec<u64>> = None;
    for (i, node) in nodes.iter().enumerate() {
        let mut direct = WireClient::connect(node.local_addr()).unwrap();
        for codec in [Codec::Json, Codec::Binary] {
            direct.set_codec(codec);
            let served = direct.predict("live", &targets).unwrap();
            let bits: Vec<u64> = served.mean.iter().map(|v| v.to_bits()).collect();
            match &reference {
                Some(expected) => assert_eq!(
                    expected, &bits,
                    "replica {i} diverged after the soak ({codec})"
                ),
                None => reference = Some(bits),
            }
        }
    }
    let mut routed = WireClient::connect(addr).unwrap();
    let served = routed.predict("live", &targets).unwrap();
    assert_eq!(
        reference.unwrap(),
        served
            .mean
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>(),
        "the routed answer must match the replicas"
    );

    // Cold-refit agreement: a from-scratch factorization of the full
    // (base ++ streamed) data set must agree with the fleet's served
    // answer — the incremental path's drift stays bounded because every
    // background refit resets the factor to exactly this cold state
    // before at most `EXA_LIVE_REFIT_AFTER` further rank-1 updates.
    let rt = Runtime::new(2);
    let (all_points, all_values): (Vec<Location>, Vec<f64>) = (0..observes).map(streamed).unzip();
    let cold = base.refit_appended(&all_points, &all_values, &rt).unwrap();
    let cold_mean = cold.predict(&targets, &rt).unwrap().values;
    for (i, (served, cold)) in served.mean.iter().zip(&cold_mean).enumerate() {
        let scale = cold.abs().max(1.0);
        assert!(
            (served - cold).abs() / scale < 1e-8,
            "target {i}: served {served} vs cold refit {cold} after {observes} observes"
        );
    }

    // Stats: every observe was relayed whole (no partials, no failovers,
    // no stale replicas), and every node applied the full stream without
    // panicking or factorizing on a serve worker.
    let raw = routed
        .request_raw(
            "GET",
            "/v1/fleet/stats",
            "application/json",
            "application/json",
            b"",
        )
        .unwrap();
    assert_eq!(raw.status, 200);
    let text = String::from_utf8(raw.body).unwrap();
    dump_stats(&text);

    let snap = router.shutdown();
    assert_eq!(
        snap.observes_relayed, observes,
        "every observe fanned out whole"
    );
    assert_eq!(snap.observe_partial, 0);
    assert_eq!(snap.stale_marks, 0);
    assert_eq!(snap.failovers, 0);
    for node in nodes {
        let (wire, serve) = node.shutdown();
        assert_eq!(serve.observes_applied, observes, "a replica missed writes");
        // Each abuse round fans exactly one serve-level rejection (the
        // mismatched points/values body) to every replica; the bad frame
        // dies at the wire codec and the ghost model at the registry, so
        // neither reaches this counter. Anything beyond that count would
        // be a legitimate write that failed.
        assert_eq!(
            serve.observes_failed, abuse_rounds,
            "a replica rejected a real write"
        );
        assert_eq!(serve.factorizations_during_serving, 0);
        assert_eq!(wire.panics_contained, 0);
    }
}
