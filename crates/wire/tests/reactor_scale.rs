//! Connection-scaling smoke and abuse soak for the readiness reactor —
//! the tests the `wire-soak` CI job runs with elevated knobs.
//!
//! The thread-per-connection front-end spent one OS thread per open
//! socket, so "hold 1024 idle keep-alive connections" meant 1024 threads.
//! The reactor's contract is the opposite: connection count and thread
//! count are decoupled. These tests hold a large fleet of idle keep-alive
//! sockets against a live server, assert the process thread count does
//! not move, and then prove the fleet is still being served.
//!
//! Environment knobs (all optional; defaults suit a laptop `cargo test`):
//!
//! * `EXA_WIRE_SOAK_CONNS` — idle keep-alive fleet size (default 256; CI
//!   sets ≥ 1200 to cover the ≥ 1024 acceptance criterion).
//! * `EXA_WIRE_SOAK_ITERS` — abuse-pattern repetitions (default 2).
//! * `EXA_WIRE_SOAK_STATS_DIR` — when set, each test dumps its final
//!   server stats as JSON into this directory (uploaded by CI on failure).

use exa_covariance::{Location, MaternKernel};
use exa_geostat::{synthetic_locations_n, Backend, FittedModel, GeoModel};
use exa_runtime::Runtime;
use exa_serve::ModelRegistry;
use exa_util::Rng;
use exa_wire::{WireClient, WireConfig, WireServer, WireStats};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The idle-fleet test asserts on the whole process's thread count, so the
/// tests in this binary take turns: a sibling booting its own server
/// mid-measurement would otherwise read as per-connection growth.
static SERIAL: Mutex<()> = Mutex::new(());

fn fitted(n: usize, seed: u64) -> Arc<FittedModel<MaternKernel>> {
    let rt = Runtime::new(2);
    let mut rng = Rng::seed_from_u64(seed);
    let locations = Arc::new(synthetic_locations_n(n, &mut rng));
    let generator = GeoModel::<MaternKernel>::builder()
        .locations(locations.clone())
        .nugget(0.0)
        .tile_size(64)
        .build()
        .unwrap()
        .at_params(&[1.0, 0.1, 0.5], &rt)
        .unwrap();
    let z = generator.simulate(&mut rng, &rt);
    Arc::new(
        GeoModel::<MaternKernel>::builder()
            .locations(locations)
            .data(z)
            .backend(Backend::FullTile)
            .tile_size(64)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap(),
    )
}

fn boot(config: WireConfig) -> WireServer<MaternKernel> {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", fitted(64, 9));
    WireServer::start(registry, config).expect("bind ephemeral port")
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Kernel-reported thread count for this process (`Threads:` in
/// `/proc/self/status`). Returns `None` off Linux, where the bounded-
/// thread assertion is skipped (the poll backend itself still runs).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Dump final server stats as JSON for CI artifact upload. Best-effort:
/// soak diagnostics must never fail the test themselves.
fn dump_stats(label: &str, wire: &WireStats) {
    let Ok(dir) = std::env::var("EXA_WIRE_SOAK_STATS_DIR") else {
        return;
    };
    let json = format!(
        concat!(
            "{{\"connections_accepted\":{},\"connections_refused\":{},",
            "\"requests_ok\":{},\"requests_client_error\":{},",
            "\"requests_server_error\":{},\"malformed_requests\":{},",
            "\"disconnects_mid_request\":{},\"panics_contained\":{},",
            "\"requests_inline\":{},\"requests_dispatched\":{}}}\n"
        ),
        wire.connections_accepted,
        wire.connections_refused,
        wire.requests_ok,
        wire.requests_client_error,
        wire.requests_server_error,
        wire.malformed_requests,
        wire.disconnects_mid_request,
        wire.panics_contained,
        wire.requests_inline,
        wire.requests_dispatched,
    );
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(format!("{dir}/{label}.json"), json);
}

/// Read exactly one `Content-Length`-framed HTTP response off a keep-alive
/// socket (no EOF to lean on) and return it whole.
fn read_one_response(stream: &mut TcpStream) -> Vec<u8> {
    let mut response = Vec::new();
    let mut byte = [0u8; 1];
    // Head: single-byte reads until the terminator; responses are tiny and
    // this keeps the helper trivially correct.
    while !response.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "EOF inside response head");
        response.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&response).to_string();
    let body_len: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("response carries Content-Length");
    let mut body = vec![0u8; body_len];
    stream.read_exact(&mut body).expect("read response body");
    response.extend_from_slice(&body);
    response
}

fn healthz_roundtrip(stream: &mut TcpStream) {
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("write healthz");
    let response = read_one_response(stream);
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 200 OK"),
        "healthz answered: {text}"
    );
}

/// The ≥ 1024-connection acceptance criterion (CI runs this with
/// `EXA_WIRE_SOAK_CONNS=1200`): every socket in the fleet completes a
/// health round trip, then idles on keep-alive while the thread count is
/// asserted flat, predict traffic still flows, and sampled fleet members
/// prove they are still live.
#[test]
fn reactor_holds_large_idle_keep_alive_fleet_with_bounded_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fleet_size = env_usize("EXA_WIRE_SOAK_CONNS", 256);
    let server = boot(WireConfig {
        max_connections: fleet_size + 64,
        ..WireConfig::default()
    });
    let addr = server.local_addr();

    // Measured after the server (reactor + serve workers) is up, so the
    // later assertion isolates per-connection growth specifically.
    let threads_at_boot = process_threads();

    let mut fleet: Vec<TcpStream> = Vec::with_capacity(fleet_size);
    for i in 0..fleet_size {
        let mut stream = TcpStream::connect(addr)
            .unwrap_or_else(|err| panic!("connect #{i} of {fleet_size}: {err}"));
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        // One round trip per connection self-paces the fleet against the
        // accept backlog and proves each socket was admitted, not queued.
        healthz_roundtrip(&mut stream);
        fleet.push(stream);
    }

    // The decoupling claim: a fleet of open sockets must cost zero
    // additional threads. Slack of 2 absorbs runtime helper threads; a
    // thread-per-connection regression overshoots it by orders of
    // magnitude.
    if let (Some(before), Some(now)) = (threads_at_boot, process_threads()) {
        assert!(
            now <= before + 2,
            "thread count grew from {before} to {now} while holding \
             {fleet_size} idle connections"
        );
    }

    // Fresh predict traffic flows while the fleet idles.
    let mut client = WireClient::connect(addr).expect("connect predict client");
    let served = client
        .predict("m", &[Location::new(0.4, 0.6), Location::new(0.2, 0.8)])
        .expect("predict while fleet idles");
    assert_eq!(served.mean.len(), 2);
    assert!(served.mean.iter().all(|m| m.is_finite()));
    drop(client);

    // Sampled fleet members are still live keep-alive connections.
    let samples = [0, fleet_size / 2, fleet_size - 1];
    for &i in &samples {
        healthz_roundtrip(&mut fleet[i]);
    }

    let stats = server.stats();
    dump_stats("idle_fleet", &stats);
    assert!(
        stats.connections_accepted > fleet_size as u64,
        "accepted {} connections, expected the full fleet of {fleet_size}",
        stats.connections_accepted
    );
    assert_eq!(stats.panics_contained, 0);
    assert_eq!(stats.requests_ok as usize, fleet_size + samples.len() + 1);

    drop(fleet);
    let (wire, _serve) = server.shutdown();
    assert_eq!(wire.panics_contained, 0);
}

/// Abuse soak: every PR 4 abuse pattern, repeated `EXA_WIRE_SOAK_ITERS`
/// times (CI: 20), against one server — after which the server still
/// serves predictions and has contained zero panics.
#[test]
fn abuse_soak_leaves_the_server_healthy() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let iters = env_usize("EXA_WIRE_SOAK_ITERS", 2);
    let server = boot(WireConfig::default());
    let addr = server.local_addr();

    // (raw request bytes, expected status fragment). Every pattern draws
    // an error response and a server-side close, so replies read to EOF.
    let patterns: &[(&[u8], &str)] = &[
        (b"NOT HTTP AT ALL\r\n\r\n", " 400 "),
        (
            b"GET /healthz HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
            " 400 ",
        ),
        (b"GET / HTTP/2.0\r\n\r\n", " 505 "),
        (
            b"POST /v1/models/m/predict HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            " 413 ",
        ),
        (
            b"POST /v1/models/m/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            " 501 ",
        ),
        (
            b"DELETE /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            " 405 ",
        ),
        (
            b"GET /no/such/path HTTP/1.1\r\nConnection: close\r\n\r\n",
            " 404 ",
        ),
    ];

    for iter in 0..iters {
        for (raw, want) in patterns {
            let mut stream = TcpStream::connect(addr).expect("connect abuser");
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            stream.write_all(raw).expect("write abuse pattern");
            let mut response = Vec::new();
            stream
                .read_to_end(&mut response)
                .expect("read abuse response");
            let text = String::from_utf8_lossy(&response);
            let status = text.lines().next().unwrap_or_default();
            assert!(
                status.contains(want),
                "iter {iter}: pattern {:?} answered {status:?}, wanted {want}",
                String::from_utf8_lossy(raw)
            );
        }
        // A header cap violation (oversized preamble) and a mid-request
        // disconnect, once per iteration.
        let mut stream = TcpStream::connect(addr).expect("connect oversized");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        let filler = format!("X-Pad: {}\r\n", "y".repeat(8192));
        stream.write_all(filler.as_bytes()).unwrap();
        stream.write_all(filler.as_bytes()).unwrap();
        stream.write_all(filler.as_bytes()).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read 431");
        assert!(
            String::from_utf8_lossy(&response).contains(" 431 "),
            "oversized preamble must draw 431"
        );
        let half = TcpStream::connect(addr).expect("connect half-request");
        (&half)
            .write_all(b"POST /v1/models/m/predict HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .expect("write half request");
        drop(half);
    }

    // Mid-request disconnects are detected asynchronously; give the
    // reactor a few ticks to observe the last EOF before reading stats.
    std::thread::sleep(Duration::from_millis(200));

    let mut client = WireClient::connect(addr).expect("connect after abuse");
    let served = client
        .predict("m", &[Location::new(0.3, 0.7)])
        .expect("predict after abuse soak");
    assert!(served.mean[0].is_finite());
    drop(client);

    let stats = server.stats();
    dump_stats("abuse_soak", &stats);
    assert_eq!(stats.panics_contained, 0);
    assert!(
        stats.malformed_requests >= 2 * iters as u64,
        "expected ≥ {} malformed requests, counted {}",
        2 * iters,
        stats.malformed_requests
    );
    assert!(
        stats.disconnects_mid_request >= iters as u64,
        "expected ≥ {iters} mid-request disconnects, counted {}",
        stats.disconnects_mid_request
    );
    let (wire, serve) = server.shutdown();
    assert_eq!(wire.panics_contained, 0);
    assert_eq!(serve.factorizations_during_serving, 0);
}
