//! The router's front door is `exa-wire`'s reactor: transport behaviour a
//! node has, the router has too. A `FleetRouter` over two nodes, driven
//! with raw sockets: idle keep-alives cost no threads, deadlines reclaim
//! idle and stalled connections, pipelined and chunked requests are
//! answered as if sent whole, an oversized body's `413` survives the close,
//! and shutdown answers an in-flight relay with `Connection: close`.

use exa_covariance::{Location, MaternKernel};
use exa_fleet::{FleetConfig, FleetRouter, NodeSpec};
use exa_geostat::{Backend, FittedModel, GeoModel};
use exa_runtime::Runtime;
use exa_serve::ModelRegistry;
use exa_util::Rng;
use exa_wire::http::Limits;
use exa_wire::json::Json;
use exa_wire::{WireClient, WireConfig, WireServer};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The thread-count test reads a process-wide figure, so the tests in this
/// file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn fitted() -> Arc<FittedModel<MaternKernel>> {
    let rt = Runtime::new(2);
    let mut rng = Rng::seed_from_u64(7);
    let locations = Arc::new(exa_geostat::synthetic_locations(8, &mut rng));
    let truth = GeoModel::<MaternKernel>::builder()
        .locations(locations.clone())
        .tile_size(32)
        .build()
        .unwrap()
        .at_params(&[1.0, 0.1, 0.5], &rt)
        .unwrap();
    let z = truth.simulate(&mut rng, &rt);
    let model = GeoModel::<MaternKernel>::builder()
        .locations(locations)
        .data(z)
        .backend(Backend::FullTile)
        .tile_size(32)
        .build()
        .unwrap()
        .at_params(&[1.0, 0.1, 0.5], &rt)
        .unwrap();
    Arc::new(model)
}

/// Two nodes with model `m` resident on both, behind one router.
struct Fleet {
    nodes: Vec<WireServer<MaternKernel>>,
    router: FleetRouter,
}

impl Fleet {
    fn start(config: FleetConfig) -> Fleet {
        let model = fitted();
        let nodes: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::new(ModelRegistry::new());
                registry.insert("m", Arc::clone(&model));
                WireServer::start(registry, WireConfig::default()).unwrap()
            })
            .collect();
        let specs = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeSpec::new(format!("node-{i}"), n.local_addr()))
            .collect();
        let router = FleetRouter::start(specs, config).unwrap();
        Fleet { nodes, router }
    }

    fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    fn shutdown(self) {
        self.router.shutdown();
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// `Threads:` of `/proc/self/status`; `None` off Linux.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Reads HTTP responses off one connection, one at a time, keeping bytes
/// that belong to the next one.
struct Responses {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Responses {
    fn new(stream: TcpStream) -> Self {
        Responses {
            stream,
            buf: Vec::new(),
        }
    }

    /// The next complete response (head and `Content-Length` body), or
    /// `None` once the peer closed.
    fn next(&mut self) -> Option<Vec<u8>> {
        loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..end]).to_string();
                let length: usize = header(&head, "content-length")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                let total = end + 4 + length;
                if self.buf.len() >= total {
                    return Some(self.buf.drain(..total).collect());
                }
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A header's value in a response head, by case-insensitive name.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

fn head_of(response: &[u8]) -> String {
    let end = find(response, b"\r\n\r\n").expect("response head");
    String::from_utf8_lossy(&response[..end]).to_string()
}

fn body_of(response: &[u8]) -> &[u8] {
    let end = find(response, b"\r\n\r\n").expect("response head");
    &response[end + 4..]
}

fn status_line(response: &[u8]) -> String {
    head_of(response)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Drops the per-request `x-exa-trace-id` header line from a raw response.
fn strip_trace_header(response: &[u8]) -> Vec<u8> {
    let head = head_of(response);
    let mut out = String::new();
    for line in head.split("\r\n") {
        if !line.to_ascii_lowercase().starts_with("x-exa-trace-id:") {
            out.push_str(line);
            out.push_str("\r\n");
        }
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(body_of(response));
    out
}

fn framed(path: &str, body: &[u8], connection: &str) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

fn predict_body(targets: &[Location]) -> Vec<u8> {
    let pairs: Vec<String> = targets
        .iter()
        .map(|t| format!("[{:?},{:?}]", t.x, t.y))
        .collect();
    format!("{{\"targets\":[{}]}}", pairs.join(",")).into_bytes()
}

/// The bits of a JSON predict response's `mean` array.
fn mean_bits(response: &[u8]) -> Vec<u64> {
    let doc = Json::parse(std::str::from_utf8(body_of(response)).unwrap()).unwrap();
    doc.get("mean")
        .and_then(|m| m.as_array())
        .expect("mean array")
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect()
}

fn healthz_roundtrip(responses: &mut Responses) {
    responses
        .stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let response = responses.next().expect("healthz answered");
    assert_eq!(status_line(&response), "HTTP/1.1 200 OK");
}

/// The router used to spend a thread per connection, idle keep-alives
/// included; on the reactor an idle connection is a slab entry.
#[test]
fn idle_keep_alive_connections_cost_no_threads() {
    let _serial = serial();
    let fleet = Fleet::start(FleetConfig::default());
    let before = process_threads();
    let mut idle: Vec<Responses> = (0..64)
        .map(|_| {
            let mut responses = Responses::new(connect(fleet.addr()));
            healthz_roundtrip(&mut responses);
            responses
        })
        .collect();
    if let (Some(before), Some(now)) = (before, process_threads()) {
        assert!(
            now <= before + 2,
            "thread count grew from {before} to {now} while holding 64 idle connections"
        );
    }
    // They are live keep-alives, not closed sockets.
    for i in [0, 31, 63] {
        healthz_roundtrip(&mut idle[i]);
    }
    assert!(fleet.router.stats().connections_accepted >= 64);
    drop(idle);
    fleet.shutdown();
}

/// Threads of this process with the given name (`/proc/self/task/*/comm`);
/// `None` off Linux.
fn threads_named(name: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == name)
            .count(),
    )
}

/// A connection waiting on a relay reads nothing more, so a closed-loop
/// client never keeps more than one relay thread busy: the pool reuses
/// one thread for the whole run instead of growing.
#[test]
fn one_closed_loop_client_is_served_by_one_relay_thread() {
    let _serial = serial();
    let fleet = Fleet::start(FleetConfig::default());
    let mut client = WireClient::connect(fleet.addr()).unwrap();
    for i in 0..200 {
        let target = Location::new(0.002 * i as f64, 0.5);
        assert!(client.predict("m", &[target]).unwrap().mean[0].is_finite());
    }
    if let Some(relays) = threads_named("fleet-relay") {
        assert_eq!(relays, 1, "200 sequential predicts grew the relay pool");
    }
    fleet.shutdown();
}

/// An idle keep-alive is reclaimed after `idle_timeout`, a stalled
/// preamble at `request_deadline` — the node's deadlines, on the router.
#[test]
fn idle_and_stalled_connections_are_reclaimed_at_their_deadlines() {
    let _serial = serial();
    let limits = Limits {
        idle_timeout: Duration::from_millis(300),
        request_deadline: Duration::from_millis(400),
        ..Limits::default()
    };
    let fleet = Fleet::start(FleetConfig {
        limits,
        ..FleetConfig::default()
    });

    let mut keep_alive = Responses::new(connect(fleet.addr()));
    healthz_roundtrip(&mut keep_alive);
    let idle_since = Instant::now();
    assert_eq!(keep_alive.next(), None, "the idle connection is closed");
    let idle_for = idle_since.elapsed();
    assert!(
        idle_for >= limits.idle_timeout / 2 && idle_for < Duration::from_secs(5),
        "idle connection closed after {idle_for:?}"
    );

    let mut stalled = connect(fleet.addr());
    let stalled_since = Instant::now();
    stalled.write_all(b"GET /healthz HTTP/1.1\r\nHo").unwrap();
    let mut sink = [0u8; 64];
    match stalled.read(&mut sink) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("a stalled preamble must be closed, got {other:?}"),
    }
    let stalled_for = stalled_since.elapsed();
    assert!(
        stalled_for >= limits.request_deadline && stalled_for < Duration::from_secs(5),
        "stalled connection closed after {stalled_for:?}"
    );
    fleet.shutdown();
}

/// Pipelined predicts on one connection come back in order, each
/// bit-identical to the same predict sent straight to a node.
#[test]
fn pipelined_predicts_are_answered_in_order_and_bit_identical_to_direct_hits() {
    let _serial = serial();
    let fleet = Fleet::start(FleetConfig::default());
    let requests: Vec<Vec<Location>> = (0..5)
        .map(|i| {
            (0..=i)
                .map(|j| Location::new(0.1 + 0.15 * i as f64, 0.9 - 0.1 * j as f64))
                .collect()
        })
        .collect();
    let mut direct = WireClient::connect(fleet.nodes[0].local_addr()).unwrap();
    let expected: Vec<Vec<u64>> = requests
        .iter()
        .map(|targets| {
            let served = direct.predict("m", targets).unwrap();
            served.mean.iter().map(|m| m.to_bits()).collect()
        })
        .collect();

    let mut pipelined = Vec::new();
    for targets in &requests {
        pipelined.extend(framed(
            "/v1/models/m/predict",
            &predict_body(targets),
            "keep-alive",
        ));
    }
    let mut responses = Responses::new(connect(fleet.addr()));
    responses.stream.write_all(&pipelined).unwrap();
    for (i, bits) in expected.iter().enumerate() {
        let response = responses.next().expect("pipelined predict answered");
        assert_eq!(status_line(&response), "HTTP/1.1 200 OK", "request {i}");
        assert_eq!(
            &mean_bits(&response),
            bits,
            "request {i} out of order or changed"
        );
    }
    // The connection is still a keep-alive after the pipeline drained.
    healthz_roundtrip(&mut responses);
    fleet.shutdown();
}

/// A routed predict split into two chunks at every byte boundary is
/// answered exactly as when sent whole.
#[test]
fn every_two_chunk_split_of_a_routed_predict_is_invisible() {
    let _serial = serial();
    let fleet = Fleet::start(FleetConfig::default());
    let exchange = |chunks: &[&[u8]]| {
        let mut stream = connect(fleet.addr());
        for chunk in chunks {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
        }
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        response
    };

    // The backend's rejection is deterministic to the byte.
    let rejected = framed("/v1/models/m/predict", br#"{"targets":[]}"#, "close");
    let reference = exchange(&[&rejected]);
    assert!(status_line(&reference).starts_with("HTTP/1.1 400"));
    for cut in 1..rejected.len() {
        let replayed = exchange(&[&rejected[..cut], &rejected[cut..]]);
        assert_eq!(
            strip_trace_header(&reference),
            strip_trace_header(&replayed),
            "split at byte {cut} changed the response"
        );
    }

    // A served predict carries a wall-clock latency, so compare its means.
    let served = framed(
        "/v1/models/m/predict",
        &predict_body(&[Location::new(0.4, 0.6)]),
        "close",
    );
    let reference = mean_bits(&exchange(&[&served]));
    for cut in 1..served.len() {
        let replayed = exchange(&[&served[..cut], &served[cut..]]);
        assert_eq!(status_line(&replayed), "HTTP/1.1 200 OK", "split at {cut}");
        assert_eq!(mean_bits(&replayed), reference, "split at byte {cut}");
    }
    fleet.shutdown();
}

/// A client that declares a body over `max_body_bytes`, sends all of it and
/// only then reads still gets its `413`: the router half-closes and drains
/// instead of closing on unread bytes, which would reset the connection
/// and destroy the answer.
#[test]
fn an_oversized_body_sent_in_full_still_reads_its_413() {
    let _serial = serial();
    let fleet = Fleet::start(FleetConfig {
        limits: Limits {
            max_body_bytes: 1024,
            ..Limits::default()
        },
        ..FleetConfig::default()
    });
    let errors_before = fleet.router.stats().requests_error;
    let mut stream = connect(fleet.addr());
    let body = vec![b'x'; 64 * 1024];
    stream
        .write_all(&framed("/v1/models/m/predict", &body, "keep-alive"))
        .expect("the whole body is accepted");
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("the 413 is readable, not reset away");
    assert!(
        status_line(&response).starts_with("HTTP/1.1 413"),
        "{:?}",
        String::from_utf8_lossy(&response)
    );
    assert_eq!(
        header(&head_of(&response), "connection"),
        Some("close"),
        "a framing violation closes the connection"
    );
    // Malformed requests count as errors at the router.
    assert_eq!(fleet.router.stats().requests_error, errors_before + 1);
    fleet.shutdown();
}

/// A backend that answers one request only when released: a relay held in
/// flight for as long as the test needs.
fn held_backend() -> (
    SocketAddr,
    mpsc::Receiver<()>,
    mpsc::Sender<()>,
    thread::JoinHandle<()>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (arrived_tx, arrived_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let backend = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut requests = Responses::new(stream);
        // A request parses like a response here: head, then its body.
        requests.next().expect("relayed request");
        arrived_tx.send(()).unwrap();
        let _ = release_rx.recv();
        let body = br#"{"model":"m","mean":[0.5]}"#;
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        let _ = requests.stream.write_all(head.as_bytes());
        let _ = requests.stream.write_all(body);
        // Hold the connection until the router lets go of it.
        let _ = requests.next();
    });
    (addr, arrived_rx, release_tx, backend)
}

/// `shutdown()` with a relay in flight lets it finish and answers it with
/// `Connection: close`.
#[test]
fn shutdown_answers_an_in_flight_relay_with_connection_close() {
    let _serial = serial();
    let (held, arrived, release, backend) = held_backend();
    let idle = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = FleetRouter::start(
        vec![
            NodeSpec::new("held", held),
            NodeSpec::new("idle", idle.local_addr().unwrap()),
        ],
        FleetConfig {
            pins: vec![("m".to_string(), vec![0])],
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let addr = router.local_addr();

    let mut client = Responses::new(connect(addr));
    client
        .stream
        .write_all(&framed(
            "/v1/models/m/predict",
            &predict_body(&[Location::new(0.5, 0.5)]),
            "keep-alive",
        ))
        .unwrap();
    arrived
        .recv_timeout(Duration::from_secs(20))
        .expect("the relay reached the backend");

    let stopping = thread::spawn(move || router.shutdown());
    // Once the listener is closed the reactor is draining.
    let deadline = Instant::now() + Duration::from_secs(20);
    while TcpStream::connect(addr).is_ok() {
        assert!(
            Instant::now() < deadline,
            "the router never stopped accepting"
        );
        thread::sleep(Duration::from_millis(5));
    }
    release.send(()).unwrap();

    let response = client.next().expect("the in-flight relay is answered");
    assert_eq!(status_line(&response), "HTTP/1.1 200 OK");
    assert_eq!(header(&head_of(&response), "connection"), Some("close"));
    assert_eq!(body_of(&response), br#"{"model":"m","mean":[0.5]}"#);
    assert_eq!(
        client.next(),
        None,
        "the connection closes after the answer"
    );
    let stats = stopping.join().unwrap();
    assert_eq!(stats.forwards, 1);
    assert_eq!(stats.requests_ok, 1);
    // The stopped router closed its pooled backend connection.
    backend.join().unwrap();
}
