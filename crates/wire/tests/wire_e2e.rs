//! End-to-end wire tests: a real `WireServer` on an ephemeral port, real
//! TCP clients, and the acceptance criteria of the wire front-end —
//! bit-identical means vs the in-process batch path, zero factorizations
//! under load, structured errors for every abuse pattern, and a clean
//! graceful shutdown.

use exa_covariance::{Location, MaternKernel};
use exa_geostat::{synthetic_locations_n, Backend, FittedModel, GeoModel};
use exa_runtime::Runtime;
use exa_serve::{ModelRegistry, ServeConfig};
use exa_util::Rng;
use exa_wire::codec::{self, Codec};
use exa_wire::json::Json;
use exa_wire::{WireClient, WireConfig, WireError, WireServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn fitted(n: usize, seed: u64, backend: Backend) -> Arc<FittedModel<MaternKernel>> {
    let rt = Runtime::new(exa_runtime::default_parallelism().min(4));
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
            .backend(backend)
            .tile_size(64)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap(),
    )
}

fn boot(
    models: &[(&str, Arc<FittedModel<MaternKernel>>)],
    config: WireConfig,
) -> (WireServer<MaternKernel>, Arc<ModelRegistry<MaternKernel>>) {
    let registry = Arc::new(ModelRegistry::new());
    for (name, model) in models {
        registry.insert(*name, Arc::clone(model));
    }
    let server = WireServer::start(Arc::clone(&registry), config).expect("bind ephemeral port");
    (server, registry)
}

fn targets_for(seed: u64, count: usize) -> Vec<Location> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| Location::new(rng.next_f64(), rng.next_f64()))
        .collect()
}

/// The ISSUE 4 acceptance test: n ≥ 512 model, concurrent keep-alive
/// clients mixing predict/stats/health traffic, bit-identical means vs the
/// direct in-process batch path, zero factorizations under load, clean
/// graceful shutdown.
#[test]
fn concurrent_keep_alive_clients_get_bit_identical_means() {
    let model = fitted(512, 42, Backend::FullTile);
    let (server, _registry) = boot(
        &[("soil", Arc::clone(&model))],
        WireConfig {
            serve: ServeConfig {
                workers: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let addr = server.local_addr();

    let clients = 4;
    let requests_per_client = 12;
    let points_per_request = 3;
    std::thread::scope(|scope| {
        for c in 0..clients as u64 {
            let model = Arc::clone(&model);
            scope.spawn(move || {
                let mut client = WireClient::connect(addr).expect("connect");
                for r in 0..requests_per_client as u64 {
                    // Mixed traffic on one keep-alive connection.
                    if r % 5 == 0 {
                        client.health().expect("health");
                    }
                    if r % 7 == 0 {
                        let stats = client.stats().expect("stats");
                        assert!(stats.get("wire").is_some() && stats.get("serve").is_some());
                    }
                    let targets = targets_for(1000 + c * 100 + r, points_per_request);
                    let served = if r % 3 == 0 {
                        client
                            .predict_with_variance("soil", &targets)
                            .expect("predict")
                    } else {
                        client.predict("soil", &targets).expect("predict")
                    };
                    // Bit-identical against the direct in-process batch
                    // path — the JSON layer must not cost one ulp.
                    let direct = model
                        .predict_batch(&[targets.as_slice()])
                        .unwrap()
                        .remove(0);
                    assert_eq!(served.mean.len(), points_per_request);
                    for (wire, local) in served.mean.iter().zip(&direct.values) {
                        assert_eq!(
                            wire.to_bits(),
                            local.to_bits(),
                            "wire mean {wire} != direct mean {local}"
                        );
                    }
                    if let Some(variance) = &served.variance {
                        assert_eq!(variance.len(), points_per_request);
                        assert!(variance.iter().all(|v| v.is_finite() && *v >= 0.0));
                    }
                    assert!(served.coalesced_requests >= 1);
                }
            });
        }
    });

    let (wire, serve) = server.shutdown();
    let expected_predicts = (clients * requests_per_client) as u64;
    assert_eq!(serve.requests_submitted, expected_predicts);
    assert_eq!(serve.requests_served, expected_predicts);
    assert_eq!(serve.requests_failed, 0);
    assert_eq!(
        serve.points_served,
        expected_predicts * points_per_request as u64
    );
    // The hard guarantee: serving over the wire never re-factorizes.
    assert_eq!(serve.factorizations_during_serving, 0);
    assert_eq!(wire.connections_accepted, clients as u64);
    assert_eq!(wire.panics_contained, 0);
    assert_eq!(wire.requests_client_error, 0);
    assert_eq!(wire.requests_server_error, 0);
    assert!(
        wire.requests_ok > expected_predicts,
        "health/stats count too"
    );
}

/// The ISSUE 5 tier-1 acceptance test: the same queries through the JSON
/// codec, the binary frame codec and the in-process `predict_batch` path
/// must produce **identical f64 bits** — the binary frames carry the raw
/// bits and the JSON layer's shortest-round-trip encoding loses none.
#[test]
fn binary_and_json_codecs_answer_identical_bits() {
    let model = fitted(512, 21, Backend::FullTile);
    let (server, _registry) = boot(
        &[("soil", Arc::clone(&model))],
        WireConfig {
            serve: ServeConfig {
                workers: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let addr = server.local_addr();
    let mut json_client = WireClient::connect(addr).expect("connect");
    assert_eq!(json_client.codec(), Codec::Json);
    let mut bin_client = WireClient::connect(addr).expect("connect");
    bin_client.set_codec(Codec::Binary);

    for (seed, points, variance) in [
        (1u64, 1usize, false),
        (2, 3, true),
        (3, 17, false),
        (4, 8, true),
    ] {
        let targets = targets_for(7000 + seed, points);
        let direct = model
            .predict_batch(&[targets.as_slice()])
            .unwrap()
            .remove(0);
        let via_json = if variance {
            json_client.predict_with_variance("soil", &targets)
        } else {
            json_client.predict("soil", &targets)
        }
        .expect("json predict");
        let via_bin = if variance {
            bin_client.predict_with_variance("soil", &targets)
        } else {
            bin_client.predict("soil", &targets)
        }
        .expect("binary predict");

        assert_eq!(via_bin.mean.len(), points);
        for i in 0..points {
            assert_eq!(
                via_bin.mean[i].to_bits(),
                direct.values[i].to_bits(),
                "binary mean {i} differs from in-process predict_batch"
            );
            assert_eq!(
                via_json.mean[i].to_bits(),
                via_bin.mean[i].to_bits(),
                "codecs disagree on mean {i}"
            );
        }
        assert_eq!(via_json.variance.is_some(), variance);
        assert_eq!(via_bin.variance.is_some(), variance);
        if let (Some(jv), Some(bv)) = (&via_json.variance, &via_bin.variance) {
            for i in 0..points {
                assert_eq!(
                    jv[i].to_bits(),
                    bv[i].to_bits(),
                    "codecs disagree on variance {i}"
                );
            }
        }
        assert!(via_bin.coalesced_requests >= 1);
        assert_eq!(via_bin.batch_points as usize % points, 0);
        assert!(via_bin.latency_seconds >= 0.0);
    }

    // One connection can switch codecs mid-stream (keep-alive preserved).
    bin_client.set_codec(Codec::Json);
    let t = targets_for(9999, 2);
    let served = bin_client.predict("soil", &t).expect("post-switch predict");
    assert_eq!(served.mean.len(), 2);

    let (wire, serve) = server.shutdown();
    assert_eq!(wire.requests_client_error, 0);
    assert_eq!(wire.requests_server_error, 0);
    assert_eq!(wire.panics_contained, 0);
    assert_eq!(serve.factorizations_during_serving, 0);
}

/// Content negotiation: `Content-Type` picks the request codec, `Accept`
/// the response codec, mixed pairs work both ways, and unsupported media
/// types on either header are a structured `415` — never a lenient fall
/// back to JSON.
#[test]
fn content_negotiation_and_structured_415() {
    let model = fitted(64, 22, Backend::FullTile);
    let (server, _registry) = boot(&[("m", model)], WireConfig::default());
    let addr = server.local_addr();
    let roundtrip_raw = |head: &str, body: &[u8]| -> (String, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("set timeout");
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(body).expect("write body");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read");
        let split = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("response has a preamble");
        (
            String::from_utf8(response[..split].to_vec()).expect("preamble utf8"),
            response[split + 4..].to_vec(),
        )
    };

    // Binary request + default Accept → binary response (mirrored codec).
    let frame = codec::encode_predict_request(&targets_for(31, 2), false);
    let head = format!(
        "POST /v1/models/m/predict HTTP/1.1\r\nContent-Type: {}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        codec::FRAME_CONTENT_TYPE,
        frame.len()
    );
    let (preamble, body) = roundtrip_raw(&head, &frame);
    assert!(preamble.starts_with("HTTP/1.1 200"), "{preamble}");
    assert!(
        preamble.contains(&format!("Content-Type: {}", codec::FRAME_CONTENT_TYPE)),
        "{preamble}"
    );
    let decoded = codec::PredictResponseFrame::decode(&body).expect("frame body");
    assert_eq!(decoded.len(), 2);

    // Binary request + Accept: application/json → JSON response.
    let head = format!(
        "POST /v1/models/m/predict HTTP/1.1\r\nContent-Type: {}\r\nAccept: application/json\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        codec::FRAME_CONTENT_TYPE,
        frame.len()
    );
    let (preamble, body) = roundtrip_raw(&head, &frame);
    assert!(preamble.starts_with("HTTP/1.1 200"), "{preamble}");
    assert!(
        preamble.contains("Content-Type: application/json"),
        "{preamble}"
    );
    assert!(body.starts_with(br#"{"model":"m""#), "{body:?}");

    // JSON request + Accept: x-exa-frame → binary response.
    let json_body = br#"{"targets":[[0.25,0.75]]}"#;
    let head = format!(
        "POST /v1/models/m/predict HTTP/1.1\r\nAccept: {}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        codec::FRAME_CONTENT_TYPE,
        json_body.len()
    );
    let (preamble, body) = roundtrip_raw(&head, json_body);
    assert!(preamble.starts_with("HTTP/1.1 200"), "{preamble}");
    let decoded = codec::PredictResponseFrame::decode(&body).expect("frame body");
    assert_eq!(decoded.len(), 1);

    // curl's defaults (no Content-Type on GET-turned-POST, Accept: */*)
    // keep getting JSON.
    let head = format!(
        "POST /v1/models/m/predict HTTP/1.1\r\nAccept: */*\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        json_body.len()
    );
    let (preamble, _) = roundtrip_raw(&head, json_body);
    assert!(
        preamble.contains("Content-Type: application/json"),
        "{preamble}"
    );

    // `curl -d '{...}'` stamps `application/x-www-form-urlencoded` on the
    // body — the documented README walkthrough — which must keep decoding
    // as JSON, not 415.
    let head = format!(
        "POST /v1/models/m/predict HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nAccept: */*\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        json_body.len()
    );
    let (preamble, body) = roundtrip_raw(&head, json_body);
    assert!(preamble.starts_with("HTTP/1.1 200"), "{preamble}");
    assert!(body.starts_with(br#"{"model":"m""#), "{body:?}");
    // ...and `curl -d 'not json'` stays the documented invalid_json 400.
    let garbage_json = b"not json";
    let head = format!(
        "POST /v1/models/m/predict HTTP/1.1\r\nContent-Type: application/x-www-form-urlencoded\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        garbage_json.len()
    );
    let (preamble, body) = roundtrip_raw(&head, garbage_json);
    assert!(preamble.starts_with("HTTP/1.1 400"), "{preamble}");
    assert!(
        String::from_utf8(body)
            .expect("json error body")
            .contains("invalid_json"),
        "expected invalid_json"
    );

    // Unsupported Content-Type and unsupported Accept: structured 415s.
    for head in [
        format!(
            "POST /v1/models/m/predict HTTP/1.1\r\nContent-Type: text/plain\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            json_body.len()
        ),
        format!(
            "POST /v1/models/m/predict HTTP/1.1\r\nAccept: text/html, image/png\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            json_body.len()
        ),
    ] {
        let (preamble, body) = roundtrip_raw(&head, json_body);
        assert!(preamble.starts_with("HTTP/1.1 415"), "{preamble}");
        let text = String::from_utf8(body).expect("json error body");
        assert!(text.contains("unsupported_media_type"), "{text}");
    }

    // A garbage body under the frame content type is a structured 400
    // `invalid_frame`, mirroring `invalid_json`.
    let garbage = b"EXAGarbage, definitely not a frame";
    let head = format!(
        "POST /v1/models/m/predict HTTP/1.1\r\nContent-Type: {}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        codec::FRAME_CONTENT_TYPE,
        garbage.len()
    );
    let (preamble, body) = roundtrip_raw(&head, garbage);
    assert!(preamble.starts_with("HTTP/1.1 400"), "{preamble}");
    assert!(
        String::from_utf8(body)
            .expect("json error body")
            .contains("invalid_frame"),
        "expected invalid_frame"
    );

    let (wire, _serve) = server.shutdown();
    assert_eq!(wire.panics_contained, 0);
}

/// Empty batches and non-finite coordinates must come back as structured
/// `invalid_query` (400) over **either** codec — never a 200 carrying an
/// empty or NaN body. (JSON cannot even express NaN, so its non-finite
/// case is a parse-level 400; the binary frame *can*, and the server must
/// catch it.)
#[test]
fn empty_and_non_finite_queries_rejected_on_both_codecs() {
    let model = fitted(64, 23, Backend::FullTile);
    let (server, _registry) = boot(&[("m", model)], WireConfig::default());
    let addr = server.local_addr();

    for wire_codec in [Codec::Json, Codec::Binary] {
        let mut client = WireClient::connect(addr).expect("connect");
        client.set_codec(wire_codec);
        // Empty batch → invalid_query, not an empty 200.
        let err = client.predict("m", &[]).unwrap_err();
        match err {
            WireError::Api { status, code, .. } => {
                assert_eq!(
                    (status, code.as_str()),
                    (400, "invalid_query"),
                    "{wire_codec}: empty batch"
                );
            }
            other => panic!("{wire_codec}: unexpected error {other}"),
        }
        // The connection survives the structured error.
        client.health().expect("keep-alive after invalid_query");
    }

    // NaN/∞ coordinates through the binary codec (the frame is
    // bit-transparent, so these arrive intact and must be rejected).
    let mut client = WireClient::connect(addr).expect("connect");
    client.set_codec(Codec::Binary);
    for bad in [
        [Location::new(f64::NAN, 0.5)],
        [Location::new(0.5, f64::INFINITY)],
        [Location::new(f64::NEG_INFINITY, f64::NAN)],
    ] {
        let err = client.predict("m", &bad).unwrap_err();
        match err {
            WireError::Api { status, code, .. } => {
                assert_eq!((status, code.as_str()), (400, "invalid_query"), "{bad:?}");
            }
            other => panic!("unexpected error {other} for {bad:?}"),
        }
        let err = client.predict_with_variance("m", &bad).unwrap_err();
        assert!(matches!(err, WireError::Api { status: 400, .. }), "{bad:?}");
    }

    // The JSON path cannot express NaN: bare tokens are parse errors, and
    // null coordinates are invalid_query — still never a 200.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set timeout");
    let body = br#"{"targets":[[NaN,0.5]]}"#;
    stream
        .write_all(
            format!(
                "POST /v1/models/m/predict HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write");
    stream.write_all(body).expect("write body");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
    assert!(response.contains("invalid_json"), "{response:?}");

    let (wire, serve) = server.shutdown();
    assert_eq!(wire.panics_contained, 0);
    assert_eq!(serve.factorizations_during_serving, 0);
    assert_eq!(wire.requests_server_error, 0, "rejections must be 4xx");
}

/// Malformed HTTP preambles, oversized bodies, truncated JSON and
/// mid-request disconnects: all answered (or dropped) without ever
/// panicking a worker, and the server keeps serving afterwards.
#[test]
fn wire_abuse_never_panics_a_worker() {
    let model = fitted(64, 7, Backend::FullTile);
    let (server, _registry) = boot(
        &[("m", model)],
        WireConfig {
            max_body_bytes: 4096,
            ..Default::default()
        },
    );
    let addr = server.local_addr();
    let send_raw = |payload: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("set timeout");
        stream.write_all(payload).expect("write");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    };

    // HTTP-level garbage → 4xx/5xx with a structured body.
    let cases: [(&[u8], &str); 7] = [
        (b"THIS IS NOT HTTP\r\n\r\n", "400"),
        (b"GET /healthz SMTP/3.9\r\n\r\n", "505"),
        (
            b"POST /v1/models/m/predict HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            "413",
        ),
        (
            b"POST /v1/models/m/predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "501",
        ),
        // Truncated JSON bodies (complete HTTP framing, broken payload).
        (
            b"POST /v1/models/m/predict HTTP/1.1\r\nConnection: close\r\nContent-Length: 17\r\n\r\n{\"targets\": [[0.1",
            "400",
        ),
        (
            b"POST /v1/models/m/predict HTTP/1.1\r\nConnection: close\r\nContent-Length: 2\r\n\r\n[]",
            "400",
        ),
        // Valid JSON, wrong shape.
        (
            b"POST /v1/models/m/predict HTTP/1.1\r\nConnection: close\r\nContent-Length: 16\r\n\r\n{\"targets\": 1.5}",
            "400",
        ),
    ];
    for (payload, status) in cases {
        let response = send_raw(payload);
        assert!(
            response.starts_with(&format!("HTTP/1.1 {status}")),
            "{payload:?} answered {response:?}"
        );
        assert!(response.contains("\"error\""), "{response:?}");
    }

    // Mid-request disconnects: drop the socket at every interesting point.
    for partial in [
        &b"POST /v1/mod"[..],
        b"POST /v1/models/m/predict HTTP/1.1\r\nContent-Le",
        b"POST /v1/models/m/predict HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"targ",
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(partial).expect("write");
        drop(stream); // vanish mid-request
    }

    // An immediately-dropped idle connection.
    drop(TcpStream::connect(addr).expect("connect"));

    // The server is still healthy and still predicting.
    let mut client = WireClient::connect(addr).expect("connect");
    client.health().expect("health after abuse");
    let served = client
        .predict("m", &[Location::new(0.3, 0.3)])
        .expect("predict after abuse");
    assert!(served.mean[0].is_finite());

    let (wire, serve) = server.shutdown();
    // The satellite requirement: panic containment counters stay zero.
    assert_eq!(wire.panics_contained, 0, "a worker panicked under abuse");
    assert_eq!(serve.factorizations_during_serving, 0);
    assert_eq!(wire.malformed_requests, 4, "HTTP-level violations");
    assert!(
        wire.disconnects_mid_request >= 3,
        "mid-request drops must be counted, got {}",
        wire.disconnects_mid_request
    );
}

/// Structured API errors: unknown model/path, wrong verb, bad queries.
#[test]
fn api_errors_are_structured_json() {
    let model = fitted(64, 8, Backend::tlr(1e-9));
    let (server, _registry) = boot(&[("m", model)], WireConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let err = client
        .predict("ghost", &[Location::new(0.5, 0.5)])
        .unwrap_err();
    match err {
        WireError::Api { status, code, .. } => {
            assert_eq!((status, code.as_str()), (404, "unknown_model"));
        }
        other => panic!("unexpected error {other}"),
    }

    let err = client.predict("m", &[]).unwrap_err();
    match err {
        WireError::Api { status, code, .. } => {
            assert_eq!((status, code.as_str()), (400, "invalid_query"));
        }
        other => panic!("unexpected error {other}"),
    }

    let err = client.get_json("/v1/nope").unwrap_err();
    match err {
        WireError::Api { status, code, .. } => {
            assert_eq!((status, code.as_str()), (404, "unknown_path"));
        }
        other => panic!("unexpected error {other}"),
    }

    // Wrong verb on a known path, via a raw request on the same
    // keep-alive socket semantics curl would use.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set timeout");
    stream
        .write_all(b"DELETE /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 405"), "{response:?}");
    assert!(response.contains("method_not_allowed"), "{response:?}");

    // The client connection survived all those error responses.
    client.health().expect("keep-alive across errors");
    server.shutdown();
}

/// `GET /v1/models` exposes LRU eviction driven by insert-over-budget.
#[test]
fn models_endpoint_observes_eviction() {
    let a = fitted(64, 1, Backend::FullTile);
    let per_model = a.factor_bytes();
    let registry = Arc::new(ModelRegistry::with_byte_budget(2 * per_model));
    registry.insert("a", a);
    let server = WireServer::start(Arc::clone(&registry), WireConfig::default()).expect("bind");
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let snapshot = client.models().expect("models");
    assert_eq!(snapshot.models.len(), 1);
    assert_eq!(snapshot.byte_budget, Some(2 * per_model as u64));
    assert_eq!(snapshot.evictions, 0);

    // Two more inserts → the LRU "a" must fall out, visible over the wire.
    registry.insert("b", fitted(64, 2, Backend::FullTile));
    let evicted = registry.insert("c", fitted(64, 3, Backend::FullTile));
    assert_eq!(evicted, vec!["a".to_string()]);
    let snapshot = client.models().expect("models");
    let names: Vec<&str> = snapshot.models.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, ["b", "c"]);
    assert_eq!(snapshot.evictions, 1);
    assert_eq!(snapshot.insertions, 3);
    assert_eq!(snapshot.bytes_in_use, 2 * per_model as u64);

    // The counter block is the registry table: `loads` and `reaccounts`
    // follow the seven keys the decoder above reads (and ignores them).
    let Json::Obj(fields) = client.get_json("/v1/models").expect("raw models") else {
        panic!("/v1/models is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(
        keys,
        [
            "models",
            "resident_models",
            "bytes_in_use",
            "byte_budget",
            "insertions",
            "evictions",
            "hits",
            "misses",
            "loads",
            "reaccounts"
        ]
    );

    // Predicting the evicted name is a structured 404 now.
    let err = client.predict("a", &[Location::new(0.2, 0.8)]).unwrap_err();
    assert!(matches!(err, WireError::Api { status: 404, .. }), "{err}");
    server.shutdown();
}

/// The connection cap answers `503` immediately instead of queueing
/// unbounded sockets.
#[test]
fn connection_cap_refuses_with_503() {
    let model = fitted(64, 9, Backend::FullTile);
    let (server, _registry) = boot(
        &[("m", model)],
        WireConfig {
            max_connections: 2,
            ..Default::default()
        },
    );
    let addr = server.local_addr();
    // Two live connections fill the cap — a health round trip on each
    // guarantees the accept loop has registered them before the third
    // connection arrives.
    let mut c1 = WireClient::connect(addr).expect("connect");
    c1.health().expect("health");
    let mut c2 = WireClient::connect(addr).expect("connect");
    c2.health().expect("health");
    // ...so the third gets an immediate 503 and a closed socket.
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set timeout");
    let mut response = String::new();
    refused.read_to_string(&mut response).expect("read refusal");
    assert!(response.starts_with("HTTP/1.1 503"), "{response:?}");
    assert!(response.contains("overloaded"), "{response:?}");
    drop(c1);
    drop(c2);
    // Capacity frees up once a connection closes (poll briefly: the server
    // notices the close on its next idle-read tick).
    let mut ok = None;
    for _ in 0..100 {
        match WireClient::connect(addr).and_then(|mut c| c.health()) {
            Ok(()) => {
                ok = Some(());
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    assert!(ok.is_some(), "capacity never freed after closes");
    let (wire, _serve) = server.shutdown();
    assert!(wire.connections_refused >= 1);
}

/// Silent sockets cannot pin connection slots: the idle timeout closes
/// them and frees capacity for real clients.
#[test]
fn idle_connections_are_reclaimed() {
    let model = fitted(64, 12, Backend::FullTile);
    let (server, _registry) = boot(
        &[("m", model)],
        WireConfig {
            max_connections: 1,
            idle_timeout: std::time::Duration::from_millis(300),
            ..Default::default()
        },
    );
    let addr = server.local_addr();
    // A connection that never sends a byte occupies the only slot...
    let mut silent = TcpStream::connect(addr).expect("connect");
    silent
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set timeout");
    // ...until the idle timeout closes it (EOF, no response bytes).
    let mut buf = String::new();
    silent.read_to_string(&mut buf).expect("read EOF");
    assert!(buf.is_empty(), "idle close must not fabricate a response");
    // The slot is free again for a real client.
    let mut ok = None;
    for _ in 0..100 {
        match WireClient::connect(addr).and_then(|mut c| c.health()) {
            Ok(()) => {
                ok = Some(());
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    assert!(ok.is_some(), "slot never freed after idle reclamation");
    server.shutdown();
}

/// Graceful shutdown mid-traffic: accepted work is answered, the listener
/// stops, and a second shutdown path (drop) is a no-op.
#[test]
fn graceful_shutdown_drains_and_stops_listening() {
    let model = fitted(64, 10, Backend::FullTile);
    let (server, _registry) = boot(&[("m", model)], WireConfig::default());
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr).expect("connect");
    client
        .predict("m", &[Location::new(0.4, 0.2)])
        .expect("predict");
    let (wire, serve) = server.shutdown();
    assert_eq!(wire.requests_ok, 1);
    assert_eq!(serve.requests_served, 1);
    // The port is closed: new connections are refused or die instantly.
    let gone = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            stream
                .read_to_string(&mut buf)
                .map(|_| buf.is_empty())
                .unwrap_or(true)
        }
    };
    assert!(gone, "listener survived shutdown");
    // And the old keep-alive connection is gone too.
    assert!(client.health().is_err());
}

/// HTTP/1.0 and `Connection: close` semantics over raw sockets.
#[test]
fn connection_close_and_http10_are_honored() {
    let model = fitted(64, 11, Backend::FullTile);
    let (server, _registry) = boot(&[("m", model)], WireConfig::default());
    let addr = server.local_addr();

    // HTTP/1.0 without keep-alive: one response, then EOF.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.contains("Connection: close"), "{response:?}");
    assert!(response.contains("\"status\":\"ok\""), "{response:?}");

    // HTTP/1.1 with explicit close after a pipelined pair: both answered.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set timeout");
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/models HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert_eq!(response.matches("HTTP/1.1 200").count(), 2, "{response:?}");
    assert!(response.contains("\"models\""), "{response:?}");
    server.shutdown();
}

/// The ISSUE 8 observability acceptance (node side): predict responses
/// echo a parseable `x-exa-trace-id` (a forwarded id verbatim), `/v1/stats`
/// reports histogram-derived percentiles plus `uptime_seconds` and a
/// monotone `stats_epoch`, `/metrics` validates against the Prometheus
/// text grammar and agrees with the stats document, and the slow ring
/// holds the traffic's trace ids with non-zero per-stage breakdowns.
#[test]
fn metrics_stats_and_slow_ring_observe_traffic() {
    use exa_telemetry::{validate_exposition, TraceId, TRACE_HEADER};

    let model = fitted(256, 33, Backend::FullTile);
    let (server, _registry) = boot(&[("soil", model)], WireConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let body = br#"{"targets":[[0.3,0.7],[0.6,0.2]]}"#;
    let mut traces = Vec::new();
    for _ in 0..20 {
        let resp = client
            .request_raw(
                "POST",
                "/v1/models/soil/predict",
                "application/json",
                "application/json",
                body,
            )
            .expect("predict");
        assert_eq!(resp.status, 200);
        let trace = resp
            .trace
            .clone()
            .expect("predict responses echo a trace id");
        assert!(
            TraceId::parse(&trace).is_some(),
            "unparseable trace {trace:?}"
        );
        traces.push(trace);
    }
    // A forwarded trace id (the fleet-router contract) is echoed verbatim.
    let resp = client
        .request_raw_with_headers(
            "POST",
            "/v1/models/soil/predict",
            "application/json",
            "application/json",
            body,
            &[(TRACE_HEADER, "00000000deadbeef")],
        )
        .expect("traced predict");
    assert_eq!(resp.trace.as_deref(), Some("00000000deadbeef"));

    // /v1/stats: histogram-derived percentiles, uptime, monotone epoch.
    let stats = client.stats().expect("stats");
    let serve = stats.get("serve").expect("serve object");
    let p50 = serve
        .get("latency_p50_seconds")
        .and_then(Json::as_f64)
        .expect("p50");
    let p99 = serve
        .get("latency_p99_seconds")
        .and_then(Json::as_f64)
        .expect("p99");
    assert!(p99 > 0.0, "p99 must be histogram-derived and non-zero");
    assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
    let wire_obj = stats.get("wire").expect("wire object");
    assert!(
        wire_obj
            .get("uptime_seconds")
            .and_then(Json::as_f64)
            .expect("uptime")
            > 0.0
    );
    let epoch1 = wire_obj
        .get("stats_epoch")
        .and_then(Json::as_u64)
        .expect("epoch");
    let stats2 = client.stats().expect("stats again");
    let epoch2 = stats2
        .get("wire")
        .and_then(|w| w.get("stats_epoch"))
        .and_then(Json::as_u64)
        .expect("epoch again");
    assert!(epoch2 > epoch1, "stats_epoch must be monotone");

    // /metrics: valid exposition, histogram families present, and scalar
    // parity with the stats document for a counter no GET can move.
    let resp = client
        .request_raw("GET", "/metrics", "application/json", "*/*", b"")
        .expect("metrics");
    assert_eq!(resp.status, 200);
    assert!(
        resp.content_type.starts_with("text/plain"),
        "{:?}",
        resp.content_type
    );
    let text = String::from_utf8(resp.body).expect("metrics utf8");
    validate_exposition(&text).expect("metrics grammar");
    assert!(text.contains("exa_serve_latency_seconds_bucket{"), "{text}");
    assert!(
        text.contains("exa_request_stage_seconds_bucket{stage=\"solve\""),
        "{text}"
    );
    let served = stats2
        .get("serve")
        .and_then(|s| s.get("requests_served"))
        .and_then(Json::as_u64)
        .expect("requests_served");
    assert!(
        text.contains(&format!("exa_serve_requests_served {served}")),
        "metrics disagree with stats on requests_served={served}:\n{text}"
    );

    // /v1/debug/slow: every predict above is in the ring (21 < capacity),
    // attributed to its trace, with non-zero parse/solve/total spans.
    let resp = client
        .request_raw("GET", "/v1/debug/slow", "application/json", "*/*", b"")
        .expect("slow");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("slow json");
    let entries = doc
        .get("slow")
        .and_then(Json::as_array)
        .expect("slow array");
    assert_eq!(
        entries.len(),
        traces.len() + 1,
        "every predict is in the ring"
    );
    for e in entries {
        assert_eq!(e.get("model").and_then(Json::as_str), Some("soil"));
        let parse_ns = e.get("parse_ns").and_then(Json::as_u64).expect("parse_ns");
        let solve_ns = e.get("solve_ns").and_then(Json::as_u64).expect("solve_ns");
        let total_ns = e.get("total_ns").and_then(Json::as_u64).expect("total_ns");
        assert!(
            parse_ns > 0 && solve_ns > 0 && total_ns > 0,
            "zero stage span in {e:?}"
        );
    }
    let ring_traces: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("trace").and_then(Json::as_str))
        .collect();
    assert!(ring_traces.contains(&"00000000deadbeef"), "{ring_traces:?}");
    for trace in &traces {
        assert!(
            ring_traces.contains(&trace.as_str()),
            "{trace} missing from ring"
        );
    }
    server.shutdown();
}

/// The "same documents" pin: the key sequence of the three `/v1/stats`
/// objects and the `# HELP` / `# TYPE` lines of `/metrics` are those
/// recorded from the hand-written writers (`tests/golden/`, taken at the
/// commit before the stat tables), except that the six ingest totals, which
/// an eviction lowers, are now typed `gauge`.
#[test]
fn stats_and_metrics_documents_match_the_recorded_goldens() {
    let model = fitted(64, 5, Backend::FullTile);
    let (server, _registry) = boot(&[("soil", model)], WireConfig::default());
    let mut client = WireClient::connect(server.local_addr()).expect("connect");

    let stats = client.stats().expect("stats");
    let mut keys = String::new();
    for object in ["wire", "serve", "registry"] {
        let Some(Json::Obj(fields)) = stats.get(object) else {
            panic!("/v1/stats has no {object} object");
        };
        for (key, _) in fields {
            keys.push_str(&format!("{object}.{key}\n"));
        }
    }
    assert_eq!(keys, include_str!("golden/stats_keys.txt"));

    let resp = client
        .request_raw("GET", "/metrics", "application/json", "*/*", b"")
        .expect("metrics");
    let text = String::from_utf8(resp.body).expect("metrics utf8");
    // One TYPE line per family is part of the grammar, so this also proves
    // every metric name in the exposition is unique.
    exa_telemetry::validate_exposition(&text).expect("metrics grammar");
    let preamble: Vec<&str> = text.lines().filter(|l| l.starts_with("# ")).collect();
    let mut retyped = 0;
    let expected: Vec<String> = include_str!("golden/metrics_preamble.txt")
        .lines()
        .map(|line| {
            let was_counter = [
                "updates_total",
                "points_ingested",
                "points_expired",
                "refits_triggered",
                "refits_completed",
                "replayed_updates",
            ]
            .iter()
            .any(|key| line == format!("# TYPE exa_serve_ingest_{key} counter"));
            if was_counter {
                retyped += 1;
                line.replace(" counter", " gauge")
            } else {
                line.to_string()
            }
        })
        .collect();
    assert_eq!(retyped, 6);
    assert_eq!(preamble, expected);
    server.shutdown();
}
