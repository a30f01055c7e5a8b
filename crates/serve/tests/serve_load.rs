//! End-to-end load test of the serving subsystem: many client threads, a
//! multi-model registry with a byte budget, sustained concurrent traffic —
//! and zero factorizations for the whole serving run.

use exa_covariance::{Location, MaternKernel};
use exa_geostat::{synthetic_locations_n, Backend, FittedModel, GeoModel};
use exa_runtime::Runtime;
use exa_serve::{ModelRegistry, PredictionServer, ServeConfig, ServeError};
use exa_util::Rng;
use std::sync::Arc;

fn fit_model(n: usize, seed: u64, backend: Backend) -> Arc<FittedModel<MaternKernel>> {
    let rt = Runtime::new(2);
    let mut rng = Rng::seed_from_u64(seed);
    let locations = Arc::new(synthetic_locations_n(n, &mut rng));
    let gen = GeoModel::<MaternKernel>::builder()
        .locations(locations.clone())
        .tile_size(32)
        .build()
        .unwrap()
        .at_params(&[1.0, 0.1, 0.5], &rt)
        .unwrap();
    let z = gen.simulate(&mut rng, &rt);
    Arc::new(
        GeoModel::<MaternKernel>::builder()
            .locations(locations)
            .data(z)
            .backend(backend)
            .tile_size(32)
            .build()
            .unwrap()
            .at_params(&[1.0, 0.1, 0.5], &rt)
            .unwrap(),
    )
}

#[test]
fn concurrent_clients_multi_model_traffic_with_zero_potrf() {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("tile", fit_model(144, 1, Backend::FullTile));
    registry.insert("tlr", fit_model(144, 2, Backend::tlr(1e-9)));
    let server = PredictionServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 3,
            ..Default::default()
        },
    );

    // Serial references for every (client, request) pair, computed through
    // the same batched kernel the server uses.
    let names = ["tile", "tlr"];
    let expected: Vec<Vec<f64>> = (0..6u64)
        .map(|c| {
            let model = registry.get(names[(c % 2) as usize]).unwrap();
            (0..25u64)
                .map(|r| {
                    let t = client_target(c, r);
                    model.predict_batch(&[&[t][..]]).unwrap()[0].values[0]
                })
                .collect()
        })
        .collect();

    let handle = server.handle();
    let got: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6u64)
            .map(|c| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let name = names[(c % 2) as usize];
                    // Mix of closed-loop and burst traffic per client.
                    let mut values = Vec::new();
                    let mut tickets = Vec::new();
                    for r in 0..25u64 {
                        let t = client_target(c, r);
                        if r % 3 == 0 {
                            values.push((r, handle.predict(name, vec![t]).unwrap().values[0]));
                        } else {
                            tickets.push((r, handle.submit(name, vec![t]).unwrap()));
                        }
                    }
                    for (r, ticket) in tickets {
                        values.push((r, ticket.wait().unwrap().values[0]));
                    }
                    values.sort_by_key(|&(r, _)| r);
                    values.into_iter().map(|(_, v)| v).collect::<Vec<f64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (c, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "client {c}: served answers must match serial batch");
    }

    let stats = server.shutdown();
    assert_eq!(stats.requests_submitted, 150);
    assert_eq!(stats.requests_served, 150);
    assert_eq!(stats.requests_failed, 0);
    assert_eq!(
        stats.factorizations_during_serving, 0,
        "serving must never re-run potrf"
    );
    assert!(stats.max_queue_depth >= 1);
    assert!(stats.mean_latency_seconds >= 0.0);
}

fn client_target(c: u64, r: u64) -> Location {
    Location::new(
        0.017 * ((c * 31 + r * 7) % 59) as f64,
        0.013 * ((c * 17 + r * 11) % 71) as f64,
    )
}

#[test]
fn budgeted_registry_keeps_serving_pinned_models_after_eviction() {
    let small = fit_model(64, 5, Backend::tlr(1e-7));
    let registry = Arc::new(ModelRegistry::with_byte_budget(small.factor_bytes()));
    registry.insert("first", small);
    let server = PredictionServer::start(Arc::clone(&registry), ServeConfig::default());
    let handle = server.handle();
    let ticket = handle
        .submit("first", vec![Location::new(0.5, 0.5)])
        .unwrap();
    // Evict "first" by inserting a second model over the budget.
    let evicted = registry.insert("second", fit_model(64, 6, Backend::tlr(1e-7)));
    assert_eq!(evicted, vec!["first".to_string()]);
    // The in-flight request still completes (its Arc pinned the factor)...
    assert!(ticket.wait().unwrap().values[0].is_finite());
    // ...but new submissions see the eviction.
    assert!(matches!(
        handle.submit("first", vec![Location::new(0.5, 0.5)]),
        Err(ServeError::UnknownModel(_))
    ));
    assert!(handle
        .submit("second", vec![Location::new(0.5, 0.5)])
        .is_ok());
    server.shutdown();
}
