//! `serve_mixed`: reads beside writes through every serving layer.
//!
//! In process: a `FleetRouter` in front of two `WireServer` nodes, one
//! dense model resident on both, so observes update the factor
//! incrementally and fan out to both replicas. Load is a **closed loop of
//! two keep-alive connections** — the callers are an application tier that
//! waits for each reply — connection 0 speaking JSON, connection 1 the
//! binary codec. Every request carries 64 targets. Connection 0 is the
//! writer: a fixed schedule in which every 50th request is a 1-point
//! observe. Connection 1 reads beside it until the writer is through, every
//! 250th request asking for variances (a 64-RHS dense solve occupies a
//! node's reactor for ~15 ms; more of them and reads mostly measure that).
//!
//! One *unit* is that schedule run once against a freshly booted fleet, so
//! every unit starts from the same model and applies the same writes; a run
//! repeats units until its seconds are used.

use crate::data::{dense_nb, observation_stream, request_pool, Field, Fitted};
use crate::krige::{observe_in_process, refactor};
use crate::span::Recorder;
use crate::stats::Samples;
use crate::{check, probes, spec, timed, Ctx, Outcome, SETUPS, TARGETS, THETA0};
use exa_covariance::{CovarianceKernel, Location, MaternKernel};
use exa_fleet::{FleetConfig, FleetRouter, NodeSpec, RouterStats};
use exa_geostat::{Backend, LikelihoodConfig};
use exa_runtime::Runtime;
use exa_serve::{ModelRegistry, PredictionServer, ServeConfig, ServerStats};
use exa_wire::{Codec, WireClient, WireConfig, WireServer};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const MODEL: &str = "field";
const NODES: usize = 2;

/// Requests on the writer's connection in one unit.
fn unit_requests(ctx: &Ctx) -> usize {
    if ctx.smoke {
        100
    } else {
        2000
    }
}

const OBSERVE_EVERY: usize = 50;
const VARIANCE_EVERY: usize = 250;

struct Fleet {
    nodes: Vec<WireServer<MaternKernel>>,
    registries: Vec<Arc<ModelRegistry<MaternKernel>>>,
    router: FleetRouter,
}

/// What a fleet reports when it is shut down.
struct FleetStats {
    router: RouterStats,
    serve: Vec<ServerStats>,
    /// Observations each replica's model holds at the end.
    points: Vec<usize>,
    /// Background refactorizations completed, summed over replicas.
    refits: u64,
}

fn start_node(base: &Arc<Fitted>) -> (WireServer<MaternKernel>, Arc<ModelRegistry<MaternKernel>>) {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(MODEL, Arc::clone(base));
    let node = WireServer::start(Arc::clone(&registry), WireConfig::default())
        .expect("node binds an ephemeral port");
    (node, registry)
}

impl Fleet {
    fn boot(base: &Arc<Fitted>) -> Fleet {
        let (nodes, registries): (Vec<_>, Vec<_>) = (0..NODES).map(|_| start_node(base)).unzip();
        let specs = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeSpec::new(format!("node-{i}"), n.local_addr()))
            .collect();
        let router =
            FleetRouter::start(specs, FleetConfig::default()).expect("router binds a port");
        Fleet {
            nodes,
            registries,
            router,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    fn shutdown(self) -> FleetStats {
        let router = self.router.shutdown();
        let serve = self.nodes.into_iter().map(|n| n.shutdown().1).collect();
        let mut points = Vec::new();
        let mut refits = 0;
        for registry in &self.registries {
            let live = registry.live(MODEL).expect("model stays resident");
            live.wait_refit_idle();
            points.push(live.snapshot().kernel().len());
            refits += live.drift().refits_completed;
        }
        FleetStats {
            router,
            serve,
            points,
            refits,
        }
    }
}

fn connect(addr: SocketAddr, codec: Codec) -> WireClient {
    let mut client = WireClient::connect(addr).expect("client connects");
    client.set_codec(codec);
    client
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Both codecs must return the in-process `predict_batch` means bit for
/// bit (checked before any observe lands).
fn check_bit_identity(out: &mut Outcome, addr: SocketAddr, base: &Fitted, request: &[Location]) {
    let expected = base.predict_batch(&[request]).expect("prediction");
    for codec in [Codec::Json, Codec::Binary] {
        out.attempted += 1;
        match connect(addr, codec).predict(MODEL, request) {
            Ok(served) => out.require(bits(&served.mean) == bits(&expected[0].values), || {
                format!("{codec} means are not bit-identical to in-process predict_batch")
            }),
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{codec} predict failed: {e}"));
            }
        }
    }
}

/// Client-side round trips of one unit, microseconds.
#[derive(Default)]
struct UnitSamples {
    predict_json: Samples,
    predict_bin: Samples,
    variance: Samples,
    observe: Samples,
    failed: u64,
}

impl UnitSamples {
    fn requests(&self) -> usize {
        self.predict_json.len() + self.predict_bin.len() + self.variance.len() + self.observe.len()
    }

    fn absorb(&mut self, other: &UnitSamples) {
        self.predict_json.extend(&other.predict_json);
        self.predict_bin.extend(&other.predict_bin);
        self.variance.extend(&other.variance);
        self.observe.extend(&other.observe);
        self.failed += other.failed;
    }

    fn predicts(&self) -> Samples {
        let mut pooled = self.predict_json.clone();
        pooled.extend(&self.predict_bin);
        pooled
    }
}

/// The writer's connection (JSON): a fixed schedule of `requests`, every
/// [`OBSERVE_EVERY`]th a 1-point observe, the rest mean-only predicts.
/// Raises `done` when the schedule is through. Returns its samples and
/// when it started and ended, seconds from `epoch`.
fn drive_writer(
    addr: SocketAddr,
    requests: usize,
    pool: &[Vec<Location>],
    stream: &[(Location, f64)],
    barrier: &Barrier,
    done: &AtomicBool,
    epoch: Instant,
) -> (UnitSamples, f64, f64) {
    let mut client = connect(addr, Codec::Json);
    let mut s = UnitSamples::default();
    barrier.wait();
    let started = epoch.elapsed().as_secs_f64();
    for i in 0..requests {
        let t = Instant::now();
        let (ok, samples) = if i % OBSERVE_EVERY == OBSERVE_EVERY - 1 {
            let (point, value) = stream[i / OBSERVE_EVERY];
            (
                client.observe(MODEL, &[point], &[value]).is_ok(),
                &mut s.observe,
            )
        } else {
            (
                client.predict(MODEL, &pool[i % pool.len()]).is_ok(),
                &mut s.predict_json,
            )
        };
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        s.failed += u64::from(!ok);
    }
    // ORDERING: Relaxed — the flag publishes nothing but itself.
    done.store(true, Ordering::Relaxed);
    (s, started, epoch.elapsed().as_secs_f64())
}

/// The reader's connection (binary codec): predicts beside the writer
/// until the writer is done, every [`VARIANCE_EVERY`]th with variances.
fn drive_reader(
    addr: SocketAddr,
    pool: &[Vec<Location>],
    barrier: &Barrier,
    done: &AtomicBool,
    epoch: Instant,
) -> (UnitSamples, f64, f64) {
    let mut client = connect(addr, Codec::Binary);
    let mut s = UnitSamples::default();
    barrier.wait();
    let started = epoch.elapsed().as_secs_f64();
    let mut i = 0usize;
    while !done.load(Ordering::Relaxed) {
        // Offset from the writer so the two do not walk the pool in step.
        let targets = &pool[(i + 7) % pool.len()];
        let t = Instant::now();
        let (ok, samples) = if i % VARIANCE_EVERY == 1 {
            (
                client.predict_with_variance(MODEL, targets).is_ok(),
                &mut s.variance,
            )
        } else {
            (client.predict(MODEL, targets).is_ok(), &mut s.predict_bin)
        };
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        s.failed += u64::from(!ok);
        i += 1;
    }
    (s, started, epoch.elapsed().as_secs_f64())
}

/// Runs the schedule once against a fresh fleet; returns the samples, the
/// makespan in seconds and the fleet's final statistics, with the replica
/// and counter invariants checked.
fn run_unit(
    out: &mut Outcome,
    base: &Arc<Fitted>,
    pool: &[Vec<Location>],
    stream: &[(Location, f64)],
    requests: usize,
) -> (UnitSamples, f64, FleetStats) {
    let fleet = Fleet::boot(base);
    let addr = fleet.addr();
    let barrier = Barrier::new(2);
    let epoch = Instant::now();
    let done = AtomicBool::new(false);
    let (json, binary) = std::thread::scope(|s| {
        let writer = s.spawn(|| drive_writer(addr, requests, pool, stream, &barrier, &done, epoch));
        let reader = s.spawn(|| drive_reader(addr, pool, &barrier, &done, epoch));
        (
            writer.join().expect("JSON connection thread"),
            reader.join().expect("binary connection thread"),
        )
    });
    let makespan = json.2.max(binary.2) - json.1.min(binary.1);
    let mut samples = json.0;
    samples.absorb(&binary.0);
    let stats = fleet.shutdown();

    let observes = requests / OBSERVE_EVERY;
    let expected_points = base.kernel().len() + observes;
    out.require(stats.points.iter().all(|&p| p == expected_points), || {
        format!(
            "replicas hold {:?} points, expected {expected_points} on both",
            stats.points
        )
    });
    out.require(stats.router.failovers == 0, || {
        format!("{} failovers", stats.router.failovers)
    });
    for (i, serve) in stats.serve.iter().enumerate() {
        out.require(serve.factorizations_during_serving == 0, || {
            format!(
                "node {i}: {} factorizations during serving",
                serve.factorizations_during_serving
            )
        });
        out.require(serve.observes_applied == observes as u64, || {
            format!(
                "node {i} applied {} observes, expected {observes}",
                serve.observes_applied
            )
        });
    }
    (samples, makespan, stats)
}

/// The resident model: a dense (`FullBlock`) factor at θ₀, the backend
/// whose live factor updates incrementally.
fn resident(ctx: &Ctx, rt: &Runtime) -> (Fitted, LikelihoodConfig) {
    let n = ctx.serve_n();
    let geo = Field::generate(n, ctx.seed, rt).model(Backend::FullBlock, dense_nb(n), ctx.seed);
    let model = geo.at_params(&THETA0, rt).expect("Σ(θ₀) factors");
    (model, geo.config())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let rt = Runtime::new(ctx.workers);
    let mut out = Outcome::default();
    let pool = request_pool(64, ctx.seed);
    let requests = unit_requests(ctx);

    // Set-up: field, resident factorization, fleet boot and the two
    // codecs' first round trip (checked bit-identical to in-process).
    let mut checks = Outcome::default();
    let mut set_up = || {
        let (model, config) = resident(ctx, &rt);
        let model = Arc::new(model);
        let fleet = Fleet::boot(&model);
        check_bit_identity(&mut checks, fleet.addr(), &model, &pool[0]);
        (model, config, fleet)
    };
    let (mut setup, mut iter_s) = (Samples::default(), Samples::default());
    let (base, config, fleet) = timed(&mut setup, &mut set_up);
    fleet.shutdown();
    out.set(spec::FACTOR_MB, base.factor_bytes() as f64 / 1e6);
    let stream = observation_stream(&base, requests / OBSERVE_EVERY, ctx.seed);

    // Units until the seconds are used; before each, two refactorizations
    // (for `mle_iter_s`); after the first ones, the remaining set-ups.
    let mut all = UnitSamples::default();
    let mut rps = Samples::default();
    let mut measured = 0.0;
    let mut longest = 0.0f64;
    while rps.is_empty() || measured + longest <= ctx.seconds {
        let before = Instant::now();
        refactor(&mut out, &mut iter_s, &base, 2, &rt);
        measured += before.elapsed().as_secs_f64();
        let (samples, makespan, _) = run_unit(&mut out, &base, &pool, &stream, requests);
        rps.push(samples.requests() as f64 / makespan);
        all.absorb(&samples);
        measured += makespan;
        longest = longest.max(makespan);
        if setup.len() < SETUPS {
            timed(&mut setup, &mut set_up).2.shutdown();
        }
    }
    while setup.len() < SETUPS {
        timed(&mut setup, &mut set_up).2.shutdown();
    }
    out.attempted += checks.attempted;
    out.failed += checks.failed;
    out.problems.append(&mut checks.problems);
    out.set_median(spec::SETUP_S, &setup);
    out.set_median(spec::MLE_ITER_S, &iter_s);
    out.attempted += all.requests() as u64;
    out.failed += all.failed;
    out.set_median(spec::PREDICT_P50_US, &all.predicts());
    out.set_median(spec::PREDICT_VAR_P50_US, &all.variance);
    out.set_noted(
        spec::SERVE_RPS,
        rps.median(),
        format!(
            "median of {} units; {} requests in all",
            rps.len(),
            all.requests()
        ),
    );
    check::check_kriging(&mut out, &base, config, &pool[0], &rt);
    out
}

/// Median microseconds of `f` over `reps` calls after one warm-up; each
/// call recorded as a span named `name`.
fn ladder_depth(
    rec: &mut Recorder,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> bool,
) -> (f64, u64) {
    let mut samples = Samples::default();
    let mut failed = 0;
    for rep in 0..=reps {
        rec.next_run();
        let (seconds, ok) = rec.time(name, &mut f);
        failed += u64::from(!ok);
        if rep > 0 {
            samples.push(seconds * 1e6);
        }
    }
    (samples.median(), failed)
}

/// The same 64-target request timed at four depths — in-process
/// `predict_batch`, `ServerHandle`, a node's socket, the router — each
/// layer's self time being the difference to the depth below; then one
/// unit of the mixed schedule for the per-codec split and the counters.
pub fn trace(ctx: &Ctx) -> (Outcome, Recorder) {
    let rt = Runtime::new(ctx.workers);
    let n = ctx.serve_n();
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let base = Arc::new(resident(ctx, &rt).0);
    let pool = request_pool(64, ctx.seed);
    let request: &[Location] = &pool[0];
    let reps = if ctx.smoke { 20 } else { 400 };
    out.set("host.n", n as f64);

    // Depth 0: the kriging itself.
    let (d0, f0) = ladder_depth(&mut rec, "geostat.predict_batch", reps, || {
        base.predict_batch(&[request]).is_ok()
    });
    let (var_us, fv) = ladder_depth(
        &mut rec,
        "geostat.predict_batch_with_variance",
        reps / 4,
        || base.predict_batch_with_variance(&[request], &rt).is_ok(),
    );
    // Depth 1: ticket and queue.
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(MODEL, Arc::clone(&base));
    let server = PredictionServer::start(Arc::clone(&registry), ServeConfig::default());
    let handle = server.handle();
    let (d1, f1) = ladder_depth(&mut rec, "serve.predict", reps, || {
        handle.predict(MODEL, request.to_vec()).is_ok()
    });
    server.shutdown();
    // Depths 2 and 3: a node's socket, then the router in front of it,
    // both codecs pooled as the end-to-end metric pools them.
    let fleet = Fleet::boot(&base);
    let socket_depth = |rec: &mut Recorder, name: &str, addr: SocketAddr| {
        let mut json = connect(addr, Codec::Json);
        let mut binary = connect(addr, Codec::Binary);
        let mut turn = 0usize;
        ladder_depth(rec, name, reps, || {
            turn += 1;
            let client = if turn.is_multiple_of(2) {
                &mut json
            } else {
                &mut binary
            };
            client.predict(MODEL, request).is_ok()
        })
    };
    let (d2, f2) = socket_depth(&mut rec, "wire.node_roundtrip", fleet.nodes[0].local_addr());
    let (d3, f3) = socket_depth(&mut rec, "fleet.router_roundtrip", fleet.addr());
    out.attempted += 4 * (reps as u64 + 1) + reps as u64 / 4 + 1;
    out.failed += f0 + fv + f1 + f2 + f3;
    out.set("geostat.predict_batch_us", d0);
    out.set("geostat.predict_var_us", var_us);
    out.set_noted(
        "covariance.cross_row_ns",
        d0 * 1e3 / (TARGETS * n) as f64,
        "predict_batch time per cross-covariance entry (fill + dot)".into(),
    );
    out.set_noted(
        "serve.submit_us",
        d1 - d0,
        format!("ServerHandle::predict {d1:.1} us"),
    );
    out.set_noted(
        "wire.node_us",
        d2 - d1,
        "node socket round trip - ServerHandle".into(),
    );
    out.set("wire.direct_p50_us", d2);
    out.set_noted(
        "fleet.hop_us",
        d3 - d2,
        format!("router round trip {d3:.1} us"),
    );

    // Writes: in process, straight at a node, and through the router.
    let observes = if ctx.smoke { 4 } else { 40 };
    let stream = observation_stream(&base, observes, ctx.seed ^ 1);
    let (_, observe_us) = rec.time("geostat.observe", || {
        observe_in_process(&mut out, &base, observes, ctx.seed ^ 1, &rt)
    });
    out.set_median("geostat.observe_us", &observe_us);
    out.set("geostat.alpha_solve_s", base.alpha_solve_seconds());
    let mut direct = connect(fleet.nodes[0].local_addr(), Codec::Json);
    let mut next = stream.iter();
    let (direct_observe_us, fd) = ladder_depth(&mut rec, "wire.node_observe", observes - 1, || {
        let (p, v) = next.next().expect("stream is long enough");
        direct.observe(MODEL, &[*p], &[*v]).is_ok()
    });
    out.attempted += observes as u64;
    out.failed += fd;
    drop(direct);
    // That node's replica is now ahead of its peer; this fleet is done.
    fleet.shutdown();

    // One unit of the mixed schedule.
    let requests = unit_requests(ctx);
    let unit_stream = observation_stream(&base, requests / OBSERVE_EVERY, ctx.seed);
    let (unit, makespan, stats) = run_unit(&mut out, &base, &pool, &unit_stream, requests);
    out.attempted += unit.requests() as u64;
    out.failed += unit.failed;
    let predicts = unit.predicts();
    let loaded_p50 = predicts.median();
    out.set("wire.json_p50_us", unit.predict_json.median());
    out.set("wire.bin_p50_us", unit.predict_bin.median());
    out.set_noted(
        "wire.predict_p99_us",
        predicts.quantile(0.99),
        predicts.describe(),
    );
    out.set_noted(
        "wire.observe_p99_us",
        unit.observe.quantile(0.99),
        unit.observe.describe(),
    );
    out.set_median("fleet.observe_p50_us", &unit.observe);
    out.set_noted(
        "fleet.observe_fanout_us",
        unit.observe.median() - direct_observe_us,
        format!(
            "observe through the router {:.1} us (beside reads) - straight at one node {direct_observe_us:.1} us (quiet)",
            unit.observe.median()
        ),
    );
    out.set_noted(
        "fleet.ladder_vs_p50",
        d3 / loaded_p50,
        format!("quiet ladder {d3:.1} us over the mixed unit's predict p50 {loaded_p50:.1} us"),
    );
    out.set_noted(
        "fleet.rps",
        unit.requests() as f64 / makespan,
        format!("{} requests in {makespan:.3} s", unit.requests()),
    );
    out.set("fleet.failovers", stats.router.failovers as f64);
    out.set("geostat.refits", stats.refits as f64);
    out.set(
        "serve.queue_high_water",
        stats
            .serve
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    let batches: u64 = stats.serve.iter().map(|s| s.batches_executed).sum();
    let served: u64 = stats
        .serve
        .iter()
        .map(|s| s.requests_served + s.requests_failed)
        .sum();
    out.set("serve.mean_batch", served as f64 / batches.max(1) as f64);
    out.set(
        "serve.coalesced",
        stats
            .serve
            .iter()
            .map(|s| s.requests_coalesced)
            .sum::<u64>() as f64,
    );
    out.set(
        "serve.factorizations_during_serving",
        stats
            .serve
            .iter()
            .map(|s| s.factorizations_during_serving)
            .sum::<u64>() as f64,
    );

    // Codec and telemetry cost in isolation.
    let mean = base.predict_batch(&[request]).expect("prediction");
    let codec = probes::codecs(request, &mean[0].values, reps);
    out.set("wire.json_encode_us", codec.json_encode);
    out.set("wire.json_decode_us", codec.json_decode);
    out.set("wire.bin_encode_us", codec.bin_encode);
    out.set("wire.bin_decode_us", codec.bin_decode);
    out.set("telemetry.record_ns", probes::histogram_record_ns(1 << 20));

    // The ladder telescopes, so its self times sum to the router round
    // trip by construction; coverage says how much of that is named
    // program work (kriging, ticket, codec) rather than sockets and wakes.
    out.set_noted(
        "trace.coverage",
        (d1 + codec.json_encode + codec.json_decode) / d3,
        "(kriging + ticket + JSON codec) / router round trip".into(),
    );
    let mut untraced = Samples::default();
    for _ in 0..reps {
        std::hint::black_box(timed(&mut untraced, || base.predict_batch(&[request])).is_ok());
    }
    out.set("trace.overhead_ratio", d0 / (untraced.median() * 1e6));
    (out, rec)
}
