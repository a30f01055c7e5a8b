//! Isolated probes of single layers, each through the layer's public
//! functions: the BLAS-3 substitutes in the shapes the tile Cholesky calls
//! them, the task runtime's per-task cost, the telemetry recorder, and the
//! two wire codecs.

use crate::stats::Samples;
use exa_covariance::Location;
use exa_linalg::{dgemm, dpotrf, dsyrk, dtrsm, Mat, Side, Trans};
use exa_runtime::{Access, Runtime, TaskGraph};
use exa_telemetry::Histogram;
use exa_util::Rng;
use exa_wire::codec::{
    encode_predict_request, encode_predict_response, PredictRequestFrame, PredictResponseFrame,
};
use exa_wire::json::{Json, JsonWriter};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `f` over `reps` calls after one warm-up call, with
/// `prepare` run (untimed) before each.
fn median_seconds<S>(
    reps: usize,
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(&mut S),
) -> f64 {
    let mut samples = Samples::default();
    for rep in 0..=reps {
        let mut state = prepare();
        let start = Instant::now();
        f(&mut state);
        let elapsed = start.elapsed().as_secs_f64();
        black_box(&state);
        if rep > 0 {
            samples.push(elapsed);
        }
    }
    samples.median()
}

/// Isolated seconds per call of the four Cholesky kernels on `nb × nb`
/// tiles, called exactly as `tile_potrf`'s tasks call them.
#[derive(Clone, Copy, Debug)]
pub struct KernelSeconds {
    pub nb: usize,
    pub gemm: f64,
    pub syrk: f64,
    pub trsm: f64,
    pub potrf: f64,
}

impl KernelSeconds {
    pub fn gemm_gflops(&self) -> f64 {
        2.0 * (self.nb as f64).powi(3) / self.gemm / 1e9
    }
    pub fn syrk_gflops(&self) -> f64 {
        (self.nb as f64).powi(3) / self.syrk / 1e9
    }
    pub fn trsm_gflops(&self) -> f64 {
        (self.nb as f64).powi(3) / self.trsm / 1e9
    }
    pub fn potrf_gflops(&self) -> f64 {
        (self.nb as f64).powi(3) / 3.0 / self.potrf / 1e9
    }

    /// Σ(task count × isolated kernel time) of an `nt × nt`-tile Cholesky:
    /// the time the kernels alone would take on one worker.
    pub fn cholesky_kernel_seconds(&self, nt: usize) -> f64 {
        let nt = nt as f64;
        let pairs = nt * (nt - 1.0) / 2.0;
        let triples = nt * (nt - 1.0) * (nt - 2.0) / 6.0;
        nt * self.potrf + pairs * (self.trsm + self.syrk) + triples * self.gemm
    }
}

pub fn kernels(nb: usize, reps: usize) -> KernelSeconds {
    let mut rng = Rng::seed_from_u64(nb as u64);
    let a = Mat::gaussian(nb, nb, &mut rng);
    let b = Mat::gaussian(nb, nb, &mut rng);
    let c = Mat::gaussian(nb, nb, &mut rng);
    let spd = Mat::random_spd(nb, &mut rng);
    let mut l = spd.clone();
    dpotrf(nb, l.as_mut_slice(), nb).expect("random SPD tile factors");

    let gemm = median_seconds(
        reps,
        || c.clone(),
        |c| {
            dgemm(
                Trans::No,
                Trans::Yes,
                nb,
                nb,
                nb,
                -1.0,
                a.as_slice(),
                nb,
                b.as_slice(),
                nb,
                1.0,
                c.as_mut_slice(),
                nb,
            )
        },
    );
    let syrk = median_seconds(
        reps,
        || c.clone(),
        |c| {
            dsyrk(
                Trans::No,
                nb,
                nb,
                -1.0,
                a.as_slice(),
                nb,
                1.0,
                c.as_mut_slice(),
                nb,
            )
        },
    );
    let trsm = median_seconds(
        reps,
        || b.clone(),
        |b| {
            dtrsm(
                Side::Right,
                Trans::Yes,
                nb,
                nb,
                1.0,
                l.as_slice(),
                nb,
                b.as_mut_slice(),
                nb,
            )
        },
    );
    let potrf = median_seconds(
        reps,
        || spd.clone(),
        |m| dpotrf(nb, m.as_mut_slice(), nb).expect("random SPD tile factors"),
    );
    KernelSeconds {
        nb,
        gemm,
        syrk,
        trsm,
        potrf,
    }
}

/// Microseconds the runtime spends per task on a graph of `tasks` empty
/// tasks chained in `chains` independent chains (submission included).
pub fn task_overhead_us(rt: &Runtime, tasks: usize, chains: usize, reps: usize) -> f64 {
    let seconds = median_seconds(
        reps,
        || (),
        |()| {
            let mut graph = TaskGraph::new();
            let handles = graph.register_many(chains);
            for t in 0..tasks {
                graph.submit(
                    "empty",
                    0,
                    &[(handles[t % chains], Access::ReadWrite)],
                    || {},
                );
            }
            black_box(rt.run(graph));
        },
    );
    seconds * 1e6 / tasks as f64
}

/// Nanoseconds per `Histogram::record_ns`.
pub fn histogram_record_ns(records: u64) -> f64 {
    let hist = Histogram::new();
    let start = Instant::now();
    for i in 0..records {
        hist.record_ns(black_box(1_000 + (i & 0xffff)));
    }
    let elapsed = start.elapsed().as_secs_f64();
    black_box(hist.snapshot().count());
    elapsed * 1e9 / records as f64
}

/// Microseconds to encode and to decode one request plus its response, per
/// codec.
#[derive(Clone, Copy, Debug)]
pub struct CodecMicros {
    pub json_encode: f64,
    pub json_decode: f64,
    pub bin_encode: f64,
    pub bin_decode: f64,
}

fn json_request(targets: &[Location]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("targets");
    w.begin_array();
    for t in targets {
        w.begin_array();
        w.number(t.x);
        w.number(t.y);
        w.end_array();
    }
    w.end_array();
    w.key("variance");
    w.boolean(false);
    w.end_object();
    w.finish()
}

fn json_response(mean: &[f64]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("model", "field");
    w.key("mean");
    w.begin_array();
    for m in mean {
        w.number(*m);
    }
    w.end_array();
    w.field_uint("points", mean.len() as u64);
    w.field_uint("coalesced_requests", 1);
    w.field_uint("batch_points", mean.len() as u64);
    w.field_num("latency_seconds", 0.000_123_456);
    w.end_object();
    w.finish()
}

/// Times both codecs on one request (`targets`) and its response (`mean`):
/// the JSON side through `JsonWriter` / `Json::parse`, the binary side
/// through `exa_wire::codec`.
pub fn codecs(targets: &[Location], mean: &[f64], reps: usize) -> CodecMicros {
    let request_text = json_request(targets);
    let response_text = json_response(mean);
    let request_frame = encode_predict_request(targets, false);
    let response_frame = encode_predict_response(mean, None, 1, mean.len() as u32, 0.000_123_456);
    let us = |seconds: f64| seconds * 1e6;
    CodecMicros {
        json_encode: us(median_seconds(
            reps,
            || (),
            |()| {
                black_box(json_request(black_box(targets)));
                black_box(json_response(black_box(mean)));
            },
        )),
        json_decode: us(median_seconds(
            reps,
            || (),
            |()| {
                black_box(Json::parse(black_box(&request_text)).expect("request parses"));
                black_box(Json::parse(black_box(&response_text)).expect("response parses"));
            },
        )),
        bin_encode: us(median_seconds(
            reps,
            || (),
            |()| {
                black_box(encode_predict_request(black_box(targets), false));
                black_box(encode_predict_response(
                    black_box(mean),
                    None,
                    1,
                    mean.len() as u32,
                    0.000_123_456,
                ));
            },
        )),
        bin_decode: us(median_seconds(
            reps,
            || (),
            |()| {
                let req = PredictRequestFrame::decode(black_box(&request_frame)).expect("frame");
                black_box(req.to_locations());
                let resp = PredictResponseFrame::decode(black_box(&response_frame)).expect("frame");
                black_box(resp.mean_vec());
            },
        )),
    }
}
