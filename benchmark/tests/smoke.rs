//! Every workload, both modes, at the `--smoke` size (n = 256): the run is
//! correct, and names exactly the metrics `BENCHMARK.json` promises.

use exa_perf::{run_end_to_end, run_traced, spec, Ctx};
use exa_wire::json::Json;
use std::process::Command;

fn smoke_ctx() -> Ctx {
    Ctx {
        seed: 7,
        seconds: 0.3,
        workers: 2,
        smoke: true,
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in spec::WORKLOADS {
        let out = run_end_to_end(w.name, &smoke_ctx());
        assert!(out.correct(), "{}: {:?}", w.name, out.problems);
        assert!(out.attempted >= 1);
        assert_eq!(out.metrics.len(), spec::END_TO_END.len(), "{}", w.name);
        for m in spec::END_TO_END {
            let v = out.get(m.name);
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, m.name);
        }
    }
}

#[test]
fn every_workload_traces_and_reports_every_per_layer_metric() {
    for w in spec::WORKLOADS {
        let out = run_traced(w.name, &smoke_ctx());
        assert!(out.correct(), "{}: {:?}", w.name, out.problems);
        assert_eq!(out.metrics.len(), spec::PER_LAYER.len(), "{}", w.name);
        assert!(out.get("trace.spans") > 0.0, "{}", w.name);
        assert!(out.get("trace.coverage") > 0.0, "{}", w.name);
    }
}

#[test]
fn counts_repeat_exactly_across_worker_counts() {
    let counts = |workers| {
        let ctx = Ctx {
            workers,
            ..smoke_ctx()
        };
        let exact = run_traced(spec::MLE_EXACT, &ctx);
        let tlr = run_traced(spec::MLE_TLR, &ctx);
        [
            exact.get("runtime.tasks"),
            exact.get("geostat.fit_evals"),
            exact.get("geostat.loglik_rel_err"),
            tlr.get("runtime.tasks"),
            tlr.get("tlr.rank_mean"),
            tlr.get("tlr.rank_max"),
            tlr.get("tlr.bytes"),
            tlr.get("geostat.loglik_rel_err"),
        ]
    };
    assert_eq!(counts(1), counts(2));
}

fn exa_perf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exa-perf"))
        .args(args)
        .output()
        .expect("exa-perf runs")
}

#[test]
fn the_last_line_is_the_result_object_the_driver_reads() {
    for (trace, expected) in [
        (
            "0",
            spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
        ),
        (
            "1",
            spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
        ),
    ] {
        let out = exa_perf(&[
            "--workload",
            "krige_batch",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let doc = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let Json::Obj(fields) = &doc else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics is not an object")
        };
        let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut want = expected;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "trace {trace}");
        for (name, m) in metrics {
            assert_eq!(m.get("unit").and_then(Json::as_str), spec::unit_of(name));
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        }
    }
}

#[test]
fn an_unoptimized_build_refuses_to_measure() {
    if !cfg!(debug_assertions) {
        return;
    }
    let out = exa_perf(&[
        "--workload",
        "krige_batch",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
}

#[test]
fn list_names_every_metric() {
    let out = exa_perf(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let names = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(spec::END_TO_END.iter().map(|m| m.name))
        .chain(spec::PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(text.contains(name), "{name}");
    }
}
