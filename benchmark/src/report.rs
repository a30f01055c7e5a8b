//! Printing results, and the three commands built on whole result sets:
//! `run-all` (every workload, both modes, one file), `aa` (the set twice on
//! one build, held to the benchmark's own bounds) and `compare` (the
//! before/after table a later change pastes).

use crate::{host, run_end_to_end, run_traced, spec, Ctx, Outcome};
use exa_wire::json::{Json, JsonWriter};

/// Six decimals, or scientific notation where those would show nothing.
fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// The human-readable table of one outcome.
pub fn table(workload: &str, traced: bool, ctx: &Ctx, out: &Outcome) -> String {
    let mut text = format!(
        "workload {workload}  mode {}  seed {}  seconds {}\n{}\n",
        if traced { "trace" } else { "end-to-end" },
        ctx.seed,
        ctx.seconds,
        host::record(ctx.workers, ctx.smoke)
    );
    for (name, v) in &out.metrics {
        let unit = spec::unit_of(name).unwrap_or("");
        text.push_str(&format!(
            "  {name:<38} {:>16} {unit:<6} {}\n",
            fmt_value(v.value),
            v.note
        ));
    }
    text.push_str(&format!(
        "  attempted {}  failed {}  correct {}\n",
        out.attempted,
        out.failed,
        out.correct()
    ));
    for p in &out.problems {
        text.push_str(&format!("  CHECK FAILED: {p}\n"));
    }
    text
}

fn write_outcome(w: &mut JsonWriter, out: &Outcome) {
    w.key("correct");
    w.boolean(out.correct());
    w.field_uint("attempted", out.attempted.max(1));
    w.field_uint("failed", out.failed);
    w.key("metrics");
    w.begin_object();
    for (name, v) in &out.metrics {
        w.key(name);
        w.begin_object();
        w.field_num("value", v.value);
        w.field_str("unit", spec::unit_of(name).unwrap_or(""));
        w.end_object();
    }
    w.end_object();
}

/// The one-line JSON object the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    write_outcome(&mut w, out);
    w.end_object();
    w.finish()
}

/// Runs every workload in both modes; returns the result set as JSON and
/// whether every run was correct. Progress goes to stderr.
pub fn run_all(ctx: &Ctx) -> (String, bool) {
    let mut w = JsonWriter::new();
    let mut correct = true;
    w.begin_object();
    w.field_str("host", &host::record(ctx.workers, ctx.smoke));
    w.field_uint("seed", ctx.seed);
    w.field_num("seconds", ctx.seconds);
    w.key("results");
    w.begin_array();
    for wl in spec::WORKLOADS {
        for traced in [false, true] {
            let out = if traced {
                run_traced(wl.name, ctx)
            } else {
                run_end_to_end(wl.name, ctx)
            };
            eprint!("{}", table(wl.name, traced, ctx, &out));
            correct &= out.correct();
            w.begin_object();
            w.field_str("workload", wl.name);
            w.field_uint("trace", u64::from(traced));
            write_outcome(&mut w, &out);
            w.end_object();
        }
    }
    w.end_array();
    w.end_object();
    (w.finish(), correct)
}

/// `(workload, trace, metric) → value` of a result set.
fn flatten(doc: &Json) -> Result<Vec<(String, u64, String, f64)>, String> {
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or("result set has no \"results\" array")?;
    let mut rows = Vec::new();
    for r in results {
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("result without a workload")?;
        let trace = r.get("trace").and_then(Json::as_u64).unwrap_or(0);
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            return Err(format!("{workload}: no metrics object"));
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            rows.push((workload.to_string(), trace, name.clone(), value));
        }
    }
    Ok(rows)
}

/// How much worse `new` is than `old`, as a share of `old` (negative when
/// better), for a metric whose better direction is `better`.
fn worsening(old: f64, new: f64, better: &str) -> f64 {
    let change = (new - old) / old.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Per-workload, per-metric deltas of two result sets with base values;
/// returns the table and how many end-to-end metrics worsened beyond
/// their bound.
pub fn compare(old: &str, new: &str) -> Result<(String, usize), String> {
    let parse = |text: &str| Json::parse(text).map_err(|e| e.to_string());
    let (old, new) = (flatten(&parse(old)?)?, flatten(&parse(new)?)?);
    let mut text = format!(
        "{:<12} {:<38} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "old", "new", "change"
    );
    let mut beyond = 0;
    for (workload, trace, name, base) in &old {
        let Some((_, _, _, value)) = new
            .iter()
            .find(|(w, t, n, _)| w == workload && t == trace && n == name)
        else {
            text.push_str(&format!(
                "{workload:<12} {name:<38} missing from the new set\n"
            ));
            continue;
        };
        let change = if *base == 0.0 && *value == 0.0 {
            0.0
        } else {
            (value - base) / base.abs()
        };
        let verdict = match spec::END_TO_END.iter().find(|m| m.name == name) {
            Some(m) if worsening(*base, *value, m.better) > m.bound => {
                beyond += 1;
                format!("WORSE beyond bound {}", m.bound)
            }
            Some(m) => format!("within bound {}", m.bound),
            None => String::new(),
        };
        text.push_str(&format!(
            "{workload:<12} {name:<38} {:>14} {:>14} {:>+8.2}%  {verdict}\n",
            fmt_value(*base),
            fmt_value(*value),
            change * 100.0
        ));
    }
    Ok((text, beyond))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(iter_s: f64, rps: f64) -> String {
        format!(
            "{{\"results\":[{{\"workload\":\"mle_exact\",\"trace\":0,\"metrics\":{{\
             \"mle_iter_s\":{{\"value\":{iter_s},\"unit\":\"s\"}},\
             \"serve_rps\":{{\"value\":{rps},\"unit\":\"req/s\"}}}}}}]}}"
        )
    }

    #[test]
    fn compare_flags_only_worsening_beyond_the_bound() {
        let (_, beyond) = compare(&set(1.0, 100.0), &set(1.01, 99.0)).unwrap();
        assert_eq!(beyond, 0);
        // Slower iterations are worse; a higher request rate is not.
        let (text, beyond) = compare(&set(1.0, 100.0), &set(1.5, 150.0)).unwrap();
        assert_eq!(beyond, 1, "{text}");
        // Faster iterations are not worse; a lower request rate is.
        let (_, beyond) = compare(&set(1.0, 100.0), &set(0.5, 50.0)).unwrap();
        assert_eq!(beyond, 1);
    }
}
