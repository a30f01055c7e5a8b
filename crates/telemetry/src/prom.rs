//! Prometheus text-format (version 0.0.4) rendering and validation.
//!
//! [`PromText`] builds an exposition document: `# HELP`/`# TYPE` preamble
//! per family, one counter/gauge sample per entry of a [`Stat`] table, and
//! cumulative histogram series rendered from [`HistogramSnapshot`]s onto a
//! fixed `le` ladder in
//! seconds (1 µs … 10 s, then `+Inf`). The fine log-linear buckets are
//! folded onto the ladder conservatively: a fine bucket counts toward the
//! first rung that contains its entire range, so every `le` count is a
//! true lower bound on "samples ≤ le" and the series is monotone by
//! construction (`+Inf` is exact).
//!
//! [`validate_exposition`] is the grammar check the e2e tests run against
//! live `/metrics` scrapes: HELP/TYPE discipline (one TYPE per family, so
//! names are unique), metric/label name syntax, label escaping, value syntax
//! and monotone cumulative buckets that agree with `_count`.

use crate::hist::HistogramSnapshot;
use crate::stat::Stat;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The fixed `le` ladder (nanoseconds, rendered-seconds label).
const LE_LADDER: &[(u64, &str)] = &[
    (1_000, "0.000001"),
    (2_500, "0.0000025"),
    (5_000, "0.000005"),
    (10_000, "0.00001"),
    (25_000, "0.000025"),
    (50_000, "0.00005"),
    (100_000, "0.0001"),
    (250_000, "0.00025"),
    (500_000, "0.0005"),
    (1_000_000, "0.001"),
    (2_500_000, "0.0025"),
    (5_000_000, "0.005"),
    (10_000_000, "0.01"),
    (25_000_000, "0.025"),
    (50_000_000, "0.05"),
    (100_000_000, "0.1"),
    (250_000_000, "0.25"),
    (500_000_000, "0.5"),
    (1_000_000_000, "1"),
    (2_500_000_000, "2.5"),
    (5_000_000_000, "5"),
    (10_000_000_000, "10"),
];

/// Escapes a label value per the exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn valid_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// An exposition document under construction. Families are rendered in
/// call order; each `stats`/`gauge_series`/`histogram*` call emits its
/// families' HELP/TYPE preambles and samples.
#[derive(Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    pub fn new() -> PromText {
        PromText::default()
    }

    fn preamble(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(valid_name(name), "bad metric name {name:?}");
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One single-sample family per stat of `table`, named
    /// `exa_<section>_<stat name>` and read from `snap` — the same table
    /// and snapshot the section's JSON object is written from.
    pub fn stats<S>(&mut self, section: &str, table: &[Stat<S>], snap: &S) {
        for stat in table {
            let name = format!("exa_{section}_{}", stat.name);
            self.preamble(&name, stat.help, stat.kind.as_str());
            let _ = writeln!(self.out, "{name} {}", (stat.read)(snap));
        }
    }

    /// A gauge family with one sample per `(label_value, value)` pair.
    pub fn gauge_series(&mut self, name: &str, help: &str, label: &str, series: &[(&str, f64)]) {
        debug_assert!(valid_name(label), "bad label name {label:?}");
        self.preamble(name, help, "gauge");
        for (label_value, value) in series {
            let _ = writeln!(
                self.out,
                "{name}{{{label}=\"{}\"}} {value}",
                escape_label(label_value)
            );
        }
    }

    /// An unlabeled histogram family from one snapshot.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) {
        self.preamble(name, help, "histogram");
        self.histogram_samples(name, "", snap);
    }

    /// A histogram family with one series per `(label_value, snapshot)`.
    pub fn histogram_series(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        series: &[(&str, &HistogramSnapshot)],
    ) {
        debug_assert!(valid_name(label), "bad label name {label:?}");
        self.preamble(name, help, "histogram");
        for (label_value, snap) in series {
            let base = format!("{label}=\"{}\"", escape_label(label_value));
            self.histogram_samples(name, &base, snap);
        }
    }

    /// `_bucket`/`_sum`/`_count` samples for one series. `base_labels` is
    /// either empty or `name="value"` pairs without braces.
    fn histogram_samples(&mut self, name: &str, base_labels: &str, snap: &HistogramSnapshot) {
        let mut per_rung = vec![0u64; LE_LADDER.len() + 1];
        for (i, &count) in snap.buckets().iter().enumerate() {
            if count == 0 {
                continue;
            }
            // Samples in fine bucket i are ≤ upper-1; fold the whole
            // bucket onto the first rung that covers that maximum.
            let max_in_bucket = HistogramSnapshot::bounds(i).1.saturating_sub(1);
            let rung = LE_LADDER.partition_point(|&(ns, _)| ns < max_in_bucket);
            per_rung[rung] += count;
        }
        let sep = if base_labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (rung, &(_, le)) in LE_LADDER.iter().enumerate() {
            cumulative += per_rung[rung];
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{base_labels}{sep}le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            self.out,
            "{name}_bucket{{{base_labels}{sep}le=\"+Inf\"}} {}",
            snap.count()
        );
        let braces = if base_labels.is_empty() {
            String::new()
        } else {
            format!("{{{base_labels}}}")
        };
        let _ = writeln!(self.out, "{name}_sum{braces} {}", snap.sum_seconds());
        let _ = writeln!(self.out, "{name}_count{braces} {}", snap.count());
    }

    /// The finished document.
    pub fn render(self) -> String {
        self.out
    }
}

/// Validates an exposition document against the text-format grammar.
///
/// Checks, per line: comment/HELP/TYPE syntax, metric and label name
/// syntax, quoted-and-escaped label values, parseable sample values. Per
/// family: TYPE declared before samples and at most once, sample names
/// matching the declared kind (`_bucket`/`_sum`/`_count` for histograms).
/// Per histogram series: `le` values strictly increasing, cumulative
/// counts monotone, a final `+Inf` bucket equal to `_count`.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, String> = HashMap::new();
    // (family, labels-minus-le) → (last le, last cumulative count, saw +Inf)
    let mut series: HashMap<(String, String), (f64, f64, bool)> = HashMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let err = |msg: String| Err(format!("line {n}: {msg} ({line:?})"));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("HELP"), Some(name), Some(_)) if valid_name(name) => {}
                (Some("TYPE"), Some(name), Some(kind)) if valid_name(name) => {
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return err(format!("unknown TYPE kind {kind:?}"));
                    }
                    if types.insert(name.to_string(), kind.to_string()).is_some() {
                        return err(format!("duplicate TYPE for {name}"));
                    }
                }
                _ => return err("malformed comment line".to_string()),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        let (name, labels, value) = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|f| types.get(*f).map(String::as_str) == Some("histogram"))
                    .map(|f| (f.to_string(), *suffix))
            })
            .unwrap_or_else(|| (name.clone(), ""));
        let Some(kind) = types.get(&family.0) else {
            return err(format!("sample for undeclared family {name}"));
        };
        match (kind.as_str(), family.1) {
            ("histogram", "") => return err(format!("bare histogram sample {name}")),
            ("histogram", "_bucket") => {
                let mut le = None;
                let mut rest: Vec<String> = Vec::new();
                for (label_name, label_value) in &labels {
                    if label_name == "le" {
                        le = Some(label_value.clone());
                    } else {
                        rest.push(format!("{label_name}={label_value}"));
                    }
                }
                let Some(le) = le else {
                    return err("histogram bucket without le".to_string());
                };
                let le_value = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("line {n}: bad le {le:?}"))?
                };
                let key = (family.0.clone(), rest.join(","));
                let entry = series.entry(key).or_insert((f64::NEG_INFINITY, 0.0, false));
                if le_value <= entry.0 {
                    return err(format!("le not increasing at {le}"));
                }
                if value < entry.1 {
                    return err(format!("cumulative bucket decreased at le={le}"));
                }
                *entry = (le_value, value, le_value.is_infinite());
            }
            ("histogram", "_count") => {
                let key = (
                    family.0.clone(),
                    labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(","),
                );
                counts.insert(key, value);
            }
            ("histogram", "_sum") => {}
            ("counter", _) => {
                if value < 0.0 {
                    return err("negative counter".to_string());
                }
            }
            ("gauge" | "summary" | "untyped", _) => {}
            (kind, _) => return err(format!("unhandled kind {kind}")),
        }
    }
    for ((family, labels), (last_le, last_count, saw_inf)) in &series {
        if !saw_inf {
            return Err(format!(
                "histogram {family}{{{labels}}} ends at le={last_le}, no +Inf bucket"
            ));
        }
        match counts.get(&(family.clone(), labels.clone())) {
            Some(count) if count == last_count => {}
            Some(count) => {
                return Err(format!(
                    "histogram {family}{{{labels}}}: +Inf bucket {last_count} != _count {count}"
                ))
            }
            None => return Err(format!("histogram {family}{{{labels}}} has no _count")),
        }
    }
    Ok(())
}

/// Parses one sample line into `(name, labels, value)`.
#[allow(clippy::type_complexity)]
fn parse_sample(line: &str) -> Result<(String, Vec<(String, String)>, f64), String> {
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (
                &line[..open],
                Some((&line[open + 1..close], &line[close + 1..])),
            )
        }
        None => {
            let space = line
                .find(' ')
                .ok_or_else(|| "sample without value".to_string())?;
            (&line[..space], None)
        }
    };
    if !valid_name(name_part) {
        return Err(format!("bad metric name {name_part:?}"));
    }
    let (labels_raw, value_raw) = match rest {
        Some((labels, tail)) => (Some(labels), tail.trim()),
        None => (
            None,
            line.split_once(' ').map(|(_, v)| v.trim()).unwrap_or(""),
        ),
    };
    let mut labels = Vec::new();
    if let Some(raw) = labels_raw {
        let mut chars = raw.chars().peekable();
        while chars.peek().is_some() {
            let mut label_name = String::new();
            for c in chars.by_ref() {
                if c == '=' {
                    break;
                }
                label_name.push(c);
            }
            if !valid_name(&label_name) {
                return Err(format!("bad label name {label_name:?}"));
            }
            if chars.next() != Some('"') {
                return Err("label value not quoted".to_string());
            }
            let mut label_value = String::new();
            loop {
                match chars.next() {
                    Some('\\') => match chars.next() {
                        Some('\\') => label_value.push('\\'),
                        Some('"') => label_value.push('"'),
                        Some('n') => label_value.push('\n'),
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    Some('"') => break,
                    Some(c) => label_value.push(c),
                    None => return Err("unterminated label value".to_string()),
                }
            }
            labels.push((label_name, label_value));
            match chars.next() {
                Some(',') | None => {}
                Some(c) => return Err(format!("expected ',' between labels, got {c:?}")),
            }
        }
    }
    let value = match value_raw {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {v:?}"))?,
    };
    Ok((name_part.to_string(), labels, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn golden_exposition_document() {
        // A deterministic mixed document: this is the reference rendering
        // the endpoint tests and CI grammar checks are anchored to.
        let hist = Histogram::new();
        hist.record_ns(900); // below the first rung
        hist.record_ns(30_000); // 25µs < v ≤ 50µs rung
        hist.record_ns(30_000);
        hist.record_ns(7_000_000_000); // 5s < v ≤ 10s rung
        crate::stats_struct! {
            /// What the demo section reports.
            pub struct DemoStats {
                /// Requests answered 200.
                Counter requests_ok: u64,
                /// Seconds since start.
                Gauge uptime_seconds: f64,
            }
        }
        let demo = DemoStats {
            requests_ok: 17,
            uptime_seconds: 1.5,
        };
        let mut prom = PromText::new();
        prom.stats("demo", DemoStats::STATS, &demo);
        prom.gauge_series(
            "exa_demo_node_up",
            "Node health (1 up, 0 suspect).",
            "node",
            &[("a\"b\\c\n", 1.0)],
        );
        prom.histogram(
            "exa_demo_latency_seconds",
            "Request latency.",
            &hist.snapshot(),
        );
        let text = prom.render();
        let expected = "\
# HELP exa_demo_requests_ok Requests answered 200.
# TYPE exa_demo_requests_ok counter
exa_demo_requests_ok 17
# HELP exa_demo_uptime_seconds Seconds since start.
# TYPE exa_demo_uptime_seconds gauge
exa_demo_uptime_seconds 1.5
# HELP exa_demo_node_up Node health (1 up, 0 suspect).
# TYPE exa_demo_node_up gauge
exa_demo_node_up{node=\"a\\\"b\\\\c\\n\"} 1
# HELP exa_demo_latency_seconds Request latency.
# TYPE exa_demo_latency_seconds histogram
";
        assert!(
            text.starts_with(expected),
            "document head diverged from golden:\n{text}"
        );
        // The 900ns sample folds into the first rung (≤ 1µs); the 30µs
        // samples land under 50µs (their fine bucket spans past 25µs);
        // the 7s sample under 10s.
        assert!(text.contains("exa_demo_latency_seconds_bucket{le=\"0.000001\"} 1\n"));
        assert!(text.contains("exa_demo_latency_seconds_bucket{le=\"0.000025\"} 1\n"));
        assert!(text.contains("exa_demo_latency_seconds_bucket{le=\"0.00005\"} 3\n"));
        assert!(text.contains("exa_demo_latency_seconds_bucket{le=\"5\"} 3\n"));
        assert!(text.contains("exa_demo_latency_seconds_bucket{le=\"10\"} 4\n"));
        assert!(text.contains("exa_demo_latency_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("exa_demo_latency_seconds_count 4\n"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn labeled_histogram_series_validate() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(10_000);
        b.record_ns(1_000_000);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut prom = PromText::new();
        prom.histogram_series(
            "exa_stage_seconds",
            "Per-stage spans.",
            "stage",
            &[("parse", &sa), ("solve", &sb)],
        );
        let text = prom.render();
        // 10µs sits at a rung boundary; its fine bucket [9984, 10240)
        // spans past the 10µs rung, so it folds conservatively onto 25µs.
        assert!(text.contains("exa_stage_seconds_bucket{stage=\"parse\",le=\"0.00001\"} 0"));
        assert!(text.contains("exa_stage_seconds_bucket{stage=\"parse\",le=\"0.000025\"} 1"));
        assert!(text.contains("exa_stage_seconds_count{stage=\"solve\"} 1"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validator_rejects_broken_documents() {
        for (doc, why) in [
            ("exa_x 1\n", "sample without TYPE"),
            ("# TYPE exa_x counter\nexa_x -1\n", "negative counter"),
            (
                "# TYPE exa_x histogram\nexa_x_bucket{le=\"1\"} 2\nexa_x_bucket{le=\"+Inf\"} 1\nexa_x_sum 0\nexa_x_count 1\n",
                "decreasing cumulative",
            ),
            (
                "# TYPE exa_x histogram\nexa_x_bucket{le=\"1\"} 1\nexa_x_sum 0\nexa_x_count 1\n",
                "missing +Inf",
            ),
            (
                "# TYPE exa_x histogram\nexa_x_bucket{le=\"+Inf\"} 2\nexa_x_sum 0\nexa_x_count 1\n",
                "+Inf != count",
            ),
            ("# TYPE exa_x counter\n# TYPE exa_x counter\nexa_x 1\n", "duplicate TYPE"),
            ("# TYPE exa_x counter\nexa_x{bad name=\"v\"} 1\n", "bad label name"),
            ("# TYPE exa_x counter\nexa_x oops\n", "bad value"),
        ] {
            assert!(validate_exposition(doc).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn escape_roundtrips_through_the_validator() {
        let mut prom = PromText::new();
        prom.gauge_series("exa_x", "h", "k", &[("plain", 1.0), ("q\"uo\\te\nnl", 2.0)]);
        validate_exposition(&prom.render()).unwrap();
    }
}
