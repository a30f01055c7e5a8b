//! `BENCHMARK.json` and the binary name the same things.

use exa_perf::spec;
use exa_wire::json::Json;
use std::collections::BTreeSet;

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_what_the_binary_renders() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(file.len() <= 64 * 1024);
    let committed = Json::parse(&file).expect("BENCHMARK.json parses");
    let rendered = Json::parse(&spec::benchmark_json()).expect("rendered spec parses");
    assert_eq!(
        committed, rendered,
        "BENCHMARK.json drifted from `exa-perf list --benchmark-json`"
    );
}

#[test]
fn names_are_unique_well_formed_and_within_the_contract() {
    let mut seen = BTreeSet::new();
    let names = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(spec::END_TO_END.iter().map(|m| m.name))
        .chain(spec::PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(well_formed(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    assert!((1..=60).contains(&spec::RUN_SECONDS));
    for w in spec::WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in spec::END_TO_END {
        assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        assert!(m.unit.len() <= 16, "{}", m.name);
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == spec::SETUP_S)
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(spec::END_TO_END.iter().all(|m| m.bound <= setup.bound));
}
