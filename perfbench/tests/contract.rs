//! The benchmark's own checks, run at a tiny size: metric names and
//! units are well formed and match `BENCHMARK.json`, every run emits
//! every metric with its unit, a new seed changes the inputs but not
//! the set of metrics, and deterministic counts repeat exactly.

use delorean_trace::{parse_json, Json};
use perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use perfbench::workloads::{Workload, WORKLOADS};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn run(w: Workload, seed: u64, trace: bool, test: &str) -> Outcome {
    perfbench::run(w.tiny(), seed, 0.0, trace, &out_dir(test)).expect("benchmark runs")
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object where {key} was expected"),
    }
}

fn items(v: &Json) -> &[Json] {
    match v {
        Json::Arr(xs) => xs,
        _ => panic!("not an array"),
    }
}

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = BTreeSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(well_formed(name, 64, "_.-"), "bad metric name {name}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(seen.insert(name), "metric {name} listed twice");
        assert!(well_formed(unit, 16, "_/%.-"), "bad unit {unit} of {name}");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        items(field(&doc, key))
            .iter()
            .map(|m| {
                let s = |k| field(m, k).as_str().expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
    let names: Vec<&str> = items(field(&doc, "workloads"))
        .iter()
        .map(|w| field(w, "name").as_str().expect("string"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
    for m in items(field(&doc, "end_to_end")) {
        match field(m, "bound") {
            Json::Num(b) => assert!(*b > 0.0 && *b <= 0.25),
            _ => panic!("bound is not a number"),
        }
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = run(w, 7, trace, "every_metric");
            assert_eq!(out.failed, 0, "{} failed an operation", w.name);
            let emitted: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
            assert_eq!(emitted, table);
            let line = parse_json(&out.to_json_line()).expect("result line is JSON");
            let keys: Vec<&String> = match &line {
                Json::Obj(m) => m.keys().collect(),
                _ => panic!("result line is not an object"),
            };
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(field(&line, "correct"), &Json::Bool(true));
            for &(name, unit) in table {
                let m = field(field(&line, "metrics"), name);
                assert_eq!(field(m, "unit").as_str(), Some(unit));
                assert!(
                    matches!(field(m, "value"), Json::Num(_)),
                    "{name} has no value"
                );
            }
        }
    }
}

#[test]
fn a_new_seed_changes_the_inputs_but_not_the_metrics() {
    let w = WORKLOADS[0].tiny();
    let digest = |seed| w.machine(1).record(w.spec(), seed).digest().fingerprint();
    assert_ne!(
        digest(1),
        digest(2),
        "the seed must reach the generated programs"
    );
    let names = |seed| -> Vec<&'static str> {
        run(WORKLOADS[0], seed, false, "new_seed")
            .metrics
            .iter()
            .map(|m| m.0)
            .collect()
    };
    assert_eq!(names(1), names(2));
}

#[test]
fn deterministic_counts_repeat_exactly_between_runs() {
    // Every metric that is not a host time or a host-memory figure is
    // a deterministic count, size or ratio of one.
    let volatile = |name: &str, unit: &str| {
        unit == "s"
            || unit == "MB"
            || name == "chunk.host_ns_per_inst"
            || name == "trace.overhead_frac"
    };
    let w = WORKLOADS[1];
    for trace in [false, true] {
        let a = run(w, 11, trace, "repeat_a");
        let b = run(w, 11, trace, "repeat_b");
        for (x, y) in a.metrics.iter().zip(&b.metrics) {
            if !volatile(x.0, x.1) {
                assert_eq!(x, y, "{} differs between two runs of one seed", x.0);
            }
        }
    }
}
