//! Smoke test of the benchmark at tiny scale: every workload runs in
//! both modes, emits exactly the metric names BENCHMARK.json declares,
//! passes its correctness gate, and the gate trips on a corrupted
//! collector view.

use std::collections::BTreeSet;
use std::process::Command;

use support::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str) -> BTreeSet<String> {
    match spec.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|i| {
                i.get("name")
                    .and_then(Json::as_str)
                    .expect("named entry")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json lacks {key}"),
    }
}

/// Run the benchmark; returns (exit success, last stdout line parsed).
/// Tests use distinct seeds: a traced run writes its spans to a file
/// named after the workload and seed. An untraced run gets 2.5 s, which
/// gives the collector's 20 ms syncs a full block for every sync
/// percentile it prints, the unbounded p90 included.
fn run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> (bool, Json) {
    let seconds = if trace == "0" { "2.5" } else { "0.5" };
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            seconds,
            "--trace",
            trace,
        ])
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("perfbench printed a result");
    (
        out.status.success(),
        parse(last).expect("last line is JSON"),
    )
}

fn metric_names(result: &Json) -> BTreeSet<String> {
    match result.get("metrics") {
        Some(Json::Obj(m)) => {
            for (name, v) in m {
                let value = v.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name} has no finite value: {v}"
                );
            }
            m.keys().cloned().collect()
        }
        _ => panic!("result lacks metrics: {result}"),
    }
}

#[test]
fn every_workload_emits_the_declared_metrics_and_passes_its_gate() {
    let spec = benchmark_json();
    let workloads = names(&spec, "workloads");
    assert_eq!(
        workloads,
        ["caida_bulk", "collector"]
            .map(String::from)
            .into_iter()
            .collect(),
    );
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, result) = run(workload, "7", trace, &[]);
            assert!(ok, "{workload} --trace {trace} failed: {result}");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result
                .get("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|a| a > 0));
            assert_eq!(
                metric_names(&result),
                names(&spec, key),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn gate_trips_on_a_corrupted_view() {
    for trace in ["0", "1"] {
        let (ok, result) = run("caida_bulk", "8", trace, &["--corrupt-view"]);
        assert!(!ok, "a corrupted view must fail the run (--trace {trace})");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result
            .get("failed")
            .and_then(Json::as_u64)
            .is_some_and(|f| f > 0));
    }
}
