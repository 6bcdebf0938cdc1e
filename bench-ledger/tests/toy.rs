//! The benchmark's own command on every workload at toy size (smoke-scale
//! forests, a few hundred requests), untraced and traced: every named metric
//! present, finite and with a unit; no failed check; the traced layers cover
//! the wall time.

use std::process::Command;

use bench_ledger::metrics::{lookup, Def, END_TO_END, PER_LAYER};
use bench_ledger::WORKLOADS;
use serde_json::Value;

/// Runs the binary; returns its exit code and the parsed last stdout line.
fn toy(workload: &str, trace: &str) -> (Option<i32>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-ledger"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", trace, "--toy"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let json = serde_json::from_str(last).unwrap_or(Value::Null);
    (out.status.code(), json)
}

fn assert_complete(workload: &str, defs: &[Def], code: Option<i32>, json: &Value) {
    assert_eq!(code, Some(0), "{workload}: {json:?}");
    assert_eq!(json["correct"].as_bool(), Some(true), "{workload}");
    assert_eq!(json["failed"].as_u64(), Some(0), "{workload}");
    assert!(
        json["attempted"].as_u64().is_some_and(|n| n > 0),
        "{workload}"
    );
    let Value::Object(metrics) = &json["metrics"] else {
        panic!("{workload}: no metrics object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "{workload}");
    for (d, (_, m)) in defs.iter().zip(metrics) {
        let v = m["value"].as_f64();
        assert!(
            v.is_some_and(f64::is_finite),
            "{workload}: {} = {v:?}",
            d.name
        );
        assert_eq!(m["unit"].as_str(), Some(d.unit), "{workload}: {}", d.name);
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let (code, json) = toy(w, "0");
        assert_complete(w, END_TO_END, code, &json);
        assert!(json["metrics"]["setup_s"]["value"].as_f64() > Some(0.0));
    }
}

#[test]
fn every_workload_traces_every_layer_and_covers_its_wall_time() {
    for w in WORKLOADS {
        let (code, json) = toy(w, "1");
        assert_complete(w, PER_LAYER, code, &json);
        let coverage = json["metrics"]["trace.coverage"]["value"].as_f64().unwrap();
        assert!(
            (0.9..=1.0 + 1e-9).contains(&coverage),
            "{w}: coverage {coverage}"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "no-such-workload"][..], &["--trace", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench-ledger"))
            .args(args)
            .output()
            .expect("the benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_registered_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json: Value = serde_json::from_str(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        json[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    };
    let registered = |defs: &[Def]| {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(names("end_to_end"), registered(END_TO_END));
    assert_eq!(names("per_layer"), registered(PER_LAYER));
    let workloads: Vec<&str> = json["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (name, _) in names("end_to_end").iter().chain(&names("per_layer")) {
        assert!(lookup(name).is_some());
    }
}
