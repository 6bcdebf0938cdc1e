//! Golden-schema gate for the windowed time-series export (DESIGN.md §2.9).
//!
//! `timeseries_json()` is a public payload (`timeseries.json` in every
//! `--telemetry <dir>` of the bench binaries and `tahoe-cli
//! infer|bench|serve`, plus the Perfetto counter tracks embedded in the
//! Chrome trace): the document and its series must carry the pinned keys,
//! window boundaries must sit exactly on multiples of `window_ns` and
//! increase strictly within a series, and the export must survive a serde
//! round-trip unchanged. Deadline tagging is observability only: replaying
//! the same trace with and without a deadline must produce bit-identical
//! latencies and batches.

use serde_json::Value;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::serving::{BatchingPolicy, ServingReport, ServingSim};
use tahoe::strategy::testutil::Fixture;
use tahoe::telemetry::{timeseries, TelemetrySink};
use tahoe::TimeSeriesExport;
use tahoe_gpu_sim::device::DeviceSpec;

/// Runs one engine batch against a recording sink and returns it.
fn recorded_run() -> TelemetrySink {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let _ = engine.infer(&fx.samples);
    sink
}

/// Replays a uniform serving trace against a recording sink; returns the
/// sink and the report.
fn served_run(deadline_ns: Option<f64>) -> (TelemetrySink, ServingReport) {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let report = ServingSim::new(&mut engine, BatchingPolicy::new(32, 10_000.0))
        .run_uniform_trace_with_deadline(&fx.samples, 200, 50.0, deadline_ns);
    (sink, report)
}

#[test]
fn timeseries_export_matches_the_golden_schema() {
    let sink = recorded_run();
    let text = sink.timeseries_json();
    let doc: Value = serde_json::from_str(&text).expect("timeseries is valid JSON");
    let Value::Object(entries) = &doc else {
        panic!("timeseries is a JSON object: {text}");
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["window_ns", "series"], "top-level keys");

    let window_ns = doc["window_ns"].as_u64().expect("window_ns present");
    assert_eq!(window_ns, timeseries::WINDOW_NS, "1 ms windows");

    let series = doc["series"].as_array().expect("series array");
    assert!(!series.is_empty(), "an engine run must sample series");
    let mut keys: Vec<(u64, String, String)> = Vec::new();
    for s in series {
        let device = s["device"].as_u64().expect("device present");
        let name = s["name"].as_str().expect("name present").to_string();
        let kind = s["kind"].as_str().expect("kind present").to_string();
        assert!(
            kind == "sum" || kind == "gauge",
            "kind is sum|gauge, got '{kind}'"
        );
        let points = s["points"].as_array().expect("points array");
        assert!(!points.is_empty(), "series '{name}' has no points");
        let mut last_window: Option<u64> = None;
        for p in points {
            let window = p["window"].as_u64().expect("window present");
            let start_ns = p["start_ns"].as_u64().expect("start_ns present");
            assert!(p["value"].as_f64().is_some(), "value present: {p:?}");
            assert_eq!(
                start_ns,
                window * window_ns,
                "'{name}': window boundaries sit on multiples of window_ns"
            );
            if let Some(prev) = last_window {
                assert!(
                    window > prev,
                    "'{name}': windows must be strictly increasing ({prev} -> {window})"
                );
            }
            last_window = Some(window);
        }
        keys.push((device, name, kind));
    }
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "series are exported in (device, name, kind) order");

    // A kernel launch must populate the core series.
    let export = sink.timeseries();
    assert!(export.series(0, timeseries::BUSY_NS, "sum").is_some());
    assert!(export.series(0, timeseries::GMEM_FETCHED_BYTES, "sum").is_some());
    assert!(export.series(0, timeseries::ROOFLINE_UTILIZATION, "gauge").is_some());
    assert!(export.series(0, timeseries::MEM_IN_USE_BYTES, "gauge").is_some());
    for s in &export.series {
        for p in &s.points {
            assert!(p.value.is_finite(), "{}: non-finite sample", s.name);
        }
    }
}

#[test]
fn export_round_trips_through_serde() {
    let sink = recorded_run();
    let export = sink.timeseries();
    let back = TimeSeriesExport::from_json(&sink.timeseries_json()).expect("export parses");
    assert_eq!(back, export, "round-trip must be lossless");
}

#[test]
fn deadline_tagging_does_not_perturb_the_replay() {
    let (_, without) = served_run(None);
    let (_, with) = served_run(Some(250_000.0));
    assert_eq!(without.deadline_ns, None);
    assert_eq!(without.slo_attainment(), None, "no deadline, no attainment");
    assert_eq!(with.deadline_ns, Some(250_000.0));
    assert!(with.slo_attainment().is_some());
    assert_eq!(
        without.latencies_ns.len(),
        with.latencies_ns.len(),
        "same request census"
    );
    for (i, (a, b)) in without.latencies_ns.iter().zip(&with.latencies_ns).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "request {i}: latency moved");
    }
    assert_eq!(without.batches.len(), with.batches.len(), "same batch plan");
    assert_eq!(
        without.makespan_ns.to_bits(),
        with.makespan_ns.to_bits(),
        "same makespan"
    );
}

#[test]
fn serving_populates_queue_and_batch_series() {
    let (sink, report) = served_run(Some(500_000.0));
    let export = sink.timeseries();
    let dispatched = export
        .series(0, timeseries::DISPATCHED_BATCHES, "sum")
        .expect("dispatched_batches series");
    let total: f64 = dispatched.points.iter().map(|p| p.value).sum();
    assert!(
        (total - report.batches.len() as f64).abs() < 1e-9,
        "dispatched_batches sums to the batch count"
    );
    assert!(export.series(0, timeseries::QUEUE_DEPTH, "gauge").is_some());
    assert!(export.series(0, timeseries::QUEUE_WAIT_NS, "sum").is_some());
    assert!(export.series(0, timeseries::INFLIGHT_BATCHES, "gauge").is_some());
}

#[test]
fn disabled_sink_stays_a_strict_no_op() {
    let sink = TelemetrySink::Disabled;
    sink.ts_gauge(0, timeseries::QUEUE_DEPTH, 0.0, 3.0);
    let export = sink.timeseries();
    assert!(export.series.is_empty());

    // Serving against a disabled sink records nothing either (the helpers
    // bail before any bookkeeping).
    let fx = Fixture::trained("letter");
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        TelemetrySink::Disabled,
    );
    let report = ServingSim::new(&mut engine, BatchingPolicy::new(32, 10_000.0))
        .run_uniform_trace_with_deadline(&fx.samples, 50, 50.0, Some(250_000.0));
    assert_eq!(report.n_requests(), 50);
    assert!(report.slo_attainment().is_some(), "report-level SLO needs no sink");
}
