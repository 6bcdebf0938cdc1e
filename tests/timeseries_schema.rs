//! Golden-schema gate for the windowed time-series export (DESIGN.md §2.9).
//!
//! `timeseries_json()` is a public payload (`timeseries.json` in every
//! `--telemetry <dir>` of the bench binaries and `tahoe-cli
//! infer|bench|serve`, plus the Perfetto counter tracks embedded in the
//! Chrome trace): series must carry the pinned keys,
//! window boundaries must sit exactly on multiples of `window_ns` and
//! increase strictly within a series, windowed latency percentiles must stay
//! consistent with `ServingReport::latency_percentile_ns`, and the export
//! must survive a serde round-trip unchanged. Deadline tagging is
//! observability only: replaying the same trace with and without a deadline
//! must produce bit-identical latencies and batches.

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
fn windowed_percentiles_are_consistent_with_the_serving_report() {
    let deadline = 500_000.0;
    let (sink, report) = served_run(Some(deadline));
    let export = sink.timeseries();
    let n = report.n_requests() as u64;

    // Every request lands in exactly one latency window and one SLO window.
    let latency_total: u64 = export.latency_windows.iter().map(|w| w.count).sum();
    assert_eq!(latency_total, n, "latency windows cover every request");
    let slo_total: u64 = export.slo_windows.iter().map(|w| w.total).sum();
    assert_eq!(slo_total, n, "SLO windows cover every request");

    // Windowed attainment aggregates back to the report's overall number.
    let met: u64 = export.slo_windows.iter().map(|w| w.met).sum();
    let overall = report.slo_attainment().expect("deadline was set");
    assert!(
        (met as f64 / n as f64 - overall).abs() < 1e-12,
        "windowed SLO fractions must aggregate to ServingReport::slo_attainment"
    );

    // Percentiles are ordered within every window, and each window's
    // histogram covers exactly the requests that finished inside it — so the
    // quantile edges must bound the true per-window percentiles recomputed
    // from the report's own batch records (requests in a batch share its
    // finish instant `dispatched_at + gpu_ns`, the same float the sampler
    // bucketed).
    let window_ns = export.window_ns;
    let mut window_of_request: Vec<u64> = Vec::with_capacity(report.n_requests());
    for b in &report.batches {
        let finished = b.dispatched_at_ns + b.gpu_ns;
        let window = (finished as u64) / window_ns;
        window_of_request.extend(std::iter::repeat_n(window, b.size));
    }
    assert_eq!(window_of_request.len(), report.n_requests());
    for w in &export.latency_windows {
        assert!(w.window == w.start_ns / window_ns);
        assert!(w.p50_ns <= w.p95_ns && w.p95_ns <= w.p99_ns, "ordered percentiles");
        let in_window: Vec<f64> = report
            .latencies_ns
            .iter()
            .zip(&window_of_request)
            .filter(|(_, &win)| win == w.window)
            .map(|(&lat, _)| lat)
            .collect();
        assert_eq!(in_window.len() as u64, w.count, "window {} census", w.window);
        let max = in_window.iter().copied().fold(0.0f64, f64::max);
        assert_eq!(w.max_ns, max.round() as u64, "window max matches (rounded)");
        for (q, edge) in [(0.50, w.p50_ns), (0.95, w.p95_ns), (0.99, w.p99_ns)] {
            let mut sorted = in_window.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            let exact = sorted[rank];
            // log2 buckets: rounding is monotone, so the window's rank
            // statistic is `round(exact)` and the reported edge is its
            // bucket's upper power-of-two — above `exact`, at most 2x the
            // rounded rank statistic.
            assert!(
                edge as f64 >= exact,
                "window {} p{}: edge {} below exact {}",
                w.window,
                q * 100.0,
                edge,
                exact
            );
            assert!(
                (edge as f64) <= 2.0 * exact.round().max(1.0),
                "window {} p{}: edge {} more than 2x exact {}",
                w.window,
                q * 100.0,
                edge,
                exact
            );
        }
    }

    // Whole-trace sanity: every request at or under the report p50 is also
    // under the largest windowed p50 edge, tying the two percentile views.
    let p50 = report.latency_percentile_ns(0.50);
    let max_edge = export.latency_windows.iter().map(|w| w.p50_ns).max().unwrap_or(0);
    assert!(max_edge as f64 >= p50 / 2.0, "windowed p50 edges track the report");
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
    assert!(export.latency_windows.is_empty());
    assert!(export.slo_windows.is_empty());

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
