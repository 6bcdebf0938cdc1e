//! Golden-schema gate for the flight-recorder export (DESIGN.md §2.9).
//!
//! `decisions_json()` is a public payload (`decisions.json` in every
//! `--telemetry <dir>` of the bench binaries and `tahoe-cli
//! infer|bench|serve`, read by `tahoe-cli explain|profile`): every decision
//! record must carry
//! the pinned keys and the complete ladder `tune::sweep` costed; every
//! request-path record's components must sum bitwise to the request's
//! end-to-end latency; the export must survive a serde round-trip unchanged;
//! the streamed export must equal, byte for byte, the whole-document one it
//! replaced; and a `Disabled` sink must store nothing.

use serde_json::Value;
use tahoe::cluster::GpuCluster;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::serving::{BatchingPolicy, ClusterServingSim, ServingReport, ServingSim};
use tahoe::strategy::common::THREADS_PER_BLOCK;
use tahoe::strategy::testutil::Fixture;
use tahoe::strategy::Strategy;
use tahoe::telemetry::decision::DecisionCandidate;
use tahoe::telemetry::TelemetrySink;
use tahoe::tune::THREAD_CANDIDATES;
use tahoe::{DecisionRecord, DecisionsExport};
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
fn served_run() -> (TelemetrySink, ServingReport) {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let report = ServingSim::new(&mut engine, BatchingPolicy::new(32, 10_000.0))
        .run_uniform_trace(&fx.samples, 200, 50.0);
    (sink, report)
}

/// Recorded runs whose launched plan is *not* the tuned winner, with the
/// `forced` flag each decision must carry: a `model_selection: false` engine
/// (fixed shared data at [`THREADS_PER_BLOCK`]), and a tuned engine whose
/// second batch is forced onto a strategy the model did not pick.
fn off_tuned_path_runs() -> Vec<(TelemetrySink, Vec<bool>)> {
    let fx = Fixture::trained("letter");
    let untuned = TelemetrySink::recording();
    let options = EngineOptions {
        model_selection: false,
        ..EngineOptions::tahoe()
    };
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        options,
        untuned.clone(),
    );
    let r = engine.infer(&fx.samples);
    assert_eq!(r.strategy, Strategy::SharedData);
    let d = &untuned.decisions().decisions[0];
    assert_eq!(d.chosen_block_threads, THREADS_PER_BLOCK as u64);

    let forced = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        forced.clone(),
    );
    let winner = engine.infer(&fx.samples).strategy;
    // Direct and shared data are always feasible, so one of them loses.
    let loser = if winner == Strategy::Direct {
        Strategy::SharedData
    } else {
        Strategy::Direct
    };
    assert_eq!(engine.infer_with(&fx.samples, Some(loser)).strategy, loser);
    vec![(untuned, vec![false]), (forced, vec![false, true])]
}

#[test]
fn decisions_export_matches_the_golden_schema() {
    let runs = std::iter::once((recorded_run(), vec![false])).chain(off_tuned_path_runs());
    for (sink, forced) in runs {
        check_golden_schema(&sink, &forced);
    }
}

/// The golden-schema checks on one recorded sink whose decisions carry the
/// given `forced` flags, in order.
fn check_golden_schema(sink: &TelemetrySink, forced: &[bool]) {
    let text = sink.decisions_json();
    let doc: Value = serde_json::from_str(&text).expect("decisions are valid JSON");

    let decisions = doc["decisions"].as_array().expect("decisions array");
    assert_eq!(decisions.len(), forced.len(), "one decision per batch");
    for (d, &forced) in decisions.iter().zip(forced) {
        assert_eq!(d["forced"].as_bool(), Some(forced), "forced flag: {d:?}");
        for key in [
            "device",
            "batch",
            "n_samples",
            "forced",
            "chosen_strategy",
            "chosen_block_threads",
            "predicted_ns",
            "simulated_ns",
            "relative_error",
            "calibration_generation",
        ] {
            assert!(!d[key].is_null(), "decision carries '{key}': {d:?}");
        }
        let candidates = d["candidates"].as_array().expect("candidates array");
        assert_eq!(
            candidates.len(),
            Strategy::ALL.len() * THREAD_CANDIDATES.len(),
            "the full tuning ladder is audited"
        );
        for c in candidates {
            for key in ["strategy", "block_threads"] {
                assert!(!c[key].is_null(), "candidate carries '{key}': {c:?}");
            }
            // A rejection is not a zero-cost prediction: `predicted_ns` is
            // null exactly when the candidate was rejected before costing.
            assert_eq!(
                c["predicted_ns"].is_null(),
                !c["rejection"].is_null(),
                "predicted_ns is null iff the candidate was rejected: {c:?}"
            );
        }
        // The chosen plan must appear in the ladder as a feasible candidate
        // whose predicted cost is exactly what the record reports.
        let chosen = candidates
            .iter()
            .find(|c| {
                c["strategy"] == d["chosen_strategy"]
                    && c["block_threads"] == d["chosen_block_threads"]
            })
            .expect("chosen plan is one of the audited candidates");
        assert!(chosen["rejection"].is_null(), "chosen candidate is feasible");
        assert_eq!(
            chosen["predicted_ns"].as_f64().map(f64::to_bits),
            d["predicted_ns"].as_f64().map(f64::to_bits),
            "ladder and decision agree on the predicted cost"
        );
    }
    // A plain engine run has no serving requests, so no request paths.
    assert_eq!(
        doc["requests"].as_array().map(Vec::len),
        Some(0),
        "request paths only come from serving"
    );
}

#[test]
fn decision_drift_fields_are_internally_consistent() {
    let sink = recorded_run();
    let export = sink.decisions();
    let kernels = sink.profiles().kernels;
    assert_eq!(
        export.decisions.len(),
        kernels.len(),
        "one decision per profiled launch"
    );
    for (d, k) in export.decisions.iter().zip(&kernels) {
        assert_eq!(d.chosen_strategy, k.label, "the decision names its launch");
        assert_eq!(
            d.simulated_ns.to_bits(),
            k.total_ns.to_bits(),
            "the decision records its launch's simulated time"
        );
        assert!(d.simulated_ns > 0.0, "simulated time is positive");
        let expected = (d.predicted_ns - d.simulated_ns) / d.simulated_ns;
        assert_eq!(
            d.relative_error.to_bits(),
            expected.to_bits(),
            "relative error derives from predicted vs simulated"
        );
    }
}

#[test]
fn request_path_components_sum_bitwise_to_the_latency() {
    let (sink, report) = served_run();
    let export = sink.decisions();
    assert_eq!(
        export.requests.len(),
        report.latencies_ns.len(),
        "one path record per request"
    );
    for r in &export.requests {
        assert!(r.form_ns >= 0.0, "form wait is non-negative: {r:?}");
        assert!(r.queue_ns >= 0.0, "queue wait is non-negative: {r:?}");
        assert!(r.execute_ns > 0.0, "execution takes time: {r:?}");
        assert!(
            r.reduction_ns <= r.execute_ns,
            "reduction is a slice of execution: {r:?}"
        );
        let sum = r.form_ns + r.queue_ns + r.execute_ns;
        assert_eq!(
            sum.to_bits(),
            r.total_ns.to_bits(),
            "critical path sums exactly to the end-to-end latency: {r:?}"
        );
        assert_eq!(
            r.total_ns.to_bits(),
            report.latencies_ns[r.request as usize].to_bits(),
            "path record matches the report's latency for request {}",
            r.request
        );
    }
}

#[test]
fn serving_trace_links_every_request_end_to_end() {
    let (sink, report) = served_run();
    let trace = sink.chrome_trace_json();
    let doc: Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e["ph"].as_str() == Some(ph) && e["cat"].as_str() == Some("request"))
            .count()
    };
    let n = report.latencies_ns.len();
    assert_eq!(count("b"), n, "one async-begin per request");
    assert_eq!(count("e"), n, "one async-end per request");
    let flows = |ph: &str| {
        events
            .iter()
            .filter(|e| {
                e["ph"].as_str() == Some(ph) && e["name"].as_str() == Some("request path")
            })
            .count()
    };
    assert_eq!(flows("s"), n, "one flow-start (arrival) per request");
    assert_eq!(flows("f"), n, "one flow-finish (dispatch) per request");
}

#[test]
fn decisions_export_round_trips_through_serde() {
    let (sink, _) = served_run();
    let export = sink.decisions();
    let text = sink.decisions_json();
    let back = DecisionsExport::from_json(&text).expect("export parses");
    assert_eq!(back, export, "round-trip must be lossless");
}

#[test]
fn disabled_sink_exports_an_empty_audit() {
    let sink = TelemetrySink::Disabled;
    let export = sink.decisions();
    assert!(export.decisions.is_empty());
    assert!(export.requests.is_empty());
    let parsed: Value =
        serde_json::from_str(&sink.decisions_json()).expect("empty export is valid JSON");
    assert_eq!(parsed["decisions"].as_array().map(Vec::len), Some(0));
    assert_eq!(parsed["requests"].as_array().map(Vec::len), Some(0));
}

/// The export as one whole-document tree, pretty-printed in one go: the
/// exporter's earlier implementation, kept as the byte-level reference for
/// the streamed one.
fn whole_tree_decisions(sink: &TelemetrySink) -> String {
    let mut text = serde_json::to_string_pretty(&sink.decisions()).expect("decisions serialize");
    text.push('\n');
    text
}

/// Asserts byte equality without dumping two multi-megabyte strings.
fn assert_same_bytes(streamed: &str, reference: &str, what: &str) {
    let first_diff = streamed
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(streamed.len().min(reference.len()));
    assert!(
        streamed == reference,
        "{what}: streamed decisions ({} bytes) differ from the whole-tree \
         reference ({} bytes) at byte {first_diff}",
        streamed.len(),
        reference.len(),
    );
}

#[test]
fn streamed_decisions_equal_the_whole_tree_document() {
    let fx = Fixture::trained("letter");
    let cluster_sink = TelemetrySink::recording();
    let mut cluster = GpuCluster::with_telemetry(
        vec![
            DeviceSpec::tesla_k80(),
            DeviceSpec::tesla_p100(),
            DeviceSpec::tesla_v100(),
            DeviceSpec::tesla_p100(),
        ],
        &fx.forest,
        EngineOptions::tahoe(),
        cluster_sink.clone(),
    );
    let _ = ClusterServingSim::new(&mut cluster, BatchingPolicy::new(16, 10_000.0))
        .run_uniform_trace(&fx.samples, 120, 50.0);
    let export = cluster_sink.decisions();
    assert!(!export.decisions.is_empty(), "the run records decisions");
    assert!(!export.requests.is_empty(), "the run records request paths");
    assert!(
        export.decisions.iter().any(|d| d.device == 3),
        "every device records decisions"
    );

    // A decision whose rejection reason needs every kind of escape.
    let escaped = TelemetrySink::recording();
    escaped.push_decision(DecisionRecord {
        device: 0,
        batch: 1,
        n_samples: 8,
        forced: true,
        chosen_strategy: "direct".to_string(),
        chosen_block_threads: 64,
        predicted_ns: 120.5,
        simulated_ns: 100.0,
        relative_error: 0.205,
        calibration_generation: 0,
        cache_hit: false,
        candidates: vec![DecisionCandidate {
            strategy: "shared forest".to_string(),
            block_threads: 1024,
            predicted_ns: None,
            rejection: Some("odd \"reason\" \\ line\nbreak \u{1} é€".to_string()),
        }],
    });

    for (sink, what) in [
        (cluster_sink, "K80/P100/V100/P100 cluster serving"),
        (TelemetrySink::recording(), "empty recording sink"),
        (TelemetrySink::Disabled, "disabled sink"),
        (escaped, "escaped rejection reason"),
    ] {
        assert_same_bytes(&sink.decisions_json(), &whole_tree_decisions(&sink), what);
    }
}
