//! Golden-schema gate for the telemetry exports (DESIGN.md §2.9).
//!
//! The Chrome trace must stay loadable by `chrome://tracing` / Perfetto:
//! every event carries the required keys, durations are non-negative, and
//! events are ordered by start time within each (pid, tid) track. The
//! streamed trace must equal, byte for byte, the compact one-event-per-line
//! document built from the whole event list. The metrics snapshot must survive a serde round-trip unchanged.

use serde_json::{Number, Value};
use tahoe::cluster::GpuCluster;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::serving::{BatchingPolicy, ClusterServingSim};
use tahoe::strategy::testutil::{context, Fixture};
use tahoe::strategy::{self, LaunchContext, Strategy};
use tahoe::telemetry::{
    device_pid, MetricsSnapshot, SpanName, TelemetryCtx, TelemetrySink, PID_GPU, PID_SERVING,
};
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::Detail;

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

#[test]
fn chrome_trace_matches_the_golden_schema() {
    let sink = recorded_run();
    let text = sink.chrome_trace_json();
    let doc: Value = serde_json::from_str(&text).expect("trace is valid JSON");

    assert_eq!(
        doc["displayTimeUnit"].as_str(),
        Some("ns"),
        "displayTimeUnit pins nanosecond rendering"
    );
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "an engine run must produce events");

    let mut complete_events = 0usize;
    let mut counter_events = 0usize;
    let mut last_start: std::collections::BTreeMap<(u64, u64), f64> =
        std::collections::BTreeMap::new();
    for e in events {
        // Required keys for every event, metadata included.
        let ph = e["ph"].as_str().expect("ph present");
        assert!(e["name"].as_str().is_some(), "name present: {e:?}");
        let pid = e["pid"].as_u64().expect("pid present");
        let tid = e["tid"].as_u64().expect("tid present");
        let ts = e["ts"].as_f64().expect("ts present");
        match ph {
            "M" => {
                assert_eq!(e["name"].as_str(), Some("process_name"));
                assert!(
                    e["args"]["name"].as_str().is_some(),
                    "metadata names its process: {e:?}"
                );
            }
            "X" => {
                complete_events += 1;
                let dur = e["dur"].as_f64().expect("complete events carry dur");
                assert!(ts >= 0.0 && dur >= 0.0, "non-negative times: {e:?}");
                // Start times are non-decreasing within each (pid, tid)
                // track — the exporter sorts, and viewers rely on it.
                let key = (pid, tid);
                if let Some(prev) = last_start.get(&key) {
                    assert!(
                        ts >= *prev,
                        "track {key:?} goes backwards: {prev} -> {ts}"
                    );
                }
                last_start.insert(key, ts);
            }
            "C" => {
                // Perfetto counter tracks from the windowed time-series
                // sampler (DESIGN.md §2.9), each with a numeric value.
                counter_events += 1;
                assert!(ts >= 0.0, "non-negative counter timestamp: {e:?}");
                assert!(
                    e["args"]["value"].as_f64().is_some(),
                    "counter events carry a numeric value: {e:?}"
                );
            }
            other => panic!("unexpected event phase '{other}': {e:?}"),
        }
    }
    assert!(complete_events > 0, "at least one span event");
    assert!(counter_events > 0, "kernel launches emit counter samples");
    assert!(
        !last_start.is_empty(),
        "span events cover at least one (pid, tid) track"
    );
}

#[test]
fn metrics_snapshot_round_trips_through_serde() {
    let sink = recorded_run();
    let snapshot = sink.snapshot();
    assert!(snapshot.span_count > 0, "engine run records spans");
    assert!(
        snapshot.counters.contains_key("kernel_launches"),
        "counter names are exported"
    );

    let text = sink.metrics_json();
    let back: MetricsSnapshot = serde_json::from_str(&text).expect("snapshot parses");
    assert_eq!(back, snapshot, "round-trip must be lossless");

    // The flat export is also plain JSON for non-Rust consumers.
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    assert!(doc["counters"]["kernel_launches"].as_u64().is_some());
    assert_eq!(
        doc["span_count"].as_u64(),
        Some(snapshot.span_count as u64)
    );
}

#[test]
fn launch_spans_record_typed_block_warp_and_reduce_labels() {
    // Every feasible strategy, so some launch has blocks that reduce and
    // the run records all three per-block span kinds.
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        DeviceSpec::tesla_p100(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        sink.clone(),
    );
    for strategy in Strategy::ALL {
        if engine.feasible(strategy, &fx.samples) {
            let _ = engine.infer_with(&fx.samples, Some(strategy));
        }
    }
    let spans = sink.spans();
    let count = |pred: fn(&SpanName) -> bool| spans.iter().filter(|s| pred(&s.name)).count();
    assert!(
        count(|n| matches!(n, SpanName::Block(_))) > 0,
        "block spans"
    );
    assert!(count(|n| matches!(n, SpanName::Warp(..))) > 0, "warp spans");
    assert!(
        count(|n| matches!(n, SpanName::Reduce(_))) > 0,
        "reduce spans"
    );
    // Per-block labels never fall back to free text; only the kernel's own
    // spans and the host/serving layers record `Text`.
    let text_blocks = count(|n| matches!(n, SpanName::Text(t) if t.starts_with("block ")));
    assert_eq!(text_blocks, 0, "per-block spans are typed");
    // The snapshot is expanded: no stored block record leaks into it.
    assert_eq!(count(|n| matches!(n, SpanName::SampledBlock(_))), 0);
    assert_eq!(spans.len(), sink.snapshot().span_count);
}

/// The trace built from one whole list of event `Value`s, each printed
/// compactly on a line of its own: the byte-level reference for the
/// streamed export, which expands sampled blocks and prints as it goes.
/// A warp that did no work writes no span.
fn whole_tree_trace(sink: &TelemetrySink) -> String {
    let timeseries = sink.timeseries();
    let decisions = sink.decisions();
    let names = sink.process_names();
    let mut spans = sink.spans();
    spans.retain(|s| !(matches!(s.name, SpanName::Warp(..)) && s.dur_ns == 0.0));
    spans.sort_by(|a, b| {
        (a.pid, a.tid)
            .cmp(&(b.pid, b.tid))
            .then(a.start_ns.total_cmp(&b.start_ns))
            .then(b.dur_ns.total_cmp(&a.dur_ns))
    });
    let str_val = |s: &str| Value::String(s.to_string());
    let num = |x: f64| Value::Number(Number::Float(x));
    let uint = |x: u64| Value::Number(Number::PosInt(x));
    let mut events = Vec::new();
    for (pid, name) in &names {
        events.push(Value::Object(vec![
            ("ph".into(), str_val("M")),
            ("ts".into(), num(0.0)),
            ("pid".into(), uint(u64::from(*pid))),
            ("tid".into(), uint(0)),
            ("name".into(), str_val("process_name")),
            (
                "args".into(),
                Value::Object(vec![("name".into(), str_val(name))]),
            ),
        ]));
    }
    for s in &spans {
        events.push(Value::Object(vec![
            ("ph".into(), str_val("X")),
            ("ts".into(), num(s.start_ns / 1_000.0)),
            ("dur".into(), num(s.dur_ns / 1_000.0)),
            ("pid".into(), uint(u64::from(s.pid))),
            ("tid".into(), uint(u64::from(s.tid))),
            ("name".into(), str_val(&s.name.to_string())),
        ]));
    }
    for series in &timeseries.series {
        for p in &series.points {
            events.push(Value::Object(vec![
                ("ph".into(), str_val("C")),
                ("ts".into(), num(p.start_ns as f64 / 1_000.0)),
                (
                    "pid".into(),
                    uint(u64::from(device_pid(PID_GPU, series.device as usize))),
                ),
                ("tid".into(), uint(0)),
                ("name".into(), str_val(&series.name)),
                (
                    "args".into(),
                    Value::Object(vec![("value".into(), num(p.value))]),
                ),
            ]));
        }
    }
    for r in &decisions.requests {
        let queue_pid = u64::from(device_pid(PID_SERVING, 0));
        let exec_pid = u64::from(device_pid(PID_SERVING, r.device as usize));
        let dispatch_ns = r.arrival_ns + r.form_ns + r.queue_ns;
        let end_ns = r.arrival_ns + r.total_ns;
        let name = format!("request {}", r.request);
        events.push(Value::Object(vec![
            ("ph".into(), str_val("b")),
            ("cat".into(), str_val("request")),
            ("id".into(), uint(r.request)),
            ("ts".into(), num(r.arrival_ns / 1_000.0)),
            ("pid".into(), uint(queue_pid)),
            ("tid".into(), uint(0)),
            ("name".into(), str_val(&name)),
        ]));
        events.push(Value::Object(vec![
            ("ph".into(), str_val("e")),
            ("cat".into(), str_val("request")),
            ("id".into(), uint(r.request)),
            ("ts".into(), num(end_ns / 1_000.0)),
            ("pid".into(), uint(queue_pid)),
            ("tid".into(), uint(0)),
            ("name".into(), str_val(&name)),
        ]));
        events.push(Value::Object(vec![
            ("ph".into(), str_val("s")),
            ("id".into(), uint(r.request)),
            ("ts".into(), num(r.arrival_ns / 1_000.0)),
            ("pid".into(), uint(queue_pid)),
            ("tid".into(), uint(0)),
            ("name".into(), str_val("request path")),
        ]));
        events.push(Value::Object(vec![
            ("ph".into(), str_val("f")),
            ("bp".into(), str_val("e")),
            ("id".into(), uint(r.request)),
            ("ts".into(), num(dispatch_ns / 1_000.0)),
            ("pid".into(), uint(exec_pid)),
            ("tid".into(), uint(2)),
            ("name".into(), str_val("request path")),
        ]));
    }
    let lines: Vec<String> = events
        .iter()
        .map(|e| serde_json::to_string(e).expect("event serializes"))
        .collect();
    let mut text = String::from("{\"traceEvents\":[\n");
    if !lines.is_empty() {
        text.push_str(&lines.join(",\n"));
        text.push('\n');
    }
    text.push_str("],\"displayTimeUnit\":\"ns\"}\n");
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
        "{what}: streamed trace ({} bytes) differs from the whole-tree \
         reference ({} bytes) at byte {first_diff}",
        streamed.len(),
        reference.len(),
    );
}

#[test]
fn streamed_trace_equals_the_whole_tree_document() {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let mut cluster = GpuCluster::with_telemetry(
        vec![
            DeviceSpec::tesla_k80(),
            DeviceSpec::tesla_p100(),
            DeviceSpec::tesla_v100(),
        ],
        &fx.forest,
        EngineOptions::tahoe(),
        sink.clone(),
    );
    let _ = ClusterServingSim::new(&mut cluster, BatchingPolicy::new(16, 10_000.0))
        .run_uniform_trace(&fx.samples, 120, 50.0);
    // A span whose name needs every kind of escape.
    sink.span(
        "odd \"name\" \\ line\nbreak \u{1} é€",
        PID_GPU,
        0,
        250.0,
        125.5,
    );

    assert!(!sink.spans().is_empty(), "the run records spans");
    assert!(
        !sink.process_names().is_empty(),
        "the run names process tracks"
    );
    let series = sink.timeseries().series;
    assert!(!series.is_empty(), "the run records counter series");
    assert!(
        !sink.decisions().requests.is_empty(),
        "the run records request paths"
    );

    let streamed = sink.chrome_trace_json();
    assert!(streamed.contains(r#""odd \"name\" \\ line\nbreak \u0001 é€""#));
    assert_same_bytes(&streamed, &whole_tree_trace(&sink), "recorded cluster run");
}

#[test]
fn streamed_trace_of_an_empty_sink_equals_the_whole_tree_document() {
    for (sink, what) in [
        (TelemetrySink::recording(), "empty recording sink"),
        (TelemetrySink::Disabled, "disabled sink"),
    ] {
        let streamed = sink.chrome_trace_json();
        assert_eq!(
            streamed,
            "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ns\"}\n"
        );
        assert_same_bytes(&streamed, &whole_tree_trace(&sink), what);
    }
}

#[test]
fn idle_shared_data_warps_write_no_trace_span() {
    // 40 trees on 256 threads: a block's traversal warps 0–1 walk 32 + 8
    // trees and warps 2–7 have none.
    let fx = Fixture::trained_with_trees("letter", 40);
    let sink = TelemetrySink::recording();
    let ctx = LaunchContext {
        block_threads: 256,
        telemetry: TelemetryCtx { sink: &sink, t0_ns: 0.0 },
        ..context(&fx, Detail::Sampled(3))
    };
    let run = strategy::run(Strategy::SharedData, &ctx).expect("shared data always runs");
    assert_eq!(run.geometry.threads_per_block, 256);
    assert!(fx.forest.n_trees() < 256, "the launch must have idle warps");

    // Every recorded warp, by its trace label, with its serial time.
    let recorded: Vec<(String, f64)> = sink
        .spans()
        .into_iter()
        .filter(|s| matches!(s.name, SpanName::Warp(..)))
        .map(|s| (s.name.to_string(), s.dur_ns))
        .collect();
    let idle = recorded.iter().filter(|(_, dur)| *dur == 0.0).count();
    assert!(idle > 0, "the log records the idle warps");
    let mut worked: Vec<&str> = recorded
        .iter()
        .filter(|(_, dur)| *dur > 0.0)
        .map(|(name, _)| name.as_str())
        .collect();
    worked.sort_unstable();

    let trace: Value = serde_json::from_str(&sink.chrome_trace_json()).expect("trace parses");
    let warp_spans: Vec<&Value> = trace["traceEvents"]
        .as_array()
        .expect("event list")
        .iter()
        .filter(|e| e["name"].as_str().is_some_and(|n| n.contains(" warp ")))
        .collect();
    assert!(
        warp_spans.iter().all(|e| e["dur"].as_f64() > Some(0.0)),
        "no zero-duration warp span"
    );
    let mut traced: Vec<&str> = warp_spans
        .iter()
        .filter_map(|e| e["name"].as_str())
        .collect();
    traced.sort_unstable();
    assert_eq!(traced, worked, "exactly one span per warp that worked");
}
