//! Golden-schema gate for the per-kernel profiler export (DESIGN.md §2.9).
//!
//! `profiles_json()` is a public payload (`profiles.json` in every
//! `--telemetry <dir>`, read by `tahoe-cli profile`): every kernel profile must carry the pinned keys,
//! its wall-time breakdown must sum to `total_ns`, roofline utilization must
//! stay within [0, 1], and the latency histograms must keep their fixed
//! power-of-two bucket edges. The export must also survive a serde
//! round-trip unchanged.

use serde_json::Value;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::profile::{ProfilesExport, HISTOGRAM_BUCKETS};
use tahoe::strategy::testutil::Fixture;
use tahoe::telemetry::TelemetrySink;
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

#[test]
fn profiles_export_matches_the_golden_schema() {
    let sink = recorded_run();
    let text = sink.profiles_json();
    let doc: Value = serde_json::from_str(&text).expect("profiles are valid JSON");

    let kernels = doc["kernels"].as_array().expect("kernels array");
    assert!(!kernels.is_empty(), "an engine run must profile a launch");
    for k in kernels {
        for key in [
            "label",
            "device",
            "occupancy_limiter",
            "grid_blocks",
            "threads_per_block",
            "smem_per_block",
            "node_bytes",
            "sampled_blocks",
            "concurrent_blocks",
            "waves",
            "gmem_requested_bytes",
            "gmem_fetched_bytes",
            "gmem_transactions",
            "smem_fetched_bytes",
            "achieved_occupancy",
            "warp_exec_efficiency",
            "gmem_coalescing_efficiency",
            "transactions_per_request",
            "total_ns",
            "roofline_utilization",
        ] {
            assert!(!k[key].is_null(), "kernel profile carries '{key}': {k:?}");
        }
        let b = &k["breakdown"];
        let sum: f64 = [
            "traversal_ns",
            "staging_ns",
            "block_reduction_ns",
            "global_reduction_ns",
            "bandwidth_stall_ns",
        ]
        .iter()
        .map(|part| b[*part].as_f64().expect("breakdown part present"))
        .sum();
        let total = k["total_ns"].as_f64().expect("total_ns is a number");
        assert!(
            (sum - total).abs() <= 1e-6 * total.max(1.0),
            "breakdown sums to total: {sum} vs {total}"
        );
        // Engine launches always traverse a forest image, so the profile
        // must carry its per-node width for the CLI's bytes/node readout.
        assert!(
            k["node_bytes"].as_u64().unwrap_or(0) > 0,
            "engine launches record the forest's bytes per node: {k:?}"
        );
        for ratio in [
            "achieved_occupancy",
            "warp_exec_efficiency",
            "roofline_utilization",
        ] {
            let x = k[ratio].as_f64().expect("ratio is a number");
            assert!((0.0..=1.0).contains(&x), "{ratio} in [0, 1], got {x}");
        }
    }

    for hist in ["kernel_durations", "serving_latencies"] {
        let h = &doc[hist];
        // Sparse export: only non-empty buckets appear, but each must sit on
        // the fixed log2 grid — bucket 0 is [0, 1); bucket i is [2^(i-1), 2^i);
        // the last bucket (i = HISTOGRAM_BUCKETS - 1) is open-ended.
        let buckets = h["buckets"].as_array().expect("buckets array");
        assert!(buckets.len() <= HISTOGRAM_BUCKETS, "{hist} bucket count");
        let mut counted = 0u64;
        let mut prev_lo = None;
        for b in buckets {
            let lo = b["lo_ns"].as_u64().expect("lo_ns");
            let hi = b["hi_ns"].as_u64().expect("hi_ns");
            let count = b["count"].as_u64().expect("count");
            assert!(count > 0, "{hist} exports only non-empty buckets");
            counted += count;
            if let Some(prev) = prev_lo {
                assert!(lo > prev, "{hist} buckets ascend: {prev} then {lo}");
            }
            prev_lo = Some(lo);
            let index = if lo == 0 {
                assert_eq!(hi, 1, "{hist} bucket 0 is [0, 1)");
                0
            } else {
                assert!(lo.is_power_of_two(), "{hist} edge {lo} off the grid");
                let i = lo.trailing_zeros() as usize + 1;
                if i == HISTOGRAM_BUCKETS - 1 {
                    assert_eq!(hi, u64::MAX, "{hist} last bucket is open-ended");
                } else {
                    assert_eq!(hi, 2 * lo, "{hist} bucket {i} upper edge");
                }
                i
            };
            assert!(index < HISTOGRAM_BUCKETS, "{hist} bucket index in range");
        }
        assert_eq!(
            counted,
            h["count"].as_u64().expect("count"),
            "{hist} bucket counts sum to the total"
        );
    }
    let durations = &doc["kernel_durations"];
    assert_eq!(
        durations["count"].as_u64(),
        Some(kernels.len() as u64),
        "one duration sample per profiled launch"
    );

    // The model's drift per launch is the decisions view's, not a copy here.
    assert!(doc["drift"].is_null(), "profiles carry no drift copy");
    let decisions = sink.decisions().decisions;
    assert_eq!(decisions.len(), kernels.len(), "one decision per launch");
    for d in &decisions {
        assert!(d.predicted_ns > 0.0 && d.simulated_ns > 0.0, "drift inputs: {d:?}");
        assert!(d.relative_error.is_finite(), "drift is finite: {d:?}");
    }
}

#[test]
fn profiles_export_round_trips_through_serde() {
    let sink = recorded_run();
    let export = sink.profiles();
    let text = sink.profiles_json();
    let back = ProfilesExport::from_json(&text).expect("export parses");
    assert_eq!(back, export, "round-trip must be lossless");
}

#[test]
fn disabled_sink_exports_an_empty_profile() {
    let sink = TelemetrySink::Disabled;
    let export = sink.profiles();
    assert!(export.kernels.is_empty());
    assert!(sink.decisions().decisions.is_empty());
    assert_eq!(export.kernel_durations.count, 0);
    assert_eq!(export.serving_latencies.count, 0);
}
