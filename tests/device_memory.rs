//! Device-memory regression tests: the per-batch staging-buffer leak, DRAM
//! capacity enforcement on the paper devices, and OOM-aware chunked
//! inference.
//!
//! Before the capacity-modeled allocator, `Engine::infer` bump-allocated a
//! fresh staging buffer per batch and never freed it, so a serving trace's
//! footprint grew linearly with the number of batches. These tests pin the
//! fixed behavior: in-use simulated device memory is bounded and independent
//! of how many batches ran.

use tahoe_repro::datasets::{DatasetSpec, Scale, SampleMatrix};
use tahoe_repro::engine::engine::{Engine, EngineOptions};
use tahoe_repro::engine::serving::{BatchingPolicy, ServingSim};
use tahoe_repro::engine::strategy::Strategy;
use tahoe_repro::engine::telemetry::TelemetrySink;
use tahoe_repro::forest::{predict_dataset, train_for_spec, Forest};
use tahoe_repro::gpu::device::DeviceSpec;

fn setup(name: &str) -> (Forest, SampleMatrix) {
    let spec = DatasetSpec::by_name(name).unwrap();
    let data = spec.generate(Scale::Smoke);
    let (train, infer) = data.split_train_infer();
    let forest = train_for_spec(&spec, &train, Scale::Smoke);
    (forest, infer.samples)
}

fn fast_engine(device: DeviceSpec, forest: Forest) -> Engine {
    let options = EngineOptions {
        functional: false,
        ..EngineOptions::tahoe()
    };
    Engine::new(device, forest, options)
}

#[test]
fn repeated_inference_does_not_grow_device_memory() {
    let (forest, samples) = setup("letter");
    let mut engine = fast_engine(DeviceSpec::tesla_p100(), forest);
    let first = engine.infer(&samples);
    let settled = first.mem_in_use_bytes;
    for _ in 0..50 {
        let r = engine.infer(&samples);
        assert_eq!(
            r.mem_in_use_bytes, settled,
            "in-use footprint grew across identical batches"
        );
    }
    // The staging buffer was allocated once and recycled, never re-leaked:
    // the lifetime high-water mark equals the steady-state footprint.
    assert_eq!(engine.memory().live_allocations(), 2); // forest image + buffer
    assert_eq!(engine.memory().high_water_bytes(), settled);
}

#[test]
fn serving_trace_memory_is_batch_count_independent() {
    let (forest, samples) = setup("letter");
    // Identical engines, traces differing 10x in length: the leak made the
    // longer trace's footprint ~10x larger; fixed, they must match exactly.
    let (short_in_use, short_hw) = {
        let mut engine = fast_engine(DeviceSpec::tesla_p100(), forest.clone());
        let mut sim = ServingSim::new(&mut engine, BatchingPolicy::low_latency());
        let r = sim.run_uniform_trace(&samples, 200, 500.0);
        (engine.memory().in_use_bytes(), r.mem_high_water_bytes)
    };
    let mut engine = fast_engine(DeviceSpec::tesla_p100(), forest);
    let mut sim = ServingSim::new(&mut engine, BatchingPolicy::low_latency());
    let report = sim.run_uniform_trace(&samples, 2_000, 500.0);
    assert_eq!(report.n_requests(), 2_000);
    assert_eq!(
        engine.memory().in_use_bytes(),
        short_in_use,
        "footprint depends on batch count: the staging buffer leaked"
    );
    assert_eq!(report.mem_high_water_bytes, short_hw);
    // Every batch saw the same bounded footprint.
    for b in &report.batches {
        assert!(b.mem_in_use_bytes <= report.mem_high_water_bytes);
        assert_eq!(b.chunks, 1);
    }
}

#[test]
fn update_forest_releases_the_old_image() {
    let (forest, samples) = setup("letter");
    let options = EngineOptions {
        functional: false,
        ..EngineOptions::tahoe()
    };
    let mut engine = Engine::new(DeviceSpec::tesla_p100(), forest.clone(), options);
    let _ = engine.infer(&samples);
    let settled = engine.memory().in_use_bytes();
    for _ in 0..10 {
        engine.update_forest(forest.clone(), Some(&samples));
        let _ = engine.infer(&samples);
        assert_eq!(
            engine.memory().in_use_bytes(),
            settled,
            "reconversion leaked the previous forest image"
        );
    }
}

#[test]
fn allocations_respect_dram_on_every_paper_device() {
    let (forest, samples) = setup("ijcnn1");
    for device in DeviceSpec::paper_devices() {
        let capacity = device.dram_bytes;
        let mut engine = fast_engine(device, forest.clone());
        let r = engine.infer(&samples);
        assert!(r.mem_in_use_bytes <= capacity);
        assert!(r.mem_high_water_bytes <= capacity);
        assert_eq!(engine.memory().capacity_bytes(), capacity);
        assert!(engine.memory().in_use_bytes() <= capacity);
    }
}

/// Builds an engine whose DRAM holds the forest image plus `margin` bytes —
/// the probe engine measures the image's aligned span on a full-size device
/// first.
fn tiny_dram_engine(forest: &Forest, margin: u64, functional: bool) -> Engine {
    tiny_dram_engine_recording(forest, margin, functional, TelemetrySink::Disabled)
}

/// [`tiny_dram_engine`] recording into `sink`.
fn tiny_dram_engine_recording(
    forest: &Forest,
    margin: u64,
    functional: bool,
    sink: TelemetrySink,
) -> Engine {
    let probe = Engine::tahoe(DeviceSpec::tesla_p100(), forest.clone());
    let image_span = probe.memory().in_use_bytes();
    let mut device = DeviceSpec::tesla_p100();
    device.dram_bytes = image_span + margin;
    let options = EngineOptions {
        functional,
        ..EngineOptions::tahoe()
    };
    Engine::with_telemetry(device, forest.clone(), options, sink)
}

#[test]
fn over_dram_batch_splits_and_matches_cpu_reference() {
    let (forest, samples) = setup("letter");
    let reference = predict_dataset(&forest, &samples);
    // Room for ~32 samples (letter: 16 attrs = 64 B/sample) next to the
    // forest image: the full Smoke batch must split into many chunks.
    let mut engine = tiny_dram_engine(&forest, 2_048, true);
    let result = engine.infer(&samples);
    assert!(
        result.chunks > 1,
        "batch of {} samples should not fit in 2 KiB of staging room",
        samples.n_samples()
    );
    assert_eq!(result.predictions.len(), reference.len());
    for (i, (a, b)) in result.predictions.iter().zip(&reference).enumerate() {
        assert!((a - b).abs() < 1e-4, "sample {i}: {a} vs {b}");
    }
    // The merged run covers the whole batch and stayed within DRAM.
    assert_eq!(result.run.n_samples, samples.n_samples());
    assert!(result.mem_high_water_bytes <= engine.memory().capacity_bytes());
}

#[test]
fn chunked_inference_sweep_matches_reference_at_many_margins() {
    // Deterministic sweep over chunk geometries: margins that allow 1, 2, 3,
    // 5, 9, and 17 samples per chunk all must reproduce the CPU reference
    // bit-for-bit per prediction (within float tolerance).
    let (forest, samples) = setup("letter");
    let idx: Vec<usize> = (0..37.min(samples.n_samples())).collect();
    let batch = samples.select(&idx);
    let reference = predict_dataset(&forest, &batch);
    for &samples_per_chunk in &[1u64, 2, 3, 5, 9, 17] {
        // letter has 16 attributes -> 64 bytes per sample; round the margin
        // up to the 256 B allocation granularity.
        let margin = (samples_per_chunk * 64).div_ceil(256) * 256;
        let mut engine = tiny_dram_engine(&forest, margin, true);
        let result = engine.infer(&batch);
        let expected_chunk = (margin / 64) as usize;
        let expected_chunks = batch.n_samples().div_ceil(expected_chunk);
        assert_eq!(result.chunks, expected_chunks, "margin {margin}");
        for (a, b) in result.predictions.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b} at margin {margin}");
        }
    }
}

#[test]
fn chunked_serving_still_serves_every_request() {
    let (forest, samples) = setup("letter");
    let mut engine = tiny_dram_engine(&forest, 1_024, false);
    let mut sim = ServingSim::new(&mut engine, BatchingPolicy::low_latency());
    let report = sim.run_uniform_trace(&samples, 500, 200.0);
    assert_eq!(report.n_requests(), 500);
    let served: usize = report.batches.iter().map(|b| b.size).sum();
    assert_eq!(served, 500);
    // 1 KiB of staging room holds 16 letter samples: 64-request batches
    // must have split, and the report surfaces it.
    assert!(report.split_batches() > 0);
    assert!(report.mem_high_water_bytes <= engine.memory().capacity_bytes());
}

#[test]
fn chunks_of_an_unforced_batch_are_not_recorded_as_forced() {
    // Later chunks are pinned to the first chunk's strategy so the merged
    // result is coherent, but `forced` means "forced by the caller": only a
    // caller-forced batch may record it.
    let (forest, samples) = setup("letter");
    let sink = TelemetrySink::recording();
    let mut engine = tiny_dram_engine_recording(&forest, 2_048, false, sink.clone());
    let result = engine.infer(&samples);
    assert!(result.chunks > 1, "the batch must split");
    let decisions = sink.decisions().decisions;
    assert_eq!(decisions.len(), result.chunks, "one decision per chunk");
    for d in &decisions {
        assert!(!d.forced, "chunk {} of an unforced batch marked forced", d.batch);
        assert_eq!(d.chosen_strategy, result.strategy.name(), "chunks share a strategy");
    }
    // A caller-forced batch records every chunk as forced.
    let forced = engine.infer_with(&samples, Some(Strategy::Direct));
    assert!(forced.chunks > 1);
    let decisions = sink.decisions().decisions;
    assert_eq!(decisions.len(), result.chunks + forced.chunks);
    assert!(decisions[result.chunks..].iter().all(|d| d.forced));
}
