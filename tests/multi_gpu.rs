//! Cross-crate integration tests for the multi-GPU cluster layer (§7.5):
//! functional equivalence with the CPU reference, request conservation in
//! cluster serving, exact 1-device equivalence with the single-engine
//! serving path, deterministic heterogeneous dispatch, and the absence of
//! inter-device coupling. The heterogeneous tests run two mixes: three
//! distinct models, and a mix that repeats one model, so a single cluster
//! builds slots both by reusing the first engine's layout plan (a new model)
//! and by replicating a twin (a repeat).

use tahoe::cluster::GpuCluster;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::serving::{BatchingPolicy, ClusterServingSim, ServingSim};
use tahoe::strategy::testutil::Fixture;
use tahoe::telemetry::TelemetrySink;
use tahoe_forest::predict_dataset;
use tahoe_gpu_sim::device::DeviceSpec;

fn hetero_mixes() -> [Vec<DeviceSpec>; 2] {
    [
        vec![
            DeviceSpec::tesla_k80(),
            DeviceSpec::tesla_p100(),
            DeviceSpec::tesla_v100(),
        ],
        vec![
            DeviceSpec::tesla_k80(),
            DeviceSpec::tesla_p100(),
            DeviceSpec::tesla_v100(),
            DeviceSpec::tesla_p100(),
        ],
    ]
}

/// Partitioned inference across a heterogeneous mix must agree with the CPU
/// reference exactly — same property the single-engine suite pins, extended
/// over the scatter/gather of per-device partitions.
#[test]
fn heterogeneous_partitioned_inference_matches_cpu_reference() {
    let fx = Fixture::trained("ijcnn1");
    let expected = predict_dataset(&fx.forest, &fx.samples);
    for devices in hetero_mixes() {
        let n = devices.len();
        let mut cluster = GpuCluster::new(devices, &fx.forest, EngineOptions::tahoe());
        let run = cluster.infer_partitioned(&fx.samples);
        assert_eq!(run.predictions.len(), expected.len());
        for (i, (got, want)) in run.predictions.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() < 1e-4,
                "{n} devices, sample {i}: cluster {got} vs reference {want}"
            );
        }
        assert_eq!(run.per_device.len(), n, "all devices participate");
        let total: usize = run.per_device.iter().map(|d| d.n_samples).sum();
        assert_eq!(total, fx.samples.n_samples(), "partitions cover the batch");
        for d in &run.per_device {
            assert!(d.elapsed_ns.is_finite() && d.elapsed_ns > 0.0);
            assert!(run.total_ns >= d.elapsed_ns, "end-to-end is the slowest device");
        }
    }
}

/// No inter-device coupling is modelled: the same batch on slot `d` takes
/// bit-identical simulated time and gives bit-identical predictions in a 4-
/// and in an 8-device V100 cluster, whether or not the other slots ran
/// first. §7.5's weak-scaling check holds by construction on this premise
/// (EXPERIMENTS.md, Fig. 9); a failure here means devices now share a
/// resource, and weak scaling has something to measure again.
#[test]
fn a_slot_runs_alike_whatever_the_cluster_size_or_history() {
    let fx = Fixture::trained("letter");
    let device = DeviceSpec::tesla_v100();
    let run_slot = |n_devices: usize, others_first: bool, d: usize| {
        let mut cluster =
            GpuCluster::homogeneous(&device, n_devices, &fx.forest, EngineOptions::tahoe());
        if others_first {
            for other in (0..n_devices).filter(|&o| o != d) {
                let _ = cluster.engine_mut(other).infer(&fx.samples);
            }
        }
        let r = cluster.engine_mut(d).infer(&fx.samples);
        let bits: Vec<u32> = r.predictions.iter().map(|p| p.to_bits()).collect();
        (r.run.kernel.total_ns.to_bits(), bits)
    };
    for d in 0..4 {
        let alone = run_slot(4, false, d);
        for (n_devices, others_first) in [(4, true), (8, false), (8, true)] {
            assert_eq!(
                run_slot(n_devices, others_first, d),
                alone,
                "slot {d} of {n_devices} (others ran first: {others_first})"
            );
        }
    }
}

/// Every request in a cluster serving trace is served exactly once: batch
/// sizes, per-device request counts, and latencies all account for the full
/// trace, and every batch names a valid executing device.
#[test]
fn cluster_serving_conserves_requests_across_devices() {
    let fx = Fixture::trained("letter");
    let n_requests = 500;
    for devices in hetero_mixes() {
        let n = devices.len();
        let mut cluster = GpuCluster::new(devices, &fx.forest, EngineOptions::tahoe());
        let report = ClusterServingSim::new(&mut cluster, BatchingPolicy::new(32, 20_000.0))
            .run_uniform_trace(&fx.samples, n_requests, 50.0);
        let r = &report.report;
        assert_eq!(r.n_requests(), n_requests);
        assert_eq!(r.batches.iter().map(|b| b.size).sum::<usize>(), n_requests);
        assert_eq!(report.batch_devices.len(), r.batches.len());
        assert!(report.batch_devices.iter().all(|&d| d < n));
        assert_eq!(report.per_device.len(), n);
        assert_eq!(report.per_device.iter().map(|d| d.requests).sum::<usize>(), n_requests);
        assert_eq!(
            report.per_device.iter().map(|d| d.batches).sum::<usize>(),
            r.batches.len()
        );
        for lat in &r.latencies_ns {
            assert!(lat.is_finite() && *lat > 0.0, "every request has a latency");
        }
    }
}

/// A 1-device cluster is the single-engine serving simulator: same batches
/// (bit-for-bit records), same latencies, same makespan, same memory high
/// water. The cluster dispatcher shares the batching arithmetic with
/// `ServingSim`, so any drift here means the two paths diverged.
#[test]
fn one_device_cluster_reproduces_single_engine_serving_exactly() {
    let fx = Fixture::trained("letter");
    let device = DeviceSpec::tesla_p100();
    let policy = BatchingPolicy::new(24, 40_000.0);
    let n_requests = 400;
    let interarrival_ns = 150.0;

    let engine_sink = TelemetrySink::recording();
    let mut engine = Engine::with_telemetry(
        device.clone(),
        fx.forest.clone(),
        EngineOptions::tahoe(),
        engine_sink.clone(),
    );
    let single = ServingSim::new(&mut engine, policy)
        .run_uniform_trace(&fx.samples, n_requests, interarrival_ns);

    let cluster_sink = TelemetrySink::recording();
    let mut cluster = GpuCluster::with_telemetry(
        vec![device],
        &fx.forest,
        EngineOptions::tahoe(),
        cluster_sink.clone(),
    );
    let clustered = ClusterServingSim::new(&mut cluster, policy)
        .run_uniform_trace(&fx.samples, n_requests, interarrival_ns);

    assert_eq!(clustered.report.batches, single.batches, "batch records");
    assert_eq!(clustered.report.latencies_ns.len(), single.latencies_ns.len());
    for (i, (a, b)) in clustered
        .report
        .latencies_ns
        .iter()
        .zip(&single.latencies_ns)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "latency {i}");
    }
    assert_eq!(
        clustered.report.makespan_ns.to_bits(),
        single.makespan_ns.to_bits(),
        "makespan"
    );
    assert_eq!(
        clustered.report.mem_high_water_bytes, single.mem_high_water_bytes,
        "memory high water"
    );
    assert!(clustered.batch_devices.iter().all(|&d| d == 0));
    // Both run one serving loop and record in place, so the 1-device
    // cluster's views are byte-identical to the bare engine's. Only the
    // trace's process-name lines differ, by the cluster's `[gpu0: …]` label.
    let decisions = engine_sink.decisions_json();
    assert!(decisions.contains("\"chosen_strategy\""), "decisions were recorded");
    assert_eq!(cluster_sink.decisions_json(), decisions, "decisions export");
    assert_eq!(cluster_sink.metrics_json(), engine_sink.metrics_json(), "metrics export");
    assert_eq!(cluster_sink.profiles_json(), engine_sink.profiles_json(), "profiles export");
    assert_eq!(
        cluster_sink.timeseries_json(),
        engine_sink.timeseries_json(),
        "timeseries export"
    );
    let unnamed = |trace: String| -> Vec<String> {
        trace
            .lines()
            .filter(|l| !l.contains("\"process_name\""))
            .map(str::to_string)
            .collect()
    };
    let cluster_trace = cluster_sink.chrome_trace_json();
    assert!(cluster_trace.contains("[gpu0: Tesla P100]"), "the cluster labels its tracks");
    assert_eq!(
        unnamed(cluster_trace),
        unnamed(engine_sink.chrome_trace_json()),
        "trace export"
    );
}

/// A cluster records every decision in its one log as it is made: two
/// serving runs in a row leave the decisions in dispatch order across both
/// runs, and each device's batch ordinals count on from its previous run.
#[test]
fn cluster_decisions_follow_dispatch_order_across_runs() {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let devices = vec![
        DeviceSpec::tesla_k80(),
        DeviceSpec::tesla_p100(),
        DeviceSpec::tesla_v100(),
    ];
    let mut cluster =
        GpuCluster::with_telemetry(devices, &fx.forest, EngineOptions::tahoe(), sink.clone());
    let mut dispatched = Vec::new();
    for _ in 0..2 {
        let report = ClusterServingSim::new(&mut cluster, BatchingPolicy::new(32, 20_000.0))
            .run_uniform_trace(&fx.samples, 300, 50.0);
        dispatched.extend(report.batch_devices);
    }
    let mut used = dispatched.clone();
    used.sort_unstable();
    used.dedup();
    assert_eq!(used, [0, 1, 2], "the trace spreads over every device");
    let decisions = sink.decisions().decisions;
    let recorded: Vec<usize> = decisions.iter().map(|d| d.device as usize).collect();
    assert_eq!(recorded, dispatched, "decisions are recorded in dispatch order");
    let mut next = [1u64; 3];
    for d in &decisions {
        let ordinal = &mut next[d.device as usize];
        assert_eq!(d.batch, *ordinal, "device {} counts its batches on", d.device);
        *ordinal += 1;
    }
}

/// Device assignment is a pure function of the trace: replaying the same
/// trace on a fresh heterogeneous cluster reproduces the same dispatch
/// sequence and the same simulated timeline, and a saturating trace uses
/// every device (earliest-free with lowest-index tie-break).
#[test]
fn heterogeneous_dispatch_is_deterministic_and_spreads_load() {
    let fx = Fixture::trained("letter");
    for devices in hetero_mixes() {
        let n = devices.len();
        let run = || {
            let mut cluster =
                GpuCluster::new(devices.clone(), &fx.forest, EngineOptions::tahoe());
            ClusterServingSim::new(&mut cluster, BatchingPolicy::new(16, 5_000.0))
                .run_uniform_trace(&fx.samples, 600, 20.0)
        };
        let first = run();
        let second = run();
        assert_eq!(first.batch_devices, second.batch_devices, "dispatch sequence");
        assert_eq!(
            first.report.makespan_ns.to_bits(),
            second.report.makespan_ns.to_bits()
        );
        assert_eq!(first.report.batches, second.report.batches);
        // The first batch goes to device 0 (all free, lowest index wins); a
        // saturating trace then pulls in every device.
        assert_eq!(first.batch_devices[0], 0);
        for d in 0..n {
            assert!(
                first.batch_devices.contains(&d),
                "{n} devices: device {d} never dispatched in a saturating trace"
            );
        }
    }
}
