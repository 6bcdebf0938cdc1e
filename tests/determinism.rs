//! Cross-crate determinism gate for the parallel simulation pipeline.
//!
//! `KernelSim::simulate_blocks` fans sampled blocks out across host worker
//! threads but merges results in plan order, so `finish()` accumulates its
//! floating-point sums in the same sequence regardless of worker count. This
//! test pins that guarantee end-to-end: every strategy runs at 1 and at 4
//! workers, and both must produce bit-identical `KernelResult`s and
//! byte-identical exports (Chrome trace, metrics, kernel profiles, windowed
//! time series, decisions). `scripts/verify.sh` additionally runs this
//! binary at `TAHOE_SIM_THREADS=1` and `4` to exercise the
//! environment-variable path.

use std::sync::Mutex;

use serde_json::Value;
use tahoe::cluster::GpuCluster;
use tahoe::engine::{Engine, EngineOptions};
use tahoe::serving::{BatchingPolicy, ClusterServingSim};
use tahoe::strategy::testutil::{context, Fixture};
use tahoe::strategy::{self, LaunchContext, Strategy, StrategyRun};
use tahoe::telemetry::{TelemetryCtx, TelemetrySink};
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::{Detail, KernelResult};
use tahoe_gpu_sim::parallel::set_sim_threads;

/// Serializes tests that write the process-global worker override
/// (`set_sim_threads`): two override writers interleaving would observe
/// each other's settings mid-run.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Asserts every field of two kernel results matches bit-for-bit (floats
/// compared via `to_bits`, so `-0.0` vs `0.0` or any ULP drift fails).
fn assert_bit_identical(a: &KernelResult, b: &KernelResult, what: &str) {
    assert_eq!(a.grid_blocks, b.grid_blocks, "{what}: grid_blocks");
    assert_eq!(a.threads_per_block, b.threads_per_block, "{what}: threads_per_block");
    assert_eq!(a.sampled_blocks, b.sampled_blocks, "{what}: sampled_blocks");
    assert_eq!(a.concurrent_blocks, b.concurrent_blocks, "{what}: concurrent_blocks");
    assert_eq!(a.total_ns.to_bits(), b.total_ns.to_bits(), "{what}: total_ns");
    assert_eq!(
        a.block_reduction_wall_ns.to_bits(),
        b.block_reduction_wall_ns.to_bits(),
        "{what}: block_reduction_wall_ns"
    );
    assert_eq!(
        a.global_reduction_ns.to_bits(),
        b.global_reduction_ns.to_bits(),
        "{what}: global_reduction_ns"
    );
    assert_eq!(
        a.mean_block_wall_ns.to_bits(),
        b.mean_block_wall_ns.to_bits(),
        "{what}: mean_block_wall_ns"
    );
    assert_eq!(
        a.mean_block_critical_ns.to_bits(),
        b.mean_block_critical_ns.to_bits(),
        "{what}: mean_block_critical_ns"
    );
    assert_eq!(
        a.max_block_wall_ns.to_bits(),
        b.max_block_wall_ns.to_bits(),
        "{what}: max_block_wall_ns"
    );
    assert_eq!(a.gmem, b.gmem, "{what}: gmem");
    assert_eq!(a.smem, b.smem, "{what}: smem");
    assert_eq!(a.steps, b.steps, "{what}: steps");
    assert_eq!(a.active_lane_steps, b.active_lane_steps, "{what}: active_lane_steps");
    assert_eq!(a.warp_size, b.warp_size, "{what}: warp_size");
    // Imbalance vectors: same blocks, same lanes, same busy times, same order.
    assert_eq!(
        a.thread_busy_per_block.len(),
        b.thread_busy_per_block.len(),
        "{what}: sampled block count"
    );
    for (i, (ba, bb)) in a
        .thread_busy_per_block
        .iter()
        .zip(&b.thread_busy_per_block)
        .enumerate()
    {
        assert_eq!(ba.len(), bb.len(), "{what}: block {i} lane count");
        for (lane, (x, y)) in ba.iter().zip(bb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: block {i} lane {lane} busy");
        }
    }
    // Per-level statistics (Fig. 2a instrumentation).
    assert_eq!(
        a.levels.keys().collect::<Vec<_>>(),
        b.levels.keys().collect::<Vec<_>>(),
        "{what}: level keys"
    );
    for (lvl, sa) in &a.levels {
        let sb = &b.levels[lvl];
        assert_eq!(sa.access, sb.access, "{what}: level {lvl} access");
        assert_eq!(
            sa.distance_sum.to_bits(),
            sb.distance_sum.to_bits(),
            "{what}: level {lvl} distance_sum"
        );
        assert_eq!(sa.distance_steps, sb.distance_steps, "{what}: level {lvl} distance_steps");
    }
}

/// One strategy run plus its telemetry exports, captured under a forced
/// worker count. Caller must hold [`OVERRIDE_LOCK`].
struct ConfigRun {
    workers: usize,
    run: Option<StrategyRun>,
    trace: String,
    metrics: String,
    profiles: String,
    timeseries: String,
    decisions: String,
}

fn run_config(ctx: &LaunchContext<'_>, s: Strategy, workers: usize) -> ConfigRun {
    let sink = TelemetrySink::recording();
    set_sim_threads(Some(workers));
    let mut c = *ctx;
    c.telemetry = TelemetryCtx { sink: &sink, t0_ns: 0.0 };
    let run = strategy::run(s, &c);
    set_sim_threads(None);
    ConfigRun {
        workers,
        run,
        trace: sink.chrome_trace_json(),
        metrics: sink.metrics_json(),
        profiles: sink.profiles_json(),
        timeseries: sink.timeseries_json(),
        decisions: sink.decisions_json(),
    }
}

/// All four strategies at 1 and at 4 workers: bit-identical kernel results
/// and byte-identical exports.
///
/// Holds [`OVERRIDE_LOCK`] so the forced phases never interleave with the
/// other override writer ([`calibrated_decisions_are_identical_across_workers`]).
#[test]
fn parallel_simulation_is_bit_identical_to_one_thread() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for dataset in ["letter", "higgs"] {
        let fx = Fixture::trained(dataset);
        // Full detail on the smoke-scale grid: every block simulated, so the
        // merge order is exercised across the whole grid. 32-thread blocks
        // keep every strategy's grid above the parallel driver's sequential
        // cutoff (asserted below) — at the 256-thread default most smoke
        // grids collapse to a handful of blocks and the fan-out path would
        // never run.
        let mut ctx = context(&fx, Detail::Full);
        ctx.block_threads = 32;
        for s in Strategy::ALL {
            // 4 workers even on a 1-core host: oversubscription changes
            // scheduling, never results.
            let base = run_config(&ctx, s, 1);
            let other = run_config(&ctx, s, 4);
            let what = format!("{dataset}/{s} workers={}", other.workers);
            match (&base.run, &other.run) {
                (Some(a), Some(b)) => {
                    assert!(
                        a.kernel.sampled_blocks > 4,
                        "{what}: grid too small to exercise the parallel driver"
                    );
                    assert_bit_identical(&a.kernel, &b.kernel, &what);
                    assert_eq!(a.geometry, b.geometry, "{what}: geometry");
                    assert_eq!(a.n_samples, b.n_samples, "{what}: n_samples");
                }
                (None, None) => {} // infeasible either way — consistent
                _ => panic!("{what}: feasibility changed with worker count"),
            }
            // The files users diff are the serialized strings, so every
            // export must match byte for byte.
            assert_eq!(base.trace, other.trace, "{what}: Chrome trace differs");
            assert_eq!(base.decisions, other.decisions, "{what}: decisions differ");
            assert_eq!(base.metrics, other.metrics, "{what}: metrics differ");
            assert_eq!(base.profiles, other.profiles, "{what}: profiles differ");
            assert_eq!(base.timeseries, other.timeseries, "{what}: timeseries differ");
        }
    }
    // Multi-GPU cluster serving rides on the same guarantee: every device
    // records into the cluster's one log from the caller thread, in
    // dispatch order, so its exports must also be byte-identical at any
    // worker count.
    set_sim_threads(Some(1));
    let seq = cluster_serving_exports();
    set_sim_threads(Some(4));
    let par = cluster_serving_exports();
    set_sim_threads(None);
    assert_eq!(seq.0, par.0, "cluster: Chrome trace differs");
    assert_eq!(seq.1, par.1, "cluster: metrics differ");
    assert_eq!(seq.2, par.2, "cluster: profiles differ");
    assert_eq!(seq.3, par.3, "cluster: timeseries differ");
    assert_eq!(seq.4, par.4, "cluster: decisions differ");
}

/// Exports from a heterogeneous multi-GPU serving trace, built under the
/// current worker-count override (caller sets it while holding
/// [`OVERRIDE_LOCK`]).
fn cluster_serving_exports() -> (String, String, String, String, String) {
    let fx = Fixture::trained("letter");
    let sink = TelemetrySink::recording();
    let devices = vec![
        DeviceSpec::tesla_k80(),
        DeviceSpec::tesla_p100(),
        DeviceSpec::tesla_v100(),
    ];
    let mut cluster =
        GpuCluster::with_telemetry(devices, &fx.forest, EngineOptions::tahoe(), sink.clone());
    // A deadline tags the report with SLO attainment; it adds observability
    // only and must not perturb the replay (pinned by
    // `tests/timeseries_schema.rs`).
    let report = ClusterServingSim::new(&mut cluster, BatchingPolicy::new(32, 10_000.0))
        .run_uniform_trace_with_deadline(&fx.samples, 200, 50.0, Some(500_000.0));
    assert_eq!(report.report.n_requests(), 200);
    (
        sink.chrome_trace_json(),
        sink.metrics_json(),
        sink.profiles_json(),
        sink.timeseries_json(),
        sink.decisions_json(),
    )
}

/// A calibrating engine (drift-driven recalibration, DESIGN.md §2.16) stays
/// byte-identical across worker counts: the calibrator consumes only
/// simulated-clock values, which worker scheduling may not change.
#[test]
fn calibrated_decisions_are_identical_across_workers() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fx = Fixture::trained("letter");
    let run = |workers: usize| -> String {
        set_sim_threads(Some(workers));
        let sink = TelemetrySink::recording();
        let mut engine = Engine::with_telemetry(
            DeviceSpec::tesla_p100(),
            fx.forest.clone(),
            EngineOptions {
                calibration: true,
                ..EngineOptions::tahoe()
            },
            sink.clone(),
        );
        for _ in 0..12 {
            let _ = engine.infer_with(&fx.samples, Some(Strategy::Direct));
        }
        set_sim_threads(None);
        assert!(
            engine.calibrator().generation() > 0,
            "twelve repeated batches must trigger a refit"
        );
        sink.decisions_json()
    };
    let base = run(1);
    assert_eq!(base, run(4), "calibrated decisions differ at 4 workers");
    let doc: Value = serde_json::from_str(&base).expect("decisions parse");
    let decisions = doc["decisions"].as_array().expect("decisions array");
    assert!(
        decisions
            .iter()
            .any(|d| d["calibration_generation"].as_u64().unwrap_or(0) > 0),
        "the export records post-refit generations"
    );
}

/// Repeated runs under the ambient configuration (whatever
/// `TAHOE_SIM_THREADS` / core count says) are self-consistent. Safe to race
/// with the override tests: the worker count may never change results.
#[test]
fn repeated_runs_are_self_consistent() {
    let fx = Fixture::trained("ijcnn1");
    let ctx = context(&fx, Detail::Sampled(8));
    for s in Strategy::ALL {
        let Some(first) = strategy::run(s, &ctx) else {
            continue;
        };
        let second = strategy::run(s, &ctx).expect("feasibility is deterministic");
        assert_bit_identical(&first.kernel, &second.kernel, s.name());
    }
}
