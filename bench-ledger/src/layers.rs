//! Per-layer measurement from the benchmark's own side of the public API:
//! a pausable wall-clock tracer, the replay that splits `Engine::infer` into
//! its public parts, and the simulated per-layer values read back from a
//! recording telemetry sink.

use std::collections::BTreeMap;
use std::time::Instant;

use tahoe::strategy::common::THREADS_PER_BLOCK;
use tahoe::{
    strategy, tune, Engine, LaunchContext, ModelInputs, StrategyRun, TelemetryCtx, TelemetrySink,
};
use tahoe_datasets::SampleMatrix;
use tahoe_forest::ForestStats;
use tahoe_gpu_sim::memory::GLOBAL_BASE;
use tahoe_gpu_sim::GlobalBuffer;

use crate::metrics::Outcome;

/// Wall clock with spans and paused stretches. The traced wall time is the
/// elapsed time minus everything run under [`Tracer::pause`] (replays,
/// checks, comparison runs); `other` is the traced wall time outside every
/// span.
pub struct Tracer {
    t0: Instant,
    paused_s: f64,
    spans: Vec<(&'static str, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Starts the clock.
    #[must_use]
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            paused_s: 0.0,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed().as_secs_f64();
        self.spans.push((name, dur));
        (out, dur)
    }

    /// Runs `f` off the clock.
    pub fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.paused_s += t.elapsed().as_secs_f64();
        out
    }

    /// Traced wall time so far (s).
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() - self.paused_s
    }

    /// Total duration of the spans named `name` (s).
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .fold(0.0, |acc, (_, d)| acc + d)
    }

    /// Total duration of all spans (s).
    #[must_use]
    pub fn covered_s(&self) -> f64 {
        self.spans.iter().fold(0.0, |acc, (_, d)| acc + d)
    }

    /// `(name, count, total seconds)` per span name, in first-seen order.
    #[must_use]
    pub fn summary(&self) -> Vec<(&'static str, usize, f64)> {
        let mut out: Vec<(&'static str, usize, f64)> = Vec::new();
        for &(name, d) in &self.spans {
            match out.iter_mut().find(|(n, _, _)| *n == name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += d;
                }
                None => out.push((name, 1, d)),
            }
        }
        out
    }
}

/// Host seconds per engine part, summed over replayed batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct Parts {
    /// `ModelInputs::gather`.
    pub gather_s: f64,
    /// `tune::tune_all_with`.
    pub tune_s: f64,
    /// `strategy::run` (block simulation).
    pub simulate_s: f64,
    /// `DeviceForest::predict_batch` (functional prediction).
    pub predict_s: f64,
    /// Blocks simulated in detail.
    pub sampled_blocks: u64,
}

impl Parts {
    /// Sum of the four timed parts (s).
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.gather_s + self.tune_s + self.simulate_s + self.predict_s
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Replays one batch through the public parts of `Engine::infer`
/// (Algorithm 1 lines 8–15 plus the functional pass), timing each:
/// `ModelInputs::gather` → `tune::tune_all_with` → `strategy::run` on the
/// cheapest plan → `predict_batch`. The launch stages from a phantom
/// 256-byte-aligned buffer, which simulates exactly like the engine's own
/// staging buffer; with calibration off the replayed kernel time equals the
/// engine's bit for bit (checked by the workloads).
///
/// # Panics
///
/// Panics when the engine runs without model selection or the chosen
/// strategy is infeasible (both impossible for the workloads' engines).
pub fn replay(
    engine: &Engine,
    stats: &ForestStats,
    batch: &SampleMatrix,
    parts: &mut Parts,
) -> (StrategyRun, Vec<f32>) {
    assert!(
        engine.options().model_selection,
        "replay follows model selection"
    );
    let forest = engine.device_forest();
    let inputs = timed(&mut parts.gather_s, || {
        ModelInputs::gather(forest, stats, batch)
    });
    let ctx = LaunchContext {
        device: engine.device(),
        forest,
        samples: batch,
        sample_buf: GlobalBuffer {
            base: GLOBAL_BASE,
            bytes: (batch.n_samples() * batch.n_attributes() * 4) as u64,
        },
        detail: engine.options().detail,
        block_threads: THREADS_PER_BLOCK,
        telemetry: TelemetryCtx::disabled(),
    };
    let cal = engine.options().calibration.then(|| engine.calibrator());
    let tuned = timed(&mut parts.tune_s, || {
        tune::tune_all_with(&ctx, &inputs, engine.hardware_params(), cal)
    });
    let &(chosen, threads, _) = tuned
        .first()
        .expect("shared data and direct are always feasible");
    let run = timed(&mut parts.simulate_s, || {
        strategy::run(
            chosen,
            &LaunchContext {
                block_threads: threads,
                ..ctx
            },
        )
        .expect("tuned strategy is feasible")
    });
    parts.sampled_blocks += run.kernel.sampled_blocks as u64;
    let predictions = timed(&mut parts.predict_s, || forest.predict_batch(batch));
    (run, predictions)
}

/// Host seconds of one traced pass, by layer; [`HostLayers::report`] turns
/// them into the per-layer host metrics. Layers a workload bypasses stay 0.
#[derive(Debug, Default)]
pub struct HostLayers {
    /// `gpu_sim::measure` (or the rest of `Engine::new` for a bare engine).
    pub measure_s: f64,
    /// Rearrangement, from `Engine::conversion()`.
    pub rearrange_s: f64,
    /// Device-format build, from `Engine::conversion()`.
    pub build_s: f64,
    /// Cluster set-up beyond its engines' constructions.
    pub replicate_s: f64,
    /// The replayed engine parts.
    pub parts: Parts,
    /// Wall time of the calls the replays split (telemetry off).
    pub execute_s: f64,
    /// `update_forest` beyond annotation, rearrangement and build.
    pub update_self_s: f64,
    /// Edge-probability annotation in `update_forest`, re-timed.
    pub annotate_s: f64,
    /// Extra wall time of the recorded calls over their telemetry-off twins.
    pub record_s: f64,
    /// Serializing the five telemetry views.
    pub export_s: f64,
    /// Bytes of the five views.
    pub export_bytes: usize,
}

impl HostLayers {
    /// Sets every per-layer host metric. `tracer` is the traced pass's;
    /// `untraced_wall_s` the median wall time of the untraced passes.
    pub fn report(&self, tracer: &Tracer, untraced_wall_s: f64, out: &mut Outcome) {
        let wall = tracer.wall_s();
        let p = &self.parts;
        out.set("gpu_sim.measure_s", self.measure_s);
        out.set("rearrange.s", self.rearrange_s);
        out.set("format.build_s", self.build_s);
        out.set("perfmodel.gather_s", p.gather_s);
        out.set("tune.s", p.tune_s);
        out.set("strategy.simulate_s", p.simulate_s);
        out.set("format.predict_s", p.predict_s);
        out.set("execute.self_s", self.execute_s - p.total_s());
        out.set("other_s", wall - tracer.covered_s());
        out.set("engine.update_share", self.update_self_s / wall);
        out.set("forest.annotate_share", self.annotate_s / wall);
        out.set("cluster.replicate_share", self.replicate_s / wall);
        out.set("telemetry.record_share", self.record_s / wall);
        out.set("telemetry.export_share", self.export_s / wall);
        out.set("telemetry.export_mb", self.export_bytes as f64 / 1e6);
        out.set("trace.coverage", tracer.covered_s() / wall);
        out.set("trace.overhead", wall / untraced_wall_s - 1.0);
        out.set("trace.replay_ratio", p.total_s() / self.execute_s);
        out.set(
            "strategy.host_ns_per_sampled_block",
            p.simulate_s * 1e9 / p.sampled_blocks.max(1) as f64,
        );
        let spans: Vec<String> = tracer
            .summary()
            .iter()
            .map(|(n, c, s)| format!("{n} x{c} {s:.3}s"))
            .collect();
        out.note(format!("traced pass: wall {wall:.3} s; spans {spans:?}"));
    }
}

/// Largest absolute difference between two prediction vectors (infinite
/// when their lengths differ or only one side of a pair is NaN).
#[must_use]
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| match (x.is_nan(), y.is_nan()) {
            (true, true) => 0.0,
            (false, false) if x == y => 0.0,
            (false, false) => (x - y).abs(),
            _ => f32::INFINITY,
        })
        .fold(0.0, f32::max)
}

/// Absolute tolerance for device vs CPU-reference predictions: the device
/// image sums trees in rearranged order, so float sums may differ in the
/// last bits (the repository's end-to-end tests use the same bound).
pub const PREDICTION_TOLERANCE: f32 = 1e-3;

fn share(part: f64, total: f64) -> f64 {
    if total > 0.0 {
        part / total
    } else {
        0.0
    }
}

/// Simulated per-layer values from a recording sink: the kernel-time
/// breakdown and efficiencies (profiles), block-memo and tuning-cache hit
/// ratios, model error and strategy shares (decision records). Pure
/// functions of simulated-clock records, so repeated passes must agree bit
/// for bit.
#[must_use]
pub fn sim_layers(sink: &TelemetrySink) -> BTreeMap<&'static str, f64> {
    let profiles = sink.profiles().kernels;
    let mut parts = [0.0f64; 5];
    let (mut total, mut simt_weighted) = (0.0f64, 0.0f64);
    let (mut requested, mut fetched) = (0u64, 0u64);
    let (mut hits, mut misses, mut sampled) = (0u64, 0u64, 0u64);
    for p in &profiles {
        let b = &p.breakdown;
        for (acc, v) in parts.iter_mut().zip([
            b.traversal_ns,
            b.staging_ns,
            b.block_reduction_ns,
            b.global_reduction_ns,
            b.bandwidth_stall_ns,
        ]) {
            *acc += v;
        }
        total += p.total_ns;
        simt_weighted += p.warp_exec_efficiency * p.total_ns;
        requested += p.gmem_requested_bytes;
        fetched += p.gmem_fetched_bytes;
        hits += p.memo_hits;
        misses += p.memo_misses;
        sampled += p.sampled_blocks;
    }
    let mut out = BTreeMap::new();
    for (name, v) in [
        "kernel.traversal_share",
        "kernel.staging_share",
        "kernel.block_reduction_share",
        "kernel.global_reduction_share",
        "kernel.bandwidth_stall_share",
    ]
    .into_iter()
    .zip(parts)
    {
        out.insert(name, share(v, total));
    }
    out.insert("kernel.simt_efficiency", share(simt_weighted, total));
    out.insert(
        "kernel.gmem_efficiency",
        if fetched == 0 {
            1.0
        } else {
            requested as f64 / fetched as f64
        },
    );
    out.insert(
        "gpu_sim.memo_hit_ratio",
        share(hits as f64, (hits + misses) as f64),
    );
    out.insert("strategy.sampled_blocks", sampled as f64);

    let decisions = sink.decisions().decisions;
    let n = decisions.len() as f64;
    let err: f64 = decisions.iter().map(|d| d.relative_error.abs()).sum();
    out.insert("perfmodel.abs_rel_err_mean", share(err, n));
    let cache_hits = decisions.iter().filter(|d| d.cache_hit).count();
    out.insert("tune.cache_hit_ratio", share(cache_hits as f64, n));
    for s in strategy::Strategy::ALL {
        let chosen = decisions
            .iter()
            .filter(|d| d.chosen_strategy == s.name())
            .count();
        out.insert(strategy_share_name(s), share(chosen as f64, n));
    }
    out
}

/// Metric name of a strategy's share of launches.
#[must_use]
pub fn strategy_share_name(s: strategy::Strategy) -> &'static str {
    match s {
        strategy::Strategy::SharedData => "strategy.share.shared_data",
        strategy::Strategy::Direct => "strategy.share.direct",
        strategy::Strategy::SharedForest => "strategy.share.shared_forest",
        strategy::Strategy::SplittingSharedForest => "strategy.share.splitting_shared_forest",
    }
}

/// Serving critical-path shares (form / queue / execute) over a slice of
/// request-path records, e.g. one ladder rate's requests.
#[must_use]
pub fn serving_shares(sink: &TelemetrySink, range: std::ops::Range<usize>) -> [f64; 3] {
    let requests = sink.decisions().requests;
    let slice = &requests[range.start.min(requests.len())..range.end.min(requests.len())];
    let (mut form, mut queue, mut exec, mut total) = (0.0, 0.0, 0.0, 0.0);
    for r in slice {
        form += r.form_ns;
        queue += r.queue_ns;
        exec += r.execute_ns;
        total += r.total_ns;
    }
    [share(form, total), share(queue, total), share(exec, total)]
}

/// Bytes of all five telemetry views (Chrome trace, counters, kernel
/// profiles, time series, decisions), serialized one after another.
#[must_use]
pub fn export_views(sink: &TelemetrySink) -> usize {
    sink.chrome_trace_json().len()
        + sink.metrics_json().len()
        + sink.profiles_json().len()
        + sink.timeseries_json().len()
        + sink.decisions_json().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_flags_lengths_and_one_sided_nan() {
        assert_eq!(max_abs_diff(&[1.0, f32::NAN], &[1.5, f32::NAN]), 0.5);
        assert_eq!(max_abs_diff(&[1.0, f32::NAN], &[1.0, 2.0]), f32::INFINITY);
        assert_eq!(max_abs_diff(&[1.0], &[1.0, 2.0]), f32::INFINITY);
        assert_eq!(max_abs_diff(&[f32::INFINITY], &[f32::INFINITY]), 0.0);
    }
}
