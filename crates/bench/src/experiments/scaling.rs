//! Fig. 9 — strong scaling on 1–128 V100s, plus §7.5's weak scaling.
//!
//! Strong scaling partitions the inference batch evenly across devices and
//! simulates **every** non-empty partition on its own engine (a
//! [`GpuCluster`] of V100s); end-to-end time is the slowest device's, and
//! the record keeps per-device times and memory high-water marks. Counts
//! with more devices than samples are not genuine multi-GPU runs: their
//! empty partitions are skipped and their speedup is reported as `None`
//! (rendered as a dash, never `inf`).
//!
//! Weak scaling duplicates the dataset per device. Identical replays of one
//! deterministic simulator would measure exactly zero variance, so each
//! simulated device's shard is perturbed three ways: a distinct offset
//! window into the infer pool (content), a ±batch/64 size jitter
//! (partition-remainder skew), and the cluster's deterministic
//! silicon-lottery clock spread (`tahoe::cluster`, DESIGN.md §2.11) — the
//! first two alone can still vanish under balanced forests and
//! occupancy-wave quantization, so the lottery is what guarantees the
//! <5 % variance check measures something real. Only a deterministic
//! subset of devices is simulated per count ([`weak_device_sample`]);
//! exhaustive coverage would multiply the experiment cost ~16× without
//! adding signal (EXPERIMENTS.md).

use serde::Serialize;

use tahoe::cluster::{DeviceRun, GpuCluster};
use tahoe_datasets::SampleMatrix;
use tahoe_gpu_sim::device::DeviceSpec;

use crate::data::{batch_of, Prepared};
use crate::env::Env;
use crate::experiments::{tahoe_opts, HIGH_BATCH};
use crate::report::{f2, pct, write_json, Table};

/// Device counts swept (the paper's x-axis).
pub const GPU_COUNTS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// One device's simulated share of a scaling point.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceTimeRecord {
    /// Device index within the cluster.
    pub device: usize,
    /// Samples the device served.
    pub n_samples: usize,
    /// Simulated kernel time (ns).
    pub elapsed_ns: f64,
    /// High-water simulated device-memory footprint (bytes).
    pub mem_high_water_bytes: u64,
}

impl From<DeviceRun> for DeviceTimeRecord {
    fn from(r: DeviceRun) -> Self {
        Self {
            device: r.device,
            n_samples: r.n_samples,
            elapsed_ns: r.elapsed_ns,
            mem_high_water_bytes: r.mem_high_water_bytes,
        }
    }
}

/// One strong-scaling measurement: the batch split across `n_gpus` devices.
#[derive(Clone, Debug, Serialize)]
pub struct StrongPoint {
    /// Devices the batch was partitioned across.
    pub n_gpus: usize,
    /// End-to-end time: slowest participating device (ns).
    pub end_to_end_ns: f64,
    /// Speedup over the sweep's first device count; `None` when the count
    /// exceeds the sample count (empty partitions — not a genuine
    /// `n_gpus`-way run).
    pub speedup: Option<f64>,
    /// Every simulated (non-empty) partition, in device order.
    pub per_device: Vec<DeviceTimeRecord>,
}

/// One weak-scaling measurement: the dataset duplicated per device, each
/// simulated device running its own offset window of the infer pool.
#[derive(Clone, Debug, Serialize)]
pub struct WeakPoint {
    /// Devices in the (conceptual) cluster.
    pub n_gpus: usize,
    /// Weak end-to-end time: slowest simulated device (ns).
    pub time_ns: f64,
    /// The simulated device subset (see [`weak_device_sample`]).
    pub per_device: Vec<DeviceTimeRecord>,
}

/// One dataset's scaling curves.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    /// Dataset name.
    pub dataset: String,
    /// Dataset id.
    pub dataset_id: usize,
    /// Strong-scaling points, per [`GPU_COUNTS`] entry.
    pub strong: Vec<StrongPoint>,
    /// Weak-scaling points, per [`GPU_COUNTS`] entry.
    pub weak: Vec<WeakPoint>,
    /// Weak-scaling time variation across device counts: standard deviation
    /// of the weak times over their mean.
    pub weak_variance: f64,
}

/// Fig. 9 record.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingResult {
    /// One row per dataset.
    pub rows: Vec<ScalingRow>,
}

/// Deterministic device subset simulated for weak scaling at `n_gpus`:
/// first, middle, and last device (deduplicated). Every entry runs a
/// different sample window, so three devices already yield a
/// non-degenerate variance sample at a sixteenth of exhaustive cost.
#[must_use]
pub fn weak_device_sample(n_gpus: usize) -> Vec<usize> {
    let mut v = vec![0, n_gpus / 2, n_gpus.saturating_sub(1)];
    v.dedup();
    v
}

/// A device's weak-scaling shard: roughly `batch_len` samples read from the
/// infer pool starting at a per-(count, device) offset (wrapping). Two
/// deterministic perturbations make the shard non-degenerate: distinct
/// offsets give each device a different sample window (content
/// perturbation), and a ±`batch_len`/64 size jitter models the remainder
/// imbalance of real sharded deployments (hash partitioning never splits
/// exactly evenly). Content alone is invisible to forests whose balanced
/// trees make per-sample cost uniform, and sub-wave size jitter is absorbed
/// by the occupancy-wave-quantized scheduler — the cluster's silicon-lottery
/// clock spread (DESIGN.md §2.11) backstops both, guaranteeing non-zero
/// variance on every dataset. 9973 (prime) scatters the offsets across the
/// pool.
fn offset_window(
    pool: &SampleMatrix,
    batch_len: usize,
    count_idx: usize,
    max_gpus: usize,
    device: usize,
) -> SampleMatrix {
    let n = pool.n_samples();
    let h = (count_idx * max_gpus + device) * 9973;
    let offset = h % n;
    let amp = (batch_len / 64).max(1);
    let len = (batch_len + (h / 7) % (2 * amp + 1)).saturating_sub(amp).max(1);
    let rows: Vec<usize> = (0..len).map(|i| (i + offset) % n).collect();
    pool.select(&rows)
}

/// Runs strong + weak scaling on simulated V100s over `prepared`, at every
/// [`GPU_COUNTS`] entry.
#[must_use]
pub fn run(env: &Env, prepared: &[Prepared]) -> ScalingResult {
    run_for(env, prepared, &GPU_COUNTS)
}

/// As [`run`], over explicit device counts (testable).
///
/// # Panics
///
/// Panics when `counts` is empty or contains zero.
#[must_use]
pub fn run_for(env: &Env, prepared: &[Prepared], counts: &[usize]) -> ScalingResult {
    let device = DeviceSpec::tesla_v100();
    let max_gpus = counts.iter().copied().max().expect("need at least one device count");
    let mut rows = Vec::new();
    for p in prepared {
        let batch = batch_of(&p.infer, HIGH_BATCH);
        let mut cluster = GpuCluster::with_telemetry(
            vec![device.clone(); max_gpus],
            &p.forest,
            tahoe_opts(env),
            env.sink.clone(),
        );
        // Strong: every non-empty partition simulated on its own engine.
        let mut strong: Vec<StrongPoint> = Vec::with_capacity(counts.len());
        for &n_gpus in counts {
            let run = cluster.infer_partitioned_across(&batch, n_gpus);
            let genuine = n_gpus <= batch.n_samples();
            let speedup = match (genuine, strong.first()) {
                (true, Some(base)) => Some(base.end_to_end_ns / run.total_ns),
                (true, None) => Some(1.0),
                (false, _) => None,
            };
            strong.push(StrongPoint {
                n_gpus,
                end_to_end_ns: run.total_ns,
                speedup,
                per_device: run.per_device.into_iter().map(Into::into).collect(),
            });
        }
        // Weak: per-device duplicated dataset, each simulated device on its
        // own offset window; the weak time is the slowest simulated device.
        let mut weak = Vec::with_capacity(counts.len());
        for (ki, &n_gpus) in counts.iter().enumerate() {
            let mut per_device = Vec::new();
            let mut time_ns = 0.0f64;
            for d in weak_device_sample(n_gpus) {
                let window = offset_window(&p.infer.samples, batch.n_samples(), ki, max_gpus, d);
                let run = cluster.infer_one(d, &window);
                time_ns = time_ns.max(run.elapsed_ns);
                per_device.push(DeviceTimeRecord::from(run));
            }
            weak.push(WeakPoint { n_gpus, time_ns, per_device });
        }
        let weak_times: Vec<f64> = weak.iter().map(|w| w.time_ns).collect();
        let mean = weak_times.iter().sum::<f64>() / weak_times.len() as f64;
        let var = weak_times
            .iter()
            .map(|t| (t - mean) * (t - mean))
            .sum::<f64>()
            / weak_times.len() as f64;
        rows.push(ScalingRow {
            dataset: p.spec.name.to_string(),
            dataset_id: p.spec.id,
            strong,
            weak,
            weak_variance: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        });
    }
    ScalingResult { rows }
}

/// Renders a speedup cell: two decimals, or a dash for counts that had
/// empty partitions (never `inf`/`0.00`).
fn speedup_cell(speedup: Option<f64>) -> String {
    match speedup {
        Some(s) if s.is_finite() => f2(s),
        _ => "-".to_string(),
    }
}

/// Prints Fig. 9 and writes the record.
pub fn report(result: &ScalingResult) {
    let counts: Vec<usize> = result
        .rows
        .first()
        .map(|r| r.strong.iter().map(|s| s.n_gpus).collect())
        .unwrap_or_default();
    let headers: Vec<String> = ["dataset".to_string()]
        .into_iter()
        .chain(counts.iter().map(|n| format!("{n} GPU")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("Fig 9 — strong-scaling speedup on V100s", &header_refs);
    for r in &result.rows {
        let mut cells = vec![r.dataset.clone()];
        cells.extend(r.strong.iter().map(|s| speedup_cell(s.speedup)));
        t.row(cells);
    }
    t.print();
    println!(
        "paper: large datasets scale near-linearly; small datasets (HOCK, gisette,\n\
         phishing) plateau once per-GPU work stops filling the device\n\
         (a dash marks counts with more devices than samples)"
    );
    let mut w = Table::new(
        "§7.5 — weak-scaling time variance across device counts",
        &["dataset", "variance"],
    );
    for r in &result.rows {
        w.row(vec![r.dataset.clone(), pct(r.weak_variance)]);
    }
    w.print();
    println!("paper: less than 5% variance");
    write_json("fig9_scaling", result);
}
