//! Fig. 9 — strong scaling on 1–128 V100s.
//!
//! Strong scaling partitions the inference batch evenly across devices and
//! simulates **every** non-empty partition on its own engine (a
//! [`GpuCluster`] of V100s); end-to-end time is the slowest device's, and
//! the record keeps per-device times and memory high-water marks. Counts
//! with more devices than samples are not genuine multi-GPU runs: their
//! empty partitions are skipped and their speedup is reported as `None`
//! (rendered as a dash, never `inf`).
//!
//! The paper's §7.5 weak-scaling check (< 5 % variance as devices are
//! added) holds by construction here: no inter-device coupling is
//! modelled, so a device's time depends only on its own shard and slot.
//! `tests/multi_gpu.rs` pins that premise; weak scaling returns once a
//! shared resource (such as the host link) is modelled.

use serde::Serialize;

use tahoe::cluster::{DeviceRun, GpuCluster};
use tahoe_gpu_sim::device::DeviceSpec;

use crate::data::{batch_of, Prepared};
use crate::env::Env;
use crate::experiments::{tahoe_opts, HIGH_BATCH};
use crate::report::{f2, write_json, Table};

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

/// One dataset's scaling curves.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    /// Dataset name.
    pub dataset: String,
    /// Dataset id.
    pub dataset_id: usize,
    /// Strong-scaling points, per [`GPU_COUNTS`] entry.
    pub strong: Vec<StrongPoint>,
}

/// Fig. 9 record.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingResult {
    /// One row per dataset.
    pub rows: Vec<ScalingRow>,
}

/// Runs strong scaling on simulated V100s over `prepared`, at every
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
        rows.push(ScalingRow {
            dataset: p.spec.name.to_string(),
            dataset_id: p.spec.id,
            strong,
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
    write_json("fig9_scaling", result);
}
