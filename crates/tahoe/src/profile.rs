//! Per-kernel profiler re-exports (DESIGN.md §2.10).
//!
//! The profiler substrate — [`KernelProfile`] capture in `KernelSim::finish`,
//! log-bucketed [`LatencyHistogram`]s, and the [`DriftRecord`] export view —
//! lives in [`tahoe_gpu_sim::profile`]; this module re-exports it so
//! engine-level code and downstream consumers (bench harness, CLI) have one
//! import path. The drift records are read back from the engine's decision
//! records (predicted vs. simulated cost per launch) at export time, and the
//! serving simulator feeds request latencies into the serving histogram.

pub use tahoe_gpu_sim::profile::{
    DriftRecord, HistogramBucket, HistogramExport, KernelProfile, LatencyHistogram,
    LaunchStats, OccupancyLimiter, ProfilesExport, TimeBreakdown, HISTOGRAM_BUCKETS,
};
