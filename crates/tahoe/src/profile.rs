//! Per-kernel profiler re-exports (DESIGN.md §2.9).
//!
//! The profiler view — [`KernelProfile`] capture in `KernelSim::finish` and
//! log-bucketed [`LatencyHistogram`]s of kernel durations and served
//! requests' latencies — lives in [`tahoe_gpu_sim::profile`]; this module
//! re-exports it so engine-level code and downstream consumers (bench
//! harness, CLI) have one import path. The model's drift per launch lives
//! in the decision records ([`crate::telemetry::decision`]).

pub use tahoe_gpu_sim::profile::{
    HistogramBucket, HistogramExport, KernelProfile, LatencyHistogram, LaunchStats,
    OccupancyLimiter, ProfilesExport, TimeBreakdown, HISTOGRAM_BUCKETS,
};
