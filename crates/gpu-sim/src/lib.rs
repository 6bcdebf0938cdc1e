//! Trace-driven GPU execution simulator — the hardware substrate of the
//! Tahoe (EuroSys '21) reproduction.
//!
//! The paper's evaluation runs CUDA kernels on Tesla K80/P100/V100 GPUs and
//! measures memory-system effects: transaction coalescing, shared-memory
//! capacity and bandwidth, reduction overheads, warp/block load imbalance,
//! and occupancy-limited scheduling. This crate models exactly those
//! mechanisms:
//!
//! - [`device`] — per-generation device parameters (three paper GPUs).
//! - [`memory`] — simulated global address space (addresses only; data stays
//!   in host slices).
//! - [`coalesce`] — per-warp-step transaction coalescing and the
//!   requested/fetched efficiency metric.
//! - [`warp`] — lockstep warp tracer with per-lane busy times and per-level
//!   statistics.
//! - [`block`] — block timing: `max(bandwidth bound, critical path) +
//!   reductions`.
//! - [`kernel`] — grid scheduling in occupancy-limited waves, with
//!   deterministic block sampling + extrapolation for huge grids.
//! - [`reduction`] — functional tree reductions (cub-order).
//! - [`occupancy`] — residency limits.
//! - [`microbench`] — "offline" hardware-parameter measurement feeding the
//!   paper's performance models (Algorithm 1, line 4).
//! - [`multigpu`] — data-parallel multi-device runs (§7.5 scaling).
//! - [`metrics`] — CV / A.C.V. imbalance statistics.
//! - [`parallel`] — host-side parallel map for simulation work
//!   (`TAHOE_SIM_THREADS` overrides the worker count).
//! - [`telemetry`] — the append-only telemetry event log (zero-cost when
//!   disabled), its typed counters and the Chrome trace / metrics views.
//! - [`profile`] — per-kernel Nsight-style reports and latency histograms,
//!   a view of the log.
//! - [`timeseries`] — the windowed view of the log: counter deltas and
//!   gauges on fixed simulated-clock windows.
//! - [`decision`] — the flight-recorder view of the log: per-tuning-event
//!   decision audits and per-request critical-path records.
//!
//! # Examples
//!
//! Sampled blocks fan out across host worker threads via
//! [`kernel::KernelSim::simulate_blocks`]; results merge in plan order, so
//! the outcome is bit-identical however many workers ran.
//!
//! ```
//! use tahoe_gpu_sim::device::DeviceSpec;
//! use tahoe_gpu_sim::kernel::{sample_plan, Detail, KernelSim};
//!
//! let device = DeviceSpec::tesla_p100();
//! let mut kernel = KernelSim::new(&device, 128, 256, 0);
//! let plan = sample_plan(128, Detail::Sampled(8));
//! kernel.simulate_blocks(&plan, |_block_idx, mut block| {
//!     let mut warp = block.warp();
//!     let accesses: Vec<(u8, u64)> = (0..32).map(|i| (i as u8, 0x1000 + i * 4)).collect();
//!     warp.gmem_read(&accesses, 4, None);
//!     block.push_warp(warp.finish());
//!     block.finish()
//! });
//! let result = kernel.finish();
//! assert!(result.total_ns > 0.0);
//! assert!((result.gmem.efficiency() - 1.0).abs() < 1e-12);
//! ```

pub mod block;
pub mod coalesce;
pub mod decision;
pub mod device;
pub mod kernel;
pub mod memory;
pub mod metrics;
pub mod microbench;
pub mod multigpu;
pub mod occupancy;
pub mod parallel;
pub mod profile;
pub mod reduction;
pub mod telemetry;
pub mod timeseries;
pub mod warp;

pub use block::{BlockResult, BlockSim};
pub use coalesce::AccessStats;
pub use decision::{DecisionCandidate, DecisionRecord, DecisionsExport, RequestPathRecord};
pub use device::{Arch, DeviceSpec};
pub use kernel::{sample_plan, sample_plan_by_class, Detail, KernelResult, KernelSim};
pub use memory::{DeviceMemory, GlobalBuffer, OomError, ALLOC_ALIGN};
pub use microbench::{measure, MeasuredParams};
pub use parallel::{parallel_map, set_sim_threads, sim_threads};
pub use profile::{
    HistogramExport, KernelProfile, LatencyHistogram, OccupancyLimiter, ProfilesExport,
    TimeBreakdown,
};
pub use telemetry::{
    Counter, Event, MetricsSnapshot, SpanEvent, SpanName, TelemetrySink, VIEW_FILES,
};
pub use timeseries::{SeriesExport, SeriesPoint, TimeSeriesExport, WINDOW_NS};
pub use warp::{LevelStats, WarpResult, WarpSim, MAX_WARP_LANES};

/// Has no effect; it stays only because `bench-ledger` calls it.
pub fn set_sim_memo(_enabled: Option<bool>) {}
