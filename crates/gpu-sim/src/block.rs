//! Thread-block aggregation.
//!
//! A block tracer collects its warps' traces into raw quantities — critical
//! path, reduction work, bytes moved per address space — but does *not*
//! decide the block's wall-clock time. Bandwidth is a shared resource whose
//! per-block share depends on how many blocks are resident per SM, which only
//! the kernel-level scheduler knows; see [`crate::kernel`] for the roofline
//! combination.

use std::collections::BTreeMap;

use crate::coalesce::AccessStats;
use crate::device::DeviceSpec;
use crate::warp::{LevelStats, WarpResult, WarpSim};

/// Completed-block summary (raw quantities; timing resolved by the kernel).
#[derive(Clone, Debug, Default)]
pub struct BlockResult {
    /// Critical path: serial time of the slowest warp (ns). Warps in a block
    /// run concurrently on one SM, and block-wide operations (reductions,
    /// `__syncthreads`) wait for the slowest — this is where tree-depth
    /// imbalance costs appear.
    pub critical_ns: f64,
    /// Time spent in block-wide reductions (ns).
    pub reduction_ns: f64,
    /// Number of block-wide reduction operations recorded.
    pub reductions: u64,
    /// Aggregated global-memory statistics.
    pub gmem: AccessStats,
    /// Aggregated shared-memory statistics.
    pub smem: AccessStats,
    /// Per-thread busy time, warp-major order.
    pub thread_busy_ns: Vec<f64>,
    /// Serial (critical-path) time of each warp, push order (ns). Feeds the
    /// telemetry span exporter's warp tracks; negligible next to
    /// `thread_busy_ns`, which is `warp_size` times larger.
    pub warp_serial_ns: Vec<f64>,
    /// Sum of the warps' serial times (ns) — the profiler's time-attribution
    /// denominator.
    pub serial_sum_ns: f64,
    /// Sum of the warps' streamed-read time (ns) — the profiler's staging
    /// numerator.
    pub streamed_ns: f64,
    /// Per-level statistics merged over warps.
    pub levels: BTreeMap<u32, LevelStats>,
    /// Number of warps simulated.
    pub n_warps: usize,
    /// Total lockstep steps over all warps.
    pub steps: u64,
    /// Sum of active lanes over all steps (SIMT-efficiency numerator).
    pub active_lane_steps: u64,
}

/// Tracer for one thread block.
pub struct BlockSim<'d> {
    device: &'d DeviceSpec,
    warps: Vec<WarpResult>,
    reduction_ns: f64,
    reductions: u64,
}

impl<'d> BlockSim<'d> {
    /// Starts tracing a block on `device`.
    #[must_use]
    pub fn new(device: &'d DeviceSpec) -> Self {
        Self {
            device,
            warps: Vec::new(),
            reduction_ns: 0.0,
            reductions: 0,
        }
    }

    /// The device this block runs on.
    #[must_use]
    pub fn device(&self) -> &'d DeviceSpec {
        self.device
    }

    /// Creates a warp tracer for this block's device.
    #[must_use]
    pub fn warp(&self) -> WarpSim<'d> {
        WarpSim::new(self.device)
    }

    /// Records a finished warp.
    pub fn push_warp(&mut self, warp: WarpResult) {
        self.warps.push(warp);
    }

    /// Records one block-wide reduction over `n_threads` partial values
    /// (cub::BlockReduce-style). Returns the cost charged.
    pub fn block_reduce(&mut self, n_threads: usize) -> f64 {
        let cost = self.device.block_reduce_base_ns
            + self.device.block_reduce_ns_per_thread * n_threads as f64;
        self.reduction_ns += cost;
        self.reductions += 1;
        cost
    }

    /// Finalizes the block.
    #[must_use]
    pub fn finish(self) -> BlockResult {
        let mut gmem = AccessStats::default();
        let mut smem = AccessStats::default();
        let mut levels: BTreeMap<u32, LevelStats> = BTreeMap::new();
        let mut critical_ns = 0.0f64;
        let mut steps = 0u64;
        let mut active_lane_steps = 0u64;
        let mut thread_busy_ns =
            Vec::with_capacity(self.warps.len() * self.device.warp_size as usize);
        let mut warp_serial_ns = Vec::with_capacity(self.warps.len());
        let mut serial_sum_ns = 0.0f64;
        let mut streamed_ns = 0.0f64;
        for w in &self.warps {
            gmem.merge(&w.gmem);
            smem.merge(&w.smem);
            critical_ns = critical_ns.max(w.serial_ns);
            serial_sum_ns += w.serial_ns;
            streamed_ns += w.streamed_ns;
            steps += w.steps;
            active_lane_steps += w.active_lane_steps;
            thread_busy_ns.extend_from_slice(&w.lane_busy_ns);
            warp_serial_ns.push(w.serial_ns);
            for (lvl, stats) in &w.levels {
                levels.entry(*lvl).or_default().merge(stats);
            }
        }
        BlockResult {
            critical_ns,
            reduction_ns: self.reduction_ns,
            reductions: self.reductions,
            gmem,
            smem,
            thread_busy_ns,
            warp_serial_ns,
            serial_sum_ns,
            streamed_ns,
            levels,
            n_warps: self.warps.len(),
            steps,
            active_lane_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_block(warp_serials: &[usize]) -> BlockResult {
        let d = DeviceSpec::tesla_p100();
        let mut b = BlockSim::new(&d);
        for &steps in warp_serials {
            let mut w = b.warp();
            for s in 0..steps {
                let accesses: Vec<(u8, u64)> =
                    (0..32).map(|i| (i as u8, 0x1000 + (s as u64) * 128 + i * 4)).collect();
                w.gmem_read(&accesses, 4, None);
            }
            b.push_warp(w.finish());
        }
        b.finish()
    }

    #[test]
    fn critical_path_is_longest_warp() {
        let d = DeviceSpec::tesla_p100();
        let r = traced_block(&[1, 4, 2]);
        assert!((r.critical_ns - 4.0 * d.gmem_latency_ns).abs() < 1e-9);
        assert_eq!(r.n_warps, 3);
    }

    #[test]
    fn bytes_accumulate_across_warps() {
        let r = traced_block(&[2, 3]);
        // 5 coalesced steps x 128 B.
        assert_eq!(r.gmem.fetched_bytes, 5 * 128);
        assert_eq!(r.gmem.requested_bytes, 5 * 128);
        assert_eq!(r.gmem.transactions, 5);
    }

    #[test]
    fn reduction_cost_follows_device_rates() {
        let d = DeviceSpec::tesla_p100();
        let mut b = BlockSim::new(&d);
        let mut w = b.warp();
        w.gmem_read(&[(0, 0x1000)], 4, None);
        b.push_warp(w.finish());
        let cost = b.block_reduce(256);
        let expected = d.block_reduce_base_ns + 256.0 * d.block_reduce_ns_per_thread;
        assert!((cost - expected).abs() < 1e-9);
        let r = b.finish();
        assert!((r.reduction_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn thread_busy_times_are_collected_per_lane() {
        let r = traced_block(&[2, 3]);
        assert_eq!(r.thread_busy_ns.len(), 64);
        // Warp 0 lanes did 2 steps, warp 1 lanes did 3.
        assert!(r.thread_busy_ns[0] < r.thread_busy_ns[32]);
    }

    #[test]
    fn empty_block_is_all_zero() {
        let d = DeviceSpec::tesla_v100();
        let r = BlockSim::new(&d).finish();
        assert_eq!(r.critical_ns, 0.0);
        assert_eq!(r.n_warps, 0);
        assert_eq!(r.gmem, AccessStats::default());
    }

    #[test]
    fn level_stats_merge_across_warps() {
        let d = DeviceSpec::tesla_p100();
        let mut b = BlockSim::new(&d);
        for _ in 0..2 {
            let mut w = b.warp();
            w.gmem_read(&[(0, 0x1000), (1, 0x1004)], 4, Some(1));
            b.push_warp(w.finish());
        }
        let r = b.finish();
        assert_eq!(r.levels[&1].access.steps, 2);
        assert_eq!(r.levels[&1].distance_steps, 2);
    }
}
