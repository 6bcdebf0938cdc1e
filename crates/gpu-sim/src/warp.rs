//! Lockstep warp tracer.
//!
//! A [`WarpSim`] replays one warp's execution as a sequence of *steps*. At
//! each step the active lanes issue at most one memory access or compute
//! operation; the tracer coalesces global accesses into transactions,
//! accumulates bandwidth/latency costs, and tracks per-lane busy time (used
//! for the paper's thread-imbalance metrics).
//!
//! Divergence semantics: lanes that have finished their work simply stop
//! appearing in the active sets, but the *warp* keeps paying the critical-path
//! cost of every remaining step — exactly the SIMT behaviour that makes tree
//! depth imbalance expensive on real hardware.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::coalesce::{adjacent_lane_distance, count_transactions, AccessStats};
use crate::device::DeviceSpec;

/// Per-tree-level access statistics (drives the paper's Fig. 2a).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LevelStats {
    /// Sum of mean adjacent-lane address distances over steps.
    pub distance_sum: f64,
    /// Number of steps contributing to `distance_sum`.
    pub distance_steps: u64,
    /// Access statistics at this level.
    pub access: AccessStats,
}

impl LevelStats {
    /// Mean adjacent-lane address distance at this level.
    #[must_use]
    pub fn mean_distance(&self) -> f64 {
        if self.distance_steps == 0 {
            0.0
        } else {
            self.distance_sum / self.distance_steps as f64
        }
    }

    /// Accumulates another level's statistics.
    pub fn merge(&mut self, other: &LevelStats) {
        self.distance_sum += other.distance_sum;
        self.distance_steps += other.distance_steps;
        self.access.merge(&other.access);
    }
}

/// Completed-warp summary handed to the block aggregator.
#[derive(Clone, Debug, Default)]
pub struct WarpResult {
    /// Critical-path time of the warp (lockstep over all steps).
    pub serial_ns: f64,
    /// Portion of `serial_ns` accrued by *streamed* global reads
    /// (`gmem_read_streamed`); the profiler attributes it to staging.
    pub streamed_ns: f64,
    /// Global-memory statistics.
    pub gmem: AccessStats,
    /// Shared-memory statistics.
    pub smem: AccessStats,
    /// Pure compute time on the critical path.
    pub compute_ns: f64,
    /// Per-lane busy time (only the lane's own active steps).
    pub lane_busy_ns: Vec<f64>,
    /// Per-level statistics, keyed by the caller's level tag.
    pub levels: BTreeMap<u32, LevelStats>,
    /// Total lockstep steps executed (memory + compute).
    pub steps: u64,
    /// Sum of active lanes over all steps; `active_lane_steps /
    /// (steps × warp_size)` is the warp's SIMT efficiency.
    pub active_lane_steps: u64,
}

/// Widest warp the tracer supports (capacity of the inline address scratch).
pub const MAX_WARP_LANES: usize = 64;

/// Tracer for one warp.
pub struct WarpSim<'d> {
    device: &'d DeviceSpec,
    result: WarpResult,
    /// Inline address scratch for per-step coalescing: a stack buffer instead
    /// of a heap `Vec`, so the hot loop stays allocation-free and warp
    /// construction costs nothing beyond the result's lane vector.
    addr_scratch: [u64; MAX_WARP_LANES],
}

impl<'d> WarpSim<'d> {
    /// Starts tracing a warp on `device`.
    ///
    /// # Panics
    ///
    /// Panics if the device's warp is wider than [`MAX_WARP_LANES`].
    #[must_use]
    pub fn new(device: &'d DeviceSpec) -> Self {
        assert!(
            device.warp_size as usize <= MAX_WARP_LANES,
            "warp width {} exceeds the tracer's {MAX_WARP_LANES}-lane scratch",
            device.warp_size
        );
        Self {
            device,
            result: WarpResult {
                lane_busy_ns: vec![0.0; device.warp_size as usize],
                ..WarpResult::default()
            },
            addr_scratch: [0; MAX_WARP_LANES],
        }
    }

    /// One global-memory read step.
    ///
    /// `accesses` holds `(lane, address)` pairs for the active lanes, in lane
    /// order. `level` optionally tags the step for per-level reporting
    /// (Fig. 2a uses the tree level).
    ///
    /// # Panics
    ///
    /// Panics if more lanes are active than the warp is wide.
    pub fn gmem_read(&mut self, accesses: &[(u8, u64)], elem_bytes: u64, level: Option<u32>) {
        self.gmem_access(accesses, elem_bytes, level, false);
    }

    /// One *streamed* global-memory read step: the access is independent of
    /// the previous step (no pointer chase), so the warp keeps `mlp` such
    /// loads in flight and the critical path pays `latency / mlp`.
    pub fn gmem_read_streamed(
        &mut self,
        accesses: &[(u8, u64)],
        elem_bytes: u64,
        level: Option<u32>,
    ) {
        self.gmem_access(accesses, elem_bytes, level, true);
    }

    fn gmem_access(
        &mut self,
        accesses: &[(u8, u64)],
        elem_bytes: u64,
        level: Option<u32>,
        streamed: bool,
    ) {
        assert!(
            accesses.len() <= self.device.warp_size as usize,
            "more active lanes than the warp width"
        );
        if accesses.is_empty() {
            return;
        }
        let addrs = &mut self.addr_scratch[..accesses.len()];
        for (slot, &(_, addr)) in addrs.iter_mut().zip(accesses) {
            *slot = addr;
        }
        let distance = adjacent_lane_distance(addrs);
        let txns = count_transactions(addrs, elem_bytes, self.device.transaction_bytes);
        let requested = accesses.len() as u64 * elem_bytes;
        let fetched = txns * self.device.transaction_bytes;
        let step = AccessStats {
            requested_bytes: requested,
            fetched_bytes: fetched,
            transactions: txns,
            steps: 1,
        };
        self.result.gmem.merge(&step);
        if let Some(lvl) = level {
            let entry = self.result.levels.entry(lvl).or_default();
            entry.access.merge(&step);
            if let Some(d) = distance {
                entry.distance_sum += d;
                entry.distance_steps += 1;
            }
        }
        let latency = if streamed {
            self.device.gmem_latency_ns / self.device.mlp
        } else {
            self.device.gmem_latency_ns
        };
        self.result.serial_ns += latency;
        if streamed {
            self.result.streamed_ns += latency;
        }
        self.result.steps += 1;
        self.result.active_lane_steps += accesses.len() as u64;
        for &(lane, _) in accesses {
            self.result.lane_busy_ns[lane as usize] += latency;
        }
    }

    /// One shared-memory access step (`bytes_each` per active lane).
    ///
    /// Shared memory has no coalescing concept here; bank conflicts are out
    /// of scope (documented simplification — uniform and broadcast patterns
    /// dominate the strategies' shared-memory traffic).
    pub fn smem_access(&mut self, lanes: &[u8], bytes_each: u64) {
        if lanes.is_empty() {
            return;
        }
        let bytes = lanes.len() as u64 * bytes_each;
        let step = AccessStats {
            requested_bytes: bytes,
            fetched_bytes: bytes,
            transactions: 1,
            steps: 1,
        };
        self.result.smem.merge(&step);
        let latency = self.device.smem_latency_ns;
        self.result.serial_ns += latency;
        self.result.steps += 1;
        self.result.active_lane_steps += lanes.len() as u64;
        for &lane in lanes {
            self.result.lane_busy_ns[lane as usize] += latency;
        }
    }

    /// One compute step of `ns` (e.g. a node evaluation) on the active lanes.
    pub fn compute(&mut self, lanes: &[u8], ns: f64) {
        if lanes.is_empty() {
            return;
        }
        self.result.serial_ns += ns;
        self.result.compute_ns += ns;
        self.result.steps += 1;
        self.result.active_lane_steps += lanes.len() as u64;
        for &lane in lanes {
            self.result.lane_busy_ns[lane as usize] += ns;
        }
    }

    /// Convenience: one decision-node evaluation step.
    pub fn node_eval(&mut self, lanes: &[u8]) {
        self.compute(lanes, self.device.node_eval_ns);
    }

    /// Ends the warp, returning its summary.
    #[must_use]
    pub fn finish(self) -> WarpResult {
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceSpec {
        DeviceSpec::tesla_p100()
    }

    #[test]
    fn coalesced_step_fetches_one_transaction() {
        let d = device();
        let mut w = WarpSim::new(&d);
        let accesses: Vec<(u8, u64)> = (0..32).map(|i| (i as u8, 0x1000 + i * 4)).collect();
        w.gmem_read(&accesses, 4, None);
        let r = w.finish();
        assert_eq!(r.gmem.transactions, 1);
        assert_eq!(r.gmem.requested_bytes, 128);
        assert_eq!(r.gmem.fetched_bytes, 128);
        assert!((r.gmem.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_step_fetches_many_transactions() {
        let d = device();
        let mut w = WarpSim::new(&d);
        let accesses: Vec<(u8, u64)> = (0..32).map(|i| (i as u8, 0x1000 + i * 4096)).collect();
        w.gmem_read(&accesses, 4, None);
        let r = w.finish();
        assert_eq!(r.gmem.transactions, 32);
        assert!((r.gmem.efficiency() - 128.0 / 4096.0).abs() < 1e-9);
    }

    #[test]
    fn serial_time_counts_every_step_once() {
        let d = device();
        let mut w = WarpSim::new(&d);
        let all: Vec<(u8, u64)> = (0..32).map(|i| (i as u8, 0x1000 + i * 4)).collect();
        w.gmem_read(&all, 4, None);
        w.smem_access(&[0, 1, 2], 4);
        w.compute(&[0], 5.0);
        let r = w.finish();
        let expected = d.gmem_latency_ns + d.smem_latency_ns + 5.0;
        assert!((r.serial_ns - expected).abs() < 1e-9);
    }

    #[test]
    fn inactive_lanes_accrue_no_busy_time() {
        let d = device();
        let mut w = WarpSim::new(&d);
        w.gmem_read(&[(0, 0x1000), (5, 0x1004)], 4, None);
        let r = w.finish();
        assert!(r.lane_busy_ns[0] > 0.0);
        assert!(r.lane_busy_ns[5] > 0.0);
        assert_eq!(r.lane_busy_ns[1], 0.0);
        assert_eq!(r.lane_busy_ns[31], 0.0);
    }

    #[test]
    fn level_tags_accumulate_distance() {
        let d = device();
        let mut w = WarpSim::new(&d);
        w.gmem_read(&[(0, 0x1000), (1, 0x1010)], 16, Some(3));
        w.gmem_read(&[(0, 0x1000), (1, 0x1030)], 16, Some(3));
        let r = w.finish();
        let lvl = &r.levels[&3];
        assert_eq!(lvl.distance_steps, 2);
        assert!((lvl.mean_distance() - (16.0 + 48.0) / 2.0).abs() < 1e-9);
        assert_eq!(lvl.access.steps, 2);
    }

    #[test]
    fn empty_access_sets_are_noops() {
        let d = device();
        let mut w = WarpSim::new(&d);
        w.gmem_read(&[], 4, Some(1));
        w.smem_access(&[], 4);
        w.compute(&[], 10.0);
        let r = w.finish();
        assert_eq!(r.serial_ns, 0.0);
        assert_eq!(r.gmem.steps, 0);
        assert!(r.levels.is_empty());
    }

    #[test]
    fn streamed_time_is_tracked_separately() {
        let d = device();
        let mut w = WarpSim::new(&d);
        let all: Vec<(u8, u64)> = (0..32).map(|i| (i as u8, 0x1000 + i * 4)).collect();
        w.gmem_read(&all, 4, None); // dependent: full latency, not streamed
        w.gmem_read_streamed(&all, 4, None); // streamed: latency / mlp
        let r = w.finish();
        let streamed = d.gmem_latency_ns / d.mlp;
        assert!((r.streamed_ns - streamed).abs() < 1e-9);
        assert!((r.serial_ns - (d.gmem_latency_ns + streamed)).abs() < 1e-9);
    }

    #[test]
    fn node_eval_uses_device_cost() {
        let d = device();
        let mut w = WarpSim::new(&d);
        w.node_eval(&[0, 1]);
        let r = w.finish();
        assert!((r.compute_ns - d.node_eval_ns).abs() < 1e-12);
    }
}
