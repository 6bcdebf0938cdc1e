//! Per-kernel profiler: Nsight-style launch reports and log-bucketed latency
//! histograms (DESIGN.md §2.9).
//!
//! The counters expose *global* totals; this module adds the per-launch view
//! the paper's evidence is built on — one [`KernelProfile`] per simulated
//! launch with occupancy, coalescing, warp-execution efficiency, a wall-time
//! breakdown, and roofline utilization. Each profile rides in its launch's
//! [`Event::Launch`]; [`TelemetrySink::profiles`] gathers them with the
//! kernel-duration and serving-latency histograms (the `profiles.json`
//! view). Histogram bucket edges are fixed powers of two computed from
//! integer bit positions, so the view is byte-identical at any
//! `TAHOE_SIM_THREADS` (pinned by `tests/determinism.rs`).

use serde::{Deserialize, Serialize};

use crate::coalesce::AccessStats;
use crate::device::DeviceSpec;
use crate::telemetry::{Event, TelemetrySink};

/// Which hardware bound capped block residency for a launch.
///
/// The simulator does not model register pressure, so the paper's
/// register-limited case surfaces as [`OccupancyLimiter::Threads`]
/// (documented deviation, DESIGN.md §2.9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OccupancyLimiter {
    /// Per-SM resident-thread capacity.
    Threads,
    /// Per-SM block-slot count.
    BlockSlots,
    /// Per-SM shared-memory capacity.
    SharedMem,
    /// The grid is smaller than the device's concurrent capacity.
    Grid,
}

impl OccupancyLimiter {
    /// Short lowercase label for tables and the CLI.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            OccupancyLimiter::Threads => "threads",
            OccupancyLimiter::BlockSlots => "block-slots",
            OccupancyLimiter::SharedMem => "smem",
            OccupancyLimiter::Grid => "grid",
        }
    }
}

/// Wall-time attribution of one launch. The five components sum to the
/// launch's `total_ns` by construction (see [`KernelProfile::from_launch`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Latency-path time attributed to dependent tree traversal (ns).
    pub traversal_ns: f64,
    /// Latency-path time attributed to streamed staging loops (ns).
    pub staging_ns: f64,
    /// Block-wide reduction time across all waves (ns).
    pub block_reduction_ns: f64,
    /// Device-wide segmented-reduction time (ns).
    pub global_reduction_ns: f64,
    /// Extra wall time where a device-wide bandwidth roofline (or the
    /// slowest block) exceeded the wave-scheduled latency bound (ns).
    pub bandwidth_stall_ns: f64,
}

impl TimeBreakdown {
    /// Sum of all components — equals the launch's `total_ns`.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.traversal_ns
            + self.staging_ns
            + self.block_reduction_ns
            + self.global_reduction_ns
            + self.bandwidth_stall_ns
    }
}

/// One simulated launch's profiler report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel label (the strategy name for engine launches).
    pub label: String,
    /// Device the launch ran on.
    pub device: String,
    /// Grid size in blocks.
    pub grid_blocks: u64,
    /// Block size in threads.
    pub threads_per_block: u64,
    /// Static shared memory per block (bytes).
    pub smem_per_block: u64,
    /// Total device-image bytes per forest node for this launch (the sum of
    /// every lane's entry width); 0 when the launch has no forest image.
    pub node_bytes: u64,
    /// Blocks simulated in detail.
    pub sampled_blocks: u64,
    /// Always 0: it has no effect and stays only because `bench-ledger`
    /// reads it.
    pub memo_hits: u64,
    /// Always 0: it has no effect and stays only because `bench-ledger`
    /// reads it.
    pub memo_misses: u64,
    /// Occupancy-limited concurrent blocks on the device.
    pub concurrent_blocks: u64,
    /// Scheduling waves (`ceil(grid / concurrent)`).
    pub waves: u64,
    /// Resident threads over the device's thread capacity, in `[0, 1]`.
    pub achieved_occupancy: f64,
    /// Which bound capped residency.
    pub occupancy_limiter: OccupancyLimiter,
    /// Active lane-steps over total lane-steps, in `[0, 1]`; the complement
    /// is divergence-stall idle time.
    pub warp_exec_efficiency: f64,
    /// Extrapolated bytes the warp lanes asked for.
    pub gmem_requested_bytes: u64,
    /// Extrapolated bytes the memory system moved.
    pub gmem_fetched_bytes: u64,
    /// Extrapolated global-memory transactions.
    pub gmem_transactions: u64,
    /// `requested / fetched` (1.0 when nothing was fetched).
    pub gmem_coalescing_efficiency: f64,
    /// Mean transactions per warp-level request (0 without requests).
    pub transactions_per_request: f64,
    /// Extrapolated shared-memory bytes moved.
    pub smem_fetched_bytes: u64,
    /// Simulated wall-clock time of the launch (ns).
    pub total_ns: f64,
    /// Where the wall time went; components sum to `total_ns`.
    pub breakdown: TimeBreakdown,
    /// Achieved global-memory throughput over the device peak, in `[0, 1]`.
    pub roofline_utilization: f64,
}

/// Raw quantities of one finished launch, handed over by
/// `KernelSim::finish` after the plan-order merge.
pub struct LaunchStats<'a> {
    /// Device the kernel ran on.
    pub device: &'a DeviceSpec,
    /// Kernel label.
    pub label: &'a str,
    /// Grid size in blocks.
    pub grid_blocks: usize,
    /// Block size in threads.
    pub threads_per_block: usize,
    /// Static shared memory per block (bytes).
    pub smem_per_block: usize,
    /// Device-image bytes per forest node (0 when not applicable).
    pub node_bytes: u64,
    /// Blocks simulated in detail.
    pub sampled_blocks: usize,
    /// Occupancy-limited concurrent blocks.
    pub concurrent_blocks: usize,
    /// Scheduling waves.
    pub waves: usize,
    /// Extrapolated global-memory statistics.
    pub gmem: &'a AccessStats,
    /// Extrapolated shared-memory statistics.
    pub smem: &'a AccessStats,
    /// Lockstep steps over sampled blocks.
    pub steps: u64,
    /// Active lanes summed over those steps.
    pub active_lane_steps: u64,
    /// Wave-scheduled latency bound (`waves × mean block wall`, ns).
    pub latency_bound_ns: f64,
    /// Block-reduction wall time (`waves × mean block reduction`, ns).
    pub block_reduction_ns: f64,
    /// Scheduled kernel time before global reductions (ns).
    pub scheduled_ns: f64,
    /// Device-wide reduction time (ns).
    pub global_reduction_ns: f64,
    /// Streamed-read serial time summed over sampled warps (ns).
    pub streamed_serial_ns: f64,
    /// Total serial time summed over sampled warps (ns).
    pub total_serial_ns: f64,
}

impl KernelProfile {
    /// Derives the profiler metrics from one launch's raw quantities.
    ///
    /// Attribution rules (DESIGN.md §2.9): block reductions take
    /// `waves × mean reduction` off the latency bound; the remainder splits
    /// between staging and traversal proportionally to the sampled warps'
    /// streamed vs. dependent serial time; any scheduled time beyond the
    /// latency bound is a bandwidth stall; global reductions are exact. The
    /// five components therefore sum to `total_ns` by construction.
    #[must_use]
    pub fn from_launch(s: &LaunchStats<'_>) -> Self {
        let d = s.device;
        let resident = s.concurrent_blocks.min(s.grid_blocks).max(1);
        let thread_capacity = (u64::from(d.num_sms) * u64::from(d.max_threads_per_sm)) as f64;
        let achieved_occupancy =
            ((resident * s.threads_per_block) as f64 / thread_capacity).min(1.0);

        // Re-derive the per-SM residency bounds (same arithmetic as
        // `occupancy::concurrent_blocks`) and name the binding one.
        let by_threads = d.max_threads_per_sm as usize / s.threads_per_block.max(1);
        let by_slots = d.max_blocks_per_sm as usize;
        let by_smem = d
            .shared_mem_per_sm
            .checked_div(s.smem_per_block)
            .unwrap_or(usize::MAX);
        let occupancy_limiter = if s.grid_blocks < s.concurrent_blocks {
            OccupancyLimiter::Grid
        } else if by_threads <= by_slots && by_threads <= by_smem {
            OccupancyLimiter::Threads
        } else if by_smem <= by_slots {
            OccupancyLimiter::SharedMem
        } else {
            OccupancyLimiter::BlockSlots
        };

        let warp_exec_efficiency = if s.steps == 0 {
            1.0
        } else {
            s.active_lane_steps as f64 / (s.steps * u64::from(d.warp_size)) as f64
        };

        let transactions_per_request = if s.gmem.steps == 0 {
            0.0
        } else {
            s.gmem.transactions as f64 / s.gmem.steps as f64
        };

        // Wall-time attribution; see the method docs for the rules.
        let compute_ns = (s.latency_bound_ns - s.block_reduction_ns).max(0.0);
        let staging_frac = if s.total_serial_ns > 0.0 {
            (s.streamed_serial_ns / s.total_serial_ns).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let staging_ns = compute_ns * staging_frac;
        let breakdown = TimeBreakdown {
            traversal_ns: compute_ns - staging_ns,
            staging_ns,
            block_reduction_ns: s.block_reduction_ns,
            global_reduction_ns: s.global_reduction_ns,
            bandwidth_stall_ns: (s.scheduled_ns - s.latency_bound_ns).max(0.0),
        };

        let total_ns = s.scheduled_ns + s.global_reduction_ns;
        let roofline_utilization = if total_ns > 0.0 {
            (s.gmem.fetched_bytes as f64 / total_ns / d.gmem_bytes_per_ns).min(1.0)
        } else {
            0.0
        };

        KernelProfile {
            label: s.label.to_string(),
            device: d.name.to_string(),
            grid_blocks: s.grid_blocks as u64,
            threads_per_block: s.threads_per_block as u64,
            smem_per_block: s.smem_per_block as u64,
            node_bytes: s.node_bytes,
            sampled_blocks: s.sampled_blocks as u64,
            memo_hits: 0,
            memo_misses: 0,
            concurrent_blocks: s.concurrent_blocks as u64,
            waves: s.waves as u64,
            achieved_occupancy,
            occupancy_limiter,
            warp_exec_efficiency,
            gmem_requested_bytes: s.gmem.requested_bytes,
            gmem_fetched_bytes: s.gmem.fetched_bytes,
            gmem_transactions: s.gmem.transactions,
            gmem_coalescing_efficiency: s.gmem.efficiency(),
            transactions_per_request,
            smem_fetched_bytes: s.smem.fetched_bytes,
            total_ns,
            breakdown,
            roofline_utilization,
        }
    }
}

/// Number of histogram buckets: one zero bucket plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Log-bucketed (HDR-style) latency histogram over nanosecond samples.
///
/// Bucket 0 holds zero-duration samples; bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)` ns, with everything from `2^62` up merged into the last
/// bucket. Edges come from integer bit positions — no floating-point
/// arithmetic — so two runs recording the same samples produce identical
/// buckets regardless of worker count or platform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Bucket index of a rounded-nanosecond sample.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// `[lo, hi)` edge of bucket `i` in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            (0, 1)
        } else if i == HISTOGRAM_BUCKETS - 1 {
            (1 << (i - 1), u64::MAX)
        } else {
            (1 << (i - 1), 1 << i)
        }
    }

    /// Records one sample. Non-finite and negative durations clamp to zero.
    pub fn record(&mut self, ns: f64) {
        let v = if ns.is_finite() && ns > 0.0 {
            ns.round() as u64 // saturating cast
        } else {
            0
        };
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(v);
        self.min_ns = self.min_ns.min(v);
        self.max_ns = self.max_ns.max(v);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flat export (non-empty buckets only).
    #[must_use]
    pub fn export(&self) -> HistogramExport {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo_ns, hi_ns) = Self::bucket_bounds(i);
                HistogramBucket { lo_ns, hi_ns, count: c }
            })
            .collect();
        HistogramExport {
            count: self.count,
            sum_ns: self.sum_ns,
            min_ns: if self.count == 0 { 0 } else { self.min_ns },
            max_ns: self.max_ns,
            buckets,
        }
    }
}

/// One non-empty histogram bucket: `count` samples in `[lo_ns, hi_ns)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower edge (ns).
    pub lo_ns: u64,
    /// Exclusive upper edge (ns).
    pub hi_ns: u64,
    /// Samples in this bucket.
    pub count: u64,
}

/// Serialized histogram: summary statistics plus the non-empty buckets.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramExport {
    /// Total samples.
    pub count: u64,
    /// Sum of rounded samples (ns); `sum_ns / count` is the mean.
    pub sum_ns: u64,
    /// Smallest rounded sample (0 when empty).
    pub min_ns: u64,
    /// Largest rounded sample.
    pub max_ns: u64,
    /// Non-empty buckets in ascending edge order.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramExport {
    /// Mean sample in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper edge of the bucket containing quantile `q` (clamped to
    /// `[0, 1]`); 0 when empty. Bucket-resolution approximation — fine for
    /// "p99 is in the 2–4 µs bucket" style reporting.
    #[must_use]
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.hi_ns;
            }
        }
        self.max_ns
    }
}

/// The profiler export — the `profiles.json` view.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfilesExport {
    /// One profile per traced launch, in launch order.
    pub kernels: Vec<KernelProfile>,
    /// Histogram of traced kernel durations.
    pub kernel_durations: HistogramExport,
    /// Histogram of serving request latencies.
    pub serving_latencies: HistogramExport,
}

impl ProfilesExport {
    /// Parses an export previously written by
    /// [`TelemetrySink::profiles_json`] (e.g. a `profiles.json` file).
    ///
    /// # Errors
    ///
    /// Returns the deserialization error message when `text` is not a valid
    /// profiler export.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl TelemetrySink {
    /// The launches' profiles in launch order, with the histograms of their
    /// durations and of the served requests' latencies (empty when
    /// disabled).
    #[must_use]
    pub fn profiles(&self) -> ProfilesExport {
        self.view(|log| {
            let mut kernels = Vec::new();
            let mut kernel_durations = LatencyHistogram::default();
            let mut serving_latencies = LatencyHistogram::default();
            for e in log {
                match e {
                    Event::Launch(l) => {
                        kernel_durations.record(l.profile.total_ns);
                        kernels.push(l.profile.clone());
                    }
                    Event::Request(r) => serving_latencies.record(r.total_ns),
                    _ => {}
                }
            }
            ProfilesExport {
                kernels,
                kernel_durations: kernel_durations.export(),
                serving_latencies: serving_latencies.export(),
            }
        })
    }

    /// The profiler export as pretty JSON (the `profiles.json` view).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the export is plain data that always
    /// serializes.
    #[must_use]
    pub fn profiles_json(&self) -> String {
        let mut s =
            serde_json::to_string_pretty(&self.profiles()).expect("profiles serialize");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats<'a>(
        device: &'a DeviceSpec,
        gmem: &'a AccessStats,
        smem: &'a AccessStats,
    ) -> LaunchStats<'a> {
        LaunchStats {
            device,
            label: "test",
            grid_blocks: 100,
            threads_per_block: 256,
            smem_per_block: 0,
            node_bytes: 0,
            sampled_blocks: 10,
            concurrent_blocks: 448,
            waves: 1,
            gmem,
            smem,
            steps: 100,
            active_lane_steps: 3200,
            latency_bound_ns: 10_000.0,
            block_reduction_ns: 1_000.0,
            scheduled_ns: 12_000.0,
            global_reduction_ns: 500.0,
            streamed_serial_ns: 3_000.0,
            total_serial_ns: 9_000.0,
        }
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let d = DeviceSpec::tesla_p100();
        let gmem = AccessStats {
            requested_bytes: 1_000,
            fetched_bytes: 2_000,
            transactions: 16,
            steps: 8,
        };
        let smem = AccessStats::default();
        let p = KernelProfile::from_launch(&stats(&d, &gmem, &smem));
        assert!((p.breakdown.total_ns() - p.total_ns).abs() < 1e-9 * p.total_ns);
        // latency bound 10k: 1k block reduce, 9k compute split 1:2
        // staged:traversal, 2k bandwidth stall past the bound, 500 global.
        assert!((p.breakdown.block_reduction_ns - 1_000.0).abs() < 1e-9);
        assert!((p.breakdown.staging_ns - 3_000.0).abs() < 1e-9);
        assert!((p.breakdown.traversal_ns - 6_000.0).abs() < 1e-9);
        assert!((p.breakdown.bandwidth_stall_ns - 2_000.0).abs() < 1e-9);
        assert!((p.breakdown.global_reduction_ns - 500.0).abs() < 1e-9);
        assert!((p.gmem_coalescing_efficiency - 0.5).abs() < 1e-12);
        assert!((p.transactions_per_request - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_launches_produce_finite_metrics() {
        let d = DeviceSpec::tesla_p100();
        let gmem = AccessStats::default();
        let smem = AccessStats::default();
        let mut s = stats(&d, &gmem, &smem);
        s.steps = 0;
        s.active_lane_steps = 0;
        s.latency_bound_ns = 0.0;
        s.block_reduction_ns = 0.0;
        s.scheduled_ns = 0.0;
        s.global_reduction_ns = 0.0;
        s.streamed_serial_ns = 0.0;
        s.total_serial_ns = 0.0;
        let p = KernelProfile::from_launch(&s);
        assert_eq!(p.warp_exec_efficiency, 1.0);
        assert_eq!(p.gmem_coalescing_efficiency, 1.0);
        assert_eq!(p.transactions_per_request, 0.0);
        assert_eq!(p.roofline_utilization, 0.0);
        assert_eq!(p.breakdown.total_ns(), 0.0);
        assert!(p.achieved_occupancy.is_finite());
    }

    #[test]
    fn occupancy_limiter_names_the_binding_bound() {
        let d = DeviceSpec::tesla_p100(); // 2048 thr/SM, 32 slots, 64 KiB/SM.
        let gmem = AccessStats::default();
        let smem = AccessStats::default();
        // 256-thread blocks: 8 by threads < 32 slots → threads-limited.
        let mut s = stats(&d, &gmem, &smem);
        s.grid_blocks = 100_000;
        let p = KernelProfile::from_launch(&s);
        assert_eq!(p.occupancy_limiter, OccupancyLimiter::Threads);
        // 40 KiB smem: 1 block/SM by smem → smem-limited.
        s.smem_per_block = 40 * 1024;
        s.concurrent_blocks = 56;
        let p = KernelProfile::from_launch(&s);
        assert_eq!(p.occupancy_limiter, OccupancyLimiter::SharedMem);
        // 32-thread blocks, no smem: 64 by threads > 32 slots → slot-limited.
        s.smem_per_block = 0;
        s.threads_per_block = 32;
        s.concurrent_blocks = 32 * 56;
        let p = KernelProfile::from_launch(&s);
        assert_eq!(p.occupancy_limiter, OccupancyLimiter::BlockSlots);
        // Grid smaller than capacity → grid-limited.
        s.grid_blocks = 10;
        let p = KernelProfile::from_launch(&s);
        assert_eq!(p.occupancy_limiter, OccupancyLimiter::Grid);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(1023), 10);
        assert_eq!(LatencyHistogram::bucket_index(1024), 11);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let (lo, hi) = LatencyHistogram::bucket_bounds(i);
            assert_eq!(lo, 1 << (i - 1));
            assert_eq!(hi, 2 * lo);
            assert_eq!(LatencyHistogram::bucket_index(lo), i);
            assert_eq!(LatencyHistogram::bucket_index(hi - 1), i);
        }
    }

    #[test]
    fn histogram_records_and_exports() {
        let mut h = LatencyHistogram::default();
        for ns in [0.0, 1.0, 3.0, 3.4, 1000.0, f64::NAN, -5.0] {
            h.record(ns);
        }
        let e = h.export();
        assert_eq!(e.count, 7);
        assert_eq!(e.min_ns, 0);
        assert_eq!(e.max_ns, 1000);
        // 0, NaN and -5 clamp to the zero bucket; 3.0 and 3.4 share [2, 4).
        assert_eq!(e.buckets.len(), 4);
        assert_eq!(e.buckets[0], HistogramBucket { lo_ns: 0, hi_ns: 1, count: 3 });
        assert_eq!(e.buckets[1], HistogramBucket { lo_ns: 1, hi_ns: 2, count: 1 });
        assert_eq!(e.buckets[2], HistogramBucket { lo_ns: 2, hi_ns: 4, count: 2 });
        assert_eq!(e.buckets[3], HistogramBucket { lo_ns: 512, hi_ns: 1024, count: 1 });
        assert_eq!(e.buckets.iter().map(|b| b.count).sum::<u64>(), e.count);
        assert!((e.mean_ns() - (1 + 3 + 3 + 1000) as f64 / 7.0).abs() < 1e-12);
        assert_eq!(e.quantile_upper_ns(0.0), 1);
        assert_eq!(e.quantile_upper_ns(0.5), 2);
        assert_eq!(e.quantile_upper_ns(1.0), 1024);
    }

    #[test]
    fn empty_histogram_exports_cleanly() {
        let e = LatencyHistogram::default().export();
        assert_eq!(e.count, 0);
        assert_eq!(e.min_ns, 0);
        assert_eq!(e.max_ns, 0);
        assert!(e.buckets.is_empty());
        assert_eq!(e.mean_ns(), 0.0);
        assert_eq!(e.quantile_upper_ns(0.99), 0);
    }

    fn launch(profile: KernelProfile) -> crate::telemetry::LaunchRecord {
        crate::telemetry::LaunchRecord {
            device: 0,
            start_ns: 0.0,
            profile,
            block_reductions: 0,
            global_reductions: 0,
            active_lane_steps: 0,
            stalled_lane_steps: 0,
        }
    }

    #[test]
    fn disabled_sink_stores_no_profiles() {
        let sink = TelemetrySink::Disabled;
        sink.record_launch(
            launch(KernelProfile::from_launch(&stats(
                &DeviceSpec::tesla_p100(),
                &AccessStats::default(),
                &AccessStats::default(),
            ))),
            Vec::new(),
        );
        let e = sink.profiles();
        assert!(e.kernels.is_empty());
        assert_eq!(e.kernel_durations.count, 0);
        assert_eq!(e.serving_latencies.count, 0);
    }

    #[test]
    fn recording_sink_accumulates_and_round_trips() {
        let sink = TelemetrySink::recording();
        let d = DeviceSpec::tesla_p100();
        let gmem = AccessStats {
            requested_bytes: 100,
            fetched_bytes: 200,
            transactions: 4,
            steps: 2,
        };
        let smem = AccessStats::default();
        let profile = KernelProfile::from_launch(&stats(&d, &gmem, &smem));
        sink.record_launch(launch(profile.clone()), Vec::new());
        let e = sink.profiles();
        assert_eq!(e.kernels, vec![profile]);
        assert_eq!(e.kernel_durations.count, 1);
        assert_eq!(e.serving_latencies.count, 0);
        let text = sink.profiles_json();
        let back: ProfilesExport = serde_json::from_str(&text).expect("export parses");
        assert_eq!(back, e, "round-trip must be lossless");
    }
}
