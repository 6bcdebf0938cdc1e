//! Kernel-level scheduling: occupancy waves, bandwidth rooflines, and
//! device-time extrapolation from sampled blocks.
//!
//! Launch grids in the paper's experiments reach hundreds of thousands of
//! blocks; simulating every block in detail would make the reproduction
//! unusable. [`KernelSim`] therefore simulates a deterministic, evenly-spaced
//! subset of blocks in detail and extrapolates: traversal statistics scale by
//! `grid / sampled`, and device time schedules `grid` blocks of the sampled
//! mean cost across the occupancy-limited concurrency.
//!
//! # Timing model
//!
//! Each sampled block's wall time is a per-block roofline:
//!
//! ```text
//! block_wall = max(critical_path,
//!                  gmem_bytes / (device_gmem_bw / resident_blocks),
//!                  smem_bytes / (device_smem_bw / resident_blocks))
//!              + block_reductions
//! ```
//!
//! where `resident_blocks = min(grid, concurrent)` blocks share the device's
//! bandwidth. Kernel time then takes the worst of the wave-scheduled latency
//! bound and the device-wide bandwidth bounds, so aggregate throughput can
//! never exceed the device's peak:
//!
//! ```text
//! kernel = max(waves × mean(block_wall),
//!              total_gmem_bytes / device_gmem_bw,
//!              total_smem_bytes / device_smem_bw,
//!              max(block_wall))
//!          + global_reductions
//! ```

use std::collections::BTreeMap;

use crate::block::{BlockResult, BlockSim};
use crate::coalesce::AccessStats;
use crate::device::DeviceSpec;
use crate::occupancy::{concurrent_blocks, waves};
use crate::parallel::parallel_map;
use crate::profile::{KernelProfile, LaunchStats};
use crate::telemetry::{BlockRecord, LaunchRecord, SpanEvent, SpanName, TelemetrySink, PID_GPU};
use crate::warp::LevelStats;

/// How many blocks to simulate in detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detail {
    /// Simulate every block.
    Full,
    /// Simulate at most this many, evenly spaced across the grid.
    Sampled(usize),
}

impl Detail {
    /// Default cap used by the experiment harness.
    pub const DEFAULT_SAMPLED: Detail = Detail::Sampled(48);
}

/// Deterministic, evenly-spaced sample of block indices.
#[must_use]
pub fn sample_plan(grid_blocks: usize, detail: Detail) -> Vec<usize> {
    match detail {
        Detail::Full => (0..grid_blocks).collect(),
        Detail::Sampled(cap) => {
            let cap = cap.max(1);
            if grid_blocks <= cap {
                (0..grid_blocks).collect()
            } else {
                (0..cap).map(|i| i * grid_blocks / cap).collect()
            }
        }
    }
}

/// As [`sample_plan`], for a grid whose block `b` does work class
/// `b % classes` (splitting's forest parts, `grid = classes × tiles`).
///
/// A uniform stride that is a multiple of `classes` samples one class only,
/// so a plan of at least `classes` blocks instead gives each class an equal
/// share (±1) of the plan, evenly spaced over that class's blocks. A
/// smaller plan keeps the uniform stride, and one class gives
/// [`sample_plan`] itself. The plan is in grid order.
///
/// # Panics
///
/// Panics if `classes` does not divide `grid_blocks`.
#[must_use]
pub fn sample_plan_by_class(grid_blocks: usize, classes: usize, detail: Detail) -> Vec<usize> {
    let classes = classes.max(1);
    assert_eq!(grid_blocks % classes, 0, "{classes} classes do not tile {grid_blocks} blocks");
    let cap = match detail {
        Detail::Sampled(cap) => cap.max(1),
        Detail::Full => grid_blocks,
    };
    if cap < classes || cap >= grid_blocks {
        return sample_plan(grid_blocks, detail);
    }
    let per_class = grid_blocks / classes;
    let mut plan: Vec<usize> = (0..cap)
        .map(|i| {
            let (class, j) = (i % classes, i / classes);
            let share = cap / classes + usize::from(class < cap % classes);
            j * per_class / share * classes + class
        })
        .collect();
    plan.sort_unstable();
    plan
}

/// Telemetry attachment of one traced launch (absent when telemetry is
/// disabled, so the untraced path carries no extra state).
struct TraceConfig {
    sink: TelemetrySink,
    label: String,
    t0_ns: f64,
}

/// Kernel launch description + accumulated sampled blocks.
pub struct KernelSim<'d> {
    device: &'d DeviceSpec,
    grid_blocks: usize,
    threads_per_block: usize,
    smem_per_block: usize,
    sampled: Vec<BlockResult>,
    global_reduction_ns: f64,
    global_reductions: u64,
    trace: Option<TraceConfig>,
    /// Grid indices of the sampled blocks, recorded by `simulate_blocks`
    /// when tracing (parallel to `sampled`; positions fall back to the
    /// sample index for blocks pushed directly).
    plan_idx: Vec<usize>,
    /// Device-image bytes per forest node, carried into the kernel profile
    /// (0 when the launch has no forest image).
    node_bytes: u64,
}

impl<'d> KernelSim<'d> {
    /// Describes a kernel launch.
    ///
    /// # Panics
    ///
    /// Panics on an empty grid or a block shape the device cannot run
    /// (delegated to the occupancy calculator).
    #[must_use]
    pub fn new(
        device: &'d DeviceSpec,
        grid_blocks: usize,
        threads_per_block: usize,
        smem_per_block: usize,
    ) -> Self {
        assert!(grid_blocks > 0, "kernel launched with an empty grid");
        // Validate the shape eagerly (panics on impossible configurations).
        let _ = concurrent_blocks(device, threads_per_block, smem_per_block);
        Self {
            device,
            grid_blocks,
            threads_per_block,
            smem_per_block,
            sampled: Vec::new(),
            global_reduction_ns: 0.0,
            global_reductions: 0,
            trace: None,
            plan_idx: Vec::new(),
            node_bytes: 0,
        }
    }

    /// Records the per-node image width for the kernel profile. Set once at
    /// launch from the forest's format — metadata only, never timing.
    pub fn set_node_bytes(&mut self, bytes: u64) {
        self.node_bytes = bytes;
    }

    /// Attaches a telemetry sink: [`Self::finish`] will emit this launch's
    /// counters and a kernel → block → warp span tree starting at `t0_ns` on
    /// the simulated timeline. A disabled sink is not stored, so the
    /// untraced simulation path is unchanged. Emission happens entirely in
    /// `finish`, in plan order — worker threads never touch the sink, so
    /// traced output is bit-identical at any worker count.
    pub fn set_trace(&mut self, sink: &TelemetrySink, label: impl Into<String>, t0_ns: f64) {
        if sink.is_enabled() {
            self.trace = Some(TraceConfig {
                sink: sink.clone(),
                label: label.into(),
                t0_ns,
            });
        }
    }

    /// The device of this launch.
    #[must_use]
    pub fn device(&self) -> &'d DeviceSpec {
        self.device
    }

    /// Grid size in blocks.
    #[must_use]
    pub fn grid_blocks(&self) -> usize {
        self.grid_blocks
    }

    /// Block size in threads.
    #[must_use]
    pub fn threads_per_block(&self) -> usize {
        self.threads_per_block
    }

    /// Starts tracing one block.
    #[must_use]
    pub fn block(&self) -> BlockSim<'d> {
        BlockSim::new(self.device)
    }

    /// Records a finished sampled block.
    pub fn push_block(&mut self, block: BlockResult) {
        self.sampled.push(block);
    }

    /// Simulates the planned blocks in parallel and records their results in
    /// plan order.
    ///
    /// `sim` receives each plan entry (the block's grid index) and a fresh
    /// [`BlockSim`], and returns the finished [`BlockResult`]. Sampled blocks
    /// are independent by construction, so they fan out across host worker
    /// threads via [`crate::parallel::parallel_map`] (worker count
    /// overridable through `TAHOE_SIM_THREADS` or
    /// [`crate::parallel::set_sim_threads`]). Results are merged back in plan
    /// order, so [`Self::finish`] accumulates floating-point sums in the same
    /// sequence regardless of worker count: a 1-thread and an N-thread run
    /// produce bit-identical [`KernelResult`]s.
    pub fn simulate_blocks<F>(&mut self, plan: &[usize], sim: F)
    where
        F: Fn(usize, BlockSim<'d>) -> BlockResult + Sync,
    {
        let device = self.device;
        if self.trace.is_some() {
            self.plan_idx.extend_from_slice(plan);
        }
        self.sampled
            .extend(parallel_map(plan.len(), |i| sim(plan[i], BlockSim::new(device))));
    }

    /// Records one device-wide segmented reduction over `n_blocks` partial
    /// results (cub::DeviceSegmentedReduce-style). Returns the cost charged.
    pub fn global_reduce(&mut self, n_blocks: usize) -> f64 {
        let cost = self.device.global_reduce_base_ns
            + self.device.global_reduce_ns_per_block * n_blocks as f64;
        self.global_reduction_ns += cost;
        self.global_reductions += 1;
        cost
    }

    /// As [`Self::global_reduce`], additionally charging the bandwidth cost
    /// of streaming `n_values` partial values of `value_bytes` each through
    /// global memory (a segmented reduce is a full pass over its inputs).
    pub fn global_reduce_values(
        &mut self,
        n_blocks: usize,
        n_values: u64,
        value_bytes: u64,
    ) -> f64 {
        let fixed = self.global_reduce(n_blocks);
        let stream = (n_values * value_bytes) as f64 / self.device.gmem_bytes_per_ns;
        self.global_reduction_ns += stream;
        fixed + stream
    }

    /// Finalizes the launch, extrapolating from the sampled blocks.
    ///
    /// # Panics
    ///
    /// Panics if no block was simulated.
    #[must_use]
    pub fn finish(self) -> KernelResult {
        let Self {
            device,
            grid_blocks,
            threads_per_block,
            smem_per_block,
            sampled,
            global_reduction_ns,
            global_reductions,
            trace,
            plan_idx,
            node_bytes,
        } = self;
        assert!(!sampled.is_empty(), "no blocks were simulated");
        let n_sampled = sampled.len();
        let scale = grid_blocks as f64 / n_sampled as f64;
        let concurrent = concurrent_blocks(device, threads_per_block, smem_per_block);
        let resident = concurrent.min(grid_blocks).max(1);
        let gmem_share = device.gmem_bytes_per_ns / resident as f64;
        let smem_share = device.smem_bytes_per_ns / resident as f64;

        let mut gmem = AccessStats::default();
        let mut smem = AccessStats::default();
        let mut levels: BTreeMap<u32, LevelStats> = BTreeMap::new();
        let mut thread_busy_per_block: Vec<Vec<f64>> = Vec::with_capacity(n_sampled);
        let mut sum_wall = 0.0f64;
        let mut max_wall = 0.0f64;
        let mut sum_reduction = 0.0f64;
        let mut sum_critical = 0.0f64;
        let mut sum_serial = 0.0f64;
        let mut sum_streamed = 0.0f64;
        let mut steps = 0u64;
        let mut active_lane_steps = 0u64;
        let mut block_reductions = 0u64;
        // Per-block (wall, reduction, warp serials) retained for span
        // emission; only populated when this launch is traced.
        let mut span_data: Vec<(f64, f64, Vec<f64>)> = Vec::new();
        // Blocks are consumed in index order; the floating-point sums below
        // therefore accumulate in the same sequence however many worker
        // threads simulated the blocks (the determinism guarantee of
        // `simulate_blocks`).
        for mut b in sampled {
            gmem.merge(&b.gmem);
            smem.merge(&b.smem);
            let bw_ns = (b.gmem.fetched_bytes as f64 / gmem_share)
                .max(b.smem.fetched_bytes as f64 / smem_share);
            let wall = b.critical_ns.max(bw_ns) + b.reduction_ns;
            sum_wall += wall;
            max_wall = max_wall.max(wall);
            sum_reduction += b.reduction_ns;
            sum_critical += b.critical_ns;
            sum_serial += b.serial_sum_ns;
            sum_streamed += b.streamed_ns;
            steps += b.steps;
            active_lane_steps += b.active_lane_steps;
            block_reductions += b.reductions;
            if trace.is_some() {
                span_data.push((wall, b.reduction_ns, std::mem::take(&mut b.warp_serial_ns)));
            }
            thread_busy_per_block.push(b.thread_busy_ns);
            for (lvl, stats) in &b.levels {
                levels.entry(*lvl).or_default().merge(stats);
            }
        }
        let mean_wall = sum_wall / n_sampled as f64;
        let mean_reduction = sum_reduction / n_sampled as f64;
        let mean_critical = sum_critical / n_sampled as f64;
        let n_waves = waves(grid_blocks, concurrent);
        let gmem_total = gmem.scaled(scale);
        let smem_total = smem.scaled(scale);
        let latency_bound = n_waves as f64 * mean_wall;
        let gmem_bound = gmem_total.fetched_bytes as f64 / device.gmem_bytes_per_ns;
        let smem_bound = smem_total.fetched_bytes as f64 / device.smem_bytes_per_ns;
        let scheduled = latency_bound.max(gmem_bound).max(smem_bound).max(max_wall);
        let block_reduction_wall = n_waves as f64 * mean_reduction;
        if let Some(tr) = &trace {
            let profile = KernelProfile::from_launch(&LaunchStats {
                device,
                label: &tr.label,
                grid_blocks,
                threads_per_block,
                smem_per_block,
                node_bytes,
                sampled_blocks: n_sampled,
                concurrent_blocks: concurrent,
                waves: n_waves,
                gmem: &gmem_total,
                smem: &smem_total,
                steps,
                active_lane_steps,
                latency_bound_ns: latency_bound,
                block_reduction_ns: block_reduction_wall,
                scheduled_ns: scheduled,
                global_reduction_ns,
                streamed_serial_ns: sum_streamed,
                total_serial_ns: sum_serial,
            });
            let spans = launch_spans(LaunchSpans {
                trace: tr,
                span_data,
                plan_idx: &plan_idx,
                resident,
                mean_wall,
                scheduled,
                total_ns: profile.total_ns,
                global_reduction_ns,
            });
            tr.sink.record_launch(
                LaunchRecord {
                    device: 0,
                    start_ns: tr.t0_ns,
                    profile,
                    block_reductions,
                    global_reductions,
                    active_lane_steps,
                    stalled_lane_steps: (steps * u64::from(device.warp_size))
                        .saturating_sub(active_lane_steps),
                },
                spans,
            );
        }
        KernelResult {
            grid_blocks,
            threads_per_block,
            sampled_blocks: n_sampled,
            concurrent_blocks: concurrent,
            total_ns: scheduled + global_reduction_ns,
            block_reduction_wall_ns: block_reduction_wall,
            global_reduction_ns,
            mean_block_wall_ns: mean_wall,
            mean_block_critical_ns: mean_critical,
            max_block_wall_ns: max_wall,
            gmem: gmem_total,
            smem: smem_total,
            thread_busy_per_block,
            levels,
            steps,
            active_lane_steps,
            warp_size: device.warp_size,
        }
    }
}

/// Everything [`launch_spans`] needs from a finished launch.
struct LaunchSpans<'a> {
    trace: &'a TraceConfig,
    span_data: Vec<(f64, f64, Vec<f64>)>,
    plan_idx: &'a [usize],
    resident: usize,
    mean_wall: f64,
    scheduled: f64,
    total_ns: f64,
    global_reduction_ns: f64,
}

/// One traced launch's spans: the kernel's own, its global reduction, and
/// one [`SpanName::SampledBlock`] event per sampled block.
///
/// Runs on the caller thread after the plan-order merge, so everything it
/// records is a pure function of the (worker-count-invariant) merged
/// results. Sampled block `k` with grid index `g` is placed at wave
/// `g / resident` on track `g % resident` — the same wave-scheduling model
/// `finish` uses for kernel time — and the exports expand it into the block
/// span, its warps stacked flame-style under it, and the trailing block
/// reduction.
fn launch_spans(t: LaunchSpans<'_>) -> Vec<SpanEvent> {
    let t0 = t.trace.t0_ns;
    let mut events = Vec::with_capacity(2 + t.span_data.len());
    events.push(SpanEvent {
        name: SpanName::Text(t.trace.label.clone()),
        pid: PID_GPU,
        tid: 0,
        start_ns: t0,
        dur_ns: t.total_ns,
    });
    if t.global_reduction_ns > 0.0 {
        events.push(SpanEvent {
            name: SpanName::Text(format!("{}: global reduce", t.trace.label)),
            pid: PID_GPU,
            tid: 0,
            start_ns: t0 + t.scheduled,
            dur_ns: t.global_reduction_ns,
        });
    }
    let resident = t.resident.max(1);
    for (k, (wall, reduction_ns, warp_serials)) in t.span_data.into_iter().enumerate() {
        let g = t.plan_idx.get(k).copied().unwrap_or(k);
        let wave = g / resident;
        // Track 0 is the kernel's own; block slots start at 1.
        let tid = (g % resident) as u32 + 1;
        events.push(SpanEvent {
            name: SpanName::SampledBlock(Box::new(BlockRecord {
                block: u32::try_from(g).expect("a grid has at most 2^31 - 1 blocks"),
                warp_serial_ns: warp_serials.into_boxed_slice(),
                reduction_ns,
            })),
            pid: PID_GPU,
            tid,
            start_ns: t0 + wave as f64 * t.mean_wall,
            dur_ns: wall,
        });
    }
    events
}

/// Completed-kernel summary.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// Grid size in blocks.
    pub grid_blocks: usize,
    /// Block size in threads.
    pub threads_per_block: usize,
    /// Number of blocks simulated in detail.
    pub sampled_blocks: usize,
    /// Occupancy-limited concurrent blocks on the device.
    pub concurrent_blocks: usize,
    /// Simulated wall-clock time of the launch (ns), including reductions.
    pub total_ns: f64,
    /// Wall-clock time attributable to block-wide reductions
    /// (waves × mean per-block reduction).
    pub block_reduction_wall_ns: f64,
    /// Wall-clock time of device-wide reductions (ns).
    pub global_reduction_ns: f64,
    /// Mean sampled per-block wall time (ns).
    pub mean_block_wall_ns: f64,
    /// Mean sampled per-block critical path (ns), before bandwidth bounds.
    pub mean_block_critical_ns: f64,
    /// Max sampled per-block wall time (ns).
    pub max_block_wall_ns: f64,
    /// Extrapolated global-memory statistics.
    pub gmem: AccessStats,
    /// Extrapolated shared-memory statistics.
    pub smem: AccessStats,
    /// Per-thread busy times of each sampled block (imbalance metrics; the
    /// paper's A.C.V. averages the coefficient of variation per block).
    pub thread_busy_per_block: Vec<Vec<f64>>,
    /// Per-level statistics merged over sampled blocks.
    pub levels: BTreeMap<u32, LevelStats>,
    /// Total lockstep steps over sampled blocks.
    pub steps: u64,
    /// Sum of active lanes over those steps.
    pub active_lane_steps: u64,
    /// Warp width of the device (SIMT-efficiency denominator).
    pub warp_size: u32,
}

impl KernelResult {
    /// Fraction of wall-clock time spent reducing.
    #[must_use]
    pub fn reduction_fraction(&self) -> f64 {
        if self.total_ns == 0.0 {
            return 0.0;
        }
        ((self.block_reduction_wall_ns + self.global_reduction_ns) / self.total_ns).min(1.0)
    }

    /// SIMT efficiency: mean fraction of warp lanes active per step.
    ///
    /// Warp divergence — lanes idling because their tree finished earlier or
    /// their branch diverged — shows up here; the tree-similarity
    /// rearrangement's within-warp benefit is exactly raising this number.
    #[must_use]
    pub fn simt_efficiency(&self) -> f64 {
        if self.steps == 0 {
            return 1.0;
        }
        self.active_lane_steps as f64 / (self.steps * u64::from(self.warp_size)) as f64
    }

    /// Simulated global-memory throughput in bytes/ns (≈ GB/s).
    #[must_use]
    pub fn gmem_throughput(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.gmem.fetched_bytes as f64 / self.total_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Event;

    #[test]
    fn sample_plan_full_covers_grid() {
        assert_eq!(sample_plan(5, Detail::Full), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_plan_sampled_is_evenly_spaced_and_capped() {
        let plan = sample_plan(100, Detail::Sampled(4));
        assert_eq!(plan, vec![0, 25, 50, 75]);
        let small = sample_plan(3, Detail::Sampled(10));
        assert_eq!(small, vec![0, 1, 2]);
    }

    #[test]
    fn class_plan_covers_every_class_when_the_stride_aliases() {
        // 4 classes × 16 tiles, 16 samples: the uniform stride is 4, a
        // multiple of the class count, so it samples class 0 only.
        let uniform = sample_plan(64, Detail::Sampled(16));
        assert!(uniform.iter().all(|b| b % 4 == 0));
        let plan = sample_plan_by_class(64, 4, Detail::Sampled(16));
        assert_eq!(plan.len(), 16);
        assert!(plan.windows(2).all(|w| w[0] < w[1]));
        for class in 0..4 {
            assert_eq!(plan.iter().filter(|&&b| b % 4 == class).count(), 4, "class {class}");
        }
        // Uneven shares: 3 classes × 10 tiles, 7 samples give 3/2/2.
        let plan = sample_plan_by_class(30, 3, Detail::Sampled(7));
        let shares: Vec<usize> =
            (0..3).map(|c| plan.iter().filter(|&&b| b % 3 == c).count()).collect();
        assert_eq!(shares, [3, 2, 2]);
        assert!(plan.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn class_plan_falls_back_to_the_uniform_stride() {
        for (grid, classes, detail) in [
            (64, 1, Detail::Sampled(16)),
            (64, 1, Detail::Sampled(0)),
            (60, 20, Detail::Sampled(8)),
            (12, 4, Detail::Sampled(16)),
            (12, 4, Detail::Full),
        ] {
            assert_eq!(
                sample_plan_by_class(grid, classes, detail),
                sample_plan(grid, detail),
                "{grid} blocks, {classes} classes, {detail:?}"
            );
        }
    }

    fn run_kernel(device: &DeviceSpec, grid: usize, detail: Detail) -> KernelResult {
        let mut k = KernelSim::new(device, grid, 64, 0);
        for _idx in sample_plan(grid, detail) {
            let mut b = k.block();
            let mut w = b.warp();
            let accesses: Vec<(u8, u64)> = (0..32).map(|i| (i as u8, 0x1000 + i * 4)).collect();
            for _ in 0..10 {
                w.gmem_read(&accesses, 4, None);
            }
            b.push_warp(w.finish());
            b.block_reduce(64);
            k.push_block(b.finish());
        }
        k.finish()
    }

    #[test]
    fn sampled_extrapolation_matches_full_for_uniform_blocks() {
        let d = DeviceSpec::tesla_p100();
        let full = run_kernel(&d, 64, Detail::Full);
        let sampled = run_kernel(&d, 64, Detail::Sampled(8));
        assert!((full.total_ns - sampled.total_ns).abs() / full.total_ns < 1e-9);
        assert_eq!(full.gmem.fetched_bytes, sampled.gmem.fetched_bytes);
        assert!(
            (full.block_reduction_wall_ns - sampled.block_reduction_wall_ns).abs()
                / full.block_reduction_wall_ns
                < 1e-9
        );
    }

    #[test]
    fn more_blocks_than_concurrency_adds_waves() {
        let d = DeviceSpec::tesla_p100();
        let concurrent = concurrent_blocks(&d, 64, 0);
        let one_wave = run_kernel(&d, concurrent, Detail::Sampled(4));
        let two_waves = run_kernel(&d, concurrent + 1, Detail::Sampled(4));
        assert!(two_waves.total_ns > 1.9 * one_wave.total_ns);
    }

    #[test]
    fn aggregate_throughput_never_exceeds_device_bandwidth() {
        // A bandwidth-saturating uncoalesced kernel must be bounded by peak.
        for d in DeviceSpec::paper_devices() {
            let threads = 256usize;
            let grid = concurrent_blocks(&d, threads, 0) * 3;
            let mut k = KernelSim::new(&d, grid, threads, 0);
            let mut b = k.block();
            for w_idx in 0..threads / 32 {
                let mut w = b.warp();
                for s in 0..32u64 {
                    let base = 0x1000_0000 + (w_idx as u64 * 32 + s) * 4096 * 32;
                    let accesses: Vec<(u8, u64)> =
                        (0..32).map(|i| (i as u8, base + i * 4096)).collect();
                    w.gmem_read(&accesses, 4, None);
                }
                b.push_warp(w.finish());
            }
            k.push_block(b.finish());
            let r = k.finish();
            assert!(
                r.gmem_throughput() <= d.gmem_bytes_per_ns * 1.001,
                "{}: throughput {} exceeds peak {}",
                d.name,
                r.gmem_throughput(),
                d.gmem_bytes_per_ns
            );
        }
    }

    #[test]
    fn single_block_cannot_use_whole_device_bandwidth() {
        let d = DeviceSpec::tesla_p100();
        let mut k = KernelSim::new(&d, 1, 64, 0);
        let mut b = k.block();
        let mut w = b.warp();
        for s in 0..1_000u64 {
            let accesses: Vec<(u8, u64)> =
                (0..32).map(|i| (i as u8, 0x1000_0000 + s * 128 * 32 + i * 4)).collect();
            w.gmem_read(&accesses, 4, None);
        }
        b.push_warp(w.finish());
        k.push_block(b.finish());
        let r = k.finish();
        // One resident block gets the full bandwidth share in this model, but
        // the latency-dominated critical path keeps throughput far below it.
        assert!(r.gmem_throughput() < 0.2 * d.gmem_bytes_per_ns);
    }

    #[test]
    fn global_reduce_adds_wall_clock_time() {
        let d = DeviceSpec::tesla_v100();
        let mut k = KernelSim::new(&d, 4, 32, 0);
        let mut b = k.block();
        let mut w = b.warp();
        w.gmem_read(&[(0, 0x1000)], 4, None);
        b.push_warp(w.finish());
        k.push_block(b.finish());
        let cost = k.global_reduce(4);
        let r = k.finish();
        assert!((r.global_reduction_ns - cost).abs() < 1e-9);
        assert!(r.total_ns >= cost);
    }

    #[test]
    fn reduction_fraction_is_bounded_and_positive() {
        let d = DeviceSpec::tesla_k80();
        let r = run_kernel(&d, 16, Detail::Full);
        let f = r.reduction_fraction();
        assert!(f > 0.0 && f <= 1.0, "fraction {f}");
    }

    /// One deterministic but block-dependent block workload: the step count
    /// depends on `block_idx % 7`, and addresses shift per block by 4096.
    fn lumpy_trace(block_idx: usize, mut b: BlockSim<'_>) -> BlockResult {
        let mut w = b.warp();
        for s in 0..(4 + block_idx % 7) as u64 {
            let accesses: Vec<(u8, u64)> = (0..32)
                .map(|i| (i as u8, 0x1000 + (block_idx as u64) * 4096 + s * 128 + i * 4))
                .collect();
            w.gmem_read(&accesses, 4, Some((s % 3) as u32));
        }
        b.push_warp(w.finish());
        b.block_reduce(64);
        b.finish()
    }

    /// The lumpy workload, built either through the sequential `push_block`
    /// path or the parallel driver.
    fn lumpy_kernel(device: &DeviceSpec, parallel: bool) -> KernelResult {
        let grid = 96usize;
        let plan = sample_plan(grid, Detail::Sampled(24));
        let mut k = KernelSim::new(device, grid, 64, 0);
        if parallel {
            k.simulate_blocks(&plan, lumpy_trace);
        } else {
            for idx in plan {
                k.push_block(lumpy_trace(idx, k.block()));
            }
        }
        k.finish()
    }

    #[test]
    fn simulate_blocks_is_bit_identical_to_sequential_push() {
        let d = DeviceSpec::tesla_p100();
        for workers in [1usize, 2, 8] {
            crate::parallel::set_sim_threads(Some(workers));
            let par = lumpy_kernel(&d, true);
            crate::parallel::set_sim_threads(None);
            let seq = lumpy_kernel(&d, false);
            assert_eq!(par.total_ns.to_bits(), seq.total_ns.to_bits(), "{workers} workers");
            assert_eq!(par.mean_block_wall_ns.to_bits(), seq.mean_block_wall_ns.to_bits());
            assert_eq!(par.gmem, seq.gmem);
            assert_eq!(par.levels, seq.levels);
            assert_eq!(par.thread_busy_per_block, seq.thread_busy_per_block);
            assert_eq!(par.steps, seq.steps);
            assert_eq!(par.active_lane_steps, seq.active_lane_steps);
        }
    }

    /// A traced launch stores one event per sampled block, and the
    /// `spans()` snapshot expands each into the block span, its warps in
    /// order and its reduction, all on the block's track and start.
    #[test]
    fn traced_launch_records_one_event_per_sampled_block() {
        let d = DeviceSpec::tesla_p100();
        let sink = TelemetrySink::recording();
        let mut k = KernelSim::new(&d, 2, 96, 0);
        k.set_trace(&sink, "hand-built", 500.0);
        let mut blocks = Vec::new();
        for (n_warps, reduces) in [(3usize, true), (2, false)] {
            let mut b = k.block();
            for w_idx in 0..n_warps {
                let mut w = b.warp();
                let accesses: Vec<(u8, u64)> =
                    (0..32).map(|i| (i as u8, 0x1000 + i * 4)).collect();
                for _ in 0..=w_idx {
                    w.gmem_read(&accesses, 4, None);
                }
                b.push_warp(w.finish());
            }
            if reduces {
                b.block_reduce(96);
            }
            let result = b.finish();
            blocks.push((result.warp_serial_ns.clone(), result.reduction_ns));
            k.push_block(result);
        }
        let _ = k.finish();

        let stored: Vec<u32> = sink.view(|log| {
            log.iter()
                .filter_map(|e| match e {
                    Event::Span(SpanEvent { name: SpanName::SampledBlock(b), .. }) => {
                        Some(b.block)
                    }
                    _ => None,
                })
                .collect()
        });
        assert_eq!(stored, vec![0, 1], "one stored event per sampled block");

        let spans = sink.spans();
        assert_eq!(spans[0].name, SpanName::Text("hand-built".into()));
        let mut rest = &spans[1..];
        for (g, (serials, reduction_ns)) in blocks.iter().enumerate() {
            let g = g as u32;
            let block = &rest[0];
            assert_eq!(block.name, SpanName::Block(g));
            assert_eq!((block.pid, block.tid), (PID_GPU, g + 1));
            assert_eq!(block.start_ns, 500.0, "one wave: every block starts at t0");
            let parts = 1 + serials.len() + usize::from(*reduction_ns > 0.0);
            for (p, s) in rest[..parts].iter().enumerate() {
                assert_eq!((s.pid, s.tid), (block.pid, block.tid), "part {p}");
                let expected = match p {
                    0 => (SpanName::Block(g), block.start_ns, block.dur_ns),
                    w if w <= serials.len() => {
                        (SpanName::Warp(g, w as u32 - 1), block.start_ns, serials[w - 1])
                    }
                    _ => (
                        SpanName::Reduce(g),
                        block.start_ns + block.dur_ns - reduction_ns,
                        *reduction_ns,
                    ),
                };
                assert_eq!((s.name.clone(), s.start_ns, s.dur_ns), expected, "part {p}");
            }
            rest = &rest[parts..];
        }
        assert!(rest.is_empty(), "nothing beyond the kernel and its blocks");
        assert!(blocks[0].1 > 0.0 && blocks[1].1 == 0.0);
        assert!(blocks[0].0[0] < blocks[0].0[2], "warps differ in serial time");
        assert_eq!(spans.len(), 1 + (1 + 3 + 1) + (1 + 2));
        assert_eq!(sink.snapshot().span_count, spans.len());
    }

    #[test]
    #[should_panic(expected = "no blocks were simulated")]
    fn finishing_without_blocks_panics() {
        let d = DeviceSpec::tesla_k80();
        let k = KernelSim::new(&d, 4, 32, 0);
        let _ = k.finish();
    }
}
