//! Shared machinery for the inference-strategy kernels.

use std::cell::RefCell;

use tahoe_datasets::SampleMatrix;
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::kernel::{sample_plan, Detail, KernelResult, KernelSim};
use tahoe_gpu_sim::memory::GlobalBuffer;
use tahoe_gpu_sim::{BlockSim, WarpSim};

use crate::format::DeviceForest;
use crate::telemetry::TelemetryCtx;

/// The four inference strategies of §5.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Strategy {
    /// FIL's algorithm: samples in shared memory, trees round-robin across
    /// threads, block-wide reduction per sample.
    SharedData,
    /// Whole forest per thread, everything in global memory, reduction-free.
    Direct,
    /// Whole forest in shared memory, one sample per thread, reduction-free.
    SharedForest,
    /// Forest split across blocks' shared memories; global reduction per
    /// batch.
    SplittingSharedForest,
}

impl Strategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::SharedData,
        Strategy::Direct,
        Strategy::SharedForest,
        Strategy::SplittingSharedForest,
    ];

    /// Paper name of the strategy.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Strategy::SharedData => "shared data",
            Strategy::Direct => "direct",
            Strategy::SharedForest => "shared forest",
            Strategy::SplittingSharedForest => "splitting shared forest",
        }
    }

    /// Whether the strategy needs a block-wide reduction.
    #[must_use]
    pub fn has_block_reduction(self) -> bool {
        self == Strategy::SharedData
    }

    /// Whether the strategy needs a device-wide reduction.
    #[must_use]
    pub fn has_global_reduction(self) -> bool {
        self == Strategy::SplittingSharedForest
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Inputs of one strategy launch.
#[derive(Clone, Copy)]
pub struct LaunchContext<'a> {
    /// Target device.
    pub device: &'a DeviceSpec,
    /// Device-formatted forest.
    pub forest: &'a DeviceForest,
    /// The sample batch.
    pub samples: &'a SampleMatrix,
    /// Simulated allocation holding the batch (row-major f32).
    pub sample_buf: GlobalBuffer,
    /// Block-sampling level for the simulation.
    pub detail: Detail,
    /// Threads per block (Algorithm 1 line 14 tunes this; see
    /// [`crate::tune`]). Must be a positive multiple of the warp size.
    pub block_threads: usize,
    /// Where (and at what simulated time) this launch records telemetry.
    /// [`TelemetryCtx::disabled`] records nothing.
    pub telemetry: TelemetryCtx<'a>,
}

impl LaunchContext<'_> {
    /// The context's block size, clamped to the device's limits and rounded
    /// to whole warps.
    #[must_use]
    pub fn threads(&self) -> usize {
        let warp = self.device.warp_size as usize;
        let max = self.device.max_threads_per_block as usize;
        (self.block_threads.max(warp) / warp * warp).min(max)
    }

}

/// Launch geometry a strategy chose (feeds the performance models'
/// `Num_of_threads` / `Num_of_thrd_blocks`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// Threads per block.
    pub threads_per_block: usize,
    /// Blocks in the grid.
    pub grid_blocks: usize,
    /// Shared memory per block (bytes).
    pub smem_per_block: usize,
    /// Forest parts (splitting shared forest's `P`; 1 elsewhere). The grid
    /// may tile samples on top: `grid_blocks = parts × tiles`.
    pub parts: usize,
}

impl Geometry {
    /// Sample tiles in the grid (`grid_blocks / parts`).
    #[must_use]
    pub fn tiles(&self) -> usize {
        (self.grid_blocks / self.parts.max(1)).max(1)
    }
}

/// Result of one strategy launch.
#[derive(Clone, Debug)]
pub struct StrategyRun {
    /// Which strategy ran.
    pub strategy: Strategy,
    /// Simulated kernel outcome.
    pub kernel: KernelResult,
    /// Geometry used.
    pub geometry: Geometry,
    /// Samples processed.
    pub n_samples: usize,
}

impl StrategyRun {
    /// Simulated throughput in samples per microsecond (Fig. 5/6's y-axis).
    #[must_use]
    pub fn throughput_samples_per_us(&self) -> f64 {
        if self.kernel.total_ns == 0.0 {
            0.0
        } else {
            self.n_samples as f64 / (self.kernel.total_ns / 1_000.0)
        }
    }

    /// Simulated ns per sample.
    #[must_use]
    pub fn ns_per_sample(&self) -> f64 {
        self.kernel.total_ns / self.n_samples as f64
    }
}

/// Default threads per block (FIL's default; Algorithm 1 line 14 may tune
/// it per launch).
pub const THREADS_PER_BLOCK: usize = 256;

/// Creates the kernel tracer for a strategy launch, attaching the context's
/// telemetry so the launch shows up (as `label`) in exported traces. All four
/// strategies go through this — keep new ones on it so their launches are
/// observable too.
#[must_use]
pub fn launch_kernel<'a>(
    ctx: &LaunchContext<'a>,
    label: &str,
    grid_blocks: usize,
    threads_per_block: usize,
    smem_per_block: usize,
) -> KernelSim<'a> {
    let mut sim = KernelSim::new(ctx.device, grid_blocks, threads_per_block, smem_per_block);
    sim.set_trace(ctx.telemetry.sink, label, ctx.telemetry.t0_ns);
    sim.set_node_bytes(ctx.forest.node_bytes() as u64);
    sim
}

/// Simulated address of `samples[sample][attr]`.
#[must_use]
pub fn sample_attr_addr(
    buf: GlobalBuffer,
    n_attributes: usize,
    sample: usize,
    attr: usize,
) -> u64 {
    buf.elem_addr((sample * n_attributes + attr) as u64, 4)
}

/// Simulates a block cooperatively streaming `n_words` consecutive f32 words
/// from global memory into shared memory (fully coalesced reads + shared
/// writes), spreading the work over the block's warps.
///
/// Used for the sample staging of shared-data and the forest staging of
/// splitting-shared-forest. Returns nothing; costs accrue on the block.
/// Access buffers come from the worker's `BlockScratch`, so blocks fanned
/// out by `KernelSim::simulate_blocks` stage without per-step allocations.
pub fn simulate_staging(block: &mut BlockSim<'_>, base_addr: u64, n_words: usize, n_warps: usize) {
    let warp_size = block.device().warp_size as usize;
    let total_steps = n_words.div_ceil(warp_size);
    with_block_scratch(|scratch| {
        scratch.active.clear();
        scratch.active.extend(0..warp_size as u8);
        for w in 0..n_warps {
            let mut warp = block.warp();
            // Warp w handles steps w, w + W, ... (grid-stride loop).
            let mut step = w;
            while step < total_steps {
                scratch.accesses.clear();
                let start = step * warp_size;
                let end = (start + warp_size).min(n_words);
                for (lane, word) in (start..end).enumerate() {
                    scratch.accesses.push((lane as u8, base_addr + word as u64 * 4));
                }
                warp.gmem_read_streamed(&scratch.accesses, 4, None);
                warp.smem_access(&scratch.active[..end - start], 4);
                step += n_warps;
            }
            // Staging is cooperative block-wide work, not a per-thread
            // workload: blank the lane-busy times so imbalance metrics
            // (Fig. 2c, Table 3) measure traversal threads only, as the
            // paper's profiling does.
            let mut result = warp.finish();
            for busy in &mut result.lane_busy_ns {
                *busy = 0.0;
            }
            block.push_warp(result);
        }
    });
}

/// Simulates a block staging layout trees `[from, to)` of the forest into
/// shared memory: the slice's node records stream as whole words from the
/// first root's address (a trailing partial word is not charged).
pub fn stage_forest_slice(
    block: &mut BlockSim<'_>,
    forest: &DeviceForest,
    from: usize,
    to: usize,
    n_warps: usize,
) {
    if from >= to {
        return;
    }
    let slice_bytes = forest.trees_smem_bytes(from, to);
    if slice_bytes == 0 {
        return;
    }
    let first_root = forest.roots()[from];
    simulate_staging(block, forest.node_addr(first_root), slice_bytes / 4, n_warps);
}

/// Where a warp walk reads nodes and attributes: the §5.1 strategies differ
/// in what they keep in shared memory.
#[derive(Clone, Copy)]
pub(crate) struct TraversalConfig {
    /// Node reads hit the staged forest in shared memory; otherwise they are
    /// dependent global reads, tagged with the tree level (Fig. 2a).
    pub nodes_shared: bool,
    /// Attribute reads hit the staged samples in shared memory; otherwise
    /// they are global reads of the batch.
    pub attrs_shared: bool,
}

/// Walks one warp level-synchronously until every lane reaches a leaf.
///
/// `start(lane)` is an active lane's start root and sample, `None` for an
/// idle lane. The thread-per-sample strategies start every lane at one
/// tree's root, each with its own sample; shared data starts each lane at
/// its round-robin tree, all on the one staged sample. Every level issues
/// the node read, then — for lanes at decision nodes — the attribute read
/// and the node evaluation.
///
/// Lanes walk the forest's host mirror by record index (a root's slot is
/// its index, see [`DeviceForest::roots`]); a record's slot only places its
/// simulated read.
pub(crate) fn traverse_warp(
    warp: &mut WarpSim<'_>,
    ctx: &LaunchContext<'_>,
    cfg: TraversalConfig,
    start: impl Fn(usize) -> Option<(u32, usize)>,
    scratch: &mut BlockScratch,
) {
    let forest = ctx.forest;
    let values = ctx.samples.values();
    let n_attr = ctx.samples.n_attributes();
    let node_bytes = forest.node_bytes() as u64;
    let s = scratch;
    s.lanes.clear();
    s.lanes.extend((0..ctx.device.warp_size as usize).map(start));
    let mut level = 0u32;
    loop {
        s.active.clear();
        s.accesses.clear();
        for (lane, state) in s.lanes.iter().enumerate() {
            let Some((index, _)) = *state else { continue };
            let lane = lane as u8;
            if cfg.nodes_shared {
                s.active.push(lane);
                continue;
            }
            s.accesses.push((lane, forest.node_addr(forest.record(index).slot)));
        }
        if s.active.is_empty() && s.accesses.is_empty() {
            break;
        }
        if cfg.nodes_shared {
            warp.smem_access(&s.active, node_bytes);
        } else {
            warp.gmem_read(&s.accesses, node_bytes, Some(level));
        }
        // Attribute reads + evaluation for lanes at decision nodes.
        s.attr_accesses.clear();
        s.eval.clear();
        for (lane, state) in s.lanes.iter_mut().enumerate() {
            let Some((index, sample)) = *state else { continue };
            let node = forest.record(index);
            if node.leaf {
                *state = None;
                continue;
            }
            let attr = node.attribute as usize;
            s.eval.push(lane as u8);
            if !cfg.attrs_shared {
                s.attr_accesses
                    .push((lane as u8, sample_attr_addr(ctx.sample_buf, n_attr, sample, attr)));
            }
            *state = Some((node.next(values[sample * n_attr + attr]), sample));
        }
        if !s.eval.is_empty() {
            if cfg.attrs_shared {
                warp.smem_access(&s.eval, 4);
            } else {
                warp.gmem_read(&s.attr_accesses, 4, None);
            }
            warp.node_eval(&s.eval);
        }
        level += 1;
    }
}

/// The thread-per-sample kernel body of direct and shared forest: thread `i`
/// of block `b` owns sample `b × threads + i` and walks every tree for it,
/// reading attributes from global memory. Warps past the batch's end are not
/// launched.
///
/// # Panics
///
/// Panics if the batch is empty.
pub(crate) fn run_per_sample(
    ctx: &LaunchContext<'_>,
    strategy: Strategy,
    geo: Geometry,
    nodes_shared: bool,
) -> StrategyRun {
    let n = ctx.samples.n_samples();
    assert!(n > 0, "cannot infer an empty batch");
    let warp = ctx.device.warp_size as usize;
    let threads = geo.threads_per_block;
    let cfg = TraversalConfig {
        nodes_shared,
        attrs_shared: false,
    };
    let smem = geo.smem_per_block;
    let mut kernel = launch_kernel(ctx, strategy.name(), geo.grid_blocks, threads, smem);
    let plan = sample_plan(geo.grid_blocks, ctx.detail);
    kernel.simulate_blocks(&plan, |block_idx, mut block| {
        with_block_scratch(|scratch| {
            for w in 0..threads / warp {
                let first = block_idx * threads + w * warp;
                if first >= n {
                    break;
                }
                let mut warp_sim = block.warp();
                for &root in ctx.forest.roots() {
                    let lane_start =
                        |lane: usize| (first + lane < n).then_some((root, first + lane));
                    traverse_warp(&mut warp_sim, ctx, cfg, lane_start, scratch);
                }
                block.push_warp(warp_sim.finish());
            }
        });
        block.finish()
    });
    StrategyRun {
        strategy,
        kernel: kernel.finish(),
        geometry: geo,
        n_samples: n,
    }
}

/// Per-worker reusable buffers for one block's strategy simulation: the
/// warp walk's lane states and access lists, which staging reuses for its
/// word accesses.
///
/// Blocks fan out across host threads (`KernelSim::simulate_blocks`), so the
/// scratch lives in a thread-local pool instead of being threaded through the
/// closure: each worker reuses its buffers across every block it claims, and
/// a 1-thread run reuses one set across the whole grid.
#[derive(Default)]
pub(crate) struct BlockScratch {
    /// Per-lane `(mirror index, sample)` of the walk; `None` once idle.
    lanes: Vec<Option<(u32, usize)>>,
    /// Node-read or staged-word accesses.
    accesses: Vec<(u8, u64)>,
    /// Attribute-read accesses.
    attr_accesses: Vec<(u8, u64)>,
    /// Lanes issuing this step's node read (or staging write).
    active: Vec<u8>,
    /// Lanes evaluating a decision node this level.
    eval: Vec<u8>,
}

thread_local! {
    static BLOCK_SCRATCH: RefCell<BlockScratch> = RefCell::new(BlockScratch::default());
}

/// Runs `f` with the calling worker thread's reusable [`BlockScratch`].
///
/// # Panics
///
/// Panics on re-entrant use from the same thread (a block stages, then
/// walks; the two never nest).
pub(crate) fn with_block_scratch<R>(f: impl FnOnce(&mut BlockScratch) -> R) -> R {
    BLOCK_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_and_reduction_flags() {
        assert_eq!(Strategy::SharedData.name(), "shared data");
        assert!(Strategy::SharedData.has_block_reduction());
        assert!(!Strategy::Direct.has_block_reduction());
        assert!(Strategy::SplittingSharedForest.has_global_reduction());
        assert!(!Strategy::SharedForest.has_global_reduction());
        assert_eq!(Strategy::ALL.len(), 4);
    }
}
