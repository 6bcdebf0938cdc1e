//! The *shared data* strategy — FIL's inference algorithm (paper §2).
//!
//! Each thread block stages a chunk of samples into shared memory; trees are
//! assigned to threads round-robin; for every staged sample all threads
//! traverse their trees (nodes from global memory, attributes from shared
//! memory) and a block-wide reduction combines the per-tree partial sums.
//!
//! Two launch-shaping details mirror production FIL rather than the paper's
//! one-sentence description:
//!
//! - blocks are 256 threads regardless of tree count (sample staging needs
//!   the whole block's lanes);
//! - the staged chunk is "as many samples as fit in shared memory" (§2), but
//!   never so large that the grid cannot occupy the device — a real launch
//!   would not put a 100-sample batch into a single block.

use tahoe_gpu_sim::kernel::sample_plan;

use super::common::{
    launch_kernel, packed_node_read, round_robin_trees, simulate_staging, Geometry,
    LaunchContext, Strategy, StrategyRun,
};
use crate::format::{DeviceForest, NodeEncoding};

/// Launch shape shared by `geometry` and `run`.
struct Shape {
    threads: usize,
    chunk: usize,
    grid: usize,
    smem: usize,
}

fn shape(ctx: &LaunchContext<'_>) -> Shape {
    let capacity = ctx.device.shared_mem_per_block;
    let sample_bytes = ctx.samples.sample_bytes().max(4);
    let n = ctx.samples.n_samples().max(1);
    // Fill shared memory, but keep at least ~2 blocks per SM of work.
    let by_smem = (capacity / sample_bytes).max(1);
    let by_grid = n.div_ceil(2 * ctx.device.num_sms as usize).max(1);
    let chunk = by_smem.min(by_grid).min(n);
    Shape {
        threads: ctx.threads(),
        chunk,
        grid: n.div_ceil(chunk),
        smem: (chunk * sample_bytes).min(capacity),
    }
}

/// Launch geometry for this context.
#[must_use]
pub fn geometry(ctx: &LaunchContext<'_>) -> Geometry {
    let s = shape(ctx);
    Geometry {
        threads_per_block: s.threads,
        grid_blocks: s.grid,
        smem_per_block: s.smem,
        parts: 1,
    }
}

/// Runs the strategy on the simulator.
///
/// # Panics
///
/// Panics if the batch is empty.
#[must_use]
pub fn run(ctx: &LaunchContext<'_>) -> StrategyRun {
    let n = ctx.samples.n_samples();
    assert!(n > 0, "cannot infer an empty batch");
    let s = shape(ctx);
    let geo = geometry(ctx);
    let warp = ctx.device.warp_size as usize;
    let n_warps = s.threads.div_ceil(warp);
    let assignment = round_robin_trees(ctx.forest.n_trees(), s.threads);
    let max_rounds = ctx.forest.n_trees().div_ceil(s.threads);
    // The reduction combines one partial per tree (threads with several trees
    // pre-accumulate), so its cost scales with min(trees, threads).
    let reduce_values = ctx.forest.n_trees().min(s.threads);
    let mut kernel = launch_kernel(ctx, Strategy::SharedData.name(), s.grid, s.threads, s.smem);
    let n_attr = ctx.samples.n_attributes();
    let plan = sample_plan(s.grid, ctx.detail);
    kernel.simulate_blocks(&plan, |block_idx, mut block| {
        let s0 = block_idx * s.chunk;
        let s1 = (s0 + s.chunk).min(n);
        // Stage the chunk's samples into shared memory (coalesced).
        let words = (s1 - s0) * n_attr;
        if words > 0 {
            let base = ctx.sample_buf.elem_addr((s0 * n_attr) as u64, 4);
            simulate_staging(&mut block, base, words, n_warps);
        }
        // Traversal: warp-level lockstep over (sample, tree round, level).
        with_warp_scratch(|scratch| {
            for w in 0..n_warps {
                let mut warp_sim = block.warp();
                for sample in s0..s1 {
                    for r in 0..max_rounds {
                        scratch.lane_trees.clear();
                        for lane in 0..warp {
                            let thread = w * warp + lane;
                            scratch.lane_trees.push(assignment[thread].get(r).copied());
                        }
                        traverse_assigned_trees(
                            &mut warp_sim,
                            ctx.forest,
                            ctx.samples,
                            sample,
                            scratch,
                        );
                    }
                }
                block.push_warp(warp_sim.finish());
            }
        });
        // One block-wide reduction per staged sample.
        for _ in s0..s1 {
            block.block_reduce(reduce_values);
        }
        block.finish()
    });
    StrategyRun {
        strategy: Strategy::SharedData,
        kernel: kernel.finish(),
        geometry: geo,
        n_samples: n,
    }
}

/// Reusable buffers for the lockstep loop, pooled per worker thread:
/// `simulate_blocks` fans blocks out across host threads, and each worker
/// reuses one scratch across every block it claims.
#[derive(Default)]
struct WarpScratch {
    lane_trees: Vec<Option<u32>>,
    slots: Vec<Option<u32>>,
    node_accesses: Vec<(u8, u64)>,
    value_accesses: Vec<(u8, u64)>,
    child_accesses: Vec<(u8, u64)>,
    eval_lanes: Vec<u8>,
}

thread_local! {
    static WARP_SCRATCH: std::cell::RefCell<WarpScratch> =
        std::cell::RefCell::new(WarpScratch::default());
}

/// Runs `f` with the calling worker thread's reusable [`WarpScratch`].
fn with_warp_scratch<R>(f: impl FnOnce(&mut WarpScratch) -> R) -> R {
    WARP_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Level-synchronous traversal where each lane walks its *own* tree for the
/// same sample (the thread-per-tree pattern of shared data); reads
/// `scratch.lane_trees` as the lane → tree assignment.
fn traverse_assigned_trees(
    warp: &mut tahoe_gpu_sim::WarpSim<'_>,
    forest: &DeviceForest,
    samples: &tahoe_datasets::SampleMatrix,
    sample: usize,
    scratch: &mut WarpScratch,
) {
    scratch.slots.clear();
    for t in &scratch.lane_trees {
        scratch
            .slots
            .push(t.map(|tree| forest.roots()[tree as usize]));
    }
    let row = samples.row(sample);
    let packed = forest.encoding() == NodeEncoding::Packed;
    let mut level = 0u32;
    loop {
        scratch.node_accesses.clear();
        scratch.value_accesses.clear();
        scratch.child_accesses.clear();
        for (lane, slot) in scratch.slots.iter().enumerate() {
            if let Some(slot) = slot {
                scratch
                    .node_accesses
                    .push((lane as u8, forest.lane_addr(0, *slot)));
                if packed {
                    scratch
                        .value_accesses
                        .push((lane as u8, forest.lane_addr(1, *slot)));
                    if forest.lanes().len() > 2 {
                        scratch
                            .child_accesses
                            .push((lane as u8, forest.lane_addr(2, *slot)));
                    }
                }
            }
        }
        if scratch.node_accesses.is_empty() {
            break;
        }
        if packed {
            packed_node_read(
                warp,
                forest,
                &scratch.node_accesses,
                &scratch.value_accesses,
                &scratch.child_accesses,
                Some(level),
            );
        } else {
            warp.gmem_read(&scratch.node_accesses, forest.node_bytes() as u64, Some(level));
        }
        scratch.eval_lanes.clear();
        for lane in 0..scratch.slots.len() {
            let Some(slot) = scratch.slots[lane] else { continue };
            let node = forest.node(slot);
            if node.leaf {
                scratch.slots[lane] = None;
                continue;
            }
            scratch.eval_lanes.push(lane as u8);
            let value = row[node.attribute as usize];
            scratch.slots[lane] = Some(node.next_slot(value).expect("decision nodes route"));
        }
        if !scratch.eval_lanes.is_empty() {
            // Attributes come from shared memory in this strategy.
            warp.smem_access(&scratch.eval_lanes, 4);
            warp.node_eval(&scratch.eval_lanes);
        }
        level += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::testutil::{context, Fixture};
    use tahoe_gpu_sim::kernel::Detail;

    #[test]
    fn geometry_respects_shared_memory_and_grid_floor() {
        let fx = Fixture::trained("letter");
        let ctx = context(&fx, Detail::Full);
        let geo = geometry(&ctx);
        assert!(geo.smem_per_block <= ctx.device.shared_mem_per_block);
        // Small batches spread across the device instead of one giant block.
        let min_blocks = ctx.samples.n_samples().min(2 * ctx.device.num_sms as usize);
        assert!(geo.grid_blocks >= min_blocks / 2, "grid {}", geo.grid_blocks);
    }

    #[test]
    fn run_reports_reduction_time() {
        let fx = Fixture::trained("letter");
        let ctx = context(&fx, Detail::Sampled(2));
        let run = run(&ctx);
        assert!(run.kernel.block_reduction_wall_ns > 0.0, "shared data always reduces");
        assert!(run.kernel.global_reduction_ns == 0.0);
        assert!(run.throughput_samples_per_us() > 0.0);
    }

    #[test]
    fn node_reads_are_tagged_by_level() {
        let fx = Fixture::trained("letter");
        let ctx = context(&fx, Detail::Sampled(1));
        let run = run(&ctx);
        assert!(!run.kernel.levels.is_empty());
        assert!(run.kernel.levels.contains_key(&0), "root level must be present");
    }

    #[test]
    fn more_trees_mean_more_node_traffic_and_reduction() {
        let fx_small = Fixture::trained_with_trees("letter", 10);
        let fx_big = Fixture::trained_with_trees("letter", 40);
        let small = run(&context(&fx_small, Detail::Sampled(2)));
        let big = run(&context(&fx_big, Detail::Sampled(2)));
        assert!(big.kernel.gmem.requested_bytes > small.kernel.gmem.requested_bytes);
        // Reduction cost per sample grows with the tree count (Fig. 2b's
        // mechanism) — compare per-sample wall shares.
        assert!(
            big.kernel.block_reduction_wall_ns > small.kernel.block_reduction_wall_ns * 1.2
        );
    }
}
