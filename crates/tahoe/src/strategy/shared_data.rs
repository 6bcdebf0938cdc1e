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
    launch_kernel, simulate_staging, traverse_warp, with_block_scratch, Geometry, LaunchContext,
    Strategy, StrategyRun, TraversalConfig,
};

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
    let n_trees = ctx.forest.n_trees();
    let roots = ctx.forest.roots();
    let max_rounds = n_trees.div_ceil(s.threads);
    // The reduction combines one partial per tree (threads with several trees
    // pre-accumulate), so its cost scales with min(trees, threads).
    let reduce_values = n_trees.min(s.threads);
    // Nodes come from global memory, attributes from the staged samples.
    let cfg = TraversalConfig {
        nodes_shared: false,
        attrs_shared: true,
    };
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
        // Trees are assigned round-robin (§2): thread `t` walks layout trees
        // `t, t + threads, t + 2 × threads, ...`.
        with_block_scratch(|scratch| {
            for w in 0..n_warps {
                let mut warp_sim = block.warp();
                for sample in s0..s1 {
                    for round in 0..max_rounds {
                        let first = round * s.threads + w * warp;
                        if first >= n_trees {
                            break; // this warp has no tree left
                        }
                        let lane_start = |lane: usize| {
                            let tree = first + lane;
                            (tree < n_trees).then(|| (roots[tree], sample))
                        };
                        traverse_warp(&mut warp_sim, ctx, cfg, lane_start, scratch);
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
