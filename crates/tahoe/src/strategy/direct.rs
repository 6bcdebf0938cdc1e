//! The *direct* strategy (paper §5.1).
//!
//! Each thread owns one sample and traverses the entire forest for it; no
//! shared memory, no reductions. All reads hit global memory: node reads are
//! moderately coalesced (threads on the same tree at the same level), while
//! attribute reads scatter across samples.

use tahoe_gpu_sim::kernel::sample_plan;

use super::common::{
    launch_kernel, traverse_tree_warp, with_block_scratch, Geometry, LaunchContext, Strategy,
    StrategyRun, TraversalConfig,
};

/// Launch geometry: one thread per sample.
#[must_use]
pub fn geometry(ctx: &LaunchContext<'_>) -> Geometry {
    let n = ctx.samples.n_samples();
    let threads = ctx.threads();
    Geometry {
        threads_per_block: threads,
        grid_blocks: n.div_ceil(threads).max(1),
        smem_per_block: 0,
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
    let geo = geometry(ctx);
    let warp = ctx.device.warp_size as usize;
    let n_warps = geo.threads_per_block / warp;
    let cfg = TraversalConfig {
        nodes_shared: false,
        attrs_shared: false,
        tag_levels: true,
    };
    let mut kernel =
        launch_kernel(ctx, Strategy::Direct.name(), geo.grid_blocks, geo.threads_per_block, 0);
    let plan = sample_plan(geo.grid_blocks, ctx.detail);
    kernel.simulate_blocks(&plan, |block_idx, mut block| {
        with_block_scratch(|scratch| {
            for w in 0..n_warps {
                scratch.lane_samples.clear();
                for lane in 0..warp {
                    let sample = block_idx * geo.threads_per_block + w * warp + lane;
                    scratch.lane_samples.push((sample < n).then_some(sample));
                }
                if scratch.lane_samples.iter().all(Option::is_none) {
                    continue;
                }
                let mut warp_sim = block.warp();
                for tree in 0..ctx.forest.n_trees() {
                    traverse_tree_warp(
                        &mut warp_sim,
                        ctx.forest,
                        ctx.samples,
                        ctx.sample_buf,
                        tree,
                        &scratch.lane_samples,
                        &cfg,
                        &mut scratch.traversal,
                    );
                }
                block.push_warp(warp_sim.finish());
            }
        });
        block.finish()
    });
    StrategyRun {
        strategy: Strategy::Direct,
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
    fn direct_is_reduction_free() {
        let fx = Fixture::trained("letter");
        let run = run(&context(&fx, Detail::Sampled(2)));
        assert_eq!(run.kernel.block_reduction_wall_ns, 0.0);
        assert_eq!(run.kernel.global_reduction_ns, 0.0);
    }

    #[test]
    fn direct_uses_no_shared_memory() {
        let fx = Fixture::trained("letter");
        let run = run(&context(&fx, Detail::Sampled(2)));
        assert_eq!(run.geometry.smem_per_block, 0);
        assert_eq!(run.kernel.smem.requested_bytes, 0);
    }

    #[test]
    fn attribute_reads_are_poorly_coalesced() {
        // Thread-per-sample attribute reads scatter across rows, so overall
        // gmem efficiency must be well below 1.
        let fx = Fixture::trained("letter");
        let run = run(&context(&fx, Detail::Sampled(4)));
        assert!(
            run.kernel.gmem.efficiency() < 0.9,
            "efficiency {}",
            run.kernel.gmem.efficiency()
        );
    }

    #[test]
    fn grid_covers_every_sample_once() {
        let fx = Fixture::trained("letter");
        let ctx = context(&fx, Detail::Full);
        let geo = geometry(&ctx);
        assert!(geo.grid_blocks * geo.threads_per_block >= ctx.samples.n_samples());
        assert!((geo.grid_blocks - 1) * geo.threads_per_block < ctx.samples.n_samples());
    }
}
