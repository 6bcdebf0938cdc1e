//! The *direct* strategy (paper §5.1).
//!
//! Each thread owns one sample and traverses the entire forest for it; no
//! shared memory, no reductions. All reads hit global memory: node reads are
//! moderately coalesced (threads on the same tree at the same level), while
//! attribute reads scatter across samples.

use super::common::{run_per_sample, Geometry, LaunchContext, Strategy, StrategyRun};

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
    run_per_sample(ctx, Strategy::Direct, geometry(ctx), false)
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
