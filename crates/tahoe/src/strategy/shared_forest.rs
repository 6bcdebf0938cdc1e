//! The *shared forest* strategy (paper §5.1).
//!
//! The whole forest is staged into shared memory once and reused for every
//! sample; each thread owns one sample and traverses independently
//! (reduction-free). Only feasible when the forest fits a block's shared
//! memory; the paper ignores the (amortized) staging cost, and so do we
//! (Eq. 6: "We ignore the time of loading the forest … easily amortized").

use super::common::{run_per_sample, Geometry, LaunchContext, Strategy, StrategyRun};

/// Launch geometry: one thread per sample, forest-sized shared memory.
///
/// Returns `None` when the forest does not fit (paper: "the corresponding
/// performance result is not shown").
#[must_use]
pub fn geometry(ctx: &LaunchContext<'_>) -> Option<Geometry> {
    if ctx.forest.forest_smem_bytes() > ctx.device.shared_mem_per_block {
        return None;
    }
    let n = ctx.samples.n_samples();
    let threads = ctx.threads();
    Some(Geometry {
        threads_per_block: threads,
        grid_blocks: n.div_ceil(threads).max(1),
        smem_per_block: ctx.forest.forest_smem_bytes(),
        parts: 1,
    })
}

/// Runs the strategy; `None` when infeasible.
///
/// # Panics
///
/// Panics if the batch is empty.
#[must_use]
pub fn run(ctx: &LaunchContext<'_>) -> Option<StrategyRun> {
    Some(run_per_sample(ctx, Strategy::SharedForest, geometry(ctx)?, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::testutil::{context, Fixture};
    use tahoe_gpu_sim::kernel::Detail;

    #[test]
    fn feasibility_tracks_forest_size() {
        // letter at Smoke scale is small; it must fit.
        let fx = Fixture::trained("letter");
        let ctx = context(&fx, Detail::Sampled(2));
        assert!(geometry(&ctx).is_some(), "small forest must fit shared memory");
    }

    #[test]
    fn infeasible_forest_returns_none() {
        let fx = Fixture::trained("higgs"); // 40 trees x depth ≤ 8 at Smoke —
                                            // still small, so force a tiny device.
        let mut ctx = context(&fx, Detail::Sampled(2));
        let mut tiny = ctx.device.clone();
        tiny.shared_mem_per_block = 64;
        tiny.shared_mem_per_sm = 64;
        ctx.device = &tiny;
        assert!(run(&ctx).is_none());
    }

    #[test]
    fn node_reads_hit_shared_memory() {
        let fx = Fixture::trained("letter");
        let run = run(&context(&fx, Detail::Sampled(2))).unwrap();
        assert!(run.kernel.smem.requested_bytes > 0);
        // Remaining gmem traffic is attribute reads only: 4 bytes each.
        assert!(run.kernel.gmem.requested_bytes.is_multiple_of(4));
        assert_eq!(run.kernel.block_reduction_wall_ns, 0.0);
    }

    #[test]
    fn shared_forest_beats_direct_on_small_forests() {
        // With nodes in shared memory, node traffic leaves global memory; on
        // a reuse-heavy workload the strategy must be at least as fast as
        // direct.
        let fx = Fixture::trained("letter");
        let ctx = context(&fx, Detail::Sampled(4));
        let sf = run(&ctx).unwrap();
        let d = crate::strategy::direct::run(&ctx);
        assert!(
            sf.kernel.total_ns <= d.kernel.total_ns,
            "shared forest {} vs direct {}",
            sf.kernel.total_ns,
            d.kernel.total_ns
        );
    }
}
