//! The *splitting shared forest* strategy (paper §5.1).
//!
//! The forest is split into `P` consecutive parts, each small enough for one
//! block's shared memory; each block stages one part and evaluates it for its
//! samples; a device-wide segmented reduction combines the `P` partial sums
//! per sample. The forest restage and the global reduction amortize over the
//! batch, which is why this strategy wins at large batch sizes (Fig. 6).
//!
//! One refinement over the paper's one-block-per-part description: when `P`
//! is smaller than the device's block concurrency, samples are additionally
//! tiled across `T` block groups (`grid = P × T`), each staging its part
//! again. Without this, a forest splitting into fewer parts than SMs would
//! idle most of the device; the extra restaging traffic is charged honestly
//! and appears in the performance model (Eq. 7's staging term scales by `T`).

use tahoe_gpu_sim::kernel::{sample_plan_by_class, Detail};
use tahoe_gpu_sim::occupancy::concurrent_blocks;

use super::common::{
    launch_kernel, stage_forest_slice, traverse_warp, with_block_scratch, Geometry, LaunchContext,
    Strategy, StrategyRun, TraversalConfig,
};
use crate::format::DeviceForest;

/// Splits layout trees into consecutive parts each fitting `budget` bytes
/// and a walk-work cap.
///
/// A part's work is the sum of its tree depths, which is what each of its
/// samples walks. A greedy byte split alone gives parts of very uneven work
/// once the layout groups trees by depth (deep trees first), and the
/// deepest part sets the launch's time. So each part also stays under
/// `max(ceil(total work / greedy part count), deepest tree)`, which may add
/// parts.
///
/// Returns `None` if a single tree exceeds the budget.
#[must_use]
pub fn partition_trees(
    forest: &DeviceForest,
    budget: usize,
) -> Option<Vec<std::ops::Range<usize>>> {
    let greedy = split_trees(forest, budget, u64::MAX)?;
    let depths = forest.tree_depths();
    let total: u64 = depths.iter().map(|&d| u64::from(d)).sum();
    let deepest = depths.iter().copied().max().map_or(0, u64::from);
    let cap = total.div_ceil(greedy.len().max(1) as u64).max(deepest);
    split_trees(forest, budget, cap)
}

/// Greedily splits layout trees into consecutive parts of at most `budget`
/// bytes and `work_cap` summed depth; `None` if a tree exceeds the budget.
fn split_trees(
    forest: &DeviceForest,
    budget: usize,
    work_cap: u64,
) -> Option<Vec<std::ops::Range<usize>>> {
    let n = forest.n_trees();
    let depths = forest.tree_depths();
    let mut parts = Vec::new();
    let mut start = 0usize;
    while start < n {
        let mut end = start;
        let (mut bytes, mut work) = (0usize, 0u64);
        while end < n {
            let tree_bytes = forest.trees_smem_bytes(end, end + 1);
            let tree_work = u64::from(depths[end]);
            if tree_bytes > budget {
                return None;
            }
            if end > start && (bytes + tree_bytes > budget || work + tree_work > work_cap) {
                break;
            }
            bytes += tree_bytes;
            work += tree_work;
            end += 1;
        }
        parts.push(start..end);
        start = end;
    }
    Some(parts)
}

/// The forest parts and the `P × T`-block launch geometry for a context;
/// `None` if some tree cannot fit shared memory at all.
fn shape(ctx: &LaunchContext<'_>) -> Option<(Vec<std::ops::Range<usize>>, Geometry)> {
    let parts = partition_trees(ctx.forest, ctx.device.shared_mem_per_block)?;
    let smem = parts
        .iter()
        .map(|p| ctx.forest.trees_smem_bytes(p.start, p.end))
        .max()
        .unwrap_or(0);
    let n = ctx.samples.n_samples().max(1);
    let threads = ctx.threads();
    let concurrent = concurrent_blocks(ctx.device, threads, smem);
    let max_tiles = n.div_ceil(threads).max(1);
    let tiles = (concurrent / parts.len().max(1)).clamp(1, max_tiles);
    let geo = Geometry {
        threads_per_block: threads,
        grid_blocks: parts.len() * tiles,
        smem_per_block: smem,
        parts: parts.len(),
    };
    Some((parts, geo))
}

/// Launch geometry: `P × T` blocks.
///
/// Returns `None` if some tree cannot fit shared memory at all.
#[must_use]
pub fn geometry(ctx: &LaunchContext<'_>) -> Option<Geometry> {
    shape(ctx).map(|(_, geo)| geo)
}

/// The sampled blocks: block `b` stages part `b % P`, so a plan of at least
/// `P` blocks covers every part.
fn block_plan(geo: &Geometry, detail: Detail) -> Vec<usize> {
    sample_plan_by_class(geo.grid_blocks, geo.parts, detail)
}

/// Runs the strategy; `None` when infeasible.
///
/// Unlike the thread-per-sample body, it pushes every warp of the block,
/// even one with no samples left in its tile: those idle lanes reach the
/// imbalance statistics and the trace.
///
/// # Panics
///
/// Panics if the batch is empty.
#[must_use]
pub fn run(ctx: &LaunchContext<'_>) -> Option<StrategyRun> {
    let n = ctx.samples.n_samples();
    assert!(n > 0, "cannot infer an empty batch");
    let (parts, geo) = shape(ctx)?;
    let n_parts = parts.len();
    let warp = ctx.device.warp_size as usize;
    let threads = geo.threads_per_block;
    let n_warps = threads / warp;
    let tile_len = n.div_ceil(geo.tiles());
    let roots = ctx.forest.roots();
    let cfg = TraversalConfig {
        nodes_shared: true,
        attrs_shared: false,
    };
    let mut kernel = launch_kernel(
        ctx,
        Strategy::SplittingSharedForest.name(),
        geo.grid_blocks,
        threads,
        geo.smem_per_block,
    );
    let plan = block_plan(&geo, ctx.detail);
    kernel.simulate_blocks(&plan, |block_idx, mut block| {
        let part = parts[block_idx % n_parts].clone();
        let tile = block_idx / n_parts;
        let t0 = tile * tile_len;
        let t1 = (t0 + tile_len).min(n);
        // Stage this part's trees from global to shared memory (coalesced).
        stage_forest_slice(&mut block, ctx.forest, part.start, part.end, n_warps);
        let rounds = (t1.saturating_sub(t0)).div_ceil(threads);
        with_block_scratch(|scratch| {
            for w in 0..n_warps {
                let mut warp_sim = block.warp();
                for round in 0..rounds {
                    let first = t0 + round * threads + w * warp;
                    if first >= t1 {
                        continue;
                    }
                    for &root in &roots[part.clone()] {
                        let lane_start =
                            |lane: usize| (first + lane < t1).then_some((root, first + lane));
                        traverse_warp(&mut warp_sim, ctx, cfg, lane_start, scratch);
                    }
                }
                block.push_warp(warp_sim.finish());
            }
        });
        block.finish()
    });
    // One segmented reduction over P partials per sample for the batch.
    kernel.global_reduce_values(n_parts, (n_parts * n) as u64, 4);
    Some(StrategyRun {
        strategy: Strategy::SplittingSharedForest,
        kernel: kernel.finish(),
        geometry: geo,
        n_samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FormatConfig;
    use crate::rearrange::{adaptive_plan, SimilarityParams};
    use crate::strategy::testutil::{context, Fixture};
    use tahoe_gpu_sim::kernel::sample_plan;
    use tahoe_gpu_sim::memory::DeviceMemory;

    /// The fixture's forest rebuilt under the warp-grouped §4 plan.
    fn grouped(mut fx: Fixture) -> Fixture {
        let mut mem = DeviceMemory::new();
        let plan = adaptive_plan(&fx.forest, &SimilarityParams::default());
        fx.device_forest =
            DeviceForest::build(&fx.forest, &plan, FormatConfig::adaptive(), &mut mem);
        fx
    }

    #[test]
    fn parts_are_contiguous_fit_the_budget_and_cap_their_work() {
        for fx in [Fixture::trained("higgs"), grouped(Fixture::trained("higgs"))] {
            let forest = &fx.device_forest;
            let depths = forest.tree_depths();
            let work = |p: &std::ops::Range<usize>| -> u64 {
                depths[p.clone()].iter().map(|&d| u64::from(d)).sum()
            };
            for budget in [2 * 1024, 3 * 1024, 4 * 1024] {
                let greedy = split_trees(forest, budget, u64::MAX).unwrap();
                let total = work(&(0..forest.n_trees()));
                let deepest = u64::from(*depths.iter().max().unwrap());
                let cap = total.div_ceil(greedy.len() as u64).max(deepest);
                let parts = partition_trees(forest, budget).unwrap();
                assert!(parts.len() > 1, "small budget must force multiple parts");
                assert!(parts.len() >= greedy.len());
                let mut next = 0;
                for p in &parts {
                    assert_eq!(p.start, next);
                    assert!(p.end > p.start);
                    assert!(forest.trees_smem_bytes(p.start, p.end) <= budget);
                    assert!(work(p) <= cap || p.len() == 1, "part {p:?} over the work cap {cap}");
                    next = p.end;
                }
                assert_eq!(next, forest.n_trees());
            }
        }
    }

    #[test]
    fn one_greedy_part_is_not_split_for_work() {
        let fx = Fixture::trained("letter");
        let budget = fx.device_forest.forest_smem_bytes();
        let parts = partition_trees(&fx.device_forest, budget).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], 0..fx.forest.n_trees());
    }

    #[test]
    fn sampled_blocks_cover_every_part_when_the_stride_is_a_multiple_of_p() {
        let mut fx = Fixture::trained("higgs");
        fx.device.shared_mem_per_block = 4 * 1024;
        let geo = geometry(&context(&fx, Detail::Full)).unwrap();
        let (parts, tiles) = (geo.parts, geo.tiles());
        assert!(parts > 1 && tiles >= parts, "{parts} parts, {tiles} tiles");
        // `tiles` samples over `parts × tiles` blocks: a uniform stride of P.
        let detail = Detail::Sampled(tiles);
        assert!(sample_plan(geo.grid_blocks, detail).iter().all(|b| b % parts == 0));
        let plan = block_plan(&geo, detail);
        assert_eq!(plan.len(), tiles);
        for part in 0..parts {
            assert!(plan.iter().any(|b| b % parts == part), "part {part} never sampled");
        }
        assert!(run(&context(&fx, detail)).is_some());
    }

    #[test]
    fn oversized_tree_is_infeasible() {
        let fx = Fixture::trained("letter");
        let ctx = context(&fx, Detail::Full);
        assert!(partition_trees(ctx.forest, 8).is_none());
    }

    #[test]
    fn grid_tiles_samples_to_fill_the_device() {
        let fx = Fixture::trained("higgs");
        let ctx = context(&fx, Detail::Sampled(1));
        let geo = geometry(&ctx).unwrap();
        assert_eq!(geo.grid_blocks % geo.parts, 0);
        let tiles = geo.tiles();
        // Either the device is filled or samples ran out.
        let concurrent = concurrent_blocks(ctx.device, geo.threads_per_block, geo.smem_per_block);
        let max_tiles = ctx.samples.n_samples().div_ceil(geo.threads_per_block);
        assert!(geo.grid_blocks >= concurrent.min(geo.parts * max_tiles) / 2);
        assert!(tiles <= max_tiles);
    }

    #[test]
    fn run_includes_global_reduction() {
        let fx = Fixture::trained("higgs");
        let run = run(&context(&fx, Detail::Sampled(2))).unwrap();
        assert!(run.kernel.global_reduction_ns > 0.0);
        assert_eq!(run.kernel.block_reduction_wall_ns, 0.0);
    }

    #[test]
    fn global_reduction_amortizes_with_batch_size() {
        // Per-sample reduction cost must shrink as the batch grows — the
        // mechanism behind the Fig. 6 crossover.
        let small = Fixture::trained_with_batch("higgs", 64);
        let large = Fixture::trained_with_batch("higgs", 512);
        let rs = run(&context(&small, Detail::Sampled(2))).unwrap();
        let rl = run(&context(&large, Detail::Sampled(2))).unwrap();
        let per_sample_small = rs.kernel.global_reduction_ns / rs.n_samples as f64;
        let per_sample_large = rl.kernel.global_reduction_ns / rl.n_samples as f64;
        assert!(
            per_sample_large < per_sample_small,
            "{per_sample_large} !< {per_sample_small}"
        );
    }
}
