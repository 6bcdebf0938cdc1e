//! Property-based tests of the performance models: Eq. 4–7 plus the latency
//! extension must behave sanely over the whole input space, not just the 15
//! Table 2 points.

use proptest::prelude::*;

use tahoe::perfmodel::{predict, shared_data_chain, ModelInputs, WARP_LANES};
use tahoe::strategy::{Geometry, Strategy};
use tahoe_gpu_sim::device::DeviceSpec;
use tahoe_gpu_sim::measure;

fn inputs(n_trees: f64, d_tree: f64, n_batch: f64, s_sample: f64) -> ModelInputs {
    ModelInputs {
        s_sample,
        n_batch,
        d_tree,
        n_trees,
        s_node: 14.0,
        s_att: 4.0,
        n_nodes: (2.0f64).powf(d_tree + 1.0) - 1.0,
        s_forest: n_trees * ((2.0f64).powf(d_tree + 1.0) - 1.0) * 14.0,
    }
}

/// `n_trees` layout trees of depth `d_tree`, both rounded.
fn uniform_depths(n_trees: f64, d_tree: f64) -> Vec<u32> {
    vec![d_tree.round() as u32; (n_trees.round() as usize).max(1)]
}

fn geometry(threads: usize, grid: usize, smem: usize, parts: usize) -> Geometry {
    Geometry {
        threads_per_block: threads,
        grid_blocks: grid,
        smem_per_block: smem,
        parts,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn predictions_are_finite_and_positive(
        n_trees in 1.0f64..4000.0,
        d_tree in 1.0f64..20.0,
        n_batch in 1.0f64..1_000_000.0,
        s_sample in 8.0f64..20_000.0,
        threads in prop::sample::select(vec![64usize, 128, 256, 512]),
        parts in 1usize..64,
    ) {
        let device = DeviceSpec::tesla_p100();
        let hw = measure(&device);
        let i = inputs(n_trees, d_tree, n_batch, s_sample);
        for s in Strategy::ALL {
            let grid = (n_batch / threads as f64).ceil().max(1.0) as usize;
            let geo = match s {
                Strategy::SplittingSharedForest => geometry(threads, grid.max(parts), 32 << 10, parts),
                Strategy::SharedForest => geometry(threads, grid, 32 << 10, 1),
                _ => geometry(threads, grid, 0, 1),
            };
            let depths = uniform_depths(n_trees, d_tree);
            let p = predict(s, &i, &depths, &hw, &geo, &device);
            prop_assert!(p.total().is_finite(), "{s}: total not finite");
            prop_assert!(p.total() > 0.0, "{s}: total {} <= 0", p.total());
            prop_assert!(p.t_smem >= 0.0 && p.t_gmem >= 0.0 && p.t_serial >= 0.0);
        }
    }

    #[test]
    fn cost_is_monotone_in_forest_size(
        n_trees in 1.0f64..1000.0,
        factor in 1.1f64..8.0,
        d_tree in 1.0f64..15.0,
    ) {
        // More trees must never be predicted cheaper (same geometry).
        let device = DeviceSpec::tesla_v100();
        let hw = measure(&device);
        let geo = geometry(256, 64, 0, 1);
        for s in [Strategy::SharedData, Strategy::Direct] {
            let small = predict(
                s,
                &inputs(n_trees, d_tree, 10_000.0, 256.0),
                &uniform_depths(n_trees, d_tree),
                &hw,
                &geo,
                &device,
            );
            let big = predict(
                s,
                &inputs(n_trees * factor, d_tree, 10_000.0, 256.0),
                &uniform_depths(n_trees * factor, d_tree),
                &hw,
                &geo,
                &device,
            );
            prop_assert!(
                big.total() >= small.total() * 0.999,
                "{s}: {} trees {} > {} trees {}",
                n_trees, small.total(), n_trees * factor, big.total()
            );
        }
    }

    #[test]
    fn splitting_reductions_amortize_monotonically(
        n_batch in 10.0f64..100_000.0,
        factor in 2.0f64..50.0,
    ) {
        let device = DeviceSpec::tesla_k80();
        let hw = measure(&device);
        let geo = geometry(256, 32, 32 << 10, 8);
        let i_small = inputs(500.0, 8.0, n_batch, 112.0);
        let i_large = inputs(500.0, 8.0, n_batch * factor, 112.0);
        let depths = uniform_depths(500.0, 8.0);
        let small = predict(Strategy::SplittingSharedForest, &i_small, &depths, &hw, &geo, &device);
        let large = predict(Strategy::SplittingSharedForest, &i_large, &depths, &hw, &geo, &device);
        prop_assert!(large.t_g_redu <= small.t_g_redu * 1.0001);
    }

    #[test]
    fn deeper_trees_cost_more(
        d_tree in 1.0f64..18.0,
        extra in 0.5f64..6.0,
    ) {
        let device = DeviceSpec::tesla_p100();
        let hw = measure(&device);
        let geo = geometry(256, 128, 0, 1);
        let shallow = predict(
            Strategy::Direct,
            &inputs(200.0, d_tree, 50_000.0, 112.0),
            &uniform_depths(200.0, d_tree),
            &hw,
            &geo,
            &device,
        );
        let deep = predict(
            Strategy::Direct,
            &inputs(200.0, d_tree + extra, 50_000.0, 112.0),
            &uniform_depths(200.0, d_tree + extra),
            &hw,
            &geo,
            &device,
        );
        prop_assert!(deep.total() >= shallow.total() * 0.999);
    }

    #[test]
    fn shared_data_chain_is_the_critical_warps_walk(
        depths in prop::collection::vec(0u32..20, 1..600),
        threads in prop::sample::select(vec![64usize, 128, 256, 512, 1024]),
        deepen in 0usize..10_000,
        extra in 1u32..8,
        uniform in 0u32..20,
    ) {
        let device = DeviceSpec::tesla_p100();
        let hw = measure(&device);
        let (node, attr) = (hw.lat_gmem, hw.lat_smem);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        // By hand, as the kernel walks: thread `t mod threads` takes layout
        // tree `t`, so warp `w` walks trees `round × threads + w × 32 ..` in
        // lockstep, each round as deep as its deepest lane plus the leaf
        // read; the block waits for its slowest warp.
        let rounds = depths.len().div_ceil(threads);
        let by_hand = (0..threads / WARP_LANES)
            .map(|w| {
                (0..rounds)
                    .filter_map(|round| {
                        let first = round * threads + w * WARP_LANES;
                        let lanes = depths.get(first..depths.len().min(first + WARP_LANES))?;
                        let deepest = lanes.iter().copied().max()?;
                        Some(f64::from(deepest) * (node + attr) + node)
                    })
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        let chain = shared_data_chain(&depths, threads, &hw);
        prop_assert!(close(chain, by_hand), "chain {} != by hand {}", chain, by_hand);
        // A deeper group never shortens the chain, and only the chain moves
        // with it.
        let mut deeper = depths.clone();
        deeper[deepen % depths.len()] += extra;
        prop_assert!(shared_data_chain(&deeper, threads, &hw) >= chain);
        let n_trees = depths.len() as f64;
        let base = inputs(n_trees, 4.0, 1_000.0, 64.0);
        let geo = geometry(threads, 16, 16 << 10, 1);
        let at = |d: &[u32]| predict(Strategy::SharedData, &base, d, &hw, &geo, &device);
        let (lo, hi) = (at(&depths), at(&deeper));
        prop_assert!(hi.t_serial >= lo.t_serial);
        prop_assert!(hi.total() >= lo.total());
        prop_assert_eq!((hi.t_smem, hi.t_gmem, hi.t_b_redu), (lo.t_smem, lo.t_gmem, lo.t_b_redu));
        // Equal depths: every round of the busiest warp costs the same.
        let equal = vec![uniform; depths.len()];
        let expected = rounds as f64 * (f64::from(uniform) * (node + attr) + node);
        let got = shared_data_chain(&equal, threads, &hw);
        prop_assert!(close(got, expected), "equal depths: {} != {}", got, expected);
    }
}
