//! Property-based tests over randomly generated forests and samples.
//!
//! These pin the core invariants of the reproduction:
//!
//! - device formats never change predictions, under any layout plan;
//! - the byte encoding round-trips exactly;
//! - rearrangements are structure-preserving permutations;
//! - the coalescing arithmetic respects its definitional bounds.

use proptest::prelude::*;

use tahoe_repro::datasets::{ForestKind, Task};
use tahoe_repro::engine::format::{
    assign_slots, AttrWidth, DeviceForest, DeviceNode, FormatConfig, LayoutPlan, StorageMode,
    NO_SLOT,
};
use tahoe_repro::engine::rearrange::{node_swap, similarity_order, SimilarityParams};
use tahoe_repro::forest::{Forest, Node, Tree};
use tahoe_repro::gpu::coalesce::count_transactions;
use tahoe_repro::gpu::memory::DeviceMemory;

/// Builds a random tree of exactly `depth` full levels with random split
/// attributes/thresholds/probabilities (deterministic from the seeds).
fn random_tree(depth: usize, n_attrs: u32, seed: u64) -> Tree {
    fn mix(z: u64) -> u64 {
        let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn build(nodes: &mut Vec<Node>, depth: usize, n_attrs: u32, seed: u64) -> u32 {
        let id = nodes.len() as u32;
        let r = mix(seed);
        if depth == 0 {
            nodes.push(Node::Leaf {
                value: (r % 1000) as f32 / 100.0 - 5.0,
            });
            return id;
        }
        nodes.push(Node::Leaf { value: 0.0 });
        let left = build(nodes, depth - 1, n_attrs, mix(seed ^ 0xA));
        let right = build(nodes, depth - 1, n_attrs, mix(seed ^ 0xB));
        nodes[id as usize] = Node::Decision {
            attribute: (r % u64::from(n_attrs)) as u32,
            threshold: ((r >> 8) % 200) as f32 / 20.0 - 5.0,
            default_left: r & 1 == 0,
            left,
            right,
            left_prob: 0.05 + ((r >> 16) % 90) as f32 / 100.0,
        };
        id
    }
    let mut nodes = Vec::new();
    build(&mut nodes, depth, n_attrs, seed);
    Tree::new(nodes)
}

fn random_forest(n_trees: usize, max_depth: usize, n_attrs: u32, seed: u64) -> Forest {
    let trees: Vec<Tree> = (0..n_trees)
        .map(|t| {
            let depth = 1 + (seed.wrapping_add(t as u64 * 7) % max_depth as u64) as usize;
            random_tree(depth, n_attrs, seed.wrapping_add(t as u64))
        })
        .collect();
    Forest::new(trees, n_attrs, ForestKind::Gbdt, Task::Regression, 0.5)
}

fn random_sample(n_attrs: u32, seed: u64, missing: bool) -> Vec<f32> {
    (0..n_attrs)
        .map(|a| {
            let v = seed.wrapping_mul(0x9E37_79B9).wrapping_add(u64::from(a) * 31) % 1000;
            if missing && v.is_multiple_of(17) {
                f32::NAN
            } else {
                v as f32 / 100.0 - 5.0
            }
        })
        .collect()
}

/// Reference host prediction for one sample.
fn host_sum(forest: &Forest, sample: &[f32]) -> f32 {
    forest.trees().iter().map(|t| t.predict(sample)).sum()
}

/// Device-format prediction for one sample.
fn device_sum(df: &DeviceForest, sample: &[f32]) -> f32 {
    (0..df.n_trees()).map(|t| df.tree_leaf(t, sample)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_layout_plan_preserves_predictions(
        seed in 0u64..1_000_000,
        n_trees in 1usize..12,
        max_depth in 1usize..6,
        order_seed in 0u64..1000,
        swap_all in proptest::bool::ANY,
        sparse in proptest::bool::ANY,
        missing in proptest::bool::ANY,
    ) {
        let n_attrs = 8u32;
        let forest = random_forest(n_trees, max_depth, n_attrs, seed);
        // A random permutation from the order seed.
        let mut order: Vec<usize> = (0..n_trees).collect();
        for i in (1..n_trees).rev() {
            let j = ((order_seed.wrapping_mul(i as u64 + 1) >> 3) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let swaps = if swap_all {
            forest
                .trees()
                .iter()
                .map(|t| t.nodes().iter().map(|n| !n.is_leaf()).collect())
                .collect()
        } else {
            node_swap::forest_swaps(&forest)
        };
        let plan = LayoutPlan { tree_order: order, swaps };
        let config = FormatConfig {
            varlen_attr: true,
            mode: Some(if sparse { StorageMode::Sparse } else { StorageMode::Dense }),
        };
        let mut mem = DeviceMemory::new();
        let df = DeviceForest::build(&forest, &plan, config, &mut mem);
        for s in 0..8u64 {
            let sample = random_sample(n_attrs, seed ^ (s * 77), missing);
            let a = host_sum(&forest, &sample);
            let b = device_sum(&df, &sample);
            prop_assert!((a - b).abs() < 1e-4, "host {a} vs device {b}");
        }
    }

    #[test]
    fn image_roundtrip_is_exact(
        seed in 0u64..1_000_000,
        n_trees in 1usize..8,
        max_depth in 1usize..5,
        varlen in proptest::bool::ANY,
        sparse in proptest::bool::ANY,
    ) {
        let forest = random_forest(n_trees, max_depth, 300, seed);
        let plan = LayoutPlan::identity(&forest);
        let config = FormatConfig {
            varlen_attr: varlen,
            mode: Some(if sparse { StorageMode::Sparse } else { StorageMode::Dense }),
        };
        let mut mem = DeviceMemory::new();
        let df = DeviceForest::build(&forest, &plan, config, &mut mem);
        let image = df.encode_image();
        prop_assert_eq!(image.len(), df.image_bytes());
        let decoded = df.decode_image(&image);
        for (slot, (a, b)) in decoded.iter().enumerate().map(|(i, d)| (i, (d, df.node_opt(i as u32)))) {
            prop_assert_eq!(a, &b, "slot {} mismatch", slot);
        }
    }

    #[test]
    fn device_node_roundtrips_across_all_encodings(
        attribute in 0u32..31,
        scalar in -100.0f32..100.0,
        leaf in proptest::bool::ANY,
        default_left in proptest::bool::ANY,
        inverted in proptest::bool::ANY,
        left in 0u32..10_000,
    ) {
        let node = if leaf {
            DeviceNode::leaf(scalar)
        } else {
            DeviceNode {
                attribute,
                scalar,
                left,
                right: left + 1,
                leaf: false,
                default_left,
                inverted,
            }
        };
        // Every attribute width × child mode.
        for attr in [AttrWidth::U8, AttrWidth::U16, AttrWidth::U32] {
            for explicit in [false, true] {
                let mut buf = Vec::new();
                node.encode(attr, explicit, &mut buf);
                prop_assert_eq!(buf.len(), DeviceNode::encoded_bytes(attr, explicit));
                let back = DeviceNode::decode(attr, explicit, &mut buf.as_slice())
                    .expect("non-NULL node");
                if explicit {
                    prop_assert_eq!(back, node);
                } else {
                    // Dense mode derives children from heap arithmetic.
                    prop_assert_eq!(back, DeviceNode { left: NO_SLOT, right: NO_SLOT, ..node });
                }
            }
        }
    }

    #[test]
    fn slot_assignment_is_a_bijection(
        seed in 0u64..1_000_000,
        n_trees in 1usize..10,
        max_depth in 1usize..6,
        sparse in proptest::bool::ANY,
    ) {
        let forest = random_forest(n_trees, max_depth, 16, seed);
        let plan = LayoutPlan::identity(&forest);
        let mode = if sparse { StorageMode::Sparse } else { StorageMode::Dense };
        let map = assign_slots(&forest, &plan, mode);
        let mut seen = std::collections::HashSet::new();
        for &s in map.slots() {
            prop_assert!((s as usize) < map.n_slots, "slot {} out of range", s);
            prop_assert!(seen.insert(s), "slot {} assigned twice", s);
        }
        if mode == StorageMode::Sparse {
            // Sparse assignment is compact: every slot is used.
            prop_assert_eq!(seen.len(), map.n_slots);
        }
    }

    #[test]
    fn similarity_order_is_always_a_permutation(
        seed in 0u64..1_000_000,
        n_trees in 1usize..10,
    ) {
        let forest = random_forest(n_trees, 4, 16, seed);
        let order = similarity_order(&forest, &SimilarityParams::default());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n_trees).collect::<Vec<_>>());
    }

    #[test]
    fn node_swaps_only_flip_decision_nodes(
        seed in 0u64..1_000_000,
        n_trees in 1usize..8,
    ) {
        let forest = random_forest(n_trees, 5, 16, seed);
        let swaps = node_swap::forest_swaps(&forest);
        for (tree, tree_swaps) in forest.trees().iter().zip(&swaps) {
            for (node, &s) in tree.nodes().iter().zip(tree_swaps) {
                if node.is_leaf() {
                    prop_assert!(!s, "leaves are never swapped");
                }
            }
        }
        prop_assert!((node_swap::likely_left_fraction(&forest, &swaps) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transaction_count_respects_bounds(
        addrs in proptest::collection::vec(0u64..100_000, 1..32),
        elem in 1u64..16,
    ) {
        let mut sorted = addrs.clone();
        let n = addrs.len() as u64;
        let txns = count_transactions(&mut sorted, elem, 128);
        // At least enough transactions to cover the requested bytes, at most
        // one-per-access plus straddles.
        let min_txns = (n * elem).div_ceil(128).min(n);
        prop_assert!(txns >= min_txns.min(1), "txns {} too small", txns);
        prop_assert!(txns <= n * (elem.div_ceil(128) + 1), "txns {} too large", txns);
    }
}
