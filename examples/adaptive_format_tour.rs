//! A tour of the adaptive forest format (paper §4): what each rearrangement
//! does to the layout and to simulated memory behaviour.
//!
//! ```text
//! cargo run --release --example adaptive_format_tour
//! ```

use tahoe_repro::datasets::{DatasetSpec, Scale};
use tahoe_repro::engine::format::{DeviceForest, FormatConfig, LayoutPlan};
use tahoe_repro::engine::rearrange::{self, node_swap, pairwise, SimilarityParams};
use tahoe_repro::forest::train_for_spec;
use tahoe_repro::gpu::memory::DeviceMemory;

fn main() {
    let spec = DatasetSpec::by_name("letter").expect("letter is a Table 2 dataset");
    let data = spec.generate(Scale::Smoke);
    let (train, _) = data.split_train_infer();
    let forest = train_for_spec(&spec, &train, Scale::Smoke);

    // Probability-based node rearrangement (§4.1): make the likely child the
    // layout-left child everywhere.
    let swaps = node_swap::forest_swaps(&forest);
    let swapped: usize = swaps.iter().flatten().filter(|&&s| s).count();
    let before =
        node_swap::likely_left_fraction(&forest, &LayoutPlan::identity(&forest).swaps);
    let after = node_swap::likely_left_fraction(&forest, &swaps);
    println!("node rearrangement: {swapped} children swapped");
    println!("  likely-left fraction: {before:.2} -> {after:.2}");

    // Similarity-based tree rearrangement (§4.2): SimHash + LSH ordering,
    // compared against the exact pairwise baseline it approximates.
    let params = SimilarityParams::default();
    let (order, timing) = rearrange::similarity_order_timed(&forest, &params);
    let counts = pairwise::pairwise_counts(&forest, params.t_nodes);
    let lsh_score = pairwise::adjacency_score(&order, &counts);
    let exact = pairwise::pairwise_order(&forest, params.t_nodes);
    let exact_score = pairwise::adjacency_score(&exact, &counts);
    let index_score =
        pairwise::adjacency_score(&(0..forest.n_trees()).collect::<Vec<_>>(), &counts);
    println!(
        "tree rearrangement: adjacency similarity {index_score:.1} (training order) \
         -> {lsh_score:.1} (SimHash+LSH) vs {exact_score:.1} (exact pairwise)"
    );
    println!(
        "  SimHash {:.2} ms + LSH {:.2} ms + ordering {:.2} ms",
        timing.simhash_ns as f64 / 1e6,
        timing.lsh_ns as f64 / 1e6,
        timing.order_ns as f64 / 1e6
    );

    // The adaptive format (§4.3): both rearrangements + minimal-width
    // attribute indices, vs the traditional fixed-width encoding.
    let plan = rearrange::adaptive_plan(&forest, &params);
    let mut mem = DeviceMemory::new();
    let adaptive = DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut mem);
    let traditional = DeviceForest::build(
        &forest,
        &LayoutPlan::identity(&forest),
        FormatConfig::traditional(),
        &mut mem,
    );
    println!(
        "format: {:?} storage, {} B/node vs {} B/node fixed ({}% saved)",
        adaptive.mode(),
        adaptive.node_bytes(),
        traditional.node_bytes(),
        (100.0 * (1.0 - adaptive.image_bytes() as f64 / traditional.image_bytes() as f64))
            .round()
    );

    // Predictions are invariant under every rearrangement.
    let sample = data.samples.row(0);
    let a: f32 = (0..adaptive.n_trees()).map(|t| adaptive.tree_leaf(t, sample)).sum();
    let b: f32 = (0..traditional.n_trees())
        .map(|t| traditional.tree_leaf(t, sample))
        .sum();
    println!("prediction invariance: {a:.6} == {b:.6}");
    assert!((a - b).abs() < 1e-4);
}
