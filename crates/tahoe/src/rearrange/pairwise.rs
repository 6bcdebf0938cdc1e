//! Brute-force pairwise tree similarity — the O(N²) baseline the paper's
//! §4.2 rejects ("using pairwise comparison can take up to 19 minutes for a
//! tree ensemble with 3000 trees") and §7.4 compares against (SimHash+LSH is
//! ">37x" faster).
//!
//! Similarity is the size of the intersection of the trees' token sets —
//! the exact quantity SimHash+LSH approximates — so the baseline also serves
//! as the ground truth for ordering-quality tests.

use std::collections::HashSet;

use tahoe_forest::Forest;

use super::lsh::CollisionMatrix;
use super::order::order_by_similarity;
use super::tokenize::for_each_token;

/// Exact pairwise similarity counts (token-set intersection sizes).
#[must_use]
pub fn pairwise_counts(forest: &Forest, t_nodes: usize) -> CollisionMatrix {
    let token_sets: Vec<HashSet<Vec<u8>>> = forest
        .trees()
        .iter()
        .map(|t| {
            let mut set = HashSet::new();
            for_each_token(t, t_nodes, |bytes, _| {
                set.insert(bytes.to_vec());
            });
            set
        })
        .collect();
    let mut counts = CollisionMatrix::new(token_sets.len());
    for a in 0..token_sets.len() {
        for b in a + 1..token_sets.len() {
            let inter = token_sets[a].intersection(&token_sets[b]).count() as u32;
            counts.set(a, b, inter);
        }
    }
    counts
}

/// Tree order from exact pairwise comparison.
#[must_use]
pub fn pairwise_order(forest: &Forest, t_nodes: usize) -> Vec<usize> {
    order_by_similarity(&pairwise_counts(forest, t_nodes))
}

/// Brute-force pairwise similarity, as the paper times it (§4.2: "up to 19
/// minutes for a tree ensemble with 3000 trees").
///
/// Every node of tree `A` is compared against every node of tree `B`
/// (matching heap position *and* attribute counts as similarity) — the naive
/// O(N² · n²) method the SimHash+LSH pipeline replaces. Use
/// [`pairwise_counts`] for a *fast* exact reference; this function exists for
/// the §7.4 cost comparison.
#[must_use]
pub fn brute_force_counts(forest: &Forest) -> CollisionMatrix {
    let keys: Vec<Vec<(u64, u32)>> = forest
        .trees()
        .iter()
        .map(|t| {
            let positions = crate::format::layout::heap_positions(t, &vec![false; t.n_nodes()]);
            t.nodes()
                .iter()
                .enumerate()
                .map(|(i, n)| (positions[i], n.attribute().map_or(u32::MAX, |a| a)))
                .collect()
        })
        .collect();
    let mut counts = CollisionMatrix::new(keys.len());
    for a in 0..keys.len() {
        for b in a + 1..keys.len() {
            let mut matches = 0u32;
            for ka in &keys[a] {
                for kb in &keys[b] {
                    if ka == kb {
                        matches += 1;
                    }
                }
            }
            counts.set(a, b, matches);
        }
    }
    counts
}

/// Tree order from the brute-force comparison.
#[must_use]
pub fn brute_force_order(forest: &Forest) -> Vec<usize> {
    order_by_similarity(&brute_force_counts(forest))
}

/// Mean exact similarity of adjacent trees under an order — the metric by
/// which an approximate (LSH) ordering is judged against this baseline.
#[must_use]
pub fn adjacency_score(order: &[usize], counts: &CollisionMatrix) -> f64 {
    if order.len() < 2 {
        return 0.0;
    }
    let total: u64 = order
        .windows(2)
        .map(|w| u64::from(counts.get(w[0], w[1])))
        .sum();
    total as f64 / (order.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{DatasetSpec, ForestKind, Scale, Task};
    use tahoe_forest::train_for_spec;
    use tahoe_forest::{Node, Tree};

    fn stub(attr: u32) -> Tree {
        Tree::new(vec![
            Node::Decision {
                attribute: attr,
                threshold: 0.0,
                default_left: true,
                left: 1,
                right: 2,
                left_prob: 0.5,
            },
            Node::Leaf { value: 1.0 },
            Node::Leaf { value: 2.0 },
        ])
    }

    #[test]
    fn identical_trees_have_max_similarity() {
        let forest = Forest::new(
            vec![stub(0), stub(0), stub(5)],
            6,
            ForestKind::Gbdt,
            Task::Regression,
            0.0,
        );
        let counts = pairwise_counts(&forest, 2);
        let c01 = counts.get(0, 1);
        let c02 = counts.get(0, 2);
        assert!(c01 > 0);
        assert_eq!(c02, 0, "different attributes share no tokens");
    }

    #[test]
    fn pairwise_order_groups_identical_trees() {
        let forest = Forest::new(
            vec![stub(0), stub(5), stub(0), stub(5)],
            6,
            ForestKind::Gbdt,
            Task::Regression,
            0.0,
        );
        let order = pairwise_order(&forest, 2);
        // The two attribute-0 trees (0, 2) must be adjacent, as must (1, 3).
        let pos: Vec<usize> = (0..4).map(|t| order.iter().position(|&o| o == t).unwrap()).collect();
        assert_eq!(pos[0].abs_diff(pos[2]), 1);
        assert_eq!(pos[1].abs_diff(pos[3]), 1);
    }

    #[test]
    fn adjacency_score_rewards_similar_neighbours() {
        let forest = Forest::new(
            vec![stub(0), stub(5), stub(0)],
            6,
            ForestKind::Gbdt,
            Task::Regression,
            0.0,
        );
        let counts = pairwise_counts(&forest, 2);
        let good = adjacency_score(&[0, 2, 1], &counts);
        let bad = adjacency_score(&[0, 1, 2], &counts);
        assert!(good > bad);
    }

    #[test]
    fn trained_forest_has_nontrivial_similarity_structure() {
        let spec = DatasetSpec::by_name("ijcnn1").unwrap();
        let data = spec.generate(Scale::Smoke);
        let forest = train_for_spec(&spec, &data, Scale::Smoke);
        let counts = pairwise_counts(&forest, 2);
        // Trees trained on the same data share at least some tokens.
        assert!(!counts.is_empty());
    }
}
