//! Edge-probability measurement (paper §2 and Algorithm 1 line 16).
//!
//! The tree builders already record training-time `left_prob` on every
//! decision node. This module *re-measures* edge probabilities by routing an
//! arbitrary dataset through the forest — used for the incremental-learning
//! path (recount after a forest update) and for the oracle-probability
//! ablation (count on the inference split instead of the training split).

use tahoe_datasets::SampleMatrix;

use crate::forest::Forest;
use crate::node::Node;
use crate::tree::Tree;

/// Incremental edge-visit counter for a fixed forest structure.
///
/// Algorithm 1 line 16 counts edge probabilities *during inference*; an
/// [`EdgeCounter`] accumulates observations across any number of batches and
/// can then re-annotate the forest. Counts are keyed by node id per tree, so
/// the forest's structure must not change between `observe` calls (a changed
/// forest needs a fresh counter).
#[derive(Clone, Debug)]
pub struct EdgeCounter {
    visits: Vec<Vec<u32>>,
    lefts: Vec<Vec<u32>>,
}

impl EdgeCounter {
    /// A zeroed counter shaped for `forest`.
    #[must_use]
    pub fn new(forest: &Forest) -> Self {
        Self {
            visits: forest.trees().iter().map(|t| vec![0; t.n_nodes()]).collect(),
            lefts: forest.trees().iter().map(|t| vec![0; t.n_nodes()]).collect(),
        }
    }

    /// Routes every sample through every tree, accumulating edge counts.
    ///
    /// # Panics
    ///
    /// Panics if the forest's shape does not match the counter.
    pub fn observe(&mut self, forest: &Forest, samples: &SampleMatrix) {
        assert_eq!(forest.n_trees(), self.visits.len(), "forest shape changed");
        for (t, tree) in forest.trees().iter().enumerate() {
            let visits = &mut self.visits[t];
            let lefts = &mut self.lefts[t];
            assert_eq!(tree.n_nodes(), visits.len(), "tree {t} shape changed");
            for i in 0..samples.n_samples() {
                let row = samples.row(i);
                let mut id = 0u32;
                loop {
                    let node = tree.node(id);
                    match node.route(row) {
                        None => break,
                        Some(next) => {
                            visits[id as usize] += 1;
                            if let Some((l, _)) = node.children() {
                                if next == l {
                                    lefts[id as usize] += 1;
                                }
                            }
                            id = next;
                        }
                    }
                }
            }
        }
    }

    /// Total observations at the root of tree 0 (≈ samples observed).
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.visits
            .first()
            .and_then(|v| v.first())
            .map_or(0, |&v| u64::from(v))
    }

    /// Builds a forest with `left_prob` re-estimated from the counts.
    ///
    /// Unvisited decision nodes keep a neutral `0.5`; counts are
    /// Laplace-smoothed so a node visited once does not get a degenerate
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics if the forest's shape does not match the counter.
    #[must_use]
    pub fn annotate(&self, forest: &Forest) -> Forest {
        assert_eq!(forest.n_trees(), self.visits.len(), "forest shape changed");
        let trees: Vec<Tree> = forest
            .trees()
            .iter()
            .enumerate()
            .map(|(t, tree)| {
                let visits = &self.visits[t];
                let lefts = &self.lefts[t];
                let nodes: Vec<Node> = tree
                    .nodes()
                    .iter()
                    .enumerate()
                    .map(|(i, n)| match *n {
                        Node::Leaf { value } => Node::Leaf { value },
                        Node::Decision {
                            attribute,
                            threshold,
                            default_left,
                            left,
                            right,
                            ..
                        } => {
                            let left_prob = if visits[i] == 0 {
                                0.5
                            } else {
                                (lefts[i] as f32 + 1.0) / (visits[i] as f32 + 2.0)
                            };
                            Node::Decision {
                                attribute,
                                threshold,
                                default_left,
                                left,
                                right,
                                left_prob,
                            }
                        }
                    })
                    .collect();
                Tree::new(nodes)
            })
            .collect();
        Forest::new(
            trees,
            forest.n_attributes(),
            forest.kind(),
            forest.task(),
            forest.base_score(),
        )
    }
}

/// Returns a forest whose `left_prob` values are re-estimated by routing
/// `samples` through every tree (one-shot convenience over [`EdgeCounter`]).
#[must_use]
pub fn annotate_edge_probabilities(forest: &Forest, samples: &SampleMatrix) -> Forest {
    let mut counter = EdgeCounter::new(forest);
    counter.observe(forest, samples);
    counter.annotate(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{ForestKind, Task};

    fn skewed_forest() -> Forest {
        // Root sends x<0 left; tree below only leaves.
        let tree = Tree::new(vec![
            Node::Decision {
                attribute: 0,
                threshold: 0.0,
                default_left: true,
                left: 1,
                right: 2,
                left_prob: 0.5,
            },
            Node::Leaf { value: 1.0 },
            Node::Leaf { value: 2.0 },
        ]);
        Forest::new(vec![tree], 1, ForestKind::Gbdt, Task::Regression, 0.0)
    }

    #[test]
    fn annotation_counts_left_fraction() {
        let f = skewed_forest();
        // 3 of 4 samples go left.
        let m = SampleMatrix::from_vec(4, 1, vec![-1.0, -2.0, -3.0, 5.0]);
        let annotated = annotate_edge_probabilities(&f, &m);
        match annotated.trees()[0].node(0) {
            Node::Decision { left_prob, .. } => {
                // Laplace smoothed: (3+1)/(4+2).
                assert!((left_prob - 4.0 / 6.0).abs() < 1e-6);
            }
            Node::Leaf { .. } => panic!("root is a decision node"),
        }
    }

    #[test]
    fn unvisited_nodes_get_half() {
        let f = skewed_forest();
        let m = SampleMatrix::from_vec(0, 1, vec![]);
        let annotated = annotate_edge_probabilities(&f, &m);
        match annotated.trees()[0].node(0) {
            Node::Decision { left_prob, .. } => assert!((left_prob - 0.5).abs() < 1e-6),
            Node::Leaf { .. } => panic!("root is a decision node"),
        }
    }

    #[test]
    fn annotation_preserves_predictions() {
        let f = skewed_forest();
        let m = SampleMatrix::from_vec(4, 1, vec![-1.0, -2.0, -3.0, 5.0]);
        let annotated = annotate_edge_probabilities(&f, &m);
        for i in 0..m.n_samples() {
            assert_eq!(
                crate::predict::predict_sample(&f, m.row(i)),
                crate::predict::predict_sample(&annotated, m.row(i)),
            );
        }
    }

    #[test]
    fn edge_counter_accumulates_across_batches() {
        let f = skewed_forest();
        let batch1 = SampleMatrix::from_vec(2, 1, vec![-1.0, -2.0]);
        let batch2 = SampleMatrix::from_vec(2, 1, vec![-3.0, 5.0]);
        let mut counter = EdgeCounter::new(&f);
        counter.observe(&f, &batch1);
        counter.observe(&f, &batch2);
        assert_eq!(counter.observations(), 4);
        let annotated = counter.annotate(&f);
        match annotated.trees()[0].node(0) {
            Node::Decision { left_prob, .. } => {
                assert!((left_prob - 4.0 / 6.0).abs() < 1e-6);
            }
            Node::Leaf { .. } => panic!("root is a decision node"),
        }
    }

    #[test]
    #[should_panic(expected = "forest shape changed")]
    fn edge_counter_rejects_mismatched_forest() {
        let f = skewed_forest();
        let counter = EdgeCounter::new(&f);
        let bigger = Forest::new(
            vec![f.trees()[0].clone(), f.trees()[0].clone()],
            1,
            ForestKind::Gbdt,
            Task::Regression,
            0.0,
        );
        let _ = counter.annotate(&bigger);
    }
}
