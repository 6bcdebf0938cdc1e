//! Decision-tree ensembles ("forests").

use serde::{Deserialize, Serialize};

use tahoe_datasets::{ForestKind, Task};

use crate::node::Node;
use crate::tree::Tree;

/// A trained ensemble of binary decision trees.
///
/// GBDT forests aggregate by *summing* raw tree scores on top of `base_score`
/// (the sum is the logit for classification); random forests aggregate by
/// *averaging*. Both reduce to a weighted sum, which is what the simulated
/// reduction kernels compute.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Forest {
    trees: Vec<Tree>,
    n_attributes: u32,
    kind: ForestKind,
    task: Task,
    base_score: f32,
}

impl Forest {
    /// Assembles a forest.
    ///
    /// # Panics
    ///
    /// Panics if the forest breaks an invariant [`Self::check`] tests.
    #[must_use]
    pub fn new(
        trees: Vec<Tree>,
        n_attributes: u32,
        kind: ForestKind,
        task: Task,
        base_score: f32,
    ) -> Self {
        let forest = Self {
            trees,
            n_attributes,
            kind,
            task,
            base_score,
        };
        if let Err(e) = forest.check() {
            panic!("{e}");
        }
        forest
    }

    /// Checks the forest invariants: at least one tree, every tree's arena
    /// invariants ([`Tree::check`]), every attribute below `n_attributes`,
    /// finite thresholds and leaf values, and every `left_prob` in
    /// `[0, 1]`. [`Self::new`] asserts them; a deserialized forest skips
    /// `new`, so `io::load_forest` calls this.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.trees.is_empty() {
            return Err("a forest needs at least one tree".into());
        }
        for (i, t) in self.trees.iter().enumerate() {
            t.check().map_err(|e| format!("tree {i}: {e}"))?;
            for (j, n) in t.nodes().iter().enumerate() {
                match *n {
                    Node::Decision {
                        attribute,
                        threshold,
                        left_prob,
                        ..
                    } => {
                        if attribute >= self.n_attributes {
                            let n = self.n_attributes;
                            return Err(format!(
                                "tree {i} references attribute {attribute} out of range ({n} attributes)"
                            ));
                        }
                        if !threshold.is_finite() {
                            return Err(format!(
                                "tree {i} node {j}: non-finite threshold {threshold}"
                            ));
                        }
                        if !(0.0..=1.0).contains(&left_prob) {
                            return Err(format!(
                                "tree {i} node {j}: left_prob {left_prob} outside [0, 1]"
                            ));
                        }
                    }
                    Node::Leaf { value } => {
                        if !value.is_finite() {
                            return Err(format!(
                                "tree {i} node {j}: non-finite leaf value {value}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The trees in ensemble order.
    #[must_use]
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Number of trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of input attributes the forest was trained on.
    #[must_use]
    pub fn n_attributes(&self) -> u32 {
        self.n_attributes
    }

    /// Ensemble kind (GBDT or random forest).
    #[must_use]
    pub fn kind(&self) -> ForestKind {
        self.kind
    }

    /// Prediction task.
    #[must_use]
    pub fn task(&self) -> Task {
        self.task
    }

    /// Additive base score (GBDT prior; 0 for random forests).
    #[must_use]
    pub fn base_score(&self) -> f32 {
        self.base_score
    }

    /// Returns a forest truncated to the first `n` trees (used by the
    /// tree-count sweeps of Fig. 2b).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the tree count.
    #[must_use]
    pub fn truncated(&self, n: usize) -> Forest {
        assert!(n >= 1 && n <= self.n_trees(), "invalid truncation length {n}");
        Forest {
            trees: self.trees[..n].to_vec(),
            n_attributes: self.n_attributes,
            kind: self.kind,
            task: self.task,
            base_score: self.base_score,
        }
    }

    /// Combines per-tree raw outputs into the ensemble prediction.
    #[must_use]
    pub fn aggregate(&self, tree_output_sum: f32) -> f32 {
        match self.kind {
            ForestKind::Gbdt => self.base_score + tree_output_sum,
            ForestKind::RandomForest => tree_output_sum / self.n_trees() as f32,
        }
    }

    /// Structural summary statistics.
    #[must_use]
    pub fn stats(&self) -> ForestStats {
        let depths: Vec<usize> = self.trees.iter().map(Tree::depth).collect();
        let total_nodes: usize = self.trees.iter().map(Tree::n_nodes).sum();
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        let avg_depth = depths.iter().sum::<usize>() as f64 / depths.len() as f64;
        ForestStats {
            n_trees: self.n_trees(),
            n_attributes: self.n_attributes as usize,
            total_nodes,
            max_depth,
            avg_depth,
        }
    }
}

/// Structural summary of a forest (feeds the performance models' `D_tree`,
/// `N_trees`, `N_nodes` inputs, Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ForestStats {
    /// Number of trees.
    pub n_trees: usize,
    /// Number of input attributes.
    pub n_attributes: usize,
    /// Total node count over all trees.
    pub total_nodes: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Mean tree depth (the performance models' `D_tree`).
    pub avg_depth: f64,
}

impl ForestStats {
    /// Mean number of nodes per tree (the models' `N_nodes`).
    #[must_use]
    pub fn avg_nodes_per_tree(&self) -> f64 {
        self.total_nodes as f64 / self.n_trees as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_tree(leaf: f32) -> Tree {
        Tree::new(vec![
            Node::Decision {
                attribute: 0,
                threshold: 0.0,
                default_left: true,
                left: 1,
                right: 2,
                left_prob: 0.5,
            },
            Node::Leaf { value: leaf },
            Node::Leaf { value: -leaf },
        ])
    }

    #[test]
    fn check_rejects_non_finite_values_and_bad_probabilities() {
        let with_root = |threshold: f32, left_prob: f32, leaf: f32| Forest {
            trees: vec![
                tiny_tree(1.0),
                Tree::new(vec![
                    Node::Decision {
                        attribute: 0,
                        threshold,
                        default_left: true,
                        left: 1,
                        right: 2,
                        left_prob,
                    },
                    Node::Leaf { value: leaf },
                    Node::Leaf { value: 0.0 },
                ]),
            ],
            n_attributes: 1,
            kind: ForestKind::Gbdt,
            task: Task::Regression,
            base_score: 0.0,
        };
        assert!(with_root(0.5, 0.0, 1.0).check().is_ok());
        assert!(with_root(0.5, 1.0, 1.0).check().is_ok());
        for (forest, expected) in [
            (with_root(f32::NAN, 0.5, 1.0), "tree 1 node 0: non-finite threshold NaN"),
            (with_root(f32::INFINITY, 0.5, 1.0), "tree 1 node 0: non-finite threshold inf"),
            (with_root(0.5, f32::NAN, 1.0), "tree 1 node 0: left_prob NaN outside [0, 1]"),
            (with_root(0.5, -0.25, 1.0), "tree 1 node 0: left_prob -0.25 outside [0, 1]"),
            (with_root(0.5, 0.5, f32::NEG_INFINITY), "tree 1 node 1: non-finite leaf value -inf"),
            (with_root(0.5, 0.5, f32::NAN), "tree 1 node 1: non-finite leaf value NaN"),
        ] {
            assert_eq!(forest.check().unwrap_err(), expected);
        }
    }

    fn forest() -> Forest {
        Forest::new(
            vec![tiny_tree(1.0), tiny_tree(2.0), tiny_tree(3.0)],
            1,
            ForestKind::Gbdt,
            Task::BinaryClassification,
            0.5,
        )
    }

    #[test]
    fn aggregate_gbdt_adds_base_score() {
        let f = forest();
        assert!((f.aggregate(6.0) - 6.5).abs() < 1e-6);
    }

    #[test]
    fn aggregate_rf_averages() {
        let f = Forest::new(
            vec![tiny_tree(1.0), tiny_tree(2.0)],
            1,
            ForestKind::RandomForest,
            Task::Regression,
            0.0,
        );
        assert!((f.aggregate(6.0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let f = forest().truncated(2);
        assert_eq!(f.n_trees(), 2);
    }

    #[test]
    fn stats_summarize_structure() {
        let s = forest().stats();
        assert_eq!(s.n_trees, 3);
        assert_eq!(s.total_nodes, 9);
        assert_eq!(s.max_depth, 1);
        assert!((s.avg_depth - 1.0).abs() < 1e-9);
        assert!((s.avg_nodes_per_tree() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn attribute_range_checked() {
        let _ = Forest::new(
            vec![tiny_tree(1.0)],
            0,
            ForestKind::Gbdt,
            Task::Regression,
            0.0,
        );
    }
}
