//! A single binary decision tree stored in an index arena.

use serde::{Deserialize, Serialize};

use crate::node::{Node, NodeId};

/// A binary decision tree.
///
/// Nodes live in an arena; the root is node `0`. Child ids always point
/// forward (child id > parent id), an invariant established by the builders
/// and preserved by child swapping, which keeps breadth-first layouts
/// well-defined.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Wraps an arena of nodes into a tree.
    ///
    /// # Panics
    ///
    /// Panics if the arena breaks an invariant [`Self::check`] tests.
    #[must_use]
    pub fn new(nodes: Vec<Node>) -> Self {
        let tree = Self { nodes };
        if let Err(e) = tree.check() {
            panic!("{e}");
        }
        tree
    }

    /// Checks the arena invariants: at least one node, every child id
    /// pointing forward and in range, which also rules out cycles, and no
    /// node with two parents.
    /// [`Self::new`] asserts them; a deserialized tree skips `new`, so its
    /// loader calls this.
    ///
    /// # Errors
    ///
    /// Describes the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("a tree needs at least one node".into());
        }
        let n = self.nodes.len();
        let mut has_parent = vec![false; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some((l, r)) = node.children() {
                if (l as usize) <= i || (r as usize) <= i {
                    return Err(format!("child ids must point forward (node {i})"));
                }
                if (l as usize) >= n || (r as usize) >= n {
                    return Err(format!("child id out of range (node {i})"));
                }
                for c in [l as usize, r as usize] {
                    if std::mem::replace(&mut has_parent[c], true) {
                        return Err(format!("node {c} has two parents (node {i})"));
                    }
                }
            }
        }
        Ok(())
    }

    /// A tree consisting of a single leaf.
    #[must_use]
    pub fn leaf(value: f32) -> Self {
        Self {
            nodes: vec![Node::Leaf { value }],
        }
    }

    /// Immutable node arena.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node count.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Access a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Number of leaves.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Depth of the tree: number of edges on the longest root-to-leaf path.
    ///
    /// A single-leaf tree has depth 0.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth_of(0)
    }

    fn depth_of(&self, id: NodeId) -> usize {
        match self.node(id).children() {
            None => 0,
            Some((l, r)) => 1 + self.depth_of(l).max(self.depth_of(r)),
        }
    }

    /// Depth (edges from the root) of every node.
    #[must_use]
    pub fn node_depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.nodes.len()];
        // Parents precede children, so a forward pass suffices.
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some((l, r)) = n.children() {
                depths[l as usize] = depths[i] + 1;
                depths[r as usize] = depths[i] + 1;
            }
        }
        depths
    }

    /// Predicts one sample, returning the reached leaf's value.
    ///
    /// # Panics
    ///
    /// Panics if the sample has fewer attributes than a node references.
    #[must_use]
    pub fn predict(&self, sample: &[f32]) -> f32 {
        let mut id: NodeId = 0;
        loop {
            match self.node(id).route(sample) {
                Some(next) => id = next,
                None => {
                    return self
                        .node(id)
                        .leaf_value()
                        .expect("route() returned None only on leaves");
                }
            }
        }
    }

    /// Probability that each node is visited (paper §2, "node probability").
    ///
    /// Computed as the product of edge probabilities along the path from the
    /// root; the root has probability 1.
    #[must_use]
    pub fn node_probabilities(&self) -> Vec<f32> {
        let mut probs = vec![0.0f32; self.nodes.len()];
        probs[0] = 1.0;
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Decision {
                left,
                right,
                left_prob,
                ..
            } = n
            {
                probs[*left as usize] += probs[i] * left_prob;
                probs[*right as usize] += probs[i] * (1.0 - left_prob);
            }
        }
        probs
    }

    /// Ids of nodes at each depth level, root first (breadth-first levels).
    #[must_use]
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let depths = self.node_depths();
        let max = depths.iter().copied().max().unwrap_or(0);
        let mut levels = vec![Vec::new(); max + 1];
        // Iterate in a BFS order so the within-level order is
        // left-to-right as in the paper's reorg figure.
        let mut queue = std::collections::VecDeque::from([0 as NodeId]);
        while let Some(id) = queue.pop_front() {
            levels[depths[id as usize]].push(id);
            if let Some((l, r)) = self.node(id).children() {
                queue.push_back(l);
                queue.push_back(r);
            }
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-level tree:
    ///         0 (a0 < 0.0)
    ///        /            \
    ///       1 (a1 < 1.0)   2 (leaf 5.0)
    ///      /    \
    ///     3(1.0) 4(2.0)
    pub(crate) fn sample_tree() -> Tree {
        Tree::new(vec![
            Node::Decision {
                attribute: 0,
                threshold: 0.0,
                default_left: true,
                left: 1,
                right: 2,
                left_prob: 0.6,
            },
            Node::Decision {
                attribute: 1,
                threshold: 1.0,
                default_left: false,
                left: 3,
                right: 4,
                left_prob: 0.25,
            },
            Node::Leaf { value: 5.0 },
            Node::Leaf { value: 1.0 },
            Node::Leaf { value: 2.0 },
        ])
    }

    #[test]
    fn predict_routes_correctly() {
        let t = sample_tree();
        assert_eq!(t.predict(&[-1.0, 0.5]), 1.0);
        assert_eq!(t.predict(&[-1.0, 2.0]), 2.0);
        assert_eq!(t.predict(&[1.0, 0.0]), 5.0);
    }

    #[test]
    fn structure_metrics() {
        let t = sample_tree();
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.node_depths(), vec![0, 1, 1, 2, 2]);
    }

    #[test]
    fn node_probabilities_multiply_down() {
        let t = sample_tree();
        let p = t.node_probabilities();
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!((p[1] - 0.6).abs() < 1e-6);
        assert!((p[2] - 0.4).abs() < 1e-6);
        assert!((p[3] - 0.15).abs() < 1e-6);
        assert!((p[4] - 0.45).abs() < 1e-6);
    }

    #[test]
    fn levels_are_breadth_first() {
        let t = sample_tree();
        assert_eq!(t.levels(), vec![vec![0], vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn leaf_tree_has_depth_zero() {
        let t = Tree::leaf(7.0);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[]), 7.0);
    }

    #[test]
    #[should_panic(expected = "child ids must point forward")]
    fn backward_child_rejected() {
        let _ = Tree::new(vec![
            Node::Leaf { value: 0.0 },
            Node::Decision {
                attribute: 0,
                threshold: 0.0,
                default_left: true,
                left: 0,
                right: 0,
                left_prob: 0.5,
            },
        ]);
    }
}
