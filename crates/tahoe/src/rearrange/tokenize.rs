//! Tree tokenization (first step of §4.2's similarity pipeline).
//!
//! Each root-to-leaf path is split into windows of `T_nodes` consecutive
//! nodes (adjacent windows share one node, matching Fig. 3 where `T = 2`
//! yields the edge tokens `1-2`, `2-4`, ...). A token records the nodes'
//! *heap positions* and *attribute indices* — two trees produce equal tokens
//! exactly when they share both local topology and tested attributes, which
//! is the paper's definition of similar trees ("traversed using the similar
//! paths and accessing similar attributes").

use tahoe_forest::{Node, Tree};

/// One token: serialized window content plus its SimHash weight.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Serialized `(position, attribute)` pairs of the window's nodes.
    pub bytes: Vec<u8>,
    /// Node probability of the window's last node (the paper's weight).
    pub weight: f32,
}

/// Tokenizes a tree with windows of `t_nodes` nodes.
///
/// Identical windows reached via different leaves are emitted once.
///
/// # Panics
///
/// Panics if `t_nodes < 2`.
#[must_use]
pub fn tokenize(tree: &Tree, t_nodes: usize) -> Vec<Token> {
    assert!(t_nodes >= 2, "a token needs at least two nodes");
    let probs = tree.node_probabilities();
    let positions = crate::format::layout::heap_positions(tree, &vec![false; tree.n_nodes()]);
    // A window is determined by its last node: windows start at depths that
    // are multiples of the stride, and only a path's final window ends at a
    // leaf. So emitted windows are marked by their last node.
    let mut emitted = vec![false; tree.n_nodes()];
    let mut tokens = Vec::new();
    // Enumerate root-to-leaf paths depth-first; `path` holds the ancestors
    // of the node being visited.
    let mut path: Vec<u32> = Vec::new();
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    while let Some((id, depth)) = stack.pop() {
        path.truncate(depth);
        path.push(id);
        match tree.node(id) {
            Node::Decision { left, right, .. } => {
                stack.push((*left, depth + 1));
                stack.push((*right, depth + 1));
            }
            Node::Leaf { .. } => {
                emit_windows(tree, &path, &probs, &positions, t_nodes, &mut emitted, &mut tokens);
            }
        }
    }
    tokens
}

fn emit_windows(
    tree: &Tree,
    path: &[u32],
    probs: &[f32],
    positions: &[u64],
    t_nodes: usize,
    emitted: &mut [bool],
    tokens: &mut Vec<Token>,
) {
    let stride = t_nodes - 1;
    let mut start = 0usize;
    loop {
        let end = (start + t_nodes).min(path.len());
        if end - start < 2 {
            break;
        }
        let window = &path[start..end];
        let last = window[window.len() - 1] as usize;
        if !emitted[last] {
            emitted[last] = true;
            let mut bytes = Vec::with_capacity(window.len() * 12);
            for &id in window {
                bytes.extend_from_slice(&positions[id as usize].to_le_bytes());
                let attr = tree.node(id).attribute().map_or(u32::MAX, |a| a);
                bytes.extend_from_slice(&attr.to_le_bytes());
            }
            tokens.push(Token {
                bytes,
                weight: probs[last],
            });
        }
        if end == path.len() {
            break;
        }
        start += stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tahoe_forest::Node as HNode;

    /// Fig. 3's example shape: full binary tree of depth 2 (7 nodes).
    fn full_depth2() -> Tree {
        let d = |a: u32, l: u32, r: u32| HNode::Decision {
            attribute: a,
            threshold: 0.0,
            default_left: true,
            left: l,
            right: r,
            left_prob: 0.6,
        };
        Tree::new(vec![
            d(0, 1, 2),
            d(1, 3, 4),
            d(2, 5, 6),
            HNode::Leaf { value: 1.0 },
            HNode::Leaf { value: 2.0 },
            HNode::Leaf { value: 3.0 },
            HNode::Leaf { value: 4.0 },
        ])
    }

    #[test]
    fn edge_tokens_match_fig3_count() {
        // T = 2 on a 7-node full tree → 6 edge tokens, as in Fig. 3.
        let tokens = tokenize(&full_depth2(), 2);
        assert_eq!(tokens.len(), 6);
    }

    #[test]
    fn shared_prefix_windows_are_deduplicated() {
        // Paths 0-1-3 and 0-1-4 share edge 0-1; it must appear once.
        let tokens = tokenize(&full_depth2(), 2);
        let distinct: HashSet<&[u8]> = tokens.iter().map(|t| t.bytes.as_slice()).collect();
        assert_eq!(distinct.len(), tokens.len());
    }

    #[test]
    fn weights_are_node_probabilities() {
        let tree = full_depth2();
        let tokens = tokenize(&tree, 2);
        let probs = tree.node_probabilities();
        for t in &tokens {
            // Every weight must equal some node's probability.
            assert!(
                probs.iter().any(|p| (p - t.weight).abs() < 1e-6),
                "weight {} unknown",
                t.weight
            );
        }
    }

    #[test]
    fn identical_trees_produce_identical_tokens() {
        let a = tokenize(&full_depth2(), 2);
        let b = tokenize(&full_depth2(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn different_attributes_change_tokens() {
        let mut nodes: Vec<HNode> = full_depth2().nodes().to_vec();
        if let HNode::Decision { attribute, .. } = &mut nodes[0] {
            *attribute = 9;
        }
        let other = Tree::new(nodes);
        let a: HashSet<Vec<u8>> = tokenize(&full_depth2(), 2).into_iter().map(|t| t.bytes).collect();
        let b: HashSet<Vec<u8>> = tokenize(&other, 2).into_iter().map(|t| t.bytes).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn larger_windows_cover_long_paths() {
        // Depth-2 paths have 3 nodes; T = 4 gives one whole-path window each
        // once the shared prefix dedup collapses.
        let tokens = tokenize(&full_depth2(), 4);
        assert!(!tokens.is_empty());
        for t in &tokens {
            // 3 nodes x 12 bytes.
            assert_eq!(t.bytes.len(), 36);
        }
    }

    #[test]
    fn single_leaf_tree_has_no_tokens() {
        let t = Tree::leaf(1.0);
        assert!(tokenize(&t, 2).is_empty());
    }
}
