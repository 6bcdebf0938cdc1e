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

/// Serialized bytes per node: the heap position (`u64`) and the attribute
/// (`u32`, `u32::MAX` for a leaf), little-endian.
const NODE_BYTES: usize = 12;

/// Tokenizes a tree with windows of `t_nodes` nodes, collecting
/// [`for_each_token`]'s walk.
///
/// # Panics
///
/// Panics if `t_nodes < 2`.
#[must_use]
pub fn tokenize(tree: &Tree, t_nodes: usize) -> Vec<Token> {
    let mut tokens = Vec::new();
    for_each_token(tree, t_nodes, |bytes, weight| {
        tokens.push(Token {
            bytes: bytes.to_vec(),
            weight,
        });
    });
    tokens
}

/// Calls `visit(bytes, weight)` for every token of a tree with windows of
/// `t_nodes` nodes, in depth-first leaf order, without allocating per token.
///
/// Identical windows reached via different leaves are emitted once.
///
/// # Panics
///
/// Panics if `t_nodes < 2`.
pub fn for_each_token(tree: &Tree, t_nodes: usize, mut visit: impl FnMut(&[u8], f32)) {
    assert!(t_nodes >= 2, "a token needs at least two nodes");
    let n = tree.n_nodes();
    // A window is determined by its last node: windows start at depths that
    // are multiples of the stride, and only a path's final window ends at a
    // leaf. So emitted windows are marked by their last node.
    let mut emitted = vec![false; n];
    // Enumerate root-to-leaf paths depth-first; `path` holds the ancestors
    // of the node being visited with their node probabilities, and `bytes`
    // their serialized nodes, so every window of the path is a slice of
    // `bytes`. Every node has one parent, so its heap position and
    // probability follow from its parent's on the way down, exactly as
    // `heap_positions` and `Tree::node_probabilities` compute them.
    let mut path: Vec<(u32, f32)> = Vec::with_capacity(n);
    let mut bytes: Vec<u8> = Vec::with_capacity(n * NODE_BYTES);
    // (node, depth, heap position, node probability)
    let mut stack: Vec<(u32, usize, u64, f32)> = Vec::with_capacity(n);
    stack.push((0, 0, 0, 1.0));
    while let Some((id, depth, position, prob)) = stack.pop() {
        path.truncate(depth);
        path.push((id, prob));
        bytes.truncate(depth * NODE_BYTES);
        bytes.extend_from_slice(&position.to_le_bytes());
        match *tree.node(id) {
            Node::Decision {
                attribute,
                left,
                right,
                left_prob,
                ..
            } => {
                bytes.extend_from_slice(&attribute.to_le_bytes());
                stack.push((left, depth + 1, 2 * position + 1, prob * left_prob));
                stack.push((right, depth + 1, 2 * position + 2, prob * (1.0 - left_prob)));
            }
            Node::Leaf { .. } => {
                bytes.extend_from_slice(&u32::MAX.to_le_bytes());
                let stride = t_nodes - 1;
                let mut start = 0usize;
                loop {
                    let end = (start + t_nodes).min(path.len());
                    if end - start < 2 {
                        break;
                    }
                    let (last, weight) = path[end - 1];
                    if !emitted[last as usize] {
                        emitted[last as usize] = true;
                        visit(&bytes[start * NODE_BYTES..end * NODE_BYTES], weight);
                    }
                    if end == path.len() {
                        break;
                    }
                    start += stride;
                }
            }
        }
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
    fn walk_matches_heap_positions_and_node_probabilities() {
        // Each node of a window serializes its heap position and attribute,
        // and the weight is the last node's probability, bit for bit.
        let spec = tahoe_datasets::DatasetSpec::by_name("covtype").unwrap();
        let scale = tahoe_datasets::Scale::Smoke;
        let forest = tahoe_forest::train_for_spec(&spec, &spec.generate(scale), scale);
        for tree in forest.trees() {
            let probs = tree.node_probabilities();
            let positions =
                crate::format::layout::heap_positions(tree, &vec![false; tree.n_nodes()]);
            let mut last = 0;
            for_each_token(tree, 3, |bytes, weight| {
                for node in bytes.chunks_exact(NODE_BYTES) {
                    let position = u64::from_le_bytes(node[..8].try_into().unwrap());
                    last = positions.iter().position(|&p| p == position).unwrap();
                    let attr = tree.node(last as u32).attribute().unwrap_or(u32::MAX);
                    assert_eq!(node[8..], attr.to_le_bytes());
                }
                assert_eq!(weight.to_bits(), probs[last].to_bits());
            });
        }
    }

    #[test]
    fn single_leaf_tree_has_no_tokens() {
        let t = Tree::leaf(1.0);
        assert!(tokenize(&t, 2).is_empty());
    }
}
