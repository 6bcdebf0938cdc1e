//! Node-slot assignment: where each tree node lives in device memory.
//!
//! A [`LayoutPlan`] carries the two rearrangement decisions of §4 — the tree
//! order (similarity-based, §4.2) and the per-node child swaps
//! (probability-based, §4.1). Slot assignment then interleaves nodes of
//! different trees level by level, as the reorg format of Fig. 1 does:
//! nodes are ordered by `(level, within-level position, tree)`, so that
//! threads traversing different trees along the same relative path touch
//! adjacent slots.

use tahoe_forest::{Forest, Tree};

/// The two rearrangement decisions baked into a device layout.
#[derive(Clone, Debug, PartialEq)]
pub struct LayoutPlan {
    /// `tree_order[layout_idx] = original_tree_idx`.
    pub tree_order: Vec<usize>,
    /// `swaps[original_tree_idx][node_id]`: whether that node's children are
    /// swapped in the layout (leaves are always `false`).
    pub swaps: Vec<Vec<bool>>,
}

impl LayoutPlan {
    /// The identity plan: FIL's behaviour (original order, no swaps).
    #[must_use]
    pub fn identity(forest: &Forest) -> Self {
        Self {
            tree_order: (0..forest.n_trees()).collect(),
            swaps: forest
                .trees()
                .iter()
                .map(|t| vec![false; t.n_nodes()])
                .collect(),
        }
    }

    /// Validates the plan against a forest.
    ///
    /// # Panics
    ///
    /// Panics if the order is not a permutation or the swap vectors do not
    /// match tree sizes.
    pub fn validate(&self, forest: &Forest) {
        assert_eq!(self.tree_order.len(), forest.n_trees(), "order length mismatch");
        let mut seen = vec![false; forest.n_trees()];
        for &t in &self.tree_order {
            assert!(!seen[t], "tree order is not a permutation");
            seen[t] = true;
        }
        assert_eq!(self.swaps.len(), forest.n_trees(), "swap plan length mismatch");
        for (t, tree) in forest.trees().iter().enumerate() {
            assert_eq!(
                self.swaps[t].len(),
                tree.n_nodes(),
                "swap vector size mismatch for tree {t}"
            );
        }
    }
}

/// Heap positions (0-based: children of `p` are `2p+1`, `2p+2`) of every node
/// of a tree under a swap assignment.
#[must_use]
pub fn heap_positions(tree: &Tree, swaps: &[bool]) -> Vec<u64> {
    let mut pos = Vec::new();
    heap_positions_into(tree, swaps, &mut pos);
    pos
}

/// As [`heap_positions`], into a caller-owned buffer (cleared first), so a
/// pass over a forest reuses one allocation.
fn heap_positions_into(tree: &Tree, swaps: &[bool], pos: &mut Vec<u64>) {
    pos.clear();
    pos.resize(tree.n_nodes(), 0);
    for (id, node) in tree.nodes().iter().enumerate() {
        if let Some((l, r)) = node.children() {
            let (first, second) = if swaps[id] { (r, l) } else { (l, r) };
            pos[first as usize] = 2 * pos[id] + 1;
            pos[second as usize] = 2 * pos[id] + 2;
        }
    }
}

/// Depth level of a heap position.
#[must_use]
pub fn level_of_position(pos: u64) -> u32 {
    // Level l spans positions [2^l - 1, 2^(l+1) - 2].
    (pos + 1).ilog2()
}

/// Storage mode: implicit-children dense heap vs explicit-children sparse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// NULL-padded complete-tree layout; children derived from heap
    /// arithmetic (FIL's dense storage, the layout of the paper's Fig. 1).
    Dense,
    /// NULL-free layout with explicit child slots (FIL's sparse storage, for
    /// deep trees where dense padding explodes).
    Sparse,
}

/// Result of slot assignment.
///
/// A dense map holds one slot per real node, never one entry per padded
/// slot: a slot's level and children follow from its index alone (see
/// [`SlotMap::dense_level`] and [`SlotMap::dense_children`]).
#[derive(Clone, Debug)]
pub struct SlotMap {
    /// Device slot of every node, tree-major in layout order and by node id
    /// within a tree.
    slots: Vec<u32>,
    /// `first[t]..first[t + 1]` is layout tree `t`'s range of `slots`.
    first: Vec<usize>,
    /// Depth of each layout tree (its deepest heap level).
    depths: Vec<u32>,
    /// Total slots (including NULL padding in dense mode).
    pub n_slots: usize,
    /// Storage mode used.
    pub mode: StorageMode,
    /// Number of trees in the layout.
    pub n_trees: usize,
}

impl SlotMap {
    /// Device slot of each node of layout tree `layout_idx`, by node id.
    #[must_use]
    pub fn slot_of(&self, layout_idx: usize) -> &[u32] {
        &self.slots[self.first[layout_idx]..self.first[layout_idx + 1]]
    }

    /// Every node's slot, tree-major in layout order.
    #[must_use]
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Depth of each tree, in layout order.
    #[must_use]
    pub fn tree_depths(&self) -> &[u32] {
        &self.depths
    }

    /// Dense-mode tree level of `slot`.
    ///
    /// # Panics
    ///
    /// Panics in sparse mode.
    #[must_use]
    pub fn dense_level(&self, slot: u32) -> u32 {
        assert_eq!(self.mode, StorageMode::Dense, "dense arithmetic in sparse mode");
        level_of_position(u64::from(slot) / self.n_trees as u64)
    }

    /// Dense-mode child slots of the node in `slot` (derived from heap
    /// arithmetic); meaningless in sparse mode.
    ///
    /// # Panics
    ///
    /// Panics in sparse mode.
    #[must_use]
    pub fn dense_children(&self, slot: u32) -> (u32, u32) {
        assert_eq!(self.mode, StorageMode::Dense, "dense arithmetic in sparse mode");
        dense_children(self.n_trees, slot)
    }
}

/// Child slots of the node in `slot` of a dense layout of `n_trees` trees:
/// heap position `pos` of tree `tree` is slot `pos·n_trees + tree`, and its
/// children sit at positions `2·pos + 1` and `2·pos + 2` of the same tree.
pub(crate) fn dense_children(n_trees: usize, slot: u32) -> (u32, u32) {
    let n_trees = n_trees as u64;
    let slot = u64::from(slot);
    let pos = slot / n_trees;
    let tree = slot % n_trees;
    let child_slot =
        |child_pos: u64| u32::try_from(child_pos * n_trees + tree).expect("slot fits in u32");
    (child_slot(2 * pos + 1), child_slot(2 * pos + 2))
}

/// Assigns slots for a forest under a layout plan.
///
/// # Panics
///
/// Panics if the plan is invalid, or in dense mode if the padded size
/// overflows sensible limits (callers gate dense mode by depth).
#[must_use]
pub fn assign_slots(forest: &Forest, plan: &LayoutPlan, mode: StorageMode) -> SlotMap {
    assign_slots_at_depth(forest, plan, mode, forest.stats().max_depth)
}

/// As [`assign_slots`], for a forest whose deepest tree is `max_depth` deep
/// (only dense mode reads it).
pub(crate) fn assign_slots_at_depth(
    forest: &Forest,
    plan: &LayoutPlan,
    mode: StorageMode,
    max_depth: usize,
) -> SlotMap {
    plan.validate(forest);
    let n_trees = forest.n_trees();
    let mut first = Vec::with_capacity(n_trees + 1);
    first.push(0);
    for &orig in &plan.tree_order {
        first.push(first[first.len() - 1] + forest.trees()[orig].n_nodes());
    }
    let n_nodes = first[n_trees];
    let dense_slots = (mode == StorageMode::Dense).then(|| {
        let depth = max_depth as u32;
        assert!(depth < 26, "dense mode unusable at depth {depth}");
        let slots_per_tree = (1u64 << (depth + 1)) - 1;
        usize::try_from(slots_per_tree * n_trees as u64).expect("dense slot count fits usize")
    });
    let mut slots = vec![0u32; n_nodes];
    let mut depths = Vec::with_capacity(n_trees);
    // Sparse mode orders nodes by (level, position, layout tree, node id).
    let mut keyed: Vec<(u32, u64, u32, u32)> = Vec::new();
    // One heap-position buffer (after swaps) serves every tree.
    let mut pos = Vec::new();
    for (layout_idx, &orig) in plan.tree_order.iter().enumerate() {
        heap_positions_into(&forest.trees()[orig], &plan.swaps[orig], &mut pos);
        // Heap levels occupy disjoint, ascending position ranges, so the
        // largest position sits on the deepest level.
        depths.push(level_of_position(pos.iter().copied().max().unwrap_or(0)));
        match mode {
            // Heap position `p` of layout tree `t` lives in slot
            // `p·n_trees + t`: level by level, position by position, tree
            // by tree.
            StorageMode::Dense => {
                let tree_slots = &mut slots[first[layout_idx]..first[layout_idx + 1]];
                for (slot, &p) in tree_slots.iter_mut().zip(&pos) {
                    *slot = u32::try_from(p * n_trees as u64 + layout_idx as u64)
                        .expect("slot fits u32");
                }
            }
            StorageMode::Sparse => keyed.extend(
                pos.iter()
                    .enumerate()
                    .map(|(id, &p)| (level_of_position(p), p, layout_idx as u32, id as u32)),
            ),
        }
    }
    if mode == StorageMode::Sparse {
        keyed.sort_unstable();
        for (slot, &(_level, _p, layout_idx, id)) in keyed.iter().enumerate() {
            slots[first[layout_idx as usize] + id as usize] =
                u32::try_from(slot).expect("slot fits u32");
        }
    }
    SlotMap {
        slots,
        first,
        depths,
        n_slots: dense_slots.unwrap_or(n_nodes),
        mode,
        n_trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{ForestKind, Task};
    use tahoe_forest::Node;

    /// Three-node tree: root + two leaves.
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

    /// Five-node tree of depth 2 (left subtree deeper).
    fn deeper_tree() -> Tree {
        Tree::new(vec![
            Node::Decision {
                attribute: 0,
                threshold: 0.0,
                default_left: true,
                left: 1,
                right: 2,
                left_prob: 0.3,
            },
            Node::Decision {
                attribute: 1,
                threshold: 1.0,
                default_left: false,
                left: 3,
                right: 4,
                left_prob: 0.9,
            },
            Node::Leaf { value: 5.0 },
            Node::Leaf { value: 1.0 },
            Node::Leaf { value: 2.0 },
        ])
    }

    fn forest() -> Forest {
        Forest::new(
            vec![tiny_tree(1.0), deeper_tree(), tiny_tree(2.0)],
            2,
            ForestKind::Gbdt,
            Task::Regression,
            0.0,
        )
    }

    #[test]
    fn heap_positions_without_swaps() {
        let t = deeper_tree();
        let pos = heap_positions(&t, &[false; 5]);
        assert_eq!(pos, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heap_positions_with_root_swap() {
        let t = deeper_tree();
        let pos = heap_positions(&t, &[true, false, false, false, false]);
        // Right child (leaf, id 2) now occupies position 1; the decision
        // child id 1 occupies 2, its children 5 and 6.
        assert_eq!(pos[2], 1);
        assert_eq!(pos[1], 2);
        assert_eq!(pos[3], 5);
        assert_eq!(pos[4], 6);
    }

    #[test]
    fn level_of_position_is_log2() {
        assert_eq!(level_of_position(0), 0);
        assert_eq!(level_of_position(1), 1);
        assert_eq!(level_of_position(2), 1);
        assert_eq!(level_of_position(3), 2);
        assert_eq!(level_of_position(6), 2);
        assert_eq!(level_of_position(7), 3);
    }

    #[test]
    fn dense_slots_interleave_roots_first() {
        let f = forest();
        let plan = LayoutPlan::identity(&f);
        let map = assign_slots(&f, &plan, StorageMode::Dense);
        // Depth 2 → 7 slots per tree x 3 trees.
        assert_eq!(map.n_slots, 21);
        // Roots of trees 0, 1, 2 at slots 0, 1, 2 (Fig. 1's root row).
        assert_eq!(map.slot_of(0)[0], 0);
        assert_eq!(map.slot_of(1)[0], 1);
        assert_eq!(map.slot_of(2)[0], 2);
        // Left children at level 1: slots 3, 4, 5.
        assert_eq!(map.slot_of(0)[1], 3);
        assert_eq!(map.slot_of(1)[1], 4);
        assert_eq!(map.slot_of(2)[1], 5);
        // Levels.
        assert_eq!(map.dense_level(0), 0);
        assert_eq!(map.dense_level(3), 1);
        assert_eq!(map.dense_level(9), 2);
    }

    #[test]
    fn dense_children_invert_slot_arithmetic() {
        let f = forest();
        let plan = LayoutPlan::identity(&f);
        let map = assign_slots(&f, &plan, StorageMode::Dense);
        // Tree 1's root (slot 1) has children at heap 1 and 2 → the slots
        // recorded for its child nodes.
        let (l, r) = map.dense_children(map.slot_of(1)[0]);
        assert_eq!(l, map.slot_of(1)[1]);
        assert_eq!(r, map.slot_of(1)[2]);
    }

    #[test]
    fn sparse_slots_are_compact_and_level_ordered() {
        let f = forest();
        let plan = LayoutPlan::identity(&f);
        let map = assign_slots(&f, &plan, StorageMode::Sparse);
        // No padding: 3 + 5 + 3 nodes.
        assert_eq!(map.n_slots, 11);
        // Levels must be non-decreasing across slots.
        let mut levels = vec![0; map.n_slots];
        for (layout_idx, &orig) in plan.tree_order.iter().enumerate() {
            let tree = &f.trees()[orig];
            for (id, &p) in heap_positions(tree, &plan.swaps[orig]).iter().enumerate() {
                levels[map.slot_of(layout_idx)[id] as usize] = level_of_position(p);
            }
        }
        for w in levels.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Roots first, in tree order.
        assert_eq!(map.slot_of(0)[0], 0);
        assert_eq!(map.slot_of(1)[0], 1);
        assert_eq!(map.slot_of(2)[0], 2);
    }

    #[test]
    fn tree_order_permutes_root_slots() {
        let f = forest();
        let plan = LayoutPlan {
            tree_order: vec![2, 0, 1],
            swaps: LayoutPlan::identity(&f).swaps,
        };
        let map = assign_slots(&f, &plan, StorageMode::Sparse);
        // Layout index 0 is original tree 2.
        assert_eq!(map.slot_of(0)[0], 0);
        // slot_of is indexed by layout position, not original index.
        assert_eq!(map.n_trees, 3);
        assert_eq!(map.slot_of(0).len(), 3);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_plan_rejected() {
        let f = forest();
        let mut plan = LayoutPlan::identity(&f);
        plan.tree_order[0] = 1;
        let _ = assign_slots(&f, &plan, StorageMode::Sparse);
    }
}
