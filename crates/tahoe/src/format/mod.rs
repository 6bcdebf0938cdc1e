//! Device forest formats: reorg (FIL baseline) and adaptive (Tahoe §4.3).
//!
//! A [`DeviceForest`] is a forest laid out for the simulated GPU: every node
//! is assigned a memory slot (see [`layout`]), encoded into a byte image
//! (see [`node`]), and allocated in simulated global memory. The same type
//! serves both the FIL baseline (identity layout plan, fixed 4-byte attribute
//! index) and Tahoe's adaptive format (similarity tree order, probability
//! child swaps, variable-length attribute index) — a layout plan plus a
//! format config fully determine the result.
//!
//! The simulated image is padded (dense mode keeps a NULL slot for every
//! missing node of a complete tree, so addresses are arithmetic); the host
//! mirror the kernels walk is not: it keeps one record per real node.

pub mod layout;
pub mod node;

use tahoe_datasets::{ForestKind, SampleMatrix};
use tahoe_forest::{Forest, ForestStats};
use tahoe_gpu_sim::memory::{DeviceMemory, OomError};
use tahoe_gpu_sim::GlobalBuffer;

pub use layout::{assign_slots, LayoutPlan, SlotMap, StorageMode};
use layout::{assign_slots_at_depth, dense_children};
pub use node::{AttrWidth, DeviceNode, NO_SLOT};

use tahoe_forest::Node as HostNode;

/// Dense mode is only used while the NULL-padded slot count stays below this
/// cap; beyond it the padding dominates and sparse mode wins (FIL makes the
/// same dense/sparse decision for deep trees).
pub const DENSE_SLOT_CAP: usize = 1 << 21;

/// Format configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FormatConfig {
    /// Use the minimal attribute-index width (§4.3) instead of 4 bytes.
    pub varlen_attr: bool,
    /// Force a storage mode; `None` selects automatically by padded size.
    pub mode: Option<StorageMode>,
}

impl FormatConfig {
    /// Tahoe's adaptive-format configuration.
    #[must_use]
    pub fn adaptive() -> Self {
        Self {
            varlen_attr: true,
            mode: None,
        }
    }

    /// The traditional configuration (fixed four-byte attribute index).
    #[must_use]
    pub fn traditional() -> Self {
        Self {
            varlen_attr: false,
            mode: None,
        }
    }
}

/// One real node of a [`DeviceForest`]'s host mirror: its decoded fields,
/// its slot in the simulated image, and its children as indices into the
/// mirror rather than slots, so a walk reads one record per step.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MirrorNode {
    /// Slot in the simulated image (what device addresses derive from).
    pub slot: u32,
    /// Attribute index tested (0 for leaves).
    pub attribute: u32,
    /// Split threshold, or the leaf value for leaves.
    pub scalar: f32,
    /// Mirror index of the layout-left child (unused for leaves).
    pub left: u32,
    /// Mirror index of the layout-right child (unused for leaves).
    pub right: u32,
    /// Whether this is a leaf.
    pub leaf: bool,
    /// Default direction (in layout orientation) on missing values.
    pub default_left: bool,
    /// Whether the comparison is inverted (children were swapped).
    pub inverted: bool,
}

impl MirrorNode {
    /// Mirror index of the child a decision node routes `value` to.
    #[inline]
    pub fn next(&self, value: f32) -> u32 {
        if node::goes_left(value, self.scalar, self.default_left, self.inverted) {
            self.left
        } else {
            self.right
        }
    }
}

/// A forest laid out in simulated device memory.
///
/// Each slot of the image holds one whole-node record (§4.3). The host
/// mirror holds the real nodes only, in ascending slot order; the image it
/// stands for (its size, bytes and addresses) still covers every padded
/// slot.
#[derive(Clone, Debug)]
pub struct DeviceForest {
    nodes: Vec<MirrorNode>,
    n_slots: usize,
    roots: Vec<u32>,
    nodes_per_tree: Vec<u32>,
    node_bytes: usize,
    attr_width: AttrWidth,
    mode: StorageMode,
    /// The simulated device allocation holding the image.
    buffer: GlobalBuffer,
    /// Structural summary of the host forest, computed once per build.
    stats: ForestStats,
    /// Depth of each tree, in layout order.
    tree_depths: Vec<u32>,
    kind: ForestKind,
    base_score: f32,
    tree_order: Vec<usize>,
}

/// The host mirror of a laid-out forest: one record per real node, in
/// ascending slot order, with children as mirror indices; plus the node
/// count of each tree in layout order.
fn mirror_nodes(
    forest: &Forest,
    plan: &LayoutPlan,
    map: &SlotMap,
) -> (Vec<MirrorNode>, Vec<u32>) {
    let index_of = mirror_indices(map);
    let mut nodes = vec![MirrorNode::default(); index_of.len()];
    let mut nodes_per_tree = Vec::with_capacity(forest.n_trees());
    let mut first = 0;
    for (layout_idx, &orig) in plan.tree_order.iter().enumerate() {
        let tree = &forest.trees()[orig];
        let swaps = &plan.swaps[orig];
        let index = &index_of[first..first + tree.n_nodes()];
        first += tree.n_nodes();
        let tree_slots = map.slot_of(layout_idx);
        nodes_per_tree.push(tree.n_nodes() as u32);
        for (id, host) in tree.nodes().iter().enumerate() {
            let slot = tree_slots[id];
            nodes[index[id] as usize] = match *host {
                HostNode::Leaf { value } => MirrorNode {
                    slot,
                    scalar: value,
                    leaf: true,
                    ..MirrorNode::default()
                },
                HostNode::Decision {
                    attribute,
                    threshold,
                    default_left,
                    left,
                    right,
                    ..
                } => {
                    let swapped = swaps[id];
                    let (l, r) = if swapped { (right, left) } else { (left, right) };
                    MirrorNode {
                        slot,
                        attribute,
                        scalar: threshold,
                        left: index[l as usize],
                        right: index[r as usize],
                        leaf: false,
                        default_left: default_left ^ swapped,
                        inverted: swapped,
                    }
                }
            };
        }
    }
    (nodes, nodes_per_tree)
}

/// Each node's mirror index (the rank of its slot among the occupied slots),
/// tree-major in layout order.
fn mirror_indices(map: &SlotMap) -> Vec<u32> {
    match map.mode {
        // No padding: the slots are exactly the ranks.
        StorageMode::Sparse => map.slots().to_vec(),
        // A dense slot is `position·n_trees + tree`. Count the nodes at each
        // heap position, then hand out ranks tree by tree in layout order,
        // which keeps each position's nodes in ascending slot order.
        StorageMode::Dense => {
            let n_trees = map.n_trees as u32;
            let mut ranks: Vec<u32> = map.slots().iter().map(|&slot| slot / n_trees).collect();
            let mut next = vec![0u32; map.n_slots / map.n_trees];
            for &pos in &ranks {
                next[pos as usize] += 1;
            }
            let mut below = 0;
            for n in &mut next {
                (*n, below) = (below, below + *n);
            }
            for rank in &mut ranks {
                let pos = *rank as usize;
                *rank = next[pos];
                next[pos] += 1;
            }
            ranks
        }
    }
}

impl DeviceForest {
    /// Builds a device forest from a host forest, a layout plan, and a format
    /// configuration, allocating its image in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match the forest, or if the image does
    /// not fit in `mem` (capacity-aware callers use
    /// [`DeviceForest::try_build`]).
    #[must_use]
    pub fn build(
        forest: &Forest,
        plan: &LayoutPlan,
        config: FormatConfig,
        mem: &mut DeviceMemory,
    ) -> Self {
        Self::try_build(forest, plan, config, mem).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`DeviceForest::build`], but reports simulated device-memory
    /// exhaustion instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when the encoded image exceeds the remaining
    /// DRAM capacity of `mem`.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match the forest.
    pub fn try_build(
        forest: &Forest,
        plan: &LayoutPlan,
        config: FormatConfig,
        mem: &mut DeviceMemory,
    ) -> Result<Self, OomError> {
        let stats = forest.stats();
        let attr_width = if config.varlen_attr {
            AttrWidth::minimal(forest.n_attributes().max(1))
        } else {
            AttrWidth::U32
        };
        let mode = config.mode.unwrap_or_else(|| {
            let depth = stats.max_depth as u32;
            let padded = (stats.n_trees as u128) << (depth + 1);
            if depth < 21 && padded <= DENSE_SLOT_CAP as u128 {
                StorageMode::Dense
            } else {
                StorageMode::Sparse
            }
        });
        let map = assign_slots_at_depth(forest, plan, mode, stats.max_depth);
        let node_bytes = DeviceNode::encoded_bytes(attr_width, mode == StorageMode::Sparse);
        let (nodes, nodes_per_tree) = mirror_nodes(forest, plan, &map);
        // Every slot below the last root holds a real node in every layout
        // (dense level 0 is full; sparse layouts have no padding), so each
        // root's slot is also its mirror index.
        let roots: Vec<u32> = (0..forest.n_trees())
            .map(|layout_idx| map.slot_of(layout_idx)[0])
            .collect();
        debug_assert!(roots.iter().all(|&r| nodes[r as usize].slot == r));
        let buffer = mem.try_alloc((map.n_slots * node_bytes) as u64)?;
        Ok(Self {
            nodes,
            n_slots: map.n_slots,
            roots,
            nodes_per_tree,
            node_bytes,
            attr_width,
            mode,
            buffer,
            kind: forest.kind(),
            base_score: forest.base_score(),
            tree_order: plan.tree_order.clone(),
            stats,
            tree_depths: map.tree_depths().to_vec(),
        })
    }

    /// The simulated global-memory allocation holding the encoded image (what
    /// an engine must `free` before dropping or replacing the forest).
    #[must_use]
    pub fn buffer(&self) -> GlobalBuffer {
        self.buffer
    }

    /// Encodes the full device image (used for storage accounting and
    /// round-trip validation; kernels walk the host mirror): whole-node
    /// records in slot order, dense padding slots as NULL records.
    #[must_use]
    pub fn encode_image(&self) -> Vec<u8> {
        let explicit = self.mode == StorageMode::Sparse;
        let mut out = Vec::with_capacity(self.image_bytes());
        for slot in self.slots() {
            match slot {
                Some(n) => n.encode(self.attr_width, explicit, &mut out),
                None => DeviceNode::encode_null(self.attr_width, explicit, &mut out),
            }
        }
        out
    }

    /// Every slot of the image in order: the node it holds, with child
    /// slots, or `None` for a NULL (dense padding) slot.
    fn slots(&self) -> impl Iterator<Item = Option<DeviceNode>> + '_ {
        let mut next = self.nodes.iter().peekable();
        (0..self.n_slots as u32)
            .map(move |slot| next.next_if(|n| n.slot == slot).map(|n| self.device_node(n)))
    }

    /// The decoded form of a mirror record: children as slots.
    fn device_node(&self, n: &MirrorNode) -> DeviceNode {
        let (left, right) = if n.leaf {
            (NO_SLOT, NO_SLOT)
        } else {
            (self.nodes[n.left as usize].slot, self.nodes[n.right as usize].slot)
        };
        DeviceNode {
            attribute: n.attribute,
            scalar: n.scalar,
            left,
            right,
            leaf: n.leaf,
            default_left: n.default_left,
            inverted: n.inverted,
        }
    }

    /// Decodes an image back into per-slot nodes (children resolved via heap
    /// arithmetic in dense mode). Used by tests to prove the byte format is
    /// faithful.
    #[must_use]
    pub fn decode_image(&self, image: &[u8]) -> Vec<Option<DeviceNode>> {
        let explicit = self.mode == StorageMode::Sparse;
        let mut cursor = image;
        (0..self.n_slots as u32)
            .map(|slot| {
                let mut decoded = DeviceNode::decode(self.attr_width, explicit, &mut cursor);
                if let Some(n) = decoded.as_mut() {
                    if !explicit && !n.leaf {
                        (n.left, n.right) = dense_children(self.stats.n_trees, slot);
                    }
                }
                decoded
            })
            .collect()
    }

    /// The mirror record at `index` (walks start at a root: see
    /// [`DeviceForest::roots`]).
    #[inline]
    pub(crate) fn record(&self, index: u32) -> &MirrorNode {
        &self.nodes[index as usize]
    }

    /// The node in `slot`, or `None` for a NULL (dense padding) slot or a
    /// slot past the image.
    #[must_use]
    pub fn node_opt(&self, slot: u32) -> Option<DeviceNode> {
        let index = self.nodes.binary_search_by_key(&slot, |n| n.slot).ok()?;
        Some(self.device_node(&self.nodes[index]))
    }

    /// Simulated device address of the node record in `slot`.
    #[must_use]
    pub fn node_addr(&self, slot: u32) -> u64 {
        self.buffer.elem_addr(u64::from(slot), self.node_bytes as u64)
    }

    /// Root slot of each tree, in layout order. Every slot below a root
    /// holds a real node, so a root's slot is also its mirror index.
    #[must_use]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Number of trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.stats.n_trees
    }

    /// Number of attributes the forest tests.
    #[must_use]
    pub fn n_attributes(&self) -> u32 {
        self.stats.n_attributes as u32
    }

    /// Encoded node size in bytes (the models' `S_node`).
    #[must_use]
    pub fn node_bytes(&self) -> usize {
        self.node_bytes
    }

    /// Attribute-index width in use.
    #[must_use]
    pub fn attr_width(&self) -> AttrWidth {
        self.attr_width
    }

    /// Storage mode in use.
    #[must_use]
    pub fn mode(&self) -> StorageMode {
        self.mode
    }

    /// Total image size in bytes (including dense NULL padding).
    #[must_use]
    pub fn image_bytes(&self) -> usize {
        self.n_slots * self.node_bytes
    }

    /// Shared-memory footprint of trees `[from, to)` in layout order (NULL
    /// padding is never copied to shared memory).
    #[must_use]
    pub fn trees_smem_bytes(&self, from: usize, to: usize) -> usize {
        self.nodes_per_tree[from..to]
            .iter()
            .map(|&n| n as usize * self.node_bytes)
            .sum()
    }

    /// Shared-memory footprint of the whole forest.
    #[must_use]
    pub fn forest_smem_bytes(&self) -> usize {
        self.trees_smem_bytes(0, self.stats.n_trees)
    }

    /// Structural summary of the forest the image encodes (the models'
    /// `D_tree`, `N_trees` and `N_nodes` inputs).
    #[must_use]
    pub fn forest_stats(&self) -> &ForestStats {
        &self.stats
    }

    /// Depth of each tree, in layout order (shared data's serial chain,
    /// [`crate::perfmodel::shared_data_chain`], and splitting's per-part
    /// walk work).
    #[must_use]
    pub fn tree_depths(&self) -> &[u32] {
        &self.tree_depths
    }

    /// Maximum tree depth.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.stats.max_depth
    }

    /// Layout order: `tree_order[layout_idx] = original index`.
    #[must_use]
    pub fn tree_order(&self) -> &[usize] {
        &self.tree_order
    }

    /// Traverses one tree for one sample; returns the leaf value.
    ///
    /// # Panics
    ///
    /// Panics if the sample has fewer attributes than the forest tests.
    #[must_use]
    pub fn tree_leaf(&self, layout_tree: usize, sample: &[f32]) -> f32 {
        let mut n = self.record(self.roots[layout_tree]);
        while !n.leaf {
            n = self.record(n.next(sample[n.attribute as usize]));
        }
        n.scalar
    }

    /// Combines a raw sum of tree outputs into the forest prediction.
    #[must_use]
    pub fn aggregate(&self, tree_output_sum: f32) -> f32 {
        match self.kind {
            ForestKind::Gbdt => self.base_score + tree_output_sum,
            ForestKind::RandomForest => tree_output_sum / self.stats.n_trees as f32,
        }
    }

    /// Predicts every sample (sum over trees in layout order, aggregated).
    #[must_use]
    pub fn predict_batch(&self, samples: &SampleMatrix) -> Vec<f32> {
        (0..samples.n_samples())
            .map(|i| {
                let row = samples.row(i);
                let sum: f32 = (0..self.stats.n_trees).map(|t| self.tree_leaf(t, row)).sum();
                self.aggregate(sum)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{DatasetSpec, Scale};
    use tahoe_forest::{predict_dataset, train_for_spec};

    fn build_pair(name: &str) -> (Forest, DeviceForest, tahoe_datasets::Dataset) {
        let spec = DatasetSpec::by_name(name).unwrap();
        let data = spec.generate(Scale::Smoke);
        let (train, infer) = data.split_train_infer();
        let forest = train_for_spec(&spec, &train, Scale::Smoke);
        let mut mem = DeviceMemory::new();
        let plan = LayoutPlan::identity(&forest);
        let df = DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut mem);
        (forest, df, infer)
    }

    #[test]
    fn device_predictions_match_reference_dense() {
        let (forest, df, infer) = build_pair("letter");
        assert_eq!(df.mode(), StorageMode::Dense);
        let reference = predict_dataset(&forest, &infer.samples);
        let device = df.predict_batch(&infer.samples);
        for (a, b) in reference.iter().zip(&device) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn device_predictions_match_reference_sparse() {
        // Force sparse mode explicitly (at Smoke scale the realized depths
        // can be shallow enough for the auto heuristic to pick dense).
        let spec = DatasetSpec::by_name("gisette").unwrap();
        let data = spec.generate(Scale::Smoke);
        let (train, infer) = data.split_train_infer();
        let forest = train_for_spec(&spec, &train, Scale::Smoke);
        let mut mem = DeviceMemory::new();
        let plan = LayoutPlan::identity(&forest);
        let config = FormatConfig {
            mode: Some(StorageMode::Sparse),
            ..FormatConfig::adaptive()
        };
        let df = DeviceForest::build(&forest, &plan, config, &mut mem);
        assert_eq!(df.mode(), StorageMode::Sparse);
        let reference = predict_dataset(&forest, &infer.samples);
        let device = df.predict_batch(&infer.samples);
        for (a, b) in reference.iter().zip(&device) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn swapped_children_preserve_predictions() {
        let (forest, _, infer) = build_pair("letter");
        let mut mem = DeviceMemory::new();
        // Swap every decision node — predictions must be invariant.
        let mut plan = LayoutPlan::identity(&forest);
        for (t, tree) in forest.trees().iter().enumerate() {
            for (i, n) in tree.nodes().iter().enumerate() {
                plan.swaps[t][i] = !n.is_leaf();
            }
        }
        let df = DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut mem);
        let reference = predict_dataset(&forest, &infer.samples);
        let device = df.predict_batch(&infer.samples);
        for (a, b) in reference.iter().zip(&device) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn tree_order_preserves_predictions() {
        let (forest, _, infer) = build_pair("letter");
        let mut mem = DeviceMemory::new();
        let mut plan = LayoutPlan::identity(&forest);
        plan.tree_order.reverse();
        let df = DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut mem);
        let reference = predict_dataset(&forest, &infer.samples);
        let device = df.predict_batch(&infer.samples);
        for (a, b) in reference.iter().zip(&device) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn image_roundtrip_is_faithful() {
        for name in ["letter", "gisette"] {
            let (_, df, _) = build_pair(name);
            let image = df.encode_image();
            assert_eq!(image.len(), df.image_bytes());
            let decoded = df.decode_image(&image);
            assert_eq!(decoded.len(), df.n_slots);
            for (slot, b) in decoded.iter().enumerate() {
                assert_eq!(df.node_opt(slot as u32), *b, "{name}: slot {slot} mismatch");
            }
        }
    }

    /// A depth-8 chain tree (every decision's left child a leaf) plus ten
    /// stumps: 47 real nodes padded to 11 × 511 dense slots.
    fn padded_forest() -> Forest {
        use tahoe_datasets::Task;
        use tahoe_forest::Tree;
        let depth = 8u32;
        let mut chain = Vec::new();
        for i in 0..depth {
            chain.push(HostNode::Decision {
                attribute: i % 3,
                threshold: i as f32 * 0.25,
                default_left: i % 2 == 0,
                left: 2 * i + 1,
                right: 2 * i + 2,
                left_prob: 0.5,
            });
            chain.push(HostNode::Leaf { value: i as f32 });
        }
        chain.push(HostNode::Leaf { value: -1.0 });
        let mut trees = vec![Tree::new(chain)];
        for t in 0..10 {
            trees.push(Tree::new(vec![
                HostNode::Decision {
                    attribute: t % 3,
                    threshold: 0.5,
                    default_left: t % 2 == 1,
                    left: 1,
                    right: 2,
                    left_prob: 0.5,
                },
                HostNode::Leaf { value: t as f32 },
                HostNode::Leaf { value: -(t as f32) },
            ]));
        }
        Forest::new(trees, 3, ForestKind::Gbdt, Task::Regression, 0.5)
    }

    #[test]
    fn host_mirror_holds_only_real_nodes() {
        let forest = padded_forest();
        let total_nodes = forest.stats().total_nodes;
        assert_eq!(total_nodes, 47);
        let mut plan = LayoutPlan::identity(&forest);
        plan.tree_order.reverse();
        plan.swaps[0][2] = true;
        let config = FormatConfig {
            mode: Some(StorageMode::Dense),
            ..FormatConfig::adaptive()
        };
        let mut mem = DeviceMemory::new();
        let df = DeviceForest::build(&forest, &plan, config, &mut mem);
        let n_slots = 11 * ((1 << 9) - 1);
        assert!(n_slots >= 10 * total_nodes, "the forest must be padded ≥ 10×");
        // The mirror keeps one record per real node, in ascending slot order.
        assert_eq!(df.nodes.len(), total_nodes);
        assert_eq!(df.nodes.capacity(), total_nodes);
        assert!(df.nodes.windows(2).all(|w| w[0].slot < w[1].slot));
        // The simulated image still covers every padded slot.
        assert_eq!(df.n_slots, n_slots);
        assert_eq!(df.image_bytes(), n_slots * df.node_bytes());
        assert_eq!(df.encode_image().len(), df.image_bytes());
        assert_eq!(df.buffer().bytes, df.image_bytes() as u64);
        // Every slot decodes to the mirror's node, padding to NULL.
        let decoded = df.decode_image(&df.encode_image());
        assert_eq!(decoded.iter().filter(|d| d.is_some()).count(), total_nodes);
        for (slot, d) in decoded.iter().enumerate() {
            assert_eq!(df.node_opt(slot as u32), *d, "slot {slot}");
        }
        // Walking the mirror reaches the reference's leaf in every tree.
        let values: Vec<f32> = (0..63).map(|i| (i as f32 * 0.37).fract() * 2.0).collect();
        let samples = SampleMatrix::from_vec(21, 3, values);
        for row in samples.rows() {
            for (layout_tree, &orig) in df.tree_order().iter().enumerate() {
                let want = forest.trees()[orig].predict(row);
                assert_eq!(df.tree_leaf(layout_tree, row).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn varlen_attr_shrinks_storage() {
        let spec = DatasetSpec::by_name("letter").unwrap();
        let data = spec.generate(Scale::Smoke);
        let forest = train_for_spec(&spec, &data, Scale::Smoke);
        let plan = LayoutPlan::identity(&forest);
        let mut mem = DeviceMemory::new();
        let adaptive =
            DeviceForest::build(&forest, &plan, FormatConfig::adaptive(), &mut mem);
        let traditional =
            DeviceForest::build(&forest, &plan, FormatConfig::traditional(), &mut mem);
        assert!(adaptive.image_bytes() < traditional.image_bytes());
        // 16 attributes → one-byte index.
        assert_eq!(adaptive.attr_width(), AttrWidth::U8);
        let saving = 1.0 - adaptive.image_bytes() as f64 / traditional.image_bytes() as f64;
        assert!(saving > 0.15, "saving {saving} too small");
    }

    #[test]
    fn smem_footprint_excludes_padding() {
        let (forest, df, _) = build_pair("letter");
        let real_nodes: usize = forest.trees().iter().map(tahoe_forest::Tree::n_nodes).sum();
        assert_eq!(df.forest_smem_bytes(), real_nodes * df.node_bytes());
        assert!(df.forest_smem_bytes() <= df.image_bytes());
        // Partial ranges sum correctly.
        let split = df.n_trees() / 2;
        assert_eq!(
            df.trees_smem_bytes(0, split) + df.trees_smem_bytes(split, df.n_trees()),
            df.forest_smem_bytes()
        );
    }

    #[test]
    fn try_build_reports_oom_on_tiny_dram() {
        let spec = DatasetSpec::by_name("letter").unwrap();
        let data = spec.generate(Scale::Smoke);
        let forest = train_for_spec(&spec, &data, Scale::Smoke);
        let plan = LayoutPlan::identity(&forest);
        let mut mem = DeviceMemory::with_capacity(256);
        let err = DeviceForest::try_build(&forest, &plan, FormatConfig::adaptive(), &mut mem)
            .unwrap_err();
        assert_eq!(err.capacity_bytes, 256);
        assert!(err.requested_bytes > 256);
        // Nothing was left allocated by the failed build.
        assert_eq!(mem.in_use_bytes(), 0);
    }

    #[test]
    fn build_registers_its_buffer() {
        let (_, df, _) = build_pair("letter");
        assert_eq!(df.buffer().bytes as usize, df.image_bytes());
    }

    #[test]
    fn node_addresses_are_contiguous_slots() {
        let (_, df, _) = build_pair("letter");
        let a0 = df.node_addr(0);
        let a1 = df.node_addr(1);
        assert_eq!(a1 - a0, df.node_bytes() as u64);
    }
}
