//! Device node encoding.
//!
//! A device node packs the per-node fields the inference kernels read:
//! a flag byte, the attribute index (variable width — the paper's §4.3
//! storage optimization), and the threshold or leaf value. Sparse-mode nodes
//! additionally carry explicit child slots; dense-mode nodes derive children
//! from heap arithmetic and omit them.

use serde::{Deserialize, Serialize};

/// Slot value meaning "no node".
pub const NO_SLOT: u32 = u32::MAX;

/// Flag byte marking an unoccupied (NULL) dense-mode slot.
pub const NULL_FLAGS: u8 = 0xFF;

/// Attribute-index width (paper §4.3: "the length is just enough to index
/// all attributes").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrWidth {
    /// One byte (≤ 256 attributes).
    U8,
    /// Two bytes (≤ 65 536 attributes).
    U16,
    /// Four bytes (the traditional fixed-length representation).
    U32,
}

impl AttrWidth {
    /// Minimal width able to index `n_attributes`.
    #[must_use]
    pub fn minimal(n_attributes: u32) -> Self {
        if n_attributes <= u32::from(u8::MAX) + 1 {
            AttrWidth::U8
        } else if n_attributes <= u32::from(u16::MAX) + 1 {
            AttrWidth::U16
        } else {
            AttrWidth::U32
        }
    }

    /// Width in bytes.
    #[must_use]
    pub fn bytes(self) -> usize {
        match self {
            AttrWidth::U8 => 1,
            AttrWidth::U16 => 2,
            AttrWidth::U32 => 4,
        }
    }
}

/// Appends the low `n` (at most 4) bytes of `value`, little-endian.
fn put_le(out: &mut Vec<u8>, value: u32, n: usize) {
    out.extend_from_slice(&value.to_le_bytes()[..n]);
}

/// Reads the next `n` (at most 4) bytes of `buf` as a little-endian unsigned
/// value and advances `buf` past them.
fn take_le(buf: &mut &[u8], n: usize) -> u32 {
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    let mut word = [0u8; 4];
    word[..n].copy_from_slice(head);
    u32::from_le_bytes(word)
}

/// The routing rule of a decision node: whether `value` goes to the layout-left
/// child (see [`DeviceNode`]).
#[inline]
pub(crate) fn goes_left(value: f32, threshold: f32, default_left: bool, inverted: bool) -> bool {
    if value.is_nan() {
        default_left
    } else {
        (value < threshold) ^ inverted
    }
}

/// Decoded device node: one slot of the image, with children as slots.
///
/// For decision nodes the routing rule is:
///
/// ```text
/// go_left = missing(value) ? default_left : (value < threshold) ^ inverted
/// ```
///
/// `inverted` records that the probability-based rearrangement (§4.1) swapped
/// this node's children in the layout, so "layout left" is the *more likely*
/// branch; the flag keeps predictions identical to the original tree.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceNode {
    /// Attribute index tested (0 for leaves).
    pub attribute: u32,
    /// Split threshold, or the leaf value for leaves.
    pub scalar: f32,
    /// Left-child slot ([`NO_SLOT`] for leaves).
    pub left: u32,
    /// Right-child slot ([`NO_SLOT`] for leaves).
    pub right: u32,
    /// Whether this is a leaf.
    pub leaf: bool,
    /// Default direction (in layout orientation) on missing values.
    pub default_left: bool,
    /// Whether the comparison is inverted (children were swapped).
    pub inverted: bool,
}

impl DeviceNode {
    /// A leaf node.
    #[must_use]
    pub fn leaf(value: f32) -> Self {
        Self {
            attribute: 0,
            scalar: value,
            left: NO_SLOT,
            right: NO_SLOT,
            leaf: true,
            default_left: false,
            inverted: false,
        }
    }

    /// Routes a sample value through this node; `None` for leaves.
    #[must_use]
    pub fn next_slot(&self, value: f32) -> Option<u32> {
        if self.leaf {
            return None;
        }
        let go_left = goes_left(value, self.scalar, self.default_left, self.inverted);
        Some(if go_left { self.left } else { self.right })
    }

    fn flags(&self) -> u8 {
        u8::from(self.leaf) | (u8::from(self.default_left) << 1) | (u8::from(self.inverted) << 2)
    }

    /// Encoded size in bytes for a given attribute width and storage mode.
    #[must_use]
    pub fn encoded_bytes(attr: AttrWidth, explicit_children: bool) -> usize {
        1 + attr.bytes() + 4 + if explicit_children { 8 } else { 0 }
    }

    /// Packs the node into `out` (the simulated device image).
    ///
    /// Writes exactly [`Self::encoded_bytes`]`(attr, explicit_children)`
    /// bytes — [`crate::format::DeviceForest`]'s image sizing and the
    /// `DeviceMemory` accounting both assume this, so a desync would silently
    /// corrupt every simulated node address (debug builds assert it).
    pub fn encode(&self, attr: AttrWidth, explicit_children: bool, out: &mut Vec<u8>) {
        let before = out.len();
        out.push(self.flags());
        put_le(out, self.attribute, attr.bytes());
        out.extend_from_slice(&self.scalar.to_le_bytes());
        if explicit_children {
            put_le(out, self.left, 4);
            put_le(out, self.right, 4);
        }
        debug_assert_eq!(
            out.len() - before,
            Self::encoded_bytes(attr, explicit_children),
            "encode must write exactly encoded_bytes({attr:?}, {explicit_children})"
        );
    }

    /// Encodes a NULL (padding) slot of the same size as [`Self::encode`].
    pub fn encode_null(attr: AttrWidth, explicit_children: bool, out: &mut Vec<u8>) {
        let before = out.len();
        out.push(NULL_FLAGS);
        out.resize(before + Self::encoded_bytes(attr, explicit_children), 0);
        debug_assert_eq!(
            out.len() - before,
            Self::encoded_bytes(attr, explicit_children),
            "encode_null must write exactly encoded_bytes({attr:?}, {explicit_children})"
        );
    }

    /// Decodes a node; `None` for NULL slots.
    ///
    /// Dense-mode nodes (no explicit children) are returned with
    /// [`NO_SLOT`] children; the caller fills them in from heap arithmetic.
    #[must_use]
    pub fn decode(attr: AttrWidth, explicit_children: bool, buf: &mut &[u8]) -> Option<Self> {
        let flags = take_le(buf, 1) as u8;
        if flags == NULL_FLAGS {
            *buf = &buf[Self::encoded_bytes(attr, explicit_children) - 1..];
            return None;
        }
        let attribute = take_le(buf, attr.bytes());
        let scalar = f32::from_bits(take_le(buf, 4));
        let (left, right) = if explicit_children {
            (take_le(buf, 4), take_le(buf, 4))
        } else {
            (NO_SLOT, NO_SLOT)
        };
        Some(Self {
            attribute,
            scalar,
            left,
            right,
            leaf: flags & 1 != 0,
            default_left: flags & 2 != 0,
            inverted: flags & 4 != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision() -> DeviceNode {
        DeviceNode {
            attribute: 300,
            scalar: 1.5,
            left: 10,
            right: 20,
            leaf: false,
            default_left: true,
            inverted: false,
        }
    }

    #[test]
    fn minimal_width_thresholds() {
        assert_eq!(AttrWidth::minimal(1), AttrWidth::U8);
        assert_eq!(AttrWidth::minimal(255), AttrWidth::U8);
        assert_eq!(AttrWidth::minimal(256), AttrWidth::U8);
        assert_eq!(AttrWidth::minimal(257), AttrWidth::U16);
        assert_eq!(AttrWidth::minimal(65_535), AttrWidth::U16);
        assert_eq!(AttrWidth::minimal(65_536), AttrWidth::U16);
        assert_eq!(AttrWidth::minimal(65_537), AttrWidth::U32);
        assert_eq!(AttrWidth::minimal(u32::MAX), AttrWidth::U32);
    }

    #[test]
    fn encoded_sizes() {
        assert_eq!(DeviceNode::encoded_bytes(AttrWidth::U8, false), 6);
        assert_eq!(DeviceNode::encoded_bytes(AttrWidth::U16, true), 15);
        assert_eq!(DeviceNode::encoded_bytes(AttrWidth::U32, true), 17);
    }

    #[test]
    fn roundtrip_sparse() {
        let n = decision();
        let mut buf = Vec::new();
        n.encode(AttrWidth::U16, true, &mut buf);
        assert_eq!(buf.len(), DeviceNode::encoded_bytes(AttrWidth::U16, true));
        let decoded = DeviceNode::decode(AttrWidth::U16, true, &mut buf.as_slice()).unwrap();
        assert_eq!(decoded, n);
    }

    #[test]
    fn roundtrip_dense_drops_children() {
        let n = decision();
        let mut buf = Vec::new();
        n.encode(AttrWidth::U32, false, &mut buf);
        let decoded = DeviceNode::decode(AttrWidth::U32, false, &mut buf.as_slice()).unwrap();
        assert_eq!(decoded.left, NO_SLOT);
        assert_eq!(decoded.attribute, n.attribute);
        assert_eq!(decoded.scalar, n.scalar);
        assert_eq!(decoded.default_left, n.default_left);
    }

    #[test]
    fn encode_writes_exact_sizes_for_every_width_and_mode() {
        // The device-image layout and `DeviceMemory` accounting both trust
        // `encoded_bytes`; a node that writes more or fewer bytes would
        // silently shift every simulated node address after it.
        for attr in [AttrWidth::U8, AttrWidth::U16, AttrWidth::U32] {
            for explicit in [false, true] {
                let want = DeviceNode::encoded_bytes(attr, explicit);
                let mut buf = Vec::new();
                decision().encode(attr, explicit, &mut buf);
                assert_eq!(buf.len(), want, "encode {attr:?} explicit={explicit}");
                let mut null = Vec::new();
                DeviceNode::encode_null(attr, explicit, &mut null);
                assert_eq!(null.len(), want, "encode_null {attr:?} explicit={explicit}");
                assert!(DeviceNode::decode(attr, explicit, &mut null.as_slice()).is_none());
            }
        }
    }

    #[test]
    fn null_roundtrip() {
        let mut buf = Vec::new();
        DeviceNode::encode_null(AttrWidth::U8, true, &mut buf);
        assert_eq!(buf.len(), DeviceNode::encoded_bytes(AttrWidth::U8, true));
        assert!(DeviceNode::decode(AttrWidth::U8, true, &mut buf.as_slice()).is_none());
    }

    #[test]
    fn routing_without_inversion() {
        let n = decision();
        assert_eq!(n.next_slot(1.0), Some(10)); // 1.0 < 1.5 → left.
        assert_eq!(n.next_slot(2.0), Some(20));
        assert_eq!(n.next_slot(f32::NAN), Some(10)); // Default left.
    }

    #[test]
    fn routing_with_inversion_flips_comparison() {
        let mut n = decision();
        n.inverted = true;
        // With inversion, the layout-left child holds the "value >= threshold"
        // branch.
        assert_eq!(n.next_slot(1.0), Some(20));
        assert_eq!(n.next_slot(2.0), Some(10));
        // Default direction is already stored in layout orientation.
        assert_eq!(n.next_slot(f32::NAN), Some(10));
    }

    #[test]
    fn leaf_routes_nowhere() {
        let l = DeviceNode::leaf(2.5);
        assert_eq!(l.next_slot(0.0), None);
        assert!(l.leaf);
        let mut buf = Vec::new();
        l.encode(AttrWidth::U8, true, &mut buf);
        let d = DeviceNode::decode(AttrWidth::U8, true, &mut buf.as_slice()).unwrap();
        assert!(d.leaf);
        assert_eq!(d.scalar, 2.5);
    }
}
