//! Locality-sensitive hashing over normalized checksums (paper §4.2,
//! "Applying LSH").
//!
//! Each normalized checksum is divided into `M` chunks. Two trees are
//! counted as similar once per chunk in which their checksums agree; the
//! collision counts drive the tree ordering.
//!
//! The paper hashes each chunk (Rabin–Karp) into buckets and counts the
//! pairs that share a bucket. A bucket collision between two chunks of equal
//! length means chunk equality, so this module counts equal chunks directly:
//! every checksum is laid out with one chunk per power-of-two bit slot, and a
//! pair's differing chunks are the nonzero slots of the XOR of their words,
//! found with an OR-fold and a popcount. That fills a dense `N × N` matrix in
//! `O(N² · L / 64)` word operations, where bucketing performed up to `O(N²)`
//! hash-map updates per chunk.

use super::simhash::Checksum;

/// Symmetric pairwise collision counts of `n` trees, stored dense and
/// row-major; the diagonal is zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollisionMatrix {
    n: usize,
    counts: Vec<u32>,
}

impl CollisionMatrix {
    /// An all-zero matrix over `n` trees.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Number of trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.n
    }

    /// Collision count of the unordered pair `(a, b)`.
    #[must_use]
    pub fn get(&self, a: usize, b: usize) -> u32 {
        self.counts[a * self.n + b]
    }

    /// Sets the count of the unordered pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (a tree does not collide with itself) or either
    /// index is out of range.
    pub fn set(&mut self, a: usize, b: usize, count: u32) {
        assert_ne!(a, b, "the diagonal stays zero");
        self.counts[a * self.n + b] = count;
        self.counts[b * self.n + a] = count;
    }

    /// Counts of tree `a` against every tree (`row(a)[b] == get(a, b)`).
    #[must_use]
    pub fn row(&self, a: usize) -> &[u32] {
        &self.counts[a * self.n..(a + 1) * self.n]
    }

    /// Whether no pair collides.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

/// Where each chunk sits in a tree's slotted words: chunk `c` occupies bits
/// `[c · slot_bits, c · slot_bits + chunk_len)`, and the rest of its slot is
/// zero. Slots are a power of two wide, so below 64 bits they tile a word
/// and above it they span whole words.
struct ChunkLayout {
    chunk_len: usize,
    n_chunks: usize,
    slot_bits: usize,
    /// Bit 0 of every slot within a word (used when `slot_bits < 64`).
    slot_starts: u64,
}

impl ChunkLayout {
    fn new(l: usize, m_chunks: usize) -> Self {
        let chunk_len = (l / m_chunks).max(1);
        let slot_bits = chunk_len.next_power_of_two();
        let slot_starts = (0..64)
            .step_by(slot_bits.min(64))
            .fold(0u64, |m, i| m | 1 << i);
        Self {
            chunk_len,
            n_chunks: l / chunk_len,
            slot_bits,
            slot_starts,
        }
    }

    fn words(&self) -> usize {
        (self.n_chunks * self.slot_bits).div_ceil(64)
    }

    /// Copies the checksum's chunks into their slots (trailing bits that
    /// fill no whole chunk are dropped, as the chunking drops them).
    fn slot_into(&self, checksum: &Checksum, out: &mut [u64]) {
        for chunk in 0..self.n_chunks {
            for j in 0..self.chunk_len {
                if checksum.bit(chunk * self.chunk_len + j) {
                    let pos = chunk * self.slot_bits + j;
                    out[pos / 64] |= 1 << (pos % 64);
                }
            }
        }
    }

    /// Number of chunks in which two slotted checksums differ.
    fn differing(&self, a: &[u64], b: &[u64]) -> u32 {
        if self.slot_bits >= 64 {
            let per_slot = self.slot_bits / 64;
            let differ = a
                .chunks_exact(per_slot)
                .zip(b.chunks_exact(per_slot))
                .filter(|(x, y)| x != y);
            return differ.count() as u32;
        }
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                // OR every slot's bits down into its lowest bit.
                let mut d = x ^ y;
                let mut shift = 1;
                while shift < self.slot_bits {
                    d |= d >> shift;
                    shift <<= 1;
                }
                (d & self.slot_starts).count_ones()
            })
            .sum()
    }
}

/// Counts chunk collisions between all trees.
///
/// # Panics
///
/// Panics if checksums have differing lengths or `m_chunks` is zero.
#[must_use]
pub fn count_collisions(checksums: &[Checksum], m_chunks: usize) -> CollisionMatrix {
    assert!(m_chunks > 0, "need at least one chunk");
    let n = checksums.len();
    let mut counts = CollisionMatrix::new(n);
    let Some(first) = checksums.first() else {
        return counts;
    };
    for c in checksums {
        assert_eq!(c.len(), first.len(), "checksum lengths differ");
    }
    let layout = ChunkLayout::new(first.len(), m_chunks);
    let w = layout.words();
    let mut slotted = vec![0u64; n * w];
    for (checksum, out) in checksums.iter().zip(slotted.chunks_exact_mut(w.max(1))) {
        layout.slot_into(checksum, out);
    }
    let n_chunks = layout.n_chunks as u32;
    for a in 0..n {
        let sa = &slotted[a * w..(a + 1) * w];
        for b in a + 1..n {
            let differ = layout.differing(sa, &slotted[b * w..(b + 1) * w]);
            counts.set(a, b, n_chunks - differ);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn packed(bits: &[bool]) -> Checksum {
        Checksum::from_bits(bits.iter().copied())
    }

    /// The paper's formulation: Rabin–Karp hash every chunk into a bucket
    /// and count, per chunk, every pair that shares a bucket.
    fn bucket_counts(checksums: &[Vec<bool>], m_chunks: usize) -> HashMap<(usize, usize), u32> {
        fn rabin_karp(bits: &[bool]) -> u64 {
            bits.iter().fold(0xCBF2_9CE4_8422_2325, |h: u64, &b| {
                h.wrapping_mul(1_000_003).wrapping_add(u64::from(b) + 1)
            })
        }
        let l = checksums[0].len();
        let chunk_len = (l / m_chunks).max(1);
        let mut counts = HashMap::new();
        for chunk in 0..l / chunk_len {
            let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
            for (tree, c) in checksums.iter().enumerate() {
                let h = rabin_karp(&c[chunk * chunk_len..(chunk + 1) * chunk_len]);
                buckets.entry(h).or_default().push(tree);
            }
            for members in buckets.values() {
                for (i, &a) in members.iter().enumerate() {
                    for &b in &members[i + 1..] {
                        *counts.entry((a, b)).or_insert(0) += 1;
                    }
                }
            }
        }
        counts
    }

    #[test]
    fn identical_checksums_collide_in_every_chunk() {
        let c = vec![packed(&[true; 16]), packed(&[true; 16])];
        let counts = count_collisions(&c, 4);
        assert_eq!(counts.get(0, 1), 4);
    }

    #[test]
    fn disjoint_checksums_do_not_collide() {
        let c = vec![packed(&[true; 16]), packed(&[false; 16])];
        let counts = count_collisions(&c, 4);
        assert_eq!(counts.get(0, 1), 0);
        assert!(counts.is_empty());
    }

    #[test]
    fn partial_similarity_counts_matching_chunks() {
        // First half equal, second half different → 2 of 4 chunks collide.
        let mut a = vec![true; 16];
        let b = a.clone();
        a[8..].iter_mut().for_each(|v| *v = false);
        let counts = count_collisions(&[packed(&a), packed(&b)], 4);
        assert_eq!(counts.get(0, 1), 2);
    }

    #[test]
    fn more_similar_pairs_count_higher() {
        let base = vec![true; 32];
        let mut near = base.clone();
        near[0] = false; // One chunk disturbed.
        let mut far = base.clone();
        for (i, v) in far.iter_mut().enumerate() {
            *v = i % 2 == 0;
        }
        let counts = count_collisions(&[packed(&base), packed(&near), packed(&far)], 8);
        assert!(counts.get(0, 1) > counts.get(0, 2));
    }

    #[test]
    fn counts_are_symmetric_with_a_zero_diagonal() {
        let c = vec![packed(&[true; 8]), packed(&[true; 8])];
        let counts = count_collisions(&c, 2);
        assert_eq!(counts.get(0, 1), counts.get(1, 0));
        assert_eq!(counts.row(0), &[0, 2]);
    }

    #[test]
    fn empty_input_is_empty() {
        assert_eq!(count_collisions(&[], 4).n_trees(), 0);
    }

    #[test]
    fn dense_counts_match_bucket_hashing() {
        // Chunk widths 1, 2, 3, 5 (slots of 1, 2, 4, 8 bits), 64 and 100
        // (whole-word slots), and trailing bits that fill no chunk.
        let shapes = [
            (128, 64),
            (128, 128),
            (128, 43),
            (128, 25),
            (130, 64),
            (128, 2),
            (200, 2),
            (128, 1),
        ];
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        for (l, m) in shapes {
            // Few distinct bit patterns, so that many chunks collide.
            let bits: Vec<Vec<bool>> = (0..24)
                .map(|_| {
                    z = z
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let family = z >> 62;
                    (0..l)
                        .map(|i| (i as u64 * 7 + family * 13 + (z >> 40) % 3) % 5 < 2)
                        .collect()
                })
                .collect();
            let dense = count_collisions(&bits.iter().map(|b| packed(b)).collect::<Vec<_>>(), m);
            let reference = bucket_counts(&bits, m);
            for a in 0..bits.len() {
                for b in a + 1..bits.len() {
                    let expected = reference.get(&(a, b)).copied().unwrap_or(0);
                    assert_eq!(dense.get(a, b), expected, "l {l} m {m} pair ({a}, {b})");
                }
            }
        }
    }
}
