//! Weighted SimHash checksums (paper §4.2, "Applying SimHash").
//!
//! Each token is hashed to `L_hash` bits; each bit contributes `+weight` or
//! `-weight` to the corresponding checksum component, where the weight is the
//! node probability of the token's last node ("Adding this weight is
//! necessary to increase the effectiveness of LSH", §4.2). The checksum is
//! then normalized to a bit vector for the LSH stage, packed 64 bits to a
//! word so that comparing two checksums is XOR + popcount.

use super::sha1::hash_bits;
use super::tokenize::Token;

/// A normalized SimHash checksum, packed 64 bits to a word: bit `i` is
/// `(words[i / 64] >> (i % 64)) & 1`, and the bits past `len` are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checksum {
    len: usize,
    words: Vec<u64>,
}

impl Checksum {
    /// Packs a bit sequence.
    #[must_use]
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        let mut checksum = Self::default();
        for bit in bits {
            if checksum.len % 64 == 0 {
                checksum.words.push(0);
            }
            // SimHash bits are random: OR them in rather than branch.
            checksum.words[checksum.len / 64] |= u64::from(bit) << (checksum.len % 64);
            checksum.len += 1;
        }
        checksum
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the checksum has no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// The running weighted SimHash sums of one token stream, with the scratch
/// its hashing reuses, so adding a token allocates nothing.
#[derive(Clone, Debug)]
pub struct Accumulator {
    l_hash: usize,
    /// One lane per hash bit, padded to whole words; the padding lanes see
    /// only zero bits and are never read.
    lanes: Vec<f32>,
    bits: Vec<u64>,
}

impl Accumulator {
    /// All-zero sums of `l_hash` components.
    #[must_use]
    pub fn new(l_hash: usize) -> Self {
        let words = l_hash.div_ceil(64);
        Self {
            l_hash,
            lanes: vec![0.0; words * 64],
            bits: vec![0; words],
        }
    }

    /// Hashes one token and adds `+weight` to each component whose hash bit
    /// is 1 and `-weight` to each whose bit is 0.
    pub fn add(&mut self, bytes: &[u8], weight: f32) {
        /// Lane `i` of a half-word tests bit `i`.
        const LANE_BITS: [u32; 32] = {
            let mut bits = [0; 32];
            let mut i = 0;
            while i < 32 {
                bits[i] = 1 << i;
                i += 1;
            }
            bits
        };
        hash_bits(bytes, self.l_hash, &mut self.bits);
        // Negation only flips the sign bit, so setting it where the hash bit
        // is 0 adds exactly `-weight`, with no branch on a random bit. Each
        // lane tests its bit against a constant mask, 32 lanes per half-word,
        // which vectorizes.
        let weight = weight.to_bits();
        for (lanes, &word) in self.lanes.chunks_exact_mut(64).zip(&self.bits) {
            for (half, lanes) in lanes.chunks_exact_mut(32).enumerate() {
                let bits = (word >> (32 * half)) as u32;
                for (sum, &bit) in lanes.iter_mut().zip(&LANE_BITS) {
                    let sign = u32::from(bits & bit == 0) << 31;
                    *sum += f32::from_bits(weight ^ sign);
                }
            }
        }
    }

    /// The accumulated sums, one per hash bit.
    #[must_use]
    pub fn sums(&self) -> &[f32] {
        &self.lanes[..self.l_hash]
    }
}

/// Accumulates the weighted SimHash checksum of a token set, in order.
#[must_use]
pub fn simhash(tokens: &[Token], l_hash: usize) -> Vec<f32> {
    let mut acc = Accumulator::new(l_hash);
    for token in tokens {
        acc.add(&token.bytes, token.weight);
    }
    acc.sums().to_vec()
}

/// Normalizes a checksum to bits: `>= 0 → 1`, `< 0 → 0` (paper §4.2,
/// "Applying LSH", representation normalization).
#[must_use]
pub fn normalize(checksum: &[f32]) -> Checksum {
    Checksum::from_bits(checksum.iter().map(|&v| v >= 0.0))
}

/// Hamming similarity between two normalized checksums (diagnostic).
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn hamming_similarity(a: &Checksum, b: &Checksum) -> f64 {
    assert_eq!(a.len(), b.len(), "checksum lengths differ");
    if a.is_empty() {
        return 1.0;
    }
    let differ: u32 = a
        .words
        .iter()
        .zip(&b.words)
        .map(|(x, y)| (x ^ y).count_ones())
        .sum();
    1.0 - f64::from(differ) / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token(bytes: &[u8], weight: f32) -> Token {
        Token {
            bytes: bytes.to_vec(),
            weight,
        }
    }

    #[test]
    fn packing_round_trips_bits() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0 || i == 129).collect();
        let c = Checksum::from_bits(bits.iter().copied());
        assert_eq!(c.len(), 130);
        assert_eq!(c.words.len(), 3);
        assert_eq!((0..130).map(|i| c.bit(i)).collect::<Vec<_>>(), bits);
        // Bits past `len` stay zero, so XOR + popcount never counts them.
        assert_eq!(c.words[2] >> 2, 0);
    }

    #[test]
    fn empty_token_set_gives_zero_checksum() {
        let c = simhash(&[], 16);
        assert_eq!(c, vec![0.0; 16]);
        // Zero normalizes to all-ones (>= 0).
        assert_eq!(normalize(&c), Checksum::from_bits([true; 16]));
    }

    #[test]
    fn identical_token_sets_give_identical_checksums() {
        let t = vec![token(b"a", 0.5), token(b"b", 0.25)];
        assert_eq!(simhash(&t, 64), simhash(&t, 64));
    }

    #[test]
    fn single_token_checksum_has_weight_magnitude() {
        let c = simhash(&[token(b"x", 0.75)], 32);
        assert!(c.iter().all(|v| (v.abs() - 0.75).abs() < 1e-6));
    }

    #[test]
    fn similar_sets_are_closer_than_dissimilar() {
        // Sets sharing most tokens must have more similar checksums than
        // disjoint sets — the core SimHash property.
        let base: Vec<Token> = (0..40)
            .map(|i| token(format!("t{i}").as_bytes(), 1.0))
            .collect();
        let mut near = base.clone();
        near[0] = token(b"mutated", 1.0);
        let far: Vec<Token> = (0..40)
            .map(|i| token(format!("u{i}").as_bytes(), 1.0))
            .collect();
        let l = 128;
        let nb = normalize(&simhash(&base, l));
        let nn = normalize(&simhash(&near, l));
        let nf = normalize(&simhash(&far, l));
        let sim_near = hamming_similarity(&nb, &nn);
        let sim_far = hamming_similarity(&nb, &nf);
        assert!(
            sim_near > sim_far + 0.1,
            "near {sim_near} not clearly above far {sim_far}"
        );
    }

    #[test]
    fn weights_bias_the_checksum() {
        // A heavy token should dominate a light conflicting one.
        let heavy = token(b"heavy", 10.0);
        let light = token(b"light", 0.1);
        let c = simhash(&[heavy.clone(), light], 64);
        let heavy_only = simhash(&[heavy], 64);
        let nc = normalize(&c);
        let nh = normalize(&heavy_only);
        assert_eq!(nc, nh);
    }

    #[test]
    fn hamming_similarity_bounds() {
        let a = Checksum::from_bits([true, false, true]);
        assert!((hamming_similarity(&a, &a) - 1.0).abs() < 1e-12);
        let b = Checksum::from_bits([false, true, false]);
        assert!(hamming_similarity(&a, &b).abs() < 1e-12);
    }
}
