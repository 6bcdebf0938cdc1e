//! SHA-1 (FIPS 180-1), implemented from the specification.
//!
//! The paper's SimHash step hashes each token with SHA1 (§4.2, citing its
//! reference \[16\]).
//! SHA-1 is cryptographically broken but remains a perfectly good mixing
//! function for similarity hashing; we implement it from scratch rather than
//! pulling a crypto dependency.

/// SHA-1 digest of `data` (20 bytes).
#[must_use]
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (bytes, word) in out.chunks_exact_mut(4).zip(Prefix::new(data).digest(&[])) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// A message whose whole 64-byte blocks are already folded into the state,
/// so digesting `data || suffix` for several short suffixes compresses only
/// the last one or two blocks each time, padded in place on the stack.
struct Prefix<'a> {
    h: [u32; 5],
    /// The bytes after the last whole block (fewer than 64).
    tail: &'a [u8],
    len: u64,
}

impl<'a> Prefix<'a> {
    fn new(data: &'a [u8]) -> Self {
        let mut h = [
            0x6745_2301,
            0xEFCD_AB89,
            0x98BA_DCFE,
            0x1032_5476,
            0xC3D2_E1F0,
        ];
        let blocks = data.chunks_exact(64);
        let tail = blocks.remainder();
        for block in blocks {
            compress(&mut h, block.try_into().expect("64-byte block"));
        }
        Self {
            h,
            tail,
            len: data.len() as u64,
        }
    }

    /// The digest of the prefix followed by `suffix` (at most 8 bytes), as
    /// its five big-endian state words. Message padding: 0x80, zeros, then
    /// the 64-bit big-endian bit length, in one block when the tail, the
    /// suffix and the padding fit 64 bytes and in two otherwise.
    fn digest(&self, suffix: &[u8]) -> [u32; 5] {
        assert!(suffix.len() <= 8, "suffix of {} bytes", suffix.len());
        let mut buf = [0u8; 128];
        let n = self.tail.len() + suffix.len();
        buf[..self.tail.len()].copy_from_slice(self.tail);
        buf[self.tail.len()..n].copy_from_slice(suffix);
        buf[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        let bit_len = (self.len + suffix.len() as u64) * 8;
        buf[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        let mut h = self.h;
        for block in buf[..end].chunks_exact(64) {
            compress(&mut h, block.try_into().expect("64-byte block"));
        }
        h
    }
}

/// The SHA-1 compression function: folds one 64-byte block into `h`.
fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let mut s = *h;
    // One loop per 20-round stage, so the round function is not re-selected
    // on every round.
    for &wi in &w[..20] {
        let f = (s[1] & s[2]) | (!s[1] & s[3]);
        round(&mut s, f, 0x5A82_7999, wi);
    }
    for &wi in &w[20..40] {
        let f = s[1] ^ s[2] ^ s[3];
        round(&mut s, f, 0x6ED9_EBA1, wi);
    }
    for &wi in &w[40..60] {
        let f = (s[1] & s[2]) | (s[1] & s[3]) | (s[2] & s[3]);
        round(&mut s, f, 0x8F1B_BCDC, wi);
    }
    for &wi in &w[60..] {
        let f = s[1] ^ s[2] ^ s[3];
        round(&mut s, f, 0xCA62_C1D6, wi);
    }
    for (hi, si) in h.iter_mut().zip(s) {
        *hi = hi.wrapping_add(si);
    }
}

/// One SHA-1 round on the working state `[a, b, c, d, e]`.
#[inline(always)]
fn round(s: &mut [u32; 5], f: u32, k: u32, wi: u32) {
    let temp = s[0]
        .rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(s[4])
        .wrapping_add(k)
        .wrapping_add(wi);
    *s = [temp, s[0], s[1].rotate_left(30), s[2], s[3]];
}

/// Expands `data` into `n_bits` hash bits using SHA-1 in counter mode,
/// packed 64 bits to a word into `out` (bit `i` is
/// `(out[i / 64] >> (i % 64)) & 1`; bits past `n_bits` are zero).
///
/// Block `i` contributes `sha1(data || i_le)`, read most-significant bit of
/// each digest byte first; blocks are concatenated and truncated to
/// `n_bits`. The paper's `L_hash` is 128, which one block covers; counter
/// mode keeps the function total for any length. The whole blocks of `data`
/// are compressed once and shared by every counter, and nothing is
/// allocated.
///
/// # Panics
///
/// Panics if `out` is not `n_bits.div_ceil(64)` words long.
pub fn hash_bits(data: &[u8], n_bits: usize, out: &mut [u64]) {
    let words = out.len();
    assert_eq!(words, n_bits.div_ceil(64), "{n_bits} bits into {words} words");
    out.fill(0);
    let prefix = Prefix::new(data);
    let mut bit = 0usize;
    let mut counter = 0u32;
    while bit < n_bits {
        for word in prefix.digest(&counter.to_le_bytes()) {
            // Reversing a big-endian state word puts the most significant bit
            // of its first digest byte first. Words fill 32-bit halves, so
            // none straddles two output words.
            let take = (n_bits - bit).min(32);
            if take == 0 {
                break;
            }
            out[bit / 64] |= (u64::from(word.reverse_bits()) & ((1 << take) - 1)) << (bit % 64);
            bit += take;
        }
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8; 20]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn hash_bits(data: &[u8], n_bits: usize) -> Vec<u64> {
        let mut words = vec![0u64; n_bits.div_ceil(64)];
        super::hash_bits(data, n_bits, &mut words);
        words
    }

    #[test]
    fn fips_test_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_test_vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_test_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn long_input_crosses_block_boundary() {
        // 64-byte input forces the padding into a second block.
        let input = vec![b'a'; 64];
        assert_eq!(
            hex(&sha1(&input)),
            "0098ba824b5c16427bd7a1122a5a442a25ec644d"
        );
    }

    #[test]
    fn digests_match_reference_vectors_at_block_edges() {
        // Messages `0, 1, 2, ...` whose padding fits one block (55), spills
        // into a second (56, 63), or follows whole blocks (64 and beyond).
        for (len, expected) in [
            (55, "8ae2d46729cfe68ff927af5eec9c7d1b66d65ac2"),
            (56, "636e2ec698dac903498e648bd2f3af641d3c88cb"),
            (63, "6d942da0c4392b123528f2905c713a3ce28364bd"),
            (64, "c6138d514ffa2135bfce0ed0b8fac65669917ec7"),
            (65, "69bd728ad6e13cd76ff19751fde427b00e395746"),
            (119, "41c89d06001bab4ab78736b44efe7ce18ce6ae08"),
            (120, "d3dbd653bd8597b7475321b60a36891278e6a04a"),
            (128, "e6434bc401f98603d7eda504790c98c67385d535"),
        ] {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(hex(&sha1(&data)), expected, "length {len}");
        }
    }

    #[test]
    fn hash_bits_is_deterministic_and_sized() {
        let a = hash_bits(b"token", 128);
        let b = hash_bits(b"token", 128);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_ne!(a, hash_bits(b"token2", 128));
    }

    #[test]
    fn hash_bits_read_the_digest_msb_first() {
        // Bit i of the stream is bit (7 - i % 8) of digest byte i / 8.
        let digest = sha1(&[b"abc".as_slice(), &0u32.to_le_bytes()].concat());
        let words = hash_bits(b"abc", 160);
        for i in 0..160 {
            let expected = (digest[i / 8] >> (7 - i % 8)) & 1 == 1;
            assert_eq!((words[i / 64] >> (i % 64)) & 1 == 1, expected, "bit {i}");
        }
        // Bits past n_bits stay zero.
        assert_eq!(hash_bits(b"abc", 5)[0] >> 5, 0);
    }

    #[test]
    fn prefix_digest_matches_one_shot_at_every_split() {
        // A prefix of every length around the block and padding edges, with
        // every suffix length up to 8 bytes, digests as the whole message.
        let data: Vec<u8> = (0..150u8).collect();
        for len in [0, 1, 47, 51, 52, 55, 56, 60, 63, 64, 65, 119, 127, 128, 142] {
            for suffix in 0..=8 {
                let whole = sha1(&data[..len + suffix]);
                let split = Prefix::new(&data[..len]).digest(&data[len..len + suffix]);
                let split: Vec<u8> = split.iter().flat_map(|w| w.to_be_bytes()).collect();
                assert_eq!(split, whole, "prefix {len} suffix {suffix}");
            }
        }
    }

    #[test]
    fn hash_bits_overwrites_the_caller_buffer() {
        let mut words = vec![u64::MAX; 4];
        super::hash_bits(b"token", 200, &mut words);
        assert_eq!(words, hash_bits(b"token", 200));
        assert_eq!(words[3] >> 8, 0, "bits past n_bits are zero");
    }

    #[test]
    fn hash_bits_extends_beyond_one_digest() {
        let words = hash_bits(b"x", 400);
        assert_eq!(words.len(), 7);
        // The first 160 bits must differ from the next 160 (different
        // counter blocks).
        let bit = |i: usize| (words[i / 64] >> (i % 64)) & 1;
        assert!((0..160).any(|i| bit(i) != bit(160 + i)));
    }

    #[test]
    fn hash_bits_are_balanced() {
        let ones: u32 = hash_bits(b"balance-check", 1600)
            .iter()
            .map(|w| w.count_ones())
            .sum();
        assert!((600..=1000).contains(&ones), "ones {ones} far from half");
    }
}
