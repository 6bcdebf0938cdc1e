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
    Sha1::new().update(data).finish()
}

/// Incremental SHA-1 over a fixed 64-byte block buffer, so hashing a token
/// (and its counter-mode suffix) never touches the heap.
#[derive(Clone, Debug)]
struct Sha1 {
    h: [u32; 5],
    block: [u8; 64],
    block_len: usize,
    total_len: u64,
}

impl Sha1 {
    fn new() -> Self {
        Self {
            h: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            block: [0; 64],
            block_len: 0,
            total_len: 0,
        }
    }

    fn update(mut self, mut data: &[u8]) -> Self {
        self.total_len += data.len() as u64;
        while !data.is_empty() {
            let take = (64 - self.block_len).min(data.len());
            self.block[self.block_len..self.block_len + take].copy_from_slice(&data[..take]);
            self.block_len += take;
            data = &data[take..];
            if self.block_len == 64 {
                compress(&mut self.h, &self.block);
                self.block_len = 0;
            }
        }
        self
    }

    fn finish(mut self) -> [u8; 20] {
        // Message padding: 0x80, zeros, 64-bit big-endian bit length.
        let bit_len = self.total_len * 8;
        self.block[self.block_len] = 0x80;
        self.block[self.block_len + 1..].fill(0);
        if self.block_len >= 56 {
            compress(&mut self.h, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &self.block);
        let mut out = [0u8; 20];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
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
/// packed 64 bits to a word (bit `i` is `(words[i / 64] >> (i % 64)) & 1`).
///
/// Block `i` contributes `sha1(data || i_le)`, read most-significant bit of
/// each digest byte first; blocks are concatenated and truncated to
/// `n_bits`. The paper's `L_hash` is 128, which one block covers; counter
/// mode keeps the function total for any length.
#[must_use]
pub fn hash_bits(data: &[u8], n_bits: usize) -> Vec<u64> {
    let mut words = vec![0u64; n_bits.div_ceil(64)];
    let mut bit = 0usize;
    let mut counter = 0u32;
    while bit < n_bits {
        let digest = Sha1::new()
            .update(data)
            .update(&counter.to_le_bytes())
            .finish();
        for byte in digest.into_iter().take((n_bits - bit).div_ceil(8)) {
            // Reversing the byte puts its most significant bit first. Bytes
            // start at multiples of 8 bits, so none straddles two words.
            let take = (n_bits - bit).min(8);
            words[bit / 64] |= (u64::from(byte.reverse_bits()) & ((1 << take) - 1)) << (bit % 64);
            bit += take;
        }
        counter += 1;
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8; 20]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
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
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..150u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 119, 150] {
            let streamed = Sha1::new()
                .update(&data[..split])
                .update(&data[split..])
                .finish();
            assert_eq!(streamed, sha1(&data), "split {split}");
        }
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
