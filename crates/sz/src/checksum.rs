//! CRC-32 (IEEE 802.3) checksum for compressed-blob integrity.
//!
//! Compressed data that crosses a WAN must be verifiable on arrival (Globus
//! checksums every transferred file). The blob format appends a CRC-32 of
//! everything before it; [`crate::format::CompressedBlob::verify`] checks it
//! before decompression touches the payload.
//!
//! The kernel is portable table-driven slicing-by-16, its lookups XORed as
//! a tree with the state's four last: 2.2–2.7 GB/s on a 2-vCPU Xeon against
//! slicing-by-8's 1.1, which stays behind as the test oracle. Every byte of
//! a blob passes it three times, not four: the chunk CRC on the worker that
//! encoded it, `from_bytes`'s verify and the chunk CRC when the chunk is
//! decoded. The writer's trailer is not a fourth pass — it is
//! [`crc32_combine`]d from the header bytes and the CRCs the chunks already
//! carry.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so sixteen independent table loads advance the state over sixteen input
/// bytes at once.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Computes the CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b`'s length, in
/// `O(log len_b)` (zlib's `crc32_combine`): `crc(a)` is advanced over
/// `len_b` zero bytes by multiplying by `x^(8·len_b)` modulo the polynomial,
/// and the CRC of `b` is added on.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    multiply_mod_poly(x_to_8n_mod_poly(len_b as u64), crc_a) ^ crc_b
}

/// `a · b` modulo the polynomial, both reflected (bit 31 is `x⁰`).
const fn multiply_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X_POW_2K[k]` is `x^(2^k)` modulo the polynomial, reflected. The powers
/// repeat with period 32 (`x^(2^32)` is `x` again), so 32 entries cover every
/// `k`.
static X_POW_2K: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multiply_mod_poly(p, p);
        k += 1;
    }
    table
};

/// `x^(8·n)` modulo the polynomial, by square-and-multiply over the bits of
/// `n`.
fn x_to_8n_mod_poly(mut n: u64) -> u32 {
    let mut product = 1u32 << 31; // x⁰
    let mut k = 3; // 8·n: start at x^(2³)
    while n != 0 {
        if n & 1 != 0 {
            product = multiply_mod_poly(X_POW_2K[k & 31], product);
        }
        n >>= 1;
        k += 1;
    }
    product
}

/// Incremental CRC-32 state, for hashing data produced in chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a new computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes: sixteen at a time, then the tail byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // The twelve lookups the state does not feed first, XORed as a
            // tree: only the last four lookups and two XORs wait on the
            // previous block, not a chain of sixteen XORs.
            let t = |k: usize, byte: u8| TABLES[k][byte as usize];
            let rest = ((t(11, b[4]) ^ t(10, b[5])) ^ (t(9, b[6]) ^ t(8, b[7])))
                ^ ((t(7, b[8]) ^ t(6, b[9])) ^ (t(5, b[10]) ^ t(4, b[11])))
                ^ ((t(3, b[12]) ^ t(2, b[13])) ^ (t(1, b[14]) ^ t(0, b[15])));
            let [a0, a1, a2, a3] = (u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ crc).to_le_bytes();
            crc = rest ^ ((t(15, a0) ^ t(14, a1)) ^ (t(13, a2) ^ t(12, a3)));
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Feeds `len` bytes whose CRC-32 is `crc` without reading them: the
    /// state becomes the one [`Crc32::update`] would have left.
    pub fn combine(&mut self, crc: u32, len: usize) {
        self.state = !crc32_combine(!self.state, crc, len);
    }

    /// Finishes, returning the checksum.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_test_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time loop slicing-by-8 replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc_matches_bytewise_at_every_length_and_split() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for len in 0..data.len() {
            let want = crc32_bytewise(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "len {len}");
            // Misaligned starts and a split that leaves both halves a tail.
            assert_eq!(crc32(&data[len..]), crc32_bytewise(&data[len..]), "offset {len}");
            let mut inc = Crc32::new();
            inc.update(&data[..len / 3]);
            inc.update(&data[len / 3..len]);
            assert_eq!(inc.finish(), want, "split at {} of {len}", len / 3);
        }
    }

    /// The slicing-by-8 loop slicing-by-16 replaced, kept verbatim (its
    /// eight tables are the first eight of the sixteen).
    fn crc32_sliced8(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced16_crc_matches_slicing_by_8_at_every_length_and_alignment() {
        let data = noise(4096 + 16, 0x9e37_79b9_7f4a_7c15);
        for offset in 0..16 {
            for len in 0..=4096 {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_sliced8(bytes), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn crc32_combine_matches_one_pass_over_the_concatenation() {
        let data = noise(1 << 16, 0x2545_f491_4f6c_dd1d);
        let mut state = 7u64;
        let mut next = |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut cases = vec![(0, 0), (0, 1), (1, 0), (5, (1 << 16) - 5), (1 << 15, 1 << 15)];
        cases.extend((0..300).map(|_| {
            let a = next(1 << 16);
            (a, next((1 << 16) - a + 1))
        }));
        for (len_a, len_b) in cases {
            let (a, b) = (&data[..len_a], &data[len_a..len_a + len_b]);
            assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&data[..len_a + len_b]), "{len_a} + {len_b}");
            let mut inc = Crc32::new();
            inc.update(a);
            inc.combine(crc32(b), b.len());
            assert_eq!(inc.finish(), crc32(&data[..len_a + len_b]), "{len_a} + {len_b} folded into a state");
        }
        // Lengths past what a test can hash: combining is associative, so
        // `a ‖ (z ‖ z)` equals `(a ‖ z) ‖ z` for a long run `z` of zeros.
        let zeros = vec![0u8; 1 << 12];
        let z = crc32(&zeros);
        let mut zz = (z, zeros.len());
        for _ in 0..30 {
            let a = crc32(&data[..100]);
            let whole = crc32_combine(a, crc32_combine(zz.0, zz.0, zz.1), 2 * zz.1);
            assert_eq!(whole, crc32_combine(crc32_combine(a, zz.0, zz.1), zz.0, zz.1), "{} zero bytes", 2 * zz.1);
            zz = (crc32_combine(zz.0, zz.0, zz.1), 2 * zz.1);
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"hello cruel world of bit flips";
        let mut inc = Crc32::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7) as u8).collect();
        let base = crc32(&data);
        for byte in [0usize, 511, 1023] {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} went undetected");
            }
        }
    }
}
