//! CRC-32 (IEEE 802.3) checksum for compressed-blob integrity.
//!
//! Compressed data that crosses a WAN must be verifiable on arrival (Globus
//! checksums every transferred file). The blob format appends a CRC-32 of
//! everything before it; [`crate::format::CompressedBlob::verify`] checks it
//! before decompression touches the payload.

/// Slicing-by-8 lookup tables (IEEE polynomial, reflected: 0xEDB88320).
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so eight table loads advance the
/// state over eight input bytes at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
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

    /// Feeds bytes: eight at a time, then the tail byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
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
        self.state = crc;
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
