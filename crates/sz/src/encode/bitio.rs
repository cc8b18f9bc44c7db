//! Bit-granular reader and writer over byte buffers.
//!
//! Bits are packed most-significant-bit first within each byte, which keeps
//! canonical Huffman codes lexicographically ordered in the byte stream.
//!
//! Both ends run on a 64-bit shift accumulator and move whole 32-bit words:
//! the writer collects bits in the low end of a `u64` and spills four bytes
//! at a time; the reader keeps its look-ahead at the high end and loads four
//! bytes at a time, so a peek is one shift. Word invariant: `nbits < 32`
//! pending bits between writer calls, so a write of up to 32 bits always
//! fits; the reader refills once `have < 32`, so it holds at least 32
//! look-ahead bits — a whole longest Huffman code — wherever the input still
//! has a whole word. The byte layout is identical to the historical
//! bit-by-bit implementation.

use crate::error::SzError;

/// Low-`count` bit mask (`count <= 64`).
#[cfg(test)]
#[inline(always)]
fn mask(count: u32) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Append-only bit writer. The Huffman encoder flushes its own words, so
/// this is the test oracle its byte layout is checked against.
#[cfg(test)]
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned in the low `nbits` bits (< 32 between
    /// calls; bits above `nbits` are stale and shifted out on spill).
    acc: u64,
    nbits: u32,
}

#[cfg(test)]
impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with reserved capacity (in bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter { bytes: Vec::with_capacity(bytes), acc: 0, nbits: 0 }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.nbits as u64
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_code(bit as u64, 1);
    }

    /// Writes the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u8) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        let count = count as u32;
        if count > 32 {
            let hi = count - 32;
            self.write_code((value >> 32) & mask(hi), hi as u8);
            self.write_code(value & mask(32), 32);
        } else {
            self.write_code(value & mask(count), count as u8);
        }
    }

    /// [`BitWriter::write_bits`] for the entropy coder's inner loop: the
    /// caller guarantees `len <= 32` and `code < 2^len`, so nothing is
    /// asserted or masked.
    #[inline(always)]
    pub(crate) fn write_code(&mut self, code: u64, len: u8) {
        debug_assert!(len <= 32 && code >> len == 0);
        self.acc = (self.acc << len) | code;
        self.nbits += len as u32;
        if self.nbits >= 32 {
            self.nbits -= 32;
            self.bytes.extend_from_slice(&((self.acc >> self.nbits) as u32).to_be_bytes());
        }
    }

    /// Finishes writing, returning the packed bytes (zero-padded to a byte
    /// boundary).
    pub fn into_bytes(mut self) -> Vec<u8> {
        // Left-align the pending bits in a word; the truncating cast drops
        // the stale bits above them.
        let word = (self.acc << (32 - self.nbits)) as u32;
        self.bytes.extend_from_slice(&word.to_be_bytes()[..self.nbits.div_ceil(8) as usize]);
        self.bytes
    }
}

/// Sequential bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the accumulator.
    byte_pos: usize,
    /// Look-ahead bits, left-aligned: the next bit of the stream is bit 63,
    /// and everything below the top `have` bits is zero — so a peek past the
    /// end of the stream reads as zero padding, and peeking is one shift.
    acc: u64,
    have: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, byte_pos: 0, acc: 0, have: 0 }
    }

    /// Number of bits consumed so far.
    pub fn bit_pos(&self) -> u64 {
        self.byte_pos as u64 * 8 - self.have as u64
    }

    /// Tops the accumulator up once it holds fewer than 32 bits: one 32-bit
    /// word while the input has one, single bytes for the last three.
    #[inline(always)]
    fn refill(&mut self) {
        if self.have >= 32 {
            return;
        }
        if let Some(word) = self.bytes.get(self.byte_pos..self.byte_pos + 4) {
            self.acc |= (u32::from_be_bytes(word.try_into().expect("4 bytes")) as u64) << (32 - self.have);
            self.byte_pos += 4;
            self.have += 32;
        } else {
            for &b in &self.bytes[self.byte_pos..] {
                self.acc |= (b as u64) << (56 - self.have);
                self.have += 8;
            }
            self.byte_pos = self.bytes.len();
        }
    }

    /// Reads one bit.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] at end of input.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, SzError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `count` bits into the low bits of a `u64`, MSB first.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] if fewer than `count` bits remain.
    ///
    /// # Panics
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u64, SzError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if count > 32 {
            let a = self.read_bits(count - 32)?;
            let b = self.read_bits(32)?;
            return Ok((a << 32) | b);
        }
        let (bits, avail) = self.peek_bits(count);
        if avail < count as u32 {
            return Err(SzError::CorruptStream("bit stream exhausted".into()));
        }
        self.consume(count as u32);
        Ok(bits)
    }

    /// Peeks the next `count` bits (`count <= 32`) without consuming them,
    /// zero-padded past the end of the stream. Returns the bits (in the low
    /// `count` bits) plus how many of them are real.
    #[inline(always)]
    pub fn peek_bits(&mut self, count: u8) -> (u64, u32) {
        debug_assert!(count <= 32);
        self.refill();
        // `>> 1 >> (63 − count)` is `>> (64 − count)` without the overflow
        // at `count == 0`.
        (self.acc >> 1 >> (63 - count as u32), self.have.min(count as u32))
    }

    /// Consumes `count` bits previously observed via [`BitReader::peek_bits`]
    /// (`count` must not exceed the real-bit count peek returned).
    #[inline(always)]
    pub fn consume(&mut self, count: u32) {
        debug_assert!(count <= self.have && count <= 32);
        self.acc <<= count;
        self.have -= count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), pattern.len() as u64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn read_past_end_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn msb_first_packing() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1); // first bit lands in the MSB of byte 0
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn sixty_four_bit_values() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0);
    }

    /// Bit-by-bit model of the stream: the bits written so far, in order.
    #[derive(Default)]
    struct BitModel(Vec<bool>);

    impl BitModel {
        fn write(&mut self, value: u64, count: u8) {
            self.0.extend((0..count).rev().map(|i| (value >> i) & 1 == 1));
        }

        fn packed(&self) -> Vec<u8> {
            let mut bytes = vec![0u8; self.0.len().div_ceil(8)];
            for (i, _) in self.0.iter().enumerate().filter(|&(_, &b)| b) {
                bytes[i / 8] |= 1 << (7 - (i % 8));
            }
            bytes
        }
    }

    /// Pseudo-random `(value, count <= 64)` writes, `lead` single bits first
    /// so the schedule meets the 32-bit spill boundary at every alignment.
    fn schedule(seed: u64, lead: usize, len: usize) -> Vec<(u64, u8)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut writes: Vec<(u64, u8)> = (0..lead).map(|_| (next() >> 63, 1)).collect();
        writes.extend((0..len).map(|_| {
            let count = (next() >> 57) as u8 % 65;
            (next() & mask(count as u32), count)
        }));
        writes
    }

    #[test]
    fn writer_and_reader_match_the_bit_by_bit_model() {
        for lead in 0..64 {
            let writes = schedule(0x1234_5678_9abc_def0 ^ lead as u64, lead, 200);
            let mut w = BitWriter::new();
            let mut model = BitModel::default();
            for &(value, count) in &writes {
                // Garbage above `count` must be masked off by `write_bits`.
                w.write_bits(value | !mask(count as u32), count);
                model.write(value, count);
                assert_eq!(w.bit_len(), model.0.len() as u64);
            }
            let bytes = w.into_bytes();
            assert_eq!(bytes, model.packed(), "lead {lead}");

            let mut r = BitReader::new(&bytes);
            let mut pos = 0u64;
            for &(value, count) in &writes {
                assert_eq!(r.read_bits(count).unwrap(), value, "lead {lead} at bit {pos}");
                pos += count as u64;
                assert_eq!(r.bit_pos(), pos);
            }
        }
    }

    #[test]
    fn truncation_at_every_byte_is_an_error_never_a_wrong_value() {
        for lead in [0usize, 7, 31, 32, 33] {
            let writes = schedule(99 + lead as u64, lead, 40);
            let mut w = BitWriter::new();
            for &(value, count) in &writes {
                w.write_bits(value, count);
            }
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                let mut r = BitReader::new(&bytes[..cut]);
                let mut pos = 0usize;
                let mut failed = false;
                for &(value, count) in &writes {
                    match r.read_bits(count) {
                        Ok(got) => {
                            assert!(pos + count as usize <= cut * 8, "read past the cut at byte {cut}");
                            assert_eq!(got, value, "cut {cut} at bit {pos}");
                            pos += count as usize;
                        }
                        Err(e) => {
                            assert!(matches!(e, SzError::CorruptStream(_)));
                            assert!(pos + count as usize > cut * 8, "cut {cut}: {count} bits at {pos} were there");
                            failed = true;
                            break;
                        }
                    }
                }
                assert!(failed, "cut {cut} of {} went unnoticed", bytes.len());
            }
        }
    }

    #[test]
    fn peek_pads_with_zeros_at_every_distance_from_the_end() {
        let bytes = [0xFFu8; 9];
        for skip in 0..=72u32 {
            let mut r = BitReader::new(&bytes);
            for _ in 0..skip {
                r.read_bit().unwrap();
            }
            let left = 72 - skip;
            for count in 0..=32u8 {
                let real = left.min(count as u32);
                let want = (mask(real)) << (count as u32 - real);
                assert_eq!(r.peek_bits(count), (want, real), "skip {skip} count {count}");
            }
        }
    }

    #[test]
    fn peek_is_zero_padded_and_consume_advances() {
        let mut r = BitReader::new(&[0b1011_0000]);
        let (bits, avail) = r.peek_bits(4);
        assert_eq!((bits, avail), (0b1011, 4));
        r.consume(2);
        let (bits, avail) = r.peek_bits(12);
        assert_eq!(avail, 6, "only 6 real bits remain");
        assert_eq!(bits, 0b11_0000 << 6, "padded with zeros past the end");
        assert_eq!(r.bit_pos(), 2);
    }
}
