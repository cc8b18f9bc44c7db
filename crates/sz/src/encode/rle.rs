//! Zero-run-length coding for quantization-bin streams.
//!
//! At large error bounds almost every bin equals the zero-error code, so runs
//! of that symbol dominate. This coder replaces each run of the designated
//! *hot symbol* with an escape followed by a varint run length, leaving other
//! symbols untouched; the result is then typically Huffman-coded.

/// Encodes `symbols`, collapsing runs of `hot` (length ≥ 4) into
/// `[ESCAPE, run_lo, run_hi]` triples in a fresh symbol space.
///
/// The output symbol space is the input space shifted by 1 (so symbol `s`
/// becomes `s + 1`), reserving `0` as the run escape. Run lengths are split
/// into two 16-bit halves carried as symbols.
pub fn rle_encode(symbols: &[u32], hot: u32) -> Vec<u32> {
    const MIN_RUN: usize = 4;
    let mut out = Vec::with_capacity(symbols.len() / 2 + 8);
    let mut i = 0;
    while i < symbols.len() {
        let s = symbols[i];
        if s == hot {
            let mut j = i;
            while j < symbols.len() && symbols[j] == hot {
                j += 1;
            }
            let run = j - i;
            if run >= MIN_RUN {
                let run = run as u32;
                out.push(0); // escape
                out.push((run & 0xFFFF) + 1);
                out.push((run >> 16) + 1);
            } else {
                for _ in 0..run {
                    out.push(s + 1);
                }
            }
            i = j;
        } else {
            out.push(s + 1);
            i += 1;
        }
    }
    out
}

/// Decodes a stream produced by [`rle_encode`] with the same `hot` symbol,
/// into at most `max_len` symbols — what the caller's shape has room for: a
/// run is three symbols that can name four billion, so the stream alone
/// must not size the output.
///
/// Returns `None` if the stream is malformed (truncated escape sequence, a
/// zero where a shifted symbol is expected, a run half past 16 bits) or
/// decodes to more than `max_len` symbols.
pub fn rle_decode(encoded: &[u32], hot: u32, max_len: usize) -> Option<Vec<u32>> {
    let mut out = Vec::with_capacity((encoded.len() * 2).min(max_len));
    let mut i = 0;
    while i < encoded.len() {
        let s = encoded[i];
        if s == 0 {
            if i + 2 >= encoded.len() {
                return None;
            }
            let lo = encoded[i + 1].checked_sub(1)?;
            let hi = encoded[i + 2].checked_sub(1)?;
            if lo > 0xFFFF || hi > 0xFFFF {
                return None;
            }
            let run = ((hi << 16) | lo) as usize;
            if run > max_len - out.len() {
                return None;
            }
            out.resize(out.len() + run, hot);
            i += 3;
        } else {
            if out.len() == max_len {
                return None;
            }
            out.push(s - 1);
            i += 1;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed() {
        let hot = 32768u32;
        let mut syms = vec![hot; 100];
        syms.extend([1, 2, 3, hot, hot, 4]);
        syms.extend(vec![hot; 70000]); // run longer than 16 bits
        let enc = rle_encode(&syms, hot);
        assert_eq!(rle_decode(&enc, hot, syms.len()).unwrap(), syms);
        assert!(enc.len() < syms.len() / 10);
    }

    #[test]
    fn short_runs_are_left_inline() {
        let syms = vec![7u32, 7, 7, 1]; // run of 3 < MIN_RUN
        let enc = rle_encode(&syms, 7);
        assert_eq!(enc, vec![8, 8, 8, 2]);
        assert_eq!(rle_decode(&enc, 7, 4).unwrap(), syms);
    }

    #[test]
    fn empty_round_trip() {
        assert_eq!(rle_decode(&rle_encode(&[], 0), 0, 0).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn no_hot_symbols() {
        let syms = vec![1u32, 2, 3, 4, 5];
        let enc = rle_encode(&syms, 99);
        assert_eq!(rle_decode(&enc, 99, 5).unwrap(), syms);
    }

    #[test]
    fn truncated_escape_is_rejected() {
        let enc = vec![0u32, 5]; // escape missing its high half
        assert!(rle_decode(&enc, 1, 100).is_none());
    }

    #[test]
    fn invalid_zero_halves_rejected() {
        // Escape halves are stored +1, so a raw 0 half is invalid.
        assert!(rle_decode(&[0u32, 0, 1], 1, 100).is_none());
    }

    #[test]
    fn output_is_bounded_by_the_caller_not_by_the_stream() {
        // Three symbols that name a run of 2³² − 1, and a run half past 16
        // bits: refused, not allocated.
        assert!(rle_decode(&[0, 0x1_0000, 0x1_0000], 9, 1 << 20).is_none());
        assert!(rle_decode(&[0, 1, 0x1_0001], 9, usize::MAX).is_none());
        // One symbol more than there is room for, as a run and as a literal.
        let enc = rle_encode(&[9, 9, 9, 9, 9, 3], 9);
        assert_eq!(rle_decode(&enc, 9, 6).unwrap(), [9, 9, 9, 9, 9, 3]);
        assert!(rle_decode(&enc, 9, 5).is_none());
        assert!(rle_decode(&enc, 9, 4).is_none());
    }
}
