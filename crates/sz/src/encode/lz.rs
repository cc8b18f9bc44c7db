//! Byte-oriented LZ77 dictionary coder with hash-chain match search.
//!
//! Plays the role Zstd plays in SZ3's pipeline: a fast dictionary pass over
//! the Huffman output that exploits repeated byte patterns (headers, aligned
//! runs, periodic structures). The format is LZ4-flavoured:
//!
//! ```text
//! token: literal_len (u8, 255-extension) | match_len (u8, 255-extension)
//!        literals… | match_dist (u16 LE)
//! ```
//!
//! A final block may have `match_len == 0` (no match, literals only).

use crate::error::SzError;

const MIN_MATCH: usize = 4;
const MAX_DIST: usize = 65535;
const HASH_BITS: u32 = 16;
/// Length of hash chains to walk; bounds worst-case compression time.
const MAX_CHAIN: usize = 32;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn write_len(out: &mut Vec<u8>, mut len: usize) {
    if len < 255 {
        out.push(len as u8);
        return;
    }
    out.push(255);
    len -= 255;
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

fn read_len(bytes: &[u8], pos: &mut usize) -> Result<usize, SzError> {
    let mut len = 0usize;
    loop {
        if *pos >= bytes.len() {
            return Err(SzError::CorruptStream("lz: truncated length".into()));
        }
        let b = bytes[*pos];
        *pos += 1;
        len += b as usize;
        if b != 255 {
            return Ok(len);
        }
    }
}

/// Slots of the `prev` ring: a power of two above [`MAX_DIST`], so a
/// candidate still inside the window never has its slot overwritten by a
/// newer position.
const RING: usize = 1 << 16;

/// Once positions pass `base` by this much, the chains are rebased.
const REBASE_AT: usize = 1 << 31;

/// Hash chains over the positions of the input: `head[h]` is the newest
/// position of hash `h`, `prev[p % RING]` the one before `p`. Positions are
/// stored as `p − base + 1` in 32 bits, `0` meaning none; `base` moves on
/// by half of [`REBASE_AT`] whenever positions outgrow it, which
/// only drops positions far outside the window.
struct Chains {
    head: Vec<u32>,
    prev: Vec<u32>,
    base: usize,
}

impl Chains {
    fn new() -> Self {
        Chains { head: vec![0; 1 << HASH_BITS], prev: vec![0; RING], base: 0 }
    }

    #[inline(always)]
    fn position(&self, stored: u32) -> Option<usize> {
        (stored != 0).then(|| self.base + stored as usize - 1)
    }

    /// The newest position of hash `h`.
    #[inline(always)]
    fn first(&self, h: usize) -> Option<usize> {
        self.position(self.head[h])
    }

    /// The position before `p` on its chain; `p` must lie inside the window
    /// of the newest position inserted.
    #[inline(always)]
    fn next(&self, p: usize) -> Option<usize> {
        self.position(self.prev[p % RING])
    }

    #[inline(always)]
    fn insert(&mut self, p: usize, h: usize) {
        if p - self.base >= REBASE_AT {
            self.rebase();
        }
        self.prev[p % RING] = self.head[h];
        self.head[h] = (p - self.base + 1) as u32;
    }

    /// Moves `base` on by half of [`REBASE_AT`]: positions more than that far
    /// behind are dropped (they lie far outside the window), the rest kept.
    #[cold]
    fn rebase(&mut self) {
        let shift = REBASE_AT / 2;
        for stored in self.head.iter_mut().chain(self.prev.iter_mut()) {
            *stored = stored.saturating_sub(shift as u32);
        }
        self.base += shift;
    }
}

/// How many leading bytes of `a` and `b` agree, up to the shorter of the two.
#[inline(always)]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let max = a.len().min(b.len());
    let mut l = 0;
    while l + 8 <= max {
        let x = u64::from_le_bytes(a[l..l + 8].try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(b[l..l + 8].try_into().expect("8 bytes"));
        if x != 0 {
            return l + x.trailing_zeros() as usize / 8;
        }
        l += 8;
    }
    l + a[l..max].iter().zip(&b[l..max]).take_while(|(x, y)| x == y).count()
}

/// Compresses `input` with LZ77. The output starts with the original length
/// (u64 LE) so decompression can pre-allocate and validate.
///
/// Each position walks its hash chain, newest candidate first, for at most
/// 32 candidates inside the window and keeps the first longest match. A
/// candidate that differs from the input at the best length found so far
/// cannot beat it and is not extended, and the walk ends once a match runs
/// to the end of the input.
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());

    let mut chains = Chains::new();
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let max_len = input.len() - i;
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = chains.first(h);
        let mut steps = 0;
        while let Some(c) = cand {
            let dist = i - c;
            if steps == MAX_CHAIN || dist > MAX_DIST {
                break;
            }
            if input[c + best_len] == input[i + best_len] {
                let l = common_prefix(&input[c..], &input[i..]);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == max_len {
                        break;
                    }
                }
            }
            cand = chains.next(c);
            steps += 1;
        }
        if best_len >= MIN_MATCH {
            // Emit (literals, match).
            write_len(&mut out, i - lit_start);
            write_len(&mut out, best_len);
            out.extend_from_slice(&input[lit_start..i]);
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            // Insert the covered positions into the chains.
            let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
            for j in i..end {
                chains.insert(j, hash4(&input[j..]));
            }
            i += best_len;
            lit_start = i;
        } else {
            chains.insert(i, h);
            i += 1;
        }
    }
    // Trailing literals with a zero match.
    write_len(&mut out, input.len() - lit_start);
    write_len(&mut out, 0);
    out.extend_from_slice(&input[lit_start..]);
    out
}

/// Decompresses a stream produced by [`lz_compress`].
///
/// # Errors
/// Returns [`SzError::CorruptStream`] on truncation, an out-of-range match
/// distance, or a length mismatch with the header.
pub fn lz_decompress(bytes: &[u8]) -> Result<Vec<u8>, SzError> {
    if bytes.len() < 8 {
        return Err(SzError::CorruptStream("lz: missing header".into()));
    }
    let expected = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
    // A corrupt header can claim an absurd size; cap the pre-allocation and
    // let the vector grow if a legitimate large stream needs it.
    let mut out = Vec::with_capacity(expected.min(1 << 24));
    let mut pos = 8usize;
    while out.len() < expected {
        let lit_len = read_len(bytes, &mut pos)?;
        let match_len = read_len(bytes, &mut pos)?;
        if pos + lit_len > bytes.len() {
            return Err(SzError::CorruptStream("lz: truncated literals".into()));
        }
        out.extend_from_slice(&bytes[pos..pos + lit_len]);
        pos += lit_len;
        if match_len > 0 {
            if pos + 2 > bytes.len() {
                return Err(SzError::CorruptStream("lz: truncated distance".into()));
            }
            let dist = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]) as usize;
            pos += 2;
            if dist == 0 || dist > out.len() {
                return Err(SzError::CorruptStream(format!("lz: invalid distance {dist} at offset {}", out.len())));
            }
            // Overlapping copy, byte by byte (runs rely on this).
            let start = out.len() - dist;
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
            }
        } else if lit_len == 0 {
            return Err(SzError::CorruptStream("lz: zero-progress block".into()));
        }
    }
    if out.len() != expected {
        return Err(SzError::CorruptStream(format!("lz: expected {expected} bytes, produced {}", out.len())));
    }
    Ok(out)
}

/// The match search with `usize` chains (`prev` one slot per input byte),
/// a byte-at-a-time match extension and a walk that always runs its chain
/// out, kept verbatim as the equality oracle for [`lz_compress`].
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn lz_compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());

        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; input.len()];

        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            // Walk the chain for the best match within the window.
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut cand = head[h];
            let mut steps = 0;
            while cand != usize::MAX && steps < MAX_CHAIN {
                let dist = i - cand;
                if dist > MAX_DIST {
                    break;
                }
                let max_len = input.len() - i;
                let mut l = 0usize;
                while l < max_len && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                }
                cand = prev[cand];
                steps += 1;
            }
            if best_len >= MIN_MATCH {
                // Emit (literals, match).
                write_len(&mut out, i - lit_start);
                write_len(&mut out, best_len);
                out.extend_from_slice(&input[lit_start..i]);
                out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                // Insert the covered positions into the chains.
                let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
                let mut j = i;
                while j < end {
                    let hj = hash4(&input[j..]);
                    prev[j] = head[hj];
                    head[hj] = j;
                    j += 1;
                }
                i += best_len;
                lit_start = i;
            } else {
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
        }
        // Trailing literals with a zero match.
        write_len(&mut out, input.len() - lit_start);
        write_len(&mut out, 0);
        out.extend_from_slice(&input[lit_start..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(data: &[u8]) {
        let c = lz_compress(data);
        let d = lz_decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(&[]);
        round_trip(&[1]);
        round_trip(&[1, 2, 3]);
    }

    #[test]
    fn repetitive_input_compresses() {
        let data: Vec<u8> = b"abcdefgh".iter().cycle().take(10_000).copied().collect();
        let c = lz_compress(&data);
        assert!(c.len() < data.len() / 10, "compressed to {}", c.len());
        assert_eq!(lz_decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_run() {
        let data = vec![7u8; 5000]; // match distance 1, overlapping copies
        round_trip(&data);
    }

    #[test]
    fn incompressible_input_round_trips() {
        // Pseudo-random bytes: no matches, pure literal path.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_range_matches_within_window() {
        let mut data = vec![0u8; 0];
        let chunk: Vec<u8> = (0..=255u8).collect();
        data.extend_from_slice(&chunk);
        data.extend(vec![9u8; 60_000]); // push the first chunk near the window edge
        data.extend_from_slice(&chunk);
        round_trip(&data);
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let c = lz_compress(b"hello world hello world hello world");
        assert!(lz_decompress(&c[..4]).is_err());
        let mut bad = c.clone();
        let n = bad.len();
        bad.truncate(n - 3);
        assert!(lz_decompress(&bad).is_err());
        // Header claiming more bytes than the stream yields.
        let mut huge = c;
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(lz_decompress(&huge).is_err());
    }

    #[test]
    fn rebased_chains_keep_every_position_inside_the_window() {
        // Positions just short of the rebase point on two hashes, then past
        // it: both chains still list, newest first, every position the
        // window can reach, and end where they did.
        let mut chains = Chains::new();
        let first = REBASE_AT - 2 * RING;
        for p in first..REBASE_AT + 100 {
            chains.insert(p, p % 2);
        }
        assert_eq!(chains.base, REBASE_AT / 2, "one rebase");
        for h in 0..2 {
            let newest = REBASE_AT + 98 + h;
            let walked: Vec<usize> =
                std::iter::successors(chains.first(h), |&p| (newest - p <= MAX_DIST).then(|| chains.next(p)).flatten())
                    .collect();
            let expected: Vec<usize> = (first..=newest).rev().filter(|p| p % 2 == h).take(walked.len()).collect();
            assert_eq!(walked, expected, "hash {h}");
            assert!(newest - walked.last().unwrap() > MAX_DIST, "the walk reaches past the window");
        }
        // A position half the rebase distance behind is gone.
        let mut chains = Chains::new();
        chains.insert(3, 7);
        chains.insert(REBASE_AT + 5, 9);
        assert_eq!((chains.first(7), chains.first(9)), (None, Some(REBASE_AT + 5)));
    }

    /// Inputs of a few shapes from `seed`: random bytes, a period with sparse
    /// edits, runs of a few byte values, and words of a small alphabet (what
    /// Huffman output over a narrow code range looks like).
    fn shaped_input(kind: u8, len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut out = Vec::with_capacity(len);
        match kind {
            0 => out.extend((0..len).map(|_| next() as u8)),
            1 => {
                let period: Vec<u8> = (0..1 + next() % 300).map(|_| next() as u8).collect();
                out.extend(period.iter().cycle().take(len));
                for _ in 0..len / 97 {
                    let at = next() % len;
                    out[at] = next() as u8;
                }
            }
            2 => {
                while out.len() < len {
                    let run = 1 + next() % if next() % 8 == 0 { 5000 } else { 40 };
                    out.extend(std::iter::repeat_n((next() % 3) as u8 * 85, run.min(len - out.len())));
                }
            }
            _ => {
                let words: Vec<u8> = (0..4 + next() % 12).map(|_| next() as u8).collect();
                out.extend((0..len).map(|_| words[next() % words.len()]));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        // The same bytes as the search it replaced, on inputs short and long
        // — past 64 KiB the ring wraps and candidates fall out of the window.
        #[test]
        fn match_search_writes_the_bytes_of_the_reference(
            kind in 0u8..4,
            len in prop_oneof![0usize..64, 64usize..5000, 65_000usize..140_000],
            seed in any::<u64>(),
        ) {
            let input = shaped_input(kind, len, seed);
            let packed = lz_compress(&input);
            prop_assert_eq!(&packed, &reference::lz_compress(&input), "kind {} len {}", kind, len);
            prop_assert_eq!(lz_decompress(&packed).unwrap(), input);
        }
    }
}
