//! Canonical Huffman coding over `u32` symbols (quantization bins).
//!
//! The encoder serializes a compact code-length table (distinct symbols are
//! sparse within the 2·radius alphabet) followed by the MSB-first bit stream.
//! Canonical code assignment makes decoding table-driven and keeps the header
//! small.
//!
//! Every table here is sized by the symbols it holds, not by the alphabet
//! they could come from: a small file pays for its few hundred distinct
//! codes, not for 2·radius slots. Quantization codes cluster — around the
//! radius, a few hundred to a few thousand codes wide — with a handful of
//! outliers far away (the escape marker `0`; the origin point, predicted
//! from nothing). So both the histogram and the encoder's lookup are a dense
//! `Vec` over the window the bulk occupies (one indexed load on the hot
//! path) beside a short sorted list of outliers. Encoding packs several
//! codes into a 64-bit accumulator between unconditional 8-byte stores.
//! Decoding runs through a prefix table that resolves the one or two codes
//! a `LUT_BITS`-bit prefix starts with in one probe, four probes to one
//! 8-byte refill, falling back to the canonical per-length walk for longer
//! codes.
//!
//! [`HuffmanTable`] exposes the table/stream halves separately; the
//! self-describing [`huffman_encode`]/[`huffman_decode`] pair, which every
//! chunk uses, layers the two back together. The encode and the decode
//! lookup of a table are each built on first use, so a compressor never
//! builds a decode LUT nor a decompressor an encode table.
//!
//! # Table layout
//!
//! [`huffman_encode`] embeds the code-length table in front of its code bits
//! *packed*. Symbols ascend, and each takes one byte: `len − 1` in the low
//! five bits ([`MAX_CODE_LEN`] is 32) and, in the high three, how many
//! symbols were skipped since the previous one (`symbol − previous − 1`; for
//! the first entry the symbol itself). Seven there means the skip did not
//! fit, and `skip − 7` follows as a LEB128 varint. A varint of the entry
//! count leads:
//!
//! ```text
//! [n varint] n × ( [skip:3 | len−1:5]  [skip − 7 varint, iff skip:3 = 7] )
//!
//! symbols 0 (4 bits), 32766 (3), 32767 (1), 32768 (2), 32776 (4):
//! 05 | 03 | e2 f6 ff 01 | 00 | 01 | e3 00
//! ```
//!
//! Quantization codes sit side by side, so a table of them takes just over
//! one byte a symbol (1.04 over the benchmark's 256 small files, against the
//! five of the `(symbol u32, len u8)` rows it replaced). The worst case is
//! six — a skip of 2²⁸ + 7 or more, which the `u32` range has room for
//! fifteen times. Ascending order makes a duplicate symbol unrepresentable
//! and five bits make an invalid length unrepresentable; varints must be
//! minimal, so a table has exactly one encoding.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::encode::bitio::BitReader;
use crate::error::SzError;

/// Maximum admitted code length. Frequencies are flattened and the tree is
/// rebuilt if the optimal tree would exceed this (only possible for highly
/// skewed distributions over large alphabets).
pub const MAX_CODE_LEN: u8 = 32;

/// Codes up to this many bits resolve through a single table probe when
/// decoding; longer codes use the per-length canonical walk.
const LUT_BITS: u8 = 12;

/// Largest symbol value counted in one symbol-indexed table when the symbols
/// do not cluster; past it they are sorted instead, so pathological symbol
/// values cannot trigger huge allocations.
const DENSE_LIMIT: u32 = 1 << 22;

fn corrupt(m: &str) -> SzError {
    SzError::CorruptStream(format!("huffman: {m}"))
}

/// Widest window the clustered count will place.
const INTERLEAVE_WINDOW: usize = 1 << 14;

/// Symbols sampled to place the counting window.
const WINDOW_SAMPLE: usize = 64;

/// Counts symbol frequencies, returning `(symbol, freq)` pairs sorted by
/// symbol.
pub(crate) fn freq_pairs(symbols: &[u32]) -> Vec<(u32, u64)> {
    count_clustered(symbols).unwrap_or_else(|| count_spread(symbols))
}

/// Appends the `(symbol, run length)` pairs of a sorted symbol slice.
fn push_runs(pairs: &mut Vec<(u32, u64)>, sorted: &[u32]) {
    pairs.extend(sorted.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64)));
}

/// [`freq_pairs`] for symbols that cluster: counts in a dense window placed
/// around a strided sample of them, and collects the few symbols outside it
/// in a spill that is sorted and counted afterwards — so one far outlier
/// costs one spilled symbol, not a window stretched out to reach it.
/// Consecutive symbols go to different counters of their slot, so a long run
/// of the centre code does not serialise on one store-to-load round trip.
///
/// `None` if the sample does not fit a window, or the window does not hold
/// the bulk after all.
fn count_clustered(symbols: &[u32]) -> Option<Vec<(u32, u64)>> {
    // Each of a symbol's four `u32` counters sees a quarter of the input.
    if u32::try_from(symbols.len()).is_err() {
        return None;
    }
    let stride = symbols.len().div_ceil(WINDOW_SAMPLE).max(1);
    let (low, high) =
        symbols.iter().skip(stride / 2).step_by(stride).fold((u32::MAX, 0u32), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    // Half the sampled span again on either side takes in the tails the
    // sample is too small to have met.
    let margin = high.checked_sub(low)? / 2 + 16;
    let lo = low.saturating_sub(margin);
    let window = (high.saturating_add(margin) - lo) as usize + 1;
    if window > INTERLEAVE_WINDOW {
        return None;
    }
    let mut counts = vec![[0u32; 4]; window];
    let mut spill: Vec<u32> = Vec::new();
    let mut count = |lane: usize, s: u32| match counts.get_mut(s.wrapping_sub(lo) as usize) {
        Some(counters) => counters[lane] += 1,
        None => spill.push(s),
    };
    let mut quads = symbols.chunks_exact(4);
    for quad in &mut quads {
        count(0, quad[0]);
        count(1, quad[1]);
        count(2, quad[2]);
        count(3, quad[3]);
    }
    for &s in quads.remainder() {
        count(0, s);
    }
    if spill.len() > symbols.len() / 8 {
        return None;
    }
    spill.sort_unstable();
    let below = spill.partition_point(|&s| s < lo);
    let mut pairs = Vec::new();
    push_runs(&mut pairs, &spill[..below]);
    for (s, counters) in (lo..=u32::MAX).zip(&counts) {
        let f: u64 = counters.iter().map(|&c| c as u64).sum();
        if f > 0 {
            pairs.push((s, f));
        }
    }
    push_runs(&mut pairs, &spill[below..]);
    Some(pairs)
}

/// [`freq_pairs`] for symbols with no bulk to speak of: one table over their
/// `[min, max]` window, or a sorted copy when even that would be too wide.
fn count_spread(symbols: &[u32]) -> Vec<(u32, u64)> {
    let (min_sym, max_sym) = symbols.iter().fold((u32::MAX, 0u32), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    let mut pairs = Vec::new();
    if max_sym >= DENSE_LIMIT {
        let mut sorted = symbols.to_vec();
        sorted.sort_unstable();
        push_runs(&mut pairs, &sorted);
    } else if min_sym <= max_sym {
        let mut counts = vec![0u64; (max_sym - min_sym) as usize + 1];
        for &s in symbols {
            counts[(s - min_sym) as usize] += 1;
        }
        pairs.extend(counts.iter().zip(min_sym..).filter(|&(&f, _)| f > 0).map(|(&f, s)| (s, f)));
    }
    pairs
}

/// Computes Huffman code lengths for `(symbol, freq)` pairs sorted by symbol.
///
/// Single-symbol inputs get length 1. Empty input returns an empty vector.
/// The result stays sorted by symbol.
pub(crate) fn lengths_from_pairs(pairs: &[(u32, u64)]) -> Vec<(u32, u8)> {
    if pairs.is_empty() {
        return Vec::new();
    }
    if pairs.len() == 1 {
        return vec![(pairs[0].0, 1)];
    }
    let mut flatten = 0u32;
    loop {
        let lengths = build_lengths(pairs, flatten);
        let max = lengths.iter().map(|&(_, l)| l).max().unwrap_or(0);
        if max <= MAX_CODE_LEN {
            return lengths;
        }
        flatten += 4;
    }
}

/// One round of Huffman tree construction over at least two symbols, with
/// optional frequency flattening (`freq >> flatten | 1`), returning code
/// lengths sorted by symbol.
///
/// `pairs` must be sorted by symbol: a leaf's index is the tie-breaker that
/// makes tree shape (and thus the blob bytes) deterministic. The tree is the
/// one a min-heap over `(weight, sequence number)` builds — leaves numbered
/// by index, then merged nodes in the order they are made — without the
/// heap: merged nodes come out in non-decreasing weight and increasing
/// number, so they form a second sorted queue beside the sorted leaves, and
/// the heap's next pop is the smaller of the two heads, a leaf on a tie.
fn build_lengths(pairs: &[(u32, u64)], flatten: u32) -> Vec<(u32, u8)> {
    let n = pairs.len();
    let leaves = sort_leaves(pairs.iter().enumerate().map(|(i, &(_, f))| ((f >> flatten) | 1, i as u32)).collect());
    // Node ids: leaf `i` of `pairs` is `i`, the `k`-th merged node `n + k`.
    let mut parent = vec![0u32; 2 * n - 1];
    let mut merged: Vec<u64> = Vec::with_capacity(n - 1);
    let (mut next_leaf, mut next_merged) = (0usize, 0usize);
    for k in 0..n - 1 {
        let mut pop = || {
            let leaf = leaves.get(next_leaf);
            if leaf.is_some_and(|&(w, _)| merged.get(next_merged).is_none_or(|&m| w <= m)) {
                next_leaf += 1;
                leaf.copied().expect("checked above")
            } else {
                next_merged += 1;
                (merged[next_merged - 1], (n + next_merged - 1) as u32)
            }
        };
        let ((wa, a), (wb, b)) = (pop(), pop());
        parent[a as usize] = (n + k) as u32;
        parent[b as usize] = (n + k) as u32;
        merged.push(wa + wb);
    }
    // A node is made after both its children, so one pass down from the root
    // (the last node made, at depth 0) meets every parent before its children.
    let mut depth = vec![0u8; 2 * n - 1];
    for node in (0..2 * n - 2).rev() {
        depth[node] = depth[parent[node] as usize] + 1;
    }
    pairs.iter().zip(&depth).map(|(&(sym, _), &len)| (sym, len)).collect()
}

/// `(weight, index)` leaves, given in index order, sorted by weight and then
/// index — the order `sort_unstable` gives, as the keys are unique. A stable
/// LSD radix sort on the weight, one byte a pass and only as many passes as
/// the largest weight has bytes: a small file's few hundred leaves, weights
/// below 2¹⁶, take two linear passes instead of a comparison sort.
fn sort_leaves(mut leaves: Vec<(u64, u32)>) -> Vec<(u64, u32)> {
    let max = leaves.iter().map(|&(w, _)| w).max().unwrap_or(0);
    let mut spare = vec![(0u64, 0u32); leaves.len()];
    for shift in (0..u64::BITS - max.leading_zeros()).step_by(8) {
        let digit = |w: u64| (w >> shift) as u8 as usize;
        let mut starts = [0usize; 256];
        for &(w, _) in &leaves {
            starts[digit(w)] += 1;
        }
        let mut at = 0;
        for start in &mut starts {
            (*start, at) = (at, at + *start);
        }
        for &leaf in &leaves {
            spare[starts[digit(leaf.0)]] = leaf;
            starts[digit(leaf.0)] += 1;
        }
        std::mem::swap(&mut leaves, &mut spare);
    }
    leaves
}

/// Computes Huffman code lengths for a frequency table.
///
/// Returns a map from symbol to code length in bits. Single-symbol inputs get
/// length 1. Empty input returns an empty map.
pub fn code_lengths(freqs: &HashMap<u32, u64>) -> HashMap<u32, u8> {
    let mut pairs: Vec<(u32, u64)> = freqs.iter().map(|(&s, &f)| (s, f)).collect();
    pairs.sort_unstable_by_key(|&(s, _)| s);
    lengths_from_pairs(&pairs).into_iter().collect()
}

/// Per-length tallies of a table, indexed by code length.
type PerLength<T> = [T; MAX_CODE_LEN as usize + 1];

/// How many symbols have each code length.
fn length_counts(lengths: impl Iterator<Item = u8>) -> PerLength<usize> {
    let mut counts = [0usize; MAX_CODE_LEN as usize + 1];
    for len in lengths {
        counts[len as usize] += 1;
    }
    counts
}

/// The canonical code of the first symbol of each length: symbols sorted by
/// (length, symbol) receive consecutive codes, shifted left at every step up
/// in length.
fn first_codes(counts: &PerLength<usize>) -> PerLength<u64> {
    let mut first = [0u64; MAX_CODE_LEN as usize + 1];
    let mut code = 0u64;
    for len in 1..first.len() {
        code = (code + counts[len - 1] as u64) << 1;
        first[len] = code;
    }
    first
}

/// Where each length's symbols start in canonical (length, symbol) order.
fn first_indices(counts: &PerLength<usize>) -> PerLength<usize> {
    let mut first = [0usize; MAX_CODE_LEN as usize + 1];
    for len in 1..first.len() {
        first[len] = first[len - 1] + counts[len - 1];
    }
    first
}

/// Widest the encoder's dense window may be, in slots per symbol inside it.
const DENSE_SLACK: usize = 4;

/// Symbol → (length, code) lookup for encoding: a dense table over the window
/// the symbols cluster in, the outliers sorted beside it.
#[derive(Debug, Clone)]
struct EncodeTable {
    /// First symbol of the dense window.
    lo: u32,
    /// `dense[sym - lo] = (len, code)`; `len == 0` means no code there.
    dense: Vec<(u8, u64)>,
    /// `(symbol, len, code)` of the symbols outside the window, sorted.
    outliers: Vec<(u32, u8, u64)>,
    /// Codes one flush of [`EncodeTable::encode`] takes: as many of the
    /// table's longest as fit beside the seven bits a flush can leave.
    per_flush: usize,
}

impl EncodeTable {
    fn build(by_symbol: &[(u32, u8, u64)]) -> Self {
        // Give up the end symbol across the wider gap until what is left is
        // dense enough to index: the table then takes a few slots per symbol
        // it holds, however far away the escape marker or a stray code sits.
        let (mut a, mut b) = (0usize, by_symbol.len());
        let sym = |i: usize| by_symbol[i].0;
        while b - a > 1 && (sym(b - 1) - sym(a)) as usize >= DENSE_SLACK * (b - a) {
            if sym(a + 1) - sym(a) >= sym(b - 1) - sym(b - 2) {
                a += 1;
            } else {
                b -= 1;
            }
        }
        let lo = sym(a);
        let mut dense = vec![(0u8, 0u64); (sym(b - 1) - lo) as usize + 1];
        for &(s, len, code) in &by_symbol[a..b] {
            dense[(s - lo) as usize] = (len, code);
        }
        let outliers = [&by_symbol[..a], &by_symbol[b..]].concat();
        let longest = by_symbol.iter().map(|&(_, len, _)| len).max().expect("tables are never empty");
        EncodeTable { lo, dense, outliers, per_flush: 56 / longest as usize }
    }

    /// The codes of `symbols`, packed MSB first and zero-padded to a byte;
    /// `None` at the first symbol that has none.
    ///
    /// The pending bits sit right-aligned in a `u64`, fewer than eight of
    /// them after a flush. [`EncodeTable::per_flush`] codes go in (at most
    /// 63 bits in all), then one unconditional 8-byte big-endian store
    /// writes them, left-aligned, at the first unfinished byte, and the
    /// whole bytes among them are counted done. The bytes past those hold
    /// the partial byte and zeros, which the next store writes over — so
    /// the stream takes no per-code test of how full the word is.
    fn encode(&self, symbols: &[u32]) -> Option<Vec<u8>> {
        // The window by value: for all the compiler knows the stores alias
        // `self`, and it would reload these fields for every symbol.
        let (lo, dense) = (self.lo, self.dense.as_slice());
        let mut out = vec![0u8; symbols.len() / 2 + 16];
        let (mut pos, mut acc, mut nbits) = (0usize, 0u64, 0u32);
        for group in symbols.chunks(self.per_flush) {
            for &sym in group {
                let (len, code) = match dense.get(sym.wrapping_sub(lo) as usize) {
                    Some(&(len, code)) if len != 0 => (len, code),
                    _ => self.outlier(sym)?,
                };
                acc = (acc << len) | code;
                nbits += len as u32;
            }
            if pos + 8 > out.len() {
                out.resize(2 * out.len(), 0);
            }
            // `<< 1` last: a shift by 64 is an overflow, not zero.
            out[pos..pos + 8].copy_from_slice(&(acc << (63 - nbits) << 1).to_be_bytes());
            pos += nbits as usize / 8;
            nbits %= 8;
        }
        out.truncate(pos + nbits.div_ceil(8) as usize);
        Some(out)
    }

    /// The `(len, code)` of a symbol outside the window (or in a hole of
    /// it). A call of its own, so that the loop's common path has nothing to
    /// merge with.
    #[cold]
    #[inline(never)]
    fn outlier(&self, sym: u32) -> Option<(u8, u64)> {
        let at = self.outliers.binary_search_by_key(&sym, |&(s, _, _)| s).ok()?;
        Some((self.outliers[at].1, self.outliers[at].2))
    }
}

/// Set in a [`DecodeTable::pair_meta`] entry that holds two codes.
const PAIR: u8 = 16;

/// Code → symbol lookup for decoding.
#[derive(Debug, Clone)]
struct DecodeTable {
    max_len: usize,
    // Per-length canonical ranges (indexed by code length).
    counts: PerLength<usize>,
    first_code: PerLength<u64>,
    first_idx: PerLength<usize>,
    /// The symbols in canonical (length, symbol) order.
    syms_by_canon: Vec<u32>,
    /// `lut[prefix] = (sym, len)` for codes of at most [`LUT_BITS`] bits;
    /// `len == 0` marks prefixes that need the slow walk.
    lut: Vec<(u32, u8)>,
    /// `pair_syms[prefix]`: the symbol of the code the prefix starts with
    /// and of the code [`DecodeTable::lut`] resolves right after it.
    pair_syms: Vec<[u32; 2]>,
    /// `pair_meta[prefix]`: the bits of the one or two codes of
    /// `pair_syms[prefix]` that lie whole inside the prefix, plus [`PAIR`]
    /// if that is both; 0 where not even the first does.
    pair_meta: Vec<u8>,
}

impl DecodeTable {
    fn build(by_symbol: &[(u32, u8, u64)]) -> Self {
        let counts = length_counts(by_symbol.iter().map(|&(_, len, _)| len));
        let first_idx = first_indices(&counts);
        let max_len = counts.iter().rposition(|&c| c > 0).expect("tables are never empty");
        let mut syms_by_canon = vec![0u32; by_symbol.len()];
        let mut next_idx = first_idx;
        let mut lut = vec![(0u32, 0u8); 1 << LUT_BITS];
        for &(sym, len, code) in by_symbol {
            syms_by_canon[next_idx[len as usize]] = sym;
            next_idx[len as usize] += 1;
            // Guard against malformed (Kraft-violating) parsed tables
            // whose canonical codes overflow their length.
            if len > LUT_BITS || code >> len != 0 {
                continue;
            }
            let fill = 1usize << (LUT_BITS - len);
            let base = (code as usize) << (LUT_BITS - len);
            lut[base..base + fill].fill((sym, len));
        }
        let mask = (1usize << LUT_BITS) - 1;
        let mut pair_syms = vec![[0u32; 2]; 1 << LUT_BITS];
        let mut pair_meta = vec![0u8; 1 << LUT_BITS];
        for (prefix, (syms, meta)) in pair_syms.iter_mut().zip(&mut pair_meta).enumerate() {
            let (first, len) = lut[prefix];
            if len == 0 {
                continue;
            }
            let (second, next_len) = lut[(prefix << len) & mask];
            *syms = [first, second];
            *meta = if next_len != 0 && len + next_len <= LUT_BITS { (len + next_len) | PAIR } else { len };
        }
        DecodeTable {
            max_len,
            counts,
            first_code: first_codes(&counts),
            first_idx,
            syms_by_canon,
            lut,
            pair_syms,
            pair_meta,
        }
    }

    /// Decodes exactly `count` symbols from `payload`: the bulk in
    /// [`DecodeTable::decode_refilled`], the rest one symbol a probe, which
    /// is where a truncated or corrupt stream meets its error.
    fn decode(&self, count: usize, payload: &[u8]) -> Result<Vec<u32>, SzError> {
        let mut out = vec![0u32; count];
        let (i, consumed) = self.decode_refilled(payload, &mut out)?;
        let mut reader = BitReader::new(&payload[consumed / 8..]);
        reader.read_bits((consumed % 8) as u8)?;
        for slot in &mut out[i..] {
            *slot = self.next(&mut reader)?;
        }
        Ok(out)
    }

    /// The bulk of a stream, four probes a refill and up to two codes a
    /// probe: one 8-byte big-endian load tops the look-ahead up to at least
    /// 56 bits, and four probes of [`DecodeTable::pair_meta`] then each take
    /// the one or two codes, of at most [`LUT_BITS`] bits together, that
    /// start the prefix — 48 bits for the four — with no check of how many
    /// bits are loaded: every one of them is a real stream bit. Two codes a
    /// probe halve the probes, each of which waits on the one before it
    /// through the bit position. A probe writes both symbols of its
    /// entry and moves on by one or two slots, so an unused second symbol is
    /// written over. A longer code walks the canonical table over the
    /// look-ahead, refilled first if it holds fewer than [`MAX_CODE_LEN`]
    /// bits, and ends its group of four. Stops once fewer than eight bytes
    /// are left to load or eight slots to fill, and returns the slots filled
    /// and the bits consumed; the checked reader takes the rest.
    ///
    /// The look-ahead is `acc`'s top `bits` bits. A load ORs the next eight
    /// bytes in below them and counts only whole bytes, so the bits below
    /// the count are already the stream's next ones, which the following
    /// load writes again unchanged.
    fn decode_refilled(&self, payload: &[u8], out: &mut [u32]) -> Result<(usize, usize), SzError> {
        let (syms, meta) = (&self.pair_syms[..1 << LUT_BITS], &self.pair_meta[..1 << LUT_BITS]);
        let (mut i, mut pos, mut acc, mut bits) = (0usize, 0usize, 0u64, 0u32);
        while i + 8 <= out.len() {
            let Some(word) = payload.get(pos..pos + 8) else { break };
            acc |= u64::from_be_bytes(word.try_into().expect("8 bytes")) >> bits;
            pos += (63 - bits as usize) >> 3;
            bits |= 56;
            for _ in 0..4 {
                let prefix = (acc >> (64 - LUT_BITS)) as usize;
                let entry = meta[prefix];
                if entry == 0 {
                    if bits >= MAX_CODE_LEN as u32 {
                        let (sym, len) = self.walk_word(acc)?;
                        out[i] = sym;
                        acc <<= len;
                        bits -= len as u32;
                        i += 1;
                    }
                    break;
                }
                out[i..i + 2].copy_from_slice(&syms[prefix]);
                let len = (entry & !PAIR) as u32;
                acc <<= len;
                bits -= len;
                i += 1 + (entry & PAIR != 0) as usize;
            }
        }
        Ok((i, pos * 8 - bits as usize))
    }

    /// [`DecodeTable::walk`] over `acc`, whose top [`MAX_CODE_LEN`] bits are
    /// real stream bits, for a code longer than [`LUT_BITS`]: returns its
    /// symbol and length.
    #[cold]
    fn walk_word(&self, acc: u64) -> Result<(u32, u8), SzError> {
        for len in LUT_BITS as usize + 1..=self.max_len {
            let (code, first) = (acc >> (64 - len), self.first_code[len]);
            if code >= first && code - first < self.counts[len] as u64 {
                return Ok((self.syms_by_canon[self.first_idx[len] + (code - first) as usize], len as u8));
            }
        }
        Err(corrupt("code exceeds maximum length"))
    }

    /// The next symbol, one LUT probe (or the walk) away. The peek is
    /// zero-padded past the end of the stream, which is safe: a valid code
    /// is a prefix of every padded extension, so the probe lands on the right
    /// entry, and `loaded` guards against over-consuming. Only within the
    /// stream's last bytes can it fall below a code length.
    #[inline(always)]
    fn next(&self, reader: &mut BitReader<'_>) -> Result<u32, SzError> {
        let (prefix, loaded) = reader.peek_bits(LUT_BITS);
        let (sym, len) = self.lut[prefix as usize];
        if len == 0 {
            self.walk(reader)
        } else if len as u32 <= loaded {
            reader.consume(len as u32);
            Ok(sym)
        } else {
            Err(corrupt("bit stream exhausted"))
        }
    }

    /// Canonical per-length walk for a code the LUT does not resolve, over
    /// the (zero-padded) look-ahead: at least [`MAX_CODE_LEN`] real bits
    /// except within the stream's last bytes.
    #[cold]
    fn walk(&self, reader: &mut BitReader<'_>) -> Result<u32, SzError> {
        for len in 1..=self.max_len {
            let (code, loaded) = reader.peek_bits(len as u8);
            if (len as u32) > loaded {
                return Err(corrupt("bit stream exhausted"));
            }
            let first = self.first_code[len];
            if code >= first && code - first < self.counts[len] as u64 {
                reader.consume(len as u32);
                return Ok(self.syms_by_canon[self.first_idx[len] + (code - first) as usize]);
            }
        }
        Err(corrupt("code exceeds maximum length"))
    }
}

/// A canonical Huffman table, usable on its own (any stream it covers) or as
/// the internals of the self-describing [`huffman_encode`] format.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// `(symbol, len, code)` sorted by symbol. Within one length that is the
    /// canonical order, so codes are assigned, and the canonical order itself
    /// recovered, by counting lengths — nothing is ever sorted by length.
    by_symbol: Vec<(u32, u8, u64)>,
    /// Built by the first [`HuffmanTable::encode_stream`].
    encode: OnceLock<EncodeTable>,
    /// Built by the first [`HuffmanTable::decode_stream`].
    decode: OnceLock<DecodeTable>,
}

impl HuffmanTable {
    /// Builds a table from `(symbol, length)` pairs (lengths in
    /// `1..=MAX_CODE_LEN`, symbols unique).
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] on an invalid length or duplicate
    /// symbol.
    pub fn from_lengths(mut lengths: Vec<(u32, u8)>) -> Result<Self, SzError> {
        if lengths.is_empty() {
            return Err(corrupt("empty code-length table"));
        }
        if lengths.iter().any(|&(_, len)| len == 0 || len > MAX_CODE_LEN) {
            return Err(corrupt("invalid code length"));
        }
        // One pass over lengths a histogram produced, which arrive sorted.
        lengths.sort_unstable_by_key(|&(sym, _)| sym);
        if lengths.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(corrupt("duplicate symbol in table"));
        }
        Ok(Self::from_ascending(lengths))
    }

    /// [`HuffmanTable::from_lengths`] over pairs known to hold strictly
    /// ascending symbols and lengths in `1..=MAX_CODE_LEN`, at least one.
    fn from_ascending(lengths: Vec<(u32, u8)>) -> Self {
        let mut next_code = first_codes(&length_counts(lengths.iter().map(|&(_, len)| len)));
        let by_symbol = lengths
            .into_iter()
            .map(|(sym, len)| {
                let code = next_code[len as usize];
                next_code[len as usize] += 1;
                (sym, len, code)
            })
            .collect();
        HuffmanTable { by_symbol, encode: OnceLock::new(), decode: OnceLock::new() }
    }

    /// Builds the canonical table for a symbol sequence, `None` if empty.
    pub fn from_symbols(symbols: &[u32]) -> Option<Self> {
        Self::from_histogram(&freq_pairs(symbols))
    }

    /// Builds the canonical table from `(symbol, count)` pairs sorted by
    /// symbol (a [`freq_pairs`] histogram), `None` if empty.
    pub(crate) fn from_histogram(pairs: &[(u32, u64)]) -> Option<Self> {
        if pairs.is_empty() {
            return None;
        }
        Some(Self::from_lengths(lengths_from_pairs(pairs)).expect("built lengths are valid"))
    }

    /// Number of distinct symbols in the table.
    pub fn n_symbols(&self) -> usize {
        self.by_symbol.len()
    }

    /// The `(symbol, length)` pairs, ascending by symbol.
    #[cfg(test)]
    pub(crate) fn lengths(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.by_symbol.iter().map(|&(sym, len, _)| (sym, len))
    }

    /// Appends the table in the packed layout (see the module docs).
    pub(crate) fn write_packed(&self, out: &mut Vec<u8>) {
        write_varint(out, self.by_symbol.len() as u64);
        // The smallest symbol the next entry could name.
        let mut next = 0u64;
        for &(sym, len, _) in &self.by_symbol {
            let skip = sym as u64 - next;
            if skip < SKIP_ESCAPE {
                out.push((skip as u8) << 5 | (len - 1));
            } else {
                out.push((SKIP_ESCAPE as u8) << 5 | (len - 1));
                write_varint(out, skip - SKIP_ESCAPE);
            }
            next = sym as u64 + 1;
        }
    }

    /// Encodes `symbols` as `[count u64][payload_len u64][payload bits]`.
    ///
    /// Returns `None` if any symbol has no code in this table.
    pub fn encode_stream(&self, symbols: &[u32]) -> Option<Vec<u8>> {
        let table = self.encode.get_or_init(|| EncodeTable::build(&self.by_symbol));
        let payload = table.encode(symbols)?;
        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(&(symbols.len() as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        Some(out)
    }

    /// Decodes a stream produced by [`HuffmanTable::encode_stream`].
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] on truncation or an invalid code.
    pub fn decode_stream(&self, bytes: &[u8]) -> Result<Vec<u32>, SzError> {
        let (count, payload) = read_stream(bytes, &mut 0)?;
        self.decode_payload(count, payload)
    }

    /// Decodes exactly `count` symbols from a packed bit payload.
    fn decode_payload(&self, count: usize, payload: &[u8]) -> Result<Vec<u32>, SzError> {
        let table = self.decode.get_or_init(|| DecodeTable::build(&self.by_symbol));
        table.decode(count, payload)
    }
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, SzError> {
    if *pos + 8 > bytes.len() {
        return Err(corrupt("truncated header"));
    }
    let v = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().expect("8 bytes"));
    *pos += 8;
    Ok(v)
}

/// Reads the `[count u64][payload_len u64][payload bits]` of an
/// [`HuffmanTable::encode_stream`] at `pos`: the symbol count and the payload.
fn read_stream<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<(usize, &'a [u8]), SzError> {
    let count = read_u64(bytes, pos)? as usize;
    let payload_len = read_u64(bytes, pos)? as usize;
    if payload_len > bytes.len() - *pos {
        return Err(corrupt("truncated payload"));
    }
    let payload = &bytes[*pos..*pos + payload_len];
    // Every symbol consumes at least one bit of payload.
    if count > payload.len().saturating_mul(8) {
        return Err(corrupt("symbol count exceeds payload bits"));
    }
    Ok((count, payload))
}

/// In the three skip bits of a packed entry: the skip follows as a varint.
const SKIP_ESCAPE: u64 = 7;

/// Appends `v` as a LEB128 varint.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint, advancing `pos`. Only the encoding
/// [`write_varint`] produces is accepted: no padding groups, at most the ten
/// bytes a `u64` takes.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, SzError> {
    let mut v = 0u64;
    for shift in (0..u64::BITS).step_by(7) {
        let &b = bytes.get(*pos).ok_or_else(|| corrupt("truncated code-length table"))?;
        *pos += 1;
        let group = (b & 0x7f) as u64;
        if group << shift >> shift != group {
            return Err(corrupt("varint overflows 64 bits"));
        }
        v |= group << shift;
        if b & 0x80 == 0 {
            if group == 0 && shift > 0 {
                return Err(corrupt("varint is padded"));
            }
            return Ok(v);
        }
    }
    Err(corrupt("varint longer than ten bytes"))
}

/// Parses a packed length table (see the module docs), advancing `pos` past
/// it; `None` for the table of no symbols. The table is built
/// straight from the ascending symbols: nothing is sorted, a duplicate or an
/// invalid length cannot be written down, and the entry count is held
/// against the bytes left — an entry takes at least one — before anything is
/// allocated for it. The Kraft sum is not validated.
pub(crate) fn parse_packed_table(bytes: &[u8], pos: &mut usize) -> Result<Option<HuffmanTable>, SzError> {
    let n_syms = read_varint(bytes, pos)?;
    if n_syms > (bytes.len() - *pos) as u64 {
        return Err(corrupt("symbol table larger than stream"));
    }
    if n_syms == 0 {
        return Ok(None);
    }
    let mut lengths = Vec::with_capacity(n_syms as usize);
    // The smallest symbol the next entry could name.
    let mut next = 0u64;
    for _ in 0..n_syms {
        let &entry = bytes.get(*pos).ok_or_else(|| corrupt("truncated code-length table"))?;
        *pos += 1;
        let skip = match (entry >> 5) as u64 {
            SKIP_ESCAPE => read_varint(bytes, pos)?.saturating_add(SKIP_ESCAPE),
            skip => skip,
        };
        let sym = next.saturating_add(skip);
        if sym > u32::MAX as u64 {
            return Err(corrupt("symbol past the 32-bit range"));
        }
        lengths.push((sym as u32, (entry & 0x1f) + 1));
        next = sym + 1;
    }
    Ok(Some(HuffmanTable::from_ascending(lengths)))
}

/// Encodes a symbol sequence with canonical Huffman coding.
///
/// The output is self-describing: `[packed table][count][bitstream]`.
pub fn huffman_encode(symbols: &[u32]) -> Vec<u8> {
    huffman_encode_counted(symbols, &freq_pairs(symbols)).0
}

/// [`huffman_encode`] for a caller that already holds the stream's
/// [`freq_pairs`] histogram; also returns how many of the bytes are table.
pub(crate) fn huffman_encode_counted(symbols: &[u32], pairs: &[(u32, u64)]) -> (Vec<u8>, usize) {
    let Some(table) = HuffmanTable::from_histogram(pairs) else {
        // No symbols: the table of none, a count of none, no payload.
        return (vec![0u8; 1 + 8 + 8], 1);
    };
    let mut out = Vec::new();
    table.write_packed(&mut out);
    let table_bytes = out.len();
    let body = table.encode_stream(symbols).expect("table covers its own symbols");
    out.extend_from_slice(&body);
    (out, table_bytes)
}

/// Decodes a stream produced by [`huffman_encode`].
///
/// # Errors
/// Returns [`SzError::CorruptStream`] if the stream is truncated or contains
/// an invalid code.
pub fn huffman_decode(bytes: &[u8]) -> Result<Vec<u32>, SzError> {
    let mut pos = 0usize;
    let table = parse_packed_table(bytes, &mut pos)?;
    let (count, payload) = read_stream(bytes, &mut pos)?;
    if count == 0 {
        return Ok(Vec::new());
    }
    table.ok_or_else(|| corrupt("empty table with nonzero count"))?.decode_payload(count, payload)
}

/// Per-symbol share of the encoded bit stream, used for the `P0` feature:
/// `share(s) = freq(s)·len(s) / Σ freq·len`.
///
/// Returns an empty map for empty input.
pub fn encoded_share(symbols: &[u32]) -> HashMap<u32, f64> {
    let pairs = freq_pairs(symbols);
    let lengths = lengths_from_pairs(&pairs);
    let total: f64 = pairs.iter().zip(&lengths).map(|(&(_, f), &(_, l))| f as f64 * l as f64).sum();
    if total == 0.0 {
        return HashMap::new();
    }
    pairs.into_iter().zip(lengths).map(|((s, f), (_, l))| (s, f as f64 * l as f64 / total)).collect()
}

/// The `BinaryHeap` tree build, the sort-based canonical code assignment,
/// the symbol-indexed-from-zero encode table and the one-symbol decode loop,
/// kept verbatim as the equality oracles for what replaced them.
#[cfg(test)]
mod reference {
    use super::{corrupt, BitReader, DecodeTable, EncodeTable, SzError, LUT_BITS};
    use crate::encode::bitio::BitWriter;

    /// `build_lengths` as a min-heap over `(weight, insertion order)` with a
    /// parent walk per leaf.
    pub(super) fn build_lengths(pairs: &[(u32, u64)], flatten: u32) -> Vec<(u32, u8)> {
        #[derive(Clone, Copy, PartialEq, Eq)]
        struct Node {
            weight: u64,
            seq: u32,
            idx: u32,
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for min-heap behaviour inside BinaryHeap.
                other.weight.cmp(&self.weight).then(other.seq.cmp(&self.seq))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = pairs.len();
        // parent[i] for all tree nodes; leaves occupy [0, n).
        let mut parent = vec![u32::MAX; 2 * n - 1];
        let mut heap = std::collections::BinaryHeap::with_capacity(n);
        for (i, &(_, f)) in pairs.iter().enumerate() {
            heap.push(Node { weight: (f >> flatten) | 1, seq: i as u32, idx: i as u32 });
        }
        let mut next = n as u32;
        let mut seq = n as u32;
        while heap.len() > 1 {
            let a = heap.pop().expect("len > 1");
            let b = heap.pop().expect("len > 1");
            parent[a.idx as usize] = next;
            parent[b.idx as usize] = next;
            heap.push(Node { weight: a.weight + b.weight, seq, idx: next });
            next += 1;
            seq += 1;
        }
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(sym, _))| {
                let mut len = 0u8;
                let mut node = i as u32;
                while parent[node as usize] != u32::MAX {
                    node = parent[node as usize];
                    len += 1;
                }
                (sym, len.max(1))
            })
            .collect()
    }

    /// Assigns canonical codes: symbols sorted by (length, symbol) receive
    /// consecutive codes per length.
    pub(super) fn canonical_codes(mut items: Vec<(u32, u8)>) -> Vec<(u32, u8, u64)> {
        items.sort_unstable_by_key(|&(s, l)| (l, s));
        let mut out = Vec::with_capacity(items.len());
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for (sym, len) in items {
            code <<= len - prev_len;
            out.push((sym, len, code));
            code += 1;
            prev_len = len;
        }
        out
    }

    /// The encode loop [`EncodeTable::encode`] replaced: one code at a time
    /// into a [`BitWriter`], which spills a word whenever 32 bits are
    /// pending.
    pub(super) fn encode(table: &EncodeTable, symbols: &[u32]) -> Option<Vec<u8>> {
        let (lo, dense) = (table.lo, table.dense.as_slice());
        let mut bits = BitWriter::with_capacity(symbols.len() / 4);
        for &sym in symbols {
            match dense.get(sym.wrapping_sub(lo) as usize) {
                Some(&(len, code)) if len != 0 => bits.write_code(code, len),
                _ => {
                    let at = table.outliers.binary_search_by_key(&sym, |&(s, _, _)| s).ok()?;
                    bits.write_code(table.outliers[at].2, table.outliers[at].1);
                }
            }
        }
        Some(bits.into_bytes())
    }

    /// The one-symbol-a-probe decode loop the multi-symbol ones replaced.
    pub(super) fn decode_payload(table: &DecodeTable, count: usize, payload: &[u8]) -> Result<Vec<u32>, SzError> {
        let mut out = vec![0u32; count];
        let mut reader = BitReader::new(payload);
        for slot in &mut out {
            // Short codes resolve with one LUT probe. The peek is zero-padded
            // past the end of the stream, which is safe: a valid code is a
            // prefix of every padded extension, so the probe lands on the
            // right entry, and `loaded` guards against over-consuming. Only
            // within the stream's last bytes can it fall below a code length.
            let (prefix, loaded) = reader.peek_bits(LUT_BITS);
            let (sym, len) = table.lut[prefix as usize];
            *slot = if len == 0 {
                table.walk(&mut reader)?
            } else if len as u32 <= loaded {
                reader.consume(len as u32);
                sym
            } else {
                return Err(corrupt("bit stream exhausted"));
            };
        }
        Ok(out)
    }

    /// `table[sym] = (len, code)` from symbol 0 up; `len == 0` means the
    /// symbol has no code.
    pub(super) fn dense_encode_table(canon: &[(u32, u8, u64)]) -> Vec<(u8, u64)> {
        let max_sym = canon.iter().map(|&(s, _, _)| s).max().expect("nonempty");
        let mut table = vec![(0u8, 0u64); max_sym as usize + 1];
        for &(sym, len, code) in canon {
            table[sym as usize] = (len, code);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_small() {
        let syms = vec![5u32, 5, 5, 7, 7, 1, 5, 9, 9, 9, 9];
        let enc = huffman_encode(&syms);
        assert_eq!(huffman_decode(&enc).unwrap(), syms);
    }

    #[test]
    fn round_trip_empty() {
        let enc = huffman_encode(&[]);
        assert_eq!(huffman_decode(&enc).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn round_trip_single_symbol_run() {
        let syms = vec![42u32; 1000];
        let enc = huffman_encode(&syms);
        assert_eq!(huffman_decode(&enc).unwrap(), syms);
        // 1000 identical symbols should compress to well under 1000 bytes.
        assert!(enc.len() < 200, "got {}", enc.len());
    }

    #[test]
    fn round_trip_large_alphabet() {
        let syms: Vec<u32> = (0..5000u32).map(|i| (i * i) % 700).collect();
        let enc = huffman_encode(&syms);
        assert_eq!(huffman_decode(&enc).unwrap(), syms);
    }

    #[test]
    fn skewed_distribution_compresses_well() {
        // 95% zeros: entropy ≈ 0.29 bits/symbol.
        let mut syms = vec![0u32; 9500];
        syms.extend((0..500u32).map(|i| 1 + i % 30));
        let enc = huffman_encode(&syms);
        assert_eq!(huffman_decode(&enc).unwrap(), syms);
        assert!(enc.len() < 10000 / 4, "compressed to {} bytes", enc.len());
    }

    #[test]
    fn truncated_stream_is_detected() {
        let syms = vec![1u32, 2, 3, 4, 5, 1, 2, 3];
        let enc = huffman_encode(&syms);
        assert!(huffman_decode(&enc[..enc.len() - 1]).is_err());
        assert!(huffman_decode(&enc[..3]).is_err());
    }

    #[test]
    fn lengths_satisfy_kraft_inequality() {
        let mut freqs = HashMap::new();
        for i in 0u32..100 {
            freqs.insert(i, (i as u64 + 1) * 7 % 97 + 1);
        }
        let lengths = code_lengths(&freqs);
        let kraft: f64 = lengths.values().map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft sum {kraft}");
    }

    #[test]
    fn encoded_share_sums_to_one() {
        let syms = vec![0u32, 0, 0, 1, 1, 2];
        let share = encoded_share(&syms);
        let sum: f64 = share.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(share[&0] > share[&2]);
    }

    #[test]
    fn fibonacci_like_frequencies_stay_within_max_len() {
        // Fibonacci frequencies force maximal tree depth; the flattening
        // fallback must cap lengths at MAX_CODE_LEN.
        let mut freqs = HashMap::new();
        let (mut a, mut b) = (1u64, 1u64);
        for i in 0..80u32 {
            freqs.insert(i, a);
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let lengths = code_lengths(&freqs);
        assert!(lengths.values().all(|&l| l <= MAX_CODE_LEN));
        // Must still be decodable end-to-end.
        let syms: Vec<u32> = (0..80u32).collect();
        let enc = huffman_encode(&syms);
        assert_eq!(huffman_decode(&enc).unwrap(), syms);
    }

    #[test]
    fn shared_table_round_trips_foreign_streams() {
        // Table built from one chunk's histogram encodes other chunks whose
        // symbols it covers.
        let chunk0: Vec<u32> = (0..2000u32).map(|i| i % 50).collect();
        let chunk1: Vec<u32> = (0..1500u32).map(|i| (i * 7) % 50).collect();
        let table = HuffmanTable::from_symbols(&chunk0).unwrap();
        let enc = table.encode_stream(&chunk1).unwrap();
        assert_eq!(table.decode_stream(&enc).unwrap(), chunk1);
    }

    #[test]
    fn escaping_symbol_rejects_shared_encode() {
        let table = HuffmanTable::from_symbols(&[1, 2, 3, 1, 2, 1]).unwrap();
        assert!(table.encode_stream(&[1, 2, 99]).is_none());
        assert!(table.encode_stream(&[1, 2, 3]).is_some());
    }

    #[test]
    fn codes_longer_than_lut_bits_decode_via_slow_path() {
        // Fibonacci-ish weights push many code lengths past LUT_BITS.
        let mut syms = Vec::new();
        let mut f = 1u64;
        for i in 0..24u32 {
            for _ in 0..f.min(100_000) {
                syms.push(i);
            }
            f = f.saturating_mul(2);
        }
        let table = HuffmanTable::from_symbols(&syms).unwrap();
        assert!(table.by_symbol.iter().any(|&(_, l, _)| l > LUT_BITS), "test needs codes beyond the LUT");
        let sample: Vec<u32> = (0..24u32).cycle().take(500).collect();
        let enc = table.encode_stream(&sample).unwrap();
        assert_eq!(table.decode_stream(&enc).unwrap(), sample);
    }

    /// A complete code with one symbol per length `1..=31` and two of length
    /// [`MAX_CODE_LEN`]: symbol `k` has `k + 1` bits (symbol 32 has 32).
    fn full_depth_table() -> HuffmanTable {
        let lengths: Vec<(u32, u8)> = (0..33u32).map(|s| (s, (s as u8 + 1).min(MAX_CODE_LEN))).collect();
        HuffmanTable::from_lengths(lengths).unwrap()
    }

    #[test]
    fn maximum_length_codes_round_trip_at_every_word_alignment() {
        let table = full_depth_table();
        for lead in 0..64usize {
            // `lead` one-bit symbols shift everything after them by one bit
            // each, so the 32-bit codes straddle the reader's and writer's
            // word boundary at every offset; mid-length codes in between take
            // the LUT (<= LUT_BITS) and the walk (> LUT_BITS) in turn.
            let mut symbols = vec![0u32; lead];
            symbols.extend([31, 32, 5, 31, 12, 13, 32, 32, 0, 30, 11, 31]);
            let enc = table.encode_stream(&symbols).unwrap();
            let encode = table.encode.get().expect("built by the encode");
            assert_eq!(enc[16..], reference::encode(encode, &symbols).unwrap(), "lead {lead}");
            let bits: usize = symbols.iter().map(|&s| (s as usize + 1).min(32)).sum();
            assert_eq!(enc.len(), 16 + bits.div_ceil(8), "lead {lead}");
            assert_eq!(table.decode_stream(&enc).unwrap(), symbols, "lead {lead}");
            // Dropping payload bytes must surface as an error, not as symbols.
            for cut in 16..enc.len() {
                let mut short = enc[..cut].to_vec();
                short[8..16].copy_from_slice(&((cut - 16) as u64).to_le_bytes());
                assert!(table.decode_stream(&short).is_err(), "lead {lead} cut {cut}");
            }
        }
    }

    #[test]
    fn every_code_length_survives_the_packed_layout() {
        let table = full_depth_table();
        let mut packed = Vec::new();
        table.write_packed(&mut packed);
        assert_eq!(packed.len(), 1 + 33, "side by side: one byte a symbol");
        assert_eq!(parse_packed_table(&packed, &mut 0).unwrap().unwrap().by_symbol, table.by_symbol);
        let symbols: Vec<u32> = (0..33).rev().chain(0..33).collect();
        packed.extend_from_slice(&table.encode_stream(&symbols).unwrap());
        assert_eq!(huffman_decode(&packed).unwrap(), symbols);
    }

    #[test]
    fn histogram_matches_a_plain_count_for_every_window_shape() {
        let plain = |symbols: &[u32]| -> Vec<(u32, u64)> {
            let mut counts = std::collections::BTreeMap::new();
            for &s in symbols {
                *counts.entry(s).or_insert(0u64) += 1;
            }
            counts.into_iter().collect()
        };
        let mut state = 11u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        // Narrow windows far from zero (interleaved tables), one wider than
        // INTERLEAVE_WINDOW (single table), one past DENSE_LIMIT (sorted map);
        // lengths around the 4-symbol block size, long runs of one symbol.
        for (base, span) in
            [(32_768u32, 1u32), (32_700, 200), (0, 70_000), (5, INTERLEAVE_WINDOW as u32), (DENSE_LIMIT - 3, 10)]
        {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 1000, 4099] {
                let symbols: Vec<u32> =
                    (0..len).map(|i| if i % 3 == 0 { base + span / 2 } else { base + next() % span }).collect();
                assert_eq!(freq_pairs(&symbols), plain(&symbols), "base {base} span {span} len {len}");
            }
        }
    }

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    #[test]
    fn radix_sorted_leaves_match_the_comparison_sort() {
        let mut next = lcg(9);
        for n in [0usize, 1, 2, 3, 255, 256, 257, 1000] {
            for bits in [1u32, 8, 9, 16, 17, 40, 64] {
                let leaves: Vec<(u64, u32)> = (0..n as u32)
                    .map(|i| {
                        let w = next() << 32 ^ next();
                        (if bits == 64 { w } else { w & ((1 << bits) - 1) }, i)
                    })
                    .collect();
                let mut want = leaves.clone();
                want.sort_unstable();
                assert_eq!(sort_leaves(leaves), want, "{n} leaves of {bits}-bit weights");
            }
        }
    }

    #[test]
    fn two_queue_lengths_match_the_heap_build() {
        let mut next = lcg(5);
        let mut histograms: Vec<Vec<(u32, u64)>> = Vec::new();
        // Heavy ties: weights from a handful of values, so the pop order is
        // settled by the tie-break almost everywhere — among leaves, among
        // merged nodes, and between the two.
        for n in [2usize, 3, 4, 5, 8, 31, 64, 257, 1000] {
            for distinct_weights in [1u64, 2, 3, 7] {
                histograms.push((0..n as u32).map(|s| (s * 3, 1 + next() % distinct_weights)).collect());
            }
            // Powers of two: every merge ties with a leaf or a merged node.
            histograms.push((0..n as u32).map(|s| (s, 1u64 << (next() % 12))).collect());
            // A bell over a quantizer's codes with a far outlier at each end.
            let mut bell: Vec<(u32, u64)> = (0..n as u32)
                .map(|s| (32_768 + s, 1 + (1u64 << 20) / (1 + (s as u64).abs_diff(n as u64 / 2).pow(2))))
                .collect();
            bell.insert(0, (0, 1));
            bell.push((60_000, 1));
            histograms.push(bell);
        }
        // Fibonacci growth wants codes deeper than 32 bits: the flatten path.
        let (mut a, mut b) = (1u64, 1u64);
        histograms.push(
            (0..70u32)
                .map(|s| {
                    let f = a;
                    (a, b) = (b, a.saturating_add(b));
                    (s, f)
                })
                .collect(),
        );
        for pairs in &histograms {
            for flatten in [0u32, 4, 8, 40] {
                assert_eq!(
                    build_lengths(pairs, flatten),
                    reference::build_lengths(pairs, flatten),
                    "flatten {flatten}: {pairs:?}"
                );
            }
        }
        let deep = histograms.last().expect("pushed above");
        assert!(build_lengths(deep, 0).iter().any(|&(_, l)| l > MAX_CODE_LEN), "test needs the flatten path");
        assert!(lengths_from_pairs(deep).iter().all(|&(_, l)| l <= MAX_CODE_LEN));
        assert_eq!(lengths_from_pairs(&[(9, 1000)]), vec![(9, 1)], "one symbol");
    }

    #[test]
    fn tables_sized_by_their_symbols_match_the_from_zero_dense_table() {
        let mut next = lcg(23);
        // A cluster around the radius, with and without: the escape marker at
        // symbol 0, a code far below the cluster, one far past it (beyond any
        // window the sample could place), and a sparse far tail.
        let cluster: Vec<u32> =
            (0..20_000).map(|_| 32_768 + (next() % 40 + next() % 40 + next() % 300) as u32).collect();
        let mut with_outliers = cluster.clone();
        with_outliers[0] = 13_000;
        with_outliers[777] = 0;
        with_outliers[19_999] = 4_000_000;
        let mut sparse_tail = with_outliers.clone();
        for k in 0..200 {
            sparse_tail[k * 97 + 1] = 34_000 + (next() % 30_000) as u32;
        }
        let top = vec![u32::MAX - 1, u32::MAX, u32::MAX, u32::MAX - 5];
        let streams =
            [vec![32_768], vec![0, 32_768], cluster, with_outliers, sparse_tail, vec![7, u32::MAX, 7, 0], top];
        for symbols in &streams {
            let context = format!("{} symbols from {:?}…", symbols.len(), &symbols[..symbols.len().min(4)]);
            let mut plain = std::collections::BTreeMap::new();
            for &s in symbols {
                *plain.entry(s).or_insert(0u64) += 1;
            }
            let pairs = freq_pairs(symbols);
            assert_eq!(pairs, plain.into_iter().collect::<Vec<_>>(), "{context}");

            let lengths = lengths_from_pairs(&pairs);
            let table = HuffmanTable::from_lengths(lengths.clone()).unwrap();
            let canon = reference::canonical_codes(lengths);
            let mut by_symbol = canon.clone();
            by_symbol.sort_unstable_by_key(|&(s, _, _)| s);
            assert_eq!(table.by_symbol, by_symbol, "{context}");

            // The encoder writes for a symbol what the table indexed from
            // zero held for it, or refuses it: probed at every symbol of the
            // table, both its neighbours, and a stride over everything from 0
            // to past the last one (up to `DENSE_LIMIT`).
            let encode = table.encode.get_or_init(|| EncodeTable::build(&table.by_symbol));
            assert!(encode.dense.len() <= DENSE_SLACK * by_symbol.len(), "{context}: {} slots", encode.dense.len());
            // The replaced lookup: symbol-indexed from zero below
            // `DENSE_LIMIT`, sorted pairs past it.
            let (low, high) = by_symbol.split_at(by_symbol.partition_point(|&(s, _, _)| s < DENSE_LIMIT));
            let dense = if low.is_empty() { Vec::new() } else { reference::dense_encode_table(low) };
            let last = by_symbol.last().expect("nonempty").0;
            let probes = canon
                .iter()
                .flat_map(|&(s, _, _)| [s.saturating_sub(1), s, s.saturating_add(1)])
                .chain((0..=last.min(DENSE_LIMIT)).step_by(997));
            for sym in probes {
                let expected = match dense.get(sym as usize) {
                    Some(&(len, code)) => (len != 0).then_some((len, code)),
                    None => high.binary_search_by_key(&sym, |&(s, _, _)| s).ok().map(|at| (high[at].1, high[at].2)),
                };
                let written = expected.map(|(len, code)| {
                    let mut bits = crate::encode::BitWriter::with_capacity(8);
                    bits.write_code(code, len);
                    bits.into_bytes()
                });
                assert_eq!(
                    table.encode_stream(&[sym]).map(|stream| stream[16..].to_vec()),
                    written,
                    "{context}: {sym}"
                );
            }

            // A table that arrived packed builds its encode half on demand
            // and writes the same stream; both decode it.
            let mut packed = Vec::new();
            table.write_packed(&mut packed);
            let received = parse_packed_table(&packed, &mut 0).unwrap().expect("nonempty");
            let stream = table.encode_stream(symbols).unwrap();
            assert_eq!(received.encode_stream(symbols).unwrap(), stream, "{context}");
            assert_eq!(received.decode_stream(&stream).unwrap(), *symbols, "{context}");
            assert_eq!(table.decode_stream(&stream).unwrap(), *symbols, "{context}");
        }
    }

    #[test]
    fn sparse_alphabet_above_dense_limit_round_trips() {
        // Symbols past DENSE_LIMIT exercise the sorted-lookup encode table.
        let syms = vec![u32::MAX, 0, u32::MAX - 7, 0, u32::MAX, 5_000_000];
        let enc = huffman_encode(&syms);
        assert_eq!(huffman_decode(&enc).unwrap(), syms);
        let table = HuffmanTable::from_symbols(&syms).unwrap();
        let stream = table.encode_stream(&syms).unwrap();
        assert_eq!(table.decode_stream(&stream).unwrap(), syms);
    }

    #[test]
    fn packed_table_bytes_are_pinned() {
        // The module docs' example: a skip of zero, one that needs a
        // three-byte varint, and one that just misses the three-bit field.
        let lengths = vec![(0u32, 4u8), (32_766, 3), (32_767, 1), (32_768, 2), (32_776, 4)];
        let table = HuffmanTable::from_lengths(lengths).unwrap();
        let mut bytes = Vec::new();
        table.write_packed(&mut bytes);
        assert_eq!(bytes, [0x05, 0x03, 0xe2, 0xf6, 0xff, 0x01, 0x00, 0x01, 0xe3, 0x00]);
        let mut pos = 0;
        let back = parse_packed_table(&bytes, &mut pos).unwrap().unwrap();
        assert_eq!((pos, &back.by_symbol), (bytes.len(), &table.by_symbol));

        // The ends of the symbol range, the second a full-width skip away:
        // six bytes, the worst an entry can cost.
        let ends = HuffmanTable::from_lengths(vec![(0, 1), (u32::MAX, 32)]).unwrap();
        let mut bytes = Vec::new();
        ends.write_packed(&mut bytes);
        assert_eq!(bytes, [0x02, 0x00, 0xff, 0xf7, 0xff, 0xff, 0xff, 0x0f]);
        assert_eq!(parse_packed_table(&bytes, &mut 0).unwrap().unwrap().by_symbol, ends.by_symbol);

        // No symbols: one byte of table, and a stream that says so.
        assert_eq!(huffman_encode(&[]), [0u8; 17]);
        assert!(parse_packed_table(&[0], &mut 0).unwrap().is_none());
    }

    #[test]
    fn packed_parser_rejects_what_the_writer_cannot_have_written() {
        let message = |bytes: &[u8]| match parse_packed_table(bytes, &mut 0) {
            Err(SzError::CorruptStream(m)) => m,
            other => panic!("{bytes:02x?}: expected CorruptStream, got {other:?}"),
        };
        // Cut anywhere, a valid table is a truncated one.
        let whole = [0x05, 0x03, 0xe2, 0xf6, 0xff, 0x01, 0x00, 0x01, 0xe3, 0x00];
        for cut in 0..whole.len() {
            let m = message(&whole[..cut]);
            assert!(m.contains("truncated") || m.contains("larger than stream"), "cut {cut}: {m}");
        }
        // More entries than bytes: refused before anything is allocated,
        // however large the count (here 2⁶³).
        assert!(message(&[0x03, 0x00, 0x00]).contains("larger than stream"));
        assert!(message(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]).contains("larger than stream"));
        // Varints: padded (the count, then a skip), longer than ten bytes,
        // past 64 bits.
        assert!(message(&[0x81, 0x00, 0x00]).contains("padded"));
        assert!(message(&[0x01, 0xe0, 0x80, 0x00]).contains("padded"));
        assert!(
            message(&[0x01, 0xe0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x00]).contains("ten")
        );
        assert!(message(&[0x01, 0xe0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]).contains("64 bits"));
        // Symbols past the 32-bit range: by one (u32::MAX, then any entry at
        // all), by a skip of 2³² − 7 + 7, by a skip of u64::MAX.
        assert!(message(&[0x02, 0xe0, 0xf8, 0xff, 0xff, 0xff, 0x0f, 0x00]).contains("32-bit"));
        assert!(message(&[0x01, 0xe0, 0xf9, 0xff, 0xff, 0xff, 0x0f]).contains("32-bit"));
        assert!(message(&[0x01, 0xe0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]).contains("32-bit"));
        // The last symbol there is parses.
        let top = parse_packed_table(&[0x01, 0xe0, 0xf8, 0xff, 0xff, 0xff, 0x0f], &mut 0).unwrap().unwrap();
        assert_eq!(top.by_symbol, [(u32::MAX, 1, 0)]);
    }

    #[test]
    fn packed_and_bare_streams_name_a_short_payload_the_same() {
        let syms = vec![1u32, 2, 3, 4, 5, 1, 2, 3];
        let table = HuffmanTable::from_symbols(&syms).unwrap();
        let stream = table.encode_stream(&syms).unwrap();
        let short = |r: Result<Vec<u32>, SzError>| match r {
            Err(SzError::CorruptStream(m)) => m,
            other => panic!("expected CorruptStream, got {other:?}"),
        };
        let expected = "huffman: truncated payload";
        assert_eq!(short(table.decode_stream(&stream[..stream.len() - 1])), expected);
        let packed = huffman_encode(&syms);
        assert_eq!(short(huffman_decode(&packed[..packed.len() - 1])), expected);
    }

    use proptest::prelude::*;

    /// Strictly ascending symbol sets whose skips sit on the packed layout's
    /// edges: the three-bit field (6 / 7 / 8), each varint length (`skip − 7`
    /// at 127 / 128, 2¹⁴, 2²¹, 2²⁸), symbols 0 and `u32::MAX`, alphabets
    /// past `DENSE_LIMIT`.
    fn edge_symbols(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
        let around = |at: u64| at - 2..at + 3;
        let skip = prop_oneof![
            4 => 0u64..3,
            2 => 5u64..10,
            1 => around(SKIP_ESCAPE + (1 << 7)),
            1 => around(1 << 7),
            1 => around(SKIP_ESCAPE + (1 << 14)),
            1 => around(SKIP_ESCAPE + (1 << 21)),
            1 => around(SKIP_ESCAPE + (1 << 28)),
            1 => around(1 << 28),
            1 => 0u64..1 << 32,
        ];
        (prop::collection::vec(skip, 1..max_len), any::<bool>(), any::<bool>()).prop_map(
            |(skips, from_zero, to_top)| {
                let mut symbols = Vec::new();
                let mut next = 0u64;
                for (i, skip) in skips.into_iter().enumerate() {
                    let sym = next + if i == 0 && from_zero { 0 } else { skip };
                    if sym > u32::MAX as u64 {
                        break;
                    }
                    symbols.push(sym as u32);
                    next = sym + 1;
                }
                if to_top && symbols.last() != Some(&u32::MAX) {
                    symbols.push(u32::MAX);
                }
                symbols
            },
        )
    }

    /// Deterministic skewed symbol stream: `skew > 1` concentrates mass on
    /// low symbols (deep codes for the tail), `skew = 1` is uniform.
    fn skewed_stream(n_syms: usize, len: usize, seed: u64, skew: f64) -> Vec<u32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                ((u.powf(skew) * n_syms as f64) as usize).min(n_syms - 1) as u32
            })
            .collect()
    }

    /// A random table — complete, or with symbols dropped so the code has
    /// holes, with codes past the LUT or not — a stream of `len` of its
    /// symbols, and the generator, to draw more with.
    fn random_table_and_stream(
        n_syms: usize,
        skew: f64,
        len: usize,
        dropped: usize,
        seed: u64,
    ) -> (HuffmanTable, Vec<u32>, impl FnMut() -> u64) {
        let mut next = lcg(seed);
        let base = (next() % 40_000) as u32;
        let stride = 1 + (next() % 3) as u32;
        let universe: Vec<u32> =
            skewed_stream(n_syms, 4 * n_syms + 64, seed, skew).into_iter().map(|s| base + s * stride).collect();
        let mut lengths = lengths_from_pairs(&freq_pairs(&universe));
        for _ in 0..dropped.min(lengths.len().saturating_sub(1)) {
            lengths.remove((next() % lengths.len() as u64) as usize);
        }
        let table = HuffmanTable::from_lengths(lengths.clone()).unwrap();
        let alphabet: Vec<u32> = lengths.iter().map(|&(s, _)| s).collect();
        let symbols: Vec<u32> = (0..len)
            .map(|_| {
                // Squaring skews towards the first symbols: short codes.
                let u = next() as f64 / (1u64 << 31) as f64;
                alphabet[((u * u * alphabet.len() as f64) as usize).min(alphabet.len() - 1)]
            })
            .collect();
        (table, symbols, next)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        // Four probes a refill, up to two codes a probe and no per-symbol
        // check decode what one symbol a probe decodes, on a
        // `random_table_and_stream` — codes past the LUT at every alignment
        // of the refill included (a skew of 12 over 300 symbols makes them) —
        // the stream whole, cut at every byte, followed by more symbols than
        // were written, and made of noise. The same symbols, or the same
        // error.
        #[test]
        fn multi_symbol_decode_matches_one_symbol_a_probe(
            n_syms in prop_oneof![Just(1usize), Just(2), Just(5), Just(40), Just(300), Just(3000)],
            skew in prop_oneof![Just(1.0f64), Just(3.0), Just(12.0)],
            len in 0usize..1200,
            dropped in prop_oneof![Just(0usize), Just(1), Just(7)],
            seed in any::<u64>(),
        ) {
            let (table, symbols, mut next) = random_table_and_stream(n_syms, skew, len, dropped, seed);
            let payload = table.encode_stream(&symbols).unwrap()[16..].to_vec();
            let decode = table.decode.get_or_init(|| DecodeTable::build(&table.by_symbol));
            let both = |count: usize, payload: &[u8]| {
                (decode.decode(count, payload), reference::decode_payload(decode, count, payload))
            };
            let (fast, single) = both(len, &payload);
            prop_assert_eq!(&fast, &Ok(symbols.clone()));
            prop_assert_eq!(fast, single);
            for cut in 0..payload.len() {
                let (fast, single) = both(len, &payload[..cut]);
                prop_assert_eq!(fast, single, "cut at {}", cut);
            }
            let (fast, single) = both(len + 5, &payload);
            prop_assert_eq!(fast, single, "five symbols more than written");
            let noise: Vec<u8> = (0..len / 2 + 8).map(|_| next() as u8).collect();
            let (fast, single) = both(len + 8, &noise);
            prop_assert_eq!(fast, single, "noise");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Several codes a flush write the bytes one code at a time writes,
        // and refuse the same streams: a symbol the table lacks, at a random
        // place, makes both `None`.
        #[test]
        fn flushed_encode_matches_one_code_at_a_time(
            n_syms in prop_oneof![Just(1usize), Just(2), Just(5), Just(40), Just(300), Just(3000)],
            skew in prop_oneof![Just(1.0f64), Just(3.0), Just(12.0)],
            len in 0usize..1200,
            dropped in prop_oneof![Just(0usize), Just(1), Just(7)],
            seed in any::<u64>(),
        ) {
            let (table, mut symbols, mut next) = random_table_and_stream(n_syms, skew, len, dropped, seed);
            let encode = table.encode.get_or_init(|| EncodeTable::build(&table.by_symbol));
            let written = encode.encode(&symbols);
            prop_assert_eq!(&written, &reference::encode(encode, &symbols));
            prop_assert!(written.is_some());
            if !symbols.is_empty() {
                let at = (next() % symbols.len() as u64) as usize;
                symbols[at] = u32::MAX - (next() % 3) as u32;
                prop_assert_eq!(encode.encode(&symbols), reference::encode(encode, &symbols));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Random symbol streams — including single-symbol alphabets — must
        // round-trip bit-exactly through a table built from their own
        // histogram, and through a packed copy of it (chunks carry their
        // tables as bytes, so the parsed table must produce the identical
        // bitstream).
        #[test]
        fn random_streams_round_trip_shared_tables(
            n_syms in prop_oneof![Just(1usize), Just(2), Just(7), Just(40), Just(300)],
            len in 1usize..3000,
            seed in any::<u64>(),
            skew in prop_oneof![Just(1.0f64), Just(2.0), Just(8.0)],
        ) {
            let symbols = skewed_stream(n_syms, len, seed, skew);
            let table = HuffmanTable::from_symbols(&symbols).unwrap();
            let enc = table.encode_stream(&symbols).expect("own symbols always encodable");
            prop_assert_eq!(table.decode_stream(&enc).unwrap(), symbols.clone());
            let mut packed = Vec::new();
            table.write_packed(&mut packed);
            let rebuilt = parse_packed_table(&packed, &mut 0).unwrap().expect("nonempty");
            prop_assert_eq!(&rebuilt.by_symbol, &table.by_symbol);
            let enc2 = rebuilt.encode_stream(&symbols).expect("rebuilt table covers the alphabet");
            prop_assert_eq!(&enc2, &enc);
            prop_assert_eq!(rebuilt.decode_stream(&enc).unwrap(), symbols);
        }

        // Fibonacci-growth histograms want codes deeper than MAX_CODE_LEN;
        // the flatten must keep every length legal and the flattened table
        // must still round-trip arbitrary streams over its alphabet.
        #[test]
        fn flattened_deep_tables_round_trip(
            n_syms in 34usize..60,
            len in 1usize..500,
            seed in any::<u64>(),
        ) {
            let mut pairs: Vec<(u32, u64)> = Vec::with_capacity(n_syms);
            let (mut a, mut b) = (1u64, 1u64);
            for sym in 0..n_syms as u32 {
                pairs.push((sym, a));
                let next = a.saturating_add(b);
                a = b;
                b = next;
            }
            let lengths = lengths_from_pairs(&pairs);
            prop_assert!(lengths.iter().all(|&(_, l)| (1..=MAX_CODE_LEN).contains(&l)));
            let table = HuffmanTable::from_lengths(lengths).unwrap();
            let symbols = skewed_stream(n_syms, len, seed, 4.0);
            let enc = table.encode_stream(&symbols).expect("alphabet covered");
            prop_assert_eq!(table.decode_stream(&enc).unwrap(), symbols);
        }

        // A symbol outside a table's alphabet must refuse that table's encode;
        // the self-describing stream, whose table is its own, round-trips it.
        #[test]
        fn foreign_symbols_escape_to_local(
            n_syms in 2usize..100,
            len in 1usize..500,
            seed in any::<u64>(),
        ) {
            let shared = HuffmanTable::from_symbols(&(0..n_syms as u32).collect::<Vec<_>>()).unwrap();
            let mut symbols = skewed_stream(n_syms, len, seed, 1.0);
            symbols.push(n_syms as u32); // not in the shared alphabet
            prop_assert!(shared.encode_stream(&symbols).is_none());
            let local = huffman_encode(&symbols);
            prop_assert_eq!(huffman_decode(&local).unwrap(), symbols);
        }

        // Any (symbol, length) set — complete code or not — is the same
        // table after the packed layout, takes one byte a symbol plus its
        // skips' varints, and has one encoding.
        #[test]
        fn packed_layout_round_trips_any_lengths(
            symbols in edge_symbols(120),
            seed in any::<u64>(),
        ) {
            let mut next = lcg(seed);
            let lengths: Vec<(u32, u8)> = symbols.iter().map(|&s| (s, 1 + (next() % 32) as u8)).collect();
            let table = HuffmanTable::from_lengths(lengths).unwrap();
            let mut packed = Vec::new();
            table.write_packed(&mut packed);
            let mut pos = 0usize;
            let back = parse_packed_table(&packed, &mut pos).unwrap().expect("nonempty");
            prop_assert_eq!(pos, packed.len());
            prop_assert_eq!(&back.by_symbol, &table.by_symbol);
            let mut again = Vec::new();
            back.write_packed(&mut again);
            prop_assert_eq!(&again, &packed);
            let varint_len = |v: u64| (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
            let skips = symbols.iter().scan(0u64, |next, &s| {
                let skip = s as u64 - *next;
                *next = s as u64 + 1;
                Some(skip)
            });
            let expected: usize =
                skips.map(|skip| if skip < SKIP_ESCAPE { 1 } else { 1 + varint_len(skip - SKIP_ESCAPE) }).sum();
            prop_assert_eq!(packed.len(), varint_len(symbols.len() as u64) + expected);
            prop_assert!(packed.len() <= 1 + 6 * symbols.len());
        }

        // A self-describing stream is its table, packed, then exactly the
        // code bits the table writes.
        #[test]
        fn packed_streams_are_their_table_then_its_code_bits(
            symbols in edge_symbols(60),
            len in 1usize..400,
            seed in any::<u64>(),
        ) {
            let mut next = lcg(seed);
            let stream: Vec<u32> = (0..len).map(|_| {
                // Squaring skews towards the first symbols: unequal lengths.
                let u = next() as f64 / (1u64 << 31) as f64;
                symbols[((u * u * symbols.len() as f64) as usize).min(symbols.len() - 1)]
            }).collect();
            let table = HuffmanTable::from_symbols(&stream).unwrap();
            let mut packed = Vec::new();
            table.write_packed(&mut packed);
            let table_bytes = packed.len();
            let bits = table.encode_stream(&stream).expect("table covers the stream");
            packed.extend_from_slice(&bits);
            prop_assert_eq!(huffman_decode(&packed).unwrap(), stream.clone());
            let (written, written_table_bytes) = huffman_encode_counted(&stream, &freq_pairs(&stream));
            prop_assert_eq!((&written, written_table_bytes), (&packed, table_bytes));
        }
    }
}
