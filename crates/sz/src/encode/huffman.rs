//! Canonical Huffman coding over `u32` symbols (quantization bins).
//!
//! The encoder serializes a compact code-length table (distinct symbols are
//! sparse within the 2·radius alphabet) followed by the MSB-first bit stream.
//! Canonical code assignment makes decoding table-driven and keeps the header
//! small.
//!
//! Internally the coder works on dense `Vec`-indexed tables rather than hash
//! maps: the alphabet is bounded by 2·radius (+ RLE escape symbols), so symbol
//! lookup is a single indexed load on both the frequency-count and encode hot
//! paths. Decoding runs through a prefix LUT that resolves codes of up to
//! `LUT_BITS` bits in one probe, falling back to the canonical per-length
//! walk for longer codes.
//!
//! [`HuffmanTable`] exposes the table/stream halves separately so one
//! canonical table can be built once per job and shared across chunks; the
//! self-describing [`huffman_encode`]/[`huffman_decode`] pair layers the two
//! halves back together and its byte format is unchanged.

use std::collections::{BTreeMap, HashMap};

use crate::encode::bitio::{BitReader, BitWriter};
use crate::error::SzError;

/// Maximum admitted code length. Frequencies are flattened and the tree is
/// rebuilt if the optimal tree would exceed this (only possible for highly
/// skewed distributions over large alphabets).
pub const MAX_CODE_LEN: u8 = 32;

/// Codes up to this many bits resolve through a single table probe when
/// decoding; longer codes use the per-length canonical walk.
const LUT_BITS: u8 = 12;

/// Largest symbol value for which the dense (symbol-indexed) count and encode
/// tables are used; sparser alphabets above this fall back to sorted lookup so
/// pathological symbol values cannot trigger huge allocations.
const DENSE_LIMIT: u32 = 1 << 22;

fn corrupt(m: &str) -> SzError {
    SzError::CorruptStream(format!("huffman: {m}"))
}

/// Widest `[min, max]` symbol window counted in four interleaved tables (at
/// 8 bytes a counter they then take what one table over the usual
/// 2·radius alphabet did); wider windows count in one.
const INTERLEAVE_WINDOW: usize = 1 << 14;

/// Counts symbol frequencies, returning `(symbol, freq)` pairs sorted by
/// symbol.
///
/// Only the occupied `[min, max]` window is zeroed and scanned — quantization
/// codes cluster around the radius — and consecutive symbols go to different
/// tables, so a long run of the centre code does not serialise on one
/// counter's store-to-load round trip.
pub(crate) fn freq_pairs(symbols: &[u32]) -> Vec<(u32, u64)> {
    if symbols.is_empty() {
        return Vec::new();
    }
    let (min_sym, max_sym) = symbols.iter().fold((u32::MAX, 0u32), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    if max_sym >= DENSE_LIMIT {
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for &s in symbols {
            *counts.entry(s).or_insert(0) += 1;
        }
        return counts.into_iter().collect();
    }
    let window = (max_sym - min_sym) as usize + 1;
    let lanes = if window <= INTERLEAVE_WINDOW { 4 } else { 1 };
    let mut counts = vec![0u64; window * lanes];
    if lanes == 1 {
        for &s in symbols {
            counts[(s - min_sym) as usize] += 1;
        }
    } else {
        let (t0, rest) = counts.split_at_mut(window);
        let (t1, rest) = rest.split_at_mut(window);
        let (t2, t3) = rest.split_at_mut(window);
        let mut quads = symbols.chunks_exact(4);
        for quad in &mut quads {
            t0[(quad[0] - min_sym) as usize] += 1;
            t1[(quad[1] - min_sym) as usize] += 1;
            t2[(quad[2] - min_sym) as usize] += 1;
            t3[(quad[3] - min_sym) as usize] += 1;
        }
        for &s in quads.remainder() {
            t0[(s - min_sym) as usize] += 1;
        }
        for i in 0..window {
            t0[i] += t1[i] + t2[i] + t3[i];
        }
    }
    counts[..window].iter().zip(min_sym..).filter(|&(&f, _)| f > 0).map(|(&f, s)| (s, f)).collect()
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

/// One round of Huffman tree construction with optional frequency flattening
/// (`freq >> flatten | 1`), returning code lengths sorted by symbol.
///
/// `pairs` must be sorted by symbol: leaf seeding order is the tie-breaker
/// that makes tree shape (and thus the blob bytes) deterministic.
fn build_lengths(pairs: &[(u32, u64)], flatten: u32) -> Vec<(u32, u8)> {
    // Heap of (weight, node). Nodes: leaves then internal. Ties broken by
    // insertion order for determinism.
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
fn canonical_codes(mut items: Vec<(u32, u8)>) -> Vec<(u32, u8, u64)> {
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

/// Computes Huffman code lengths for a frequency table.
///
/// Returns a map from symbol to code length in bits. Single-symbol inputs get
/// length 1. Empty input returns an empty map.
pub fn code_lengths(freqs: &HashMap<u32, u64>) -> HashMap<u32, u8> {
    let mut pairs: Vec<(u32, u64)> = freqs.iter().map(|(&s, &f)| (s, f)).collect();
    pairs.sort_unstable_by_key(|&(s, _)| s);
    lengths_from_pairs(&pairs).into_iter().collect()
}

/// Symbol → (length, code) lookup for encoding: dense `Vec` indexed by symbol
/// for the bounded quantization alphabet, sorted pairs otherwise.
#[derive(Debug, Clone)]
enum EncodeTable {
    /// `table[sym] = (len, code)`; `len == 0` means the symbol has no code.
    Dense(Vec<(u8, u64)>),
    /// Sorted by symbol, for alphabets too sparse to index densely.
    Sparse(Vec<(u32, u8, u64)>),
}

/// A canonical Huffman table, usable on its own (shared across chunks) or as
/// the internals of the self-describing [`huffman_encode`] format.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// `(symbol, len, code)` sorted by (len, symbol) — the canonical order,
    /// which is also the serialized table order.
    canon: Vec<(u32, u8, u64)>,
    encode: EncodeTable,
    max_len: usize,
    // Per-length decode tables (indexed by code length).
    first_code: Vec<u64>,
    first_idx: Vec<usize>,
    last_code: Vec<u64>,
    has_len: Vec<bool>,
    syms_by_canon: Vec<u32>,
    /// `lut[prefix] = (sym, len)` for codes of at most [`LUT_BITS`] bits;
    /// `len == 0` marks prefixes that need the slow walk.
    lut: Vec<(u32, u8)>,
}

impl HuffmanTable {
    /// Builds a table from `(symbol, length)` pairs (lengths in
    /// `1..=MAX_CODE_LEN`, symbols unique).
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] on an invalid length or duplicate
    /// symbol.
    pub fn from_lengths(lengths: Vec<(u32, u8)>) -> Result<Self, SzError> {
        if lengths.is_empty() {
            return Err(corrupt("empty code-length table"));
        }
        for &(_, len) in &lengths {
            if len == 0 || len > MAX_CODE_LEN {
                return Err(corrupt("invalid code length"));
            }
        }
        let mut syms: Vec<u32> = lengths.iter().map(|&(s, _)| s).collect();
        syms.sort_unstable();
        if syms.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt("duplicate symbol in table"));
        }

        let canon = canonical_codes(lengths);
        let max_sym = *syms.last().expect("nonempty");
        let encode = if max_sym < DENSE_LIMIT {
            let mut table = vec![(0u8, 0u64); max_sym as usize + 1];
            for &(sym, len, code) in &canon {
                table[sym as usize] = (len, code);
            }
            EncodeTable::Dense(table)
        } else {
            let mut pairs = canon.clone();
            pairs.sort_unstable_by_key(|&(s, _, _)| s);
            EncodeTable::Sparse(pairs)
        };

        let max_len = canon.iter().map(|&(_, l, _)| l).max().expect("nonempty") as usize;
        let mut first_code = vec![u64::MAX; max_len + 1];
        let mut first_idx = vec![0usize; max_len + 1];
        let mut last_code = vec![0u64; max_len + 1];
        let mut has_len = vec![false; max_len + 1];
        for (i, &(_, len, code)) in canon.iter().enumerate() {
            let l = len as usize;
            if !has_len[l] {
                has_len[l] = true;
                first_code[l] = code;
                first_idx[l] = i;
            }
            last_code[l] = code;
        }
        let syms_by_canon: Vec<u32> = canon.iter().map(|&(s, _, _)| s).collect();

        let mut lut = vec![(0u32, 0u8); 1 << LUT_BITS];
        for &(sym, len, code) in &canon {
            // Guard against malformed (Kraft-violating) deserialized tables
            // whose canonical codes overflow their length.
            if len > LUT_BITS || code >> len != 0 {
                continue;
            }
            let fill = 1usize << (LUT_BITS - len);
            let base = (code as usize) << (LUT_BITS - len);
            lut[base..base + fill].fill((sym, len));
        }

        Ok(HuffmanTable { canon, encode, max_len, first_code, first_idx, last_code, has_len, syms_by_canon, lut })
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
        self.canon.len()
    }

    /// Serializes the code-length table: `[n_syms u32][(sym u32, len u8)×n]`
    /// in canonical order (the same layout [`huffman_encode`] embeds).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.canon.len() * 5);
        out.extend_from_slice(&(self.canon.len() as u32).to_le_bytes());
        for &(sym, len, _) in &self.canon {
            out.extend_from_slice(&sym.to_le_bytes());
            out.push(len);
        }
        out
    }

    /// Parses a table serialized by [`HuffmanTable::serialize`]. The entire
    /// slice must be consumed.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] on truncation, trailing bytes, or an
    /// invalid table.
    pub fn deserialize(bytes: &[u8]) -> Result<Self, SzError> {
        let lengths = parse_length_table(bytes, &mut 0)?;
        Self::from_lengths(lengths)
    }

    /// Encodes `symbols` as `[count u64][payload_len u64][payload bits]`.
    ///
    /// Returns `None` if any symbol has no code in this table (the caller
    /// falls back to a self-describing local table).
    pub fn encode_stream(&self, symbols: &[u32]) -> Option<Vec<u8>> {
        let mut bits = BitWriter::with_capacity(symbols.len() / 4);
        match &self.encode {
            EncodeTable::Dense(table) => {
                for &s in symbols {
                    let &(len, code) = table.get(s as usize)?;
                    if len == 0 {
                        return None;
                    }
                    bits.write_code(code, len);
                }
            }
            EncodeTable::Sparse(pairs) => {
                for &s in symbols {
                    let (_, len, code) = pairs[pairs.binary_search_by_key(&s, |&(sym, _, _)| sym).ok()?];
                    bits.write_code(code, len);
                }
            }
        }
        let payload = bits.into_bytes();
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
        let mut pos = 0usize;
        let count = read_u64(bytes, &mut pos)? as usize;
        let payload_len = read_u64(bytes, &mut pos)? as usize;
        if payload_len > bytes.len() - pos {
            return Err(corrupt("truncated payload"));
        }
        let payload = &bytes[pos..pos + payload_len];
        if count == 0 {
            return Ok(Vec::new());
        }
        // Every symbol consumes at least one bit of payload.
        if count > payload.len().saturating_mul(8) {
            return Err(corrupt("symbol count exceeds payload bits"));
        }
        self.decode_payload(count, payload)
    }

    /// Decodes exactly `count` symbols from a packed bit payload.
    fn decode_payload(&self, count: usize, payload: &[u8]) -> Result<Vec<u32>, SzError> {
        let mut out = vec![0u32; count];
        let mut reader = BitReader::new(payload);
        for slot in &mut out {
            // Short codes resolve with one LUT probe. The peek is zero-padded
            // past the end of the stream, which is safe: a valid code is a
            // prefix of every padded extension, so the probe lands on the
            // right entry, and `loaded` guards against over-consuming. Only
            // within the stream's last bytes can it fall below a code length.
            let (prefix, loaded) = reader.peek_bits(LUT_BITS);
            let (sym, len) = self.lut[prefix as usize];
            *slot = if len == 0 {
                self.walk(&mut reader)?
            } else if len as u32 <= loaded {
                reader.consume(len as u32);
                sym
            } else {
                return Err(corrupt("bit stream exhausted"));
            };
        }
        Ok(out)
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
            if self.has_len[len] && code >= self.first_code[len] && code <= self.last_code[len] {
                reader.consume(len as u32);
                return Ok(self.syms_by_canon[self.first_idx[len] + (code - self.first_code[len]) as usize]);
            }
        }
        Err(corrupt("code exceeds maximum length"))
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

/// Parses a `[n_syms u32][(sym u32, len u8)×n]` length table, advancing
/// `pos`. Validates lengths and symbol uniqueness but not the Kraft sum.
fn parse_length_table(bytes: &[u8], pos: &mut usize) -> Result<Vec<(u32, u8)>, SzError> {
    if *pos + 4 > bytes.len() {
        return Err(corrupt("truncated header"));
    }
    let n_syms = u32::from_le_bytes(bytes[*pos..*pos + 4].try_into().expect("4 bytes")) as usize;
    *pos += 4;
    // Each table entry takes 5 bytes; reject counts the stream cannot hold
    // before allocating (corrupt headers must not trigger huge allocations).
    if n_syms > bytes.len().saturating_sub(*pos) / 5 {
        return Err(corrupt("symbol table larger than stream"));
    }
    let mut lengths = Vec::with_capacity(n_syms);
    for _ in 0..n_syms {
        let sym = u32::from_le_bytes(bytes[*pos..*pos + 4].try_into().expect("4 bytes"));
        let len = bytes[*pos + 4];
        *pos += 5;
        if len == 0 || len > MAX_CODE_LEN {
            return Err(corrupt("invalid code length"));
        }
        lengths.push((sym, len));
    }
    let mut syms: Vec<u32> = lengths.iter().map(|&(s, _)| s).collect();
    syms.sort_unstable();
    if syms.windows(2).any(|w| w[0] == w[1]) {
        return Err(corrupt("duplicate symbol in table"));
    }
    Ok(lengths)
}

/// Encodes a symbol sequence with canonical Huffman coding.
///
/// The output is self-describing: `[table, count, bitstream]`.
pub fn huffman_encode(symbols: &[u32]) -> Vec<u8> {
    huffman_encode_counted(symbols, &freq_pairs(symbols))
}

/// [`huffman_encode`] for a caller that already holds the stream's
/// [`freq_pairs`] histogram.
pub(crate) fn huffman_encode_counted(symbols: &[u32], pairs: &[(u32, u64)]) -> Vec<u8> {
    let Some(table) = HuffmanTable::from_histogram(pairs) else {
        let mut out = Vec::with_capacity(20);
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        return out;
    };
    let mut out = table.serialize();
    let body = table.encode_stream(symbols).expect("table covers its own symbols");
    out.extend_from_slice(&body);
    out
}

/// Decodes a stream produced by [`huffman_encode`].
///
/// # Errors
/// Returns [`SzError::CorruptStream`] if the stream is truncated or contains
/// an invalid code.
pub fn huffman_decode(bytes: &[u8]) -> Result<Vec<u32>, SzError> {
    let mut pos = 0usize;
    let lengths = parse_length_table(bytes, &mut pos)?;
    let count = read_u64(bytes, &mut pos)? as usize;
    let payload_len = read_u64(bytes, &mut pos)? as usize;
    if payload_len > bytes.len() - pos {
        return Err(corrupt("truncated header"));
    }
    let payload = &bytes[pos..pos + payload_len];

    if count == 0 {
        return Ok(Vec::new());
    }
    if lengths.is_empty() {
        return Err(corrupt("empty table with nonzero count"));
    }
    // Every symbol consumes at least one bit of payload.
    if count > payload.len().saturating_mul(8) {
        return Err(corrupt("symbol count exceeds payload bits"));
    }
    HuffmanTable::from_lengths(lengths)?.decode_payload(count, payload)
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
    fn table_serialization_round_trips() {
        let syms: Vec<u32> = (0..3000u32).map(|i| (i * i) % 257).collect();
        let table = HuffmanTable::from_symbols(&syms).unwrap();
        let blob = table.serialize();
        let back = HuffmanTable::deserialize(&blob).unwrap();
        let enc = table.encode_stream(&syms).unwrap();
        assert_eq!(back.decode_stream(&enc).unwrap(), syms);
        assert_eq!(back.serialize(), blob);
    }

    #[test]
    fn table_deserialize_rejects_malformed() {
        assert!(HuffmanTable::deserialize(&[]).is_err());
        assert!(HuffmanTable::deserialize(&0u32.to_le_bytes()).is_err(), "empty table");
        // Duplicate symbol.
        let mut blob = 2u32.to_le_bytes().to_vec();
        for _ in 0..2 {
            blob.extend_from_slice(&7u32.to_le_bytes());
            blob.push(1);
        }
        assert!(HuffmanTable::deserialize(&blob).is_err());
        // Zero code length.
        let mut blob = 1u32.to_le_bytes().to_vec();
        blob.extend_from_slice(&7u32.to_le_bytes());
        blob.push(0);
        assert!(HuffmanTable::deserialize(&blob).is_err());
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
        assert!(table.canon.iter().any(|&(_, l, _)| l > LUT_BITS), "test needs codes beyond the LUT");
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
    fn histogram_matches_a_plain_count_for_every_window_shape() {
        let plain = |symbols: &[u32]| -> Vec<(u32, u64)> {
            let mut counts = BTreeMap::new();
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

    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Random symbol streams — including single-symbol alphabets — must
        // round-trip bit-exactly through a shared table built from their own
        // histogram, and through a serialize/deserialize copy of it (the
        // container ships tables as bytes, so the rebuilt table must produce
        // the identical bitstream).
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
            let rebuilt = HuffmanTable::deserialize(&table.serialize()).unwrap();
            prop_assert_eq!(rebuilt.serialize(), table.serialize());
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

        // A symbol outside the shared alphabet must refuse the shared encode
        // (the pipeline then escapes to a local self-describing table, which
        // must round-trip the same stream).
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
    }
}
