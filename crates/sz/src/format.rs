//! Self-describing compressed-blob framing.
//!
//! A blob carries everything required for decompression: scalar type, shape,
//! resolved absolute error bound, pipeline configuration, and the payload.
//! There is one on-wire layout, version 4: a fixed little-endian header, one
//! length-prefixed *chunk table* section (slab height, then per chunk its
//! payload length, CRC-32, quantization statistics and a one-byte *table
//! mode* tag), one length-prefixed section that is always empty, the raw
//! chunk payloads back to back, and the whole-blob CRC-32 trailer. Chunks
//! are self-contained and decode independently — and therefore in parallel.
//!
//! The tag says how a chunk's codes are entropy-coded, and each family has
//! exactly one: a prediction chunk is [`TABLE_MODE_PACKED`] (it embeds its own
//! code-length table in the packed layout of [`crate::encode::huffman`]), a
//! transform chunk [`TABLE_MODE_NONE`]. The empty section once held a table
//! shared by a blob's chunks; no writer fills it, and the reader refuses a
//! blob that does.
//!
//! Any other version is rejected with [`SzError::UnsupportedVersion`].

use crate::checksum::{crc32, Crc32};
use crate::config::{LosslessBackend, PredictorKind};
use crate::error::SzError;

/// Magic bytes at the start of every blob.
pub const MAGIC: [u8; 4] = *b"OCSZ";
/// The format version every blob is written in and the only one read: the
/// chunked container with per-chunk table-mode tags.
pub const VERSION: u16 = 4;

/// Chunk-table tag of a transform chunk, which holds no Huffman table.
pub const TABLE_MODE_NONE: u8 = 0;
/// Chunk-table tag of a prediction chunk: its payload embeds its own
/// code-length table in the packed layout.
pub const TABLE_MODE_PACKED: u8 = 2;

/// Size of the CRC-32 trailer in bytes.
const TRAILER: usize = 4;

/// Compression codec family recorded in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecFamily {
    /// Prediction-based pipeline (SZ model).
    Prediction,
    /// Transform-based codec (ZFP model).
    Transform,
}

impl CodecFamily {
    /// The chunk-table tag every chunk of this family carries.
    pub fn table_mode(self) -> u8 {
        match self {
            CodecFamily::Prediction => TABLE_MODE_PACKED,
            CodecFamily::Transform => TABLE_MODE_NONE,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            CodecFamily::Prediction => 0,
            CodecFamily::Transform => 1,
        }
    }
    fn from_u8(v: u8) -> Result<Self, SzError> {
        match v {
            0 => Ok(CodecFamily::Prediction),
            1 => Ok(CodecFamily::Transform),
            _ => Err(SzError::CorruptStream(format!("unknown codec tag {v}"))),
        }
    }
}

/// Parsed blob header.
#[derive(Debug, Clone, PartialEq)]
pub struct BlobHeader {
    /// Codec family.
    pub family: CodecFamily,
    /// Scalar type name (`"f32"` or `"f64"`).
    pub dtype: &'static str,
    /// Dataset shape.
    pub dims: Vec<usize>,
    /// Resolved absolute error bound used at compression time.
    pub abs_eb: f64,
    /// Predictor (prediction codec only; `Lorenzo` otherwise).
    pub predictor: PredictorKind,
    /// Lossless backend (prediction codec only; `Huffman` otherwise).
    pub backend: LosslessBackend,
    /// Quantizer radius.
    pub quant_radius: u32,
}

fn dtype_tag(name: &str) -> Result<u8, SzError> {
    match name {
        "f32" => Ok(0),
        "f64" => Ok(1),
        other => Err(SzError::CorruptStream(format!("unknown dtype {other}"))),
    }
}

fn dtype_name(tag: u8) -> Result<&'static str, SzError> {
    match tag {
        0 => Ok("f32"),
        1 => Ok("f64"),
        other => Err(SzError::CorruptStream(format!("unknown dtype tag {other}"))),
    }
}

fn predictor_from_tag(tag: u8) -> Result<PredictorKind, SzError> {
    PredictorKind::ALL
        .iter()
        .copied()
        .find(|p| p.id() == tag)
        .ok_or_else(|| SzError::CorruptStream(format!("unknown predictor tag {tag}")))
}

fn backend_tag(b: LosslessBackend) -> u8 {
    match b {
        LosslessBackend::Huffman => 0,
        LosslessBackend::HuffmanLz => 1,
        LosslessBackend::RleHuffman => 2,
    }
}

fn backend_from_tag(tag: u8) -> Result<LosslessBackend, SzError> {
    match tag {
        0 => Ok(LosslessBackend::Huffman),
        1 => Ok(LosslessBackend::HuffmanLz),
        2 => Ok(LosslessBackend::RleHuffman),
        other => Err(SzError::CorruptStream(format!("unknown backend tag {other}"))),
    }
}

/// One row of the chunk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Compressed payload length in bytes.
    pub len: usize,
    /// CRC-32 of the chunk payload (checked before the chunk is decoded, so
    /// a corrupt chunk is pinpointed instead of blamed on the whole blob).
    pub crc: u32,
    /// Number of data points the chunk covers.
    pub points: u64,
    /// Quantization codes that landed in the zero bin (exactly predicted).
    pub zero_bins: u64,
    /// Points stored verbatim because their bin overflowed the quantizer.
    pub unpredictable: u64,
    /// How the chunk's code stream is entropy-coded, as stored: the decoder
    /// accepts only [`CodecFamily::table_mode`] of the blob's family.
    pub table_mode: u8,
}

const CHUNK_ENTRY_BYTES: usize = 8 + 4 + 8 + 8 + 8 + 1;

/// The chunk table: how a dataset was split into row slabs and where
/// each slab's compressed payload lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTable {
    /// Slab height along dimension 0 (the slowest-varying axis); the last
    /// chunk may be shorter.
    pub chunk_rows: usize,
    /// Per-chunk metadata, in slab order.
    pub entries: Vec<ChunkEntry>,
}

impl ChunkTable {
    /// Serializes the table into its section payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.entries.len() * CHUNK_ENTRY_BYTES);
        out.extend_from_slice(&(self.chunk_rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&(e.len as u64).to_le_bytes());
            out.extend_from_slice(&e.crc.to_le_bytes());
            out.extend_from_slice(&e.points.to_le_bytes());
            out.extend_from_slice(&e.zero_bins.to_le_bytes());
            out.extend_from_slice(&e.unpredictable.to_le_bytes());
            out.push(e.table_mode);
        }
        out
    }

    /// Parses a table section. Tags are carried as stored; the chunk decoder
    /// is what checks them against the blob's family.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] if the section is truncated or the
    /// chunk count is implausible.
    pub fn decode(bytes: &[u8]) -> Result<Self, SzError> {
        if bytes.len() < 12 {
            return Err(SzError::CorruptStream("truncated chunk table".into()));
        }
        let chunk_rows = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        let n = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        if bytes.len() != 12 + n * CHUNK_ENTRY_BYTES {
            return Err(SzError::CorruptStream(format!(
                "chunk table length {} does not match {n} entries",
                bytes.len()
            )));
        }
        if chunk_rows == 0 || n == 0 {
            return Err(SzError::CorruptStream("empty chunk table".into()));
        }
        let entries = bytes[12..]
            .chunks_exact(CHUNK_ENTRY_BYTES)
            .map(|b| ChunkEntry {
                len: u64::from_le_bytes(b[..8].try_into().expect("8 bytes")) as usize,
                crc: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
                points: u64::from_le_bytes(b[12..20].try_into().expect("8 bytes")),
                zero_bins: u64::from_le_bytes(b[20..28].try_into().expect("8 bytes")),
                unpredictable: u64::from_le_bytes(b[28..36].try_into().expect("8 bytes")),
                table_mode: b[36],
            })
            .collect();
        Ok(ChunkTable { chunk_rows, entries })
    }

    /// Byte offsets of each chunk payload within the chunk region.
    pub fn offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.entries.len());
        let mut off = 0usize;
        for e in &self.entries {
            offsets.push(off);
            off += e.len;
        }
        offsets
    }

    /// Total bytes of all chunk payloads, saturating: lengths come from the
    /// blob, and a sum pinned at `usize::MAX` matches no real chunk region.
    pub fn payload_len(&self) -> usize {
        self.entries.iter().fold(0usize, |sum, e| sum.saturating_add(e.len))
    }
}

/// Appends a length-prefixed part to a byte buffer (the framing used both
/// for top-level blob sections and for the sub-sections inside a prediction
/// chunk payload).
pub(crate) fn write_framed(out: &mut Vec<u8>, part: &[u8]) {
    out.extend_from_slice(&(part.len() as u64).to_le_bytes());
    out.extend_from_slice(part);
}

/// Incremental blob writer. The CRC-32 trailer is folded in as bytes are
/// appended, so [`BlobWriter::finish`] costs nothing instead of re-scanning
/// the whole buffer.
#[derive(Debug)]
pub struct BlobWriter {
    bytes: Vec<u8>,
    crc: Crc32,
}

impl BlobWriter {
    /// Starts a blob of [`VERSION`] with the given header.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] for an unknown dtype name (cannot
    /// occur for headers built from [`crate::value::ScalarValue`] types).
    pub fn new(header: &BlobHeader) -> Result<Self, SzError> {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(header.family.to_u8());
        bytes.push(dtype_tag(header.dtype)?);
        bytes.push(header.dims.len() as u8);
        for &d in &header.dims {
            bytes.extend_from_slice(&(d as u64).to_le_bytes());
        }
        bytes.extend_from_slice(&header.abs_eb.to_le_bytes());
        bytes.push(header.predictor.id());
        bytes.push(backend_tag(header.backend));
        bytes.extend_from_slice(&header.quant_radius.to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&bytes);
        Ok(BlobWriter { bytes, crc })
    }

    /// Reserves room for payload bytes still to come.
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.bytes.reserve(additional);
        self
    }

    /// Appends a length-prefixed section.
    pub fn section(&mut self, data: &[u8]) -> &mut Self {
        let prefix = (data.len() as u64).to_le_bytes();
        self.crc.update(&prefix);
        self.crc.update(data);
        self.bytes.extend_from_slice(&prefix);
        self.bytes.extend_from_slice(data);
        self
    }

    /// Appends raw bytes with no length prefix (chunk payloads, whose
    /// lengths live in the chunk table).
    pub fn raw(&mut self, data: &[u8]) -> &mut Self {
        self.crc.update(data);
        self.bytes.extend_from_slice(data);
        self
    }

    /// [`BlobWriter::raw`] for bytes whose CRC-32 the caller already holds
    /// (chunk payloads, each checksummed on its worker): the trailer folds
    /// `crc` in instead of hashing `data` again.
    pub fn raw_checksummed(&mut self, data: &[u8], crc: u32) -> &mut Self {
        self.crc.combine(crc, data.len());
        self.bytes.extend_from_slice(data);
        self
    }

    /// Finishes the blob, appending the CRC-32 integrity trailer.
    pub fn finish(self) -> CompressedBlob {
        let mut bytes = self.bytes;
        bytes.extend_from_slice(&self.crc.finish().to_le_bytes());
        CompressedBlob { bytes }
    }
}

/// An owned, validated compressed blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBlob {
    bytes: Vec<u8>,
}

impl CompressedBlob {
    /// Wraps raw bytes, validating magic, version, and the CRC-32 trailer
    /// (so corruption acquired in transit is caught before decompression
    /// touches the payload).
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] for bad magic or a checksum
    /// mismatch, and [`SzError::UnsupportedVersion`] for any version but
    /// [`VERSION`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SzError> {
        if bytes.len() < 6 + TRAILER || bytes[..4] != MAGIC {
            return Err(SzError::CorruptStream("missing OCSZ magic".into()));
        }
        check_version(&bytes)?;
        let blob = CompressedBlob { bytes };
        blob.verify()?;
        Ok(blob)
    }

    /// Re-verifies the CRC-32 trailer (e.g. after a transfer hop).
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] on mismatch.
    pub fn verify(&self) -> Result<(), SzError> {
        let n = self.bytes.len();
        if n < TRAILER {
            return Err(SzError::CorruptStream("blob shorter than its checksum".into()));
        }
        let stored = u32::from_le_bytes(self.bytes[n - TRAILER..].try_into().expect("4 bytes"));
        let actual = crc32(&self.bytes[..n - TRAILER]);
        if stored != actual {
            return Err(SzError::CorruptStream(format!(
                "checksum mismatch: stored {stored:08x}, computed {actual:08x}"
            )));
        }
        Ok(())
    }

    /// The raw serialized bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Size in bytes (what actually travels over the wire).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the blob is empty (never true for a valid blob).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consumes the blob, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Parses the header and returns it plus a reader positioned at the
    /// first section.
    fn open(&self) -> Result<(BlobHeader, SectionReader<'_>), SzError> {
        let b = &self.bytes;
        if b.len() < 6 {
            return Err(SzError::CorruptStream("truncated blob header".into()));
        }
        check_version(b)?;
        let mut pos = 6usize; // magic + version
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], SzError> {
            if *pos + n > b.len() {
                return Err(SzError::CorruptStream("truncated blob header".into()));
            }
            let s = &b[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let family = CodecFamily::from_u8(take(&mut pos, 1)?[0])?;
        let dtype = dtype_name(take(&mut pos, 1)?[0])?;
        let ndim = take(&mut pos, 1)?[0] as usize;
        if ndim == 0 || ndim > 8 {
            return Err(SzError::CorruptStream(format!("invalid rank {ndim}")));
        }
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            let d = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
            if d == 0 {
                return Err(SzError::CorruptStream("zero-sized dimension".into()));
            }
            dims.push(d);
        }
        let abs_eb = f64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        let predictor = predictor_from_tag(take(&mut pos, 1)?[0])?;
        let backend = backend_from_tag(take(&mut pos, 1)?[0])?;
        let quant_radius = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        let header = BlobHeader { family, dtype, dims, abs_eb, predictor, backend, quant_radius };
        // Sections end where the CRC trailer begins.
        let body_end = b.len().saturating_sub(TRAILER).max(pos);
        Ok((header, SectionReader { bytes: &b[..body_end], pos }))
    }

    /// Parses the header, the chunk table and the (empty) section after it,
    /// and returns them with the chunk-payload region, checked to hold
    /// exactly the bytes the table declares.
    ///
    /// # Errors
    /// Everything [`CompressedBlob::header`] and [`ChunkTable::decode`]
    /// return, and [`SzError::CorruptStream`] for a non-empty section after
    /// the chunk table or a payload region of the wrong length.
    pub fn open_chunks(&self) -> Result<(BlobHeader, ChunkTable, &[u8]), SzError> {
        let (header, mut sections) = self.open()?;
        let table = ChunkTable::decode(sections.next_section()?)?;
        if !sections.next_section()?.is_empty() {
            return Err(SzError::CorruptStream("the section after the chunk table is not empty".into()));
        }
        let body = sections.rest();
        if body.len() != table.payload_len() {
            return Err(SzError::CorruptStream(format!(
                "chunk payloads hold {} bytes but the table declares {}",
                body.len(),
                table.payload_len()
            )));
        }
        Ok((header, table, body))
    }

    /// Parses just the header.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] if the header is truncated or
    /// contains invalid tags, and [`SzError::UnsupportedVersion`] for any
    /// version but [`VERSION`].
    pub fn header(&self) -> Result<BlobHeader, SzError> {
        Ok(self.open()?.0)
    }
}

/// The version check of [`CompressedBlob::from_bytes`] and
/// [`CompressedBlob::open`], over bytes that hold at least magic and version.
fn check_version(bytes: &[u8]) -> Result<(), SzError> {
    match u16::from_le_bytes([bytes[4], bytes[5]]) {
        VERSION => Ok(()),
        other => Err(SzError::UnsupportedVersion(other)),
    }
}

/// Sequential reader over the length-prefixed sections of a blob.
#[derive(Debug)]
pub(crate) struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Reads nested sections out of a standalone byte slice (the framing
    /// inside a prediction chunk payload).
    pub fn over(bytes: &'a [u8]) -> Self {
        SectionReader { bytes, pos: 0 }
    }

    /// Reads the next section.
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] if the section is truncated.
    pub fn next_section(&mut self) -> Result<&'a [u8], SzError> {
        if self.pos + 8 > self.bytes.len() {
            return Err(SzError::CorruptStream("missing section length".into()));
        }
        let len = u64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().expect("8 bytes")) as usize;
        self.pos += 8;
        if self.pos + len > self.bytes.len() {
            return Err(SzError::CorruptStream("truncated section".into()));
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Returns everything from the current position to the end of the body
    /// (the chunk-payload region of a blob).
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> BlobHeader {
        BlobHeader {
            family: CodecFamily::Prediction,
            dtype: "f32",
            dims: vec![10, 20],
            abs_eb: 1e-3,
            predictor: PredictorKind::InterpCubic,
            backend: LosslessBackend::HuffmanLz,
            quant_radius: 1 << 15,
        }
    }

    #[test]
    fn header_round_trip() {
        let h = sample_header();
        let mut w = BlobWriter::new(&h).unwrap();
        w.section(b"abc").section(b"").section(b"defgh");
        let blob = w.finish();
        let (back, mut r) = blob.open().unwrap();
        assert_eq!(back, h);
        assert_eq!(r.next_section().unwrap(), b"abc");
        assert_eq!(r.next_section().unwrap(), b"");
        assert_eq!(r.next_section().unwrap(), b"defgh");
        assert!(r.rest().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(CompressedBlob::from_bytes(b"NOPE\x01\x00".to_vec()).is_err());
        assert!(CompressedBlob::from_bytes(vec![]).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&99u16.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]); // room for a would-be trailer
        match CompressedBlob::from_bytes(bytes) {
            Err(SzError::UnsupportedVersion(99)) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_caught_by_the_checksum() {
        let h = sample_header();
        let mut w = BlobWriter::new(&h).unwrap();
        w.section(b"hello world");
        let mut bytes = w.finish().into_bytes();
        bytes.truncate(bytes.len() - 4);
        assert!(matches!(CompressedBlob::from_bytes(bytes), Err(SzError::CorruptStream(_))));
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let h = sample_header();
        let mut w = BlobWriter::new(&h).unwrap();
        w.section(b"payload payload payload");
        let blob = w.finish();
        assert!(blob.verify().is_ok());
        let mut bytes = blob.into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(CompressedBlob::from_bytes(bytes), Err(SzError::CorruptStream(_))));
    }

    #[test]
    fn an_unknown_predictor_tag_is_a_corrupt_stream() {
        let mut bytes = BlobWriter::new(&sample_header()).unwrap().finish().into_bytes();
        // magic, version, family, dtype, rank, two dims, error bound.
        let at = 4 + 2 + 1 + 1 + 1 + 2 * 8 + 8;
        assert_eq!(bytes[at], PredictorKind::InterpCubic.id());
        // Tag 4 named the deleted second-order Lorenzo predictor.
        bytes[at] = 4;
        let n = bytes.len() - TRAILER;
        let crc = crc32(&bytes[..n]);
        bytes[n..].copy_from_slice(&crc.to_le_bytes());
        let blob = CompressedBlob::from_bytes(bytes).expect("the trailer is resealed");
        match blob.header() {
            Err(SzError::CorruptStream(why)) => assert_eq!(why, "unknown predictor tag 4"),
            other => panic!("expected a corrupt stream, got {other:?}"),
        }
    }

    #[test]
    fn blob_round_trips_through_bytes() {
        let h = sample_header();
        let blob = BlobWriter::new(&h).unwrap().finish();
        let bytes = blob.clone().into_bytes();
        assert_eq!(CompressedBlob::from_bytes(bytes).unwrap(), blob);
    }

    #[test]
    fn chunk_table_round_trips() {
        let table = ChunkTable {
            chunk_rows: 7,
            entries: vec![
                ChunkEntry {
                    len: 100,
                    crc: 0xDEAD_BEEF,
                    points: 70,
                    zero_bins: 60,
                    unpredictable: 1,
                    table_mode: TABLE_MODE_PACKED,
                },
                ChunkEntry {
                    len: 3,
                    crc: 42,
                    points: 30,
                    zero_bins: 0,
                    unpredictable: 30,
                    table_mode: TABLE_MODE_NONE,
                },
            ],
        };
        let back = ChunkTable::decode(&table.encode()).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.offsets(), vec![0, 100]);
        assert_eq!(back.payload_len(), 103);
        // Hostile lengths saturate instead of wrapping round to a plausible sum.
        let mut hostile = back;
        hostile.entries[0].len = usize::MAX - 1;
        assert_eq!(hostile.payload_len(), usize::MAX);
    }

    #[test]
    fn open_chunks_holds_the_sections_to_the_one_layout() {
        let table = ChunkTable {
            chunk_rows: 1,
            entries: vec![ChunkEntry {
                len: 3,
                crc: crc32(b"abc"),
                points: 1,
                zero_bins: 0,
                unpredictable: 0,
                table_mode: TABLE_MODE_PACKED,
            }],
        };
        let blob = |after_table: &[u8], body: &[u8]| {
            let mut w = BlobWriter::new(&sample_header()).unwrap();
            w.section(&table.encode()).section(after_table).raw(body);
            w.finish()
        };
        let (header, back, body) = blob(&[], b"abc").open_chunks().map(|(h, t, b)| (h, t, b.to_vec())).unwrap();
        assert_eq!((header, back, body), (sample_header(), table.clone(), b"abc".to_vec()));
        for (after_table, body) in [(&b"x"[..], &b"abc"[..]), (b"", b"ab"), (b"", b"abcd")] {
            match blob(after_table, body).open_chunks() {
                Err(SzError::CorruptStream(_)) => {}
                other => panic!("{after_table:?} then {body:?}: expected CorruptStream, got {other:?}"),
            }
        }
    }

    #[test]
    fn chunk_table_rejects_malformed_input() {
        assert!(ChunkTable::decode(&[]).is_err());
        let table = ChunkTable {
            chunk_rows: 1,
            entries: vec![ChunkEntry {
                len: 1,
                crc: 0,
                points: 1,
                zero_bins: 0,
                unpredictable: 0,
                table_mode: TABLE_MODE_PACKED,
            }],
        };
        let bytes = table.encode();
        // A row one byte short or long: a width the table does not have.
        assert!(ChunkTable::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(ChunkTable::decode(&[&bytes[..], &[0]].concat()).is_err());
        // Tags are carried as stored; the chunk decoder checks them against
        // the blob's family.
        let mut tagged = table.encode();
        let n = tagged.len();
        for tag in [0, 1, 2, 3, 255] {
            tagged[n - 1] = tag;
            assert_eq!(ChunkTable::decode(&tagged).unwrap().entries[0].table_mode, tag);
        }
        // Zero chunks is never valid.
        let empty = ChunkTable { chunk_rows: 4, entries: vec![] };
        assert!(ChunkTable::decode(&empty.encode()).is_err());
    }
}
