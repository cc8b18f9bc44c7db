//! Self-describing compressed-blob framing.
//!
//! A blob carries everything required for decompression: scalar type, shape,
//! resolved absolute error bound, pipeline configuration, and the payload.
//! Two on-wire layouts exist:
//!
//! * **Version 2** (legacy, read-only): a fixed little-endian header followed
//!   by length-prefixed sections and a CRC-32 trailer. Every pre-chunking
//!   blob is version 2; [`CompressedBlob::from_bytes`] still accepts them.
//! * **Version 3** (legacy, read-only, chunked container): the same fixed
//!   header, then one length-prefixed *chunk table* section (slab height,
//!   per-chunk payload lengths, CRC-32s, and quantization statistics), then
//!   the raw chunk payloads back to back, then the whole-blob CRC-32 trailer.
//!   Chunks are self-contained and decode independently — and therefore in
//!   parallel.
//! * **Version 4** (current): version 3 plus a one-byte *table mode* tag on
//!   each chunk-table row and a second length-prefixed section, the shared
//!   Huffman table, between the chunk table and the payloads. Writers tag
//!   every chunk [`TABLE_MODE_PACKED`] — it embeds its own code-length table
//!   in the packed layout of [`crate::encode::huffman`] — and write the
//!   shared-table section empty. Stored blobs also carry
//!   [`TABLE_MODE_SHARED`] (the chunk's codes use the blob's shared table)
//!   and [`TABLE_MODE_LOCAL`] (a table embedded five bytes a symbol, as
//!   version 3 did); both are read, no longer written.
//!
//! Unknown versions are rejected with [`SzError::UnsupportedVersion`].

use crate::checksum::{crc32, Crc32};
use crate::config::{LosslessBackend, PredictorKind};
use crate::error::SzError;

/// Magic bytes at the start of every blob.
pub const MAGIC: [u8; 4] = *b"OCSZ";
/// Current format version: the chunked container with per-chunk table-mode
/// tags and a shared-table section (written empty).
pub const VERSION: u16 = 4;
/// Legacy chunked container without the shared-table section or per-chunk
/// table-mode tags (still decodable).
pub const VERSION_V3: u16 = 3;
/// Legacy monolithic-section format (still decodable). Version 2 added the
/// CRC-32 integrity trailer; version 3 added the chunk table.
pub const VERSION_V2: u16 = 2;

/// Chunk-table tag: the chunk payload embeds its own code-length table, five
/// bytes a symbol. Stored blobs carry it; writers use [`TABLE_MODE_PACKED`].
pub const TABLE_MODE_LOCAL: u8 = 0;
/// Chunk-table tag: the chunk's code stream uses the blob's shared table.
/// Stored blobs carry it; writers use [`TABLE_MODE_PACKED`].
pub const TABLE_MODE_SHARED: u8 = 1;
/// Chunk-table tag: the chunk payload embeds its own code-length table in
/// the packed layout. A reader from before the tag existed rejects it as an
/// unknown table mode.
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
    /// On-wire format version ([`VERSION`] for freshly written blobs).
    pub version: u16,
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

/// One row of the version-3 chunk table.
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
    /// How the chunk's code stream is entropy-coded: [`TABLE_MODE_LOCAL`],
    /// [`TABLE_MODE_SHARED`] or [`TABLE_MODE_PACKED`]. Version-3 tables decode
    /// as all-local.
    pub table_mode: u8,
}

/// Entry size without the version-4 table-mode byte.
const CHUNK_ENTRY_BYTES_V3: usize = 8 + 4 + 8 + 8 + 8;
const CHUNK_ENTRY_BYTES: usize = CHUNK_ENTRY_BYTES_V3 + 1;

/// Version-3 chunk table: how a dataset was split into row slabs and where
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

    /// Parses a table section. The entry width is self-describing: version-4
    /// tables carry a table-mode byte per entry, version-3 tables do not and
    /// decode as all-[`TABLE_MODE_LOCAL`].
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
        let entry_bytes = if bytes.len() == 12 + n * CHUNK_ENTRY_BYTES {
            CHUNK_ENTRY_BYTES
        } else if bytes.len() == 12 + n * CHUNK_ENTRY_BYTES_V3 {
            CHUNK_ENTRY_BYTES_V3
        } else {
            return Err(SzError::CorruptStream(format!(
                "chunk table length {} does not match {n} entries",
                bytes.len()
            )));
        };
        if chunk_rows == 0 || n == 0 {
            return Err(SzError::CorruptStream("empty chunk table".into()));
        }
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let b = &bytes[12 + i * entry_bytes..12 + (i + 1) * entry_bytes];
            let table_mode = if entry_bytes == CHUNK_ENTRY_BYTES { b[36] } else { TABLE_MODE_LOCAL };
            if table_mode > TABLE_MODE_PACKED {
                return Err(SzError::CorruptStream(format!("unknown table mode {table_mode}")));
            }
            entries.push(ChunkEntry {
                len: u64::from_le_bytes(b[..8].try_into().expect("8 bytes")) as usize,
                crc: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
                points: u64::from_le_bytes(b[12..20].try_into().expect("8 bytes")),
                zero_bins: u64::from_le_bytes(b[20..28].try_into().expect("8 bytes")),
                unpredictable: u64::from_le_bytes(b[28..36].try_into().expect("8 bytes")),
                table_mode,
            });
        }
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
    /// Starts a blob with the given header, writing `header.version` on the
    /// wire (producers set it to [`VERSION`]).
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] for an unknown dtype name (cannot
    /// occur for headers built from [`crate::value::ScalarValue`] types).
    pub fn new(header: &BlobHeader) -> Result<Self, SzError> {
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&header.version.to_le_bytes());
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
    /// mismatch, and [`SzError::UnsupportedVersion`] for a version we cannot
    /// read (neither [`VERSION`] nor the legacy [`VERSION_V3`] /
    /// [`VERSION_V2`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SzError> {
        if bytes.len() < 6 + TRAILER || bytes[..4] != MAGIC {
            return Err(SzError::CorruptStream("missing OCSZ magic".into()));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION && version != VERSION_V3 && version != VERSION_V2 {
            return Err(SzError::UnsupportedVersion(version));
        }
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
    ///
    /// # Errors
    /// Returns [`SzError::CorruptStream`] if the header is truncated or
    /// contains invalid tags, and [`SzError::UnsupportedVersion`] for an
    /// unknown version.
    pub fn open(&self) -> Result<(BlobHeader, SectionReader<'_>), SzError> {
        let b = &self.bytes;
        if b.len() < 6 {
            return Err(SzError::CorruptStream("truncated blob header".into()));
        }
        let version = u16::from_le_bytes([b[4], b[5]]);
        if version != VERSION && version != VERSION_V3 && version != VERSION_V2 {
            return Err(SzError::UnsupportedVersion(version));
        }
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
        let header = BlobHeader { version, family, dtype, dims, abs_eb, predictor, backend, quant_radius };
        // Sections end where the CRC trailer begins.
        let body_end = b.len().saturating_sub(TRAILER).max(pos);
        Ok((header, SectionReader { bytes: &b[..body_end], pos }))
    }

    /// Parses just the header (convenience).
    ///
    /// # Errors
    /// Same as [`CompressedBlob::open`].
    pub fn header(&self) -> Result<BlobHeader, SzError> {
        Ok(self.open()?.0)
    }
}

/// Sequential reader over the length-prefixed sections of a blob.
#[derive(Debug)]
pub struct SectionReader<'a> {
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
    /// (the chunk-payload region of a version-3 blob).
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Whether all bytes have been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> BlobHeader {
        BlobHeader {
            version: VERSION,
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
        assert!(r.at_end());
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
    fn legacy_version_is_accepted_by_framing() {
        let mut h = sample_header();
        h.version = VERSION_V2;
        let mut w = BlobWriter::new(&h).unwrap();
        w.section(b"legacy sections");
        let blob = w.finish();
        let reparsed = CompressedBlob::from_bytes(blob.clone().into_bytes()).unwrap();
        assert_eq!(reparsed.header().unwrap().version, VERSION_V2);
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
                    table_mode: TABLE_MODE_SHARED,
                },
                ChunkEntry {
                    len: 3,
                    crc: 42,
                    points: 30,
                    zero_bins: 0,
                    unpredictable: 30,
                    table_mode: TABLE_MODE_LOCAL,
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
    fn v3_chunk_table_without_mode_bytes_decodes_as_local() {
        // A version-3 table has 36-byte entries and no table-mode column.
        let entries = [(100usize, 0xDEAD_BEEFu32, 70u64, 60u64, 1u64), (3, 42, 30, 0, 30)];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for &(len, crc, points, zero_bins, unpredictable) in &entries {
            bytes.extend_from_slice(&(len as u64).to_le_bytes());
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes.extend_from_slice(&points.to_le_bytes());
            bytes.extend_from_slice(&zero_bins.to_le_bytes());
            bytes.extend_from_slice(&unpredictable.to_le_bytes());
        }
        let table = ChunkTable::decode(&bytes).unwrap();
        assert_eq!(table.chunk_rows, 7);
        assert_eq!(table.entries.len(), 2);
        assert!(table.entries.iter().all(|e| e.table_mode == TABLE_MODE_LOCAL));
        assert_eq!(table.entries[0].len, 100);
        assert_eq!(table.entries[1].unpredictable, 30);
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
                table_mode: TABLE_MODE_LOCAL,
            }],
        };
        let bytes = table.encode();
        // Two bytes short matches neither the v4 nor the v3 entry width.
        assert!(ChunkTable::decode(&bytes[..bytes.len() - 2]).is_err());
        // A v4-width table with an unknown mode tag is rejected; the three
        // known ones are not.
        let mut tagged = table.encode();
        let n = tagged.len();
        for tag in [TABLE_MODE_LOCAL, TABLE_MODE_SHARED, TABLE_MODE_PACKED] {
            tagged[n - 1] = tag;
            assert_eq!(ChunkTable::decode(&tagged).unwrap().entries[0].table_mode, tag);
        }
        for tag in [3, 9, 255] {
            tagged[n - 1] = tag;
            match ChunkTable::decode(&tagged) {
                Err(SzError::CorruptStream(msg)) => assert_eq!(msg, format!("unknown table mode {tag}")),
                other => panic!("tag {tag}: expected CorruptStream, got {other:?}"),
            }
        }
        // Zero chunks is never valid.
        let empty = ChunkTable { chunk_rows: 4, entries: vec![] };
        assert!(ChunkTable::decode(&empty.encode()).is_err());
    }
}
