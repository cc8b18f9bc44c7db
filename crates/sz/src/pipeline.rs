//! Composable compression pipelines: predictor → quantizer → entropy coder →
//! dictionary coder, mirroring SZ3's modular framework — executed
//! chunk-parallel on a bounded worker pool (SZx-style coarse blocks).
//!
//! [`compress`] splits the dataset into row slabs ([`crate::engine`]),
//! compresses each slab independently (predictor state resets per chunk, so
//! chunks decode in isolation, and each embeds its own Huffman table), and
//! assembles a version-4 container whose chunk table records per-chunk
//! offsets, CRC-32s, and quantization statistics. `threads = 1` (the
//! default) produces a single chunk whose payload is exactly the serial
//! pipeline's stream.

use std::sync::Mutex;

use crate::checksum::crc32_combine;
use crate::config::{ErrorBound, LosslessBackend, LossyConfig, PredictorKind};
use crate::encode::huffman::{freq_pairs, huffman_encode_counted, parse_packed_table, HuffmanTable};
use crate::encode::{huffman_decode, lz_compress, lz_decompress, rle_decode, rle_encode};
use crate::engine::{parallel_map, parallel_map_windowed, ChunkLayout};
use crate::error::SzError;
use crate::format::{
    write_framed, BlobHeader, BlobWriter, ChunkEntry, ChunkTable, CodecFamily, CompressedBlob, SectionReader,
};
use crate::ndarray::{checked_points, fold_min_max, min_max_of, Dataset, DatasetView};
use crate::predict::{interp, lorenzo, regression, PredictionStreams, StreamsView};
use crate::quantizer::LinearQuantizer;
use crate::stats::{code_histogram, merge_histograms, quant_bin_stats_from_hist, QuantBinStats};
use crate::value::ScalarValue;
use crate::zfp;
use ocelot_obs::prof::{self, Kernel, ScopeId};

/// Per-stage byte accounting of a compressed blob (where the bits went).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionSizes {
    /// Predictor side data (regression coefficients, block flags).
    pub side_data: usize,
    /// Verbatim unpredictable values.
    pub unpredictable: usize,
    /// Entropy-coded quantization bins (after the lossless backend).
    pub codes: usize,
    /// Of `codes`, the code-length tables the chunks embed — as serialized,
    /// so under `HuffmanLz` before its LZ pass.
    pub tables: usize,
    /// Header, chunk table, and framing overhead (everything else).
    pub framing: usize,
}

impl SectionSizes {
    /// Total bytes across all sections (`tables` is part of `codes`).
    pub fn total(&self) -> usize {
        self.side_data + self.unpredictable + self.codes + self.framing
    }
}

/// Everything produced by a compression run. Statistics are always collected
/// — they cost one pass over the quantization codes, noise against the
/// entropy-coding work that follows.
#[derive(Debug, Clone)]
pub struct CompressionOutcome {
    /// The serialized compressed data.
    pub blob: CompressedBlob,
    /// Quantization-bin statistics over the full (unsampled) code stream,
    /// aggregated across chunks.
    pub bin_stats: QuantBinStats,
    /// Uncompressed size in bytes.
    pub original_bytes: usize,
    /// Achieved compression ratio (`original / compressed`).
    pub ratio: f64,
    /// Where the compressed bytes went, stage by stage.
    pub sections: SectionSizes,
    /// Number of independently decodable chunks in the container.
    pub chunks: usize,
}

/// One compressed chunk plus the metadata the container and the aggregated
/// statistics need. Workers hand back a sparse code histogram instead of the
/// codes themselves, so the consumer never re-buffers per-point data.
pub(crate) struct EncodedChunk {
    pub payload: Vec<u8>,
    /// CRC-32 of `payload`, computed on the worker while the chunk is hot.
    pub crc: u32,
    /// Sparse `(code, count)` histogram of the quantization codes, sorted by
    /// code (prediction family; empty for transform chunks).
    pub hist: Vec<(u32, u64)>,
    pub unpredictable: u64,
    pub side_bytes: usize,
    pub unpred_bytes: usize,
    pub code_bytes: usize,
    /// Of `code_bytes`, the embedded code-length table.
    pub table_bytes: usize,
}

/// Compresses a dataset with the given pipeline configuration, returning the
/// blob together with bin statistics, byte accounting, and the achieved
/// ratio.
///
/// `config.threads` workers compress `config.chunk_points`-sized row slabs
/// concurrently; both default to the serial single-chunk pipeline.
///
/// # Errors
/// Returns [`SzError::InvalidConfig`] for invalid configurations and
/// [`SzError::InvalidShape`] for unsupported shapes.
pub fn compress<T: ScalarValue>(data: &Dataset<T>, config: &LossyConfig) -> Result<CompressionOutcome, SzError> {
    compress_streamed(data, config, 0, |_| Ok(()))
}

/// One compressed chunk handed to a [`compress_streamed`] sink — in index
/// order, as soon as it *and every earlier chunk* are encoded. `payload` is
/// exactly the byte run the chunk occupies in the finished container, and
/// `entry` is its chunk-table row, so a consumer can forward the chunk into
/// a transfer lane and decode it on arrival without waiting for the blob.
#[derive(Debug)]
pub struct StreamedChunk<'a> {
    /// Chunk index within the container (0-based, dense).
    pub index: usize,
    /// The container header the chunk belongs to.
    pub header: &'a BlobHeader,
    /// Shape of this chunk (same rank as the dataset, shorter dimension 0).
    pub dims: &'a [usize],
    /// The chunk's row in the container's chunk table.
    pub entry: ChunkEntry,
    /// The chunk's container payload bytes.
    pub payload: &'a [u8],
}

/// Streaming variant of [`compress`]: hands each compressed chunk to `sink`
/// in index order as soon as it is ready, with at most `window` chunks in
/// flight between the compress workers and the sink (`window == 0` means
/// unbounded — the staged degenerate case). Workers that run ahead of the
/// sink stall until it catches up, bounding buffered chunk memory by the
/// window instead of the dataset size.
///
/// The returned outcome — including the assembled container blob — is
/// byte-identical to [`compress`] at every thread count and window size.
///
/// # Errors
/// Everything [`compress`] returns, plus any error the sink raises. The
/// first error in chunk order, encode or sink, stops the workers and is
/// returned.
pub fn compress_streamed<T: ScalarValue>(
    data: &Dataset<T>,
    config: &LossyConfig,
    window: usize,
    sink: impl FnMut(StreamedChunk<'_>) -> Result<(), SzError>,
) -> Result<CompressionOutcome, SzError> {
    config.validate()?;
    let header = BlobHeader {
        family: CodecFamily::Prediction,
        dtype: T::TYPE_NAME,
        dims: data.dims().to_vec(),
        abs_eb: 0.0, // `config.error_bound`, resolved on the pool
        predictor: config.predictor,
        backend: config.backend,
        quant_radius: config.quant_radius,
    };
    let zero_code = config.quant_radius;

    // Every chunk stands alone: its own predictor run, its own histogram and
    // its own packed Huffman table, all on the worker that claimed it.
    let (threads, chunk_points) = (config.threads, config.chunk_points);
    compress_chunked_streamed(data, header, config.error_bound, threads, chunk_points, window, sink, |header, chunk| {
        let quantizer = LinearQuantizer::new(header.abs_eb, header.quant_radius);
        let streams = run_predictor(chunk, config.predictor, &quantizer)?;
        // A chunk's codes are counted once: the same histogram builds the
        // Huffman table and feeds the job's bin statistics.
        let hist = code_histogram(&streams.codes);
        let coded = encode_codes(&streams.codes, &hist, config.backend, zero_code);
        let mut unpred_bytes = Vec::with_capacity(streams.unpredictable.len() * T::BYTES);
        for &v in &streams.unpredictable {
            v.write_le(&mut unpred_bytes);
        }
        let mut payload = Vec::with_capacity(24 + streams.side_data.len() + unpred_bytes.len() + coded.bytes.len());
        write_framed(&mut payload, &streams.side_data);
        write_framed(&mut payload, &unpred_bytes);
        write_framed(&mut payload, &coded.bytes);
        // CRC on the worker, while the payload is cache-hot, instead of on
        // the in-order consumer where it would serialize behind every chunk.
        let crc = {
            let _p = prof::probe(Kernel::FrameCrc, payload.len());
            crate::checksum::crc32(&payload)
        };
        Ok(EncodedChunk {
            payload,
            crc,
            hist,
            unpredictable: streams.unpredictable.len() as u64,
            side_bytes: streams.side_data.len(),
            unpred_bytes: unpred_bytes.len(),
            code_bytes: coded.bytes.len(),
            table_bytes: coded.table_bytes,
        })
    })
}

/// Shared chunked-container assembly: plans the layout, runs `encode_chunk`
/// on the worker pool, and frames the chunked blob. Used by both codec
/// families.
pub(crate) fn compress_chunked<T, F>(
    data: &Dataset<T>,
    header: BlobHeader,
    threads: usize,
    chunk_points: Option<usize>,
    encode_chunk: F,
) -> Result<CompressionOutcome, SzError>
where
    T: ScalarValue,
    F: Fn(DatasetView<'_, T>) -> Result<EncodedChunk, SzError> + Sync,
{
    let bound = ErrorBound::Abs(header.abs_eb);
    compress_chunked_streamed(data, header, bound, threads, chunk_points, 0, |_| Ok(()), |_, chunk| encode_chunk(chunk))
}

/// Streaming core shared by [`compress_chunked`] (no-op sink, unbounded
/// window) and [`compress_streamed`]: chunks are encoded on the worker pool
/// and *consumed in index order* on the calling thread — each one offered to
/// `sink` the moment it is in order — so the container bytes never depend on
/// scheduling, window, or thread count.
///
/// The container's header is `header` with `bound` resolved against `data`
/// as its `abs_eb`, and `encode_chunk` is handed that header. A relative
/// bound's value range is taken on the pool: each worker scans the slabs it
/// claims before any chunk is encoded, and the slabs' extremes fold in
/// index order into exactly [`Dataset::min_max`]'s.
#[allow(clippy::too_many_arguments)]
fn compress_chunked_streamed<T, F, S>(
    data: &Dataset<T>,
    header: BlobHeader,
    bound: ErrorBound,
    threads: usize,
    chunk_points: Option<usize>,
    window: usize,
    mut sink: S,
    encode_chunk: F,
) -> Result<CompressionOutcome, SzError>
where
    T: ScalarValue,
    F: Fn(&BlobHeader, DatasetView<'_, T>) -> Result<EncodedChunk, SzError> + Sync,
    S: FnMut(StreamedChunk<'_>) -> Result<(), SzError>,
{
    // Calling-thread profiling scope: in-order consumption (CRC, container
    // assembly) and, with `threads == 1`, the chunk encoding itself drain
    // here. Worker threads open their own per-chunk scopes.
    let _pscope = prof::scope(ScopeId::COMPRESS);
    let layout = ChunkLayout::plan(data.dims(), threads, chunk_points);
    let n = layout.n_chunks();
    // All chunks but the last share one shape; precompute both so splitting
    // allocates nothing per chunk (the slab itself is a borrowed sub-slice).
    let full_dims = layout.chunk_dims(0);
    let tail_dims = layout.chunk_dims(n - 1);
    let dims_of = |i: usize| -> &[usize] {
        if layout.rows_in_chunk(i) == full_dims[0] {
            &full_dims
        } else {
            &tail_dims
        }
    };
    let zero_code = header.quant_radius;
    // In-order consumer state: chunk payloads append straight into `body`
    // (the byte run that becomes the container's chunk region) the moment
    // they are in order, per-chunk histograms merge into one running
    // histogram, and byte accounting stays scalar — nothing per-point is
    // retained after a chunk is sealed.
    let mut body: Vec<u8> = Vec::new();
    let mut entries: Vec<ChunkEntry> = Vec::with_capacity(n);
    let mut hist: Vec<(u32, u64)> = Vec::new();
    let mut sections = SectionSizes::default();
    let slab = |i: usize| &data.values()[layout.value_range(i)];
    let header = parallel_map_windowed(
        n,
        threads,
        window,
        |i| matches!(bound, ErrorBound::Rel(_)).then(|| min_max_of(slab(i))).flatten(),
        |extremes| {
            let mut header = header;
            header.abs_eb = bound.resolve_with(|| {
                let (min, max) = fold_min_max(extremes);
                max.to_f64() - min.to_f64()
            });
            header
        },
        |header, i| {
            let _pchunk = prof::scope(ScopeId::COMPRESS);
            let view = DatasetView::new(dims_of(i), slab(i)).expect("chunk shapes are valid by construction");
            encode_chunk(header, view)
        },
        |header, i, result| {
            let c = result?;
            let zero_bins = c.hist.binary_search_by_key(&zero_code, |&(code, _)| code).map_or(0, |idx| c.hist[idx].1);
            let entry = ChunkEntry {
                len: c.payload.len(),
                crc: c.crc,
                points: layout.points_in_chunk(i) as u64,
                zero_bins,
                unpredictable: c.unpredictable,
                table_mode: header.family.table_mode(),
            };
            sink(StreamedChunk { index: i, header, dims: dims_of(i), entry, payload: &c.payload })?;
            entries.push(entry);
            body.extend_from_slice(&c.payload);
            merge_histograms(&mut hist, &c.hist);
            sections.side_data += c.side_bytes;
            sections.unpredictable += c.unpred_bytes;
            sections.codes += c.code_bytes;
            sections.tables += c.table_bytes;
            Ok(())
        },
    )?;

    let bin_stats = quant_bin_stats_from_hist(&hist, zero_code);
    let table = ChunkTable { chunk_rows: layout.chunk_rows(), entries };

    let table_bytes = table.encode();
    // The chunk region's CRC from the chunks' own, so the trailer never
    // hashes the payloads a second time.
    let body_crc = table.entries.iter().fold(0, |crc, e| crc32_combine(crc, e.crc, e.len));
    let mut writer = BlobWriter::new(&header)?;
    // The section after the chunk table once held a table the chunks
    // shared; it stays, empty, so the container bytes did not change.
    writer
        .reserve(16 + table_bytes.len() + body.len() + 4)
        .section(&table_bytes)
        .section(&[])
        .raw_checksummed(&body, body_crc);
    let blob = writer.finish();

    let original_bytes = data.nbytes();
    let ratio = original_bytes as f64 / blob.len() as f64;
    sections.framing = blob.len() - (sections.side_data + sections.unpredictable + sections.codes);
    Ok(CompressionOutcome { blob, bin_stats, original_bytes, ratio, sections, chunks: n })
}

/// Decompresses a blob on a single thread.
///
/// # Errors
/// Returns [`SzError::TypeMismatch`] if `T` differs from the compressed
/// type, [`SzError::CorruptStream`] for malformed payloads, and
/// [`SzError::UnsupportedVersion`] for any version but
/// [`crate::format::VERSION`].
pub fn decompress<T: ScalarValue>(blob: &CompressedBlob) -> Result<Dataset<T>, SzError> {
    decompress_with_threads(blob, 1)
}

/// Decompresses a blob, decoding its chunks on up to `threads` workers.
/// Output is identical for every thread count.
///
/// The chunk table is validated against the header's shape before the
/// output is allocated once; each chunk then decodes (in parallel when
/// `threads > 1`) straight into its own row slab of it — the slabs are
/// disjoint and their bounds a pure function of shape and `chunk_rows`, so
/// nothing is reassembled afterwards.
///
/// # Errors
/// Same as [`decompress`]. Additionally returns
/// [`SzError::InvalidConfig`] if `threads == 0`.
pub fn decompress_with_threads<T: ScalarValue>(blob: &CompressedBlob, threads: usize) -> Result<Dataset<T>, SzError> {
    if threads == 0 {
        return Err(SzError::InvalidConfig("thread count must be at least 1".into()));
    }
    let _pscope = prof::scope(ScopeId::DECOMPRESS);
    let (header, table, body) = blob.open_chunks()?;
    if header.dtype != T::TYPE_NAME {
        return Err(SzError::TypeMismatch { expected: T::TYPE_NAME, found: header.dtype.to_string() });
    }
    // Before anything is derived from the shape: every later product (row
    // points, chunk points) divides this one.
    let total = checked_points(&header.dims)?;
    let layout = ChunkLayout::from_chunk_rows(&header.dims, table.chunk_rows);
    if table.entries.len() != layout.n_chunks() {
        return Err(SzError::CorruptStream(format!(
            "chunk table holds {} chunks but the shape implies {}",
            table.entries.len(),
            layout.n_chunks()
        )));
    }
    for (i, e) in table.entries.iter().enumerate() {
        if e.points != layout.points_in_chunk(i) as u64 {
            return Err(SzError::CorruptStream(format!("chunk {i} declares {} points", e.points)));
        }
    }
    let offsets = table.offsets();
    let n = layout.n_chunks();
    // Chunk shapes are shared, not cloned per chunk (see compress side).
    let full_dims = layout.chunk_dims(0);
    let tail_dims = layout.chunk_dims(n - 1);
    // The table agrees with the shape: only now is the output allocated.
    let mut out = vec![T::zero(); total];
    // One uncontended lock per slab hands each `&mut` to whichever worker
    // claims its chunk.
    let slabs: Vec<Mutex<&mut [T]>> = out.chunks_mut(layout.points_in_chunk(0)).map(Mutex::new).collect();
    parallel_map(n, threads, |i| {
        let _pchunk = prof::scope(ScopeId::DECOMPRESS);
        let entry = &table.entries[i];
        let payload = &body[offsets[i]..offsets[i] + entry.len];
        let chunk_dims = if layout.rows_in_chunk(i) == full_dims[0] { &full_dims } else { &tail_dims };
        let mut slab = slabs[i].lock().expect("slab lock");
        decode_chunk_into::<T>(&header, chunk_dims, i, entry, payload, &mut slab)
    })?;
    drop(slabs);
    Dataset::new(header.dims, out)
}

/// Decodes one container chunk — CRC check plus family dispatch — into `out`,
/// the chunk's slab of the destination buffer. `entry` is the chunk's table
/// row and `payload` its container bytes, exactly as a [`compress_streamed`]
/// sink receives them, so a streamed consumer can decode each chunk on
/// arrival without the blob.
///
/// # Errors
/// Returns [`SzError::CorruptStream`] on a table-mode tag that is not the
/// header family's, a CRC mismatch, a malformed payload, or a slab that does
/// not hold exactly the points of `dims`.
pub fn decode_chunk_into<T: ScalarValue>(
    header: &BlobHeader,
    dims: &[usize],
    index: usize,
    entry: &ChunkEntry,
    payload: &[u8],
    out: &mut [T],
) -> Result<(), SzError> {
    check_table_mode(header, entry).map_err(|e| SzError::CorruptStream(format!("chunk {index}: {e}")))?;
    let crc = {
        let _p = prof::probe(Kernel::FrameCrc, payload.len());
        crate::checksum::crc32(payload)
    };
    if crc != entry.crc {
        return Err(SzError::CorruptStream(format!("chunk {index} failed its CRC-32 check")));
    }
    match header.family {
        CodecFamily::Transform => zfp::decode_chunk_payload_into(dims, payload, out),
        CodecFamily::Prediction => {
            let mut sections = SectionReader::over(payload);
            let side_data = sections.next_section()?;
            let unpred_bytes = sections.next_section()?;
            if !unpred_bytes.len().is_multiple_of(T::BYTES) {
                return Err(SzError::CorruptStream("unpredictable section misaligned".into()));
            }
            let unpredictable: Vec<T> = unpred_bytes.chunks_exact(T::BYTES).map(T::read_le).collect();
            let codes = decode_codes(sections.next_section()?, header.backend, header.quant_radius, out.len())?;
            let streams = StreamsView { codes: &codes, unpredictable: &unpredictable, side_data };
            reconstruct_into(header, dims, streams, out)
        }
    }
}

/// The tag check every chunk reader makes: a chunk carries its family's
/// [`CodecFamily::table_mode`] and nothing else.
fn check_table_mode(header: &BlobHeader, entry: &ChunkEntry) -> Result<(), SzError> {
    let expected = header.family.table_mode();
    if entry.table_mode != expected {
        return Err(SzError::CorruptStream(format!(
            "table mode {} on a {:?} chunk, which carries {expected}",
            entry.table_mode, header.family
        )));
    }
    Ok(())
}

/// Runs the header's predictor backwards over `streams` into `out`, the slab
/// for shape `dims`: every predictor reconstructs in `out` itself.
fn reconstruct_into<T: ScalarValue>(
    header: &BlobHeader,
    dims: &[usize],
    streams: StreamsView<'_, T>,
    out: &mut [T],
) -> Result<(), SzError> {
    let quantizer = LinearQuantizer::new(header.abs_eb, header.quant_radius);
    let _p = prof::probe(Kernel::Predict, std::mem::size_of_val(out));
    match header.predictor {
        PredictorKind::InterpLinear => interp::decompress_into(dims, streams, &quantizer, interp::Basis::Linear, out),
        PredictorKind::InterpCubic => interp::decompress_into(dims, streams, &quantizer, interp::Basis::Cubic, out),
        PredictorKind::Lorenzo => lorenzo::decompress_into(dims, streams, &quantizer, out),
        PredictorKind::Regression => regression::decompress_into(dims, streams, &quantizer, out),
    }
}

fn run_predictor<T: ScalarValue>(
    data: DatasetView<'_, T>,
    predictor: PredictorKind,
    quantizer: &LinearQuantizer,
) -> Result<PredictionStreams<T>, SzError> {
    // The probe covers the fused predict+quantize sweep: quantization
    // never runs as a separate pass, so "predict" is the honest unit.
    let _p = prof::probe(Kernel::Predict, data.nbytes());
    match predictor {
        PredictorKind::Lorenzo => lorenzo::compress(data, quantizer),
        PredictorKind::Regression => regression::compress(data, quantizer),
        PredictorKind::InterpLinear => interp::compress(data, quantizer, interp::Basis::Linear),
        PredictorKind::InterpCubic => interp::compress(data, quantizer, interp::Basis::Cubic),
    }
}

/// A chunk's entropy-coded quantization codes.
struct CodedStream {
    bytes: Vec<u8>,
    /// How many bytes of the Huffman stage's output are an embedded table.
    table_bytes: usize,
}

/// Huffman stage: a self-describing stream — the chunk's own table, packed,
/// in front of its code bits. `hist` is the symbols' histogram where the
/// caller already has it.
fn huffman_stage(symbols: &[u32], hist: Option<&[(u32, u64)]>) -> CodedStream {
    let _p = prof::probe(Kernel::HuffmanEncode, std::mem::size_of_val(symbols));
    let (bytes, table_bytes) = match hist {
        Some(hist) => huffman_encode_counted(symbols, hist),
        None => huffman_encode_counted(symbols, &freq_pairs(symbols)),
    };
    CodedStream { bytes, table_bytes }
}

/// Entropy-codes a chunk's quantization `codes`, whose histogram is `hist`.
fn encode_codes(codes: &[u32], hist: &[(u32, u64)], backend: LosslessBackend, zero_code: u32) -> CodedStream {
    let code_bytes = std::mem::size_of_val(codes);
    match backend {
        LosslessBackend::Huffman => huffman_stage(codes, Some(hist)),
        LosslessBackend::HuffmanLz => {
            let huff = huffman_stage(codes, Some(hist));
            let _p = prof::probe(Kernel::Lz, huff.bytes.len());
            CodedStream { bytes: lz_compress(&huff.bytes), ..huff }
        }
        LosslessBackend::RleHuffman => {
            let runs = {
                let _p = prof::probe(Kernel::Rle, code_bytes);
                rle_encode(codes, zero_code)
            };
            // The Huffman symbols are runs, not codes: counted on their own.
            huffman_stage(&runs, None)
        }
    }
}

/// Inverse of [`huffman_stage`].
fn unhuffman_stage(bytes: &[u8]) -> Result<Vec<u32>, SzError> {
    let _p = prof::probe(Kernel::HuffmanDecode, bytes.len());
    huffman_decode(bytes)
}

/// The code-length table a prediction-family chunk embeds in front of its
/// code bits, and how many bytes it takes there (under `HuffmanLz`, of the
/// stream the LZ pass then compressed). `None` for the transform family.
/// `entry` and `payload` are the chunk's table row and container bytes.
///
/// # Errors
/// Returns [`SzError::CorruptStream`] for a table-mode tag that is not the
/// header family's, and for a payload or table that does not parse.
pub fn embedded_table(
    header: &BlobHeader,
    entry: &ChunkEntry,
    payload: &[u8],
) -> Result<Option<(HuffmanTable, usize)>, SzError> {
    check_table_mode(header, entry)?;
    if header.family != CodecFamily::Prediction {
        return Ok(None);
    }
    let mut sections = SectionReader::over(payload);
    let (_side_data, _unpred_bytes) = (sections.next_section()?, sections.next_section()?);
    let encoded_codes = sections.next_section()?;
    let unpacked;
    let stream = match header.backend {
        LosslessBackend::HuffmanLz => {
            unpacked = lz_decompress(encoded_codes)?;
            unpacked.as_slice()
        }
        _ => encoded_codes,
    };
    let mut table_bytes = 0usize;
    Ok(parse_packed_table(stream, &mut table_bytes)?.map(|table| (table, table_bytes)))
}

/// Entropy-decodes the quantization codes of a prediction-family chunk of
/// `points` points.
fn decode_codes(bytes: &[u8], backend: LosslessBackend, zero_code: u32, points: usize) -> Result<Vec<u32>, SzError> {
    match backend {
        LosslessBackend::Huffman => unhuffman_stage(bytes),
        LosslessBackend::HuffmanLz => {
            let raw = {
                let _p = prof::probe(Kernel::Lz, bytes.len());
                lz_decompress(bytes)?
            };
            unhuffman_stage(&raw)
        }
        LosslessBackend::RleHuffman => {
            let encoded = unhuffman_stage(bytes)?;
            let _p = prof::probe(Kernel::Rle, std::mem::size_of_val(encoded.as_slice()));
            rle_decode(&encoded, zero_code, points)
                .ok_or_else(|| SzError::CorruptStream("rle: malformed run stream".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use std::sync::Arc;

    fn wavy(dims: Vec<usize>) -> Dataset<f32> {
        Dataset::from_fn(dims, |i| {
            let x = i.iter().enumerate().map(|(d, &v)| (v as f32) * 0.11 * (d as f32 + 1.0)).sum::<f32>();
            x.sin() * 10.0 + 0.3 * x
        })
    }

    #[test]
    fn all_pipelines_respect_error_bound() {
        let data = wavy(vec![24, 30, 18]);
        for predictor in PredictorKind::ALL {
            for backend in [LosslessBackend::Huffman, LosslessBackend::HuffmanLz, LosslessBackend::RleHuffman] {
                let cfg = LossyConfig::sz3_abs(1e-3).with_predictor(predictor).with_backend(backend);
                let blob = compress(&data, &cfg).unwrap().blob;
                let out = decompress::<f32>(&blob).unwrap();
                let report = metrics::compare(&data, &out).unwrap();
                assert!(report.within_bound(1e-3), "{predictor:?}/{backend:?}: max={}", report.max_abs_error);
            }
        }
    }

    #[test]
    fn chunked_pipelines_respect_error_bound() {
        let data = wavy(vec![24, 30, 18]);
        for predictor in PredictorKind::ALL {
            let cfg = LossyConfig::sz3_abs(1e-3).with_predictor(predictor).with_threads(4);
            let out = compress(&data, &cfg).unwrap();
            assert!(out.chunks > 1, "threads=4 splits into multiple chunks");
            for threads in [1, 3] {
                let restored = decompress_with_threads::<f32>(&out.blob, threads).unwrap();
                let report = metrics::compare(&data, &restored).unwrap();
                assert!(report.within_bound(1e-3), "{predictor:?}: max={}", report.max_abs_error);
            }
        }
    }

    #[test]
    fn chunked_blob_is_deterministic_across_thread_counts() {
        let data = wavy(vec![40, 12]);
        // Pinning chunk_points pins the layout, so only scheduling differs.
        let cfg = LossyConfig::sz3_abs(1e-3).with_chunk_points(Some(60));
        let serial = compress(&data, &cfg.with_threads(1)).unwrap();
        assert!(serial.chunks > 1);
        for threads in [2, 4, 8] {
            let parallel = compress(&data, &cfg.with_threads(threads)).unwrap();
            assert_eq!(parallel.blob, serial.blob, "threads={threads} changed the bytes");
        }
        let a = decompress::<f32>(&serial.blob).unwrap();
        let b = decompress_with_threads::<f32>(&serial.blob, 4).unwrap();
        assert_eq!(a.values(), b.values(), "decode is thread-count independent");
    }

    #[test]
    fn relative_bound_resolves_at_compression_time() {
        let data = wavy(vec![64, 64]);
        let cfg = LossyConfig::sz3(1e-3); // relative
        let blob = compress(&data, &cfg).unwrap().blob;
        let abs = blob.header().unwrap().abs_eb;
        assert!((abs - 1e-3 * data.value_range()).abs() < 1e-12);
        let out = decompress::<f32>(&blob).unwrap();
        assert!(metrics::compare(&data, &out).unwrap().within_bound(abs));
    }

    #[test]
    fn relative_bound_resolves_against_the_whole_dataset_not_chunks() {
        // A gradient dataset: each chunk sees a narrower range than the
        // whole. The bound must come from the global range.
        let data = Dataset::from_fn(vec![64, 8], |i| (i[0] * 8 + i[1]) as f32);
        let cfg = LossyConfig::sz3(1e-3).with_threads(4);
        let blob = compress(&data, &cfg).unwrap().blob;
        let abs = blob.header().unwrap().abs_eb;
        assert!((abs - 1e-3 * data.value_range()).abs() < 1e-9, "global range, got {abs}");
    }

    #[test]
    fn pooled_min_max_matches_the_serial_scan_bit_for_bit() {
        // The palette of `min_max_matches_the_one_pass_scan_bit_for_bit`, cut
        // into slabs of one, two and all rows and scanned on the pool: the
        // fold must pick the value — and, for a zero, the sign — the serial
        // scan picks. Rows 2 and 3 are all NaN, a whole slab at two rows.
        // The rows of 65 and 97 give a slab whole 32-lane blocks and a tail.
        let palette = [0.0f32, -0.0, f32::NAN, 1.5, -1.5, 3.0, f32::INFINITY, f32::NEG_INFINITY, 1e-30, -1e-30];
        let bits = |(lo, hi): (f32, f32)| (lo.to_bits(), hi.to_bits());
        let mut state = 7u64;
        for (rows, cols) in [(1usize, 7usize), (5, 3), (12, 5), (33, 8), (4, 2), (7, 65), (4, 97)] {
            for span in [3usize, 6, palette.len(), 0] {
                let mut values: Vec<f32> = (0..rows * cols)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        if span == 0 {
                            f32::NAN
                        } else {
                            palette[(state >> 33) as usize % span]
                        }
                    })
                    .collect();
                if rows >= 4 {
                    values[2 * cols..4 * cols].fill(f32::NAN);
                }
                let data = Dataset::new(vec![rows, cols], values).unwrap();
                let want = bits(data.min_max());
                for threads in [1, 2, 3, 8] {
                    for chunk_rows in [1, 2, rows] {
                        let layout = ChunkLayout::plan(data.dims(), threads, Some(chunk_rows * cols));
                        let pooled = parallel_map_windowed(
                            layout.n_chunks(),
                            threads,
                            0,
                            |i| min_max_of(&data.values()[layout.value_range(i)]),
                            fold_min_max,
                            |_, _| (),
                            |_, _, _| Ok::<_, ()>(()),
                        );
                        assert_eq!(
                            bits(pooled.unwrap()),
                            want,
                            "{rows}x{cols} span {span} threads {threads} rows {chunk_rows}"
                        );
                    }
                    // The bound the pool resolves is the serial one; ±∞ make
                    // no finite bound, so the first two palettes only.
                    if (1..=6).contains(&span) {
                        let cfg = LossyConfig::sz3(1e-3).with_threads(threads).with_chunk_points(Some(2 * cols));
                        let abs_eb = compress(&data, &cfg).unwrap().blob.header().unwrap().abs_eb;
                        assert_eq!(abs_eb.to_bits(), cfg.error_bound.resolve(&data).to_bits(), "threads {threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn tighter_bound_means_lower_ratio() {
        let data = wavy(vec![60, 60]);
        let loose = compress(&data, &LossyConfig::sz3(1e-2)).unwrap();
        let tight = compress(&data, &LossyConfig::sz3(1e-5)).unwrap();
        assert!(loose.ratio > tight.ratio, "loose={} tight={}", loose.ratio, tight.ratio);
    }

    #[test]
    fn type_mismatch_is_detected() {
        let data = wavy(vec![16, 16]);
        let blob = compress(&data, &LossyConfig::sz3(1e-3)).unwrap().blob;
        assert!(matches!(decompress::<f64>(&blob), Err(SzError::TypeMismatch { .. })));
    }

    #[test]
    fn f64_round_trip() {
        let data = Dataset::from_fn(vec![40, 40], |i| ((i[0] * i[1]) as f64 * 0.001).cos());
        let cfg = LossyConfig::sz3_abs(1e-6).with_threads(2);
        let blob = compress(&data, &cfg).unwrap().blob;
        let out = decompress::<f64>(&blob).unwrap();
        assert!(metrics::compare(&data, &out).unwrap().within_bound(1e-6));
    }

    #[test]
    fn bin_stats_reflect_smoothness() {
        // Exactly Lorenzo-predictable integer lattice: p0 = 1.
        let smooth = Dataset::from_fn(vec![64, 64], |i| (i[0] + i[1]) as f32);
        let cfg = LossyConfig::lorenzo(1.0).with_error_bound(ErrorBound::Abs(0.25));
        let out = compress(&smooth, &cfg).unwrap();
        // Interior is exactly predicted; the domain boundary (~3 %) is not.
        assert!(out.bin_stats.p0 > 0.95, "p0={}", out.bin_stats.p0);
        // Noisy data lands far from p0 = 1.
        let mut state = 3u64;
        let noise = Dataset::from_fn(vec![64, 64], |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f32
        });
        let noisy = compress(&noise, &cfg).unwrap();
        assert!(noisy.bin_stats.p0 < out.bin_stats.p0);
        // Huge random jumps overwhelm the 0.25 bound: most points are stored
        // verbatim rather than quantized.
        assert!(noisy.bin_stats.unpredictable > 0.5);
    }

    #[test]
    fn chunk_table_stats_sum_to_the_aggregate() {
        let data = wavy(vec![50, 20]);
        let cfg = LossyConfig::sz3_abs(1e-3).with_threads(4);
        let out = compress(&data, &cfg).unwrap();
        let (_, table, _) = out.blob.open_chunks().unwrap();
        assert_eq!(table.entries.len(), out.chunks);
        let points: u64 = table.entries.iter().map(|e| e.points).sum();
        assert_eq!(points, 50 * 20);
        let zeros: u64 = table.entries.iter().map(|e| e.zero_bins).sum();
        let p0 = zeros as f64 / points as f64;
        assert!((p0 - out.bin_stats.p0).abs() < 1e-12, "table p0 {p0} vs stats {}", out.bin_stats.p0);
        assert_eq!(out.blob.as_bytes()[4..6], crate::format::VERSION.to_le_bytes());
    }

    #[test]
    fn invalid_config_rejected() {
        let data = wavy(vec![8, 8]);
        assert!(compress(&data, &LossyConfig::sz3_abs(0.0)).is_err());
        assert!(compress(&data, &LossyConfig::sz3_abs(1e-3).with_threads(0)).is_err());
    }

    #[test]
    fn corrupt_blob_rejected_gracefully() {
        let data = wavy(vec![16, 16]);
        let blob = compress(&data, &LossyConfig::sz3(1e-3)).unwrap().blob;
        let mut bytes = blob.into_bytes();
        let n = bytes.len();
        bytes.truncate(n - 10);
        // Framing may already reject the truncation; if it parses, the
        // decoder must reject it instead.
        if let Ok(blob) = CompressedBlob::from_bytes(bytes) {
            assert!(decompress::<f32>(&blob).is_err());
        }
    }

    #[test]
    fn corrupt_chunk_is_pinpointed_by_its_crc() {
        let data = wavy(vec![64, 16]);
        let out = compress(&data, &LossyConfig::sz3_abs(1e-3).with_threads(4)).unwrap();
        assert!(out.chunks > 1);
        let mut bytes = out.blob.into_bytes();
        // Flip a bit deep in the chunk region, then re-seal the outer CRC so
        // only the per-chunk checksum can catch it.
        let n = bytes.len();
        bytes[n - 20] ^= 0x10;
        let body = n - 4;
        let crc = crate::checksum::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        let blob = CompressedBlob::from_bytes(bytes).unwrap();
        match decompress::<f32>(&blob) {
            Err(SzError::CorruptStream(msg)) => assert!(msg.contains("CRC"), "unexpected message: {msg}"),
            other => panic!("expected per-chunk CRC failure, got {other:?}"),
        }
    }

    /// Rebuilds `blob` after `edit` changed its parsed parts, re-sealing both
    /// checksums (every chunk's CRC and length in the table, then the
    /// trailer) so that only structural validation can reject the result.
    fn rebuild(
        blob: &CompressedBlob,
        edit: impl FnOnce(&mut BlobHeader, &mut ChunkTable, &mut Vec<Vec<u8>>),
    ) -> CompressedBlob {
        let (mut header, mut table, body) = blob.open_chunks().unwrap();
        let mut payloads: Vec<Vec<u8>> =
            table.offsets().iter().zip(&table.entries).map(|(&at, e)| body[at..at + e.len].to_vec()).collect();
        edit(&mut header, &mut table, &mut payloads);
        for (entry, payload) in table.entries.iter_mut().zip(&payloads) {
            entry.len = payload.len();
            entry.crc = crate::checksum::crc32(payload);
        }
        let mut writer = BlobWriter::new(&header).unwrap();
        writer.section(&table.encode()).section(&[]);
        for payload in &payloads {
            writer.raw(payload);
        }
        CompressedBlob::from_bytes(writer.finish().into_bytes()).expect("both checksums re-sealed")
    }

    fn assert_corrupt(blob: &CompressedBlob, what: &str) {
        for threads in [1, 3] {
            match decompress_with_threads::<f32>(blob, threads) {
                Err(SzError::CorruptStream(_)) => {}
                other => panic!("{what}: expected CorruptStream, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_shapes_are_typed_errors_before_anything_is_allocated() {
        let data = wavy(vec![64, 16]);
        let blob = compress(&data, &LossyConfig::sz3_abs(1e-3).with_chunk_points(Some(256))).unwrap().blob;
        assert_eq!(decompress::<f32>(&rebuild(&blob, |_, _, _| {})).unwrap(), decompress::<f32>(&blob).unwrap());

        // A shape whose point count overflows `usize` — to zero, which a
        // wrapping product would happily "validate" against `points = 0`.
        let overflowing = rebuild(&blob, |header, table, payloads| {
            header.dims = vec![1 << 32, 1 << 32];
            table.chunk_rows = 1 << 32;
            table.entries.truncate(1);
            table.entries[0].points = 0;
            payloads.truncate(1);
        });
        assert_corrupt(&overflowing, "overflowing shape");
        let huge = rebuild(&blob, |header, _, _| header.dims = vec![usize::MAX, 2, 3]);
        assert_corrupt(&huge, "overflowing shape, rank 3");

        // A consistent-looking table over the wrong shape: the same chunk
        // count, but every slab is half as long as its payload's code stream.
        let halved = rebuild(&blob, |header, table, _| {
            header.dims = vec![64, 8];
            for e in &mut table.entries {
                e.points = 128;
            }
        });
        assert_corrupt(&halved, "slab shorter than the chunk's codes");
        let doubled = rebuild(&blob, |header, table, _| {
            header.dims = vec![64, 32];
            for e in &mut table.entries {
                e.points = 512;
            }
        });
        assert_corrupt(&doubled, "slab longer than the chunk's codes");

        // `points` out of step with the layout, and a chunk count that is.
        assert_corrupt(&rebuild(&blob, |_, table, _| table.entries[2].points += 1), "points mismatch");
        assert_corrupt(&rebuild(&blob, |header, _, _| header.dims = vec![65, 16]), "chunk count mismatch");
    }

    #[test]
    fn short_and_long_unpredictable_pools_are_typed_errors_in_place() {
        // Radius 2 at a tight bound: most points escape to the pool. Every
        // predictor reconstructs in the caller's slab; Lorenzo's rows also
        // take their pool cursors from a count made before the walk.
        let data = wavy(vec![40, 12]);
        for predictor in PredictorKind::ALL {
            let cfg = LossyConfig::sz3_abs(1e-4).with_predictor(predictor).with_quant_radius(2);
            let out = compress(&data, &cfg.with_chunk_points(Some(120))).unwrap();
            assert!(out.chunks > 1 && out.bin_stats.unpredictable > 0.1, "test needs escapes in several chunks");
            let resize_pool = |chunk: usize, grow: bool| {
                rebuild(&out.blob, |_, table, payloads| {
                    let mut parts = SectionReader::over(&payloads[chunk]);
                    let side = parts.next_section().unwrap().to_vec();
                    let mut pool = parts.next_section().unwrap().to_vec();
                    let codes = parts.next_section().unwrap().to_vec();
                    assert!(pool.len() >= 8, "chunk {chunk} has escapes");
                    if grow {
                        pool.extend_from_slice(&1.5f32.to_le_bytes());
                        table.entries[chunk].unpredictable += 1;
                    } else {
                        pool.truncate(pool.len() - 4);
                        table.entries[chunk].unpredictable -= 1;
                    }
                    let mut payload = Vec::new();
                    write_framed(&mut payload, &side);
                    write_framed(&mut payload, &pool);
                    write_framed(&mut payload, &codes);
                    payloads[chunk] = payload;
                })
            };
            for chunk in [0, out.chunks - 1] {
                assert_corrupt(&resize_pool(chunk, false), &format!("{predictor:?}: short pool"));
                assert_corrupt(&resize_pool(chunk, true), &format!("{predictor:?}: long pool"));
            }
        }
    }

    /// [`rebuild`] with `edit` applied to what the Huffman stage wrote for
    /// each chunk — the embedded table and the code bits behind it, out of
    /// their LZ wrapping under `HuffmanLz`.
    fn rebuild_huffman_streams(blob: &CompressedBlob, edit: impl Fn(&mut Vec<u8>)) -> CompressedBlob {
        rebuild(blob, |header, _, payloads| {
            for payload in payloads {
                let mut parts = SectionReader::over(payload);
                let (side, pool) = (parts.next_section().unwrap().to_vec(), parts.next_section().unwrap().to_vec());
                let coded = parts.next_section().unwrap();
                let lz = header.backend == LosslessBackend::HuffmanLz;
                let mut stream = if lz { lz_decompress(coded).unwrap() } else { coded.to_vec() };
                edit(&mut stream);
                *payload = Vec::new();
                write_framed(payload, &side);
                write_framed(payload, &pool);
                write_framed(payload, &if lz { lz_compress(&stream) } else { stream });
            }
        })
    }

    #[test]
    fn hostile_packed_tables_are_typed_errors_or_bounded_decodes() {
        let data = wavy(vec![40, 12]);
        let expected = |blob: &CompressedBlob| decompress::<f32>(blob).unwrap();
        // Sealed by both checksums, a blob gets as far as the table parser:
        // it must come back as a typed error or as a dataset of the declared
        // shape, at any thread count.
        let survives = |blob: &CompressedBlob, what: &str| -> bool {
            let results = [1, 3].map(|threads| decompress_with_threads::<f32>(blob, threads));
            for result in &results {
                match result {
                    Ok(restored) => assert_eq!(restored.dims(), data.dims(), "{what}"),
                    Err(SzError::CorruptStream(_)) => {}
                    Err(other) => panic!("{what}: expected CorruptStream, got {other:?}"),
                }
            }
            results[0].is_ok()
        };
        for backend in [LosslessBackend::Huffman, LosslessBackend::HuffmanLz, LosslessBackend::RleHuffman] {
            let blob = compress(&data, &LossyConfig::sz3_abs(1e-3).with_backend(backend)).unwrap().blob;
            let what = |case: &str| format!("{backend:?}: {case}");
            let (header, table, body) = blob.open_chunks().unwrap();
            let entry = table.entries[0];
            let payload = &body[..entry.len];
            let (table, table_bytes) = embedded_table(&header, &entry, payload).unwrap().expect("an embedded table");
            let n = table.n_symbols();
            assert!(n > 1 && table_bytes > n, "{n} symbols in {table_bytes} B");
            assert_eq!(expected(&rebuild_huffman_streams(&blob, |_| {})), expected(&blob), "{}", what("untouched"));
            let varint = |v: u64| {
                let mut out = Vec::new();
                crate::encode::huffman::write_varint(&mut out, v);
                out
            };

            // The symbol count: none, one short, one over, more than the
            // stream has bytes.
            for count in [0, n as u64 - 1, n as u64 + 1, 1 << 40] {
                let edited = rebuild_huffman_streams(&blob, |s| {
                    drop(s.splice(..varint(n as u64).len(), varint(count)));
                });
                survives(&edited, &what(&format!("count {count}")));
            }
            // A table whose first skip is a varint no writer produces:
            // padded, longer than ten bytes, naming a symbol past u32::MAX.
            let varints: [&[u8]; 3] = [&[0xf9, 0xff, 0x81, 0x00], &[0xff; 11], &[0xf9, 0xff, 0xff, 0xff, 0x0f]];
            for skip in varints {
                let edited = rebuild_huffman_streams(&blob, |s| {
                    drop(s.splice(..table_bytes, [&[0x01, 0xe0], skip].concat()));
                });
                assert!(!survives(&edited, &what(&format!("skip varint {skip:02x?}"))));
            }
            // Length bits of one entry, then of every entry: still a table,
            // no longer this stream's.
            let pairs: Vec<(u32, u8)> = table.lengths().collect();
            for stride in [n, 1] {
                let relengthed = pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(sym, len))| (sym, if i % stride == stride / 2 { ((len - 1) ^ 0x0b) + 1 } else { len }));
                let mut packed = Vec::new();
                HuffmanTable::from_lengths(relengthed.collect()).unwrap().write_packed(&mut packed);
                assert_eq!(packed.len(), table_bytes);
                let edited = rebuild_huffman_streams(&blob, |s| drop(s.splice(..table_bytes, packed.iter().copied())));
                assert_ne!(edited, blob, "{}", what("length bits"));
                survives(&edited, &what(&format!("length bits, stride {stride}")));
            }
            // Cut in the middle of the table, and just short of its end.
            for cut in [table_bytes / 2, table_bytes - 1] {
                let edited = rebuild_huffman_streams(&blob, |s| s.truncate(cut));
                assert!(!survives(&edited, &what(&format!("cut at {cut}"))));
            }
        }
    }

    #[test]
    fn chunks_under_a_foreign_table_mode_are_corrupt_streams_on_every_path() {
        // Every chunk carries its family's tag: 2 on a prediction chunk, 0 on
        // a transform chunk. Any other tag, with both checksums re-sealed,
        // gets as far as the chunk decoder, which refuses it — staged at 1
        // and 3 threads and streamed alike.
        let data = wavy(vec![40, 12]);
        let retag = |blob: &CompressedBlob, chunk: usize, tag: u8| {
            rebuild(blob, |_, table, _| table.entries[chunk].table_mode = tag)
        };
        let decode_one = |header: &BlobHeader, dims: &[usize], entry: &ChunkEntry, payload: &[u8]| {
            let mut slab = vec![0f32; entry.points as usize];
            decode_chunk_into(header, dims, 0, entry, payload, &mut slab)
        };
        for backend in [LosslessBackend::Huffman, LosslessBackend::HuffmanLz, LosslessBackend::RleHuffman] {
            let cfg = LossyConfig::sz3_abs(1e-3).with_backend(backend).with_chunk_points(Some(120)).with_threads(3);
            // Outcomes are checked once the stream is done: a panicking sink
            // would leave the pool's workers waiting on the window.
            let mut streamed = Vec::new();
            let out = compress_streamed(&data, &cfg, 2, |chunk| {
                for table_mode in [2, 0, 1, 3, 255] {
                    let entry = ChunkEntry { table_mode, ..chunk.entry };
                    streamed.push((table_mode, decode_one(chunk.header, chunk.dims, &entry, chunk.payload)));
                }
                Ok(())
            })
            .unwrap();
            assert!(out.chunks > 1 && streamed.len() == 5 * out.chunks);
            for (tag, r) in streamed {
                let refused = matches!(r, Err(SzError::CorruptStream(_)));
                assert!(refused != (tag == 2), "{backend:?} streamed tag {tag}: {r:?}");
            }
            for tag in [0, 1, 3, 255] {
                for chunk in [0, out.chunks - 1] {
                    assert_corrupt(&retag(&out.blob, chunk, tag), &format!("{backend:?}: tag {tag} on chunk {chunk}"));
                }
            }
        }
        let out = zfp::compress_impl(&data, 1e-3, 3, Some(120)).unwrap();
        assert!(out.chunks > 1);
        let (header, table, body) = out.blob.open_chunks().unwrap();
        let dims = [10, 12];
        let entry = table.entries[0];
        assert!(decode_one(&header, &dims, &entry, &body[..entry.len]).is_ok());
        for tag in [1, 2, 3, 255] {
            let r = decode_one(&header, &dims, &ChunkEntry { table_mode: tag, ..entry }, &body[..entry.len]);
            assert!(matches!(r, Err(SzError::CorruptStream(_))), "zfp tag {tag}: {r:?}");
            for chunk in [0, out.chunks - 1] {
                assert_corrupt(&retag(&out.blob, chunk, tag), &format!("zfp: tag {tag} on chunk {chunk}"));
            }
        }
    }

    #[test]
    fn the_writer_embeds_only_packed_tables() {
        // A smooth first half and a loud second half, so no chunk's table
        // fits another's. Every chunk embeds its own packed table and the
        // section after the chunk table is written empty — on every backend,
        // at any thread count, staged or streamed at any window.
        let data = Dataset::from_fn(vec![40, 12], |i| {
            let x = (i[0] * 12 + i[1]) as f32;
            (x * 0.11).sin() + if i[0] >= 20 { ((x * 7.3).sin() * 1e4).fract() * 50.0 } else { 0.0 }
        });
        for backend in [LosslessBackend::Huffman, LosslessBackend::HuffmanLz, LosslessBackend::RleHuffman] {
            for threads in [1, 3] {
                let cfg =
                    LossyConfig::sz3_abs(1e-3).with_backend(backend).with_chunk_points(Some(60)).with_threads(threads);
                let staged = compress(&data, &cfg).unwrap();
                let streamed = [0, 2].map(|window| compress_streamed(&data, &cfg, window, |_| Ok(())).unwrap());
                for (out, how) in [(&staged, "staged"), (&streamed[0], "window 0"), (&streamed[1], "window 2")] {
                    let what = format!("{backend:?} threads={threads} {how}");
                    let (header, table, body) = out.blob.open_chunks().unwrap();
                    let modes: Vec<u8> = table.entries.iter().map(|e| e.table_mode).collect();
                    let packed = crate::format::TABLE_MODE_PACKED;
                    assert!(modes.len() > 1 && modes.iter().all(|&m| m == packed), "{what}: {modes:?}");
                    // `sections.tables` is the sum of what the chunks embed.
                    let embedded: usize = table
                        .offsets()
                        .iter()
                        .zip(&table.entries)
                        .filter_map(|(&at, e)| embedded_table(&header, e, &body[at..at + e.len]).unwrap())
                        .map(|(_, bytes)| bytes)
                        .sum();
                    assert_eq!(out.sections.tables, embedded, "{what}");
                    assert!(embedded > 0 && out.sections.tables < out.sections.codes, "{what}");
                    assert_eq!(out.sections.total(), out.blob.len(), "{what}: tables is a part of codes");
                }
                let restored = decompress_with_threads::<f32>(&staged.blob, 3).unwrap();
                assert!(metrics::compare(&data, &restored).unwrap().within_bound(1e-3), "{backend:?}");
            }
        }
    }

    #[test]
    fn decode_chunk_into_rejects_a_slab_of_the_wrong_length() {
        let data = wavy(vec![12, 10]);
        let mut seen = 0;
        compress_streamed(&data, &LossyConfig::sz3_abs(1e-3), 0, |chunk| {
            for len in [0usize, 119, 121] {
                let mut slab = vec![0f32; len];
                let r = decode_chunk_into(chunk.header, chunk.dims, 0, &chunk.entry, chunk.payload, &mut slab);
                assert!(matches!(r, Err(SzError::CorruptStream(_))), "slab of {len}: {r:?}");
            }
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 1);
    }

    fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn lorenzo_blob_and_restored_values_are_pinned() {
        // Recorded from the one-row-at-a-time Lorenzo kernels, the heap-built
        // Huffman lengths and the copy-in decoder this path replaced. Every
        // value is one exact-operand f32 sum, so the fields are the same on
        // any platform. The 2-D field is a single chunk at the default
        // radius; the 3-D one is cut into 4-plane chunks with a 2-plane tail
        // at radius 8, so escapes land in every chunk. The 2-D blob hash was
        // taken again when its one embedded table went from five bytes a
        // symbol to packed; the 3-D one when its chunks stopped using a
        // shared table and each embedded its own, packed. The restored values
        // and escape counts of both stand as first recorded. The 112×225
        // field was recorded from the four-lane scalar Lorenzo walk, the
        // one-probe Huffman decoder and the slicing-by-8 CRC that the packed
        // lane steps, the four-symbol refill loop and slicing-by-16 replaced.
        let field = |dims: Vec<usize>| {
            let mut state = 0x0123_4567_89ab_cdefu64;
            Dataset::from_fn(dims, move |i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = (state >> 40) as f32 / (1u64 << 24) as f32;
                let ramp = i.iter().enumerate().map(|(d, &c)| c * (7 - 2 * d)).sum::<usize>() as f32 * 0.125;
                let bump = ((i[0] * i[1] + i[i.len() - 1] * 3) % 17) as f32 * 0.5;
                ramp + bump + noise * 0.25
            })
        };
        let cases = [
            (vec![61, 45], LossyConfig::lorenzo(1e-4), 0x2e7e_fd46_2f7d_dd2au64, 0x2913_a6ae_e0d8_bfa8u64, 0u64),
            (
                vec![14, 11, 19],
                LossyConfig::lorenzo(1e-3).with_quant_radius(8).with_chunk_points(Some(4 * 11 * 19)),
                0xece9_799d_ead4_91b5,
                0x7fae_ba97_7150_9981,
                1249,
            ),
            // The shape and bound of the benchmark's small files: one chunk
            // whose table holds codes longer than the decoder's 12-bit LUT.
            (vec![112, 225], LossyConfig::lorenzo(1e-5), 0x9b88_da55_e2a5_a321, 0xa5e5_d19d_3f6f_f572, 0),
        ];
        for (dims, cfg, blob_hash, restored_hash, escapes) in cases {
            let data = field(dims.clone());
            let out = compress(&data, &cfg).unwrap();
            let (header, table, body) = out.blob.open_chunks().unwrap();
            if dims == [112, 225] {
                let longest = table
                    .offsets()
                    .iter()
                    .zip(&table.entries)
                    .filter_map(|(&at, e)| embedded_table(&header, e, &body[at..at + e.len]).unwrap())
                    .flat_map(|(t, _)| t.lengths().map(|(_, len)| len).collect::<Vec<_>>())
                    .max();
                assert_eq!(longest, Some(15), "{dims:?}: codes past the 12-bit LUT");
            }
            assert_eq!(table.entries.iter().map(|e| e.unpredictable).sum::<u64>(), escapes, "{dims:?}");
            assert_eq!(fnv64(out.blob.as_bytes().iter().copied()), blob_hash, "{dims:?}");
            for threads in [1, 3] {
                let restored = decompress_with_threads::<f32>(&out.blob, threads).unwrap();
                assert_eq!(
                    fnv64(restored.values().iter().flat_map(|v| v.to_le_bytes())),
                    restored_hash,
                    "{dims:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn ratio_accounts_for_header_overhead() {
        let data = wavy(vec![32]);
        let out = compress(&data, &LossyConfig::sz3(1e-3)).unwrap();
        assert_eq!(out.original_bytes, 32 * 4);
        assert!((out.ratio - out.original_bytes as f64 / out.blob.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn section_sizes_account_for_every_byte() {
        let data = wavy(vec![40, 40]);
        let out = compress(&data, &LossyConfig::sz3(1e-3)).unwrap();
        assert_eq!(out.sections.total(), out.blob.len());
        assert!(out.sections.codes > 0, "codes section carries the payload");
        assert!(out.sections.framing > 0, "headers and checksum exist");
        // Smooth data has no unpredictable values.
        assert_eq!(out.sections.unpredictable, 0);
        // Regression pipelines carry side data; interpolation does not.
        let reg = compress(&data, &LossyConfig::sz2(1e-3)).unwrap();
        assert!(reg.sections.side_data > 0);
        let interp = compress(&data, &LossyConfig::sz3(1e-3)).unwrap();
        assert_eq!(interp.sections.side_data, 0);
    }

    #[test]
    fn serial_chunked_framing_overhead_is_within_one_percent_of_v1() {
        // The monolithic v2 layout spent: header + 3 × 8-byte section
        // prefixes + 4-byte trailer. Reconstruct that size analytically and
        // compare with what the single-chunk container actually produced.
        let data = wavy(vec![48, 48, 24]);
        let out = compress(&data, &LossyConfig::sz3_abs(1e-4)).unwrap();
        assert_eq!(out.chunks, 1, "threads=1 is the serial fallback");
        let header_len = 6 + 3 + 8 * 3 + 8 + 2 + 4;
        let v2_len =
            header_len + (8 + out.sections.side_data) + (8 + out.sections.unpredictable) + (8 + out.sections.codes) + 4;
        let v2_ratio = out.original_bytes as f64 / v2_len as f64;
        let drift = (out.ratio - v2_ratio).abs() / v2_ratio;
        assert!(drift < 0.01, "serial container drifts {:.3}% from v2 ratio", drift * 100.0);
    }

    #[test]
    fn abs_bound_constructor_round_trips() {
        let cfg = LossyConfig::sz3_abs(0.5);
        let ErrorBound::Abs(v) = cfg.error_bound else { panic!("expected Abs, got {:?}", cfg.error_bound) };
        assert_eq!(v, 0.5);
    }

    #[test]
    fn streamed_compression_is_byte_identical_and_in_order() {
        let data = wavy(vec![40, 12]);
        let cfg = LossyConfig::sz3_abs(1e-3).with_chunk_points(Some(60));
        let staged = compress(&data, &cfg.with_threads(1)).unwrap();
        assert!(staged.chunks > 1);
        for threads in [1usize, 2, 4] {
            for window in [0usize, 1, 2, 16] {
                let mut indices = Vec::new();
                let mut payload_cat = Vec::new();
                let streamed = compress_streamed(&data, &cfg.with_threads(threads), window, |chunk| {
                    assert_eq!(chunk.entry.len, chunk.payload.len());
                    assert_eq!(chunk.entry.crc, crate::checksum::crc32(chunk.payload));
                    indices.push(chunk.index);
                    payload_cat.extend_from_slice(chunk.payload);
                    Ok(())
                })
                .unwrap();
                assert_eq!(streamed.blob, staged.blob, "threads={threads} window={window} changed bytes");
                assert_eq!(indices, (0..staged.chunks).collect::<Vec<_>>(), "chunks arrive in index order");
                // The streamed payloads are exactly the container's chunk
                // region: the blob ends with them plus the 4-byte CRC.
                let bytes = staged.blob.as_bytes();
                let region = &bytes[bytes.len() - 4 - payload_cat.len()..bytes.len() - 4];
                assert_eq!(region, &payload_cat[..]);
            }
        }
    }

    #[test]
    fn streamed_chunks_decode_on_arrival() {
        let data = wavy(vec![48, 10]);
        let cfg = LossyConfig::sz3_abs(1e-3).with_threads(4).with_chunk_points(Some(64));
        let mut restored = vec![0f32; data.len()];
        let mut filled = 0usize;
        let outcome = compress_streamed(&data, &cfg, 2, |chunk| {
            let slab = &mut restored[filled..filled + chunk.entry.points as usize];
            filled += slab.len();
            decode_chunk_into::<f32>(chunk.header, chunk.dims, chunk.index, &chunk.entry, chunk.payload, slab)
        })
        .unwrap();
        assert_eq!(filled, data.len());
        let staged = decompress::<f32>(&outcome.blob).unwrap();
        assert_eq!(restored, staged.values(), "per-chunk decode equals whole-blob decode");
    }

    #[test]
    fn the_trailer_folded_from_chunk_crcs_equals_one_pass_over_the_blob() {
        let data = wavy(vec![40, 12]);
        for (chunk_points, predictor) in [(None, PredictorKind::Lorenzo), (Some(60), PredictorKind::InterpCubic)] {
            let cfg = LossyConfig::sz3_abs(1e-3).with_predictor(predictor).with_chunk_points(chunk_points);
            let bytes = compress(&data, &cfg).unwrap().blob.into_bytes();
            let (body, trailer) = bytes.split_at(bytes.len() - 4);
            assert_eq!(trailer, crate::checksum::crc32(body).to_le_bytes(), "{chunk_points:?}");
        }
        let bytes = crate::zfp::compress_impl(&data, 1e-3, 3, None).unwrap().blob.into_bytes();
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(trailer, crate::checksum::crc32(body).to_le_bytes(), "zfp");
    }

    #[test]
    fn a_panicking_sink_panics_the_stream_instead_of_hanging_it() {
        // Workers parked on the window gate must see the consumer go: the
        // panic surfaces from the call, which returns within the deadline.
        let data = Arc::new(wavy(vec![48, 12]));
        for threads in [2, 3, 4] {
            for window in [1, 2, 4] {
                let (tx, rx) = std::sync::mpsc::channel();
                let data = Arc::clone(&data);
                let helper = std::thread::spawn(move || {
                    let cfg = LossyConfig::sz3_abs(1e-3).with_threads(threads).with_chunk_points(Some(24));
                    let run = std::panic::catch_unwind(|| {
                        compress_streamed(&data, &cfg, window, |chunk| {
                            assert!(chunk.index != 1, "sink fails on chunk 1");
                            Ok(())
                        })
                    });
                    let _ = tx.send(run.is_err());
                });
                let panicked = rx.recv_timeout(std::time::Duration::from_secs(10));
                assert_eq!(panicked, Ok(true), "threads={threads} window={window}");
                helper.join().expect("the helper caught the panic");
            }
        }
    }

    #[test]
    fn streamed_sink_error_aborts_compression() {
        let data = wavy(vec![40, 12]);
        let cfg = LossyConfig::sz3_abs(1e-3).with_threads(2).with_chunk_points(Some(60));
        let err = compress_streamed(&data, &cfg, 1, |chunk| {
            if chunk.index == 1 {
                Err(SzError::CorruptStream("sink rejected".into()))
            } else {
                Ok(())
            }
        });
        match err {
            Err(SzError::CorruptStream(msg)) => assert!(msg.contains("sink rejected")),
            other => panic!("expected the sink error to surface, got {other:?}"),
        }
    }
}
