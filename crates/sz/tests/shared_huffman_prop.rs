//! Blob-level property tests for the chunked container path: multi-chunk
//! blobs must compress to the same bytes at any thread count and decode to
//! identical bits at 1/2/4/8 threads. Every chunk embeds its own table,
//! packed. The two layouts stored blobs have must decode to the same bits:
//! the same blob with those tables written five bytes a symbol — longer by
//! exactly the difference of the tables — and the same blob with every chunk
//! re-encoded against one shared table.

use ocelot_sz::checksum::crc32;
use ocelot_sz::format::{
    BlobHeader, BlobWriter, ChunkEntry, ChunkTable, SectionReader, TABLE_MODE_LOCAL, TABLE_MODE_PACKED,
    TABLE_MODE_SHARED,
};
use ocelot_sz::{
    compress, decompress_with_threads, embedded_table, CompressedBlob, Dataset, HuffmanTable, LosslessBackend,
    LossyConfig,
};
use proptest::prelude::*;

/// Smooth head, optionally rough tail: when `rough_tail` is set, the later
/// chunks see wide-band noise, so their code alphabets have little in common
/// with the first chunk's.
fn mixed_field(dims: &[usize], seed: u64, rough_tail: bool) -> Dataset<f32> {
    let n: usize = dims.iter().product();
    let mut state = seed | 1;
    let mut flat = 0usize;
    Dataset::from_fn(dims.to_vec(), move |idx| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let noise = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
        let smooth: f32 = idx.iter().map(|&c| c as f32 * 0.11).sum::<f32>().sin();
        let amp = if rough_tail && flat > n / 2 { 500.0 } else { 0.0 };
        flat += 1;
        smooth + noise * amp
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `blob` (backends without an LZ pass) with each chunk's code section and
/// tag replaced by what `recode(header, entry, payload, codes)` returns,
/// `shared` as the shared-table section (the blob's own when `None`), and
/// both checksums re-sealed.
fn recode_chunks(
    blob: &CompressedBlob,
    shared: Option<&[u8]>,
    mut recode: impl FnMut(&BlobHeader, &ChunkEntry, &[u8], &[u8]) -> (Vec<u8>, u8),
) -> CompressedBlob {
    let (header, mut sections) = blob.open().unwrap();
    let mut table = ChunkTable::decode(sections.next_section().unwrap()).unwrap();
    let stored = sections.next_section().unwrap();
    let body = sections.rest();
    let mut rebuilt = Vec::new();
    for (at, entry) in table.offsets().into_iter().zip(&mut table.entries) {
        let payload = &body[at..at + entry.len];
        let mut parts = SectionReader::over(payload);
        let (side, pool, codes) =
            (parts.next_section().unwrap(), parts.next_section().unwrap(), parts.next_section().unwrap());
        let (codes, tag) = recode(&header, entry, payload, codes);
        let start = rebuilt.len();
        for part in [side, pool, &codes] {
            rebuilt.extend_from_slice(&(part.len() as u64).to_le_bytes());
            rebuilt.extend_from_slice(part);
        }
        entry.len = rebuilt.len() - start;
        entry.crc = crc32(&rebuilt[start..]);
        entry.table_mode = tag;
    }
    let mut writer = BlobWriter::new(&header).unwrap();
    writer.section(&table.encode()).section(shared.unwrap_or(stored)).raw(&rebuilt);
    CompressedBlob::from_bytes(writer.finish().into_bytes()).expect("both checksums re-sealed")
}

/// `blob` (backends without an LZ pass) with every packed table rewritten in
/// the wide layout under [`TABLE_MODE_LOCAL`] — `HuffmanTable::serialize` is
/// the five-byte writer; also how many chunks that touched and by how much
/// the wide tables outweigh the packed ones.
fn widen(blob: &CompressedBlob) -> (CompressedBlob, usize, usize) {
    let (mut packed_chunks, mut table_growth) = (0, 0);
    let wide = recode_chunks(blob, None, |header, entry, payload, codes| {
        if entry.table_mode != TABLE_MODE_PACKED {
            return (codes.to_vec(), entry.table_mode);
        }
        let (huffman, table_bytes) = embedded_table(header, entry, payload).unwrap().expect("packed chunks embed one");
        let wide = huffman.serialize();
        packed_chunks += 1;
        table_growth += wide.len() - table_bytes;
        ([&wide, &codes[table_bytes..]].concat(), TABLE_MODE_LOCAL)
    });
    (wide, packed_chunks, table_growth)
}

/// `blob` (Huffman or RleHuffman, every chunk packed) framed the way the
/// shared-table writer of stored blobs framed it: each chunk's symbols,
/// decoded with the table it embeds, re-encoded against one table built over
/// every chunk's symbols and tagged [`TABLE_MODE_SHARED`], and that table in
/// the shared-table section.
fn share(blob: &CompressedBlob) -> CompressedBlob {
    // The first pass only reads each chunk's symbols; what it rebuilds is
    // `blob` unchanged.
    let mut symbols = Vec::new();
    recode_chunks(blob, None, |header, entry, payload, codes| {
        let (table, table_bytes) = embedded_table(header, entry, payload).unwrap().expect("packed chunks embed one");
        symbols.push(table.decode_stream(&codes[table_bytes..]).unwrap());
        (codes.to_vec(), entry.table_mode)
    });
    let union = HuffmanTable::from_symbols(&symbols.concat()).expect("chunks hold symbols");
    let mut chunks = symbols.iter();
    recode_chunks(blob, Some(&union.serialize()), |_, _, _, _| {
        let stream = union.encode_stream(chunks.next().unwrap()).expect("the union covers every chunk");
        (stream, TABLE_MODE_SHARED)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn chunked_blobs_decode_identically_across_threads(
        n0 in 24usize..48,
        seed in any::<u64>(),
        rough_tail in any::<bool>(),
    ) {
        let dims = vec![n0, 12, 12];
        let data = mixed_field(&dims, seed, rough_tail);
        // Pinned chunk layout, > 1 chunk: the blob must not depend on the
        // compressing thread count.
        let cfg = LossyConfig::sz3_abs(1e-3).with_chunk_points(Some(data.len() / 5 + 1));
        let one = compress(&data, &cfg.with_threads(1)).unwrap();
        let four = compress(&data, &cfg.with_threads(4)).unwrap();
        prop_assert_eq!(one.blob.as_bytes(), four.blob.as_bytes(), "blob bytes must not depend on thread count");

        let reference = decompress_with_threads::<f32>(&one.blob, 1).unwrap();
        for threads in [2usize, 4, 8] {
            let out = decompress_with_threads::<f32>(&one.blob, threads).unwrap();
            prop_assert_eq!(out.dims(), reference.dims());
            prop_assert_eq!(
                bits(out.values()),
                bits(reference.values()),
                "decode at {} threads differs from 1 thread",
                threads
            );
        }
    }

    #[test]
    fn packed_blobs_hold_what_five_byte_blobs_held(
        n0 in 24usize..48,
        seed in any::<u64>(),
        rough_tail in any::<bool>(),
        rle in any::<bool>(),
    ) {
        let data = mixed_field(&[n0, 12, 12], seed, rough_tail);
        let backend = if rle { LosslessBackend::RleHuffman } else { LosslessBackend::Huffman };
        let cfg = LossyConfig::sz3_abs(1e-3).with_backend(backend).with_chunk_points(Some(data.len() / 5 + 1));
        let packed = compress(&data, &cfg).unwrap();
        let (wide, packed_chunks, table_growth) = widen(&packed.blob);
        prop_assert_eq!(packed_chunks, packed.chunks, "every chunk is packed");
        prop_assert_eq!(wide.len() - packed.blob.len(), table_growth);
        let reference = decompress_with_threads::<f32>(&packed.blob, 1).unwrap();
        for threads in [1usize, 3] {
            let out = decompress_with_threads::<f32>(&wide, threads).unwrap();
            prop_assert_eq!(bits(out.values()), bits(reference.values()), "wide blob at {} threads", threads);
        }
    }

    #[test]
    fn shared_table_blobs_decode_to_the_packed_bits(
        n0 in 24usize..48,
        seed in any::<u64>(),
        rough_tail in any::<bool>(),
        rle in any::<bool>(),
    ) {
        let data = mixed_field(&[n0, 12, 12], seed, rough_tail);
        let backend = if rle { LosslessBackend::RleHuffman } else { LosslessBackend::Huffman };
        let cfg = LossyConfig::sz3_abs(1e-3).with_backend(backend).with_chunk_points(Some(data.len() / 5 + 1));
        let packed = compress(&data, &cfg).unwrap();
        let shared = share(&packed.blob);
        let (_, mut sections) = shared.open().unwrap();
        let table = ChunkTable::decode(sections.next_section().unwrap()).unwrap();
        prop_assert!(table.entries.len() > 1 && table.entries.iter().all(|e| e.table_mode == TABLE_MODE_SHARED));
        prop_assert!(!sections.next_section().unwrap().is_empty(), "the shared table is carried");
        let reference = decompress_with_threads::<f32>(&packed.blob, 1).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let out = decompress_with_threads::<f32>(&shared, threads).unwrap();
            prop_assert_eq!(bits(out.values()), bits(reference.values()), "shared blob at {} threads", threads);
        }
    }
}
