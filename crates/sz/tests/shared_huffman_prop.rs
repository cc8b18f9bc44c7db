//! Blob-level property tests for the shared-Huffman container path:
//! multi-chunk blobs (shared table engaged, with or without local-table
//! escapes in later chunks) must compress to the same bytes at any thread
//! count and decode to identical bits at 1/2/4/8 threads. A chunk that
//! escapes embeds its table packed; the same blob with those tables written
//! five bytes a symbol — as stored blobs have them — must decode to the same
//! bits and be longer by exactly the difference of the tables.

use ocelot_sz::checksum::crc32;
use ocelot_sz::format::{BlobWriter, ChunkTable, SectionReader, TABLE_MODE_LOCAL, TABLE_MODE_PACKED};
use ocelot_sz::{
    compress, decompress_with_threads, embedded_table, CompressedBlob, Dataset, LosslessBackend, LossyConfig,
};
use proptest::prelude::*;

/// Smooth head, optionally rough tail: when `rough_tail` is set, the later
/// chunks see wide-band noise whose quantization codes escape the shared
/// table built from the smooth first chunk, exercising the per-chunk
/// local-table fallback inside a shared-table blob.
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

/// `blob` (backends without an LZ pass) with every packed table rewritten in
/// the wide layout under [`TABLE_MODE_LOCAL`] — `HuffmanTable::serialize` is
/// the five-byte writer — and both checksums re-sealed; also how many chunks
/// that touched and by how much the wide tables outweigh the packed ones.
fn widen(blob: &CompressedBlob) -> (CompressedBlob, usize, usize) {
    let (header, mut sections) = blob.open().unwrap();
    let mut table = ChunkTable::decode(sections.next_section().unwrap()).unwrap();
    let shared = sections.next_section().unwrap();
    let body = sections.rest();
    let (mut widened, mut packed_chunks, mut table_growth) = (Vec::new(), 0, 0);
    for (at, entry) in table.offsets().into_iter().zip(&mut table.entries) {
        let payload = &body[at..at + entry.len];
        if entry.table_mode != TABLE_MODE_PACKED {
            widened.extend_from_slice(payload);
            continue;
        }
        let (huffman, table_bytes) = embedded_table(&header, entry, payload).unwrap().expect("packed chunks embed one");
        let wide = huffman.serialize();
        packed_chunks += 1;
        table_growth += wide.len() - table_bytes;
        let mut parts = SectionReader::over(payload);
        let (side, pool, codes) =
            (parts.next_section().unwrap(), parts.next_section().unwrap(), parts.next_section().unwrap());
        let start = widened.len();
        for part in [side, pool, &[&wide, &codes[table_bytes..]].concat()] {
            widened.extend_from_slice(&(part.len() as u64).to_le_bytes());
            widened.extend_from_slice(part);
        }
        entry.len = widened.len() - start;
        entry.crc = crc32(&widened[start..]);
        entry.table_mode = TABLE_MODE_LOCAL;
    }
    let mut writer = BlobWriter::new(&header).unwrap();
    writer.section(&table.encode()).section(shared).raw(&widened);
    let wide = CompressedBlob::from_bytes(writer.finish().into_bytes()).expect("both checksums re-sealed");
    (wide, packed_chunks, table_growth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn shared_table_blobs_decode_identically_across_threads(
        n0 in 24usize..48,
        seed in any::<u64>(),
        rough_tail in any::<bool>(),
    ) {
        let dims = vec![n0, 12, 12];
        let data = mixed_field(&dims, seed, rough_tail);
        // Pinned chunk layout, > 1 chunk: the shared table engages, and the
        // blob must not depend on the compressing thread count.
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
        // A rough tail always escapes the table of the smooth first chunk.
        prop_assert!(packed_chunks > 0 || !rough_tail);
        prop_assert_eq!(wide.len() - packed.blob.len(), table_growth);
        let reference = decompress_with_threads::<f32>(&packed.blob, 1).unwrap();
        for threads in [1usize, 3] {
            let out = decompress_with_threads::<f32>(&wide, threads).unwrap();
            prop_assert_eq!(bits(out.values()), bits(reference.values()), "wide blob at {} threads", threads);
        }
    }
}
