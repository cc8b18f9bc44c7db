//! Backward compatibility with version-4 blobs written before embedded
//! code-length tables were packed: every non-shared chunk of these carries
//! the five-byte-a-symbol table under [`TABLE_MODE_LOCAL`], which no writer
//! produces any more.
//!
//! The fixtures are byte dumps taken with the last build that wrote that
//! layout, hard-coded so the reader's five-byte branch is exercised against
//! real stored bytes. If these tests fail, stored archives have become
//! unreadable.

use ocelot_sz::format::{ChunkTable, TABLE_MODE_LOCAL, TABLE_MODE_SHARED, VERSION};
use ocelot_sz::{decompress_with_threads, embedded_table, metrics, CompressedBlob, Dataset, LosslessBackend};

/// `LossyConfig::lorenzo(1e-3)` over `field([9, 11], never rough)`: one chunk,
/// Huffman backend, its own five-byte table.
const GOLDEN_V4_LOCAL: &str = "4f43535a040000000209000000000000000b000000000000006f1283603a65713f0000008000003100000000000000090000000000000001000000ce00000000000000154e65be63000000000000001700000000000000000000000000000000000000000000000000000000000000000000000000000000b600000000000000170000000080000002ff7f0000030180000003fd7f000004fe7f00000402800000040380000005048000000506800000050f8000000511800000052b800000052c800000052e800000062f80000006fb7f000007fc7f0000070b800000070d800000070e8000000710800000072a800000072d8000000763000000000000002f000000000000005f739f79d7ad7cd7f960d5e6572a5843036c40c8c4f702b2154be05286c4ff50462408dd39a9af36175e1d9ccde180da82b35b";

/// `LossyConfig::sz3_abs(1e-2).with_chunk_points(Some(30))` over
/// `field([12, 10], rough from row 6)`: four chunks, Huffman + LZ; chunk 0
/// uses the shared table, the three after it escape to five-byte tables.
const GOLDEN_V4_MIXED: &str = "4f43535a04000000020c000000000000000a000000000000007b14ae47e17a843f030100800000a0000000000000000300000000000000040000003600000000000000f96f01181e000000000000000d000000000000000000000000000000016b0000000000000024d087281e000000000000001100000000000000000000000000000000dc000000000000003435f22e1e000000000000000000000000000000000000000000000000dc000000000000004d7b44341e0000000000000000000000000000000000000000000000002c000000000000000800000000800000010180000002ff7f00000406800000042680000004338000000507800000062580000006000000000000000000000000000000001e00000000000000190000000000000002061e00010001070908000900cf3bbfa2146686aaf80000000000000000000000000000000053000000000000004a000000000000001904090000000080000001ff7f00000326800000030780000004390500060401800000050605000104250500010431050001041e3100030500000039000c00000000dfbd6c43820ec1818000000000000000000000000000000000c400000000000000bd0000000000000019041e000000f1840000044d85000004a07b000005327c0000056205000604457d0000054c0500010460050006040f7e0000051b050001044c050001047805000104d205000104e305000b04107f0000059880000005cc050006040181000005b005000104f405000604038200000544050001045b050001049305000104d005000104e9050006048483000005fc050006046b840000058d050000049a0000040100010713080013004ee80b8d4f8f22125718dfeac39b91cfeccc5000000000000000000000000000000000c400000000000000bd000000000000001e041e00000043840000044785000004db7a000005cb7b0000054c7c0000058e05000b04fe7d000005b67e000005c605000104d705000104f805000b04b27f0000053c80000005770500010485050001049d0500060413810000052d050001044f050001047c050001048105000104be050006040f8200000541050001047605000104fb050006040d8300000531050001045b0500050416840000059a0000040100010713080013005a6cee487cc57750386675de0c44368f896ff057e69099";

/// `LossyConfig::sz3_abs(1e-2).with_backend(RleHuffman).with_chunk_points(Some(40))`
/// over `field([8, 10], rough from row 4)`: the shared table over run symbols,
/// then a chunk with a five-byte table of its own.
const GOLDEN_V4_RLE: &str = "4f43535a040000000208000000000000000a000000000000007b14ae47e17a843f03020080000056000000000000000400000000000000020000003800000000000000d39061ee28000000000000000f000000000000000000000000000000010a01000000000000a01a93062800000000000000000000000000000000000000000000000045000000000000000d0000000180000002028000000200800000031480000003078000000427800000043480000005000000000601000000060500000006088000000615800000062680000006000000000000000000000000000000002000000000000000270000000000000010000000000000009c377f50407eb6d42675e7782bec818000000000000000000000000000000000f200000000000000270000004682000004c67f000005da7f00000508800000052a8000000565800000057b8000000526810000054f810000055681000005708100000577810000057981000005ce81000005e481000005f58100000504820000059482000005d1820000051c83000005d1830000058e840000054d850000058e7a000006a17b000006eb7b000006467d000006a37d0000061c7e0000064d7e0000064f7e000006797e0000067e7e0000069a7e000006d37e000006d57e0000061e7f000006407f000006957f00000628000000000000001b0000000000000067cecb4fcfe4332ea80a08834d70e7ddd6d7aba36dc5a71bc831eca013e8c3";

/// The field the fixtures were compressed from: an exact-operand `f32` ramp
/// plus noise that is 1280 times louder from row `rough_from` on, so later
/// chunks escape a table built from the first.
fn field(dims: Vec<usize>, rough_from: usize) -> Dataset<f32> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    Dataset::from_fn(dims, move |i| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let noise = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        let ramp = (i[0] * 3 + i[1]) as f32 * 0.125;
        ramp + noise * if i[0] >= rough_from { 40.0 } else { 0.03125 }
    })
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex")).collect()
}

fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn golden_v4_blobs_with_five_byte_tables_still_decode() {
    let (shared, local) = (TABLE_MODE_SHARED, TABLE_MODE_LOCAL);
    let cases = [
        (
            GOLDEN_V4_LOCAL,
            field(vec![9, 11], usize::MAX),
            LosslessBackend::Huffman,
            vec![local],
            0xde69_2444_4a12_e529u64,
        ),
        (
            GOLDEN_V4_MIXED,
            field(vec![12, 10], 6),
            LosslessBackend::HuffmanLz,
            vec![shared, local, local, local],
            0xdf22_36a9_f1d1_1d4c,
        ),
        (GOLDEN_V4_RLE, field(vec![8, 10], 4), LosslessBackend::RleHuffman, vec![shared, local], 0x73aa_31ad_516a_c1cc),
    ];
    for (hex, data, backend, modes, restored_hash) in cases {
        let blob = CompressedBlob::from_bytes(unhex(hex)).expect("stored framing accepted");
        let (header, mut sections) = blob.open().expect("stored header parses");
        assert_eq!((header.version, header.backend), (VERSION, backend));
        assert_eq!(header.dims, data.dims());
        let table = ChunkTable::decode(sections.next_section().unwrap()).expect("stored chunk table parses");
        assert_eq!(table.entries.iter().map(|e| e.table_mode).collect::<Vec<_>>(), modes, "{backend:?}");
        // What `ocelot inspect` reports of them: five bytes a symbol.
        let _shared_table = sections.next_section().expect("stored shared-table section");
        let body = sections.rest();
        for (at, entry) in table.offsets().into_iter().zip(&table.entries) {
            let embedded = embedded_table(&header, entry, &body[at..at + entry.len]).expect("stored table parses");
            assert_eq!(embedded.is_some(), entry.table_mode == TABLE_MODE_LOCAL, "{backend:?}");
            if let Some((huffman, table_bytes)) = embedded {
                assert_eq!(table_bytes, 4 + 5 * huffman.n_symbols(), "{backend:?}");
            }
        }
        for threads in [1, 3] {
            let restored = decompress_with_threads::<f32>(&blob, threads).expect("stored blob decodes");
            assert!(metrics::compare(&data, &restored).unwrap().within_bound(header.abs_eb), "{backend:?}");
            assert_eq!(
                fnv64(restored.values().iter().flat_map(|v| v.to_le_bytes())),
                restored_hash,
                "{backend:?} at {threads} thread(s)"
            );
        }
    }
}
