//! The container's one layout, pinned, and the layouts it replaced refused.
//!
//! One multi-chunk blob per lossless backend, and one from the transform
//! codec, is pinned by an FNV hash of its bytes — so the writer is pinned, not
//! only the reader — and by the hash of what it restores at 1 and 3 threads.
//! If a pinned blob hash moves, the container bytes changed. Version-2 blobs
//! (byte dumps of the monolithic writer) and a fresh blob re-framed as
//! version 3 are rejected with a typed error.

use ocelot_sz::checksum::crc32;
use ocelot_sz::codec::{Codec, CodecConfig, ZfpCodec, ZfpConfig};
use ocelot_sz::format::{CodecFamily, TABLE_MODE_NONE, TABLE_MODE_PACKED};
use ocelot_sz::{
    compress, decompress_with_threads, metrics, CompressedBlob, Dataset, LosslessBackend, LossyConfig, SzError,
};

/// v2 blob: the prediction pipeline (`LossyConfig::sz3_abs(1e-3)`) over the
/// 6×7 field `sin(0.7·i) + 0.25·j`.
const GOLDEN_V2_PREDICTION: &str = "4f43535a020000000206000000000000000700000000000000fca9f1d24d62503f03010080000000000000000000000000000000000000500000000000000049000000000000000f040800000000800000014c800000036605000b04aa7e0000049981000004f405000604a780000005fa050001042a2c0004070000000d08000d007bbb75f7df924b6dcccc000000ab04d772";

/// v2 blob: the transform codec at 1e-3 over the same field.
const GOLDEN_V2_TRANSFORM: &str = "4f43535a020001000206000000000000000700000000000000fca9f1d24d62503f0000000000004e000000000000005a00000000000000230f0001001dfc0fff030000d3040000008803000000290000000002001cfc1edf0280013f1900100701001f647f00006e000000570000002b1400050cc40457200f150000001b68cfbc";

/// An exact-operand `f32` ramp plus noise that is 1280 times louder from
/// row `rough_from` on, so the chunks' code alphabets differ.
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

/// `blob` framed again from its parts under `version`, with the chunk
/// table's tag column or without it (as version 3 had none), and the trailer
/// re-sealed. The chunk payloads, and so their CRCs, are unchanged.
fn reframe(blob: &CompressedBlob, version: u16, tags: bool) -> Vec<u8> {
    let (header, table, body) = blob.open_chunks().unwrap();
    let fixed = 6 + 3 + 8 * header.dims.len() + 8 + 2 + 4;
    let mut bytes = blob.as_bytes()[..fixed].to_vec();
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    let mut rows = table.encode();
    if !tags {
        let width = rows[12..].len() / table.entries.len();
        rows = [&rows[..12], &rows[12..].chunks(width).flat_map(|row| &row[..width - 1]).copied().collect::<Vec<_>>()]
            .concat();
    }
    bytes.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&rows);
    if tags {
        bytes.extend_from_slice(&0u64.to_le_bytes());
    }
    bytes.extend_from_slice(body);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn packed_blobs_are_pinned_per_backend() {
    let data = field(vec![12, 10], 6);
    let sz = |backend| LossyConfig::sz3_abs(1e-2).with_backend(backend).with_chunk_points(Some(40));
    let zfp = CodecConfig::Zfp(ZfpConfig { chunk_points: Some(40), ..ZfpConfig::abs(1e-2) });
    let cases = [
        ("huffman", compress(&data, &sz(LosslessBackend::Huffman)), 0x899a_7eb4_728b_0763u64, 0x55c3_cd10_e4b7_08b6u64),
        ("huffman+lz", compress(&data, &sz(LosslessBackend::HuffmanLz)), 0xb8d3_6135_029f_6784, 0x55c3_cd10_e4b7_08b6),
        (
            "rle+huffman",
            compress(&data, &sz(LosslessBackend::RleHuffman)),
            0xcc1f_d37d_343c_338a,
            0x55c3_cd10_e4b7_08b6,
        ),
        ("zfp", ZfpCodec.compress(&data, &zfp), 0x14cd_a8e9_d469_473c, 0x295b_c6df_600b_324f),
    ];
    for (what, out, blob_hash, restored_hash) in cases {
        let out = out.unwrap();
        let (header, table, _) = out.blob.open_chunks().unwrap();
        let tag = if header.family == CodecFamily::Prediction { TABLE_MODE_PACKED } else { TABLE_MODE_NONE };
        assert!(table.entries.len() == 3 && table.entries.iter().all(|e| e.table_mode == tag), "{what}");
        assert_eq!(fnv64(out.blob.as_bytes().iter().copied()), blob_hash, "{what}");
        for threads in [1, 3] {
            let restored = decompress_with_threads::<f32>(&out.blob, threads).unwrap();
            assert!(metrics::compare(&data, &restored).unwrap().within_bound(1e-2), "{what}");
            let hash = fnv64(restored.values().iter().flat_map(|v| v.to_le_bytes()));
            assert_eq!(hash, restored_hash, "{what} at {threads} thread(s)");
        }
    }
}

#[test]
fn retired_versions_are_rejected_with_a_typed_error() {
    let version_of = |bytes: Vec<u8>| match CompressedBlob::from_bytes(bytes) {
        Err(SzError::UnsupportedVersion(v)) => v,
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    };
    assert_eq!(version_of(unhex(GOLDEN_V2_PREDICTION)), 2);
    assert_eq!(version_of(unhex(GOLDEN_V2_TRANSFORM)), 2);
    let data = field(vec![12, 10], 6);
    let blob = compress(&data, &LossyConfig::sz3_abs(1e-2).with_chunk_points(Some(40))).unwrap().blob;
    // Framed again as written, the parts make the blob they came from.
    assert_eq!(reframe(&blob, 4, true), blob.as_bytes());
    assert_eq!(version_of(reframe(&blob, 3, false)), 3);
}

#[test]
fn unknown_versions_are_rejected_with_a_typed_error() {
    let mut bytes = unhex(GOLDEN_V2_PREDICTION);
    bytes[4] = 0x7f; // forge version 0x007f
    bytes[5] = 0x00;
    match CompressedBlob::from_bytes(bytes) {
        Err(SzError::UnsupportedVersion(v)) => assert_eq!(v, 0x7f),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}
