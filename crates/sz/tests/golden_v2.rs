//! Backward compatibility with version-2 (pre-chunking, monolithic) blobs.
//!
//! The fixtures below are byte dumps of blobs produced by the released
//! monolithic writer, hard-coded so the legacy decode path is exercised
//! against real v2 bytes — not against whatever the current writer emits.
//! If these tests fail, released archives have become unreadable.

use ocelot_sz::codec::{Codec, SzCodec, ZfpCodec};
use ocelot_sz::{decompress, decompress_with_threads, CompressedBlob, Dataset, SzError};

/// v2 blob: the prediction pipeline (`LossyConfig::sz3_abs(1e-3)`) over the
/// reference 6×7 field.
const GOLDEN_V2_PREDICTION: &str = "4f43535a020000000206000000000000000700000000000000fca9f1d24d62503f03010080000000000000000000000000000000000000500000000000000049000000000000000f040800000000800000014c800000036605000b04aa7e0000049981000004f405000604a780000005fa050001042a2c0004070000000d08000d007bbb75f7df924b6dcccc000000ab04d772";

/// v2 blob: the transform codec (`zfp::compress(&data, 1e-3)`) over the same
/// field.
const GOLDEN_V2_TRANSFORM: &str = "4f43535a020001000206000000000000000700000000000000fca9f1d24d62503f0000000000004e000000000000005a00000000000000230f0001001dfc0fff030000d3040000008803000000290000000002001cfc1edf0280013f1900100701001f647f00006e000000570000002b1400050cc40457200f150000001b68cfbc";

/// The dataset both fixtures were generated from.
fn reference_field() -> Dataset<f32> {
    Dataset::from_fn(vec![6, 7], |i| ((i[0] as f32) * 0.7).sin() + (i[1] as f32) * 0.25)
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex")).collect()
}

#[test]
fn v2_prediction_blob_still_decodes() {
    let blob = CompressedBlob::from_bytes(unhex(GOLDEN_V2_PREDICTION)).expect("legacy framing accepted");
    let header = blob.header().expect("legacy header parses");
    assert_eq!(header.dims, vec![6, 7]);
    let data = reference_field();
    let restored = decompress::<f32>(&blob).expect("legacy prediction blob decodes");
    for (a, b) in data.values().iter().zip(restored.values()) {
        assert!((a - b).abs() as f64 <= header.abs_eb + 1e-9, "bound violated: {a} vs {b}");
    }
}

#[test]
fn v2_transform_blob_still_decodes() {
    let blob = CompressedBlob::from_bytes(unhex(GOLDEN_V2_TRANSFORM)).expect("legacy framing accepted");
    let data = reference_field();
    let restored = decompress::<f32>(&blob).expect("legacy transform blob decodes");
    for (a, b) in data.values().iter().zip(restored.values()) {
        assert!((a - b).abs() <= 1e-3 + 1e-9, "bound violated: {a} vs {b}");
    }
}

#[test]
fn v2_blobs_decode_through_the_codec_trait_too() {
    let pred = CompressedBlob::from_bytes(unhex(GOLDEN_V2_PREDICTION)).unwrap();
    let tran = CompressedBlob::from_bytes(unhex(GOLDEN_V2_TRANSFORM)).unwrap();
    assert!(SzCodec.decompress::<f32>(&pred).is_ok());
    assert!(ZfpCodec.decompress::<f32>(&tran).is_ok());
    // Legacy blobs hold a single stream; a multi-thread decode request must
    // still work (it simply has one chunk to decode).
    assert!(decompress_with_threads::<f32>(&pred, 4).is_ok());
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
