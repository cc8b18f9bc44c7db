//! Blob-level property tests for the chunked container path: multi-chunk
//! blobs must compress to the same bytes at any thread count and decode to
//! identical bits at 1/2/4/8 threads.

use ocelot_sz::{compress, decompress_with_threads, Dataset, LossyConfig};
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
}
