//! Property-based tests on the core invariants: error-bounded round trips
//! for every pipeline over arbitrary data and shapes, lossless coder round
//! trips over arbitrary byte/symbol streams, grouping reassembly, and
//! simulator sanity properties.

use ocelot::grouping::{group_blobs, plan_groups_by_count, ungroup_blobs};
use ocelot::ParallelExecutor;
use ocelot_netsim::{simulate_transfer, GridFtpConfig, LinkProfile};
use ocelot_sz::config::{LosslessBackend, PredictorKind};
use ocelot_sz::encode::{huffman_decode, huffman_encode, lz_compress, lz_decompress, rle_decode, rle_encode};
use ocelot_sz::{
    compress, decompress, decompress_with_threads, metrics, Codec, CodecConfig, Dataset, LossyConfig, ZfpConfig,
};
use proptest::prelude::*;

/// Arbitrary small-but-nontrivial shapes of rank 1–3.
fn shapes() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        (2usize..200).prop_map(|a| vec![a]),
        ((2usize..24), (2usize..24)).prop_map(|(a, b)| vec![a, b]),
        ((2usize..10), (2usize..10), (2usize..10)).prop_map(|(a, b, c)| vec![a, b, c]),
    ]
}

/// Data generators: smooth, rough, and adversarial values.
fn values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop_oneof![
        // Finite arbitrary floats in a wide range.
        prop::collection::vec(-1.0e6f32..1.0e6f32, n),
        // Smooth-ish: small increments around a walk.
        prop::collection::vec(-1.0f32..1.0f32, n).prop_map(|steps| {
            let mut acc = 0.0f32;
            steps
                .into_iter()
                .map(|s| {
                    acc += s * 0.1;
                    acc
                })
                .collect()
        }),
        // Mostly constant with spikes.
        prop::collection::vec(prop_oneof![9 => Just(1.0f32), 1 => -1.0e4f32..1.0e4f32], n),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_pipeline_round_trips_within_bound(
        dims in shapes(),
        predictor_idx in 0usize..4,
        backend_idx in 0usize..3,
        eb_exp in 1i32..6,
        seed in 0u64..1000,
    ) {
        let n: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let vals: Vec<f32> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 100.0
        }).collect();
        let data = Dataset::new(dims, vals).expect("valid shape");
        let backend = [LosslessBackend::Huffman, LosslessBackend::HuffmanLz, LosslessBackend::RleHuffman][backend_idx];
        let cfg = LossyConfig::sz3(10f64.powi(-eb_exp))
            .with_predictor(PredictorKind::ALL[predictor_idx])
            .with_backend(backend);
        let blob = compress(&data, &cfg).expect("compression succeeds").blob;
        let abs_eb = blob.header().expect("header parses").abs_eb;
        let out = decompress::<f32>(&blob).expect("decompression succeeds");
        let q = metrics::compare(&data, &out).expect("shapes match");
        prop_assert!(q.within_bound(abs_eb), "max err {} vs bound {}", q.max_abs_error, abs_eb);
    }

    #[test]
    fn chunked_container_round_trips_at_any_thread_count(
        dims in shapes(),
        threads_idx in 0usize..4,
        chunk_mode in 0usize..4,
        eb_exp in 1i32..5,
        seed in 0u64..200,
    ) {
        // Random dims × chunk sizes × thread counts, including chunks larger
        // than the dataset and 1-element edge chunks.
        let threads = [1usize, 2, 4, 8][threads_idx];
        let n: usize = dims.iter().product();
        let chunk_points = match chunk_mode {
            0 => Some(1),          // 1-point chunks (maximal chunk count)
            1 => Some(n / 3 + 1),  // a few chunks, ragged edge
            2 => Some(2 * n + 7),  // larger than the dataset → one chunk
            _ => None,             // derived from the thread count
        };
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let vals: Vec<f32> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 50.0
        }).collect();
        let data = Dataset::new(dims, vals).expect("valid shape");
        let cfg = LossyConfig::sz3(10f64.powi(-eb_exp))
            .with_threads(threads)
            .with_chunk_points(chunk_points);
        let outcome = compress(&data, &cfg).expect("chunked compression succeeds");
        let abs_eb = outcome.blob.header().expect("header parses").abs_eb;
        // Decode both serially and with a different worker count than the
        // encoder used: the container must not care.
        for decode_threads in [1usize, threads.max(2)] {
            let out = decompress_with_threads::<f32>(&outcome.blob, decode_threads)
                .expect("chunked decompression succeeds");
            let q = metrics::compare(&data, &out).expect("shapes match");
            prop_assert!(q.within_bound(abs_eb), "max err {} vs bound {}", q.max_abs_error, abs_eb);
        }
    }

    #[test]
    fn pinned_chunk_layout_is_deterministic_across_threads(
        dims in shapes(),
        eb_exp in 1i32..4,
        seed in 0u64..100,
    ) {
        let n: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let vals: Vec<f32> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 8.0
        }).collect();
        let data = Dataset::new(dims, vals).expect("valid shape");
        let base = LossyConfig::sz3(10f64.powi(-eb_exp)).with_chunk_points(Some(97));
        let serial = compress(&data, &base.with_threads(1)).expect("serial");
        for threads in [2usize, 4, 8] {
            let parallel = compress(&data, &base.with_threads(threads)).expect("parallel");
            prop_assert_eq!(
                serial.blob.as_bytes(), parallel.blob.as_bytes(),
                "bytes must not depend on the worker count ({} threads)", threads
            );
        }
    }

    #[test]
    fn streamed_pipeline_is_byte_identical_to_staged(
        dims in shapes(),
        threads_idx in 0usize..4,
        chunk_mode in 0usize..3,
        window in 1usize..9,
        eb_exp in 1i32..4,
        seed in 0u64..100,
    ) {
        // Random dims × chunk sizes × window sizes × thread counts: the
        // streamed pipeline (bounded in-flight chunks, decode on arrival)
        // must produce the same v3 container bytes and the same outcome
        // statistics as the staged compress-then-decompress path.
        let threads = [1usize, 2, 4, 8][threads_idx];
        let n: usize = dims.iter().product();
        let chunk_points = match chunk_mode {
            0 => Some(1),         // 1-point chunks (maximal chunk count)
            1 => Some(n / 3 + 1), // a few chunks, ragged edge
            _ => Some(2 * n + 7), // larger than the dataset → one chunk
        };
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let vals: Vec<f32> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 50.0
        }).collect();
        let data = Dataset::new(dims, vals).expect("valid shape");
        let cfg = LossyConfig::sz3(10f64.powi(-eb_exp)).with_chunk_points(chunk_points);
        let staged = compress(&data, &cfg.with_threads(threads)).expect("staged compression succeeds");
        let exec = ParallelExecutor::new(1).with_codec_threads(threads);
        let rt = exec.stream_round_trip(&data, &cfg, window).expect("streamed pipeline succeeds");
        prop_assert_eq!(
            staged.blob.as_bytes(), rt.outcome.blob.as_bytes(),
            "streamed bytes must match staged ({} threads, window {})", threads, window
        );
        prop_assert_eq!(staged.chunks, rt.outcome.chunks);
        prop_assert_eq!(staged.chunks, rt.chunks_shipped, "every chunk crosses the stream exactly once");
        prop_assert_eq!(staged.original_bytes, rt.outcome.original_bytes);
        prop_assert_eq!(staged.sections, rt.outcome.sections);
        prop_assert_eq!(&staged.bin_stats, &rt.outcome.bin_stats);
        prop_assert!((staged.ratio - rt.outcome.ratio).abs() < 1e-12);
        let staged_restored = decompress_with_threads::<f32>(&staged.blob, threads).expect("staged decode");
        prop_assert_eq!(staged_restored.values(), rt.restored.values());
    }

    #[test]
    fn structured_values_round_trip(dims in shapes(), eb_exp in 1i32..5) {
        // Deterministic structured data exercising the smooth path.
        let data = Dataset::from_fn(dims.clone(), |idx| {
            idx.iter().enumerate().map(|(d, &i)| ((i as f32) * 0.1 * (d + 1) as f32).sin()).sum::<f32>()
        });
        let cfg = LossyConfig::sz3(10f64.powi(-eb_exp));
        let blob = compress(&data, &cfg).expect("compression succeeds").blob;
        let abs_eb = blob.header().expect("header parses").abs_eb;
        let out = decompress::<f32>(&blob).expect("decompression succeeds");
        let q = metrics::compare(&data, &out).expect("shapes match");
        prop_assert!(q.within_bound(abs_eb));
    }

    #[test]
    fn adversarial_value_distributions_round_trip(vals in values(512), eb_exp in 1i32..5) {
        let data = Dataset::new(vec![512], vals).expect("valid shape");
        let cfg = LossyConfig::sz3(10f64.powi(-eb_exp));
        let blob = compress(&data, &cfg).expect("compression succeeds").blob;
        let abs_eb = blob.header().expect("header parses").abs_eb;
        let out = decompress::<f32>(&blob).expect("decompression succeeds");
        let q = metrics::compare(&data, &out).expect("shapes match");
        prop_assert!(q.within_bound(abs_eb), "max err {} vs bound {}", q.max_abs_error, abs_eb);
    }

    #[test]
    fn huffman_round_trips(symbols in prop::collection::vec(0u32..70000, 0..4000)) {
        let enc = huffman_encode(&symbols);
        prop_assert_eq!(huffman_decode(&enc).expect("valid stream"), symbols);
    }

    #[test]
    fn lz_round_trips(data in prop::collection::vec(any::<u8>(), 0..8000)) {
        let enc = lz_compress(&data);
        prop_assert_eq!(lz_decompress(&enc).expect("valid stream"), data);
    }

    #[test]
    fn lz_decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = lz_decompress(&data); // must return, never panic
    }

    #[test]
    fn huffman_decode_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = huffman_decode(&data);
    }

    #[test]
    fn rle_round_trips(symbols in prop::collection::vec(0u32..100, 0..4000), hot in 0u32..100) {
        let enc = rle_encode(&symbols, hot);
        prop_assert_eq!(rle_decode(&enc, hot, symbols.len()).expect("own encoding decodes"), symbols);
    }

    #[test]
    fn grouping_reassembles_any_partition(
        sizes in prop::collection::vec(0usize..300, 1..40),
        group_count in 1usize..8,
    ) {
        let blobs: Vec<(String, Vec<u8>)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (format!("f{i}"), (0..s).map(|k| (k * 31 + i) as u8).collect()))
            .collect();
        let plan = plan_groups_by_count(blobs.len(), group_count);
        let (groups, manifest) = group_blobs(&blobs, &plan);
        prop_assert_eq!(manifest.file_count(), blobs.len());
        let mut reassembled = Vec::new();
        for g in &groups {
            reassembled.extend(ungroup_blobs(g).expect("group parses"));
        }
        let original: Vec<Vec<u8>> = plan.iter().flatten().map(|&i| blobs[i].1.clone()).collect();
        prop_assert_eq!(reassembled, original);
    }

    #[test]
    fn group_plans_partition_the_input(
        sizes in prop::collection::vec(0u64..500_000, 0..80),
        group_count in 1usize..20,
    ) {
        // The planner must produce an exact partition of 0..n: every file
        // index in exactly one group, no invented indices, no empty groups.
        let plan = plan_groups_by_count(sizes.len(), group_count);
        let mut seen = vec![0usize; sizes.len()];
        for group in &plan {
            prop_assert!(!group.is_empty(), "planner emitted an empty group");
            for &i in group {
                prop_assert!(i < sizes.len(), "index {} out of range {}", i, sizes.len());
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "not a partition: {:?}", seen);
        // ... so grouped bytes conserve the input bytes exactly.
        let grouped: u64 = plan.iter().flatten().map(|&i| sizes[i]).sum();
        prop_assert_eq!(grouped, sizes.iter().sum::<u64>());
        prop_assert!(plan.len() <= group_count);
    }

    #[test]
    fn transfer_simulation_is_sane(
        sizes in prop::collection::vec(1u64..200_000_000, 1..60),
        concurrency in 1usize..40,
        seed in 0u64..50,
    ) {
        let link = LinkProfile::new(1.0e9, 0.05, 0.1, 0.03);
        let cfg = GridFtpConfig { concurrency, ..GridFtpConfig::default() };
        let report = simulate_transfer(&sizes, &link, &cfg, seed);
        let total: u64 = sizes.iter().sum();
        prop_assert_eq!(report.bytes_total, total);
        prop_assert!(report.duration_s > 0.0);
        // Cannot beat the raw bandwidth by more than the jitter margin.
        prop_assert!(report.effective_speed_bps <= 1.0e9 * 1.05, "speed {}", report.effective_speed_bps);
        // Cannot finish faster than the per-file cap permits for the biggest file.
        let biggest = *sizes.iter().max().expect("nonempty") as f64;
        prop_assert!(report.duration_s * cfg.per_file_cap_bps() * 1.05 >= biggest);
    }

    #[test]
    fn zfp_round_trips_within_bound(
        dims in shapes(),
        eb_exp in 1i32..5,
        seed in 0u64..100,
        threads_idx in 0usize..3,
    ) {
        let n: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let vals: Vec<f32> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 10.0
        }).collect();
        let data = Dataset::new(dims, vals).expect("valid shape");
        let abs_eb = 10f64.powi(-eb_exp) * data.value_range().max(1e-6);
        let config = CodecConfig::Zfp(ZfpConfig::abs(abs_eb).with_threads([1usize, 2, 4][threads_idx]));
        let codec = config.codec();
        let blob = codec.compress(&data, &config).expect("zfp compression succeeds").blob;
        let out = codec.decompress::<f32>(&blob).expect("zfp decompression succeeds");
        let q = metrics::compare(&data, &out).expect("shapes match");
        prop_assert!(q.within_bound(abs_eb), "max err {} vs bound {abs_eb}", q.max_abs_error);
    }

    #[test]
    fn f64_pipelines_round_trip(len in 8usize..400, eb_exp in 1i32..6, seed in 0u64..100) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let vals: Vec<f64> = (0..len).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e4
        }).collect();
        let data = Dataset::new(vec![len], vals).expect("valid shape");
        let cfg = LossyConfig::sz3(10f64.powi(-eb_exp));
        let blob = compress(&data, &cfg).expect("compression succeeds").blob;
        let abs_eb = blob.header().expect("header parses").abs_eb;
        let out = decompress::<f64>(&blob).expect("decompression succeeds");
        let q = metrics::compare(&data, &out).expect("shapes match");
        prop_assert!(q.within_bound(abs_eb));
    }

    #[test]
    fn blob_corruption_never_decompresses_silently(
        byte_idx_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // Any single-bit flip anywhere in a blob must be rejected (checksum)
        // or produce an error — never a silently wrong dataset.
        let data = Dataset::from_fn(vec![32, 32], |i| (i[0] * 32 + i[1]) as f32 * 0.01);
        let blob = compress(&data, &LossyConfig::sz3(1e-3)).expect("compression succeeds").blob;
        let mut bytes = blob.into_bytes();
        let idx = ((bytes.len() - 1) as f64 * byte_idx_frac) as usize;
        bytes[idx] ^= 1 << bit;
        let outcome = ocelot_sz::CompressedBlob::from_bytes(bytes);
        prop_assert!(outcome.is_err(), "checksum must catch a flip at byte {idx} bit {bit}");
    }

    #[test]
    fn more_bandwidth_never_slows_a_transfer(
        sizes in prop::collection::vec(1_000_000u64..100_000_000, 1..30),
        seed in 0u64..20,
    ) {
        let cfg = GridFtpConfig::default();
        let slow = simulate_transfer(&sizes, &LinkProfile::new(0.5e9, 0.05, 0.1, 0.0), &cfg, seed);
        let fast = simulate_transfer(&sizes, &LinkProfile::new(2.0e9, 0.05, 0.1, 0.0), &cfg, seed);
        prop_assert!(fast.duration_s <= slow.duration_s * 1.0001);
    }
}
