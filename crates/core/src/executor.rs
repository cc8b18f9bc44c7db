//! Parallel (de)compression executor — the worker the paper runs as an MPI
//! program on compute nodes. Here it is the codec's one worker pool
//! ([`ocelot_sz::engine::parallel_map`]) over files: each worker repeatedly
//! claims the next file and compresses or decompresses it with the real
//! codec.
//!
//! [`ParallelExecutor::stream_round_trip`], the real-thread compress → ship
//! → decompress overlap, runs on the same pool: its in-order consumer, on
//! the calling thread, decodes each chunk the workers encode.

use ocelot_sz::engine::parallel_map;
use ocelot_sz::{
    compress, compress_streamed, decode_chunk_into, decompress_with_threads, CompressedBlob, CompressionOutcome,
    Dataset, LossyConfig, StreamedChunk, SzError,
};

/// Result of a streamed compress → ship → decode round trip for one file.
#[derive(Debug, Clone)]
pub struct StreamedRoundTrip {
    /// The compression outcome — blob and stats are byte-identical to the
    /// staged path at any window or thread count.
    pub outcome: CompressionOutcome,
    /// The dataset reconstructed chunk-by-chunk as chunks arrived.
    pub restored: Dataset<f32>,
    /// Number of chunks that crossed the stream.
    pub chunks_shipped: usize,
}

/// A fixed-size pool of compression workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
    codec_threads: usize,
}

impl ParallelExecutor {
    /// Creates an executor with `threads` workers, each compressing one file
    /// at a time on a single codec thread.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread");
        ParallelExecutor { threads, codec_threads: 1 }
    }

    /// Sets how many chunk-parallel codec threads each file-level worker
    /// drives (total concurrency is `threads × codec_threads`). This is the
    /// knob the orchestrator's simulated `codec_threads` option mirrors, so
    /// simulated lane counts and real wall-clock compression threads agree.
    ///
    /// # Panics
    /// Panics if `codec_threads == 0`.
    pub fn with_codec_threads(mut self, codec_threads: usize) -> Self {
        assert!(codec_threads > 0, "at least one codec thread");
        self.codec_threads = codec_threads;
        self
    }

    /// Number of file-level worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunk-parallel codec threads per file.
    pub fn codec_threads(&self) -> usize {
        self.codec_threads
    }

    /// Compresses every dataset, preserving order. Each file is handled by
    /// exactly one worker (the paper's per-core file assignment).
    ///
    /// # Errors
    /// Returns the error of the first file, in input order, that fails to
    /// compress (files after it are abandoned).
    pub fn compress_all(&self, files: &[Dataset<f32>], config: &LossyConfig) -> Result<Vec<CompressedBlob>, SzError> {
        Ok(self.compress_each(files.len(), |i| &files[i], config)?.into_iter().map(|o| o.blob).collect())
    }

    /// Compresses `n` datasets the caller holds some other way than in a
    /// slice, returning full outcomes in input order: `file(i)` borrows the
    /// `i`-th.
    ///
    /// # Errors
    /// As [`ParallelExecutor::compress_all`].
    pub(crate) fn compress_each<'a>(
        &self,
        n: usize,
        file: impl Fn(usize) -> &'a Dataset<f32> + Sync,
        config: &LossyConfig,
    ) -> Result<Vec<CompressionOutcome>, SzError> {
        let config = config.with_threads(self.codec_threads);
        parallel_map(n, self.threads, |i| compress(file(i), &config))
    }

    /// Decompresses every blob, preserving order. Each blob's chunks are
    /// decoded on the executor's codec threads.
    ///
    /// # Errors
    /// Returns the error of the first blob, in input order, that fails to
    /// decompress.
    pub fn decompress_all(&self, blobs: &[CompressedBlob]) -> Result<Vec<Dataset<f32>>, SzError> {
        parallel_map(blobs.len(), self.threads, |i| decompress_with_threads::<f32>(&blobs[i], self.codec_threads))
    }

    /// Streamed compress → ship → decode round trip for one dataset: the
    /// codec pool encodes chunks, and its in-order consumer on the calling
    /// thread decodes each into its slab of one output buffer the moment it
    /// and every earlier chunk are encoded. At most `window` chunks are ever
    /// encoded but not yet decoded; workers that run further ahead wait.
    ///
    /// `window == 0` is the staged degenerate case: full compress, then full
    /// decompress on the pool, no overlap. Either way the blob and outcome
    /// are byte-identical to [`compress`] and the restored dataset matches
    /// [`decompress_with_threads`].
    ///
    /// # Errors
    /// Returns the first codec error, encode or decode, in chunk order; it
    /// stops the workers.
    pub fn stream_round_trip(
        &self,
        data: &Dataset<f32>,
        config: &LossyConfig,
        window: usize,
    ) -> Result<StreamedRoundTrip, SzError> {
        self.stream_round_trip_with(data, config, window, |chunk, slab| {
            decode_chunk_into::<f32>(chunk.header, chunk.dims, chunk.index, &chunk.entry, chunk.payload, slab)
        })
    }

    /// [`ParallelExecutor::stream_round_trip`] with the per-chunk decode
    /// handed in, so a test can make one chunk fail.
    fn stream_round_trip_with(
        &self,
        data: &Dataset<f32>,
        config: &LossyConfig,
        window: usize,
        decode: impl Fn(&StreamedChunk<'_>, &mut [f32]) -> Result<(), SzError>,
    ) -> Result<StreamedRoundTrip, SzError> {
        let config = config.with_threads(self.codec_threads);
        if window == 0 {
            let outcome = compress(data, &config)?;
            let restored = decompress_with_threads::<f32>(&outcome.blob, self.codec_threads)?;
            let chunks_shipped = outcome.chunks;
            return Ok(StreamedRoundTrip { outcome, restored, chunks_shipped });
        }
        // Allocated on the calling thread, which also fills it and returns
        // it as the restored dataset: one malloc arena, every round trip.
        let total = data.len();
        let mut values = vec![0f32; total];
        let mut filled = 0usize;
        // Chunks arrive in index order, so consecutive slabs reassemble the
        // dataset.
        let outcome = compress_streamed(data, &config, window, |chunk| {
            // Decode-on-arrival kernels drain into this scope, not into the
            // compress scope the consumer runs in.
            let _pscope = ocelot_obs::prof::scope(ocelot_obs::prof::ScopeId::DECOMPRESS);
            let points = usize::try_from(chunk.entry.points).unwrap_or(usize::MAX);
            let slab = values[filled..]
                .get_mut(..points)
                .ok_or_else(|| SzError::CorruptStream(format!("chunk {} overruns the dataset", chunk.index)))?;
            decode(&chunk, slab)?;
            filled += points;
            Ok(())
        })?;
        if filled != total {
            return Err(SzError::CorruptStream(format!("stream delivered {filled} of {total} points")));
        }
        let restored = Dataset::new(data.dims().to_vec(), values)?;
        let chunks_shipped = outcome.chunks;
        Ok(StreamedRoundTrip { outcome, restored, chunks_shipped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_sz::metrics;

    fn files(n: usize) -> Vec<Dataset<f32>> {
        (0..n)
            .map(|k| Dataset::from_fn(vec![24, 24], move |i| ((i[0] + k) as f32 * 0.2).sin() + i[1] as f32 * 0.01))
            .collect()
    }

    #[test]
    fn parallel_round_trip_preserves_order_and_bounds() {
        let data = files(17);
        let ex = ParallelExecutor::new(4);
        let cfg = LossyConfig::sz3_abs(1e-3);
        let blobs = ex.compress_all(&data, &cfg).unwrap();
        assert_eq!(blobs.len(), 17);
        let back = ex.decompress_all(&blobs).unwrap();
        for (orig, rec) in data.iter().zip(&back) {
            let q = metrics::compare(orig, rec).unwrap();
            assert!(q.within_bound(1e-3), "max={}", q.max_abs_error);
        }
    }

    #[test]
    fn results_match_serial_execution() {
        let data = files(9);
        let cfg = LossyConfig::sz3(1e-3);
        let parallel = ParallelExecutor::new(3).compress_all(&data, &cfg).unwrap();
        let serial = ParallelExecutor::new(1).compress_all(&data, &cfg).unwrap();
        assert_eq!(parallel, serial, "compression must be deterministic regardless of thread count");
    }

    #[test]
    fn codec_threads_round_trip_and_stay_deterministic() {
        let data = files(6);
        // Pinning chunk_points keeps the chunk layout — and therefore the
        // blobs — identical whatever the codec thread count.
        let cfg = LossyConfig::sz3_abs(1e-3).with_chunk_points(Some(128));
        let serial = ParallelExecutor::new(2).compress_all(&data, &cfg).unwrap();
        let chunked = ParallelExecutor::new(2).with_codec_threads(4).compress_all(&data, &cfg).unwrap();
        assert_eq!(serial, chunked, "pinned chunk layout makes blobs thread-count independent");
        let ex = ParallelExecutor::new(2).with_codec_threads(4);
        assert_eq!(ex.codec_threads(), 4);
        let back = ex.decompress_all(&chunked).unwrap();
        for (orig, rec) in data.iter().zip(&back) {
            assert!(metrics::compare(orig, rec).unwrap().within_bound(1e-3));
        }
    }

    #[test]
    fn errors_propagate() {
        let data = files(4);
        let bad = LossyConfig::sz3_abs(0.0); // invalid bound
        assert!(ParallelExecutor::new(2).compress_all(&data, &bad).is_err());
    }

    #[test]
    fn empty_input_is_fine() {
        let ex = ParallelExecutor::new(8);
        assert!(ex.compress_all(&[], &LossyConfig::sz3(1e-3)).unwrap().is_empty());
        assert!(ex.decompress_all(&[]).unwrap().is_empty());
    }

    #[test]
    fn more_threads_than_files() {
        let data = files(2);
        let blobs = ParallelExecutor::new(16).compress_all(&data, &LossyConfig::sz3(1e-2)).unwrap();
        assert_eq!(blobs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        ParallelExecutor::new(0);
    }

    #[test]
    fn streamed_round_trip_matches_staged_at_every_window() {
        let data = Dataset::from_fn(vec![48, 48], |i| (i[0] as f32 * 0.1).sin() * (i[1] as f32 * 0.07).cos());
        let cfg = LossyConfig::sz3_abs(1e-3).with_chunk_points(Some(256));
        let staged = ParallelExecutor::new(1).stream_round_trip(&data, &cfg, 0).unwrap();
        assert!(staged.chunks_shipped > 1, "test needs a multi-chunk layout");
        for threads in [1usize, 4] {
            for window in [1usize, 2, 8] {
                let ex = ParallelExecutor::new(1).with_codec_threads(threads);
                let streamed = ex.stream_round_trip(&data, &cfg, window).unwrap();
                assert_eq!(
                    streamed.outcome.blob, staged.outcome.blob,
                    "streamed blob must be byte-identical (threads={threads}, window={window})"
                );
                assert_eq!(streamed.outcome.bin_stats, staged.outcome.bin_stats);
                assert_eq!(streamed.chunks_shipped, staged.chunks_shipped);
                assert_eq!(streamed.restored.values(), staged.restored.values());
            }
        }
        let q = metrics::compare(&data, &staged.restored).unwrap();
        assert!(q.within_bound(1e-3));
    }

    fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn blob_and_restored_values_are_pinned_across_thread_counts_and_windows() {
        // 37 rows in slabs of 5: seven full chunks and a 2-row tail, each
        // decoded straight into its slab of the output. The hashes were
        // recorded from the Vec-per-chunk decoder this path replaced (every
        // value below is an exact f32 sum, so the field is the same on any
        // platform); a slab offset, a tail-chunk length or a kernel bit off
        // by one changes them. The blob hash was taken again when the chunks
        // that escaped the shared table began to pack their own, and again
        // when every chunk embedded its own packed table; the restored values
        // stand as first recorded.
        const BLOB: u64 = 0x48c3_3044_cce0_4925;
        const RESTORED: u64 = 0x8569_5e9f_516d_ea74;
        let mut state = 0x0123_4567_89ab_cdefu64;
        let data = Dataset::from_fn(vec![37, 24, 20], move |i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 40) as f32 / (1u64 << 24) as f32;
            let ramp = (i[0] * 7 + i[1] * 3 + i[2]) as f32 * 0.125;
            let bump = ((i[0] * i[1] + i[2] * i[2]) % 17) as f32 * 0.5;
            ramp + bump + noise * 0.25
        });
        let cfg = LossyConfig::sz3(1e-3).with_chunk_points(Some(5 * 24 * 20));
        let hash_values = |d: &Dataset<f32>| fnv64(d.values().iter().flat_map(|v| v.to_le_bytes()));

        let staged = compress(&data, &cfg).unwrap();
        assert_eq!(staged.chunks, 8);
        assert_eq!(fnv64(staged.blob.as_bytes().iter().copied()), BLOB);
        for threads in [1usize, 2, 4, 8] {
            let restored = decompress_with_threads::<f32>(&staged.blob, threads).unwrap();
            assert_eq!(hash_values(&restored), RESTORED, "threads={threads}");
        }
        for (threads, window) in [(1usize, 1usize), (2, 4), (4, 2), (8, 16)] {
            let rt =
                ParallelExecutor::new(1).with_codec_threads(threads).stream_round_trip(&data, &cfg, window).unwrap();
            assert_eq!(rt.outcome.blob, staged.blob, "threads={threads} window={window}");
            assert_eq!(rt.chunks_shipped, 8);
            assert_eq!(hash_values(&rt.restored), RESTORED, "threads={threads} window={window}");
        }
    }

    #[test]
    fn a_failing_decode_is_the_streamed_round_trips_result_at_every_thread_count_and_window() {
        // Chunk 2 arrives with a flipped byte and fails its CRC check. The
        // error must come back from the call, within the deadline, while the
        // workers are parked on the gate or still encoding. Window 0 never
        // decodes in the stream: it is the staged compress-then-decompress.
        let data = std::sync::Arc::new(Dataset::from_fn(vec![48, 48], |i| {
            (i[0] as f32 * 0.1).sin() * (i[1] as f32 * 0.07).cos()
        }));
        for threads in [1usize, 2, 3, 8] {
            for window in [1usize, 2, 4] {
                let (tx, rx) = std::sync::mpsc::channel();
                let data = std::sync::Arc::clone(&data);
                let helper = std::thread::spawn(move || {
                    let cfg = LossyConfig::sz3_abs(1e-3).with_chunk_points(Some(256));
                    let ex = ParallelExecutor::new(1).with_codec_threads(threads);
                    let out = ex.stream_round_trip_with(&data, &cfg, window, |chunk, slab| {
                        let mut payload = chunk.payload.to_vec();
                        if chunk.index == 2 {
                            payload[0] ^= 1;
                        }
                        decode_chunk_into::<f32>(chunk.header, chunk.dims, chunk.index, &chunk.entry, &payload, slab)
                    });
                    let _ = tx.send(out.map(|rt| rt.chunks_shipped));
                });
                match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                    Ok(Err(SzError::CorruptStream(msg))) => {
                        assert!(msg.contains("chunk 2 failed its CRC-32 check"), "{msg}")
                    }
                    other => {
                        panic!("threads={threads} window={window}: expected chunk 2's decode error, got {other:?}")
                    }
                }
                helper.join().expect("the helper returned");
            }
        }
    }

    #[test]
    fn streamed_round_trip_propagates_codec_errors() {
        let data = files(1).pop().unwrap();
        let bad = LossyConfig::sz3_abs(0.0);
        assert!(ParallelExecutor::new(1).stream_round_trip(&data, &bad, 2).is_err());
    }
}
