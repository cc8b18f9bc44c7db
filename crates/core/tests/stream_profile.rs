//! Where a profiled streamed round trip books its kernels. The streamed
//! decode runs on the calling thread, inside the compress scope that thread
//! holds for the in-order consumer; each chunk's decode opens its own
//! decompress scope, so Huffman decode must land there and the encode
//! kernels under compress. A test binary of its own: the profiler is
//! process-wide, and no other test may probe into it meanwhile.

use ocelot::ParallelExecutor;
use ocelot_obs::prof::{self, Kernel, Profiler, ScopeId};
use ocelot_sz::{Dataset, LossyConfig};

#[test]
fn a_profiled_streamed_round_trip_books_decode_under_decompress_and_encode_under_compress() {
    let data = Dataset::from_fn(vec![48, 48], |i| (i[0] as f32 * 0.1).sin() * (i[1] as f32 * 0.07).cos());
    let cfg = LossyConfig::sz3_abs(1e-3).with_chunk_points(Some(256));
    for threads in [1usize, 2] {
        let profiler = Profiler::detached();
        prof::install_global(&profiler);
        let rt = ParallelExecutor::new(1).with_codec_threads(threads).stream_round_trip(&data, &cfg, 2);
        prof::uninstall_global();
        let chunks = rt.expect("the round trip succeeds").chunks_shipped as u64;
        assert!(chunks > 1, "a multi-chunk layout");
        let stats = profiler.snapshot().stats;
        let calls = |scope: ScopeId, kernel: Kernel| {
            stats.iter().filter(|s| s.scope == scope.name() && s.kernel == kernel).map(|s| s.calls).sum::<u64>()
        };
        assert_eq!(calls(ScopeId::DECOMPRESS, Kernel::HuffmanDecode), chunks, "threads={threads}: {stats:?}");
        assert_eq!(calls(ScopeId::COMPRESS, Kernel::HuffmanDecode), 0, "threads={threads}: {stats:?}");
        assert!(calls(ScopeId::COMPRESS, Kernel::HuffmanEncode) >= chunks, "threads={threads}: {stats:?}");
        assert_eq!(calls(ScopeId::DECOMPRESS, Kernel::HuffmanEncode), 0, "threads={threads}: {stats:?}");
        assert!(calls(ScopeId::COMPRESS, Kernel::Predict) >= chunks, "threads={threads}: {stats:?}");
        assert!(calls(ScopeId::DECOMPRESS, Kernel::Predict) >= chunks, "threads={threads}: {stats:?}");
    }
}
