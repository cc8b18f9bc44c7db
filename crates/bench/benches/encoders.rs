//! Lossless-stage kernel benchmarks (the Huffman/LZ/RLE coders that
//! dominate compression time at tight bounds — the mechanism behind Fig 4
//! and Fig 14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ocelot_sz::encode::{huffman_decode, huffman_encode, lz_compress, lz_decompress, rle_decode, rle_encode};

/// Synthetic quantization-bin stream with the given zero-bin probability.
fn bin_stream(n: usize, p0_percent: u32) -> Vec<u32> {
    let zero = 1u32 << 15;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32;
            if r % 100 < p0_percent {
                zero
            } else {
                zero + (r % 17) - 8
            }
        })
        .collect()
}

fn bench_huffman(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_huffman");
    g.sample_size(10);
    for p0 in [50u32, 90, 99] {
        let stream = bin_stream(1 << 20, p0);
        g.throughput(Throughput::Elements(stream.len() as u64));
        g.bench_with_input(BenchmarkId::new("encode", format!("p0_{p0}")), &stream, |b, s| {
            b.iter(|| huffman_encode(s))
        });
        let enc = huffman_encode(&stream);
        g.bench_with_input(BenchmarkId::new("decode", format!("p0_{p0}")), &enc, |b, e| {
            b.iter(|| huffman_decode(e).expect("valid stream"))
        });
    }
    g.finish();
}

fn bench_lz(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_lz");
    g.sample_size(10);
    let stream = bin_stream(1 << 19, 95);
    let bytes = huffman_encode(&stream);
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("compress", |b| b.iter(|| lz_compress(&bytes)));
    let lz = lz_compress(&bytes);
    g.bench_function("decompress", |b| b.iter(|| lz_decompress(&lz).expect("valid stream")));
    g.finish();
}

fn bench_rle(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_rle");
    g.sample_size(10);
    let zero = 1u32 << 15;
    let stream = bin_stream(1 << 20, 98);
    g.throughput(Throughput::Elements(stream.len() as u64));
    g.bench_function("encode", |b| b.iter(|| rle_encode(&stream, zero)));
    let enc = rle_encode(&stream, zero);
    g.bench_function("decode", |b| b.iter(|| rle_decode(&enc, zero, stream.len()).expect("valid stream")));
    g.finish();
}

criterion_group!(benches, bench_huffman, bench_lz, bench_rle);
criterion_main!(benches);
