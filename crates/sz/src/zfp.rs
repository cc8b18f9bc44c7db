//! Simplified transform-based error-bounded codec in the spirit of ZFP
//! [Lindstrom 2014].
//!
//! Data are tiled into 4^d blocks; each block is converted to block-floating
//! point, decorrelated with ZFP's integer lifting transform along every
//! dimension, and its coefficients are uniformly deadzone-quantized with a
//! per-block shift chosen *adaptively* so the reconstructed block provably
//! meets the absolute error bound (the encoder verifies reconstruction and
//! falls back to storing the block verbatim if fixed-point precision cannot
//! meet the bound). Coefficients travel as zig-zag varints followed by the
//! shared LZ dictionary stage.
//!
//! Differences from real ZFP are documented in DESIGN.md: we replace
//! negabinary embedded bit-plane coding with shift quantization + varints,
//! trading some ratio for simplicity while preserving the codec family's
//! behaviour (block transforms, block-floating-point, smoothness-driven
//! ratios).

use crate::config::{LosslessBackend, PredictorKind};
use crate::encode::{lz_compress, lz_decompress};
use crate::error::SzError;
use crate::format::{BlobHeader, CodecFamily};
use crate::ndarray::{checked_points, Dataset, DatasetView};
use crate::pipeline::{compress_chunked, CompressionOutcome, EncodedChunk};
use crate::value::ScalarValue;

const BLOCK_EDGE: usize = 4;
/// Fixed-point fraction bits for block-floating-point conversion.
const FRAC_BITS: i32 = 40;

const FLAG_TRANSFORMED: u8 = 0;
const FLAG_RAW: u8 = 1;

/// Full transform-codec compression entry: chunked container assembly shared
/// with the prediction pipeline. Called by `ZfpCodec`.
pub(crate) fn compress_impl<T: ScalarValue>(
    data: &Dataset<T>,
    abs_eb: f64,
    threads: usize,
    chunk_points: Option<usize>,
) -> Result<CompressionOutcome, SzError> {
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(SzError::InvalidConfig(format!("error bound must be positive, got {abs_eb}")));
    }
    if threads == 0 {
        return Err(SzError::InvalidConfig("thread count must be at least 1".into()));
    }
    if data.ndim() > 3 {
        return Err(SzError::InvalidShape(format!("zfp codec supports 1-3 dims, got {}", data.ndim())));
    }
    let header = BlobHeader {
        family: CodecFamily::Transform,
        dtype: T::TYPE_NAME,
        dims: data.dims().to_vec(),
        abs_eb,
        predictor: PredictorKind::Lorenzo, // unused by this codec
        backend: LosslessBackend::Huffman, // unused by this codec
        quant_radius: 0,
    };
    compress_chunked(data, header, threads, chunk_points, |chunk| {
        let payload = encode_chunk_payload(chunk, abs_eb);
        let code_bytes = payload.len();
        let crc = {
            let _p = ocelot_obs::prof::probe(ocelot_obs::prof::Kernel::FrameCrc, payload.len());
            crate::checksum::crc32(&payload)
        };
        Ok(EncodedChunk {
            payload,
            crc,
            hist: Vec::new(),
            unpredictable: 0,
            side_bytes: 0,
            unpred_bytes: 0,
            code_bytes,
            table_bytes: 0,
        })
    })
}

/// Encodes one chunk (or a whole dataset) as a transform-codec payload:
/// 4^d block stream followed by the shared LZ dictionary stage.
fn encode_chunk_payload<T: ScalarValue>(chunk: DatasetView<'_, T>, abs_eb: f64) -> Vec<u8> {
    let mut payload = Vec::new();
    {
        let _p = ocelot_obs::prof::probe(ocelot_obs::prof::Kernel::Transform, chunk.nbytes());
        for_each_block(chunk.dims(), |base| {
            let block = gather_block::<T>(chunk, &base);
            encode_block::<T>(&block, abs_eb, &mut payload);
        });
    }
    let _p = ocelot_obs::prof::probe(ocelot_obs::prof::Kernel::Lz, payload.len());
    lz_compress(&payload)
}

/// Estimates the transform codec's compression ratio by really encoding
/// every `block_stride`-th block (the transform-codec analogue of the
/// paper's 1 % sampling for prediction features — the paper leaves
/// transform-compressor quality prediction to future work; this provides
/// its cheapest building block).
///
/// # Errors
/// Returns [`SzError::InvalidConfig`] for a non-positive bound and
/// [`SzError::InvalidShape`] for ranks above 3.
///
/// # Panics
/// Panics if `block_stride == 0`.
pub fn estimate_ratio_sampled<T: ScalarValue>(
    data: &Dataset<T>,
    abs_eb: f64,
    block_stride: usize,
) -> Result<f64, SzError> {
    assert!(block_stride > 0, "block stride must be positive");
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(SzError::InvalidConfig(format!("error bound must be positive, got {abs_eb}")));
    }
    if data.ndim() > 3 {
        return Err(SzError::InvalidShape(format!("zfp codec supports 1-3 dims, got {}", data.ndim())));
    }
    let mut payload = Vec::new();
    let mut sampled_blocks = 0usize;
    let mut k = 0usize;
    for_each_block(data.dims(), |base| {
        if k.is_multiple_of(block_stride) {
            let block = gather_block::<T>(data.view(), &base);
            encode_block::<T>(&block, abs_eb, &mut payload);
            sampled_blocks += 1;
        }
        k += 1;
    });
    if sampled_blocks == 0 {
        return Ok(1.0);
    }
    let raw_bytes = sampled_blocks * block_len(data.ndim()) * T::BYTES;
    let compressed = lz_compress(&payload).len().max(1);
    Ok(raw_bytes as f64 / compressed as f64)
}

/// Decodes one transform-codec chunk payload into `out`, the caller's slab
/// for shape `dims`.
///
/// # Errors
/// Returns [`SzError::CorruptStream`] for malformed payloads and for a slab
/// that does not hold exactly the shape's points.
pub(crate) fn decode_chunk_payload_into<T: ScalarValue>(
    dims: &[usize],
    bytes: &[u8],
    out: &mut [T],
) -> Result<(), SzError> {
    let payload = {
        let _p = ocelot_obs::prof::probe(ocelot_obs::prof::Kernel::Lz, bytes.len());
        lz_decompress(bytes)?
    };
    if dims.len() > 3 {
        return Err(SzError::InvalidShape(format!("zfp codec supports 1-3 dims, got {}", dims.len())));
    }
    let n = checked_points(dims)?;
    if out.len() != n {
        return Err(SzError::CorruptStream(format!("zfp: slab of {} values for {n} points", out.len())));
    }
    let _p = ocelot_obs::prof::probe(ocelot_obs::prof::Kernel::Transform, n * T::BYTES);
    let mut pos = 0usize;
    let mut failure = None;
    for_each_block(dims, |base| {
        if failure.is_some() {
            return;
        }
        match decode_block::<T>(&payload, &mut pos, dims.len()) {
            Ok(block) => scatter_block(out, dims, &base, &block),
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    if pos != payload.len() {
        return Err(SzError::CorruptStream("zfp: trailing payload bytes".into()));
    }
    Ok(())
}

/// Number of values in a block for rank `d`.
fn block_len(ndim: usize) -> usize {
    BLOCK_EDGE.pow(ndim as u32)
}

/// Visits block origins in row-major order (3-D padded coordinates).
fn for_each_block(dims: &[usize], mut f: impl FnMut([usize; 3])) {
    let d3 = pad3(dims);
    let mut b0 = 0;
    while b0 < d3[0] {
        let mut b1 = 0;
        while b1 < d3[1] {
            let mut b2 = 0;
            while b2 < d3[2] {
                f([b0, b1, b2]);
                b2 += BLOCK_EDGE;
            }
            b1 += if dims.len() >= 2 { BLOCK_EDGE } else { d3[1] };
        }
        b0 += if dims.len() >= 3 { BLOCK_EDGE } else { d3[0] };
    }
}

fn pad3(dims: &[usize]) -> [usize; 3] {
    let mut out = [1usize; 3];
    let k = 3 - dims.len();
    for (i, &d) in dims.iter().enumerate() {
        out[k + i] = d;
    }
    out
}

/// Gathers one block, clamping out-of-range coordinates to the edge (ZFP's
/// pad-by-replication for partial blocks).
fn gather_block<T: ScalarValue>(data: DatasetView<'_, T>, base: &[usize; 3]) -> Vec<f64> {
    let ndim = data.ndim();
    let d3 = pad3(data.dims());
    let edge = |d: usize| if 3 - ndim <= d { BLOCK_EDGE } else { 1 };
    let mut out = Vec::with_capacity(block_len(ndim));
    for i in 0..edge(0) {
        for j in 0..edge(1) {
            for k in 0..edge(2) {
                let c = [(base[0] + i).min(d3[0] - 1), (base[1] + j).min(d3[1] - 1), (base[2] + k).min(d3[2] - 1)];
                let off = (c[0] * d3[1] + c[1]) * d3[2] + c[2];
                out.push(data.values()[off].to_f64());
            }
        }
    }
    out
}

/// Writes reconstructed block values back, skipping padded coordinates.
fn scatter_block<T: ScalarValue>(out: &mut [T], dims: &[usize], base: &[usize; 3], block: &[f64]) {
    let ndim = dims.len();
    let d3 = pad3(dims);
    let edge = |d: usize| if 3 - ndim <= d { BLOCK_EDGE } else { 1 };
    let mut idx = 0usize;
    for i in 0..edge(0) {
        for j in 0..edge(1) {
            for k in 0..edge(2) {
                let c = [base[0] + i, base[1] + j, base[2] + k];
                if c[0] < d3[0] && c[1] < d3[1] && c[2] < d3[2] {
                    let off = (c[0] * d3[1] + c[1]) * d3[2] + c[2];
                    out[off] = T::from_f64(block[idx]);
                }
                idx += 1;
            }
        }
    }
}

/// ZFP forward lifting transform on a 4-vector.
fn fwd_lift(v: &mut [i64], stride: usize) {
    let (mut x, mut y, mut z, mut w) = (v[0], v[stride], v[2 * stride], v[3 * stride]);
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    v[0] = x;
    v[stride] = y;
    v[2 * stride] = z;
    v[3 * stride] = w;
}

/// Inverse of [`fwd_lift`].
fn inv_lift(v: &mut [i64], stride: usize) {
    let (mut x, mut y, mut z, mut w) = (v[0], v[stride], v[2 * stride], v[3 * stride]);
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    v[0] = x;
    v[stride] = y;
    v[2 * stride] = z;
    v[3 * stride] = w;
}

/// Applies the lifting transform along every dimension of a block.
fn transform(coeffs: &mut [i64], ndim: usize, forward: bool) {
    // Strides within the block for each of the ndim dimensions.
    // Block layout is row-major with edge 4 in each active dimension.
    let strides: Vec<usize> = (0..ndim).map(|d| BLOCK_EDGE.pow((ndim - 1 - d) as u32)).collect();
    let n = coeffs.len();
    for (d, &stride) in strides.iter().enumerate() {
        let _ = d;
        // Enumerate all 4-element lines along this dimension.
        let mut visited = vec![false; n];
        for start in 0..n {
            if visited[start] {
                continue;
            }
            // A line starts where the coordinate along this dim is 0.
            let coord = (start / stride) % BLOCK_EDGE;
            if coord != 0 {
                continue;
            }
            for l in 0..BLOCK_EDGE {
                visited[start + l * stride] = true;
            }
            if forward {
                fwd_lift(&mut coeffs[start..], stride);
            } else {
                inv_lift(&mut coeffs[start..], stride);
            }
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, SzError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if *pos >= bytes.len() {
            return Err(SzError::CorruptStream("zfp: truncated varint".into()));
        }
        let b = bytes[*pos];
        *pos += 1;
        if shift >= 64 {
            return Err(SzError::CorruptStream("zfp: varint overflow".into()));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reconstructs block values from quantized coefficients (decoder parity
/// path, also used by the encoder's verification loop).
fn reconstruct(quantized: &[i64], shift: u32, exp: i32, ndim: usize) -> Vec<f64> {
    let mut coeffs: Vec<i64> = quantized.iter().map(|&c| c << shift).collect();
    transform(&mut coeffs, ndim, false);
    let scale = 2f64.powi(exp - FRAC_BITS);
    coeffs.iter().map(|&c| c as f64 * scale).collect()
}

fn encode_block<T: ScalarValue>(block: &[f64], abs_eb: f64, out: &mut Vec<u8>) {
    let ndim = match block.len() {
        4 => 1,
        16 => 2,
        _ => 3,
    };
    let finite = block.iter().all(|v| v.is_finite());
    if finite {
        let max_abs = block.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let exp = if max_abs > 0.0 { max_abs.log2().floor() as i32 + 1 } else { 0 };
        let scale = 2f64.powi(FRAC_BITS - exp);
        let mut coeffs: Vec<i64> = block.iter().map(|&v| (v * scale).round() as i64).collect();
        transform(&mut coeffs, ndim, true);

        // Find the largest shift whose reconstruction still meets the bound.
        let mut best: Option<(u32, Vec<i64>)> = None;
        let mut lo = 0u32;
        let mut hi = FRAC_BITS as u32 + 8;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let q: Vec<i64> = coeffs.iter().map(|&c| round_shift(c, mid)).collect();
            let recon = reconstruct(&q, mid, exp, ndim);
            let ok = block.iter().zip(&recon).all(|(&a, &b)| (T::from_f64(b).to_f64() - a).abs() <= abs_eb);
            if ok {
                best = Some((mid, q));
                lo = mid + 1;
            } else {
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
        }
        if let Some((shift, q)) = best {
            out.push(FLAG_TRANSFORMED);
            out.extend_from_slice(&(exp as i16).to_le_bytes());
            out.push(shift as u8);
            for &c in &q {
                write_varint(out, zigzag(c));
            }
            return;
        }
    }
    // Fallback: verbatim block (non-finite values or precision shortfall).
    out.push(FLAG_RAW);
    for &v in block {
        T::from_f64(v).write_le(out);
    }
}

/// Rounds `c / 2^shift` to nearest (keeps quantization error ≤ half step).
fn round_shift(c: i64, shift: u32) -> i64 {
    if shift == 0 {
        return c;
    }
    let half = 1i64 << (shift - 1);
    if c >= 0 {
        (c + half) >> shift
    } else {
        -((-c + half) >> shift)
    }
}

fn decode_block<T: ScalarValue>(payload: &[u8], pos: &mut usize, ndim: usize) -> Result<Vec<f64>, SzError> {
    if *pos >= payload.len() {
        return Err(SzError::CorruptStream("zfp: missing block flag".into()));
    }
    let flag = payload[*pos];
    *pos += 1;
    let n = block_len(ndim);
    match flag {
        FLAG_RAW => {
            let need = n * T::BYTES;
            if *pos + need > payload.len() {
                return Err(SzError::CorruptStream("zfp: truncated raw block".into()));
            }
            let vals: Vec<f64> =
                payload[*pos..*pos + need].chunks_exact(T::BYTES).map(|c| T::read_le(c).to_f64()).collect();
            *pos += need;
            Ok(vals)
        }
        FLAG_TRANSFORMED => {
            if *pos + 3 > payload.len() {
                return Err(SzError::CorruptStream("zfp: truncated block header".into()));
            }
            let exp = i16::from_le_bytes([payload[*pos], payload[*pos + 1]]) as i32;
            let shift = payload[*pos + 2] as u32;
            *pos += 3;
            if shift > FRAC_BITS as u32 + 16 {
                return Err(SzError::CorruptStream(format!("zfp: implausible shift {shift}")));
            }
            let mut q = Vec::with_capacity(n);
            for _ in 0..n {
                q.push(unzigzag(read_varint(payload, pos)?));
            }
            Ok(reconstruct(&q, shift, exp, ndim))
        }
        other => Err(SzError::CorruptStream(format!("zfp: unknown block flag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_round_trip_error_is_bounded() {
        // ZFP's lifting scheme drops low bits in its right shifts, so the
        // round trip is *near*-lossless: error bounded by a few integer ULPs
        // (the encoder's verification loop accounts for this).
        let mut v: Vec<i64> = vec![123_000, -456_000, 789_000, -1_000_000];
        let orig = v.clone();
        fwd_lift(&mut v, 1);
        inv_lift(&mut v, 1);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() <= 8, "{a} vs {b}");
        }
    }

    #[test]
    fn transform_round_trip_error_is_bounded_3d() {
        let mut v: Vec<i64> = (0..64).map(|i| ((i * i * 37 % 1000) as i64 - 500) * 1000).collect();
        let orig = v.clone();
        transform(&mut v, 3, true);
        assert_ne!(v, orig);
        transform(&mut v, 3, false);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a - b).abs() <= 64, "{a} vs {b}");
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [-5i64, -1, 0, 1, 7, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn round_shift_is_symmetric() {
        assert_eq!(round_shift(10, 2), 3); // 10/4 = 2.5 → 3
        assert_eq!(round_shift(-10, 2), -3);
        assert_eq!(round_shift(8, 2), 2);
        assert_eq!(round_shift(7, 0), 7);
    }

    fn check_round_trip(dims: Vec<usize>, eb: f64, gen: impl FnMut(&[usize]) -> f32) {
        let data = Dataset::from_fn(dims, gen);
        for threads in [1, 4] {
            let blob = compress_impl(&data, eb, threads, None).unwrap().blob;
            let out = crate::pipeline::decompress::<f32>(&blob).unwrap();
            for (a, b) in data.values().iter().zip(out.values()) {
                assert!((a - b).abs() as f64 <= eb * (1.0 + 1e-9), "a={a} b={b} eb={eb} threads={threads}");
            }
        }
    }

    #[test]
    fn full_round_trip_1d() {
        check_round_trip(vec![103], 1e-3, |i| (i[0] as f32 * 0.05).sin());
    }

    #[test]
    fn full_round_trip_2d_partial_blocks() {
        check_round_trip(vec![30, 19], 1e-4, |i| ((i[0] as f32) * 0.3).cos() * ((i[1] as f32) * 0.2).sin() * 7.0);
    }

    #[test]
    fn full_round_trip_3d() {
        check_round_trip(vec![9, 10, 11], 1e-3, |i| (i[0] + 2 * i[1] + 3 * i[2]) as f32 * 0.01);
    }

    #[test]
    fn non_finite_values_survive_via_raw_blocks() {
        let mut data = Dataset::<f32>::constant(vec![8, 8], 1.0).unwrap();
        data.set(&[0, 0], f32::INFINITY);
        data.set(&[7, 7], f32::NAN);
        let blob = compress_impl(&data, 1e-2, 1, None).unwrap().blob;
        let out = crate::pipeline::decompress::<f32>(&blob).unwrap();
        assert!(out.get(&[0, 0]).is_infinite());
        assert!(out.get(&[7, 7]).is_nan());
        assert_eq!(out.get(&[3, 3]), 1.0);
    }

    #[test]
    fn smooth_blocks_compress_better_than_noise() {
        let smooth = Dataset::from_fn(vec![32, 32], |i| (i[0] + i[1]) as f32 * 0.01);
        let mut state = 1u64;
        let noise = Dataset::from_fn(vec![32, 32], |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f32 / 1000.0
        });
        let bs = compress_impl(&smooth, 1e-3, 1, None).unwrap().blob;
        let bn = compress_impl(&noise, 1e-3, 1, None).unwrap().blob;
        assert!(bs.len() < bn.len(), "smooth={} noise={}", bs.len(), bn.len());
    }

    #[test]
    fn sampled_ratio_is_a_faithful_feature() {
        // The LZ stage sees less context on a subsampled payload, so the
        // estimate *understates* highly compressible data; what the quality
        // model needs is (a) stride-1 fidelity and (b) monotonicity across
        // error bounds, both checked here.
        let data = Dataset::from_fn(vec![40, 40, 20], |i| ((i[0] as f32) * 0.2).sin() + ((i[1] + i[2]) as f32) * 0.01);
        let range = data.value_range();
        let real = |eb: f64| {
            let blob = compress_impl(&data, eb * range, 1, None).unwrap().blob;
            data.nbytes() as f64 / blob.len() as f64
        };
        // Stride 1 samples every block: essentially the real ratio (modulo
        // the missing blob header).
        let full = estimate_ratio_sampled(&data, 1e-3 * range, 1).unwrap();
        let r = real(1e-3);
        assert!(full / r < 1.3 && r / full < 1.3, "full {full} vs real {r}");
        // Monotone in the bound, and ordered consistently with reality.
        let est = |eb: f64| estimate_ratio_sampled(&data, eb * range, 7).unwrap();
        assert!(est(1e-2) > est(1e-4), "loose {} vs tight {}", est(1e-2), est(1e-4));
        assert_eq!(real(1e-2) > real(1e-4), est(1e-2) > est(1e-4));
    }

    #[test]
    fn rejects_bad_bounds_and_rank() {
        let data = Dataset::<f32>::constant(vec![4], 0.0).unwrap();
        assert!(compress_impl(&data, 0.0, 1, None).is_err());
        assert!(compress_impl(&data, f64::NAN, 1, None).is_err());
        assert!(compress_impl(&data, 1e-3, 0, None).is_err());
        let d4 = Dataset::<f32>::constant(vec![2, 2, 2, 2], 0.0).unwrap();
        assert!(compress_impl(&d4, 1e-3, 1, None).is_err());
    }
}
