//! SZ2-style hybrid block predictor: per block, the better of a fitted
//! linear-regression plane and the Lorenzo predictor.
//!
//! The dataset is tiled into blocks (6³ in 3-D, 12² in 2-D, 128 in 1-D,
//! matching SZ2's defaults). For each block a linear model
//! `v ≈ b₀ + Σ b_d·x_d` is fitted by least squares over the raw values; the
//! block then uses whichever of {regression, Lorenzo} gives the lower mean
//! absolute raw prediction error. The choice flag and (for regression blocks)
//! the `f32`-rounded coefficients travel in the side-data channel.
//!
//! Blocks are processed in row-major block order and points in row-major
//! order within each block, so every Lorenzo neighbour is already
//! reconstructed when needed — the same parity argument as the plain Lorenzo
//! predictor.

use crate::error::SzError;
use crate::ndarray::{Dataset, DatasetView};
use crate::predict::{check_streams, check_streams_into, PredictionStreams, StreamsView, UnpredictablePool};
use crate::quantizer::LinearQuantizer;
use crate::value::ScalarValue;

/// Block edge length per rank.
fn block_edge(ndim: usize) -> usize {
    match ndim {
        1 => 128,
        2 => 12,
        _ => 6,
    }
}

const FLAG_LORENZO: u8 = 0;
const FLAG_REGRESSION: u8 = 1;

/// Compresses `data` with the hybrid regression/Lorenzo predictor.
///
/// # Errors
/// Returns [`SzError::InvalidShape`] for datasets with more than 3 dims.
pub fn compress<T: ScalarValue>(
    data: DatasetView<'_, T>,
    quantizer: &LinearQuantizer,
) -> Result<PredictionStreams<T>, SzError> {
    let ndim = data.ndim();
    if ndim > 3 {
        return Err(SzError::InvalidShape(format!("regression predictor supports 1-3 dims, got {ndim}")));
    }
    let dims = pad3(data.dims());
    let raw = data.values();
    let mut out = PredictionStreams::with_capacity(data.len());
    let mut recon = vec![T::zero(); data.len()];
    let edge = block_edge(ndim);

    for_each_block(&dims, edge, |base, bdims| {
        // Fit and round coefficients on the raw block.
        let coeffs = fit_block(raw, &dims, &base, &bdims);
        let reg_err = regression_error(raw, &dims, &base, &bdims, &coeffs);
        let lor_err = lorenzo_raw_error(raw, &dims, &base, &bdims);
        let use_reg = reg_err < lor_err;
        out.side_data.push(if use_reg { FLAG_REGRESSION } else { FLAG_LORENZO });
        if use_reg {
            for c in coeffs {
                out.side_data.extend_from_slice(&c.to_le_bytes());
            }
        }
        for_each_point(&base, &bdims, |idx| {
            let off = offset3(&dims, idx);
            let pred =
                if use_reg { predict_regression(&coeffs, &base, idx) } else { predict_lorenzo(&recon, &dims, idx) };
            let quantized = quantizer.quantize(raw[off], pred);
            if quantized.code == 0 {
                out.unpredictable.push(quantized.reconstructed);
            }
            out.codes.push(quantized.code);
            recon[off] = quantized.reconstructed;
        });
    });
    Ok(out)
}

/// Decompresses streams produced by [`compress`].
///
/// # Errors
/// Returns [`SzError::CorruptStream`] on malformed side data, stream-length
/// mismatches or a shape whose point count overflows,
/// [`SzError::InvalidShape`] for unsupported ranks and empty shapes.
pub fn decompress<T: ScalarValue>(
    dims: &[usize],
    streams: StreamsView<'_, T>,
    quantizer: &LinearQuantizer,
) -> Result<Dataset<T>, SzError> {
    // Sized by the codes actually present, never by the shape alone.
    let mut recon = vec![T::zero(); check_streams("regression", dims, streams.codes.len())?];
    decompress_into(dims, streams, quantizer, &mut recon)?;
    Dataset::new(dims.to_vec(), recon)
}

/// [`decompress`] straight into `recon`, the caller's slab for this shape
/// (its prior contents are never read).
///
/// # Errors
/// As [`decompress`], plus [`SzError::CorruptStream`] if `recon` does not
/// hold exactly the shape's points.
pub(crate) fn decompress_into<T: ScalarValue>(
    dims_in: &[usize],
    streams: StreamsView<'_, T>,
    quantizer: &LinearQuantizer,
    recon: &mut [T],
) -> Result<(), SzError> {
    check_streams_into("regression", dims_in, streams.codes.len(), recon.len())?;
    let dims = pad3(dims_in);
    let edge = block_edge(dims_in.len());
    let mut pool = UnpredictablePool::new(streams.unpredictable);
    let mut next_code = 0usize;
    let mut side_pos = 0usize;
    let mut failure: Option<SzError> = None;

    for_each_block(&dims, edge, |base, bdims| {
        if failure.is_some() {
            return;
        }
        let Some(&flag) = streams.side_data.get(side_pos) else {
            failure = Some(SzError::CorruptStream("regression: side data exhausted".into()));
            return;
        };
        side_pos += 1;
        let coeffs = if flag == FLAG_REGRESSION {
            let need = 4 * 4;
            if side_pos + need > streams.side_data.len() {
                failure = Some(SzError::CorruptStream("regression: truncated coefficients".into()));
                return;
            }
            let mut c = [0f32; 4];
            for item in &mut c {
                let b = &streams.side_data[side_pos..side_pos + 4];
                *item = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                side_pos += 4;
            }
            Some(c)
        } else if flag == FLAG_LORENZO {
            None
        } else {
            failure = Some(SzError::CorruptStream(format!("regression: invalid block flag {flag}")));
            return;
        };
        for_each_point(&base, &bdims, |idx| {
            if failure.is_some() {
                return;
            }
            let off = offset3(&dims, idx);
            let pred = match coeffs {
                Some(c) => predict_regression(&c, &base, idx),
                None => predict_lorenzo(recon, &dims, idx),
            };
            let code = streams.codes[next_code];
            next_code += 1;
            recon[off] = if code == 0 {
                match pool.take() {
                    Some(v) => v,
                    None => {
                        failure = Some(SzError::CorruptStream("regression: unpredictable pool exhausted".into()));
                        T::zero()
                    }
                }
            } else {
                quantizer.recover(code, pred)
            };
        });
    });
    if let Some(e) = failure {
        return Err(e);
    }
    if !pool.fully_consumed() || side_pos != streams.side_data.len() {
        return Err(SzError::CorruptStream("regression: trailing stream data".into()));
    }
    Ok(())
}

/// Pads a 1-3 dim shape to exactly 3 dims with leading 1s, preserving
/// row-major offsets.
fn pad3(dims: &[usize]) -> [usize; 3] {
    let mut out = [1usize; 3];
    let k = 3 - dims.len();
    for (i, &d) in dims.iter().enumerate() {
        out[k + i] = d;
    }
    out
}

#[inline]
fn offset3(dims: &[usize; 3], idx: [usize; 3]) -> usize {
    (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]
}

/// Visits blocks in row-major block order.
fn for_each_block(dims: &[usize; 3], edge: usize, mut f: impl FnMut([usize; 3], [usize; 3])) {
    let mut b0 = 0;
    while b0 < dims[0] {
        let m0 = edge.min(dims[0] - b0);
        let mut b1 = 0;
        while b1 < dims[1] {
            let m1 = edge.min(dims[1] - b1);
            let mut b2 = 0;
            while b2 < dims[2] {
                let m2 = edge.min(dims[2] - b2);
                f([b0, b1, b2], [m0, m1, m2]);
                b2 += edge;
            }
            b1 += edge;
        }
        b0 += edge;
    }
}

/// Visits points of a block in row-major order (global indices).
fn for_each_point(base: &[usize; 3], bdims: &[usize; 3], mut f: impl FnMut([usize; 3])) {
    for i in 0..bdims[0] {
        for j in 0..bdims[1] {
            for k in 0..bdims[2] {
                f([base[0] + i, base[1] + j, base[2] + k]);
            }
        }
    }
}

/// Least-squares fit of `v ≈ b0 + b1·i + b2·j + b3·k` over a rectangular
/// block (local coordinates). Rectangularity decouples the dimensions, so
/// each slope is a 1-D covariance ratio. Returned coefficients are rounded
/// to `f32` (the stored precision) so compression predicts with exactly what
/// the decompressor will read.
fn fit_block<T: ScalarValue>(raw: &[T], dims: &[usize; 3], base: &[usize; 3], bdims: &[usize; 3]) -> [f32; 4] {
    let n = (bdims[0] * bdims[1] * bdims[2]) as f64;
    let mut mean_v = 0.0f64;
    for_each_point(base, bdims, |idx| {
        mean_v += raw[offset3(dims, idx)].to_f64();
    });
    mean_v /= n;

    let mut slopes = [0.0f64; 3];
    for d in 0..3 {
        let m = bdims[d] as f64;
        if bdims[d] < 2 {
            continue;
        }
        let mean_x = (m - 1.0) / 2.0;
        let var_x = (m * m - 1.0) / 12.0;
        let mut cov = 0.0f64;
        for_each_point(base, bdims, |idx| {
            let x = (idx[d] - base[d]) as f64;
            cov += (x - mean_x) * raw[offset3(dims, idx)].to_f64();
        });
        cov /= n;
        slopes[d] = cov / var_x;
    }
    let b0 = mean_v - slopes.iter().zip(bdims).map(|(s, &m)| s * (m as f64 - 1.0) / 2.0).sum::<f64>();
    [b0 as f32, slopes[0] as f32, slopes[1] as f32, slopes[2] as f32]
}

#[inline]
fn predict_regression(coeffs: &[f32; 4], base: &[usize; 3], idx: [usize; 3]) -> f64 {
    coeffs[0] as f64
        + coeffs[1] as f64 * (idx[0] - base[0]) as f64
        + coeffs[2] as f64 * (idx[1] - base[1]) as f64
        + coeffs[3] as f64 * (idx[2] - base[2]) as f64
}

#[inline]
fn predict_lorenzo<T: ScalarValue>(recon: &[T], dims: &[usize; 3], idx: [usize; 3]) -> f64 {
    let at = |i: isize, j: isize, k: isize| -> f64 {
        if i < 0 || j < 0 || k < 0 {
            0.0
        } else {
            recon[(i as usize * dims[1] + j as usize) * dims[2] + k as usize].to_f64()
        }
    };
    let (i, j, k) = (idx[0] as isize, idx[1] as isize, idx[2] as isize);
    at(i - 1, j, k) + at(i, j - 1, k) + at(i, j, k - 1)
        - at(i - 1, j - 1, k)
        - at(i - 1, j, k - 1)
        - at(i, j - 1, k - 1)
        + at(i - 1, j - 1, k - 1)
}

fn regression_error<T: ScalarValue>(
    raw: &[T],
    dims: &[usize; 3],
    base: &[usize; 3],
    bdims: &[usize; 3],
    coeffs: &[f32; 4],
) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for_each_point(base, bdims, |idx| {
        total += (raw[offset3(dims, idx)].to_f64() - predict_regression(coeffs, base, idx)).abs();
        count += 1;
    });
    total / count as f64
}

/// Lorenzo selection heuristic over raw values (matches SZ2's sampling-based
/// block selection; deterministic, so it needs no extra stream data).
fn lorenzo_raw_error<T: ScalarValue>(raw: &[T], dims: &[usize; 3], base: &[usize; 3], bdims: &[usize; 3]) -> f64 {
    let at = |i: isize, j: isize, k: isize| -> f64 {
        if i < 0 || j < 0 || k < 0 {
            0.0
        } else {
            raw[(i as usize * dims[1] + j as usize) * dims[2] + k as usize].to_f64()
        }
    };
    let mut total = 0.0;
    let mut count = 0usize;
    for_each_point(base, bdims, |idx| {
        let (i, j, k) = (idx[0] as isize, idx[1] as isize, idx[2] as isize);
        let pred = at(i - 1, j, k) + at(i, j - 1, k) + at(i, j, k - 1)
            - at(i - 1, j - 1, k)
            - at(i - 1, j, k - 1)
            - at(i, j - 1, k - 1)
            + at(i - 1, j - 1, k - 1);
        total += (at(i, j, k) - pred).abs();
        count += 1;
    });
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_round_trip(dims: Vec<usize>, eb: f64, gen: impl FnMut(&[usize]) -> f32) {
        let data = Dataset::from_fn(dims.clone(), gen);
        let q = LinearQuantizer::new(eb, 1 << 15);
        let streams = compress(data.view(), &q).unwrap();
        let out = decompress(&dims, streams.view(), &q).unwrap();
        for (a, b) in data.values().iter().zip(out.values()) {
            assert!((a - b).abs() as f64 <= eb * (1.0 + 1e-9), "a={a} b={b}");
        }
    }

    #[test]
    fn round_trip_1d() {
        check_round_trip(vec![500], 1e-3, |i| (i[0] as f32 * 0.02).sin() * 3.0);
    }

    #[test]
    fn round_trip_2d() {
        check_round_trip(vec![50, 37], 1e-3, |i| i[0] as f32 * 0.5 - i[1] as f32 * 0.25);
    }

    #[test]
    fn round_trip_3d() {
        check_round_trip(vec![13, 14, 15], 1e-4, |i| (i[0] as f32 * 0.7).sin() + (i[1] as f32 + i[2] as f32) * 0.05);
    }

    #[test]
    fn planar_data_selects_regression_and_nails_it() {
        // A global plane: regression predicts every interior point almost
        // exactly, so nearly every code is the zero bin.
        let data =
            Dataset::from_fn(vec![24, 24, 24], |i| 1.0 + 0.5 * i[0] as f32 + 0.25 * i[1] as f32 - 0.125 * i[2] as f32);
        let q = LinearQuantizer::new(1e-3, 1 << 15);
        let streams = compress(data.view(), &q).unwrap();
        let zero = 1u32 << 15;
        let zero_frac = streams.codes.iter().filter(|&&c| c == zero).count() as f64 / streams.codes.len() as f64;
        assert!(zero_frac > 0.98, "zero_frac={zero_frac}");
        // At least one block chose regression.
        assert!(streams.side_data.contains(&FLAG_REGRESSION));
    }

    #[test]
    fn blocky_smooth_data_round_trips_at_loose_bound() {
        check_round_trip(vec![20, 20, 20], 0.5, |i| ((i[0] * i[1] + i[2]) as f32 * 0.01).sin() * 10.0);
    }

    #[test]
    fn corrupt_flag_rejected() {
        let data = Dataset::from_fn(vec![8, 8], |i| (i[0] + i[1]) as f32);
        let q = LinearQuantizer::new(1e-3, 1 << 15);
        let mut streams = compress(data.view(), &q).unwrap();
        streams.side_data[0] = 7;
        assert!(decompress(&[8, 8], streams.view(), &q).is_err());
    }

    #[test]
    fn truncated_side_data_rejected() {
        let data = Dataset::from_fn(vec![30, 30], |i| (i[0] as f32 * 0.4).sin() + i[1] as f32);
        let q = LinearQuantizer::new(1e-3, 1 << 15);
        let mut streams = compress(data.view(), &q).unwrap();
        streams.side_data.truncate(1);
        assert!(decompress(&[30, 30], streams.view(), &q).is_err());
    }

    #[test]
    fn rejects_rank_4() {
        let data = Dataset::<f32>::constant(vec![2, 2, 2, 2], 0.0).unwrap();
        let q = LinearQuantizer::new(1e-3, 512);
        assert!(compress(data.view(), &q).is_err());
    }

    #[test]
    fn pad3_preserves_offsets() {
        assert_eq!(pad3(&[5]), [1, 1, 5]);
        assert_eq!(pad3(&[4, 5]), [1, 4, 5]);
        assert_eq!(pad3(&[3, 4, 5]), [3, 4, 5]);
    }

    #[test]
    fn fit_block_recovers_plane_coefficients() {
        let dims = [1usize, 8, 8];
        let raw: Vec<f32> = (0..64)
            .map(|o| {
                let j = o / 8;
                let k = o % 8;
                2.0 + 0.5 * j as f32 + 0.25 * k as f32
            })
            .collect();
        let c = fit_block(&raw, &dims, &[0, 0, 0], &[1, 8, 8]);
        assert!((c[0] - 2.0).abs() < 1e-5, "{c:?}");
        assert!((c[2] - 0.5).abs() < 1e-5, "{c:?}");
        assert!((c[3] - 0.25).abs() < 1e-5, "{c:?}");
    }
}
