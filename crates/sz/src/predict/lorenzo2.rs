//! Second-order Lorenzo predictor.
//!
//! Extends the first-order Lorenzo stencil one layer deeper: the prediction
//! is `f − Π_d (1 − S_d)²` applied to the reconstructed neighbourhood, where
//! `S_d` shifts by one along dimension `d` — quadratic extrapolation per
//! axis (1-D: `2f(i−1) − f(i−2)`). Second-order Lorenzo captures linear
//! *gradients* exactly, which first-order Lorenzo does not, at the cost of a
//! wider stencil and more noise amplification (the reason SZ selects between
//! orders per dataset).

use crate::error::SzError;
use crate::ndarray::{Dataset, DatasetView};
use crate::predict::{check_streams, check_streams_into, PredictionStreams, StreamsView, UnpredictablePool};
use crate::quantizer::LinearQuantizer;
use crate::value::ScalarValue;

/// Per-dimension shift polynomial of `(1 − S)²`: coefficients of `S^0..S^2`.
const POLY: [f64; 3] = [1.0, -2.0, 1.0];

/// Stencil weights for rank `ndim`: `(offsets, weight)` pairs for every
/// nonzero multi-offset in `{0,1,2}^ndim` except the origin, with weight
/// `−Π p[a_d]`.
fn stencil(ndim: usize) -> Vec<(Vec<usize>, f64)> {
    let mut out = Vec::new();
    let count = 3usize.pow(ndim as u32);
    for code in 1..count {
        let mut rem = code;
        let mut offsets = Vec::with_capacity(ndim);
        let mut w = 1.0;
        for _ in 0..ndim {
            let a = rem % 3;
            rem /= 3;
            offsets.push(a);
            w *= POLY[a];
        }
        out.push((offsets, -w));
    }
    out
}

/// Compresses `data` with the second-order Lorenzo predictor.
///
/// # Errors
/// Returns [`SzError::InvalidShape`] for datasets with more than 3 dims.
pub fn compress<T: ScalarValue>(
    data: DatasetView<'_, T>,
    quantizer: &LinearQuantizer,
) -> Result<PredictionStreams<T>, SzError> {
    if data.ndim() > 3 {
        return Err(SzError::InvalidShape(format!("lorenzo2 predictor supports 1-3 dims, got {}", data.ndim())));
    }
    let mut out = PredictionStreams::with_capacity(data.len());
    let mut recon = vec![T::zero(); data.len()];
    let raw = data.values();
    walk(data.dims(), &mut recon, |off, pred, recon_buf| {
        let quantized = quantizer.quantize(raw[off], pred);
        if quantized.code == 0 {
            out.unpredictable.push(quantized.reconstructed);
        }
        out.codes.push(quantized.code);
        recon_buf[off] = quantized.reconstructed;
    });
    Ok(out)
}

/// Decompresses streams produced by [`compress`].
///
/// # Errors
/// Returns [`SzError::CorruptStream`] on inconsistent stream lengths or a
/// shape whose point count overflows, and [`SzError::InvalidShape`] for
/// unsupported ranks and empty shapes.
pub fn decompress<T: ScalarValue>(
    dims: &[usize],
    streams: StreamsView<'_, T>,
    quantizer: &LinearQuantizer,
) -> Result<Dataset<T>, SzError> {
    // Sized by the codes actually present, never by the shape alone.
    let mut recon = vec![T::zero(); check_streams("lorenzo2", dims, streams.codes.len())?];
    decompress_into(dims, streams, quantizer, &mut recon)?;
    Dataset::new(dims.to_vec(), recon)
}

/// [`decompress`] straight into `out`, the caller's slab for this shape
/// (its prior contents are never read).
///
/// # Errors
/// As [`decompress`], plus [`SzError::CorruptStream`] if `out` does not hold
/// exactly the shape's points.
pub(crate) fn decompress_into<T: ScalarValue>(
    dims: &[usize],
    streams: StreamsView<'_, T>,
    quantizer: &LinearQuantizer,
    out: &mut [T],
) -> Result<(), SzError> {
    check_streams_into("lorenzo2", dims, streams.codes.len(), out.len())?;
    let mut pool = UnpredictablePool::new(streams.unpredictable);
    let mut next_code = 0usize;
    let mut short_pool = false;
    walk(dims, out, |off, pred, recon_buf| {
        let code = streams.codes[next_code];
        next_code += 1;
        recon_buf[off] = if code == 0 {
            match pool.take() {
                Some(v) => v,
                None => {
                    short_pool = true;
                    T::zero()
                }
            }
        } else {
            quantizer.recover(code, pred)
        };
    });
    if short_pool || !pool.fully_consumed() {
        return Err(SzError::CorruptStream("lorenzo2: unpredictable pool length mismatch".into()));
    }
    Ok(())
}

/// Row-major walk computing the second-order prediction from reconstructed
/// values (out-of-domain neighbours read as 0, as in first-order Lorenzo).
///
/// Fused fast path: away from the leading borders (every coordinate ≥ 2, the
/// widest stencil offset) all stencil terms are in-domain, so the prediction
/// reduces to a dot product against precomputed flat offsets — no per-term
/// domain checks and no per-term offset decomposition. Terms accumulate in
/// stencil enumeration order either way, keeping the sum bit-identical to
/// the checked path (pinned by the `fused_matches_scalar` proptest against
/// `reference::walk`).
fn walk<T: ScalarValue>(dims: &[usize], recon: &mut [T], mut visit: impl FnMut(usize, f64, &mut [T])) {
    let ndim = dims.len();
    let weights = stencil(ndim);
    let mut elem_stride = vec![1usize; ndim];
    for d in (0..ndim.saturating_sub(1)).rev() {
        elem_stride[d] = elem_stride[d + 1] * dims[d + 1];
    }
    let terms: Vec<(usize, f64)> =
        weights.iter().map(|(offsets, w)| (offsets.iter().zip(&elem_stride).map(|(o, s)| o * s).sum(), *w)).collect();
    let n: usize = dims.iter().product();
    let mut idx = vec![0usize; ndim];
    for off in 0..n {
        let mut pred = 0.0f64;
        if idx.iter().all(|&i| i >= 2) {
            for &(doff, w) in &terms {
                pred += w * recon[off - doff].to_f64();
            }
        } else {
            'stencil: for (offsets, w) in &weights {
                let mut noff = off;
                for d in 0..ndim {
                    if idx[d] < offsets[d] {
                        continue 'stencil; // neighbour outside the domain → 0
                    }
                    noff -= offsets[d] * elem_stride[d];
                }
                pred += w * recon[noff].to_f64();
            }
        }
        visit(off, pred, recon);
        for d in (0..ndim).rev() {
            idx[d] += 1;
            if idx[d] < dims[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// The pre-fusion walk, kept verbatim as the bit-equality oracle for the
/// fused fast path in [`walk`].
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn walk<T: ScalarValue>(dims: &[usize], recon: &mut [T], mut visit: impl FnMut(usize, f64, &mut [T])) {
        let ndim = dims.len();
        let weights = stencil(ndim);
        let mut elem_stride = vec![1usize; ndim];
        for d in (0..ndim.saturating_sub(1)).rev() {
            elem_stride[d] = elem_stride[d + 1] * dims[d + 1];
        }
        let n: usize = dims.iter().product();
        let mut idx = vec![0usize; ndim];
        for off in 0..n {
            let mut pred = 0.0f64;
            'stencil: for (offsets, w) in &weights {
                let mut noff = off;
                for d in 0..ndim {
                    if idx[d] < offsets[d] {
                        continue 'stencil; // neighbour outside the domain → 0
                    }
                    noff -= offsets[d] * elem_stride[d];
                }
                pred += w * recon[noff].to_f64();
            }
            visit(off, pred, recon);
            for d in (0..ndim).rev() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }
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
    fn round_trips_all_ranks() {
        check_round_trip(vec![400], 1e-3, |i| (i[0] as f32 * 0.05).sin());
        check_round_trip(vec![30, 40], 1e-3, |i| (i[0] as f32 * 0.2).cos() * i[1] as f32 * 0.1);
        check_round_trip(vec![10, 12, 14], 1e-4, |i| ((i[0] + i[1] * 2 + i[2]) as f32 * 0.1).sin());
    }

    #[test]
    fn stencil_weights_sum_to_one() {
        // Applying the stencil to a constant field must reproduce it.
        for ndim in 1..=3 {
            let total: f64 = stencil(ndim).iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-12, "ndim {ndim}: sum {total}");
        }
    }

    #[test]
    fn captures_gradients_exactly() {
        // A linear ramp is exactly predicted by second-order Lorenzo at
        // every interior point (quadratic extrapolation of a line is exact),
        // including the first row/column where first-order Lorenzo errs.
        let data = Dataset::from_fn(vec![32, 32], |i| 3.0 * i[0] as f32 + 2.0 * i[1] as f32 + 5.0);
        let q = LinearQuantizer::new(0.25, 1 << 15);
        let streams = compress(data.view(), &q).unwrap();
        let zero = 1u32 << 15;
        // Interior (i,j >= 2): exact prediction.
        let interior_nonzero = streams
            .codes
            .iter()
            .enumerate()
            .filter(|&(off, &c)| {
                let (i, j) = (off / 32, off % 32);
                i >= 2 && j >= 2 && c != zero
            })
            .count();
        assert_eq!(interior_nonzero, 0, "interior of a plane must be exactly predicted");
    }

    #[test]
    fn one_d_stencil_is_quadratic_extrapolation() {
        let s = stencil(1);
        assert_eq!(s.len(), 2);
        let w1 = s.iter().find(|(o, _)| o == &vec![1]).expect("offset 1").1;
        let w2 = s.iter().find(|(o, _)| o == &vec![2]).expect("offset 2").1;
        assert_eq!(w1, 2.0);
        assert_eq!(w2, -1.0);
    }

    #[test]
    fn corrupt_streams_detected() {
        let q = LinearQuantizer::new(1e-3, 512);
        let streams = PredictionStreams::<f32> { codes: vec![512; 3], unpredictable: vec![], side_data: vec![] };
        assert!(decompress(&[8], streams.view(), &q).is_err());
        let data = Dataset::from_fn(vec![16], |i| i[0] as f32);
        let mut ok = compress(data.view(), &LinearQuantizer::new(1e-3, 1 << 15)).unwrap();
        ok.unpredictable.push(1.0);
        assert!(decompress(&[16], ok.view(), &LinearQuantizer::new(1e-3, 1 << 15)).is_err());
    }

    use crate::predict::testutil::{bits, fuzz_dataset};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The interior fast path in `walk` must be bit-identical to the
        // checked reference walk on both encode and decode.
        #[test]
        fn fused_matches_scalar(
            dims in prop::collection::vec(1usize..14, 1..4),
            seed in any::<u64>(),
            eb in prop_oneof![Just(1e-3f64), Just(1e-1), Just(1e-6)],
            radius in prop_oneof![Just(4u32), Just(512), Just(1u32 << 15)],
            amp in prop_oneof![Just(0.0f32), Just(0.01), Just(10.0)],
        ) {
            let data = fuzz_dataset(&dims, seed, amp);
            let q = LinearQuantizer::new(eb, radius);
            let fused = compress(data.view(), &q).unwrap();

            let n = data.len();
            let raw = data.values();
            let mut scalar = PredictionStreams::<f32>::with_capacity(n);
            let mut recon_ref = vec![0f32; n];
            reference::walk(&dims, &mut recon_ref, |off, pred, recon_buf| {
                let quantized = q.quantize(raw[off], pred);
                if quantized.code == 0 {
                    scalar.unpredictable.push(quantized.reconstructed);
                }
                scalar.codes.push(quantized.code);
                recon_buf[off] = quantized.reconstructed;
            });
            prop_assert_eq!(&fused.codes, &scalar.codes);
            prop_assert_eq!(bits(&fused.unpredictable), bits(&scalar.unpredictable));

            let fused_out = decompress(&dims, fused.view(), &q).unwrap();
            let mut pool = UnpredictablePool::new(fused.unpredictable.as_slice());
            let mut next = 0usize;
            let mut recon_dec = vec![0f32; n];
            reference::walk(&dims, &mut recon_dec, |off, pred, recon_buf| {
                let code = fused.codes[next];
                next += 1;
                recon_buf[off] =
                    if code == 0 { pool.take().expect("pool length verified by encode") } else { q.recover(code, pred) };
            });
            prop_assert_eq!(bits(fused_out.values()), bits(&recon_dec));
        }
    }
}
