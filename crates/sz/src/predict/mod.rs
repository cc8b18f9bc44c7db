//! Decorrelation predictors.
//!
//! Every predictor follows the same contract: during compression it walks the
//! dataset in a deterministic order, predicts each value from *previously
//! reconstructed* values (never raw ones — this guarantees bit-exact parity
//! with the decompressor), and quantizes the prediction error. During
//! decompression it walks the same order, recovering values from codes.

pub mod interp;
pub mod lorenzo;
pub mod regression;

use crate::error::SzError;
use crate::ndarray::checked_points;
use crate::value::ScalarValue;

/// Rejects ranks the predictors do not walk; `what` names the predictor.
pub(crate) fn check_rank(what: &str, ndim: usize) -> Result<(), SzError> {
    if (1..=3).contains(&ndim) {
        Ok(())
    } else {
        Err(SzError::InvalidShape(format!("{what} predictor supports 1-3 dims, got {ndim}")))
    }
}

/// Validates a decode request — a walkable, non-empty shape whose point
/// count does not overflow, and one code per point — returning that count.
pub(crate) fn check_streams(what: &str, dims: &[usize], n_codes: usize) -> Result<usize, SzError> {
    check_rank(what, dims.len())?;
    let n = checked_points(dims)?;
    if n == 0 {
        return Err(SzError::InvalidShape(format!("{what}: empty shape {dims:?}")));
    }
    if n_codes != n {
        return Err(SzError::CorruptStream(format!("{what}: {n_codes} codes for {n} points")));
    }
    Ok(n)
}

/// [`check_streams`] for a decode into the caller's slab, which must hold
/// exactly the shape's points.
pub(crate) fn check_streams_into(what: &str, dims: &[usize], n_codes: usize, slab: usize) -> Result<usize, SzError> {
    let n = check_streams(what, dims, n_codes)?;
    if slab != n {
        return Err(SzError::CorruptStream(format!("{what}: slab of {slab} values for {n} points")));
    }
    Ok(n)
}

/// The two streams a predictor produces: quantization codes (one per value,
/// in walk order) and the verbatim "unpredictable" values (in walk order of
/// their occurrence, i.e. of every `code == 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionStreams<T> {
    /// One entropy-coder symbol per data point.
    pub codes: Vec<u32>,
    /// Exactly-stored values for points whose code is `0`.
    pub unpredictable: Vec<T>,
    /// Predictor-specific side data (e.g. regression coefficients), already
    /// serialized; empty for predictors without side data.
    pub side_data: Vec<u8>,
}

impl<T: ScalarValue> PredictionStreams<T> {
    /// Creates empty streams with capacity for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        PredictionStreams { codes: Vec::with_capacity(n), unpredictable: Vec::new(), side_data: Vec::new() }
    }

    /// Fraction of points stored verbatim.
    pub fn unpredictable_ratio(&self) -> f64 {
        if self.codes.is_empty() {
            0.0
        } else {
            self.unpredictable.len() as f64 / self.codes.len() as f64
        }
    }

    /// Borrows the streams for decompression without copying any of them.
    pub fn view(&self) -> StreamsView<'_, T> {
        StreamsView { codes: &self.codes, unpredictable: &self.unpredictable, side_data: &self.side_data }
    }
}

/// Borrowed [`PredictionStreams`]: what a decompressor actually needs. The
/// side-data slice can point straight into the decoded chunk payload, so
/// decompression never copies side data into an owned `Vec`.
#[derive(Debug, Clone, Copy)]
pub struct StreamsView<'a, T> {
    /// One entropy-coder symbol per data point.
    pub codes: &'a [u32],
    /// Exactly-stored values for points whose code is `0`.
    pub unpredictable: &'a [T],
    /// Serialized predictor-specific side data.
    pub side_data: &'a [u8],
}

/// Sequential consumer of the unpredictable-value side channel during
/// decompression.
#[derive(Debug)]
pub(crate) struct UnpredictablePool<'a, T> {
    values: &'a [T],
    next: usize,
}

impl<'a, T: ScalarValue> UnpredictablePool<'a, T> {
    pub(crate) fn new(values: &'a [T]) -> Self {
        UnpredictablePool { values, next: 0 }
    }

    /// Takes the next verbatim value.
    ///
    /// Returns `None` if the stream is exhausted (corrupt input).
    pub(crate) fn take(&mut self) -> Option<T> {
        let v = self.values.get(self.next).copied();
        self.next += 1;
        v
    }

    /// Whether every stored value has been consumed.
    pub(crate) fn fully_consumed(&self) -> bool {
        self.next == self.values.len()
    }
}

/// Shared helpers for the fused-vs-scalar bit-equality proptests in the
/// predictor modules.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::ndarray::Dataset;

    /// Mixed smooth + noise field whose roughness scales with `amp`, so some
    /// parameter draws produce unpredictable values (escape path) and others
    /// stay all-predictable.
    pub(crate) fn fuzz_dataset(dims: &[usize], seed: u64, amp: f32) -> Dataset<f32> {
        let mut state = seed | 1;
        Dataset::from_fn(dims.to_vec(), move |idx| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
            let smooth: f32 = idx.iter().map(|&c| c as f32 * 0.13).sum::<f32>().sin();
            smooth + noise * amp
        })
    }

    /// Bit patterns for exact `f32` comparison (distinguishes `-0.0`/`+0.0`
    /// and compares NaNs structurally).
    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Exact byte image of a value slice: [`bits`] for either float width.
    pub(crate) fn bytes_of<T: crate::value::ScalarValue>(values: &[T]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * T::BYTES);
        for &v in values {
            v.write_le(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpredictable_ratio_handles_empty() {
        let s = PredictionStreams::<f32>::with_capacity(0);
        assert_eq!(s.unpredictable_ratio(), 0.0);
    }

    #[test]
    fn hostile_shapes_and_slabs_are_typed_errors() {
        use crate::quantizer::LinearQuantizer;
        type Decode = fn(&[usize], StreamsView<'_, f32>, &LinearQuantizer) -> Result<crate::Dataset<f32>, SzError>;
        type DecodeInto = fn(&[usize], StreamsView<'_, f32>, &LinearQuantizer, &mut [f32]) -> Result<(), SzError>;
        let predictors: [(&str, Decode, DecodeInto); 2] = [
            ("lorenzo", lorenzo::decompress, lorenzo::decompress_into),
            ("regression", regression::decompress, regression::decompress_into),
        ];
        let q = LinearQuantizer::new(1e-3, 512);
        let none = PredictionStreams::<f32>::with_capacity(0);
        // Six zero-bin codes; regression reads its side data as one Lorenzo block.
        let six = PredictionStreams::<f32> { codes: vec![512; 6], unpredictable: vec![], side_data: vec![0] };
        for (name, decompress, decompress_into) in predictors {
            // Point counts that wrap to 0 (and would "match" no codes) or
            // overflow: a typed error, in debug builds too.
            for dims in [vec![1usize << 32, 1 << 32], vec![usize::MAX, 2, 3], vec![1 << 63, 2]] {
                let r = decompress(&dims, none.view(), &q);
                assert!(matches!(r, Err(SzError::CorruptStream(_))), "{name} {dims:?}: {r:?}");
                let r = decompress_into(&dims, none.view(), &q, &mut []);
                assert!(matches!(r, Err(SzError::CorruptStream(_))), "{name} {dims:?} into: {r:?}");
            }
            let side = if name == "regression" { six.view() } else { StreamsView { side_data: &[], ..six.view() } };
            for len in [0usize, 5, 7] {
                let r = decompress_into(&[2, 3], side, &q, &mut vec![0f32; len]);
                assert!(matches!(r, Err(SzError::CorruptStream(_))), "{name} slab of {len}: {r:?}");
            }
            // The slab's prior contents are never read.
            let mut slab = [f32::NAN; 6];
            decompress_into(&[2, 3], side, &q, &mut slab).unwrap();
            assert_eq!(slab.to_vec(), decompress(&[2, 3], side, &q).unwrap().values(), "{name}");
        }
    }

    #[test]
    fn pool_consumes_in_order() {
        let vals = [1.0f32, 2.0, 3.0];
        let mut pool = UnpredictablePool::new(&vals);
        assert_eq!(pool.take(), Some(1.0));
        assert_eq!(pool.take(), Some(2.0));
        assert!(!pool.fully_consumed());
        assert_eq!(pool.take(), Some(3.0));
        assert!(pool.fully_consumed());
        assert_eq!(pool.take(), None);
    }
}
