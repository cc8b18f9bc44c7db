//! Dense N-dimensional dataset container used throughout the framework.
//!
//! Scientific fields are row-major dense arrays of 1–3 dimensions (the paper's
//! applications are 2-D climate fields and 3-D simulation snapshots). The
//! container is intentionally simple: a shape vector plus a flat value buffer.

use crate::error::SzError;
use crate::value::ScalarValue;

/// Number of points in a shape read from a blob or handed to a decoder.
///
/// # Errors
/// Returns [`SzError::CorruptStream`] if the product overflows `usize` (a
/// plain product would wrap in release builds and size a buffer from it).
pub(crate) fn checked_points(dims: &[usize]) -> Result<usize, SzError> {
    dims.iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| SzError::CorruptStream(format!("shape {dims:?} holds more points than can be addressed")))
}

/// Minimum and maximum of `values`, ignoring NaNs; `None` if every value is
/// NaN. Of `+0.0` and `-0.0`, which compare equal, the one seen first wins.
pub(crate) fn min_max_of<T: ScalarValue>(values: &[T]) -> Option<(T, T)> {
    // Independent running extremes per lane, each updated by one plain
    // compare-and-select (false for NaN, so NaNs are skipped) — exactly the
    // packed `minps`/`maxps` (`minpd`/`maxpd`) semantics, which is what the
    // block loop compiles to. The lane count is measured, not derived: at 8
    // or 16 lanes the f32 loop came out as compares, masks and shuffles
    // (2.9 GB/s on 112×225 CESM fields), at 32 as packed min/max (15 GB/s);
    // f64 runs at 13–18 GB/s either way.
    const LANES: usize = 32;
    let first = values.iter().position(|v| !v.is_nan())?;
    let lower = |a: T, v: T| if v < a { v } else { a };
    let upper = |a: T, v: T| if v > a { v } else { a };
    let seed = values[first];
    let (mut lo, mut hi) = ([seed; LANES], [seed; LANES]);
    let mut blocks = values[first + 1..].chunks_exact(LANES);
    for block in &mut blocks {
        let block: &[T; LANES] = block.try_into().expect("a whole block");
        for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(block) {
            *l = lower(*l, v);
            *h = upper(*h, v);
        }
    }
    let tail = blocks.remainder().iter().copied();
    let min = lo.into_iter().chain(tail.clone()).fold(seed, lower);
    let max = hi.into_iter().chain(tail).fold(seed, upper);
    // Lanes see values out of order, which only a signed-zero tie can tell:
    // hand it to the first zero in the data, as one pass would.
    let first_seen =
        |m: T| if m == T::zero() { values[first..].iter().copied().find(|&v| v == m).unwrap_or(m) } else { m };
    Some((first_seen(min), first_seen(max)))
}

/// The extremes of consecutive slices, folded in slice order into those of
/// their concatenation, as [`Dataset::min_max`] reports them: all-NaN slices
/// count for nothing, and an equal extreme (a signed zero) from a later slice
/// never displaces an earlier one — so a zero extreme is still the first zero
/// in the data.
pub(crate) fn fold_min_max<T: ScalarValue>(parts: impl IntoIterator<Item = Option<(T, T)>>) -> (T, T) {
    parts
        .into_iter()
        .flatten()
        .reduce(|(lo, hi), (l, h)| (if l < lo { l } else { lo }, if h > hi { h } else { hi }))
        .unwrap_or((T::zero(), T::zero()))
}

/// A dense, row-major N-dimensional array of floating-point values.
///
/// The last dimension is the fastest-varying one, matching C ordering and the
/// layout of the binary dataset files the paper's applications produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset<T> {
    dims: Vec<usize>,
    data: Vec<T>,
}

/// Borrowed view of a row-major array: a shape plus a value slice, both
/// borrowed from their owner.
///
/// The chunk-parallel hot path hands each worker a `DatasetView` of its row
/// slab so splitting a dataset into chunks copies nothing — a chunk is just
/// a sub-slice of the parent's value buffer under a (shared) shape.
#[derive(Debug, Clone, Copy)]
pub struct DatasetView<'a, T> {
    dims: &'a [usize],
    values: &'a [T],
}

impl<'a, T: ScalarValue> DatasetView<'a, T> {
    /// Creates a view over a shape and a flat row-major slice.
    ///
    /// # Errors
    /// Returns [`SzError::InvalidShape`] under the same conditions as
    /// [`Dataset::new`].
    pub fn new(dims: &'a [usize], values: &'a [T]) -> Result<Self, SzError> {
        if dims.is_empty() {
            return Err(SzError::InvalidShape("dimension list is empty".into()));
        }
        if dims.contains(&0) {
            return Err(SzError::InvalidShape(format!("zero-sized dimension in {dims:?}")));
        }
        let expected: usize = dims.iter().product();
        if expected != values.len() {
            return Err(SzError::InvalidShape(format!(
                "shape {dims:?} holds {expected} elements but buffer has {}",
                values.len()
            )));
        }
        Ok(DatasetView { dims, values })
    }

    /// The shape of the viewed array.
    pub fn dims(&self) -> &'a [usize] {
        self.dims
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the view is empty (never true for a valid shape).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Size of the viewed values in bytes.
    pub fn nbytes(&self) -> usize {
        self.values.len() * T::BYTES
    }

    /// The flat row-major value slice.
    pub fn values(&self) -> &'a [T] {
        self.values
    }
}

impl<T: ScalarValue> Dataset<T> {
    /// Borrows the whole dataset as a [`DatasetView`].
    pub fn view(&self) -> DatasetView<'_, T> {
        DatasetView { dims: &self.dims, values: &self.data }
    }

    /// Creates a dataset from a shape and a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`SzError::InvalidShape`] if the shape is empty, has a zero
    /// dimension, or its element count does not match `data.len()`.
    pub fn new(dims: Vec<usize>, data: Vec<T>) -> Result<Self, SzError> {
        if dims.is_empty() {
            return Err(SzError::InvalidShape("dimension list is empty".into()));
        }
        if dims.contains(&0) {
            return Err(SzError::InvalidShape(format!("zero-sized dimension in {dims:?}")));
        }
        let expected: usize = dims.iter().product();
        if expected != data.len() {
            return Err(SzError::InvalidShape(format!(
                "shape {dims:?} holds {expected} elements but buffer has {}",
                data.len()
            )));
        }
        Ok(Dataset { dims, data })
    }

    /// Creates a dataset by evaluating `f` at every grid index.
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains a zero (programming error in the
    /// caller; use [`Dataset::new`] for fallible construction from raw data).
    pub fn from_fn(dims: Vec<usize>, mut f: impl FnMut(&[usize]) -> T) -> Self {
        assert!(!dims.is_empty() && dims.iter().all(|&d| d > 0), "invalid dims {dims:?}");
        let n: usize = dims.iter().product();
        let mut idx = vec![0usize; dims.len()];
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(f(&idx));
            // Row-major odometer increment: last dimension fastest.
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Dataset { dims, data }
    }

    /// Creates a dataset filled with a constant value.
    pub fn constant(dims: Vec<usize>, value: T) -> Result<Self, SzError> {
        let n: usize = dims.iter().product();
        Dataset::new(dims, vec![value; n])
    }

    /// The shape of the dataset (row-major; last dimension fastest).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the dataset holds no elements (never true for a valid dataset).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the raw (uncompressed) representation in bytes.
    pub fn nbytes(&self) -> usize {
        self.len() * T::BYTES
    }

    /// Flat view of the values in row-major order.
    pub fn values(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the values.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Linear offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if `idx.len() != self.ndim()` or any coordinate is out of range.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0usize;
        for (d, (&i, &n)) in idx.iter().zip(&self.dims).enumerate() {
            assert!(i < n, "index {i} out of bounds for dim {d} of extent {n}");
            off = off * n + i;
        }
        off
    }

    /// Value at a multi-dimensional index.
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.offset(idx)]
    }

    /// Sets the value at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], v: T) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    /// Minimum and maximum value, ignoring NaNs.
    ///
    /// Returns `(0, 0)`-equivalents if every value is NaN. Of `+0.0` and
    /// `-0.0`, which compare equal, the one seen first wins.
    pub fn min_max(&self) -> (T, T) {
        fold_min_max([min_max_of(&self.data)])
    }

    /// `max - min` over the data (the "value range" feature from the paper's
    /// Table I), as `f64`.
    pub fn value_range(&self) -> f64 {
        let (min, max) = self.min_max();
        max.to_f64() - min.to_f64()
    }

    /// Serializes the values to little-endian bytes (the on-disk raw format).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.nbytes());
        for &v in &self.data {
            v.write_le(&mut out);
        }
        out
    }

    /// Deserializes values from little-endian bytes with the given shape.
    ///
    /// # Errors
    /// Returns [`SzError::InvalidShape`] if the byte count does not match the
    /// shape, or the shape itself is invalid.
    pub fn from_le_bytes(dims: Vec<usize>, bytes: &[u8]) -> Result<Self, SzError> {
        if !bytes.len().is_multiple_of(T::BYTES) {
            return Err(SzError::InvalidShape(format!(
                "byte buffer length {} is not a multiple of scalar size {}",
                bytes.len(),
                T::BYTES
            )));
        }
        let data: Vec<T> = bytes.chunks_exact(T::BYTES).map(T::read_le).collect();
        Dataset::new(dims, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_shapes() {
        assert!(Dataset::<f32>::new(vec![], vec![]).is_err());
        assert!(Dataset::<f32>::new(vec![0, 3], vec![]).is_err());
        assert!(Dataset::<f32>::new(vec![2, 2], vec![0.0; 3]).is_err());
    }

    #[test]
    fn from_fn_is_row_major() {
        let d = Dataset::from_fn(vec![2, 3], |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(d.values(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(d.get(&[1, 2]), 12.0);
    }

    #[test]
    fn offset_matches_manual_computation() {
        let d = Dataset::<f64>::constant(vec![4, 5, 6], 0.0).unwrap();
        assert_eq!(d.offset(&[1, 2, 3]), 30 + 2 * 6 + 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_panics_out_of_bounds() {
        let d = Dataset::<f32>::constant(vec![2, 2], 0.0).unwrap();
        d.offset(&[2, 0]);
    }

    #[test]
    fn min_max_ignores_nan() {
        let d = Dataset::new(vec![4], vec![1.0f32, f32::NAN, -2.0, 0.5]).unwrap();
        let (min, max) = d.min_max();
        assert_eq!(min, -2.0);
        assert_eq!(max, 1.0);
        assert_eq!(d.value_range(), 3.0);
    }

    /// The serial `Option`-matching scan the lane version replaced.
    fn one_pass<T: ScalarValue>(data: &[T]) -> (T, T) {
        let (mut min, mut max) = (None::<T>, None::<T>);
        for &v in data.iter().filter(|v| !v.is_nan()) {
            min = Some(match min {
                Some(m) if m <= v => m,
                _ => v,
            });
            max = Some(match max {
                Some(m) if m >= v => m,
                _ => v,
            });
        }
        (min.unwrap_or(T::zero()), max.unwrap_or(T::zero()))
    }

    #[test]
    fn min_max_matches_the_one_pass_scan_bit_for_bit() {
        let palette = [0.0f32, -0.0, f32::NAN, 1.5, -1.5, 3.0, f32::INFINITY, f32::NEG_INFINITY, 1e-30, -1e-30];
        let mut state = 7u64;
        for len in (1..60).chain([255, 256, 1000]) {
            // Few distinct values, so signed-zero ties land in every lane and
            // in the tail; `span` = 3 draws only from {0.0, -0.0, NaN}.
            for span in [3usize, 6, palette.len()] {
                let values: Vec<f32> = (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        palette[(state >> 33) as usize % span]
                    })
                    .collect();
                let want = one_pass(&values);
                let got = Dataset::new(vec![len], values.clone()).unwrap().min_max();
                assert_eq!((got.0.to_bits(), got.1.to_bits()), (want.0.to_bits(), want.1.to_bits()), "{values:?}");
            }
        }
        let all_nan = Dataset::new(vec![3], vec![f64::NAN; 3]).unwrap();
        assert_eq!(all_nan.min_max(), (0.0, 0.0));
    }

    #[test]
    fn min_max_matches_the_one_pass_scan_across_whole_lane_blocks_in_f32_and_f64() {
        // Long runs of signed zeros, NaNs and one extreme, placed so the
        // first real value, the extremes and the zero ties fall in every
        // lane of a block, across block boundaries and in the tail.
        fn check<T: ScalarValue>(values: &[T], what: &str) {
            let bits = |(lo, hi): (T, T)| {
                let mut bytes = Vec::new();
                lo.write_le(&mut bytes);
                hi.write_le(&mut bytes);
                bytes
            };
            let got = Dataset::new(vec![values.len()], values.to_vec()).unwrap().min_max();
            assert_eq!(bits(got), bits(one_pass(values)), "{what}");
        }
        let mut state = 11u64;
        for len in [31usize, 32, 33, 63, 64, 65, 96, 97, 129, 1000] {
            for lead_nans in [0usize, 1, 31, 33] {
                for pattern in 0..4 {
                    let values: Vec<f32> = (0..lead_nans + len)
                        .map(|k| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let r = (state >> 33) as usize;
                            match (k < lead_nans, pattern) {
                                (true, _) => f32::NAN,
                                (_, 0) => [0.0, -0.0][r % 2],
                                (_, 1) => [0.0, -0.0, f32::NAN][r % 3],
                                (_, 2) => [-0.0, 0.0, f32::NAN, 2.5][r % 4],
                                _ => [-0.0, f32::NAN, -2.5, 0.0][r % 4],
                            }
                        })
                        .collect();
                    let what = format!("len {len} lead {lead_nans} pattern {pattern}");
                    check(&values, &format!("f32 {what}"));
                    let wide: Vec<f64> = values.iter().map(|&v| v as f64).collect();
                    check(&wide, &format!("f64 {what}"));
                }
            }
        }
    }

    #[test]
    fn byte_round_trip() {
        let d = Dataset::from_fn(vec![3, 3], |i| (i[0] + i[1]) as f64 * 0.5);
        let bytes = d.to_le_bytes();
        let back = Dataset::<f64>::from_le_bytes(vec![3, 3], &bytes).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn from_le_bytes_rejects_misaligned() {
        assert!(Dataset::<f32>::from_le_bytes(vec![1], &[0u8; 5]).is_err());
    }

    #[test]
    fn set_and_get() {
        let mut d = Dataset::<f32>::constant(vec![2, 2], 0.0).unwrap();
        d.set(&[1, 0], 7.0);
        assert_eq!(d.get(&[1, 0]), 7.0);
        assert_eq!(d.values()[2], 7.0);
    }
}
