//! First-order Lorenzo predictor for 1-, 2-, and 3-D datasets.
//!
//! The Lorenzo predictor estimates each value from the inclusion–exclusion
//! sum of its already-processed neighbours in the hypercube behind it:
//!
//! * 1-D: `f(i−1)`
//! * 2-D: `f(i−1,j) + f(i,j−1) − f(i−1,j−1)`
//! * 3-D: seven-term alternating sum over the preceding corner cube.
//!
//! Out-of-domain neighbours read as `0`, so the first element is effectively
//! predicted as zero.

use std::ops::Range;

use crate::error::SzError;
use crate::ndarray::{Dataset, DatasetView};
use crate::predict::{check_rank, check_streams, check_streams_into, PredictionStreams, StreamsView};
use crate::quantizer::LinearQuantizer;
use crate::value::ScalarValue;

/// Rows the 2-D and 3-D walks hold in flight at once, one `[f64; LANES]`
/// array per term of a step. Picked by measurement (DESIGN.md "Hot-path
/// kernels"): on 28 CESM 112×225 files at a 1e-5 bound, eight lanes encode
/// 1.3–1.4× faster than the four-lane scalar walk they replaced and four
/// lanes as arrays 1.1–1.2×; sixteen are slower again, their lane state
/// spilling out of the sixteen SSE registers. In 3-D, eight encode 1.4–1.5×
/// faster, four 1.2–1.4×.
const LANES: usize = 8;

/// Compresses `data`, returning quantization streams.
///
/// # Errors
/// Returns [`SzError::InvalidShape`] for datasets with more than 3 dims.
pub fn compress<T: ScalarValue>(
    data: DatasetView<'_, T>,
    quantizer: &LinearQuantizer,
) -> Result<PredictionStreams<T>, SzError> {
    let (dims, input) = (data.dims(), data.values());
    check_rank("lorenzo", dims.len())?;
    let mut codes = vec![0u32; input.len()];
    let mut encoder = Encoder { q: quantizer.clone(), input, codes: &mut codes };
    match *dims {
        [n] => walk1(n, &mut encoder, |_, _| {}),
        [n0, n1] => walk2(n0, n1, &mut vec![T::zero(); input.len()], &mut encoder),
        _ => walk3(dims[0], dims[1], dims[2], &mut vec![T::zero(); input.len()], &mut encoder),
    }
    // An escape's reconstruction is its input, whatever was predicted for it,
    // so the pool is the inputs under the zero codes, in raster order.
    let unpredictable = if codes.contains(&0) {
        codes.iter().zip(input).filter(|&(&code, _)| code == 0).map(|(_, &value)| value).collect()
    } else {
        Vec::new()
    };
    Ok(PredictionStreams { codes, unpredictable, side_data: Vec::new() })
}

/// Decompresses streams produced by [`compress`].
///
/// # Errors
/// Returns [`SzError::CorruptStream`] if stream lengths are inconsistent with
/// the shape or the shape's point count overflows, and
/// [`SzError::InvalidShape`] for unsupported ranks and empty shapes.
pub fn decompress<T: ScalarValue>(
    dims: &[usize],
    streams: StreamsView<'_, T>,
    quantizer: &LinearQuantizer,
) -> Result<Dataset<T>, SzError> {
    // Sized by the codes actually present, never by the shape alone.
    let mut recon = vec![T::zero(); check_streams("lorenzo", dims, streams.codes.len())?];
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
    let n = check_streams_into("lorenzo", dims, streams.codes.len(), out.len())?;
    // Rows in flight together each need their own place in the pool: the
    // escapes of the rows before them, counted up front. The total is checked
    // here, so no cursor can run past the pool during the walk.
    let width = dims[dims.len() - 1];
    let mut row_start = Vec::with_capacity(n / width + 1);
    let mut seen = 0usize;
    for row in streams.codes.chunks_exact(width) {
        row_start.push(seen);
        seen += row.iter().filter(|&&code| code == 0).count();
    }
    if seen != streams.unpredictable.len() {
        return Err(SzError::CorruptStream("lorenzo: unpredictable pool length mismatch".into()));
    }
    let mut decoder = Decoder { q: quantizer.clone(), codes: streams.codes, pool: streams.unpredictable, row_start };
    match *dims {
        [n] => walk1(n, &mut decoder, |off, value| out[off] = value),
        [n0, n1] => walk2(n0, n1, out, &mut decoder),
        _ => walk3(dims[0], dims[1], dims[2], out, &mut decoder),
    }
    Ok(())
}

// The compress and decompress walks are the same traversal; a `PointOp` is
// what happens at each point of it.
//
// A point reads its reconstructed west, north and north-west neighbours (and,
// in 3-D, the same four of the plane above), so the predict → quantize →
// reconstruct chain is a recurrence *along a row* only: row `i + 1` can run
// one column behind row `i` and share nothing with it. The 2-D and 3-D walks
// therefore take `LANES` rows at a time, lane `r` one column behind lane
// `r − 1`, and advance all of them by one column per step. A step is a few
// `[f64; LANES]` array operations — gather the lanes' inputs, predict,
// quantize (or recover) lane-wise, scatter — so the core runs the lanes as
// packed arithmetic instead of one chain's latency at a time. Only the
// evaluation order changes: every point sees the neighbours, the operand
// order and so the bits of the raster walk, kept verbatim in `reference`
// below and pinned by the `fused_matches_scalar_*` tests. The lane state lives
// in registers — each lane's own west-side values, and the lane above's
// previous step in place of a load — so a point of a skewed row reads the
// reconstruction buffer at most once.
//
// Out-of-domain neighbours are the literal `0.0` terms of the naive sum, in
// its operand order (`0.0 + -0.0` is `+0.0`, which dropping the term would
// break), so border and interior points share one expression.

/// What a walk does at a point, or at one point of every lane: quantize it
/// (encode) or recover it (decode).
trait PointOp<T> {
    /// Where row `row`'s escapes start in the unpredictable pool.
    fn row_cursor(&self, row: usize) -> usize;
    /// Handles the point at flat offset `off`, predicted as `pred`, and
    /// returns its reconstruction. `cursor` is the pool cursor of its row.
    fn point(&mut self, off: usize, pred: f64, cursor: &mut usize) -> T;
    /// [`PointOp::point`] for lane `r`'s point at `offs[r]`, predicted as
    /// `preds[r]`, for every lane at once.
    fn step(&mut self, offs: [usize; LANES], preds: [f64; LANES], cursors: &mut [usize; LANES]) -> [T; LANES];
}

struct Encoder<'a, T> {
    /// By value, so a step holds its constants in registers.
    q: LinearQuantizer,
    input: &'a [T],
    /// One slot per point, written by offset.
    codes: &'a mut [u32],
}

impl<T: ScalarValue> PointOp<T> for Encoder<'_, T> {
    fn row_cursor(&self, _row: usize) -> usize {
        0
    }

    #[inline(always)]
    fn point(&mut self, off: usize, pred: f64, _cursor: &mut usize) -> T {
        let quantized = self.q.quantize(self.input[off], pred);
        self.codes[off] = quantized.code;
        quantized.reconstructed
    }

    #[inline(always)]
    fn step(&mut self, offs: [usize; LANES], preds: [f64; LANES], _cursors: &mut [usize; LANES]) -> [T; LANES] {
        let values = lanes(|r| self.input[offs[r]]);
        let (mut codes, mut recons) = ([0u32; LANES], values);
        self.q.quantize_block(&values, &preds, &mut codes, &mut recons);
        for (&off, code) in offs.iter().zip(codes) {
            self.codes[off] = code;
        }
        recons
    }
}

struct Decoder<'a, T> {
    q: LinearQuantizer,
    codes: &'a [u32],
    pool: &'a [T],
    /// Escapes in the rows before each row (their total equals `pool.len()`).
    row_start: Vec<usize>,
}

impl<T: ScalarValue> PointOp<T> for Decoder<'_, T> {
    fn row_cursor(&self, row: usize) -> usize {
        self.row_start[row]
    }

    #[inline(always)]
    fn point(&mut self, off: usize, pred: f64, cursor: &mut usize) -> T {
        let code = self.codes[off];
        if code == 0 {
            let value = self.pool[*cursor];
            *cursor += 1;
            value
        } else {
            self.q.recover(code, pred)
        }
    }

    #[inline(always)]
    fn step(&mut self, offs: [usize; LANES], preds: [f64; LANES], cursors: &mut [usize; LANES]) -> [T; LANES] {
        let codes = lanes(|r| self.codes[offs[r]]);
        let mut values = self.q.recover_lanes(codes, preds);
        if codes.contains(&0) {
            for r in (0..LANES).filter(|&r| codes[r] == 0) {
                values[r] = self.pool[cursors[r]];
                cursors[r] += 1;
            }
        }
        values
    }
}

/// 1-D: the prediction is the previous reconstruction, so the whole dataset
/// is one chain. `store` keeps the reconstruction where the caller wants one.
fn walk1<T: ScalarValue>(n: usize, op: &mut impl PointOp<T>, mut store: impl FnMut(usize, T)) {
    let mut cursor = op.row_cursor(0);
    let mut prev = 0.0f64;
    for off in 0..n {
        let value = op.point(off, prev, &mut cursor);
        store(off, value);
        prev = value.to_f64();
    }
}

fn walk2<T: ScalarValue>(n0: usize, n1: usize, recon: &mut [T], op: &mut impl PointOp<T>) {
    let mut i = 0;
    while i < n0 {
        if n0 - i >= LANES && n1 >= 2 * LANES {
            skew2(n1, i, recon, op);
            i += LANES;
        } else {
            row2(n1, i, 0..n1, op.row_cursor(i), recon, op);
            i += 1;
        }
    }
}

/// The neighbour above `(i, j)` as the prediction reads it.
#[inline(always)]
fn above2<T: ScalarValue>(recon: &[T], n1: usize, i: usize, j: usize) -> f64 {
    if i > 0 {
        recon[(i - 1) * n1 + j].to_f64()
    } else {
        0.0
    }
}

/// The west side of `(i, j)` — the previous point of the row and the one
/// above that; both out of domain, so zero, at the start of a row.
#[inline(always)]
fn west2<T: ScalarValue>(recon: &[T], n1: usize, i: usize, j: usize) -> (f64, f64) {
    match j {
        0 => (0.0, 0.0),
        j => (recon[i * n1 + j - 1].to_f64(), above2(recon, n1, i, j - 1)),
    }
}

/// Columns `cols` of row `i`, one after the other: whole rows the skew cannot
/// take, and the ramps of those it does. Returns the row's pool cursor.
fn row2<T: ScalarValue>(
    n1: usize,
    i: usize,
    cols: Range<usize>,
    mut cursor: usize,
    recon: &mut [T],
    op: &mut impl PointOp<T>,
) -> usize {
    let row = i * n1;
    let (mut left, mut diag) = west2(recon, n1, i, cols.start);
    for j in cols {
        let above = above2(recon, n1, i, j);
        let value = op.point(row + j, (above + left) - diag, &mut cursor);
        recon[row + j] = value;
        left = value.to_f64();
        diag = above;
    }
    cursor
}

/// A lane array, element `r` from `f(r)`.
#[inline(always)]
fn lanes<E>(f: impl FnMut(usize) -> E) -> [E; LANES] {
    std::array::from_fn(f)
}

/// Stores a step's reconstructions and returns them as the lanes carry them.
#[inline(always)]
fn scatter<T: ScalarValue>(recon: &mut [T], offs: [usize; LANES], values: [T; LANES]) -> [f64; LANES] {
    for (&off, &value) in offs.iter().zip(&values) {
        recon[off] = value;
    }
    lanes(|r| values[r].to_f64())
}

/// Rows `i0 .. i0 + LANES` at once (`n1 ≥ 2·LANES`).
fn skew2<T: ScalarValue>(n1: usize, i0: usize, recon: &mut [T], op: &mut impl PointOp<T>) {
    // Ramp-up: lane `r` takes its first `LANES − 1 − r` columns, which puts
    // every lane one column behind the lane above it.
    let mut cursors = [0usize; LANES];
    for (r, cursor) in cursors.iter_mut().enumerate() {
        *cursor = row2(n1, i0 + r, 0..LANES - 1 - r, op.row_cursor(i0 + r), recon, op);
    }
    // What each lane carries from step to step: its own west side.
    let mut left = [0.0f64; LANES];
    let mut diag = [0.0f64; LANES];
    for r in 0..LANES {
        (left[r], diag[r]) = west2(recon, n1, i0 + r, LANES - 1 - r);
    }
    // Lane `r`'s point of step `t` is at `base[r] + t`.
    let base: [usize; LANES] = lanes(|r| (i0 + r) * n1 - r);
    for t in LANES - 1..n1 {
        // Lane `r`'s `above` is what lane `r − 1` carried as `left` out of
        // the previous step: the point this step's lane `r` sits under.
        let above: [f64; LANES] = lanes(|r| if r == 0 { above2(recon, n1, i0, t) } else { left[r - 1] });
        let preds = lanes(|r| (above[r] + left[r]) - diag[r]);
        let offs = lanes(|r| base[r] + t);
        left = scatter(recon, offs, op.step(offs, preds, &mut cursors));
        diag = above;
    }
    // Ramp-down: lane `r` is `r` columns short of the end of its row.
    for (r, &cursor) in cursors.iter().enumerate().skip(1) {
        row2(n1, i0 + r, n1 - r..n1, cursor, recon, op);
    }
}

fn walk3<T: ScalarValue>(n0: usize, n1: usize, n2: usize, recon: &mut [T], op: &mut impl PointOp<T>) {
    for i in 0..n0 {
        let mut j = 0;
        while j < n1 {
            // The lanes are rows of one plane, with the plane above complete.
            if i > 0 && n1 - j >= LANES && n2 >= 2 * LANES {
                skew3(n1, n2, i, j, recon, op);
                j += LANES;
            } else {
                row3(n1, n2, i, j, 0..n2, op.row_cursor(i * n1 + j), recon, op);
                j += 1;
            }
        }
    }
}

/// The neighbours above, north and above-north of `(i, j, k)` as the
/// prediction reads them.
#[inline(always)]
fn behind3<T: ScalarValue>(recon: &[T], n1: usize, n2: usize, (i, j, k): (usize, usize, usize)) -> [f64; 3] {
    let (stride0, off) = (n1 * n2, (i * n1 + j) * n2 + k);
    let up = if i > 0 { recon[off - stride0].to_f64() } else { 0.0 };
    let north = if j > 0 { recon[off - n2].to_f64() } else { 0.0 };
    let up_north = if i > 0 && j > 0 { recon[off - stride0 - n2].to_f64() } else { 0.0 };
    [up, north, up_north]
}

/// The four west-side terms of the 3-D sum: the previous point of the row
/// and the neighbours above, north and above-north of it.
#[derive(Clone, Copy, Default)]
struct West {
    here: f64,
    behind: [f64; 3],
}

impl West {
    /// The quartet of the point before `(i, j, k)`; all out of domain, so
    /// zero, at the start of a row.
    #[inline(always)]
    fn of<T: ScalarValue>(recon: &[T], n1: usize, n2: usize, (i, j, k): (usize, usize, usize)) -> Self {
        match k {
            0 => West::default(),
            k => {
                West { here: recon[(i * n1 + j) * n2 + k - 1].to_f64(), behind: behind3(recon, n1, n2, (i, j, k - 1)) }
            }
        }
    }
}

/// The 3-D prediction from the terms above, north and above-north of a
/// point and the quartet west of it, term for term in the reference order.
#[inline(always)]
fn predict3(up: f64, north: f64, up_north: f64, here: f64, up_west: f64, north_west: f64, up_north_west: f64) -> f64 {
    up + north + here - up_north - up_west - north_west + up_north_west
}

/// Columns `cols` of row `j` of plane `i`, one after the other (see [`row2`]).
#[allow(clippy::too_many_arguments)]
fn row3<T: ScalarValue>(
    n1: usize,
    n2: usize,
    i: usize,
    j: usize,
    cols: Range<usize>,
    mut cursor: usize,
    recon: &mut [T],
    op: &mut impl PointOp<T>,
) -> usize {
    let row = (i * n1 + j) * n2;
    let mut west = West::of(recon, n1, n2, (i, j, cols.start));
    for k in cols {
        let behind @ [up, north, up_north] = behind3(recon, n1, n2, (i, j, k));
        let [up_west, north_west, up_north_west] = west.behind;
        let pred = predict3(up, north, up_north, west.here, up_west, north_west, up_north_west);
        let value = op.point(row + k, pred, &mut cursor);
        recon[row + k] = value;
        west = West { here: value.to_f64(), behind };
    }
    cursor
}

/// Rows `j0 .. j0 + LANES` of plane `i` at once (`i ≥ 1`, `n2 ≥ 2·LANES`):
/// [`skew2`] with the plane above as a second source.
fn skew3<T: ScalarValue>(n1: usize, n2: usize, i: usize, j0: usize, recon: &mut [T], op: &mut impl PointOp<T>) {
    let stride0 = n1 * n2;
    let mut cursors = [0usize; LANES];
    for (r, cursor) in cursors.iter_mut().enumerate() {
        *cursor = row3(n1, n2, i, j0 + r, 0..LANES - 1 - r, op.row_cursor(i * n1 + j0 + r), recon, op);
    }
    // Each lane's west quartet, one array per term.
    let (mut here, mut up_west, mut north_west, mut up_north_west) =
        ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
    for r in 0..LANES {
        let West { here: h, behind: [u, n, un] } = West::of(recon, n1, n2, (i, j0 + r, LANES - 1 - r));
        (here[r], up_west[r], north_west[r], up_north_west[r]) = (h, u, n, un);
    }
    let base: [usize; LANES] = lanes(|r| (i * n1 + j0 + r) * n2 - r);
    for t in LANES - 1..n2 {
        // As in `skew2`: the lane above still carries, as its west side,
        // this lane's north and above-north neighbours.
        let offs = lanes(|r| base[r] + t);
        let up = lanes(|r| recon[offs[r] - stride0].to_f64());
        let [_, north_0, up_north_0] = behind3(recon, n1, n2, (i, j0, t));
        let north: [f64; LANES] = lanes(|r| if r == 0 { north_0 } else { here[r - 1] });
        let up_north: [f64; LANES] = lanes(|r| if r == 0 { up_north_0 } else { up_west[r - 1] });
        let preds =
            lanes(|r| predict3(up[r], north[r], up_north[r], here[r], up_west[r], north_west[r], up_north_west[r]));
        here = scatter(recon, offs, op.step(offs, preds, &mut cursors));
        (up_west, north_west, up_north_west) = (up, north, up_north);
    }
    for (r, &cursor) in cursors.iter().enumerate().skip(1) {
        row3(n1, n2, i, j0 + r, n2 - r..n2, cursor, recon, op);
    }
}

#[cfg(test)]
const EMPTY: &[u32] = &[];

/// The pre-fusion scalar walks, kept verbatim as the bit-equality oracle for
/// the fused kernels (see the `fused_matches_scalar_*` proptests).
#[cfg(test)]
mod reference {
    use super::*;
    use crate::predict::UnpredictablePool;

    /// The code and pool streams of a walk: none when encoding.
    pub(super) trait StreamsArg<T> {
        fn codes(&self) -> &[u32];
        fn unpredictable(&self) -> &[T];
    }
    impl<T> StreamsArg<T> for &[u32] {
        fn codes(&self) -> &[u32] {
            self
        }
        fn unpredictable(&self) -> &[T] {
            &[]
        }
    }
    impl<T> StreamsArg<T> for StreamsView<'_, T> {
        fn codes(&self) -> &[u32] {
            self.codes
        }
        fn unpredictable(&self) -> &[T] {
            self.unpredictable
        }
    }

    pub(super) fn run<T: ScalarValue, const DECODE: bool>(
        dims: &[usize],
        input: Option<&[T]>,
        streams: impl StreamsArg<T>,
        q: &LinearQuantizer,
    ) -> (PredictionStreams<T>, Vec<T>, bool) {
        let n = dims[0];
        let mut out = PredictionStreams::with_capacity(n);
        let mut recon: Vec<T> = Vec::with_capacity(n);
        let mut pool = UnpredictablePool::new(streams.unpredictable());
        let codes = streams.codes();
        for i in 0..n {
            let pred = if i > 0 { recon[i - 1].to_f64() } else { 0.0 };
            if DECODE {
                let code = codes[i];
                let v = if code == 0 { pool.take().unwrap_or_else(T::zero) } else { q.recover(code, pred) };
                recon.push(v);
            } else {
                let quantized = q.quantize(input.expect("encode has input")[i], pred);
                if quantized.code == 0 {
                    out.unpredictable.push(quantized.reconstructed);
                }
                out.codes.push(quantized.code);
                recon.push(quantized.reconstructed);
            }
        }
        let consumed = pool.fully_consumed();
        (out, recon, consumed)
    }

    pub(super) fn run2<T: ScalarValue, const DECODE: bool>(
        dims: &[usize],
        input: Option<&[T]>,
        streams: impl StreamsArg<T>,
        q: &LinearQuantizer,
    ) -> (PredictionStreams<T>, Vec<T>, bool) {
        let (n0, n1) = (dims[0], dims[1]);
        let n = n0 * n1;
        let mut out = PredictionStreams::with_capacity(n);
        let mut recon: Vec<T> = vec![T::zero(); n];
        let mut pool = UnpredictablePool::new(streams.unpredictable());
        let codes = streams.codes();
        let at = |recon: &[T], i: isize, j: isize| -> f64 {
            if i < 0 || j < 0 {
                0.0
            } else {
                recon[i as usize * n1 + j as usize].to_f64()
            }
        };
        for i in 0..n0 {
            for j in 0..n1 {
                let (si, sj) = (i as isize, j as isize);
                let pred = at(&recon, si - 1, sj) + at(&recon, si, sj - 1) - at(&recon, si - 1, sj - 1);
                let off = i * n1 + j;
                if DECODE {
                    let code = codes[off];
                    recon[off] = if code == 0 { pool.take().unwrap_or_else(T::zero) } else { q.recover(code, pred) };
                } else {
                    let quantized = q.quantize(input.expect("encode has input")[off], pred);
                    if quantized.code == 0 {
                        out.unpredictable.push(quantized.reconstructed);
                    }
                    out.codes.push(quantized.code);
                    recon[off] = quantized.reconstructed;
                }
            }
        }
        let consumed = pool.fully_consumed();
        (out, recon, consumed)
    }

    pub(super) fn run3<T: ScalarValue, const DECODE: bool>(
        dims: &[usize],
        input: Option<&[T]>,
        streams: impl StreamsArg<T>,
        q: &LinearQuantizer,
    ) -> (PredictionStreams<T>, Vec<T>, bool) {
        let (n0, n1, n2) = (dims[0], dims[1], dims[2]);
        let n = n0 * n1 * n2;
        let mut out = PredictionStreams::with_capacity(n);
        let mut recon: Vec<T> = vec![T::zero(); n];
        let mut pool = UnpredictablePool::new(streams.unpredictable());
        let codes = streams.codes();
        let stride0 = n1 * n2;
        let at = |recon: &[T], i: isize, j: isize, k: isize| -> f64 {
            if i < 0 || j < 0 || k < 0 {
                0.0
            } else {
                recon[i as usize * stride0 + j as usize * n2 + k as usize].to_f64()
            }
        };
        for i in 0..n0 {
            for j in 0..n1 {
                for k in 0..n2 {
                    let (si, sj, sk) = (i as isize, j as isize, k as isize);
                    let pred = at(&recon, si - 1, sj, sk) + at(&recon, si, sj - 1, sk) + at(&recon, si, sj, sk - 1)
                        - at(&recon, si - 1, sj - 1, sk)
                        - at(&recon, si - 1, sj, sk - 1)
                        - at(&recon, si, sj - 1, sk - 1)
                        + at(&recon, si - 1, sj - 1, sk - 1);
                    let off = i * stride0 + j * n2 + k;
                    if DECODE {
                        let code = codes[off];
                        recon[off] =
                            if code == 0 { pool.take().unwrap_or_else(T::zero) } else { q.recover(code, pred) };
                    } else {
                        let quantized = q.quantize(input.expect("encode has input")[off], pred);
                        if quantized.code == 0 {
                            out.unpredictable.push(quantized.reconstructed);
                        }
                        out.codes.push(quantized.code);
                        recon[off] = quantized.reconstructed;
                    }
                }
            }
        }
        let consumed = pool.fully_consumed();
        (out, recon, consumed)
    }
}

/// Mean absolute Lorenzo prediction error over *raw* values (the "average
/// Lorenzo error" data-based feature from the paper §VI). Unlike
/// [`compress`], this predicts from raw neighbours, matching how the feature
/// is computed for quality prediction (cheap, no quantization).
pub fn mean_raw_error<T: ScalarValue>(data: &Dataset<T>) -> f64 {
    let dims = data.dims();
    let vals = data.values();
    let n = vals.len();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    match dims.len() {
        1 => {
            for i in 0..n {
                let pred = if i > 0 { vals[i - 1].to_f64() } else { 0.0 };
                total += (vals[i].to_f64() - pred).abs();
            }
        }
        2 => {
            let n1 = dims[1];
            let at = |i: isize, j: isize| -> f64 {
                if i < 0 || j < 0 {
                    0.0
                } else {
                    vals[i as usize * n1 + j as usize].to_f64()
                }
            };
            for i in 0..dims[0] as isize {
                for j in 0..n1 as isize {
                    let pred = at(i - 1, j) + at(i, j - 1) - at(i - 1, j - 1);
                    total += (at(i, j) - pred).abs();
                }
            }
        }
        _ => {
            // 3-D and higher: use the 3-D Lorenzo over the last three dims,
            // treating leading dims as batch.
            let d = dims.len();
            let (n0, n1, n2) = (dims[d - 3], dims[d - 2], dims[d - 1]);
            let batch: usize = dims[..d - 3].iter().product::<usize>().max(1);
            let stride0 = n1 * n2;
            let vol = n0 * stride0;
            for b in 0..batch {
                let base = b * vol;
                let at = |i: isize, j: isize, k: isize| -> f64 {
                    if i < 0 || j < 0 || k < 0 {
                        0.0
                    } else {
                        vals[base + i as usize * stride0 + j as usize * n2 + k as usize].to_f64()
                    }
                };
                for i in 0..n0 as isize {
                    for j in 0..n1 as isize {
                        for k in 0..n2 as isize {
                            let pred = at(i - 1, j, k) + at(i, j - 1, k) + at(i, j, k - 1)
                                - at(i - 1, j - 1, k)
                                - at(i - 1, j, k - 1)
                                - at(i, j - 1, k - 1)
                                + at(i - 1, j - 1, k - 1);
                            total += (at(i, j, k) - pred).abs();
                        }
                    }
                }
            }
        }
    }
    total / n as f64
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
            assert!((a - b).abs() as f64 <= eb * (1.0 + 1e-9), "a={a} b={b} eb={eb}");
        }
    }

    #[test]
    fn round_trip_1d() {
        check_round_trip(vec![1000], 1e-3, |i| (i[0] as f32 * 0.01).sin());
    }

    #[test]
    fn round_trip_2d() {
        check_round_trip(vec![40, 50], 1e-3, |i| (i[0] as f32 * 0.1).sin() * (i[1] as f32 * 0.07).cos());
    }

    #[test]
    fn round_trip_3d() {
        check_round_trip(vec![12, 13, 14], 1e-4, |i| {
            (i[0] as f32 * 0.2).sin() + (i[1] as f32 * 0.15).cos() + i[2] as f32 * 0.01
        });
    }

    #[test]
    fn smooth_data_yields_tight_codes() {
        // Integer-valued linear data is *exactly* Lorenzo-predictable in
        // floating point, so every code is the zero bin (no quantization
        // noise feeds back into the predictions).
        let data = Dataset::from_fn(vec![64, 64], |i| (i[0] + i[1]) as f32);
        let q = LinearQuantizer::new(0.25, 1 << 15);
        let streams = compress(data.view(), &q).unwrap();
        let zero_code = 1u32 << 15;
        let zeros = streams.codes.iter().filter(|&&c| c == zero_code).count();
        // Interior points are exactly predicted; only the first row/column
        // (predicted across the domain edge) may land in nonzero bins.
        assert!(zeros >= streams.codes.len() - 2 * 64, "zeros={zeros}");
        assert!(streams.unpredictable.is_empty());
    }

    #[test]
    fn rejects_4d() {
        let data = Dataset::<f32>::constant(vec![2, 2, 2, 2], 0.0).unwrap();
        let q = LinearQuantizer::new(1e-3, 512);
        assert!(compress(data.view(), &q).is_err());
    }

    #[test]
    fn code_length_mismatch_is_detected() {
        let q = LinearQuantizer::new(1e-3, 512);
        let streams = PredictionStreams::<f32> { codes: vec![512; 5], unpredictable: vec![], side_data: vec![] };
        assert!(decompress(&[10], streams.view(), &q).is_err());
    }

    #[test]
    fn pool_length_mismatch_is_detected() {
        let q = LinearQuantizer::new(1e-3, 512);
        // One spurious unpredictable value that no code references.
        let streams = PredictionStreams::<f32> { codes: vec![512; 4], unpredictable: vec![9.0], side_data: vec![] };
        assert!(decompress(&[4], streams.view(), &q).is_err());
    }

    #[test]
    fn mean_raw_error_zero_for_linear_2d() {
        // Perfect 2-D Lorenzo prediction everywhere except the first row and
        // column (predicted from zeros outside the domain).
        let data = Dataset::from_fn(vec![32, 32], |i| (i[0] as f32) + (i[1] as f32));
        let err = mean_raw_error(&data);
        // Interior is exactly predicted; boundary contributes a bounded mean.
        assert!(err < 2.5, "err={err}");
    }

    #[test]
    fn mean_raw_error_large_for_noise() {
        let mut state = 7u64;
        let data = Dataset::from_fn(vec![64, 64], |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 100.0
        });
        assert!(mean_raw_error(&data) > 10.0);
    }

    use crate::predict::testutil::{bits, bytes_of, fuzz_dataset};
    use proptest::prelude::*;

    /// The skewed walks against `mod reference`, bit for bit: codes and pool
    /// on encode; on decode the reconstruction, into a fresh buffer and into
    /// a slab whose prior contents must not matter.
    fn assert_matches_reference<T: ScalarValue>(data: &Dataset<T>, q: &LinearQuantizer) -> PredictionStreams<T> {
        let dims = data.dims();
        let context = format!("dims {dims:?} {} eb {} radius {}", T::TYPE_NAME, q.error_bound(), q.radius());
        let fused = compress(data.view(), q).unwrap();
        let (scalar, _, _) = match dims.len() {
            1 => reference::run::<T, false>(dims, Some(data.values()), EMPTY, q),
            2 => reference::run2::<T, false>(dims, Some(data.values()), EMPTY, q),
            _ => reference::run3::<T, false>(dims, Some(data.values()), EMPTY, q),
        };
        assert_eq!(fused.codes, scalar.codes, "{context}");
        assert_eq!(bytes_of(&fused.unpredictable), bytes_of(&scalar.unpredictable), "{context}");

        let (_, scalar_recon, consumed) = match dims.len() {
            1 => reference::run::<T, true>(dims, None, fused.view(), q),
            2 => reference::run2::<T, true>(dims, None, fused.view(), q),
            _ => reference::run3::<T, true>(dims, None, fused.view(), q),
        };
        assert!(consumed, "{context}");
        let fused_out = decompress(dims, fused.view(), q).unwrap();
        assert_eq!(bytes_of(fused_out.values()), bytes_of(&scalar_recon), "{context}");
        let mut slab = vec![T::from_f64(f64::NAN); data.len()];
        decompress_into(dims, fused.view(), q, &mut slab).unwrap();
        assert_eq!(bytes_of(&slab), bytes_of(&scalar_recon), "{context}: into a dirty slab");
        fused
    }

    #[test]
    fn fused_matches_scalar_lorenzo_on_skew_edge_shapes() {
        // Row counts with no group, exactly one, one and a serial row, and
        // two with three left over; widths that rule the skew out (below
        // 2·LANES), give it the fewest steps it can have, and a long row.
        // 3-D: the same for the rows of a plane, a single plane (all serial),
        // and rows too few (`n1 < LANES`) or too short (`n2 < 2·LANES`).
        const L: usize = LANES;
        let mut shapes = vec![vec![1], vec![2 * L + 3], vec![97]];
        for rows in [1, 2, L, L + 1, 2 * L + 3] {
            for width in [1, L - 1, 2 * L - 1, 2 * L, 97] {
                shapes.push(vec![rows, width]);
            }
        }
        shapes.extend([
            vec![3, 2 * L + 3, 2 * L],
            vec![2, L, 97],
            vec![2, L + 1, 2 * L + 1],
            vec![1, L + 1, 2 * L],
            vec![3, L - 1, 2 * L + 5],
            vec![3, 2 * L + 3, 2 * L - 1],
        ]);
        // Smooth at the full radius: no escapes. Rough at radius 4: about
        // every third point escapes, in ramps and skewed steps alike. Radius
        // 2 at a tight bound: nearly everything does.
        let regimes = [(0.01f32, 1e-3, 1u32 << 15), (3.0, 1e-1, 4), (40.0, 1e-2, 2)];
        for dims in &shapes {
            for (k, &(amp, eb, radius)) in regimes.iter().enumerate() {
                let data = fuzz_dataset(dims, 0x5eed ^ (dims.len() * 31 + k) as u64, amp);
                let q = LinearQuantizer::new(eb, radius);
                assert_matches_reference(&data, &q);
                let wide = Dataset::new(dims.clone(), data.values().iter().map(|&v| v as f64 * 1.000_000_1).collect())
                    .unwrap();
                assert_matches_reference(&wide, &q);
            }
        }
    }

    #[test]
    fn fused_matches_scalar_lorenzo_with_escapes_in_every_phase_of_the_skew() {
        const L: usize = LANES;
        let (rows, width) = (2 * L + 3, 97);
        let data = fuzz_dataset(&[rows, width], 0xe5ca9e, 3.0);
        let fused = assert_matches_reference(&data, &LinearQuantizer::new(1e-1, 4));
        // Rows L..2L form a group; its last lane has no ramp-up and its
        // first no ramp-down, so look at the lanes between.
        let escaped_in = |cols: std::ops::Range<usize>| {
            (L + 1..2 * L - 1).any(|i| fused.codes[i * width..][cols.clone()].contains(&0))
        };
        assert!(escaped_in(0..1), "ramp-up");
        assert!(escaped_in(L..width - L), "skewed steps");
        assert!(escaped_in(width - 1..width), "ramp-down");

        // Nothing predicts a NaN: every point escapes, and the whole field —
        // each point its own payload — travels through the per-row cursors.
        for dims in [vec![2 * L + 3, 3 * L], vec![3, 2 * L + 1, 2 * L + 2]] {
            let n: usize = dims.iter().product();
            let data = Dataset::new(dims, (0..n as u32).map(|k| f32::from_bits(0x7fc0_0000 + k)).collect()).unwrap();
            let fused = assert_matches_reference(&data, &LinearQuantizer::new(1e-3, 1 << 15));
            assert_eq!(bits(&fused.unpredictable), bits(data.values()));
        }
    }

    #[test]
    fn fused_matches_scalar_lorenzo_on_shapes_straddling_the_lanes() {
        // Rows one short of, at and one past the narrowest the lane steps
        // take (2·LANES), in row counts that leave serial rows after the
        // groups, and the same for the rows of 3-D planes; f32 and f64; at
        // radius 8 about two thirds of the points escape, in every lane.
        const L: usize = LANES;
        let mut shapes = Vec::new();
        for rows in [L - 1, L + 1, 2 * L + 3, 3 * L - 1] {
            for width in 2 * L - 1..=2 * L + 1 {
                shapes.push(vec![rows, width]);
            }
        }
        for width in 2 * L - 1..=2 * L + 1 {
            shapes.extend([vec![3, L + 1, width], vec![2, 2 * L + 3, width], vec![4, 3 * L - 1, width]]);
        }
        let q = LinearQuantizer::new(1e-1, 8);
        for (k, dims) in shapes.iter().enumerate() {
            let data = fuzz_dataset(dims, 0x1a2e5 ^ k as u64, 6.0);
            let fused = assert_matches_reference(&data, &q);
            let wide =
                Dataset::new(dims.clone(), data.values().iter().map(|&v| v as f64 * 1.000_000_1).collect()).unwrap();
            assert_matches_reference(&wide, &q);
            // Every lane of the first group escapes somewhere in its steps:
            // in 2-D the group is rows 0..L, in 3-D rows 0..L of plane 1.
            let (n1, first_row) = match dims[..] {
                [n0, n1] if n0 >= L && n1 >= 2 * L => (n1, 0),
                [_, rows, n2] if rows >= L && n2 >= 2 * L => (n2, rows),
                _ => continue,
            };
            for r in 0..L {
                let row = &fused.codes[(first_row + r) * n1..][..n1];
                assert!(row[L - 1 - r..n1 - r].contains(&0), "dims {dims:?}: lane {r} never escapes");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The fused kernels must be *bit-identical* to the scalar reference
        // on both sides: same codes, same unpredictable values, and the same
        // reconstruction (predictions feed back, so one differing bit
        // cascades and the comparison catches it).
        #[test]
        fn fused_matches_scalar_lorenzo(
            dims in prop::collection::vec(1usize..18, 1..4),
            seed in any::<u64>(),
            eb in prop_oneof![Just(1e-3f64), Just(1e-1), Just(1e-6)],
            radius in prop_oneof![Just(4u32), Just(512), Just(1u32 << 15)],
            amp in prop_oneof![Just(0.0f32), Just(0.01), Just(10.0)],
        ) {
            let data = fuzz_dataset(&dims, seed, amp);
            let q = LinearQuantizer::new(eb, radius);
            let fused = compress(data.view(), &q).unwrap();
            let (scalar, _, _) = match dims.len() {
                1 => reference::run::<f32, false>(&dims, Some(data.values()), EMPTY, &q),
                2 => reference::run2::<f32, false>(&dims, Some(data.values()), EMPTY, &q),
                _ => reference::run3::<f32, false>(&dims, Some(data.values()), EMPTY, &q),
            };
            prop_assert_eq!(&fused.codes, &scalar.codes);
            prop_assert_eq!(bits(&fused.unpredictable), bits(&scalar.unpredictable));

            let fused_out = decompress(&dims, fused.view(), &q).unwrap();
            let (_, scalar_recon, consumed) = match dims.len() {
                1 => reference::run::<f32, true>(&dims, None, fused.view(), &q),
                2 => reference::run2::<f32, true>(&dims, None, fused.view(), &q),
                _ => reference::run3::<f32, true>(&dims, None, fused.view(), &q),
            };
            prop_assert!(consumed);
            prop_assert_eq!(bits(fused_out.values()), bits(&scalar_recon));
        }
    }
}
