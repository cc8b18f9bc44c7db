//! SZ3-style multilevel spline-interpolation predictor.
//!
//! The dataset is refined level by level: starting from the single origin
//! point, each level halves the grid stride and predicts the new points by
//! 1-D interpolation along one dimension at a time, using already
//! reconstructed neighbours at the current stride (linear `(a+b)/2` or cubic
//! `(−a₃ + 9a₁ + 9b₁ − b₃)/16` basis). This is the algorithm behind SZ3's
//! default "SZ-interp" compressor [Zhao et al., ICDE 2021], which the paper
//! adopts for its highest compression ratios.
//!
//! The compressor and decompressor walk an identical deterministic schedule,
//! and predictions read only reconstructed values, guaranteeing parity.

use crate::error::SzError;
use crate::ndarray::{Dataset, DatasetView};
use crate::predict::{check_rank, check_streams, check_streams_into, PredictionStreams, StreamsView};
use crate::quantizer::LinearQuantizer;
use crate::value::ScalarValue;

/// Interpolation basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Two-point average.
    Linear,
    /// Four-point Catmull-Rom-style cubic; falls back to linear near edges.
    Cubic,
}

/// Compresses `data` with multilevel interpolation.
///
/// # Errors
/// Returns [`SzError::InvalidShape`] for datasets with more than 3 dims.
pub fn compress<T: ScalarValue>(
    data: DatasetView<'_, T>,
    quantizer: &LinearQuantizer,
    basis: Basis,
) -> Result<PredictionStreams<T>, SzError> {
    check_rank("interp", data.ndim())?;
    let n = data.len();
    let mut encoder = Encoder {
        q: quantizer,
        raw: data.values(),
        recon: vec![T::zero(); n],
        codes: vec![0u32; n],
        next: 0,
        unpredictable: Vec::new(),
        block: Block { values: [T::zero(); BLOCK], preds: [0.0; BLOCK], recons: [T::zero(); BLOCK] },
    };
    walk_schedule(data.dims(), basis, &mut encoder);
    debug_assert_eq!(encoder.next, n, "schedule visits every point once");
    Ok(PredictionStreams { codes: encoder.codes, unpredictable: encoder.unpredictable, side_data: Vec::new() })
}

/// Decompresses streams produced by [`compress`] with the same basis.
///
/// # Errors
/// Returns [`SzError::CorruptStream`] on inconsistent stream lengths, and
/// [`SzError::InvalidShape`] for unsupported ranks.
pub fn decompress<T: ScalarValue>(
    dims: &[usize],
    streams: StreamsView<'_, T>,
    quantizer: &LinearQuantizer,
    basis: Basis,
) -> Result<Dataset<T>, SzError> {
    // Sized by the codes actually present, never by the shape alone.
    let mut recon = vec![T::zero(); check_streams("interp", dims, streams.codes.len())?];
    decompress_into(dims, streams, quantizer, basis, &mut recon)?;
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
    basis: Basis,
    out: &mut [T],
) -> Result<(), SzError> {
    check_streams_into("interp", dims, streams.codes.len(), out.len())?;
    let mut decoder =
        Decoder { q: quantizer, codes: streams.codes, next: 0, recon: out, pool: streams.unpredictable, taken: 0 };
    walk_schedule(dims, basis, &mut decoder);
    // `taken` counts every escape met, so it overshoots a short pool.
    if decoder.taken != decoder.pool.len() {
        return Err(SzError::CorruptStream("interp: unpredictable pool length mismatch".into()));
    }
    Ok(())
}

// A pass never predicts a point from another point of the same pass: the
// neighbours it reads sit on the coarser grid, reconstructed by earlier
// passes. So a pass is handed to the kernels as *runs* — `count` points
// `off0, off0 + st, …` along the last dimension that share one interpolation
// mode — and a kernel is a tight loop over one run with the mode a const
// generic: no per-point mode test, no odometer, no closure. The schedule
// (pass order, and point order within a pass) is the reference walk's.

/// Right neighbour out of bounds: the prediction is the left neighbour.
const COPY: u8 = 0;
/// Two-point average.
const LINEAR: u8 = 1;
/// Four-point cubic.
const CUBIC: u8 = 2;

/// `count` points `off0 + k·st` predicted from the neighbours `near` (and,
/// for [`CUBIC`], `3·near`) elements to either side.
#[derive(Debug, Clone, Copy)]
struct Run {
    off0: usize,
    st: usize,
    count: usize,
    near: usize,
}

/// What the schedule drives: the encoder or the decoder.
trait RunKernel {
    /// The origin point, predicted as zero.
    fn origin(&mut self);
    /// One run of points sharing interpolation mode `MODE`.
    fn run<const MODE: u8>(&mut self, run: Run);
}

/// Neighbour values of one run, as `f64`. When the pass runs along the row
/// (`st == 2·near`) the window *slides*: a point's right neighbours are the
/// next point's left ones — none of them written by this pass — so they are
/// carried in registers and each point loads one new value instead of four.
struct Neighbours<const MODE: u8> {
    slide: bool,
    /// `[a3, a1, b1]` of the next point when sliding.
    carried: [f64; 3],
}

impl<const MODE: u8> Neighbours<MODE> {
    #[inline(always)]
    fn new<T: ScalarValue>(recon: &[T], run: Run) -> Self {
        let Run { off0, st, near, .. } = run;
        let slide = MODE != COPY && st == 2 * near;
        let mut carried = [0.0; 3];
        if slide {
            carried[1] = recon[off0 - near].to_f64();
            if MODE == CUBIC {
                carried[0] = recon[off0 - 3 * near].to_f64();
                carried[2] = recon[off0 + near].to_f64();
            }
        }
        Neighbours { slide, carried }
    }

    /// The prediction at `off`; points must be asked for in run order.
    #[inline(always)]
    fn predict<T: ScalarValue>(&mut self, recon: &[T], off: usize, near: usize) -> f64 {
        let at = |i: usize| recon[i].to_f64();
        match MODE {
            COPY => at(off - near),
            LINEAR => {
                let a1 = if self.slide { self.carried[1] } else { at(off - near) };
                let b1 = at(off + near);
                self.carried[1] = b1;
                0.5 * (a1 + b1)
            }
            _ => {
                let [a3, a1, b1] =
                    if self.slide { self.carried } else { [at(off - 3 * near), at(off - near), at(off + near)] };
                let b3 = at(off + 3 * near);
                self.carried = [a1, b1, b3];
                (-a3 + 9.0 * a1 + 9.0 * b1 - b3) / 16.0
            }
        }
    }
}

struct Encoder<'a, T> {
    q: &'a LinearQuantizer,
    raw: &'a [T],
    recon: Vec<T>,
    /// One slot per point, written by index in schedule order.
    codes: Vec<u32>,
    next: usize,
    unpredictable: Vec<T>,
    block: Block<T>,
}

/// Points an encode run quantizes at a time (of 16 – 256, 64 measured best).
const BLOCK: usize = 64;

/// One block's gathered values and predictions and its reconstructions,
/// set up once per chunk: most runs are a point or two long.
struct Block<T> {
    values: [T; BLOCK],
    preds: [f64; BLOCK],
    recons: [T; BLOCK],
}

impl<T: ScalarValue> RunKernel for Encoder<'_, T> {
    fn origin(&mut self) {
        let quantized = self.q.quantize(self.raw[0], 0.0);
        if quantized.code == 0 {
            self.unpredictable.push(quantized.reconstructed);
        }
        self.codes[0] = quantized.code;
        self.recon[0] = quantized.reconstructed;
        self.next = 1;
    }

    /// A run in blocks of [`BLOCK`] points: gather the block's values and
    /// predictions, quantize it over local arrays, scatter the
    /// reconstructions. No point of a pass reads another, so the reordering
    /// changes no byte. Kept local and with the quantizer by value, the
    /// quantize loop holds its constants in registers and compiles to
    /// packed arithmetic — multiplying by the bin width's reciprocal, and
    /// dividing only in a block where that was not sure to agree.
    #[inline]
    fn run<const MODE: u8>(&mut self, run: Run) {
        let Run { off0, st, count, near } = run;
        let codes = &mut self.codes[self.next..self.next + count];
        self.next += count;
        let recon = self.recon.as_mut_slice();
        let q = self.q.clone();
        let mut neighbours = Neighbours::<MODE>::new(recon, run);
        let Block { values, preds, recons } = &mut self.block;
        let mut escaped = false;
        let mut off = off0;
        for block in codes.chunks_mut(BLOCK) {
            let (values, preds, recons) =
                (&mut values[..block.len()], &mut preds[..block.len()], &mut recons[..block.len()]);
            let block_off = off;
            for ((value, pred), &raw) in values.iter_mut().zip(preds.iter_mut()).zip(self.raw[off..].iter().step_by(st))
            {
                *pred = neighbours.predict(recon, off, near);
                *value = raw;
                off += st;
            }
            q.quantize_block(values, preds, block, recons);
            escaped |= block.contains(&0);
            for (slot, &r) in recon[block_off..].iter_mut().step_by(st).zip(&*recons) {
                *slot = r;
            }
        }
        // An escape's reconstruction is its exact value, and nothing in the
        // run read it, so the pool can be filled after the loop, in order.
        if escaped {
            for (k, _) in codes.iter().enumerate().filter(|&(_, &code)| code == 0) {
                self.unpredictable.push(recon[off0 + k * st]);
            }
        }
    }
}

struct Decoder<'a, T> {
    q: &'a LinearQuantizer,
    codes: &'a [u32],
    next: usize,
    recon: &'a mut [T],
    pool: &'a [T],
    /// Escapes met so far (runs past `pool.len()` on a short pool).
    taken: usize,
}

impl<T: ScalarValue> Decoder<'_, T> {
    /// The next verbatim value; zero once a (corrupt) pool has run dry.
    fn take(&mut self) -> T {
        let v = self.pool.get(self.taken).copied().unwrap_or_else(T::zero);
        self.taken += 1;
        v
    }
}

impl<T: ScalarValue> RunKernel for Decoder<'_, T> {
    fn origin(&mut self) {
        let code = self.codes[0];
        self.recon[0] = if code == 0 { self.take() } else { self.q.recover(code, 0.0) };
        self.next = 1;
    }

    #[inline]
    fn run<const MODE: u8>(&mut self, run: Run) {
        let Run { off0, st, count, near } = run;
        let codes = self.codes; // a copy of the `&[u32]`, so `self` stays free
        let codes = &codes[self.next..self.next + count];
        self.next += count;
        let mut neighbours = Neighbours::<MODE>::new(self.recon, run);
        let mut escaped = false;
        let mut off = off0;
        for &code in codes {
            // Always asked, escape or not: the window has to keep sliding.
            let pred = neighbours.predict(self.recon, off, near);
            if code == 0 {
                escaped = true;
            } else {
                self.recon[off] = self.q.recover(code, pred);
            }
            off += st;
        }
        // No point of the run reads another, so the escapes can be filled in
        // afterwards, in schedule order.
        if escaped {
            for (k, _) in codes.iter().enumerate().filter(|&(_, &code)| code == 0) {
                self.recon[off0 + k * st] = self.take();
            }
        }
    }
}

#[inline]
fn dispatch<K: RunKernel>(kernel: &mut K, mode: u8, run: Run) {
    match mode {
        _ if run.count == 0 => {}
        COPY => kernel.run::<COPY>(run),
        LINEAR => kernel.run::<LINEAR>(run),
        _ => kernel.run::<CUBIC>(run),
    }
}

/// Interpolation mode of a point at coordinate `c` (an odd multiple of `s`)
/// of a pass along a dimension of length `n`.
fn mode_at(c: usize, n: usize, s: usize, basis: Basis) -> u8 {
    if c + s >= n {
        COPY
    } else if basis == Basis::Cubic && c >= 3 * s && c + 3 * s < n {
        CUBIC
    } else {
        LINEAR
    }
}

/// Number of `j ≥ 0` with `first + 2s·j < n`.
fn grid_count(n: usize, first: usize, s: usize) -> usize {
    if n > first {
        (n - first).div_ceil(2 * s)
    } else {
        0
    }
}

/// Drives the shared compress/decompress traversal: the origin, then every
/// pass of every level, coarsest first.
fn walk_schedule<K: RunKernel>(dims: &[usize], basis: Basis, kernel: &mut K) {
    let ndim = dims.len();
    // Left-pad the shape to rank 3; a padded dim only ever has coordinate 0.
    let mut dims3 = [1usize; 3];
    dims3[3 - ndim..].copy_from_slice(dims);
    let elem_stride = [dims3[1] * dims3[2], dims3[2], 1];
    let max_dim = dims.iter().copied().max().expect("validated nonempty");
    // Smallest power of two covering the largest dimension.
    let mut top_stride = 1usize;
    while top_stride < max_dim {
        top_stride *= 2;
    }

    kernel.origin();

    let mut s = top_stride;
    while s >= 1 {
        if s < max_dim {
            for pass_dim in 3 - ndim..3 {
                walk_pass(&dims3, &elem_stride, s, pass_dim, basis, kernel);
            }
        }
        if s == 1 {
            break;
        }
        s /= 2;
    }
}

/// One interpolation pass: fills points whose `pass_dim` coordinate is an odd
/// multiple of `s`, with earlier dims on the `s` grid and later dims on the
/// `2s` grid — row by row, each row as runs along the last dimension.
fn walk_pass<K: RunKernel>(
    dims: &[usize; 3],
    elem_stride: &[usize; 3],
    s: usize,
    pass_dim: usize,
    basis: Basis,
    kernel: &mut K,
) {
    let n = dims[pass_dim];
    if s >= n {
        return;
    }
    let st = 2 * s;
    let near = s * elem_stride[pass_dim];
    let start = |d: usize| if d == pass_dim { s } else { 0 };
    let step = |d: usize| if d < pass_dim { s } else { st };
    let rows = (start(0)..dims[0])
        .step_by(step(0))
        .flat_map(|c0| (start(1)..dims[1]).step_by(step(1)).map(move |c1| (c0, c1)));
    if pass_dim == 2 {
        // The pass runs along the row: point `j` sits at `(2j + 1)·s`. It has
        // a right neighbour while `(2j + 2)·s < n` and both far neighbours
        // while also `j ≥ 1` and `(2j + 4)·s < n`, which splits every row
        // into a linear head, a cubic interior, a linear tail and at most one
        // copied point.
        let total = grid_count(n, s, s);
        let interp = grid_count(n, 2 * s, s);
        let (head, cubic_end) = match basis {
            Basis::Linear => (interp, interp),
            Basis::Cubic => (interp.min(1), grid_count(n, 4 * s, s).max(interp.min(1))),
        };
        let segments =
            [(LINEAR, 0, head), (CUBIC, head, cubic_end), (LINEAR, cubic_end, interp), (COPY, interp, total)];
        for (c0, c1) in rows {
            let row = c0 * elem_stride[0] + c1 * elem_stride[1];
            for &(mode, j0, j1) in &segments {
                dispatch(kernel, mode, Run { off0: row + (2 * j0 + 1) * s, st, count: j1 - j0, near });
            }
        }
    } else {
        // The pass runs across rows: one mode per row, points on the `2s`
        // grid of the last dimension.
        let count = grid_count(dims[2], 0, s);
        for (c0, c1) in rows {
            let c = if pass_dim == 0 { c0 } else { c1 };
            let off0 = c0 * elem_stride[0] + c1 * elem_stride[1];
            dispatch(kernel, mode_at(c, n, s, basis), Run { off0, st, count, near });
        }
    }
}

/// The point-at-a-time pass walk (per-point offset recompute, visitor
/// closure), kept verbatim as the bit-equality oracle for the run kernels.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn walk_schedule<T: ScalarValue>(
        dims: &[usize],
        basis: Basis,
        mut visit: impl FnMut(usize, f64, &mut [T]),
        recon: &mut [T],
    ) {
        let ndim = dims.len();
        let max_dim = dims.iter().copied().max().expect("validated nonempty");
        let mut top_stride = 1usize;
        while top_stride < max_dim {
            top_stride *= 2;
        }
        let mut elem_stride = vec![1usize; ndim];
        for d in (0..ndim.saturating_sub(1)).rev() {
            elem_stride[d] = elem_stride[d + 1] * dims[d + 1];
        }
        visit(0, 0.0, recon);
        let mut s = top_stride;
        while s >= 1 {
            if s < max_dim {
                for pass_dim in 0..ndim {
                    walk_pass(dims, &elem_stride, s, pass_dim, basis, &mut visit, recon);
                }
            }
            if s == 1 {
                break;
            }
            s /= 2;
        }
    }

    fn walk_pass<T: ScalarValue>(
        dims: &[usize],
        elem_stride: &[usize],
        s: usize,
        pass_dim: usize,
        basis: Basis,
        visit: &mut impl FnMut(usize, f64, &mut [T]),
        recon: &mut [T],
    ) {
        let ndim = dims.len();
        let step = |d: usize| -> usize {
            if d == pass_dim {
                2 * s
            } else if d < pass_dim {
                s
            } else {
                2 * s
            }
        };
        let start = |d: usize| -> usize {
            if d == pass_dim {
                s
            } else {
                0
            }
        };
        let mut coord: Vec<usize> = (0..ndim).map(start).collect();
        if coord.iter().zip(dims).any(|(&c, &n)| c >= n) {
            return;
        }
        let dim_len = dims[pass_dim];
        let estride = elem_stride[pass_dim];
        loop {
            let off: usize = coord.iter().zip(elem_stride).map(|(&c, &es)| c * es).sum();
            let c = coord[pass_dim];
            let a1 = recon[off - s * estride].to_f64();
            let pred = if c + s < dim_len {
                let b1 = recon[off + s * estride].to_f64();
                match basis {
                    Basis::Linear => 0.5 * (a1 + b1),
                    Basis::Cubic => {
                        if c >= 3 * s && c + 3 * s < dim_len {
                            let a3 = recon[off - 3 * s * estride].to_f64();
                            let b3 = recon[off + 3 * s * estride].to_f64();
                            (-a3 + 9.0 * a1 + 9.0 * b1 - b3) / 16.0
                        } else {
                            0.5 * (a1 + b1)
                        }
                    }
                }
            } else {
                a1
            };
            visit(off, pred, recon);
            let mut d = ndim;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                coord[d] += step(d);
                if coord[d] < dims[d] {
                    break;
                }
                coord[d] = start(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_round_trip(dims: Vec<usize>, eb: f64, basis: Basis, gen: impl FnMut(&[usize]) -> f32) {
        let data = Dataset::from_fn(dims.clone(), gen);
        let q = LinearQuantizer::new(eb, 1 << 15);
        let streams = compress(data.view(), &q, basis).unwrap();
        assert_eq!(streams.codes.len(), data.len(), "schedule must visit every point once");
        let out = decompress(&dims, streams.view(), &q, basis).unwrap();
        for (a, b) in data.values().iter().zip(out.values()) {
            assert!((a - b).abs() as f64 <= eb * (1.0 + 1e-9), "a={a} b={b} eb={eb}");
        }
    }

    #[test]
    fn round_trip_1d_linear() {
        check_round_trip(vec![777], 1e-3, Basis::Linear, |i| (i[0] as f32 * 0.013).sin());
    }

    #[test]
    fn round_trip_1d_cubic() {
        check_round_trip(vec![1024], 1e-4, Basis::Cubic, |i| (i[0] as f32 * 0.013).sin());
    }

    #[test]
    fn round_trip_2d_cubic_non_pow2() {
        check_round_trip(vec![37, 53], 1e-3, Basis::Cubic, |i| {
            ((i[0] as f32) * 0.21).sin() * ((i[1] as f32) * 0.17).cos()
        });
    }

    #[test]
    fn round_trip_3d_both_bases() {
        for basis in [Basis::Linear, Basis::Cubic] {
            check_round_trip(vec![17, 23, 9], 1e-3, basis, |i| {
                (i[0] as f32 * 0.3).sin() + (i[1] as f32 * 0.2).cos() * (i[2] as f32 * 0.4).sin()
            });
        }
    }

    #[test]
    fn round_trip_degenerate_dims() {
        check_round_trip(vec![1], 1e-3, Basis::Cubic, |_| 5.0);
        check_round_trip(vec![1, 64], 1e-3, Basis::Cubic, |i| i[1] as f32 * 0.5);
        check_round_trip(vec![2, 2, 2], 1e-3, Basis::Linear, |i| (i[0] + i[1] + i[2]) as f32);
    }

    #[test]
    fn smooth_data_beats_lorenzo_on_ratio_proxy() {
        // On a smooth field at a moderate error bound, interpolation should
        // produce a tighter code distribution (more zero-bins) than Lorenzo.
        let data =
            Dataset::from_fn(vec![64, 64], |i| ((i[0] as f32) * 0.05).sin() * ((i[1] as f32) * 0.08).cos() * 50.0);
        let q = LinearQuantizer::new(0.05, 1 << 15);
        let zero = 1u32 << 15;
        let interp = compress(data.view(), &q, Basis::Cubic).unwrap();
        let lorenzo = crate::predict::lorenzo::compress(data.view(), &q).unwrap();
        let zc = |codes: &[u32]| codes.iter().filter(|&&c| c == zero).count();
        assert!(zc(&interp.codes) >= zc(&lorenzo.codes));
    }

    #[test]
    fn rejects_rank_4() {
        let data = Dataset::<f32>::constant(vec![2, 2, 2, 2], 1.0).unwrap();
        let q = LinearQuantizer::new(1e-3, 512);
        assert!(compress(data.view(), &q, Basis::Cubic).is_err());
    }

    #[test]
    fn corrupt_code_count_detected() {
        let q = LinearQuantizer::new(1e-3, 512);
        let streams = PredictionStreams::<f32> { codes: vec![512; 3], unpredictable: vec![], side_data: vec![] };
        assert!(decompress(&[8], streams.view(), &q, Basis::Linear).is_err());
    }

    #[test]
    fn pool_mismatch_detected() {
        let data = Dataset::from_fn(vec![16], |i| i[0] as f32);
        let q = LinearQuantizer::new(1e-3, 1 << 15);
        let mut streams = compress(data.view(), &q, Basis::Linear).unwrap();
        streams.unpredictable.push(42.0);
        assert!(decompress(&[16], streams.view(), &q, Basis::Linear).is_err());
    }

    use crate::predict::testutil::{bytes_of, fuzz_dataset};
    use crate::predict::UnpredictablePool;
    use proptest::prelude::*;

    /// The run kernels must visit the same points in the same order with the
    /// same predictions as the reference walk: codes, escape pool and
    /// reconstruction equal bit for bit, encode and decode. Returns how many
    /// points the quantizer's reciprocal path was unsure of — points whose
    /// block the encoder quantized again by division.
    fn assert_matches_reference<T: ScalarValue>(data: &Dataset<T>, q: &LinearQuantizer, basis: Basis) -> usize {
        let dims = data.dims();
        let context = format!("dims {dims:?} {basis:?} eb {} radius {}", q.error_bound(), q.radius());
        let fused = compress(data.view(), q, basis).unwrap();

        let n = data.len();
        let raw = data.values();
        let mut scalar = PredictionStreams::<T>::with_capacity(n);
        let mut recon_ref = vec![T::zero(); n];
        let mut unsure = 0;
        reference::walk_schedule(
            dims,
            basis,
            |off, pred, recon_buf: &mut [T]| {
                unsure += !q.quantize_by_reciprocal(raw[off], pred).1 as usize;
                let quantized = q.quantize(raw[off], pred);
                if quantized.code == 0 {
                    scalar.unpredictable.push(quantized.reconstructed);
                }
                scalar.codes.push(quantized.code);
                recon_buf[off] = quantized.reconstructed;
            },
            &mut recon_ref,
        );
        assert_eq!(fused.codes, scalar.codes, "{context}");
        assert_eq!(bytes_of(&fused.unpredictable), bytes_of(&scalar.unpredictable), "{context}");

        let fused_out = decompress(dims, fused.view(), q, basis).unwrap();
        let mut pool = UnpredictablePool::new(fused.unpredictable.as_slice());
        let mut next = 0usize;
        let mut recon_dec = vec![T::zero(); n];
        reference::walk_schedule(
            dims,
            basis,
            |off, pred, recon_buf: &mut [T]| {
                let code = fused.codes[next];
                next += 1;
                recon_buf[off] = if code == 0 {
                    pool.take().expect("pool length verified by encode")
                } else {
                    q.recover(code, pred)
                };
            },
            &mut recon_dec,
        );
        assert_eq!(bytes_of(fused_out.values()), bytes_of(&recon_dec), "{context}");
        assert_eq!(bytes_of(fused_out.values()), bytes_of(&recon_ref), "{context}: decode differs from encode");
        unsure
    }

    #[test]
    fn fused_matches_scalar_on_run_split_edge_shapes() {
        // Every last-dimension length up to 9 plus powers of two and their
        // neighbours: rows with no head (n = 1, 2), no cubic interior
        // (n <= 4 at s = 1, and again at every coarser level), no tail, with
        // and without a copied last point — alone (rank 1) and under one or
        // two outer dimensions that are themselves 1, tiny, or non-powers.
        // From 127 on, runs meet the encoder's 64-point blocks: across rows
        // 127 and 128 fill exactly one, 129 and 257 fill one or two and leave
        // a one-point block, and along the row 257's cubic run takes two.
        let lasts = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, 127, 128, 129, 257];
        let outers: [&[usize]; 8] = [&[], &[1], &[2], &[5], &[1, 1], &[3, 4], &[4, 1], &[9, 2]];
        let mut unsure = 0;
        for &n_last in &lasts {
            for outer in outers {
                let mut dims = outer.to_vec();
                dims.push(n_last);
                for basis in [Basis::Linear, Basis::Cubic] {
                    // Smooth + radius 2^15: no escapes. Rough + radius 2:
                    // most points escape, several per run.
                    for (amp, eb, radius) in [(0.01f32, 1e-3, 1u32 << 15), (40.0, 1e-2, 2), (3.0, 1e-1, 4)] {
                        let data = fuzz_dataset(&dims, 0xfeed ^ n_last as u64, amp);
                        let q = LinearQuantizer::new(eb, radius);
                        assert_matches_reference(&data, &q, basis);
                        let wide =
                            Dataset::new(dims.clone(), data.values().iter().map(|&v| v as f64 * 1.000_000_1).collect())
                                .unwrap();
                        assert_matches_reference(&wide, &q, basis);
                    }
                    // Whole numbers at a bin width of 1: an average of two
                    // of them is a half-integer away from its neighbours, an
                    // exact tie, so blocks meet the division fallback.
                    let whole = fuzz_dataset(&dims, 0xbeef ^ n_last as u64, 40.0);
                    let whole = Dataset::new(dims.clone(), whole.values().iter().map(|v| v.round()).collect()).unwrap();
                    unsure += assert_matches_reference(&whole, &LinearQuantizer::new(0.5, 1 << 15), basis);
                }
            }
        }
        assert!(unsure > 0, "no block took the division fallback");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fused_matches_scalar(
            dims in prop::collection::vec(1usize..18, 1..4),
            seed in any::<u64>(),
            basis in prop_oneof![Just(Basis::Linear), Just(Basis::Cubic)],
            eb in prop_oneof![Just(1e-3f64), Just(1e-1), Just(1e-6)],
            radius in prop_oneof![Just(4u32), Just(512), Just(1u32 << 15)],
            amp in prop_oneof![Just(0.0f32), Just(0.01), Just(10.0)],
        ) {
            let data = fuzz_dataset(&dims, seed, amp);
            assert_matches_reference(&data, &LinearQuantizer::new(eb, radius), basis);
        }
    }
}
