//! Linear-scale quantizer with error-bound guarantee.
//!
//! The SZ model quantizes the *prediction error* `d = value − predicted` into
//! integer bins of width `2·eb`: `bin = round(d / (2·eb))`. The reconstructed
//! value `predicted + bin·2·eb` is then within `eb` of the original. Bins are
//! shifted by the quantizer radius into non-negative codes for entropy
//! coding; code `0` is reserved for *unpredictable* values, which are stored
//! verbatim in a side channel.

use crate::value::ScalarValue;

/// Outcome of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantized<T> {
    /// Entropy-coder symbol: `0` = unpredictable, otherwise `radius + bin`.
    pub code: u32,
    /// The value the decompressor will reconstruct (bit-exact parity).
    pub reconstructed: T,
}

/// Linear-scale quantizer (see module docs).
#[derive(Debug, Clone)]
pub struct LinearQuantizer {
    eb: f64,
    two_eb: f64,
    radius: u32,
    /// `radius + 2⁵²` (exact): adding a bin inside the radius leaves the
    /// code `radius + bin` in the low mantissa bits of the sum.
    code_bias: f64,
    /// `radius − 0.5`: a scaled difference rounds to a bin inside the radius
    /// iff its magnitude is strictly below this.
    bin_limit: f64,
    /// `1 / (2·eb)` where that is a normal `f64` (so off by at most half an
    /// ulp), NaN otherwise: what [`LinearQuantizer::quantize_by_reciprocal`]
    /// multiplies by.
    inv_two_eb: f64,
}

/// 2⁵²: adding it to a non-negative `f64` below it leaves no fraction bits,
/// so the add rounds to an integer (ties to even) and the subtract is exact.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// 2⁻⁵⁰: how far, relative to its magnitude, a quotient taken by the
/// reciprocal may lie from the one taken by division, with a factor of two
/// to spare over the three roundings of half an ulp between them (the
/// reciprocal's, the product's and the division's).
const RECIPROCAL_SLACK: f64 = 1.0 / (1u64 << 50) as f64;

impl LinearQuantizer {
    /// Creates a quantizer for an absolute error bound and code radius.
    ///
    /// # Panics
    /// Panics if `eb` is not positive/finite or `radius < 2` (configurations
    /// are validated before reaching this layer; this is a defensive check).
    pub fn new(eb: f64, radius: u32) -> Self {
        assert!(eb.is_finite() && eb > 0.0, "error bound must be positive, got {eb}");
        assert!(radius >= 2, "radius must be >= 2, got {radius}");
        let (radius_f, two_eb) = (radius as f64, 2.0 * eb);
        let inv_two_eb = Some(1.0 / two_eb).filter(|inv| inv.is_normal()).unwrap_or(f64::NAN);
        LinearQuantizer { eb, two_eb, radius, code_bias: radius_f + TWO_52, bin_limit: radius_f - 0.5, inv_two_eb }
    }

    /// The absolute error bound.
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    /// The code radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Quantizes `value` against `predicted`.
    ///
    /// If the bin fits within the radius **and** the reconstruction really is
    /// within the bound (guarding against floating-point edge cases at huge
    /// magnitudes), returns the code and the reconstruction; otherwise marks
    /// the value unpredictable (`code == 0`, reconstruction == exact value).
    ///
    /// Straight-line code — selects, no early return, no libm call — so a
    /// loop of independent points around it is bound by arithmetic
    /// throughput, and a recurrence (one Lorenzo row) by this chain alone:
    ///
    /// * `|bin| = round(|q|)`, half away from zero, is `(|q| + 2⁵²) − 2⁵²`
    ///   (the nearest integer, ties to even) lifted by one where `|q|` sat
    ///   exactly half above it. `|q| − nearest` is exact, so the tie test is
    ///   too. For `|q| ≥ 2⁵²` the identity breaks, but such a `q` fails the
    ///   range test.
    /// * The sign of `q` goes onto the bin width instead of the bin, which
    ///   keeps it off the path from `predicted` to the reconstruction:
    ///   `(−b)·w` and `b·(−w)` are the same double, a negative zero included
    ///   (which matters: `−0.0 + −0.0` is `−0.0`, `−0.0 + 0.0` is `+0.0`).
    /// * `|bin| < radius` is `|q| < radius − 0.5`; NaN and ±∞ fail it.
    /// * `radius + bin` is an integer in `(0, 2³³)`, so in `radius + 2⁵² +
    ///   bin` it sits, exactly, in the low mantissa bits.
    #[inline]
    pub fn quantize<T: ScalarValue>(&self, value: T, predicted: f64) -> Quantized<T> {
        let v = value.to_f64();
        let q = (v - predicted) / self.two_eb;
        let mag = q.abs();
        let nearest = (mag + TWO_52) - TWO_52;
        let bin_mag = if mag - nearest == 0.5 { nearest + 1.0 } else { nearest };
        let recon_t = T::from_f64(predicted + bin_mag * self.two_eb.copysign(q));
        let ok = (mag < self.bin_limit) & ((recon_t.to_f64() - v).abs() <= self.eb);
        let code = (self.code_bias + bin_mag.copysign(q)).to_bits() as u32;
        Quantized { code: if ok { code } else { 0 }, reconstructed: if ok { recon_t } else { value } }
    }

    /// [`LinearQuantizer::quantize`] with the division by the bin width
    /// replaced by a multiplication by its reciprocal, and whether the
    /// outcome is sure to be [`LinearQuantizer::quantize`]'s. Where it is not,
    /// the caller quantizes again by division; for smooth data that is a
    /// point in many thousands.
    ///
    /// The quotient matters only through its sign, which the two ways
    /// share, and through the integer it rounds to and which side of
    /// `radius − 0.5` it falls — decisions that change only at half-integers.
    /// The two quotients differ by less than [`RECIPROCAL_SLACK`] times the
    /// magnitude of this one; where it lies farther than that from every
    /// half-integer, both fall between the same two, so they round to the
    /// same integer (not a tie) on the same side of the radius, and
    /// everything downstream is computed from that integer and the sign
    /// alone. NaN, ±∞, magnitudes from 2⁴⁹ up and a reciprocal that is not a
    /// normal number are never sure.
    #[inline]
    pub(crate) fn quantize_by_reciprocal<T: ScalarValue>(&self, value: T, predicted: f64) -> (Quantized<T>, bool) {
        let v = value.to_f64();
        let q = (v - predicted) * self.inv_two_eb;
        let mag = q.abs();
        let nearest = (mag + TWO_52) - TWO_52;
        let sure = 0.5 - (mag - nearest).abs() > mag * RECIPROCAL_SLACK;
        let recon_t = T::from_f64(predicted + nearest * self.two_eb.copysign(q));
        let ok = (mag < self.bin_limit) & ((recon_t.to_f64() - v).abs() <= self.eb);
        let code = (self.code_bias + nearest.copysign(q)).to_bits() as u32;
        (Quantized { code: if ok { code } else { 0 }, reconstructed: if ok { recon_t } else { value } }, sure)
    }

    /// [`LinearQuantizer::quantize`] over independent points at once, into
    /// `codes` and `recons`: every point by reciprocal, then, where one of
    /// them was not sure, every point again by division. Each outcome is
    /// [`LinearQuantizer::quantize`]'s, bit for bit. Straight-line over the
    /// slices, so the points compile to packed arithmetic.
    #[inline(always)]
    pub(crate) fn quantize_block<T: ScalarValue>(
        &self,
        values: &[T],
        preds: &[f64],
        codes: &mut [u32],
        recons: &mut [T],
    ) {
        let mut all_sure = true;
        for (((code, recon), &value), &pred) in codes.iter_mut().zip(recons.iter_mut()).zip(values).zip(preds) {
            let (quantized, sure) = self.quantize_by_reciprocal(value, pred);
            (*code, *recon) = (quantized.code, quantized.reconstructed);
            all_sure &= sure;
        }
        if !all_sure {
            for (((code, recon), &value), &pred) in codes.iter_mut().zip(recons.iter_mut()).zip(values).zip(preds) {
                let quantized = self.quantize(value, pred);
                (*code, *recon) = (quantized.code, quantized.reconstructed);
            }
        }
    }

    /// [`LinearQuantizer::recover`] over `L` lanes at once. A lane whose
    /// code is `0` gets a meaningless value, for the caller to replace with
    /// its escape.
    #[inline(always)]
    pub(crate) fn recover_lanes<T: ScalarValue, const L: usize>(&self, codes: [u32; L], preds: [f64; L]) -> [T; L] {
        // `code − radius` is an integer below 2³³ in magnitude, so taking
        // it in `f64` gives exactly `recover`'s bin.
        let radius = self.radius as f64;
        std::array::from_fn(|r| T::from_f64(preds[r] + (codes[r] as f64 - radius) * self.two_eb))
    }

    /// Recovers a value from a nonzero code and the prediction.
    ///
    /// # Panics
    /// Panics in debug builds if `code == 0` (unpredictable values are
    /// recovered from the side channel, not through this method).
    #[inline]
    pub fn recover<T: ScalarValue>(&self, code: u32, predicted: f64) -> T {
        debug_assert!(code != 0, "code 0 is the unpredictable marker");
        let bin = code as i64 - self.radius as i64;
        T::from_f64(predicted + bin as f64 * self.two_eb)
    }

    /// Number of distinct entropy-coder symbols (`2·radius`), including the
    /// unpredictable marker.
    pub fn symbol_count(&self) -> usize {
        (self.radius as usize) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branchy `round()`-based body `quantize` replaced, kept verbatim as
    /// its bit-equality oracle.
    fn quantize_oracle<T: ScalarValue>(q: &LinearQuantizer, value: T, predicted: f64) -> Quantized<T> {
        let v = value.to_f64();
        let diff = v - predicted;
        let bin = (diff / q.two_eb).round();
        if bin.abs() < q.radius as f64 {
            let recon = predicted + bin * q.two_eb;
            let recon_t = T::from_f64(recon);
            if (recon_t.to_f64() - v).abs() <= q.eb {
                let code = (q.radius as i64 + bin as i64) as u32;
                return Quantized { code, reconstructed: recon_t };
            }
        }
        Quantized { code: 0, reconstructed: value }
    }

    /// Bit-level view of an outcome (`-0.0` ≠ `+0.0`, NaN payloads compare).
    fn outcome_bits<T: ScalarValue>(o: Quantized<T>) -> (u32, Vec<u8>) {
        let mut bytes = Vec::new();
        o.reconstructed.write_le(&mut bytes);
        (o.code, bytes)
    }

    /// `quantize` equals the oracle bit for bit, and so does
    /// `quantize_by_reciprocal` wherever it says it is sure; returns whether
    /// it was.
    fn assert_matches_oracle<T: ScalarValue>(q: &LinearQuantizer, value: T, predicted: f64) -> bool {
        let context = format!("value={value:?} predicted={predicted:?} eb={} radius={}", q.eb, q.radius);
        let want = outcome_bits(quantize_oracle(q, value, predicted));
        assert_eq!(outcome_bits(q.quantize(value, predicted)), want, "{context}");
        let (by_reciprocal, sure) = q.quantize_by_reciprocal(value, predicted);
        if sure {
            assert_eq!(outcome_bits(by_reciprocal), want, "by reciprocal: {context}");
        }
        sure
    }

    #[test]
    fn quantize_matches_oracle_on_edge_cases() {
        // Differences that land on exact .5 ties of the scaled error, the
        // largest double below one half, signed zeros on both sides, and
        // non-finite / huge inputs — at the smallest and largest radii.
        let specials = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            1.0,
            -1.0,
            1.5 - f64::EPSILON,
            2147483646.5,
            2147483647.5,
            -2147483647.5,
            2147483648.5,
            4503599627370495.5,
            4503599627370497.0,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for radius in [2u32, 3, 512, 1 << 15, 1 << 31, u32::MAX] {
            // eb = 0.5 makes the scaled error equal the difference, so the
            // tie values above hit `round` exactly. The last two bounds have
            // no normal reciprocal: their reciprocal path is never sure.
            for eb in [0.5f64, 1e-3, 0.25, 3.0, 5e-324, 1e308] {
                let q = LinearQuantizer::new(eb, radius);
                let mut sure = 0;
                for &d in &specials {
                    for &p in &[0.0f64, -0.0, 1.0, -7.25, 1e300, f64::NAN, f64::INFINITY] {
                        sure += assert_matches_oracle(&q, p + d, p) as usize;
                        sure += assert_matches_oracle(&q, d, p) as usize;
                        sure += assert_matches_oracle(&q, (p + d) as f32, p) as usize;
                        sure += assert_matches_oracle(&q, d as f32, p) as usize;
                        // Bin index `d` exactly: value = p + d·2eb.
                        sure += assert_matches_oracle(&q, p + d * 2.0 * eb, p) as usize;
                    }
                }
                assert_eq!(sure == 0, !(1e-300..=1e300).contains(&eb), "eb={eb} radius={radius}: {sure} sure");
            }
        }
    }

    #[test]
    fn quantize_matches_oracle_on_random_inputs() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for &(eb, radius) in &[(1e-3f64, 1u32 << 15), (0.5, 4), (1e-6, 512), (7.0, 2), (1e-2, 1 << 31)] {
            let q = LinearQuantizer::new(eb, radius);
            let mut unsure_near_centre = 0;
            for _ in 0..100_000 {
                let p = ((next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 20.0;
                // Mix of near-bin-centre, near-tie and far-away differences.
                let bins = ((next() >> 40) as i64 - (1 << 23)) as f64 / 1024.0;
                let nudge = ((next() >> 60) as f64 - 8.0) * f64::EPSILON;
                let v = p + bins * 2.0 * eb * (1.0 + nudge);
                assert_matches_oracle(&q, v, p);
                assert_matches_oracle(&q, v as f32, p);
                // Raw bit patterns: denormals, NaNs, infinities, huge values.
                assert_matches_oracle(&q, f64::from_bits(next()), p);
                assert_matches_oracle(&q, f32::from_bits(next() as u32), p);
                // A quarter bin off centre: the reciprocal path must be sure.
                let centre = p + ((next() >> 54) as f64 - 512.0 + 0.25) * 2.0 * eb;
                unsure_near_centre += !assert_matches_oracle(&q, centre, p) as usize;
            }
            assert_eq!(unsure_near_centre, 0, "eb={eb} radius={radius}");
        }
    }

    #[test]
    fn reciprocal_path_is_unsure_wherever_the_two_quotients_round_apart() {
        // Differences a few ulps from a half-integer number of bins, against
        // a zero prediction so the difference is exact, at bin widths whose
        // reciprocal is inexact: here the two quotients land on either side
        // of the half-integer, or one on it, often enough to count.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut apart = 0;
        for _ in 0..20_000 {
            let eb = 1e-4 + (next() % 1_000_000) as f64 * 1e-5;
            let q = LinearQuantizer::new(eb, 1 << 15);
            let half = ((next() % 4000) as f64 + 0.5) * q.two_eb;
            let ulps = (next() % 9) as i64 - 4;
            let v = f64::from_bits((half.to_bits() as i64 + ulps) as u64);
            let (by_reciprocal, sure) = q.quantize_by_reciprocal(v, 0.0);
            let differs = outcome_bits(by_reciprocal) != outcome_bits(q.quantize(v, 0.0));
            apart += differs as usize;
            assert!(!(differs && sure), "v={v:e} eb={eb:e}");
            assert_matches_oracle(&q, v, 0.0);
        }
        assert!(apart > 100, "only {apart} inputs rounded apart");
    }

    #[test]
    fn quantize_block_and_recover_lanes_match_the_one_point_calls_point_by_point() {
        // Lanes of random differences with one lane a few ulps off a
        // half-integer (so whole steps fall back to division), specials in
        // random lanes, in f32 and f64.
        fn check<T: ScalarValue>(q: &LinearQuantizer, values: [T; 8], preds: [f64; 8]) {
            let (mut codes, mut recons) = ([0u32; 8], values);
            q.quantize_block(&values, &preds, &mut codes, &mut recons);
            for r in 0..8 {
                let want = outcome_bits(q.quantize(values[r], preds[r]));
                assert_eq!(outcome_bits(Quantized { code: codes[r], reconstructed: recons[r] }), want, "lane {r}");
            }
            let recovered: [T; 8] = q.recover_lanes(codes, preds);
            for r in (0..8).filter(|&r| codes[r] != 0) {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                recovered[r].write_le(&mut got);
                q.recover::<T>(codes[r], preds[r]).write_le(&mut want);
                assert_eq!(got, want, "lane {r}");
            }
        }
        let mut state = 0x5851_f42d_4c95_7f2du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let specials = [0.0f64, -0.0, f64::NAN, f64::INFINITY, 1e300, -1e300];
        for &(eb, radius) in &[(1e-3f64, 1u32 << 15), (0.5, 4), (1e-6, 512), (1e-2, 1 << 31), (1e-5, 8)] {
            let q = LinearQuantizer::new(eb, radius);
            for round in 0..20_000 {
                let preds: [f64; 8] = std::array::from_fn(|_| ((next() % 2001) as f64 - 1000.0) * 0.01);
                let mut values: [f64; 8] =
                    std::array::from_fn(|r| preds[r] + ((next() % 4001) as f64 - 2000.0) * 0.37 * eb);
                if round % 3 == 0 {
                    let r = (next() % 8) as usize;
                    let half = ((next() % 200) as f64 + 0.5) * 2.0 * eb;
                    values[r] = f64::from_bits((preds[r] + half).to_bits().wrapping_add(next() % 5));
                }
                if round % 7 == 0 {
                    values[(next() % 8) as usize] = specials[(next() % 6) as usize];
                }
                check(&q, values, preds);
                check(&q, values.map(|v| v as f32), preds);
            }
        }
    }

    #[test]
    fn quantize_respects_error_bound() {
        let q = LinearQuantizer::new(0.01, 1 << 15);
        for &(v, p) in &[(1.0f64, 0.97), (-3.5, -3.49), (0.0, 5.0e-3), (100.0, 99.999)] {
            let out = q.quantize(v, p);
            // The value may be flagged unpredictable under floating-point
            // edge cases, but reconstruction always honours the bound.
            assert!((out.reconstructed - v).abs() <= 0.01 + 1e-15, "v={v} p={p}");
        }
    }

    #[test]
    fn recover_matches_quantize() {
        let q = LinearQuantizer::new(1e-3, 512);
        let predicted = 2.34;
        let out = q.quantize(2.341f64, predicted);
        assert_ne!(out.code, 0);
        let rec: f64 = q.recover(out.code, predicted);
        assert_eq!(rec, out.reconstructed);
    }

    #[test]
    fn far_value_is_unpredictable() {
        let q = LinearQuantizer::new(1e-6, 4);
        let out = q.quantize(1.0f32, 0.0);
        assert_eq!(out.code, 0);
        assert_eq!(out.reconstructed, 1.0);
    }

    #[test]
    fn exact_prediction_gets_center_code() {
        let q = LinearQuantizer::new(0.5, 16);
        let out = q.quantize(3.0f64, 3.0);
        assert_eq!(out.code, 16); // radius + 0
        assert_eq!(out.reconstructed, 3.0);
    }

    #[test]
    fn f32_narrowing_is_checked() {
        // A reconstruction that is within the bound in f64 but rounds outside
        // it in f32 must be flagged unpredictable rather than violate the
        // bound after narrowing.
        let eb = 1e-9;
        let q = LinearQuantizer::new(eb, 1 << 15);
        let v: f32 = 123456.7;
        let out = q.quantize(v, v as f64 + 0.5e-9);
        assert!((out.reconstructed - v).abs() as f64 <= eb || out.code == 0);
    }

    #[test]
    fn symbol_count_is_twice_radius() {
        assert_eq!(LinearQuantizer::new(1.0, 8).symbol_count(), 16);
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_eb_panics() {
        LinearQuantizer::new(0.0, 8);
    }
}
