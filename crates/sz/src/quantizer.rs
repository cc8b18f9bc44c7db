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
}

/// 2⁵²: adding it to a non-negative `f64` below it leaves no fraction bits,
/// so the add rounds to an integer (ties to even) and the subtract is exact.
const TWO_52: f64 = 4_503_599_627_370_496.0;

impl LinearQuantizer {
    /// Creates a quantizer for an absolute error bound and code radius.
    ///
    /// # Panics
    /// Panics if `eb` is not positive/finite or `radius < 2` (configurations
    /// are validated before reaching this layer; this is a defensive check).
    pub fn new(eb: f64, radius: u32) -> Self {
        assert!(eb.is_finite() && eb > 0.0, "error bound must be positive, got {eb}");
        assert!(radius >= 2, "radius must be >= 2, got {radius}");
        let radius_f = radius as f64;
        LinearQuantizer { eb, two_eb: 2.0 * eb, radius, code_bias: radius_f + TWO_52, bin_limit: radius_f - 0.5 }
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

    fn assert_matches_oracle<T: ScalarValue>(q: &LinearQuantizer, value: T, predicted: f64) {
        assert_eq!(
            outcome_bits(q.quantize(value, predicted)),
            outcome_bits(quantize_oracle(q, value, predicted)),
            "value={value:?} predicted={predicted:?} eb={} radius={}",
            q.eb,
            q.radius
        );
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
            // tie values above hit `round` exactly.
            for eb in [0.5f64, 1e-3, 0.25, 3.0] {
                let q = LinearQuantizer::new(eb, radius);
                for &d in &specials {
                    for &p in &[0.0f64, -0.0, 1.0, -7.25, 1e300, f64::NAN, f64::INFINITY] {
                        assert_matches_oracle(&q, p + d, p);
                        assert_matches_oracle(&q, d, p);
                        assert_matches_oracle(&q, (p + d) as f32, p);
                        assert_matches_oracle(&q, d as f32, p);
                        // Bin index `d` exactly: value = p + d·2eb.
                        assert_matches_oracle(&q, p + d * 2.0 * eb, p);
                    }
                }
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
