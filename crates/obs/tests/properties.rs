//! Property-based tests for the obs crate: histogram merge/percentile
//! invariants.

use ocelot_obs::metrics::{Histogram, SUB_BUCKETS};
use proptest::prelude::*;

/// Positive durations spanning the tracked range (well above `MIN_TRACKED`,
/// well below the overflow bucket).
fn durations(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            1e-6f64..1e-3, // microseconds to milliseconds
            1e-3f64..1.0,  // sub-second stages
            1.0f64..1e4,   // simulated transfer times
            Just(0.0),     // clamps to the first bucket
        ],
        n,
    )
}

/// One full bucket width in relative terms: buckets are a factor of
/// 2^(1/SUB_BUCKETS) wide, and `percentile` reports the geometric bucket
/// midpoint, so any in-bucket value is within half a width of the report.
fn bucket_factor() -> f64 {
    2f64.powf(1.0 / SUB_BUCKETS as f64)
}

/// Exact nearest-rank percentile of a sample, for comparison.
fn exact_percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging two independently-filled histograms is exactly the histogram
    /// of the pooled observations: same per-bucket counts, same total count,
    /// sums equal up to f64 accumulation order.
    #[test]
    fn merge_equals_pooled(a in durations(0..200), b in durations(0..200)) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        let pooled = Histogram::new();
        for &v in &a {
            ha.observe(v);
            pooled.observe(v);
        }
        for &v in &b {
            hb.observe(v);
            pooled.observe(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), pooled.count());
        prop_assert_eq!(ha.cumulative_buckets(), pooled.cumulative_buckets());
        let tol = 1e-9 * (1.0 + pooled.sum().abs());
        prop_assert!((ha.sum() - pooled.sum()).abs() <= tol,
            "merged sum {} vs pooled {}", ha.sum(), pooled.sum());
        // Percentiles read only bucket counts, so they agree exactly.
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.percentile(q).to_bits(), pooled.percentile(q).to_bits());
        }
    }

    /// The histogram percentile lands within one bucket width of the exact
    /// nearest-rank percentile of the same sample.
    #[test]
    fn percentile_within_bucket_error(vals in durations(1..300), qi in 1u32..100) {
        // Keep values strictly inside the tracked range for a clean
        // relative-error statement (0.0 clamps into the first bucket).
        let mut vals: Vec<f64> = vals.into_iter().filter(|v| *v > 1e-8).collect();
        if vals.is_empty() {
            vals.push(1.0);
        }
        let q = qi as f64 / 100.0;
        let h = Histogram::new();
        for &v in &vals {
            h.observe(v);
        }
        let approx = h.percentile(q);
        let exact = exact_percentile(&vals, q);
        let factor = bucket_factor();
        prop_assert!(approx <= exact * factor && approx >= exact / factor,
            "p{qi}: approx {approx} not within {factor}x of exact {exact}");
    }

    /// Percentiles are monotone in q and bounded by the observed extremes
    /// (up to one bucket width).
    #[test]
    fn percentiles_are_monotone_and_bounded(vals in durations(1..200)) {
        let mut vals: Vec<f64> = vals.into_iter().filter(|v| *v > 1e-8).collect();
        if vals.is_empty() {
            vals.push(1.0);
        }
        let h = Histogram::new();
        for &v in &vals {
            h.observe(v);
        }
        let qs = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let ps: Vec<f64> = qs.iter().map(|&q| h.percentile(q)).collect();
        for w in ps.windows(2) {
            prop_assert!(w[0] <= w[1], "percentiles not monotone: {ps:?}");
        }
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(0.0f64, f64::max);
        let factor = bucket_factor();
        prop_assert!(ps[0] >= lo / factor && *ps.last().unwrap() <= hi * factor);
    }
}
