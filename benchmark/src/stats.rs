//! Order statistics over timing samples.

/// Linear-interpolated quantile `p` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `p` in `[0, 1]` of the samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(samples), p)
}

/// The highest percentile of the ladder 50/75/90/95/99 that still has at
/// least ten samples beyond it, with its value: p75 from 40 samples, p90
/// from 100. Below 20 samples even the median has fewer than ten beyond it;
/// the median is reported all the same and the sample count says so.
pub fn high_percentile(samples: &[f64]) -> (u32, f64) {
    const LADDER: [u32; 5] = [50, 75, 90, 95, 99];
    let n = samples.len() as f64;
    let pct = LADDER.iter().rev().copied().find(|&p| n * f64::from(100 - p) / 100.0 >= 10.0).unwrap_or(50);
    (pct, quantile_sorted(&sorted(samples), f64::from(pct) / 100.0))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// (or sample-to-sample) spread a regression bound is judged against.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) => {
            let m = median(samples);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1).abs() / m.abs()
            }
        }
        None => 0.0,
    }
}

/// The quartile spread to expect of the *median* of samples like these, were
/// they independent: the samples' own spread × 1.2533 / √n (the standard
/// error of a median). This, not the samples' spread, is what one run's
/// median can be held to.
pub fn spread_of_median(samples: &[f64]) -> f64 {
    quartile_spread(samples) * 1.2533 / (samples.len().max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.5);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[3.0, 5.0, 4.0], 0.1), 3.2);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(high_percentile(&ramp(12)).0, 50);
        assert_eq!(high_percentile(&ramp(39)).0, 50);
        assert_eq!(high_percentile(&ramp(40)).0, 75);
        assert_eq!(high_percentile(&ramp(80)).0, 75);
        assert_eq!(high_percentile(&ramp(100)).0, 90);
        assert_eq!(high_percentile(&ramp(1000)).0, 99);
        // p75 of 1..=41 sits exactly on sample 31.
        assert_eq!(high_percentile(&ramp(41)), (75, 31.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert!((spread_of_median(&v) - 1.2533 / 10f64.sqrt()).abs() < 1e-12);
        assert_eq!(spread_of_median(&[1.0]), 0.0);
    }
}
