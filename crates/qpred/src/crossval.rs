//! k-fold cross-validation for the quality models — a sturdier accuracy
//! estimate than the paper's single split, used by the ablation experiments to
//! compare estimators fairly.

use crate::dataset::ErrorDistribution;
use crate::model::{QualityModel, TrainingSample};
use crate::tree::TreeConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Cross-validated accuracy of the three quality metrics.
#[derive(Debug, Clone)]
pub struct CrossValReport {
    /// Folds evaluated.
    pub folds: usize,
    /// Out-of-fold relative ratio errors `(pred − real)/real`.
    pub ratio_errors: ErrorDistribution,
    /// Out-of-fold relative time errors.
    pub time_errors: ErrorDistribution,
    /// Out-of-fold absolute PSNR errors in dB.
    pub psnr_errors: ErrorDistribution,
}

impl CrossValReport {
    /// Convenience: RMSE triple `(ratio_rel, time_rel, psnr_db)`.
    pub fn rmse(&self) -> (f64, f64, f64) {
        (self.ratio_errors.rmse(), self.time_errors.rmse(), self.psnr_errors.rmse())
    }
}

/// Runs `k`-fold cross-validation over `samples`.
///
/// Every sample is predicted exactly once, by a model that never saw it.
///
/// # Panics
/// Panics if `k < 2` or `samples.len() < k`.
pub fn cross_validate(samples: &[TrainingSample], k: usize, config: &TreeConfig, seed: u64) -> CrossValReport {
    assert!(k >= 2, "at least 2 folds");
    assert!(samples.len() >= k, "need at least one sample per fold");
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));

    let mut ratio_errors = Vec::with_capacity(samples.len());
    let mut time_errors = Vec::with_capacity(samples.len());
    let mut psnr_errors = Vec::with_capacity(samples.len());
    for fold in 0..k {
        let held: Vec<usize> = order.iter().copied().skip(fold).step_by(k).collect();
        let held_set: std::collections::HashSet<usize> = held.iter().copied().collect();
        let train: Vec<TrainingSample> =
            order.iter().filter(|i| !held_set.contains(i)).map(|&i| samples[i].clone()).collect();
        let model = QualityModel::train(&train, config);
        for &i in &held {
            let s = &samples[i];
            let est = model.predict(&s.features);
            ratio_errors.push((est.ratio - s.ratio) / s.ratio.max(1e-12));
            time_errors.push((est.time_seconds - s.time_seconds) / s.time_seconds.max(1e-12));
            psnr_errors.push(est.psnr - s.psnr);
        }
    }
    CrossValReport {
        folds: k,
        ratio_errors: ErrorDistribution::new(ratio_errors),
        time_errors: ErrorDistribution::new(time_errors),
        psnr_errors: ErrorDistribution::new(psnr_errors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureVector, FEATURE_COUNT};

    /// Synthetic samples with a learnable structure: ratio = 2^(x0), time =
    /// 10·x0, psnr = 50 + 20·x0, over a grid of x0 with mild noise in other
    /// features.
    fn samples(n: usize) -> Vec<TrainingSample> {
        (0..n)
            .map(|i| {
                let x0 = (i % 13) as f64 / 2.0;
                let mut values = [0.0; FEATURE_COUNT];
                values[0] = x0;
                values[3] = ((i * 7) % 5) as f64; // irrelevant feature
                TrainingSample {
                    features: FeatureVector { values },
                    ratio: 2f64.powf(x0),
                    time_seconds: 10.0 * x0 + 1.0,
                    psnr: 50.0 + 20.0 * x0,
                }
            })
            .collect()
    }

    #[test]
    fn cross_validation_covers_every_sample_once() {
        let s = samples(91);
        let report = cross_validate(&s, 7, &TreeConfig::default(), 1);
        assert_eq!(report.folds, 7);
        assert_eq!(report.ratio_errors.len(), 91);
        assert_eq!(report.psnr_errors.len(), 91);
    }

    #[test]
    fn learnable_structure_yields_low_oof_error() {
        let s = samples(130);
        let report = cross_validate(&s, 5, &TreeConfig::default(), 2);
        let (ratio, time, psnr) = report.rmse();
        assert!(ratio < 0.15, "ratio rmse {ratio}");
        assert!(time < 0.15, "time rmse {time}");
        assert!(psnr < 5.0, "psnr rmse {psnr}");
    }

    #[test]
    fn deterministic_given_seed() {
        let s = samples(40);
        let a = cross_validate(&s, 4, &TreeConfig::default(), 9);
        let b = cross_validate(&s, 4, &TreeConfig::default(), 9);
        assert_eq!(a.rmse(), b.rmse());
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn one_fold_is_rejected() {
        cross_validate(&samples(10), 1, &TreeConfig::default(), 0);
    }
}
