//! Automatic compressor configuration from user requirements (§V capability
//! 1): sweep candidate configurations through the quality-prediction model
//! and pick the best one satisfying the user's constraint.

use ocelot_qpred::{QualityEstimate, QualityModel};
use ocelot_sz::config::{LossyConfig, PredictorKind};
use ocelot_sz::{Dataset, ScalarValue};

/// A user requirement on the lossy transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Requirement {
    /// Reconstructed data must reach at least this PSNR (dB).
    MinPsnr(f64),
    /// Compression must achieve at least this ratio.
    MinRatio(f64),
    /// Compression must finish within this single-core-seconds budget.
    MaxTime(f64),
}

impl Requirement {
    /// Whether an estimate satisfies the requirement.
    pub fn satisfied_by(&self, est: &QualityEstimate) -> bool {
        match *self {
            Requirement::MinPsnr(db) => est.psnr >= db,
            Requirement::MinRatio(r) => est.ratio >= r,
            Requirement::MaxTime(s) => est.time_seconds <= s,
        }
    }
}

/// Selects compressor configurations with a trained quality model.
#[derive(Debug, Clone)]
pub struct AutoConfigurator {
    model: QualityModel,
    candidates: Vec<LossyConfig>,
    sample_stride: usize,
}

impl AutoConfigurator {
    /// Creates a configurator over the default candidate grid: every
    /// predictor × error bounds `1e-6 … 1e-1` (the sweep of §VIII-B).
    pub fn new(model: QualityModel) -> Self {
        let mut candidates = Vec::new();
        for predictor in PredictorKind::ALL {
            for exp in 1..=6 {
                let eb = 10f64.powi(-exp);
                candidates.push(LossyConfig::sz3(eb).with_predictor(predictor));
            }
        }
        AutoConfigurator { model, candidates, sample_stride: 100 }
    }

    /// Sets the feature sampling stride (default 100 = the paper's 1 %).
    ///
    /// # Panics
    /// Panics if `stride == 0`.
    pub fn with_sample_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.sample_stride = stride;
        self
    }

    /// The candidate configurations.
    pub fn candidates(&self) -> &[LossyConfig] {
        &self.candidates
    }

    /// Estimates quality for every candidate (the table the paper's UI shows
    /// the user).
    pub fn estimate_all<T: ScalarValue>(&self, data: &Dataset<T>) -> Vec<(LossyConfig, QualityEstimate)> {
        self.candidates.iter().map(|cfg| (*cfg, self.model.predict_for(data, cfg, self.sample_stride))).collect()
    }

    /// Picks the candidate maximizing predicted ratio among those satisfying
    /// `requirement` (for [`Requirement::MaxTime`], ties favour the faster
    /// configuration). Returns `None` if no candidate qualifies.
    pub fn select<T: ScalarValue>(
        &self,
        data: &Dataset<T>,
        requirement: Requirement,
    ) -> Option<(LossyConfig, QualityEstimate)> {
        self.estimate_all(data)
            .into_iter()
            .filter(|(_, est)| requirement.satisfied_by(est))
            .max_by(|a, b| a.1.ratio.partial_cmp(&b.1.ratio).unwrap_or(std::cmp::Ordering::Equal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_qpred::{TrainingSample, TreeConfig};

    fn field(seed: usize) -> Dataset<f32> {
        Dataset::from_fn(vec![48, 48], move |i| {
            ((i[0] + 5 * seed) as f32 * 0.13).sin() * 2.0 + (i[1] as f32 * 0.07).cos()
        })
    }

    fn trained_model() -> QualityModel {
        let mut samples = Vec::new();
        for seed in 0..5 {
            let d = field(seed);
            for exp in 1..=6 {
                let cfg = LossyConfig::sz3(10f64.powi(-exp));
                samples.push(TrainingSample::measure(&d, &cfg, 10, None).unwrap());
            }
        }
        QualityModel::train(&samples, &TreeConfig::default())
    }

    #[test]
    fn select_respects_psnr_floor() {
        let ac = AutoConfigurator::new(trained_model()).with_sample_stride(10);
        let d = field(7);
        let (cfg, est) = ac.select(&d, Requirement::MinPsnr(80.0)).expect("some config qualifies");
        assert!(est.psnr >= 80.0, "psnr {}", est.psnr);
        // Verify against the real pipeline: reconstruction should be good.
        let s = TrainingSample::measure(&d, &cfg, 10, None).unwrap();
        assert!(s.psnr > 50.0, "actual psnr {}", s.psnr);
    }

    #[test]
    fn impossible_requirement_returns_none() {
        let ac = AutoConfigurator::new(trained_model());
        assert!(ac.select(&field(1), Requirement::MinRatio(1e9)).is_none());
    }

    #[test]
    fn estimate_all_covers_candidates() {
        let ac = AutoConfigurator::new(trained_model());
        let ests = ac.estimate_all(&field(2));
        assert_eq!(ests.len(), ac.candidates().len());
        assert_eq!(ests.len(), PredictorKind::ALL.len() * 6);
    }

    #[test]
    fn ratio_selection_prefers_looser_bounds() {
        let ac = AutoConfigurator::new(trained_model()).with_sample_stride(10);
        let d = field(3);
        let relaxed = ac.select(&d, Requirement::MinPsnr(40.0)).unwrap();
        let strict = ac.select(&d, Requirement::MinPsnr(120.0));
        if let Some(strict) = strict {
            assert!(relaxed.1.ratio >= strict.1.ratio, "relaxed {} strict {}", relaxed.1.ratio, strict.1.ratio);
        }
    }

    #[test]
    fn requirement_predicates() {
        let est = QualityEstimate { ratio: 10.0, time_seconds: 5.0, psnr: 80.0 };
        assert!(Requirement::MinPsnr(70.0).satisfied_by(&est));
        assert!(!Requirement::MinPsnr(90.0).satisfied_by(&est));
        assert!(Requirement::MinRatio(10.0).satisfied_by(&est));
        assert!(Requirement::MaxTime(5.0).satisfied_by(&est));
        assert!(!Requirement::MaxTime(4.9).satisfied_by(&est));
    }
}
