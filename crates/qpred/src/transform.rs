//! Quality prediction for *transform-based* compressors (ZFP family) — the
//! paper's stated future work ("we lack effective time/ratio prediction
//! methods for transformer-based compressors like ZFP").
//!
//! The prediction-based features of [`crate::features`] do not transfer:
//! a transform codec has no quantization-bin stream, so `p0`/`P0`/`R_rle`
//! do not exist. Instead this module uses six features: the configuration,
//! cheap data statistics, and a *sampled transform-domain ratio estimate*
//! (every k-th 4^d block is really encoded — the transform analogue of the
//! paper's 1 % sampling).

use ocelot_sz::sample::sample_grid;
use ocelot_sz::stats::{byte_entropy, value_stats};
use ocelot_sz::zfp;
use ocelot_sz::{Codec, CodecConfig, Dataset, ScalarValue, SzError, ZfpCodec};
use serde::{Deserialize, Serialize};

use crate::tree::{DecisionTree, TreeConfig};

/// Number of transform-codec features.
pub const TRANSFORM_FEATURE_COUNT: usize = 6;

/// One labelled transform-codec observation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformSample {
    /// Feature vector.
    pub features: [f64; TRANSFORM_FEATURE_COUNT],
    /// Real compression ratio achieved by the transform codec.
    pub ratio: f64,
}

/// Extracts transform-codec features at a block-sampling stride (e.g. 16 →
/// every 16th block is encoded for the ratio estimate).
///
/// # Errors
/// Propagates shape/bound validation errors from the codec.
///
/// # Panics
/// Panics if `block_stride == 0`.
pub fn extract_transform_features<T: ScalarValue>(
    data: &Dataset<T>,
    abs_eb: f64,
    block_stride: usize,
) -> Result<[f64; TRANSFORM_FEATURE_COUNT], SzError> {
    let stats = value_stats(data);
    let range = stats.range.max(1e-300);
    let sampled = sample_grid(data, 4);
    let entropy = byte_entropy(&sampled);
    let lorenzo = ocelot_sz::predict::lorenzo::mean_raw_error(&sampled);
    let est = zfp::estimate_ratio_sampled(data, abs_eb, block_stride)?;
    Ok([
        (abs_eb / range).max(1e-300).log10(),
        range.log10(),
        stats.std_dev / range,
        entropy,
        (lorenzo / range).max(1e-300).log10(),
        est.max(1e-3).log10(),
    ])
}

/// Measures a labelled sample: features plus the real codec ratio.
///
/// # Errors
/// Propagates codec errors.
pub fn measure_transform_sample<T: ScalarValue>(
    data: &Dataset<T>,
    abs_eb: f64,
    block_stride: usize,
) -> Result<TransformSample, SzError> {
    let features = extract_transform_features(data, abs_eb, block_stride)?;
    let config = CodecConfig::zfp_abs(abs_eb);
    let outcome = ZfpCodec.compress(data, &config)?;
    Ok(TransformSample { features, ratio: outcome.ratio })
}

/// A trained ratio model for the transform codec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformQualityModel {
    ratio_tree: DecisionTree,
}

impl TransformQualityModel {
    /// Trains on labelled samples (ratio learned in log10 space).
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn train(samples: &[TransformSample], config: &TreeConfig) -> Self {
        assert!(!samples.is_empty(), "cannot train on an empty sample set");
        let x: Vec<Vec<f64>> = samples.iter().map(|s| s.features.to_vec()).collect();
        let y: Vec<f64> = samples.iter().map(|s| s.ratio.max(1e-12).log10()).collect();
        TransformQualityModel { ratio_tree: DecisionTree::fit(&x, &y, config) }
    }

    /// Predicts the compression ratio from a feature vector.
    pub fn predict_ratio(&self, features: &[f64; TRANSFORM_FEATURE_COUNT]) -> f64 {
        10f64.powf(self.ratio_tree.predict(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(seed: u64) -> Dataset<f32> {
        Dataset::from_fn(vec![32, 32, 16], move |i| {
            ((i[0] as f32 + seed as f32 * 2.0) * 0.21).sin() * 3.0 + ((i[1] as f32) * 0.13).cos() + i[2] as f32 * 0.02
        })
    }

    fn build(seeds: std::ops::Range<u64>) -> Vec<TransformSample> {
        let mut out = Vec::new();
        for seed in seeds {
            let d = field(seed);
            let range = d.value_range();
            for exp in 1..=5 {
                out.push(measure_transform_sample(&d, 10f64.powi(-exp) * range, 8).unwrap());
            }
        }
        out
    }

    #[test]
    fn features_are_finite_and_informative() {
        let d = field(0);
        let tight = extract_transform_features(&d, 1e-5 * d.value_range(), 8).unwrap();
        let loose = extract_transform_features(&d, 1e-1 * d.value_range(), 8).unwrap();
        assert!(tight.iter().all(|v| v.is_finite()));
        assert!(loose[5] > tight[5], "loose sampled ratio {} vs tight {}", loose[5], tight[5]);
    }

    #[test]
    fn model_predicts_held_out_zfp_ratios() {
        let train = build(0..5);
        let model = TransformQualityModel::train(&train, &TreeConfig::default());
        let test = build(5..8);
        let rmse =
            (test.iter().map(|s| (model.predict_ratio(&s.features).log10() - s.ratio.log10()).powi(2)).sum::<f64>()
                / test.len() as f64)
                .sqrt();
        assert!(rmse < 0.25, "held-out log-ratio RMSE {rmse}");
    }

    #[test]
    fn model_orders_error_bounds_correctly() {
        let model = TransformQualityModel::train(&build(0..4), &TreeConfig::default());
        let d = field(9);
        let range = d.value_range();
        let tight = extract_transform_features(&d, 1e-5 * range, 8).unwrap();
        let loose = extract_transform_features(&d, 1e-2 * range, 8).unwrap();
        assert!(model.predict_ratio(&loose) > model.predict_ratio(&tight));
    }

    #[test]
    fn serde_round_trip_behaviour() {
        let samples = build(0..3);
        let model = TransformQualityModel::train(&samples, &TreeConfig::default());
        let json = serde_json::to_string(&model).unwrap();
        let back: TransformQualityModel = serde_json::from_str(&json).unwrap();
        for s in &samples {
            let a = model.predict_ratio(&s.features);
            let b = back.predict_ratio(&s.features);
            assert!((a - b).abs() / a < 1e-9);
        }
    }
}
