//! Compression-quality prediction (the paper's §VI).
//!
//! Given a dataset and a candidate compressor configuration, predicts the
//! compression ratio, compression time, and PSNR *without compressing*, from
//! eleven cheap features in three groups:
//!
//! * **config-based** — error bound, compressor/predictor type;
//! * **data-based** — value range statistics, byte-level entropy, mean
//!   Lorenzo prediction error;
//! * **compressor-based** — quantization-bin statistics (`p0`, `P0`,
//!   quantization entropy, run-length estimator `R_rle`) computed on a 1 %
//!   sample.
//!
//! A from-scratch CART regression tree (plus an optional bagged forest)
//! learns the mapping from features to each quality metric.
//!
//! ```
//! use ocelot_qpred::features::{extract, FEATURE_COUNT};
//! use ocelot_sz::{Dataset, LossyConfig};
//!
//! let data = Dataset::from_fn(vec![64, 64], |i| (i[0] as f32 * 0.1).sin() + i[1] as f32 * 0.01);
//! let fv = extract(&data, &LossyConfig::sz3(1e-3), 100);
//! assert_eq!(fv.values.len(), FEATURE_COUNT);
//! ```

pub mod dataset;
pub mod features;
pub mod forest;
pub mod model;
pub mod transform;
pub mod tree;

pub use dataset::{ErrorDistribution, TrainTestSplit, TrainingSet};
pub use features::{extract, FeatureVector, FEATURE_COUNT, FEATURE_NAMES};
pub use forest::RandomForest;
pub use model::{QualityEstimate, QualityModel, TrainingSample};
pub use transform::{TransformQualityModel, TransformSample};
pub use tree::{DecisionTree, TreeConfig};
