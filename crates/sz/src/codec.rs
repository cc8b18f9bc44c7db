//! Unified codec interface: one trait and one configuration enum covering
//! both compressor families, so planners and quality predictors can rank and
//! select codecs without per-codec branches.
//!
//! The prediction pipeline historically took a [`LossyConfig`] while the
//! transform codec took a bare `abs_eb: f64`. [`CodecConfig`] folds both
//! into a single value, and [`Codec`] gives `SzCodec` and `ZfpCodec` the
//! same four entry points: `compress`, `decompress`, `name`, and
//! `estimate_ratio_sampled`.
//!
//! ```
//! use ocelot_sz::codec::{Codec, CodecConfig, SzCodec, ZfpCodec};
//! use ocelot_sz::{Dataset, LossyConfig};
//!
//! # fn main() -> Result<(), ocelot_sz::SzError> {
//! let data = Dataset::from_fn(vec![16, 16], |i| (i[0] as f32 * 0.3).sin() + i[1] as f32 * 0.1);
//! for config in [
//!     CodecConfig::Sz(LossyConfig::sz3_abs(1e-3).with_threads(2)),
//!     CodecConfig::zfp_abs(1e-3),
//! ] {
//!     let outcome = config.codec().compress(&data, &config)?;
//!     let restored = config.codec().decompress::<f32>(&outcome.blob)?;
//!     for (a, b) in data.values().iter().zip(restored.values()) {
//!         assert!((a - b).abs() <= 1e-3);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use crate::config::{ErrorBound, LossyConfig};
use crate::error::SzError;
use crate::format::{CodecFamily, CompressedBlob};
use crate::ndarray::Dataset;
use crate::pipeline::{self, CompressionOutcome};
use crate::sample;
use crate::value::ScalarValue;
use crate::zfp;

/// Configuration of the transform (ZFP-style) codec — the former bare
/// `abs_eb: f64` argument, promoted to a struct so both codec families
/// share the [`ErrorBound`] and parallelism vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZfpConfig {
    /// Pointwise error bound (relative bounds resolve against the dataset).
    pub error_bound: ErrorBound,
    /// Worker threads for chunk-parallel compression.
    pub threads: usize,
    /// Target points per chunk (`None` derives it from `threads`).
    pub chunk_points: Option<usize>,
}

impl ZfpConfig {
    /// Absolute-bound preset.
    pub fn abs(abs_eb: f64) -> Self {
        ZfpConfig { error_bound: ErrorBound::Abs(abs_eb), threads: 1, chunk_points: None }
    }

    /// Value-range-relative-bound preset.
    pub fn rel(rel_eb: f64) -> Self {
        ZfpConfig { error_bound: ErrorBound::Rel(rel_eb), ..Self::abs(0.0) }
    }

    /// Replaces the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`SzError::InvalidConfig`] for a non-positive bound or a zero
    /// thread count.
    pub fn validate(&self) -> Result<(), SzError> {
        self.error_bound.validate()?;
        if self.threads == 0 {
            return Err(SzError::InvalidConfig("thread count must be at least 1".into()));
        }
        Ok(())
    }
}

/// Codec-agnostic configuration: which compressor family to run and its
/// parameters. Callers that hold a `CodecConfig` never branch on the
/// variant — [`CodecConfig::codec`] hands back the matching codec object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecConfig {
    /// Prediction-based pipeline (SZ model).
    Sz(LossyConfig),
    /// Transform-based codec (ZFP model).
    Zfp(ZfpConfig),
}

impl CodecConfig {
    /// Transform codec at an absolute bound (the old `zfp::compress` call
    /// shape).
    pub fn zfp_abs(abs_eb: f64) -> Self {
        CodecConfig::Zfp(ZfpConfig::abs(abs_eb))
    }

    /// Short codec name (`"sz"` / `"zfp"`).
    pub fn name(&self) -> &'static str {
        self.codec().name()
    }

    /// The configured error bound.
    pub fn error_bound(&self) -> ErrorBound {
        match self {
            CodecConfig::Sz(c) => c.error_bound,
            CodecConfig::Zfp(c) => c.error_bound,
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        match self {
            CodecConfig::Sz(c) => c.threads,
            CodecConfig::Zfp(c) => c.threads,
        }
    }

    /// Replaces the worker-thread count, whichever codec is selected.
    pub fn with_threads(self, threads: usize) -> Self {
        match self {
            CodecConfig::Sz(c) => CodecConfig::Sz(c.with_threads(threads)),
            CodecConfig::Zfp(c) => CodecConfig::Zfp(c.with_threads(threads)),
        }
    }

    /// Validates the wrapped configuration.
    ///
    /// # Errors
    /// Propagates the wrapped config's validation error.
    pub fn validate(&self) -> Result<(), SzError> {
        match self {
            CodecConfig::Sz(c) => c.validate(),
            CodecConfig::Zfp(c) => c.validate(),
        }
    }

    /// The codec this configuration drives.
    pub fn codec(&self) -> AnyCodec {
        match self {
            CodecConfig::Sz(_) => AnyCodec::Sz(SzCodec),
            CodecConfig::Zfp(_) => AnyCodec::Zfp(ZfpCodec),
        }
    }
}

/// A compressor family usable through one interface.
///
/// Implementations are zero-sized handles; configuration travels in the
/// [`CodecConfig`] passed to each call. `compress` returns the full
/// [`CompressionOutcome`] (the blob plus statistics — stats are always
/// collected).
pub trait Codec {
    /// Short stable name (`"sz"` / `"zfp"`), used as a categorical feature
    /// and in reports.
    fn name(&self) -> &'static str;

    /// Compresses a dataset under this codec.
    ///
    /// # Errors
    /// Returns [`SzError::InvalidConfig`] if `config` wraps the other
    /// codec's parameters or fails validation, and shape errors as each
    /// codec documents.
    fn compress<T: ScalarValue>(&self, data: &Dataset<T>, config: &CodecConfig) -> Result<CompressionOutcome, SzError>;

    /// Decompresses a blob produced by this codec on a single thread.
    ///
    /// # Errors
    /// Returns [`SzError::InvalidConfig`] if the blob was produced by a
    /// different codec family, plus the usual stream errors.
    fn decompress<T: ScalarValue>(&self, blob: &CompressedBlob) -> Result<Dataset<T>, SzError> {
        self.decompress_with_threads(blob, 1)
    }

    /// Decompresses a blob, decoding chunks on up to `threads` workers.
    ///
    /// # Errors
    /// Same as [`Codec::decompress`].
    fn decompress_with_threads<T: ScalarValue>(
        &self,
        blob: &CompressedBlob,
        threads: usize,
    ) -> Result<Dataset<T>, SzError>;

    /// Cheaply estimates the compression ratio by really encoding a sampled
    /// subset (every `stride`-th point for the prediction codec, every
    /// `stride`-th 4^d block for the transform codec).
    ///
    /// # Errors
    /// Same conditions as [`Codec::compress`].
    fn estimate_ratio_sampled<T: ScalarValue>(
        &self,
        data: &Dataset<T>,
        config: &CodecConfig,
        stride: usize,
    ) -> Result<f64, SzError>;
}

/// The prediction-based (SZ-model) codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SzCodec;

/// The transform-based (ZFP-model) codec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZfpCodec;

fn expect_family(blob: &CompressedBlob, family: CodecFamily, name: &str) -> Result<(), SzError> {
    let header = blob.header()?;
    if header.family != family {
        return Err(SzError::InvalidConfig(format!(
            "blob holds {} data; decode it with the matching codec",
            if header.family == CodecFamily::Prediction { "prediction-codec (sz)" } else { "transform-codec (zfp)" }
        )));
    }
    let _ = name;
    Ok(())
}

impl Codec for SzCodec {
    fn name(&self) -> &'static str {
        "sz"
    }

    fn compress<T: ScalarValue>(&self, data: &Dataset<T>, config: &CodecConfig) -> Result<CompressionOutcome, SzError> {
        match config {
            CodecConfig::Sz(cfg) => pipeline::compress(data, cfg),
            CodecConfig::Zfp(_) => Err(SzError::InvalidConfig("SzCodec needs CodecConfig::Sz".into())),
        }
    }

    fn decompress_with_threads<T: ScalarValue>(
        &self,
        blob: &CompressedBlob,
        threads: usize,
    ) -> Result<Dataset<T>, SzError> {
        expect_family(blob, CodecFamily::Prediction, self.name())?;
        pipeline::decompress_with_threads(blob, threads)
    }

    fn estimate_ratio_sampled<T: ScalarValue>(
        &self,
        data: &Dataset<T>,
        config: &CodecConfig,
        stride: usize,
    ) -> Result<f64, SzError> {
        let CodecConfig::Sz(cfg) = config else {
            return Err(SzError::InvalidConfig("SzCodec needs CodecConfig::Sz".into()));
        };
        cfg.validate()?;
        // Resolve a relative bound against the *full* dataset so the sample
        // is compressed at the bound the real run would use, then encode the
        // sampled stream serially and take the payload-only ratio (framing
        // would swamp a small sample).
        let abs_eb = cfg.error_bound.resolve(data);
        let sampled = sample::sample_stride(data, stride.max(1));
        let serial = cfg.with_error_bound(ErrorBound::Abs(abs_eb)).with_threads(1).with_chunk_points(None);
        let outcome = pipeline::compress(&sampled, &serial)?;
        let payload = (outcome.sections.side_data + outcome.sections.unpredictable + outcome.sections.codes).max(1);
        Ok(sampled.nbytes() as f64 / payload as f64)
    }
}

impl Codec for ZfpCodec {
    fn name(&self) -> &'static str {
        "zfp"
    }

    fn compress<T: ScalarValue>(&self, data: &Dataset<T>, config: &CodecConfig) -> Result<CompressionOutcome, SzError> {
        match config {
            CodecConfig::Zfp(cfg) => {
                cfg.validate()?;
                zfp::compress_impl(data, cfg.error_bound.resolve(data), cfg.threads, cfg.chunk_points)
            }
            CodecConfig::Sz(_) => Err(SzError::InvalidConfig("ZfpCodec needs CodecConfig::Zfp".into())),
        }
    }

    fn decompress_with_threads<T: ScalarValue>(
        &self,
        blob: &CompressedBlob,
        threads: usize,
    ) -> Result<Dataset<T>, SzError> {
        expect_family(blob, CodecFamily::Transform, self.name())?;
        pipeline::decompress_with_threads(blob, threads)
    }

    fn estimate_ratio_sampled<T: ScalarValue>(
        &self,
        data: &Dataset<T>,
        config: &CodecConfig,
        stride: usize,
    ) -> Result<f64, SzError> {
        let CodecConfig::Zfp(cfg) = config else {
            return Err(SzError::InvalidConfig("ZfpCodec needs CodecConfig::Zfp".into()));
        };
        cfg.validate()?;
        zfp::estimate_ratio_sampled(data, cfg.error_bound.resolve(data), stride.max(1))
    }
}

/// Enum dispatch over the two codecs, for callers that choose a codec at
/// run time (planners, CLIs) without generics or trait objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyCodec {
    /// Prediction-based pipeline.
    Sz(SzCodec),
    /// Transform-based codec.
    Zfp(ZfpCodec),
}

impl Codec for AnyCodec {
    fn name(&self) -> &'static str {
        match self {
            AnyCodec::Sz(c) => c.name(),
            AnyCodec::Zfp(c) => c.name(),
        }
    }

    fn compress<T: ScalarValue>(&self, data: &Dataset<T>, config: &CodecConfig) -> Result<CompressionOutcome, SzError> {
        match self {
            AnyCodec::Sz(c) => c.compress(data, config),
            AnyCodec::Zfp(c) => c.compress(data, config),
        }
    }

    fn decompress_with_threads<T: ScalarValue>(
        &self,
        blob: &CompressedBlob,
        threads: usize,
    ) -> Result<Dataset<T>, SzError> {
        match self {
            AnyCodec::Sz(c) => c.decompress_with_threads(blob, threads),
            AnyCodec::Zfp(c) => c.decompress_with_threads(blob, threads),
        }
    }

    fn estimate_ratio_sampled<T: ScalarValue>(
        &self,
        data: &Dataset<T>,
        config: &CodecConfig,
        stride: usize,
    ) -> Result<f64, SzError> {
        match self {
            AnyCodec::Sz(c) => c.estimate_ratio_sampled(data, config, stride),
            AnyCodec::Zfp(c) => c.estimate_ratio_sampled(data, config, stride),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn field() -> Dataset<f32> {
        Dataset::from_fn(vec![24, 24], |i| ((i[0] as f32) * 0.2).sin() * 5.0 + (i[1] as f32) * 0.05)
    }

    fn configs() -> [CodecConfig; 2] {
        [CodecConfig::Sz(LossyConfig::sz3_abs(1e-3)), CodecConfig::zfp_abs(1e-3)]
    }

    #[test]
    fn both_codecs_round_trip_through_the_trait() {
        let data = field();
        for config in configs() {
            let codec = config.codec();
            let outcome = codec.compress(&data, &config).unwrap();
            let restored = codec.decompress::<f32>(&outcome.blob).unwrap();
            let report = metrics::compare(&data, &restored).unwrap();
            assert!(report.within_bound(1e-3 + 1e-9), "{}: max={}", codec.name(), report.max_abs_error);
        }
    }

    #[test]
    fn chunked_zfp_round_trips_in_parallel() {
        let data = field();
        let config = CodecConfig::Zfp(ZfpConfig::abs(1e-3).with_threads(4));
        let outcome = config.codec().compress(&data, &config).unwrap();
        assert!(outcome.chunks > 1);
        let restored = config.codec().decompress_with_threads::<f32>(&outcome.blob, 4).unwrap();
        assert!(metrics::compare(&data, &restored).unwrap().within_bound(1e-3 + 1e-9));
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let data = field();
        let sz_cfg = CodecConfig::Sz(LossyConfig::sz3_abs(1e-3));
        let zfp_cfg = CodecConfig::zfp_abs(1e-3);
        assert!(matches!(ZfpCodec.compress(&data, &sz_cfg), Err(SzError::InvalidConfig(_))));
        assert!(matches!(SzCodec.compress(&data, &zfp_cfg), Err(SzError::InvalidConfig(_))));
        assert!(SzCodec.estimate_ratio_sampled(&data, &zfp_cfg, 10).is_err());
        assert!(ZfpCodec.estimate_ratio_sampled(&data, &sz_cfg, 10).is_err());
    }

    #[test]
    fn decompressing_with_the_wrong_codec_is_rejected() {
        let data = field();
        let sz_blob = SzCodec.compress(&data, &CodecConfig::Sz(LossyConfig::sz3_abs(1e-3))).unwrap().blob;
        assert!(matches!(ZfpCodec.decompress::<f32>(&sz_blob), Err(SzError::InvalidConfig(_))));
        assert!(SzCodec.decompress::<f32>(&sz_blob).is_ok());
    }

    #[test]
    fn estimates_are_positive_and_track_the_bound() {
        let data = Dataset::from_fn(vec![40, 40], |i| ((i[0] + i[1]) as f32 * 0.05).sin());
        for (loose, tight) in [
            (CodecConfig::Sz(LossyConfig::sz3_abs(1e-2)), CodecConfig::Sz(LossyConfig::sz3_abs(1e-5))),
            (CodecConfig::zfp_abs(1e-2), CodecConfig::zfp_abs(1e-5)),
        ] {
            let rl = loose.codec().estimate_ratio_sampled(&data, &loose, 5).unwrap();
            let rt = tight.codec().estimate_ratio_sampled(&data, &tight, 5).unwrap();
            assert!(rl > 0.0 && rt > 0.0);
            assert!(rl > rt, "{}: loose {rl} <= tight {rt}", loose.name());
        }
    }

    #[test]
    fn config_accessors_are_uniform() {
        let cfg = CodecConfig::Sz(LossyConfig::sz3(1e-3)).with_threads(6);
        assert_eq!(cfg.threads(), 6);
        assert_eq!(cfg.name(), "sz");
        let z = CodecConfig::zfp_abs(1e-4).with_threads(3);
        assert_eq!(z.threads(), 3);
        assert_eq!(z.name(), "zfp");
        assert!(z.validate().is_ok());
        assert_eq!(z.error_bound(), ErrorBound::Abs(1e-4));
        assert!(CodecConfig::zfp_abs(0.0).validate().is_err());
    }
}
