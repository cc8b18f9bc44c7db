//! Compressor configuration: error bounds, predictor selection, and lossless
//! backend selection ("config-based features" in the paper's terminology).

use crate::error::SzError;
use crate::ndarray::Dataset;
use crate::value::ScalarValue;
use serde::{Deserialize, Serialize};

/// User-specified error bound for lossy compression.
///
/// The compressor guarantees `|original − reconstructed| ≤ eb` for every
/// point, where `eb` is the *absolute* bound after resolving a relative bound
/// against the dataset's value range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ErrorBound {
    /// Absolute pointwise bound.
    Abs(f64),
    /// Bound relative to the dataset value range: `eb = rel × (max − min)`.
    ///
    /// This is the mode the paper's experiments use (error bounds 1e-6..1e-1
    /// are value-range-relative).
    Rel(f64),
}

impl ErrorBound {
    /// Resolves the bound to an absolute value for a given dataset.
    ///
    /// A relative bound on a constant dataset (range 0) resolves to a tiny
    /// positive epsilon so that quantization remains well-defined.
    pub fn resolve<T: ScalarValue>(&self, data: &Dataset<T>) -> f64 {
        self.resolve_with(|| data.value_range())
    }

    /// [`ErrorBound::resolve`] against a dataset whose value range
    /// (`max − min`, as [`Dataset::value_range`]) is `range()` — called only
    /// for a relative bound.
    pub(crate) fn resolve_with(&self, range: impl FnOnce() -> f64) -> f64 {
        match *self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => {
                let range = range();
                if range > 0.0 {
                    rel * range
                } else {
                    f64::MIN_POSITIVE.max(rel * 1e-30)
                }
            }
        }
    }

    /// The raw numeric bound (absolute value or relative fraction).
    pub fn raw(&self) -> f64 {
        match *self {
            ErrorBound::Abs(v) | ErrorBound::Rel(v) => v,
        }
    }

    /// Validates that the bound is positive and finite.
    pub fn validate(&self) -> Result<(), SzError> {
        let v = self.raw();
        if !(v.is_finite() && v > 0.0) {
            return Err(SzError::InvalidConfig(format!("error bound must be positive and finite, got {v}")));
        }
        Ok(())
    }
}

/// Decorrelation predictor used by the compression pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Classic first-order Lorenzo predictor (1-/2-/3-D).
    Lorenzo,
    /// SZ2-style hybrid: per-block choice between Lorenzo and linear
    /// regression fitted over each block.
    Regression,
    /// SZ3-style multilevel spline interpolation with linear basis.
    InterpLinear,
    /// SZ3-style multilevel spline interpolation with cubic basis
    /// (the paper's default "SZ-interp" algorithm).
    InterpCubic,
}

impl PredictorKind {
    /// All predictors, in the order used for profiling sweeps.
    pub const ALL: [PredictorKind; 4] =
        [PredictorKind::Lorenzo, PredictorKind::Regression, PredictorKind::InterpLinear, PredictorKind::InterpCubic];

    /// Stable short name (used as the discrete "compressor type" feature fed
    /// to the quality-prediction model).
    pub fn name(&self) -> &'static str {
        match self {
            PredictorKind::Lorenzo => "lorenzo",
            PredictorKind::Regression => "regression",
            PredictorKind::InterpLinear => "interp-linear",
            PredictorKind::InterpCubic => "interp-cubic",
        }
    }

    /// Numeric id used as a categorical model feature.
    pub fn id(&self) -> u8 {
        match self {
            PredictorKind::Lorenzo => 0,
            PredictorKind::Regression => 1,
            PredictorKind::InterpLinear => 2,
            PredictorKind::InterpCubic => 3,
        }
    }
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lossless entropy/dictionary stage applied to quantization bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LosslessBackend {
    /// Canonical Huffman coding only.
    Huffman,
    /// Huffman followed by an LZ77 dictionary pass (SZ3's default shape:
    /// Huffman + Zstd; our LZ stage plays Zstd's role).
    HuffmanLz,
    /// Zero-run-length coding followed by Huffman (effective at large error
    /// bounds where bins are overwhelmingly zero).
    RleHuffman,
}

impl LosslessBackend {
    /// Stable short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LosslessBackend::Huffman => "huffman",
            LosslessBackend::HuffmanLz => "huffman+lz",
            LosslessBackend::RleHuffman => "rle+huffman",
        }
    }
}

impl std::fmt::Display for LosslessBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Complete configuration of a prediction-based compression pipeline.
///
/// Construct with one of the presets ([`LossyConfig::sz3`],
/// [`LossyConfig::sz2`], [`LossyConfig::lorenzo`]) and customize fields via
/// the `with_*` methods.
///
/// ```
/// use ocelot_sz::config::{LosslessBackend, LossyConfig, PredictorKind};
///
/// let cfg = LossyConfig::sz3_abs(1e-3)
///     .with_predictor(PredictorKind::Regression)
///     .with_backend(LosslessBackend::RleHuffman)
///     .with_threads(4);
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.predictor.name(), "regression");
/// assert_eq!(cfg.threads, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossyConfig {
    /// Pointwise error bound.
    pub error_bound: ErrorBound,
    /// Decorrelation predictor.
    pub predictor: PredictorKind,
    /// Lossless backend applied to quantization bins.
    pub backend: LosslessBackend,
    /// Quantizer radius: bins span `[-radius, radius)`; values outside are
    /// stored verbatim. SZ's default corresponds to 2^15.
    pub quant_radius: u32,
    /// Worker threads for chunk-parallel compression. `1` (the default)
    /// compresses the dataset as a single chunk, reproducing the serial
    /// pipeline's stream.
    pub threads: usize,
    /// Target points per chunk. `None` derives the chunk size from
    /// `threads` (two slabs per worker); an explicit value pins the chunk
    /// layout — and therefore the output bytes — independent of `threads`.
    pub chunk_points: Option<usize>,
}

impl LossyConfig {
    /// SZ3 preset (cubic interpolation + Huffman + LZ) with a relative bound.
    pub fn sz3(rel_eb: f64) -> Self {
        LossyConfig {
            error_bound: ErrorBound::Rel(rel_eb),
            predictor: PredictorKind::InterpCubic,
            backend: LosslessBackend::HuffmanLz,
            quant_radius: 1 << 15,
            threads: 1,
            chunk_points: None,
        }
    }

    /// SZ3 preset with an absolute bound.
    pub fn sz3_abs(abs_eb: f64) -> Self {
        LossyConfig { error_bound: ErrorBound::Abs(abs_eb), ..Self::sz3(0.0) }
    }

    /// SZ2 preset (block regression/Lorenzo hybrid + Huffman + LZ).
    pub fn sz2(rel_eb: f64) -> Self {
        LossyConfig { error_bound: ErrorBound::Rel(rel_eb), predictor: PredictorKind::Regression, ..Self::sz3(0.0) }
    }

    /// Pure Lorenzo preset (SZ1.4-style pipeline).
    pub fn lorenzo(rel_eb: f64) -> Self {
        LossyConfig {
            error_bound: ErrorBound::Rel(rel_eb),
            predictor: PredictorKind::Lorenzo,
            backend: LosslessBackend::Huffman,
            ..Self::sz3(0.0)
        }
    }

    /// Replaces the error bound.
    pub fn with_error_bound(mut self, eb: ErrorBound) -> Self {
        self.error_bound = eb;
        self
    }

    /// Replaces the predictor.
    pub fn with_predictor(mut self, p: PredictorKind) -> Self {
        self.predictor = p;
        self
    }

    /// Replaces the lossless backend.
    pub fn with_backend(mut self, b: LosslessBackend) -> Self {
        self.backend = b;
        self
    }

    /// Replaces the quantizer radius.
    pub fn with_quant_radius(mut self, r: u32) -> Self {
        self.quant_radius = r;
        self
    }

    /// Replaces the worker-thread count for chunk-parallel compression.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the target points-per-chunk (`None` derives it from
    /// `threads`).
    pub fn with_chunk_points(mut self, points: Option<usize>) -> Self {
        self.chunk_points = points;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`SzError::InvalidConfig`] if the error bound is non-positive,
    /// the quantizer radius is too small to hold any bin, the thread count is
    /// zero, or an explicit chunk size is zero.
    pub fn validate(&self) -> Result<(), SzError> {
        self.error_bound.validate()?;
        if self.threads == 0 {
            return Err(SzError::InvalidConfig("thread count must be at least 1".into()));
        }
        if self.chunk_points == Some(0) {
            return Err(SzError::InvalidConfig("chunk size must be at least 1 point".into()));
        }
        if self.quant_radius < 2 {
            return Err(SzError::InvalidConfig(format!(
                "quantizer radius must be at least 2, got {}",
                self.quant_radius
            )));
        }
        if self.quant_radius > (1 << 24) {
            return Err(SzError::InvalidConfig(format!(
                "quantizer radius {} exceeds the supported maximum of 2^24",
                self.quant_radius
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_bound_resolves_against_range() {
        let d = Dataset::new(vec![4], vec![0.0f32, 1.0, 2.0, 4.0]).unwrap();
        let eb = ErrorBound::Rel(1e-2).resolve(&d);
        assert!((eb - 0.04).abs() < 1e-12);
    }

    #[test]
    fn relative_bound_on_constant_data_is_positive() {
        let d = Dataset::<f32>::constant(vec![8], 3.0).unwrap();
        assert!(ErrorBound::Rel(1e-3).resolve(&d) > 0.0);
    }

    #[test]
    fn absolute_bound_passes_through() {
        let d = Dataset::<f64>::constant(vec![2], 0.0).unwrap();
        assert_eq!(ErrorBound::Abs(0.5).resolve(&d), 0.5);
    }

    #[test]
    fn validate_rejects_nonpositive_bounds() {
        assert!(ErrorBound::Abs(0.0).validate().is_err());
        assert!(ErrorBound::Rel(-1.0).validate().is_err());
        assert!(ErrorBound::Abs(f64::NAN).validate().is_err());
        assert!(ErrorBound::Abs(1e-6).validate().is_ok());
    }

    #[test]
    fn config_validate_checks_radius() {
        let cfg = LossyConfig::sz3(1e-3).with_quant_radius(1);
        assert!(cfg.validate().is_err());
        let cfg = LossyConfig::sz3(1e-3).with_quant_radius(1 << 25);
        assert!(cfg.validate().is_err());
        assert!(LossyConfig::sz3(1e-3).validate().is_ok());
    }

    #[test]
    fn predictor_ids_are_unique() {
        let mut ids: Vec<u8> = PredictorKind::ALL.iter().map(|p| p.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), PredictorKind::ALL.len());
    }

    #[test]
    fn presets_have_expected_shape() {
        assert_eq!(LossyConfig::sz3(1e-3).predictor, PredictorKind::InterpCubic);
        assert_eq!(LossyConfig::sz2(1e-3).predictor, PredictorKind::Regression);
        assert_eq!(LossyConfig::lorenzo(1e-3).backend, LosslessBackend::Huffman);
    }

    #[test]
    fn config_serde_round_trip() {
        let cfg = LossyConfig::sz3(1e-4).with_threads(4).with_chunk_points(Some(1 << 16));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: LossyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn validate_rejects_zero_threads_and_zero_chunk() {
        assert!(LossyConfig::sz3(1e-3).with_threads(0).validate().is_err());
        assert!(LossyConfig::sz3(1e-3).with_chunk_points(Some(0)).validate().is_err());
        assert!(LossyConfig::sz3_abs(1e-3).with_threads(0).validate().is_err());
    }
}
