//! Error-bounded lossy compression framework for scientific floating-point data.
//!
//! This crate is a from-scratch Rust implementation of the *prediction-based*
//! error-bounded lossy compression model used by the SZ family of compressors
//! (SZ2 [Liang et al. 2018], SZ3 [Liang et al. 2022]), plus a simplified
//! transform-based codec in the spirit of ZFP [Lindstrom 2014]. It is the
//! compression substrate of the Ocelot data-transfer framework.
//!
//! # Model
//!
//! A prediction-based compressor decorrelates data with a *predictor*
//! (Lorenzo, block regression, or multilevel spline interpolation), converts
//! prediction errors to integer *quantization bins* at a granularity of twice
//! the error bound (guaranteeing `|value − reconstructed| ≤ eb` pointwise),
//! and entropy-codes the bins (canonical Huffman followed by an LZ77-style
//! dictionary stage). Values whose bins overflow the quantizer radius are
//! stored verbatim ("unpredictable" values).
//!
//! # Quickstart
//!
//! Start from a preset ([`LossyConfig::sz3_abs`] here) and adjust it with
//! the `with_*` methods, compress — the
//! [`CompressionOutcome`] carries the blob plus ratio/statistics — and
//! decompress (optionally with a worker pool over the blob's chunks):
//!
//! ```
//! use ocelot_sz::{Dataset, LossyConfig, compress, decompress};
//!
//! # fn main() -> Result<(), ocelot_sz::SzError> {
//! let data = Dataset::from_fn(vec![16, 16, 16], |idx| {
//!     (idx[0] as f32 * 0.1).sin() + (idx[1] as f32 * 0.05).cos() + idx[2] as f32 * 0.01
//! });
//! let config = LossyConfig::sz3_abs(1e-3).with_threads(4);
//! let outcome = compress(&data, &config)?;
//! assert!(outcome.ratio > 1.0);
//! let restored = decompress::<f32>(&outcome.blob)?;
//! for (a, b) in data.values().iter().zip(restored.values()) {
//!     assert!((a - b).abs() <= 1e-3 + 1e-6);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! Codec-agnostic callers (planners, CLIs) should go through the
//! [`Codec`] trait and [`CodecConfig`] enum in [`codec`], which cover both
//! this prediction pipeline and the transform codec in [`zfp`].

pub mod checksum;
pub mod codec;
pub mod config;
pub mod cost;
pub mod encode;
pub mod engine;
pub mod error;
pub mod format;
pub mod metrics;
pub mod ndarray;
pub mod pipeline;
pub mod predict;
pub mod quantizer;
pub mod sample;
pub mod stats;
pub mod value;
pub mod zfp;

pub use codec::{AnyCodec, Codec, CodecConfig, SzCodec, ZfpCodec, ZfpConfig};
pub use config::{ErrorBound, LosslessBackend, LossyConfig, PredictorKind};
pub use encode::HuffmanTable;
pub use error::SzError;
pub use format::CompressedBlob;
pub use metrics::QualityReport;
pub use ndarray::{Dataset, DatasetView};
pub use pipeline::{
    compress, compress_streamed, decode_chunk_into, decompress, decompress_with_threads, embedded_table,
    CompressionOutcome, StreamedChunk,
};
pub use value::ScalarValue;
