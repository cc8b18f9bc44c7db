//! Deterministic compression-work model.
//!
//! End-to-end experiments need per-dataset compression/decompression *times
//! on the paper's machines*, which cannot be measured here (and wall-clock
//! measurements would make every experiment non-reproducible). Instead, time
//! is modelled as work proportional to the data size with coefficients that
//! depend on what the compressor actually does per point: prediction,
//! quantization, entropy coding (cost grows with the quantization-bin
//! entropy — more distinct symbols mean deeper Huffman codes and worse
//! branch behaviour, the effect behind the paper's Fig 4), and verbatim
//! copies for unpredictable points.
//!
//! Coefficients are calibrated against the paper's Table V single-core
//! timings on the Bebop KNL partition (CESM 1800×3600 ≈ 1.5 s, RTM
//! 449×449×235 ≈ 13 s, Nyx 512³ ≈ 35 s); a per-machine speed factor scales
//! them elsewhere. The standalone `benchmark/` package measures the *real*
//! Rust implementation separately — the model is for simulated clusters only.

use crate::config::PredictorKind;
use crate::stats::QuantBinStats;

/// Reference per-point costs, in microseconds on one Bebop-KNL-class core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-point cost: load, quantize, store.
    pub base_us: f64,
    /// Additional per-point cost per bit of quantization entropy.
    pub entropy_us: f64,
    /// Additional per-point cost for an unpredictable (verbatim) point.
    pub unpredictable_us: f64,
    /// Predictor-specific per-point multiplier.
    pub predictor_factor: f64,
    /// Decompression cost as a fraction of compression cost (decoding skips
    /// the split search / fitting work).
    pub decompress_fraction: f64,
}

impl CostModel {
    /// Calibrated model for a predictor (see module docs).
    pub fn for_predictor(predictor: PredictorKind) -> Self {
        let predictor_factor = match predictor {
            PredictorKind::Lorenzo => 1.0,
            PredictorKind::Regression => 1.25,
            PredictorKind::InterpLinear => 1.05,
            PredictorKind::InterpCubic => 1.15,
        };
        CostModel {
            base_us: 0.21,
            entropy_us: 0.030,
            unpredictable_us: 0.45,
            predictor_factor,
            decompress_fraction: 0.45,
        }
    }

    /// Single-core compression time in seconds for `n_points` with the given
    /// bin statistics.
    pub fn compression_seconds(&self, n_points: usize, stats: &QuantBinStats) -> f64 {
        let per_point =
            (self.base_us + self.entropy_us * stats.quant_entropy + self.unpredictable_us * stats.unpredictable)
                * self.predictor_factor;
        n_points as f64 * per_point * 1e-6
    }

    /// Single-core decompression time in seconds.
    pub fn decompression_seconds(&self, n_points: usize, stats: &QuantBinStats) -> f64 {
        self.compression_seconds(n_points, stats) * self.decompress_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(entropy: f64, unpred: f64) -> QuantBinStats {
        QuantBinStats { p0: 0.8, cap_p0: 0.5, quant_entropy: entropy, r_rle: 2.0, unpredictable: unpred }
    }

    #[test]
    fn calibration_matches_table_v_magnitudes() {
        // CESM field: 1800×3600 = 6.48 M points, H(q) ≈ 2 → ≈ 1.5 s.
        let m = CostModel::for_predictor(PredictorKind::InterpCubic);
        let cesm = m.compression_seconds(1800 * 3600, &stats(2.0, 0.001));
        assert!((1.0..3.0).contains(&cesm), "cesm={cesm}");
        // Nyx field: 512³ = 134 M points → ≈ 30–45 s.
        let nyx = m.compression_seconds(512 * 512 * 512, &stats(2.5, 0.002));
        assert!((25.0..55.0).contains(&nyx), "nyx={nyx}");
    }

    #[test]
    fn higher_entropy_costs_more() {
        let m = CostModel::for_predictor(PredictorKind::Lorenzo);
        let lo = m.compression_seconds(1_000_000, &stats(0.5, 0.0));
        let hi = m.compression_seconds(1_000_000, &stats(6.0, 0.0));
        assert!(hi > lo * 1.3, "hi={hi} lo={lo}");
    }

    #[test]
    fn decompression_is_cheaper() {
        let m = CostModel::for_predictor(PredictorKind::InterpCubic);
        let s = stats(2.0, 0.0);
        assert!(m.decompression_seconds(1_000_000, &s) < m.compression_seconds(1_000_000, &s));
    }

    #[test]
    fn cost_scales_linearly_with_points() {
        let m = CostModel::for_predictor(PredictorKind::Regression);
        let s = stats(1.0, 0.01);
        let t1 = m.compression_seconds(1_000_000, &s);
        let t2 = m.compression_seconds(2_000_000, &s);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
