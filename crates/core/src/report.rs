//! The time breakdown of one end-to-end transfer.

use serde::{Deserialize, Serialize};

/// Phase-by-phase timing of one end-to-end transfer (Table VIII columns).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Batch-queue waiting before compression nodes were granted.
    pub queue_wait_s: f64,
    /// Parallel compression (including source-side I/O), `CPTime`.
    pub compression_s: f64,
    /// File-grouping overhead (zero when grouping is off).
    pub grouping_s: f64,
    /// WAN transfer time `T`.
    pub transfer_s: f64,
    /// Parallel decompression (including destination-side I/O), `DPTime`.
    pub decompression_s: f64,
    /// Bytes that crossed the WAN.
    pub bytes_transferred: u64,
    /// Number of files that crossed the WAN.
    pub files_transferred: usize,
}

impl TimeBreakdown {
    /// The additive sum of the phases: the paper's `Total T`, and the end
    /// of a staged run. A pipelined run's phases overlap, so this
    /// double-counts it; its end is `PipelineOutcome::end_s`.
    pub fn total_s(&self) -> f64 {
        self.queue_wait_s + self.compression_s + self.grouping_s + self.transfer_s + self.decompression_s
    }

    /// Effective WAN speed in bytes/second.
    pub fn effective_speed_bps(&self) -> f64 {
        if self.transfer_s > 0.0 {
            self.bytes_transferred as f64 / self.transfer_s
        } else {
            0.0
        }
    }

    /// The paper's `Reduced` column: `(T(NP) − Total T) / T(NP)`.
    pub fn reduction_vs(&self, baseline_total_s: f64) -> f64 {
        if baseline_total_s > 0.0 {
            (baseline_total_s - self.total_s()) / baseline_total_s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_sum_of_phases() {
        let b = TimeBreakdown {
            queue_wait_s: 1.0,
            compression_s: 2.0,
            grouping_s: 0.5,
            transfer_s: 3.0,
            decompression_s: 1.5,
            bytes_transferred: 100,
            files_transferred: 2,
        };
        assert!((b.total_s() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn reduction_matches_paper_definition() {
        let b = TimeBreakdown { transfer_s: 40.0, ..Default::default() };
        assert!((b.reduction_vs(100.0) - 0.6).abs() < 1e-12);
        assert_eq!(b.reduction_vs(0.0), 0.0);
    }

    #[test]
    fn effective_speed() {
        let b = TimeBreakdown { transfer_s: 2.0, bytes_transferred: 10, ..Default::default() };
        assert_eq!(b.effective_speed_bps(), 5.0);
        let z = TimeBreakdown::default();
        assert_eq!(z.effective_speed_bps(), 0.0);
    }
}
