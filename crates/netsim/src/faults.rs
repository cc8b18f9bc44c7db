//! Transfer-fault injection: Globus's headline feature is *reliable*
//! third-party transfer — failed files are automatically retried. This
//! module models per-file failure/retry so pipelines can be evaluated under
//! flaky WAN conditions (an extension beyond the paper's evaluation, which
//! ran on healthy links).

use crate::gridftp::{simulate_transfer_detailed, GridFtpConfig, TransferReport};
use crate::link::LinkProfile;
use serde::{Deserialize, Serialize};

/// Failure/retry behaviour for a batch transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Probability that any single file-transfer attempt fails.
    pub per_attempt_failure_prob: f64,
    /// Retries per file before it is abandoned (Globus retries by default).
    pub max_retries: u32,
    /// Control-channel reconnect cost paid per failed attempt, seconds.
    pub reconnect_s: f64,
}

impl FaultModel {
    /// A healthy link: nothing fails.
    pub fn none() -> Self {
        FaultModel { per_attempt_failure_prob: 0.0, max_retries: 0, reconnect_s: 0.0 }
    }

    /// A flaky WAN: attempts fail with probability `p`, up to 5 retries,
    /// 2 s reconnects.
    pub fn flaky(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "failure probability must be in [0,1)");
        FaultModel { per_attempt_failure_prob: p, max_retries: 5, reconnect_s: 2.0 }
    }

    /// What the chunk ledger attributes this model's failed attempts to; its
    /// `Display` is the cause text of `fault` events and forensics dumps.
    pub fn cause(&self) -> ocelot_obs::ledger::FaultCause {
        ocelot_obs::ledger::FaultCause {
            per_attempt_failure_prob: self.per_attempt_failure_prob,
            reconnect_s: self.reconnect_s,
        }
    }
}

/// One item's deterministic fault outcome under a [`FaultModel`]: the
/// partial-payload fraction of every failed attempt, in attempt order, and
/// whether retries were exhausted.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDraw {
    /// Fraction of the payload the link moved before each failed attempt
    /// died (one entry per failure).
    pub failed_fracs: Vec<f64>,
    /// True when the final attempt also failed (item abandoned).
    pub abandoned: bool,
}

impl FaultDraw {
    /// Attempts made: failures plus the final try (successful or not).
    pub fn attempts(&self) -> u32 {
        self.failed_fracs.len() as u32 + u32::from(!self.abandoned)
    }
}

/// Draws item `index`'s fault schedule for `seed` — the same deterministic
/// draws [`simulate_transfer_with_faults`] makes, exposed so the streamed
/// orchestrator can inject identical per-chunk faults and the chunk ledger
/// can attribute them.
pub fn draw_faults(faults: &FaultModel, seed: u64, index: usize) -> FaultDraw {
    let mut failed_fracs = Vec::new();
    let mut attempt = 0u32;
    loop {
        let u = uniform01(seed ^ 0xFAB7, (index as u64) << 8 | attempt as u64);
        if u >= faults.per_attempt_failure_prob {
            return FaultDraw { failed_fracs, abandoned: false };
        }
        failed_fracs.push(uniform01(seed ^ 0xDEAD, (index as u64) << 8 | attempt as u64));
        if attempt >= faults.max_retries {
            return FaultDraw { failed_fracs, abandoned: true };
        }
        attempt += 1;
    }
}

/// Report of a transfer under fault injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyTransferReport {
    /// The underlying transfer report (duration includes retry work; bytes
    /// count only the *successful* payload).
    pub report: TransferReport,
    /// Total failed attempts across all files.
    pub retries: usize,
    /// Indices of files abandoned after exhausting retries.
    pub failed_files: Vec<usize>,
    /// Wasted bytes (partial transfers of failed attempts).
    pub wasted_bytes: u64,
    /// Attempts made per file (1 = first try succeeded; abandoned files
    /// show `max_retries + 1`). Lets callers audit exactly which files were
    /// flaky rather than only the aggregate retry count.
    pub attempts: Vec<u32>,
    /// When each file's first attempt went onto the link, seconds from the
    /// start of the transfer.
    pub start_s: Vec<f64>,
    /// When each file's last attempt ended: its arrival, or for an
    /// abandoned file the end of its last failed attempt. Reconnect costs
    /// are charged to the batch (`report.duration_s`), not to any file.
    pub completion_s: Vec<f64>,
}

/// SplitMix64-derived uniform in `[0, 1)`.
fn uniform01(seed: u64, k: u64) -> f64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5851_F42D_4C95_7F2D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Simulates a batch transfer with per-attempt failures and retries.
///
/// Each failed attempt wastes a deterministic fraction of the file's bytes
/// (the link moved them before the failure) plus the reconnect cost; the
/// wasted work is injected into the fluid simulation as extra pseudo-files,
/// so retries compete for the same bandwidth and handling capacity as real
/// traffic.
pub fn simulate_transfer_with_faults(
    files: &[u64],
    link: &LinkProfile,
    config: &GridFtpConfig,
    faults: &FaultModel,
    seed: u64,
) -> FaultyTransferReport {
    let mut work: Vec<u64> = Vec::with_capacity(files.len());
    let mut retries = 0usize;
    let mut failed_files = Vec::new();
    let mut wasted_bytes = 0u64;
    let mut reconnect_total = 0.0f64;
    let mut successful_bytes = 0u64;
    let mut attempts = Vec::with_capacity(files.len());
    // Each file's attempts are a run of consecutive pseudo-files in `work`.
    let mut runs = Vec::with_capacity(files.len());

    for (i, &size) in files.iter().enumerate() {
        let first = work.len();
        let draw = draw_faults(faults, seed, i);
        // Each failed attempt moved a deterministic partial payload first.
        for &frac in &draw.failed_fracs {
            let partial = (size as f64 * frac) as u64;
            work.push(partial);
            wasted_bytes += partial;
            reconnect_total += faults.reconnect_s;
            retries += 1;
        }
        if draw.abandoned {
            failed_files.push(i);
        } else {
            work.push(size);
            successful_bytes += size;
        }
        attempts.push(draw.attempts());
        runs.push((first, work.len() - 1));
    }

    let detail = simulate_transfer_detailed(&work, None, link, config, seed);
    let start_s = runs.iter().map(|&(a, _)| detail.start_s[a]).collect();
    let completion_s = runs.iter().map(|&(_, b)| detail.completion_s[b]).collect();
    let mut report = detail.report;
    // Reconnects serialize on the control channels, like command handling.
    report.duration_s += reconnect_total / config.concurrency as f64;
    report.bytes_total = successful_bytes;
    report.n_files = files.len() - failed_files.len();
    report.effective_speed_bps =
        if report.duration_s > 0.0 { successful_bytes as f64 / report.duration_s } else { 0.0 };
    FaultyTransferReport { report, retries, failed_files, wasted_bytes, attempts, start_s, completion_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridftp::simulate_transfer;

    fn link() -> LinkProfile {
        LinkProfile::new(1.0e9, 0.05, 0.02, 0.0)
    }

    #[test]
    fn no_faults_matches_plain_simulation() {
        let files = vec![50_000_000u64; 40];
        let cfg = GridFtpConfig::default();
        let plain = simulate_transfer(&files, &link(), &cfg, 3);
        let faulty = simulate_transfer_with_faults(&files, &link(), &cfg, &FaultModel::none(), 3);
        assert_eq!(faulty.report, plain);
        assert_eq!(faulty.retries, 0);
        assert!(faulty.failed_files.is_empty());
        assert!(faulty.attempts.iter().all(|&a| a == 1));
        let detail = simulate_transfer_detailed(&files, None, &link(), &cfg, 3);
        assert_eq!((faulty.start_s, faulty.completion_s), (detail.start_s, detail.completion_s));
    }

    #[test]
    fn flakier_links_take_longer() {
        let files = vec![50_000_000u64; 60];
        let cfg = GridFtpConfig::default();
        let mild = simulate_transfer_with_faults(&files, &link(), &cfg, &FaultModel::flaky(0.05), 3);
        let harsh = simulate_transfer_with_faults(&files, &link(), &cfg, &FaultModel::flaky(0.4), 3);
        assert!(harsh.report.duration_s > mild.report.duration_s);
        assert!(harsh.retries > mild.retries);
        assert!(harsh.wasted_bytes > mild.wasted_bytes);
    }

    #[test]
    fn retries_eventually_deliver_everything_at_moderate_rates() {
        let files = vec![10_000_000u64; 100];
        let r = simulate_transfer_with_faults(&files, &link(), &GridFtpConfig::default(), &FaultModel::flaky(0.2), 9);
        // P(6 consecutive failures) = 0.2^6 = 6.4e-5: all 100 files land.
        assert!(r.failed_files.is_empty(), "failed {:?}", r.failed_files);
        assert_eq!(r.report.bytes_total, 100 * 10_000_000);
        // Per-file attempt counts reconcile with the aggregate retry count.
        assert_eq!(r.attempts.len(), files.len());
        let total_tries: usize = r.attempts.iter().map(|&a| a as usize).sum();
        assert_eq!(total_tries - files.len(), r.retries);
        // A file's attempts run between its first start and its arrival.
        assert!(r.start_s.iter().zip(&r.completion_s).all(|(a, b)| a < b && *b <= r.report.duration_s));
    }

    #[test]
    fn hopeless_links_abandon_files() {
        let files = vec![1_000_000u64; 50];
        let faults = FaultModel { per_attempt_failure_prob: 0.95, max_retries: 1, reconnect_s: 1.0 };
        let r = simulate_transfer_with_faults(&files, &link(), &GridFtpConfig::default(), &faults, 5);
        assert!(!r.failed_files.is_empty());
        assert!(r.report.n_files < 50);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let files = vec![20_000_000u64; 30];
        let f = FaultModel::flaky(0.3);
        let a = simulate_transfer_with_faults(&files, &link(), &GridFtpConfig::default(), &f, 11);
        let b = simulate_transfer_with_faults(&files, &link(), &GridFtpConfig::default(), &f, 11);
        assert_eq!(a, b);
        let c = simulate_transfer_with_faults(&files, &link(), &GridFtpConfig::default(), &f, 12);
        // Different seeds draw different failure patterns (durations differ
        // even when retry *counts* coincide).
        assert_ne!(a.report.duration_s, c.report.duration_s);
    }
}
