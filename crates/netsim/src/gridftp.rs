//! Fluid-flow simulation of a GridFTP/Globus batch transfer.
//!
//! The simulation advances through two kinds of events: *command releases*
//! (each of the `concurrency` control channels processes one file command
//! every `per_file_overhead` seconds, so commands release at a global spacing
//! of `overhead / concurrency`) and *file completions*. Between events, link
//! bandwidth is shared max–min fairly across active files, each capped at
//! `parallelism × stream_rate` (a single file cannot exceed its TCP streams'
//! aggregate rate).

use crate::link::LinkProfile;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// GridFTP transfer tuning (concurrency / parallelism / pipelining).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridFtpConfig {
    /// Number of concurrent file transfers (separate FTP sessions).
    pub concurrency: usize,
    /// TCP streams per file.
    pub parallelism: u32,
    /// Achievable rate per TCP stream, bytes/second.
    pub stream_rate_bps: f64,
    /// Whether command pipelining is enabled (without it every command also
    /// pays one RTT).
    pub pipelining: bool,
    /// Per-file in-slot setup before data flows (data-channel establishment
    /// and TCP ramp), seconds. Unlike the control-channel handling cost it
    /// occupies a concurrency slot, so it throttles mid-sized-file batches
    /// (Table II's 10 MB row).
    pub slot_setup_s: f64,
}

impl Default for GridFtpConfig {
    /// The tuned configuration used for the paper's Table VIII transfers.
    fn default() -> Self {
        GridFtpConfig {
            concurrency: 32,
            parallelism: 4,
            stream_rate_bps: 70.0e6,
            pipelining: true,
            slot_setup_s: 0.008,
        }
    }
}

impl GridFtpConfig {
    /// An untuned default-endpoint configuration (low concurrency), matching
    /// the conditions of the paper's Table II measurements.
    pub fn untuned() -> Self {
        GridFtpConfig { concurrency: 4, ..Self::default() }
    }

    /// Per-file throughput cap in bytes/second.
    pub fn per_file_cap_bps(&self) -> f64 {
        self.parallelism as f64 * self.stream_rate_bps
    }
}

/// Outcome of a simulated batch transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferReport {
    /// Wall-clock duration in (simulated) seconds.
    pub duration_s: f64,
    /// Total payload bytes moved.
    pub bytes_total: u64,
    /// Number of files.
    pub n_files: usize,
    /// Effective throughput `bytes_total / duration_s` in bytes/second.
    pub effective_speed_bps: f64,
}

/// Simulates transferring `files` (sizes in bytes) over `link`.
///
/// Zero-byte files cost only their handling overhead. An empty batch returns
/// a zero-duration report.
///
/// # Panics
/// Panics if `config.concurrency == 0` or `config.parallelism == 0`.
pub fn simulate_transfer(files: &[u64], link: &LinkProfile, config: &GridFtpConfig, seed: u64) -> TransferReport {
    simulate_transfer_released(files, None, link, config, seed)
}

/// Like [`simulate_transfer`], but each file only becomes *available* at
/// `release_s[i]` seconds (e.g. when its compression finishes) — the
/// pipelined mode of the paper's Fig 1, where transfer starts on files as
/// soon as they are ready instead of waiting for the whole batch.
///
/// A file's command can be processed no earlier than its release time; the
/// control channels otherwise behave as in the plain simulation. Pass
/// `None` to release everything at time zero.
///
/// # Panics
/// Panics if `release_s` is `Some` with a length different from `files`,
/// contains negative/non-finite times, or the config is invalid.
pub fn simulate_transfer_released(
    files: &[u64],
    release_s: Option<&[f64]>,
    link: &LinkProfile,
    config: &GridFtpConfig,
    seed: u64,
) -> TransferReport {
    simulate_transfer_detailed(files, release_s, link, config, seed).report
}

/// A [`TransferReport`] plus the simulated per-file timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedTransferReport {
    /// The aggregate batch report (identical to what
    /// [`simulate_transfer_released`] returns for the same inputs).
    pub report: TransferReport,
    /// Per-file completion times in seconds, indexed like `files`. The
    /// streaming orchestrator uses these to start each item's decompression
    /// the moment it lands instead of waiting for the batch.
    pub completion_s: Vec<f64>,
    /// Per-file activation times in seconds (when the file claimed a
    /// concurrency slot and its transfer actually began), indexed like
    /// `files`. The chunk ledger records these as `in_flight` events.
    pub start_s: Vec<f64>,
    /// Per-file times at which the file's command became available to the
    /// control channel, indexed like `files`: the caller's release times
    /// (zeros for `None`), raised by [`simulate_transfer_windowed`] to the
    /// landing of the file one window ahead. `release_s[i] − ready_s[i]` is
    /// file `i`'s back-pressure stall.
    pub release_s: Vec<f64>,
}

/// Like [`simulate_transfer_released`], but also records when each file
/// finishes — the hook the streamed pipeline needs to overlap per-chunk
/// decompression with the remaining transfer.
///
/// # Panics
/// Panics under the same conditions as [`simulate_transfer_released`].
pub fn simulate_transfer_detailed(
    files: &[u64],
    release_s: Option<&[f64]>,
    link: &LinkProfile,
    config: &GridFtpConfig,
    seed: u64,
) -> DetailedTransferReport {
    run_event_loop(files, release_s, usize::MAX, link, config, seed)
}

/// Like [`simulate_transfer_detailed`] with a bounded in-flight *window*: at
/// most `window` files may sit between their release and their landing, so
/// file `m`'s command becomes available at
/// `max(ready_s[m], completion_s[m − window])`. The window is a resource of
/// the event loop itself — the control channel blocks until that completion
/// event fires — which is causal (file `m` cannot be active before
/// `m − window` lands, so that landing never depends on `m`) and therefore
/// exact in one pass. The report's `release_s` carries the effective times.
///
/// `window ≥ files.len()` never blocks and is bit-identical to
/// `simulate_transfer_detailed(files, Some(ready_s), …)`.
///
/// # Panics
/// Panics if `window == 0`, and under the same conditions as
/// [`simulate_transfer_released`].
pub fn simulate_transfer_windowed(
    files: &[u64],
    ready_s: &[f64],
    window: usize,
    link: &LinkProfile,
    config: &GridFtpConfig,
    seed: u64,
) -> DetailedTransferReport {
    assert!(window > 0, "window must be positive");
    run_event_loop(files, Some(ready_s), window, link, config, seed)
}

/// The one fluid event loop behind every `simulate_transfer*` entry point.
fn run_event_loop(
    files: &[u64],
    ready_s: Option<&[f64]>,
    window: usize,
    link: &LinkProfile,
    config: &GridFtpConfig,
    seed: u64,
) -> DetailedTransferReport {
    assert!(config.concurrency > 0, "concurrency must be positive");
    assert!(config.parallelism > 0, "parallelism must be positive");
    if let Some(r) = ready_s {
        assert_eq!(r.len(), files.len(), "one release time per file");
        assert!(r.iter().all(|t| t.is_finite() && *t >= 0.0), "release times must be non-negative");
    }
    let n = files.len();
    let bytes_total: u64 = files.iter().sum();
    // A file that has not landed yet completes "at +∞", which is what keeps
    // the window gate below closed.
    let mut completion_s = vec![f64::INFINITY; n];
    let mut start_s = vec![0.0f64; n];
    // Starts as the caller's ready times; the window gate raises entries.
    let mut release_s = ready_s.map_or_else(|| vec![0.0f64; n], <[f64]>::to_vec);
    if files.is_empty() {
        return DetailedTransferReport {
            report: TransferReport { duration_s: 0.0, bytes_total: 0, n_files: 0, effective_speed_bps: 0.0 },
            completion_s,
            start_s,
            release_s,
        };
    }

    // Command spacing: each of `concurrency` control channels handles one
    // file every `per_file_overhead` (+1 RTT without pipelining).
    let per_command = link.per_file_overhead_s + if config.pipelining { 0.0 } else { link.rtt_s };
    let release_spacing = per_command / config.concurrency as f64;

    let mut now = SimTime::ZERO;
    let mut next_file = 0usize; // next file awaiting command release
    let mut channel_free = SimTime::from_secs_f64(release_spacing); // earliest the next command can issue
    let mut next_release: Option<SimTime> = None; // `None` while the window gate is closed
    let mut ready: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut active: Vec<Active> = Vec::with_capacity(config.concurrency);
    let mut last_completion = SimTime::ZERO;
    // Per-event scratch, reused across events: `rates[i]` belongs to
    // `active[i]`, `unfixed` is the water-filling work list.
    let mut rates: Vec<f64> = Vec::with_capacity(config.concurrency);
    let mut unfixed: Vec<usize> = Vec::with_capacity(config.concurrency);

    let activate = |idx: usize, active: &mut Vec<Active>, link: &LinkProfile| {
        let jf = link.jitter_factor(seed, idx as u64);
        active.push(Active {
            index: idx,
            remaining: files[idx] as f64,
            cap: (config.per_file_cap_bps() * jf).max(1.0),
            setup_remaining: config.slot_setup_s,
        });
    };

    loop {
        // Fill free slots from the ready queue.
        while active.len() < config.concurrency {
            match ready.pop_front() {
                Some(idx) => {
                    start_s[idx] = now.as_secs_f64();
                    activate(idx, &mut active, link);
                }
                None => break,
            }
        }
        let commands_remain = next_file < n;
        if active.is_empty() && !commands_remain {
            break;
        }
        // Availability: a command cannot be issued before its file exists
        // and, past the first `window` files, before the file one window
        // ahead has landed. That file was released earlier, so while the
        // gate is closed it is queued or active and a completion is pending.
        if commands_remain && next_release.is_none() {
            let gate = if next_file >= window { completion_s[next_file - window] } else { 0.0 };
            let available = release_s[next_file].max(gate);
            if available.is_finite() {
                release_s[next_file] = available;
                next_release = Some(channel_free.max(SimTime::from_secs_f64(available)));
            }
        }

        // Water-filling among files whose setup has completed; files still
        // in setup hold their slot but move no data.
        rates.clear();
        rates.resize(active.len(), 0.0);
        unfixed.clear();
        unfixed.extend((0..active.len()).filter(|&i| active[i].setup_remaining <= 0.0));
        water_fill(link.bandwidth_bps, |i| active[i].cap, &mut unfixed, &mut rates);

        // Next event: file completion, setup completion, or command release.
        let mut dt_complete = f64::INFINITY;
        for (a, &r) in active.iter().zip(&rates) {
            if a.setup_remaining <= 0.0 {
                let dt = if a.remaining <= 0.0 { 0.0 } else { a.remaining / r.max(1e-9) };
                dt_complete = dt_complete.min(dt);
            } else {
                dt_complete = dt_complete.min(a.setup_remaining);
            }
        }
        let dt_release = next_release.map_or(f64::INFINITY, |t| (t - now).max(0.0));
        let dt = dt_complete.min(dt_release);
        debug_assert!(dt.is_finite(), "no progress possible");

        // Advance time, setups, and bytes.
        now += dt;
        for (a, &r) in active.iter_mut().zip(&rates) {
            if a.setup_remaining > 0.0 {
                a.setup_remaining -= dt;
            } else {
                a.remaining -= r * dt;
            }
        }
        // Process completions (remaining ≤ epsilon bytes).
        let before = active.len();
        active.retain(|a| {
            if a.remaining > 1e-6 {
                true
            } else {
                completion_s[a.index] = now.as_secs_f64();
                false
            }
        });
        if active.len() < before {
            last_completion = now;
        }
        // Process command release.
        if let Some(t) = next_release.filter(|&t| now >= t) {
            ready.push_back(next_file);
            next_file += 1;
            channel_free = t + release_spacing;
            next_release = None;
        }
    }

    let duration_s = last_completion.max(now).as_secs_f64().max(release_spacing * n as f64);
    let effective_speed_bps = if duration_s > 0.0 { bytes_total as f64 / duration_s } else { 0.0 };
    DetailedTransferReport {
        report: TransferReport { duration_s, bytes_total, n_files: n, effective_speed_bps },
        completion_s,
        start_s,
        release_s,
    }
}

/// Max–min fair allocation of `capacity` among the flows listed in
/// `unfixed` (indices into `rates`, which must be zeroed), each capped at
/// `cap(i)`. Consumes the work list.
fn water_fill(capacity: f64, cap: impl Fn(usize) -> f64, unfixed: &mut Vec<usize>, rates: &mut [f64]) {
    let mut remaining_capacity = capacity;
    // Iteratively pin flows whose cap is below the fair share.
    loop {
        if unfixed.is_empty() || remaining_capacity <= 0.0 {
            break;
        }
        let fair = remaining_capacity / unfixed.len() as f64;
        let mut pinned_any = false;
        unfixed.retain(|&i| {
            let cap = cap(i);
            if cap <= fair {
                rates[i] = cap;
                remaining_capacity -= cap;
                pinned_any = true;
                false
            } else {
                true
            }
        });
        if !pinned_any {
            let fair = remaining_capacity / unfixed.len() as f64;
            for &i in unfixed.iter() {
                rates[i] = fair;
            }
            break;
        }
    }
}

/// One in-flight file transfer.
#[derive(Debug, Clone, Copy)]
struct Active {
    /// Position in the input `files` slice (for completion-time recording).
    index: usize,
    remaining: f64,
    cap: f64,
    /// In-slot setup time left before data flows.
    setup_remaining: f64,
}

/// Test oracles for [`simulate_transfer_windowed`], built only from the
/// un-windowed [`simulate_transfer_detailed`].
#[cfg(test)]
mod reference {
    use super::*;

    /// The pre-change window model: the fixpoint the orchestrator's chunk
    /// streaming used to wrap around the whole simulation, verbatim minus
    /// its 32-pass cap.
    ///
    /// Its premise — "releasing later only delays completions" — holds only
    /// while files do not share bandwidth (`concurrency × per-file cap ≤
    /// link`). Under max–min sharing, holding file `m` back *speeds up* the
    /// files ahead of it, the ratchet keeps the release it derived from the
    /// slower early pass, and the loop converges to a release schedule later
    /// than the window requires. It is the oracle in the cap-bound regime.
    pub fn fixpoint(
        wire: &[u64],
        ready: &[f64],
        window: usize,
        link: &LinkProfile,
        config: &GridFtpConfig,
        seed: u64,
    ) -> DetailedTransferReport {
        let mut release = ready.to_vec();
        let mut detail = simulate_transfer_detailed(wire, Some(&release), link, config, seed);
        loop {
            let mut changed = false;
            for m in window..release.len() {
                let want = ready[m].max(detail.completion_s[m - window]);
                if want > release[m] + 1e-6 {
                    release[m] = want;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            detail = simulate_transfer_detailed(wire, Some(&release), link, config, seed);
        }
        detail
    }

    /// The window by construction, for any regime: file `m` cannot be
    /// commanded before `m − window` lands, so that landing is already final
    /// in a simulation of files `0..m` alone. One un-windowed pass per file
    /// over a growing prefix, O(n²) events.
    pub fn prefix_causal(
        wire: &[u64],
        ready: &[f64],
        window: usize,
        link: &LinkProfile,
        config: &GridFtpConfig,
        seed: u64,
    ) -> DetailedTransferReport {
        let mut release = ready.to_vec();
        for m in window..wire.len() {
            let prefix = simulate_transfer_detailed(&wire[..m], Some(&release[..m]), link, config, seed);
            release[m] = ready[m].max(prefix.completion_s[m - window]);
        }
        simulate_transfer_detailed(wire, Some(&release), link, config, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_link() -> LinkProfile {
        LinkProfile::new(1.15e9, 0.05, 0.13, 0.0)
    }

    #[test]
    fn empty_batch_is_zero() {
        let r = simulate_transfer(&[], &test_link(), &GridFtpConfig::default(), 0);
        assert_eq!(r.duration_s, 0.0);
        assert_eq!(r.n_files, 0);
    }

    #[test]
    fn single_large_file_is_cap_limited() {
        let cfg = GridFtpConfig::default();
        let r = simulate_transfer(&[10_000_000_000], &test_link(), &cfg, 0);
        // One file cannot exceed parallelism × stream rate = 280 MB/s.
        let expected = 10_000_000_000.0 / cfg.per_file_cap_bps();
        assert!((r.duration_s - expected).abs() / expected < 0.05, "dur={} expected={expected}", r.duration_s);
    }

    #[test]
    fn many_large_files_are_bandwidth_limited() {
        let files = vec![1_000_000_000u64; 64];
        let r = simulate_transfer(&files, &test_link(), &GridFtpConfig::default(), 0);
        assert!(r.effective_speed_bps > 0.9 * 1.15e9, "speed {} should approach link bandwidth", r.effective_speed_bps);
    }

    #[test]
    fn many_tiny_files_are_command_limited() {
        // Table II regime: 1 MB files at untuned concurrency crawl because
        // command handling dominates.
        let files = vec![1_000_000u64; 2000];
        let r = simulate_transfer(&files, &test_link(), &GridFtpConfig::untuned(), 0);
        let command_floor = 2000.0 * 0.13 / 4.0;
        assert!(r.duration_s >= command_floor * 0.95, "dur={} floor={command_floor}", r.duration_s);
        assert!(r.effective_speed_bps < 0.3 * 1.15e9);
    }

    #[test]
    fn table2_speed_ordering() {
        // 300 GB moved as 1 MB / 10 MB / 100 MB files: effective speed must
        // increase with file size (paper Table II rows 1-3).
        let link = test_link();
        let cfg = GridFtpConfig::untuned();
        let total: u64 = 30_000_000_000; // scaled-down 30 GB for test speed
        let mut speeds = Vec::new();
        for size in [1_000_000u64, 10_000_000, 100_000_000] {
            let files = vec![size; (total / size) as usize];
            speeds.push(simulate_transfer(&files, &link, &cfg, 1).effective_speed_bps);
        }
        assert!(speeds[0] < speeds[1] && speeds[1] < speeds[2], "{speeds:?}");
    }

    #[test]
    fn higher_concurrency_helps_small_files() {
        let files = vec![1_000_000u64; 1000];
        let slow = simulate_transfer(&files, &test_link(), &GridFtpConfig::untuned(), 0);
        let fast = simulate_transfer(&files, &test_link(), &GridFtpConfig::default(), 0);
        assert!(fast.duration_s < slow.duration_s * 0.5, "fast={} slow={}", fast.duration_s, slow.duration_s);
    }

    #[test]
    fn too_few_files_underutilize_the_link() {
        // The Miranda-grouping regression: 4 big files can't fill a fat link.
        let fat = LinkProfile::new(3.9e9, 0.05, 0.13, 0.0);
        let grouped = vec![4_000_000_000u64; 4];
        let many = vec![125_000_000u64; 128];
        let cfg = GridFtpConfig::default();
        let rg = simulate_transfer(&grouped, &fat, &cfg, 0);
        let rm = simulate_transfer(&many, &fat, &cfg, 0);
        assert!(
            rg.effective_speed_bps < rm.effective_speed_bps,
            "grouped {} many {}",
            rg.effective_speed_bps,
            rm.effective_speed_bps
        );
    }

    #[test]
    fn pipelining_off_pays_rtt() {
        let files = vec![1_000_000u64; 500];
        let link = test_link();
        let with = simulate_transfer(&files, &link, &GridFtpConfig::default(), 0);
        let cfg = GridFtpConfig { pipelining: false, ..Default::default() };
        let without = simulate_transfer(&files, &link, &cfg, 0);
        assert!(without.duration_s > with.duration_s);
    }

    #[test]
    fn jitter_changes_duration_slightly() {
        let link = LinkProfile::new(1.15e9, 0.05, 0.13, 0.05);
        let files = vec![500_000_000u64; 40];
        let a = simulate_transfer(&files, &link, &GridFtpConfig::default(), 1);
        let b = simulate_transfer(&files, &link, &GridFtpConfig::default(), 2);
        assert_ne!(a.duration_s, b.duration_s);
        assert!((a.duration_s / b.duration_s - 1.0).abs() < 0.2);
    }

    fn water_fill_all(capacity: f64, caps: &[f64]) -> Vec<f64> {
        let mut rates = vec![0.0; caps.len()];
        water_fill(capacity, |i| caps[i], &mut (0..caps.len()).collect(), &mut rates);
        rates
    }

    #[test]
    fn water_fill_respects_caps_and_capacity() {
        let rates = water_fill_all(100.0, &[10.0, 50.0, 1000.0]);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 45.0).abs() < 1e-9);
        assert!((rates[2] - 45.0).abs() < 1e-9);
        assert!((rates.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_all_capped() {
        assert_eq!(water_fill_all(100.0, &[10.0, 10.0]), vec![10.0, 10.0]);
    }

    #[test]
    fn release_times_delay_the_transfer() {
        let files = vec![100_000_000u64; 16];
        let cfg = GridFtpConfig::default();
        let immediate = simulate_transfer(&files, &test_link(), &cfg, 0);
        // All files become available only at t = 30 s.
        let releases = vec![30.0; 16];
        let delayed = simulate_transfer_released(&files, Some(&releases), &test_link(), &cfg, 0);
        assert!(delayed.duration_s >= 30.0, "duration {}", delayed.duration_s);
        assert!(delayed.duration_s <= immediate.duration_s + 30.0 + 1.0);
    }

    #[test]
    fn staggered_releases_pipeline_with_the_transfer() {
        // Files trickle out of compression at 0.2 s intervals: the transfer
        // overlaps with production, finishing well before sum(production) +
        // batch-transfer time.
        let files = vec![200_000_000u64; 50];
        let releases: Vec<f64> = (0..50).map(|i| i as f64 * 0.2).collect();
        let cfg = GridFtpConfig::default();
        let overlapped = simulate_transfer_released(&files, Some(&releases), &test_link(), &cfg, 0);
        let sequential = 50.0 * 0.2 + simulate_transfer(&files, &test_link(), &cfg, 0).duration_s;
        assert!(overlapped.duration_s < sequential, "{} vs {}", overlapped.duration_s, sequential);
        // And it can never beat the plain batch (files cannot start early).
        assert!(overlapped.duration_s >= simulate_transfer(&files, &test_link(), &cfg, 0).duration_s);
    }

    #[test]
    fn detailed_report_matches_and_orders_completions() {
        let files = vec![400_000_000u64, 100_000_000, 200_000_000];
        let cfg = GridFtpConfig::default();
        let d = simulate_transfer_detailed(&files, None, &test_link(), &cfg, 0);
        let plain = simulate_transfer(&files, &test_link(), &cfg, 0);
        assert_eq!(d.report, plain, "detailed variant must not change the aggregate report");
        assert_eq!(d.completion_s.len(), 3);
        // Every completion is positive and none exceeds the batch duration.
        for &c in &d.completion_s {
            assert!(c > 0.0 && c <= d.report.duration_s + 1e-9, "completion {c} vs {}", d.report.duration_s);
        }
        // The last completion IS the data phase's end.
        let last = d.completion_s.iter().cloned().fold(0.0, f64::max);
        assert!(last <= d.report.duration_s + 1e-9);
        // With equal share, the smallest file lands first.
        let min_idx =
            d.completion_s.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).map(|(i, _)| i).unwrap();
        assert_eq!(min_idx, 1, "completions {:?}", d.completion_s);
    }

    #[test]
    fn detailed_respects_release_times() {
        let files = vec![50_000_000u64; 4];
        let releases = vec![0.0, 5.0, 10.0, 15.0];
        let d = simulate_transfer_detailed(&files, Some(&releases), &test_link(), &GridFtpConfig::default(), 0);
        for (i, (&c, &r)) in d.completion_s.iter().zip(&releases).enumerate() {
            assert!(c >= r, "file {i} completed at {c} before its release {r}");
        }
    }

    #[test]
    fn detailed_start_times_bracket_release_and_completion() {
        let files = vec![50_000_000u64; 8];
        let releases: Vec<f64> = (0..8).map(|i| i as f64 * 2.0).collect();
        let d = simulate_transfer_detailed(&files, Some(&releases), &test_link(), &GridFtpConfig::default(), 0);
        assert_eq!(d.start_s.len(), 8);
        for (i, &s) in d.start_s.iter().enumerate() {
            assert!(s >= releases[i] - 1e-9, "file {i} started at {s} before its release {}", releases[i]);
            assert!(s <= d.completion_s[i] + 1e-9, "file {i} started at {s} after completing at {}", d.completion_s[i]);
        }
    }

    #[test]
    #[should_panic(expected = "one release time per file")]
    fn release_length_mismatch_panics() {
        simulate_transfer_released(&[1, 2], Some(&[0.0]), &test_link(), &GridFtpConfig::default(), 0);
    }

    #[test]
    fn zero_byte_files_finish() {
        let files = vec![0u64; 10];
        let r = simulate_transfer(&files, &test_link(), &GridFtpConfig::default(), 0);
        assert!(r.duration_s > 0.0); // still pays handling overhead
        assert_eq!(r.bytes_total, 0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        simulate_transfer_windowed(&[1, 2], &[0.0, 0.0], 0, &test_link(), &GridFtpConfig::default(), 0);
    }

    #[test]
    fn window_one_serializes_the_wire() {
        let files = vec![100_000_000u64; 6];
        let d = simulate_transfer_windowed(&files, &[0.0; 6], 1, &test_link(), &GridFtpConfig::default(), 0);
        for m in 1..6 {
            assert_eq!(d.release_s[m], d.completion_s[m - 1], "file {m} ships when {} lands", m - 1);
            assert!(d.start_s[m] >= d.completion_s[m - 1]);
        }
        let wide = simulate_transfer_windowed(&files, &[0.0; 6], 6, &test_link(), &GridFtpConfig::default(), 0);
        assert!(d.report.duration_s > wide.report.duration_s);
    }

    /// Largest absolute difference between two per-file time vectors.
    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    fn assert_reports_agree(got: &DetailedTransferReport, want: &DetailedTransferReport, tol: f64, what: &str) {
        assert!(max_diff(&got.release_s, &want.release_s) <= tol, "{what}: release_s");
        assert!(max_diff(&got.start_s, &want.start_s) <= tol, "{what}: start_s");
        assert!(max_diff(&got.completion_s, &want.completion_s) <= tol, "{what}: completion_s");
        assert!((got.report.duration_s - want.report.duration_s).abs() <= tol, "{what}: duration_s");
    }

    /// Random batch: sizes from three regimes (command-bound, mixed,
    /// bandwidth-bound) and sorted-or-not ready times.
    fn batch() -> impl Strategy<Value = (Vec<u64>, Vec<f64>)> {
        (prop::collection::vec((0u64..1000, 0.0f64..6.0), 1..97), 0usize..3, any::<bool>()).prop_map(
            |(items, regime, sorted)| {
                let unit = [100u64, 10_000, 300_000][regime];
                let files = items.iter().map(|(s, _)| s * unit).collect();
                let mut ready: Vec<f64> = items.iter().map(|(_, r)| *r).collect();
                if sorted {
                    ready.sort_by(f64::total_cmp);
                }
                (files, ready)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every regime: the single pass is the window by construction, its
        /// releases are tight, and replaying them through the un-windowed
        /// loop changes nothing — i.e. the old fixpoint loop, started from
        /// this schedule, stops without a further pass.
        #[test]
        fn windowed_single_pass_is_the_causal_window(
            b in batch(),
            window in 1usize..9,
            concurrency in 1usize..41,
            jitter in 0usize..2,
            seed in 0u64..1000,
        ) {
            let (files, ready) = b;
            let link = LinkProfile::new(1.15e9, 0.05, 0.13, 0.05 * jitter as f64);
            let cfg = GridFtpConfig { concurrency, ..GridFtpConfig::default() };
            let got = simulate_transfer_windowed(&files, &ready, window, &link, &cfg, seed);
            for (m, &ready_m) in ready.iter().enumerate() {
                let want = if m >= window { ready_m.max(got.completion_s[m - window]) } else { ready_m };
                prop_assert_eq!(got.release_s[m], want, "file {} release is not tight", m);
                // The clock truncates to whole nanoseconds.
                prop_assert!(got.start_s[m] >= got.release_s[m] - 1e-9 && got.completion_s[m] >= got.start_s[m]);
            }
            let oracle = reference::prefix_causal(&files, &ready, window, &link, &cfg, seed);
            assert_reports_agree(&got, &oracle, 1e-6, "prefix-causal oracle");
            let replay = simulate_transfer_detailed(&files, Some(&got.release_s), &link, &cfg, seed);
            assert_reports_agree(&got, &replay, 1e-6, "replay of the effective releases");
        }

        /// Cap-bound regime (files never share bandwidth), where the old
        /// loop's monotonicity premise holds: same answer, in one pass.
        #[test]
        fn windowed_single_pass_matches_the_old_fixpoint_where_it_was_sound(
            b in batch(),
            window in 1usize..9,
            concurrency in 1usize..5,
            seed in 0u64..1000,
        ) {
            let (files, ready) = b;
            let link = test_link();
            let cfg = GridFtpConfig { concurrency, ..GridFtpConfig::default() };
            prop_assert!(concurrency as f64 * cfg.per_file_cap_bps() <= link.bandwidth_bps);
            let got = simulate_transfer_windowed(&files, &ready, window, &link, &cfg, seed);
            let old = reference::fixpoint(&files, &ready, window, &link, &cfg, seed);
            assert_reports_agree(&got, &old, 1e-4, "old fixpoint");
        }

        /// A window that never fills is the un-windowed loop, bit for bit.
        #[test]
        fn window_of_the_whole_batch_is_bit_identical_to_detailed(
            b in batch(),
            extra in 0usize..4,
            concurrency in 1usize..41,
            seed in 0u64..1000,
        ) {
            let (files, ready) = b;
            let link = LinkProfile::new(1.15e9, 0.05, 0.13, 0.05);
            let cfg = GridFtpConfig { concurrency, ..GridFtpConfig::default() };
            let got = simulate_transfer_windowed(&files, &ready, files.len() + extra, &link, &cfg, seed);
            prop_assert_eq!(got, simulate_transfer_detailed(&files, Some(&ready), &link, &cfg, seed));
        }
    }
}
