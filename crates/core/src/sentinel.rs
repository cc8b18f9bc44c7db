//! The sentinel: transfer uncompressed data while compression nodes wait in
//! the batch queue (§VII-B, Fig 10).
//!
//! When the user requests a compressed transfer but the scheduler has not
//! granted nodes yet, the sentinel starts a plain transfer immediately.
//! Completed files are recorded in a meta file so the compression job skips
//! them; when nodes arrive, the plain transfer stops and the remaining files
//! go through compress → transfer → decompress. The worst case (nodes never
//! arrive) degenerates to a plain transfer — compression can delay but never
//! block the data movement.

use ocelot_faas::Cluster;
use ocelot_netsim::{simulate_transfer, simulate_transfer_with_faults, FaultModel, FaultyTransferReport, SiteId};

use crate::orchestrator::{destination_cluster, transfer_units, Orchestrator, PipelineOptions, Strategy};
use crate::report::TimeBreakdown;
use crate::workload::Workload;

/// Runs the sentinel-augmented pipeline for a known queue wait, returning
/// the breakdown plus the sizes and wire detail of the transfer after the
/// switchover (the whole plain transfer when nodes never arrive), for the
/// run's schedule.
///
/// Called by [`Orchestrator::run`] for a staged compressed strategy when the
/// sentinel option is on and the sampled wait is positive. The queue wait
/// window (spent transferring raw data) runs first, then the compressed
/// pipeline for the remainder, so the run's phases add up to its end.
pub(crate) fn run_with_wait(
    orch: &Orchestrator,
    workload: &Workload,
    from: SiteId,
    to: SiteId,
    strategy: Strategy,
    opts: &PipelineOptions,
    wait_s: f64,
) -> (TimeBreakdown, Vec<u64>, FaultyTransferReport) {
    let route = orch.topology().route(from, to);
    let raw_sizes = workload.raw_sizes();

    // How many files does the plain transfer complete before nodes arrive?
    let done = files_done_by(&raw_sizes, &route.link, &opts.gridftp, opts.seed, wait_s);
    if done >= raw_sizes.len() {
        // Worst case: everything went uncompressed; total time is just the
        // plain transfer (the compression job is cancelled).
        let wire =
            simulate_transfer_with_faults(&raw_sizes, &route.link, &opts.gridftp, &FaultModel::none(), opts.seed);
        let report = wire.report;
        let breakdown = TimeBreakdown {
            transfer_s: report.duration_s,
            bytes_transferred: report.bytes_total,
            files_transferred: report.n_files,
            ..Default::default()
        };
        return (breakdown, raw_sizes, wire);
    }

    // Remaining files go through the compression pipeline (grouped, when
    // the strategy groups, at the same cost as a staged run's grouping).
    let remaining = workload.suffix(done);
    let src = orch.topology().site(from);
    let dst = orch.topology().site(to);
    let comp_cluster = Cluster::new(opts.compress_nodes, src.cores_per_node, src.core_speed);
    let compression_s = orch.compression_time(&remaining, src, &comp_cluster, opts.codec_threads);
    let (sizes, grouping_s) = transfer_units(strategy, remaining.compressed(), src, &comp_cluster);
    let wire = simulate_transfer_with_faults(&sizes, &route.link, &opts.gridftp, &FaultModel::none(), opts.seed ^ 1);
    let report = wire.report;

    let decomp_cluster = destination_cluster(dst, opts);
    let decompression_s = orch.decompression_time(&remaining, dst, &decomp_cluster, opts.codec_threads);

    let raw_bytes_done: u64 = raw_sizes[..done].iter().sum();
    let breakdown = TimeBreakdown {
        // The wait is fully overlapped with useful (uncompressed) transfer,
        // so it is not added on top; it appears as the sentinel window.
        queue_wait_s: wait_s,
        compression_s,
        grouping_s,
        transfer_s: report.duration_s,
        decompression_s,
        bytes_transferred: raw_bytes_done + report.bytes_total,
        // The raw files sent before the switchover, then the transfer units.
        files_transferred: done + sizes.len(),
    };
    (breakdown, sizes, wire)
}

/// Number of files completed within `deadline` seconds (binary search over
/// prefix transfers — transfers complete in submission order under the
/// fluid model).
fn files_done_by(
    sizes: &[u64],
    link: &ocelot_netsim::LinkProfile,
    cfg: &ocelot_netsim::GridFtpConfig,
    seed: u64,
    deadline: f64,
) -> usize {
    if sizes.is_empty() || deadline <= 0.0 {
        return 0;
    }
    let full = simulate_transfer(sizes, link, cfg, seed);
    if full.duration_s <= deadline {
        return sizes.len();
    }
    let (mut lo, mut hi) = (0usize, sizes.len()); // invariant: prefix lo fits, hi does not
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let r = simulate_transfer(&sizes[..mid], link, cfg, seed);
        if r.duration_s <= deadline {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_faas::WaitTimeModel;
    use ocelot_sz::LossyConfig;

    fn miranda() -> Workload {
        Workload::miranda(LossyConfig::sz3(1e-2), 32).unwrap()
    }

    fn opts_with_wait(wait: f64) -> PipelineOptions {
        PipelineOptions { wait_model: WaitTimeModel::Fixed(wait), sentinel: true, ..Default::default() }
    }

    #[test]
    fn short_wait_still_compresses_most_files() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let b = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts_with_wait(10.0)).breakdown;
        assert_eq!(b.queue_wait_s, 10.0);
        // Most bytes still cross compressed: well under the raw total.
        assert!(b.bytes_transferred < w.total_bytes() / 2, "bytes {}", b.bytes_transferred);
    }

    #[test]
    fn infinite_wait_degenerates_to_plain_transfer() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let plain = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Direct, &PipelineOptions::default()).breakdown;
        let sent = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts_with_wait(1e7)).breakdown;
        assert_eq!(sent.compression_s, 0.0);
        assert!((sent.transfer_s - plain.transfer_s).abs() < 1.0);
        assert_eq!(sent.bytes_transferred, w.total_bytes());
    }

    #[test]
    fn sentinel_beats_blocking_on_long_waits() {
        // Without the sentinel a 600 s wait is pure loss; with it, data
        // flows during the window.
        let orch = Orchestrator::paper();
        let w = miranda();
        let blocking =
            PipelineOptions { wait_model: WaitTimeModel::Fixed(600.0), sentinel: false, ..Default::default() };
        let b_block = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &blocking);
        let b_sent = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts_with_wait(600.0));
        assert!(b_sent.end_s <= b_block.end_s + 1.0, "sentinel {} vs blocking {}", b_sent.end_s, b_block.end_s);
        // The sentinel window moved real bytes.
        assert!(b_sent.breakdown.bytes_transferred > 0);
    }

    #[test]
    fn grouped_sentinel_run_charges_grouping_and_counts_transfer_units() {
        // The suffix compresses and groups as a staged run of it would: the
        // same grouping cost, and the raw files sent before the switchover
        // plus the eight groups crossed the WAN.
        let orch = Orchestrator::paper();
        let w = miranda();
        let opts = opts_with_wait(20.0);
        let b = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::grouped_by_count(8), &opts).breakdown;
        let link = &orch.topology().route(SiteId::Anvil, SiteId::Bebop).link;
        let done = files_done_by(&w.raw_sizes(), link, &opts.gridftp, opts.seed, 20.0);
        assert!(done > 0 && done < w.file_count(), "the switchover falls inside the workload: {done}");
        let staged_suffix = orch
            .run(
                &w.suffix(done),
                SiteId::Anvil,
                SiteId::Bebop,
                Strategy::grouped_by_count(8),
                &PipelineOptions::default(),
            )
            .breakdown;
        assert!(b.grouping_s > 0.0);
        assert_eq!(b.grouping_s.to_bits(), staged_suffix.grouping_s.to_bits());
        assert_eq!(b.files_transferred, done + 8);
        // An ungrouped sentinel run still counts every file once.
        let c = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts).breakdown;
        assert_eq!(c.grouping_s, 0.0);
        assert_eq!(c.files_transferred, w.file_count());
    }

    #[test]
    fn files_done_by_is_monotone() {
        let link = ocelot_netsim::LinkProfile::new(1e9, 0.05, 0.1, 0.0);
        let cfg = ocelot_netsim::GridFtpConfig::default();
        let sizes = vec![100_000_000u64; 50];
        let a = files_done_by(&sizes, &link, &cfg, 0, 1.0);
        let b = files_done_by(&sizes, &link, &cfg, 0, 3.0);
        let c = files_done_by(&sizes, &link, &cfg, 0, 1e6);
        assert!(a <= b, "{a} <= {b}");
        assert_eq!(c, 50);
        assert_eq!(files_done_by(&sizes, &link, &cfg, 0, 0.0), 0);
    }
}
