//! End-to-end pipeline orchestration: compress on the source cluster,
//! transfer over the WAN, decompress on the destination cluster.
//!
//! Reproduces the measurement methodology of the paper's §VIII-D: `T(NP)` is
//! a plain Globus transfer of the raw files; `T(CP)` compresses each file
//! individually before transfer; `T(OP)` additionally groups compressed
//! files. [`Orchestrator::run`] is the one way to run a pipeline, whatever
//! the [`Strategy`]; its [`PipelineOutcome`] carries the Table VIII phases
//! (`Total T = CPTime + T + DPTime`) and the three instants — wire open,
//! wire shut, end — that mean the same thing in every mode.

use ocelot_faas::{Cluster, WaitTimeModel};
use ocelot_netsim::{
    draw_faults, simulate_transfer_detailed, simulate_transfer_windowed, simulate_transfer_with_faults, FaultModel,
    GridFtpConfig, LinkProfile, Site, SiteId, Topology,
};
use ocelot_obs::ledger::{Lifecycle, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::grouping::plan_groups_by_count;
use crate::report::TimeBreakdown;
use crate::sentinel;
use crate::workload::{codec_speedup, Phase, Workload};

/// Transfer strategy (the NP / CP / OP columns of Table VIII, and the
/// pipelined compressed transfer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Direct transfer, no compression (`NP`).
    Direct,
    /// Per-file parallel compression (`CP`).
    Compressed,
    /// Compression plus file grouping (`OP`) into a fixed number of groups
    /// (the paper's by-world-size default).
    CompressedGrouped {
        /// Number of groups.
        group_count: usize,
    },
    /// Per-file compression with the wire overlapped (no grouping), as the
    /// paper's Fig 1 describes. `window == 0` is file-grain overlap: each
    /// file enters the WAN as soon as its compression finishes and the
    /// batch decompresses after the last byte lands; it models a healthy
    /// link. `window >= 1` streams chunks: each compressed chunk enters the
    /// WAN as soon as it is encoded, decodes the moment it lands, and at
    /// most `window` chunks sit between the compressor and the far-side
    /// decoder (back-pressure); faults are injected per chunk and every
    /// chunk arrives in the end. [`PipelineOptions::sentinel`] does not
    /// apply: the sentinel is for staged compressed strategies only.
    Pipelined {
        /// In-flight chunk window; `0` pipelines whole files.
        window: usize,
    },
}

impl Strategy {
    /// The paper's OP with a fixed group count.
    pub fn grouped_by_count(n: usize) -> Self {
        Strategy::CompressedGrouped { group_count: n }
    }
}

/// Resource and tuning options for one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Nodes allocated for compression at the source.
    pub compress_nodes: usize,
    /// Nodes allocated for decompression at the destination.
    pub decompress_nodes: usize,
    /// Cores used per decompression node (the paper tunes this down to
    /// avoid filesystem contention).
    pub decompress_cores_per_node: Option<usize>,
    /// GridFTP tuning.
    pub gridftp: GridFtpConfig,
    /// Batch-queue waiting model at the source.
    pub wait_model: WaitTimeModel,
    /// Whether the sentinel transfers uncompressed data during the wait
    /// (staged compressed strategies only).
    pub sentinel: bool,
    /// WAN fault injection (per-attempt failure probability, Globus-style
    /// retries, reconnect cost): per file or group on the staged
    /// strategies, per chunk on [`Strategy::Pipelined`] with a window of at
    /// least 1. [`FaultModel::none`] reproduces the healthy-link behaviour
    /// exactly. File-grain pipelining (window 0) and the sentinel model
    /// healthy links.
    pub faults: FaultModel,
    /// Seed for waiting times and link jitter.
    pub seed: u64,
    /// Job id the run's schedule is filed under: every strategy hands a run
    /// with a job its schedule back in [`PipelineOutcome::schedule`].
    /// `None` for jobless runs such as sweeps and profiling, which build
    /// none.
    pub job: Option<u64>,
    /// Chunk-parallel codec threads per file (the compressor's
    /// `LossyConfig::threads` knob). Each simulated compression lane then
    /// occupies `codec_threads` cores: per-file latency drops near-linearly
    /// while the number of concurrent lanes shrinks by the same factor, so
    /// the simulation agrees with what `ParallelExecutor::with_codec_threads`
    /// does on real hardware.
    pub codec_threads: usize,
}

impl Default for PipelineOptions {
    /// The paper's Table VIII setup: 16 compression nodes on the source,
    /// 8 decompression nodes on the destination, tuned GridFTP, no queue
    /// wait (Anvil granted nodes immediately).
    fn default() -> Self {
        PipelineOptions {
            compress_nodes: 16,
            decompress_nodes: 8,
            decompress_cores_per_node: Some(32),
            gridftp: GridFtpConfig::default(),
            wait_model: WaitTimeModel::Immediate,
            sentinel: false,
            faults: FaultModel::none(),
            seed: 0,
            job: None,
            codec_threads: 1,
        }
    }
}

/// The transfer units of a staged compressed strategy and the seconds
/// grouping them costs: the compressed files as they are, or packed into
/// `group_count` group files, each written by one writer (MPI ranks
/// coordinate offsets); the cost is that write less the every-core write
/// the compression phase already charged.
pub(crate) fn transfer_units(
    strategy: Strategy,
    comp_sizes: &[u64],
    src: &Site,
    comp_cluster: &Cluster,
) -> (Vec<u64>, f64) {
    let Strategy::CompressedGrouped { group_count } = strategy else { return (comp_sizes.to_vec(), 0.0) };
    let plan = plan_groups_by_count(comp_sizes.len(), group_count);
    let grouped: Vec<u64> = plan.iter().map(|g| g.iter().map(|&i| comp_sizes[i]).sum()).collect();
    let total: u64 = grouped.iter().sum();
    let t = src.fs.write_time_s(total, grouped.len().max(1))
        - src.fs.write_time_s(total, comp_cluster.total_cores().max(1));
    (grouped, t.max(0.0))
}

/// The destination cluster decodes run on: `decompress_nodes` nodes of at
/// most `decompress_cores_per_node` cores each.
pub(crate) fn destination_cluster(dst: &Site, opts: &PipelineOptions) -> Cluster {
    let cores = opts.decompress_cores_per_node.unwrap_or(dst.cores_per_node).min(dst.cores_per_node);
    Cluster::new(opts.decompress_nodes, cores, dst.core_speed)
}

/// What both pipelined modes build before their own schedule: the link and
/// sites, the queue wait, each file's codec-scaled compression on the
/// source cluster and the destination cluster that decodes.
struct Releases<'a> {
    link: &'a LinkProfile,
    src: &'a Site,
    dst: &'a Site,
    wait_s: f64,
    /// Compression work per file, before the codec speedup.
    work: &'a [f64],
    /// The codec speedup each file's compression runs at.
    speedup: f64,
    /// When each file's compression finishes on the source cluster: the
    /// workload's memoized schedule.
    completions: Arc<[f64]>,
    /// The last file to finish: the LPT makespan.
    makespan: f64,
    /// Source reads throttle the start of the pipeline; approximated by
    /// stretching every release by the per-file share of read time.
    stretch: f64,
    decomp_cluster: Cluster,
}

impl Releases<'_> {
    /// Simulated time at which the source cluster has done `compute_s`
    /// seconds of compute: after the queue wait, stretched by the reads.
    fn at(&self, compute_s: f64) -> f64 {
        self.wait_s + compute_s * (1.0 + self.stretch)
    }

    /// Seconds file `i`'s codec-scaled compression occupies its lane.
    fn duration(&self, i: usize) -> f64 {
        (self.work[i] / self.speedup).max(0.0) / self.src.core_speed
    }
}

/// Everything one [`Orchestrator::run`] produced: the phase breakdown, the
/// run's instants on one clock, and the fault/retry detail of the transfer
/// leg (all zeros / clean under [`FaultModel::none`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Phase timing and payload accounting (the Table VIII columns; in a
    /// pipelined run the phases overlap, so their sum is not the end).
    pub breakdown: TimeBreakdown,
    /// When the wire opened: after queue wait, compression and grouping in
    /// a staged run, at the end of the queue wait in a pipelined one.
    pub transfer_begin_s: f64,
    /// When the last byte landed.
    pub transfer_end_s: f64,
    /// When the run ended: the last decode finished. The end-to-end time.
    pub end_s: f64,
    /// Failed attempts across all transferred files (chunks, when streamed).
    pub transfer_retries: usize,
    /// Indices (in transfer order) of files abandoned after exhausting the
    /// fault model's retry budget; a streamed run abandons none.
    pub failed_files: Vec<usize>,
    /// Bytes moved by attempts that subsequently failed.
    pub wasted_bytes: u64,
    /// Attempts per transfer unit (1 = clean first try).
    pub attempts: Vec<u32>,
    /// Byte sizes offered to the transfer leg, in transfer order: raw file
    /// sizes for [`Strategy::Direct`], compressed or grouped sizes
    /// otherwise (a sentinel run's are those of the transfer after its
    /// switchover, a streamed run's its chunks'). Indexes align with
    /// `failed_files` and `attempts`, which lets callers re-offer exactly
    /// the abandoned payloads.
    pub transfer_sizes: Vec<u64>,
    /// The run's one timing record, when [`PipelineOptions::job`] names a
    /// job: its instants are this outcome's, its rows every transfer unit
    /// that arrived (a streamed run's chunks, by move). The caller completes
    /// it — a service adds its retry rounds with
    /// [`Schedule::with_rounds`] — and commits it to its ledger.
    pub schedule: Option<Schedule>,
}

impl PipelineOutcome {
    /// True when every file arrived within the retry budget.
    pub fn delivered(&self) -> bool {
        self.failed_files.is_empty()
    }
}

/// Runs transfer pipelines on a site topology.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    topology: Topology,
    obs: ocelot_obs::Obs,
}

impl Orchestrator {
    /// Creates an orchestrator over a topology.
    pub fn new(topology: Topology) -> Self {
        Orchestrator { topology, obs: ocelot_obs::Obs::disabled() }
    }

    /// The paper's calibrated three-site testbed.
    pub fn paper() -> Self {
        Orchestrator::new(Topology::paper())
    }

    /// Attaches an observability handle; without one, the orchestrator
    /// records nothing.
    pub fn with_obs(mut self, obs: ocelot_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle this orchestrator records into.
    pub fn obs(&self) -> &ocelot_obs::Obs {
        &self.obs
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs one pipeline: the phase breakdown, the run's instants and the
    /// transfer leg's fault/retry detail from [`PipelineOptions::faults`] —
    /// which units needed retries, which were abandoned, and how many bytes
    /// the failed attempts wasted.
    ///
    /// # Panics
    /// Panics if `from == to` or node counts are zero.
    pub fn run(
        &self,
        workload: &Workload,
        from: SiteId,
        to: SiteId,
        strategy: Strategy,
        opts: &PipelineOptions,
    ) -> PipelineOutcome {
        assert!(opts.compress_nodes > 0 && opts.decompress_nodes > 0, "node counts must be positive");
        let outcome = match strategy {
            Strategy::Pipelined { window } if window > 0 && workload.file_count() > 0 => {
                self.streamed(workload, from, to, window, opts)
            }
            Strategy::Pipelined { .. } => self.overlapped(workload, from, to, opts),
            _ => self.staged(workload, from, to, strategy, opts),
        };
        let (obs, b) = (self.obs(), &outcome.breakdown);
        if obs.is_enabled() {
            for (name, help, seconds) in [
                ("ocelot_core_queue_wait_seconds", "Simulated batch-queue wait per pipeline run", b.queue_wait_s),
                ("ocelot_core_compression_seconds", "Simulated compression phase per pipeline run", b.compression_s),
                ("ocelot_core_transfer_seconds", "Simulated WAN transfer phase per pipeline run", b.transfer_s),
                (
                    "ocelot_core_decompression_seconds",
                    "Simulated decompression phase per pipeline run",
                    b.decompression_s,
                ),
            ] {
                obs.observe(name, help, seconds);
            }
        }
        outcome
    }

    /// A run's schedule when the run has a job: the unit columns `units`
    /// builds, under the outcome's instants, with the run's compression and
    /// grouping phases.
    fn schedule(
        opts: &PipelineOptions,
        out: &PipelineOutcome,
        phases: [(f64, f64); 2],
        units: impl FnOnce() -> Lifecycle,
    ) -> Option<Schedule> {
        let job = opts.job?;
        let run = Lifecycle {
            job,
            transfer_begin_s: out.transfer_begin_s,
            transfer_end_s: out.transfer_end_s,
            total_s: out.end_s,
            ..units()
        };
        Some(Schedule::new(run).with_phases(phases[0], phases[1]))
    }

    /// A staged run: the phases laid end to end as the breakdown (and the
    /// paper's Table VIII) accounts them — queue wait, compression,
    /// grouping, the wire, and the decode after the transfer ends. Its
    /// schedule is at file grain, every transfer unit that arrived placed on
    /// the wire where the transfer simulation put it.
    fn staged(
        &self,
        workload: &Workload,
        from: SiteId,
        to: SiteId,
        strategy: Strategy,
        opts: &PipelineOptions,
    ) -> PipelineOutcome {
        let route = self.topology.route(from, to);
        let src = self.topology.site(from);
        let dst = self.topology.site(to);
        let wait_s = opts.wait_model.sample(opts.seed, 0);
        let (b, sizes, wire) = if strategy != Strategy::Direct && opts.sentinel && wait_s > 0.0 {
            // The sentinel path models a healthy link.
            sentinel::run_with_wait(self, workload, from, to, strategy, opts, wait_s)
        } else {
            // Queue wait, compression, grouping and decompression: none
            // for a direct transfer of the raw files.
            let (sizes, [queue_wait_s, compression_s, grouping_s, decompression_s]) = match strategy {
                Strategy::Direct => (workload.raw_sizes(), [0.0; 4]),
                _ => {
                    let comp_cluster = Cluster::new(opts.compress_nodes, src.cores_per_node, src.core_speed);
                    let compression_s = self.compression_time(workload, src, &comp_cluster, opts.codec_threads);
                    let (sizes, grouping_s) = transfer_units(strategy, workload.compressed(), src, &comp_cluster);
                    let decomp_cluster = destination_cluster(dst, opts);
                    let decompression_s = self.decompression_time(workload, dst, &decomp_cluster, opts.codec_threads);
                    (sizes, [wait_s, compression_s, grouping_s, decompression_s])
                }
            };
            let wire = simulate_transfer_with_faults(&sizes, &route.link, &opts.gridftp, &opts.faults, opts.seed);
            let breakdown = TimeBreakdown {
                queue_wait_s,
                compression_s,
                grouping_s,
                transfer_s: wire.report.duration_s,
                decompression_s,
                bytes_transferred: wire.report.bytes_total,
                files_transferred: wire.report.n_files,
            };
            (breakdown, sizes, wire)
        };

        // Summed in the order `TimeBreakdown::total_s` sums the phases.
        let encoded = b.queue_wait_s + b.compression_s;
        let open = encoded + b.grouping_s;
        let shut = open + b.transfer_s;
        let mut out = PipelineOutcome {
            breakdown: b,
            transfer_begin_s: open,
            transfer_end_s: shut,
            end_s: shut + b.decompression_s,
            transfer_retries: wire.retries,
            failed_files: wire.failed_files,
            wasted_bytes: wire.wasted_bytes,
            attempts: wire.attempts,
            transfer_sizes: sizes,
            schedule: None,
        };
        out.schedule = Self::schedule(opts, &out, [(b.queue_wait_s, encoded), (encoded, open)], || {
            let mut lost = vec![false; out.transfer_sizes.len()];
            for &i in &out.failed_files {
                lost[i] = true;
            }
            let units: Vec<usize> = (0..lost.len()).filter(|&i| !lost[i]).collect();
            let failed: Vec<(u32, f64)> = units
                .iter()
                .enumerate()
                .filter(|&(_, &i)| out.attempts[i] > 1)
                .flat_map(|(m, &i)| {
                    draw_faults(&opts.faults, opts.seed, i).failed_fracs.into_iter().map(move |f| (m as u32, f))
                })
                .collect();
            let n = units.len();
            Lifecycle {
                file: units.iter().map(|&i| i as u32).collect(),
                chunk: vec![0; n],
                bytes: units.iter().map(|&i| out.transfer_sizes[i]).collect(),
                compress_begin: vec![b.queue_wait_s; n],
                ready: vec![open; n],
                release: vec![open; n],
                sent: units.iter().map(|&i| open + wire.start_s[i]).collect(),
                landed: units.iter().map(|&i| open + wire.completion_s[i]).collect(),
                decode: vec![(shut, out.end_s); n],
                fault: (!failed.is_empty()).then(|| opts.faults.cause()),
                failed,
                ..Lifecycle::default()
            }
        });
        out
    }

    /// The release prelude both pipelined modes share.
    fn releases<'a>(
        &'a self,
        workload: &'a Workload,
        from: SiteId,
        to: SiteId,
        opts: &PipelineOptions,
    ) -> Releases<'a> {
        let src = self.topology.site(from);
        let dst = self.topology.site(to);
        let comp_cluster = Cluster::new(opts.compress_nodes, src.cores_per_node, src.core_speed);
        let (completions, makespan) = workload.completion_times(Phase::Compress, &comp_cluster, opts.codec_threads);
        let read_s = src.fs.read_time_s(workload.total_bytes(), comp_cluster.total_cores());
        let stretch = if makespan > 0.0 { (read_s / makespan).max(0.0) } else { 0.0 };
        Releases {
            link: &self.topology.route(from, to).link,
            src,
            dst,
            wait_s: opts.wait_model.sample(opts.seed, 0),
            work: workload.work(Phase::Compress),
            speedup: codec_speedup(opts.codec_threads),
            completions,
            makespan,
            stretch,
            decomp_cluster: destination_cluster(dst, opts),
        }
    }

    /// File-grain pipelining ([`Strategy::Pipelined`] with window 0): each
    /// file starts crossing the WAN as soon as its compression finishes,
    /// instead of waiting for the whole batch — the overlap the paper's
    /// Fig 1 describes ("the transfer will move the compressed files to the
    /// target machine once the files are ready") — and the batch
    /// decompresses after the last byte lands.
    ///
    /// The breakdown's `compression_s` is the makespan and `transfer_s` the
    /// overlapped duration from t=0 to the last byte, so the wire shuts at
    /// `transfer_s` and the run ends `decompression_s` later.
    fn overlapped(&self, workload: &Workload, from: SiteId, to: SiteId, opts: &PipelineOptions) -> PipelineOutcome {
        let run = self.releases(workload, from, to, opts);
        let wait_s = run.wait_s;
        let releases: Vec<f64> = run.completions.iter().map(|&c| run.at(c)).collect();

        // The transfer service picks up files in the order they appear on
        // disk, so feed the simulation release-sorted (otherwise an early
        // slot in the submission order with a late release would block the
        // control channel head-of-line).
        let sizes = workload.compressed();
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by(|&a, &b| releases[a].partial_cmp(&releases[b]).expect("finite releases"));
        let sorted_sizes: Vec<u64> = order.iter().map(|&i| sizes[i]).collect();
        let sorted_releases: Vec<f64> = order.iter().map(|&i| releases[i]).collect();
        let detail =
            simulate_transfer_detailed(&sorted_sizes, Some(&sorted_releases), run.link, &opts.gridftp, opts.seed);
        let report = detail.report;

        let decompression_s = self.decompression_time(workload, run.dst, &run.decomp_cluster, opts.codec_threads);

        let transfer_s = report.duration_s;
        let mut out = PipelineOutcome {
            breakdown: TimeBreakdown {
                queue_wait_s: wait_s,
                compression_s: run.makespan,
                grouping_s: 0.0,
                transfer_s,
                decompression_s,
                bytes_transferred: report.bytes_total,
                files_transferred: report.n_files,
            },
            transfer_begin_s: wait_s,
            transfer_end_s: transfer_s,
            end_s: transfer_s + decompression_s,
            transfer_retries: 0,
            failed_files: Vec::new(),
            wasted_bytes: 0,
            attempts: vec![1; order.len()],
            transfer_sizes: sorted_sizes,
            schedule: None,
        };
        // At file grain (chunk 0 of every file, in wire order). Every file
        // is released the moment it is encoded, and batch decompression
        // starts when the whole transfer lands: early arrivals wait for it.
        out.schedule = Self::schedule(opts, &out, [(wait_s, run.at(run.makespan)), (0.0, 0.0)], || Lifecycle {
            file: order.iter().map(|&i| i as u32).collect(),
            chunk: vec![0; order.len()],
            bytes: out.transfer_sizes.clone(),
            compress_begin: order
                .iter()
                .zip(&sorted_releases)
                .map(|(&i, &enc)| {
                    let dur = run.duration(i);
                    (enc - dur * (1.0 + run.stretch)).max(wait_s).min(enc)
                })
                .collect(),
            ready: sorted_releases.clone(),
            release: sorted_releases,
            sent: detail.start_s,
            landed: detail.completion_s,
            decode: vec![(transfer_s, out.end_s); order.len()],
            ..Lifecycle::default()
        });
        out
    }

    /// Chunk streaming ([`Strategy::Pipelined`] with `window >= 1`): every
    /// compressed chunk enters the WAN as soon as it is encoded,
    /// decompression of each chunk starts the moment it lands, and at most
    /// `window` chunks sit between the compressor and the far-side decoder
    /// (back-pressure; memory stays O(window) per lane). Chunk `j` of a file
    /// becomes ready at the proportional point of its file's compression
    /// interval, mirroring the real engine's in-order chunk completion.
    ///
    /// The wire shuts at the last chunk's arrival (`transfer_s`, from t=0)
    /// and the run ends at the last decode; `decompression_s` is only the
    /// *tail* that streaming could not hide behind the transfer.
    /// Back-pressure stalls (a chunk ready but waiting for window space) are
    /// in the committed schedule as each chunk's `ready → release` gap, so
    /// critical-path attribution ([`ocelot_obs::critpath::attribute`])
    /// counts them apart from transfer.
    fn streamed(
        &self,
        workload: &Workload,
        from: SiteId,
        to: SiteId,
        window: usize,
        opts: &PipelineOptions,
    ) -> PipelineOutcome {
        let sizes = workload.compressed();
        let run = self.releases(workload, from, to, opts);
        let (wait_s, makespan) = (run.wait_s, run.makespan);

        // Each file splits into the engine's chunk count; chunk j finishes
        // encoding at the proportional point of the file's compute interval.
        let k = ocelot_sz::engine::chunks_for_threads(opts.codec_threads);
        // (ready, payload bytes, file, chunk index, compress-begin)
        let mut chunks: Vec<(f64, u64, u32, u32, f64)> = Vec::with_capacity(sizes.len() * k);
        for (i, &size) in sizes.iter().enumerate() {
            let dur = run.duration(i);
            let base = size / k as u64;
            let rem = (size % k as u64) as usize;
            for j in 0..k {
                let ready = run.at(run.completions[i] - dur * (k - 1 - j) as f64 / k as f64);
                let begin = run.at(run.completions[i] - dur * (k - j) as f64 / k as f64);
                let csize = base + u64::from(j < rem);
                let ready = ready.max(wait_s);
                chunks.push((ready, csize, i as u32, j as u32, begin.max(wait_s).min(ready)));
            }
        }
        chunks.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ready times"));
        // In wire order, one column per field: the simulations below read
        // them and the chunk ledger adopts them as they are.
        let ready: Vec<f64> = chunks.iter().map(|c| c.0).collect();
        let payload: Vec<u64> = chunks.iter().map(|c| c.1).collect();
        let file: Vec<u32> = chunks.iter().map(|c| c.2).collect();
        let chunk: Vec<u32> = chunks.iter().map(|c| c.3).collect();
        let compress_begin: Vec<f64> = chunks.iter().map(|c| c.4).collect();
        drop(chunks);

        // Per-chunk WAN fault injection: the same deterministic draws the
        // staged fault path makes, at chunk granularity. Every failed
        // attempt re-sends the partial payload the link had moved, so the
        // wire carries the inflated byte count; chunks are always delivered
        // in the end (resume-on-abandon is future work), an exhausted retry
        // budget just degrades to one more re-send.
        let injecting = opts.faults.per_attempt_failure_prob > 0.0;
        // (chunk position, partial-payload fraction) of every failed attempt.
        let mut failed: Vec<(u32, f64)> = Vec::new();
        let mut wasted = 0u64;
        let mut attempts = vec![1u32; payload.len()];
        let wire: Vec<u64> = if injecting {
            payload
                .iter()
                .enumerate()
                .map(|(m, &size)| {
                    let draw = draw_faults(&opts.faults, opts.seed, m);
                    let extra: u64 = draw.failed_fracs.iter().map(|f| (size as f64 * f) as u64).sum();
                    wasted += extra;
                    attempts[m] += draw.failed_fracs.len() as u32;
                    failed.extend(draw.failed_fracs.iter().map(|&f| (m as u32, f)));
                    size + extra
                })
                .collect()
        } else {
            payload.clone()
        };

        // Window-W back-pressure: chunk m cannot ship before chunk m−W has
        // fully landed. The window is a resource inside the transfer's event
        // loop, so one pass yields the exact release schedule.
        let detail = simulate_transfer_windowed(&wire, &ready, window, run.link, &opts.gridftp, opts.seed);
        let transfer_s = detail.report.duration_s;

        // Decompress each chunk on arrival: greedy least-loaded destination
        // core, gated on the chunk's landing time.
        let dwork = workload.work(Phase::Decompress);
        // Decode work follows the chunks in arrival (ready-sorted) order, so
        // each decode duration pairs with its own chunk's landing time.
        let dchunk: Vec<f64> =
            file.iter().map(|&f| dwork[f as usize].max(0.0) / k as f64 / run.dst.core_speed).collect();
        // Min-heap of lane-free times. They are non-negative, so their IEEE
        // bit patterns order like the values.
        let mut dlanes: BinaryHeap<Reverse<u64>> =
            (0..run.decomp_cluster.total_cores().min(dchunk.len().max(1))).map(|_| Reverse(0.0f64.to_bits())).collect();
        let mut decomp_finish = transfer_s;
        let mut dsched: Vec<(f64, f64)> = Vec::with_capacity(dchunk.len());
        for (m, &dur) in dchunk.iter().enumerate() {
            let arrival = detail.completion_s[m];
            let Reverse(free) = dlanes.pop().expect("at least one decode lane");
            let start = f64::from_bits(free).max(arrival);
            dlanes.push(Reverse((start + dur).to_bits()));
            decomp_finish = decomp_finish.max(start + dur);
            dsched.push((start, start + dur));
        }
        let total = decomp_finish.max(transfer_s);

        let obs = self.obs();
        if obs.is_enabled() {
            obs.add("ocelot_chunk_transfers_total", "Chunks offered to the WAN by streamed runs", payload.len() as u64);
            obs.add(
                "ocelot_chunk_retries_total",
                "Failed chunk transfer attempts re-sent in streamed runs",
                failed.len() as u64,
            );
        }
        let mut out = PipelineOutcome {
            breakdown: TimeBreakdown {
                queue_wait_s: wait_s,
                compression_s: makespan,
                grouping_s: 0.0,
                transfer_s,
                decompression_s: (total - transfer_s).max(0.0),
                // Wire bytes include retransmitted partials; the payload that
                // actually landed is what the breakdown accounts, mirroring
                // `simulate_transfer_with_faults`.
                bytes_transferred: detail.report.bytes_total.saturating_sub(wasted),
                files_transferred: sizes.len(),
            },
            transfer_begin_s: wait_s,
            transfer_end_s: transfer_s,
            end_s: total,
            transfer_retries: failed.len(),
            failed_files: Vec::new(),
            wasted_bytes: wasted,
            attempts,
            transfer_sizes: payload.clone(),
            schedule: None,
        };
        // The schedule itself, handed over by move. Its events are derived
        // from these columns when someone reads them.
        out.schedule = Self::schedule(opts, &out, [(wait_s, run.at(makespan)), (0.0, 0.0)], || Lifecycle {
            file,
            chunk,
            bytes: payload,
            compress_begin,
            ready,
            release: detail.release_s,
            sent: detail.start_s,
            landed: detail.completion_s,
            decode: dsched,
            failed,
            fault: injecting.then(|| opts.faults.cause()),
            ..Lifecycle::default()
        });
        out
    }

    /// Compression phase: compute makespan overlapped with source reads,
    /// plus writing the compressed output. Each file runs on
    /// `codec_threads` chunk-parallel cores (one simulated lane); the
    /// makespan is the workload's memoized schedule.
    pub fn compression_time(&self, workload: &Workload, src: &Site, cluster: &Cluster, codec_threads: usize) -> f64 {
        let makespan = workload.makespan(Phase::Compress, cluster, codec_threads);
        let read = src.fs.read_time_s(workload.total_bytes(), cluster.total_cores());
        let comp_total: u64 = workload.compressed().iter().sum();
        // Every core writes its own output; a grouped run's group write is
        // accounted separately, as `grouping_s`.
        makespan.max(read) + src.fs.write_time_s(comp_total, cluster.total_cores().max(1))
    }

    /// Decompression phase: compute makespan overlapped with compressed-file
    /// reads, plus the contended write of the restored data (Fig 9). Chunked
    /// blobs decode on `codec_threads` cores per file; the makespan is the
    /// workload's memoized schedule.
    pub fn decompression_time(&self, workload: &Workload, dst: &Site, cluster: &Cluster, codec_threads: usize) -> f64 {
        let makespan = workload.makespan(Phase::Decompress, cluster, codec_threads);
        let comp_total: u64 = workload.compressed().iter().sum();
        let read = dst.fs.read_time_s(comp_total, cluster.total_cores());
        makespan.max(read) + dst.fs.write_time_s(workload.total_bytes(), cluster.total_cores())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_obs::ledger::{EventKind, LedgerEvent};
    use ocelot_sz::LossyConfig;

    fn miranda() -> Workload {
        Workload::miranda(LossyConfig::sz3(1e-2), 32).unwrap()
    }

    #[test]
    fn compression_beats_direct_on_slow_route() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let opts = PipelineOptions::default();
        let np = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Direct, &opts).breakdown;
        let cp = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts).breakdown;
        assert!(cp.total_s() < np.total_s(), "cp={} np={}", cp.total_s(), np.total_s());
        assert!(cp.bytes_transferred < np.bytes_transferred / 2);
        assert!(cp.reduction_vs(np.total_s()) > 0.3, "reduction {}", cp.reduction_vs(np.total_s()));
    }

    #[test]
    fn grouping_into_too_few_files_hurts_miranda() {
        // Table VIII: Miranda OP (8 groups) transfers slower than CP on the
        // fast Anvil→Cori route.
        let orch = Orchestrator::paper();
        let w = miranda();
        let opts = PipelineOptions::default();
        let cp = orch.run(&w, SiteId::Anvil, SiteId::Cori, Strategy::Compressed, &opts).breakdown;
        let op = orch.run(&w, SiteId::Anvil, SiteId::Cori, Strategy::grouped_by_count(8), &opts).breakdown;
        assert!(
            op.transfer_s > cp.transfer_s,
            "op transfer {} should exceed cp transfer {}",
            op.transfer_s,
            cp.transfer_s
        );
    }

    #[test]
    fn queue_wait_appears_in_breakdown() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let opts = PipelineOptions { wait_model: ocelot_faas::WaitTimeModel::Fixed(100.0), ..Default::default() };
        let cp = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts).breakdown;
        assert_eq!(cp.queue_wait_s, 100.0);
        assert!(cp.total_s() > 100.0);
    }

    #[test]
    fn direct_strategy_has_no_compute_phases() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let np = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Direct, &PipelineOptions::default()).breakdown;
        assert_eq!(np.compression_s, 0.0);
        assert_eq!(np.decompression_s, 0.0);
        assert_eq!(np.files_transferred, 768);
    }

    #[test]
    fn more_decompress_nodes_can_hurt() {
        // Fig 9: filesystem contention makes decompression slower at high
        // node counts.
        let orch = Orchestrator::paper();
        let w = miranda();
        let mk = |nodes| PipelineOptions {
            decompress_nodes: nodes,
            decompress_cores_per_node: None, // all 128 cores per node
            ..Default::default()
        };
        let few = orch.run(&w, SiteId::Bebop, SiteId::Anvil, Strategy::Compressed, &mk(2)).breakdown;
        let many = orch.run(&w, SiteId::Bebop, SiteId::Anvil, Strategy::Compressed, &mk(64)).breakdown;
        assert!(
            many.decompression_s > few.decompression_s,
            "many={} few={}",
            many.decompression_s,
            few.decompression_s
        );
    }

    #[test]
    fn overlapped_pipeline_beats_additive_accounting() {
        // Overlap pays off when compression and transfer are comparable:
        // RTM from Bebop (slow KNL-era cores) toward Cori.
        let orch = Orchestrator::paper();
        let w = Workload::rtm(ocelot_sz::LossyConfig::sz3(1e-2), 24).unwrap();
        let opts = PipelineOptions::default();
        let additive = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Compressed, &opts).breakdown;
        let overlapped = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Pipelined { window: 0 }, &opts);
        let additive_total = additive.total_s();
        let overlapped_total = overlapped.end_s;
        assert!(overlapped_total < additive_total * 0.85, "overlapped {overlapped_total} vs additive {additive_total}");
        // Same bytes cross the wire either way.
        let overlapped = overlapped.breakdown;
        assert_eq!(overlapped.bytes_transferred, additive.bytes_transferred);
        // The overlapped transfer cannot finish before compression's makespan.
        assert!(overlapped.transfer_s >= overlapped.compression_s * 0.99);
    }

    #[test]
    fn overlapped_pipeline_respects_queue_wait() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let opts = PipelineOptions { wait_model: ocelot_faas::WaitTimeModel::Fixed(50.0), ..Default::default() };
        let b = orch.run(&w, SiteId::Anvil, SiteId::Cori, Strategy::Pipelined { window: 0 }, &opts).breakdown;
        assert!(b.transfer_s >= 50.0, "transfer window {} must cover the wait", b.transfer_s);
    }

    #[test]
    fn faults_slow_the_transfer_and_record_retries() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let healthy = PipelineOptions::default();
        let flaky = PipelineOptions { faults: FaultModel::flaky(0.3), ..Default::default() };
        let h = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &healthy);
        let f = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &flaky);
        assert_eq!(h.transfer_retries, 0);
        assert!(h.delivered());
        assert!(h.attempts.iter().all(|&a| a == 1));
        assert!(f.transfer_retries > 0);
        assert!(f.wasted_bytes > 0);
        assert!(f.breakdown.transfer_s > h.breakdown.transfer_s);
        // Compute phases are unaffected by WAN faults.
        assert_eq!(f.breakdown.compression_s, h.breakdown.compression_s);
        assert_eq!(f.breakdown.decompression_s, h.breakdown.decompression_s);
    }

    #[test]
    fn healthy_faults_leave_run_unchanged() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let opts = PipelineOptions::default();
        // A zero failure probability with a retry budget is a healthy link.
        let zero =
            PipelineOptions { faults: FaultModel { per_attempt_failure_prob: 0.0, ..FaultModel::flaky(0.3) }, ..opts };
        for strategy in
            [Strategy::Direct, Strategy::Compressed, Strategy::grouped_by_count(16), Strategy::Pipelined { window: 4 }]
        {
            let outcome = orch.run(&w, SiteId::Anvil, SiteId::Cori, strategy, &zero);
            let plain = orch.run(&w, SiteId::Anvil, SiteId::Cori, strategy, &opts);
            assert_eq!(outcome, plain);
            assert!(outcome.delivered());
            assert_eq!(outcome.transfer_retries, 0);
            assert_eq!(outcome.wasted_bytes, 0);
        }
    }

    #[test]
    fn codec_threads_shrink_the_compute_phases() {
        // Compression at Anvil (16 × 128 cores > 768 files) is latency-bound:
        // per-file codec threads cut the makespan. Decompression at Bebop
        // (8 × 32 cores < 768 files) is throughput-bound, so threading files
        // there can only cost the Amdahl serial fraction — never more.
        let orch = Orchestrator::paper();
        let w = miranda();
        let serial = PipelineOptions::default();
        let chunked = PipelineOptions { codec_threads: 4, ..Default::default() };
        let s = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &serial).breakdown;
        let c = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &chunked).breakdown;
        assert!(c.compression_s < s.compression_s, "chunked {} vs serial {}", c.compression_s, s.compression_s);
        let overhead = 4.0 / codec_speedup(4); // 1 + serial_fraction * 3
        assert!(
            c.decompression_s <= s.decompression_s * overhead + 1e-9,
            "saturated decompression {} vs serial {} (allowed x{overhead:.3})",
            c.decompression_s,
            s.decompression_s
        );
        // Transfer is unaffected: the same compressed bytes cross the WAN.
        assert_eq!(c.transfer_s, s.transfer_s);
        assert_eq!(c.bytes_transferred, s.bytes_transferred);

        // Give the destination enough lanes (64 × 36 cores > 768 files) and
        // decompression becomes latency-bound too: codec threads now help.
        let wide = |codec_threads| PipelineOptions {
            decompress_nodes: 64,
            decompress_cores_per_node: None,
            codec_threads,
            ..Default::default()
        };
        let ws = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &wide(1)).breakdown;
        let wc = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &wide(4)).breakdown;
        assert!(
            wc.decompression_s < ws.decompression_s,
            "wide chunked {} vs serial {}",
            wc.decompression_s,
            ws.decompression_s
        );
    }

    #[test]
    fn codec_speedup_is_near_linear_but_sublinear() {
        assert_eq!(codec_speedup(1), 1.0);
        let s4 = codec_speedup(4);
        let s8 = codec_speedup(8);
        assert!(s4 > 3.0 && s4 < 4.0, "4-thread speedup {s4}");
        assert!(s8 > s4 && s8 < 8.0, "8-thread speedup {s8}");
    }

    #[test]
    fn streamed_pipeline_beats_staged_accounting() {
        // The acceptance gate: chunk streaming with a bounded window must
        // not be slower than the staged (additive) pipeline, and hiding the
        // decompression behind the transfer should beat even file-grain
        // overlap on a compute-heavy route.
        let orch = Orchestrator::paper();
        let w = Workload::rtm(ocelot_sz::LossyConfig::sz3(1e-2), 24).unwrap();
        let staged_opts = PipelineOptions::default();
        let staged = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Compressed, &staged_opts).breakdown;
        for window in [4usize, 64] {
            let opts = PipelineOptions { codec_threads: 4, ..Default::default() };
            let streamed = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Pipelined { window }, &opts);
            let streamed_total = streamed.end_s;
            let streamed = streamed.breakdown;
            assert!(
                streamed_total <= staged.total_s(),
                "window {window}: streamed {streamed_total} vs staged {}",
                staged.total_s()
            );
            // Same payload crosses the wire (chunking preserves byte totals).
            assert_eq!(streamed.bytes_transferred, staged.bytes_transferred);
            assert_eq!(streamed.files_transferred, staged.files_transferred);
        }
        // A wider window can only help (less back-pressure).
        let opts = PipelineOptions { codec_threads: 4, ..Default::default() };
        let tn = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Pipelined { window: 2 }, &opts).end_s;
        let tw = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Pipelined { window: 512 }, &opts).end_s;
        assert!(tw <= tn + 1e-6, "wide {tw} vs narrow {tn}");
    }

    #[test]
    fn stream_window_holds_exactly_on_a_3601_chunk_workload() {
        // At this scale an approximate release schedule shows up as chunks
        // shipped before, or held after, the landing one window ahead.
        const W: usize = 8;
        let w = Workload::rtm(ocelot_sz::LossyConfig::sz3(1e-3), 8).unwrap();
        let opts = PipelineOptions { job: Some(1), ..Default::default() };
        let out = Orchestrator::paper().run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Pipelined { window: W }, &opts);
        // Chunks are emitted in wire order, one causal chain each.
        let (mut ready, mut release, mut landed) = (Vec::new(), Vec::new(), Vec::new());
        for e in out.schedule.expect("a run with a job has a schedule").events() {
            match e.event {
                EventKind::Encoded => ready.push(e.t_sim),
                EventKind::Released => release.push(e.t_sim),
                EventKind::Arrived => landed.push(e.t_sim),
                _ => {}
            }
        }
        assert!(ready.len() >= 3000 && release.len() == ready.len() && landed.len() == ready.len());
        let mut stalled = 0;
        for m in 0..ready.len() {
            let gate = if m >= W { landed[m - W] } else { 0.0 };
            assert!(release[m] >= ready[m], "chunk {m} released before it was encoded");
            assert!(
                release[m] >= gate - 1e-9,
                "chunk {m} released at {} before chunk {} landed at {gate}",
                release[m],
                m.saturating_sub(W)
            );
            assert!(release[m] <= ready[m].max(gate) + 1e-9, "chunk {m} held past its window slot");
            stalled += usize::from(release[m] > ready[m]);
        }
        assert!(stalled > 0, "an 8-chunk window over Anvil→Bebop must exert back-pressure");
    }

    /// The emitter the committed records replaced, kept as their oracle: one
    /// event per replayed draft, each numbered on its own from 1, every field
    /// copied over by name.
    fn per_event(schedule: &Schedule) -> Vec<LedgerEvent> {
        let mut out = Vec::new();
        let mut next_seq = 1;
        schedule.replay(|event, d| {
            let seq = next_seq;
            next_seq += 1;
            out.push(LedgerEvent {
                seq,
                parent: d.parent,
                job: d.job,
                file: d.file,
                chunk: d.chunk,
                event,
                cause: d.cause,
                t_sim: d.t_sim,
                t_wall_us: 0,
                bytes: d.bytes,
                attempt: d.attempt,
            });
            seq
        });
        out
    }

    #[test]
    fn schedule_events_equal_the_per_event_emitter_on_the_benchmark_jobs() {
        use ocelot_obs::ledger::check_causality;
        // The applications, routes and per-job seeds of the benchmark's
        // `svc_streamed` batch at `profile_scale = 8`, one codec thread,
        // swept over the window (file-grain overlap, every chunk stalls …
        // none does) and the WAN (healthy … every other attempt fails);
        // window 8 at p = 0.1 is the cell the service runs. The overlapped
        // run (window 0) models a healthy link.
        let config = ocelot_sz::LossyConfig::sz3(1e-3);
        let workloads = [
            Workload::miranda(config, 8).unwrap(),
            Workload::rtm(config, 8).unwrap(),
            Workload::cesm(config, 8).unwrap(),
        ];
        let routes = [(SiteId::Anvil, SiteId::Cori), (SiteId::Anvil, SiteId::Bebop), (SiteId::Bebop, SiteId::Cori)];
        // Every job's schedule is numbered from 1, as the oracle numbers it.
        let orch = Orchestrator::paper();
        let (mut total, mut largest, mut job) = (0, 0, 0u64);
        for (app, w) in workloads.iter().enumerate() {
            for window in [0usize, 1, 8, 64] {
                for p in [0.0, 0.1, 0.5] {
                    for i in 0..3usize {
                        job += 1;
                        let (from, to) = routes[(app + i) % 3];
                        let opts = PipelineOptions {
                            faults: FaultModel { max_retries: 0, ..FaultModel::flaky(p) },
                            seed: 0xC0FFEE ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            job: Some(job),
                            ..Default::default()
                        };
                        let cell = format!("app {app}, window {window}, p {p}, job {job}");
                        let out = orch.run(w, from, to, Strategy::Pipelined { window }, &opts);
                        let schedule = out.schedule.expect("a run with a job has a schedule").numbered(1, 0);
                        let (widened, reference) = (schedule.events(), per_event(&schedule));
                        assert_eq!(widened.len(), schedule.len(), "{cell}: the range reserved is the range widened to");
                        assert_eq!(widened.len(), reference.len(), "{cell}");
                        if let Some(at) = widened.iter().zip(&reference).position(|(a, b)| a != b) {
                            panic!("{cell}, event {at}: widened {:?}, per-event {:?}", widened[at], reference[at]);
                        }
                        assert_eq!(check_causality(&widened, job), Vec::<String>::new(), "{cell}");
                        let faulted = widened.iter().any(|e| e.event == EventKind::Fault && e.cause.is_some());
                        assert_eq!(faulted, p > 0.0 && window > 0, "{cell}: faults exactly where the WAN is flaky");
                        total += widened.len();
                        largest = largest.max(widened.len());
                    }
                }
            }
        }
        assert!(largest > 1 << 16, "the CESM jobs are the ones a 65 536-event ring lost the head of: {largest}");
        assert!(total > 2_000_000, "{total}");
    }

    #[test]
    fn streamed_run_commits_stalls_on_the_critical_path() {
        use ocelot_obs::critpath::{attribute, Stage};
        let orch = Orchestrator::paper();
        let w = Workload::rtm(ocelot_sz::LossyConfig::sz3(1e-2), 24).unwrap();
        // A tight window over a slow route forces back-pressure stalls.
        let opts = PipelineOptions { codec_threads: 4, job: Some(42), ..Default::default() };
        let out = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Pipelined { window: 1 }, &opts);
        let report = attribute(out.schedule.as_ref().expect("a run with a job has a schedule")).report;
        assert!(report.stage(Stage::Stall) > 0.0, "stall time must be attributed distinctly");
        assert_eq!(report.stage(Stage::Compress), 0.0, "compression hides behind the wire");
        let sum: f64 = report.stage_s.iter().sum();
        assert!((sum - report.critical_path_s).abs() < 1e-9);
        assert!((report.critical_path_s - out.end_s).abs() < 1e-6);
        assert!((report.stage(Stage::Decompress) - out.breakdown.decompression_s).abs() < 1e-6);
        assert!(report.total_s > report.critical_path_s, "compression and early decodes overlap the wire");
    }

    #[test]
    fn outcome_instants_are_the_committed_schedules_in_every_mode() {
        use ocelot_obs::critpath::attribute;
        let w = miranda();
        let orch = Orchestrator::paper();
        let kinds = [
            (Strategy::Direct, false),
            (Strategy::Compressed, false),
            (Strategy::grouped_by_count(8), false),
            (Strategy::Compressed, true),
            (Strategy::Pipelined { window: 0 }, false),
            (Strategy::Pipelined { window: 1 }, false),
            (Strategy::Pipelined { window: 64 }, false),
        ];
        let mut job = 0;
        for faults in [FaultModel::none(), FaultModel::flaky(0.3)] {
            for (strategy, sentinel) in kinds {
                job += 1;
                let wait_model = ocelot_faas::WaitTimeModel::Fixed(20.0);
                let opts =
                    PipelineOptions { faults, sentinel, wait_model, seed: job, job: Some(job), ..Default::default() };
                let out = orch.run(&w, SiteId::Anvil, SiteId::Bebop, strategy, &opts);
                let cell = format!("{strategy:?}, sentinel {sentinel}, p {}", faults.per_attempt_failure_prob);
                let schedule =
                    out.schedule.as_ref().unwrap_or_else(|| panic!("{cell}: a run with a job has a schedule"));
                let run = schedule.lifecycle();
                assert_eq!(out.transfer_begin_s.to_bits(), run.transfer_begin_s.to_bits(), "{cell}");
                assert_eq!(out.transfer_end_s.to_bits(), run.transfer_end_s.to_bits(), "{cell}");
                assert_eq!(out.end_s.to_bits(), run.total_s.to_bits(), "{cell}");
                let path = attribute(schedule).report.critical_path_s;
                assert!((out.end_s - path).abs() <= 1e-6, "{cell}: end {} vs critical path {path}", out.end_s);
                if !matches!(strategy, Strategy::Pipelined { .. }) {
                    assert_eq!(out.end_s.to_bits(), out.breakdown.total_s().to_bits(), "{cell}: staged phases add up");
                }
                // Every failed attempt of a unit that arrived is on the record.
                let arrived_retries: u32 = (0..out.attempts.len())
                    .filter(|i| !out.failed_files.contains(i))
                    .map(|i| out.attempts[i] - 1)
                    .sum();
                assert_eq!(schedule.retransmits(), u64::from(arrived_retries), "{cell}");
                assert_eq!(out.attempts.len(), out.transfer_sizes.len(), "{cell}");
            }
        }
    }

    #[test]
    fn staged_schedule_lays_the_breakdown_end_to_end() {
        use ocelot_obs::critpath::{attribute, Stage};
        use ocelot_obs::ledger::check_causality;
        let w = miranda();
        let orch = Orchestrator::paper();
        let wait = ocelot_faas::WaitTimeModel::Fixed(20.0);
        let mut job = 0;
        for strategy in [Strategy::Direct, Strategy::Compressed, Strategy::grouped_by_count(8)] {
            for (faults, sentinel) in
                [(FaultModel::none(), false), (FaultModel::flaky(0.3), false), (FaultModel::none(), true)]
            {
                job += 1;
                let opts = PipelineOptions { faults, sentinel, wait_model: wait, job: Some(job), ..Default::default() };
                let outcome = orch.run(&w, SiteId::Anvil, SiteId::Bebop, strategy, &opts);
                let b = outcome.breakdown;
                let cell = format!("{strategy:?}, p {}, sentinel {sentinel}", faults.per_attempt_failure_prob);
                let schedule =
                    outcome.schedule.as_ref().unwrap_or_else(|| panic!("{cell}: a run with a job has a schedule"));
                assert_eq!(schedule.job(), job);
                let arrived = outcome.transfer_sizes.len() - outcome.failed_files.len();
                assert_eq!(schedule.chunks(), arrived, "{cell}: one row per unit that arrived");
                assert_eq!(check_causality(&schedule.events(), job), Vec::<String>::new(), "{cell}");
                let r = attribute(schedule).report;
                assert_eq!(r.total_s, r.critical_path_s, "{cell}: an additive job overlaps nothing");
                for (stage, phase) in [
                    (Stage::QueueWait, b.queue_wait_s),
                    (Stage::Compress, b.compression_s),
                    (Stage::Group, b.grouping_s),
                    (Stage::Transfer, b.transfer_s),
                    (Stage::Stall, 0.0),
                    (Stage::Decompress, b.decompression_s),
                ] {
                    assert!((r.stage(stage) - phase).abs() <= 1e-6, "{cell}: {stage:?} {} vs {phase}", r.stage(stage));
                }
                assert!((r.critical_path_s - b.total_s()).abs() <= 1e-6, "{cell}");
            }
        }
        // A jobless run builds none.
        let jobless = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &PipelineOptions::default());
        assert!(jobless.schedule.is_none());
    }

    #[test]
    fn staged_schedule_places_units_where_the_wire_put_them() {
        let w = miranda();
        let opts = PipelineOptions { faults: FaultModel::flaky(0.3), job: Some(5), ..Default::default() };
        let outcome = Orchestrator::paper().run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts);
        let b = outcome.breakdown;
        let open = b.queue_wait_s + b.compression_s + b.grouping_s;
        let events = outcome.schedule.as_ref().expect("a run with a job has a schedule").events();
        let at = |kind: EventKind| events.iter().filter(move |e| e.event == kind).map(|e| e.t_sim);
        assert!(at(EventKind::InFlight).all(|t| t >= open), "nothing goes on the wire before it opens");
        assert!(at(EventKind::Arrived).all(|t| t <= open + b.transfer_s + 1e-9));
        assert!(at(EventKind::DecodeBegin).all(|t| t == open + b.transfer_s), "decode after the transfer ends");
        // Every failed attempt of a file that arrived is on the record.
        let delivered_retries: u32 = outcome
            .attempts
            .iter()
            .enumerate()
            .filter(|(i, _)| !outcome.failed_files.contains(i))
            .map(|(_, &a)| a - 1)
            .sum();
        assert!(delivered_retries > 0);
        assert_eq!(at(EventKind::Retransmit).count(), delivered_retries as usize);
    }

    #[test]
    fn warm_runs_equal_cold_runs() {
        // The first run on a workload schedules its phases; later runs, and
        // runs on a clone, read the memo. Neither may change an outcome or
        // its schedule.
        let pristine = miranda();
        let kinds = [
            (Strategy::Direct, false),
            (Strategy::Compressed, false),
            (Strategy::grouped_by_count(8), false),
            (Strategy::Compressed, true),
            (Strategy::grouped_by_count(8), true),
            (Strategy::Pipelined { window: 0 }, false),
            (Strategy::Pipelined { window: 1 }, false),
            (Strategy::Pipelined { window: 8 }, false),
        ];
        let wait_model = ocelot_faas::WaitTimeModel::Fixed(20.0);
        for faults in [FaultModel::none(), FaultModel::flaky(0.3)] {
            for (strategy, sentinel) in kinds {
                let cell = format!("{strategy:?}, sentinel {sentinel}, p {}", faults.per_attempt_failure_prob);
                let opts =
                    PipelineOptions { faults, sentinel, wait_model, seed: 7, job: Some(1), ..Default::default() };
                let run = |w: &Workload| {
                    let out = Orchestrator::paper().run(w, SiteId::Anvil, SiteId::Bebop, strategy, &opts);
                    let events = out.schedule.as_ref().map(Schedule::events).unwrap_or_default();
                    (out, events)
                };
                let w = pristine.clone();
                let cold = run(&w);
                let warm = run(&w);
                let cloned = run(&w.clone());
                assert!(!cold.1.is_empty(), "{cell}: a run with a job commits a schedule");
                assert_eq!(cold, warm, "{cell}: warm run");
                assert_eq!(cold, cloned, "{cell}: run on a clone");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let orch = Orchestrator::paper();
        let w = miranda();
        let opts = PipelineOptions::default();
        let a = orch.run(&w, SiteId::Anvil, SiteId::Cori, Strategy::Compressed, &opts).breakdown;
        let b = orch.run(&w, SiteId::Anvil, SiteId::Cori, Strategy::Compressed, &opts).breakdown;
        assert_eq!(a, b);
    }
}
