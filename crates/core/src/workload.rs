//! The paper's transfer workloads (CESM, RTM, Miranda — §VIII-D) as
//! file-set descriptions with *measured* compression profiles.
//!
//! End-to-end experiments need per-file compressed sizes and compression
//! work for paper-scale datasets (hundreds of GB). Holding those in memory
//! is impossible, so a workload separates concerns:
//!
//! * every file records its **full-scale** size/point count (Table IV
//!   dimensions);
//! * each distinct field is **profiled once** by really compressing a
//!   scaled-down synthetic instance — the measured ratio and bin statistics
//!   extrapolate to the full-size file (compression ratio and bin
//!   distributions are scale-invariant for these statistically homogeneous
//!   fields).
//!
//! Everything a simulated run derives from the workload alone, and not from
//! the run's seed, is derived once per workload and reused by every run:
//!
//! * the per-file vectors — compressed sizes, compression work and
//!   decompression work — are computed when the workload is built;
//! * the longest-processing-time-first (LPT) schedule of a codec phase on a
//!   cluster ([`Workload::makespan`], [`Workload::completion_times`]) is
//!   computed the first time a run asks for it and memoized per
//!   `(phase, cluster, codec threads)`: the makespan for every key, the
//!   per-file completion times only for the pipelined runs that read them.
//!
//! Neither can go stale: the fields are private, one constructor computes
//! the vectors from them, and nothing changes them afterwards, so a cached
//! value is always what a fresh derivation would give. The memo sits behind
//! a lock, so one workload can be shared between threads (the service
//! shares an `Arc<Workload>` across its workers); a schedule is computed
//! outside the lock, and two threads that miss at once compute the same
//! value. A clone starts with a copy of the memo, which holds for the clone
//! as it does for the original.

use std::sync::Arc;

use ocelot_datagen::{Application, FieldSpec};
use ocelot_faas::Cluster;
use ocelot_sz::cost::CostModel;
use ocelot_sz::stats::QuantBinStats;
use ocelot_sz::{compress, decompress, metrics, LossyConfig, SzError};
use parking_lot::Mutex;

/// Measured compression behaviour of one field at one configuration.
#[derive(Debug, Clone)]
pub struct CompressionProfile {
    /// Field name the profile was measured on.
    pub field: String,
    /// Achieved compression ratio.
    pub ratio: f64,
    /// Quantization-bin statistics (drives the time cost model).
    pub bin_stats: QuantBinStats,
    /// Reconstruction PSNR in dB.
    pub psnr: f64,
}

/// One file in a workload.
#[derive(Debug, Clone)]
pub struct WorkloadFile {
    /// File name (diagnostics and grouping manifests).
    pub name: String,
    /// Uncompressed size in bytes at paper scale.
    pub full_bytes: u64,
    /// Number of data points at paper scale.
    pub full_points: usize,
    /// Index into [`Workload::profiles`].
    pub profile: usize,
}

/// A codec phase whose per-file work a cluster schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Compression on the source cluster.
    Compress,
    /// Decompression on the destination cluster.
    Decompress,
}

/// A transfer workload: files plus measured per-field profiles, with the
/// per-file vectors and cluster schedules derived from them (module docs).
#[derive(Debug, Clone)]
pub struct Workload {
    app: Application,
    config: LossyConfig,
    files: Vec<WorkloadFile>,
    profiles: Vec<CompressionProfile>,
    /// Per-file compressed sizes, extrapolated from the profiles.
    compressed: Vec<u64>,
    /// Per-file single-core compression work in reference-core seconds.
    compress_work: Vec<f64>,
    /// Per-file single-core decompression work in reference-core seconds.
    decompress_work: Vec<f64>,
    schedules: Schedules,
}

impl Workload {
    /// The one constructor: derives the per-file vectors from the files and
    /// profiles, with an empty schedule memo.
    fn new(app: Application, config: LossyConfig, files: Vec<WorkloadFile>, profiles: Vec<CompressionProfile>) -> Self {
        let compressed =
            files.iter().map(|f| ((f.full_bytes as f64 / profiles[f.profile].ratio).ceil() as u64).max(1)).collect();
        let cost = CostModel::for_predictor(config.predictor);
        let compress_work =
            files.iter().map(|f| cost.compression_seconds(f.full_points, &profiles[f.profile].bin_stats)).collect();
        let decompress_work =
            files.iter().map(|f| cost.decompression_seconds(f.full_points, &profiles[f.profile].bin_stats)).collect();
        Workload {
            app,
            config,
            files,
            profiles,
            compressed,
            compress_work,
            decompress_work,
            schedules: Schedules::default(),
        }
    }

    /// CESM: 61 snapshots × (81 2-D + 36 3-D) fields ≈ 7137 files, 1.61 TB.
    ///
    /// `profile_scale` controls the size of the synthetic fields really
    /// compressed for profiling (16 → seconds).
    ///
    /// # Errors
    /// Propagates profiling compression errors.
    pub fn cesm(config: LossyConfig, profile_scale: usize) -> Result<Self, SzError> {
        let app = Application::Cesm;
        let profiles = measure_profiles(app, app.fields(), config, profile_scale)?;
        let n_fields = app.fields().len();
        let d2_points = 1800usize * 3600;
        let d3_points = 26 * d2_points;
        let mut files = Vec::new();
        for snap in 0..61 {
            for k in 0..81 {
                files.push(WorkloadFile {
                    name: format!("cesm/snap{snap:02}/f2d_{k:03}.nc"),
                    full_bytes: (d2_points * 4) as u64,
                    full_points: d2_points,
                    profile: (snap * 81 + k) % n_fields,
                });
            }
            for k in 0..36 {
                files.push(WorkloadFile {
                    name: format!("cesm/snap{snap:02}/f3d_{k:03}.nc"),
                    full_bytes: (d3_points * 4) as u64,
                    full_points: d3_points,
                    profile: (snap * 36 + k) % n_fields,
                });
            }
        }
        Ok(Workload::new(app, config, files, profiles))
    }

    /// RTM: 3601 snapshots of 449×449×235, 682 GB.
    ///
    /// # Errors
    /// Propagates profiling compression errors.
    pub fn rtm(config: LossyConfig, profile_scale: usize) -> Result<Self, SzError> {
        let app = Application::Rtm;
        // Profile eight representative snapshot times across the shot.
        let field_names: Vec<String> = (0..8).map(|k| format!("snapshot-{:04}", 200 + k * 450)).collect();
        let refs: Vec<&str> = field_names.iter().map(String::as_str).collect();
        let profiles = measure_profiles(app, &refs, config, profile_scale)?;
        let points = 449usize * 449 * 235;
        let files = (0..3601)
            .map(|snap| WorkloadFile {
                name: format!("rtm/snapshot-{snap:04}.dat"),
                full_bytes: (points * 4) as u64,
                full_points: points,
                profile: (snap * profiles.len()) / 3601,
            })
            .collect();
        Ok(Workload::new(app, config, files, profiles))
    }

    /// Miranda: 768 files of 256×384×384 across 7 fields, 115 GB.
    ///
    /// # Errors
    /// Propagates profiling compression errors.
    pub fn miranda(config: LossyConfig, profile_scale: usize) -> Result<Self, SzError> {
        let app = Application::Miranda;
        let profiles = measure_profiles(app, app.fields(), config, profile_scale)?;
        let points = 256usize * 384 * 384;
        let files = (0..768)
            .map(|k| WorkloadFile {
                name: format!("miranda/{}_{:03}.bin", app.fields()[k % app.fields().len()], k),
                full_bytes: (points * 4) as u64,
                full_points: points,
                profile: k % profiles.len(),
            })
            .collect();
        Ok(Workload::new(app, config, files, profiles))
    }

    /// Builds the workload for an application with its paper-default error
    /// bound (chosen to land in the ratio regime of Table VIII).
    ///
    /// # Errors
    /// Propagates profiling compression errors.
    pub fn paper_default(app: Application, profile_scale: usize) -> Result<Self, SzError> {
        match app {
            Application::Cesm => Self::cesm(LossyConfig::sz3(1e-4), profile_scale),
            Application::Rtm => Self::rtm(LossyConfig::sz3(1e-2), profile_scale),
            Application::Miranda => Self::miranda(LossyConfig::sz3(1e-3), profile_scale),
            other => Err(SzError::InvalidConfig(format!("no paper transfer workload for {other}"))),
        }
    }

    /// A fresh workload of files `skip..` (none when `skip` is past the
    /// end), with the same profiles and its own vectors and memo.
    pub(crate) fn suffix(&self, skip: usize) -> Workload {
        let files = self.files[skip.min(self.files.len())..].to_vec();
        Workload::new(self.app, self.config, files, self.profiles.clone())
    }

    /// Application the workload models.
    pub fn app(&self) -> Application {
        self.app
    }

    /// Compression configuration in effect.
    pub fn config(&self) -> LossyConfig {
        self.config
    }

    /// Files at paper scale.
    pub fn files(&self) -> &[WorkloadFile] {
        &self.files
    }

    /// Distinct measured profiles.
    pub fn profiles(&self) -> &[CompressionProfile] {
        &self.profiles
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total uncompressed bytes.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.full_bytes).sum()
    }

    /// Uncompressed per-file sizes (transfer input for the no-compression
    /// baseline).
    pub fn raw_sizes(&self) -> Vec<u64> {
        self.files.iter().map(|f| f.full_bytes).collect()
    }

    /// Compressed per-file sizes, extrapolated from profiles.
    pub fn compressed(&self) -> &[u64] {
        &self.compressed
    }

    /// An owned copy of [`Workload::compressed`], for callers that keep the
    /// sizes in a `Vec` of their own (the benchmark's workload profile).
    pub fn compressed_sizes(&self) -> Vec<u64> {
        self.compressed.clone()
    }

    /// Overall compression ratio.
    pub fn overall_ratio(&self) -> f64 {
        self.total_bytes() as f64 / self.compressed.iter().sum::<u64>() as f64
    }

    /// Per-file single-core work of a codec phase in reference-core seconds.
    pub fn work(&self, phase: Phase) -> &[f64] {
        match phase {
            Phase::Compress => &self.compress_work,
            Phase::Decompress => &self.decompress_work,
        }
    }

    /// An owned copy of the compression [`Workload::work`], for callers that
    /// keep it in a `Vec` of their own (the benchmark's workload profile).
    pub fn compression_work(&self) -> Vec<f64> {
        self.work(Phase::Compress).to_vec()
    }

    /// Makespan (seconds) of a codec phase on `cluster` with `codec_threads`
    /// chunk-parallel cores per file: [`Cluster::parallel_makespan`] of the
    /// codec-scaled work on the lanes left, bit for bit, computed on the
    /// first call per `(phase, cluster, codec_threads)`.
    pub fn makespan(&self, phase: Phase, cluster: &Cluster, codec_threads: usize) -> f64 {
        self.schedules.get(self.work(phase), phase, cluster, codec_threads, false).1
    }

    /// Per-file completion times (seconds, file order) of the same schedule,
    /// [`Cluster::completion_times`] bit for bit, and its makespan; computed
    /// on the first call per `(phase, cluster, codec_threads)` and kept.
    pub fn completion_times(&self, phase: Phase, cluster: &Cluster, codec_threads: usize) -> (Arc<[f64]>, f64) {
        let (completions, makespan) = self.schedules.get(self.work(phase), phase, cluster, codec_threads, true);
        (completions.expect("completion times were asked for"), makespan)
    }

    /// Worst (minimum) PSNR across profiles — the distortion guarantee shown
    /// to the user.
    pub fn min_psnr(&self) -> f64 {
        self.profiles.iter().map(|p| p.psnr).fold(f64::INFINITY, f64::min)
    }
}

/// Chunk-parallel speedup model: near-linear with a small serial fraction
/// (chunk table assembly, framing, and the final checksum do not
/// parallelize). The fraction is an assumed constant, not a measurement:
/// it gives 97 % two-thread efficiency where the benchmark's
/// `par_eff_enc` / `par_eff_dec` read ≈ 0.71 / 0.81 (ROADMAP item 2(c)).
pub(crate) fn codec_speedup(threads: usize) -> f64 {
    let t = threads.max(1) as f64;
    t / (1.0 + CODEC_SERIAL_FRACTION * (t - 1.0))
}

/// Serial fraction of a chunk-parallel (de)compression task.
const CODEC_SERIAL_FRACTION: f64 = 0.03;

/// What a schedule is keyed on: the phase, the cluster (its core speed by
/// bit pattern) and the codec threads per file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScheduleKey {
    phase: Phase,
    nodes: usize,
    cores_per_node: usize,
    core_speed: u64,
    codec_threads: usize,
}

/// One memoized LPT schedule.
#[derive(Debug, Clone)]
struct Lpt {
    key: ScheduleKey,
    makespan: f64,
    /// Kept once a pipelined run has asked for them.
    completions: Option<Arc<[f64]>>,
}

/// The LPT schedules of one workload's phases, one per key ever asked for
/// (a handful: sites × node counts × codec threads).
#[derive(Debug, Default)]
struct Schedules(Mutex<Vec<Lpt>>);

impl Clone for Schedules {
    fn clone(&self) -> Self {
        Schedules(Mutex::new(self.0.lock().clone()))
    }
}

impl Schedules {
    /// The schedule of `work` for a key: its completion times when
    /// `completions` is set, and its makespan. A miss schedules the
    /// codec-scaled work outside the lock with [`Cluster::completion_times`]
    /// and stores what it returned.
    fn get(
        &self,
        work: &[f64],
        phase: Phase,
        cluster: &Cluster,
        codec_threads: usize,
        completions: bool,
    ) -> (Option<Arc<[f64]>>, f64) {
        let key = ScheduleKey {
            phase,
            nodes: cluster.nodes,
            cores_per_node: cluster.cores_per_node,
            core_speed: cluster.core_speed.to_bits(),
            codec_threads,
        };
        if let Some(hit) = self.0.lock().iter().find(|e| e.key == key) {
            if !completions || hit.completions.is_some() {
                return (hit.completions.clone(), hit.makespan);
            }
        }
        // Each file occupies `codec_threads` cores as one lane and runs
        // faster by the codec speedup.
        let t = codec_threads.max(1);
        let scaled: Vec<f64> = work.iter().map(|w| w / codec_speedup(t)).collect();
        let lanes = (cluster.total_cores() / t).max(1);
        let times = cluster.completion_times(&scaled, lanes);
        let makespan = times.iter().copied().fold(0.0f64, f64::max);
        let times: Option<Arc<[f64]>> = completions.then(|| times.into());
        let mut memo = self.0.lock();
        match memo.iter_mut().find(|e| e.key == key) {
            Some(hit) => {
                if hit.completions.is_none() {
                    hit.completions = times.clone();
                }
            }
            None => memo.push(Lpt { key, makespan, completions: times.clone() }),
        }
        (times, makespan)
    }
}

/// Really compresses a scaled instance of each field, recording profiles.
fn measure_profiles(
    app: Application,
    fields: &[&str],
    config: LossyConfig,
    profile_scale: usize,
) -> Result<Vec<CompressionProfile>, SzError> {
    fields
        .iter()
        .map(|&field| {
            let data = FieldSpec::new(app, field).with_scale(profile_scale).generate();
            let outcome = compress(&data, &config)?;
            let restored = decompress::<f32>(&outcome.blob)?;
            let quality = metrics::compare(&data, &restored)?;
            Ok(CompressionProfile {
                field: field.to_string(),
                ratio: outcome.ratio,
                bin_stats: outcome.bin_stats,
                psnr: if quality.psnr.is_finite() { quality.psnr } else { 200.0 },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fresh schedule of `work`, as the orchestrator computed it before
    /// the memo: the codec-scaled work on the lanes left.
    fn fresh(work: &[f64], cluster: &Cluster, codec_threads: usize) -> (Vec<f64>, f64) {
        let t = codec_threads.max(1);
        let scaled: Vec<f64> = work.iter().map(|w| w / codec_speedup(t)).collect();
        let lanes = (cluster.total_cores() / t).max(1);
        (cluster.completion_times(&scaled, lanes), cluster.parallel_makespan(&scaled, lanes))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The memo stores what `Cluster::completion_times` returned, so
        /// every call — cold or warm, makespan or completions first, either
        /// phase — equals a fresh schedule bit for bit.
        #[test]
        fn memoized_schedule_equals_a_fresh_one(
            work in prop::collection::vec(prop_oneof![Just(0.0), Just(2.5), 0.0f64..40.0], 1..120),
            nodes in 1usize..4,
            cores_per_node in 1usize..200,
            speed in prop_oneof![Just(1.0), 0.25f64..4.0],
            codec_threads in 0usize..9,
            makespan_first in any::<bool>(),
        ) {
            let cluster = Cluster::new(nodes, cores_per_node, speed);
            let (times, makespan) = fresh(&work, &cluster, codec_threads);
            let memo = Schedules::default();
            for phase in [Phase::Compress, Phase::Decompress] {
                for _ in 0..2 {
                    if makespan_first {
                        let (_, m) = memo.get(&work, phase, &cluster, codec_threads, false);
                        prop_assert_eq!(m.to_bits(), makespan.to_bits());
                    }
                    let (got, m) = memo.get(&work, phase, &cluster, codec_threads, true);
                    prop_assert_eq!(bits(&got.expect("asked for")), bits(&times));
                    prop_assert_eq!(m.to_bits(), makespan.to_bits());
                    let (_, m) = memo.get(&work, phase, &cluster, codec_threads, false);
                    prop_assert_eq!(m.to_bits(), makespan.to_bits());
                }
            }
            // One entry per key, whatever the order of the calls.
            prop_assert_eq!(memo.0.lock().len(), 2);
        }
    }

    #[test]
    fn workload_schedules_equal_fresh_ones_cold_warm_and_cloned() {
        let w = Workload::miranda(LossyConfig::sz3(1e-2), 32).unwrap();
        let clusters = [Cluster::new(16, 128, 1.0), Cluster::new(8, 32, 0.8), Cluster::new(1, 4, 1.5)];
        for phase in [Phase::Compress, Phase::Decompress] {
            for cluster in &clusters {
                for threads in [1, 4] {
                    let (times, makespan) = fresh(w.work(phase), cluster, threads);
                    for copy in [w.clone(), w.clone()] {
                        assert_eq!(w.makespan(phase, cluster, threads).to_bits(), makespan.to_bits());
                        let (got, m) = copy.completion_times(phase, cluster, threads);
                        assert_eq!((bits(&got), m.to_bits()), (bits(&times), makespan.to_bits()));
                    }
                }
            }
        }
        // The staged path keeps a makespan only; completions are kept for
        // the keys a pipelined run asked for.
        let memo = w.schedules.0.lock();
        assert_eq!(memo.len(), 12);
        assert!(memo.iter().all(|e| e.completions.is_none()));
    }

    #[test]
    fn cached_vectors_equal_a_fresh_derivation() {
        let w = Workload::cesm(LossyConfig::sz3(1e-3), 32).unwrap();
        let cost = CostModel::for_predictor(w.config().predictor);
        for (i, f) in w.files().iter().enumerate() {
            let p = &w.profiles()[f.profile];
            assert_eq!(w.compressed()[i], ((f.full_bytes as f64 / p.ratio).ceil() as u64).max(1));
            assert_eq!(
                w.work(Phase::Compress)[i].to_bits(),
                cost.compression_seconds(f.full_points, &p.bin_stats).to_bits()
            );
            assert_eq!(
                w.work(Phase::Decompress)[i].to_bits(),
                cost.decompression_seconds(f.full_points, &p.bin_stats).to_bits()
            );
        }
        assert_eq!(w.compressed_sizes(), w.compressed());
        assert_eq!(w.compression_work(), w.work(Phase::Compress));
        // A suffix derives its own vectors: the tail of the whole's.
        let tail = w.suffix(7000);
        assert_eq!(tail.compressed(), &w.compressed()[7000..]);
        assert_eq!(tail.work(Phase::Decompress), &w.work(Phase::Decompress)[7000..]);
        assert_eq!(w.suffix(usize::MAX).file_count(), 0);
    }

    #[test]
    fn cesm_matches_paper_scale() {
        let w = Workload::cesm(LossyConfig::sz3(1e-3), 32).unwrap();
        assert_eq!(w.file_count(), 61 * (81 + 36));
        let tb = w.total_bytes() as f64 / 1e12;
        assert!((1.4..1.8).contains(&tb), "total {tb} TB");
        assert!(w.overall_ratio() > 1.5, "ratio {}", w.overall_ratio());
    }

    #[test]
    fn rtm_matches_paper_scale() {
        let w = Workload::rtm(LossyConfig::sz3(1e-4), 16).unwrap();
        assert_eq!(w.file_count(), 3601);
        let gb = w.total_bytes() as f64 / 1e9;
        assert!((600.0..750.0).contains(&gb), "total {gb} GB");
        // Every file maps to a valid profile.
        assert!(w.files().iter().all(|f| f.profile < w.profiles().len()));
    }

    #[test]
    fn miranda_matches_paper_scale() {
        let w = Workload::miranda(LossyConfig::sz3(1e-2), 32).unwrap();
        assert_eq!(w.file_count(), 768);
        let gb = w.total_bytes() as f64 / 1e9;
        assert!((100.0..130.0).contains(&gb), "total {gb} GB");
    }

    #[test]
    fn compressed_sizes_shrink() {
        let w = Workload::miranda(LossyConfig::sz3(1e-2), 32).unwrap();
        let raw: u64 = w.raw_sizes().iter().sum();
        let comp: u64 = w.compressed_sizes().iter().sum();
        assert!(comp < raw / 2, "raw {raw} comp {comp}");
    }

    #[test]
    fn work_vectors_align_with_files() {
        let w = Workload::miranda(LossyConfig::sz3(1e-2), 32).unwrap();
        assert_eq!(w.compression_work().len(), w.file_count());
        assert!(w.compression_work().iter().all(|&c| c > 0.0));
        let cw: f64 = w.compression_work().iter().sum();
        let dw: f64 = w.work(Phase::Decompress).iter().sum();
        assert!(dw < cw, "decompression should be cheaper");
    }

    #[test]
    fn tighter_bound_lowers_ratio_and_raises_psnr() {
        let tight = Workload::rtm(LossyConfig::sz3(1e-5), 16).unwrap();
        let loose = Workload::rtm(LossyConfig::sz3(1e-2), 16).unwrap();
        assert!(loose.overall_ratio() > tight.overall_ratio());
        assert!(tight.min_psnr() > loose.min_psnr());
    }

    #[test]
    fn paper_default_rejects_unsupported_apps() {
        assert!(Workload::paper_default(Application::Hacc, 16).is_err());
    }
}
