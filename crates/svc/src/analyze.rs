//! Service-level bottleneck analysis: per-job, per-tenant, and overall
//! critical-path attribution plus the advisory scheduler hint derived from
//! the dominant stage.
//!
//! The heavy lifting lives in [`ocelot_obs::critpath`], which attributes
//! each job once from its committed schedule; this module groups those
//! reports by tenant, reshapes them into serde-friendly summaries for
//! the `ocelot analyze` CLI and the bottleneck schema, and turns "where did
//! the time go" into "what should the operator change".

use ocelot_obs::critpath::{self, BottleneckReport, Stage};
use ocelot_obs::metrics::{Metric, Registry};
use ocelot_obs::prof::{Kernel, KERNEL_METRIC_PREFIX};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Serializable view of one [`BottleneckReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BottleneckSummary {
    /// Length of the critical path — the experienced latency.
    pub critical_path_s: f64,
    /// Serialized work (each stage's own busy time, summed);
    /// `>= critical_path_s`.
    pub total_s: f64,
    /// Simulated seconds hidden by overlapping work.
    pub overlap_savings_s: f64,
    /// Stage with the most attributed time (stable lowercase label).
    pub dominant: String,
    /// Seconds attributed to each stage, keyed by stage label.
    pub stages: BTreeMap<String, f64>,
}

impl From<&BottleneckReport> for BottleneckSummary {
    fn from(r: &BottleneckReport) -> Self {
        BottleneckSummary {
            critical_path_s: r.critical_path_s,
            total_s: r.total_s,
            overlap_savings_s: r.overlap_savings_s(),
            dominant: r.dominant.name().to_string(),
            stages: r.stages().map(|(s, v)| (s.name().to_string(), v)).collect(),
        }
    }
}

/// One job's attribution, tagged with its owner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAnalysis {
    /// Job id.
    pub job: u64,
    /// Owning tenant, when the journal knows it.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub tenant: Option<String>,
    /// Where the job's simulated time went.
    pub report: BottleneckSummary,
}

/// Advisory scheduling hint derived from the dominant stage. The service
/// exposes it (and mirrors `recommended_workers` into the
/// `ocelot_svc_recommended_workers` gauge) rather than resizing its own
/// pool mid-run — operators and tests read the signal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerHint {
    /// Dominant stage label the hint reacts to.
    pub dominant: String,
    /// Worker-pool size the dominant stage suggests.
    pub recommended_workers: usize,
    /// Human-readable recommendation.
    pub advice: String,
}

/// The full `ocelot analyze` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceAnalysis {
    /// Per-job attribution, ascending job id.
    pub jobs: Vec<JobAnalysis>,
    /// Per-tenant aggregates (sums over the tenant's jobs).
    pub per_tenant: BTreeMap<String, BottleneckSummary>,
    /// Aggregate over every analyzed job.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub overall: Option<BottleneckSummary>,
    /// Advisory scheduler hint from the overall dominant stage.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub hint: Option<SchedulerHint>,
    /// Chunk retransmits per tenant, counted from the chunk ledger (empty
    /// when no streamed job saw a fault).
    #[serde(skip_serializing_if = "BTreeMap::is_empty", default)]
    pub chunk_retries: BTreeMap<String, u64>,
}

/// The kernel with the largest attributed wall time in the registry's
/// `ocelot_sz_kernel_*_seconds` histograms (from the continuous profiler),
/// with its share of the total kernel time. `None` when no kernel histogram
/// has recorded anything (profiling disabled or no compression run yet).
fn dominant_kernel(registry: &Registry) -> Option<(Kernel, f64)> {
    let mut total = 0.0;
    let mut best: Option<(Kernel, f64)> = None;
    for kernel in Kernel::ALL {
        let name = format!("{KERNEL_METRIC_PREFIX}{}_seconds", kernel.name());
        let Some(Metric::Histogram(h)) = registry.get(&name) else { continue };
        let sum = h.sum();
        total += sum;
        if sum > 0.0 && best.map(|(_, s)| sum > s).unwrap_or(true) {
            best = Some((kernel, sum));
        }
    }
    best.filter(|_| total > 0.0).map(|(k, s)| (k, s / total))
}

/// Kernel-specific remediation for a compression-dominated pipeline, from
/// the profiler's per-kernel attribution.
fn kernel_advice(kernel: Kernel, share: f64) -> String {
    let pct = share * 100.0;
    let what = match kernel {
        Kernel::HuffmanEncode => {
            "a looser --eb narrows the code alphabet; --backend rle+huffman codes runs of the \
             zero bin instead of every point"
        }
        Kernel::Predict => {
            "the predictor sweep is already fused; loosen --eb (fewer escapes) \
             or prefer --predictor lorenzo over interp/regression for wire-speed encodes"
        }
        Kernel::FrameCrc => {
            "framing is already zero-copy with inline CRC; fewer --codec-threads cut the dataset \
             into fewer chunks to frame"
        }
        Kernel::Lz => "--backend huffman skips the LZ pass over the Huffman output",
        Kernel::Rle => "try --backend huffman; RLE is not paying for itself here",
        _ => "read the per-layer budget of the compression kernels (`benchmark run --trace 1`)",
    };
    format!("compression dominates and {} leads its kernels ({pct:.0}% of kernel time); {what}", kernel.name())
}

/// Share of chunk transfers that had to be re-sent, from the streamed
/// orchestrator's `ocelot_chunk_retries_total` / `ocelot_chunk_transfers_total`
/// counters. `None` when no chunk has been transferred yet.
fn chunk_retry_share(registry: &Registry) -> Option<f64> {
    let read = |name: &str| match registry.get(name) {
        Some(Metric::Counter(c)) => c.get(),
        _ => 0,
    };
    let transfers = read("ocelot_chunk_transfers_total");
    if transfers == 0 {
        return None;
    }
    Some(read("ocelot_chunk_retries_total") as f64 / transfers as f64)
}

/// Retransmits start to dominate the wire story above this share of chunk
/// transfers; below it, generic transfer advice applies.
const RETRY_DOMINANT_SHARE: f64 = 0.25;

/// Derives the advisory hint from an aggregate report and the current pool
/// size. Queue/backoff wait is the one stage more concurrency directly
/// attacks, so it is the only stage that grows the pool. When compression
/// dominates and a registry with profiler kernel histograms is available,
/// the advice names the dominant kernel instead of the generic remedy;
/// when transfer dominates and the chunk ledger shows retransmits eating a
/// large share of the wire, the advice targets retries instead of bandwidth.
pub fn derive_hint(report: &BottleneckReport, workers: usize, registry: Option<&Registry>) -> SchedulerHint {
    let (recommended_workers, advice) = match report.dominant {
        Stage::QueueWait => {
            (workers.max(1) * 2, "queue/backoff wait dominates; raise concurrent workers so waits overlap".to_string())
        }
        Stage::Compress => {
            let advice =
                registry.and_then(dominant_kernel).map(|(kernel, share)| kernel_advice(kernel, share)).unwrap_or_else(
                    || "compression dominates; prefer the overlapped strategy or add source nodes".to_string(),
                );
            (workers, advice)
        }
        Stage::Group => (workers, "grouping dominates; raise the transfer group size".to_string()),
        Stage::Transfer => {
            let advice = match registry.and_then(chunk_retry_share) {
                Some(share) if share > RETRY_DOMINANT_SHARE => format!(
                    "chunk retries dominate the wire ({:.0}% of chunk transfers re-sent); \
                     raise --codec-threads for more, smaller chunks per file, or --retries for a larger retry budget",
                    share * 100.0
                ),
                _ => "WAN transfer dominates; raise GridFTP parallelism or loosen error bounds".to_string(),
            };
            (workers, advice)
        }
        Stage::Stall => {
            (workers, "streaming back-pressure dominates; raise stream_window so chunks keep flowing".to_string())
        }
        Stage::Decompress => (workers, "decompression dominates; add destination nodes".to_string()),
    };
    SchedulerHint { dominant: report.dominant.name().to_string(), recommended_workers, advice }
}

/// Builds the full analysis from per-job reports (ascending job id), the
/// job→tenant map (from the journal), the configured pool size, and
/// (optionally) a metrics registry whose profiler kernel histograms refine
/// the hint.
pub fn build_analysis(
    reports: &[BottleneckReport],
    tenants: &HashMap<u64, String>,
    workers: usize,
    registry: Option<&Registry>,
) -> ServiceAnalysis {
    let jobs: Vec<JobAnalysis> = reports
        .iter()
        .map(|r| JobAnalysis {
            job: r.job.unwrap_or(0),
            tenant: r.job.and_then(|j| tenants.get(&j).cloned()),
            report: BottleneckSummary::from(r),
        })
        .collect();

    let mut by_tenant: BTreeMap<String, Vec<&BottleneckReport>> = BTreeMap::new();
    for r in reports {
        let tenant = r.job.and_then(|j| tenants.get(&j).cloned()).unwrap_or_else(|| "(unknown)".to_string());
        by_tenant.entry(tenant).or_default().push(r);
    }
    let per_tenant: BTreeMap<String, BottleneckSummary> = by_tenant
        .into_iter()
        .filter_map(|(tenant, rs)| critpath::aggregate(rs).map(|agg| (tenant, BottleneckSummary::from(&agg))))
        .collect();

    let overall = critpath::aggregate(reports);
    let hint = overall.as_ref().map(|o| derive_hint(o, workers, registry));
    ServiceAnalysis {
        jobs,
        per_tenant,
        overall: overall.as_ref().map(BottleneckSummary::from),
        hint,
        chunk_retries: BTreeMap::new(),
    }
}

/// Renders the analysis as a human-readable table (the CLI's default view;
/// `--json` gets the serde form instead).
pub fn render_analysis(analysis: &ServiceAnalysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ =
        writeln!(out, "bottleneck analysis: {} job(s), {} tenant(s)", analysis.jobs.len(), analysis.per_tenant.len());
    for (tenant, s) in &analysis.per_tenant {
        let _ = writeln!(
            out,
            "  tenant {tenant}: critical path {:.3}s, dominant {} ({:.3}s), overlap saved {:.3}s",
            s.critical_path_s,
            s.dominant,
            s.stages.get(&s.dominant).copied().unwrap_or(0.0),
            s.overlap_savings_s
        );
    }
    if let Some(o) = &analysis.overall {
        let _ = writeln!(out, "  overall: critical path {:.3}s, serialized work {:.3}s", o.critical_path_s, o.total_s);
        for (stage, v) in &o.stages {
            if *v > 0.0 {
                let pct = if o.critical_path_s > 0.0 { 100.0 * v / o.critical_path_s } else { 0.0 };
                let _ = writeln!(out, "    {stage:<11} {v:>10.3}s ({pct:>5.1}%)");
            }
        }
    }
    if !analysis.chunk_retries.is_empty() {
        for (tenant, n) in &analysis.chunk_retries {
            let _ = writeln!(out, "  chunk retries: tenant {tenant} re-sent {n} chunk(s)");
        }
    }
    if let Some(h) = &analysis.hint {
        let _ = writeln!(out, "  hint: {} (recommended workers: {})", h.advice, h.recommended_workers);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_obs::ledger::{Lifecycle, Schedule};

    /// The report of a job that waits `queue` s, compresses `compress` s
    /// before the wire opens and holds the wire `wire` s, its one unit
    /// stalled over `stall` when given.
    fn report(job: u64, queue: f64, compress: f64, wire: f64, stall: Option<(f64, f64)>) -> BottleneckReport {
        let (open, shut) = (queue + compress, queue + compress + wire);
        let (ready, release) = stall.unwrap_or((open, open));
        let schedule = Schedule::new(Lifecycle {
            job,
            transfer_begin_s: open,
            transfer_end_s: shut,
            total_s: shut,
            file: vec![0],
            chunk: vec![0],
            bytes: vec![1],
            compress_begin: vec![queue],
            ready: vec![ready],
            release: vec![release],
            sent: vec![release],
            landed: vec![shut],
            decode: vec![(shut, shut)],
            ..Lifecycle::default()
        })
        .with_phases((queue, open), (0.0, 0.0));
        critpath::attribute(&schedule).report
    }

    fn reports_for_two_tenants() -> (Vec<BottleneckReport>, HashMap<u64, String>) {
        let reports = vec![report(1, 8.0, 0.0, 2.0, None), report(2, 0.0, 0.0, 6.0, None)];
        let tenants = HashMap::from([(1, "climate".to_string()), (2, "seismic".to_string())]);
        (reports, tenants)
    }

    #[test]
    fn analysis_groups_by_tenant_and_derives_a_hint() {
        let (reports, tenants) = reports_for_two_tenants();
        let analysis = build_analysis(&reports, &tenants, 3, None);
        assert_eq!(analysis.jobs.len(), 2);
        assert_eq!(analysis.jobs[0].tenant.as_deref(), Some("climate"));
        assert_eq!(analysis.per_tenant["climate"].dominant, "queue_wait");
        assert_eq!(analysis.per_tenant["seismic"].dominant, "transfer");
        let overall = analysis.overall.as_ref().unwrap();
        assert!((overall.critical_path_s - 16.0).abs() < 1e-9);
        // 8s queue wait vs 8s transfer: queue_wait wins ties in Stage::ALL
        // order, so the hint doubles the pool.
        let hint = analysis.hint.as_ref().unwrap();
        assert_eq!(hint.dominant, "queue_wait");
        assert_eq!(hint.recommended_workers, 6);
        assert!(hint.advice.contains("workers"));
    }

    #[test]
    fn transfer_dominant_keeps_the_pool_size() {
        let analysis = build_analysis(&transfer_dominant_reports(), &HashMap::new(), 4, None);
        let hint = analysis.hint.unwrap();
        assert_eq!(hint.dominant, "transfer");
        assert_eq!(hint.recommended_workers, 4);
        assert_eq!(analysis.per_tenant["(unknown)"].dominant, "transfer");
    }

    /// A report whose dominant stage is transfer, for the retry-hint tests.
    fn transfer_dominant_reports() -> Vec<BottleneckReport> {
        vec![report(1, 0.0, 0.0, 10.0, None)]
    }

    #[test]
    fn retransmit_dominant_transfer_advises_smaller_chunks_or_more_retries() {
        // 400 of 1000 chunk transfers re-sent: well past the 25% threshold,
        // so the hint blames retries, not raw bandwidth.
        let registry = Registry::new();
        registry.counter("ocelot_chunk_transfers_total", "c").add(1000);
        registry.counter("ocelot_chunk_retries_total", "c").add(400);
        let analysis = build_analysis(&transfer_dominant_reports(), &HashMap::new(), 4, Some(&registry));
        let hint = analysis.hint.unwrap();
        assert_eq!(hint.dominant, "transfer");
        assert_eq!(hint.recommended_workers, 4, "retries are not fixed by more workers");
        assert!(hint.advice.contains("chunk retries dominate"), "advice: {}", hint.advice);
        assert!(hint.advice.contains("40%"), "advice carries the share: {}", hint.advice);
        assert!(hint.advice.contains("--codec-threads") && hint.advice.contains("--retries"), "{}", hint.advice);
        // Resume from the last acknowledged chunk was never built, and no
        // flag sets chunk_points: the hint names only what the CLI offers —
        // at every stage, with and without the registry's specific branches.
        assert!(!hint.advice.contains("resume"), "advice: {}", hint.advice);
        registry.histogram("ocelot_sz_kernel_predict_seconds", "k").observe(1.0);
        for dominant in Stage::ALL {
            let report =
                BottleneckReport { job: None, critical_path_s: 1.0, total_s: 1.0, stage_s: [0.0; 6], dominant };
            for registry in [None, Some(&registry)] {
                let advice = derive_hint(&report, 4, registry).advice;
                assert!(!advice.contains("chunk_points"), "{dominant:?}: {advice}");
            }
        }
    }

    #[test]
    fn modest_retry_share_keeps_the_generic_transfer_advice() {
        // 10% re-sent is background noise; and a registry with zero chunk
        // transfers (staged-only service) must not divide by zero.
        let registry = Registry::new();
        registry.counter("ocelot_chunk_transfers_total", "c").add(1000);
        registry.counter("ocelot_chunk_retries_total", "c").add(100);
        let analysis = build_analysis(&transfer_dominant_reports(), &HashMap::new(), 4, Some(&registry));
        assert!(analysis.hint.unwrap().advice.contains("GridFTP parallelism"));
        let empty = Registry::new();
        let analysis = build_analysis(&transfer_dominant_reports(), &HashMap::new(), 4, Some(&empty));
        assert!(analysis.hint.unwrap().advice.contains("GridFTP parallelism"));
    }

    #[test]
    fn stall_dominant_advises_a_wider_window() {
        let analysis = build_analysis(&[report(1, 0.0, 0.0, 10.0, Some((1.0, 9.0)))], &HashMap::new(), 4, None);
        let hint = analysis.hint.unwrap();
        assert_eq!(hint.dominant, "stall");
        assert_eq!(hint.recommended_workers, 4, "back-pressure is not fixed by more workers");
        assert!(hint.advice.contains("stream_window"));
    }

    /// A report whose dominant stage is compression, for kernel-hint tests.
    fn compress_dominant_reports() -> Vec<BottleneckReport> {
        vec![report(1, 0.0, 9.0, 1.0, None)]
    }

    #[test]
    fn compress_dominant_hint_names_the_leading_kernel() {
        let registry = Registry::new();
        // huffman_encode 3s vs predict 1s: the hint must single it out and
        // suggest a backend that codes fewer symbols.
        registry.histogram("ocelot_sz_kernel_huffman_encode_seconds", "k").observe(3.0);
        registry.histogram("ocelot_sz_kernel_predict_seconds", "k").observe(1.0);
        let analysis = build_analysis(&compress_dominant_reports(), &HashMap::new(), 4, Some(&registry));
        let hint = analysis.hint.unwrap();
        assert_eq!(hint.dominant, "compress");
        assert_eq!(hint.recommended_workers, 4);
        assert!(hint.advice.contains("huffman_encode"), "advice: {}", hint.advice);
        assert!(hint.advice.contains("75%"), "advice carries the share: {}", hint.advice);
        assert!(hint.advice.contains("--backend rle+huffman"), "advice: {}", hint.advice);

        // Every kernel's advice names only what `ocelot compress` accepts:
        // no shared table, LZ acceleration factor or chunk_points setting
        // exists to turn. (A back-quoted command is some other tool's.)
        let flags = ["--backend", "--eb", "--predictor", "--codec-threads"];
        let backends = ["huffman", "huffman+lz", "rle+huffman"];
        for kernel in Kernel::ALL {
            let advice = kernel_advice(kernel, 0.5);
            for word in ["shared", "acceleration", "chunk_points"] {
                assert!(!advice.contains(word), "{kernel:?}: {advice}");
            }
            let prose: String = advice.split('`').step_by(2).collect();
            let words: Vec<&str> = prose.split(|c: char| c.is_whitespace() || c == ';' || c == ',').collect();
            for (i, word) in words.iter().enumerate().filter(|(_, w)| w.starts_with("--")) {
                assert!(flags.contains(word), "{kernel:?} names {word}: {advice}");
                if *word == "--backend" {
                    assert!(backends.contains(&words[i + 1]), "{kernel:?}: {advice}");
                }
            }
        }
    }

    #[test]
    fn compress_dominant_hint_falls_back_without_kernel_data() {
        // No registry at all, and a registry with empty kernel histograms,
        // both fall back to the generic compression advice.
        let analysis = build_analysis(&compress_dominant_reports(), &HashMap::new(), 4, None);
        assert!(analysis.hint.unwrap().advice.contains("overlapped strategy"));
        let registry = Registry::new();
        registry.histogram("ocelot_sz_kernel_predict_seconds", "k");
        let analysis = build_analysis(&compress_dominant_reports(), &HashMap::new(), 4, Some(&registry));
        assert!(analysis.hint.unwrap().advice.contains("overlapped strategy"));
    }

    #[test]
    fn kernel_hint_only_applies_when_compression_dominates() {
        // Transfer-dominated pipeline: kernel histograms present, but the
        // hint must stay about the WAN, not the codec.
        let registry = Registry::new();
        registry.histogram("ocelot_sz_kernel_huffman_encode_seconds", "k").observe(3.0);
        let analysis = build_analysis(&transfer_dominant_reports(), &HashMap::new(), 4, Some(&registry));
        let hint = analysis.hint.unwrap();
        assert_eq!(hint.dominant, "transfer");
        assert!(!hint.advice.contains("huffman"), "advice: {}", hint.advice);
    }

    #[test]
    fn analysis_serializes_and_renders() {
        let (reports, tenants) = reports_for_two_tenants();
        let analysis = build_analysis(&reports, &tenants, 2, None);
        let js = serde_json::to_string_pretty(&analysis).unwrap();
        let back: ServiceAnalysis = serde_json::from_str(&js).unwrap();
        assert_eq!(back, analysis);
        let text = render_analysis(&analysis);
        assert!(text.contains("tenant climate"));
        assert!(text.contains("hint:"));
    }

    #[test]
    fn no_reports_yield_an_empty_analysis() {
        let analysis = build_analysis(&[], &HashMap::new(), 2, None);
        assert!(analysis.jobs.is_empty());
        assert!(analysis.overall.is_none());
        assert!(analysis.hint.is_none());
    }
}
