//! Critical-path analysis over recorded simulated-clock spans.
//!
//! The span trees a job leaves behind are *overlapped*: the orchestrator's
//! phase tree, the sentinel's concurrent compress/transfer lanes, and the
//! service's job envelope (retry rounds, backoff) all cover the same
//! simulated timeline. This module answers "where did the time actually
//! go?" by sweeping the timeline in elementary intervals and attributing
//! each interval to the *most specific* (deepest) span covering it, with
//! the primary lane winning ties — so an interval where transfer (lane 0)
//! and background compression (lane 1) overlap counts as transfer time,
//! matching what a user experiences.
//!
//! Two totals come out of the sweep:
//!
//! - `critical_path_s` — the union of covered simulated time: the span of
//!   wall-experienced latency. Per-stage attribution sums to it exactly.
//! - `total_s` — the serialized work: each span's *exclusive* time (its
//!   duration minus its children's coverage) summed over all spans. For an
//!   additive tree this equals the critical path; under overlap it
//!   exceeds it, and `total_s − critical_path_s` is the time saved by
//!   overlapping.

use crate::span::{Clock, SpanRecord};
use std::collections::HashMap;

/// Pipeline stage a span attributes its time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Waiting for remote compute (FuncX queue) or retry backoff.
    QueueWait,
    /// Lossy compression on source nodes.
    Compress,
    /// Packing compressed blobs into transfer groups.
    Group,
    /// Crossing the WAN, including retry re-offers.
    Transfer,
    /// Streaming back-pressure: a chunk ready to ship waiting for window
    /// space (distinct from transfer so overlap stalls are visible).
    Stall,
    /// Decompression on destination nodes.
    Decompress,
    /// Anything unclassified (root envelopes, custom spans).
    Other,
}

impl Stage {
    /// All stages, in attribution-report order.
    pub const ALL: [Stage; 7] = [
        Stage::QueueWait,
        Stage::Compress,
        Stage::Group,
        Stage::Transfer,
        Stage::Stall,
        Stage::Decompress,
        Stage::Other,
    ];

    /// Stable lowercase label used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Compress => "compress",
            Stage::Group => "group",
            Stage::Transfer => "transfer",
            Stage::Stall => "stall",
            Stage::Decompress => "decompress",
            Stage::Other => "other",
        }
    }

    /// Maps a dotted span name to a stage. Backoff counts as queue wait
    /// (the job is parked either way); retry re-offers count as transfer;
    /// streaming back-pressure stalls are checked first so a
    /// `…transfer.stream_stall` child is not swallowed by its transfer
    /// parent's keyword.
    pub fn classify(span_name: &str) -> Stage {
        if span_name.contains("stall") {
            Stage::Stall
        } else if span_name.contains("queue_wait") || span_name.contains("backoff") {
            Stage::QueueWait
        } else if span_name.contains("decompress") {
            Stage::Decompress
        } else if span_name.contains("compress") {
            Stage::Compress
        } else if span_name.contains("group") {
            Stage::Group
        } else if span_name.contains("transfer") || span_name.contains("retry") {
            Stage::Transfer
        } else {
            Stage::Other
        }
    }
}

/// Where one job's (or one aggregate's) simulated time went.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Job the report describes (`None` for aggregates).
    pub job: Option<u64>,
    /// Union of covered simulated time — the experienced latency.
    pub critical_path_s: f64,
    /// Serialized work: sum of every span's exclusive time. Always
    /// `>= critical_path_s`; the excess is time hidden by overlap.
    pub total_s: f64,
    /// Seconds attributed to each stage, indexed like [`Stage::ALL`].
    /// Sums to `critical_path_s` (exactly, up to µs rounding).
    pub stage_s: [f64; Stage::ALL.len()],
    /// Stage with the most attributed time.
    pub dominant: Stage,
}

impl BottleneckReport {
    /// Seconds attributed to `stage`.
    pub fn stage(&self, stage: Stage) -> f64 {
        self.stage_s[Stage::ALL.iter().position(|&s| s == stage).expect("stage in ALL")]
    }

    /// `(stage, seconds)` pairs in [`Stage::ALL`] order.
    pub fn stages(&self) -> impl Iterator<Item = (Stage, f64)> + '_ {
        Stage::ALL.iter().zip(self.stage_s.iter()).map(|(&s, &v)| (s, v))
    }

    /// Simulated seconds saved by overlapping work (`total_s − critical_path_s`).
    pub fn overlap_savings_s(&self) -> f64 {
        (self.total_s - self.critical_path_s).max(0.0)
    }
}

/// Analyzes one job's spans (pass `Recorder::for_job` output). Only
/// simulated-clock spans participate; returns `None` when there are none.
pub fn analyze(spans: &[SpanRecord]) -> Option<BottleneckReport> {
    let sim: Vec<&SpanRecord> = spans.iter().filter(|s| s.clock == Clock::Sim && s.end_us > s.start_us).collect();
    if sim.is_empty() {
        return None;
    }

    // Depth of each span via its parent chain (bounded walk guards cycles).
    let parent_of: HashMap<u64, Option<u64>> = sim.iter().map(|s| (s.id, s.parent)).collect();
    let depth_of = |mut id: u64| -> u32 {
        let mut depth = 0;
        for _ in 0..sim.len() {
            match parent_of.get(&id) {
                Some(Some(p)) => {
                    depth += 1;
                    id = *p;
                }
                _ => break,
            }
        }
        depth
    };
    let depths: HashMap<u64, u32> = sim.iter().map(|s| (s.id, depth_of(s.id))).collect();

    // Serialized work: each span's duration minus its children's coverage.
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &sim {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut total_us: u64 = 0;
    for s in &sim {
        let covered = children.get(&s.id).map(|ivs| union_len_clipped(ivs, s.start_us, s.end_us)).unwrap_or(0);
        total_us += (s.end_us - s.start_us).saturating_sub(covered);
    }

    // Elementary-interval sweep: between consecutive span boundaries the
    // covering set is constant, so each interval is attributed whole.
    let mut cuts: Vec<u64> = sim.iter().flat_map(|s| [s.start_us, s.end_us]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut stage_us = [0u64; Stage::ALL.len()];
    let mut critical_us: u64 = 0;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        // Deepest covering span wins; ties go to the lower (primary) lane,
        // then to the later-recorded span.
        let best = sim
            .iter()
            .filter(|s| s.start_us <= lo && s.end_us >= hi)
            .max_by_key(|s| (depths[&s.id], std::cmp::Reverse(s.lane), s.id));
        if let Some(span) = best {
            let len = hi - lo;
            critical_us += len;
            let idx = Stage::ALL.iter().position(|&s| s == Stage::classify(&span.name)).expect("stage in ALL");
            stage_us[idx] += len;
        }
    }

    let mut stage_s = [0.0; Stage::ALL.len()];
    for (out, &us) in stage_s.iter_mut().zip(&stage_us) {
        *out = us as f64 / 1e6;
    }
    Some(BottleneckReport {
        job: sim.iter().find_map(|s| s.job),
        critical_path_s: critical_us as f64 / 1e6,
        total_s: total_us as f64 / 1e6,
        dominant: dominant_stage(&stage_s),
        stage_s,
    })
}

/// Analyzes every job present in `spans`, one report per job id, ascending.
pub fn analyze_jobs(spans: &[SpanRecord]) -> Vec<BottleneckReport> {
    let mut jobs: Vec<u64> = spans.iter().filter_map(|s| s.job).collect();
    jobs.sort_unstable();
    jobs.dedup();
    jobs.into_iter()
        .filter_map(|j| {
            let own: Vec<SpanRecord> = spans.iter().filter(|s| s.job == Some(j)).cloned().collect();
            analyze(&own)
        })
        .collect()
}

/// Running per-stage sum over reports, in the order they were added — so a
/// long-lived caller folds each new report in instead of re-summing its
/// history, and reads the same bits [`aggregate`] over that history gives.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    reports: u64,
    critical_path_s: f64,
    total_s: f64,
    stage_s: [f64; Stage::ALL.len()],
}

impl Aggregate {
    /// Folds one report into the sum.
    pub fn add(&mut self, report: &BottleneckReport) {
        self.reports += 1;
        self.critical_path_s += report.critical_path_s;
        self.total_s += report.total_s;
        for (acc, v) in self.stage_s.iter_mut().zip(&report.stage_s) {
            *acc += v;
        }
    }

    /// The sum as one aggregate report (`job: None`); `None` before the
    /// first [`Aggregate::add`].
    pub fn report(&self) -> Option<BottleneckReport> {
        (self.reports > 0).then(|| BottleneckReport {
            job: None,
            critical_path_s: self.critical_path_s,
            total_s: self.total_s,
            dominant: dominant_stage(&self.stage_s),
            stage_s: self.stage_s,
        })
    }
}

/// Sums per-stage attribution across reports into one aggregate report
/// (`job: None`). Returns `None` for an empty input.
pub fn aggregate<'a>(reports: impl IntoIterator<Item = &'a BottleneckReport>) -> Option<BottleneckReport> {
    let mut sum = Aggregate::default();
    for r in reports {
        sum.add(r);
    }
    sum.report()
}

/// Stage with the largest attribution; ties resolve in [`Stage::ALL`] order.
fn dominant_stage(stage_s: &[f64; Stage::ALL.len()]) -> Stage {
    let mut best = 0;
    for (i, &v) in stage_s.iter().enumerate() {
        if v > stage_s[best] {
            best = i;
        }
    }
    Stage::ALL[best]
}

/// Length of the union of `ivs` clipped to `[lo, hi]`, in µs.
fn union_len_clipped(ivs: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        ivs.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|&(a, b)| b > a).collect();
    clipped.sort_unstable();
    let mut len = 0;
    let mut cursor = 0u64;
    let mut started = false;
    for (a, b) in clipped {
        if !started || a > cursor {
            len += b - a;
            cursor = b;
            started = true;
        } else if b > cursor {
            len += b - cursor;
            cursor = b;
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Recorder;

    #[test]
    fn additive_tree_attributes_exactly() {
        let r = Recorder::new();
        let root = r.sim_span("pipeline", Some(1), 0, 0.0, 10.0);
        r.sim_child(root, "pipeline.queue_wait", Some(1), 0, 0.0, 1.0);
        r.sim_child(root, "pipeline.compress", Some(1), 0, 1.0, 4.0);
        r.sim_child(root, "pipeline.group", Some(1), 0, 4.0, 4.5);
        r.sim_child(root, "pipeline.transfer", Some(1), 0, 4.5, 9.0);
        r.sim_child(root, "pipeline.decompress", Some(1), 0, 9.0, 10.0);
        let rep = analyze(&r.for_job(1)).unwrap();
        assert_eq!(rep.job, Some(1));
        assert!((rep.critical_path_s - 10.0).abs() < 1e-9);
        assert!((rep.total_s - 10.0).abs() < 1e-9, "additive tree has no overlap, total {}", rep.total_s);
        assert!((rep.stage(Stage::Transfer) - 4.5).abs() < 1e-9);
        assert!((rep.stage(Stage::Compress) - 3.0).abs() < 1e-9);
        assert_eq!(rep.dominant, Stage::Transfer);
        assert_eq!(rep.stage(Stage::Other), 0.0, "children fully cover the root");
        let sum: f64 = rep.stage_s.iter().sum();
        assert!((sum - rep.critical_path_s).abs() < 1e-9);
    }

    #[test]
    fn overlapped_lanes_prefer_the_primary_lane() {
        // Sentinel-style overlap: transfer on lane 0 from t=1, compression
        // running concurrently on lane 1 from t=1 to t=6.
        let r = Recorder::new();
        let root = r.sim_span("pipeline.overlapped", Some(2), 0, 0.0, 10.0);
        r.sim_child(root, "pipeline.queue_wait", Some(2), 0, 0.0, 1.0);
        r.sim_child(root, "pipeline.transfer", Some(2), 0, 1.0, 10.0);
        r.sim_child(root, "pipeline.compress", Some(2), 1, 1.0, 6.0);
        let rep = analyze(&r.for_job(2)).unwrap();
        assert!((rep.critical_path_s - 10.0).abs() < 1e-9);
        // Serialized work: 1 wait + 9 transfer + 5 compress = 15 s.
        assert!((rep.total_s - 15.0).abs() < 1e-9);
        assert!((rep.overlap_savings_s() - 5.0).abs() < 1e-9);
        // The overlap window [1, 6] counts as transfer (lane 0), not compress.
        assert!((rep.stage(Stage::Transfer) - 9.0).abs() < 1e-9);
        assert_eq!(rep.stage(Stage::Compress), 0.0);
        assert_eq!(rep.dominant, Stage::Transfer);
    }

    #[test]
    fn deeper_spans_win_and_backoff_counts_as_queue_wait() {
        // A service envelope over the pipeline tree, with a retry round
        // whose backoff/re-offer children sit deeper than the envelope.
        let r = Recorder::new();
        let job = r.sim_span("svc.job", Some(3), 2, 0.0, 20.0);
        let retry = r.sim_child(job, "svc.retry", Some(3), 2, 10.0, 20.0);
        r.sim_child(retry, "svc.retry.backoff", Some(3), 2, 10.0, 14.0);
        r.sim_child(retry, "svc.retry.transfer", Some(3), 2, 14.0, 20.0);
        let root = r.sim_span("pipeline", Some(3), 0, 0.0, 10.0);
        r.sim_child(root, "pipeline.transfer", Some(3), 0, 0.0, 10.0);
        let rep = analyze(&r.for_job(3)).unwrap();
        assert!((rep.critical_path_s - 20.0).abs() < 1e-9);
        assert!((rep.stage(Stage::QueueWait) - 4.0).abs() < 1e-9, "backoff window");
        assert!((rep.stage(Stage::Transfer) - 16.0).abs() < 1e-9, "first offer + retry re-offer");
        assert_eq!(rep.dominant, Stage::Transfer);
    }

    #[test]
    fn aggregate_sums_and_recomputes_dominant() {
        let r = Recorder::new();
        let a = r.sim_span("pipeline", Some(1), 0, 0.0, 4.0);
        r.sim_child(a, "pipeline.compress", Some(1), 0, 0.0, 4.0);
        let b = r.sim_span("pipeline", Some(2), 0, 0.0, 10.0);
        r.sim_child(b, "pipeline.transfer", Some(2), 0, 0.0, 10.0);
        let reports = analyze_jobs(&r.spans());
        assert_eq!(reports.len(), 2);
        let agg = aggregate(&reports).unwrap();
        assert_eq!(agg.job, None);
        assert!((agg.critical_path_s - 14.0).abs() < 1e-9);
        assert_eq!(agg.dominant, Stage::Transfer);
        assert!(aggregate(&[]).is_none());
    }

    #[test]
    fn stream_stalls_are_attributed_distinctly_from_transfer() {
        // Streamed pipeline: a transfer window with two back-pressure stalls
        // recorded as deeper children. The stall intervals must come out of
        // the transfer bucket and land in Stage::Stall.
        let r = Recorder::new();
        let root = r.sim_span("pipeline.streamed", Some(7), 0, 0.0, 12.0);
        let transfer = r.sim_child(root, "pipeline.transfer", Some(7), 0, 2.0, 12.0);
        r.sim_child(transfer, "pipeline.transfer.stream_stall", Some(7), 0, 3.0, 4.0);
        r.sim_child(transfer, "pipeline.transfer.stream_stall", Some(7), 0, 8.0, 10.5);
        r.sim_child(root, "pipeline.compress", Some(7), 1, 0.0, 9.0);
        let rep = analyze(&r.for_job(7)).unwrap();
        assert_eq!(Stage::classify("pipeline.transfer.stream_stall"), Stage::Stall);
        assert!((rep.critical_path_s - 12.0).abs() < 1e-9);
        assert!((rep.stage(Stage::Stall) - 3.5).abs() < 1e-9, "stall {}", rep.stage(Stage::Stall));
        assert!((rep.stage(Stage::Transfer) - 6.5).abs() < 1e-9, "transfer {}", rep.stage(Stage::Transfer));
        // Compress only shows where nothing deeper covers the lane-0 window.
        assert!((rep.stage(Stage::Compress) - 2.0).abs() < 1e-9);
        assert_eq!(rep.dominant, Stage::Transfer);
    }

    #[test]
    fn wall_spans_and_empty_input_are_ignored() {
        let r = Recorder::new();
        {
            let _g = r.wall_span("compress.real", Some(9), 0);
        }
        assert!(analyze(&r.for_job(9)).is_none(), "wall spans alone yield no sim report");
        assert!(analyze(&[]).is_none());
    }
}
