//! Critical-path attribution over a job's committed [`Schedule`].
//!
//! A simulated job leaves one timing record: the schedule its run committed
//! to the ledger (see [`crate::ledger`]). [`attribute`] reads that record's
//! columns directly and answers "where did the time go?" by laying the
//! job's experienced timeline out as consecutive stage intervals:
//!
//! 1. before the wire opens: grouping while the run packed transfer groups,
//!    compression while it encoded, queue wait otherwise;
//! 2. the wire phase (`transfer_begin` → `transfer_end`) minus the merged
//!    stream-window stalls, which count as [`Stage::Stall`];
//! 3. the service's retry rounds, if it ran any ([`Schedule::rounds`]): the
//!    backoff as queue wait, the re-offer as transfer;
//! 4. the decode tail, from the end of the last round (or of the wire) to
//!    `job_end` — unless the job gave up, in which case nothing was decoded.
//!
//! Work that overlaps the wire (a pipelined run's compression and early
//! decodes) hides behind it and is on no stage of the path. It shows in the
//! serialized work, the sum of each stage's own interval union, so
//! `total_s − critical_path_s` is what overlapping saved. Times sit on a
//! microsecond grid, so the stage sums add up to the critical path exactly.

use crate::ledger::Schedule;

/// Pipeline stage simulated time is attributed to.
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
}

impl Stage {
    /// All stages, in attribution-report order.
    pub const ALL: [Stage; 6] =
        [Stage::QueueWait, Stage::Compress, Stage::Group, Stage::Transfer, Stage::Stall, Stage::Decompress];

    /// Stable lowercase label used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Compress => "compress",
            Stage::Group => "group",
            Stage::Transfer => "transfer",
            Stage::Stall => "stall",
            Stage::Decompress => "decompress",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Where one job's (or one aggregate's) simulated time went.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Job the report describes (`None` for aggregates).
    pub job: Option<u64>,
    /// Length of the critical path — the experienced latency.
    pub critical_path_s: f64,
    /// Serialized work: each stage's own busy time, summed. Always
    /// `>= critical_path_s`; the excess is time hidden by overlap.
    pub total_s: f64,
    /// Seconds attributed to each stage, indexed like [`Stage::ALL`]; sums
    /// to `critical_path_s`.
    pub stage_s: [f64; Stage::ALL.len()],
    /// Stage with the most attributed time.
    pub dominant: Stage,
}

impl BottleneckReport {
    /// Seconds attributed to `stage`.
    pub fn stage(&self, stage: Stage) -> f64 {
        self.stage_s[stage.index()]
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

/// One interval of a job's critical path, in simulated microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Stage the interval is attributed to.
    pub stage: Stage,
    /// Start, µs.
    pub start_us: u64,
    /// End, µs.
    pub end_us: u64,
}

/// A job's critical path and the report summed from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Per-stage sums, critical path and serialized work.
    pub report: BottleneckReport,
    /// The critical path: consecutive, non-empty stage intervals from t = 0.
    pub path: Vec<Segment>,
}

/// Simulated seconds on the microsecond grid.
fn us(t: f64) -> u64 {
    (t.max(0.0) * 1e6).round() as u64
}

/// The union of `ivs` as sorted, disjoint, non-empty intervals on the
/// microsecond grid. A schedule's rows are in wire order, so intervals
/// collected from them arrive in long sorted runs, which the (stable,
/// run-adaptive) sort merges instead of sorting from scratch.
fn union_us(mut ivs: Vec<(f64, f64)>) -> Vec<(u64, u64)> {
    // Simulated times are non-negative, where IEEE bit patterns order like
    // the values.
    ivs.sort_by_key(|iv| iv.0.max(0.0).to_bits());
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (a, b) in ivs.into_iter().filter(|(a, b)| b > a) {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged.into_iter().map(|(a, b)| (us(a), us(b))).filter(|(a, b)| b > a).collect()
}

/// Attributes one job's simulated time from its committed schedule. See the
/// module docs for the stage rules.
pub fn attribute(schedule: &Schedule) -> Attribution {
    let run = schedule.lifecycle();
    let mut path: Vec<Segment> = Vec::new();
    let mut push = |stage: Stage, start_us: u64, end_us: u64| {
        if end_us <= start_us {
            return;
        }
        match path.last_mut() {
            Some(last) if last.stage == stage && last.end_us == start_us => last.end_us = end_us,
            _ => path.push(Segment { stage, start_us, end_us }),
        }
    };

    // Before the wire: grouping over compression over queue wait.
    let open = us(run.transfer_begin_s);
    let shut = us(run.transfer_end_s).max(open);
    let (compress_s, group_s) = (schedule.compress(), schedule.group());
    let group = (us(group_s.0).min(open), us(group_s.1).min(open));
    let compress = (us(compress_s.0).min(open), us(compress_s.1).min(open));
    let mut cuts = vec![0, open, group.0, group.1, compress.0, compress.1];
    cuts.sort_unstable();
    cuts.dedup();
    let inside = |iv: (u64, u64), lo: u64, hi: u64| iv.0 <= lo && hi <= iv.1;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let stage = if inside(group, lo, hi) {
            Stage::Group
        } else if inside(compress, lo, hi) {
            Stage::Compress
        } else {
            Stage::QueueWait
        };
        push(stage, lo, hi);
    }

    // The wire phase, with its stalls cut out.
    let stalls = union_us(
        (0..schedule.chunks())
            .filter(|&m| run.stalled(m))
            .map(|m| (run.ready[m].max(run.transfer_begin_s), run.release[m].min(run.transfer_end_s)))
            .collect(),
    );
    let mut cursor = open;
    for &(a, b) in &stalls {
        push(Stage::Transfer, cursor, a);
        push(Stage::Stall, a, b);
        cursor = b;
    }
    push(Stage::Transfer, cursor, shut);

    // The service's rounds, then the decode tail after the last one.
    for r in schedule.rounds() {
        push(Stage::QueueWait, us(r.start_s), us(r.backoff_end_s));
        push(Stage::Transfer, us(r.backoff_end_s), us(r.end_s));
    }
    if schedule.delivered() {
        push(Stage::Decompress, us(schedule.wire_end()).max(shut), us(run.total_s));
    }

    let mut stage_us = [0u64; Stage::ALL.len()];
    for s in &path {
        stage_us[s.stage.index()] += s.end_us - s.start_us;
    }
    let critical_us: u64 = stage_us.iter().sum();

    // Serialized work: queue wait, transfer, stalls and the decode tail are
    // busy exactly where they are on the path; compression, grouping and
    // the decodes behind the wire are busy over their own intervals.
    let len = |iv: (f64, f64)| us(iv.1).saturating_sub(us(iv.0));
    let early_decoding: u64 = if schedule.delivered() {
        let early = run.decode.iter().map(|&(a, b)| (a, b.min(run.transfer_end_s))).collect();
        union_us(early).into_iter().map(|(a, b)| b - a).sum()
    } else {
        0
    };
    let total_us = stage_us[Stage::QueueWait.index()]
        + stage_us[Stage::Transfer.index()]
        + stage_us[Stage::Stall.index()]
        + stage_us[Stage::Decompress.index()]
        + early_decoding
        + len(compress_s)
        + len(group_s);

    let stage_s = stage_us.map(|v| v as f64 / 1e6);
    Attribution {
        report: BottleneckReport {
            job: Some(schedule.job()),
            critical_path_s: critical_us as f64 / 1e6,
            total_s: total_us.max(critical_us) as f64 / 1e6,
            dominant: dominant_stage(&stage_s),
            stage_s,
        },
        path,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{Lifecycle, RetryRound};

    /// A staged job: queue 1 s, compress 3 s, group 0.5 s, two files on the
    /// wire 4.5 → 9 s, decode 9 → 10 s.
    fn staged() -> Schedule {
        Schedule::new(Lifecycle {
            job: 1,
            transfer_begin_s: 4.5,
            transfer_end_s: 9.0,
            total_s: 10.0,
            file: vec![0, 1],
            chunk: vec![0, 0],
            bytes: vec![10, 20],
            compress_begin: vec![1.0; 2],
            ready: vec![4.5; 2],
            release: vec![4.5; 2],
            sent: vec![4.5, 5.0],
            landed: vec![7.0, 9.0],
            decode: vec![(9.0, 10.0); 2],
            ..Lifecycle::default()
        })
        .with_phases((1.0, 4.0), (4.0, 4.5))
    }

    /// A streamed job: queue 2 s, compression 2 → 9 s behind the wire
    /// 2 → 12 s with two window stalls (3 → 4 s and an overlapping pair
    /// 8 → 10.5 s), decodes overlapped from 5 s and a tail to 13 s.
    fn streamed() -> Schedule {
        Schedule::new(Lifecycle {
            job: 7,
            transfer_begin_s: 2.0,
            transfer_end_s: 12.0,
            total_s: 13.0,
            file: vec![0, 1, 2],
            chunk: vec![0, 0, 0],
            bytes: vec![1, 1, 1],
            compress_begin: vec![2.0, 2.5, 7.0],
            ready: vec![3.0, 8.0, 9.0],
            release: vec![4.0, 10.0, 10.5],
            sent: vec![4.0, 10.0, 10.5],
            landed: vec![5.0, 11.0, 12.0],
            decode: vec![(5.0, 6.0), (11.0, 12.5), (12.0, 13.0)],
            ..Lifecycle::default()
        })
        .with_phases((2.0, 9.0), (0.0, 0.0))
    }

    #[test]
    fn additive_tree_attributes_exactly() {
        let a = attribute(&staged());
        let r = &a.report;
        assert_eq!(r.job, Some(1));
        assert_eq!(r.critical_path_s, 10.0);
        assert_eq!(r.total_s, r.critical_path_s, "an additive job overlaps nothing");
        assert_eq!(r.stage_s, [1.0, 3.0, 0.5, 4.5, 0.0, 1.0]);
        assert_eq!(r.dominant, Stage::Transfer);
        let stages: Vec<Stage> = a.path.iter().map(|s| s.stage).collect();
        use Stage::*;
        assert_eq!(stages, [QueueWait, Compress, Group, Transfer, Decompress]);
        assert!(a.path.windows(2).all(|w| w[0].end_us == w[1].start_us), "the path is contiguous");
    }

    #[test]
    fn stream_stalls_are_attributed_distinctly_from_transfer() {
        let r = attribute(&streamed()).report;
        assert_eq!(r.critical_path_s, 13.0);
        assert_eq!(r.stage(Stage::QueueWait), 2.0);
        assert_eq!(r.stage(Stage::Compress), 0.0, "compression hides behind the wire");
        assert_eq!(r.stage(Stage::Stall), 3.5);
        assert_eq!(r.stage(Stage::Transfer), 6.5);
        assert_eq!(r.stage(Stage::Decompress), 1.0);
        // 2 queue + 7 compress + 6.5 transfer + 3.5 stall + 3 decoding
        // (5 → 6, 11 → 13).
        assert_eq!(r.total_s, 22.0);
        assert_eq!(r.overlap_savings_s(), 9.0);
    }

    #[test]
    fn overlapped_lanes_prefer_the_primary_lane() {
        // File-grain overlap: the wire opens at the queue grant (1 s) and
        // runs to 10 s while compression runs behind it from 1 to 6 s.
        let schedule = Schedule::new(Lifecycle {
            job: 2,
            transfer_begin_s: 1.0,
            transfer_end_s: 10.0,
            total_s: 11.0,
            file: vec![0],
            chunk: vec![0],
            bytes: vec![1],
            compress_begin: vec![1.0],
            ready: vec![6.0],
            release: vec![6.0],
            sent: vec![6.0],
            landed: vec![10.0],
            decode: vec![(10.0, 11.0)],
            ..Lifecycle::default()
        })
        .with_phases((1.0, 6.0), (0.0, 0.0));
        let r = attribute(&schedule).report;
        assert_eq!(r.critical_path_s, 11.0);
        // The overlap window counts as transfer, not compression.
        assert_eq!(r.stage_s, [1.0, 0.0, 0.0, 9.0, 0.0, 1.0]);
        // Serialized work: 1 wait + 5 compress + 9 transfer + 1 decode.
        assert_eq!(r.total_s, 16.0);
        assert_eq!(r.overlap_savings_s(), 5.0);
        assert_eq!(r.dominant, Stage::Transfer);
    }

    #[test]
    fn retry_backoff_is_queue_wait_and_a_failed_job_decodes_nothing() {
        let rounds = vec![
            RetryRound { start_s: 9.0, backoff_end_s: 11.0, end_s: 12.0 },
            RetryRound { start_s: 12.0, backoff_end_s: 16.0, end_s: 17.5 },
        ];
        let delivered = attribute(&staged().with_rounds(rounds.clone(), true));
        let r = &delivered.report;
        assert_eq!(r.critical_path_s, 18.5);
        assert_eq!(r.stage(Stage::QueueWait), 7.0, "queue wait plus both backoffs");
        assert_eq!(r.stage(Stage::Transfer), 7.0, "the wire plus both re-offers");
        assert_eq!(r.stage(Stage::Decompress), 1.0);
        assert_eq!(
            delivered.path.last().unwrap(),
            &Segment { stage: Stage::Decompress, start_us: 17_500_000, end_us: 18_500_000 }
        );
        assert_eq!(r.total_s, r.critical_path_s);

        // Off the microsecond grid, the tail after the rounds still
        // serializes exactly what it puts on the path.
        let off_grid = Schedule::new(Lifecycle {
            transfer_begin_s: 4.5,
            transfer_end_s: 9.000_000_4,
            total_s: 10.000_000_9,
            ..Lifecycle::default()
        });
        let late = [RetryRound { start_s: 9.000_000_4, backoff_end_s: 11.0, end_s: 12.333_333_6 }];
        let r = attribute(&off_grid.with_rounds(late.to_vec(), true)).report;
        assert_eq!(r.total_s, r.critical_path_s);

        let failed = attribute(&staged().with_rounds(rounds, false)).report;
        assert_eq!(failed.critical_path_s, 17.5, "the job ends with its last round");
        assert_eq!(failed.stage(Stage::Decompress), 0.0);
        assert_eq!(failed.total_s, failed.critical_path_s);
    }

    #[test]
    fn aggregate_sums_and_recomputes_dominant() {
        let reports = [attribute(&staged()).report, attribute(&streamed()).report];
        let agg = aggregate(&reports).unwrap();
        assert_eq!(agg.job, None);
        assert_eq!(agg.critical_path_s, 23.0);
        assert_eq!(agg.dominant, Stage::Transfer);
        let mut running = Aggregate::default();
        reports.iter().for_each(|r| running.add(r));
        assert_eq!(running.report(), Some(agg));
        assert!(aggregate(&[]).is_none());
    }
}
