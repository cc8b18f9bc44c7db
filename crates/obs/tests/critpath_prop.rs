//! Property-based tests for critical-path attribution: on *arbitrary*
//! schedules (random phase boundaries, per-chunk stalls and decodes, and
//! service retry rounds built into the schedule), the report keeps its
//! contract.

use ocelot_obs::critpath::{attribute, Stage};
use ocelot_obs::ledger::{Lifecycle, RetryRound, Schedule};
use proptest::prelude::*;

/// One chunk blueprint: (ready offset, stall, wire time, decode wait,
/// decode time), all in seconds.
type Chunk = (f64, f64, f64, f64, f64);

/// A schedule from a queue wait, a compression and grouping phase, and
/// chunks released onto a wire that opens after them (`staged`) or right
/// after the queue wait, with compression behind it.
fn schedule(wait: f64, compress: f64, group: f64, staged: bool, chunks: &[Chunk]) -> Schedule {
    let open = if staged { wait + compress + group } else { wait };
    let mut run = Lifecycle { job: 42, transfer_begin_s: open, ..Lifecycle::default() };
    let mut shut = open;
    for (m, &(at, stall, wire, queued, dur)) in chunks.iter().enumerate() {
        let ready = open + at;
        let release = ready + stall;
        let landed = release + wire;
        shut = shut.max(landed);
        run.file.push(m as u32);
        run.chunk.push(0);
        run.bytes.push(1);
        run.compress_begin.push(wait);
        run.ready.push(ready);
        run.release.push(release);
        run.sent.push(release);
        run.landed.push(landed);
        run.decode.push((landed + queued, landed + queued + dur));
    }
    run.transfer_end_s = shut;
    run.total_s = run.decode.iter().fold(shut, |acc, d| acc.max(d.1));
    let group = if staged { (wait + compress, open) } else { (0.0, 0.0) };
    Schedule::new(run).with_phases((wait, wait + compress), group)
}

fn chunks() -> impl Strategy<Value = Vec<Chunk>> {
    prop::collection::vec(
        (0.0f64..50.0, prop_oneof![Just(0.0), 0.0f64..20.0], 0.0f64..5.0, 0.0f64..2.0, 0.0f64..3.0),
        0..24,
    )
}

/// Back-to-back retry rounds from `start`, each a (backoff, re-offer) pair.
fn rounds(start: f64, pairs: &[(f64, f64)]) -> Vec<RetryRound> {
    let mut t = start;
    pairs
        .iter()
        .map(|&(backoff, offer)| {
            let r = RetryRound { start_s: t, backoff_end_s: t + backoff, end_s: t + backoff + offer };
            t = r.end_s;
            r
        })
        .collect()
}

/// A random schedule with its retry rounds and outcome: (schedule, staged).
fn case() -> impl Strategy<Value = (Schedule, bool)> {
    (
        (0.0f64..30.0, 0.0f64..30.0, 0.0f64..5.0),
        (any::<bool>(), any::<bool>()),
        chunks(),
        prop::collection::vec((0.0f64..8.0, 0.0f64..20.0), 0..4),
    )
        .prop_map(|((wait, compress, group), (staged, delivered), cs, pairs)| {
            let s = schedule(wait, compress, group, staged, &cs);
            let rounds = rounds(s.lifecycle().transfer_end_s, &pairs);
            (s.with_rounds(rounds, delivered), staged)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The critical path never exceeds the serialized work and ends at the
    /// schedule's `job_end`, and a job that gave up decoded nothing.
    #[test]
    fn critical_path_never_exceeds_total(c in case()) {
        let (s, _) = c;
        let r = attribute(&s).report;
        prop_assert!(r.critical_path_s <= r.total_s, "critical {} > total {}", r.critical_path_s, r.total_s);
        prop_assert!(r.overlap_savings_s() >= 0.0);
        let end = s.lifecycle().total_s;
        prop_assert!((r.critical_path_s - end).abs() <= 1e-6, "critical {} vs job_end {end}", r.critical_path_s);
        if !s.delivered() {
            prop_assert_eq!(r.stage(Stage::Decompress), 0.0);
            prop_assert_eq!(end, s.wire_end(), "a job that gave up ends with its last round");
        }
    }

    /// The path is contiguous from t = 0 (up to the µs grid where a round
    /// starts), its stage sums are the critical path, and the dominant
    /// stage is an argmax.
    #[test]
    fn stage_attribution_sums_to_critical_path(c in case()) {
        let (s, staged) = c;
        let a = attribute(&s);
        let r = &a.report;
        prop_assert_eq!(a.path.first().map_or(0, |p| p.start_us), 0);
        for w in a.path.windows(2) {
            prop_assert!(w[0].end_us <= w[1].start_us + 1, "path overlaps itself: {:?}", w);
            prop_assert!(w[0].end_us + 1 >= w[1].start_us, "path has a gap: {:?}", w);
        }
        let on_path: u64 = a.path.iter().map(|p| p.end_us - p.start_us).sum();
        prop_assert_eq!(on_path as f64 / 1e6, r.critical_path_s);
        let sum: f64 = r.stage_s.iter().sum();
        prop_assert!((sum - r.critical_path_s).abs() < 1e-9, "stage sum {} vs critical {}", sum, r.critical_path_s);
        let max = r.stage_s.iter().cloned().fold(0.0f64, f64::max);
        prop_assert_eq!(r.stage(r.dominant), max);
        if !staged {
            prop_assert_eq!(r.stage(Stage::Compress) + r.stage(Stage::Group), 0.0, "a pipelined job compresses behind the wire");
        }
    }
}
