//! Timeline-consistency invariant for the chunk-lifecycle ledger: replaying
//! a streamed job's events into per-chunk tracks must give back the
//! envelope of the critical path read off the same job's schedule — the
//! wire opening where the path leaves its queue wait, the job ending where
//! the path does — across codec thread counts and stream windows (including
//! the window-0 overlapped degenerate case), with causally sound event
//! chains and gap-free tracks. The stage sums themselves have one
//! derivation, `critpath::attribute`, which `render_timeline` prints.

use std::sync::OnceLock;

use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_netsim::{FaultModel, SiteId};
use ocelot_obs::critpath::{attribute, BottleneckReport, Stage};
use ocelot_obs::ledger::{check_causality, render_timeline, LedgerEvent, Timeline};
use ocelot_sz::engine::ChunkLayout;
use proptest::prelude::*;

/// The Miranda workload (768 files of 256×384×384); profiles are measured once.
fn workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| Workload::miranda(ocelot_sz::LossyConfig::sz3(1e-2), 32).expect("profiling succeeds"))
}

/// Runs one streamed job and returns its schedule's events plus its
/// attribution.
fn run_case(
    threads: usize,
    window: usize,
    wait: f64,
    faults: FaultModel,
    job: u64,
) -> (Vec<LedgerEvent>, BottleneckReport) {
    let opts = PipelineOptions {
        codec_threads: threads,
        wait_model: ocelot_faas::WaitTimeModel::Fixed(wait),
        faults,
        job: Some(job),
        ..PipelineOptions::default()
    };
    let out = Orchestrator::paper().run(workload(), SiteId::Bebop, SiteId::Cori, Strategy::Pipelined { window }, &opts);
    let schedule = out.schedule.expect("a run with a job has a schedule");
    (schedule.events(), attribute(&schedule).report)
}

/// Asserts one track's intervals are monotone and contiguous: each interval
/// is well-formed, consecutive phases do not overlap backwards, and the
/// compress → window-wait → transfer chain leaves no gaps (the only allowed
/// gap is arrived → decode, which the reorder interval must cover).
fn assert_track_contiguous(t: &ocelot_obs::ledger::ChunkTrack) {
    let ordered = [t.compress, t.window_wait, t.transfer, t.reorder, t.decode];
    let mut last_end = f64::NEG_INFINITY;
    for iv in ordered.iter().flatten() {
        assert!(iv.1 >= iv.0 - 1e-9, "interval runs backwards: {iv:?} in {t:?}");
        assert!(iv.0 >= last_end - 1e-6, "phase starts before the prior one ends: {t:?}");
        last_end = last_end.max(iv.1);
    }
    if let (Some(c), Some(x)) = (t.compress, t.transfer) {
        // encoded → released → transfer is gap-free (window-wait fills any
        // distance between encode completion and release).
        let bridged = t.window_wait.map_or(c.1, |w| {
            assert!((w.0 - c.1).abs() < 1e-6, "window wait must start at encode completion: {t:?}");
            w.1
        });
        assert!((x.0 - bridged).abs() < 1e-6, "gap between release and transfer start: {t:?}");
    }
    if let (Some(x), Some(d)) = (t.transfer, t.decode) {
        // Any arrived → decode gap must be reorder-buffer residency.
        let covered = t.reorder.map_or(x.1, |r| {
            assert!((r.0 - x.1).abs() < 1e-6, "reorder must start at arrival: {t:?}");
            r.1
        });
        assert!(d.0 >= covered - 1e-6, "decode cannot start before its input: {t:?}");
        assert!((d.0 - covered).abs() < 1e-3, "uncovered gap between arrival and decode: {t:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The timeline replayed from the events opens the wire and ends the job
    /// where the attribution of the schedule they were derived from does
    /// (to 1 µs), for every (threads, window) combination, and the event
    /// stream passes the causality checker.
    #[test]
    fn replayed_timeline_matches_critpath_stages(
        ti in 0usize..4,
        wi in 0usize..4,
        wa in 0usize..2,
        job in 1u64..1000,
    ) {
        let threads = [1usize, 2, 4, 8][ti];
        let window = [0usize, 1, 4, 1024][wi];
        let wait = [0.0f64, 50.0][wa];
        let (events, report) = run_case(threads, window, wait, FaultModel::none(), job);
        prop_assert!(!events.is_empty(), "streamed run must emit ledger events");
        let violations = check_causality(&events, job);
        prop_assert!(violations.is_empty(), "causality violations: {violations:?}");
        let tl = Timeline::reconstruct(&events, job).expect("job has events");
        let cell = format!("threads {threads}, window {window}, wait {wait}");
        let before_wire = report.stage(Stage::QueueWait) + report.stage(Stage::Compress) + report.stage(Stage::Group);
        prop_assert!((tl.transfer_begin_s - before_wire).abs() <= 1e-6, "{cell}: wire opens at {}", tl.transfer_begin_s);
        prop_assert!((tl.total_s - report.critical_path_s).abs() <= 1e-6, "{cell}: job ends at {}", tl.total_s);
        for t in &tl.tracks {
            assert_track_contiguous(t);
        }
        // Expected chunk population: what the real engine's layout splits a
        // Miranda file into at this thread count (window > 0), or one
        // file-grain track each (window 0 → overlapped path).
        let k = if window == 0 { 1 } else { ChunkLayout::plan(&[256, 384, 384], threads, None).n_chunks() };
        prop_assert_eq!(tl.tracks.len(), workload().file_count() * k);
    }
}

#[test]
fn fault_injected_run_names_retransmitted_chunks_and_causes() {
    let render = |job| {
        let (events, report) = run_case(4, 4, 0.0, FaultModel::flaky(0.3), job);
        let violations = check_causality(&events, job);
        assert!(violations.is_empty(), "causality violations: {violations:?}");
        let tl = Timeline::reconstruct(&events, job).expect("job has events");
        assert!(tl.total_retries() > 0, "a 30% flaky link must retransmit");
        let faulted = tl.tracks.iter().find(|t| !t.retransmits.is_empty()).expect("some chunk faulted");
        assert!(faulted.retransmits[0].2.contains("wan fault"), "cause: {:?}", faulted.retransmits[0]);
        assert!(faulted.attempts > 1);
        render_timeline(&tl, &report)
    };
    let a = render(7);
    let b = render(7);
    assert_eq!(a, b, "rendering must be byte-stable across reruns of the same seeded job");
    assert!(a.contains('!'), "retransmit segments must appear in the Gantt:\n{a}");
}

#[test]
fn fault_injection_slows_streamed_transfer_but_delivers_payload() {
    let opts = |faults| PipelineOptions { codec_threads: 4, faults, ..PipelineOptions::default() };
    let streamed = Strategy::Pipelined { window: 1 };
    // Window 1 serializes the wire, so any chunk's retransmitted partials
    // push every later release — the makespan must stretch.
    let orch = Orchestrator::paper();
    let healthy = orch.run(workload(), SiteId::Anvil, SiteId::Bebop, streamed, &opts(FaultModel::none())).breakdown;
    let flaky = orch.run(workload(), SiteId::Anvil, SiteId::Bebop, streamed, &opts(FaultModel::flaky(0.3))).breakdown;
    assert!(flaky.transfer_s > healthy.transfer_s, "flaky {} vs healthy {}", flaky.transfer_s, healthy.transfer_s);
    // Retransmitted partials are wasted wire bytes, not payload.
    assert_eq!(flaky.bytes_transferred, healthy.bytes_transferred);
    assert_eq!(flaky.files_transferred, healthy.files_transferred);
}
