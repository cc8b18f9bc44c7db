//! Golden tests pinning the `ocelot timeline` Gantt rendering.
//!
//! A deterministic streamed job (fixed seed, one worker) populates the
//! chunk-lifecycle ledger; the rendered timeline must match the checked-in
//! golden byte for byte. The render uses simulated times only (no wall
//! stamps, no raw sequence numbers), so the text is stable across machines
//! and reruns. The header is the job's attribution, read off the schedule
//! the events came from. The flaky variant injects WAN faults and must name
//! the retransmitted chunks and their causes.
//!
//! Regenerate with: UPDATE_GOLDEN=1 cargo test -p ocelot-svc --test timeline_golden

use ocelot_datagen::Application;
use ocelot_netsim::{FaultModel, SiteId};
use ocelot_obs::critpath::BottleneckReport;
use ocelot_obs::ledger::{check_causality, render_timeline, Timeline};
use ocelot_svc::{JobId, JobSpec, Service, ServiceConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timeline.txt");
const GOLDEN_FLAKY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timeline_flaky.txt");

fn streamed_job(faults: FaultModel) -> (Vec<ocelot_obs::ledger::LedgerEvent>, Timeline, BottleneckReport) {
    let cfg = ServiceConfig {
        workers: 1,
        codec_threads: 2,
        stream_window: 4,
        profile_scale: 8,
        seed: 1234,
        faults,
        ..Default::default()
    };
    let svc = Service::start(cfg);
    svc.submit(JobSpec::compressed("climate", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Cori)).unwrap();
    svc.drain();
    let events = svc.chunk_events(JobId(0));
    assert!(!events.is_empty(), "streamed job must populate the chunk ledger");
    assert_eq!(check_causality(&events, 0), Vec::<String>::new());
    let tl = Timeline::reconstruct(&events, 0).expect("timeline reconstructs");
    let report = svc.attribution(JobId(0)).expect("the job's schedule is kept").report;
    (events, tl, report)
}

fn check_golden(rendered: &str, path: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file missing — run with UPDATE_GOLDEN=1 to create");
    assert_eq!(rendered, golden, "timeline rendering drifted; run with UPDATE_GOLDEN=1 if intentional");
}

#[test]
fn timeline_rendering_matches_golden() {
    let (events, tl, report) = streamed_job(FaultModel::none());
    assert_eq!(tl.total_retries(), 0, "healthy link must not retransmit");
    let rendered = render_timeline(&tl, &report);
    // Reconstruction and rendering are pure functions of the drained
    // events: a second replay must be byte-identical.
    let again = render_timeline(&Timeline::reconstruct(&events, 0).unwrap(), &report);
    assert_eq!(rendered, again, "render_timeline is not deterministic over the same ledger");
    check_golden(&rendered, GOLDEN);
}

#[test]
fn flaky_timeline_names_retransmitted_chunks_and_causes() {
    let faults = FaultModel { per_attempt_failure_prob: 0.002, max_retries: 3, reconnect_s: 1.0 };
    let (_, tl, report) = streamed_job(faults);
    assert!(tl.total_retries() > 0, "seeded flaky link must retransmit at least one chunk");
    let rendered = render_timeline(&tl, &report);
    // Fault attribution must survive rendering: the retransmit glyph and
    // the injected fault model's cause string both appear, and every
    // retransmitted chunk keeps its row even when clean chunks are elided.
    assert!(rendered.contains('!'), "no retransmit glyph in:\n{rendered}");
    assert!(rendered.contains("wan fault (p=0.00"), "fault cause missing from:\n{rendered}");
    let retried = tl.tracks.iter().filter(|t| !t.retransmits.is_empty()).count();
    let rows_with_bang = rendered.lines().filter(|l| l.contains("attempt(s):")).count();
    assert_eq!(rows_with_bang, retried, "every retransmitted chunk must keep its Gantt row");
    check_golden(&rendered, GOLDEN_FLAKY);
}
