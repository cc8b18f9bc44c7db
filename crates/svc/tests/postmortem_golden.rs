//! Golden test pinning the `ocelot postmortem` text rendering.
//!
//! A deterministic faulty-WAN job (fixed seed, one worker, every attempt
//! failing) exhausts its retry budget and snaps a flight dump; the rendered
//! post-mortem must match the checked-in golden byte for byte. The render
//! prints no wall-clock timing and every number on the simulated clock, so
//! the text is stable across machines.
//!
//! A dump is assembled from the journal and the job's schedule, both
//! seeded, so the text is identical run to run. The streamed case forces a
//! dump of a job that delivered; its clock is the job's own.
//!
//! Regenerate with: UPDATE_GOLDEN=1 cargo test -p ocelot-svc --test postmortem_golden

use ocelot_datagen::Application;
use ocelot_netsim::{FaultModel, SiteId};
use ocelot_svc::{JobId, JobSpec, RetryPolicy, Service, ServiceConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/postmortem.txt");
const GOLDEN_STREAMED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/postmortem_streamed.txt");

#[test]
fn postmortem_rendering_matches_golden() {
    let cfg = ServiceConfig {
        workers: 1,
        faults: FaultModel { per_attempt_failure_prob: 1.0, max_retries: 1, reconnect_s: 1.0 },
        retry: RetryPolicy { max_attempts: 2, base_backoff_s: 4.0, multiplier: 2.0, max_backoff_s: 30.0, jitter: 0.0 },
        profile_scale: 8,
        seed: 1234,
        ..Default::default()
    };
    let svc = Service::start(cfg);
    svc.submit(JobSpec::compressed("climate", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Cori)).unwrap();
    svc.drain();

    let dumps = svc.flight_dumps();
    assert_eq!(dumps.len(), 1, "the doomed job must snap exactly one dump");
    assert_eq!(dumps[0].reason, "retry_exhausted");
    let rendered = ocelot_svc::render_postmortem(&dumps[0]);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file missing — run with UPDATE_GOLDEN=1 to create");
    assert_eq!(rendered, golden, "postmortem rendering drifted; run with UPDATE_GOLDEN=1 if intentional");
}

/// A healthy streamed job (stream_window > 0): the post-mortem must label
/// back-pressure stall time distinctly from transfer in the attribution
/// table, and the dump embeds the job's chunk-ledger tail.
#[test]
fn streamed_postmortem_rendering_matches_golden() {
    let cfg = ServiceConfig {
        workers: 1,
        codec_threads: 4,
        stream_window: 1,
        profile_scale: 8,
        seed: 1234,
        ..Default::default()
    };
    let svc = Service::start(cfg);
    svc.submit(JobSpec::compressed("seismic", Application::Rtm, 1e-3, SiteId::Anvil, SiteId::Bebop)).unwrap();
    svc.drain();

    let dump = svc.force_flight_dump("postmortem", Some(JobId(0)));
    let rendered = ocelot_svc::render_postmortem(&dump);
    assert!(rendered.contains("stall"), "streamed job must attribute stall time:\n{rendered}");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_STREAMED, &rendered).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(GOLDEN_STREAMED).expect("golden file missing — run with UPDATE_GOLDEN=1 to create");
    assert_eq!(rendered, golden, "streamed postmortem drifted; run with UPDATE_GOLDEN=1 if intentional");
}
