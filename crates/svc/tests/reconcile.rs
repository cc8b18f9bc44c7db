//! One job, one history: every view of a job reports the same end.
//!
//! Over seeded service cells — a healthy WAN, a 30 % flaky one with the
//! default four attempts, and the same with a budget of two retry rounds;
//! staged and streamed (`stream_window` 4); plain and grouped jobs — every
//! job's `JobReport::latency_s`, its journal's terminal time, the ledger's
//! `job_end`, the critical path `ocelot analyze` reports, the attribution a
//! flight dump carries and the stage sum `ocelot timeline` heads its chart
//! with agree to 1 µs. A job that gave up has no decode event; a job that
//! delivered decodes nothing before its last retry round ends.
//!
//! The last case is a staged Miranda job on a 5 % flaky WAN that delivers
//! after two retry rounds: its schedule must carry the rounds, so its
//! ledger ends when its report does, not when its first pass would have.

use ocelot::orchestrator::Strategy;
use ocelot_datagen::Application;
use ocelot_netsim::{FaultModel, SiteId};
use ocelot_obs::critpath::Stage;
use ocelot_obs::ledger::{check_causality, render_timeline, EventKind, Timeline};
use ocelot_svc::{JobId, JobSpec, JobState, RetryPolicy, Service, ServiceConfig};

/// What a job's views agreed on.
struct Seen {
    delivered: bool,
    rounds: usize,
}

/// Checks every view of `job` against its report; `cell` names the case.
fn reconcile(svc: &Service, job: JobId, cell: &str) -> Seen {
    let report = svc.reports().into_iter().find(|r| r.job == job).expect("the job finished");
    let end = report.latency_s;
    let near = |what: &str, t: f64| assert!((t - end).abs() <= 1e-6, "{cell}: {what} {t} vs latency {end}");

    let journal = svc.journal().into_iter().filter(|e| e.job == job).collect::<Vec<_>>();
    near("journal terminal time", journal.last().expect("journaled").t_s);

    let events = svc.chunk_events(job);
    assert_eq!(check_causality(&events, job.0), Vec::<String>::new(), "{cell}");
    let at = |kind: EventKind| events.iter().filter(move |e| e.event == kind).map(|e| e.t_sim);
    let job_end: Vec<f64> = at(EventKind::JobEnd).collect();
    assert_eq!(job_end.len(), 1, "{cell}: one job_end");
    near("ledger job_end", job_end[0]);

    let attribution = svc.attribution(job).expect("the job's schedule is kept").report;
    near("attribution critical path", attribution.critical_path_s);
    let header_sum: f64 = attribution.stage_s.iter().sum();
    near("timeline header stage sum", header_sum);
    let tl = Timeline::reconstruct(&events, job.0).expect("the job has events");
    near("timeline end", tl.total_s);
    let chart = render_timeline(&tl, &attribution);
    let header = chart.lines().nth(1).expect("a header line");
    for (stage, label) in [(Stage::QueueWait, "queue"), (Stage::Transfer, "transfer"), (Stage::Decompress, "decode")] {
        let shown = format!("{label} {:.3}s", attribution.stage(stage));
        assert!(header.contains(&shown), "{cell}: header {header:?} lacks {shown:?}");
    }

    let analysis = svc.analyze();
    let analyzed = analysis.jobs.iter().find(|j| j.job == job.0).expect("analyzed");
    near("analyze critical path", analyzed.report.critical_path_s);

    let dump = svc
        .flight_dumps()
        .into_iter()
        .find(|d| d.job == Some(job.0))
        .unwrap_or_else(|| svc.force_flight_dump("postmortem", Some(job)));
    near("dump attribution", dump.attribution.as_ref().expect("a job dump is attributed").critical_path_s);
    near("dump clock", dump.t_s);
    let tail = dump.ledger.last().expect("the dump embeds the schedule's tail");
    assert_eq!(tail.kind(), Some(EventKind::JobEnd), "{cell}");
    near("dump ledger tail", tail.t_sim);

    let delivered = report.state == JobState::Done;
    let rounds: Vec<f64> = at(EventKind::RetryEnd).collect();
    let retrying = journal.iter().filter(|e| matches!(e.state, JobState::Retrying(_))).count();
    assert_eq!(rounds.len(), retrying, "{cell}: a retry_end per journaled round");
    if delivered {
        let last_round = rounds.iter().copied().fold(0.0, f64::max);
        assert!(at(EventKind::DecodeBegin).all(|t| t >= last_round), "{cell}: a decode began before round end");
        assert!(at(EventKind::DecodeEnd).count() > 0, "{cell}: a delivered job decodes");
    } else {
        assert!(matches!(report.state, JobState::Failed(_)), "{cell}: {:?}", report.state);
        assert_eq!(at(EventKind::DecodeBegin).count() + at(EventKind::DecodeEnd).count(), 0, "{cell}: decoded");
        assert_eq!(attribution.stage(Stage::Decompress), 0.0, "{cell}");
    }
    Seen { delivered, rounds: rounds.len() }
}

fn service(faults: FaultModel, retry: RetryPolicy, stream_window: usize, seed: u64) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        faults,
        retry,
        stream_window,
        profile_scale: 8,
        seed,
        ..Default::default()
    })
}

#[test]
fn every_view_of_a_job_agrees_on_its_history() {
    let cells = [
        ("healthy", FaultModel::none(), RetryPolicy::default()),
        ("flaky0.3/4-attempts", FaultModel::flaky(0.3), RetryPolicy::default()),
        ("flaky0.3/2-rounds", FaultModel::flaky(0.3), RetryPolicy { max_attempts: 3, ..RetryPolicy::default() }),
    ];
    let mut seen_failed = false;
    for (name, faults, retry) in cells {
        for window in [0usize, 4] {
            let svc = service(faults, retry, window, 7);
            let plain = JobSpec::compressed("a", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Bebop);
            let grouped = JobSpec { strategy: Strategy::grouped_by_count(8), ..plain.clone() };
            let ids = [svc.submit(plain).unwrap(), svc.submit(grouped).unwrap()];
            svc.drain();
            for (id, kind) in ids.into_iter().zip(["plain", "grouped8"]) {
                seen_failed |= !reconcile(&svc, id, &format!("{name}/window{window}/{kind}")).delivered;
            }
        }
    }
    assert!(seen_failed, "some job exhausted its budget");
    // The probe's case: staged, 5 % loss, delivered after two rounds.
    let svc = service(FaultModel::flaky(0.05), RetryPolicy::default(), 0, 0);
    let id = svc.submit(JobSpec::compressed("t", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Bebop)).unwrap();
    svc.drain();
    let seen = reconcile(&svc, id, "probe/flaky0.05/seed0");
    assert!(seen.delivered && seen.rounds == 2, "the probe job delivers after two rounds");
}
