//! Critical-path attribution held to the numbers the span-tree analysis
//! gave before a job's committed schedule became its one timing record.
//!
//! `golden/attribution.txt` pins, per case, the critical path and the
//! seconds of each stage over a grid of orchestrator runs — {Direct,
//! Compressed, Grouped(8), sentinel} staged, overlapped, and streamed at
//! window {1, 4, 1024}, × a healthy and a 30 % flaky WAN × one and four
//! codec threads — plus service jobs that retry (staged and streamed) and
//! one that exhausts its retry budget. Attribution from the schedule must
//! match every number to 1 µs, with one named correction: a job that
//! exhausted its budget (the exhausted one, and retrying jobs that ran out)
//! decoded nothing, so its decode time leaves both its decompress stage and
//! its critical path. Serialized work, the other correction, is not pinned
//! (the span trees counted envelopes as work); a staged job's now equals its
//! critical path.

use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_datagen::Application;
use ocelot_netsim::{FaultModel, SiteId};
use ocelot_obs::critpath::attribute;
use ocelot_svc::{JobSpec, RetryPolicy, Service, ServiceConfig};

const FIXTURE: &str = include_str!("golden/attribution.txt");

/// Critical path, then queue_wait, compress, group, transfer, stall,
/// decompress.
type Row = [f64; 7];

fn row(critical_path_s: f64, stage_s: &[f64; 6]) -> Row {
    let mut r = [critical_path_s; 7];
    r[1..].copy_from_slice(stage_s);
    r
}

/// One case of the grid, labelled as in the fixture.
struct Case {
    label: String,
    row: Row,
    /// Serialized work.
    total_s: f64,
    /// Additive (staged): it must serialize exactly its critical path.
    staged: bool,
    /// The job gave up: its pinned decode is the correction.
    failed: bool,
}

fn measure() -> Vec<Case> {
    let mut out = Vec::new();
    let w = Workload::miranda(ocelot_sz::LossyConfig::sz3(1e-2), 32).unwrap();
    let mut job = 0u64;
    for (fname, faults) in [("none", FaultModel::none()), ("flaky0.3", FaultModel::flaky(0.3))] {
        for threads in [1usize, 4] {
            let kinds = [
                ("direct", Some(Strategy::Direct), 0, false),
                ("compressed", Some(Strategy::Compressed), 0, false),
                ("grouped8", Some(Strategy::grouped_by_count(8)), 0, false),
                ("sentinel", Some(Strategy::Compressed), 0, true),
                ("overlapped", None, 0, false),
                ("streamed1", None, 1, false),
                ("streamed4", None, 4, false),
                ("streamed1024", None, 1024, false),
            ];
            for (kind, strategy, window, sentinel) in kinds {
                job += 1;
                let orch = Orchestrator::paper();
                let opts = PipelineOptions {
                    codec_threads: threads,
                    wait_model: ocelot_faas::WaitTimeModel::Fixed(20.0),
                    sentinel,
                    faults,
                    seed: job,
                    job: Some(job),
                    ..PipelineOptions::default()
                };
                let s = strategy.unwrap_or(Strategy::Pipelined { window });
                let run = orch.run(&w, SiteId::Anvil, SiteId::Bebop, s, &opts);
                let r = attribute(&run.schedule.expect("a run with a job has a schedule")).report;
                out.push(Case {
                    label: format!("run/{kind}/{fname}/t{threads}"),
                    row: row(r.critical_path_s, &r.stage_s),
                    total_s: r.total_s,
                    staged: strategy.is_some(),
                    failed: false,
                });
            }
        }
    }
    let svc = |stream_window: usize, faults: FaultModel, retry: RetryPolicy| {
        Service::start(ServiceConfig {
            workers: 1,
            faults,
            retry,
            profile_scale: 8,
            seed: 42,
            stream_window,
            ..Default::default()
        })
    };
    let specs = || {
        [
            JobSpec::compressed("a", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Bebop),
            JobSpec {
                strategy: Strategy::grouped_by_count(8),
                ..JobSpec::compressed("b", Application::Rtm, 1e-3, SiteId::Anvil, SiteId::Cori)
            },
            JobSpec {
                strategy: Strategy::Direct,
                ..JobSpec::compressed("c", Application::Cesm, 1e-3, SiteId::Bebop, SiteId::Cori)
            },
            JobSpec::compressed("d", Application::Cesm, 1e-3, SiteId::Anvil, SiteId::Cori),
        ]
    };
    let mut service_rows = |name: &str, s: Service, streamed: bool| {
        let reports = s.reports();
        for j in s.analyze().jobs {
            let r = &j.report;
            let stages = ["queue_wait", "compress", "group", "transfer", "stall", "decompress"].map(|k| r.stages[k]);
            let report = reports.iter().find(|x| x.job.0 == j.job).unwrap();
            out.push(Case {
                label: format!("svc/{name}/job{}", j.job),
                row: row(r.critical_path_s, &stages),
                total_s: r.total_s,
                // Every job of the staged service, and the grouped and
                // direct jobs of the streamed one, ran the staged path.
                staged: !streamed || j.job == 1 || j.job == 2,
                failed: matches!(report.state, ocelot_svc::JobState::Failed(_)),
            });
            assert!((report.latency_s - r.critical_path_s).abs() <= 1e-6, "the job's latency is its critical path");
        }
    };
    for (name, window) in [("staged", 0usize), ("streamed", 4)] {
        let s = svc(window, FaultModel::flaky(0.3), RetryPolicy::default());
        for spec in specs() {
            s.submit(spec).unwrap();
        }
        s.drain();
        assert!(s.journal().iter().any(|e| matches!(e.state, ocelot_svc::JobState::Retrying(_))), "{name}");
        service_rows(name, s, window > 0);
    }
    let s = svc(
        0,
        FaultModel { per_attempt_failure_prob: 1.0, max_retries: 1, reconnect_s: 1.0 },
        RetryPolicy { max_attempts: 2, base_backoff_s: 4.0, multiplier: 2.0, max_backoff_s: 30.0, jitter: 0.0 },
    );
    s.submit(JobSpec::compressed("climate", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Cori)).unwrap();
    s.drain();
    service_rows("exhausted", s, false);
    out
}

#[test]
fn schedule_attribution_matches_the_pinned_span_attribution() {
    let pinned: Vec<(&str, Row)> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let mut fields = l.split_whitespace();
            let label = fields.next().unwrap();
            let values: Vec<f64> = fields.map(|v| v.parse().unwrap()).collect();
            (label, values.try_into().unwrap())
        })
        .collect();
    let measured = measure();
    assert_eq!(measured.len(), pinned.len());
    assert!(measured.iter().any(|c| c.failed && c.label.starts_with("svc/exhausted/")));
    assert!(measured.iter().any(|c| !c.failed && c.label.starts_with("svc/")), "some retrying job delivered");
    for (case, (pinned_label, mut then)) in measured.iter().zip(pinned) {
        let label = &case.label;
        assert_eq!(label, pinned_label);
        if case.failed {
            // The named correction: nothing was decoded.
            then[0] -= then[6];
            then[6] = 0.0;
        }
        for (i, (a, b)) in case.row.iter().zip(&then).enumerate() {
            assert!((a - b).abs() <= 1.5e-6, "{label}, column {i}: schedule {a} vs pinned {b}");
        }
        let sum: f64 = case.row[1..].iter().sum();
        assert!((sum - case.row[0]).abs() < 1e-9, "{label}: stages {sum} vs critical path {}", case.row[0]);
        if case.staged {
            assert_eq!(case.total_s, case.row[0], "{label}: an additive job serializes its critical path");
        } else {
            assert!(case.total_s >= case.row[0], "{label}: critical path past the serialized work");
        }
    }
}
