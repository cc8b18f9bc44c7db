//! Acceptance tests for the observability layer: the phase spans of a
//! job's Chrome trace must reconcile with the pipeline's reported
//! `TimeBreakdown`, exports must carry the per-stage histograms, and empty
//! job sets must produce finite zeroed metrics.

use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_datagen::Application;
use ocelot_netsim::SiteId;
use ocelot_obs::critpath::attribute;
use ocelot_obs::Obs;
use ocelot_svc::{JobSpec, Service, ServiceConfig};

/// The headline acceptance criterion: for a traced job, the per-phase span
/// durations in the Chrome trace of its committed schedule sum to the
/// pipeline's `TimeBreakdown` total within 1%.
#[test]
fn traced_phase_spans_sum_to_breakdown_within_one_percent() {
    let orch = Orchestrator::paper();
    let workload = Workload::paper_default(Application::Miranda, 4).expect("workload");
    let opts = PipelineOptions { job: Some(42), ..PipelineOptions::default() };
    let outcome = orch.run(&workload, SiteId::Anvil, SiteId::Cori, Strategy::Compressed, &opts);

    let schedule = outcome.schedule.as_ref().expect("a run with a job has a schedule");
    let trace: serde_json::Value =
        serde_json::from_str(&ocelot_obs::export::chrome_trace(&[attribute(schedule)])).unwrap();
    let str_of = |e: &serde_json::Value, key: &str| e.get(key).and_then(serde_json::Value::as_str).map(str::to_string);
    let int_of = |e: &serde_json::Value, key: &str| e.get(key).and_then(serde_json::Value::as_u64).unwrap();
    let events = trace.get("traceEvents").and_then(serde_json::Value::as_array).unwrap();
    let spans: Vec<&serde_json::Value> = events.iter().filter(|e| str_of(e, "ph").as_deref() == Some("X")).collect();
    let names: Vec<String> = spans.iter().map(|e| str_of(e, "name").unwrap()).collect();
    assert_eq!(names, ["compress", "transfer", "decompress"], "phases laid end to end");
    assert!(spans.iter().all(|e| int_of(e, "pid") == 43));
    let phase_sum: f64 = spans.iter().map(|e| int_of(e, "dur") as f64 / 1e6).sum();
    let total = outcome.breakdown.total_s();
    assert!(total > 0.0, "pipeline must take simulated time");
    let rel_err = (phase_sum - total).abs() / total;
    assert!(rel_err <= 0.01, "phase spans sum to {phase_sum}, breakdown total {total} (rel err {rel_err})");
    // The spans tile the job: each starts where the one before it ends.
    for w in spans.windows(2) {
        assert_eq!(int_of(w[0], "ts") + int_of(w[0], "dur"), int_of(w[1], "ts"));
    }
}

/// Exports from a real service run contain populated per-stage histograms
/// for compress, queue wait, transfer, and decompress — in both Prometheus
/// text and JSON form.
#[test]
fn exports_contain_per_stage_histograms() {
    let cfg = ServiceConfig { profile_scale: 4, obs: Some(Obs::enabled()), ..ServiceConfig::default() };
    let svc = Service::start(cfg);
    svc.submit(JobSpec::compressed("climate", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Cori)).unwrap();
    svc.drain();

    let obs = svc.obs();
    let registry = obs.registry().unwrap();
    let prom = ocelot_obs::export::prometheus_text(registry);
    let json = ocelot_obs::export::metrics_json(registry);
    for stage in [
        "ocelot_core_compression_seconds",
        "ocelot_core_queue_wait_seconds",
        "ocelot_core_transfer_seconds",
        "ocelot_core_decompression_seconds",
        "ocelot_svc_latency_seconds",
    ] {
        assert!(prom.contains(&format!("# TYPE {stage} histogram")), "{stage} missing from Prometheus text");
        assert!(prom.contains(&format!("{stage}_count")), "{stage}_count missing from Prometheus text");
        assert!(json.contains(&format!("\"name\":\"{stage}\"")), "{stage} missing from metrics JSON");
    }

    // The job also yields a non-empty Chrome trace.
    let trace = ocelot_obs::export::chrome_trace(&svc.critical_paths());
    assert!(trace.contains("\"ph\":\"X\""), "trace has no duration events");
}

/// A service that has processed nothing reports finite zeros: no NaN/inf
/// throughput, zeroed percentiles, empty per-tenant map.
#[test]
fn empty_job_set_metrics_are_finite_zeros() {
    let svc = Service::start(ServiceConfig::default());
    let m = svc.metrics();
    assert_eq!(m.jobs_submitted, 0);
    assert_eq!(m.jobs_finished(), 0);
    assert_eq!(m.sim_seconds, 0.0);
    assert_eq!(m.throughput_bps, 0.0);
    assert!(m.throughput_bps.is_finite());
    assert_eq!(m.latency_p50_s, 0.0);
    assert_eq!(m.latency_p90_s, 0.0);
    assert_eq!(m.latency_p95_s, 0.0);
    assert_eq!(m.latency_p99_s, 0.0);
    assert!(m.per_tenant.is_empty());
    // The snapshot serializes cleanly even with nothing recorded.
    let json = serde_json::to_string(&m).unwrap();
    assert!(json.contains("\"throughput_bps\":0"));
    svc.drain();
}
