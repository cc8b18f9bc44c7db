//! End-to-end observability export check, run by CI.
//!
//! Boots the service with tracing and an intentionally unreachable latency
//! SLO, pushes a small multi-tenant batch through it, exports all formats
//! (Prometheus text, metrics JSON, Chrome trace JSON, bottleneck analysis,
//! flight dumps), validates the JSON exports against the checked-in
//! schemas in `schemas/`, and asserts the per-stage histograms the paper's
//! pipeline phases feed are actually present. Exits non-zero on any
//! malformed or empty export.

use ocelot::orchestrator::Strategy;
use ocelot_datagen::Application;
use ocelot_netsim::SiteId;
use ocelot_obs::slo::{Severity, SloKind, SloRule};
use ocelot_svc::schema::validate;
use ocelot_svc::{JobSpec, Service, ServiceConfig};
use serde_json::Value;

fn main() {
    let mut failures: Vec<String> = Vec::new();

    // One handle, passed to the service explicitly, as the CLI does.
    let shared = ocelot_obs::Obs::enabled();
    // Continuous profiler on the same registry: the sz kernel probes drain
    // per-kernel histograms into it, which this run validates below.
    let profiler = ocelot_obs::prof::Profiler::with_obs(shared.clone());
    ocelot_obs::prof::install_global(&profiler);
    let out_dir = std::path::Path::new("target/obs-export");
    std::fs::create_dir_all(out_dir).expect("create output dir");
    // A 1 ns p99 target cannot be met, so the second finished job forces an
    // SLO breach whose flight dump lands in the artifact directory.
    let slo = vec![SloRule {
        name: "latency-p99".to_string(),
        severity: Severity::Critical,
        fast_window_s: 1e6,
        slow_window_s: 1e6,
        kind: SloKind::LatencyP99 { histogram: "ocelot_svc_latency_seconds".to_string(), max_s: 1e-9 },
    }];
    let cfg = ServiceConfig {
        profile_scale: 6,
        obs: Some(shared),
        slo,
        artifact_dir: Some(out_dir.to_path_buf()),
        ..ServiceConfig::default()
    };
    let svc = Service::start(cfg);
    for i in 0..3 {
        let tenant = ["climate", "seismic"][i % 2];
        let spec = JobSpec {
            tenant: tenant.to_string(),
            app: Application::Miranda,
            error_bound: 1e-3,
            strategy: Strategy::Compressed,
            from: SiteId::Anvil,
            to: SiteId::Cori,
        };
        svc.submit(spec).expect("submit");
    }
    svc.drain();

    let obs = svc.obs();
    let registry = obs.registry().expect("service obs is enabled");
    let paths = svc.critical_paths();

    let prom = ocelot_obs::export::prometheus_text(registry);
    let metrics_json = ocelot_obs::export::metrics_json(registry);
    let trace_json = ocelot_obs::export::chrome_trace(&paths);
    let analysis = svc.analyze();
    let analysis_json = serde_json::to_string_pretty(&analysis).expect("serialize analysis");
    std::fs::write(out_dir.join("metrics.prom"), &prom).expect("write metrics.prom");
    std::fs::write(out_dir.join("metrics.json"), &metrics_json).expect("write metrics.json");
    std::fs::write(out_dir.join("trace.json"), &trace_json).expect("write trace.json");
    std::fs::write(out_dir.join("bottleneck.json"), &analysis_json).expect("write bottleneck.json");

    if prom.is_empty() {
        failures.push("Prometheus exposition is empty".to_string());
    }

    // The unreachable SLO must have fired and snapped a dump that the
    // journal's alert record references by file name.
    let alerts = svc.alerts();
    let dumps = svc.flight_dumps();
    let mut dump_jsons: Vec<(String, String)> = Vec::new();
    if alerts.is_empty() {
        failures.push("unreachable latency SLO never fired".to_string());
    }
    for alert in &alerts {
        match alert.flight_dump.as_deref() {
            Some(file) if dumps.iter().any(|d| d.file == file) => {}
            Some(file) => failures.push(format!("alert '{}' references missing dump '{file}'", alert.rule)),
            None => failures.push(format!("alert '{}' has no flight dump reference", alert.rule)),
        }
    }
    if dumps.is_empty() {
        failures.push("SLO breach snapped no flight dump".to_string());
    }
    for dump in &dumps {
        if !out_dir.join(&dump.file).is_file() {
            failures.push(format!("dump '{}' was not written to the artifact dir", dump.file));
        }
        dump_jsons.push((dump.file.clone(), serde_json::to_string(dump).expect("serialize dump")));
    }

    // The latency histogram must carry at least one (job, value) exemplar.
    // (A parse failure is reported by the schema loop below.)
    if let Ok(doc) = serde_json::from_str::<Value>(&metrics_json) {
        let has_exemplar = doc
            .get("metrics")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
            .filter(|m| m.get("name").and_then(Value::as_str) == Some("ocelot_svc_latency_seconds"))
            .flat_map(|m| m.get("buckets").and_then(Value::as_array).into_iter().flatten())
            .any(|b| b.get("exemplar").is_some());
        if !has_exemplar {
            failures.push("latency histogram exports no bucket exemplar".to_string());
        }
    }

    // A second, streamed service exercises the chunk-lifecycle ledger end
    // to end. It records into the same handle as the first; its own ledger
    // still keeps its chunk events separate from any other service's.
    let ledger_json = {
        use ocelot_obs::ledger::check_causality;
        let streamed_cfg = ServiceConfig {
            workers: 1,
            stream_window: 4,
            codec_threads: 2,
            profile_scale: 6,
            obs: Some(obs.clone()),
            artifact_dir: Some(out_dir.to_path_buf()),
            ..ServiceConfig::default()
        };
        let streamed = Service::start(streamed_cfg);
        streamed
            .submit(JobSpec {
                tenant: "climate".to_string(),
                app: Application::Miranda,
                error_bound: 1e-3,
                strategy: Strategy::Compressed,
                from: SiteId::Anvil,
                to: SiteId::Cori,
            })
            .expect("submit streamed job");
        streamed.drain();
        let events = streamed.chunk_events(ocelot_svc::JobId(0));
        if events.is_empty() {
            failures.push("streamed service recorded no chunk-ledger events".to_string());
        }
        let violations = check_causality(&events, 0);
        failures.extend(violations.into_iter().map(|v| format!("ledger causality: {v}")));
        if !out_dir.join("ledger-0.json").is_file() {
            failures.push("service did not persist ledger-0.json to the artifact dir".to_string());
        }
        let js = ocelot_svc::ledger_json(0, &events);
        std::fs::write(out_dir.join("ledger.json"), &js).expect("write ledger.json");
        js
    };

    let folded = profiler.folded();
    std::fs::write(out_dir.join("profile.folded"), &folded).expect("write profile.folded");
    if !folded.lines().any(|l| l.contains(';')) {
        failures.push("folded profile has no scope;kernel stack lines".to_string());
    }

    // Validate the JSON exports against the checked-in schemas.
    let schema_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas");
    let mut documents: Vec<(String, &str, &str)> = vec![
        ("metrics.json".to_string(), &metrics_json, "metrics.schema.json"),
        ("trace.json".to_string(), &trace_json, "trace.schema.json"),
        ("bottleneck.json".to_string(), &analysis_json, "bottleneck.schema.json"),
        ("ledger.json".to_string(), &ledger_json, "ledger.schema.json"),
    ];
    for (file, js) in &dump_jsons {
        documents.push((file.clone(), js, "flightdump.schema.json"));
    }
    for (label, text, schema_file) in documents {
        let schema_text = std::fs::read_to_string(format!("{schema_dir}/{schema_file}"))
            .unwrap_or_else(|e| panic!("read {schema_file}: {e}"));
        let schema: Value = serde_json::from_str(&schema_text).unwrap_or_else(|e| panic!("parse {schema_file}: {e}"));
        match serde_json::from_str::<Value>(text) {
            Ok(doc) => {
                failures.extend(validate(&schema, &doc).into_iter().map(|err| format!("{label}: {err}")));
            }
            Err(e) => {
                failures.push(format!("{label} is not valid JSON: {e}"));
            }
        }
    }

    // The pipeline's stage histograms must be present and populated.
    for name in [
        "ocelot_core_compression_seconds",
        "ocelot_core_queue_wait_seconds",
        "ocelot_core_transfer_seconds",
        "ocelot_core_decompression_seconds",
        "ocelot_svc_latency_seconds",
        // Kernel-level attribution from the continuous profiler: building
        // the workload profiles must have drained the sz hot-path probes.
        "ocelot_sz_kernel_predict_seconds",
        "ocelot_sz_kernel_huffman_encode_seconds",
        "ocelot_sz_kernel_frame_crc_seconds",
    ] {
        match registry.get(name) {
            Some(ocelot_obs::metrics::Metric::Histogram(h)) if h.count() > 0 => {}
            Some(_) => failures.push(format!("{name} exists but recorded no observations")),
            None => failures.push(format!("{name} missing from registry")),
        }
    }

    // The profiler's self-overhead gauge must be exported and within budget.
    match registry.get(ocelot_obs::prof::OVERHEAD_RATIO_GAUGE) {
        Some(ocelot_obs::metrics::Metric::Gauge(g)) => {
            let ratio = g.get();
            if !(0.0..0.02).contains(&ratio) {
                failures.push(format!("profiler overhead ratio {ratio} outside [0, 2%) budget"));
            }
        }
        _ => failures.push(format!("{} gauge missing from registry", ocelot_obs::prof::OVERHEAD_RATIO_GAUGE)),
    }

    // Every job committed one schedule, and its critical path tiles the
    // job from t = 0.
    if paths.len() != 3 {
        failures.push(format!("{} of 3 jobs left a critical path", paths.len()));
    }
    for a in &paths {
        let contiguous = a.path.first().is_some_and(|s| s.start_us == 0)
            && a.path.windows(2).all(|w| w[0].end_us.abs_diff(w[1].start_us) <= 1);
        if !contiguous {
            failures.push(format!("job {:?}: critical path is not contiguous from t = 0", a.report.job));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        eprintln!("obs_export: {} failure(s)", failures.len());
        std::process::exit(1);
    }
    println!(
        "obs_export: OK ({} metrics, {} critical path(s), {} alert(s), {} flight dump(s); artifacts in {})",
        registry.len(),
        paths.len(),
        alerts.len(),
        dumps.len(),
        out_dir.display()
    );
}
