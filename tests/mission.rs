//! Full-mission integration: the complete Ocelot story in one test file —
//! auto-configure from a quality requirement, compress real bytes into
//! archives, simulate the WAN crossing (with faults), restore on the far
//! side, and verify acceptance; plus the simulated control plane (planner
//! and orchestrator) around it.

use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::planner::TransferPlanner;
use ocelot::predictor::{AutoConfigurator, Requirement};
use ocelot::session::TransferSession;
use ocelot::verify::{verify, AcceptancePolicy};
use ocelot::workload::Workload;
use ocelot_datagen::{Application, FieldSpec};
use ocelot_netsim::{simulate_transfer_with_faults, FaultModel, GridFtpConfig, SiteId, Topology};
use ocelot_qpred::{QualityModel, TrainingSample, TreeConfig};
use ocelot_sz::{Dataset, LossyConfig};

fn snapshot_files(n: u64) -> Vec<(String, Dataset<f32>)> {
    let fields = Application::Miranda.fields();
    (0..n)
        .map(|seed| {
            let field = fields[(seed as usize) % fields.len()];
            let data = FieldSpec::new(Application::Miranda, field).with_scale(24).with_seed(seed).generate();
            (format!("{field}_{seed:03}.bin"), data)
        })
        .collect()
}

#[test]
fn end_to_end_mission_with_quality_guarantee() {
    // 1. Train a quality model on profiled samples and pick a configuration
    //    meeting "PSNR >= 60 dB" without trial compression of the payload.
    let mut samples = Vec::new();
    for field in ["density", "pressure", "velocity-x"] {
        let data = FieldSpec::new(Application::Miranda, field).with_scale(24).generate();
        for exp in 1..=5 {
            samples.push(
                TrainingSample::measure(&data, &LossyConfig::sz3(10f64.powi(-exp)), 25, None)
                    .expect("measurement succeeds"),
            );
        }
    }
    let model = QualityModel::train(&samples, &TreeConfig::default());
    let probe = FieldSpec::new(Application::Miranda, "diffusivity").with_scale(24).generate();
    let (config, estimate) = AutoConfigurator::new(model)
        .with_sample_stride(25)
        .select(&probe, Requirement::MinPsnr(60.0))
        .expect("a configuration qualifies");
    assert!(estimate.psnr >= 60.0);

    // 2. Compress a 12-file batch into 4 self-describing archives.
    let files = snapshot_files(12);
    let session = TransferSession::new(4, config);
    let archives = session.build_archives(&files, 4).expect("archives build");
    assert!(archives.overall_ratio() > 1.5, "ratio {}", archives.overall_ratio());

    // 3. The archives cross a flaky WAN as opaque bytes (the simulation
    //    times the crossing; the bytes themselves are untouched).
    let topology = Topology::paper();
    let link = topology.route(SiteId::Anvil, SiteId::Bebop).link;
    let sizes: Vec<u64> = archives.archives().iter().map(|a| a.len() as u64).collect();
    let crossing = simulate_transfer_with_faults(&sizes, &link, &GridFtpConfig::default(), &FaultModel::flaky(0.1), 42);
    assert!(crossing.failed_files.is_empty(), "retries must deliver all archives");
    assert_eq!(crossing.report.bytes_total, archives.compressed_bytes());

    // 4. Destination side: restore and verify acceptance per file.
    let restored = session.restore_archives(archives.archives()).expect("restore succeeds");
    assert_eq!(restored.len(), files.len());
    let policy = AcceptancePolicy::visual();
    for ((name, orig), (rname, rec)) in files.iter().zip(&restored) {
        assert_eq!(name, rname);
        let verdict = verify(orig, rec, &policy).expect("shapes match");
        assert!(verdict.accepted, "{name}: {:?}", verdict.violations);
    }
}

#[test]
fn control_plane_mission() {
    // The planner tunes the transfer; the orchestrator runs its choice
    // against a plain transfer of the same workload.
    let workload = Workload::paper_default(Application::Miranda, 16).expect("workload");
    let base = PipelineOptions::default();
    let plan = TransferPlanner::paper().plan(&workload, SiteId::Anvil, SiteId::Bebop, &base);
    assert_ne!(plan.strategy, Strategy::Direct, "the planner compresses");
    let orch = Orchestrator::paper();
    let direct = orch.run(&workload, SiteId::Anvil, SiteId::Bebop, Strategy::Direct, &base).breakdown;
    let planned = orch.run(&workload, SiteId::Anvil, SiteId::Bebop, plan.strategy, &base).breakdown;
    assert!(
        planned.total_s() < direct.total_s(),
        "planned {:.1}s must beat direct {:.1}s",
        planned.total_s(),
        direct.total_s()
    );
}
