//! Seismic (RTM) pipeline with automatic quality configuration and the
//! sentinel: the user states "PSNR ≥ 80 dB", Ocelot's decision-tree model
//! picks the compressor setting without trial compression, and the transfer
//! survives a busy batch queue thanks to the sentinel.
//!
//! ```text
//! cargo run --release --example seismic_pipeline
//! ```

use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::predictor::{AutoConfigurator, Requirement};
use ocelot::workload::Workload;
use ocelot_datagen::{Application, FieldSpec};
use ocelot_faas::WaitTimeModel;
use ocelot_netsim::SiteId;
use ocelot_qpred::{QualityModel, TrainingSample, TreeConfig};
use ocelot_sz::LossyConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the quality model on profiled RTM snapshots (step ① of the
    //    paper's Fig 1 — normally shipped pre-trained with the service).
    println!("training quality model on RTM snapshots...");
    let mut samples = Vec::new();
    for seed in 0..4u64 {
        let data = FieldSpec::new(Application::Rtm, "snapshot-1048").with_scale(12).with_seed(seed).generate();
        for exp in 1..=6 {
            let cfg = LossyConfig::sz3(10f64.powi(-exp));
            samples.push(TrainingSample::measure(&data, &cfg, 25, None)?);
        }
    }
    let model = QualityModel::train(&samples, &TreeConfig::default());

    // 2. The user requirement: distortion must stay above 80 dB PSNR.
    let fresh = FieldSpec::new(Application::Rtm, "snapshot-2200").with_scale(12).generate();
    let auto = AutoConfigurator::new(model).with_sample_stride(25);
    let (config, estimate) =
        auto.select(&fresh, Requirement::MinPsnr(80.0)).expect("some configuration satisfies 80 dB on RTM data");
    println!(
        "selected: {} at eb {:.0e} -> predicted ratio {:.1}x, PSNR {:.1} dB",
        config.predictor,
        config.error_bound.raw(),
        estimate.ratio,
        estimate.psnr,
    );

    // 3. Verify the prediction against a real compression pass.
    let truth = TrainingSample::measure(&fresh, &config, 25, None)?;
    println!("measured: ratio {:.1}x, PSNR {:.1} dB (prediction vs reality)", truth.ratio, truth.psnr);

    // 4. Ship 3601 snapshots Bebop -> Cori through a busy batch queue; the
    //    sentinel keeps data flowing while compression nodes wait.
    let workload = Workload::rtm(config, 12)?;
    let orch = Orchestrator::paper();
    let busy = PipelineOptions {
        wait_model: WaitTimeModel::Fixed(900.0), // 15 min in the queue
        sentinel: true,
        ..Default::default()
    };
    let with_sentinel = orch.run(&workload, SiteId::Bebop, SiteId::Cori, Strategy::Compressed, &busy);
    let blocking = PipelineOptions { sentinel: false, ..busy };
    let without = orch.run(&workload, SiteId::Bebop, SiteId::Cori, Strategy::Compressed, &blocking);
    let direct = orch.run(&workload, SiteId::Bebop, SiteId::Cori, Strategy::Direct, &PipelineOptions::default());
    println!("\ntransfer under a 900 s node wait (Bebop -> Cori, 682 GB):");
    println!("  direct, no compression:   {:>7.1} s", direct.end_s);
    println!("  blocking compression:     {:>7.1} s (wait wasted)", without.end_s);
    println!("  sentinel + compression:   {:>7.1} s (wait overlapped with raw transfer)", with_sentinel.end_s);
    Ok(())
}
