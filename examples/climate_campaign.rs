//! Climate-campaign transfer: move a CESM snapshot archive from Purdue
//! Anvil to NERSC Cori with Ocelot's full pipeline — direct vs compressed
//! vs compressed-and-grouped — on the simulated paper testbed.
//!
//! ```text
//! cargo run --release --example climate_campaign
//! ```

use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_netsim::SiteId;
use ocelot_sz::LossyConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("profiling CESM fields (real compression on scaled synthetic data)...");
    let workload = Workload::cesm(LossyConfig::sz3(1e-4), 8)?;
    println!(
        "workload: {} files, {:.2} TB raw, overall ratio {:.1}x, min PSNR {:.1} dB\n",
        workload.file_count(),
        workload.total_bytes() as f64 / 1e12,
        workload.overall_ratio(),
        workload.min_psnr(),
    );

    let orch = Orchestrator::paper();
    let opts = PipelineOptions::default();
    let (from, to) = (SiteId::Anvil, SiteId::Cori);

    let np = orch.run(&workload, from, to, Strategy::Direct, &opts).breakdown;
    println!("direct (NP):       transfer {:>7.1} s at {:.2} GB/s", np.transfer_s, np.effective_speed_bps() / 1e9);

    let cp = orch.run(&workload, from, to, Strategy::Compressed, &opts).breakdown;
    println!(
        "compressed (CP):   compress {:.1} s + transfer {:.1} s + decompress {:.1} s = {:.1} s",
        cp.compression_s,
        cp.transfer_s,
        cp.decompression_s,
        cp.total_s()
    );

    let op = orch.run(&workload, from, to, Strategy::grouped_by_count(2048), &opts).breakdown;
    println!(
        "grouped (OP):      compress {:.1} s + group {:.1} s + transfer {:.1} s + decompress {:.1} s = {:.1} s",
        op.compression_s,
        op.grouping_s,
        op.transfer_s,
        op.decompression_s,
        op.total_s()
    );

    println!(
        "\nend-to-end reduction vs direct: {:.0}% (paper Table VIII: 60%)",
        op.reduction_vs(np.transfer_s) * 100.0
    );
    println!("WAN bytes: {:.2} TB -> {:.0} GB", np.bytes_transferred as f64 / 1e12, op.bytes_transferred as f64 / 1e9);
    Ok(())
}
