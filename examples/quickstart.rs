//! Quickstart: compress a scientific dataset with an error bound, verify
//! the guarantee, and see what the transfer saves.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ocelot_datagen::{Application, FieldSpec};
use ocelot_sz::{compress, decompress, metrics, LossyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A Miranda-like 3-D turbulence field (synthetic stand-in for the
    //    paper's hydrodynamics data).
    let data = FieldSpec::new(Application::Miranda, "density").with_scale(8).generate();
    println!("dataset: miranda/density, dims {:?}, {:.1} MB raw", data.dims(), data.nbytes() as f64 / 1e6);

    // 2. Compress with SZ3 defaults at a 1e-3 value-range-relative bound.
    let config = LossyConfig::sz3(1e-3);
    let outcome = compress(&data, &config)?;
    println!(
        "compressed: {:.1} MB -> {:.2} MB (ratio {:.1}x), p0 = {:.2}",
        outcome.original_bytes as f64 / 1e6,
        outcome.blob.len() as f64 / 1e6,
        outcome.ratio,
        outcome.bin_stats.p0,
    );

    // 3. Decompress and verify the pointwise error bound.
    let restored = decompress::<f32>(&outcome.blob)?;
    let report = metrics::compare(&data, &restored)?;
    let abs_eb = outcome.blob.header()?.abs_eb;
    println!(
        "quality: PSNR {:.1} dB, max error {:.2e} (bound {:.2e}) -> {}",
        report.psnr,
        report.max_abs_error,
        abs_eb,
        if report.within_bound(abs_eb) { "bound holds" } else { "BOUND VIOLATED" },
    );
    assert!(report.within_bound(abs_eb));

    // 4. What that means for a WAN transfer at 1 GB/s.
    let wan_gbps = 1.0e9;
    println!(
        "transfer at 1 GB/s: raw {:.2} s -> compressed {:.3} s",
        outcome.original_bytes as f64 / wan_gbps,
        outcome.blob.len() as f64 / wan_gbps,
    );
    Ok(())
}
