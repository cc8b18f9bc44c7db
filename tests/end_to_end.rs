//! Integration: the full Ocelot byte path, with real data end to end —
//! generate → parallel compress → group → (byte-identical "transfer") →
//! ungroup → parallel decompress → verify error bounds and filenames.

use ocelot::executor::ParallelExecutor;
use ocelot::grouping::{group_blobs, plan_groups_by_count, ungroup_blobs};
use ocelot::loader::NcliteFile;
use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_datagen::{Application, FieldSpec};
use ocelot_netsim::SiteId;
use ocelot_sz::{metrics, CompressedBlob, Dataset, LossyConfig};

fn make_files(n: u64, scale: usize) -> Vec<(String, Dataset<f32>)> {
    let fields = Application::Miranda.fields();
    (0..n)
        .map(|seed| {
            let field = fields[(seed as usize) % fields.len()];
            let data = FieldSpec::new(Application::Miranda, field).with_scale(scale).with_seed(seed).generate();
            (format!("{field}_{seed:03}.bin"), data)
        })
        .collect()
}

#[test]
fn full_byte_path_respects_error_bounds_and_names() {
    let files = make_files(12, 24);
    let config = LossyConfig::sz3(1e-3);
    let executor = ParallelExecutor::new(4);

    // Source side: parallel compression, then grouping into 3 archives.
    let datasets: Vec<Dataset<f32>> = files.iter().map(|(_, d)| d.clone()).collect();
    let blobs = executor.compress_all(&datasets, &config).expect("compression succeeds");
    let named: Vec<(String, Vec<u8>)> =
        files.iter().zip(&blobs).map(|((name, _), b)| (name.clone(), b.as_bytes().to_vec())).collect();
    let plan = plan_groups_by_count(named.len(), 3);
    let (groups, manifest) = group_blobs(&named, &plan);
    assert_eq!(groups.len(), 3);
    assert_eq!(manifest.file_count(), 12);

    // "Transfer": group files cross the WAN as opaque bytes.
    let received: Vec<Vec<u8>> = groups.clone();

    // Destination side: ungroup, decompress in parallel, restore names.
    let mut restored_named = Vec::new();
    for (g, group_bytes) in received.iter().enumerate() {
        let members = ungroup_blobs(group_bytes).expect("group parses");
        assert_eq!(members.len(), manifest.groups[g].len());
        for (name, bytes) in manifest.groups[g].iter().zip(members) {
            restored_named.push((name.clone(), CompressedBlob::from_bytes(bytes).expect("blob parses")));
        }
    }
    let restored_blobs: Vec<CompressedBlob> = restored_named.iter().map(|(_, b)| b.clone()).collect();
    let restored = executor.decompress_all(&restored_blobs).expect("decompression succeeds");

    // Names survive in order and every file honours its bound.
    for ((orig_name, orig_data), ((restored_name, _), restored_data)) in
        files.iter().zip(restored_named.iter().zip(&restored))
    {
        assert_eq!(orig_name, restored_name);
        let abs_eb = 1e-3 * orig_data.value_range();
        let q = metrics::compare(orig_data, restored_data).expect("shapes match");
        assert!(q.within_bound(abs_eb), "{orig_name}: max err {} vs bound {abs_eb}", q.max_abs_error);
        assert!(q.psnr > 40.0, "{orig_name}: psnr {}", q.psnr);
    }
}

#[test]
fn executor_output_is_byte_identical_across_thread_counts() {
    // Work-stealing must never leak into the bytes: a 1-, 2-, and 8-thread
    // executor produce the same blobs in the same order, so archives built
    // on differently-sized clusters are interchangeable.
    let files = make_files(13, 20);
    let datasets: Vec<Dataset<f32>> = files.iter().map(|(_, d)| d.clone()).collect();
    let config = LossyConfig::sz3(1e-3);
    let reference: Vec<Vec<u8>> = ParallelExecutor::new(1)
        .compress_all(&datasets, &config)
        .expect("serial compression succeeds")
        .iter()
        .map(|b| b.as_bytes().to_vec())
        .collect();
    for threads in [2usize, 8] {
        let parallel: Vec<Vec<u8>> = ParallelExecutor::new(threads)
            .compress_all(&datasets, &config)
            .expect("parallel compression succeeds")
            .iter()
            .map(|b| b.as_bytes().to_vec())
            .collect();
        assert_eq!(parallel, reference, "{threads}-thread output diverged from serial");
    }
    // Decompression is equally order- and thread-stable.
    let blobs = ParallelExecutor::new(8).compress_all(&datasets, &config).unwrap();
    let a = ParallelExecutor::new(1).decompress_all(&blobs).unwrap();
    let b = ParallelExecutor::new(8).decompress_all(&blobs).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.values(), y.values());
    }
}

#[test]
fn nclite_containers_ride_the_same_path() {
    // Variables from a container compress individually and reassemble.
    let mut container = NcliteFile::new();
    for field in ["density", "pressure"] {
        container.insert(field, FieldSpec::new(Application::Miranda, field).with_scale(32).generate());
    }
    let config = LossyConfig::sz3(1e-3);
    let executor = ParallelExecutor::new(2);
    let names: Vec<String> = container.names().map(String::from).collect();
    let datasets: Vec<Dataset<f32>> = names.iter().map(|n| container.get(n).expect("present").clone()).collect();
    let blobs = executor.compress_all(&datasets, &config).expect("compression succeeds");
    let restored = executor.decompress_all(&blobs).expect("decompression succeeds");

    let mut out = NcliteFile::new();
    for (name, data) in names.iter().zip(restored) {
        out.insert(name.clone(), data);
    }
    let bytes = out.to_bytes();
    let reloaded = NcliteFile::from_bytes(&bytes).expect("container parses");
    for name in &names {
        let q = metrics::compare(container.get(name).expect("present"), reloaded.get(name).expect("present"))
            .expect("shapes match");
        assert!(q.psnr > 40.0, "{name}: psnr {}", q.psnr);
    }
}

#[test]
fn simulated_pipeline_agrees_with_workload_accounting() {
    let w = Workload::miranda(LossyConfig::sz3(1e-3), 24).expect("workload");
    let orch = Orchestrator::paper();
    let opts = PipelineOptions::default();
    let np = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Direct, &opts).breakdown;
    let cp = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts).breakdown;

    // Transferred bytes must match the workload's own accounting exactly.
    assert_eq!(np.bytes_transferred, w.total_bytes());
    assert_eq!(cp.bytes_transferred, w.compressed_sizes().iter().sum::<u64>());
    assert_eq!(np.files_transferred, w.file_count());
    assert_eq!(cp.files_transferred, w.file_count());
    // And compression must pay off on this slow route.
    assert!(cp.total_s() < np.total_s());
}

#[test]
fn grouped_pipeline_reduces_file_count_on_the_wire() {
    let w = Workload::miranda(LossyConfig::sz3(1e-3), 24).expect("workload");
    let orch = Orchestrator::paper();
    let opts = PipelineOptions::default();
    let op = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::grouped_by_count(8), &opts).breakdown;
    assert_eq!(op.files_transferred, 8);
    let cp = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Compressed, &opts).breakdown;
    assert_eq!(op.bytes_transferred, cp.bytes_transferred, "grouping moves the same bytes in fewer files");
}
