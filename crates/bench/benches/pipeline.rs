//! End-to-end pipeline benchmarks behind Table VIII / Figs 9, 10, 16: full
//! orchestrated runs (workload profiling + cluster scheduling + transfer
//! simulation) per application, strategy, and node count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_datagen::Application;
use ocelot_faas::{Cluster, WaitTimeModel};
use ocelot_netsim::SiteId;

fn bench_table8_strategies(c: &mut Criterion) {
    let orch = Orchestrator::paper();
    let w = Workload::paper_default(Application::Miranda, 16).expect("workload");
    let opts = PipelineOptions::default();
    let mut g = c.benchmark_group("table8_pipeline");
    g.sample_size(10);
    for (name, strategy) in
        [("direct", Strategy::Direct), ("compressed", Strategy::Compressed), ("grouped", Strategy::grouped_by_count(8))]
    {
        g.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, &s| {
            b.iter(|| orch.run(&w, SiteId::Anvil, SiteId::Bebop, s, &opts))
        });
    }
    g.finish();
}

fn bench_fig9_scaling(c: &mut Criterion) {
    let orch = Orchestrator::paper();
    let w = Workload::paper_default(Application::Rtm, 16).expect("workload");
    let anvil = *orch.topology().site(SiteId::Anvil);
    let mut g = c.benchmark_group("fig9_scaling");
    g.sample_size(10);
    for nodes in [1usize, 4, 16] {
        let cluster = Cluster::new(nodes, anvil.cores_per_node, anvil.core_speed);
        g.bench_with_input(BenchmarkId::from_parameter(format!("{nodes}_nodes")), &cluster, |b, cl| {
            b.iter(|| (orch.compression_time(&w, &anvil, cl, 1), orch.decompression_time(&w, &anvil, cl, 1)))
        });
    }
    g.finish();
}

fn bench_fig10_sentinel(c: &mut Criterion) {
    let orch = Orchestrator::paper();
    let w = Workload::paper_default(Application::Miranda, 16).expect("workload");
    let opts = PipelineOptions { wait_model: WaitTimeModel::Fixed(600.0), sentinel: true, ..Default::default() };
    let mut g = c.benchmark_group("fig10_sentinel");
    g.sample_size(10);
    g.bench_function("sentinel_600s_wait", |b| {
        b.iter(|| orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &opts))
    });
    g.finish();
}

fn bench_workload_profiling(c: &mut Criterion) {
    // The real-compression profiling pass that backs every Table VIII run.
    let mut g = c.benchmark_group("table8_workload_profiling");
    g.sample_size(10);
    g.bench_function("miranda_profile_scale16", |b| {
        b.iter(|| Workload::paper_default(Application::Miranda, 16).expect("workload"))
    });
    g.finish();
}

criterion_group!(benches, bench_table8_strategies, bench_fig9_scaling, bench_fig10_sentinel, bench_workload_profiling);
criterion_main!(benches);
