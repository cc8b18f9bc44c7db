//! Ablations beyond the paper: quantify each design choice the paper
//! motivates qualitatively.
//!
//! * **grouping sweep** — transfer time vs group count: the optimum is
//!   interior (too many files pay handling costs; too few cannot fill the
//!   link), quantifying §VII-C's "strategically group files into multiple
//!   groups instead of simply connecting all compressed files into one".
//! * **sentinel sweep** — expected total time over the batch-queue
//!   waiting-time distributions with and without the sentinel.
//! * **model ablation** — closed-form estimator vs single tree vs bagged
//!   forest on held-out ratio prediction.
//! * **sampling ablation** — feature-sampling stride vs prediction
//!   accuracy (the cost/accuracy trade-off behind the paper's 1 % choice).
//! * **backend ablation** — compression ratio per lossless backend.

use crate::pool::{build_app_pool, to_training, EBS11};
use crate::support::{fmt_secs, write_artifact, TextTable};
use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_datagen::{Application, FieldSpec};
use ocelot_faas::WaitTimeModel;
use ocelot_netsim::SiteId;
use ocelot_qpred::{QualityModel, RandomForest, TrainingSet, TreeConfig};
use ocelot_sz::config::LosslessBackend;
use ocelot_sz::stats::jin_ratio_estimate;
use ocelot_sz::{compress, LossyConfig};
use serde::Serialize;

/// Grouping-sweep row.
#[derive(Debug, Clone, Serialize)]
pub struct GroupingRow {
    /// Application.
    pub app: String,
    /// Number of groups.
    pub groups: usize,
    /// Transfer time of the grouped batch (s).
    pub transfer_s: f64,
}

/// Sweeps group counts for Miranda and RTM on the fast route.
pub fn run_grouping_sweep() -> Vec<GroupingRow> {
    let orch = Orchestrator::paper();
    let opts = PipelineOptions::default();
    let mut rows = Vec::new();
    for app in [Application::Miranda, Application::Rtm] {
        let w = Workload::paper_default(app, 12).expect("workload");
        for groups in [1usize, 2, 4, 8, 16, 32, 64, 128, 512, 2048] {
            let groups = groups.min(w.file_count());
            let b = orch.run(&w, SiteId::Anvil, SiteId::Cori, Strategy::grouped_by_count(groups), &opts).breakdown;
            rows.push(GroupingRow { app: app.name().to_string(), groups, transfer_s: b.transfer_s });
        }
    }
    rows
}

/// Sentinel-sweep row.
#[derive(Debug, Clone, Serialize)]
pub struct SentinelRow {
    /// Waiting-time regime.
    pub regime: String,
    /// Mean total with the sentinel (s), over seeded draws.
    pub sentinel_mean_s: f64,
    /// Mean total without (blocking), over the same draws.
    pub blocking_mean_s: f64,
    /// Direct-transfer reference (s).
    pub direct_s: f64,
}

/// Expected totals under the paper's queue regimes (16 seeded draws each).
pub fn run_sentinel_sweep() -> Vec<SentinelRow> {
    let orch = Orchestrator::paper();
    let w = Workload::paper_default(Application::Miranda, 12).expect("workload");
    let direct = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Direct, &PipelineOptions::default());
    [
        ("immediate", WaitTimeModel::Immediate),
        ("idle-nodes", WaitTimeModel::idle_nodes()),
        ("busy-cluster", WaitTimeModel::busy_cluster()),
    ]
    .into_iter()
    .map(|(name, model)| {
        let mut sent_total = 0.0;
        let mut block_total = 0.0;
        const DRAWS: u64 = 16;
        for seed in 0..DRAWS {
            let sent_opts = PipelineOptions { wait_model: model, sentinel: true, seed, ..Default::default() };
            let block_opts = PipelineOptions { sentinel: false, ..sent_opts };
            let s = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &sent_opts);
            let b = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &block_opts);
            sent_total += s.end_s.min(direct.end_s);
            block_total += b.end_s;
        }
        SentinelRow {
            regime: name.to_string(),
            sentinel_mean_s: sent_total / DRAWS as f64,
            blocking_mean_s: block_total / DRAWS as f64,
            direct_s: direct.end_s,
        }
    })
    .collect()
}

/// Model-ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct ModelRow {
    /// Estimator name.
    pub estimator: String,
    /// Held-out log10-ratio RMSE.
    pub log_rmse: f64,
}

/// Closed-form vs tree vs forest on Miranda held-out ratio prediction.
pub fn run_model_ablation() -> Vec<ModelRow> {
    let fields: Vec<&str> = Application::Miranda.fields().to_vec();
    let pool = build_app_pool(Application::Miranda, &fields, 0..3, &EBS11, 12);
    let set: TrainingSet = to_training(&pool).into_iter().collect();
    let split = set.split(0.3, 11);
    let tree_model = QualityModel::train(&split.train, &TreeConfig::default());
    let x: Vec<Vec<f64>> = split.train.iter().map(|s| s.features.as_slice().to_vec()).collect();
    let y: Vec<f64> = split.train.iter().map(|s| s.ratio.log10()).collect();
    let forest = RandomForest::fit(&x, &y, 15, &TreeConfig::default(), 5);

    let mut jin_se = 0.0;
    let mut tree_se = 0.0;
    let mut forest_se = 0.0;
    for s in &split.test {
        let p = pool.iter().find(|p| p.features == s.features).expect("sample from pool");
        let truth = s.ratio.log10();
        jin_se += (jin_ratio_estimate(&p.stats, 1.0).clamp(1.0, 1e6).log10() - truth).powi(2);
        tree_se += (tree_model.predict(&s.features).ratio.log10() - truth).powi(2);
        forest_se += (forest.predict(s.features.as_slice()) - truth).powi(2);
    }
    let n = split.test.len() as f64;
    vec![
        ModelRow { estimator: "jin closed-form (C1=1)".into(), log_rmse: (jin_se / n).sqrt() },
        ModelRow { estimator: "single CART tree".into(), log_rmse: (tree_se / n).sqrt() },
        ModelRow { estimator: "bagged forest (15 trees)".into(), log_rmse: (forest_se / n).sqrt() },
    ]
}

/// Sampling-rate ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct SamplingRow {
    /// Feature-sampling stride.
    pub stride: usize,
    /// Held-out log10-ratio RMSE when features use this stride.
    pub log_rmse: f64,
}

/// How far can sampling be pushed before prediction accuracy suffers?
pub fn run_sampling_ablation() -> Vec<SamplingRow> {
    let fields = ["density", "pressure", "velocity-x", "viscosity"];
    [1usize, 5, 25, 100, 400]
        .iter()
        .map(|&stride| {
            // Rebuild features at this stride for the same measured labels.
            let mut samples = Vec::new();
            for &field in &fields {
                for seed in 0..3u64 {
                    let data = FieldSpec::new(Application::Miranda, field).with_scale(12).with_seed(seed).generate();
                    for &eb in &EBS11 {
                        let cfg = LossyConfig::sz3(eb);
                        let features = ocelot_qpred::extract(&data, &cfg, stride);
                        let outcome = compress(&data, &cfg).expect("compression succeeds");
                        samples.push(ocelot_qpred::TrainingSample {
                            features,
                            ratio: outcome.ratio,
                            time_seconds: 1.0,
                            psnr: 100.0,
                        });
                    }
                }
            }
            let set: TrainingSet = samples.into_iter().collect();
            let split = set.split(0.3, 21);
            let model = QualityModel::train(&split.train, &TreeConfig::default());
            let se: f64 =
                split.test.iter().map(|s| (model.predict(&s.features).ratio.log10() - s.ratio.log10()).powi(2)).sum();
            SamplingRow { stride, log_rmse: (se / split.test.len() as f64).sqrt() }
        })
        .collect()
}

/// Pipelining ablation row: additive (paper Table VIII accounting) vs
/// overlapped (files transfer as compression finishes, Fig 1's pipeline).
#[derive(Debug, Clone, Serialize)]
pub struct PipelineRow {
    /// Application.
    pub app: String,
    /// Route.
    pub route: String,
    /// Additive total (compress, then transfer, then decompress), seconds.
    pub additive_s: f64,
    /// Overlapped total, seconds.
    pub overlapped_s: f64,
}

/// Compares additive vs overlapped pipelines across apps on the Bebop→Cori
/// route (slow source cores make the overlap matter most).
pub fn run_pipelining_ablation() -> Vec<PipelineRow> {
    let orch = Orchestrator::paper();
    let opts = PipelineOptions::default();
    [Application::Cesm, Application::Rtm, Application::Miranda]
        .iter()
        .map(|&app| {
            let w = Workload::paper_default(app, 12).expect("workload");
            let additive = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Compressed, &opts);
            let overlapped = orch.run(&w, SiteId::Bebop, SiteId::Cori, Strategy::Pipelined { window: 0 }, &opts);
            PipelineRow {
                app: app.name().to_string(),
                route: "Bebop->Cori".to_string(),
                additive_s: additive.end_s,
                overlapped_s: overlapped.end_s,
            }
        })
        .collect()
}

/// Backend ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct BackendRow {
    /// Application/field.
    pub dataset: String,
    /// Backend name.
    pub backend: String,
    /// Compression ratio.
    pub ratio: f64,
}

/// Ratio per lossless backend across two applications.
pub fn run_backend_ablation() -> Vec<BackendRow> {
    let mut rows = Vec::new();
    for (app, field, scale) in [(Application::Cesm, "LHFLX", 12), (Application::Miranda, "velocity-x", 12)] {
        let data = FieldSpec::new(app, field).with_scale(scale).generate();
        for backend in [LosslessBackend::Huffman, LosslessBackend::HuffmanLz, LosslessBackend::RleHuffman] {
            let cfg = LossyConfig::sz3(1e-3).with_backend(backend);
            let out = compress(&data, &cfg).expect("compression succeeds");
            rows.push(BackendRow {
                dataset: format!("{}/{}", app.name(), field),
                backend: backend.name().to_string(),
                ratio: out.ratio,
            });
        }
    }
    rows
}

/// Runs and prints all ablations, writing artifacts.
pub fn print() {
    let grouping = run_grouping_sweep();
    let mut t = TextTable::new(["app", "groups", "transfer"]);
    for r in &grouping {
        t.row([r.app.clone(), r.groups.to_string(), fmt_secs(r.transfer_s)]);
    }
    println!("Ablation — grouping sweep (Anvil->Cori)\n{t}");
    let _ = write_artifact("ablation_grouping", &grouping);

    let sentinel = run_sentinel_sweep();
    let mut t = TextTable::new(["queue regime", "sentinel mean", "blocking mean", "direct"]);
    for r in &sentinel {
        t.row([r.regime.clone(), fmt_secs(r.sentinel_mean_s), fmt_secs(r.blocking_mean_s), fmt_secs(r.direct_s)]);
    }
    println!("Ablation — sentinel under queue regimes (Miranda, Anvil->Bebop, 16 draws)\n{t}");
    let _ = write_artifact("ablation_sentinel", &sentinel);

    let model = run_model_ablation();
    let mut t = TextTable::new(["estimator", "held-out log10-ratio RMSE"]);
    for r in &model {
        t.row([r.estimator.clone(), format!("{:.3}", r.log_rmse)]);
    }
    println!("Ablation — ratio estimator (Miranda)\n{t}");
    let _ = write_artifact("ablation_model", &model);

    let sampling = run_sampling_ablation();
    let mut t = TextTable::new(["stride", "held-out log10-ratio RMSE"]);
    for r in &sampling {
        t.row([format!("1/{}", r.stride), format!("{:.3}", r.log_rmse)]);
    }
    println!("Ablation — feature sampling rate (Miranda)\n{t}");
    let _ = write_artifact("ablation_sampling", &sampling);

    let backend = run_backend_ablation();
    let mut t = TextTable::new(["dataset", "backend", "ratio"]);
    for r in &backend {
        t.row([r.dataset.clone(), r.backend.clone(), format!("{:.1}", r.ratio)]);
    }
    println!("Ablation — lossless backend\n{t}");
    let _ = write_artifact("ablation_backend", &backend);

    let pipelining = run_pipelining_ablation();
    let mut t = TextTable::new(["app", "route", "additive", "overlapped", "saved"]);
    for r in &pipelining {
        t.row([
            r.app.clone(),
            r.route.clone(),
            fmt_secs(r.additive_s),
            fmt_secs(r.overlapped_s),
            format!("{:.0}%", (1.0 - r.overlapped_s / r.additive_s) * 100.0),
        ]);
    }
    println!("Ablation — additive vs overlapped pipeline\n{t}");
    let _ = write_artifact("ablation_pipelining", &pipelining);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_optimum_is_interior() {
        let rows = run_grouping_sweep();
        for app in ["miranda", "rtm"] {
            let series: Vec<&GroupingRow> = rows.iter().filter(|r| r.app == app).collect();
            let best = series
                .iter()
                .min_by(|a, b| a.transfer_s.partial_cmp(&b.transfer_s).expect("finite"))
                .expect("nonempty");
            let first = series.first().expect("nonempty");
            let last = series.last().expect("nonempty");
            assert!(best.transfer_s < first.transfer_s, "{app}: one big group should not be optimal");
            assert!(best.groups > 1, "{app}: best groups {}", best.groups);
            // Either extreme is dominated by the interior optimum.
            assert!(
                best.transfer_s <= last.transfer_s,
                "{app}: best {} vs max-groups {}",
                best.transfer_s,
                last.transfer_s
            );
        }
    }

    #[test]
    fn sentinel_never_hurts_in_expectation() {
        for r in run_sentinel_sweep() {
            assert!(
                r.sentinel_mean_s <= r.blocking_mean_s * 1.01,
                "{}: {} vs {}",
                r.regime,
                r.sentinel_mean_s,
                r.blocking_mean_s
            );
            assert!(r.sentinel_mean_s <= r.direct_s * 1.01, "{}: sentinel above direct", r.regime);
        }
    }

    #[test]
    fn learned_models_beat_closed_form() {
        let rows = run_model_ablation();
        let by = |name: &str| rows.iter().find(|r| r.estimator.contains(name)).expect("row present").log_rmse;
        assert!(by("tree") < by("jin"), "tree {} vs jin {}", by("tree"), by("jin"));
        assert!(by("forest") < by("jin"), "forest {} vs jin {}", by("forest"), by("jin"));
    }

    #[test]
    fn moderate_sampling_is_nearly_free() {
        let rows = run_sampling_ablation();
        let full = rows.iter().find(|r| r.stride == 1).expect("stride 1").log_rmse;
        let pct1 = rows.iter().find(|r| r.stride == 100).expect("stride 100").log_rmse;
        // 1 % sampling costs at most a modest accuracy hit vs full features.
        assert!(pct1 < full + 0.25, "1% sampling rmse {pct1} vs full {full}");
    }

    #[test]
    fn overlap_never_hurts_and_helps_compression_bound_runs() {
        let rows = run_pipelining_ablation();
        for r in &rows {
            assert!(r.overlapped_s <= r.additive_s * 1.02, "{}: {} vs {}", r.app, r.overlapped_s, r.additive_s);
        }
        // RTM from slow Bebop cores is compression-bound: clear win.
        let rtm = rows.iter().find(|r| r.app == "rtm").expect("rtm present");
        assert!(rtm.overlapped_s < rtm.additive_s * 0.9, "rtm {} vs {}", rtm.overlapped_s, rtm.additive_s);
    }

    #[test]
    fn lz_stage_helps_ratio() {
        let rows = run_backend_ablation();
        for dataset in ["cesm/LHFLX", "miranda/velocity-x"] {
            let by = |backend: &str| {
                rows.iter().find(|r| r.dataset == dataset && r.backend == backend).expect("row present").ratio
            };
            assert!(by("huffman+lz") >= by("huffman") * 0.99, "{dataset}: lz should not hurt");
        }
    }
}
