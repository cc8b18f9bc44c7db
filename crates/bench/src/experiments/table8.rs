//! Table VIII / Fig 16 — end-to-end transfers among Anvil, Bebop and Cori
//! for CESM, RTM and Miranda: direct (NP), compressed (CP), and
//! compressed + grouped (OP), with compression/decompression times and the
//! total-time reduction.

use crate::support::{fmt_secs, fmt_speed, write_artifact, TextTable};
use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_datagen::Application;
use ocelot_netsim::SiteId;
use serde::Serialize;

/// One Table VIII row (one application × one route).
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Application name.
    pub dataset: String,
    /// Number of files.
    pub n_files: usize,
    /// Total uncompressed bytes.
    pub total_bytes: u64,
    /// Route label, e.g. `"Anvil->Cori"`.
    pub direction: String,
    /// Direct transfer time (s).
    pub t_np: f64,
    /// Direct effective speed (B/s).
    pub speed_np: f64,
    /// Compressed transfer time (s).
    pub t_cp: f64,
    /// Compressed effective speed (B/s).
    pub speed_cp: f64,
    /// Grouped transfer time (s).
    pub t_op: f64,
    /// Grouped effective speed (B/s).
    pub speed_op: f64,
    /// Compression time (s).
    pub cptime: f64,
    /// Decompression time (s).
    pub dptime: f64,
    /// Total time of the full solution (s).
    pub total_t: f64,
    /// `(T(NP) − Total T) / T(NP)`.
    pub reduced: f64,
    /// The paper's reported reduction, for comparison.
    pub paper_reduced: f64,
    /// Group count used for OP.
    pub op_groups: usize,
}

/// Paper `Reduced` values per (app, route), for side-by-side printing.
fn paper_reduced(app: Application, from: SiteId, to: SiteId) -> f64 {
    match (app, from, to) {
        (Application::Cesm, SiteId::Anvil, SiteId::Cori) => 0.60,
        (Application::Cesm, SiteId::Anvil, SiteId::Bebop) => 0.76,
        (Application::Cesm, SiteId::Bebop, SiteId::Cori) => 0.72,
        (Application::Rtm, SiteId::Anvil, SiteId::Cori) => 0.77,
        (Application::Rtm, SiteId::Anvil, SiteId::Bebop) => 0.91,
        (Application::Rtm, SiteId::Bebop, SiteId::Cori) => 0.85,
        (Application::Miranda, SiteId::Anvil, SiteId::Cori) => 0.41,
        (Application::Miranda, SiteId::Anvil, SiteId::Bebop) => 0.72,
        (Application::Miranda, SiteId::Bebop, SiteId::Cori) => 0.74,
        _ => f64::NAN,
    }
}

/// OP group count per application: the paper groups "by world_size";
/// Miranda's 768 files were packed into 8 groups (the case that regressed).
fn op_groups(app: Application, n_files: usize) -> usize {
    match app {
        Application::Miranda => 8,
        _ => n_files.min(2048),
    }
}

/// Runs the full 3 × 3 matrix.
pub fn run(profile_scale: usize) -> Vec<Row> {
    let orch = Orchestrator::paper();
    let routes = [(SiteId::Anvil, SiteId::Cori), (SiteId::Anvil, SiteId::Bebop), (SiteId::Bebop, SiteId::Cori)];
    let mut rows = Vec::new();
    for app in [Application::Cesm, Application::Rtm, Application::Miranda] {
        let w = Workload::paper_default(app, profile_scale).expect("transfer workload");
        for (from, to) in routes {
            let opts = PipelineOptions::default();
            let np = orch.run(&w, from, to, Strategy::Direct, &opts).breakdown;
            let cp = orch.run(&w, from, to, Strategy::Compressed, &opts).breakdown;
            let groups = op_groups(app, w.file_count());
            let op = orch.run(&w, from, to, Strategy::grouped_by_count(groups), &opts);
            // No queue wait: the end is CPTime + T + DPTime.
            let total_t = op.end_s;
            let op = op.breakdown;
            rows.push(Row {
                dataset: app.name().to_string(),
                n_files: w.file_count(),
                total_bytes: w.total_bytes(),
                direction: format!("{from}->{to}"),
                t_np: np.transfer_s,
                speed_np: np.effective_speed_bps(),
                t_cp: cp.transfer_s,
                speed_cp: cp.effective_speed_bps(),
                t_op: op.transfer_s,
                speed_op: op.effective_speed_bps(),
                cptime: op.compression_s + op.grouping_s,
                dptime: op.decompression_s,
                total_t,
                reduced: (np.transfer_s - total_t) / np.transfer_s,
                paper_reduced: paper_reduced(app, from, to),
                op_groups: groups,
            });
        }
    }
    rows
}

/// Prints Table VIII and writes the artifact.
pub fn print() {
    let rows = run(8);
    let mut t = TextTable::new([
        "Dataset",
        "Direction",
        "T(NP)",
        "Sp(NP)",
        "T(CP)",
        "Sp(CP)",
        "T(OP)",
        "Sp(OP)",
        "CPTime",
        "DPTime",
        "Total T",
        "Reduced",
        "Paper",
    ]);
    for r in &rows {
        t.row([
            format!("{} ({} files)", r.dataset, r.n_files),
            r.direction.clone(),
            fmt_secs(r.t_np),
            fmt_speed(r.speed_np),
            fmt_secs(r.t_cp),
            fmt_speed(r.speed_cp),
            fmt_secs(r.t_op),
            fmt_speed(r.speed_op),
            fmt_secs(r.cptime),
            fmt_secs(r.dptime),
            fmt_secs(r.total_t),
            format!("{:.0}%", r.reduced * 100.0),
            format!("{:.0}%", r.paper_reduced * 100.0),
        ]);
    }
    println!("Table VIII — end-to-end transfer with parallel compression\n{t}");
    let _ = write_artifact("table8", &rows);
}

/// Prints the Fig 16 view (stacked time components for the two Anvil
/// routes) and writes the artifact.
pub fn print_fig16() {
    let rows: Vec<Row> = run(8).into_iter().filter(|r| r.direction.starts_with("Anvil")).collect();
    let mut t =
        TextTable::new(["Dataset", "Route", "direct", "compress", "transfer", "decompress", "total", "speed-up"]);
    for r in &rows {
        t.row([
            r.dataset.clone(),
            r.direction.clone(),
            fmt_secs(r.t_np),
            fmt_secs(r.cptime),
            fmt_secs(r.t_op),
            fmt_secs(r.dptime),
            fmt_secs(r.total_t),
            format!("{:.1}x", r.t_np / r.total_t),
        ]);
    }
    println!("Fig 16 — direct vs compress-and-transfer time breakdown\n{t}");
    let _ = write_artifact("fig16", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_wins_everywhere() {
        for r in run(8) {
            assert!(r.total_t < r.t_np, "{} {}: total {} vs np {}", r.dataset, r.direction, r.total_t, r.t_np);
            assert!(r.reduced > 0.2, "{} {}: reduced {}", r.dataset, r.direction, r.reduced);
        }
    }

    #[test]
    fn effective_speed_drops_after_compression_without_grouping() {
        // Table II pattern: smaller files, same file count → lower speed.
        for r in run(8) {
            if r.dataset != "miranda" {
                assert!(
                    r.speed_cp <= r.speed_np * 1.001,
                    "{} {}: cp speed {} vs np {}",
                    r.dataset,
                    r.direction,
                    r.speed_cp,
                    r.speed_np
                );
            }
        }
    }

    #[test]
    fn grouping_helps_cesm_and_rtm_but_not_miranda_on_the_fast_route() {
        let rows = run(8);
        let find = |d: &str, dir: &str| {
            rows.iter().find(|r| r.dataset == d && r.direction == dir).expect("row present").clone()
        };
        assert!(find("rtm", "Anvil->Cori").t_op < find("rtm", "Anvil->Cori").t_cp);
        assert!(find("cesm", "Anvil->Bebop").t_op <= find("cesm", "Anvil->Bebop").t_cp * 1.05);
        // Miranda's 8 groups cannot fill the fast link.
        assert!(find("miranda", "Anvil->Cori").t_op > find("miranda", "Anvil->Cori").t_cp);
    }

    #[test]
    fn reductions_are_in_the_paper_band() {
        for r in run(8) {
            // Within ±0.35 absolute of the paper's Reduced column.
            assert!(
                (r.reduced - r.paper_reduced).abs() < 0.35,
                "{} {}: reduced {:.2} vs paper {:.2}",
                r.dataset,
                r.direction,
                r.reduced,
                r.paper_reduced
            );
        }
    }
}
