//! Fig 9 — parallel compression and decompression time vs node count on
//! Anvil (128 cores/node): compression keeps scaling until cores ≈ files;
//! decompression degrades at high node counts from filesystem contention.

use crate::support::{fmt_secs, write_artifact, TextTable};
use ocelot::orchestrator::Orchestrator;
use ocelot::workload::Workload;
use ocelot_datagen::Application;
use ocelot_faas::Cluster;
use ocelot_netsim::SiteId;
use serde::Serialize;

/// One application's scaling curves.
#[derive(Debug, Clone, Serialize)]
pub struct AppCurve {
    /// Application name.
    pub app: String,
    /// Node counts swept.
    pub nodes: Vec<usize>,
    /// Compression time per node count (s).
    pub compression_s: Vec<f64>,
    /// Decompression time per node count (s).
    pub decompression_s: Vec<f64>,
}

/// Runs the sweep over `nodes` (paper: 1..16 on Anvil).
pub fn run(nodes: &[usize]) -> Vec<AppCurve> {
    let orch = Orchestrator::paper();
    let anvil = *orch.topology().site(SiteId::Anvil);
    [Application::Cesm, Application::Rtm, Application::Miranda]
        .iter()
        .map(|&app| {
            let w = Workload::paper_default(app, 12).expect("transfer workload");
            let mut compression_s = Vec::new();
            let mut decompression_s = Vec::new();
            for &n in nodes {
                let cluster = Cluster::new(n, anvil.cores_per_node, anvil.core_speed);
                compression_s.push(orch.compression_time(&w, &anvil, &cluster, 1));
                decompression_s.push(orch.decompression_time(&w, &anvil, &cluster, 1));
            }
            AppCurve { app: app.name().to_string(), nodes: nodes.to_vec(), compression_s, decompression_s }
        })
        .collect()
}

/// Runs the paper sweep, prints, writes the artifact.
pub fn print() {
    let nodes = [1usize, 2, 4, 8, 16];
    let curves = run(&nodes);
    let mut t = TextTable::new(["app", "nodes", "compression", "decompression"]);
    for c in &curves {
        for (i, &n) in c.nodes.iter().enumerate() {
            t.row([
                if i == 0 { c.app.clone() } else { String::new() },
                n.to_string(),
                fmt_secs(c.compression_s[i]),
                fmt_secs(c.decompression_s[i]),
            ]);
        }
    }
    println!("Fig 9 — parallel (de)compression vs node count on Anvil (128 cores/node)\n{t}");
    let _ = write_artifact("fig9", &curves);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_scales_down_decompression_turns_up() {
        let nodes = [1usize, 2, 4, 8, 16, 32];
        for c in run(&nodes) {
            // Compression: monotone non-increasing over the paper range.
            assert!(
                c.compression_s[0] > c.compression_s[4],
                "{}: compression should speed up with nodes ({:?})",
                c.app,
                c.compression_s
            );
            // Decompression: the 32-node point must be worse than the best
            // point (the Fig 9-right degradation).
            let best = c.decompression_s.iter().cloned().fold(f64::INFINITY, f64::min);
            let last = *c.decompression_s.last().expect("nonempty");
            assert!(
                last > best,
                "{}: decompression should degrade at high node counts ({:?})",
                c.app,
                c.decompression_s
            );
        }
    }
}
