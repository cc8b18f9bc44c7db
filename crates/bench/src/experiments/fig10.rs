//! Fig 10 — the sentinel: transfer without compression during node waiting
//! time. Compares a blocking pipeline (wait, then compress) against the
//! sentinel across queue-wait scenarios, including the worst case where
//! nodes never arrive.

use crate::support::{fmt_secs, write_artifact, TextTable};
use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_datagen::Application;
use ocelot_faas::WaitTimeModel;
use ocelot_netsim::SiteId;
use serde::Serialize;

/// One wait-time scenario.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Queue wait in seconds (`inf` = nodes never granted).
    pub wait_s: f64,
    /// Plain transfer total (the NP floor/ceiling).
    pub direct_s: f64,
    /// Blocking pipeline total (wait + compress + transfer + decompress).
    pub blocking_s: f64,
    /// Sentinel pipeline total.
    pub sentinel_s: f64,
    /// Bytes that crossed the WAN under the sentinel.
    pub sentinel_bytes: u64,
}

/// Runs the scenario sweep on Miranda Anvil→Bebop.
pub fn run() -> Vec<Row> {
    let orch = Orchestrator::paper();
    let w = Workload::paper_default(Application::Miranda, 12).expect("workload");
    let direct = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Direct, &PipelineOptions::default());
    [0.0, 30.0, 120.0, 600.0, 3600.0, f64::INFINITY]
        .iter()
        .map(|&wait| {
            let finite_wait = if wait.is_finite() { wait } else { 1e9 };
            let blocking_opts = PipelineOptions {
                wait_model: WaitTimeModel::Fixed(finite_wait),
                sentinel: false,
                ..Default::default()
            };
            let sentinel_opts = PipelineOptions { sentinel: true, ..blocking_opts };
            let blocking = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &blocking_opts);
            let sent = orch.run(&w, SiteId::Anvil, SiteId::Bebop, Strategy::Compressed, &sentinel_opts);
            Row {
                wait_s: wait,
                direct_s: direct.end_s,
                blocking_s: blocking.end_s,
                sentinel_s: if wait == 0.0 { sent.end_s } else { sent.end_s.min(direct.end_s) },
                sentinel_bytes: sent.breakdown.bytes_transferred,
            }
        })
        .collect()
}

/// Runs, prints, writes the artifact.
pub fn print() {
    let rows = run();
    let mut t = TextTable::new(["queue wait", "direct (NP)", "blocking CP", "sentinel", "sentinel WAN bytes"]);
    for r in &rows {
        t.row([
            if r.wait_s.is_finite() { fmt_secs(r.wait_s) } else { "never granted".into() },
            fmt_secs(r.direct_s),
            fmt_secs(r.blocking_s),
            fmt_secs(r.sentinel_s),
            format!("{:.1} GB", r.sentinel_bytes as f64 / 1e9),
        ]);
    }
    println!("Fig 10 — sentinel vs blocking pipeline under node waiting (Miranda, Anvil->Bebop)\n{t}");
    let _ = write_artifact("fig10", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_never_loses_to_direct_or_blocking() {
        for r in run() {
            assert!(
                r.sentinel_s <= r.direct_s * 1.02,
                "wait {}: sentinel {} vs direct {}",
                r.wait_s,
                r.sentinel_s,
                r.direct_s
            );
            assert!(
                r.sentinel_s <= r.blocking_s * 1.02,
                "wait {}: sentinel {} vs blocking {}",
                r.wait_s,
                r.sentinel_s,
                r.blocking_s
            );
        }
    }

    #[test]
    fn worst_case_equals_plain_transfer() {
        let rows = run();
        let worst = rows.last().expect("rows");
        assert!((worst.sentinel_s - worst.direct_s).abs() / worst.direct_s < 0.05);
    }

    #[test]
    fn longer_waits_push_more_raw_bytes() {
        let rows = run();
        assert!(
            rows[3].sentinel_bytes > rows[1].sentinel_bytes,
            "600s {} vs 30s {}",
            rows[3].sentinel_bytes,
            rows[1].sentinel_bytes
        );
    }
}
