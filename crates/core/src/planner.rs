//! Transfer planning: choose the grouping and decompression parallelism
//! that minimize end-to-end time for a given workload and route.
//!
//! The paper sets these by rule of thumb ("group by world_size", "use fewer
//! cores for decompression"); the planner searches the simulated pipeline
//! instead, using the same models the orchestrator runs.

use ocelot_netsim::{simulate_transfer, GridFtpConfig, SiteId};

use crate::grouping::plan_groups_by_count;
use crate::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use crate::report::TimeBreakdown;
use crate::workload::Workload;

/// A tuned transfer plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPlan {
    /// Chosen strategy (grouped with the optimal group count, or plain
    /// compressed when grouping does not pay).
    pub strategy: Strategy,
    /// Chosen decompression cores per node.
    pub decompress_cores_per_node: usize,
    /// Expected phase breakdown under the plan.
    pub expected: TimeBreakdown,
}

/// Plans transfers over a topology.
#[derive(Debug, Clone)]
pub struct TransferPlanner {
    orchestrator: Orchestrator,
}

impl TransferPlanner {
    /// Creates a planner over the paper testbed.
    pub fn paper() -> Self {
        TransferPlanner { orchestrator: Orchestrator::paper() }
    }

    /// Creates a planner over an existing orchestrator.
    pub fn new(orchestrator: Orchestrator) -> Self {
        TransferPlanner { orchestrator }
    }

    /// Finds the group count minimizing the simulated transfer time of the
    /// workload's compressed files over the route's link (powers of two up
    /// to the file count, plus the ungrouped option).
    pub fn optimal_group_count(
        &self,
        workload: &Workload,
        from: SiteId,
        to: SiteId,
        gridftp: &GridFtpConfig,
    ) -> Option<usize> {
        let link = self.orchestrator.topology().route(from, to).link;
        let comp_sizes = workload.compressed_sizes();
        let ungrouped = simulate_transfer(&comp_sizes, &link, gridftp, 0).duration_s;
        let mut best: Option<(usize, f64)> = None;
        let mut groups = 1usize;
        while groups <= comp_sizes.len() {
            let plan = plan_groups_by_count(comp_sizes.len(), groups);
            let grouped: Vec<u64> = plan.iter().map(|g| g.iter().map(|&i| comp_sizes[i]).sum()).collect();
            let t = simulate_transfer(&grouped, &link, gridftp, 0).duration_s;
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((groups, t));
            }
            groups *= 2;
        }
        match best {
            Some((g, t)) if t < ungrouped => Some(g),
            _ => None, // grouping does not pay on this route
        }
    }

    /// Chooses decompression cores per node: the per-node writer count that
    /// minimizes the destination write time for the restored bytes, capped
    /// by the node's cores.
    pub fn optimal_decompress_cores(&self, workload: &Workload, to: SiteId, nodes: usize) -> usize {
        let dst = self.orchestrator.topology().site(to);
        let max_writers = nodes * dst.cores_per_node;
        let writers = dst.fs.optimal_writers(workload.total_bytes(), max_writers);
        (writers / nodes.max(1)).clamp(1, dst.cores_per_node)
    }

    /// Produces a full tuned plan and its expected breakdown.
    ///
    /// Candidates are evaluated end to end (grouping overhead, transfer,
    /// and decompression all interact), so the plan minimizes *total* time,
    /// not any single phase.
    pub fn plan(&self, workload: &Workload, from: SiteId, to: SiteId, base: &PipelineOptions) -> TransferPlan {
        let dst = self.orchestrator.topology().site(to);
        let mut strategies = vec![Strategy::Compressed];
        if let Some(groups) = self.optimal_group_count(workload, from, to, &base.gridftp) {
            strategies.push(Strategy::grouped_by_count(groups));
        }
        let fs_cores = self.optimal_decompress_cores(workload, to, base.decompress_nodes);
        let mut core_options = vec![fs_cores, dst.cores_per_node, dst.cores_per_node.div_ceil(2)];
        if let Some(c) = base.decompress_cores_per_node {
            core_options.push(c.min(dst.cores_per_node));
        }
        core_options.sort_unstable();
        core_options.dedup();

        let mut best: Option<TransferPlan> = None;
        for &strategy in &strategies {
            for &dcores in &core_options {
                let opts = PipelineOptions { decompress_cores_per_node: Some(dcores), ..*base };
                let expected = self.orchestrator.run(workload, from, to, strategy, &opts).breakdown;
                if best.as_ref().is_none_or(|b| expected.total_s() < b.expected.total_s()) {
                    best = Some(TransferPlan { strategy, decompress_cores_per_node: dcores, expected });
                }
            }
        }
        best.expect("at least one candidate evaluated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_sz::LossyConfig;

    fn miranda() -> Workload {
        Workload::miranda(LossyConfig::sz3(1e-3), 24).expect("workload")
    }

    #[test]
    fn planned_transfer_is_no_worse_than_defaults() {
        let planner = TransferPlanner::paper();
        let w = miranda();
        let base = PipelineOptions::default();
        let plan = planner.plan(&w, SiteId::Anvil, SiteId::Cori, &base);
        let default_run =
            planner.orchestrator.run(&w, SiteId::Anvil, SiteId::Cori, Strategy::Compressed, &base).breakdown;
        assert!(
            plan.expected.total_s() <= default_run.total_s() * 1.02,
            "planned {} vs default {}",
            plan.expected.total_s(),
            default_run.total_s()
        );
    }

    #[test]
    fn group_count_avoids_both_extremes_on_the_fast_route() {
        let planner = TransferPlanner::paper();
        let w = miranda();
        if let Some(groups) = planner.optimal_group_count(&w, SiteId::Anvil, SiteId::Cori, &GridFtpConfig::default()) {
            assert!(groups > 8, "too few groups cannot fill the fast link: {groups}");
            assert!(groups <= w.file_count());
        }
    }

    #[test]
    fn decompress_cores_respect_node_limits() {
        let planner = TransferPlanner::paper();
        let w = miranda();
        for nodes in [1usize, 8, 64] {
            let cores = planner.optimal_decompress_cores(&w, SiteId::Cori, nodes);
            assert!((1..=32).contains(&cores), "nodes {nodes}: cores {cores}");
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let planner = TransferPlanner::paper();
        let w = miranda();
        let base = PipelineOptions::default();
        let a = planner.plan(&w, SiteId::Bebop, SiteId::Cori, &base);
        let b = planner.plan(&w, SiteId::Bebop, SiteId::Cori, &base);
        assert_eq!(a, b);
    }
}
