//! Compute-cluster model: nodes × cores with LPT file-to-core scheduling.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A homogeneous compute cluster (one batch allocation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Allocated nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Core speed relative to the cost model's reference core.
    pub core_speed: f64,
}

impl Cluster {
    /// Creates a cluster description.
    ///
    /// # Panics
    /// Panics if any quantity is zero/non-positive.
    pub fn new(nodes: usize, cores_per_node: usize, core_speed: f64) -> Self {
        assert!(nodes > 0 && cores_per_node > 0, "cluster must have nodes and cores");
        assert!(core_speed > 0.0, "core speed must be positive");
        Cluster { nodes, cores_per_node, core_speed }
    }

    /// Total cores in the allocation.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Makespan (seconds) of compressing files whose *reference-core*
    /// single-core costs are `work_s`, on `cores` cores of this cluster,
    /// with longest-processing-time-first assignment (each file is handled
    /// by exactly one core, as in the paper's MPI compressor): the latest of
    /// [`Cluster::completion_times`].
    ///
    /// # Panics
    /// Panics if `cores == 0`.
    pub fn parallel_makespan(&self, work_s: &[f64], cores: usize) -> f64 {
        self.completion_times(work_s, cores).into_iter().fold(0.0, f64::max)
    }

    /// Per-file completion times (seconds, input order) under an LPT
    /// schedule: files sorted by descending work, each assigned to the
    /// least-loaded core, loads kept in integer nanoseconds for determinism
    /// — the release times a pipelined transfer consumes (files leave
    /// compression one by one).
    ///
    /// # Panics
    /// Panics if `cores == 0`.
    pub fn completion_times(&self, work_s: &[f64], cores: usize) -> Vec<f64> {
        assert!(cores > 0, "at least one core");
        let cores = cores.min(self.total_cores());
        let mut order: Vec<usize> = (0..work_s.len()).collect();
        order.sort_by(|&a, &b| work_s[b].partial_cmp(&work_s[a]).unwrap_or(std::cmp::Ordering::Equal));
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..cores.min(work_s.len().max(1))).map(|c| Reverse((0u64, c))).collect();
        let mut completion = vec![0.0f64; work_s.len()];
        for &i in &order {
            let Reverse((load, core)) = heap.pop().expect("heap non-empty");
            let w_ns = (work_s[i].max(0.0) / self.core_speed * 1e9) as u64;
            let done = load + w_ns;
            completion[i] = done as f64 * 1e-9;
            heap.push(Reverse((done, core)));
        }
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The makespan is the last completion of the one LPT schedule, bit
        /// for bit — ties between equal works and equally loaded cores
        /// included. Callers that hold the completion times take their
        /// maximum instead of scheduling twice.
        #[test]
        fn makespan_is_the_latest_completion(
            work in prop::collection::vec(prop_oneof![Just(0.0), Just(2.5), 0.0f64..40.0], 0..200),
            nodes in 1usize..4,
            cores_per_node in 1usize..9,
            cores in 1usize..40,
            speed in prop_oneof![Just(1.0), 0.25f64..4.0],
        ) {
            let cluster = Cluster::new(nodes, cores_per_node, speed);
            let latest = cluster.completion_times(&work, cores).into_iter().fold(0.0f64, f64::max);
            prop_assert_eq!(latest.to_bits(), cluster.parallel_makespan(&work, cores).to_bits());
        }
    }

    #[test]
    fn makespan_scales_until_file_count() {
        // Fig 9 (left): time halves with cores until cores ≈ files.
        let cluster = Cluster::new(16, 128, 1.0);
        let works = vec![10.0; 512];
        let t128 = cluster.parallel_makespan(&works, 128);
        let t256 = cluster.parallel_makespan(&works, 256);
        let t512 = cluster.parallel_makespan(&works, 512);
        let t2048 = cluster.parallel_makespan(&works, 2048);
        assert_eq!(t128, 40.0);
        assert_eq!(t256, 20.0);
        assert_eq!(t512, 10.0);
        assert_eq!(t2048, 10.0, "saturated at #files");
    }

    #[test]
    fn faster_cores_reduce_makespan() {
        let slow = Cluster::new(1, 64, 1.0);
        let fast = Cluster::new(1, 64, 3.0);
        let works = vec![3.0; 64];
        assert!((fast.parallel_makespan(&works, 64) - slow.parallel_makespan(&works, 64) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lpt_balances_heterogeneous_work() {
        let cluster = Cluster::new(1, 2, 1.0);
        // Work {5,4,3,3,3}: LPT → cores {5,3} and {4,3,3} → makespan 10.
        let works = vec![5.0, 4.0, 3.0, 3.0, 3.0];
        let t = cluster.parallel_makespan(&works, 2);
        assert!((t - 10.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn empty_work_is_free() {
        assert_eq!(Cluster::new(1, 1, 1.0).parallel_makespan(&[], 1), 0.0);
    }

    #[test]
    fn cores_capped_by_allocation() {
        let cluster = Cluster::new(1, 4, 1.0);
        let works = vec![1.0; 64];
        // Requesting 1000 cores cannot beat the 4 cores that exist.
        assert_eq!(cluster.parallel_makespan(&works, 1000), cluster.parallel_makespan(&works, 4));
    }

    #[test]
    fn completion_times_are_consistent_with_the_makespan() {
        let cluster = Cluster::new(1, 3, 2.0);
        let works = vec![6.0, 2.0, 4.0, 4.0, 2.0];
        let completions = cluster.completion_times(&works, 3);
        let makespan = cluster.parallel_makespan(&works, 3);
        let latest = completions.iter().cloned().fold(0.0f64, f64::max);
        assert!((latest - makespan).abs() < 1e-9, "latest {latest} vs makespan {makespan}");
        // Every file finishes no earlier than its own work takes.
        for (c, w) in completions.iter().zip(&works) {
            assert!(*c >= w / 2.0 - 1e-12, "completion {c} for work {w}");
        }
    }

    #[test]
    fn completion_times_stagger_across_rounds() {
        let cluster = Cluster::new(1, 2, 1.0);
        let works = vec![1.0; 6];
        let mut completions = cluster.completion_times(&works, 2);
        completions.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(completions, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn single_file_cannot_be_parallelized() {
        let cluster = Cluster::new(16, 128, 1.0);
        assert_eq!(cluster.parallel_makespan(&[42.0], 2048), 42.0);
    }
}
