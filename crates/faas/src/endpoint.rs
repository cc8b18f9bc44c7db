//! FuncX-style function-serving endpoint: dispatch overhead, container
//! warming, request batching, and batch-queue provisioning.

use crate::queue::WaitTimeModel;
use serde::{Deserialize, Serialize};

/// A federated FaaS endpoint deployed at one site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaasEndpoint {
    /// Site label (diagnostics only).
    pub site: String,
    /// Web-service dispatch latency per request batch, seconds.
    pub dispatch_s: f64,
    /// Container cold-start cost, seconds.
    pub cold_start_s: f64,
    /// Warm-container invocation cost, seconds.
    pub warm_start_s: f64,
    /// Batch-queue waiting model for invocations that need compute nodes.
    pub wait_model: WaitTimeModel,
    /// RNG seed for waiting-time draws.
    pub seed: u64,
    /// Number of invocations served so far (container warming state).
    invocations: u64,
}

/// Timing breakdown of one (batched) function invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaasInvocation {
    /// Service dispatch latency.
    pub dispatch_s: f64,
    /// Container start cost (cold on first use, warm afterwards).
    pub startup_s: f64,
    /// Batch-queue waiting time before nodes were granted.
    pub queue_wait_s: f64,
    /// Function execution time (supplied by the caller).
    pub exec_s: f64,
}

impl FaasInvocation {
    /// End-to-end latency of the invocation.
    pub fn total_s(&self) -> f64 {
        self.dispatch_s + self.startup_s + self.queue_wait_s + self.exec_s
    }
}

impl FaasEndpoint {
    /// Creates an endpoint with FuncX-calibrated overheads (dispatch ≈ 90 ms,
    /// cold container ≈ 5 s, warm ≈ 30 ms).
    pub fn new(site: impl Into<String>, wait_model: WaitTimeModel, seed: u64) -> Self {
        FaasEndpoint {
            site: site.into(),
            dispatch_s: 0.09,
            cold_start_s: 5.0,
            warm_start_s: 0.03,
            wait_model,
            seed,
            invocations: 0,
        }
    }

    /// Invokes a function whose execution takes `exec_s` seconds and needs
    /// compute nodes (`needs_nodes = false` skips the batch queue — e.g.
    /// feature extraction on a login node or DTN).
    ///
    /// The first invocation pays the cold-start cost; later ones hit warm
    /// containers (FuncX container warming).
    pub fn invoke(&mut self, exec_s: f64, needs_nodes: bool) -> FaasInvocation {
        let cold = self.invocations == 0;
        let startup = if cold { self.cold_start_s } else { self.warm_start_s };
        let wait = if needs_nodes { self.wait_model.sample(self.seed, self.invocations) } else { 0.0 };
        self.invocations += 1;
        FaasInvocation { dispatch_s: self.dispatch_s, startup_s: startup, queue_wait_s: wait, exec_s }
    }

    /// Invokes a batch of `n` functions submitted together: dispatch and
    /// startup are amortized across the batch (FuncX executor batching),
    /// the queue is paid once, and execution is the caller-computed makespan.
    pub fn invoke_batch(&mut self, n: usize, makespan_s: f64, needs_nodes: bool) -> FaasInvocation {
        let mut inv = self.invoke(makespan_s, needs_nodes);
        // Marginal per-request cost within a batch is tiny (~2 ms).
        inv.dispatch_s += 0.002 * n.saturating_sub(1) as f64;
        inv
    }

    /// Number of invocations served.
    pub fn invocation_count(&self) -> u64 {
        self.invocations
    }

    /// Whether the next invocation will hit a warm container.
    pub fn is_warm(&self) -> bool {
        self.invocations > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_call_is_cold_then_warm() {
        let mut ep = FaasEndpoint::new("anvil", WaitTimeModel::Immediate, 1);
        assert!(!ep.is_warm());
        let a = ep.invoke(1.0, false);
        let b = ep.invoke(1.0, false);
        assert!(a.startup_s > b.startup_s);
        assert!(ep.is_warm());
        assert_eq!(ep.invocation_count(), 2);
    }

    #[test]
    fn queue_wait_only_when_nodes_needed() {
        let mut ep = FaasEndpoint::new("bebop", WaitTimeModel::Fixed(300.0), 1);
        let login = ep.invoke(1.0, false);
        let batch = ep.invoke(1.0, true);
        assert_eq!(login.queue_wait_s, 0.0);
        assert_eq!(batch.queue_wait_s, 300.0);
        assert!(batch.total_s() > 300.0);
    }

    #[test]
    fn batching_amortizes_overhead() {
        let mut a = FaasEndpoint::new("x", WaitTimeModel::Immediate, 1);
        let batched = a.invoke_batch(100, 10.0, false).total_s();
        let mut b = FaasEndpoint::new("x", WaitTimeModel::Immediate, 1);
        let unbatched: f64 = (0..100).map(|_| b.invoke(0.1, false).total_s()).sum();
        assert!(batched < unbatched, "batched={batched} unbatched={unbatched}");
    }

    #[test]
    fn total_is_sum_of_parts() {
        let inv = FaasInvocation { dispatch_s: 0.1, startup_s: 0.2, queue_wait_s: 0.3, exec_s: 0.4 };
        assert!((inv.total_s() - 1.0).abs() < 1e-12);
    }
}
