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

/// Execution timing of one compression chunk inside a chunked invocation,
/// relative to the start of function execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkTiming {
    /// Chunk index within the file (container chunk-table order).
    pub chunk: usize,
    /// Codec thread (lane) the chunk ran on.
    pub lane: usize,
    /// Seconds after execution start at which the chunk began.
    pub start_s: f64,
    /// Chunk execution time, seconds.
    pub exec_s: f64,
}

impl ChunkTiming {
    /// Seconds after execution start at which the chunk finished.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.exec_s
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
        let obs = ocelot_obs::global();
        obs.inc("ocelot_faas_invocations_total", "FaaS invocations served");
        if cold {
            obs.inc("ocelot_faas_cold_starts_total", "Invocations that paid a container cold start");
        }
        obs.observe("ocelot_faas_queue_wait_seconds", "Simulated batch-queue wait before nodes were granted", wait);
        obs.observe("ocelot_faas_exec_seconds", "Simulated function execution time", exec_s);
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

    /// Invokes a chunk-parallel compression function: `chunk_exec_s[i]` is
    /// the single-thread execution time of chunk `i`, run on `codec_threads`
    /// worker lanes. Chunks are claimed in container order by the first free
    /// lane — the same work-stealing order the real engine uses — so the
    /// reported makespan and per-chunk start offsets match what a wall-clock
    /// profile of the chunked codec would show.
    ///
    /// Returns the batched invocation (exec = chunk makespan) plus the
    /// per-chunk timing table, and records each chunk's execution time in the
    /// `ocelot_faas_chunk_exec_seconds` histogram.
    ///
    /// # Panics
    /// Panics if `codec_threads == 0`.
    pub fn invoke_chunked(
        &mut self,
        chunk_exec_s: &[f64],
        codec_threads: usize,
        needs_nodes: bool,
    ) -> (FaasInvocation, Vec<ChunkTiming>) {
        assert!(codec_threads > 0, "codec_threads must be >= 1");
        let obs = ocelot_obs::global();
        let mut lanes = vec![0.0_f64; codec_threads.min(chunk_exec_s.len().max(1))];
        let mut timings = Vec::with_capacity(chunk_exec_s.len());
        for (chunk, &exec) in chunk_exec_s.iter().enumerate() {
            let exec = exec.max(0.0);
            let (lane, start) =
                lanes.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, &t)| (i, t)).expect("lanes");
            timings.push(ChunkTiming { chunk, lane, start_s: start, exec_s: exec });
            lanes[lane] = start + exec;
            obs.observe("ocelot_faas_chunk_exec_seconds", "Per-chunk codec execution time", exec);
            if ocelot_obs::ledger::is_active() {
                use ocelot_obs::ledger::{emit, Draft, EventKind};
                let d = |t: f64| Draft { chunk: Some(chunk as u32), t_sim: Some(t), ..Draft::default() };
                let p = emit(EventKind::CompressBegin, d(start));
                emit(EventKind::Encoded, Draft { parent: p, ..d(start + exec) });
            }
        }
        let makespan = lanes.iter().fold(0.0_f64, |a, &b| a.max(b));
        (self.invoke_batch(chunk_exec_s.len().max(1), makespan, needs_nodes), timings)
    }

    /// Streamed variant of [`FaasEndpoint::invoke_chunked`]: chunk `i` only
    /// becomes available at `release_s[i]` seconds after execution start —
    /// e.g. when it lands from the WAN — so a lane that frees up early idles
    /// until the next chunk arrives (`start = max(lane_free, release)`).
    /// This is the decompress-on-arrival half of the streaming pipeline: the
    /// reported makespan is the arrival-bounded decompression finish, and
    /// `makespan − last_release` is the decompression tail that streaming
    /// cannot hide behind the transfer.
    ///
    /// With all releases zero this reduces exactly to `invoke_chunked`.
    ///
    /// # Panics
    /// Panics if `codec_threads == 0`, `release_s.len() != chunk_exec_s.len()`,
    /// or any release is negative/non-finite.
    pub fn invoke_chunked_released(
        &mut self,
        chunk_exec_s: &[f64],
        release_s: &[f64],
        codec_threads: usize,
        needs_nodes: bool,
    ) -> (FaasInvocation, Vec<ChunkTiming>) {
        assert!(codec_threads > 0, "codec_threads must be >= 1");
        assert_eq!(release_s.len(), chunk_exec_s.len(), "one release time per chunk");
        assert!(release_s.iter().all(|r| r.is_finite() && *r >= 0.0), "release times must be non-negative");
        let obs = ocelot_obs::global();
        let mut lanes = vec![0.0_f64; codec_threads.min(chunk_exec_s.len().max(1))];
        let mut timings = Vec::with_capacity(chunk_exec_s.len());
        for (chunk, (&exec, &release)) in chunk_exec_s.iter().zip(release_s).enumerate() {
            let exec = exec.max(0.0);
            let (lane, free) =
                lanes.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map(|(i, &t)| (i, t)).expect("lanes");
            let start = free.max(release);
            timings.push(ChunkTiming { chunk, lane, start_s: start, exec_s: exec });
            lanes[lane] = start + exec;
            obs.observe("ocelot_faas_chunk_exec_seconds", "Per-chunk codec execution time", exec);
            if ocelot_obs::ledger::is_active() {
                use ocelot_obs::ledger::{emit, Draft, EventKind};
                let d = |t: f64| Draft { chunk: Some(chunk as u32), t_sim: Some(t), ..Draft::default() };
                // Decode-on-arrival: a busy lane parks the landed chunk in
                // the reorder buffer until a decoder frees up.
                let p = if start > release {
                    let p =
                        emit(EventKind::ReorderEnter, Draft { cause: Some("awaiting decode".into()), ..d(release) });
                    emit(EventKind::ReorderExit, Draft { parent: p, ..d(start) })
                } else {
                    None
                };
                let p = emit(EventKind::DecodeBegin, Draft { parent: p, ..d(start) });
                emit(EventKind::DecodeEnd, Draft { parent: p, ..d(start + exec) });
            }
        }
        let makespan = lanes.iter().fold(0.0_f64, |a, &b| a.max(b));
        (self.invoke_batch(chunk_exec_s.len().max(1), makespan, needs_nodes), timings)
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
    fn chunked_invocation_reports_per_chunk_timings() {
        let mut ep = FaasEndpoint::new("anvil", WaitTimeModel::Immediate, 1);
        ep.invoke(0.0, false); // warm the container
        let work = [4.0, 1.0, 1.0, 1.0, 1.0];
        let (serial, t1) = ep.invoke_chunked(&work, 1, false);
        let (parallel, t4) = ep.invoke_chunked(&work, 4, false);
        assert_eq!(t1.len(), work.len());
        assert_eq!(t4.len(), work.len());
        // Serial: chunks run back to back on lane 0.
        assert!((serial.exec_s - 8.0).abs() < 1e-12);
        assert!(t1.iter().all(|t| t.lane == 0));
        assert!((t1[4].start_s - 7.0).abs() < 1e-12);
        // 4 lanes: the long chunk bounds the makespan; others pack around it.
        assert!((parallel.exec_s - 4.0).abs() < 1e-12, "exec {}", parallel.exec_s);
        assert_eq!(t4[0].lane, 0);
        assert!(t4[4].start_s < 4.0);
        assert!((t4.iter().map(ChunkTiming::end_s).fold(0.0_f64, f64::max) - parallel.exec_s).abs() < 1e-12);
    }

    #[test]
    fn chunked_invocation_handles_edge_shapes() {
        let mut ep = FaasEndpoint::new("anvil", WaitTimeModel::Immediate, 1);
        let (inv, timings) = ep.invoke_chunked(&[], 4, false);
        assert!(timings.is_empty());
        assert_eq!(inv.exec_s, 0.0);
        // More lanes than chunks: each chunk starts at 0 on its own lane.
        let (inv, timings) = ep.invoke_chunked(&[2.0, 3.0], 8, false);
        assert!((inv.exec_s - 3.0).abs() < 1e-12);
        assert!(timings.iter().all(|t| t.start_s == 0.0));
    }

    #[test]
    fn released_chunks_wait_for_arrival() {
        let mut ep = FaasEndpoint::new("cori", WaitTimeModel::Immediate, 1);
        ep.invoke(0.0, false); // warm the container
        let work = [1.0, 1.0, 1.0, 1.0];
        // All-zero releases reduce exactly to the plain chunked invocation.
        let (plain, pt) = ep.invoke_chunked(&work, 2, false);
        let (zero, zt) = ep.invoke_chunked_released(&work, &[0.0; 4], 2, false);
        assert_eq!(pt, zt);
        assert!((plain.exec_s - zero.exec_s).abs() < 1e-12);
        // Staggered arrivals: lanes idle until each chunk lands, so the
        // makespan is bounded below by last_release + its exec time.
        let releases = [0.0, 2.0, 4.0, 6.0];
        let (inv, t) = ep.invoke_chunked_released(&work, &releases, 2, false);
        for (timing, &r) in t.iter().zip(&releases) {
            assert!(timing.start_s >= r, "chunk {} started at {} before arrival {r}", timing.chunk, timing.start_s);
        }
        assert!((inv.exec_s - 7.0).abs() < 1e-12, "exec {}", inv.exec_s);
    }

    #[test]
    #[should_panic(expected = "one release time per chunk")]
    fn released_length_mismatch_panics() {
        let mut ep = FaasEndpoint::new("cori", WaitTimeModel::Immediate, 1);
        ep.invoke_chunked_released(&[1.0, 1.0], &[0.0], 2, false);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let inv = FaasInvocation { dispatch_s: 0.1, startup_s: 0.2, queue_wait_s: 0.3, exec_s: 0.4 };
        assert!((inv.total_s() - 1.0).abs() < 1e-12);
    }
}
