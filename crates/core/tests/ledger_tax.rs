//! The chunk ledger's tax on the control plane it records, measured where
//! ROADMAP's observability aim asks for it: one streamed job through
//! `Orchestrator::run` with a chunk window, its schedule built and numbered
//! as a keeper commits it, against a jobless run that builds none.
//!
//! Unlike `sz/tests/prof_overhead.rs` this check never skips: both sides are
//! a single-threaded simulation, so a small or busy box slows them alike,
//! and the memory half is a count, not a timing.

use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_netsim::SiteId;
use std::time::{Duration, Instant};

/// Ledger-on may cost at most this many times ledger-off.
const MAX_RATIO: f64 = 1.10;

/// Heap bytes an adopted schedule may hold per chunk: its nine columns take
/// 72, failed attempts (none on this healthy link) 16 each.
const MAX_BYTES_PER_CHUNK: f64 = 72.0;

#[test]
fn ledger_costs_less_than_the_streamed_run_it_records() {
    // 3 601 chunks under an 8-chunk window: ≈ 30 000 events.
    let w = Workload::rtm(ocelot_sz::LossyConfig::sz3(1e-3), 8).expect("profiling succeeds");
    let on = PipelineOptions { job: Some(1), ..PipelineOptions::default() };
    let off = PipelineOptions { job: None, ..on };
    let streamed = Strategy::Pipelined { window: 8 };
    let orch = Orchestrator::paper().with_obs(ocelot_obs::Obs::disabled());
    let time = |opts: &PipelineOptions| {
        let t = Instant::now();
        let out = orch.run(std::hint::black_box(&w), SiteId::Anvil, SiteId::Bebop, streamed, opts);
        let schedule = std::hint::black_box(out).schedule.map(|s| s.numbered(1, 0));
        (t.elapsed(), schedule)
    };

    let (mut best_off, mut best_on) = (Duration::MAX, Duration::MAX);
    let (mut events, mut chunks, mut heap_bytes) = (0usize, 0usize, 0usize);
    for _ in 0..21 {
        best_off = best_off.min(time(&off).0);
        let (elapsed, schedule) = time(&on);
        best_on = best_on.min(elapsed);
        // Dropped outside the timing, as the service keeps it past the run.
        let schedule = schedule.expect("a run with a job builds one schedule");
        (events, chunks, heap_bytes) = (schedule.len(), schedule.chunks(), schedule.heap_bytes());
    }
    assert!(events > 25_000, "a 3 601-chunk job under a tight window emits ≈ 30 000 events, got {events}");

    let ratio = best_on.as_secs_f64() / best_off.as_secs_f64();
    let per_event_ns = best_on.saturating_sub(best_off).as_nanos() as f64 / events as f64;
    let bytes_per_chunk = heap_bytes as f64 / chunks as f64;
    println!(
        "ledger tax: off {:.3} ms, on {:.3} ms → ×{ratio:.2} ({per_event_ns:.1} ns/event over {events} events); \
         {bytes_per_chunk:.1} heap bytes/chunk over {chunks} chunks",
        best_off.as_secs_f64() * 1e3,
        best_on.as_secs_f64() * 1e3,
    );
    assert!(bytes_per_chunk <= MAX_BYTES_PER_CHUNK, "{bytes_per_chunk:.1} heap bytes per chunk");
    assert!(ratio <= MAX_RATIO, "ledger-on costs ×{ratio:.2} of ledger-off (limit ×{MAX_RATIO})");
}
