//! ocelot-obs: zero-dependency observability for the ocelot pipeline.
//!
//! Seven pieces:
//!
//! - [`metrics::Registry`] — named counters, gauges, and log-bucketed
//!   mergeable histograms with lock-free hot-path increments and per-bucket
//!   exemplars.
//! - [`export`] — Prometheus text exposition, JSON metrics, and Chrome
//!   `trace_event` JSON for `chrome://tracing` / Perfetto.
//! - [`critpath`] — critical-path attribution of a job's committed
//!   [`ledger::Schedule`], per stage ([`critpath::BottleneckReport`]).
//! - [`flight`] — an always-on bounded ring of recent structured events,
//!   snapshotted on failure for post-mortem dumps.
//! - [`slo`] — declarative burn-rate SLO rules evaluated incrementally
//!   against the registry, emitting typed [`slo::Alert`]s.
//! - [`prof`] — continuous kernel-level profiling: scoped probes on worker
//!   threads draining into per-thread atomic totals, with a measured
//!   self-overhead gauge and collapsed-stack ("folded") export.
//! - [`ledger`] — chunk-lifecycle event ledger: causal wide events per
//!   chunk (compressed → released → in-flight → arrived → decoded),
//!   committed one schedule per job into a ledger handed to the emitter
//!   explicitly, bounded between records, replayable into per-chunk Gantt
//!   timelines. A job's schedule is its one timing record.
//!
//! An [`Obs`] is a cheap-clone handle that is either *enabled* (wraps an
//! `Arc` of registry + flight ring) or *disabled* (every call is a no-op).
//! There is no process-wide handle: code that records takes the handle it
//! is given (the service hands its own to the orchestrator and the ledger),
//! and code given none records nothing. The one process-wide install is
//! the [`prof`] profiler, which a binary builds on its handle so kernel
//! probes on any thread drain into the same registry.
//!
//! Metric names follow `ocelot_<crate>_<name>` with Prometheus unit
//! suffixes (`_seconds`, `_bytes`, `_total`).

pub mod critpath;
pub mod export;
pub mod flight;
pub mod ledger;
pub mod log;
pub mod metrics;
pub mod prof;
pub mod slo;

use flight::{FlightKind, FlightRecorder, FlightSnapshot};
use metrics::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Registry counter mirroring [`FlightRecorder::dropped`]; synced on every
/// snapshot so exports surface drops even if no one polls the ring directly.
pub const FLIGHT_DROPPED_COUNTER: &str = "ocelot_obs_flight_dropped_total";

#[derive(Debug)]
struct ObsInner {
    registry: Registry,
    flight: FlightRecorder,
}

/// Cheap-clone observability handle; disabled handles no-op everywhere.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A fresh enabled handle with its own registry and flight ring
    /// (default capacity).
    pub fn enabled() -> Self {
        Obs::with_flight_capacity(flight::DEFAULT_CAPACITY)
    }

    /// Enabled handle whose flight ring holds `capacity` events.
    pub fn with_flight_capacity(capacity: usize) -> Self {
        Obs { inner: Some(Arc::new(ObsInner { registry: Registry::new(), flight: FlightRecorder::new(capacity) })) }
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref().map(|i| &i.registry)
    }

    /// The always-on flight ring, if enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.inner.as_deref().map(|i| &i.flight)
    }

    /// Snapshots the flight ring and syncs the
    /// [`FLIGHT_DROPPED_COUNTER`] registry counter to the ring's cumulative
    /// drop count (`None` when disabled).
    pub fn flight_snapshot(&self) -> Option<FlightSnapshot> {
        let i = self.inner.as_deref()?;
        let snap = i.flight.snapshot();
        let c = i.registry.counter(FLIGHT_DROPPED_COUNTER, "flight-ring events dropped during snapshots");
        let seen = c.get();
        if snap.dropped > seen {
            c.add(snap.dropped - seen);
        }
        Some(snap)
    }

    /// Records a labeled state-transition breadcrumb (simulated seconds) into
    /// the flight ring.
    pub fn flight_state(&self, job: Option<u64>, label: &str, t_s: f64) {
        if let Some(i) = &self.inner {
            i.flight.record(job, FlightKind::State { label: label.to_string(), t_s });
        }
    }

    /// Adds `n` to counter `name` (registered with `help` on first use).
    pub fn add(&self, name: &str, help: &str, n: u64) {
        if let Some(i) = &self.inner {
            i.registry.counter(name, help).add(n);
            i.flight.record(None, FlightKind::Counter { name: name.to_string(), delta: n });
        }
    }

    /// Adds one to counter `name`.
    pub fn inc(&self, name: &str, help: &str) {
        self.add(name, help, 1);
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, help: &str, v: f64) {
        if let Some(i) = &self.inner {
            i.registry.gauge(name, help).set(v);
        }
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&self, name: &str, help: &str, v: f64) {
        if let Some(i) = &self.inner {
            i.registry.histogram(name, help).observe(v);
        }
    }

    /// Cached counter handle for hot paths (`None` when disabled).
    pub fn counter_handle(&self, name: &str, help: &str) -> Option<Arc<Counter>> {
        self.inner.as_ref().map(|i| i.registry.counter(name, help))
    }

    /// Cached histogram handle for hot paths.
    pub fn histogram_handle(&self, name: &str, help: &str) -> Option<Arc<Histogram>> {
        self.inner.as_ref().map(|i| i.registry.histogram(name, help))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.inc("ocelot_test_x_total", "x");
        obs.observe("ocelot_test_h_seconds", "h", 1.0);
        obs.flight_state(None, "admitted", 0.0);
        assert!(!obs.is_enabled());
        assert!(obs.registry().is_none());
        assert!(obs.counter_handle("ocelot_test_x_total", "x").is_none());
    }

    #[test]
    fn enabled_handle_records() {
        let obs = Obs::enabled();
        obs.inc("ocelot_test_jobs_total", "jobs");
        obs.add("ocelot_test_jobs_total", "jobs", 2);
        obs.observe("ocelot_test_lat_seconds", "lat", 0.25);
        obs.set_gauge("ocelot_test_depth", "depth", 4.0);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("ocelot_test_jobs_total", "").get(), 3);
        assert_eq!(reg.histogram("ocelot_test_lat_seconds", "").count(), 1);
        // Clones share state.
        obs.clone().inc("ocelot_test_jobs_total", "");
        assert_eq!(reg.counter("ocelot_test_jobs_total", "").get(), 4);
    }

    #[test]
    fn enabled_handle_feeds_the_flight_ring() {
        let obs = Obs::with_flight_capacity(64);
        obs.add("ocelot_test_flight_total", "f", 2);
        obs.flight_state(Some(9), "admitted", 1.5);
        let snap = obs.flight_snapshot().unwrap();
        assert_eq!(snap.dropped, 0);
        let kinds: Vec<&'static str> = snap
            .events
            .iter()
            .map(|e| match e.kind {
                FlightKind::Log { .. } => "log",
                FlightKind::Counter { .. } => "counter",
                FlightKind::State { .. } => "state",
            })
            .collect();
        assert!(kinds.contains(&"counter"));
        assert!(kinds.contains(&"state"));
        // The dropped counter is mirrored into the registry.
        assert_eq!(obs.registry().unwrap().counter(FLIGHT_DROPPED_COUNTER, "").get(), 0);
        assert!(obs.flight().unwrap().recorded() >= snap.events.len() as u64);
        // Disabled handles expose no ring.
        assert!(Obs::disabled().flight().is_none());
        assert!(Obs::disabled().flight_snapshot().is_none());
    }
}
