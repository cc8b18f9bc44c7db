//! ocelot-obs: zero-dependency observability for the ocelot pipeline.
//!
//! Six pieces:
//!
//! - [`metrics::Registry`] — named counters, gauges, and log-bucketed
//!   mergeable histograms with lock-free hot-path increments and per-bucket
//!   exemplars.
//! - [`export`] — Prometheus text exposition, JSON metrics, and Chrome
//!   `trace_event` JSON for `chrome://tracing` / Perfetto.
//! - [`critpath`] — critical-path attribution of a job's committed
//!   [`ledger::Schedule`], per stage ([`critpath::BottleneckReport`]).
//! - [`slo`] — declarative burn-rate SLO rules evaluated incrementally
//!   against the registry, emitting typed [`slo::Alert`]s.
//! - [`prof`] — continuous kernel-level profiling: scoped probes on worker
//!   threads draining into per-thread atomic totals, with a measured
//!   self-overhead gauge and collapsed-stack ("folded") export.
//! - [`ledger`] — chunk-lifecycle event ledger: causal wide events per
//!   chunk (compressed → released → in-flight → arrived → decoded),
//!   derived on read from one schedule per job that its keeper numbers and
//!   keeps whole, replayable into per-chunk Gantt timelines. A job's schedule — its run, and the retry rounds and outcome
//!   its service added — is its one timing record.
//!
//! An [`Obs`] is a cheap-clone handle that is either *enabled* (wraps an
//! `Arc` of a registry) or *disabled* (every call is a no-op).
//! There is no process-wide handle: code that records takes the handle it
//! is given (the service hands its own to the orchestrator),
//! and code given none records nothing. The one process-wide install is
//! the [`prof`] profiler, which a binary builds on its handle so kernel
//! probes on any thread drain into the same registry.
//!
//! Metric names follow `ocelot_<crate>_<name>` with Prometheus unit
//! suffixes (`_seconds`, `_bytes`, `_total`).

pub mod critpath;
pub mod export;
pub mod ledger;
pub mod log;
pub mod metrics;
pub mod prof;
pub mod slo;

use metrics::Registry;
use std::sync::Arc;

/// Cheap-clone observability handle; disabled handles no-op everywhere.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Option<Arc<Registry>>,
}

impl Obs {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Obs { registry: None }
    }

    /// A fresh enabled handle with its own registry.
    pub fn enabled() -> Self {
        Obs { registry: Some(Arc::new(Registry::new())) }
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The metrics registry, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_deref()
    }

    /// Adds `n` to counter `name` (registered with `help` on first use).
    pub fn add(&self, name: &str, help: &str, n: u64) {
        if let Some(r) = &self.registry {
            r.counter(name, help).add(n);
        }
    }

    /// Adds one to counter `name`.
    pub fn inc(&self, name: &str, help: &str) {
        self.add(name, help, 1);
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, help: &str, v: f64) {
        if let Some(r) = &self.registry {
            r.gauge(name, help).set(v);
        }
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&self, name: &str, help: &str, v: f64) {
        if let Some(r) = &self.registry {
            r.histogram(name, help).observe(v);
        }
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
        assert!(!obs.is_enabled());
        assert!(obs.registry().is_none());
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
}
