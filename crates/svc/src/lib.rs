//! # ocelot-svc — the Ocelot transfer *service*
//!
//! The core crates model one pipeline at a time; real deployments run a
//! long-lived service that many science projects share. This crate adds
//! that layer: a multi-tenant job queue with round-robin fairness and
//! bounded backpressure, a concurrent worker pool driving
//! [`ocelot::orchestrator::Orchestrator`] pipelines, service-owned retries
//! with exponential backoff over a faulty WAN
//! ([`ocelot_netsim::FaultModel`]), an append-only lifecycle journal, and
//! aggregate metrics that serialize to JSON.
//!
//! Phase-2 observability rides on the same service: every job's run commits
//! one schedule to the service's chunk ledger, [`analyze`] groups the
//! critical-path reports attributed from them into per-job/per-tenant
//! bottleneck reports and an advisory scheduler hint, [`forensics`] assembles
//! self-contained post-mortem dumps from the journal and the job's schedule
//! on failures and SLO breaches, and the journal interleaves
//! [`journal::AlertRecord`]s with job transitions.
//!
//! ```
//! use ocelot_svc::{JobSpec, Service, ServiceConfig};
//! use ocelot_datagen::Application;
//! use ocelot_netsim::SiteId;
//!
//! let svc = Service::start(ServiceConfig::default());
//! let id = svc
//!     .submit(JobSpec::compressed("climate", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Cori))
//!     .unwrap();
//! svc.drain();
//! let metrics = svc.metrics();
//! assert_eq!(metrics.jobs_done, 1);
//! println!("{id}: {}", serde_json::to_string(&metrics).unwrap());
//! ```

pub mod analyze;
pub mod forensics;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod queue;
pub mod retry;
pub mod scheduler;
pub mod schema;

pub use analyze::{BottleneckSummary, JobAnalysis, SchedulerHint, ServiceAnalysis};
pub use forensics::{ledger_json, render_postmortem, DumpError, FlightDump, LedgerEventRecord};
pub use job::{JobId, JobReport, JobSpec, JobState};
pub use journal::{AlertRecord, Event, Journal};
pub use metrics::{MetricsSnapshot, TenantStats};
pub use queue::{SubmitError, TenantQueue};
pub use retry::RetryPolicy;
pub use scheduler::{Service, ServiceConfig};
