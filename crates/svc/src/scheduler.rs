//! The transfer service: worker pool, admission, retries, accounting.
//!
//! [`Service::start`] spawns a pool of OS worker threads that pop jobs from
//! the shared [`TenantQueue`] and drive each through
//! [`ocelot::orchestrator::Orchestrator::run`]. The WAN may be
//! faulty ([`ServiceConfig::faults`]); the *service* owns retries — every
//! attempt runs with the fault model's in-transfer retries disabled
//! (`max_retries: 0`), and files that fail are re-offered in later rounds
//! after exponential backoff ([`RetryPolicy`]), Globus-style: compression
//! is not redone and delivered files are not resent.
//!
//! Time is two-layered. Pipeline durations and backoffs are *simulated*
//! seconds (deterministic, journaled); the worker threads really sleep
//! `backoff × sleep_scale` wall-clock seconds, with `sleep_scale = 0`
//! making tests instantaneous.

use crate::analyze::{build_analysis, derive_hint, BottleneckSummary, SchedulerHint, ServiceAnalysis};
use crate::forensics::{ledger_tail, slugify, FlightDump, DUMP_VERSION};
use crate::job::{JobId, JobReport, JobSpec, JobState};
use crate::journal::{AlertRecord, Event, Journal};
use crate::metrics::{throughput_bps, MetricsSnapshot, TenantStats};
use crate::queue::{SubmitError, TenantQueue};
use crate::retry::RetryPolicy;
use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload;
use ocelot_datagen::Application;
use ocelot_netsim::{simulate_transfer_with_faults, FaultModel, GridFtpConfig};
use ocelot_obs::critpath::{self, Attribution, BottleneckReport};
use ocelot_obs::ledger::{LedgerEvent, RetryRound, Schedule};
use ocelot_obs::metrics::{Counter, Gauge, Histogram};
use ocelot_obs::slo::{SloEngine, SloRule};
use ocelot_obs::Obs;
use ocelot_sz::LossyConfig;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning for one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads processing jobs concurrently.
    pub workers: usize,
    /// Queue capacity across all tenants (backpressure bound).
    pub queue_capacity: usize,
    /// WAN fault injection; `max_retries` is ignored (the service owns the
    /// retry budget via `retry`).
    pub faults: FaultModel,
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// GridFTP tuning for every transfer.
    pub gridftp: GridFtpConfig,
    /// Profiling scale for workload construction (smaller = faster).
    pub profile_scale: usize,
    /// Wall-clock seconds really slept per simulated backoff second
    /// (0 = don't sleep, used in tests; 1 = real time).
    pub sleep_scale: f64,
    /// Base seed; each job derives its own stream from this and its id.
    pub seed: u64,
    /// Observability handle shared with the orchestrator and exporters.
    /// `None` gives the service a private enabled handle (metrics always
    /// work); pass an explicit handle to share one registry with the CLI.
    pub obs: Option<Obs>,
    /// Declarative SLO rules, evaluated after every finished job on the
    /// cumulative simulated clock. Each alert snaps a flight dump.
    pub slo: Vec<SloRule>,
    /// Directory flight dumps are written into (`None` keeps them
    /// in-memory only; see [`Service::flight_dumps`]).
    pub artifact_dir: Option<PathBuf>,
    /// Chunk-parallel codec threads per file in every job's compression and
    /// decompression phases (the CLI's `--codec-threads` flag).
    pub codec_threads: usize,
    /// Bounded in-flight chunk window for streamed jobs (the CLI's
    /// `--stream-window` flag). `0` keeps the staged pipeline; `> 0` runs
    /// [`Strategy::Compressed`] jobs as [`Strategy::Pipelined`] with this
    /// window (compress → ship → decompress overlapped, faults injected per
    /// chunk).
    pub stream_window: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            faults: FaultModel::none(),
            retry: RetryPolicy::default(),
            gridftp: GridFtpConfig::default(),
            profile_scale: 8,
            sleep_scale: 0.0,
            seed: 0xC0FFEE,
            obs: None,
            slo: Vec::new(),
            artifact_dir: None,
            codec_threads: 1,
            stream_window: 0,
        }
    }
}

/// Cached registry handles for the service's counters: the journal and the
/// [`MetricsSnapshot`] both read the same registry, and increments happen
/// adjacent to the journal records they describe.
#[derive(Debug)]
struct SvcMetrics {
    jobs_submitted: Arc<Counter>,
    jobs_rejected: Arc<Counter>,
    jobs_done: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    transfer_retries: Arc<Counter>,
    bytes_transferred: Arc<Counter>,
    bytes_saved: Arc<Counter>,
    wasted_bytes: Arc<Counter>,
    latency: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    recommended_workers: Arc<Gauge>,
}

impl SvcMetrics {
    fn new(obs: &Obs) -> Self {
        let reg = obs.registry().expect("service obs handle must be enabled");
        SvcMetrics {
            jobs_submitted: reg.counter("ocelot_svc_jobs_submitted_total", "Jobs accepted into the queue"),
            jobs_rejected: reg.counter("ocelot_svc_jobs_rejected_total", "Submissions refused (full or closed)"),
            jobs_done: reg.counter("ocelot_svc_jobs_done_total", "Jobs that delivered every file"),
            jobs_failed: reg.counter("ocelot_svc_jobs_failed_total", "Jobs that exhausted their retry budget"),
            transfer_retries: reg.counter("ocelot_svc_transfer_retries_total", "Failed transfer attempts re-offered"),
            bytes_transferred: reg.counter("ocelot_svc_bytes_transferred_total", "Payload bytes delivered"),
            bytes_saved: reg.counter("ocelot_svc_bytes_saved_total", "Raw bytes avoided by compression"),
            wasted_bytes: reg.counter("ocelot_svc_wasted_bytes_total", "Bytes moved by attempts that later failed"),
            latency: reg.histogram("ocelot_svc_latency_seconds", "Simulated end-to-end latency of finished jobs"),
            queue_depth: reg.gauge("ocelot_svc_queue_depth", "Jobs currently queued"),
            in_flight: reg.gauge("ocelot_svc_in_flight", "Jobs currently being processed"),
            recommended_workers: reg
                .gauge("ocelot_svc_recommended_workers", "Advisory pool size from critical-path analysis"),
        }
    }
}

/// Mutable state shared by submitters and workers under one lock, so
/// `drain` can observe "queue empty AND nothing in flight" atomically.
#[derive(Debug)]
struct Inner {
    queue: TenantQueue,
    in_flight: usize,
    per_tenant: HashMap<String, TenantStats>,
    reports: Vec<JobReport>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signals workers that a job was queued or the queue closed.
    work_ready: Condvar,
    /// Signals `drain` that a job finished.
    job_finished: Condvar,
    journal: Journal,
    /// Workload construction is expensive (profiling really compresses
    /// data); share one instance per (app, error-bound) across jobs.
    workloads: Mutex<HashMap<(Application, u64), Arc<Workload>>>,
    orchestrator: Orchestrator,
    config: ServiceConfig,
    /// Always-enabled observability handle (the snapshot is built from its
    /// registry, so the service cannot run blind).
    obs: Obs,
    metrics: SvcMetrics,
    /// SLO engine, ticked on the cumulative simulated clock after every
    /// finished job.
    slo: Mutex<SloEngine>,
    /// Running sum of every finished job's critical-path report; feeds the
    /// advisory scheduler hint.
    bottlenecks: Mutex<critpath::Aggregate>,
    /// Latest advisory hint derived from the running sum.
    hint: Mutex<Option<SchedulerHint>>,
    /// Flight dumps snapped so far (also written to `artifact_dir`).
    dumps: Mutex<Vec<FlightDump>>,
    /// Names dump files `flight-<n>-<slug>.json`.
    dump_counter: AtomicU64,
    /// Worst PSNR delivered so far (drives the quality gauge lazily, so a
    /// PSNR-floor SLO stays skipped until the first job completes).
    worst_psnr: Mutex<f64>,
    /// Wall-clock origin of the commit stamps.
    started: Instant,
    /// Every job's history, filed when the job settles.
    store: Mutex<ChunkStore>,
    /// The newest [`WARNINGS_KEPT`] artifact-write failures, oldest first;
    /// every flight dump carries them.
    warnings: Mutex<VecDeque<String>>,
}

/// Artifact-write failures a service keeps for its flight dumps.
const WARNINGS_KEPT: usize = 16;

/// Jobs whose schedules the service keeps in memory. A streamed job leaves
/// its schedule (72 bytes a chunk: half a megabyte for a 7 137-chunk CESM
/// job); kept for every job a long-lived service grows without bound,
/// and once its pages no longer come out of what the allocator already
/// holds every job pays for fresh ones. Older jobs' events are dropped —
/// `persist_ledger` has written them out by then when an artifact directory
/// is configured.
const LEDGER_JOBS_KEPT: usize = 32;

/// The service's one job store. Each job that ran its pipeline is filed
/// once, when it settles: its schedule numbered from the store's one
/// sequence counter, so kept jobs' ranges are contiguous, disjoint and in
/// commit order, and attributed once. The newest [`LEDGER_JOBS_KEPT`] keep
/// the schedule (widened into events only when read) beside its
/// attribution; every job keeps its critical-path report and retransmit
/// count, which `analyze`, the hint and flight dumps read. A reader that
/// widens a schedule into events clones its `Arc` under the lock and
/// widens after the guard drops, so a 67 000-event job never holds up a
/// worker's `commit`.
struct ChunkStore {
    /// Sequence number of the next filed schedule's `job_begin`.
    next_seq: u64,
    /// The newest jobs' schedules and attributions, oldest first.
    kept: VecDeque<(Arc<Schedule>, Attribution)>,
    /// Every filed job's report and retransmits, by job.
    settled: BTreeMap<u64, (BottleneckReport, u64)>,
}

impl ChunkStore {
    fn new() -> ChunkStore {
        ChunkStore { next_seq: 1, kept: VecDeque::new(), settled: BTreeMap::new() }
    }

    fn file(&mut self, schedule: Schedule, attribution: Attribution, t_wall_us: u64) {
        let schedule = schedule.numbered(self.next_seq, t_wall_us);
        self.next_seq += schedule.len() as u64;
        self.settled.insert(schedule.job(), (attribution.report.clone(), schedule.retransmits()));
        if self.kept.len() == LEDGER_JOBS_KEPT {
            self.kept.pop_front();
        }
        self.kept.push_back((Arc::new(schedule), attribution));
    }

    fn kept(&self, job: u64) -> Option<&(Arc<Schedule>, Attribution)> {
        self.kept.iter().find(|(schedule, _)| schedule.job() == job)
    }

    /// The kept schedule of `job`, to widen once the store's lock is released.
    fn schedule(&self, job: JobId) -> Option<Arc<Schedule>> {
        self.kept(job.0).map(|(schedule, _)| Arc::clone(schedule))
    }
}

/// A running transfer service.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Service {
    /// Starts a service on the paper's three-site testbed.
    pub fn start(config: ServiceConfig) -> Self {
        Service::with_orchestrator(Orchestrator::paper(), config)
    }

    /// Starts a service on a custom topology.
    pub fn with_orchestrator(orchestrator: Orchestrator, config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        let obs = match &config.obs {
            Some(h) if h.is_enabled() => h.clone(),
            _ => Obs::enabled(),
        };
        let metrics = SvcMetrics::new(&obs);
        metrics.recommended_workers.set(config.workers as f64);
        let slo = Mutex::new(SloEngine::new(config.slo.clone()));
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: TenantQueue::new(config.queue_capacity),
                in_flight: 0,
                per_tenant: HashMap::new(),
                reports: Vec::new(),
            }),
            work_ready: Condvar::new(),
            job_finished: Condvar::new(),
            journal: Journal::new(),
            workloads: Mutex::new(HashMap::new()),
            orchestrator: orchestrator.with_obs(obs.clone()),
            config,
            obs,
            metrics,
            slo,
            bottlenecks: Mutex::new(critpath::Aggregate::default()),
            hint: Mutex::new(None),
            dumps: Mutex::new(Vec::new()),
            dump_counter: AtomicU64::new(0),
            worst_psnr: Mutex::new(f64::INFINITY),
            started: Instant::now(),
            store: Mutex::new(ChunkStore::new()),
            warnings: Mutex::new(VecDeque::new()),
        });
        let workers = (0..shared.config.workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Service { shared, workers, next_id: AtomicU64::new(0) }
    }

    /// Submits a job, returning its id.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under backpressure, [`SubmitError::Closed`]
    /// after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let tenant = spec.tenant.clone();
        {
            let mut inner = self.shared.inner.lock().expect("service poisoned");
            if let Err(e) = inner.queue.push(id, spec) {
                self.shared.metrics.jobs_rejected.inc();
                return Err(e);
            }
            self.shared.metrics.jobs_submitted.inc();
            self.shared.metrics.queue_depth.set(inner.queue.len() as f64);
            inner.per_tenant.entry(tenant.clone()).or_default().submitted += 1;
            // Journaled before the lock is released: a worker can claim the
            // job only after that, so `Queued` is always its first event.
            self.shared.journal.record(id, &tenant, 0.0, JobState::Queued);
        }
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// Blocks until every queued and in-flight job reaches a terminal
    /// state. New submissions remain possible afterwards.
    pub fn drain(&self) {
        let mut inner = self.shared.inner.lock().expect("service poisoned");
        while !inner.queue.is_empty() || inner.in_flight > 0 {
            inner = self.shared.job_finished.wait(inner).expect("service poisoned");
        }
    }

    /// Closes the queue, drains remaining work, and joins the workers.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        {
            let mut inner = self.shared.inner.lock().expect("service poisoned");
            inner.queue.close();
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            handle.join().expect("worker panicked");
        }
        self.metrics()
    }

    /// Current aggregate metrics, read from the shared obs registry (the
    /// same counters the Prometheus/JSON exporters expose).
    pub fn metrics(&self) -> MetricsSnapshot {
        let inner = self.shared.inner.lock().expect("service poisoned");
        let m = &self.shared.metrics;
        let bytes_transferred = m.bytes_transferred.get();
        let sim_seconds = m.latency.sum();
        MetricsSnapshot {
            jobs_submitted: m.jobs_submitted.get(),
            jobs_rejected: m.jobs_rejected.get(),
            jobs_done: m.jobs_done.get(),
            jobs_failed: m.jobs_failed.get(),
            queue_depth: inner.queue.len(),
            in_flight: inner.in_flight,
            transfer_retries: m.transfer_retries.get(),
            bytes_transferred,
            bytes_saved: m.bytes_saved.get(),
            wasted_bytes: m.wasted_bytes.get(),
            sim_seconds,
            throughput_bps: throughput_bps(bytes_transferred, sim_seconds),
            latency_p50_s: m.latency.percentile(0.50),
            latency_p90_s: m.latency.percentile(0.90),
            latency_p95_s: m.latency.percentile(0.95),
            latency_p99_s: m.latency.percentile(0.99),
            per_tenant: inner.per_tenant.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }

    /// The service's observability handle (always enabled): use it to export
    /// Prometheus text, metrics JSON, or Chrome traces of processed jobs.
    pub fn obs(&self) -> Obs {
        self.shared.obs.clone()
    }

    /// A copy of the lifecycle journal.
    pub fn journal(&self) -> Vec<Event> {
        self.shared.journal.snapshot()
    }

    /// Final reports of finished jobs, in completion order.
    pub fn reports(&self) -> Vec<JobReport> {
        self.shared.inner.lock().expect("service poisoned").reports.clone()
    }

    /// Critical-path analysis of every processed job: per-job and
    /// per-tenant bottleneck reports (each job's attributed once, when it
    /// settled) plus the advisory scheduler hint and per-tenant
    /// chunk-retransmit totals from the jobs' schedules.
    pub fn analyze(&self) -> ServiceAnalysis {
        let store = self.shared.store.lock().expect("job store poisoned");
        let reports: Vec<BottleneckReport> = store.settled.values().map(|(report, _)| report.clone()).collect();
        let tenants: HashMap<u64, String> =
            self.shared.journal.snapshot().into_iter().map(|e| (e.job.0, e.tenant)).collect();
        let mut analysis = build_analysis(&reports, &tenants, self.shared.config.workers, self.shared.obs.registry());
        for (job, &(_, retries)) in store.settled.iter().filter(|(_, (_, retries))| *retries > 0) {
            let tenant = tenants.get(job).cloned().unwrap_or_else(|| format!("job-{job}"));
            *analysis.chunk_retries.entry(tenant).or_insert(0) += retries;
        }
        analysis
    }

    /// Chunk-lifecycle events of one job, ordered by sequence number. Every
    /// job that ran its pipeline committed one schedule:
    /// streamed jobs trace every chunk, staged jobs every transfer unit that
    /// arrived (file grain). Empty for a job that never ran (an unknown
    /// application). The service keeps the events of its most recent 32
    /// jobs; an older job's are in its `ledger-<job>.json` (see
    /// [`ServiceConfig::artifact_dir`]).
    pub fn chunk_events(&self, job: JobId) -> Vec<LedgerEvent> {
        chunk_events(&self.shared, job)
    }

    /// The critical path of `job`, attributed from its schedule when it
    /// settled — `None` when the service no longer keeps it (it keeps its
    /// most recent 32) or the job never ran its pipeline. `ocelot timeline`
    /// heads its chart with it.
    pub fn attribution(&self, job: JobId) -> Option<Attribution> {
        self.shared.store.lock().expect("job store poisoned").kept(job.0).map(|(_, a)| a.clone())
    }

    /// The critical path of every job whose schedule the service still
    /// keeps (its most recent 32), ascending by job id — what `ocelot trace`
    /// renders.
    pub fn critical_paths(&self) -> Vec<Attribution> {
        let store = self.shared.store.lock().expect("job store poisoned");
        let mut kept: Vec<&(Arc<Schedule>, Attribution)> = store.kept.iter().collect();
        kept.sort_unstable_by_key(|(schedule, _)| schedule.job());
        kept.into_iter().map(|(_, a)| a.clone()).collect()
    }

    /// Latest advisory scheduling hint (updated after every finished job;
    /// also mirrored into the `ocelot_svc_recommended_workers` gauge).
    pub fn hint(&self) -> Option<SchedulerHint> {
        self.shared.hint.lock().expect("hint poisoned").clone()
    }

    /// SLO alerts journaled so far.
    pub fn alerts(&self) -> Vec<AlertRecord> {
        self.shared.journal.alerts()
    }

    /// Flight dumps snapped so far (failures, retry exhaustion, SLO
    /// breaches, forced).
    pub fn flight_dumps(&self) -> Vec<FlightDump> {
        self.shared.dumps.lock().expect("dumps poisoned").clone()
    }

    /// Assembles a flight dump right now, optionally scoped to one job. Used
    /// by `ocelot postmortem` when no failure-triggered dump exists. A
    /// job-scoped dump reads the job's own clock (its last journal time); a
    /// service-scoped one the cumulative simulated clock SLOs tick on.
    pub fn force_flight_dump(&self, reason: &str, job: Option<JobId>) -> FlightDump {
        let journal = job.map(|j| self.shared.journal.events_for(j)).unwrap_or_default();
        let tenant = journal.first().map(|e| e.tenant.clone());
        let t_s = journal.last().map_or_else(|| self.shared.metrics.latency.sum(), |e| e.t_s);
        snap_dump(&self.shared, reason, job, tenant.as_deref(), t_s)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("service poisoned");
            inner.queue.close();
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut inner = shared.inner.lock().expect("service poisoned");
            loop {
                if let Some(job) = inner.queue.pop() {
                    inner.in_flight += 1;
                    shared.metrics.queue_depth.set(inner.queue.len() as f64);
                    shared.metrics.in_flight.set(inner.in_flight as f64);
                    break Some(job);
                }
                if inner.queue.is_closed() {
                    break None;
                }
                inner = shared.work_ready.wait(inner).expect("service poisoned");
            }
        };
        let Some((id, spec)) = job else { return };
        let report = process_job(shared, id, &spec);
        persist_ledger(shared, id);
        let m = &shared.metrics;
        let mut inner = shared.inner.lock().expect("service poisoned");
        let tenant = inner.per_tenant.entry(spec.tenant.clone()).or_default();
        match report.state {
            JobState::Done => {
                tenant.done += 1;
                tenant.retries += u64::from(report.retries);
                m.jobs_done.inc();
            }
            JobState::Failed(_) => {
                tenant.failed += 1;
                tenant.retries += u64::from(report.retries);
                m.jobs_failed.inc();
            }
            ref other => unreachable!("non-terminal report state {other:?}"),
        }
        m.transfer_retries.add(u64::from(report.retries));
        m.bytes_transferred.add(report.bytes_transferred);
        m.bytes_saved.add(report.bytes_saved);
        m.wasted_bytes.add(report.wasted_bytes);
        // Exemplar: the latency bucket remembers this job, so a p99 outlier
        // in the export points at a concrete job id.
        m.latency.observe_exemplar(report.latency_s, id.0);
        inner.reports.push(report);
        drop(inner);
        // The hint refresh and SLO tick must land before this job stops
        // counting as in flight: `drain` returns once `in_flight` hits 0,
        // and callers expect a finished job's breach alert and flight dump
        // to be visible by then.
        refresh_hint(shared, id);
        tick_slo(shared);
        let mut inner = shared.inner.lock().expect("service poisoned");
        inner.in_flight -= 1;
        m.in_flight.set(inner.in_flight as f64);
        drop(inner);
        shared.job_finished.notify_all();
    }
}

/// Folds the finished job's critical-path report into the running sum and
/// refreshes the advisory hint (and its gauge) from it.
fn refresh_hint(shared: &Shared, id: JobId) {
    let report = shared.store.lock().expect("job store poisoned").settled.get(&id.0).map(|(r, _)| r.clone());
    let Some(report) = report else { return };
    let agg = {
        let mut sum = shared.bottlenecks.lock().expect("bottleneck sum poisoned");
        sum.add(&report);
        sum.report().expect("one report was just added")
    };
    let hint = derive_hint(&agg, shared.config.workers, shared.obs.registry());
    shared.metrics.recommended_workers.set(hint.recommended_workers as f64);
    *shared.hint.lock().expect("hint poisoned") = Some(hint);
}

/// Ticks the SLO engine on the cumulative simulated clock. Every alert is
/// journaled with a flight dump snapped at breach time.
fn tick_slo(shared: &Shared) {
    let Some(registry) = shared.obs.registry() else { return };
    // Cumulative simulated seconds processed: monotone and deterministic,
    // unlike wall time under `sleep_scale = 0`.
    let now_s = shared.metrics.latency.sum();
    let alerts = shared.slo.lock().expect("slo poisoned").tick(registry, now_s);
    for alert in alerts {
        let reason = format!("slo:{}", alert.rule);
        let idx = shared.dump_counter.fetch_add(1, Ordering::Relaxed);
        let file = format!("flight-{idx}-{}.json", slugify(&reason));
        // Journal first so the dump's own alert list includes this breach.
        shared.journal.record_alert(&alert, Some(file.clone()));
        write_dump(shared, file, &reason, None, None, alert.t_s);
    }
}

/// The events of `job`'s kept schedule, widened after the job store's lock
/// is released (empty when the store no longer keeps it).
fn chunk_events(shared: &Shared, job: JobId) -> Vec<LedgerEvent> {
    let schedule = shared.store.lock().expect("job store poisoned").schedule(job);
    schedule.map(|schedule| schedule.events()).unwrap_or_default()
}

/// Writes `ledger-<job>.json` next to the flight dumps once a job reaches a
/// terminal state, when it produced chunk events and an artifact directory
/// is configured. The export validates against `schemas/ledger.schema.json`.
fn persist_ledger(shared: &Shared, id: JobId) {
    let Some(dir) = &shared.config.artifact_dir else { return };
    let events = chunk_events(shared, id);
    if events.is_empty() {
        return;
    }
    let file = format!("ledger-{}.json", id.0);
    write_artifact(shared, dir, &file, "chunk ledger", crate::forensics::ledger_json(id.0, &events));
}

/// Writes `file` into the artifact directory `dir`. A directory that cannot
/// be created or a file that cannot be written is warned about on stderr
/// and kept among the service's warnings, so later dumps carry it.
fn write_artifact(shared: &Shared, dir: &Path, file: &str, what: &str, contents: String) {
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(file), contents));
    if let Err(e) = written {
        let message = format!("failed to write {what} {file}: {e}");
        ocelot_obs::warn!("svc", "{message}");
        let mut warnings = shared.warnings.lock().expect("warnings poisoned");
        if warnings.len() == WARNINGS_KEPT {
            warnings.pop_front();
        }
        warnings.push_back(message);
    }
}

/// Assembles a named dump, stores it, and (when an artifact directory is
/// configured) writes it to disk.
fn snap_dump(shared: &Shared, reason: &str, job: Option<JobId>, tenant: Option<&str>, t_s: f64) -> FlightDump {
    let idx = shared.dump_counter.fetch_add(1, Ordering::Relaxed);
    let file = format!("flight-{idx}-{}.json", slugify(reason));
    write_dump(shared, file, reason, job, tenant, t_s)
}

fn write_dump(
    shared: &Shared,
    file: String,
    reason: &str,
    job: Option<JobId>,
    tenant: Option<&str>,
    t_s: f64,
) -> FlightDump {
    let (ledger, attribution) = {
        let store = shared.store.lock().expect("job store poisoned");
        let tail = job.and_then(|j| store.kept(j.0)).map(|(schedule, _)| ledger_tail(schedule));
        (tail.unwrap_or_default(), job.and_then(|j| store.settled.get(&j.0)).map(|(r, _)| BottleneckSummary::from(r)))
    };
    let dump = FlightDump {
        version: DUMP_VERSION,
        file: file.clone(),
        reason: reason.to_string(),
        job: job.map(|j| j.0),
        tenant: tenant.map(str::to_string),
        t_s,
        warnings: shared.warnings.lock().expect("warnings poisoned").iter().cloned().collect(),
        attribution,
        alerts: shared.journal.alerts(),
        journal: shared.journal.snapshot(),
        ledger,
    };
    if let Some(dir) = &shared.config.artifact_dir {
        if let Ok(json) = serde_json::to_string_pretty(&dump) {
            write_artifact(shared, dir, &file, "flight dump", json);
        }
    }
    shared.dumps.lock().expect("dumps poisoned").push(dump.clone());
    dump
}

/// Drives one job from admission to a terminal state, journaling every
/// transition. Never panics on job-level errors — they become `Failed`.
fn process_job(shared: &Shared, id: JobId, spec: &JobSpec) -> JobReport {
    let cfg = &shared.config;
    let obs = &shared.obs;
    shared.journal.record(id, &spec.tenant, 0.0, JobState::Admitted);

    let fail = |t_s: f64, reason: String| -> JobReport {
        shared.journal.record(id, &spec.tenant, t_s, JobState::Failed(reason.clone()));
        JobReport {
            job: id,
            tenant: spec.tenant.clone(),
            state: JobState::Failed(reason),
            latency_s: t_s,
            bytes_transferred: 0,
            bytes_saved: 0,
            retries: 0,
            wasted_bytes: 0,
        }
    };

    shared.journal.record(id, &spec.tenant, 0.0, JobState::Compressing);
    let workload = match cached_workload(shared, spec.app, spec.error_bound) {
        Ok(w) => w,
        Err(reason) => {
            let report = fail(0.0, reason);
            snap_dump(shared, "job_failed", Some(id), Some(&spec.tenant), 0.0);
            return report;
        }
    };

    // Each attempt gets one try per file; the retry loop below owns the
    // budget (Globus semantics: the service re-offers failed files).
    let job_seed = cfg.seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let single_try = FaultModel { max_retries: 0, ..cfg.faults };
    let opts = PipelineOptions {
        gridftp: cfg.gridftp,
        faults: single_try,
        seed: job_seed,
        job: Some(id.0),
        codec_threads: cfg.codec_threads.max(1),
        ..PipelineOptions::default()
    };
    // With a stream window, plain compressed jobs stream chunks, which
    // injects `opts.faults` per chunk (every chunk arrives in the end);
    // everything else keeps its strategy.
    let strategy = match spec.strategy {
        Strategy::Compressed if cfg.stream_window > 0 => Strategy::Pipelined { window: cfg.stream_window },
        s => s,
    };
    let mut outcome = shared.orchestrator.run(&workload, spec.from, spec.to, strategy, &opts);
    let schedule = outcome.schedule.take().expect("a run with a job has a schedule");
    shared.journal.record(id, &spec.tenant, outcome.transfer_begin_s, JobState::Transferring);

    let mut t_s = outcome.transfer_end_s;
    let mut retries = outcome.transfer_retries as u32;
    let mut bytes_transferred = outcome.breakdown.bytes_transferred;
    let mut wasted_bytes = outcome.wasted_bytes;
    let mut pending: Vec<u64> = outcome.failed_files.iter().map(|&i| outcome.transfer_sizes[i]).collect();

    let link = shared.orchestrator.topology().route(spec.from, spec.to).link;
    let mut rounds: Vec<RetryRound> = Vec::new();
    for round in 1..=cfg.retry.retry_budget() {
        if pending.is_empty() {
            break;
        }
        shared.journal.record(id, &spec.tenant, t_s, JobState::Retrying(round));
        let round_start = t_s;
        let backoff = cfg.retry.backoff_s(round, job_seed);
        if cfg.sleep_scale > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(backoff * cfg.sleep_scale));
        }
        t_s += backoff;
        let backoff_end = t_s;
        let rerun = simulate_transfer_with_faults(
            &pending,
            &link,
            &cfg.gridftp,
            &single_try,
            job_seed.wrapping_add(round as u64),
        );
        t_s += rerun.report.duration_s;
        retries += rerun.retries as u32;
        bytes_transferred += rerun.report.bytes_total;
        wasted_bytes += rerun.wasted_bytes;
        pending = rerun.failed_files.iter().map(|&i| pending[i]).collect();
        rounds.push(RetryRound { start_s: round_start, backoff_end_s: backoff_end, end_s: t_s });
    }
    let delivered = pending.is_empty();
    commit(shared, schedule.with_rounds(rounds, delivered));

    // A job that gave up ends with its last round: nothing is decoded.
    if !delivered {
        let reason = format!(
            "{} of {} files undelivered after {} attempts",
            pending.len(),
            outcome.transfer_sizes.len(),
            cfg.retry.max_attempts
        );
        let mut report = fail(t_s, reason);
        report.bytes_transferred = bytes_transferred;
        report.retries = retries;
        report.wasted_bytes = wasted_bytes;
        snap_dump(shared, "retry_exhausted", Some(id), Some(&spec.tenant), t_s);
        return report;
    }

    t_s += outcome.breakdown.decompression_s;
    shared.journal.record(id, &spec.tenant, t_s, JobState::Done);
    // Delivered quality: the worst per-file PSNR so far drives a lazily
    // registered gauge, so a PSNR-floor SLO only judges completed work.
    {
        let mut worst = shared.worst_psnr.lock().expect("psnr poisoned");
        let job_worst = workload.min_psnr();
        if job_worst < *worst {
            *worst = job_worst;
        }
        if worst.is_finite() {
            obs.set_gauge("ocelot_svc_worst_psnr_db", "Worst per-file PSNR delivered so far", *worst);
        }
    }
    let raw_bytes = workload.total_bytes();
    JobReport {
        job: id,
        tenant: spec.tenant.clone(),
        state: JobState::Done,
        latency_s: t_s,
        bytes_transferred,
        bytes_saved: raw_bytes.saturating_sub(bytes_transferred),
        retries,
        wasted_bytes,
    }
}

/// Files a job's finished schedule in the job store, attributed once and
/// stamped with the commit's wall time (microseconds since the service
/// started).
fn commit(shared: &Shared, schedule: Schedule) {
    let t_wall_us = shared.started.elapsed().as_micros() as u64;
    let attribution = critpath::attribute(&schedule);
    shared.store.lock().expect("job store poisoned").file(schedule, attribution, t_wall_us);
}

/// Fetches or builds the shared workload for `(app, error_bound)`.
fn cached_workload(shared: &Shared, app: Application, error_bound: f64) -> Result<Arc<Workload>, String> {
    let key = (app, error_bound.to_bits());
    if let Some(w) = shared.workloads.lock().expect("workload cache poisoned").get(&key) {
        return Ok(w.clone());
    }
    // Build outside the lock: profiling really compresses data and can take
    // a while; racing builders waste a little work but never block others.
    let config = LossyConfig::sz3(error_bound);
    let built = match app {
        Application::Cesm => Workload::cesm(config, shared.config.profile_scale),
        Application::Rtm => Workload::rtm(config, shared.config.profile_scale),
        Application::Miranda => Workload::miranda(config, shared.config.profile_scale),
        other => return Err(format!("no transfer workload for application {other}")),
    };
    let workload = Arc::new(built.map_err(|e| format!("workload construction failed: {e}"))?);
    let mut cache = shared.workloads.lock().expect("workload cache poisoned");
    Ok(cache.entry(key).or_insert(workload).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forensics::render_postmortem;
    use ocelot_netsim::SiteId;
    use ocelot_obs::ledger::EventKind;

    fn quick_config() -> ServiceConfig {
        ServiceConfig { workers: 2, profile_scale: 8, ..Default::default() }
    }

    fn miranda_job(tenant: &str) -> JobSpec {
        JobSpec::compressed(tenant, Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Cori)
    }

    #[test]
    fn healthy_job_completes_with_clean_lifecycle() {
        let svc = Service::start(quick_config());
        let id = svc.submit(miranda_job("climate")).unwrap();
        svc.drain();
        let states: Vec<JobState> = svc.shared.journal.events_for(id).into_iter().map(|e| e.state).collect();
        assert_eq!(
            states,
            vec![JobState::Queued, JobState::Admitted, JobState::Compressing, JobState::Transferring, JobState::Done]
        );
        let m = svc.metrics();
        assert_eq!(m.jobs_done, 1);
        assert_eq!(m.transfer_retries, 0);
        assert!(m.bytes_saved > 0, "compressed job must save bytes");
        assert!(m.latency_p50_s > 0.0);
    }

    #[test]
    fn workload_cache_is_shared_across_jobs() {
        let svc = Service::start(quick_config());
        for _ in 0..3 {
            svc.submit(miranda_job("climate")).unwrap();
        }
        svc.drain();
        assert_eq!(svc.shared.workloads.lock().unwrap().len(), 1);
        assert_eq!(svc.metrics().jobs_done, 3);
    }

    #[test]
    fn unsupported_app_fails_with_reason() {
        let svc = Service::start(quick_config());
        let id = svc.submit(JobSpec::compressed("t", Application::Hacc, 1e-3, SiteId::Anvil, SiteId::Cori)).unwrap();
        svc.drain();
        let last = svc.shared.journal.events_for(id).pop().unwrap();
        match last.state {
            JobState::Failed(reason) => assert!(reason.contains("workload"), "{reason}"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(svc.metrics().jobs_failed, 1);
    }

    #[test]
    fn backpressure_rejects_when_queue_is_full() {
        // One worker, capacity 2: flood faster than the worker drains.
        let cfg = ServiceConfig { workers: 1, queue_capacity: 2, ..Default::default() };
        let svc = Service::start(cfg);
        let mut rejected = 0;
        for _ in 0..20 {
            if svc.submit(miranda_job("flood")).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "capacity-2 queue must reject some of 20 rapid submissions");
        svc.drain();
        let m = svc.metrics();
        assert_eq!(m.jobs_rejected, rejected);
        assert_eq!(m.jobs_finished(), m.jobs_submitted);
    }

    #[test]
    fn streamed_jobs_finish_no_slower_than_staged() {
        let staged = Service::start(ServiceConfig { workers: 1, ..Default::default() });
        staged.submit(miranda_job("climate")).unwrap();
        let staged_m = staged.shutdown();
        let streamed =
            Service::start(ServiceConfig { workers: 1, stream_window: 8, codec_threads: 2, ..Default::default() });
        let id = streamed.submit(miranda_job("climate")).unwrap();
        streamed.drain();
        let states: Vec<JobState> = streamed.shared.journal.events_for(id).into_iter().map(|e| e.state).collect();
        assert!(states.contains(&JobState::Done), "streamed job must complete: {states:?}");
        let streamed_m = streamed.shutdown();
        assert_eq!(streamed_m.jobs_done, 1);
        assert!(
            streamed_m.latency_p50_s <= staged_m.latency_p50_s + 1e-6,
            "streamed {} vs staged {}",
            streamed_m.latency_p50_s,
            staged_m.latency_p50_s
        );
    }

    #[test]
    fn unwritable_artifact_dir_is_recorded_in_the_dump_warnings() {
        // A regular file where the artifact directory should be: creating
        // the directory fails, so the streamed job's ledger cannot be saved.
        let blocker = std::env::temp_dir().join(format!("ocelot-artifact-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let cfg = ServiceConfig { stream_window: 4, artifact_dir: Some(blocker.clone()), ..quick_config() };
        let svc = Service::start(cfg);
        let id = svc.submit(miranda_job("climate")).unwrap();
        svc.drain();
        let first = svc.force_flight_dump("postmortem", Some(id));
        let second = svc.force_flight_dump("postmortem", Some(id));
        std::fs::remove_file(&blocker).unwrap();
        assert_eq!(first.warnings.len(), 1, "{:?}", first.warnings);
        assert!(first.warnings[0].starts_with("failed to write chunk ledger ledger-0.json: "), "{:?}", first.warnings);
        // The first dump could not be written either, and the next one says so.
        assert_eq!(second.warnings.len(), 2, "{:?}", second.warnings);
        assert!(second.warnings[1].starts_with(&format!("failed to write flight dump {}: ", first.file)));
        assert!(render_postmortem(&second).contains("\nwarnings:\n  failed to write chunk ledger ledger-0.json: "));
    }

    #[test]
    fn the_written_ledger_is_the_jobs_chunk_events() {
        let dir = std::env::temp_dir().join(format!("ocelot-ledger-export-{}", std::process::id()));
        let cfg = ServiceConfig { stream_window: 4, artifact_dir: Some(dir.clone()), ..quick_config() };
        let svc = Service::start(cfg);
        let id = svc.submit(miranda_job("climate")).unwrap();
        svc.drain();
        let written = std::fs::read_to_string(dir.join(format!("ledger-{}.json", id.0)));
        std::fs::remove_dir_all(&dir).unwrap();
        let events = svc.chunk_events(id);
        assert!(events.len() > 2, "a streamed job traces its chunks");
        assert_eq!(written.unwrap(), crate::forensics::ledger_json(id.0, &events));
    }

    #[test]
    fn a_forced_job_dump_reads_the_jobs_own_clock() {
        let svc = Service::start(ServiceConfig { workers: 1, ..quick_config() });
        let first = svc.submit(miranda_job("a")).unwrap();
        svc.submit(JobSpec::compressed("b", Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Bebop)).unwrap();
        svc.drain();
        let reports = svc.reports();
        let dump = svc.force_flight_dump("postmortem", Some(first));
        assert_eq!(dump.t_s, reports[0].latency_s, "job 0's dump is on job 0's clock");
        assert_eq!(dump.t_s, dump.journal.iter().rfind(|e| e.job == first).unwrap().t_s);
        // A service-scoped dump keeps the cumulative clock SLOs tick on.
        let total = reports[0].latency_s + reports[1].latency_s;
        assert!((svc.force_flight_dump("postmortem", None).t_s - total).abs() <= 1e-9 * total);
    }

    #[test]
    fn shutdown_drains_and_joins() {
        let svc = Service::start(quick_config());
        svc.submit(miranda_job("a")).unwrap();
        svc.submit(miranda_job("b")).unwrap();
        let m = svc.shutdown();
        assert_eq!(m.jobs_finished(), 2);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.in_flight, 0);
    }

    #[test]
    fn flaky_wan_triggers_service_retries_that_still_deliver() {
        let cfg = ServiceConfig {
            workers: 2,
            faults: FaultModel { per_attempt_failure_prob: 0.05, max_retries: 5, reconnect_s: 2.0 },
            ..Default::default()
        };
        let svc = Service::start(cfg);
        for i in 0..4 {
            svc.submit(JobSpec::compressed(format!("t{i}"), Application::Miranda, 1e-3, SiteId::Anvil, SiteId::Bebop))
                .unwrap();
        }
        svc.drain();
        let m = svc.metrics();
        // Miranda has 768 files; at 5 % per-attempt failure some fail the
        // first offer, and P(fail 4 straight) ≈ 6e-6 means all deliver.
        assert_eq!(m.jobs_done, 4, "metrics: {m:?}");
        assert!(m.transfer_retries > 0);
        assert!(m.wasted_bytes > 0);
        let journal = svc.journal();
        assert!(journal.iter().any(|e| matches!(e.state, JobState::Retrying(_))));
    }

    #[test]
    fn retry_exhaustion_snaps_a_flight_dump() {
        // Every attempt fails, so the job burns its 2-attempt budget and the
        // service snaps a post-mortem dump.
        let cfg = ServiceConfig {
            workers: 1,
            faults: FaultModel { per_attempt_failure_prob: 1.0, max_retries: 1, reconnect_s: 1.0 },
            retry: RetryPolicy { max_attempts: 2, ..Default::default() },
            ..Default::default()
        };
        let svc = Service::start(cfg);
        let id = svc.submit(miranda_job("doomed")).unwrap();
        svc.drain();
        assert_eq!(svc.metrics().jobs_failed, 1);
        let dumps = svc.flight_dumps();
        assert_eq!(dumps.len(), 1, "one exhausted job → one dump");
        let dump = &dumps[0];
        assert_eq!(dump.reason, "retry_exhausted");
        assert_eq!(dump.job, Some(id.0));
        assert_eq!(dump.tenant.as_deref(), Some("doomed"));
        assert!(dump.journal.iter().any(|e| matches!(e.state, JobState::Failed(_))));
        let end = dump.ledger.last().expect("the dump embeds the job's schedule tail");
        assert_eq!((end.kind(), end.t_sim), (Some(EventKind::JobEnd), dump.t_s), "the job ends when it failed");
    }

    #[test]
    fn an_exhausted_job_ends_with_its_last_round_and_decodes_nothing() {
        let cfg = ServiceConfig {
            workers: 1,
            faults: FaultModel { per_attempt_failure_prob: 1.0, max_retries: 1, reconnect_s: 1.0 },
            retry: RetryPolicy { max_attempts: 3, jitter: 0.0, ..Default::default() },
            ..Default::default()
        };
        let svc = Service::start(cfg);
        let id = svc.submit(miranda_job("doomed")).unwrap();
        svc.drain();
        let report = svc.reports().pop().unwrap();
        assert!(matches!(report.state, JobState::Failed(_)));
        let rounds = svc.shared.store.lock().unwrap().kept(id.0).unwrap().0.rounds().to_vec();
        assert_eq!(rounds.len(), 2);
        let journal = svc.shared.journal.events_for(id);
        let last_retry = journal.iter().rev().find(|e| matches!(e.state, JobState::Retrying(_))).unwrap();
        assert_eq!(last_retry.t_s, rounds[1].start_s);
        assert_eq!(report.latency_s, rounds[1].end_s, "the job ends with its last round");
        assert_eq!(journal.last().unwrap().t_s, report.latency_s);
        // Its schedule holds the rounds, no decode, and ends when it failed.
        let events = svc.chunk_events(id);
        let at = |kind: EventKind| events.iter().filter(|e| e.event == kind).map(|e| e.t_sim).collect::<Vec<_>>();
        assert_eq!(at(EventKind::RetryBegin), rounds.iter().map(|r| r.start_s).collect::<Vec<_>>());
        assert_eq!(at(EventKind::RetryEnd), rounds.iter().map(|r| r.end_s).collect::<Vec<_>>());
        assert!(at(EventKind::DecodeBegin).is_empty() && at(EventKind::DecodeEnd).is_empty(), "nothing was decoded");
        assert_eq!(at(EventKind::JobEnd), [report.latency_s]);
        let analysis = svc.analyze();
        let attributed = &analysis.jobs[0].report;
        assert_eq!(attributed.stages["decompress"], 0.0, "a job that gave up decoded nothing");
        assert!((attributed.critical_path_s - report.latency_s).abs() <= 1e-6);
        assert_eq!(attributed.total_s, attributed.critical_path_s);
        let dump = &svc.flight_dumps()[0];
        assert_eq!(dump.attribution.as_ref(), Some(attributed));
    }

    #[test]
    fn slo_breach_emits_alert_referencing_a_dump() {
        use ocelot_obs::slo::{Severity, SloKind, SloRule};
        // A 1 ns latency target breaches on the second tick: the first tick
        // only seeds the baseline sample, and windows wide enough to reach
        // it make every later windowed p99 exceed the target.
        let cfg = ServiceConfig {
            workers: 1,
            slo: vec![SloRule {
                name: "latency-p99".to_string(),
                severity: Severity::Critical,
                fast_window_s: 1e6,
                slow_window_s: 1e6,
                kind: SloKind::LatencyP99 { histogram: "ocelot_svc_latency_seconds".to_string(), max_s: 1e-9 },
            }],
            profile_scale: 8,
            ..Default::default()
        };
        let svc = Service::start(cfg);
        svc.submit(miranda_job("climate")).unwrap();
        svc.submit(miranda_job("climate")).unwrap();
        svc.drain();
        let alerts = svc.alerts();
        assert_eq!(alerts.len(), 1, "rising edge fires exactly once: {alerts:?}");
        assert_eq!(alerts[0].severity, "critical");
        let file = alerts[0].flight_dump.as_deref().expect("alert must reference its dump");
        let dumps = svc.flight_dumps();
        assert!(dumps.iter().any(|d| d.file == file), "journal alert points at a snapped dump");
        let dump = dumps.iter().find(|d| d.file == file).unwrap();
        assert!(dump.reason.starts_with("slo:"));
        assert!(dump.alerts.iter().any(|a| a.rule == "latency-p99"), "dump embeds the triggering alert");
    }

    #[test]
    fn backoff_pressure_raises_the_recommended_worker_hint() {
        // Every attempt fails and the backoff is enormous, so retry backoff
        // (classified as queue wait) dominates the critical path and the
        // advisory hint asks for a bigger pool.
        let cfg = ServiceConfig {
            workers: 1,
            faults: FaultModel { per_attempt_failure_prob: 1.0, max_retries: 1, reconnect_s: 1.0 },
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_s: 500.0,
                max_backoff_s: 2000.0,
                jitter: 0.0,
                ..Default::default()
            },
            profile_scale: 8,
            ..Default::default()
        };
        let svc = Service::start(cfg);
        svc.submit(miranda_job("burst")).unwrap();
        svc.drain();
        let hint = svc.hint().expect("finished jobs must produce a hint");
        assert_eq!(hint.dominant, "queue_wait", "hint: {hint:?}");
        assert_eq!(hint.recommended_workers, 2);
        let analysis = svc.analyze();
        assert_eq!(analysis.jobs.len(), 1);
        assert!(analysis.per_tenant.contains_key("burst"));
        assert!(analysis.overall.unwrap().stages["queue_wait"] >= 500.0);
    }

    #[test]
    fn streamed_jobs_populate_the_chunk_ledger() {
        use ocelot_obs::ledger::{check_causality, Timeline};
        let svc =
            Service::start(ServiceConfig { workers: 1, stream_window: 4, codec_threads: 2, ..Default::default() });
        let id = svc.submit(miranda_job("climate")).unwrap();
        svc.drain();
        let events = svc.chunk_events(id);
        assert!(!events.is_empty(), "streamed job must leave chunk events");
        let violations = check_causality(&events, id.0);
        assert!(violations.is_empty(), "causality holds: {violations:?}");
        let tl = Timeline::reconstruct(&events, id.0).expect("timeline reconstructs from the job's events");
        assert!(!tl.tracks.is_empty());
        assert!(tl.total_s > 0.0);
        assert_eq!(tl.total_retries(), 0, "healthy link: no retransmits");
        // The accessor is repeatable: reading widens, it does not take.
        assert_eq!(svc.chunk_events(id).len(), events.len());
    }

    #[test]
    fn flaky_streamed_wan_attributes_chunk_retries_to_the_tenant() {
        let cfg = ServiceConfig {
            workers: 1,
            stream_window: 2,
            codec_threads: 2,
            faults: FaultModel { per_attempt_failure_prob: 0.3, max_retries: 3, reconnect_s: 1.0 },
            ..Default::default()
        };
        let svc = Service::start(cfg);
        let id = svc.submit(miranda_job("flaky")).unwrap();
        svc.drain();
        let events = svc.chunk_events(id);
        let retransmits = events.iter().filter(|e| e.event == EventKind::Retransmit).count();
        assert!(retransmits > 0, "30% loss over many chunks must retransmit");
        assert!(
            events.iter().filter(|e| e.event == EventKind::Fault).all(|e| e.cause.is_some()),
            "every fault names its cause"
        );
        let analysis = svc.analyze();
        assert_eq!(analysis.chunk_retries.get("flaky").copied(), Some(retransmits as u64));
        // A job-scoped dump embeds the ledger tail for fault attribution.
        let dump = svc.force_flight_dump("postmortem", Some(id));
        assert!(!dump.ledger.is_empty(), "dump embeds the job's ledger tail");
        assert!(dump.ledger.len() <= crate::forensics::LEDGER_EMBED_EVENTS);
    }

    #[test]
    fn streamed_jobs_report_their_chunk_retries() {
        let specs = || {
            [
                miranda_job("a"),
                JobSpec::compressed("b", Application::Rtm, 1e-3, SiteId::Anvil, SiteId::Bebop),
                JobSpec::compressed("a", Application::Miranda, 1e-3, SiteId::Bebop, SiteId::Cori),
            ]
        };
        let run = |faults| {
            let svc = Service::start(ServiceConfig { workers: 1, stream_window: 4, faults, ..Default::default() });
            let ids: Vec<JobId> = specs().into_iter().map(|spec| svc.submit(spec).unwrap()).collect();
            svc.drain();
            let reports = svc.reports();
            let by_id = |id: JobId| reports.iter().find(|r| r.job == id).unwrap().clone();
            let rows: Vec<(JobReport, u64)> = ids
                .iter()
                .map(|&id| {
                    let retransmits = svc.chunk_events(id).iter().filter(|e| e.event == EventKind::Retransmit).count();
                    (by_id(id), retransmits as u64)
                })
                .collect();
            (rows, svc.metrics(), svc.analyze().chunk_retries)
        };
        let (healthy, _, _) = run(FaultModel::none());
        let (flaky, metrics, per_tenant) = run(FaultModel::flaky(0.3));
        for ((h, _), (f, retransmits)) in healthy.iter().zip(&flaky) {
            assert_eq!(f.state, JobState::Done, "every chunk arrives in the end");
            assert_eq!(u64::from(f.retries), *retransmits, "job {}: report vs ledger", f.job.0);
            assert_eq!(f.bytes_transferred, h.bytes_transferred, "job {}: the payload that landed", f.job.0);
        }
        let retries: u64 = flaky.iter().map(|(r, _)| u64::from(r.retries)).sum();
        let wasted: u64 = flaky.iter().map(|(r, _)| r.wasted_bytes).sum();
        assert!(retries > 0 && wasted > 0, "30% loss over many chunks re-sends some");
        assert_eq!(retries, per_tenant.values().sum::<u64>(), "the ledger's retransmits");
        assert_eq!((metrics.transfer_retries, metrics.wasted_bytes), (retries, wasted), "the service's counters");
    }

    /// The tail a dump of `id` embeds is the last [`crate::forensics::LEDGER_EMBED_EVENTS`]
    /// of the job's widened events, exactly.
    fn assert_tail_is_the_events_tail(svc: &Service, id: JobId) {
        use crate::forensics::{LedgerEventRecord, LEDGER_EMBED_EVENTS};
        let events = svc.chunk_events(id);
        let widened: Vec<LedgerEventRecord> =
            events[events.len() - LEDGER_EMBED_EVENTS..].iter().map(LedgerEventRecord::from).collect();
        let tail = ledger_tail(&svc.shared.store.lock().unwrap().kept(id.0).unwrap().0);
        assert_eq!(tail, widened);
        assert_eq!(svc.force_flight_dump("postmortem", Some(id)).ledger, widened);
    }

    #[test]
    fn a_dump_of_a_job_that_gave_up_embeds_its_events_tail() {
        // Half of all attempts fail: an eighth of the files fail all three,
        // so the job gives up after two rounds with the rest delivered.
        let cfg = ServiceConfig {
            workers: 1,
            faults: FaultModel { per_attempt_failure_prob: 0.5, max_retries: 1, reconnect_s: 1.0 },
            retry: RetryPolicy { max_attempts: 3, ..Default::default() },
            ..quick_config()
        };
        let svc = Service::start(cfg);
        let id = svc.submit(miranda_job("doomed")).unwrap();
        svc.drain();
        let dump = &svc.flight_dumps()[0];
        assert_eq!((dump.reason.as_str(), dump.job), ("retry_exhausted", Some(id.0)));
        let events = svc.chunk_events(id);
        assert!(events.len() > 1000, "{} events", events.len());
        assert_eq!(events.iter().filter(|e| e.event == EventKind::RetryEnd).count(), 2);
        assert!(events.iter().all(|e| e.event != EventKind::DecodeEnd), "a job that gave up decodes nothing");
        assert_tail_is_the_events_tail(&svc, id);
        assert_eq!(dump.ledger, svc.force_flight_dump("postmortem", Some(id)).ledger);
    }

    #[test]
    fn chunk_store_keeps_the_newest_jobs_and_every_retransmit_count() {
        use ocelot_obs::ledger::Lifecycle;
        // One chunk that fails `retransmits` attempts before it lands:
        // eleven events, two more per failed attempt.
        let schedule = |job: u64, retransmits: usize| {
            Schedule::new(Lifecycle {
                job,
                file: vec![0],
                chunk: vec![0],
                bytes: vec![10],
                compress_begin: vec![0.0],
                ready: vec![0.0],
                release: vec![0.0],
                sent: vec![0.0],
                landed: vec![0.0],
                decode: vec![(0.0, 0.0)],
                failed: vec![(0, 0.5); retransmits],
                ..Lifecycle::default()
            })
        };
        let mut store = ChunkStore::new();
        let jobs = LEDGER_JOBS_KEPT as u64 + 5;
        for job in 0..jobs {
            let schedule = schedule(job, usize::from(job % 2 == 0));
            let attribution = critpath::attribute(&schedule);
            store.file(schedule, attribution, job);
        }
        assert_eq!(store.kept.len(), LEDGER_JOBS_KEPT);
        assert!(store.schedule(JobId(4)).is_none(), "the oldest jobs' events are dropped");
        let oldest_kept = store.schedule(JobId(5)).unwrap().events();
        assert_eq!(oldest_kept.len(), 11);
        // Jobs 0 … 4 took 13 + 11 + 13 + 11 + 13 sequence numbers from 1 on.
        assert_eq!((oldest_kept[0].seq, oldest_kept[0].t_wall_us), (62, 5), "numbered and stamped when filed");
        let newest: Vec<EventKind> =
            store.schedule(JobId(jobs - 1)).unwrap().events().iter().map(|e| e.event).collect();
        assert_eq!(newest.len(), 13);
        assert_eq!(newest.iter().filter(|&&k| k == EventKind::Retransmit).count(), 1);
        assert_eq!((newest[0], newest[12]), (EventKind::JobBegin, EventKind::JobEnd), "a job's events stay whole");
        assert_eq!(store.settled.len() as u64, jobs, "reports and retransmit counts outlive the schedules");
        assert!(store.settled.iter().all(|(job, (_, n))| *n == u64::from(job % 2 == 0)));
        let (_, attribution) = store.kept(jobs - 1).unwrap();
        assert_eq!(store.settled[&(jobs - 1)].0, attribution.report, "one attribution, kept beside the schedule");
    }

    #[test]
    fn concurrent_workers_number_jobs_in_contiguous_ranges() {
        use ocelot_obs::ledger::check_causality;
        // Chunk counts differ from job to job (Miranda, RTM and CESM streamed
        // at chunk grain, Miranda staged at file grain), so a miscounted
        // range shows as a gap or an overlap.
        let svc = Service::start(ServiceConfig { workers: 2, stream_window: 4, ..quick_config() });
        for i in 0..8 {
            let app = [Application::Miranda, Application::Rtm, Application::Cesm][i % 3];
            let mut spec = JobSpec::compressed("t", app, 1e-3, SiteId::Anvil, SiteId::Bebop);
            if i % 4 == 3 {
                spec.strategy = Strategy::grouped_by_count(8);
            }
            svc.submit(spec).unwrap();
        }
        svc.drain();
        let store = svc.shared.store.lock().unwrap();
        assert_eq!(store.kept.len(), 8);
        let mut next = 1;
        for (schedule, _) in &store.kept {
            let events = schedule.events();
            assert_eq!(events[0].seq, next, "job {}: its range follows the last one", schedule.job());
            assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1), "job {}: one range", schedule.job());
            assert_eq!(check_causality(&events, schedule.job()), Vec::<String>::new());
            next += events.len() as u64;
        }
        assert_eq!(next, store.next_seq);
    }

    #[test]
    fn a_job_of_more_events_than_the_old_ring_held_keeps_its_head() {
        use ocelot_obs::ledger::{check_causality, Timeline};
        // CESM at profile scale 8 under an 8-chunk window on a flaky WAN:
        // 7 137 chunks, ≈ 67 000 events — more than the 65 536 a per-thread
        // ring used to hold, which then dropped the front of the job.
        let cfg = ServiceConfig { workers: 1, stream_window: 8, faults: FaultModel::flaky(0.1), ..Default::default() };
        let svc = Service::start(cfg.clone());
        let id = svc.submit(JobSpec::compressed("t", Application::Cesm, 1e-3, SiteId::Anvil, SiteId::Cori)).unwrap();
        svc.drain();
        let events = svc.chunk_events(id);
        assert!(events.len() > 1 << 16, "{} events", events.len());
        assert_eq!(events[0].event, EventKind::JobBegin);
        assert_eq!(events[1].event, EventKind::TransferBegin);
        assert_eq!(check_causality(&events, id.0), Vec::<String>::new());
        let tl = Timeline::reconstruct(&events, id.0).expect("timeline reconstructs");
        assert_eq!(tl.tracks.len(), 7137);
        assert!(tl.total_retries() > 0);
        assert_tail_is_the_events_tail(&svc, id);

        // Filing the schedule under its job and widening it on read gives what
        // the same run's schedule numbered from 1 gives (the commit's stamp
        // aside).
        let workload = svc.shared.workloads.lock().unwrap().values().next().unwrap().clone();
        let opts = PipelineOptions {
            faults: FaultModel { max_retries: 0, ..cfg.faults },
            seed: cfg.seed,
            job: Some(id.0),
            ..PipelineOptions::default()
        };
        let strategy = Strategy::Pipelined { window: cfg.stream_window };
        let out = Orchestrator::paper().run(&workload, SiteId::Anvil, SiteId::Cori, strategy, &opts);
        let numbered = out.schedule.expect("a run with a job has a schedule").numbered(1, 0).events();
        assert_eq!(numbered.len(), events.len());
        let stampless = |e: &LedgerEvent| LedgerEvent { t_wall_us: 0, ..e.clone() };
        assert!(events.iter().zip(&numbered).all(|(a, b)| stampless(a) == *b));
    }

    #[test]
    fn a_jobs_bookkeeping_does_not_walk_the_service_history() {
        let svc = Service::start(ServiceConfig { workers: 1, queue_capacity: 256, ..Default::default() });
        for i in 0..200 {
            let mut spec = miranda_job(["a", "b", "c"][i % 3]);
            if i % 2 == 1 {
                spec.strategy = Strategy::grouped_by_count(8 + i % 5);
            }
            svc.submit(spec).unwrap();
        }
        svc.drain();
        assert_eq!(svc.metrics().jobs_done, 200);
        // Every job left one report, attributed once when it settled, and
        // the running sum is the from-scratch aggregate of them, bit for bit
        // (one worker: jobs finish in id order, the order they are stored).
        let reports: Vec<BottleneckReport> =
            svc.shared.store.lock().unwrap().settled.values().map(|(r, _)| r.clone()).collect();
        assert_eq!(reports.len(), 200);
        let scratch = critpath::aggregate(&reports).unwrap();
        let running = svc.shared.bottlenecks.lock().unwrap().report().unwrap();
        assert_eq!(running, scratch);
        let bits = |r: &critpath::BottleneckReport| r.stage_s.map(f64::to_bits);
        assert_eq!(bits(&running), bits(&scratch));
        assert_eq!(running.critical_path_s.to_bits(), scratch.critical_path_s.to_bits());
        assert_eq!(svc.hint(), Some(derive_hint(&scratch, 1, svc.shared.obs.registry())));
        // Only the newest jobs' schedules stay in memory.
        assert_eq!(svc.shared.store.lock().unwrap().kept.len(), LEDGER_JOBS_KEPT);
    }

    #[test]
    fn finished_jobs_leave_latency_exemplars() {
        let svc = Service::start(quick_config());
        let id = svc.submit(miranda_job("climate")).unwrap();
        svc.drain();
        let h = &svc.shared.metrics.latency;
        let tagged = (0..ocelot_obs::metrics::N_BUCKETS).filter_map(|i| h.exemplar(i)).collect::<Vec<_>>();
        assert_eq!(tagged.len(), 1, "one observation tags exactly one bucket");
        let (job, value) = tagged[0];
        assert_eq!(job, id.0);
        assert!(value > 0.0 && value.is_finite());
    }
}
